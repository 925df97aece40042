#!/usr/bin/env python3
"""Walk through the cone over the quadric surface, printing every table.

Reproduces the class groups at each vertex bound, the comparison maps, the
membership verdicts for the named lines, and the full pairing table,
including the pair that admits no product.
"""

import pervchow as pc
from pervchow import chow


def main() -> None:
    cat = pc.zobel()
    cone = cat.cone
    print(f"cone over {cone.base.name}: dimension {cone.cone_dim}, vertex stratification\n")

    print("class groups A(r, p):")
    for r in range(cone.cone_dim + 1):
        row = []
        for p in range(3):
            group = pc.chow_group(cone, r, p)
            mode = cone.mode(r, p).value[:4]
            row.append(f"p={p}: {pc.describe(group):4} ({mode})")
        print(f"  r={r}:  " + "   ".join(row))

    print("\ncomparison maps (relaxing the vertex bound):")
    for r, p_from, p_to in ((2, 0, 1), (1, 0, 2)):
        m = pc.comparison_map(cone, r, p_from, p_to)
        print(f"  r={r}, p {p_from} -> {p_to}: matrix {[list(row) for row in m.matrix]}")

    print("\nmembership of the named 1-cycles (vertex bound p):")
    for name in ("L", "M", "N"):
        pattern = pc.class_to_pattern(cat.classes[name])
        verdicts = [
            "pass" if pc.check_perversity(pattern, pc.vertex_bound(3, p)) else "fail"
            for p in range(3)
        ]
        print(f"  {name}: " + "  ".join(f"p={p}: {v}" for p, v in enumerate(verdicts)))

    print("\ndivisor pairing on the p=1 classes, (a,b) x (c,d) -> ad + bc:")
    for (a, b), (c, d) in (((1, 0), (0, 1)), ((1, 2), (3, 4)), ((2, -1), (1, 1))):
        out = pc.intersect(cone.cls(2, 1, [a, b]), cone.cls(2, 1, [c, d]))
        print(f"  ({a},{b}) . ({c},{d}) = {out.payload.coeffs[0]} * [cone line]")

    print("\ndegree pairings of complementary classes:")
    for left, right in (("D", "L"), ("D", "M"), ("H", "L"), ("H", "N")):
        value = pc.degree_pairing(cat.classes[left], cat.classes[right])
        print(f"  {left} . {right} = {value}")

    print("\nhyperplane sections multiply through the Cartier slice:")
    out = pc.intersect(cat.classes["H"], cat.classes["H"])
    print(f"  H . H = class {list(out.payload.coeffs)} in dimension {out.r} (mode {out.mode.value})")
    hh = chow.mul(out.payload, cone.hyperplane_class())
    print(f"  sliced once more: degree {chow.degree(hh)}")

    print("\nthe pair with no product (both at the top bound, r+s-d = 0):")
    a, b = cat.expected_pairings["top(r=2)*top(r=1)"]["operands"]
    try:
        pc.intersect(a, b)
    except pc.ConeProductError as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()
