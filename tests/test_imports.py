"""Each command loads only the layer modules it runs; the package exports stay the same and are read.

The Hermite form of the lattice core runs in exactly two places, read from the source.

The footprint is read in a fresh child process, because this one has long
since imported every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pervchow

SRC = Path(pervchow.__file__).resolve().parent.parent

# runs one command through the CLI, then prints its exit code, the pervchow
# modules loaded, and whether the standard modules in COSTLY were loaded too
CHILD = """
import json, sys
from pervchow import cli
report = cli.run(sys.argv[1:])
report.render(False)
loaded = [name.split(".")[1] for name in sys.modules if name.startswith("pervchow.")]
loaded += [name for name in ("dataclasses", "inspect") if name in sys.modules]
print(json.dumps({"exit": report.exit_code, "loaded": sorted(loaded)}))
"""

LAYERS = {"perversity", "strata", "abgroup", "chow", "cycles", "cocycles", "cones"}
# no command needs them: ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and ``tokenize``
COSTLY = {"dataclasses", "inspect"}

# the package exports, by the module that defines each
EXPORTS = {
    "perversity": ["GeneralizedBound", "Perversity", "add", "leq", "star_compose", "top", "zero"],
    "strata": ["ModelTag", "Stratification", "StratumSpec", "isolated_vertex", "product_with_fiber", "suspend"],
    "abgroup": [
        "FpAbelianGroup", "GroupMap", "SmithForm", "describe", "invariant_factors", "is_exact_at_middle",
        "smith_normal_form",
    ],
    "chow": [
        "ChowClass", "ChowRingPresentation", "builtin", "degree", "mul", "point", "product_presentation",
        "projective_space", "quadric_surface",
    ],
    "cycles": [
        "EMPTY", "CyclePattern", "FamilyCertificate", "JointPattern", "check_family_certificate",
        "check_perversity", "check_star", "empty_pattern", "flat_pullback", "proper_pushforward",
        "sum_patterns", "suspend_pattern",
    ],
    "cocycles": [
        "CocyclePattern", "cap_pattern", "check_cocycle", "join", "morphism_fiber_pattern", "slice_against",
        "slice_with_hyperplanes",
    ],
    "cones": [
        "ConeClass", "ConeProductError", "ConeVariety", "Mode", "cartier_coherence_check", "chow_group",
        "class_to_pattern", "comparison_map", "degree_pairing", "intersect", "vertex_bound", "zobel",
    ],
}


def loaded_by(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    result = json.loads(proc.stdout)
    assert result["exit"] == 0, result
    return set(result["loaded"])


@pytest.mark.parametrize(
    "argv, needed, absent",
    [
        (["snf", "--matrix", "[[2,4],[6,8]]"], {"abgroup"}, LAYERS - {"abgroup"}),
        (
            ["check-cycle", "--pattern", '{"dim":1,"incidence":{"1":"empty"}}', "--perversity", "[0]",
             "--strata", "vertex1"],
            {"cycles"},
            {"abgroup", "chow", "cones"},
        ),
        (["schema", "snf"], set(), LAYERS),
        # the cone model reads the incidence calculus only to build patterns, bounds and strata
        (
            ["pairing", "--cone", "P6", "--a", "allowed:4:(1)", "--b", "allowed:4:(1)"],
            {"abgroup", "chow", "cones"},
            {"perversity", "strata", "cycles", "cocycles"},
        ),
    ],
    ids=["snf", "check-cycle", "schema", "pairing"],
)
def test_command_loads_only_its_layers(argv, needed, absent):
    loaded = loaded_by(argv)
    assert needed <= loaded
    absent = absent | COSTLY
    assert not loaded & absent, f"{argv[0]} loaded {sorted(loaded & absent)}"


def test_exports_resolve_to_their_modules():
    import importlib

    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"pervchow.{module_name}")
        assert getattr(pervchow, module_name) is module
        for name in names:
            assert getattr(pervchow, name) is getattr(module, name), name
    assert sorted(pervchow.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        pervchow.no_such_name


# the exports that no layer module, bench or script reads, each with its reason to stay
UNREAD_EXPORTS = {
    "leq": "the order of bounds, asserted by the acceptance suite",
    "star_compose": "the pushforward transform of a bound, asserted by the acceptance suite",
    "check_star": "the pairwise condition as one verdict, asserted by the acceptance suite",
    "check_cocycle": "cocycle membership as one verdict, asserted by the acceptance suite",
    "check_family_certificate": "rational equivalence through a family, a paper object awaiting a command",
    "morphism_fiber_pattern": "the cocycle of a dominant morphism, a paper object awaiting a command",
    "add": "the sum of two bounds, asserted by the acceptance suite",
    "top": "the top perversity, asserted by the acceptance suite",
    "zero": "the zero perversity, asserted by the acceptance suite",
}


def reads_of_exports(path):
    """``(module, name)`` for each read in ``path`` that resolves to a package export: ``name`` imported from a
    pervchow module, ``name`` as an attribute of ``pc``, ``pervchow`` or ``module``, or a bare ``name`` inside
    ``module``; ``module`` is None where the read does not say which module defines the name."""
    here = path.stem if path.parent == SRC / "pervchow" else None
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pervchow"):
            found += [(None, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", None)
            if owner in ("pc", "pervchow"):
                found.append((None, node.attr))
            elif owner in EXPORTS:
                found.append((owner, node.attr))
        elif isinstance(node, ast.Name) and here:
            found.append((here, node.id))
    return found


def test_every_other_export_is_read_outside_the_tests():
    root = SRC.parent
    files = [path for path in (SRC / "pervchow").glob("*.py") if path.name != "__init__.py"]
    files += [*(root / "bench").glob("*.py"), *(root / "scripts").glob("*.py")]
    read = {pair for path in files for pair in reads_of_exports(path)}
    unread = {
        name for module, names in EXPORTS.items() for name in names
        if (None, name) not in read and (module, name) not in read
    }
    assert unread == set(UNREAD_EXPORTS)
    with pytest.raises(AttributeError):
        pervchow.RankProfile


def names_by_function(path):
    """``(qualified name of the enclosing function or class, name)`` for every name and attribute read in ``path``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Name):
                found.append((where, child.id))
            elif isinstance(child, ast.Attribute):
                found.append((where, child.attr))
            visit(child, where)

    visit(ast.parse(path.read_text()), "")
    return found


def callers_of(target):
    """``<module>.<enclosing function or class>`` for every read of the name ``target`` in ``src/``."""
    return {
        f"{path.stem}.{where}"
        for path in (SRC / "pervchow").glob("*.py")
        for where, name in names_by_function(path)
        if name == target
    }


def test_hermite_form_runs_only_in_lattice_and_smith_form():
    # a kernel is read off the basis of the Lattice of a map's graph; no other code runs or certifies a Hermite form
    assert callers_of("_hnf") == {"abgroup.Lattice.__init__", "abgroup.smith_normal_form"}


def test_only_the_smith_form_check_takes_a_determinant():
    # a kernel is covered by its Lattice's certificate, so no determinant runs outside _verify_smith
    assert callers_of("det") == {"abgroup._verify_smith"}


def test_the_row_index_is_read_only_in_chow():
    # outside chow, a ring's structure constants are read through its one canonical listing
    assert {where.split(".")[0] for where in callers_of("_rows")} == {"chow"}
    tree = ast.parse((SRC / "pervchow" / "serialize.py").read_text())
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = [
        (node.attr, id(node) in called) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_rows", "products")
    ]
    assert reads == [("products", True)]


def test_no_message_quotes_a_value_with_repr():
    # a message, and a field name that a reader puts in one, quotes an input value through ``_value.echo``,
    # which cuts it at a fixed length; ``!r`` would quote it whole.  Only a ``__repr__`` may use ``!r``;
    # ``_value`` defines echo, and ``__init__`` quotes only an attribute name.
    found = []
    for path in (SRC / "pervchow").glob("*.py"):
        if path.name in ("_value.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        reprs = {
            id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "__repr__"
            for node in ast.walk(f)
        }
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r") and id(node) not in reprs
        ]
    assert found == []


def test_the_self_check_error_is_one_class():
    # cli.run catches the class that _value defines, which the lattice core raises
    from pervchow import _value, abgroup, cli

    assert abgroup.VerificationError is _value.VerificationError is cli.VerificationError


def test_only_run_builds_a_report_and_handlers_take_args_alone():
    # a handler returns (verdicts, values) from the parsed args, and cli.run builds the one Report from them
    from pervchow import cli

    tree = ast.parse((SRC / "pervchow" / "cli.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    builds = {
        id(node) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Report"
    }
    run = next(f for f in functions if f.name == "run")
    assert builds and builds <= {id(node) for node in ast.walk(run)}
    handlers = {f.name: f.args for f in functions if f.name.startswith("_cmd_")}
    assert len(handlers) == len(cli.COMMANDS)
    for name, args in handlers.items():
        assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["args"], name
        assert args.vararg is None and args.kwarg is None, name


def test_only_value_writes_record_fields():
    # a record's fields are set once, by Value._init through the slot descriptors; no other module
    # reaches past the refusing __setattr__, through object.__setattr__ or a descriptor's __set__
    found = [
        f"{path.name}:{node.lineno}" for path in (SRC / "pervchow").glob("*.py") if path.name != "_value.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__")
    ]
    assert found == []
