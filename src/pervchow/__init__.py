"""Exact calculator for perversity incidence data on stratified varieties.

The package provides perversity/bound arithmetic, stratification
descriptors, finitely presented abelian groups with Smith normal form,
presented intersection rings of smooth bases, an incidence-pattern calculus
for cycles and generalized cocycles, and the full class-group and
three-case intersection pairing computation on cones over smooth projective
bases.  All arithmetic is exact; there are no tolerances anywhere.

Each public name is imported from its module on first access (PEP 562), so
``import pervchow`` loads no layer module and a command that needs only the
Smith normal form never compiles the cone model.
"""

from importlib import import_module

_EXPORTS = {
    "perversity": (
        "GeneralizedBound", "Perversity", "add", "leq", "star_compose", "top", "zero",
    ),
    "strata": (
        "Stratification", "StratumSpec", "isolated_vertex", "product_with_fiber", "suspend",
    ),
    "abgroup": (
        "FpAbelianGroup", "GroupMap", "SmithForm", "describe", "invariant_factors", "is_exact_at_middle",
        "smith_normal_form",
    ),
    "chow": (
        "ChowClass", "ChowRingPresentation", "builtin", "degree", "mul", "point", "product_presentation",
        "projective_space", "quadric_surface",
    ),
    "cycles": (
        "EMPTY", "CyclePattern", "FamilyCertificate", "JointPattern", "check_family_certificate",
        "check_perversity", "check_star", "empty_pattern", "flat_pullback", "proper_pushforward",
        "sum_patterns", "suspend_pattern",
    ),
    "cocycles": (
        "CocyclePattern", "cap_pattern", "check_cocycle", "join", "morphism_fiber_pattern", "slice_against",
        "slice_with_hyperplanes",
    ),
    "cones": (
        "ConeClass", "ConeProductError", "ConeVariety", "Mode", "cartier_coherence_check", "chow_group",
        "class_to_pattern", "comparison_map", "degree_pairing", "intersect", "vertex_bound", "zobel",
    ),
}

# public name -> the module that defines it; each layer module is also reachable by its own name
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
