"""Exact Picard-lattice arithmetic and log canonical thresholds for del
Pezzo surfaces: curve-class enumeration, weighted-cluster resolution of
divisor configurations, threshold certificates, and verification suites.

Submodules load on first attribute access (PEP 562), so ``import
delpezzo_lct`` and ``python -m delpezzo_lct`` pay only for what they use.
"""

from importlib import import_module as _import_module

# Each submodule -> the public names it defines.
_EXPORTS = {
    "clusters": (
        "ClusterError",
        "ClusterNode",
        "Component",
        "ConfigPoint",
        "DivisorConfiguration",
        "Germ",
        "Incidence",
        "InconsistentConfigError",
        "LctCertificate",
        "WeightedCluster",
        "canonical_form",
        "compile_configuration",
        "is_log_canonical",
        "lct_at_point",
        "lct_global",
        "local_intersection",
        "log_discrepancy",
        "multiplicity_at",
        "non_klt_locus",
        "scale_configuration",
        "transform_by_blowup",
        "valuation",
        "with_coefficients",
    ),
    "glct": (
        "SCENARIOS",
        "GlctScenario",
        "WitnessRecord",
        "scenario",
        "verify_complementary_sections",
        "verify_corollary",
        "verify_degree4_bound_chain",
        "verify_lemma_G",
        "verify_lemma_H",
        "verify_lines",
        "verify_table1",
        "witness",
    ),
    "lattice": (
        "BLOWUP",
        "QUADRIC",
        "DivisorClass",
        "LatticeError",
        "LatticeIsometry",
        "SurfaceModel",
        "apply_isometry",
        "arithmetic_genus",
        "degree_of",
        "enumerate_classes",
        "find_model_isometry",
        "intersect",
        "line_intersection_matrix",
        "make_surface",
    ),
    "oracles": (
        "brute_force_classes",
        "resolve_germ",
        "resolve_parametrized",
        "simulate_pullbacks",
    ),
    "properties": ("run_property_suites",),
    "report": ("CheckResult", "Report"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

# Submodules that ``from delpezzo_lct import *`` binds as well.
_SUBMODULES = ("clusters", "glct", "lattice", "oracles", "properties", "rationals", "report")

__all__ = sorted([*_OWNERS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
