"""The package root: its public names, resolved on first attribute access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo_lct

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = ("clusters", "glct", "lattice", "oracles", "properties", "rationals", "report")

ALL = [
    "BLOWUP", "CheckResult", "ClusterError", "ClusterNode", "Component", "ConfigPoint",
    "DivisorClass", "DivisorConfiguration", "Germ", "GlctScenario", "Incidence",
    "InconsistentConfigError", "LatticeError", "LatticeIsometry", "LctCertificate", "QUADRIC",
    "Report", "SCENARIOS", "SurfaceModel", "WeightedCluster", "WitnessRecord", "apply_isometry",
    "arithmetic_genus", "brute_force_classes", "canonical_form", "clusters",
    "compile_configuration", "degree_of", "enumerate_classes", "find_model_isometry", "glct",
    "intersect", "is_log_canonical", "lattice", "lct_at_point", "lct_global",
    "line_intersection_matrix", "local_intersection", "log_discrepancy", "make_surface",
    "multiplicity_at", "non_klt_locus", "oracles", "properties", "rationals", "report",
    "resolve_germ", "resolve_parametrized", "run_property_suites", "scale_configuration",
    "scenario", "simulate_pullbacks", "transform_by_blowup", "valuation",
    "verify_complementary_sections", "verify_corollary", "verify_degree4_bound_chain",
    "verify_lemma_G", "verify_lemma_H", "verify_lines", "verify_table1", "with_coefficients",
    "witness",
]


def test_all_is_pinned():
    assert len(ALL) == 63
    assert sorted(delpezzo_lct.__all__) == ALL


# The exported values that carry no __module__ of their own.
CONSTANT_OWNERS = {"BLOWUP": "lattice", "QUADRIC": "lattice", "SCENARIOS": "glct"}


@pytest.mark.parametrize("name", ALL)
def test_name_resolves_to_its_owner(name):
    got = getattr(delpezzo_lct, name)
    if name in SUBMODULES:
        assert got is importlib.import_module(f"delpezzo_lct.{name}")
        return
    owner = CONSTANT_OWNERS.get(name) or got.__module__.removeprefix("delpezzo_lct.")
    assert owner in SUBMODULES
    assert got is getattr(importlib.import_module(f"delpezzo_lct.{owner}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from delpezzo_lct import *", namespace)
    assert set(ALL) <= set(namespace)
    assert all(namespace[name] is getattr(delpezzo_lct, name) for name in ALL)


def test_dir_lists_every_public_name():
    assert set(ALL) <= set(dir(delpezzo_lct))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        delpezzo_lct.no_such_name
    assert str(err.value) == "module 'delpezzo_lct' has no attribute 'no_such_name'"


def test_import_loads_no_submodule():
    code = (
        "import sys, delpezzo_lct\n"
        "print(sorted(m for m in sys.modules if m.startswith('delpezzo_lct')))\n"
        "delpezzo_lct.make_surface\n"
        "print(sorted(m for m in sys.modules if m.startswith('delpezzo_lct')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == [
        "['delpezzo_lct']",
        "['delpezzo_lct', 'delpezzo_lct.lattice']",
    ]
