"""Tests for the witness catalog and the verification suites."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delpezzo_lct import (
    SCENARIOS,
    Component,
    DivisorConfiguration,
    find_model_isometry,
    lct_global,
    non_klt_locus,
    verify_complementary_sections,
    verify_corollary,
    verify_degree4_bound_chain,
    verify_lemma_G,
    verify_lemma_H,
    verify_lines,
    verify_table1,
    witness,
)
from delpezzo_lct import glct
from delpezzo_lct.cli import main
from delpezzo_lct.glct import class_C0, class_E


OMEGAS = {
    "deg1_no_cusp": Fraction(1),
    "deg1_cuspidal": Fraction(5, 6),
    "deg2_no_tacnodal": Fraction(5, 6),
    "deg2_tacnodal": Fraction(3, 4),
    "deg3_no_eckardt": Fraction(3, 4),
    "deg3_eckardt": Fraction(2, 3),
    "deg4": Fraction(2, 3),
    "deg5": Fraction(1, 2),
    "deg6": Fraction(1, 2),
    "deg8_quadric": Fraction(1, 2),
    "deg7": Fraction(1, 3),
    "deg8_F1": Fraction(1, 3),
    "deg9": Fraction(1, 3),
}


def test_scenario_table_is_complete():
    assert {s.variant for s in SCENARIOS} == set(OMEGAS)
    for s in SCENARIOS:
        assert s.omega == OMEGAS[s.variant]


@pytest.mark.parametrize("variant", sorted(OMEGAS))
def test_witness_sums_to_anticanonical(variant):
    rec = witness(variant)
    total = rec.config.total_class()
    assert total == -rec.config.surface.canonical


@pytest.mark.parametrize("variant", sorted(OMEGAS))
def test_witness_threshold_equals_omega(variant):
    rec = witness(variant)
    assert lct_global(rec.config).lct == OMEGAS[variant]


def test_witness_provenance_tags():
    assert set(witness("deg4").provenance.values()) == {"explicit"}
    assert set(witness("deg5").provenance.values()) == {"derived"}


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        witness("deg11")


def test_exported_witnesses_match_frozen_benchmark_inputs(tmp_path):
    # bench/data holds the benchmark's inputs; they must stay the export of
    # the witness catalog, byte for byte.
    root = Path(__file__).resolve().parents[1]
    src_path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src_path))
    script = root / "scripts" / "export_witnesses.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], env=env, check=True, capture_output=True)
    frozen = root / "bench" / "data"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in frozen.glob("*.json"))
    assert len(names) == len(SCENARIOS)
    for name in names:
        assert (tmp_path / name).read_bytes() == (frozen / name).read_bytes(), name


def test_deg4_witness_matches_triple_point_construction():
    rec = witness("deg4")
    ids = sorted(c.id for c in rec.config.components)
    assert ids == ["A2", "E1", "L12"]
    comps, points = non_klt_locus(rec.config, Fraction(2, 3))
    assert comps == frozenset() and points == frozenset({"p"})


def _apply_isometry_to_config(cfg, iso):
    return DivisorConfiguration(
        cfg.surface,
        tuple(Component(c.id, iso.apply(c.cls), c.coeff) for c in cfg.components),
        cfg.points,
    )


def test_model_change_invariance_of_deg4_witness():
    rec = witness("deg4")
    s = rec.config.surface
    iso = find_model_isometry(s, [(class_C0(s), class_E(s, 1))])
    mapped = _apply_isometry_to_config(rec.config, iso)
    for before, after in zip(rec.config.components, mapped.components):
        assert before.cls.degree == after.cls.degree
        assert before.cls.self_intersection == after.cls.self_intersection
    assert lct_global(mapped).lct == lct_global(rec.config).lct


@pytest.mark.parametrize("variant", ["deg4", "deg5", "deg6", "deg7", "deg3_eckardt"])
def test_model_change_invariance_under_random_words(variant):
    import random

    from delpezzo_lct.lattice import LatticeIsometry, _generator_roots

    rec = witness(variant)
    s = rec.config.surface
    roots = _generator_roots(s)
    rng = random.Random(f"model-change:{variant}")
    baseline = lct_global(rec.config).lct
    for _ in range(6):
        iso = LatticeIsometry.identity(s)
        for _ in range(rng.randint(1, 5)):
            iso = LatticeIsometry.reflection(s, rng.choice(roots)).compose(iso)
        mapped = _apply_isometry_to_config(rec.config, iso)
        assert lct_global(mapped).lct == baseline


def _assert_all_passed(report):
    failing = [r for r in report.results if not r.passed]
    assert not failing, "\n".join(
        f"{r.check_id}: expected {r.expected}, computed {r.computed}" for r in failing
    )


def test_verify_table1():
    report = verify_table1()
    _assert_all_passed(report)
    assert len(report.results) == 8


def test_verify_lines():
    _assert_all_passed(verify_lines())


def test_verify_lemma_G_case1():
    _assert_all_passed(verify_lemma_G("case1"))


def test_verify_lemma_G_case2_values_and_flag():
    report = verify_lemma_G("case2")
    _assert_all_passed(report)
    by_id = {r.check_id: r for r in report.results}
    assert by_id["lemma_G.case2.root_coefficient"].computed == "5/9"
    flag = by_id["lemma_G.case2.printed_coefficient_flag"]
    assert flag.passed and "7/10" in flag.computed


@pytest.mark.parametrize("case", ["1.1", "1.2a", "1.2b", "2.1", "2.2", "2.3"])
def test_verify_lemma_H_cases(case):
    _assert_all_passed(verify_lemma_H(case))


def test_lemma_H_reported_multiplicities():
    by_id = {r.check_id: r for r in verify_lemma_H("1.1").results}
    assert by_id["lemma_H.1.1.mult_p"].computed == "4/3"  # 8/6 in lowest terms
    by_id = {r.check_id: r for r in verify_lemma_H("2.1").results}
    assert by_id["lemma_H.2.1.mult_p"].computed == "3/2"


def test_lemma_H_case22_chain():
    by_id = {r.check_id: r for r in verify_lemma_H("2.2").results}
    assert "a(F1)=1/5, a(F2)=2/15" in by_id["lemma_H.2.2.chain_coefficients"].computed
    assert by_id["lemma_H.2.2.intersection_table"].passed


def test_verify_corollary():
    report = verify_corollary()
    _assert_all_passed(report)
    assert len(report.results) == 2 * len(SCENARIOS)


def test_verify_complementary_sections():
    _assert_all_passed(verify_complementary_sections())


def test_degree4_bound_chain():
    _assert_all_passed(verify_degree4_bound_chain())


@pytest.mark.parametrize("omega", [Fraction(1, 2), Fraction(3, 4)])
def test_bound_chain_fails_when_deg4_omega_is_wrong(monkeypatch, omega):
    # The chain's checks compare numbers from different sources, so a wrong
    # table value for degree 4 must fail the suite.
    wrong = dataclasses.replace(glct.scenario("deg4"), omega=omega)
    monkeypatch.setitem(glct._SCENARIO_BY_VARIANT, "deg4", wrong)
    by_id = {r.check_id: r for r in verify_degree4_bound_chain().results}
    assert not by_id["bound_chain.contradiction"].passed
    assert by_id["bound_chain.sharp_at_omega"].passed
    assert main(["verify", "--suite", "lemmaH"]) == 1


def test_bound_chain_fails_when_h_cap_is_wrong(monkeypatch):
    monkeypatch.setattr(glct, "_H_CAP", 4)
    by_id = {r.check_id: r for r in verify_degree4_bound_chain().results}
    assert by_id["bound_chain.interval"].passed
    assert not by_id["bound_chain.contradiction"].passed
    assert not by_id["bound_chain.sharp_at_omega"].passed


def test_lemma_G_invalid_case():
    with pytest.raises(KeyError):
        verify_lemma_G("case3")
    with pytest.raises(KeyError):
        verify_lemma_H("9.9")
