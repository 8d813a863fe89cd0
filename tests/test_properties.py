"""Smoke tests for the seeded property suites (full scale runs in acceptance)."""

import pytest

from delpezzo_lct import properties, run_property_suites
from delpezzo_lct.properties import (
    run_adjunction,
    run_blowup_transfer,
    run_convexity,
    run_monotonicity,
    run_oracle_equivalence,
    run_order_independence,
    run_skoda,
    run_theorem_disjunction,
)


def test_all_suites_pass_at_small_scale():
    report = run_property_suites(seed=7, cases=120)
    failing = [r for r in report.results if not r.passed]
    assert not failing, failing
    assert len(report.results) == 8


def test_reports_are_reproducible():
    a = run_property_suites(seed=3, cases=60)
    b = run_property_suites(seed=3, cases=60)
    assert a == b


def test_different_seeds_still_pass():
    for seed in (1, 2):
        report = run_property_suites(seed=seed, cases=60)
        assert report.passed


def test_individual_runner_counts():
    result = run_skoda(seed=5, cases=40)
    assert result.passed
    assert "40 instances" in result.computed


def test_targeted_runners():
    assert run_skoda(11, 50).passed
    assert run_adjunction(11, 50).passed
    assert run_convexity(11, 50).passed
    assert run_monotonicity(11, 50).passed
    assert run_order_independence(11, 50).passed
    assert run_oracle_equivalence(11, 50).passed
    assert run_blowup_transfer(11, 50).passed
    assert run_theorem_disjunction(11, 50).passed


# Each suite's generator read once more after a full run.  All-pass reports
# print the same text for every seed, so these values are what pins the
# draws: a sampler that changes any RNG call, filter order or stopping rule
# changes them.
PINNED_DRAWS = {
    (0, 60): {
        "skoda": 4132245239459691911,
        "adjunction": 9723242111005460277,
        "theorem_disjunction": 16454864245361609400,
        "convexity": 2881992764960873013,
        "blowup_transfer": 17959394765621617696,
        "monotonicity": 10250753567629214435,
        "order_independence": 3048959916112661667,
        "oracle_equivalence": 5553367276009487548,
    },
    (5, 150): {
        "skoda": 8797996310367619134,
        "adjunction": 27391313041682314,
        "theorem_disjunction": 9040605985929772066,
        "convexity": 16691758453775508465,
        "blowup_transfer": 14161464010124981969,
        "monotonicity": 11078221239480482095,
        "order_independence": 8396117397774688598,
        "oracle_equivalence": 14886968801462498139,
    },
}


@pytest.mark.parametrize("seed,cases", sorted(PINNED_DRAWS))
def test_suite_draws_are_pinned(monkeypatch, seed, cases):
    generators = {}
    real_rng = properties._rng

    def capture(seed, name):
        generators[name] = real_rng(seed, name)
        return generators[name]

    monkeypatch.setattr(properties, "_rng", capture)
    assert run_property_suites(seed=seed, cases=cases).passed
    drawn = {name: rng.getrandbits(64) for name, rng in generators.items()}
    assert drawn == PINNED_DRAWS[seed, cases]


def test_every_failure_is_counted(monkeypatch):
    monkeypatch.setattr(properties, "_RUNNERS", [])

    @properties._suite
    def run_never(rng):
        """A law that fails on every instance."""
        return False, f"draw {rng.randrange(100)}"

    result = run_never(0, 40)
    assert not result.passed
    assert result.computed == "40 instances, 40 failures"
    assert len(result.note.split("; ")) == 5
    assert properties._RUNNERS == [run_never]
