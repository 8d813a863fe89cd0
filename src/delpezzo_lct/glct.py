"""Witness catalog and verification suites for global threshold values.

Binds lattice classes to local germ data: for every row of the threshold
table there is a stored anticanonical configuration whose threshold equals
the tabulated value exactly (the upper-bound certificates), and the
auxiliary-divisor case analyses for the degree-4 proof are replayed as
machine checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import clusters
from .clusters import (
    ClusterNode,
    Component,
    ConfigPoint,
    DivisorConfiguration,
    Germ,
    Incidence,
    WeightedCluster,
)
from .lattice import (
    BLOWUP,
    QUADRIC,
    DivisorClass,
    SurfaceModel,
    enumerate_classes,
    make_surface,
)
from .oracles import brute_force_classes
from .rationals import format_rational
from .report import CheckResult, Report


# ---------------------------------------------------------------------------
# Named classes on a blow-up surface


def class_H(s: SurfaceModel) -> DivisorClass:
    return s.basis_class(0)


def class_E(s: SurfaceModel, i: int) -> DivisorClass:
    return s.basis_class(i)


def class_L(s: SurfaceModel, i: int, j: int) -> DivisorClass:
    return class_H(s) - class_E(s, i) - class_E(s, j)


def class_B(s: SurfaceModel, i: int) -> DivisorClass:
    return class_H(s) - class_E(s, i)


def class_A(s: SurfaceModel, i: int) -> DivisorClass:
    c = 2 * class_H(s)
    for j in range(1, s.rank):
        if j != i:
            c = c - class_E(s, j)
    return c


def class_C0(s: SurfaceModel) -> DivisorClass:
    c = 2 * class_H(s)
    for j in range(1, s.rank):
        c = c - class_E(s, j)
    return c


def class_Q(s: SurfaceModel, i: int) -> DivisorClass:
    return -s.canonical - class_E(s, i)


def class_R(s: SurfaceModel) -> DivisorClass:
    return class_H(s)


def class_Rijk(s: SurfaceModel, i: int, j: int, k: int) -> DivisorClass:
    return 2 * class_H(s) - class_E(s, i) - class_E(s, j) - class_E(s, k)


# ---------------------------------------------------------------------------
# Scenario catalog


@dataclass(frozen=True)
class GlctScenario:
    """One row of the global threshold table."""

    variant: str
    degree: int
    basis_kind: str
    omega: Fraction


@dataclass(frozen=True)
class WitnessRecord:
    scenario: GlctScenario
    config: DivisorConfiguration
    provenance: Mapping[str, str]  # component id -> "explicit" | "derived"


SCENARIOS: tuple[GlctScenario, ...] = (
    GlctScenario("deg1_no_cusp", 1, BLOWUP, Fraction(1)),
    GlctScenario("deg1_cuspidal", 1, BLOWUP, Fraction(5, 6)),
    GlctScenario("deg2_no_tacnodal", 2, BLOWUP, Fraction(5, 6)),
    GlctScenario("deg2_tacnodal", 2, BLOWUP, Fraction(3, 4)),
    GlctScenario("deg3_no_eckardt", 3, BLOWUP, Fraction(3, 4)),
    GlctScenario("deg3_eckardt", 3, BLOWUP, Fraction(2, 3)),
    GlctScenario("deg4", 4, BLOWUP, Fraction(2, 3)),
    GlctScenario("deg5", 5, BLOWUP, Fraction(1, 2)),
    GlctScenario("deg6", 6, BLOWUP, Fraction(1, 2)),
    GlctScenario("deg8_quadric", 8, QUADRIC, Fraction(1, 2)),
    GlctScenario("deg7", 7, BLOWUP, Fraction(1, 3)),
    GlctScenario("deg8_F1", 8, BLOWUP, Fraction(1, 3)),
    GlctScenario("deg9", 9, BLOWUP, Fraction(1, 3)),
)

_SCENARIO_BY_VARIANT = {s.variant: s for s in SCENARIOS}

# Rows whose configurations come with a worked case analysis (replayed in
# the suites below) are tagged "explicit"; the remaining rows use the
# standard configurations the table values force.
_EXPLICIT_CONSTRUCTIONS = {"deg4", "deg2_tacnodal", "deg2_no_tacnodal"}


def scenario(variant: str) -> GlctScenario:
    try:
        return _SCENARIO_BY_VARIANT[variant]
    except KeyError:
        raise KeyError(f"unknown scenario {variant!r}") from None


def _through(pid: str, germ: Germ, comp_ids: Sequence[str]) -> ConfigPoint:
    """A point whose germ's branch slots 0, 1, ... lie on ``comp_ids``, in order."""
    return ConfigPoint(pid, germ, tuple(Incidence(c, n) for n, c in enumerate(comp_ids)))


def _transverse_point(pid: str, comp_a: str, comp_b: str) -> ConfigPoint:
    return _through(pid, Germ.smooth(2), (comp_a, comp_b))


def _ordinary_point(s: SurfaceModel, comps: Sequence[Component]) -> DivisorConfiguration:
    """All of ``comps``, one smooth branch each, through one ordinary point p."""
    point = _through("p", Germ.ordinary(len(comps)), [c.id for c in comps])
    return DivisorConfiguration(s, tuple(comps), (point,))


# Rows witnessed by one anticanonical curve C with this germ at p.
_ANTICANONICAL_GERMS = {
    "deg2_tacnodal": Germ.tacnode_curve(),
    "deg2_no_tacnodal": Germ.cusp(),
    "deg1_cuspidal": Germ.cusp(),
    "deg1_no_cusp": Germ.node(),
}


def _witness_config(sc: GlctScenario) -> DivisorConfiguration:
    s = SurfaceModel(sc.degree, sc.basis_kind)
    if sc.variant == "deg9":
        return DivisorConfiguration(s, (Component("L", class_H(s), 3),), ())
    if sc.variant == "deg8_F1":
        comps = (Component("B", class_B(s, 1), 3), Component("E1", class_E(s, 1), 2))
        return DivisorConfiguration(s, comps, (_transverse_point("p", "B", "E1"),))
    if sc.variant == "deg8_quadric":
        comps = (
            Component("f1", DivisorClass(s, (1, 0)), 2),
            Component("f2", DivisorClass(s, (0, 1)), 2),
        )
        return DivisorConfiguration(s, comps, (_transverse_point("p", "f1", "f2"),))
    if sc.variant == "deg7":
        comps = (
            Component("L12", class_L(s, 1, 2), 3),
            Component("E1", class_E(s, 1), 2),
            Component("E2", class_E(s, 2), 2),
        )
        points = (_transverse_point("p1", "L12", "E1"), _transverse_point("p2", "L12", "E2"))
        return DivisorConfiguration(s, comps, points)
    if sc.variant in ("deg5", "deg6"):
        last = ("L14", class_L(s, 1, 4)) if sc.variant == "deg5" else ("B1", class_B(s, 1))
        others = (("L12", class_L(s, 1, 2)), ("L13", class_L(s, 1, 3)), last)
        comps = (Component("E1", class_E(s, 1), 2),) + tuple(Component(n, c, 1) for n, c in others)
        points = tuple(_transverse_point(f"p{n}", name, "E1") for n, (name, _) in enumerate(others, 1))
        return DivisorConfiguration(s, comps, points)
    if sc.variant == "deg3_no_eckardt":
        comps = (Component("L", class_E(s, 1), 1), Component("Q", -s.canonical - class_E(s, 1), 1))
        return DivisorConfiguration(s, comps, (_through("p", Germ.tacnode(), ("L", "Q")),))
    if sc.variant in ("deg4", "deg3_eckardt"):
        # E1, L12 and the residual -K - E1 - L12 (on the degree-4 surface the
        # conic A2) through one ordinary triple point.
        names = ("E1", "L12", "A2") if sc.variant == "deg4" else ("L1", "L2", "L3")
        classes = (class_E(s, 1), class_L(s, 1, 2), -s.canonical - class_E(s, 1) - class_L(s, 1, 2))
        return _ordinary_point(s, [Component(n, c, 1) for n, c in zip(names, classes)])
    germ = _ANTICANONICAL_GERMS[sc.variant]
    point = _through("p", germ, ["C"] * germ.branches)
    return DivisorConfiguration(s, (Component("C", -s.canonical, 1),), (point,))


def witness(which: Union[str, GlctScenario]) -> WitnessRecord:
    """The stored anticanonical configuration certifying a table row."""
    sc = scenario(which) if isinstance(which, str) else which
    cfg = _witness_config(sc)
    tag = "explicit" if sc.variant in _EXPLICIT_CONSTRUCTIONS else "derived"
    return WitnessRecord(sc, cfg, {c.id: tag for c in cfg.components})


def _equal(check_id: str, want, got, show=format_rational) -> CheckResult:
    return CheckResult(check_id, show(want), show(got), got == want)


# ---------------------------------------------------------------------------
# Suite: low-degree class table


_TABLE_ROWS = (
    # (row id, class builder, expected degree, expected self-intersection)
    ("E_i", lambda s: class_E(s, 1), 1, -1),
    ("L_ij", lambda s: class_L(s, 1, 2), 1, -1),
    ("C_0", class_C0, 1, -1),
    ("B_i", lambda s: class_B(s, 1), 2, 0),
    ("A_i", lambda s: class_A(s, 1), 2, 0),
    ("Q_i", lambda s: class_Q(s, 1), 3, 1),
    ("R", class_R, 3, 1),
    ("R_ijk", lambda s: class_Rijk(s, 1, 2, 3), 3, 1),
)


def verify_table1() -> Report:
    """Recompute (deg, self-intersection) for every catalogued class row."""
    s = make_surface(4)
    results = []
    for row_id, builder, want_deg, want_self in _TABLE_ROWS:
        cls = builder(s)
        want = f"deg={want_deg},self={want_self}"
        results.append(
            _equal(f"table1.{row_id}", want, f"deg={cls.degree},self={cls.self_intersection}", str)
        )
    return Report("table1", tuple(results))


# ---------------------------------------------------------------------------
# Suite: lines


_LINE_COUNTS = {9: 0, 8: 1, 7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


def _deg4_line_name(cls: DivisorClass) -> tuple:
    a = cls.coeffs[0]
    neg = [i for i in range(1, 6) if cls.coeffs[i] < 0]
    pos = [i for i in range(1, 6) if cls.coeffs[i] > 0]
    if a == 0 and len(pos) == 1:
        return ("E", pos[0])
    if a == 1 and len(neg) == 2:
        return ("L", neg[0], neg[1])
    if a == 2 and len(neg) == 5:
        return ("C0",)
    raise ValueError(f"not a degree-4 line class: {cls.coeffs}")


def _deg4_expected_pairing(n1: tuple, n2: tuple) -> int:
    if n1 > n2:
        n1, n2 = n2, n1
    if n1[0] == "C0" or n2[0] == "C0":
        if n1 == n2:
            return -1
        other = n1 if n2[0] == "C0" else n2
        return 1 if other[0] == "E" else 0
    if n1[0] == "E" and n2[0] == "E":
        return -1 if n1 == n2 else 0
    if n1[0] == "E" and n2[0] == "L":
        return 1 if n1[1] in n2[1:] else 0
    # two L classes
    common = len(set(n1[1:]) & set(n2[1:]))
    return {2: -1, 1: 0, 0: 1}[common]


def verify_lines() -> Report:
    """Line counts per degree against the brute-force oracle, plus the full
    degree-4 line intersection matrix against the tabulated pairing rules."""
    results = []
    for degree in range(9, 0, -1):
        s = make_surface(degree)
        fast = enumerate_classes(s, 1, -1)
        slow = brute_force_classes(s, 1, -1)
        ok = (
            len(fast) == _LINE_COUNTS[degree]
            and [c.coeffs for c in fast] == [c.coeffs for c in slow]
        )
        results.append(
            CheckResult(
                f"lines.count.degree{degree}",
                f"{_LINE_COUNTS[degree]} (= brute force)",
                f"{len(fast)} (brute force {len(slow)})",
                ok,
            )
        )
    quadric = make_surface(8, QUADRIC)
    results.append(_equal("lines.count.degree8_quadric", 0, len(enumerate_classes(quadric, 1, -1))))
    lines = enumerate_classes(make_surface(4), 1, -1)
    names = [_deg4_line_name(c) for c in lines]
    matches = sum(
        lines[i].dot(lines[j]) == _deg4_expected_pairing(names[i], names[j])
        for i, j in itertools.product(range(16), repeat=2)
    )
    results.append(
        _equal("lines.deg4_matrix", 256, matches, show=lambda n: f"{n}/256 entries match")
    )
    return Report("lines", tuple(results))


# ---------------------------------------------------------------------------
# Suites: auxiliary divisor families G and H (degree 4)


_LAMBDA = Fraction(2, 3)
# Every component of an auxiliary divisor of family G has degree <= 2, of
# family H degree <= 3.
_G_DEGREE_BOUND, _H_DEGREE_BOUND = 2, 3


def _sum_check(check_id: str, cfg: DivisorConfiguration) -> CheckResult:
    want = (-cfg.surface.canonical).coeffs
    got = cfg.total_class_fractions()
    ok = tuple(got) == tuple(Fraction(c) for c in want)
    return CheckResult(check_id, f"classes sum to {want}", f"{tuple(map(format_rational, got))}", ok)


def _standard_checks(cid: str, cfg: DivisorConfiguration, bound: int) -> list[CheckResult]:
    """The classes sum to -K, every degree is <= ``bound``, lc at 2/3."""
    degs = {c.id: c.cls.degree for c in cfg.components}
    verdict, cert = clusters.is_log_canonical(cfg, _LAMBDA)
    return [
        _sum_check(f"{cid}.anticanonical", cfg),
        CheckResult(
            f"{cid}.degrees",
            f"all component degrees <= {bound}",
            str(degs),
            all(d <= bound for d in degs.values()),
        ),
        CheckResult(
            f"{cid}.lc",
            f"log canonical at {format_rational(_LAMBDA)}",
            f"lc={verdict} (lct={format_rational(cert.lct)})",
            verdict,
        ),
    ]


def _lemma_g_case1(tangential: bool) -> DivisorConfiguration:
    s = make_surface(4)
    comps = (Component("A1", class_A(s, 1), 1), Component("B1", class_B(s, 1), 1))
    if tangential:
        points = (_through("p", Germ.tacnode(), ("A1", "B1")),)
    else:
        points = (_transverse_point("p", "A1", "B1"), _transverse_point("q", "A1", "B1"))
    return DivisorConfiguration(s, comps, points)


def _lemma_g_case2() -> DivisorConfiguration:
    s = make_surface(4)
    third = Fraction(1, 3)
    comps = [Component(f"A{j}", class_A(s, j), third) for j in range(2, 6)]
    comps.append(Component("B1", class_B(s, 1), third))
    comps.append(Component("E1", class_E(s, 1), Fraction(2, 3)))
    return _ordinary_point(s, comps)


def verify_lemma_G(case: str) -> Report:
    """The two-case analysis of the auxiliary family G on the degree-4 surface."""
    results = []
    if case == "case1":
        for label, tangential, want_lct in (
            ("transverse", False, 1),
            ("tangential", True, Fraction(3, 4)),
        ):
            cfg = _lemma_g_case1(tangential)
            cid = f"lemma_G.case1.{label}"
            results += _standard_checks(cid, cfg, _G_DEGREE_BOUND)
            results.append(_equal(f"{cid}.lct", want_lct, clusters.lct_global(cfg).lct))
    elif case == "case2":
        cfg = _lemma_g_case2()
        results += _standard_checks("lemma_G.case2", cfg, _G_DEGREE_BOUND)
        v_root = cfg.cluster_at("p").divisor_valuation("p.n0", cfg.coefficients)
        results.append(
            CheckResult(
                "lemma_G.case2.root_valuation",
                "7/3 (= 4*(1/3) + 1/3 + 2/3)",
                format_rational(v_root),
                v_root == Fraction(7, 3),
            )
        )
        coefficient = _LAMBDA * v_root - 1
        results.append(
            CheckResult(
                "lemma_G.case2.root_coefficient",
                "(7/3)*lambda - 1 = 5/9 at lambda = 2/3",
                format_rational(coefficient),
                coefficient == Fraction(5, 9),
            )
        )
        results.append(
            CheckResult(
                "lemma_G.case2.printed_coefficient_flag",
                "(7/3)*lambda - 1",
                "reference derivation prints (7/10)*lambda - 1",
                True,
                note="flagged: the printed 7/10 contradicts its own displayed sum 4/3 + 1/3 + 2/3 = 7/3; "
                "the conclusion (log canonical at 2/3) holds either way",
            )
        )
    else:
        raise KeyError(f"unknown case {case!r} (expected 'case1' or 'case2')")
    return Report(f"lemma_G.{case}", tuple(results))


def _explicit_two_level(comps_both: Sequence[str], comps_root_only: Sequence[str]) -> WeightedCluster:
    """Root plus one free child; ``comps_both`` pass both with mult 1."""
    comp_ids = tuple(comps_both) + tuple(comps_root_only)
    nodes = (
        ClusterNode("n0", None, (), dict.fromkeys(comp_ids, 1)),
        ClusterNode("n1", "n0", ("n0",), dict.fromkeys(comps_both, 1)),
    )
    return WeightedCluster(nodes, comp_ids)


def _lemma_h_config(case: str) -> DivisorConfiguration:
    s = make_surface(4)
    if case == "1.1":
        comps = [Component("R", class_R(s), Fraction(1, 2))]
        comps += [Component(f"Q{i}", class_Q(s, i), Fraction(1, 6)) for i in range(1, 6)]
        return _ordinary_point(s, comps)
    if case == "1.2a":
        comps = (
            Component("A1", class_A(s, 1), Fraction(1, 2)),
            Component("R125", class_Rijk(s, 1, 2, 5), Fraction(1, 2)),
            Component("R134", class_Rijk(s, 1, 3, 4), Fraction(1, 2)),
        )
        cluster = _explicit_two_level(["A1", "R125", "R134"], [])
        return DivisorConfiguration(s, comps, (ConfigPoint("p", cluster),))
    if case == "1.2b":
        return _lemma_g_case1(tangential=True)
    if case == "2.1":
        comps = [
            Component(f"R1{j}{k}", class_Rijk(s, 1, j, k), Fraction(1, 8))
            for j, k in itertools.combinations(range(2, 6), 2)
        ]
        comps += [Component(f"Q{i}", class_Q(s, i), Fraction(1, 8)) for i in range(2, 6)]
        comps.append(Component("E1", class_E(s, 1), Fraction(1, 4)))
        return _ordinary_point(s, comps)
    if case == "2.2":
        comps = (
            Component("A5", class_A(s, 5), Fraction(3, 5)),
            Component("R125", class_Rijk(s, 1, 2, 5), Fraction(1, 5)),
            Component("R135", class_Rijk(s, 1, 3, 5), Fraction(1, 5)),
            Component("R145", class_Rijk(s, 1, 4, 5), Fraction(1, 5)),
            Component("Q5", class_Q(s, 5), Fraction(1, 5)),
            Component("E1", class_E(s, 1), Fraction(2, 5)),
        )
        cluster = _explicit_two_level(["A5", "R125", "R135", "R145", "Q5"], ["E1"])
        return DivisorConfiguration(s, comps, (ConfigPoint("p", cluster),))
    # "2.3": `verify_lemma_H` has refused every other case.
    comps = (Component("Q1", class_Q(s, 1), 1), Component("E1", class_E(s, 1), 1))
    return DivisorConfiguration(s, comps, (_through("p", Germ.tacnode(), ("Q1", "E1")),))


_H_CASES = ("1.1", "1.2a", "1.2b", "2.1", "2.2", "2.3")
_H_MULT_P = {"1.1": Fraction(8, 6), "1.2a": Fraction(3, 2), "2.1": Fraction(3, 2)}

# Reference intersection table for the tangential six-curve configuration of
# case 2.2, on the surface blown up at p (strict transforms plus the
# exceptional curve F1 = p.E), upper triangle.
_CASE22_UPPER = {
    ("A5", "R125"): 1, ("A5", "R135"): 1, ("A5", "R145"): 1, ("A5", "Q5"): 1,
    ("A5", "E1"): 0, ("A5", "p.E"): 1,
    ("R125", "R135"): 1, ("R125", "R145"): 1, ("R125", "Q5"): 1,
    ("R125", "E1"): 0, ("R125", "p.E"): 1,
    ("R135", "R145"): 1, ("R135", "Q5"): 1, ("R135", "E1"): 0, ("R135", "p.E"): 1,
    ("R145", "Q5"): 1, ("R145", "E1"): 0, ("R145", "p.E"): 1,
    ("Q5", "E1"): 0, ("Q5", "p.E"): 1,
    ("E1", "p.E"): 1,
}


def _case22_checks(cid: str, cfg: DivisorConfiguration) -> list[CheckResult]:
    cluster = cfg.cluster_at("p")
    v1 = cluster.divisor_valuation("p.n0", cfg.coefficients)
    v2 = cluster.divisor_valuation("p.n1", cfg.coefficients)
    a1 = _LAMBDA * v1 - 1
    a2 = _LAMBDA * v2 - 2
    cls = {c.id: c.cls for c in clusters.transform_by_blowup(cfg, "p").components}
    mismatch = [
        f"{ni}.{nj}={cls[ni].dot(cls[nj])}!={want}"
        for (ni, nj), want in _CASE22_UPPER.items()
        if cls[ni].dot(cls[nj]) != want
    ]
    return [
        CheckResult(
            f"{cid}.chain_valuations",
            "v(F1)=9/5, v(F2)=16/5 (= 7/5 + 9/5)",
            f"v(F1)={format_rational(v1)}, v(F2)={format_rational(v2)}",
            v1 == Fraction(9, 5) and v2 == Fraction(16, 5),
        ),
        CheckResult(
            f"{cid}.chain_coefficients",
            "a(F1)=1/5, a(F2)=2/15 at lambda = 2/3",
            f"a(F1)={format_rational(a1)}, a(F2)={format_rational(a2)}",
            a1 == Fraction(1, 5) and a2 == Fraction(2, 15),
        ),
        CheckResult(
            f"{cid}.intersection_table",
            f"all {len(_CASE22_UPPER)} strict-transform pairings match",
            "all match" if not mismatch else "; ".join(mismatch),
            not mismatch,
        ),
    ]


def verify_lemma_H(case: str) -> Report:
    """One subcase of the auxiliary family H analysis on the degree-4 surface."""
    if case not in _H_CASES:
        raise KeyError(f"unknown case {case!r} (expected one of {_H_CASES})")
    cfg = _lemma_h_config(case)
    cid = f"lemma_H.{case}"
    results = _standard_checks(cid, cfg, _H_DEGREE_BOUND)
    if case in _H_MULT_P:
        results.append(_equal(f"{cid}.mult_p", _H_MULT_P[case], clusters.multiplicity_at(cfg, "p")))
    if case == "2.2":
        results += _case22_checks(cid, cfg)
    return Report(cid, tuple(results))


# The auxiliary-H side caps mult_q + mult_p <= 3, while the pair blown up at
# p demands mult_q + mult_p > 2/lambda; the two clash exactly below 2/3.
_H_CAP = 3


def verify_degree4_bound_chain() -> Report:
    """The multiplicity bound chain of the degree-4 contradiction argument.

    With every auxiliary-G component of degree <= 2, a point where
    (S, lambda*D) is not log canonical for some lambda < omega has
    1/omega < 1/lambda < mult_p(D) <= 2.  The chain rules out every lambda
    below 2/_H_CAP and no other; each check sets a number of the chain
    against one found elsewhere: the table's omega for the degree-4 row and
    the threshold of that row's witness.
    """
    sharp = Fraction(2, _H_CAP)
    omega = scenario("deg4").omega
    witness_lct = clusters.lct_global(witness("deg4").config).lct
    lo = 1 / omega
    return Report("bound_chain", (
        CheckResult(
            "bound_chain.interval",
            f"1/omega <= mult_p <= {_G_DEGREE_BOUND} is nonempty",
            f"[{format_rational(lo)}, {_G_DEGREE_BOUND}]",
            lo <= _G_DEGREE_BOUND,
        ),
        CheckResult(
            "bound_chain.contradiction",
            f"omega = {format_rational(sharp)} (2/lambda - m > {_H_CAP} - m exactly when "
            f"lambda < {format_rational(sharp)})",
            f"omega = {format_rational(omega)}",
            omega == sharp,
        ),
        CheckResult(
            "bound_chain.sharp_at_omega",
            f"the degree-4 witness attains {format_rational(sharp)} (threshold is sharp)",
            f"witness lct = {format_rational(witness_lct)}",
            witness_lct == sharp,
        ),
    ))


def verify_lemma_H_all() -> Report:
    return Report.merged("lemmaH", [*map(verify_lemma_H, _H_CASES), verify_degree4_bound_chain()])


def verify_lemma_G_all() -> Report:
    return Report.merged("lemmaG", map(verify_lemma_G, ("case1", "case2")))


# ---------------------------------------------------------------------------
# Suite: threshold table witnesses


def verify_corollary() -> Report:
    """Every table row: the witness sums to -K and its threshold equals omega."""
    results = []
    for sc in SCENARIOS:
        cfg = witness(sc).config
        results.append(_sum_check(f"corollary.{sc.variant}.anticanonical", cfg))
        results.append(_equal(f"corollary.{sc.variant}.lct", sc.omega, clusters.lct_global(cfg).lct))
    return Report("corollary", tuple(results))


# ---------------------------------------------------------------------------
# Suite: complementary anticanonical sections (class-level bookkeeping)


def verify_complementary_sections() -> Report:
    """On the degree-4 surface, -K minus a line is a catalogued cubic class,
    -K minus a conic is a conic class, and -K minus a cubic is a line class."""
    s = make_surface(4)
    minus_k = -s.canonical
    lines = set(c.coeffs for c in enumerate_classes(s, 1, -1))
    conics = set(c.coeffs for c in enumerate_classes(s, 2, 0))
    cubics = set(c.coeffs for c in enumerate_classes(s, 3, 1))
    checks = (
        ("complementary.lines_to_cubics", lines, cubics),
        ("complementary.conics_to_conics", conics, conics),
        ("complementary.cubics_to_lines", cubics, lines),
    )
    results = []
    for check_id, source, target in checks:
        bad = [
            c
            for c in sorted(source)
            if (minus_k - DivisorClass(s, c)).coeffs not in target
        ]
        results.append(
            CheckResult(
                check_id,
                f"all {len(source)} complements land in the target list",
                "all land" if not bad else f"failures: {bad}",
                not bad,
            )
        )
    q1, b1 = minus_k - class_E(s, 1), minus_k - class_A(s, 1)
    results += [
        _equal("complementary.example_E1", (3, -2, -1, -1, -1, -1), q1.coeffs, show=str),
        _equal("complementary.example_A1", class_B(s, 1).coeffs, b1.coeffs, show=str),
        _equal("complementary.example_R_degree", 1, (minus_k - class_R(s)).degree),
    ]
    return Report("complementary", tuple(results))
