"""Seeded randomized suites for the threshold engine's structural laws.

Each suite is a law: it draws a valid random configuration, returns
``None`` when the instance misses its hypothesis, and otherwise returns
whether the conclusion holds with a detail string.  Defining a law with
``@_suite`` registers it; one trial loop runs every law and demands a
minimum number of asserted instances so vacuous passes cannot hide.
Instances are generated from `random.Random(str)` seeds, so reports are
reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

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
from .lattice import DivisorClass, make_surface
from .oracles import simulate_pullbacks
from .report import CheckResult, Report

_TRIAL_FACTOR = 80


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _random_tree(rng: random.Random, max_nodes: int) -> list[tuple[Optional[int], tuple[int, ...]]]:
    """A random proximity tree: (parent index, proximity indices) per node."""
    n = rng.randint(1, max_nodes)
    nodes: list[tuple[Optional[int], tuple[int, ...]]] = [(None, ())]
    used_corners: set[tuple[int, int]] = set()
    for i in range(1, n):
        parent = rng.randrange(i)
        prox = [parent]
        parent_prox = nodes[parent][1]
        candidates = [
            a for a in parent_prox if (parent, a) not in used_corners
        ]
        if candidates and rng.random() < 0.45:
            extra = rng.choice(candidates)
            prox.append(extra)
            used_corners.add((parent, extra))
        nodes.append((parent, tuple(prox)))
    return nodes


def _free_paths(tree: Sequence[tuple[Optional[int], tuple[int, ...]]]) -> list[list[int]]:
    """Maximal chains from the root that only step into free children."""
    children: dict[int, list[int]] = {i: [] for i in range(len(tree))}
    for i, (parent, prox) in enumerate(tree):
        if parent is not None and len(prox) == 1:
            children[parent].append(i)
    paths = []

    def walk(path: list[int]) -> None:
        kids = children[path[-1]]
        if not kids:
            paths.append(path)
            return
        for kid in kids:
            walk(path + [kid])

    walk([0])
    return paths


def _random_cluster(
    rng: random.Random,
    heavy_comps: Sequence[str],
    path_comps: Sequence[str] = (),
    max_nodes: int = 5,
    root_only_comps: Sequence[str] = (),
    root_budget: float = float("inf"),
) -> WeightedCluster:
    """A random cluster on a random proximity tree.

    Heavy components meet the proximity inequalities with a random excess
    of 0, 1 or 2 at each node; path components are smooth along a free
    chain from the root; root-only components pass through the root alone.
    The heavy components' root multiplicities sum to at most
    ``root_budget``: each excess is drawn among the values that keep it
    there, so no draw has to be thrown away.
    """
    tree = _random_tree(rng, max_nodes)
    n = len(tree)
    # reach[i]: what one unit of excess at node i adds to the root multiplicity.
    reach = [1] * n
    for i in range(1, n):
        reach[i] = sum(reach[a] for a in tree[i][1])
    spent = 0  # root multiplicity drawn so far, over all heavy components
    mults: dict[str, list[int]] = {}
    for k, comp in enumerate(heavy_comps):
        vals = [0] * n
        for i in range(n - 1, -1, -1):
            need = sum(vals[j] for j in range(i + 1, n) if i in tree[j][1])
            # Leave every later component room for a root multiplicity of 1.
            room = root_budget - spent - (len(heavy_comps) - k - 1)
            excess = rng.choice([e for e in (0, 0, 1, 1, 2) if reach[i] * e <= room])
            spent += reach[i] * excess
            vals[i] = need + excess
        if vals[0] == 0:
            vals[0] = 1
            spent += 1
        mults[comp] = vals
    paths = _free_paths(tree)
    for comp in path_comps:
        chain = rng.choice(paths)
        prefix = chain[: rng.randint(1, len(chain))]
        vals = [0] * n
        for i in prefix:
            vals[i] = 1
        mults[comp] = vals
    for comp in root_only_comps:
        vals = [0] * n
        vals[0] = 1
        mults[comp] = vals
    comp_ids = tuple(mults)
    nodes = []
    for i, (parent, prox) in enumerate(tree):
        nodes.append(
            ClusterNode(
                f"n{i}",
                None if parent is None else f"n{parent}",
                tuple(f"n{a}" for a in prox),
                {c: mults[c][i] for c in comp_ids if mults[c][i]},
            )
        )
    return WeightedCluster(tuple(nodes), comp_ids)


def _random_heavy_cluster(rng: random.Random, max_nodes: int = 5) -> WeightedCluster:
    """A random cluster carrying 1-3 heavy components c0, c1, ..."""
    ncomps = rng.randint(1, 3)
    return _random_cluster(rng, [f"c{i}" for i in range(ncomps)], max_nodes=max_nodes)


def _plane_components(comp_coeffs: dict[str, Fraction]) -> tuple[Component, ...]:
    # Plane classes n*H with large n keep every local declaration consistent.
    surface = make_surface(9)
    comps = []
    for idx, (cid, coeff) in enumerate(comp_coeffs.items()):
        comps.append(Component(cid, DivisorClass(surface, (40 + idx,)), coeff))
    return tuple(comps)


def _config_from_cluster(cluster: WeightedCluster, coeffs: dict[str, Fraction]) -> DivisorConfiguration:
    comps = _plane_components(coeffs)
    return DivisorConfiguration(
        comps[0].cls.surface, comps, (ConfigPoint("p", cluster),)
    )


def _random_coeff(rng: random.Random, max_num: int = 9, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def _random_coeff_at_most(rng: random.Random, bound: Fraction) -> Fraction:
    """`_random_coeff` given that it is at most ``bound`` (``bound >= 1/6``):
    uniform over the pairs (a, b), 1 <= a <= 9 and 1 <= b <= 6, with
    a/b <= bound."""
    num, den = bound.numerator, bound.denominator
    a, b = rng.choice(
        [(a, b) for a in range(1, 10) for b in range(1, 7) if a * den <= num * b]
    )
    return Fraction(a, b)


def _omega_weights(rng: random.Random, root_mults: Sequence[int]) -> list[Fraction]:
    """Weights w_c <= 1 from `_random_coeff`'s range, one per root
    multiplicity m_c (sum m_c <= 6), under the root budget sum w_c m_c <= 1.

    Each weight leaves every later component room for the least weight 1/6,
    so every weight tuple within the budget can be drawn and none is
    refused.
    """
    left = Fraction(1)
    weights = []
    for i, m in enumerate(root_mults):
        room = left - Fraction(sum(root_mults[i + 1:]), 6)
        w = _random_coeff_at_most(rng, min(room / m, Fraction(1)))
        weights.append(w)
        left -= w * m
    return weights


def _weighted_local_pairing(
    cluster: WeightedCluster, comp: str, omega: dict[str, Fraction]
) -> Fraction:
    total = Fraction(0)
    for other, w in omega.items():
        total += w * cluster.local_intersection_pair(comp, other)
    return total


_Outcome = Optional[tuple[bool, str]]
_RUNNERS: list[Callable[[int, int], CheckResult]] = []


def _suite(law: Callable[[random.Random], _Outcome]) -> Callable[[int, int], CheckResult]:
    """Register ``law`` as the suite named after it (``run_<name>``) and
    return its runner ``(seed, cases) -> CheckResult``.

    The runner draws instances from the suite's seeded generator, at most
    ``cases * _TRIAL_FACTOR`` times, until ``cases`` of them meet the
    hypothesis.  The report states the instances asserted, the failures
    and the draws made; the first five failing details go into the note.
    """
    name = law.__name__.removeprefix("run_")

    def run(seed: int, cases: int) -> CheckResult:
        rng = _rng(seed, name)
        draws = asserted = failures = 0
        details: list[str] = []
        while draws < cases * _TRIAL_FACTOR and asserted < cases:
            draws += 1
            outcome = law(rng)
            if outcome is None:
                continue
            asserted += 1
            holds, detail = outcome
            if not holds:
                failures += 1
                if len(details) < 5:
                    details.append(detail)
        ok = not failures and asserted >= cases
        expected = f">={cases} instances, 0 failures"
        computed = f"{asserted} instances, {failures} failures, {draws} draws"
        return CheckResult(f"properties.{name}", expected, computed, ok, "; ".join(details))

    run.__name__ = run.__qualname__ = law.__name__
    run.__doc__ = law.__doc__
    _RUNNERS.append(run)
    return run


@_suite
def run_skoda(rng: random.Random) -> _Outcome:
    """Non-log-canonical at p implies mult_p of the scaled divisor exceeds 1."""
    cluster = _random_heavy_cluster(rng)
    coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
    cfg = _config_from_cluster(cluster, coeffs)
    lam = Fraction(rng.randint(1, 9), rng.randint(2, 8))
    lc, _ = clusters.is_log_canonical(cfg, lam, "p")
    if lc:
        return None
    mult = clusters.multiplicity_at(cfg, "p")
    return lam * mult > 1, f"lam={lam} mult={mult}"


@_suite
def run_adjunction(rng: random.Random) -> _Outcome:
    """For D = mC + Omega not lc at p with lam*m <= 1 and C smooth at p, the
    local pairing of C with lam*Omega at p exceeds 1.

    m is drawn given lam*m <= 1, so only a log canonical draw is rejected.
    """
    lam = Fraction(rng.randint(1, 6), rng.randint(2, 6))
    nomega = rng.randint(1, 2)
    cluster = _random_cluster(
        rng, [f"w{i}" for i in range(nomega)], path_comps=("C",)
    )
    omega = {c: _random_coeff(rng) for c in cluster.component_ids if c != "C"}
    cfg = _config_from_cluster(cluster, {**omega, "C": _random_coeff_at_most(rng, 1 / lam)})
    lc, _ = clusters.is_log_canonical(cfg, lam, "p")
    if lc:
        return None
    pairing = lam * _weighted_local_pairing(cluster, "C", omega)
    return pairing > 1, f"lam={lam} pairing={pairing}"


@_suite
def run_theorem_disjunction(rng: random.Random) -> _Outcome:
    """For a1 C1 + a2 C2 + Omega not lc at p but lc nearby, with the two
    curves meeting once at p and 0 < mult_p(Omega) <= 1, one of the local
    pairings (Omega.C_i)|_p must exceed 2(1 - a_other).

    The curves meet once by construction: C1 is smooth along a free path
    from the root and C2 passes through the root only, so Noether's formula
    gives (C1.C2)_p = 1 * 1 at the root and nothing above it.  The Omega
    weights are drawn within their hypothesis (each at most 1, under the
    root budget mult_p(Omega) <= 1), so only a log canonical draw is
    rejected.
    """
    omega_ids = [f"w{i}" for i in range(rng.randint(1, 2))]
    # Every weight is at least 1/6, so the budget admits root multiplicities
    # summing to at most 6.
    cluster = _random_cluster(
        rng, omega_ids, path_comps=("C1",), root_only_comps=("C2",), root_budget=6
    )
    omega = dict(zip(omega_ids, _omega_weights(rng, [cluster.root.mult(c) for c in omega_ids])))
    a1 = Fraction(rng.randint(1, 8), 8)
    a2 = Fraction(rng.randint(1, 8), 8)
    cfg = _config_from_cluster(cluster, {**omega, "C1": a1, "C2": a2})
    lc, _ = clusters.is_log_canonical(cfg, 1, "p")
    if lc:
        return None
    p1 = _weighted_local_pairing(cluster, "C1", omega)
    p2 = _weighted_local_pairing(cluster, "C2", omega)
    ok = p1 > 2 * (1 - a2) or p2 > 2 * (1 - a1)
    return ok, f"a1={a1} a2={a2} p1={p1} p2={p2}"


@_suite
def run_convexity(rng: random.Random) -> _Outcome:
    """lct_p of a convex mix is at least the min of the two thresholds.

    Every heavy component passes through p and every coefficient here is
    positive (a mix with 0 <= alpha <= 1 too), so each threshold is finite.
    """
    cluster = _random_heavy_cluster(rng)
    d = {c: _random_coeff(rng) for c in cluster.component_ids}
    b = {c: _random_coeff(rng) for c in cluster.component_ids}
    alpha = Fraction(rng.randint(0, 12), 12)
    mix = {
        c: alpha * d[c] + (1 - alpha) * b[c] for c in cluster.component_ids
    }
    cfg = _config_from_cluster(cluster, d)
    lct_d = clusters.lct_at_point(cfg, "p").lct
    lct_b = clusters.lct_at_point(clusters.with_coefficients(cfg, b), "p").lct
    lct_mix = clusters.lct_at_point(clusters.with_coefficients(cfg, mix), "p").lct
    return lct_mix >= min(lct_d, lct_b), f"alpha={alpha} lct={lct_d},{lct_b},{lct_mix}"


_CATALOG_GERMS = (
    Germ.smooth(1),
    Germ.smooth(2),
    Germ.node(),
    Germ.cusp(),
    Germ.tacnode(),
    Germ.tacnode_curve(),
    Germ.ordinary(3),
)


def _random_point_config(rng: random.Random) -> DivisorConfiguration:
    if rng.random() < 0.5:
        germ = rng.choice(_CATALOG_GERMS)
        ncomps = rng.randint(1, min(2, germ.branches))
        if germ.kind in ("cusp", "tacnode_curve", "node"):
            ncomps = 1
        comp_ids = [f"c{i}" for i in range(ncomps)]
        coeffs = {c: _random_coeff(rng) for c in comp_ids}
        comps = _plane_components(coeffs)
        incident = tuple(Incidence(comp_ids[b % ncomps], b) for b in range(germ.branches))
        point = ConfigPoint("p", germ, incident)
        return DivisorConfiguration(comps[0].cls.surface, comps, (point,))
    cluster = _random_heavy_cluster(rng)
    coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
    return _config_from_cluster(cluster, coeffs)


@_suite
def run_blowup_transfer(rng: random.Random) -> _Outcome:
    """(S, lam D) lc at p iff the blown-up pair with the exceptional
    coefficient lam*mult_p(D) - 1 is lc at every point of E (marked
    directions plus the generic one, which only the E coefficient sees)."""
    cfg = _random_point_config(rng)
    lam = Fraction(rng.randint(1, 10), rng.randint(3, 9))
    before, _ = clusters.is_log_canonical(cfg, lam, "p")
    scaled = clusters.scale_configuration(cfg, lam)
    blown = clusters.transform_by_blowup(scaled, "p")
    after, _ = clusters.is_log_canonical(blown, Fraction(1))
    return before == after, f"lam={lam} before={before} after={after}"


@_suite
def run_monotonicity(rng: random.Random) -> _Outcome:
    """Raising any coefficient never raises the threshold.

    Every heavy component passes through p with a positive coefficient, so
    both thresholds are finite.
    """
    cluster = _random_heavy_cluster(rng)
    coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
    cfg = _config_from_cluster(cluster, coeffs)
    before = clusters.lct_at_point(cfg, "p").lct
    victim = rng.choice(list(coeffs))
    bumped = {victim: coeffs[victim] + _random_coeff(rng)}
    after = clusters.lct_at_point(clusters.with_coefficients(cfg, bumped), "p").lct
    return after <= before, f"before={before} after={after}"


def _random_topological_reorder(rng: random.Random, cluster: WeightedCluster) -> WeightedCluster:
    remaining = list(cluster.nodes)
    placed: list[ClusterNode] = []
    placed_ids: set[str] = set()
    while remaining:
        ready = [n for n in remaining if n.parent is None or n.parent in placed_ids]
        pick = rng.choice(ready)
        remaining.remove(pick)
        placed.append(pick)
        placed_ids.add(pick.id)
    return WeightedCluster(tuple(placed), cluster.component_ids)


@_suite
def run_order_independence(rng: random.Random) -> _Outcome:
    """The threshold does not depend on the order sibling points are blown up."""
    cluster = _random_heavy_cluster(rng, max_nodes=6)
    coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
    shuffled = _random_topological_reorder(rng, cluster)
    lct_a = clusters.lct_at_point(_config_from_cluster(cluster, coeffs), "p").lct
    lct_b = clusters.lct_at_point(_config_from_cluster(shuffled, coeffs), "p").lct
    return lct_a == lct_b, f"{lct_a} != {lct_b}"


@_suite
def run_oracle_equivalence(rng: random.Random) -> _Outcome:
    """Proximity-recursion valuations and discrepancies match the
    step-by-step blow-up simulator on random valid clusters."""
    cluster = _random_heavy_cluster(rng, max_nodes=7)
    vals, discs = simulate_pullbacks(cluster)
    ok = True
    for node in cluster.nodes:
        if cluster.log_discrepancy(node.id) != discs[node.id] + 1:
            ok = False
        for comp in cluster.component_ids:
            if cluster.valuation(node.id, comp) != vals[comp][node.id]:
                ok = False
    return ok, f"cluster of {len(cluster.nodes)} nodes disagrees"


def run_property_suites(seed: int = 0, cases: int = 1000) -> Report:
    results = tuple(runner(seed, cases) for runner in _RUNNERS)
    return Report("properties", results, seed=seed, cases=cases)
