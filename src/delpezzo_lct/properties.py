"""Seeded randomized suites for the threshold engine's structural laws.

Each suite draws valid random configurations, filters for its hypothesis,
and asserts the conclusion; a run demands a minimum number of asserted
instances so vacuous passes cannot hide.  Instances are generated from
`random.Random(str)` seeds, so reports are reproducible bit for bit.
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
) -> WeightedCluster:
    tree = _random_tree(rng, max_nodes)
    n = len(tree)
    mults: dict[str, list[int]] = {}
    for comp in heavy_comps:
        vals = [0] * n
        for i in range(n - 1, -1, -1):
            need = sum(vals[j] for j in range(i + 1, n) if i in tree[j][1])
            vals[i] = need + rng.choice((0, 0, 1, 1, 2))
        if vals[0] == 0:
            vals[0] = 1
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


def _weighted_local_pairing(
    cluster: WeightedCluster, comp: str, omega: dict[str, Fraction]
) -> Fraction:
    total = Fraction(0)
    for other, w in omega.items():
        total += w * cluster.local_intersection_pair(comp, other)
    return total


class _SuiteRun:
    def __init__(self, name: str, cases: int):
        self.name = name
        self.cases = cases
        self.asserted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, detail: str) -> None:
        self.asserted += 1
        if not ok and len(self.failures) < 5:
            self.failures.append(detail)

    def done(self) -> bool:
        return self.asserted >= self.cases

    def result(self) -> CheckResult:
        ok = not self.failures and self.asserted >= self.cases
        expected = f">={self.cases} instances, 0 failures"
        computed = f"{self.asserted} instances, {len(self.failures)} failures"
        note = "; ".join(self.failures)
        return CheckResult(f"properties.{self.name}", expected, computed, ok, note)


def run_skoda(seed: int, cases: int) -> CheckResult:
    """Non-log-canonical at p implies mult_p of the scaled divisor exceeds 1."""
    rng = _rng(seed, "skoda")
    run = _SuiteRun("skoda", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        ncomps = rng.randint(1, 3)
        cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)])
        coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
        cfg = _config_from_cluster(cluster, coeffs)
        lam = Fraction(rng.randint(1, 9), rng.randint(2, 8))
        lc, _ = clusters.is_log_canonical(cfg, lam, "p")
        if lc:
            continue
        mult = clusters.multiplicity_at(cfg, "p")
        run.record(lam * mult > 1, f"lam={lam} mult={mult}")
    return run.result()


def run_adjunction(seed: int, cases: int) -> CheckResult:
    """For D = mC + Omega not lc at p with lam*m <= 1 and C smooth at p, the
    local pairing of C with lam*Omega at p exceeds 1."""
    rng = _rng(seed, "adjunction")
    run = _SuiteRun("adjunction", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        nomega = rng.randint(1, 2)
        cluster = _random_cluster(
            rng, [f"w{i}" for i in range(nomega)], path_comps=("C",)
        )
        coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
        lam = Fraction(rng.randint(1, 6), rng.randint(2, 6))
        if lam * coeffs["C"] > 1:
            continue
        cfg = _config_from_cluster(cluster, coeffs)
        lc, _ = clusters.is_log_canonical(cfg, lam, "p")
        if lc:
            continue
        omega = {c: coeffs[c] for c in cluster.component_ids if c != "C"}
        pairing = lam * _weighted_local_pairing(cluster, "C", omega)
        run.record(pairing > 1, f"lam={lam} pairing={pairing}")
    return run.result()


def run_theorem_disjunction(seed: int, cases: int) -> CheckResult:
    """For a1 C1 + a2 C2 + Omega not lc at p but lc nearby, with the two
    curves meeting once at p and 0 < mult_p(Omega) <= 1, one of the local
    pairings (Omega.C_i)|_p must exceed 2(1 - a_other)."""
    rng = _rng(seed, "theorem_disjunction")
    run = _SuiteRun("theorem_disjunction", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        nomega = rng.randint(1, 2)
        cluster = _random_cluster(
            rng,
            [f"w{i}" for i in range(nomega)],
            path_comps=("C1",),
            root_only_comps=("C2",),
        )
        coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
        a1 = Fraction(rng.randint(1, 8), 8)
        a2 = Fraction(rng.randint(1, 8), 8)
        coeffs["C1"], coeffs["C2"] = a1, a2
        omega = {c: coeffs[c] for c in cluster.component_ids if c not in ("C1", "C2")}
        if any(v > 1 for v in coeffs.values()):
            continue
        mult_omega = sum(
            (w * cluster.root.mult(c) for c, w in omega.items()), Fraction(0)
        )
        if not 0 < mult_omega <= 1:
            continue
        if cluster.local_intersection_pair("C1", "C2") != 1:
            continue
        cfg = _config_from_cluster(cluster, coeffs)
        lc, _ = clusters.is_log_canonical(cfg, 1, "p")
        if lc:
            continue
        p1 = _weighted_local_pairing(cluster, "C1", omega)
        p2 = _weighted_local_pairing(cluster, "C2", omega)
        ok = p1 > 2 * (1 - a2) or p2 > 2 * (1 - a1)
        run.record(ok, f"a1={a1} a2={a2} p1={p1} p2={p2}")
    return run.result()


def run_convexity(seed: int, cases: int) -> CheckResult:
    """lct_p of a convex mix is at least the min of the two thresholds."""
    rng = _rng(seed, "convexity")
    run = _SuiteRun("convexity", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        ncomps = rng.randint(1, 3)
        cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)])
        d = {c: _random_coeff(rng) for c in cluster.component_ids}
        b = {c: _random_coeff(rng) for c in cluster.component_ids}
        alpha = Fraction(rng.randint(0, 12), 12)
        mix = {
            c: alpha * d[c] + (1 - alpha) * b[c] for c in cluster.component_ids
        }
        if any(v <= 0 for v in mix.values()):
            continue
        lct_d = clusters.lct_at_point(_config_from_cluster(cluster, d), "p").lct
        lct_b = clusters.lct_at_point(_config_from_cluster(cluster, b), "p").lct
        lct_mix = clusters.lct_at_point(_config_from_cluster(cluster, mix), "p").lct
        floor = min(v for v in (lct_d, lct_b) if v is not None) if (
            lct_d is not None or lct_b is not None
        ) else None
        ok = floor is None or lct_mix is None or lct_mix >= floor
        run.record(ok, f"alpha={alpha} lct={lct_d},{lct_b},{lct_mix}")
    return run.result()


_CATALOG_GERMS: tuple[Callable[[], tuple[Germ, int]], ...] = (
    lambda: (Germ.smooth(1), 1),
    lambda: (Germ.smooth(2), 2),
    lambda: (Germ.node(), 2),
    lambda: (Germ.cusp(), 1),
    lambda: (Germ.tacnode(), 2),
    lambda: (Germ.tacnode_curve(), 2),
    lambda: (Germ.ordinary(3), 3),
)


def _random_point_config(rng: random.Random) -> DivisorConfiguration:
    if rng.random() < 0.5:
        germ, nbranches = rng.choice(_CATALOG_GERMS)()
        ncomps = rng.randint(1, min(2, nbranches))
        if germ.kind in ("cusp", "tacnode_curve", "node"):
            ncomps = 1
        comp_ids = [f"c{i}" for i in range(ncomps)]
        assignment = [
            comp_ids[b % ncomps] for b in range(nbranches)
        ]
        coeffs = {c: _random_coeff(rng) for c in comp_ids}
        comps = _plane_components(coeffs)
        point = ConfigPoint(
            "p",
            germ,
            tuple(Incidence(assignment[b], b) for b in range(nbranches)),
        )
        return DivisorConfiguration(comps[0].cls.surface, comps, (point,))
    ncomps = rng.randint(1, 3)
    cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)])
    coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
    return _config_from_cluster(cluster, coeffs)


def run_blowup_transfer(seed: int, cases: int) -> CheckResult:
    """(S, lam D) lc at p iff the blown-up pair with the exceptional
    coefficient lam*mult_p(D) - 1 is lc at every point of E (marked
    directions plus the generic one, which only the E coefficient sees)."""
    rng = _rng(seed, "blowup_transfer")
    run = _SuiteRun("blowup_transfer", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        cfg = _random_point_config(rng)
        lam = Fraction(rng.randint(1, 10), rng.randint(3, 9))
        before, _ = clusters.is_log_canonical(cfg, lam, "p")
        scaled = clusters.scale_configuration(cfg, lam)
        blown = clusters.transform_by_blowup(scaled, "p")
        after, _ = clusters.is_log_canonical(blown, Fraction(1))
        run.record(before == after, f"lam={lam} before={before} after={after}")
    return run.result()


def run_monotonicity(seed: int, cases: int) -> CheckResult:
    """Raising any coefficient never raises the threshold."""
    rng = _rng(seed, "monotonicity")
    run = _SuiteRun("monotonicity", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        ncomps = rng.randint(1, 3)
        cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)])
        coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
        cfg = _config_from_cluster(cluster, coeffs)
        before = clusters.lct_at_point(cfg, "p").lct
        bumped = dict(coeffs)
        victim = rng.choice(list(coeffs))
        bumped[victim] = coeffs[victim] + _random_coeff(rng)
        after = clusters.lct_at_point(_config_from_cluster(cluster, bumped), "p").lct
        ok = before is None or (after is not None and after <= before)
        run.record(ok, f"before={before} after={after}")
    return run.result()


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


def run_order_independence(seed: int, cases: int) -> CheckResult:
    """The threshold does not depend on the order sibling points are blown up."""
    rng = _rng(seed, "order_independence")
    run = _SuiteRun("order_independence", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        ncomps = rng.randint(1, 3)
        cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)], max_nodes=6)
        coeffs = {c: _random_coeff(rng) for c in cluster.component_ids}
        shuffled = _random_topological_reorder(rng, cluster)
        lct_a = clusters.lct_at_point(_config_from_cluster(cluster, coeffs), "p").lct
        lct_b = clusters.lct_at_point(_config_from_cluster(shuffled, coeffs), "p").lct
        run.record(lct_a == lct_b, f"{lct_a} != {lct_b}")
    return run.result()


def run_oracle_equivalence(seed: int, cases: int) -> CheckResult:
    """Proximity-recursion valuations and discrepancies match the
    step-by-step blow-up simulator on random valid clusters."""
    rng = _rng(seed, "oracle_equivalence")
    run = _SuiteRun("oracle_equivalence", cases)
    for _ in range(cases * _TRIAL_FACTOR):
        if run.done():
            break
        ncomps = rng.randint(1, 3)
        cluster = _random_cluster(rng, [f"c{i}" for i in range(ncomps)], max_nodes=7)
        vals, discs = simulate_pullbacks(cluster)
        ok = True
        for node in cluster.nodes:
            if cluster.log_discrepancy(node.id) != discs[node.id] + 1:
                ok = False
            for comp in cluster.component_ids:
                if cluster.valuation(node.id, comp) != vals[comp][node.id]:
                    ok = False
        run.record(ok, f"cluster of {len(cluster.nodes)} nodes disagrees")
    return run.result()


_SUITES: tuple[tuple[str, Callable[[int, int], CheckResult]], ...] = (
    ("skoda", run_skoda),
    ("adjunction", run_adjunction),
    ("theorem_disjunction", run_theorem_disjunction),
    ("convexity", run_convexity),
    ("blowup_transfer", run_blowup_transfer),
    ("monotonicity", run_monotonicity),
    ("order_independence", run_order_independence),
    ("oracle_equivalence", run_oracle_equivalence),
)


def run_property_suites(seed: int = 0, cases: int = 1000) -> Report:
    results = tuple(runner(seed, cases) for _, runner in _SUITES)
    return Report("properties", results, seed=seed, cases=cases)
