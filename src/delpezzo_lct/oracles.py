"""Independent recomputation paths used to validate the main engines.

Three oracles live here, each deliberately built on different machinery
than the code it checks:

* :func:`brute_force_classes` re-enumerates curve classes by a
  meet-in-the-middle table join instead of the pruned search in `lattice`.
* :func:`simulate_pullbacks` replays the blow-up sequence of a weighted
  cluster divisor by divisor, tracking strict-transform multiplicities
  explicitly, instead of running the proximity recursions.
* :func:`resolve_branches` resolves parametrized curve branches by actual
  power-series blow-up substitutions and reconstructs the cluster from
  scratch, validating the germ templates themselves.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt as _isqrt
from typing import Optional, Sequence

from .clusters import ClusterError, ClusterNode, Germ, WeightedCluster
from .lattice import QUADRIC, DivisorClass, SurfaceModel, _require_finite_class_sets


# ---------------------------------------------------------------------------
# Brute-force class enumeration


@lru_cache(maxsize=None)
def _half_table(bound: int, ncoords: int):
    """Integer vectors of ``ncoords`` entries with square < (bound + 1)^2,
    in lexicographic order, keyed by (sum, square).

    A half of a vector has at most the vector's square, so the ball holds
    both halves of every vector of square below (bound + 1)^2; it lies in
    the box [-bound, bound]^ncoords.  Vectors are extended one coordinate
    at a time, each partial square below the cap.
    """
    cap = (bound + 1) ** 2
    partial = [((), 0, 0)]
    for _ in range(ncoords):
        partial = [
            (vec + (c,), s + c, q + c * c)
            for vec, s, q in partial
            for c in range(-bound, bound + 1)
            if q + c * c < cap
        ]
    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for vec, s, q in partial:
        table.setdefault((s, q), []).append(vec)
    return table


def brute_force_classes(surface: SurfaceModel, deg: int, self_int: int) -> list[DivisorClass]:
    """Exhaustive class search by joining two half-coordinate tables.

    Shares only the finiteness interval for the H-coefficient, and the
    refusal of K^2 = 0 where there is none, with the main enumerator; the
    E-coordinate search is a plain table join over one ball of half-vectors
    that holds the halves for every H-coefficient in that interval.
    """
    if 2 + self_int - deg != 0:
        return []
    _require_finite_class_sets(surface)
    if surface.basis_kind == QUADRIC:
        found = []
        bound = abs(deg) + abs(self_int) + 2
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if 2 * (a + b) == deg and 2 * a * b == self_int:
                    found.append(DivisorClass(surface, (a, b)))
        return sorted(set(found), key=lambda c: c.coeffs)
    r = surface.rank - 1
    d = surface.degree
    found = []
    if r == 0:
        if deg % 3 == 0 and (deg // 3) ** 2 == self_int:
            found.append(DivisorClass(surface, (deg // 3,)))
    else:
        disc = 36 * deg * deg - 4 * d * (deg * deg + r * self_int)
        if disc < 0:
            return []
        sq = _isqrt(disc)
        lo = (6 * deg - sq) // (2 * d) - 1
        hi = (6 * deg + sq) // (2 * d) + 2
        a_range = [
            a for a in range(lo, hi + 1)
            if d * a * a - 6 * deg * a + (deg * deg + r * self_int) <= 0 and a * a >= self_int
        ]
        if not a_range:
            return []
        bound = _isqrt(max(a * a for a in a_range) - self_int)
        left = _half_table(bound, r // 2)
        right = _half_table(bound, r - r // 2)
        for a in a_range:
            square = a * a - self_int
            want_sum = deg - 3 * a
            for (s1, q1), vecs1 in left.items():
                partner = right.get((want_sum - s1, square - q1))
                if not partner:
                    continue
                for v1 in vecs1:
                    for v2 in partner:
                        found.append(DivisorClass(surface, (a,) + v1 + v2))
    return sorted(set(found), key=lambda c: c.coeffs)


# ---------------------------------------------------------------------------
# Step-by-step blow-up simulation over a weighted cluster


def simulate_pullbacks(cluster: WeightedCluster):
    """Replay the blow-ups one at a time, tracking divisors explicitly.

    State: for every divisor on the partial blow-up (strict transforms of
    the cluster's components and of the earlier exceptional curves), its
    multiplicity at each not-yet-blown-up cluster point; plus the composite
    pullback of each component and of the canonical-excess divisor written
    in the current strict-transform basis.  Blowing up a point q appends
    mult_q(pullback) * E_q to every pullback and 1 + mult_q(excess) * E_q to
    the canonical excess.

    Returns (valuations, discrepancies): component -> node -> v and
    node -> k.
    """
    comp_strict = {c: {n.id: n.mult(c) for n in cluster.nodes} for c in cluster.component_ids}
    exc_strict: dict[str, dict[str, int]] = {}
    for node in cluster.nodes:
        exc_strict[node.id] = {
            later.id: 1 for later in cluster.nodes if node.id in later.proximate_to
        }

    pullback = {c: {("c", c): 1} for c in cluster.component_ids}
    k_excess: dict[tuple[str, str], int] = {}
    vals: dict[str, dict[str, int]] = {c: {} for c in cluster.component_ids}
    discs: dict[str, int] = {}

    def mult_at(divisor: tuple[str, str], q: str) -> int:
        kind, name = divisor
        table = comp_strict[name] if kind == "c" else exc_strict[name]
        return table.get(q, 0)

    for node in cluster.nodes:
        q = node.id
        for comp in cluster.component_ids:
            v = sum(coeff * mult_at(div, q) for div, coeff in pullback[comp].items())
            vals[comp][q] = v
            if v:
                pullback[comp][("e", q)] = v
        k = 1 + sum(coeff * mult_at(div, q) for div, coeff in k_excess.items())
        discs[q] = k
        k_excess[("e", q)] = k
    return vals, discs


# ---------------------------------------------------------------------------
# Power-series blow-up resolution of parametrized branches

_ORDER = 24
# Two smooth branches of contact c < _ORDER separate after c blow-ups; the
# depth cap follows the truncation order so that no such pair is cut off.
_MAX_DEPTH = _ORDER

_Series = tuple[Fraction, ...]


def _series(coeffs: Sequence) -> _Series:
    vals = [Fraction(c) for c in coeffs[:_ORDER]]
    vals.extend([Fraction(0)] * (_ORDER - len(vals)))
    return tuple(vals)


_ZERO = _series([])


def _ord(p: _Series) -> Optional[int]:
    for i, c in enumerate(p):
        if c:
            return i
    return None


def _shift_down(p: _Series, k: int) -> _Series:
    return tuple(p[k:]) + (Fraction(0),) * k


def _mul(a: _Series, b: _Series) -> _Series:
    out = [Fraction(0)] * _ORDER
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if i + j >= _ORDER:
                break
            if cb:
                out[i + j] += ca * cb
    return tuple(out)


def _unit_inverse(u: _Series) -> _Series:
    if not u[0]:
        raise ClusterError("series inversion needs a unit")
    inv = [Fraction(0)] * _ORDER
    inv[0] = 1 / u[0]
    for n in range(1, _ORDER):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += u[i] * inv[n - i]
        inv[n] = -acc / u[0]
    return tuple(inv)


def _div(num: _Series, den: _Series) -> _Series:
    k = _ord(den)
    if k is None:
        raise ClusterError("division by the zero series")
    if _ord(num) is None:
        return _ZERO
    if _ord(num) < k:
        raise ClusterError("series quotient would have a pole")
    return _mul(_shift_down(num, k), _unit_inverse(_shift_down(den, k)))


def _sub_const(p: _Series, c: Fraction) -> _Series:
    return (p[0] - c,) + tuple(p[1:])


class _Curve:
    """A branch through the current chart origin, tracked by parametrization."""

    __slots__ = ("tag", "x", "y")

    def __init__(self, tag, x: _Series, y: _Series):
        self.tag = tag  # ("b", branch key) or ("e", node id)
        self.x = x
        self.y = y

    def mult(self) -> int:
        ox, oy = _ord(self.x), _ord(self.y)
        if ox is None and oy is None:
            raise ClusterError("degenerate branch parametrization")
        if ox is None:
            return oy
        if oy is None:
            return ox
        return min(ox, oy)

    def tangent(self) -> tuple[Fraction, Fraction]:
        return (self.x[1], self.y[1])

    def transform(self):
        """Blow up the origin: (location key, transformed curve)."""
        ox = _ord(self.x)
        oy = _ord(self.y)
        ox_v = _ORDER + 1 if ox is None else ox
        oy_v = _ORDER + 1 if oy is None else oy
        if min(ox_v, oy_v) < 1:
            raise ClusterError("curve does not pass through the origin")
        if ox_v <= oy_v:
            slope = _div(self.y, self.x)
            c = slope[0]
            return ("f", c), _Curve(self.tag, self.x, _sub_const(slope, c))
        u = _div(self.x, self.y)
        return ("v", Fraction(0)), _Curve(self.tag, u, self.y)


def _needs_blowup(curves: list[_Curve]) -> bool:
    if any(c.mult() >= 2 for c in curves):
        return True
    if len(curves) >= 3:
        return True
    if len(curves) == 2:
        (x1, y1) = curves[0].tangent()
        (x2, y2) = curves[1].tangent()
        return x1 * y2 - y1 * x2 == 0
    return False


def _unresolved(curves: list[_Curve]) -> ClusterError:
    """The error for a resolution that reached the depth cap, naming the limit.

    Each chart change is injective on truncated series, so two branches with
    equal series here had equal series, through ``_ORDER`` terms, on input:
    more depth cannot separate them, only more precision could.
    """
    branches = [c for c in curves if c.tag[0] == "b"]
    for a, b in itertools.combinations(branches, 2):
        if a.x == b.x and a.y == b.y:
            return ClusterError(
                f"branches {a.tag[1]!r} and {b.tag[1]!r} coincide through "
                f"_ORDER={_ORDER} series terms"
            )
    return ClusterError(
        f"resolution did not terminate within the depth cap _MAX_DEPTH={_MAX_DEPTH}"
    )


def resolve_branches(branches: dict):
    """Resolve parametrized branches to a weighted cluster, from scratch.

    ``branches`` maps a branch key to a pair of coefficient sequences
    (x(t), y(t)).  Returns (nodes, branch_mults) where nodes is a list of
    (node id, parent id, proximities) in creation order, with ids n0, n1,
    ..., and branch_mults maps node id -> branch key -> multiplicity.  The
    root is always blown up; afterwards a point is blown up exactly while
    the union of branches and exceptional curves fails to be simple normal
    crossings there.
    """
    curves = [_Curve(("b", key), _series(x), _series(y)) for key, (x, y) in branches.items()]
    nodes: list[tuple[str, Optional[str], tuple[str, ...]]] = []
    mults: dict[str, dict] = {}
    counter = itertools.count()

    def blow(cur: list[_Curve], parent: Optional[str], depth: int) -> None:
        if depth > _MAX_DEPTH:
            raise _unresolved(cur)
        node_id = f"n{next(counter)}"
        prox = tuple(c.tag[1] for c in cur if c.tag[0] == "e")
        nodes.append((node_id, parent, prox))
        mults[node_id] = {c.tag[1]: c.mult() for c in cur if c.tag[0] == "b"}
        locations: dict[tuple, list[_Curve]] = {}
        for c in cur:
            key, moved = c.transform()
            locations.setdefault(key, []).append(moved)
        for key in sorted(locations):
            group = locations[key]
            if key[0] == "f":
                e_new = _Curve(("e", node_id), _ZERO, _series([0, 1]))
            else:
                e_new = _Curve(("e", node_id), _series([0, 1]), _ZERO)
            group = group + [e_new]
            if _needs_blowup(group):
                blow(group, node_id, depth + 1)

    blow(curves, None, 0)
    return nodes, mults


def _germ_parametrizations(germ: Germ) -> dict:
    k = germ.branches
    if germ.kind in ("smooth_transverse", "ordinary"):
        return {b: ([0, 1], [0, b]) for b in range(k)}
    if germ.kind == "node":
        return {0: ([0, 1], [0, 1]), 1: ([0, 1], [0, -1])}
    if germ.kind in ("tacnode", "tacnode_curve"):
        return {0: ([0, 1], [0, 0, 1]), 1: ([0, 1], [0, 0, -1])}
    if germ.kind == "cusp":
        return {0: ([0, 0, 1], [0, 0, 0, 1])}
    raise ClusterError(f"unknown germ kind {germ.kind!r}")


def resolve_germ(germ: Germ, branch_to_component: dict[int, str]) -> WeightedCluster:
    """Resolve a catalogued germ from explicit parametrizations.

    Produces a WeightedCluster comparable (via ``canonical_form``) with the
    template the main engine instantiates.
    """
    nodes, branch_mults = resolve_branches(_germ_parametrizations(germ))
    comp_ids: list[str] = []
    for b in sorted(branch_to_component):
        comp = branch_to_component[b]
        if comp not in comp_ids:
            comp_ids.append(comp)
    cluster_nodes = []
    for node_id, parent, prox in nodes:
        comp_mults: dict[str, int] = {}
        for b, m in branch_mults[node_id].items():
            comp = branch_to_component[b]
            comp_mults[comp] = comp_mults.get(comp, 0) + m
        cluster_nodes.append(ClusterNode(node_id, parent, prox, comp_mults))
    return WeightedCluster(tuple(cluster_nodes), tuple(comp_ids))


def resolve_parametrized(branches: dict[str, tuple]) -> WeightedCluster:
    """Resolve branches keyed directly by component id (one branch each)."""
    nodes, branch_mults = resolve_branches(dict(branches))
    cluster_nodes = []
    for node_id, parent, prox in nodes:
        cluster_nodes.append(ClusterNode(node_id, parent, prox, dict(branch_mults[node_id])))
    return WeightedCluster(tuple(cluster_nodes), tuple(branches))
