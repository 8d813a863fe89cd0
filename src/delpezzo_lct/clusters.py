"""Weighted clusters of infinitely near points and log canonical thresholds.

A divisor configuration pairs lattice classes with combinatorial local data:
at each marked point, either a named germ (node, cusp, tacnode, ...) or an
explicit weighted cluster.  Germs compile to clusters; valuations and
discrepancies follow the proximity recursions

    v(q) = mult(q) + sum of v over the points q is proximate to,
    k(q) = 1     + sum of k over the points q is proximate to,

and the threshold at a point is

    lct_p = min( 1/d_i over components through p,
                 (k(q)+1) / v_q(D) over cluster points q with v_q(D) > 0 ).

All arithmetic is exact (`int` and `Fraction`); every value is immutable
and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .lattice import DivisorClass, SurfaceModel


class ClusterError(ValueError):
    """Structurally invalid cluster or configuration data."""


class InconsistentConfigError(ClusterError):
    """Declared local intersections exceed what the lattice allows."""

    def __init__(self, comp_i: str, comp_j: str, local_total: int, lattice_total: int):
        self.comp_i = comp_i
        self.comp_j = comp_j
        self.local_total = local_total
        self.lattice_total = lattice_total
        super().__init__(
            f"components {comp_i!r} and {comp_j!r} declare local intersection "
            f"{local_total} but their classes only meet in {lattice_total} points"
        )


# Germ kind -> (fixed branch count or None, template).  A template row is a
# node (id, parent, proximities, multiplicity of every branch); the rows are
# the minimal embedded-resolution cluster of the germ, and the power-series
# resolver in `oracles` re-derives each one independently.
_ROOT = ("n0", None, (), 1)
_TANGENT = ("n1", "n0", ("n0",), 1)
_CATALOGUE = {
    "smooth_transverse": (None, (_ROOT,)),
    "tacnode": (2, (_ROOT, _TANGENT)),
    "node": (2, (_ROOT,)),
    "cusp": (1, (("n0", None, (), 2), _TANGENT, ("n2", "n1", ("n1", "n0"), 1))),
    "tacnode_curve": (2, (_ROOT, _TANGENT)),
    "ordinary": (None, (_ROOT,)),
}

GERM_KINDS = tuple(_CATALOGUE)

_FIXED_ARITY = {kind: fixed for kind, (fixed, _) in _CATALOGUE.items() if fixed is not None}


@dataclass(frozen=True)
class Germ:
    """A catalogued curve germ; ``branches`` is the number of local branches,
    by default the count the kind fixes (1 where it fixes none)."""

    kind: str
    branches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in GERM_KINDS:
            raise ClusterError(f"unknown germ kind {self.kind!r}")
        fixed = _FIXED_ARITY.get(self.kind)
        if self.branches is None:
            object.__setattr__(self, "branches", fixed or 1)
        elif type(self.branches) is not int:
            raise ClusterError(f"{self.kind} germ branch count must be an integer, got {self.branches!r}")
        if fixed is not None and self.branches != fixed:
            raise ClusterError(f"{self.kind} germ has exactly {fixed} branches")
        if self.branches < 1:
            raise ClusterError("a germ needs at least one branch")

    @classmethod
    def smooth(cls, k: int = 1) -> "Germ":
        return cls("smooth_transverse", k)

    @classmethod
    def node(cls) -> "Germ":
        return cls("node")

    @classmethod
    def cusp(cls) -> "Germ":
        return cls("cusp")

    @classmethod
    def tacnode(cls) -> "Germ":
        return cls("tacnode")

    @classmethod
    def tacnode_curve(cls) -> "Germ":
        return cls("tacnode_curve")

    @classmethod
    def ordinary(cls, m: int) -> "Germ":
        return cls("ordinary", m)


@dataclass(frozen=True)
class ClusterNode:
    """One infinitely near point: parent, proximities, strict-transform mults."""

    id: str
    parent: Optional[str]
    proximate_to: tuple[str, ...]
    mults: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "proximate_to", tuple(self.proximate_to))
        object.__setattr__(self, "mults", dict(self.mults))
        for a in self.proximate_to:
            if not isinstance(a, str):
                raise ClusterError(f"proximity of {self.id!r} must be a node id, got {a!r}")
        for comp, m in self.mults.items():
            if type(m) is not int or m < 0:
                raise ClusterError(f"multiplicity of {comp!r} at {self.id!r} must be a nonnegative integer")

    def mult(self, component: str) -> int:
        return self.mults.get(component, 0)


@dataclass(frozen=True)
class WeightedCluster:
    """A rooted tree of infinitely near points with proximity relations.

    Nodes are listed in topological order (parents before children); the
    first node is the root, the proper point on the surface.
    """

    nodes: tuple[ClusterNode, ...]
    component_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "component_ids", tuple(self.component_ids))
        self._validate()

    @classmethod
    def _derived(
        cls,
        rows: Iterable[tuple[str, Optional[str], tuple[str, ...], Mapping[str, int]]],
        component_ids: tuple[str, ...],
    ) -> "WeightedCluster":
        """A cluster derived from a valid one by a validity-preserving edit.

        ``rows`` are (id, parent, proximities, mults), taken as they are.
        Input is checked once, node by node and as a whole, by the public
        constructors; blow-up slicing and scaling a germ template by its
        branch counts cannot break a valid cluster, so neither check runs
        again here.
        """
        nodes = []
        for nid, parent, prox, mults in rows:
            node = object.__new__(ClusterNode)
            object.__setattr__(node, "id", nid)
            object.__setattr__(node, "parent", parent)
            object.__setattr__(node, "proximate_to", prox)
            object.__setattr__(node, "mults", mults)
            nodes.append(node)
        derived = object.__new__(cls)
        object.__setattr__(derived, "nodes", tuple(nodes))
        object.__setattr__(derived, "component_ids", component_ids)
        return derived

    def _validate(self) -> None:
        if not self.nodes:
            raise ClusterError("a cluster needs at least the root node")
        index = self._index
        if len(index) != len(self.nodes):
            raise ClusterError("duplicate node ids")
        known: set[str] = set()
        for comp in self.component_ids:
            if comp in known:
                raise ClusterError(f"duplicate component id {comp!r}")
            known.add(comp)
        if self.nodes[0].parent is not None or any(n.parent is None for n in self.nodes[1:]):
            raise ClusterError("exactly one root is allowed and it must come first")
        # Per node id: the multiplicities of the points proximate to it, summed
        # by component as each of those points is checked.
        used: dict[str, dict[str, int]] = {}
        corners: set[tuple[str, str]] = set()
        repeated_corner = None
        for i, node in enumerate(self.nodes):
            if not known.issuperset(node.mults):
                comp = next(c for c in node.mults if c not in known)
                raise ClusterError(f"node {node.id!r} mentions unknown component {comp!r}")
            if node.parent is None:
                if node.proximate_to:
                    raise ClusterError("the root is proximate to nothing")
                continue
            if index.get(node.parent, i) >= i:
                raise ClusterError(f"parent of {node.id!r} must be listed before it")
            prox = node.proximate_to
            if node.parent not in prox:
                raise ClusterError(f"{node.id!r} must be proximate to its parent")
            if len(set(prox)) != len(prox) or len(prox) > 2:
                raise ClusterError(f"{node.id!r} may be proximate to its parent and at most one more point")
            # The parent was checked first, so its proximities are ancestors of
            # it: an extra proximity is valid exactly when the parent has it.
            # Only a failure walks the ancestor chain, to name the fault.
            parent_prox = self.nodes[index[node.parent]].proximate_to
            for a in prox:
                if a != node.parent and a not in parent_prox:
                    if a not in self._ancestors(node.id):
                        raise ClusterError(f"{node.id!r} proximate to non-ancestor {a!r}")
                    raise ClusterError(f"satellite {node.id!r}: its parent is not proximate to {a!r}")
            # A satellite direction E_parent /\ E_a is a single point.  The
            # first repeat is named once every node has passed the checks above.
            if len(prox) == 2 and repeated_corner is None:
                corner = (node.parent, prox[1] if prox[0] == node.parent else prox[0])
                if corner in corners:
                    repeated_corner = corner
                corners.add(corner)
            for a in prox:
                if a in used:
                    total = used[a]
                    for comp, m in node.mults.items():
                        total[comp] = total.get(comp, 0) + m
                else:
                    used[a] = dict(node.mults)
        if repeated_corner is not None:
            raise ClusterError(f"two satellites over the same corner {repeated_corner}")
        # Proximity inequality, per component; the first failing component in
        # `component_ids` order is named.
        for node in self.nodes:
            total = used.get(node.id, {})
            for comp, m in total.items():
                if node.mults.get(comp, 0) < m:
                    first = next(c for c in self.component_ids if node.mult(c) < total.get(c, 0))
                    raise ClusterError(
                        f"proximity inequality fails for {first!r} at {node.id!r}: "
                        f"{node.mult(first)} < {total[first]}"
                    )

    def _ancestors(self, node_id: str) -> list[str]:
        """The ancestors of a node, parent first and the root last."""
        index = self._index
        out = []
        cur = self.nodes[index[node_id]].parent
        while cur is not None:
            out.append(cur)
            cur = self.nodes[index[cur]].parent
        return out

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    def _position(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise ClusterError(f"unknown cluster node {node_id!r}") from None

    @property
    def root(self) -> ClusterNode:
        return self.nodes[0]

    def children(self, node_id: str) -> tuple[ClusterNode, ...]:
        return tuple(n for n in self.nodes if n.parent == node_id)

    @cached_property
    def _noether_pairs(self) -> tuple[tuple[str, str, int], ...]:
        """(i, j, local intersection) for each pair of components, in
        ``component_ids`` order: once per cluster, however many
        configurations (scaled, re-weighted) hold it."""
        return tuple(
            (i, j, self.local_intersection_pair(i, j))
            for i, j in itertools.combinations(self.component_ids, 2)
        )

    @cached_property
    def _forms(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """Per node, in node order: (id, k, v of each component in
        ``component_ids`` order), by the two proximity recursions.

        v_q(D) is the integer linear form sum_i d_i * v_q(C_i) in these
        columns; certificates evaluate it once per coefficient vector.
        """
        forms: dict[str, tuple[str, int, tuple[int, ...]]] = {}
        comp_ids = self.component_ids
        zeros = (0,) * len(comp_ids)
        for node in self.nodes:
            k = 1
            v = tuple(map(node.mults.get, comp_ids, zeros))
            for a in node.proximate_to:
                _, ka, va = forms[a]
                k += ka
                v = tuple(map(operator.add, v, va))
            forms[node.id] = (node.id, k, v)
        return tuple(forms.values())

    def valuation(self, node_id: str, component: str) -> int:
        _, _, v = self._forms[self._position(node_id)]
        if component not in self.component_ids:
            raise ClusterError(f"unknown component {component!r}")
        return v[self.component_ids.index(component)]

    def log_discrepancy(self, node_id: str) -> int:
        """k(node) + 1, the log discrepancy of the exceptional divisor."""
        return self._forms[self._position(node_id)][1] + 1

    def divisor_valuation(self, node_id: str, coeffs: Mapping[str, Fraction]) -> Fraction:
        _, _, v = self._forms[self._position(node_id)]
        total = Fraction(0)
        for comp, vq in zip(self.component_ids, v):
            if comp in coeffs:
                total += coeffs[comp] * vq
        return total

    def local_intersection_pair(self, comp_i: str, comp_j: str) -> int:
        """Noether's formula: sum over nodes of mult_i * mult_j."""
        return sum(n.mults.get(comp_i, 0) * n.mults.get(comp_j, 0) for n in self.nodes)

    def root_slack(self, component: str) -> int:
        """Root multiplicity minus the proximate multiplicities.

        Each unit is a smooth branch of the component leaving the root in a
        fresh direction (it crosses the exceptional curve of the root blow-up
        transversally away from every recorded infinitely near point).
        """
        root = self.root
        used = sum(
            n.mult(component) for n in self.nodes if root.id in n.proximate_to
        )
        return root.mult(component) - used


def canonical_form(cluster: WeightedCluster):
    """An id- and sibling-order-independent encoding of a cluster.

    A node's form is (nonzero mults sorted, extra proximities as ancestor
    distances (1 = parent) sorted, its children's forms sorted), so two
    clusters describing the same configuration compare equal.  Built
    bottom-up in one pass: children come after their parent in ``nodes``.
    """
    depth: dict[str, int] = {}
    kids: dict[str, list] = {}
    for node in cluster.nodes:
        depth[node.id] = 0 if node.parent is None else depth[node.parent] + 1
        kids[node.id] = []
    form = None
    for node in reversed(cluster.nodes):
        extra = tuple(
            sorted(depth[node.id] - depth[a] for a in node.proximate_to if a != node.parent)
        )
        mults = tuple(sorted((c, m) for c, m in node.mults.items() if m))
        form = (mults, extra, tuple(sorted(kids.pop(node.id))))
        if node.parent is not None:
            kids[node.parent].append(form)
    return form


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction.  A float is refused, since ``Fraction(0.1)``
    is the binary fraction nearest 0.1, and so is a bool, which is no number."""
    if isinstance(value, (float, bool)):
        raise ClusterError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class Component:
    """A configuration component: a lattice class with a rational coefficient."""

    id: str
    cls: DivisorClass
    coeff: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", _exact(self.coeff, f"coefficient of {self.id!r}"))


@dataclass(frozen=True)
class Incidence:
    """Branch slot ``branch`` of a germ lies on ``component``."""

    component: str
    branch: int

    def __post_init__(self) -> None:
        if type(self.branch) is not int:
            raise ClusterError(f"branch slot of {self.component!r} must be an integer, got {self.branch!r}")


@dataclass(frozen=True)
class ConfigPoint:
    """A marked point with its local germ and branch assignment.

    ``germ`` is either a catalogued :class:`Germ` (then ``incident`` assigns
    each branch slot to a component) or an explicit :class:`WeightedCluster`
    (then ``incident`` must be empty; the cluster's own multiplicity data is
    the declaration).
    """

    id: str
    germ: Union[Germ, WeightedCluster]
    incident: tuple[Incidence, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "incident", tuple(self.incident))

    @cached_property
    def cluster(self) -> WeightedCluster:
        """The compiled cluster: an explicit cluster itself, or the germ
        template with node ids ``n0, n1, ...``.

        Compiled once per point: every configuration holding this point
        (scaled, re-weighted, or blown up elsewhere) shares the cluster and
        its valuation tables.  Component ids are checked per configuration.
        """
        return _compile_germ(self)


def _compile_germ(point: ConfigPoint) -> WeightedCluster:
    """The point's cluster: an explicit cluster as it is, or the germ
    template scaled by the branches of each component, valid by
    construction (the tests check every kind), so no check runs here."""
    germ = point.germ
    if isinstance(germ, WeightedCluster):
        if point.incident:
            raise ClusterError(
                f"point {point.id!r}: explicit clusters carry their own incidence data"
            )
        return germ
    slots = sorted(inc.branch for inc in point.incident)
    if slots != list(range(germ.branches)):
        raise ClusterError(
            f"point {point.id!r}: germ {germ.kind}({germ.branches}) needs branch "
            f"slots 0..{germ.branches - 1}, got {slots}"
        )
    # Branches per component, counted in branch order (the order of the mults).
    branches: dict[str, int] = {}
    for inc in sorted(point.incident, key=operator.attrgetter("branch")):
        branches[inc.component] = branches.get(inc.component, 0) + 1
    rows = (
        (nid, parent, prox, {comp: m * k for comp, k in branches.items()})
        for nid, parent, prox, m in _CATALOGUE[germ.kind][1]
    )
    comp_ids = tuple(dict.fromkeys(inc.component for inc in point.incident))
    return WeightedCluster._derived(rows, comp_ids)


def _compile_point(point: ConfigPoint, known_components: set[str]) -> WeightedCluster:
    cluster = point.cluster
    for comp in cluster.component_ids:
        if comp not in known_components:
            raise ClusterError(f"point {point.id!r} mentions unknown component {comp!r}")
    return cluster


@dataclass(frozen=True)
class DivisorConfiguration:
    """A Q-divisor given by lattice classes plus local germ data.

    The pairwise local intersections implied by the germ data are checked
    against the lattice pairing, also for two components in one class
    (distinct curves in a class meet in C^2 points; the declared data is
    trusted beyond that, and realizability over a field is the geometry the
    construction sites establish by hand).  ``allow_signed``
    admits nonpositive coefficients, which blow-up transforms produce.
    """

    surface: SurfaceModel
    components: tuple[Component, ...]
    points: tuple[ConfigPoint, ...] = ()
    allow_signed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "points", tuple(self.points))
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ClusterError("duplicate component ids")
        pids = [p.id for p in self.points]
        if len(set(pids)) != len(pids):
            raise ClusterError("duplicate point ids")
        for comp in self.components:
            if comp.cls.surface != self.surface:
                raise ClusterError(f"component {comp.id!r} lives on a different surface")
            if not self.allow_signed and comp.coeff <= 0:
                raise ClusterError(f"component {comp.id!r} needs a positive coefficient")
        self._clusters  # compile (validates germs and branch assignments)
        self._check_consistency()

    @cached_property
    def _clusters(self) -> dict[str, WeightedCluster]:
        known = {c.id for c in self.components}
        return {p.id: _compile_point(p, known) for p in self.points}

    @cached_property
    def coefficients(self) -> dict[str, Fraction]:
        return {c.id: c.coeff for c in self.components}

    @cached_property
    def _certificates(self) -> dict[Optional[str], "LctCertificate"]:
        """:func:`certificate` results by point scope (None: the whole divisor)."""
        return {}

    def component(self, comp_id: str) -> Component:
        for c in self.components:
            if c.id == comp_id:
                return c
        raise ClusterError(f"unknown component {comp_id!r}")

    def cluster_at(self, point_id: str) -> WeightedCluster:
        try:
            return self._clusters[point_id]
        except KeyError:
            raise ClusterError(f"unknown point {point_id!r}") from None

    def total_class(self) -> DivisorClass:
        """sum d_i * class_i; exact only when every d_i is an integer."""
        coeffs = self.total_class_fractions()
        if any(c.denominator != 1 for c in coeffs):
            raise ClusterError("total class has non-integer coefficients")
        return DivisorClass(self.surface, tuple(int(c) for c in coeffs))

    def total_class_fractions(self) -> tuple[Fraction, ...]:
        coeffs = [Fraction(0)] * self.surface.rank
        for comp in self.components:
            for i, c in enumerate(comp.cls.coeffs):
                coeffs[i] += comp.coeff * c
        return tuple(coeffs)

    def _check_consistency(self) -> None:
        totals: dict[tuple[str, str], int] = {}
        for cluster in self._clusters.values():
            for i, j, local in cluster._noether_pairs:
                key = (i, j) if i < j else (j, i)
                totals[key] = totals.get(key, 0) + local
        for (i, j), local in totals.items():
            lattice = self.component(i).cls.dot(self.component(j).cls)
            if local > lattice:
                raise InconsistentConfigError(i, j, local, lattice)


@dataclass(frozen=True)
class CertificateRow:
    """One exceptional-divisor constraint: lambda * v <= k + 1."""

    point: str
    node: str
    k: int
    v: Fraction
    ratio: Optional[Fraction]  # (k+1)/v when v > 0, else no constraint


@dataclass(frozen=True)
class ComponentBound:
    component: str
    coeff: Fraction
    bound: Optional[Fraction]  # 1/coeff when coeff > 0


# Per point in a certificate's scope: the point id, its compiled cluster,
# the common denominator L of the coefficients there, and each coefficient
# times L (an integer), in the cluster's ``component_ids`` order.
_PointForms = tuple[str, WeightedCluster, int, tuple[int, ...]]


@dataclass(frozen=True, eq=False, repr=False)
class LctCertificate:
    """The threshold with the full constraint list proving it.

    ``lct`` is None when no constraint is active (the divisor misses the
    point entirely): the threshold is +infinity.  ``minimizer`` is
    ("component", id) or ("node", id); ties resolve to the earliest
    constraint in canonical order (component bounds first, then cluster
    rows in listed order).

    ``rows`` are built from the integer forms of each point on first read
    and then kept; a caller that reads only ``lct`` never builds them.
    Equality, hashing and repr take the rows into account.
    """

    lct: Optional[Fraction]
    minimizer: Optional[tuple[str, str]]
    component_bounds: tuple[ComponentBound, ...]
    _points: tuple[_PointForms, ...]

    @cached_property
    def rows(self) -> tuple[CertificateRow, ...]:
        return tuple(row for point in self._points for row in _point_rows(*point))

    def _key(self) -> tuple:
        return (self.lct, self.minimizer, self.rows, self.component_bounds)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(lct={self.lct!r}, minimizer={self.minimizer!r}, "
            f"rows={self.rows!r}, component_bounds={self.component_bounds!r})"
        )


def compile_configuration(cfg: DivisorConfiguration, point_id: str) -> WeightedCluster:
    return cfg.cluster_at(point_id)


def valuation(cluster: WeightedCluster, node_id: str, component: str) -> int:
    return cluster.valuation(node_id, component)


def log_discrepancy(cluster: WeightedCluster, node_id: str) -> int:
    return cluster.log_discrepancy(node_id)


def multiplicity_at(cfg: DivisorConfiguration, point_id: str) -> Fraction:
    """mult_p(D) = sum d_i * mult_p(C_i), read off the root node."""
    cluster = cfg.cluster_at(point_id)
    root = cluster.root
    return sum(
        (cfg.coefficients[c] * root.mult(c) for c in cluster.component_ids),
        Fraction(0),
    )


def local_intersection(cfg: DivisorConfiguration, point_id: str, comp_i: str, comp_j: str) -> int:
    cluster = cfg.cluster_at(point_id)
    for comp in (comp_i, comp_j):
        cfg.component(comp)
        if not cluster.root.mult(comp):
            raise ClusterError(f"component {comp!r} does not pass through {point_id!r}")
    return cluster.local_intersection_pair(comp_i, comp_j)


def _incident_components(cfg: DivisorConfiguration, point_id: str) -> list[str]:
    root = cfg.cluster_at(point_id).root
    return [c.id for c in cfg.components if root.mult(c.id)]


def _point_forms(cfg: DivisorConfiguration, point_id: str) -> _PointForms:
    """The point's cluster with its coefficients over their common
    denominator L: v_q(D) = (sum_i (d_i * L) * v_q(C_i)) / L, integer terms."""
    cluster = cfg.cluster_at(point_id)
    coeffs = [cfg.coefficients[c] for c in cluster.component_ids]
    den = math.lcm(*(d.denominator for d in coeffs))
    nums = tuple(d.numerator * (den // d.denominator) for d in coeffs)
    return point_id, cluster, den, nums


def _point_rows(
    point_id: str, cluster: WeightedCluster, den: int, nums: tuple[int, ...]
) -> list[CertificateRow]:
    """The cluster rows at one point, each node named ``"<point id>.<node id>"``:
    one Fraction for v = (nums . v_q) / L and one for its ratio
    (k+1)/v = (k+1)*L / (nums . v_q)."""
    rows = []
    for node_id, k, vals in cluster._forms:
        v = sum(map(operator.mul, nums, vals))
        ratio = Fraction((k + 1) * den, v) if v > 0 else None
        rows.append(CertificateRow(point_id, f"{point_id}.{node_id}", k, Fraction(v, den), ratio))
    return rows


def certificate(cfg: DivisorConfiguration, point_id: Optional[str] = None) -> LctCertificate:
    """All threshold constraints, scoped to one point or to the whole divisor.

    Computed once per configuration and scope; both are immutable, so
    repeated queries (``is_log_canonical`` at many lambda) share the result.
    """
    cached = cfg._certificates.get(point_id)
    if cached is None:
        cached = cfg._certificates[point_id] = _certificate(cfg, point_id)
    return cached


def _certificate(cfg: DivisorConfiguration, point_id: Optional[str]) -> LctCertificate:
    if point_id is None:
        comp_ids = [c.id for c in cfg.components]
        point_ids = [p.id for p in cfg.points]
    else:
        comp_ids = _incident_components(cfg, point_id)
        point_ids = [point_id]

    # The minimum as an integer pair num/den, den > 0, compared by
    # cross-multiplication; 1/0 stands for +infinity.  Candidates come in
    # canonical order and only a strict `<` replaces the best, so the earliest
    # of equal constraints is the minimizer.
    best_num, best_den, minimizer = 1, 0, None
    bounds = []
    for cid in comp_ids:
        d = cfg.coefficients[cid]
        bounds.append(ComponentBound(cid, d, Fraction(1) / d if d > 0 else None))
        if d > 0 and d.denominator * best_den < best_num * d.numerator:
            best_num, best_den, minimizer = d.denominator, d.numerator, ("component", cid)
    points = tuple(_point_forms(cfg, pid) for pid in point_ids)
    for pid, cluster, den, nums in points:
        # The point's least (k+1)/(nums . v_q), rows with nums . v_q <= 0 never
        # passing the test; the factor L is common to the point's rows.
        k1, v, node = 1, 0, None
        for node_id, k, vals in cluster._forms:
            vq = sum(map(operator.mul, nums, vals))
            if (k + 1) * v < k1 * vq:
                k1, v, node = k + 1, vq, node_id
        if k1 * den * best_den < best_num * v:
            best_num, best_den, minimizer = k1 * den, v, ("node", f"{pid}.{node}")
    lct = None if minimizer is None else Fraction(best_num, best_den)
    return LctCertificate(lct, minimizer, tuple(bounds), points)


def is_log_canonical(
    cfg: DivisorConfiguration, lam: Fraction, point_id: Optional[str] = None
) -> tuple[bool, LctCertificate]:
    """Whether (S, lam * D) is log canonical (at ``point_id`` if given)."""
    lam = _exact(lam, "the scaling factor")
    if lam < 0:
        raise ClusterError(f"the scaling factor must be nonnegative, got {lam}")
    cert = certificate(cfg, point_id)
    verdict = cert.lct is None or lam <= cert.lct
    return verdict, cert


def lct_at_point(cfg: DivisorConfiguration, point_id: str) -> LctCertificate:
    return certificate(cfg, point_id)


def lct_global(cfg: DivisorConfiguration) -> LctCertificate:
    return certificate(cfg, None)


def non_klt_locus(cfg: DivisorConfiguration, lam: Fraction) -> tuple[frozenset[str], frozenset[str]]:
    """Components with lam*d >= 1 and points where some lam*v - k >= 1.

    A cluster point enters exactly when some exceptional divisor over it has
    discrepancy <= -1 for (S, lam*D), i.e. its coefficient lam*v - k in the
    log pullback reaches 1.
    """
    lam = _exact(lam, "the scaling factor")
    comps = frozenset(c.id for c in cfg.components if lam * c.coeff >= 1)
    pts = frozenset(r.point for r in certificate(cfg).rows if lam * r.v - r.k >= 1)
    return comps, pts


def scale_configuration(cfg: DivisorConfiguration, lam: Fraction) -> DivisorConfiguration:
    lam = _exact(lam, "scaling factor")
    if lam <= 0:
        raise ClusterError(f"scaling factor must be positive, got {lam}")
    return with_coefficients(cfg, {c.id: lam * c.coeff for c in cfg.components})


def with_coefficients(
    cfg: DivisorConfiguration, coeffs: Mapping[str, Fraction]
) -> DivisorConfiguration:
    return DivisorConfiguration(
        cfg.surface,
        tuple(
            Component(c.id, c.cls, coeffs.get(c.id, c.coeff))
            for c in cfg.components
        ),
        cfg.points,
        allow_signed=cfg.allow_signed,
    )


def _subtree_point(point_id: str, cluster: WeightedCluster, child_id: str, exc_id: str) -> ConfigPoint:
    """The marked point ``"<point id>.<child id>"`` on E under the direction
    ``child_id`` of the root; its cluster keeps the nodes' own ids.

    The slice of a valid cluster is valid: E's strict transform passes
    through the chain of nodes proximate to the root, once each.
    """
    root_id = cluster.root.id
    keep = {child_id}
    order = []
    for node in cluster.nodes:
        if node.id == child_id or (node.parent in keep):
            keep.add(node.id)
            order.append(node)
    comp_ids = [c for c in cluster.component_ids if order[0].mult(c)]
    rows = []
    for node in order:
        mults = {c: node.mult(c) for c in comp_ids if node.mult(c)}
        on_e = root_id in node.proximate_to
        if on_e:
            mults[exc_id] = 1
        prox = tuple(a for a in node.proximate_to if a != root_id)
        parent = None if node.id == child_id else node.parent
        if parent is None:
            prox = ()
        rows.append((node.id, parent, prox, mults))
    return ConfigPoint(
        f"{point_id}.{child_id}", WeightedCluster._derived(rows, tuple(comp_ids) + (exc_id,))
    )


def transform_by_blowup(cfg: DivisorConfiguration, point_id: str) -> DivisorConfiguration:
    """The configuration on the blow-up at ``point_id``.

    Components become strict transforms (class minus mult * E); the
    exceptional curve joins with coefficient mult_p(D) - 1, carried with its
    sign.  The points over p are the root's marked directions plus one fresh
    transverse crossing of E per unit of unconsumed root multiplicity; other
    marked points carry over unchanged.
    """
    cluster = cfg.cluster_at(point_id)
    new_surface = cfg.surface.blow_up()
    e_idx = new_surface.rank - 1
    exc_id = f"{point_id}.E"
    if any(c.id == exc_id for c in cfg.components):
        raise ClusterError(f"component id {exc_id!r} already taken")

    root = cluster.root
    mult_p = multiplicity_at(cfg, point_id)

    new_components = []
    for comp in cfg.components:
        coeffs = comp.cls.coeffs + (-root.mult(comp.id),)
        new_components.append(Component(comp.id, DivisorClass(new_surface, coeffs), comp.coeff))
    e_coeffs = tuple([0] * e_idx + [1])
    new_components.append(
        Component(exc_id, DivisorClass(new_surface, e_coeffs), mult_p - 1)
    )

    new_points: list[ConfigPoint] = []
    for p in cfg.points:
        if p.id == point_id:
            continue
        # Same germ, untouched cluster: rebuild against the new classes.
        new_points.append(p)
    for child in cluster.children(root.id):
        new_points.append(_subtree_point(point_id, cluster, child.id, exc_id))
    for comp_id in cluster.component_ids:
        for n in range(cluster.root_slack(comp_id)):
            new_points.append(
                ConfigPoint(
                    f"{point_id}.{comp_id}.dir{n}",
                    Germ.smooth(2),
                    (Incidence(comp_id, 0), Incidence(exc_id, 1)),
                )
            )
    return DivisorConfiguration(
        new_surface, tuple(new_components), tuple(new_points), allow_signed=True
    )
