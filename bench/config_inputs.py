"""Seeded configuration files for the threshold workload, and their oracle.

Configurations are written as JSON text in the package's file format and
kept next to a plain description (``Spec``) that the oracle reads; the
package only ever sees the text.  All curves live on the plane as classes
(40 + i)H, so the lattice allows every local intersection generated here.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

# Catalogued germs: (kind, branch count range).
GERMS = (
    ("node", (2, 2)),
    ("cusp", (1, 1)),
    ("tacnode", (2, 2)),
    ("tacnode_curve", (2, 2)),
    ("ordinary", (2, 5)),
    ("smooth_transverse", (1, 3)),
)
_GERM_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")
_FIXED_BRANCHES = {"node": 2, "cusp": 1, "tacnode": 2, "tacnode_curve": 2}


@dataclass(frozen=True)
class Spec:
    """What the oracle needs: coefficients and, per point, its germ data.

    A point is (id, "germ", kind, branches, {branch: component}) or
    (id, "cluster", ((node, parent, proximities, {component: mult}), ...),
    component ids).
    """

    basis: str
    coeffs: dict
    points: tuple

    def nodes(self):
        """Cluster nodes the package compiles the points into."""
        total = 0
        for p in self.points:
            if p[1] == "cluster":
                total += len(p[2])
            else:
                total += {"tacnode": 2, "tacnode_curve": 2, "cusp": 3}.get(p[2], 1)
        return total


def _coeff(rng):
    return Fraction(rng.randint(1, 9), rng.randint(2, 9))


def _plane_components(coeffs):
    return [
        {"id": cid, "class": [40 + i], "coeff": str(d)}
        for i, (cid, d) in enumerate(coeffs.items())
    ]


def _text(obj):
    return json.dumps(obj, sort_keys=True)


def germ_config(rng):
    """One to three catalogued germs on two or three plane curves."""
    comps = [f"C{i}" for i in range(rng.randint(2, 3))]
    coeffs = {c: _coeff(rng) for c in comps}
    points, spec_points = [], []
    for n in range(rng.randint(1, 3)):
        kind, (lo, hi) = rng.choice(GERMS)
        branches = rng.randint(lo, hi)
        assign = {b: rng.choice(comps) for b in range(branches)}
        germ = kind if kind in _FIXED_BRANCHES else f"{kind}({branches})"
        points.append({
            "id": f"p{n}",
            "germ": germ,
            "incident": [{"component": assign[b], "branch": b} for b in range(branches)],
        })
        spec_points.append((f"p{n}", "germ", kind, branches, assign))
    obj = {"surface": {"degree": 9, "basis": "blowup"},
           "components": _plane_components(coeffs), "points": points}
    return _text(obj), Spec("blowup", coeffs, tuple(spec_points))


def random_cluster_nodes(rng, comps, max_nodes):
    """A valid weighted cluster: tree, proximities, proximity inequality.

    Node i > 0 picks an earlier parent and, sometimes, one satellite
    proximity to a point its parent is proximate to (each corner used
    once).  Multiplicities are filled from the leaves up so every point
    carries at least the multiplicities of the points proximate to it.
    """
    n = rng.randint(1, max_nodes)
    tree = [(None, ())]
    corners = set()
    for i in range(1, n):
        parent = rng.randrange(i)
        prox = [parent]
        free = [a for a in tree[parent][1] if (parent, a) not in corners]
        if free and rng.random() < 0.45:
            extra = rng.choice(free)
            prox.append(extra)
            corners.add((parent, extra))
        tree.append((parent, tuple(prox)))
    mults = {}
    for comp in comps:
        vals = [0] * n
        for i in range(n - 1, -1, -1):
            need = sum(vals[j] for j in range(i + 1, n) if i in tree[j][1])
            vals[i] = need + rng.choice((0, 0, 1, 1, 2))
        vals[0] = max(vals[0], 1)
        mults[comp] = vals
    return tuple(
        (f"n{i}", None if parent is None else f"n{parent}",
         tuple(f"n{a}" for a in prox),
         {c: mults[c][i] for c in comps if mults[c][i]})
        for i, (parent, prox) in enumerate(tree)
    )


def _cluster_point(pid, nodes):
    return {"id": pid, "germ": {"nodes": [
        {"id": nid, "parent": parent, "proximate_to": list(prox), "mults": mults}
        for nid, parent, prox, mults in nodes
    ]}}


def explicit_config(rng):
    """One or two explicit random clusters of up to eight points."""
    comps = [f"C{i}" for i in range(rng.randint(1, 3))]
    coeffs = {c: _coeff(rng) for c in comps}
    points, spec_points = [], []
    for n in range(rng.randint(1, 2)):
        nodes = random_cluster_nodes(rng, comps, 8)
        points.append(_cluster_point(f"p{n}", nodes))
        spec_points.append((f"p{n}", "cluster", nodes, tuple(comps)))
    obj = {"surface": {"degree": 9, "basis": "blowup"},
           "components": _plane_components(coeffs), "points": points}
    return _text(obj), Spec("blowup", coeffs, tuple(spec_points))


def chain_config(rng, length):
    """A free chain: A smooth through every point, B through a prefix."""
    prefix = rng.randint(length // 4, length)
    nodes = tuple(
        (f"n{i}", None if i == 0 else f"n{i - 1}", () if i == 0 else (f"n{i - 1}",),
         {"A": 1, "B": 1} if i < prefix else {"A": 1})
        for i in range(length)
    )
    coeffs = {"A": _coeff(rng), "B": _coeff(rng)}
    obj = {"surface": {"degree": 9, "basis": "blowup"},
           "components": _plane_components(coeffs),
           "points": [_cluster_point("p0", nodes)]}
    return _text(obj), Spec("blowup", coeffs, (("p0", "cluster", nodes, ("A", "B")),))


def witness_spec(text):
    """Spec of a catalogued-germ witness file, read with the stdlib only."""
    obj = json.loads(text)
    coeffs = {c["id"]: Fraction(c["coeff"]) for c in obj["components"]}
    points = []
    for p in obj.get("points", []):
        m = _GERM_RE.match(p["germ"])
        kind = m.group(1)
        branches = _FIXED_BRANCHES.get(kind) or int(m.group(2))
        assign = {inc["branch"]: inc["component"] for inc in p["incident"]}
        points.append((p["id"], "germ", kind, branches, assign))
    return Spec(obj["surface"].get("basis", "blowup"), coeffs, tuple(points))


def oracle_lct(coeffs, tables):
    """min(1/d over components, (k+1)/v over exceptional divisors).

    ``tables`` holds one (valuations, discrepancies) pair per point, as
    the step-by-step blow-up simulator returns them.  None means no
    constraint is active (threshold +infinity).
    """
    best = None
    for d in coeffs.values():
        if d > 0 and (best is None or 1 / d < best):
            best = 1 / d
    for vals, discs in tables:
        for node, k in discs.items():
            v = sum((coeffs[c] * vals[c][node] for c in vals), Fraction(0))
            if v > 0 and (best is None or (k + 1) / v < best):
                best = (k + 1) / v
    return best


def lambda_grid(rng, size):
    return [Fraction(rng.randint(1, 24), rng.randint(2, 24)) for _ in range(size)]
