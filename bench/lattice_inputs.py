"""Benchmark-side lattice arithmetic: line orbits, BFS distances, checks.

Nothing here imports the package.  Lines and disjoint line pairs are
generated as orbits of E_1 and (E_1, E_2) under the reflections in the
(-2)-roots E_i - E_j and H - E_i - E_j - E_k, taken in the same order as
the package's generator list.  The breadth-first distance from the goal
stratifies the search inputs: the package's isometry search explores
every state closer than its goal, so a seed that drew only deep (or only
shallow) inputs would measure a different workload.
"""

from __future__ import annotations

import itertools
from collections import deque


def pairing(x, y):
    """Blow-up form diag(1, -1, ..., -1)."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def anticanonical_degree(c):
    """-K.c with K = -3H + sum E_i."""
    return 3 * c[0] + sum(c[1:])


def roots(r):
    """Transposition roots, then Cremona roots, in combinations order."""
    out = []
    for a, b in itertools.combinations(range(1, r + 1), 2):
        v = [0] * (r + 1)
        v[a], v[b] = 1, -1
        out.append(tuple(v))
    for a, b, c in itertools.combinations(range(1, r + 1), 3):
        v = [0] * (r + 1)
        v[0] = 1
        v[a] = v[b] = v[c] = -1
        out.append(tuple(v))
    return out


def _reflect(c, v):
    t = pairing(c, v)
    return tuple(ci + t * vi for ci, vi in zip(c, v)) if t else c


def basis(r, i):
    return tuple(int(j == i) for j in range(r + 1))


def orbit_distances(start, r):
    """BFS over the orbit of a tuple of classes: state -> distance."""
    gens = roots(r)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for v in gens:
            nxt = tuple(_reflect(c, v) for c in state)
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist


_GOLDEN = (5 ** 0.5 - 1) / 2


def stratified_picks(start, r, rng, count, max_distance=None):
    """``count`` orbit states whose distances follow the orbit's own mix.

    The orbit (without ``start``, and cut at ``max_distance`` if given) is
    sorted by distance, ties in seeded random order, and read at the points
    of a golden-ratio sequence with a seeded offset.  Every prefix of the
    picks then holds each distance in close to its share of the orbit,
    while the states themselves change with the seed.
    """
    dist = orbit_distances(start, r)
    keys = {state: rng.random() for state in sorted(dist)}
    limit = max_distance or max(dist.values())
    ordered = sorted((s for s in dist if 0 < dist[s] <= limit), key=lambda s: (dist[s], keys[s]))
    offset = rng.random()
    n = len(ordered)
    return [ordered[int(((offset + j * _GOLDEN) % 1.0) * n)] for j in range(count)]


def matvec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def is_isometry(m, r):
    """M^T G M = G and M K = K, by direct evaluation on basis vectors."""
    cols = [tuple(row[j] for row in m) for j in range(r + 1)]
    for i in range(r + 1):
        for j in range(r + 1):
            if pairing(cols[i], cols[j]) != pairing(basis(r, i), basis(r, j)):
                return False
    k = (-3,) + (1,) * r
    return matvec(m, k) == k
