"""Exact Picard-lattice arithmetic for del Pezzo surfaces.

A surface is presented by an integer basis of its divisor class lattice:
either the blow-up basis (H, E_1, ..., E_r) of a plane model, with
intersection form diag(1, -1, ..., -1) and canonical class
K = -3H + E_1 + ... + E_r, or the two-ruling basis (f_1, f_2) of a smooth
quadric with form [[0, 1], [1, 0]] and K = (-2, -2).

Everything is exact: classes are integer vectors, pairings are integers,
genera are `fractions.Fraction` values.  All values are immutable and every
operation is a pure function, so the module is safe for concurrent use.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Sequence

BLOWUP = "blowup"
QUADRIC = "quadric"


class LatticeError(ValueError):
    """Invalid surface parameters or mismatched lattice operands."""


@dataclass(frozen=True)
class SurfaceModel:
    """A rational surface presented by a basis of its divisor lattice.

    ``degree`` is the self-intersection of the canonical class.  Del Pezzo
    surfaces have degree 1..9; degree 0 is additionally admitted so that a
    degree-1 surface can still be blown up (``blow_up``), which the
    resolution engine needs.  Use :func:`make_surface` for user input.
    """

    degree: int
    basis_kind: str = BLOWUP

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            raise LatticeError(f"degree {self.degree!r} is not an integer")
        if self.basis_kind == QUADRIC:
            if self.degree != 8:
                raise LatticeError("quadric basis requires degree 8")
        elif self.basis_kind == BLOWUP:
            if not 0 <= self.degree <= 9:
                raise LatticeError(f"degree must be in 0..9, got {self.degree}")
        else:
            raise LatticeError(f"unknown basis kind {self.basis_kind!r}")

    @cached_property
    def rank(self) -> int:
        return 2 if self.basis_kind == QUADRIC else 10 - self.degree

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        if self.basis_kind == QUADRIC:
            return ((0, 1), (1, 0))
        n = self.rank
        return tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
            for i in range(n)
        )

    @cached_property
    def canonical(self) -> "DivisorClass":
        if self.basis_kind == QUADRIC:
            return DivisorClass(self, (-2, -2))
        return DivisorClass(self, (-3,) + (1,) * (self.rank - 1))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def basis_class(self, index: int) -> "DivisorClass":
        coeffs = [0] * self.rank
        coeffs[index] = 1
        return DivisorClass(self, tuple(coeffs))

    def pairing(self, a: Sequence[int], b: Sequence[int]) -> int:
        if self.basis_kind == QUADRIC:
            return a[0] * b[1] + a[1] * b[0]
        return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))

    def blow_up(self) -> "SurfaceModel":
        """The lattice of the blow-up at one point: one more E column."""
        if self.basis_kind != BLOWUP:
            raise LatticeError("only blow-up basis surfaces can be blown up")
        if self.degree == 0:
            raise LatticeError("refusing to blow up below degree 0")
        return SurfaceModel(self.degree - 1, BLOWUP)


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """An integer divisor class in the basis carried by ``surface``."""

    surface: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise LatticeError(f"class coefficient {c!r} is not an integer")
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.surface.rank:
            raise LatticeError(
                f"expected {self.surface.rank} coefficients, got {len(coeffs)}"
            )

    @classmethod
    def _derived_many(
        cls, surface: SurfaceModel, vectors: list[tuple[int, ...]]
    ) -> list["DivisorClass"]:
        """The class of each vector, each already an ``int`` tuple of length ``surface.rank``.

        The enumerators produce such tuples by construction, so the checks of
        the public constructor are not run again.  The classes are allocated
        and their two slots filled through the slot descriptors, in loops that
        make no Python function call per class.
        """
        classes = list(map(object.__new__, itertools.repeat(cls, len(vectors))))
        deque(map(cls.surface.__set__, classes, itertools.repeat(surface)), maxlen=0)
        deque(map(cls.coeffs.__set__, classes, vectors), maxlen=0)
        return classes

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface != other.surface:
            raise LatticeError("classes live on different surface models")

    def dot(self, other: "DivisorClass") -> int:
        self._require_same_surface(other)
        return self.surface.pairing(self.coeffs, other.coeffs)

    @property
    def self_intersection(self) -> int:
        return self.dot(self)

    @property
    def degree(self) -> int:
        """Anticanonical degree -K.C."""
        return -self.surface.canonical.dot(self)

    @property
    def genus(self) -> Fraction:
        """Arithmetic genus 1 + (C.C + K.C)/2; rational for odd parities."""
        k_dot = self.surface.canonical.dot(self)
        return 1 + Fraction(self.self_intersection + k_dot, 2)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(
            self.surface, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(
            self.surface, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if type(scalar) is bool or not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(self.surface, tuple(scalar * a for a in self.coeffs))

    def __repr__(self) -> str:
        return f"DivisorClass{self.coeffs}"


def make_surface(degree: int, basis_kind: str = BLOWUP) -> SurfaceModel:
    """Construct a del Pezzo surface model; degree 1..9, quadric only at 8."""
    if type(degree) is not int or not 1 <= degree <= 9:
        raise LatticeError(f"degree must be an integer in 1..9, got {degree!r}")
    return SurfaceModel(degree, basis_kind)


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    return a.dot(b)


def degree_of(c: DivisorClass) -> int:
    return c.degree


def arithmetic_genus(c: DivisorClass) -> Fraction:
    return c.genus


def _vectors_with_sum_and_square(
    r: int, total: int, square: int, head: tuple[int, ...] = ()
) -> list[tuple[int, ...]]:
    """``head`` + each integer vector of length r with given sum and sum of squares.

    Depth-first search that enters only branches the real relaxation can
    complete.  With ``left`` coordinates still to place, sum s and square q
    left, a value c leaves the other left - 1 coordinates Cauchy-Schwarz
    feasible, (s - c)^2 <= (left - 1)(q - c^2), exactly when
    (left*c - s)^2 <= D = (left - 1)(left*q - s^2), so c runs over
    [ceil((s - isqrt(D))/left), floor((s + isqrt(D))/left)].  The last two
    coordinates are solved directly, in the loop over the third-last one:
    c1 + c2 = s and (c1 - c2)^2 = 2q - s^2, which is >= 0 for every c of
    that loop.  The last four coordinates depend on the prefix only through
    its (sum, square) remainder, so each remainder's tails are searched
    once, kept in a dict local to the call, and appended to every prefix
    that leaves it.  Each level's c ascends and a pair emits (small, big)
    before (big, small), so the output is duplicate-free and sorted
    lexicographically without a sorting pass.
    """
    if r == 0:
        return [head] if total == square == 0 else []
    if r == 1:
        return [head + (total,)] if total * total == square else []
    if r == 2:
        e = 2 * square - total * total
        t = isqrt(max(e, 0))
        if t * t != e:
            return []
        small, big = (total - t) // 2, (total + t) // 2  # t and total have one parity
        return [head + (small, big), head + (big, small)] if t else [head + (small, big)]
    out: list[tuple[int, ...]] = []
    tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def rec(prefix: tuple[int, ...], left: int, s: int, q: int, append) -> None:
        disc = (left - 1) * (left * q - s * s)
        if disc < 0:
            return
        t = isqrt(disc)
        cs = range(-((t - s) // left), (s + t) // left + 1)
        if left == 3:
            for c in cs:
                s2 = s - c
                e = 2 * (q - c * c) - s2 * s2
                u = isqrt(e)
                if u * u == e:
                    small, big = (s2 - u) // 2, (s2 + u) // 2
                    append(prefix + (c, small, big))
                    if u:
                        append(prefix + (c, big, small))
        elif left == 5:  # reached only by the search for ``out``, never for a tail
            for c in cs:
                key = (s - c, q - c * c)
                ends = tails.get(key)
                if ends is None:
                    ends = tails[key] = []
                    rec((), 4, *key, ends.append)
                p = prefix + (c,)
                out.extend([p + end for end in ends])
        else:
            for c in cs:
                rec(prefix + (c,), left - 1, s - c, q - c * c, append)

    rec(head, r, total, square, out.append)
    return out


def _require_finite_class_sets(surface: SurfaceModel) -> None:
    if surface.degree == 0:
        raise LatticeError(
            "K^2 = 0: the classes of a given degree and self-intersection are not a finite set"
        )


def _blowup_classes(surface: SurfaceModel, deg: int, self_int: int) -> list[DivisorClass]:
    """The classes (a, c_1, ..., c_r) in lexicographic order."""
    r = surface.rank - 1
    d = surface.degree  # = 9 - r
    # Finiteness bound.  The constraints read
    #   3a + sum(c_i) = deg   and   a^2 - sum(c_i^2) = self_int.
    # Cauchy-Schwarz gives (sum c_i)^2 <= r * sum(c_i^2), i.e.
    #   d*a^2 - 6*deg*a + deg^2 + r*self_int <= 0,
    # a quadratic inequality with positive leading coefficient d = K^2, so
    # (2*d*a - 6*deg)^2 <= disc and `a` ranges over a finite interval.
    disc = 36 * deg * deg - 4 * d * (deg * deg + r * self_int)
    if disc < 0:
        return []
    sq = isqrt(disc)
    vectors: list[tuple[int, ...]] = []
    for a in range(-((sq - 6 * deg) // (2 * d)), (6 * deg + sq) // (2 * d) + 1):
        vectors += _vectors_with_sum_and_square(r, deg - 3 * a, a * a - self_int, (a,))
    return DivisorClass._derived_many(surface, vectors)


def _quadric_classes(surface: SurfaceModel, deg: int, self_int: int) -> list[DivisorClass]:
    # deg = 2(c_1 + c_2) and self = 2 c_1 c_2: solve the symmetric system.
    if deg % 2 or self_int % 2:
        return []
    s, p = deg // 2, self_int // 2
    disc = s * s - 4 * p
    if disc < 0:
        return []
    t = isqrt(disc)
    if t * t != disc or (s + t) % 2:
        return []
    c1 = (s + t) // 2
    sols = {(c1, s - c1), (s - c1, c1)}
    return DivisorClass._derived_many(surface, sorted(sols))


def enumerate_classes(surface: SurfaceModel, deg: int, self_int: int) -> list[DivisorClass]:
    """All classes with -K.c = deg, c.c = self_int and arithmetic genus 0.

    The genus condition is determined by (deg, self_int); incompatible pairs
    yield an empty list.  Output is duplicate-free and sorted
    lexicographically on coefficient vectors (the canonical order).
    """
    for name, value in (("anticanonical degree", deg), ("self-intersection", self_int)):
        if type(value) is not int:
            raise LatticeError(f"{name} {value!r} is not an integer")
    if deg < 1:
        raise LatticeError(f"anticanonical degree must be >= 1, got {deg}")
    if 2 + self_int - deg != 0:  # p_a = 1 + (self_int - deg)/2
        return []
    _require_finite_class_sets(surface)
    if surface.basis_kind == QUADRIC:
        return _quadric_classes(surface, deg, self_int)
    return _blowup_classes(surface, deg, self_int)


def line_intersection_matrix(surface: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """Pairwise intersection numbers of the (-1)-classes, canonical order."""
    if surface.basis_kind != BLOWUP or surface.degree > 7:
        raise LatticeError("line intersection matrix requires blow-up basis of degree <= 7")
    lines = enumerate_classes(surface, 1, -1)
    return tuple(tuple(a.dot(b) for b in lines) for a in lines)


def _matmul(a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _matvec(m: tuple[tuple[int, ...], ...], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


@dataclass(frozen=True)
class LatticeIsometry:
    """An integer lattice map preserving the form and fixing K.

    The matrix acts on coefficient column vectors.  Construction verifies
    M^T G M = G and M.K = K exactly.
    """

    surface: SurfaceModel
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = tuple(tuple(row) for row in self.matrix)
        for row in m:
            for x in row:
                if type(x) is not int:
                    raise LatticeError(f"isometry matrix entry {x!r} is not an integer")
        object.__setattr__(self, "matrix", m)
        n = self.surface.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise LatticeError("isometry matrix size does not match lattice rank")
        gram = self.surface.gram
        mt = tuple(zip(*m))
        if _matmul(_matmul(mt, gram), m) != gram:
            raise LatticeError("matrix does not preserve the intersection form")
        k = self.surface.canonical.coeffs
        if _matvec(m, k) != k:
            raise LatticeError("matrix does not fix the canonical class")

    def apply(self, c: DivisorClass) -> DivisorClass:
        if c.surface != self.surface:
            raise LatticeError("class does not live on the isometry's surface")
        return DivisorClass(self.surface, _matvec(self.matrix, c.coeffs))

    def compose(self, other: "LatticeIsometry") -> "LatticeIsometry":
        """self after other (matrix product self.matrix @ other.matrix)."""
        if other.surface != self.surface:
            raise LatticeError("isometries live on different surfaces")
        return LatticeIsometry(self.surface, _matmul(self.matrix, other.matrix))

    @classmethod
    def identity(cls, surface: SurfaceModel) -> "LatticeIsometry":
        return cls(surface, _word_matrix(surface, ()))

    @classmethod
    def reflection(cls, surface: SurfaceModel, root: Sequence[int]) -> "LatticeIsometry":
        """Reflection c -> c + (c.v) v in a (-2)-root v orthogonal to K."""
        support = _support(surface, DivisorClass(surface, root).coeffs)
        return cls(surface, _word_matrix(surface, (support,)))

    @classmethod
    def cremona(cls, surface: SurfaceModel, i: int, j: int, k: int) -> "LatticeIsometry":
        """Reflection in v = H - E_i - E_j - E_k (a (-2)-vector): c -> c + (c.v) v."""
        if surface.basis_kind != BLOWUP:
            raise LatticeError("Cremona reflections act on blow-up bases only")
        n = surface.rank
        if len({i, j, k}) != 3 or not all(1 <= t <= n - 1 for t in (i, j, k)):
            raise LatticeError("Cremona indices must be three distinct E-indices")
        return cls.reflection(surface, _cremona_root(n, i, j, k))


def _cremona_root(n: int, i: int, j: int, k: int) -> tuple[int, ...]:
    """H - E_i - E_j - E_k in a blow-up basis of rank n."""
    v = [0] * n
    v[0] = 1
    v[i] = v[j] = v[k] = -1
    return tuple(v)


def _support(surface: SurfaceModel, root: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Reflection in ``root`` v as the triples (i, v_i, (Gv)_i) where v or Gv is non-zero.

    A generator root has 2 or 4 non-zero entries, so pairing with v and
    adding a multiple of v touch only these indices.
    """
    gv = _matvec(surface.gram, root)
    return tuple((i, x, y) for i, (x, y) in enumerate(zip(root, gv)) if x or y)


def _reflect(c: tuple[int, ...], support: tuple[tuple[int, int, int], ...]) -> tuple[int, ...]:
    """c + (c.v) v for a (-2)-root v given by its ``_support``."""
    t = 0
    for i, _, w in support:
        t += c[i] * w
    if not t:
        return c
    image = list(c)
    for i, x, _ in support:
        image[i] += t * x
    return tuple(image)


def _word_matrix(surface: SurfaceModel, word) -> tuple[tuple[int, ...], ...]:
    """Matrix of the reflections in ``word`` (supports), the first one applied first."""
    n = surface.rank
    cols = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for support in word:
        cols = [_reflect(col, support) for col in cols]
    return tuple(zip(*cols))


@lru_cache(maxsize=None)
def _generator_roots(surface: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """The (-2)-roots E_a - E_b, then H - E_a - E_b - E_c, in combinations order.

    Reflections in these generate every form-preserving, K-fixing isometry
    of the blow-up lattice (the Weyl group of the orthogonal complement of K).
    """
    n = surface.rank
    roots = []
    for a, b in itertools.combinations(range(1, n), 2):
        v = [0] * n
        v[a], v[b] = 1, -1
        roots.append(tuple(v))
    for a, b, c in itertools.combinations(range(1, n), 3):
        roots.append(_cremona_root(n, a, b, c))
    return tuple(roots)


@lru_cache(maxsize=None)
def _generator_supports(surface: SurfaceModel) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``_support`` of each of ``_generator_roots``, in the same order."""
    return tuple(_support(surface, root) for root in _generator_roots(surface))


def _word(parents: dict, state) -> list[int]:
    """Root indices leading from the search start to ``state``."""
    word = []
    while parents[state] is not None:
        state, index = parents[state]
        word.append(index)
    word.reverse()
    return word


def find_model_isometry(
    surface: SurfaceModel,
    targets: Sequence[tuple[DivisorClass, DivisorClass]],
    max_states: int = 500_000,
) -> LatticeIsometry:
    """A K-fixing lattice isometry sending each source class to its target.

    Searches the orbit of the source tuple under the root reflections
    breadth-first, so the returned word is shortest; only the goal's word
    is turned into a matrix.  Raises LatticeError when the pairing
    invariants already rule an isometry out, when the (finite) orbit is
    exhausted without a hit, or when more than ``max_states`` states are
    explored.
    """
    if surface.basis_kind != BLOWUP:
        raise LatticeError("model isometries are only defined for blow-up bases")
    sources = tuple(src for src, _ in targets)
    goals = tuple(dst for _, dst in targets)
    for c in itertools.chain(sources, goals):
        if c.surface != surface:
            raise LatticeError("target classes live on a different surface")
    for (s1, g1), (s2, g2) in itertools.product(targets, repeat=2):
        if s1.dot(s2) != g1.dot(g2):
            raise LatticeError(
                "no isometry exists: intersection numbers are invariants "
                f"({s1.coeffs}.{s2.coeffs} = {s1.dot(s2)} but "
                f"{g1.coeffs}.{g2.coeffs} = {g1.dot(g2)})"
            )
    for s, g in targets:
        if s.degree != g.degree:
            raise LatticeError("no isometry exists: anticanonical degree is an invariant")

    # States hold doubled coefficients.  CPython hashes -1 like -2, and
    # the classes searched are mostly -1 and -2 entries, so undoubled states
    # collide by the hundreds in ``parents``; reflections are linear, so
    # doubling changes neither the orbit nor the BFS order.
    start = tuple(tuple(2 * x for x in c.coeffs) for c in sources)
    goal = tuple(tuple(2 * x for x in c.coeffs) for c in goals)
    if start == goal:
        return LatticeIsometry.identity(surface)
    supports = _generator_supports(surface)
    parents: dict = {start: None}  # state -> (parent state, root index)
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for index, support in enumerate(supports):
            new_state = tuple([_reflect(vec, support) for vec in state])
            if new_state in parents:
                continue
            if new_state == goal:
                word = _word(parents, state) + [index]
                return LatticeIsometry(surface, _word_matrix(surface, (supports[i] for i in word)))
            parents[new_state] = (state, index)
            queue.append(new_state)
            if len(parents) > max_states:
                raise LatticeError(
                    f"isometry search exceeded max_states={max_states}: "
                    f"{len(parents)} states explored, BFS depth "
                    f"{len(_word(parents, new_state))} reached"
                )
    raise LatticeError("no isometry maps the given sources to the given targets")


def apply_isometry(m: LatticeIsometry, c: DivisorClass) -> DivisorClass:
    return m.apply(c)
