"""Tests for surface models, divisor classes, enumeration and isometries."""

import dataclasses
import hashlib
import itertools
import pickle
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo_lct import (
    QUADRIC,
    DivisorClass,
    LatticeError,
    LatticeIsometry,
    apply_isometry,
    arithmetic_genus,
    brute_force_classes,
    degree_of,
    enumerate_classes,
    find_model_isometry,
    intersect,
    line_intersection_matrix,
    make_surface,
)
from delpezzo_lct.glct import class_A, class_C0, class_E, class_H, class_L, class_Q
from delpezzo_lct.lattice import SurfaceModel, _vectors_with_sum_and_square


def test_make_surface_blowup_degree4():
    s = make_surface(4)
    assert s.rank == 6
    assert s.canonical.coeffs == (-3, 1, 1, 1, 1, 1)
    assert s.canonical.dot(s.canonical) == 4


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SurfaceModel(10), "degree must be in 0..9, got 10"),
        (lambda: SurfaceModel(4, "cubic"), "unknown basis kind 'cubic'"),
        (lambda: SurfaceModel(0).blow_up(), "refusing to blow up below degree 0"),
        (lambda: class_E(make_surface(4), 1) + class_E(make_surface(5), 1),
         "classes live on different surface models"),
    ],
    ids=["degree_10", "basis_kind", "blow_up_degree_0", "add_across_surfaces"],
)
def test_surface_and_class_errors(build, message):
    with pytest.raises(LatticeError) as err:
        build()
    assert str(err.value) == message


def test_class_addition():
    s = make_surface(4)
    assert (class_E(s, 1) + class_L(s, 1, 2)).coeffs == (1, 0, -1, 0, 0, 0)


def test_make_surface_p2():
    s = make_surface(9)
    assert s.rank == 1
    assert s.canonical.coeffs == (-3,)
    assert s.canonical.dot(s.canonical) == 9


def test_make_surface_quadric():
    q = make_surface(8, QUADRIC)
    assert q.rank == 2
    assert q.gram == ((0, 1), (1, 0))
    assert q.canonical.coeffs == (-2, -2)
    assert q.canonical.dot(q.canonical) == 8


@pytest.mark.parametrize("degree", [0, 10, -3])
def test_make_surface_rejects_bad_degree(degree):
    with pytest.raises(LatticeError):
        make_surface(degree)


def test_quadric_needs_degree_8():
    with pytest.raises(LatticeError):
        make_surface(4, QUADRIC)


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2)])
def test_surface_degree_must_be_an_int(bad):
    # True == 1 and 2.0 == 2, so a range check alone lets them through.
    with pytest.raises(LatticeError, match=re.escape(f"got {bad!r}")):
        make_surface(bad)
    with pytest.raises(LatticeError, match=re.escape(f"degree {bad!r} is not an integer")):
        SurfaceModel(bad)


@pytest.mark.parametrize("bad", [Fraction(7, 2), 1.9, Fraction(2), 2.0, True])
def test_divisor_class_rejects_non_integer_coefficients(bad):
    # int() would truncate 7/2 to 3 and 1.9 to 1 and accept True as 1.
    s = make_surface(4)
    with pytest.raises(LatticeError, match=re.escape(f"coefficient {bad!r} is not an integer")):
        DivisorClass(s, (0, bad, 0, 0, 0, 0))
    assert DivisorClass(s, [0, 1, 0, 0, 0, 0]).coeffs == (0, 1, 0, 0, 0, 0)


def test_divisor_class_is_slotted_and_frozen():
    c = DivisorClass(make_surface(4), (1, -1, -1, 0, 0, 0))
    assert not hasattr(c, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.coeffs = (0, 1, 0, 0, 0, 0)
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and hash(copy) == hash(c) and copy.coeffs == c.coeffs


def test_intersect_examples():
    s = make_surface(4)
    assert intersect(class_L(s, 1, 2), class_E(s, 1)) == 1
    assert intersect(class_L(s, 1, 2), class_E(s, 2)) == 1
    assert intersect(class_C0(s), class_C0(s)) == -1
    assert intersect(class_H(s), class_H(s)) == 1


def test_intersect_rejects_mixed_surfaces():
    a = class_E(make_surface(4), 1)
    b = class_E(make_surface(5), 1)
    with pytest.raises(LatticeError):
        intersect(a, b)


def test_degree_of_examples():
    s = make_surface(4)
    assert degree_of(class_E(s, 1)) == 1
    assert degree_of(class_Q(s, 1)) == 3
    assert class_Q(s, 1).coeffs == (3, -2, -1, -1, -1, -1)
    assert degree_of(s.zero()) == 0


def test_arithmetic_genus_examples():
    s4 = make_surface(4)
    assert arithmetic_genus(class_C0(s4)) == 0
    p2 = make_surface(9)
    h = class_H(p2)
    assert arithmetic_genus(h) == 0
    assert arithmetic_genus(2 * h) == 0
    assert arithmetic_genus(3 * h) == 1
    assert arithmetic_genus(4 * h) == 3


def test_a_class_scales_by_integers_only():
    h = class_H(make_surface(9))
    assert (2 * h).coeffs == (2,)
    with pytest.raises(TypeError):
        Fraction(1, 2) * h
    with pytest.raises(TypeError):
        True * h


def test_enumerate_deg4_lines_composition():
    s = make_surface(4)
    lines = enumerate_classes(s, 1, -1)
    assert len(lines) == 16
    exceptional = [c for c in lines if c.coeffs[0] == 0]
    between = [c for c in lines if c.coeffs[0] == 1]
    conic_like = [c for c in lines if c.coeffs[0] == 2]
    assert (len(exceptional), len(between), len(conic_like)) == (5, 10, 1)
    assert conic_like[0] == class_C0(s)


def test_enumerate_deg4_conics_and_cubics():
    s = make_surface(4)
    conics = enumerate_classes(s, 2, 0)
    assert len(conics) == 10
    assert class_A(s, 1) in conics
    cubics = enumerate_classes(s, 3, 1)
    assert len(cubics) == 16
    assert class_H(s) in cubics
    assert class_Q(s, 2) in cubics


def test_enumerate_is_sorted_and_duplicate_free():
    s = make_surface(3)
    lines = enumerate_classes(s, 1, -1)
    coeffs = [c.coeffs for c in lines]
    assert coeffs == sorted(coeffs)
    assert len(set(coeffs)) == len(coeffs)


def test_enumerate_canonical_order_is_golden():
    # lexicographic on coefficient vectors; frozen so reports never reorder
    s = make_surface(4)
    lines = [c.coeffs for c in enumerate_classes(s, 1, -1)]
    assert lines[:6] == [
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (1, -1, -1, 0, 0, 0),
    ]
    assert lines[-1] == (2, -1, -1, -1, -1, -1)


@pytest.mark.parametrize("degree", range(1, 8))
def test_line_matrix_is_symmetric_with_minus_one_diagonal(degree):
    matrix = line_intersection_matrix(make_surface(degree))
    n = len(matrix)
    for i in range(n):
        assert matrix[i][i] == -1
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]


def test_enumerate_line_counts_all_degrees():
    expected = {9: 0, 8: 1, 7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}
    for degree, count in expected.items():
        assert len(enumerate_classes(make_surface(degree), 1, -1)) == count


def test_enumerate_invariants_hold_on_every_class():
    s = make_surface(2)
    for deg, self_int in [(1, -1), (2, 0), (3, 1)]:
        for c in enumerate_classes(s, deg, self_int):
            assert degree_of(c) == deg
            assert c.dot(c) == self_int
            assert arithmetic_genus(c) == 0


def test_enumerate_rejects_nonpositive_degree():
    with pytest.raises(LatticeError):
        enumerate_classes(make_surface(4), 0, -2)


@pytest.mark.parametrize(
    "deg,self_int,message",
    [
        (2.0, 0, "anticanonical degree 2.0 is not an integer"),
        (True, -1, "anticanonical degree True is not an integer"),
        (Fraction(1), -1, "anticanonical degree Fraction(1, 1) is not an integer"),
        (1, -1.0, "self-intersection -1.0 is not an integer"),
        (2, False, "self-intersection False is not an integer"),
    ],
    ids=["deg_float", "deg_bool", "deg_fraction", "self_float", "self_bool"],
)
def test_enumerate_rejects_non_int_queries(deg, self_int, message):
    # (True, -1) would otherwise list the 27 lines, and 2.0 reach isqrt.
    with pytest.raises(LatticeError) as err:
        enumerate_classes(make_surface(3), deg, self_int)
    assert str(err.value) == message


def test_enumerate_genus_filter_empties_mismatched_pairs():
    # p_a = 0 forces self = deg - 2.
    assert enumerate_classes(make_surface(4), 1, 0) == []
    assert enumerate_classes(make_surface(4), 2, -1) == []


def test_quadric_enumeration():
    q = make_surface(8, QUADRIC)
    assert enumerate_classes(q, 1, -1) == []
    rulings = enumerate_classes(q, 2, 0)
    assert [c.coeffs for c in rulings] == [(0, 1), (1, 0)]


@pytest.mark.parametrize(
    "degree,deg,self_int,count,digest",
    [
        (1, 1, -1, 240, "d834de0eecd9b171838a540700b2430d2f1a193fe12d5de517fa634aa4cac50c"),
        (1, 2, 0, 2160, "89346c42f6c5c5b82cbc70805b5c235e5357750b2377f89d1dca6796f4353d7f"),
        (1, 3, 1, 17520, "62aa676f171698439097406c5d39dbad6c1ebf9932eaf44a05d4868c9c28d26d"),
        (1, 4, 2, 82560, "2f46f38f201a6ea22b45ffc6a89304e42ff23a914bcc410b7a85c251b16ab57e"),
        (2, 6, 4, 16704, "b5567f38a563efadedc710d7f434e4165bb1ae7a82102c65bd850939dbc87fea"),
    ],
)
def test_enumerate_large_rows_are_pinned(degree, deg, self_int, count, digest):
    # sha256 of the coefficient list in canonical order, frozen so that a
    # faster enumerator must return the same classes in the same order.
    classes = enumerate_classes(make_surface(degree), deg, self_int)
    assert len(classes) == count
    coeffs = repr([c.coeffs for c in classes]).encode()
    assert hashlib.sha256(coeffs).hexdigest() == digest


@pytest.mark.parametrize("r", range(9))
def test_vectors_with_sum_and_square_match_brute_force(r):
    # From r = 5 on the search shares the tails of the last four coordinates;
    # squares up to 6 keep those grids at 5^r points.
    max_square = 12 if r < 5 else 6
    bound = isqrt(max_square)
    expected = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        expected.setdefault((sum(v), sum(x * x for x in v)), []).append(v)
    for square in range(-1, max_square + 1):
        for total in range(-6, 7):
            assert _vectors_with_sum_and_square(r, total, square) == expected.get(
                (total, square), []
            ), (r, total, square)


@pytest.mark.parametrize("head", [(7,), (0, -2)])
@pytest.mark.parametrize("r", range(9))
def test_vectors_with_sum_and_square_prepend_head(r, head):
    for square in range(-1, 13):
        for total in range(-6, 7):
            plain = _vectors_with_sum_and_square(r, total, square)
            assert _vectors_with_sum_and_square(r, total, square, head) == [head + v for v in plain]


def test_enumerated_classes_pass_the_checking_constructor():
    # Enumerators build their classes unchecked; each one must be what the
    # public constructor would build from the same data.
    seen = 0
    for surface in [make_surface(d) for d in range(1, 10)] + [make_surface(8, QUADRIC)]:
        for deg, self_int in itertools.product(range(1, 5), range(-3, 8)):
            for c in enumerate_classes(surface, deg, self_int):
                assert type(c.coeffs) is tuple
                assert len(c.coeffs) == surface.rank
                assert all(type(x) is int for x in c.coeffs)
                assert c == DivisorClass(c.surface, c.coeffs)
                seen += 1
    assert seen > 82560 + 17520  # the two largest rows, degree-1 (4,2) and (3,1)


@settings(max_examples=60, deadline=None)
@given(deg=st.integers(1, 4), self_int=st.integers(-3, 3), degree=st.integers(2, 7))
def test_enumerate_agrees_with_brute_force(deg, self_int, degree):
    s = make_surface(degree)
    fast = enumerate_classes(s, deg, self_int)
    slow = brute_force_classes(s, deg, self_int)
    assert [c.coeffs for c in fast] == [c.coeffs for c in slow]


def test_line_intersection_matrix_deg4_spot_values():
    s = make_surface(4)
    lines = enumerate_classes(s, 1, -1)
    matrix = line_intersection_matrix(s)
    idx = {c.coeffs: i for i, c in enumerate(lines)}
    e1, e2 = class_E(s, 1).coeffs, class_E(s, 2).coeffs
    c0 = class_C0(s).coeffs
    l12, l34 = class_L(s, 1, 2).coeffs, class_L(s, 3, 4).coeffs
    assert matrix[idx[e1]][idx[e1]] == -1
    assert matrix[idx[e1]][idx[e2]] == 0
    assert matrix[idx[c0]][idx[l12]] == 0
    assert matrix[idx[l12]][idx[l34]] == 1


def test_line_intersection_matrix_requires_low_degree():
    with pytest.raises(LatticeError):
        line_intersection_matrix(make_surface(8))
    with pytest.raises(LatticeError):
        line_intersection_matrix(make_surface(8, QUADRIC))


@pytest.mark.parametrize(
    "query",
    [
        lambda s: enumerate_classes(s, 1, -1),
        lambda s: enumerate_classes(s, 3, 1),
        lambda s: brute_force_classes(s, 1, -1),
        lambda s: brute_force_classes(s, 2, 0),
        line_intersection_matrix,
    ],
    ids=["enumerate_lines", "enumerate_cubics", "brute_lines", "brute_conics", "line_matrix"],
)
def test_class_sets_are_refused_on_k_squared_zero(query):
    # The blow-up of a degree-1 surface has K^2 = 0; its class sets are infinite.
    with pytest.raises(LatticeError, match=r"K\^2 = 0: .* not a finite set"):
        query(make_surface(1).blow_up())


PINNED_DEG4_C0_TO_E1 = (
    (3, 2, 1, 1, 1, 1),
    (-2, -1, -1, -1, -1, -1),
    (-1, -1, 0, -1, 0, 0),
    (-1, -1, -1, 0, 0, 0),
    (-1, -1, 0, 0, 0, -1),
    (-1, -1, 0, 0, -1, 0),
)


class TestIsometries:
    def test_identity(self):
        s = make_surface(4)
        iso = LatticeIsometry.identity(s)
        c = class_A(s, 3)
        assert apply_isometry(iso, c) == c

    def test_cremona_reflection_on_e1(self):
        s = make_surface(4)
        cm = LatticeIsometry.cremona(s, 1, 2, 3)
        assert cm.apply(class_E(s, 1)).coeffs == (1, 0, -1, -1, 0, 0)

    def test_reflection_in_exceptional_difference_swaps_the_pair(self):
        s = make_surface(4)
        swap = LatticeIsometry.reflection(s, (0, 1, -1, 0, 0, 0))
        assert swap.apply(class_E(s, 1)) == class_E(s, 2)
        assert swap.apply(class_L(s, 1, 3)) == class_L(s, 2, 3)
        assert swap.apply(class_E(s, 4)) == class_E(s, 4)

    def test_reflection_rejects_non_roots(self):
        s = make_surface(4)
        with pytest.raises(LatticeError):
            LatticeIsometry.reflection(s, (1, -1, 0, 0, 0, 0))  # isotropic, K.v = -2
        with pytest.raises(LatticeError):
            LatticeIsometry.reflection(s, (0, 1, -1, 0, 0))  # wrong length

    def test_construction_rejects_non_isometry(self):
        s = make_surface(4)
        bad = tuple(tuple(2 * int(i == j) for j in range(6)) for i in range(6))
        with pytest.raises(LatticeError):
            LatticeIsometry(s, bad)

    @pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), 0.0, False])
    def test_construction_rejects_non_integer_entries(self, bad):
        # int() truncated 1.5 in a corner of the identity to 0, so the
        # matrix passed the isometry check.
        s = make_surface(4)
        rows = [[int(i == j) for j in range(6)] for i in range(6)]
        rows[0][5] = bad
        with pytest.raises(LatticeError, match=re.escape(f"entry {bad!r} is not an integer")):
            LatticeIsometry(s, rows)
        floats = [[float(x) for x in row] for row in rows]
        with pytest.raises(LatticeError, match="is not an integer"):
            LatticeIsometry(s, floats)

    def test_find_model_isometry_c0_to_e1(self):
        s = make_surface(4)
        iso = find_model_isometry(s, [(class_C0(s), class_E(s, 1))])
        assert iso.apply(class_C0(s)) == class_E(s, 1)
        lines = enumerate_classes(s, 1, -1)
        images = sorted(iso.apply(c).coeffs for c in lines)
        assert images == sorted(c.coeffs for c in lines)

    def test_find_model_isometry_identity_case(self):
        s = make_surface(4)
        iso = find_model_isometry(s, [(class_E(s, 1), class_E(s, 1))])
        assert iso.apply(class_E(s, 1)) == class_E(s, 1)

    def test_find_model_isometry_meeting_pair(self):
        s = make_surface(4)
        pair = [(class_C0(s), class_E(s, 1)), (class_E(s, 3), class_L(s, 1, 2))]
        iso = find_model_isometry(s, pair)
        for src, dst in pair:
            assert iso.apply(src) == dst

    @pytest.mark.parametrize(
        "degree,pairs,matrix",
        [
            (
                4,
                [((2, -1, -1, -1, -1, -1), (0, 1, 0, 0, 0, 0))],
                PINNED_DEG4_C0_TO_E1,
            ),
            (
                4,
                [
                    ((2, -1, -1, -1, -1, -1), (0, 1, 0, 0, 0, 0)),
                    ((0, 0, 0, 1, 0, 0), (1, -1, -1, 0, 0, 0)),
                ],
                PINNED_DEG4_C0_TO_E1,
            ),
            (
                3,
                [
                    ((2, -1, -1, -1, -1, -1, 0), (0, 1, 0, 0, 0, 0, 0)),
                    ((0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0)),
                ],
                (
                    (3, 2, 1, 1, 1, 1, 0),
                    (-2, -1, -1, -1, -1, -1, 0),
                    (0, 0, 0, 0, 0, 0, 1),
                    (-1, -1, 0, 0, -1, 0, 0),
                    (-1, -1, 0, -1, 0, 0, 0),
                    (-1, -1, -1, 0, 0, 0, 0),
                    (-1, -1, 0, 0, 0, -1, 0),
                ),
            ),
            (
                2,
                [((3, -2, -1, -1, -1, -1, -1, -1), (0, 1, 0, 0, 0, 0, 0, 0))],
                (
                    (4, 3, 1, 1, 1, 1, 1, 1),
                    (-3, -2, -1, -1, -1, -1, -1, -1),
                    (-1, -1, 0, -1, 0, 0, 0, 0),
                    (-1, -1, -1, 0, 0, 0, 0, 0),
                    (-1, -1, 0, 0, 0, -1, 0, 0),
                    (-1, -1, 0, 0, -1, 0, 0, 0),
                    (-1, -1, 0, 0, 0, 0, 0, -1),
                    (-1, -1, 0, 0, 0, 0, -1, 0),
                ),
            ),
        ],
        ids=["deg4_c0", "deg4_meeting_pair", "deg3_disjoint_pair", "deg2_line"],
    )
    def test_find_model_isometry_returns_pinned_shortest_word(self, degree, pairs, matrix):
        # The breadth-first search returns the first shortest word in
        # generator order; these matrices freeze that choice.
        s = make_surface(degree)
        targets = [(DivisorClass(s, a), DivisorClass(s, b)) for a, b in pairs]
        assert find_model_isometry(s, targets).matrix == matrix

    def test_search_budget_error_names_the_limit(self):
        # A disjoint line pair six reflections away from (E_1, E_2); the
        # orbit holds 1 + 49 + 819 states within distance 2 and 3243 at 3.
        s = make_surface(1)
        a = DivisorClass(s, (3, -2, -1, -1, -1, -1, -1, -1, 0))
        b = DivisorClass(s, (6, -3, -2, -2, -2, -2, -2, -2, -2))
        targets = [(a, class_E(s, 1)), (b, class_E(s, 2))]
        with pytest.raises(LatticeError, match="max_states=1000") as exc:
            find_model_isometry(s, targets, max_states=1000)
        assert "1001 states explored" in str(exc.value)
        assert "BFS depth 3 reached" in str(exc.value)

    def test_find_model_isometry_detects_invariant_conflict(self):
        s = make_surface(4)
        with pytest.raises(LatticeError, match="invariant"):
            find_model_isometry(
                s,
                [
                    (class_E(s, 1), class_L(s, 2, 3)),
                    (class_E(s, 2), class_E(s, 2)),
                ],
            )

    def test_quadric_has_no_model_isometries(self):
        q = make_surface(8, QUADRIC)
        f = DivisorClass(q, (1, 0))
        with pytest.raises(LatticeError):
            find_model_isometry(q, [(f, f)])

    @settings(max_examples=40, deadline=None)
    @given(word=st.lists(st.integers(0, 10), min_size=0, max_size=5), data=st.data())
    def test_random_words_preserve_invariants(self, word, data):
        from delpezzo_lct.lattice import _generator_roots

        s = make_surface(4)
        roots = _generator_roots(s)
        iso = LatticeIsometry.identity(s)
        for g in word:
            iso = LatticeIsometry.reflection(s, roots[g % len(roots)]).compose(iso)
        a = DivisorClass(s, tuple(data.draw(st.integers(-3, 3)) for _ in range(6)))
        b = DivisorClass(s, tuple(data.draw(st.integers(-3, 3)) for _ in range(6)))
        assert iso.apply(a).dot(iso.apply(b)) == a.dot(b)
        assert degree_of(iso.apply(a)) == degree_of(a)



_S4, _S5, _S7 = make_surface(4), make_surface(5), make_surface(7)


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(
            lambda: LatticeIsometry(_S4, ((1, 0), (0, 1))),
            "isometry matrix size does not match lattice rank",
            id="size",
        ),
        pytest.param(
            lambda: LatticeIsometry(_S4, tuple(tuple(-int(i == j) for j in range(6)) for i in range(6))),
            "matrix does not fix the canonical class",
            id="minus_identity",
        ),
        pytest.param(
            lambda: LatticeIsometry.identity(_S4).apply(class_E(_S5, 1)),
            "class does not live on the isometry's surface",
            id="apply_across_surfaces",
        ),
        pytest.param(
            lambda: LatticeIsometry.identity(_S4).compose(LatticeIsometry.identity(_S5)),
            "isometries live on different surfaces",
            id="compose_across_surfaces",
        ),
        pytest.param(
            lambda: LatticeIsometry.cremona(make_surface(8, QUADRIC), 1, 2, 3),
            "Cremona reflections act on blow-up bases only",
            id="cremona_on_quadric",
        ),
        pytest.param(
            lambda: LatticeIsometry.cremona(_S4, 1, 1, 2),
            "Cremona indices must be three distinct E-indices",
            id="cremona_indices",
        ),
        pytest.param(
            lambda: find_model_isometry(_S4, [(class_E(_S4, 1), class_E(_S5, 1))]),
            "target classes live on a different surface",
            id="target_surface",
        ),
        pytest.param(  # E1 -> H + E1 - E2: both square to -1, degrees 1 and 3
            lambda: find_model_isometry(_S4, [(class_E(_S4, 1), DivisorClass(_S4, (1, 1, -1, 0, 0, 0)))]),
            "no isometry exists: anticanonical degree is an invariant",
            id="degree",
        ),
        pytest.param(  # degree 7 has the one root E1 - E2, so E1's orbit is {E1, E2}
            lambda: find_model_isometry(_S7, [(class_E(_S7, 1), class_L(_S7, 1, 2))]),
            "no isometry maps the given sources to the given targets",
            id="exhausted_orbit",
        ),
    ],
)
def test_isometry_error_messages(build, message):
    with pytest.raises(LatticeError) as err:
        build()
    assert str(err.value) == message
