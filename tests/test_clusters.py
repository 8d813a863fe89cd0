"""Tests for clusters, log canonicity, thresholds and blow-up transforms."""

import itertools
import random
from fractions import Fraction

import pytest

from delpezzo_lct import (
    ClusterError,
    ClusterNode,
    Component,
    ConfigPoint,
    DivisorClass,
    DivisorConfiguration,
    Germ,
    Incidence,
    InconsistentConfigError,
    LatticeError,
    WeightedCluster,
    canonical_form,
    compile_configuration,
    is_log_canonical,
    lct_at_point,
    lct_global,
    local_intersection,
    log_discrepancy,
    make_surface,
    multiplicity_at,
    non_klt_locus,
    scale_configuration,
    transform_by_blowup,
    valuation,
    with_coefficients,
)
from delpezzo_lct.clusters import _CATALOGUE
from delpezzo_lct.glct import class_E, class_L
from delpezzo_lct.properties import _random_point_config

ONE = Fraction(1)


def plane_config(germ, assignment, coeffs=None):
    """A single-point configuration on the plane with generous classes."""
    s = make_surface(9)
    comp_ids = []
    for c in assignment.values():
        if c not in comp_ids:
            comp_ids.append(c)
    coeffs = coeffs or {c: ONE for c in comp_ids}
    comps = tuple(
        Component(c, DivisorClass(s, (30 + i,)), coeffs[c])
        for i, c in enumerate(comp_ids)
    )
    point = ConfigPoint(
        "p", germ, tuple(Incidence(assignment[b], b) for b in range(germ.branches))
    )
    return DivisorConfiguration(s, comps, (point,))


def explicit_config(nodes, comp_ids, coeffs):
    s = make_surface(9)
    cluster = WeightedCluster(nodes, comp_ids)
    comps = tuple(
        Component(c, DivisorClass(s, (30 + i,)), coeffs[c])
        for i, c in enumerate(comp_ids)
    )
    return DivisorConfiguration(s, comps, (ConfigPoint("p", cluster),))


class TestGermCompilation:
    def test_ordinary_triple_point(self):
        cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
        cl = compile_configuration(cfg, "p")
        assert len(cl.nodes) == 1
        assert cl.root.mults == {"a": 1, "b": 1, "c": 1}

    def test_cusp_template(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        cl = compile_configuration(cfg, "p")
        assert [n.mult("c") for n in cl.nodes] == [2, 1, 1]
        sat = cl.nodes[2]
        assert set(sat.proximate_to) == {cl.nodes[0].id, cl.nodes[1].id}

    def test_tacnode_curve_template(self):
        cfg = plane_config(Germ.tacnode_curve(), {0: "c", 1: "c"})
        cl = compile_configuration(cfg, "p")
        assert [n.mult("c") for n in cl.nodes] == [2, 2]

    def test_branch_slots_must_cover_arity(self):
        s = make_surface(9)
        comp = Component("c", DivisorClass(s, (5,)), ONE)
        point = ConfigPoint("p", Germ.tacnode(), (Incidence("c", 0),))
        with pytest.raises(ClusterError, match="branch"):
            DivisorConfiguration(s, (comp,), (point,))


class TestValuations:
    def test_cusp_valuations(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        cl = compile_configuration(cfg, "p")
        assert [valuation(cl, n.id, "c") for n in cl.nodes] == [2, 3, 6]

    def test_smooth_root_valuation(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"})
        cl = compile_configuration(cfg, "p")
        assert valuation(cl, cl.root.id, "c") == 1

    def test_tacnode_curve_second_node(self):
        cfg = plane_config(Germ.tacnode_curve(), {0: "c", 1: "c"})
        cl = compile_configuration(cfg, "p")
        assert valuation(cl, cl.nodes[1].id, "c") == 4

    def test_unknown_ids_raise(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        cl = compile_configuration(cfg, "p")
        with pytest.raises(ClusterError):
            valuation(cl, "nowhere", "c")
        with pytest.raises(ClusterError):
            valuation(cl, cl.root.id, "ghost")


class TestLogDiscrepancy:
    def test_root(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"})
        cl = compile_configuration(cfg, "p")
        assert log_discrepancy(cl, cl.root.id) == 2

    def test_cusp_satellite(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        cl = compile_configuration(cfg, "p")
        assert log_discrepancy(cl, cl.nodes[2].id) == 5

    def test_chain_of_two_free_nodes(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 1}),
            ClusterNode("n1", "n0", ("n0",), {"c": 1}),
        )
        cfg = explicit_config(nodes, ("c",), {"c": ONE})
        cl = compile_configuration(cfg, "p")
        assert log_discrepancy(cl, "n1") == 3


class TestClusterValidation:
    def test_proximity_inequality_enforced(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 1}),
            ClusterNode("n1", "n0", ("n0",), {"c": 2}),
        )
        with pytest.raises(ClusterError, match="proximity inequality"):
            WeightedCluster(nodes, ("c",))

    def test_proximity_inequality_names_the_first_component_in_order(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 1}),
            ClusterNode("n1", "n0", ("n0",), {"b": 1, "a": 1}),
        )
        with pytest.raises(ClusterError) as exc:
            WeightedCluster(nodes, ("a", "b", "c"))
        assert str(exc.value) == "proximity inequality fails for 'a' at 'n0': 0 < 1"

    def test_parent_must_precede(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 2}),
            ClusterNode("n1", "n2", ("n2",), {"c": 1}),
            ClusterNode("n2", "n0", ("n0",), {"c": 1}),
        )
        with pytest.raises(ClusterError):
            WeightedCluster(nodes, ("c",))

    def test_satellite_needs_parent_proximity(self):
        # n2 claims proximity to n0 but its parent n1 is not proximate to n0.
        nodes = (
            ClusterNode("n0", None, (), {"c": 3}),
            ClusterNode("n1", "n0", ("n0",), {"c": 2}),
            ClusterNode("n2", "n1", ("n1", "n0"), {"c": 1}),
            ClusterNode("n3", "n2", ("n2", "n1"), {"c": 1}),
            ClusterNode("n4", "n3", ("n3", "n0"), {"c": 1}),
        )
        with pytest.raises(ClusterError, match="satellite"):
            WeightedCluster(nodes, ("c",))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ClusterError):
            ClusterNode("n0", None, (), {"c": -1})

    def test_explicit_zero_multiplicity_is_accepted(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 1, "d": 1}),
            ClusterNode("n1", "n0", ("n0",), {"c": 1, "d": 0}),
        )
        cluster = WeightedCluster(nodes, ("c", "d"))
        assert cluster.nodes[1].mult("d") == 0

    @pytest.mark.parametrize("m", [True, False, 1.0])
    def test_non_int_multiplicity_rejected(self, m):
        with pytest.raises(ClusterError, match="must be a nonnegative integer"):
            ClusterNode("n0", None, (), {"c": m})

    @pytest.mark.parametrize(
        "rows,message",
        [
            (
                [("n0", None, (), 1), ("n0", "n0", ("n0",), 1)],
                "duplicate node ids",
            ),
            (
                [("n1", "n0", ("n0",), 1), ("n0", None, (), 1)],
                "exactly one root is allowed and it must come first",
            ),
            (
                [("n0", None, (), 1), ("n1", None, (), 1)],
                "exactly one root is allowed and it must come first",
            ),
            (
                [("n0", None, (), 2), ("n1", "n2", ("n2",), 1), ("n2", "n0", ("n0",), 1)],
                "parent of 'n1' must be listed before it",
            ),
            (
                [("n0", None, (), 2), ("n1", "n1", ("n1",), 1)],
                "parent of 'n1' must be listed before it",
            ),
            (
                [("n0", None, (), 2), ("n1", "n0", (), 1)],
                "'n1' must be proximate to its parent",
            ),
            (
                [("n0", None, (), 3), ("n1", "n0", ("n0",), 1), ("n2", "n0", ("n0", "n1"), 1)],
                "'n2' proximate to non-ancestor 'n1'",
            ),
            (
                [("n0", None, (), 3), ("n1", "n0", ("n0", "ghost"), 1)],
                "'n1' proximate to non-ancestor 'ghost'",
            ),
            (
                [
                    ("n0", None, (), 3),
                    ("n1", "n0", ("n0",), 2),
                    ("n2", "n1", ("n1", "n0"), 1),
                    ("n3", "n2", ("n2", "n1"), 1),
                    ("n4", "n3", ("n3", "n0"), 1),
                ],
                "satellite 'n4': its parent is not proximate to 'n0'",
            ),
            (
                [
                    ("n0", None, (), 4),
                    ("n1", "n0", ("n0",), 2),
                    ("n2", "n1", ("n1", "n0"), 1),
                    ("n3", "n1", ("n1", "n0"), 1),
                ],
                "two satellites over the same corner ('n1', 'n0')",
            ),
            (
                [("n0", None, (), 1), ("n1", "n0", ("n0",), 2)],
                "proximity inequality fails for 'c' at 'n0': 1 < 2",
            ),
            ([], "a cluster needs at least the root node"),
            (
                [("n0", None, ("n0",), 1)],
                "the root is proximate to nothing",
            ),
            (
                [
                    ("n0", None, (), 1),
                    ("n1", "n0", ("n0",), 1),
                    ("n2", "n1", ("n1",), 1),
                    ("n3", "n2", ("n2", "n1", "n0"), 1),
                ],
                "'n3' may be proximate to its parent and at most one more point",
            ),
        ],
        ids=[
            "duplicate", "root_first", "second_root", "parent_after", "own_parent",
            "parent_proximity", "non_ancestor", "unknown_target", "satellite", "corner",
            "inequality", "empty", "proximate_root", "three_proximities",
        ],
    )
    def test_error_messages(self, rows, message):
        nodes = tuple(ClusterNode(nid, par, prox, {"c": m}) for nid, par, prox, m in rows)
        with pytest.raises(ClusterError) as err:
            WeightedCluster(nodes, ("c",))
        assert str(err.value) == message


S9 = make_surface(9)


def _comp(cid, coeff=ONE, cls=None):
    return Component(cid, cls or DivisorClass(S9, (5,)), Fraction(coeff))


def _smooth_point(cid):
    return ConfigPoint("p", Germ.smooth(1), (Incidence(cid, 0),))


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(
            lambda: WeightedCluster((ClusterNode("n0", None, (), {"x": 1}),), ("c",)),
            "node 'n0' mentions unknown component 'x'",
            id="unknown_component_in_node",
        ),
        pytest.param(
            lambda: DivisorConfiguration(S9, (_comp("c"), _comp("c")), ()),
            "duplicate component ids",
            id="duplicate_component_ids",
        ),
        pytest.param(
            lambda: DivisorConfiguration(S9, (_comp("c"),), (_smooth_point("c"), _smooth_point("c"))),
            "duplicate point ids",
            id="duplicate_point_ids",
        ),
        pytest.param(
            lambda: DivisorConfiguration(S9, (_comp("c", cls=DivisorClass(make_surface(8), (1, 0))),), ()),
            "component 'c' lives on a different surface",
            id="component_on_other_surface",
        ),
        pytest.param(
            lambda: DivisorConfiguration(S9, (_comp("c", Fraction(1, 2)),), ()).total_class(),
            "total class has non-integer coefficients",
            id="non_integer_total_class",
        ),
        pytest.param(
            lambda: local_intersection(
                DivisorConfiguration(S9, (_comp("a"), _comp("b")), (_smooth_point("a"),)), "p", "a", "b"
            ),
            "component 'b' does not pass through 'p'",
            id="component_off_the_point",
        ),
        pytest.param(
            lambda: scale_configuration(DivisorConfiguration(S9, (_comp("c"),), ()), 0),
            "scaling factor must be positive, got 0",
            id="scale_by_zero",
        ),
        pytest.param(
            lambda: transform_by_blowup(
                DivisorConfiguration(S9, (_comp("c"), _comp("p.E")), (_smooth_point("c"),)), "p"
            ),
            "component id 'p.E' already taken",
            id="exceptional_id_taken",
        ),
        pytest.param(lambda: Germ("spiral"), "unknown germ kind 'spiral'", id="germ_kind"),
        pytest.param(lambda: Germ("node", 3), "node germ has exactly 2 branches", id="germ_arity"),
        pytest.param(lambda: Germ("ordinary", 0), "a germ needs at least one branch", id="germ_branches"),
        pytest.param(
            lambda: Germ("ordinary", 2.0),
            "ordinary germ branch count must be an integer, got 2.0",
            id="germ_float_branches",
        ),
        pytest.param(
            lambda: Germ("ordinary", True),
            "ordinary germ branch count must be an integer, got True",
            id="germ_bool_branches",
        ),
        pytest.param(
            lambda: ConfigPoint("p", Germ.smooth(2), (Incidence("c", False), Incidence("c", True))),
            "branch slot of 'c' must be an integer, got False",
            id="incidence_bool_slots",
        ),
        pytest.param(
            lambda: Incidence("c", True),
            "branch slot of 'c' must be an integer, got True",
            id="incidence_bool_slot",
        ),
        pytest.param(
            lambda: Incidence("c", 0.0),
            "branch slot of 'c' must be an integer, got 0.0",
            id="incidence_float_slot",
        ),
        pytest.param(
            lambda: DivisorConfiguration(S9, (_comp("c"),), (_smooth_point("c"),)).cluster_at("q"),
            "unknown point 'q'",
            id="cluster_at_unknown_point",
        ),
        pytest.param(
            lambda: DivisorConfiguration(
                S9,
                (_comp("c"),),
                (ConfigPoint(
                    "p",
                    WeightedCluster((ClusterNode("n0", None, (), {"c": 1}),), ("c",)),
                    (Incidence("c", 0),),
                ),),
            ),
            "point 'p': explicit clusters carry their own incidence data",
            id="explicit_cluster_with_incidences",
        ),
    ],
)
def test_input_error_messages(build, message):
    with pytest.raises(ClusterError) as err:
        build()
    assert str(err.value) == message


def test_germ_branches_default_to_the_catalogue_count():
    for kind, (fixed, _) in _CATALOGUE.items():
        assert Germ(kind).branches == (fixed or 1)
    assert Germ("node") == Germ.node() == Germ("node", 2)
    assert Germ("ordinary") == Germ("ordinary", 1)


def test_repeated_component_id_is_refused():
    """Listed twice, the column of 'c' was counted twice: lct 1/2, not 1."""
    cls = DivisorClass(S9, (3,))

    def single_point(comp_ids):
        cluster = WeightedCluster((ClusterNode("n0", None, (), {"c": 2}),), comp_ids)
        return DivisorConfiguration(S9, (Component("c", cls, 1),), (ConfigPoint("p", cluster),))

    assert lct_global(single_point(("c",))).lct == 1
    with pytest.raises(ClusterError) as err:
        single_point(("c", "c"))
    assert str(err.value) == "duplicate component id 'c'"


def _plane_line():
    return DivisorConfiguration(S9, (_comp("c", Fraction(1, 2)),), (_smooth_point("c"),))


@pytest.mark.parametrize("value", [0.1, 1.0, True], ids=["float", "integral_float", "bool"])
@pytest.mark.parametrize(
    "entry,what",
    [
        (lambda x: Component("c", DivisorClass(S9, (5,)), x), "coefficient of 'c'"),
        (lambda x: is_log_canonical(_plane_line(), x), "the scaling factor"),
        (lambda x: non_klt_locus(_plane_line(), x), "the scaling factor"),
        (lambda x: scale_configuration(_plane_line(), x), "scaling factor"),
        (lambda x: with_coefficients(_plane_line(), {"c": x}), "coefficient of 'c'"),
    ],
    ids=["Component", "is_log_canonical", "non_klt_locus", "scale_configuration", "with_coefficients"],
)
def test_inexact_numbers_are_refused(entry, what, value):
    with pytest.raises(ClusterError) as err:
        entry(value)
    assert str(err.value) == f"{what} must be an int or a Fraction, got {value!r}"


def test_exact_numbers_are_taken():
    cfg = _plane_line()
    assert Component("c", DivisorClass(S9, (5,)), 2).coeff == 2
    assert is_log_canonical(cfg, 2) == is_log_canonical(cfg, Fraction(2))
    assert non_klt_locus(cfg, 4) == (frozenset({"c"}), frozenset({"p"}))
    assert scale_configuration(cfg, 3).coefficients == {"c": Fraction(3, 2)}
    assert with_coefficients(cfg, {"c": 4}).coefficients == {"c": 4}


class TestMultiplicityAt:
    def test_single_smooth_component(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"})
        assert multiplicity_at(cfg, "p") == 1

    def test_weighted_triple_point(self):
        cfg = plane_config(
            Germ.ordinary(3),
            {0: "a", 1: "b", 2: "c"},
            coeffs={"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)},
        )
        assert multiplicity_at(cfg, "p") == 1


class TestLocalIntersection:
    def test_transverse_pair(self):
        cfg = plane_config(Germ.smooth(2), {0: "a", 1: "b"})
        assert local_intersection(cfg, "p", "a", "b") == 1

    def test_tacnode_pair(self):
        cfg = plane_config(Germ.tacnode(), {0: "a", 1: "b"})
        assert local_intersection(cfg, "p", "a", "b") == 2

    def test_cusp_with_tangent_line(self):
        nodes = (
            ClusterNode("n0", None, (), {"c": 2, "l": 1}),
            ClusterNode("n1", "n0", ("n0",), {"c": 1, "l": 1}),
            ClusterNode("n2", "n1", ("n1", "n0"), {"c": 1}),
        )
        cfg = explicit_config(nodes, ("c", "l"), {"c": ONE, "l": ONE})
        assert local_intersection(cfg, "p", "c", "l") == 3

    def test_absent_component_raises(self):
        cfg = plane_config(Germ.smooth(2), {0: "a", 1: "b"})
        with pytest.raises(ClusterError):
            local_intersection(cfg, "p", "a", "ghost")


class TestLogCanonical:
    def test_triple_point_at_two_thirds(self):
        cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
        ok, cert = is_log_canonical(cfg, Fraction(2, 3), "p")
        assert ok
        root_row = cert.rows[0]
        assert Fraction(2, 3) * root_row.v - root_row.k == 1  # equality at the root

    def test_lambda_zero_is_always_log_canonical(self):
        cfg = plane_config(Germ.cusp(), {0: "c"}, coeffs={"c": Fraction(7)})
        ok, _ = is_log_canonical(cfg, Fraction(0))
        assert ok

    def test_negative_lambda_rejected(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"})
        with pytest.raises(ClusterError):
            is_log_canonical(cfg, Fraction(-1))

    def test_verdict_matches_threshold(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        lct = lct_at_point(cfg, "p").lct
        assert lct == Fraction(5, 6)
        assert is_log_canonical(cfg, lct, "p")[0]
        assert not is_log_canonical(cfg, lct + Fraction(1, 1000), "p")[0]


class TestLct:
    @pytest.mark.parametrize(
        "germ,assignment,expected",
        [
            (Germ.node(), {0: "c", 1: "c"}, Fraction(1)),
            (Germ.cusp(), {0: "c"}, Fraction(5, 6)),
            (Germ.tacnode_curve(), {0: "c", 1: "c"}, Fraction(3, 4)),
            (Germ.ordinary(3), {0: "a", 1: "b", 2: "c"}, Fraction(2, 3)),
        ],
    )
    def test_catalog_values(self, germ, assignment, expected):
        cfg = plane_config(germ, assignment)
        assert lct_at_point(cfg, "p").lct == expected

    def test_cusp_minimizer_is_satellite(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        cert = lct_at_point(cfg, "p")
        assert cert.minimizer == ("node", "p.n2")
        row = next(r for r in cert.rows if r.node == "p.n2")
        assert (row.k + 1, row.v) == (5, 6)

    def test_coefficient_minimizer(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"}, coeffs={"c": Fraction(3)})
        cert = lct_at_point(cfg, "p")
        assert cert.lct == Fraction(1, 3)
        assert cert.minimizer == ("component", "c")

    def test_zero_divisor_at_point_is_infinite(self):
        s = make_surface(9)
        comps = (Component("c", DivisorClass(s, (5,)), ONE),)
        cluster = WeightedCluster((ClusterNode("n0", None, (), {}),), ())
        cfg = DivisorConfiguration(s, comps, (ConfigPoint("p", cluster),))
        cert = lct_at_point(cfg, "p")
        assert cert.lct is None
        assert cert.minimizer is None

    def test_global_includes_off_point_components(self):
        s = make_surface(9)
        comps = (
            Component("c", DivisorClass(s, (5,)), ONE),
            Component("d", DivisorClass(s, (7,)), Fraction(4)),
        )
        point = ConfigPoint("p", Germ.smooth(1), (Incidence("c", 0),))
        cfg = DivisorConfiguration(s, comps, (point,))
        assert lct_at_point(cfg, "p").lct == 1
        assert lct_global(cfg).lct == Fraction(1, 4)


class TestNonKltLocus:
    def test_triple_point_boundary(self):
        cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
        comps, points = non_klt_locus(cfg, Fraction(2, 3))
        assert comps == frozenset()
        assert points == frozenset({"p"})

    def test_below_threshold_is_empty(self):
        cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
        comps, points = non_klt_locus(cfg, Fraction(1, 2))
        assert comps == frozenset() and points == frozenset()

    def test_component_at_coefficient_boundary(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"}, coeffs={"c": Fraction(2)})
        comps, _ = non_klt_locus(cfg, Fraction(1, 2))
        assert comps == frozenset({"c"})


class TestConsistency:
    def test_inconsistent_local_intersections_rejected(self):
        s = make_surface(4)
        comps = (
            Component("E1", class_E(s, 1), ONE),
            Component("E2", class_E(s, 2), ONE),
        )
        point = ConfigPoint(
            "p", Germ.smooth(2), (Incidence("E1", 0), Incidence("E2", 1))
        )
        with pytest.raises(InconsistentConfigError):
            DivisorConfiguration(s, comps, (point,))

    def test_equality_is_allowed(self):
        s = make_surface(4)
        comps = (
            Component("E1", class_E(s, 1), ONE),
            Component("L12", class_L(s, 1, 2), ONE),
        )
        point = ConfigPoint(
            "p", Germ.smooth(2), (Incidence("E1", 0), Incidence("L12", 1))
        )
        DivisorConfiguration(s, comps, (point,))  # must not raise

    def test_two_curves_of_one_pencil_meet_nowhere(self):
        # Conics H - E1 on a quartic surface: C^2 = 0, so distinct members
        # of the pencil are disjoint and cannot share a node.
        s = make_surface(4)
        conic = DivisorClass(s, (1, -1, 0, 0, 0, 0))
        comps = (Component("A", conic, ONE), Component("B", conic, ONE))
        point = ConfigPoint("p", Germ.node(), (Incidence("A", 0), Incidence("B", 1)))
        with pytest.raises(InconsistentConfigError) as err:
            DivisorConfiguration(s, comps, (point,))
        assert (err.value.local_total, err.value.lattice_total) == (1, 0)

    def test_nonpositive_coefficient_rejected_by_default(self):
        s = make_surface(9)
        with pytest.raises(ClusterError, match="positive"):
            DivisorConfiguration(
                s, (Component("c", DivisorClass(s, (5,)), Fraction(0)),), ()
            )


class TestTransform:
    def test_smooth_curve_gives_zero_exceptional_coefficient(self):
        cfg = plane_config(Germ.smooth(1), {0: "c"})
        t = transform_by_blowup(cfg, "p")
        exc = next(c for c in t.components if c.id == "p.E")
        assert exc.coeff == 0
        assert t.surface.rank == cfg.surface.rank + 1

    def test_triple_point_gives_two(self):
        cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
        t = transform_by_blowup(cfg, "p")
        exc = next(c for c in t.components if c.id == "p.E")
        assert exc.coeff == 2

    def test_strict_transform_classes(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        t = transform_by_blowup(cfg, "p")
        strict = next(c for c in t.components if c.id == "c")
        assert strict.cls.coeffs == (30, -2)

    def test_cusp_becomes_tangent_to_exceptional(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        t = transform_by_blowup(cfg, "p")
        assert len(t.points) == 1
        cl = t.cluster_at(t.points[0].id)
        # strict transform is tangent to E: both share the two-node chain
        assert [n.mult("c") for n in cl.nodes] == [1, 1]
        assert [n.mult("p.E") for n in cl.nodes] == [1, 1]

    def test_transfer_equivalence_on_cusp(self):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        for lam in (Fraction(1, 2), Fraction(5, 6), Fraction(9, 10), Fraction(1)):
            before, _ = is_log_canonical(cfg, lam, "p")
            blown = transform_by_blowup(scale_configuration(cfg, lam), "p")
            after, _ = is_log_canonical(blown, ONE)
            assert before == after, lam

    def test_degree_one_surface_can_be_blown_up(self):
        s = make_surface(1)
        cfg = DivisorConfiguration(
            s,
            (Component("C", -s.canonical, ONE),),
            (ConfigPoint("p", Germ.cusp(), (Incidence("C", 0),)),),
        )
        t = transform_by_blowup(cfg, "p")
        assert t.surface.rank == 10

    def test_quadric_cannot_be_blown_up(self):
        q = make_surface(8, "quadric")
        cfg = DivisorConfiguration(
            q,
            (
                Component("f1", DivisorClass(q, (1, 0)), Fraction(2)),
                Component("f2", DivisorClass(q, (0, 1)), Fraction(2)),
            ),
            (
                ConfigPoint(
                    "p", Germ.smooth(2), (Incidence("f1", 0), Incidence("f2", 1))
                ),
            ),
        )
        with pytest.raises(LatticeError, match="only blow-up basis surfaces can be blown up"):
            transform_by_blowup(cfg, "p")


class TestIteratedTransform:
    """Two blow-ups of a cusp walk through the tangency and the satellite corner."""

    def _double(self, lam):
        cfg = plane_config(Germ.cusp(), {0: "c"})
        t1 = transform_by_blowup(scale_configuration(cfg, lam), "p")
        t2 = transform_by_blowup(t1, t1.points[0].id)
        return cfg, t1, t2

    def test_equivalence_survives_two_levels(self):
        for lam in (Fraction(1, 2), Fraction(5, 6), Fraction(17, 20), Fraction(1)):
            cfg, t1, t2 = self._double(lam)
            lhs, _ = is_log_canonical(cfg, lam, "p")
            mid, _ = is_log_canonical(t1, ONE)
            rhs, _ = is_log_canonical(t2, ONE)
            assert lhs == mid == rhs

    def test_second_level_is_a_triple_corner(self):
        _, _, t2 = self._double(Fraction(5, 6))
        assert len(t2.points) == 1
        cl = t2.cluster_at(t2.points[0].id)
        assert len(cl.nodes) == 1
        assert sorted(cl.nodes[0].mults.values()) == [1, 1, 1]
        coeffs = sorted(c.coeff for c in t2.components)
        assert coeffs == [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)]


def test_scale_and_with_coefficients():
    cfg = plane_config(Germ.cusp(), {0: "c"})
    doubled = scale_configuration(cfg, Fraction(2))
    assert doubled.coefficients["c"] == 2
    reset = with_coefficients(doubled, {"c": Fraction(1, 3)})
    assert lct_at_point(reset, "p").lct == Fraction(5, 2)


def test_compiled_point_is_shared_and_checked_per_configuration():
    cfg = plane_config(Germ.cusp(), {0: "c"})
    cluster = cfg.cluster_at("p")
    assert scale_configuration(cfg, Fraction(2)).cluster_at("p") is cluster
    assert with_coefficients(cfg, {"c": Fraction(1, 3)}).cluster_at("p") is cluster
    s = cfg.surface
    with pytest.raises(ClusterError, match="point 'p' mentions unknown component 'c'"):
        DivisorConfiguration(s, (Component("d", DivisorClass(s, (5,)), ONE),), cfg.points)


def test_points_sharing_one_cluster_name_their_rows_apart():
    cluster = WeightedCluster((ClusterNode("n0", None, (), {"c": 1}),), ("c",))
    cfg = DivisorConfiguration(S9, (_comp("c"),), (ConfigPoint("p", cluster), ConfigPoint("q", cluster)))
    assert [(r.point, r.node) for r in lct_global(cfg).rows] == [("p", "p.n0"), ("q", "q.n0")]


def test_certificate_is_computed_once_per_scope():
    cfg = plane_config(Germ.ordinary(3), {0: "a", 1: "b", 2: "c"})
    cert = lct_global(cfg)
    assert lct_global(cfg) is cert
    assert is_log_canonical(cfg, Fraction(1, 2))[1] is cert
    assert lct_at_point(cfg, "p") is lct_at_point(cfg, "p")


def _reference_rows(cfg):
    """Certificate rows recomputed with the per-node Fraction sum."""
    rows = []
    for p in cfg.points:
        cluster = cfg.cluster_at(p.id)
        for node in cluster.nodes:
            v = cluster.divisor_valuation(node.id, cfg.coefficients)
            k = log_discrepancy(cluster, node.id) - 1
            rows.append((p.id, f"{p.id}.{node.id}", k, v, Fraction(k + 1) / v if v > 0 else None))
    return rows


def test_certificate_rows_match_divisor_valuation_reference():
    rng = random.Random("certificate-rows")
    signed = 0
    for _ in range(150):
        cfg = _random_point_config(rng)
        lam = Fraction(rng.randint(1, 10), rng.randint(3, 9))
        blown = transform_by_blowup(scale_configuration(cfg, lam), "p")
        signed += any(c.coeff < 0 for c in blown.components)
        for c in (cfg, blown):
            rows = _reference_rows(c)
            cert = lct_global(c)
            assert [(r.point, r.node, r.k, r.v, r.ratio) for r in cert.rows] == rows
            mu = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            want = frozenset(pid for pid, _, k, v, _ in rows if mu * v - k >= 1)
            assert non_klt_locus(c, mu)[1] == want
    assert signed >= 20


def test_derived_clusters_pass_the_checking_constructor():
    """Germ templates scaled by their branch counts and blow-up slices skip
    validation; each is still valid.  An explicit point's cluster is the
    user's own, already checked object, and is checked again here too."""
    rng = random.Random("derived-clusters")
    checked = signed = 0
    for _ in range(300):
        cfg = _random_point_config(rng)
        lam = Fraction(rng.randint(1, 10), rng.randint(3, 9))
        once = transform_by_blowup(scale_configuration(cfg, lam), "p")
        family = [cfg, once] + [transform_by_blowup(once, p.id) for p in once.points]
        for c in family:
            signed += any(comp.coeff < 0 for comp in c.components)
            for p in c.points:
                cluster = c.cluster_at(p.id)
                WeightedCluster(cluster.nodes, cluster.component_ids)
                checked += 1
    assert signed >= 150
    assert checked >= 4000


def test_each_node_is_checked_once(monkeypatch):
    # A catalogued germ is a constant template (checked by the catalogue test
    # below), so compiling it runs no node check.  An explicit cluster's nodes
    # are checked once, when built; the compiled point is that cluster, and
    # the blow-up slices reuse the checked data.
    checked = []
    check = ClusterNode.__post_init__

    def counting(self):
        checked.append(self.id)
        check(self)

    monkeypatch.setattr(ClusterNode, "__post_init__", counting)
    germ_cfg = plane_config(Germ.cusp(), {0: "c"})
    assert [n.id for n in germ_cfg.cluster_at("p").nodes] == ["n0", "n1", "n2"]
    once = transform_by_blowup(germ_cfg, "p")
    transform_by_blowup(once, once.points[0].id)
    assert checked == []

    nodes = (
        ClusterNode("n0", None, (), {"c": 2}),
        ClusterNode("n1", "n0", ("n0",), {"c": 1}),
        ClusterNode("n2", "n1", ("n1", "n0"), {"c": 1}),
    )
    cfg = explicit_config(nodes, ("c",), {"c": ONE})
    assert cfg.cluster_at("p") is cfg.points[0].germ
    once = transform_by_blowup(cfg, "p")
    transform_by_blowup(once, once.points[0].id)
    assert checked == ["n0", "n1", "n2"]


def _catalogue_points():
    """Every catalogue kind at each branch count it takes (1-4 when free),
    with every assignment of its branches to the components a, b, c."""
    for kind, (fixed, _) in _CATALOGUE.items():
        for branches in (fixed,) if fixed else range(1, 5):
            for comps in itertools.product("abc", repeat=branches):
                incident = tuple(Incidence(c, b) for b, c in enumerate(comps))
                yield ConfigPoint("p", Germ(kind, branches), incident)


def test_catalogue_templates_pass_the_checking_constructor():
    kinds = set()
    for point in _catalogue_points():
        cluster = point.cluster
        nodes = tuple(ClusterNode(n.id, n.parent, n.proximate_to, n.mults) for n in cluster.nodes)
        WeightedCluster(nodes, cluster.component_ids)
        assert cluster.component_ids == tuple(dict.fromkeys(i.component for i in point.incident))
        kinds.add((point.germ.kind, point.germ.branches))
    assert kinds == {
        (kind, b) for kind, (fixed, _) in _CATALOGUE.items() for b in ((fixed,) if fixed else range(1, 5))
    }


def test_catalogued_germs_compile_without_any_check(monkeypatch):
    def refuse(self):
        raise AssertionError("a catalogued germ was checked")

    monkeypatch.setattr(WeightedCluster, "_validate", refuse)
    monkeypatch.setattr(ClusterNode, "__post_init__", refuse)
    compiled = [point.cluster for point in _catalogue_points()]
    assert {len(c.nodes) for c in compiled} == {1, 2, 3}


def test_derived_configurations_do_not_revalidate_clusters(monkeypatch):
    cfg = plane_config(Germ.cusp(), {0: "c"})

    def refuse(self):
        raise AssertionError("a derived cluster was validated again")

    monkeypatch.setattr(WeightedCluster, "_validate", refuse)
    scaled = scale_configuration(cfg, Fraction(5, 6))
    with_coefficients(scaled, {"c": Fraction(1, 3)})
    once = transform_by_blowup(scaled, "p")
    twice = transform_by_blowup(once, once.points[0].id)
    assert sorted(c.coeff for c in twice.components) == [
        Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)
    ]


# ---------------------------------------------------------------------------
# Canonical forms of long clusters


def _recursive_canonical_form(cluster):
    """The definition of `canonical_form`, one recursive call per node."""

    def form(node):
        chain = cluster._ancestors(node.id)
        extra = tuple(sorted(chain.index(a) + 1 for a in node.proximate_to if a != node.parent))
        mults = tuple(sorted((c, m) for c, m in node.mults.items() if m))
        return (mults, extra, tuple(sorted(form(ch) for ch in cluster.children(node.id))))

    return form(cluster.root)


def _flat(form):
    """A nested form as a flat preorder list, so that two deep forms compare
    without Python's recursive tuple comparison."""
    out, stack = [], [form]
    while stack:
        mults, extra, kids = stack.pop()
        out.append((mults, extra, len(kids)))
        stack.extend(reversed(kids))
    return out


def _spine_cluster(length, satellite):
    """A chain of ``length`` points with a leaf on every third one and a
    second leaf on every fifth.  Free chain: A through every chain point, B
    through the first half.  Satellite chain: each point from the third on
    is also proximate to its grandparent, and A passes through the root only."""
    rows = []
    for i in range(length):
        parent = None if i == 0 else f"s{i - 1}"
        prox = [] if i == 0 else [parent] + ([f"s{i - 2}"] if satellite and i >= 2 else [])
        if satellite:
            mults = {"A": 1} if i == 0 else {}
        else:
            mults = {"A": 1, "B": 1} if i < length // 2 else {"A": 1}
        rows.append((f"s{i}", parent, prox, mults))
        for leaf in ("x", "y") if i % 5 == 0 else ("x",) if i % 3 == 0 else ():
            rows.append((f"{leaf}{i}", f"s{i}", [f"s{i}"], {}))
            if leaf == "y":
                rows.append((f"z{i}", f"y{i}", [f"y{i}"], {}))
    return rows


def _relabelled_shuffled(rows, rng):
    """The same cluster listed breadth first with siblings shuffled and
    every id replaced."""
    kids = {}
    for row in rows:
        kids.setdefault(row[1], []).append(row)
    new_id = {row[0]: f"q{i}" for i, row in enumerate(rng.sample(rows, len(rows)))}
    order, queue = [], list(kids[None])
    while queue:
        row = queue.pop(0)
        order.append(row)
        children = kids.get(row[0], [])
        rng.shuffle(children)
        queue.extend(children)
    return [
        (new_id[nid], None if parent is None else new_id[parent], [new_id[a] for a in prox], mults)
        for nid, parent, prox, mults in order
    ]


def _cluster_of(rows, comp_ids):
    return WeightedCluster(tuple(ClusterNode(*row) for row in rows), comp_ids)


@pytest.mark.parametrize("length,satellite", [(5000, False), (2000, True)], ids=["free", "satellite"])
def test_canonical_form_of_a_long_chain_ignores_ids_and_sibling_order(length, satellite):
    rows = _spine_cluster(length, satellite)
    comp_ids = ("A",) if satellite else ("A", "B")
    copy = _relabelled_shuffled(rows, random.Random(length))
    form = _flat(canonical_form(_cluster_of(rows, comp_ids)))
    assert len(form) == len(rows)
    assert form == _flat(canonical_form(_cluster_of(copy, comp_ids)))
    # Dropping the deepest leaf shows.
    deepest = max((r for r in rows if r[0].startswith("x")), key=lambda r: int(r[0][1:]))
    pruned = [r for r in rows if r is not deepest]
    assert form != _flat(canonical_form(_cluster_of(pruned, comp_ids)))


def test_canonical_form_matches_its_recursive_definition():
    rng = random.Random("canonical-form")
    for _ in range(300):
        cfg = _random_point_config(rng)
        for c in (cfg, transform_by_blowup(cfg, "p")):
            for p in c.points:
                cluster = c.cluster_at(p.id)
                assert canonical_form(cluster) == _recursive_canonical_form(cluster)


# ---------------------------------------------------------------------------
# The threshold from the integer forms, against the materialised rows


def _earliest_minimum(cert):
    """(least value, earliest constraint attaining it) over the component
    bounds, then the rows in listed order; (None, None) when none is active."""
    candidates = [(b.bound, ("component", b.component)) for b in cert.component_bounds
                  if b.bound is not None]
    candidates += [(r.ratio, ("node", r.node)) for r in cert.rows if r.ratio is not None]
    if not candidates:
        return None, None
    least = min(value for value, _ in candidates)
    return least, next(who for value, who in candidates if value == least)


def _threshold_cases():
    from delpezzo_lct.glct import SCENARIOS, witness
    from delpezzo_lct.properties import _config_from_cluster, _random_cluster

    for sc in SCENARIOS:
        yield witness(sc).config
    rng = random.Random("threshold-oracle")
    for point in _catalogue_points():
        comps = tuple(
            Component(c, DivisorClass(S9, (30 + i,)), Fraction(rng.randint(1, 9), rng.randint(1, 6)))
            for i, c in enumerate(point.cluster.component_ids)
        )
        yield DivisorConfiguration(S9, comps, (point,))
    for _ in range(200):
        cluster = _random_cluster(rng, ("a", "b")[: rng.randint(1, 2)], ("c",), max_nodes=7)
        coeffs = {c: Fraction(rng.randint(1, 6), rng.randint(2, 9)) for c in cluster.component_ids}
        cfg = _config_from_cluster(cluster, coeffs)
        yield cfg
        lam = Fraction(rng.randint(1, 6), rng.randint(2, 12))
        yield transform_by_blowup(scale_configuration(cfg, lam), "p")


def test_threshold_is_the_earliest_least_constraint():
    seen = signed = 0
    for cfg in _threshold_cases():
        signed += any(c.coeff <= 0 for c in cfg.components)
        for scope in [None] + [p.id for p in cfg.points]:
            cert = lct_global(cfg) if scope is None else lct_at_point(cfg, scope)
            assert "rows" not in vars(cert)
            assert (cert.lct, cert.minimizer) == _earliest_minimum(cert)
            seen += 1
        # The non-klt points at and above the threshold, by their definition.
        lct = lct_global(cfg).lct
        if lct is not None:
            rows = _reference_rows(cfg)
            for lam in (lct, lct * Fraction(3, 2)):
                assert non_klt_locus(cfg, lam)[1] == frozenset(
                    pid for pid, _, k, v, _ in rows if lam * v - k >= 1
                )
    assert seen > 1500 and signed > 40


def _two_branch_cluster():
    """Two cuspidal branches, one on each of a and b, with distinct tangents:
    with coefficients 1 the rows n0, n2 and m2 all have ratio 1/2."""
    return WeightedCluster(
        (
            ClusterNode("n0", None, (), {"a": 2, "b": 2}),
            ClusterNode("n1", "n0", ("n0",), {"a": 1}),
            ClusterNode("n2", "n1", ("n1", "n0"), {"a": 1}),
            ClusterNode("m1", "n0", ("n0",), {"b": 1}),
            ClusterNode("m2", "m1", ("m1", "n0"), {"b": 1}),
        ),
        ("a", "b"),
    )


def test_threshold_ties_go_to_the_earliest_constraint():
    # A component bound equal to a row ratio: 1/1 = 2/(1 + 1) at a node.
    node = plane_config(Germ.node(), {0: "a", 1: "a"}, coeffs={"a": Fraction(1, 2)})
    assert (lct_global(node).lct, lct_global(node).minimizer) == (2, ("component", "a"))
    two = plane_config(Germ.ordinary(2), {0: "a", 1: "b"})
    assert (lct_global(two).lct, lct_global(two).minimizer) == (1, ("component", "a"))
    # Three rows of one point with equal least ratio: the first listed.
    cfg = DivisorConfiguration(S9, (_comp("a"), _comp("b", cls=DivisorClass(S9, (6,)))),
                               (ConfigPoint("p", _two_branch_cluster()),))
    cert = lct_global(cfg)
    assert [r.node for r in cert.rows if r.ratio == Fraction(1, 2)] == ["p.n0", "p.n2", "p.m2"]
    assert (cert.lct, cert.minimizer) == (Fraction(1, 2), ("node", "p.n0"))
    # Equal rows at two points: the first point's.
    cusps = DivisorConfiguration(
        S9, (_comp("c"),),
        tuple(ConfigPoint(pid, Germ.cusp(), (Incidence("c", 0),)) for pid in ("p", "q")),
    )
    assert (lct_global(cusps).lct, lct_global(cusps).minimizer) == (Fraction(5, 6), ("node", "p.n2"))
    assert lct_at_point(cusps, "q").minimizer == ("node", "q.n2")


def test_certificates_differing_only_in_rows_differ():
    cusp = plane_config(Germ.cusp(), {0: "c"})
    nodes = tuple(cusp.cluster_at("p").nodes) + (ClusterNode("n3", "n0", ("n0",), {}),)
    longer = DivisorConfiguration(cusp.surface, cusp.components,
                                  (ConfigPoint("p", WeightedCluster(nodes, ("c",))),))
    a, b = lct_global(cusp), lct_global(longer)
    assert (a.lct, a.minimizer, a.component_bounds) == (b.lct, b.minimizer, b.component_bounds)
    assert len(b.rows) == len(a.rows) + 1
    assert a != b and repr(a) != repr(b)
    again = lct_global(plane_config(Germ.cusp(), {0: "c"}))
    assert again == a and hash(again) == hash(a) and repr(again) == repr(a)
    assert repr(a) == (
        f"LctCertificate(lct={a.lct!r}, minimizer={a.minimizer!r}, rows={a.rows!r}, "
        f"component_bounds={a.component_bounds!r})"
    )


def test_a_certificate_makes_no_reference_cycle():
    import gc

    gc.collect()
    cfg = explicit_config(_two_branch_cluster().nodes, ("a", "b"), {"a": ONE, "b": Fraction(1, 3)})
    cert = lct_global(cfg)
    assert cert.rows and lct_at_point(cfg, "p").rows
    is_log_canonical(with_coefficients(cfg, {"a": Fraction(2)}), Fraction(1, 2))
    del cfg, cert
    assert gc.collect() == 0


def test_a_proximity_must_be_a_node_id():
    with pytest.raises(ClusterError, match=r"proximity of 'n1' must be a node id, got \{\}"):
        ClusterNode("n1", "n0", ["n0", {}], {})
