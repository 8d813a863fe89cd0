"""Oracle equivalence: recursion engines vs independent recomputation."""

import itertools
import random

import pytest

from delpezzo_lct import (
    Germ,
    brute_force_classes,
    canonical_form,
    enumerate_classes,
    make_surface,
    resolve_germ,
    resolve_parametrized,
    simulate_pullbacks,
)
from delpezzo_lct.clusters import ClusterError, ConfigPoint, Incidence, _compile_point
from delpezzo_lct.properties import _random_cluster


CATALOG = [
    (Germ.smooth(1), {0: "c"}),
    (Germ.smooth(2), {0: "c", 1: "d"}),
    (Germ.smooth(3), {0: "c", 1: "d", 2: "e"}),
    (Germ.node(), {0: "c", 1: "c"}),
    (Germ.tacnode(), {0: "c", 1: "d"}),
    (Germ.tacnode_curve(), {0: "c", 1: "c"}),
    (Germ.cusp(), {0: "c"}),
    (Germ.ordinary(3), {0: "c", 1: "d", 2: "e"}),
    (Germ.ordinary(4), {0: "c", 1: "c", 2: "d", 3: "e"}),
]


def template_cluster(germ, assignment):
    point = ConfigPoint(
        "p", germ, tuple(Incidence(assignment[b], b) for b in range(germ.branches))
    )
    return _compile_point(point, set(assignment.values()))


@pytest.mark.parametrize("germ,assignment", CATALOG, ids=lambda g: getattr(g, "kind", ""))
def test_templates_match_power_series_resolution(germ, assignment):
    resolved = resolve_germ(germ, assignment)
    template = template_cluster(germ, assignment)
    assert canonical_form(resolved) == canonical_form(template)


@pytest.mark.parametrize("germ,assignment", CATALOG, ids=lambda g: getattr(g, "kind", ""))
def test_simulator_agrees_on_catalog_germs(germ, assignment):
    cluster = template_cluster(germ, assignment)
    vals, discs = simulate_pullbacks(cluster)
    for node in cluster.nodes:
        assert cluster.log_discrepancy(node.id) == discs[node.id] + 1
        for comp in cluster.component_ids:
            assert cluster.valuation(node.id, comp) == vals[comp][node.id]


def test_simulator_agrees_on_random_clusters():
    rng = random.Random("oracle-test")
    for _ in range(300):
        cluster = _random_cluster(
            rng, [f"c{i}" for i in range(rng.randint(1, 3))], max_nodes=7
        )
        vals, discs = simulate_pullbacks(cluster)
        for node in cluster.nodes:
            assert cluster.log_discrepancy(node.id) == discs[node.id] + 1
            for comp in cluster.component_ids:
                assert cluster.valuation(node.id, comp) == vals[comp][node.id]


class TestPowerSeriesResolver:
    def test_cusp_with_its_tangent_line(self):
        joint = resolve_parametrized(
            {"cusp": ([0, 0, 1], [0, 0, 0, 1]), "line": ([0, 1], [0])}
        )
        assert joint.local_intersection_pair("cusp", "line") == 3
        assert [n.mult("cusp") for n in joint.nodes] == [2, 1, 1]
        assert [n.mult("line") for n in joint.nodes] == [1, 1, 0]

    def test_cusp_with_transverse_line(self):
        joint = resolve_parametrized(
            {"cusp": ([0, 0, 1], [0, 0, 0, 1]), "line": ([0], [0, 1])}
        )
        assert joint.local_intersection_pair("cusp", "line") == 2

    def test_higher_tangency(self):
        # y = x^2 against y = x^2 + x^3: contact order 3, three shared points
        joint = resolve_parametrized(
            {"a": ([0, 1], [0, 0, 1]), "b": ([0, 1], [0, 0, 1, 1])}
        )
        assert joint.local_intersection_pair("a", "b") == 3
        # y = x^2 against y = -x^2 + x^3: the cubic term does not help, contact 2
        joint2 = resolve_parametrized(
            {"a": ([0, 1], [0, 0, 1]), "b": ([0, 1], [0, 0, -1, 1])}
        )
        assert joint2.local_intersection_pair("a", "b") == 2

    def test_depth_cap_on_coincident_branches(self):
        with pytest.raises(ClusterError):
            resolve_parametrized({"a": ([0, 1], [0, 1]), "b": ([0, 1], [0, 1])})


def test_brute_force_quadric():
    q = make_surface(8, "quadric")
    assert brute_force_classes(q, 1, -1) == []
    assert [c.coeffs for c in brute_force_classes(q, 2, 0)] == [(0, 1), (1, 0)]


def test_brute_force_p2():
    s = make_surface(9)
    assert [c.coeffs for c in brute_force_classes(s, 3, 1)] == [(1,)]
    assert brute_force_classes(s, 1, -1) == []


@pytest.mark.parametrize("degree", range(3, 9))
def test_brute_force_matches_enumeration_on_conics_and_cubics(degree):
    # degrees 1 and 2 make the cubic search box too large for the table join;
    # lines on those surfaces are cross-checked in the acceptance suite
    s = make_surface(degree)
    for deg, self_int in [(2, 0), (3, 1)]:
        fast = [c.coeffs for c in enumerate_classes(s, deg, self_int)]
        slow = [c.coeffs for c in brute_force_classes(s, deg, self_int)]
        assert fast == slow


@pytest.mark.parametrize("ncoords", range(0, 5))
@pytest.mark.parametrize("bound", range(0, 7))
def test_half_table_is_the_box_cut_to_the_ball(bound, ncoords):
    from delpezzo_lct import oracles

    want: dict = {}
    for vec in itertools.product(range(-bound, bound + 1), repeat=ncoords):
        square = sum(c * c for c in vec)
        if square < (bound + 1) ** 2:
            want.setdefault((sum(vec), square), []).append(vec)
    assert oracles._half_table(bound, ncoords) == want


def test_resolver_names_the_depth_cap(monkeypatch):
    # Contact 20 needs more blow-ups than a depth cap of 16 allows.
    from delpezzo_lct import oracles

    monkeypatch.setattr(oracles, "_MAX_DEPTH", 16)
    branches = {"A": ([0, 1], [0] * 20 + [1]), "B": ([0, 1], [0] * 20 + [-1])}
    with pytest.raises(ClusterError) as err:
        resolve_parametrized(branches)
    assert str(err.value) == "resolution did not terminate within the depth cap _MAX_DEPTH=16"


@pytest.mark.parametrize("contact", [18, 20, 23])
def test_resolver_separates_contact_below_its_order(contact):
    # y = +-x^c agree through c terms; the depth cap follows _ORDER = 24,
    # so they separate after c blow-ups.
    branches = {"A": ([0, 1], [0] * contact + [1]), "B": ([0, 1], [0] * contact + [-1])}
    assert len(resolve_parametrized(branches).nodes) == contact


def test_resolver_names_coinciding_branches():
    from delpezzo_lct.oracles import _ORDER

    branches = {"A": ([0, 1], [0, 0, 1]), "B": ([0, 1], [0, 0, 1])}
    with pytest.raises(ClusterError) as err:
        resolve_parametrized(branches)
    assert str(err.value) == f"branches 'A' and 'B' coincide through _ORDER={_ORDER} series terms"
