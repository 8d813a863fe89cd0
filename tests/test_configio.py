"""Schema and error-path tests for the JSON configuration format."""

import json

import pytest

from delpezzo_lct import InconsistentConfigError, lct_global
from delpezzo_lct.configio import (
    ConfigSchemaError,
    ConfigSyntaxError,
    certificate_to_json_obj,
    certificate_to_text,
    config_from_json_obj,
    config_to_json_obj,
    parse_config_text,
)


def minimal_obj():
    return {
        "surface": {"degree": 9, "basis": "blowup"},
        "components": [{"id": "C", "class": [6], "coeff": "1"}],
        "points": [
            {"id": "p", "germ": "cusp", "incident": [{"component": "C", "branch": 0}]}
        ],
    }


def test_minimal_config_parses():
    cfg = config_from_json_obj(minimal_obj())
    assert cfg.surface.degree == 9
    assert cfg.components[0].coeff == 1


def test_syntax_error_carries_position():
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config_text('{"surface": \n  [}')
    assert exc.value.lineno == 2


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda o: o.pop("surface"), "$.surface"),
        (lambda o: o["surface"].update(degree="four"), "$.surface.degree"),
        (lambda o: o["components"][0].update(coeff="0.5"), "coeff"),
        (lambda o: o["components"][0].update(coeff="1/0"), "coeff"),
        (lambda o: o["components"][0].update({"class": [1.5]}), "class"),
        (lambda o: o["points"][0].update(germ="hexagon"), "germ"),
        (lambda o: o["points"][0].update(germ=12), "germ"),
    ],
)
def test_schema_errors_carry_paths(mutate, path_fragment):
    obj = minimal_obj()
    mutate(obj)
    with pytest.raises(ConfigSchemaError) as exc:
        config_from_json_obj(obj)
    assert path_fragment in str(exc.value)


@pytest.mark.parametrize(
    "germ,message",
    [
        ("node(2", "malformed germ 'node(2'"),
        ("node(2)", "germ 'node' takes no branch count"),
        ("hexagon", "unknown germ kind 'hexagon'"),
        ("ordinary(0)", "a germ needs at least one branch"),
    ],
    ids=["malformed", "fixed_count_given", "unknown_kind", "no_branch"],
)
def test_germ_string_errors_name_the_germ(germ, message):
    obj = minimal_obj()
    obj["points"][0]["germ"] = germ
    with pytest.raises(ConfigSchemaError) as exc:
        parse_config_text(json.dumps(obj))
    assert str(exc.value) == f"invalid config at $.points[0].germ: {message}"


def _cluster_point(mult):
    return {
        "id": "p",
        "germ": {
            "nodes": [{"id": "n0", "parent": None, "proximate_to": [], "mults": {"C": mult}}]
        },
    }


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda o: o["surface"].update(degree=True), "$.surface.degree"),
        (lambda o: o["components"][0].update({"class": [True]}), "$.components[0].class"),
        (lambda o: o.update(points=[_cluster_point(True)]), "$.points[0].germ.nodes[0].mults.C"),
        (
            lambda o: o["points"][0]["incident"][0].update(branch=False),
            "$.points[0].incident[0].branch",
        ),
    ],
    ids=["degree", "class", "mults", "branch"],
)
def test_json_booleans_are_not_integers(mutate, path_fragment):
    obj = minimal_obj()
    mutate(obj)
    with pytest.raises(ConfigSchemaError) as exc:
        config_from_json_obj(obj)
    assert path_fragment in str(exc.value)


def test_wrong_class_length_is_rejected():
    obj = minimal_obj()
    obj["components"][0]["class"] = [6, 0]
    with pytest.raises(Exception):
        config_from_json_obj(obj)


def test_inconsistent_intersections_raise_dedicated_error():
    obj = {
        "surface": {"degree": 4, "basis": "blowup"},
        "components": [
            {"id": "E1", "class": [0, 1, 0, 0, 0, 0], "coeff": "1"},
            {"id": "E2", "class": [0, 0, 1, 0, 0, 0], "coeff": "1"},
        ],
        "points": [
            {
                "id": "p",
                "germ": "smooth_transverse(2)",
                "incident": [
                    {"component": "E1", "branch": 0},
                    {"component": "E2", "branch": 1},
                ],
            }
        ],
    }
    with pytest.raises(InconsistentConfigError) as exc:
        config_from_json_obj(obj)
    assert {exc.value.comp_i, exc.value.comp_j} == {"E1", "E2"}


def test_explicit_cluster_round_trip():
    obj = minimal_obj()
    obj["points"] = [
        {
            "id": "p",
            "germ": {
                "nodes": [
                    {"id": "n0", "parent": None, "proximate_to": [], "mults": {"C": 2}},
                    {"id": "n1", "parent": "n0", "proximate_to": ["n0"], "mults": {"C": 1}},
                ]
            },
        }
    ]
    cfg = config_from_json_obj(obj)
    dumped = config_to_json_obj(cfg)
    again = parse_config_text(json.dumps(dumped))
    assert config_to_json_obj(again) == dumped


def test_empty_configuration_certificate_is_infinite():
    obj = {"surface": {"degree": 9, "basis": "blowup"}, "components": [], "points": []}
    cert = lct_global(config_from_json_obj(obj))
    rendered = certificate_to_json_obj(cert)
    assert (rendered["lct"], rendered["minimizer"], rendered["rows"]) == ("inf", None, [])
    assert certificate_to_text(cert) == "lct = inf\nminimizer = none"
