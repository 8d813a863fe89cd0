"""JSON configuration files and deterministic certificate rendering.

The file format (UTF-8 JSON) is the CLI's sole input format:

    {
      "surface": {"degree": 4, "basis": "blowup"},
      "components": [{"id": "A2", "class": [2, -1, 0, -1, -1, -1], "coeff": "1"}],
      "points": [
        {"id": "p", "germ": "ordinary(3)",
         "incident": [{"component": "A2", "branch": 0}, ...]},
        {"id": "q", "germ": {"nodes": [
            {"id": "n0", "parent": null, "proximate_to": [], "mults": {"A2": 2}}]}}
      ]
    }

Rationals are strings "p/q" in lowest terms; germs are names with an
optional branch count, or explicit cluster objects.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional, Union

from .clusters import (
    _FIXED_ARITY,
    ClusterError,
    ClusterNode,
    Component,
    ConfigPoint,
    DivisorConfiguration,
    Germ,
    Incidence,
    LctCertificate,
    WeightedCluster,
)
from .lattice import DivisorClass, make_surface
from .rationals import format_rational, parse_rational


class ConfigSyntaxError(ValueError):
    def __init__(self, lineno: int, colno: int, msg: str):
        self.lineno = lineno
        self.colno = colno
        super().__init__(f"parse error at line {lineno} column {colno}: {msg}")


class ConfigSchemaError(ValueError):
    def __init__(self, path: str, msg: str):
        self.path = path
        super().__init__(f"invalid config at {path}: {msg}")


_GERM_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def germ_from_string(text: str) -> Germ:
    """A germ name with an optional branch count; `Germ` checks the rest."""
    m = _GERM_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed germ {text!r}")
    kind, arg = m.groups()
    if arg is None:
        return Germ(kind)
    if kind in _FIXED_ARITY:
        raise ValueError(f"germ {kind!r} takes no branch count")
    return Germ(kind, int(arg))


def germ_to_string(germ: Germ) -> str:
    if germ.kind in _FIXED_ARITY:
        return germ.kind
    return f"{germ.kind}({germ.branches})"


def _is_int(x) -> bool:
    """JSON integers only: ``true``/``false`` parse to bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _expect(obj, typ, path: str):
    if not (_is_int(obj) if typ is int else isinstance(obj, typ)):
        want = typ.__name__ if isinstance(typ, type) else "/".join(t.__name__ for t in typ)
        raise ConfigSchemaError(path, f"expected {want}, got {type(obj).__name__}")
    return obj


def _node_fields(nd) -> Optional[tuple]:
    """A node's (id, parent, proximities, mults) when the node and each field
    have their JSON type, else None; the constructor checks the entries."""
    if isinstance(nd, dict):
        nid, parent = nd.get("id"), nd.get("parent")
        prox, mults = nd.get("proximate_to", []), nd.get("mults", {})
        if (
            isinstance(nid, str)
            and (parent is None or isinstance(parent, str))
            and isinstance(prox, list)
            and isinstance(mults, dict)
        ):
            return nid, parent, prox, mults
    return None


def _check_node(nd, npath: str) -> None:
    """Each field and entry of a node checked in turn; the first fault is
    named by its JSON path."""
    _expect(nd, dict, npath)
    _expect(nd.get("id"), str, f"{npath}.id")
    parent = nd.get("parent")
    if parent is not None:
        _expect(parent, str, f"{npath}.parent")
    prox = _expect(nd.get("proximate_to", []), list, f"{npath}.proximate_to")
    for j, a in enumerate(prox):
        _expect(a, str, f"{npath}.proximate_to[{j}]")
    mults = _expect(nd.get("mults", {}), dict, f"{npath}.mults")
    for comp, m in mults.items():
        _expect(m, int, f"{npath}.mults.{comp}")


def _parse_cluster(obj: dict, path: str) -> WeightedCluster:
    nodes_raw = _expect(obj.get("nodes"), list, f"{path}.nodes")
    nodes = []
    # Components in order of first mention; only the keys are read.
    comp_order: dict[str, int] = {}
    for i, nd in enumerate(nodes_raw):
        fields = _node_fields(nd)
        if fields is not None:
            try:
                node = ClusterNode(*fields)
            except ClusterError:
                fields = None
        if fields is None:
            # JSON paths are formatted only here.  A fault that the JSON types
            # allow, such as a negative multiplicity, is the constructor's own.
            _check_node(nd, f"{path}.nodes[{i}]")
            node = ClusterNode(*_node_fields(nd))
        comp_order.update(node.mults)
        nodes.append(node)
    return WeightedCluster(tuple(nodes), tuple(comp_order))


def config_from_json_obj(obj: dict) -> DivisorConfiguration:
    _expect(obj, dict, "$")
    surf_raw = _expect(obj.get("surface"), dict, "$.surface")
    degree = _expect(surf_raw.get("degree"), int, "$.surface.degree")
    basis = surf_raw.get("basis", "blowup")
    _expect(basis, str, "$.surface.basis")
    surface = make_surface(degree, basis)

    comps = []
    for i, c in enumerate(_expect(obj.get("components", []), list, "$.components")):
        cpath = f"$.components[{i}]"
        _expect(c, dict, cpath)
        cid = _expect(c.get("id"), str, f"{cpath}.id")
        cls_raw = _expect(c.get("class"), list, f"{cpath}.class")
        if not all(_is_int(x) for x in cls_raw):
            raise ConfigSchemaError(f"{cpath}.class", "entries must be integers")
        coeff_raw = c.get("coeff", "1")
        _expect(coeff_raw, str, f"{cpath}.coeff")
        try:
            coeff = parse_rational(coeff_raw)
        except ValueError as e:
            raise ConfigSchemaError(f"{cpath}.coeff", str(e)) from None
        comps.append(Component(cid, DivisorClass(surface, tuple(cls_raw)), coeff))

    points = []
    for i, p in enumerate(_expect(obj.get("points", []), list, "$.points")):
        ppath = f"$.points[{i}]"
        _expect(p, dict, ppath)
        pid = _expect(p.get("id"), str, f"{ppath}.id")
        germ_raw = p.get("germ")
        incident_raw = _expect(p.get("incident", []), list, f"{ppath}.incident")
        incident = []
        for j, inc in enumerate(incident_raw):
            ipath = f"{ppath}.incident[{j}]"
            _expect(inc, dict, ipath)
            comp = _expect(inc.get("component"), str, f"{ipath}.component")
            branch = _expect(inc.get("branch", j), int, f"{ipath}.branch")
            incident.append(Incidence(comp, branch))
        if isinstance(germ_raw, str):
            try:
                germ: Union[Germ, WeightedCluster] = germ_from_string(germ_raw)
            except ValueError as e:
                raise ConfigSchemaError(f"{ppath}.germ", str(e)) from None
        elif isinstance(germ_raw, dict):
            germ = _parse_cluster(germ_raw, f"{ppath}.germ")
        else:
            raise ConfigSchemaError(f"{ppath}.germ", "expected a germ name or a cluster object")
        points.append(ConfigPoint(pid, germ, tuple(incident)))

    return DivisorConfiguration(surface, tuple(comps), tuple(points))


def parse_config_text(text: str) -> DivisorConfiguration:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigSyntaxError(e.lineno, e.colno, e.msg) from None
    return config_from_json_obj(obj)


def parse_config_file(path) -> DivisorConfiguration:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def config_to_json_obj(cfg: DivisorConfiguration) -> dict:
    points = []
    for p in cfg.points:
        if isinstance(p.germ, WeightedCluster):
            germ_obj: Union[str, dict] = {
                "nodes": [
                    {
                        "id": n.id,
                        "parent": n.parent,
                        "proximate_to": list(n.proximate_to),
                        "mults": {c: m for c, m in n.mults.items() if m},
                    }
                    for n in p.germ.nodes
                ]
            }
            points.append({"id": p.id, "germ": germ_obj})
        else:
            points.append(
                {
                    "id": p.id,
                    "germ": germ_to_string(p.germ),
                    "incident": [
                        {"component": inc.component, "branch": inc.branch}
                        for inc in p.incident
                    ],
                }
            )
    return {
        "surface": {"degree": cfg.surface.degree, "basis": cfg.surface.basis_kind},
        "components": [
            {"id": c.id, "class": list(c.cls.coeffs), "coeff": format_rational(c.coeff)}
            for c in cfg.components
        ],
        "points": points,
    }


def certificate_to_json_obj(cert: LctCertificate) -> dict:
    return {
        "lct": format_rational(cert.lct),
        "minimizer": None
        if cert.minimizer is None
        else {"kind": cert.minimizer[0], "id": cert.minimizer[1]},
        "rows": [
            {
                "point": r.point,
                "node": r.node,
                "k": r.k,
                "v": format_rational(r.v),
                "ratio": None if r.ratio is None else format_rational(r.ratio),
            }
            for r in cert.rows
        ],
        "component_bounds": [
            {
                "component": b.component,
                "coeff": format_rational(b.coeff),
                "bound": None if b.bound is None else format_rational(b.bound),
            }
            for b in cert.component_bounds
        ],
    }


def certificate_to_text(cert: LctCertificate) -> str:
    lines = [f"lct = {format_rational(cert.lct)}"]
    if cert.minimizer is None:
        lines.append("minimizer = none")
    else:
        kind, name = cert.minimizer
        if kind == "node":
            row = next(r for r in cert.rows if r.node == name)
            lines.append(
                f"minimizer = node {name} (k+1 = {row.k + 1}, v = {format_rational(row.v)})"
            )
        else:
            bound = next(b for b in cert.component_bounds if b.component == name)
            lines.append(
                f"minimizer = component {name} (coeff = {format_rational(bound.coeff)}, "
                f"bound = {format_rational(bound.bound)})"
            )
    for r in cert.rows:
        ratio = "-" if r.ratio is None else format_rational(r.ratio)
        lines.append(
            f"node {r.node}: k = {r.k}, v = {format_rational(r.v)}, ratio = {ratio}"
        )
    for b in cert.component_bounds:
        bound = "-" if b.bound is None else format_rational(b.bound)
        lines.append(
            f"component {b.component}: coeff = {format_rational(b.coeff)}, bound = {bound}"
        )
    return "\n".join(lines)
