"""Command-line front end: class listings, thresholds, verification suites.

Exit codes: 0 success, 1 semantic negative (not log canonical, or a failing
suite), 2 usage or parse error, 3 inconsistent intersection data.  Output
is byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import clusters, glct, properties
from .clusters import ClusterError, InconsistentConfigError
from .configio import (
    ConfigSchemaError,
    ConfigSyntaxError,
    certificate_to_json_obj,
    certificate_to_text,
    parse_config_file,
)
from .lattice import LatticeError, enumerate_classes, make_surface
from .rationals import format_rational, parse_rational
from .report import Report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _corollary(seed: int, cases: int) -> Report:
    results = glct.verify_corollary().results + glct.verify_complementary_sections().results
    return Report("corollary", results)


# Every suite `verify --suite` runs, in `--suite all` order: name -> runner(seed, cases).
SUITES = {
    "table1": lambda seed, cases: glct.verify_table1(),
    "lines": lambda seed, cases: glct.verify_lines(),
    "lemmaG": lambda seed, cases: glct.verify_lemma_G_all(),
    "lemmaH": lambda seed, cases: glct.verify_lemma_H_all(),
    "corollary": _corollary,
    "properties": properties.run_property_suites,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dplct",
        description="Exact curve-class enumeration and log canonical thresholds "
        "on del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classes = sub.add_parser("classes", help="enumerate curve classes")
    p_classes.add_argument("--degree", type=int, required=True, help="surface degree 1..9")
    p_classes.add_argument("--basis", choices=["blowup", "quadric"], default="blowup")
    p_classes.add_argument("--deg", type=int, required=True, help="anticanonical degree")
    p_classes.add_argument("--self", dest="self_int", type=int, required=True,
                           help="self-intersection")
    p_classes.add_argument("--json", action="store_true")

    p_lct = sub.add_parser("lct", help="threshold certificate for a configuration file")
    p_lct.add_argument("config", help="path to a JSON configuration file")
    p_lct.add_argument("--point", help="restrict to one marked point")
    p_lct.add_argument("--lambda", dest="lam", help="check log canonicity at p/q instead")
    p_lct.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--json", action="store_true")
    return parser


def _cmd_classes(args) -> int:
    try:
        surface = make_surface(args.degree, args.basis)
        classes = enumerate_classes(surface, args.deg, args.self_int)
    except LatticeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        obj = {
            "surface": {"degree": surface.degree, "basis": surface.basis_kind},
            "query": {"deg": args.deg, "self": args.self_int},
            "count": len(classes),
            "classes": [list(c.coeffs) for c in classes],
        }
        print(_dump_json(obj))
    else:
        for c in classes:
            print(" ".join(str(x) for x in c.coeffs))
    return EXIT_OK


def _cmd_lct(args) -> int:
    try:
        cfg = parse_config_file(args.config)
    except FileNotFoundError:
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentConfigError as e:
        print(f"error: inconsistent intersections: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ConfigSchemaError, ClusterError, LatticeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    lam = None
    if args.lam is not None:
        try:
            lam = parse_rational(args.lam)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if args.point is not None:
            cfg.point(args.point)
    except ClusterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if lam is not None:
        verdict, cert = clusters.is_log_canonical(cfg, lam, args.point)
        if args.json:
            obj = certificate_to_json_obj(cert)
            obj["lambda"] = format_rational(lam)
            obj["log_canonical"] = verdict
            print(_dump_json(obj))
        else:
            print(f"log_canonical = {'true' if verdict else 'false'} at lambda = "
                  f"{format_rational(lam)}")
            print(certificate_to_text(cert))
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if args.point is not None:
        cert = clusters.lct_at_point(cfg, args.point)
    else:
        cert = clusters.lct_global(cfg)
    if args.json:
        print(_dump_json(certificate_to_json_obj(cert)))
    else:
        print(certificate_to_text(cert))
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name](args.seed, args.cases) for name in names]
    if args.json:
        objs = [r.to_json_obj() for r in reports]
        print(_dump_json(objs if args.suite == "all" else objs[0]))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NEGATIVE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "classes":
        return _cmd_classes(args)
    if args.command == "lct":
        return _cmd_lct(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
