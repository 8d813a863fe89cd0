"""Command-line front end: class listings, thresholds, verification suites.

Exit codes: 0 success, 1 semantic negative (not log canonical, or a failing
suite), 2 usage or parse error, 3 inconsistent intersection data.  Output
is byte-deterministic for fixed inputs and seed.  A reader that closes
stdout early (``dplct classes ... | head -1``) ends the command quietly
with exit 1, as Python itself does on a broken pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Each command imports the modules it runs when it runs, so that a process
# pays only for its own subcommand: the suites reach theirs through the
# package root, which loads a submodule on first attribute access.
import delpezzo_lct as _package

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _corollary(seed: int, cases: int):
    reports = (_package.glct.verify_corollary(), _package.glct.verify_complementary_sections())
    return _package.Report.merged("corollary", reports)


# Every suite `verify --suite` runs, in `--suite all` order: name -> runner(seed, cases).
SUITES = {
    "table1": lambda seed, cases: _package.glct.verify_table1(),
    "lines": lambda seed, cases: _package.glct.verify_lines(),
    "lemmaG": lambda seed, cases: _package.glct.verify_lemma_G_all(),
    "lemmaH": lambda seed, cases: _package.glct.verify_lemma_H_all(),
    "corollary": _corollary,
    "properties": lambda seed, cases: _package.properties.run_property_suites(seed, cases),
}


def _case_count(text: str) -> int:
    try:
        cases = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cases < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cases}")
    return cases


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
    # Before Python 3.13 argparse reads "-1/2" as an option flag, so that
    # "--lambda -1/2" ended in a usage error.  No lct option starts with a
    # digit, so a word "-<digit>..." is always a value.
    p_lct._negative_number_matcher = re.compile(r"-\d")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=_case_count, default=1000)
    p_verify.add_argument("--json", action="store_true")
    return parser


def _cmd_classes(args) -> int:
    from .lattice import enumerate_classes, make_surface

    surface = make_surface(args.degree, args.basis)
    classes = enumerate_classes(surface, args.deg, args.self_int)
    if args.json:
        obj = {
            "surface": {"degree": surface.degree, "basis": surface.basis_kind},
            "query": {"deg": args.deg, "self": args.self_int},
            "count": len(classes),
            "classes": [list(c.coeffs) for c in classes],
        }
        print(_dump_json(obj))
    elif classes:
        # One write for the whole listing; an empty listing prints nothing.
        print("\n".join(" ".join(map(str, c.coeffs)) for c in classes))
    return EXIT_OK


def _cmd_lct(args) -> int:
    from . import clusters
    from .configio import certificate_to_json_obj, certificate_to_text, parse_config_file
    from .rationals import format_rational, parse_rational

    # Only reading the file and building the configuration are guarded
    # here: a closed stdout is an OSError too, and building is the one step
    # that checks the declared intersections against the lattice.
    try:
        cfg = parse_config_file(args.config)
    except FileNotFoundError:
        return _fail(f"no such file: {args.config}")
    except OSError as e:
        return _fail(f"cannot read {args.config}: {e.strerror}")
    except UnicodeDecodeError as e:
        return _fail(f"cannot read {args.config}: {e}")
    except clusters.InconsistentConfigError as e:
        return _fail(f"inconsistent intersections: {e}", EXIT_INCONSISTENT)
    # The engine refuses an unknown --point (after a negative lambda).
    lam = None if args.lam is None else parse_rational(args.lam)
    if lam is None:
        verdict, cert = True, clusters.certificate(cfg, args.point)
    else:
        verdict, cert = clusters.is_log_canonical(cfg, lam, args.point)
    if args.json:
        obj = certificate_to_json_obj(cert)
        if lam is not None:
            obj["lambda"] = format_rational(lam)
            obj["log_canonical"] = verdict
        print(_dump_json(obj))
    else:
        if lam is not None:
            print(f"log_canonical = {'true' if verdict else 'false'} at lambda = "
                  f"{format_rational(lam)}")
        print(certificate_to_text(cert))
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name](args.seed, args.cases) for name in names]
    if args.json:
        objs = [r.to_json_obj() for r in reports]
        print(_dump_json(objs if args.suite == "all" else objs[0]))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NEGATIVE


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    if args.command == "verify":
        return _cmd_verify(args)
    # The boundary for all other bad input.  Every error the package raises
    # for it is a ValueError (ClusterError, LatticeError, ConfigSyntaxError,
    # ConfigSchemaError, a malformed --lambda).
    try:
        return _cmd_classes(args) if args.command == "classes" else _cmd_lct(args)
    except ValueError as e:
        return _fail(str(e))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten output cannot raise again on exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
