"""One workload process: set-up, then the timed (or traced) closed loop.

Started by ``run.py``; not meant to be run by hand.  It imports the
package from ``src/`` of the checkout it lives in, builds the workload's
seeded inputs, runs one warm-up op per op kind and prints ``READY``.  The
parent times set-up from process start to that line.  A ``--probe``
worker exits there; a measuring worker goes on with one client in a
closed loop and prints one JSON line with its results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import workloads
from tracing import OP_SPAN, NullRecorder, Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("lattice", "clusters", "configio", "glct", "oracles", "properties", "report", "cli")


class SetupError(Exception):
    pass


def load_package(root):
    """The package modules, imported from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "delpezzo_lct" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("delpezzo_lct")
    if Path(pkg.__file__).resolve().parent != (src / "delpezzo_lct").resolve():
        raise SetupError(f"imported delpezzo_lct from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"delpezzo_lct.{m}") for m in MODULES})


def closed_loop(wl, rec, seconds=None, op_limit=None, counts=None):
    """Run ops back to back until ``seconds`` of op time or ``op_limit`` ops.

    Only the op itself is timed; its check runs afterwards, and a timed loop
    also stops once its wall time passes 2 * seconds + 30.  An op that
    raises counts as failed, with its message kept, and the loop goes on.
    """
    latencies, failures = [], []
    op_time = 0.0
    wall_limit = time.perf_counter() + (2 * seconds + 30 if seconds else float("inf"))
    i = 0
    while (op_limit is None and op_time < seconds and time.perf_counter() < wall_limit) or (
            op_limit is not None and i < op_limit):
        op = wl.ops[i % len(wl.ops)]
        rec.start_op(i)
        t0 = time.perf_counter()
        try:
            out, problem = wl.run(op, rec), None
        except Exception as e:  # a failing op is a result to report, not a crash
            out, problem = None, f"{op.kind}: {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        rec.end_op()
        if problem is None:
            problem = wl.check(op, out)
        if counts is not None:
            wl.count(op, out, problem is not None, counts)
        if problem is not None:
            failures.append(f"op {i}: {problem}")
        latencies.append(dt)
        op_time += dt
        i += 1
    return latencies, failures


def end_to_end(wl, latencies, failures):
    n = len(latencies)
    return {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * (statistics.quantiles(latencies, n=10)[8] if n > 1 else latencies[0]),
        "peak_rss_mb": wl.peak_rss_mb(),
        "fail_frac": len(failures) / n,
    }


def per_layer(wl, tracer, counts, names):
    """Every per-layer metric the benchmark declares; 0 for a layer the
    workload does not call."""
    totals = tracer.layer_totals()
    extra = wl.extra_metrics(tracer, counts)
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in extra:
            out[name] = extra[name]
        elif name == "bench.driver.self_s":
            out[name] = totals.get(OP_SPAN, (0, 0.0, 0.0))[2]
        elif field == "calls":
            out[name] = totals.get(span, (0, 0.0, 0.0))[0]
        elif field == "self_s":
            out[name] = totals.get(span, (0, 0.0, 0.0))[2]
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    try:
        pkg = load_package(ROOT)
    except (SetupError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](pkg, args.seed, ROOT)
    wl.warm_up(NullRecorder())
    print("READY", flush=True)
    if args.probe:
        return 0

    result = {"input_sha256": wl.input_digest(), "ops_listed": len(wl.ops)}
    if not args.trace:
        latencies, failures = closed_loop(wl, NullRecorder(), seconds=args.seconds)
        result["metrics"] = end_to_end(wl, latencies, failures)
    else:
        # Half the time untraced, then exactly the same ops traced: the
        # ratio of the two op times is the tracing overhead.
        plain, failures = closed_loop(wl, NullRecorder(), seconds=args.seconds / 2)
        tracer, counts = Tracer(), defaultdict(int)
        traced, traced_failures = closed_loop(wl, tracer, op_limit=len(plain), counts=counts)
        failures += traced_failures
        latencies = plain + traced
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(wl, tracer, counts, names)
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        result["metrics"] = {k: v for k, v in metrics.items() if k in names}
        if args.spans:
            tracer.write(args.spans)
    result.update(attempted=len(latencies), failed=len(failures), failures=failures[:10])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
