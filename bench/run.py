#!/usr/bin/env python3
"""Benchmark of the delpezzo_lct toolkit: four seeded workloads.

Run from the root of a checkout; only the standard library is needed:

    python3 bench/run.py --workload lattice_orbits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --compare RESULTS_A RESULTS_B

A run prints its metrics by name, with units, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end ones declared in BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The exit status is 0 only when every op
passed its check.

Each workload runs in its own worker process (``worker.py``), one client
in a closed loop.  Set-up time is measured from the worker's start to its
first timed op; it is taken on that worker and on SETUP_PROBES extra
workers that stop there, and the median is reported.  Every run also
writes a record (metrics, sha256 of the generated inputs, Python version,
CPU count, load average) to the results directory; ``--compare`` reads two
such directories and prints each side's median and quartiles per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("lattice_orbits", "threshold_batch", "verify_suites", "cli_session")
SETUP_PROBES = 2
SETUP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


def _worker(workload, seed, seconds, trace, probe=False, spans=None):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(SETUP_TIMEOUT_S) and proc.stdout.readline().strip() == "READY"
    elapsed = time.perf_counter() - t0
    if not ready:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker did not finish set-up (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(workload, seed, seconds, trace, results):
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "loadavg_1m": os.getloadavg()[0]}
    results.mkdir(parents=True, exist_ok=True)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, elapsed = _worker(workload, seed, seconds, trace, probe=True)
            _finish(proc, 60)
            setups.append(elapsed)
    spans = results / f"{workload}-seed{seed}-spans.jsonl" if trace else None
    proc, elapsed = _worker(workload, seed, seconds, trace, spans=spans)
    setups.append(elapsed)
    res = json.loads(_finish(proc, 2 * seconds + 90).strip().splitlines()[-1])
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    record = dict(workload=workload, seed=seed, trace=trace, seconds=seconds, env=env,
                  setup_samples=setups, **res)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def report(record, spec):
    """Human-readable lines, then the one-line JSON result."""
    trace = record["trace"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, n = record["metrics"], record["attempted"]
    env = record["env"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {trace}")
    print(f"   inputs sha256 {record['input_sha256']}  ({record['ops_listed']} ops listed)")
    print(f"   env python {env['python']}  cpu_count {env['cpu_count']}  "
          f"loadavg_1m {env['loadavg_1m']:.2f}  seed {record['seed']}  ops {n}")
    notes = {
        "setup_s": f"median of {len(record['setup_samples'])} set-ups",
        "ops_per_s": f"{n} ops, one client, closed loop",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
    }
    for m in declared:
        value = metrics[m["name"]]
        print(f"   {m['name']:<44} {value:>14.6g} {m['unit']:<6} {notes.get(m['name'], '')}")
    if not trace:
        print(f"   {'fail_frac':<44} {metrics['fail_frac']:>14.6g} {'ratio':<6} "
              f"{record['failed']} of {n} failed")
    for line in record["failures"]:
        print(f"   FAILED {line}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": n,
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


# ---------------------------------------------------------------------------
# Comparison of two sets of runs


def _summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def verdict(a, b, bound, better):
    """Compare two sets of values of one metric.

    "unresolved" when either side's own quartile spread exceeds the bound;
    otherwise "regressed"/"improved" when B's median differs from A's by
    more than the bound in the metric's direction, else "unchanged".
    """
    med_a, _, _, spread_a = _summary(a)
    med_b, _, _, spread_b = _summary(b)
    if spread_a > bound or spread_b > bound:
        return "unresolved"
    change = (med_b - med_a) / med_a
    if better == "higher":
        change = -change
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(dir_a, dir_b, spec):
    runs_a, runs_b = _load_runs(dir_a), _load_runs(dir_b)
    regressed = False
    for workload in WORKLOADS:
        if workload not in runs_a or workload not in runs_b:
            continue
        print(f"== {workload}: A {len(runs_a[workload])} runs, B {len(runs_b[workload])} runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name] for r in runs_a[workload]]
            b = [r["metrics"][name] for r in runs_b[workload]]
            v = verdict(a, b, m["bound"], m["better"])
            regressed |= v == "regressed"
            sa, sb = _summary(a), _summary(b)
            print(f"   {name:<12} {m['unit']:<4} A {sa[0]:.6g} [{sa[1]:.6g}, {sa[2]:.6g}] "
                  f"spread {sa[3]:.3f} | B {sb[0]:.6g} [{sb[1]:.6g}, {sb[2]:.6g}] "
                  f"spread {sb[3]:.3f} | bound {m['bound']} -> {v}")
    return 1 if regressed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=BENCH / "results",
                        help="directory for run records (default bench/results)")
    parser.add_argument("--compare", nargs=2, metavar="DIR", type=Path,
                        help="compare the runs recorded in two results directories")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.workload is None:
            parser.error("--workload or --compare is required")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct = True
        for name in names:
            record = measure(name, args.seed, seconds, args.trace, args.results)
            correct &= report(record, spec)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
