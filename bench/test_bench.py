"""Tests of the benchmark itself: its checks fail on wrong values, its
inputs follow the seed, its tracer and comparison do their arithmetic.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import config_inputs as ci
import lattice_inputs as li
import run
import workloads
from tracing import NullRecorder, Tracer
from worker import ROOT, load_package

PKG = load_package(ROOT)


def first(wl, kind):
    return next(op for op in wl.ops if op.kind == kind)


def test_lattice_checks_catch_wrong_counts_and_isometries(monkeypatch):
    wl = workloads.LatticeOrbits(PKG, 3, ROOT)
    enum = first(wl, "enum")
    out = wl.run(enum, NullRecorder())
    assert wl.check(enum, out) is None
    monkeypatch.setitem(workloads.CLASS_COUNTS, 1, (241, 2160, 17520, 82560))
    assert "expected 241" in wl.check(enum, out)

    line = first(wl, "line3")
    iso = wl.run(line, NullRecorder())
    assert wl.check(line, iso) is None
    d, sources = line.desc
    wrong = replace(line, desc=[d, [li.basis(9 - d, 3)]])
    assert "isometry sends" in wl.check(wrong, iso)


def test_threshold_checks_catch_wrong_thresholds():
    wl = workloads.ThresholdBatch(PKG, 3, ROOT)
    for kind in ("witness", "germ", "explicit", "chain"):
        op = first(wl, kind)
        assert wl.check(op, wl.run(op, NullRecorder())) is None, kind
    op = first(wl, "witness")
    out = wl.run(op, NullRecorder())
    variant = op.args[1]
    wl.omega[variant] += Fraction(1, 7)
    assert "table" in wl.check(op, out)

    op = first(wl, "explicit")
    out = wl.run(op, NullRecorder())
    index, variant, text, spec, params = op.args
    doubled = {c: 2 * d for c, d in spec.coeffs.items()}
    tampered = replace(op, args=(index, variant, text, replace(spec, coeffs=doubled), params))
    assert "oracle" in wl.check(tampered, out)


def test_suite_checks_catch_failures_and_short_runs():
    wl = workloads.VerifySuites(PKG, 3, ROOT)
    op = first(wl, "glct.table1")
    rep, text, obj = wl.run(op, NullRecorder())
    assert wl.check(op, (rep, text, obj)) is None
    failing = PKG.report.CheckResult("x", "1", "2", False)
    bad = PKG.report.Report(rep.suite, rep.results + (failing,))
    assert "failed" in wl.check(op, (bad, bad.to_text(), bad.to_json_obj()))

    op = first(wl, "properties.skoda")
    rep, text, obj = wl.run(op, NullRecorder())
    assert wl.check(op, (rep, text, obj)) is None
    too_few = replace(rep.results[0], computed="3 instances, 0 failures")
    short = PKG.report.Report(rep.suite, (too_few,))
    assert "needs >=" in wl.check(op, (short, short.to_text(), short.to_json_obj()))


def test_cli_checks_compare_with_the_in_process_reference():
    wl = workloads.CliSession(PKG, 3, ROOT)
    op = first(wl, "lct_lambda")
    key = tuple(op.args[0])
    wl.reference[key] = wl._reference(*op.args)
    out = wl.run(op, NullRecorder())
    assert wl.check(op, out) is None
    assert "stdout differs" in wl.check(op, (out[0] + b"x", out[1]))
    assert "exit code" in wl.check(op, (out[0], 3))
    broken = first(wl, "malformed")
    stdout, problem = wl._reference(*broken.args)
    assert stdout == b"" and problem is None


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    a, b, c = (cls(PKG, s, ROOT).input_digest() for s in (5, 5, 6))
    assert a == b != c


def test_stratified_picks_follow_the_orbit_mix():
    r = 7
    start = (li.basis(r, 1), li.basis(r, 2))
    dist = li.orbit_distances(start, r)
    assert len(dist) == 56 * 27
    picks = li.stratified_picks(start, r, random.Random(1), 200)
    for d in set(dist.values()) - {0}:
        share = sum(dist[s] == d for s in dist) / (len(dist) - 1)
        got = sum(dist[p] == d for p in picks) / len(picks)
        assert abs(got - share) < 0.03


def test_generated_clusters_are_valid():
    rng = random.Random(0)
    for _ in range(200):
        nodes = ci.random_cluster_nodes(rng, ["A", "B"], 8)
        PKG.clusters.WeightedCluster(tuple(PKG.clusters.ClusterNode(*n) for n in nodes), ("A", "B"))


def test_tracer_self_time_subtracts_children():
    t = Tracer()
    t.start_op(0)
    t.call("outer", lambda: t.call("inner", sum, range(10000)))
    t.end_op()
    totals = t.layer_totals()
    outer = totals["outer"]
    inner = totals["inner"]
    assert outer[0] == inner[0] == 1
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    assert [s[3] for s in t.spans] == [-1, 0, 1]


def test_verdicts():
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert run.verdict(steady, [v * 1.3 for v in steady], 0.2, "lower") == "regressed"
    assert run.verdict(steady, [v * 1.3 for v in steady], 0.2, "higher") == "improved"
    assert run.verdict(steady, [v * 1.05 for v in steady], 0.2, "lower") == "unchanged"
    noisy = [50, 150, 70, 130, 100, 60, 140, 100, 80, 120]
    assert run.verdict(steady, noisy, 0.2, "lower") == "unresolved"


def test_benchmark_spec_matches_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "threshold_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
