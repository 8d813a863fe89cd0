"""The four workloads: seeded inputs, the timed operation and its checks.

Each workload builds a fixed, seeded list of operations at set-up.  The
timed loop runs them in order (wrapping round if a run outlasts the list);
``run`` is the timed part and calls into the package only through the
recorder, so a traced run gets one span per call.  ``check`` runs after
the clock stops and compares the outputs with a path that shares no code
with the one measured: the benchmark's own lattice arithmetic, the
blow-up simulator and germ resolver in ``oracles``, tabulated counts and
thresholds, or a reference taken in set-up.  ``check`` returns None or a
message saying what was wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import config_inputs as ci
import lattice_inputs as li


@dataclass
class Op:
    kind: str
    desc: object  # JSON-serialisable description, hashed into the input digest
    args: tuple = ()


def _rng(seed, stream):
    return random.Random(f"{seed}/{stream}")


def _fmt(q):
    return "inf" if q is None else str(Fraction(q))


def _rusage_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, pkg, seed, root):
        self.pkg = pkg
        self.root = Path(root)
        self.ops = []

    def input_digest(self):
        blob = json.dumps([[op.kind, op.desc] for op in self.ops], sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def warm_up(self, rec):
        """One untimed op per kind, so lazy caches are full before timing."""
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                problem = self.check(op, self.run(op, rec))
                if problem:
                    raise RuntimeError(f"warm-up {op.kind}: {problem}")

    def run(self, op, rec):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def count(self, op, out, failed, counts):
        """Work counters of a traced op, taken from its inputs and outputs."""

    def extra_metrics(self, tracer, counts):
        return {}

    def peak_rss_mb(self):
        return _rusage_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# lattice_orbits


ENUM_ROWS = ((1, -1), (2, 0), (3, 1), (4, 2))
# Tabulated numbers of genus-0 classes per (deg, self) row of ENUM_ROWS, by
# surface degree; on the cubic surface these are the classical 27 lines,
# 27 conic pencils, 72 twisted-cubic and 216 rational-quartic classes.
CLASS_COUNTS = {
    1: (240, 2160, 17520, 82560),
    2: (56, 126, 576, 2072),
    3: (27, 27, 72, 216),
}
# Per cycle: every enumeration query, some repeated, then the searches.
# The enumerations are the same for every seed; the repeats put about a
# third of the ops at the ~17 ms queries (degree 1 conics, degree 2 (4,2))
# and a twelfth at degree 1 cubics (~0.2 s), so the median and the 90th
# percentile each fall inside one query's latency band.
ENUM_REPEAT = {(1, 2, 0): 6, (2, 4, 2): 6, (1, 3, 1): 3}
# (kind, surface degree, per cycle, largest BFS distance).  Search inputs
# come from ``stratified_picks``, so each seed sees the same mix of search
# depths.  Degree-2 pairs stop at distance 2: deeper ones take 0.2-2.5 s
# each with a sixfold spread inside one distance, which no 24 s run can
# average out; they run the same code as the included searches.
SEARCHES_PER_CYCLE = (
    ("line", 1, 2, None), ("line", 2, 3, None), ("line", 3, 3, None),
    ("pair", 3, 3, None), ("pair", 2, 1, 2),
)
LATTICE_CYCLES = 24


class LatticeOrbits(Workload):
    name = "lattice_orbits"

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        lattice = pkg.lattice
        self.surfaces = {d: lattice.make_surface(d) for d in (1, 2, 3)}
        picks = {}
        for kind, d, per_cycle, max_distance in SEARCHES_PER_CYCLE:
            r = 9 - d
            start = (li.basis(r, 1),) if kind == "line" else (li.basis(r, 1), li.basis(r, 2))
            picks[kind, d] = iter(li.stratified_picks(
                start, r, _rng(seed, f"{kind}{d}"), per_cycle * LATTICE_CYCLES, max_distance))
        self.enum_digest = {}
        for _ in range(LATTICE_CYCLES):
            for d in (1, 2, 3):
                for deg, self_int in ENUM_ROWS:
                    op = Op("enum", [d, deg, self_int], (self.surfaces[d], deg, self_int))
                    self.ops.extend([op] * ENUM_REPEAT.get((d, deg, self_int), 1))
            for kind, d, per_cycle, _ in SEARCHES_PER_CYCLE:
                r = 9 - d
                goals = (li.basis(r, 1), li.basis(r, 2))
                for _ in range(per_cycle):
                    sources = next(picks[kind, d])
                    s = self.surfaces[d]
                    targets = [(lattice.DivisorClass(s, src), lattice.DivisorClass(s, g))
                               for src, g in zip(sources, goals)]
                    self.ops.append(Op(f"{kind}{d}", [d, sources], (s, targets)))

    def warm_up(self, rec):
        """A line enumeration and one-reflection searches on each surface:
        they fill the generator cache at a cost no seed changes."""
        lattice = self.pkg.lattice
        for d, s in self.surfaces.items():
            e1, e2 = s.basis_class(1), s.basis_class(2)
            lattice.enumerate_classes(s, 1, -1)
            lattice.find_model_isometry(s, [(e2, e1)])
            if d > 1:
                lattice.find_model_isometry(s, [(e2, e1), (e1, e2)])

    def run(self, op, rec):
        lattice = self.pkg.lattice
        if op.kind == "enum":
            return rec.call("lattice.enumerate_classes", lattice.enumerate_classes, *op.args)
        return rec.call("lattice.find_model_isometry", lattice.find_model_isometry, *op.args)

    def check(self, op, out):
        if op.kind == "enum":
            d, deg, self_int = op.desc
            coeffs = [c.coeffs for c in out]
            want = CLASS_COUNTS[d][ENUM_ROWS.index((deg, self_int))]
            if len(coeffs) != want:
                return f"degree {d} ({deg},{self_int}): {len(coeffs)} classes, expected {want}"
            digest = hashlib.sha256(repr(coeffs).encode()).hexdigest()
            key = tuple(op.desc)
            if key not in self.enum_digest:
                for c in coeffs:
                    if li.anticanonical_degree(c) != deg or li.pairing(c, c) != self_int:
                        return f"class {c} has the wrong degree or self-intersection"
                if any(a >= b for a, b in zip(coeffs, coeffs[1:])):
                    return "classes are not distinct and sorted"
                self.enum_digest[key] = digest
            elif digest != self.enum_digest[key]:
                return "class list differs from the first run of the same query"
            return None
        d, sources = op.desc
        r = 9 - d
        m = out.matrix
        if not li.is_isometry(m, r):
            return "returned matrix is not a K-fixing isometry"
        for src, (_, goal) in zip(sources, op.args[1]):
            if li.matvec(m, src) != goal.coeffs:
                return f"isometry sends {src} to {li.matvec(m, src)}, not {goal.coeffs}"
        return None

    def count(self, op, out, failed, counts):
        if op.kind == "enum":
            counts["lattice.enumerate_classes.classes_emitted"] += len(out) if out else 0
        elif failed:
            counts["lattice.find_model_isometry.failed"] += 1


# ---------------------------------------------------------------------------
# threshold_batch

# Pool per seed: the 13 witnesses, catalogued-germ and explicit-cluster
# configurations, and long free chains.  Chains are about a fifth of the
# pool so that the 90th percentile falls among them; their lengths are
# the same for every seed, evenly spread over 250..1000 nodes, since the
# cost of a chain grows with the square of its length.
GERM_CONFIGS = 36
EXPLICIT_CONFIGS = 24
CHAIN_LENGTHS = tuple(250 + 750 * i // 15 for i in range(16))
LAMBDA_GRID = 4
SCALES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 3), Fraction(3, 2))


def witness_files(root):
    return sorted((Path(root) / "bench" / "data").glob("*.json"))


class ThresholdBatch(Workload):
    name = "threshold_batch"

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        self.omega = {sc.variant: sc.omega for sc in pkg.glct.SCENARIOS}
        rng = _rng(seed, "configs")
        pool = []
        for path in witness_files(root):
            text = path.read_text(encoding="utf-8")
            pool.append(("witness", path.stem, text, ci.witness_spec(text)))
        germs = [("germ", None, *ci.germ_config(rng)) for _ in range(GERM_CONFIGS)]
        explicit = [("explicit", None, *ci.explicit_config(rng)) for _ in range(EXPLICIT_CONFIGS)]
        # Ascending, so the warm-up op (the first of each kind) is the shortest.
        chains = [("chain", None, *ci.chain_config(rng, n)) for n in CHAIN_LENGTHS]
        small = pool + germs + explicit
        rng.shuffle(small)
        # Spread the chains evenly through the cycle.
        step = len(small) / len(chains)
        order = []
        for i, chain in enumerate(chains):
            order.extend(small[round(i * step):round((i + 1) * step)])
            order.append(chain)
        self.oracle = {}
        for index, (kind, variant, text, spec) in enumerate(order):
            comps = list(spec.coeffs)
            bump = {rng.choice(comps): Fraction(rng.randint(1, 12), rng.randint(2, 9))}
            point = None
            if spec.points and spec.basis == "blowup":
                point = rng.choice(spec.points)[0]
            params = {
                "grid": ci.lambda_grid(rng, LAMBDA_GRID),
                "scale": rng.choice(SCALES),
                "bump": bump,
                "point": point,
            }
            desc = {"kind": kind, "text": text,
                    "grid": [str(q) for q in params["grid"]], "scale": str(params["scale"]),
                    "bump": {c: str(q) for c, q in bump.items()}, "point": point}
            self.ops.append(Op(kind, desc, (index, variant, text, spec, params)))

    def run(self, op, rec):
        clusters, configio = self.pkg.clusters, self.pkg.configio
        _, _, text, _, params = op.args
        cfg = rec.call("configio.parse", configio.parse_config_text, text)
        cert = rec.call("clusters.certificate", clusters.lct_global, cfg)
        verdicts = [rec.call("clusters.is_log_canonical", clusters.is_log_canonical, cfg, lam)[0]
                    for lam in params["grid"]]
        scaled = rec.call("clusters.rebuild", clusters.scale_configuration, cfg, params["scale"])
        bumped = rec.call("clusters.rebuild", clusters.with_coefficients, cfg, params["bump"])
        bumped_cert = rec.call("clusters.certificate", clusters.lct_global, bumped)
        blown_lc = None
        if params["point"] is not None:
            blown = rec.call("clusters.transform_by_blowup", clusters.transform_by_blowup,
                             scaled, params["point"])
            blown_lc = rec.call("clusters.is_log_canonical", clusters.is_log_canonical,
                                blown, Fraction(1))[0]
        rendered = rec.call("configio.render", configio.certificate_to_json_obj, cert)
        return cert, verdicts, bumped_cert, blown_lc, rendered

    def _tables(self, index, spec):
        """(valuations, discrepancies) per point, from the blow-up simulator."""
        if index not in self.oracle:
            oracles, clusters = self.pkg.oracles, self.pkg.clusters
            tables = []
            for point in spec.points:
                if point[1] == "germ":
                    _, _, kind, branches, assign = point
                    cluster = oracles.resolve_germ(clusters.Germ(kind, branches), assign)
                else:
                    _, _, nodes, comps = point
                    cluster = clusters.WeightedCluster(
                        tuple(clusters.ClusterNode(*n) for n in nodes), comps)
                tables.append(oracles.simulate_pullbacks(cluster))
            self.oracle[index] = tables
        return self.oracle[index]

    def check(self, op, out):
        index, variant, _, spec, params = op.args
        cert, verdicts, bumped_cert, blown_lc, rendered = out
        tables = self._tables(index, spec)
        want = ci.oracle_lct(spec.coeffs, tables)
        if cert.lct != want:
            return f"lct {_fmt(cert.lct)}, oracle {_fmt(want)}"
        if variant is not None and cert.lct != self.omega[variant]:
            return f"witness {variant}: lct {_fmt(cert.lct)}, table {_fmt(self.omega[variant])}"
        expected = [want is None or lam <= want for lam in params["grid"]]
        if verdicts != expected:
            return f"log canonical verdicts {verdicts} at {params['grid']}, expected {expected}"
        bumped = dict(spec.coeffs, **params["bump"])
        want_bumped = ci.oracle_lct(bumped, tables)
        if bumped_cert.lct != want_bumped:
            return (f"lct after with_coefficients {_fmt(bumped_cert.lct)}, "
                    f"oracle {_fmt(want_bumped)}")
        if params["point"] is not None:
            # Log pull-back is crepant: lc before the blow-up iff lc after.
            lc_before = want is None or params["scale"] <= want
            if blown_lc != lc_before:
                return f"blown-up pair lc = {blown_lc}, expected {lc_before}"
        if rendered["lct"] != _fmt(want):
            return f"rendered lct {rendered['lct']}, expected {_fmt(want)}"
        if len(rendered["rows"]) != spec.nodes():
            return f"rendered {len(rendered['rows'])} rows for {spec.nodes()} cluster points"
        if len(rendered["component_bounds"]) != len(spec.coeffs):
            return "rendered component bounds do not match the components"
        return None

    def count(self, op, out, failed, counts):
        _, _, text, spec, _ = op.args
        counts["configio.parse.bytes"] += len(text.encode("utf-8"))
        counts["configio.parse.nodes"] += spec.nodes()
        counts["clusters.rebuild.nodes"] += 2 * spec.nodes()
        if out is not None:
            cert, _, bumped_cert, _, rendered = out
            counts["clusters.certificate.rows"] += len(cert.rows) + len(bumped_cert.rows)
            counts["configio.render.bytes"] += len(json.dumps(rendered, sort_keys=True))


# ---------------------------------------------------------------------------
# verify_suites

PROPERTY_SUITES = (
    "skoda", "adjunction", "theorem_disjunction", "convexity",
    "blowup_transfer", "monotonicity", "order_independence", "oracle_equivalence",
)
GLCT_SUITES = (
    ("table1", "verify_table1"),
    ("lines", "verify_lines"),
    ("lemmaG", "verify_lemma_G_all"),
    ("lemmaH", "verify_lemma_H_all"),
    ("corollary", "verify_corollary"),
    ("complementary", "verify_complementary_sections"),
    ("bound_chain", "verify_degree4_bound_chain"),
)
SUITE_CASES = 40
# Per cycle: each verification suite once, each property suite twice and
# theorem_disjunction (the rejection-heavy one) four times, so the median
# falls among the property suites and the 90th percentile among the
# theorem_disjunction calls.
HEAVY_SUITE, HEAVY_REPEAT, PROPERTY_REPEAT = "theorem_disjunction", 4, 2
SUITE_CYCLES = 40
_INSTANCES_RE = re.compile(r"(\d+) instances")


class VerifySuites(Workload):
    name = "verify_suites"

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        rng = _rng(seed, "suites")
        for _ in range(SUITE_CYCLES):
            for short, fn in GLCT_SUITES:
                self.ops.append(Op(f"glct.{short}", [short], (short, getattr(pkg.glct, fn))))
            for suite in PROPERTY_SUITES:
                repeat = HEAVY_REPEAT if suite == HEAVY_SUITE else PROPERTY_REPEAT
                for _ in range(repeat):
                    s = rng.randrange(1 << 30)
                    fn = getattr(pkg.properties, f"run_{suite}")
                    self.ops.append(
                        Op(f"properties.{suite}", [suite, s, SUITE_CASES], (suite, fn, s)))

    @staticmethod
    def _render(rep):
        return rep.to_text(), rep.to_json_obj()

    def run(self, op, rec):
        if op.kind.startswith("glct."):
            short, fn = op.args
            rep = rec.call(op.kind, fn)
        else:
            suite, fn, s = op.args
            result = rec.call(f"properties.{suite}", fn, s, SUITE_CASES)
            rep = self.pkg.report.Report(f"properties.{suite}", (result,),
                                         seed=s, cases=SUITE_CASES)
        text, obj = rec.call("report.render", self._render, rep)
        return rep, text, obj

    def check(self, op, out):
        rep, text, obj = out
        n = len(rep.results)
        if n == 0:
            return f"suite {rep.suite} ran no checks"
        failed = [r.check_id for r in rep.results if not r.passed]
        if failed:
            return f"suite {rep.suite}: failed {failed[:3]}"
        lines = text.splitlines()
        if lines[-1] != f"suite {rep.suite}: {n}/{n} checks passed" or any(
                line.startswith("FAIL") for line in lines):
            return f"suite {rep.suite}: text report reads {lines[-1]!r}"
        if obj["passed"] is not True or obj["total"] != n or obj["passed_count"] != n:
            return f"suite {rep.suite}: JSON report disagrees with its checks"
        if op.kind.startswith("properties."):
            m = _INSTANCES_RE.search(rep.results[0].computed)
            if m is None or int(m.group(1)) < SUITE_CASES:
                return f"{rep.suite}: {rep.results[0].computed}, needs >= {SUITE_CASES} instances"
        return None

    def count(self, op, out, failed, counts):
        if out is None:
            return
        rep = out[0]
        if op.kind.startswith("glct."):
            counts[f"{op.kind}.checks"] += len(rep.results)
        else:
            m = _INSTANCES_RE.search(rep.results[0].computed)
            counts[f"properties.{op.args[0]}.asserted"] += int(m.group(1)) if m else 0

    def extra_metrics(self, tracer, counts):
        totals = tracer.layer_totals()
        out = {}
        for suite in PROPERTY_SUITES:
            asserted = counts[f"properties.{suite}.asserted"]
            self_s = totals.get(f"properties.{suite}", (0, 0.0, 0.0))[2]
            out[f"properties.{suite}.ms_per_asserted"] = (
                1000.0 * self_s / asserted if asserted else 0.0)
        return out


# ---------------------------------------------------------------------------
# cli_session

# Classes queries: (surface degree, deg, self, --json), listing 72 to 2160
# classes; every other cycle lists the 17520 degree-1 cubics instead.
CLI_LISTINGS = ((1, 1, -1, False), (1, 2, 0, False), (2, 2, 0, False),
                (2, 3, 1, True), (3, 3, 1, True), (1, 2, 0, True))
CLI_CUBICS = (1, 3, 1, False)
# Per cycle of 19: 14 short calls (lct, lct --lambda --json, a malformed
# file, the corollary suite), two listings and three runs of the line
# suite, so the median falls among the short calls and the 90th percentile
# among the line suite runs.
CLI_LCT, CLI_LAMBDA, CLI_LINE_SUITES = 7, 5, 3
CLI_CYCLES = 16
CLI_PROBES = 5
_SUITE_LINE_RE = re.compile(r"^suite \S+: (\d+)/(\d+) checks passed$")


def _classes_argv(q):
    d, deg, self_int, as_json = q
    argv = ["classes", "--degree", str(d), "--deg", str(deg), "--self", str(self_int)]
    return argv + ["--json"] if as_json else argv


class CliSession(Workload):
    name = "cli_session"

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        self.omega = {sc.variant: sc.omega for sc in pkg.glct.SCENARIOS}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        rng = _rng(seed, "session")
        files = witness_files(root)
        work = self.root / "bench" / "work"
        work.mkdir(exist_ok=True)
        # Malformed inputs: a witness cut short, which no JSON parser accepts.
        broken = []
        for n in range(2):
            text = rng.choice(files).read_text(encoding="utf-8").rstrip()
            path = work / f"input{n}.json"
            path.write_text(text[:rng.randrange(1, len(text) - 1)], encoding="utf-8")
            broken.append(path)
        for c in range(CLI_CYCLES):
            for _ in range(CLI_LCT):
                f = rng.choice(files)
                self._add("lct", ["lct", self._rel(f)], 0, f.stem)
            for _ in range(CLI_LAMBDA):
                f = rng.choice(files)
                om = self.omega[f.stem]
                lam = rng.choice((om, om + Fraction(1, 12), om / 2))
                self._add("lct_lambda", ["lct", self._rel(f), "--lambda", str(lam), "--json"],
                          0 if lam <= om else 1, f.stem)
            self._add("malformed", ["lct", self._rel(broken[c % 2])], 2, None)
            self._add("verify", ["verify", "--suite", "corollary"], 0, None)
            for q in (rng.choice(CLI_LISTINGS), CLI_CUBICS if c % 2 else rng.choice(CLI_LISTINGS)):
                self._add("classes_json" if q[3] else "classes", _classes_argv(q), 0, q)
            for _ in range(CLI_LINE_SUITES):
                self._add("verify", ["verify", "--suite", "lines"], 0, None)
        self.reference = {}

    def _rel(self, path):
        return str(Path(path).relative_to(self.root))

    def _add(self, kind, argv, rc, about):
        self.ops.append(Op(kind, [argv, rc], (argv, rc, about)))

    def input_digest(self):
        h = hashlib.sha256(super().input_digest().encode())
        work = sorted((self.root / "bench" / "work").glob("input*.json"))
        for path in witness_files(self.root) + work:
            h.update(path.read_bytes())
        return h.hexdigest()

    def _reference(self, argv, rc, about):
        """In-process `cli.main` output, checked against independent facts."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            got_rc = self.pkg.cli.main(list(argv))
        text = buf.getvalue()
        if got_rc != rc:
            return text.encode("utf-8"), f"in-process exit code {got_rc}, expected {rc}"
        try:
            problem = self._content_problem(argv, rc, about, text)
        except (ValueError, LookupError) as e:
            problem = f"{' '.join(argv)}: unreadable output ({e})"
        return text.encode("utf-8"), problem

    def _content_problem(self, argv, rc, about, text):
        lines = text.splitlines()
        if argv[0] == "lct" and rc == 2:
            return "malformed input printed output" if text else None
        if argv[0] == "lct" and "--json" in argv:
            obj = json.loads(text)
            lam = Fraction(argv[argv.index("--lambda") + 1])
            om = self.omega[about]
            if obj["lct"] != _fmt(om) or obj["log_canonical"] != (lam <= om):
                return f"lct {obj['lct']} / log_canonical {obj['log_canonical']} for {about}"
            return None
        if argv[0] == "lct":
            if lines[0] != f"lct = {_fmt(self.omega[about])}":
                return f"{about}: {lines[0]!r}"
            return None
        if argv[0] == "classes":
            d, deg, self_int, as_json = about
            want = CLASS_COUNTS[d][ENUM_ROWS.index((deg, self_int))]
            got = json.loads(text)["count"] if as_json else len(lines)
            return f"classes {about}: {got} classes, expected {want}" if got != want else None
        m = _SUITE_LINE_RE.match(lines[-1])
        if m is None or m.group(1) != m.group(2):
            return f"{' '.join(argv)}: {lines[-1]!r}"
        return None

    def warm_up(self, rec):
        for op in self.ops:
            key = tuple(op.args[0])
            if key not in self.reference:
                self.reference[key] = self._reference(*op.args)
        super().warm_up(rec)

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "delpezzo_lct", *argv], cwd=self.root,
                              env=self.env, capture_output=True, check=False)
        return proc.stdout, proc.returncode

    def run(self, op, rec):
        return rec.call(f"cli.{op.kind}", self._spawn, op.args[0])

    def check(self, op, out):
        argv, rc, _ = op.args
        stdout, got_rc = out
        ref, problem = self.reference[tuple(argv)]
        if problem:
            return problem
        if got_rc != rc:
            return f"{' '.join(argv)}: exit code {got_rc}, expected {rc}"
        if stdout != ref:
            return f"{' '.join(argv)}: stdout differs from the in-process reference"
        return None

    def peak_rss_mb(self):
        return _rusage_mb(resource.RUSAGE_CHILDREN)

    def _probe_ms(self, code):
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True)
            times.append(1000.0 * (time.perf_counter() - t0))
        return statistics.median(times)

    def extra_metrics(self, tracer, counts):
        interpreter = self._probe_ms("pass")
        out = {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": self._probe_ms("import delpezzo_lct") - interpreter,
        }
        for sub, kinds in (("lct", ("lct", "lct_lambda")), ("classes", ("classes", "classes_json")),
                           ("verify", ("verify",))):
            durations = [d for k in kinds for d in tracer.durations(f"cli.{k}")]
            out[f"cli.{sub}_ms"] = 1000.0 * statistics.median(durations) if durations else 0.0
        return out


WORKLOADS = {w.name: w for w in (LatticeOrbits, ThresholdBatch, VerifySuites, CliSession)}
