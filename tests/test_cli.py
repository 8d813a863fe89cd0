"""CLI contract tests: flags, exit codes, formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo_lct.cli import main
from delpezzo_lct.configio import (
    certificate_to_json_obj,
    config_to_json_obj,
    parse_config_text,
)
from delpezzo_lct import enumerate_classes, lct_global, make_surface, witness

ROOT = Path(__file__).resolve().parents[1]

CUSP_CONFIG = """
{
  "surface": {"degree": 1, "basis": "blowup"},
  "components": [
    {"id": "C", "class": [3, -1, -1, -1, -1, -1, -1, -1, -1], "coeff": "1"}
  ],
  "points": [
    {"id": "p", "germ": "cusp", "incident": [{"component": "C", "branch": 0}]}
  ]
}
"""

TRIPLE_CONFIG = """
{
  "surface": {"degree": 4, "basis": "blowup"},
  "components": [
    {"id": "E1", "class": [0, 1, 0, 0, 0, 0], "coeff": "1"},
    {"id": "L12", "class": [1, -1, -1, 0, 0, 0], "coeff": "1"},
    {"id": "A2", "class": [2, -1, 0, -1, -1, -1], "coeff": "1"}
  ],
  "points": [
    {"id": "p", "germ": "ordinary(3)", "incident": [
      {"component": "E1", "branch": 0},
      {"component": "L12", "branch": 1},
      {"component": "A2", "branch": 2}
    ]}
  ]
}
"""

INCONSISTENT_CONFIG = """
{
  "surface": {"degree": 4, "basis": "blowup"},
  "components": [
    {"id": "E1", "class": [0, 1, 0, 0, 0, 0], "coeff": "1"},
    {"id": "E2", "class": [0, 0, 1, 0, 0, 0], "coeff": "1"}
  ],
  "points": [
    {"id": "p", "germ": "smooth_transverse(2)", "incident": [
      {"component": "E1", "branch": 0}, {"component": "E2", "branch": 1}
    ]}
  ]
}
"""


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(CUSP_CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(TRIPLE_CONFIG, encoding="utf-8")
    return str(path)


class TestClasses:
    def test_deg4_lines_row_count(self, capsys):
        assert main(["classes", "--degree", "4", "--deg", "1", "--self", "-1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 16

    def test_p2_has_no_lines(self, capsys):
        assert main(["classes", "--degree", "9", "--deg", "1", "--self", "-1"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_cubic_surface_lines(self, capsys):
        assert main(["classes", "--degree", "3", "--deg", "1", "--self", "-1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 27

    def test_json_output(self, capsys):
        assert main(
            ["classes", "--degree", "4", "--deg", "2", "--self", "0", "--json"]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["count"] == 10
        assert obj["classes"] == sorted(obj["classes"])

    def test_invalid_degree_exits_2(self, capsys):
        assert main(["classes", "--degree", "12", "--deg", "1", "--self", "-1"]) == 2

    @pytest.mark.parametrize("query", [["3", "2", "5"], ["9", "1", "-1"]], ids=["genus", "p2"])
    def test_empty_listing_prints_nothing(self, query, capsys):
        degree, deg, self_int = query
        assert main(["classes", "--degree", degree, "--deg", deg, "--self", self_int]) == 0
        assert capsys.readouterr().out == ""

    def test_listing_is_one_line_per_class(self, capsys):
        assert main(["classes", "--degree", "4", "--deg", "1", "--self", "-1"]) == 0
        lines = enumerate_classes(make_surface(4), 1, -1)
        expected = "".join(" ".join(str(x) for x in c.coeffs) + "\n" for c in lines)
        assert capsys.readouterr().out == expected

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classes", "--degree", "4"])
        assert exc.value.code == 2


class TestLct:
    def test_cusp_certificate_text(self, cusp_file, capsys):
        assert main(["lct", cusp_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "lct = 5/6"
        assert "minimizer = node p.n2 (k+1 = 5, v = 6)" in out

    def test_point_scoped_query(self, cusp_file, capsys):
        assert main(["lct", cusp_file, "--point", "p"]) == 0
        assert "lct = 5/6" in capsys.readouterr().out

    def test_lambda_check_positive(self, triple_file, capsys):
        assert main(["lct", triple_file, "--lambda", "2/3"]) == 0
        assert "log_canonical = true" in capsys.readouterr().out

    def test_lambda_check_negative_exits_1(self, triple_file, capsys):
        assert main(["lct", triple_file, "--lambda", "1"]) == 1
        assert "log_canonical = false" in capsys.readouterr().out

    def test_empty_divisor_reports_inf(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(
            '{"surface": {"degree": 9, "basis": "blowup"}, "components": [], "points": []}',
            encoding="utf-8",
        )
        assert main(["lct", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "lct = inf"

    def test_parse_error_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"surface": {\n', encoding="utf-8")
        assert main(["lct", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_inconsistent_exits_3_with_pair(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(INCONSISTENT_CONFIG, encoding="utf-8")
        assert main(["lct", str(path)]) == 3
        err = capsys.readouterr().err
        assert "E1" in err and "E2" in err

    def test_same_class_curves_checked_exits_3(self, tmp_path, capsys):
        obj = json.loads(INCONSISTENT_CONFIG)
        for comp in obj["components"]:
            comp["class"] = [1, -1, 0, 0, 0, 0]
        obj["points"][0]["germ"] = "node"
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["lct", str(path)]) == 3
        assert "only meet in 0 points" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["lct", "/nonexistent/file.json"]) == 2

    def test_unknown_point_exits_2(self, cusp_file, capsys):
        assert main(["lct", cusp_file, "--point", "zzz"]) == 2

    def test_unknown_point_is_named(self, capsys):
        assert main(["lct", str(ROOT / "bench" / "data" / "deg4.json"), "--point", "nosuch"]) == 2
        assert capsys.readouterr().err == "error: unknown point 'nosuch'\n"

    def test_negative_lambda_is_named_before_an_unknown_point(self, capsys):
        argv = ["lct", str(ROOT / "bench" / "data" / "deg4.json"), "--point", "nosuch", "--lambda=-1/2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the scaling factor must be nonnegative, got -1/2\n"

    def test_json_round_trip_is_byte_exact(self, cusp_file, capsys):
        assert main(["lct", cusp_file, "--json"]) == 0
        first = capsys.readouterr().out
        reparsed = json.loads(first)
        assert json.dumps(reparsed, indent=2, sort_keys=True) + "\n" == first

    def test_component_minimizer_text(self, capsys):
        assert main(["lct", str(ROOT / "bench" / "data" / "deg9.json")]) == 0
        assert capsys.readouterr().out == (
            "lct = 1/3\n"
            "minimizer = component L (coeff = 3, bound = 1/3)\n"
            "component L: coeff = 3, bound = 1/3\n"
        )

    def test_lambda_json(self, capsys):
        assert main(["lct", str(ROOT / "bench" / "data" / "deg9.json"), "--lambda", "2/3", "--json"]) == 1
        assert capsys.readouterr().out == """{
  "component_bounds": [
    {
      "bound": "1/3",
      "coeff": "3",
      "component": "L"
    }
  ],
  "lambda": "2/3",
  "lct": "1/3",
  "log_canonical": false,
  "minimizer": {
    "id": "L",
    "kind": "component"
  },
  "rows": []
}
"""

    def test_bad_lambda_exits_2(self, cusp_file, capsys):
        assert main(["lct", cusp_file, "--lambda", "0.5"]) == 2
        assert main(["lct", cusp_file, "--lambda", "1/0"]) == 2

    @staticmethod
    def _assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_negative_lambda_exits_2(self, capsys):
        assert main(["lct", str(ROOT / "bench" / "data" / "deg4.json"), "--lambda=-1/2"]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("flags", [["--lambda", "-1/2"], ["--lambda=-1/2"]],
                             ids=["separate", "joined"])
    def test_negative_lambda_is_named(self, flags, capsys):
        assert main(["lct", str(ROOT / "bench" / "data" / "deg4.json"), *flags]) == 2
        assert capsys.readouterr().err == "error: the scaling factor must be nonnegative, got -1/2\n"

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["lct", str(tmp_path)]) == 2
        self._assert_one_error_line(capsys)

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(CUSP_CONFIG.replace('"C"', '"\u00c7"').encode("latin-1"))
        assert main(["lct", str(path)]) == 2
        self._assert_one_error_line(capsys)


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["table1", "lines", "lemmaG", "lemmaH", "corollary"]
    )
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_properties_with_seed(self, capsys):
        assert main(
            ["verify", "--suite", "properties", "--seed", "42", "--cases", "60"]
        ) == 0

    def test_determinism_bytes(self, capsys):
        args = ["verify", "--suite", "properties", "--seed", "9", "--cases", "40", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_all_suites_in_registry_order(self, capsys):
        names = ["table1", "lines", "lemmaG", "lemmaH", "corollary", "properties"]
        texts, objs = [], []
        for name in names:
            assert main(["verify", "--suite", name, "--cases", "20"]) == 0
            texts.append(capsys.readouterr().out)
            assert main(["verify", "--suite", name, "--cases", "20", "--json"]) == 0
            objs.append(json.loads(capsys.readouterr().out))
        assert main(["verify", "--suite", "all", "--cases", "20"]) == 0
        assert capsys.readouterr().out == "\n".join(texts)
        assert main(["verify", "--suite", "all", "--cases", "20", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == objs

    def test_all_exits_1_when_one_suite_fails(self, monkeypatch, capsys):
        from delpezzo_lct import cli
        from delpezzo_lct.report import CheckResult, Report

        failing = Report("broken", (CheckResult("broken.check", "1", "0", False),))
        monkeypatch.setattr(cli, "SUITES", {
            "table1": cli.SUITES["table1"],
            "broken": lambda seed, cases: failing,
        })
        assert main(["verify", "--suite", "all"]) == 1
        out = capsys.readouterr().out
        assert "suite table1: 8/8 checks passed\n\nFAIL broken.check" in out

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_cases_below_one_exits_2(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "properties", "--cases", cases])
        assert exc.value.code == 2
        assert "--cases: must be at least 1" in capsys.readouterr().err

    def test_non_integer_cases_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "properties", "--cases", "x"])
        assert exc.value.code == 2
        assert "--cases: invalid int value: 'x'" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


def _dplct(argv, **kwargs):
    src_path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src_path))
    return subprocess.Popen([sys.executable, "-m", "delpezzo_lct", *argv], env=env, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["lct", str(ROOT / "bench" / "data" / "deg4.json"), "--json"],
        ["classes", "--degree", "1", "--deg", "3", "--self", "1"],
        ["verify", "--suite", "table1"],
    ],
    ids=["lct", "classes", "verify"],
)
def test_closed_stdout_ends_quietly(argv):
    # The reader is gone before the command starts, so every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _dplct(argv, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_reader_that_stops_after_one_line():
    # 17,520 cubic lines overflow the pipe buffer after the reader has gone.
    first = enumerate_classes(make_surface(1), 3, 1)[0]
    with _dplct(["classes", "--degree", "1", "--deg", "3", "--self", "1"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert line.decode().split() == [str(x) for x in first.coeffs]
    assert (proc.returncode, err) == (1, b"")


def _loaded_modules(argv, tmp_path):
    """Exit code of `cli.main(argv)` in a fresh interpreter, and the
    `delpezzo_lct` modules it holds afterwards."""
    code = (
        "import contextlib, io, json, sys\n"
        "from delpezzo_lct import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('delpezzo_lct.'))]))\n"
    )
    src_path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src_path))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    rc, modules = json.loads(proc.stdout)
    return rc, {m.removeprefix("delpezzo_lct.") for m in modules}


DEG4 = str(ROOT / "bench" / "data" / "deg4.json")
UNUSED_BY_LCT = {"glct", "properties", "oracles", "report"}


class TestImports:
    """A subcommand imports only the modules it runs."""

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_classes_loads_lattice_only(self, json_flag, tmp_path):
        argv = ["classes", "--degree", "4", "--deg", "1", "--self", "-1", *json_flag]
        assert _loaded_modules(argv, tmp_path) == (0, {"cli", "lattice"})

    @pytest.mark.parametrize(
        "argv,code",
        [(["lct", DEG4], 0), (["lct", DEG4, "--lambda", "1", "--json"], 1),
         (["lct", "malformed.json"], 2)],
        ids=["plain", "lambda", "malformed"],
    )
    def test_lct_loads_no_suite_module(self, argv, code, tmp_path):
        (tmp_path / "malformed.json").write_text('{"surface": {"degree": 4', encoding="utf-8")
        rc, loaded = _loaded_modules(argv, tmp_path)
        assert rc == code
        assert {"cli", "clusters", "configio"} <= loaded
        assert not loaded & UNUSED_BY_LCT

    @pytest.mark.parametrize("suite", ["lines", "corollary"])
    def test_verify_loads_no_property_suites(self, suite, tmp_path):
        rc, loaded = _loaded_modules(["verify", "--suite", suite], tmp_path)
        assert rc == 0
        assert "glct" in loaded and "properties" not in loaded


# sha256 of `verify --suite <name>` stdout, plain and --json, frozen so that
# a rewrite of the suites must print the same reports byte for byte.  The
# lemmaH digests leave out the `bound_chain.*` checks.
VERIFY_DIGESTS = {
    ("table1", False): "0c3b2cf6938a358e386b972bf5e6e2d896b2f93a4339c94ddfc3f0df49f9cf2b",
    ("table1", True): "0b9bdad7547f124464526f7d3a027d5d72e3a5adfabb479f0d6ee89d8e533900",
    ("lines", False): "38010c36fd9443b295b137006ef00df309ca0a08356f164889b10ecaf4fecfee",
    ("lines", True): "03145a54aaac969f1b80d6db05dc6565a92f051d77e73d2d052c3206ca094c1d",
    ("lemmaG", False): "174375163b464cd3e3e1d894734b51cc6a3597fcf8d19c849590c1c901d73f73",
    ("lemmaG", True): "2cee7488c4f664e8c68f531585a15d576c56544a61f44bb11aa54e6ed908facf",
    ("lemmaH", False): "b7adb1d57c7e447a6939501de5a8a27431b52304c905d1f99634f41a89c6409f",
    ("lemmaH", True): "5016acc22732d707a8073a86ae33e027fbc14d80dd9319653a66db1a943be2e4",
    ("corollary", False): "7e1fef421cf74abb47c15dcea07a838921b7fba39952389ae5a3c55d00ab2cbf",
    ("corollary", True): "c7506782cab97b89f1c0a7e256892d4a0b747f35a9643f12974035a8ed9101f0",
}


def _without_bound_chain(out: str, as_json: bool) -> str:
    if as_json:
        obj = json.loads(out)
        obj["checks"] = [c for c in obj["checks"] if not c["check_id"].startswith("bound_chain.")]
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return "".join(line for line in out.splitlines(True) if " bound_chain." not in line)


@pytest.mark.parametrize("suite,as_json", sorted(VERIFY_DIGESTS))
def test_verify_stdout_is_pinned(suite, as_json, capsys):
    assert main(["verify", "--suite", suite] + (["--json"] if as_json else [])) == 0
    out = capsys.readouterr().out
    if suite == "lemmaH":
        out = _without_bound_chain(out, as_json)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite, as_json]


class TestConfigRoundTrip:
    def test_config_serializer_round_trips(self):
        cfg = parse_config_text(TRIPLE_CONFIG)
        obj = config_to_json_obj(cfg)
        again = parse_config_text(json.dumps(obj))
        assert config_to_json_obj(again) == obj

    def test_witness_configs_serialize(self):
        for variant in ("deg4", "deg2_tacnodal", "deg8_quadric", "deg9"):
            rec = witness(variant)
            obj = config_to_json_obj(rec.config)
            again = parse_config_text(json.dumps(obj))
            assert lct_global(again).lct == rec.scenario.omega

    def test_certificate_json_shape(self):
        cfg = parse_config_text(CUSP_CONFIG)
        obj = certificate_to_json_obj(lct_global(cfg))
        assert obj["lct"] == "5/6"
        assert obj["minimizer"] == {"kind": "node", "id": "p.n2"}
        assert [r["v"] for r in obj["rows"]] == ["2", "3", "6"]
