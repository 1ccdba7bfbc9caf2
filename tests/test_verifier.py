import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tiltkit.cli import main
from tiltkit.copositive import cone_form_min_sign, graph_form
from tiltkit.fixtures import CORPUS, _exact
from tiltkit.hessian import second_order_map
from tiltkit.model import MAX_GRID, MAX_REFINE
from tiltkit.polyhedra import ConvexPolyhedron
from tiltkit.verifier import (ALIASES, FLOOR_WIDTH, SUITES, _negative_witness,
                              _norm_ratio_floor, conjecture_probe, emit_report, run_suite)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("T9.99")


def test_aliases_resolve():
    r1 = run_suite("SMOOTH")
    r2 = run_suite("smooth-reduction")
    assert r1.suite == r2.suite == "SMOOTH"
    assert set(ALIASES.values()) == set(SUITES)


@pytest.mark.parametrize("suite", ["EX3.4", "EX4.14"])
def test_report_json_is_deterministic_and_schema_versioned(suite):
    r1 = run_suite(suite)
    r2 = run_suite(suite)
    j1 = emit_report([r1], "json")
    j2 = emit_report([r2], "json")
    assert j1 == j2  # byte-identical despite different wall clocks
    payload = json.loads(j1)
    assert payload["schema"] == "tiltkit-report/1"
    assert "runtime" not in j1


def test_report_empty_and_markdown():
    assert json.loads(emit_report([], "json"))["results"] == []
    md = emit_report([run_suite("EX3.4")], "markdown")
    assert "EX3.4" in md and "| check | status |" in md
    with pytest.raises(ValueError):
        emit_report([], "csv")


def test_markdown_contains_saddle_witness():
    md = emit_report([run_suite("EX4.14")], "markdown")
    assert "pairing value is exactly -2" in md
    assert "pass" in md


def test_probe_small_deterministic():
    r1 = conjecture_probe(7, 3)
    r2 = conjecture_probe(7, 3)
    assert emit_report([r1], "json") == emit_report([r2], "json")
    assert r1.artifacts["produced"] == 3
    assert not r1.failed


def test_every_expected_claim_is_exercised_or_skipped():
    # a suite touching a fixture must assert or explicitly skip its claims
    r = run_suite("T4.12")
    names = " ".join(c.name for c in r.checks)
    for fixture_name in ("quad-1d", "saddle-cone", "degenerate-psd"):
        assert fixture_name in names
    skipped = [c for c in r.checks if c.status == "skipped"]
    assert all(c.details.get("reason") for c in skipped)


def test_cli_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    assert "saddle-cone" in out and "oscillating-1d" in out
    kinds = dict(line.split()[:2] for line in out.splitlines())
    assert kinds["saddle-cone"] == "exact" and kinds["oscillating-1d"] == "analytic"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["fixtures", "list"], ["verify", "EX4.14"]],
                         ids=["fixtures-list", "verify-EX4.14"])
def test_cli_closed_stdout_exits_1_without_traceback(args, unbuffered):
    # block-buffered, the report meets the closed pipe at the final flush;
    # unbuffered, at its first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the first write
    try:
        run = subprocess.run([sys.executable, "-m", "tiltkit", *args], stdout=w,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(w)
    assert run.returncode == 1
    assert run.stderr == ""  # no traceback, nor Python's "Exception ignored" at exit


def test_cli_verify_unknown_exits_2(capsys):
    assert main(["verify", "NOPE"]) == 2


def test_cli_verify_suite(capsys):
    assert main(["verify", "EX3.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["suite"] == "EX3.4"


def test_cli_analyze(tmp_path, capsys):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variant": "exact",
        "smooth": {"Q": [[1]], "c": [0], "d": 0},
        "pieces": [{"A": [], "b": []}],
        "xbar": [0], "xstar": [0],
    }))
    assert main(["analyze", str(prob), "--grid", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    arts = payload["results"][0]["artifacts"]
    assert arts["definiteness"] == "positive_definite"
    assert arts["tilt_verdict"] == "stable"


@pytest.mark.parametrize("flag", [["--eta", "abc"], ["--eta", "0"], ["--grid", "1"]])
def test_cli_analyze_bad_override_exits_2(tmp_path, capsys, flag):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variant": "exact",
        "smooth": {"Q": [[1]], "c": [0], "d": 0},
        "pieces": [{"A": [], "b": []}],
        "xbar": [0], "xstar": [0],
    }))
    assert main(["analyze", str(prob)] + flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--eta", "--delta", "--gamma"])
def test_cli_zero_denominator_names_the_flag_and_exits_2(flag):
    # Fraction("1/0") raises ZeroDivisionError, whose text names neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    problem = Path(__file__).resolve().parent.parent / "problems" / "saddle-cone.json"
    run = subprocess.run([sys.executable, "-m", "tiltkit", "analyze", str(problem), flag, "1/0"],
                         capture_output=True, env=env, text=True, timeout=300)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith(f"error: {flag} 1/0") and "Traceback" not in run.stderr


def _exact_file(**changes):
    raw = {"variant": "exact", "smooth": {"Q": [[1]], "c": [0], "d": 0},
           "pieces": [{"A": [[1]], "b": [0]}], "xbar": [0], "xstar": [0]}
    raw.update(changes)
    return raw


@pytest.mark.parametrize("raw", [
    _exact_file(pieces=[{"b": [0]}]),
    _exact_file(pieces=[{"A": [[1]], "b": [0, 1]}]),
    _exact_file(pieces=[3]),
    _exact_file(smooth={"Q": 5, "c": [0]}),
    _exact_file(xbar=0),
    {"variant": "analytic", "fixture": "sin-inv", "xstar": [0]},
    _exact_file(smooth={"Q": [], "c": [], "d": 0}, pieces=[{"A": [], "b": []}],
                xbar=[], xstar=[]),
    _exact_file(params={"refine_max": True}),
    _exact_file(smooth={"Q": [[int(i == j) for j in range(4)] for i in range(4)],
                        "c": [0] * 4}, pieces=[{"A": [], "b": []}],
                xbar=[0] * 4, xstar=[0] * 4),
], ids=["no-A", "A-b-lengths", "piece-not-object", "Q-not-list", "xbar-not-list",
        "analytic-no-xbar", "zero-dimensional", "refine-max-bool", "four-dimensional"])
def test_cli_analyze_malformed_file_exits_2(tmp_path, capsys, raw):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(raw))
    assert main(["analyze", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("data", [b'{"variant": "exact\xff"}', b"[" * 100_000,
                                  b'{"variant": "exact", "xbar": [' + b"1" * 5000 + b"]}"],
                         ids=["not-utf-8", "nested-100000-deep", "int-of-5000-digits"])
def test_cli_analyze_undecodable_file_exits_2(tmp_path, capsys, data):
    prob = tmp_path / "p.json"
    prob.write_bytes(data)
    assert main(["analyze", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, params", [(["--grid", "1"], {}), ([], {"grid": 1}),
                                          ([], {"refine_max": 0})],
                         ids=["grid-flag-1", "grid-param-1", "refine-max-0"])
def test_cli_grid_below_2_exits_2(tmp_path, capsys, flag, params):
    # the grid divides by per_axis - 1, so 1 is too coarse although positive
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(_exact_file(params=params)))
    assert main(["analyze", str(prob)] + flag) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: param grid must be at least 2 and refine_max at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, params", [(["--grid", "100000000"], {}),
                                          ([], {"grid": 100_000_000}),
                                          ([], {"refine_max": 100_000_000})],
                         ids=["grid-flag-huge", "grid-param-huge", "refine-max-huge"])
def test_cli_grid_above_its_bound_exits_2_at_once(tmp_path, capsys, flag, params):
    # a metric sweep pairs ((grid - 1) 2^k + 1)^dim x-points with a y lattice
    # per level k < refine_max: unbounded, the run would not end
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(_exact_file(params=params)))
    t0 = time.perf_counter()
    assert main(["analyze", str(prob)] + flag) == 2
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.err == (f"error: param grid must be at most {MAX_GRID} "
                            f"and refine_max at most {MAX_REFINE}\n")
    assert captured.out == ""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_probe_count_below_1_exits_2(capsys, count):
    assert main(["probe", "--seed", "1", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --count must be at least 1\n" and captured.out == ""


def test_cli_analyze_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 2


def test_cli_analyze_rejects_invalid_pair(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variant": "exact",
        "smooth": {"Q": [[1]], "c": [0], "d": 0},
        "pieces": [{"A": [], "b": []}],
        "xbar": [0], "xstar": [5],
    }))
    assert main(["analyze", str(prob)]) == 2


def test_cli_analyze_two_heptagons(tmp_path, capsys):
    # the internal graph-model and inverse-slice pieces of this file have
    # more rows than any problem-file piece may have
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variant": "exact",
        "smooth": {"Q": [[1, 0], [0, 1]], "c": [0, 0], "d": 0},
        "pieces": [
            {"A": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1]],
             "b": [1, 1, 1, 1, 1, 1, 1]},
            {"A": [[1, 2], [-1, -2], [2, 1], [-2, -1], [1, -1], [-1, 1], [-1, -1]],
             "b": [2, 2, 2, 2, 2, 2, 2]}],
        "xbar": [0, 0], "xstar": [0, 0],
        "params": {"eta": "1/10", "delta": "1/10", "gamma": "1/2", "grid": 3},
    }))
    assert main(["analyze", str(prob)]) == 0
    out = capsys.readouterr().out
    arts = json.loads(out)["results"][0]["artifacts"]
    assert arts["definiteness"] == "positive_definite"
    assert arts["tilt_verdict"] == "stable"
    assert arts["subregularity_kappa"] == arts["metric_regularity_kappa"] == 1.0
    assert hashlib.sha1(out.encode()).hexdigest() == "d349764ec6d8bc5d89da4231fced59c670f775b6"


@pytest.mark.parametrize("name,sha1", [
    ("cross-quadratic", "cf3224927128c8eb54956684d73a49259fe8ff76"),
    ("saddle-cone", "76750f2dee4d70baa3c48e0eb9e4e95fa2f42cb6"),
])
def test_cli_analyze_non_dyadic_lattices(name, sha1, capsys):
    # lattice denominators are multiples of 3 and 7, so f(x) and every
    # distance round, and the exact grid work must round them as before
    path = Path(__file__).resolve().parent.parent / "problems" / f"{name}.json"
    assert main(["analyze", str(path), "--eta", "1/3", "--delta", "1/7"]) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1


def test_cli_analyze_rejects_piece_with_too_many_rows(tmp_path, capsys):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "variant": "exact",
        "smooth": {"Q": [[1]], "c": [0], "d": 0},
        "pieces": [{"A": [[1]] * 21, "b": [1] * 21}],
        "xbar": [0], "xstar": [0],
    }))
    assert main(["analyze", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def bisection_norm_ratio_floor(inst):
    """Oracle: the floor t by doubling, then 24 rational bisection steps on
    copositivity of |w|^2 - t^2 |z|^2; returns the certified lower end."""
    pieces = second_order_map(inst.f, inst.xbar, inst.xstar).normal_cone
    n = inst.f.dim

    def holds(t):
        form = graph_form(n, 1, 0, -t * t)
        return all(cone_form_min_sign(piece, form)[0] >= 0 for piece in pieces)

    lo, hi = Fraction(0), Fraction(1)
    while holds(hi):
        lo, hi = hi, hi * 2
        if hi > 2 ** 20:
            return float(hi)
    for _ in range(24):
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_norm_ratio_floor_matches_bisection_on_c411_fixtures():
    insts = [fx.instance for fx in CORPUS.values() if "c411" in fx.tags]
    assert len(insts) == 3
    for inst in insts:
        assert _norm_ratio_floor(inst) == bisection_norm_ratio_floor(inst) == 1.0


@pytest.mark.parametrize("domain", [ConvexPolyhedron.full_space(2),
                                    ConvexPolyhedron([(-1, 0)], (0,), dim=2)])
def test_norm_ratio_floor_brackets_an_irrational_floor(domain):
    # the floor is the least eigenvalue (3 - sqrt 5) / 2 of Q, never a ratio
    # that the iteration attains, so only the bracket can end it
    inst = _exact([[2, 1], [1, 1]], [0, 0], [domain], (0, 0), (0, 0), "golden")
    t = _norm_ratio_floor(inst)
    pieces = second_order_map(inst.f, inst.xbar, inst.xstar).normal_cone
    lo = Fraction(t)
    assert _negative_witness(pieces, graph_form(2, 1, 0, -lo * lo)) is None
    assert _negative_witness(pieces, graph_form(2, 1, 0, -(lo + FLOOR_WIDTH) ** 2)) is not None
    assert abs(t - bisection_norm_ratio_floor(inst)) <= FLOOR_WIDTH
    assert 0 < (3 - math.sqrt(5)) / 2 - t <= FLOOR_WIDTH


def test_norm_ratio_floor_is_infinite_when_every_normal_has_z_zero():
    # the indicator of a point: its graph normals are (w, 0), so no t bounds
    # |w| >= t |z| (the bisection stopped at its doubling cap, 2^21)
    inst = _exact([[1]], [0], [ConvexPolyhedron([(1,), (-1,)], (0, 0))], (0,), (0,), "point")
    assert _norm_ratio_floor(inst) == math.inf
