import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itergelfand
from itergelfand import branch as br
from itergelfand import cli, corrector
from itergelfand.cli import main
from itergelfand.numerics import fmt
from itergelfand.singular import DescentError, build_singular
from oracles import h_deriv_fd_worst


def run_cli(args):
    return main(args)


def test_iterexp_eval(capsys):
    assert run_cli(["iterexp", "eval", "--m", "2", "--kind", "g", "--at", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.e, rel=1e-15)


def test_negative_value_in_exponent_form(capsys):
    # -1e5 is the value of --at, not an unknown option
    assert run_cli(["iterexp", "eval", "--kind", "ftail", "--at", "-1e5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1e5 - 0.5772156649015329, rel=1e-15)


def test_iterexp_eval_overflow_exit_code(capsys):
    assert run_cli(["iterexp", "eval", "--m", "3", "--kind", "g", "--at", "3"]) == 2


def test_singular_construct_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["singular", "construct", "--n", "3", "--m", "1",
                    "--outdir", str(out)])
    assert code == 0
    for name in ("profile_log.csv", "profile_radial.csv", "meta.txt"):
        assert (out / name).exists()
    meta = (out / "meta.txt").read_text()
    lam = None
    for line in meta.splitlines():
        if line.split("=")[0].strip() == "lambda_star":
            lam = float(line.split("=", 1)[1])
    assert lam is not None and 0.5 < lam < 1.0


@pytest.mark.parametrize("flags", [["--t-max", "800"], ["--T", "190"]])
def test_radial_profile_ends_where_radii_do(tmp_path, capsys, flags):
    # past t ~ 708 the radius e^-t / sqrt(lambda*) is no longer a normal double:
    # the radial CSV stops there, with no warning, and meta.txt says where
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", *flags,
                    "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    meta = dict(line.split(" = ", 1) for line in (tmp_path / "meta.txt").read_text().splitlines()
                if " = " in line)
    log = np.loadtxt(tmp_path / "profile_log.csv", delimiter=",", skiprows=1)
    radial = np.loadtxt(tmp_path / "profile_radial.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(radial)) and np.all(radial[:, 0] >= sys.float_info.min)
    assert np.array_equal(radial[:, 1], log[:len(radial), 1])
    assert float(meta["radial_t_max"]) == log[len(radial) - 1, 0]
    assert 700.0 < log[len(radial) - 1, 0] < 710.0 < log[-1, 0]


def test_usage_error_low_dimension(capsys):
    assert run_cli(["singular", "construct", "--n", "2"]) == 1


def test_usage_error_unknown_flag():
    assert run_cli(["singular", "construct", "--frobnicate"]) == 1


def test_oracle_mode_lambda(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1",
                    "--oracle-gelfand", "--outdir", str(out)]) == 0
    lam = None
    for line in (out / "meta.txt").read_text().splitlines():
        if line.split("=")[0].strip() == "lambda_star":
            lam = float(line.split("=", 1)[1])
    assert lam == pytest.approx(2.0 * (3 - 2), rel=1e-6)


def test_height_zero_is_the_oracle(tmp_path):
    # --m 0 is the Gelfand oracle; --oracle-gelfand sets it whatever --m says,
    # in either order, and the output of either serves as a trace reference
    runs = {"m0": ["--m", "0"], "flag": ["--oracle-gelfand"],
            "flag-last": ["--m", "2", "--oracle-gelfand"],
            "flag-first": ["--oracle-gelfand", "--m", "2"]}
    for name, flags in runs.items():
        assert run_cli(["singular", "construct", "--n", "3", *flags,
                        "--outdir", str(tmp_path / name)]) == 0
        assert "m = 0" in (tmp_path / name / "meta.txt").read_text().splitlines()
    for name in ("profile_log.csv", "profile_radial.csv"):
        expect = (tmp_path / "m0" / name).read_bytes()
        assert all((tmp_path / run / name).read_bytes() == expect for run in runs)
    assert run_cli(TRACE + ["--oracle-gelfand", "--lambda-star", str(tmp_path / "flag"),
                            "--outdir", str(tmp_path / "trace")]) == 0


def test_failed_corrector_solve_is_numeric_failure(tmp_path, capsys, monkeypatch):
    # just above T = e/2 at m = 3 the n = 9 iteration does not contract: the run
    # ends with exit 2 naming n, m and T after one solve of the window asked for
    windows = []
    solve = corrector._solve_on_grid

    def recorded(n, m, cfg, T, t_usable, n_nodes):
        windows.append((T, t_usable))
        return solve(n, m, cfg, T, t_usable, n_nodes)
    monkeypatch.setattr(corrector, "_solve_on_grid", recorded)
    assert run_cli(["singular", "construct", "--n", "9", "--m", "3", "--T", "1.35915",
                    "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "does not contract" in err
    assert "T = 1.35915 (n = 9, m = 3)" in err
    assert windows == [(1.35915, 200.0)]


def test_bifurcation_trace_artifacts(tmp_path):
    sing = tmp_path / "sing"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1",
                    "--outdir", str(sing)]) == 0
    out = tmp_path / "bif"
    code = run_cli(["bifurcation", "trace", "--n", "3", "--m", "1",
                    "--rho-min", "0.1", "--rho-max", "3.0", "--rho-step", "0.02",
                    "--lambda-star", str(sing), "--outdir", str(out)])
    assert code == 0
    curve = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
    assert curve.shape[1] == 4
    assert int(curve[:, 3].sum()) >= 2       # at least two turning flags
    tp = (out / "turning_points.csv").read_text().splitlines()
    assert tp[0] == "rho,lambda,lambda_minus_lambda_star"
    assert len(tp) >= 3
    inter = (out / "intersections.csv").read_text().splitlines()
    assert inter[0] == "rho,count"
    assert len(inter) == 2                    # only rho = 2 within range


def test_intersections_from_written_reference(tmp_path):
    # the counts against a reference rebuilt from its meta.txt are the
    # library's against the solution it was written from
    sing = tmp_path / "sing"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", "--t-max", "280",
                    "--outdir", str(sing)]) == 0
    out = tmp_path / "bif"
    assert run_cli(["bifurcation", "trace", "--n", "3", "--m", "1", "--rho-min", "2",
                    "--rho-max", "6", "--rho-step", "2", "--lambda-star", str(sing),
                    "--outdir", str(out)]) == 0
    inter = np.loadtxt(out / "intersections.csv", delimiter=",", skiprows=1)
    assert inter[:, 0].tolist() == [2.0, 4.0, 6.0]
    assert inter[:, 1].tolist() == [2.0, 12.0, 13.0]
    # the rho = 6 shot of the curve is matched to w*; rho = 2 and 4 are not
    assert "matched_shots = 1" in (out / "meta.txt").read_text().splitlines()


@pytest.mark.parametrize("flags", [[], ["--t-max", "150"]])
def test_trace_refuses_a_reference_below_the_counted_shot(tmp_path, capsys, flags):
    # the rho = 6 shot reaches t = 217.944: the default reference (t_max = 200)
    # would cut its count short, and a t_max = 150 one would see them coincide
    sing, out = tmp_path / "sing", tmp_path / "bif"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", *flags,
                    "--outdir", str(sing)]) == 0
    capsys.readouterr()
    assert run_cli(["bifurcation", "trace", "--n", "3", "--m", "1", "--rho-min", "5.9",
                    "--rho-max", "6.04", "--lambda-star", str(sing),
                    "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: singular reference {sing}/meta.txt: ")
    assert "t_max above 217.944" in err and "Traceback" not in err
    assert not any(out.iterdir())    # refused before the trace


def test_bifurcation_empty_grid_usage_error(tmp_path):
    assert run_cli(["bifurcation", "trace", "--n", "3", "--m", "1",
                    "--rho-min", "2.0", "--rho-max", "1.0",
                    "--outdir", str(tmp_path)]) == 1


def test_verify_iterexp_json(tmp_path, capsys):
    code = run_cli(["verify", "iterexp", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    payload = json.loads(out)
    assert code == 0
    assert payload["suite"] == "iterexp"
    assert payload["passed"] is True
    assert (tmp_path / "verify_iterexp.csv").exists()


def test_iterexp_fd_checks_are_the_scalar_loop():
    # the suite takes its central differences on the whole t array; the
    # values it reports are those of one scalar t at a time, bit for bit
    checks, files = cli._suite_iterexp(None)
    assert files == {}
    checks = {c.label: c.value for c in checks}
    for m in (1, 2, 3):
        assert checks[f"h_deriv_fd_m{m}"].hex() == h_deriv_fd_worst(m).hex(), m


def test_verify_miyamoto(tmp_path, capsys):
    code = run_cli(["verify", "miyamoto", "--n", "3", "--outdir", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and payload["passed"] is True
    assert (tmp_path / "equivalence_trace.csv").exists()


@pytest.mark.parametrize("n,m", [(3, 0), (6, 0), (4, 1), (12, 1), (3, 2), (12, 2), (3, 3)])
def test_verify_asymptotics_checks_the_height_it_names(tmp_path, capsys, n, m):
    code = run_cli(["verify", "asymptotics", "--n", str(n), "--m", str(m),
                    "--outdir", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and payload["passed"] is True and payload["failed"] == []
    assert payload["m"] == m
    with open(tmp_path / "verify_asymptotics.csv") as fh:
        assert all(row["passed"] == "1" for row in csv.DictReader(fh))


@pytest.mark.parametrize("m,heights", [(1, [1]), (2, [2, 1])])
def test_verify_all_builds_each_height_once(tmp_path, capsys, monkeypatch, m, heights):
    built = []
    real = cli.build_singular

    def counting(n, m, cfg=None):
        built.append(m)
        return real(n, m, cfg)
    monkeypatch.setattr(cli, "build_singular", counting)
    assert run_cli(["verify", "all", "--n", "3", "--m", str(m), "--outdir", str(tmp_path)]) == 0
    assert built == heights
    suites = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(s["suite"], s["m"]) for s in suites] == [
        ("iterexp", None), ("asymptotics", m), ("miyamoto", 1)]
    # each row states its own gate
    for s in suites:
        with open(tmp_path / f"verify_{s['suite']}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["label", "value", "bound", "passed"]
        for row in rows:
            assert row["passed"] == str(int(float(row["value"]) <= float(row["bound"])))
    meta = cli._read_sections(tmp_path / "meta.txt", "meta.txt")
    assert meta["config"]["m"] == str(m) and "M" not in meta["config"]
    assert meta["results"] == {"iterexp_m": "None", "iterexp_passed": "True",
                               "asymptotics_m": str(m), "asymptotics_passed": "True",
                               "miyamoto_m": "1", "miyamoto_passed": "True"}
    assert not (tmp_path / "expansion_reports.csv").exists()


def test_verify_writes_meta_when_a_later_build_fails(tmp_path, capsys, monkeypatch):
    # the m = 4 profile is negative where the descent starts, after iterexp ran:
    # its corrector is solved once, and the iterexp suite is still printed and written
    heights = []
    solve = corrector._solve_on_grid

    def recorded(n, m, *args):
        heights.append(m)
        return solve(n, m, *args)
    monkeypatch.setattr(corrector, "_solve_on_grid", recorded)
    assert run_cli(["verify", "all", "--n", "3", "--m", "4", "--outdir", str(tmp_path)]) == 2
    assert heights == [4]
    out, err = capsys.readouterr()
    assert "numeric failure" in err and "Traceback" not in err
    assert [json.loads(line)["suite"] for line in out.splitlines()] == ["iterexp"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.txt", "verify_iterexp.csv"]
    meta = cli._read_sections(tmp_path / "meta.txt", "meta.txt")
    assert meta["config"]["m"] == "4"
    assert meta["results"] == {"iterexp_m": "None", "iterexp_passed": "True"}


def test_verify_all_refuses_a_short_T_before_any_suite_writes(tmp_path, capsys):
    # the iterexp suite, which runs first, must not run or write before the
    # asymptotics windows (T + 5, 2T) and (T + 5, 4T) refuse T = 2
    assert run_cli(["verify", "all", "--n", "3", "--m", "1", "--T", "2",
                    "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error: T = 2 ") and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_verify_refuses_a_thin_miyamoto_tail_before_it_writes(tmp_path, capsys):
    # the m = 1 build succeeds, but above its handoff the window holds too few
    # samples for the tail checks: a usage error naming T and t_max, with no output
    assert run_cli(["verify", "miyamoto", "--n", "3", "--m", "1", "--T", "1.8",
                    "--t-max", "7.2", "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error: T = 1.8 and t_max = 7.2 ") and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_config_replay_keeps_a_hash_in_a_path(tmp_path, monkeypatch):
    # a # inside a value is kept; one at the start of a line or after a blank
    # starts a comment
    monkeypatch.chdir(tmp_path)
    assert run_cli(["singular", "construct", "--outdir", "run#1"]) == 0
    profile, meta = tmp_path / "run#1" / "profile_log.csv", tmp_path / "run#1" / "meta.txt"
    first = meta.read_bytes()
    profile.unlink()
    assert run_cli(["singular", "construct", "--config", "run#1/meta.txt"]) == 0
    assert profile.exists() and meta.read_bytes() == first
    assert not (tmp_path / "run").exists()
    (tmp_path / "commented.cfg").write_text("# n = 5\nn = 4 # not 5\nm = 1\t#\n")
    sections = cli._read_sections(tmp_path / "commented.cfg", "config file")
    assert sections == {"config": {"n": "4", "m": "1"}}


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 4\nm = 1\n")
    out = tmp_path / "out"
    # flag overrides the config file's n
    assert run_cli(["singular", "construct", "--config", str(cfgfile),
                    "--n", "3", "--outdir", str(out)]) == 0
    meta = (out / "meta.txt").read_text()
    assert "n = 3" in meta


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["singular", "construct", "--n", "3", "--m", "1",
                        "--oracle-gelfand", "--outdir", str(out)]) == 0
    assert (a / "profile_log.csv").read_bytes() == (b / "profile_log.csv").read_bytes()
    assert (a / "profile_radial.csv").read_bytes() == (b / "profile_radial.csv").read_bytes()


@pytest.mark.parametrize("args,config", [
    (["singular", "construct", "--tol", "nan"], None),
    (["singular", "construct", "--T", "inf"], None),
    (["bifurcation", "trace", "--rho-step", "nan"], None),
    (["singular", "construct"], "tol = abc\n"),
    (["singular", "construct"], "oracle = ture\n"),
])
def test_bad_numeric_input_is_usage_error(tmp_path, capsys, args, config):
    args = args + ["--outdir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_overflowing_trial_steps_are_not_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # the m = 3 shots at rho 0.85..0.87 return lambda* once matched to w*;
    # with the singular build failing they descend to their own zero, and
    # the trial steps of those descents that overflow exp(G_3(w) - 2t) are
    # rejected and retried smaller, so each shot reaches lambda* itself
    lam_star = build_singular(3, 3).lambda_star

    def failing(n, m):
        raise DescentError("no zero")
    monkeypatch.setattr(br, "build_singular", failing)
    monkeypatch.setattr(br, "_singular", functools.cache(br._singular.__wrapped__))
    code = run_cli(["bifurcation", "trace", "--n", "3", "--m", "3", "--rho-min", "0.85",
                    "--rho-max", "0.87", "--rho-step", "0.01", "--outdir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    curve = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(curve) == 3
    assert np.max(np.abs(curve[:, 1] / lam_star - 1.0)) < 1e-12


def test_construct_and_trace_load_no_scipy(tmp_path):
    # the package needs numpy alone: in a fresh interpreter where scipy cannot
    # be imported (sys.modules["scipy"] = None also makes find_spec("scipy")
    # None), importing the CLI and every command below runs, and each exits
    # with the code it gives with scipy installed
    script = textwrap.dedent("""
        import contextlib, io, json, sys

        sys.modules["scipy"] = None

        def scipy_modules():
            return sorted(k for k in sys.modules if k.startswith("scipy."))

        import itergelfand.cli as cli
        loaded = {"import": scipy_modules()}
        for name, argv in json.loads(sys.argv[1]).items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded[name] = [code, scipy_modules()]
        print(json.dumps(loaded))
    """)
    runs = {"construct": ["singular", "construct", "--n", "3", "--m", "1",
                          "--outdir", str(tmp_path / "construct")],
            "trace": ["bifurcation", "trace", "--n", "3", "--m", "1", "--rho-min", "0.5",
                      "--rho-max", "1", "--rho-step", "0.1", "--outdir", str(tmp_path / "trace")],
            "verify31": ["verify", "all", "--n", "3", "--m", "1",
                         "--outdir", str(tmp_path / "verify31")],
            "verify52": ["verify", "all", "--n", "5", "--m", "2",
                         "--outdir", str(tmp_path / "verify52")],
            "ftail": ["iterexp", "eval", "--kind", "ftail", "--at", "0"],
            "ftail-log": ["iterexp", "eval", "--kind", "ftail-log", "--at", "3"],
            "ftail-inv": ["iterexp", "eval", "--kind", "ftail-inv", "--at", "0.5"]}
    src = os.path.dirname(os.path.dirname(itergelfand.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(done.stdout)
    assert loaded == {"import": [], **{name: [0, []] for name in runs}}


@pytest.mark.parametrize("T, code", [("2", 1), ("5", 1), ("5.01", 1), ("5.5", 0)])
def test_asymptotics_windows_too_short_is_usage_error(tmp_path, capsys, T, code):
    # verify asymptotics checks on the windows (T + 5, 2T) and (T + 5, 4T): at
    # T <= 5 the first is empty, at 5.01 it holds too few samples for a slope
    argv = ["verify", "asymptotics", "--n", "3", "--m", "1", "--T", T, "--outdir", str(tmp_path)]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith(f"usage error: T = {T} ")
        assert "(T + 5, 2T)" in err and "(T + 5, 4T)" in err


def test_negative_handoff_is_numeric_failure(tmp_path, capsys):
    # at m = 4 the assembled profile is negative where the descent starts
    code = run_cli(["singular", "construct", "--n", "3", "--m", "4", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "at the handoff" in err
    assert "Traceback" not in err


def test_failed_inner_phase_names_the_dimension(tmp_path, capsys, monkeypatch):
    # at n = 2**53 - 1 the step size of the first shot's inner phase underflows;
    # the work bound, which refuses such a trace up front, is lifted to reach it
    monkeypatch.setattr(cli, "MAX_TRACE_WORK", math.inf)
    code = run_cli(["bifurcation", "trace", "--n", "9007199254740991", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "n = 9007199254740991, m = 1" in err
    assert "Traceback" not in err


def test_trace_work_bound_is_usage_error(tmp_path, capsys, monkeypatch):
    # shots times n past MAX_TRACE_WORK is refused before any shot: the
    # default 236-point grid at n = 424 and at n = 2**53 - 1
    def shots(*args, **kwargs):
        raise AssertionError("a refused trace shot")
    monkeypatch.setattr(br, "trace_curve", shots)
    for n in ("424", "9007199254740991"):
        assert run_cli(["bifurcation", "trace", "--n", n, "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: a trace of 236 shots at n = " + n)
        assert "more than 1e+05" in err and "Traceback" not in err
    monkeypatch.undo()
    # three shots at n = 1000 are well inside it
    assert run_cli(["bifurcation", "trace", "--n", "1000", "--rho-max", "0.14",
                    "--outdir", str(tmp_path)]) == 0


def _write_reference(ref, n=3, lam="0.8", meta=True, profile=True, extra=""):
    """A hand-written `singular construct` output directory; extra adds [config] lines."""
    ref.mkdir()
    if meta:
        (ref / "meta.txt").write_text(
            f"[config]\nn = {n}\nm = 1\n{extra}\n[results]\nlambda_star = {lam}\n")
    if profile:
        (ref / "profile_log.csv").write_text("t,w,w_t\n0.0,0.0,1.0\n1.0,1.0,1.0\n")


@pytest.fixture
def bad_inputs(tmp_path):
    """A directory holding every malformed input of the usage-error cases."""
    (tmp_path / "latin1.cfg").write_bytes(b"n = 3 # \xe9\n")
    # the tower height has one spelling in a config file: m = 0
    (tmp_path / "oracle.cfg").write_text("oracle = true\n")
    # M is computed by the corrector and has no setting
    (tmp_path / "M.cfg").write_text("M = 1\n")
    (tmp_path / "file").write_text("x")
    _write_reference(tmp_path / "ref")
    _write_reference(tmp_path / "ref-no-meta", meta=False)
    _write_reference(tmp_path / "ref-no-profile", profile=False)
    _write_reference(tmp_path / "ref-n5", n=5)
    # written by an oracle run before m = 0 was the oracle's height
    _write_reference(tmp_path / "ref-old-oracle", extra="oracle = True\n")
    for lam in ("nan", "inf", "0", "-0.5"):
        _write_reference(tmp_path / f"ref-lam{lam}", lam=lam)
    # a corrector field that the corrector refuses at m = 1
    _write_reference(tmp_path / "ref-T0.5", extra="T = 0.5\n")
    # a corrector tolerance below rounding, at which the rebuild stalls
    _write_reference(tmp_path / "ref-tol", extra="tol = 1e-30\n")
    # written by a singular construct that echoed the trace's options too
    _write_reference(tmp_path / "ref-old-construct",
                     extra="rho_min = 0.1\nrho_max = 4.8\nrho_step = 0.02\nsingular_ref = None\n")
    # one config file for each option that some command does not read
    for key, val in (("T", "7"), ("t_max", "100"), ("tol", "1e-3"), ("rho_min", "0.1"),
                     ("rho_max", "4.8"), ("rho_step", "0.02"), ("singular_ref", "None")):
        (tmp_path / f"{key}.cfg").write_text(f"{key} = {val}\n")
    # a key given twice, under two [config] headers
    (tmp_path / "twice.cfg").write_text("n = 4\n[results]\n[config]\nn = 5\n")
    return tmp_path


TRACE = ["bifurcation", "trace", "--n", "3", "--m", "1",
         "--rho-min", "0.1", "--rho-max", "0.2", "--rho-step", "0.02"]


# {tmp} stands for the bad_inputs directory; `named` is a path the message must name
@pytest.mark.parametrize("args,named", [
    (["singular", "construct", "--config", "{tmp}/missing.cfg"], "{tmp}/missing.cfg"),
    (["singular", "construct", "--config", "{tmp}/latin1.cfg"], "{tmp}/latin1.cfg"),
    (TRACE + ["--lambda-star", "{tmp}/nowhere"], "{tmp}/nowhere"),
    (TRACE + ["--lambda-star", "{tmp}/ref-no-meta"], "{tmp}/ref-no-meta/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-no-profile"], "{tmp}/ref-no-profile/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-lamnan"], "{tmp}/ref-lamnan/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-laminf"], "{tmp}/ref-laminf/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-lam0"], "{tmp}/ref-lam0/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-lam-0.5"], "{tmp}/ref-lam-0.5/meta.txt"),
    (TRACE + ["--lambda-star", "{tmp}/ref-n5"], "{tmp}/ref-n5/meta.txt"),
    (TRACE + ["--oracle-gelfand", "--lambda-star", "{tmp}/ref"], "{tmp}/ref/meta.txt"),
    (["singular", "construct", "--outdir", "{tmp}/file"], "{tmp}/file"),
    (["bifurcation", "trace", "--rho-min", "-0.1"], None),
    (["bifurcation", "trace", "--rho-min", "0"], None),
    (["singular", "construct", "--t-max", "100"], None),
    (["singular", "construct", "--config", "{tmp}/M.cfg"], "unknown config key: M"),
    (["singular", "construct", "--T", "0.5"], None),
    (["singular", "construct", "--tol", "-1"], None),
    (["verify", "all", "--m", "2", "--t-max", "200"], None),
    (["bifurcation", "trace", "--rho-step", "1e-300"], None),
    (["bifurcation", "trace", "--rho-step", "1e-9"], None),
    (["iterexp", "eval", "--kind", "g", "--at", "nan"], "--at must be finite"),
    (["iterexp", "eval", "--kind", "ftail", "--at=-inf"], "--at must be finite"),
    (["iterexp", "eval", "--kind", "h", "--m", "-1", "--at", "2"], "m must be an integer >= 0"),
    (["iterexp", "eval", "--kind", "gderiv", "--m", "0", "--at", "1"], "--m must be >= 1"),
    (["iterexp", "eval", "--kind", "hderiv", "--k", "5", "--at", "20"], "--k"),
    (["iterexp", "eval", "--kind", "ftail-inv", "--at", "inf"], "--at must be finite"),
    (["iterexp", "eval", "--kind", "ftail-inv", "--at", "0"], "--at > 0"),
    (["iterexp", "eval", "--kind", "ftail", "--at", "-inf"], "--at must be finite"),
    (["bifurcation", "trace", "--rho-min", "-1e-3"], None),
    (["singular", "construct", "--T", "1e300"], "descent samples"),
    (["singular", "construct", "--T", "1e12"], "descent samples"),
    (["singular", "construct", "--T", "1e8"], "descent samples"),
    (["singular", "construct", "--t-max", "1e6"], "quadrature nodes"),
    (["singular", "construct", "--n", "10000"], "quadrature nodes"),
    (["singular", "construct", "--oracle-gelfand", "--n", "10000"], "quadrature nodes"),
    (TRACE + ["--oracle-gelfand", "--lambda-star", "{tmp}/ref-old-oracle"],
     "{tmp}/ref-old-oracle/meta.txt"),
    (["singular", "construct", "--m", "-1"], "m must be an integer >= 0"),
    (["singular", "construct", "--config", "{tmp}/oracle.cfg"], "unknown config key: oracle"),
    # the m = 1 ansatz shift is defined for t > 1 only
    (["singular", "construct", "--n", "3", "--m", "1", "--T", "1"], "> 1 at m = 1"),
    # |lam_+| t_max past the double range
    (["singular", "construct", "--t-max", "1.7e308"], "quadrature nodes"),
    # dimensions that no double holds (401 digits) or holds inexactly
    (["singular", "construct", "--n", "1" + "0" * 400], "below 2**53"),
    (TRACE[:2] + ["--n", "1" + "0" * 400], "below 2**53"),
    (["verify", "all", "--n", "1" + "0" * 300], "below 2**53"),
    (["singular", "construct", "--n", str(2 ** 53)], "below 2**53"),
    (["bifurcation", "trace", "--n", "1000"], "shots times n"),
    # T at or below G_{m-1}(0) / 2, where the ansatz H_m(2T) is undefined
    (["singular", "construct", "--n", "3", "--m", "3", "--T", "1.2"], "T = 1.2"),
    (["singular", "construct", "--m", "5"], "G_4(0) / 2 = 1.90714e+06"),
    # no G_m of height m >= 6 is a double
    (["singular", "construct", "--m", "6"], "m must be an integer >= 0 and <= 5"),
    (["singular", "construct", "--m", "100"], "m must be an integer >= 0 and <= 5"),
    # a rho grid whose point count is an inf quotient meets the work bound
    (["bifurcation", "trace", "--rho-step", "1e-320"], "shots times n"),
    # one ulp above e/2, where H_2(2T) rounds to 0 and H_3(2T) is undefined
    (["singular", "construct", "--n", "3", "--m", "3", "--T", "1.3591409142295228"],
     "T = 1.35914"),
    # a reference whose [config] the corrector refuses
    (TRACE + ["--lambda-star", "{tmp}/ref-T0.5"], "{tmp}/ref-T0.5/meta.txt"),
    # the tower height past 5 is refused by every command
    (["bifurcation", "trace", "--m", "6"], "got m = 6"),
    (["verify", "all", "--m", "6"], "got m = 6"),
    (["iterexp", "eval", "--kind", "g", "--m", "6", "--at", "-5"], "got m = 6"),
    # windows with no corrector grid node past T + 5, where the descent starts
    (["singular", "construct", "--n", "3", "--m", "1", "--T", "1.01", "--t-max", "4.04"],
     "[T, t_max] = [1.01, 4.04]"),
    (["verify", "miyamoto", "--n", "3", "--m", "2", "--T", "1.2", "--t-max", "4.8"],
     "[T, t_max] = [1.2, 4.8]"),
    # a flag or config key that the command does not read: a trace solves no corrector,
    # and construct and verify trace no branch
    (TRACE + ["--T", "7"], "--T"),
    (TRACE + ["--t-max", "100"], "--t-max"),
    (TRACE + ["--tol", "1e-3"], "--tol"),
    *[(TRACE + ["--config", f"{{tmp}}/{key}.cfg"], f"unknown config key: {key}")
      for key in ("T", "t_max", "tol")],
    *[(command + ["--config", f"{{tmp}}/{key}.cfg"], f"unknown config key: {key}")
      for command in (["singular", "construct"], ["verify", "all"])
      for key in ("rho_min", "rho_max", "rho_step", "singular_ref")],
    (["singular", "construct", "--rho-min", "0.1"], "--rho-min"),
    (["verify", "all", "--lambda-star", "{tmp}/ref"], "--lambda-star"),
    (TRACE + ["--lambda-star", "{tmp}/ref-old-construct"], "unknown config key: rho_min"),
    # a key given twice, also under two [config] headers
    (["singular", "construct", "--config", "{tmp}/twice.cfg"],
     "key n is given twice in config file {tmp}/twice.cfg"),
])
def test_bad_input_is_usage_error(bad_inputs, capsys, monkeypatch, args, named):
    real_arange = np.arange

    def arange(*a, **kw):
        # a refused rho grid must be refused before it is allocated
        if len(a) == 3:
            assert (a[1] - a[0]) / a[2] <= 2e6, "np.arange asked for an oversized grid"
        return real_arange(*a, **kw)
    monkeypatch.setattr(np, "arange", arange)
    args = [a.format(tmp=bad_inputs) for a in args]
    # iterexp eval writes no files and has no --outdir
    if args[0] != "iterexp" and "--outdir" not in args:
        args += ["--outdir", str(bad_inputs / "out")]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    if named is not None:
        assert named.format(tmp=bad_inputs) in err


def test_reference_that_does_not_rebuild_is_numeric_failure(bad_inputs, capsys, monkeypatch):
    # the reference is rebuilt before any shot; its corrector stalls at rounding,
    # above tol = 1e-30
    monkeypatch.setattr(br, "trace_curve", lambda *a, **kw: pytest.fail("a trace shot"))
    assert run_cli(TRACE + ["--lambda-star", str(bad_inputs / "ref-tol"),
                            "--outdir", str(bad_inputs / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: singular reference {bad_inputs}/ref-tol/meta.txt "
                          f"does not rebuild: ")
    assert "stalled at rounding: tol 1e-30 lies below" in err and "Traceback" not in err


def test_trace_rebuilds_its_reference_from_meta(tmp_path):
    # the reference is the solution its [config] rebuilds, not its profile_log.csv
    # (deleted here): turning points and intersection counts of the trace are the
    # library's against build_singular at that config
    sing, out = tmp_path / "sing", tmp_path / "bif"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", "--T", "40",
                    "--t-max", "300", "--outdir", str(sing)]) == 0
    (sing / "profile_log.csv").unlink()
    assert run_cli(["bifurcation", "trace", "--n", "3", "--m", "1", "--lambda-star", str(sing),
                    "--outdir", str(out)]) == 0
    ref = build_singular(3, 1, corrector.EtaSpaceConfig(T=40.0, t_max=300.0))
    assert ref.lambda_star != build_singular(3, 1).lambda_star
    tp = np.loadtxt(out / "turning_points.csv", delimiter=",", skiprows=1)
    assert len(tp) == 15
    assert tp[:, 2].tolist() == (tp[:, 1] - ref.lambda_star).tolist()
    inter = np.loadtxt(out / "intersections.csv", delimiter=",", skiprows=1)
    assert inter[:, 0].tolist() == [2.0, 4.0]
    assert inter[:, 1].tolist() == [br.intersection_count(br.shoot_regular(3, 1, rho), ref)
                                    for rho in (2.0, 4.0)]


def test_reference_lambda_star_one_ulp_off_is_refused(tmp_path, capsys, monkeypatch):
    sing = tmp_path / "sing"
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", "--outdir", str(sing)]) == 0
    meta = (sing / "meta.txt").read_text()
    lam = build_singular(3, 1).lambda_star
    moved = fmt(np.nextafter(lam, np.inf))
    assert f"lambda_star = {fmt(lam)}\n" in meta
    (sing / "meta.txt").write_text(meta.replace(f"lambda_star = {fmt(lam)}\n",
                                                f"lambda_star = {moved}\n"))
    monkeypatch.setattr(br, "trace_curve", lambda *a, **kw: pytest.fail("a trace shot"))
    assert run_cli(TRACE + ["--lambda-star", str(sing), "--outdir", str(tmp_path / "bif")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: singular reference {sing}/meta.txt records "
                          f"lambda_star = {moved}")


def test_meta_replays_as_config_file(tmp_path):
    # a run's meta.txt, read as --config, echoes None as None and gives the same profile
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(["singular", "construct", "--n", "4", "--T", "35", "--outdir",
                    str(first)]) == 0
    assert run_cli(["singular", "construct", "--config", str(first / "meta.txt"),
                    "--outdir", str(second)]) == 0
    for name in ("profile_log.csv", "meta.txt"):
        assert ((second / name).read_text().replace(str(second), str(first))
                == (first / name).read_text())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 4), T=st.floats(1.0, 8.0))
def test_construct_ends_every_window_as_documented(m, T):
    # every T in [1, 8] at m = 0..4 builds (0), is refused (1: T = 1 at m = 1, T at
    # or below G_{m-1}(0) / 2) or fails numerically (2: no contraction, or w <= 0
    # at the handoff), without a traceback or a warning
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(["singular", "construct", "--n", "3", "--m", str(m), "--T", repr(T),
                        "--outdir", out])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []


# values of the numeric flags beyond their finite ranges: not finite, negative,
# zero, tiny, and no number at all
_ODD_VALUES = ["nan", "inf", "-inf", "-1", "-1e-300", "0", "1e-300", "5e-324", "1e-9",
               "abc", "", "1e", "0x10", "1,5", "--"]
# the finite range each flag is drawn from, --t-max only without --T (given T, it
# is 4 to 16 times T); --T from 1.5 up, above the floor of every height drawn, so
# small windows build; --rho-max is always given and at most 1.2 unless it is the
# odd one, so a trace is a few dozen short shots
_FLAG_RANGES = {"--T": (1.5, 40.0), "--t-max": (50.0, 2000.0), "--tol": (1e-14, 1e-2),
                "--rho-min": (1e-3, 1.0), "--rho-max": (0.05, 1.2),
                "--rho-step": (0.01, 0.5)}
# --T and --t-max are sampled from _LOG_STEPS + 1 log-spaced values, by index:
# Hypothesis's float draws (and its small-integer draws) stick to their lower bounds
_LOG_STEPS = 64
# the numeric flags each command takes
_COMMAND_FLAGS = {"singular": ["--T", "--t-max", "--tol"],
                  "bifurcation": ["--rho-min", "--rho-max", "--rho-step"],
                  "verify": ["--T", "--t-max", "--tol"]}


def _log_spaced(lo, hi):
    """lo (hi / lo)^(i / _LOG_STEPS) for an index i sampled from 0 to _LOG_STEPS."""
    return st.sampled_from([lo * (hi / lo) ** (i / _LOG_STEPS) for i in range(_LOG_STEPS + 1)])


def _finite_value(flag):
    """A finite value of flag, from its _FLAG_RANGES."""
    if flag in ("--T", "--t-max"):
        return _log_spaced(*_FLAG_RANGES[flag]).map(repr)
    return st.floats(*_FLAG_RANGES[flag]).map(repr)


@st.composite
def _cli_runs(draw):
    """argv of one run: a command, --n, --m, each numeric flag of the command absent or
    finite, and at most one numeric flag given an odd value instead, which may be a flag
    that the command does not take."""
    command = draw(st.sampled_from([["singular", "construct"], ["bifurcation", "trace"],
                                    ["verify", "asymptotics"], ["verify", "miyamoto"],
                                    ["verify", "iterexp"], ["verify", "all"]]))
    values = {flag: draw(_finite_value(flag) if flag == "--rho-max"
                         else st.one_of(st.none(), _finite_value(flag)))
              for flag in _COMMAND_FLAGS[command[0]]}
    if values.get("--T") is not None:
        # given T, t_max is drawn from 4T up: a window may then end below the
        # descent's start or leave the miyamoto tail too thin
        values["--t-max"] = draw(st.one_of(st.none(), _log_spaced(4.0, 16.0).map(
            lambda k: repr(k * float(values["--T"])))))
    odd = draw(st.one_of(st.none(), st.sampled_from(list(_FLAG_RANGES))))
    if odd is not None:
        values[odd] = draw(st.sampled_from(_ODD_VALUES))
    argv = command + ["--n", str(draw(st.sampled_from([3, 4, 5]))),
                      "--m", str(draw(st.integers(0, 3)))]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=_cli_runs())
# windows that end below the descent's start, and one whose miyamoto tail is too thin
@example(argv=["singular", "construct", "--n", "3", "--m", "1", "--T", "1.01", "--t-max", "4.04"])
@example(argv=["verify", "miyamoto", "--n", "3", "--m", "2", "--T", "1.2", "--t-max", "4.8"])
@example(argv=["verify", "miyamoto", "--n", "3", "--m", "1", "--T", "1.8", "--t-max", "7.2"])
def test_every_run_ends_as_documented(argv):
    # any command with any of these values exits 0, 1 (usage) or 2 (numeric
    # failure), without a traceback or a warning; given a flag it does not take, 1
    foreign = set(argv) & set(_FLAG_RANGES) - set(_COMMAND_FLAGS[argv[0]])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(argv + ["--outdir", outdir])
    assert code in ((1,) if foreign else (0, 1, 2))
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert [str(w.message) for w in caught] == []



# a finite value for each config key, beside _ODD_VALUES and "None"; outdir is
# overridden by --outdir, and singular_ref names no directory
_CONFIG_VALUES = {"n": st.sampled_from(["3", "4", "5"]), "m": st.integers(0, 3).map(str),
                  "T": st.floats(1.5, 40.0).map(repr), "t_max": st.floats(50.0, 2000.0).map(repr),
                  "tol": st.floats(1e-14, 1e-2).map(repr),
                  "rho_min": st.floats(1e-3, 1.0).map(repr),
                  "rho_max": st.floats(0.05, 1.2).map(repr),
                  "rho_step": st.floats(0.01, 0.5).map(repr),
                  "outdir": st.just("elsewhere"), "singular_ref": st.just("nowhere"),
                  # keys of no command
                  "M": st.just("1"), "oracle": st.just("true"), "lambda_star": st.just("1")}
# the config keys each command reads, and its argv
_CONFIG_KEYS = {"singular": ["n", "m", "T", "t_max", "tol", "outdir"],
                "bifurcation": ["n", "m", "rho_min", "rho_max", "rho_step", "outdir",
                                "singular_ref"],
                "verify": ["n", "m", "T", "t_max", "tol", "outdir"]}
_CONFIG_COMMANDS = {"singular": ["singular", "construct"], "bifurcation": ["bifurcation", "trace"],
                    "verify": ["verify", "all"]}


@st.composite
def _config_runs(draw):
    """(command, config lines) of one run: some of the command's keys with finite values,
    a trace's always with rho_max (at most 1.2, so a few dozen short shots), and at most
    one line more of any key, its own, another command's, no command's or a repeat,
    with a finite or an odd value."""
    command = draw(st.sampled_from(list(_CONFIG_KEYS)))
    keys = draw(st.lists(st.sampled_from(_CONFIG_KEYS[command]), max_size=4, unique=True))
    if command == "bifurcation" and "rho_max" not in keys:
        keys.append("rho_max")
    lines = [(key, draw(_CONFIG_VALUES[key])) for key in keys]
    odd = draw(st.one_of(st.none(), st.sampled_from(list(_CONFIG_VALUES))))
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), (odd, draw(st.one_of(
            _CONFIG_VALUES[odd], st.sampled_from(_ODD_VALUES + ["None"])))))
    return command, lines


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(run=_config_runs())
def test_every_config_file_ends_as_documented(run):
    # a config file of any of these keys and values ends with exit 0, 1 or 2,
    # without a traceback or a warning; one with a key that the command does not
    # read, or with a key given twice, is a usage error (1)
    command, lines = run
    keys = [key for key, _ in lines]
    refused = len(set(keys)) < len(keys) or not set(keys) <= set(_CONFIG_KEYS[command])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as fh:
            fh.write("".join(f"{key} = {val}\n" for key, val in lines))
        code = run_cli(_CONFIG_COMMANDS[command] + ["--config", config,
                                                    "--outdir", os.path.join(tmp, "out")])
    assert code in ((1,) if refused else (0, 1, 2))
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert [str(w.message) for w in caught] == []


def test_verify_writes_only_once_every_suite_is_checked(tmp_path, monkeypatch):
    # the suites return their checks and files: every file, equivalence_trace.csv
    # included, is written after the last suite returned
    returned, writes = [], []   # suites returned; (file, suites returned before it)

    def returning(name, suite):
        def run(*args):
            result = suite(*args)
            returned.append(name)
            return result
        return run
    for name, suite in cli._SUITES.items():
        monkeypatch.setitem(cli._SUITES, name, returning(name, suite))
    write_csv = cli.write_csv

    def writing(path, *args):
        writes.append((os.path.basename(path), list(returned)))
        return write_csv(path, *args)
    monkeypatch.setattr(cli, "write_csv", writing)
    assert run_cli(["verify", "all", "--n", "3", "--m", "1", "--outdir", str(tmp_path)]) == 0
    assert sorted(name for name, _ in writes) == [
        "equivalence_trace.csv", "verify_asymptotics.csv", "verify_iterexp.csv",
        "verify_miyamoto.csv"]
    assert all(seen == ["iterexp", "asymptotics", "miyamoto"] for _, seen in writes)


@pytest.mark.parametrize("tol, code", [("1", 2), ("1e-2", 2), ("1e-3", 0)])
def test_construct_gates_its_residual(tmp_path, capsys, tol, code):
    # criterion 3 bounds the max relative residual by 1e-7: tol 1 gives 1.5e-4 and
    # 1e-2 gives 2.0e-6, which end with exit 2 before anything is written; 1e-3 gives 2.6e-8
    assert run_cli(["singular", "construct", "--n", "3", "--m", "1", "--tol", tol,
                    "--outdir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numeric failure: the max relative residual ")
        assert "is above 1e-07, the bound of criterion 3" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
    else:
        meta = cli._read_sections(tmp_path / "meta.txt", "meta.txt")
        assert float(meta["results"]["max_relative_residual"]) <= 1e-7


def test_meta_echoes_only_the_command_options(tmp_path):
    # each command's [config] lists the options it reads, in one order
    runs = {"singular": ["singular", "construct"], "bifurcation": TRACE,
            "verify": ["verify", "iterexp"]}
    for command, argv in runs.items():
        assert run_cli(argv + ["--outdir", str(tmp_path / command)]) == 0
        config = cli._read_sections(tmp_path / command / "meta.txt", "meta.txt")["config"]
        assert list(config) == _CONFIG_KEYS[command]


def test_construct_meta_replays_into_verify(tmp_path, capsys):
    # a construct's [config] holds only options that verify reads too
    sing, checks = tmp_path / "sing", tmp_path / "checks"
    assert run_cli(["singular", "construct", "--n", "4", "--m", "2", "--T", "35",
                    "--outdir", str(sing)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "asymptotics", "--config", str(sing / "meta.txt"),
                    "--outdir", str(checks)]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 2
    built = cli._read_sections(sing / "meta.txt", "meta.txt")["config"]
    checked = cli._read_sections(checks / "meta.txt", "meta.txt")["config"]
    assert checked == {**built, "outdir": str(checks)}
