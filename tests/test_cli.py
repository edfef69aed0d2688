import json
import math
import os

import numpy as np
import pytest

from itergelfand.cli import main


def run_cli(args):
    return main(args)


def test_iterexp_eval(capsys):
    assert run_cli(["iterexp", "eval", "--m", "2", "--kind", "g", "--at", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.e, rel=1e-15)


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


def test_verify_miyamoto(tmp_path, capsys):
    code = run_cli(["verify", "miyamoto", "--n", "3", "--outdir", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and payload["passed"] is True
    assert (tmp_path / "equivalence_trace.csv").exists()


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
