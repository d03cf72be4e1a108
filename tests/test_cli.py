import json

import numpy as np
import pytest

from aamr.cli import main


TWO_BALLS = {
    "dim": 2,
    "sets": [
        {"type": "ball", "center": [1.0, 1.0], "radius": 1.0},
        {"type": "ball", "center": [-1.0, 1.0], "radius": 1.0},
    ],
}

PLANES = {
    "dim": 3,
    "sets": [
        {"type": "subspace", "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        {"type": "subspace", "basis": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    ],
}


@pytest.fixture
def two_balls(tmp_path):
    path = tmp_path / "two_balls.json"
    path.write_text(json.dumps(TWO_BALLS))
    return str(path)


@pytest.fixture
def planes(tmp_path):
    path = tmp_path / "planes.json"
    path.write_text(json.dumps(PLANES))
    return str(path)


def test_solve_two_balls_converges(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "aamr",
                 "--alpha", "0.9", "--beta", "0.7", "--eps", "1e-10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    shadow_line = next(l for l in out.splitlines() if l.startswith("shadow:"))
    shadow = np.array([float(t) for t in shadow_line.split(":")[1].split(",")])
    assert np.linalg.norm(shadow - [0.0, 1.0]) <= 1e-4


def test_solve_two_balls_divergent_branch(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "0,2", "--method", "aamr",
                 "--alpha", "0.9", "--beta", "0.7", "--mode", "budget",
                 "--max-iter", "100000", "--divergence-threshold", "25"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: diverged" in out


def test_solve_rejects_beta_one(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "aamr",
                 "--beta", "1.0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "beta must lie in (0, 1)" in err
    assert "drm" in err


def test_solve_rejects_parameter_the_method_does_not_take(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "map",
                 "--alpha", "0.5"])
    assert code == 1
    assert "map takes no parameter alpha" in capsys.readouterr().err


def test_solve_budget_exit_code(two_balls):
    code = main(["solve", two_balls, "--q", "2,1", "--alpha", "0.9",
                 "--beta", "0.7", "--eps", "1e-14", "--max-iter", "3"])
    assert code == 3


def test_solve_writes_trace(two_balls, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["solve", two_balls, "--q", "2,1", "--alpha", "0.9",
                 "--beta", "0.7", "--eps", "1e-8", "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,error,step_norm"
    assert len(lines) > 2


def test_solve_malformed_file_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "sets": [
        {"type": "ball", "center": [0.0, 0.0]}]}))
    code = main(["solve", str(path), "--q", "0,0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "sets[0].radius" in err


def test_solve_dimension_mismatch_is_usage_error(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "1,2,3"])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


def test_angle_command(planes, capsys):
    code = main(["angle", planes])
    out = capsys.readouterr().out
    assert code == 0
    assert "principal angles (radians): 0.000000, 1.570796" in out
    assert "intersection dimension: 1" in out
    assert "Friedrichs angle (radians): 1.570796" in out


def test_angle_orthogonal_lines(tmp_path, capsys):
    doc = {"dim": 3, "sets": [
        {"type": "subspace", "basis": [[1.0, 0.0, 0.0]]},
        {"type": "subspace", "basis": [[0.0, 1.0, 0.0]]}]}
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(doc))
    code = main(["angle", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Friedrichs angle (radians): 1.570796" in out


def test_angle_coincident_subspaces(tmp_path, capsys):
    doc = {"dim": 2, "sets": [
        {"type": "subspace", "basis": [[1.0, 0.0]]},
        {"type": "subspace", "basis": [[1.0, 0.0]]}]}
    path = tmp_path / "same.json"
    path.write_text(json.dumps(doc))
    code = main(["angle", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "coincident subspaces" in err


def test_bench_rates_accuracy(tmp_path, capsys):
    out_dir = tmp_path / "rates"
    code = main(["bench", "rates", "--thetas", "0.5", "--out-dir", str(out_dir)])
    assert code == 0
    rates = (out_dir / "rates.csv").read_text().splitlines()
    row = next(l for l in rates if l.startswith("0.5,map"))
    estimated = float(row.split(",")[2])
    assert abs(estimated - 0.7702) <= 0.05 * 0.7702
    assert (out_dir / "error_vs_iteration.svg").exists()


def test_bench_profile_deterministic_csv(tmp_path):
    args = ["bench", "angle-profile", "--n", "16", "--instances", "2",
            "--starts", "2", "--bins", "2", "--seed", "7",
            "--methods", "map,aamr:alpha=0.9:beta=0.7"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    a = (d1 / "runs_angle_profile.csv").read_bytes()
    b = (d2 / "runs_angle_profile.csv").read_bytes()
    assert a == b
    svg = (d1 / "median_vs_angle.svg").read_bytes()
    assert svg == (d2 / "median_vs_angle.svg").read_bytes()


def test_bench_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("AAMR_SEED", "7")
    d1 = tmp_path / "env"
    args = ["bench", "angle-profile", "--n", "16", "--instances", "1",
            "--starts", "1", "--bins", "1", "--methods", "map"]
    assert main(args + ["--out-dir", str(d1)]) == 0
    text = (d1 / "runs_angle_profile.csv").read_text()
    assert text.splitlines()[1].endswith(",7")


def test_bench_alpha_drm_column(tmp_path, capsys):
    out_dir = tmp_path / "alpha"
    code = main(["bench", "alpha", "--n", "16", "--instances", "3",
                 "--bins", "3", "--alphas", "0.3,0.4,0.5,0.6,0.7",
                 "--methods", "drm", "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "best_alpha.csv").read_text().splitlines()[1:]
    picks = [float(r.split(",")[4]) for r in rows]
    assert abs(float(np.mean(picks)) - 0.5) <= 0.15


def test_usage_error_for_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_true_error_mode_needs_oracle_family(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--mode", "true-error"])
    assert code == 1
    assert "no closed-form intersection projector" in capsys.readouterr().err


def test_full_scale_presets_construct():
    from aamr.cli import _bench_config, _build_parser
    parser = _build_parser()
    for sweep in ("alpha", "beta", "angle-profile", "rates"):
        args = parser.parse_args(["bench", sweep, "--full-scale", "--seed", "1"])
        config = _bench_config(args)
        if sweep == "alpha":
            assert config.n_instances == 1000 and config.n_starts == 1
        if sweep == "beta":
            assert config.n_starts == 100 and len(config.beta_grid) == 120


def test_bench_jobs_flag_keeps_determinism(tmp_path):
    base = ["bench", "angle-profile", "--n", "16", "--instances", "2",
            "--starts", "2", "--bins", "2", "--seed", "3", "--methods", "map"]
    d1, d2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(base + ["--out-dir", str(d1)]) == 0
    assert main(base + ["--jobs", "2", "--out-dir", str(d2)]) == 0
    assert ((d1 / "runs_angle_profile.csv").read_bytes()
            == (d2 / "runs_angle_profile.csv").read_bytes())


def test_solve_with_explicit_method_roster(two_balls, planes):
    # map on the plane pair with the true-error oracle stop
    code = main(["solve", planes, "--q", "1,2,3", "--method", "map",
                 "--mode", "true-error", "--eps", "1e-8"])
    assert code == 0
    # pairwise method on a three-set file fails cleanly
    code = main(["solve", planes, "--q", "1,2,3", "--method", "rap"])
    assert code == 1  # mu needs an explicit value without an instance angle
