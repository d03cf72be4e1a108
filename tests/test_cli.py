import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from aamr.bench import SweepConfig, sweep_alpha, sweep_beta
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
    code = main(["solve", two_balls, "--q", "2,1",
                 "--method", "aamr:alpha=0.9:beta=0.7", "--eps", "1e-10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    shadow_line = next(l for l in out.splitlines() if l.startswith("shadow:"))
    shadow = np.array([float(t) for t in shadow_line.split(":")[1].split(",")])
    assert np.linalg.norm(shadow - [0.0, 1.0]) <= 1e-4


def test_solve_two_balls_divergent_branch(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "0,2",
                 "--method", "aamr:alpha=0.9:beta=0.7", "--mode", "budget",
                 "--max-iter", "100000", "--divergence-threshold", "25"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: diverged" in out


def _shadow(out):
    line = next(l for l in out.splitlines() if l.startswith("shadow:"))
    return np.array([float(t) for t in line.split(":")[1].split(",")])


def test_solve_runs_its_default_method(two_balls, capsys):
    # no --method: bare aamr, which without an angle takes the driver's beta
    code = main(["solve", two_balls, "--q", "2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    assert np.linalg.norm(_shadow(out) - [0.0, 1.0]) <= 1e-4
    assert main(["solve", two_balls, "--q", "2,1", "--method", "aamr:beta=0.7"]) == 0
    assert capsys.readouterr().out == out


def test_solve_rejects_beta_one(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "aamr:beta=1.0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "beta must lie in (0, 1)" in err
    assert "drm" in err


def test_solve_rejects_parameter_the_method_does_not_take(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "map:alpha=0.5"])
    assert code == 1
    assert "map takes no parameter alpha" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--mu", "--gamma", "--lam"])
def test_solve_parameter_flags_are_gone(two_balls, capsys, flag):
    # parameters travel in the --method token, the syntax bench --methods reads
    code = main(["solve", two_balls, "--q", "2,1", "--method", "aamr", flag, "0.5"])
    assert code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_solve_method_token_error_names_the_token(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--method", "aamr:alpha=abc"])
    assert code == 1
    assert "'aamr:alpha=abc': alpha must be a number" in capsys.readouterr().err


def test_method_token_naming_a_parameter_twice_is_rejected(two_balls, tmp_path, capsys):
    token = "aamr:ALPHA=0.9:alpha=0.5"
    code = main(["solve", two_balls, "--q", "2,1", "--method", token])
    assert code == 1
    assert f"method token {token!r} names alpha twice" in capsys.readouterr().err
    out_dir = tmp_path / "out"
    code = main(["bench", "angle-profile", "--n", "8", "--instances", "1",
                 "--methods", f"map,{token}", "--out-dir", str(out_dir)])
    assert code == 1
    assert f"method token {token!r} names alpha twice" in capsys.readouterr().err
    assert not out_dir.exists()


def test_solve_free_start_point(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--x0", "5,-3", "--eps", "1e-10",
                 "--method", "aamr:alpha=0.9:beta=0.7"])
    out = capsys.readouterr().out
    assert code == 0
    shadow_line = next(l for l in out.splitlines() if l.startswith("shadow:"))
    shadow = np.array([float(t) for t in shadow_line.split(":")[1].split(",")])
    assert np.linalg.norm(shadow - [0.0, 1.0]) <= 1e-4
    # a method that starts at the projected point rejects a start
    code = main(["solve", two_balls, "--q", "2,1", "--x0", "5,-3", "--method", "map"])
    assert code == 1
    assert "x0 is not free" in capsys.readouterr().err


def test_solve_budget_exit_code(two_balls):
    code = main(["solve", two_balls, "--q", "2,1",
                 "--method", "aamr:alpha=0.9:beta=0.7", "--eps", "1e-14",
                 "--max-iter", "3"])
    assert code == 3


def test_solve_writes_trace(two_balls, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["solve", two_balls, "--q", "2,1",
                 "--method", "aamr:alpha=0.9:beta=0.7", "--eps", "1e-8",
                 "--trace", str(trace)])
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


def test_solve_rejects_a_non_finite_offset(tmp_path, capsys):
    # json reads NaN; the halfspace would otherwise turn every iterate into NaN
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 2, "sets": [{"type": "halfspace", "a": [1.0, 0.0], "b": NaN},'
                    ' {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}]}')
    code = main(["solve", str(path), "--q", "2,1"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: sets[0]: halfspace offset must be finite, "
                                       "got nan\n")


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


def test_angle_needs_exactly_two_subspaces(two_balls, capsys):
    assert main(["angle", two_balls]) == 1
    assert ("angle needs a problem file with exactly two subspace sets"
            in capsys.readouterr().err)


def test_bench_rates_accuracy(tmp_path, capsys):
    out_dir = tmp_path / "rates"
    code = main(["bench", "rates", "--thetas", "0.5", "--out-dir", str(out_dir)])
    assert code == 0
    rates = (out_dir / "rates.csv").read_text().splitlines()
    row = next(l for l in rates if l.startswith("0.5,map"))
    estimated = float(row.split(",")[2])
    assert abs(estimated - 0.7702) <= 0.05 * 0.7702
    assert (out_dir / "error_vs_iteration.svg").exists()


def test_bench_rates_draws_one_series_per_run_of_a_repeated_method(tmp_path, capsys):
    out_dir = tmp_path / "rates"
    assert main(["bench", "rates", "--methods", "map,map", "--out-dir", str(out_dir)]) == 0
    for name in ("rates.csv", "runs_rates.csv"):
        assert len((out_dir / name).read_text().splitlines()) == 1 + 6
    assert (out_dir / "error_vs_iteration.svg").read_text().count("<polyline") == 6


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


def test_bench_alpha_drm_column(tmp_path, capsys):
    out_dir = tmp_path / "alpha"
    code = main(["bench", "alpha", "--n", "16", "--instances", "3",
                 "--bins", "3", "--alphas", "0.3,0.4,0.5,0.6,0.7",
                 "--methods", "drm", "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "best_alpha.csv").read_text().splitlines()[1:]
    picks = [float(r.split(",")[4]) for r in rows]
    assert abs(float(np.mean(picks)) - 0.5) <= 0.15


# the beta sweep runs aamr only; the alpha sweep sets alpha and beta itself
_ROSTER_ERRORS = {"alpha": "the alpha sweep takes bare kinds",
                  "beta": "the beta sweep takes no methods"}


def test_sweeps_reject_methods_they_would_ignore(tmp_path, capsys):
    for sweep, methods in (("beta", "map"), ("beta", "aamr"),
                           ("alpha", "aamr:beta=0.95"), ("alpha", "drm:alpha=0.5")):
        code = main(["bench", sweep, "--n", "16", "--instances", "1", "--bins", "1",
                     "--methods", methods, "--out-dir", str(tmp_path)])
        assert code == 1
        assert _ROSTER_ERRORS[sweep] in capsys.readouterr().err


def test_usage_error_for_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["solve", "BALLS", "--q", "2,1", "--method", "aamr:alpha=abc"],
    ["solve", "BALLS", "--q", "2,1", "--method", "aamr:beta=1.0"],
    ["solve", "BALLS", "--q", "1,2,3"],
    ["solve", "TRUNCATED", "--q", "2,1"],
    ["solve", "MISSING", "--q", "2,1"],
    ["solve", "BALLS", "--q", "2,1", "--mode", "true-error"],
    ["bench", "beta", "--jobs", "0", "--out-dir", "OUT"],
    ["bench", "rates", "--starts", "7", "--out-dir", "OUT"],
    ["solve", "HUGE", "--q", "2"],
    ["solve", "HUGE_DIM", "--q", "2"],
], ids=["command", "alpha-token", "beta-one", "q-dimension", "truncated", "missing",
        "no-oracle", "jobs", "unread-flag", "huge-integer", "huge-dim"])
def test_every_rejection_is_one_error_line_and_exit_1(tmp_path, capsys, argv):
    files = {"BALLS": json.dumps(TWO_BALLS), "TRUNCATED": '{"dim": 2, "sets": [',
             "HUGE": '{"dim": 1, "sets": [{"type": "ball", "center": [0], '
                     f'"radius": {_HUGE}}}]}}',
             "HUGE_DIM": f'{{"dim": {_HUGE}, "sets": [{{"type": "subspace", "basis": []}}]}}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in (*files, "MISSING", "OUT") else arg
            for arg in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert not (tmp_path / "OUT").exists()


def test_true_error_mode_needs_oracle_family(two_balls, capsys):
    code = main(["solve", two_balls, "--q", "2,1", "--mode", "true-error"])
    assert code == 1
    assert "no closed-form intersection projector" in capsys.readouterr().err


def test_full_scale_presets_construct():
    from aamr.cli import _bench_config, _build_parser
    parser = _build_parser()
    for sweep in ("alpha", "beta", "angle-profile"):
        args = parser.parse_args(["bench", sweep, "--full-scale", "--seed", "1"])
        config = _bench_config(args)
        if sweep == "alpha":
            assert config.n_instances == 1000
        if sweep == "beta":
            assert config.n_starts == 100 and len(config.beta_grid) == 120


def _config(*argv):
    from aamr.cli import _bench_config, _build_parser
    return _bench_config(_build_parser().parse_args(["bench", *argv]))


def test_full_scale_preset_yields_to_given_flags():
    config = _config("beta", "--full-scale", "--starts", "5", "--instances", "3",
                     "--bins", "7")
    assert (config.n_starts, config.n_instances, config.angle_bins) == (5, 3, 7)
    assert len(config.beta_grid) == 120  # the preset's grid, since --betas is unset
    config = _config("beta", "--full-scale", "--betas", "0.5,0.6", "--seed", "2")
    assert (config.beta_grid, config.seed, config.n_starts) == ((0.5, 0.6), 2, 100)


@pytest.mark.parametrize("sweep", ["alpha", "beta", "angle-profile", "rates"])
def test_bench_config_defaults_are_sweep_config_defaults(sweep):
    from aamr.bench import SWEEPS
    assert _config(sweep) == SweepConfig()
    if sweep == "rates":  # no preset: --full-scale is a flag rates does not read
        with pytest.raises(ValueError, match="does not read --full-scale$"):
            _config(sweep, "--full-scale")
    else:
        assert _config(sweep, "--full-scale") == SweepConfig(**SWEEPS[sweep].full_scale)


def test_empty_methods_roster_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "empty"
    code = main(["bench", "angle-profile", "--n", "8", "--instances", "1",
                 "--methods", ",", "--out-dir", str(out_dir)])
    assert code == 1
    assert "--methods" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("sweep, flag", [("alpha", "--alphas"), ("beta", "--betas"),
                                         ("rates", "--thetas")])
def test_grid_flags_name_themselves_in_errors(tmp_path, capsys, sweep, flag):
    code = main(["bench", sweep, flag, "0.5,x", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated reals, got '0.5,x'" in err
    assert not (tmp_path / "out").exists()


def test_rates_angles_and_jobs_are_sweep_config_fields():
    assert _config("rates", "--thetas", "0.3,0.9") == SweepConfig(rate_thetas=(0.3, 0.9))
    assert _config("angle-profile", "--jobs", "2") == SweepConfig(jobs=2)


def test_rates_angle_outside_the_quarter_turn_is_rejected(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["bench", "rates", "--thetas", "0", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: rate_thetas must lie in (0, pi/2], got 0.0\n"
    assert not out_dir.exists()


def test_rates_angle_given_twice_is_rejected(tmp_path, capsys):
    # each angle draws one error-by-iteration series per method
    out_dir = tmp_path / "out"
    code = main(["bench", "rates", "--thetas", "0.5,0.5", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: rate_thetas repeats an entry: (0.5, 0.5)\n"
    assert not out_dir.exists()


def test_every_bench_flag_sets_its_sweep_config_field(monkeypatch):
    from aamr import bench
    expected = dict(seed=7, n=9, n_instances=3, n_starts=4, eps=1e-5, max_iter=1234,
                    angle_bins=5, alpha_grid=(0.25, 0.5), beta_grid=(0.6, 0.8),
                    rate_thetas=(0.3, 1.2), jobs=2)
    # a sweep that reads every field, so no typed flag is a usage error
    everything = tuple(f.name for f in dataclasses.fields(SweepConfig))
    monkeypatch.setitem(bench.SWEEPS, "alpha",
                        dataclasses.replace(bench.SWEEPS["alpha"], reads=everything))
    config = _config("alpha", "--seed", "7", "--n", "9", "--instances", "3", "--starts", "4",
                     "--eps", "1e-5", "--max-iter", "1234", "--bins", "5",
                     "--alphas", "0.25,0.5", "--betas", "0.6,0.8", "--thetas", "0.3,1.2",
                     "--jobs", "2")
    for field in everything:
        assert getattr(config, field) == expected.get(field, getattr(SweepConfig(), field)), \
            field


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_rejected(tmp_path, capsys, jobs):
    code = main(["bench", "angle-profile", "--n", "8", "--instances", "1",
                 "--methods", "map", "--jobs", jobs, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "config counts must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, methods", [("beta", "map"), ("alpha", "aamr:beta=0.95")])
def test_rejected_roster_leaves_no_output_directory(tmp_path, capsys, sweep, methods):
    out_dir = tmp_path / "out"
    code = main(["bench", sweep, "--n", "8", "--instances", "1", "--methods", methods,
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert _ROSTER_ERRORS[sweep] in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_alpha_grid_is_rejected(tmp_path, capsys):
    # drm takes alpha in (0, 1), so the grid keeps nothing of 1.5
    out_dir = tmp_path / "out"
    code = main(["bench", "alpha", "--methods", "drm", "--alphas", "1.5", "--n", "8",
                 "--instances", "1", "--out-dir", str(out_dir)])
    assert code == 1
    assert ("alpha_grid holds no alpha drm takes: alpha must lie in (0, 1)"
            in capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("sweep, argv, named", [
    ("rates", ["--starts", "7"], "--starts"),
    ("rates", ["--thetas", "0.5", "--instances", "3", "--alphas", "0.3", "--jobs", "2"],
     "--instances, --alphas, --jobs"),
    ("angle-profile", ["--n", "8", "--betas", "0.5", "--thetas", "1"], "--betas, --thetas"),
    ("alpha", ["--starts", "2", "--seed", "1"], "--starts"),
    ("beta", ["--alphas", "0.5"], "--alphas"),
])
def test_bench_rejects_typed_flags_its_sweep_does_not_read(tmp_path, capsys, monkeypatch,
                                                           sweep, argv, named):
    from aamr import bench

    def no_solves(config, methods):
        raise AssertionError("ran a sweep given a flag it ignores")
    monkeypatch.setitem(bench.SWEEPS, sweep,
                        dataclasses.replace(bench.SWEEPS[sweep], run=no_solves))
    out_dir = tmp_path / "out"
    code = main(["bench", sweep, *argv, "--out-dir", str(out_dir)])
    assert code == 1
    assert f"error: the {sweep} sweep does not read {named}\n" == capsys.readouterr().err
    assert not out_dir.exists()


def test_full_scale_presets_set_only_fields_their_sweep_reads(tmp_path, capsys):
    from aamr.bench import SWEEPS
    for name, sweep in SWEEPS.items():
        assert set(sweep.full_scale) <= set(sweep.reads), name
    out_dir = tmp_path / "out"
    code = main(["bench", "rates", "--full-scale", "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: the rates sweep does not read --full-scale\n"
    assert not out_dir.exists()


def _legend(svg_lines):
    return [label for line in svg_lines
            for label in re.findall(r'font-size="11">([^<]*)</text>', line)]


def test_bench_beta_degenerate_fit(tmp_path, capsys):
    out_dir = tmp_path / "beta"
    code = main(["bench", "beta", "--n", "8", "--instances", "2", "--starts", "2",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines, (runs, best, svg) = _bench_artifacts(out_dir, capsys)
    assert lines == ["  fit degenerate: not enough converged instances"]
    assert len(best) == 3  # both instances have a best beta, too few to fit
    assert _legend(svg) == ["best beta", "shipped rule"]


def test_bench_beta_fit_that_fails_on_enough_instances_says_so(tmp_path, capsys):
    # four converged instances, all near the 0.02 angle floor and all best at
    # beta 0.99: the fit has enough records but fails on them
    out_dir = tmp_path / "beta"
    code = main(["bench", "beta", "--seed", "0", "--n", "20", "--instances", "4",
                 "--bins", "240", "--starts", "2", "--betas", "0.9,0.99",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines, (runs, best, svg) = _bench_artifacts(out_dir, capsys)
    assert lines == ["  fit failed: no exponential fit to the best betas of 4 instances"]
    assert len(best) == 5
    assert _legend(svg) == ["best beta", "shipped rule"]


@pytest.mark.parametrize("sweep", ["alpha", "beta"])
def test_bench_with_nothing_converged_writes_header_only_tables(tmp_path, capsys, sweep):
    out_dir = tmp_path / sweep
    starts = ["--starts", "2"] if sweep == "beta" else []  # alpha runs start 0 only
    code = main(["bench", sweep, "--n", "8", "--instances", "2", *starts,
                 "--max-iter", "1", "--out-dir", str(out_dir)])
    assert code == 0
    _, (runs, best, _svg) = _bench_artifacts(out_dir, capsys)
    assert len(best) == 1 and best[0].startswith("instance_id,theta_F,")
    assert len(runs) > 1
    assert all(",budget_exhausted,1," in row for row in runs[1:])


def test_bench_jobs_flag_keeps_determinism(tmp_path):
    base = ["bench", "angle-profile", "--n", "16", "--instances", "2",
            "--starts", "2", "--bins", "2", "--seed", "3", "--methods", "map"]
    d1, d2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(base + ["--out-dir", str(d1)]) == 0
    assert main(base + ["--jobs", "2", "--out-dir", str(d2)]) == 0
    assert ((d1 / "runs_angle_profile.csv").read_bytes()
            == (d2 / "runs_angle_profile.csv").read_bytes())


def test_solve_with_explicit_method_roster(planes, capsys):
    # map on the plane pair with the true-error oracle stop
    code = main(["solve", planes, "--q", "1,2,3", "--method", "map",
                 "--mode", "true-error", "--eps", "1e-8"])
    assert code == 0
    capsys.readouterr()
    # bare rap on the plane pair runs at its driver's mu = 1 (no angle needed)
    code = main(["solve", planes, "--q", "1,2,3", "--method", "rap"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    assert np.allclose(_shadow(out), [0.0, 2.0, 0.0])


def _bench_artifacts(out_dir, capsys):
    """Files in ``out_dir`` and the stdout of the bench run that wrote them."""
    out = capsys.readouterr().out.splitlines()
    wrote = [line[len("wrote "):] for line in out if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(str(p) for p in out_dir.iterdir())
    assert out[-len(wrote):] == [f"wrote {p}" for p in wrote]
    for path in wrote:
        if path.endswith(".svg"):
            text = Path(path).read_text()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    return out[:-len(wrote)], [Path(p).read_text().splitlines() for p in wrote]


def test_bench_alpha_writes_every_artifact(tmp_path, capsys):
    out_dir = tmp_path / "alpha"
    code = main(["bench", "alpha", "--n", "16", "--instances", "3", "--bins", "3",
                 "--alphas", "0.5,0.7,0.9,1.0", "--seed", "4",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines, (runs, best, svg) = _bench_artifacts(out_dir, capsys)
    config = SweepConfig(n=16, n_instances=3, angle_bins=3, seed=4,
                         alpha_grid=(0.5, 0.7, 0.9, 1.0))
    expected_runs, expected_best = sweep_alpha(config, "aamr")
    assert len(runs) == 1 + 3 * 4 * 4  # instances x default betas x alphas
    assert [tuple(r.split(",")[:5]) for r in runs[1:]] == [
        (str(r.instance_id), repr(r.theta), "aamr", repr(r.alpha), repr(r.beta))
        for r in expected_runs]
    assert best[0] == "instance_id,theta_F,method,beta,best_alpha,iterations"
    assert best[1:] == [f"{r.instance_id},{r.theta!r},aamr,{r.beta!r},"
                        f"{r.best_alpha!r},{r.iterations}" for r in expected_best]
    for beta in config.alpha_sweep_betas:
        assert sum(f"aamr beta={beta:g}" in line for line in svg) >= 2
    assert lines == [
        f"  {'aamr beta=' + format(beta, 'g'):20s} mean best alpha "
        f"{np.mean([r.best_alpha for r in expected_best if r.beta == beta]):.3f}"
        f" over 3 instances" for beta in config.alpha_sweep_betas]


def test_bench_beta_writes_every_artifact(tmp_path, capsys):
    out_dir = tmp_path / "beta"
    code = main(["bench", "beta", "--n", "16", "--instances", "5", "--bins", "5",
                 "--starts", "2", "--betas", "0.5,0.7,0.9", "--seed", "4",
                 "--out-dir", str(out_dir)])
    assert code == 0
    lines, (runs, best, svg) = _bench_artifacts(out_dir, capsys)
    config = SweepConfig(n=16, n_instances=5, angle_bins=5, n_starts=2, seed=4,
                         beta_grid=(0.5, 0.7, 0.9))
    expected_runs, expected_best, fit = sweep_beta(config)
    assert len(runs) == 1 + 5 * 3 * 2  # instances x betas x starts
    assert [tuple(r.split(",")[2:5]) + (r.split(",")[8],) for r in runs[1:]] == [
        ("aamr", "0.9", repr(r.beta), str(r.start_id)) for r in expected_runs]
    assert best[0] == "instance_id,theta_F,best_beta,median_iterations"
    assert best[1:] == [f"{r.instance_id},{r.theta!r},{r.best_beta!r},"
                        f"{r.median_iterations!r}" for r in expected_best]
    assert any("best beta" in line for line in svg)
    assert any("shipped rule" in line for line in svg)
    assert fit is not None
    assert any(f"fit {fit.a:.3f}*exp(" in line for line in svg)
    assert lines == [f"  exponential fit: beta = {fit.a:.4f}*exp({fit.b:.4f}*theta) "
                     f"+ {fit.c:.4f}   (rms {fit.rms_residual:.4f}, "
                     f"shipped rule rms {fit.rule_rms_residual:.4f})"]
