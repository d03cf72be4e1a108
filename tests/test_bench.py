import math
from pathlib import Path

import numpy as np
import pytest

from aamr import MethodSpec, Status
from aamr.bench import (CSV_HEADER, SweepConfig, angle_profile, estimate_rate,
                        make_instances, parse_method_token, rate_profile,
                        start_point, sweep_alpha, sweep_beta, write_runs_csv)


def small_config(**overrides):
    base = dict(n=16, n_instances=4, n_starts=3, eps=1e-3, max_iter=50_000,
                angle_bins=4, seed=13,
                alpha_grid=(0.3, 0.5, 0.7, 0.9, 0.99),
                alpha_sweep_betas=(0.7,),
                beta_grid=(0.3, 0.5, 0.7, 0.9))
    base.update(overrides)
    return SweepConfig(**base)


# --- rate estimation ---------------------------------------------------------

def test_estimate_rate_exact_geometric():
    errors = [0.8 ** k for k in range(60)]
    assert estimate_rate(errors) == pytest.approx(0.8, abs=1e-6)


def test_estimate_rate_accepts_trace_tuples():
    trace = [(k, 0.9 ** k, math.nan) for k in range(80)]
    assert estimate_rate(trace) == pytest.approx(0.9, abs=1e-9)


def test_estimate_rate_rejects_short_traces():
    with pytest.raises(ValueError, match="20"):
        estimate_rate([0.5 ** k for k in range(10)])
    # all below the floor
    with pytest.raises(ValueError):
        estimate_rate([1e-18] * 50)


def test_rate_profile_matches_known_rates():
    _, records, traces = rate_profile(thetas=(0.5,), seed=1)
    by_kind = {r.method: r for r in records}
    assert by_kind["map"].estimated_rate == pytest.approx(math.cos(0.5) ** 2,
                                                          rel=0.05)
    assert by_kind["drm"].estimated_rate == pytest.approx(math.cos(0.5), rel=0.05)
    assert by_kind["map"].expected_rate == pytest.approx(math.cos(0.5) ** 2)
    assert traces  # SVG input available


# --- instances and starts ------------------------------------------------------

def test_make_instances_binned_angles_cover_range():
    config = small_config(n_instances=4, angle_bins=4)
    pairs = make_instances(config)
    angles = [p.angle for p in pairs]
    width = (math.pi / 2) / 4
    for i, angle in enumerate(angles):
        assert i * width - 1e-9 <= angle <= (i + 1) * width + 1e-9
    again = [p.angle for p in make_instances(config)]
    assert angles == again


def test_make_instances_random_mode():
    config = small_config(angle_binned=False)
    pairs = make_instances(config)
    assert all(p.intersection.shape[1] >= 1 for p in pairs)


def test_start_points_have_requested_norm_and_are_seeded():
    config = small_config()
    a = start_point(config, 2, 5)
    b = start_point(config, 2, 5)
    c = start_point(config, 2, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(config.start_norm, abs=1e-12)


# --- angle profile ---------------------------------------------------------------

def test_angle_profile_statistics_and_stopping_contract():
    config = small_config(n_instances=2, n_starts=3)
    methods = [MethodSpec("map"), MethodSpec("aamr", alpha=0.9, beta=0.7)]
    runs, records = angle_profile(config, methods=methods)
    assert len(runs) == 2 * 2 * 3
    assert len(records) == 4
    for rec in records:
        sel = [r for r in runs if r.instance_id == rec.instance_id
               and r.method == rec.method.kind]
        iters = [r.iterations for r in sel if r.status == "converged"]
        assert rec.status_counts["converged"] == len(iters)
        assert sum(rec.status_counts.values()) == rec.n_starts
        if iters:
            assert rec.median_iterations == float(np.median(iters))
            assert rec.std_iterations == float(np.std(iters))


def test_angle_profile_single_start_zero_std():
    config = small_config(n_instances=1, n_starts=1)
    _, records = angle_profile(config, methods=[MethodSpec("map")])
    assert records[0].std_iterations == 0.0


def test_reported_count_is_first_index_below_eps():
    # rerun one configuration with a trace and check the stopping index
    from aamr import LinearSubspace, StoppingPolicy, solve_best_approximation
    config = small_config()
    pair = make_instances(config)[2]
    u = LinearSubspace(pair.basis_u)
    v = LinearSubspace(pair.basis_v)
    target = LinearSubspace(pair.intersection)
    q = start_point(config, 2, 0)
    policy = StoppingPolicy.true_error(target, eps=config.eps,
                                       max_iter=config.max_iter, record_trace=True)
    res = solve_best_approximation(MethodSpec("map"), [u, v], q, policy=policy)
    assert res.status is Status.CONVERGED
    errors = [e for _, e, _ in res.trace]
    assert errors[res.iterations] < config.eps
    assert all(e >= config.eps for e in errors[:res.iterations])


# --- alpha sweep -----------------------------------------------------------------

def test_batched_sweep_matches_engine_exactly():
    from aamr import LinearSubspace, StoppingPolicy, aamr_solve, dr_solve
    from aamr.bench import _batched_pair_sweep
    from aamr import random_subspace_pair

    pair = random_subspace_pair(18, 303)
    u = LinearSubspace(pair.basis_u)
    v = LinearSubspace(pair.basis_v)
    target = LinearSubspace(pair.intersection)
    rng = np.random.default_rng(0)
    policy = StoppingPolicy.true_error(target, eps=1e-3, max_iter=50_000)
    qs, alphas, betas, expected = [], [], [], []
    for i in range(8):
        q = rng.standard_normal(18) * 8
        alpha = min(rng.uniform(0.2, 1.0), 0.99)
        beta = [0.5, 0.7, 0.9, 1.0][i % 4]
        qs.append(q)
        alphas.append(alpha)
        betas.append(beta)
        if beta == 1.0:
            res = dr_solve(u, v, q, alpha=alpha, policy=policy)
        else:
            res = aamr_solve(u, v, q, alpha=alpha, beta=beta, policy=policy)
        expected.append((res.status.value, res.iterations, res.final_error))
    status, iters, errs = _batched_pair_sweep(pair, np.stack(qs), alphas,
                                              betas, 1e-3, 50_000)
    for i, (st, it, err) in enumerate(expected):
        assert status[i] == st
        assert iters[i] == it
        assert errs[i] == pytest.approx(err, rel=1e-12)


def test_sweep_alpha_single_point_grid_is_trivial():
    config = small_config(alpha_grid=(0.85,), n_instances=2)
    runs, best = sweep_alpha(config, kind="aamr")
    assert all(r.best_alpha == 0.85 for r in best)


def test_sweep_alpha_drm_prefers_half():
    # the asymptotic optimum is 0.5; finite-tolerance runs scatter around it
    config = small_config(alpha_grid=(0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9),
                          n_instances=4, angle_bins=4)
    runs, best = sweep_alpha(config, kind="drm")
    assert best, "no converged instances"
    picks = [record.best_alpha for record in best]
    assert abs(float(np.mean(picks)) - 0.5) <= 0.15
    assert all(0.3 <= a <= 0.7 for a in picks)
    assert all(record.beta is None for record in best)


def test_sweep_alpha_aamr_prefers_large_alpha():
    config = small_config(n_instances=3, angle_bins=3)
    runs, best = sweep_alpha(config, kind="aamr")
    assert best
    assert float(np.median([r.best_alpha for r in best])) >= 0.7


def test_sweep_alpha_rejects_other_methods():
    with pytest.raises(ValueError):
        sweep_alpha(small_config(), kind="map")


# --- beta sweep ------------------------------------------------------------------

def test_sweep_beta_small_betas_dominated_and_small_angles_prefer_large():
    config = small_config(n_instances=3, n_starts=3, angle_bins=3,
                          beta_grid=(0.3, 0.4, 0.5, 0.7, 0.9))
    runs, best, fit = sweep_beta(config)
    assert best
    # beta 0.5 dominates 0.3 and 0.4 on every tested instance
    for rec in best:
        meds = {}
        for beta in (0.3, 0.4, 0.5):
            sel = [r.iterations for r in runs
                   if r.instance_id == rec.instance_id and r.beta == beta
                   and r.status == "converged"]
            meds[beta] = float(np.median(sel)) if sel else math.inf
        assert meds[0.5] <= meds[0.3]
        assert meds[0.5] <= meds[0.4]
    # the smallest-angle instance prefers a large beta
    smallest = min(best, key=lambda r: r.theta)
    assert smallest.best_beta >= 0.7


def test_sweep_beta_fit_present_with_enough_instances():
    config = small_config(n_instances=6, n_starts=2, angle_bins=6,
                          beta_grid=(0.5, 0.7, 0.9))
    _, best, fit = sweep_beta(config)
    if fit is not None:
        assert fit.rms_residual >= 0.0
        assert np.isfinite(fit(0.5))


# --- CSV artifacts ----------------------------------------------------------------

def test_runs_csv_exact_header_and_determinism(tmp_path):
    config = small_config(n_instances=2, n_starts=2)
    methods = [MethodSpec("map"), MethodSpec("rap")]
    runs1, _ = angle_profile(config, methods=methods)
    runs2, _ = angle_profile(config, methods=methods)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_runs_csv(p1, runs1)
    write_runs_csv(p2, runs2)
    text = p1.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text == p2.read_text()
    # every row has exactly the header's column count
    ncols = len(CSV_HEADER.split(","))
    for line in text.splitlines():
        assert len(line.split(",")) == ncols


def test_parse_method_token():
    spec = parse_method_token("aamr:alpha=0.9:beta=0.9")
    assert (spec.kind, spec.alpha, spec.beta) == ("aamr", 0.9, 0.9)
    assert parse_method_token("map").kind == "map"
    assert parse_method_token("cm:gamma=0.5").gamma == 0.5
    with pytest.raises(ValueError):
        parse_method_token("aamr:alpha")
    with pytest.raises(ValueError):
        parse_method_token("aamr:rho=1")
    with pytest.raises(ValueError):
        parse_method_token("dykstra")
    # a parameter the method does not take is rejected, naming both
    for token in ("map:alpha=0.5", "cm:beta=0.5", "drm:mu=1.5", "hlwb:lam=1.0"):
        kind, param = token.split(":")[0], token.split(":")[1].split("=")[0]
        with pytest.raises(ValueError, match=f"{kind} takes no parameter {param}"):
            parse_method_token(token)
    with pytest.raises(ValueError, match="cm takes no parameter beta"):
        MethodSpec("cm", beta=0.5)
    with pytest.raises(ValueError, match="drm takes no parameter mu"):
        MethodSpec("drm", mu=1.5)


GOLDEN = Path(__file__).parent / "data"


def test_runs_csv_match_golden_files(tmp_path):
    # The golden files hold the output of the code before the step(x, k)
    # engine contract and pin the solvers bit for bit across refactors; never
    # regenerate them to make a change pass.
    config = SweepConfig(n=10, n_instances=4, n_starts=2, angle_bins=4, seed=0)
    runs, _ = angle_profile(config)
    write_runs_csv(tmp_path / "profile.csv", runs)
    runs, _, _ = rate_profile(seed=0)
    write_runs_csv(tmp_path / "rates.csv", runs)
    assert ((tmp_path / "profile.csv").read_bytes()
            == (GOLDEN / "golden_runs_angle_profile.csv").read_bytes())
    assert ((tmp_path / "rates.csv").read_bytes()
            == (GOLDEN / "golden_runs_rates.csv").read_bytes())


def test_sweep_runs_csv_match_golden_files(tmp_path):
    # Written before the grid sweeps shared one driver; the alpha grid holds
    # 1.0, which drm skips, and the budget leaves a few rows unconverged.
    # Never regenerate these files to make a change pass.
    config = SweepConfig(n=10, n_instances=3, n_starts=2, angle_bins=3, seed=0,
                         alpha_grid=(0.3, 0.6, 0.9, 1.0),
                         alpha_sweep_betas=(0.7, 0.9),
                         beta_grid=(0.5, 0.7, 0.9, 0.99), max_iter=100)
    runs = sweep_alpha(config, kind="aamr")[0] + sweep_alpha(config, kind="drm")[0]
    write_runs_csv(tmp_path / "alpha.csv", runs)
    write_runs_csv(tmp_path / "beta.csv", sweep_beta(config)[0])
    assert ((tmp_path / "alpha.csv").read_bytes()
            == (GOLDEN / "golden_runs_alpha.csv").read_bytes())
    assert ((tmp_path / "beta.csv").read_bytes()
            == (GOLDEN / "golden_runs_beta.csv").read_bytes())


def test_parallel_jobs_match_serial():
    config = small_config(n_instances=2, n_starts=2)
    methods = [MethodSpec("map")]
    runs_serial, _ = angle_profile(config, methods=methods, jobs=1)
    runs_par, _ = angle_profile(config, methods=methods, jobs=2)
    assert runs_serial == runs_par
