import dataclasses
import math
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from aamr import MethodSpec, Status, optimal_rap_mu
from aamr import bench, solvers
from aamr.sets import ConvexSet
from aamr.bench import (CSV_HEADER, SWEEPS, SweepConfig, angle_profile,
                        estimate_rate, make_instances, rate_profile,
                        start_point, sweep_alpha, sweep_beta,
                        write_runs_csv, write_table_csv)


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
    _, records, traces = rate_profile(SweepConfig(rate_thetas=(0.5,), seed=1))
    by_kind = {r.method: r for r in records}
    assert by_kind["map"].estimated_rate == pytest.approx(math.cos(0.5) ** 2,
                                                          rel=0.05)
    assert by_kind["drm"].estimated_rate == pytest.approx(math.cos(0.5), rel=0.05)
    assert by_kind["map"].expected_rate == pytest.approx(math.cos(0.5) ** 2)
    assert traces  # SVG input available


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_rate_profile_expects_the_dr_rate_of_its_alpha(alpha):
    # on two lines at angle θ, (1 - α)I + αR_V R_U has the eigenvalues
    # 1 - α + αe^{±2iθ}, so DR's rate is sqrt(1 - 4α(1 - α) sin²θ), which is
    # cos θ only at α = 1/2, where the rule gives math.cos bit for bit at
    # every angle; the fitted rates agree with it to rounding
    spec = MethodSpec("drm", alpha=alpha)
    _, records, _ = rate_profile(SweepConfig(seed=0), [spec])
    assert [r.theta for r in records] == [0.2, 0.5, 1.0]
    for r in records:
        expected = math.sqrt(1.0 - 4.0 * alpha * (1.0 - alpha) * math.sin(r.theta) ** 2)
        assert r.expected_rate == pytest.approx(expected, rel=1e-14)
        assert r.estimated_rate == pytest.approx(expected, rel=1e-9)
    if alpha == 0.5:
        for theta in np.linspace(0.0, math.pi / 2, 1001).tolist():
            assert bench._EXPECTED_RATES["drm"](spec, theta) == math.cos(theta)


def test_rate_profile_keeps_a_trace_per_run_of_a_repeated_method():
    runs, records, traces = rate_profile(SweepConfig(rate_thetas=(0.5,)),
                                         [MethodSpec("map")] * 2)
    assert len(runs) == len(records) == len(traces) == 2
    assert traces[0] and traces[0] == traces[1]


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


def test_start_points_have_requested_norm_and_are_seeded():
    config = small_config()
    a = start_point(config, 2, 5)
    b = start_point(config, 2, 5)
    c = start_point(config, 2, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(10.0, abs=1e-12)


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


def _reference_statistics(runs, n_starts):
    """(median, std, status counts) of each block of ``n_starts`` runs, from
    ``np.median`` and ``np.std`` of the block's converged iterations alone."""
    stats = []
    for j in range(0, len(runs), n_starts):
        block = runs[j:j + n_starts]
        its = [r.iterations for r in block if r.status == "converged"]
        med = float(np.median(its)) if its else math.nan
        std = float(np.std(its)) if its else math.nan
        stats.append((med, std, {s.value: sum(r.status == s.value for r in block)
                                 for s in Status}))
    return stats


@pytest.mark.parametrize("n_starts", [1, 2, 3, 10])
def test_profile_records_equal_per_block_statistics_bit_for_bit(n_starts):
    # a 20-iteration budget leaves blocks where every run, some runs and no
    # run converged; the full budget converges every block
    kinds = set()
    for max_iter in (20, 50_000):
        runs, records = angle_profile(small_config(n_starts=n_starts, max_iter=max_iter))
        reference = _reference_statistics(runs, n_starts)
        assert len(records) == len(reference) == 4 * 7
        for rec, (med, std, counts) in zip(records, reference):
            assert type(rec.median_iterations) is float
            assert type(rec.std_iterations) is float
            assert rec.median_iterations.hex() == med.hex()
            assert rec.std_iterations.hex() == std.hex()
            assert list(rec.status_counts.items()) == list(counts.items())
            assert all(type(c) is int for c in rec.status_counts.values())
            assert sum(rec.status_counts.values()) == n_starts
            converged = rec.status_counts["converged"]
            kinds.add("all" if converged == n_starts else "some" if converged else "none")
    assert kinds == ({"all", "none"} if n_starts == 1 else {"all", "some", "none"})


def test_angle_profile_builds_each_instance_once(monkeypatch):
    counts = {"subspaces": 0, "starts": 0}

    class CountingSubspace(bench.LinearSubspace):
        def __init__(self, basis):
            counts["subspaces"] += 1
            super().__init__(basis)

    def counting_start(*args):
        counts["starts"] += 1
        return start_point(*args)

    monkeypatch.setattr(bench, "LinearSubspace", CountingSubspace)
    monkeypatch.setattr(bench, "start_point", counting_start)
    config = small_config(n_instances=2, n_starts=3)
    methods = [MethodSpec("map"), MethodSpec("rap"),
               MethodSpec("aamr", alpha=0.9, beta=0.7)]
    runs, _ = angle_profile(config, methods=methods)
    assert len(runs) == 2 * 3 * 3
    assert counts == {"subspaces": 2 * 3, "starts": 2 * 3}


def test_reported_count_is_first_index_below_eps():
    # rerun one configuration with a trace and check the stopping index
    from aamr import StoppingPolicy, solve_best_approximation
    config = small_config()
    u, v, target = bench._instance_sets(make_instances(config)[2])
    q = start_point(config, 2, 0)
    policy = StoppingPolicy.true_error(target, eps=config.eps,
                                       max_iter=config.max_iter, record_trace=True)
    res = solve_best_approximation(MethodSpec("map"), [u, v], q, policy=policy)
    assert res.status is Status.CONVERGED
    errors = [e for _, e, _ in res.trace]
    assert errors[res.iterations] < config.eps
    assert all(e >= config.eps for e in errors[:res.iterations])


# --- alpha sweep -----------------------------------------------------------------

def _reflection_specs(alphas, betas):
    """AAMR specs, DR specs where beta is 1.0."""
    return [MethodSpec("drm", alpha=a) if b == 1.0 else MethodSpec("aamr", alpha=a, beta=b)
            for a, b in zip(alphas, betas)]


def _scalar_rows(sets, qs, specs, eps, max_iter):
    """(status, iterations, float.hex(final_error)) of each row's scalar
    solve on the sets ``(u, v, target)``, stopping at true error below
    ``eps`` from ``target``: what every row of the row engine must equal."""
    from aamr import StoppingPolicy, solve_best_approximation

    policy = StoppingPolicy.true_error(sets[2], eps=eps, max_iter=max_iter)
    rows = []
    for q, spec in zip(qs, specs):
        res = solve_best_approximation(spec, sets[:2], q, policy=policy)
        rows.append((res.status.value, res.iterations, float.hex(res.final_error)))
    return rows


def _engine_rows(segments, qs, specs, eps, max_iter):
    """(status, iterations, float.hex(final_error)) of each row of the row
    engine on ``segments``, (sets, rows) per instance."""
    status, iters, errs = bench._batched_pair_sweep(segments, qs, specs, eps, max_iter)
    return [(st, it, float.hex(err)) for st, it, err in zip(status, iters, errs)]


def _batched_rows(sets, qs, specs, eps, max_iter):
    """The row engine's rows of ``qs``, all on one instance's ``sets``."""
    return _engine_rows([(sets, len(qs))], qs, specs, eps, max_iter)


def test_batched_sweep_matches_engine_exactly():
    from aamr import random_subspace_pair

    sets = bench._instance_sets(random_subspace_pair(18, 303))
    rng = np.random.default_rng(0)
    qs, alphas, betas = [], [], []
    for i in range(8):
        qs.append(rng.standard_normal(18) * 8)
        alphas.append(min(rng.uniform(0.2, 1.0), 0.99))
        betas.append([0.5, 0.7, 0.9, 1.0][i % 4])
    specs = _reflection_specs(alphas, betas)
    assert (_batched_rows(sets, np.stack(qs), specs, 1e-3, 50_000)
            == _scalar_rows(sets, qs, specs, 1e-3, 50_000))


def test_batched_row_does_not_depend_on_its_batchmates():
    from aamr import random_subspace_pair

    sets = bench._instance_sets(random_subspace_pair(20, 41))
    rng = np.random.default_rng(3)
    qs = rng.standard_normal((9, 20)) * 10
    specs = _reflection_specs([0.2, 0.5, 0.9, 0.35, 0.7, 0.99, 0.6, 0.45, 0.8],
                              [0.6, 1.0, 0.8, 1.0, 0.7, 0.9, 1.0, 0.95, 0.5])
    batch = _batched_rows(sets, qs, specs, 1e-6, 2_000)
    for i in range(len(specs)):
        assert _batched_rows(sets, qs[i:i + 1], specs[i:i + 1], 1e-6, 2_000) == [batch[i]]


@pytest.mark.parametrize("max_iter", [1, 2, 7, 8, 9, 255, 256, 257])
def test_batched_rows_equal_scalar_solves_across_blocks(max_iter):
    # 65 rows start in blocks of 256 // 65 = 3 trips that lengthen as rows
    # finish: rows converge at k = 0 (eps 1e2) and on every trip of a block,
    # and budgets end partway through a block
    from aamr import random_subspace_pair

    sets = bench._instance_sets(random_subspace_pair(20, [77, 0]))
    rng = np.random.default_rng(5)
    qs = rng.standard_normal((65, 20)) * (10 / np.sqrt(20))
    specs = _reflection_specs(rng.uniform(0.1, 0.95, 65),
                              [(0.5, 0.7, 0.9, 1.0)[i % 4] for i in range(65)])
    for eps in (1e2, 1e-1, 1e-3):
        assert (_batched_rows(sets, qs, specs, eps, max_iter)
                == _scalar_rows(sets, qs, specs, eps, max_iter))


def _block_starts(rows, budget):
    """The first trip of each block of a batch that keeps ``rows`` rows
    until its budget: a block from trip k runs min(256 // rows, k // 2, 32)
    trips, at least one, and never past the budget."""
    starts, k = [], 0
    while k <= budget:
        starts.append(k)
        k += min(max(1, min(256 // rows, k // 2, 32)), budget + 1 - k)
    return starts


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_rows_converging_at_a_block_edge_equal_scalar_solves(rows):
    # copies of one row keep the batch full, so its blocks start where
    # _block_starts says; eps is set from the row's scalar error trace so
    # that it first drops below eps on a block's last trip, then on the next
    # block's first trip, at the last two block starts before trip 256
    # (222 and 254)
    from aamr import StoppingPolicy, aamr_solve, random_subspace_pair

    sets = bench._instance_sets(random_subspace_pair(20, [77, 2]))
    u, v, target = sets
    q = np.random.default_rng(6).standard_normal(20)
    starts = [k for k in _block_starts(rows, 300) if k < 256][-2:]
    assert starts == [222, 254]
    for edge in [e for start in starts for e in (start - 1, start)]:
        policy = StoppingPolicy.true_error(target, eps=1e-300, max_iter=edge,
                                           record_trace=True)
        errors = [e for _, e, _ in aamr_solve(u, v, q, alpha=0.3, beta=0.7,
                                              policy=policy).trace]
        eps = min(errors[:edge])
        assert errors[edge] < eps
        qs, specs = np.tile(q, (rows, 1)), [MethodSpec("aamr", alpha=0.3, beta=0.7)] * rows
        batched = _batched_rows(sets, qs, specs, eps, 300)
        assert batched == _scalar_rows(sets, qs, specs, eps, 300)
        assert batched[0][:2] == ("converged", edge)


def test_blocks_grow_with_the_trip_count(monkeypatch):
    # a block from trip k runs min(256 // rows, k // 2, 32) trips, at least
    # one, and never past the budget; each block is screened in one call
    from aamr import random_subspace_pair

    screened = []

    def recording(self, block, eps, last):
        screened.append(block.shape[:2])
        return errors(self, block, eps, last)

    errors = bench._Layout.errors
    monkeypatch.setattr(bench._Layout, "errors", recording)
    sets = bench._instance_sets(random_subspace_pair(12, [77, 4]))
    for specs in ([MethodSpec("aamr", alpha=0.5, beta=0.7)],
                  _reflection_specs([0.5] * 3, [0.7, 1.0, 0.9]),
                  [MethodSpec("rap", mu=0.5)] * 3,
                  _reflection_specs([0.5] * 12, [0.6, 0.7, 0.8, 1.0] * 3)):
        rows = len(specs)
        screened.clear()
        qs = np.random.default_rng(rows).standard_normal((rows, 12))
        solved = _batched_rows(sets, qs, specs, 0.0, 600)
        assert [row[:2] for row in solved] == [("budget_exhausted", 600)] * rows
        starts = _block_starts(rows, 600)
        trips = np.diff(starts + [601]).tolist()
        assert trips[:13] == ([1, 1, 1, 1, 2, 3, 4, 6, 9, 14, 21]
                              + ([21, 21] if rows == 12 else [31, 32]))
        assert screened == [(rows, t) for t in trips]


# one row kind per case: the Friedrichs angle of its pair, the seed of the
# pair the block-edge test draws, and three rows' resolved specs; at these
# angles the first row's error falls to a new low on each of its first 41
# trips (hlwb's falls only every other trip on most pairs, so it takes its own)
ROW_KINDS = {"aamr": (0.3, 1, _reflection_specs([0.9, 0.6, 0.75], [0.7, 0.9, 0.5])),
             "drm": (1.0, 1, _reflection_specs([0.3, 0.5, 0.8], [1.0, 1.0, 1.0])),
             "map": (0.3, 1, [MethodSpec("map")] * 3),
             "rap": (0.3, 1, [MethodSpec("rap", mu=mu) for mu in (1.4, 1.7, 0.6)]),
             "cm": (0.2, 1, [MethodSpec("cm", gamma=g, lam=lam)
                             for g, lam in ((0.25, 1.8), (1.0, 1.0), (0.5, 2.0))]),
             "haugazeau": (0.3, 1, [MethodSpec("haugazeau")] * 3),
             "hlwb": (1.2, 5, [MethodSpec("hlwb")] * 3)}


def _kind_pair(kind, seed):
    from aamr import random_subspace_pair

    angle = ROW_KINDS[kind][0]
    return random_subspace_pair(16, seed, target_angle_interval=(angle, angle))


def _first_row_errors(sets, q, kind, count):
    """The monitored errors of trips 0..count of the first row of ``kind``,
    from its scalar solve's trace."""
    from aamr import StoppingPolicy, solve_best_approximation

    policy = StoppingPolicy.true_error(sets[2], eps=1e-300, max_iter=count,
                                       record_trace=True)
    result = solve_best_approximation(ROW_KINDS[kind][2][0], sets[:2], q, policy=policy)
    return [err for _, err, _ in result.trace]


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
@pytest.mark.parametrize("edge", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 18, 19,
                                  27, 28, 40])
def test_profile_rows_equal_scalar_solves_at_every_block_edge(kind, edge):
    # eps is set from the first row's scalar error trace so that the row
    # first drops below eps at trip `edge`: the first blocks of the rule end
    # at trips 0, 1, 2, 3, 5, 8, 12, 18, 27 and 41, whatever the batch's
    # three rows do; its batchmates stop where they may
    assert [k - 1 for k in _block_starts(3, 50)[1:11]] == [0, 1, 2, 3, 5, 8, 12, 18, 27, 41]
    sets = bench._instance_sets(_kind_pair(kind, [78, ROW_KINDS[kind][1]]))
    qs = np.random.default_rng(8).standard_normal((3, 16)) * 2.5
    errors = _first_row_errors(sets, qs[0], kind, max(edge, 1))
    eps = min(errors[:edge]) if edge else 2.0 * errors[0]
    assert errors[edge] < eps
    specs = ROW_KINDS[kind][2]
    batched = _batched_rows(sets, qs, specs, eps, 500)
    assert batched == _scalar_rows(sets, qs, specs, eps, 500)
    assert batched[0][:2] == ("converged", edge)


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
@pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 9])
def test_profile_rows_that_exhaust_the_budget_equal_scalar_solves(kind, max_iter):
    sets = bench._instance_sets(_kind_pair(kind, [78, 2]))
    qs = np.random.default_rng(9).standard_normal((3, 16)) * 2.5
    specs = ROW_KINDS[kind][2]
    batched = _batched_rows(sets, qs, specs, 1e-9, max_iter)
    assert batched == _scalar_rows(sets, qs, specs, 1e-9, max_iter)
    assert [row[:2] for row in batched] == [("budget_exhausted", max_iter)] * 3


def _trivial_meet_pair(seed):
    """A pair of subspaces of R^16, of dimensions 6 and 7, whose
    intersection is {0}."""
    from aamr.geometry import SubspacePair, orthonormal_columns

    rng = np.random.default_rng(seed)
    return SubspacePair.from_bases(orthonormal_columns(rng.standard_normal((16, 6))),
                                   orthonormal_columns(rng.standard_normal((16, 7))))


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_rows_stopping_within_rounding_of_eps_equal_scalar_solves(kind):
    # the stopping check's screen must settle no point whose exact error is
    # below eps.  eps is set from the first row's scalar error trace at a
    # trip k where that error falls to a new low: 2^-40 (relative) above it,
    # at it, and 2^-40 below it, so the row stops at k or runs past it.  On
    # U ∩ V = {0} a point's error is its norm, from 1e-3 to 1e6; on U ∩ V
    # of dimension 1 or more the starts lie 1e-4 of their norm (1e-3 to
    # 1e6) off U ∩ V, so ‖x‖² exceeds the squared error 1e8-fold and the
    # screen's rounding exceeds the gap to eps many times over
    rng, specs = np.random.default_rng(21), ROW_KINDS[kind][2]
    for pair, meets in ((_kind_pair(kind, [78, 3]), True),
                        (_trivial_meet_pair([78, 4]), False)):
        sets, meet = bench._instance_sets(pair), pair.intersection
        assert (meet.shape[1] >= 1) == meets
        for scale in (1e-3, 1.0, 1e3, 1e6):
            off = rng.standard_normal((3, 16))
            off /= np.linalg.norm(off, axis=1, keepdims=True)
            if meet.shape[1]:
                on = rng.standard_normal((3, meet.shape[1])) @ meet.T
                qs = scale * (on / np.linalg.norm(on, axis=1, keepdims=True) + 1e-4 * off)
            else:
                qs = scale * off
            errors = _first_row_errors(sets, qs[0], kind, 60)
            for start in (5, 10, 20):
                k = next(j for j in range(start, 60)
                         if errors[j] * (1 + 2.0 ** -38) < min(errors[:j]))
                for eps in (errors[k] * (1 + 2.0 ** -40), errors[k],
                            errors[k] * (1 - 2.0 ** -40)):
                    batched = _batched_rows(sets, qs, specs, eps, 60)
                    assert batched == _scalar_rows(sets, qs, specs, eps, 60)
                    if eps > errors[k]:
                        assert batched[0][:2] == ("converged", k)
                    else:
                        assert batched[0][1] > k


def _profile_rows(runs):
    return [(r.instance_id, r.method, r.alpha, r.beta, r.mu, r.gamma, r.start_id,
             r.status, r.iterations, float.hex(r.final_error)) for r in runs]


def _scalar_profile_rows(config, methods):
    """The profile's runs as one ``solve_best_approximation`` per row."""
    rows, n = [], config.n_starts
    for i, pair in enumerate(make_instances(config)):
        specs = [spec.resolve(pair.angle) for spec in methods for _ in range(n)]
        starts = list(range(n)) * len(methods)
        solved = _scalar_rows(bench._instance_sets(pair),
                              [start_point(config, i, s) for s in starts], specs,
                              config.eps, config.max_iter)
        rows += [(i, s.kind, s.alpha, s.beta, s.mu, s.gamma, start_id, *row)
                 for s, start_id, row in zip(specs, starts, solved)]
    return rows


def test_profile_runs_equal_scalar_solves_for_every_roster():
    # bare aamr and rap tokens take their angle rules; aamr at alpha = 1 and
    # drm near its alpha bound run in the same batches
    from aamr import recommended_beta

    config = small_config(n_instances=4, n_starts=3)
    methods = [MethodSpec.parse(token) for token in (
        "map", "rap", "drm:alpha=0.99", "aamr", "aamr:alpha=1.0", "haugazeau",
        "rap:mu=1.5", "cm:gamma=0.25", "drm", "aamr:alpha=0.6:beta=0.9")]
    runs, _ = angle_profile(config, methods=methods)
    rows = _profile_rows(runs)
    assert rows == _scalar_profile_rows(config, methods)
    pairs = make_instances(config)
    for r in runs:
        theta = pairs[r.instance_id].angle
        if r.method == "aamr" and r.alpha != 0.6:
            assert r.beta == recommended_beta(theta)
        if r.method == "rap" and r.mu != 1.5:
            assert r.mu == optimal_rap_mu(theta)
    # a roster of one method gives that method's rows of the mixed roster
    n = config.n_starts
    for j, spec in enumerate(methods):
        alone = _profile_rows(angle_profile(config, methods=[spec])[0])
        assert alone == [row for i in range(config.n_instances)
                         for row in rows[(i * len(methods) + j) * n:][:n]]


def test_default_profile_runs_equal_scalar_solves_serial_and_parallel():
    config = small_config(n_instances=3, n_starts=2, max_iter=60)
    methods = bench.default_profile_methods()
    runs, _ = angle_profile(config)
    assert _profile_rows(runs) == _scalar_profile_rows(config, methods)
    assert any(r.status == "budget_exhausted" for r in runs)
    parallel, _ = angle_profile(dataclasses.replace(config, jobs=2))
    assert _profile_rows(parallel) == _profile_rows(runs)


def _recording_batches(monkeypatch):
    """Record each row-engine batch as (its kinds, its rows per instance),
    and fail every scalar solve."""
    batches = []

    def recording(segments, q_rows, specs, eps, max_iter):
        batches.append((sorted({s.kind for s in specs}), [rows for _, rows in segments]))
        return sweep(segments, q_rows, specs, eps, max_iter)

    def no_scalar_solve(*args, **kwargs):
        raise AssertionError("a grid sweep made a scalar solve")

    sweep = bench._batched_pair_sweep
    monkeypatch.setattr(bench, "_batched_pair_sweep", recording)
    monkeypatch.setattr(bench, "solve_best_approximation", no_scalar_solve)
    monkeypatch.setattr(solvers, "iterate", no_scalar_solve)
    return batches


def test_profile_runs_each_trip_family_as_one_batch_per_task(monkeypatch):
    batches = _recording_batches(monkeypatch)
    config = small_config(n_instances=3, n_starts=2, max_iter=30)
    methods = [MethodSpec("hlwb"), MethodSpec("map"), MethodSpec("aamr"),
               MethodSpec("cm"), MethodSpec("rap"), MethodSpec("drm"),
               MethodSpec("haugazeau")]
    runs, _ = angle_profile(config, methods=methods)
    assert [r.method for r in runs] == [s.kind for s in methods for _ in range(2)] * 3
    # 14 rows per instance: one task holds the three instances, and each trip
    # family runs as one batch, contiguous per instance, in roster order
    assert batches == [(["hlwb"], [2, 2, 2]), (["map", "rap"], [4, 4, 4]),
                       (["aamr", "drm"], [4, 4, 4]), (["cm"], [2, 2, 2]),
                       (["haugazeau"], [2, 2, 2])]


def test_sweep_alpha_batches_consecutive_instances_up_to_the_block_rows(monkeypatch):
    config = small_config(n_instances=3, alpha_sweep_betas=(0.6, 0.8))
    expected = sweep_alpha(config, "aamr")
    batches = _recording_batches(monkeypatch)
    # a task holds 256 // 10 instances of 10 rows, so one batch holds all three
    assert sweep_alpha(config, "aamr") == expected
    assert batches == [(["aamr"], [10, 10, 10])]
    # 25 rows per task fit two instances; 8 fit none, and a task holds one
    for block_rows, layout in ((25, [[10, 10], [10]]), (8, [[10]] * 3)):
        batches.clear()
        monkeypatch.setattr(bench, "_BLOCK_ROWS", block_rows)
        assert sweep_alpha(config, "aamr") == expected
        assert batches == [(["aamr"], sizes) for sizes in layout]
    runs, best = expected
    # best alpha per (instance, beta), in instance then beta order
    assert [(r.instance_id, r.beta) for r in best] == [
        (i, b) for i in range(3) for b in (0.6, 0.8)]
    for r in best:
        group = [x for x in runs if (x.instance_id, x.beta) == (r.instance_id, r.beta)]
        assert (r.iterations, r.best_alpha) == min((x.iterations, x.alpha) for x in group)


def test_instance_rows_do_not_depend_on_their_task(monkeypatch):
    # an instance's rows are the same whether its task holds it alone, with
    # other instances, or runs on two processes (30 rows per task: two
    # instances of 14 rows, then one)
    config = small_config(n_instances=3, n_starts=2, max_iter=400)
    methods = [MethodSpec(kind) for kind in MethodSpec.KINDS]
    rows = [(spec, s) for spec in methods for s in range(2)]
    pairs = make_instances(config)
    alone = [row for i, pair in enumerate(pairs)
             for row in _profile_rows(bench._grid_task((config, i, [pair], rows)))]
    assert _profile_rows(bench._grid_task((config, 0, pairs, rows))) == alone
    monkeypatch.setattr(bench, "_BLOCK_ROWS", 30)
    parallel, _ = angle_profile(dataclasses.replace(config, jobs=2), methods=methods)
    assert _profile_rows(parallel) == alone


@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_one_row_and_many_row_runs_equal_their_scalar_solves(kind):
    # four instances hold 1, 3, 1 and 2 rows, so each trip projects one-row
    # runs with the dot calls and many-row runs (among them cm's strided
    # (rows, 2, 1, n) block halves) with matmul into one output, and each
    # block's errors come from (trips, rows, 1, n) runs; as rows converge,
    # runs shrink to one row and instances drop out
    counts = [1, 3, 1, 2]
    sets = [bench._instance_sets(_kind_pair(kind, [79, i])) for i in range(len(counts))]
    qs = np.random.default_rng(10).standard_normal((sum(counts), 16)) * 2.5
    specs = [ROW_KINDS[kind][2][j % 3] for j in range(sum(counts))]
    expected, first = [], 0
    for instance, rows in zip(sets, counts):
        last = first + rows
        expected += _scalar_rows(instance, qs[first:last], specs[first:last], 1e-4, 300)
        first = last
    assert _engine_rows(list(zip(sets, counts)), qs, specs, 1e-4, 300) == expected


def test_layout_projects_each_row_with_its_instances_subspace_bit_for_bit():
    # three instances whose U, V and U ∩ V have different ranks; the rows
    # form a one-row, a three-row and a two-row run, and keeping rows
    # re-binds them to a two-row run between one-row runs.  In the stopping
    # errors of a (rows, trips, 1, n) block, every point the screen settles
    # (+inf) lies at least eps from U ∩ V, every other point has its scalar
    # distance's bits, and on the budget's last block each row's last point
    # is one of those
    n = 12
    rng = np.random.default_rng(20)
    subspaces = [tuple(bench.LinearSubspace(rng.standard_normal((n, rank)))
                       for rank in ranks)
                 for ranks in ((5, 7, 1), (2, 9, 3), (10, 4, 2))]
    owner = np.array([0, 1, 1, 1, 2, 2])
    layout = bench._Layout(subspaces, owner)
    M = rng.standard_normal((len(owner), 1, n)) * 3.0
    blocks = rng.standard_normal((len(owner), 4, 1, n))
    blocks[0] *= 10.0  # a row with no exit in the block
    eps = float(np.median([subspaces[i][2].distance(x[0])
                           for i, row in zip(owner, blocks) for x in row]))

    def expect_rows(projected, rows, owners, which):
        assert projected.shape == rows.shape
        for r, i in enumerate(owners):
            want = subspaces[i][which].project(rows[r, 0])
            assert projected[r, 0].tobytes() == want.tobytes()

    def expect_errors(block, owners):
        exits = []
        for last in (False, True):
            errs = layout.errors(block, eps, last)
            for r, i in enumerate(owners):
                dist = [subspaces[i][2].distance(x[0]) for x in block[r]]
                exits.append(next((t for t, d in enumerate(dist) if not d >= eps), None))
                if errs is None:
                    assert not last and all(d >= eps for d in dist)
                    continue
                for t, d in enumerate(dist):
                    if errs[r, t] == np.inf:
                        assert d >= eps and not (last and t == len(dist) - 1)
                    else:
                        assert float.hex(float(errs[r, t])) == float.hex(d)
        return exits

    kept = np.array([True, False, True, True, False, True])
    for which in range(3):
        expect_rows(layout.project(M, which), M, owner, which)
    exits = expect_errors(blocks, owner)
    # rows with no exit, with an exit at the first trip and at a later one
    assert None in exits and 0 in exits and {1, 2, 3} & set(exits)
    layout.keep(kept)
    for which in range(3):
        expect_rows(layout.project(M[kept], which), M[kept], owner[kept], which)
    expect_errors(blocks[kept], owner[kept])


# --- haugazeau rows --------------------------------------------------------------

def test_haugazeau_row_form_matches_the_scalar_projection():
    from aamr.operators import NumericalFailure
    from aamr.solvers import _haugazeau_project

    # (q, x, p) triples: x = q and a zero step (rank-deficient Gram, pi = 0:
    # p), collinear steps with pi < 0 (disjoint halfspaces), pi * nu >= rho
    # and pi * nu < rho; then random triples
    crafted = np.array([[[1, 0, 0], [1, 0, 0], [0, 1, 0]],
                        [[0, 0, 1], [1, 0, 0], [1, 0, 0]],
                        [[1, 1, 0], [1, 0, 0], [1, 1, 0]],
                        [[1, 0, 0], [0, 0, 0], [-1, -1, 0]],
                        [[0, 1, 0], [1, 0, 0], [1, 1, 0]]], dtype=float)
    triples = np.concatenate([crafted, np.random.default_rng(4).standard_normal((6, 3, 3))])
    Q, X, P = (triples[:, i, None, :] for i in range(3))
    X_next, disjoint = bench._haugazeau_step(Q, X, P)
    assert disjoint.tolist() == [False, False, True] + [False] * 8
    for (q, x, p), row, failed in zip(triples, X_next[:, 0], disjoint):
        if failed:
            with pytest.raises(NumericalFailure):
                _haugazeau_project(q, x, p)
            assert row.tobytes() == x.tobytes()
        else:
            assert row.tobytes() == _haugazeau_project(q, x, p).tobytes()
    # the first two rows return p; rows 3 and 4 take the two other branches
    assert (X_next[:2] == P[:2]).all()
    assert X_next[3].tolist() == [[-0.5, -1.5, 0.0]] and X_next[4].tolist() == [[2.0, 1.0, 0.0]]


def _haugazeau_far(q, x, p):
    """Whether ``_haugazeau_project(q, x, p)`` takes its pi * nu >= rho
    branch; None when the Gram matrix is flat."""
    d_xy, d_yz = q - x, x - p
    pi, mu, nu = float(d_xy.dot(d_yz)), float(d_xy.dot(d_xy)), float(d_yz.dot(d_yz))
    rho = mu * nu - pi * pi
    return None if rho <= 1e-14 * max(mu * nu, 1e-300) else pi * nu >= rho


def test_haugazeau_steps_without_flat_rows_match_the_scalar_projection():
    # batches where no row's Gram matrix is flat: every row on the
    # pi * nu >= rho branch, every row on the other one, and both; about one
    # random triple in seventy takes the first branch
    from aamr.solvers import _haugazeau_project

    triples = np.random.default_rng(12).standard_normal((2000, 3, 5))
    far = [_haugazeau_far(*t) for t in triples]
    assert None not in far
    on_far = [i for i in range(2000) if far[i]][:12]
    on_near = [i for i in range(2000) if not far[i]][:12]
    assert len(on_far) == 12
    for rows in (on_far, on_near, sorted(on_far + on_near)):
        Q, X, P = (triples[rows, i, None, :] for i in range(3))
        X_next, disjoint = bench._haugazeau_step(Q, X, P)
        assert not disjoint.any() and disjoint.shape == (len(rows),)
        for (q, x, p), row in zip(triples[rows], X_next[:, 0]):
            assert row.tobytes() == _haugazeau_project(q, x, p).tobytes()


class _Linear(ConvexSet):
    """x -> B (B^T x), the row engine's projector on a basis B; a projection
    only when B is orthonormal.  A test hands the same sets to the engine and
    to its scalar reference."""

    def __init__(self, basis):
        self.basis = np.asarray(basis, dtype=float)
        self.dim = self.basis.shape[0]

    def project(self, x):
        return self.basis.dot(self.basis.T.dot(x))


def test_haugazeau_failure_ends_its_row_while_its_batchmates_converge():
    # subspace pairs never give disjoint halfspaces (both hold U ∩ V), so the
    # first instance takes for V the map B B^T of a basis that is not
    # orthonormal: from q = (1, 1, 0, 0) the step of trip 0 lands on e1 in the
    # target, and the step of trip 1 finds p = (1, 1, 0, 0) collinear with q
    # - x on the wrong side, so the row fails at index 1, where its error is
    # 0: the failure wins.  Its batchmate starts at 2 e1, in the target, and
    # its start lies bitwise in U, as does the second instance's (1, 2, 0, 0)
    # on coordinate subspaces: both take the fall-back to the other set
    from aamr import LinearSubspace

    e1 = [[1.0], [0.0], [0.0], [0.0]]
    crafted = (_Linear(e1), _Linear([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
               _Linear(e1))
    coordinate = tuple(LinearSubspace(np.eye(4)[:, cols]) for cols in ([0, 1], [1, 2], [1]))
    qs = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                   [1.0, 2.0, 0.0, 0.0], [0.5, 2.0, -1.5, 3.0], [3.0, -1.0, 2.0, 0.5]])
    assert (coordinate[0].project(qs[2]) == qs[2]).all()
    specs = [MethodSpec("haugazeau")] * 5
    rows = _engine_rows([(crafted, 2), (coordinate, 3)], qs, specs, 1e-6, 200)
    assert rows == (_scalar_rows(crafted, qs[:2], specs, 1e-6, 200)
                    + _scalar_rows(coordinate, qs[2:], specs, 1e-6, 200))
    assert rows[:2] == [("numerical_failure", 1, "nan"), ("converged", 0, "0x0.0p+0")]
    assert [row[0] for row in rows[2:]] == ["converged"] * 3
    assert min(row[1] for row in rows[2:]) > 0


def _haugazeau_failure_rows(monkeypatch, converges_at, fails_at):
    """The batched and scalar rows of three Haugazeau rows whose first row
    drops below eps first at `converges_at` and whose step is made to fail
    at trip `fails_at`; the batched step finds that row by its anchor q,
    not by its index among the active rows, which changes as rows leave."""
    from aamr import solvers as scalar
    from aamr.operators import NumericalFailure

    sets = bench._instance_sets(_kind_pair("haugazeau", [78, 1]))
    qs = np.random.default_rng(8).standard_normal((3, 16)) * 2.5
    errors = _first_row_errors(sets, qs[0], "haugazeau", converges_at)
    eps = min(errors[:converges_at])
    assert errors[converges_at] < eps
    calls = {"engine": 0, "scalar": 0}

    def engine_step(Q, X, P):
        X_next, disjoint = step(Q, X, P)
        calls["engine"] += 1
        if calls["engine"] == fails_at + 1:
            first = (Q == qs[0]).all(axis=(1, 2))
            disjoint[first] = True
            X_next[first] = X[first]
        return X_next, disjoint

    def scalar_project(q, x, p):
        calls["scalar"] += 1
        if calls["scalar"] == fails_at + 1:
            raise NumericalFailure("injected")
        return project(q, x, p)

    step, project = bench._haugazeau_step, scalar._haugazeau_project
    monkeypatch.setattr(bench, "_haugazeau_step", engine_step)
    monkeypatch.setattr(scalar, "_haugazeau_project", scalar_project)
    batched = _batched_rows(sets, qs, [MethodSpec("haugazeau")] * 3, eps, 500)
    first = _scalar_rows(sets, qs[:1], [MethodSpec("haugazeau")], eps, 500)
    monkeypatch.setattr(scalar, "_haugazeau_project", project)
    rest = _scalar_rows(sets, qs[1:], [MethodSpec("haugazeau")] * 2, eps, 500)
    return batched, first + rest


@pytest.mark.parametrize("converges_at", [2, 3, 4, 9])
def test_haugazeau_failure_wins_only_from_its_own_index(monkeypatch, converges_at):
    # the first row's step is made to fail at trip 3; eps is set so that the
    # row first drops below it at `converges_at`: an earlier convergence
    # stands, and at or after index 3 the failure wins.  The scalar solve
    # fails at the same call; the batchmates run on
    batched, scalar = _haugazeau_failure_rows(monkeypatch, converges_at, 3)
    assert batched == scalar
    assert batched[0][:2] == (("converged", 2) if converges_at == 2
                              else ("numerical_failure", 3))


@pytest.mark.parametrize("converges_at", [6, 7, 8])
def test_haugazeau_failure_inside_a_block_wins_only_from_its_own_index(monkeypatch,
                                                                       converges_at):
    # as above, inside the block of trips 6-8: the failure at trip 7 comes
    # after a convergence at 6 and with or before one at 7 or 8
    assert [k for k in _block_starts(3, 50) if 6 <= k <= 9] == [6, 9]
    batched, scalar = _haugazeau_failure_rows(monkeypatch, converges_at, 7)
    assert batched == scalar
    assert batched[0][:2] == (("converged", 6) if converges_at == 6
                              else ("numerical_failure", 7))


def test_a_row_whose_iterate_overflows_fails_at_its_scalar_solves_index():
    # U is spanned by 1e200 e1, so the map B B^T of its basis overflows: the
    # first projection onto U is inf in e1, and the projection onto V that
    # follows makes it NaN (0 * inf in e3).  Each scalar solve ends at k = 1 on
    # its non-finite iterate; an AAMR row's error at k = 0 is already inf
    # (its shadow is that first projection), which is not a failure
    u = np.array([[1e200], [0.0], [0.0]])
    v = np.array([[1.0], [1.0], [0.0]]) / math.sqrt(2.0)
    crafted = tuple(_Linear(b) for b in (u, v, np.zeros((3, 0))))
    qs = np.random.default_rng(14).standard_normal((4, 3))
    specs = [MethodSpec("map"), MethodSpec("aamr", alpha=0.9, beta=0.7),
             MethodSpec("map"), MethodSpec("aamr", alpha=0.5, beta=0.9)]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _batched_rows(crafted, qs, specs, 1e-6, 50)
        scalar = _scalar_rows(crafted, qs, specs, 1e-6, 50)
    assert rows == scalar == [("numerical_failure", 1, "nan")] * len(qs)


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


def test_sweep_alpha_rejects_a_grid_the_method_empties(monkeypatch):
    def no_solves(*args):
        raise AssertionError("swept an empty grid")
    monkeypatch.setattr(bench, "_batched_pair_sweep", no_solves)
    with pytest.raises(ValueError, match=r"alpha_grid holds no alpha drm takes: "
                                         r"alpha must lie in \(0, 1\)$"):
        sweep_alpha(small_config(alpha_grid=(1.0, 1.5)), "drm")
    with pytest.raises(ValueError, match=r"aamr takes: alpha must lie in \(0, 1\]$"):
        sweep_alpha(small_config(alpha_grid=(1.5,)), "aamr")


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_reads_exactly_the_fields_it_declares(name):
    read = set()

    class Recording(SweepConfig):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    config = Recording(n=8, n_instances=2, n_starts=2, max_iter=50, angle_bins=2,
                       alpha_grid=(0.5, 0.9), alpha_sweep_betas=(0.7,),
                       beta_grid=(0.6, 0.8), rate_thetas=(0.8,))
    read.clear()  # construction checks every count
    SWEEPS[name].run(config, None)
    fields = {f.name for f in dataclasses.fields(SweepConfig)}
    assert read & fields == set(SWEEPS[name].reads)


def test_config_checks_jobs_and_rate_angles():
    with pytest.raises(ValueError, match="counts must be positive"):
        SweepConfig(jobs=0)
    with pytest.raises(ValueError, match="rate_thetas must be nonempty"):
        SweepConfig(rate_thetas=())
    for theta in (0.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^rate_thetas must lie in \(0, pi/2\], got "):
            SweepConfig(rate_thetas=(0.5, theta))
    assert SweepConfig(rate_thetas=(math.pi / 2,)).rate_thetas == (math.pi / 2,)


@pytest.mark.parametrize("field", ["n", "n_instances", "n_starts", "max_iter",
                                   "angle_bins", "jobs"])
def test_config_count_errors_name_the_field(field):
    with pytest.raises(ValueError,
                       match=rf"^config counts must be positive: {field} = -2$"):
        SweepConfig(**{field: -2})


@pytest.mark.parametrize("field", ["n", "n_instances", "n_starts", "max_iter",
                                   "angle_bins", "jobs"])
@pytest.mark.parametrize("value", [50.0, 1.5, True, "3"])
def test_config_counts_must_be_integers(field, value):
    with pytest.raises(ValueError,
                       match=rf"^config counts must be integers: {field} = {value!r}$"):
        SweepConfig(**{field: value})


def test_config_counts_take_numpy_integers():
    config = SweepConfig(n=np.int64(8), max_iter=np.int32(50), jobs=np.uint8(1))
    assert (config.n, config.max_iter, config.jobs) == (8, 50, 1)


@pytest.mark.parametrize("field", ["eps", "alpha_grid", "alpha_sweep_betas", "beta_grid",
                                   "rate_thetas"])
@pytest.mark.parametrize("value", ["0.1", True, None])
def test_config_values_must_be_real_numbers(field, value):
    given = value if field == "eps" else (0.5, value)
    with pytest.raises(ValueError,
                       match=rf"^config values must be real numbers: {field} has {value!r}$"):
        SweepConfig(**{field: given})


def test_config_values_take_numpy_reals():
    config = SweepConfig(eps=np.float64(1e-3), alpha_grid=(np.float32(0.5), 1),
                         beta_grid=(np.float64(0.7),), rate_thetas=(np.float16(0.5),))
    assert (config.eps, config.alpha_grid[0], config.rate_thetas[0]) == (1e-3, 0.5, 0.5)


@pytest.mark.parametrize("field", ["alpha_sweep_betas", "rate_thetas"])
def test_config_rejects_a_repeated_angle_or_alpha_sweep_beta(field):
    with pytest.raises(ValueError, match=rf"^{field} repeats an entry: \(0.5, 0.7, 0.5\)$"):
        SweepConfig(**{field: (0.5, 0.7, 0.5)})


def test_config_eps_must_lie_in_the_unit_interval():
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\)$"):
        SweepConfig(eps=1.5)


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


def _converged_runs(runs, instance_id, beta):
    """(iterations, alpha) of each converged run of one (instance, beta) group."""
    return [(r.iterations, r.alpha) for r in runs if r.status == "converged"
            and (r.instance_id, r.beta) == (instance_id, beta)]


@pytest.mark.parametrize("max_iter", [25, 40])
def test_best_parameters_equal_a_plain_reference_on_starved_sweeps(max_iter):
    # the starved budgets leave an instance (25) or an (instance, beta) group
    # (40) with no converged run, and at 40 a partly converged beta block;
    # the grids descend, so a tie that went to the first entry would pick
    # the larger parameter
    config = SweepConfig(n=20, n_instances=4, n_starts=4, angle_bins=4, seed=0,
                         max_iter=max_iter, alpha_grid=(1, 0.9, 0.7, 0.5, 0.3, 0.1),
                         alpha_sweep_betas=(0.6, 0.9), beta_grid=(0.9, 0.7, 0.5))
    runs, best = sweep_alpha(config, "aamr")
    theta = {r.instance_id: r.theta for r in runs}
    expected, tied = [], False
    for i in range(4):
        for beta in config.alpha_sweep_betas:
            group = _converged_runs(runs, i, beta)
            if group:
                iterations, alpha = min(group)
                expected.append((i, theta[i], "aamr", beta, alpha, iterations))
                tied |= [its for its, _ in group].count(iterations) > 1
    assert [dataclasses.astuple(r) for r in best] == expected
    assert all(type(r.best_alpha) is float and type(r.iterations) is int for r in best)
    assert tied and len(best) < 8

    runs, best, _ = sweep_beta(config)
    expected, tied, sizes = [], False, set()
    for i in range(4):
        medians = []
        for beta in config.beta_grid:
            its = [its for its, _ in _converged_runs(runs, i, beta)]
            sizes.add(len(its))
            if its:
                medians.append((float(np.median(its)), beta))
        if medians:
            median, beta = min(medians)
            expected.append((i, theta[i], beta, median))
            tied |= [m for m, _ in medians].count(median) > 1
    assert [dataclasses.astuple(r) for r in best] == expected
    assert all(type(r.best_beta) is float for r in best)
    assert tied and 0 in sizes
    assert len(best) < 4 if max_iter == 25 else sizes - {0, 4}


def test_sweep_beta_fit_present_with_enough_instances():
    config = small_config(n_instances=6, n_starts=2, angle_bins=6,
                          beta_grid=(0.5, 0.7, 0.9))
    _, best, fit = sweep_beta(config)
    if fit is not None:
        assert fit.rms_residual >= 0.0
        assert np.isfinite(fit(0.5))


def test_beta_fit_on_records_at_one_angle_is_degenerate_and_silent():
    # with every angle equal, curve_fit cannot estimate the covariance: it
    # warns (it does not raise) and returns its start, which fits nothing
    records = [bench.BestBetaRecord(i, 0.5, beta, 10.0)
               for i, beta in enumerate((0.7, 0.75, 0.65, 0.7))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert bench._fit_beta_curve(records) is None
    assert caught == []


def test_only_the_beta_fit_loads_scipy_optimize(tmp_path):
    problem = tmp_path / "r4.json"
    problem.write_text('{"dim": 4, "sets": ['
                       '{"type": "subspace", "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},'
                       '{"type": "subspace", "basis": [[0, 1, 0, 0], [0, 0, 1, 1]]}]}')
    script = f"""
import sys
sys.path.insert(0, {str(Path(bench.__file__).parent.parent)!r})
import aamr, aamr.bench, aamr.cli
assert aamr.cli.main(["solve", {str(problem)!r}, "--q", "1,2,3,4"]) == 0
assert "scipy.optimize" not in sys.modules, "loaded by import or solve"
records = [aamr.bench.BestBetaRecord(i, t, b, 10.0) for i, (t, b) in
           enumerate([(0.2, 0.87), (0.5, 0.69), (0.8, 0.59), (1.1, 0.53)])]
fit = aamr.bench._fit_beta_curve(records)
assert isinstance(fit, aamr.bench.BetaFit), fit
assert "scipy.optimize" in sys.modules
"""
    run = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "status: converged" in run.stdout


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


def test_table_csv_writes_numpy_scalars_as_their_python_values(tmp_path):
    header = ["real", "count", "nan"]
    python = [[0.5, 3, math.nan], [1e-300, -7, 2.0]]
    numpy_cells = [[np.float64(0.5), np.int64(3), np.float64(math.nan)],
                   [np.float64(1e-300), np.int64(-7), np.float64(2.0)]]
    write_table_csv(tmp_path / "python.csv", header, python)
    write_table_csv(tmp_path / "numpy.csv", header, numpy_cells)
    assert ((tmp_path / "numpy.csv").read_bytes()
            == (tmp_path / "python.csv").read_bytes()
            == b"real,count,nan\n0.5,3,nan\n1e-300,-7,2.0\n")


def test_parse_method_token():
    spec = MethodSpec.parse("aamr:alpha=0.9:beta=0.9")
    assert (spec.kind, spec.alpha, spec.beta) == ("aamr", 0.9, 0.9)
    assert MethodSpec.parse("map").kind == "map"
    assert MethodSpec.parse("cm:gamma=0.5").gamma == 0.5
    with pytest.raises(ValueError):
        MethodSpec.parse("aamr:alpha")
    with pytest.raises(ValueError):
        MethodSpec.parse("aamr:rho=1")
    with pytest.raises(ValueError):
        MethodSpec.parse("dykstra")
    # a parameter the method does not take is rejected, naming both
    for token in ("map:alpha=0.5", "cm:beta=0.5", "drm:mu=1.5", "hlwb:lam=1.0"):
        kind, param = token.split(":")[0], token.split(":")[1].split("=")[0]
        with pytest.raises(ValueError, match=f"{kind} takes no parameter {param}"):
            MethodSpec.parse(token)
    with pytest.raises(ValueError, match="cm takes no parameter beta"):
        MethodSpec("cm", beta=0.5)
    with pytest.raises(ValueError, match="drm takes no parameter mu"):
        MethodSpec("drm", mu=1.5)


def test_method_token_errors_name_the_token():
    for token, why in (("aamr:alpha=abc", "alpha must be a number, got 'abc'"),
                       ("aamr:alpha", "expected param=value"),
                       ("aamr:rho=1", "unknown method parameter 'rho'")):
        with pytest.raises(ValueError) as info:
            MethodSpec.parse(token)
        assert repr(token) in str(info.value) and why in str(info.value)
    # the kind and the keys are case-insensitive; the range checks still apply
    assert MethodSpec.parse(" AAMR:Beta=0.5 ") == MethodSpec("aamr", beta=0.5)
    with pytest.raises(ValueError, match="beta must lie in"):
        MethodSpec.parse("aamr:beta=1")


def test_method_specs_are_values():
    spec = MethodSpec("aamr", alpha=0.9, beta=0.7)
    assert spec == MethodSpec.parse("aamr:alpha=0.9:beta=0.7")
    assert spec == MethodSpec("aamr", alpha=0.9, beta=np.float64(0.7))
    assert hash(spec) == hash(MethodSpec("aamr", alpha=0.9, beta=0.7))
    assert spec != MethodSpec("aamr", alpha=0.9, beta=0.9)
    assert spec.resolve() == spec
    assert MethodSpec("rap").resolve(0.5) == MethodSpec("rap", mu=optimal_rap_mu(0.5))
    # a parameter the kind lacks may still be passed as None
    assert MethodSpec("drm", alpha=0.5, beta=None) == MethodSpec("drm", alpha=0.5)
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(AttributeError):
        spec.alpha = 0.5
    # records that hold specs compare by value too
    config = small_config(n_instances=2, n_starts=2)
    methods = [MethodSpec("map"), MethodSpec("aamr", alpha=0.9, beta=0.7)]
    assert angle_profile(config, methods)[1] == angle_profile(config, methods)[1]


GOLDEN = Path(__file__).parent / "data"


def test_runs_csv_match_golden_files(tmp_path):
    # The golden files hold the output of the code before the step(x, k)
    # engine contract and pin the solvers bit for bit across refactors; never
    # regenerate them to make a change pass.
    config = SweepConfig(n=10, n_instances=4, n_starts=2, angle_bins=4, seed=0)
    runs, _ = angle_profile(config)
    write_runs_csv(tmp_path / "profile.csv", runs)
    runs, _, _ = rate_profile(SweepConfig(rate_thetas=(0.2, 0.5, 1.0), seed=0))
    write_runs_csv(tmp_path / "rates.csv", runs)
    assert ((tmp_path / "profile.csv").read_bytes()
            == (GOLDEN / "golden_runs_angle_profile.csv").read_bytes())
    assert ((tmp_path / "rates.csv").read_bytes()
            == (GOLDEN / "golden_runs_rates.csv").read_bytes())


def test_profile_table_matches_golden_file(tmp_path):
    # Written before the angle profile ran one task per instance.  The roster
    # repeats a kind and resolves rap's mu from the angle, and the budget
    # leaves some blocks unconverged, so the grouping of runs into records is
    # pinned.  Never regenerate this file to make a change pass.
    config = SweepConfig(n=10, n_instances=4, n_starts=3, angle_bins=4, seed=0,
                         max_iter=45)
    methods = [MethodSpec("rap"), MethodSpec("aamr", alpha=0.9, beta=0.7),
               MethodSpec("map"), MethodSpec("aamr", alpha=0.6, beta=0.9)]
    sweep = SWEEPS["angle-profile"]
    _, rows, _, _ = sweep.run(config, methods)
    write_table_csv(tmp_path / "table.csv", sweep.header, rows)
    assert ((tmp_path / "table.csv").read_bytes()
            == (GOLDEN / "golden_angle_profile.csv").read_bytes())


# the alpha grid holds 1.0, which drm skips, and the budget leaves a few rows
# unconverged
GOLDEN_SWEEP = SweepConfig(n=10, n_instances=3, n_starts=2, angle_bins=3, seed=0,
                           alpha_grid=(0.3, 0.6, 0.9, 1.0),
                           alpha_sweep_betas=(0.7, 0.9),
                           beta_grid=(0.5, 0.7, 0.9, 0.99), max_iter=100)


def golden_sweep_runs():
    """The aamr and drm alpha sweep runs and the beta sweep runs of GOLDEN_SWEEP."""
    config = GOLDEN_SWEEP
    return (sweep_alpha(config, kind="aamr")[0] + sweep_alpha(config, kind="drm")[0],
            sweep_beta(config)[0])


def test_sweep_runs_csv_match_golden_files(tmp_path):
    # Written before the grid sweeps shared one driver.  Never regenerate
    # these files to make a change pass.
    # 2026-10-18: regenerated once, on purpose, when the row engine moved to
    # the per-row kernel: only final_error moved (all 33 alpha rows and all
    # 24 beta rows), to the scalar solver's values, which
    # test_sweep_rows_equal_scalar_solves pins; statuses and counts did not.
    alpha_runs, beta_runs = golden_sweep_runs()
    write_runs_csv(tmp_path / "alpha.csv", alpha_runs)
    write_runs_csv(tmp_path / "beta.csv", beta_runs)
    assert ((tmp_path / "alpha.csv").read_bytes()
            == (GOLDEN / "golden_runs_alpha.csv").read_bytes())
    assert ((tmp_path / "beta.csv").read_bytes()
            == (GOLDEN / "golden_runs_beta.csv").read_bytes())


def test_sweep_rows_equal_scalar_solves():
    config = GOLDEN_SWEEP
    sets = [bench._instance_sets(pair) for pair in make_instances(config)]
    alpha_runs, beta_runs = golden_sweep_runs()
    for r in alpha_runs + beta_runs:
        scalar = _scalar_rows(sets[r.instance_id],
                              [start_point(config, r.instance_id, r.start_id)],
                              [MethodSpec(r.method, alpha=r.alpha, beta=r.beta)],
                              config.eps, config.max_iter)
        assert [(r.status, r.iterations, float.hex(r.final_error))] == scalar, r


def _blas_thread_counts(task=None):
    """The thread count of every OpenBLAS loaded in this process, found as
    ``bench._one_blas_thread`` finds them; also stands in for a grid task."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counts = []
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                counts.append(get_threads())
                break
    return counts


def test_grid_sweep_workers_run_one_blas_thread(monkeypatch):
    # --jobs workers fill the cores, so each runs one BLAS thread, and the
    # calling process keeps its own
    if not Path("/proc/self/maps").exists() or not _blas_thread_counts():
        pytest.skip("no OpenBLAS to query in this process")
    before = _blas_thread_counts()
    monkeypatch.setattr(bench, "_grid_task", _blas_thread_counts)
    config = small_config(n_instances=2, jobs=2)
    # 200 rows an instance, so one instance a task and two tasks
    reported = bench._grid_sweep(config, make_instances(config), [MethodSpec("map")], 200)
    assert len(reported) == 2 * len(before) and set(reported) == {1}
    assert _blas_thread_counts() == before


def test_parallel_jobs_match_serial():
    config = small_config(n_instances=2, n_starts=2)
    methods = [MethodSpec("map")]
    runs_serial, _ = angle_profile(config, methods=methods)
    runs_par, _ = angle_profile(dataclasses.replace(config, jobs=2), methods=methods)
    assert runs_serial == runs_par
