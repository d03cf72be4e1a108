import math

import numpy as np
import pytest

from aamr import (AamrOperator, Ball, Box, Halfspace, LinearSubspace, MethodSpec,
                  Status, StoppingPolicy, Translate, aamr_product_solve, aamr_solve,
                  cm_recurrence, cm_solve, combettes_beta, dr_solve,
                  fixed_point_residual, full_space, haugazeau_solve,
                  hlwb_solve, map_solve, optimal_rap_mu,
                  project_intersection_oracle, random_subspace_pair, rap_solve,
                  recommended_beta, solve_best_approximation)
from aamr.operators import iterate
from aamr.solvers import _haugazeau_project


def norm(v):
    return float(np.linalg.norm(v))


def planar_lines(theta):
    u = LinearSubspace(np.array([[1.0], [0.0]]))
    v = LinearSubspace(np.array([[math.cos(theta)], [math.sin(theta)]]))
    return u, v


def pair_sets(pair):
    return (LinearSubspace(pair.basis_u), LinearSubspace(pair.basis_v),
            LinearSubspace(pair.intersection))


TANGENT_A = Ball([1.0, 1.0], 1.0)
TANGENT_B = Ball([-1.0, 1.0], 1.0)


# --- aamr_solve ----------------------------------------------------------------

def test_two_ball_query_on_tangent_line_converges():
    policy = StoppingPolicy.true_error(np.array([0.0, 1.0]), eps=1e-6,
                                       max_iter=100_000)
    res = aamr_solve(TANGENT_A, TANGENT_B, q=[2.0, 1.0], alpha=0.9, beta=0.7,
                     policy=policy)
    assert res.status is Status.CONVERGED
    assert norm(res.shadow - [0.0, 1.0]) <= 1e-4


def test_coincident_lines_project_the_query():
    line = LinearSubspace([[1.0], [0.0]])
    res = aamr_solve(line, line, q=[3.0, 4.0], alpha=0.8, beta=0.6,
                     policy=StoppingPolicy.residual(eps=1e-12))
    assert res.status is Status.CONVERGED
    assert np.allclose(res.shadow, [3.0, 0.0], atol=1e-9)


def test_random_subspace_pairs_match_oracle():
    rng = np.random.default_rng(5)
    for seed in range(5):
        pair = random_subspace_pair(20, [5, seed])
        u, v, target = pair_sets(pair)
        q = rng.standard_normal(20)
        res = aamr_solve(u, v, q, alpha=0.9, beta=0.7,
                         policy=StoppingPolicy.true_error(target, eps=1e-9,
                                                          max_iter=10**6))
        assert res.status is Status.CONVERGED
        oracle = project_intersection_oracle([u, v], q)
        assert norm(res.shadow - oracle) <= 1e-6


def test_any_starting_point_reaches_the_same_projection():
    pair = random_subspace_pair(12, 8)
    u, v, target = pair_sets(pair)
    rng = np.random.default_rng(8)
    q = rng.standard_normal(12)
    oracle = project_intersection_oracle([u, v], q)
    for _ in range(4):
        x0 = 20 * rng.standard_normal(12)
        res = aamr_solve(u, v, q, x0=x0, alpha=0.9, beta=0.7,
                         policy=StoppingPolicy.true_error(target, eps=1e-8,
                                                          max_iter=10**6))
        assert res.status is Status.CONVERGED
        assert norm(res.shadow - oracle) <= 1e-5


def test_alpha_schedule_hook():
    pair = random_subspace_pair(10, 21)
    u, v, target = pair_sets(pair)
    q = np.random.default_rng(21).standard_normal(10)
    res = aamr_solve(u, v, q, alpha=lambda k: 0.5 + 0.4 / (k + 1), beta=0.7,
                     policy=StoppingPolicy.true_error(target, eps=1e-8,
                                                      max_iter=10**6))
    assert res.status is Status.CONVERGED
    oracle = project_intersection_oracle([u, v], q)
    assert norm(res.shadow - oracle) <= 1e-5


def test_iterates_settle_on_a_fixed_point_for_subspaces():
    # the raw sequence is Cauchy for affine pairs: steps vanish and the
    # limit satisfies the fixed-point characterization
    pair = random_subspace_pair(16, 31)
    u, v, _ = pair_sets(pair)
    q = np.random.default_rng(31).standard_normal(16)
    res = aamr_solve(u, v, q, alpha=0.9, beta=0.7,
                     policy=StoppingPolicy.residual(eps=1e-12, max_iter=10**6))
    assert res.status is Status.CONVERGED
    op = AamrOperator(Translate(u, q), Translate(v, q), 0.9, 0.7)
    assert fixed_point_residual(op, res.iterate) <= 1e-8


def test_subspace_pairs_converge_from_every_query():
    # finite-dimensional subspace pairs admit every query point; sample densely
    rng = np.random.default_rng(97)
    for seed in range(2):
        pair = random_subspace_pair(12, [97, seed],
                                    target_angle_interval=(0.3, 1.0))
        u, v, target = pair_sets(pair)
        policy = StoppingPolicy.true_error(target, eps=1e-6, max_iter=200_000)
        for _ in range(100):
            q = 10 * rng.standard_normal(12)
            res = aamr_solve(u, v, q, alpha=0.9, beta=0.7, policy=policy)
            assert res.status is Status.CONVERGED


def test_drift_settles_at_scaled_gap_for_disjoint_balls():
    a = Ball([0.0, 0.0], 1.0)
    b = Ball([4.0, 0.0], 1.0)
    res = aamr_solve(a, b, q=[0.0, 0.0], alpha=0.9, beta=0.7,
                     policy=StoppingPolicy.budget_only(max_iter=10_000))
    # gap vector between the sets is (-2, 0); drift tends to 2*alpha*beta*gap
    assert norm(res.drift - np.array([-2.52, 0.0])) <= 1e-3


# --- product form ----------------------------------------------------------------

def test_product_solve_single_factor_matches_two_set_form():
    rng = np.random.default_rng(41)
    ball = Ball(rng.standard_normal(4), 1.0)
    q = rng.standard_normal(4)
    policy = StoppingPolicy.budget_only(max_iter=40, record_trace=True)
    res_pair = aamr_solve(full_space(4), ball, q, alpha=0.85, beta=0.6,
                          policy=policy)
    res_prod = aamr_product_solve([ball], q, alpha=0.85, beta=0.6, policy=policy)
    assert np.allclose(res_pair.iterate, res_prod.iterate, atol=1e-13)
    assert np.allclose(res_pair.shadow, res_prod.shadow, atol=1e-13)


def test_product_solve_three_boxes():
    n = 6
    boxes = [Box(np.zeros(n), np.full(n, 2.0)),
             Box(np.ones(n), np.full(n, 3.0)),
             Box(np.full(n, 0.5), np.full(n, 1.5))]
    target = np.ones(n)  # clamp of 0 into the intersection box [1, 1.5]^n
    res = aamr_product_solve(boxes, np.zeros(n),
                             policy=StoppingPolicy.true_error(target, eps=1e-8,
                                                              max_iter=50_000))
    assert res.status is Status.CONVERGED
    assert norm(res.shadow - target) <= 1e-6
    oracle = project_intersection_oracle(boxes, np.zeros(n))
    assert np.allclose(oracle, target)


def test_product_solve_three_subspaces_with_common_line():
    rng = np.random.default_rng(43)
    n = 10
    shared = rng.standard_normal(n)
    sets = [LinearSubspace(np.column_stack([shared, rng.standard_normal((n, 2))]))
            for _ in range(3)]
    q = rng.standard_normal(n)
    unit = shared / norm(shared)
    expected = (q @ unit) * unit
    res = aamr_product_solve(sets, q,
                             policy=StoppingPolicy.true_error(expected, eps=1e-9,
                                                              max_iter=10**6))
    assert res.status is Status.CONVERGED
    assert norm(res.shadow - expected) <= 1e-6


def test_product_monitored_point_is_diagonal_identification():
    n = 4
    boxes = [Box(np.zeros(n), np.full(n, 2.0)), Box(np.ones(n), np.full(n, 3.0))]
    q = np.full(n, 0.25)
    from aamr import Diagonal, ProductSet
    diag = Diagonal(2, n)
    op = AamrOperator(diag, ProductSet([Translate(b, q) for b in boxes]), 0.9, 0.7)
    x = np.tile(q, 2)
    for _ in range(60):
        shadow_lift = diag.project(x + np.tile(q, 2))
        blocks = shadow_lift.reshape(2, n)
        assert np.allclose(blocks[0], blocks[1], atol=1e-14)
        assert np.allclose(blocks[0], q + x.reshape(2, n).mean(axis=0), atol=1e-14)
        x = op(x)


# --- alternating projections -----------------------------------------------------

def test_map_error_ratio_matches_squared_cosine():
    theta = 0.5
    u, v = planar_lines(theta)
    policy = StoppingPolicy.true_error(np.zeros(2), eps=1e-300, max_iter=25,
                                       record_trace=True)
    res = map_solve(u, v, np.array([10.0, 0.0]), policy=policy)
    errors = [e for _, e, _ in res.trace]
    # after the first sweep the error contracts by exactly cos^2(theta)
    ratios = [errors[k + 1] / errors[k] for k in range(2, 20)]
    assert np.allclose(ratios, math.cos(theta) ** 2, rtol=1e-6)


def test_map_coincident_sets_converge_in_one_step():
    line = LinearSubspace([[1.0], [0.0]])
    res = map_solve(line, line, np.array([2.0, 5.0]),
                    policy=StoppingPolicy.true_error(line, eps=1e-12, max_iter=10))
    assert res.status is Status.CONVERGED
    assert res.iterations == 1
    assert np.allclose(res.shadow, [2.0, 0.0])


def test_relaxed_projections_beat_plain_at_small_angle():
    theta = 0.1
    u, v = planar_lines(theta)
    target = np.zeros(2)
    policy = StoppingPolicy.true_error(target, eps=1e-6, max_iter=10**6)
    plain = map_solve(u, v, np.array([10.0, 0.0]), policy=policy)
    relaxed = rap_solve(u, v, np.array([10.0, 0.0]), mu=optimal_rap_mu(theta),
                        policy=policy)
    assert plain.status is Status.CONVERGED and relaxed.status is Status.CONVERGED
    assert relaxed.iterations < plain.iterations


def test_rap_validates_mu():
    u, v = planar_lines(0.3)
    with pytest.raises(ValueError, match="mu"):
        rap_solve(u, v, np.zeros(2), mu=2.0)


# --- Douglas-Rachford ------------------------------------------------------------

def test_dr_solves_best_approximation_for_subspaces():
    pair = random_subspace_pair(14, 51)
    u, v, target = pair_sets(pair)
    q = np.random.default_rng(51).standard_normal(14)
    res = dr_solve(u, v, q, alpha=0.5,
                   policy=StoppingPolicy.true_error(target, eps=1e-9, max_iter=10**6))
    assert res.status is Status.CONVERGED
    oracle = project_intersection_oracle([u, v], q)
    assert norm(res.shadow - oracle) <= 1e-6


def test_dr_identical_sets_monitor_projection_immediately():
    ball = Ball([1.0, 2.0], 1.0)
    q = np.array([4.0, 2.0])
    res = dr_solve(ball, ball, q,
                   policy=StoppingPolicy.true_error(ball.project(q), eps=1e-12,
                                                    max_iter=10))
    assert res.status is Status.CONVERGED
    assert res.iterations == 0
    assert np.allclose(res.shadow, [2.0, 2.0])


def test_dr_two_balls_singleton_intersection():
    res = dr_solve(TANGENT_A, TANGENT_B, np.array([2.0, 1.0]),
                   policy=StoppingPolicy.true_error(np.array([0.0, 1.0]), eps=1e-4,
                                                    max_iter=200_000))
    assert res.status is Status.CONVERGED
    assert norm(res.shadow - [0.0, 1.0]) <= 1e-3


# --- Haugazeau --------------------------------------------------------------------

def test_haugazeau_feasible_start_is_immediate():
    pair = random_subspace_pair(10, 61)
    u, v, target = pair_sets(pair)
    q = target.project(np.random.default_rng(61).standard_normal(10))
    res = haugazeau_solve(u, v, q,
                          policy=StoppingPolicy.true_error(target, eps=1e-10,
                                                           max_iter=10))
    assert res.status is Status.CONVERGED
    assert res.iterations == 0


def test_haugazeau_matches_alternating_projections_limit():
    u, v = planar_lines(0.5)
    q = np.array([10.0, 0.0])
    policy = StoppingPolicy.true_error(np.zeros(2), eps=1e-7, max_iter=10**6)
    a = haugazeau_solve(u, v, q, policy=policy)
    b = map_solve(u, v, q, policy=policy)
    assert a.status is Status.CONVERGED and b.status is Status.CONVERGED
    assert norm(a.shadow - b.shadow) <= 1e-6


def test_haugazeau_step_degenerate_zero_move():
    y = np.array([1.0, -2.0])
    out = _haugazeau_project(np.array([0.0, 0.0]), y, y.copy())
    assert np.array_equal(out, y)


# --- HLWB -------------------------------------------------------------------------

def test_hlwb_first_step_averages_anchor_and_projection():
    u, v = planar_lines(0.4)
    q = np.array([3.0, 1.0])
    res = hlwb_solve([u, v], q, policy=StoppingPolicy.budget_only(max_iter=1))
    assert np.array_equal(res.iterate, 0.5 * q + 0.5 * v.project(q))


def test_hlwb_residual_stop_does_not_accept_the_anchor():
    # a first anchor weight of 1 made step 0 the identity, which the residual
    # rule read as convergence at k = 0 with shadow q, outside both sets
    q = np.array([2.0, 0.3])
    res = hlwb_solve([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)], q,
                     policy=StoppingPolicy.residual(eps=1e-8, max_iter=2000))
    assert res.status is Status.BUDGET_EXHAUSTED
    assert norm(res.shadow - [0.5, 0.3]) <= 2e-3


def test_hlwb_single_set_converges_to_projection():
    line = LinearSubspace([[1.0], [0.0]])
    q = np.array([2.0, 6.0])
    res = hlwb_solve([line, line], q,
                     policy=StoppingPolicy.true_error(np.array([2.0, 0.0]),
                                                      eps=1e-3, max_iter=10**6))
    assert res.status is Status.CONVERGED
    assert norm(res.shadow - [2.0, 0.0]) <= 1e-3


def test_hlwb_is_slowest_on_planar_lines():
    theta = 0.3
    u, v = planar_lines(theta)
    q = np.array([10.0, 0.0])
    policy = StoppingPolicy.true_error(np.zeros(2), eps=1e-3, max_iter=10**6)
    slow = hlwb_solve([u, v], q, policy=policy)
    others = [map_solve(u, v, q, policy=policy),
              dr_solve(u, v, q, policy=policy),
              aamr_solve(u, v, q, alpha=0.9, beta=0.7, policy=policy)]
    assert slow.status is Status.CONVERGED
    for res in others:
        assert res.status is Status.CONVERGED
        assert slow.iterations > res.iterations


# --- Combettes --------------------------------------------------------------------

def test_cm_direct_and_recast_forms_coincide():
    rng = np.random.default_rng(71)
    for seed in range(3):
        pair = random_subspace_pair(12, [71, seed])
        u, v, _ = pair_sets(pair)
        q = rng.standard_normal(12)
        step_direct = cm_recurrence([u, v], q, gamma=0.25, lam=1.8,
                                    form="direct")
        step_recast = cm_recurrence([u, v], q, gamma=0.25, lam=1.8,
                                    form="recast")
        z_a = np.tile(q, 2)
        z_b = z_a.copy()
        for k in range(100):
            z_a = step_direct(z_a, k)[0]
            z_b = step_recast(z_b, k)[0]
            assert norm(z_a - z_b) <= 1e-12 * (1 + norm(z_a))


def test_cm_feasible_query_is_immediate():
    boxes = [Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, 1.0], [3.0, 3.0])]
    q = np.array([1.5, 1.5])
    res = cm_solve(boxes, q, policy=StoppingPolicy.true_error(q, eps=1e-10,
                                                              max_iter=10))
    assert res.status is Status.CONVERGED
    assert res.iterations == 0


def test_cm_converges_to_oracle_with_verification():
    pair = random_subspace_pair(12, 77)
    u, v, target = pair_sets(pair)
    q = np.random.default_rng(77).standard_normal(12)
    policy = StoppingPolicy.true_error(target, eps=1e-6, max_iter=200_000)
    direct = cm_recurrence([u, v], q, gamma=0.25, lam=1.8)
    recast = cm_recurrence([u, v], q, gamma=0.25, lam=1.8, form="recast")

    def checked(z, k):  # the recast step applied to every direct iterate
        z_next, shadow = direct(z, k)
        assert norm(recast(z, k)[0] - z_next) <= 1e-12 * (1.0 + norm(z_next))
        return z_next, shadow

    checked_res = iterate(checked, np.tile(q, 2), policy)
    res = cm_solve([u, v], q, gamma=0.25, lam=1.8, policy=policy)
    assert res.status is Status.CONVERGED
    assert checked_res.iterations == res.iterations
    assert np.array_equal(checked_res.shadow, res.shadow)
    oracle = project_intersection_oracle([u, v], q)
    assert norm(res.shadow - oracle) <= 1e-5


def test_cm_gamma_beta_correspondence():
    assert combettes_beta(0.25) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        combettes_beta(0.0)


def test_cm_lambda_validation():
    boxes = [Box([0.0], [1.0])]
    with pytest.raises(ValueError, match="lambda"):
        cm_solve(boxes, np.array([0.5]), lam=2.5,
                 policy=StoppingPolicy.budget_only(max_iter=5))


# --- roster dispatch and agreement -------------------------------------------------

def test_all_methods_agree_with_oracle():
    rng = np.random.default_rng(81)
    specs = [MethodSpec("aamr", alpha=0.9, beta=0.7), MethodSpec("map"),
             MethodSpec("rap"), MethodSpec("drm", alpha=0.5),
             MethodSpec("haugazeau"), MethodSpec("hlwb"), MethodSpec("cm")]
    eps = 1e-3
    for seed in range(3):
        pair = random_subspace_pair(20, [81, seed])
        u, v, target = pair_sets(pair)
        q = rng.standard_normal(20)
        q *= 10 / norm(q)
        oracle = project_intersection_oracle([u, v], q)
        policy = StoppingPolicy.true_error(target, eps=eps, max_iter=10**6)
        for spec in specs:
            res = solve_best_approximation(spec, [u, v], q, policy=policy,
                                           theta=pair.angle)
            assert res.status is Status.CONVERGED, spec.kind
            assert norm(res.shadow - oracle) <= 10 * eps, spec.kind


def test_dispatch_validation():
    u, v = planar_lines(0.2)
    with pytest.raises(ValueError, match="exactly two"):
        solve_best_approximation(MethodSpec("map"), [u, v, u], np.zeros(2))
    with pytest.raises(ValueError, match="beta"):
        solve_best_approximation(MethodSpec("aamr"), [u, v], np.zeros(2))
    with pytest.raises(ValueError, match="x0"):
        solve_best_approximation(MethodSpec("map"), [u, v], np.zeros(2),
                                 x0=np.ones(2))
    with pytest.raises(ValueError, match="unknown method"):
        MethodSpec("dykstra")
    with pytest.raises(ValueError, match="need at least one set"):
        solve_best_approximation(MethodSpec("cm"), [], np.zeros(2))
    with pytest.raises(ValueError, match="need at least one set"):
        cm_solve([], np.zeros(2))


def test_recommended_beta_rule_shape():
    assert recommended_beta(0.0) == pytest.approx(0.989, abs=1e-12)
    assert recommended_beta(10.0) == pytest.approx(0.393, abs=1e-6)
    # decreasing in the angle
    grid = np.linspace(0, np.pi / 2, 9)
    vals = [recommended_beta(t) for t in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
