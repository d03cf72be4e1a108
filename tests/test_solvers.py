import hashlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from aamr import (AamrOperator, Ball, Box, Diagonal, DimensionMismatchError, Halfspace,
                  LinearSubspace, MethodSpec, ProductSet, Status, StoppingPolicy, Translate,
                  aamr_product_solve, aamr_solve, cm_recurrence, cm_solve, combettes_beta,
                  dr_solve, full_space, haugazeau_solve, hlwb_solve, map_solve, optimal_rap_mu,
                  project_intersection_oracle, random_subspace_pair, rap_solve,
                  recommended_beta, solve_best_approximation)
from aamr import solvers
from aamr.operators import aamr_update, iterate
from aamr.solvers import _haugazeau_project
from conftest import cm_recast, make_variant


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
    assert norm(op.displacement(res.iterate)) / (2 * op.alpha * op.beta) <= 1e-8


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


def test_haugazeau_iterate_inside_the_set_is_not_read_as_convergence():
    # at k = 2 the iterate already lies in the first box, so projecting onto
    # it alone is a zero step, which a residual stop would accept
    boxes = [Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, 1.0], [3.0, 3.0])]
    q = np.array([-1.0, 0.5])
    res = haugazeau_solve(*boxes, q)
    assert res.status is Status.CONVERGED
    assert np.allclose(res.shadow, project_intersection_oracle(boxes, q), atol=1e-12)


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
        step_direct = cm_recurrence([u, v], q, gamma=0.25, lam=1.8)
        step_recast = cm_recast([u, v], q, gamma=0.25, lam=1.8)
        z_a = np.tile(q, 2)
        z_b = z_a.copy()
        for k in range(100):
            z_a = step_direct(z_a, k)[0]
            z_b = step_recast(z_b)
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
    recast = cm_recast([u, v], q, gamma=0.25, lam=1.8)

    def checked(z, k):  # the recast step applied to every direct iterate
        z_next, shadow = direct(z, k)
        assert norm(recast(z) - z_next) <= 1e-12 * (1.0 + norm(z_next))
        return z_next, shadow

    checked_res = iterate(checked, np.tile(q, 2), policy)
    res = cm_solve([u, v], q, gamma=0.25, lam=1.8, policy=policy)
    assert res.status is Status.CONVERGED
    assert checked_res.iterations == res.iterations
    assert np.array_equal(checked_res.shadow, res.shadow)
    oracle = project_intersection_oracle([u, v], q)
    assert norm(res.shadow - oracle) <= 1e-5


# --- the lazily monitored point ---------------------------------------------------

def _eager_product_step(sets, q, alpha, beta):
    """``aamr_product_solve``'s step with its shadow formed at every step."""
    n, r = sets[0].dim, len(sets)
    diag = Diagonal(r, n)
    shifted = Translate(ProductSet(sets), np.tile(q, r))

    def step(x, k):
        pd = diag.project(x)
        return aamr_update(x, pd, shifted, alpha, beta), q + pd[:n]

    return step


def _monitor_cases():
    """(family, where, driver, sets, q, x0, eager step) cases: per seeded
    family of three sets through a point p, a query off the sets and one in
    them (p itself, started where its solve exits at k = 0), each for CM and
    for product-space AAMR."""
    n = 12
    rng = np.random.default_rng(31)
    cases = []
    for family, kinds in (("box", ("box",) * 3),
                          ("kink", ("ball", "halfspace", "hyperplane")),
                          ("affine", ("affine",) * 3)):
        p = rng.standard_normal(n)
        sets = [make_variant(kind, rng, n, p) for kind in kinds]
        for where, q in (("off", p + 2.0 * rng.standard_normal(n)), ("in", p)):
            cases.append((family, where, "cm", sets, q, np.tile(q, 3),
                          cm_recurrence(sets, q, gamma=0.25, lam=1.8)))
            x0 = np.zeros(3 * n) if where == "in" else np.tile(q, 3)
            cases.append((family, where, "aamr", sets, q, x0,
                          _eager_product_step(sets, q, 0.9, 0.7)))
    return cases


def _lazy_solve(driver, sets, q, x0, policy):
    if driver == "cm":
        return cm_solve(sets, q, gamma=0.25, lam=1.8, policy=policy, x0=x0)
    return aamr_product_solve(sets, q, x0=x0, alpha=0.9, beta=0.7, policy=policy)


@pytest.mark.parametrize("mode", ["residual", "budget", "true_error"])
def test_product_drivers_map_the_monitored_point_only_where_it_is_read(mode, monkeypatch):
    calls = []

    def counting_iterate(step, x0, policy=None, shadow=None):
        def counted(s):
            calls.append(1)
            return shadow(s)
        return iterate(step, x0, policy, shadow=counted)

    monkeypatch.setattr(solvers, "iterate", counting_iterate)
    exits_at_zero = 0
    for family, where, driver, sets, q, x0, eager_step in _monitor_cases():
        answer = iterate(eager_step, x0, StoppingPolicy.residual(eps=1e-13, max_iter=20_000))
        policy = {"residual": StoppingPolicy.residual(eps=1e-9, max_iter=2000),
                  "budget": StoppingPolicy.budget_only(max_iter=150),
                  "true_error": StoppingPolicy.true_error(answer.shadow, eps=1e-6,
                                                          max_iter=2000)}[mode]
        returned = []  # the eager step's monitored points, the last one read below

        def recording(x, k):
            x_next, shadow = eager_step(x, k)
            returned.append(shadow)
            return x_next, shadow

        eager = iterate(recording, x0, policy)
        calls.clear()
        lazy = _lazy_solve(driver, sets, q, x0, policy)
        case = (family, where, driver)
        assert (lazy.status, lazy.iterations) == (eager.status, eager.iterations), case
        assert float.hex(lazy.final_error) == float.hex(eager.final_error), case
        assert lazy.shadow.tobytes() == returned[-1].tobytes(), case
        for field in ("shadow", "iterate", "drift"):
            assert getattr(lazy, field).tobytes() == getattr(eager, field).tobytes(), \
                (case, field)
        assert len(calls) == (lazy.iterations + 1 if mode == "true_error" else 1), case
        exits_at_zero += lazy.iterations == 0
    assert exits_at_zero == (0 if mode == "budget" else 6)


def test_cm_gamma_beta_correspondence():
    assert combettes_beta(0.25) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        combettes_beta(0.0)


def test_cm_lambda_validation():
    boxes = [Box([0.0], [1.0])]
    with pytest.raises(ValueError, match="lambda"):
        cm_solve(boxes, np.array([0.5]), lam=2.5,
                 policy=StoppingPolicy.budget_only(max_iter=5))


class _CountingFloat(float):
    """A constant parameter, a real number, that counts how often it is read."""

    def __init__(self, value):
        self.value = value
        self.reads = 0

    def __float__(self):
        self.reads += 1
        return self.value


SCHEDULED = {  # driver: (solve with the parameter set to value, name, upper bound)
    "aamr_solve": (lambda sets, q, value, policy: aamr_solve(
        sets[0], sets[1], q, alpha=value, beta=0.7, policy=policy), "alpha", 1.0),
    "aamr_product_solve": (lambda sets, q, value, policy: aamr_product_solve(
        sets, q, alpha=value, beta=0.7, policy=policy), "alpha", 1.0),
    "cm_solve": (lambda sets, q, value, policy: cm_solve(
        sets, q, lam=value, policy=policy), "lambda", 2.0),
}


@pytest.mark.parametrize("driver", sorted(SCHEDULED))
def test_parameter_range_errors_name_the_step(driver):
    solve, name, hi = SCHEDULED[driver]
    boxes = [Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, 1.0], [3.0, 3.0]),
             Box([0.5, 0.5], [2.5, 2.5])]
    q = np.array([-1.0, 0.5])
    policy = StoppingPolicy.budget_only(max_iter=10)

    def leaves(k):  # inside the range for steps 0-2, outside from step 3
        return 0.5 if k < 3 else hi + 0.5

    with pytest.raises(ValueError, match=f"^{name} .* got {hi + 0.5!r} at step 3$"):
        solve(boxes, q, leaves, policy)
    for bad in (0.0, hi + 0.5):
        with pytest.raises(ValueError, match=f"^{name} .* got {bad!r} at step 0$"):
            solve(boxes, q, bad, policy)
    constant = _CountingFloat(0.5)
    assert solve(boxes, q, constant, policy).iterations == 10
    assert constant.reads == 1  # a constant is checked once per solve


# --- product-space golden file --------------------------------------------------

GOLDEN_PRODUCT = Path(__file__).parent / "data" / "golden_product_solves.csv"

PRODUCT_DRIVERS = {
    "cm lam=1.8": lambda sets, q, policy: cm_solve(sets, q, lam=1.8, policy=policy),
    "cm lam_k": lambda sets, q, policy: cm_solve(
        sets, q, lam=lambda k: 1.0 + 0.9 * k / (k + 1), policy=policy),
    "aamr alpha=0.9": lambda sets, q, policy: aamr_product_solve(
        sets, q, alpha=0.9, beta=0.7, policy=policy),
    "aamr alpha_k": lambda sets, q, policy: aamr_product_solve(
        sets, q, alpha=lambda k: 0.5 + 0.45 * k / (k + 1), beta=0.7, policy=policy),
}


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def product_solve_rows() -> str:
    """CSV text of every product-space golden case.  Regenerate the file with
    ``GOLDEN_PRODUCT.write_text(product_solve_rows())``."""
    lines = ["n,family,driver,stop,status,iterations,final_error,"
             "shadow_sha256,iterate_sha256,drift_sha256"]
    for n in (10, 50):
        rng = np.random.default_rng([6, n])
        p = rng.standard_normal(n)
        families = {
            "boxes": [make_variant("box", rng, n, p) for _ in range(3)],
            "ball/halfspace/hyperplane": [make_variant(kind, rng, n, p) for kind
                                          in ("ball", "halfspace", "hyperplane")],
        }
        q = p + 2.0 * rng.standard_normal(n)
        stops = {"residual": StoppingPolicy.residual(eps=1e-9, max_iter=3000),
                 "budget": StoppingPolicy.budget_only(max_iter=150)}
        for family, sets in families.items():
            for driver, solve in PRODUCT_DRIVERS.items():
                for stop, policy in stops.items():
                    res = solve(sets, q, policy)
                    lines.append(",".join([
                        str(n), family, driver, stop, res.status.value,
                        str(res.iterations), float.hex(res.final_error),
                        _digest(res.shadow), _digest(res.iterate), _digest(res.drift)]))
    return "\n".join(lines) + "\n"


def test_product_solves_match_golden_file():
    # Written before the product-space steps moved to the block mean; it pins
    # cm_solve and aamr_product_solve bit for bit.  Never regenerate it to
    # make a change pass.
    assert product_solve_rows() == GOLDEN_PRODUCT.read_text()


def _reference_project(set_, x):
    """Projection with the per-factor product loop and ``np.clip``."""
    if isinstance(set_, Box):
        return np.clip(x, set_.lower, set_.upper)
    return set_.project(x)


def _reference_product_project(sets, x):
    n = sets[0].dim
    return np.concatenate([_reference_project(s, x[i * n:(i + 1) * n])
                           for i, s in enumerate(sets)])


def _reference_mean(x, r, n):
    return np.add.reduce(x.reshape(r, n), axis=0) / r


def _reference_aamr_product(sets, q, alpha, beta, policy):
    """aamr_product_solve's step with one Translate per factor, the
    reduce-based block mean and fresh temporaries throughout."""
    r, n = len(sets), q.size
    shifted = [Translate(s, q) for s in sets]

    def project_shifted(y):
        return np.concatenate([_reference_project(t.inner, y[i * n:(i + 1) * n] + q) - q
                               for i, t in enumerate(shifted)])

    def step(x, k):
        pd = np.concatenate([_reference_mean(x, r, n)] * r)
        y = 2.0 * beta * pd - x
        z = 2.0 * beta * project_shifted(y) - y
        return (1.0 - alpha) * x + alpha * z, q + pd[:n]

    return iterate(step, np.tile(q, r), policy)


def _reference_cm(sets, q, gamma, lam, policy):
    """cm_solve's step with the per-factor product loop, the reduce-based
    block mean and fresh temporaries throughout."""
    r, n = len(sets), q.size
    gamma_q = gamma * np.tile(q, r)

    def step(z, k):
        pc = _reference_product_project(sets, (z + gamma_q) / (gamma + 1.0))
        w = 2.0 * pc - z
        reflected = (2.0 * _reference_mean(w, r, n) - w.reshape(r, n)).ravel()
        z_next = (1.0 - lam / 2.0) * z + (lam / 2.0) * reflected
        return z_next, _reference_mean(pc, r, n)

    return iterate(step, np.tile(q, r), policy)


def test_product_solves_equal_the_per_factor_reference_step_bit_for_bit():
    rng = np.random.default_rng(19)
    n = 30
    p = rng.standard_normal(n)
    triples = {
        "boxes": [make_variant("box", rng, n, p) for _ in range(3)],
        "balls and halfspaces": [make_variant(kind, rng, n, p) for kind
                                 in ("ball", "halfspace", "ball")],
    }
    policy = StoppingPolicy.residual(eps=1e-10, max_iter=3000)
    for name, sets in triples.items():
        q = p + 3.0 * rng.standard_normal(n)
        pairs = [
            (aamr_product_solve(sets, q, alpha=0.9, beta=0.7, policy=policy),
             _reference_aamr_product(sets, q, 0.9, 0.7, policy)),
            (cm_solve(sets, q, gamma=0.25, lam=1.8, policy=policy),
             _reference_cm(sets, q, 0.25, 1.8, policy)),
        ]
        for got, want in pairs:
            assert got.iterations > 10, name
            assert (got.status, got.iterations) == (want.status, want.iterations), name
            for field in ("shadow", "iterate", "drift"):
                assert (getattr(got, field).tobytes()
                        == getattr(want, field).tobytes()), (name, field)


def test_aamr_update_leaves_its_arguments_unchanged():
    rng = np.random.default_rng(5)
    ball = Ball(rng.standard_normal(8), 0.5)
    for set_ in (ball, Box(-np.ones(8), np.ones(8)), Translate(ball, np.ones(8))):
        x, pa = 3.0 * rng.standard_normal(8), rng.standard_normal(8)
        x_bytes, pa_bytes = x.tobytes(), pa.tobytes()
        out = aamr_update(x, pa, set_, 0.9, 0.7)
        assert x.tobytes() == x_bytes and pa.tobytes() == pa_bytes
        y = 2.0 * 0.7 * pa - x
        want = (1.0 - 0.9) * x + 0.9 * (2.0 * 0.7 * set_.project(y) - y)
        assert out.tobytes() == want.tobytes()


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
    # without an angle, bare aamr resolves to its driver's beta = 0.7
    assert MethodSpec("aamr").resolve().beta == 0.7
    q = np.array([1.0, 2.0])
    bare = solve_best_approximation(MethodSpec("aamr"), [u, v], q)
    plain = aamr_solve(u, v, q)
    assert bare.status == Status.CONVERGED
    assert bare.iterations == plain.iterations
    assert np.array_equal(bare.shadow, plain.shadow)
    with pytest.raises(ValueError, match="x0"):
        solve_best_approximation(MethodSpec("map"), [u, v], np.zeros(2),
                                 x0=np.ones(2))
    with pytest.raises(ValueError, match="unknown method"):
        MethodSpec("dykstra")
    with pytest.raises(ValueError, match="need at least one set"):
        solve_best_approximation(MethodSpec("cm"), [], np.zeros(2))
    with pytest.raises(ValueError, match="need at least one set"):
        cm_solve([], np.zeros(2))


def test_dispatch_rejects_sets_of_mixed_dimensions():
    u, _ = planar_lines(0.2)
    with pytest.raises(ValueError, match="mixed ambient dimensions"):
        solve_best_approximation(MethodSpec("map"), [u, full_space(3)], np.zeros(2))
    # the drivers and the oracle state the rule once, as sets._common_dim
    for call in (cm_solve, project_intersection_oracle,
                 lambda sets, q: aamr_solve(*sets, q)):
        with pytest.raises(DimensionMismatchError,
                           match="^sets have mixed ambient dimensions$"):
            call([u, full_space(3)], np.zeros(2))


@pytest.mark.parametrize("make, name", [
    (lambda: MethodSpec("aamr", alpha=lambda k: 0.5), "alpha"),
    (lambda: MethodSpec("rap", mu="abc"), "mu"),
    (lambda: aamr_solve(*planar_lines(0.2), np.zeros(2), beta="x"), "beta"),
    (lambda: rap_solve(*planar_lines(0.2), np.zeros(2), mu=lambda k: 1.0), "mu"),
    (lambda: dr_solve(*planar_lines(0.2), np.zeros(2), alpha="x"), "alpha"),
    (lambda: aamr_solve(*planar_lines(0.2), np.zeros(2), alpha="x"), "alpha"),
    (lambda: aamr_solve(*planar_lines(0.2), np.zeros(2), alpha="0.5"), "alpha"),
    (lambda: cm_solve(planar_lines(0.2), np.zeros(2), lam="1.8"), "lambda"),
    (lambda: aamr_solve(*planar_lines(0.2), np.zeros(2), alpha=lambda k: True), "alpha"),
    (lambda: MethodSpec("aamr", alpha=True), "alpha"),
    (lambda: rap_solve(*planar_lines(0.2), np.zeros(2), mu=True), "mu"),
    (lambda: cm_solve(planar_lines(0.2), np.zeros(2), gamma=True), "gamma"),
], ids=["spec-schedule", "spec-string", "driver-string", "driver-schedule",
        "dr-string", "aamr-alpha-string", "aamr-alpha-numeric-string",
        "cm-lam-numeric-string", "aamr-alpha-schedule-bool", "spec-bool", "rap-mu-bool",
        "cm-gamma-bool"])
def test_parameter_values_must_be_real_numbers(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number for "):
        make()


@pytest.mark.parametrize("token", ["aamr:alpha=0.9:alpha=0.5", "aamr:ALPHA=0.9:alpha=0.5",
                                   "cm:lam=1.5:gamma=0.5:Lam=1.5"])
def test_method_token_rejects_a_parameter_named_twice(token):
    name = token.split(":")[1].split("=")[0].lower()
    with pytest.raises(ValueError) as info:
        MethodSpec.parse(token)
    assert str(info.value) == f"method token {token!r} names {name} twice"


def test_method_spec_takes_numpy_scalars():
    spec = MethodSpec("aamr", alpha=np.float32(0.5))
    assert spec == MethodSpec("aamr", alpha=0.5)
    assert type(spec.alpha) is float


def test_haugazeau_disjoint_halfspaces_is_numerical_failure():
    left, right = Halfspace([1.0, 0.0], -1.0), Halfspace([-1.0, 0.0], -1.0)
    res = haugazeau_solve(left, right, np.array([0.0, 3.0]))
    assert res.status is Status.NUMERICAL_FAILURE
    assert res.iterations == 1 and math.isnan(res.final_error)


DRIVERS = {"aamr": aamr_solve, "drm": dr_solve, "map": map_solve, "rap": rap_solve,
           "haugazeau": haugazeau_solve, "hlwb": hlwb_solve, "cm": cm_solve}


@pytest.mark.parametrize("kind", sorted(DRIVERS))
def test_resolve_without_angle_gives_driver_defaults(kind):
    assert set(DRIVERS) == set(MethodSpec.KINDS)
    params = inspect.signature(DRIVERS[kind]).parameters
    resolved = MethodSpec(kind).resolve()
    for name in MethodSpec.PARAMS:
        expected = params[name].default if name in params else None
        assert getattr(resolved, name) == expected, name


@pytest.mark.parametrize("first, second, names", [
    (aamr_solve, aamr_product_solve, ("x0", "alpha", "beta", "policy")),
    (cm_solve, cm_recurrence, ("gamma", "lam")),
])
def test_sibling_drivers_spell_equal_defaults(first, second, names):
    # the method table reads one of each pair; the other must agree with it
    a = inspect.signature(first).parameters
    b = inspect.signature(second).parameters
    assert [a[n].default for n in names] == [b[n].default for n in names]


def test_recommended_beta_rule_shape():
    assert recommended_beta(0.0) == pytest.approx(0.989, abs=1e-12)
    assert recommended_beta(10.0) == pytest.approx(0.393, abs=1e-6)
    # decreasing in the angle
    grid = np.linspace(0, np.pi / 2, 9)
    vals = [recommended_beta(t) for t in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
