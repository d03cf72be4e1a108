import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from aamr import (AamrOperator, AffineSubspace, Ball, DimensionMismatchError,
                  DrOperator, Hyperplane, LinearSubspace, Status, StoppingPolicy,
                  full_space, iterate, modified_reflect, zero_subspace)
from conftest import VARIANTS, make_variant


def norm(v):
    return float(np.linalg.norm(v))


LINE_X1 = Hyperplane([1.0, 0.0], 1.0)  # {x : x_1 = 1} in the plane


# --- modified reflector -------------------------------------------------------

@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0])
def test_modified_reflect_against_vertical_line(beta):
    got = modified_reflect(LINE_X1, beta, [0.0, 0.0])
    assert np.allclose(got, [2 * beta, 0.0])
    # for beta < 1 the unique fixed point is (beta, 0)
    if beta < 1.0:
        fp = np.array([beta, 0.0])
        assert np.allclose(modified_reflect(LINE_X1, beta, fp), fp, atol=1e-14)


def test_reflector_fixes_members():
    ball = Ball([2.0, -1.0], 1.5)
    for x in ([2.0, -1.0], [2.0, 0.4], [3.49, -1.0]):
        assert np.allclose(modified_reflect(ball, 1.0, x), x)


def test_modified_reflect_of_origin_set():
    got = modified_reflect(zero_subspace(2), 0.5, [4.0, -2.0])
    assert np.array_equal(got, [-4.0, 2.0])


def test_modified_reflect_validates_beta():
    with pytest.raises(ValueError, match="beta"):
        modified_reflect(LINE_X1, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="beta"):
        modified_reflect(LINE_X1, 1.2, [0.0, 0.0])
    with pytest.raises(ValueError, match="^beta must be a real number, got str$"):
        modified_reflect(LINE_X1, "x", [0.0, 0.0])
    with pytest.raises(ValueError, match="^beta must be a real number, got bool$"):
        modified_reflect(LINE_X1, True, [0.0, 0.0])


def test_modified_reflector_unique_fixed_point_all_variants():
    # beta * P(0) is fixed: 2 beta P(beta P(0)) - beta P(0) = beta P(0)
    rng = np.random.default_rng(21)
    for kind in VARIANTS:
        for beta in (0.4, 0.7, 0.95):
            s = make_variant(kind, rng, 5, rng.standard_normal(5))
            fp = beta * s.project(np.zeros(5))
            assert norm(modified_reflect(s, beta, fp) - fp) <= 1e-10


# --- the averaged operator ----------------------------------------------------

def test_operator_fixes_the_known_point_for_plane_and_line():
    plane = full_space(2)
    for alpha in (0.3, 0.9, 1.0):
        for beta in (0.2, 0.5, 0.9):
            op = AamrOperator(plane, LINE_X1, alpha, beta)
            assert np.allclose(op([1.0, 0.0]), [1.0, 0.0], atol=1e-14)
            assert norm(op.displacement([1.0, 0.0])) / (2 * alpha * beta) <= 1e-14


def test_operator_on_coincident_full_spaces_is_linear_contraction():
    n = 4
    rng = np.random.default_rng(3)
    space = full_space(n)
    for alpha, beta in [(0.9, 0.7), (0.5, 0.2), (1.0, 0.95)]:
        op = AamrOperator(space, space, alpha, beta)
        factor = (1 - alpha) + alpha * (2 * beta - 1) ** 2
        for _ in range(5):
            x = rng.standard_normal(n)
            assert np.allclose(op(x), factor * x, atol=1e-12)
        assert np.allclose(op(np.zeros(n)), np.zeros(n))


def test_projected_anchor_is_fixed_when_it_lies_in_other_set():
    # P_A(0) = (2, 0) belongs to B = R^2, so (2 beta - 1) P_A(0) is fixed
    ball = Ball([3.0, 0.0], 1.0)
    plane = full_space(2)
    for beta in (0.25, 0.6, 0.9):
        op = AamrOperator(ball, plane, 0.8, beta)
        fp = (2 * beta - 1) * np.array([2.0, 0.0])
        assert norm(op(fp) - fp) <= 1e-12


def test_operator_validates_parameters():
    with pytest.raises(ValueError, match="alpha"):
        AamrOperator(LINE_X1, LINE_X1, 0.0, 0.5)
    with pytest.raises(ValueError, match="^beta"):
        AamrOperator(LINE_X1, LINE_X1, 0.5, 1.5)
    with pytest.raises(ValueError, match="^alpha"):
        AamrOperator(LINE_X1, LINE_X1, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        DrOperator(LINE_X1, LINE_X1, 1.0)
    with pytest.raises(ValueError, match="^alpha must be a real number, got str$"):
        AamrOperator(LINE_X1, LINE_X1, "x", 0.5)
    with pytest.raises(ValueError, match="^beta must be a real number, got str$"):
        AamrOperator(LINE_X1, LINE_X1, 0.5, "x")
    with pytest.raises(ValueError, match="^alpha must be a real number, got NoneType$"):
        DrOperator(LINE_X1, LINE_X1, None)
    with pytest.raises(ValueError, match="^alpha must be a real number, got bool$"):
        AamrOperator(LINE_X1, LINE_X1, True, 0.5)


def test_operator_rejects_sets_of_different_dimensions():
    with pytest.raises(ValueError, match="different ambient dimensions"):
        AamrOperator(LINE_X1, full_space(3), 0.5, 0.5)


def test_dr_operator_is_the_beta_one_aamr_operator():
    rng = np.random.default_rng(29)
    p = rng.standard_normal(4)
    a, b = make_variant("ball", rng, 4, p), make_variant("subspace", rng, 4, p)
    dr, aamr = DrOperator(a, b, 0.6), AamrOperator(a, b, 0.6, 1.0)
    for _ in range(10):
        x = 5 * rng.standard_normal(4)
        assert np.array_equal(dr(x), aamr(x))
        assert norm((x - dr(x)) - dr.displacement(x)) <= 1e-12 * (1 + norm(x))


def test_nonexpansiveness_on_random_pairs():
    rng = np.random.default_rng(31)
    instances = [("ball", "halfspace"), ("box", "subspace"), ("affine", "ball"),
                 ("hyperplane", "translate"), ("subspace", "subspace")]
    for kind_a, kind_b in instances:
        p = rng.standard_normal(5)
        a = make_variant(kind_a, rng, 5, p)
        b = make_variant(kind_b, rng, 5, p)
        op = AamrOperator(a, b, rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.95))
        xs = 4 * rng.standard_normal((1000, 5))
        ys = 4 * rng.standard_normal((1000, 5))
        for x, y in zip(xs, ys):
            assert norm(op(x) - op(y)) <= norm(x - y) + 1e-10


def test_displacement_identity_two_routes():
    rng = np.random.default_rng(37)
    for kind_a in VARIANTS:
        for kind_b in VARIANTS:
            p = rng.standard_normal(4)
            a = make_variant(kind_a, rng, 4, p)
            b = make_variant(kind_b, rng, 4, p)
            op = AamrOperator(a, b, rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.95))
            for _ in range(5):
                x = 5 * rng.standard_normal(4)
                direct = x - op(x)
                shortcut = op.displacement(x)
                assert norm(direct - shortcut) <= 1e-12 * (1 + norm(x))


def test_step_length_equals_scaled_residual():
    rng = np.random.default_rng(41)
    p = rng.standard_normal(3)
    a = make_variant("ball", rng, 3, p)
    b = make_variant("box", rng, 3, p)
    op = AamrOperator(a, b, 0.8, 0.6)
    for _ in range(20):
        x = 4 * rng.standard_normal(3)
        lhs = norm(x - op(x))
        rhs = norm(op.displacement(x))
        assert abs(lhs - rhs) <= 1e-12 * (1 + lhs)


def test_affine_translation_formula():
    # T over (A, B) equals T over (A - y, B - y) plus T(0), for affine pairs
    rng = np.random.default_rng(43)
    for _ in range(6):
        n = 5
        y = rng.standard_normal(n)
        a = AffineSubspace(y, rng.standard_normal((n, 3)))
        b = AffineSubspace(y, rng.standard_normal((n, 2)))
        a0 = LinearSubspace(a.direction.basis)
        b0 = LinearSubspace(b.direction.basis)
        alpha, beta = rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.9)
        op = AamrOperator(a, b, alpha, beta)
        op0 = AamrOperator(a0, b0, alpha, beta)
        t_zero = op(np.zeros(n))
        for _ in range(5):
            x = 4 * rng.standard_normal(n)
            assert norm(op(x) - (op0(x) + t_zero)) <= 1e-10


def test_fixed_point_residual_examples():
    op = AamrOperator(full_space(2), LINE_X1, 0.5, 0.5)
    assert norm(op.displacement([1.0, 0.0])) / (2 * 0.5 * 0.5) <= 1e-14

    line = LinearSubspace([[1.0], [0.0]])
    op2 = AamrOperator(line, line, 0.5, 0.7)
    assert norm(op2.displacement([0.0, 0.0])) / (2 * 0.5 * 0.7) <= 1e-14

    # hand-composed value for two balls at beta = 1/2, x = 0
    a = Ball([1.0, 1.0], 1.0)
    b = Ball([-1.0, 1.0], 1.0)
    op3 = AamrOperator(a, b, 0.9, 0.5)
    pa = np.array([1.0, 1.0]) + (np.array([0.0, 0.0]) - [1.0, 1.0]) / math.sqrt(2)
    w = 2 * 0.5 * pa - np.array([0.0, 0.0])  # = pa
    diff = w - [-1.0, 1.0]
    pb = np.array([-1.0, 1.0]) + diff / norm(diff)
    expected = norm(pb - pa)
    residual = norm(op3.displacement([0.0, 0.0])) / (2 * 0.9 * 0.5)
    assert residual == pytest.approx(expected, abs=1e-12)


# --- iteration engine ----------------------------------------------------------

def test_engine_identity_converges_immediately():
    res = iterate(lambda x, k: (x, x), np.array([1.0, 2.0]),
                  StoppingPolicy.residual(eps=1e-12))
    assert res.status is Status.CONVERGED
    assert res.iterations == 0
    assert np.array_equal(res.shadow, [1.0, 2.0])


def test_engine_doubling_diverges_at_logarithmic_index():
    res = iterate(lambda x, k: (2.0 * x, x), np.array([1.0, 0.0]),
                  StoppingPolicy.residual(eps=1e-15, max_iter=100))
    assert res.status is Status.DIVERGED
    assert res.iterations == math.ceil(math.log2(1e6 / 1.0))


def test_engine_budget_exhaustion_and_trace():
    policy = StoppingPolicy.budget_only(max_iter=5, record_trace=True)
    res = iterate(lambda x, k: (0.5 * x, x), np.array([8.0]), policy)
    assert res.status is Status.BUDGET_EXHAUSTED
    assert res.iterations == 5
    assert len(res.trace) == 6
    ks, errs, steps = zip(*res.trace)
    assert ks == (0, 1, 2, 3, 4, 5)
    assert math.isnan(steps[0])
    assert steps[1] == pytest.approx(4.0)
    assert np.allclose(res.iterate, [0.25])
    assert np.allclose(res.drift, [0.25])  # x_4 - x_5 = 0.5 - 0.25


def test_engine_divergence_needs_monotone_growth():
    # bounded orbit above the threshold: norms oscillate, never diverges
    def wobble(x, k):
        scale = 2e6 * (1.0 + 0.3 * math.sin((k + 1) / 3.0))
        return scale * x / np.linalg.norm(x), x

    res = iterate(wobble, np.array([2.7e6, 0.0]),
                  StoppingPolicy.budget_only(max_iter=400))
    assert res.status is Status.BUDGET_EXHAUSTED

    # decreasing norms above the threshold: no divergence either
    res2 = iterate(lambda x, k: (0.999 * x, x), np.array([5e6, 0.0]),
                   StoppingPolicy.budget_only(max_iter=300))
    assert res2.status is Status.BUDGET_EXHAUSTED


def test_engine_one_jump_is_not_divergence():
    # the norm jumps 1 -> 1e3 at k = 0 and then halves: bounded and decaying
    def jump(x, k):
        return (1e3 * x if k == 0 else 0.5 * x), x
    res = iterate(jump, np.array([1.0, 0.0]),
                  StoppingPolicy.budget_only(200, divergence_threshold=10))
    assert res.status is Status.BUDGET_EXHAUSTED
    assert res.iterations == 200


def test_engine_early_divergence_waits_for_nine_growing_steps():
    # x -> 2x crosses the threshold 10 at k = 4; its run is ten norms long at k = 9
    res = iterate(lambda x, k: (2.0 * x, x), np.array([1.0, 0.0]),
                  StoppingPolicy.budget_only(200, divergence_threshold=10))
    assert res.status is Status.DIVERGED
    assert res.iterations == 9


def test_engine_true_error_against_target_set():
    line = LinearSubspace([[1.0], [0.0]])
    policy = StoppingPolicy.true_error(line, eps=1e-6, max_iter=50)
    res = iterate(lambda x, k: (0.5 * x, x), np.array([0.0, 3.0]), policy)
    assert res.status is Status.CONVERGED
    assert res.final_error < 1e-6


def test_engine_reports_numerical_failure():
    from aamr import NumericalFailure

    def broken(x, k):
        raise NumericalFailure("boom")

    res = iterate(broken, np.array([1.0]), StoppingPolicy.budget_only(max_iter=10))
    assert res.status is Status.NUMERICAL_FAILURE


def test_engine_passes_each_index_once_in_order():
    seen = []

    def step(x, k):
        seen.append(k)
        return 0.5 * x, x

    res = iterate(step, np.array([1.0]), StoppingPolicy.budget_only(max_iter=5))
    assert res.iterations == 5
    assert seen == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("policy", [StoppingPolicy.budget_only(max_iter=50),
                                    StoppingPolicy.residual(eps=1e-12, max_iter=50)])
def test_engine_non_finite_iterate_is_numerical_failure(policy):
    res = iterate(lambda x, k: (x * math.nan, x), np.array([1.0, 2.0]), policy)
    assert res.status is Status.NUMERICAL_FAILURE
    assert res.iterations == 1
    assert np.array_equal(res.shadow, [1.0, 2.0])

    # a blow-up midway fails at the index of the first non-finite iterate
    res = iterate(lambda x, k: (np.full_like(x, math.inf) if k == 3 else 0.9 * x, x),
                  np.array([1e10]), policy)
    assert res.status is Status.NUMERICAL_FAILURE
    assert res.iterations == 4


@pytest.mark.parametrize("policy", [StoppingPolicy.budget_only(max_iter=50),
                                    StoppingPolicy.residual(eps=1e-12, max_iter=50),
                                    StoppingPolicy.true_error([0.0, 0.0], eps=1e-12,
                                                              max_iter=50)])
def test_engine_shadow_map_on_failure_exits(policy):
    from aamr import NumericalFailure
    calls = []

    def shadow(s):
        calls.append(s)
        return 10.0 * s

    def broken_at(j):
        def step(x, k):
            if k == j:
                raise NumericalFailure("boom")
            return 0.5 * x, x + 1.0
        return step

    # no step returned: the start is the monitored point and the map never runs
    res = iterate(broken_at(0), np.array([1.0, 2.0]), policy, shadow=shadow)
    assert res.status is Status.NUMERICAL_FAILURE and res.iterations == 0
    assert np.array_equal(res.shadow, [1.0, 2.0]) and calls == []
    # a later failure maps the last value a step returned
    res = iterate(broken_at(2), np.array([1.0, 2.0]), policy, shadow=shadow)
    assert res.status is Status.NUMERICAL_FAILURE and res.iterations == 2
    assert np.array_equal(res.shadow, [15.0, 20.0])
    assert len(calls) == (2 if policy.mode == StoppingPolicy.TRUE_ERROR else 1)


class CountingSet:
    """Wraps a set and counts its projections."""

    def __init__(self, inner):
        self.inner, self.dim, self.calls = inner, inner.dim, 0

    def project(self, x):
        self.calls += 1
        return self.inner.project(x)


@pytest.mark.parametrize("method", ["aamr", "drm"])
def test_aamr_and_dr_spend_two_projections_per_iteration(method):
    from aamr import aamr_solve, dr_solve
    rng = np.random.default_rng(47)
    a = CountingSet(LinearSubspace(rng.standard_normal((6, 3))))
    b = CountingSet(LinearSubspace(rng.standard_normal((6, 4))))
    policy = StoppingPolicy.budget_only(max_iter=40)
    q = rng.standard_normal(6)
    if method == "aamr":
        res = aamr_solve(a, b, q, alpha=0.9, beta=0.7, policy=policy)
    else:
        res = dr_solve(a, b, q, alpha=0.5, policy=policy)
    steps = res.iterations + 1  # the engine steps at every index, the last included
    assert (a.calls, b.calls) == (steps, steps)


def test_engine_two_ball_divergence_with_small_threshold():
    # tangential balls, query off the common tangent line: iterates drift
    # away without bound (slowly); a small threshold certifies the status
    from aamr import aamr_solve
    a = Ball([1.0, 1.0], 1.0)
    b = Ball([-1.0, 1.0], 1.0)
    policy = StoppingPolicy.budget_only(max_iter=100_000, divergence_threshold=20.0)
    res = aamr_solve(a, b, q=[0.0, 2.0], alpha=1.0, beta=0.3, policy=policy)
    assert res.status is Status.DIVERGED


def test_policy_validation():
    with pytest.raises(ValueError):
        StoppingPolicy.residual(eps=0.0)
    with pytest.raises(ValueError):
        StoppingPolicy.budget_only(max_iter=0)
    with pytest.raises(ValueError):
        StoppingPolicy(mode="nonsense")
    with pytest.raises(ValueError):
        StoppingPolicy(mode=StoppingPolicy.TRUE_ERROR, eps=1e-3)  # no target


def test_policy_rejects_a_nonpositive_divergence_threshold():
    with pytest.raises(ValueError, match="divergence_threshold must be positive"):
        StoppingPolicy.residual(1e-3, divergence_threshold=0)


@pytest.mark.parametrize("field, value, message", [
    ("eps", "x", "eps must be a real number, got str"),
    ("divergence_threshold", "x", "divergence_threshold must be a real number, got str"),
    ("eps", True, "eps must be a real number, got bool"),
    ("divergence_threshold", True, "divergence_threshold must be a real number, got bool"),
    ("max_iter", "5", "max_iter must be an integer, got '5'"),
    ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
    ("max_iter", True, "max_iter must be an integer, got True"),
])
def test_policy_numbers_must_have_their_types(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StoppingPolicy.residual(**{"eps": 1e-3, field: value})


def test_policy_takes_numpy_numbers_and_an_integer_threshold():
    policy = StoppingPolicy.budget_only(np.int64(3), eps=np.float32(1e-3),
                                        divergence_threshold=10)
    result = iterate(lambda x, k: (0.5 * x, x), [1.0], policy)
    assert (result.status, result.iterations) == (Status.BUDGET_EXHAUSTED, 3)


def test_engine_default_policy_is_the_residual_stop_at_1e_8():
    def halve(x, k):
        return 0.5 * x, x

    default = iterate(halve, [1.0, 2.0])
    explicit = iterate(halve, [1.0, 2.0], StoppingPolicy.residual(eps=1e-8))
    assert default.status is Status.CONVERGED
    assert (default.iterations, default.final_error) == (explicit.iterations,
                                                         explicit.final_error)


def test_point_target_is_the_radius_zero_ball():
    policy = StoppingPolicy.true_error([0.0, 1.0], eps=1e-3)
    assert isinstance(policy.target, Ball) and policy.target.radius == 0.0
    assert np.array_equal(policy.target.center, [0.0, 1.0])


def test_point_target_is_checked_at_construction():
    with pytest.raises(ValueError, match="non-finite"):
        StoppingPolicy.true_error([0.0, math.nan], eps=1e-3)
    with pytest.raises(ValueError, match="1-D"):
        StoppingPolicy.true_error([[0.0, 1.0]], eps=1e-3)
    policy = StoppingPolicy.true_error([0.0, 1.0], eps=1e-3)
    assert policy.error_of(np.array([3.0, 5.0])) == 5.0
    with pytest.raises(DimensionMismatchError):
        policy.error_of(np.zeros(3))


# --- engine exits golden file ---------------------------------------------------

GOLDEN_EXITS = Path(__file__).parent / "data" / "golden_engine_exits.csv"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    return _sha(np.ascontiguousarray(a, dtype=float).tobytes())


def _trace_sha(trace) -> str:
    if trace is None:
        return "-"
    text = "\n".join(f"{k},{float.hex(err)},{float.hex(step)}" for k, err, step in trace)
    return _sha(text.encode())


def _exit_cases(record_trace):
    """Name and thunk of one run per engine exit, every stop in ``iterate``."""
    from aamr import NumericalFailure, aamr_solve
    a, b = Ball([1.0, 1.0], 1.0), Ball([-1.0, 1.0], 1.0)  # tangent at (0, 1)
    line = LinearSubspace([[1.0], [0.0]])
    opts = dict(record_trace=record_trace)

    def raises_at(k_fail):
        def step(x, k):
            if k == k_fail:
                raise NumericalFailure("boom")
            return 0.5 * x + 0.25, x
        return step

    return {
        "residual": lambda: aamr_solve(
            a, b, [2.0, 1.0], alpha=0.9, beta=0.7,
            policy=StoppingPolicy.residual(eps=1e-10, max_iter=10**4, **opts)),
        "true_error set": lambda: iterate(
            lambda x, k: (0.5 * x, x), np.array([1.0, 3.0]),
            StoppingPolicy.true_error(line, eps=1e-6, max_iter=50, **opts)),
        "true_error point": lambda: aamr_solve(
            a, b, [2.0, 1.0], alpha=0.9, beta=0.7,
            policy=StoppingPolicy.true_error([0.0, 1.0], eps=1e-9, max_iter=10**4,
                                             **opts)),
        "budget": lambda: aamr_solve(
            a, b, [0.0, 2.0], alpha=0.9, beta=0.7,
            policy=StoppingPolicy.budget_only(max_iter=60, **opts)),
        "diverged": lambda: aamr_solve(
            a, b, [0.0, 2.0], alpha=1.0, beta=0.3,
            policy=StoppingPolicy.budget_only(max_iter=10**4, divergence_threshold=5.0,
                                              **opts)),
        "raises at 0": lambda: iterate(
            raises_at(0), np.array([1.0, -2.0]),
            StoppingPolicy.budget_only(max_iter=20, **opts)),
        "raises at 4": lambda: iterate(
            raises_at(4), np.array([1.0, -2.0]),
            StoppingPolicy.budget_only(max_iter=20, **opts)),
        "non-finite": lambda: iterate(
            lambda x, k: (np.full_like(x, math.inf) if k == 3 else 0.9 * x, x),
            np.array([1e10, 2.0]),
            StoppingPolicy.residual(eps=1e-12, max_iter=50, **opts)),
    }


def engine_exit_rows() -> str:
    """CSV text of every engine-exit golden case.  Regenerate the file with
    ``GOLDEN_EXITS.write_text(engine_exit_rows())``."""
    lines = ["case,trace,status,iterations,final_error,shadow_sha256,"
             "iterate_sha256,drift_sha256,trace_sha256"]
    for record_trace in (False, True):
        for case, run in _exit_cases(record_trace).items():
            res = run()
            lines.append(",".join([
                case, str(record_trace), res.status.value, str(res.iterations),
                float.hex(res.final_error), _array_sha(res.shadow),
                _array_sha(res.iterate), _array_sha(res.drift),
                _trace_sha(res.trace)]))
    return "\n".join(lines) + "\n"


def test_engine_exits_match_golden_file():
    # Written before iterate's exits were folded into one; it pins every
    # stop of the engine bit for bit.  Never regenerate it to make a change
    # pass.
    assert engine_exit_rows() == GOLDEN_EXITS.read_text()
