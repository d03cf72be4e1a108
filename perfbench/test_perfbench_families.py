"""Tests for the benchmark's known-answer generators and span tracing.

Each generator's answer is checked by an argument that does not use the
answer's own construction: a tightly converged solve, a long run of
alternating projections, or the optimality condition on sampled points.
"""

import numpy as np
import pytest

from aamr import LinearSubspace, StoppingPolicy, sets, solvers

import families
import tracing
import workloads

DIMS = (3, 10, 50)


def _rng(n, salt):
    return np.random.default_rng([2024, salt, n])


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("count", (2, 3))
def test_box_family_answer_is_the_clamp_into_the_common_box(n, count):
    rng = _rng(n, count)
    for _ in range(5):
        fam = families.box_family(rng, n, count)
        lo = np.max([b.lower for b in fam.sets], axis=0)
        hi = np.min([b.upper for b in fam.sets], axis=0)
        assert np.all(hi - lo >= 1.0)
        np.testing.assert_allclose(fam.answer, np.clip(fam.q, lo, hi))
        # q keeps its 0.3 margin from every bound of the intersection
        assert np.min(np.minimum(np.abs(fam.q - lo), np.abs(fam.q - hi))) >= 0.3


@pytest.mark.parametrize("n", DIMS)
def test_affine_family_answer_matches_long_alternating_projections(n):
    rng = _rng(n, 7)
    for draw in range(4):
        fam = families.affine_family(rng, n, [2024, n, draw])
        assert all(s.contains(fam.answer, tol=1e-8) for s in fam.sets)
        res = solvers.map_solve(*fam.sets, fam.q,
                                policy=StoppingPolicy.residual(eps=1e-13, max_iter=20_000))
        np.testing.assert_allclose(res.shadow, fam.answer, atol=1e-8 * fam.scale)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("count", (2, 3))
def test_kink_family_answer_matches_a_tightly_converged_solve(n, count):
    rng = _rng(n, 10 + count)
    policy = StoppingPolicy.residual(eps=1e-13, max_iter=20_000)
    for _ in range(5):
        fam = families.kink_family(rng, n, count)
        assert all(s.contains(fam.answer) for s in fam.sets)
        res = solvers.aamr_product_solve(fam.sets, fam.q, policy=policy)
        np.testing.assert_allclose(res.shadow, fam.answer, atol=1e-8 * fam.scale)


@pytest.mark.parametrize("n", DIMS)
def test_gap_family_answer_is_the_minimal_norm_difference(n):
    rng = _rng(n, 20)
    kinds = set()
    for _ in range(12):
        fam = families.gap_family(rng, n)
        a_set, b_set = fam.sets
        kinds.add((type(a_set).__name__, type(b_set).__name__))
        v = fam.answer
        assert 0.5 <= np.linalg.norm(v) <= 2.0
        # alternating projections between A and B reach a best pair a - b = v
        b = b_set.project(fam.q)
        for _ in range(3000):
            a = a_set.project(b)
            b = b_set.project(a)
        np.testing.assert_allclose(a_set.project(b) - b, v, atol=1e-6)
        # v is the projection of 0 onto A - B: <(a - b) - v, v> >= 0
        for _ in range(50):
            a = a_set.project(fam.q + 3.0 * rng.standard_normal(n))
            b = b_set.project(fam.q + 3.0 * rng.standard_normal(n))
            assert (a - b - v) @ v >= -1e-9
    assert len(kinds) >= 3


def test_generators_are_deterministic_in_the_seed():
    def draw(seed):
        rng = np.random.default_rng([seed, 7, 10])
        fams = [families.box_family(rng, 10, 3), families.affine_family(rng, 10, [seed]),
                families.kink_family(rng, 10), families.gap_family(rng, 10)]
        return [np.concatenate([f.q, f.answer]) for f in fams]

    for x, y in zip(draw(4), draw(4)):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(draw(4), draw(5)))


def test_tracer_self_time_and_restores_the_program():
    original = sets.LinearSubspace.project
    tracer = tracing.Tracer()
    u = LinearSubspace(np.eye(4)[:, :2])
    with tracing.installed(tracer):
        assert sets.LinearSubspace.project is not original
        solvers.map_solve(u, u, np.ones(4))
    assert sets.LinearSubspace.project is original
    spans = tracer.spans()
    names = spans["names"][spans["name"]]
    assert list(names[:2]) == ["map_solve", "rap_solve"]
    assert spans["parent"][1] == 0
    assert np.all(spans["self"] <= spans["duration"] + 1e-12)
    timings, counts = tracing.layer_metrics(spans, 0)
    assert counts["solvers.iterations.map_solve"] == 1
    assert counts["solvers.status.converged"] == 1
    assert counts["operators.iterations"] == 1
    assert counts["sets.project_calls"] == int((names == "LinearSubspace").sum()) > 0


def test_task_counts_occupancy():
    counts = workloads._task_counts([[10, 5, 1], [4]])
    assert counts == {"bench.row_iterations": 20, "bench.loop_trips": 14,
                      "bench.batch_occupancy": 20 / 34}
