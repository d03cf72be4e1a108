import math

import numpy as np
import pytest

from aamr import (LinearSubspace, friedrichs_angle, map_solve,
                  orthonormal_columns, principal_angles,
                  project_intersection_oracle, random_subspace_pair,
                  subspace_intersection, StoppingPolicy)
from aamr.geometry import common_directions


def col(*vs):
    return np.stack([np.asarray(v, dtype=float) for v in vs], axis=1)


E1, E2, E3 = np.eye(3)


def test_principal_angles_orthogonal_lines():
    assert np.allclose(principal_angles(col(E1), col(E2)), [np.pi / 2])


def test_principal_angles_planar_rotation():
    theta = 0.37
    v = np.array([np.cos(theta), np.sin(theta), 0.0])
    got = principal_angles(col(E1), col(v))
    assert np.allclose(got, [theta], atol=1e-12)


def test_principal_angles_shared_axis():
    got = principal_angles(col(E1, E2), col(E2, E3))
    assert np.allclose(got, [0.0, np.pi / 2], atol=1e-12)


def test_principal_angles_sorted_and_checked():
    rng = np.random.default_rng(0)
    qu = orthonormal_columns(rng.standard_normal((8, 3)))
    qv = orthonormal_columns(rng.standard_normal((8, 4)))
    angles = principal_angles(qu, qv)
    assert np.all(np.diff(angles) >= 0)
    with pytest.raises(ValueError, match="orthonormal"):
        principal_angles(rng.standard_normal((8, 3)), qv)


def test_friedrichs_angle_examples():
    assert friedrichs_angle(col(E1, E2), col(E2, E3)) == pytest.approx(np.pi / 2)
    theta = 0.81
    v = np.array([np.cos(theta), np.sin(theta), 0.0])
    assert friedrichs_angle(col(E1), col(v)) == pytest.approx(theta, abs=1e-12)
    with pytest.raises(ValueError, match="coincident subspaces"):
        friedrichs_angle(col(E1, E2), col(E1, E2))
    # nested is an error too
    with pytest.raises(ValueError, match="coincident subspaces"):
        friedrichs_angle(col(E1), col(E1, E2))


def test_subspace_intersection_examples():
    meet = subspace_intersection(col(E1, E2), col(E2, E3))
    assert meet.shape == (3, 1)
    assert abs(abs(meet[1, 0]) - 1.0) <= 1e-12
    assert subspace_intersection(col(E1), col(E2)).shape == (3, 0)
    same = subspace_intersection(col(E1, E2), col(E1, E2))
    assert same.shape == (3, 2)
    # same span: projectors agree
    p = same @ same.T
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_intersection_basis_lies_in_both():
    rng = np.random.default_rng(3)
    for seed in range(5):
        pair = random_subspace_pair(30, [3, seed])
        qi = pair.intersection
        for q in (pair.basis_u, pair.basis_v):
            resid = qi - q @ (q.T @ qi)
            assert np.linalg.norm(resid) <= 1e-8


def test_pair_determinism_bit_for_bit():
    a = random_subspace_pair(50, 42)
    b = random_subspace_pair(50, 42)
    assert np.array_equal(a.basis_u, b.basis_u)
    assert np.array_equal(a.basis_v, b.basis_v)
    assert a.angle == b.angle
    c = random_subspace_pair(50, 42, target_angle_interval=(0.3, 0.35))
    d = random_subspace_pair(50, 42, target_angle_interval=(0.3, 0.35))
    assert np.array_equal(c.basis_u, d.basis_u)
    assert a.angle != c.angle


def test_pair_min_intersection_dim():
    for seed in range(8):
        pair = random_subspace_pair(50, seed, min_intersection_dim=3)
        assert pair.intersection.shape[1] >= 3


def test_pair_target_angle_interval():
    for lo, hi in [(0.3, 0.35), (0.03, 0.1), (1.2, 1.5), (1.5, np.pi / 2)]:
        for seed in range(4):
            pair = random_subspace_pair(50, [seed, 5], target_angle_interval=(lo, hi))
            assert lo - 1e-9 <= pair.angle <= hi + 1e-9
            assert pair.intersection.shape[1] >= 1
    with pytest.raises(ValueError):
        random_subspace_pair(50, 0, target_angle_interval=(0.0, 0.1))
    with pytest.raises(ValueError):
        random_subspace_pair(50, 0, target_angle_interval=(1.0, 0.5))


def test_friedrichs_symmetry_and_cosine_consistency():
    for seed in range(6):
        pair = random_subspace_pair(24, [7, seed])
        qu, qv = pair.basis_u, pair.basis_v
        assert abs(friedrichs_angle(qu, qv) - friedrichs_angle(qv, qu)) <= 1e-10
        # cos(theta) equals the (s+1)-th largest singular value of Qu.T Qv
        s = pair.intersection.shape[1]
        svals = np.linalg.svd(qu.T @ qv, compute_uv=False)
        assert abs(np.cos(pair.angle) - svals[s]) <= 1e-10


def test_oracle_agrees_with_long_alternating_projection_run():
    rng = np.random.default_rng(11)
    for seed in range(3):
        pair = random_subspace_pair(20, [11, seed])
        u = LinearSubspace(pair.basis_u)
        v = LinearSubspace(pair.basis_v)
        q = rng.standard_normal(20)
        res = map_solve(u, v, q, policy=StoppingPolicy.budget_only(max_iter=100_000))
        oracle = project_intersection_oracle([u, v], q)
        assert np.linalg.norm(res.iterate - oracle) <= 1e-6


def test_stopping_distance_formula_is_optimal():
    rng = np.random.default_rng(13)
    pair = random_subspace_pair(15, 99)
    qi = pair.intersection
    for _ in range(10):
        z = 5 * rng.standard_normal(15)
        p = qi @ (qi.T @ z)
        d = np.linalg.norm(z - p)
        # Pythagoras and normal-direction orthogonality certify optimality
        assert abs(d ** 2 + np.linalg.norm(p) ** 2 - np.linalg.norm(z) ** 2) \
            <= 1e-10 * (1 + np.linalg.norm(z) ** 2)
        assert np.max(np.abs(qi.T @ (z - p))) <= 1e-10
        # no sampled member does better
        for _ in range(200):
            member = qi @ rng.uniform(-6, 6, qi.shape[1])
            assert np.linalg.norm(z - member) >= d - 1e-10


def test_common_directions_three_subspaces():
    rng = np.random.default_rng(17)
    shared = rng.standard_normal(10)
    bases = [orthonormal_columns(np.column_stack([shared, rng.standard_normal((10, 3))]))
             for _ in range(3)]
    meet = common_directions(bases)
    assert meet.shape[1] == 1
    unit = shared / np.linalg.norm(shared)
    assert abs(abs(meet[:, 0] @ unit) - 1.0) <= 1e-9


def test_orthonormal_columns_rank_cut():
    rng = np.random.default_rng(19)
    base = rng.standard_normal((9, 3))
    made = np.column_stack([base, base @ rng.standard_normal((3, 2))])
    q = orthonormal_columns(made)
    assert q.shape == (9, 3)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    assert orthonormal_columns(np.zeros((4, 2))).shape == (4, 0)


def test_subspace_pair_requires_small_n_error():
    with pytest.raises(ValueError):
        random_subspace_pair(2, 0)


def test_pair_in_three_dimensions_has_an_angle():
    # at n = 3 the dimension law can draw all of R^3, which contains the
    # other subspace and leaves no Friedrichs angle
    for seed in range(200):
        pair = random_subspace_pair(3, [5, seed])
        assert 0.0 < pair.angle <= math.pi / 2
        assert max(pair.basis_u.shape[1], pair.basis_v.shape[1]) < 3
