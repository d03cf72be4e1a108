import math

import numpy as np
import pytest

from aamr import (AffineSubspace, Hyperplane, LinearSubspace, friedrichs_angle,
                  map_solve, orthonormal_columns, principal_angles,
                  project_intersection_oracle, random_subspace_pair,
                  subspace_intersection, StoppingPolicy)
from aamr import geometry
from aamr.geometry import SubspacePair, common_directions

from conftest import BLAS_KERNELS, run_on_blas_kernel


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
    with pytest.raises(ValueError, match="^basis_u: columns are not orthonormal$"):
        principal_angles(np.where(qu > 0.5, np.nan, qu), qv)


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


def test_principal_angles_of_an_empty_basis_and_of_mixed_dimensions():
    assert principal_angles(np.zeros((3, 0)), col(E1)).shape == (0,)
    assert principal_angles(col(E1), np.zeros((3, 0))).shape == (0,)
    with pytest.raises(ValueError, match="^bases live in different ambient dimensions$"):
        principal_angles(col(E1), np.eye(4)[:, :1])


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


def test_pair_computes_its_intersection_once(monkeypatch):
    calls = []

    def counting(bases, *args, **kwargs):
        calls.append(len(bases))
        return common_directions(bases, *args, **kwargs)

    monkeypatch.setattr(geometry, "common_directions", counting)
    pair = SubspacePair.from_bases(col(E1, E2), col(E1, E3))
    assert calls == [2]
    assert pair.angle == pytest.approx(math.pi / 2)
    assert np.allclose(np.abs(pair.intersection[:, 0]), E1)


def test_pair_freezes_copies_not_the_callers_bases():
    basis_u, basis_v = col(E1, E2), col(E1, E3)
    pair = SubspacePair.from_bases(basis_u, basis_v)
    basis_u[0, 0] = 1.0  # the caller's arrays stay writeable
    basis_v[0, 0] = 1.0
    for frozen in (pair.basis_u, pair.basis_v, pair.intersection):
        assert not frozen.flags.writeable
    assert np.array_equal(pair.basis_u, col(E1, E2))


@pytest.mark.parametrize("n", [10, 50, 200])
def test_common_directions_thin_svd_equals_the_full_one_bit_for_bit(n):
    # the thin SVD skips U; Vt and the singular values, and so the basis of
    # the intersection, keep the full-matrix SVD's bytes
    for seed in range(4):
        pair = random_subspace_pair(n, [seed, 61],
                                    target_angle_interval=(0.02, 1.5) if seed % 2 else None)
        K = np.vstack([np.eye(n) - Q @ Q.T for Q in (pair.basis_u, pair.basis_v)])
        _, svals, Vt = np.linalg.svd(K)
        full = Vt[svals <= geometry.ZERO_ANGLE_TOL].T.copy()
        thin = common_directions([pair.basis_u, pair.basis_v])
        assert thin.shape == full.shape and thin.tobytes() == full.tobytes()
        assert pair.intersection.tobytes() == full.tobytes()


def _oracle_constraints(n, rng):
    """The constraint matrices ``project_intersection_oracle`` hands
    ``_null_directions`` on seeded affine-like families in R^n: a subspace
    pair, a pair and its intersection, an affine set and a hyperplane, and
    three hyperplanes (wide, so zero-padded to square)."""
    pair = random_subspace_pair(n, [int(rng.integers(2**31)), 34],
                                target_angle_interval=(0.4, 1.2))
    U, V = LinearSubspace(pair.basis_u), LinearSubspace(pair.basis_v)
    planes = [Hyperplane(rng.standard_normal(n), 0.0) for _ in range(3)]
    families = [[U, V], [U, V, LinearSubspace(pair.intersection)],
                [AffineSubspace(np.zeros(n), pair.basis_u), planes[0]], planes]
    null, seen = geometry._null_directions, []
    geometry._null_directions = lambda M: seen.append(M) or null(M)
    try:
        for family in families:
            project_intersection_oracle(family, rng.standard_normal(n))
    finally:
        geometry._null_directions = null
    return seen


def _svd_route_cases():
    """(name, matrix) for ``_null_directions``: complement stacks of 1, 2 and
    3 bases (1 is below dgesdd's ``cols * 11 // 6`` threshold), a
    zero-column stack, rank-deficient stacks, the intersection oracle's
    constraint matrices, and Gaussian and rank-2 matrices just below, at and
    just above the threshold."""
    cases = [("zero-column", np.zeros((5, 0)))]
    for n in (3, 10, 50, 200):
        rng = np.random.default_rng([n, 34])
        pair = random_subspace_pair(n, [n, 34], target_angle_interval=(0.02, 1.5))
        bases = [pair.basis_u, pair.basis_v, pair.intersection]
        for count in (1, 2, 3):
            cases.append((f"stack-{count}-n{n}", geometry._complement_stack(bases[:count])))
        cases.append((f"coincident-n{n}", geometry._complement_stack([pair.basis_u] * 2)))
        cases.append((f"full-space-n{n}", geometry._complement_stack([np.eye(n)] * 2)))
        for i, M in enumerate(_oracle_constraints(n, rng)):
            cases.append((f"oracle-{i}-n{n}", M))
    rng = np.random.default_rng(34)
    for cols in (2, 6, 25, 100, 150):
        for rows in (cols * 11 // 6 - 1, cols * 11 // 6, cols * 11 // 6 + 1):
            cases.append((f"gauss-{rows}x{cols}", rng.standard_normal((rows, cols))))
            cases.append((f"rank2-{rows}x{cols}",
                          rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))))
    return cases


def _svd_route_mismatches():
    """Names of the ``_svd_route_cases`` where ``_null_directions`` does not
    decompose the stack's R factor from ``cols * 11 // 6`` rows on and the
    stack itself below, or where that SVD's singular values, right vectors
    or null directions differ by a byte from the stack's own thin SVD."""
    svd, seen, bad = np.linalg.svd, [], []

    def spy(a, *args, **kwargs):
        seen.append((a.shape, svd(a, *args, **kwargs)))
        return seen[-1][1]

    np.linalg.svd = spy
    try:
        for name, M in _svd_route_cases():
            seen.clear()
            got = geometry._null_directions(M)
            (shape, (_, svals, Vt)), = seen
            _, ref_svals, ref_Vt = svd(M, full_matrices=False)
            rows, cols = M.shape
            route = (cols, cols) if rows >= cols * 11 // 6 else M.shape
            ref = ref_Vt[ref_svals <= geometry.ZERO_ANGLE_TOL].T.copy()
            if (shape != route or svals.tobytes() != ref_svals.tobytes()
                    or Vt.tobytes() != ref_Vt.tobytes()
                    or got.shape != ref.shape or got.tobytes() != ref.tobytes()):
                bad.append(name)
    finally:
        np.linalg.svd = svd
    return bad


def test_null_directions_is_the_stacks_own_svd_bit_for_bit():
    names = [name for name, _ in _svd_route_cases()]
    assert len(names) == len(set(names)) == 67
    assert _svd_route_mismatches() == []


@pytest.mark.parametrize("coretype", sorted(BLAS_KERNELS))
def test_null_directions_is_the_stacks_own_svd_on_other_blas_kernels(coretype):
    run = run_on_blas_kernel(
        coretype, "import test_geometry\nprint(test_geometry._svd_route_mismatches())")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _scipy_orthonormal_columns(M, scale=None):
    """``orthonormal_columns`` on ``scipy.linalg.qr``, the reference."""
    import scipy.linalg
    Q, R, _ = scipy.linalg.qr(M, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    ref = pivots[0] if scale is None else scale
    return Q[:, :int(np.count_nonzero(pivots > 1e-12 * ref))].copy()


def _qr_cases():
    """Seeded matrices with min(m, n) <= 128: tall, wide, square, F-ordered,
    rank-deficient, a single column or row, and ones that only ``scale=1.0``
    cuts to rank 0."""
    rng = np.random.default_rng(29)
    for m, n in [(1, 1), (5, 1), (1, 5), (3, 2), (10, 3), (3, 10), (25, 25), (50, 25),
                 (25, 50), (50, 38), (128, 128), (200, 100), (200, 128), (100, 200)]:
        yield rng.standard_normal((m, n)), None
        yield np.asfortranarray(rng.standard_normal((m, n))), None
        rank = max(1, min(m, n) // 3)
        yield rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)), None
        yield 1e-14 * rng.standard_normal((m, n)), 1.0
    yield np.zeros((4, 2)), None
    normal = rng.standard_normal(6)  # a hyperplane's directions
    yield np.eye(6) - np.outer(normal, normal) / (normal @ normal), 1.0
    yield geometry._complement_stack([normal[:, None] / np.linalg.norm(normal)]), 1.0


def test_orthonormal_columns_is_scipys_pivoted_qr_bit_for_bit():
    if geometry._lapack_qr() is None:
        pytest.skip("numpy's BLAS has no scipy_dgeqp3_64_")
    for M, scale in _qr_cases():
        want = _scipy_orthonormal_columns(M, scale)
        got = orthonormal_columns(M, scale)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), (M.shape, scale)


def test_orthonormal_columns_svd_fallback_has_the_qr_rank_and_span(monkeypatch):
    # a numpy built on a BLAS without the symbols; the reference is the
    # LAPACK QR where this numpy has it, and scipy's pivoted QR otherwise
    qr = orthonormal_columns if geometry._lapack_qr() else _scipy_orthonormal_columns
    cases = [(M, scale, qr(M, scale)) for M, scale in _qr_cases()]
    monkeypatch.setattr(geometry, "_lapack_qr", lambda: None)
    for M, scale, want in cases:
        got = orthonormal_columns(M, scale)
        assert got.shape == want.shape and got.flags.c_contiguous, (M.shape, scale)
        geometry.check_orthonormal(got)
        assert np.abs(got @ got.T - want @ want.T).max() <= 1e-10, (M.shape, scale)


def test_qr_workspace_is_scipys_query():
    # the workspace picks LAPACK's blocked paths, taken past 128 columns
    from scipy.linalg import lapack
    if geometry._lapack_qr() is None:
        pytest.skip("numpy's BLAS has no scipy_dgeqp3_64_")
    for m, n in [(10, 3), (3, 10), (300, 150), (150, 300)]:
        k = min(m, n)
        qp3 = lapack.dgeqp3(np.zeros((m, n), order="F"), lwork=-1)[3][0]
        gqr = lapack.dorgqr(np.zeros((m, k), order="F"), np.zeros(k), lwork=-1)[1][0]
        assert geometry._qr_workspace(m, n) == (int(qp3), int(gqr))


def test_orthonormal_columns_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            orthonormal_columns([[1.0, bad], [0.0, 1.0]])


def test_angles_are_scipys_subspace_angles_bit_for_bit(monkeypatch):
    # the pairs the program makes, n <= 50 with dimensions in [n/4, 3n/4], and
    # lines.  Near-square bases (seen from n = 28 on) can get another U from
    # dgesdd in scipy's OpenBLAS build than in numpy's
    import scipy.linalg
    rng = np.random.default_rng(29)
    pairs = [(col(E1), col(np.array([1.0, 1e-9, 0.0]))), (col(E1, E2), col(E3))]
    for n in (3, 4, 7, 10, 20, 50):
        for seed in range(6):
            pair = random_subspace_pair(n, [seed, 29], (0.02, 1.5) if seed % 2 else None)
            pairs.append((pair.basis_u, pair.basis_v))
            pairs.append((orthonormal_columns(rng.standard_normal((n, 1))), pair.basis_v))
    got = [(principal_angles(u, v), SubspacePair.from_bases(u, v).angle) for u, v in pairs]
    monkeypatch.setattr(geometry, "_subspace_angles", scipy.linalg.subspace_angles)
    for (u, v), (angles, angle) in zip(pairs, got):
        assert angles.tobytes() == principal_angles(u, v).tobytes(), (u.shape, v.shape)
        assert angle == SubspacePair.from_bases(u, v).angle, (u.shape, v.shape)
