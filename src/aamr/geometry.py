"""Subspace analytics: orthonormalization, principal angles, Friedrichs
angles, subspace intersections, and seeded random subspace-pair generation.

All functions here work on plain ``(n, d)`` matrices whose columns span a
subspace of R^n.  Routines that require orthonormal input check it and raise
``ValueError`` otherwise.
"""

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "orthonormal_columns",
    "check_orthonormal",
    "principal_angles",
    "subspace_intersection",
    "common_directions",
    "friedrichs_angle",
    "SubspacePair",
    "random_subspace_pair",
]

# Principal angles below this (radians) count as shared directions.  Far below
# any benchmark angle, far above the ~1e-15 noise of the sine-based SVD route.
ZERO_ANGLE_TOL = 1e-8


def orthonormal_columns(matrix, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column span of ``matrix``.

    Uses QR with column pivoting; columns whose pivot magnitude is at most
    ``1e-12 * scale`` are dropped, so rank deficiency is resolved here.
    ``scale`` defaults to the largest pivot; pass an absolute scale (e.g. 1.0
    for unit-norm inputs) when the whole matrix may be numerically zero.

    The QR is ``scipy.linalg.qr(matrix, mode="economic", pivoting=True)``
    computed by LAPACK ``dgeqp3`` and ``dorgqr`` in numpy's own OpenBLAS
    with scipy's workspace sizes: scipy's bits, checked up to 200 x 128.
    Past 128 columns both routines take their blocked paths, where numpy's
    and scipy's OpenBLAS builds round differently (at 300 x 150, R equal
    and Q within 2.8e-17).  Where numpy's BLAS lacks these routines, the
    basis is the thin SVD's U, cut at its singular values: the same span and
    rank, other bits.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    n, d = M.shape
    if min(n, d) == 0:
        return np.zeros((n, 0))
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    Q, pivots = _pivoted_qr(M)
    ref = pivots[0] if scale is None else scale
    rank = int(np.count_nonzero(pivots > 1e-12 * ref))
    return Q[:, :rank].copy()


@functools.cache
def _numpy_blas():
    """ctypes handle on numpy's linalg module and the BLAS it links, or None."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _lapack_qr():
    """``(dgeqp3, dorgqr)`` of ``_numpy_blas()`` (ILP64 integers, every
    argument by reference), or None where it lacks these symbols."""
    lib = _numpy_blas()
    try:  # None (no handle) has neither symbol either
        routines = lib.scipy_dgeqp3_64_, lib.scipy_dorgqr_64_
    except AttributeError:
        return None
    for routine in routines:
        routine.argtypes, routine.restype = [ctypes.c_void_p] * 9, None
    return routines


def _by_reference(*values):
    """The int64 Fortran arguments ``values`` in one array, and the address
    of each; the array must stay alive while LAPACK reads them."""
    ints = np.array(values, dtype=np.int64)
    return ints, range(ints.ctypes.data, ints.ctypes.data + 8 * len(values), 8)


@functools.lru_cache(maxsize=64)
def _qr_workspace(m, n):
    """Optimal ``lwork`` of ``dgeqp3`` on an ``(m, n)`` matrix and of
    ``dorgqr`` on its min(m, n) reflectors, from each routine's
    ``lwork = -1`` query, as ``scipy.linalg.qr`` sizes them."""
    geqp3, orgqr = _lapack_qr()
    ints, (m_, n_, k_, query, info) = _by_reference(m, n, min(m, n), -1, 0)
    size = np.zeros(1)
    at = size.ctypes.data  # a query reads no array
    geqp3(m_, n_, at, m_, at, at, at, query, info)
    lwork_qp3 = int(size[0])
    orgqr(m_, k_, k_, at, m_, at, at, query, info)
    return lwork_qp3, int(size[0])


def _pivoted_qr(M):
    """Q (F-ordered) of the economic pivoted QR of the finite float matrix
    ``M``, and the magnitudes of R's diagonal; where numpy's BLAS has no
    ``dgeqp3``, the thin SVD's U (C-ordered) and singular values."""
    routines = _lapack_qr()
    if routines is None:  # the singular values are descending, as the pivots
        u, svals, _ = np.linalg.svd(M, full_matrices=False)
        return u, svals
    geqp3, orgqr = routines
    m, n = M.shape
    k = min(m, n)
    lwork_qp3, lwork_gqr = _qr_workspace(m, n)
    ints, (m_, n_, k_, lw_qp3, lw_gqr, info_qp3, info_gqr) = _by_reference(
        m, n, k, lwork_qp3, lwork_gqr, 0, 0)
    A = np.array(M, order="F")  # a copy: both routines overwrite it
    jpvt = np.zeros(n, dtype=np.int64)  # zero: every column free to pivot
    tau = np.empty(k)
    work = np.empty(max(lwork_qp3, lwork_gqr))
    a, t, w = A.ctypes.data, tau.ctypes.data, work.ctypes.data
    geqp3(m_, n_, a, m_, jpvt.ctypes.data, t, w, lw_qp3, info_qp3)
    pivots = np.abs(A.diagonal())
    orgqr(m_, k_, k_, a, m_, t, w, lw_gqr, info_gqr)
    if ints[5] or ints[6]:
        raise ValueError(f"LAPACK pivoted QR failed: info {ints[5]}, {ints[6]}")
    return A[:, :k], pivots


def check_orthonormal(basis, name: str = "basis") -> np.ndarray:
    """Validate that ``basis`` has orthonormal columns, to ``1e-12`` times the
    ambient dimension; returns it as float array."""
    Q = np.asarray(basis, dtype=float)
    if Q.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got shape {Q.shape}")
    n, d = Q.shape
    if d:
        gram = Q.T @ Q
        # negated, so that a NaN entry fails too
        if not np.max(np.abs(gram - np.eye(d))) <= 1e-12 * max(n, 1):
            raise ValueError(f"{name}: columns are not orthonormal")
    return Q


def principal_angles(basis_u, basis_v) -> np.ndarray:
    """Principal angles between two subspaces, in nondecreasing order.

    The cosines are the singular values of ``Qu.T @ Qv``; small angles are
    computed through the numerically safe sine route.  Inputs must have
    orthonormal columns.
    """
    Qu = check_orthonormal(basis_u, "basis_u")
    Qv = check_orthonormal(basis_v, "basis_v")
    if Qu.shape[0] != Qv.shape[0]:
        raise ValueError("bases live in different ambient dimensions")
    if Qu.shape[1] == 0 or Qv.shape[1] == 0:
        return np.zeros(0)
    return np.sort(_subspace_angles(Qu, Qv))


def _orth(A):
    """``scipy.linalg.orth(A)``: the left singular vectors past scipy's rank
    cut.  F-ordered like scipy's, since the gemms that read it round by
    layout.  dgesdd can give a near-square ``A`` (seen from 28 x 27 on)
    another U in numpy's OpenBLAS build than in scipy's; the pairs
    ``random_subspace_pair`` draws at n <= 60 got scipy's bits in 5,220 of
    5,220 seeded cases."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(A.shape)
    return np.asfortranarray(u)[:, :np.count_nonzero(s > tol)]


def _subspace_angles(A, B):
    """``scipy.linalg.subspace_angles(A, B)`` step for step (Knyazev and
    Argentati 2002: cosines from the singular values of ``QA.T QB``, sines
    for the angles below pi/4), on numpy's LAPACK; in descending order."""
    QA, QB = _orth(A), _orth(B)
    cross = np.dot(QA.T, QB)
    sigma = np.linalg.svd(cross, compute_uv=False)
    if QA.shape[1] >= QB.shape[1]:
        gap = QB - np.dot(QA, cross)
    else:
        gap = QA - np.dot(QB, cross.T)
    mask = sigma ** 2 >= 0.5
    sines = 0.0
    if mask.any():
        sines = np.arcsin(np.clip(np.linalg.svd(gap, compute_uv=False), -1.0, 1.0))
    return np.where(mask, sines, np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


def common_directions(bases) -> np.ndarray:
    """Orthonormal basis of the intersection of several subspaces.

    Stacks the projector complements ``I - Qi Qi.T`` and takes the right
    singular vectors with singular value at most ``ZERO_ANGLE_TOL``: for a unit
    vector x the stacked norm is sqrt(sum_i d(x, U_i)^2), which vanishes
    exactly on the intersection.  Genuinely shared directions come out at the
    1e-15 level.
    """
    return _null_directions(_complement_stack(bases))


def _complement_stack(bases) -> np.ndarray:
    """``I - Qi Qi.T`` of orthonormal ``bases`` in one R^n, stacked by rows."""
    mats = [check_orthonormal(Q, f"bases[{i}]") for i, Q in enumerate(bases)]
    if not mats:
        raise ValueError("need at least one basis")
    n = mats[0].shape[0]
    for Q in mats:
        if Q.shape[0] != n:
            raise ValueError("bases live in different ambient dimensions")
    eye = np.eye(n)
    return np.vstack([eye - Q @ Q.T for Q in mats])


def _null_directions(stack) -> np.ndarray:
    """Right singular vectors of ``stack`` with singular value at most
    ``ZERO_ANGLE_TOL``, as columns.  A thin SVD has only min(rows, cols)
    right vectors, so this returns the whole null space only for a ``stack``
    with at least as many rows as columns; pad a wide one with zero rows.
    From ``cols * 11 // 6`` rows on (dgesdd's MNTHR), LAPACK factors the
    stack as QR and takes the SVD of R (Chan 1982), so the SVD of R alone
    keeps Vt and the singular values bit for bit and forms no tall U; below
    it R rounds otherwise.  Checked at, above and below the threshold under
    OpenBLAS's SkylakeX, Haswell and Prescott kernels."""
    if stack.shape[0] >= stack.shape[1] * 11 // 6:
        stack = np.linalg.qr(stack, mode="r")
    _, svals, Vt = np.linalg.svd(stack, full_matrices=False)
    return Vt[svals <= ZERO_ANGLE_TOL].T.copy()


def subspace_intersection(basis_u, basis_v) -> np.ndarray:
    """Orthonormal basis of span(U) ∩ span(V); may have zero columns."""
    return common_directions([basis_u, basis_v])


def friedrichs_angle(basis_u, basis_v) -> float:
    """Friedrichs angle between two subspaces, in (0, pi/2].

    Equals the first principal angle past the shared directions: the
    intersection is removed from both subspaces and the smallest remaining
    principal angle is returned.  Raises ``ValueError`` for coincident or
    nested subspaces, where no angle past the intersection exists.
    """
    return SubspacePair.from_bases(basis_u, basis_v).angle


def _angle_past(Qu, Qv, meet) -> float:
    """Smallest principal angle between orthonormal ``Qu`` and ``Qv`` once
    their intersection basis ``meet`` is removed from both."""
    if meet.shape[1]:
        deflate = np.eye(meet.shape[0]) - meet @ meet.T
        # columns were unit vectors, so rank-cut against an absolute scale
        Qu2 = orthonormal_columns(deflate @ Qu, scale=1.0)
        Qv2 = orthonormal_columns(deflate @ Qv, scale=1.0)
    else:
        Qu2, Qv2 = Qu, Qv
    if Qu2.shape[1] == 0 or Qv2.shape[1] == 0:
        raise ValueError("coincident subspaces: one contains the other, "
                         "no angle beyond the intersection")
    return float(np.min(_subspace_angles(Qu2, Qv2)))


@dataclass(frozen=True)
class SubspacePair:
    """Two subspaces with their intersection basis and Friedrichs angle.

    ``basis_u`` and ``basis_v`` are orthonormal ``(n, d)`` matrices,
    ``intersection`` an orthonormal basis of their common subspace, and
    ``angle`` the Friedrichs angle in radians.
    """

    basis_u: np.ndarray
    basis_v: np.ndarray
    intersection: np.ndarray
    angle: float

    @classmethod
    def from_bases(cls, basis_u, basis_v):
        # copies, so that freezing them leaves the caller's arrays writeable
        Qu = check_orthonormal(basis_u, "basis_u").copy(order="K")
        Qv = check_orthonormal(basis_v, "basis_v").copy(order="K")
        meet = subspace_intersection(Qu, Qv)
        angle = _angle_past(Qu, Qv, meet)
        for arr in (Qu, Qv, meet):
            arr.flags.writeable = False
        return cls(Qu, Qv, meet, angle)


def _sample_dims(rng, n):
    lo = math.ceil(n / 4)
    hi = math.ceil(3 * n / 4)
    for _ in range(10_000):
        du = int(rng.integers(lo, hi + 1))
        dv = int(rng.integers(lo, hi + 1))
        meet = du + dv - n
        if meet < 1:
            continue
        if min(du, dv) - meet < 1:  # one inside the other: no angle (n = 3)
            continue
        return du, dv
    raise ValueError(f"cannot sample dimensions for n={n}")


def _constructed_pair(rng, n, du, dv, theta):
    """Pair with intersection dim du+dv-n and Friedrichs angle exactly theta.

    Builds both subspaces inside a random orthonormal frame: a shared block,
    then direction pairs opened by angles theta <= t_2 <= ... <= pi/2, plus
    mutually orthogonal leftovers.
    """
    meet = du + dv - n
    pairs = min(du, dv) - meet
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    shared, first, extra_u, partners, extra_v = np.split(
        frame, np.cumsum([meet, pairs, du - meet - pairs, pairs]), axis=1)
    angles = np.concatenate([[theta], rng.uniform(theta, np.pi / 2, pairs - 1)])
    opened = first * np.cos(angles) + partners * np.sin(angles)
    Qu = np.hstack([shared, first, extra_u])
    Qv = np.hstack([shared, opened, extra_v])
    return Qu, Qv


def random_subspace_pair(n: int, seed, target_angle_interval=None) -> SubspacePair:
    """Seeded random pair of subspaces of R^n with nontrivial intersection.

    Dimensions are drawn uniformly from [ceil(n/4), ceil(3n/4)] subject to
    d_u + d_v > n and d_u, d_v < n, so that the intersection is nontrivial
    and neither subspace contains the other.  Without a target interval the
    bases are orthonormalized standard-Gaussian matrices.  With
    ``target_angle_interval = (lo, hi)`` the pair is built constructively so
    that the Friedrichs angle lands inside the interval (rejection sampling
    cannot reach large angles under this dimension law).  Deterministic for a
    fixed ``seed``.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = np.random.default_rng(seed)
    if target_angle_interval is None:
        for _ in range(100):
            du, dv = _sample_dims(rng, n)
            Qu = orthonormal_columns(rng.standard_normal((n, du)))
            Qv = orthonormal_columns(rng.standard_normal((n, dv)))
            pair = SubspacePair.from_bases(Qu, Qv)
            if pair.intersection.shape[1] >= 1:
                return pair
        raise ValueError("failed to draw a pair with a nontrivial intersection")

    lo, hi = (float(target_angle_interval[0]), float(target_angle_interval[1]))
    if not (0.0 < lo <= hi <= np.pi / 2):
        raise ValueError("target_angle_interval must satisfy 0 < lo <= hi <= pi/2")
    du, dv = _sample_dims(rng, n)
    theta = float(rng.uniform(lo, hi)) if lo < hi else lo
    Qu, Qv = _constructed_pair(rng, n, du, dv, theta)
    pair = SubspacePair.from_bases(Qu, Qv)
    if not (lo - 1e-9 <= pair.angle <= hi + 1e-9):
        raise ValueError(f"constructed angle {pair.angle:.6f} missed "
                         f"[{lo:.6f}, {hi:.6f}]")
    return pair
