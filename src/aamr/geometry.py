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

# Principal angles at or below this (radians) are the shared directions: the
# meet is cut from the SVD of the sines at this value.  Far below any benchmark
# angle, far above the ~1e-15 noise of a sine.
ZERO_ANGLE_TOL = 1e-8


def orthonormal_columns(matrix) -> np.ndarray:
    """Orthonormal basis of the column span of ``matrix``.

    Uses QR with column pivoting; columns whose pivot magnitude is at most
    ``1e-12`` times the largest pivot are dropped, so rank deficiency is
    resolved here.

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
    rank = int(np.count_nonzero(pivots > 1e-12 * pivots[0]))
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

    One per column of the smaller basis, from the SVD that gives the
    intersection: sines for the angles up to pi/4 and cosines past it, so
    the angles at or below ``ZERO_ANGLE_TOL`` are exactly as many as the
    columns of ``subspace_intersection``.  Inputs must have orthonormal
    columns.
    """
    return _pair_spectrum(basis_u, basis_v)[1]


def common_directions(bases) -> np.ndarray:
    """Orthonormal basis of the intersection of several subspaces.

    Works in the coordinates of the basis ``B`` with the fewest columns (the
    first on a tie), by the sine route of Knyazev and Argentati (2002): each
    other basis ``Q`` adds the rows ``B - Q (Q.T B)``, whose norm at a unit
    ``a`` is sqrt(sum_i d(B a, U_i)^2), and the meet is ``B`` times their
    null space (``B`` itself for one basis).  For r bases of R^n that is one
    SVD of an (r - 1) n x d matrix, d = ``B``'s columns.  An error names a
    basis by its key in a mapping, or by its index.
    """
    B, others = _smallest_first(bases)
    # B[:0] has no rows; with no other basis the whole of B is the meet
    null, _ = _null_directions(np.vstack([B[:0], *(B - Q @ (Q.T @ B) for Q in others)]))
    return B @ null


def _smallest_first(bases):
    """The checked ``bases`` (a sequence, or a mapping of names to bases) as
    the one with the fewest columns, the first on a tie, and a list of the
    others."""
    named = bases.items() if isinstance(bases, dict) else (
        (f"bases[{i}]", Q) for i, Q in enumerate(bases))
    mats = [check_orthonormal(Q, name) for name, Q in named]
    if not mats:
        raise ValueError("need at least one basis")
    if len({Q.shape[0] for Q in mats}) > 1:
        raise ValueError("bases live in different ambient dimensions")
    return mats.pop(min(range(len(mats)), key=lambda i: mats[i].shape[1])), mats


def _pair_spectrum(basis_u, basis_v):
    """The meet of two subspaces and all d of their principal angles, in
    nondecreasing order, d the smaller dimension.  With ``B`` the smaller
    basis (the first on a tie) and ``Q`` the other, the singular values of
    ``B - Q (Q.T B)`` are the sines and those of ``Q.T B`` the cosines
    (Knyazev and Argentati 2002): an angle takes ``arcsin`` where its sine
    squared is at most 1/2 and ``arccos`` otherwise, so the cosines' SVD
    runs only when some angle lies past pi/4.  The meet is ``B`` times the
    null directions of the same SVD that gives the sines, so an angle at or
    below ``ZERO_ANGLE_TOL`` is exactly a meet direction."""
    B, (Q,) = _smallest_first({"basis_u": basis_u, "basis_v": basis_v})
    cross = Q.T @ B
    null, svals = _null_directions(B - Q @ cross)
    sines = svals[::-1]
    far = sines ** 2 > 0.5
    angles = np.arcsin(np.minimum(sines, 1.0))
    if far.any():
        angles[far] = np.arccos(np.linalg.svd(cross, compute_uv=False)[far])
    # angles within an ulp of pi/4 come from both SVDs, not always in order
    return B @ null, np.sort(angles)


def _null_directions(stack):
    """Right singular vectors of ``stack`` with singular value at most
    ``ZERO_ANGLE_TOL``, as columns, and all its singular values, descending.
    The columns are the whole null space, since a wide ``stack`` is padded
    with zero rows to square first (a thin SVD has only min(rows, cols)
    right vectors).  From ``cols * 11 // 6`` rows on (dgesdd's MNTHR),
    LAPACK factors the stack as QR and takes the SVD of R (Chan 1982), so
    the SVD of R alone keeps Vt and the singular values bit for bit and
    forms no tall U; below it R rounds otherwise.  Checked at, above and
    below the threshold under OpenBLAS's SkylakeX, Haswell and Prescott
    kernels."""
    rows, cols = stack.shape
    if rows < cols:
        stack = np.vstack([stack, np.zeros((cols - rows, cols))])
    if stack.shape[0] >= cols * 11 // 6:
        stack = np.linalg.qr(stack, mode="r")
    _, svals, Vt = np.linalg.svd(stack, full_matrices=False)
    return Vt[svals <= ZERO_ANGLE_TOL].T.copy(), svals


def subspace_intersection(basis_u, basis_v) -> np.ndarray:
    """Orthonormal basis of span(U) ∩ span(V); may have zero columns."""
    return common_directions({"basis_u": basis_u, "basis_v": basis_v})


def friedrichs_angle(basis_u, basis_v) -> float:
    """Friedrichs angle between two subspaces, in (0, pi/2].

    Equals the first principal angle past the shared directions: with k the
    dimension of the intersection, the (k + 1)-th of ``principal_angles``,
    from the same SVD.  Raises ``ValueError`` for coincident or
    nested subspaces, where no angle past the intersection exists.
    """
    return SubspacePair.from_bases(basis_u, basis_v).angle


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
        # copies, which _pair_spectrum checks; freezing them leaves the
        # caller's arrays writeable
        Qu, Qv = (np.asarray(Q, dtype=float).copy(order="K") for Q in (basis_u, basis_v))
        meet, angles = _pair_spectrum(Qu, Qv)
        if meet.shape[1] == angles.size:
            raise ValueError("coincident subspaces: one contains the other, "
                             "no angle beyond the intersection")
        for arr in (Qu, Qv, meet):
            arr.flags.writeable = False
        return cls(Qu, Qv, meet, float(angles[meet.shape[1]]))


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
