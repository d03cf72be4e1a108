"""Subspace analytics: orthonormalization, principal angles, Friedrichs
angles, subspace intersections, and seeded random subspace-pair generation.

All functions here work on plain ``(n, d)`` matrices whose columns span a
subspace of R^n.  Routines that require orthonormal input check it and raise
``ValueError`` otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
# eager, unlike the beta fit's scipy.optimize: every subspace needs the pivoted
# QR of orthonormal_columns, so a deferred import would only move into the
# first set-up
import scipy.linalg

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
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    n, d = M.shape
    if d == 0:
        return np.zeros((n, 0))
    Q, R, _ = scipy.linalg.qr(M, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    if pivots.size == 0:
        return np.zeros((n, 0))
    ref = pivots[0] if scale is None else scale
    rank = int(np.count_nonzero(pivots > 1e-12 * ref))
    return Q[:, :rank].copy()


def check_orthonormal(basis, name: str = "basis") -> np.ndarray:
    """Validate that ``basis`` has orthonormal columns, to ``1e-12`` times the
    ambient dimension; returns it as float array."""
    Q = np.asarray(basis, dtype=float)
    if Q.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D matrix, got shape {Q.shape}")
    n, d = Q.shape
    if d:
        gram = Q.T @ Q
        if np.max(np.abs(gram - np.eye(d))) > 1e-12 * max(n, 1):
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
    angles = scipy.linalg.subspace_angles(Qu, Qv)  # descending
    return np.sort(angles)


def common_directions(bases) -> np.ndarray:
    """Orthonormal basis of the intersection of several subspaces.

    Stacks the projector complements ``I - Qi Qi.T`` and takes the right
    singular vectors with singular value at most ``ZERO_ANGLE_TOL``: for a unit
    vector x the stacked norm is sqrt(sum_i d(x, U_i)^2), which vanishes
    exactly on the intersection.  Genuinely shared directions come out at the
    1e-15 level.
    """
    mats = [check_orthonormal(Q, f"bases[{i}]") for i, Q in enumerate(bases)]
    if not mats:
        raise ValueError("need at least one basis")
    n = mats[0].shape[0]
    for Q in mats:
        if Q.shape[0] != n:
            raise ValueError("bases live in different ambient dimensions")
    eye = np.eye(n)
    K = np.vstack([eye - Q @ Q.T for Q in mats])
    # the thin SVD: U is never read, and Vt and the singular values are
    # the full SVD's bit for bit
    _, svals, Vt = np.linalg.svd(K, full_matrices=False)
    keep = svals <= ZERO_ANGLE_TOL
    return Vt[keep].T.copy()


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
    Qu = check_orthonormal(basis_u, "basis_u")
    Qv = check_orthonormal(basis_v, "basis_v")
    return _angle_past(Qu, Qv, subspace_intersection(Qu, Qv))


def _angle_past(Qu, Qv, meet) -> float:
    """Smallest principal angle between orthonormal ``Qu`` and ``Qv`` once
    their intersection basis ``meet`` is removed from both."""
    if meet.shape[1]:
        deflate = np.eye(Qu.shape[0]) - meet @ meet.T
        # columns were unit vectors, so rank-cut against an absolute scale
        Qu2 = orthonormal_columns(deflate @ Qu, scale=1.0)
        Qv2 = orthonormal_columns(deflate @ Qv, scale=1.0)
    else:
        Qu2, Qv2 = Qu, Qv
    if Qu2.shape[1] == 0 or Qv2.shape[1] == 0:
        raise ValueError("coincident subspaces: one contains the other, "
                         "no angle beyond the intersection")
    return float(np.min(scipy.linalg.subspace_angles(Qu2, Qv2)))


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
    pos = 0

    def take(count):
        nonlocal pos
        block = frame[:, pos:pos + count]
        pos += count
        return block

    shared = take(meet)
    first = take(pairs)
    extra_u = take(du - meet - pairs)
    partners = take(pairs)
    extra_v = take(dv - meet - pairs)
    if pairs > 1:
        angles = np.concatenate([[theta], rng.uniform(theta, np.pi / 2, pairs - 1)])
    else:
        angles = np.array([theta])
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
