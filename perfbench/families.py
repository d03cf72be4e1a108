"""Seeded known-answer problem families for the ``convex`` workload.

Every generator takes a ``numpy.random.Generator`` and a dimension ``n`` and
returns a :class:`Family`: the sets, the query point ``q`` and the answer the
solvers must reproduce.  The answer is known without running any solver:

* ``box_family`` and ``affine_family``: nonempty intersections whose
  projection ``project_intersection_oracle`` computes in closed form.
* ``kink_family``: balls, halfspaces and hyperplanes whose boundaries all pass
  through a chosen point ``p*``, with ``q - p*`` a nonnegative mix of the
  outward normals at ``p*`` (any sign for a hyperplane).  By the optimality
  condition ``q - p* in N_C(p*)`` the projection of ``q`` is ``p*``.
* ``gap_family``: two disjoint sets whose difference ``A - B`` has a
  closed-form minimal-norm element ``v``.  AAMR's governing sequence then
  diverges and its step ``x_k - x_{k+1}`` tends to ``2 alpha beta v``.
"""

from dataclasses import dataclass

import numpy as np

from aamr import (AffineSubspace, Ball, Box, Halfspace, Hyperplane,
                  LinearSubspace, geometry, project_intersection_oracle)

__all__ = ["Family", "box_family", "affine_family", "kink_family",
           "gap_family"]


@dataclass(frozen=True)
class Family:
    """A problem with a known answer.

    ``answer`` is the projection of ``q`` onto the intersection, or, when
    ``gap`` is true, the minimal-norm element of ``cl(A - B)`` for a disjoint
    pair.  ``scale`` is the size of the instance, for relative tolerances.
    """

    sets: tuple
    q: np.ndarray
    answer: np.ndarray
    gap: bool = False

    @property
    def scale(self) -> float:
        return 1.0 + float(np.linalg.norm(self.q)) + float(np.linalg.norm(self.answer))


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _kink_normals(rng, n, count, on_hyperplane):
    """Outward unit normals at the kink with a strictly feasible direction.

    ``d = -sum(u_i)`` (taken inside the hyperplane when the first set is one)
    make an angle of at least acos(-0.3) with every other normal: then the
    sets share interior points along ``d`` and the constraint qualification
    holds with margin.  No two normals may be closer than acos(0.9) either.
    Without these margins, nearly opposed normals leave a sliver (or a single
    point), nearly equal ones leave two balls touching from the same side,
    and the solvers crawl.
    """
    while True:
        normals = [_unit(rng, n) for _ in range(count)]
        if any(normals[i] @ normals[j] > 0.9 for i in range(count) for j in range(i)):
            continue
        rest = normals[1:] if on_hyperplane else normals
        if on_hyperplane:
            u0 = normals[0]
            rest = [u - (u @ u0) * u0 for u in rest]
        d = -np.sum(rest, axis=0)
        size = np.linalg.norm(d)
        if size > 0 and all((d / size) @ u <= -0.3 for u in rest):
            return normals


def box_family(rng, n, count=2) -> Family:
    """``count`` boxes whose intersection is ``[lo, hi]``.

    In every coordinate one box owns each bound of the intersection and the
    other boxes reach at least 0.3 beyond it, and ``q`` sits at least 0.3
    inside or outside every bound.  Without these margins a nearly active
    bound makes the reflection methods crawl, and a few solves would set the
    latency tail.
    """
    lo = rng.uniform(-3.0, 1.0, n)
    hi = lo + rng.uniform(1.0, 2.0, n)
    lowers = [lo - rng.uniform(0.3, 1.0, n) for _ in range(count)]
    uppers = [hi + rng.uniform(0.3, 1.0, n) for _ in range(count)]
    cols = np.arange(n)
    lowers_owner = rng.integers(count, size=n)
    uppers_owner = rng.integers(count, size=n)
    for i in range(count):
        lowers[i][cols[lowers_owner == i]] = lo[lowers_owner == i]
        uppers[i][cols[uppers_owner == i]] = hi[uppers_owner == i]
    boxes = [Box(a, b) for a, b in zip(lowers, uppers)]
    side = rng.integers(3, size=n)              # 0 below, 1 inside, 2 above
    q = np.where(side == 0, lo - rng.uniform(0.3, 2.0, n),
                 np.where(side == 2, hi + rng.uniform(0.3, 2.0, n),
                          rng.uniform(lo + 0.3, hi - 0.3)))
    return Family(tuple(boxes), q,
                  project_intersection_oracle(boxes, q))


def affine_family(rng, n, key) -> Family:
    """Affine subspace paired with another affine subspace or a hyperplane,
    both through a common point.  The subspace pair comes from
    ``random_subspace_pair`` with a Friedrichs angle in [0.4, 1.2], which
    keeps the linear rates away from 1."""
    point = rng.standard_normal(n)
    if rng.random() < 0.5:
        pair = geometry.random_subspace_pair(n, key,
                                             target_angle_interval=(0.4, 1.2))
        sets = (AffineSubspace(point, LinearSubspace(pair.basis_u)),
                AffineSubspace(point, LinearSubspace(pair.basis_v)))
    else:
        direction = LinearSubspace(rng.standard_normal((n, max(1, n // 2))))
        normal = _unit(rng, n)
        sets = (AffineSubspace(point, direction),
                Hyperplane(normal, float(normal @ point)))
    q = point + 3.0 * rng.standard_normal(n)
    return Family(sets, q, project_intersection_oracle(sets, q))


def _kink_set(rng, kind, p_star, normal):
    if kind == "ball":
        radius = rng.uniform(1.0, 3.0)
        return Ball(p_star - radius * normal, radius)
    if kind == "halfspace":
        return Halfspace(normal, float(normal @ p_star))
    return Hyperplane(normal, float(normal @ p_star))


def kink_family(rng, n, count=2) -> Family:
    """Balls, halfspaces and at most one hyperplane meeting at ``p*``.

    Each boundary passes through ``p*`` with outward normal ``u_i`` there;
    ``q = p* + sum lambda_i u_i`` with ``lambda_i >= 0.5`` (either sign for
    the hyperplane), so ``P(q) = p*``.
    """
    p_star = rng.uniform(-2.0, 2.0, n)
    kinds = list(rng.choice(["ball", "halfspace"], count))
    if rng.random() < 0.3:
        kinds[0] = "hyperplane"
    normals = _kink_normals(rng, n, count, kinds[0] == "hyperplane")
    sets, q = [], p_star.copy()
    for kind, normal in zip(kinds, normals):
        sets.append(_kink_set(rng, kind, p_star, normal))
        weight = rng.uniform(0.5, 2.0)
        if kind == "hyperplane" and rng.random() < 0.5:
            weight = -weight
        q = q + weight * normal
    return Family(tuple(sets), q, p_star)


def gap_family(rng, n) -> Family:
    """Disjoint pair with gap length in [0.5, 2]: two balls, two opposed
    halfspaces, a ball and a halfspace, or two boxes.  ``answer`` is the
    minimal-norm element of ``A - B``."""
    kind = ("balls", "halfspaces", "ball_halfspace", "boxes")[rng.integers(4)]
    gap = rng.uniform(0.5, 2.0)
    base = rng.uniform(-2.0, 2.0, n)
    u = _unit(rng, n)
    if kind == "balls":
        r_a, r_b = rng.uniform(0.5, 2.0, 2)
        a_set = Ball(base, r_a)
        b_set = Ball(base - (r_a + r_b + gap) * u, r_b)
        answer = gap * u
    elif kind == "halfspaces":
        level = float(u @ base)
        a_set = Halfspace(-u, -level)                 # <u, x> >= level
        b_set = Halfspace(u, level - gap)             # <u, x> <= level - gap
        answer = gap * u
    elif kind == "ball_halfspace":
        r_a = rng.uniform(0.5, 2.0)
        a_set = Ball(base, r_a)
        b_set = Halfspace(u, float(u @ base) - r_a - gap)
        answer = gap * u
    else:
        half_a = rng.uniform(0.5, 1.5, n)
        half_b = rng.uniform(0.5, 1.5, n)
        axis = int(rng.integers(n))
        offset = np.zeros(n)
        offset[axis] = half_a[axis] + half_b[axis] + gap
        a_set = Box(base - half_a, base + half_a)
        b_set = Box(base - offset - half_b, base - offset + half_b)
        answer = np.zeros(n)
        answer[axis] = gap
    q = base + rng.standard_normal(n)
    return Family((a_set, b_set), q, answer, gap=True)

