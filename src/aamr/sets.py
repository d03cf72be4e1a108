"""Convex sets with exact, closed-form Euclidean projectors.

Every set description is immutable after construction and ``project`` is a
pure function, so instances are safe to share between threads.  Degenerate
descriptions (zero normals, non-finite offsets, negative radii, crossed box
bounds) are rejected at construction time, never inside ``project``.
"""

import itertools
import json
import math
import numbers
import operator
from pathlib import Path

import numpy as np

from . import geometry

__all__ = [
    "ConvexSet",
    "LinearSubspace",
    "AffineSubspace",
    "Ball",
    "Halfspace",
    "Hyperplane",
    "Box",
    "Translate",
    "ProductSet",
    "Diagonal",
    "full_space",
    "zero_subspace",
    "as_vector",
    "membership_tol",
    "project",
    "project_intersection_oracle",
    "load_problem",
    "dump_problem",
    "DimensionMismatchError",
    "NoOracleError",
    "ProblemFormatError",
]


class DimensionMismatchError(ValueError):
    """A vector's length does not match a set's ambient dimension."""


class NoOracleError(ValueError):
    """No closed-form intersection projector is known for a set family."""


class ProblemFormatError(ValueError):
    """A problem description file is malformed."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected a vector of dimension {dim}, got {v.size}")
    return v


# The two number rules of every input check; a bool is an Integral, so a
# Real too, and is neither here.  numpy floats and integers pass.
def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_real(name: str, value) -> None:
    # before any range comparison, which would raise TypeError on a non-number
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")


def _entries_real(value) -> bool:
    """The list rule of vector inputs: numpy converts an array as it is, and
    every entry of anything else must pass ``_is_real`` (numpy alone would
    read "1" and True as 1.0)."""
    return isinstance(value, np.ndarray) or all(map(_is_real, value))


def _vector_arg(name: str, value, dim: int | None) -> np.ndarray:
    """``as_vector(value, dim)`` for a constructor's vector argument ``name``,
    under the list rule."""
    v = as_vector(value, dim)
    if not _entries_real(value):
        raise ValueError(f"{name} entries must be real numbers")
    return v


def membership_tol(x) -> float:
    """Default scale-aware tolerance for membership checks."""
    return 1e-9 * (1.0 + float(np.linalg.norm(x)))


_FLOAT = np.dtype(float)


def _conform(x, dim: int) -> np.ndarray:
    """Cheap shape-only coercion for hot projection paths.

    Boundary inputs (solver arguments, file data) go through ``as_vector``,
    which also rejects non-finite entries; projections preserve finiteness,
    so internal re-validation would only cost time.  A float64 vector of the
    right length, the iterates' own type, is returned as it is, before
    ``np.asarray``'s conversion check (which would return it too).
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == 1 and len(x) == dim:
        return x
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(
            f"expected a vector of dimension {dim}, got shape {v.shape}")
    return v


class ConvexSet:
    """A nonempty closed convex subset of R^n with an exact projector.

    Subclasses set ``dim`` (the ambient dimension) and implement ``project``,
    which must return the unique nearest point of the set.
    """

    dim: int

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        x = _conform(x, self.dim)
        gap = x - self.project(x)
        return math.sqrt(float(gap.dot(gap)))

    def contains(self, x, tol: float | None = None) -> bool:
        x = as_vector(x, self.dim)
        if tol is None:
            tol = membership_tol(x)
        return self.distance(x) <= tol


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class LinearSubspace(ConvexSet):
    """Column span of a basis matrix; the basis is orthonormalized on entry.

    ``basis`` has shape (n, d); d may be 0, giving the trivial subspace {0}.
    The projector is applied as ``Q @ (Q.T @ x)``, through ``ndarray.dot``:
    it makes the same BLAS calls as ``@`` at about half the call overhead.
    """

    def __init__(self, basis):
        M = np.asarray(basis, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"basis must be a 2-D matrix, got shape {M.shape}")
        if M.shape[0] < 1:
            raise ValueError("ambient dimension must be positive")
        if not (isinstance(basis, np.ndarray) or all(map(_entries_real, basis))):
            raise ValueError("basis entries must be real numbers")
        self.basis = _freeze(geometry.orthonormal_columns(M))
        self._basis_t = self.basis.T
        self.dim = self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        return self.basis.dot(self._basis_t.dot(x))


def full_space(n: int) -> LinearSubspace:
    """R^n itself (projector is the identity)."""
    return LinearSubspace(np.eye(n))


def zero_subspace(n: int) -> LinearSubspace:
    """The trivial subspace {0} of R^n."""
    return LinearSubspace(np.zeros((n, 0)))


class AffineSubspace(ConvexSet):
    """offset + span(direction): projects via the direction subspace."""

    def __init__(self, offset, direction):
        if not isinstance(direction, LinearSubspace):
            direction = LinearSubspace(direction)
        self.direction = direction
        self.offset = _freeze(_vector_arg("offset", offset, direction.dim))
        self.dim = direction.dim

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        direction = self.direction  # its basis, without a second check of x
        return self.offset + direction.basis.dot(direction._basis_t.dot(x - self.offset))


class Ball(ConvexSet):
    """Closed Euclidean ball.  Interior points (center included) project to
    themselves; the degenerate radius 0 gives the singleton {center}."""

    def __init__(self, center, radius):
        self.center = _freeze(_vector_arg("center", center, None))
        _check_real("radius", radius)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"radius must be a nonnegative number, got {radius}")
        self.dim = self.center.size

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        d = x - self.center
        dist = math.sqrt(d.dot(d))
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d


class _NormalSet(ConvexSet):
    """A set described by a nonzero ``normal`` and a scalar ``offset``.
    Neither subclass derives from the other, so ``isinstance`` keeps
    halfspaces out of the affine families."""

    def __init__(self, normal, offset):
        name = type(self).__name__.lower()
        self.normal = _freeze(_vector_arg("normal", normal, None))
        _check_real("offset", offset)
        self.offset = float(offset)
        self._sq = float(self.normal @ self.normal)
        if self._sq == 0.0:
            raise ValueError(f"{name} normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError(f"{name} offset must be finite, got {self.offset}")
        self.dim = self.normal.size


class Halfspace(_NormalSet):
    """{x : <normal, x> <= offset}."""

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        gap = float(self.normal.dot(x)) - self.offset
        if gap <= 0.0:
            return x.copy()
        return x - (gap / self._sq) * self.normal


class Hyperplane(_NormalSet):
    """{x : <normal, x> = offset}."""

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        gap = float(self.normal.dot(x)) - self.offset
        return x - (gap / self._sq) * self.normal


class Box(ConvexSet):
    """{x : lower <= x <= upper componentwise}; projects by clamping."""

    def __init__(self, lower, upper):
        lo = _vector_arg("lower", lower, None)
        hi = _vector_arg("upper", upper, lo.size)
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        self.lower = _freeze(lo)
        self.upper = _freeze(hi)
        self.dim = lo.size

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        return x.clip(self.lower, self.upper)


class Translate(ConvexSet):
    """The shifted set ``inner - shift``; P(x) = P_inner(x + shift) - shift."""

    def __init__(self, inner: ConvexSet, shift):
        self.inner = inner
        self.shift = _freeze(_vector_arg("shift", shift, inner.dim))
        self.dim = inner.dim

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        return self.inner.project(x + self.shift) - self.shift


class ProductSet(ConvexSet):
    """Cartesian product of factor sets, flattened into one long vector.

    The ambient dimension is the sum of the factor dimensions and the
    projection is the concatenation of the factor projections.  A product of
    boxes is itself a box, on the concatenated bounds, and projects as one.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product of zero sets is undefined")
        self.factors = factors
        ends = list(itertools.accumulate(int(f.dim) for f in factors))
        self._blocks = tuple(zip(factors, [0] + ends[:-1], ends))
        self.dim = ends[-1]
        self._box = None
        if all(type(f) is Box for f in factors):
            # merged from bounds the factors already checked, without a second check
            box = self._box = Box.__new__(Box)
            box.lower = _freeze(np.concatenate([f.lower for f in factors]))
            box.upper = _freeze(np.concatenate([f.upper for f in factors]))
            box.dim = self.dim

    def project(self, x) -> np.ndarray:
        if self._box is not None:
            return self._box.project(x)
        x = _conform(x, self.dim)
        return np.concatenate([f.project(x[a:b]) for f, a, b in self._blocks])


class Diagonal(ConvexSet):
    """{(x, ..., x)} in (R^n)^r, flattened; projects to the tiled block mean."""

    def __init__(self, copies: int, base_dim: int):
        for name, count in (("copies", copies), ("base_dim", base_dim)):
            if not _is_integral(count):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if copies < 1 or base_dim < 1:
            raise ValueError("copies and base_dim must be positive")
        self.copies = int(copies)
        self.base_dim = int(base_dim)
        self.dim = self.copies * self.base_dim

    def mean(self, x) -> np.ndarray:
        """The mean of the ``copies`` blocks of ``x``: the base-space value of
        the projection."""
        return np.add.reduce(x.reshape(self.copies, self.base_dim), axis=0) / self.copies

    def project(self, x) -> np.ndarray:
        x = _conform(x, self.dim)
        return np.concatenate([self.mean(x)] * self.copies)


def _common_dim(sets) -> int:
    """Ambient dimension of a nonempty list of sets that all share it."""
    if not sets:
        raise ValueError("need at least one set")
    n = sets[0].dim
    if any(s.dim != n for s in sets):
        raise DimensionMismatchError("sets have mixed ambient dimensions")
    return n


def project(set_: ConvexSet, x) -> np.ndarray:
    """Nearest point of ``set_`` to ``x``."""
    return set_.project(as_vector(x, set_.dim))


_AFFINE_LIKE = (LinearSubspace, AffineSubspace, Hyperplane)


def _affine_parts(set_):
    """(offset point, orthonormal direction basis) of a linear or affine
    subspace."""
    if isinstance(set_, LinearSubspace):
        return np.zeros(set_.dim), set_.basis
    return np.asarray(set_.offset), set_.direction.basis


def _affine_oracle(sets, x) -> np.ndarray:
    """Projection of ``x`` onto an intersection of linear and affine
    subspaces and hyperplanes, written as ``y + B a`` with ``(y, B)`` the
    offset and basis of the subspace with the fewest directions (the first
    on a tie).  Each other subspace ``(z, Q)`` adds the rows ``(I - Q Q.T) B``
    with right side ``(I - Q Q.T)(z - y)``, each hyperplane its unit normal
    times ``B``: for a unit ``a`` the rows' norm is sqrt(sum_i d(B a, U_i)^2),
    the sine route of Knyazev and Argentati (2002)."""
    planes = [s for s in sets if isinstance(s, Hyperplane)]
    flats = [_affine_parts(s) for s in sets if not isinstance(s, Hyperplane)]
    if flats:
        y, B = flats.pop(min(range(len(flats)), key=lambda i: flats[i][1].shape[1]))
    else:
        y, B = np.zeros(x.size), np.eye(x.size)
    rows, rhs, offsets = [], [], [float(np.linalg.norm(y))]
    for z, Q in flats:
        gap = z - y
        rows.append(B - Q @ (Q.T @ B))
        rhs.append(gap - Q @ (Q.T @ gap))
        offsets.append(float(np.linalg.norm(z)))
    for plane in planes:
        size = math.sqrt(plane._sq)
        rows.append((plane.normal / size) @ B)
        rhs.append((plane.offset - float(plane.normal @ y)) / size)
        offsets.append(abs(plane.offset) / size)
    M = np.vstack(rows)
    r = np.hstack(rhs)
    a, *_ = np.linalg.lstsq(M, r, rcond=None)
    if np.linalg.norm(M @ a - r) > 1e-8 * (1.0 + max(offsets)):
        raise ValueError("affine family has empty intersection")
    if M.shape[0] < M.shape[1]:  # a thin SVD has only min(rows, cols) right vectors
        M = np.vstack([M, np.zeros((M.shape[1] - M.shape[0], M.shape[1]))])
    meet = B @ geometry._null_directions(M)
    point = y + B @ a
    return point + meet @ (meet.T @ (x - point))


def project_intersection_oracle(sets, x) -> np.ndarray:
    """Ground-truth projection onto an intersection, by a closed-form route.

    Supported families: a single set of any kind, boxes (the intersection is
    again a box), and linear/affine subspaces and hyperplanes.  An affine
    family is solved in the coordinates of its subspace or affine set with
    the fewest directions, d of them (d = n when every set is a hyperplane),
    each hyperplane by its normal: one ``lstsq`` and one null-space SVD of a
    constraint matrix with d columns and n rows per other subspace plus one
    per hyperplane give the common point and the meet, in O(max(rows, d) d^2)
    arithmetic.  Anything else raises ``NoOracleError``.  The intersection
    must be nonempty; empty box or affine families raise ``ValueError``.
    """
    sets = list(sets)
    dim = _common_dim(sets)
    x = as_vector(x, dim)

    if len(sets) == 1:
        return sets[0].project(x)

    if all(isinstance(s, Box) for s in sets):
        lo = np.maximum.reduce([np.asarray(s.lower) for s in sets])
        hi = np.minimum.reduce([np.asarray(s.upper) for s in sets])
        gap = lo - hi
        if np.any(gap > 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))):
            raise ValueError("box intersection is empty")
        crossed = gap > 0
        if np.any(crossed):  # collapse tolerance-level slivers to a point
            mid = 0.5 * (lo + hi)
            lo = np.where(crossed, mid, lo)
            hi = np.where(crossed, mid, hi)
        return np.clip(x, lo, hi)

    if all(isinstance(s, _AFFINE_LIKE) for s in sets):
        return _affine_oracle(sets, x)

    raise NoOracleError(
        "no closed-form intersection projector for this set family; "
        "supported: a single set, all boxes, or all linear/affine subspaces "
        "and hyperplanes")


# ---------------------------------------------------------------------------
# Problem description files


def _field(entry, key, index):
    if key not in entry:
        raise ProblemFormatError(f"sets[{index}].{key}: missing field")
    return entry[key]


def _num(entry, key, index, dim):
    value = _field(entry, key, index)
    if not _is_real(value):
        raise ProblemFormatError(f"sets[{index}].{key}: expected a number")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer too large for a float
        raise ProblemFormatError(f"sets[{index}].{key}: {exc}") from None


def _real_vector(value, name, dim):
    """The vector field ``name`` of length ``dim``, under the list rule."""
    try:
        v = as_vector(value, dim)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ProblemFormatError(f"{name}: {exc}") from None
    if not _entries_real(value):
        raise ProblemFormatError(f"{name}: expected a number")
    return v


def _vec(entry, key, index, dim):
    return _real_vector(_field(entry, key, index), f"sets[{index}].{key}", dim)


def _matrix_rows(entry, key, index, dim):
    value = _field(entry, key, index)
    if not isinstance(value, list):
        raise ProblemFormatError(f"sets[{index}].{key}: expected a list of rows")
    rows = [_real_vector(row, f"sets[{index}].{key}[{j}]", dim) for j, row in enumerate(value)]
    if rows:
        return np.stack(rows, axis=1)  # rows are basis vectors -> columns
    return np.zeros((dim, 0))


# problem-file type -> (class, fields (file key, reader, set attribute) in the
# class's argument order); load_problem and dump_problem read and write every
# set through it, so adding a type is one entry; dump_problem matches sets by
# isinstance in this order
_TYPES = {
    "ball": (Ball, (("center", _vec, "center"), ("radius", _num, "radius"))),
    "subspace": (LinearSubspace, (("basis", _matrix_rows, "basis"),)),
    "halfspace": (Halfspace, (("a", _vec, "normal"), ("b", _num, "offset"))),
    "hyperplane": (Hyperplane, (("a", _vec, "normal"), ("b", _num, "offset"))),
    "box": (Box, (("lower", _vec, "lower"), ("upper", _vec, "upper"))),
    "affine": (AffineSubspace, (("offset", _vec, "offset"),
                                ("basis", _matrix_rows, "direction.basis"))),
}


# the longest float vector numpy can describe: its size in bytes fits an intp
_MAX_DIM = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _parse_set(entry, index, dim):
    if not isinstance(entry, dict):
        raise ProblemFormatError(f"sets[{index}]: expected an object")
    kind = _field(entry, "type", index)
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ProblemFormatError(f"sets[{index}].type: unknown set type {kind!r}")
    cls, fields = _TYPES[kind]
    args = [read(entry, key, index, dim) for key, read, _ in fields]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ProblemFormatError(f"sets[{index}]: {exc}") from None


def load_problem(source) -> tuple[int, list[ConvexSet]]:
    """Read a problem description: ``{"dim": n, "sets": [...]}``.

    ``source`` may be a dict, a JSON string, or a path.  Set entries are
    objects like ``{"type": "ball", "center": [...], "radius": r}``,
    ``{"type": "subspace", "basis": [[...], ...]}`` (rows are basis vectors),
    ``{"type": "halfspace", "a": [...], "b": ...}``,
    ``{"type": "box", "lower": [...], "upper": [...]}``, plus ``hyperplane``
    and ``affine``.  Malformed entries raise ``ProblemFormatError`` naming the
    offending field.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
            text = Path(source).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("top level: expected an object")
    dim = data.get("dim")
    if not _is_integral(dim) or dim < 1:
        raise ProblemFormatError("dim: expected a positive integer")
    if dim > _MAX_DIM:
        raise ProblemFormatError(f"dim: too large for an array (at most {_MAX_DIM})")
    entries = data.get("sets")
    if not isinstance(entries, list) or not entries:
        raise ProblemFormatError("sets: expected a nonempty list")
    return dim, [_parse_set(entry, i, dim) for i, entry in enumerate(entries)]


def dump_problem(dim: int, sets) -> dict:
    """Inverse of ``load_problem`` for the concrete set variants."""
    out = []
    for s in sets:
        for kind, (cls, fields) in _TYPES.items():
            if isinstance(s, cls):
                break
        else:
            raise ValueError(f"cannot serialize set of type {type(s).__name__}")
        entry = {"type": kind}
        for key, _, attr in fields:
            # basis matrices go out as rows; vectors and scalars as they are
            entry[key] = np.asarray(operator.attrgetter(attr)(s)).T.tolist()
        out.append(entry)
    return {"dim": dim, "sets": out}
