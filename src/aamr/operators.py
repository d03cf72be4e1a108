"""Modified reflectors, the averaged operators built from them, stopping
policies, and a generic fixed-point iteration engine.

Operators are immutable; each call to :func:`iterate` owns its own mutable
state, so independent solves can run concurrently.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sets import Ball, ConvexSet, _check_real, _is_integral, as_vector


def _norm(v) -> float:
    return math.sqrt(float(v.dot(v)))


def _same(value):
    return value


__all__ = [
    "Status",
    "SolveResult",
    "StoppingPolicy",
    "NumericalFailure",
    "modified_reflect",
    "AamrOperator",
    "DrOperator",
    "aamr_update",
    "iterate",
]

# Window length for the monotone-growth part of the divergence test.
_MONO_WINDOW = 101
# Fewest nondecreasing norms, the current one included, that certify growth.
# Early in a run the window min(k + 1, _MONO_WINDOW) is short: at k = 1 one
# jump past the threshold would read as divergence even when the norms decay
# right after it.  Ten norms are nine nondecreasing steps in a row.  The floor
# acts only at k < 9, so a real divergence that crosses the threshold that
# early is reported at most eight iterations later.
_MONO_FLOOR = 10


class Status(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    NUMERICAL_FAILURE = "numerical_failure"


class NumericalFailure(RuntimeError):
    """Raised by a step function when its geometry becomes inconsistent."""


@dataclass
class SolveResult:
    """Outcome of a fixed-point solve.

    ``shadow`` is the last monitored point, ``iterate`` the last raw iterate,
    ``drift`` the last displacement ``x_k - x_{k+1}``, and ``trace`` (when
    recorded) a list of ``(k, error, step_norm)`` tuples where ``step_norm``
    is the norm of the step that produced iterate k (NaN at k = 0).
    """

    status: Status
    iterations: int
    shadow: np.ndarray
    iterate: np.ndarray
    drift: np.ndarray
    final_error: float
    trace: list | None = None


@dataclass(frozen=True)
class StoppingPolicy:
    """When to stop iterating.

    Modes: ``"true_error"`` stops when the monitored point is within ``eps``
    of ``target``, a ConvexSet (a point is stored as the radius-0 ``Ball``,
    the singleton it describes);
    ``"residual"`` stops when the step norm drops below ``eps``;
    ``"budget_only"`` runs until the iteration budget.  Independently of the
    mode, the run is declared diverged once the iterate norm exceeds
    ``divergence_threshold`` *and* has grown monotonically over the trailing
    window, which guards against large but bounded transients.
    """

    mode: str
    eps: float = 1e-3
    max_iter: int = 100_000
    divergence_threshold: float = 1e6
    target: object = None
    record_trace: bool = False

    TRUE_ERROR = "true_error"
    RESIDUAL = "residual"
    BUDGET_ONLY = "budget_only"

    def __post_init__(self):
        if self.mode not in (self.TRUE_ERROR, self.RESIDUAL, self.BUDGET_ONLY):
            raise ValueError(f"unknown stopping mode {self.mode!r}")
        _check_real("eps", self.eps)
        _check_real("divergence_threshold", self.divergence_threshold)
        if not _is_integral(self.max_iter):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.divergence_threshold > 0:
            raise ValueError("divergence_threshold must be positive")
        if self.mode == self.TRUE_ERROR and self.target is None:
            raise ValueError("true_error mode needs a target")
        if not (self.target is None or isinstance(self.target, ConvexSet)):
            object.__setattr__(self, "target", Ball(self.target, 0.0))

    @classmethod
    def true_error(cls, target, eps: float, **kwargs) -> "StoppingPolicy":
        return cls(mode=cls.TRUE_ERROR, eps=eps, target=target, **kwargs)

    @classmethod
    def residual(cls, eps: float, **kwargs) -> "StoppingPolicy":
        return cls(mode=cls.RESIDUAL, eps=eps, **kwargs)

    @classmethod
    def budget_only(cls, max_iter: int, **kwargs) -> "StoppingPolicy":
        return cls(mode=cls.BUDGET_ONLY, max_iter=max_iter, **kwargs)

    def error_of(self, monitored: np.ndarray) -> float:
        """True-error value of a monitored point (inf outside true_error mode)."""
        if self.mode != self.TRUE_ERROR:
            return math.inf
        return self.target.distance(monitored)


def modified_reflect(set_: ConvexSet, beta: float, x) -> np.ndarray:
    """2*beta*P(x) - x.  beta = 1 gives the classical reflector."""
    _check_real("beta", beta)
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    x = as_vector(x, set_.dim)
    return 2.0 * beta * set_.project(x) - x


def aamr_update(x: np.ndarray, pa: np.ndarray, b_set: ConvexSet, alpha: float,
                beta: float) -> np.ndarray:
    """(1-alpha)x + alpha(2 beta P_B - I)(2 beta pa - x), given ``pa = P_A(x)``:
    the update of the operator (DR is beta = 1) and of the solver steps.
    Only fresh temporaries are updated in place; ``x`` and ``pa`` are read."""
    y = 2.0 * beta * pa
    y -= x
    z = 2.0 * beta * b_set.project(y)
    z -= y
    z *= alpha
    out = (1.0 - alpha) * x
    out += z
    return out


class AamrOperator:
    """(1-alpha)I + alpha(2 beta P_B - I)(2 beta P_A - I).

    Requires beta in (0, 1] and alpha in (0, 1], with alpha < 1 at beta = 1.
    beta = 1 is the Douglas-Rachford operator (see :class:`DrOperator`),
    whose alpha = 1 member is the bare double reflection.
    """

    def __init__(self, a_set: ConvexSet, b_set: ConvexSet, alpha: float, beta: float):
        if a_set.dim != b_set.dim:
            raise ValueError("sets have different ambient dimensions")
        _check_real("alpha", alpha)
        _check_real("beta", beta)
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not (0.0 < alpha < 1.0 or (alpha == 1.0 and beta < 1.0)):
            raise ValueError("alpha must lie in (0, 1], and in (0, 1) at beta = 1")
        self.a_set = a_set
        self.b_set = b_set
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dim = a_set.dim

    def __call__(self, x) -> np.ndarray:
        return self.step(np.asarray(x, dtype=float), 0)[0]

    def step(self, x: np.ndarray, k: int):
        """Engine step: ``(T(x), P_A(x))``, the shadow being the projection
        the update already needs."""
        pa = self.a_set.project(x)
        return aamr_update(x, pa, self.b_set, self.alpha, self.beta), pa

    def displacement(self, x) -> np.ndarray:
        """x - T(x) via the two-projection shortcut: 2 alpha beta times the
        fixed-point residual ``P_A(x) - P_B(2 beta P_A(x) - x)``, which
        vanishes exactly on fixed points."""
        x = as_vector(x, self.dim)
        pa = self.a_set.project(x)
        pb = self.b_set.project(2.0 * self.beta * pa - x)
        return 2.0 * self.alpha * self.beta * (pa - pb)


class DrOperator(AamrOperator):
    """(1-alpha)I + alpha(2P_B - I)(2P_A - I), with alpha in (0, 1): the
    beta = 1 member of :class:`AamrOperator`."""

    def __init__(self, a_set: ConvexSet, b_set: ConvexSet, alpha: float):
        super().__init__(a_set, b_set, alpha, 1.0)


def iterate(step, x0, policy: StoppingPolicy | None = None, shadow=None) -> SolveResult:
    """Run ``step`` from ``x0`` under a stopping policy, by default the
    residual stop at 1e-8.

    ``step(x, k)`` returns ``(x_next, s)``: iterate k+1 and a value the step
    already computed, which ``shadow`` maps to the monitored point of iterate
    k (by default ``s`` is that point).  Only the true-error check reads the
    monitored point at every iteration, so ``shadow`` runs once per iteration
    in that mode and otherwise once, at the exit.  Returns CONVERGED at the
    first index whose error drops below ``policy.eps``, DIVERGED when the
    iterate norm exceeds the policy threshold after monotone growth,
    BUDGET_EXHAUSTED at the budget, and NUMERICAL_FAILURE (with the last
    shadow computed and a NaN error) at the index whose step raises
    :class:`NumericalFailure` or at the first non-finite iterate.
    """
    if policy is None:
        policy = StoppingPolicy.residual(eps=1e-8)
    if shadow is None:
        shadow = _same
    eps, max_iter, threshold = policy.eps, policy.max_iter, policy.divergence_threshold
    residual = policy.mode == StoppingPolicy.RESIDUAL
    error_of = policy.error_of if policy.mode == StoppingPolicy.TRUE_ERROR else None
    x = np.array(as_vector(x0), dtype=float)
    prev = x  # the previous iterate; the drift prev - x is formed only when used
    trace = [] if policy.record_trace else None
    seen = None  # the step's second value, None until a step returns
    point = x  # the monitored point, x0 itself until a step returns one
    norm_x = math.sqrt(x.dot(x))
    mono_len = 1  # length of the current nondecreasing norm run
    k = 0
    while True:
        try:
            x_next, seen = step(x, k)
        except NumericalFailure:
            status, err = Status.NUMERICAL_FAILURE, math.nan
            break
        if error_of is not None:
            point = shadow(seen)
            err = error_of(point)
        elif residual:
            d = x_next - x
            err = math.sqrt(d.dot(d))
        else:
            err = math.inf
        if trace is not None:
            trace.append((k, err, _norm(prev - x) if k else math.nan))
        if err < eps:
            status = Status.CONVERGED
            break
        if (norm_x > threshold
                and mono_len >= max(min(k + 1, _MONO_WINDOW), _MONO_FLOOR)):
            status = Status.DIVERGED
            break
        if k >= max_iter:
            status = Status.BUDGET_EXHAUSTED
            break
        norm_next = math.sqrt(x_next.dot(x_next))
        k += 1
        prev, x = x, x_next
        if not math.isfinite(norm_next):
            status, err = Status.NUMERICAL_FAILURE, math.nan
            break
        mono_len = mono_len + 1 if norm_next >= norm_x else 1
        norm_x = norm_next
    if error_of is None and seen is not None:
        point = shadow(seen)
    return SolveResult(status, k, point, x, prev - x, err, trace)
