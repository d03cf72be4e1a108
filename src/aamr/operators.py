"""Modified reflectors, the averaged operators built from them, stopping
policies, and a generic fixed-point iteration engine.

Operators are immutable; each call to :func:`iterate` owns its own mutable
state, so independent solves can run concurrently.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sets import ConvexSet, as_vector


def _norm(v) -> float:
    return math.sqrt(float(v.dot(v)))

__all__ = [
    "Status",
    "SolveResult",
    "StoppingPolicy",
    "NumericalFailure",
    "modified_reflect",
    "AamrOperator",
    "DrOperator",
    "aamr_update",
    "fixed_point_residual",
    "iterate",
]

# Window length for the monotone-growth part of the divergence test.
_MONO_WINDOW = 101


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

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


@dataclass(frozen=True)
class StoppingPolicy:
    """When to stop iterating.

    Modes: ``"true_error"`` stops when the monitored point is within ``eps``
    of ``target`` (a ConvexSet, a point, or a callable returning a distance);
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
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.divergence_threshold > 0:
            raise ValueError("divergence_threshold must be positive")
        if self.mode == self.TRUE_ERROR and self.target is None:
            raise ValueError("true_error mode needs a target")

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
        if isinstance(self.target, ConvexSet):
            return self.target.distance(monitored)
        if callable(self.target):
            return float(self.target(monitored))
        return _norm(monitored - as_vector(self.target, monitored.size))


def modified_reflect(set_: ConvexSet, beta: float, x) -> np.ndarray:
    """2*beta*P(x) - x.  beta = 1 gives the classical reflector."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    x = as_vector(x, set_.dim)
    return 2.0 * beta * set_.project(x) - x


def aamr_update(x: np.ndarray, pa: np.ndarray, b_set: ConvexSet, alpha: float,
                beta: float) -> np.ndarray:
    """(1-alpha)x + alpha(2 beta P_B - I)(2 beta pa - x), given ``pa = P_A(x)``:
    the update of both operators (DR is beta = 1) and of the solver steps."""
    y = 2.0 * beta * pa - x
    z = 2.0 * beta * b_set.project(y) - y
    return (1.0 - alpha) * x + alpha * z


class AamrOperator:
    """(1-alpha)I + alpha(2 beta P_B - I)(2 beta P_A - I).

    Requires alpha in (0, 1] and beta in (0, 1).  beta = 1 is the plain
    double-reflection operator with different dynamics; use
    :class:`DrOperator` for that case.
    """

    def __init__(self, a_set: ConvexSet, b_set: ConvexSet, alpha: float, beta: float):
        if a_set.dim != b_set.dim:
            raise ValueError("sets have different ambient dimensions")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1); use DrOperator for beta = 1")
        self.a_set = a_set
        self.b_set = b_set
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dim = a_set.dim

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return aamr_update(x, self.a_set.project(x), self.b_set, self.alpha, self.beta)

    def displacement(self, x) -> np.ndarray:
        """x - T(x) via the two-projection shortcut."""
        x = as_vector(x, self.dim)
        pa = self.a_set.project(x)
        pb = self.b_set.project(2.0 * self.beta * pa - x)
        return 2.0 * self.alpha * self.beta * (pa - pb)


class DrOperator:
    """(1-alpha)I + alpha(2P_B - I)(2P_A - I), with alpha in (0, 1)."""

    beta = 1.0

    def __init__(self, a_set: ConvexSet, b_set: ConvexSet, alpha: float):
        if a_set.dim != b_set.dim:
            raise ValueError("sets have different ambient dimensions")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        self.a_set = a_set
        self.b_set = b_set
        self.alpha = float(alpha)
        self.dim = a_set.dim

    def __call__(self, x) -> np.ndarray:
        return self.step(np.asarray(x, dtype=float), 0)[0]

    def step(self, x: np.ndarray, k: int):
        """Engine step: ``(T(x), P_A(x))``, the shadow being the projection
        the update already needs."""
        pa = self.a_set.project(x)
        return aamr_update(x, pa, self.b_set, self.alpha, 1.0), pa


def fixed_point_residual(op, x) -> float:
    """``||P_B(2 beta P_A(x) - x) - P_A(x)||``; zero exactly on fixed points.

    Works for both :class:`AamrOperator` and :class:`DrOperator`.  Scaled by
    2*alpha*beta this equals the step length ``||x - T(x)||``.
    """
    x = as_vector(x, op.dim)
    pa = op.a_set.project(x)
    pb = op.b_set.project(2.0 * op.beta * pa - x)
    return _norm(pb - pa)


def iterate(step, x0, policy: StoppingPolicy) -> SolveResult:
    """Run ``step`` from ``x0`` under a stopping policy.

    ``step(x, k)`` returns ``(x_next, shadow)``: iterate k+1 and the monitored
    point of iterate k, which the step already computed.  Returns CONVERGED at
    the first index whose error drops below ``policy.eps``, DIVERGED when the
    iterate norm exceeds the policy threshold after monotone growth,
    BUDGET_EXHAUSTED at the budget, and NUMERICAL_FAILURE (with the last
    shadow computed and a NaN error) at the index whose step raises
    :class:`NumericalFailure` or at the first non-finite iterate.
    """
    x = np.array(as_vector(x0), dtype=float)
    prev = x  # the previous iterate; the drift prev - x is formed only when used
    residual = policy.mode == StoppingPolicy.RESIDUAL
    trace = [] if policy.record_trace else None
    shadow = x
    norm_x = _norm(x)
    mono_len = 1  # length of the current nondecreasing norm run
    k = 0
    while True:
        try:
            x_next, shadow = step(x, k)
        except NumericalFailure:
            return SolveResult(Status.NUMERICAL_FAILURE, k, shadow, x, prev - x,
                               math.nan, trace)
        err = _norm(x_next - x) if residual else policy.error_of(shadow)
        if trace is not None:
            trace.append((k, err, _norm(prev - x) if k else math.nan))
        if err < policy.eps:
            return SolveResult(Status.CONVERGED, k, shadow, x, prev - x, err, trace)
        if (norm_x > policy.divergence_threshold and k >= 1
                and mono_len >= min(k + 1, _MONO_WINDOW)):
            return SolveResult(Status.DIVERGED, k, shadow, x, prev - x, err, trace)
        if k >= policy.max_iter:
            return SolveResult(Status.BUDGET_EXHAUSTED, k, shadow, x, prev - x, err, trace)
        norm_next = _norm(x_next)
        k += 1
        prev, x = x, x_next
        if not math.isfinite(norm_next):
            return SolveResult(Status.NUMERICAL_FAILURE, k, shadow, x, prev - x,
                               math.nan, trace)
        mono_len = mono_len + 1 if norm_next >= norm_x else 1
        norm_x = norm_next
