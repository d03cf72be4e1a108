"""Best-approximation drivers.

Each solver finds (or monitors progress toward) the point of an intersection
of convex sets closest to a query point ``q``, reporting through the shared
:class:`~aamr.operators.SolveResult` /`StoppingPolicy` contract:

* ``aamr_solve`` / ``aamr_product_solve``: averaged alternating modified
  reflections on the q-shifted sets; the monitored "shadow" point is
  ``P_A(x_k + q)`` (resp. ``q`` + the block mean in the product space).
* ``map_solve`` / ``rap_solve``: (relaxed) alternating projections.
* ``dr_solve``: Douglas-Rachford on the unshifted sets, monitoring
  ``P_A(x_k)``; solves the best approximation problem for affine subspaces.
* ``haugazeau_solve``: anchored halfspace-intersection steps, strongly
  convergent to the projection of the starting point.
* ``hlwb_solve``: Halpern-type anchored projections with weights 1/(k+2).
* ``cm_solve``: Combettes' strongly convergent product-space recurrence.

All comparison methods start at ``x0 = q``; the AAMR and CM drivers accept an
arbitrary starting point.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .operators import (DrOperator, NumericalFailure, SolveResult, StoppingPolicy,
                        aamr_update, iterate)
from .sets import (ConvexSet, Diagonal, ProductSet, Translate, _common_dim, _is_real,
                   as_vector)

__all__ = [
    "aamr_solve",
    "aamr_product_solve",
    "map_solve",
    "rap_solve",
    "dr_solve",
    "haugazeau_solve",
    "hlwb_solve",
    "cm_solve",
    "cm_recurrence",
    "combettes_beta",
    "optimal_rap_mu",
    "recommended_beta",
    "MethodSpec",
    "solve_best_approximation",
]


def _lift(x0, q_lift, copies: int) -> np.ndarray:
    """Product-space start: ``q_lift``, the tiled ``q``, by default, a tiled
    base-space vector, or an ``(r, n)`` / flat ``r*n`` array."""
    if x0 is None:
        return q_lift
    n = q_lift.size // copies
    x0 = np.asarray(x0, dtype=float)
    x0 = np.tile(x0, copies) if x0.shape == (n,) else x0.ravel()
    return as_vector(x0, q_lift.size)


def _schedule(value, param, kind: str, name: str):
    """``k -> value_k`` for a constant or a ``k -> value`` schedule of
    ``kind``, each value checked against the method-table entry ``param``: a
    constant once, here, as the value of step 0; a schedule at every step."""
    def checked(k):
        raw = value(k) if callable(value) else value
        if not _is_real(raw):
            raise ValueError(f"{name} must be a real number for {kind}, "
                             f"got {type(raw).__name__} at step {k}")
        v = float(raw)
        if not param.admits(v):
            raise ValueError(f"{name} must {param.interval}, got {v!r} at step {k}")
        return v

    if callable(value):
        return checked
    v = checked(0)
    return lambda k: v


def optimal_rap_mu(theta: float) -> float:
    """Relaxation parameter 2/(1 + sin^2 theta) minimizing the RAP rate for
    a subspace pair with Friedrichs angle ``theta``."""
    return 2.0 / (1.0 + math.sin(theta) ** 2)


def recommended_beta(theta: float) -> float:
    """Angle-based reflection-strength rule fitted on subspace benchmarks:
    0.596*exp(-1.387*theta) + 0.393."""
    return 0.596 * math.exp(-1.387 * theta) + 0.393


def combettes_beta(gamma: float) -> float:
    """Reflection strength equivalent to the CM blending parameter:
    beta = 1/(1 + gamma)."""
    _METHODS["cm"].params["gamma"].check("cm", "gamma", gamma)
    return 1.0 / (1.0 + gamma)


def aamr_solve(a_set: ConvexSet, b_set: ConvexSet, q, x0=None, alpha=0.9,
               beta: float = 0.7, policy: StoppingPolicy | None = None) -> SolveResult:
    """Project ``q`` onto ``A ∩ B`` by averaged alternating modified reflections.

    Iterates the operator built on the shifted sets ``A - q`` and ``B - q``
    from ``x0`` (any point; defaults to ``q``).  The monitored shadow point is
    ``P_A(x_k + q)``, which converges strongly to the projection of ``q`` when
    the governing sequence converges; when it does not, the iterate norm grows
    without bound.  ``alpha`` may be a constant in (0, 1] or a callable
    ``k -> alpha_k`` schedule with ``inf alpha_k > 0``.
    """
    n = _common_dim([a_set, b_set])
    params = _METHODS["aamr"].params
    params["beta"].check("aamr", "beta", beta)
    q = as_vector(q, n)
    x0 = q if x0 is None else as_vector(x0, n)
    b_shifted = Translate(b_set, q)
    alpha_of = _schedule(alpha, params["alpha"], "aamr", "alpha")

    def step(x, k):
        pa = a_set.project(x + q)  # the shadow; P_{A-q}(x) = pa - q
        return aamr_update(x, pa - q, b_shifted, alpha_of(k), beta), pa

    return iterate(step, x0, policy)


def aamr_product_solve(sets, q, x0=None, alpha=0.9, beta: float = 0.7,
                       policy: StoppingPolicy | None = None) -> SolveResult:
    """Project ``q`` onto an intersection of ``r`` sets via the product space.

    Runs ``aamr_solve`` in (R^n)^r with A the diagonal and B the product of
    the sets, q-shifted once as a whole.  The monitored point ``q + mean of
    the r blocks`` is the diagonal identification of the product-space
    shadow, so it always lives in the base space.  ``x0`` may be a base-space vector (tiled), an
    ``(r, n)`` array, or a flat ``r*n`` vector; default is the lift of ``q``.
    """
    sets = list(sets)
    n = _common_dim(sets)
    params = _METHODS["aamr"].params
    params["beta"].check("aamr", "beta", beta)
    q = as_vector(q, n)
    diag = Diagonal(len(sets), n)
    q_lift = np.tile(q, len(sets))
    shifted = Translate(ProductSet(sets), q_lift)
    x0 = _lift(x0, q_lift, len(sets))
    alpha_of = _schedule(alpha, params["alpha"], "aamr", "alpha")

    def step(x, k):
        pd = diag.project(x)  # every block is the mean of the blocks of x
        return aamr_update(x, pd, shifted, alpha_of(k), beta), pd

    return iterate(step, x0, policy, shadow=lambda pd: q + pd[:n])


def rap_solve(u_set: ConvexSet, v_set: ConvexSet, q, mu: float = 1.0,
              policy: StoppingPolicy | None = None) -> SolveResult:
    """Relaxed alternating projections x <- (1-mu)x + mu P_V(P_U(x)) from q."""
    _METHODS["rap"].params["mu"].check("rap", "mu", mu)
    q = as_vector(q, _common_dim([u_set, v_set]))

    def step(x, k):
        return (1.0 - mu) * x + mu * v_set.project(u_set.project(x)), x

    return iterate(step, q, policy)


def map_solve(u_set: ConvexSet, v_set: ConvexSet, q,
              policy: StoppingPolicy | None = None) -> SolveResult:
    """Alternating projections (RAP with mu = 1)."""
    return rap_solve(u_set, v_set, q, mu=1.0, policy=policy)


def dr_solve(a_set: ConvexSet, b_set: ConvexSet, q, alpha: float = 0.5,
             policy: StoppingPolicy | None = None) -> SolveResult:
    """Douglas-Rachford from ``x0 = q`` on the unshifted sets.

    The monitored point is ``P_A(x_k)``.  For affine subspaces this solves the
    best approximation problem; for general convex sets it finds some point of
    the intersection.
    """
    _METHODS["drm"].params["alpha"].check("drm", "alpha", alpha)
    op = DrOperator(a_set, b_set, alpha)
    return iterate(op.step, as_vector(q, a_set.dim), policy)


def _haugazeau_project(x, y, z):
    """Projection of x onto the two halfspaces encoded by (x, y, z).

    With pi = <x-y, y-z>, mu = ||x-y||^2, nu = ||y-z||^2, rho = mu*nu - pi^2:
    rho = 0 and pi >= 0 gives z; rho > 0 and pi*nu >= rho gives
    x + (1 + pi/nu)(z - y); rho > 0 and pi*nu < rho gives
    y + (nu/rho)(pi(x-y) + mu(z-y)).  The degenerate zero step z = y lands in
    the first branch (pi = nu = rho = 0) and returns y before any division.
    The remaining case means the halfspaces do not intersect, which signals
    inconsistent inputs.
    """
    d_xy = x - y
    d_yz = y - z
    pi = float(d_xy.dot(d_yz))
    mu = float(d_xy.dot(d_xy))
    nu = float(d_yz.dot(d_yz))
    rho = mu * nu - pi * pi
    if rho <= 1e-14 * max(mu * nu, 1e-300):  # rank-deficient Gram: rho == 0
        if pi >= 0.0:
            return z.copy()
        raise NumericalFailure("anchored halfspaces have empty intersection")
    if pi * nu >= rho:
        return x + (1.0 + pi / nu) * (z - y)
    return y + (nu / rho) * (pi * d_xy + mu * (z - y))


def haugazeau_solve(u_set: ConvexSet, v_set: ConvexSet, q,
                    policy: StoppingPolicy | None = None) -> SolveResult:
    """Anchored alternating scheme, strongly convergent to ``P_{U∩V}(q)``.

    Each step projects the anchor ``q`` onto the intersection of two
    halfspaces built from the current iterate and its projection onto U
    (even steps) or V (odd steps), or onto the other set when the iterate
    lies in that one: each iterate projects ``q`` onto a superset of U ∩ V,
    so the step is zero only at ``P_{U∩V}(q)``.  Inconsistent geometry is
    reported as a ``NUMERICAL_FAILURE`` status.
    """
    q = as_vector(q, _common_dim([u_set, v_set]))
    pair = (u_set, v_set)

    def step(x, k):
        p = pair[k % 2].project(x)
        if (p == x).all():
            p = pair[(k + 1) % 2].project(x)
        return _haugazeau_project(q, x, p), x

    return iterate(step, q, policy)


def hlwb_solve(sets, q, policy: StoppingPolicy | None = None) -> SolveResult:
    """Anchored projections x_{k+1} = q/(k+2) + (1 - 1/(k+2)) P_{C_{k+1}}(x_k)
    from x_0 = q.

    Cycles through the sets, starting at the second; converges to the
    projection of ``q`` onto the intersection, slowly (the anchor weight
    decays like 1/k).  The weights start at 1/2: a first weight of 1 would
    return ``q`` unchanged, which a residual stop reads as convergence.
    """
    sets = list(sets)
    q = as_vector(q, _common_dim(sets))

    def step(x, k):
        lam = 1.0 / (k + 2)
        return lam * q + (1.0 - lam) * sets[(k + 1) % len(sets)].project(x), x

    return iterate(step, q, policy)


def cm_recurrence(sets, q, gamma: float = 0.25, lam=1.8):
    """Engine step ``(z, k) -> (z_next, shadow)`` of Combettes' product-space
    recurrence.

    The governing vector z lives in (R^n)^r.  The update is

        z <- (1 - lam/2) z + (lam/2) R_D(2 P_C((z + gamma*q)/(gamma + 1)) - z)

    with C the product set, D the diagonal and R_D its reflector.  It is the
    modified-reflection update of strength beta = 1/(1 + gamma) on the
    scaled-and-shifted product set (1/beta)C - ((1-beta)/beta) q, written
    directly.  ``lam`` is a constant in (0, 2] or a schedule ``k -> lam_k``.

    The shadow is the diagonal value of P_D P_C evaluated at the blend
    (z + gamma*q)/(gamma + 1), which converges to the projection of q onto
    the intersection.  The step reuses the P_C it already computes and takes
    R_D and the shadow from block means, without building the r-fold
    diagonal point.  It updates only its own fresh temporaries in place,
    never ``z``.
    """
    raw_step, mean, _ = _cm_step(sets, q, gamma, lam)

    def step(z, k):
        z_next, pc = raw_step(z, k)
        return z_next, mean(pc)

    return step


def _cm_step(sets, q, gamma, lam):
    """``(step, mean, q_lift)``: the CM update as ``(z, k) -> (z_next,
    P_C(blend))``, the block mean that maps its second value to the shadow,
    so that ``iterate`` forms the shadow only where it is read, and the
    tiled ``q``."""
    sets = list(sets)
    n = _common_dim(sets)
    combettes_beta(gamma)  # checks gamma
    r = len(sets)
    q_lift = np.tile(as_vector(q, n), r)
    gamma_q = gamma * q_lift
    product = ProductSet(sets)
    diag = Diagonal(r, n)
    lam_of = _schedule(lam, _METHODS["cm"].params["lam"], "cm", "lambda")

    def step(z, k):
        lam_k = lam_of(k)
        y = z + gamma_q
        y /= gamma + 1.0
        pc = product.project(y)
        w = 2.0 * pc
        w -= z
        m = diag.mean(w)
        m *= 2.0
        blocks = w.reshape(r, n)
        np.subtract(m, blocks, out=blocks)  # w is now R_D(w)
        w *= lam_k / 2.0
        z_next = (1.0 - lam_k / 2.0) * z
        z_next += w
        return z_next, pc

    return step, diag.mean, q_lift


def cm_solve(sets, q, gamma: float = 0.25, lam=1.8,
             policy: StoppingPolicy | None = None, x0=None) -> SolveResult:
    """Combettes' strongly convergent method in the product space.

    ``lam`` is a constant in (0, 2] or a callable schedule with positive
    infimum; the default 1.8 corresponds to an averaging weight of 0.9.
    """
    sets = list(sets)
    step, mean, q_lift = _cm_step(sets, q, gamma, lam)
    return iterate(step, _lift(x0, q_lift, len(sets)), policy, shadow=mean)


@dataclass(frozen=True)
class _Param:
    """A method parameter: its range (0, hi) or (0, hi], and its rule from
    the instance angle, if any (its default is its driver's, ``_DEFAULTS``)."""

    hi: float = math.inf
    closed: bool = False
    fallback: object = None
    hint: str = ""

    def admits(self, value: float) -> bool:
        return 0.0 < value < self.hi or (self.closed and value == self.hi)

    @property
    def interval(self) -> str:
        """The range as the tail of "<name> must ...", e.g. "lie in (0, 1]"."""
        if self.hi == math.inf:
            return "be positive"
        return f"lie in (0, {self.hi:g}{']' if self.closed else ')'}"

    def check(self, kind: str, name: str, value) -> None:
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number for {kind}, "
                             f"got {type(value).__name__}")
        if not self.admits(value):
            raise ValueError(f"{name} must {self.interval} for {kind}{self.hint}")


@dataclass(frozen=True)
class _Method:
    """One solver kind: the driver for a pair of sets ``(u, v, q, ...)``
    and/or for a list of any length ``(sets, q, ...)``, the parameters it
    takes, and whether its starting point ``x0`` is free."""

    params: dict
    pair: str | None = None
    many: str | None = None
    free_x0: bool = False


# the method table: adding a method is writing its driver plus one entry here;
# MethodSpec, solve_best_approximation and the token parser read only this
_METHODS = {
    "aamr": _Method({"alpha": _Param(1.0, closed=True),
                     "beta": _Param(1.0, fallback=recommended_beta,
                                    hint="; use the drm method for beta = 1")},
                    pair="aamr_solve", many="aamr_product_solve", free_x0=True),
    "drm": _Method({"alpha": _Param(1.0)}, pair="dr_solve"),
    "map": _Method({}, pair="map_solve"),
    "rap": _Method({"mu": _Param(2.0, fallback=optimal_rap_mu)}, pair="rap_solve"),
    "haugazeau": _Method({}, pair="haugazeau_solve"),
    "hlwb": _Method({}, many="hlwb_solve"),
    "cm": _Method({"gamma": _Param(), "lam": _Param(2.0, closed=True)},
                  many="cm_solve", free_x0=True),
}


def _driver_defaults(method: _Method) -> dict:
    """The keyword defaults of a kind's pair driver, else its list driver."""
    params = inspect.signature(globals()[method.pair or method.many]).parameters
    return {name: params[name].default for name in method.params}


# read once: a signature costs several times a whole resolve
_DEFAULTS = {kind: _driver_defaults(method) for kind, method in _METHODS.items()}


@dataclass(frozen=True)
class MethodSpec:
    """Tagged description of a solver and its parameters.

    ``kind`` is one of aamr, drm, map, rap, haugazeau, hlwb, cm; each kind
    takes only its own parameters (aamr: alpha, beta; drm: alpha; rap: mu;
    cm: gamma, lam).  :meth:`resolve` fills unset parameters at solve time:
    aamr's beta and rap's mu from their angle rules when the instance angle is
    known, all others from the driver's keyword defaults (so beta = 0.7 and
    mu = 1.0 without an angle).  Values are real numbers, stored as floats; a
    schedule ``k -> value`` is an argument of its driver (``aamr_solve``'s and
    ``aamr_product_solve``'s alpha, ``cm_solve``'s lam), not of a spec.  Equal
    specs compare equal and hash alike.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    mu: float | None = None
    gamma: float | None = None
    lam: float | None = None

    KINDS = tuple(_METHODS)
    PARAMS = ("alpha", "beta", "mu", "gamma", "lam")
    _LABELS = {"alpha": "a", "beta": "b", "mu": "mu", "gamma": "g", "lam": "l"}

    def __post_init__(self):
        if self.kind not in _METHODS:
            raise ValueError(f"unknown method {self.kind!r}; expected one of {self.KINDS}")
        params = _METHODS[self.kind].params
        for name, value in self._items():
            if name not in params:
                raise ValueError(f"method {self.kind} takes no parameter {name}")
            params[name].check(self.kind, name, value)
            object.__setattr__(self, name, float(value))

    @classmethod
    def parse(cls, token: str) -> "MethodSpec":
        """Read ``kind[:param=value]...``, e.g. ``aamr:alpha=0.9:beta=0.9``;
        the kind and the parameter names are case-insensitive, and each name
        may appear once."""
        kind, *parts = token.strip().split(":")
        values = {}
        for part in parts:
            key, eq, value = part.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ValueError(f"malformed method token {token!r}: expected param=value")
            if key not in cls.PARAMS:
                raise ValueError(f"unknown method parameter {key!r} in {token!r}")
            # the last value would silently win
            if key in values:
                raise ValueError(f"method token {token!r} names {key} twice")
            try:
                values[key] = float(value)
            except ValueError:
                raise ValueError(f"method token {token!r}: {key} must be a number, "
                                 f"got {value.strip()!r}") from None
        return cls(kind.strip().lower(), **values)

    def _items(self):
        return [(name, getattr(self, name)) for name in self.PARAMS
                if getattr(self, name) is not None]

    def display(self) -> str:
        """Short human-readable label, e.g. ``aamr(a=0.9 b=0.9)``."""
        parts = [f"{self._LABELS[name]}={value:g}" for name, value in self._items()]
        return self.kind + (f"({' '.join(parts)})" if parts else "")

    def resolve(self, theta: float | None = None) -> "MethodSpec":
        """Fill each unset parameter from the kind's angle rule when it has one
        and ``theta`` is given, else from the driver's default."""
        values = {}
        for name, param in _METHODS[self.kind].params.items():
            value = getattr(self, name)
            if value is None:
                value = (param.fallback(theta) if param.fallback and theta is not None
                         else _DEFAULTS[self.kind][name])
            values[name] = value
        return MethodSpec(self.kind, **values)


def solve_best_approximation(spec: MethodSpec, sets, q,
                             policy: StoppingPolicy | None = None,
                             theta: float | None = None,
                             x0=None) -> SolveResult:
    """Dispatch a solve described by ``spec`` over a list of sets.

    Pairwise methods (drm, map, rap, haugazeau) require exactly two sets;
    aamr uses the two-set driver for pairs and the product-space driver
    otherwise; hlwb and cm accept any number.  ``theta`` (the Friedrichs angle
    of a subspace instance) feeds the angle rules of an unset rap mu and aamr
    beta (see :meth:`MethodSpec.resolve`).  Only aamr and cm take a free ``x0``.
    """
    sets = list(sets)
    method = _METHODS[spec.kind]
    _common_dim(sets)
    if len(sets) == 2 and method.pair:
        driver, head = method.pair, sets
    elif method.many:
        driver, head = method.many, [sets]
    else:
        raise ValueError(f"method {spec.kind} requires exactly two sets, got {len(sets)}")
    spec = spec.resolve(theta)
    kwargs = {name: getattr(spec, name) for name in method.params}
    if method.free_x0:
        kwargs["x0"] = x0
    elif x0 is not None:
        raise ValueError(f"method {spec.kind} starts at the projected point; "
                         "x0 is not free")
    # looked up per call, so wrappers installed on this module see the solve
    return globals()[driver](*head, q, policy=policy, **kwargs)
