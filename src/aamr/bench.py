"""Benchmark harness: seeded subspace instances, parameter sweeps, per-angle
iteration statistics, convergence-rate estimation, and CSV/SVG artifacts.

Every run draws its randomness from a stream keyed by
``(seed, purpose, instance_id, start_id)``, so results are independent of
scheduling order and identical configurations produce byte-identical CSV
output.  Runs that exhaust their budget are excluded from medians but counted
in the status tallies, so plots cannot silently hide failures.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .geometry import SubspacePair, random_subspace_pair
from .operators import DrOperator, Status, StoppingPolicy, iterate
from .sets import LinearSubspace, zero_subspace
from .solvers import MethodSpec, recommended_beta, solve_best_approximation

__all__ = [
    "CSV_HEADER",
    "SweepConfig",
    "RunRecord",
    "ExperimentRecord",
    "BestAlphaRecord",
    "BestBetaRecord",
    "BetaFit",
    "RateRecord",
    "default_profile_methods",
    "parse_method_token",
    "make_instances",
    "start_point",
    "angle_profile",
    "sweep_alpha",
    "sweep_beta",
    "rate_profile",
    "estimate_rate",
    "write_runs_csv",
    "write_table_csv",
]

CSV_HEADER = ("instance_id,theta_F,method,alpha,beta,mu,gamma,"
              "start_id,status,iterations,final_error,seed")

# rate-fit floor: errors at or below this sit in floating-point noise
RATE_FLOOR = 100.0 * np.finfo(float).eps

_DEFAULT_ALPHA_GRID = tuple(round(0.01 * i, 2) for i in range(1, 101))
_DEFAULT_BETA_GRID = (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7,
                      0.75, 0.8, 0.85, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for the benchmark sweeps.

    Defaults are desk-scale: 20 instances, 10 starts of norm 10, tolerance
    1e-3, a 100-point alpha grid and a 13-point beta grid.  ``angle_binned``
    spreads instance angles over ``angle_bins`` equal bins of (0, pi/2)
    (random dimension sampling alone concentrates angles well below pi/4,
    which would leave profile figures empty on the right).
    """

    n: int = 50
    n_instances: int = 20
    n_starts: int = 10
    start_norm: float = 10.0
    eps: float = 1e-3
    max_iter: int = 100_000
    alpha_grid: tuple = _DEFAULT_ALPHA_GRID
    alpha_sweep_betas: tuple = (0.6, 0.7, 0.8, 0.9)
    beta_grid: tuple = _DEFAULT_BETA_GRID
    mu_grid: tuple = (0.5, 1.0, 1.5)
    gamma_grid: tuple = (0.1, 0.25, 1.0)
    angle_bins: int = 20
    angle_binned: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.n_instances, self.n_starts, self.max_iter,
               self.angle_bins) < 1:
            raise ValueError("config counts must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not self.start_norm > 0:
            raise ValueError("start_norm must be positive")
        for name in ("alpha_grid", "alpha_sweep_betas", "beta_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")


@dataclass(frozen=True)
class RunRecord:
    """One row of the canonical runs CSV (resolved parameters, not defaults)."""

    instance_id: int
    theta: float
    method: str
    alpha: float | None
    beta: float | None
    mu: float | None
    gamma: float | None
    start_id: int
    status: str
    iterations: int
    final_error: float
    seed: int


@dataclass(frozen=True)
class ExperimentRecord:
    """Per (instance, method) iteration statistics over the random starts.

    ``median_iterations`` and ``std_iterations`` cover converged runs only
    (NaN when none converged); ``status_counts`` always totals ``n_starts``.
    """

    instance_id: int
    theta: float
    method: MethodSpec
    n_starts: int
    median_iterations: float
    std_iterations: float
    status_counts: dict
    seed: int


@dataclass(frozen=True)
class BestAlphaRecord:
    instance_id: int
    theta: float
    method: str
    beta: float | None
    best_alpha: float
    iterations: int


@dataclass(frozen=True)
class BestBetaRecord:
    instance_id: int
    theta: float
    best_beta: float
    median_iterations: float


@dataclass(frozen=True)
class BetaFit:
    """Least-squares exponential fit beta = a*exp(b*theta) + c of the optimal
    beta against the angle, with the root-mean-square residual of the fit and
    of the shipped tuning rule on the same data."""

    a: float
    b: float
    c: float
    rms_residual: float
    rule_rms_residual: float

    def __call__(self, theta):
        return self.a * np.exp(self.b * np.asarray(theta)) + self.c


@dataclass(frozen=True)
class RateRecord:
    theta: float
    method: str
    label: str
    estimated_rate: float
    expected_rate: float | None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_runs_csv(path, runs) -> None:
    """Write run records under the canonical header."""
    lines = [CSV_HEADER]
    for r in runs:
        lines.append(",".join([
            str(r.instance_id), repr(float(r.theta)), r.method,
            _fmt(r.alpha), _fmt(r.beta), _fmt(r.mu), _fmt(r.gamma),
            str(r.start_id), r.status, str(r.iterations),
            repr(float(r.final_error)), str(r.seed),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_table_csv(path, header, rows) -> None:
    """Write an aggregate table; cells are formatted deterministically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# instances, starts, method rosters


def make_instances(config: SweepConfig, count: int | None = None) -> list[SubspacePair]:
    """Seeded subspace pairs; angle-binned over (0, pi/2) unless disabled."""
    count = config.n_instances if count is None else count
    pairs = []
    width = (math.pi / 2) / config.angle_bins
    for i in range(count):
        key = [config.seed, 11, i]
        if config.angle_binned:
            b = i % config.angle_bins
            lo = max(b * width + 0.025 * width, 0.02)
            hi = max((b + 1) * width - 0.025 * width, lo + 1e-6)
            pairs.append(random_subspace_pair(config.n, key,
                                              target_angle_interval=(lo, hi)))
        else:
            pairs.append(random_subspace_pair(config.n, key))
    return pairs


def start_point(config: SweepConfig, instance_id: int, start_id: int) -> np.ndarray:
    """Deterministic random start of norm ``start_norm``."""
    rng = np.random.default_rng([config.seed, 23, instance_id, start_id])
    v = rng.standard_normal(config.n)
    return v * (config.start_norm / np.linalg.norm(v))


def default_profile_methods() -> list[MethodSpec]:
    """Roster for the angle profile: alternating projections (plain and
    optimally relaxed), Douglas-Rachford, Haugazeau, Combettes, and two
    reflection strengths of the averaged modified-reflection method.  The
    anchored 1/(n+1) scheme is omitted by default (slower by orders of
    magnitude) but available through method tokens."""
    return [
        MethodSpec("map"),
        MethodSpec("rap"),          # mu resolved per instance angle
        MethodSpec("drm", alpha=0.5),
        MethodSpec("haugazeau"),
        MethodSpec("cm", gamma=0.25),
        MethodSpec("aamr", alpha=0.9, beta=0.7),
        MethodSpec("aamr", alpha=0.9, beta=0.9),
    ]


def parse_method_token(token: str) -> MethodSpec:
    """Parse ``kind[:param=value]...`` tokens, e.g. ``aamr:alpha=0.9:beta=0.9``."""
    parts = token.strip().split(":")
    kind = parts[0].strip().lower()
    kwargs = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed method token {token!r}: expected param=value")
        key, value = part.split("=", 1)
        key = key.strip().lower()
        if key not in MethodSpec.PARAMS:
            raise ValueError(f"unknown method parameter {key!r} in {token!r}")
        kwargs[key] = float(value)
    return MethodSpec(kind, **kwargs)


def _pair_sets(pair: SubspacePair):
    u = LinearSubspace(pair.basis_u)
    v = LinearSubspace(pair.basis_v)
    target = LinearSubspace(pair.intersection)
    return u, v, target


def _pmap(fn, tasks, jobs):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


# ---------------------------------------------------------------------------
# angle profile


def _profile_task(args):
    config, instance_id, pair, spec = args
    u, v, target = _pair_sets(pair)
    policy = StoppingPolicy.true_error(target, eps=config.eps,
                                       max_iter=config.max_iter)
    resolved = spec.resolve(pair.angle)
    rows = []
    iters = []
    for start_id in range(config.n_starts):
        q = start_point(config, instance_id, start_id)
        result = solve_best_approximation(resolved, [u, v], q, policy=policy,
                                          theta=pair.angle)
        rows.append(RunRecord(instance_id, pair.angle, spec.kind,
                              resolved.alpha, resolved.beta, resolved.mu,
                              resolved.gamma, start_id, result.status.value,
                              result.iterations, result.final_error, config.seed))
        iters.append((result.status, result.iterations))
    return rows, iters


def _aggregate(instance_id, theta, spec, iters, config) -> ExperimentRecord:
    converged = [k for status, k in iters if status is Status.CONVERGED]
    counts = {s.value: 0 for s in Status}
    for status, _ in iters:
        counts[status.value] += 1
    med = float(np.median(converged)) if converged else math.nan
    std = float(np.std(converged)) if converged else math.nan
    return ExperimentRecord(instance_id, theta, spec, len(iters), med, std,
                            counts, config.seed)


def angle_profile(config: SweepConfig, methods=None, instances=None,
                  jobs: int = 1):
    """Median/std iteration counts per (instance, method) over seeded starts.

    Every run projects a fresh norm-``start_norm`` point onto the instance
    intersection, stopping at true error below ``eps``.  Returns
    ``(runs, records)``.
    """
    methods = default_profile_methods() if methods is None else list(methods)
    instances = make_instances(config) if instances is None else list(instances)
    tasks = [(config, i, pair, spec)
             for i, pair in enumerate(instances) for spec in methods]
    results = _pmap(_profile_task, tasks, jobs)
    runs, records = [], []
    for (cfg, i, pair, spec), (rows, iters) in zip(tasks, results):
        runs.extend(rows)
        records.append(_aggregate(i, pair.angle, spec, iters, config))
    return runs, records


# ---------------------------------------------------------------------------
# batched parameter sweeps on subspace pairs

# The grid sweeps run the same pair of subspace projectors for dozens of
# parameter rows; stacking the rows turns every projection into one matrix
# product, which is what makes the full alpha grid desk-runnable.  Semantics
# match the engine: converged at the first index with true error below eps
# (the start included), budget exhausted otherwise.  Subspace instances keep
# the governing sequence bounded, so no divergence check is needed here.


def _batched_pair_sweep(pair, q_rows, alphas, betas, eps, max_iter):
    """Run one AAMR/DR row per (q, alpha, beta) triple on a subspace pair.

    A ``betas`` entry of 1.0 selects the plain double-reflection update on
    the unshifted sets (monitored point ``P_U(x)``); entries below 1.0 run
    the modified-reflection update on the q-shifted sets (monitored point
    ``P_U(x + q)``).  Both reduce to projecting ``x + shift`` with a per-row
    shift of ``q`` or ``0``.  Returns parallel lists of
    (status string, iterations, final_error).
    """
    qu, qv, qi = pair.basis_u, pair.basis_v, pair.intersection
    m = len(alphas)
    alphas = np.asarray(alphas, dtype=float).reshape(m, 1)
    betas = np.asarray(betas, dtype=float).reshape(m, 1)
    X = np.array(q_rows, dtype=float)
    shift = np.where(betas == 1.0, 0.0, X)  # rows start at their own q

    status = ["budget_exhausted"] * m
    iterations = np.full(m, max_iter, dtype=int)
    final_error = np.full(m, np.nan)
    active = np.arange(m)

    def proj(M, basis):
        return (M @ basis) @ basis.T

    for k in range(max_iter + 1):
        pu = proj(X + shift, qu)  # the monitored point, rowwise
        errs = np.linalg.norm(pu - proj(pu, qi), axis=1)
        done = errs < eps
        if np.any(done):
            for r, e in zip(active[done], errs[done]):
                status[r] = "converged"
                iterations[r] = k
                final_error[r] = e
            keep = ~done
            active, X, shift = active[keep], X[keep], shift[keep]
            errs, pu = errs[keep], pu[keep]
        if active.size == 0 or k == max_iter:
            for r, e in zip(active, errs):
                final_error[r] = e
            break
        a, b = alphas[active], betas[active]
        y = 2.0 * b * (pu - shift) - X
        z = 2.0 * b * (proj(y + shift, qv) - shift) - y
        X = (1.0 - a) * X + a * z
    return status, iterations.tolist(), final_error.tolist()


def _alpha_task(args):
    config, instance_id, pair, kind, beta = args
    q = start_point(config, instance_id, 0)
    grid = [a for a in config.alpha_grid if kind == "aamr" or a < 1.0]
    rows_beta = 1.0 if kind == "drm" else beta
    status, iters, errs = _batched_pair_sweep(
        pair, np.tile(q, (len(grid), 1)), grid, [rows_beta] * len(grid),
        config.eps, config.max_iter)
    rows = []
    outcomes = []
    for alpha, st, it, err in zip(grid, status, iters, errs):
        rows.append(RunRecord(instance_id, pair.angle, kind, alpha, beta,
                              None, None, 0, st, it, err, config.seed))
        outcomes.append((alpha, Status(st), it))
    return rows, outcomes


def sweep_alpha(config: SweepConfig, kind: str = "aamr", jobs: int = 1):
    """Best averaging weight per instance (ties go to the smaller alpha).

    For ``aamr`` the grid is swept once per ``alpha_sweep_betas`` entry; for
    ``drm`` there is no beta.  Non-converged runs are recorded but excluded
    from the argmin.  Returns ``(runs, best_records)``.
    """
    if kind not in ("aamr", "drm"):
        raise ValueError("alpha sweep supports the aamr and drm methods")
    instances = make_instances(config)
    betas = config.alpha_sweep_betas if kind == "aamr" else (None,)
    tasks = [(config, i, pair, kind, beta)
             for i, pair in enumerate(instances) for beta in betas]
    results = _pmap(_alpha_task, tasks, jobs)
    runs, best = [], []
    for (cfg, i, pair, knd, beta), (rows, outcomes) in zip(tasks, results):
        runs.extend(rows)
        converged = [(a, k) for a, status, k in outcomes
                     if status is Status.CONVERGED]
        if not converged:
            continue
        best_alpha, best_iters = min(converged, key=lambda ak: (ak[1], ak[0]))
        best.append(BestAlphaRecord(i, pair.angle, knd, beta, best_alpha,
                                    best_iters))
    return runs, best


# ---------------------------------------------------------------------------
# beta sweep


def _beta_task(args):
    config, instance_id, pair = args
    starts = [start_point(config, instance_id, s) for s in range(config.n_starts)]
    grid = [(beta, s) for beta in config.beta_grid for s in range(config.n_starts)]
    q_rows = np.stack([starts[s] for _, s in grid])
    status, iters, errs = _batched_pair_sweep(
        pair, q_rows, [0.9] * len(grid), [beta for beta, _ in grid],
        config.eps, config.max_iter)
    rows = []
    converged = {}
    for (beta, start_id), st, it, err in zip(grid, status, iters, errs):
        rows.append(RunRecord(instance_id, pair.angle, "aamr", 0.9, beta,
                              None, None, start_id, st, it, err, config.seed))
        if st == "converged":
            converged.setdefault(beta, []).append(it)
    medians = [(beta, float(np.median(converged[beta])))
               for beta in config.beta_grid if beta in converged]
    return rows, medians


def sweep_beta(config: SweepConfig, jobs: int = 1):
    """Reflection strength minimizing the median iteration count, per angle.

    Returns ``(runs, best_records, fit)`` where ``fit`` is the exponential
    least-squares fit of best beta against angle (None if the fit degenerates)
    together with the residual of the shipped ``recommended_beta`` rule on the
    same data.
    """
    instances = make_instances(config)
    tasks = [(config, i, pair) for i, pair in enumerate(instances)]
    results = _pmap(_beta_task, tasks, jobs)
    runs, best = [], []
    for (cfg, i, pair), (rows, medians) in zip(tasks, results):
        runs.extend(rows)
        if not medians:
            continue
        best_beta, best_med = min(medians, key=lambda bm: (bm[1], bm[0]))
        best.append(BestBetaRecord(i, pair.angle, best_beta, best_med))
    fit = _fit_beta_curve(best)
    return runs, best, fit


def _fit_beta_curve(best_records) -> BetaFit | None:
    if len(best_records) < 4:
        return None
    thetas = np.array([r.theta for r in best_records])
    betas = np.array([r.best_beta for r in best_records])

    def model(t, a, b, c):
        return a * np.exp(b * t) + c

    try:
        coeffs, _ = scipy.optimize.curve_fit(model, thetas, betas,
                                             p0=(0.6, -1.4, 0.4), maxfev=20_000)
    except (RuntimeError, scipy.optimize.OptimizeWarning):
        return None
    a, b, c = (float(v) for v in coeffs)
    rms = float(np.sqrt(np.mean((model(thetas, a, b, c) - betas) ** 2)))
    rule = np.array([recommended_beta(t) for t in thetas])
    rule_rms = float(np.sqrt(np.mean((rule - betas) ** 2)))
    return BetaFit(a, b, c, rms, rule_rms)


# ---------------------------------------------------------------------------
# convergence rates on planar lines


def estimate_rate(trace) -> float:
    """Asymptotic linear factor from an error trace.

    Fits the slope of log(error) against the iteration index by least squares
    over the last half of the trace, discarding entries at the
    floating-point floor, and returns exp(slope).  The whole trace must carry
    at least 20 samples above the floor.
    """
    arr = np.asarray(list(trace), dtype=float)
    if arr.ndim == 2:
        ks, errors = arr[:, 0], arr[:, 1]
    else:
        ks, errors = np.arange(arr.size, dtype=float), arr
    usable = np.isfinite(errors) & (errors > RATE_FLOOR)
    if int(usable.sum()) < 20:
        raise ValueError("need at least 20 error samples above the "
                         "floating-point floor to estimate a rate")
    half = arr.shape[0] // 2
    window = usable & (np.arange(arr.shape[0]) >= half)
    if int(window.sum()) < 2:
        raise ValueError("too few usable samples in the fitting window")
    slope = np.polyfit(ks[window], np.log(errors[window]), 1)[0]
    return float(np.exp(slope))


def _planar_lines(theta: float):
    u = LinearSubspace(np.array([[1.0], [0.0]]))
    v = LinearSubspace(np.array([[math.cos(theta)], [math.sin(theta)]]))
    return u, v, zero_subspace(2)


def rate_profile(thetas=(0.2, 0.5, 1.0), methods=None, seed: int = 0,
                 eps: float = 1e-13, max_iter: int = 200_000,
                 start_norm: float = 10.0):
    """Empirical linear rates on two lines through the origin at given angles.

    Alternating-projection style methods are traced through their own
    iterates; the Douglas-Rachford trace records the distance of the raw
    iterate to the intersection (its projected shadow oscillates, which makes
    slope fits unstable, while the iterate itself contracts cleanly); the
    modified-reflection method is traced through its shadow.  Returns
    ``(runs, rate_records, traces)`` where ``traces`` maps
    ``(theta, label)`` to the recorded error trace.
    """
    if methods is None:
        methods = [MethodSpec("map"), MethodSpec("drm", alpha=0.5),
                   MethodSpec("aamr", alpha=0.9, beta=0.7)]
    runs, records, traces = [], [], {}
    for t_index, theta in enumerate(thetas):
        u, v, target = _planar_lines(theta)
        rng = np.random.default_rng([seed, 31, t_index])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        q = start_norm * np.array([math.cos(phi), math.sin(phi)])
        for spec in methods:
            resolved = spec.resolve(theta)
            policy = StoppingPolicy.true_error(target, eps=eps, max_iter=max_iter,
                                               record_trace=True)
            if resolved.kind == "drm":
                op = DrOperator(u, v, resolved.alpha)
                result = iterate(lambda x, k: (op(x), x), q, policy)
            else:
                result = solve_best_approximation(resolved, [u, v], q,
                                                  policy=policy, theta=theta)
            try:
                rate = estimate_rate(result.trace)
            except ValueError:  # contraction too steep: trace shorter than 20
                rate = math.nan
            expected = None
            if resolved.kind == "map":
                expected = math.cos(theta) ** 2
            elif resolved.kind == "drm":
                expected = math.cos(theta)
            label = resolved.display()
            runs.append(RunRecord(t_index, theta, resolved.kind, resolved.alpha,
                                  resolved.beta, resolved.mu, resolved.gamma, 0,
                                  result.status.value, result.iterations,
                                  result.final_error, seed))
            records.append(RateRecord(theta, resolved.kind, label, rate, expected))
            traces[(theta, label)] = list(result.trace)
    return runs, records, traces
