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

from . import svgplot
from .geometry import SubspacePair, random_subspace_pair
from .operators import DrOperator, Status, StoppingPolicy, iterate
from .sets import LinearSubspace, zero_subspace
from .solvers import _METHODS, MethodSpec, recommended_beta, solve_best_approximation

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
    "Sweep",
    "SWEEPS",
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


def _grid_task(args):
    """Run one instance's ``(MethodSpec, start_id)`` rows through the row
    engine.  A kind without a beta parameter runs the plain double
    reflection (beta = 1)."""
    config, instance_id, pair, rows = args
    starts = {s: start_point(config, instance_id, s) for s in {s for _, s in rows}}
    # the reshape keeps a grid emptied by the alpha range at shape (0, n)
    q_rows = np.array([starts[s] for _, s in rows]).reshape(len(rows), config.n)
    betas = [spec.beta if "beta" in _METHODS[spec.kind].params else 1.0
             for spec, _ in rows]
    status, iters, errs = _batched_pair_sweep(
        pair, q_rows, [spec.alpha for spec, _ in rows], betas,
        config.eps, config.max_iter)
    return [RunRecord(instance_id, pair.angle, spec.kind, spec.alpha, spec.beta,
                      None, None, start_id, st, it, err, config.seed)
            for (spec, start_id), st, it, err in zip(rows, status, iters, errs)]


def _grid_sweep(config, row_sets, jobs):
    """Each row set on every instance, one engine batch per pair; returns
    the runs and the converged ones per batch."""
    tasks = [(config, i, pair, rows) for i, pair in enumerate(make_instances(config))
             for rows in row_sets]
    batches = _pmap(_grid_task, tasks, jobs)
    runs = [r for batch in batches for r in batch]
    return runs, [[r for r in batch if r.status == Status.CONVERGED.value]
                  for batch in batches]


def sweep_alpha(config: SweepConfig, kind: str = "aamr", jobs: int = 1):
    """Best averaging weight per instance (ties go to the smaller alpha).

    The grid keeps the alphas in the method's range (drm drops alpha = 1).
    For ``aamr`` it is swept once per ``alpha_sweep_betas`` entry; ``drm``
    has no beta.  Non-converged runs are recorded but excluded from the
    argmin.  Returns ``(runs, best_records)``.
    """
    if kind not in ("aamr", "drm"):
        raise ValueError("alpha sweep supports the aamr and drm methods")
    params = _METHODS[kind].params
    grid = [a for a in config.alpha_grid if params["alpha"].admits(a)]
    betas = config.alpha_sweep_betas if "beta" in params else (None,)
    runs, converged = _grid_sweep(
        config, [[(MethodSpec(kind, alpha=a, beta=beta), 0) for a in grid]
                 for beta in betas], jobs)
    best = []
    for batch in filter(None, converged):
        iterations, alpha = min((r.iterations, r.alpha) for r in batch)
        r = batch[0]
        best.append(BestAlphaRecord(r.instance_id, r.theta, r.method, r.beta,
                                    alpha, iterations))
    return runs, best


# ---------------------------------------------------------------------------
# beta sweep


def sweep_beta(config: SweepConfig, jobs: int = 1):
    """Reflection strength minimizing the median iteration count, per angle.

    Returns ``(runs, best_records, fit)`` where ``fit`` is the exponential
    least-squares fit of best beta against angle (None if the fit degenerates)
    together with the residual of the shipped ``recommended_beta`` rule on the
    same data.
    """
    runs, converged = _grid_sweep(
        config, [[(MethodSpec("aamr", alpha=0.9, beta=beta), s)
                  for beta in config.beta_grid for s in range(config.n_starts)]],
        jobs)
    best = []
    for batch in filter(None, converged):
        by_beta = {}
        for r in batch:
            by_beta.setdefault(r.beta, []).append(r.iterations)
        median, beta = min((float(np.median(its)), b) for b, its in by_beta.items())
        best.append(BestBetaRecord(batch[0].instance_id, batch[0].theta, beta, median))
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


def _dr_raw_iterate(spec, u, v, q, policy):
    op = DrOperator(u, v, spec.alpha)
    return iterate(lambda x, k: (op(x), x), q, policy)


# the kinds whose trace follows a run other than their solver (see
# rate_profile), and the rates theory predicts for two lines at angle theta
_RATE_RUNS = {"drm": _dr_raw_iterate}
_EXPECTED_RATES = {"map": lambda theta: math.cos(theta) ** 2, "drm": math.cos}


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
            run = _RATE_RUNS.get(resolved.kind)
            if run is not None:
                result = run(resolved, u, v, q, policy)
            else:
                result = solve_best_approximation(resolved, [u, v], q,
                                                  policy=policy, theta=theta)
            try:
                rate = estimate_rate(result.trace)
            except ValueError:  # contraction too steep: trace shorter than 20
                rate = math.nan
            rule = _EXPECTED_RATES.get(resolved.kind)
            expected = None if rule is None else rule(theta)
            label = resolved.display()
            runs.append(RunRecord(t_index, theta, resolved.kind, resolved.alpha,
                                  resolved.beta, resolved.mu, resolved.gamma, 0,
                                  result.status.value, result.iterations,
                                  result.final_error, seed))
            records.append(RateRecord(theta, resolved.kind, label, rate, expected))
            traces[(theta, label)] = list(result.trace)
    return runs, records, traces


# ---------------------------------------------------------------------------
# the sweeps behind ``aamr bench``


@dataclass(frozen=True)
class Sweep:
    """One ``aamr bench`` sweep.  ``run(config, methods, thetas, jobs)``
    returns ``(runs, rows, charts, lines)``: the records of the ``runs_csv``
    file, the rows of the ``table_csv`` file under ``header``, the charts as
    ``(file name, series, render_chart keyword arguments)`` and the console
    summary lines.  ``methods`` is None for the sweep's default roster.
    ``full_scale`` holds the SweepConfig overrides of ``--full-scale``."""

    run: object
    runs_csv: str
    table_csv: str
    header: tuple
    full_scale: dict


def _profile_report(config, methods, thetas, jobs):
    runs, records = angle_profile(config, methods=methods, jobs=jobs)
    rows = [[r.instance_id, r.theta, r.method.display(), r.n_starts,
             r.median_iterations, r.std_iterations,
             *(r.status_counts[s.value] for s in Status), r.seed] for r in records]
    labels = sorted({r.method.display() for r in records})
    charts = []
    for stat, name in (("median_iterations", "median_vs_angle.svg"),
                       ("std_iterations", "std_vs_angle.svg")):
        series = []
        for label in labels:
            pts = sorted((r.theta, getattr(r, stat)) for r in records
                         if r.method.display() == label
                         and math.isfinite(getattr(r, stat)))
            series.append(svgplot.Series(label, [p[0] for p in pts],
                                         [max(p[1], 0.5) for p in pts]))
        charts.append((name, series, dict(
            title=f"{stat.replace('_', ' ')} to reach eps={config.eps:g}",
            xlabel="Friedrichs angle (radians)", ylabel="iterations", ylog=True)))
    lines = [f"instances: {config.n_instances}  starts: {config.n_starts}  "
             f"eps: {config.eps:g}"]
    for r in records:
        med = "-" if math.isnan(r.median_iterations) else f"{r.median_iterations:.0f}"
        lines.append(f"  instance {r.instance_id:3d}  theta {r.theta:8.4f}  "
                     f"{r.method.display():24s} median {med}")
    return runs, rows, charts, lines


def _alpha_report(config, methods, thetas, jobs):
    runs, best = [], []
    for kind in [m.kind for m in methods] if methods else ["aamr"]:
        k_runs, k_best = sweep_alpha(config, kind=kind, jobs=jobs)
        runs.extend(k_runs)
        best.extend(k_best)
    groups = {}
    for r in best:
        groups.setdefault((r.method, r.beta), []).append(r)
    series, lines = [], []
    # drm's beta is None, but its kind already tells its key from aamr's
    for (method, beta), sel in sorted(groups.items()):
        label = method if beta is None else f"{method} beta={beta:g}"
        xs = [r.theta for r in sel]
        mean_alpha = float(np.mean([r.best_alpha for r in sel]))
        series.append(svgplot.Series(label, xs, [r.best_alpha for r in sel],
                                     style="scatter"))
        series.append(svgplot.Series(f"{label} mean={mean_alpha:.2f}",
                                     [min(xs), max(xs)], [mean_alpha, mean_alpha],
                                     style="dashed"))
        lines.append(f"  {label:20s} mean best alpha {mean_alpha:.3f} "
                     f"over {len(sel)} instances")
    rows = [[r.instance_id, r.theta, r.method, r.beta, r.best_alpha, r.iterations]
            for r in best]
    return runs, rows, [("best_alpha.svg", series, dict(
        title="best averaging weight vs angle",
        xlabel="Friedrichs angle (radians)", ylabel="best alpha"))], lines


def _beta_report(config, methods, thetas, jobs):
    runs, best, fit = sweep_beta(config, jobs=jobs)
    xs = [r.theta for r in best]
    series = [svgplot.Series("best beta", xs, [r.best_beta for r in best],
                             style="scatter")]
    grid = np.linspace(min(xs), max(xs), 60) if xs else []
    if fit is not None:
        series.append(svgplot.Series(
            f"fit {fit.a:.3f}*exp({fit.b:.3f}t)+{fit.c:.3f}",
            list(grid), list(fit(grid))))
        line = (f"  exponential fit: beta = {fit.a:.4f}*exp({fit.b:.4f}*theta) "
                f"+ {fit.c:.4f}   (rms {fit.rms_residual:.4f}, "
                f"shipped rule rms {fit.rule_rms_residual:.4f})")
    else:
        line = "  fit degenerate: not enough converged instances"
    series.append(svgplot.Series("shipped rule", list(grid),
                                 [recommended_beta(t) for t in grid],
                                 style="dashed"))
    rows = [[r.instance_id, r.theta, r.best_beta, r.median_iterations] for r in best]
    return runs, rows, [("best_beta.svg", series, dict(
        title="best reflection strength vs angle",
        xlabel="Friedrichs angle (radians)", ylabel="beta"))], [line]


def _rates_report(config, methods, thetas, jobs):
    runs, records, traces = rate_profile(
        thetas=thetas, methods=methods, seed=config.seed,
        max_iter=config.max_iter, start_norm=config.start_norm)
    series = [svgplot.Series(f"{label} theta={theta:g}",
                             [entry[0] for entry in trace],
                             [entry[1] for entry in trace])
              for (theta, label), trace in sorted(traces.items())]
    lines = []
    for r in records:
        expected = "-" if r.expected_rate is None else f"{r.expected_rate:.4f}"
        lines.append(f"  theta {r.theta:6.3f}  {r.label:20s} rate "
                     f"{r.estimated_rate:.4f}  expected {expected}")
    rows = [[r.theta, r.label, r.estimated_rate, r.expected_rate] for r in records]
    return runs, rows, [("error_vs_iteration.svg", series, dict(
        title="monitored error by iteration", xlabel="iteration",
        ylabel="error", ylog=True))], lines


SWEEPS = {
    "alpha": Sweep(_alpha_report, "runs_alpha.csv", "best_alpha.csv",
                   ("instance_id", "theta_F", "method", "beta", "best_alpha",
                    "iterations"),
                   dict(n_instances=1000, n_starts=1)),
    "beta": Sweep(_beta_report, "runs_beta.csv", "best_beta.csv",
                  ("instance_id", "theta_F", "best_beta", "median_iterations"),
                  dict(n_instances=100, n_starts=100, angle_bins=100,
                       beta_grid=tuple(round(0.4 + 0.005 * i, 3)
                                       for i in range(120)))),
    "angle-profile": Sweep(_profile_report, "runs_angle_profile.csv",
                           "angle_profile.csv",
                           ("instance_id", "theta_F", "method", "n_starts",
                            "median_iterations", "std_iterations", "n_converged",
                            "n_diverged", "n_budget", "n_failed", "seed"),
                           dict(n_instances=100, n_starts=10)),
    "rates": Sweep(_rates_report, "runs_rates.csv", "rates.csv",
                   ("theta", "method", "estimated_rate", "expected_rate"), {}),
}
