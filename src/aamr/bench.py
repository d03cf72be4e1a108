"""Benchmark harness: seeded subspace instances, parameter sweeps, per-angle
iteration statistics, convergence-rate estimation, and CSV/SVG artifacts.

Every run draws its randomness from a stream keyed by
``(seed, purpose, instance_id, start_id)``, so results are independent of
scheduling order and identical configurations produce byte-identical CSV
output.  Runs that exhaust their budget are excluded from medians but counted
in the status tallies, so plots cannot silently hide failures.
"""

import copy
import math
# eager: deferring it saved 0.2 MB of peak memory and no time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import svgplot
from .geometry import SubspacePair, _numpy_blas, random_subspace_pair
from .operators import DrOperator, Status, StoppingPolicy, iterate
from .sets import LinearSubspace, _is_integral, _is_real, zero_subspace
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

CSV_HEADER = ("instance_id,theta_F,method,alpha,beta,mu,gamma,lam,"
              "start_id,status,iterations,final_error,seed")

# rate-fit floor: errors at or below this sit in floating-point noise
RATE_FLOOR = 100.0 * np.finfo(float).eps

# norm of the random starts of every sweep
_START_NORM = 10.0


@dataclass(frozen=True)
class SweepConfig:
    """Every input of the benchmark sweeps; each field but
    ``alpha_sweep_betas`` has an ``aamr bench`` flag.

    Defaults are desk-scale: 20 instances, 10 starts of norm 10, tolerance
    1e-3, a 100-point alpha grid, a 13-point beta grid, three rates angles
    and one worker process; ``jobs`` workers run on one thread each of
    numpy's OpenBLAS, pinned through ``geometry``'s handle.  No grid repeats
    a value.  Instance angles are spread over ``angle_bins`` equal bins of
    (0, pi/2): random dimension sampling alone concentrates them well below
    pi/4, which would leave profile figures empty on the right."""

    n: int = 50
    n_instances: int = 20
    n_starts: int = 10
    eps: float = 1e-3
    max_iter: int = 100_000
    alpha_grid: tuple = tuple(round(0.01 * i, 2) for i in range(1, 101))
    alpha_sweep_betas: tuple = (0.6, 0.7, 0.8, 0.9)
    beta_grid: tuple = (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7,
                        0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
    angle_bins: int = 20
    seed: int = 0
    rate_thetas: tuple = (0.2, 0.5, 1.0)
    jobs: int = 1

    def __post_init__(self):
        for name in ("n", "n_instances", "n_starts", "max_iter", "angle_bins", "jobs"):
            value = getattr(self, name)
            if not _is_integral(value):
                raise ValueError(f"config counts must be integers: {name} = {value!r}")
            if value < 1:
                raise ValueError(f"config counts must be positive: {name} = {value}")
        grids = ("alpha_grid", "alpha_sweep_betas", "beta_grid", "rate_thetas")
        for name, values in [("eps", (self.eps,))] + [(g, getattr(self, g)) for g in grids]:
            if not values:
                raise ValueError(f"{name} must be nonempty")
            for value in values:
                # before any range comparison
                if not _is_real(value):
                    raise ValueError(f"config values must be real numbers: {name} has {value!r}")
            # a repeated value would run its rows twice, while the best-value
            # tables, traces and chart groups keyed by it would hold them as one
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats an entry: {values!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        for theta in self.rate_thetas:
            if not 0.0 < theta <= math.pi / 2:
                raise ValueError(f"rate_thetas must lie in (0, pi/2], got {theta}")


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
    lam: float | None
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
        # a numpy float's repr names its type; a Python float's is the number
        return repr(float(value))
    return str(value)


def write_runs_csv(path, runs) -> None:
    """Write run records under the canonical header."""
    write_table_csv(path, CSV_HEADER.split(","), [
        [r.instance_id, float(r.theta), r.method, r.alpha, r.beta, r.mu, r.gamma,
         r.lam, r.start_id, r.status, r.iterations, float(r.final_error), r.seed]
        for r in runs])


def write_table_csv(path, header, rows) -> None:
    """Write an aggregate table; cells are formatted deterministically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# instances, starts, method rosters


def make_instances(config: SweepConfig) -> list[SubspacePair]:
    """Seeded subspace pairs, angle-binned over (0, pi/2)."""
    pairs = []
    width = (math.pi / 2) / config.angle_bins
    for i in range(config.n_instances):
        b = i % config.angle_bins
        lo = max(b * width + 0.025 * width, 0.02)
        interval = (lo, max((b + 1) * width - 0.025 * width, lo + 1e-6))
        pairs.append(random_subspace_pair(config.n, [config.seed, 11, i],
                                          target_angle_interval=interval))
    return pairs


def start_point(config: SweepConfig, instance_id: int, start_id: int) -> np.ndarray:
    """Deterministic random start of norm 10."""
    rng = np.random.default_rng([config.seed, 23, instance_id, start_id])
    v = rng.standard_normal(config.n)
    return v * (_START_NORM / np.linalg.norm(v))


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


def _grid_sweep(config, instances, specs, n):
    """Every spec of ``specs`` from starts 0..n-1 on every instance: the
    ``(MethodSpec, start_id)`` rows, in tasks of consecutive instances that
    hold at most ``_BLOCK_ROWS`` rows (one instance at least), run in order
    or on ``config.jobs`` processes; returns the runs instance-major, then
    spec-major, then by start.  Every row runs in the row engine, so no grid
    sweep makes a scalar solve: ``iterate`` and the public drivers are the
    reference the tests compare every row with."""
    rows = [(spec, s) for spec in specs for s in range(n)]
    per_task = max(1, _BLOCK_ROWS // max(1, len(rows)))
    tasks = [(config, first, instances[first:first + per_task], rows)
             for first in range(0, len(instances), per_task)]
    if config.jobs == 1:
        done = [_grid_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs,
                                 initializer=_one_blas_thread) as pool:
            done = list(pool.map(_grid_task, tasks, chunksize=1))
    return [r for task in done for r in task]


def _one_blas_thread():
    """Worker initializer: one BLAS thread per ``--jobs`` process.  OpenBLAS
    threads the screen's gemms on large batches, so workers on their default
    threading oversubscribe the cores.  Set through ``geometry``'s handle on
    numpy's OpenBLAS, the only BLAS the program loads, as numpy >= 2 wheels,
    numpy 1.x wheels or a system OpenBLAS spell the call (with none of them,
    the default threading stays).  The parent keeps its threads: one process
    alone runs faster on them."""
    lib = _numpy_blas()
    for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "openblas_set_num_threads"):
        if hasattr(lib, symbol):
            getattr(lib, symbol)(1)
            return


def _instance_sets(pair):
    """U, V and U ∩ V of ``pair``, the sets of its rows' scalar solves."""
    return tuple(LinearSubspace(b) for b in (pair.basis_u, pair.basis_v, pair.intersection))


def _grid_task(args):
    """Run the ``(MethodSpec, start_id)`` rows on each instance of a run of
    consecutive instances; returns the records, instance-major, each
    instance's in row order.

    U, V and U ∩ V are built once per instance, its starts drawn once, and
    each distinct spec resolved once per instance.  The rows of one trip
    family (aamr/drm, map/rap, cm, haugazeau, hlwb) on all the task's
    instances run through the row engine as one batch, contiguous per
    instance; each row's bits are those of its scalar solve.
    """
    config, first, pairs, rows = args
    distinct, used = {spec for spec, _ in rows}, {s for _, s in rows}
    sets, specs, starts = [], [], []
    for i, pair in enumerate(pairs, first):
        sets.append(_instance_sets(pair))
        resolved = {spec: spec.resolve(pair.angle) for spec in distinct}
        specs.append([resolved[spec] for spec, _ in rows])
        starts.append({s: start_point(config, i, s) for s in used})
    outcomes = {}  # (instance, row) -> (status, iterations, final_error)
    for build in dict.fromkeys(_TRIPS[spec.kind] for spec, _ in rows):
        picked = [j for j, (spec, _) in enumerate(rows) if _TRIPS[spec.kind] is build]
        keys = [(i, j) for i in range(len(pairs)) for j in picked]
        batch = _batched_pair_sweep([(s, len(picked)) for s in sets],
                                    [starts[i][rows[j][1]] for i, j in keys],
                                    [specs[i][j] for i, j in keys],
                                    config.eps, config.max_iter)
        outcomes.update(zip(keys, zip(*batch)))
    return [RunRecord(first + i, pair.angle, spec.kind, spec.alpha, spec.beta, spec.mu,
                      spec.gamma, spec.lam, start_id, *outcomes[i, j], config.seed)
            for i, pair in enumerate(pairs)
            for j, ((_, start_id), spec) in enumerate(zip(rows, specs[i]))]


# status codes in ``Status`` order
_STATUS_CODES = {s.value: code for code, s in enumerate(Status)}


def _block_stats(runs, n):
    """Median and std of the converged iteration counts (NaN if none
    converged) and the status counts, in ``Status`` order, of each block of
    ``n`` consecutive runs, as arrays with one row per block.  The blocks
    with c converged runs take one ``np.median`` and one ``np.std`` call
    along axis 1 of the (blocks, c) array of those counts in run order,
    which equals those calls on each block alone bit for bit."""
    iterations = np.array([r.iterations for r in runs], dtype=int).reshape(-1, n)
    codes = np.array([_STATUS_CODES[r.status] for r in runs], dtype=int).reshape(-1, n)
    converged = codes == _STATUS_CODES[Status.CONVERGED.value]
    sizes = converged.sum(axis=1)
    median, std = np.full(len(codes), math.nan), np.full(len(codes), math.nan)
    for c in np.unique(sizes[sizes > 0]).tolist():
        blocks = sizes == c
        its = iterations[blocks][converged[blocks]].reshape(-1, c)
        median[blocks] = np.median(its, axis=1)
        std[blocks] = np.std(its, axis=1)
    return median, std, (codes[:, :, None] == np.arange(len(Status))).sum(axis=1)


# ---------------------------------------------------------------------------
# angle profile


def angle_profile(config: SweepConfig, methods=None, instances=None):
    """Median/std iteration counts per (instance, method) over seeded starts.

    Every run projects a fresh norm-10 point onto the instance
    intersection, stopping at true error below ``eps``.  Returns
    ``(runs, records)``.
    """
    methods = default_profile_methods() if methods is None else list(methods)
    instances = make_instances(config) if instances is None else list(instances)
    n = config.n_starts
    runs = _grid_sweep(config, instances, methods, n)
    median, std, counts = _block_stats(runs, n)
    return runs, [ExperimentRecord(runs[j * n].instance_id, runs[j * n].theta, spec, n,
                                   med, sd, dict(zip(_STATUS_CODES, count)), config.seed)
                  for j, (spec, med, sd, count) in enumerate(
                      zip(methods * len(instances), median.tolist(), std.tolist(),
                          counts.tolist()))]


# ---------------------------------------------------------------------------
# the row engine: batched solves on subspace pairs

# The grid sweeps run a few solvers on subspace pairs for dozens to hundreds
# of rows per instance; stacking the rows amortises the interpreter cost of
# every step over the batch, which is what makes the full alpha grid
# desk-runnable.  A batch holds the rows of one trip family (aamr/drm,
# map/rap, cm, haugazeau, hlwb) on one or more instances, contiguous per
# instance, and all of them step together.  Each row is still projected on
# its own, with the gemv calls (and its error and every inner product with
# the dot) that ``LinearSubspace.project``, ``ConvexSet.distance`` and its
# scalar driver make on the bases of the very sets that solve takes, one
# instance's run of rows at a time, so a row's bits are those of its scalar
# solve and do not depend on its batchmates.  A Haugazeau step that finds
# disjoint halfspaces monitors a NaN point, and an overflowed iterate makes
# its error NaN once inf meets inf or 0 in a product (an inf error alone goes
# on, as an inf shadow error does in ``iterate``); so under the exit rule
# (``_batched_pair_sweep``) a failure ends a row at its own index, and a row
# that converged earlier in the block keeps its earlier index.  Subspace
# instances keep the governing sequence bounded, so no divergence check is
# needed here.
#
# A loop trip costs tens of microseconds of call overhead whatever its row
# count, so the loop is lean: rows are (m, 1, n) stacks (CM's (m, 2, 1, n))
# and the per-row parameters are broadcast to that shape once.  A projection
# also pays a few microseconds per instance run, so each run is bound to its
# bases once per layout, a run is projected straight into the shared output,
# and a one-row run makes just the two dot calls of
# ``LinearSubspace.project``.  The stopping error is checked once per block
# of trips: each trip stores its monitored point, then ``_Layout.errors``
# settles the block's points with one gemm per instance run and takes the
# few it cannot settle (as a rule those at and after a row's exit)
# exactly, and a row that meets the exit rule ends at its first such trip
# with that trip's error (its later trips are discarded).  A block from
# trip k runs min(_BLOCK_ROWS // rows, k // 2, _BLOCK_TRIPS) trips: blocks
# grow with the trips already run, so a batch whose rows converge within a
# few dozen iterations discards few trips, and the cap keeps a long run's
# batch ending near its last row's exit.
#
# One matrix product over the batch would give a row bits that depend on the
# batch's size.  Rows independent of their batchmates let the alpha sweep run
# one batch per instance, whose loop lasts as long as its slowest row, not the
# sum of each beta's slowest row, and let a task batch across instances.
# "Bit for bit" is checked on one BLAS kernel, numpy 2.4.6's OpenBLAS on
# SkylakeX (fingerprint ``ace7a91b...``, ``tools/desk_digests.py``); other
# kernels round the gemv and the SVD differently.
#
# Measured and left out, one line each (the record holds the numbers):
#   - a batched or transposed gemm, or ``np.inner``, for the trips'
#     projections: the per-row bits matched in 1 of 88 shape cases
#     (CHANGES.md), and 0 of 76 and 0 of 256 rows (ROADMAP);
#   - threads over the two halves of a batch: they did not overlap, 0.457
#     against 0.461 s (CHANGES.md);
#   - zero-padding the instances' bases to one width, to project all
#     instances in one stacked call: 659 of 720 projections moved bits
#     (BENCH_18.json);
#   - ``(m, 1, 1)`` coefficients in place of full-shape ones: ``profile``
#     +2.6 %, ``sweep`` +5.7 % (BENCH_18.json);
#   - ``_BLOCK_ROWS`` 512 / 1024: ``profile`` +3.7 % / +11.6 % for ``sweep``
#     −2.9 % / −5.0 % (BENCH_18.json);
#   - a phased engine running every trip family of a task in one batch with
#     fused projections: run calls 10.0k → 4.1k a ``profile`` round, but
#     ``angle_profile`` only −5 % (BENCH_20.json);
#   - skipping the checks a nonexpansive bound rules out: choosing the rows
#     due for a check cost 108 ms against 93 ms saved (BENCH_20.json);
#   - a two-gemm screen with a per-row Python fallback gained nothing, and
#     sending only each row's first unsettled point to the exact path cost
#     8 % at eps 1e-10 (CHANGES.md, BENCH_25.json);
#   - caching ``MethodSpec.display()``: ``_profile_report`` calls it 420
#     times a desk ``angle-profile``, so only perfbench's own report copy
#     gained (BENCH_18.json);
#   - sizing grid tasks by the largest trip family: ``angle_profile`` ×1.014,
#     faster in 26 of 60 pairs (CHANGES.md);
#   - the AAMR/DR trip calling ``operators.aamr_update``, for 2 more lines:
#     the alpha and beta sweeps ×1.041, faster in 4 of 20 pairs (CHANGES.md);
#   - one gemm kernel shared by the rows and the scalar solves: a row's gemm
#     bits depend on the stack's height and the row's place in it, in 3 to 24
#     of 27 (height, offset) cases per shape on six (n, d) shapes, under
#     SkylakeX and Haswell alike (ROADMAP).

# monitored points per block, and trips per block (the rule above)
_BLOCK_ROWS = 256
_BLOCK_TRIPS = 32

# The stopping check's screen.  The exact error of a monitored point x of a
# row whose instance has W = U ∩ V with basis B (n × d) is its scalar
# solve's e = fl(sqrt(fl(g·g))), g = fl(x − fl(B fl(Bᵀx))), taken with gemv
# and dot calls.  The screen takes ‖x‖² and ‖xB‖² instead, with one gemm
# per instance run, and only "e ≥ eps" is ever read from it: a point is
# settled when fl(fl(‖x‖²) − L) ≥ fl(‖fl(xB)‖²), where
# L = fl(max(eps², 2⁻⁹⁶⁹) + m·fl(‖x‖²)) with the margin m below, and every
# other point gets e exactly.  So no screened value reaches an output, and
# every status, count and final error keeps the bits of its scalar solve.
#
# The margin.  With u = 2⁻⁵³, γ_k = ku/(1 − ku), N = ‖x‖², η ≥ ‖BᵀB − I‖₂
# and τ = 1 + η (so ‖B‖₂² ≤ τ, ‖B‖_F ≤ √(dτ) and ‖x − BBᵀx‖ ≤ τ‖x‖), and a
# dot product of length k erring by at most γ_k·|a|ᵀ|b| in any summation
# order, to first order:
#   - the screen's fl(‖x‖²) − fl(‖fl(xB)‖²) errs from A = N − ‖Bᵀx‖² by
#     γ_n N (‖x‖²), 2√d τ γ_n N (the gemm) and γ_d τ N (its squares), and
#     the subtraction of L rounds by at most uN;
#   - A differs from the true squared error G = ‖x − BBᵀx‖² =
#     A + (Bᵀx)ᵀ(BᵀB − I)(Bᵀx) by at most ητN;
#   - the exact path's Bᵀx and B(·) move g by √d τ (γ_n + γ_d)‖x‖ and its
#     subtraction by uτ‖x‖, so fl(g·g) errs from G by
#     2τ(√d τ (γ_n + γ_d) + uτ) N + γ_n τ² N.
# Summed, the screen and fl(g·g) differ by at most κN with
#   κ = τ²((2 + 4√d) γ_n + (1 + 2√d) γ_d + 4u) + ητ,
# and m = 2κ: the doubling covers the second-order terms, fl(‖x‖²) in place
# of N and the rounding of L itself (about 3u·L, where L ≤ fl(‖x‖²) and
# the spare κN is at least 4uN).  A settled point thus has fl(g·g) ≥ eps²,
# and as sqrt rounds monotonically, e ≥ eps.  η is the measured
# ‖fl(BᵀB) − I‖_F plus that product's own rounding, γ_n d τ ≤ 2ndu·τ.
# The bound needs no overflow and no underflow.  A settled point has
# fl(‖x‖²) ≥ L ≥ 2⁻⁹⁶⁹ = tiny/u, so an underflowed product (at most u·tiny)
# and any eps² below the normal range stay below u²N; and it has a finite
# fl(‖x‖²), so no value of its exact path overflows: an inf ‖x‖² makes L
# inf and the difference NaN, and a NaN compares false.
#
# In practice: at n = 50 and d = 25 the margin is about 3e-13·‖x‖², some
# 3e-11 for the sweeps' norm-10 starts against eps² = 1e-6, so only the
# points at and after a row's exit go the exact way.  Below eps ≈ 5e-6 at
# norm-10 starts the margin exceeds eps², and every point whose error lies
# between eps and that bound is taken exactly.  The screen is tested by
# ``test_rows_stopping_within_rounding_of_eps_equal_scalar_solves``, which
# puts errors 2⁻⁴⁰ (relative) below, at and above eps on points of norm 1e-3
# to 1e6; with the margin at 0, or at 1e-3 of its value, it fails for all
# seven kinds.
_SCREEN_FLOOR = np.finfo(float).tiny / (np.finfo(float).eps / 2)


def _screen_margin(basis):
    """The screen margin m of the instance whose U ∩ V has the basis
    ``basis``, as derived above."""
    n, d = basis.shape
    u = np.finfo(float).eps / 2
    defect = float(np.linalg.norm(basis.T @ basis - np.eye(d)))
    eta = defect + 2 * n * d * u * (1.0 + defect)
    tau = 1.0 + eta
    gamma_n, gamma_d, root_d = n * u / (1 - n * u), d * u / (1 - d * u), math.sqrt(d)
    kappa = tau ** 2 * ((2 + 4 * root_d) * gamma_n + (1 + 2 * root_d) * gamma_d
                        + 4 * u) + eta * tau
    return 2.0 * kappa


def _row_dots(A, B):
    """Inner product of every pair of rows of the (m, 1, n) stacks ``A`` and
    ``B``, one dot per row, as an (m, 1, 1) stack."""
    return np.matmul(A, B.transpose(0, 2, 1))


class _Layout:
    """The instance of each active row of a batch, as runs of consecutive
    rows of one instance; projects every row with the bases of its
    instance's sets (U, V, U ∩ V), read once here, one run at a time, and
    takes the stopping errors of a block."""

    def __init__(self, sets, owner):
        self.bases = [tuple(s.basis for s in triple) for triple in sets]
        self.margins = np.array([_screen_margin(b[2]) for b in self.bases])
        self._place(owner)

    def _place(self, owner):
        """Bind each set's runs to their bases: ``runs[which]`` lists
        ``(a, b, basis, basis.T)`` per run of rows ``a:b`` (0: U, 1: V,
        2: U ∩ V); ``margin`` holds each row's screen margin."""
        self.owner = owner
        self.margin = self.margins[owner]
        cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        spans = [(a, b, self.bases[owner[a]])
                 for a, b in zip([0] + cuts, cuts + [owner.size])]
        self.runs = [[(a, b, bases[which], bases[which].T) for a, b, bases in spans]
                     for which in range(3)]

    def keep(self, rows):
        """Keep the rows that the mask ``rows`` selects."""
        self._place(self.owner[rows])

    def project(self, M, which):
        """Each row of the (rows, 1, n) stack ``M`` projected with its
        instance's basis ``which`` (0: U, 1: V, 2: U ∩ V).

        The runs are projected straight into one output, run by run, with one
        gemv pair per row; a one-row run takes the two ``dot`` calls of
        ``LinearSubspace.project``, which cost less than two stacked
        ``matmul`` calls (1.7 against 3.0 µs at n = 50).  Each run's bases
        are bound in ``runs``, so a run pays no lookup, helper call or fresh
        transpose view.
        """
        out = np.empty_like(M)
        matmul = np.matmul
        for a, b, basis, basis_t in self.runs[which]:
            if b - a == 1:
                basis.dot(basis_t.dot(M[a, 0]), out=out[a, 0])
            else:
                matmul(matmul(M[a:b], basis), basis_t, out=out[a:b])
        return out

    def errors(self, block, eps, last):
        """The stopping errors of the (rows, trips, 1, n) block of monitored
        points, as a (rows, trips) array that the exit rule reads as the
        exact errors: +inf at a point the screen settles (error at least
        ``eps``) and the exact error at every other point, taken in one
        call; None if the screen settles every point.  On the budget's
        ``last`` block each row's last point is taken exactly too, so that a
        row that does not end there gets its final error."""
        rows, trips, _, n = block.shape
        flat = block.reshape(rows * trips, n)
        squares = np.einsum("ij,ij->i", flat, flat)
        kept = np.empty_like(squares)  # ‖x B‖², one gemm per instance run
        for a, b, basis, _ in self.runs[2]:
            xb = np.matmul(flat[a * trips:b * trips], basis)
            np.einsum("ij,ij->i", xb, xb, out=kept[a * trips:b * trips])
        squares, kept = squares.reshape(rows, trips), kept.reshape(rows, trips)
        # the comparison is False at a NaN, and an inf ‖x‖² gives inf - inf
        limit = max(eps * eps, _SCREEN_FLOOR) + self.margin[:, None] * squares
        pending = ~(squares - limit >= kept)
        if last:
            pending[:, -1] = True
        elif not pending.any():
            return None
        # the pending points, row by row, projected as their rows would be
        r, t = np.nonzero(pending)
        points, sub = block[r, t], copy.copy(self)
        sub._place(self.owner[r])
        errs = np.full((rows, trips), np.inf)
        gaps = points - sub.project(points, 2)
        errs[r, t] = np.sqrt(_row_dots(gaps, gaps)[:, 0, 0])
        return errs


def _coefficients(values, ones):
    """One coefficient per row, broadcast to the shape of ``ones``."""
    return np.asarray(values, dtype=float).reshape((-1,) + (1,) * (ones.ndim - 1)) * ones


# A trip family's builder takes the starts Q (an (m, 1, n) stack), the
# resolved specs and the batch's ``_Layout`` (which projects the active
# rows); it returns the initial state, the per-row coefficients and the trip
# ``(X, k, *coefficients) -> (monitored point, next state)``.


def _reflection_rows(Q, specs, layout):
    """AAMR rows (``aamr_solve``: the modified-reflection update on the
    q-shifted sets, monitoring ``P_U(x + q)``) and DR rows (``dr_solve``:
    beta = 1 on the unshifted sets, monitoring ``P_U(x)``); both project
    ``x + shift`` with a per-row shift of ``q`` or ``0``."""
    project = layout.project
    ones = np.ones_like(Q)
    a = _coefficients([s.alpha for s in specs], ones)
    betas = _coefficients([1.0 if s.kind == "drm" else s.beta for s in specs], ones)

    def trip(X, k, a, one_minus_a, two_b, shift):
        # the operations of ``aamr_update``, in its order, on fresh temporaries
        pu = project(X + shift, 0)
        y = pu - shift
        y *= two_b
        y -= X
        z = project(y + shift, 1)
        z -= shift
        z *= two_b
        z -= y
        z *= a
        out = one_minus_a * X
        out += z
        return pu, out

    # an AAMR row's shift is its q, which is also its start
    return Q, [a, 1.0 - a, 2.0 * betas, np.where(betas == 1.0, 0.0, Q)], trip


def _projection_rows(Q, specs, layout):
    """Relaxed alternating projections ``x <- (1 - mu) x + mu P_V(P_U x)``,
    monitoring x itself, as in ``rap_solve`` (``map_solve`` is mu = 1)."""
    project = layout.project
    a = _coefficients([1.0 if s.kind == "map" else s.mu for s in specs],
                      np.ones_like(Q))

    def trip(X, k, a, one_minus_a):
        return X, one_minus_a * X + a * project(project(X, 0), 1)

    return Q, [a, 1.0 - a], trip


def _cm_rows(Q, specs, layout):
    """Combettes' recurrence (``cm_recurrence``) from the tiled start: the
    state of a row is its two blocks, an (m, 2, 1, n) stack, and block means
    are ``np.add.reduce(., axis=1) / 2``, as in ``Diagonal.mean``."""
    project = layout.project
    Z = np.stack([Q, Q], axis=1)
    ones = np.ones_like(Z)
    gamma = _coefficients([s.gamma for s in specs], ones)
    a = _coefficients([s.lam for s in specs], ones) / 2.0

    def trip(Z, k, gamma_q, gamma_1, a, one_minus_a):
        Y = (Z + gamma_q) / gamma_1
        pc = np.stack([project(Y[:, 0], 0), project(Y[:, 1], 1)], axis=1)
        w = 2.0 * pc - Z
        reflected = 2.0 * (np.add.reduce(w, axis=1, keepdims=True) / 2) - w
        return np.add.reduce(pc, axis=1) / 2, one_minus_a * Z + a * reflected

    return Z, [gamma * Z, gamma + 1.0, a, 1.0 - a], trip


def _haugazeau_step(Q, X, P):
    """Row form of ``solvers._haugazeau_project(q, x, p)`` on (m, 1, n)
    stacks: each row's branch is chosen from its own dot products.  Returns
    the next iterates and the rows whose halfspaces are disjoint, which keep
    their X."""
    d_xy, d_yz, step = Q - X, X - P, P - X
    pi, mu, nu = _row_dots(d_xy, d_yz), _row_dots(d_xy, d_xy), _row_dots(d_yz, d_yz)
    mu_nu = mu * nu
    rho = mu_nu - pi * pi
    flat = rho <= 1e-14 * np.maximum(mu_nu, 1e-300)
    any_flat = flat.any()
    if any_flat:
        # the other rows have nu > 0 and rho > 0, so no division by 0 is kept
        nu, rho = np.where(flat, 1.0, nu), np.where(flat, 1.0, rho)
    # nearly every trip has no flat row and no row on the pi * nu >= rho
    # branch, so that branch is computed only when some row takes it
    X_next = X + (nu / rho) * (pi * d_xy + mu * step)
    far = pi * nu >= rho
    if far.any():
        X_next = np.where(far, Q + (1.0 + pi / nu) * step, X_next)
    if not any_flat:  # so no row is disjoint either
        return X_next, flat.ravel()
    disjoint = flat & ~(pi >= 0.0)
    return np.where(flat, np.where(disjoint, X, P), X_next), disjoint.ravel()


def _haugazeau_rows(Q, specs, layout):
    """Haugazeau's anchored steps (``haugazeau_solve``), monitoring x: the
    parity ``k % 2`` is shared by all rows, and a row whose projection
    returned it unchanged takes its projection onto the other set instead.
    A row whose step finds disjoint halfspaces monitors a NaN point at k,
    which the engine's exit rule reads as a numerical failure at k."""
    def trip(X, k, Q):
        P = layout.project(X, k % 2)
        fall_back = (P == X).all(axis=(1, 2), keepdims=True)
        if fall_back.any():
            P = np.where(fall_back, layout.project(X, (k + 1) % 2), P)
        X_next, disjoint = _haugazeau_step(Q, X, P)
        if disjoint.any():
            return np.where(disjoint[:, None, None], np.nan, X), X_next
        return X, X_next

    return Q, [Q], trip


def _hlwb_rows(Q, specs, layout):
    """Anchored projections ``x <- q/(k+2) + (1 - 1/(k+2)) P(x)`` cycling from
    V (``hlwb_solve`` on the pair), monitoring x; the weight is shared by all
    rows."""
    def trip(X, k, Q):
        lam = 1.0 / (k + 2)
        return X, lam * Q + (1.0 - lam) * layout.project(X, (k + 1) % 2)

    return Q, [Q], trip


# each kind's trip family; a batch holds the rows of one family
_TRIPS = {"aamr": _reflection_rows, "drm": _reflection_rows,
          "map": _projection_rows, "rap": _projection_rows, "cm": _cm_rows,
          "haugazeau": _haugazeau_rows, "hlwb": _hlwb_rows}


def _batched_pair_sweep(segments, q_rows, specs, eps, max_iter):
    """Solve one row per start of ``q_rows`` with its resolved spec in
    ``specs``, on the subspace pair of its instance, until its monitored
    point lies within ``eps`` of U ∩ V.

    ``segments`` lists ``(sets, rows)`` per instance: the sets (U, V, U ∩ V)
    that its rows must equal, as ``_instance_sets`` builds them, and the
    number of consecutive rows posed on it.  All specs belong to one trip
    family of ``_TRIPS``.  A row ends at its first index whose monitored
    error is not at least ``eps``: converged if the error is below ``eps``,
    a numerical failure if it is NaN; a row that never ends exhausts its
    budget.  Returns parallel lists of (status string, iterations,
    final_error), each those of ``solve_best_approximation(spec, sets[:2],
    q)`` under a true-error stop on ``sets[2]``.

    The rows run in blocks of trips, whose errors ``_Layout.errors`` screens
    as the notes above say, so no screened value reaches an output.

    Only each set's ``basis`` B is read, and a row is projected as B(Bᵀx),
    so the match holds on any sets whose ``project`` is that map, such as
    the tests' ``_Linear`` on bases that need not be orthonormal, save one
    case: an inf error does not end a row, so a row whose iterate overflows
    to ±inf without a NaN error, which only a non-orthonormal B can cause,
    runs on past its scalar solve's failure index.
    """
    Q = np.array(q_rows, dtype=float)
    m, n = Q.shape
    Q = Q.reshape(m, 1, n)
    layout = _Layout([sets for sets, _ in segments],
                     np.repeat(np.arange(len(segments)), [rows for _, rows in segments]))
    X, per_row, trip = _TRIPS[specs[0].kind](Q, specs, layout)
    # at most _BLOCK_ROWS points, or one per row: about 100 KB at n = 50
    buffer = np.empty(max(_BLOCK_ROWS, m) * n)

    iterations = np.full(m, max_iter, dtype=int)
    final_error = np.full(m, np.nan)
    active = np.arange(m)
    k = 0  # index of the block's first trip
    while True:
        rows = active.size
        trips = min(max(1, min(_BLOCK_ROWS // rows, k // 2, _BLOCK_TRIPS)),
                    max_iter + 1 - k)
        # row-major, so that each instance run's points form one matrix
        block = buffer[:rows * trips * n].reshape(rows, trips, 1, n)
        for j in range(trips):
            # the update of trip max_iter is computed and never used
            block[:, j], X = trip(X, k + j, *per_row)
        last = k + trips > max_iter
        errs = layout.errors(block, eps, last)
        if errs is None:  # no row ends in this block
            k += trips
            continue
        going = errs >= eps  # False below eps and at NaN
        done = ~going.all(axis=1)
        first = going.argmin(axis=1)
        iterations[active[done]] = k + first[done]
        # a row's error at its end, else at the budget's last trip (inf in
        # the blocks before)
        final_error[active] = errs[np.arange(rows), np.where(done, first, trips - 1)]
        if last or done.all():
            break
        k += trips
        keep = ~done
        active, X = active[keep], X[keep]
        per_row = [c[keep] for c in per_row]
        layout.keep(keep)
    final_error = final_error.tolist()
    status = [(Status.CONVERGED if e < eps else Status.BUDGET_EXHAUSTED if e >= eps
               else Status.NUMERICAL_FAILURE).value for e in final_error]
    return status, iterations.tolist(), final_error


def sweep_alpha(config: SweepConfig, kind: str):
    """Best averaging weight per instance and beta (ties go to the smaller
    alpha).

    The grid keeps the alphas in the method's range (drm drops alpha = 1);
    an emptied grid raises ``ValueError``.  For ``aamr`` it is swept once per
    ``alpha_sweep_betas`` entry; ``drm`` has no beta.  Each instance's rows,
    beta-major then alpha, run as one batch.  Non-converged runs are
    recorded but excluded from the argmin.  Returns ``(runs, best_records)``.
    """
    if kind not in ("aamr", "drm"):
        raise ValueError("alpha sweep supports the aamr and drm methods")
    params = _METHODS[kind].params
    grid = [a for a in config.alpha_grid if params["alpha"].admits(a)]
    if not grid:
        raise ValueError(f"alpha_grid holds no alpha {kind} takes: "
                         f"alpha must {params['alpha'].interval}")
    betas = config.alpha_sweep_betas if "beta" in params else (None,)
    instances = make_instances(config)
    specs = [[MethodSpec(kind, alpha=a, beta=beta) for a in grid] for beta in betas]
    runs = _grid_sweep(config, instances, [spec for group in specs for spec in group], 1)
    # a run's median is its iteration count if it converged, else NaN
    median = _block_stats(runs, 1)[0].reshape(len(instances), len(betas), len(grid))
    best = [BestAlphaRecord(i, pair.angle, kind, group[0].beta, alpha, int(iterations))
            for i, pair in enumerate(instances)
            for group, medians in zip(specs, median[i].tolist())
            for iterations, alpha in _least_median(medians, [spec.alpha for spec in group])]
    return runs, best


def _least_median(medians, values):
    """``[(median, value)]`` of the least finite median of ``medians``, one per
    entry of ``values`` (ties go to the smaller value); ``[]`` if none is."""
    return sorted((m, v) for m, v in zip(medians, values) if math.isfinite(m))[:1]


# ---------------------------------------------------------------------------
# beta sweep


def sweep_beta(config: SweepConfig):
    """Reflection strength minimizing the median iteration count, per angle
    (ties go to the smaller beta; an instance none of whose blocks of starts
    converged gives no record).

    Returns ``(runs, best_records, fit)`` where ``fit`` is the exponential
    least-squares fit of best beta against angle (None if the fit degenerates)
    together with the residual of the shipped ``recommended_beta`` rule on the
    same data.
    """
    instances = make_instances(config)
    specs = [MethodSpec("aamr", alpha=0.9, beta=beta) for beta in config.beta_grid]
    runs = _grid_sweep(config, instances, specs, config.n_starts)
    median = _block_stats(runs, config.n_starts)[0].reshape(len(instances), len(specs))
    best = [BestBetaRecord(i, pair.angle, beta, least)
            for i, pair in enumerate(instances)
            for least, beta in _least_median(median[i].tolist(), [spec.beta for spec in specs])]
    fit = _fit_beta_curve(best)
    return runs, best, fit


# best-beta records the fit needs: more than its three parameters.  No fit
# either with fewer than 3 distinct angles, with the coarse grid's best b on
# the edge of its bracket, or with a rank-deficient Jacobian at the solution
# (curve_fit's "covariance cannot be estimated")
_FIT_MIN_RECORDS = 4
_FIT_BRACKET = (-10.0, -0.01)


def _fit_beta_curve(best_records) -> BetaFit | None:
    """The least-squares fit of beta = a*exp(b*theta) + c by variable
    projection: for a fixed b, (a, c) is the linear fit of beta on exp(b*theta),
    and b is the best of a 101-point grid refined nine times around its best."""
    thetas = np.array([r.theta for r in best_records])
    betas = np.array([r.best_beta for r in best_records])
    if len(thetas) < _FIT_MIN_RECORDS or len(np.unique(thetas)) < 3:
        return None
    lo, hi = _FIT_BRACKET
    for refinement in range(9):
        b = np.linspace(lo, hi, 101)
        e = np.exp(np.outer(b, thetas))
        de = e - e.mean(axis=1, keepdims=True)
        a = de @ (betas - betas.mean()) / (de * de).sum(axis=1)
        c = betas.mean() - a * e.mean(axis=1)
        best = int(np.argmin(((a[:, None] * e + c[:, None] - betas) ** 2).sum(axis=1)))
        if refinement == 0 and best in (0, len(b) - 1):
            return None
        lo, hi = b[max(best - 1, 0)], b[min(best + 1, len(b) - 1)]
    a, b, c, e = float(a[best]), float(b[best]), float(c[best]), e[best]
    if np.linalg.matrix_rank(np.column_stack([e, a * thetas * e, np.ones_like(e)])) < 3:
        return None
    rms = float(np.sqrt(np.mean((a * e + c - betas) ** 2)))
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


# the rates theory predicts on two lines at angle t; DR's, |1 − α + αe^{2it}|,
# is |cos t + i(2α − 1) sin t| and so cos t bit for bit at α = 1/2
_EXPECTED_RATES = {"map": lambda spec, t: math.cos(t) ** 2,
                   "drm": lambda spec, t: math.hypot(math.cos(t),
                                                     (2 * spec.alpha - 1) * math.sin(t))}


def rate_profile(config: SweepConfig, methods=None):
    """Empirical linear rates on two lines through the origin at each angle
    of ``config.rate_thetas``, from a seeded start (``config.seed``).

    Alternating-projection style methods are traced through their own
    iterates; the Douglas-Rachford trace records the distance of the raw
    iterate to the intersection (its projected shadow oscillates, which makes
    slope fits unstable, while the iterate itself contracts cleanly); the
    modified-reflection method is traced through its shadow.  Every run stops
    at true error 1e-13 or at ``config.max_iter``.  Returns
    ``(runs, rate_records, traces)``: ``traces`` holds the recorded error
    trace of each run, in run order, one per record.
    """
    if methods is None:
        methods = [MethodSpec("map"), MethodSpec("drm", alpha=0.5),
                   MethodSpec("aamr", alpha=0.9, beta=0.7)]
    runs, records, traces = [], [], []
    for t_index, theta in enumerate(config.rate_thetas):
        u, v, target = _planar_lines(theta)
        rng = np.random.default_rng([config.seed, 31, t_index])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        q = _START_NORM * np.array([math.cos(phi), math.sin(phi)])
        for spec in methods:
            resolved = spec.resolve(theta)
            policy = StoppingPolicy.true_error(target, eps=1e-13, record_trace=True,
                                               max_iter=config.max_iter)
            if resolved.kind == "drm":
                # DR is traced through its raw iterate, not its oscillating shadow
                op = DrOperator(u, v, resolved.alpha)
                result = iterate(lambda x, k: (op(x), x), q, policy)
            else:
                result = solve_best_approximation(resolved, [u, v], q,
                                                  policy=policy, theta=theta)
            try:
                rate = estimate_rate(result.trace)
            except ValueError:  # contraction too steep: trace shorter than 20
                rate = math.nan
            rule = _EXPECTED_RATES.get(resolved.kind)
            expected = None if rule is None else rule(resolved, theta)
            runs.append(RunRecord(t_index, theta, resolved.kind, resolved.alpha,
                                  resolved.beta, resolved.mu, resolved.gamma, resolved.lam,
                                  0, result.status.value, result.iterations,
                                  result.final_error, config.seed))
            records.append(RateRecord(theta, resolved.kind, resolved.display(), rate, expected))
            traces.append(list(result.trace))
    return runs, records, traces


# ---------------------------------------------------------------------------
# the sweeps behind ``aamr bench``


@dataclass(frozen=True)
class Sweep:
    """One ``aamr bench`` sweep.  ``run(config, methods)`` reads every input
    but the roster from the ``SweepConfig`` and returns ``(runs, rows,
    charts, lines)``: the records of the ``runs_csv`` file, the rows of the
    ``table_csv`` file under ``header``, the charts as ``(file name, series,
    render_chart keyword arguments)`` and the console summary lines.
    ``methods`` is None for the sweep's default roster; the alpha sweep
    takes only bare kinds, and the beta sweep none.  ``full_scale`` holds
    the SweepConfig overrides of ``--full-scale``, and ``reads`` names every
    SweepConfig field that ``run`` reads."""

    run: object
    runs_csv: str
    table_csv: str
    header: tuple
    full_scale: dict
    reads: tuple


def _profile_report(config, methods):
    runs, records = angle_profile(config, methods=methods)
    rows = [[r.instance_id, r.theta, r.method.display(), r.n_starts,
             r.median_iterations, r.std_iterations,
             *(r.status_counts[s.value] for s in Status), r.seed] for r in records]
    by_label = {}
    for r in records:
        by_label.setdefault(r.method.display(), []).append(r)
    charts = []
    for stat, name in (("median_iterations", "median_vs_angle.svg"),
                       ("std_iterations", "std_vs_angle.svg")):
        series = []
        for label in sorted(by_label):
            pts = sorted((r.theta, getattr(r, stat)) for r in by_label[label]
                         if math.isfinite(getattr(r, stat)))
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


def _alpha_report(config, methods):
    if methods and any(m != MethodSpec(m.kind) for m in methods):
        raise ValueError("the alpha sweep takes bare kinds: it sets alpha and beta itself")
    runs, best = [], []
    for kind in [m.kind for m in methods] if methods else ["aamr"]:
        k_runs, k_best = sweep_alpha(config, kind)
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


def _beta_report(config, methods):
    if methods is not None:
        raise ValueError("the beta sweep takes no methods: it runs aamr at alpha 0.9")
    runs, best, fit = sweep_beta(config)
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
    elif len(best) < _FIT_MIN_RECORDS:
        line = "  fit degenerate: not enough converged instances"
    else:
        line = f"  fit failed: no exponential fit to the best betas of {len(best)} instances"
    series.append(svgplot.Series("shipped rule", list(grid),
                                 [recommended_beta(t) for t in grid],
                                 style="dashed"))
    rows = [[r.instance_id, r.theta, r.best_beta, r.median_iterations] for r in best]
    return runs, rows, [("best_beta.svg", series, dict(
        title="best reflection strength vs angle",
        xlabel="Friedrichs angle (radians)", ylabel="beta"))], [line]


def _rates_report(config, methods):
    runs, records, traces = rate_profile(config, methods)
    # one series per run; a stable sort keeps a repeated method's runs apart
    series = [svgplot.Series(f"{r.label} theta={r.theta:g}",
                             [entry[0] for entry in trace],
                             [entry[1] for entry in trace])
              for r, trace in sorted(zip(records, traces),
                                     key=lambda pair: (pair[0].theta, pair[0].label))]
    lines = []
    for r in records:
        expected = "-" if r.expected_rate is None else f"{r.expected_rate:.4f}"
        lines.append(f"  theta {r.theta:6.3f}  {r.label:20s} rate "
                     f"{r.estimated_rate:.4f}  expected {expected}")
    rows = [[r.theta, r.label, r.estimated_rate, r.expected_rate] for r in records]
    return runs, rows, [("error_vs_iteration.svg", series, dict(
        title="monitored error by iteration", xlabel="iteration",
        ylabel="error", ylog=True))], lines


# one entry per sweep: adding a sweep is adding an entry
SWEEPS = {
    "alpha": Sweep(_alpha_report, "runs_alpha.csv", "best_alpha.csv",
                   ("instance_id", "theta_F", "method", "beta", "best_alpha",
                    "iterations"),
                   dict(n_instances=1000),
                   ("n", "n_instances", "eps", "max_iter", "alpha_grid",
                    "alpha_sweep_betas", "angle_bins", "seed", "jobs")),
    "beta": Sweep(_beta_report, "runs_beta.csv", "best_beta.csv",
                  ("instance_id", "theta_F", "best_beta", "median_iterations"),
                  dict(n_instances=100, n_starts=100, angle_bins=100,
                       beta_grid=tuple(round(0.4 + 0.005 * i, 3)
                                       for i in range(120))),
                  ("n", "n_instances", "n_starts", "eps", "max_iter", "beta_grid",
                   "angle_bins", "seed", "jobs")),
    "angle-profile": Sweep(_profile_report, "runs_angle_profile.csv",
                           "angle_profile.csv",
                           ("instance_id", "theta_F", "method", "n_starts",
                            "median_iterations", "std_iterations", "n_converged",
                            "n_diverged", "n_budget", "n_failed", "seed"),
                           dict(n_instances=100, n_starts=10),
                           ("n", "n_instances", "n_starts", "eps", "max_iter",
                            "angle_bins", "seed", "jobs")),
    "rates": Sweep(_rates_report, "runs_rates.csv", "rates.csv",
                   ("theta", "method", "estimated_rate", "expected_rate"), {},
                   ("max_iter", "seed", "rate_thetas")),
}
