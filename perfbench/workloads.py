"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, repeats
identical work in :meth:`run_round` (the timed main phase), and checks the
outputs of one round in :meth:`check`.  A round returns a :class:`Round`:
the solver iterations it spent, a digest of its outputs (rounds must agree),
the row-engine work it did, and whatever :meth:`check` needs.  After the
timer stops, :meth:`finish_round` fills in the digest.

Why each workload exists, and why its sizes are what they are, is in
``README.md`` next to this file.
"""

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aamr import (LinearSubspace, Status, StoppingPolicy, bench, geometry,
                  project_intersection_oracle, solvers, svgplot)

import families


def _task_counts(task_iterations) -> dict:
    """Row-engine work of a sweep from its per-task row iteration counts:
    row-iterations, loop trips (the slowest row of each task sets how often
    the batched loop runs) and batch occupancy (useful row-iterations over
    the rows a task carries for all its trips)."""
    row_iterations = sum(sum(t) for t in task_iterations)
    trips = sum(max(t) for t in task_iterations)
    capacity = sum(len(t) * max(t) for t in task_iterations)
    return {"bench.row_iterations": row_iterations, "bench.loop_trips": trips,
            "bench.batch_occupancy": row_iterations / capacity if capacity else 0.0}


@dataclass
class Round:
    """One main-phase pass: solver (or row-engine) iterations, a digest of
    the outputs, the row engine's exact work derived from the pass's own
    outputs (zero outside the sweep), printable details, and what
    :meth:`check` needs."""

    iterations: int
    digest: str = ""
    counts: dict = field(default_factory=lambda: _task_counts([]))
    detail: dict = field(default_factory=dict)
    payload: object = None


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# profile


class Profile:
    """``bench.angle_profile`` with the default seven-method roster, then its
    runs and summary CSVs and the two SVG figures.

    Instances are ``random_subspace_pair`` draws keyed by the seed, two per
    angle, with the Friedrichs angle pinned to the centres of bins 2..19 of
    the 20-bin grid ``make_instances`` uses.  The seed draws dimensions,
    frames, the other principal angles and the starts.
    """

    name = "profile"
    n = 50
    angles = tuple((2 * b + 1) * math.pi / 80 for b in range(2, 20))
    pairs_per_angle = 2
    # Distance of a shadow to the oracle projection, in units of eps.  The
    # true-error rule bounds the distance to U ∩ V by eps; AAMR's shadow also
    # carries a decaying component along U ∩ V, measured at up to 4.6 eps.
    shadow_tol_eps = 20.0

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = Path(out_dir)
        self.config = bench.SweepConfig(n=self.n, n_starts=2, seed=seed)
        self.methods = bench.default_profile_methods()

    def setup(self):
        self.instances = [
            geometry.random_subspace_pair(
                self.n, [self.seed, 11, i],
                target_angle_interval=(theta, theta))
            for i, theta in enumerate(a for a in self.angles
                                      for _ in range(self.pairs_per_angle))]
        self.sets = [(LinearSubspace(p.basis_u), LinearSubspace(p.basis_v),
                      LinearSubspace(p.intersection)) for p in self.instances]

    def run_round(self) -> Round:
        config = self.config
        runs, records = bench.angle_profile(config, methods=self.methods,
                                            instances=self.instances)
        runs_path = self.out / "runs_angle_profile.csv"
        bench.write_runs_csv(runs_path, runs)
        bench.write_table_csv(self.out / "angle_profile.csv", [
            "instance_id", "theta_F", "method", "n_starts", "median_iterations",
            "std_iterations", "n_converged", "n_diverged", "n_budget",
            "n_failed", "seed",
        ], [[r.instance_id, r.theta, r.method.display(), r.n_starts,
             r.median_iterations, r.std_iterations,
             r.status_counts["converged"], r.status_counts["diverged"],
             r.status_counts["budget_exhausted"],
             r.status_counts["numerical_failure"], r.seed] for r in records])
        labels = sorted({r.method.display() for r in records})
        for stat in ("median_iterations", "std_iterations"):
            series = []
            for label in labels:
                pts = sorted((r.theta, getattr(r, stat)) for r in records
                             if r.method.display() == label
                             and math.isfinite(getattr(r, stat)))
                series.append(svgplot.Series(label, [p[0] for p in pts],
                                             [max(p[1], 0.5) for p in pts]))
            svgplot.render_chart(self.out / f"{stat}_vs_angle.svg", series,
                                 title=f"{stat} to reach eps={config.eps:g}",
                                 xlabel="Friedrichs angle (radians)",
                                 ylabel="iterations", ylog=True)
        return Round(sum(r.iterations for r in runs), payload=runs)

    def finish_round(self, rnd: Round):
        digest = _sha256(self.out / "runs_angle_profile.csv")
        rnd.digest = digest
        rnd.detail = {"runs_angle_profile.csv sha256": digest}

    def check(self, rnd: Round) -> list:
        """Re-solve every run through ``solve_best_approximation``: status
        and iteration count must match the runs CSV exactly, and the shadow
        must lie within ``shadow_tol_eps * eps`` of the closed-form
        projection onto U ∩ V."""
        config = self.config
        runs = iter(rnd.payload)
        results = []
        for i, (pair, (u, v, target)) in enumerate(zip(self.instances, self.sets)):
            policy = StoppingPolicy.true_error(target, eps=config.eps,
                                               max_iter=config.max_iter)
            for spec in self.methods:
                resolved = spec.resolve(pair.angle)
                for start_id in range(config.n_starts):
                    run = next(runs)
                    q = bench.start_point(config, i, start_id)
                    res = solvers.solve_best_approximation(
                        resolved, [u, v], q, policy=policy, theta=pair.angle)
                    oracle = project_intersection_oracle([u, v], q)
                    results.append(
                        res.status.value == run.status
                        and res.iterations == run.iterations
                        and float(np.linalg.norm(res.shadow - oracle))
                        <= self.shadow_tol_eps * config.eps)
        return results


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """``bench.sweep_alpha`` (aamr, four betas) and ``bench.sweep_beta``,
    then their runs and best-parameter CSVs and the two SVG figures.

    With 240 angle bins the first three bins of ``make_instances`` collapse
    to their 0.02 rad floor, so all three instances sit at the smallest angle
    of the desk grid for every seed.  There the small-alpha rows keep the
    batched loop running long after the other rows have converged.
    """

    name = "sweep"
    alpha_grid = tuple(round(0.05 * i, 2) for i in range(2, 21))
    check_rows = 6

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = Path(out_dir)
        self.config = bench.SweepConfig(
            n=50, n_instances=3, n_starts=2, angle_bins=240, seed=seed,
            alpha_grid=self.alpha_grid,
            alpha_sweep_betas=(0.96, 0.97, 0.98, 0.99),
            beta_grid=(0.8, 0.85, 0.9, 0.95, 0.99))

    def setup(self):
        # sweep_alpha and sweep_beta draw these instances again themselves
        self.instances = bench.make_instances(self.config)
        self.sets = [(LinearSubspace(p.basis_u), LinearSubspace(p.basis_v),
                      LinearSubspace(p.intersection)) for p in self.instances]

    def run_round(self) -> Round:
        config = self.config
        alpha_runs, best_alpha = bench.sweep_alpha(config, kind="aamr")
        beta_runs, best_beta, fit = bench.sweep_beta(config)
        bench.write_runs_csv(self.out / "runs_alpha.csv", alpha_runs)
        bench.write_table_csv(self.out / "best_alpha.csv",
                              ["instance_id", "theta_F", "method", "beta",
                               "best_alpha", "iterations"],
                              [[r.instance_id, r.theta, r.method, r.beta,
                                r.best_alpha, r.iterations] for r in best_alpha])
        bench.write_runs_csv(self.out / "runs_beta.csv", beta_runs)
        bench.write_table_csv(self.out / "best_beta.csv",
                              ["instance_id", "theta_F", "best_beta",
                               "median_iterations"],
                              [[r.instance_id, r.theta, r.best_beta,
                                r.median_iterations] for r in best_beta])
        series = [svgplot.Series(f"aamr beta={beta:g}",
                                 [r.theta for r in best_alpha if r.beta == beta],
                                 [r.best_alpha for r in best_alpha if r.beta == beta],
                                 style="scatter")
                  for beta in config.alpha_sweep_betas]
        svgplot.render_chart(self.out / "best_alpha.svg", series,
                             title="best averaging weight vs angle",
                             xlabel="Friedrichs angle (radians)",
                             ylabel="best alpha")
        thetas = [r.theta for r in best_beta]
        series = [svgplot.Series("best beta", thetas,
                                 [r.best_beta for r in best_beta], style="scatter"),
                  svgplot.Series("shipped rule", thetas,
                                 [solvers.recommended_beta(t) for t in thetas],
                                 style="dashed")]
        if fit is not None:
            series.append(svgplot.Series("fit", thetas, list(fit(thetas))))
        svgplot.render_chart(self.out / "best_beta.svg", series,
                             title="best reflection strength vs angle",
                             xlabel="Friedrichs angle (radians)", ylabel="beta")
        tasks = {}
        for r in alpha_runs:
            tasks.setdefault(("alpha", r.instance_id, r.beta), []).append(r.iterations)
        for r in beta_runs:
            tasks.setdefault(("beta", r.instance_id), []).append(r.iterations)
        counts = _task_counts(list(tasks.values()))
        return Round(counts["bench.row_iterations"], counts=counts,
                     payload=(alpha_runs, beta_runs))

    def finish_round(self, rnd: Round):
        digests = {name: _sha256(self.out / name)
                   for name in ("runs_alpha.csv", "runs_beta.csv")}
        rnd.digest = "".join(digests.values())
        rnd.detail = {f"{name} sha256": d for name, d in digests.items()}

    def check(self, rnd: Round) -> list:
        """Re-solve a seeded sample of rows through
        ``solve_best_approximation``; status and iteration count must match
        the row engine exactly."""
        config = self.config
        alpha_runs, beta_runs = rnd.payload
        rows = list(alpha_runs) + list(beta_runs)
        rng = np.random.default_rng([self.seed, 5])
        results = []
        for index in rng.choice(len(rows), size=self.check_rows, replace=False):
            row = rows[int(index)]
            u, v, target = self.sets[row.instance_id]
            policy = StoppingPolicy.true_error(target, eps=config.eps,
                                               max_iter=config.max_iter)
            spec = solvers.MethodSpec("aamr", alpha=row.alpha, beta=row.beta)
            q = bench.start_point(config, row.instance_id, row.start_id)
            res = solvers.solve_best_approximation(spec, [u, v], q, policy=policy)
            results.append(res.status.value == row.status
                           and res.iterations == row.iterations)
        return results


# ---------------------------------------------------------------------------
# convex


class Convex:
    """Many short library solves on seeded known-answer families.

    Per dimension n in {10, 50, 200} and per draw: a box pair and a box
    triple, an affine pair, a pair and a triple of balls/halfspaces/
    hyperplanes meeting at a known point, and a disjoint pair with a known
    gap.  Pairs go to ``aamr_solve`` and ``cm_solve``, triples to
    ``aamr_product_solve`` and ``cm_solve``; affine pairs also go to
    ``haugazeau_solve``, ``dr_solve``, ``map_solve`` and ``rap_solve``;
    disjoint pairs go to ``aamr_solve`` and must come back DIVERGED.
    Stopping is residual with the command line's defaults.
    """

    name = "convex"
    dims = (10, 50, 200)
    draws = 8
    alpha, beta = 0.9, 0.7
    eps = 1e-6
    max_iter = 100_000
    # Converged shadows were measured within 2e-7 * scale of the answer and
    # the gap estimate within 4e-4 * |v|; both tolerances leave headroom.
    answer_tol = 1e-5
    gap_tol = 1e-2
    # Divergence is declared once |x_k| passes this multiple of the instance
    # scale; |x_k| grows by about 2 alpha beta |v| per step.
    divergence_scale = 20.0

    pairwise = ("aamr_solve", "haugazeau_solve", "dr_solve", "map_solve", "rap_solve")
    parameters = {"aamr_solve": {"alpha": alpha, "beta": beta},
                  "aamr_product_solve": {"alpha": alpha, "beta": beta},
                  "rap_solve": {"mu": 1.5}}

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        plan = []
        for n in self.dims:
            rng = np.random.default_rng([self.seed, 7, n])
            for draw in range(self.draws):
                pair = families.box_family(rng, n)
                triple = families.box_family(rng, n, 3)
                affine = families.affine_family(rng, n, [self.seed, 7, n, draw])
                plan += [(pair, ("aamr_solve", "cm_solve")),
                              (triple, ("aamr_product_solve", "cm_solve")),
                              (affine, ("aamr_solve", "cm_solve", "haugazeau_solve",
                                        "dr_solve", "map_solve", "rap_solve"))]
                pair = families.kink_family(rng, n)
                triple = families.kink_family(rng, n, 3)
                gap = families.gap_family(rng, n)
                plan += [(pair, ("aamr_solve", "cm_solve")),
                              (triple, ("aamr_product_solve", "cm_solve")),
                              (gap, ("aamr_solve",))]
        policy = StoppingPolicy.residual(eps=self.eps, max_iter=self.max_iter)
        self.tasks = []
        for family, names in plan:
            if family.gap:
                task_policy = StoppingPolicy.residual(
                    eps=self.eps, max_iter=self.max_iter,
                    divergence_threshold=self.divergence_scale * family.scale)
            else:
                task_policy = policy
            self.tasks += [(name, family, task_policy) for name in names]

    def _solve(self, name, family, policy):
        fn = getattr(solvers, name)      # looked up per call, so tracing sees it
        args = (*family.sets, family.q) if name in self.pairwise else (family.sets, family.q)
        return fn(*args, policy=policy, **self.parameters.get(name, {}))

    def run_round(self) -> Round:
        clock = time.perf_counter
        results, latencies = [], []
        for task in self.tasks:
            start = clock()
            res = self._solve(*task)
            latencies.append(clock() - start)
            results.append(res)
        return Round(sum(r.iterations for r in results), payload=results,
                     detail={"latencies": latencies})

    def finish_round(self, rnd: Round):
        h = hashlib.sha256()
        for res in rnd.payload:
            h.update(f"{res.status.value},{res.iterations};".encode())
            h.update(res.shadow.tobytes())
            h.update(res.drift.tobytes())
        rnd.digest = h.hexdigest()

    def check(self, rnd: Round) -> list:
        """Converged solves must land within ``answer_tol * scale`` of the
        known projection; disjoint pairs must be DIVERGED with
        ``drift / (2 alpha beta)`` within ``gap_tol * |v|`` of the gap
        vector ``v``."""
        results = []
        for (_, family, _), res in zip(self.tasks, rnd.payload):
            if family.gap:
                estimate = res.drift / (2.0 * self.alpha * self.beta)
                ok = (res.status is Status.DIVERGED
                      and np.linalg.norm(estimate - family.answer)
                      <= self.gap_tol * np.linalg.norm(family.answer))
            else:
                ok = (res.status is Status.CONVERGED
                      and np.linalg.norm(res.shadow - family.answer)
                      <= self.answer_tol * family.scale)
            results.append(bool(ok))
        return results


WORKLOADS = {w.name: w for w in (Profile, Sweep, Convex)}
