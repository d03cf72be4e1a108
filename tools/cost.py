"""Seeded layer costs of the ``aamr`` package, one subcommand per layer.

``import [--runs 15]``: start-up cost.  Runs ``import aamr``, ``import
aamr.bench``, ``import aamr.cli``, and ``aamr solve`` (the point (1, 2, 3,
4)) and ``aamr angle`` through ``aamr.cli.main`` on two planes in R^4, each
in ``--runs`` fresh processes; prints per entry the median wall time of a
process, launch to exit, and the median peak RSS it reports at its end
(``resource.getrusage``).  The tool itself loads neither numpy nor ``aamr``
for this subcommand, since on Linux a child reports at least its parent's
peak RSS.

``step [--iters 2000]``: cost of a scalar-path iteration.  Runs every
library driver that takes it on one seeded ``perfbench/families.py``
instance per family (box and kink pairs and triples, an affine pair) and n
in ``DIMS``, under a budget-only stop of ``--iters`` iterations with the
perfbench ``convex`` parameters; prints per (family, n, driver) the
iterations made and the µs per iteration.

``row [--trips 2000] [--instances 1]``: cost of the row engine.  Runs
``bench._batched_pair_sweep`` at tolerance 0 (so every row makes
``--trips`` trips) on the first ``--instances`` (1 to 3) pairs of
``make_instances(SweepConfig(n=50, n_instances=3, angle_bins=240))``, all
at the 0.02 rad floor, with each row count of ``ROWS`` split into
consecutive runs, one per instance and as even as the count allows, each
row starting at its instance's alpha-sweep start; prints the µs per trip
and per row-iteration, and the stopping check's (``bench._Layout.errors``)
µs per monitored point, averaged over all ``REPEATS`` runs; more instances
measure what each further instance run costs a trip.  Seeded AAMR/DR rows go
to standard output, then seeded projection rows (mu in (0.5, 1.9), every
fifth a MAP row), in the same format, to standard error.

``profile [--seed 1]``: ms per stage of the perfbench ``profile`` angle
profile at ``--seed`` (its instances, config and default roster, from
``perfbench/workloads.py``): sets, specs and starts (``bases_starts``); the
row engine per trip family, timed inside ``_grid_sweep``; the whole grid
sweep; the block statistics (``_block_stats``); the runs CSV; the summary
table; and the whole ``angle_profile`` call.  On standard error it then
prints, per trip family and in total, the instance-run projections of one
``angle_profile`` call and the rows they project (``_Layout.project``
counted, the stopping check's exact projections included): a projection
pays a fixed cost per run and a smaller one per row, so these counts set
the engine's floor.

``step``, ``row`` and ``profile`` report the best of ``REPEATS`` runs.
``aamr`` comes from the ``src/`` directory next to this script and the
perfbench modules from ``perfbench/`` (writing no bytecode there), and
``bench`` internals are looked up when a subcommand runs, so a copy run in
another checkout measures that tree.  ``row`` and ``profile`` build each
instance's sets with ``bench._instance_sets``, and ``profile`` needs
``_grid_sweep(config, instances, specs, n)`` and ``_block_stats``, so they
run only in a tree that has them:

    python3 tools/cost.py {import,step,row,profile} [flags]
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 5


def _load():
    """Import numpy, ``aamr`` and the perfbench modules for ``step``, ``row``
    and ``profile``.  ``import`` runs without them: on Linux a child process
    reports at least its parent's peak RSS, which they would raise."""
    global np, MethodSpec, Status, StoppingPolicy, bench, solvers, families, workloads
    sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]
    sys.dont_write_bytecode = True  # leave src/ and perfbench/ as they are
    import numpy as np
    from aamr import MethodSpec, Status, StoppingPolicy, bench, solvers
    import families
    import workloads


def _best(fn):
    """(best wall time in s of ``REPEATS`` calls of ``fn``, the last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# import

PROBLEM = {"dim": 4, "sets": [
    {"type": "subspace", "basis": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]},
    {"type": "subspace", "basis": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]},
]}

# the child's peak RSS goes to stderr, its command output to /dev/null
CHILD = """import resource, sys
sys.path.insert(0, {src!r})
{body}
sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def _import_cost(args):
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "planes_r4.json"
        problem.write_text(json.dumps(PROBLEM))
        cli = "import aamr.cli\nassert aamr.cli.main({!r}) == 0"
        entries = [("import aamr", "import aamr"),
                   ("import aamr.bench", "import aamr.bench"),
                   ("import aamr.cli", "import aamr.cli"),
                   ("aamr solve", cli.format(["solve", str(problem), "--q", "1,2,3,4"])),
                   ("aamr angle", cli.format(["angle", str(problem)]))]
        print("entry               wall_s  peak_rss_mb")
        for label, body in entries:
            code = CHILD.format(src=str(SRC), body=body)
            walls, peaks = [], []
            for _ in range(args.runs):
                start = time.perf_counter()
                child = subprocess.run([sys.executable, "-c", code],
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                       text=True, check=True)
                walls.append(time.perf_counter() - start)
                peaks.append(int(child.stderr) / 1024.0)  # ru_maxrss is in KiB on Linux
            print(f"{label:18s}  {statistics.median(walls):6.3f}  "
                  f"{statistics.median(peaks):11.1f}")


# ---------------------------------------------------------------------------
# step

DIMS = (10, 50, 200)
PAIR_DRIVERS = ("aamr_solve", "dr_solve", "map_solve", "rap_solve",
                "haugazeau_solve", "hlwb_solve", "cm_solve")
TRIPLE_DRIVERS = ("aamr_product_solve", "hlwb_solve", "cm_solve")
# drivers that take the two sets as separate arguments
PAIRWISE = ("aamr_solve", "dr_solve", "map_solve", "rap_solve", "haugazeau_solve")
PARAMETERS = {"aamr_solve": {"alpha": 0.9, "beta": 0.7},
              "aamr_product_solve": {"alpha": 0.9, "beta": 0.7},
              "rap_solve": {"mu": 1.5}}


def _step_cost(args):
    policy = StoppingPolicy.budget_only(max_iter=args.iters)
    print("family     n  driver              iters  us_per_iter")
    for n in DIMS:
        rng = np.random.default_rng([19, n])
        instances = [("box2", families.box_family(rng, n)),
                     ("box3", families.box_family(rng, n, 3)),
                     ("kink2", families.kink_family(rng, n)),
                     ("kink3", families.kink_family(rng, n, 3)),
                     ("affine2", families.affine_family(rng, n, [19, n]))]
        for label, family in instances:
            for name in PAIR_DRIVERS if len(family.sets) == 2 else TRIPLE_DRIVERS:
                fn = getattr(solvers, name)
                sets = family.sets if name in PAIRWISE else (family.sets,)
                seconds, result = _best(lambda: fn(*sets, family.q, policy=policy,
                                                   **PARAMETERS.get(name, {})))
                us = 1e6 * seconds / max(result.iterations, 1)
                print(f"{label:7s}  {n:3d}  {name:18s}  {result.iterations:5d}  {us:11.2f}")


# ---------------------------------------------------------------------------
# row

ROWS = (1, 2, 4, 10, 30, 76)
BETAS = (0.6, 0.7, 0.8, 0.9)  # of the AAMR rows; every fifth row is a DR row


def _row_cost(args):
    config = bench.SweepConfig(n=50, n_instances=3, angle_bins=240)
    # (U, V and U ∩ V, alpha-sweep start) of each instance
    pairs = [(bench._instance_sets(pair), bench.start_point(config, i, 0))
             for i, pair in enumerate(bench.make_instances(config)[:args.instances])]
    rng = np.random.default_rng(41)
    # the stopping check, timed per call: (seconds, monitored points)
    errors, checks = bench._Layout.errors, [0.0, 0]

    def timed(layout, block, eps, last):
        start = time.perf_counter()
        result = errors(layout, block, eps, last)
        checks[0] += time.perf_counter() - start
        checks[1] += block.shape[0] * block.shape[1]
        return result

    bench._Layout.errors = timed
    for out, projection in ((sys.stdout, False), (sys.stderr, True)):
        print("rows  us_per_trip  us_per_row_iter  us_per_check", file=out)
        for rows in ROWS:
            if projection:
                specs = [MethodSpec("map") if i % 5 == 4 else MethodSpec("rap", mu=mu)
                         for i, mu in enumerate(rng.uniform(0.5, 1.9, rows))]
            else:
                specs = [MethodSpec("drm", alpha=alpha) if i % 5 == 4
                         else MethodSpec("aamr", alpha=alpha, beta=BETAS[i % 5])
                         for i, alpha in enumerate(rng.uniform(0.05, 1.0, rows))]
            n = len(pairs)
            counts = [rows // n + (j < rows % n) for j in range(n)]
            segments = [(sets, count) for (sets, _), count in zip(pairs, counts) if count]
            q_rows = np.concatenate([np.tile(q, (count, 1))
                                     for (_, q), count in zip(pairs, counts)])
            checks[:] = [0.0, 0]
            seconds, (status, iterations, _) = _best(lambda: bench._batched_pair_sweep(
                segments, q_rows, specs, 0.0, args.trips))
            assert iterations == [args.trips] * rows and set(status) == {"budget_exhausted"}
            print(f"{rows:4d}  {1e6 * seconds / args.trips:11.2f}  "
                  f"{1e6 * seconds / (rows * args.trips):15.3f}  "
                  f"{1e6 * checks[0] / checks[1]:12.3f}", file=out)


# ---------------------------------------------------------------------------
# profile


def _sets_and_starts(config, instances, methods):
    for i, pair in enumerate(instances):
        bench._instance_sets(pair)
        [spec.resolve(pair.angle) for spec in methods]
        [bench.start_point(config, i, s) for s in range(config.n_starts)]


def _family(specs):
    """The name of the trip family of a batch's ``specs``, e.g. ``cm``."""
    return bench._TRIPS[specs[0].kind].__name__.strip("_").removesuffix("_rows")


def _engine_families(config, instances, methods):
    """ms per trip family of the row engine, best of ``REPEATS`` runs of
    ``bench._grid_sweep``."""
    sweep = bench._batched_pair_sweep
    spent = {}

    def timed(segments, q_rows, specs, eps, max_iter):
        family = _family(specs)
        start = time.perf_counter()
        result = sweep(segments, q_rows, specs, eps, max_iter)
        spent[family] = spent.get(family, 0.0) + time.perf_counter() - start
        return result

    best = {}
    bench._batched_pair_sweep = timed
    try:
        for _ in range(REPEATS):
            spent.clear()
            bench._grid_sweep(config, instances, methods, config.n_starts)
            for family, seconds in spent.items():
                best[family] = min(best.get(family, seconds), seconds)
    finally:
        bench._batched_pair_sweep = sweep
    return {f"engine.{family}": 1e3 * seconds for family, seconds in best.items()}


def _engine_runs(config, methods, instances):
    """Instance-run projections and the rows they project, per trip family,
    in one ``angle_profile`` call, counted by wrapping ``_Layout.project``."""
    sweep, project = bench._batched_pair_sweep, bench._Layout.project
    counts, family = {}, [None]

    def tagged(segments, q_rows, specs, eps, max_iter):
        family[0] = _family(specs)
        return sweep(segments, q_rows, specs, eps, max_iter)

    def counted(layout, M, which):
        tally = counts.setdefault(family[0], [0, 0])
        tally[0] += len(layout.runs[which])
        tally[1] += M.shape[0]
        return project(layout, M, which)

    bench._batched_pair_sweep, bench._Layout.project = tagged, counted
    try:
        bench.angle_profile(config, methods, instances)
    finally:
        bench._batched_pair_sweep, bench._Layout.project = sweep, project
    return counts


def _profile_cost(args):
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.Profile(args.seed, tmp)
        workload.setup()
        config, methods, instances = workload.config, workload.methods, workload.instances
        runs, records = bench.angle_profile(config, methods, instances)
        table = [[r.instance_id, r.theta, r.method.display(), r.n_starts,
                  r.median_iterations, r.std_iterations,
                  *(r.status_counts[s.value] for s in Status), r.seed] for r in records]
        header = bench.SWEEPS["angle-profile"].header
        stages = {"bases_starts": 1e3 * _best(
            lambda: _sets_and_starts(config, instances, methods))[0]}
        stages.update(_engine_families(config, instances, methods))
        for name, fn in (
                ("grid_sweep", lambda: bench._grid_sweep(config, instances, methods,
                                                         config.n_starts)),
                ("aggregate", lambda: bench._block_stats(runs, config.n_starts)),
                ("runs_csv", lambda: bench.write_runs_csv(Path(tmp) / "runs.csv", runs)),
                ("table_csv", lambda: bench.write_table_csv(Path(tmp) / "table.csv",
                                                            header, table)),
                ("angle_profile", lambda: bench.angle_profile(config, methods, instances))):
            stages[name] = 1e3 * _best(fn)[0]
        counts = _engine_runs(config, methods, instances)
    print("stage                  ms")
    for name, ms in stages.items():
        print(f"{name:18s}  {ms:8.3f}")
    print("family        runs     rows", file=sys.stderr)
    for name, (runs, rows) in [*sorted(counts.items()),
                               ("total", [sum(c) for c in zip(*counts.values())])]:
        print(f"{name:10s}  {runs:6d}  {rows:7d}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("import").add_argument("--runs", type=int, default=15)
    commands.add_parser("step").add_argument("--iters", type=int, default=2000)
    row = commands.add_parser("row")
    row.add_argument("--trips", type=int, default=2000)
    row.add_argument("--instances", type=int, default=1, choices=(1, 2, 3))
    commands.add_parser("profile").add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.command == "import" and args.runs < 1:
        parser.error("--runs must be positive")
    if args.command != "import":
        _load()
    {"import": _import_cost, "step": _step_cost, "row": _row_cost,
     "profile": _profile_cost}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
