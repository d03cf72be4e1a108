"""Milliseconds per stage of one perfbench ``profile`` angle profile.

Builds the instances of the perfbench ``profile`` workload at ``--seed``
with ``perfbench/workloads.py`` (without writing bytecode there) and times
the stages of ``bench.angle_profile`` on them, with the workload's config
(n = 50, two starts) and the default seven-method roster:

- ``bases_starts``: the orthonormal bases of U, V and U ∩ V, the resolved
  specs and the starts of every instance, as each task builds them;
- ``engine.<family>``: the row engine's batches of one trip family
  (``_batched_pair_sweep`` calls, one per task), timed inside a run of
  ``grid_sweep``;
- ``grid_sweep``: every task, from bases to run records;
- ``aggregate``: the block statistics of the runs (``_block_stats``), from
  which ``angle_profile`` builds its per-(instance, method) records;
- ``runs_csv`` and ``table_csv``: writing the runs CSV and the summary
  table (its rows built beforehand) into a temporary directory;
- ``angle_profile``: the whole call, for reference.

Each figure is the best of ``REPEATS`` runs.  Prints a header and one line
per stage.

Imports ``aamr`` from the ``src/`` directory next to this script and the
workload from ``perfbench/``, so a copy run in another checkout whose
``bench`` has ``_grid_sweep(config, instances, specs, n)``,
``_batched_pair_sweep``, ``_TRIPS`` and ``_block_stats`` measures that tree:

    python3 tools/profile_cost.py [--seed 1]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the perfbench directory as it is

from aamr import Status, bench  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def _best(fn):
    """Best wall time of ``REPEATS`` calls of ``fn``, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _bases_and_starts(config, instances, methods):
    for i, pair in enumerate(instances):
        tuple(bench.LinearSubspace(b).basis
              for b in (pair.basis_u, pair.basis_v, pair.intersection))
        [spec.resolve(pair.angle) for spec in methods]
        [bench.start_point(config, i, s) for s in range(config.n_starts)]


def _engine_families(config, instances, methods):
    """ms per trip family of the row engine, best of ``REPEATS`` runs of
    ``bench._grid_sweep``."""
    sweep = bench._batched_pair_sweep
    spent = {}

    def timed(segments, q_rows, specs, eps, max_iter):
        family = bench._TRIPS[specs[0].kind].__name__.strip("_").removesuffix("_rows")
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
    return {family: 1e3 * seconds for family, seconds in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.Profile(args.seed, tmp)
        workload.setup()
        config, methods, instances = workload.config, workload.methods, workload.instances
        runs, records = bench.angle_profile(config, methods, instances)
        table = [[r.instance_id, r.theta, r.method.display(), r.n_starts,
                  r.median_iterations, r.std_iterations,
                  *(r.status_counts[s.value] for s in Status), r.seed] for r in records]
        header = bench.SWEEPS["angle-profile"].header
        stages = {"bases_starts": _best(lambda: _bases_and_starts(config, instances, methods))}
        stages.update((f"engine.{family}", ms) for family, ms
                      in _engine_families(config, instances, methods).items())
        stages["grid_sweep"] = _best(
            lambda: bench._grid_sweep(config, instances, methods, config.n_starts))
        stages["aggregate"] = _best(lambda: bench._block_stats(runs, config.n_starts))
        stages["runs_csv"] = _best(lambda: bench.write_runs_csv(Path(tmp) / "runs.csv", runs))
        stages["table_csv"] = _best(
            lambda: bench.write_table_csv(Path(tmp) / "table.csv", header, table))
        stages["angle_profile"] = _best(
            lambda: bench.angle_profile(config, methods, instances))
    print("stage                  ms")
    for name, ms in stages.items():
        print(f"{name:18s}  {ms:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
