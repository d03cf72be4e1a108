"""Cost of the row engine per loop trip and per row-iteration.

Runs ``aamr.bench._batched_pair_sweep`` on the bases of the first
``--instances`` pairs of ``make_instances(SweepConfig(n=50, n_instances=3,
angle_bins=240))`` (seed 0; the Friedrichs angle of all three sits at the
0.02 rad floor), with each row count of ``ROWS``, first with AAMR/DR rows,
then with projection rows.  The rows are split into consecutive runs, one
per instance and as even as the count allows (an empty run is left out, so
one row takes one instance), and each row starts at its instance's
alpha-sweep start.  One instance (the default) times one run per
projection; more instances time what each further instance run adds.  The
AAMR/DR rows take seeded alphas and betas (every fifth row is a DR row, the
beta = 1 double reflection); the projection rows take seeded relaxations mu
in (0.5, 1.9) (every fifth row is a MAP row, mu = 1).  The tolerance is 0,
which no row meets, so every row makes exactly ``--trips`` iterations and
every trip carries all rows.

Prints a header and one line per row count: the rows, the microseconds per
trip (wall time over ``--trips``) and per row-iteration (over ``rows *
--trips``), each the best of ``REPEATS`` runs.  The AAMR/DR table goes to
standard output; the projection table, in the same format, follows on
standard error, so standard output keeps its one-table format.

Imports ``aamr`` from the ``src/`` directory next to this script, so a copy
run in another checkout whose driver takes ``(segments, q_rows, specs, eps,
max_iter)`` measures that tree:

    python3 tools/row_cost.py [--trips 2000] [--instances 1]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.dont_write_bytecode = True

from aamr import MethodSpec, bench  # noqa: E402

ROWS = (1, 2, 4, 10, 30, 76)
REPEATS = 5


def _row_cost(pairs, rows, trips, rng, projection):
    if projection:
        specs = [MethodSpec("map") if i % 5 == 4 else MethodSpec("rap", mu=mu)
                 for i, mu in enumerate(rng.uniform(0.5, 1.9, rows))]
    else:
        specs = [MethodSpec("drm", alpha=alpha) if i % 5 == 4
                 else MethodSpec("aamr", alpha=alpha, beta=(0.6, 0.7, 0.8, 0.9)[i % 5])
                 for i, alpha in enumerate(rng.uniform(0.05, 1.0, rows))]
    counts = [rows // len(pairs) + (j < rows % len(pairs)) for j in range(len(pairs))]
    segments = [(bases, count) for (bases, _), count in zip(pairs, counts) if count]
    q_rows = np.concatenate([np.tile(q, (count, 1)) for (_, q), count in zip(pairs, counts)])
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        status, iterations, _ = bench._batched_pair_sweep(segments, q_rows, specs, 0.0, trips)
        best = min(best, time.perf_counter() - start)
    assert iterations == [trips] * rows and set(status) == {"budget_exhausted"}
    return 1e6 * best / trips, 1e6 * best / (rows * trips)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trips", type=int, default=2000)
    parser.add_argument("--instances", type=int, default=1, choices=(1, 2, 3))
    args = parser.parse_args(argv)
    config = bench.SweepConfig(n=50, n_instances=3, angle_bins=240)
    # (U, V and U ∩ V bases, alpha-sweep start) of each instance
    pairs = [(tuple(bench.LinearSubspace(b).basis
                    for b in (pair.basis_u, pair.basis_v, pair.intersection)),
              bench.start_point(config, i, 0))
             for i, pair in enumerate(bench.make_instances(config)[:args.instances])]
    rng = np.random.default_rng(41)
    for out, projection in ((sys.stdout, False), (sys.stderr, True)):
        print("rows  us_per_trip  us_per_row_iter", file=out)
        for rows in ROWS:
            per_trip, per_row_iter = _row_cost(pairs, rows, args.trips, rng, projection)
            print(f"{rows:4d}  {per_trip:11.2f}  {per_row_iter:15.3f}", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
