"""Cost of one scalar-path iteration, per driver and per set family.

Builds one seeded instance of each family with ``perfbench/families.py``
(``box_family`` and ``kink_family`` as pairs and triples, ``affine_family``,
which makes pairs only) at each n in ``DIMS``, and runs every library driver
that takes the instance on it under a budget-only stop of ``--iters``
iterations: on pairs ``aamr_solve``, ``dr_solve``, ``map_solve``,
``rap_solve``, ``haugazeau_solve``, ``hlwb_solve`` and ``cm_solve``; on
triples ``aamr_product_solve``, ``hlwb_solve`` and ``cm_solve``.  The
parameters are those of the perfbench ``convex`` workload (alpha 0.9, beta
0.7, rap mu 1.5, cm's defaults).

Prints a header and one line per (family, n, driver): the iterations the
solve made (the budget, unless a step failed or the iterate diverged) and
the microseconds per iteration, the wall time of the solve over its
iterations, best of ``REPEATS`` runs.

Imports ``aamr`` from the ``src/`` directory next to this script and the
families from ``perfbench/`` (without writing bytecode there), so a copy run
in another checkout measures that tree:

    python3 tools/step_cost.py [--iters 2000]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the perfbench directory as it is

from aamr import StoppingPolicy, solvers  # noqa: E402
import families  # noqa: E402

DIMS = (10, 50, 200)
REPEATS = 5
PAIR_DRIVERS = ("aamr_solve", "dr_solve", "map_solve", "rap_solve",
                "haugazeau_solve", "hlwb_solve", "cm_solve")
TRIPLE_DRIVERS = ("aamr_product_solve", "hlwb_solve", "cm_solve")
# drivers that take the two sets as separate arguments
PAIRWISE = ("aamr_solve", "dr_solve", "map_solve", "rap_solve", "haugazeau_solve")
PARAMETERS = {"aamr_solve": {"alpha": 0.9, "beta": 0.7},
              "aamr_product_solve": {"alpha": 0.9, "beta": 0.7},
              "rap_solve": {"mu": 1.5}}


def _instances(n):
    """(label, family) per family kind at dimension ``n``, seeded by ``n``."""
    rng = np.random.default_rng([19, n])
    return [("box2", families.box_family(rng, n)),
            ("box3", families.box_family(rng, n, 3)),
            ("kink2", families.kink_family(rng, n)),
            ("kink3", families.kink_family(rng, n, 3)),
            ("affine2", families.affine_family(rng, n, [19, n]))]


def _step_cost(name, family, policy):
    fn = getattr(solvers, name)
    args = (*family.sets, family.q) if name in PAIRWISE else (family.sets, family.q)
    kwargs = PARAMETERS.get(name, {})
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args, policy=policy, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result.iterations, 1e6 * best / max(result.iterations, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=2000)
    args = parser.parse_args(argv)
    policy = StoppingPolicy.budget_only(max_iter=args.iters)
    print("family     n  driver              iters  us_per_iter")
    for n in DIMS:
        for label, family in _instances(n):
            drivers = PAIR_DRIVERS if len(family.sets) == 2 else TRIPLE_DRIVERS
            for name in drivers:
                iterations, us = _step_cost(name, family, policy)
                print(f"{label:7s}  {n:3d}  {name:18s}  {iterations:5d}  {us:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
