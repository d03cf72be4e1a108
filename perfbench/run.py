"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload profile --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``; nothing
is installed.  Set-up runs ``SETUP_REPEATS`` times, then the workload's main
phase repeats until ``--seconds`` have passed.  Every round does identical
work, so a round's time varies only with the machine.  Two things take the
machine out of the reported times (see README.md):

* the round time is the 10th percentile of the round times, because on a
  shared machine the slow rounds measure the neighbours;
* a fixed speed probe runs before every round, and every reported time is
  rescaled to the speed at which the probe takes ``PROBE_SECONDS``.

The outputs of the first round are checked, and every round must reproduce
them exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including the
tracing overhead; it also writes the last traced round's spans to
``.perfbench_out/``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Speed probe: a fixed kernel of small numpy calls in a Python loop, the
# same mix of interpreter and BLAS work as the solvers' iterations.  Times are
# reported at the machine speed at which one probe takes PROBE_SECONDS, about
# its sustained time on the two-core machine the benchmark was built on.  The
# probe is long (10 000 steps) because short probes find idle gaps on a busy
# machine that half-second rounds never see.
PROBE_SECONDS = 0.15
PROBE_STEPS = 10_000
# One BLAS thread: the benchmark is a single process (jobs=1) and a second
# thread on a two-core machine only adds scheduling noise.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("profile", "sweep", "convex"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _git_sha():
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be
    queried."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment():
    import platform
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _p10(values):
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _speed_probe():
    """Time one run of the probe kernel.  Its inputs are fixed: the probe
    measures the machine, not the workload."""
    import numpy as np
    rng = np.random.default_rng(12345)
    basis = np.linalg.qr(rng.standard_normal((50, 25)))[0]
    x = rng.standard_normal(50)
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        x = 0.5 * x + 0.4 * (basis @ (basis.T @ x))
        math.sqrt(float(x @ x))
    return time.perf_counter() - start


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _timed_round(workload, keep_payload=False):
    start = time.perf_counter()
    rnd = workload.run_round()
    elapsed = time.perf_counter() - start
    workload.finish_round(rnd)
    if not keep_payload:        # only the first round is checked in full
        rnd.payload = None
    return elapsed, rnd


def _run_rounds(workload, seconds, tracer=None):
    """Repeat the main phase for ``seconds``.  With a tracer, every untraced
    round is followed by a traced one.  Returns the untraced and traced
    ``(seconds, Round)`` lists and the ``(timings, counts)`` of each traced
    round."""
    import tracing
    plain, traced, layers, probes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        probes.append(_speed_probe())
        plain.append(_timed_round(workload, keep_payload=not plain))
        if tracer is not None:
            tracer.clear()
            with tracing.installed(tracer):
                traced.append(_timed_round(workload))
            rnd = traced[-1][1]
            layers.append(tracing.layer_metrics(
                tracer.spans(), rnd.counts["bench.row_iterations"]))
        enough = len(plain) >= (2 if tracer is not None else MIN_ROUNDS)
        if enough and time.perf_counter() >= deadline:
            return plain, traced, layers, probes


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import aamr  # noqa: F401  (timed: import is part of set-up)
    import_s = time.perf_counter() - start

    import numpy
    import tracing
    import workloads

    end_to_end, per_layer = _metric_specs()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            workload.setup()
        setup_layers, _ = tracing.layer_metrics(tracer.spans(), 0)
    plain, traced, layers, probes = _run_rounds(workload, args.seconds, tracer)
    speed = PROBE_SECONDS / _p10(probes)    # < 1 on a machine slower than the reference
    if tracer is not None:      # spans of the last traced round
        numpy.savez_compressed(out_dir / "spans.npz", **tracer.spans())

    first = plain[0][1]
    checks = workload.check(first)
    # every round, traced or not, must reproduce the first round's outputs
    checks += [rnd.digest == first.digest for _, rnd in plain[1:] + traced]
    # exact counts must repeat from one traced round to the next
    checks += [counts == layers[0][1] for _, counts in layers[1:]]
    checks += [rnd.counts == first.counts for _, rnd in traced]
    failed = sum(1 for ok in checks if not ok)

    wall_s = _p10([s for s, _ in plain])
    if args.trace:
        timings = {name: statistics.median(t[name] for t, _ in layers)
                   for name in layers[0][0]}
        values = {**timings, **layers[0][1], **first.counts,
                  "geometry.instance_ms": setup_layers["geometry.instance_ms"],
                  "trace.overhead": _p10([s for s, _ in traced]) / wall_s - 1.0}
        metrics = per_layer
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": import_s + statistics.median(setup_times),
            "iters_per_s": first.iterations / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = end_to_end
    scale = {"s": speed, "ms": speed, "us": speed, "1/s": 1.0 / speed}
    result = {m["name"]: {"value": values[m["name"]] * scale.get(m["unit"], 1),
                          "unit": m["unit"]}
              for m in metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain)} untraced, {len(traced)} traced  "
          f"round wall median {statistics.median(s for s, _ in plain):.4f} s")
    print(f"raw round wall p10 {wall_s:.4f} s  speed probe p10 {_p10(probes):.5f} s "
          f"over {len(probes)} probes  time scale {speed:.4f}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    for key, value in first.detail.items():
        if isinstance(value, str):
            print(f"{key} {value}")
    if "latencies" in first.detail:
        samples = [1e3 * speed * x for _, rnd in plain for x in rnd.detail["latencies"]]
        q = statistics.quantiles(samples, n=100)
        print(f"solve_ms_p50 {q[49]:.4f} ms  solve_ms_p99 {q[98]:.4f} ms  "
              f"over {len(samples)} solves ({len(first.detail['latencies'])} "
              f"per round x {len(plain)} rounds), rescaled like the metrics")
    print(f"fail_frac {failed / len(checks):.6f} fraction  "
          f"({failed} of {len(checks)} checks failed)")
    for name, entry in result.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
