"""SHA-256 digests of the program's seeded outputs, for byte-for-byte
comparisons of two trees.

Imports ``aamr`` from the ``src/`` directory next to this script and prints,
one line each:

* first, the BLAS-kernel fingerprint (``kernel_fingerprint``): numpy's
  OpenBLAS picks its kernel from the CPU, kernels round differently, and
  the digests below hold only for the kernel they were taken on.  With
  numpy 2.4.6 on a 2-core AVX-512 box it reads ``ace7a91b...`` on the
  default (SkylakeX) kernel and at one BLAS thread, and differs under
  ``OPENBLAS_CORETYPE=Haswell``, ``Sandybridge`` or ``Prescott``;
* every file ``aamr bench angle-profile|alpha|beta|rates --seed 0`` writes,
  and each sweep's stdout, run through ``aamr.cli.main`` into a temporary
  directory, with that directory replaced by ``OUT`` (17 lines);
* the stdout and exit code of ``aamr solve`` on a subspace and an affine
  subspace in R^4 (``--mode residual``; ``--mode true-error`` and ``--mode
  budget``, each with ``--trace`` and the trace CSV; ``--method
  cm:gamma=0.25``), and of ``aamr angle`` on a pair of subspaces in R^4
  (7 lines);
* the two input formats (12 lines): the stdout and exit code of ``aamr
  solve --mode residual --max-iter 500`` on a problem file holding one set
  of each of the six types, whatever its status; the ``json.dumps`` text of
  ``dump_problem(*load_problem(...))`` of that file; the files and stdout of
  a small ``aamr bench alpha`` that types every flag the sweep reads, and of
  a budget-starved ``aamr bench beta`` whose best betas are chosen over
  partly converged and unconverged blocks of starts; and the stderr and exit
  code of two ``aamr bench`` runs given flags their sweep does not read;
* the rejection path (8 lines): the stderr and exit code of eight rejected
  inputs (an unknown subcommand, two bad method tokens, a ``--q`` of the
  wrong dimension, a truncated and a missing problem file, ``--mode
  true-error`` on two balls, and ``aamr bench beta --jobs 0``), with the
  temporary directory replaced by ``OUT``;
* the stdout of every ``demos/*.py`` script, each run with its own temporary
  working directory (``subspace_profile.py`` writes ``demo_profile_out/``;
  4 lines);
* the round digest of each ``perfbench`` workload for the seeds in
  ``PERFBENCH_SEEDS`` (``setup``, ``run_round``, ``finish_round``), and
  whether the workload's ``check`` passes on that round (8 lines).

57 lines in all; a run takes 30 s to a minute on a shared 2-core box.  Exits
1 if a perfbench check fails.  To check that a change leaves every output
byte-identical, copy this script into a checkout of the other tree, run it
in both and diff the two outputs; digests taken under two fingerprints are
not expected to agree:

    python3 tools/desk_digests.py > mine.txt
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the perfbench directory as it is

from aamr import cli, dump_problem, load_problem  # noqa: E402
import workloads  # noqa: E402

SWEEPS = ("angle-profile", "alpha", "beta", "rates")
PERFBENCH_SEEDS = {"profile": (0, 1, 2), "sweep": (0, 1), "convex": (0, 1, 2)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def kernel_fingerprint() -> str:
    """numpy's version and the SHA-256 of the result bytes of seeded calls at
    desk shapes: a QR, a gemv pair on its 50 × 25 basis, a dot, a 76 × 50 by
    50 × 25 gemm and the singular values of a 100 × 50 matrix."""
    rng = np.random.default_rng([2026, 7])
    basis = np.linalg.qr(rng.standard_normal((50, 25)))[0]
    x, y = rng.standard_normal(50), rng.standard_normal(50)
    results = (basis, basis.dot(basis.T.dot(x)), np.array(x.dot(y)),
               rng.standard_normal((76, 50)) @ basis,
               np.linalg.svd(rng.standard_normal((100, 50)), compute_uv=False))
    digest = _sha256(b"".join(r.tobytes() for r in results))
    return f"{digest}  kernel numpy {np.__version__}"


def _bench(tmp: Path) -> None:
    for sweep in SWEEPS:
        out = tmp / sweep
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["bench", sweep, "--seed", "0", "--out-dir", str(out)])
        if status:
            raise SystemExit(f"aamr bench {sweep} exited with {status}")
        text = stdout.getvalue().replace(str(out), "OUT")
        print(f"{_sha256(text.encode())}  {sweep}/stdout")
        for path in sorted(out.iterdir()):
            print(f"{_sha256(path.read_bytes())}  {sweep}/{path.name}")


# a line in R^4: span{e1, e2 + e3} meets (1, 0, 0, 0) + span{e2, e3}
_SOLVE_PROBLEM = {"dim": 4, "sets": [
    {"type": "subspace", "basis": [[1, 0, 0, 0], [0, 1, 1, 0]]},
    {"type": "affine", "offset": [1, 0, 0, 0], "basis": [[0, 1, 0, 0], [0, 0, 1, 0]]}]}
_ANGLE_PROBLEM = {"dim": 4, "sets": [
    {"type": "subspace", "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    {"type": "subspace", "basis": [[1, 0, 0, 0], [0, 1, 2, 1]]}]}


def _run_cli(name: str, argv, tmp: Path, stream: str = "stdout") -> str:
    """The digest line of ``stream`` (``stdout`` or ``stderr``) and the exit
    code of ``aamr.cli.main(argv)``, with ``tmp`` replaced by ``OUT``."""
    captured = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with (contextlib.redirect_stdout(captured["stdout"]),
          contextlib.redirect_stderr(captured["stderr"])):
        status = cli.main(argv)
    text = captured[stream].getvalue().replace(str(tmp), "OUT")
    return f"{_sha256(text.encode())}  {name}/{stream} exit {status}"


def _cli(tmp: Path) -> None:
    tmp.mkdir(parents=True)
    problem, pair = tmp / "problem.json", tmp / "pair.json"
    problem.write_text(json.dumps(_SOLVE_PROBLEM), encoding="utf-8")
    pair.write_text(json.dumps(_ANGLE_PROBLEM), encoding="utf-8")
    traced = ["--trace", str(tmp / "trace.csv")]
    runs = {"residual": ["--mode", "residual"],
            "true-error": ["--mode", "true-error", "--eps", "1e-12", *traced],
            "budget": ["--mode", "budget", "--max-iter", "200", *traced],
            "cm": ["--method", "cm:gamma=0.25"]}
    for name, flags in runs.items():
        argv = ["solve", str(problem), "--q", "2,1,-1,3", *flags]
        print(_run_cli(f"solve/{name}", argv, tmp))
        if "--trace" in flags:
            print(f"{_sha256((tmp / 'trace.csv').read_bytes())}  solve/{name}/trace.csv")
    print(_run_cli("angle", ["angle", str(pair)], tmp))


# one set of each problem-file type in R^3; they meet in the segment
# {(x, 0.5, 0.5) : -1 <= x <= 1}
_ALL_TYPES_PROBLEM = {"dim": 3, "sets": [
    {"type": "ball", "center": [0.5, 0, 0], "radius": 2.5},
    {"type": "subspace", "basis": [[1, 0, 0], [0, 1, 1]]},
    {"type": "halfspace", "a": [1, 1, 0], "b": 1.5},
    {"type": "hyperplane", "a": [0, 2, 0], "b": 1},
    {"type": "box", "lower": [-1, -1, -1], "upper": [1, 1, 1]},
    {"type": "affine", "offset": [0, 0.5, 0.5], "basis": [[2, 0, 0]]}]}
_ALPHA_FLAGS = ["--seed", "3", "--n", "8", "--instances", "2", "--bins", "2",
                "--eps", "1e-4", "--max-iter", "3000", "--alphas", "0.3,0.7",
                "--jobs", "2"]
# at 40 iterations one (instance, beta) block of four starts partly
# converges and one never does; the grid descends, so ties go against it
_STARVED_BETA_FLAGS = ["--seed", "0", "--n", "20", "--instances", "4", "--starts", "4",
                       "--bins", "4", "--betas", "0.9,0.7,0.5", "--max-iter", "40"]
_UNREAD_FLAGS = {"rates": ["--starts", "7", "--bins", "3", "--betas", "0.5"],
                 "beta": ["--alphas", "0.5", "--thetas", "0.3"]}


def _formats(tmp: Path) -> None:
    tmp.mkdir(parents=True)
    problem = tmp / "all_types.json"
    problem.write_text(json.dumps(_ALL_TYPES_PROBLEM), encoding="utf-8")
    argv = ["solve", str(problem), "--q", "3,1,-1", "--mode", "residual",
            "--max-iter", "500"]
    print(_run_cli("formats/solve", argv, tmp))
    text = json.dumps(dump_problem(*load_problem(problem)))
    print(f"{_sha256(text.encode())}  formats/dump_problem")
    for name, sweep, flags in (("alpha", "alpha", _ALPHA_FLAGS),
                               ("starved-beta", "beta", _STARVED_BETA_FLAGS)):
        out = tmp / name
        print(_run_cli(f"formats/{name}", ["bench", sweep, *flags, "--out-dir", str(out)],
                       tmp))
        for path in sorted(out.iterdir()):
            print(f"{_sha256(path.read_bytes())}  formats/{name}/{path.name}")
    for sweep, flags in _UNREAD_FLAGS.items():
        argv = ["bench", sweep, *flags, "--out-dir", str(tmp / sweep)]
        print(_run_cli(f"formats/{sweep}", argv, tmp, stream="stderr"))


_TWO_BALLS_PROBLEM = {"dim": 2, "sets": [
    {"type": "ball", "center": [1, 1], "radius": 1},
    {"type": "ball", "center": [-1, 1], "radius": 1}]}


def _rejections(tmp: Path) -> None:
    tmp.mkdir(parents=True)
    balls, truncated = tmp / "two_balls.json", tmp / "truncated.json"
    balls.write_text(json.dumps(_TWO_BALLS_PROBLEM), encoding="utf-8")
    truncated.write_text('{"dim": 2, "sets": [', encoding="utf-8")
    solve = ["solve", str(balls), "--q", "2,1"]
    runs = {"command": ["frobnicate"],
            "alpha-token": [*solve, "--method", "aamr:alpha=abc"],
            "beta-one": [*solve, "--method", "aamr:beta=1.0"],
            "q-dimension": ["solve", str(balls), "--q", "1,2,3"],
            "truncated": ["solve", str(truncated), "--q", "2,1"],
            "missing": ["solve", str(tmp / "missing.json"), "--q", "2,1"],
            "no-oracle": [*solve, "--mode", "true-error"],
            "jobs": ["bench", "beta", "--jobs", "0", "--out-dir", str(tmp / "beta")]}
    for name, argv in runs.items():
        print(_run_cli(f"rejected/{name}", argv, tmp, stream="stderr"))


def _demos(tmp: Path) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cwd = tmp / demo.stem
        cwd.mkdir(parents=True)
        run = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                             capture_output=True, check=True)
        print(f"{_sha256(run.stdout)}  demos/{demo.name}/stdout")


def _perfbench(tmp: Path) -> bool:
    passed = True
    for name, seeds in PERFBENCH_SEEDS.items():
        for seed in seeds:
            out = tmp / f"{name}-seed{seed}"
            out.mkdir(parents=True)
            workload = workloads.WORKLOADS[name](seed, out)
            workload.setup()
            rnd = workload.run_round()
            workload.finish_round(rnd)
            ok = all(workload.check(rnd))
            passed = passed and ok
            print(f"{rnd.digest}  perfbench/{name}/seed{seed} "
                  f"check {'passed' if ok else 'FAILED'}")
    return passed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print(kernel_fingerprint())
        _bench(tmp / "bench")
        _cli(tmp / "cli")
        _formats(tmp / "formats")
        _rejections(tmp / "rejected")
        _demos(tmp / "demos")
        return 0 if _perfbench(tmp / "perfbench") else 1


if __name__ == "__main__":
    sys.exit(main())
