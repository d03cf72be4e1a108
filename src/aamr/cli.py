"""Command-line interface.

Subcommands: ``solve`` (project a point onto the intersection described by a
problem file), ``angle`` (principal/Friedrichs angles of a subspace pair),
and ``bench`` (parameter sweeps emitting CSV and SVG artifacts).

Exit codes: 0 converged, 1 usage or input error, 2 diverged, 3 iteration
budget exhausted, 4 numerical failure.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, svgplot
from .geometry import friedrichs_angle, principal_angles, subspace_intersection
from .operators import Status, StoppingPolicy
from .sets import (LinearSubspace, NoOracleError, ProblemFormatError,
                   load_problem, project_intersection_oracle)
from .solvers import MethodSpec, solve_best_approximation

EXIT_CODES = {
    Status.CONVERGED: 0,
    Status.DIVERGED: 2,
    Status.BUDGET_EXHAUSTED: 3,
    Status.NUMERICAL_FAILURE: 4,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the exit-code contract (1, no traceback)
    def error(self, message):
        raise _UsageError(message)


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise _UsageError(f"expected comma-separated reals, got {text!r}") from None


def _fmt_vec(v) -> str:
    return ", ".join(f"{c:.9g}" for c in v)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aamr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="project a point onto an intersection")
    solve.add_argument("problem", help="problem description JSON file")
    solve.add_argument("--q", required=True, help="point to project (comma-separated)")
    solve.add_argument("--method", default="aamr", choices=MethodSpec.KINDS)
    solve.add_argument("--alpha", type=float, default=None)
    solve.add_argument("--beta", type=float, default=None)
    solve.add_argument("--mu", type=float, default=None)
    solve.add_argument("--gamma", type=float, default=None)
    solve.add_argument("--lam", type=float, default=None,
                       help="relaxation for the cm method, in (0, 2]")
    solve.add_argument("--x0", default=None,
                       help="free starting point (aamr and cm only)")
    solve.add_argument("--mode", default="residual",
                       choices=["residual", "true-error", "budget"],
                       help="stopping rule; true-error needs an oracle-supported family")
    solve.add_argument("--eps", type=float, default=1e-6)
    solve.add_argument("--max-iter", type=int, default=100_000)
    solve.add_argument("--divergence-threshold", type=float, default=1e6)
    solve.add_argument("--trace", default=None, metavar="CSV",
                       help="write per-iteration error/step CSV here")

    angle = sub.add_parser("angle", help="principal and Friedrichs angles")
    angle.add_argument("file", help="problem file containing exactly two subspaces")

    bench_p = sub.add_parser("bench", help="benchmark sweeps (CSV + SVG artifacts)")
    bench_p.add_argument("sweep", choices=list(bench.SWEEPS))
    bench_p.add_argument("--out-dir", default="aamr-bench")
    bench_p.add_argument("--seed", type=int, default=None,
                         help="defaults to $AAMR_SEED, then 0")
    bench_p.add_argument("--n", type=int, default=50)
    bench_p.add_argument("--instances", type=int, default=20)
    bench_p.add_argument("--starts", type=int, default=10)
    bench_p.add_argument("--start-norm", type=float, default=10.0)
    bench_p.add_argument("--eps", type=float, default=1e-3)
    bench_p.add_argument("--max-iter", type=int, default=100_000)
    bench_p.add_argument("--bins", type=int, default=20)
    bench_p.add_argument("--methods", default=None,
                         help="comma-separated tokens, e.g. 'map,aamr:alpha=0.9:beta=0.9'")
    bench_p.add_argument("--alphas", default=None,
                         help="override the alpha grid (comma-separated)")
    bench_p.add_argument("--betas", default=None,
                         help="override the beta grid (comma-separated)")
    bench_p.add_argument("--thetas", default="0.2,0.5,1.0",
                         help="angles for the rates sweep (comma-separated radians)")
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    bench_p.add_argument("--full-scale", action="store_true",
                         help="large benchmark preset (hours of runtime)")
    return parser


def _cmd_solve(args) -> int:
    dim, sets = load_problem(args.problem)
    q = _vector(args.q)
    if q.size != dim:
        raise _UsageError(f"--q has dimension {q.size}, problem has {dim}")
    x0 = None
    if args.x0 is not None:
        x0 = _vector(args.x0)
        if x0.size != dim:
            raise _UsageError(f"--x0 has dimension {x0.size}, problem has {dim}")
    try:
        spec = MethodSpec(args.method, alpha=args.alpha, beta=args.beta,
                          mu=args.mu, gamma=args.gamma, lam=args.lam)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    common = dict(max_iter=args.max_iter,
                  divergence_threshold=args.divergence_threshold,
                  record_trace=args.trace is not None)
    if args.mode == "residual":
        policy = StoppingPolicy.residual(eps=args.eps, **common)
    elif args.mode == "budget":
        policy = StoppingPolicy.budget_only(**common)
    else:
        target = project_intersection_oracle(sets, q)
        policy = StoppingPolicy.true_error(target, eps=args.eps, **common)
    try:
        result = solve_best_approximation(spec, sets, q, policy=policy, x0=x0)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"status: {result.status.value}")
    print(f"iterations: {result.iterations}")
    print(f"shadow: {_fmt_vec(result.shadow)}")
    print(f"final_error: {result.final_error:.9g}")
    if args.trace is not None:
        lines = ["k,error,step_norm"]
        lines += [f"{k},{err!r},{step!r}" for k, err, step in result.trace]
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"trace: {args.trace}")
    return EXIT_CODES[result.status]


def _cmd_angle(args) -> int:
    dim, sets = load_problem(args.file)
    subspaces = [s for s in sets if isinstance(s, LinearSubspace)]
    if len(subspaces) != 2:
        raise _UsageError("angle needs a problem file with exactly two subspace sets")
    basis_u, basis_v = subspaces[0].basis, subspaces[1].basis
    angles = principal_angles(basis_u, basis_v)
    meet = subspace_intersection(basis_u, basis_v)
    theta = friedrichs_angle(basis_u, basis_v)  # may raise "coincident subspaces"
    print("principal angles (radians): " + ", ".join(f"{a:.6f}" for a in angles))
    print(f"intersection dimension: {meet.shape[1]}")
    print(f"Friedrichs angle (radians): {theta:.6f}")
    return 0


def _parse_grid(text):
    return tuple(float(part) for part in text.split(","))


def _bench_config(args) -> bench.SweepConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("AAMR_SEED", "0"))
    kwargs = dict(n=args.n, n_instances=args.instances, n_starts=args.starts,
                  start_norm=args.start_norm, eps=args.eps,
                  max_iter=args.max_iter, angle_bins=args.bins, seed=seed)
    if args.full_scale:
        kwargs.update(bench.SWEEPS[args.sweep].full_scale)
    if args.alphas is not None:
        kwargs["alpha_grid"] = _parse_grid(args.alphas)
    if args.betas is not None:
        kwargs["beta_grid"] = _parse_grid(args.betas)
    return bench.SweepConfig(**kwargs)


def _parse_methods(text):
    if text is None:
        return None
    return [bench.parse_method_token(tok) for tok in text.split(",") if tok.strip()]


def _cmd_bench(args) -> int:
    config = _bench_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep = bench.SWEEPS[args.sweep]
    runs, rows, charts, lines = sweep.run(
        config, methods=_parse_methods(args.methods),
        thetas=_parse_grid(args.thetas), jobs=args.jobs)
    bench.write_runs_csv(out / sweep.runs_csv, runs)
    bench.write_table_csv(out / sweep.table_csv, sweep.header, rows)
    for name, series, options in charts:
        svgplot.render_chart(out / name, series, **options)
    names = [sweep.runs_csv, sweep.table_csv] + [name for name, _, _ in charts]
    for line in lines + [f"wrote {out / name}" for name in names]:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "angle":
            return _cmd_angle(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProblemFormatError, NoOracleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
