"""Command-line interface.

Subcommands: ``solve`` (project a point onto the intersection described by a
problem file), ``angle`` (principal/Friedrichs angles of a subspace pair),
and ``bench`` (parameter sweeps emitting CSV and SVG artifacts).

Exit codes: 0 converged, 1 usage or input error, 2 diverged, 3 iteration
budget exhausted, 4 numerical failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench, svgplot
from .geometry import SubspacePair, principal_angles
from .operators import Status, StoppingPolicy
from .sets import LinearSubspace, load_problem, project_intersection_oracle
from .solvers import MethodSpec, solve_best_approximation

EXIT_CODES = {
    Status.CONVERGED: 0,
    Status.DIVERGED: 2,
    Status.BUDGET_EXHAUSTED: 3,
    Status.NUMERICAL_FAILURE: 4,
}

_MODES = {"residual": StoppingPolicy.RESIDUAL, "true-error": StoppingPolicy.TRUE_ERROR,
          "budget": StoppingPolicy.BUDGET_ONLY}


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the exit-code contract (1, no traceback)
    def error(self, message):
        raise ValueError(message)


def _reals(text: str) -> tuple:
    """Argument type of comma-separated reals (argparse names the flag)."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {text!r}") from None


def _fmt_vec(v) -> str:
    return ", ".join(f"{c:.9g}" for c in v)


# SweepConfig field -> (aamr bench flag, type, help), in --help order
_BENCH_FLAGS = {
    "seed": ("--seed", int, None), "n": ("--n", int, None),
    "n_instances": ("--instances", int, None), "n_starts": ("--starts", int, None),
    "eps": ("--eps", float, None), "max_iter": ("--max-iter", int, None),
    "angle_bins": ("--bins", int, None),
    "alpha_grid": ("--alphas", _reals, "override the alpha grid (comma-separated)"),
    "beta_grid": ("--betas", _reals, "override the beta grid (comma-separated)"),
    "rate_thetas": ("--thetas", _reals,
                    "angles for the rates sweep (comma-separated radians)"),
    "jobs": ("--jobs", int, "parallel worker processes"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="aamr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="project a point onto an intersection")
    solve.add_argument("problem", help="problem description JSON file")
    solve.add_argument("--q", required=True, type=_reals,
                       help="point to project (comma-separated)")
    solve.add_argument("--method", default="aamr", metavar="TOKEN",
                       help="method token, e.g. 'aamr:alpha=0.9:beta=0.7'")
    solve.add_argument("--x0", default=None, type=_reals,
                       help="free starting point (aamr and cm only)")
    solve.add_argument("--mode", default="residual", choices=list(_MODES),
                       help="stopping rule; true-error needs an oracle-supported family")
    solve.add_argument("--eps", type=float, default=1e-6)
    # an unset flag leaves the StoppingPolicy (or SweepConfig) field default
    unset = dict(default=argparse.SUPPRESS)
    solve.add_argument("--max-iter", type=int, **unset)
    solve.add_argument("--divergence-threshold", type=float, **unset)
    solve.add_argument("--trace", default=None, metavar="CSV",
                       help="write per-iteration error/step CSV here")

    angle = sub.add_parser("angle", help="principal and Friedrichs angles")
    angle.add_argument("file", help="problem file containing exactly two subspaces")

    bench_p = sub.add_parser("bench", help="benchmark sweeps (CSV + SVG artifacts)")
    bench_p.add_argument("sweep", choices=list(bench.SWEEPS))
    bench_p.add_argument("--out-dir", default="aamr-bench")
    for dest, (flag, type_, help_) in _BENCH_FLAGS.items():
        bench_p.add_argument(flag, dest=dest, type=type_, help=help_, **unset)
    bench_p.add_argument("--methods", default=None,
                         help="comma-separated tokens, e.g. 'map,aamr:alpha=0.9:beta=0.9'")
    bench_p.add_argument("--full-scale", action="store_true",
                         help="large benchmark preset (at --jobs 1 on two cores: alpha "
                              "213 s, beta 383 s, angle-profile 2.2 s)")
    return parser


def _cmd_solve(args) -> int:
    dim, sets = load_problem(args.problem)
    q = np.array(args.q)
    x0 = None if args.x0 is None else np.array(args.x0)
    for flag, point in (("--q", q), ("--x0", x0)):
        if point is not None and point.size != dim:
            raise ValueError(f"{flag} has dimension {point.size}, problem has {dim}")
    spec = MethodSpec.parse(args.method)
    target = project_intersection_oracle(sets, q) if args.mode == "true-error" else None
    limits = {name: getattr(args, name) for name in ("max_iter", "divergence_threshold")
              if name in args}
    policy = StoppingPolicy(_MODES[args.mode], eps=args.eps, target=target,
                            record_trace=args.trace is not None, **limits)
    result = solve_best_approximation(spec, sets, q, policy=policy, x0=x0)
    print(f"status: {result.status.value}")
    print(f"iterations: {result.iterations}")
    print(f"shadow: {_fmt_vec(result.shadow)}")
    print(f"final_error: {result.final_error:.9g}")
    if args.trace is not None:
        bench.write_table_csv(args.trace, ("k", "error", "step_norm"), result.trace)
        print(f"trace: {args.trace}")
    return EXIT_CODES[result.status]


def _cmd_angle(args) -> int:
    dim, sets = load_problem(args.file)
    subspaces = [s for s in sets if isinstance(s, LinearSubspace)]
    if len(subspaces) != 2:
        raise ValueError("angle needs a problem file with exactly two subspace sets")
    # may raise "coincident subspaces"
    pair = SubspacePair.from_bases(subspaces[0].basis, subspaces[1].basis)
    angles = principal_angles(pair.basis_u, pair.basis_v)
    print("principal angles (radians): " + ", ".join(f"{a:.6f}" for a in angles))
    print(f"intersection dimension: {pair.intersection.shape[1]}")
    print(f"Friedrichs angle (radians): {pair.angle:.6f}")
    return 0


def _bench_config(args) -> bench.SweepConfig:
    """SweepConfig's defaults, overridden by the ``--full-scale`` preset,
    overridden by the flags given; a given flag the sweep does not read, or
    ``--full-scale`` for a sweep without a preset, is a usage error."""
    sweep = bench.SWEEPS[args.sweep]
    preset = sweep.full_scale if args.full_scale else {}
    # __match_args__ names SweepConfig's fields in order; the usage error keeps it
    given = {name: getattr(args, name) for name in bench.SweepConfig.__match_args__
             if name in args}
    ignored = [_BENCH_FLAGS[name][0] for name in given if name not in sweep.reads]
    if args.full_scale and not sweep.full_scale:
        ignored.append("--full-scale")
    if ignored:
        raise ValueError(f"the {args.sweep} sweep does not read {', '.join(ignored)}")
    return bench.SweepConfig(**{**preset, **given})


def _parse_methods(text):
    if text is None:
        return None
    specs = [MethodSpec.parse(tok) for tok in text.split(",") if tok.strip()]
    if not specs:
        raise ValueError(f"--methods names no method, got {text!r}")
    return specs


def _cmd_bench(args) -> int:
    sweep = bench.SWEEPS[args.sweep]
    runs, rows, charts, lines = sweep.run(_bench_config(args), _parse_methods(args.methods))
    # created only once the sweep has accepted its input and run
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    # every rejected input, argparse's included, is a ValueError or an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
