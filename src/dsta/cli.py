"""Command-line front end: solve, bench and oracle subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np

from . import bench, instances, problems, recording, tsplib
from .engine import Mode, StaParams
from .errors import DstaError, TooLarge
from .operators import Operator

# TSPLIB-published optima (integer-rounded distance convention)
KNOWN_OPTIMA = {"kroA100": 21282, "kroC100": 20749, "gr96": 55209, "gr120": 6942}


def _known_optimum(name: str) -> int | None:
    return KNOWN_OPTIMA.get(name.split(".")[0])


def _operator_list(text: str) -> tuple[Operator, ...]:
    try:
        return tuple(Operator(tok.strip()) for tok in text.split(","))
    except ValueError:
        names = ", ".join(op.value for op in Operator)
        raise argparse.ArgumentTypeError(f"unknown operator in {text!r}; choose from {names}") from None


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    # each algorithm flag's dest is a StaParams field; unset flags stay None
    algo = p.add_argument_group("algorithm", "flags left unset take the StaParams defaults")
    algo.add_argument("--mode", type=Mode, choices=["sta", "dsta"])
    algo.add_argument("--se", type=int, help="neighbors sampled per operator round")
    algo.add_argument("--ma", type=int, help="swap factor")
    algo.add_argument("--mb", type=int, help="shift factor")
    algo.add_argument("--mc", type=int, help="symmetry factor")
    algo.add_argument("--md", type=int, help="substitute factor")
    algo.add_argument("--p1", type=float, help="restore probability (dsta)")
    algo.add_argument("--p2", type=float, help="risk probability (dsta)")
    algo.add_argument("--iters", type=int, dest="max_iters", metavar="ITERS")
    algo.add_argument("--seed", type=int, help="base seed")
    algo.add_argument(
        "--operators", type=_operator_list, dest="operator_set", metavar="LIST",
        help="comma-separated operator order",
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", metavar="PATH", help="append JSON-lines result records")
    p.add_argument("-q", "--quiet", action="store_true")


def _add_rounding_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rounding", choices=["real", "tsplib"], default="real")


def _add_instance_flags(p: argparse.ArgumentParser, n: int) -> None:
    p.add_argument("problem", choices=["tsp", "maxcut", "rosenbrock"])
    p.add_argument("--file", help="TSPLIB instance path (tsp, maxcut)")
    p.add_argument("--n", type=int, default=n, help="size for generated instances")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--instance-seed", type=int, default=0)
    _add_rounding_flag(p)


def _params_from(args) -> StaParams:
    flags = vars(args)
    params = StaParams(
        **{f.name: flags[f.name] for f in fields(StaParams) if flags[f.name] is not None}
    )
    params.validate()
    return params


def _instance(args):
    """The instance the flags name: a TspInstance, a MaxCutInstance or a Rosenbrock Problem."""
    if args.problem == "rosenbrock":
        if args.file:
            raise DstaError("rosenbrock instances are generated from --n; --file is for tsp and maxcut")
        return problems.rosenbrock_problem(args.n)
    if args.problem == "tsp":
        if args.file:
            return tsplib.load_instance(args.file, rounding=args.rounding)
        return instances.random_euclidean_tsp(args.n, args.instance_seed)
    if args.file:
        return instances.maxcut_from_tsp(tsplib.load_instance(args.file, rounding=args.rounding))
    return instances.random_weighted_graph(args.n, args.density, args.instance_seed)


def _echo_config(args, params: StaParams) -> None:
    if not args.quiet:
        cfg = recording.params_dict(params)
        cfg["trials"] = args.trials
        print("config:", json.dumps(cfg, sort_keys=True))


def cmd_solve(args) -> int:
    params = _params_from(args)
    inst = _instance(args)
    problem, report, ref = inst, float, None  # report maps an engine cost to the shown value
    if args.problem == "tsp":
        problem, ref = problems.tsp_problem(inst), _known_optimum(inst.name)
    elif args.problem == "maxcut":  # the engine minimizes the QUBO form; show the cut weight
        problem, report = problems.maxcut_problem(inst), partial(problems.cut_from_qubo, inst=inst)
    _echo_config(args, params)
    stats = bench.run_trials(problem, params, args.trials, base_seed=params.seed)
    best = stats.results[int(np.argmin(stats.costs))]
    shown = report(best.best_cost)
    print(f"instance: {problem.name}")
    print(f"best: {shown:.6f}")
    if args.trials > 1:
        values = np.array([report(c) for c in stats.costs])
        print(f"mean: {values.mean():.6f}  std: {values.std(ddof=1):.6f}")
    if problem.alphabet_size is None:
        print("tour:", " ".join(str(city + 1) for city in best.best_solution))
    else:
        print("solution:", " ".join(str(v) for v in best.best_solution))
    if ref:
        print(f"error: {problems.tsp_error(shown, ref):+.2f}% vs reference {ref}")
    if args.trace:
        with open(args.trace, "w") as fh:
            recording.write_trace(best.trace, fh)
    if args.out:
        records = [
            recording.ResultRecord(
                instance=problem.name,
                algorithm=params.mode.value,
                params=recording.params_dict(params),
                seed=bench.derive_seed(params.seed, i),
                best_cost=r.best_cost,
                wall_time=r.wall_time,
                best_solution=[int(v) for v in r.best_solution],
            )
            for i, r in enumerate(stats.results)
        ]
        with open(args.out, "a") as fh:
            recording.write_results(records, fh)
    return 0


# suite dimension -> iteration budget
ROSENBROCK_SUITE = {5: 10, 10: 20, 20: 100, 50: 200, 100: 500, 200: 2000}


def cmd_bench(args) -> int:
    params = _params_from(args)
    _echo_config(args, params)
    if args.suite == "rosenbrock":
        sizes = set(args.sizes or [5, 10, 20, 50])
        if not sizes <= ROSENBROCK_SUITE.keys():
            raise DstaError(
                f"no rosenbrock suite case for size(s) {sorted(sizes - ROSENBROCK_SUITE.keys())}; "
                f"valid sizes: {' '.join(map(str, ROSENBROCK_SUITE))}"
            )
        # (row, problem, params, percent error of a best cost, if there is a reference)
        cases = [
            (f"rosenbrock n={n}", problems.rosenbrock_problem(n),
             replace(params, max_iters=ROSENBROCK_SUITE[n]), None)
            for n in sorted(sizes)
        ]
    else:
        if not args.files:
            raise DstaError("the tsp suite needs --files with at least one TSPLIB path")
        cases = []
        for path in args.files:
            inst = tsplib.load_instance(path, rounding=args.rounding)
            ref = _known_optimum(inst.name)
            error = partial(problems.tsp_error, optimum=ref) if ref else None
            cases.append((inst.name, problems.tsp_problem(inst), params, error))
    rows = []
    for name, prob, p, error in cases:
        sta, dsta, _ = bench.compare_modes(prob, p, args.trials, base_seed=params.seed)
        for mode, stats in zip(Mode, (sta, dsta)):
            rows.append((name, mode.value, stats, error(stats.best) if error else None))
    print(f"{'instance':<22}{'algorithm':<11}{'best':>14}{'mean':>14}{'std':>12}{'error':>9}")
    for name, mode, stats, err in rows:
        err_s = "-" if err is None else f"{err:.2f}%"
        print(f"{name:<22}{mode:<11}{stats.best:>14.4f}{stats.mean:>14.4f}{stats.std:>12.4f}{err_s:>9}")
    if args.out:
        with open(args.out, "a") as fh:
            recs = [
                recording.ResultRecord(
                    instance=name,
                    algorithm=mode,
                    params=recording.params_dict(params),
                    seed=params.seed,
                    best_cost=stats.best,
                    wall_time=0.0,
                )
                for name, mode, stats, _ in rows
            ]
            recording.write_results(recs, fh)
    return 0


def cmd_oracle(args) -> int:
    inst = _instance(args)
    if args.problem == "rosenbrock":
        opt, optimizers = bench.brute_force_dvs(inst)
        print(f"optimum: {opt:.6f}")
        print("solution:", " ".join(str(v) for v in problems.ROSENBROCK_ALPHABET[optimizers[0]]))
    elif args.problem == "tsp":
        opt, tour = bench.brute_force_tsp(inst)
        print(f"optimum: {opt:.6f}")
        print("tour:", " ".join(str(c + 1) for c in tour))
    else:
        opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(inst))
        print(f"optimum (qubo): {opt:.6f}")
        print(f"optimum (cut weight): {problems.cut_from_qubo(opt, inst):.6f}")
        print(f"optimizers: {len(optimizers)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error; 2 is TooLarge's code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    _add_instance_flags(solve, n=10)
    _add_param_flags(solve)
    solve.add_argument("--trace", metavar="PATH", help="write the best trial's convergence trace CSV")
    solve.set_defaults(func=cmd_solve)

    benchp = sub.add_parser("bench", help="run a benchmark suite")
    benchp.add_argument("suite", choices=["rosenbrock", "tsp"])
    benchp.add_argument("--files", nargs="*", help="TSPLIB paths for the tsp suite")
    benchp.add_argument("--sizes", nargs="*", type=int, help="rosenbrock dimensions")
    _add_rounding_flag(benchp)
    _add_param_flags(benchp)
    benchp.set_defaults(func=cmd_bench, trials=20)  # reference protocol default

    oracle = sub.add_parser("oracle", help="exact optimum by enumeration")
    _add_instance_flags(oracle, n=8)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input file, or an --out/--trace path
        print(f"error: cannot read or write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except DstaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
