"""Command-line interface: solve, verify, gen, sweep and bench subcommands.

Exit codes: 0 success, 1 solver failure, 2 usage or validation error.
Outputs are deterministic for fixed inputs; wall-clock timings are confined
to dedicated fields/columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from sndp.branch_and_bound import SolveTimeout
from sndp.decomposition import (
    InfeasibleDesignError,
    ScenarioCapError,
    solve_benders,
    solve_delayed,
)
from sndp.extensive import solve_extensive
from sndp.instances import (
    DesignVector,
    GeneratorSpec,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    serialize_instance,
    validate,
)
from sndp.reporting import (
    bench,
    bench_csv,
    iteration_log_lines,
    solution_to_dict,
    sweep_tradeoff,
    tradeoff_csv,
    verification_to_dict,
    verify_design,
)

USAGE_ERROR, SOLVER_ERROR = 2, 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_instance(path: str, args):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read instance: {exc}", USAGE_ERROR)
    try:
        inst = parse_instance(text)
    except InstanceFormatError as exc:
        raise CliError(f"bad instance document: {exc}", USAGE_ERROR)
    overrides = {}
    if getattr(args, "budget", None) is not None:
        if args.budget < 0:
            raise CliError("budget must be nonnegative", USAGE_ERROR)
        overrides["budget"] = args.budget
    if getattr(args, "penalty", None) is not None:
        if args.penalty <= 0:
            raise CliError("penalty must be positive", USAGE_ERROR)
        overrides["penalty"] = args.penalty
    if getattr(args, "shed_cap", None) is not None:
        if not 0.0 <= args.shed_cap <= 1.0:
            raise CliError("shed cap must be within [0, 1]", USAGE_ERROR)
        overrides["allowed_shed"] = args.shed_cap
    if overrides:
        inst = dataclasses.replace(inst, **overrides)
        report = validate(inst)
        if not report.ok:
            raise CliError("; ".join(report.findings), USAGE_ERROR)
    return inst


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance, args)
    shed_cap = args.shed_cap
    kwargs = {"time_limit": args.timeout}
    try:
        if args.method == "ef":
            solution = solve_extensive(inst, scenario_cap=args.scenario_cap,
                                       shed_cap=shed_cap, **kwargs)
        elif args.method == "bd":
            solution = solve_benders(inst, scenario_cap=args.scenario_cap,
                                     shed_cap=shed_cap, **kwargs)
        else:
            solution = solve_delayed(inst, shed_cap=shed_cap, **kwargs)
    except (SolveTimeout, ScenarioCapError, InfeasibleDesignError,
            RuntimeError) as exc:
        raise CliError(f"solve failed: {exc}", SOLVER_ERROR)
    except MemoryError:
        raise CliError("solve failed: out of memory", SOLVER_ERROR)
    report = {"instance": Path(args.instance).name, **solution_to_dict(solution)}
    if args.verify:
        verification = verify_design(inst, solution.design)
        report["verification"] = verification_to_dict(verification)
    _write_or_print(json.dumps(report, indent=2) + "\n", args.output)
    if args.iteration_log:
        Path(args.iteration_log).write_text(iteration_log_lines(solution))
    return 0


def _read_design(path: str) -> DesignVector:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read design: {exc}", USAGE_ERROR)
    if isinstance(doc, dict) and "design" in doc:
        doc = doc["design"]
    if not isinstance(doc, dict) or "built" not in doc \
            or not isinstance(doc["built"], list):
        raise CliError("design document needs a {'built': [edge ids]} object",
                       USAGE_ERROR)
    return DesignVector.from_ids(int(e) for e in doc["built"])


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance, args)
    design = _read_design(args.design)
    unknown = sorted(design.built - set(inst.edge_index))
    if unknown:
        raise CliError(f"design builds unknown edges {unknown}", USAGE_ERROR)
    design = DesignVector(design.built | inst.existing_ids)
    report = verify_design(inst, design, enumeration_cap=args.scenario_cap)
    _write_or_print(json.dumps(verification_to_dict(report), indent=2) + "\n",
                    args.output)
    verdict = "pass" if report.passed else "fail"
    print(f"{verdict}, worst shed {report.worst_shed:.6g}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(family=args.family, num_nodes=args.nodes,
                         replication=args.replication, seed=args.seed,
                         placement_seed=args.placement_seed)
    try:
        inst = generate_instance(spec)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR)
    overrides = {}
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.penalty is not None:
        overrides["penalty"] = args.penalty
    if overrides:
        inst = dataclasses.replace(inst, **overrides)
    _write_or_print(serialize_instance(inst), args.output)
    return 0


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(f"bad {what} list: {text!r}", USAGE_ERROR)
    if not values:
        raise CliError(f"empty {what} list", USAGE_ERROR)
    return values


def _cmd_sweep(args) -> int:
    inst = _load_instance(args.instance, args)
    sheds = _parse_float_list(args.eps, "allowed-shed")
    budgets = _parse_float_list(args.budgets, "budget")
    if any(not 0.0 <= e <= 1.0 for e in sheds):
        raise CliError("allowed-shed values must lie in [0, 1]", USAGE_ERROR)
    points = sweep_tradeoff(inst, sheds, budgets, time_limit=args.timeout)
    _write_or_print(tradeoff_csv(points), args.output)
    return 0


def _cmd_bench(args) -> int:
    instances = []
    for path in args.instances:
        instances.append((Path(path).stem, _load_instance(path, args)))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("ef", "bd", "dsg"):
            raise CliError(f"unknown method {m!r}", USAGE_ERROR)
    rows = bench(instances, methods, time_limit=args.timeout,
                 scenario_cap=args.scenario_cap)
    _write_or_print(bench_csv(rows), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sndp",
        description="Survivable network design: build the cheapest network "
                    "that withstands every budget-limited disruption.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--budget": dict(type=float, default=None,
                         help="override the disruption budget"),
        "--penalty": dict(type=float, default=None,
                          help="override the shortage penalty"),
        "--timeout": dict(type=float, default=None,
                          help="wall-clock limit in seconds"),
        "--scenario-cap": dict(type=int, default=10 ** 7,
                               help="largest scenario space to enumerate"),
    }

    def common(p, *names):
        p.add_argument("-i", "--instance", required=True,
                       help="instance JSON document")
        p.add_argument("-o", "--output", default=None,
                       help="output path (default: stdout)")
        for name in names:
            p.add_argument(name, **flags[name])

    p_solve = sub.add_parser("solve", help="compute an optimal design")
    common(p_solve, "--budget", "--penalty", "--timeout", "--scenario-cap")
    p_solve.add_argument("--method", choices=("ef", "bd", "dsg"),
                         default="dsg", help="solution approach")
    p_solve.add_argument("--shed-cap", type=float, default=None,
                         help="bound the worst shed and minimize build cost "
                              "only")
    p_solve.add_argument("--verify", action="store_true",
                         help="append an exhaustive verification section")
    p_solve.add_argument("--iteration-log", default=None,
                         help="write per-iteration records as JSON lines")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="certify a design against all attacks")
    common(p_verify, "--budget", "--scenario-cap")
    p_verify.add_argument("--design", required=True,
                          help="design JSON (a solve report works)")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a deterministic instance")
    p_gen.add_argument("--family", choices=("grid", "random", "replicated"),
                       required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--replication", type=int, default=1,
                       help="copies per base edge (replicated family)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--placement-seed", type=int, default=0)
    p_gen.add_argument("--budget", type=float, default=None)
    p_gen.add_argument("--penalty", type=float, default=None)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    # no abbreviations: a stray --budget must not be taken for --budgets
    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="minimal build cost per shortage allowance")
    common(p_sweep, "--timeout")
    p_sweep.add_argument("--eps", required=True,
                         help="comma-separated allowed-shed fractions")
    p_sweep.add_argument("--budgets", required=True,
                         help="comma-separated disruption budgets")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="timing table across solvers")
    p_bench.add_argument("-i", "--instances", nargs="+", required=True,
                         help="instance JSON documents")
    p_bench.add_argument("--methods", default="ef,bd,dsg",
                         help="comma-separated subset of ef,bd,dsg")
    p_bench.add_argument("-o", "--output", default=None)
    p_bench.add_argument("--budget", type=float, default=None)
    p_bench.add_argument("--penalty", type=float, default=None)
    p_bench.add_argument("--timeout", type=float, default=600.0,
                         help="per-cell wall-clock limit in seconds")
    p_bench.add_argument("--scenario-cap", type=int, default=10 ** 7)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"sndp: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
