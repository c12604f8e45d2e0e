"""Command-line interface.

Subcommands: generate, validate, build, solve, sweep, ladder, report.
Exit codes: 0 ok, 2 validation failure, 3 infeasible, 4 budget exceeded
without an incumbent.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .instance import (
    InstanceError,
    attach_synthetic_baseline,
    generate_synthetic,
    instance_from_dict,
    load_instance,
    save_instance,
    validate_instance,
)
from .lighttravel import CapExceededError, McfError
from .model import BUDGET_FIELD, VERSIONS, ConfigError, ExtensionConfig
from .mps import export_mps
from .report import (
    KPI_COLUMNS,
    LADDER_COLUMNS,
    SWEEP_COLUMNS,
    SweepConfig,
    assemble,
    compute_kpis,
    emit_report,
    event_heatmap_rows,
    run_extension_ladder,
    run_sweep,
)
from .solver import MissingVariableError, SolveBudget, load_solution, save_solution, solve_bb
from .spacetime import save_network

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

_VERSION_ALIASES = {v.lower(): v for v in VERSIONS} | {"v1'": "V1prime"}


def _normalize_version(text: str) -> str:
    try:
        return _VERSION_ALIASES[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown extension version {text!r}") from None


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--lt-method", choices=("exact", "mcf", "full"), default="exact")


def _add_mcf_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mcf-window", type=int, default=480, help="window minutes for MCF arc insertion")
    p.add_argument("--mcf-threshold", type=int, default=1, help="insert arcs only for flow strictly above this")
    p.add_argument("--mcf-alpha", type=float, default=None, help="penalization factor (default: mean train count)")


def _theta(text: str) -> float:
    """A daily work-event cap: a non-negative number or 'inf'.  The rows
    it caps take its floor."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid theta {text!r}") from None
    if math.isnan(value) or value < 0:
        raise argparse.ArgumentTypeError(f"theta must be non-negative or 'inf', got {text!r}")
    return value


def _steps(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_theta_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=_theta, default=6, help="daily work-event cap per terminal ('inf' allowed)")


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    _add_instance_flags(p)
    _add_mcf_flags(p)
    p.add_argument("--extension", type=_normalize_version, default="V0", help="|".join(VERSIONS))
    p.add_argument(
        "--lambda", dest="lambda_", type=int, default=None, help="extra events per baseline-active pair (V1 only; default 0)"
    )
    _add_theta_flag(p)
    p.add_argument("--alpha", type=int, default=None, help="activation budget (V2-V5 only)")
    p.add_argument("--no-mutual-exclusion", action="store_true", help="drop the per-stop pick-up/set-out exclusivity rows")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-seconds", type=float, default=120.0)
    p.add_argument("--budget-nodes", type=int, default=1_000_000)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output file")


def _budget(args) -> SolveBudget:
    return SolveBudget(max_seconds=args.budget_seconds, max_nodes=args.budget_nodes)


def _extension_config(args) -> ExtensionConfig | None:
    """The extension the build flags ask for; ``ConfigError`` for a budget
    flag the version does not read, which would otherwise be dropped."""
    field = BUDGET_FIELD.get(args.extension)  # V1 takes --lambda, V2-V5 --alpha
    if args.alpha is not None and field in (None, "lambda_"):
        raise ConfigError(f"--alpha does not apply to {args.extension}: it is the V2-V5 activation budget")
    if args.lambda_ is not None and field != "lambda_":
        raise ConfigError(f"--lambda does not apply to {args.extension}: it is V1's extra events per pair")
    if args.extension == "V0":
        return None
    kwargs = {"version": args.extension, "theta": args.theta}
    if field == "lambda_":
        kwargs[field] = 0 if args.lambda_ is None else args.lambda_
    elif field is not None:
        if args.alpha is None:
            raise ConfigError(f"{args.extension} requires --alpha")
        kwargs[field] = args.alpha
    return ExtensionConfig(**kwargs)


def _assemble_from_args(args):
    inst = load_instance(args.instance)
    merged, specs, model = assemble(
        inst,
        lt_method=args.lt_method,
        extension=_extension_config(args),
        mcf_window=args.mcf_window,
        mcf_threshold=args.mcf_threshold,
        mcf_alpha=args.mcf_alpha,
        mutual_exclusion=not args.no_mutual_exclusion,
    )
    return inst, merged, specs, model


def cmd_generate(args) -> int:
    inst = generate_synthetic(args.seed, args.terminals, args.trains, args.max_legs)
    if args.with_baseline:
        inst = attach_synthetic_baseline(inst, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {len(inst.terminals)} terminals, {len(inst.trains)} trains, {len(inst.legs())} legs")
    return EXIT_OK


def cmd_validate(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"parse error at line {exc.lineno}: {exc.msg}", file=sys.stderr)
            return EXIT_VALIDATION
    inst = instance_from_dict(data, validate=False)
    violations = validate_instance(inst, include_warnings=True)
    for v in violations:
        stream = sys.stderr if v.severity == "error" else sys.stdout
        print(str(v), file=stream)
    if any(v.severity == "error" for v in violations):
        return EXIT_VALIDATION
    print("instance is valid")
    return EXIT_OK


def cmd_build(args) -> int:
    _inst, merged, specs, model = _assemble_from_args(args)
    export_mps(model, args.out)
    if args.network_dump:
        save_network(merged, args.network_dump)
    print(
        f"wrote {args.out}: {len(model.variables)} variables, {len(model.matrix().tags)} constraints, "
        f"{len(specs)} light arcs ({args.lt_method})"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    _inst, merged, _specs, model = _assemble_from_args(args)
    sol = solve_bb(model, budget=_budget(args))
    if args.out:
        save_solution(sol, args.out, model=model)
    print(f"status={sol.status} objective={sol.objective} bounds={sol.bounds} nodes={sol.node_count}")
    if sol.status == "infeasible":
        return EXIT_INFEASIBLE
    if sol.status == "budget_exceeded" and sol.values is None:
        return EXIT_BUDGET
    if args.kpis and sol.values is not None:
        kpis = compute_kpis(merged, model, sol)
        print(json.dumps(kpis.to_row(), indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    factors = tuple(float(f) for f in args.factors.split(",")) if args.factors else None
    cfg_kwargs = dict(
        parameter=args.param,
        lt_method=args.lt_method,
        budget=_budget(args),
        mcf_window=args.mcf_window,
        mcf_threshold=args.mcf_threshold,
        mcf_alpha=args.mcf_alpha,
        parallel=args.parallel,
    )
    if factors:
        cfg_kwargs["factors"] = factors
    rows = run_sweep(inst, SweepConfig(**cfg_kwargs))
    emit_report(rows, format=args.format, path=args.out, columns=SWEEP_COLUMNS)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_ladder(args) -> int:
    inst = load_instance(args.instance)
    versions = [_normalize_version(v) for v in args.versions.split(",")]
    budgets = [int(a) for a in args.alphas.split(",")] if args.alphas else None
    rows = run_extension_ladder(
        inst,
        versions,
        budgets=budgets,
        warm_chain=not args.no_warm_chain,
        theta=args.theta,
        steps=args.steps,
        budget=_budget(args),
        lt_method=args.lt_method,
    )
    emit_report(rows, format=args.format, path=args.out, columns=LADDER_COLUMNS)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_report(args) -> int:
    _inst, merged, _specs, model = _assemble_from_args(args)
    sol = load_solution(args.solution)
    if sol.values is None:
        print("solution file has no values; nothing to report", file=sys.stderr)
        return EXIT_INFEASIBLE
    kpis = compute_kpis(merged, model, sol)
    row = {"status": sol.status, "objective": kpis.objective}
    row.update(kpis.to_row())
    emit_report([row], format=args.format, path=args.out, columns=list(row.keys()))
    if args.heatmap:
        rows = event_heatmap_rows(merged, sol)
        emit_report(rows, format=args.format, path=args.heatmap, columns=["terminal", "day", "events"])
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railplan",
        description="Weekly locomotive assignment planning on cyclic space-time networks.",
        epilog=(
            "Sweep columns: " + ",".join(SWEEP_COLUMNS) + ". "
            "Ladder columns: " + ",".join(LADDER_COLUMNS) + ". "
            "KPI columns: " + ",".join(KPI_COLUMNS) + "."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--terminals", type=int, default=3)
    p.add_argument("--trains", type=int, default=4)
    p.add_argument("--max-legs", type=int, default=2)
    p.add_argument("--with-baseline", action="store_true", help="attach a synthetic baseline work-event plan")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build the model and export MPS")
    _add_build_flags(p)
    p.add_argument("--out", required=True, help="MPS output file")
    p.add_argument("--network-dump", default=None, help="optional network JSON dump")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance")
    _add_build_flags(p)
    _add_budget_flags(p)
    p.add_argument("--out", default=None, help="solution JSON output")
    p.add_argument("--kpis", action="store_true", help="print the KPI row for the solution")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a cost-sensitivity sweep")
    _add_instance_flags(p)
    _add_mcf_flags(p)
    _add_budget_flags(p)
    _add_output_flags(p)
    p.add_argument("--param", choices=("q", "e", "c", "g"), required=True)
    p.add_argument("--factors", default=None, help="comma-separated factors (default 0.1..1 by 0.1, 1..10 by 1)")
    p.add_argument(
        "--parallel",
        type=int,
        default=0,
        help="accepted for compatibility and not used: cells run on one thread per core",
    )
    p.set_defaults(func=cmd_sweep)

    # No abbreviations: --alpha, which ladder does not take, would otherwise
    # be read as --alphas.
    p = sub.add_parser("ladder", help="run the extension ladder", allow_abbrev=False)
    _add_instance_flags(p)
    _add_theta_flag(p)
    _add_budget_flags(p)
    _add_output_flags(p)
    p.add_argument("--versions", default="V2,V3,V4,V5", help="comma-separated versions")
    p.add_argument("--alphas", default=None, help="explicit comma-separated activation budgets")
    p.add_argument("--steps", type=_steps, default=4, help="grid length per version when --alphas is not given")
    p.add_argument("--no-warm-chain", action="store_true")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("report", help="KPIs for a stored solution")
    _add_build_flags(p)
    _add_output_flags(p)
    p.add_argument("--solution", required=True, help="solution JSON from 'solve'")
    p.add_argument("--heatmap", default=None, help="also write (terminal, day, events) rows here")
    p.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser
    as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceError, ConfigError, FileNotFoundError, ValueError, CapExceededError, McfError, MissingVariableError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
