"""KPIs, sensitivity sweeps, extension ladders, and tabular emission.

The KPI ledger partitions every locomotive-minute of the week: active
traction, deadheading, pre-departure preparation, post-arrival inspection,
connection dwell, light travel, and idle ground time.  Because flow
conservation routes every unit through a full week of arcs, the shares sum
to exactly one when divided by fleet size times the horizon.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from .instance import MINUTES_PER_DAY, Instance
from .lighttravel import generate_light_arcs
from .model import (
    BUDGET_FIELD,
    ConfigError,
    ExtensionConfig,
    InfeasibleStartError,
    MilpModel,
    _price,
    _stop_arcs,
    apply_extension,
    build_base_model,
    events_per_terminal_day,
    warm_start_from,
    with_budget,
    x_id,
    ypu_id,
    yso_id,
)
from .solver import Solution, SolveBudget, check_feasibility, evaluate_objective, solve_bb
from .spacetime import SpaceTimeNetwork, build_network, with_light_arcs

log = logging.getLogger(__name__)

SHARE_KEYS = (
    "active",
    "deadhead",
    "pre_departure",
    "post_arrival",
    "connection",
    "light_travel",
    "idle",
)

_COST_KEYS = ("ownership", "deadhead", "light_travel", "work_events")

# The KpiReport fields that are one column each.
_SCALAR_KPIS = (
    "fleet_size",
    "work_events",
    "pickups",
    "setouts",
    "pickup_units",
    "setout_units",
    "active_terminals",
    "active_terminal_days",
    "coverage_ratio",
    "light_arcs_used",
    "light_trains",
    "light_od_pairs",
    "dh_minutes",
    "lt_minutes",
)

KPI_COLUMNS = (
    *_SCALAR_KPIS,
    *(f"share_{k}" for k in SHARE_KEYS),
    *(f"cost_{k}" for k in _COST_KEYS),
)

SWEEP_COLUMNS = (
    "parameter",
    "factor",
    "status",
    "objective",
    "lower_bound",
    "upper_bound",
    "node_count",
    "wall_time",
    *KPI_COLUMNS,
)

LADDER_COLUMNS = (
    "version",
    "alpha",
    "warm_started",
    "status",
    "objective",
    "improvement_vs_v1prime_pct",
    "node_count",
    "wall_time",
    *KPI_COLUMNS,
)


@dataclass(frozen=True)
class KpiReport:
    fleet_size: int
    work_events: int
    pickups: int
    setouts: int
    pickup_units: int
    setout_units: int
    active_terminals: int
    active_terminal_days: int
    coverage_ratio: float
    light_arcs_used: int
    light_trains: int
    light_od_pairs: int
    dh_minutes: int
    lt_minutes: int
    activity_minutes: dict[str, int]
    activity_shares: dict[str, float]
    cost_breakdown: dict[str, float]
    objective: float | int

    def per_train_minutes(self, n_trains: int) -> dict[str, float]:
        """Weekly average minutes per scheduled train spent in each activity."""
        if n_trains <= 0:
            raise ValueError("n_trains must be positive")
        return {key: self.activity_minutes[key] / n_trains for key in SHARE_KEYS}

    def to_row(self) -> dict:
        """The report as one row keyed by KPI_COLUMNS, in that order."""
        row = {col: getattr(self, col) for col in _SCALAR_KPIS}
        row.update((f"share_{k}", self.activity_shares[k]) for k in SHARE_KEYS)
        row.update((f"cost_{k}", self.cost_breakdown.get(k, 0)) for k in _COST_KEYS)
        return row


def compute_kpis(net: SpaceTimeNetwork | None, model: MilpModel, sol: Solution) -> KpiReport:
    """All KPI fields from a feasible solution.

    Light arcs log their pure travel minutes as light travel; the wait at the
    destination baked into the arc span counts as idle, as does any extra
    cycle a deceptive wrap arc spans.
    """
    if sol.values is None:
        raise ValueError("solution carries no values")
    net = net or model.network
    if net is None:
        raise ValueError("a network is required to compute KPIs")
    violations = check_feasibility(model, sol.values)
    if violations:
        raise ValueError(
            "solution is infeasible for the model: " + ", ".join(v.tag for v in violations[:5])
        )
    values = sol.values
    H = net.horizon

    minutes = {key: 0 for key in SHARE_KEYS}
    fleet = 0
    light_arcs_used = 0
    light_od: set[tuple[str, str]] = set()
    setouts = pickups = setout_units = pickup_units = opportunities = 0
    # Set-out plus pick-up events per (terminal, day) of each stop, as
    # events_per_terminal_day counts them.
    events: dict[tuple[str, int], int] = {}
    for arc in net.arcs_in_order():
        x = values[x_id(arc.id)]
        fleet += arc.crossings * x
        if arc.kind == "train":
            minutes["active"] += arc.b * arc.duration
            minutes["deadhead"] += (x - arc.b) * arc.duration
        elif arc.kind == "ground_departure":
            minutes["pre_departure"] += x * arc.duration
            if arc.decision:
                y = values[ypu_id(arc.id)]
                pickups += y
                if y > 0:
                    pickup_units += x
                opportunities += 1
        elif arc.kind == "arrival_ground":
            minutes["post_arrival"] += x * arc.duration
            if arc.decision:
                y = values[yso_id(arc.id)]
                setouts += y
                if y > 0:
                    setout_units += x
                opportunities += 1
        elif arc.kind == "transition":
            minutes["connection"] += x * arc.duration
            tail = net.nodes[arc.tail]
            key = (tail.terminal, tail.time // MINUTES_PER_DAY)
            so_arc, pu_arc = _stop_arcs(arc)
            events[key] = events.get(key, 0) + values[yso_id(so_arc)] + values[ypu_id(pu_arc)]
        elif arc.kind == "ground":
            minutes["idle"] += x * arc.duration
        elif arc.kind == "light":
            minutes["light_travel"] += x * arc.transit
            minutes["idle"] += x * (arc.duration - arc.transit)
            if x > 0:
                light_arcs_used += 1
                light_od.add((net.nodes[arc.tail].terminal, net.nodes[arc.head].terminal))

    light_trains = sum(values[var_id] for var_id in model.matrix().ids if var_id.startswith("u:"))
    coverage = (setouts + pickups) / opportunities if opportunities else 0.0

    active_days = [key for key, n in events.items() if n > 0]
    active_terminals = {k for (k, _d) in active_days}

    denom = fleet * H
    shares = {key: (minutes[key] / denom if denom else 0.0) for key in SHARE_KEYS}

    objective, breakdown = evaluate_objective(model, values)
    return KpiReport(
        fleet_size=fleet,
        work_events=setouts + pickups,
        pickups=pickups,
        setouts=setouts,
        pickup_units=pickup_units,
        setout_units=setout_units,
        active_terminals=len(active_terminals),
        active_terminal_days=len(active_days),
        coverage_ratio=coverage,
        light_arcs_used=light_arcs_used,
        light_trains=light_trains,
        light_od_pairs=len(light_od),
        dh_minutes=minutes["deadhead"],
        lt_minutes=minutes["light_travel"],
        activity_minutes=minutes,
        activity_shares=shares,
        cost_breakdown=breakdown,
        objective=objective,
    )


def event_heatmap_rows(net: SpaceTimeNetwork, sol: Solution) -> list[dict]:
    """Work-event counts per (terminal, day) in long form.

    The tabular stand-in for activation heatmaps: one row per terminal-day
    with at least one scheduled stop, in (terminal, day) order.
    """
    if sol.values is None:
        raise ValueError("solution carries no values")
    return [
        {"terminal": k, "day": d, "events": n}
        for (k, d), n in sorted(events_per_terminal_day(net, sol.values).items())
    ]


# ---------------------------------------------------------------------------
# Pipeline helper


def scaled_costs(costs, parameter: str, factor: float):
    """Scaling conventions: q scales ownership only, e the light-travel crew
    rate, c all three work-event costs jointly, g the relocation rate used by
    both deadheading and light travel."""
    _check_factors((factor,))
    if parameter == "q":
        return replace(costs, q=costs.q * factor)
    if parameter == "e":
        return replace(costs, e_rate=costs.e_rate * factor)
    if parameter == "c":
        return replace(costs, c1=costs.c1 * factor, c2=costs.c2 * factor, c3=costs.c3 * factor)
    if parameter == "g":
        return replace(costs, g_rate=costs.g_rate * factor)
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def assemble(
    inst: Instance,
    lt_method: str = "exact",
    extension: ExtensionConfig | None = None,
    costs=None,
    mcf_window: int = 480,
    mcf_threshold: int = 1,
    mcf_alpha: float | None = None,
    mutual_exclusion: bool = True,
):
    """Build (merged network, light specs, model) for an instance."""
    net = build_network(inst)
    specs = generate_light_arcs(
        net, method=lt_method, mcf_window=mcf_window, mcf_threshold=mcf_threshold, mcf_alpha=mcf_alpha
    )
    merged = with_light_arcs(net, specs)
    model = build_base_model(merged, specs, costs or inst.costs, mutual_exclusion=mutual_exclusion)
    if extension is not None and extension.version != "V0":
        model = apply_extension(model, extension)
    return merged, specs, model


# ---------------------------------------------------------------------------
# Sensitivity sweeps


def _check_factors(factors) -> None:
    # NaN fails every comparison, so test for what a factor must be.
    if not all(math.isfinite(f) and f > 0 for f in factors):
        raise ValueError("factors must be finite and positive")


def default_factors() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 1) for i in range(1, 10)) + tuple(float(i) for i in range(1, 11))


@dataclass(frozen=True)
class SweepConfig:
    """A cost-sensitivity sweep: ``parameter`` scaled by each of ``factors``.

    ``parallel`` is still accepted and must be non-negative, but it selects
    nothing: a sweep solves its cells on threads, one per core and never
    more than there are factors.
    """

    parameter: str  # one of q, e, c, g
    factors: tuple[float, ...] = field(default_factory=default_factors)
    lt_method: str = "exact"
    budget: SolveBudget | None = None
    mcf_window: int = 480
    mcf_threshold: int = 1
    mcf_alpha: float | None = None
    parallel: int = 0

    def __post_init__(self):
        if self.parameter not in ("q", "e", "c", "g"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        _check_factors(self.factors)
        if list(self.factors) != sorted(self.factors):
            raise ValueError("factors must be sorted ascending")
        if self.parallel < 0:
            raise ValueError("parallel must be non-negative")


def _solution_row(sol: Solution, net, model) -> dict:
    row = {
        "status": sol.status,
        "objective": sol.objective,
        "lower_bound": sol.bounds[0],
        "upper_bound": sol.bounds[1],
        "node_count": sol.node_count,
        "wall_time": round(sol.wall_time, 4),
    }
    if sol.values is not None:
        row.update(compute_kpis(net, model, sol).to_row())
    else:
        row.update({col: None for col in KPI_COLUMNS})
    return row


def _cell_model(base: MilpModel, costs) -> MilpModel:
    """``base`` repriced at ``costs``.  A sweep's rates move no bound or row,
    so the cell keeps base's variables, id strings, rows and compiled
    matrix, and its prices key on base's own variable ids.  ``base`` is a
    built model: its prices are recomputed from what it was priced from."""
    objective, offset, decomposition = _price(base._prices, costs)
    return base._derived(objective=objective, offset=offset, decomposition=decomposition)


def _sweep_row(base: MilpModel, base_costs, parameter: str, budget, factor: float) -> dict:
    model = _cell_model(base, scaled_costs(base_costs, parameter, factor))
    sol = solve_bb(model, budget=budget)
    row = {"parameter": parameter, "factor": factor}
    row.update(_solution_row(sol, base.network, model))
    return row


def run_sweep(inst: Instance, cfg: SweepConfig) -> list[dict]:
    """One proven (or budget-limited) solve per factor, rows in factor order.

    Light arcs and the rows do not depend on cost rates, so the network, its
    light arcs and the model with its compiled matrix are built once; each
    cell reprices only the objective.  The cells are independent, so they are
    solved side by side on threads.  Per-cell budget exhaustion is recorded
    in the row; the sweep continues.
    """
    _net, _specs, base = assemble(
        inst,
        lt_method=cfg.lt_method,
        mcf_window=cfg.mcf_window,
        mcf_threshold=cfg.mcf_threshold,
        mcf_alpha=cfg.mcf_alpha,
    )
    solve_cell = partial(_sweep_row, base, inst.costs, cfg.parameter, cfg.budget)
    return _thread_map(solve_cell, cfg.factors, f"sweep {cfg.parameter}", "cells")


def _thread_map(fn, items, label: str, noun: str) -> list:
    """``[fn(item) for item in items]``, side by side on threads (HiGHS
    releases the GIL), at most one per item and per core."""
    workers = min(len(items), os.cpu_count() or 1)
    log.debug("%s: %d %s on %d threads", label, len(items), noun, workers)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# Extension ladders


def default_alpha_grid(version: str, baseline, steps: int) -> list[int]:
    """Activation budget grids: terminals move in steps of one, terminal-days
    in steps of five; redesigns start from the baseline-active counts."""
    if version in ("V1", "V2"):
        return list(range(steps))
    if version == "V3":
        return [5 * i for i in range(steps)]
    active_pairs = baseline.active_pairs()
    if version == "V4":
        start = len({k for (k, _d) in active_pairs})
        return [start + i for i in range(steps)]
    if version == "V5":
        start = len(active_pairs)
        return [start + 5 * i for i in range(steps)]
    raise ConfigError(f"no ladder grid for version {version!r}")


def run_extension_ladder(
    inst: Instance,
    versions: list[str],
    budgets: list[int] | None = None,
    warm_chain: bool = True,
    theta: float | int = 6,
    steps: int = 4,
    budget: SolveBudget | None = None,
    lt_method: str = "exact",
) -> list[dict]:
    """Solve the capacity-doubling reference first, then each requested
    version across its activation-budget grid, warm-chaining consecutive
    rungs when enabled.  Objective improvement is reported relative to the
    reference solve.

    A chain's later rungs differ from its first only in the budget rows'
    right-hand sides, so each is derived from the rung before it
    (``with_budget``) and re-solves that rung's compiled matrix and HiGHS
    session.  The versions' chains depend only on the reference, so they are
    solved side by side on threads; rows come back in the order of
    ``versions``.
    """
    chains = [version for version in versions if version != "V1prime"]
    if any(version not in BUDGET_FIELD for version in chains):
        raise ConfigError(f"ladder versions must be among V1prime, {', '.join(BUDGET_FIELD)}; got {versions}")
    net, _specs, base_model = assemble(inst, lt_method=lt_method)

    v1p_model = apply_extension(base_model, ExtensionConfig(version="V1prime", theta=theta))
    v1p_sol, v1p_row = _rung(net, v1p_model, budget, "V1prime", None, False)
    reference = v1p_sol.objective

    def chain(version: str) -> list[dict]:
        grid = budgets if budgets is not None else default_alpha_grid(version, inst.baseline, steps)
        rows: list[dict] = []
        prev_sol = None
        model = None
        for alpha in grid:
            if model is None:
                cfg = ExtensionConfig(version=version, theta=theta, **{BUDGET_FIELD[version]: alpha})
                model = apply_extension(base_model, cfg)
            else:
                model = with_budget(model, alpha)
            warm_used = False
            if warm_chain:
                for source in (prev_sol, v1p_sol):
                    if source is None or source.values is None:
                        continue
                    try:
                        model = warm_start_from(model, source)
                        warm_used = True
                        break
                    except InfeasibleStartError:
                        continue
            sol, row = _rung(net, model, budget, version, alpha, warm_used, reference)
            rows.append(row)
            if sol.values is not None:
                prev_sol = sol
        return rows

    chain_rows = _thread_map(chain, chains, "ladder", "version chains")
    return [v1p_row] + [r for rows in chain_rows for r in rows]


def _rung(net, model: MilpModel, budget, version: str, alpha, warm_used: bool, reference=None):
    """Solve one ladder rung: its solution and its row.  The V1prime
    reference improves on itself by 0%."""
    sol = solve_bb(model, budget=budget)
    log.debug(
        "rung %s alpha=%s warm_started=%s: status=%s nodes=%d wall=%.3fs",
        version, alpha, warm_used, sol.status, sol.node_count, sol.wall_time,
    )
    row = {"version": version, "alpha": alpha, "warm_started": warm_used}
    row.update(_solution_row(sol, net, model))
    if version == "V1prime":
        row["improvement_vs_v1prime_pct"] = 0.0
    elif reference and sol.objective is not None:
        row["improvement_vs_v1prime_pct"] = 100.0 * (reference - sol.objective) / reference
    else:
        row["improvement_vs_v1prime_pct"] = None
    return sol, row


# ---------------------------------------------------------------------------
# Emission


def emit_report(rows: list[dict], format: str = "csv", path=None, columns=None) -> None:
    """Write rows as CSV (RFC-4180 quoting) or JSON with a stable column order."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(columns), extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in columns})
    elif format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{k: row.get(k) for k in columns} for row in rows], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def read_report(path, format: str = "json") -> list[dict]:
    if format == "json":
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if format == "csv":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    raise ValueError(f"unknown report format {format!r}")
