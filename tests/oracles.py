"""Independent oracles used by the tests.

Each function here recomputes a quantity by a different route than the
library (direct summation, literal enumeration, an LP on the node-arc
incidence matrix, an exhaustive scan of a model's integer box, HiGHS's own
MPS reader and MIP solver, scipy's ``milp``, the model over a denser
light-arc set, a walk over the model's constraint objects, a fresh
``linprog`` call per node LP, linprog's point check spelled out test by
test, or a dict walk over each gate's terminal-day event groups) so
expected values in tests are never produced by the code path under test.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from railplan.lighttravel import reduce_exact
from railplan.model import MilpModel, build_base_model, group_events_by_terminal_day
from railplan.solver import (
    FEAS_TOL,
    ConstraintViolation,
    MissingVariableError,
    Solution,
    SolveBudget,
    _LpFailed,
    solve_bb,
)
from railplan.spacetime import build_network, with_light_arcs


def balance_by_summation(instance_dict: dict) -> dict[str, int]:
    """Net weekly power balance recomputed straight from the JSON document."""
    balance = {t["id"]: 0 for t in instance_dict["terminals"]}
    for train in instance_dict["trains"]:
        for leg in train["legs"]:
            balance[leg["to"]] += leg["b"]
            balance[leg["from"]] -= leg["b"]
    return balance


def mcf_cost_by_enumeration(supplies: dict, costs: dict, cap: int | None = None):
    """Minimum-cost integral flow by literal enumeration of arc flows.

    Only usable for tiny problems (a few terminals, small supplies); the flow
    on every arc is scanned up to the total supply.
    """
    ids = sorted(supplies)
    arcs = sorted(costs)
    total = sum(v for v in supplies.values() if v > 0)
    cap = total if cap is None else cap
    best = None
    for combo in itertools.product(range(cap + 1), repeat=len(arcs)):
        net = dict.fromkeys(ids, 0)
        for (i, j), f in zip(arcs, combo):
            net[i] -= f
            net[j] += f
        if any(net[k] != -supplies[k] for k in ids):
            continue
        cost = sum(costs[a] * f for a, f in zip(arcs, combo))
        if best is None or cost < best:
            best = cost
    return best


def mcf_flow_cost(problem, flows: dict[tuple[str, str], int]):
    """The cost of ``flows`` under ``problem``'s pair costs, summed directly."""
    return sum(problem.costs[pair] * units for pair, units in flows.items())


def mcf_cost_by_lp(supplies: dict, costs: dict) -> float:
    """Minimum-cost flow via an LP on the node-arc incidence matrix.

    The incidence matrix is totally unimodular, so the LP optimum equals the
    integral optimum.
    """
    ids = sorted(supplies)
    index = {k: i for i, k in enumerate(ids)}
    arcs = sorted(costs)
    A = np.zeros((len(ids), len(arcs)))
    for a, (i, j) in enumerate(arcs):
        A[index[i], a] = -1  # outflow at the tail
        A[index[j], a] = 1  # inflow at the head
    # Row k: inflow - outflow = -supply[k] (sources ship their surplus out).
    b_eq = np.array([-supplies[k] for k in ids], dtype=float)
    res = linprog(
        c=[costs[a] for a in arcs],
        A_eq=A,
        b_eq=b_eq,
        bounds=[(0, None)] * len(arcs),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# Enumeration oracle


class EnumerationCapError(RuntimeError):
    """Raised when a model exceeds the enumeration oracle's variable cap."""



def solve_enumeration(m: MilpModel, cap: int = 24) -> Solution:
    """Exhaustive scan over the box of variable bounds.

    Interval propagation discards provably infeasible assignments early but
    never an optimal one, so the returned optimum is ground truth.  Intended
    for micro models only; refuses models beyond ``cap`` variables.
    """
    t0 = perf_counter()
    n = len(m.variables)
    if n > cap:
        raise EnumerationCapError(f"enumeration oracle capped at {cap} variables, model has {n}")
    for var in m.variables:
        if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
            raise EnumerationCapError(f"variable {var.id} has unbounded range")

    index = {v.id: i for i, v in enumerate(m.variables)}
    cons = [
        ([(index[v], coef) for v, coef in c.terms], c.sense, c.rhs)
        for c in m.constraints
    ]
    obj = [(index[v], coef) for v, coef in m.objective.items()]

    best_vals: list[int] | None = None
    best_obj = math.inf
    visited = 0

    def propagate(lo: list, hi: list) -> bool:
        changed = True
        while changed:
            changed = False
            for terms, sense, rhs in cons:
                min_l = sum(c * (lo[j] if c > 0 else hi[j]) for j, c in terms)
                max_l = sum(c * (hi[j] if c > 0 else lo[j]) for j, c in terms)
                if sense in ("<=", "=") and min_l > rhs + 1e-9:
                    return False
                if sense in (">=", "=") and max_l < rhs - 1e-9:
                    return False
                for j, c in terms:
                    if c > 0:
                        rest_min = min_l - c * lo[j]
                        rest_max = max_l - c * hi[j]
                    else:
                        rest_min = min_l - c * hi[j]
                        rest_max = max_l - c * lo[j]
                    if sense in ("<=", "="):
                        limit = (rhs - rest_min) / c
                        if c > 0 and limit < hi[j] - 1e-9:
                            hi[j] = math.floor(limit + 1e-9)
                            changed = True
                        elif c < 0 and limit > lo[j] + 1e-9:
                            lo[j] = math.ceil(limit - 1e-9)
                            changed = True
                    if sense in (">=", "="):
                        limit = (rhs - rest_max) / c
                        if c > 0 and limit > lo[j] + 1e-9:
                            lo[j] = math.ceil(limit - 1e-9)
                            changed = True
                        elif c < 0 and limit < hi[j] - 1e-9:
                            hi[j] = math.floor(limit + 1e-9)
                            changed = True
                    if lo[j] > hi[j]:
                        return False
        min_obj = m.offset + sum(c * (lo[j] if c > 0 else hi[j]) for j, c in obj)
        if best_vals is not None and min_obj > best_obj + 1e-9:
            return False
        return True

    def dfs(lo: list, hi: list) -> None:
        nonlocal best_vals, best_obj, visited
        visited += 1
        if visited > 20_000_000:
            raise RuntimeError("enumeration oracle exceeded its expansion guard")
        if not propagate(lo, hi):
            return
        open_vars = [(hi[j] - lo[j], j) for j in range(n) if lo[j] < hi[j]]
        if not open_vars:
            value = m.offset + sum(c * lo[j] for j, c in obj)
            if value < best_obj:
                best_obj = value
                best_vals = list(lo)
            return
        _, j = min(open_vars)
        for v in range(lo[j], hi[j] + 1):
            nlo, nhi = list(lo), list(hi)
            nlo[j] = nhi[j] = v
            dfs(nlo, nhi)

    dfs([v.lower for v in m.variables], [v.upper for v in m.variables])
    wall = perf_counter() - t0
    if best_vals is None:
        return Solution("infeasible", None, None, (math.inf, math.inf), visited, wall)
    values = {v.id: best_vals[i] for i, v in enumerate(m.variables)}
    return Solution("optimal", values, best_obj, (best_obj, best_obj), visited, wall)


# ---------------------------------------------------------------------------
# The model's rows walked one constraint object at a time


def check_feasibility_by_row_walk(m: MilpModel, values: dict) -> list[ConstraintViolation]:
    """``check_feasibility`` as a plain walk over variables and constraints,
    summing each row in Python; the reference for the matrix checker."""
    out: list[ConstraintViolation] = []
    net = m.network
    for var in m.variables:
        if var.id not in values:
            raise MissingVariableError(var.id)
        v = values[var.id]
        if v != int(round(v)):
            out.append(ConstraintViolation(f"int:{var.id}", 0.0, f"value {v} not integral"))
            continue
        if not (var.lower <= v <= var.upper):
            if (
                var.family == "x"
                and net is not None
                and var.subject in net.arcs
                and net.arcs[var.subject].kind == "train"
            ):
                tag = f"cap:{var.subject}"
                msg = f"power window [{var.lower}, {var.upper}] violated by {v}"
            else:
                tag = f"bounds:{var.id}"
                msg = f"bounds [{var.lower}, {var.upper}] violated by {v}"
            out.append(ConstraintViolation(tag, min(v - var.lower, var.upper - v), msg))
    for con in m.constraints:
        lhs = sum(coef * values[var] for var, coef in con.terms)
        scale = max(1.0, abs(float(con.rhs)))
        if con.sense == "<=":
            slack = con.rhs - lhs
        elif con.sense == ">=":
            slack = lhs - con.rhs
        else:
            slack = -abs(lhs - con.rhs)
        if slack < -FEAS_TOL * scale:
            out.append(ConstraintViolation(con.tag, slack, f"lhs={lhs} {con.sense} {con.rhs}"))
    return out


def infer_gate_values(m: MilpModel, values: dict[str, int]) -> dict[str, int]:
    """Each activation gate's value from the event usage in ``values``: 1
    iff its terminal (z1, w1) or terminal-day (z2, w2) holds an event.
    Events absent from ``values`` count as 0."""
    if m.network is None:
        return {}
    groups = group_events_by_terminal_day(m.network)
    events_at: dict[tuple[str, int], int] = {
        key: sum(values.get(so, 0) + values.get(pu, 0) for so, pu in pairs)
        for key, pairs in groups.items()
    }
    out: dict[str, int] = {}
    for var in m.variables:
        if var.family in ("z1", "w1"):
            k = var.subject
            out[var.id] = int(any(v > 0 for (kk, _d), v in events_at.items() if kk == k))
        elif var.family in ("z2", "w2"):
            k, d = var.subject.rsplit(":", 1)
            out[var.id] = int(events_at.get((k, int(d)), 0) > 0)
    return out


def list_built_lp(m: MilpModel) -> dict:
    """The LP relaxation in ``linprog``'s form, built from Python lists row
    by row: costs ``c``, ``A_ub``/``b_ub`` (>= rows negated), ``A_eq``/
    ``b_eq`` and column bounds ``lo``/``hi``."""
    n = len(m.variables)
    index = {v.id: i for i, v in enumerate(m.variables)}
    c = np.zeros(n)
    for var_id, coef in m.objective.items():
        c[index[var_id]] = coef
    eq_rows, eq_rhs, ub_rows, ub_rhs = [], [], [], []
    for con in m.constraints:
        cols = [(index[v], coef) for v, coef in con.terms]
        if con.sense == "=":
            eq_rows.append(cols)
            eq_rhs.append(con.rhs)
        elif con.sense == "<=":
            ub_rows.append(cols)
            ub_rhs.append(con.rhs)
        else:
            ub_rows.append([(j, -coef) for j, coef in cols])
            ub_rhs.append(-con.rhs)

    def pack(rows):
        data, ri, ci = [], [], []
        for r, cols in enumerate(rows):
            for j, coef in cols:
                ri.append(r)
                ci.append(j)
                data.append(float(coef))
        return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))

    return {
        "c": c,
        "A_eq": pack(eq_rows) if eq_rows else None,
        "b_eq": np.array(eq_rhs, dtype=float) if eq_rows else None,
        "A_ub": pack(ub_rows) if ub_rows else None,
        "b_ub": np.array(ub_rhs, dtype=float) if ub_rows else None,
        "lo": np.array([v.lower for v in m.variables], dtype=float),
        "hi": np.array([v.upper for v in m.variables], dtype=float),
    }


def linprog_node_lp(lp, lo, hi, time_limit):
    """One node LP of ``solve_bb`` through a fresh ``linprog`` call.

    A drop-in for ``railplan.solver._LpData.solve`` with its contract:
    ``(objective, x)``, ``(None, None)`` when infeasible, or ``_LpFailed``
    with reason ``"time"`` or ``"lp_failed"``.  The library keeps the LP in
    one HiGHS object per thread and compiled matrix and re-solves each node
    from the basis the previous node left; this call hands HiGHS the same LP
    from scratch every time.  Both must agree on each node's infeasibility and optimal value,
    though a degenerate LP may give them different optimal points.  Put in
    place of ``_LpData.solve``, it grows the cold reference tree.
    """
    if np.any(lo > hi):
        return None, None
    k = lp.n_ub
    res = linprog(
        lp.c,
        A_ub=lp.A[:k],
        b_ub=lp.rhs[:k],
        A_eq=lp.A[k:],
        b_eq=lp.rhs[k:],
        bounds=np.column_stack((lo, hi)),
        method="highs",
        options={"time_limit": max(time_limit, 0.0)},
    )
    if res.status == 2:
        return None, None
    if res.status != 0:
        reason = "time" if res.status == 1 else "lp_failed"
        raise _LpFailed(reason, f"LP relaxation failed with status {res.status}: {res.message}")
    return float(res.fun), res.x


def lp_point_rejected(x, fun, slack, lo, hi, n_ub, tol) -> bool:
    """Whether a node LP's point fails the acceptance test, written as the
    separate NaN and tolerance tests ``_LpData`` first made: any NaN in
    ``x``, ``fun`` or ``slack``, or any entry past ``tol``."""
    return bool(
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(slack).any()
        or (x < lo - tol).any()
        or (x > hi + tol).any()
        or (slack[:n_ub] < -tol).any()
        or (np.abs(slack[n_ub:]) > tol).any()
    )


def milp_optimum(m: MilpModel):
    """Proven optimum of ``m`` by scipy's ``milp`` on ``list_built_lp``'s
    arrays, offset included; ``None`` when the model is infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = list_built_lp(m)
    cons = []
    if lp["A_eq"] is not None:
        cons.append(LinearConstraint(lp["A_eq"], lp["b_eq"], lp["b_eq"]))
    if lp["A_ub"] is not None:
        cons.append(LinearConstraint(lp["A_ub"], -np.inf, lp["b_ub"]))
    res = milp(c=lp["c"], constraints=cons, bounds=Bounds(lp["lo"], lp["hi"]), integrality=np.ones(len(m.variables)))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.fun + float(m.offset)


# ---------------------------------------------------------------------------
# MPS files read back by HiGHS


def read_mps_with_highs(path):
    """Load an MPS file into a HiGHS object through HiGHS's own reader.

    That reader shares no code with railplan's writer, so a model that comes
    back field for field proves the file says what the writer meant.  Uses
    scipy's private HiGHS binding, the one the solver itself loads.
    """
    from scipy.optimize._highspy import _core

    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    return highs


def highs_model_fields(highs):
    """The model loaded in ``highs`` as (columns, costs, offset, rows, matrix).

    Columns are (name, lower, upper, is_integer), rows are (name, lower,
    upper), and the matrix maps (row, column) to each nonzero.
    """
    from scipy.optimize._highspy import _core

    lp = highs.getLp()
    a = lp.a_matrix_
    assert a.format_ == _core.MatrixFormat.kColwise
    matrix = {}
    for j, col in enumerate(lp.col_names_):
        for k in range(a.start_[j], a.start_[j + 1]):
            if a.value_[k] != 0:
                matrix[(lp.row_names_[a.index_[k]], col)] = a.value_[k]
    return (
        [
            (name, lo, hi, kind == _core.HighsVarType.kInteger)
            for name, lo, hi, kind in zip(lp.col_names_, lp.col_lower_, lp.col_upper_, lp.integrality_)
        ],
        list(lp.col_cost_),
        lp.offset_,
        list(zip(lp.row_names_, lp.row_lower_, lp.row_upper_)),
        matrix,
    )


def highs_mip_optimum(highs):
    """Proven optimum of the model loaded in ``highs``, at zero relative gap."""
    from scipy.optimize._highspy import _core

    highs.setOptionValue("mip_rel_gap", 0.0)
    highs.run()
    status = highs.getModelStatus()
    assert status == _core.HighsModelStatus.kOptimal, highs.modelStatusToString(status)
    return highs.getInfo().objective_function_value


# ---------------------------------------------------------------------------
# Light-arc reduction against a dense candidate set


def dense_and_reduced_optima(inst, dense_generator):
    """Proven optima of the model over ``dense_generator``'s light arcs and
    over the exact reduction, in that order; equal when the reduction loses
    nothing."""
    net = build_network(inst)
    started = perf_counter()
    objectives = []
    for generator in (dense_generator, reduce_exact):
        specs = generator(net)
        model = build_base_model(with_light_arcs(net, specs), specs, inst.costs)
        sol = solve_bb(model, SolveBudget(max_seconds=60.0))
        assert sol.status == "optimal", f"expected proven optimum, got {sol.status}"
        objectives.append(sol.objective)
    elapsed = perf_counter() - started
    assert elapsed < 60.0, f"pair of solves took {elapsed:.1f}s"
    return objectives
