"""Independent oracles used by the tests.

Each function here recomputes a quantity by a different route than the
library (direct summation, literal enumeration, an LP on the node-arc
incidence matrix, an exhaustive scan of a model's integer box, HiGHS's own
MPS reader and MIP solver, scipy's ``milp``, the model over a denser
light-arc set, a walk over the model's constraint objects, the model's
rows built one constraint object at a time and compiled by a walk, a fresh
``linprog`` call per node LP, linprog's point check spelled out test by
test, a dict walk over each gate's terminal-day event groups, the exact
light-arc reduction walked terminal pair by terminal pair, or the prices
walked arc by arc) so expected values in tests are never produced by the
code path under test.
"""

from __future__ import annotations

import bisect
import itertools
import math
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from railplan.lighttravel import LightArcSpec, reduce_exact
from railplan.model import (
    _GATES,
    _ON_BASELINE,
    _SENSE_CODES,
    BUDGET_FIELD,
    EXACT_INT_LIMIT,
    LinearConstraint,
    MilpModel,
    VarRef,
    _stop_arcs,
    build_base_model,
    group_events_by_terminal_day,
)
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


# ---------------------------------------------------------------------------
# The model's rows built one constraint object at a time, then compiled by a
# walk over them: the route the library took before it built its matrix
# from the network's arcs as arrays.


def rows_by_constraint_objects(net, costs, mutual_exclusion=True, cfg=None):
    """(variables, rows) of the base model over ``net`` (light arcs merged),
    plus the gate variables and rows of ``cfg`` when given and not V0,
    each row a ``LinearConstraint``."""
    variables, act = _base_variables_by_arc_walk(net, costs)
    rows: list[LinearConstraint] = []
    arcs = net.arcs_in_order()
    for node_id in net.node_order:
        terms = [(f"x:{a}", 1) for a in net.in_arcs[node_id]] + [(f"x:{a}", -1) for a in net.out_arcs[node_id]]
        rows.append(LinearConstraint(terms, "=", 0, f"flow:{node_id}"))
    for arc in arcs:
        if arc.kind == "arrival_ground" and arc.decision:
            rows.append(LinearConstraint(((f"x:{arc.id}", 1), (act[arc.id], -costs.f)), "<=", 0, f"so:{arc.id}"))
        elif arc.kind == "ground_departure" and arc.decision:
            rows.append(LinearConstraint(((f"x:{arc.id}", 1), (act[arc.id], -costs.f)), "<=", 0, f"pu:{arc.id}"))
        elif arc.kind == "light":
            rows.append(LinearConstraint(((f"x:{arc.id}", 1), (act[arc.id], -costs.rho_u)), "<=", 0, f"lt:{arc.id}"))
    if mutual_exclusion:
        for arc in arcs:
            if arc.kind == "transition":
                so_arc, pu_arc = _stop_arcs(arc)
                rows.append(LinearConstraint(((act[so_arc], 1), (act[pu_arc], 1)), "<=", 1, f"mutex:{arc.id}"))
    if cfg is not None and cfg.version != "V0":
        gate_vars, gate_rows = _extension_rows_by_constraint_objects(net, cfg)
        variables += gate_vars
        rows += gate_rows
    return variables, rows


def variables_by_arc_walk(net, costs, cfg=None) -> list[VarRef]:
    """The variables ``rows_by_constraint_objects`` gives, without its
    rows."""
    variables, _act = _base_variables_by_arc_walk(net, costs)
    if cfg is not None and cfg.version != "V0":
        variables += _extension_rows_by_constraint_objects(net, cfg)[0]
    return variables


def _base_variables_by_arc_walk(net, costs) -> tuple[list[VarRef], dict[str, str]]:
    """The base model's variables, one ``VarRef`` per arc walked, and the
    map of each decision or light arc id to its activation variable id."""
    variables: list[VarRef] = []
    arcs = net.arcs_in_order()
    f = net.instance.costs.f  # the flow bound takes the instance's fleet cap
    U = max(f, f * sum(arc.kind == "train" for arc in arcs), 1)
    u_cap = max(1, math.ceil(U / costs.rho_u))
    act: dict[str, str] = {}
    for arc in arcs:
        lower, upper = (arc.b, costs.f) if arc.kind == "train" else (0, U)
        variables.append(VarRef(f"x:{arc.id}", "x", arc.id, lower, upper))
    for arc in arcs:
        if arc.kind == "arrival_ground" and arc.decision:
            act[arc.id] = f"yso:{arc.id}"
            variables.append(VarRef(act[arc.id], "yso", arc.id, 0, 1, True))
        elif arc.kind == "ground_departure" and arc.decision:
            act[arc.id] = f"ypu:{arc.id}"
            variables.append(VarRef(act[arc.id], "ypu", arc.id, 0, 1, True))
    for arc in arcs:
        if arc.kind == "light":
            act[arc.id] = f"u:{arc.id}"
            variables.append(VarRef(act[arc.id], "u", arc.id, 0, u_cap))
    return variables, act


def _extension_rows_by_constraint_objects(net, cfg):
    inst = net.instance
    days = range(inst.costs.n_days)
    terminals = sorted(inst.terminal_ids())
    groups = group_events_by_terminal_day(net)
    baseline = inst.baseline
    on_baseline = cfg.version in _ON_BASELINE

    def event_terms(pairs):
        return [term for so_var, pu_var in pairs for term in ((so_var, 1), (pu_var, 1))]

    def capacity(pairs):
        cap = 2 * len(pairs)
        return cap if math.isinf(cfg.theta) else min(cap, int(cfg.theta))

    gate = _GATES.get(cfg.version)
    covers: dict[str, list[tuple[str, int]]] = {}
    if gate is not None:
        if gate.per_day:
            gated = baseline.inactive_pairs(terminals) if on_baseline else [(k, d) for k in terminals for d in days]
            covers = {f"{k}:{d}": [(k, d)] for (k, d) in gated}
        else:
            gated = baseline.inactive_terminals(terminals) if on_baseline else terminals
            covers = {k: [(k, d) for d in days] for k in gated}
    rows: list[LinearConstraint] = []
    if on_baseline:
        if cfg.version == "V1":
            tag, cap_of_h, cap_row, theta_row, closed = "V1", lambda h: h + cfg.lambda_, 11, 12, "V1:(13)"
        else:
            tag, cap_of_h, cap_row, theta_row, closed = "V1p", lambda h: 2 * h, 14, 15, "V1p:inactive"
        for (k, d) in baseline.active_pairs():
            pairs = groups.get((k, d))
            if pairs:
                terms = event_terms(pairs)
                # A row of integer terms on integer variables keeps its
                # integer points under its right-hand side's floor.
                cap = math.floor(cap_of_h(baseline.count(k, d)))
                rows.append(LinearConstraint(terms, "<=", cap, f"{tag}:({cap_row}):{k}:{d}"))
                if not math.isinf(cfg.theta):
                    rows.append(LinearConstraint(terms, "<=", math.floor(cfg.theta), f"{tag}:({theta_row}):{k}:{d}"))
        opened = {key for keys in covers.values() for key in keys}
        for (k, d) in baseline.inactive_pairs(terminals):
            pairs = groups.get((k, d))
            if pairs and (k, d) not in opened:
                rows.append(LinearConstraint(event_terms(pairs), "=", 0, f"{closed}:{k}:{d}"))
    new_vars: list[VarRef] = []
    if gate is not None:
        new_vars = [VarRef(f"{gate.family}:{subject}", gate.family, subject, 0, 1, True) for subject in covers]
        budget = getattr(cfg, BUDGET_FIELD[cfg.version])
        rows.append(LinearConstraint([(var.id, 1) for var in new_vars], "<=", math.floor(budget), gate.budget_row))
        for var, keys in zip(new_vars, covers.values()):
            for (k, d) in keys:
                pairs = groups.get((k, d))
                if pairs:
                    terms = event_terms(pairs) + [(var.id, -capacity(pairs))]
                    rows.append(LinearConstraint(terms, "<=", 0, f"{gate.row}:{k}:{d}"))
    return new_vars, rows


def compile_by_row_walk(variables, rows) -> dict:
    """A model's matrix fields compiled by a walk over its rows: CSR ``A``
    (row i's entries in row i's term order), ``lower``, ``upper``, ``rhs``,
    ``sense``, ``tags`` and ``value_limit``, as the library's
    ``ModelMatrix`` defines them: int64, from rows and bounds that are
    Python ints."""
    column = {v.id: i for i, v in enumerate(variables)}
    indptr, indices, data, rhs = [0], [], [], []
    max_row_abs = 0
    for con in rows:
        row_abs = 0
        for var, coef in con.terms:
            indices.append(column[var])
            data.append(coef)
            row_abs += abs(coef)
        max_row_abs = max(max_row_abs, row_abs)
        indptr.append(len(indices))
        rhs.append(con.rhs)
    lower = [v.lower for v in variables]
    upper = [v.upper for v in variables]
    # np.array would truncate a float silently.
    assert all(type(x) is int for seq in (data, rhs, lower, upper) for x in seq)
    return {
        "A": sparse.csr_matrix(
            (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(len(rows), len(variables)),
        ),
        "lower": np.array(lower, dtype=np.int64),
        "upper": np.array(upper, dtype=np.int64),
        "rhs": np.array(rhs, dtype=np.int64),
        "sense": np.array([_SENSE_CODES[con.sense] for con in rows], dtype=np.int8),
        "tags": tuple(con.tag for con in rows),
        "value_limit": EXACT_INT_LIMIT // max(1, max_row_abs),
    }


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


# ---------------------------------------------------------------------------
# The exact light-arc reduction as a walk over terminal pairs, and the base
# model's prices as a walk over its arcs: the routes the library took before
# it ran both as array passes.


def reduce_exact_by_pair_walk(net) -> list[LightArcSpec]:
    """The exact reduced light-arc set, per ordered terminal pair: each
    arrival-ground tail's first ground-departure head at or after arrival +
    transit (by a binary search over the heads, wrapping to the first),
    then per (head, origin terminal) the candidate of least wait, ties to
    the latest tail by (time, id)."""
    H = net.horizon
    ground = {term: [net.nodes[nid] for nid in chain] for term, chain in net.ground_chains.items()}
    best = {}
    for term_from in sorted(ground):
        for term_to in sorted(ground):
            delta = net.instance.transit.get(term_from, term_to)
            if term_to == term_from or delta is None:
                continue
            heads = [n for n in ground[term_to] if n.kind == "ground_departure"]
            if not heads:
                continue
            for tail in (n for n in ground[term_from] if n.kind == "arrival_ground"):
                i = bisect.bisect_left(heads, (tail.time + delta) % H, key=lambda n: n.time)
                head = heads[i] if i < len(heads) else heads[0]
                rank = (-((head.time - tail.time - delta) % H), tail.time, tail.id)
                key = (head.id, tail.terminal)
                if key not in best or rank > best[key][0]:
                    best[key] = (rank, tail, head, delta)
    specs = []
    for _rank, tail, head, delta in best.values():
        span = delta + (head.time - (tail.time + delta)) % H
        specs.append(
            LightArcSpec(tail.id, head.id, tail.terminal, head.terminal, delta, span, (tail.time + span) // H)
        )
    return sorted(specs, key=lambda s: (s.tail_terminal, s.head_terminal, s.tail, s.head))


def price_by_arc_walk(net, costs, x: dict, act: dict):
    """(objective, offset, decomposition) of the base model over ``net`` at
    ``costs``, keyed by the ids ``x`` and ``act`` map arc ids to: one pass
    over the arcs in order (ownership before deadhead or light travel per
    arc), then the light arcs' crew terms, then the work-event penalties
    sorted by id; zero terms left out."""
    objective, ownership, deadhead, light_travel, work_events = {}, {}, {}, {}, {}
    offset = 0
    q, g_rate = costs.q, costs.g_rate
    light_arcs = []
    for arc in net.arcs_in_order():
        xv = x[arc.id]
        own = q * arc.crossings if arc.crossings > 0 else 0
        if own != 0:
            objective[xv] = ownership[xv] = own
        if arc.kind == "train":
            coef, bucket = g_rate * arc.duration, deadhead
            offset -= coef * arc.b
        elif arc.kind == "light":
            coef, bucket = g_rate * arc.transit, light_travel
            light_arcs.append(arc)
        else:
            continue
        if coef != 0:
            bucket[xv] = coef
            objective[xv] = own + coef if own != 0 else coef
    for arc in light_arcs:
        coef = costs.e_rate * arc.transit
        if coef != 0:
            objective[act[arc.id]] = light_travel[act[arc.id]] = coef
    table = {
        "so": (costs.c1, costs.c2),
        "pu": (costs.c2, costs.c1),
        "no": (costs.c3, costs.c3),
        "both": (costs.c1, costs.c1),
    }
    penalties = {}
    for arc in net.arcs_in_order():
        if arc.kind == "transition":
            so_arc, pu_arc = _stop_arcs(arc)
            penalties[act[so_arc]], penalties[act[pu_arc]] = table[arc.flags.category]
    for var, coef in sorted(penalties.items()):
        if coef != 0:
            objective[var] = work_events[var] = coef
    decomposition = {
        "ownership": ownership,
        "deadhead": deadhead,
        "light_travel": light_travel,
        "work_events": work_events,
    }
    return objective, offset, decomposition
