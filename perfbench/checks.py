"""Independent references and per-unit correctness checks.

The reference optimum of every solved model comes from scipy's ``milp``
(HiGHS) on a constraint matrix assembled here from the ``MilpModel`` fields,
so it shares no code with railplan's branch-and-bound.  Each check returns a
list of error strings; an empty list means the unit passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

import railplan as rp
from railplan.report import SHARE_KEYS

OBJ_RTOL = 1e-6
SHARE_TOL = 1e-9
COST_COLUMNS = ("cost_ownership", "cost_deadhead", "cost_light_travel", "cost_work_events")


def _close(a, b, rtol=OBJ_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def model_matrix(m):
    """(c, offset, A, row_lo, row_hi, lb, ub) of a ``MilpModel``."""
    index = {v.id: i for i, v in enumerate(m.variables)}
    c = np.zeros(len(index))
    for var_id, coef in m.objective.items():
        c[index[var_id]] = coef
    rows, cols, data, lo, hi = [], [], [], [], []
    for r, con in enumerate(m.constraints):
        for var_id, coef in con.terms:
            rows.append(r)
            cols.append(index[var_id])
            data.append(float(coef))
        rhs = float(con.rhs)
        lo.append(rhs if con.sense in ("=", ">=") else -np.inf)
        hi.append(rhs if con.sense in ("=", "<=") else np.inf)
    A = sparse.csr_array((data, (rows, cols)), shape=(len(m.constraints), len(index)))
    lb = np.array([v.lower for v in m.variables], dtype=float)
    ub = np.array([v.upper for v in m.variables], dtype=float)
    return c, float(m.offset), A, np.array(lo), np.array(hi), lb, ub


def milp_reference(m, lp_gap: bool = False) -> dict:
    """Proven optimum of ``m`` by HiGHS MIP (``None`` when infeasible).

    With ``lp_gap`` the LP relaxation is solved as well and its relative gap
    to the optimum is returned as ``lp_root_gap``.
    """
    c, offset, A, lo, hi, lb, ub = model_matrix(m)
    cons = LinearConstraint(A, lo, hi) if A.shape[0] else ()
    res = milp(
        c,
        integrality=np.ones_like(c),
        bounds=Bounds(lb, ub),
        constraints=cons,
        options={"mip_rel_gap": 0.0, "time_limit": 600.0},
    )
    if res.status == 2:
        return {"optimum": None}
    if res.status != 0:
        raise RuntimeError(f"reference milp did not prove optimality: {res.message}")
    out = {"optimum": float(res.fun) + offset}
    if lp_gap:
        lp = milp(c, integrality=np.zeros_like(c), bounds=Bounds(lb, ub), constraints=cons)
        root = float(lp.fun) + offset
        out["lp_root_gap"] = (out["optimum"] - root) / max(1.0, abs(out["optimum"]))
    return out


def compare_optimum(record: dict, ref: dict, max_nodes: int) -> list[str]:
    """A solve's status, objective and bounds against the reference optimum.

    A solve that stops early must have spent its node cap and must hold an
    incumbent and a finite lower bound, so a solver that gives up at once
    fails.  Where the reference stores the status the default seed reached
    under the same cap, a proven optimum must stay proven.
    """
    status, objective, optimum = record["status"], record["objective"], ref["optimum"]
    errors = []
    if ref.get("status") == "optimal" and status != "optimal":
        errors.append(f"status {status}, stored status optimal")
    if optimum is None:
        if status != "infeasible":
            errors.append(f"status {status} but the reference is infeasible")
    elif status == "optimal":
        if objective is None or not _close(objective, optimum):
            errors.append(f"optimal objective {objective} != reference {optimum}")
    elif status in ("budget_exceeded", "feasible"):
        errors += _bracket(record, optimum, max_nodes)
    else:
        errors.append(f"status {status} but the reference optimum is {optimum}")
    return errors


def _bracket(record: dict, optimum: float, max_nodes: int) -> list[str]:
    status, lower, upper = record["status"], record["lower"], record["upper"]
    if None in (record["objective"], lower, upper) or not math.isfinite(lower):
        return [f"{status} without an incumbent and a finite lower bound"]
    if status == "budget_exceeded" and record["nodes"] < max_nodes:
        return [f"budget_exceeded after {record['nodes']} of {max_nodes} nodes"]
    tol = OBJ_RTOL * max(1.0, abs(optimum))
    if lower > optimum + tol:
        return [f"lower bound {lower} above reference {optimum}"]
    if min(record["objective"], upper) < optimum - tol:
        return [f"incumbent {record['objective']} or upper bound {upper} below reference {optimum}"]
    return []


def _record(status, objective, bounds, nodes) -> dict:
    return {"status": status, "objective": objective, "lower": bounds[0], "upper": bounds[1], "nodes": nodes}


def settle_solve(model, sol, kpis) -> tuple[dict, list[str]]:
    """Self-consistency of one solve: feasible point, exact objective, minute
    ledger and cost decomposition.  Returns the record for ``compare_optimum``."""
    record = _record(sol.status, sol.objective, sol.bounds, sol.node_count)
    if sol.values is None:
        if sol.status in ("optimal", "feasible"):
            return record, [f"status {sol.status} without a point"]
        return record, []
    errors = []
    violations = rp.check_feasibility(model, sol.values)
    if violations:
        errors.append("infeasible point: " + ", ".join(v.tag for v in violations[:3]))
    exact, breakdown = rp.evaluate_objective(model, sol.values)
    if not _close(exact, sol.objective, 1e-12):
        errors.append(f"reported objective {sol.objective} != evaluated {exact}")
    if kpis is None:
        return record, errors + ["no KPIs for a solution with values"]
    errors += _check_ledger([kpis.activity_shares[k] for k in SHARE_KEYS])
    if not _close(sum(breakdown.values()), sol.objective, 1e-12):
        errors.append(f"cost decomposition {sum(breakdown.values())} != objective {sol.objective}")
    return record, errors


def _check_ledger(shares) -> list[str]:
    if abs(sum(shares) - 1.0) > SHARE_TOL:
        return [f"activity shares sum to {sum(shares)!r}"]
    return []


def settle_row(row: dict) -> tuple[dict, list[str]]:
    """Self-consistency of a sweep cell or ladder rung, from its report row."""
    record = _record(row["status"], row["objective"], (row["lower_bound"], row["upper_bound"]), row["node_count"])
    if row["objective"] is None:
        return record, []
    errors = _check_ledger([row[f"share_{k}"] for k in SHARE_KEYS])
    costs = sum(row[k] for k in COST_COLUMNS)
    if not _close(costs, row["objective"], 1e-12):
        errors.append(f"cost columns sum to {costs}, objective {row['objective']}")
    return record, errors


def mps_digest(path) -> tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def mps_counts(path) -> dict:
    """Rows, columns and matrix nonzeros read back from a free-format MPS file."""
    section = None
    rows = nnz = 0
    cols: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                section = line.split()[0]
                continue
            tok = line.split()
            if section == "ROWS" and tok[0] != "N":
                rows += 1
            elif section == "COLUMNS" and tok[0] != "MARKER":
                cols.add(tok[0])
                nnz += sum(1 for name in tok[1::2] if name != "OBJ")
    return {"vars": len(cols), "rows": rows, "nnz": nnz}


def model_counts(m) -> dict:
    return {
        "vars": len(m.variables),
        "rows": len(m.constraints),
        "nnz": sum(len(con.terms) for con in m.constraints),
    }


def compare_build(record: dict, ref: dict) -> list[str]:
    """An exported model against its reference: exit code, MPS bytes, the
    CLI's reported counts and the counts read back from the file."""
    errors = []
    if record["exit"] != 0:
        errors.append(f"build exited {record['exit']}")
    if record["sha256"] != ref["sha256"]:
        errors.append("MPS sha256 differs from the reference")
    for key in ("vars", "rows", "light_arcs"):
        if record.get(key) != ref[key]:
            errors.append(f"reported {key} {record.get(key)} != reference {ref[key]}")
    if record["mps"] != {k: ref[k] for k in ("vars", "rows", "nnz")}:
        errors.append(f"MPS reads back as {record['mps']}")
    return errors
