"""Reference branch-and-bound solver and exact checkers for the assignment model.

``solve_bb`` is a deterministic branch-and-bound over LP relaxations
(scipy's HiGHS simplex does the bounding), branching on the most fractional
variable with ties to the lowest variable id, depth-first with periodic
best-first restarts.  A thread loads a compiled matrix's LP into HiGHS once
and keeps that session as long as the matrix: a later solve there of any
model sharing the matrix's structure (a sweep cell, a warm start, a later
rung of a ladder's version chain) loads only its costs and changed
right-hand sides and clears the solver, so it grows the tree a new LP would.
A node only changes the column bounds that differ from the previous node's
and runs dual simplex from the basis that node left, which depth-first
search makes the parent's most of the time.  A warm
run without a verdict is repeated once cold.  Node LPs agree with a fresh
``linprog`` call on value and infeasibility, though a degenerate node may
yield another optimal point and so another tree.  Feasibility and objective
evaluation are exact integer arithmetic so proven optima can be compared
across models; a candidate that a float64 sum with a proven rounding margin
puts above the incumbent skips all but the feasibility verdict it needs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy import sparse

from .model import (
    GATE_FAMILIES,
    SENSE_EQ,
    SENSE_GE,
    InfeasibleStartError,
    MilpModel,
    ModelMatrix,
    gate_incidence,
    x_id,
)

log = logging.getLogger(__name__)

INT_TOL = 1e-6
FEAS_TOL = 1e-7


class MissingVariableError(KeyError):
    """Raised when an assignment does not cover every model variable."""

    def __str__(self) -> str:
        return f"solution has no value for model variable {self.args[0]}"


@dataclass(frozen=True)
class ConstraintViolation:
    tag: str
    slack: float
    message: str = ""

    def __str__(self) -> str:
        return f"{self.tag} (slack {self.slack:g}) {self.message}"


@dataclass(frozen=True)
class SolveBudget:
    max_seconds: float = 120.0
    max_nodes: int = 1_000_000
    rel_gap: float = 0.0

    def __post_init__(self):
        # NaN fails every comparison, so test for what each field must be.
        if not (self.max_seconds > 0 and self.max_nodes > 0 and self.rel_gap >= 0):
            raise ValueError("budget fields must be positive (rel_gap >= 0)")


STATUSES = ("optimal", "feasible", "infeasible", "budget_exceeded")


@dataclass
class Solution:
    status: str  # one of STATUSES
    values: dict[str, int] | None
    objective: float | int | None
    bounds: tuple[float, float]
    node_count: int = 0
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# Exact evaluation


def evaluate_objective(m: MilpModel, values: dict[str, int]):
    """Objective value plus the four-term cost decomposition.

    Returns ``(total, breakdown)``; the deadhead bucket absorbs the constant
    offset so the buckets sum to the total.
    """
    for var in m.variables:
        if var.id not in values:
            raise MissingVariableError(var.id)
    breakdown = {cat: sum(coef * values[v] for v, coef in coefs.items()) for cat, coefs in m.decomposition.items()}
    if breakdown:
        breakdown["deadhead"] = breakdown.get("deadhead", 0) + m.offset
    return _objective_value(m, values), breakdown


def _objective_value(m: MilpModel, values: dict[str, int]):
    """The objective at ``values``, which must cover every model variable,
    summed in ``m.objective``'s order so that totals are reproducible."""
    total = m.offset
    for var_id, coef in m.objective.items():
        total += coef * values[var_id]
    return total


def _exact_verdict(mx: ModelMatrix, v: np.ndarray) -> bool | None:
    """Whether the int64 point ``v`` passes ``check_feasibility``, decided
    with one ``A @ v``: the same bound tests and the same slack tolerance,
    exact because every row value fits.  ``None`` when that is not assured
    (an entry past ``value_limit``)."""
    if v.size == 0 or v.min() < -mx.value_limit or v.max() > mx.value_limit:
        return None
    if (v < mx.lower).any() or (v > mx.upper).any():
        return False
    eq, ge, neg_tol = _verdict_rows(mx)
    diff = mx.rhs - mx.A @ v
    slack = np.where(eq, -np.abs(diff), np.where(ge, -diff, diff))
    return not (slack < neg_tol).any()


def _verdict_rows(mx: ModelMatrix):
    """``_exact_verdict``'s per-row arrays: the ``=`` and ``>=`` masks and
    the negated slack tolerance.  Kept per thread in the matrix's
    ``sessions`` slot, which matrices differing in right-hand sides share,
    and rebuilt whenever ``mx.rhs`` is not the one the tolerance was
    computed from."""
    local = mx.sessions
    rows = getattr(local, "verdict_rows", None)
    if rows is None or rows[0] is not mx.rhs:
        neg_tol = -FEAS_TOL * np.maximum(1.0, np.abs(mx.rhs.astype(float)))
        rows = local.verdict_rows = (mx.rhs, mx.sense == SENSE_EQ, mx.sense == SENSE_GE, neg_tol)
    return rows[1:]


def check_feasibility(m: MilpModel, values: dict[str, int]) -> list[ConstraintViolation]:
    """Every bound, integrality and constraint check; empty list iff feasible.

    Integer points are first checked in one int64 matrix product; only a
    point that fails it, a point with a non-integer value and a point past
    the matrix's ``value_limit`` are walked row by row, to name their
    violations.
    """
    mx = m.matrix()
    try:
        v = np.array([values[var_id] for var_id in mx.ids])
    except KeyError:
        v = None  # the walk below names the first missing variable
    if v is not None and v.dtype.kind in "ib" and _exact_verdict(mx, v.astype(np.int64, copy=False)):
        return []
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
# LP relaxation machinery

# The one LP backend is scipy's private HiGHS binding: one HiGHS object per
# thread and compiled matrix, and every use of it stays in this module.
_HIGHS_NAMES = (
    "_Highs", "HighsLp", "HighsOptions", "MatrixFormat", "HighsStatus",
    "HighsModelStatus", "HighsDebugLevel", "simplex_constants", "kHighsInf",
)
_HIGHS_REQUIRED = "railplan needs scipy's private HiGHS binding scipy.optimize._highspy._core (scipy>=1.17)"
try:
    import scipy.optimize._highspy._core as _HIGHS
except ImportError as exc:
    raise ImportError(_HIGHS_REQUIRED) from exc
_missing = [name for name in _HIGHS_NAMES if not hasattr(_HIGHS, name)]
if _missing:
    raise ImportError(f"{_HIGHS_REQUIRED}; this scipy's binding lacks {', '.join(_missing)}")

# linprog's acceptance tolerance for an optimal point (scipy's _check_result).
_CHECK_TOL = math.sqrt(1e-9) * 10


class _LpFailed(Exception):
    """A node LP ended without an optimum or a proof of infeasibility."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason  # "time" | "lp_failed"


class _LpData:
    """A model's LP relaxation in ``linprog``'s row order, from its matrix,
    loaded once into a HiGHS object that keeps its basis between nodes.

    ``A`` holds the ``<=`` rows with ``>=`` rows negated, then the ``=``
    rows, each group in model order; ``rhs`` holds their right-hand sides
    and the first ``n_ub`` rows are the inequalities.  HiGHS gets the same
    column costs, rows as ``lhs <= A x <= rhs``, CSC layout and options as
    ``linprog(method="highs")`` would give it.  The first ``solve`` runs
    cold; each later one passes the column bounds that differ from those
    HiGHS holds and starts dual simplex from the basis the run before it
    left.  ``runs`` counts HiGHS runs and ``cold_retries`` the warm runs that
    had to be repeated cold.  ``id_rank`` ranks the columns by variable id,
    for ``solve_bb``'s branching ties.

    Rows and bounds come from the matrix's structure, so one object serves
    every model that shares it: ``load`` loads another model's costs and
    right-hand sides and leaves the object as a fresh one would be.
    ``solve_bb`` keeps one per thread in the matrix's ``sessions`` slot (see
    ``_session``).
    """

    def __init__(self, m: MilpModel):
        mx = m.matrix()
        self.n = len(mx.ids)
        self._set_costs(m)

        self._ge = ge = mx.sense == SENSE_GE
        eq = mx.sense == SENSE_EQ
        self._order = order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
        row_of = np.repeat(np.arange(mx.A.shape[0]), np.diff(mx.A.indptr))
        data = np.where(ge[row_of], -mx.A.data, mx.A.data).astype(float)
        self.A = sparse.csr_array((data, mx.A.indices, mx.A.indptr), shape=mx.A.shape)[order]
        self._set_rhs(mx)
        self.n_ub = int((~eq).sum())
        self.lo = mx.lower.astype(float)
        self.hi = mx.upper.astype(float)
        self.id_rank = np.empty(self.n, dtype=np.intp)
        self.id_rank[sorted(range(self.n), key=mx.ids.__getitem__)] = np.arange(self.n)

        A = sparse.csc_array(self.A)
        lp = _HIGHS.HighsLp()
        rows = self.rhs.size
        lp.num_col_ = self.n
        lp.num_row_ = rows
        lp.a_matrix_.num_col_ = self.n
        lp.a_matrix_.num_row_ = rows
        lp.a_matrix_.format_ = _HIGHS.MatrixFormat.kColwise
        lp.col_cost_ = self.c
        lp.col_lower_ = self.lo
        lp.col_upper_ = self.hi
        lp.row_lower_ = np.concatenate((np.full(self.n_ub, -_HIGHS.kHighsInf), self.rhs[self.n_ub :]))
        lp.row_upper_ = self.rhs
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data

        self._highs = _HIGHS._Highs()
        options = _HIGHS.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = _HIGHS.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = _HIGHS.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._highs.passOptions(options)
        if self._highs.passModel(lp) == _HIGHS.HighsStatus.kError:
            raise ValueError(f"HiGHS rejected the LP relaxation of {m.name}")
        self._cols = np.arange(self.n, dtype=np.int32)
        self._held_lo, self._held_hi = self.lo.copy(), self.hi.copy()
        self.runs = 0
        self.cold_retries = 0

    def _set_costs(self, m: MilpModel) -> None:
        """``c``, ``m``'s objective as a column vector, and its magnitudes."""
        column = m.matrix().column
        c = np.zeros(self.n)
        for var_id, coef in m.objective.items():
            c[column[var_id]] = coef
        if not np.isfinite(c).all():
            raise ValueError(f"{m.name}: objective coefficients must be finite")
        self.c = c
        self.c_abs = np.abs(c)

    def _set_rhs(self, mx: ModelMatrix) -> None:
        """``rhs``, ``mx``'s right-hand sides in this LP's row order."""
        self.rhs = (np.where(self._ge, -mx.rhs, mx.rhs).astype(float) + 0.0)[self._order]  # no -0.0
        self._rhs_of = mx.rhs

    def load(self, m: MilpModel) -> None:
        """Load ``m``'s costs and right-hand sides, where ``m``'s matrix
        shares the structure of the one this LP was built from, and reset the
        object to the state a new one starts in: every column at its model
        bounds, no basis, no run counted."""
        self._set_costs(m)
        highs = self._highs
        highs.changeColsCost(self.n, self._cols, self.c)
        mx = m.matrix()
        if mx.rhs is not self._rhs_of:
            held = self.rhs
            self._set_rhs(mx)
            # The binding changes one row's bounds per call.
            for i in np.flatnonzero(self.rhs != held).tolist():
                lower = -_HIGHS.kHighsInf if i < self.n_ub else self.rhs[i]
                highs.changeRowBounds(i, lower, self.rhs[i])
        highs.changeColsBounds(self.n, self._cols, self.lo, self.hi)
        self._held_lo, self._held_hi = self.lo.copy(), self.hi.copy()
        highs.clearSolver()
        self.runs = 0
        self.cold_retries = 0

    def solve(self, lo: np.ndarray, hi: np.ndarray, time_limit: float):
        """``(objective, x)`` of the node LP, or ``(None, None)`` if infeasible.

        Dual simplex from the basis the previous node left, judged the way
        ``linprog`` judges a run.  A warm run that ends without a verdict
        (optimal, infeasible or time limit) or with a point outside
        ``_CHECK_TOL`` is run once more cold, from a cleared solver; only
        that run's failure raises ``_LpFailed``, with reason ``"time"`` when
        HiGHS stopped on ``time_limit`` and ``"lp_failed"`` otherwise.
        """
        if np.any(lo > hi):
            return None, None
        highs = self._highs
        changed = np.flatnonzero((lo != self._held_lo) | (hi != self._held_hi))
        if changed.size:
            highs.changeColsBounds(changed.size, changed.astype(np.int32), lo[changed], hi[changed])
            self._held_lo[changed] = lo[changed]
            self._held_hi[changed] = hi[changed]
        # HiGHS measures time_limit against its run clock, which accumulates
        # over every run() of this object; one deadline covers both runs.
        highs.setOptionValue("time_limit", highs.getRunTime() + max(time_limit, 0.0))
        try:
            return self._run(lo, hi)
        except _LpFailed as exc:
            if exc.reason == "time":
                raise
        self.cold_retries += 1
        highs.clearSolver()
        return self._run(lo, hi)

    def _run(self, lo: np.ndarray, hi: np.ndarray):
        """One HiGHS run from the basis it holds, judged like ``linprog``."""
        highs = self._highs
        self.runs += 1
        run_ok = highs.run() != _HIGHS.HighsStatus.kError
        ms = _HIGHS.HighsModelStatus
        status = highs.getModelStatus()
        if status in (ms.kInfeasible, ms.kModelError):
            return None, None
        if status != ms.kOptimal or not run_ok:
            reason = "time" if status == ms.kTimeLimit else "lp_failed"
            raise _LpFailed(reason, f"LP relaxation ended as {highs.modelStatusToString(status)}")
        sol = highs.getSolution()
        x = np.array(sol.col_value)
        fun = highs.getObjectiveValue()
        if not _within_tol(x, fun, self.rhs - np.array(sol.row_value), lo, hi, self.n_ub):
            raise _LpFailed("lp_failed", "the LP point is outside linprog's tolerance")
        return float(fun), x


def _within_tol(x: np.ndarray, fun: float, slack: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_ub: int) -> bool:
    """linprog's test of an optimal point: ``x`` within ``_CHECK_TOL`` of its
    bounds, the first ``n_ub`` slacks at least ``-_CHECK_TOL``, the others
    within it of 0, and nothing NaN.  A comparison with NaN is False, so the
    ``all`` tests reject a NaN entry too; an infinite entry within an
    infinite bound passes, as it did with linprog."""
    tol = _CHECK_TOL
    return bool(
        (x >= lo - tol).all()
        and (x <= hi + tol).all()
        and (slack[:n_ub] >= -tol).all()
        and (np.abs(slack[n_ub:]) <= tol).all()
        and not np.isnan(fun)
    )


@dataclass
class _Node:
    bound: float
    depth: int
    lo: np.ndarray = field(repr=False, default=None)
    hi: np.ndarray = field(repr=False, default=None)


class _Repair:
    """Completes near-integral LP flows into a candidate; built once per
    session (see ``_session``).

    Given integral x values, activation binaries and light-train counts have
    cheapest feasible completions: y = 1 iff flow positive, u = ceil(x/rho),
    and each gate 1 iff its terminal or terminal-day holds an event.  The
    candidate is an int64 column vector, for ``_accept`` to check.
    """

    def __init__(self, m: MilpModel):
        mx = m.matrix()
        self.n = n = len(mx.ids)
        net = m.network
        self.usable = net is not None
        if net is None:
            return
        self.rho = net.instance.costs.rho_u
        # Column n of the work vector stays 0: a variable the model lacks
        # counts as 0.
        col = lambda var_id: mx.column.get(var_id, n)
        flow_cols, y_cols, y_src, u_cols, u_src = [], [], [], [], []
        for j, var in enumerate(m.variables):
            if var.family == "x":
                flow_cols.append(j)
            elif var.family in ("yso", "ypu"):
                y_cols.append(j)
                y_src.append(col(x_id(var.subject)))
            elif var.family == "u":
                u_cols.append(j)
                u_src.append(col(x_id(var.subject)))
            elif var.family not in GATE_FAMILIES:
                self.usable = False  # a family without a cheapest completion
                return
        index = lambda cols: np.array(cols, dtype=np.intp)
        self.flow_cols, self.y_cols, self.y_src = index(flow_cols), index(y_cols), index(y_src)
        self.u_cols, self.u_src = index(u_cols), index(u_src)
        self.gate_cols, self.gates = gate_incidence(m)

    def __call__(self, x: np.ndarray) -> np.ndarray | None:
        """The completed candidate of LP point ``x`` in column order, or
        ``None`` when its flows are not integral."""
        if not self.usable:
            return None
        flows = x[self.flow_cols]
        rounded = np.round(flows)
        if np.any(np.abs(flows - rounded) > INT_TOL):
            return None
        v = np.zeros(self.n + 1, dtype=np.int64)
        v[self.flow_cols] = rounded
        v[self.y_cols] = v[self.y_src] > 0
        v[self.u_cols] = np.ceil(v[self.u_src] / self.rho)
        v[self.gate_cols] = self.gates @ v > 0
        return v[: self.n]


def _accept(m: MilpModel, point: np.ndarray | None) -> dict[str, int] | None:
    """The int64 candidate ``point`` (column order) as values, or ``None``
    when it is missing or infeasible.  One ``A @ v`` decides whenever it can;
    only an undecided point is walked by ``check_feasibility``."""
    if point is None:
        return None
    mx = m.matrix()
    verdict = _exact_verdict(mx, point)
    if verdict is False:
        return None
    values = dict(zip(mx.ids, point.tolist()))
    if verdict is None and check_feasibility(m, values):
        return None
    return values


def _session(m: MilpModel) -> tuple[_LpData, _Repair]:
    """This thread's LP and repair over ``m``'s matrix, the LP loaded for ``m``.

    The first solve on a thread builds both into the matrix's ``sessions``
    slot; a later solve there of any model whose matrix shares that slot (a
    sweep cell, a warm start, a later rung of a ladder chain, the same model
    again) loads that model's costs and right-hand sides into the LP instead
    of building a new one.  ``_Repair`` also reads the network, so a model on
    another network gets a new session.  A session lives as long as the
    matrices sharing it, and no two threads share one.
    """
    local = m.matrix().sessions
    lp = getattr(local, "lp", None)
    if lp is not None and local.network is m.network:
        lp.load(m)
        return lp, local.repair
    lp, repair = _LpData(m), _Repair(m)
    local.lp, local.repair, local.network = lp, repair, m.network
    return lp, repair


# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def _cannot_improve(lp: _LpData, point: np.ndarray, offset, incumbent_obj) -> bool:
    """Whether ``_objective_value`` at the int64 candidate ``point`` surely
    exceeds ``incumbent_obj``, judged by a float64 dot product; ``False``
    when that is not assured.

    Let S = offset + sum(c_j v_j) in exact arithmetic, T = |offset| +
    sum(|c_j v_j|), u the unit roundoff and g(k) = k u / (1 - k u).  Each
    term is formed with at most three roundings (a coefficient past 2**53
    to float64, a value to float64, the product), so within g(3) of its
    value; a sum of the n + 1 terms in any order (BLAS's, or the left to
    right loop of ``_objective_value``, whose int terms are exact) adds at
    most g(n) T.  So ``approx`` and ``_objective_value`` each lie within
    g(n + 3) T of S, hence within 2 g(n + 3) T of each other.  The float
    sum ``scale`` of the magnitudes is at least T (1 - g(n + 3)), and
    ``approx - margin`` rounds by at most about u T.  The margin
    4 (n + 4) u ``scale`` covers these (2 n + 7) u T with room for the
    second-order terms.  A non-finite sum fails the comparison.
    """
    approx = float(lp.c @ point) + float(offset)
    scale = float(lp.c_abs @ np.abs(point)) + abs(float(offset))
    margin = 4 * (point.size + 4) * _UNIT_ROUNDOFF * scale
    return approx - margin > incumbent_obj


def _branch_column(frac: np.ndarray, fractional: np.ndarray, id_rank: np.ndarray) -> int:
    """The column of ``fractional`` whose fraction ``frac`` is nearest one
    half, ties to the lowest variable id (``id_rank``), then to the lowest
    column."""
    return int(fractional[np.lexsort((id_rank[fractional], np.abs(frac[fractional] - 0.5)))[0]])


def solve_bb(m: MilpModel, budget: SolveBudget | None = None) -> Solution:
    """Branch and bound with LP bounding; proves optimality when budget allows.

    Deterministic for a fixed node budget: branching picks the most
    fractional variable (ties to the lowest variable id), children are explored
    floor side first, and every 256 nodes the open list is re-sorted so the
    best bound is explored next.
    """
    budget = budget or SolveBudget()
    t0 = perf_counter()
    lp, repair = _session(m)
    mx = m.matrix()

    incumbent: dict[str, int] | None = None
    incumbent_obj = math.inf
    if m.start is not None:
        viols = check_feasibility(m, m.start)
        if viols:
            raise InfeasibleStartError([v.tag for v in viols])
        incumbent = dict(m.start)
        incumbent_obj = _objective_value(m, incumbent)

    stack = [_Node(bound=-math.inf, depth=0, lo=lp.lo.copy(), hi=lp.hi.copy())]
    node_count = 0
    stopped = None

    # With an all-integer objective, no subtree whose bound exceeds
    # incumbent - 1 can hold a strictly better solution.
    integral_objective = float(m.offset).is_integer() and all(
        float(c).is_integer() for c in m.objective.values()
    )

    def prune_eps() -> float:
        if incumbent is None:
            return 0.0
        if integral_objective:
            return 1.0 - 1e-9
        return 1e-6 * (1.0 + abs(incumbent_obj))

    while stack:
        if node_count >= budget.max_nodes:
            stopped = "nodes"
            break
        if perf_counter() - t0 > budget.max_seconds:
            stopped = "time"
            break
        if node_count and node_count % 256 == 0:
            stack.sort(key=lambda nd: (-nd.bound, nd.depth))
        node = stack.pop()
        if incumbent is not None and node.bound >= incumbent_obj - prune_eps():
            continue
        try:
            obj, x = lp.solve(node.lo, node.hi, budget.max_seconds - (perf_counter() - t0))
        except _LpFailed as exc:
            # The node stays open, so its parent bound still limits the lower bound.
            log.debug("node LP failed after %d nodes: %s", node_count, exc)
            stack.append(node)
            stopped = exc.reason
            break
        node_count += 1
        if obj is None:
            continue
        bound = obj + float(m.offset)
        if incumbent is not None and bound >= incumbent_obj - prune_eps():
            continue

        frac = np.abs(x - np.round(x))
        fractional = np.where(frac > INT_TOL)[0]
        point = repair(x) if fractional.size else np.round(x).astype(np.int64)
        if point is not None and incumbent is not None and _cannot_improve(lp, point, m.offset, incumbent_obj):
            # The incumbent stays whatever the point is worth.  A fractional
            # node branches either way; an integral one closes if the point
            # is feasible and splits if not, so only its verdict is needed.
            verdict = _exact_verdict(mx, point) if fractional.size == 0 else False
            if verdict:
                continue
            values = _accept(m, point) if verdict is None else None
        else:
            values = _accept(m, point)
        if values is not None:
            exact = _objective_value(m, values)
            if exact < incumbent_obj:
                incumbent, incumbent_obj = values, exact
            if fractional.size == 0 or bound >= incumbent_obj - prune_eps():
                continue
        if fractional.size == 0:
            # Numerically integral but exactly infeasible: split on the first
            # unfixed variable to make progress.
            unfixed = np.where(node.lo < node.hi)[0]
            if unfixed.size == 0:
                continue
            j = int(unfixed[0])
        else:
            j = _branch_column(frac, fractional, lp.id_rank)
        split = math.floor(x[j])
        split = min(max(split, int(node.lo[j])), int(node.hi[j]) - 1)

        hi_lo = node.lo.copy()
        hi_lo[j] = split + 1
        hi_child = _Node(bound=bound, depth=node.depth + 1, lo=hi_lo, hi=node.hi)
        lo_hi = node.hi.copy()
        lo_hi[j] = split
        lo_child = _Node(bound=bound, depth=node.depth + 1, lo=node.lo, hi=lo_hi)
        stack.append(hi_child)
        stack.append(lo_child)

        if budget.rel_gap > 0 and incumbent is not None and stack:
            open_lb = min(nd.bound for nd in stack)
            if open_lb > -math.inf:
                gap = (incumbent_obj - open_lb) / max(1e-9, abs(incumbent_obj))
                if gap <= budget.rel_gap:
                    stopped = "gap"
                    break

    wall = perf_counter() - t0
    log.debug(
        "solve_bb %s: stop=%s nodes=%d lp_runs=%d cold_retries=%d wall=%.3fs",
        m.name, stopped or "proven", node_count, lp.runs, lp.cold_retries, wall,
    )
    if stopped is None:
        if incumbent is None:
            return Solution("infeasible", None, None, (math.inf, math.inf), node_count, wall)
        return Solution("optimal", incumbent, incumbent_obj, (incumbent_obj, incumbent_obj), node_count, wall)

    # A stopped search always leaves an open node; incumbent_obj is inf
    # without an incumbent.
    lower = min(min(nd.bound for nd in stack), incumbent_obj)
    status = "feasible" if stopped == "gap" else "budget_exceeded"
    objective = incumbent_obj if incumbent is not None else None
    return Solution(status, incumbent, objective, (lower, incumbent_obj), node_count, wall)


# ---------------------------------------------------------------------------
# Solution files


def solution_to_dict(sol: Solution, model: MilpModel | None = None) -> dict:
    decomposition = None
    if model is not None and sol.values is not None:
        _, decomposition = evaluate_objective(model, sol.values)
    return {
        "status": sol.status,
        "objective": sol.objective,
        "bounds": [None if math.isinf(b) else b for b in sol.bounds],
        "node_count": sol.node_count,
        "wall_time": sol.wall_time,
        "values": sol.values,
        "decomposition": decomposition,
    }


def save_solution(sol: Solution, path, model: MilpModel | None = None) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(sol, model), fh, indent=2)
        fh.write("\n")


def load_solution(path) -> Solution:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a solution file must hold a JSON object")
    if data.get("status") not in STATUSES:
        raise ValueError(f"{path}: solution field 'status' must be one of {', '.join(STATUSES)}")
    values = data.get("values")
    if values is not None and not (isinstance(values, dict) and all(type(v) is int for v in values.values())):
        raise ValueError(f"{path}: solution field 'values' must be an object of integers")
    raw_bounds = data.get("bounds") or [None, None]
    if not (isinstance(raw_bounds, list) and len(raw_bounds) == 2) or any(
        isinstance(b, bool) or not isinstance(b, (int, float, type(None))) for b in raw_bounds
    ):
        raise ValueError(f"{path}: solution field 'bounds' must be two numbers or nulls")
    lo = -math.inf if raw_bounds[0] is None else raw_bounds[0]
    hi = math.inf if raw_bounds[1] is None else raw_bounds[1]
    return Solution(
        status=data["status"],
        values=values,
        objective=data.get("objective"),
        bounds=(lo, hi),
        node_count=data.get("node_count", 0),
        wall_time=data.get("wall_time", 0.0),
    )
