"""Integer-programming model assembly.

The base model minimizes weekly ownership (flows crossing the horizon
boundary), deadheading, light travel (per-unit plus fixed crew charges), and
the railcar-alignment work-event penalty, subject to per-leg power windows,
flow conservation at every space-time node, fixed-charge activation of
pick-up/set-out/light arcs, and one mutual-exclusion row per intermediate
stop.  Extension configurations layer work-event restriction schemes on top:
capacity growth at baseline-active terminal-days, incremental activation of
new terminals or terminal-days, and clean-slate redesigns.

Constraint tags are stable strings (no whitespace) with grammar
``family:(n):subject`` for extension rows, where ``(n)`` is a fixed numeric
label per restriction row family, and ``family:subject`` for base rows,
e.g. ``flow:init:K0``, ``so:R:t1:1``, ``V3:(20):K2:4``.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .instance import MINUTES_PER_DAY, CostParams
from .spacetime import SpaceTimeNetwork, with_light_arcs

# Row senses as stored in a ModelMatrix.
SENSE_LE, SENSE_EQ, SENSE_GE = 1, 0, -1
_SENSE_CODES = {"<=": SENSE_LE, "=": SENSE_EQ, ">=": SENSE_GE}

# Largest magnitude of a bound, coefficient row sum times value, or
# right-hand side in an integral ModelMatrix: every row value and slack then
# fits int64 and is exact in float64.
EXACT_INT_LIMIT = 2**52


class ConfigError(ValueError):
    """Raised when an extension configuration misses required parameters."""


class InfeasibleStartError(ValueError):
    """Raised when a warm-start assignment violates the target model."""

    def __init__(self, tags: list[str]):
        self.tags = tags
        super().__init__("warm start violates constraints: " + ", ".join(tags))


class VarRef(NamedTuple):
    id: str
    family: str
    subject: str
    lower: int
    upper: int
    binary: bool = False


def _canonical_terms(terms) -> tuple[tuple[str, float | int], ...]:
    """``terms`` merged per variable, zero sums dropped, sorted by variable.

    Rows are mostly built with one nonzero int or float per variable; then
    the caller's ``(var, coef)`` pairs are kept and only sorted, which gives
    what the merge would (``0 + coef`` is ``coef`` for those types).  Most
    rows have two terms, which one comparison orders as ``sorted`` would.
    """
    terms = tuple(terms)
    for t in terms:
        if type(t) is not tuple or len(t) != 2 or type(t[1]) not in (int, float) or not t[1]:
            return _merged_terms(terms)
    if len(terms) == 2:
        a, b = terms
        if b[0] < a[0]:
            a, b = b, a
        return _merged_terms(terms) if a[0] == b[0] else (a, b)
    ordered = sorted(terms, key=_first)
    prev = None
    for var, _ in ordered:
        if var == prev:
            return _merged_terms(terms)
        prev = var
    return tuple(ordered)


def _merged_terms(terms) -> tuple[tuple[str, float | int], ...]:
    merged: dict[str, float | int] = {}
    for var, coef in terms:
        merged[var] = merged.get(var, 0) + coef
    return tuple((v, c) for v, c in sorted(merged.items()) if c != 0)


_first = itemgetter(0)


class _Row(NamedTuple):
    terms: tuple[tuple[str, float | int], ...]
    sense: str  # "<=", "=", ">="
    rhs: float | int
    tag: str


class LinearConstraint(_Row):
    """One model row; its terms are canonical (``_canonical_terms``)."""

    __slots__ = ()

    def __new__(cls, terms, sense: str, rhs: float | int, tag: str):
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        return super().__new__(cls, _canonical_terms(terms), sense, rhs, tag)

    @classmethod
    def _make(cls, iterable) -> LinearConstraint:
        # What _replace builds through: a replaced row is checked again.
        return cls(*iterable)


@dataclass(frozen=True)
class ExtensionConfig:
    version: str = "V0"
    lambda_: int = 0
    theta: float | int = 6
    alpha_c: int | None = None
    alpha_d: int | None = None
    alpha_e: int | None = None
    alpha_f: int | None = None


# The extension versions: the base model (V0) and its restriction schemes.
VERSIONS = ("V0", "V1", "V1prime", "V2", "V3", "V4", "V5")


# The ExtensionConfig field that holds each version's budget: the extra
# events per baseline-active terminal-day (V1) or the activation budget.
BUDGET_FIELD = {"V1": "lambda_", "V2": "alpha_c", "V3": "alpha_d", "V4": "alpha_e", "V5": "alpha_f"}

# The versions that cap and close terminal-days by a baseline plan.
_ON_BASELINE = ("V1", "V1prime", "V2", "V3")


class _Gate(NamedTuple):
    family: str  # of the gate variables
    per_day: bool  # a gate covers one terminal-day, not a whole terminal
    row: str  # tag prefix of the rows tying a terminal-day's events to its gate
    budget_row: str  # tag of the row capping the open gates at the budget


# The activation gates of V2-V5.  V2 and V3 gate what the baseline closes,
# V4 and V5 every terminal or terminal-day.
_GATES = {
    "V2": _Gate("z1", False, "V2:(17)", "V2:(16)"),
    "V3": _Gate("z2", True, "V3:(20)", "V3:(19)"),
    "V4": _Gate("w1", False, "V4:(23)", "V4:(22)"),
    "V5": _Gate("w2", True, "V5:(26)", "V5:(25)"),
}
GATE_FAMILIES = tuple(gate.family for gate in _GATES.values())


@dataclass
class MilpModel:
    name: str
    variables: tuple[VarRef, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: dict[str, float | int]
    offset: float | int
    decomposition: dict[str, dict[str, float | int]]
    network: SpaceTimeNetwork | None = None
    extension: ExtensionConfig | None = None
    start: dict[str, int] | None = None
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _matrix: "ModelMatrix | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self._index:
            self._index = {v.id: i for i, v in enumerate(self.variables)}
        _check_declared(self._index, self.constraints, self.objective)

    def var(self, var_id: str) -> VarRef:
        return self.variables[self._index[var_id]]

    def vars_of_family(self, family: str) -> list[VarRef]:
        return [v for v in self.variables if v.family == family]

    def matrix(self) -> "ModelMatrix":
        """The compiled rows and column bounds, built on first use."""
        if self._matrix is None:
            self._matrix = ModelMatrix(self)
        return self._matrix

    def extended(
        self,
        new_vars: list[VarRef],
        new_constraints: list[LinearConstraint],
        extension: ExtensionConfig,
        name_suffix: str = "",
    ) -> "MilpModel":
        """This model plus ``new_vars`` and ``new_constraints``.  The new
        variables are unpriced, so the prices are this model's own dicts,
        shared rather than copied: nothing writes to a model's objective.
        Only the new rows are checked against the variables."""
        index = dict(self._index)
        index.update((v.id, len(self.variables) + i) for i, v in enumerate(new_vars))
        _check_declared(index, new_constraints)
        return self._derived(
            name=self.name + name_suffix,
            variables=self.variables + tuple(new_vars),
            constraints=self.constraints + tuple(new_constraints),
            extension=extension,
            start=None,
            _index=index,
            _matrix=None,
        )

    def _derived(self, **changes) -> "MilpModel":
        """A copy of this model with ``changes`` to its fields, built without
        ``__post_init__``'s walk over every row: the caller vouches that each
        row term and objective key is one of the copy's variables.  The copy
        keeps this model's compiled matrix unless ``changes`` set ``_matrix``."""
        model = copy.copy(self)
        model.__dict__.update(changes)
        return model


def _check_declared(index: dict[str, int], constraints, objective=()) -> None:
    """Raise ``ValueError`` for a row term or objective key not in ``index``."""
    for c in constraints:
        for var, _ in c.terms:
            if var not in index:
                raise ValueError(f"constraint {c.tag} references undeclared {var}")
    for var in objective:
        if var not in index:
            raise ValueError(f"objective references undeclared {var}")


class ModelMatrix:
    """A model's column bounds and rows as arrays, in model order.

    ``A`` is a CSR matrix whose row i is constraint i (its terms in the
    constraint's own order), with ``sense`` coded as SENSE_LE/EQ/GE and
    ``rhs`` its right-hand sides.  ``integral`` holds when every bound,
    coefficient and right-hand side is a Python int within EXACT_INT_LIMIT;
    the arrays are int64 then and float64 otherwise.  Integer points whose
    entries stay within ``value_limit`` have exact int64 row values.  The
    objective is not compiled: a sweep reprices one model per cost factor
    and shares its matrix across them.  The rungs of a ladder's version
    chain differ only in budget right-hand sides: each later rung's matrix
    comes from ``with_rhs`` and shares ``A``, the bounds, ``ids``, ``column``
    and ``sessions`` with the first rung's, so a chain compiles one matrix.

    ``sessions`` holds per-thread state over the shared structure: the HiGHS
    LP and repair that every model sharing it re-solves under its own costs
    and right-hand sides (see ``railplan.solver``), and the gate incidence.
    It lives as long as the last matrix that shares it.
    """

    def __init__(self, m: MilpModel):
        self.ids = tuple(v.id for v in m.variables)
        self.column = m._index
        indptr = [0]
        indices: list[int] = []
        data: list = []
        rhs: list = []
        max_row_abs = 0
        for con in m.constraints:
            row_abs = 0
            for var, coef in con.terms:
                indices.append(self.column[var])
                data.append(coef)
                row_abs += abs(coef)
            max_row_abs = max(max_row_abs, row_abs)
            indptr.append(len(indices))
            rhs.append(con.rhs)
        lower = [v.lower for v in m.variables]
        upper = [v.upper for v in m.variables]
        self._integral_lhs = _exact_ints(lower, upper, data)
        self.integral = self._integral_lhs and _exact_ints(rhs)
        dtype = np.int64 if self.integral else float
        self.lower = np.array(lower, dtype=dtype)
        self.upper = np.array(upper, dtype=dtype)
        self.rhs = np.array(rhs, dtype=dtype)
        self.sense = np.array([_SENSE_CODES[con.sense] for con in m.constraints], dtype=np.int8)
        self.A = sparse.csr_matrix(
            (np.array(data, dtype=dtype), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(len(m.constraints), len(self.ids)),
        )
        self.value_limit = EXACT_INT_LIMIT // max(1, max_row_abs) if self.integral else 0
        self.sessions = threading.local()

    def with_rhs(self, rhs: list) -> "ModelMatrix | None":
        """This matrix with right-hand sides ``rhs``, in row order, and every
        other array, the column index and the ``sessions`` slot shared.  The
        constructor would derive the same ``integral`` flag and, as the
        coefficients are the same, the same ``value_limit``; ``None`` when
        ``rhs`` changes the flag and so the dtype of every array."""
        integral = self._integral_lhs and _exact_ints(rhs)
        if integral != self.integral:
            return None
        mx = copy.copy(self)
        mx.rhs = np.array(rhs, dtype=self.rhs.dtype)
        return mx


def _exact_ints(*seqs) -> bool:
    """Whether every entry of ``seqs`` is a Python int within EXACT_INT_LIMIT."""
    return all(isinstance(x, int) and abs(x) <= EXACT_INT_LIMIT for seq in seqs for x in seq)


# Variable-id helpers keep the naming convention in one place.


def x_id(arc_id: str) -> str:
    return f"x:{arc_id}"


def yso_id(arc_id: str) -> str:
    return f"yso:{arc_id}"


def ypu_id(arc_id: str) -> str:
    return f"ypu:{arc_id}"


def u_id(arc_id: str) -> str:
    return f"u:{arc_id}"


def _stop_arcs(arc) -> tuple[str, str]:
    """The set-out and pick-up arc ids of the stop that transition ``arc``
    crosses: the train's arrival at the stop and its next departure."""
    return f"R:{arc.train_id}:{arc.seq}", f"E:{arc.train_id}:{arc.seq + 1}"


def _rc_penalties(net: SpaceTimeNetwork, costs: CostParams, act: dict[str, str]) -> list[tuple[str, float | int]]:
    """Work-event objective coefficients from railcar alignment, keyed by the
    ids ``act`` maps set-out and pick-up arc ids to, sorted by id.

    Per intermediate stop, the set-out and pick-up activation variables are
    priced by how the locomotive event aligns with the railcar event there:
    matched kinds cost c1, mismatched c2, stand-alone (no railcar event) c3,
    and a stop with both railcar kinds treats either locomotive event as
    aligned at c1.
    """
    coefs: dict[str, float | int] = {}
    c1, c2, c3 = costs.c1, costs.c2, costs.c3
    table = {
        "so": (c1, c2),
        "pu": (c2, c1),
        "no": (c3, c3),
        "both": (c1, c1),
    }
    for arc in net.arcs_in_order():
        if arc.kind != "transition":
            continue
        so_coef, pu_coef = table[arc.flags.category]
        so_arc, pu_arc = _stop_arcs(arc)
        coefs[act[so_arc]] = so_coef
        coefs[act[pu_arc]] = pu_coef
    return sorted(coefs.items())


def group_events_by_terminal_day(net: SpaceTimeNetwork) -> dict[tuple[str, int], list[tuple[str, str]]]:
    """Map (terminal, day) to the (y_so, y_pu) variable-id pairs of the
    transition stops happening there; the stop's day is taken from the train's
    arrival at the stop."""
    groups: dict[tuple[str, int], list[tuple[str, str]]] = {}
    for arc in net.arcs_in_order():
        if arc.kind != "transition":
            continue
        tail = net.nodes[arc.tail]
        key = (tail.terminal, tail.time // MINUTES_PER_DAY)
        so_arc, pu_arc = _stop_arcs(arc)
        groups.setdefault(key, []).append((yso_id(so_arc), ypu_id(pu_arc)))
    return groups


def events_per_terminal_day(net: SpaceTimeNetwork, values: dict[str, int]) -> dict[tuple[str, int], int]:
    """Set-out plus pick-up events at each (terminal, day) with a stop, in
    the order of :func:`group_events_by_terminal_day`."""
    return {
        key: sum(values[so] + values[pu] for so, pu in pairs)
        for key, pairs in group_events_by_terminal_day(net).items()
    }


def flow_upper_bound(net: SpaceTimeNetwork) -> int:
    """Box bound for flows outside train arcs.

    In some optimal solution every locomotive rides at least one scheduled
    leg (circulations that never touch a train can be removed at no extra
    cost), so the fleet and hence any single arc flow is at most f per leg.
    """
    f = net.instance.costs.f
    n_legs = sum(1 for a in net.arcs_in_order() if a.kind == "train")
    return max(f, f * n_legs, 1)


def _price(net: SpaceTimeNetwork, costs: CostParams, x: dict[str, str], act: dict[str, str]):
    """Objective coefficients, constant offset and cost decomposition of the
    base model over ``net`` (light arcs merged) at ``costs``.

    ``x`` maps each arc id to the model's own ``x`` variable id, and ``act``
    each set-out, pick-up and light arc id to its ``yso``, ``ypu`` or ``u``
    variable id; the price dicts use those id strings as keys.  Only the
    rates q, g_rate, e_rate and c1-c3 enter here; f and rho_u shape bounds
    and rows instead.  Insertion order is part of the result:
    ``evaluate_objective`` sums in dict order, so terms go in per arc (x),
    then per light arc (u), then the work-event penalties.
    """
    objective: dict[str, float | int] = {}
    decomposition: dict[str, dict[str, float | int]] = {
        "ownership": {},
        "deadhead": {},
        "light_travel": {},
        "work_events": {},
    }
    offset: float | int = 0

    def add_obj(category: str, var: str, coef) -> None:
        if coef == 0:
            return
        objective[var] = objective.get(var, 0) + coef
        bucket = decomposition[category]
        bucket[var] = bucket.get(var, 0) + coef

    light_arcs = []
    for arc in net.arcs_in_order():
        xv = x[arc.id]
        if arc.crossings > 0:
            add_obj("ownership", xv, costs.q * arc.crossings)
        if arc.kind == "train":
            g_l = costs.g_rate * arc.duration
            add_obj("deadhead", xv, g_l)
            offset -= g_l * arc.b
        elif arc.kind == "light":
            add_obj("light_travel", xv, costs.g_rate * arc.transit)
            light_arcs.append(arc)
    for arc in light_arcs:
        add_obj("light_travel", act[arc.id], costs.e_rate * arc.transit)
    for var, coef in _rc_penalties(net, costs, act):
        add_obj("work_events", var, coef)
    return objective, offset, decomposition


def build_base_model(
    net: SpaceTimeNetwork,
    light_arcs,
    costs: CostParams,
    mutual_exclusion: bool = True,
    name: str = "railplan",
) -> MilpModel:
    """Assemble the base assignment model over a network plus light arcs.

    ``light_arcs`` are merged into the network if not already present.  Light
    arcs are priced from ``costs`` and each arc's transit time, so sweeps
    can rescale rates without regenerating arcs.
    """
    if light_arcs and not any(a.kind == "light" for a in net.arcs.values()):
        net = with_light_arcs(net, light_arcs)

    variables: list[VarRef] = []
    constraints: list[LinearConstraint] = []
    U = flow_upper_bound(net)
    u_cap = max(1, math.ceil(U / costs.rho_u))
    arcs = net.arcs_in_order()
    # One id string per variable, shared by every row it is in: x per arc,
    # and the activation variable (yso, ypu or u) per decision or light arc.
    x = {arc.id: x_id(arc.id) for arc in arcs}
    act: dict[str, str] = {}

    for arc in arcs:
        if arc.kind == "train":
            lower, upper = arc.b, costs.f
        else:
            lower, upper = 0, U
        variables.append(VarRef(x[arc.id], "x", arc.id, lower, upper))

    for arc in arcs:
        if arc.kind == "arrival_ground" and arc.decision:
            act[arc.id] = yso_id(arc.id)
            variables.append(VarRef(act[arc.id], "yso", arc.id, 0, 1, True))
        elif arc.kind == "ground_departure" and arc.decision:
            act[arc.id] = ypu_id(arc.id)
            variables.append(VarRef(act[arc.id], "ypu", arc.id, 0, 1, True))
    for arc in arcs:
        if arc.kind == "light":
            act[arc.id] = u_id(arc.id)
            variables.append(VarRef(act[arc.id], "u", arc.id, 0, u_cap))

    for node_id in net.node_order:
        terms = [(x[a], 1) for a in net.in_arcs[node_id]] + [(x[a], -1) for a in net.out_arcs[node_id]]
        constraints.append(LinearConstraint(terms, "=", 0, f"flow:{node_id}"))

    for arc in arcs:
        if arc.kind == "arrival_ground" and arc.decision:
            constraints.append(LinearConstraint(((x[arc.id], 1), (act[arc.id], -costs.f)), "<=", 0, f"so:{arc.id}"))
        elif arc.kind == "ground_departure" and arc.decision:
            constraints.append(LinearConstraint(((x[arc.id], 1), (act[arc.id], -costs.f)), "<=", 0, f"pu:{arc.id}"))
        elif arc.kind == "light":
            constraints.append(
                LinearConstraint(((x[arc.id], 1), (act[arc.id], -costs.rho_u)), "<=", 0, f"lt:{arc.id}")
            )

    if mutual_exclusion:
        # Stated stop semantics: locomotives are picked up only if none are
        # set out, so at most one of the two decision arcs per stop is used.
        for arc in arcs:
            if arc.kind != "transition":
                continue
            so_arc, pu_arc = _stop_arcs(arc)
            constraints.append(LinearConstraint(((act[so_arc], 1), (act[pu_arc], 1)), "<=", 1, f"mutex:{arc.id}"))

    objective, offset, decomposition = _price(net, costs, x, act)
    return MilpModel(
        name=name,
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective=objective,
        offset=offset,
        decomposition=decomposition,
        network=net,
    )


# ---------------------------------------------------------------------------
# Extensions


def _event_terms(pairs: list[tuple[str, str]]) -> list[tuple[str, int]]:
    terms = []
    for so_var, pu_var in pairs:
        terms.append((so_var, 1))
        terms.append((pu_var, 1))
    return terms


def _group_capacity(pairs: list[tuple[str, str]], theta: float | int) -> int:
    """Tight finite cap for one (terminal, day): at most one event per binary,
    further limited by theta when finite."""
    cap = 2 * len(pairs)
    if not math.isinf(theta):
        cap = min(cap, int(theta))
    return cap


def apply_extension(m: MilpModel, cfg: ExtensionConfig) -> MilpModel:
    """Return a new model with the work-event restriction scheme applied."""
    if cfg.version not in VERSIONS:
        raise ConfigError(f"unknown extension version {cfg.version!r}")
    if cfg.version == "V0":
        return m.extended([], [], cfg)
    if m.network is None:
        raise ConfigError("extensions need the model's network for event grouping")
    inst = m.network.instance
    if cfg.version in _ON_BASELINE:
        if inst.baseline is None:
            raise ConfigError(f"{cfg.version} requires a baseline work-event plan")
        # A shorter plan leaves the later days' events free.
        if inst.baseline.days != inst.costs.n_days:
            raise ConfigError(f"{cfg.version} requires a baseline of {inst.costs.n_days} days, got {inst.baseline.days}")
    if not cfg.theta >= 0:  # NaN fails every comparison
        raise ConfigError(f"{cfg.version} requires theta >= 0, got {cfg.theta}")
    _check_budget(cfg)
    new_vars, rows = _extension_rows(m.network, cfg)
    return m.extended(new_vars, rows, cfg, name_suffix=f"+{cfg.version}")


def _extension_rows(net: SpaceTimeNetwork, cfg: ExtensionConfig) -> tuple[list[VarRef], list[LinearConstraint]]:
    """The gate variables and rows that ``cfg``, checked by
    ``apply_extension``, adds to a base model over ``net``."""
    inst = net.instance
    days = range(inst.costs.n_days)
    terminals = sorted(inst.terminal_ids())
    groups = group_events_by_terminal_day(net)
    baseline = inst.baseline
    on_baseline = cfg.version in _ON_BASELINE

    # Gate subject -> the terminal-days that gate opens, in variable order.
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
        # A baseline-active terminal-day takes at most h + lambda events (V1)
        # or 2h (the others), and at most theta; the closed ones no gate
        # opens take none.
        if cfg.version == "V1":
            tag, cap_of_h, cap_row, theta_row, closed = "V1", lambda h: h + cfg.lambda_, 11, 12, "V1:(13)"
        else:
            tag, cap_of_h, cap_row, theta_row, closed = "V1p", lambda h: 2 * h, 14, 15, "V1p:inactive"
        for (k, d) in baseline.active_pairs():
            pairs = groups.get((k, d))
            if pairs:
                terms = _event_terms(pairs)
                cap = cap_of_h(baseline.count(k, d))
                rows.append(LinearConstraint(terms, "<=", cap, f"{tag}:({cap_row}):{k}:{d}"))
                if not math.isinf(cfg.theta):
                    rows.append(LinearConstraint(terms, "<=", cfg.theta, f"{tag}:({theta_row}):{k}:{d}"))
        opened = {key for keys in covers.values() for key in keys}
        for (k, d) in baseline.inactive_pairs(terminals):
            pairs = groups.get((k, d))
            if pairs and (k, d) not in opened:
                rows.append(LinearConstraint(_event_terms(pairs), "=", 0, f"{closed}:{k}:{d}"))

    new_vars: list[VarRef] = []
    if gate is not None:
        new_vars = [VarRef(f"{gate.family}:{subject}", gate.family, subject, 0, 1, True) for subject in covers]
        budget = getattr(cfg, BUDGET_FIELD[cfg.version])
        rows.append(LinearConstraint([(var.id, 1) for var in new_vars], "<=", budget, gate.budget_row))
        for var, keys in zip(new_vars, covers.values()):
            for (k, d) in keys:
                pairs = groups.get((k, d))
                if pairs:
                    terms = _event_terms(pairs) + [(var.id, -_group_capacity(pairs, cfg.theta))]
                    rows.append(LinearConstraint(terms, "<=", 0, f"{gate.row}:{k}:{d}"))
    return new_vars, rows


def _check_budget(cfg: ExtensionConfig) -> None:
    budget_field = BUDGET_FIELD.get(cfg.version)
    if budget_field is None:
        return
    budget = getattr(cfg, budget_field)
    if budget is None:
        raise ConfigError(f"{cfg.version} requires {budget_field}")
    if budget < 0:
        raise ConfigError(f"{cfg.version} requires {budget_field.rstrip('_')} >= 0")


def with_budget(m: MilpModel, budget) -> MilpModel:
    """``m``, a V1-V5 extension model, at another budget.

    For ``m = apply_extension(base, cfg)`` this is ``apply_extension(base,
    cfg')`` where ``cfg'`` is ``cfg`` with its budget field set to
    ``budget``: its extension rows, rebuilt, replace ``m``'s trailing rows,
    which must differ from them in right-hand sides only (``ConfigError``
    otherwise).  Its matrix shares ``m``'s structure and ``sessions`` slot
    (``ModelMatrix.with_rhs``), so a ladder's version chain compiles one
    matrix and loads one LP per thread.
    """
    version = m.extension.version if m.extension is not None else None
    if version not in BUDGET_FIELD:
        raise ConfigError(f"{m.name} has no budget: only V1-V5 extension models do")
    cfg = replace(m.extension, **{BUDGET_FIELD[version]: budget})
    _check_budget(cfg)
    _gate_vars, rows = _extension_rows(m.network, cfg)
    kept = max(0, len(m.constraints) - len(rows))
    if [(c.terms, c.sense, c.tag) for c in m.constraints[kept:]] != [(c.terms, c.sense, c.tag) for c in rows]:
        raise ConfigError(f"{m.name} does not end in the rows of its {version} extension")
    constraints = m.constraints[:kept] + tuple(rows)
    matrix = m.matrix().with_rhs([c.rhs for c in constraints])
    return m._derived(constraints=constraints, extension=cfg, start=None, _matrix=matrix)


def gate_incidence(m: MilpModel) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The activation gates' columns and the events each gate covers.

    Row g of the count matrix counts, per column, the set-out and pick-up
    variables of gate g's terminal (z1, w1) or terminal-day (z2, w2).  The
    matrix has one spare column past the model's: an event variable the
    model lacks maps there, and a work vector keeps it 0.  The result
    depends on the variables and the network alone, so it is built once per
    thread and network for every model sharing the matrix's ``sessions``
    slot (a ladder chain's rungs and their warm starts), and kept there.
    """
    local = m.matrix().sessions
    cached = getattr(local, "gates", None)
    if cached is None or cached[0] is not m.network:
        cached = local.gates = (m.network, _gate_incidence(m))
    return cached[1]


def _gate_incidence(m: MilpModel) -> tuple[np.ndarray, sparse.csr_matrix]:
    mx = m.matrix()
    n = len(mx.ids)
    by_terminal: dict[str, list[tuple[str, str]]] = {}
    by_day: dict[str, list[tuple[str, str]]] = {}
    groups = group_events_by_terminal_day(m.network) if m.network is not None else {}
    for (k, d), pairs in groups.items():
        by_terminal.setdefault(k, []).extend(pairs)
        by_day[f"{k}:{d}"] = pairs
    per_day = {gate.family: gate.per_day for gate in _GATES.values()}
    gate_cols, rows, events = [], [], []
    for j, var in enumerate(m.variables):
        if var.family in per_day:
            covered = by_day if per_day[var.family] else by_terminal
            for pair in covered.get(var.subject, ()):
                rows += [len(gate_cols)] * len(pair)
                events += [mx.column.get(e, n) for e in pair]
            gate_cols.append(j)
    counts = sparse.csr_matrix(
        (np.ones(len(events), dtype=np.int64), (rows, events)), shape=(len(gate_cols), n + 1)
    )
    return np.array(gate_cols, dtype=np.intp), counts


def warm_start_from(m: MilpModel, sol) -> MilpModel:
    """Attach a prior solution as the solver's starting incumbent.

    Activation gates absent from the source solution are 1 iff an event
    under them is used.  The start must be feasible for the (extended)
    model; otherwise the violated constraint tags are reported.
    """
    from .solver import check_feasibility

    if sol.values is None:
        raise ValueError("source solution carries no values")
    ids = m.matrix().ids
    known = {var_id: int(round(sol.values[var_id])) for var_id in ids if var_id in sol.values}
    gate_cols, counts = gate_incidence(m)
    used = counts @ np.array([known.get(var_id, 0) for var_id in ids] + [0], dtype=np.int64)
    opened = {ids[j]: int(n > 0) for j, n in zip(gate_cols, used)}
    values = {var_id: known.get(var_id, opened.get(var_id)) for var_id in ids}
    missing = [var_id for var_id, v in values.items() if v is None]
    if missing:
        raise InfeasibleStartError([f"missing:{v}" for v in missing])
    violations = check_feasibility(m, values)
    if violations:
        raise InfeasibleStartError([v.tag for v in violations])
    return m._derived(start=values)  # same rows, same bounds, same matrix
