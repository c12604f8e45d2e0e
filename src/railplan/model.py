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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import add, itemgetter, methodcaller, mul, sub
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .instance import EXACT_INT_LIMIT, MINUTES_PER_DAY, CostParams
from .spacetime import ARC_KINDS, Arc, SpaceTimeNetwork, _id_rank, with_light_arcs

# Row senses as stored in a ModelMatrix.
SENSE_LE, SENSE_EQ, SENSE_GE = 1, 0, -1
_SENSE_CODES = {"<=": SENSE_LE, "=": SENSE_EQ, ">=": SENSE_GE}


class ConfigError(ValueError):
    """Raised for an extension configuration, a variable or a number that a
    model cannot take."""


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
_GATE_PREFIXES = tuple(f"{family}:" for family in GATE_FAMILIES)


@dataclass
class MilpModel:
    """A model's variables, rows, prices and provenance.

    Its columns and rows live in one place, its int64 matrix
    (``ModelMatrix``): rows and bounds hold integers, and only the objective
    and offset may hold floats.  ``variables`` (``VarRef``s) and
    ``constraints`` (``LinearConstraint``s) are read-only views of it, read
    when something first iterates or indexes them.  A variable's id is
    ``family:subject``, split at its first ``:``.  A model built by hand, or
    by ``dataclasses.replace``, compiles what it is given into a matrix of
    its own at construction (``ModelMatrix.appended``), so a mismatched
    ``VarRef``, a taken id or an undeclared variable raises there; its views
    compare equal to the given tuples, with int bounds and coefficients.
    ``build_base_model``, ``apply_extension`` and ``with_budget`` hand their
    matrix over instead.
    """

    name: str
    variables: Sequence[VarRef]
    constraints: Sequence[LinearConstraint]
    objective: dict[str, float | int]
    offset: float | int
    decomposition: dict[str, dict[str, float | int]]
    network: SpaceTimeNetwork | None = None
    extension: ExtensionConfig | None = None
    start: dict[str, int] | None = None
    _matrix: "ModelMatrix" = field(default=None, init=False, repr=False, compare=False)
    # What a built model's prices are computed from, for repricing.
    _prices: "_PriceBasis | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._hold(_NO_COLUMNS.appended(_columns(self.variables), self.constraints))
        for var in self.objective:
            if var not in self._matrix.column:
                raise ValueError(f"objective references undeclared {var}")

    @classmethod
    def _of(cls, matrix: "ModelMatrix", **fields) -> "MilpModel":
        """The model of ``fields`` (the others keep their defaults) over
        ``matrix``, handed over and not walked again: the caller vouches
        that each objective key is one of its columns."""
        model = cls.__new__(cls)
        model.__dict__.update(fields)
        model._hold(matrix)
        return model

    def _hold(self, matrix: "ModelMatrix") -> None:
        self._matrix = matrix
        self.variables = _MatrixVars(matrix)
        self.constraints = _MatrixRows(matrix)

    def var(self, var_id: str) -> VarRef:
        return self.variables[self._matrix.column[var_id]]

    def vars_of_family(self, family: str) -> list[VarRef]:
        return [v for v in self.variables if v.family == family]

    def matrix(self) -> "ModelMatrix":
        """The model's compiled rows and column bounds."""
        return self._matrix

    def extended(
        self,
        new_vars: list[VarRef],
        new_constraints: list[LinearConstraint],
        extension: ExtensionConfig,
        name_suffix: str = "",
    ) -> "MilpModel":
        """This model plus ``new_vars`` and ``new_constraints``, whose terms
        are canonical, appended to its matrix; only they are checked, as the
        constructor checks them.  ``new_vars`` are ``VarRef``s or the
        ``_Columns`` of variables named ``family:subject``.  The new
        variables are unpriced, so the prices are this model's own dicts,
        shared rather than copied: nothing writes to a model's objective."""
        columns = new_vars if isinstance(new_vars, _Columns) else _columns(new_vars)
        matrix = self._matrix.appended(columns, new_constraints)
        return self._derived(matrix, name=self.name + name_suffix, extension=extension, start=None)

    def _derived(self, matrix: "ModelMatrix | None" = None, **changes) -> "MilpModel":
        """A copy of this model with ``changes`` to its fields, over
        ``matrix`` or else this model's matrix (see ``_of``)."""
        return MilpModel._of(self._matrix if matrix is None else matrix, **{**vars(self), **changes})


def _columns(variables) -> "_Columns":
    """``variables``, ``VarRef``s, as new columns; ``ConfigError`` for one
    whose family and subject are not its id's parts around its first ``:``."""
    variables = tuple(variables)
    for v in variables:
        if (v.family, v.subject) != v.id.partition(":")[::2]:
            raise ConfigError(f"variable {v.id}: family {v.family!r} and subject {v.subject!r} do not split its id")
    return _Columns(
        [v.id for v in variables], [v.lower for v in variables], [v.upper for v in variables],
        [v.binary for v in variables],
    )


class _Block(NamedTuple):
    """Rows walked into flat lists: CSR row pointers from 0, column indices,
    coefficients, right-hand sides, sense codes and tags, plus the largest
    sum of absolute coefficients in a row."""

    indptr: list[int]
    indices: list[int]
    data: list
    rhs: list
    sense: list[int]
    tags: list[str]
    max_row_abs: float | int


def _walk(rows, column: dict[str, int]) -> _Block:
    """``rows``, each ``(terms, sense, rhs, tag)`` with canonical terms, as a
    ``_Block``; ``ValueError`` for a term whose variable ``column`` lacks."""
    indptr = [0]
    indices: list[int] = []
    data: list = []
    rhs: list = []
    sense: list[int] = []
    tags: list[str] = []
    max_row_abs = 0
    for terms, row_sense, row_rhs, tag in rows:
        row_abs = 0
        for var, coef in terms:
            try:
                indices.append(column[var])
            except KeyError:
                raise ValueError(f"constraint {tag} references undeclared {var}") from None
            data.append(coef)
            row_abs += abs(coef)
        max_row_abs = max(max_row_abs, row_abs)
        indptr.append(len(indices))
        rhs.append(row_rhs)
        sense.append(_SENSE_CODES[row_sense])
        tags.append(tag)
    return _Block(indptr, indices, data, rhs, sense, tags, max_row_abs)


class _Columns(NamedTuple):
    """New columns for a matrix: their ids, bounds and binary flags."""

    ids: list[str]
    lower: list
    upper: list
    binary: list[bool]


class ModelMatrix:
    """A model's columns and rows as int64 arrays, in model order.

    ``A`` is a CSR matrix whose row i is constraint i (its terms in the
    constraint's own order), with ``sense`` coded as SENSE_LE/EQ/GE, ``rhs``
    its right-hand sides and ``tags`` its tags; ``lower`` and ``upper`` are
    the column bounds and ``binary`` marks the binary columns.  Every bound,
    coefficient and right-hand side is an integer within EXACT_INT_LIMIT:
    ``appended`` and ``build_base_model`` raise ``ConfigError`` for any
    other number, and a rounded right-hand side
    (``_int_rhs``) keeps every integer point of its row.
    Integer points whose entries stay within ``value_limit`` have exact
    int64 row values.  The objective is not compiled: a sweep reprices one
    model per cost factor and shares its matrix across them.  The rungs of a
    ladder's version chain differ only in budget right-hand sides: each
    later rung's matrix comes from ``with_rhs`` and shares ``A``, the
    bounds, ``ids``, ``column``, ``tags`` and ``sessions`` with the first
    rung's, so a chain compiles one matrix.

    ``sessions`` holds per-thread state over the shared structure: the HiGHS
    LP and repair that every model sharing it re-solves under its own costs
    and right-hand sides (see ``railplan.solver``), the checker's row
    tolerances and the gate incidence.
    It lives as long as the last matrix that shares it.
    """

    def __init__(self, ids, column, A, lower, upper, binary, rhs, sense, tags, max_row_abs: int):
        self.ids = ids
        self.column = column
        self.A = A
        self.lower = lower
        self.upper = upper
        self.binary = binary
        self.rhs = rhs
        self.sense = sense
        self.tags = tags
        self._max_row_abs = max_row_abs
        self.value_limit = EXACT_INT_LIMIT // max(1, max_row_abs)
        self.sessions = threading.local()

    def appended(self, columns: _Columns, rows) -> "ModelMatrix":
        """This matrix with ``columns`` and then ``rows`` added, with
        ``sessions`` of its own; ``ConfigError`` for a new column whose id is
        taken."""
        n = len(self.ids)
        column = dict(self.column)
        column.update(zip(columns.ids, range(n, n + len(columns.ids))))
        if len(column) != n + len(columns.ids):
            taken = next(
                var_id for j, var_id in enumerate(columns.ids) if var_id in self.column or column[var_id] != n + j
            )
            raise ConfigError(f"variable {taken}: id is already taken")
        block = _checked_walk(rows, column)
        A = self.A
        n_rows, n_cols = A.shape
        A = sparse.csr_matrix(
            (
                np.concatenate((A.data, _int64(block.data))),
                np.concatenate((A.indices, _int64(block.indices))),
                np.concatenate((A.indptr, A.indptr[-1] + _int64(block.indptr[1:]))),
            ),
            shape=(n_rows + len(block.tags), n_cols + len(columns.ids)),
        )
        return ModelMatrix(
            self.ids + tuple(columns.ids),
            column,
            A,
            np.concatenate((self.lower, _bounds(columns.lower, "lower bound", columns.ids))),
            np.concatenate((self.upper, _bounds(columns.upper, "upper bound", columns.ids))),
            np.concatenate((self.binary, np.array(columns.binary, dtype=bool))),
            np.concatenate((self.rhs, _int64(block.rhs))),
            np.concatenate((self.sense, np.array(block.sense, dtype=np.int8))),
            self.tags + tuple(block.tags),
            max(self._max_row_abs, block.max_row_abs),
        )

    def ends_in(self, block: _Block) -> bool:
        """Whether this matrix's last rows are ``block``'s, right-hand
        sides aside."""
        kept = len(self.tags) - len(block.tags)
        if kept < 0:
            return False
        start = self.A.indptr[kept]
        return (
            self.tags[kept:] == tuple(block.tags)
            and self.sense[kept:].tolist() == block.sense
            and (self.A.indptr[kept:] - start).tolist() == block.indptr
            and self.A.indices[start:].tolist() == block.indices
            and self.A.data[start:].tolist() == block.data
        )

    def with_rhs(self, rhs: np.ndarray) -> "ModelMatrix":
        """This matrix with the int64 right-hand sides ``rhs``, in row
        order; every other array, the column index and the ``sessions`` slot
        are shared."""
        mx = copy.copy(self)
        mx.rhs = rhs
        return mx


def _int64(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


# The matrix of no columns and no rows, which every hand-built model's
# matrix is appended to.
_NO_COLUMNS = ModelMatrix(
    (), {}, sparse.csr_matrix((0, 0), dtype=np.int64), _int64(()), _int64(()), np.zeros(0, dtype=bool),
    _int64(()), np.zeros(0, dtype=np.int8), (), 0,
)


def _exact_ints(values, what: str, owner) -> None:
    """Raise ``ConfigError`` unless every entry of ``values`` is an integer
    within EXACT_INT_LIMIT (an integral float counts); ``owner(i)`` names
    the row or variable of entry i.

    The entries are judged by the set of their types, then by their
    extremes, so that the per-entry work is done in C; only a sequence that
    fails is walked to name its first offending entry."""
    if not values or (
        all(issubclass(t, int) for t in set(map(type, values)))
        and -EXACT_INT_LIMIT <= min(values)
        and max(values) <= EXACT_INT_LIMIT
    ):
        return
    for i, value in enumerate(values):
        try:
            whole = value == int(value)  # int() refuses NaN and infinities
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not (whole and -EXACT_INT_LIMIT <= value <= EXACT_INT_LIMIT):
            raise ConfigError(f"{owner(i)}: {what} {value!r} is not an integer within +-2**52")


def _checked_walk(rows, column: dict[str, int]) -> _Block:
    """``_walk(rows, column)``, after ``_exact_ints`` has checked its
    coefficients and right-hand sides."""
    block = _walk(rows, column)
    row_of = lambda entry: bisect_right(block.indptr, entry) - 1
    _exact_ints(block.data, "coefficient", lambda i: f"row {block.tags[row_of(i)]}")
    _exact_ints(block.rhs, "right-hand side", lambda i: f"row {block.tags[i]}")
    return block._replace(max_row_abs=int(block.max_row_abs))


def _bounds(values, what: str, ids) -> np.ndarray:
    """``values``, bounds of the variables ``ids``, as int64 after
    ``_exact_ints`` has checked them."""
    _exact_ints(values, what, lambda i: f"variable {ids[i]}")
    return _int64(values)


_SENSE_TEXT = {code: text for text, code in _SENSE_CODES.items()}


class _ReadFromMatrix(Sequence):
    """Items of a model read from its matrix on first use and then kept."""

    __slots__ = ("matrix", "_items")

    def __init__(self, matrix: ModelMatrix):
        self.matrix = matrix
        self._items = None

    def _read(self) -> tuple:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())

    def __add__(self, other) -> tuple:
        return self._read() + tuple(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, type(self))):
            return self._read() == tuple(other)
        return NotImplemented

    __hash__ = None


class _MatrixRows(_ReadFromMatrix):
    """A model's rows as ``LinearConstraint``s, whose coefficients
    and right-hand sides are the matrix's int64 entries as Python ints."""

    __slots__ = ()

    def _build(self) -> tuple[LinearConstraint, ...]:
        mx = self.matrix
        ids = mx.ids
        terms = list(zip([ids[j] for j in mx.A.indices.tolist()], mx.A.data.tolist()))
        bounds = mx.A.indptr.tolist()
        senses = [_SENSE_TEXT[code] for code in mx.sense.tolist()]
        # The terms are canonical by construction, so the rows skip
        # LinearConstraint's checks.
        make = tuple.__new__
        return tuple(
            make(LinearConstraint, (tuple(terms[a:b]), sense, rhs, tag))
            for a, b, sense, rhs, tag in zip(bounds, bounds[1:], senses, mx.rhs.tolist(), mx.tags)
        )

    def __len__(self) -> int:
        return len(self.matrix.tags)

    def __repr__(self) -> str:
        return f"<{len(self)} rows of a model matrix>"


class _MatrixVars(_ReadFromMatrix):
    """A model's variables as ``VarRef``s read from its matrix: an id's
    family and subject are its parts before and after its first ``:``, and
    its bounds are ints."""

    __slots__ = ()

    def _build(self) -> tuple[VarRef, ...]:
        mx = self.matrix
        parts = list(map(str.partition, mx.ids, repeat(":")))
        return tuple(map(_new_var, zip(
            mx.ids,
            map(_first, parts),
            map(_third, parts),
            mx.lower.tolist(),
            mx.upper.tolist(),
            mx.binary.tolist(),
        )))

    def __len__(self) -> int:
        return len(self.matrix.ids)

    def __repr__(self) -> str:
        return f"<{len(self)} variables of a model matrix>"


_third = itemgetter(2)
# A positional VarRef maker that runs in C.
_new_var = partial(tuple.__new__, VarRef)


# Variable-id helpers keep the naming convention, ``family:subject``, in
# one place; ``build_base_model`` makes the same ids by prefix (_ACT_ID).


def x_id(arc_id: str) -> str:
    return f"x:{arc_id}"


def yso_id(arc_id: str) -> str:
    return f"yso:{arc_id}"


def ypu_id(arc_id: str) -> str:
    return f"ypu:{arc_id}"


def _stop_arcs(arc) -> tuple[str, str]:
    """The set-out and pick-up arc ids of the stop that transition ``arc``
    crosses: the train's arrival at the stop and its next departure."""
    return f"R:{arc.train_id}:{arc.seq}", f"E:{arc.train_id}:{arc.seq + 1}"


# Per railcar category of a stop, the rates (indices into (c1, c2, c3)) of
# its set-out and pick-up events: matched kinds cost c1, mismatched c2,
# stand-alone (no railcar event) c3, and a stop with both railcar kinds
# treats either locomotive event as aligned at c1.
_EVENT_RATES = {"so": (0, 1), "pu": (1, 0), "no": (2, 2), "both": (0, 0)}


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
    Each leg is one train arc.
    """
    f = net.instance.costs.f
    n_legs = sum(len(train.legs) for train in net.instance.trains)
    return max(f, f * n_legs, 1)


class _PriceBasis(NamedTuple):
    """What ``_price`` reads of a base model: the model's own id strings of
    the variables it prices, and the arc numbers the cost rates multiply."""

    x_ids: list[str]  # of the arcs with a crossing, train or light term, in arc order
    wrap_ids: list[str]  # x ids of the arcs that cross the week's end
    crossings: list[int]  # how often each of them crosses it
    train_ids: list[str]  # x ids of the train arcs
    train_minutes: list[int]  # their durations
    train_power: list[int]  # their required active power b
    light_ids: list[str]  # x ids of the light arcs
    light_minutes: list[int]  # their transit minutes
    u_ids: list[str]  # their u ids
    event_ids: list[str]  # set-out and pick-up variables of the stops, sorted
    event_rates: list[int]  # each one's rate, an index into (c1, c2, c3)


def _price(basis: _PriceBasis, costs: CostParams):
    """Objective coefficients, constant offset and cost decomposition of a
    base model at ``costs``, keyed by the model's own variable id strings.

    Only the rates q, g_rate, e_rate and c1-c3 enter here; f and rho_u shape
    bounds and rows instead.  Each coefficient is a rate times an arc's
    number, multiplied as Python numbers so that an int rate stays exact at
    any size, and a zero one is left out.  Insertion order is part of the
    result: ``evaluate_objective`` sums in dict order, so terms go in per
    arc (x, in arc order), then per light arc (u), then the work-event
    penalties by id.  An arc's ownership term comes before its deadhead or
    light travel term in its objective sum.
    """
    own = list(map(mul, repeat(costs.q), basis.crossings))
    deadhead_coefs = list(map(mul, repeat(costs.g_rate), basis.train_minutes))
    light_coefs = list(map(mul, repeat(costs.g_rate), basis.light_minutes))
    crew = list(map(mul, repeat(costs.e_rate), basis.light_minutes))
    rates = (costs.c1, costs.c2, costs.c3)
    events = list(map(rates.__getitem__, basis.event_rates))

    ownership = _nonzero(basis.wrap_ids, own)
    deadhead = _nonzero(basis.train_ids, deadhead_coefs)
    light_x = _nonzero(basis.light_ids, light_coefs)
    objective = dict.fromkeys(basis.x_ids)
    objective.update(deadhead)
    objective.update(light_x)
    priced = len(deadhead) + len(light_x)
    for var, coef in ownership.items():
        move = objective[var]
        objective[var] = coef if move is None else coef + move
        priced += move is None
    if priced < len(objective):  # some arc's terms are all zero
        objective = {var: coef for var, coef in objective.items() if coef is not None}
    light_u = _nonzero(basis.u_ids, crew)
    work_events = _nonzero(basis.event_ids, events)
    objective.update(light_u)
    objective.update(work_events)
    decomposition = {
        "ownership": ownership,
        "deadhead": deadhead,
        "light_travel": light_x | light_u,
        "work_events": work_events,
    }
    return objective, reduce(sub, map(mul, deadhead_coefs, basis.train_power), 0), decomposition


def _nonzero(ids: list[str], coefs: list) -> dict:
    """The nonzero ``coefs``, keyed by ``ids``."""
    return dict(compress(zip(ids, coefs), coefs))


# Per kind of gated arc (set-out and pick-up decisions, light arcs): the
# prefix of its activation variable's id, and of the tag of the row tying
# the arc's flow to that variable.
_ACT_ID = {"arrival_ground": "yso:", "ground_departure": "ypu:", "light": "u:"}
_ACT_ROW = {"arrival_ground": "so:", "ground_departure": "pu:", "light": "lt:"}
_KIND_CODE = {kind: code for code, kind in enumerate(ARC_KINDS)}


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

    The arcs are read once, as one tuple per field.  The columns and rows go
    straight from them into the model's matrix; the rows in this order: flow
    conservation per node (``flow:<node>``), ``x - f y <= 0`` per set-out
    and pick-up decision arc and ``x - rho_u u <= 0`` per light arc
    (``so:``, ``pu:``, ``lt:`` plus the arc id, in arc order), then one
    ``y_so + y_pu <= 1`` per intermediate stop (``mutex:<transition arc>``).
    Each row's terms are canonical: sorted by variable id, a self-loop
    arc's +1 and -1 cancelled, zero coefficients dropped.
    """
    arcs = _arc_fields(net)
    if light_arcs and "light" not in arcs.kind:
        net = with_light_arcs(net, light_arcs)
        arcs = _arc_fields(net)

    f, rho_u = costs.f, costs.rho_u
    U = flow_upper_bound(net)
    u_cap = max(1, math.ceil(U / rho_u))
    arc_ids, kinds = arcs.id, arcs.kind
    n_arcs = len(arc_ids)
    kind = np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, n_arcs)
    is_train = kind == _KIND_CODE["train"]
    is_light = kind == _KIND_CODE["light"]
    train_at = np.flatnonzero(is_train).tolist()
    # One id string per variable, shared by every row and price it is in: x
    # per arc (x_id), and the activation variable (yso, ypu or u) per
    # decision or light arc.
    x_ids = tuple(map("x:".__add__, arc_ids))
    decision = list(compress(range(n_arcs), arcs.decision))
    light = np.flatnonzero(is_light).tolist()
    gated = decision + light
    gated_ids = list(map(arc_ids.__getitem__, gated))
    act_ids = list(map(add, map(_ACT_ID.__getitem__, map(kinds.__getitem__, gated)), gated_ids))
    act = dict(zip(gated_ids, act_ids))
    ids = x_ids + tuple(act_ids)
    binary = np.zeros(len(ids), dtype=bool)
    binary[n_arcs:n_arcs + len(decision)] = True
    column = dict(zip(ids, range(len(ids))))

    # Coefficients are codes into this table.
    table = (1, -1, -f, -rho_u)
    ONE, MINUS_ONE, MINUS_F, MINUS_RHO = range(4)

    # Flow rows: +1 at each arc's head node, -1 at its tail, sorted by x id.
    node_row = {node_id: i for i, node_id in enumerate(net.node_order)}
    head = np.fromiter(map(node_row.__getitem__, arcs.head), np.int64, n_arcs)
    tail = np.fromiter(map(node_row.__getitem__, arcs.tail), np.int64, n_arcs)
    id_rank = _id_rank(arc_ids)
    through = np.flatnonzero(head != tail)
    flow_rows = np.concatenate((head[through], tail[through]))
    flow_cols = np.concatenate((through, through))
    flow_codes = np.repeat(np.array([ONE, MINUS_ONE], dtype=np.int8), through.size)
    order = np.argsort(flow_rows * n_arcs + id_rank[flow_cols])  # one key per (row, column)
    n_flow = len(node_row)

    # Activation rows in arc order: x then y (x:... < y...:...) for
    # decisions, u then x for light arcs.
    by_arc = np.argsort(gated, kind="stable")
    gated, light_row, act_cols = np.array(gated, dtype=np.int64)[by_arc], by_arc >= len(decision), n_arcs + by_arc
    act_cols = np.where(light_row[:, None], np.column_stack((act_cols, gated)), np.column_stack((gated, act_cols)))
    act_codes = np.where(
        light_row[:, None], np.array([MINUS_RHO, ONE], dtype=np.int8), np.array([ONE, MINUS_F], dtype=np.int8)
    )
    gated = gated.tolist()
    act_tags = list(map(add, map(_ACT_ROW.__getitem__, map(kinds.__getitem__, gated)), map(arc_ids.__getitem__, gated)))
    n_act = len(gated)

    # Per intermediate stop, its set-out and pick-up variables: priced by
    # railcar alignment, and with mutual exclusion one row, y_pu then y_so
    # (ypu:... < yso:...).
    transitions = list(map(net.arcs.__getitem__, compress(arc_ids, (kind == _KIND_CODE["transition"]).tolist())))
    stops = [(act[so], act[pu]) for so, pu in map(_stop_arcs, transitions)]
    event_ids = list(chain.from_iterable(stops))
    event_rates = [rate for arc in transitions for rate in _EVENT_RATES[arc.flags.category]]
    by_id = sorted(range(len(event_ids)), key=event_ids.__getitem__)
    mutex = transitions if mutual_exclusion else []
    mutex_cols = np.array(
        [(column[pu], column[so]) for so, pu in (stops if mutual_exclusion else [])], dtype=np.int64
    ).reshape(-1, 2)
    n_mutex = len(mutex)

    n_rows = n_flow + n_act + n_mutex
    rows = np.concatenate((
        flow_rows[order],
        np.repeat(n_flow + np.arange(n_act), 2),
        np.repeat(n_flow + n_act + np.arange(n_mutex), 2),
    ))
    cols = np.concatenate((
        flow_cols[order],
        act_cols.ravel(),
        mutex_cols.ravel(),
    ))
    codes = np.concatenate((flow_codes[order], act_codes.ravel(), np.full(2 * n_mutex, ONE, dtype=np.int8)))
    used = [table[code] for code in np.unique(codes).tolist()]
    if 0 in used:  # a zero f or rho_u: its terms drop out
        keep = np.array([value != 0 for value in table])[codes]
        rows, cols, codes = rows[keep], cols[keep], codes[keep]
        used = [value for value in used if value != 0]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))

    # Bounds: b (0 off train arcs) to f on train arcs, 0 to U on the other
    # arcs, binary decisions and 0 to u_cap light trains.  These and f and
    # rho_u as coefficients are the matrix's only numbers besides 0 and 1.
    _exact_ints(arcs.b, "lower bound", lambda i: f"variable {x_ids[i]}")
    scalars = ("costs.f", "flow bound U", "light-train bound u_cap", "costs.rho_u")
    _exact_ints((f, U, u_cap, rho_u), "value", scalars.__getitem__)
    lower = np.zeros(len(ids), dtype=np.int64)
    lower[:n_arcs] = arcs.b
    upper = np.full(len(ids), U, dtype=np.int64)
    upper[train_at] = f
    upper[n_arcs:n_arcs + len(decision)] = 1
    upper[n_arcs + len(decision):] = u_cap
    A = sparse.csr_matrix(
        (_int64(table)[codes], cols, indptr.astype(np.int64)), shape=(n_rows, len(ids))
    )
    tags = list(map("flow:".__add__, net.node_order)) + act_tags + [f"mutex:{arc.id}" for arc in mutex]
    sense = np.full(n_rows, SENSE_LE, dtype=np.int8)
    sense[:n_flow] = SENSE_EQ
    rhs = np.zeros(n_rows, dtype=np.int64)
    rhs[n_flow + n_act:] = 1
    matrix = ModelMatrix(ids, column, A, lower, upper, binary, rhs, sense, tuple(tags), _max_row_abs(A))

    wraps = np.array(arcs.crossings) > 0
    wrap_at = np.flatnonzero(wraps).tolist()
    basis = _PriceBasis(
        list(map(x_ids.__getitem__, np.flatnonzero(wraps | is_train | is_light).tolist())),
        list(map(x_ids.__getitem__, wrap_at)),
        list(map(arcs.crossings.__getitem__, wrap_at)),
        list(map(x_ids.__getitem__, train_at)),
        list(map(arcs.duration.__getitem__, train_at)),
        list(map(arcs.b.__getitem__, train_at)),
        list(map(x_ids.__getitem__, light)),
        list(map(arcs.transit.__getitem__, light)),
        act_ids[len(decision):],
        list(map(event_ids.__getitem__, by_id)),
        list(map(event_rates.__getitem__, by_id)),
    )
    objective, offset, decomposition = _price(basis, costs)
    return MilpModel._of(
        matrix, name=name, objective=objective, offset=offset, decomposition=decomposition, network=net,
        _prices=basis,
    )


def _arc_fields(net: SpaceTimeNetwork) -> Arc:
    """The network's arcs read once, as an ``Arc`` whose every field is a
    tuple of that field of every arc, in arc order."""
    arcs = list(map(net.arcs.__getitem__, net.arc_order))
    return Arc._make(tuple(map(itemgetter(i), arcs)) for i in range(len(Arc._fields)))


def _max_row_abs(A: sparse.csr_matrix) -> int:
    """The largest sum of absolute coefficients in a row of ``A``, summed
    in int64.  Not ``abs(A)``: it sorts each row of ``A`` by
    column, in place."""
    filled = np.flatnonzero(np.diff(A.indptr))
    if filled.size == 0:
        return 0
    return int(np.add.reduceat(np.abs(A.data), A.indptr[filled]).max())


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
    further limited by theta."""
    return min(2 * len(pairs), _int_rhs(theta))


def _int_rhs(b: float | int) -> int:
    """The integer right-hand side of a ``<=`` row with integer
    coefficients on integer variables and bound ``b >= 0``: its floor, which
    keeps every integer point of the row (Chvatal-Gomory rounding), capped at
    EXACT_INT_LIMIT, which these rows, each summing at most a few binaries,
    never reach."""
    return math.floor(min(b, EXACT_INT_LIMIT))


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
    gate_ids, rows = _extension_rows(m.network, cfg)
    n = len(gate_ids)
    return m.extended(_Columns(gate_ids, [0] * n, [1] * n, [True] * n), rows, cfg, name_suffix=f"+{cfg.version}")


def _extension_rows(net: SpaceTimeNetwork, cfg: ExtensionConfig) -> tuple[list[str], list[tuple]]:
    """The ids of the binary gate variables and the rows that ``cfg``,
    checked by ``apply_extension``, adds to a base model over ``net``; each
    row is a ``(terms, sense, rhs, tag)`` tuple with canonical terms."""
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

    rows: list[tuple] = []
    if on_baseline:
        # A baseline-active terminal-day takes at most h + lambda events (V1)
        # or 2h (the others), and at most theta; the closed ones no gate
        # opens take none.
        if cfg.version == "V1":
            tag, cap_of_h, cap_row, theta_row, closed = "V1", lambda h: _int_rhs(h + cfg.lambda_), 11, 12, "V1:(13)"
        else:
            tag, cap_of_h, cap_row, theta_row, closed = "V1p", lambda h: 2 * h, 14, 15, "V1p:inactive"
        for (k, d) in baseline.active_pairs():
            pairs = groups.get((k, d))
            if pairs:
                terms = _event_terms(pairs)
                cap = cap_of_h(baseline.count(k, d))
                rows.append(_row(terms, "<=", cap, f"{tag}:({cap_row}):{k}:{d}"))
                if not math.isinf(cfg.theta):
                    rows.append(_row(terms, "<=", _int_rhs(cfg.theta), f"{tag}:({theta_row}):{k}:{d}"))
        opened = {key for keys in covers.values() for key in keys}
        for (k, d) in baseline.inactive_pairs(terminals):
            pairs = groups.get((k, d))
            if pairs and (k, d) not in opened:
                rows.append(_row(_event_terms(pairs), "=", 0, f"{closed}:{k}:{d}"))

    gate_ids: list[str] = []
    if gate is not None:
        gate_ids = [f"{gate.family}:{subject}" for subject in covers]
        budget = getattr(cfg, BUDGET_FIELD[cfg.version])
        rows.append(_row([(var_id, 1) for var_id in gate_ids], "<=", _int_rhs(budget), gate.budget_row))
        for var_id, keys in zip(gate_ids, covers.values()):
            for (k, d) in keys:
                pairs = groups.get((k, d))
                if pairs:
                    terms = _event_terms(pairs) + [(var_id, -_group_capacity(pairs, cfg.theta))]
                    rows.append(_row(terms, "<=", 0, f"{gate.row}:{k}:{d}"))
    return gate_ids, rows


def _row(terms, sense: str, rhs, tag: str) -> tuple:
    return _canonical_terms(terms), sense, rhs, tag


def _check_budget(cfg: ExtensionConfig) -> None:
    budget_field = BUDGET_FIELD.get(cfg.version)
    if budget_field is None:
        return
    budget = getattr(cfg, budget_field)
    if budget is None:
        raise ConfigError(f"{cfg.version} requires {budget_field}")
    if not budget >= 0:  # NaN fails every comparison
        raise ConfigError(f"{cfg.version} requires {budget_field.rstrip('_')} >= 0")


def with_budget(m: MilpModel, budget) -> MilpModel:
    """``m``, a V1-V5 extension model, at another budget.

    For ``m = apply_extension(base, cfg)`` this is ``apply_extension(base,
    cfg')`` where ``cfg'`` is ``cfg`` with its budget field set to
    ``budget``: its extension rows, rebuilt, must equal ``m``'s trailing
    rows but for their right-hand sides (``ConfigError`` otherwise), which
    take the rebuilt ones'.  Its matrix shares ``m``'s structure and
    ``sessions`` slot (``ModelMatrix.with_rhs``), so a ladder's version
    chain compiles one matrix and loads one LP per thread.
    """
    version = m.extension.version if m.extension is not None else None
    if version not in BUDGET_FIELD:
        raise ConfigError(f"{m.name} has no budget: only V1-V5 extension models do")
    cfg = replace(m.extension, **{BUDGET_FIELD[version]: budget})
    _check_budget(cfg)
    _gate_ids, rows = _extension_rows(m.network, cfg)
    mx = m.matrix()
    try:
        block = _walk(rows, mx.column)
    except ValueError:
        block = None
    if block is None or not mx.ends_in(block):
        raise ConfigError(f"{m.name} does not end in the rows of its {version} extension")
    rhs = mx.rhs.copy()
    rhs[len(rhs) - len(block.rhs):] = block.rhs
    return m._derived(mx.with_rhs(rhs), extension=cfg, start=None)


def gate_incidence(mx: ModelMatrix) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The activation gates' columns and the events each gate covers.

    Gate g, a z1, z2, w1 or w2 column, covers the positive entries (its
    terminal's or terminal-day's events) of every row in which its
    coefficient is negative, so a gate of capacity 0 (theta < 1) covers
    nothing.  Row g of the count matrix counts them per column.  Built from
    ``A`` alone, once per thread for every matrix sharing its ``sessions``
    slot (a ladder chain's rungs and their warm starts), and kept there.
    """
    local = mx.sessions
    cached = getattr(local, "gates", None)
    if cached is None or cached[0] is not mx.A:
        cached = local.gates = (mx.A, _gate_incidence(mx))
    return cached[1]


def _gate_incidence(mx: ModelMatrix) -> tuple[np.ndarray, sparse.csr_matrix]:
    # The raw CSR arrays, not scipy's comparisons or abs(), which sort A's
    # rows in place.
    A = mx.A
    n_rows, n = A.shape
    gate_cols = np.flatnonzero(np.fromiter(map(methodcaller("startswith", _GATE_PREFIXES), mx.ids), bool, n))
    if not gate_cols.size:
        return gate_cols, sparse.csr_matrix((0, n), dtype=np.int64)
    gate_of = np.full(n, -1)
    gate_of[gate_cols] = np.arange(gate_cols.size)
    row_of = np.repeat(np.arange(n_rows), np.diff(A.indptr))
    opens = (A.data < 0) & (gate_of[A.indices] >= 0)
    covered = A.data > 0
    ones = lambda at, shape: sparse.csr_matrix((np.ones(at[0].size, dtype=np.int64), at), shape=shape)
    gate_rows = ones((gate_of[A.indices[opens]], row_of[opens]), (gate_cols.size, n_rows))
    return gate_cols, gate_rows @ ones((row_of[covered], A.indices[covered]), (n_rows, n))


def warm_start_from(m: MilpModel, sol) -> MilpModel:
    """Attach a prior solution as the solver's starting incumbent.

    Activation gates absent from the source solution are 1 iff an event
    they cover (``gate_incidence``) is used.  The start must be feasible for
    the (extended) model; otherwise the violated constraint tags are
    reported.
    """
    from .solver import check_feasibility

    if sol.values is None:
        raise ValueError("source solution carries no values")
    ids = m.matrix().ids
    known = {var_id: int(round(sol.values[var_id])) for var_id in ids if var_id in sol.values}
    gate_cols, counts = gate_incidence(m.matrix())
    used = counts @ np.array([known.get(var_id, 0) for var_id in ids], dtype=np.int64)
    opened = {ids[j]: int(n > 0) for j, n in zip(gate_cols, used)}
    values = {var_id: known.get(var_id, opened.get(var_id)) for var_id in ids}
    missing = [var_id for var_id, v in values.items() if v is None]
    if missing:
        raise InfeasibleStartError([f"missing:{v}" for v in missing])
    violations = check_feasibility(m, values)
    if violations:
        raise InfeasibleStartError([v.tag for v in violations])
    return m._derived(start=values)  # same rows, same bounds, same matrix
