"""Problem data for weekly locomotive assignment planning.

An :class:`Instance` bundles the rail network (terminals and transit times),
the weekly train schedule with per-leg power demands and railcar work-event
flags, the cost parameters, and an optional baseline work-event plan.  Times
are integer minutes on a cyclic weekly horizon (default 10080 = 7 days) and
all time arithmetic is modulo the horizon.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = 1
DEFAULT_HORIZON = 10080
MINUTES_PER_DAY = 1440

# Largest magnitude of a bound, coefficient row sum times value, or
# right-hand side in a model matrix: every row value and slack then fits
# int64 and is exact in float64.
EXACT_INT_LIMIT = 2**52

FLAG_NAMES = ("pu", "so", "no", "both")


class InstanceError(ValueError):
    """Raised when an instance file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class Violation:
    """A single validation finding with a machine-readable code."""

    code: str
    subject: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class Terminal:
    id: str
    name: str = ""


class TransitTable:
    """Directed terminal-to-terminal transit times in minutes.

    Entries may be asymmetric.  Missing pairs simply have no entry; callers
    that need an entry use :meth:`minutes` (raises) or :meth:`get`.
    """

    def __init__(self, entries: dict[tuple[str, str], int]):
        self._entries = dict(entries)

    def minutes(self, origin: str, dest: str) -> int:
        try:
            return self._entries[(origin, dest)]
        except KeyError:
            raise KeyError(f"no transit entry for ({origin}, {dest})") from None

    def get(self, origin: str, dest: str) -> int | None:
        return self._entries.get((origin, dest))

    def has(self, origin: str, dest: str) -> bool:
        return (origin, dest) in self._entries

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitTable) and self._entries == other._entries


@dataclass(frozen=True)
class RailcarFlags:
    """Railcar work-event indicator at one intermediate stop.

    Exactly one of the four flags is true: pick-up only, set-out only,
    no railcar event, or both kinds at the same stop.
    """

    pu: bool = False
    so: bool = False
    no: bool = False
    both: bool = False

    @property
    def category(self) -> str:
        for name in FLAG_NAMES:
            if getattr(self, name):
                return name
        return "invalid"

    def is_valid(self) -> bool:
        return sum(bool(getattr(self, n)) for n in FLAG_NAMES) == 1

    @staticmethod
    def from_category(name: str) -> "RailcarFlags":
        if name not in FLAG_NAMES:
            raise InstanceError(f"unknown railcar flag category {name!r}")
        return RailcarFlags(**{name: True})


@dataclass(frozen=True)
class TrainLeg:
    train_id: str
    seq: int  # 1-based position within the train
    origin: str
    dest: str
    dep: int  # minutes in [0, horizon)
    arr: int  # minutes in [0, horizon)
    b: int  # required active locomotives


@dataclass(frozen=True)
class Train:
    id: str
    legs: tuple[TrainLeg, ...]
    # stops[i] sits between legs[i] and legs[i+1]; len == len(legs) - 1
    stops: tuple[RailcarFlags, ...]


@dataclass(frozen=True)
class CostParams:
    q: float | int = 5000  # weekly ownership cost per locomotive
    c1: float | int = 20  # aligned work event
    c2: float | int = 100  # mismatched work event
    c3: float | int = 180  # stand-alone work event
    e_rate: float | int = 2  # light-travel crew cost per transit minute
    g_rate: float | int = 1  # relocation cost per unit per transit minute
    f: int = 4  # max locomotives per train leg
    rho_u: int = 3  # max locomotives per light train
    prep_minutes: int = 60
    inspect_minutes: int = 120
    horizon: int = DEFAULT_HORIZON

    @property
    def n_days(self) -> int:
        return max(1, math.ceil(self.horizon / MINUTES_PER_DAY))


@dataclass(frozen=True)
class BaselinePlan:
    """Scheduled work-event counts per (terminal, day) under the current plan."""

    days: int
    h: dict[tuple[str, int], int] = field(default_factory=dict)

    def count(self, terminal: str, day: int) -> int:
        return self.h.get((terminal, day), 0)

    def active_pairs(self) -> list[tuple[str, int]]:
        return sorted(k for k, v in self.h.items() if v > 0)

    def inactive_pairs(self, terminals: list[str]) -> list[tuple[str, int]]:
        return [
            (k, d)
            for k in sorted(terminals)
            for d in range(self.days)
            if self.count(k, d) == 0
        ]

    def inactive_terminals(self, terminals: list[str]) -> list[str]:
        active = {k for (k, _d), v in self.h.items() if v > 0}
        return [k for k in sorted(terminals) if k not in active]


@dataclass(frozen=True)
class Instance:
    terminals: tuple[Terminal, ...]
    transit: TransitTable
    trains: tuple[Train, ...]
    costs: CostParams
    baseline: BaselinePlan | None = None

    @property
    def horizon(self) -> int:
        return self.costs.horizon

    def terminal_ids(self) -> list[str]:
        return [t.id for t in self.terminals]

    def legs(self) -> list[TrainLeg]:
        return [leg for train in self.trains for leg in train.legs]


# ---------------------------------------------------------------------------
# Serialization


# The instance document's "costs" object: (JSON key, CostParams field,
# whether the value must be an integer), in file order.  A missing key
# takes the field's default.
_COST_KEYS = (
    ("q", "q", False),
    ("c1", "c1", False),
    ("c2", "c2", False),
    ("c3", "c3", False),
    ("e_rate", "e_rate", False),
    ("g_rate", "g_rate", False),
    ("f", "f", True),
    ("rho_u", "rho_u", True),
    ("prep", "prep_minutes", True),
    ("inspect", "inspect_minutes", True),
    ("horizon", "horizon", True),
)


def instance_to_dict(inst: Instance) -> dict:
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "terminals": [{"id": t.id, "name": t.name} for t in inst.terminals],
        "transit": [
            {"from": o, "to": d, "minutes": m}
            for (o, d), m in sorted(inst.transit.items())
        ],
        "trains": [
            {
                "id": tr.id,
                "legs": [
                    {
                        "seq": leg.seq,
                        "from": leg.origin,
                        "to": leg.dest,
                        "dep": leg.dep,
                        "arr": leg.arr,
                        "b": leg.b,
                    }
                    for leg in tr.legs
                ],
                "stops": [
                    {"after_seq": i + 1, "flags": {fl.category: True}}
                    for i, fl in enumerate(tr.stops)
                ],
            }
            for tr in inst.trains
        ],
        "costs": {key: getattr(inst.costs, name) for key, name, _integral in _COST_KEYS},
    }
    if inst.baseline is not None:
        data["baseline"] = {
            "days": inst.baseline.days,
            "events": [
                {"terminal": k, "day": d, "count": v}
                for (k, d), v in sorted(inst.baseline.h.items())
            ],
        }
    return data


_MISSING = object()


def _field(mapping, key: str, where: str, default=_MISSING):
    if not isinstance(mapping, dict):
        raise InstanceError(f"{where}: expected a JSON object, got {json.dumps(mapping, default=repr)}")
    if key in mapping:
        return mapping[key]
    if default is _MISSING:
        raise InstanceError(f"{where}: missing required field {key!r}")
    return default


def _entries(mapping, key: str, where: str, default=_MISSING) -> list:
    value = _field(mapping, key, where, default)
    if not isinstance(value, list):
        raise InstanceError(f"{where}: {key!r} must be a JSON array, got {json.dumps(value, default=repr)}")
    return value


def _id(mapping, key: str, where: str) -> str:
    """A JSON string naming a terminal or a train."""
    value = _field(mapping, key, where)
    if not isinstance(value, str):
        raise InstanceError(f"{where}: {key!r} must be a string, got {json.dumps(value, default=repr)}")
    return value


def _number(mapping, key: str, where: str, default=_MISSING, integral: bool = True):
    """A JSON number that is not a bool.  With ``integral``, also a whole
    number (``60`` or ``60.0``), returned as an int."""
    value = _field(mapping, key, where, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (integral and isinstance(value, float) and not value.is_integer())
    ):
        kind = "an integer" if integral else "a number"
        raise InstanceError(f"{where}: {key!r} must be {kind}, got {json.dumps(value, default=repr)}")
    return int(value) if integral else value


def instance_from_dict(data: dict, validate: bool = True) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError("instance document must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema_version {version}")

    terminals = tuple(
        Terminal(id=_id(t, "id", "terminals"), name=str(t.get("name", "")))
        for t in _entries(data, "terminals", "instance")
    )
    transit = TransitTable(
        {
            (_id(e, "from", "transit"), _id(e, "to", "transit")): _number(e, "minutes", "transit")
            for e in _entries(data, "transit", "instance")
        }
    )

    trains = []
    for tr in _entries(data, "trains", "instance"):
        tid = _id(tr, "id", "trains")
        where = f"train {tid} legs"
        legs = tuple(
            TrainLeg(
                train_id=tid,
                seq=_number(lg, "seq", where),
                origin=_id(lg, "from", where),
                dest=_id(lg, "to", where),
                dep=_number(lg, "dep", where),
                arr=_number(lg, "arr", where),
                b=_number(lg, "b", where),
            )
            for lg in _entries(tr, "legs", f"train {tid}")
        )
        stop_entries = {
            _number(s, "after_seq", f"train {tid} stops"): _field(s, "flags", f"train {tid} stops", {})
            for s in _entries(tr, "stops", f"train {tid}", [])
        }
        out_of_range = [k for k in stop_entries if not (1 <= k < len(legs))]
        if out_of_range:
            raise InstanceError(f"train {tid}: stop after_seq {out_of_range} has no following leg")
        stops = []
        for i in range(1, len(legs)):
            raw = stop_entries.get(i, {"no": True})
            flags = RailcarFlags(**{n: bool(_field(raw, n, f"train {tid} stop flags", False)) for n in FLAG_NAMES})
            stops.append(flags)
        trains.append(Train(id=tid, legs=legs, stops=tuple(stops)))

    craw = _field(data, "costs", "instance")
    defaults = CostParams()
    costs = CostParams(
        **{
            name: _number(craw, key, "costs", getattr(defaults, name), integral=integral)
            for key, name, integral in _COST_KEYS
        }
    )

    baseline = None
    if data.get("baseline") is not None:
        braw = data["baseline"]
        baseline = BaselinePlan(
            days=_number(braw, "days", "baseline", costs.n_days),
            h={
                (_id(e, "terminal", "baseline"), _number(e, "day", "baseline")): _number(
                    e, "count", "baseline"
                )
                for e in _entries(braw, "events", "baseline", [])
            },
        )

    inst = Instance(
        terminals=terminals, transit=transit, trains=tuple(trains), costs=costs, baseline=baseline
    )
    if validate:
        errors = [v for v in validate_instance(inst) if v.severity == "error"]
        if errors:
            raise InstanceError(
                "invalid instance:\n" + "\n".join(str(v) for v in errors)
            )
    return inst


def load_instance(path) -> Instance:
    """Load and validate an instance JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path) -> None:
    text = json.dumps(instance_to_dict(inst), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Validation


def validate_instance(inst: Instance, include_warnings: bool = False) -> list[Violation]:
    """Check every instance invariant; returns an empty list iff all hold.

    Warning-level findings (power demand of zero on a leg) do not make an
    instance invalid and are excluded unless ``include_warnings`` is set.
    """
    out: list[Violation] = []
    H = inst.horizon
    ids = [t.id for t in inst.terminals]
    known = set(ids)

    train_ids = [t.id for t in inst.trains]
    for code, what, given in (("DUPLICATE_TERMINAL_ID", "terminal", ids), ("DUPLICATE_TRAIN_ID", "train", train_ids)):
        dupes = sorted(i for i, n in Counter(given).items() if n > 1)
        if dupes:
            out.append(Violation(code, ",".join(dupes), f"{what} ids must be unique"))
        # Ids become parts of variable ids and row tags, which MPS fields
        # separate by whitespace.
        for i in given:
            if any(map(str.isspace, i)):
                out.append(Violation("BAD_ID", repr(i), f"{what} ids must hold no whitespace"))

    for (o, d), m in inst.transit.items():
        if o not in known or d not in known:
            out.append(Violation("UNKNOWN_TERMINAL", f"{o}->{d}", "transit entry references unknown terminal"))
        if m <= 0 or m >= H:
            out.append(Violation("BAD_TRANSIT_MINUTES", f"{o}->{d}", f"transit minutes {m} outside (0, horizon)"))

    c = inst.costs
    if not (c.c1 <= c.c2 <= c.c3):
        out.append(Violation("COST_ORDER", "costs", f"require c1 <= c2 <= c3, got ({c.c1}, {c.c2}, {c.c3})"))
    for name in ("q", "c1", "c2", "c3", "e_rate", "g_rate"):
        value = getattr(c, name)
        if not isinstance(value, int) and not math.isfinite(value):
            out.append(Violation("NON_FINITE_COST", name, f"cost rates must be finite, got {value}"))
        elif value < 0:
            out.append(Violation("NEGATIVE_COST", name, "cost rates must be non-negative"))
    if c.rho_u < 1:
        out.append(Violation("BAD_LIGHT_CAPACITY", "rho_u", "max units per light train must be >= 1"))
    # f, rho_u and the flow bound f * legs enter the model matrix, which
    # holds integers within EXACT_INT_LIMIT only.
    for name in ("f", "rho_u"):
        value = getattr(c, name)
        if abs(value) > EXACT_INT_LIMIT:
            out.append(Violation("NUMBER_TOO_LARGE", f"costs.{name}", f"value {value} is not an integer within +-2**52"))
    n_legs = sum(len(train.legs) for train in inst.trains)
    if abs(c.f) <= EXACT_INT_LIMIT < c.f * n_legs:
        out.append(Violation("NUMBER_TOO_LARGE", "costs.f", f"flow bound f * {n_legs} legs passes 2**52"))

    for train in inst.trains:
        prev: TrainLeg | None = None
        for i, leg in enumerate(train.legs):
            name = f"{train.id}#{leg.seq}"
            if leg.seq != i + 1:
                out.append(Violation("NONCONTIGUOUS_SEQUENCE", name, f"expected seq {i + 1}"))
            if leg.origin not in known or leg.dest not in known:
                out.append(Violation("UNKNOWN_TERMINAL", name, "leg references unknown terminal"))
            if not (0 <= leg.dep < H and 0 <= leg.arr < H):
                out.append(Violation("TIME_OUT_OF_RANGE", name, "dep/arr must lie in [0, horizon)"))
            if leg.b < 0:
                out.append(Violation("NEGATIVE_POWER", name, "power demand must be >= 0"))
            elif leg.b == 0:
                out.append(
                    Violation("ZERO_POWER", name, "leg requires no locomotives", severity="warning")
                )
            if leg.b > c.f:
                out.append(
                    Violation("POWER_EXCEEDS_CAP", name, f"b={leg.b} exceeds per-leg cap f={c.f}")
                )
            expected = inst.transit.get(leg.origin, leg.dest)
            if expected is None:
                out.append(Violation("MISSING_TRANSIT_ENTRY", name, f"no transit entry ({leg.origin}, {leg.dest})"))
            else:
                dur = (leg.arr - leg.dep) % H
                if dur != expected:
                    out.append(
                        Violation(
                            "LEG_DURATION_MISMATCH",
                            name,
                            f"arr-dep = {dur} min but transit({leg.origin},{leg.dest}) = {expected}",
                        )
                    )
            if prev is not None and prev.dest != leg.origin:
                out.append(
                    Violation("CHAIN_BREAK", name, f"leg origin {leg.origin} != previous destination {prev.dest}")
                )
            prev = leg
        if len(train.stops) != max(0, len(train.legs) - 1):
            out.append(
                Violation("STOP_COUNT", train.id, f"{len(train.stops)} stop records for {len(train.legs)} legs")
            )
        for i, flags in enumerate(train.stops):
            if not flags.is_valid():
                out.append(
                    Violation(
                        "FLAGS_NOT_EXCLUSIVE",
                        f"{train.id}@stop{i + 1}",
                        "exactly one of pu/so/no/both must be set",
                    )
                )

    if inst.baseline is not None:
        bp = inst.baseline
        if bp.days != c.n_days:
            out.append(Violation("BASELINE_DAYS", "baseline", f"{bp.days} days, but the horizon has {c.n_days}"))
        for (k, d), v in bp.h.items():
            if v < 0:
                out.append(Violation("BASELINE_NEGATIVE", f"{k}:{d}", "baseline counts must be >= 0"))
            if 2 * v > EXACT_INT_LIMIT:
                out.append(Violation("NUMBER_TOO_LARGE", f"{k}:{d}", f"baseline count {v}: its cap 2h passes 2**52"))
            if k not in known:
                out.append(Violation("UNKNOWN_TERMINAL", f"baseline {k}", "baseline references unknown terminal"))
            if not (0 <= d < bp.days):
                out.append(Violation("BASELINE_DAY_RANGE", f"{k}:{d}", f"day outside [0, {bp.days})"))

    if not include_warnings:
        out = [v for v in out if v.severity == "error"]
    return out


# ---------------------------------------------------------------------------
# Power balance


def net_power_balance(inst: Instance) -> dict[str, int]:
    """Weekly net locomotive balance per terminal: arrivals minus departures of b."""
    balance = {t.id: 0 for t in inst.terminals}
    for leg in inst.legs():
        balance[leg.dest] += leg.b
        balance[leg.origin] -= leg.b
    return balance


# ---------------------------------------------------------------------------
# Synthetic instances


def generate_synthetic(seed: int, n_terminals: int, n_trains: int, max_legs: int) -> Instance:
    """Deterministically generate a valid instance for desk-scale experiments.

    Terminals are placed in the plane and transit minutes are the rounded-up
    Euclidean distances, so the table is symmetric and satisfies the triangle
    inequality.  Departure times are spread over the whole week so that all
    arc classes, including wrap-around ones, occur.
    """
    if n_terminals < 2:
        raise ValueError("n_terminals must be >= 2")
    if n_trains < 1:
        raise ValueError("n_trains must be >= 1")
    if max_legs < 1:
        raise ValueError("max_legs must be >= 1")

    rng = random.Random(seed)
    costs = CostParams()
    H = costs.horizon

    terminals = tuple(Terminal(id=f"K{i}", name=f"Terminal {i}") for i in range(n_terminals))
    points = [(rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(n_terminals)]
    entries: dict[tuple[str, str], int] = {}
    for i, ti in enumerate(terminals):
        for j, tj in enumerate(terminals):
            if i == j:
                continue
            dist = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            entries[(ti.id, tj.id)] = max(30, math.ceil(dist))
    transit = TransitTable(entries)

    ids = [t.id for t in terminals]
    trains = []
    for n in range(n_trains):
        tid = f"t{n + 1}"
        n_legs = rng.randint(1, max_legs)
        route = [rng.choice(ids)]
        for _ in range(n_legs):
            route.append(rng.choice([k for k in ids if k != route[-1]]))
        dep = rng.randrange(0, H, 5)
        legs = []
        for i in range(n_legs):
            o, d = route[i], route[i + 1]
            arr = (dep + entries[(o, d)]) % H
            legs.append(
                TrainLeg(train_id=tid, seq=i + 1, origin=o, dest=d, dep=dep, arr=arr, b=rng.randint(1, 3))
            )
            dep = (arr + rng.randrange(60, 361, 5)) % H
        stops = tuple(
            RailcarFlags.from_category(rng.choices(FLAG_NAMES, weights=(3, 3, 2, 2))[0])
            for _ in range(n_legs - 1)
        )
        trains.append(Train(id=tid, legs=tuple(legs), stops=stops))

    return Instance(terminals=terminals, transit=transit, trains=tuple(trains), costs=costs)


def attach_synthetic_baseline(inst: Instance, seed: int) -> Instance:
    """Return a copy of ``inst`` with a deterministic baseline work-event plan.

    Counts are drawn only for (terminal, day) pairs where the schedule offers
    an intermediate stop, with at least one active pair and at least one
    fully inactive terminal so that every extension variant has work to do.
    """
    rng = random.Random(seed)
    days = inst.costs.n_days
    opportunities: list[tuple[str, int]] = []
    for train in inst.trains:
        for leg in train.legs[:-1]:
            opportunities.append((leg.dest, leg.arr // MINUTES_PER_DAY))
    h: dict[tuple[str, int], int] = {}
    for pair in sorted(set(opportunities)):
        count = rng.choice((0, 1, 1, 2))
        if count:
            h[pair] = count
    if not h and opportunities:
        h[sorted(set(opportunities))[0]] = 1

    active_terminals = {k for (k, _d) in h}
    ids = inst.terminal_ids()
    if active_terminals and len(active_terminals) == len(ids):
        # Keep one terminal baseline-inactive so V2/V3 have candidates.
        drop = sorted(active_terminals)[-1]
        h = {pair: v for pair, v in h.items() if pair[0] != drop}
        if not h:
            keep = sorted(set(opportunities))[0]
            h[keep] = 1
    return replace(inst, baseline=BaselinePlan(days=days, h=h))
