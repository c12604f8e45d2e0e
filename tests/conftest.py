import pytest

from railplan.instance import (
    BaselinePlan,
    CostParams,
    Instance,
    RailcarFlags,
    Terminal,
    Train,
    TrainLeg,
    TransitTable,
)


def prices_use_own_ids(model) -> bool:
    """Whether the model prices some x, u, yso and ypu variable and every
    key of its objective and cost buckets is the very id string of its
    variable, not an equal copy."""
    own = {v.id: v.id for v in model.variables}
    keys = [k for coefs in (model.objective, *model.decomposition.values()) for k in coefs]
    priced = {model.var(k).family for k in keys}
    return priced >= {"x", "u", "yso", "ypu"} and all(k is own[k] for k in keys)


def make_instance(terminals, transit, trains, baseline=None, **cost_kwargs) -> Instance:
    """Compact instance builder for hand-crafted fixtures.

    ``trains`` is a list of (train_id, legs, stop_categories) where each leg
    is (origin, dest, dep, b); arrivals follow from the transit table.
    """
    costs = CostParams(**cost_kwargs)
    H = costs.horizon
    built = []
    for tid, legs, stop_cats in trains:
        leg_objs = []
        for i, (o, d, dep, b) in enumerate(legs):
            arr = (dep + transit[(o, d)]) % H
            leg_objs.append(TrainLeg(train_id=tid, seq=i + 1, origin=o, dest=d, dep=dep, arr=arr, b=b))
        stops = tuple(RailcarFlags.from_category(c) for c in stop_cats)
        built.append(Train(id=tid, legs=tuple(leg_objs), stops=stops))
    return Instance(
        terminals=tuple(Terminal(t) for t in terminals),
        transit=TransitTable(dict(transit)),
        trains=tuple(built),
        costs=costs,
        baseline=baseline,
    )


@pytest.fixture
def three_terminal_example() -> Instance:
    """Three terminals, one two-leg train plus one one-leg train.

    The two-leg train stops at terminal T2 where railcars are set out, so the
    network carries exactly one pick-up arc, one set-out arc and one
    transition arc.
    """
    transit = {
        ("T3", "T2"): 300, ("T2", "T3"): 300,
        ("T2", "T1"): 400, ("T1", "T2"): 400,
        ("T1", "T3"): 500, ("T3", "T1"): 500,
    }
    trains = [
        ("a", [("T3", "T2", 1000, 1), ("T2", "T1", 1500, 1)], ["so"]),
        ("b", [("T1", "T3", 3000, 1)], []),
    ]
    return make_instance(["T1", "T2", "T3"], transit, trains, f=2, rho_u=2)


@pytest.fixture
def round_trip_instance() -> Instance:
    """Balanced two-train micro instance: out Monday, back Wednesday.

    One locomotive can serve both trains, so the optimum is a fleet of one
    with no repositioning at all.
    """
    transit = {("A", "B"): 600, ("B", "A"): 600}
    trains = [
        ("t1", [("A", "B", 600, 1)], []),
        ("t2", [("B", "A", 3480, 1)], []),
    ]
    return make_instance(["A", "B"], transit, trains, f=2)


@pytest.fixture
def strict_dominance_instance() -> Instance:
    """Surplus at A must reach both B (3 units) and C (1 unit).

    The repositioning flow to C is exactly 1, which the heuristic's strict
    threshold suppresses, forcing an expensive detour (extra unit light to B,
    then deadhead B to C) where the exact arc set rides the short A-C hop.
    """
    transit = {
        ("A", "B"): 600, ("B", "A"): 600,
        ("B", "C"): 600, ("C", "B"): 600,
        ("A", "C"): 100, ("C", "A"): 100,
    }
    trains = [
        ("t1", [("C", "A", 480, 2)], []),
        ("t2", [("B", "A", 1000, 2)], []),
        ("t4", [("B", "C", 3000, 1)], []),
    ]
    return make_instance(["A", "B", "C"], transit, trains, f=2, rho_u=3)


@pytest.fixture
def ladder_instance() -> Instance:
    """Synthetic schedule whose optimum wants three work events, with a
    baseline that permits only a fourth, unused one: every extension level
    then has something real to trade off."""
    from dataclasses import replace

    from railplan.instance import generate_synthetic

    inst = generate_synthetic(12, 3, 4, 2)
    return replace(inst, baseline=BaselinePlan(days=7, h={("K1", 0): 1}))


@pytest.fixture
def short_baseline_instance() -> Instance:
    """A week-long schedule whose baseline plan covers only its first three
    days: the plan's own entries are all in range, so only its length is
    wrong."""
    from dataclasses import replace

    from railplan.instance import attach_synthetic_baseline, generate_synthetic

    inst = attach_synthetic_baseline(generate_synthetic(1, 4, 8, 2), 1)
    h = {(k, d): n for (k, d), n in inst.baseline.h.items() if d < 3}
    return replace(inst, baseline=BaselinePlan(days=3, h=h))
