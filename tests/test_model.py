import copy
import functools
import math
import pickle
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railplan.instance import BaselinePlan, CostParams, generate_synthetic
from railplan.lighttravel import LightArcSpec, reduce_exact
from railplan.model import (
    _GATES,
    BUDGET_FIELD,
    ConfigError,
    ExtensionConfig,
    InfeasibleStartError,
    LinearConstraint,
    MilpModel,
    VarRef,
    apply_extension,
    build_base_model,
    gate_incidence,
    group_events_by_terminal_day,
    warm_start_from,
    with_budget,
)
from railplan.report import _cell_model, assemble
from railplan.solver import SolveBudget, solve_bb
from railplan.spacetime import Arc, Node, build_network, pickup_arcs, setout_arcs, with_light_arcs

from .conftest import make_instance, prices_use_own_ids
from .oracles import price_by_arc_walk


def _build(inst, light="exact", **kwargs):
    net = build_network(inst)
    specs = reduce_exact(net) if light == "exact" else []
    merged = with_light_arcs(net, specs)
    return merged, build_base_model(merged, specs, inst.costs, **kwargs)


def test_model_without_light_arcs_has_three_cost_buckets(round_trip_instance):
    net = build_network(round_trip_instance)
    model = build_base_model(net, [], round_trip_instance.costs)
    assert not model.vars_of_family("u")
    assert model.decomposition["light_travel"] == {}
    assert model.decomposition["ownership"]


def test_example_model_has_one_decision_pair_and_mutex(three_terminal_example):
    _net, model = _build(three_terminal_example)
    assert len(model.vars_of_family("yso")) == 1
    assert len(model.vars_of_family("ypu")) == 1
    mutex = [c for c in model.constraints if c.tag.startswith("mutex:")]
    assert len(mutex) == 1
    assert mutex[0].sense == "<=" and mutex[0].rhs == 1


def test_mutual_exclusion_switch(three_terminal_example):
    _net, bare = _build(three_terminal_example, mutual_exclusion=False)
    assert not [c for c in bare.constraints if c.tag.startswith("mutex:")]


def test_train_arc_bounds_follow_power_window():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 500, ("B", "A"): 500},
        [("t1", [("A", "B", 100, 2)], [])],
        f=4,
    )
    _net, model = _build(inst)
    var = model.var("x:T:t1:1")
    assert (var.lower, var.upper) == (2, 4)


def test_model_size_invariants():
    inst = generate_synthetic(5, 4, 6, 2)
    net = build_network(inst)
    specs = reduce_exact(net)
    merged = with_light_arcs(net, specs)
    model = build_base_model(merged, specs, inst.costs)
    assert len(model.vars_of_family("x")) == len(merged.arcs)
    assert len(model.vars_of_family("yso")) == len(setout_arcs(merged))
    assert len(model.vars_of_family("ypu")) == len(pickup_arcs(merged))
    assert len(model.vars_of_family("u")) == len(specs)
    flow_rows = [c for c in model.constraints if c.tag.startswith("flow:")]
    assert len(flow_rows) == len(merged.nodes)


def test_objective_terms_in_pricing_order():
    """evaluate_objective sums in dict order, so the order is pinned: x terms
    in arc order, then u terms, then the work-event penalties by variable
    id; each cost bucket keeps that order too."""
    inst = generate_synthetic(5, 4, 6, 2)
    merged, model = _build(inst)
    priced = [v.id for v in model.variables if v.family in ("x", "u") and v.id in model.objective]
    penalties = sorted(v.id for v in model.variables if v.family in ("yso", "ypu"))
    assert model.vars_of_family("u") and penalties
    assert list(model.objective) == priced + penalties
    for bucket in model.decomposition.values():
        assert list(bucket) == [var for var in model.objective if var in bucket]


# Cost rates: ints (zero and past int64 among them) and floats (0.0 and
# -0.0 among them).
_RATE = st.one_of(
    st.integers(-5, 5000),
    st.sampled_from((0, 0.0, -0.0, 2**70, 3**45, 0.1)),
    st.floats(-1e4, 1e4, allow_nan=False),
)
_RATE_FIELDS = ("q", "g_rate", "e_rate", "c1", "c2", "c3")


@functools.cache
def _priced_bases():
    """(merged network, light arcs, base model) per case, over exact and
    MCF light arcs."""
    cases = ((1, (4, 8, 2), "exact"), (2, (5, 12, 3), "mcf"), (3, (6, 16, 3), "exact"))
    return [assemble(generate_synthetic(seed, *shape), lt_method=lt_method) for seed, shape, lt_method in cases]


@settings(max_examples=80, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(case=st.integers(0, 2), rates=st.fixed_dictionaries({name: _RATE for name in _RATE_FIELDS}))
def test_prices_equal_the_arc_walk(case, rates):
    """A built model's objective, offset and cost buckets, and a sweep
    cell's repricing of it, are the arc walk's: the same keys in the same
    order, the same values and the same number types, under int, float and
    zero rates."""
    net, specs, base = _priced_bases()[case]
    costs = replace(net.instance.costs, **rates)
    x = {v.subject: v.id for v in base.variables if v.family == "x"}
    act = {v.subject: v.id for v in base.variables if v.family in ("yso", "ypu", "u")}
    objective, offset, decomposition = price_by_arc_walk(net, costs, x, act)
    typed = lambda coefs: [(var, repr(coef), type(coef)) for var, coef in coefs.items()]
    for model in (build_base_model(net, specs, costs), _cell_model(base, costs)):
        assert typed(model.objective) == typed(objective)
        assert (repr(model.offset), type(model.offset)) == (repr(offset), type(offset))
        assert list(model.decomposition) == list(decomposition)
        for bucket, coefs in decomposition.items():
            assert typed(model.decomposition[bucket]) == typed(coefs), bucket


def test_prices_key_on_the_variables_own_ids():
    _merged, model = _build(generate_synthetic(5, 4, 6, 2))
    assert model.vars_of_family("u")
    assert prices_use_own_ids(model)


def _merged_terms(terms):
    """The merge every row went through before callers' pairs were kept."""
    merged = {}
    for var, coef in terms:
        merged[var] = merged.get(var, 0) + coef
    return tuple((v, c) for v, c in sorted(merged.items()) if c != 0)


_COEF = st.one_of(
    st.integers(-3, 3),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from((0, 0.0, -0.0, True, False, 2**60, 0.1)),
)
_PAIR = st.tuples(st.sampled_from(("x:a", "x:b", "u:c", "yso:d", "ypu:e", "z1:f")), _COEF)


@settings(max_examples=500, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(pairs=st.lists(st.one_of(_PAIR, _PAIR.map(list)), max_size=8))
def test_row_terms_equal_the_merge(pairs):
    """A row's terms are the merge of its pairs in value, type and order, also
    with repeated variables, zeros, -0.0, bools and floats; unique nonzero
    int and float pairs are the caller's own tuples."""
    typed = lambda terms: [(v, repr(c), type(c)) for v, c in terms]
    got = LinearConstraint(pairs, "<=", 0, "row").terms
    assert typed(got) == typed(_merged_terms(pairs))
    assert all(type(t) is tuple for t in got)
    plain = all(type(p) is tuple and type(p[1]) in (int, float) and p[1] != 0 for p in pairs)
    if plain and len({v for v, _ in pairs}) == len(pairs):
        assert all(any(t is p for p in pairs) for t in got)


# Two pairs: on independent ids, or on one id twice.
_TWO_PAIRS = st.one_of(
    st.tuples(_PAIR, _PAIR),
    _PAIR.flatmap(lambda p: st.tuples(st.just(p), st.tuples(st.just(p[0]), _COEF))),
)


@settings(max_examples=500, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(pairs=st.one_of(_TWO_PAIRS, _TWO_PAIRS.map(lambda ps: ps[::-1])), as_list=st.booleans())
def test_two_term_rows_equal_the_merge(pairs, as_list):
    """The two-term branch of ``_canonical_terms`` gives the merge of its
    pairs in value, type and order: equal ids, either order, zeros, -0.0,
    bools and floats; two unique nonzero int or float pairs are the caller's
    own tuples."""
    typed = lambda terms: [(v, repr(c), type(c)) for v, c in terms]
    got = LinearConstraint(list(pairs) if as_list else pairs, "<=", 0, "row").terms
    assert typed(got) == typed(_merged_terms(pairs))
    assert all(type(t) is tuple for t in got)
    plain = all(type(p[1]) in (int, float) and p[1] != 0 for p in pairs)
    if plain and pairs[0][0] != pairs[1][0]:
        assert all(any(t is p for p in pairs) for t in got)


# ---------------------------------------------------------------------------
# Per-item records


# One value per field, in field order, of each record type.
_RECORDS = {
    "Node": (Node, ("dep:t:1", "departure", "K0", 60)),
    "Arc": (Arc, ("T:t:1", "train", "dep:t:1", "arr:t:1", 90, 0, 2, "t", 1, False, None, None)),
    "LightArcSpec": (LightArcSpec, ("ag:t:1", "gd:u:2", "K0", "K1", 30, 45, 1)),
    "VarRef": (VarRef, ("yso:R:t:1", "yso", "R:t:1", 0, 1, True)),
    "LinearConstraint": (LinearConstraint, ((("x:a", -2), ("x:b", 1)), "<=", 3, "so:R:t:1")),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable_named_tuples(name):
    """Each record is a named tuple with the repr and hash of the frozen
    dataclass it replaced, built alike by position or keyword, immutable,
    and round-tripped by pickle and deepcopy."""
    cls, values = _RECORDS[name]
    record = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert record == by_keyword and type(by_keyword) is cls
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"
    assert record == values and hash(record) == hash(values)
    field = cls._fields[-1]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and type(twin) is cls


@pytest.mark.parametrize("by_keyword", [False, True])
def test_rows_check_their_sense_and_canonicalize_their_terms(by_keyword):
    make = (lambda *a: LinearConstraint(**dict(zip(LinearConstraint._fields, a)))) if by_keyword else LinearConstraint
    with pytest.raises(ValueError, match="bad sense '<>'"):
        make((("x:a", 1),), "<>", 0, "bad")
    row = make([("x:b", 1), ("x:a", 2), ("x:b", -1), ("x:c", 0.5)], ">=", 1, "row")
    assert row.terms == (("x:a", 2), ("x:c", 0.5))
    moved = row._replace(rhs=7)
    assert type(moved) is LinearConstraint
    assert moved.terms == row.terms and (moved.sense, moved.rhs, moved.tag) == (">=", 7, "row")
    with pytest.raises(ValueError, match="bad sense"):
        row._replace(sense="<>")
    for twin in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert twin == row and type(twin) is LinearConstraint


def test_extension_rungs_share_base_prices(ladder_instance):
    # apply_extension adds unpriced variables only, so every rung keeps the
    # base model's price dicts; no solve, warm start or evaluation on a rung
    # may write to them.
    import copy

    from railplan.model import BUDGET_FIELD
    from railplan.solver import evaluate_objective

    _net, base = _build(ladder_instance)
    want_obj, offset, want_buckets = copy.deepcopy((base.objective, base.offset, base.decomposition))
    budget = SolveBudget(max_seconds=60, max_nodes=50)
    v1p = apply_extension(base, ExtensionConfig(version="V1prime"))
    rungs = [(v1p, solve_bb(v1p, budget))]
    for version in ("V1", "V2", "V3", "V4", "V5"):
        prev = None
        for alpha in (1, 2):
            rung = apply_extension(base, ExtensionConfig(version=version, theta=6, **{BUDGET_FIELD[version]: alpha}))
            if prev is not None:
                rung = warm_start_from(rung, prev)  # a larger budget keeps the smaller one's plan
            prev = solve_bb(rung, budget)
            assert prev.values is not None
            rungs.append((rung, prev))
    for rung, sol in rungs:
        assert rung.objective is base.objective and rung.decomposition is base.decomposition
        total, breakdown = evaluate_objective(rung, sol.values)
        assert total == offset + sum(coef * sol.values[var] for var, coef in want_obj.items())
        assert breakdown == {
            cat: sum(coef * sol.values[var] for var, coef in coefs.items()) + (offset if cat == "deadhead" else 0)
            for cat, coefs in want_buckets.items()
        }
    assert (base.objective, base.offset, base.decomposition) == (want_obj, offset, want_buckets)


@pytest.mark.parametrize("costs", [(1, 5, 9), (2, 3, 7), (10, 10, 10)])
def test_work_event_cost_truth_table(costs):
    c1, c2, c3 = costs
    expected = {"so": (c1, c2), "pu": (c2, c1), "no": (c3, c3), "both": (c1, c1)}
    for category, (so_coef, pu_coef) in expected.items():
        inst = make_instance(
            ["A", "B", "C"],
            {
                ("A", "B"): 400, ("B", "A"): 400,
                ("B", "C"): 300, ("C", "B"): 300,
                ("A", "C"): 500, ("C", "A"): 500,
            },
            [("t", [("A", "B", 100, 1), ("B", "C", 800, 1)], [category])],
            c1=c1, c2=c2, c3=c3,
        )
        net = build_network(inst)
        coefs = build_base_model(net, [], inst.costs).decomposition["work_events"]
        assert coefs == {"yso:R:t:1": so_coef, "ypu:E:t:2": pu_coef}


def test_group_events_day_boundaries():
    inst = make_instance(
        ["A", "B", "C"],
        {
            ("A", "B"): 500, ("B", "A"): 500,
            ("B", "C"): 300, ("C", "B"): 300,
            ("A", "C"): 700, ("C", "A"): 700,
        },
        [
            # First stop arrives at B exactly at t=0 (dep 9580 + 500 = 10080).
            ("t1", [("A", "B", 9580, 1), ("B", "C", 300, 1)], ["no"]),
            # Second stop arrives at B exactly at t=1440.
            ("t2", [("A", "B", 940, 1), ("B", "C", 1700, 1)], ["no"]),
        ],
    )
    net = build_network(inst)
    groups = group_events_by_terminal_day(net)
    assert ("B", 0) in groups and ("B", 1) in groups
    assert groups[("B", 0)] == [("yso:R:t1:1", "ypu:E:t1:2")]
    assert groups[("B", 1)] == [("yso:R:t2:1", "ypu:E:t2:2")]


def test_example_transition_grouped_at_terminal2(three_terminal_example):
    net = build_network(three_terminal_example)
    groups = group_events_by_terminal_day(net)
    assert list(groups) == [("T2", 1300 // 1440)]


def test_objective_nonnegative_at_feasible_points(ladder_instance):
    _net, model = _build(ladder_instance)
    sol = solve_bb(model, SolveBudget(max_seconds=60))
    assert sol.status == "optimal"
    assert sol.objective >= 0


# ---------------------------------------------------------------------------
# Extensions


def test_extensions_require_parameters(ladder_instance):
    _net, model = _build(ladder_instance)
    for version, kwargs in [("V2", {}), ("V3", {}), ("V4", {}), ("V5", {})]:
        with pytest.raises(ConfigError):
            apply_extension(model, ExtensionConfig(version=version, **kwargs))


@pytest.mark.parametrize(
    "version, field, message",
    [
        ("V1", "lambda_", "V1 requires lambda >= 0"),
        ("V2", "alpha_c", "V2 requires alpha_c >= 0"),
        ("V3", "alpha_d", "V3 requires alpha_d >= 0"),
        ("V4", "alpha_e", "V4 requires alpha_e >= 0"),
        ("V5", "alpha_f", "V5 requires alpha_f >= 0"),
    ],
)
def test_negative_budget_is_rejected(ladder_instance, version, field, message):
    # V2-V5 once built a budget row with right-hand side -1 that solved to
    # "infeasible", and a NaN budget a row capped at NaN.
    _net, model = _build(ladder_instance)
    rung = apply_extension(model, ExtensionConfig(version=version, **{field: 0}))
    for budget in (-1, math.nan):
        with pytest.raises(ConfigError) as err:
            apply_extension(model, ExtensionConfig(version=version, **{field: budget}))
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            with_budget(rung, budget)
        assert str(err.value) == message


@pytest.mark.parametrize("theta, shown", [(-1, "-1"), (math.nan, "nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("version", ["V1", "V1prime", "V2", "V3", "V4", "V5"])
def test_negative_or_nan_theta_is_rejected(ladder_instance, version, theta, shown):
    # theta=-1 once solved V1 and V3 to "infeasible" and V5 under a
    # nonsense cap; NaN failed in int() or in HiGHS.
    from railplan.model import BUDGET_FIELD

    _net, model = _build(ladder_instance)
    budget = {BUDGET_FIELD[version]: 0} if version in BUDGET_FIELD else {}
    with pytest.raises(ConfigError) as err:
        apply_extension(model, ExtensionConfig(version=version, theta=theta, **budget))
    assert str(err.value) == f"{version} requires theta >= 0, got {shown}"


def test_baseline_versions_need_a_plan_over_the_horizon(short_baseline_instance):
    # Programmatic instances skip validation; V1, V1' and V3 once left the
    # events of the plan's missing days free.
    _net, model = _build(short_baseline_instance)
    for version in ("V1", "V1prime", "V2", "V3"):
        with pytest.raises(ConfigError) as err:
            apply_extension(model, ExtensionConfig(version=version, lambda_=0, alpha_c=0, alpha_d=0))
        assert str(err.value) == f"{version} requires a baseline of 7 days, got 3"
    # V4 and V5 redesign from scratch and read no plan.
    apply_extension(model, ExtensionConfig(version="V4", alpha_e=1))
    apply_extension(model, ExtensionConfig(version="V5", alpha_f=1))


def test_unknown_version_is_rejected(ladder_instance):
    _net, model = _build(ladder_instance)
    with pytest.raises(ConfigError, match="unknown extension version 'V9'"):
        apply_extension(model, ExtensionConfig(version="V9"))


def test_extensions_require_baseline(round_trip_instance):
    _net, model = _build(round_trip_instance)
    with pytest.raises(ConfigError, match="baseline"):
        apply_extension(model, ExtensionConfig(version="V1prime"))


def test_v1_zero_lambda_is_pure_reallocation(ladder_instance):
    _net, model = _build(ladder_instance)
    v1_0 = apply_extension(model, ExtensionConfig(version="V1", lambda_=0))
    caps = {c.tag: c.rhs for c in v1_0.constraints if c.tag.startswith("V1:(11)")}
    baseline = ladder_instance.baseline
    for (k, d) in baseline.active_pairs():
        tag = f"V1:(11):{k}:{d}"
        if tag in caps:
            assert caps[tag] == baseline.count(k, d)
    zero_rows = [c for c in v1_0.constraints if c.tag.startswith("V1:(13)")]
    assert zero_rows and all(c.sense == "=" and c.rhs == 0 for c in zero_rows)


def test_v1_large_lambda_equals_theta_caps_only(ladder_instance):
    _net, model = _build(ladder_instance)
    theta = 2
    max_h = max(ladder_instance.baseline.h.values())
    relaxed = apply_extension(model, ExtensionConfig(version="V1", lambda_=theta - max_h + 5, theta=theta))
    # Build the "caps theta only" variant by hand: same rows minus (11).
    sol_relaxed = solve_bb(relaxed, SolveBudget(max_seconds=60))
    theta_only = apply_extension(model, ExtensionConfig(version="V1", lambda_=10**6, theta=theta))
    sol_theta = solve_bb(theta_only, SolveBudget(max_seconds=60))
    assert sol_relaxed.status == sol_theta.status == "optimal"
    assert sol_relaxed.objective == sol_theta.objective


def test_v4_full_budget_without_theta_equals_v0(ladder_instance):
    _net, model = _build(ladder_instance)
    v0 = solve_bb(model, SolveBudget(max_seconds=60))
    full = apply_extension(
        model,
        ExtensionConfig(version="V4", alpha_e=len(ladder_instance.terminals), theta=math.inf),
    )
    v4 = solve_bb(full, SolveBudget(max_seconds=60))
    assert v4.status == v0.status == "optimal"
    assert v4.objective == v0.objective


def test_v5_zero_budget_forces_all_events_off(ladder_instance):
    _net, model = _build(ladder_instance)
    frozen = apply_extension(model, ExtensionConfig(version="V5", alpha_f=0))
    sol = solve_bb(frozen, SolveBudget(max_seconds=60))
    assert sol.status == "optimal"
    for var in frozen.variables:
        if var.family in ("yso", "ypu"):
            assert sol.values[var.id] == 0


def test_extension_rows_tagged_with_paper_numbers(ladder_instance):
    _net, model = _build(ladder_instance)
    v3 = apply_extension(model, ExtensionConfig(version="V3", alpha_d=2))
    tags = {c.tag for c in v3.constraints}
    assert "V3:(19)" in tags
    assert any(t.startswith("V3:(20):") for t in tags)
    assert any(t.startswith("V1p:(14):") for t in tags)


def test_extension_gate_uses_group_size_when_theta_infinite(ladder_instance):
    _net, model = _build(ladder_instance)
    v5 = apply_extension(model, ExtensionConfig(version="V5", alpha_f=0, theta=math.inf))
    gates = [c for c in v5.constraints if c.tag.startswith("V5:(26):")]
    assert gates
    for row in gates:
        gate_coefs = [coef for _v, coef in row.terms if coef < 0]
        assert gate_coefs and all(math.isfinite(c) for c in gate_coefs)


# ---------------------------------------------------------------------------
# Warm starts


def test_warm_start_with_own_optimum_is_kept(ladder_instance):
    _net, model = _build(ladder_instance)
    sol = solve_bb(model, SolveBudget(max_seconds=60))
    warmed = warm_start_from(model, sol)
    again = solve_bb(warmed, SolveBudget(max_seconds=60))
    assert again.status == "optimal"
    assert again.objective == sol.objective
    # The incumbent is active from the root: proving optimality can only get
    # cheaper, never dearer, than the cold solve.
    assert again.node_count <= sol.node_count


def test_warm_start_chain_across_alpha(ladder_instance):
    _net, model = _build(ladder_instance)
    lo = apply_extension(model, ExtensionConfig(version="V3", alpha_d=0))
    sol_lo = solve_bb(lo, SolveBudget(max_seconds=60))
    hi = apply_extension(model, ExtensionConfig(version="V3", alpha_d=5))
    warmed = warm_start_from(hi, sol_lo)
    assert warmed.start is not None
    # The inherited incumbent is the low-budget optimum.
    from railplan.solver import evaluate_objective

    start_obj, _ = evaluate_objective(warmed, warmed.start)
    assert start_obj == sol_lo.objective
    sol_hi = solve_bb(warmed, SolveBudget(max_seconds=60))
    assert sol_hi.objective <= sol_lo.objective


def test_warm_start_violating_cap_is_rejected(ladder_instance):
    _net, model = _build(ladder_instance)
    sol = solve_bb(model, SolveBudget(max_seconds=60))  # V0 optimum uses events
    frozen = apply_extension(model, ExtensionConfig(version="V5", alpha_f=0))
    with pytest.raises(InfeasibleStartError) as err:
        warm_start_from(frozen, sol)
    assert any(tag.startswith("V5:(2") for tag in err.value.tags)


@pytest.mark.parametrize("version", ["V2", "V3", "V4", "V5"])
def test_gate_below_theta_one_covers_nothing(ladder_instance, version):
    """At theta < 1 a gate's capacity is 0, so its term drops out of the
    rows that cap its events: it covers nothing, an inferred start leaves it
    closed, and a start that uses its events is refused on those rows, not
    on the budget row."""
    _net, model = _build(ladder_instance)
    sol = solve_bb(model, SolveBudget(max_seconds=60))  # V0 optimum uses events
    gated = apply_extension(model, ExtensionConfig(version=version, theta=0.5, **{BUDGET_FIELD[version]: 0}))
    gate_cols, counts = gate_incidence(gated.matrix())
    assert gate_cols.size and counts.nnz == 0
    with pytest.raises(InfeasibleStartError) as err:
        warm_start_from(gated, sol)
    gate = _GATES[version]
    assert any(tag.startswith(f"{gate.row}:") for tag in err.value.tags)
    assert gate.budget_row not in err.value.tags


def test_budget_monotonicity_in_alpha(ladder_instance):
    _net, model = _build(ladder_instance)
    objs = []
    for alpha in (0, 1, 2, 3):
        cfg = ExtensionConfig(version="V3", alpha_d=alpha)
        sol = solve_bb(apply_extension(model, cfg), SolveBudget(max_seconds=60))
        assert sol.status == "optimal"
        objs.append(sol.objective)
    assert all(a >= b for a, b in zip(objs, objs[1:]))


# sha256 of warm_start_from(...).start (items in order, with their types) or
# of the rejected start's tags, over V2-V5 rungs of seeds 1-4 of (4,8,2) and
# (5,12,3): each rung warm-started from the previous rung's solution and
# from the V1' solution, which has no gates and so has them all inferred.
# The previous rungs' solutions come from 10-node searches, so the digest
# also guards the warm-started search tree that solve_bb grows (node LPs
# re-solved from the basis the previous node left) under the pinned scipy.
_WARM_START_DIGEST = "021f05fee2427acfda5f4906f9d2682516f0c0e0e051495c063c1faaa6ba0fc9"


def test_warm_starts_are_frozen():
    import hashlib

    from railplan.instance import attach_synthetic_baseline
    from railplan.model import BUDGET_FIELD
    from railplan.report import assemble, default_alpha_grid

    digest = hashlib.sha256()
    budget = SolveBudget(max_seconds=3600, max_nodes=10)
    for seed in range(1, 5):
        for shape in ((4, 8, 2), (5, 12, 3)):
            inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
            _net, _specs, base = assemble(inst)
            v1p = solve_bb(apply_extension(base, ExtensionConfig(version="V1prime")), budget)
            for version in ("V2", "V3", "V4", "V5"):
                prev = None
                for alpha in default_alpha_grid(version, inst.baseline, 3):
                    model = apply_extension(base, ExtensionConfig(version=version, **{BUDGET_FIELD[version]: alpha}))
                    for source in (prev, v1p):
                        if source is None or source.values is None:
                            continue
                        try:
                            out = list(warm_start_from(model, source).start.items())
                        except InfeasibleStartError as exc:
                            out = exc.tags
                        digest.update(repr(out).encode())
                    prev = solve_bb(model, budget)
    assert digest.hexdigest() == _WARM_START_DIGEST


# ---------------------------------------------------------------------------
# Which constructions check their rows


def test_new_rows_and_objective_keys_are_still_checked(ladder_instance):
    """Derived models (warm starts, sweep cells, ladder rungs) skip the walk
    over rows they share; any construction that brings new rows or
    objective keys still checks them."""
    _net, model = _build(ladder_instance)
    ghost = LinearConstraint((("x:ghost", 1),), "<=", 1, "ghost")
    variables = (VarRef(id="x:a", family="x", subject="a", lower=0, upper=1),)
    with pytest.raises(ValueError, match="constraint ghost references undeclared x:ghost"):
        MilpModel("hand", variables, (ghost,), {}, 0, {})
    with pytest.raises(ValueError, match="objective references undeclared x:ghost"):
        MilpModel("hand", variables, (), {"x:ghost": 1}, 0, {})
    with pytest.raises(ValueError, match="undeclared x:ghost"):
        replace(model, constraints=model.constraints + (ghost,))
    with pytest.raises(ValueError, match="undeclared x:ghost"):
        replace(model, objective={**model.objective, "x:ghost": 1})
    with pytest.raises(ValueError, match="undeclared x:ghost"):
        model.extended([], [ghost], ExtensionConfig())
    # A new row may use the variables added with it.
    var = VarRef(id="x:ghost", family="x", subject="ghost", lower=0, upper=1, binary=True)
    grown = model.extended([var], [ghost], ExtensionConfig())
    assert grown.var("x:ghost") == var and grown.constraints[-1] == ghost


# ---------------------------------------------------------------------------
# One construction path: a model holds its matrix from construction


def _hand(variables, constraints=(), **fields):
    return MilpModel("hand", tuple(variables), tuple(constraints), fields.pop("objective", {}), 0, {}, **fields)


_X_A = VarRef(id="x:a", family="x", subject="a", lower=0, upper=2)


@pytest.mark.parametrize(
    "var",
    [
        VarRef(id="a", family="x", subject="a", lower=0, upper=1),
        VarRef(id="x:b", family="z1", subject="b", lower=0, upper=1),
        VarRef(id="x:b", family="x", subject="c", lower=0, upper=1),
        VarRef(id="x:b:1", family="x:b", subject="1", lower=0, upper=1),
    ],
    ids=["no-family", "family", "subject", "split-late"],
)
def test_a_variable_is_named_family_colon_subject(ladder_instance, var):
    """A ``VarRef``'s family and subject are its id's parts around its first
    ``:``, as every reader of the matrix ids takes them; any other one
    raises ``ConfigError`` naming it, by hand and in ``extended``."""
    _net, model = _build(ladder_instance)
    message = f"^variable {var.id}: family {var.family!r} and subject {var.subject!r} "
    with pytest.raises(ConfigError, match=message):
        _hand([_X_A, var])
    with pytest.raises(ConfigError, match=message):
        model.extended([var], [], ExtensionConfig())
    ok = var._replace(family=var.id.partition(":")[0], subject=var.id.partition(":")[2])
    assert _hand([_X_A, ok]).var(ok.id) == ok


def test_a_taken_variable_id_raises(ladder_instance):
    """Two columns of one id would leave the second unreachable by name:
    by hand, in ``replace`` and in ``extended``, one new id that is taken
    raises ``ConfigError`` naming it."""
    _net, model = _build(ladder_instance)
    taken = model.matrix().ids[3]
    family, _, subject = taken.partition(":")
    again = VarRef(id=taken, family=family, subject=subject, lower=0, upper=1)
    other = VarRef(id="x:b", family="x", subject="b", lower=0, upper=1)
    with pytest.raises(ConfigError, match="^variable x:a: id is already taken$"):
        _hand([_X_A, other, _X_A])
    with pytest.raises(ConfigError, match="^variable x:a: id is already taken$"):
        replace(_hand([_X_A]), variables=(_X_A, _X_A))
    with pytest.raises(ConfigError, match=f"^variable {taken}: id is already taken$"):
        model.extended([again], [], ExtensionConfig())
    with pytest.raises(ConfigError, match="^variable x:b: id is already taken$"):
        model.extended([other, other], [], ExtensionConfig())
    assert len(model.extended([other], [], ExtensionConfig()).matrix().ids) == len(model.matrix().ids) + 1


def test_a_hand_built_model_holds_its_matrix_from_construction():
    """The constructor compiles what it is given: a number the matrix
    cannot hold raises there, and the variables and rows are views of the
    matrix that compare equal to the tuples given, bounds and
    coefficients read back as ints."""
    row = LinearConstraint((("x:a", 1.0), ("x:b", 2)), "<=", 3.0, "cap")
    variables = (_X_A, VarRef(id="x:b", family="x", subject="b", lower=0.0, upper=1, binary=True))
    model = _hand(variables, (row,), objective={"x:a": 1.5})
    mx = model.matrix()
    assert model.variables.matrix is mx and model.constraints.matrix is mx
    assert model.variables == variables and model.constraints == (row,)
    assert type(model.variables[1].lower) is int and type(model.constraints[0].terms[0][1]) is int
    with pytest.raises(ConfigError, match="^row half: coefficient 0.5 "):
        _hand(variables, (LinearConstraint((("x:a", 0.5),), "<=", 1, "half"),))
    with pytest.raises(ValueError, match="constraint ghost references undeclared x:c"):
        _hand(variables, (LinearConstraint((("x:c", 1),), "<=", 1, "ghost"),))


def test_a_replace_copy_owns_a_new_matrix(ladder_instance):
    """``dataclasses.replace`` compiles the copy's own matrix, and so its
    own solve sessions, at construction: equal arrays, not shared ones."""
    _net, base = _build(ladder_instance)
    for model in (base, _hand([_X_A], objective={"x:a": 1})):
        own = replace(model, name="own")
        mx, own_mx = model.matrix(), own.matrix()
        assert own.variables.matrix is own_mx is not mx and own_mx.sessions is not mx.sessions
        assert own_mx.ids == mx.ids and own_mx.tags == mx.tags and own_mx.column == mx.column
        for name in ("indptr", "indices", "data"):
            assert getattr(own_mx.A, name).tolist() == getattr(mx.A, name).tolist()
        assert own_mx.rhs.tolist() == mx.rhs.tolist() and own_mx.sense.tolist() == mx.sense.tolist()
        assert own_mx.lower.tolist() == mx.lower.tolist() and own_mx.upper.tolist() == mx.upper.tolist()
        assert own.variables == model.variables and own.constraints == model.constraints
