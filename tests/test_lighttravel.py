import random

import pytest

from railplan.instance import generate_synthetic, net_power_balance
from railplan.lighttravel import (
    CapExceededError,
    McfError,
    McfProblem,
    build_mcf,
    enumerate_full_arcs,
    full_pairwise_arcs,
    mcf_cost,
    mcf_flow_cost,
    mcf_insert_arcs,
    reduce_exact,
    solve_mcf,
)
from railplan.model import build_base_model
from railplan.solver import solve_bb
from railplan.spacetime import build_network, with_light_arcs

from .conftest import make_instance
from .oracles import dense_and_reduced_optima, mcf_cost_by_enumeration, mcf_cost_by_lp


def _pairs(specs):
    return {(s.tail, s.head) for s in specs}


# ---------------------------------------------------------------------------
# Exact reduction


def test_reduce_connects_to_first_reachable_departure():
    # Arrival-ground at A at t=100 (arr 80 + inspect 20); ground-departure
    # nodes at B at 120, 160 and 200; travel 50 reaches the one at 160.
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 50, ("B", "A"): 50},
        [
            ("in", [("B", "A", 30, 1)], []),  # arr A at 80 -> ag at 100
            ("o1", [("B", "A", 180, 1)], []),  # gd at B at 120
            ("o2", [("B", "A", 220, 1)], []),  # gd at B at 160
            ("o3", [("B", "A", 260, 1)], []),  # gd at B at 200
        ],
        prep_minutes=60,
        inspect_minutes=20,
    )
    net = build_network(inst)
    arcs = [s for s in reduce_exact(net) if s.tail == "ag:in:1"]
    assert len(arcs) == 1
    assert net.nodes[arcs[0].head].time == 160
    assert arcs[0].transit == 50 and arcs[0].span == 60 and not arcs[0].wrap


def test_latest_origin_filtering_keeps_later_tail():
    # Two arrival-ground nodes at A (t=100 and t=140) both reach the single
    # ground-departure node at B at 300; only the t=140 origin survives.
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 50, ("B", "A"): 50},
        [
            ("i1", [("B", "A", 30, 1)], []),  # ag at A @100
            ("i2", [("B", "A", 70, 1)], []),  # ag at A @140
            ("out", [("B", "A", 360, 1)], []),  # gd at B @300
        ],
        prep_minutes=60,
        inspect_minutes=20,
    )
    net = build_network(inst)
    to_b = [s for s in reduce_exact(net) if s.head == "gd:out:1"]
    assert [s.tail for s in to_b] == ["ag:i2:1"]


def test_deceptive_wrap_case_joins_wrap_set():
    # Arrival-ground at A at 10000, travel 200 lands at 120 next cycle; the
    # only ground-departure at B sits at 90, caught only after wrapping again.
    inst = make_instance(
        ["A", "B", "C"],
        {
            ("A", "B"): 200, ("B", "A"): 200,
            ("C", "A"): 300, ("A", "C"): 300,
            ("B", "C"): 400, ("C", "B"): 400,
        },
        [
            ("in", [("C", "A", 9580, 1)], []),  # arr A at 9880 -> ag at 10000
            ("out", [("B", "C", 150, 1)], []),  # gd at B at 90
        ],
        prep_minutes=60,
        inspect_minutes=120,
    )
    net = build_network(inst)
    arcs = [s for s in reduce_exact(net) if s.tail == "ag:in:1" and s.head_terminal == "B"]
    assert len(arcs) == 1
    spec = arcs[0]
    assert net.nodes[spec.head].time == 90
    assert spec.wrap
    assert spec.span == 200 + (90 - (10000 + 200)) % 10080  # waits into the second cycle
    assert spec.crossings == 2


def test_costs_shared_per_terminal_pair():
    inst = generate_synthetic(4, 4, 6, 2)
    net = build_network(inst)
    specs = reduce_exact(net)
    model = build_base_model(with_light_arcs(net, specs), specs, inst.costs)
    # The light-travel bucket alone: wrap arcs also carry ownership.
    prices = model.decomposition["light_travel"]
    by_pair = {}
    for arc in model.network.arcs_in_order():
        if arc.kind != "light":
            continue
        key = (model.network.nodes[arc.tail].terminal, model.network.nodes[arc.head].terminal)
        by_pair.setdefault(key, set()).add((prices[f"x:{arc.id}"], prices[f"u:{arc.id}"], arc.transit))
    assert len(by_pair) > 1
    for key, combos in by_pair.items():
        assert len(combos) == 1, key


def test_reduce_skips_pairs_without_transit_entries():
    inst = make_instance(
        ["A", "B", "C"],
        # No entry from B back to A and none touching C at all.
        {("A", "B"): 500, ("B", "C"): 400, ("C", "B"): 400, ("C", "A"): 300, ("A", "C"): 300},
        [("t1", [("A", "B", 100, 1)], [])],
    )
    net = build_network(inst)
    specs = reduce_exact(net)
    assert all(s.tail_terminal != "B" or s.head_terminal != "A" for s in specs)


# ---------------------------------------------------------------------------
# Full enumeration


def test_full_enumeration_on_bare_terminals():
    inst = make_instance(["A", "B"], {("A", "B"): 500, ("B", "A"): 500}, [])
    net = build_network(inst)
    specs = enumerate_full_arcs(net)
    assert len(specs) <= 2
    assert _pairs(specs) == {("init:A", "init:B"), ("init:B", "init:A")}


def test_full_enumeration_covers_every_ground_node(three_terminal_example):
    net = build_network(three_terminal_example)
    specs = enumerate_full_arcs(net)
    ground = net.ground_nodes()
    assert len(ground) == 9
    # every (ground node, other terminal) pair yields exactly one arc
    assert len(specs) == len(ground) * 2
    tails = {}
    for s in specs:
        tails.setdefault(s.tail, set()).add(s.head_terminal)
    assert all(len(heads) == 2 for heads in tails.values())


def test_full_enumeration_cap_guard():
    inst = generate_synthetic(1, 3, 4, 2)
    net = build_network(inst)
    with pytest.raises(CapExceededError, match="5"):
        enumerate_full_arcs(net, max_ground_nodes=5)


def test_reduced_is_subset_of_full():
    for seed in range(6):
        inst = generate_synthetic(seed, 4, 5, 2)
        net = build_network(inst)
        assert _pairs(reduce_exact(net)) <= _pairs(enumerate_full_arcs(net))


def test_reduced_is_subset_of_pairwise_universe():
    from railplan.lighttravel import full_pairwise_arcs

    for seed in range(6):
        inst = generate_synthetic(seed, 4, 5, 2)
        net = build_network(inst)
        pairwise = full_pairwise_arcs(net)
        reduced = reduce_exact(net)
        assert _pairs(reduced) <= _pairs(pairwise)
        # the pairwise set holds every cross-terminal (arrival, departure) combination
        ags = [n for n in net.ground_nodes() if n.kind == "arrival_ground"]
        gds = [n for n in net.ground_nodes() if n.kind == "ground_departure"]
        expected = sum(
            1 for a in ags for g in gds
            if a.terminal != g.terminal and inst.transit.has(a.terminal, g.terminal)
        )
        assert len(pairwise) == expected


def test_latest_origin_uniqueness_property():
    for seed in range(6):
        inst = generate_synthetic(100 + seed, 4, 6, 2)
        net = build_network(inst)
        seen = set()
        for s in reduce_exact(net):
            key = (s.head, s.tail_terminal)
            assert key not in seen
            seen.add(key)


# ---------------------------------------------------------------------------
# MCF cost and flow


def test_mcf_cost_paper_cases():
    assert mcf_cost(100, 2, 5) == 100
    assert mcf_cost(100, 3, 5) == 500
    assert mcf_cost(100, 5, 5) == 2500


def test_mcf_cost_rejects_bad_alpha():
    with pytest.raises(ValueError):
        mcf_cost(100, 3, 2)
    with pytest.raises(ValueError):
        mcf_cost(100, 3, 1.5)


def test_mcf_cost_monotone_in_train_count():
    rng = random.Random(0)
    for _ in range(50):
        delta = rng.randint(1, 1000)
        alpha = rng.uniform(2.01, 9)
        costs = [mcf_cost(delta, o, alpha) for o in range(0, 12)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_build_mcf_balanced_instance(round_trip_instance):
    problem = build_mcf(round_trip_instance)
    assert all(v == 0 for v in problem.supplies.values())
    assert solve_mcf(problem) == {}


def test_build_mcf_sign_convention():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 500, ("B", "A"): 500},
        [("t1", [("A", "B", 100, 2)], [])],
        f=3,
    )
    problem = build_mcf(inst)
    assert problem.supplies == {"A": -2, "B": 2}  # B surplus source, A deficit sink
    flow = solve_mcf(problem)
    assert flow == {("B", "A"): 2}
    assert mcf_flow_cost(problem, flow) == 2 * problem.costs[("B", "A")]


def test_build_mcf_supplies_sum_zero():
    inst = generate_synthetic(7, 4, 10, 3)
    problem = build_mcf(inst)
    assert sum(problem.supplies.values()) == 0
    assert problem.supplies == net_power_balance(inst)


def test_build_mcf_alpha_defaults_to_mean_of_counts():
    inst = generate_synthetic(7, 4, 10, 3)
    problem = build_mcf(inst)
    positive = [v for v in problem.o_counts.values() if v > 0]
    assert problem.mcf_alpha == pytest.approx(sum(positive) / len(positive))


def test_solve_mcf_single_pair_cost():
    problem = McfProblem(
        supplies={"A": -2, "B": 2},
        costs={("B", "A"): 100, ("A", "B"): 100},
        o_counts={},
        mcf_alpha=3.0,
    )
    flow = solve_mcf(problem)
    assert flow == {("B", "A"): 2}
    assert mcf_flow_cost(problem, flow) == 200


def test_solve_mcf_matches_enumeration_oracle_three_terminals():
    rng = random.Random(3)
    for _ in range(10):
        supplies = {"A": rng.randint(-2, 2), "B": rng.randint(-2, 2)}
        supplies["C"] = -supplies["A"] - supplies["B"]
        costs = {
            (i, j): rng.randint(10, 99)
            for i in "ABC"
            for j in "ABC"
            if i != j
        }
        problem = McfProblem(supplies=supplies, costs=costs, o_counts={}, mcf_alpha=3.0)
        flow = solve_mcf(problem)
        expected = mcf_cost_by_enumeration(supplies, costs)
        assert mcf_flow_cost(problem, flow) == expected


def test_solve_mcf_matches_lp_oracle_four_terminals():
    rng = random.Random(9)
    for _ in range(10):
        ids = ["A", "B", "C", "D"]
        raw = [rng.randint(-4, 4) for _ in range(3)]
        supplies = dict(zip(ids, raw + [-sum(raw)]))
        costs = {(i, j): rng.randint(5, 400) for i in ids for j in ids if i != j}
        problem = McfProblem(supplies=supplies, costs=costs, o_counts={}, mcf_alpha=3.0)
        flow = solve_mcf(problem)
        assert mcf_flow_cost(problem, flow) == pytest.approx(mcf_cost_by_lp(supplies, costs))


def test_solve_mcf_reports_disconnection():
    problem = McfProblem(
        supplies={"A": -1, "B": 1},
        costs={("A", "B"): 10},  # no arc toward the deficit terminal
        o_counts={},
        mcf_alpha=3.0,
    )
    with pytest.raises(McfError, match="disconnected"):
        solve_mcf(problem)


def test_solve_mcf_rejects_unbalanced_supplies():
    problem = McfProblem(supplies={"A": 1, "B": 1}, costs={("A", "B"): 1, ("B", "A"): 1}, o_counts={}, mcf_alpha=3.0)
    with pytest.raises(McfError):
        solve_mcf(problem)


# ---------------------------------------------------------------------------
# MCF arc insertion


def test_mcf_insert_respects_strict_threshold(round_trip_instance):
    net = build_network(round_trip_instance)
    assert mcf_insert_arcs(net, {("B", "A"): 1}, threshold=1) == []
    arcs = mcf_insert_arcs(net, {("B", "A"): 2}, threshold=1)
    assert arcs
    assert len(arcs) <= 10080 // 480
    assert all(s.tail_terminal == "B" and s.head_terminal == "A" for s in arcs)


def test_mcf_insert_borrows_from_nearest_window():
    # Ground nodes at A only in windows 0 (t=0 initial, t=100) and 5 (t=2500).
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 50, ("B", "A"): 50},
        [
            ("o1", [("A", "B", 160, 1)], []),  # gd at A @100
            ("o2", [("A", "B", 2560, 1)], []),  # gd at A @2500
        ],
        prep_minutes=60,
        inspect_minutes=20,
    )
    net = build_network(inst)
    arcs = mcf_insert_arcs(net, {("A", "B"): 2}, window_minutes=480, threshold=1)
    tails = {net.nodes[s.tail].time for s in arcs}
    # Windows 1-2 borrow from window 0 (earliest node there is the initial
    # node at t=0); windows 3 onward are nearer to window 5's node at 2500.
    assert tails == {0, 2500}


def test_mcf_insert_deduplicates_borrowed_arcs(round_trip_instance):
    net = build_network(round_trip_instance)
    arcs = mcf_insert_arcs(net, {("B", "A"): 3}, window_minutes=480, threshold=1)
    assert len({(s.tail, s.head) for s in arcs}) == len(arcs)


# ---------------------------------------------------------------------------
# Reduction against the densest candidate set


def test_verify_reduction_on_unbalanced_micro():
    inst = generate_synthetic(2, 2, 1, 1)  # single train, so light travel is required
    full, reduced = dense_and_reduced_optima(inst, enumerate_full_arcs)
    assert full == reduced
    net = build_network(inst)
    assert len(reduce_exact(net)) <= len(enumerate_full_arcs(net))


def test_verify_reduction_on_balanced_instance(round_trip_instance):
    full, reduced = dense_and_reduced_optima(round_trip_instance, enumerate_full_arcs)
    assert full == reduced
    net = build_network(round_trip_instance)
    specs = reduce_exact(net)
    model = build_base_model(with_light_arcs(net, specs), specs, round_trip_instance.costs)
    sol = solve_bb(model)
    light = [a for a in model.network.arcs_in_order() if a.kind == "light"]
    assert light and all(sol.values[f"x:{a.id}"] == 0 for a in light)


def test_verify_reduction_batch_against_pairwise_universe():
    for seed in range(20):
        inst = generate_synthetic(3000 + seed, 3, 5, 2)
        full, reduced = dense_and_reduced_optima(inst, full_pairwise_arcs)
        assert full == reduced, f"seed {3000 + seed}: pairwise {full} != reduced {reduced}"
