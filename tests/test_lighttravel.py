import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railplan.instance import TransitTable, generate_synthetic, net_power_balance
from railplan.lighttravel import (
    CapExceededError,
    McfError,
    McfProblem,
    build_mcf,
    enumerate_full_arcs,
    full_pairwise_arcs,
    mcf_cost,
    mcf_insert_arcs,
    reduce_exact,
    solve_mcf,
)
from railplan.model import build_base_model
from railplan.solver import solve_bb
from railplan.spacetime import _ground_sort_key, build_network, with_light_arcs

from .conftest import make_instance
from .oracles import (
    dense_and_reduced_optima,
    mcf_cost_by_enumeration,
    mcf_cost_by_lp,
    mcf_flow_cost,
    reduce_exact_by_pair_walk,
)


def _shape_id(shape):
    return ",".join(map(str, shape))


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


# sha256 of the exact, full and pairwise arc lists (one line per spec, its
# fields space-separated, or the cap error) over seeds 1-40 of each shape,
# recorded before the three generators shared one terminal-pair walk; the
# (16,320,4) entry was recorded while the exact reduction still walked the
# terminal pairs, before it became one array pass.
_ARC_LIST_DIGESTS = {
    (3, 4, 2): {
        "exact": "1ee3573ff67dbeb2baa8637d735c10a69a58dafe7ce235881c2aa625c1911324",
        "full": "de0b0281fe83ad556984ba34af3842786471ff3e253e6e57c6ae09106fca14dd",
        "pairwise": "76820e4cd644ff8bcb44bce5fa7c3a238756f9bae59d5454aaf383c22294b89a",
    },
    (4, 8, 2): {
        "exact": "7c1df3df6d5c9c8671fad5632e6ea34dac983eff1cac0bc0194bedd5573dc597",
        "full": "eb0d87630da46f618a34a71c8555792daf5de523b911565b72a81205d9313abc",
        "pairwise": "4bebe36614502e33424cb3a59295470f4cc529fd3baddfe30166fc333fb1a4b1",
    },
    (5, 12, 3): {
        "exact": "291ee36bb20e413caeccbab06af6e83a7422e00abf650ec3376249a458fbd063",
        "full": "36c20c43f7290a78fd9240966f68a9a5a6649c0703f07649c60e3777a0cf0814",
        "pairwise": "d46f392634937f52c67c9e19f93f1816529da53a7d1f1dae79a91690abb3f4d5",
    },
    (10, 80, 4): {
        "exact": "782a043d523275cd15e70ac5a243fe5dbf2607902ba682f820b1fa2ec107dd49",
        "full": "204fc328f7ec1029fe37739bb796f010bc344bef983c6fd91c67711303336dc3",
        "pairwise": "53f2e9691744d35f0a0baa3ec22036eea534003a452b0a0841719cab661d7161",
    },
    (16, 320, 4): {
        "exact": "62234ab8b407466631809b3e2508b6f137adf5cbfdae6773426cdc477dd968e8",
        "full": "0e7981a9f9dc1560d7dce1fbde40b4bc786290971f18543be452fce1e1608245",
        "pairwise": "a641f233d482f12a00007915547f8999d4cb8b50e3426020f430e891f2fb61d1",
    },
}


# The spec fields in the order the digests were recorded with; ``wrap`` is
# a property derived from ``crossings``.
_SPEC_FIELDS = ("tail", "head", "tail_terminal", "head_terminal", "transit", "span", "wrap", "crossings")


@pytest.mark.parametrize("shape", sorted(_ARC_LIST_DIGESTS), ids=_shape_id)
def test_light_arc_lists_match_frozen_digests(shape):
    generators = {"exact": reduce_exact, "full": enumerate_full_arcs, "pairwise": full_pairwise_arcs}
    hashes = {name: hashlib.sha256() for name in generators}
    for seed in range(1, 41):
        net = build_network(generate_synthetic(seed, *shape))
        for name, generate in generators.items():
            try:
                lines = [" ".join(str(getattr(spec, name)) for name in _SPEC_FIELDS) for spec in generate(net)]
            except CapExceededError as exc:
                lines = [f"CapExceededError: {exc}"]
            hashes[name].update(("\n".join(lines) + "\n\n").encode())
    assert {name: h.hexdigest() for name, h in hashes.items()} == _ARC_LIST_DIGESTS[shape]


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


def _typed(specs):
    return [(tuple(spec), tuple(map(type, spec))) for spec in specs]


def _mutated(net, data):
    """``net`` with drawn changes to what the reduction reads: transit
    entries dropped or set to any length (long ones give deceptive wraps),
    a terminal's ground departures or arrivals struck from its chain, and
    arrival-ground times at one terminal pulled onto a few shared minutes,
    each chain re-sorted as ``build_network`` sorts it."""
    H = net.horizon
    terminals = sorted(net.ground_chains)
    entries = dict(net.instance.transit.items())
    for pair in data.draw(st.lists(st.sampled_from(sorted(entries)), max_size=3), label="dropped transit"):
        entries.pop(pair, None)
    pairs = [(o, d) for o in terminals for d in terminals if o != d]
    for pair, minutes in data.draw(
        st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, H - 1)), max_size=3), label="transit set"
    ):
        entries[pair] = minutes
    nodes = dict(net.nodes)
    chains = dict(net.ground_chains)
    shared = data.draw(st.lists(st.integers(0, H - 1), min_size=1, max_size=3), label="shared minutes")
    term = data.draw(st.sampled_from(terminals), label="coincident terminal")
    for i, nid in enumerate(chains[term]):
        if nodes[nid].kind == "arrival_ground":
            nodes[nid] = nodes[nid]._replace(time=shared[i % len(shared)])
    for kind in data.draw(st.lists(st.sampled_from(("ground_departure", "arrival_ground")), max_size=2), label="strip"):
        term = data.draw(st.sampled_from(terminals), label=f"no {kind}")
        chains[term] = tuple(nid for nid in chains[term] if nodes[nid].kind != kind)
    chains = {term: tuple(sorted(chain, key=lambda nid: _ground_sort_key(nodes[nid]))) for term, chain in chains.items()}
    inst = replace(net.instance, transit=TransitTable(entries))
    return replace(net, instance=inst, nodes=nodes, ground_chains=chains)


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(2, 8), st.integers(1, 24), st.integers(1, 3)),
    seed=st.integers(1, 10**6),
    mutate=st.booleans(),
    data=st.data(),
)
def test_array_reduction_equals_pair_walk(shape, seed, mutate, data):
    """The exact reduction's array pass gives the pair walk's arcs, in
    order and with the walk's field types, on generated networks and on
    mutated ones: missing or long transit entries, terminals with no ground
    departures or no arrivals, and coincident arrivals, whose tie goes to
    the latest tail in chain order."""
    net = build_network(generate_synthetic(seed, *shape))
    if mutate:
        net = _mutated(net, data)
    assert _typed(reduce_exact(net)) == _typed(reduce_exact_by_pair_walk(net))


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


# Flows on a seeded set, recorded from the float-potential solver where it
# terminated; the exact integer solver must route the same units.
_MCF_FLOWS = {
    (1, 4, 8, 2): {("K0", "K3"): 1, ("K1", "K3"): 2, ("K2", "K3"): 2},
    (2, 4, 8, 2): {("K0", "K1"): 2, ("K2", "K0"): 3},
    (1, 5, 12, 3): {("K0", "K1"): 1, ("K0", "K3"): 5, ("K1", "K2"): 1, ("K4", "K3"): 1},
    (2, 5, 12, 3): {("K0", "K4"): 3, ("K2", "K0"): 5, ("K2", "K1"): 3},
    (1, 10, 80, 4): {
        ("K1", "K8"): 6, ("K2", "K5"): 4, ("K3", "K5"): 5, ("K3", "K6"): 3,
        ("K4", "K6"): 3, ("K4", "K7"): 8, ("K7", "K8"): 9, ("K9", "K4"): 13,
    },
}

# sha256 of "<seed> <from>><to>:<units> ..." lines over seeds 1-40, recorded
# the same way.
_MCF_FLOW_DIGESTS = {
    (4, 8, 2): "f8386ba372b6b6cf9190c0db47f6c266b3ef53c05ce1ae5e67c55292b898f2dd",
    (5, 12, 3): "2e2115072e9c8c4aea229fc3dbd61239e67243ac202b4239d573e109724f10e8",
    (10, 80, 4): "c21be8080a0af3030b9208e49b171fb915c8bd4ac9ca81dd8ae0668b6a22168b",
    (13, 160, 4): "dc074bbf8766c5a51a767fc4ab18438f9e30a9a539416847f427d5c258c21ee7",
}


@pytest.mark.parametrize("key", sorted(_MCF_FLOWS), ids=_shape_id)
def test_solve_mcf_matches_frozen_flow_table(key):
    assert solve_mcf(build_mcf(generate_synthetic(*key))) == _MCF_FLOWS[key]


@pytest.mark.parametrize("shape", sorted(_MCF_FLOW_DIGESTS), ids=_shape_id)
def test_solve_mcf_matches_frozen_flow_digest(shape):
    h = hashlib.sha256()
    for seed in range(1, 41):
        flows = solve_mcf(build_mcf(generate_synthetic(seed, *shape)))
        h.update((f"{seed} " + " ".join(f"{i}>{j}:{u}" for (i, j), u in sorted(flows.items())) + "\n").encode())
    assert h.hexdigest() == _MCF_FLOW_DIGESTS[shape]


def test_solve_mcf_terminates_on_large_instance():
    # With float potentials this instance re-relaxed a residual cycle forever
    # while its memory grew; a child process with a wall clock and an
    # address-space cap turns such a regression into a failure.
    import railplan

    code = (
        "import json, resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "import railplan as rp; "
        "flows = rp.solve_mcf(rp.build_mcf(rp.generate_synthetic(1, 16, 320, 4))); "
        "print(json.dumps(sorted([i, j, u] for (i, j), u in flows.items())))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(railplan.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    flows = {(i, j): u for i, j, u in json.loads(proc.stdout)}
    problem = build_mcf(generate_synthetic(1, 16, 320, 4))
    assert mcf_flow_cost(problem, flows) == pytest.approx(mcf_cost_by_lp(problem.supplies, problem.costs))


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
