import hashlib
import json

import pytest

from railplan.instance import generate_synthetic
from railplan.lighttravel import reduce_exact
from railplan.spacetime import (
    arcs_of_kind,
    build_network,
    network_to_dict,
    pickup_arcs,
    setout_arcs,
    with_light_arcs,
    wrap_arcs,
)

from .conftest import make_instance


def test_example_network_arc_taxonomy(three_terminal_example):
    net = build_network(three_terminal_example)
    assert len(pickup_arcs(net)) == 1
    assert len(setout_arcs(net)) == 1
    assert len(arcs_of_kind(net, "transition")) == 1
    ground_wraps = arcs_of_kind(net, "ground", lambda a: a.wrap)
    assert len(ground_wraps) == 3  # one per terminal
    # The set-out arc is the arrival-ground arc of the two-leg train's first leg.
    assert setout_arcs(net)[0].id == "R:a:1"
    assert pickup_arcs(net)[0].id == "E:a:2"


def test_single_leg_prep_and_inspect_nodes():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 600, ("B", "A"): 600},
        [("t1", [("A", "B", 100, 1)], [])],
        prep_minutes=60,
        inspect_minutes=120,
    )
    net = build_network(inst)
    assert net.nodes["gd:t1:1"].time == 40
    assert net.nodes["ag:t1:1"].time == 820
    assert pickup_arcs(net) == [] and setout_arcs(net) == []


def test_early_departure_wraps_preparation():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 600, ("B", "A"): 600},
        [("t1", [("A", "B", 30, 1)], [])],
    )
    net = build_network(inst)
    assert net.nodes["gd:t1:1"].time == (30 - 60) % 10080 == 10050
    arc = net.arcs["E:t1:1"]
    assert arc.wrap and arc.crossings == 1


def test_train_arcs_wrap_iff_they_cross_the_week_end():
    inst = make_instance(
        ["A", "B", "C"],
        {("A", "B"): 280, ("B", "A"): 280, ("A", "C"): 500, ("C", "A"): 500, ("B", "C"): 180, ("C", "B"): 180},
        [
            ("late", [("A", "B", 10000, 1)], []),
            ("early", [("A", "C", 0, 1)], []),
            ("edge", [("B", "C", 9900, 1)], []),
        ],
    )
    net = build_network(inst)
    late, early, edge = (net.arcs[f"T:{t}:1"] for t in ("late", "early", "edge"))
    assert (net.nodes[late.head].time, late.duration, late.wrap, late.crossings) == (200, 280, True, 1)
    assert (net.nodes[early.head].time, early.duration, early.wrap, early.crossings) == (500, 500, False, 0)
    # Landing exactly on the boundary counts as crossing it.
    assert (net.nodes[edge.head].time, edge.duration, edge.wrap, edge.crossings) == (0, 180, True, 1)


_ARC_FIELDS = (
    "id", "kind", "tail", "head", "duration", "wrap", "crossings", "b", "train_id", "seq", "decision", "flags",
    "transit",
)
# sha256 over seeds 1-40 of each shape of the network with its exact light
# arcs merged: its network_to_dict JSON, then every arc's fields, recorded
# while each arc construction site still computed ``wrap`` and ``crossings``
# on its own; the (16,320,4) entry while build_network still scanned every
# node once per terminal and the exact reduction walked terminal pairs.
_NETWORK_DIGESTS = {
    (3, 4, 2): "08506c4759c59d7b112fa8d34816a73e344242718163f74a60f57c0f69572949",
    (4, 8, 2): "1f4b858af18ae481dc01b460a1d580c8f964a6cc3527ac5af883edbd5e801c25",
    (5, 12, 3): "0f7be4de4d63fd0a5b8327aa22a8009242b6c9011d23ce646ec6c927caece593",
    (10, 80, 4): "cb3ff11c09468534a80d9126bbe13500fe88050b932a2bd961530067b7cf855a",
    (16, 320, 4): "e4abc2c215fcc124bce82b8ec87f8011a13bdd0c8b3ec717cf36da908c7c0956",
}


@pytest.mark.parametrize("shape", sorted(_NETWORK_DIGESTS), ids=lambda shape: ",".join(map(str, shape)))
def test_networks_match_frozen_digests(shape):
    digest = hashlib.sha256()
    for seed in range(1, 41):
        net = build_network(generate_synthetic(seed, *shape))
        merged = with_light_arcs(net, reduce_exact(net))
        digest.update(json.dumps(network_to_dict(merged)).encode())
        for arc in merged.arcs_in_order():
            digest.update((repr(tuple(getattr(arc, name) for name in _ARC_FIELDS)) + "\n").encode())
    assert digest.hexdigest() == _NETWORK_DIGESTS[shape]


def test_light_arcs_extend_only_their_nodes_adjacency():
    """``with_light_arcs`` appends each light arc to its tail's out-arcs and
    its head's in-arcs in spec order, keeping ``net``'s node order; a node
    no light arc touches keeps ``net``'s tuple."""
    net = build_network(generate_synthetic(2, 5, 12, 3))
    specs = reduce_exact(net)
    merged = with_light_arcs(net, specs)
    for adjacency, end in (("in_arcs", "head"), ("out_arcs", "tail")):
        want = {node: list(arc_ids) for node, arc_ids in getattr(net, adjacency).items()}
        for i, spec in enumerate(specs):
            want[getattr(spec, end)].append(f"L:{i}")
        got = getattr(merged, adjacency)
        assert list(got.items()) == [(node, tuple(arc_ids)) for node, arc_ids in want.items()]
        touched = {getattr(spec, end) for spec in specs}
        assert touched and all(
            got[node] is arc_ids for node, arc_ids in getattr(net, adjacency).items() if node not in touched
        )


def test_arc_counts_linear_in_instance_size():
    for seed in (1, 4, 9):
        inst = generate_synthetic(seed, 4, 6, 3)
        net = build_network(inst)
        n_legs = len(inst.legs())
        n_transitions = sum(len(t.legs) - 1 for t in inst.trains)
        assert len(arcs_of_kind(net, "train")) == n_legs
        assert len(arcs_of_kind(net, "ground_departure")) == n_legs
        assert len(arcs_of_kind(net, "arrival_ground")) == n_legs
        assert len(arcs_of_kind(net, "transition")) == n_transitions
        assert len(arcs_of_kind(net, "ground", lambda a: a.wrap)) == len(inst.terminals)
        # one ground arc per ground node: the chain is a single cycle
        assert len(arcs_of_kind(net, "ground")) == len(net.ground_nodes())


def test_durations_within_horizon():
    inst = generate_synthetic(2, 4, 6, 3)
    net = build_network(inst)
    H = net.horizon
    for arc in net.arcs_in_order():
        if arc.kind == "ground":
            assert 0 <= arc.duration <= H
        else:
            assert 0 < arc.duration < H
        tail, head = net.nodes[arc.tail], net.nodes[arc.head]
        assert arc.duration % H == (head.time - tail.time) % H


def test_ground_chain_visits_every_ground_node_once():
    inst = generate_synthetic(6, 3, 5, 2)
    net = build_network(inst)
    for terminal, chain in net.ground_chains.items():
        nodes = {n.id for n in net.ground_nodes(terminal)}
        assert set(chain) == nodes and len(chain) == len(nodes)
        assert net.nodes[chain[0]].kind == "initial"
        times = [net.nodes[n].time for n in chain]
        assert times == sorted(times)


def test_every_noninitial_node_is_connected():
    inst = generate_synthetic(11, 4, 6, 2)
    net = build_network(inst)
    for node in net.nodes.values():
        if node.kind == "initial":
            continue
        assert net.in_arcs[node.id], node.id
        assert net.out_arcs[node.id], node.id


def test_terminal_without_traffic_gets_week_long_park_arc():
    inst = make_instance(
        ["A", "B", "C"],
        {("A", "B"): 500, ("B", "A"): 500, ("A", "C"): 400, ("C", "A"): 400, ("B", "C"): 450, ("C", "B"): 450},
        [("t1", [("A", "B", 100, 1)], [])],
    )
    net = build_network(inst)
    loop = [a for a in arcs_of_kind(net, "ground") if a.tail == a.head == "init:C"]
    assert len(loop) == 1 and loop[0].duration == 10080 and loop[0].wrap


def test_wrap_set_spans_all_kinds():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 600, ("B", "A"): 600},
        [("t1", [("A", "B", 9900, 1)], [])],  # train arc crosses the boundary
    )
    net = build_network(inst)
    kinds = {a.kind for a in wrap_arcs(net)}
    assert "train" in kinds and "ground" in kinds
    assert net.arcs["T:t1:1"].wrap


def test_coincident_ground_events_are_ordered():
    # Arrival-ground lands at the same minute another leg starts preparation.
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 600, ("B", "A"): 600},
        [
            ("t1", [("A", "B", 100, 1)], []),  # ag at B at 820
            ("t2", [("B", "A", 880, 1)], []),  # gd at B at 820
        ],
    )
    net = build_network(inst)
    chain = net.ground_chains["B"]
    assert list(chain) == ["init:B", "ag:t1:1", "gd:t2:1"]
    zero = [a for a in arcs_of_kind(net, "ground") if a.duration == 0]
    assert any(a.tail == "ag:t1:1" and a.head == "gd:t2:1" for a in zero)


def test_network_dump_is_deterministic(three_terminal_example):
    a = json.dumps(network_to_dict(build_network(three_terminal_example)))
    b = json.dumps(network_to_dict(build_network(three_terminal_example)))
    assert a == b


def test_arcs_of_kind_ordering(three_terminal_example):
    net = build_network(three_terminal_example)
    trains = arcs_of_kind(net, "train")
    keys = [(net.nodes[a.tail].terminal, net.nodes[a.tail].time, a.id) for a in trains]
    assert keys == sorted(keys)
