"""Cyclic space-time network construction.

Nodes carry a terminal and a minute-of-week; arcs are locomotive activities.
Arc kinds: ``train`` (scheduled legs, the only arcs carrying active power),
``transition`` (stay attached through an intermediate stop),
``ground_departure`` (train preparation; the decision subset are pick-up
arcs), ``arrival_ground`` (set-out inspection; the decision subset are
set-out arcs), ``ground`` (idle inventory chains per terminal), and
``light`` (repositioning trains, merged in later).

Wrap-around semantics: an arc's ``duration`` is the physical span of the
activity in minutes and ``crossings`` counts how many times the activity
crosses the end of the weekly horizon.  Flows on crossing arcs are exactly
the locomotives present at the week boundary, which is what the ownership
term of the objective counts.  For every arc except deceptive light arcs
(those whose head event cannot be reached within the same cycle) the span
equals ``(head.time - tail.time) mod H``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .instance import Instance, RailcarFlags

ARC_KINDS = ("train", "transition", "ground_departure", "arrival_ground", "ground", "light")

GROUND_NODE_KINDS = ("initial", "arrival_ground", "ground_departure")
# Coincident ground events are chained in this order so a locomotive that
# finishes inspection at time t can board a train prepared at the same t.
_GROUND_ORDER = {"initial": 0, "arrival_ground": 1, "ground_departure": 2}


class Node(NamedTuple):
    id: str
    kind: str
    terminal: str
    time: int


class Arc(NamedTuple):
    id: str
    kind: str
    tail: str
    head: str
    duration: int  # physical span in minutes
    crossings: int  # number of horizon-boundary crossings (0, 1 or 2)
    b: int = 0  # required active power (train arcs only)
    train_id: str | None = None
    seq: int | None = None
    decision: bool = False  # pick-up / set-out decision arc
    flags: RailcarFlags | None = None
    transit: int | None = None  # light arcs: pure travel minutes

    @property
    def wrap(self) -> bool:
        """Member of the wrap-around set S: the activity crosses the week's end."""
        return self.crossings > 0


@dataclass(frozen=True)
class SpaceTimeNetwork:
    instance: Instance
    nodes: dict[str, Node]
    arcs: dict[str, Arc]
    node_order: tuple[str, ...]
    arc_order: tuple[str, ...]
    in_arcs: dict[str, tuple[str, ...]]
    out_arcs: dict[str, tuple[str, ...]]
    ground_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    def arcs_in_order(self) -> list[Arc]:
        return [self.arcs[a] for a in self.arc_order]

    def ground_nodes(self, terminal: str | None = None) -> list[Node]:
        out = [
            self.nodes[n]
            for n in self.node_order
            if self.nodes[n].kind in GROUND_NODE_KINDS
        ]
        if terminal is not None:
            out = [n for n in out if n.terminal == terminal]
        return out


def _ground_sort_key(node: Node) -> tuple:
    return (node.time, _GROUND_ORDER[node.kind], node.id)


def _id_rank(ids) -> np.ndarray:
    """Each of ``ids``' position in the sorted ids."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def build_network(inst: Instance) -> SpaceTimeNetwork:
    """Build the full space-time network for a valid instance (no light arcs)."""
    H = inst.horizon
    prep = inst.costs.prep_minutes
    inspect = inst.costs.inspect_minutes

    nodes: dict[str, Node] = {}
    node_order: list[str] = []
    arcs: dict[str, Arc] = {}
    arc_order: list[str] = []

    def add_node(node: Node) -> Node:
        nodes[node.id] = node
        node_order.append(node.id)
        return node

    def add_arc(arc_id: str, kind: str, tail: Node, head: str, duration: int, *fields) -> None:
        # fields: the Arc fields after crossings, in order (b, train_id, seq, decision, flags).
        crossings = (tail.time + duration) // H
        arcs[arc_id] = Arc(arc_id, kind, tail.id, head, duration, crossings, *fields)
        arc_order.append(arc_id)

    for term in inst.terminals:
        add_node(Node(f"init:{term.id}", "initial", term.id, 0))

    for train in inst.trains:
        s_t = len(train.legs)
        for leg in train.legs:
            key = f"{train.id}:{leg.seq}"
            dep_node = add_node(Node(f"dep:{key}", "departure", leg.origin, leg.dep))
            arr_node = add_node(Node(f"arr:{key}", "arrival", leg.dest, leg.arr))
            gd_node = add_node(
                Node(f"gd:{key}", "ground_departure", leg.origin, (leg.dep - prep) % H)
            )
            ag_node = add_node(
                Node(f"ag:{key}", "arrival_ground", leg.dest, (leg.arr + inspect) % H)
            )
            add_arc(f"E:{key}", "ground_departure", gd_node, dep_node.id, prep, 0, train.id, leg.seq, leg.seq > 1)
            add_arc(f"T:{key}", "train", dep_node, arr_node.id, (leg.arr - leg.dep) % H, leg.b, train.id, leg.seq)
            add_arc(f"R:{key}", "arrival_ground", arr_node, ag_node.id, inspect, 0, train.id, leg.seq, leg.seq < s_t)

        for i in range(s_t - 1):
            a, b = train.legs[i], train.legs[i + 1]
            tail = nodes[f"arr:{train.id}:{a.seq}"]
            add_arc(
                f"C:{train.id}:{a.seq}", "transition", tail, f"dep:{train.id}:{b.seq}", (b.dep - a.arr) % H,
                0, train.id, a.seq, False, train.stops[i],
            )

    # Ground chains: per terminal, all ground nodes in time order, closed by
    # one wrap-around arc back to the initial node.
    ground: dict[str, list[Node]] = {term.id: [] for term in inst.terminals}
    for node in nodes.values():
        if node.kind in GROUND_NODE_KINDS and node.terminal in ground:
            ground[node.terminal].append(node)
    ground_chains: dict[str, tuple[str, ...]] = {}
    for term in inst.terminals:
        chain = sorted(ground[term.id], key=_ground_sort_key)
        ground_chains[term.id] = tuple(n.id for n in chain)
        for i, tail in enumerate(chain):
            if i + 1 < len(chain):
                head = chain[i + 1]
                dur = head.time - tail.time
            else:
                head = chain[0]
                dur = H - tail.time  # closing arc spans the boundary, even from time 0
            add_arc(f"G:{term.id}:{i}", "ground", tail, head.id, dur)

    in_arcs: dict[str, list[str]] = {n: [] for n in nodes}
    out_arcs: dict[str, list[str]] = {n: [] for n in nodes}
    for aid in arc_order:
        arc = arcs[aid]
        out_arcs[arc.tail].append(aid)
        in_arcs[arc.head].append(aid)

    return SpaceTimeNetwork(
        instance=inst,
        nodes=nodes,
        arcs=arcs,
        node_order=tuple(node_order),
        arc_order=tuple(arc_order),
        in_arcs={n: tuple(v) for n, v in in_arcs.items()},
        out_arcs={n: tuple(v) for n, v in out_arcs.items()},
        ground_chains=ground_chains,
    )


def arcs_of_kind(net: SpaceTimeNetwork, kind: str, predicate=None) -> list[Arc]:
    """Arcs of one kind in a stable order: tail terminal, tail time, arc id."""
    if kind not in ARC_KINDS:
        raise ValueError(f"unknown arc kind {kind!r}")
    picked = [a for a in net.arcs_in_order() if a.kind == kind]
    if predicate is not None:
        picked = [a for a in picked if predicate(a)]
    return sorted(
        picked, key=lambda a: (net.nodes[a.tail].terminal, net.nodes[a.tail].time, a.id)
    )


def pickup_arcs(net: SpaceTimeNetwork) -> list[Arc]:
    """A_PU: ground-departure arcs of legs after the first."""
    return arcs_of_kind(net, "ground_departure", lambda a: a.decision)


def setout_arcs(net: SpaceTimeNetwork) -> list[Arc]:
    """A_SO: arrival-ground arcs of legs before the last."""
    return arcs_of_kind(net, "arrival_ground", lambda a: a.decision)


def wrap_arcs(net: SpaceTimeNetwork) -> list[Arc]:
    """The wrap-around set S over all arc kinds."""
    return [a for a in net.arcs_in_order() if a.wrap]


def with_light_arcs(net: SpaceTimeNetwork, specs) -> SpaceTimeNetwork:
    """Return a new network with light-travel arcs appended.

    ``specs`` is a sequence of :class:`railplan.lighttravel.LightArcSpec`.
    """
    if not specs:
        return net
    arcs = dict(net.arcs)
    arc_order = list(net.arc_order)
    # The light arcs in and out of each node they touch; every other node
    # shares its adjacency tuples with ``net``.
    added_in: dict[str, list[str]] = {}
    added_out: dict[str, list[str]] = {}
    for i, spec in enumerate(specs):
        aid = f"L:{i}"
        if aid in arcs:
            raise ValueError("network already contains light arcs")
        arc = Arc(aid, "light", spec.tail, spec.head, spec.span, spec.crossings, 0, None, None, False, None, spec.transit)
        arcs[aid] = arc
        arc_order.append(aid)
        added_out.setdefault(arc.tail, []).append(aid)
        added_in.setdefault(arc.head, []).append(aid)
    return SpaceTimeNetwork(
        instance=net.instance,
        nodes=net.nodes,
        arcs=arcs,
        node_order=net.node_order,
        arc_order=tuple(arc_order),
        in_arcs=_extended_adjacency(net.in_arcs, added_in),
        out_arcs=_extended_adjacency(net.out_arcs, added_out),
        ground_chains=net.ground_chains,
    )


def _extended_adjacency(adjacency: dict[str, tuple], added: dict[str, list[str]]) -> dict[str, tuple]:
    """``adjacency`` with ``added``'s arcs after each node's own, in the
    same node order; a node ``adjacency`` lacks raises ``KeyError``."""
    out = dict(adjacency)
    for node, arc_ids in added.items():
        out[node] = adjacency[node] + tuple(arc_ids)
    return out


_DUMPED_ARC_FIELDS = ("id", "kind", "tail", "head", "duration", "wrap", "crossings", "b", "decision", "transit")


def network_to_dict(net: SpaceTimeNetwork) -> dict:
    """Deterministic JSON-friendly dump for debugging."""
    return {
        "horizon": net.horizon,
        "nodes": [net.nodes[i]._asdict() for i in net.node_order],
        "arcs": [{name: getattr(a, name) for name in _DUMPED_ARC_FIELDS} for a in net.arcs_in_order()],
    }


def save_network(net: SpaceTimeNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")
