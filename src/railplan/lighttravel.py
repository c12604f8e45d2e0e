"""Light-travel arc generation.

Two generators produce the repositioning arc set: the exact reduction
(earliest-reachability then latest-origin filtering, with careful wrap-around
handling) and the minimum-cost-flow heuristic (net weekly imbalances routed
on a terminal graph with congestion-penalized costs, then one arc per time
window for origin-destination pairs whose optimal flow exceeds a threshold).
A full enumerator exists for oracle testing on micro instances.

All generators return deterministically ordered lists of
:class:`LightArcSpec`.
"""

from __future__ import annotations

import heapq
import logging
import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .instance import Instance, net_power_balance
from .spacetime import Node, SpaceTimeNetwork, _id_rank

log = logging.getLogger(__name__)

DEFAULT_ENUMERATION_CAP = 200
DEFAULT_WINDOW_MINUTES = 480
DEFAULT_FLOW_THRESHOLD = 1

_time = attrgetter("time")


class CapExceededError(RuntimeError):
    """Raised when full enumeration is attempted beyond the micro-instance cap."""


class McfError(RuntimeError):
    """Raised when the repositioning flow problem is ill-posed or disconnected."""


class LightArcSpec(NamedTuple):
    """One candidate light-travel arc between ground nodes of two terminals.

    ``transit`` is the pure travel time delta(tail terminal, head terminal);
    ``span`` additionally includes the wait at the destination until the head
    event, plus a full horizon for arcs whose head cannot be reached within
    the same cycle (the deceptive wrap case).  A spec carries no prices: the
    model charges each light arc the cost rates times ``transit``, so all arcs
    between the same terminal pair cost the same regardless of departure time.
    """

    tail: str
    head: str
    tail_terminal: str
    head_terminal: str
    transit: int
    span: int
    crossings: int

    @property
    def wrap(self) -> bool:
        return self.crossings > 0


_new_spec = partial(tuple.__new__, LightArcSpec)


def _spec_sort_key(spec: LightArcSpec) -> tuple:
    return (spec.tail_terminal, spec.head_terminal, spec.tail, spec.head)


def _make_spec(net: SpaceTimeNetwork, tail: Node, head: Node, delta: int) -> LightArcSpec:
    H = net.horizon
    wait = (head.time - (tail.time + delta)) % H
    span = delta + wait
    return LightArcSpec(tail.id, head.id, tail.terminal, head.terminal, delta, span, (tail.time + span) // H)


def _first_at_or_after(nodes: list[Node], t: int, horizon: int) -> Node | None:
    """First node (chain order) at or after minute ``t``, wrapping cyclically.

    Chain order is time order, so a binary search finds it."""
    if not nodes:
        return None
    i = bisect_left(nodes, t % horizon, key=_time)
    return nodes[i] if i < len(nodes) else nodes[0]


def _ground_nodes_by_terminal(net: SpaceTimeNetwork) -> dict[str, list[Node]]:
    return {
        term: [net.nodes[nid] for nid in chain]
        for term, chain in net.ground_chains.items()
    }


def _of_kind(nodes: list[Node], kind: str) -> list[Node]:
    return [n for n in nodes if n.kind == kind]


def _terminal_pairs(net: SpaceTimeNetwork, max_ground_nodes: int | None = None, what: str = ""):
    """Yield ``(origin ground nodes, destination ground nodes, transit)`` for
    every ordered pair of distinct terminals with a transit entry, in
    terminal-id order.  With ``max_ground_nodes`` set, an instance with more
    ground nodes raises CapExceededError before the first pair."""
    ground = _ground_nodes_by_terminal(net)
    if max_ground_nodes is not None:
        total = sum(len(v) for v in ground.values())
        if total > max_ground_nodes:
            raise CapExceededError(
                f"{what} enumeration capped at {max_ground_nodes} ground nodes, instance has {total}"
            )
    transit = net.instance.transit
    for term_from in sorted(ground):
        for term_to in sorted(ground):
            delta = transit.get(term_from, term_to)
            if term_to != term_from and delta is not None:
                yield ground[term_from], ground[term_to], delta


# ---------------------------------------------------------------------------
# Exact reduction and full enumeration


def enumerate_full_arcs(
    net: SpaceTimeNetwork, max_ground_nodes: int = DEFAULT_ENUMERATION_CAP
) -> list[LightArcSpec]:
    """Densest useful candidate set, for oracle testing on micro instances.

    Emits one arc from every ground node to the earliest ground-departure
    node it can reach at every other terminal (falling back to the initial
    node at terminals that never dispatch a train).  Waiting on the ground is
    free, so later entry points at the destination are reachable from the
    earliest one via the ground chain and add nothing.

    This set is strictly richer than the arrival-based universe the exact
    reduction draws from: departures from preparation or week-start nodes let
    units relay through an intermediate terminal without an arrival event
    there.  When several units may share one light-train crew (rho_u > 1),
    such relays can consolidate crew charges in ways no arrival-tailed arc
    set can express, so optimality comparisons against the reduction are
    guaranteed only under per-unit crews (rho_u = 1); see
    :func:`full_pairwise_arcs` for the capacity-independent comparison.
    """
    H = net.horizon
    specs: list[LightArcSpec] = []
    for origin, dest, delta in _terminal_pairs(net, max_ground_nodes, "full"):
        heads = _of_kind(dest, "ground_departure")
        for tail in origin:
            head = _first_at_or_after(heads, tail.time + delta, H) or _of_kind(dest, "initial")[0]
            specs.append(_make_spec(net, tail, head, delta))
    return sorted(specs, key=_spec_sort_key)


def full_pairwise_arcs(
    net: SpaceTimeNetwork, max_ground_nodes: int = DEFAULT_ENUMERATION_CAP
) -> list[LightArcSpec]:
    """Every (arrival-ground, ground-departure) pair across terminals.

    The complete candidate universe the exact reduction is drawn from: one
    arc from each node where locomotives become idle to each node where they
    are required, at every other terminal with a transit entry.  On a cyclic
    horizon every such head is reachable (waiting wraps into the next week),
    so this is the densest arrival-based set.  The reduction provably loses
    nothing against it for any crew capacity.
    """
    specs: list[LightArcSpec] = []
    for origin, dest, delta in _terminal_pairs(net, max_ground_nodes, "pairwise"):
        heads = _of_kind(dest, "ground_departure")
        for tail in _of_kind(origin, "arrival_ground"):
            specs += [_make_spec(net, tail, head, delta) for head in heads]
    return sorted(specs, key=_spec_sort_key)


def reduce_exact(net: SpaceTimeNetwork) -> list[LightArcSpec]:
    """Exact reduced light-travel arc set.

    Step 1 (earliest reachability): every arrival-ground node connects to the
    first ground-departure node it can reach at each other terminal, walking
    forward in cyclic time from arrival + transit.  Step 2 (latest origin
    filtering): among arcs from the same origin terminal into the same
    ground-departure node, only the one departing last - equivalently with
    the least idle time at the destination - is kept.  Arcs whose journey
    crosses the horizon are wrap arcs; this includes the deceptive case where
    the head lies numerically ahead of the tail but cannot be reached within
    the travel time, so it is only caught after the plan wraps around.

    Both steps run as one array pass over every (tail, destination terminal)
    pair: the heads are keyed ``terminal * (H + 1) + time`` in chain order,
    so one sorted search finds each tail's first head at or after its
    arrival + transit in every destination terminal's block, wrapping to the
    block's start.  Per (head, origin terminal) the least wait wins; ties go
    to the latest tail in chain order, which is (time, id) order.
    """
    H = net.horizon
    terminals = sorted(net.ground_chains)
    index = {term: i for i, term in enumerate(terminals)}
    pairs = [
        (index[o], index[d], minutes)
        for (o, d), minutes in net.instance.transit.items()
        if o != d and o in index and d in index
    ]
    if not pairs:
        return []
    chains = [net.ground_chains[term] for term in terminals]
    ids, kinds, _terms, times = zip(*map(net.nodes.__getitem__, chain.from_iterable(chains)))
    times = np.array(times)
    term_of = np.repeat(np.arange(len(terminals)), list(map(len, chains)))
    is_tail = np.fromiter(map("arrival_ground".__eq__, kinds), bool, len(kinds))
    is_head = np.fromiter(map("ground_departure".__eq__, kinds), bool, len(kinds))
    tail_ids = list(compress(ids, is_tail.tolist()))
    head_ids = list(compress(ids, is_head.tolist()))
    tail_term, tail_time = term_of[is_tail], times[is_tail]
    head_term, head_time = term_of[is_head], times[is_head]

    # Each destination terminal's block of heads, and the transit minutes of
    # the pairs that have an entry and a head to reach.
    first = np.searchsorted(head_term, np.arange(len(terminals)))
    stop = np.searchsorted(head_term, np.arange(len(terminals)), side="right")
    o, d, minutes = map(np.array, zip(*pairs))
    transit = np.zeros((len(terminals), len(terminals)), dtype=minutes.dtype)
    transit[o, d] = minutes
    reachable = np.zeros(transit.shape, dtype=bool)
    reachable[o, d] = True
    reachable &= stop > first
    tail, dest = np.nonzero(reachable[tail_term])
    if tail.size == 0:
        return []

    # Step 1: per (tail, destination), the first head at or after arrival +
    # transit, and the wait there.
    origin = tail_term[tail]
    delta = transit[origin, dest]
    arrive = tail_time[tail] + delta
    head = np.searchsorted(head_term * (H + 1) + head_time, dest * (H + 1) + arrive % H)
    head = np.where(head < stop[dest], head, first[dest])
    wait = (head_time[head] - arrive) % H

    # Step 2: per (head, origin terminal), the least wait, then the latest
    # tail; tails are numbered in chain order, so each candidate's rank in
    # its group is one int.
    n_terms, n_tails, n_heads = len(terminals), len(tail_ids), len(head_ids)
    group = head * n_terms + origin
    rank = wait * n_tails + (n_tails - 1 - tail)
    best = np.full(n_heads * n_terms, np.inf)
    np.minimum.at(best, group, rank)
    won = np.flatnonzero(rank == best[group])

    # The winners in (tail terminal, head terminal, tail id, head id) order,
    # as one int key per winner.
    key = (origin[won] * n_terms + dest[won]) * n_tails + _id_rank(tail_ids)[tail[won]]
    won = won[np.argsort(key * n_heads + _id_rank(head_ids)[head[won]])]
    tail, head, origin, dest, delta = tail[won], head[won], origin[won], dest[won], delta[won]
    span = delta + wait[won]
    return list(map(_new_spec, zip(
        map(tail_ids.__getitem__, tail.tolist()),
        map(head_ids.__getitem__, head.tolist()),
        map(terminals.__getitem__, origin.tolist()),
        map(terminals.__getitem__, dest.tolist()),
        delta.tolist(),
        span.tolist(),
        ((tail_time[tail] + span) // H).tolist(),
    )))


# ---------------------------------------------------------------------------
# Minimum-cost-flow heuristic


def mcf_cost(delta_ij: float | int, o_ij: int, mcf_alpha: float) -> float | int:
    """Penalized repositioning cost between a terminal pair.

    Pairs served by at most two weekly trains cost their distance; busier
    pairs are penalized by ``alpha`` or ``alpha**2`` to discourage routing
    light power through heavily serviced corridors.
    """
    if mcf_alpha <= 2:
        raise ValueError(f"mcf_alpha must exceed 2, got {mcf_alpha}")
    if delta_ij <= 0:
        raise ValueError("delta_ij must be positive")
    if o_ij < 0:
        raise ValueError("o_ij must be non-negative")
    if o_ij <= 2:
        return delta_ij
    if o_ij < mcf_alpha:
        return delta_ij * mcf_alpha
    return delta_ij * mcf_alpha * mcf_alpha


@dataclass(frozen=True)
class McfProblem:
    supplies: dict[str, int]  # positive = surplus source, negative = deficit sink
    costs: dict[tuple[str, str], float | int]
    o_counts: dict[tuple[str, str], int]
    mcf_alpha: float


def build_mcf(inst: Instance, mcf_alpha: float | None = None) -> McfProblem:
    """Terminal-level repositioning flow problem from weekly net imbalances.

    ``o_ij`` counts scheduled legs between i and j in either direction.  The
    penalization factor defaults to the mean of the positive counts, nudged
    above 2 when the schedule is too sparse for the mean to be a valid factor.
    """
    supplies = net_power_balance(inst)
    ids = sorted(supplies)
    o_counts: dict[tuple[str, str], int] = {}
    for leg in inst.legs():
        for pair in ((leg.origin, leg.dest), (leg.dest, leg.origin)):
            o_counts[pair] = o_counts.get(pair, 0) + 1
    if mcf_alpha is None:
        positive = [v for v in o_counts.values() if v > 0]
        mean = statistics.mean(positive) if positive else 0.0
        mcf_alpha = float(mean) if mean > 2 else 2.0 + 1e-9
    elif mcf_alpha <= 2:
        raise ValueError(f"mcf_alpha must exceed 2, got {mcf_alpha}")
    costs = {}
    for i in ids:
        for j in ids:
            if i == j:
                continue
            delta = inst.transit.get(i, j)
            if delta is None:
                continue
            costs[(i, j)] = mcf_cost(delta, o_counts.get((i, j), 0), mcf_alpha)
    return McfProblem(supplies=supplies, costs=costs, o_counts=o_counts, mcf_alpha=mcf_alpha)


def solve_mcf(problem: McfProblem) -> dict[tuple[str, str], int]:
    """Integral min-cost flow via successive shortest paths with potentials.

    Deterministic: sources are drained in terminal-id order and shortest-path
    ties break toward lower terminal ids.  The pair costs are scaled exactly
    to integers first, so distances and potentials carry no rounding error
    that could make Dijkstra re-relax a residual cycle forever.  An exact
    complementary-slackness check runs before returning.
    """
    if sum(problem.supplies.values()) != 0:
        raise McfError("supplies must sum to zero")
    ids = sorted(problem.supplies)
    index = {k: i for i, k in enumerate(ids)}
    n = len(ids)
    scale = math.lcm(*(Fraction(cost).denominator for cost in problem.costs.values()))

    # Residual network: per edge (head, cost, cap, index of reverse edge).
    graph: list[list[list]] = [[] for _ in range(n)]

    def add_edge(u: int, v: int, cost: int) -> None:
        graph[u].append([v, cost, math.inf, len(graph[v]), True])
        graph[v].append([u, -cost, 0, len(graph[u]) - 1, False])

    for (i, j) in sorted(problem.costs):
        add_edge(index[i], index[j], int(Fraction(problem.costs[(i, j)]) * scale))

    remaining = {k: v for k, v in problem.supplies.items()}
    potential = [0] * n

    while True:
        sources = [k for k in ids if remaining[k] > 0]
        if not sources:
            break
        s = index[sources[0]]
        dist = [math.inf] * n
        prev: list[tuple[int, int] | None] = [None] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for ei, edge in enumerate(graph[u]):
                v, cost, cap, _rev, _fwd = edge
                if cap <= 0:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = (u, ei)
                    heapq.heappush(heap, (nd, v))
        sinks = [k for k in ids if remaining[k] < 0 and dist[index[k]] < math.inf]
        if not sinks:
            missing = [k for k in ids if remaining[k] < 0]
            raise McfError(
                f"no repositioning path from {ids[s]} to deficit terminals {missing}; "
                "transit entries leave the terminal graph disconnected"
            )
        t = index[min(sinks, key=lambda k: (dist[index[k]], k))]

        amount = min(remaining[ids[s]], -remaining[ids[t]])
        v = t
        while v != s:
            u, ei = prev[v]
            amount = min(amount, graph[u][ei][2])
            v = u
        v = t
        while v != s:
            u, ei = prev[v]
            edge = graph[u][ei]
            edge[2] -= amount
            graph[edge[0]][edge[3]][2] += amount
            v = u
        for k in range(n):
            if dist[k] < math.inf:
                potential[k] += dist[k]
        remaining[ids[s]] -= amount
        remaining[ids[t]] += amount

    flows: dict[tuple[str, str], int] = {}
    for u in range(n):
        for edge in graph[u]:
            v, cost, cap, _rev, forward = edge
            if forward:
                flow = graph[v][edge[3]][2]  # reverse residual capacity equals flow
                if flow > 0:
                    flows[(ids[u], ids[v])] = int(flow)
            # Complementary slackness: open residual edges cannot be improving.
            if cap > 0 and cost + potential[u] - potential[v] < 0:
                raise McfError("complementary slackness violated; flow is not optimal")
    return flows


def mcf_insert_arcs(
    net: SpaceTimeNetwork,
    flow: dict[tuple[str, str], int],
    window_minutes: int = DEFAULT_WINDOW_MINUTES,
    threshold: int = DEFAULT_FLOW_THRESHOLD,
) -> list[LightArcSpec]:
    """Insert one space-time arc per time window for busy repositioning pairs.

    Only origin-destination pairs with flow strictly greater than
    ``threshold`` receive arcs.  Each window contributes one arc from the
    earliest origin ground node inside it; empty windows borrow from the
    nearest non-empty window, ties resolved toward the earlier one.
    Duplicate (tail, head) pairs produced by borrowing collapse to one arc.
    """
    H = net.horizon
    if window_minutes <= 0 or window_minutes > H:
        raise ValueError("window_minutes must lie in (0, horizon]")
    n_windows = -(-H // window_minutes)
    ground = _ground_nodes_by_terminal(net)
    transit = net.instance.transit

    specs: dict[tuple[str, str], LightArcSpec] = {}
    for (term_from, term_to) in sorted(flow):
        if flow[(term_from, term_to)] <= threshold:
            continue
        delta = transit.get(term_from, term_to)
        if delta is None:
            log.warning("no transit entry for flow pair (%s, %s); skipped", term_from, term_to)
            continue
        origins = ground.get(term_from, [])
        dest_nodes = ground.get(term_to, [])
        if not origins or not dest_nodes:
            log.warning("no ground nodes for flow pair (%s, %s); skipped", term_from, term_to)
            continue
        by_window: dict[int, list[Node]] = {}
        for node in origins:
            by_window.setdefault(node.time // window_minutes, []).append(node)
        occupied = sorted(by_window)
        for w in range(n_windows):
            if w in by_window:
                tail = by_window[w][0]
            else:
                nearest = min(occupied, key=lambda w2: (abs(w2 - w), w2))
                tail = by_window[nearest][0]
            head = _first_at_or_after(dest_nodes, (tail.time + delta) % H, H)
            spec = _make_spec(net, tail, head, delta)
            specs.setdefault((spec.tail, spec.head), spec)
    return sorted(specs.values(), key=_spec_sort_key)


# ---------------------------------------------------------------------------
# Method dispatch


def generate_light_arcs(
    net: SpaceTimeNetwork,
    method: str = "exact",
    mcf_window: int = DEFAULT_WINDOW_MINUTES,
    mcf_threshold: int = DEFAULT_FLOW_THRESHOLD,
    mcf_alpha: float | None = None,
) -> list[LightArcSpec]:
    if method == "exact":
        return reduce_exact(net)
    if method == "full":
        return enumerate_full_arcs(net)
    if method == "mcf":
        problem = build_mcf(net.instance, mcf_alpha=mcf_alpha)
        flow = solve_mcf(problem)
        return mcf_insert_arcs(net, flow, window_minutes=mcf_window, threshold=mcf_threshold)
    raise ValueError(f"unknown light-travel method {method!r}")
