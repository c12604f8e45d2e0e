"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance on
synthetic micro instances and prints a pass line when it holds.  Proven
optima only: every comparison below first asserts solver status "optimal".
"""

import math
import random
from dataclasses import replace
from time import perf_counter

import pytest

from railplan.instance import generate_synthetic
from railplan.lighttravel import (
    build_mcf,
    enumerate_full_arcs,
    full_pairwise_arcs,
    generate_light_arcs,
    mcf_cost,
    reduce_exact,
    solve_mcf,
)
from railplan.model import (
    ExtensionConfig,
    apply_extension,
    build_base_model,
)
from railplan.report import SweepConfig, compute_kpis, run_sweep
from railplan.solver import SolveBudget, check_feasibility, solve_bb
from railplan.spacetime import arcs_of_kind, build_network, pickup_arcs, setout_arcs, with_light_arcs

from .conftest import make_instance
from .oracles import dense_and_reduced_optima, solve_enumeration

BUDGET = SolveBudget(max_seconds=60.0)

# Micro-instance shapes for the batch criteria: at most 4 terminals, 6
# trains, 2 legs per train.
REDUCTION_SUITE = [
    (seed, 3, 3, 2) for seed in range(1, 11)
] + [
    (seed, 4, 5, 2) for seed in range(11, 18)
] + [
    (seed, 4, 6, 2) for seed in range(18, 23)
]


def _optimal(model, budget=BUDGET):
    sol = solve_bb(model, budget)
    assert sol.status == "optimal", f"expected proven optimum, got {sol.status}"
    return sol


def test_reduction_optimality_pairwise_universe():
    """The reduction loses nothing against every arrival-to-departure pair,
    at the default crew capacity; exact integer equality."""
    assert len(REDUCTION_SUITE) >= 20
    for seed, n_k, n_t, n_l in REDUCTION_SUITE:
        inst = generate_synthetic(seed, n_k, n_t, n_l)
        full, reduced = dense_and_reduced_optima(inst, full_pairwise_arcs)
        assert full == reduced, f"seed {seed}: pairwise {full} != reduced {reduced}"
    print(
        f"\nACCEPTANCE PASS reduction-optimality(pairwise): {len(REDUCTION_SUITE)} seeded instances, exact equality"
    )


def test_reduction_optimality_densest_set_per_unit_crews():
    """Against the densest set (departures also from preparation and
    week-start nodes), equality additionally needs per-unit crews: shared
    crews would let relayed units consolidate charges no arrival-tailed arc
    can express."""
    assert len(REDUCTION_SUITE) >= 20
    for seed, n_k, n_t, n_l in REDUCTION_SUITE:
        inst = generate_synthetic(seed, n_k, n_t, n_l)
        inst = replace(inst, costs=replace(inst.costs, rho_u=1))
        full, reduced = dense_and_reduced_optima(inst, enumerate_full_arcs)
        assert full == reduced, f"seed {seed}: full {full} != reduced {reduced}"
    print(
        f"\nACCEPTANCE PASS reduction-optimality(densest,rho=1): {len(REDUCTION_SUITE)} seeded instances, exact equality"
    )


def test_heuristic_dominance_suite(strict_dominance_instance):
    """The heuristic's arc set never beats the exact set, and loses strictly
    on a crafted instance whose needed flow sits at the threshold."""
    strict_seen = 0
    for seed, n_k, n_t, n_l in REDUCTION_SUITE:
        inst = generate_synthetic(seed, n_k, n_t, n_l)
        net = build_network(inst)
        exact_specs = reduce_exact(net)
        exact = _optimal(build_base_model(with_light_arcs(net, exact_specs), exact_specs, inst.costs))
        mcf_specs = generate_light_arcs(net, method="mcf")
        mcf_model = build_base_model(with_light_arcs(net, mcf_specs), mcf_specs, inst.costs)
        mcf_sol = solve_bb(mcf_model, BUDGET)
        if mcf_sol.status == "infeasible":
            strict_seen += 1
            continue
        assert mcf_sol.status == "optimal"
        assert mcf_sol.objective >= exact.objective
        if mcf_sol.objective > exact.objective:
            strict_seen += 1

    inst = strict_dominance_instance
    net = build_network(inst)
    flow = solve_mcf(build_mcf(inst))
    assert flow[("A", "C")] == 1  # suppressed by the strict threshold
    exact_specs = reduce_exact(net)
    exact = _optimal(build_base_model(with_light_arcs(net, exact_specs), exact_specs, inst.costs))
    mcf_specs = generate_light_arcs(net, method="mcf")
    assert all(s.head_terminal != "C" for s in mcf_specs)
    mcf = _optimal(build_base_model(with_light_arcs(net, mcf_specs), mcf_specs, inst.costs))
    assert mcf.objective > exact.objective
    strict_seen += 1
    print(f"\nACCEPTANCE PASS heuristic-dominance: no violation; {strict_seen} strictly worse cases incl. crafted")


def test_oracle_equivalence_suite():
    """Branch and bound equals the exhaustive oracle on 30 micro models."""
    rng = random.Random(0)
    checked = 0
    for seed in range(30):
        inst = generate_synthetic(1000 + seed, 2, rng.randint(1, 2), 1)
        net = build_network(inst)
        specs = reduce_exact(net)
        model = build_base_model(with_light_arcs(net, specs), specs, inst.costs)
        assert len(model.variables) <= 24
        oracle = solve_enumeration(model)
        bb = solve_bb(model, BUDGET)
        assert bb.status == oracle.status
        if oracle.status == "optimal":
            assert bb.objective == oracle.objective, f"seed {seed}"
        checked += 1
    assert checked >= 30
    print(f"\nACCEPTANCE PASS oracle-equivalence: {checked} models, exact equality")


@pytest.mark.parametrize("cost_vector", [(1, 5, 9), (2, 3, 11), (4, 4, 4)])
def test_work_event_cost_truth_table(cost_vector):
    """Railcar alignment maps to (c1,c2)/(c2,c1)/(c3,c3)/(c1,c1) exactly."""
    c1, c2, c3 = cost_vector
    expected = {"so": (c1, c2), "pu": (c2, c1), "no": (c3, c3), "both": (c1, c1)}
    transit = {
        ("A", "B"): 400, ("B", "A"): 400,
        ("B", "C"): 300, ("C", "B"): 300,
        ("A", "C"): 500, ("C", "A"): 500,
    }
    for category, (so_coef, pu_coef) in expected.items():
        inst = make_instance(
            ["A", "B", "C"], transit,
            [("t", [("A", "B", 100, 1), ("B", "C", 800, 1)], [category])],
            c1=c1, c2=c2, c3=c3,
        )
        net = build_network(inst)
        assert build_base_model(net, [], inst.costs).decomposition["work_events"] == {
            "yso:R:t:1": so_coef,
            "ypu:E:t:2": pu_coef,
        }
    print(f"\nACCEPTANCE PASS work-event-cost-truth-table: 4 flag cases for costs {cost_vector}")


def test_mcf_cost_cases():
    """The three penalization bands, exact."""
    assert mcf_cost(100, 2, 5) == 100
    assert mcf_cost(100, 3, 5) == 500
    assert mcf_cost(100, 5, 5) == 2500
    print("\nACCEPTANCE PASS mcf-cost-cases: (100,2,5)->100 (100,3,5)->500 (100,5,5)->2500")


def test_conservation_and_cyclicity():
    """Every returned solution is exactly feasible, including wrap-around
    balance, and its locomotive-minute shares sum to one."""
    checked = 0
    for seed, n_k, n_t, n_l in REDUCTION_SUITE[:10]:
        inst = generate_synthetic(seed, n_k, n_t, n_l)
        net = build_network(inst)
        for method in ("exact", "mcf"):
            specs = generate_light_arcs(net, method=method)
            merged = with_light_arcs(net, specs)
            model = build_base_model(merged, specs, inst.costs)
            sol = solve_bb(model, BUDGET)
            if sol.values is None:
                continue
            assert check_feasibility(model, sol.values) == []
            wrap = [a for a in merged.arcs_in_order() if a.wrap]
            assert wrap, "cyclic model must carry wrap-around arcs"
            kpis = compute_kpis(merged, model, sol)
            assert sum(kpis.activity_shares.values()) == pytest.approx(1.0, abs=1e-9)
            # The underlying ledger closes as an exact integer identity.
            assert sum(kpis.activity_minutes.values()) == kpis.fleet_size * merged.horizon
            checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE PASS conservation-cyclicity: {checked} solutions feasible, shares sum to 1")


def test_extension_hierarchy(ladder_instance):
    """Restated redesign-beats-incremental finding: ladders are monotone,
    redesigns dominate at matched budgets, and the full-budget redesign
    without daily caps recovers the unconstrained optimum."""
    started = perf_counter()
    inst = ladder_instance
    net = build_network(inst)
    specs = reduce_exact(net)
    base = build_base_model(with_light_arcs(net, specs), specs, inst.costs)
    theta = 6

    v0 = _optimal(base)
    baseline = inst.baseline
    n_active_terminals = len({k for (k, _d) in baseline.active_pairs()})
    n_active_pairs = len(baseline.active_pairs())

    ladders = {
        "V1": [("lambda_", v) for v in (0, 1, 2)],
        "V2": [("alpha_c", v) for v in (0, 1, 2)],
        "V3": [("alpha_d", v) for v in (0, 1, 2, 3)],
        "V4": [("alpha_e", n_active_terminals + v) for v in (0, 1, 2)],
        "V5": [("alpha_f", n_active_pairs + v) for v in (0, 1, 2, 3)],
    }
    objectives = {}
    for version, grid in ladders.items():
        objs = []
        for key, alpha in grid:
            cfg = ExtensionConfig(version=version, theta=theta, **{key: alpha})
            objs.append(_optimal(apply_extension(base, cfg)).objective)
        assert all(a >= b for a, b in zip(objs, objs[1:])), f"{version} ladder not monotone: {objs}"
        objectives[version] = objs

    # Matched budgets: a redesign allowed t total activations can replay any
    # incremental solution with t new activations on top of the baseline.
    for t in range(3):
        assert objectives["V4"][t] <= objectives["V2"][t], f"V4 vs V2 at budget {t}"
    for t in range(4):
        assert objectives["V5"][t] <= objectives["V3"][t], f"V5 vs V3 at budget {t}"

    full = apply_extension(
        base, ExtensionConfig(version="V4", alpha_e=len(inst.terminals), theta=math.inf)
    )
    assert _optimal(full).objective == v0.objective

    elapsed = perf_counter() - started
    assert elapsed < 600, f"ladder took {elapsed:.0f}s"
    print(f"\nACCEPTANCE PASS extension-hierarchy: monotone ladders, V4<=V2, V5<=V3, V4-full==V0 in {elapsed:.1f}s")


SWEEP_FACTORS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@pytest.mark.parametrize("parameter", ["q", "e", "c", "g"])
def test_sweep_monotone_and_concave(parameter):
    """Proven-optimal objective is non-decreasing and concave in each scaled
    cost coefficient (relative tolerance 1e-6)."""
    inst = generate_synthetic(12, 3, 4, 2)
    rows = run_sweep(inst, SweepConfig(parameter=parameter, factors=SWEEP_FACTORS, budget=BUDGET))
    assert all(r["status"] == "optimal" for r in rows)
    values = [r["objective"] for r in rows]
    scale = max(1.0, max(abs(v) for v in values))
    tol = 1e-6 * scale
    for a, b in zip(values, values[1:]):
        assert b >= a - tol, f"{parameter}: objective decreased {values}"
    slopes = [
        (values[i + 1] - values[i]) / (SWEEP_FACTORS[i + 1] - SWEEP_FACTORS[i])
        for i in range(len(values) - 1)
    ]
    for s1, s2 in zip(slopes, slopes[1:]):
        assert s2 <= s1 + tol, f"{parameter}: slopes increased {slopes}"
    print(f"\nACCEPTANCE PASS sweep-{parameter}: non-decreasing and concave over {SWEEP_FACTORS}")


def test_example_network_structure(three_terminal_example):
    """The running-example network has exactly one pick-up arc, one set-out
    arc, one transition arc, one mutual-exclusion row, and one wrap-around
    ground arc per terminal."""
    net = build_network(three_terminal_example)
    specs = reduce_exact(net)
    merged = with_light_arcs(net, specs)
    model = build_base_model(merged, specs, three_terminal_example.costs)
    assert len(pickup_arcs(net)) == 1
    assert len(setout_arcs(net)) == 1
    assert len(arcs_of_kind(net, "transition")) == 1
    assert len([c for c in model.constraints if c.tag.startswith("mutex:")]) == 1
    per_terminal = {}
    for arc in arcs_of_kind(net, "ground", lambda a: a.wrap):
        per_terminal[net.nodes[arc.tail].terminal] = per_terminal.get(net.nodes[arc.tail].terminal, 0) + 1
    assert per_terminal == {"T1": 1, "T2": 1, "T3": 1}
    print("\nACCEPTANCE PASS example-network-structure: 1 pick-up, 1 set-out, 1 transition, 1 mutex, 3 wrap ground arcs")
