import math

import pytest

from railplan.instance import generate_synthetic
from railplan.lighttravel import reduce_exact
from railplan.model import LinearConstraint, MilpModel, VarRef, build_base_model
from railplan.solver import (
    MissingVariableError,
    SolveBudget,
    check_feasibility,
    evaluate_objective,
    load_solution,
    save_solution,
    solve_bb,
)
from railplan.spacetime import build_network, with_light_arcs

from .conftest import make_instance
from .oracles import (
    EnumerationCapError,
    check_feasibility_by_row_walk,
    linprog_node_lp,
    lp_point_rejected,
    milp_optimum,
    solve_enumeration,
)


def _assemble(inst):
    net = build_network(inst)
    specs = reduce_exact(net)
    merged = with_light_arcs(net, specs)
    return merged, build_base_model(merged, specs, inst.costs)


def _hand_model(variables, constraints, objective, offset=0):
    return MilpModel(
        name="hand",
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective=objective,
        offset=offset,
        decomposition={},
        network=None,
    )


def test_round_trip_needs_one_locomotive(round_trip_instance):
    merged, model = _assemble(round_trip_instance)
    bb = solve_bb(model, SolveBudget(max_seconds=60))
    oracle = solve_enumeration(model)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == oracle.objective == round_trip_instance.costs.q  # fleet of one
    wrap_flow = sum(bb.values[f"x:{a.id}"] * a.crossings for a in merged.arcs_in_order() if a.wrap)
    assert wrap_flow == 1
    assert all(bb.values[f"x:{a.id}"] == 0 for a in merged.arcs_in_order() if a.kind == "light")


def test_infeasible_bounds_reported():
    model = _hand_model(
        [VarRef(id="x:a", family="x", subject="a", lower=3, upper=1)],
        [],
        {"x:a": 1},
    )
    sol = solve_bb(model)
    assert sol.status == "infeasible"
    assert sol.values is None


def test_solver_determinism_under_node_budget():
    inst = generate_synthetic(8, 4, 6, 2)
    _net, model = _assemble(inst)
    budget = SolveBudget(max_seconds=600, max_nodes=7)
    a = solve_bb(model, budget)
    b = solve_bb(model, budget)
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.values == b.values
    assert a.node_count == b.node_count
    assert a.bounds == b.bounds


def test_budget_exceeded_carries_valid_bounds():
    inst = generate_synthetic(1, 3, 4, 2)
    _net, model = _assemble(inst)
    full = solve_bb(model, SolveBudget(max_seconds=60))
    assert full.status == "optimal"
    capped = solve_bb(model, SolveBudget(max_seconds=60, max_nodes=2))
    assert capped.status == "budget_exceeded"
    assert capped.bounds[0] <= full.objective
    if capped.values is not None:
        assert capped.objective >= full.objective


@pytest.mark.parametrize(
    "fields", [{"max_seconds": math.nan}, {"max_seconds": 0}, {"max_nodes": 0}, {"rel_gap": math.nan}, {"rel_gap": -1}]
)
def test_budget_fields_must_be_positive(fields):
    with pytest.raises(ValueError, match="budget fields must be positive"):
        SolveBudget(**fields)
    assert SolveBudget(max_seconds=math.inf).max_seconds == math.inf


def test_rel_gap_budget_stops_early():
    inst = generate_synthetic(8, 4, 6, 2)
    _net, model = _assemble(inst)
    sol = solve_bb(model, SolveBudget(max_seconds=60, rel_gap=0.5))
    assert sol.status in ("feasible", "optimal")
    if sol.status == "feasible":
        lo, hi = sol.bounds
        assert (hi - lo) / max(1e-9, abs(hi)) <= 0.5


def test_enumeration_single_leg_prefers_minimum_power():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 500, ("B", "A"): 500},
        [("t1", [("A", "B", 300, 2)], [])],
        f=3,
    )
    _net, model = _assemble(inst)
    sol = solve_enumeration(model)
    assert sol.status == "optimal"
    assert sol.values["x:T:t1:1"] == 2  # extra deadheading would only add cost


def test_enumeration_matches_bb_on_round_trip(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    assert solve_enumeration(model).objective == solve_bb(model).objective


def test_enumeration_cap_error():
    variables = [
        VarRef(id=f"x:{i}", family="x", subject=str(i), lower=0, upper=1) for i in range(30)
    ]
    model = _hand_model(variables, [], {})
    with pytest.raises(EnumerationCapError, match="24"):
        solve_enumeration(model)


def test_enumeration_detects_infeasibility():
    model = _hand_model(
        [VarRef(id="x:a", family="x", subject="a", lower=0, upper=3)],
        [LinearConstraint(terms=(("x:a", 2),), sense="=", rhs=7, tag="odd")],
        {"x:a": 1},
    )
    assert solve_enumeration(model).status == "infeasible"


def test_check_feasibility_clean_optimum(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    assert check_feasibility(model, sol.values) == []


def test_check_feasibility_power_window_tagged(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    values = dict(sol.values)
    values["x:T:t1:1"] = 0  # below the required power b=1
    tags = [v.tag for v in check_feasibility(model, values)]
    assert "cap:T:t1:1" in tags


def test_check_feasibility_flow_imbalance_tagged(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    values = dict(sol.values)
    values["x:G:A:0"] += 1
    tags = [v.tag for v in check_feasibility(model, values)]
    assert any(t.startswith("flow:") for t in tags)


def test_check_feasibility_missing_variable(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    values = dict(sol.values)
    values.pop("x:T:t1:1")
    with pytest.raises(MissingVariableError):
        check_feasibility(model, values)


def test_evaluate_objective_zero_power_all_zero():
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 500, ("B", "A"): 500},
        [("t1", [("A", "B", 300, 0)], [])],
    )
    _net, model = _assemble(inst)
    values = {v.id: 0 for v in model.variables}
    assert check_feasibility(model, values) == []
    total, _ = evaluate_objective(model, values)
    assert total == 0


def test_evaluate_objective_round_trip_decomposition(round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    total, breakdown = evaluate_objective(model, sol.values)
    assert total == sol.objective
    assert breakdown["ownership"] == round_trip_instance.costs.q
    assert breakdown["deadhead"] == 0
    assert breakdown["light_travel"] == 0
    assert breakdown["work_events"] == 0
    assert sum(breakdown.values()) == total


def test_evaluate_objective_prices_single_pickup():
    c1, c2, c3 = 1, 5, 9
    inst = make_instance(
        ["A", "B", "C"],
        {
            ("A", "B"): 400, ("B", "A"): 400,
            ("B", "C"): 300, ("C", "B"): 300,
            ("A", "C"): 500, ("C", "A"): 500,
        },
        [("t", [("A", "B", 100, 1), ("B", "C", 800, 1)], ["pu"])],
        c1=c1, c2=c2, c3=c3,
    )
    _net, model = _assemble(inst)
    sol = solve_bb(model, SolveBudget(max_seconds=60))
    values = dict(sol.values)
    base_rc = evaluate_objective(model, values)[1]["work_events"]
    assert values["ypu:E:t:2"] in (0, 1)
    flipped = dict(values)
    flipped["ypu:E:t:2"] = 1 - values["ypu:E:t:2"]
    flipped_rc = evaluate_objective(model, flipped)[1]["work_events"]
    assert abs(flipped_rc - base_rc) == c1  # aligned pick-up costs c1


def test_solution_file_round_trip(tmp_path, round_trip_instance):
    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    path = tmp_path / "sol.json"
    save_solution(sol, path, model=model)
    loaded = load_solution(path)
    assert loaded.status == sol.status
    assert loaded.objective == sol.objective
    assert loaded.values == sol.values
    assert loaded.bounds == sol.bounds


def test_bb_matches_reference_milp_solver():
    # Third route, independent of both the branch-and-bound and the
    # enumeration oracle: scipy's own MILP solver on the same matrices.
    from railplan.lighttravel import generate_light_arcs

    for seed in (41, 47, 53, 59):
        inst = generate_synthetic(seed, 4, 6, 2)
        net = build_network(inst)
        for method in ("exact", "mcf"):
            specs = generate_light_arcs(net, method=method)
            model = build_base_model(with_light_arcs(net, specs), specs, inst.costs)
            mine = solve_bb(model, SolveBudget(max_seconds=120))
            ref = milp_optimum(model)
            if mine.status == "infeasible":
                assert ref is None
            else:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(ref, abs=1e-6)


def test_enumeration_matches_literal_scan_on_random_models():
    # Oracle for the oracle: a no-pruning scan over the whole box.
    import itertools
    import random

    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 4)
        variables = [
            VarRef(id=f"x:v{i}", family="x", subject=f"v{i}", lower=0, upper=rng.randint(1, 3))
            for i in range(n)
        ]
        constraints = []
        for c in range(rng.randint(1, 3)):
            terms = tuple(
                (v.id, rng.randint(-3, 3)) for v in variables if rng.random() < 0.8
            )
            constraints.append(
                LinearConstraint(
                    terms=terms,
                    sense=rng.choice(["<=", ">=", "="]),
                    rhs=rng.randint(-2, 6),
                    tag=f"c{c}",
                )
            )
        objective = {v.id: rng.randint(-5, 5) for v in variables}
        model = _hand_model(variables, constraints, objective, offset=rng.randint(-3, 3))

        best = None
        for combo in itertools.product(*[range(v.lower, v.upper + 1) for v in variables]):
            values = {v.id: combo[i] for i, v in enumerate(variables)}
            if check_feasibility(model, values):
                continue
            total, _ = evaluate_objective(model, values)
            if best is None or total < best:
                best = total
        sol = solve_enumeration(model)
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal" and sol.objective == best
            bb = solve_bb(model)
            assert bb.objective == best


def test_warm_start_must_be_feasible(round_trip_instance):
    from railplan.model import InfeasibleStartError
    from dataclasses import replace

    _net, model = _assemble(round_trip_instance)
    sol = solve_bb(model)
    bad = dict(sol.values)
    bad["x:T:t1:1"] = 0
    broken = replace(model, start=bad)
    with pytest.raises(InfeasibleStartError):
        solve_bb(broken)


# ---------------------------------------------------------------------------
# The warm-started HiGHS session against the per-node linprog reference


def _reference_solve(monkeypatch, model, budget):
    """solve_bb with every node LP sent through a fresh linprog call: the
    cold reference tree."""
    from railplan.solver import _LpData

    with monkeypatch.context() as mp:
        mp.setattr(_LpData, "solve", linprog_node_lp)
        return solve_bb(model, budget)


def _checked_solve(monkeypatch, model, budget):
    """solve_bb on the warm path, with every node LP also solved by a fresh
    linprog call at the same bounds: both must agree on infeasibility and,
    within 1e-9 relative, on the optimal value."""
    from railplan.solver import _LpData

    warm = _LpData.solve
    compared = [0]

    def solve_and_compare(self, lo, hi, time_limit):
        obj, x = warm(self, lo, hi, time_limit)
        ref, _x = linprog_node_lp(self, lo, hi, time_limit)
        assert (obj is None) == (ref is None), f"node LP {compared[0]}: warm {obj}, linprog {ref}"
        if obj is not None:
            assert abs(obj - ref) <= 1e-9 * max(1.0, abs(ref)), f"node LP {compared[0]}: warm {obj}, linprog {ref}"
        compared[0] += 1
        return obj, x

    with monkeypatch.context() as mp:
        mp.setattr(_LpData, "solve", solve_and_compare)
        sol = solve_bb(model, budget)
    assert compared[0] >= sol.node_count > 0
    return sol


def _assert_warm_search_is_sound(monkeypatch, model, budget):
    """Each node LP of the warm search equals linprog's; the search ends
    with the cold reference tree's status (and its objective where that
    tree proves optimality); its bounds bracket milp's optimum."""
    warm = _checked_solve(monkeypatch, model, budget)
    cold = _reference_solve(monkeypatch, model, budget)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == cold.objective
    optimum = milp_optimum(model)
    if warm.status == "infeasible":
        assert optimum is None
    else:
        lower, upper = warm.bounds
        assert lower - 1e-6 <= optimum <= upper + 1e-6
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(optimum, abs=1e-6)


# Unlimited node caps only on models the search closes in a few hundred
# nodes; most (5,12,3) seeds need thousands.
_IDENTITY_CASES = [
    pytest.param(seed, shape, method, cap, id=f"{seed}-{'x'.join(map(str, shape))}-{method}-{cap or 'all'}")
    for shape, seeds, caps in (
        ((4, 8, 2), (1, 2, 3), (20, None)),
        ((5, 12, 3), (1, 2), (20,)),
        ((5, 12, 3), (3,), (20, None)),
    )
    for seed in seeds
    for method in ("exact", "mcf")
    for cap in caps
]


@pytest.mark.parametrize("seed,shape,method,cap", _IDENTITY_CASES)
def test_session_matches_linprog_reference(monkeypatch, seed, shape, method, cap):
    from railplan.report import assemble

    _net, _specs, model = assemble(generate_synthetic(seed, *shape), lt_method=method)
    budget = SolveBudget(max_seconds=3600, max_nodes=cap or 1_000_000)
    _assert_warm_search_is_sound(monkeypatch, model, budget)


def test_session_matches_linprog_reference_on_warm_ladder_rung(monkeypatch):
    from railplan.instance import attach_synthetic_baseline
    from railplan.model import ExtensionConfig, apply_extension, warm_start_from
    from railplan.report import assemble, default_alpha_grid

    inst = attach_synthetic_baseline(generate_synthetic(3, 4, 8, 2), 3)
    _net, _specs, base = assemble(inst)
    budget = SolveBudget(max_seconds=3600, max_nodes=25)
    v1p = solve_bb(apply_extension(base, ExtensionConfig(version="V1prime")), budget)
    alpha = default_alpha_grid("V3", inst.baseline, 3)[1]
    rung = warm_start_from(apply_extension(base, ExtensionConfig(version="V3", alpha_d=alpha)), v1p)
    assert rung.start is not None
    _assert_warm_search_is_sound(monkeypatch, rung, budget)


# sha256 over _FROZEN_CASES of each solve's status, objective, node count
# and values in key order.  It guards the warm-started search tree: a change
# to the basis a node starts from (a cleared solver, another node order),
# to the row order or to the LP object's options moves a node count or an
# incumbent, and so this digest.  HiGHS's own simplex path is part of that
# tree, so the digest holds for the pinned scipy only.
_FROZEN_DIGEST = "18846cab19081902c90f44fc0b76fd96cd47b1c0ac4a0c512a8b9b21103c0842"
_FROZEN_CASES = [
    (seed, shape, method) for seed in range(1, 7) for shape in ((4, 8, 2), (5, 12, 3)) for method in ("exact", "mcf")
]


def test_solve_bb_outcomes_are_frozen():
    import hashlib

    from railplan.report import assemble

    digest = hashlib.sha256()
    for seed, shape, method in _FROZEN_CASES:
        _net, _specs, model = assemble(generate_synthetic(seed, *shape), lt_method=method)
        sol = solve_bb(model, SolveBudget(max_seconds=3600, max_nodes=20))
        values = None if sol.values is None else list(sol.values.items())
        digest.update(repr((sol.status, sol.objective, sol.node_count, values)).encode())
    assert digest.hexdigest() == _FROZEN_DIGEST


_DROP_BINDING = 'sys.modules["scipy.optimize._highspy._core"] = None'
# The binding without one of the names the solver uses.
_STRIP_BINDING = """
import types
import scipy.optimize._highspy as pkg
real = pkg._core
fake = types.ModuleType(real.__name__)
vars(fake).update({k: v for k, v in vars(real).items() if k != "kHighsInf"})
sys.modules[real.__name__] = pkg._core = fake
"""


@pytest.mark.parametrize(
    "setup,detail",
    [(_DROP_BINDING, ""), (_STRIP_BINDING, "; this scipy's binding lacks kHighsInf")],
    ids=["absent", "incomplete"],
)
def test_import_without_the_highs_binding_names_it(setup, detail):
    import os
    import subprocess
    import sys

    import railplan

    code = f"import sys\n{setup}\ntry:\n    import railplan\nexcept ImportError as exc:\n    print(exc)\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(railplan.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = "railplan needs scipy's private HiGHS binding scipy.optimize._highspy._core (scipy>=1.17)"
    assert proc.stdout.strip() == want + detail


@pytest.mark.parametrize(
    "name,value,q_factor",
    [("q", math.nan, 1.0), ("g_rate", math.inf, 1.0), ("q", 1e308, 10.0)],
    ids=["q=nan", "g_rate=inf", "q-sweep-overflow"],
)
def test_non_finite_objective_is_rejected(name, value, q_factor):
    # A NaN cost once reached HiGHS and hung the first node LP past any
    # budget; the LP must refuse it before any node is solved.
    from dataclasses import replace

    from railplan.report import assemble, scaled_costs
    from railplan.solver import _LpData

    inst = generate_synthetic(1, 3, 4, 2)
    costs = scaled_costs(replace(inst.costs, **{name: value}), "q", q_factor)
    _net, _specs, model = assemble(inst, costs=costs)
    with pytest.raises(ValueError, match="objective coefficients must be finite"):
        _LpData(model)
    with pytest.raises(ValueError, match="objective coefficients must be finite"):
        solve_bb(model, SolveBudget(max_seconds=2))


# ---------------------------------------------------------------------------
# Node LPs that end without an answer


def _fail_lp_at(monkeypatch, k):
    """Make the k-th node LP fail on whichever backend ``_LpData.solve`` is."""
    from railplan.solver import _LpData, _LpFailed

    calls = [0]
    orig = _LpData.solve

    def failing(self, lo, hi, time_limit):
        calls[0] += 1
        if calls[0] == k:
            raise _LpFailed("lp_failed", "forced failure")
        return orig(self, lo, hi, time_limit)

    monkeypatch.setattr(_LpData, "solve", failing)


def test_failed_root_lp_keeps_warm_start_and_unknown_bound(monkeypatch, caplog):
    import logging
    from dataclasses import replace

    inst = generate_synthetic(1, 4, 8, 2)
    _net, model = _assemble(inst)
    full = solve_bb(model, SolveBudget(max_seconds=600))
    assert full.status == "optimal"
    _fail_lp_at(monkeypatch, 1)
    caplog.set_level(logging.DEBUG, logger="railplan.solver")
    sol = solve_bb(replace(model, start=full.values), SolveBudget(max_seconds=600))
    assert "stop=lp_failed nodes=0 " in caplog.text
    assert sol.status == "budget_exceeded"
    assert sol.node_count == 0
    assert sol.values == full.values
    # The failed root stays open, so nothing below its (unknown) bound is proven.
    assert sol.bounds == (-math.inf, full.objective)


@pytest.mark.parametrize("reference", [False, True])
def test_failed_node_lp_keeps_incumbent_and_parent_bound(monkeypatch, reference):
    from railplan.solver import _LpData

    inst = generate_synthetic(1, 4, 8, 2)
    _net, model = _assemble(inst)
    full = solve_bb(model, SolveBudget(max_seconds=600))
    k = 30
    capped = solve_bb(model, SolveBudget(max_seconds=600, max_nodes=k - 1))
    assert capped.status == "budget_exceeded" and capped.values is not None
    if reference:
        monkeypatch.setattr(_LpData, "solve", linprog_node_lp)
    _fail_lp_at(monkeypatch, k)
    sol = solve_bb(model, SolveBudget(max_seconds=600))
    assert sol.status == "budget_exceeded"
    assert sol.node_count == k - 1
    assert sol.values == capped.values
    assert sol.objective == capped.objective
    # Same open nodes as the capped run, less any it would prune, plus the
    # failed node back on the list.
    assert capped.bounds[0] <= sol.bounds[0] <= full.objective <= sol.bounds[1]


@pytest.mark.parametrize("reference", [False, True])
def test_node_lp_time_limit_reports_time(monkeypatch, reference):
    from railplan.solver import _LpData, _LpFailed

    if reference:
        monkeypatch.setattr(_LpData, "solve", linprog_node_lp)
    _net, model = _assemble(generate_synthetic(3, 5, 12, 3))
    lp = _LpData(model)
    with pytest.raises(_LpFailed) as exc:
        lp.solve(lp.lo, lp.hi, 0.0)
    assert exc.value.reason == "time"
    obj, x = lp.solve(lp.lo, lp.hi, 60.0)
    assert obj is not None and x.shape == (lp.n,)


def test_point_check_agrees_with_separate_nan_and_tolerance_tests():
    """``_within_tol`` accepts exactly the points the seven separate tests
    accepted, on bounds with infinite entries and on points, slacks and
    objectives salted with NaN, +-inf and values on or just past the
    tolerance.  Bounds are never NaN: they come from the model and from
    branching."""
    import numpy as np

    from railplan.solver import _CHECK_TOL, _within_tol

    tol = _CHECK_TOL
    inf = np.inf
    rng = np.random.default_rng(19)
    verdicts = set()
    for _ in range(4000):
        n, rows = rng.integers(1, 5), rng.integers(0, 5)
        n_ub = int(rng.integers(0, rows + 1))
        lo = rng.choice([-inf, -3.0, 0.0, 2.0], size=n)
        hi = np.maximum(lo, 0.0) + rng.choice([0.0, 1.0, 5.0, inf], size=n)
        x = np.where(rng.random(n) < 0.5, lo, hi)
        x = np.where(np.isfinite(x), x, rng.uniform(-3, 7, size=n))
        # One ulp outside a bound's tolerance, or on its edge.
        edges = (np.nextafter(lo - tol, -inf), lo - tol, np.nextafter(hi + tol, inf), hi + tol)
        salt = rng.integers(0, 14, size=n)
        for k, edge in enumerate(edges):
            x[salt == k] = edge[salt == k]
        x[salt == len(edges)] = rng.choice([np.nan, inf, -inf])
        slack = rng.choice(
            [0.0, 1.0, tol, -tol, np.nextafter(tol, inf), np.nextafter(-tol, -inf), np.nan, inf, -inf],
            p=[0.5, 0.1, 0.06, 0.06, 0.06, 0.06, 0.06, 0.05, 0.05],
            size=rows,
        )
        fun = rng.choice([1.5, -2.0, np.nan, inf, -inf], p=[0.5, 0.3, 0.1, 0.05, 0.05])
        ok = _within_tol(x, fun, slack, lo, hi, n_ub)
        assert ok is (not lp_point_rejected(x, fun, slack, lo, hi, n_ub, tol)), (x, fun, slack, lo, hi, n_ub)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_node_lp_time_limit_is_per_solve():
    # HiGHS's run clock adds up over every run() of one object; the limit
    # must still mean "this node's remaining budget", not a total.
    from time import perf_counter

    from railplan.solver import _LpData

    _net, model = _assemble(generate_synthetic(3, 5, 12, 3))
    lp = _LpData(model)
    t0 = perf_counter()
    while perf_counter() - t0 < 0.5:
        obj, _x = lp.solve(lp.lo, lp.hi, 0.25)
        assert obj is not None


def _outcome(sol):
    values = None if sol.values is None else list(sol.values.items())
    return sol.status, sol.objective, sol.bounds, sol.node_count, values


class _FaultyRun:
    """A HiGHS object whose run number ``at`` ends without a verdict
    (``fault="status"``), with a point outside the acceptance tolerance
    (``fault="point"``) or with a NaN in its point (``fault="nan"``); it
    records the run count at each clearSolver()."""

    def __init__(self, highs, fault, at):
        self._highs, self._fault, self._at = highs, fault, at
        self.runs = 0
        self.cleared_after = []

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self.runs += 1
        return self._highs.run()

    def clearSolver(self):
        self.cleared_after.append(self.runs)
        return self._highs.clearSolver()

    def getModelStatus(self):
        from railplan.solver import _HIGHS

        if self._fault == "status" and self.runs == self._at:
            return _HIGHS.HighsModelStatus.kSolveError
        return self._highs.getModelStatus()

    def getSolution(self):
        from types import SimpleNamespace

        import numpy as np

        sol = self._highs.getSolution()
        if self._fault == "point" and self.runs == self._at:
            # Below every column's lower bound, all of which are >= 0.
            return SimpleNamespace(col_value=np.full(len(sol.col_value), -1.0), row_value=sol.row_value)
        if self._fault == "nan" and self.runs == self._at:
            # The optimal point, except for one NaN entry.
            col_value = np.array(sol.col_value)
            col_value[len(col_value) // 2] = np.nan
            return SimpleNamespace(col_value=col_value, row_value=sol.row_value)
        return sol


@pytest.mark.parametrize("fault", ["status", "point", "nan"])
@pytest.mark.parametrize("at", [1, 6])
def test_failed_warm_run_is_retried_cold(monkeypatch, caplog, fault, at):
    import logging

    from railplan.solver import _LpData

    inst = generate_synthetic(1, 4, 8, 2)
    _net, model = _assemble(inst)
    budget = SolveBudget(max_seconds=600)
    # A copy of its own, so that the faulty solve below builds its LP
    # instead of repricing the one this solve left on the thread.
    plain = solve_bb(_assemble(inst)[1], budget)
    assert plain.status == "optimal"

    wrapped = []
    init = _LpData.__init__

    def init_with_fault(self, m):
        init(self, m)
        self._highs = _FaultyRun(self._highs, fault, at)
        wrapped.append(self)

    monkeypatch.setattr(_LpData, "__init__", init_with_fault)
    caplog.set_level(logging.DEBUG, logger="railplan.solver")
    sol = solve_bb(model, budget)
    (lp,) = wrapped
    # The faulty run's node was solved again from a cleared solver, and the
    # search went on to the end.
    assert lp._highs.cleared_after == [at]
    assert lp.cold_retries == 1
    assert lp.runs == lp._highs.runs
    assert "cold_retries=1 " in caplog.text and "stop=proven" in caplog.text
    assert sol.status == plain.status
    assert sol.objective == plain.objective
    if at == 1:
        # The root runs on a fresh object, so its retry leaves the tree as it was.
        assert _outcome(sol) == _outcome(plain)


def test_max_seconds_holds_inside_node_lps(caplog):
    import logging

    _net, model = _assemble(generate_synthetic(6, 10, 80, 4))
    caplog.set_level(logging.DEBUG, logger="railplan.solver")
    sol = solve_bb(model, SolveBudget(max_seconds=0.3))
    assert sol.status == "budget_exceeded"
    assert "stop=time" in caplog.text
    lo, hi = sol.bounds
    assert lo <= hi
    if sol.values is not None:
        assert not check_feasibility(model, sol.values)
        assert hi == sol.objective
    assert sol.wall_time < 5.0


def test_solve_bb_logs_stop_reason(caplog):
    import logging

    _net, model = _assemble(generate_synthetic(1, 3, 4, 2))
    caplog.set_level(logging.DEBUG, logger="railplan.solver")
    solve_bb(model, SolveBudget(max_seconds=60))
    solve_bb(model, SolveBudget(max_seconds=60, max_nodes=2))
    stops = [r.getMessage() for r in caplog.records if r.name == "railplan.solver" and "stop=" in r.getMessage()]
    assert len(stops) == 2
    assert "stop=proven" in stops[0]
    assert "stop=nodes nodes=2 " in stops[1]
    assert all("wall=" in s for s in stops)


def _loop_repair(m, x):
    """The per-variable completion _Repair used before it was vectorised,
    checked by the oracle's row walk."""
    from railplan.solver import INT_TOL

    from .oracles import infer_gate_values

    values = {}
    for i, var in enumerate(m.variables):
        if var.family != "x":
            continue
        v = x[i]
        if abs(v - round(v)) > INT_TOL:
            return None
        values[var.id] = int(round(v))
    rho = m.network.instance.costs.rho_u
    for var in m.variables:
        if var.family in ("yso", "ypu"):
            values[var.id] = int(values.get(f"x:{var.subject}", 0) > 0)
        elif var.family == "u":
            values[var.id] = math.ceil(values.get(f"x:{var.subject}", 0) / rho)
    values.update(infer_gate_values(m, values))
    if len(values) != len(m.variables) or check_feasibility_by_row_walk(m, values):
        return None
    return values


def _repair_points(model, values, seed):
    """LP-like points around ``values``: jittered within and past the
    integrality tolerance, then single flows shifted by a half or a whole."""
    import numpy as np

    base = np.array([values[v.id] for v in model.variables], dtype=float)
    cols = np.array([i for i, v in enumerate(model.variables) if v.family == "x"])
    rng = np.random.default_rng(seed)
    points = [base + rng.uniform(-s, s, base.size) for s in (0.0, 4e-7, 9e-7, 2e-6, 0.3) for _ in range(4)]
    for k in rng.choice(cols, 6):
        for shift in (0.5, 1.0, -1.0):
            x = base.copy()
            x[k] += shift
            points.append(x)
    return points


def _repaired(model, points):
    """Each point completed by ``_Repair`` and judged by ``_accept``, the
    path every candidate takes inside ``solve_bb``."""
    import numpy as np

    from railplan.solver import _accept, _Repair

    repair = _Repair(model)
    for x in points:
        point = repair(x)
        if point is not None:
            assert point.dtype == np.int64 and point.shape == (len(model.variables),)
        yield _accept(model, point)


def _assert_repair_matches_loop(model, points):
    outcomes = []
    for x, got in zip(points, _repaired(model, points)):
        want = _loop_repair(model, x)
        assert got == want
        if got is not None:
            assert list(got) == list(want)
        outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


def test_vectorised_repair_rounding_matches_per_variable_loop():
    _net, model = _assemble(generate_synthetic(1, 4, 8, 2))
    opt = solve_bb(model, SolveBudget(max_seconds=60))
    points = _repair_points(model, opt.values, 5)
    assert len(points) == 38
    _assert_repair_matches_loop(model, points)


@pytest.mark.parametrize("version", ["V2", "V3", "V4", "V5"])
def test_repair_gate_completion_matches_per_variable_loop(version):
    from dataclasses import replace

    from railplan.instance import attach_synthetic_baseline
    from railplan.model import BUDGET_FIELD, ExtensionConfig, apply_extension
    from railplan.report import assemble, default_alpha_grid

    inst = attach_synthetic_baseline(generate_synthetic(1, 4, 8, 2), 1)
    _net, _specs, base = assemble(inst)
    alpha = default_alpha_grid(version, inst.baseline, 3)[-1]
    model = apply_extension(base, ExtensionConfig(version=version, theta=6, **{BUDGET_FIELD[version]: alpha}))
    # The optimum schedules no work events, so every gate would stay 0.  A
    # feasible point of the same rows that rewards set-out and pick-up flow
    # opens some gates.
    rewarded = dict(model.objective)
    for var in model.variables:
        if var.family in ("yso", "ypu"):
            rewarded[f"x:{var.subject}"] = rewarded.get(f"x:{var.subject}", 0) - 20000
    sol = solve_bb(replace(model, objective=rewarded), SolveBudget(max_seconds=60, max_nodes=200))
    assert sol.values is not None
    points = _repair_points(model, sol.values, 7)
    _assert_repair_matches_loop(model, points)
    gates = [v.id for v in model.variables if v.family in ("z1", "z2", "w1", "w2")]
    passed = [got for got in _repaired(model, points) if got is not None]
    assert any(got[g] == 1 for got in passed for g in gates)


def test_repair_reads_no_variable_objects():
    """The repair sorts columns by the family in their ids, so a session on
    a freshly built model leaves its lazy ``VarRef``s unmade, and each
    column lands where a walk over those ``VarRef``s puts it."""
    from railplan.solver import _Repair

    _net, model = _assemble(generate_synthetic(1, 4, 8, 2))
    repair = _Repair(model)
    assert repair.usable and model.variables._items is None
    column = model.matrix().column
    families = [v.family for v in model.variables]
    assert repair.flow_cols.tolist() == [j for j, f in enumerate(families) if f == "x"]
    assert repair.y_cols.tolist() == [j for j, f in enumerate(families) if f in ("yso", "ypu")]
    assert repair.u_cols.tolist() == [j for j, f in enumerate(families) if f == "u"]
    sources = [column[f"x:{model.variables[j].subject}"] for j in (*repair.y_cols, *repair.u_cols)]
    assert [*repair.y_src.tolist(), *repair.u_src.tolist()] == sources
