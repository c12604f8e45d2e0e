"""LP sessions and the float screen of ``solve_bb``.

A thread keeps one HiGHS LP per compiled matrix structure and loads into it
the costs and right-hand sides of every model that shares the structure (a
sweep cell, a warm start, a ladder rung); a candidate that surely cannot
beat the incumbent skips the exact checks.  Neither may change any search
outcome.
"""

import threading
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from railplan import solver
from railplan.instance import attach_synthetic_baseline, generate_synthetic
from railplan.model import (
    ExtensionConfig,
    LinearConstraint,
    MilpModel,
    ModelMatrix,
    VarRef,
    apply_extension,
    with_budget,
)
from railplan.report import (
    SweepConfig,
    _cell_model,
    assemble,
    default_factors,
    run_extension_ladder,
    run_sweep,
    scaled_costs,
)
from railplan.solver import (
    FEAS_TOL,
    SolveBudget,
    _branch_column,
    _cannot_improve,
    _exact_verdict,
    _LpData,
    _objective_value,
    _verdict_rows,
    solve_bb,
)

from .oracles import solve_enumeration
from .test_solver import _outcome


def _count_new_lps(monkeypatch):
    built = []
    init = _LpData.__init__

    def counting_init(self, m):
        init(self, m)
        built.append(self)

    monkeypatch.setattr(_LpData, "__init__", counting_init)
    return built


@pytest.mark.parametrize("lt_method", ["exact", "mcf"])
def test_repriced_session_matches_fresh_lp(monkeypatch, lt_method):
    """The 19 q cells solved one after another on this thread's session give
    the outcomes each gives on an LP of its own."""
    inst = generate_synthetic(1, 5, 12, 3)
    _net, _specs, base = assemble(inst, lt_method=lt_method)
    cells = [_cell_model(base, scaled_costs(inst.costs, "q", factor)) for factor in default_factors()]
    budget = SolveBudget(max_seconds=3600, max_nodes=20)
    built = _count_new_lps(monkeypatch)

    reused = []
    for cell in cells:
        reused.append(_outcome(solve_bb(cell, budget)))
        (lp,) = built  # the first cell's LP, repriced for every later cell
        assert base.matrix().sessions.lp is lp
        assert lp.c.tobytes() == _LpData(cell).c.tobytes()  # costs kept current
        built[1:] = []

    fresh = []
    for cell in cells:
        own = replace(cell)  # same model, a matrix (and so a session) of its own
        assert own.matrix() is not base.matrix()
        fresh.append(_outcome(solve_bb(own, budget)))
    assert len(built) == 1 + len(cells)
    assert reused == fresh
    assert any(status == "budget_exceeded" for status, *_ in fresh)


def test_reprice_leaves_the_lp_a_new_one_would_load():
    inst = generate_synthetic(1, 4, 8, 2)
    _net, _specs, base = assemble(inst)
    lp = _LpData(base)
    lp.solve(lp.lo, lp.hi - (lp.hi > lp.lo), 60.0)  # leaves other bounds and a basis
    cell = _cell_model(base, scaled_costs(inst.costs, "g", 0.3))
    lp.load(cell)
    new = _LpData(cell)
    for field in ("col_cost_", "col_lower_", "col_upper_"):
        got, want = (np.asarray(getattr(x._highs.getLp(), field)) for x in (lp, new))
        assert got.tobytes() == want.tobytes(), field
    assert lp.c.tobytes() == new.c.tobytes()
    assert (lp.runs, lp.cold_retries) == (0, 0)
    assert lp._highs.getModelStatus() == new._highs.getModelStatus()  # nothing solved


def _lp_arrays(lp):
    got = lp._highs.getLp()
    return {f: np.asarray(getattr(got, f)).tobytes() for f in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_")}


def test_ladder_chain_compiles_one_matrix_and_loads_one_lp(monkeypatch):
    """A V2-V5 ladder builds one matrix for its base model and one for V1'
    and for each version chain, and one LP for V1' and for each chain; the
    later rungs load only their right-hand sides."""
    matrices, extended = [], []
    init, extend = ModelMatrix.__init__, MilpModel.extended

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        matrices.append(self)

    def counting_extended(self, new_vars, new_constraints, extension, **kwargs):
        extended.append(extension.version)
        return extend(self, new_vars, new_constraints, extension, **kwargs)

    monkeypatch.setattr(ModelMatrix, "__init__", counting_init)
    monkeypatch.setattr(MilpModel, "extended", counting_extended)
    built = _count_new_lps(monkeypatch)
    inst = attach_synthetic_baseline(generate_synthetic(1, 5, 12, 3), 1)
    versions = ["V2", "V3", "V4", "V5"]
    rows = run_extension_ladder(inst, versions, steps=3, budget=SolveBudget(max_nodes=25))
    assert len(rows) == 13
    assert sorted(extended) == ["V1prime", *versions]
    assert len(matrices) == 1 + len(extended)
    assert len(built) == 5


def test_rung_session_judges_by_its_own_rhs():
    """Two rungs of one chain share a session; each is judged, and its LP
    loaded, with its own right-hand sides."""
    inst = attach_synthetic_baseline(generate_synthetic(1, 5, 12, 3), 1)
    _net, _specs, base = assemble(inst)
    at5 = apply_extension(base, ExtensionConfig(version="V3", alpha_d=5))
    sol = solve_bb(at5, SolveBudget(max_nodes=50))
    at0 = with_budget(at5, 0)
    mx5, mx0 = at5.matrix(), at0.matrix()
    assert mx0.sessions is mx5.sessions

    # A point feasible at alpha 5 that opens at least one terminal-day.
    values = dict(sol.values)
    gates = [v.id for v in at5.variables if v.family == "z2"]
    if not any(values[g] for g in gates):
        values[gates[0]] = 1
    point = np.array([values[i] for i in mx5.ids], dtype=np.int64)
    assert _exact_verdict(mx5, point) is True
    assert _exact_verdict(mx0, point) is False
    for mx in (mx0, mx5, mx0):
        neg_tol = _verdict_rows(mx)[2]
        assert neg_tol.tobytes() == (-FEAS_TOL * np.maximum(1.0, np.abs(mx.rhs.astype(float)))).tobytes()

    # The session LP, built for alpha 5 and left with node bounds and a
    # basis, loads alpha 0 as a new LP would hold it.
    lp = mx5.sessions.lp
    lp.solve(lp.lo, lp.hi - (lp.hi > lp.lo), 60.0)
    lp.load(at0)
    fresh = _LpData(apply_extension(base, ExtensionConfig(version="V3", alpha_d=0)))
    assert _lp_arrays(lp) == _lp_arrays(fresh)
    assert lp.rhs.tobytes() == fresh.rhs.tobytes()  # read by tests/oracles.linprog_node_lp
    assert lp._highs.getModelStatus() == fresh._highs.getModelStatus()


class _RecordingHighs:
    """Forwards to a HiGHS object and records the columns of each bound change."""

    def __init__(self, highs):
        self._inner = highs
        self.bound_changes = []

    def changeColsBounds(self, n, cols, lo, hi):
        self.bound_changes.append(np.asarray(cols).tolist())
        return self._inner.changeColsBounds(n, cols, lo, hi)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_node_passes_only_changed_bounds():
    inst = generate_synthetic(1, 4, 8, 2)
    _net, _specs, base = assemble(inst)
    lp = _LpData(base)
    lp._highs = recording = _RecordingHighs(lp._highs)
    lo, hi = lp.lo.copy(), lp.hi.copy()
    lp.solve(lo, hi, 60.0)
    j = int(np.flatnonzero(lp.hi > lp.lo)[0])
    hi[j] = lp.lo[j]
    lp.solve(lo, hi, 60.0)
    lp.solve(lo, hi, 60.0)
    hi[j] = lp.hi[j]
    lp.solve(lo, hi, 60.0)
    assert recording.bound_changes == [[j], [j]]
    lp.load(base)  # back to the model bounds, every column passed
    assert recording.bound_changes[-1] == list(range(lp.n))
    held = recording._inner.getLp()
    assert np.asarray(held.col_upper_).tobytes() == lp.hi.tobytes()


def test_branch_column_matches_the_python_pick():
    ids = ["x:b", "x:a", "x:d", "x:c", "x:a", "x:e"]
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    rng = np.random.default_rng(7)
    for _ in range(300):
        # Fractions on a coarse grid, so distances to one half tie often.
        frac = rng.choice([0.0, 0.25, 0.5, 0.75, 0.1, 0.9, 0.3], size=len(ids))
        fractional = np.where(frac > 1e-6)[0]
        if fractional.size == 0:
            continue
        want = int(min(fractional, key=lambda i: (abs(frac[i] - 0.5), ids[i])))
        assert _branch_column(frac, fractional, rank) == want


def test_sessions_are_per_thread(monkeypatch):
    """Each LP runs on one thread only, and a thread's session serves every
    cell it takes."""
    used = {}
    solve = _LpData.solve

    def recording_solve(self, lo, hi, time_limit):
        used.setdefault(id(self), (self, set()))[1].add(threading.get_ident())
        return solve(self, lo, hi, time_limit)

    monkeypatch.setattr(_LpData, "solve", recording_solve)
    monkeypatch.setattr("railplan.report.os.cpu_count", lambda: 3)
    cfg = SweepConfig(parameter="c", factors=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0), budget=SolveBudget(max_nodes=20))
    run_sweep(generate_synthetic(1, 4, 8, 2), cfg)
    threads = [ident for _lp, idents in used.values() for ident in idents]
    assert all(len(idents) == 1 for _lp, idents in used.values())
    assert len(threads) == len(set(threads)) <= 3


def test_two_threads_never_share_a_session():
    inst = generate_synthetic(1, 4, 8, 2)
    _net, _specs, base = assemble(inst)
    mx = base.matrix()
    barrier = threading.Barrier(2)
    got = {}

    def solve_cell(factor):
        solve_bb(_cell_model(base, scaled_costs(inst.costs, "q", factor)), SolveBudget(max_nodes=10))
        barrier.wait(timeout=60)  # both threads alive and holding their sessions
        got[factor] = mx.sessions.lp

    threads = [threading.Thread(target=solve_cell, args=(factor,)) for factor in (0.5, 2.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got[0.5] is not got[2.0]
    assert getattr(mx.sessions, "lp", None) is None  # this thread solved nothing


# ---------------------------------------------------------------------------
# The float screen against _objective_value


_INT_COST = st.one_of(st.integers(-1000, 1000), st.integers(-(2**62), 2**62))
_FLOAT_COST = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e15, 1e15, allow_nan=False),
    # Sweep rates: a cost times a factor on the 0.1 grid.
    st.tuples(st.integers(1, 20000), st.integers(1, 100)).map(lambda p: p[0] * round(0.1 * p[1], 1)),
)
_VALUE = st.one_of(st.integers(-20, 20), st.integers(-(2**40), 2**40), st.integers(-(2**62), 2**62))


def _model(coefs, offset):
    variables = tuple(VarRef(id=f"v{j}", family="x", subject=f"v{j}", lower=0, upper=1) for j in range(len(coefs)))
    objective = {f"v{j}": c for j, c in coefs if c != 0}
    return MilpModel("screen", variables, (), objective, offset, {}, network=None)


@settings(
    max_examples=600,
    deadline=timedelta(seconds=2),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_screen_never_rejects_an_improvement(data):
    """Whenever the screen says a point cannot improve on the incumbent, the
    exact objective ``solve_bb`` would compare is above the incumbent."""
    n = data.draw(st.integers(1, 40), label="n")
    cost = st.one_of(_INT_COST, _FLOAT_COST, st.just(0))
    coefs = list(enumerate(data.draw(st.lists(cost, min_size=n, max_size=n), label="costs")))
    coefs = data.draw(st.permutations(coefs), label="objective order")
    offset = data.draw(st.one_of(_INT_COST, _FLOAT_COST), label="offset")
    m = _model(coefs, offset)
    point = np.array(data.draw(st.lists(_VALUE, min_size=n, max_size=n), label="point"), dtype=np.int64)
    exact = _objective_value(m, dict(zip(m.matrix().ids, point.tolist())))
    lp = _LpData(m)

    # Incumbents within a few ulps of the exact sum, and around the screen's
    # own threshold, where a margin too thin would show.
    steps = data.draw(st.integers(-8, 8), label="ulps")
    incumbent = float(exact)
    for _ in range(abs(steps)):
        incumbent = float(np.nextafter(incumbent, np.inf if steps > 0 else -np.inf))
    if data.draw(st.booleans(), label="at the threshold"):
        scale = float(np.abs(lp.c) @ np.abs(point)) + abs(float(offset))
        incumbent = float(lp.c @ point) + float(offset) - 4 * (n + 4) * 2.0**-53 * scale
        for _ in range(abs(steps)):
            incumbent = float(np.nextafter(incumbent, np.inf if steps > 0 else -np.inf))
    if isinstance(exact, int) and data.draw(st.booleans(), label="int incumbent"):
        incumbent = exact + data.draw(st.integers(-3, 3), label="int offset")
    if _cannot_improve(lp, point, offset, incumbent):
        assert exact > incumbent


def test_screened_integral_point_that_fails_still_splits(monkeypatch):
    """The root LP point is within INT_TOL of (1, 0, 1), which breaks the row
    and is worth more than the start; the optimum (1, 1, 1) lies below the
    root, so the root must split, not close."""
    variables = tuple(VarRef(id=v, family="x", subject=v, lower=0, upper=1) for v in ("x", "y", "w"))
    row = LinearConstraint((("x", 2_000_000), ("y", -1)), "=", 1_999_999, "near")
    objective = {"x": 1000, "y": -2.5e-4, "w": -1e-4}
    model = MilpModel("near", variables, (row,), objective, -1000, {}, start={"x": 1, "y": 1, "w": 0})
    screen = solver._cannot_improve
    screened = []
    monkeypatch.setattr(solver, "_cannot_improve", lambda *args: screened.append(screen(*args)) or screened[-1])
    sol = solve_bb(model)
    assert screened == [True, False]
    assert sol.status == "optimal" and sol.values == {"x": 1, "y": 1, "w": 1}
    assert sol.objective == pytest.approx(solve_enumeration(model).objective, abs=1e-12)
    monkeypatch.setattr(solver, "_cannot_improve", lambda *args: False)
    assert _outcome(solve_bb(model)) == _outcome(sol)


def test_screen_rejects_clearly_worse_points():
    m = _model([(0, 0.1), (1, 3), (2, 2.5)], 7)
    lp = _LpData(m)
    point = np.array([10, 2, 4], dtype=np.int64)
    exact = _objective_value(m, dict(zip(m.matrix().ids, point.tolist())))
    assert exact == 1.0 + 6 + 10.0 + 7
    assert _cannot_improve(lp, point, m.offset, exact - 1e-6)
    assert not _cannot_improve(lp, point, m.offset, exact)
    assert not _cannot_improve(lp, point, m.offset, exact + 1)
