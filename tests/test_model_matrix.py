"""The compiled model matrix against walks over the constraint objects.

Every model matrix is int64.  ``check_feasibility`` decides integer points
with one int64 matrix product and walks the rows only to name violations; the LP
relaxation is built from the same matrix.  Both must give exactly what the
row walks in ``tests/oracles.py`` give.  A built model's matrix comes
straight from the network's arcs; it must equal the walk over the rows
built one constraint object at a time, and the rows read back from it must
equal those rows.
"""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from railplan.instance import attach_synthetic_baseline, generate_synthetic
from railplan.lighttravel import generate_light_arcs
from railplan.model import (
    BUDGET_FIELD,
    EXACT_INT_LIMIT,
    VERSIONS,
    ConfigError,
    ExtensionConfig,
    LinearConstraint,
    MilpModel,
    VarRef,
    apply_extension,
    build_base_model,
    with_budget,
)
from railplan.mps import export_mps
from railplan.report import assemble, default_alpha_grid
from railplan.solver import SolveBudget, _exact_verdict, _LpData, check_feasibility, solve_bb
from railplan.spacetime import build_network, with_light_arcs

from .oracles import (
    check_feasibility_by_row_walk,
    compile_by_row_walk,
    list_built_lp,
    rows_by_constraint_objects,
    solve_enumeration,
)


def _extension_configs(baseline):
    grid = lambda version: default_alpha_grid(version, baseline, 3)[1]
    return [
        None,
        ExtensionConfig(version="V1", lambda_=1),
        ExtensionConfig(version="V1prime"),
        ExtensionConfig(version="V1prime", theta=float("inf")),
        ExtensionConfig(version="V2", alpha_c=1),
        ExtensionConfig(version="V3", alpha_d=grid("V3")),
        ExtensionConfig(version="V3", alpha_d=grid("V3"), theta=4.5),  # rows capped at 4
        ExtensionConfig(version="V4", alpha_e=grid("V4")),
        ExtensionConfig(version="V5", alpha_f=grid("V5")),
    ]


def _hand_model(constraints, variables=None):
    variables = variables or (
        VarRef(id="a", family="x", subject="a", lower=0, upper=4),
        VarRef(id="b", family="x", subject="b", lower=-2, upper=3),
        VarRef(id="c", family="u", subject="c", lower=0, upper=1, binary=True),
    )
    return MilpModel(
        name="hand",
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective={"a": 1, "c": 2.5},
        offset=0,
        decomposition={},
        network=None,
    )


def _hand_models():
    """(model, point) pairs built by hand: >= rows, an empty row, and rows
    whose right-hand sides are large enough that the checker's relative
    tolerance forgives a slack of -1."""
    point = {"a": 1, "b": 0, "c": 1}
    wide = (
        VarRef(id="a", family="x", subject="a", lower=0, upper=10**9),
        VarRef(id="b", family="x", subject="b", lower=-(10**8), upper=10**8),
        VarRef(id="c", family="u", subject="c", lower=0, upper=1, binary=True),
    )
    return [
        (_hand_model([]), point),
        (
            _hand_model([
                LinearConstraint((("a", 1), ("b", 2)), ">=", 0, "ge0"),
                LinearConstraint((("a", 1), ("c", -3)), "<=", 1, "le"),
                LinearConstraint((("b", 1), ("c", 1)), "=", 1, "eq"),
                LinearConstraint((("a", 2), ("b", -1)), ">=", -3, "ge"),
            ]),
            point,
        ),
        (
            _hand_model([
                LinearConstraint((("a", 1), ("b", 2)), ">=", 3, "ge3"),
                LinearConstraint((("a", 1),), "<=", 3, "le"),
                LinearConstraint((("b", 1), ("c", 2)), ">=", 0, "int_ge0"),  # b_ub gets 0.0, not -0.0
            ]),
            point,
        ),
        (_hand_model([LinearConstraint((), "<=", 0, "empty")]), point),
        (
            _hand_model(
                [
                    LinearConstraint((("a", 1), ("b", 1)), "<=", 20_000_000, "big_le"),
                    LinearConstraint((("a", 1),), "=", 30_000_000, "big_eq"),
                    LinearConstraint((("a", -1), ("b", -1)), ">=", -20_000_000, "big_ge"),
                ],
                variables=wide,
            ),
            {"a": 30_000_001, "b": -10_000_000, "c": 0},  # every slack -1, forgiven
        ),
        (
            # Bounds at the exact-integer limit: 4096 * a can pass int64.
            _hand_model(
                [LinearConstraint((("a", 4096), ("b", 1)), "<=", 2**40, "steep")],
                variables=(
                    VarRef(id="a", family="x", subject="a", lower=0, upper=EXACT_INT_LIMIT),
                    VarRef(id="b", family="x", subject="b", lower=-EXACT_INT_LIMIT, upper=EXACT_INT_LIMIT),
                    VarRef(id="c", family="u", subject="c", lower=0, upper=1, binary=True),
                ),
            ),
            {"a": 1, "b": 0, "c": 0},
        ),
    ]


def _solve_point(model):
    sol = solve_bb(model, SolveBudget(max_seconds=60, max_nodes=200))
    return sol.values


@pytest.fixture(scope="module")
def models():
    """(model, a point of it) pairs: seeded V0-V5 models with the solver's
    incumbent (feasible) or else the base optimum completed with zero gates."""
    out = []
    for seed, shape, method in ((1, (4, 8, 2), "exact"), (2, (5, 12, 3), "mcf")):
        inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
        _net, _specs, base = assemble(inst, lt_method=method)
        base_point = _solve_point(base)
        for cfg in _extension_configs(inst.baseline):
            model = base if cfg is None else apply_extension(base, cfg)
            point = _solve_point(model)
            if point is None:
                point = {v.id: base_point.get(v.id, 0) for v in model.variables}
            out.append((model, point))
    return out + _hand_models()


def _outcome(check, model, values):
    """The violation list with every field's type, or the exception raised."""
    try:
        return [(type(v.tag), v.tag, type(v.slack), v.slack, v.message) for v in check(model, values)]
    except Exception as exc:  # noqa: BLE001 - the same exception is the expected outcome
        return (type(exc), exc.args)


def _assert_same_as_row_walk(model, values):
    want = _outcome(check_feasibility_by_row_walk, model, values)
    assert _outcome(check_feasibility, model, values) == want
    # The int64 verdict alone must agree too: the repair trusts a False.
    mx = model.matrix()
    if all(type(values.get(i)) is int and -(2**63) <= values[i] < 2**63 for i in mx.ids):
        verdict = _exact_verdict(mx, np.array([values[i] for i in mx.ids], dtype=np.int64))
        assert verdict is None or verdict == (want == [])


def test_matrices_are_int64_and_fast_verdict(models):
    decided = 0
    for model, point in models:
        mx = model.matrix()
        assert {a.dtype for a in (mx.A.data, mx.rhs, mx.lower, mx.upper)} == {np.dtype(np.int64)}, model.name
        if not check_feasibility_by_row_walk(model, point):
            v = np.array([point[i] for i in mx.ids], dtype=np.int64)
            assert _exact_verdict(mx, v) is True  # decided without a walk
            decided += 1
    assert decided >= 10


def test_hand_built_numbers_must_be_exact_integers():
    """A matrix holds integers within EXACT_INT_LIMIT: a fractional or too
    large coefficient, right-hand side or bound raises ``ConfigError``
    naming its row or variable, in a compile and in ``MilpModel.extended``
    alike.  An integral float is taken as its integer, and the objective
    stays free to be a float."""
    bad_rows = (
        LinearConstraint((("a", 0.5), ("b", 1)), ">=", 1, "half"),
        LinearConstraint((("a", 1),), "<=", 1.5, "frac_rhs"),
        LinearConstraint((("a", 2**60),), "<=", 0, "huge"),
    )
    for row in bad_rows:
        with pytest.raises(ConfigError, match=f"^row {row.tag}: "):
            _hand_model([row]).matrix()
        with pytest.raises(ConfigError, match=f"^row {row.tag}: "):
            _hand_model([]).extended([], [row], ExtensionConfig())
    fractional = VarRef(id="d", family="x", subject="d", lower=0, upper=2.5)
    with pytest.raises(ConfigError, match="^variable d: upper bound 2.5 "):
        _hand_model([], variables=_hand_model([]).variables + (fractional,)).matrix()
    with pytest.raises(ConfigError, match="^variable d: upper bound 2.5 "):
        _hand_model([]).extended([fractional], [], ExtensionConfig())

    model = _hand_model([
        LinearConstraint((("a", 1.0), ("b", 1)), "<=", 4.0, "whole"),
        LinearConstraint((("c", 1),), ">=", 1, "open"),
    ])
    mx = model.matrix()
    assert (mx.A.data.tolist(), mx.rhs.tolist(), mx.rhs.dtype) == ([1, 1, 1], [4, 1], np.int64)
    sol = solve_bb(model, SolveBudget(max_seconds=60))
    assert sol.status == "optimal" and sol.objective == solve_enumeration(model).objective == 2.5


def test_base_model_numbers_must_be_exact_integers():
    """``build_base_model`` checks the numbers it puts in the matrix
    besides 0 and 1: a fractional f raises ``ConfigError``, and an integral
    float f builds the matrix its integer does."""
    from dataclasses import replace

    inst = generate_synthetic(1, 3, 4, 2)
    net = build_network(inst)
    specs = generate_light_arcs(net)
    with pytest.raises(ConfigError, match=r"^costs\.f: value 2\.5 "):
        build_base_model(net, specs, replace(inst.costs, f=2.5))
    want = build_base_model(net, specs, inst.costs).matrix()
    as_float = build_base_model(net, specs, replace(inst.costs, f=float(inst.costs.f)))
    assert _matrix_bits(as_float.matrix()) == _matrix_bits(want)


@pytest.mark.parametrize("version", VERSIONS[1:])
def test_fractional_theta_builds_its_floor(tmp_path, version):
    """A row of integer terms on integer variables keeps its integer points
    under its right-hand side's floor, so every extension at theta=5.5
    builds the matrix, dtypes included, and the MPS bytes of theta=5."""
    inst = attach_synthetic_baseline(generate_synthetic(1, 5, 12, 3), 1)
    _net, _specs, base = assemble(inst)
    field = BUDGET_FIELD.get(version)
    budget = {field: 1} if field else {}
    frac, floor = (apply_extension(base, ExtensionConfig(version=version, theta=t, **budget)) for t in (5.5, 5))
    a, b = frac.matrix(), floor.matrix()
    for name in ("rhs", "sense", "lower", "upper", "binary"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    for name in ("data", "indices", "indptr"):
        assert _bits(getattr(a.A, name)) == _bits(getattr(b.A, name)), name
    assert (a.A.shape, a.tags, a.ids) == (b.A.shape, b.tags, b.ids)
    export_mps(frac, tmp_path / "frac.mps")
    export_mps(floor, tmp_path / "floor.mps")
    assert (tmp_path / "frac.mps").read_bytes() == (tmp_path / "floor.mps").read_bytes()


_EDGE_VALUES = (
    EXACT_INT_LIMIT,
    EXACT_INT_LIMIT + 1,
    -EXACT_INT_LIMIT - 1,
    2**62,
    2**63 - 1,
    2**63,
    -(2**63),
    2**70,
    -(2**70),
)


def test_check_feasibility_edge_points_match_row_walk(models):
    for model, point in models:
        _assert_same_as_row_walk(model, point)
        ids = list(point)
        for var_id in (ids[0], ids[len(ids) // 2], ids[-1]):
            var = model.var(var_id)
            for value in (*_EDGE_VALUES, var.upper + 1, var.lower - 1, float(var.upper), var.upper - 0.5, True):
                _assert_same_as_row_walk(model, {**point, var_id: value})
            missing = dict(point)
            del missing[var_id]
            _assert_same_as_row_walk(model, missing)
            with pytest.raises(KeyError):
                check_feasibility(model, missing)


_EDIT = st.one_of(
    st.tuples(st.just("add"), st.integers(-3, 3)),
    st.tuples(st.just("set"), st.integers(-5, 12)),
    st.tuples(st.just("float"), st.floats(-5, 12, allow_nan=False)),
    st.tuples(st.just("past_bound"), st.sampled_from((-1, 1))),
    st.tuples(st.just("huge"), st.sampled_from(_EDGE_VALUES)),
    st.tuples(st.just("numpy"), st.integers(-3, 12)),
    st.tuples(st.just("missing"), st.none()),
)


@settings(
    max_examples=400,
    deadline=timedelta(seconds=2),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_check_feasibility_matches_row_walk(models, data):
    model, point = models[data.draw(st.integers(0, len(models) - 1), label="model")]
    ids = list(point)
    if data.draw(st.booleans(), label="random box point"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = {
            var.id: int(rng.integers(max(var.lower, -5), min(var.upper, 12) + 1)) for var in model.variables
        }
    else:
        values = dict(point)
    for index, (op, arg) in data.draw(
        st.lists(st.tuples(st.integers(0, len(ids) - 1), _EDIT), max_size=6), label="edits"
    ):
        var = model.var(ids[index])
        if op == "missing":
            values.pop(var.id, None)
        elif op == "add" and var.id in values and isinstance(values[var.id], int):
            values[var.id] += arg
        elif op == "past_bound":
            values[var.id] = var.upper + 1 if arg > 0 else var.lower - 1
        elif op == "numpy":
            values[var.id] = np.int64(arg)
        elif op != "add":
            values[var.id] = arg
    _assert_same_as_row_walk(model, values)


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _csr_bits(a):
    """Shape, row pointers, column indices and float64 values of a CSR
    matrix in canonical index order; ``None`` for an absent or empty block."""
    if a is None or a.shape[0] == 0:
        return None
    a = sparse.csr_matrix(a, copy=True)
    a.sort_indices()
    index = lambda v: _bits(v.astype(np.int64))
    return (a.shape, index(a.indptr), index(a.indices), _bits(a.data))


def test_lp_arrays_equal_list_built_lp(models):
    for model, _ in models:
        lp = _LpData(model)
        want = list_built_lp(model)
        k = lp.n_ub
        got = {"c": lp.c, "lo": lp.lo, "hi": lp.hi, "b_ub": lp.rhs[:k], "b_eq": lp.rhs[k:]}
        for key in ("c", "b_eq", "b_ub", "lo", "hi"):
            if want[key] is None:
                assert got[key].size == 0, (model.name, key)
            else:
                assert _bits(got[key]) == _bits(want[key]), (model.name, key)
        for key, rows in (("A_eq", lp.A[k:]), ("A_ub", lp.A[:k])):
            assert _csr_bits(rows) == _csr_bits(want[key]), (model.name, key)


def test_warm_start_shares_the_matrix():
    from railplan.model import warm_start_from

    inst = attach_synthetic_baseline(generate_synthetic(1, 4, 8, 2), 1)
    _net, _specs, base = assemble(inst)
    v1p = solve_bb(apply_extension(base, ExtensionConfig(version="V1prime")), SolveBudget(max_nodes=50))
    rung = apply_extension(base, ExtensionConfig(version="V3", alpha_d=5))
    warm = warm_start_from(rung, v1p)
    assert warm.matrix() is rung.matrix()
    assert warm.start is not None and not check_feasibility(warm, warm.start)


def _matrix_bits(mx):
    arrays = (mx.A.data, mx.A.indices, mx.A.indptr, mx.rhs, mx.lower, mx.upper, mx.sense)
    return [_bits(a) for a in arrays] + [mx.A.shape, mx.ids, mx.column, mx.value_limit]


def _typed_rows(model):
    return [(c.terms, [type(coef) for _v, coef in c.terms], c.sense, c.rhs, type(c.rhs), c.tag) for c in model.constraints]


@pytest.mark.parametrize("theta", [6, 5.5, math.inf])
def test_rung_with_budget_equals_rebuilt_rung(theta):
    """A ladder rung derived from the rung before it is the model
    apply_extension builds for its budget, row for row, and its matrix is
    the one a compile gives, bit for bit, while it shares the chain's
    structure and sessions slot."""
    from railplan.model import BUDGET_FIELD, with_budget

    inst = attach_synthetic_baseline(generate_synthetic(1, 5, 12, 3), 1)
    _net, _specs, base = assemble(inst)
    for version, field in BUDGET_FIELD.items():
        grid = default_alpha_grid(version, inst.baseline, 3)
        # A fractional budget takes its floor: the rung before it keeps its
        # right-hand sides, and an integral one after it moves them.
        budgets = grid + [grid[-1] + 0.5, grid[0]] if theta == 6 else grid
        first = prev = apply_extension(base, ExtensionConfig(version=version, theta=theta, **{field: budgets[0]}))
        for prev_budget, budget in zip(budgets, budgets[1:]):
            case = (version, budget)
            rung = with_budget(prev, budget)
            rebuilt = apply_extension(base, ExtensionConfig(version=version, theta=theta, **{field: budget}))
            assert (rung.name, rung.extension, rung.variables) == (rebuilt.name, rebuilt.extension, rebuilt.variables)
            assert rung.objective is base.objective and rung.start is None, case
            assert _typed_rows(rung) == _typed_rows(rebuilt), case
            moved = math.floor(budget) != math.floor(prev_budget)
            assert ([c.rhs for c in rung.constraints] != [c.rhs for c in prev.constraints]) == moved, case
            assert _matrix_bits(rung.matrix()) == _matrix_bits(rebuilt.matrix()), case
            assert rung.matrix().A is first.matrix().A, case
            assert rung.matrix().sessions is first.matrix().sessions, case
            prev = rung


def test_with_budget_needs_a_budgeted_extension():
    from railplan.model import BUDGET_FIELD, ConfigError, with_budget

    inst = attach_synthetic_baseline(generate_synthetic(1, 4, 8, 2), 1)
    _net, _specs, base = assemble(inst)
    with pytest.raises(ConfigError, match="no budget"):
        with_budget(base, 1)
    with pytest.raises(ConfigError, match="no budget"):
        with_budget(apply_extension(base, ExtensionConfig(version="V1prime")), 1)
    v1 = apply_extension(base, ExtensionConfig(version="V1", lambda_=1))
    with pytest.raises(ConfigError, match="lambda >= 0"):
        with_budget(v1, -1)
    with pytest.raises(ConfigError, match="requires alpha_d"):
        with_budget(apply_extension(base, ExtensionConfig(version="V3", alpha_d=5)), None)
    for version in ("V2", "V3", "V4", "V5"):
        field = BUDGET_FIELD[version]
        model = apply_extension(base, ExtensionConfig(version=version, **{field: 1}))
        assert with_budget(model, 0).extension == ExtensionConfig(version=version, **{field: 0})
        with pytest.raises(ConfigError, match=f"{version} requires {field} >= 0"):
            with_budget(model, -1)
        # A row after the extension's would shift the rows being replaced.
        row = LinearConstraint([(model.variables[-1].id, 1)], "<=", 1, "extra")
        with pytest.raises(ConfigError, match=f"does not end in the rows of its {version} extension"):
            with_budget(model.extended([], [row], model.extension), 0)


def _typed(rows):
    return [(c.terms, [type(coef) for _v, coef in c.terms], c.sense, c.rhs, type(c.rhs), c.tag) for c in rows]


def _typed_vars(variables):
    return [(tuple(var), tuple(map(type, var))) for var in variables]


def _assert_matrix_equals_row_walk(model, want_vars, want_rows, case):
    want = compile_by_row_walk(want_vars, want_rows)
    mx = model.matrix()
    assert len(model.variables) == len(want_vars), case
    assert _typed_vars(model.variables) == _typed_vars(want_vars), case
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(mx.A, name), getattr(want["A"], name)
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), (case, name)
    assert mx.A.shape == want["A"].shape, case
    for name in ("lower", "upper", "rhs", "sense"):
        got, ref = getattr(mx, name), want[name]
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), (case, name)
    assert (mx.tags, mx.value_limit) == (want["tags"], want["value_limit"]), case
    assert len(model.constraints) == len(want_rows), case
    assert _typed(model.constraints) == _typed(want_rows), case


@settings(
    max_examples=120,
    deadline=timedelta(seconds=5),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.tuples(st.integers(2, 7), st.integers(1, 12), st.integers(1, 3)),
    seed=st.integers(1, 10**6),
    lt_method=st.sampled_from(("exact", "full")),
    mutual_exclusion=st.booleans(),
    version=st.sampled_from(VERSIONS),
    theta=st.sampled_from((6, 5.5, math.inf)),
    budgets=st.lists(st.one_of(st.integers(0, 12), st.sampled_from((1.5, 4.0))), min_size=1, max_size=3),
)
def test_array_built_matrix_equals_row_walk(shape, seed, lt_method, mutual_exclusion, version, theta, budgets):
    """The matrix ``build_base_model`` fills from the network's arcs, with
    ``apply_extension``'s block and ``with_budget``'s right-hand sides on
    it, equals the walk over the rows built one constraint object at a time,
    field by field; the variables and rows read back from it are those
    variables and rows, types and all.  Shapes with idle terminals give a self-loop ground arc, whose flow
    row is empty."""
    inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
    net = build_network(inst)
    specs = generate_light_arcs(net, method=lt_method)
    merged = with_light_arcs(net, specs)
    base = build_base_model(merged, specs, inst.costs, mutual_exclusion=mutual_exclusion)
    case = (shape, seed, lt_method, mutual_exclusion)
    _assert_matrix_equals_row_walk(base, *rows_by_constraint_objects(merged, inst.costs, mutual_exclusion), case)
    field = BUDGET_FIELD.get(version)
    cfg = ExtensionConfig(version=version, theta=theta, **({field: budgets[0]} if field else {}))
    model = apply_extension(base, cfg)
    _assert_matrix_equals_row_walk(model, *rows_by_constraint_objects(merged, inst.costs, mutual_exclusion, cfg), cfg)
    if field is None:
        return
    for budget in budgets[1:]:
        model = with_budget(model, budget)
        cfg = ExtensionConfig(version=version, theta=theta, **{field: budget})
        want = rows_by_constraint_objects(merged, inst.costs, mutual_exclusion, cfg)
        _assert_matrix_equals_row_walk(model, *want, (cfg, "with_budget"))
