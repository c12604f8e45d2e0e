import math

from railplan.instance import generate_synthetic
from railplan.lighttravel import reduce_exact
from railplan.model import LinearConstraint, MilpModel, VarRef, build_base_model
from railplan.mps import export_mps
from railplan.solver import SolveBudget, solve_bb
from railplan.spacetime import build_network, with_light_arcs

from .oracles import highs_mip_optimum, highs_model_fields, read_mps_with_highs, solve_enumeration


def _assemble(inst):
    net = build_network(inst)
    specs = reduce_exact(net)
    merged = with_light_arcs(net, specs)
    return build_base_model(merged, specs, inst.costs)


def _row_bounds(con):
    return {"=": (con.rhs, con.rhs), "<=": (-math.inf, con.rhs), ">=": (con.rhs, math.inf)}[con.sense]


def _canonical_model(m: MilpModel):
    """What an MPS reader must recover: column and row names, bounds,
    integrality, costs, offset, row bounds and every nonzero matrix entry.
    Readers name the model after the file, so the model name is left out."""
    matrix = {}
    for con in m.constraints:
        for var_id, coef in con.terms:
            matrix[(con.tag, var_id)] = matrix.get((con.tag, var_id), 0) + coef
    return (
        [(v.id, v.lower, v.upper, True) for v in m.variables],
        [m.objective.get(v.id, 0) for v in m.variables],
        m.offset,
        [(c.tag, *_row_bounds(c)) for c in m.constraints],
        {key: coef for key, coef in matrix.items() if coef != 0},
    )


def _read_back(model, path):
    export_mps(model, path)
    highs = read_mps_with_highs(path)
    assert highs_model_fields(highs) == _canonical_model(model)
    return highs


def test_empty_objective_model_exports(tmp_path):
    model = MilpModel(
        name="empty",
        variables=(VarRef(id="x:a", family="x", subject="a", lower=0, upper=5),),
        constraints=(),
        objective={},
        offset=0,
        decomposition={},
    )
    path = tmp_path / "empty.mps"
    highs = _read_back(model, path)
    assert " N OBJ" in path.read_text()
    assert highs_mip_optimum(highs) == solve_enumeration(model).objective == 0


def test_mps_round_trip_reproduces_model(tmp_path, round_trip_instance):
    model = _assemble(round_trip_instance)
    highs = _read_back(model, tmp_path / "m2.mps")
    assert highs_mip_optimum(highs) == solve_enumeration(model).objective


def test_mps_read_back_keeps_proven_optimum_above_enumeration_cap(tmp_path):
    model = _assemble(generate_synthetic(3, 5, 12, 3))
    assert len(model.variables) > 24
    highs = _read_back(model, tmp_path / "big.mps")
    sol = solve_bb(model, SolveBudget(max_seconds=60))
    assert sol.status == "optimal"
    assert highs_mip_optimum(highs) == sol.objective


def test_binary_variables_use_bv_entries(tmp_path, three_terminal_example):
    model = _assemble(three_terminal_example)
    path = tmp_path / "example.mps"
    highs = _read_back(model, path)
    lines = path.read_text().splitlines()
    bv = [ln for ln in lines if ln.startswith(" BV BND ")]
    binaries = [v for v in model.variables if v.binary]
    assert len(bv) == len(binaries) == 2
    columns = {name: rest for name, *rest in highs_model_fields(highs)[0]}
    assert all(columns[v.id] == [0, 1, True] for v in binaries)


def test_export_is_byte_deterministic(tmp_path, three_terminal_example):
    model = _assemble(three_terminal_example)
    a, b = tmp_path / "a.mps", tmp_path / "b.mps"
    export_mps(model, a)
    export_mps(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_all_sections_present(tmp_path, round_trip_instance):
    model = _assemble(round_trip_instance)
    path = tmp_path / "sections.mps"
    export_mps(model, path)
    text = path.read_text()
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
        assert f"\n{section}" in text or text.startswith(section)


def test_offset_round_trips(tmp_path):
    model = MilpModel(
        name="offset",
        variables=(VarRef(id="x:a", family="x", subject="a", lower=0, upper=3),),
        constraints=(LinearConstraint(terms=(("x:a", 1),), sense="<=", rhs=2, tag="cap:a"),),
        objective={"x:a": 7},
        offset=-42,
        decomposition={},
    )
    highs = _read_back(model, tmp_path / "off.mps")
    assert highs.getLp().offset_ == -42
    assert highs_mip_optimum(highs) == solve_enumeration(model).objective == -42
