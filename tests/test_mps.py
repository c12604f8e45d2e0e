import hashlib
import math
import tracemalloc

import pytest

from railplan.instance import attach_synthetic_baseline, generate_synthetic
from railplan.lighttravel import reduce_exact
from railplan.model import (
    BUDGET_FIELD,
    ExtensionConfig,
    LinearConstraint,
    MilpModel,
    VarRef,
    apply_extension,
    build_base_model,
)
from railplan.mps import export_mps
from railplan.report import assemble, scaled_costs
from railplan.solver import SolveBudget, solve_bb
from railplan.spacetime import build_network, with_light_arcs

from .oracles import (
    highs_mip_optimum,
    highs_model_fields,
    read_mps_with_highs,
    solve_enumeration,
    variables_by_arc_walk,
)


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


def _empty_column_model() -> MilpModel:
    return MilpModel(
        name="empty",
        variables=(VarRef(id="x:a", family="x", subject="a", lower=0, upper=5),),
        constraints=(),
        objective={},
        offset=0,
        decomposition={},
    )


def _offset_model() -> MilpModel:
    return MilpModel(
        name="offset",
        variables=(VarRef(id="x:a", family="x", subject="a", lower=0, upper=3),),
        constraints=(LinearConstraint(terms=(("x:a", 1),), sense="<=", rhs=2, tag="cap:a"),),
        objective={"x:a": 7},
        offset=-42,
        decomposition={},
    )


def test_empty_objective_model_exports(tmp_path):
    model = _empty_column_model()
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
    model = _offset_model()
    highs = _read_back(model, tmp_path / "off.mps")
    assert highs.getLp().offset_ == -42
    assert highs_mip_optimum(highs) == solve_enumeration(model).objective == -42


def _frozen_models(shape, seeds):
    """The models whose MPS bytes are frozen: per seed, the base model and
    V1-V5 at an integral and a fractional theta, on a synthetic baseline."""
    for seed in seeds:
        inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
        _net, _specs, base = assemble(inst)
        yield f"{seed} V0", base
        for theta in (6, 5.5):
            for version, budget_field in BUDGET_FIELD.items():
                cfg = ExtensionConfig(version=version, theta=theta, **{budget_field: 1})
                yield f"{seed} {version} {theta}", apply_extension(base, cfg)


def _v1prime_models():
    """V1' has no budget, so _frozen_models skips it; its rows are pinned
    here at both thetas."""
    for shape in ((4, 8, 2), (5, 12, 3)):
        for seed in range(1, 6):
            inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
            base = assemble(inst)[2]
            for theta in (6, 5.5):
                cfg = ExtensionConfig(version="V1prime", theta=theta)
                yield f"{shape} {seed} V1prime {theta}", apply_extension(base, cfg)


def _fractional_rate_models():
    inst = generate_synthetic(1, 4, 8, 2)
    for parameter, factor in (("q", 1.5), ("e", 0.3), ("g", 1.5)):
        yield f"{parameter} {factor}", assemble(inst, costs=scaled_costs(inst.costs, parameter, factor))[2]


def _variant_models(**assemble_kwargs):
    """V0 and V3 built with non-default ``assemble`` options on seeds 1-3
    of (4,8,2) and (5,12,3)."""
    for shape in ((4, 8, 2), (5, 12, 3)):
        for seed in range(1, 4):
            inst = attach_synthetic_baseline(generate_synthetic(seed, *shape), seed)
            base = assemble(inst, **assemble_kwargs)[2]
            yield f"{shape} {seed} V0", base
            yield f"{shape} {seed} V3", apply_extension(base, ExtensionConfig(version="V3", alpha_d=1))


def _largest_build_models():
    """The benchmark's largest build shape, at V0 and at its V3 config."""
    inst = attach_synthetic_baseline(generate_synthetic(1, 16, 320, 4), 1)
    base = assemble(inst)[2]
    yield "V0", base
    yield "V3", apply_extension(base, ExtensionConfig(version="V3", theta=6.0, alpha_d=5))


def _hand_models():
    yield "empty column", _empty_column_model()
    yield "offset", _offset_model()


# sha256 over each case's label line and exported MPS bytes, recorded while
# export_mps still joined the whole file in memory; the rewrite that streams
# it column by column must not move one byte.  The five cases with V1, V1',
# V2 or V3 models at theta=5.5 were recorded again when fractional
# right-hand sides began to be floored: each such model's bytes are now
# those of theta=5, whose HiGHS optimum equals theta=5.5's.
_MPS_DIGESTS = {
    "(3,4,2)": "2e5960bc2a5576efbba58fd6c76c4a72ecf7684bf5862b559abbc01b2e0af78a",
    "(4,8,2)": "4602c2f1d637673f9c9375e23fa2f6d50f664a5f31ff008860b8637bd27e34a7",
    "(5,12,3)": "c2746c31fb91c1ebf6c312ad730bd763a1dce4b87bb32b95280d7defb7bd7dbf",
    "(10,80,4)": "bc4a9ba17c1eb5ceaa8356dfde912982b788427c8d92328e2993e84cb0e1e373",
    "fractional rates": "655cdd802a425357f29eb402fe5b6c1fb9fe7bfea83f32ff002f0a4d7bcc0db2",
    "hand": "ae45288f02d5449c5647c4475b6e89a9d57c467d23344aba32d47a5336bf7ea3",
    # Recorded before apply_extension's gate blocks were merged into one.
    "V1prime": "4c9307f8565d299a64afad54a4496716459e88c0f5cfce580f97aeec768a28b1",
    # Recorded before the base model was built as arrays and exported from
    # its matrix.
    "no mutual exclusion": "95d71d3b3f72590073f35a28fe5e5f6676db1c2e58ca0c48440a9950d86351bd",
    "mcf light arcs": "937db6832ad3029669a29f12819c8ce7a1a22c27a147e981ee996ab4b1952721",
    "(16,320,4)": "e5c861626c11fd56cfc737e0c8d6febddfb0888839ab0415c140744a95feb3d2",
}

_MPS_CASES = {
    "(3,4,2)": lambda: _frozen_models((3, 4, 2), range(1, 6)),
    "(4,8,2)": lambda: _frozen_models((4, 8, 2), range(1, 6)),
    "(5,12,3)": lambda: _frozen_models((5, 12, 3), range(1, 6)),
    "(10,80,4)": lambda: _frozen_models((10, 80, 4), (1,)),
    "fractional rates": _fractional_rate_models,
    "hand": _hand_models,
    "V1prime": _v1prime_models,
    "no mutual exclusion": lambda: _variant_models(mutual_exclusion=False),
    "mcf light arcs": lambda: _variant_models(lt_method="mcf"),
    "(16,320,4)": _largest_build_models,
}


def _mps_digest(cases, path) -> str:
    digest = hashlib.sha256()
    for label, model in cases:
        export_mps(model, path)
        digest.update(f"{label}\n".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(_MPS_CASES))
def test_mps_bytes_match_frozen_digests(tmp_path, case):
    assert _mps_digest(_MPS_CASES[case](), tmp_path / "m.mps") == _MPS_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(_MPS_CASES))
def test_variables_equal_the_arc_walk(case):
    """A built model's variables, read from its matrix, are the ones a walk
    over its network's arcs makes, number types included; a model built by
    hand keeps the tuple it was given."""
    typed = lambda variables: [(tuple(var), tuple(map(type, var))) for var in variables]
    for label, model in _MPS_CASES[case]():
        if model.network is None:
            assert type(model.variables) is tuple, label
            continue
        want = variables_by_arc_walk(model.network, model.network.instance.costs, model.extension)
        assert typed(model.variables) == typed(want), (case, label)


def test_export_holds_little_beyond_the_model(tmp_path):
    """Export streams: its traced peak above the model stays a small share
    of the model's own traced size (0.20 streamed, 0.84 when the whole file
    was joined in memory first)."""
    inst = attach_synthetic_baseline(generate_synthetic(1, 10, 80, 4), 1)
    cfg = ExtensionConfig(version="V3", theta=6.0, alpha_d=5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = assemble(inst, extension=cfg)[2]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        export_mps(model, tmp_path / "big.mps")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 0.35 * (held - before)
