import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import railplan
from railplan.cli import main
from railplan.instance import generate_synthetic, instance_to_dict, save_instance
from railplan.report import read_report


def _write(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    save_instance(inst, path)
    return str(path)


def _run_cli(argv):
    """``railplan`` in a child process under a 60 s wall clock, so that a
    hang fails the test instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(railplan.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "railplan.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def _assert_rejected(proc, message):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_generate_validate_solve_report_round_trip(tmp_path):
    inst_path = str(tmp_path / "gen.json")
    assert main(["generate", "--seed", "3", "--terminals", "3", "--trains", "4", "--max-legs", "2", "--out", inst_path]) == 0
    assert main(["validate", "--instance", inst_path]) == 0

    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", inst_path, "--out", str(sol_path), "--budget-seconds", "60"]) == 0
    sol = json.loads(sol_path.read_text())
    assert sol["status"] == "optimal"
    assert sol["decomposition"]["ownership"] > 0

    report_path = str(tmp_path / "kpi.csv")
    heatmap_path = str(tmp_path / "heat.csv")
    assert main([
        "report", "--instance", inst_path, "--solution", str(sol_path),
        "--format", "csv", "--out", report_path, "--heatmap", heatmap_path,
    ]) == 0
    rows = read_report(report_path, "csv")
    assert len(rows) == 1 and rows[0]["status"] == "optimal"
    heat = read_report(heatmap_path, "csv")
    assert all(set(r) == {"terminal", "day", "events"} for r in heat)


def test_validate_rejects_bad_instance(tmp_path, round_trip_instance):
    doc = instance_to_dict(round_trip_instance)
    doc["trains"][0]["legs"][0]["arr"] = 999  # duration mismatch
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad)]) == 2


def test_validate_rejects_a_baseline_shorter_than_the_horizon(tmp_path, capsys, short_baseline_instance):
    assert main(["validate", "--instance", _write(tmp_path, short_baseline_instance)]) == 2
    assert capsys.readouterr().err == "[BASELINE_DAYS] baseline: 3 days, but the horizon has 7\n"


def test_validate_rejects_unparseable_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    assert main(["validate", "--instance", str(bad)]) == 2


def test_build_writes_mps_and_dump(tmp_path, three_terminal_example):
    inst_path = _write(tmp_path, three_terminal_example)
    mps_path = tmp_path / "model.mps"
    dump_path = tmp_path / "net.json"
    assert main(["build", "--instance", inst_path, "--out", str(mps_path), "--network-dump", str(dump_path)]) == 0
    assert mps_path.read_text().startswith("NAME")
    dump = json.loads(dump_path.read_text())
    assert {a["kind"] for a in dump["arcs"]} >= {"train", "ground", "light"}


def test_solve_infeasible_exit_code(tmp_path):
    from .conftest import make_instance

    # One train out and no transit entry home: no light arc can be generated,
    # so the weekly cycle cannot close.
    inst = make_instance(
        ["A", "B"],
        {("A", "B"): 500},
        [("t1", [("A", "B", 100, 1)], [])],
    )
    inst_path = _write(tmp_path, inst)
    code = main(["solve", "--instance", inst_path, "--lt-method", "exact", "--budget-seconds", "30"])
    assert code == 3


def test_solve_budget_exit_code(tmp_path):
    inst_path = _write(tmp_path, generate_synthetic(12, 4, 6, 2))
    code = main(
        ["solve", "--instance", inst_path, "--budget-nodes", "1", "--budget-seconds", "60", "--out", str(tmp_path / "s.json")]
    )
    assert code in (0, 4)  # 4 when the single node leaves no incumbent
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["status"] in ("budget_exceeded", "optimal")


def test_parser_is_built_once_and_keeps_no_flags(monkeypatch, tmp_path, ladder_instance):
    """``main`` parses every call with one parser; a build with a budget
    flag leaves nothing behind for the next build to read."""
    from railplan import cli

    inst_path = _write(tmp_path, ladder_instance)
    seen = []
    read = cli._extension_config
    monkeypatch.setattr(cli, "_extension_config", lambda args: seen.append(vars(args).copy()) or read(args))
    v3 = ["build", "--instance", inst_path, "--extension", "V3", "--alpha", "1", "--out", str(tmp_path / "v3.mps")]
    assert main(v3) == 0
    assert main(["build", "--instance", inst_path, "--out", str(tmp_path / "v0.mps")]) == 0
    assert (seen[0]["extension"], seen[0]["alpha"]) == ("V3", 1)
    assert (seen[1]["extension"], seen[1]["alpha"], seen[1]["lambda_"]) == ("V0", None, None)
    assert cli._parser() is cli._parser()


def test_negative_alpha_exits_2(tmp_path, capsys, ladder_instance):
    # A negative budget once solved to "infeasible" (exit 3).
    inst_path = _write(tmp_path, ladder_instance)
    code = main(["solve", "--instance", inst_path, "--extension", "V3", "--alpha", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: V3 requires alpha_d >= 0\n"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("build", ["--extension", "V0", "--alpha", "1"], "--alpha does not apply to V0"),
        ("build", ["--alpha", "1"], "--alpha does not apply to V0"),
        ("build", ["--extension", "V1", "--alpha", "3"], "--alpha does not apply to V1"),
        ("solve", ["--extension", "V1prime", "--alpha", "3"], "--alpha does not apply to V1prime"),
        ("build", ["--extension", "V0", "--lambda", "1"], "--lambda does not apply to V0"),
        ("build", ["--extension", "V1prime", "--lambda", "0"], "--lambda does not apply to V1prime"),
        ("build", ["--extension", "V3", "--alpha", "1", "--lambda", "5"], "--lambda does not apply to V3"),
        ("solve", ["--extension", "V5", "--alpha", "1", "--lambda", "0"], "--lambda does not apply to V5"),
    ],
    ids=lambda v: v if isinstance(v, str) and not v.startswith("-") else None,
)
def test_budget_flag_the_version_ignores_exits_2(tmp_path, capsys, ladder_instance, command, flags, message):
    # Such a flag was once dropped: the model was built without it, exit 0.
    argv = [command, "--instance", _write(tmp_path, ladder_instance), *flags]
    out = tmp_path / "m.mps"
    if command == "build":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--extension", "V1"], ["--extension", "V1", "--lambda", "2"]], ids=["default", "given"])
def test_lambda_is_read_by_v1(monkeypatch, tmp_path, ladder_instance, flags):
    import railplan.cli

    built = []
    monkeypatch.setattr(railplan.cli, "export_mps", lambda model, path: built.append(model))
    argv = ["build", "--instance", _write(tmp_path, ladder_instance), *flags, "--out", str(tmp_path / "m.mps")]
    assert main(argv) == 0
    assert built[0].extension.lambda_ == (2 if "--lambda" in flags else 0)


@pytest.mark.parametrize("extension", [[], ["--extension", "V3", "--alpha", "1"]], ids=["V0", "V3"])
def test_build_makes_no_row_objects(monkeypatch, tmp_path, ladder_instance, extension):
    """``railplan build`` fills the model's matrix from the network's arcs
    and writes the MPS file from it, so it never makes a LinearConstraint."""
    from railplan.model import LinearConstraint

    def refuse(cls, *args, **kwargs):
        raise AssertionError("railplan build made a LinearConstraint")

    monkeypatch.setattr(LinearConstraint, "__new__", refuse)
    out = tmp_path / "m.mps"
    assert main(["build", "--instance", _write(tmp_path, ladder_instance), *extension, "--out", str(out)]) == 0
    assert out.read_text().endswith("ENDATA\n")


@pytest.mark.parametrize("extension", [[], ["--extension", "V3", "--alpha", "1"]], ids=["V0", "V3"])
def test_build_makes_no_variable_objects(monkeypatch, tmp_path, ladder_instance, extension):
    """``railplan build`` reads the columns' ids, bounds and binary flags
    from the model's matrix and prices the model from its arcs, so it never
    makes a VarRef: neither by the constructor nor by reading a model's
    variables back from its matrix."""
    import railplan.model

    def refuse(*args, **kwargs):
        raise AssertionError("railplan build made a VarRef")

    monkeypatch.setattr(railplan.model.VarRef, "__new__", refuse)
    monkeypatch.setattr(railplan.model, "_new_var", refuse)
    out = tmp_path / "m.mps"
    argv = ["build", "--instance", _write(tmp_path, ladder_instance), *extension, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().endswith("ENDATA\n")


def test_ladder_negative_alpha_exits_2(tmp_path, capsys, ladder_instance):
    # Such a rung once went into the rows as "infeasible" (exit 0).
    inst_path = _write(tmp_path, ladder_instance)
    out = tmp_path / "rows.csv"
    code = main(["ladder", "--instance", inst_path, "--versions", "V3", "--alphas", "-1", "--out", str(out)])
    assert code == 2
    assert "error: V3 requires alpha_d >= 0\n" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cli_writes_rows(tmp_path, round_trip_instance):
    inst_path = _write(tmp_path, round_trip_instance)
    out = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "sweep", "--instance", inst_path, "--param", "q",
                "--factors", "0.5,1.0,2.0", "--format", "csv", "--out", str(out),
                "--budget-seconds", "60",
            ]
        )
        == 0
    )
    rows = read_report(out, "csv")
    assert [r["factor"] for r in rows] == ["0.5", "1.0", "2.0"]
    assert all(r["status"] == "optimal" for r in rows)


def test_sweep_cli_parallel_is_accepted_and_validated(tmp_path, capsys, round_trip_instance):
    inst_path = _write(tmp_path, round_trip_instance)
    argv = ["sweep", "--instance", inst_path, "--param", "q", "--factors", "0.5,1.0", "--budget-seconds", "60"]
    out = tmp_path / "sweep.json"
    assert main(argv + ["--format", "json", "--out", str(out), "--parallel", "3"]) == 0
    assert [r["factor"] for r in read_report(out, "json")] == [0.5, 1.0]
    assert main(argv + ["--out", str(out), "--parallel", "-1"]) == 2
    assert "parallel must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("factors", ["nan", "1,nan", "inf"])
def test_sweep_cli_rejects_non_finite_factors(tmp_path, factors):
    # A NaN factor once priced the objective with NaN and hung the first node
    # LP on this instance past any budget, so the command runs in a child
    # under a wall clock.
    inst_path = _write(tmp_path, generate_synthetic(3, 3, 4, 2))
    argv = ["sweep", "--instance", inst_path, "--param", "q", "--factors", factors, "--budget-seconds", "2"]
    proc = _run_cli(argv + ["--out", str(tmp_path / "rows.csv")])
    assert proc.returncode == 2
    assert "error: factors must be finite and positive" in proc.stderr
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("name,value", [("q", "NaN"), ("q", "Infinity"), ("e_rate", "NaN"), ("g_rate", "Infinity")])
def test_non_finite_cost_rate_is_rejected(tmp_path, command, name, value):
    # A NaN q once passed validation and hung the first node LP past any
    # budget, so the command runs in a child under a wall clock.
    doc = instance_to_dict(generate_synthetic(1, 3, 4, 2))
    doc["costs"][name] = float(value)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    assert f'"{name}": {value}' in inst_path.read_text()
    argv = [command, "--instance", str(inst_path)]
    if command == "solve":
        argv += ["--budget-seconds", "2"]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert f"[NON_FINITE_COST] {name}: cost rates must be finite" in proc.stderr
    if command == "solve":
        assert proc.stderr.startswith("error: ")


def test_ladder_cli_writes_rows(tmp_path, ladder_instance):
    inst_path = _write(tmp_path, ladder_instance)
    out = tmp_path / "ladder.json"
    assert (
        main(
            [
                "ladder", "--instance", inst_path, "--versions", "V3,V5",
                "--steps", "2", "--format", "json", "--out", str(out),
                "--budget-seconds", "60",
            ]
        )
        == 0
    )
    rows = read_report(out, "json")
    assert rows[0]["version"] == "V1prime"
    assert {r["version"] for r in rows} == {"V1prime", "V3", "V5"}


def test_unknown_extension_version_fails_cleanly(tmp_path, round_trip_instance):
    inst_path = _write(tmp_path, round_trip_instance)
    assert main(["solve", "--instance", inst_path, "--extension", "V3", "--budget-seconds", "10"]) == 2  # missing --alpha


@pytest.mark.parametrize(
    "alias, version",
    [
        ("v0", "V0"),
        ("v1", "V1"),
        ("v1prime", "V1prime"),
        ("V1Prime", "V1prime"),
        ("v1'", "V1prime"),
        ("V1'", "V1prime"),
        ("v2", "V2"),
        ("V3", "V3"),
        (" v4 ", "V4"),
        ("v5", "V5"),
    ],
)
def test_every_version_alias_reaches_its_version(monkeypatch, tmp_path, ladder_instance, alias, version):
    import railplan.cli

    built = []
    monkeypatch.setattr(railplan.cli, "export_mps", lambda model, path: built.append(model))
    argv = ["build", "--instance", _write(tmp_path, ladder_instance), "--extension", alias]
    if version in ("V2", "V3", "V4", "V5"):
        argv += ["--alpha", "1"]  # the other versions refuse it
    assert main(argv + ["--out", str(tmp_path / "m.mps")]) == 0
    (model,) = built
    assert (model.extension.version if model.extension else "V0") == version


def test_mcf_knobs_accepted(tmp_path, strict_dominance_instance):
    inst_path = _write(tmp_path, strict_dominance_instance)
    out = tmp_path / "m.mps"
    assert (
        main(
            [
                "build", "--instance", inst_path, "--lt-method", "mcf",
                "--mcf-window", "480", "--mcf-threshold", "1", "--mcf-alpha", "3.5",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert out.read_text().startswith("NAME")


_SWEEP_ARGS = ["sweep", "--param", "q", "--factors", "1.0"]
_LADDER_ARGS = ["ladder", "--versions", "V3", "--steps", "1"]


@pytest.mark.parametrize(
    "command, flag",
    [
        (_SWEEP_ARGS, ["--extension", "V3"]),
        (_SWEEP_ARGS, ["--lambda", "1"]),
        (_SWEEP_ARGS, ["--theta", "4"]),
        (_SWEEP_ARGS, ["--alpha", "2"]),
        (_SWEEP_ARGS, ["--no-mutual-exclusion"]),
        (_LADDER_ARGS, ["--mcf-window", "480"]),
        (_LADDER_ARGS, ["--mcf-threshold", "1"]),
        (_LADDER_ARGS, ["--mcf-alpha", "1.5"]),
        (_LADDER_ARGS, ["--extension", "V3"]),
        (_LADDER_ARGS, ["--lambda", "1"]),
        (_LADDER_ARGS, ["--alpha", "2"]),
        (_LADDER_ARGS, ["--no-mutual-exclusion"]),
    ],
    ids=lambda v: v[0],
)
def test_flags_a_subcommand_ignores_are_rejected(tmp_path, capsys, ladder_instance, command, flag):
    inst_path = _write(tmp_path, ladder_instance)
    argv = command + ["--instance", inst_path, "--out", str(tmp_path / "rows.csv")] + flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_build_reports_light_arc_enumeration_cap(tmp_path, capsys):
    inst_path = _write(tmp_path, generate_synthetic(1, 10, 80, 4))
    code = main(["build", "--instance", inst_path, "--lt-method", "full", "--out", str(tmp_path / "m.mps")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "capped at 200 ground nodes, instance has 422" in err
    assert not (tmp_path / "m.mps").exists()


def test_build_reports_mcf_without_a_way_back(tmp_path, capsys):
    from .conftest import make_instance

    one_way = make_instance(["A", "B"], {("A", "B"): 600}, [("t1", [("A", "B", 600, 1)], [])])
    inst_path = _write(tmp_path, one_way)
    code = main(["build", "--instance", inst_path, "--lt-method", "mcf", "--out", str(tmp_path / "m.mps")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no repositioning path from B to deficit terminals ['A']" in err


def _models_solved(monkeypatch, namespace):
    """Wraps ``solve_bb`` in ``namespace`` to record every model it is given."""
    from railplan.solver import solve_bb

    models = []

    def recording(model, *args, **kwargs):
        models.append(model)
        return solve_bb(model, *args, **kwargs)

    monkeypatch.setattr(f"{namespace}.solve_bb", recording)
    return models


@pytest.mark.parametrize("theta, integral", [("6", True), ("5.5", False)])
@pytest.mark.parametrize("command", ["ladder", "solve"])
def test_integral_theta_keeps_rows_integral(monkeypatch, tmp_path, ladder_instance, command, theta, integral):
    inst_path = _write(tmp_path, ladder_instance)
    if command == "ladder":
        models = _models_solved(monkeypatch, "railplan.report")
        argv = _LADDER_ARGS + ["--out", str(tmp_path / "rows.csv")]
    else:
        models = _models_solved(monkeypatch, "railplan.cli")
        argv = ["solve", "--extension", "V3", "--alpha", "1"]
    assert main(argv + ["--instance", inst_path, "--theta", theta, "--budget-seconds", "60"]) == 0
    assert models
    for model in models:
        # The model keeps the theta it was given; the row it caps takes
        # its floor, an int, which equals it only when it is integral.
        assert model.extension.theta == float(theta)
        (rhs,) = [con.rhs for con in model.constraints if con.tag.startswith("V1p:(15):")]
        assert type(rhs) is int and rhs == math.floor(float(theta))
        assert (rhs == model.extension.theta) is integral
        assert model.matrix().rhs.dtype == np.int64


@pytest.mark.parametrize("theta", ["-3", "nan", "six"])
@pytest.mark.parametrize("command", [_LADDER_ARGS, ["solve", "--extension", "V3", "--alpha", "1"]], ids=lambda v: v[0])
def test_bad_theta_is_rejected(tmp_path, capsys, ladder_instance, command, theta):
    inst_path = _write(tmp_path, ladder_instance)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--instance", inst_path, "--out", str(tmp_path / "out"), "--theta", theta])
    assert exc.value.code == 2
    assert "argument --theta" in capsys.readouterr().err


def test_theta_inf_is_accepted(tmp_path, ladder_instance):
    inst_path = _write(tmp_path, ladder_instance)
    argv = _LADDER_ARGS + ["--instance", inst_path, "--out", str(tmp_path / "rows.csv"), "--theta", "inf"]
    assert main(argv) == 0


def _set_b(doc):
    doc["trains"][0]["legs"][0]["b"] = 1.9


def _set_minutes(value):
    def edit(doc):
        doc["transit"][0]["minutes"] = value

    return edit


def _set_terminals(doc):
    doc["terminals"] = [1, 2]


def _set_q(value):
    def edit(doc):
        doc["costs"]["q"] = value

    return edit


def _set_id(path, value):
    """Set ``doc[path[0]][path[1]]...`` to ``value``; a path ending in
    "append" adds a terminal with that id instead."""

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if path[-1] == "append":
            node.append({"id": value})
        else:
            node[path[-1]] = value

    return edit


def _set_baseline_terminal(doc):
    doc["baseline"] = {"days": 7, "events": [{"terminal": 5, "day": 0, "count": 1}]}


# Each of these was once read without a check: a fractional b was truncated
# (exit 0), a string minute count was coerced, an id that is not a string
# became one ({"id": null} named a terminal "None", exit 0), and the rest
# ended in a TypeError traceback (exit 1).
_BAD_INSTANCES = [
    pytest.param(_set_b, "train t1 legs: 'b' must be an integer, got 1.9", id="fractional-b"),
    pytest.param(_set_minutes(None), "transit: 'minutes' must be an integer, got null", id="null-minutes"),
    pytest.param(_set_minutes("60"), 'transit: \'minutes\' must be an integer, got "60"', id="string-minutes"),
    pytest.param(_set_terminals, "terminals: expected a JSON object, got 1", id="number-terminals"),
    pytest.param(_set_q("abc"), 'costs: \'q\' must be a number, got "abc"', id="string-q"),
    pytest.param(_set_q(True), "costs: 'q' must be a number, got true", id="bool-q"),
    pytest.param(
        _set_id(("terminals", "append"), None), "terminals: 'id' must be a string, got null", id="null-terminal"
    ),
    pytest.param(_set_id(("trains", 0, "id"), 7), "trains: 'id' must be a string, got 7", id="number-train"),
    pytest.param(_set_id(("transit", 0, "from"), 0), "transit: 'from' must be a string, got 0", id="number-from"),
    pytest.param(_set_id(("transit", 0, "to"), ["K1"]), "transit: 'to' must be a string, got [\"K1\"]", id="list-to"),
    pytest.param(
        _set_id(("trains", 0, "legs", 0, "from"), None),
        "train t1 legs: 'from' must be a string, got null",
        id="null-leg-from",
    ),
    pytest.param(
        _set_id(("trains", 0, "legs", 0, "to"), 1.5),
        "train t1 legs: 'to' must be a string, got 1.5",
        id="number-leg-to",
    ),
    pytest.param(
        _set_baseline_terminal, "baseline: 'terminal' must be a string, got 5", id="number-baseline-terminal"
    ),
]


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("edit, message", _BAD_INSTANCES)
def test_bad_instance_field_exits_2(tmp_path, command, edit, message):
    doc = instance_to_dict(generate_synthetic(1, 3, 4, 2))
    edit(doc)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    argv = [command, "--instance", str(inst_path)]
    if command == "solve":
        argv += ["--budget-seconds", "10"]
    proc = _run_cli(argv)
    _assert_rejected(proc, message)
    assert proc.stderr.startswith("error: ")


def test_integral_numbers_are_read_as_integers(tmp_path):
    from railplan.instance import load_instance

    inst = generate_synthetic(1, 3, 4, 2)
    doc = instance_to_dict(inst)
    doc["trains"][0]["legs"][0]["b"] = float(doc["trains"][0]["legs"][0]["b"])
    doc["costs"]["f"] = 4.0
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    loaded = load_instance(path)
    assert loaded == inst
    assert type(loaded.trains[0].legs[0].b) is int and type(loaded.costs.f) is int


def _drop_status(sol):
    del sol["status"]


def _values_as_list(sol):
    sol["values"] = [1, 2]


def _fractional_value(sol):
    sol["values"][next(iter(sol["values"]))] = 0.4


def _bounds_as_number(sol):
    sol["bounds"] = 5


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_drop_status, "solution field 'status' must be one of", id="no-status"),
        pytest.param(_values_as_list, "solution field 'values' must be an object of integers", id="values-list"),
        pytest.param(_fractional_value, "solution field 'values' must be an object of integers", id="fraction"),
        pytest.param(_bounds_as_number, "solution field 'bounds' must be two numbers or nulls", id="bounds-number"),
    ],
)
def test_bad_solution_file_exits_2(tmp_path, edit, message):
    inst_path = _write(tmp_path, generate_synthetic(1, 3, 4, 2))
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", inst_path, "--out", str(sol_path), "--budget-seconds", "60"]) == 0
    sol = json.loads(sol_path.read_text())
    edit(sol)
    sol_path.write_text(json.dumps(sol))
    out = tmp_path / "kpi.csv"
    proc = _run_cli(["report", "--instance", inst_path, "--solution", str(sol_path), "--out", str(out)])
    _assert_rejected(proc, message)
    assert proc.stderr.startswith("error: ")
    assert not out.exists()


def test_solution_without_a_model_variable_exits_2(tmp_path):
    # Such a file once ended in a MissingVariableError traceback (exit 1).
    inst_path = _write(tmp_path, generate_synthetic(1, 3, 4, 2))
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", inst_path, "--out", str(sol_path), "--budget-seconds", "60"]) == 0
    sol = json.loads(sol_path.read_text())
    dropped = sorted(sol["values"])[0]
    del sol["values"][dropped]
    sol_path.write_text(json.dumps(sol))
    out = tmp_path / "kpi.csv"
    proc = _run_cli(["report", "--instance", inst_path, "--solution", str(sol_path), "--out", str(out)])
    _assert_rejected(proc, f"error: solution has no value for model variable {dropped}\n")
    assert proc.stderr.startswith("error: ")
    assert not out.exists()


def test_nan_budget_seconds_exits_2(tmp_path):
    # A NaN budget once passed SolveBudget's check and meant no time limit.
    inst_path = _write(tmp_path, generate_synthetic(1, 3, 4, 2))
    proc = _run_cli(["solve", "--instance", inst_path, "--budget-seconds", "nan"])
    _assert_rejected(proc, "error: budget fields must be positive")


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_ladder_steps_below_one_exit_2(tmp_path, ladder_instance, steps):
    # Such grids once selected no rung and wrote only the V1' row (exit 0).
    inst_path = _write(tmp_path, ladder_instance)
    out = tmp_path / "rows.csv"
    proc = _run_cli(["ladder", "--instance", inst_path, "--steps", steps, "--out", str(out)])
    _assert_rejected(proc, f"argument --steps: must be at least 1, got {steps}")
    assert not out.exists()


def test_ladder_of_a_version_without_budget_exits_2(tmp_path, ladder_instance):
    # V0 with explicit budgets once ended in a KeyError traceback (exit 1).
    inst_path = _write(tmp_path, ladder_instance)
    out = tmp_path / "rows.csv"
    proc = _run_cli(["ladder", "--instance", inst_path, "--versions", "V0", "--alphas", "1", "--out", str(out)])
    _assert_rejected(proc, "error: ladder versions must be among V1prime, V1, V2, V3, V4, V5; got ['V0']")
    assert not out.exists()
