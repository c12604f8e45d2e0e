import json
from dataclasses import fields

import pytest

from railplan.instance import (
    CostParams,
    InstanceError,
    RailcarFlags,
    attach_synthetic_baseline,
    generate_synthetic,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    net_power_balance,
    save_instance,
    validate_instance,
)

from .oracles import balance_by_summation

MINIMAL = {
    "schema_version": 1,
    "terminals": [{"id": "A"}, {"id": "B"}],
    "transit": [
        {"from": "A", "to": "B", "minutes": 500},
        {"from": "B", "to": "A", "minutes": 500},
    ],
    "trains": [
        {"id": "t1", "legs": [{"seq": 1, "from": "A", "to": "B", "dep": 100, "arr": 600, "b": 1}]}
    ],
    "costs": {"q": 1000, "c1": 1, "c2": 5, "c3": 9, "e_rate": 2, "g_rate": 1, "f": 3, "rho_u": 2},
}


def test_load_minimal_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINIMAL))
    inst = load_instance(path)
    assert len(inst.terminals) == 2
    assert len(inst.legs()) == 1
    assert inst.costs.horizon == 10080


def test_empty_costs_take_the_defaults():
    doc = json.loads(json.dumps(MINIMAL))
    doc["costs"] = {}
    inst = instance_from_dict(doc)
    for f in fields(CostParams):
        got, want = getattr(inst.costs, f.name), getattr(CostParams(), f.name)
        assert (got, type(got)) == (want, type(want)), f.name
    assert list(instance_to_dict(inst)["costs"].items()) == [
        ("q", 5000), ("c1", 20), ("c2", 100), ("c3", 180), ("e_rate", 2), ("g_rate", 1),
        ("f", 4), ("rho_u", 3), ("prep", 60), ("inspect", 120), ("horizon", 10080),
    ]


def test_load_rejects_duration_mismatch(tmp_path):
    bad = json.loads(json.dumps(MINIMAL))
    bad["trains"][0]["legs"][0]["arr"] = 700  # 600 minutes, table says 500
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InstanceError) as err:
        load_instance(path)
    assert "t1#1" in str(err.value)
    assert "LEG_DURATION_MISMATCH" in str(err.value)


def test_load_two_leg_train_with_pickup_stop(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"] = [
        {
            "id": "t1",
            "legs": [
                {"seq": 1, "from": "A", "to": "B", "dep": 100, "arr": 600, "b": 1},
                {"seq": 2, "from": "B", "to": "A", "dep": 800, "arr": 1300, "b": 2},
            ],
            "stops": [{"after_seq": 1, "flags": {"pu": 1}}],
        }
    ]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.trains[0].stops == (RailcarFlags(pu=True),)


def test_load_rejects_dangling_stop_record(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"][0]["stops"] = [{"after_seq": 1, "flags": {"pu": 1}}]  # one-leg train
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="after_seq"):
        load_instance(path)


def test_load_reports_json_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"terminals": [')
    with pytest.raises(InstanceError, match="line"):
        load_instance(path)


def test_validate_valid_instance_is_empty():
    inst = instance_from_dict(MINIMAL)
    assert validate_instance(inst) == []


def test_validate_power_exceeds_cap():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"][0]["legs"][0]["b"] = doc["costs"]["f"] + 1
    inst = instance_from_dict(doc, validate=False)
    codes = [v.code for v in validate_instance(inst)]
    assert "POWER_EXCEEDS_CAP" in codes


@pytest.mark.parametrize("name", ["q", "c1", "c2", "c3", "e_rate", "g_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validate_non_finite_cost(name, value):
    doc = json.loads(json.dumps(MINIMAL))
    doc["costs"][name] = value
    inst = instance_from_dict(doc, validate=False)
    found = [v for v in validate_instance(inst) if v.code == "NON_FINITE_COST"]
    assert [v.subject for v in found] == [name]
    with pytest.raises(InstanceError, match="NON_FINITE_COST"):
        instance_from_dict(doc)


def _two_leg_doc():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"][0]["legs"].append({"seq": 2, "from": "B", "to": "A", "dep": 700, "arr": 1200, "b": 1})
    doc["trains"][0]["stops"] = [{"after_seq": 1, "flags": {"pu": True}}]
    doc["baseline"] = {"days": 7, "events": [{"terminal": "B", "day": 0, "count": 1}]}
    return doc


def _set(path, value):
    def edit(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(["trains"], {"id": "t1"}), "instance: 'trains' must be a JSON array"),
        (_set(["trains", 0, "legs", 0, "dep"], 100.5), "train t1 legs: 'dep' must be an integer, got 100.5"),
        (_set(["trains", 0, "legs", 0, "seq"], False), "train t1 legs: 'seq' must be an integer, got false"),
        (_set(["trains", 0, "stops", 0, "after_seq"], "1"), "train t1 stops: 'after_seq' must be an integer"),
        (_set(["trains", 0, "stops", 0, "flags"], 5), "train t1 stop flags: expected a JSON object, got 5"),
        (_set(["transit", 1], "B-A"), 'transit: expected a JSON object, got "B-A"'),
        (_set(["costs"], [1]), "costs: expected a JSON object, got [1]"),
        (_set(["costs", "f"], 3.5), "costs: 'f' must be an integer, got 3.5"),
        (_set(["costs", "horizon"], None), "costs: 'horizon' must be an integer, got null"),
        (_set(["costs", "c1"], None), "costs: 'c1' must be a number, got null"),
        (_set(["baseline", "days"], "7"), "baseline: 'days' must be an integer"),
        (_set(["baseline", "events", 0, "count"], 0.5), "baseline: 'count' must be an integer, got 0.5"),
        (_set(["baseline", "events"], [7]), "baseline: expected a JSON object, got 7"),
    ],
)
def test_malformed_fields_raise_instance_error(edit, message):
    doc = _two_leg_doc()
    instance_from_dict(doc, validate=False)
    edit(doc)
    with pytest.raises(InstanceError) as err:
        instance_from_dict(doc, validate=False)
    assert message in str(err.value)


def test_validate_flags_not_exclusive():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"] = [
        {
            "id": "t1",
            "legs": [
                {"seq": 1, "from": "A", "to": "B", "dep": 100, "arr": 600, "b": 1},
                {"seq": 2, "from": "B", "to": "A", "dep": 800, "arr": 1300, "b": 1},
            ],
            "stops": [{"after_seq": 1, "flags": {"pu": 1, "so": 1}}],
        }
    ]
    inst = instance_from_dict(doc, validate=False)
    codes = [v.code for v in validate_instance(inst)]
    assert "FLAGS_NOT_EXCLUSIVE" in codes


def test_zero_power_is_warning_not_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"][0]["legs"][0]["b"] = 0
    inst = instance_from_dict(doc, validate=False)
    assert validate_instance(inst) == []
    warnings = [v for v in validate_instance(inst, include_warnings=True)]
    assert any(v.code == "ZERO_POWER" and v.severity == "warning" for v in warnings)


def test_generator_is_deterministic():
    a = instance_to_dict(generate_synthetic(1, 3, 4, 2))
    b = instance_to_dict(generate_synthetic(1, 3, 4, 2))
    assert json.dumps(a) == json.dumps(b)


def test_generator_minimal_size():
    inst = generate_synthetic(1, 2, 1, 1)
    assert len(inst.legs()) == 1


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(1, 1, 1, 1)
    with pytest.raises(ValueError):
        generate_synthetic(1, 2, 0, 1)
    with pytest.raises(ValueError):
        generate_synthetic(1, 2, 1, 0)


def test_generator_instances_are_valid_and_flag_variety():
    seen = set()
    for seed in range(8):
        inst = generate_synthetic(seed, 4, 8, 3)
        assert validate_instance(inst) == []
        for train in inst.trains:
            for flags in train.stops:
                seen.add(flags.category)
    assert seen == {"pu", "so", "no", "both"}


def test_generator_imbalance_exists_somewhere():
    inst = generate_synthetic(7, 4, 10, 3)
    oracle = balance_by_summation(instance_to_dict(inst))
    assert any(v != 0 for v in oracle.values())
    assert net_power_balance(inst) == oracle


def test_net_balance_single_leg():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"][0]["legs"][0]["b"] = 2
    inst = instance_from_dict(doc)
    assert net_power_balance(inst) == {"A": -2, "B": 2}


def test_net_balance_symmetric_pair():
    doc = json.loads(json.dumps(MINIMAL))
    doc["trains"].append(
        {"id": "t2", "legs": [{"seq": 1, "from": "B", "to": "A", "dep": 2000, "arr": 2500, "b": 1}]}
    )
    inst = instance_from_dict(doc)
    assert net_power_balance(inst) == {"A": 0, "B": 0}


def test_net_balance_sums_to_zero():
    inst = generate_synthetic(7, 4, 10, 3)
    assert sum(net_power_balance(inst).values()) == 0


def test_save_load_round_trip(tmp_path):
    inst = attach_synthetic_baseline(generate_synthetic(5, 4, 6, 3), 5)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_dict(again) == instance_to_dict(inst)
    save_instance(again, tmp_path / "inst2.json")
    assert (tmp_path / "inst.json").read_text() == (tmp_path / "inst2.json").read_text()


def test_baseline_must_span_the_horizon(tmp_path, short_baseline_instance):
    # Such a plan once validated, and V1, V1' and V3 then put no row on the
    # stops of its missing days.
    violations = validate_instance(short_baseline_instance)
    assert [str(v) for v in violations] == ["[BASELINE_DAYS] baseline: 3 days, but the horizon has 7"]
    save_instance(short_baseline_instance, tmp_path / "short.json")
    with pytest.raises(InstanceError, match="BASELINE_DAYS"):
        load_instance(tmp_path / "short.json")


def test_synthetic_baseline_has_active_and_inactive_parts():
    inst = attach_synthetic_baseline(generate_synthetic(3, 3, 4, 2), 3)
    bp = inst.baseline
    assert bp is not None and bp.active_pairs()
    assert bp.inactive_terminals(inst.terminal_ids())
    assert validate_instance(inst) == []
