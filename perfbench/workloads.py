"""The four workloads: inputs from the seed, timed tasks, references, checks.

A workload's inputs are generated from the benchmark seed alone; railplan
only ever sees the generated instances.  A pass over a workload is a list of
tasks.  Each task is one call the benchmark times, and it yields one or more
units: a solve, a sweep cell, a ladder rung or an exported model.  Every unit
is checked against a reference that is computed by a route independent of
the code under test (see ``checks``).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import railplan as rp
import railplan.cli
from railplan.report import default_alpha_grid, scaled_costs

import checks

# Node caps bound every solve; the time budget is far above any solve, so a
# solve ends on the node cap or a proof and its status repeats exactly.
TIME_BUDGET_S = 3600.0
# The sweep's pool width: the 2-core reference machine's nproc, fixed so that
# runs on other machines do the same work.
SWEEP_PARALLEL = 2
LADDER_VERSIONS = ("V2", "V3", "V4", "V5")
BUILD_EXTENSIONS = ("V0", "V3")
# Only exact light arcs on build: with its default (fractional) alpha,
# solve_mcf never terminates on about half of the (16,320,4) instances and
# on ~1% of (10,80,4) and (13,160,4) ones, growing memory without bound.
# The MCF path is timed on solve, and tests/test_perfbench.py keeps the
# defect visible until it is fixed.
BUILD_METHODS = ("exact",)
BUILD_V3_ALPHA = 5

SCALES = {
    "full": {
        "solve_shapes": {(4, 8, 2): 12, (5, 12, 3): 6},
        "solve_methods": ("exact", "mcf"),
        "solve_nodes": 20,
        "sweep_shape": (5, 12, 3),
        "sweep_vars": (255, 285),
        "sweep_draws": 24,
        "sweep_instances": 1,
        "ladder_instances": 3,
        "sweep_factors": None,
        "sweep_nodes": 20,
        "ladder_steps": 3,
        "ladder_nodes": 25,
        "build_shapes": {(10, 80, 4): 2, (13, 160, 4): 2, (16, 320, 4): 2},
    },
    # For the benchmark's own tests: every code path, seconds instead of minutes.
    "tiny": {
        "solve_shapes": {(3, 4, 2): 2},
        "solve_methods": ("exact", "mcf"),
        "solve_nodes": 20,
        "sweep_shape": (3, 4, 2),
        "sweep_vars": (0, 10**6),
        "sweep_draws": 1,
        "sweep_instances": 1,
        "ladder_instances": 1,
        "sweep_factors": (0.5, 2.0),
        "sweep_nodes": 20,
        "ladder_steps": 1,
        "ladder_nodes": 20,
        "build_shapes": {(4, 8, 2): 1},
    },
}


@dataclass
class Task:
    name: str
    run: Callable[[], list]  # returns one result per unit
    units: int


@dataclass
class Workload:
    """Generated inputs plus what the measurement loop needs."""

    name: str
    params: dict
    inputs: dict
    workdir: str
    tasks: list[Task] = field(default_factory=list)

    def compute_refs(self, lp_gap: bool = False) -> dict:
        return REFS[self.name](self, lp_gap)

    def settle(self, result) -> tuple[dict, list[str]]:
        """Checks that need no reference, run right after the unit; returns
        the small record that ``compare`` later holds against the reference."""
        return SETTLE[self.name](result)

    def compare(self, record: dict, ref: dict) -> list[str]:
        if self.name == "build":
            return checks.compare_build(record, ref)
        return checks.compare_optimum(record, ref, self.params[f"{self.name}_nodes"])


def _instance_seeds(workload: str, seed: int, label, n: int) -> list[int]:
    rng = random.Random(f"perfbench:{workload}:{label}:{seed}")
    return [rng.randrange(1, 10**6) for _ in range(n)]


def _budget(nodes: int) -> rp.SolveBudget:
    return rp.SolveBudget(max_seconds=TIME_BUDGET_S, max_nodes=nodes)


# ---------------------------------------------------------------------------
# solve: assemble -> solve_bb -> compute_kpis over a batch of small instances


def _solve_inputs(seed, p, workdir):
    units = []
    for shape, n in p["solve_shapes"].items():
        for s in _instance_seeds("solve", seed, shape, n):
            inst = rp.generate_synthetic(s, *shape)
            for method in p["solve_methods"]:
                units.append((f"{'x'.join(map(str, shape))}/s{s}/{method}", inst, method))
    return {"units": units}


def _solve_tasks(w: Workload) -> list[Task]:
    budget = _budget(w.params["solve_nodes"])

    def unit(key, inst, method):
        def run():
            net, _specs, model = rp.assemble(inst, lt_method=method)
            sol = rp.solve_bb(model, budget=budget)
            kpis = rp.compute_kpis(net, model, sol) if sol.values is not None else None
            return [{"key": key, "model": model, "sol": sol, "kpis": kpis}]

        return Task(key, run, 1)

    return [unit(*u) for u in w.inputs["units"]]


def _solve_refs(w: Workload, lp_gap: bool) -> dict:
    refs = {}
    for key, inst, method in w.inputs["units"]:
        _net, _specs, model = rp.assemble(inst, lt_method=method)
        refs[key] = checks.milp_reference(model, lp_gap=lp_gap)
    return refs


def _solve_settle(result):
    return checks.settle_solve(result["model"], result["sol"], result["kpis"])


# ---------------------------------------------------------------------------
# sweep: a serial q sweep, then a c sweep through the process pool


def _sized_instances(seed, p, n: int) -> list[tuple[int, object]]:
    """The first ``n`` instances drawn from the seed whose exact-arc model size
    lies in the stated band, so that runs on different seeds compare like with
    like.  Sweep and ladder draw from the same sequence.  At least
    ``sweep_draws`` candidates are always built, so set-up does about the same
    work on every seed."""
    lo, hi = p["sweep_vars"]
    found = []
    for k, s in enumerate(_instance_seeds("sweep", seed, p["sweep_shape"], 1000)):
        inst = rp.generate_synthetic(s, *p["sweep_shape"])
        if lo <= len(rp.assemble(inst)[2].variables) <= hi:
            found.append((s, inst))
        if len(found) >= n and k + 1 >= p["sweep_draws"]:
            return found[:n]
    raise RuntimeError(f"too few instances with {lo}..{hi} variables among 1000 draws")


def _sweep_configs(p) -> list[rp.SweepConfig]:
    extra = {"factors": p["sweep_factors"]} if p["sweep_factors"] else {}
    budget = _budget(p["sweep_nodes"])
    return [
        rp.SweepConfig(parameter="q", budget=budget, **extra),
        rp.SweepConfig(parameter="c", budget=budget, parallel=SWEEP_PARALLEL, **extra),
    ]


def _sweep_inputs(seed, p, workdir):
    return {"instances": _sized_instances(seed, p, p["sweep_instances"])}


def _row_key(s: int, row: dict) -> str:
    if "parameter" in row:
        return f"s{s}/{row['parameter']}={row['factor']}"
    return f"s{s}/{row['version']}@{row['alpha']}"


def _keyed_rows(s: int, rows: list[dict]) -> list[dict]:
    return [dict(row, key=_row_key(s, row)) for row in rows]


def _sweep_tasks(w: Workload) -> list[Task]:
    def task(s, inst, cfg):
        return Task(
            f"s{s}/sweep-{cfg.parameter}{'-pool' if cfg.parallel else ''}",
            lambda: _keyed_rows(s, rp.run_sweep(inst, cfg)),
            len(cfg.factors),
        )

    return [task(s, inst, cfg) for s, inst in w.inputs["instances"] for cfg in _sweep_configs(w.params)]


def _sweep_refs(w: Workload, lp_gap: bool) -> dict:
    refs = {}
    for s, inst in w.inputs["instances"]:
        for cfg in _sweep_configs(w.params):
            for factor in cfg.factors:
                costs = scaled_costs(inst.costs, cfg.parameter, factor)
                _net, _specs, model = rp.assemble(inst, lt_method=cfg.lt_method, costs=costs)
                key = _row_key(s, {"parameter": cfg.parameter, "factor": factor})
                refs[key] = checks.milp_reference(model, lp_gap=lp_gap)
    return refs


# ---------------------------------------------------------------------------
# ladder: V1' reference plus V2-V5 rungs with warm chaining


def _ladder_inputs(seed, p, workdir):
    drawn = _sized_instances(seed, p, p["ladder_instances"])
    return {"instances": [(s, rp.attach_synthetic_baseline(inst, s)) for s, inst in drawn]}


def _rungs(inst, steps: int) -> list[tuple[str, int | None]]:
    return [("V1prime", None)] + [
        (v, a) for v in LADDER_VERSIONS for a in default_alpha_grid(v, inst.baseline, steps)
    ]


def _ladder_tasks(w: Workload) -> list[Task]:
    p = w.params
    budget = _budget(p["ladder_nodes"])

    def task(s, inst):
        run = lambda: _keyed_rows(
            s, rp.run_extension_ladder(inst, list(LADDER_VERSIONS), steps=p["ladder_steps"], budget=budget)
        )
        return Task(f"s{s}/ladder", run, len(_rungs(inst, p["ladder_steps"])))

    return [task(s, inst) for s, inst in w.inputs["instances"]]


_ALPHA_FIELD = {"V2": "alpha_c", "V3": "alpha_d", "V4": "alpha_e", "V5": "alpha_f"}


def _ladder_refs(w: Workload, lp_gap: bool) -> dict:
    refs = {}
    for s, inst in w.inputs["instances"]:
        _net, _specs, base = rp.assemble(inst)
        for version, alpha in _rungs(inst, w.params["ladder_steps"]):
            kwargs = {"version": version}
            if alpha is not None:
                kwargs[_ALPHA_FIELD[version]] = alpha
            model = rp.apply_extension(base, rp.ExtensionConfig(**kwargs))
            refs[_row_key(s, {"version": version, "alpha": alpha})] = checks.milp_reference(model, lp_gap=lp_gap)
    return refs


# ---------------------------------------------------------------------------
# build: in-process `railplan build` calls on large instances, writing MPS

_BUILD_LINE = re.compile(r"(\d+) variables, (\d+) constraints, (\d+) light arcs")


def _build_inputs(seed, p, workdir):
    units = []
    for shape, n in p["build_shapes"].items():
        for s in _instance_seeds("build", seed, shape, n):
            inst = rp.generate_synthetic(s, *shape)
            path = os.path.join(workdir, f"{'x'.join(map(str, shape))}-s{s}.json")
            rp.save_instance(rp.attach_synthetic_baseline(inst, s), path)
            for method in BUILD_METHODS:
                for ext in BUILD_EXTENSIONS:
                    units.append((f"{os.path.basename(path)[:-5]}/{method}/{ext}", path, method, ext))
    return {"units": units}


def _build_argv(path, method, ext, out) -> list[str]:
    argv = ["build", "--instance", path, "--lt-method", method, "--extension", ext, "--out", out]
    if ext != "V0":
        argv += ["--alpha", str(BUILD_V3_ALPHA)]
    return argv


def _build_tasks(w: Workload) -> list[Task]:
    def unit(key, path, method, ext):
        out = os.path.join(w.workdir, "model.mps")

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rp.cli.main(_build_argv(path, method, ext, out))
            return [{"key": key, "exit": code, "stdout": buf.getvalue(), "path": out}]

        return Task(key, run, 1)

    return [unit(*u) for u in w.inputs["units"]]


def _build_ref_one(path, method, ext, out) -> dict:
    extension = None
    if ext != "V0":
        extension = rp.ExtensionConfig(version=ext, theta=6.0, alpha_d=BUILD_V3_ALPHA)
    _net, specs, model = rp.assemble(rp.load_instance(path), lt_method=method, extension=extension)
    rp.export_mps(model, out)
    sha, size = checks.mps_digest(out)
    counts = checks.model_counts(model)
    read_back = checks.mps_counts(out)
    os.remove(out)
    if read_back != counts:
        raise RuntimeError(f"exported MPS reads back as {read_back}, model has {counts}")
    return {"sha256": sha, "bytes": size, "light_arcs": len(specs), **counts}


def _build_refs(w: Workload, lp_gap: bool) -> dict:
    out = os.path.join(w.workdir, "ref.mps")
    return {key: _build_ref_one(path, method, ext, out) for key, path, method, ext in w.inputs["units"]}


def _build_settle(result: dict) -> tuple[dict, list[str]]:
    """Digest and counts of one exported model; removes the MPS file."""
    out = {"exit": result["exit"]}
    m = _BUILD_LINE.search(result["stdout"])
    if m:
        out.update(vars=int(m.group(1)), rows=int(m.group(2)), light_arcs=int(m.group(3)))
    if os.path.exists(result["path"]):
        out["sha256"], out["bytes"] = checks.mps_digest(result["path"])
        out["mps"] = checks.mps_counts(result["path"])
        os.remove(result["path"])
        return out, []
    out["sha256"], out["mps"] = None, None
    return out, ["no MPS file written"]


# ---------------------------------------------------------------------------

INPUTS = {"solve": _solve_inputs, "sweep": _sweep_inputs, "ladder": _ladder_inputs, "build": _build_inputs}
TASKS = {"solve": _solve_tasks, "sweep": _sweep_tasks, "ladder": _ladder_tasks, "build": _build_tasks}
REFS = {"solve": _solve_refs, "sweep": _sweep_refs, "ladder": _ladder_refs, "build": _build_refs}
SETTLE = {"solve": _solve_settle, "sweep": checks.settle_row, "ladder": checks.settle_row, "build": _build_settle}


def make(name: str, seed: int, scale: str, workdir: str) -> Workload:
    """Generate a workload's inputs from the seed (the timed set-up step)."""
    params = SCALES[scale]
    w = Workload(name, params, INPUTS[name](seed, params, workdir), workdir)
    w.tasks = TASKS[name](w)
    return w
