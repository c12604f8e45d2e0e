"""Spans around railplan's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function in every railplan namespace
that holds it (``railplan.report.solve_bb``, ``railplan.cli.assemble``, ...),
so calls made inside ``run_sweep``, ``run_extension_ladder`` and the CLI are
captured without touching ``src/``.  Spans are kept in memory and written out
at the end.  Work done inside pool workers is invisible here and shows up as
the parent's wait.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import railplan as rp

LAYERS = ("instance", "spacetime", "lighttravel", "model", "solver", "mps", "report", "cli")

TRACED = {
    "instance": ("generate_synthetic", "load_instance", "save_instance", "attach_synthetic_baseline"),
    "spacetime": ("build_network", "with_light_arcs"),
    "lighttravel": ("generate_light_arcs",),
    "model": ("build_base_model", "apply_extension", "warm_start_from"),
    "solver": ("solve_bb", "check_feasibility", "evaluate_objective"),
    "mps": ("export_mps",),
    "report": ("assemble", "compute_kpis", "run_sweep", "run_extension_ladder"),
    "cli": ("main",),
}


def _light_method(args, kwargs) -> str:
    return kwargs.get("method", args[1] if len(args) > 1 else "exact")


def _info(name, args, kwargs, out):
    """Counts recorded at the span boundary, from arguments and results."""
    if name in ("spacetime.build_network", "spacetime.with_light_arcs"):
        return {"nodes": len(out.nodes), "arcs": len(out.arcs)}
    if name == "lighttravel.generate_light_arcs":
        return {"arcs": len(out), "method": _light_method(args, kwargs)}
    if name in ("model.build_base_model", "model.apply_extension"):
        return {
            "vars": len(out.variables),
            "rows": len(out.constraints),
            "nnz": sum(len(c.terms) for c in out.constraints),
        }
    if name == "solver.solve_bb":
        lo, hi = out.bounds
        gap = None
        if out.objective is not None and out.status != "infeasible":
            gap = (hi - lo) / max(1.0, abs(hi))
        return {"status": out.status, "nodes": out.node_count, "gap": gap}
    if name == "model.warm_start_from":
        return {"accepted": True}
    if name == "mps.export_mps":
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}
    return None


class Tracer:
    """In-memory span recorder; spans are (id, name, start, end, parent, run, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            info = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                info = _info(name, args, kwargs, out)
                return out
            except Exception as exc:
                info = {"error": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.run_id, info)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "railplan" or n.startswith("railplan.")]
        for layer, names in TRACED.items():
            mod = getattr(rp, layer)
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._installed.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._installed):
            setattr(m, attr, orig)
        self._installed.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-side span around one timed task; starts a new run id."""
        self.run_id += 1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, None, self.run_id, None)

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - child[s[0]] for s in spans]


def layer_metrics(spans, units: int, wall: float) -> dict:
    """Per-layer metrics over the traced spans of ``units`` work units.

    ``<layer>.<fn>.s`` is inclusive seconds per unit and ``.self_s`` self
    seconds per unit; ``<layer>.self_share`` is the layer's self time as a
    share of the traced wall time.  Counts are means per producing call.
    """
    selfs = self_times(spans)
    incl = defaultdict(float)
    own = defaultdict(float)
    infos = defaultdict(list)
    for s, st in zip(spans, selfs):
        incl[s[1]] += s[3] - s[2]
        own[s[1]] += st
        if s[6] is not None:
            infos[s[1]].append((s[6], s[3] - s[2]))
            if "method" in s[6]:
                incl[f"{s[1]}.{s[6]['method']}"] += s[3] - s[2]

    def mean(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    def done(*names):
        """Infos and durations of the calls that returned (not raised)."""
        return [(i, d) for name in names for i, d in infos[name] if "error" not in i]

    per_unit = lambda name: incl[name] / units
    nets = [i for i, _ in done("spacetime.with_light_arcs")]
    arcs = [i for i, _ in done("lighttravel.generate_light_arcs")]
    models = [i for i, _ in done("model.build_base_model", "model.apply_extension")]
    solves = [i for i, _ in done("solver.solve_bb")]
    solve_time = sum(d for _, d in done("solver.solve_bb"))
    exports = done("mps.export_mps")
    warm = infos["model.warm_start_from"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in own.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += t
    m = {
        "instance.generate_synthetic.s": per_unit("instance.generate_synthetic"),
        "instance.load_instance.s": per_unit("instance.load_instance"),
        "spacetime.build_network.s": per_unit("spacetime.build_network"),
        "spacetime.with_light_arcs.s": per_unit("spacetime.with_light_arcs"),
        "spacetime.nodes": mean([n["nodes"] for n in nets]),
        "spacetime.arcs": mean([n["arcs"] for n in nets]),
        "lighttravel.generate_light_arcs.s": per_unit("lighttravel.generate_light_arcs"),
        "lighttravel.generate_light_arcs.exact.s": per_unit("lighttravel.generate_light_arcs.exact"),
        "lighttravel.generate_light_arcs.mcf.s": per_unit("lighttravel.generate_light_arcs.mcf"),
        "lighttravel.arcs": mean([a["arcs"] for a in arcs]),
        "model.build_base_model.s": per_unit("model.build_base_model"),
        "model.apply_extension.s": per_unit("model.apply_extension"),
        "model.warm_start_from.s": per_unit("model.warm_start_from"),
        "model.vars": mean([x["vars"] for x in models]),
        "model.rows": mean([x["rows"] for x in models]),
        "model.nnz": mean([x["nnz"] for x in models]),
        "model.warm_start_accepted_ratio": mean([float("accepted" in i) for i, _ in warm]),
        "solver.solve_bb.s": per_unit("solver.solve_bb"),
        "solver.nodes": mean([x["nodes"] for x in solves]),
        "solver.budget_exhausted": mean([x["status"] == "budget_exceeded" for x in solves]),
        "solver.proven_optimal_ratio": mean([x["status"] == "optimal" for x in solves]),
        "solver.nodes_per_s": sum(x["nodes"] for x in solves) / solve_time if solve_time else 0.0,
        "solver.final_gap": mean([x["gap"] for x in solves]),
        "solver.check_feasibility.s": per_unit("solver.check_feasibility"),
        "solver.evaluate_objective.s": per_unit("solver.evaluate_objective"),
        "mps.export_mps.s": per_unit("mps.export_mps"),
        "mps.bytes": mean([i["bytes"] for i, _ in exports]),
        "mps.bytes_per_s": sum(i["bytes"] for i, _ in exports) / incl["mps.export_mps"] if exports else 0.0,
        "report.assemble.s": per_unit("report.assemble"),
        "report.compute_kpis.s": per_unit("report.compute_kpis"),
        "report.run_sweep.self_s": own["report.run_sweep"] / units,
        "report.run_extension_ladder.self_s": own["report.run_extension_ladder"] / units,
        "cli.main.self_s": own["cli.main"] / units,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall
    m["trace.layer_self_share"] = sum(layer_self.values()) / wall
    return m
