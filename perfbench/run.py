"""railplan benchmark: one workload per process, metrics as JSON on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {solve,sweep,ladder,build} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the same passes untraced and then traced, and prints the per-layer
metrics.  ``--write-refs`` regenerates the stored references for the seed.
See README.md in this directory for the workloads and metric definitions.
"""

from time import perf_counter

T_PROCESS = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
# A runaway unit becomes a failed unit instead of exhausting the machine:
# normal runs stay below 500 MB of address space and tasks below 30 s.
ADDRESS_SPACE_LIMIT = 2 << 30
TASK_LIMIT_S = 120
REFS_DIR = os.path.join(HERE, "refs")
OUT_DIR = os.path.join(HERE, "out")


def _import_railplan():
    """Import railplan from ``src/`` of the checkout the benchmark runs in."""
    if not os.path.isfile(os.path.join(SRC, "railplan", "__init__.py")):
        sys.exit(f"perfbench: no railplan sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import railplan

    if os.path.dirname(os.path.abspath(railplan.__file__)) != os.path.join(SRC, "railplan"):
        sys.exit(f"perfbench: railplan was imported from {railplan.__file__}, not {SRC}")
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import checks  # noqa: F401
    import workloads  # noqa: F401


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "seed": seed,
    }


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def refs_path(workload: str, seed: int, scale: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}-seed{seed}-{scale}.json")


def load_stored_refs(workload: str, seed: int, scale: str):
    path = refs_path(workload, seed, scale)
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["units"]


class TaskTimeout(BaseException):
    """Raised by SIGALRM in a task that ran past ``TASK_LIMIT_S``."""


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task ran past {TASK_LIMIT_S} s")


class Measurement:
    """Times whole passes over a workload's tasks; checks every unit.

    Checks that need no reference run between tasks, outside the timed wall.
    The comparison with the references runs in ``finish``, after timing, so
    that computing references never sits inside a timed region or raises the
    measured peak memory.
    """

    def __init__(self, w, resetup=None):
        self.w = w
        self.resetup = resetup
        self.setup_times: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.units = 0
        self.task_walls: list[list[float]] = [[] for _ in w.tasks]
        self.failed = 0
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.records: list[tuple[str, dict | None, list[str]]] = []
        self.statuses: dict[str, str] = {}
        self.errors: list[str] = []

    def run_pass(self, tracer=None) -> None:
        # A sweep or ladder call yields many units, mixing a serial sweep with
        # a pooled one; their latency sample is the pass's mean per unit.
        single_unit_tasks = all(task.units == 1 for task in self.w.tasks)
        if self.resetup is not None and self.pass_walls:
            t0 = perf_counter()
            self.w = self.resetup()
            self.setup_times.append(perf_counter() - t0)
        start_wall = self.wall
        for i, task in enumerate(self.w.tasks):
            # A full collection before each task, so that garbage left by the
            # previous task and its checks is not collected on this task's time.
            gc.collect()
            c0 = cpu_seconds()
            t0 = perf_counter()
            signal.alarm(TASK_LIMIT_S)
            try:
                if tracer is not None:
                    with tracer.root(f"bench.{task.name}"):
                        results = task.run()
                else:
                    results = task.run()
            except (Exception, TaskTimeout):
                results = None
                error = traceback.format_exc(limit=3)
            finally:
                signal.alarm(0)
            dt = perf_counter() - t0
            self.task_walls[i].append(dt)
            self.cpu += cpu_seconds() - c0
            self.wall += dt
            self.units += task.units
            if single_unit_tasks:
                self.latencies.append(dt)
            if results is None or len(results) != task.units:
                self._fail(task.name, [error if results is None else f"{len(results)} results"], task.units)
                continue
            if tracer is not None:
                tracer.enabled = False
            for result in results:
                self._settle(result)
            if tracer is not None:
                tracer.enabled = True
        self.pass_walls.append(self.wall - start_wall)
        if not single_unit_tasks:
            self.latencies.append(self.pass_walls[-1] / sum(task.units for task in self.w.tasks))

    def _settle(self, result) -> None:
        key = result["key"]
        try:
            record, errors = self.w.settle(result)
        except Exception:
            record, errors = None, [traceback.format_exc(limit=3)]
        self.records.append((key, record, errors))

    def _fail(self, key: str, errors: list[str], units: int = 1) -> None:
        self.failed += units
        self.errors.append(f"{key}: {'; '.join(errors)}")
        print(f"perfbench: unit failed: {self.errors[-1]}", file=sys.stderr)

    def finish(self, refs: dict) -> None:
        for key, record, errors in self.records:
            if record is not None and not errors:
                try:
                    errors = self.w.compare(record, refs[key])
                except Exception:
                    errors = [traceback.format_exc(limit=3)]
            if record is not None and "status" in record:
                self.statuses.setdefault(key, record["status"])
            if errors:
                self._fail(key, errors)
        self.records.clear()

    def run_for(self, seconds: float, tracer=None, passes: int | None = None) -> None:
        """Whole passes filling about ``seconds`` of timed wall (or ``passes``).

        Every pass covers every unit, so each run weighs all inputs alike.
        """
        self.run_pass(tracer)
        if passes is None:
            passes = max(1, round(seconds / self.pass_walls[0]))
        while len(self.pass_walls) < passes:
            self.run_pass(tracer)


def setup(name: str, seed: int, scale: str, workdir: str):
    """Generate inputs and load stored references; timed as one set-up."""
    import workloads

    t0 = perf_counter()
    w = workloads.make(name, seed, scale, workdir)
    stored = load_stored_refs(name, seed, scale)
    return w, stored, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("solve", "sweep", "ladder", "build"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's tests")
    ap.add_argument("--write-refs", action="store_true", help="store references for this seed and exit")
    args = ap.parse_args(argv)

    _import_railplan()
    import_s = perf_counter() - T_PROCESS
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, env, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, env, import_s, workdir) -> int:
    import workloads

    rss = {"imports": peak_rss_mb()}
    w, stored, setup_first = setup(args.workload, args.seed, args.scale, workdir)
    rss["setup"] = peak_rss_mb()

    if args.write_refs:
        return write_refs(w, args)

    # Let lazy imports and first-call set-up finish before timing.
    warm = workloads.make(args.workload, args.seed, "tiny", workdir)
    for result in warm.tasks[0].run():
        warm.settle(result)
    rss["warm_up"] = peak_rss_mb()

    def resetup():
        return setup(args.workload, args.seed, args.scale, workdir)[0]

    plain = Measurement(w, resetup)
    plain.setup_times.append(setup_first)
    traced = None
    if args.trace:
        import tracing

        plain.run_for(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            traced = Measurement(w)
            traced.run_for(0, tracer=tracer, passes=len(plain.pass_walls))
            pass_spans = len(tracer.spans)
            with tracer.root("bench.setup"):
                workloads.make(args.workload, args.seed, args.scale, workdir)
        finally:
            tracer.enabled = False
            tracer.uninstall()
    else:
        plain.run_for(args.seconds)
    rss["timed"] = peak_rss_mb()
    # One set-up before each pass.  A mean, because the host switches between
    # a fast and a ~1.7x slower state for seconds at a time, and a median
    # would report one state or the other.  Imports are excluded:
    # ``import_s`` in the details file.
    setup_s = statistics.mean(plain.setup_times)

    # References for seeds without stored ones: after timing, outside set-up.
    t0 = perf_counter()
    want_gap = bool(args.trace) and args.workload != "build"
    fresh = w.compute_refs(lp_gap=want_gap) if stored is None or want_gap else {}
    refs = stored if stored is not None else fresh
    refs_s = perf_counter() - t0
    lp_gaps = [r["lp_root_gap"] for r in fresh.values() if "lp_root_gap" in r]
    for m in (plain, traced):
        if m is not None:
            m.finish(refs)

    runs = [m for m in (plain, traced) if m is not None]
    attempted = sum(m.units for m in runs)
    failed = sum(m.failed for m in runs)
    solved = list(plain.statuses.values())
    proven = sum(s == "optimal" for s in solved) / len(solved) if solved else None

    details = {
        "workload": args.workload,
        "scale": args.scale,
        "env": env,
        "refs": "stored" if stored is not None else "computed",
        "refs_s": refs_s,
        "peak_rss_mb_after": rss,
        "setup_samples_s": plain.setup_times,
        "import_s": import_s,
        "passes": len(plain.pass_walls),
        "pass_walls_s": plain.pass_walls,
        "task_walls_s": plain.task_walls,
        "latency_spread": quartile_spread(plain.latencies),
        "pass_wall_spread": quartile_spread(plain.pass_walls),
        "units_per_pass": sum(t.units for t in w.tasks),
        "proven_optimal_ratio": proven,
        "failed_ratio": failed / attempted,
        "statuses": plain.statuses,
        "errors": plain.errors + (traced.errors if traced else []),
    }
    if stored is not None:
        details["status_changes"] = sorted(
            k for k, s in plain.statuses.items() if "status" in stored.get(k, {}) and stored[k]["status"] != s
        )

    if args.trace:
        overhead = traced.wall - plain.wall
        metrics = tracing.layer_metrics(tracer.spans[:pass_spans], traced.units, traced.wall)
        # Instance generation happens only in set-up: seconds per set-up.
        metrics["instance.generate_synthetic.s"] = sum(
            sp[3] - sp[2] for sp in tracer.spans[pass_spans:] if sp[1] == "instance.generate_synthetic"
        )
        metrics["model.lp_root_gap"] = statistics.mean(lp_gaps) if lp_gaps else 0.0
        metrics["lighttravel.kept_ratio"] = kept_ratio(w)
        metrics["trace.overhead_s"] = overhead / traced.units
        metrics["trace.overhead_share"] = overhead / plain.wall
        details.update(untraced_wall_s=plain.wall, traced_wall_s=traced.wall, traced_units=traced.units)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": plain.units / plain.wall,
            "latency_p50_s": statistics.median(plain.latencies),
            "cpu_per_unit_s": plain.cpu / plain.units,
            "peak_rss_mb": rss["timed"],
        }

    details["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=str)

    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({"env": env, "proven_optimal_ratio": proven, "failed_ratio": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def kept_ratio(w) -> float:
    """Exact-reduction arcs over pairwise-universe arcs, on solve-sized instances."""
    import railplan as rp

    if w.name == "solve":
        instances = {id(u[1]): u[1] for u in w.inputs["units"]}.values()
    elif w.name in ("sweep", "ladder"):
        instances = [inst for _s, inst in w.inputs["instances"]]
    else:
        return 0.0
    kept = universe = 0
    for inst in instances:
        net = rp.build_network(inst)
        kept += len(rp.reduce_exact(net))
        universe += len(rp.full_pairwise_arcs(net))
    return kept / universe if universe else 0.0


def write_refs(w, args) -> int:
    """Store references for this seed: the milp optimum of every unit, the
    benchmark's own status and objective of every solve under its node cap,
    and for solve units a long branch-and-bound run that must agree wherever
    it proves optimality."""
    import railplan as rp

    refs = w.compute_refs()
    if w.name != "build":
        for task in w.tasks:
            for result in task.run():
                record, errors = w.settle(result)
                errors += w.compare(record, refs[result["key"]])
                if errors:
                    raise SystemExit(f"{result['key']}: {errors}")
                refs[result["key"]].update(status=record["status"], objective=record["objective"])
    if w.name == "solve":
        budget = rp.SolveBudget(max_seconds=60, max_nodes=20_000)
        for key, inst, method in w.inputs["units"]:
            _net, _specs, model = rp.assemble(inst, lt_method=method)
            sol = rp.solve_bb(model, budget=budget)
            refs[key]["bb_status"] = sol.status
            refs[key]["bb_objective"] = sol.objective
            if sol.status == "optimal" and abs(sol.objective - refs[key]["optimum"]) > 1e-6 * max(1, abs(sol.objective)):
                raise SystemExit(f"{key}: solve_bb optimum {sol.objective} != milp {refs[key]['optimum']}")
            print(f"{key}: milp {refs[key]['optimum']} bb {sol.status} {sol.objective}", flush=True)
    os.makedirs(REFS_DIR, exist_ok=True)
    with open(refs_path(w.name, args.seed, args.scale), "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "scale": args.scale, "units": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
