"""Solving the assignment model and reading the KPI ledger.

The objective combines weekly ownership (flows crossing the week boundary),
deadheading, light travel (per-unit plus per-crew charges), and work-event
penalties that depend on railcar alignment.  The KPI ledger partitions every
locomotive-minute of the week, so the activity shares always sum to one.
"""

import tempfile
from pathlib import Path

from railplan import (
    SolveBudget,
    assemble,
    compute_kpis,
    export_mps,
    generate_synthetic,
    solve_bb,
)

inst = generate_synthetic(seed=12, n_terminals=3, n_trains=4, max_legs=2)
net, specs, model = assemble(inst, lt_method="exact")
print(f"model: {len(model.variables)} integer variables, {len(model.constraints)} constraints")

sol = solve_bb(model, SolveBudget(max_seconds=60))
print(f"status {sol.status}, objective {sol.objective}, {sol.node_count} nodes, {sol.wall_time:.2f}s")

kpis = compute_kpis(net, model, sol)
print(f"fleet size (units held across the week boundary): {kpis.fleet_size}")
print(f"work events: {kpis.work_events} ({kpis.pickups} pick-ups, {kpis.setouts} set-outs)")
print(f"coverage ratio: {kpis.coverage_ratio:.2f}")
print(f"deadhead minutes: {kpis.dh_minutes}, light-travel minutes: {kpis.lt_minutes}")
print("cost breakdown:", kpis.cost_breakdown)
print("activity shares:")
for key, share in kpis.activity_shares.items():
    print(f"  {key:>14}: {100 * share:6.2f}%")
assert abs(sum(kpis.activity_shares.values()) - 1.0) < 1e-9

# Models export to free-format MPS for external solvers; row names are the
# constraint tags and column names the variable ids.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.mps"
    export_mps(model, path)
    print(f"\nMPS export: {path.stat().st_size} bytes for {len(model.variables)} columns, "
          f"{len(model.constraints)} rows")
