"""railplan: weekly locomotive assignment planning on cyclic space-time networks."""

from .instance import (
    BaselinePlan,
    CostParams,
    Instance,
    InstanceError,
    RailcarFlags,
    Terminal,
    Train,
    TrainLeg,
    TransitTable,
    Violation,
    attach_synthetic_baseline,
    generate_synthetic,
    load_instance,
    net_power_balance,
    save_instance,
    validate_instance,
)
from .lighttravel import (
    CapExceededError,
    LightArcSpec,
    McfError,
    McfProblem,
    build_mcf,
    enumerate_full_arcs,
    full_pairwise_arcs,
    generate_light_arcs,
    mcf_cost,
    mcf_insert_arcs,
    reduce_exact,
    solve_mcf,
)
from .model import (
    VERSIONS,
    ConfigError,
    ExtensionConfig,
    InfeasibleStartError,
    LinearConstraint,
    MilpModel,
    VarRef,
    apply_extension,
    build_base_model,
    group_events_by_terminal_day,
    warm_start_from,
)
from .mps import export_mps
from .report import (
    KpiReport,
    SweepConfig,
    assemble,
    compute_kpis,
    default_factors,
    emit_report,
    event_heatmap_rows,
    read_report,
    run_extension_ladder,
    run_sweep,
)
from .solver import (
    MissingVariableError,
    Solution,
    SolveBudget,
    check_feasibility,
    evaluate_objective,
    load_solution,
    save_solution,
    solve_bb,
)
from .spacetime import (
    Arc,
    Node,
    SpaceTimeNetwork,
    arcs_of_kind,
    build_network,
    pickup_arcs,
    save_network,
    setout_arcs,
    with_light_arcs,
    wrap_arcs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
