"""Reactive power dispatch and pricing over an AC power flow."""

from .costmodel import (
    compensator_cost,
    depreciation_rate,
    generator_opportunity_cost,
    total_reactive_cost,
)
from .dispatch import (
    DecisionVector,
    Payments,
    RopfReport,
    allocate_payments,
    baseline_loss,
    evaluate_fitness,
    run_pricing,
    run_ropf,
)
from .netmodel import (
    Branch,
    Bus,
    CaseError,
    Compensator,
    CostQuadratic,
    Generator,
    Load,
    NetworkCase,
    build_admittance,
    parse_case,
    serialize_case,
    validate_case,
)
from .powerflow import (
    InjectionSpec,
    PowerFlowSolution,
    solve_power_flow,
    total_losses,
)
from .pso import PsoParams, optimize

__version__ = "0.1.0"
