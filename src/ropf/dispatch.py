"""Reactive dispatch and pricing.

Builds the optimization problem, runs the swarm, and settles payments.
The answer is a decision vector of reactive outputs within the source
limits: the non-slack generators first, then the compensators, both in
case order. The swarm searches the usual form of optimal reactive
dispatch instead: generator buses are voltage-held (PV), a particle sets
one voltage per generator bus, then the compensator outputs, and a
generator's reactive output is a result of the flow, held to its limits
by a penalty.
A run compiles its case once (`compile_problem`), solving the reference
flow and its sensitivities, and scores the whole swarm through one
stacked power flow (`swarm_fitness`: (S, P) to S values) that starts each
row at the reference flow's linear prediction for it. `evaluate_fitness`
scores a decision vector on its own flat-start flow through the same
scorer. A case whose reference flow does not converge is refused
(`DispatchError`, from `baseline_loss`) before anything is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pso
from .costmodel import dispatchable_generators, total_reactive_cost
from .netmodel import AdmittanceMatrix, NetworkCase, build_admittance
from .powerflow import (
    BusRole,
    InjectionSpec,
    PowerFlowSolution,
    _matvec,
    mismatch_jacobian,
    solve_power_flow,
    solve_stack,
    total_losses,
)
from .pso import PsoParams

__all__ = [
    "DecisionVector",
    "DispatchError",
    "DispatchProblem",
    "Payments",
    "RopfReport",
    "allocate_payments",
    "baseline_loss",
    "build_injections",
    "compile_problem",
    "decision_bounds",
    "evaluate_fitness",
    "run_pricing",
    "run_ropf",
    "swarm_fitness",
    "unity_power_factor_case",
    "voltage_penalty",
]

# Large enough to dominate any plausible feasible cost, so the swarm ranks
# every converged point above every non-converged one.
NONCONVERGENCE_PENALTY = 1e6
# Weight of the band violation and the squared limit excess in the fitness.
VOLTAGE_WEIGHT = 1e4
# The swarm's box for every generator voltage setpoint, p.u. It is wider
# than the bundled case's 0.95-1.05 band on purpose: the band is
# penalized, not boxed, and at the penalty optimum bus 1 sits at 1.0521.
VOLTAGE_SETPOINT_BOX = (0.90, 1.10)


class DispatchError(RuntimeError):
    """A dispatch step failed in a way the optimizer cannot absorb."""


@dataclass(frozen=True)
class DecisionVector:
    """Reactive outputs under optimization, per-unit."""

    q_generators: tuple[float, ...]
    q_compensators: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.q_generators + self.q_compensators, dtype=float)

    @classmethod
    def from_array(cls, case: NetworkCase, values: np.ndarray) -> "DecisionVector":
        n_gen = len(dispatchable_generators(case))
        values = np.asarray(values, dtype=float)
        if values.size != n_gen + len(case.compensators):
            raise ValueError(
                f"expected {n_gen + len(case.compensators)} decision values, got {values.size}"
            )
        return cls(
            q_generators=tuple(float(x) for x in values[:n_gen]),
            q_compensators=tuple(float(x) for x in values[n_gen:]),
        )


@dataclass(frozen=True)
class Payments:
    """Settled $/h amounts. duty_cost is the unity-power-factor run's total
    payment; duty_shares are its parts charged back to each generator
    before the payment floor."""

    generator_payments: tuple[float, ...]
    compensator_payments: tuple[float, ...]
    duty_cost: float
    duty_shares: tuple[float, ...]
    load_allocated: float
    total: float


@dataclass(frozen=True)
class RopfReport:
    """Outcome of one dispatch run. The source tuples are in decision order;
    bus_voltages and bus_angles are in the case's bus order."""

    source_kinds: tuple[str, ...]
    source_buses: tuple[int, ...]
    var_requirements: tuple[float, ...]
    cost_per_source: tuple[float, ...]
    total_payment: float
    loss_before: float
    loss_after: float
    feasible: bool
    converged: bool
    gbest_fitness: float
    convergence_history: tuple[float, ...]
    seed: int
    bus_voltages: tuple[float, ...]
    bus_angles: tuple[float, ...]


def decision_bounds(case: NetworkCase) -> list[tuple[float, float]]:
    """Source limits of the decision vector's reactive outputs, source order."""
    gens = dispatchable_generators(case)
    return [(g.q_min, g.q_max) for g in gens] + [(c.q_min, c.q_max) for c in case.compensators]


def _source_positions(case: NetworkCase) -> np.ndarray:
    """Bus position of each decision entry, source order. A compensator at
    the slack bus has one too: the solver ignores the slack's specified q,
    so its output changes no flow."""
    sources = dispatchable_generators(case) + case.compensators
    return np.array([case.index_of(s.bus) for s in sources], dtype=int)


def _add_source_outputs(q: np.ndarray, positions: np.ndarray, values: np.ndarray) -> None:
    """Add decision values (D,) or (S, D) to bus injections (n,) or (S, n),
    one source at a time in source order."""
    for k, value in zip(positions, values.T):
        q[..., k] += value


def build_injections(case: NetworkCase, decision: DecisionVector | None = None) -> InjectionSpec:
    """Injection specification of the reference flow, or of a dispatch.

    Loads draw power; non-slack generators add their scheduled active
    output. Without a decision this is the reference flow: the generator
    buses are voltage-held at 1.0 p.u. and every source outputs zero. With
    one, every generator bus is PQ and the generators and compensators
    inject the decision's reactive outputs. A source at the slack bus adds
    to the slack's specified q, which the solver ignores: the slack
    balance absorbs it.
    """
    n = case.n
    p = np.zeros(n)
    q = np.zeros(n)
    roles = np.full(n, int(BusRole.PQ))
    v_set = np.ones(n)
    gens = dispatchable_generators(case)  # CaseError unless the case has one slack bus
    roles[next(k for k, bus in enumerate(case.buses) if bus.kind == "slack")] = int(BusRole.SLACK)

    at = np.array([case.index_of(load.bus) for load in case.loads], dtype=int)
    np.subtract.at(p, at, [load.p for load in case.loads])
    np.subtract.at(q, at, [load.q for load in case.loads])
    at = np.array([case.index_of(gen.bus) for gen in gens], dtype=int)
    np.add.at(p, at, [gen.p_output for gen in gens])
    if decision is None:
        roles[at] = int(BusRole.PV)

    if decision is not None:
        if len(decision.q_generators) != len(gens) or len(decision.q_compensators) != len(
            case.compensators
        ):
            raise ValueError("decision vector does not match the case sources")
        _add_source_outputs(q, _source_positions(case), decision.as_array())

    return InjectionSpec(p=p, q=q, roles=roles, v_setpoint=v_set)


def _band_violation(v: np.ndarray, v_min: np.ndarray, v_max: np.ndarray) -> np.ndarray:
    """Quadratic band violation of voltages (..., n), summed over buses."""
    over = np.maximum(0.0, v - v_max)
    under = np.maximum(0.0, v_min - v)
    return np.sum(over * over + under * under, axis=-1)


def voltage_penalty(solution: PowerFlowSolution, case: NetworkCase) -> float:
    """Unweighted quadratic violation of the per-bus voltage bands."""
    v_min = np.array([b.v_min for b in case.buses])
    v_max = np.array([b.v_max for b in case.buses])
    return float(_band_violation(solution.v, v_min, v_max))


@dataclass(frozen=True, eq=False)
class DispatchProblem:
    """A case compiled once for fitness evaluation.

    base holds the injections with the generator buses voltage-held and
    every source at zero output (loads and scheduled active generation);
    reference is base's converged flow from a flat start, loss_before its
    cross-checked loss, and sensitivity its linear change of the unknowns
    per unit change of the pv setpoints and pq reactive injections. pv and
    pq are the positions of base's PV and PQ buses; gen_buses and
    comp_buses map the generators and compensators to their buses, and
    sharing counts the generators at each generator's bus. q_min and
    q_max are the source limits, in source order, and bounds the swarm's
    box: one voltage setpoint per pv bus, then the compensator limits.
    Build it with compile_problem.
    """

    case: NetworkCase
    ybus: AdmittanceMatrix
    base: InjectionSpec
    reference: PowerFlowSolution
    loss_before: float
    sensitivity: np.ndarray
    pv: np.ndarray
    pq: np.ndarray
    gen_buses: np.ndarray
    sharing: np.ndarray
    comp_buses: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    bounds: list[tuple[float, float]]
    v_min: np.ndarray
    v_max: np.ndarray


def _sensitivity(reference: PowerFlowSolution, ybus: AdmittanceMatrix, pv: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Linear change of a flow's unknowns (angles at the pv then pq buses,
    magnitudes at the pq buses) per unit change of its inputs (the pv
    setpoints, then the pq reactive injections), at a converged flow: the
    sensitivities of Peschon et al. (IEEE TPAS 87(8), 1968)."""
    pvpq = np.concatenate([pv, pq])
    m = pvpq.size + pq.size
    jac = mismatch_jacobian(reference.v, reference.delta, ybus, pvpq, np.concatenate([pq, pv]))
    inputs = np.concatenate([-jac[:m, m:], np.eye(m)[:, pvpq.size :]], axis=1)
    return np.linalg.solve(jac[:m, :m], inputs)


def compile_problem(case: NetworkCase) -> DispatchProblem:
    """Everything the fitness needs from a case, as arrays built once, and
    the reference flow with its loss and sensitivities (`baseline_loss`'s:
    DispatchError if it does not converge)."""
    limits = decision_bounds(case)
    positions = _source_positions(case)
    n_gen = len(dispatchable_generators(case))
    ybus = build_admittance(case)
    base = build_injections(case)
    pv = np.flatnonzero(base.roles == BusRole.PV)
    pq = np.flatnonzero(base.roles == BusRole.PQ)
    reference, loss_before = baseline_loss(case, ybus)
    gen = positions[:n_gen]
    return DispatchProblem(
        case=case,
        ybus=ybus,
        base=base,
        reference=reference,
        loss_before=loss_before,
        sensitivity=_sensitivity(reference, ybus, pv, pq),
        pv=pv,
        pq=pq,
        gen_buses=gen,
        sharing=np.count_nonzero(gen[:, None] == gen[None, :], axis=0),
        comp_buses=positions[n_gen:],
        q_min=np.array([lo for lo, _ in limits]),
        q_max=np.array([hi for _, hi in limits]),
        bounds=[VOLTAGE_SETPOINT_BOX] * pv.size + limits[n_gen:],
        v_min=np.array([b.v_min for b in case.buses]),
        v_max=np.array([b.v_max for b in case.buses]),
    )


def _score(
    problem: DispatchProblem, outputs: np.ndarray, v: np.ndarray, converged: np.ndarray
) -> np.ndarray:
    """Penalized objective of source outputs (S, D) and the bus voltages
    (S, n) of their flows: the cost of the outputs clipped to their limits,
    plus VOLTAGE_WEIGHT times (band violation + squared excess over the
    limits), plus NONCONVERGENCE_PENALTY where the flow did not converge."""
    held = np.clip(outputs, problem.q_min, problem.q_max)
    excess = outputs - held
    cost = sum(total_reactive_cost(problem.case, held.T), 0.0)
    violation = _band_violation(v, problem.v_min, problem.v_max) + np.sum(excess * excess, axis=-1)
    value = cost + VOLTAGE_WEIGHT * violation
    value[~converged] += NONCONVERGENCE_PENALTY
    return value


def _predicted_start(problem: DispatchProblem, q: np.ndarray, v_set: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start states (S, n) of the flows with reactive injections q and
    setpoints v_set (S, n): the reference flow plus its sensitivities times
    each row's change of inputs, one matrix-vector product per row (a
    product with all rows at once is not bit-equal to a row alone)."""
    pv, pq, reference = problem.pv, problem.pq, problem.reference
    change = np.concatenate([v_set[:, pv] - reference.v[pv], q[:, pq] - problem.base.q[pq]], axis=1)
    step = _matvec(problem.sensitivity, change)
    v = np.repeat(reference.v[None, :], len(q), axis=0)
    delta = np.repeat(reference.delta[None, :], len(q), axis=0)
    k = pv.size + pq.size
    delta[:, np.concatenate([pv, pq])] += step[:, :k]
    v[:, pq] += step[:, k:]
    return v, delta


def _swarm_flows(problem: DispatchProblem, positions: np.ndarray) -> tuple[np.ndarray, PowerFlowSolution]:
    """The flows of swarm positions (S, P) and the source outputs (S, D)
    they give. A flow starts at its predicted state (`_predicted_start`).
    A generator outputs the computed reactive injection at its bus minus
    the specified one (load and compensator), split evenly among the
    generators there; a compensator outputs what the row sets."""
    x = np.asarray(positions, dtype=float)
    gen, held = problem.gen_buses, problem.pv.size
    if x.ndim != 2 or x.shape[1] != len(problem.bounds):
        raise ValueError(f"expected an (S, {len(problem.bounds)}) array of positions, got shape {x.shape}")
    base = problem.base
    q = np.repeat(base.q[None, :], len(x), axis=0)
    _add_source_outputs(q, problem.comp_buses, x[:, held:])
    v_set = np.repeat(base.v_setpoint[None, :], len(x), axis=0)
    v_set[:, problem.pv] = x[:, :held]
    p = np.broadcast_to(base.p, q.shape)
    start = _predicted_start(problem, q, v_set)
    flows = solve_stack(InjectionSpec(p, q, base.roles, v_set), problem.ybus, start)
    outputs = (flows.q_injected[:, gen] - q[:, gen]) / problem.sharing
    return np.concatenate([outputs, x[:, held:]], axis=1), flows


def swarm_fitness(problem: DispatchProblem, positions: np.ndarray) -> np.ndarray:
    """Penalized objective of each row of an (S, P) array of swarm
    positions, one voltage setpoint per generator bus then the compensator
    outputs, inside problem.bounds; returns S values. A row's flow holds
    the generator buses at its setpoints and is scored (`_score`) on the
    source outputs it gives. Each row is scored as if alone, so a stack
    gives the values its members would give one by one.
    """
    outputs, flows = _swarm_flows(problem, positions)
    return _score(problem, outputs, flows.v, flows.converged)


def evaluate_fitness(case: NetworkCase, decision: DecisionVector) -> float:
    """Penalized objective of a decision vector, scored as swarm_fitness
    scores a row, on the flow that injects the decision's reactive outputs
    (every generator bus PQ). Refuses what compile_problem refuses."""
    problem = compile_problem(case)
    flow = solve_power_flow(case, build_injections(case, decision), problem.ybus)
    return float(_score(problem, decision.as_array()[None, :], flow.v, np.array([flow.converged]))[0])


def baseline_loss(
    case: NetworkCase,
    ybus: AdmittanceMatrix | None = None,
) -> tuple[PowerFlowSolution, float]:
    """Reference flow before compensation: compensators off, generator buses
    voltage-held at 1.0 p.u., and its cross-checked loss. Raises
    DispatchError if it does not converge."""
    solution = solve_power_flow(case, build_injections(case), ybus)
    if not solution.converged:
        raise DispatchError(
            f"baseline power flow did not converge (residual {solution.max_mismatch:.3e})"
        )
    return solution, total_losses(solution, case)


def run_ropf(case: NetworkCase, params: PsoParams) -> RopfReport:
    """Minimize the total reactive support cost subject to the power flow.

    The swarm searches generator voltage setpoints and compensator outputs
    (`swarm_fitness`). The answer is the source outputs of the best
    position's flow, clipped to their limits, and the report's flow is the
    flat-start flow that injects them. loss_before is the compiled
    reference flow's loss; DispatchError if that flow did not converge.
    The run writes nothing: every fact it finds is in the report.
    """
    problem = compile_problem(case)
    ybus = problem.ybus

    gens = dispatchable_generators(case)
    kinds = ("generator",) * len(gens) + ("compensator",) * len(case.compensators)
    buses = tuple(g.bus for g in gens) + tuple(c.bus for c in case.compensators)

    result = pso.optimize(lambda x: swarm_fitness(problem, x), problem.bounds, params)
    outputs, _ = _swarm_flows(problem, result.position[None, :])
    decision = DecisionVector.from_array(case, np.clip(outputs[0], problem.q_min, problem.q_max))

    solution = solve_power_flow(case, build_injections(case, decision), ybus)
    q = decision.q_generators + decision.q_compensators
    costs = tuple(float(c) for c in total_reactive_cost(case, q))
    return RopfReport(
        source_kinds=kinds,
        source_buses=buses,
        var_requirements=q,
        cost_per_source=costs,
        total_payment=float(sum(costs)),
        loss_before=problem.loss_before,
        loss_after=total_losses(solution, case),
        feasible=solution.converged and voltage_penalty(solution, case) == 0.0,
        converged=solution.converged,
        gbest_fitness=result.fitness,
        convergence_history=result.history,
        seed=params.seed,
        bus_voltages=tuple(float(x) for x in solution.v),
        bus_angles=tuple(float(x) for x in solution.delta),
    )


def unity_power_factor_case(case: NetworkCase) -> NetworkCase:
    """The same network with every load's reactive draw set to zero."""
    return replace(case, loads=tuple(replace(load, q=0.0) for load in case.loads))


def allocate_payments(report: RopfReport, duty: RopfReport) -> Payments:
    """Split the run's costs into payments, given the unity-power-factor run.

    Both reports list their sources in decision order, generators first,
    and the duty run must list the run's sources (ValueError otherwise).
    Loads owe the cost beyond the duty cost, the duty run's total payment
    (floored at zero). The duty cost is charged back to the generators,
    split in proportion to their costs in the duty run (equally when those
    are all zero). Each generator receives its incurred cost minus its duty
    share, floored at zero; compensators receive their full cost.
    """
    if (duty.source_kinds, duty.source_buses) != (report.source_kinds, report.source_buses):
        raise ValueError("duty report does not match the run's generator set and compensators")
    cg = duty.total_payment
    if cg < 0:
        raise ValueError(f"duty cost must be nonnegative, got {cg}")

    n_gen = report.source_kinds.count("generator")
    weights = duty.cost_per_source[:n_gen]
    total_weight = sum(weights)
    if total_weight > 0:
        shares = [cg * w / total_weight for w in weights]
    else:
        shares = [cg / n_gen] * n_gen if n_gen else []

    incurred = report.cost_per_source[:n_gen]
    gen_payments = tuple(max(0.0, inc - share) for inc, share in zip(incurred, shares))
    comp_payments = report.cost_per_source[n_gen:]
    load_allocated = max(0.0, report.total_payment - cg)
    return Payments(
        generator_payments=gen_payments,
        compensator_payments=comp_payments,
        duty_cost=cg,
        duty_shares=tuple(shares),
        load_allocated=load_allocated,
        total=float(sum(gen_payments) + sum(comp_payments)),
    )


def run_pricing(case: NetworkCase, params: PsoParams) -> tuple[RopfReport, Payments]:
    """Full settlement: dispatch run, unity-power-factor run, allocation.

    The duty cost is the optimal total cost when all loads run at unity
    power factor: the reactive cost the network itself demands, owed by
    the active-power sellers, not by the reactive loads. Both runs take
    params and score with the same fixed VOLTAGE_WEIGHT."""
    report = run_ropf(case, params)
    duty_report = run_ropf(unity_power_factor_case(case), params)
    return report, allocate_payments(report, duty_report)

