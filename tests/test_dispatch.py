"""Dispatch orchestration: fitness shaping, optimization runs, settlement.

Payment arithmetic is pinned with hand-sized numbers. The exact bookkeeping
is: each generator is paid max(0, incurred - duty share), compensators are
paid in full, and loads owe max(0, total - duty cost). When no floor binds,
payments + load charge equal the run total plus the compensator subtotal.
That sum is arithmetic, not a ledger: it does not equate what sources
receive with what anyone is charged. Each floored share shifts it by the
clipped amount, which the clipped-case test tracks exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import QUADRATIC, compensated_case, three_bus_case, two_bus_case
from test_acceptance import PENALTY_OPTIMUM
from test_powerflow import area_chain, block_count
from ropf.costmodel import total_reactive_cost
from ropf.netmodel import (
    Bus,
    Compensator,
    Generator,
    Load,
    NetworkCase,
    build_admittance,
)
from ropf import dispatch, powerflow, pso
from ropf.powerflow import BusRole, PowerFlowSolution, solve_power_flow
from ropf.pso import PsoParams
from ropf.dispatch import (
    DecisionVector,
    DispatchError,
    RopfReport,
    allocate_payments,
    baseline_loss,
    build_injections,
    compile_problem,
    decision_bounds,
    evaluate_fitness,
    run_pricing,
    run_ropf,
    swarm_fitness,
    unity_power_factor_case,
    voltage_penalty,
)

SMALL = PsoParams(swarm_size=12, max_iterations=40, seed=3)


def mk_report(kinds, buses, costs, **overrides):
    fields = dict(
        source_kinds=tuple(kinds),
        source_buses=tuple(buses),
        var_requirements=(0.1,) * len(kinds),
        cost_per_source=tuple(costs),
        total_payment=float(sum(costs)),
        loss_before=0.1,
        loss_after=0.08,
        feasible=True,
        converged=True,
        gbest_fitness=float(sum(costs)),
        convergence_history=(float(sum(costs)),),
        seed=1,
        bus_voltages=(1.0, 1.0, 1.0),
        bus_angles=(0.0, 0.0, 0.0),
    )
    fields.update(overrides)
    return RopfReport(**fields)


def fake_solution(v):
    v = np.asarray(v, dtype=float)
    zeros = np.zeros_like(v)
    return PowerFlowSolution(
        v=v,
        delta=zeros,
        p_injected=zeros,
        q_injected=zeros,
        iterations=1,
        max_mismatch=0.0,
        converged=True,
    )


def test_decision_vector_array_roundtrip(fixture_case):
    decision = DecisionVector((0.1, -0.2), (0.05, 0.3))
    again = DecisionVector.from_array(fixture_case, decision.as_array())
    assert again == decision
    with pytest.raises(ValueError, match="decision values"):
        DecisionVector.from_array(fixture_case, np.zeros(3))


def test_decision_bounds_source_order(fixture_case):
    assert decision_bounds(fixture_case) == [
        (-0.5, 0.4),
        (-0.4, 0.5),
        (0.0, 0.3),
        (0.0, 0.3),
    ]


def test_build_injections_reference_flow(fixture_case):
    spec = build_injections(fixture_case)
    roles = spec.roles
    idx = fixture_case.index_of
    assert roles[idx(14)] == BusRole.SLACK
    assert roles[idx(1)] == BusRole.PV and roles[idx(2)] == BusRole.PV
    assert spec.v_setpoint[idx(1)] == 1.0
    assert spec.p[idx(1)] == pytest.approx(0.74)
    # bus 6 carries only its load draw
    assert spec.p[idx(6)] == pytest.approx(-0.478)
    assert spec.q[idx(6)] == pytest.approx(-0.039)


def test_build_injections_with_decision(fixture_case):
    decision = DecisionVector((0.1, -0.05), (0.2, 0.3))
    spec = build_injections(fixture_case, decision)
    idx = fixture_case.index_of
    assert np.all(spec.roles[[idx(1), idx(2), idx(3), idx(4)]] == BusRole.PQ)
    assert spec.q[idx(1)] == pytest.approx(0.1)
    assert spec.q[idx(2)] == pytest.approx(-0.05)
    assert spec.q[idx(3)] == pytest.approx(0.2)
    assert spec.q[idx(4)] == pytest.approx(0.3)
    with pytest.raises(ValueError, match="sources"):
        build_injections(fixture_case, DecisionVector((0.1,), (0.2, 0.3)))


def test_build_injections_adds_records_in_order(fixture_case):
    # Element by element in record order, as a scalar loop does it: loads at
    # one bus whose sum depends on the order, and two machines at one bus.
    extra = (Load(6, 0.1, 0.3), Load(6, 0.2, 0.2), Load(6, 0.3, 0.1), Load(2, 0.7, 0.3))
    case = replace(fixture_case, loads=fixture_case.loads + extra)
    case = replace(case, generators=case.generators + (replace(case.generators[0], p_output=0.3),))
    for decision in (None, DecisionVector.from_array(case, np.linspace(-0.1, 0.2, len(decision_bounds(case))))):
        p, q = np.zeros(case.n), np.zeros(case.n)
        for load in case.loads:
            p[case.index_of(load.bus)] -= load.p
            q[case.index_of(load.bus)] -= load.q
        for gen in case.generators:
            if gen.bus != case.slack_bus().id:
                p[case.index_of(gen.bus)] += gen.p_output
        spec = build_injections(case, decision)
        assert spec.p.tobytes() == p.tobytes()
        if decision is None:
            assert spec.q.tobytes() == q.tobytes()
            assert [int(r) for r in spec.roles] == [
                BusRole.SLACK if b.kind == "slack" else BusRole.PV if b.id in (1, 2) else BusRole.PQ
                for b in case.buses
            ]


def test_voltage_penalty_hand_values():
    case = three_bus_case()
    assert voltage_penalty(fake_solution([1.0, 0.99, 1.05]), case) == 0.0
    # 0.01 over at one bus, 0.02 under at another
    value = voltage_penalty(fake_solution([1.06, 0.93, 1.0]), case)
    assert value == pytest.approx(0.01**2 + 0.02**2, rel=1e-12)


def test_fitness_is_pure_cost_when_feasible():
    case = compensated_case()
    assert evaluate_fitness(case, DecisionVector((0.0,), (0.0,))) == 0.0
    decision = DecisionVector((0.1,), (0.05,))
    expect = sum(total_reactive_cost(case, (0.1, 0.05)), 0.0)
    assert evaluate_fitness(case, decision) == pytest.approx(expect, rel=1e-12)


def test_fitness_adds_weighted_voltage_penalty():
    # shrink the band until the natural sag at the load bus violates it
    base = three_bus_case(p_load=0.4, q_load=0.1)
    case = NetworkCase(
        base_mva=base.base_mva,
        buses=(Bus(1, "generator", 0.95, 1.05), Bus(2, "load", 0.999, 1.001), Bus(3, "slack")),
        branches=base.branches,
        generators=base.generators,
        loads=base.loads,
    )
    decision = DecisionVector((0.0,), ())
    solution = solve_power_flow(case, build_injections(case, decision))
    assert solution.converged
    raw = voltage_penalty(solution, case)
    assert raw > 0
    fitness = evaluate_fitness(case, decision)
    assert fitness == pytest.approx(1e4 * raw, rel=1e-9)


def test_fitness_penalizes_nonconvergence():
    # The reference flow converges with bus 1 voltage-held; the decision's
    # flow, with bus 1 PQ at zero output, does not.
    case = three_bus_case(p_load=9.0)
    reference, _ = baseline_loss(case)
    decision = DecisionVector((0.0,), ())
    assert reference.converged
    assert not solve_power_flow(case, build_injections(case, decision)).converged
    assert evaluate_fitness(case, decision) >= 1e6


def box_points(problem, count, seed):
    """`count` seeded positions of a compiled problem's swarm box."""
    lower, upper = np.array(problem.bounds).T
    return lower + np.random.default_rng(seed).uniform(size=(count, lower.size)) * (upper - lower)


@pytest.mark.parametrize("unity", [False, True], ids=["bundled", "unity-power-factor"])
def test_stack_equals_its_members(fixture_case, unity):
    # 200 seeded positions of the swarm's box, scored in one stack and alone
    case = unity_power_factor_case(fixture_case) if unity else fixture_case
    problem = compile_problem(case)
    points = box_points(problem, 200, seed=17)
    stacked = swarm_fitness(problem, points)
    alone = np.array([swarm_fitness(problem, x[None, :])[0] for x in points])
    assert np.array_equal(stacked, alone)


@pytest.mark.parametrize("unity", [False, True], ids=["bundled", "unity-power-factor"])
def test_every_swarm_flow_converges_within_four_steps(fixture_case, unity):
    # With the generator buses voltage-held, every flow of the swarm's box
    # has a solution near the flat start; some rows still leave a
    # generator's reactive limits, so the limit penalty has work to do.
    case = unity_power_factor_case(fixture_case) if unity else fixture_case
    problem = compile_problem(case)
    outputs, flows = dispatch._swarm_flows(problem, box_points(problem, 1000, seed=23))
    assert np.all(flows.converged)
    assert np.max(flows.iterations) <= 4
    outside = (outputs < problem.q_min) | (outputs > problem.q_max)
    assert 0 < np.count_nonzero(np.any(outside, axis=1)) < 1000


@pytest.mark.parametrize("unity", [False, True], ids=["bundled", "unity-power-factor"])
def test_predicted_start_reaches_the_flat_start_solution(fixture_case, unity, monkeypatch):
    # A swarm flow starts at the reference flow's linear prediction. On the
    # box and its corners it lands on the solution a flat start finds, not
    # on a low-voltage one, in fewer Newton steps. The two stop at residuals
    # within TOLERANCE of zero, which leaves angles up to about 1.1e-6 rad
    # apart (a flat start sits up to 7.7e-7 rad from the exact solution).
    case = unity_power_factor_case(fixture_case) if unity else fixture_case
    problem = compile_problem(case)
    box = box_points(problem, 1000, seed=23)
    corners = np.array(list(itertools.product(*problem.bounds)))
    for points in (box, corners):
        _, flows = dispatch._swarm_flows(problem, points)
        with monkeypatch.context() as patch:
            patch.setattr(dispatch, "_predicted_start", lambda *_: None)
            _, from_flat = dispatch._swarm_flows(problem, points)
        assert np.all(flows.converged) and np.all(from_flat.converged)
        assert np.max(np.abs(flows.v - from_flat.v)) < 1e-6
        assert np.max(np.abs(flows.delta - from_flat.delta)) < 2e-6
        assert np.all(flows.iterations <= from_flat.iterations)
    _, flows = dispatch._swarm_flows(problem, box)
    assert np.mean(flows.iterations) <= 2.3 and np.max(flows.iterations) <= 3


def test_a_case_whose_reference_flow_fails_starts_its_swarm_flat():
    # Such a case is refused, not started: compiling it (and so
    # swarm_fitness, evaluate_fitness and run_ropf) raises one DispatchError.
    case = three_bus_case(p_load=80.0)
    refusal = r"^baseline power flow did not converge \(residual "
    with pytest.raises(DispatchError, match=refusal):
        compile_problem(case)
    with pytest.raises(DispatchError, match=refusal):
        run_ropf(case, SMALL)
    with pytest.raises(DispatchError, match=refusal):
        evaluate_fitness(case, DecisionVector((0.0,), ()))


def test_swarm_fitness_scores_the_generator_outputs_of_its_flow(fixture_case):
    # A row pays the cost of its flow's outputs held to their limits, plus
    # the weighted band violation and squared excess over the limits.
    # Outputs inside the limits, injected with the generator buses as PQ,
    # reproduce the row's flow.
    problem = compile_problem(fixture_case)
    points = box_points(problem, 60, seed=31)
    outputs, flows = dispatch._swarm_flows(problem, points)
    values = swarm_fitness(problem, points)
    inside = np.all((outputs >= problem.q_min) & (outputs <= problem.q_max), axis=1)
    assert 0 < np.count_nonzero(inside) < len(points)
    for k, x in enumerate(outputs):
        held = np.clip(x, problem.q_min, problem.q_max)
        cost = sum(total_reactive_cost(fixture_case, held), 0.0)
        band = voltage_penalty(fake_solution(flows.v[k]), fixture_case)
        assert values[k] == pytest.approx(cost + 1e4 * (band + np.sum((x - held) ** 2)), rel=1e-12)
        if inside[k]:
            decision = DecisionVector.from_array(fixture_case, x)
            flow = solve_power_flow(fixture_case, build_injections(fixture_case, decision))
            assert np.max(np.abs(flow.v - flows.v[k])) < 1e-5


def test_generators_at_one_bus_share_its_output_evenly(fixture_case):
    # A second machine at bus 2 adds no active output; the flow is the same
    # and the two machines split the bus's reactive output in half.
    second = replace(next(g for g in fixture_case.generators if g.bus == 2), p_output=0.0)
    shared = replace(fixture_case, generators=fixture_case.generators + (second,))
    alone, flows = dispatch._swarm_flows(compile_problem(fixture_case), np.array([[1.02, 1.01, 0.1, 0.2]]))
    # One voltage setpoint per generator bus: the shared bus has one.
    assert len(compile_problem(shared).bounds) == 4
    split, shared_flows = dispatch._swarm_flows(compile_problem(shared), np.array([[1.02, 1.01, 0.1, 0.2]]))
    assert flows.converged[0] and np.array_equal(shared_flows.v, flows.v)
    assert split[0].tolist() == [alone[0, 0], alone[0, 1] / 2, alone[0, 1] / 2, 0.1, 0.2]


def test_a_compensator_at_the_slack_bus_changes_no_flow(fixture_case):
    # Its output adds to the slack's specified q, which the solver ignores,
    # so rows and decisions that differ only in it give the same flow bit
    # for bit.
    assert fixture_case.slack_bus().id == 14
    case = replace(fixture_case, compensators=fixture_case.compensators + (Compensator(14, 0.0, 0.3, 0.0354),))
    problem = compile_problem(case)
    points = np.repeat(box_points(problem, 1, seed=5), 2, axis=0)
    points[:, -1] = [0.0, 0.3]
    outputs, flows = dispatch._swarm_flows(problem, points)
    assert np.all(flows.converged)
    for name in ("v", "delta", "q_injected"):
        row, other = getattr(flows, name)
        assert row.tobytes() == other.tobytes()
    low, high = (
        solve_power_flow(case, build_injections(case, DecisionVector.from_array(case, x))) for x in outputs
    )
    assert low.converged and high.converged
    assert low.v.tobytes() == high.v.tobytes() and low.delta.tobytes() == high.delta.tobytes()


def pin_compensator(case: NetworkCase, bus: int, q: float) -> NetworkCase:
    comps = tuple(replace(c, q_min=q, q_max=q) if c.bus == bus else c for c in case.compensators)
    return replace(case, compensators=comps)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", ["bundled", "unity-power-factor", "partially-pinned"])
def test_run_ropf_equals_the_exact_fitness_search(fixture_case, variant, seed):
    # run_ropf is pso over swarm_fitness in the swarm's box; its answer is
    # the generator outputs of the best position's flow, clipped to their
    # limits, beside the compensator outputs of that position.
    case = {
        "bundled": fixture_case,
        "unity-power-factor": unity_power_factor_case(fixture_case),
        "partially-pinned": pin_compensator(fixture_case, 3, 0.2),
    }[variant]
    params = PsoParams(swarm_size=10, max_iterations=40, seed=seed)
    problem = compile_problem(case)
    reference = pso.optimize(lambda x: swarm_fitness(problem, x), problem.bounds, params)
    outputs, flows = dispatch._swarm_flows(problem, reference.position[None, :])
    assert flows.converged[0]

    report = run_ropf(case, params)
    answer = np.clip(outputs[0], problem.q_min, problem.q_max)
    assert report.var_requirements == tuple(float(x) for x in answer)
    assert report.gbest_fitness == reference.fitness
    assert report.convergence_history == reference.history


@pytest.mark.parametrize("variant", ["bundled", "unity-power-factor", "generator-pinned"])
def test_reported_generator_outputs_lie_within_their_limits(fixture_case, variant):
    # The flow of a swarm position can ask a generator for more than its
    # limits allow; the reported answer never does, and a pinned generator
    # reports exactly its pin.
    case = {
        "bundled": fixture_case,
        "unity-power-factor": unity_power_factor_case(fixture_case),
        "generator-pinned": replace(
            fixture_case,
            generators=tuple(
                replace(g, q_min=0.1, q_max=0.1) if g.bus == 2 else g for g in fixture_case.generators
            ),
        ),
    }[variant]
    limits = decision_bounds(case)
    for seed in range(1, 6):
        report = run_ropf(case, PsoParams(swarm_size=10, max_iterations=15, seed=seed))
        assert all(lo <= q <= hi for q, (lo, hi) in zip(report.var_requirements, limits))
        if variant == "generator-pinned":
            assert report.var_requirements[1] == 0.1


def test_shipped_defaults_reach_the_penalty_optimum(fixture_case, ten_seed_runs):
    # Seeds 1-10 at the shipped 30 x 300 end at the penalty optimum that
    # the acceptance gate takes from an independent global search.
    for report in ten_seed_runs:
        q = report.var_requirements
        objective = evaluate_fitness(fixture_case, DecisionVector(q[:2], q[2:]))
        assert objective == pytest.approx(PENALTY_OPTIMUM, rel=1e-6), f"seed {report.seed}"


@pytest.mark.parametrize("seed", [287485, 187400, 138809])
def test_benchmark_swarm_seeds_that_stuck_on_a_wall_reach_the_reference_loss(fixture_case, seed):
    # At the benchmark's 30 x 50 these PSO seeds once ended on a generator's
    # reactive limit, with loss_after 0.063-0.065 p.u.
    report = run_ropf(fixture_case, PsoParams(max_iterations=50, seed=seed))
    assert report.loss_after == pytest.approx(0.0532, rel=0.15)


def test_voltage_weight_is_a_constant():
    assert dispatch.VOLTAGE_WEIGHT == 1e4


@pytest.mark.parametrize(
    "field, value",
    [
        ("voltage_weight", -1.0),
        ("voltage_weight", np.inf),
        ("voltage_weight", np.nan),
    ],
)
def test_penalties_must_be_finite_and_nonnegative(fixture_case, field, value):
    # No weight can be passed, so a negative or non-finite one never reaches
    # the fitness; the one in effect is finite and nonnegative.
    with pytest.raises(TypeError, match=field):
        compile_problem(fixture_case, **{field: value})
    assert np.isfinite(dispatch.VOLTAGE_WEIGHT) and dispatch.VOLTAGE_WEIGHT >= 0


def test_swarm_fitness_rejects_wrong_width(fixture_case):
    with pytest.raises(ValueError, match=r"\(S, 4\)"):
        swarm_fitness(compile_problem(fixture_case), np.zeros((3, 5)))


def test_baseline_loss_zero_without_load():
    case = three_bus_case(p_load=0.0, q_load=0.0)
    case = NetworkCase(
        base_mva=case.base_mva,
        buses=case.buses,
        branches=case.branches,
        generators=(Generator(1, 0.0, 0.5, -0.3, 0.3, QUADRATIC, 0.07),),
        loads=(),
    )
    _, loss = baseline_loss(case)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_baseline_loss_fixture_regression(fixture_case):
    _, loss = baseline_loss(fixture_case)
    assert loss == pytest.approx(0.07973114908135254, rel=1e-9)


@pytest.mark.parametrize("network", ["bundled", "area-chain"])
def test_baseline_loss_equals_it_given_the_admittance(fixture_case, network):
    # Without a Ybus, solve_power_flow builds the one a caller would pass:
    # the same bits, in one block and in level blocks.
    case = fixture_case if network == "bundled" else area_chain(np.random.default_rng(71), 4)
    ybus = build_admittance(case)
    assert (block_count(ybus, build_injections(case)) >= powerflow.MIN_BLOCKS) == (network == "area-chain")
    solution, loss = baseline_loss(case)
    given, given_loss = baseline_loss(case, ybus=ybus)
    for field in dataclasses.fields(PowerFlowSolution):
        assert np.asarray(getattr(solution, field.name)).tobytes() == np.asarray(getattr(given, field.name)).tobytes()
    assert loss.hex() == given_loss.hex()


def test_baseline_loss_raises_when_unsolvable():
    case = two_bus_case(p_load=100.0)
    with pytest.raises(DispatchError, match="converge"):
        baseline_loss(case)


def test_run_ropf_small_network_full_report():
    case = compensated_case()
    report = run_ropf(case, params=SMALL)
    assert report.source_kinds == ("generator", "compensator")
    assert report.source_buses == (1, 2)
    assert report.feasible and report.converged
    assert report.loss_after <= report.loss_before + 1e-12
    history = report.convergence_history
    assert len(history) == SMALL.max_iterations + 1
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    # The recorded best scores its flow's outputs; the answer is feasible
    # and inside its limits, so no penalty applies to either flow and both
    # scores are the cost of the same outputs.
    decision = DecisionVector(report.var_requirements[:1], report.var_requirements[1:])
    assert evaluate_fitness(case, decision) == pytest.approx(report.gbest_fitness, abs=1e-9)
    assert report.total_payment == pytest.approx(sum(report.cost_per_source), abs=1e-12)
    payments = allocate_payments(report, run_ropf(unity_power_factor_case(case), params=SMALL))
    settled = payments.generator_payments + payments.compensator_payments + payments.duty_shares
    assert all(type(c) is float for c in report.cost_per_source + settled)


def test_run_ropf_is_deterministic():
    case = compensated_case()
    a = run_ropf(case, params=SMALL)
    b = run_ropf(case, params=SMALL)
    assert a.convergence_history == b.convergence_history
    assert a.var_requirements == b.var_requirements


def test_run_ropf_with_fully_pinned_sources():
    case = compensated_case()
    pinned = NetworkCase(
        base_mva=case.base_mva,
        buses=case.buses,
        branches=case.branches,
        generators=(Generator(1, 0.2, 0.5, 0.1, 0.1, QUADRATIC, 0.07),),
        compensators=(Compensator(2, 0.05, 0.05, 0.0354),),
        loads=case.loads,
    )
    report = run_ropf(pinned, params=SMALL)
    assert report.var_requirements == (0.1, 0.05)
    # The swarm prices the generator at its pin and adds the weighted
    # squared miss of the pin by the flow's output (about 1e-4 p.u. at
    # this budget), so its best lies just above the pin's own score.
    at_pin = evaluate_fitness(pinned, DecisionVector((0.1,), (0.05,)))
    assert at_pin <= report.gbest_fitness <= at_pin + 1e-3


def test_unity_power_factor_strips_reactive_demand(fixture_case):
    unity = unity_power_factor_case(fixture_case)
    assert all(load.q == 0.0 for load in unity.loads)
    assert [load.p for load in unity.loads] == [load.p for load in fixture_case.loads]
    assert unity.branches == fixture_case.branches
    assert unity.generators == fixture_case.generators
    # source case untouched
    assert any(load.q != 0.0 for load in fixture_case.loads)


def test_duty_cost_nonnegative_and_below_actual():
    report, payments = run_pricing(compensated_case(), params=SMALL)
    assert payments.duty_cost >= 0.0
    # Removing reactive demand cannot make support dearer on this network.
    # Both optima cost nothing; a generator's output follows from its
    # voltage setpoint and costs about 84 q**2 $/h near zero, so at this
    # budget the swarm reaches each within about 1e-6 $/h.
    assert payments.duty_cost <= report.gbest_fitness + 1e-6


def test_allocate_payments_proportional_no_clipping():
    report = mk_report(("generator", "generator", "compensator"), (1, 2, 3), (3.0, 1.0, 2.0))
    duty = mk_report(("generator", "generator", "compensator"), (1, 2, 3), (1.5, 0.5, 0.0))
    payments = allocate_payments(report, duty)
    assert payments.duty_shares == pytest.approx((1.5, 0.5))
    assert payments.generator_payments == pytest.approx((1.5, 0.5))
    assert payments.compensator_payments == pytest.approx((2.0,))
    assert payments.load_allocated == pytest.approx(4.0)
    assert payments.total == pytest.approx(4.0)
    # No floor binds, so payments + load charge = run total + compensator
    # subtotal. This is arithmetic, not a ledger of receipts and charges.
    assert payments.total + payments.load_allocated == pytest.approx(
        report.total_payment + 2.0, abs=1e-12
    )


def test_allocate_payments_floors_negative_payments():
    report = mk_report(("generator", "generator", "compensator"), (1, 2, 3), (3.0, 1.0, 2.0))
    duty = mk_report(("generator", "generator", "compensator"), (1, 2, 3), (7.5, 2.5, 0.0))
    payments = allocate_payments(report, duty)
    assert payments.duty_shares == pytest.approx((7.5, 2.5))
    assert payments.generator_payments == (0.0, 0.0)
    assert payments.load_allocated == 0.0
    assert payments.total == pytest.approx(2.0)
    # exact bookkeeping with floors: total = comp + sum(inc - min(inc, share))
    incurred = (3.0, 1.0)
    kept = sum(inc - min(inc, share) for inc, share in zip(incurred, payments.duty_shares))
    assert payments.total == pytest.approx(2.0 + kept - 0.0)


def test_allocate_payments_weights_from_duty_report():
    report = mk_report(("generator", "generator"), (1, 2), (3.0, 1.0))
    duty = mk_report(("generator", "generator"), (1, 2), (0.5, 1.5))
    payments = allocate_payments(report, duty)
    assert payments.duty_shares == pytest.approx((0.5, 1.5))
    assert payments.generator_payments == pytest.approx((2.5, 0.0))


def test_allocate_payments_zero_duty_pays_in_full():
    report = mk_report(("generator", "compensator"), (1, 3), (3.0, 2.0))
    payments = allocate_payments(report, mk_report(("generator", "compensator"), (1, 3), (0.0, 0.0)))
    assert payments.generator_payments == (3.0,)
    assert payments.duty_shares == (0.0,)
    assert payments.load_allocated == pytest.approx(5.0)


def test_allocate_payments_single_generator_full_duty():
    report = mk_report(("generator",), (1,), (3.0,))
    payments = allocate_payments(report, mk_report(("generator",), (1,), (3.0,)))
    assert payments.generator_payments == (0.0,)
    assert payments.total == 0.0


def test_allocate_payments_equal_split_when_duty_run_costs_nothing():
    report = mk_report(("generator", "generator"), (1, 2), (3.0, 1.0))
    duty = mk_report(("generator", "generator"), (1, 2), (0.0, 0.0), total_payment=2.0)
    payments = allocate_payments(report, duty)
    assert payments.duty_shares == pytest.approx((1.0, 1.0))


def test_allocate_payments_validates_inputs():
    report = mk_report(("generator", "generator"), (1, 2), (3.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        allocate_payments(report, mk_report(("generator",) * 2, (1, 2), (1.0, 1.0), total_payment=-1.0))
    with pytest.raises(ValueError, match="generator set"):
        allocate_payments(report, mk_report(("generator",), (1,), (1.0,)))
    with pytest.raises(ValueError, match="generator set"):
        allocate_payments(report, mk_report(("generator", "generator", "compensator"), (1, 2, 3), (1.0, 1.0, 0.0)))


def test_run_pricing_settles_and_annotates():
    case = compensated_case()
    report, payments = run_pricing(case, params=SMALL)
    assert payments.duty_cost >= 0.0
    assert payments.load_allocated == pytest.approx(max(0.0, report.total_payment - payments.duty_cost))
    assert payments.total == pytest.approx(
        sum(payments.generator_payments) + sum(payments.compensator_payments), abs=1e-12
    )
    comp_costs = [
        c for c, kind in zip(report.cost_per_source, report.source_kinds) if kind == "compensator"
    ]
    assert payments.compensator_payments == pytest.approx(tuple(comp_costs))

