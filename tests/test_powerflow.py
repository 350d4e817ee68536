"""Newton-Raphson solver against closed forms and finite differences.

The lossless two-bus feeder has an exact solution: with the load bus
drawing active power P over reactance X at zero reactive demand,

    sin(2 * delta) = -2 X P        |V| = cos(delta)

which follows from S = V conj(y (V - V_slack)) with y = 1/(jX). The
Jacobian is checked against central finite differences of the mismatch,
and every loss figure is cross-checked against a per-branch I**2 R sum
computed here from scratch.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import QUADRATIC, two_bus_case
from ropf import powerflow
from ropf.dispatch import DecisionVector, build_injections, decision_bounds, unity_power_factor_case
from ropf.netmodel import Branch, Bus, CaseError, Generator, Load, NetworkCase, build_admittance
from ropf.powerflow import (
    MAX_ITERATIONS,
    TOLERANCE,
    BusRole,
    InjectionSpec,
    PowerFlowSolution,
    compute_mismatch,
    mismatch_jacobian,
    solve_power_flow,
    solve_stack,
    total_losses,
)

PQ, PV, SLACK = BusRole.PQ, BusRole.PV, BusRole.SLACK


def make_spec(p, q, roles, v_setpoint=None):
    roles = np.asarray(roles, dtype=int)
    if v_setpoint is None:
        v_setpoint = np.ones(roles.shape)
    return InjectionSpec(
        p=np.asarray(p, float),
        q=np.asarray(q, float),
        roles=roles,
        v_setpoint=np.asarray(v_setpoint, float),
    )


def two_bus_solution(p_load, reactance, resistance=0.0, q_load=0.0):
    case = two_bus_case(reactance, resistance, p_load, q_load)
    spec = make_spec([-p_load, 0.0], [-q_load, 0.0], [PQ, SLACK])
    return case, solve_power_flow(case, spec)


def branch_loss_sum(case, solution):
    """Independent I**2 R tally from the branch list and final voltages."""
    volt = solution.v * np.exp(1j * solution.delta)
    total = 0.0
    for br in case.branches:
        vf = volt[case.index_of(br.from_bus)]
        vt = volt[case.index_of(br.to_bus)]
        i_series = (vf / br.tap_ratio - vt) / complex(br.resistance, br.reactance)
        total += br.resistance * abs(i_series) ** 2
    return total


INJECTION_FIELDS = ("p_injected", "q_injected")


def bits(x):
    """The raw bytes of a float or an array of floats."""
    return np.asarray(x, dtype=float).tobytes()


def test_spec_requires_exactly_one_slack():
    with pytest.raises(ValueError, match="slack"):
        make_spec([0.0, 0.0], [0.0, 0.0], [SLACK, SLACK])
    with pytest.raises(ValueError, match="slack"):
        make_spec([0.0, 0.0], [0.0, 0.0], [PQ, PQ])


def test_spec_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        InjectionSpec(
            p=np.zeros(3), q=np.zeros(2), roles=np.array([PQ, SLACK]), v_setpoint=np.ones(2)
        )
    # setpoints are one row for every member or one row per member
    make_spec(np.zeros((3, 2)), np.zeros((3, 2)), [PQ, SLACK], v_setpoint=np.ones((3, 2)))
    for v_setpoint in (np.ones((2, 2)), np.ones((3, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            make_spec(np.zeros((3, 2)), np.zeros((3, 2)), [PQ, SLACK], v_setpoint=v_setpoint)


def test_spec_rejects_nonpositive_setpoint():
    with pytest.raises(ValueError, match="setpoint"):
        make_spec([0.0, 0.0], [0.0, 0.0], [PQ, SLACK], v_setpoint=[1.0, 0.0])
    with pytest.raises(ValueError, match="setpoint"):
        make_spec(np.zeros((2, 2)), np.zeros((2, 2)), [PQ, SLACK], v_setpoint=[[1.0, 1.0], [1.0, -0.1]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="setpoint"):
            make_spec([0.0, 0.0], [0.0, 0.0], [PQ, SLACK], v_setpoint=[1.0, bad])


def test_mismatch_polar_formula_hand_values():
    # one line, y = -10j: P1 = -10 sin(d1 - d2)... computed from the
    # textbook polar sum, written out here independently
    case = two_bus_case(reactance=0.1)
    ybus = build_admittance(case)
    spec = make_spec([0.0, 0.0], [0.0, 0.0], [PQ, SLACK])
    d1 = 0.1
    dp, dq = compute_mismatch(np.array([1.0, 1.0]), np.array([d1, 0.0]), spec.p, spec.q, ybus)
    p1_calc = -10.0 * math.sin(0.0 - d1)
    q1_calc = 10.0 - 10.0 * math.cos(0.0 - d1)
    assert dp[0] == pytest.approx(-p1_calc, abs=1e-12)
    assert dq[0] == pytest.approx(-q1_calc, abs=1e-12)


def test_flat_state_zero_injection_is_exact():
    case = two_bus_case()
    spec = make_spec([0.0, 0.0], [0.0, 0.0], [PQ, SLACK])
    dp, dq = compute_mismatch(np.ones(2), np.zeros(2), spec.p, spec.q, build_admittance(case))
    assert np.allclose(dp, 0.0, atol=1e-15)
    assert np.allclose(dq, 0.0, atol=1e-15)


def test_zero_load_converges_without_iterating():
    case, solution = two_bus_solution(p_load=0.0, reactance=0.1)
    assert solution.converged
    assert solution.iterations == 0
    assert np.allclose(solution.v, 1.0)


def test_two_bus_closed_form():
    case, solution = two_bus_solution(p_load=0.5, reactance=0.1)
    delta = 0.5 * math.asin(-2 * 0.1 * 0.5)
    assert solution.converged
    assert solution.delta[0] == pytest.approx(delta, abs=1e-9)
    assert solution.v[0] == pytest.approx(math.cos(delta), abs=1e-9)
    # frozen values of that closed form
    assert solution.delta[0] == pytest.approx(-0.0500837105807799, abs=1e-9)
    assert solution.v[0] == pytest.approx(0.9987460731103327, abs=1e-9)


def test_random_lossless_instances_match_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(25):
        p = float(rng.uniform(0.1, 0.7))
        x = float(rng.uniform(0.05, 0.3))
        case, solution = two_bus_solution(p_load=p, reactance=x)
        assert solution.converged
        delta = 0.5 * math.asin(-2 * x * p)
        assert solution.delta[0] == pytest.approx(delta, abs=1e-6)
        assert solution.v[0] == pytest.approx(math.cos(delta), abs=1e-6)
        assert total_losses(solution, case) == pytest.approx(0.0, abs=1e-8)


def test_resistive_loss_cross_check():
    case, solution = two_bus_solution(p_load=0.3, reactance=0.1, resistance=0.01)
    assert solution.converged
    loss = total_losses(solution, case)
    assert loss > 0
    assert loss == pytest.approx(branch_loss_sum(case, solution), abs=1e-12)
    # conservation: net injections over all buses sum to the loss
    assert float(np.sum(solution.p_injected)) == pytest.approx(loss, abs=1e-10)


def test_slack_absorbs_balance():
    case, solution = two_bus_solution(p_load=0.3, reactance=0.1, resistance=0.01, q_load=0.1)
    slack = 1
    assert solution.p_injected[slack] == pytest.approx(0.3 + total_losses(solution, case), abs=1e-8)


def test_pv_bus_holds_magnitude():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "generator"), Bus(2, "load"), Bus(3, "slack")),
        branches=(Branch(1, 2, 0.01, 0.05), Branch(2, 3, 0.01, 0.05)),
        loads=(Load(2, 0.4, 0.1),),
    )
    spec = make_spec(
        [0.3, -0.4, 0.0], [0.0, -0.1, 0.0], [PV, PQ, SLACK], v_setpoint=[1.02, 1.0, 1.0]
    )
    solution = solve_power_flow(case, spec)
    assert solution.converged
    assert solution.v[0] == pytest.approx(1.02, abs=1e-12)
    assert solution.p_injected[0] == pytest.approx(0.3, abs=1e-6)
    # reactive output at the PV bus is an outcome, not a specified injection
    assert abs(solution.q_injected[0]) > 0


def test_residual_certificate_at_solution():
    case = two_bus_case(0.1, 0.01, 0.4, 0.05)
    spec = make_spec([-0.4, 0.0], [-0.05, 0.0], [PQ, SLACK])
    solution = solve_power_flow(case, spec)
    assert solution.converged
    dp, dq = compute_mismatch(solution.v, solution.delta, spec.p, spec.q, build_admittance(case))
    assert abs(dp[0]) <= 1e-6
    assert abs(dq[0]) <= 1e-6
    assert solution.max_mismatch <= 1e-6


def test_warm_start_skips_iterations():
    case = two_bus_case(0.1, 0.01, 0.4, 0.05)
    spec = make_spec([-0.4, 0.0], [-0.05, 0.0], [PQ, SLACK])
    ybus = build_admittance(case)
    first = solve_power_flow(case, spec, ybus)
    again = solve_stack(spec, ybus, start=(first.v, first.delta))
    assert again.converged.tolist() == [True]
    assert again.iterations.tolist() == [0]


def test_infeasible_load_reports_nonconvergence():
    # far beyond the line's transfer capability; no solution exists
    case, solution = two_bus_solution(p_load=100.0, reactance=0.1)
    assert not solution.converged
    assert np.all(np.isfinite(solution.v))
    assert solution.max_mismatch > 1e-6


def test_iteration_cap_reports_nonconvergence(fixture_case):
    # A dispatch inside the bundled decision box whose flat-start flow is
    # still above tolerance when the solver's fixed step cap runs out.
    solution = solve_power_flow(fixture_case, capped_box_spec(fixture_case))
    assert not solution.converged
    assert solution.iterations == MAX_ITERATIONS == 50
    assert solution.max_mismatch > TOLERANCE
    assert np.all(np.isfinite(solution.v)) and np.all(np.isfinite(solution.delta))


def test_stack_member_failures_leave_the_others_bitwise():
    # One stack on the lossless two-bus feeder, one member per outcome:
    #   0: started at |V| = 0.5, angle 0, where the Jacobian is exactly singular
    #   1: an ordinary load, which converges
    #   2: far beyond the line's capability; its second step leaves |V| <= 0
    #   3: an infinite injection, whose Newton step is non-finite
    case = two_bus_case(reactance=0.1)
    ybus = build_admittance(case)
    loads = [0.5, 0.3, 100.0, math.inf]
    start_v = np.array([[0.5, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    start_delta = np.zeros((4, 2))
    singular = mismatch_jacobian(start_v[0], start_delta[0], ybus, np.array([0]), np.array([0]))
    assert singular[1].tolist() == [0.0, 0.0]
    spec = make_spec([[-p, 0.0] for p in loads], np.zeros((4, 2)), [PQ, SLACK])
    with pytest.raises(ValueError, match="one injection set"):
        solve_power_flow(case, spec, ybus)

    flows = solve_stack(spec, ybus, start=(start_v, start_delta))
    assert flows.converged.tolist() == [False, True, False, False]
    assert flows.iterations.tolist()[0::3] == [0, 0]
    assert np.array_equal(flows.v[0], start_v[0])
    for k, p_load in enumerate(loads):
        alone = solve_stack(
            make_spec([-p_load, 0.0], [0.0, 0.0], [PQ, SLACK]),
            ybus,
            start=(start_v[k], start_delta[k]),
        )
        assert alone.converged[0] == flows.converged[k]
        assert alone.iterations[0] == flows.iterations[k]
        assert alone.max_mismatch[0] == flows.max_mismatch[k]
        assert np.array_equal(alone.v[0], flows.v[k])
        assert np.array_equal(alone.delta[0], flows.delta[k])
        for name in INJECTION_FIELDS:
            assert bits(getattr(alone, name)[0]) == bits(getattr(flows, name)[k])
    # every member's injections are those of its final state, for the
    # failed members their last usable one
    minus_p, minus_q = compute_mismatch(flows.v, flows.delta, 0.0, 0.0, ybus)
    assert np.array_equal(flows.p_injected, -minus_p) and np.array_equal(flows.q_injected, -minus_q)
    assert np.all(np.isfinite(flows.p_injected)) and np.all(np.isfinite(flows.q_injected))


def box_specs(case, count, seed):
    """Injections of `count` seeded points of the case's decision box."""
    lower, upper = np.array(decision_bounds(case)).T
    points = lower + np.random.default_rng(seed).uniform(size=(count, lower.size)) * (upper - lower)
    return [build_injections(case, DecisionVector.from_array(case, x)) for x in points]


def capped_box_spec(case):
    """The first of box_specs(case, 1000, seed=23) whose lone flat-start
    flow is still not converged after MAX_ITERATIONS steps."""
    ybus = build_admittance(case)
    for spec in box_specs(case, 1000, seed=23):
        solution = solve_power_flow(case, spec, ybus)
        if not solution.converged and solution.iterations == MAX_ITERATIONS:
            return spec
    pytest.fail("no flow of the seeded decision box runs to the iteration cap")


def stack_of(specs):
    return InjectionSpec(
        np.array([s.p for s in specs]), np.array([s.q for s in specs]), specs[0].roles, specs[0].v_setpoint
    )


@pytest.mark.parametrize("unity", [False, True], ids=["bundled", "unity-power-factor"])
def test_converging_box_flows_need_no_more_than_the_quick_cap(fixture_case, unity):
    # The decision box that evaluate_fitness scores, generators held as PQ
    # at their reactive outputs: some of its flows converge and some do not,
    # and every one that converges does so within 15 steps (the step count
    # the former quick cap stopped flows at).
    case = unity_power_factor_case(fixture_case) if unity else fixture_case
    flows = solve_stack(stack_of(box_specs(case, 1000, seed=23)), build_admittance(case))
    assert 0 < np.count_nonzero(flows.converged) < 1000
    assert np.max(flows.iterations[flows.converged]) <= 15


def per_member_stack(case):
    """The reference flow's roles with 40 members, each with its own slack
    and generator voltage setpoints and compensator outputs."""
    base = build_injections(case)
    held = np.flatnonzero(base.roles != PQ)
    comps = [case.index_of(c.bus) for c in case.compensators]
    rng = np.random.default_rng(41)
    v_set = np.repeat(base.v_setpoint[None, :], 40, axis=0)
    v_set[:, held] = rng.uniform(0.9, 1.1, size=(40, held.size))
    q = np.repeat(base.q[None, :], 40, axis=0)
    q[:, comps] += rng.uniform(0.0, 0.3, size=(40, len(comps)))
    p = np.repeat(base.p[None, :], 40, axis=0)
    return InjectionSpec(p, q, base.roles, v_set)


def test_stack_with_per_member_setpoints_equals_lone_solves(fixture_case):
    # Every member of the stack ends at the bits of its lone solve.
    spec = per_member_stack(fixture_case)
    p, q, v_set = spec.p, spec.q, spec.v_setpoint
    held = np.flatnonzero(spec.roles != PQ)
    ybus = build_admittance(fixture_case)
    flows = solve_stack(spec, ybus)
    assert np.all(flows.converged)
    assert np.array_equal(flows.v[:, held], v_set[:, held])
    for k in range(40):
        alone = solve_power_flow(fixture_case, InjectionSpec(p[k], q[k], spec.roles, v_set[k]), ybus)
        assert alone.converged == flows.converged[k]
        assert alone.iterations == flows.iterations[k]
        assert alone.max_mismatch == flows.max_mismatch[k]
        assert np.array_equal(alone.v, flows.v[k])
        assert np.array_equal(alone.delta, flows.delta[k])
        for name in INJECTION_FIELDS:
            assert bits(getattr(alone, name)) == bits(getattr(flows, name)[k])


def test_stack_without_a_start_starts_flat(fixture_case):
    spec = per_member_stack(fixture_case)
    ybus = build_admittance(fixture_case)
    default, flat = solve_stack(spec, ybus), solve_stack(spec, ybus, (1.0, 0.0))
    for field in dataclasses.fields(PowerFlowSolution):
        assert bits(getattr(default, field.name)) == bits(getattr(flat, field.name))


def test_total_losses_builds_no_admittance_matrix(fixture_case, monkeypatch):
    solution = solve_power_flow(fixture_case, build_injections(fixture_case))

    def refuse(case):
        raise AssertionError("total_losses built an admittance matrix")

    monkeypatch.setattr(powerflow, "build_admittance", refuse)
    assert total_losses(solution, fixture_case) == float(np.sum(solution.p_injected))


def test_lookups_on_an_unvalidated_case_name_the_unknown_bus():
    # Cases built in code skip validate_case, so each lookup of a bus
    # position must still raise CaseError, not KeyError.
    case, solution = two_bus_solution(0.5, 0.1)
    stray_branch = dataclasses.replace(case, branches=case.branches + (Branch(2, 99, 0.0, 0.1),))
    stray_load = dataclasses.replace(case, loads=case.loads + (Load(98, 0.1, 0.0),))
    stray_gen = dataclasses.replace(case, generators=(Generator(97, 0.1, 0.5, -0.3, 0.3, QUADRATIC, 0.07),))
    for call, bus in [
        (lambda: build_admittance(stray_branch), 99),
        (lambda: total_losses(solution, stray_branch), 99),
        (lambda: build_injections(stray_load), 98),
        (lambda: build_injections(stray_gen), 97),
    ]:
        with pytest.raises(CaseError, match=f"^unknown bus {bus}$"):
            call()


def test_total_losses_refuses_a_branch_model_that_disagrees_with_the_flow(fixture_case):
    solution = solve_power_flow(fixture_case, build_injections(fixture_case))
    assert total_losses(solution, fixture_case) == float(np.sum(solution.p_injected))
    skewed = dataclasses.replace(
        fixture_case,
        branches=tuple(dataclasses.replace(b, resistance=1.1 * b.resistance) for b in fixture_case.branches),
    )
    with pytest.raises(AssertionError, match="loss cross-check failed"):
        total_losses(solution, skewed)


def random_connected_case(rng, n):
    """Ring of n buses plus a random chord; mixed lines and transformers."""
    buses = tuple(
        Bus(i + 1, "slack" if i == n - 1 else "load") for i in range(n)
    )
    edges = [(i + 1, (i + 1) % n + 1) for i in range(n)]
    if n > 3 and rng.random() < 0.7:
        a, b = rng.choice(n, size=2, replace=False) + 1
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.append((int(a), int(b)))
    branches = []
    for f, t in edges:
        r = float(rng.uniform(0.01, 0.08))
        x = float(rng.uniform(0.05, 0.3))
        if rng.random() < 0.3:
            branches.append(Branch(f, t, r, x, tap_ratio=float(rng.uniform(0.9, 1.05))))
        else:
            branches.append(Branch(f, t, r, x, charging_susceptance=float(rng.uniform(0.0, 0.1))))
    return NetworkCase(base_mva=100.0, buses=buses, branches=tuple(branches))


def jacobian_fd_gap(case, rng):
    """Max |analytic - central difference| over a random interior state."""
    n = case.n
    ybus = build_admittance(case)
    roles = np.full(n, int(PQ))
    roles[n - 1] = int(SLACK)
    if n >= 4:
        roles[0] = int(PV)
    spec = make_spec(np.zeros(n), np.zeros(n), roles, v_setpoint=np.ones(n))
    pv = np.flatnonzero(roles == PV)
    pq = np.flatnonzero(roles == PQ)
    pvpq = np.concatenate([pv, pq])

    v = rng.uniform(0.95, 1.05, size=n)
    delta = rng.uniform(-0.3, 0.3, size=n)
    delta[n - 1] = 0.0

    def residual(x):
        d2 = delta.copy()
        v2 = v.copy()
        d2[pvpq] = x[: pvpq.size]
        v2[pq] = x[pvpq.size :]
        dp, dq = compute_mismatch(v2, d2, spec.p, spec.q, ybus)
        return np.concatenate([dp[pvpq], dq[pq]])

    x0 = np.concatenate([delta[pvpq], v[pq]])
    jac = mismatch_jacobian(v, delta, ybus, pvpq, pq)
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        # residual = spec - computed, so its derivative is -J
        fd[:, j] = (residual(x0 - step) - residual(x0 + step)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(jac))))
    return float(np.max(np.abs(jac - fd))) / scale


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for k in range(20):
        case = random_connected_case(rng, int(rng.integers(3, 7)))
        assert jacobian_fd_gap(case, rng) <= 1e-5


def diagonal_matrix_jacobian(v, delta, ybus, pvpq, pq):
    """Reference: dSbus_dV written with dense diagonal matrices,
    dS/d delta = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/d |V| = diag(V) conj(Y diag(u)) + conj(diag(I)) diag(u)."""

    def diag(x):
        out = np.zeros(x.shape + x.shape[-1:], dtype=x.dtype)
        out[..., np.arange(x.shape[-1]), np.arange(x.shape[-1])] = x
        return out

    volt = v * np.exp(1j * delta)
    y = ybus.matrix
    diag_v = diag(volt)
    diag_i = diag((y @ volt[..., None])[..., 0])
    diag_unit = diag(volt / np.abs(volt))
    ds_dangle = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
    ds_dvm = diag_v @ np.conj(y @ diag_unit) + np.conj(diag_i) @ diag_unit
    return np.block(
        [
            [ds_dangle[..., pvpq[:, None], pvpq].real, ds_dvm[..., pvpq[:, None], pq].real],
            [ds_dangle[..., pq[:, None], pvpq].imag, ds_dvm[..., pq[:, None], pq].imag],
        ]
    )


def random_states(case, with_pv, size, seed):
    """Bus index sets of the bundled reference (or dispatch) roles and a
    seeded stack of interior voltage states."""
    decision = None if with_pv else DecisionVector.from_array(case, np.zeros(len(decision_bounds(case))))
    roles = build_injections(case, decision).roles
    pv = np.flatnonzero(roles == PV)
    pq = np.flatnonzero(roles == PQ)
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.9, 1.1, size=(size, case.n))
    delta = rng.uniform(-0.4, 0.4, size=(size, case.n))
    return v, delta, np.concatenate([pv, pq]), pq


@pytest.mark.parametrize("size", [1, 7, 30])
@pytest.mark.parametrize("with_pv", [False, True], ids=["pq-only", "with-pv"])
def test_jacobian_matches_the_diagonal_matrix_form(fixture_case, with_pv, size):
    v, delta, pvpq, pq = random_states(fixture_case, with_pv, size, seed=size)
    assert (pvpq.size > pq.size) == with_pv
    ybus = build_admittance(fixture_case)
    jac = mismatch_jacobian(v, delta, ybus, pvpq, pq)
    ref = diagonal_matrix_jacobian(v, delta, ybus, pvpq, pq)
    assert jac.shape == ref.shape == (size, pvpq.size + pq.size, pvpq.size + pq.size)
    assert np.max(np.abs(jac - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("size", [2, 7, 33])
def test_stacked_jacobian_rows_equal_lone_jacobians_bitwise(fixture_case, size):
    v, delta, pvpq, pq = random_states(fixture_case, True, size, seed=100 + size)
    ybus = build_admittance(fixture_case)
    stacked = mismatch_jacobian(v, delta, ybus, pvpq, pq)
    for s in range(size):
        assert np.array_equal(stacked[s], mismatch_jacobian(v[s], delta[s], ybus, pvpq, pq))


def dense_broadcast_jacobian(v, delta, ybus, pvpq, pq):
    """Reference: the same per-entry expressions as mismatch_jacobian, formed
    at every (i, j) as (..., n, n) broadcasts and gathered by fancy indexing."""
    volt = np.asarray(v, float) * np.exp(1j * np.asarray(delta, float))
    y = ybus.matrix
    current_conj = np.conj((y @ volt[..., None])[..., 0])
    unit = volt / np.abs(volt)
    ds_dangle = -1j * volt[..., :, None] * np.conj(y * volt[..., None, :])
    ds_dvm = volt[..., :, None] * np.conj(y * unit[..., None, :])
    idx = np.arange(volt.shape[-1])
    ds_dangle[..., idx, idx] += 1j * volt * current_conj
    ds_dvm[..., idx, idx] += current_conj * unit

    k = pvpq.size
    jac = np.empty(volt.shape[:-1] + (k + pq.size,) * 2)
    jac[..., :k, :k] = ds_dangle[..., pvpq[:, None], pvpq].real
    jac[..., :k, k:] = ds_dvm[..., pvpq[:, None], pq].real
    jac[..., k:, :k] = ds_dangle[..., pq[:, None], pvpq].imag
    jac[..., k:, k:] = ds_dvm[..., pq[:, None], pq].imag
    return jac


@pytest.mark.parametrize("size", [1, 7, 30, 400])
@pytest.mark.parametrize("with_pv", [False, True], ids=["pq-only", "with-pv"])
def test_jacobian_equals_the_dense_broadcast_form_bitwise(fixture_case, with_pv, size):
    # the reference or dispatch roles, and the [pq, pv] magnitude columns
    # that dispatch's sensitivities ask for; at 400 members the pattern's
    # (S, nnz) temporaries pass numpy's 256 KiB in-place threshold
    v, delta, pvpq, pq = random_states(fixture_case, with_pv, size, seed=200 + size)
    ybus = build_admittance(fixture_case)
    pv = pvpq[: pvpq.size - pq.size]
    for columns in (pq, np.concatenate([pq, pv])):
        jac = mismatch_jacobian(v, delta, ybus, pvpq, columns)
        assert np.array_equal(jac, dense_broadcast_jacobian(v, delta, ybus, pvpq, columns))


def test_jacobian_on_random_networks_equals_the_dense_broadcast_form_bitwise():
    rng = np.random.default_rng(29)
    taps = chords = 0
    for _ in range(8):
        case = random_connected_case(rng, int(rng.integers(20, 61)))
        taps += sum(br.is_transformer for br in case.branches)
        chords += len(case.branches) - case.n
        ybus = build_admittance(case)
        roles = rng.choice([int(PQ), int(PV)], size=case.n, p=[0.7, 0.3])
        roles[case.n - 1] = int(SLACK)
        pq = np.flatnonzero(roles == PQ)
        pvpq = np.concatenate([np.flatnonzero(roles == PV), pq])
        for size in (1, 5):
            v = rng.uniform(0.9, 1.1, size=(size, case.n))
            delta = rng.uniform(-0.4, 0.4, size=(size, case.n))
            jac = mismatch_jacobian(v, delta, ybus, pvpq, pq)
            assert np.array_equal(jac, dense_broadcast_jacobian(v, delta, ybus, pvpq, pq))
    assert taps > 0 and chords > 0


def test_jacobian_refills_its_output_buffer(fixture_case, monkeypatch):
    v, delta, pvpq, pq = random_states(fixture_case, True, 14, seed=300)
    ybus = build_admittance(fixture_case)
    buffer = np.zeros((7, pvpq.size + pq.size, pvpq.size + pq.size))
    first = mismatch_jacobian(v[:7], delta[:7], ybus, pvpq, pq, out=buffer)
    assert first is buffer
    assert np.array_equal(buffer, mismatch_jacobian(v[:7], delta[:7], ybus, pvpq, pq))
    mismatch_jacobian(v[7:], delta[7:], ybus, pvpq, pq, out=buffer)
    assert np.array_equal(buffer, mismatch_jacobian(v[7:], delta[7:], ybus, pvpq, pq))

    # solve_stack hands every step leading rows of one buffer, also once
    # members have stopped at different steps
    outs = []

    def recording(*args, out, **kwargs):
        outs.append(out)
        return mismatch_jacobian(*args, out=out, **kwargs)

    monkeypatch.setattr(powerflow, "mismatch_jacobian", recording)
    flows = solve_stack(stack_of(box_specs(fixture_case, 20, seed=23)), ybus)
    assert len(set(flows.iterations.tolist())) > 1
    assert len(outs) == flows.iterations.max()
    assert all(out.base is outs[0].base and out.base.shape[0] == 20 for out in outs)


def test_fixture_flow_with_held_generator_voltages(fixture_case):
    # generators as PV at 1.0, compensators idle, loads as drawn
    case = fixture_case
    n = case.n
    p = np.zeros(n)
    q = np.zeros(n)
    roles = np.full(n, int(PQ))
    for load in case.loads:
        k = case.index_of(load.bus)
        p[k] -= load.p
        q[k] -= load.q
    for gen in case.generators:
        k = case.index_of(gen.bus)
        p[k] += gen.p_output
        roles[k] = int(PV)
    roles[case.index_of(case.slack_bus().id)] = int(SLACK)
    spec = make_spec(p, q, roles, v_setpoint=np.ones(n))
    solution = solve_power_flow(case, spec)
    assert solution.converged
    loss = total_losses(solution, case)
    assert loss == pytest.approx(branch_loss_sum(case, solution), abs=1e-10)
    assert float(np.sum(solution.p_injected)) == pytest.approx(loss, abs=1e-7)


def area_chain(rng, areas, size=24):
    """`areas` rings of `size` buses in a chain, each joined to the next by
    two tie lines; the slack is the first bus of the first area."""
    branches = []
    for a in range(areas):
        ids = [a * size + i + 1 for i in range(size)]
        for f, t in zip(ids, ids[1:] + ids[:1]):
            branches.append(Branch(f, t, float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.05, 0.2))))
        if a:
            branches += [Branch(i - size, i, 0.02, 0.08, 0.02) for i in (ids[0], ids[size // 2])]
    buses = tuple(Bus(i + 1, "slack" if i == 0 else "load") for i in range(areas * size))
    return NetworkCase(base_mva=100.0, buses=buses, branches=tuple(branches))


def random_flow_spec(rng, case, members=None):
    """Small random net injections, 30% PV buses with setpoints near 1.0,
    and the case's slack; `members` rows of injections when given."""
    n = case.n
    roles = rng.choice([int(PQ), int(PV)], size=n, p=[0.7, 0.3])
    roles[case.index_of(case.slack_bus().id)] = int(SLACK)
    shape = (n,) if members is None else (members, n)
    p, q = rng.uniform(-0.01, 0.01, shape), rng.uniform(-0.005, 0.005, shape)
    return make_spec(p, q, roles, v_setpoint=rng.uniform(0.98, 1.02, n))


def block_count(ybus, spec):
    pq = np.flatnonzero(spec.roles == PQ)
    pvpq = np.concatenate([np.flatnonzero(spec.roles == PV), pq])
    return len(powerflow._block_layout(ybus, pvpq, pq)[-1]) - 1


def test_block_solve_converges_like_the_dense_solve(monkeypatch):
    # Rings with a chord and chains of ring areas, all split into level
    # blocks, against the same Newton loop kept to one dense block.
    rng = np.random.default_rng(53)
    cases = [random_connected_case(rng, n) for n in (60, 100, 140, 200)]
    cases += [area_chain(rng, 3), area_chain(rng, 4)]
    specs = [random_flow_spec(rng, case) for case in cases]
    blocked = []
    for case, spec in zip(cases, specs):
        ybus = build_admittance(case)
        assert block_count(ybus, spec) >= powerflow.MIN_BLOCKS
        blocked.append(solve_stack(spec, ybus))
    monkeypatch.setattr(powerflow, "MIN_BLOCKS", math.inf)
    for case, spec, flows in zip(cases, specs, blocked):
        ybus = build_admittance(case)
        assert block_count(ybus, spec) == 1
        dense = solve_stack(spec, ybus)
        assert flows.converged.tolist() == dense.converged.tolist()
        assert flows.iterations.tolist() == dense.iterations.tolist()
        if dense.converged[0]:
            assert np.max(np.abs(flows.v - dense.v)) <= 1e-10
            assert np.max(np.abs(flows.delta - dense.delta)) <= 1e-10
    assert sum(bool(f.converged[0]) for f in blocked) >= 5


def test_block_solved_stack_members_equal_lone_solves_bitwise():
    # A four-area chain in level blocks: ordinary members, one far beyond
    # the network's capability and one with an infinite injection (whose
    # step is non-finite) all end at the bits of their lone solves.
    rng = np.random.default_rng(59)
    case = area_chain(rng, 4)
    ybus = build_admittance(case)
    spec = random_flow_spec(rng, case, members=6)
    p = np.array(spec.p)
    p[4, 30] = -50.0
    p[5, 40] = -math.inf
    spec = make_spec(p, spec.q, spec.roles, spec.v_setpoint)
    assert block_count(ybus, spec) >= powerflow.MIN_BLOCKS

    flows = solve_stack(spec, ybus)
    assert flows.converged.tolist() == [True] * 4 + [False] * 2
    assert flows.iterations[5] == 0
    for k in range(6):
        alone = solve_stack(make_spec(p[k], spec.q[k], spec.roles, spec.v_setpoint), ybus)
        assert alone.converged[0] == flows.converged[k]
        assert alone.iterations[0] == flows.iterations[k]
        assert alone.max_mismatch[0] == flows.max_mismatch[k]
        assert np.array_equal(alone.v[0], flows.v[k])
        assert np.array_equal(alone.delta[0], flows.delta[k])
        for name in INJECTION_FIELDS:
            assert bits(getattr(alone, name)[0]) == bits(getattr(flows, name)[k])


def dense_newton_steps(jac, residual, blocks):
    """Reference: one stacked LAPACK solve of the whole Jacobian, repeated
    member by member when one is singular, which then gets a NaN step."""
    try:
        return np.linalg.solve(jac, residual[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full(residual.shape, np.nan)
        for k in range(len(jac)):
            try:
                steps[k] = np.linalg.solve(jac[k], residual[k])
            except np.linalg.LinAlgError:
                pass
        return steps


@pytest.mark.parametrize("stack", ["per-member", "decision-box"])
def test_bundled_case_is_one_block_and_solves_densely(fixture_case, monkeypatch, stack):
    ybus = build_admittance(fixture_case)
    spec = per_member_stack(fixture_case) if stack == "per-member" else stack_of(box_specs(fixture_case, 200, seed=23))
    pq = np.flatnonzero(spec.roles == PQ)
    pvpq = np.concatenate([np.flatnonzero(spec.roles == PV), pq])
    layout = powerflow._block_layout(ybus, pvpq, pq)
    assert layout[3:] == (None, None, (0, pvpq.size + pq.size))
    flows = solve_stack(spec, ybus)
    monkeypatch.setattr(powerflow, "_newton_steps", dense_newton_steps)
    reference = solve_stack(spec, ybus)
    for field in dataclasses.fields(PowerFlowSolution):
        assert bits(getattr(flows, field.name)) == bits(getattr(reference, field.name))


def test_singular_block_falls_back_to_the_dense_solve():
    # Block-tridiagonal 8 x 8 members in blocks of two:
    #   0: first diagonal block exactly singular, the matrix is not
    #   1: first diagonal block with a subnormal pivot, so the block
    #      elimination overflows and its step is not finite
    #   2: an ordinary member
    #   3: a zero row, singular as a whole
    rng = np.random.default_rng(67)
    bounds = (0, 2, 4, 6, 8)
    block = np.repeat(np.arange(4), 2)
    tridiagonal = np.abs(block[:, None] - block[None, :]) <= 1
    jac = rng.uniform(-1.0, 1.0, size=(4, 8, 8)) * tridiagonal + 3.0 * np.eye(8)
    jac[0, :2, :2] = 1.0
    jac[1, :2, :2] = [[1.0, 0.0], [0.0, 1e-310]]
    jac[3, 5] = 0.0
    residual = rng.uniform(-1.0, 1.0, size=(4, 8))
    blocks = (None, None, bounds)

    with pytest.raises(np.linalg.LinAlgError):
        powerflow._block_solve(jac[:1], residual[:1], bounds)
    assert not np.all(np.isfinite(powerflow._block_solve(jac[1:2], residual[1:2], bounds)))
    assert np.linalg.matrix_rank(jac[3]) == 7

    steps = powerflow._newton_steps(jac, residual, blocks)
    for k in (0, 1):
        assert np.array_equal(steps[k], np.linalg.solve(jac[k], residual[k]))
    assert np.array_equal(steps[2], powerflow._newton_steps(jac[2:3], residual[2:3], blocks)[0])
    assert np.max(np.abs(steps[2] - np.linalg.solve(jac[2], residual[2]))) <= 1e-12
    assert np.all(np.isnan(steps[3]))
    # without the singular members the stacked block solve returns, and
    # only its non-finite member is solved again
    pair = powerflow._newton_steps(jac[1:3], residual[1:3], blocks)
    assert np.array_equal(pair, steps[1:3])
