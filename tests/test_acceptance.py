"""Acceptance gate for the reactive dispatch engine.

One test per criterion, each a single pass/fail line under pytest -v:

 1. depreciation rate pinned at 0.0354 $/MVArh (±0.0001)
 2. compensator cost cross-check against the published per-source costs
 3. solver equals the two-bus closed form on 100 random instances (1e-6),
    with the dual-route loss identity within 1e-8 on every converged solve
 4. analytic Jacobian vs central finite differences (rel. 1e-5, 20 cases)
 5. bundled-case baseline loss vs the published 0.100682 p.u. (±15%), with
    the documented out-of-band escape: the baseline is reported and the
    property checks must all hold
 6. ten consecutive seeds: loss falls, the feasibility flag agrees with the
    band violation recomputed from the reported voltages, no seed beats the
    network's violation floor, and at least 9/10 seeds land within 25% of
    the penalty optimum (both references found by an independent global
    search and re-checked through the program in the test)
 7. payment bookkeeping: exact per-source additivity, the published-total
    soft comparison, compensator subtotal within ±0.01 $/h
 8. swarm sanity on the 3-d sphere at shipped defaults: at least 9/10
    seeds under 1e-3 in 200 iterations, monotone histories, bit-identical
    reruns
 9. cost-model properties over 1000 random parameterizations
10. full default CLI run on the bundled case completes within 60 s

Runs at shipped default parameters; the ten-seed fixture (a session fixture
in conftest.py, shared with the dispatch tests) takes most of the suite's
wall time.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_env
from test_powerflow import branch_loss_sum, jacobian_fd_gap, random_connected_case, two_bus_solution
from ropf.costmodel import (
    compensator_cost,
    depreciation_rate,
    generator_opportunity_cost,
)
from ropf.dispatch import (
    VOLTAGE_WEIGHT,
    DecisionVector,
    baseline_loss,
    build_injections,
    evaluate_fitness,
    run_pricing,
    voltage_penalty,
)
from ropf.netmodel import Compensator, CostQuadratic, Generator, NetworkCase
from ropf.powerflow import solve_power_flow, total_losses
from ropf.pso import PsoParams, optimize

PUBLISHED = {
    "loss_before": 0.100682,
    "loss_after": 0.0839515,
    "total_cost": 2.8807,
    "comp_costs": (0.6016, 1.9816),
    "comp_subtotal": 2.5832,
    "comp_dispatch": (0.17, 0.56),
}

# Reference optima of the bundled case over decision_bounds(load_case()),
# found by an independent global search that calls the program's own
# solve_power_flow:
#   scipy.optimize.differential_evolution(f, decision_bounds(case), seed=s,
#       popsize=20, maxiter=300, tol=1e-12, polish=True), s = 1 and 2
# (scipy 1.17.1, numpy 2.4.6, Python 3.11.7). For VIOLATION_FLOOR, f is
# voltage_penalty of the flow at x, plus 1e6 where the flow does not
# converge; for PENALTY_OPTIMUM, f is evaluate_fitness at the shipped
# VOLTAGE_WEIGHT. Both seeds agree on both minima to 1e-12. The minimizers
# below are rounded; test_optimization_improvement_and_feasibility
# re-evaluates them through the program, so a solver or cost-model change
# that moves these values fails there first.
VIOLATION_FLOOR = 9.2077909e-5
VIOLATION_MINIMIZER = (-0.12554, 0.26228, 0.17473, 0.3)  # buses 10, 11, 13 at 0.944-0.947
PENALTY_OPTIMUM = 3.2549347
PENALTY_MINIMIZER = (0.03154, 0.04463, 0.23435, 0.3)


@pytest.fixture(scope="module")
def settlement(fixture_case):
    return run_pricing(fixture_case, params=PsoParams(seed=1))


def band_violation(case: NetworkCase, voltages) -> tuple[float, list[tuple[int, float]]]:
    """Quadratic voltage-band violation of a reported voltage profile, and
    the buses below their band with their voltages."""
    v = np.asarray(voltages, dtype=float)
    v_min = np.array([b.v_min for b in case.buses])
    v_max = np.array([b.v_max for b in case.buses])
    over = np.maximum(0.0, v - v_max)
    under = np.maximum(0.0, v_min - v)
    low = [(b.id, round(float(x), 4)) for b, x, lo in zip(case.buses, v, v_min) if x < lo]
    return float(np.sum(over * over + under * under)), low


def test_depreciation_rate_pinned():
    assert depreciation_rate(6200.0, 30.0, 2.0 / 3.0) == pytest.approx(0.0354, abs=1e-4)


def test_compensator_cost_cross_check():
    comp = Compensator(3, 0.0, 1.0, 0.0354)
    for q, published in zip(PUBLISHED["comp_dispatch"], PUBLISHED["comp_costs"]):
        assert compensator_cost(comp, q, 100.0) == pytest.approx(published, abs=2e-3)


def test_power_flow_closed_form_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = float(rng.uniform(0.1, 0.7))
        x = float(rng.uniform(0.05, 0.3))
        case, solution = two_bus_solution(p_load=p, reactance=x)
        assert solution.converged
        delta = 0.5 * math.asin(-2.0 * x * p)
        assert solution.delta[0] == pytest.approx(delta, abs=1e-6)
        assert solution.v[0] == pytest.approx(math.cos(delta), abs=1e-6)
        gap = abs(float(np.sum(solution.p_injected)) - branch_loss_sum(case, solution))
        assert gap <= 1e-8


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        case = random_connected_case(rng, int(rng.integers(3, 7)))
        assert jacobian_fd_gap(case, rng) <= 1e-5


def test_baseline_loss_regression(fixture_case, ten_seed_runs):
    solution, loss = baseline_loss(fixture_case)
    target = PUBLISHED["loss_before"]
    in_band = abs(loss - target) <= 0.15 * target
    print(f"[ACCEPTANCE] baseline loss {loss:.6f} p.u. ({(loss - target) / target:+.1%} vs {target})")
    if not in_band:
        # out-of-band escape: every baseline property must hold and the
        # deviation is part of the shipped report (loss_before field)
        assert solution.converged
        assert solution.max_mismatch <= 1e-6
        assert loss == pytest.approx(total_losses(solution, fixture_case), abs=1e-10)
        assert loss == pytest.approx(branch_loss_sum(fixture_case, solution), abs=1e-8)
        assert 0.0 < loss < 1.0
        assert ten_seed_runs[0].loss_before == pytest.approx(loss, rel=1e-12)


def test_optimization_improvement_and_feasibility(fixture_case, ten_seed_runs):
    for report in ten_seed_runs:
        assert report.converged
        assert report.loss_after < report.loss_before, (
            f"seed {report.seed}: loss went from {report.loss_before:.6f} "
            f"to {report.loss_after:.6f}"
        )
    target = PUBLISHED["loss_after"]
    in_band = sum(1 for r in ten_seed_runs if abs(r.loss_after - target) <= 0.15 * target)
    losses = [round(r.loss_after, 5) for r in ten_seed_runs]
    print(
        f"[ACCEPTANCE] loss_after per seed: {losses}; "
        f"{in_band}/10 inside {target} +/-15%"
    )
    # the references still hold for the program as it stands
    floor_flow = solve_power_flow(
        fixture_case,
        build_injections(fixture_case, DecisionVector.from_array(fixture_case, VIOLATION_MINIMIZER)),
    )
    assert floor_flow.converged
    assert voltage_penalty(floor_flow, fixture_case) == pytest.approx(VIOLATION_FLOOR, rel=1e-4)
    optimum = evaluate_fitness(fixture_case, DecisionVector.from_array(fixture_case, PENALTY_MINIMIZER))
    assert optimum == pytest.approx(PENALTY_OPTIMUM, rel=1e-4)

    weight = VOLTAGE_WEIGHT
    objectives = []
    outside = []
    for report in ten_seed_runs:
        violation, low = band_violation(fixture_case, report.bus_voltages)
        assert report.feasible == (violation == 0.0), (
            f"seed {report.seed}: flagged feasible={report.feasible} with a "
            f"recomputed band violation of {violation:.4e}"
        )
        assert violation >= VIOLATION_FLOOR * (1.0 - 1e-6), (
            f"seed {report.seed}: band violation {violation:.4e} is below the "
            f"floor {VIOLATION_FLOOR:.4e} of the global search, which would "
            "disprove that no dispatch of this case keeps every bus in band"
        )
        objective = report.total_payment + weight * violation
        assert objective >= PENALTY_OPTIMUM * (1.0 - 1e-6), (
            f"seed {report.seed}: penalized objective {objective:.6f} is below "
            f"the global optimum {PENALTY_OPTIMUM}"
        )
        objectives.append(objective)
        if objective > 1.25 * PENALTY_OPTIMUM:
            outside.append(
                f"seed {report.seed} at {objective:.4f} "
                f"({objective / PENALTY_OPTIMUM:.2f}x), buses below band: {low}"
            )
    ratios = [round(o / PENALTY_OPTIMUM, 3) for o in objectives]
    print(
        f"[ACCEPTANCE] penalized objective per seed / optimum {PENALTY_OPTIMUM}: "
        f"{ratios}; {10 - len(outside)}/10 within 25%"
    )
    assert len(outside) <= 1, (
        f"{len(outside)}/10 seeds end more than 25% above the penalty "
        f"optimum {PENALTY_OPTIMUM} (cost + {weight:g} x band violation; "
        f"band-violation floor {VIOLATION_FLOOR:.4e}): " + "; ".join(outside)
    )


def test_payment_bookkeeping(settlement):
    report, payments = settlement
    assert report.total_payment == pytest.approx(sum(report.cost_per_source), abs=1e-9)
    assert payments.total == pytest.approx(
        sum(payments.generator_payments) + sum(payments.compensator_payments), abs=1e-9
    )
    comp = Compensator(3, 0.0, 1.0, 0.0354)
    subtotal = sum(
        compensator_cost(comp, q, 100.0) for q in PUBLISHED["comp_dispatch"]
    )
    assert subtotal == pytest.approx(PUBLISHED["comp_subtotal"], abs=0.01)
    target = PUBLISHED["total_cost"]
    deviation = (report.total_payment - target) / target
    print(
        f"[ACCEPTANCE] run total {report.total_payment:.4f} $/h vs published "
        f"{target} ({deviation:+.1%}; soft band +/-25%"
        f"{' met' if abs(deviation) <= 0.25 else ' missed'})"
    )


def test_swarm_sanity_sphere():
    def sphere(x):
        return np.sum(x * x, axis=1)

    bounds = [(-5.0, 5.0)] * 3
    hits = 0
    for seed in range(1, 11):
        result = optimize(sphere, bounds, PsoParams(swarm_size=20, max_iterations=200, seed=seed))
        hits += result.fitness < 1e-3
        assert all(
            b <= a + 1e-15 for a, b in zip(result.history, result.history[1:])
        ), f"seed {seed}: global best increased"
    assert hits >= 9, f"only {hits}/10 seeds reached 1e-3"
    again = [
        optimize(sphere, bounds, PsoParams(swarm_size=20, max_iterations=200, seed=1)).history
        for _ in range(2)
    ]
    assert again[0] == again[1]


def test_cost_model_properties():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s_max = float(rng.uniform(0.3, 1.5))
        gen = Generator(
            1, 0.0, s_max, -s_max, s_max,
            CostQuadratic(
                float(rng.uniform(0.0, 100.0)),
                float(rng.uniform(1.0, 1000.0)),
                float(rng.uniform(1.0, 600.0)),
            ),
            float(rng.uniform(0.01, 1.0)),
        )
        q1, q2 = np.sort(rng.uniform(0.0, s_max, size=2))
        assert generator_opportunity_cost(gen, 0.0) == 0.0
        c1 = generator_opportunity_cost(gen, float(q1))
        assert c1 == generator_opportunity_cost(gen, -float(q1))
        assert 0.0 <= c1 <= generator_opportunity_cost(gen, float(q2)) + 1e-12

        comp = Compensator(1, 0.0, 10.0, float(rng.uniform(0.001, 0.5)))
        base = float(rng.uniform(50.0, 200.0))
        qa, qb = float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0))
        assert compensator_cost(comp, qa + qb, base) == pytest.approx(
            compensator_cost(comp, qa, base) + compensator_cost(comp, qb, base),
            rel=1e-12, abs=1e-12,
        )


def test_cli_default_run_within_budget(fixture_path):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ropf", "ropf", str(fixture_path), "--output-format", "machine-readable"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"default run took {elapsed:.1f} s"
    # infeasibility of the bundled data maps to exit 3; the run must still
    # produce a complete report
    assert proc.returncode in (0, 3), proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loss_after_pu"] < doc["loss_before_pu"]
    assert len(doc["sources"]) == 4
    print(f"[ACCEPTANCE] default CLI run finished in {elapsed:.1f} s")
