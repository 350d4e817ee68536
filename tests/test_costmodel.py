"""Reactive support cost model.

Frozen expectations come from evaluating the definitions by hand. For the
study machines (quadratic 45 + 750 p + 450 p^2, capability 0.9, profit
rate 0.07):

    q = 0.9  ->  (C(0.9) - C(0)) * 0.07 = 1039.5 * 0.07 = 72.765
    q = 0.4  ->  9.963146821432616
    q = 0.12 ->  0.8754834459466998
    q = 0.07 ->  0.29748346230721157   (prints as 0.2975)

Depreciation: 6200 $/MVAr over 30 years at two-thirds duty is
6200 / (30 * 8760 * 2/3) = 0.03538812785388128 $/MVArh.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import QUADRATIC, compensated_case
from ropf.costmodel import (
    compensator_cost,
    depreciation_rate,
    dispatchable_generators,
    generator_opportunity_cost,
    total_reactive_cost,
)
from ropf.dispatch import decision_bounds, unity_power_factor_case
from ropf.netmodel import Bus, Branch, Compensator, Generator, NetworkCase

STUDY_GEN = Generator(1, 0.74, 0.9, -0.5, 0.4, QUADRATIC, 0.07)
WIDE_COMP = Compensator(3, 0.0, 1.0, 0.0354)


def test_opportunity_cost_full_capability():
    assert generator_opportunity_cost(STUDY_GEN, 0.9) == pytest.approx(72.765, abs=1e-9)


def test_opportunity_cost_frozen_points():
    assert generator_opportunity_cost(STUDY_GEN, 0.4) == pytest.approx(
        9.963146821432616, rel=1e-12
    )
    assert generator_opportunity_cost(STUDY_GEN, 0.12) == pytest.approx(
        0.8754834459466998, rel=1e-12
    )
    assert generator_opportunity_cost(STUDY_GEN, 0.07) == pytest.approx(
        0.29748346230721157, rel=1e-12
    )


def test_opportunity_cost_prints_as_published_rounding():
    assert round(generator_opportunity_cost(STUDY_GEN, 0.07), 4) == 0.2975


def test_opportunity_cost_zero_at_origin():
    assert generator_opportunity_cost(STUDY_GEN, 0.0) == 0.0


def test_opportunity_cost_even_in_q():
    for q in (0.05, 0.2, 0.4):
        assert generator_opportunity_cost(STUDY_GEN, q) == generator_opportunity_cost(
            STUDY_GEN, -q
        )


def test_opportunity_cost_rejects_overload():
    with pytest.raises(ValueError, match="capability"):
        generator_opportunity_cost(STUDY_GEN, 0.91)


def test_depreciation_rate_study_bank():
    rate = depreciation_rate(6200.0, 30.0, 2.0 / 3.0)
    assert rate == pytest.approx(0.03538812785388128, rel=1e-12)
    assert rate == pytest.approx(0.0354, abs=1e-4)


def test_depreciation_rate_other_parameterizations():
    assert depreciation_rate(6000.0, 6.0, 1.0) == pytest.approx(
        0.1141552511415525, rel=1e-12
    )
    # halving the duty doubles the hourly rate
    assert depreciation_rate(6200.0, 30.0, 1.0 / 3.0) == pytest.approx(
        2 * depreciation_rate(6200.0, 30.0, 2.0 / 3.0), rel=1e-12
    )


def test_depreciation_rate_rejects_bad_inputs():
    for args in ((0.0, 30.0, 0.5), (6200.0, 0.0, 0.5), (6200.0, 30.0, 0.0), (6200.0, 30.0, 1.5)):
        with pytest.raises(ValueError):
            depreciation_rate(*args)


def test_compensator_cost_study_points():
    assert compensator_cost(WIDE_COMP, 0.17, 100.0) == pytest.approx(0.6018, abs=1e-12)
    assert compensator_cost(WIDE_COMP, 0.56, 100.0) == pytest.approx(1.9824, abs=1e-12)


def test_compensator_cost_enforces_limits():
    comp = Compensator(3, 0.0, 0.3, 0.0354)
    with pytest.raises(ValueError, match="outside"):
        compensator_cost(comp, 0.31, 100.0)
    with pytest.raises(ValueError, match="outside"):
        compensator_cost(comp, -0.01, 100.0)


def test_generator_properties_random_parameterizations():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        s_max = float(rng.uniform(0.3, 1.5))
        gen = Generator(
            1,
            p_output=0.0,
            s_max=s_max,
            q_min=-s_max,
            q_max=s_max,
            cost=type(QUADRATIC)(
                float(rng.uniform(0.0, 100.0)),
                float(rng.uniform(1.0, 1000.0)),
                float(rng.uniform(1.0, 600.0)),
            ),
            profit_rate=float(rng.uniform(0.01, 1.0)),
        )
        q1, q2 = np.sort(rng.uniform(0.0, s_max, size=2))
        c0 = generator_opportunity_cost(gen, 0.0)
        c1 = generator_opportunity_cost(gen, float(q1))
        c2 = generator_opportunity_cost(gen, float(q2))
        assert c0 == 0.0
        assert c1 == generator_opportunity_cost(gen, -float(q1))
        assert 0.0 <= c1 <= c2 + 1e-12


def test_compensator_linearity_random_parameterizations():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        rate = float(rng.uniform(0.001, 0.5))
        comp = Compensator(3, 0.0, 10.0, rate)
        base = float(rng.uniform(50.0, 200.0))
        qa = float(rng.uniform(0.0, 4.0))
        qb = float(rng.uniform(0.0, 4.0))
        alpha = float(rng.uniform(0.0, 2.0))
        ca = compensator_cost(comp, qa, base)
        cb = compensator_cost(comp, qb, base)
        assert compensator_cost(comp, qa + qb, base) == pytest.approx(ca + cb, rel=1e-12, abs=1e-12)
        assert compensator_cost(comp, alpha * qa, base) == pytest.approx(alpha * ca, rel=1e-12, abs=1e-12)


def test_dispatchable_excludes_slack_machine():
    case = NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "generator"), Bus(2, "slack")),
        branches=(Branch(1, 2, 0.01, 0.05),),
        generators=(
            Generator(1, 0.2, 0.5, -0.3, 0.3, QUADRATIC, 0.07),
            Generator(2, 0.2, 0.5, -0.3, 0.3, QUADRATIC, 0.07),
        ),
    )
    assert [g.bus for g in dispatchable_generators(case)] == [1]


def test_total_cost_breakdown_additivity(fixture_case):
    # one cost per source, non-slack generators first, then compensators
    costs = total_reactive_cost(fixture_case, (0.1, 0.05, 0.2, 0.3))
    assert isinstance(costs, tuple)
    gens = dispatchable_generators(fixture_case)
    comps = fixture_case.compensators
    assert costs == (
        generator_opportunity_cost(gens[0], 0.1),
        generator_opportunity_cost(gens[1], 0.05),
        compensator_cost(comps[0], 0.2, fixture_case.base_mva),
        compensator_cost(comps[1], 0.3, fixture_case.base_mva),
    )


def test_total_cost_study_dispatch_vector(fixture_case):
    # the printed study dispatch; its compensators need more headroom than
    # the case file's 0.3 p.u. banks, so widen just those limits here
    case = fixture_case
    wide = NetworkCase(
        base_mva=case.base_mva,
        buses=case.buses,
        branches=case.branches,
        generators=case.generators,
        compensators=tuple(
            Compensator(c.bus, 0.0, 1.0, c.rate) for c in case.compensators
        ),
        loads=case.loads,
    )
    costs = total_reactive_cost(wide, (0.12, 0.07, 0.17, 0.56))
    assert costs[0] == pytest.approx(0.8754834459466998, rel=1e-12)
    assert costs[1] == pytest.approx(0.29748346230721157, rel=1e-12)
    assert costs[2] == pytest.approx(0.6018, abs=1e-12)
    assert costs[3] == pytest.approx(1.9824, abs=1e-12)
    assert sum(costs, 0.0) == pytest.approx(3.757166908253912, rel=1e-12)


def test_total_cost_validates_lengths_and_limits(fixture_case):
    with pytest.raises(ValueError, match="expected 4 source outputs, got 3"):
        total_reactive_cost(fixture_case, (0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="generator at bus .* outside"):
        total_reactive_cost(fixture_case, (0.1, 0.9, 0.1, 0.1))
    with pytest.raises(ValueError, match="compensator at bus .* outside"):
        total_reactive_cost(fixture_case, (0.1, 0.1, 0.1, 0.9))


def test_breakdown_on_compensated_chain():
    case = compensated_case()
    costs = total_reactive_cost(case, (0.1, 0.15))
    assert len(costs) == 2
    expect_comp = 0.0354 * 0.15 * 100.0
    assert costs[1] == pytest.approx(expect_comp, rel=1e-12)
    s = case.generators[0].s_max
    gap = QUADRATIC(s) - QUADRATIC(math.sqrt(s * s - 0.1 * 0.1))
    assert costs[0] == pytest.approx(gap * 0.07, rel=1e-12)


@pytest.mark.parametrize("unity", [False, True], ids=["bundled", "unity-power-factor"])
def test_swarm_columns_cost_what_each_row_costs_alone(fixture_case, unity):
    # swarm_fitness prices the columns of a swarm, run_ropf one decision of
    # Python floats; both must give the same bits, per source and summed
    case = unity_power_factor_case(fixture_case) if unity else fixture_case
    lower, upper = np.array(decision_bounds(case)).T
    x = lower + np.random.default_rng(41).uniform(size=(200, lower.size)) * (upper - lower)
    columns = total_reactive_cost(case, x.T)
    total = sum(columns, 0.0)
    for k, row in enumerate(x):
        alone = total_reactive_cost(case, tuple(map(float, row)))
        assert tuple(c[k] for c in columns) == alone
        assert total[k] == sum(alone, 0.0)
