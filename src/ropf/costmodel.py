"""Reactive support costs.

A generator asked for reactive output q must back its active output away
from full apparent capability; its price is the lost-profit opportunity
cost. A compensator is paid a flat depreciation rate per MVArh. All costs
are $/h; reactive quantities are per-unit, converted with the case MVA base
where a rate is quoted per MVArh. The cost functions take one output or an
array of outputs (one per swarm member) and apply the same arithmetic
elementwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .netmodel import Compensator, Generator, NetworkCase

__all__ = [
    "compensator_cost",
    "depreciation_rate",
    "dispatchable_generators",
    "generator_opportunity_cost",
    "total_reactive_cost",
]

HOURS_PER_YEAR = 365 * 24
# How far (p.u.) an output may pass its limit, as rounding, before a cost
# function refuses it.
_LIMIT_TOLERANCE = 1e-12


def generator_opportunity_cost(gen: Generator, q: float | np.ndarray) -> float | np.ndarray:
    """Opportunity cost, $/h, of holding reactive output q on a machine.

    The machine could sell active power up to s_max; producing q caps the
    active side at sqrt(s_max**2 - q**2). The cost is the active-cost gap
    between those outputs scaled by the profit rate. Even in q, zero at
    q = 0, increasing in |q|.
    """
    if np.any(np.abs(q) > gen.s_max + _LIMIT_TOLERANCE):
        raise ValueError(f"|q| = {np.max(np.abs(q))} exceeds apparent capability {gen.s_max}")
    p_capped = np.sqrt(np.maximum(gen.s_max * gen.s_max - q * q, 0.0))
    return (gen.cost(gen.s_max) - gen.cost(p_capped)) * gen.profit_rate


def compensator_cost(
    comp: Compensator, q: float | np.ndarray, base_mva: float
) -> float | np.ndarray:
    """Payment to a compensator, $/h: rate ($/MVArh) times MVAr supplied."""
    if np.any((q < comp.q_min - _LIMIT_TOLERANCE) | (q > comp.q_max + _LIMIT_TOLERANCE)):
        raise ValueError(
            f"compensator at bus {comp.bus}: q = {q} outside [{comp.q_min}, {comp.q_max}]"
        )
    return comp.rate * q * base_mva


def depreciation_rate(investment: float, lifespan_years: float, working_rate: float) -> float:
    """Capital cost per MVArh: investment spread over working hours.

    investment is $/MVAr installed, lifespan in years, working_rate the
    fraction of calendar time the device is in service.
    """
    if investment <= 0 or lifespan_years <= 0 or not (0 < working_rate <= 1):
        raise ValueError("investment and lifespan must be positive, working rate in (0, 1]")
    return investment / (lifespan_years * HOURS_PER_YEAR * working_rate)


def dispatchable_generators(case: NetworkCase) -> tuple[Generator, ...]:
    """Generators priced for reactive support: every machine not at the slack bus.

    The slack machine absorbs the system balance and is not a priced
    participant.
    """
    slack_id = case.slack_bus().id
    return tuple(g for g in case.generators if g.bus != slack_id)


def total_reactive_cost(
    case: NetworkCase, q: Sequence[float | np.ndarray]
) -> tuple[float | np.ndarray, ...]:
    """Per-source reactive support costs of a dispatch, $/h, in source order.

    q holds one output per source in the decision vector's order: the
    non-slack generators, then the compensators, both in case order. Each
    output must lie within its source limits and may be an array of outputs,
    one per swarm member, all of one shape (the columns of an (S, D) swarm,
    x.T). The objective value is the sum of the costs, taken left to right.
    """
    gens = dispatchable_generators(case)
    n_sources = len(gens) + len(case.compensators)
    if len(q) != n_sources:
        raise ValueError(f"expected {n_sources} source outputs, got {len(q)}")
    costs = []
    for gen, q_gen in zip(gens, q):
        if np.any((q_gen < gen.q_min - _LIMIT_TOLERANCE) | (q_gen > gen.q_max + _LIMIT_TOLERANCE)):
            raise ValueError(
                f"generator at bus {gen.bus}: q = {q_gen} outside [{gen.q_min}, {gen.q_max}]"
            )
        costs.append(generator_opportunity_cost(gen, q_gen))
    for comp, q_comp in zip(case.compensators, q[len(gens):]):
        costs.append(compensator_cost(comp, q_comp, case.base_mva))
    return tuple(costs)
