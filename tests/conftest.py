"""Shared fixtures: the bundled study case plus small hand-built networks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from ropf.data import case_text, load_case
from ropf.netmodel import (
    Branch,
    Bus,
    Compensator,
    CostQuadratic,
    Generator,
    Load,
    NetworkCase,
)

QUADRATIC = CostQuadratic(45.0, 750.0, 450.0)


def two_bus_case(
    reactance: float = 0.1,
    resistance: float = 0.0,
    p_load: float = 0.5,
    q_load: float = 0.0,
) -> NetworkCase:
    """Single line feeding one load from the slack machine."""
    return NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "load"), Bus(2, "slack")),
        branches=(Branch(1, 2, resistance, reactance),),
        loads=(Load(1, p_load, q_load),),
    )


def three_bus_case(p_load: float = 0.1, q_load: float = 0.02) -> NetworkCase:
    """Stiff generator-load-slack chain; comfortably inside the voltage band."""
    return NetworkCase(
        base_mva=100.0,
        buses=(Bus(1, "generator"), Bus(2, "load"), Bus(3, "slack")),
        branches=(Branch(1, 2, 0.01, 0.05), Branch(2, 3, 0.01, 0.05)),
        generators=(Generator(1, 0.2, 0.5, -0.3, 0.3, QUADRATIC, 0.07),),
        loads=(Load(2, p_load, q_load),),
    )


def compensated_case() -> NetworkCase:
    """Three-bus chain with a compensator at the load bus."""
    base = three_bus_case()
    return NetworkCase(
        base_mva=base.base_mva,
        buses=(Bus(1, "generator"), Bus(2, "compensator"), Bus(3, "slack")),
        branches=base.branches,
        generators=base.generators,
        compensators=(Compensator(2, 0.0, 0.2, 0.0354),),
        loads=base.loads,
    )


def area_chain(case: NetworkCase, areas: int) -> NetworkCase:
    """`areas` copies of the bundled case in a row (the tiling of
    perfbench's grid workload, loads unscaled), each joined to the next by
    lines between their buses 14 and between their buses 9. Bus 14 of every
    copy after the first is a generator like the one at bus 2, scheduled at
    0.38 p.u., and copy 0 keeps the only slack bus."""
    stride = max(b.id for b in case.buses)
    template = next(g for g in case.generators if g.bus == 2)
    buses, branches, gens, comps, loads = [], [], [], [], []
    for a in range(areas):
        shift = a * stride
        for b in case.buses:
            kind = "generator" if a and b.id == 14 else b.kind
            buses.append(replace(b, id=b.id + shift, kind=kind))
        branches += [
            replace(br, from_bus=br.from_bus + shift, to_bus=br.to_bus + shift)
            for br in case.branches
        ]
        gens += [replace(g, bus=g.bus + shift) for g in case.generators]
        comps += [replace(c, bus=c.bus + shift) for c in case.compensators]
        loads += [replace(ld, bus=ld.bus + shift) for ld in case.loads]
        if a:
            branches += [Branch(t + shift - stride, t + shift, 0.02, 0.08, 0.02) for t in (14, 9)]
            gens.append(replace(template, bus=14 + shift, p_output=0.38))
    return NetworkCase(case.base_mva, tuple(buses), tuple(branches), tuple(gens), tuple(comps), tuple(loads))


@pytest.fixture(scope="session")
def fixture_case() -> NetworkCase:
    return load_case()


@pytest.fixture(scope="session")
def fixture_text() -> str:
    return case_text()


@pytest.fixture()
def fixture_path(tmp_path, fixture_text):
    path = tmp_path / "ieee14.case"
    path.write_text(fixture_text)
    return path
