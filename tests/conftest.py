"""Shared fixtures: the bundled study case plus small hand-built networks."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import ropf
from ropf.data import case_text, load_case
from ropf.dispatch import run_ropf
from ropf.netmodel import (
    Branch,
    Bus,
    Compensator,
    CostQuadratic,
    Generator,
    Load,
    NetworkCase,
)
from ropf.pso import PsoParams

QUADRATIC = CostQuadratic(45.0, 750.0, 450.0)


def child_env() -> dict[str, str]:
    """Environment for a `python -m ropf` child that imports the same ropf
    as the tests, installed or not."""
    path = os.pathsep.join([str(Path(ropf.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


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


@pytest.fixture(scope="session")
def fixture_case() -> NetworkCase:
    return load_case()


@pytest.fixture(scope="session")
def ten_seed_runs(fixture_case):
    # The shipped defaults at seeds 1-10: run once, read by the acceptance
    # gate and by the dispatch tests.
    return [run_ropf(fixture_case, params=PsoParams(seed=s)) for s in range(1, 11)]


@pytest.fixture(scope="session")
def fixture_text() -> str:
    return case_text()


@pytest.fixture()
def fixture_path(tmp_path, fixture_text):
    path = tmp_path / "ieee14.case"
    path.write_text(fixture_text)
    return path
