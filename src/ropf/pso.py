"""Global-best particle swarm optimizer with a linear inertia schedule.

Velocity update per particle:

    v <- w * v + C1 * r1 * (pbest - x) + C2 * r2 * (gbest - x)

with r1, r2 fresh uniform draws per dimension, the inertia w falling
linearly from W_START to W_END over the run (0.9 to 0.4, Shi & Eberhart,
IEEE ICEC 1998), C1 = C2 = 2.0, velocities clamped to a fraction of each
dimension's range, and positions clipped to the bounds.
A zero-width dimension (lower == upper) gets no velocity and stays at its
value; an empty box (no dimension) is scored as one point for the whole
schedule.
A particle clipped at a wall keeps its velocity, so the walls do not
absorb it; the next update starts from that velocity. The swarm's state
is a set of (S, D) arrays, one row per particle, updated synchronously:
every particle of an iteration pulls toward the global best as it stood
when the iteration began.

The fitness function scores the whole swarm at once: it takes the
positions as an (S, D) array and returns S values, NaN counting as worst.
It must be pure row by row, the value of a row depending on that row only.
The optimizer writes nothing: a run in which no particle ever scores a
finite value returns an infinite fitness.
Every particle owns a counter-based random stream spawned from the master
seed and draws r1, then r2, from it, DRAW_BLOCK iterations per call, so a
seed reproduces its run bit for bit in one environment. Personal and
global bests only move on strict improvement, and the global reduction
takes the lowest particle index among equal values, which keeps ties
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PsoParams",
    "PsoResult",
    "inertia_weight",
    "optimize",
    "update_velocity",
]

# A particle moves at most half its box's width per step in each dimension.
V_MAX_FRACTION = 0.5
# The update rule the dispatch search is tuned to: inertia from W_START at
# the first update to W_END at the last, and equal cognitive and social pulls.
W_START, W_END = 0.9, 0.4
C1 = C2 = 2.0
# Each particle draws the uniforms of this many iterations in one call; a
# stream read in one call gives the values of the same reads made one by
# one, and the block bounds the memory held at any iteration count.
DRAW_BLOCK = 64

SwarmFitness = Callable[[np.ndarray], np.ndarray]
Bounds = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class PsoParams:
    """Swarm size, iteration count and seed; the update rule itself is
    fixed by the module constants. Defaults suit low-dimensional dispatch
    boxes."""

    swarm_size: int = 30
    max_iterations: int = 300
    seed: int = 1

    def __post_init__(self):
        for name in ("swarm_size", "max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be >= 1, got {self.swarm_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


class PsoResult(NamedTuple):
    position: np.ndarray
    fitness: float
    history: tuple[float, ...]


def _particle_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one particle, reproducible from the master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def _check_bounds(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    lower = np.array([b[0] for b in bounds], dtype=float)
    upper = np.array([b[1] for b in bounds], dtype=float)
    if np.any(~np.isfinite(lower)) or np.any(~np.isfinite(upper)):
        raise ValueError("bounds must be finite")
    if np.any(lower > upper):
        bad = int(np.flatnonzero(lower > upper)[0])
        raise ValueError(f"inverted bounds in dimension {bad}: [{lower[bad]}, {upper[bad]}]")
    return lower, upper


def _draw_block(rngs: list[np.random.Generator], dim: int, count: int) -> np.ndarray:
    """(count, S, 2 * D) uniforms: particle i's next count * 2 * D stream
    values, in stream order along the first and last axes."""
    return np.stack([rng.uniform(size=(count, 2 * dim)) for rng in rngs], axis=1)


def _evaluate(fitness: SwarmFitness, positions: np.ndarray) -> np.ndarray:
    values = np.array(fitness(positions), dtype=float)
    if values.shape != (len(positions),):
        raise ValueError(
            f"fitness must return one value per particle, shape ({len(positions)},); "
            f"got {values.shape}"
        )
    values[np.isnan(values)] = math.inf
    return values


def inertia_weight(params: PsoParams, iteration: int) -> float:
    """Linear schedule from W_START (first update) to W_END (last update)."""
    if params.max_iterations == 1:
        return W_START
    frac = iteration / (params.max_iterations - 1)
    return W_START + (W_END - W_START) * frac


def update_velocity(
    velocity: np.ndarray,
    position: np.ndarray,
    pbest_position: np.ndarray,
    gbest_position: np.ndarray,
    w: float,
    rand1: float | np.ndarray,
    rand2: float | np.ndarray,
) -> np.ndarray:
    """Inertia plus cognitive and social pulls, for one particle (D,) or
    the swarm (S, D); no clamping here."""
    return (
        w * velocity
        + C1 * rand1 * (pbest_position - position)
        + C2 * rand2 * (gbest_position - position)
    )


def optimize(fitness: SwarmFitness, bounds: Bounds, params: PsoParams) -> PsoResult:
    """Run the full schedule; returns the best point, its fitness, and the
    global-best trace (initial value plus one entry per iteration).

    Positions start uniform in the box and velocities within the clamp.
    A box may pin a dimension (lower == upper) or have no dimension at
    all; the swarm then holds those values, and an empty box is one point
    scored every iteration. If every initial fitness is non-finite the
    swarm still starts (penalty-shaped objectives often look like that
    early on); the result's fitness stays inf until a particle scores a
    finite value, and the history shows when one did.
    """
    lower, upper = _check_bounds(bounds)
    v_max = V_MAX_FRACTION * (upper - lower)
    dim = lower.size
    rngs = [_particle_rng(params.seed, i) for i in range(params.swarm_size)]
    draws = _draw_block(rngs, dim, min(DRAW_BLOCK, params.max_iterations + 1))
    position = lower + draws[0, :, :dim] * (upper - lower)
    velocity = -v_max + draws[0, :, dim:] * (2.0 * v_max)
    pbest_position = position.copy()
    pbest_fitness = np.full(params.swarm_size, math.inf)
    gbest_fitness = math.inf
    gbest_position = position[0].copy()
    history = []
    for iteration in range(-1, params.max_iterations):  # -1 scores the start
        if iteration >= 0:
            w = inertia_weight(params, iteration)
            row = (iteration + 1) % DRAW_BLOCK
            if row == 0:
                draws = _draw_block(rngs, dim, min(DRAW_BLOCK, params.max_iterations - iteration))
            rand1, rand2 = draws[row, :, :dim], draws[row, :, dim:]
            velocity = update_velocity(
                velocity, position, pbest_position, gbest_position, w, rand1, rand2
            )
            velocity = np.clip(velocity, -v_max, v_max)
            position = np.clip(position + velocity, lower, upper)
        value = _evaluate(fitness, position)
        improved = value < pbest_fitness
        pbest_fitness[improved] = value[improved]
        pbest_position[improved] = position[improved]
        best = int(np.argmin(pbest_fitness))
        if pbest_fitness[best] < gbest_fitness:
            gbest_fitness = float(pbest_fitness[best])
            gbest_position = pbest_position[best].copy()
        history.append(gbest_fitness)
    return PsoResult(position=gbest_position, fitness=gbest_fitness, history=tuple(history))
