"""Particle swarm optimizer: update arithmetic, invariants, benchmarks.

The velocity rule is checked with hand arithmetic; swarm-level behavior is
checked as invariants (bounds containment, velocity clamp, non-increasing
global best, bit-identical reruns), observed through the positions the
optimizer hands its swarm-wide fitness, (S, D) -> (S,). Benchmark
thresholds use the tail end of the inertia range (0.9 -> 0.4), which
contracts reliably on smooth functions; the shipped defaults are exercised
in the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ropf.pso import (
    DRAW_BLOCK,
    V_MAX_FRACTION,
    PsoParams,
    inertia_weight,
    optimize,
    update_velocity,
)

CONTRACTING = dict(w_start=0.9, w_end=0.4)


def sphere(x):
    return np.sum(x * x, axis=1)


def rosenbrock(x):
    return (1 - x[:, 0]) ** 2 + 100 * (x[:, 1] - x[:, 0] ** 2) ** 2


class Recorder:
    """Swarm fitness that keeps a copy of every position array it scores."""

    def __init__(self, fitness):
        self.fitness = fitness
        self.calls = []

    def __call__(self, x):
        self.calls.append((x.copy(), self.fitness(x)))
        return self.calls[-1][1]


def test_params_validate():
    for bad in (
        dict(swarm_size=0),
        dict(max_iterations=0),
        dict(w_start=-0.1),
        dict(w_end=2.5),
        dict(c1=-1.0),
        dict(c1=math.nan),
        dict(c2=math.inf),
        dict(seed=-1),
        dict(swarm_size=2.5),
        dict(max_iterations=3.5),
        dict(seed=1.5),
    ):
        with pytest.raises(ValueError):
            PsoParams(**bad)
    # numpy integers are integers
    PsoParams(swarm_size=np.int64(4), max_iterations=np.int32(3), seed=np.uint64(2))


def test_inertia_schedule_endpoints_and_midpoint():
    params = PsoParams(max_iterations=11, w_start=1.0, w_end=0.5)
    assert inertia_weight(params, 0) == pytest.approx(1.0, abs=1e-12)
    assert inertia_weight(params, 10) == pytest.approx(0.5, abs=1e-12)
    assert inertia_weight(params, 5) == pytest.approx(0.75, abs=1e-12)
    one_shot = PsoParams(max_iterations=1, w_start=1.2, w_end=0.9)
    assert inertia_weight(one_shot, 0) == 1.2


def test_shipped_inertia_schedule_contracts_from_0_9_to_0_4():
    # 300 updates: the first uses 0.9, each later one 0.5 / 299 less, the
    # last 0.4, so every update contracts the velocity
    params = PsoParams()
    assert (params.w_start, params.w_end, params.max_iterations) == (0.9, 0.4, 300)
    assert inertia_weight(params, 0) == 0.9
    assert inertia_weight(params, 1) == pytest.approx(0.9 - 0.5 / 299, abs=1e-15)
    assert inertia_weight(params, 299) == pytest.approx(0.4, abs=1e-15)


def test_velocity_update_hand_arithmetic():
    params = PsoParams(c1=2.0, c2=2.0)
    v = update_velocity(
        velocity=np.array([[0.5, -0.5]]),
        position=np.array([[1.0, 2.0]]),
        pbest_position=np.array([[0.0, 0.0]]),
        gbest_position=np.array([2.0, 2.0]),
        w=0.5,
        params=params,
        rand1=0.25,
        rand2=0.5,
    )
    # 0.5*[0.5,-0.5] + 2*0.25*([0,0]-[1,2]) + 2*0.5*([2,2]-[1,2])
    assert np.allclose(v, [[0.75, -1.25]], atol=1e-15)


def test_velocity_update_per_dimension_draws():
    params = PsoParams(c1=1.0, c2=0.0)
    v = update_velocity(
        velocity=np.zeros((1, 2)),
        position=np.zeros((1, 2)),
        pbest_position=np.array([[1.0, 1.0]]),
        gbest_position=np.zeros(2),
        w=0.0,
        params=params,
        rand1=np.array([[0.25, 0.75]]),
        rand2=np.zeros((1, 2)),
    )
    assert np.allclose(v, [[0.25, 0.75]], atol=1e-15)


def test_velocity_update_row_per_particle():
    # two particles, one shared global best: each row follows its own pulls
    params = PsoParams(c1=2.0, c2=2.0)
    v = update_velocity(
        velocity=np.array([[0.5, -0.5], [0.0, 0.0]]),
        position=np.array([[1.0, 2.0], [2.0, 2.0]]),
        pbest_position=np.array([[0.0, 0.0], [2.0, 2.0]]),
        gbest_position=np.array([2.0, 2.0]),
        w=0.5,
        params=params,
        rand1=np.array([[0.25, 0.25], [1.0, 1.0]]),
        rand2=np.array([[0.5, 0.5], [1.0, 1.0]]),
    )
    assert np.allclose(v, [[0.75, -1.25], [0.0, 0.0]], atol=1e-15)


def test_zero_width_dimension_holds_its_value():
    recorder = Recorder(sphere)
    params = PsoParams(swarm_size=6, max_iterations=10, seed=4)
    result = optimize(recorder, [(-1.0, 1.0), (0.5, 0.5)], params)
    positions = np.array([x for x, _ in recorder.calls])
    assert np.all(positions[:, :, 1] == 0.5)
    assert len(np.unique(positions[:, :, 0])) > params.swarm_size
    assert result.position[1] == 0.5


def test_empty_box_scores_its_one_point():
    result = optimize(
        lambda x: np.full(len(x), 2.0), [], PsoParams(swarm_size=3, max_iterations=4, seed=1)
    )
    assert result.position.shape == (0,)
    assert result.fitness == 2.0
    assert result.history == (2.0,) * 5


def test_inverted_and_infinite_bounds_rejected():
    with pytest.raises(ValueError, match="inverted bounds in dimension 1"):
        optimize(sphere, [(-1.0, 1.0), (0.5, 0.4)], PsoParams(max_iterations=2))
    with pytest.raises(ValueError, match="finite"):
        optimize(sphere, [(0.0, math.inf)], PsoParams(max_iterations=2))
    with pytest.raises(ValueError, match="finite"):
        optimize(sphere, [(math.nan, 1.0)], PsoParams(max_iterations=2))


def test_initial_gbest_is_min_over_particles():
    params = PsoParams(swarm_size=12, max_iterations=5, seed=7)
    recorder = Recorder(sphere)
    result = optimize(recorder, [(-3.0, 3.0)] * 2, params)
    first_positions, first_values = recorder.calls[0]
    assert first_positions.shape == (12, 2)
    assert result.history[0] == min(first_values)


def test_positions_and_velocities_respect_limits_every_iteration():
    bounds = [(-2.0, 1.0), (0.0, 4.0)]
    params = PsoParams(swarm_size=8, max_iterations=40, seed=3)
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])
    v_max = V_MAX_FRACTION * (upper - lower)
    recorder = Recorder(sphere)
    optimize(recorder, bounds, params)
    # one swarm-wide call for the start and one per iteration
    assert len(recorder.calls) == params.max_iterations + 1
    positions = [x for x, _ in recorder.calls]
    for x in positions:
        assert x.shape == (params.swarm_size, len(bounds))
        assert np.all(x >= lower - 1e-12)
        assert np.all(x <= upper + 1e-12)
    # a move is the clamped velocity, cut short only by a wall
    for before, after in zip(positions, positions[1:]):
        assert np.all(np.abs(after - before) <= v_max + 1e-12)


def test_block_draws_equal_draws_made_one_iteration_at_a_time():
    # optimize draws each particle's uniforms DRAW_BLOCK iterations at a
    # time; the swarm it scores is the one of a plain loop that draws 2 * D
    # values per particle per iteration, past a block boundary too.
    bounds = [(-2.0, 1.0), (0.0, 4.0), (0.5, 0.5)]
    params = PsoParams(swarm_size=5, max_iterations=DRAW_BLOCK + 6, seed=9)
    recorder = Recorder(sphere)
    optimize(recorder, bounds, params)

    lower, upper = np.array(bounds).T
    v_max = V_MAX_FRACTION * (upper - lower)
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(params.seed, spawn_key=(i,))))
        for i in range(params.swarm_size)
    ]

    def draw():
        u = np.array([rng.uniform(size=2 * len(bounds)) for rng in streams])
        return u[:, : len(bounds)], u[:, len(bounds) :]

    u_position, u_velocity = draw()
    x = lower + u_position * (upper - lower)
    v = -v_max + u_velocity * (2.0 * v_max)
    pbest, pbest_value = x.copy(), sphere(x)
    expected = [x]
    for iteration in range(params.max_iterations):
        gbest = pbest[np.argmin(pbest_value)].copy()
        rand1, rand2 = draw()
        w = inertia_weight(params, iteration)
        v = np.clip(update_velocity(v, x, pbest, gbest, w, params, rand1, rand2), -v_max, v_max)
        x = np.clip(x + v, lower, upper)
        value = sphere(x)
        better = value < pbest_value
        pbest[better], pbest_value[better] = x[better], value[better]
        expected.append(x)
    assert len(recorder.calls) == len(expected)
    for (seen, _), want in zip(recorder.calls, expected):
        assert np.array_equal(seen, want)


def test_gbest_history_non_increasing():
    result = optimize(sphere, [(-5.0, 5.0)] * 3, PsoParams(swarm_size=10, max_iterations=60, seed=5))
    assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))


def test_history_length_and_final_value():
    params = PsoParams(swarm_size=6, max_iterations=25, seed=2)
    result = optimize(sphere, [(-1.0, 1.0)] * 2, params)
    assert len(result.history) == params.max_iterations + 1
    assert result.history[-1] == result.fitness
    assert sphere(result.position[None, :])[0] == pytest.approx(result.fitness, rel=1e-12)


def test_same_seed_reproduces_bitwise():
    params = PsoParams(swarm_size=9, max_iterations=30, seed=11)
    a = optimize(sphere, [(-5.0, 5.0)] * 3, params)
    b = optimize(sphere, [(-5.0, 5.0)] * 3, params)
    assert a.history == b.history
    assert np.array_equal(a.position, b.position)


def test_different_seeds_explore_differently():
    bounds = [(-5.0, 5.0)] * 3
    a = optimize(sphere, bounds, PsoParams(swarm_size=9, max_iterations=30, seed=1))
    b = optimize(sphere, bounds, PsoParams(swarm_size=9, max_iterations=30, seed=2))
    assert a.history != b.history


def test_nan_fitness_treated_as_worst():
    def half_nan(x):
        return np.where(x[:, 0] < 0, np.nan, sphere(x))

    result = optimize(
        half_nan, [(-5.0, 5.0)] * 2, PsoParams(swarm_size=10, max_iterations=40, seed=4)
    )
    assert math.isfinite(result.fitness)
    assert result.position[0] >= 0


def test_all_nan_fitness_survives():
    result = optimize(
        lambda x: np.full(len(x), np.nan),
        [(-1.0, 1.0)],
        PsoParams(swarm_size=4, max_iterations=3, seed=1),
    )
    assert math.isinf(result.fitness)
    assert len(result.history) == 4


def test_sphere_benchmark():
    params = PsoParams(swarm_size=20, max_iterations=200, seed=1, **CONTRACTING)
    result = optimize(sphere, [(-5.0, 5.0)] * 3, params)
    assert result.fitness < 1e-8
    assert np.all(np.abs(result.position) < 1e-3)


def test_shifted_quadratic_benchmark():
    params = PsoParams(swarm_size=10, max_iterations=100, seed=1, **CONTRACTING)
    result = optimize(lambda x: (x[:, 0] - 0.3) ** 2, [(0.0, 1.0)], params)
    assert abs(result.position[0] - 0.3) < 1e-6


def test_rosenbrock_benchmark():
    params = PsoParams(swarm_size=30, max_iterations=500, seed=2, **CONTRACTING)
    result = optimize(rosenbrock, [(-2.0, 2.0), (-1.0, 3.0)], params)
    assert result.fitness < 1e-6
    assert np.allclose(result.position, [1.0, 1.0], atol=1e-3)


def test_optimum_on_boundary_is_reachable():
    params = PsoParams(swarm_size=15, max_iterations=120, seed=6, **CONTRACTING)
    result = optimize(lambda x: -x[:, 0], [(0.0, 2.0)], params)
    assert result.position[0] == pytest.approx(2.0, abs=1e-9)


def test_fitness_must_return_one_value_per_particle():
    with pytest.raises(ValueError, match="one value per particle"):
        optimize(lambda x: np.sum(x), [(-1.0, 1.0)] * 2, PsoParams(swarm_size=4, max_iterations=2))
