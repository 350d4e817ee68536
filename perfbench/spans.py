"""Span tracing from outside the program.

`install` wraps every public function of the ropf modules, plus the
`np.linalg.solve` that the Newton solver calls, and records one span per
call: name, start, end and the enclosing span. Spans stay in memory; the
benchmark writes them out when it ends. `layer_metrics` turns them into
the per-layer figures listed in BENCHMARK.json.

A wrapper has to go into every namespace that makes the call: `dispatch`
binds `solve_power_flow`, `build_injections` and friends by name at import,
so patching only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("netmodel", "powerflow", "costmodel", "dispatch", "pso", "cli")
GLUE_LAYERS = ("dispatch", "costmodel", "pso")
OP = "bench.op"
CHECK = "bench.check"


class Tracer:
    """In-memory span store. Span ids are assigned in start order, so a
    span's descendants occupy the ids right after it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solves: dict[int, tuple[int, bool]] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, name: str, fn):
        # The solver's result carries the work counts: Newton iterations
        # and whether the solve converged.
        fn_is_solver = name == "powerflow.solve_power_flow"

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if fn_is_solver:
                self.solves[idx] = (result.iterations, result.converged)
            return result

        return functools.wraps(fn)(wrapper)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the public functions of every layer; returns what to restore."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ropf.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ropf" and not modname.startswith("ropf."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])

    # The solver reaches the LAPACK solve as np.linalg.solve, so it gets a
    # private view of numpy whose linalg.solve is wrapped.
    powerflow = sys.modules["ropf.powerflow"]
    linalg = types.ModuleType("numpy.linalg")
    vars(linalg).update(vars(np.linalg))
    linalg.solve = tracer.wrap("powerflow.linsolve", np.linalg.solve)
    numpy_view = types.ModuleType("numpy")
    vars(numpy_view).update(vars(np))
    numpy_view.linalg = linalg
    patched.append((powerflow, "np", powerflow.np))
    powerflow.np = numpy_view
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for mod, attr, value in reversed(patched):
        setattr(mod, attr, value)


def span_table(tracer: Tracer) -> tuple[list[dict], dict]:
    """Per-name aggregates over the timed operations.

    Counts, totals and shares cover spans inside `bench.op` spans only;
    per-call medians cover every call, so a function the benchmark calls
    only in its correctness check still gets a per-call time.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    roots = np.flatnonzero(~has_parent)
    root_of = roots[np.searchsorted(roots, np.arange(dur.size), side="right") - 1]
    op_id = tracer.names.index(OP)
    in_op = name[root_of] == op_id
    op_roots = roots[name[roots] == op_id]
    wall = float(dur[op_roots].sum())
    ops = op_roots.size

    rows = []
    for nid, label in enumerate(tracer.names):
        every = name == nid
        mask = every & in_op
        if label in (OP, CHECK):
            continue
        rows.append(
            {
                "name": label,
                "calls_per_op": int(mask.sum()) / ops,
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "median_us": float(np.median(dur[every])) * 1e6,
                "self_median_us": float(np.median(self_time[every])) * 1e6,
                "share": float(dur[mask].sum()) / wall,
                "self_share": float(self_time[mask].sum()) / wall,
            }
        )
    rows.sort(key=lambda r: -r["self_s"])
    solver = "powerflow.solve_power_flow"
    solver_id = tracer.names.index(solver) if solver in tracer.names else -1
    solves = [tracer.solves[i] for i in np.flatnonzero(in_op & (name == solver_id))]
    totals = {
        "wall_s": wall,
        "ops": ops,
        "named_share": 1.0 - float(self_time[op_roots].sum()) / wall,
        "newton_iterations": sum(it for it, _ in solves),
        "converged_solves": sum(ok for _, ok in solves),
        "solves": len(solves),
    }
    return rows, totals


def layer_metrics(rows: list[dict], totals: dict) -> dict[str, tuple[float, str]]:
    """The per_layer metrics of BENCHMARK.json. A layer the workload never
    calls reads 0, which is the bypass the workload is there to show."""
    by = {r["name"]: r for r in rows}

    def get(label: str, key: str) -> float:
        return by[label][key] if label in by else 0.0

    def per(label: str, over: str) -> float:
        calls = get(over, "calls_per_op")
        return get(label, "calls_per_op") / calls if calls else 0.0

    ops = totals["ops"]
    optimizations = get("pso.optimize", "calls_per_op") * ops
    pso_self = (
        (get("pso.optimize", "total_s") - get("dispatch.evaluate_fitness", "total_s")) / optimizations
        if optimizations
        else 0.0
    )
    solves = totals["solves"]
    return {
        "powerflow.jacobian_us": (get("powerflow.mismatch_jacobian", "median_us"), "us"),
        "powerflow.linsolve_us": (get("powerflow.linsolve", "median_us"), "us"),
        "powerflow.mismatch_us": (get("powerflow.compute_mismatch", "median_us"), "us"),
        "powerflow.solve_self_us": (get("powerflow.solve_power_flow", "self_median_us"), "us"),
        "powerflow.solve_share": (get("powerflow.solve_power_flow", "share"), "ratio"),
        "powerflow.solve_calls": (get("powerflow.solve_power_flow", "calls_per_op"), "count"),
        "powerflow.newton_iters_per_solve": (
            totals["newton_iterations"] / solves if solves else 0.0,
            "count",
        ),
        "powerflow.converged_frac": (
            totals["converged_solves"] / solves if solves else 0.0,
            "ratio",
        ),
        "powerflow.total_losses_ms": (get("powerflow.total_losses", "median_us") / 1e3, "ms"),
        "dispatch.evaluations": (per("dispatch.evaluate_fitness", "dispatch.run_ropf"), "count"),
        "dispatch.fitness_self_us": (get("dispatch.evaluate_fitness", "self_median_us"), "us"),
        "dispatch.build_injections_us": (get("dispatch.build_injections", "median_us"), "us"),
        "dispatch.voltage_penalty_us": (get("dispatch.voltage_penalty", "median_us"), "us"),
        "costmodel.total_reactive_cost_us": (
            get("costmodel.total_reactive_cost", "median_us"),
            "us",
        ),
        "costmodel.calls": (
            sum(r["calls_per_op"] for r in rows if r["name"].startswith("costmodel.")),
            "count",
        ),
        "pso.self_s": (pso_self, "s"),
        "pso.steps": (per("pso.step", "pso.optimize"), "count"),
        "netmodel.parse_case_ms": (get("netmodel.parse_case", "median_us") / 1e3, "ms"),
        "netmodel.build_admittance_ms": (get("netmodel.build_admittance", "median_us") / 1e3, "ms"),
        "netmodel.build_admittance_calls": (get("netmodel.build_admittance", "calls_per_op"), "count"),
        "cli.main_self_s": (
            (get("cli.main", "total_s") - get("dispatch.run_pricing", "total_s")) / ops,
            "s",
        ),
        "glue.self_share": (
            sum(r["self_share"] for r in rows if r["name"].split(".")[0] in GLUE_LAYERS),
            "ratio",
        ),
        "trace.named_share": (totals["named_share"], "ratio"),
    }
