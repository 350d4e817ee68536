"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from grid import scenario_texts, tiled_case  # noqa: E402
from run import tail  # noqa: E402
from ropf.dispatch import baseline_loss  # noqa: E402
from ropf.netmodel import parse_case, validate_case  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_dispatch_names_its_time():
    proc = bench("--workload", "dispatch-ieee14", "--seed", "1", "--seconds", "0.5",
                 "--trace", "1", "--smoke")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["trace.named_share"] >= 0.85
    assert metrics["dispatch.evaluations"] == 4 * (5 + 1)
    assert metrics["pso.steps"] == 5
    assert 0 < metrics["powerflow.converged_frac"] <= 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_grid_is_valid_and_seeded():
    case = tiled_case(16, seed=5)
    assert (case.n, len(case.branches)) == (224, 350)
    assert [b.id for b in case.buses if b.kind == "slack"] == [14]
    assert validate_case(case) == []
    texts = scenario_texts(3, seed=5, count=2)
    assert texts == scenario_texts(3, seed=5, count=2)
    assert texts[0] != texts[1] != scenario_texts(3, seed=6, count=2)[1]
    solution, _ = baseline_loss(parse_case(texts[0]))
    assert solution.converged


def test_tail_has_ten_samples_beyond_it():
    assert tail([3.0, 1.0, 2.0]) is None
    assert tail([float(k) for k in range(21)]) is None
    assert tail([float(k) for k in range(22)]) == (11.0, "p55")
    assert tail([float(k) for k in range(200)]) == (179.0, "p90")
