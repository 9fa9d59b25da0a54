"""Tests of the benchmark itself, on toy-size versions of its workloads.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from workloads import TOY_SHAPES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_run(name, trace, seed=1):
    return measure.run(name, seed, 0.1, trace, shape=TOY_SHAPES[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = toy_run(name, trace)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result)  # the printed line must be valid JSON


def test_workloads_match_the_declared_ones():
    import run

    declared = sorted(w["name"] for w in SPEC["workloads"])
    assert declared == sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_counts_repeat_exactly_for_a_seed():
    a = toy_run("rift-steps", False)["result"]["metrics"]
    b = toy_run("rift-steps", False)["result"]["metrics"]
    for count in ("krylov_its", "newton_its"):
        assert a[count]["value"] == b[count]["value"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed_alone(name):
    w = WORKLOADS[name](TOY_SHAPES[name])
    digest = [w.input_digest(w.inputs(seed, 2)) for seed in (5, 5, 6)]
    assert digest[0] == digest[1] != digest[2]


def test_nan_velocity_in_a_step_is_a_failure(monkeypatch):
    from repro.sim.timeloop import Simulation

    real = Simulation.step

    def poisoned(self, *args, **kwargs):
        stats = real(self, *args, **kwargs)
        self.u[0] = np.nan
        return stats

    monkeypatch.setattr(Simulation, "step", poisoned)
    result = toy_run("sinker-steps", False)["result"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_markers_lost_without_a_report_are_a_failure(monkeypatch):
    from repro.sim.timeloop import Simulation

    real = Simulation.step

    def leaky(self, *args, **kwargs):
        stats = real(self, *args, **kwargs)
        drop = np.zeros(self.points.n, dtype=bool)
        drop[::10] = True
        self.points.remove(drop)
        return stats

    monkeypatch.setattr(Simulation, "step", leaky)
    doc = toy_run("sinker-steps", False)
    assert doc["result"]["failed"] == doc["result"]["attempted"] >= 1
    assert all("marker count does not balance" in f for f in doc["failures"])


def test_traced_run_leaves_the_program_unpatched():
    import repro
    import repro.mg.cycles as cycles
    import repro.stokes.solve as solve

    before = (solve.solve_stokes, repro.solve_stokes, cycles.MGHierarchy.vcycle)
    toy_run("sinker-steps", True)
    assert (solve.solve_stokes, repro.solve_stokes, cycles.MGHierarchy.vcycle) == before


def test_layer_self_times_add_up_to_the_operation():
    metrics = toy_run("rift-steps", True)["result"]["metrics"]
    assert 0.0 <= metrics["trace.unattributed_frac"]["value"] < 0.2
    assert metrics["mg.vcycle.calls"]["value"] > 0
    assert metrics["rheology.evaluate.calls"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rift-steps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
