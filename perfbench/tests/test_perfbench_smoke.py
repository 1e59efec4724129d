"""Tiny runs of every workload, listed or not, through the command line the benchmark declares."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jcsim.poweralloc import SolverError
from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_the_listed_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="max_min_allocate rejects HiGHS's point on some LoS desk scenarios")
def test_known_solver_failure_on_a_desk_scenario():
    """A desk scenario the allocator fails on, kept in view while it stands.

    The benchmark counts such a scenario as failed.  About 1 desk scenario
    in 500 to 1200 fails like this, so most seeds' pools miss it.
    """
    from jcsim.harness.config import desk_preset
    from jcsim.harness.experiments import run_rate_experiment
    from workloads import RATE_VARIANTS

    los_lmmse_zfr = dict(channel_model="los", estimator="lmmse", radar_beam="zfr")
    assert los_lmmse_zfr in RATE_VARIANTS
    run_rate_experiment(desk_preset().replace(seed=4193937569, n_scenarios=1, **los_lmmse_zfr))
