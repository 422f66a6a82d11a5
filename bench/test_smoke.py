"""Smoke test of the benchmark: each workload at minimal length.

Run from the repository root with ``python -m pytest bench/test_smoke.py -q``
(about a minute; it is kept out of the tier-1 suite).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def test_spec_names_the_workloads():
    assert NAMES == ["invariants", "bordism", "torus-sweep", "cli"]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    proc, result = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace:
        calls = result["metrics"]["spaces.eigensplit.calls"]["value"]
        assert (calls == 0) == (workload == "bordism")


@pytest.mark.parametrize("workload", NAMES)
def test_failed_check_exits_nonzero(workload):
    proc, result = run(workload, 0, "--inject-fault")
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_there_is_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = run("invariants", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
