"""Smoke check of the benchmark at tiny sizes.

Runs all three workloads once untraced and once traced, and asserts that
every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
emitted with its unit. From the root of a checkout::

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("walk-many", "walk-dense", "cohort")


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_emitted(trace, section):
    result = result_of(run_bench(ROOT, "--workload", "all", "--trace",
                                 str(trace), "--tiny"))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {f"{w}.{m['name']}": m["unit"]
                       for w in WORKLOADS for m in SPEC[section]}


def test_single_workload_result():
    workload = SPEC["workloads"][0]["name"]
    result = result_of(run_bench(ROOT, "--workload", workload, "--trace", "0",
                                 "--tiny"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "walk-many", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
