"""Self-checks of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
The counter check runs each workload traced twice, about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS, distinct_real_roots, known_failure_labels  # noqa: E402


def _run(root, workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = _run(ROOT, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        runs.append({name: m["value"] for name, m in result["metrics"].items()
                     if m["unit"] != "s" and not name.startswith("trace.")})
    assert runs[0] == runs[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "spectrum", trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("coeffs, roots", [
    ([0, 0, 0, 4], 1),        # 4x^3: one triple root
    ([-1, 0, 1], 2),          # x^2 - 1
    ([0, -2, 0, 4], 3),       # 4x^3 - 2x
    ([1, 0, 1], 0),           # x^2 + 1
    ([0, 2, 0, 4], 1),        # 4x^3 + 2x
])
def test_distinct_real_roots(coeffs, roots):
    assert distinct_real_roots(coeffs) == roots


def test_ledger_names_the_failing_levels_of_each_workload():
    with open(os.path.join(BENCH_DIR, "spec.json")) as fh:
        spec = json.load(fh)
    assert known_failure_labels(spec, "high_order") == {
        "quantize V=x^4 order=3 K=0",
        "quantize V=x^4 + 1/2*x^3 order=3 K=0",
    }
    assert known_failure_labels(spec, "spectrum") == set()
    assert known_failure_labels(spec, "symbolic") == set()


def test_survey_covers_the_whole_family():
    from workloads import FAMILY_PATH, family

    with open(FAMILY_PATH) as fh:
        surveyed = json.load(fh)["degrees"]
    levels = {"4": {"spectrum order 0": 7, "spectrum order 1": 7, "spectrum order 2": 7,
                    "high_order order 3": 6},
              "6": {"spectrum order 0": 7, "spectrum order 1": 7, "spectrum order 2": 7}}
    assert set(surveyed) == set(levels)
    for degree, per_member in levels.items():
        members = len(family(int(degree)))
        assert surveyed[degree]["potentials"] == members
        assert {k: v["levels"] for k, v in surveyed[degree]["levels"].items()} == {
            k: members * n for k, n in per_member.items()}
