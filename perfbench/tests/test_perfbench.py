"""Self-tests of the campaign benchmark.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Every test drives ``perfbench/run.py`` end to end on a ``--smoke`` sized
workload, so it goes through the same code as a measured run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.bench import WORK, metric_units  # noqa: E402
from perfbench.layers import UNATTRIBUTED_CAP  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def units_of(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_are_printed(workload):
    result, lines = bench("--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units_of(result) == metric_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("stats ") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_perturbed_outcome_is_reported_failed(workload):
    result, lines = bench("--workload", workload, "--trace", "0",
                          "--perturb", "outcome")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert any("mismatched items 1 " in line for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_failed_unit_is_reported_failed(workload):
    """A unit that raises on every attempt is quarantined: its items have
    no outcome, and each rep counts them as failed."""
    result, lines = bench("--workload", workload, "--trace", "0",
                          "--perturb", "unit")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0
    reps = [line for line in lines if line.startswith("rep ")]
    assert reps and all("failed units 1 " in line for line in reps)
    assert all("lost items 0 " not in line for line in reps)


def test_incomplete_reference_fails_the_run():
    from perfbench.bench import _check
    from perfbench.campaign import Rep

    items = {"a": "masked", "b": "sdc"}
    rep = Rep(wall=1.0, exec_wall=1.0, results={}, items=dict(items),
              summary=[])
    full = {"items": dict(items), "summary": []}
    assert _check([(False, rep)], full, ["a", "b"], 1) == (2, 0, True)
    partial = {"items": {"a": "masked"}, "summary": []}
    attempted, failed, correct = _check([(False, rep)], partial,
                                        ["a", "b"], 1)
    assert correct is False and failed == 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_breakdown_sums_to_wall_time(workload):
    """The rows sum to wall time because two of them are remainders; what
    the test holds the tracer to is that no row is negative and that
    ``unattributed`` stays under its cap."""
    result, lines = bench("--workload", workload, "--trace", "1")
    assert result["correct"] is True
    assert units_of(result) == metric_units("per_layer")
    line = next(x for x in lines if x.startswith("breakdown "))
    breakdown = json.loads(line[len("breakdown "):])
    wall, rows = breakdown["wall_s"], breakdown["rows"]
    assert wall > 0
    assert sum(rows.values()) == pytest.approx(wall)
    assert min(rows.values()) >= -1e-3
    assert rows["unattributed"] <= UNATTRIBUTED_CAP * wall
    assert result["metrics"]["breakdown.wall_s"]["value"] == pytest.approx(
        wall)


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero and prints no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert not out.stdout.strip()
