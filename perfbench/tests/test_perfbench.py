"""The campaign benchmark's own tests: minimal-size runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import MOVES, WORKLOADS  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture
def minimal_grids(monkeypatch):
    """Shrink every workload grid to one seed per (scenario, model) cell."""
    for name, make_grid in list(WORKLOADS.items()):
        monkeypatch.setitem(
            WORKLOADS, name, lambda seed, make_grid=make_grid: dict(make_grid(seed), n_seeds=1)
        )


def run_workload(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    name = f"{workload}-seed3-trace{trace}.json"
    with open(os.path.join(BENCH, "out", name)) as handle:
        report = json.load(handle)
    return code, stdout, result, report


def test_benchmark_json_is_within_the_format_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        SPEC["end_to_end"]
    )
    assert 1 <= SPEC["run_seconds"] <= 60
    # Every workload has a grid; every layer metric names what it should move.
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(MOVES)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_run_emits_every_metric_with_its_unit(
    capsys, minimal_grids, workload, trace
):
    code, stdout, result, report = run_workload(capsys, workload, trace)
    assert code == 0, stdout[-3000:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"\n{name} " in stdout and unit in stdout
    # One digest across every run: traced and untraced records match
    # (and, for the fleet, the serial reference execution too).
    assert len(report["record_digests"]) == 1
    assert set(report["fingerprint"]) == {
        "nproc", "cpu_model", "python", "numpy", "blas", "start_method",
        "REPRO_TELEMETRY",
    }
    if trace:
        assert "unattributed" in stdout
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_serial_ledger_leaves_at_most_five_percent_unattributed(capsys, minimal_grids):
    code, stdout, _result, report = run_workload(capsys, "carol-serial", 1)
    assert code == 0, stdout[-3000:]
    for book in report["ledgers"]:
        assert book["unattributed_parent_s"] <= 0.05 * book["wall_s"]
        assert not book["missing_targets"]
        assert book["rows"]["training.train_gon"]["calls"] >= 1


def test_injected_worker_failure_is_counted_not_dropped(capsys, minimal_grids, monkeypatch):
    # The worker that runs cell 1 dies abruptly (os._exit) mid-campaign.
    monkeypatch.setattr(run, "run_child", functools.partial(run.run_child, fail_cell=1))
    code, stdout, result, report = run_workload(capsys, "heuristic-sweep", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["cell_failure_rate"] == result["failed"] / result["attempted"] > 0
    assert "cell_failure_rate" in stdout


def test_without_the_program_it_fails_before_printing_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "carol-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
