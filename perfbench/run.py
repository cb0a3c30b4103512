"""End-to-end campaign benchmark with an outside-in layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload carol-serial --seed 1 --seconds 20 --trace 0

Each run of a workload is a fresh interpreter (:mod:`child`) that runs
one campaign grid through the public library API, so interpreter
start, ``import repro``, set-up and teardown all count.  ``--trace 0``
repeats the untraced run for ``--seconds`` and reports the medians of
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
runs: counts come from the untraced run's ``CampaignResult.telemetry``,
self times from the traced run's layer ledger (:mod:`tracer`), and the
ledger is printed with an explicit ``unattributed`` row.  Workload and
metric names, units and bounds are read from ``BENCHMARK.json``; the
grids and what each layer metric should move are in :mod:`workloads`.

Every invocation checks the outputs: every planned cell has a record,
record digests (deterministic metrics plus ``decision_digest``) are
identical across all runs of the invocation, and fleet grids equal one
serial execution of the same grid.  A failed check makes the result
``"correct": false`` and the exit code 1.  The last line of standard
output is the JSON result; a fuller report, with the host fingerprint
and the ledger, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import CONTAINERS  # noqa: E402
from workloads import MOVES, QOS_METRICS, WORKLOADS  # noqa: E402

#: The whole invocation must end well inside the 180 s the contract allows.
HARD_LIMIT_S = 165.0
#: Untraced repeats per ``--trace 0`` invocation, at least.
MIN_REPEATS = 3
#: Seconds a child may linger after the budget before it is killed.
MIN_CHILD_TIMEOUT_S = 5.0


@dataclass
class Run:
    """One finished child: its milestones, records and resource use."""

    t_launch: float
    t_exit: float
    exit_code: int
    usage: object  # resource.struct_rusage of the child and its waited-for workers
    payload: Optional[dict]
    trace_dir: Optional[str]
    log_path: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.payload is not None

    @property
    def records(self) -> list:
        return self.payload["records"] if self.ok else []

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t_launch

    @property
    def setup_s(self) -> float:
        return self.payload["t_setup"] - self.t_launch

    def log_tail(self, lines: int = 15) -> str:
        try:
            with open(self.log_path) as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""


def _become_subreaper() -> None:
    """Orphaned grandchildren (fleet workers, resource trackers) are
    re-parented to this process, so it can wait for every one of them."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_all(pgid: int, grace_s: float = 3.0) -> None:
    """Wait for every leftover descendant; kill the group after a grace."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                return  # left the group: nothing more this process can stop
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def run_child(kind, config, work_dir, timeout_s, trace=False, fail_cell=None):
    """Launch one campaign child and wait for it and all its descendants."""
    index = len(os.listdir(work_dir))
    run_dir = os.path.join(work_dir, f"{index:03d}-{kind}")
    os.makedirs(run_dir)
    config = dict(config)
    if config.get("store") == "sqlite":
        config["store_path"] = os.path.join(run_dir, "campaign.sqlite")
    trace_dir = os.path.join(run_dir, "spans") if trace else None
    spec_path = os.path.join(run_dir, "spec.json")
    out_path = os.path.join(run_dir, "out.json")
    log_path = os.path.join(run_dir, "child.log")
    with open(spec_path, "w") as handle:
        json.dump({"config": config, "trace_dir": trace_dir, "fail_cell": fail_cell},
                  handle)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, out_path],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout_s, MIN_CHILD_TIMEOUT_S), _kill_group,
                                (proc.pid,))
        timer.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.monotonic()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_all(proc.pid)
    payload = None
    if proc.returncode == 0:
        try:
            with open(out_path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
    return Run(t_launch, t_exit, proc.returncode, usage, payload,
               trace_dir, log_path)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def planned_cells(config) -> list:
    return [
        (scenario, model, seed_index)
        for scenario in config["scenarios"]
        for model in config["models"]
        for seed_index in range(config["n_seeds"])
    ]


def missing_cells(run: Run, planned: list) -> int:
    got = [(r["scenario"], r["model"], r["seed_index"]) for r in run.records]
    if sorted(got) != sorted(set(got)):
        return len(planned)  # duplicates: the record set cannot be trusted
    return len(set(planned) - set(got))


def records_digest(records: list) -> str:
    rows = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> dict:
    cells = len(run.records)
    return {
        "setup_s": run.setup_s,
        "wall_s": run.wall_s,
        "cells_per_s": cells / (run.wall_s - run.setup_s),
        "peak_rss_mb": run.usage.ru_maxrss / 1024.0,
        "cpu_s": run.usage.ru_utime + run.usage.ru_stime,
    }


def qos(records: list) -> dict:
    return {
        f"qos.{name}": statistics.fmean(float(r["metrics"][name]) for r in records)
        for name in QOS_METRICS
    }


def _counter(telemetry: dict, *names: str) -> int:
    counters = telemetry.get("counters", {})
    return sum(int(counters.get(name, 0)) for name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def telemetry_counts(telemetry: dict) -> dict:
    """Deterministic per-layer counts from ``CampaignResult.telemetry``."""
    elements = _counter(telemetry, "gon.ascent.elements", "gon.fast.elements")
    hits = _counter(telemetry, "carol.cache.hits")
    misses = _counter(telemetry, "carol.cache.misses")
    batches = _counter(telemetry, "service.batches")
    round_trip = telemetry.get("spans", {}).get("client.round_trip", {})
    return {
        "tabu.evaluations": _counter(telemetry, "tabu.evaluations"),
        "gon.elements": elements,
        "gon.steps": _counter(telemetry, "gon.ascent.steps", "gon.fast.steps"),
        "gon.converged_ratio": _ratio(
            _counter(telemetry, "gon.ascent.converged", "gon.fast.converged"), elements
        ),
        "carol.cache_hit_ratio": _ratio(hits, hits + misses),
        "carol.fine_tunes": _counter(telemetry, "carol.fine_tunes"),
        "sim.intervals": _counter(telemetry, "sim.intervals"),
        "service.requests": _counter(telemetry, "service.requests"),
        "service.batches": batches,
        "serving.elements_per_batch": _ratio(_counter(telemetry, "service.elements"),
                                             batches),
        "fleet.leases": _counter(telemetry, "fleet.leases"),
        "fleet.cells_requeued": _counter(telemetry, "fleet.cells_requeued"),
        # Wall-clock, but from the untraced run: the program's own span.
        "serving.round_trip_ms_mean": 1000.0 * _ratio(
            float(round_trip.get("total_s", 0.0)), float(round_trip.get("count", 0))
        ),
    }


def _load_spans(trace_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as handle:
                data = json.load(handle)
            files[data["pid"]] = data
    return files


def ledger(run: Run) -> dict:
    """Self time per layer for one traced run.

    ``parent_s`` is the campaign parent's main thread: together with the
    start-up/teardown milestones and ``unattributed`` it sums to the
    parent's wall time.  ``parallel_s`` is time in worker processes and
    in the parent's helper threads, which overlaps the parent's wall.
    """
    payload = run.payload
    spans = _load_spans(run.trace_dir)
    parent_pid = payload["pid"]
    rows: dict = {}
    inclusive: dict = {}
    unattributed_parallel = 0.0

    def row(layer):
        return rows.setdefault(layer, {"parent_s": 0.0, "parallel_s": 0.0, "calls": 0})

    for pid, data in spans.items():
        for layer, (main_s, other_s, calls, _last) in data["totals"].items():
            parent_main = main_s if pid == parent_pid else 0.0
            parallel = other_s + (0.0 if pid == parent_pid else main_s)
            if layer in CONTAINERS:
                unattributed_parallel += parallel
                continue
            entry = row(layer)
            entry["parent_s"] += parent_main
            entry["parallel_s"] += parallel
            entry["calls"] += int(calls)
        for layer, values in data["inclusive"].items():
            inclusive.setdefault(layer, []).extend(values)

    milestones = {
        "startup.interpreter": payload["t_start"] - run.t_launch,
        "startup.import": payload["t_imported"] - payload["t_start"],
        "bench.report": payload["t_reported"] - payload["t_returned"],
        "startup.teardown": run.t_exit - payload["t_reported"],
    }
    for layer, seconds in milestones.items():
        entry = row(layer)
        entry["parent_s"] += seconds
        entry["calls"] += 1
    wall = run.wall_s
    unattributed_parent = wall - sum(entry["parent_s"] for entry in rows.values())
    parent_totals = spans.get(parent_pid, {}).get("totals", {})
    last_put = parent_totals.get("storage.put_record", [0, 0, 0, 0.0])[3]
    return {
        "wall_s": wall,
        "rows": rows,
        "unattributed_parent_s": unattributed_parent,
        "unattributed_parallel_s": unattributed_parallel,
        "inclusive": inclusive,
        "fleet_shutdown_s": payload["t_returned"] - last_put if last_put else 0.0,
        "missing_targets": payload.get("missing_targets", []),
    }


def _self_s(book: dict, layer: str) -> float:
    entry = book["rows"].get(layer)
    return entry["parent_s"] + entry["parallel_s"] if entry else 0.0


def _calls(book: dict, layer: str) -> int:
    entry = book["rows"].get(layer)
    return entry["calls"] if entry else 0


def _percentile_ms(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(book: dict, counts: dict, untraced_wall: float) -> dict:
    repairs = book["inclusive"].get("carol.repair", [])
    interval_s = _self_s(book, "simulator.interval")
    return {
        "startup.import_s": _self_s(book, "startup.interpreter")
        + _self_s(book, "startup.import"),
        "startup.teardown_s": _self_s(book, "startup.teardown"),
        "calibration.trace_s": _self_s(book, "calibration.trace"),
        "training.train_gon_s": _self_s(book, "training.train_gon"),
        "training.train_gon_calls": _calls(book, "training.train_gon"),
        # Inclusive, as the paper's recovery overhead: tabu search and
        # ascent inside the repair count.  The ledger row keeps self time.
        "carol.repair_s": sum(repairs),
        "carol.repair_ms_p50": _percentile_ms(repairs, 50),
        "carol.repair_ms_p90": _percentile_ms(repairs, 90),
        "tabu.search_s": _self_s(book, "tabu.search"),
        "scoring.ascent_s": _self_s(book, "scoring.ascent"),
        "scoring.ascent_calls": _calls(book, "scoring.ascent"),
        "scoring.kernel_s": _self_s(book, "scoring.kernel"),
        "carol.observe_s": _self_s(book, "carol.observe"),
        "training.fine_tune_s": _self_s(book, "training.fine_tune"),
        "simulator.interval_s": interval_s,
        "simulator.ms_per_interval": 1000.0 * _ratio(interval_s, counts["sim.intervals"]),
        "baselines.repair_s": _self_s(book, "baselines.repair"),
        "scenarios.compile_s": _self_s(book, "scenarios.compile"),
        "serving.serve_s": _self_s(book, "serving.serve"),
        "fleet.shutdown_s": book["fleet_shutdown_s"],
        "storage.put_record_s": _self_s(book, "storage.put_record"),
        "storage.put_record_calls": _calls(book, "storage.put_record"),
        "trace.overhead_ratio": book["wall_s"] / untraced_wall,
        "trace.unattributed_s": book["unattributed_parent_s"]
        + book["unattributed_parallel_s"],
    }


def format_ledger(book: dict) -> str:
    wall = book["wall_s"]
    lines = [
        f"-- layer ledger (traced run, parent wall {wall:.3f} s; self time; "
        "parallel = worker processes + parent helper threads) --",
        f"{'layer':32s} {'parent s':>9s} {'% wall':>7s} {'parallel s':>10s} {'calls':>7s}",
    ]
    ordered = sorted(book["rows"].items(), key=lambda kv: -(kv[1]["parent_s"]
                                                              + kv[1]["parallel_s"]))
    for layer, entry in ordered:
        lines.append(
            f"{layer:32s} {entry['parent_s']:9.3f} {100 * entry['parent_s'] / wall:6.1f}%"
            f" {entry['parallel_s']:10.3f} {entry['calls']:7d}"
        )
    lines.append(
        f"{'unattributed':32s} {book['unattributed_parent_s']:9.3f} "
        f"{100 * book['unattributed_parent_s'] / wall:6.1f}% "
        f"{book['unattributed_parallel_s']:10.3f} {'-':>7s}"
    )
    if book["missing_targets"]:
        lines.append("!! wrap targets not found: " + ", ".join(book["missing_targets"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import multiprocessing

    try:
        import numpy

        numpy_version = numpy.__version__
        try:
            deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
            blas = deps.get("blas", {})
            blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
        except (TypeError, AttributeError):
            blas_name = "unknown"
    except ImportError:
        numpy_version = blas_name = "missing"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_name,
        "start_method": multiprocessing.get_start_method(),
        "REPRO_TELEMETRY": os.environ.get("REPRO_TELEMETRY", "unset (enabled)"),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _median_metrics(samples: list) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's unit and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(args, spec: dict) -> int:
    started = time.monotonic()
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    config = WORKLOADS[args.workload](args.seed)
    planned = planned_cells(config)
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    problems: list = []
    runs: list = []

    def timeout() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    def launch(kind, run_config, trace=False):
        run = run_child(kind, run_config, work_dir, timeout(), trace)
        if not run.ok:
            problems.append(f"{kind} run exited {run.exit_code}:\n{run.log_tail()}")
        runs.append(run)
        return run

    reference = None
    if config.get("mode") == "fleet":
        # The cross-mode contract: the fleet grid equals one serial
        # execution.  It runs first, inside the time budget.
        serial = dict(config, mode="process", workers=1, shared_assets=True)
        serial.pop("transport", None)
        reference = launch("serial-reference", serial)
    elif not args.trace:
        # Untimed warm-up: the first run after another program meets cold
        # caches.  Its records are checked like every other run's.
        launch("warm-up", config)

    untraced, traced = [], []
    per_run_estimate = 0.0
    loop_started = time.monotonic()
    while not problems:
        elapsed = time.monotonic() - started
        enough = len(untraced) >= (1 if args.trace else MIN_REPEATS)
        if enough and elapsed + per_run_estimate > args.seconds:
            break
        if timeout() < per_run_estimate + MIN_CHILD_TIMEOUT_S and untraced:
            break
        untraced.append(launch("untraced", config))
        if args.trace:
            traced.append(launch("traced", config, trace=True))
        per_run_estimate = (time.monotonic() - loop_started) / len(untraced)

    attempted = len(planned) * len(runs)
    failed = sum(missing_cells(run, planned) for run in runs)
    if failed and not problems:
        problems.append(f"{failed} of {attempted} planned cells have no record")
    digests = {
        records_digest(run.records) for run in runs if run.ok and run is not reference
    }
    if len(digests) > 1:
        problems.append(f"record digests differ across runs: {sorted(digests)}")
    if reference is not None and reference.ok and digests and (
        records_digest(reference.records) not in digests
    ):
        problems.append("fleet records differ from the serial execution of the grid")

    good = [run for run in untraced if run.ok]
    metrics: dict = {}
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    books = []
    samples = [end_to_end(run) for run in good]
    if good and not problems:
        e2e = _median_metrics(samples)
        e2e.update(qos(good[0].records))
        if args.trace:
            counts = telemetry_counts(good[0].payload["telemetry"])
            traced_counts = telemetry_counts(traced[0].payload["telemetry"])
            for key in counts:
                if key != "serving.round_trip_ms_mean" and counts[key] != traced_counts[key]:
                    problems.append(f"traced run changed count {key}: "
                                    f"{counts[key]} != {traced_counts[key]}")
            books = [ledger(run) for run in traced]
            timed = _median_metrics([
                layer_metrics(book, counts, run.wall_s)
                for book, run in zip(books, good)
            ])
            report_metrics = {**e2e, **counts, **timed}
        else:
            report_metrics = e2e
        metrics = {m["name"]: report_metrics[m["name"]] for m in table}
    else:
        report_metrics = {}

    host = fingerprint()
    print(f"workload {args.workload} (seed {args.seed}): {why}")
    print(f"grid {len(planned)} cells; {len(runs)} runs "
          f"({len(untraced)} untraced, {len(traced)} traced)")
    print("fingerprint " + json.dumps(host, sort_keys=True))
    if books:
        print(format_ledger(books[-1]))
    for name, value in report_metrics.items():
        line = f"{name} {value:.6g} {units.get(name, 's' if name.endswith('_s') else '')}"
        if args.trace and name in MOVES:
            line += "  [moves: {}; on: {}]".format(*MOVES[name])
        print(line)
    rate = _ratio(failed, attempted)
    print(f"cell_failure_rate {rate:.6g} ratio (base: {attempted} cells planned)")
    for problem in problems:
        print("CHECK FAILED: " + problem)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": host,
        "config": config, "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "cell_failure_rate": rate,
        "metrics": report_metrics, "record_digests": sorted(digests),
        "ledgers": books, "samples": samples,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_root, name), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    _become_subreaper()
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
