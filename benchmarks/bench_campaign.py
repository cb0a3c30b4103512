"""Campaign bench: process-pool vs fleet execution.

Two comparisons, both emitting machine-readable results to
``BENCH_campaign.json`` so the perf trajectory is tracked across PRs:

* **default** -- the PR-1 comparison: the same heuristic-model grid
  executed serially and across a process pool (bit-identity asserted;
  on a single-core runner the speedup hovers around 1x).
* **--fleet** -- the head-to-head for fleet mode: a CAROL campaign
  (offline GON training + surrogate-driven repair) executed three
  ways --

  1. the PR-1 process-pool path: every run trains its own GON and
     scores in-process (the baseline the speedup is measured against);
  2. fleet mode: assets trained once, published via shared memory,
     workers leasing cells from one service and scoring in-process
     (records bit-identical to serial/process at equal shared assets);
  3. the process pool with the same shared assets -- isolates the
     executor's share of the difference and anchors the bit-identity
     check against fleet records.

  The persistent surrogate-cache hit rates are reported for both
  cache scopes on paper-default plus the fault-free control.
* **--telemetry** -- the instrumentation-cost measurement: the same
  serial grid executed with the :mod:`repro.telemetry` registry
  enabled and disabled (min of two runs each, damping scheduler
  noise).  The resulting ``telemetry_overhead_ratio`` is gated by
  ``check_regression.py`` against an absolute 1.10x cap: observability
  that costs more than 10% of a campaign fails CI.
* **--tcp** -- the transport head-to-head: the same fleet grid
  executed over the in-machine queue transport and over TCP sockets
  on localhost (length-prefixed binary frames, workers fetching
  assets over the wire).  Records are asserted bit-identical across
  transports; the ``tcp_vs_queue_speedup`` ratio tracks the framing
  overhead so a serialization regression cannot land silently.
* **--fast-backend** -- the kernel vs autodiff head-to-head: the
  same shared-assets CAROL grid executed on the autodiff oracle (the
  ``exact`` arm, with ``LocalScorer.ascent`` swapped in-process for
  ``generate_metrics_batch``) and on the fused float64 kernel
  (``fast``).  The fast path must produce bit-identical records and
  identical decision digests.

Run:  PYTHONPATH=src python benchmarks/bench_campaign.py [--fleet] [--tcp] [--fast-backend] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from repro import telemetry
from repro.core import CAROL, CAROLConfig, TrainingConfig
from repro.core.scoring import LocalScorer
from repro.core.surrogate import generate_metrics_batch
from repro.experiments import (
    CampaignConfig,
    CampaignResult,
    prepare_assets,
    prepare_campaign_assets,
    run_campaign,
)
from repro.experiments.campaign import plan_tasks
from repro.experiments.fleet import run_fleet_campaign
from repro.experiments.runner import run_experiment
from repro.scenarios import build_topology, get_scenario
from repro.simulator.engine import EdgeFederation


#: Local runs write under benchmarks/out/ so stray BENCH_*.json never
#: litter the working tree; CI passes explicit --json artifact paths.
_DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "out", "BENCH_campaign.json"
)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


# ----------------------------------------------------------------------
# Default mode: serial vs process pool (the PR-1 bench, kept)
# ----------------------------------------------------------------------
def legacy_grid(quick: bool) -> CampaignConfig:
    return CampaignConfig(
        scenarios=("paper-default", "correlated-rack", "flash-crowd"),
        models=("dyverse",),
        n_seeds=1 if quick else 2,
        seed=1,
        n_intervals=4 if quick else 8,
        workers=1,
    )


def run_legacy(args: argparse.Namespace) -> dict:
    config = legacy_grid(args.quick)
    serial_seconds, serial = _timed(run_campaign, config)
    parallel_seconds, parallel = _timed(run_campaign, replace(config, workers=2))
    assert serial.rows() == parallel.rows(), "parallel campaign diverged from serial"
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print("\n-- campaign wall-time: serial vs process-parallel --")
    print(f"grid             : {len(serial.records)} runs")
    print(f"serial (1 proc)  : {serial_seconds:.2f} s")
    print(f"parallel (2 proc): {parallel_seconds:.2f} s")
    print(f"speedup          : {speedup:.2f}x")
    print(serial.format_summary())
    return {
        "n_runs": len(serial.records),
        "serial_s": round(serial_seconds, 3),
        "process_2_workers_s": round(parallel_seconds, 3),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }


# ----------------------------------------------------------------------
# --fleet: process-pool vs fleet CAROL campaigns
# ----------------------------------------------------------------------
def fleet_grid(args: argparse.Namespace) -> CampaignConfig:
    # --proactive sweeps the §VI scheme instead of reactive CAROL.  The
    # POT gate is opened early (carol_overrides) so fine-tuning is
    # actually on the timed path, not just configured.
    proactive = getattr(args, "proactive", False)
    return CampaignConfig(
        scenarios=("paper-default",),
        models=("carol-proactive",) if proactive else ("carol",),
        n_seeds=args.runs,
        workers=args.workers,
        seed=1,
        n_intervals=args.intervals,
        trace_intervals=args.trace_intervals,
        gon_hidden=args.gon_hidden,
        gon_layers=args.gon_layers,
        gon_epochs=args.gon_epochs,
        carol_overrides=(
            (("pot_calibration", 5), ("min_buffer", 2)) if proactive else ()
        ),
    )


def run_fleet_bench(args: argparse.Namespace) -> dict:
    process_config = fleet_grid(args)
    fleet_config = replace(process_config, mode="fleet", shared_assets=True)
    shared_config = replace(process_config, shared_assets=True)
    model_name = process_config.models[0]
    print(
        f"\n-- fleet bench: {process_config.n_seeds} x {model_name} on "
        f"paper-default, {process_config.n_intervals} intervals, "
        f"GON {process_config.gon_hidden}x{process_config.gon_layers}, "
        f"{process_config.workers} workers --"
    )

    # 1. The PR-1 path: per-run offline training + in-process scoring.
    pr1_seconds, pr1 = _timed(run_campaign, process_config)
    print(f"process pool, per-run assets (PR-1 path): {pr1_seconds:6.2f} s")

    # Shared offline assets, prepared once and reused by every
    # subsequent configuration (fleet pays this bill in its total).
    prep_seconds, assets = _timed(prepare_campaign_assets, shared_config)
    print(f"shared asset preparation (once)         : {prep_seconds:6.2f} s")

    # 2. Fleet mode: workers lease cells from one service.
    tasks = plan_tasks(fleet_config)
    fleet_seconds, fleet_records = _timed(
        run_fleet_campaign, fleet_config, tasks, assets
    )
    fleet_total = prep_seconds + fleet_seconds
    fleet = CampaignResult(config=fleet_config, records=fleet_records)
    print(
        f"fleet exec                              : {fleet_seconds:6.2f} s"
        f"  (+prep = {fleet_total:.2f} s total)"
    )

    # 3. Process pool with the same shared assets: the bit-identity
    #    anchor, and the executor's share of the difference.
    shared_seconds, shared = _timed(run_campaign, shared_config, prepared_assets=assets)
    print(f"process pool, shared assets             : {shared_seconds:6.2f} s")

    identical = fleet.rows() == shared.rows()
    assert identical, "fleet records diverged from process/shared records"

    speedup = pr1_seconds / max(fleet_total, 1e-9)
    exec_speedup = shared_seconds / max(fleet_seconds, 1e-9)
    fine_tunes = sum(r.diagnostics.get("n_fine_tunes", 0) for r in fleet_records)
    print(
        f"speedup vs PR-1 path: {speedup:.2f}x end-to-end "
        f"({exec_speedup:.2f}x exec-only vs process/shared); "
        f"{fine_tunes} fine-tunes"
    )

    return {
        "scenario": "paper-default",
        "model": model_name,
        "n_fine_tunes": fine_tunes,
        "n_runs": process_config.n_seeds,
        "workers": process_config.workers,
        "n_intervals": process_config.n_intervals,
        "gon": f"{process_config.gon_hidden}x{process_config.gon_layers}",
        "process_per_run_assets_s": round(pr1_seconds, 3),
        "shared_prep_s": round(prep_seconds, 3),
        "fleet_exec_s": round(fleet_seconds, 3),
        "fleet_total_s": round(fleet_total, 3),
        "process_shared_assets_s": round(shared_seconds, 3),
        "speedup_vs_pr1": round(speedup, 2),
        "exec_speedup_vs_process_shared": round(exec_speedup, 2),
        "bit_identical_fleet_vs_process": identical,
    }


# ----------------------------------------------------------------------
# --fast-backend: kernel vs autodiff head-to-head on the same CAROL grid
# ----------------------------------------------------------------------
def _oracle_ascent(scorer, metrics, schedules, adjacencies, gamma, max_steps):
    """``LocalScorer.ascent`` computed through the autodiff oracle."""
    return generate_metrics_batch(
        scorer.model, schedules, adjacencies,
        init_metrics=metrics, gamma=gamma, max_steps=max_steps,
    )


def _on_oracle(fn):
    """``fn()`` with every scoring ascent on autodiff.

    Pool workers fork after the swap, so they inherit it.
    """
    live = LocalScorer.ascent
    LocalScorer.ascent = _oracle_ascent
    try:
        return fn()
    finally:
        LocalScorer.ascent = live


def run_fast_backend_bench(args: argparse.Namespace) -> dict:
    """End-to-end campaign timing, kernel vs autodiff, parity asserted.

    The same shared-assets CAROL grid executed on the autodiff oracle
    (the ``exact`` arm: ``LocalScorer.ascent`` swapped for
    ``generate_metrics_batch``, since the shipped ``exact`` backend is
    the float64 kernel) and on the fused float64 kernel (``fast``).
    ``fast`` is held to bit-identical records *and* identical decision
    digests.  The end-to-end speedups are modest by construction -- the simulator
    and offline assets dominate a campaign -- so the surrogate bench's
    per-ascent numbers carry the headline; these keys pin the
    integration.
    """
    shared = replace(fleet_grid(args), shared_assets=True)
    print(
        f"\n-- fast-backend bench: {shared.n_seeds} x {shared.models[0]} on "
        f"paper-default, {shared.n_intervals} intervals, "
        f"GON {shared.gon_hidden}x{shared.gon_layers} --"
    )
    prep_seconds, assets = _timed(prepare_campaign_assets, shared)
    print(f"shared asset preparation (once): {prep_seconds:6.2f} s")

    results = {}
    timings = {}
    for backend in ("exact", "fast"):
        config = replace(shared, scorer_backend=backend)
        timed = partial(_timed, run_campaign, config, prepared_assets=assets)
        seconds, result = _on_oracle(timed) if backend == "exact" else timed()
        results[backend] = result
        timings[backend] = seconds
        label = "exact (autodiff oracle)" if backend == "exact" else backend
        print(f"campaign, scorer_backend={label:<23}: {seconds:6.2f} s")
    if telemetry.is_enabled():
        # Guards against a parity check of the kernel against itself.
        calls = {
            backend: result.telemetry["counters"]["gon.ascent.calls"]
            for backend, result in results.items()
        }
        assert calls["exact"] > 0 and calls["fast"] == 0, calls

    def digests(result) -> list:
        return [r.diagnostics.get("decision_digest") for r in result.records]

    identical = results["fast"].rows() == results["exact"].rows()
    fast_decisions = digests(results["fast"]) == digests(results["exact"])
    assert identical, "fast-backend records diverged from the exact oracle"
    assert fast_decisions, "fast-backend decisions diverged from the oracle"

    fast_speedup = timings["exact"] / max(timings["fast"], 1e-9)
    print(
        f"speedup vs the autodiff oracle: fast {fast_speedup:.2f}x end-to-end "
        f"(records identical: {identical}; decisions: {fast_decisions})"
    )
    return {
        "scenario": "paper-default",
        "model": shared.models[0],
        "n_runs": shared.n_seeds,
        "n_intervals": shared.n_intervals,
        "gon": f"{shared.gon_hidden}x{shared.gon_layers}",
        "exact_s": round(timings["exact"], 3),
        "fast_s": round(timings["fast"], 3),
        "fast_campaign_speedup": round(fast_speedup, 2),
        "records_identical_fast_vs_exact": identical,
        "decision_parity_fast_vs_exact": fast_decisions,
    }


# ----------------------------------------------------------------------
# --tcp: queue vs TCP transport head-to-head on the same fleet grid
# ----------------------------------------------------------------------
def run_tcp_bench(args: argparse.Namespace) -> dict:
    """Queue-transport vs TCP-transport fleet execution, bit-identity
    asserted -- the framing/socket overhead measured on localhost."""
    base = fleet_grid(args)
    queue_config = replace(base, mode="fleet", shared_assets=True)
    tcp_config = replace(queue_config, transport="tcp")
    print(
        f"\n-- transport bench: {queue_config.n_seeds} x "
        f"{queue_config.models[0]} on paper-default, "
        f"{queue_config.workers} workers, queue vs tcp --"
    )

    prep_seconds, assets = _timed(prepare_campaign_assets, queue_config)
    print(f"shared asset preparation (once)   : {prep_seconds:6.2f} s")

    queue_seconds, queue_records = _timed(
        run_fleet_campaign, queue_config, plan_tasks(queue_config), assets
    )
    print(f"fleet exec, queue transport       : {queue_seconds:6.2f} s")

    tcp_seconds, tcp_records = _timed(
        run_fleet_campaign, tcp_config, plan_tasks(tcp_config), assets
    )
    print(f"fleet exec, tcp transport (local) : {tcp_seconds:6.2f} s")

    queue_rows = CampaignResult(config=queue_config, records=queue_records).rows()
    tcp_rows = CampaignResult(config=tcp_config, records=tcp_records).rows()
    identical = queue_rows == tcp_rows
    assert identical, "tcp fleet records diverged from queue transport"

    ratio = queue_seconds / max(tcp_seconds, 1e-9)
    print(
        f"tcp/queue wall-clock ratio        : {ratio:.2f}x "
        f"(>1 means tcp was faster; framing overhead shows as <1); "
        f"records bit-identical: {identical}"
    )
    return {
        "scenario": "paper-default",
        "model": queue_config.models[0],
        "n_runs": queue_config.n_seeds,
        "workers": queue_config.workers,
        "n_intervals": queue_config.n_intervals,
        "queue_exec_s": round(queue_seconds, 3),
        "tcp_exec_s": round(tcp_seconds, 3),
        "tcp_vs_queue_speedup": round(ratio, 2),
        "bit_identical_tcp_vs_queue": identical,
    }


# ----------------------------------------------------------------------
# --telemetry: instrumentation cost (enabled vs disabled registry)
# ----------------------------------------------------------------------
def run_telemetry_bench(args: argparse.Namespace) -> dict:
    """Wall-clock cost of the metrics registry on a serial campaign.

    Times the same grid with telemetry enabled and disabled,
    interleaved, taking the min of three runs per state (min, not
    mean: the lower envelope is the least noisy wall-clock estimator
    on a shared runner).  The serial heuristic grid keeps the timed
    path dominated by the instrumented hot loops (interval engine,
    tabu search) rather than offline GON training, and runs *longer*
    than the legacy smoke grid: an absolute 1.10x gate on a
    millisecond-scale measurement would be pure scheduler noise, so
    the grid is sized to keep each timed campaign comfortably above
    the timer's noise floor.
    """
    from repro import telemetry

    config = CampaignConfig(
        scenarios=("paper-default", "correlated-rack", "flash-crowd"),
        models=("dyverse",),
        n_seeds=3,
        seed=1,
        n_intervals=60 if args.quick else 100,
        workers=1,
    )
    print(
        f"\n-- telemetry overhead: {config.n_seeds * len(config.scenarios)}"
        f" runs x {config.n_intervals} intervals, serial --"
    )
    run_campaign(config)  # warm-up: allocator, import, BLAS threads

    enabled_times, disabled_times = [], []
    try:
        for _round in range(3):
            telemetry.set_enabled(True)
            enabled_times.append(_timed(run_campaign, config)[0])
            telemetry.set_enabled(False)
            disabled_times.append(_timed(run_campaign, config)[0])
    finally:
        telemetry.set_enabled(True)

    enabled_s = min(enabled_times)
    disabled_s = min(disabled_times)
    ratio = enabled_s / max(disabled_s, 1e-9)
    print(f"telemetry enabled  (min of {len(enabled_times)}): {enabled_s:6.3f} s")
    print(f"telemetry disabled (min of {len(disabled_times)}): {disabled_s:6.3f} s")
    print(f"overhead ratio (enabled/disabled)   : {ratio:.3f}x")
    return {
        "n_runs": config.n_seeds * len(config.scenarios),
        "n_intervals": config.n_intervals,
        "runs_per_state": 3,
        "enabled_s": round(enabled_s, 3),
        "disabled_s": round(disabled_s, 3),
        "telemetry_overhead_ratio": round(ratio, 3),
    }


# ----------------------------------------------------------------------
# Persistent surrogate-cache telemetry
# ----------------------------------------------------------------------
def cache_stats(
    scenario: str,
    scope: str,
    n_intervals: int,
    args: argparse.Namespace,
    seed: int = 7,
) -> dict:
    """Hit/miss telemetry of one CAROL run, split between fine-tunes."""
    spec = get_scenario(scenario)
    config = spec.compile(seed=seed, n_intervals=n_intervals)
    assets = prepare_assets(
        config,
        trace_intervals=args.trace_intervals,
        gon_hidden=args.gon_hidden,
        gon_layers=args.gon_layers,
        training=TrainingConfig(
            epochs=args.gon_epochs, batch_size=16, learning_rate=1e-3,
            generation_steps=20, seed=seed,
        ),
    )
    model = CAROL(
        assets.fresh_gon(),
        config.alpha,
        config.beta,
        CAROLConfig(seed=config.seed, score_cache_scope=scope),
    )
    # Per-interval counter deltas let us report per-generation windows.
    hits, misses = [], []
    repair = model.repair

    def instrumented(view, report, proposal):
        h0, m0 = model.diagnostics.cache_hits, model.diagnostics.cache_misses
        chosen = repair(view, report, proposal)
        hits.append(model.diagnostics.cache_hits - h0)
        misses.append(model.diagnostics.cache_misses - m0)
        return chosen

    model.repair = instrumented
    federation = EdgeFederation(config, topology=build_topology(spec))
    run_experiment(model, config, federation=federation, edge_slowdown=0.0)

    flushes = [i + 1 for i, f in enumerate(model.diagnostics.fine_tuned) if f]
    windows, start = [], 0
    for stop in [*flushes, len(hits)]:
        if stop > start:
            h, m = sum(hits[start:stop]), sum(misses[start:stop])
            windows.append({
                "intervals": [start, stop],
                "lookups": h + m,
                "hit_rate": round(h / (h + m), 3) if h + m else 0.0,
            })
            start = stop
    diag = model.diagnostics
    return {
        "scenario": scenario,
        "scope": scope,
        "n_intervals": n_intervals,
        "hits": diag.cache_hits,
        "misses": diag.cache_misses,
        "evictions": diag.cache_evictions,
        "hit_rate": round(diag.cache_hit_rate, 3),
        "fine_tunes": diag.n_fine_tunes,
        "windows_between_fine_tunes": windows,
    }


def run_cache_bench(args: argparse.Namespace) -> dict:
    # The scenario's own default evaluation length (20 for
    # paper-default) unless quick mode trims it.
    n_intervals = 15 if args.quick else 20
    print("\n-- persistent surrogate cache (hit rates between fine-tunes) --")
    results = {}
    probes = [
        ("paper-default", "context"),
        ("paper-default", "generation"),
        ("fault-free", "generation"),
    ]
    for scenario, scope in probes:
        stats = cache_stats(scenario, scope, n_intervals, args)
        results[f"{scenario}/{scope}"] = stats
        windows = ", ".join(
            f"[{a},{b}) {w['hit_rate']:.0%}"
            for w in stats["windows_between_fine_tunes"]
            for a, b in [w["intervals"]]
        )
        print(
            f"  {scenario:<14} scope={scope:<10} overall "
            f"{stats['hit_rate']:.1%}  windows: {windows}"
        )
    return results


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=(
            "examples: "
            "`bench_campaign.py --fleet` times reactive CAROL; "
            "`bench_campaign.py --fleet --proactive` sweeps the §VI "
            "ProactiveCAROL scheme with the POT gate opened early, so "
            "fleet runs fine-tune on the timed path."
        ),
    )
    parser.add_argument(
        "--fleet", action="store_true", help="run the process-vs-fleet CAROL head-to-head"
    )
    parser.add_argument(
        "--tcp",
        action="store_true",
        help="run the queue-vs-tcp transport head-to-head on the fleet grid (localhost sockets)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="measure the metrics-registry cost: the serial grid timed with "
        "telemetry enabled vs disabled (gated at 1.10x by check_regression.py)",
    )
    parser.add_argument(
        "--fast-backend",
        action="store_true",
        help="run the kernel vs autodiff head-to-head (autodiff oracle vs "
        "fast campaign timing, record + decision parity asserted)",
    )
    parser.add_argument(
        "--proactive",
        action="store_true",
        help="fleet bench sweeps CAROL-Proactive instead of reactive CAROL "
        "(POT gate opened early so fine-tuning is on the timed path)",
    )
    parser.add_argument("--quick", action="store_true", help="reduced sizes for CI smoke")
    parser.add_argument(
        "--runs",
        type=int,
        default=8,
        help="fleet bench: CAROL runs in the grid (>= 8 for the acceptance measurement)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--intervals", type=int, default=10)
    parser.add_argument("--trace-intervals", type=int, default=40)
    parser.add_argument("--gon-hidden", type=int, default=24)
    parser.add_argument("--gon-layers", type=int, default=2)
    parser.add_argument("--gon-epochs", type=int, default=6)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fleet: exit non-zero below this end-to-end speedup (0 disables)",
    )
    parser.add_argument(
        "--no-cache-bench", action="store_true", help="skip the surrogate-cache telemetry section"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=_DEFAULT_JSON,
        help="write machine-readable results here (default: benchmarks/out/, kept out of "
        "the working tree; CI passes an explicit path)",
    )
    args = parser.parse_args(argv)
    if args.proactive:
        # The proactive sweep is a fleet-bench variant.
        args.fleet = True
    if args.quick:
        args.runs = min(args.runs, 8)
        # The POT gate needs >= pot_calibration (floor 5) observations
        # before it can open: the proactive quick bench keeps enough
        # intervals that fine-tuning genuinely lands on the timed path.
        args.intervals = min(args.intervals, 6 if args.proactive else 4)
        args.trace_intervals = min(args.trace_intervals, 16)
        args.gon_hidden = min(args.gon_hidden, 12)
        args.gon_epochs = min(args.gon_epochs, 2)

    payload = {
        "bench": "campaign",
        "quick": args.quick,
        "numpy": np.__version__,
    }
    if args.fleet:
        payload["fleet"] = run_fleet_bench(args)
        if not args.no_cache_bench:
            payload["cache"] = run_cache_bench(args)
    if args.tcp:
        payload["tcp"] = run_tcp_bench(args)
    if args.telemetry:
        payload["telemetry"] = run_telemetry_bench(args)
    if args.fast_backend:
        payload["fast_backend"] = run_fast_backend_bench(args)
    if (
        not args.fleet
        and not args.tcp
        and not args.telemetry
        and not args.fast_backend
    ):
        payload["serial_vs_process"] = run_legacy(args)

    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as sink:
        json.dump(payload, sink, indent=2)
    print(f"\nwrote {args.json}")

    if args.fleet and args.min_speedup > 0:
        speedup = payload["fleet"]["speedup_vs_pr1"]
        if speedup < args.min_speedup:
            print(f"FAIL: fleet speedup {speedup:.2f}x below required {args.min_speedup}x")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
