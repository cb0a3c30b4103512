"""Workload grids of the campaign benchmark, and what each layer should move.

``BENCHMARK.json`` names the workloads and the metrics, with their
units, directions and bounds, and ``run.py`` reads them from there.
This module holds what that file cannot: the campaign grid of each
workload, a pure function of the workload seed (which becomes the
campaign's root seed), and for every per-layer metric the end-to-end
metrics and the workloads it should move.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple


def carol_serial(seed: int) -> dict:
    return {
        "scenarios": ["paper-default"],
        "models": ["CAROL"],
        "n_seeds": 6,
        "seed": seed,
    }


def carol_fleet(seed: int) -> dict:
    return {
        "scenarios": ["paper-default", "chaos-drill"],
        "models": ["CAROL", "CAROL-Proactive"],
        "n_seeds": 4,
        "seed": seed,
        "workers": 2,
        "mode": "fleet",
        "transport": "queue",
        "scorer_backend": "fast",
        "carol_overrides": [["pot_calibration", 5]],
    }


def heuristic_sweep(seed: int) -> dict:
    return {
        "scenarios": [
            "paper-default", "chaos-drill", "hetero-fleet",
            "flash-crowd", "network-partition", "correlated-rack",
        ],
        "models": ["DYVERSE", "ECLB", "LBOS", "ELBS"],
        "n_seeds": 6,
        "seed": seed,
        "workers": 2,
        "store": "sqlite",
    }


#: workload name -> grid function of the workload seed.
WORKLOADS: Dict[str, Callable[[int], dict]] = {
    "carol-serial": carol_serial,
    "carol-fleet": carol_fleet,
    "heuristic-sweep": heuristic_sweep,
}

#: The record metrics whose grid means are reported as ``qos.<name>``.
#: They are simulated, so they repeat exactly for a seed; a change means
#: CAROL's decisions (or the simulation) changed.
QOS_METRICS = ("energy_kwh", "response_time_s", "slo_violation_rate", "downtime_s")

_CAROL = "carol-serial, carol-fleet"
_FLEET = "carol-fleet only"

#: per-layer metric -> (end-to-end metrics it should move, on which workloads).
MOVES: Dict[str, Tuple[str, str]] = {
    "startup.import_s": ("setup_s wall_s", "all; largest share on heuristic-sweep"),
    "startup.teardown_s": ("wall_s", "all"),
    "calibration.trace_s": ("cells_per_s setup_s",
                            "cells_per_s on carol-serial; setup_s on carol-fleet"),
    "training.train_gon_s": ("cells_per_s setup_s",
                             "cells_per_s on carol-serial; setup_s on carol-fleet"),
    "training.train_gon_calls": ("cells_per_s setup_s", _CAROL),
    "carol.repair_s": ("cells_per_s", _CAROL),
    "carol.repair_ms_p50": ("cells_per_s", _CAROL),
    "carol.repair_ms_p90": ("cells_per_s", _CAROL),
    "tabu.search_s": ("cells_per_s", _CAROL),
    "tabu.evaluations": ("cells_per_s", _CAROL),
    "scoring.ascent_s": ("cells_per_s", _CAROL),
    "scoring.ascent_calls": ("cells_per_s", _CAROL),
    "scoring.kernel_s": ("cells_per_s", "carol-fleet"),
    "gon.elements": ("cells_per_s", _CAROL),
    "gon.steps": ("cells_per_s", _CAROL),
    "gon.converged_ratio": ("cells_per_s", _CAROL),
    "carol.cache_hit_ratio": ("cells_per_s", _CAROL),
    "carol.observe_s": ("cells_per_s", "carol-fleet"),
    "training.fine_tune_s": ("cells_per_s", "carol-fleet"),
    "carol.fine_tunes": ("cells_per_s", "carol-fleet"),
    "simulator.interval_s": ("cells_per_s", "heuristic-sweep (small share on carol-serial)"),
    "sim.intervals": ("cells_per_s", "heuristic-sweep"),
    "simulator.ms_per_interval": ("cells_per_s", "heuristic-sweep"),
    "baselines.repair_s": ("cells_per_s", "heuristic-sweep"),
    "scenarios.compile_s": ("cells_per_s", "heuristic-sweep"),
    "serving.round_trip_ms_mean": ("wall_s cells_per_s", _FLEET),
    "serving.serve_s": ("wall_s cells_per_s", _FLEET),
    "service.requests": ("wall_s cells_per_s", _FLEET),
    "service.batches": ("wall_s cells_per_s", _FLEET),
    "serving.elements_per_batch": ("wall_s cells_per_s", _FLEET),
    "fleet.leases": ("wall_s cells_per_s", _FLEET),
    "fleet.cells_requeued": ("wall_s cells_per_s", _FLEET),
    "fleet.shutdown_s": ("wall_s cells_per_s", _FLEET),
    "storage.put_record_s": ("wall_s", "heuristic-sweep (sqlite); ~0 elsewhere"),
    "storage.put_record_calls": ("wall_s", "heuristic-sweep"),
    # Simulated QoS whose grid mean varies too much from seed to seed to
    # carry a bound; the record digest check guards them exactly.
    "qos.response_time_s": ("none (simulated outcome)", "all"),
    "qos.slo_violation_rate": ("none (simulated outcome)", "all"),
    "qos.downtime_s": ("none (simulated outcome)", "all"),
    "trace.overhead_ratio": ("none (tracing cost)", "all"),
    "trace.unattributed_s": ("none (ledger coverage)", "all"),
}
