"""Outside-in layer tracer for the traced campaign run.

The traced run replaces public functions at each layer boundary of the
``repro`` package with thin timing wrappers.  Nothing inside ``src/``
changes: the wrappers are installed here, in the benchmark's own files,
at the binding the caller actually looks up (a ``from``-import creates a
second binding, so ``repro.experiments.calibration.train_gon`` is wrapped
rather than ``repro.core.training.train_gon``).

Every wrapper pushes a frame on a per-thread stack.  When it returns,
its *self* time (duration minus the time its wrapped children covered)
is charged to its layer, so the layer totals of one thread never
overlap.  Container spans (``campaign.run_campaign`` and friends) exist
only to parent their children: their self time is time inside the
program that no layer claims, and the ledger reports it as
``unattributed``.

Aggregates live in memory, per process.  Pool and fleet workers are
forked after :func:`install`, so they inherit the wrappers; a fork hook
clears the inherited aggregates, and the wrapped ``run_cell`` flushes
the worker's totals to ``<trace_dir>/<pid>.json`` after every cell
because pool workers exit without running ``atexit``.  The campaign's
parent process calls :meth:`Tracer.flush` itself before it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Spans whose self time is unattributed: they only parent other spans.
CONTAINERS = frozenset({
    "campaign.run_campaign",
    "campaign.prepare_campaign_assets",
    "campaign.run_cell",
})

#: Layers whose outermost inclusive durations are kept for percentiles.
_INCLUSIVE = frozenset({"carol.repair"})

#: ``(module, attribute path, layer)``.  A class attribute path wraps the
#: function in that class's own ``__dict__``; subclasses that do not
#: override it reach the wrapper through normal lookup.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # experiments.campaign: the public API the campaign child calls.
    ("repro.experiments.campaign", "run_campaign", "campaign.run_campaign"),
    ("repro.experiments.campaign", "prepare_campaign_assets",
     "campaign.prepare_campaign_assets"),
    ("repro.experiments.campaign", "run_cell", "campaign.run_cell"),
    ("repro.experiments.campaign", "plan_tasks", "campaign.plan"),
    ("repro.experiments.campaign", "run_experiment", "experiments.runner"),
    ("repro.experiments.campaign", "prepare_assets", "calibration.prepare_assets"),
    ("repro.experiments.campaign", "build_model", "calibration.build_model"),
    ("repro.experiments.campaign", "build_topology", "scenarios.build_topology"),
    # experiments.calibration: offline trace + GON training.
    ("repro.experiments.calibration", "collect_defog_trace", "calibration.trace"),
    ("repro.experiments.calibration", "train_gon", "training.train_gon"),
    # scenarios: compile (chaos schedules travel as rows through here).
    ("repro.scenarios.spec", "ScenarioSpec.compile", "scenarios.compile"),
    # simulator: federation construction and the interval protocol.
    ("repro.simulator.engine", "EdgeFederation.__init__", "simulator.build"),
    ("repro.simulator.engine", "EdgeFederation.begin_interval", "simulator.interval"),
    ("repro.simulator.engine", "EdgeFederation.propose_topology",
     "simulator.interval"),
    ("repro.simulator.engine", "EdgeFederation.view", "simulator.interval"),
    ("repro.simulator.engine", "EdgeFederation.set_topology", "simulator.interval"),
    ("repro.simulator.engine", "EdgeFederation.set_management_profile",
     "simulator.interval"),
    ("repro.simulator.engine", "EdgeFederation.run_interval", "simulator.interval"),
    # core decision + fine-tune.
    ("repro.core.carol", "CAROL.repair", "carol.repair"),
    ("repro.core.proactive", "ProactiveCAROL.repair", "carol.repair"),
    ("repro.core.carol", "CAROL.observe", "carol.observe"),
    ("repro.core.carol", "tabu_search", "tabu.search"),
    ("repro.core.scoring", "LocalScorer.ascent", "scoring.ascent"),
    ("repro.core.scoring", "LocalScorer.confidence", "scoring.confidence"),
    ("repro.core.scoring", "LocalScorer.fine_tune", "scoring.fine_tune"),
    ("repro.core.scoring", "fine_tune", "training.fine_tune"),
    ("repro.core.fastscore", "FastGONKernel.ascent", "scoring.kernel"),
    # storage.
    ("repro.storage", "open_store", "storage.open"),
    ("repro.storage.memory", "MemoryCampaignStore.put_record", "storage.put_record"),
    ("repro.storage.sqlite", "SqliteCampaignStore.put_record", "storage.put_record"),
    ("repro.storage.memory", "MemoryCampaignStore.register_campaign", "storage.other"),
    ("repro.storage.sqlite", "SqliteCampaignStore.register_campaign", "storage.other"),
    ("repro.storage.memory", "MemoryCampaignStore.records", "storage.other"),
    ("repro.storage.sqlite", "SqliteCampaignStore.records", "storage.other"),
    ("repro.storage.memory", "MemoryCampaignStore.merge_telemetry", "storage.other"),
    ("repro.storage.sqlite", "SqliteCampaignStore.merge_telemetry", "storage.other"),
    ("repro.storage.sqlite", "SqliteCampaignStore.close", "storage.other"),
    # telemetry bookkeeping around every cell.
    ("repro.telemetry", "snapshot", "telemetry"),
    ("repro.telemetry", "delta", "telemetry"),
    ("repro.telemetry", "merge_snapshots", "telemetry"),
    ("repro.telemetry.registry", "MetricsRegistry.merge_snapshot", "telemetry"),
)

#: Extra targets for fleet campaigns (``repro.experiments.fleet`` pulls
#: in the serving stack, so heuristic and serial runs skip them).
FLEET_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.fleet", "run_fleet_campaign", "fleet.coordinate"),
    ("repro.experiments.fleet", "run_cell", "campaign.run_cell"),
    ("repro.experiments.fleet", "build_model", "calibration.build_model"),
    ("repro.experiments.fleet", "merge_snapshots", "telemetry"),
    ("repro.serving.service", "GONScoringService.serve", "serving.serve"),
    ("repro.serving.service", "FleetScorer.ascent", "scoring.ascent"),
    ("repro.serving.service", "FleetScorer.confidence", "scoring.confidence"),
    ("repro.serving.service", "FleetScorer.fine_tune", "scoring.fine_tune"),
    ("repro.serving.service", "fine_tune", "training.fine_tune"),
)


class Tracer:
    """Per-process span aggregates and the wrappers that feed them."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        #: Targets that could not be found (renamed or removed).
        self.missing: List[str] = []
        self.reset()

    def reset(self) -> None:
        """Start empty; runs in every forked child, before it does work."""
        self._lock = threading.Lock()
        self._local = threading.local()
        #: layer -> [main-thread self s, other-thread self s, calls, last end]
        self.totals: Dict[str, List[float]] = {}
        #: layer -> outermost inclusive durations (seconds)
        self.inclusive: Dict[str, List[float]] = {}

    def wrap(self, fn: Callable, layer: str, flush_after: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            outermost = not any(frame[0] == layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                main = threading.current_thread() is threading.main_thread()
                with tracer._lock:
                    row = tracer.totals.setdefault(layer, [0.0, 0.0, 0, 0.0])
                    row[0 if main else 1] += duration - frame[1]
                    row[2] += 1
                    row[3] = max(row[3], end)
                    if outermost and layer in _INCLUSIVE:
                        tracer.inclusive.setdefault(layer, []).append(duration)
                if flush_after:
                    tracer.flush()

        return traced

    def wrap_target(self, module_name: str, path: str, layer: str) -> None:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if isinstance(owner, type):
                current = owner.__dict__[attr]
            else:
                current = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(current, property):
            wrapped = property(self.wrap(current.fget, layer), current.fset, current.fdel)
        else:
            wrapped = self.wrap(current, layer, flush_after=layer == "campaign.run_cell")
        setattr(owner, attr, wrapped)

    def wrap_baselines(self) -> None:
        """Every heuristic baseline's own ``repair``/``observe``, and the
        ``observe`` overrides of CAROL's ablations."""
        import repro.baselines as baselines
        from repro.core.carol import CAROL
        from repro.core.interface import ResilienceModel

        for name in dir(baselines):
            cls = getattr(baselines, name)
            if not (isinstance(cls, type) and issubclass(cls, ResilienceModel)):
                continue
            if cls is ResilienceModel or cls is CAROL:
                continue
            for method in ("repair", "observe"):
                if method in cls.__dict__:
                    family = "carol" if issubclass(cls, CAROL) else "baselines"
                    self.wrap_target(
                        cls.__module__, f"{cls.__name__}.{method}", f"{family}.{method}"
                    )

    def wrap_pool(self) -> None:
        """Charge the parent's wait on the process pool to ``campaign.pool``.

        ``run_campaign`` iterates ``executor.map`` itself, so the wait
        sits in the iterator's ``next``: the traced pool times every
        ``next`` and its ``shutdown``.
        """
        from repro.experiments import campaign

        base = campaign.ProcessPoolExecutor
        wrap = self.wrap

        class TracedPool(base):
            def map(self, *args, **kwargs):
                iterator = wrap(super().map, "campaign.pool")(*args, **kwargs)
                step = wrap(lambda: next(iterator), "campaign.pool")
                while True:
                    try:
                        yield step()
                    except StopIteration:
                        return

            shutdown = wrap(base.shutdown, "campaign.pool")

        campaign.ProcessPoolExecutor = TracedPool

    def flush(self) -> None:
        """Write this process's cumulative totals (idempotent overwrite)."""
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "totals": {layer: list(row) for layer, row in self.totals.items()},
                "inclusive": {layer: list(v) for layer, v in self.inclusive.items()},
            }
        path = os.path.join(self.trace_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def install(trace_dir: str, fleet: bool = False) -> Tracer:
    """Wrap every target in this process; forked children start empty."""
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(trace_dir)
    for target in TARGETS + (FLEET_TARGETS if fleet else ()):
        tracer.wrap_target(*target)
    tracer.wrap_baselines()
    tracer.wrap_pool()
    os.register_at_fork(after_in_child=tracer.reset)
    return tracer
