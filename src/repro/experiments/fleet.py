"""Fleet-mode campaign execution: an elastic, lease-based work queue.

The process-pool path pickles a copy of the offline assets into every
worker.  Fleet mode publishes them instead (see :mod:`repro.serving`
for the subsystem diagram):

* the parent publishes each scenario's trained GON weights and trace
  stacks *once* (shared memory, or an asset channel on the TCP
  transport);
* ``N`` lightweight simulation workers mount read-only views of those
  assets and run every leased cell through
  :func:`campaign._execute_run` -- the process pool's own model
  factory, so each worker scores its GON ascents in-process with a
  :class:`~repro.core.scoring.LocalScorer` over ``fresh_gon()``;
* the :class:`~repro.serving.GONScoringService` only leases cells,
  settles acknowledgements and merges worker telemetry.

Cells are not pre-sharded across workers.  The coordinator side
holds the whole ``(scenario, model, seed)`` grid as a lease-based
queue (:class:`~repro.serving.CellCoordinator`); every worker pulls
one cell at a time (``LeaseRequest`` -> ``LeaseGrant``), runs it,
ships the record, acknowledges with ``CellDone`` and pulls the next.
Because :func:`campaign.run_cell` derives every RNG stream from the
cell's own ``SeedSequence.spawn`` child, *which worker* runs a cell --
or how often it is retried after a worker dies -- never changes the
record.  That independence is what makes work stealing, crash
re-queue and duplicate suppression safe:

* a worker that dies mid-cell (socket EOF, missed heartbeats, or --
  on the queue transport -- its process exiting without signing off)
  has its leases revoked and re-queued for the survivors;
* a cell that keeps killing workers exhausts its bounded retry budget
  and is quarantined as *poisoned* -- reported, not retried forever;
* late workers may join a running TCP campaign (handshake assigns ids
  in accept order) and immediately start pulling queued cells;
* duplicate records from zombie workers (a cell revoked and re-run
  elsewhere) are deduplicated first-wins on collection.

Two transports carry the traffic (``CampaignConfig.transport``):

* ``"queue"`` -- ``multiprocessing`` queues and shared-memory asset
  segments; the fleet lives on one machine
  (:class:`~repro.serving.QueueTransport`);
* ``"tcp"`` -- length-prefixed binary frames over sockets
  (:mod:`repro.serving.wire`); workers fetch assets over the socket
  and may live on other machines.  With ``CampaignConfig.service_addr``
  set, workers connect to an externally hosted service
  (``python -m repro serve``) instead of one spawned here.

Record-level bit-identity with serial execution holds on both
transports because (a) a fleet cell runs the very factory and
:func:`campaign.run_cell` tail a serial cell runs, (b) workers keep
every RNG stream local, and (c) the published weights are bit-exact
copies of the trained state (``pack_state`` roundtrips are bit-exact,
and the TCP wire moves float64 payloads as raw packed bytes, never
through text).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import queue as queue_module
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from itertools import count as _count
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..core import GONInput
from ..nn.serialization import pack_state
from ..serving import (
    AttachedArrayPack,
    ClientDone,
    GONScoringService,
    QueueTransport,
    ServiceStats,
    SharedArrayPack,
    SharedPackHandle,
    StatsUpdate,
    StatusServer,
    TcpTransport,
    TcpWorkerChannel,
    fetch_array_pack,
    serve_transport,
)
from ..serving.chaos import ChaosControl
from ..serving.coordinator import CellCoordinator
from ..serving.service import CellDone, LeaseGrant, LeaseRequest, Ping, WorkerLost
from ..telemetry import merge_snapshots
from .calibration import TrainedAssets
from .campaign import (
    RunRecord,
    RunTask,
    _CAROL_FAMILY,
    _execute_run,
    campaign_config_hash,
    campaign_grid_identity,
    plan_tasks,
)

__all__ = ["run_fleet_campaign", "serve_fleet_service", "FleetChaosHandle"]

#: Seconds to wait for a straggler record/worker before giving up.
_COLLECT_TIMEOUT = 120.0

#: Worker-side backoff between lease polls when the queue is empty but
#: not drained (cells still leased elsewhere might come back).
_LEASE_POLL_SECONDS = 0.1

#: Seconds to wait, once every worker has signed off or exited, for a
#: worker spawned later to deliver the cells still missing.
_DRAIN_GRACE_SECONDS = 10.0

#: Records arriving for a cell that already delivered (zombie workers
#: finishing a revoked lease) -- deduplicated first-wins on collection.
_DUPLICATE_RECORDS = _telemetry.counter("fleet.duplicate_records")


@dataclass(frozen=True)
class _WorkerDone:
    """A worker's final frame on the results queue.

    Carries the registry delta for the campaign's merged telemetry
    (separate from the per-cell :class:`~repro.serving.StatsUpdate`
    frames, which feed the service's live ``/status`` view and never
    reach a remote campaign parent) plus the poisoned-cell ids the
    drained :class:`~repro.serving.LeaseGrant` reported, so even a
    parent without local coordinator access (``service_addr`` mode)
    learns which cells were quarantined.
    """

    worker_id: int
    snapshot: Dict[str, dict]
    poisoned: Tuple[int, ...] = ()


@dataclass(frozen=True)
class _WorkerExited:
    """The parent's notice, on the results queue, that a worker exited.

    Posted once the worker's ``Process.sentinel`` is ready.  A process
    flushes its queue feeder before it exits, so every frame the
    worker ever put is already in the pipe ahead of this one.
    """

    worker_id: int


@dataclass(frozen=True)
class _ScenarioHandles:
    """Picklable pointers to one scenario's published assets."""

    weights: SharedPackHandle
    trace: SharedPackHandle
    meta: Dict[str, int]


@dataclass
class FleetChaosHandle:
    """Live fleet internals handed to a ``chaos=`` hook.

    ``run_fleet_campaign(..., chaos=fn)`` runs ``fn(handle)`` on a
    daemon thread once the workers have started -- the failure-matrix
    tests use it to SIGKILL workers mid-cell, revoke leases, or spawn
    late joiners against a *real* running campaign.  ``coordinator``,
    ``service`` and ``transport`` are ``None`` when the lease service
    is remote; ``spawn_worker`` is only available on the TCP
    paths (queue transports have a fixed reply-queue roster).
    """

    workers: List = field(default_factory=list)
    coordinator: Optional[CellCoordinator] = None
    service: Optional[GONScoringService] = None
    transport: Optional[object] = None
    address: Optional[str] = None
    spawn_worker: Optional[Callable[[], object]] = None


def _trace_arrays(assets: TrainedAssets) -> Dict[str, np.ndarray]:
    """The offline trace as stacked arrays (the published layout)."""
    return {
        "metrics": np.stack([s.metrics for s in assets.samples]),
        "schedules": np.stack([s.schedule for s in assets.samples]),
        "adjacencies": np.stack([s.adjacency for s in assets.samples]),
        "objectives": np.asarray(assets.objectives, dtype=float),
    }


def _asset_meta(assets: TrainedAssets) -> Dict[str, int]:
    """The scalars a worker needs next to the published arrays."""
    return {
        "gon_hidden": assets.gon_hidden,
        "gon_layers": assets.gon_layers,
        "seed": assets.seed,
        "gan_seed": assets.gan_seed,
    }


def _rebuild_assets(
    weight_arrays: Dict[str, np.ndarray],
    trace_arrays: Dict[str, np.ndarray],
    meta: Dict[str, int],
) -> TrainedAssets:
    """Worker side: :class:`TrainedAssets` over published array views."""
    n_samples = trace_arrays["metrics"].shape[0]
    return TrainedAssets(
        trace=None,
        samples=[
            GONInput(
                trace_arrays["metrics"][i],
                trace_arrays["schedules"][i],
                trace_arrays["adjacencies"][i],
            )
            for i in range(n_samples)
        ],
        objectives=[float(v) for v in trace_arrays["objectives"]],
        gon_state=weight_arrays,
        gon_hidden=int(meta["gon_hidden"]),
        gon_layers=int(meta["gon_layers"]),
        training_history=None,
        gan_seed=int(meta["gan_seed"]),
        seed=int(meta["seed"]),
    )


def _heartbeat_interval(heartbeat_timeout: float) -> float:
    """Worker ping cadence: several beats per liveness window."""
    if heartbeat_timeout > 0:
        return max(0.2, min(5.0, heartbeat_timeout / 4.0))
    return 5.0


def _start_heartbeat(
    client_id: int, put: Callable, interval: float
) -> threading.Event:
    """Send ``Ping`` frames on a daemon thread until the event is set.

    Pings prove the worker *process* is alive even while its main
    thread is deep in a long numpy cell; they deliberately do not
    count as transport activity (``--max-idle`` must still fire on a
    fleet that pings but never computes).
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                put(Ping(client_id))
            except Exception:
                return  # channel gone; the main thread will notice

    threading.Thread(
        target=beat, name=f"fleet-heartbeat-{client_id}", daemon=True
    ).start()
    return stop


def _run_worker(
    worker_id: int,
    client_id: int,
    tasks: Sequence[RunTask],
    assets_by_scenario: Dict[str, TrainedAssets],
    request_endpoint,
    reply_endpoint,
    results_queue,
    heartbeat_interval: float,
    base: dict,
) -> None:
    """Pull-run-acknowledge until the coordinator reports the grid drained.

    Every worker receives the *full* task list -- which cells it
    actually runs is decided lease by lease at runtime, and each one
    runs through :func:`campaign._execute_run` on the mounted assets.
    ``request_endpoint`` / ``reply_endpoint`` are queue-likes (the
    worker's mp queues, or the :class:`TcpWorkerChannel` twice).
    Raises on protocol violations (the reply to a ``LeaseRequest``
    must be the matching ``LeaseGrant`` -- anything else means the
    service and worker disagree about the conversation state).
    """
    tasks_by_cell = {task.run_index: task for task in tasks}
    stop_heartbeat = _start_heartbeat(
        client_id, request_endpoint.put, heartbeat_interval
    )
    try:
        for request_id in _count(1):
            request_endpoint.put(
                LeaseRequest(client_id=client_id, request_id=request_id)
            )
            grant = reply_endpoint.get()
            if not isinstance(grant, LeaseGrant) or grant.request_id != request_id:
                raise RuntimeError(
                    f"worker {client_id} lease request {request_id} answered "
                    f"with {type(grant).__name__}: fleet protocol violated"
                )
            if grant.drained:
                break
            if grant.cell_id < 0:
                # Queue momentarily empty but not drained: cells leased
                # elsewhere may yet be revoked and re-queued.
                time.sleep(_LEASE_POLL_SECONDS)
                continue
            task = tasks_by_cell[grant.cell_id]
            assets = assets_by_scenario.get(task.scenario)
            if assets is None and task.model in _CAROL_FAMILY:
                raise RuntimeError(
                    f"fleet run {task.model!r} needs published scenario assets"
                )
            results_queue.put(_execute_run(task, assets))
            request_endpoint.put(CellDone(client_id=client_id, cell_id=grant.cell_id))
            # Cumulative-so-far snapshot for the service's live /status
            # view (latest per client replaces earlier ones).
            request_endpoint.put(StatsUpdate(client_id, _telemetry.delta(base)))
        poisoned = tuple(int(cell) for cell in grant.poisoned)
        results_queue.put(_WorkerDone(worker_id, _telemetry.delta(base), poisoned))
    finally:
        # Sign off even on failure so the service can revoke this
        # worker's lease and hand the cell to a survivor.
        stop_heartbeat.set()
        try:
            request_endpoint.put(ClientDone(client_id))
        except Exception:
            pass  # the socket is already gone; the service saw the EOF


def _fleet_worker_main(
    worker_id: int,
    tasks: Sequence[RunTask],
    handles: Dict[str, _ScenarioHandles],
    request_queue,
    reply_queue,
    results_queue,
    heartbeat_interval: float = 5.0,
) -> None:
    """Queue worker: attach the shared-memory assets, lease cells."""
    # Everything is reported relative to this base so the
    # fork-inherited parent registry state never double-counts.
    base = _telemetry.snapshot()
    opened: List[AttachedArrayPack] = []
    try:
        assets_by_scenario: Dict[str, TrainedAssets] = {}
        for scenario, scenario_handles in handles.items():
            weights = AttachedArrayPack(scenario_handles.weights)
            trace = AttachedArrayPack(scenario_handles.trace)
            opened.extend((weights, trace))
            assets_by_scenario[scenario] = _rebuild_assets(
                weights.arrays, trace.arrays, scenario_handles.meta
            )
        _run_worker(
            worker_id, worker_id, tasks, assets_by_scenario,
            request_queue, reply_queue, results_queue, heartbeat_interval,
            base,
        )
    finally:
        for pack in opened:
            pack.close()


def _tcp_fleet_worker_main(
    worker_id: int,
    tasks: Sequence[RunTask],
    address: str,
    results_queue,
    heartbeat_interval: float = 5.0,
    auth_token: str = "",
) -> None:
    """TCP worker: connect, fetch assets over the socket, lease cells.

    Each needed scenario's weight and trace packs are fetched once
    (cached per process by :func:`repro.serving.fetch_array_pack`)
    instead of attaching ``multiprocessing.shared_memory``.  The
    client id is assigned by the service at handshake -- late joiners
    simply connect and start leasing; ``worker_id`` only names the
    local process.
    """
    channel = TcpWorkerChannel(address, auth_token=auth_token)
    base = _telemetry.snapshot()
    try:
        index = channel.fetch_index()
        needed = {task.scenario for task in tasks if task.model in _CAROL_FAMILY}
        assets_by_scenario = {
            scenario: _rebuild_assets(
                fetch_array_pack(channel, f"{scenario}/weights").arrays,
                fetch_array_pack(channel, f"{scenario}/trace").arrays,
                index[scenario],
            )
            for scenario in sorted(needed & set(index))
        }
        _run_worker(
            worker_id, channel.client_id, tasks, assets_by_scenario,
            channel, channel, results_queue, heartbeat_interval, base,
        )
    finally:
        channel.close()


def _pack_campaign_assets(
    shared_assets: Dict[str, TrainedAssets],
) -> Tuple[Dict[str, tuple], Dict[str, Dict[str, int]]]:
    """Pack every scenario's assets for TCP publication.

    Returns ``(asset_packs, asset_index)``: the named ``(buffer,
    manifest)`` packs the transport serves to remote workers, and the
    scenario metadata index.
    """
    packs: Dict[str, tuple] = {}
    index: Dict[str, Dict[str, int]] = {}
    for scenario, assets in shared_assets.items():
        packs[f"{scenario}/weights"] = pack_state(assets.gon_state)
        packs[f"{scenario}/trace"] = pack_state(_trace_arrays(assets))
        index[scenario] = _asset_meta(assets)
    return packs, index


def _start_chaos(
    chaos: Optional[Callable[[FleetChaosHandle], None]],
    handle: FleetChaosHandle,
) -> Optional[threading.Thread]:
    """Run the chaos hook on a daemon thread (failures printed, not raised).

    A broken hook must not wedge the campaign -- the failure surfaces
    through the assertions the hook was meant to enable.
    """
    if chaos is None:
        return None

    def run() -> None:
        try:
            chaos(handle)
        except Exception:
            print("fleet chaos hook failed:", file=sys.stderr)
            traceback.print_exc()

    thread = threading.Thread(target=run, name="fleet-chaos", daemon=True)
    thread.start()
    return thread


def _watch_exit(
    worker,
    worker_id: int,
    results_queue,
    on_exit: Optional[Callable[[int, object], None]] = None,
) -> None:
    """Post :class:`_WorkerExited` the moment ``worker`` exits.

    A daemon thread waits on the process sentinel (which is ready at
    exit, without reaping the child), runs ``on_exit`` and then posts
    the notice behind every frame the worker put.  Exit, not a clock,
    is what tells the collector no more frames can come.
    """

    def watch() -> None:
        multiprocessing.connection.wait([worker.sentinel])
        if on_exit is not None:
            on_exit(worker_id, worker)
        results_queue.put(_WorkerExited(worker_id))

    threading.Thread(
        target=watch, name=f"fleet-exit-{worker_id}", daemon=True
    ).start()


def _report_lost_worker(
    service: GONScoringService, request_queue
) -> Callable[[int, object], None]:
    """Queue-mode liveness: an exited worker becomes ``WorkerLost``.

    TCP readers see an EOF when a worker dies; multiprocessing queues
    report nothing, so the parent's exit watcher injects the loss
    frame itself.  A worker that signed off put its ``ClientDone``
    before exiting, so the service reads that first and ignores the
    loss.
    """

    def on_exit(client_id: int, worker) -> None:
        if client_id in service.signed_off:
            return
        request_queue.put(
            WorkerLost(
                client_id,
                reason=f"worker process exited with code {worker.exitcode}",
            )
        )

    return on_exit


class _ElasticCollector:
    """Drains worker records on a thread *while* the lease loop runs.

    A store-backed campaign must persist each record the moment it
    arrives, or a SIGKILL mid-campaign loses everything workers
    already delivered.  The collector therefore starts before the
    serve loop and feeds every first-seen record to ``on_record`` (the
    campaign's store persist hook) as it lands.

    A cell is accounted for when its record arrived *or* a drained
    worker reported it poisoned.  Duplicate records (zombie workers
    finishing a revoked lease) are dropped first-wins and counted in
    ``fleet.duplicate_records``.  Events, not a clock, decide when to
    stop.  A worker's :class:`_WorkerDone` is its last frame, and the
    parent posts :class:`_WorkerExited` once its process exits (see
    :func:`_watch_exit`), so once every spawned worker has sent one
    or the other, nothing more can arrive.  The collector stops there
    when every cell is accounted for, after a non-blocking sweep of
    whatever is already buffered.  If cells are still missing at that
    point, it waits ``_DRAIN_GRACE_SECONDS`` for a worker spawned
    later, then fails loudly.  ``result()`` joins the thread and
    re-raises whatever the drain loop raised (lost-record errors, a
    failing ``on_record`` persist).
    """

    def __init__(
        self,
        results_queue,
        expected: Set[int],
        workers: List,
        on_record: Optional[Callable[[RunRecord], None]] = None,
    ) -> None:
        self._queue = results_queue
        self._expected = set(expected)
        self._workers = workers
        self._on_record = on_record
        #: Worker ids that sent ``_WorkerDone`` or whose exit was posted.
        self._finished: Set[int] = set()
        self.records: Dict[int, RunRecord] = {}
        self.poisoned: Set[int] = set()
        self.snapshots: List[dict] = []
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._drain, name="fleet-collector", daemon=True
        )
        self._thread.start()

    def _take(self, item) -> None:
        if isinstance(item, _WorkerExited):
            self._finished.add(item.worker_id)
        elif isinstance(item, _WorkerDone):
            self._finished.add(item.worker_id)
            self.snapshots.append(item.snapshot)
            self.poisoned.update(item.poisoned)
        elif item.run_index in self.records:
            _DUPLICATE_RECORDS.inc()
        else:
            self.records[item.run_index] = item
            if self._on_record is not None:
                self._on_record(item)

    def _drain(self) -> None:
        try:
            grace_deadline: Optional[float] = None
            while True:
                # Worker ids are list indices (spawn_worker appends in
                # id order), so late joiners are covered as they come.
                if set(range(len(self._workers))) - self._finished:
                    grace_deadline = None
                    self._take(self._queue.get())
                    continue
                outstanding = (
                    self._expected - set(self.records) - self.poisoned
                )
                if not outstanding:
                    break
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + _DRAIN_GRACE_SECONDS
                remaining = grace_deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        "fleet campaign lost records for cells "
                        f"{sorted(outstanding)}: every worker exited but "
                        "the results never arrived -- check worker stderr "
                        "above"
                    )
                try:
                    self._take(self._queue.get(timeout=remaining))
                except queue_module.Empty:
                    pass
            # Pick up frames already buffered behind the last one we
            # needed (exit notices of workers that signed off).
            while True:
                try:
                    self._take(self._queue.get(block=False))
                except queue_module.Empty:
                    break
        except BaseException as error:  # re-raised from result()
            self._error = error

    def result(self) -> Tuple[Dict[int, RunRecord], Set[int], List[dict]]:
        """Join the drain thread; raise its error or return its haul."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self.records, self.poisoned, self.snapshots


def _warn_poisoned(poisoned: Set[int], retry_budget: int) -> None:
    if poisoned:
        print(
            f"warning: fleet campaign quarantined {len(poisoned)} poisoned "
            f"cell(s) {sorted(poisoned)} after {retry_budget} failed "
            "attempt(s) each; their records are omitted",
            file=sys.stderr,
        )


def run_fleet_campaign(
    config,
    tasks: Sequence[RunTask],
    shared_assets: Dict[str, TrainedAssets],
    stats_sink: Optional[List[ServiceStats]] = None,
    telemetry_sink: Optional[List[dict]] = None,
    chaos: Optional[Callable[[FleetChaosHandle], None]] = None,
    record_sink: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Execute ``tasks`` with an elastic fleet against one lease service.

    ``shared_assets`` maps scenario name -> offline assets (from
    :func:`~repro.experiments.campaign.prepare_campaign_assets`).
    ``config.transport`` selects the plumbing: ``"queue"`` publishes
    the assets into shared memory and serves ``multiprocessing``
    queues; ``"tcp"`` binds an ephemeral localhost port that serves the
    assets and the lease loop over sockets (late joiners welcome,
    reader EOFs become lease revocations) -- or, with
    ``config.service_addr``, spawns only workers that connect to an
    externally hosted service (``python -m repro serve``), which then
    owns the lease accounting and assets.

    ``stats_sink``, when given, receives the service's
    :class:`ServiceStats` for telemetry/benchmarks (empty when the
    service is remote -- its stats live in the serving process).
    ``telemetry_sink``, when given, receives one merged registry
    snapshot covering the parent (service included when self-hosted)
    and every surviving worker's final delta (a killed worker's
    in-flight telemetry dies with it; its cells' records do not).
    ``record_sink``, when given, receives each first-seen record the
    moment it arrives from a worker -- ``run_campaign`` passes its
    store persist hook here, which is what makes a SIGKILLed fleet
    campaign resumable.  ``chaos`` (tests only) receives a
    :class:`FleetChaosHandle` on a daemon thread once the fleet is
    running.
    """
    tasks = list(tasks)
    if not tasks:
        if telemetry_sink is not None:
            telemetry_sink.append(merge_snapshots())
        return []
    base = _telemetry.snapshot()
    ctx = multiprocessing.get_context()
    n_workers = max(1, min(config.workers, len(tasks)))
    retry_budget = int(getattr(config, "cell_retry_budget", 3))
    heartbeat_timeout = float(getattr(config, "heartbeat_timeout", 30.0))
    interval = _heartbeat_interval(heartbeat_timeout)
    tcp = getattr(config, "transport", "queue") == "tcp"
    auth_token = str(getattr(config, "auth_token", "") or "")
    address = str(getattr(config, "service_addr", "") or "")
    coordinator: Optional[CellCoordinator] = None
    if not address:
        coordinator = CellCoordinator(
            [task.run_index for task in tasks], retry_budget=retry_budget
        )

    packs: List[SharedArrayPack] = []
    handles: Dict[str, _ScenarioHandles] = {}
    transport = None
    service: Optional[GONScoringService] = None
    workers: List = []
    try:
        if not tcp:
            for scenario, assets in shared_assets.items():
                weights = SharedArrayPack(assets.gon_state)
                trace = SharedArrayPack(_trace_arrays(assets))
                packs.extend((weights, trace))
                handles[scenario] = _ScenarioHandles(
                    weights.handle, trace.handle, _asset_meta(assets)
                )
            transport = QueueTransport(n_workers, ctx=ctx)
        elif not address:
            asset_packs, asset_index = _pack_campaign_assets(shared_assets)
            transport = TcpTransport(
                n_workers,
                asset_packs=asset_packs,
                asset_index=asset_index,
                auth_token=auth_token,
            )
            transport.start()
            address = transport.address

        if coordinator is not None:
            service = GONScoringService(
                transport.request_queue,
                transport.reply_queues,
                coordinator,
                heartbeat_timeout=heartbeat_timeout,
            )
            if tcp:
                service.on_worker_lost = transport.close_client
        on_exit = (
            None if tcp
            else _report_lost_worker(service, transport.request_queue)
        )

        results_queue = ctx.Queue()
        spawn_lock = threading.Lock()

        def spawn_worker():
            # A worker's id is its index in ``workers`` (the collector
            # relies on it), so spawns are serialised.
            with spawn_lock:
                worker_id = len(workers)
                if tcp:
                    target, args = _tcp_fleet_worker_main, (
                        worker_id, tasks, address, results_queue, interval,
                        auth_token,
                    )
                else:
                    target, args = _fleet_worker_main, (
                        worker_id, tasks, handles,
                        *transport.worker_endpoints(worker_id),
                        results_queue, interval,
                    )
                worker = ctx.Process(target=target, args=args, daemon=True)
                worker.start()
                workers.append(worker)
            _watch_exit(worker, worker_id, results_queue, on_exit)
            return worker

        for _ in range(n_workers):
            spawn_worker()

        _start_chaos(
            chaos,
            FleetChaosHandle(
                workers=workers,
                coordinator=coordinator,
                service=service,
                transport=transport,
                address=address or None,
                spawn_worker=spawn_worker if tcp else None,
            ),
        )

        collector = _ElasticCollector(
            results_queue,
            {task.run_index for task in tasks},
            workers,
            on_record=record_sink,
        )
        if service is not None:

            def abort() -> bool:
                if coordinator.finished:
                    return False
                if any(worker.is_alive() for worker in list(workers)):
                    return False
                raise RuntimeError(
                    "fleet campaign stalled: every worker exited (a "
                    "worker crashed -- check stderr above) with cells "
                    f"{sorted(set(coordinator.lease_view()))} leased and "
                    f"{coordinator.status()['pending']} still queued"
                )

            stats = serve_transport(service, transport, abort=abort)
            if stats_sink is not None:
                stats_sink.append(stats)

        records, poisoned, worker_snapshots = collector.result()
        if coordinator is not None:
            poisoned |= set(coordinator.poisoned)
        _warn_poisoned(poisoned, retry_budget)
        if telemetry_sink is not None:
            # The parent delta carries the service-side registry
            # (service.*, fleet.*); each worker delta carries its
            # sim/campaign/carol/gon side.
            telemetry_sink.append(
                merge_snapshots(_telemetry.delta(base), *worker_snapshots)
            )
        for worker in workers:
            worker.join(timeout=_COLLECT_TIMEOUT)
        return sorted(records.values(), key=lambda record: record.run_index)
    finally:
        # On failure paths (stalled fleet, lost records) the survivors
        # are still blocked on their reply queues: tear them down so a
        # long-lived host process never accumulates stuck children.
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        if transport is not None:
            transport.close()
        for pack in packs:
            pack.close()
            pack.unlink()


def _status_provider(
    service: GONScoringService,
    transport: TcpTransport,
    n_clients: int,
    chaos_control: ChaosControl,
) -> Callable[[], dict]:
    """Build the ``/status`` JSON assembler for a hosted service.

    Pure observation: merges the service-process registry with the
    latest STATS frame from every worker, derives the cell progress
    view from the merged ``campaign.cells_*`` counters, reports
    connection/sign-off/loss state, and surfaces the coordinator's
    lease/requeue/poison accounting plus the chaos injection log under
    ``"fleet"``.  Safe to call from the status
    server's threads mid-``serve()``.
    """

    def provider() -> dict:
        merged = service.merged_telemetry()
        counters = merged.get("counters", {})
        started = int(counters.get("campaign.cells_started", 0))
        completed = int(counters.get("campaign.cells_completed", 0))
        status = {
            "workers": {
                "connected": transport.n_connected,
                "expected": n_clients,
                "signed_off": len(service.signed_off),
                "lost": len(service.lost),
            },
            "cells": {
                "started": started,
                "completed": completed,
                "in_flight": max(0, started - completed),
            },
            "service": asdict(service.stats),
            "telemetry": merged,
        }
        fleet = service.coordinator.status()
        fleet["workers_lost"] = len(service.lost)
        fleet["heartbeat_ages"] = {
            str(client_id): round(age, 3)
            for client_id, age in sorted(service.heartbeat_ages().items())
        }
        fleet["replies_dropped"] = service.replies_dropped
        fleet["auth_rejections"] = transport.auth_rejections
        fleet["injections"] = chaos_control.log()
        status["fleet"] = fleet
        return status

    return provider


def serve_fleet_service(
    config,
    shared_assets: Dict[str, TrainedAssets],
    host: str = "127.0.0.1",
    port: int = 0,
    n_clients: int = 2,
    idle_timeout: float = 0.0,
    on_ready: Optional[Callable[[str, int], None]] = None,
    status_port: Optional[int] = None,
    status_host: str = "127.0.0.1",
    telemetry_sink: Optional[List[dict]] = None,
    auth_token: str = "",
) -> ServiceStats:
    """Host one elastic lease service for remote campaign workers.

    The backbone of ``python -m repro serve``: plans ``config``'s grid
    into a lease queue, publishes ``shared_assets`` on an elastic
    :class:`TcpTransport`, calls ``on_ready`` with the bound
    ``(host, port)``, then leases until the grid is drained and every
    connected worker has signed off or been declared lost.
    ``n_clients`` is the *expected* fleet size for the status view --
    workers may come and go freely (``--min-workers``), and the
    campaign survives any churn the retry budget absorbs.
    ``idle_timeout > 0`` (``--max-idle``) aborts loudly when no
    non-heartbeat frame has arrived for that many seconds (covers
    fleets that never connect as well as fleets that ping but stopped
    computing).

    ``status_port`` (0 = ephemeral) additionally binds an HTTP
    :class:`~repro.serving.StatusServer` next to the service socket
    serving ``/status`` + ``/metrics`` from the live merged telemetry
    and the ``POST /inject`` chaos control plane
    (:class:`~repro.serving.ChaosControl`); ``None`` (the default)
    serves no HTTP.  ``auth_token`` (or ``config.auth_token``) gates
    handshakes: a ``Hello`` with the wrong token is rejected before
    ``Welcome``.  ``telemetry_sink``, when given, receives the final
    merged snapshot after the lease loop winds down.

    With ``config.store == "sqlite"`` the service resumes: cells whose
    records the store already holds are born completed in the lease
    queue (``fleet.cells_resumed``) and never handed to workers.  The
    campaign parent that connects must use the same store -- it is the
    side that restores those cells' records; this process only skips
    the leases.
    """
    from ..serving.transports import TransportError

    tasks = plan_tasks(config)
    retry_budget = int(getattr(config, "cell_retry_budget", 3))
    completed: List[int] = []
    if getattr(config, "store", "memory") == "sqlite":
        from ..storage import open_store

        config_hash = campaign_config_hash(config)
        with open_store(config.store, config.store_path) as store:
            store.register_campaign(
                config_hash, campaign_grid_identity(config)
            )
            done = store.completed_cells(config_hash)
        completed = [
            task.run_index
            for task in tasks
            if (task.scenario, task.model, task.seed_index) in done
        ]
        if completed:
            print(
                f"store: {len(completed)} of {len(tasks)} cells already "
                "completed; they will not be leased",
                file=sys.stderr,
            )
    coordinator = CellCoordinator(
        [task.run_index for task in tasks],
        retry_budget=retry_budget,
        completed=completed,
    )
    auth_token = auth_token or str(getattr(config, "auth_token", "") or "")
    asset_packs, asset_index = _pack_campaign_assets(shared_assets)
    transport = TcpTransport(
        n_clients,
        host=host,
        port=port,
        asset_packs=asset_packs,
        asset_index=asset_index,
        auth_token=auth_token,
    )
    transport.start()
    status_server: Optional[StatusServer] = None
    try:
        service = GONScoringService(
            transport.request_queue,
            transport.reply_queues,
            coordinator,
            heartbeat_timeout=float(getattr(config, "heartbeat_timeout", 30.0)),
        )
        service.on_worker_lost = transport.close_client
        chaos_control = ChaosControl(service, transport)
        if status_port is not None:
            status_server = StatusServer(
                _status_provider(service, transport, n_clients, chaos_control),
                host=status_host,
                port=status_port,
                inject_handler=chaos_control.inject,
            ).start()
            print(
                f"status endpoint on http://{status_server.address}/status",
                file=sys.stderr,
            )
        if on_ready is not None:
            on_ready(transport.host, transport.port)

        abort = None
        if idle_timeout > 0:

            def abort() -> bool:
                idle = time.monotonic() - transport.last_activity
                if idle > idle_timeout:
                    raise TransportError(
                        f"fleet service idle for {idle:.0f}s "
                        f"({transport.n_connected} of {n_clients} workers "
                        "connected); shutting down"
                    )
                return False

        stats = serve_transport(service, transport, abort=abort)
        _warn_poisoned(set(coordinator.poisoned), retry_budget)
        if telemetry_sink is not None:
            telemetry_sink.append(service.merged_telemetry())
        return stats
    finally:
        if status_server is not None:
            status_server.close()
        transport.close()
