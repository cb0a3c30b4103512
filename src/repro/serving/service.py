"""The fleet lease service: cells out, acknowledgements and telemetry in.

Fleet workers score their own GON ascents in-process (the same model
factory the process pool uses), so the service never touches a model.
What it serves is the campaign's control plane::

    worker 0 ──┐                              ┌─> reply queue 0
    worker 1 ──┤   requests    ┌───────────┐  ├─> reply queue 1
       ...     ├─────────────> │  service  │──┤      ...
    worker N ──┘  (one queue)  │  loop     │  └─> reply queue N
                               └───────────┘
                 LeaseRequest -> LeaseGrant (CellCoordinator),
                 CellDone settles the lease, StatsUpdate feeds the
                 merged /status view, Ping proves liveness

The loop is elastic: membership is open, a client whose frames stop
for ``heartbeat_timeout`` (or whose transport reports it gone) is
declared lost and its leases are re-queued, and the loop ends once the
coordinator's queue is drained and every client ever seen has signed
off or been declared lost.
"""

from __future__ import annotations

import queue as queue_module
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .. import telemetry as _telemetry
from ..telemetry import merge_snapshots

__all__ = [
    "ClientDone",
    "StatsUpdate",
    "LeaseRequest",
    "LeaseGrant",
    "CellDone",
    "Ping",
    "WorkerLost",
    "ServiceStats",
    "GONScoringService",
]

_STATS_UPDATES = _telemetry.counter("service.stats_updates")

# Elastic-fleet liveness telemetry (see the coordinator module for the
# lease-queue counters ``fleet.leases`` / ``fleet.cells_requeued`` /
# ``fleet.cells_poisoned`` / ``fleet.duplicate_completions``).
_WORKERS_LOST = _telemetry.counter("fleet.workers_lost")
_REPLIES_DROPPED = _telemetry.counter("fleet.replies_dropped")
_HEARTBEAT_AGE = _telemetry.gauge("fleet.heartbeat_age_max_seconds")


@dataclass(frozen=True)
class ClientDone:
    """A worker signing off; the service exits once every client has."""

    client_id: int


@dataclass(frozen=True)
class StatsUpdate:
    """A worker shipping its telemetry snapshot (the STATS frame).

    ``snapshot`` is a :meth:`repro.telemetry.MetricsRegistry.snapshot`
    plain dict (JSON-safe, rides in the wire frame's header).  Workers
    ship one after every completed cell; the service keeps the *latest*
    snapshot per client (snapshots are cumulative) and merges them with
    its own registry into the fleet-wide view behind ``/status`` --
    see :meth:`GONScoringService.merged_telemetry`.  Fire-and-forget,
    and carries no arrays.
    """

    client_id: int
    snapshot: Dict[str, dict]


@dataclass(frozen=True)
class LeaseRequest:
    """A worker asking the coordinator for its next campaign cell."""

    client_id: int
    request_id: int


@dataclass(frozen=True)
class LeaseGrant:
    """The coordinator's answer to a :class:`LeaseRequest`.

    ``cell_id >= 0`` grants that cell (``attempt`` is 1-based; > 1
    means a retry after a revoked lease).  ``cell_id < 0`` with
    ``drained=False`` means "no cell right now, poll again" (the queue
    is empty but other leases are outstanding and may yet be revoked).
    ``drained=True`` ends the worker's campaign: every cell is either
    completed or quarantined -- the ``poisoned`` tuple reports the
    quarantined cell ids so workers can surface them to the campaign
    parent.
    """

    request_id: int
    cell_id: int
    attempt: int = 0
    drained: bool = False
    poisoned: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CellDone:
    """Fire-and-forget: a worker reporting its leased cell finished.

    The record itself rides the campaign results queue (it never
    touches the service wire); this frame only settles the lease.
    """

    client_id: int
    cell_id: int


@dataclass(frozen=True)
class Ping:
    """Worker heartbeat: refreshes last-seen, otherwise a no-op.

    Sent from a worker-side daemon thread between cells so that a
    worker deep in a long simulation still proves liveness.  Pings do
    **not** count as transport activity for ``--max-idle`` purposes --
    a fleet that only ever pings is idle.
    """

    client_id: int


@dataclass(frozen=True)
class WorkerLost:
    """Service-internal notice that a client died before signing off.

    Enqueued by the transport layer (TCP reader threads on EOF, or the
    campaign parent's process watchdog for queue transports) -- never
    sent by workers and never crosses the wire.  The service revokes
    the dead client's leases; the message is idempotent and ignored
    for clients that already signed off.
    """

    client_id: int
    reason: str = ""


@dataclass
class ServiceStats:
    """Service-side counters (read after :meth:`GONScoringService.serve`)."""

    #: Leases granted with a cell (retries of a revoked cell included).
    leases_granted: int = 0
    #: ``CellDone`` acknowledgements received.
    cells_completed: int = 0
    #: ``StatsUpdate`` snapshots received.
    stats_updates: int = 0


class GONScoringService:
    """The lease loop of an elastic fleet campaign.

    Hands out the :class:`~repro.serving.coordinator.CellCoordinator`'s
    cells one :class:`LeaseGrant` at a time, settles leases on
    :class:`CellDone`, keeps each worker's latest :class:`StatsUpdate`
    for the merged ``/status`` view, and revokes the leases of workers
    that die.  It scores nothing: workers run every GON ascent
    in-process.  (The name predates that split and stays stable.)

    Parameters
    ----------
    request_queue / reply_queues:
        Any queue objects with the stdlib ``get(timeout)/put`` surface
        (``multiprocessing.Queue`` across processes, ``queue.Queue``
        in-process for tests, or a transport's endpoints).
    coordinator:
        The campaign's lease queue.
    poll_seconds:
        How long one ``get`` waits before liveness and ``abort`` are
        checked.
    heartbeat_timeout:
        Seconds without any frame from a client before it is declared
        dead and its leases are revoked; 0 disables the timeout
        (EOF/watchdog notices still apply).
    """

    def __init__(
        self,
        request_queue,
        reply_queues: Dict[int, object],
        coordinator,
        poll_seconds: float = 0.5,
        heartbeat_timeout: float = 30.0,
    ) -> None:
        self.request_queue = request_queue
        self.reply_queues = reply_queues
        self.coordinator = coordinator
        self.poll_seconds = poll_seconds
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.stats = ServiceStats()
        #: Latest :class:`StatsUpdate` snapshot per client, guarded for
        #: the status-endpoint thread (see :meth:`merged_telemetry`).
        self.worker_snapshots: Dict[int, dict] = {}
        self._stats_lock = threading.Lock()
        #: Clients that have signed off so far (live progress view).
        self.signed_off: set = set()
        #: Clients declared dead (heartbeat timeout, EOF notice, or
        #: reply-delivery failure).  Their leases were revoked and
        #: their later messages are dropped.
        self.lost: set = set()
        #: ``client_id -> monotonic`` of the last frame seen.
        self._last_seen: Dict[int, float] = {}
        #: Optional hook called with a client id when the service marks
        #: it lost -- fleets wire this to ``TcpTransport.close_client``
        #: so a wedged-but-connected socket is actively torn down.
        self.on_worker_lost: Optional[Callable[[int], None]] = None
        #: Chaos injection state (``POST /inject``): per-client reply
        #: delay in seconds, and one-shot reply drops.
        self.reply_delays: Dict[int, float] = {}
        self._drop_next_reply: set = set()
        self.replies_dropped = 0

    # ------------------------------------------------------------------
    def merged_telemetry(self) -> dict:
        """Fleet-wide snapshot: this process's registry + every worker.

        Associative/commutative merge (counters sum, histograms add
        bucket-wise), so the result is independent of worker arrival
        order.  Safe to call from another thread mid-:meth:`serve`.
        """
        with self._stats_lock:
            snaps = list(self.worker_snapshots.values())
        return merge_snapshots(_telemetry.snapshot(), *snaps)

    # ------------------------------------------------------------------
    def serve(self, abort: Optional[Callable[[], bool]] = None) -> ServiceStats:
        """Lease until the campaign is over.

        Exits once the cell queue is drained *and* every client ever
        seen has either signed off or been declared lost -- membership
        is open, deaths revoke leases instead of aborting.  ``abort``
        is polled while the queue is idle; returning True raises (used
        to detect a fully dead fleet instead of hanging).
        """
        while not self._serve_complete():
            try:
                message = self.request_queue.get(timeout=self.poll_seconds)
            except queue_module.Empty:
                self._check_liveness()
                if abort is not None and abort():
                    raise RuntimeError(
                        "lease service aborted: worker died before "
                        "signing off"
                    )
                continue
            self._handle(message)
            self._check_liveness()
        return self.stats

    def _serve_complete(self) -> bool:
        unresolved = set(self._last_seen) - self.signed_off - self.lost
        return self.coordinator.finished and not unresolved

    def _handle(self, message) -> None:
        """Apply one control message (arrival order is the contract)."""
        if isinstance(message, WorkerLost):
            self._mark_lost(message.client_id, message.reason)
            return
        client_id = message.client_id
        if client_id in self.lost:
            # Ghost traffic from a client already declared dead (its
            # leases were revoked); dropping it keeps revoked-and-rerun
            # cells single-sourced.
            return
        self._last_seen[client_id] = time.monotonic()
        if isinstance(message, ClientDone):
            self.signed_off.add(client_id)
            # Signing off while still holding a lease means the worker
            # errored mid-cell and cleaned up on the way out -- treat
            # the lease like a death so the cell is re-queued instead
            # of deadlocking the drain.
            self.coordinator.release_worker(client_id)
        elif isinstance(message, LeaseRequest):
            self._grant_lease(message)
        elif isinstance(message, CellDone):
            self.stats.cells_completed += 1
            self.coordinator.complete(message.cell_id, client_id)
        elif isinstance(message, StatsUpdate):
            with self._stats_lock:
                self.worker_snapshots[client_id] = message.snapshot
            self.stats.stats_updates += 1
            _STATS_UPDATES.inc()
        elif not isinstance(message, Ping):
            raise RuntimeError(
                f"client {client_id} sent an unexpected "
                f"{type(message).__name__}: fleet protocol violated"
            )

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _check_liveness(self) -> None:
        """Declare clients dead after ``heartbeat_timeout`` of silence."""
        now = time.monotonic()
        max_age = 0.0
        for client_id, last in list(self._last_seen.items()):
            if client_id in self.signed_off or client_id in self.lost:
                continue
            age = now - last
            max_age = max(max_age, age)
            if self.heartbeat_timeout > 0 and age > self.heartbeat_timeout:
                self._mark_lost(
                    client_id, f"no heartbeat for {age:.1f}s"
                )
        _HEARTBEAT_AGE.set(max_age)

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each live client's last frame (status view)."""
        now = time.monotonic()
        return {
            client_id: now - last
            for client_id, last in self._last_seen.items()
            if client_id not in self.signed_off and client_id not in self.lost
        }

    def _mark_lost(self, client_id: int, reason: str = "") -> None:
        """Revoke a dead client's leases.

        Idempotent, and a no-op for clients that already signed off
        (their work is settled; a late death notice carries no news).
        """
        if client_id in self.lost or client_id in self.signed_off:
            return
        self.lost.add(client_id)
        _WORKERS_LOST.inc()
        requeued, poisoned = self.coordinator.release_worker(client_id)
        detail = f"worker {client_id} lost ({reason or 'unknown'})"
        if requeued:
            detail += f"; re-queued cells {requeued}"
        if poisoned:
            detail += f"; quarantined poisoned cells {poisoned}"
        print(f"[repro.serving] {detail}", file=sys.stderr)
        if self.on_worker_lost is not None:
            try:
                self.on_worker_lost(client_id)
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Chaos injection (POST /inject)
    # ------------------------------------------------------------------
    def inject_delay(self, client_id: int, seconds: float) -> None:
        """Delay every future reply to ``client_id`` by ``seconds``."""
        if seconds <= 0:
            self.reply_delays.pop(int(client_id), None)
        else:
            self.reply_delays[int(client_id)] = float(seconds)

    def inject_drop_next_reply(self, client_id: int) -> None:
        """Silently drop the next reply addressed to ``client_id``."""
        self._drop_next_reply.add(int(client_id))

    # ------------------------------------------------------------------
    def _grant_lease(self, request: LeaseRequest) -> None:
        cell_id, attempt, drained = self.coordinator.lease(request.client_id)
        if drained:
            grant = LeaseGrant(
                request_id=request.request_id,
                cell_id=-1,
                drained=True,
                poisoned=tuple(sorted(self.coordinator.poisoned)),
            )
        elif cell_id is None:
            grant = LeaseGrant(request_id=request.request_id, cell_id=-1)
        else:
            self.stats.leases_granted += 1
            grant = LeaseGrant(
                request_id=request.request_id,
                cell_id=int(cell_id),
                attempt=int(attempt),
            )
        self._send_reply(request.client_id, grant)

    def _send_reply(self, client_id: int, reply) -> None:
        """Deliver one reply, applying chaos injections.

        A failed send means the client is gone: it is marked lost
        (revoking its leases) and the service keeps running for the
        rest of the fleet.
        """
        if client_id in self._drop_next_reply:
            self._drop_next_reply.discard(client_id)
            self.replies_dropped += 1
            _REPLIES_DROPPED.inc()
            return
        delay = self.reply_delays.get(client_id, 0.0)
        if delay > 0:
            time.sleep(delay)
        try:
            self.reply_queues[client_id].put(reply)
        except Exception as error:
            self._mark_lost(client_id, f"reply delivery failed: {error}")
