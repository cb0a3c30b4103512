"""``repro.serving`` -- fleet campaign infrastructure.

Turns a campaign from "N processes x private copies of everything"
into "N lightweight simulation workers over assets published once,
pulling cells from one lease service".  Each worker scores its own
GON ascents in-process, exactly as a process-pool worker does::

        ┌────────────────────────── parent process ─────────────────────────┐
        │  SharedArrayPack: GON weights + trace stacks, published once      │
        │  GONScoringService: lease cells, settle CellDone, merge STATS     │
        └──────────▲──────────────────────────────┬─────────────────────────┘
          requests │ (one mp.Queue)               │ replies (one queue per worker)
        ┌──────────┴──────────────────────────────▼─────────────────────────┐
        │ worker k: mounts the published assets, runs each leased cell      │
        │ through campaign._execute_run (LocalScorer, the pool's factory)   │
        └───────────────────────────────────────────────────────────────────┘

* :mod:`repro.serving.shared` -- one-copy asset publication over
  ``multiprocessing.shared_memory`` with read-only zero-copy views;
* :mod:`repro.serving.service` -- the lease loop and its frames;
* :mod:`repro.serving.coordinator` -- the lease queue itself.

The invariants this docstring states in protocol terms -- bit-identity
across transports, the lease/poison lifecycle, and the
cell-id/config-hash scheme that lets a :mod:`repro.storage` store
pre-complete the coordinator on resume -- are collected with their
soundness arguments in ``docs/architecture.md``.

Transports and the wire format
------------------------------
The service is transport-agnostic: it drains one FIFO with the stdlib
``get(timeout)`` surface and replies through per-client ``put``
endpoints.  :mod:`repro.serving.transports` provides two bundles of
those endpoints:

* :class:`QueueTransport` -- ``multiprocessing`` queues, the
  single-machine path;
* :class:`TcpTransport` / :class:`TcpWorkerChannel` -- sockets, so one
  service can host workers from many machines
  (``python -m repro serve`` + ``python -m repro campaign --connect``).

The TCP wire format (:mod:`repro.serving.wire`) is pickle-free
length-prefixed binary framing::

    frame := MAGIC(4) | type(1) | header_len(u32) | body_len(u32)
             | header(JSON scalars + array manifest)
             | body(pack_state buffer: raw array bytes)

and it carries exactly the queue transport's dataclasses (the lease
frames, :class:`StatsUpdate`, :class:`ClientDone`) plus a handshake
(HELLO/WELCOME assigns client ids in accept order and refuses other
protocol versions loudly) and an asset channel (remote workers fetch
each scenario's packed weights and trace stacks once, cached per
process, instead of mapping ``multiprocessing.shared_memory`` -- see
:func:`~repro.serving.shared.fetch_array_pack`).

Transport guarantees:

1. **Ordering** -- each client's socket is read by one dedicated
   reader thread feeding the service's single FIFO, so a client's
   messages enter the queue in send order.
2. **Bit-identity** -- float64 assets cross the wire as raw packed
   bytes (no text round-trip), so a TCP fleet campaign on localhost
   produces records bit-identical to serial execution (asserted by
   ``tests/test_fleet.py::TestTcpFleetCampaign``).
3. **Loud failure, no hangs** -- a client sending malformed or
   truncated frames, spoofing another id, asking for an unknown asset
   pack or vanishing before :class:`ClientDone` is dropped and its
   leases revoked; whatever kills the service loop itself is
   broadcast by :func:`~repro.serving.transports.serve_transport` to
   every connected client before re-raising, so blocked workers raise
   instead of waiting forever.  Frame sizes are bounded, so a corrupt
   length prefix cannot trigger unbounded allocation.

The elastic fleet protocol
--------------------------
Fleet campaigns are not pre-sharded batch jobs: the service side holds
the whole ``(scenario, model, seed)`` grid as a lease-based cell queue
(:class:`CellCoordinator`) and workers *pull* work::

    worker                        service
    ──────                        ──────────────────────────────
    LeaseRequest(request_id) ──>  lease next queued cell
                             <──  LeaseGrant(cell_id, attempt)
    ... run the cell, ship the record on the results path ...
    CellDone(cell_id)        ──>  mark completed (first-wins)
    LeaseRequest             ──>  ...
                             <──  LeaseGrant(drained=True, poisoned=(...))
    ClientDone               ──>  sign off

Because every cell derives its RNG streams from its own
``SeedSequence.spawn`` child, *which* worker runs a cell -- or how
many times it is retried -- never changes the record; that is what
makes the elasticity below safe:

1. **Liveness** -- workers ping (:class:`Ping`, a daemon heartbeat
   thread) so the service can tell "busy in a long numpy cell" from
   "dead".  A client whose last frame is older than
   ``heartbeat_timeout`` -- or whose socket reader hits EOF, or whose
   queue-mode process exits without signing off -- is declared lost
   (``fleet.workers_lost``); Pings deliberately do not count as
   ``--max-idle`` transport activity.
2. **Re-queue with a bounded budget** -- a lost worker's leased cells
   go back to the *front* of the queue (``fleet.cells_requeued``); a
   cell that has killed ``cell_retry_budget`` distinct attempts is
   quarantined as *poisoned* (``fleet.cells_poisoned``) and reported
   in the drained grant instead of sinking the campaign.  Duplicate
   results from zombie workers (a revoked lease finishing anyway) are
   deduplicated first-wins (``fleet.duplicate_completions`` service
   side, ``fleet.duplicate_records`` at collection).
3. **Elastic membership** -- a :class:`TcpTransport` keeps accepting
   after the expected count (HELLO/WELCOME assigns ids in accept
   order), so late workers join a running campaign and start
   leasing immediately; the campaign ends when the queue is drained
   and every registered worker has signed off or been declared lost.
4. **Authentication** -- ``serve --auth-token`` (or
   ``REPRO_FLEET_TOKEN``) sets a pre-shared token carried in the
   ``Hello`` frame; mismatches are loudly rejected *before* Welcome
   (``fleet.auth_rejections``) and the token never enters record
   dumps.
5. **Chaos control plane** -- ``POST /inject`` on the status server
   (:class:`ChaosControl`) perturbs a live fleet (``kill_worker``,
   ``delay_client``, ``drop_next_reply``, ``requeue_cell``) through
   exactly the code paths organic faults take (delays and drops act on
   :class:`LeaseGrant` replies); injections land in the ``fleet.*``
   counters and the ``/status`` ``fleet`` section.

Telemetry: STATS frames and the status endpoint
-----------------------------------------------
Every layer of this subsystem is instrumented against the process-wide
:mod:`repro.telemetry` registry (``fleet.*`` lease and liveness
counters, ``service.stats_updates``, ``wire.*`` frame/byte counters).
Three pieces tie the distributed picture together:

* **STATS frames** -- after each completed cell a fleet worker ships a
  :class:`StatsUpdate` carrying its registry snapshot (cumulative
  since worker start, JSON-safe by construction; it rides in the frame
  header, no packed body).  The service keeps the *latest* snapshot
  per client -- snapshots are cumulative, so replacement (never
  summation) is the correct merge for a live view.
* **merged view** -- :meth:`GONScoringService.merged_telemetry` folds
  the service-process registry and every worker's latest snapshot into
  one fleet-wide snapshot with
  :func:`repro.telemetry.merge_snapshots`; snapshot reads are
  lock-protected, so the merge is safe mid-``serve()``.
* **status endpoint** -- ``python -m repro serve --status-port N``
  binds :class:`StatusServer` (stdlib ``http.server``, daemon thread,
  read-only) next to the service socket.  ``GET /status`` answers one
  JSON object: connected/expected/signed-off workers, cells
  started/completed/in-flight (derived from the merged
  ``campaign.cells_*`` counters), the :class:`ServiceStats`
  view, and the full merged telemetry.  ``GET /metrics`` renders the
  same snapshot in the Prometheus text exposition format
  (``# HELP``/``# TYPE`` metadata, ``le``-labelled histogram buckets)
  for stock scrape jobs.

Telemetry is strictly observational: snapshots never feed back into
a cell, wall-clock only ever appears in telemetry (never in record
rows), and disabling it (``REPRO_TELEMETRY=0``) changes no record --
the bit-identity contract is asserted with telemetry on and off.
"""

from .chaos import ChaosControl
from .coordinator import CellCoordinator
from .service import (
    CellDone,
    ClientDone,
    GONScoringService,
    LeaseGrant,
    LeaseRequest,
    Ping,
    ServiceStats,
    StatsUpdate,
    WorkerLost,
)
from .status import StatusServer
from .shared import (
    AttachedArrayPack,
    FetchedArrayPack,
    SharedArrayPack,
    SharedPackHandle,
    fetch_array_pack,
)
from .transports import (
    QueueTransport,
    TcpTransport,
    TcpWorkerChannel,
    TransportError,
    parse_address,
    serve_transport,
)

__all__ = [
    "CellCoordinator",
    "CellDone",
    "ChaosControl",
    "ClientDone",
    "GONScoringService",
    "LeaseGrant",
    "LeaseRequest",
    "Ping",
    "ServiceStats",
    "StatsUpdate",
    "StatusServer",
    "WorkerLost",
    "AttachedArrayPack",
    "FetchedArrayPack",
    "SharedArrayPack",
    "SharedPackHandle",
    "fetch_array_pack",
    "QueueTransport",
    "TcpTransport",
    "TcpWorkerChannel",
    "TransportError",
    "parse_address",
    "serve_transport",
]
