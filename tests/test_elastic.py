"""Failure matrix for the elastic fault-tolerant fleet (PR 8).

Exercises the lease-based cell queue end to end:

* :class:`CellCoordinator` unit semantics (FIFO leases, attempt
  numbering, first-wins completion, requeue-to-front on worker loss,
  poison quarantine at the retry budget);
* the elastic :meth:`GONScoringService.serve` loop driven over plain
  in-process queues (lease round trips, ``WorkerLost`` re-queue,
  dropped-reply injection, heartbeat-timeout eviction);
* TCP auth (token mismatch rejected before ``Welcome``, the accept
  loop surviving the rejection) and the configurable post-handshake
  read timeout;
* full campaign chaos: SIGKILL mid-cell, late-joining workers,
  poisoned cells, and duplicate-result delivery -- every surviving
  record must stay bit-identical to the serial reference;
* the ``POST /inject`` HTTP control plane and the ``export-gon`` CLI.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    fleet_ci_campaign_config,
    prepare_campaign_assets,
    run_campaign,
)
from repro.experiments.campaign import CampaignConfig, plan_tasks
from repro.experiments.fleet import run_fleet_campaign
from repro.serving import (
    CellCoordinator,
    CellDone,
    ClientDone,
    GONScoringService,
    LeaseGrant,
    LeaseRequest,
    Ping,
    StatusServer,
    TcpTransport,
    TcpWorkerChannel,
    TransportError,
    WorkerLost,
)


def _wait_for(predicate, timeout=30.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


# ---------------------------------------------------------------------------
# CellCoordinator unit semantics
# ---------------------------------------------------------------------------


class TestCellCoordinator:
    def test_leases_cells_fifo_with_attempt_numbers(self):
        coord = CellCoordinator([5, 2, 9])
        assert coord.lease(0) == (5, 1, False)
        assert coord.lease(1) == (2, 1, False)
        assert coord.lease(0) == (9, 1, False)
        # Queue empty but cells still leased: wait, not drained.
        assert coord.lease(1) == (None, 0, False)
        assert not coord.finished

    def test_complete_is_first_wins_and_counts_duplicates(self):
        coord = CellCoordinator([7])
        coord.lease(0)
        assert coord.complete(7, worker_id=0)
        assert coord.completed == {7: 0}
        assert not coord.complete(7, worker_id=1)
        assert coord.completed == {7: 0}
        assert coord.duplicate_completions == 1
        assert coord.finished
        assert coord.lease(1) == (None, 0, True)

    def test_release_worker_requeues_to_front(self):
        coord = CellCoordinator([1, 2, 3])
        coord.lease(0)  # cell 1
        requeued, poisoned = coord.release_worker(0)
        assert requeued == [1]
        assert poisoned == []
        assert coord.requeued_total == 1
        # The revoked cell comes back before the untouched tail.
        assert coord.lease(1) == (1, 2, False)

    def test_poison_after_retry_budget_exhausted(self):
        coord = CellCoordinator([4], retry_budget=2)
        coord.lease(0)
        requeued, poisoned = coord.release_worker(0)
        assert (requeued, poisoned) == ([4], [])
        coord.lease(1)
        requeued, poisoned = coord.release_worker(1)
        assert (requeued, poisoned) == ([], [4])
        assert coord.poisoned == {4}
        # Poisoned cells count as resolved: the campaign can finish.
        assert coord.finished
        cell, attempt, drained = coord.lease(2)
        assert (cell, drained) == (None, True)

    def test_completion_unpoisons_a_cell(self):
        coord = CellCoordinator([4], retry_budget=1)
        coord.lease(0)
        coord.release_worker(0)
        assert coord.poisoned == {4}
        # A straggler's result still lands: real data beats quarantine.
        assert coord.complete(4, worker_id=0)
        assert coord.poisoned == set()
        assert coord.completed == {4: 0}

    def test_requeue_cell_injection_charges_no_failure(self):
        coord = CellCoordinator([6], retry_budget=1)
        coord.lease(0)
        assert coord.requeue_cell(6)
        assert not coord.requeue_cell(6)  # no longer leased
        assert coord.requeued_total == 1
        # No failure charged: with budget 1 the cell would otherwise
        # have been poisoned by this revocation.
        assert coord.poisoned == set()
        assert coord.lease(1) == (6, 2, False)

    def test_status_is_json_safe(self):
        coord = CellCoordinator([1, 2])
        coord.lease(0)
        json.dumps(coord.status())


# ---------------------------------------------------------------------------
# Elastic service loop over in-process queues
# ---------------------------------------------------------------------------


def _start_elastic_service(cells, n_clients, retry_budget=3, heartbeat_timeout=0.0):
    coordinator = CellCoordinator(cells, retry_budget=retry_budget)
    request_queue = queue.Queue()
    reply_queues = {i: queue.Queue() for i in range(n_clients)}
    service = GONScoringService(
        request_queue,
        reply_queues,
        poll_seconds=0.05,
        coordinator=coordinator,
        heartbeat_timeout=heartbeat_timeout,
    )
    thread = threading.Thread(target=service.serve, daemon=True)
    thread.start()
    return coordinator, service, request_queue, reply_queues, thread


class TestElasticServiceLoop:
    def test_lease_roundtrip_and_drain(self):
        coordinator, service, requests, replies, thread = _start_elastic_service(
            [3], n_clients=1
        )
        requests.put(LeaseRequest(client_id=0, request_id=1))
        grant = replies[0].get(timeout=5.0)
        assert isinstance(grant, LeaseGrant)
        assert (grant.request_id, grant.cell_id, grant.attempt) == (1, 3, 1)
        assert not grant.drained
        requests.put(CellDone(client_id=0, cell_id=3))
        requests.put(LeaseRequest(client_id=0, request_id=2))
        grant = replies[0].get(timeout=5.0)
        assert grant.drained
        assert grant.cell_id < 0
        assert grant.poisoned == ()
        requests.put(ClientDone(client_id=0))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert coordinator.completed == {3: 0}

    def test_worker_lost_requeues_lease_for_surviving_client(self):
        coordinator, service, requests, replies, thread = _start_elastic_service(
            [7], n_clients=2
        )
        requests.put(LeaseRequest(client_id=0, request_id=1))
        grant = replies[0].get(timeout=5.0)
        assert (grant.cell_id, grant.attempt) == (7, 1)
        requests.put(WorkerLost(client_id=0, reason="unit test kill"))
        requests.put(LeaseRequest(client_id=1, request_id=1))
        grant = replies[1].get(timeout=5.0)
        assert (grant.cell_id, grant.attempt) == (7, 2)
        requests.put(CellDone(client_id=1, cell_id=7))
        requests.put(LeaseRequest(client_id=1, request_id=2))
        assert replies[1].get(timeout=5.0).drained
        requests.put(ClientDone(client_id=1))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert service.lost == {0}
        assert service.signed_off == {1}
        assert coordinator.requeued_total == 1
        assert coordinator.completed == {7: 1}

    def test_dropped_reply_then_timeout_death_requeues(self):
        coordinator, service, requests, replies, thread = _start_elastic_service(
            [3], n_clients=2
        )
        service.inject_drop_next_reply(0)
        requests.put(LeaseRequest(client_id=0, request_id=1))
        with pytest.raises(queue.Empty):
            replies[0].get(timeout=0.4)
        assert service.replies_dropped == 1
        # The dropped grant still leased the cell; in production the
        # client dies on its read timeout and the watchdog reports it.
        requests.put(WorkerLost(client_id=0, reason="client read timeout"))
        requests.put(LeaseRequest(client_id=1, request_id=1))
        grant = replies[1].get(timeout=5.0)
        assert (grant.cell_id, grant.attempt) == (3, 2)
        requests.put(CellDone(client_id=1, cell_id=3))
        requests.put(LeaseRequest(client_id=1, request_id=2))
        assert replies[1].get(timeout=5.0).drained
        requests.put(ClientDone(client_id=1))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert coordinator.requeued_total == 1

    def test_heartbeat_timeout_evicts_silent_worker_and_poisons(self):
        coordinator, service, requests, replies, thread = _start_elastic_service(
            [0], n_clients=1, retry_budget=1, heartbeat_timeout=0.3
        )
        requests.put(LeaseRequest(client_id=0, request_id=1))
        grant = replies[0].get(timeout=5.0)
        assert grant.cell_id == 0
        # Go silent: no pings, no frames.  The liveness check must
        # declare the worker dead, poison its cell (budget 1), and
        # let the campaign finish instead of hanging forever.
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert service.lost == {0}
        assert coordinator.poisoned == {0}

    def test_pings_keep_a_slow_worker_alive(self):
        coordinator, service, requests, replies, thread = _start_elastic_service(
            [5], n_clients=1, heartbeat_timeout=0.5
        )
        requests.put(LeaseRequest(client_id=0, request_id=1))
        assert replies[0].get(timeout=5.0).cell_id == 5
        # Heartbeat for well past the timeout while "computing".
        for _ in range(8):
            time.sleep(0.15)
            requests.put(Ping(client_id=0))
        assert thread.is_alive()
        assert service.lost == set()
        requests.put(CellDone(client_id=0, cell_id=5))
        requests.put(ClientDone(client_id=0))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert coordinator.completed == {5: 0}


# ---------------------------------------------------------------------------
# TCP auth + read timeout
# ---------------------------------------------------------------------------


class TestTcpAuthAndTimeouts:
    def test_wrong_token_rejected_and_accept_loop_survives(self):
        transport = TcpTransport(
            1, asset_packs={}, asset_index={}, auth_token="hunter2"
        )
        transport.start()
        try:
            with pytest.raises(TransportError, match="authentication"):
                TcpWorkerChannel(
                    transport.address, connect_timeout=5.0, auth_token="wrong"
                )
            assert transport.auth_rejections == 1
            # The accept loop survived the rejection: a correctly
            # authenticated worker still joins afterwards.
            channel = TcpWorkerChannel(
                transport.address, connect_timeout=5.0, auth_token="hunter2"
            )
            assert channel.client_id == 0
            channel.close()
        finally:
            transport.close()

    def test_missing_token_rejected_when_service_requires_one(self):
        transport = TcpTransport(
            1, asset_packs={}, asset_index={}, auth_token="hunter2"
        )
        transport.start()
        try:
            with pytest.raises(TransportError, match="authentication"):
                TcpWorkerChannel(transport.address, connect_timeout=5.0)
        finally:
            transport.close()

    def test_read_timeout_fails_loudly_instead_of_hanging(self):
        transport = TcpTransport(1, asset_packs={}, asset_index={})
        transport.start()
        channel = None
        try:
            channel = TcpWorkerChannel(
                transport.address, connect_timeout=5.0, read_timeout=0.3
            )
            started = time.monotonic()
            with pytest.raises(TransportError, match="read timeout"):
                channel.get()
            assert time.monotonic() - started < 5.0
        finally:
            if channel is not None:
                channel.close()
            transport.close()

    def test_heartbeats_do_not_count_as_activity(self):
        transport = TcpTransport(1, asset_packs={}, asset_index={})
        transport.start()
        channel = None
        try:
            channel = TcpWorkerChannel(transport.address, connect_timeout=5.0)
            before = transport.last_activity
            channel.put(Ping(client_id=channel.client_id))
            time.sleep(0.3)
            assert transport.last_activity == before
            # A real frame does refresh the idle clock.
            channel.put(LeaseRequest(client_id=channel.client_id, request_id=1))
            _wait_for(
                lambda: transport.last_activity > before,
                timeout=5.0,
                message="last_activity refresh",
            )
        finally:
            if channel is not None:
                channel.close()
            transport.close()


# ---------------------------------------------------------------------------
# Campaign-level chaos: every surviving record bit-identical to serial
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_grid() -> CampaignConfig:
    return replace(fleet_ci_campaign_config(workers=3), n_seeds=3, transport="tcp")


@pytest.fixture(scope="module")
def chaos_assets(chaos_grid):
    return prepare_campaign_assets(chaos_grid)


@pytest.fixture(scope="module")
def serial_rows(chaos_grid, chaos_assets):
    serial = replace(chaos_grid, mode="process", workers=1, transport="queue")
    result = run_campaign(serial, prepared_assets=chaos_assets)
    return {record.run_index: record.row() for record in result.records}


def _rows_by_cell(records):
    return {record.run_index: record.row() for record in records}


class TestCampaignChaos:
    def test_sigkill_mid_cell_stays_bit_identical_to_serial(
        self, chaos_grid, chaos_assets, serial_rows
    ):
        tasks = plan_tasks(chaos_grid)
        state = {}

        def chaos(handle):
            # All three workers hold a lease => all are mid-cell.
            _wait_for(
                lambda: len(handle.coordinator.lease_view()) >= 3,
                message="three concurrent leases",
            )
            os.kill(handle.workers[0].pid, signal.SIGKILL)
            state["coordinator"] = handle.coordinator
            state["service"] = handle.service

        records = run_fleet_campaign(chaos_grid, tasks, chaos_assets, chaos=chaos)
        assert _rows_by_cell(records) == serial_rows
        assert len(state["service"].lost) >= 1
        assert state["coordinator"].requeued_total >= 1
        assert state["coordinator"].poisoned == set()

    def test_late_joining_worker_drains_running_queue(
        self, chaos_grid, chaos_assets, serial_rows
    ):
        solo = replace(chaos_grid, workers=1)
        tasks = plan_tasks(solo)
        state = {}

        def chaos(handle):
            _wait_for(
                lambda: len(handle.coordinator.lease_view()) >= 1,
                message="first lease granted",
            )
            # Slow the founding worker's replies so the joiner has
            # queued cells left to steal, then spawn the joiner into
            # the already-running campaign.
            handle.service.inject_delay(0, 0.2)
            state["joiner"] = handle.spawn_worker()
            _wait_for(
                lambda: len(set(handle.coordinator.completed.values())) >= 2
                or handle.coordinator.finished,
                timeout=120.0,
                message="late joiner to complete a cell",
            )
            handle.service.inject_delay(0, 0.0)
            state["coordinator"] = handle.coordinator

        records = run_fleet_campaign(solo, tasks, chaos_assets, chaos=chaos)
        assert _rows_by_cell(records) == serial_rows
        # Both the founder and the late joiner completed cells.
        assert len(set(state["coordinator"].completed.values())) == 2

    def test_poison_cell_quarantined_and_campaign_survives(
        self, chaos_grid, chaos_assets, serial_rows
    ):
        grid = replace(chaos_grid, cell_retry_budget=1)
        tasks = plan_tasks(grid)
        state = {}

        def chaos(handle):
            _wait_for(
                lambda: len(handle.coordinator.lease_view()) >= 3,
                message="three concurrent leases",
            )
            os.kill(handle.workers[0].pid, signal.SIGKILL)
            state["coordinator"] = handle.coordinator

        records = run_fleet_campaign(grid, tasks, chaos_assets, chaos=chaos)
        poisoned = state["coordinator"].poisoned
        assert len(poisoned) == 1
        expected = set(serial_rows) - poisoned
        got = _rows_by_cell(records)
        assert set(got) == expected
        assert got == {cell: serial_rows[cell] for cell in expected}

    def test_duplicate_results_after_forced_requeue_are_deduplicated(
        self, chaos_grid, chaos_assets, serial_rows
    ):
        tasks = plan_tasks(chaos_grid)
        state = {}

        def chaos(handle):
            coordinator = handle.coordinator
            state["coordinator"] = coordinator
            # Keep revoking live leases until a revoked attempt and
            # its re-run overlap: both then deliver a CellDone and the
            # coordinator must drop the second one.  A lone requeue
            # can resolve without overlap (the zombie finishes before
            # the cell is re-leased), so loop until the race lands.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not coordinator.finished:
                if coordinator.duplicate_completions:
                    break
                for cell in sorted(coordinator.lease_view()):
                    coordinator.requeue_cell(cell)
                time.sleep(0.005)

        records = run_fleet_campaign(chaos_grid, tasks, chaos_assets, chaos=chaos)
        # Both the original lease holder and the re-lease worker ran
        # the cell; the coordinator kept the first result and the
        # parent deduplicated the record stream.
        assert _rows_by_cell(records) == serial_rows
        assert state["coordinator"].duplicate_completions >= 1


# ---------------------------------------------------------------------------
# POST /inject control plane plumbing
# ---------------------------------------------------------------------------


def _post(url: str, body: bytes):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=5.0) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestInjectEndpoint:
    def test_inject_roundtrip_and_error_codes(self):
        def handler(action, params):
            if action == "boom":
                raise ValueError("refused")
            return {"applied": action, "params": params}

        server = StatusServer(lambda: {"telemetry": {}}, inject_handler=handler).start()
        base = f"http://{server.address}"
        try:
            status, payload = _post(
                f"{base}/inject", json.dumps({"action": "kill_worker", "x": 1}).encode()
            )
            assert status == 200
            assert payload == {"applied": "kill_worker", "params": {"x": 1}}

            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{base}/inject", json.dumps({"action": "boom"}).encode())
            assert err.value.code == 400

            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{base}/inject", b"not json")
            assert err.value.code == 400

            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{base}/inject", json.dumps({"no_action": 1}).encode())
            assert err.value.code == 400

            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{base}/nope", json.dumps({"action": "x"}).encode())
            assert err.value.code == 404
        finally:
            server.close()

    def test_post_without_handler_is_rejected(self):
        server = StatusServer(lambda: {"telemetry": {}}).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(
                    f"http://{server.address}/inject",
                    json.dumps({"action": "kill_worker"}).encode(),
                )
            assert err.value.code == 405
        finally:
            server.close()


# ---------------------------------------------------------------------------
# export-gon CLI
# ---------------------------------------------------------------------------


def test_export_gon_cli_writes_verified_pack(tmp_path):
    from repro.__main__ import main

    output = tmp_path / "gon.npz"
    rc = main(
        [
            "export-gon",
            str(output),
            "--trace-intervals",
            "6",
            "--gon-hidden",
            "6",
            "--gon-epochs",
            "1",
        ]
    )
    assert rc == 0
    assert output.exists()
    with np.load(output) as archive:
        names = set(archive.files)
        assert "__meta__" in names
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        assert meta["scenario"] == "paper-default"
        arrays = names - {"__meta__"}
        assert arrays
        for name in arrays:
            assert archive[name].size > 0
