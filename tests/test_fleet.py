"""Fleet stack: shared memory, persistent cache, fleet campaigns.

Covers end to end:

* read-only state export and zero-copy loading (``repro.nn``);
* shared-memory array packs (publish / attach / unlink);
* CAROL's persistent surrogate cache: counters monotone, entries
  reused across intervals, full invalidation exactly when fine-tuning
  fires, capacity-bounded eviction, both cache scopes;
* fleet-mode campaigns bit-identical to serial execution, with every
  GON ascent scored in the worker and the service only leasing cells.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import (
    CAROL,
    CAROLConfig,
    GONDiscriminator,
    LocalScorer,
    TrainingConfig,
)
from repro.nn.serialization import freeze_state, pack_state, unpack_state
from repro.serving import AttachedArrayPack, SharedArrayPack
from repro.simulator import EdgeFederation
from repro.simulator.detection import FailureReport


# ----------------------------------------------------------------------
# nn-layer export primitives
# ----------------------------------------------------------------------
class TestStateExport:
    def test_pack_unpack_roundtrip(self, rng):
        state = {
            "a.weight": rng.standard_normal((3, 5)),
            "a.bias": rng.standard_normal(5),
            "b": np.arange(7, dtype=np.int64),
        }
        buffer, manifest = pack_state(state)
        views = unpack_state(buffer, manifest)
        assert set(views) == set(state)
        for name in state:
            assert np.array_equal(views[name], state[name])
            assert views[name].dtype == state[name].dtype
            assert not views[name].flags.writeable

    def test_pack_layout_is_name_order_invariant(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal((2, 2))
        buffer_1, manifest_1 = pack_state({"x": a, "y": b})
        buffer_2, manifest_2 = pack_state({"y": b, "x": a})
        assert manifest_1 == manifest_2
        assert np.array_equal(buffer_1, buffer_2)

    def test_freeze_state_views_are_read_only(self, rng):
        state = {"w": rng.standard_normal((2, 2))}
        frozen = freeze_state(state)
        assert not frozen["w"].flags.writeable
        with pytest.raises(ValueError):
            frozen["w"][0, 0] = 1.0
        # Zero-copy: the view shares the original's memory.
        state["w"][0, 0] = 42.0
        assert frozen["w"][0, 0] == 42.0

    def test_load_state_dict_zero_copy(self, rng):
        model = GONDiscriminator(rng, hidden=8, n_layers=2)
        donor = GONDiscriminator(np.random.default_rng(5), hidden=8, n_layers=2)
        frozen = freeze_state(donor.state_dict())
        model.load_state_dict(frozen, copy=False)
        for name, parameter in model.named_parameters():
            # Adopted directly: the read-only donor view, not a copy.
            assert not parameter.data.flags.writeable
            assert parameter.data is frozen[name]
        # state_dict() still hands out private copies of the views.
        first = next(iter(frozen))
        assert model.state_dict()[first] is not frozen[first]


# ----------------------------------------------------------------------
# Shared-memory packs
# ----------------------------------------------------------------------
class TestSharedArrayPack:
    def test_publish_attach_roundtrip(self, rng):
        arrays = {"m": rng.standard_normal((4, 6)), "v": np.arange(3.0)}
        pack = SharedArrayPack(arrays)
        try:
            attached = AttachedArrayPack(pack.handle)
            try:
                for name in arrays:
                    assert np.array_equal(attached.arrays[name], arrays[name])
                    assert not attached.arrays[name].flags.writeable
            finally:
                attached.close()
        finally:
            pack.close()
            pack.unlink()

    def test_owner_views_share_the_segment(self, rng):
        pack = SharedArrayPack({"w": rng.standard_normal(8)})
        try:
            assert not pack.arrays["w"].flags.writeable
            assert pack.arrays["w"].nbytes == 64
        finally:
            pack.close()
            pack.unlink()


# ----------------------------------------------------------------------
# Persistent surrogate cache
# ----------------------------------------------------------------------
def _fresh_carol(trained_gon, **config_overrides):
    gon = trained_gon.clone_architecture(np.random.default_rng(0))
    gon.load_state_dict(trained_gon.state_dict())
    defaults = dict(
        surrogate_steps=3, tabu_iterations=2, tabu_patience=1,
        neighbourhood_sample=6, pot_calibration=5, min_buffer=2, seed=0,
    )
    defaults.update(config_overrides)
    return CAROL(gon, 0.5, 0.5, CAROLConfig(**defaults))


def _healthy_interval(small_config):
    federation = EdgeFederation(small_config)
    federation.begin_interval()
    federation.set_topology(federation.propose_topology())
    federation.run_interval()
    report = federation.begin_interval()
    proposal = federation.propose_topology()
    healthy = FailureReport(
        interval=report.interval, failed_brokers=(), failed_workers=(),
        detection_delay_seconds=0.0,
    )
    return federation, healthy, proposal


class TestPersistentCache:
    def test_counters_monotone_within_quiet_interval(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation, healthy, proposal = _healthy_interval(small_config)
        diag = carol.diagnostics

        carol.repair(federation.view, healthy, proposal)
        h1, m1 = diag.cache_hits, diag.cache_misses
        assert m1 > 0 and diag.cache_evictions == 0

        # Same context, same slate: everything is served from cache,
        # and the counters only ever move up.
        carol.repair(federation.view, healthy, proposal)
        assert diag.cache_misses == m1
        assert diag.cache_hits > h1
        assert diag.tabu_evaluations[-1] == 0  # no fresh ascents

    def test_context_scope_misses_on_new_context(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation, healthy, proposal = _healthy_interval(small_config)
        carol.repair(federation.view, healthy, proposal)
        misses = carol.diagnostics.cache_misses
        # A perturbed observation changes the context hash: exact
        # scope must re-score rather than serve stale entries.
        federation.view.last_metrics.host_metrics[0, 0] += 0.25
        carol.repair(federation.view, healthy, proposal)
        assert carol.diagnostics.cache_misses > misses

    def test_generation_scope_survives_context_drift(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon, score_cache_scope="generation")
        federation, healthy, proposal = _healthy_interval(small_config)
        carol.repair(federation.view, healthy, proposal)
        misses = carol.diagnostics.cache_misses
        federation.view.last_metrics.host_metrics[0, 0] += 0.25
        carol.repair(federation.view, healthy, proposal)
        # Topology keys unchanged -> all hits despite the drift.
        assert carol.diagnostics.cache_misses == misses

    def test_invalidation_exactly_when_fine_tune_fires(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation = EdgeFederation(small_config)
        flushed_sizes = []
        for _ in range(10):
            report = federation.begin_interval()
            proposal = federation.propose_topology()
            topology = carol.repair(federation.view, report, proposal)
            federation.set_topology(topology)
            metrics = federation.run_interval()
            entries_before = len(carol._score_cache)
            evictions_before = carol.diagnostics.cache_evictions
            carol.observe(metrics, federation.view)
            if carol.diagnostics.fine_tuned[-1]:
                # The POT gate opened: full flush, counted as evictions.
                assert len(carol._score_cache) == 0
                assert (
                    carol.diagnostics.cache_evictions
                    == evictions_before + entries_before
                )
                flushed_sizes.append(entries_before)
            else:
                # No model change: every entry survives observe().
                assert len(carol._score_cache) == entries_before
                assert (
                    carol.diagnostics.cache_evictions == evictions_before
                )
        # The POT gate genuinely opens on this seeded run: the flush
        # path above was exercised, not vacuously skipped.
        assert carol.diagnostics.n_fine_tunes == len(flushed_sizes) >= 1

    def test_capacity_eviction_is_fifo_and_counted(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon, score_cache_capacity=3)
        federation, healthy, proposal = _healthy_interval(small_config)
        carol.repair(federation.view, healthy, proposal)
        assert len(carol._score_cache) <= 3
        assert carol.diagnostics.cache_evictions > 0

    def test_scope_validation(self):
        with pytest.raises(ValueError, match="score_cache_scope"):
            CAROLConfig(score_cache_scope="telepathy")

    def test_local_scorer_generation_tracks_fine_tunes(
        self, trained_gon, session_samples
    ):
        scorer = LocalScorer(trained_gon.clone_architecture(
            np.random.default_rng(1)
        ))
        assert scorer.generation == 0
        scorer.fine_tune(
            session_samples[:4],
            TrainingConfig(epochs=1, generation_steps=2, seed=0),
            iterations=1,
            rng=np.random.default_rng(0),
        )
        assert scorer.generation == 1

    def test_tabu_passes_keys_to_batched_objective(self, small_topology):
        from repro.core.tabu import batched_objective, tabu_search
        from repro.core.nodeshift import neighbours

        seen_keys = []

        @batched_objective
        def objective(candidates, keys=None):
            seen_keys.append(keys)
            return [float(len(c.brokers)) for c in candidates]

        result = tabu_search(
            small_topology, objective, neighbours,
            tabu_size=10, max_iterations=2, patience=1,
        )
        assert all(keys is not None for keys in seen_keys)
        for candidates_keys in seen_keys[1:]:
            assert all(isinstance(k, tuple) for k in candidates_keys)
        assert result.best_key == result.best.canonical_key()


# ----------------------------------------------------------------------
# Fleet campaigns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_fleet_grid():
    from repro.experiments import fleet_ci_campaign_config

    return fleet_ci_campaign_config(workers=2)


@pytest.fixture(scope="module")
def tiny_fleet_assets(tiny_fleet_grid):
    from repro.experiments import prepare_campaign_assets

    return prepare_campaign_assets(tiny_fleet_grid)


class TestFleetCampaign:
    def test_fleet_mode_bit_identical_to_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from dataclasses import replace

        from repro.experiments import run_campaign

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(
            tiny_fleet_grid, prepared_assets=tiny_fleet_assets
        )
        assert serial.rows() == fleet.rows()

    def test_fleet_mode_matches_process_pool(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from dataclasses import replace

        from repro.experiments import run_campaign

        pool = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=2),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(
            tiny_fleet_grid, prepared_assets=tiny_fleet_assets
        )
        assert pool.rows() == fleet.rows()

    def test_fleet_service_leases_every_cell(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from repro.experiments.campaign import plan_tasks
        from repro.experiments.fleet import run_fleet_campaign

        sink = []
        records = run_fleet_campaign(
            tiny_fleet_grid, plan_tasks(tiny_fleet_grid),
            tiny_fleet_assets, stats_sink=sink,
        )
        # 2 models (CAROL, CAROL-Proactive) x 2 seeds.
        assert len(records) == 4
        assert {r.model for r in records} == {"CAROL", "CAROL-Proactive"}
        assert sink[0].leases_granted == 4
        assert sink[0].cells_completed == 4

    def test_proactive_fleet_with_fine_tunes_bit_identical(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The acceptance contract: a fleet ProactiveCAROL campaign
        whose POT gate opens stays bit-identical to serial execution."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        # Same scenario/asset knobs as the module fixture (so the
        # trained assets are reusable), but long enough -- and with an
        # early-opening POT gate -- that fine-tuning genuinely fires.
        grid = replace(
            tiny_fleet_grid,
            models=("CAROL-Proactive",),
            n_seeds=1,
            n_intervals=10,
            carol_overrides=(("pot_calibration", 5), ("min_buffer", 2)),
        )
        serial = run_campaign(
            replace(grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(grid, prepared_assets=tiny_fleet_assets)
        assert serial.rows() == fleet.rows()

        (record,) = fleet.records
        # The gate opened.
        assert record.diagnostics["n_fine_tunes"] >= 1
        # The serial twin fine-tuned identically (same decision path).
        (serial_record,) = serial.records
        assert (
            serial_record.diagnostics["n_fine_tunes"]
            == record.diagnostics["n_fine_tunes"]
        )

    def test_fleet_scores_locally_without_remote_round_trips(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """Fleet workers score every ascent in-process: with the POT
        gate opened early the cells fine-tune, records stay
        bit-identical to serial, every cell is leased, and no request
        ever crosses to the service for scoring."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        grid = replace(
            tiny_fleet_grid,
            models=("CAROL-Proactive",),
            n_intervals=10,
            carol_overrides=(("pot_calibration", 5),),
        )
        serial = run_campaign(
            replace(grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(grid, prepared_assets=tiny_fleet_assets)
        assert serial.rows() == fleet.rows()
        assert sum(r.diagnostics["n_fine_tunes"] for r in fleet.records) >= 1
        assert fleet.telemetry["counters"]["fleet.leases"] >= len(fleet.records)
        assert "client.round_trip" not in fleet.telemetry.get("spans", {})
        assert "service.requests" not in fleet.telemetry["counters"]

    def test_transport_and_service_addr_validated(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="transport"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                mode="fleet", transport="carrier-pigeon",
            )
        # TCP plumbing only exists for fleet campaigns.
        with pytest.raises(ValueError, match="mode='fleet'"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                transport="tcp",
            )
        # An external service implies the TCP transport...
        with pytest.raises(ValueError, match="service_addr"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                mode="fleet", service_addr="127.0.0.1:7911",
            )
        # ...and a well-formed host:port.
        with pytest.raises(ValueError, match="host:port"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                mode="fleet", transport="tcp", service_addr="nonsense",
            )

    def test_carol_overrides_validated(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="carol_overrides"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                carol_overrides=(("not_a_field", 1),),
            )
        # 'seed' is a CAROLConfig field but derives from the per-run
        # seed by contract: overriding it must fail at config time,
        # not as a TypeError inside a worker process.
        with pytest.raises(ValueError, match="seed"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                carol_overrides=(("seed", 3),),
            )

    def test_fleet_implies_shared_assets(self):
        from repro.experiments import CampaignConfig

        config = CampaignConfig(
            scenarios=("fault-free",), models=("dyverse",), mode="fleet"
        )
        assert config.shared_assets

    def test_mode_validation(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="mode"):
            CampaignConfig(
                scenarios=("fault-free",), models=("dyverse",),
                mode="quantum",
            )

    def test_fleet_heuristic_models_need_no_assets(self):
        from repro.experiments import CampaignConfig, run_campaign

        result = run_campaign(CampaignConfig(
            scenarios=("fault-free",), models=("dyverse",),
            n_intervals=2, workers=2, mode="fleet",
        ))
        assert len(result.records) == 1

    def test_shared_asset_preparation_is_deterministic(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from repro.experiments import prepare_campaign_assets

        again = prepare_campaign_assets(tiny_fleet_grid)
        for scenario, assets in tiny_fleet_assets.items():
            other = again[scenario]
            assert assets.seed == other.seed
            for name, array in assets.gon_state.items():
                assert np.array_equal(array, other.gon_state[name])


# ----------------------------------------------------------------------
# TCP fleet campaigns (multi-node transport on localhost)
# ----------------------------------------------------------------------
class TestTcpFleetCampaign:
    def test_tcp_fleet_bit_identical_to_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The socket transport changes the plumbing, not one bit of
        the records: same grid, serial vs TCP fleet, rows equal."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        tcp = run_campaign(
            replace(tiny_fleet_grid, transport="tcp"),
            prepared_assets=tiny_fleet_assets,
        )
        assert serial.rows() == tcp.rows()

    def test_tcp_matches_queue_transport(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from dataclasses import replace

        from repro.experiments import run_campaign

        queue_result = run_campaign(
            tiny_fleet_grid, prepared_assets=tiny_fleet_assets
        )
        tcp_result = run_campaign(
            replace(tiny_fleet_grid, transport="tcp"),
            prepared_assets=tiny_fleet_assets,
        )
        assert queue_result.rows() == tcp_result.rows()

    def test_tcp_proactive_fleet_with_fine_tunes_bit_identical(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The acceptance contract for the socket transport: a
        two-worker ProactiveCAROL campaign over TCP on localhost, POT
        gate opening, stays
        bit-identical to serial execution."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        grid = replace(
            tiny_fleet_grid,
            models=("CAROL-Proactive",),
            n_seeds=2,
            n_intervals=10,
            carol_overrides=(("pot_calibration", 5), ("min_buffer", 2)),
        )
        serial = run_campaign(
            replace(grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(
            replace(grid, transport="tcp"),
            prepared_assets=tiny_fleet_assets,
        )
        assert serial.rows() == fleet.rows()
        # Fine-tuning fired somewhere in the grid.
        assert sum(
            r.diagnostics["n_fine_tunes"] for r in fleet.records
        ) >= 1

    def test_remote_service_campaign_matches_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The multi-node split: a separately hosted lease service
        (``python -m repro serve``'s backbone) answering a campaign
        that fetches its assets over the socket."""
        import threading
        from dataclasses import replace

        from repro.experiments import run_campaign
        from repro.experiments.fleet import serve_fleet_service

        ready = threading.Event()
        endpoint = {}

        def on_ready(host, port):
            endpoint["addr"] = f"{host}:{port}"
            ready.set()

        outcome = {}

        def serve():
            try:
                outcome["stats"] = serve_fleet_service(
                    tiny_fleet_grid,
                    tiny_fleet_assets,
                    n_clients=2,
                    idle_timeout=60.0,
                    on_ready=on_ready,
                )
            except BaseException as error:  # pragma: no cover - debug aid
                outcome["error"] = error
                ready.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=15)
        assert "error" not in outcome

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        remote = run_campaign(
            replace(
                tiny_fleet_grid, transport="tcp",
                service_addr=endpoint["addr"],
            )
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert "error" not in outcome
        assert serial.rows() == remote.rows()
        # The remote service genuinely leased the campaign.
        assert outcome["stats"].leases_granted >= len(serial.records)


# ----------------------------------------------------------------------
# Collector contract: the campaign ends on events, not on timed polls
# ----------------------------------------------------------------------
_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patches the worker-side cell runner, which only forked "
    "workers inherit",
)


@pytest.fixture(scope="module")
def tiny_fleet_serial_rows(tiny_fleet_grid, tiny_fleet_assets):
    from dataclasses import replace

    from repro.experiments import run_campaign

    serial = run_campaign(
        replace(tiny_fleet_grid, mode="process", workers=1),
        prepared_assets=tiny_fleet_assets,
    )
    return {record.run_index: record.row() for record in serial.records}


def _on_first_cell(monkeypatch, action):
    """Run ``action(task)`` in the worker that starts the fleet's first cell.

    Patches the worker-side cell runner; forked workers inherit the
    patch and the shared claim flag.
    """
    from repro.experiments import fleet

    claimed = multiprocessing.Value("i", 0)
    execute = fleet._execute_run

    def execute_with_action(task, assets):
        with claimed.get_lock():
            first = claimed.value == 0
            claimed.value = 1
        if first:
            action(task)
        return execute(task, assets)

    monkeypatch.setattr(fleet, "_execute_run", execute_with_action)


def _count_worker_snapshots(monkeypatch):
    """Record how many worker snapshots each campaign telemetry merge got."""
    from repro.experiments import fleet

    counts = []
    merge = fleet.merge_snapshots

    def recording_merge(parent, *workers):
        counts.append(len(workers))
        return merge(parent, *workers)

    monkeypatch.setattr(fleet, "merge_snapshots", recording_merge)
    return counts


def _rows(records):
    return {record.run_index: record.row() for record in records}


class TestFleetCollectorContract:
    @_FORK_ONLY
    def test_zombie_duplicate_is_awaited_dropped_and_counted(
        self, monkeypatch, tiny_fleet_grid, tiny_fleet_assets,
        tiny_fleet_serial_rows,
    ):
        """A worker whose lease was revoked keeps running (a zombie).
        The collector waits for it even though every cell already has
        a record, drops its late duplicate first-wins and counts it."""
        import threading

        from repro.experiments.campaign import plan_tasks
        from repro.experiments.fleet import run_fleet_campaign

        holding = multiprocessing.Event()
        release = multiprocessing.Event()
        zombie_cell = multiprocessing.Value("i", -1)

        def hold(task):
            zombie_cell.value = task.run_index
            holding.set()
            release.wait(timeout=120.0)

        _on_first_cell(monkeypatch, hold)
        rerun_stored = threading.Event()

        def record_sink(record):
            if record.run_index == zombie_cell.value:
                rerun_stored.set()

        state = {}

        def chaos(handle):
            try:
                assert holding.wait(timeout=60.0)
                state["coordinator"] = handle.coordinator
                assert handle.coordinator.requeue_cell(zombie_cell.value)
                # The survivor re-runs the cell and delivers first.
                assert rerun_stored.wait(timeout=60.0)
            finally:
                release.set()

        sink = []
        records = run_fleet_campaign(
            tiny_fleet_grid, plan_tasks(tiny_fleet_grid), tiny_fleet_assets,
            telemetry_sink=sink, chaos=chaos, record_sink=record_sink,
        )
        assert _rows(records) == tiny_fleet_serial_rows
        assert state["coordinator"].duplicate_completions == 1
        assert sink[0]["counters"]["fleet.duplicate_records"] == 1

    @_FORK_ONLY
    def test_worker_exiting_mid_cell_is_re_leased_bit_identical(
        self, monkeypatch, tiny_fleet_grid, tiny_fleet_assets,
        tiny_fleet_serial_rows,
    ):
        """A queue worker that ``os._exit``s mid-cell, before its
        ``_WorkerDone``, is lost on exit; its cell is re-leased and the
        merged telemetry holds the survivor's snapshot only."""
        import os

        from repro.experiments import fleet
        from repro.experiments.campaign import plan_tasks
        from repro.experiments.fleet import run_fleet_campaign

        # The worker's request queue shares one write lock with every
        # other writer; dying while its feeder thread holds that lock
        # would wedge the whole fleet.  Flush the queue, then die.
        request_queue = {}
        run_worker = fleet._run_worker

        def run_worker_keeping_request_queue(*args):
            request_queue["worker"] = args[4]
            run_worker(*args)

        def exit_mid_cell(task):
            request_queue["worker"].close()
            request_queue["worker"].join_thread()
            os._exit(3)

        monkeypatch.setattr(
            fleet, "_run_worker", run_worker_keeping_request_queue
        )
        _on_first_cell(monkeypatch, exit_mid_cell)
        snapshot_counts = _count_worker_snapshots(monkeypatch)
        state = {}

        def chaos(handle):
            state["service"] = handle.service
            state["coordinator"] = handle.coordinator

        tasks = plan_tasks(tiny_fleet_grid)
        sink = []
        records = run_fleet_campaign(
            tiny_fleet_grid, tasks, tiny_fleet_assets,
            telemetry_sink=sink, chaos=chaos,
        )
        assert _rows(records) == tiny_fleet_serial_rows
        service = state["service"]
        assert len(service.lost) == 1
        assert service.lost | service.signed_off == {0, 1}
        assert state["coordinator"].requeued_total == 1
        assert sink[0]["counters"]["campaign.cells_completed"] == len(tasks)
        assert snapshot_counts == [len(service.signed_off)] == [1]

    def test_merged_telemetry_has_one_snapshot_per_signed_off_worker(
        self, monkeypatch, tiny_fleet_grid, tiny_fleet_assets,
    ):
        from repro.experiments.campaign import plan_tasks
        from repro.experiments.fleet import run_fleet_campaign

        snapshot_counts = _count_worker_snapshots(monkeypatch)
        state = {}

        def chaos(handle):
            state["service"] = handle.service

        tasks = plan_tasks(tiny_fleet_grid)
        sink = []
        run_fleet_campaign(
            tiny_fleet_grid, tasks, tiny_fleet_assets,
            telemetry_sink=sink, chaos=chaos,
        )
        assert sink[0]["counters"]["campaign.cells_completed"] == len(tasks)
        assert state["service"].signed_off == {0, 1}
        assert snapshot_counts == [2]

    @_FORK_ONLY
    def test_lost_record_raises_once_every_worker_has_exited(
        self, monkeypatch, tiny_fleet_grid, tiny_fleet_assets,
    ):
        """A record that never reaches the parent (its lease settled,
        every worker gone) still fails the campaign loudly."""
        from repro.experiments import fleet
        from repro.experiments.campaign import plan_tasks

        monkeypatch.setattr(fleet, "_DRAIN_GRACE_SECONDS", 0.5)
        run_worker = fleet._run_worker

        class DropCellZero:
            def __init__(self, results_queue):
                self._queue = results_queue

            def put(self, item):
                if getattr(item, "run_index", None) != 0:
                    self._queue.put(item)

        def run_worker_losing_cell_zero(*args):
            args = list(args)
            args[6] = DropCellZero(args[6])  # the results queue
            run_worker(*args)

        monkeypatch.setattr(fleet, "_run_worker", run_worker_losing_cell_zero)
        with pytest.raises(RuntimeError, match=r"lost records for cells \[0\]"):
            fleet.run_fleet_campaign(
                tiny_fleet_grid, plan_tasks(tiny_fleet_grid),
                tiny_fleet_assets,
            )


@pytest.mark.parametrize("transport", ["queue", "tcp"])
def test_campaign_returns_promptly_after_last_record(
    transport, tiny_fleet_grid, tiny_fleet_assets
):
    """The shutdown bound: once the last record is stored, the fleet
    campaign returns without waiting out a timed poll."""
    import statistics
    import time
    from dataclasses import replace

    from repro.experiments.campaign import plan_tasks
    from repro.experiments.fleet import run_fleet_campaign

    grid = replace(tiny_fleet_grid, transport=transport)
    tasks = plan_tasks(grid)
    gaps = []
    for _ in range(3):
        stored = []
        records = run_fleet_campaign(
            grid, tasks, tiny_fleet_assets,
            record_sink=lambda record: stored.append(time.monotonic()),
        )
        gaps.append(time.monotonic() - stored[-1])
        assert len(records) == len(tasks)
    assert statistics.median(gaps) < 0.35, gaps
