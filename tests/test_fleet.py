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
