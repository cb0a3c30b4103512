"""Fast inference backend: export, kernels, backends, parity tiers.

Pins the PR-7 contract end to end:

* ``nn/serialization`` inference export -- pack/unpack round-trip
  equality and loud refusal on architecture or shape mismatches;
* ``core/fastscore.FastGONKernel`` -- the graph-free fused forward and
  closed-form input gradient must reproduce the autodiff oracle
  *bit for bit* (the kernel mirrors the exact op order);
* ``core/scoring`` backend names and ``LocalScorer``'s post-fine-tune
  kernel re-export;
* the scenario-catalog parity sweep: for every registered scenario an
  *oracle arm* reruns the campaign with ``LocalScorer.ascent`` routed
  through the autodiff :func:`generate_metrics_batch`.  ``exact`` and
  ``fast`` (the same float64 kernel) must produce bit-identical
  campaign records and identical decision digests to it;
* ``benchmarks/compare_records.py --decisions``.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import GONDiscriminator
from repro.core.fastscore import FastGONKernel, gon_inference_meta
from repro.core.scoring import BACKENDS, LocalScorer, validate_backend
from repro.core.surrogate import generate_metrics_batch
from repro.core.training import TrainingConfig
from repro.experiments import (
    CampaignConfig,
    prepare_campaign_assets,
    run_campaign,
)
from repro.nn.serialization import (
    InferencePack,
    export_inference,
    verify_inference_pack,
)
from repro.scenarios import all_scenarios


def _stacks(samples, count=None):
    chosen = samples if count is None else samples[:count]
    return (
        np.stack([np.asarray(s.metrics, dtype=float) for s in chosen]),
        np.stack([np.asarray(s.schedule, dtype=float) for s in chosen]),
        np.stack([np.asarray(s.adjacency, dtype=float) for s in chosen]),
    )


def _oracle_ascent(scorer, metrics, schedules, adjacencies, gamma, max_steps):
    """``LocalScorer.ascent`` computed through the autodiff oracle."""
    return generate_metrics_batch(
        scorer.model, schedules, adjacencies,
        init_metrics=metrics, gamma=gamma, max_steps=max_steps,
    )


def _assert_results_bitwise(fast_results, oracle_results):
    assert len(fast_results) == len(oracle_results)
    for fast, oracle in zip(fast_results, oracle_results):
        assert np.array_equal(fast.metrics, oracle.metrics)
        assert fast.confidence == oracle.confidence


# ----------------------------------------------------------------------
# Inference export
# ----------------------------------------------------------------------
class TestInferenceExport:
    def test_roundtrip_forward_equality(self, trained_gon, session_samples):
        pack = export_inference(
            trained_gon, meta=gon_inference_meta(trained_gon)
        )
        verify_inference_pack(pack, trained_gon)
        kernel = FastGONKernel(pack)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        scores = kernel.score_stack(metrics, schedules, adjacencies)
        oracle = trained_gon.forward_batch(metrics, schedules, adjacencies).data
        assert np.array_equal(scores, np.asarray(oracle).reshape(-1))

    def test_export_is_a_frozen_snapshot(self, trained_gon):
        pack = export_inference(trained_gon)
        for array in pack.arrays.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_verify_refuses_missing_and_unexpected_names(self, trained_gon):
        pack = export_inference(trained_gon)
        arrays = dict(pack.arrays)
        (dropped, extra_value), *_ = arrays.items()
        del arrays[dropped]
        with pytest.raises(KeyError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )
        arrays[dropped] = extra_value
        arrays["not.a.parameter"] = extra_value
        with pytest.raises(KeyError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )

    def test_verify_refuses_shape_mismatch(self, trained_gon):
        pack = export_inference(trained_gon)
        arrays = dict(pack.arrays)
        name = "head.blocks.1.bias"
        arrays[name] = np.zeros(7)
        with pytest.raises(ValueError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )

    def test_export_rejects_unknown_dtype(self, trained_gon):
        with pytest.raises(ValueError):
            export_inference(trained_gon, dtype="int8")

    def test_kernel_refuses_foreign_pack(self, trained_gon):
        pack = export_inference(trained_gon, meta={"arch": "mlp"})
        with pytest.raises(ValueError):
            FastGONKernel(pack)

    def test_kernel_refuses_wrong_architecture_shape(self, trained_gon):
        # Claim a different hidden width than the arrays carry.
        meta = gon_inference_meta(trained_gon)
        meta["hidden"] = int(meta["hidden"]) * 2
        pack = export_inference(trained_gon, meta=meta)
        with pytest.raises((KeyError, ValueError)):
            FastGONKernel(pack)


# ----------------------------------------------------------------------
# Kernel parity vs the autodiff oracle
# ----------------------------------------------------------------------
class TestFastKernelParity:
    def test_forward_bitwise_equal(self, trained_gon, session_samples):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 8)
        scores = kernel.score_stack(metrics, schedules, adjacencies)
        oracle = trained_gon.forward_batch(metrics, schedules, adjacencies).data
        assert np.array_equal(scores, np.asarray(oracle).reshape(-1))

    def test_ascent_bitwise_equal(self, trained_gon, session_samples):
        # gamma=1e-5 is the Fig. 6(a) regime where every Adam update is
        # below 1e-5 from the first step on.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        for gamma in (1e-2, 1e-5):
            fast = kernel.ascent(
                schedules, adjacencies, init_metrics=metrics,
                gamma=gamma, max_steps=5,
            )
            oracle = generate_metrics_batch(
                trained_gon, schedules, adjacencies, init_metrics=metrics,
                gamma=gamma, max_steps=5,
            )
            _assert_results_bitwise(fast, oracle)

    def test_long_ascent_with_narrowing_bitwise_equal(
        self, trained_gon, session_samples
    ):
        # 40 steps with a small gamma: the long-run Adam moments.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        fast = kernel.ascent(
            schedules, adjacencies, init_metrics=metrics,
            gamma=1e-3, max_steps=40,
        )
        oracle = generate_metrics_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-3, max_steps=40,
        )
        _assert_results_bitwise(fast, oracle)

    def test_ascent_rejects_bad_parameters(self, trained_gon, session_samples):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 2)
        with pytest.raises(ValueError):
            kernel.ascent(
                schedules, adjacencies, init_metrics=metrics,
                gamma=0.0, max_steps=3,
            )
        with pytest.raises(ValueError):
            kernel.ascent(
                schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=-1,
            )


# ----------------------------------------------------------------------
# Backend names and the LocalScorer kernel
# ----------------------------------------------------------------------
class TestLocalScorerBackends:
    def test_validate_backend(self):
        for backend in BACKENDS:
            assert validate_backend(backend) == backend
        with pytest.raises(ValueError):
            validate_backend("onnx")

    def test_constructor_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            CampaignConfig(scenarios=("paper-default",), scorer_backend="fast32")

    def test_fast_backend_matches_exact(self, trained_gon, session_samples):
        # ``exact`` and ``fast`` name the scorer's one float64 kernel,
        # which must equal the autodiff oracle bit for bit.
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        oracle = generate_metrics_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=4,
        )
        _assert_results_bitwise(
            LocalScorer(trained_gon).ascent(
                metrics, schedules, adjacencies, 1e-2, 4
            ),
            oracle,
        )

    def test_fine_tune_re_exports_the_kernel(self, session_samples):
        # A private model instance: fine-tuning mutates weights.
        model = GONDiscriminator(np.random.default_rng(0), hidden=16,
                                 n_layers=2)
        scorer = LocalScorer(model)
        metrics, schedules, adjacencies = _stacks(session_samples, 4)
        scorer.ascent(metrics, schedules, adjacencies, 1e-2, 3)
        stale_kernel = scorer._live_kernel()
        scorer.fine_tune(
            session_samples[:8],
            config=TrainingConfig(epochs=1, batch_size=4, seed=0),
            iterations=1,
            rng=np.random.default_rng(1),
        )
        assert scorer.generation == 1
        assert scorer._live_kernel() is not stale_kernel
        _assert_results_bitwise(
            scorer.ascent(metrics, schedules, adjacencies, 1e-2, 3),
            generate_metrics_batch(
                model, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=3,
            ),
        )


# ----------------------------------------------------------------------
# Scenario-catalog parity sweep
# ----------------------------------------------------------------------
def _catalog_config(name: str) -> CampaignConfig:
    # CI-scale offline training (the CampaignConfig defaults); only the
    # evaluation length is shortened.
    return CampaignConfig(
        scenarios=(name,),
        models=("CAROL",),
        n_seeds=1,
        workers=1,
        seed=0,
        n_intervals=3,
        shared_assets=True,
    )


@pytest.fixture(scope="module")
def catalog_sweep():
    """Per-scenario campaign results for both backend names (shared assets).

    The ``"oracle"`` arm runs the default config with
    ``LocalScorer.ascent`` monkeypatched onto the autodiff
    :func:`generate_metrics_batch`, so the backend gates below compare
    the kernel with the oracle, never with itself.
    """
    sweep = {}
    for spec in all_scenarios():
        config = _catalog_config(spec.name)
        assets = prepare_campaign_assets(config)
        results = {
            backend: run_campaign(
                replace(config, scorer_backend=backend),
                prepared_assets=assets,
            )
            for backend in BACKENDS
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LocalScorer, "ascent", _oracle_ascent)
            results["oracle"] = run_campaign(config, prepared_assets=assets)
        sweep[spec.name] = results
    return sweep


@pytest.fixture(scope="module")
def catalog_ascents():
    """One warm-start ascent over each scenario's trained surrogate.

    Maps scenario name to ``(oracle results, kernel results)``.
    """
    ascents = {}
    for spec in all_scenarios():
        assets = prepare_campaign_assets(_catalog_config(spec.name))[spec.name]
        gon = assets.fresh_gon()
        metrics, schedules, adjacencies = _stacks(assets.samples[:6])
        oracle = generate_metrics_batch(
            gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=4,
        )
        ascents[spec.name] = oracle, LocalScorer(gon).ascent(
            metrics, schedules, adjacencies, 1e-2, 4
        )
    return ascents


def _digests(result):
    return [r.diagnostics["decision_digest"] for r in result.records]


class TestCatalogParity:
    def test_catalog_covers_all_scenarios(self, catalog_sweep):
        assert len(catalog_sweep) >= 9

    def test_oracle_arm_runs_autodiff_and_backends_do_not(
        self, catalog_sweep
    ):
        # Without this the parity gates could compare the kernel with
        # itself and pass vacuously.
        for name, results in catalog_sweep.items():
            calls = {
                arm: result.telemetry["counters"]["gon.ascent.calls"]
                for arm, result in results.items()
            }
            assert calls.pop("oracle") > 0, name
            assert set(calls.values()) == {0}, (name, calls)

    def test_fast_records_bit_identical_across_catalog(self, catalog_sweep):
        for name, results in catalog_sweep.items():
            oracle = results["oracle"].rows()
            assert results["exact"].rows() == oracle, name
            assert results["fast"].rows() == oracle, name

    def test_fast_decisions_identical_across_catalog(self, catalog_sweep):
        for name, results in catalog_sweep.items():
            oracle = _digests(results["oracle"])
            assert _digests(results["exact"]) == oracle, name
            assert _digests(results["fast"]) == oracle, name

    def test_float64_scores_bitwise_across_catalog(self, catalog_ascents):
        # Scorer-level tier: a perturbed kernel can leave every catalog
        # decision intact, so scores are gated bit for bit as well.
        for oracle, ascents in catalog_ascents.values():
            _assert_results_bitwise(ascents, oracle)


# ----------------------------------------------------------------------
# compare_records --decisions
# ----------------------------------------------------------------------
class TestCompareRecordsDecisions:
    def _dump(self, path, digest):
        import json

        payload = {
            "records": [
                {
                    "run_index": 0,
                    "scenario": "paper-default",
                    "qos": 0.5,
                    "diagnostics": {
                        "n_fine_tunes": 1,
                        "decision_digest": digest,
                    },
                    "telemetry": {"counters": {"x": 1}},
                }
            ]
        }
        path.write_text(json.dumps(payload))

    def test_decisions_flag_catches_digest_divergence(self, tmp_path, capsys):
        sys.path.insert(0, "benchmarks")
        try:
            from compare_records import main as compare_main
        finally:
            sys.path.pop(0)
        left, right = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(left, "aaaa")
        self._dump(right, "bbbb")
        # Without --decisions, diagnostics are execution-only: equal.
        assert compare_main([str(left), str(right)]) == 0
        # With --decisions the digests must match.
        assert compare_main([str(left), str(right), "--decisions"]) == 1
        out = capsys.readouterr().out
        assert "decision_digest" in out
        self._dump(right, "aaaa")
        assert compare_main([str(left), str(right), "--decisions"]) == 0
