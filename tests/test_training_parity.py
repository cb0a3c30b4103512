"""Algorithm 1 on the fused kernel is bitwise-equal to the autodiff oracle.

``core/training.py`` generates its fake samples (and ``evaluate``'s
test-set metrics and confidences) with the graph-free float64
:class:`~repro.core.fastscore.FastGONKernel`.  Each test here trains
twice from identical initial weights: once as shipped, and once with
the private ``training._live_kernel`` seam swapped for the autodiff
oracle (:func:`repro.core.surrogate.generate_metrics_batch` plus
``GONDiscriminator.forward_batch``).  The two runs must end in equal
state dicts and equal loss/MSE/confidence curves -- exact equality,
never a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core import GONDiscriminator, GONInput, TrainingConfig, training
from repro.core.surrogate import generate_metrics_batch

#: Campaign-default training (hidden 24, 2 layers, batch 16, 20
#: generation steps), shortened to 3 epochs.
CAMPAIGN = TrainingConfig(
    epochs=3, batch_size=16, learning_rate=1e-3, generation_steps=20, seed=7
)


class _OracleKernel:
    """The kernel's training surface, computed through autodiff.

    Constructed with ``_live_kernel``'s signature so the class itself
    replaces the seam; every call sees the model's live weights.
    """

    def __init__(self, model: GONDiscriminator, kernel=None) -> None:
        self.model = model

    def ascent(self, schedules, adjacencies, rng, gamma, max_steps):
        return generate_metrics_batch(
            self.model, schedules, adjacencies,
            rng=rng, gamma=gamma, max_steps=max_steps,
        )

    def score_stack(self, metrics, schedules, adjacencies):
        return self.model.forward_batch(metrics, schedules, adjacencies).data.copy()


def _model(seed: int, hidden: int = 24, n_layers: int = 2) -> GONDiscriminator:
    return GONDiscriminator(np.random.default_rng(seed), hidden=hidden, n_layers=n_layers)


def _both(monkeypatch, run):
    """``run()`` through the kernel, then through the oracle."""
    fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(training, "_live_kernel", _OracleKernel)
        oracle = run()
    return fast, oracle


def _assert_same_state(left: GONDiscriminator, right: GONDiscriminator) -> None:
    a, b = left.state_dict(), right.state_dict()
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def _assert_same_history(left, right) -> None:
    assert left.losses == right.losses
    assert left.mses == right.mses
    assert left.confidences == right.confidences
    assert left.stopped_epoch == right.stopped_epoch


def _train_parity(monkeypatch, samples, config, **arch):
    models = []

    def run():
        model = _model(3, **arch)
        models.append(model)
        return training.train_gon(model, samples, config)

    fast, oracle = _both(monkeypatch, run)
    _assert_same_history(fast, oracle)
    _assert_same_state(*models)
    # A trained model whose weights moved, so the parity is not vacuous.
    untouched = _model(3, **arch).state_dict()
    assert any(
        not np.array_equal(untouched[k], v) for k, v in models[0].state_dict().items()
    )


def _shrunk(sample: GONInput, n_hosts: int) -> GONInput:
    """The first ``n_hosts`` hosts of ``sample``: a smaller federation."""
    return GONInput(
        sample.metrics[:n_hosts],
        sample.schedule[:n_hosts],
        sample.adjacency[:n_hosts, :n_hosts],
    )


class TestTrainGonParity:
    def test_session_samples(self, monkeypatch, session_samples):
        _train_parity(monkeypatch, session_samples, CAMPAIGN)

    def test_mixed_host_counts(self, monkeypatch, session_samples):
        mixed = session_samples[:20] + [_shrunk(s, 6) for s in session_samples[20:]]
        assert len(training._host_count_groups(mixed)) == 2
        config = TrainingConfig(
            epochs=2, batch_size=8, learning_rate=1e-3, generation_steps=10, seed=1
        )
        _train_parity(monkeypatch, mixed, config)

    def test_non_default_architecture(self, monkeypatch, session_samples):
        config = TrainingConfig(
            epochs=2, batch_size=8, learning_rate=1e-3, generation_steps=10, seed=2
        )
        _train_parity(monkeypatch, session_samples, config, hidden=16, n_layers=3)


class TestFineTuneParity:
    def test_buffer_smaller_than_batch(self, monkeypatch, trained_gon, session_samples):
        buffer = session_samples[-5:]
        assert len(buffer) < CAMPAIGN.batch_size
        models = []

        def run():
            model = trained_gon.clone_architecture(np.random.default_rng(0))
            model.load_state_dict(trained_gon.state_dict())
            models.append(model)
            return training.fine_tune(
                model, buffer, config=CAMPAIGN, iterations=3,
                rng=np.random.default_rng(11),
            )

        fast, oracle = _both(monkeypatch, run)
        assert fast == oracle
        _assert_same_state(*models)
        moved = models[0].state_dict()
        assert any(
            not np.array_equal(trained_gon.state_dict()[k], v) for k, v in moved.items()
        )


class TestNoGraph:
    @pytest.fixture(autouse=True)
    def _telemetry_on(self):
        was = telemetry.is_enabled()
        telemetry.set_enabled(True)
        yield
        telemetry.set_enabled(was)

    def test_train_gon_never_builds_an_ascent_graph(self, session_samples):
        before = telemetry.snapshot()
        training.train_gon(_model(5), session_samples, CAMPAIGN)
        counters = telemetry.delta(before)["counters"]
        assert counters.get("gon.ascent.calls", 0) == 0
        assert counters.get("gon.fast.calls", 0) > 0

    def test_evaluate_confidences_equal_score_batch(self, trained_gon, session_samples):
        kernel = training._live_kernel(trained_gon)
        _mse, mean_confidence = training._evaluate(kernel, session_samples, 1e-2, 5)
        expected = trained_gon.score_batch(session_samples)
        stack = kernel.score_stack(
            np.stack([s.metrics for s in session_samples]),
            np.stack([s.schedule for s in session_samples]),
            np.stack([s.adjacency for s in session_samples]),
        )
        assert np.array_equal(stack, expected)
        assert mean_confidence == float(np.mean(expected.tolist()))


def test_reload_tracks_the_live_weights(trained_gon, session_samples):
    """One kernel reloaded after a weight change equals a fresh export."""
    model = trained_gon.clone_architecture(np.random.default_rng(1))
    kernel = training._live_kernel(model)
    model.load_state_dict(trained_gon.state_dict())
    assert training._live_kernel(model, kernel) is kernel
    stack = [np.stack([getattr(s, f) for s in session_samples])
             for f in ("metrics", "schedule", "adjacency")]
    assert np.array_equal(
        kernel.score_stack(*stack), trained_gon.score_batch(session_samples)
    )
    with pytest.raises(ValueError, match="cannot reload"):
        kernel.reload(_model(0, hidden=8, n_layers=1))
