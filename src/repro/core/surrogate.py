"""Surrogate QoS generation by input-space gradient ascent (eq. 1).

GONs generate samples without a generator network: starting from an
initial guess, the metric matrix is optimised to maximise the
discriminator's log-likelihood,

    M <- M + gamma * grad_M log D(M, S, G; theta),

and the ascended ``M*`` is the predicted performance for ``(S, G)``
while ``D(M*, S, G)`` is the prediction's confidence score.  The ascent
runs a fixed number of Adam steps (``max_steps``; CAROL's
``surrogate_steps``, Algorithm 1's ``generation_steps``).  In
deployment the ascent warm-starts from the previous interval's metrics
``M_{t-1}`` (temporal-correlation trick of §III-B) rather than noise.

This module is the autodiff *oracle* of that ascent: every Adam step
builds a :class:`repro.nn.Tensor` graph to read ``dD/dM``.  CAROL and
Algorithm 1 ascend on the graph-free float64 kernel of
:mod:`repro.core.fastscore` instead, and the parity tests and benches
hold that kernel bitwise-equal to the functions here.

Batched calling convention
--------------------------
:func:`generate_metrics_batch` / :func:`predict_qos_batch` run the same
Adam ascent on a whole candidate stack at once: ``B`` topologies (a
tabu neighbourhood, or -- as the oracle training is tested against --
a training minibatch's noise samples) are stacked into ``[B, n_hosts, F]`` arrays and every ascent step is one
vectorized forward/backward through :meth:`GONDiscriminator.
forward_batch`.  Every update is elementwise, so each element follows
exactly the trajectory the sequential :func:`generate_metrics` would
have produced.  Results come back in input order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry as _telemetry
from ..nn import Tensor
from .features import GONInput
from .gon import GONDiscriminator

__all__ = [
    "SurrogateResult",
    "generate_metrics",
    "generate_metrics_batch",
    "predict_qos",
    "predict_qos_batch",
]

_EPS = 1e-8

# Process-registry handles for the autodiff ascent (only the oracle
# runs it); counted per vectorized call, not per element.
_ASCENT_SPAN = _telemetry.span("gon.ascent")
_ASCENT_CALLS = _telemetry.counter("gon.ascent.calls")
_ASCENT_ELEMENTS = _telemetry.counter("gon.ascent.elements")
_ASCENT_STEPS = _telemetry.counter("gon.ascent.steps")
_ASCENT_BATCH = _telemetry.histogram("gon.ascent.batch_size", _telemetry.SIZE_EDGES)


@contextmanager
def _frozen_parameters(model: GONDiscriminator):
    """Disable weight gradients for the duration of an ascent.

    Eq. 1 only differentiates with respect to the *input* metrics;
    freezing the parameters lets the autodiff engine skip every
    weight-gradient gemm in the backward pass (roughly halving its
    cost) without changing the input gradients.  Callers that need
    parameter gradients (training's loss backward) run outside this
    context and never read grads accumulated during generation.
    """
    parameters = model.parameters()
    flags = [p.requires_grad for p in parameters]
    for parameter in parameters:
        parameter.requires_grad = False
    try:
        yield
    finally:
        for parameter, flag in zip(parameters, flags):
            parameter.requires_grad = flag


@dataclass(frozen=True)
class SurrogateResult:
    """Outcome of one eq.-1 optimisation run."""

    metrics: np.ndarray       # ascended M*
    confidence: float         # D(M*, S, G)


def generate_metrics(
    model: GONDiscriminator,
    schedule: np.ndarray,
    adjacency: np.ndarray,
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> SurrogateResult:
    """Run the eq.-1 ascent and return ``M*`` with its confidence.

    Parameters
    ----------
    model:
        Trained discriminator.
    schedule / adjacency:
        The fixed inputs ``S`` and ``G``.
    init_metrics:
        Warm start (``M_{t-1}``); random noise if omitted, matching
        Algorithm 1's noise samples ``Z``.
    gamma:
        Ascent step size (the learning rate swept in Fig. 6a).
    max_steps:
        Number of Adam steps in the input space (the practice of the
        original GON implementation, which runs eq. 1 through an
        optimizer).

    The final confidence is read from the loop's own last forward pass
    (the score of the post-update metrics), so no extra forward runs
    after the loop.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n_hosts = int(np.asarray(schedule).shape[0])
    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        start = rng.uniform(0.0, 1.0, size=(n_hosts, model.n_m_features))
    else:
        start = np.array(init_metrics, dtype=float, copy=True)

    current = Tensor(start, requires_grad=True)
    first_moment = np.zeros_like(start)
    second_moment = np.zeros_like(start)
    beta1, beta2 = 0.9, 0.999
    with _frozen_parameters(model):
        score = model(current, schedule, adjacency)
        for step in range(max_steps):
            log_likelihood = score.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.backward()
            gradient = current.grad
            first_moment = beta1 * first_moment + (1 - beta1) * gradient
            second_moment = beta2 * second_moment + (1 - beta2) * gradient ** 2
            m_hat = first_moment / (1 - beta1 ** (step + 1))
            v_hat = second_moment / (1 - beta2 ** (step + 1))
            update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            current = Tensor(
                np.clip(current.data + update, 0.0, 3.0), requires_grad=True
            )
            # Score the updated metrics: this is both the next
            # iteration's ascent point and, on exit, the returned
            # confidence.
            score = model(current, schedule, adjacency)

    return SurrogateResult(
        metrics=current.data.copy(), confidence=float(score.data)
    )


def generate_metrics_batch(
    model: GONDiscriminator,
    schedules: Sequence[np.ndarray],
    adjacencies: Sequence[np.ndarray],
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> List[SurrogateResult]:
    """Eq.-1 ascent over a whole candidate stack in vectorized passes.

    ``schedules`` and ``adjacencies`` are length-``B`` sequences (or
    pre-stacked ``[B, ...]`` arrays) sharing one host count;
    ``init_metrics`` is an optional ``[B, n_hosts, F]`` warm-start
    stack.  When ``init_metrics`` is omitted the noise starts are drawn
    from ``rng`` in one call, consuming the generator stream exactly as
    ``B`` sequential :func:`generate_metrics` calls would.  The
    returned list matches looped :func:`generate_metrics` element-wise.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    schedules = np.asarray(schedules, dtype=float)
    adjacencies = np.asarray(adjacencies, dtype=float)
    if schedules.ndim != 3 or adjacencies.ndim != 3:
        raise ValueError(
            f"expected stacked [B, ...] inputs, got schedules "
            f"{schedules.shape} and adjacencies {adjacencies.shape}"
        )
    batch = schedules.shape[0]
    if batch == 0:
        return []
    n_hosts = schedules.shape[1]
    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        current = rng.uniform(
            0.0, 1.0, size=(batch, n_hosts, model.n_m_features)
        )
    else:
        current = np.array(init_metrics, dtype=float, copy=True)
        if current.shape[0] != batch:
            raise ValueError(
                f"init_metrics batch {current.shape[0]} != {batch}"
            )

    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    beta1, beta2 = 0.9, 0.999
    with _ASCENT_SPAN.time(), _frozen_parameters(model):
        tensor = Tensor(current, requires_grad=True)
        scores = model.forward_batch(tensor, schedules, adjacencies)
        for step in range(max_steps):
            log_likelihood = scores.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.sum().backward()
            gradient = tensor.grad
            first_moment = beta1 * first_moment + (1 - beta1) * gradient
            second_moment = beta2 * second_moment + (1 - beta2) * gradient ** 2
            m_hat = first_moment / (1 - beta1 ** (step + 1))
            v_hat = second_moment / (1 - beta2 ** (step + 1))
            update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            current = np.clip(current + update, 0.0, 3.0)
            # One vectorized forward over the whole stack: the next
            # ascent point and, on exit, the returned confidences.
            tensor = Tensor(current, requires_grad=True)
            scores = model.forward_batch(tensor, schedules, adjacencies)

    _ASCENT_CALLS.inc()
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(batch * max_steps)
    _ASCENT_BATCH.observe(batch)

    return [
        SurrogateResult(metrics=current[i].copy(), confidence=float(scores.data[i]))
        for i in range(batch)
    ]


def predict_qos(
    model: GONDiscriminator,
    sample: GONInput,
    objective,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> tuple[float, SurrogateResult]:
    """Predicted ``O(M*)`` for a candidate ``(S, G)`` pair.

    Warm-starts from the observed metrics in ``sample`` (the paper's
    ``M_{t-1}`` initialisation) and evaluates the objective on the
    ascended prediction.  Returns ``(objective_value, result)``.
    """
    result = generate_metrics(
        model,
        sample.schedule,
        sample.adjacency,
        init_metrics=sample.metrics,
        gamma=gamma,
        max_steps=max_steps,
    )
    return objective(result.metrics), result


def predict_qos_batch(
    model: GONDiscriminator,
    samples: Sequence[GONInput],
    objective,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> List[tuple[float, SurrogateResult]]:
    """Batched :func:`predict_qos`: one vectorized ascent per stack.

    Scores a whole neighbourhood of candidate ``(S, G)`` pairs (warm-
    started from each sample's observed metrics) in a single batched
    eq.-1 run.  Returns ``(objective_value, result)`` pairs in input
    order, matching looped :func:`predict_qos`.
    """
    if not samples:
        return []
    results = generate_metrics_batch(
        model,
        np.stack([s.schedule for s in samples]),
        np.stack([s.adjacency for s in samples]),
        init_metrics=np.stack([s.metrics for s in samples]),
        gamma=gamma,
        max_steps=max_steps,
    )
    return [(objective(r.metrics), r) for r in results]
