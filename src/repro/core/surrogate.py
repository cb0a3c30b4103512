"""Surrogate QoS generation by input-space gradient ascent (eq. 1).

GONs generate samples without a generator network: starting from an
initial guess, the metric matrix is optimised to maximise the
discriminator's log-likelihood,

    M <- M + gamma * grad_M log D(M, S, G; theta),

and the converged ``M*`` is the predicted performance for ``(S, G)``
while ``D(M*, S, G)`` is the prediction's confidence score.  In
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
forward_batch`.  Convergence is tracked per batch element: an element
whose update norm falls below ``tol`` freezes (its metrics, step count
and confidence are finalised) while the remaining elements continue in
a compacted stack, so each element follows exactly the trajectory the
sequential :func:`generate_metrics` would have produced.  Results come
back in input order.
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
_ASCENT_CONVERGED = _telemetry.counter("gon.ascent.converged")
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

    metrics: np.ndarray       # converged M*
    confidence: float         # D(M*, S, G)
    n_steps: int              # ascent steps actually taken
    converged: bool


def generate_metrics(
    model: GONDiscriminator,
    schedule: np.ndarray,
    adjacency: np.ndarray,
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
    tol: float = 1e-5,
    adaptive: bool = True,
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
    max_steps / tol:
        Convergence controls: stop when the update norm falls below
        ``tol`` or after ``max_steps`` iterations.
    adaptive:
        Use Adam-style adaptive steps in the input space (the practice
        of the original GON implementation, which runs eq. 1 through an
        optimizer "till convergence").  ``False`` gives the literal
        plain-gradient form of eq. 1.

    The final confidence is read from the loop's own last forward pass
    (the score of the post-update metrics doubles as the convergence
    check's score), so no extra forward runs after the loop.
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
    steps_taken = 0
    converged = False
    with _frozen_parameters(model):
        score = model(current, schedule, adjacency)
        for step in range(max_steps):
            log_likelihood = score.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.backward()
            gradient = current.grad
            if gradient is None:
                break
            if adaptive:
                first_moment = beta1 * first_moment + (1 - beta1) * gradient
                second_moment = beta2 * second_moment + (1 - beta2) * gradient ** 2
                m_hat = first_moment / (1 - beta1 ** (step + 1))
                v_hat = second_moment / (1 - beta2 ** (step + 1))
                update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                update = gamma * gradient
            current = Tensor(
                np.clip(current.data + update, 0.0, 3.0), requires_grad=True
            )
            steps_taken = step + 1
            # Score the updated metrics: this is both the next
            # iteration's ascent point and, on exit, the returned
            # confidence.
            score = model(current, schedule, adjacency)
            if float(np.abs(update).max()) < tol:
                converged = True
                break

    return SurrogateResult(
        metrics=current.data.copy(),
        confidence=float(score.data),
        n_steps=steps_taken,
        converged=converged,
    )


def generate_metrics_batch(
    model: GONDiscriminator,
    schedules: Sequence[np.ndarray],
    adjacencies: Sequence[np.ndarray],
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
    tol: float = 1e-5,
    adaptive: bool = True,
) -> List[SurrogateResult]:
    """Eq.-1 ascent over a whole candidate stack in vectorized passes.

    ``schedules`` and ``adjacencies`` are length-``B`` sequences (or
    pre-stacked ``[B, ...]`` arrays) sharing one host count;
    ``init_metrics`` is an optional ``[B, n_hosts, F]`` warm-start
    stack.  When ``init_metrics`` is omitted the noise starts are drawn
    from ``rng`` in one call, consuming the generator stream exactly as
    ``B`` sequential :func:`generate_metrics` calls would.

    Per-element convergence: each element stops ascending the moment
    its own update norm drops below ``tol`` (its confidence is read
    from the same vectorized forward that detected convergence) while
    the still-active elements continue in a compacted stack.  The
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
    steps_taken = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    confidence = np.zeros(batch, dtype=float)

    active = np.arange(batch)
    with _ASCENT_SPAN.time(), _frozen_parameters(model):
        tensor = Tensor(current[active], requires_grad=True)
        scores = model.forward_batch(
            tensor, schedules[active], adjacencies[active]
        )
        # When elements freeze mid-iteration, ``scores`` is a
        # differentiable slice of a larger stack; ``rows`` maps its
        # rows back into ``tensor`` so the surviving gradients can be
        # read without re-running the forward pass.
        rows: Optional[np.ndarray] = None
        for step in range(max_steps):
            if active.size == 0:
                break
            log_likelihood = scores.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.sum().backward()
            gradient = tensor.grad
            if gradient is None:
                break
            if rows is not None:
                gradient = gradient[rows]
            if adaptive:
                first_moment[active] = (
                    beta1 * first_moment[active] + (1 - beta1) * gradient
                )
                second_moment[active] = (
                    beta2 * second_moment[active] + (1 - beta2) * gradient ** 2
                )
                m_hat = first_moment[active] / (1 - beta1 ** (step + 1))
                v_hat = second_moment[active] / (1 - beta2 ** (step + 1))
                update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                update = gamma * gradient
            current[active] = np.clip(current[active] + update, 0.0, 3.0)
            steps_taken[active] = step + 1

            # One vectorized forward over the whole still-active stack:
            # the next ascent point, and the confidence of any element
            # the convergence mask freezes right here.
            tensor = Tensor(current[active], requires_grad=True)
            scores = model.forward_batch(
                tensor, schedules[active], adjacencies[active]
            )
            rows = None
            done = np.abs(update).reshape(active.size, -1).max(axis=1) < tol
            if done.any():
                frozen = active[done]
                converged[frozen] = True
                confidence[frozen] = scores.data[done]
                active = active[~done]
                if active.size == 0:
                    break
                # Narrow the existing graph to the survivors instead of
                # re-running the forward pass: slicing is
                # differentiable, and each row's value/gradient is
                # identical to what a compacted forward would produce.
                rows = np.flatnonzero(~done)
                scores = scores[rows]
    if active.size:
        confidence[active] = scores.data

    _ASCENT_CALLS.inc()
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(int(steps_taken.sum()))
    _ASCENT_CONVERGED.add(int(converged.sum()))
    _ASCENT_BATCH.observe(batch)

    return [
        SurrogateResult(
            metrics=current[i].copy(),
            confidence=float(confidence[i]),
            n_steps=int(steps_taken[i]),
            converged=bool(converged[i]),
        )
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
    converged prediction.  Returns ``(objective_value, result)``.
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
