"""Surrogate scorer seam: where CAROL's GON evaluations execute.

CAROL's decision loop needs three operations from its surrogate --
batched eq.-1 ascents over candidate stacks, single-sample confidence
reads, and confidence-gated fine-tuning.  This module pins that surface
down as the *scorer* interface so the inference backend is swappable.
:class:`LocalScorer` runs everything in-process on the model CAROL
owns, beside the broker it repairs as in the paper (§III).  Every
execution mode uses it: serial and process-pool cells, and fleet
workers, which build their models through the same factory over the
published assets.

Every scorer carries a monotone ``generation`` counter, bumped exactly
when :meth:`fine_tune` mutates the model.  CAROL's persistent surrogate
cache keys its validity on this counter: scores stay reusable across
scheduling intervals precisely as long as the generation stands still
(the model only changes when the POT gate opens -- §III-B).

The ascent engine and its parity contract
-----------------------------------------
Every eq.-1 ascent runs on the graph-free float64 kernel of
:mod:`repro.core.fastscore`: the forward and the closed-form input
gradient of the GAT->encoder->discriminator stack, hand-written as
fused numpy kernels over the whole ``[B, n, F]`` stack.  It mirrors the
op order of the autodiff Tensor-graph engine
(:func:`repro.core.surrogate.generate_metrics_batch`), which is kept as
the *oracle*: the catalog parity tests and the campaign bench route
:meth:`LocalScorer.ascent` through it and require bit-identical records
and identical decision digests.  The campaign-level backend names
``"exact"`` (default) and ``"fast"`` (:data:`BACKENDS`) both select
this one kernel.

``confidence()`` (the POT gate input) always runs on the model path.
``fine_tune()`` runs Algorithm 1 (:mod:`repro.core.training`), which
generates its fake samples on a kernel of its own; its weight
gradients and Adam stay on autodiff.  The scoring kernel is
re-exported after every ``generation`` bump, so a fine-tuned scorer
never serves stale parameters.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

import numpy as np

from .fastscore import FastGONKernel
from .features import GONInput
from .gon import GONDiscriminator
from .surrogate import SurrogateResult
from .training import TrainingConfig, fine_tune

__all__ = ["SurrogateScorer", "LocalScorer", "BACKENDS", "validate_backend"]

#: Backend names a campaign accepts; both name the float64 kernel (see
#: the module docstring).
BACKENDS = ("exact", "fast")


def validate_backend(backend: str) -> str:
    """Return ``backend`` or raise ``ValueError`` listing the options."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown scorer backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


class SurrogateScorer(Protocol):
    """The execution backend surface CAROL's decision loop consumes."""

    #: Bumped once per :meth:`fine_tune`; persistent caches key on it.
    generation: int

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
    ) -> List[SurrogateResult]:
        """Batched eq.-1 ascent over ``[B, n, F]`` warm-started stacks."""
        ...

    def confidence(self, sample: GONInput) -> float:
        """``D(M, S, G)`` of one realised sample (no gradients kept)."""
        ...

    def fine_tune(
        self,
        samples: Sequence[GONInput],
        config: TrainingConfig,
        iterations: int,
        rng: np.random.Generator,
    ) -> float:
        """Fine-tune on Γ, bump :attr:`generation`, return the loss."""
        ...


class LocalScorer:
    """In-process scorer over an owned :class:`GONDiscriminator`.

    The kernel is built lazily on first ascent and rebuilt whenever
    :meth:`fine_tune` bumps :attr:`generation`.
    """

    def __init__(self, model: GONDiscriminator) -> None:
        self.model = model
        self.generation = 0
        self._kernel: Optional[FastGONKernel] = None
        self._kernel_generation = -1

    def _live_kernel(self) -> FastGONKernel:
        """The cached kernel, re-exported after fine-tuning."""
        if self._kernel is None or self._kernel_generation != self.generation:
            self._kernel = FastGONKernel.from_model(self.model)
            self._kernel_generation = self.generation
        return self._kernel

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
    ) -> List[SurrogateResult]:
        return self._live_kernel().ascent(
            schedules,
            adjacencies,
            init_metrics=metrics,
            gamma=gamma,
            max_steps=max_steps,
        )

    def confidence(self, sample: GONInput) -> float:
        return self.model.score(sample)

    def fine_tune(
        self,
        samples: Sequence[GONInput],
        config: Optional[TrainingConfig],
        iterations: int,
        rng: np.random.Generator,
    ) -> float:
        loss = fine_tune(
            self.model,
            list(samples),
            config=config,
            iterations=iterations,
            rng=rng,
        )
        self.generation += 1
        return loss
