"""Graph-free GON ascent kernel: the engine of every eq.-1 ascent.

The autodiff engine (:func:`repro.core.surrogate.generate_metrics_batch`)
builds a full :class:`repro.nn.Tensor` graph per Adam step of the
eq.-1 ascent just to read ``dD/dM`` -- even though every weight is
frozen during the ascent.  This module replays the same arithmetic
without the graph: a :class:`~repro.core.gon.GONDiscriminator` is
exported into a flat float64 :class:`~repro.nn.serialization.
InferencePack` of frozen arrays, and the forward **and the closed-form
input gradient** of the GAT -> encoder -> discriminator stack are
hand-written fused numpy kernels over the whole ``[B, n, F]`` stack.
Every scorer ascends here, and so does Algorithm 1; the autodiff
engine is kept only as the oracle that tests and benches compare
against.

Fidelity contract:

* every kernel mirrors the autodiff path's op order and gemm shapes --
  the same flat ``[B*n, F]`` BLAS calls, the same masked-softmax
  arithmetic (non-edges pushed by -1e9, detached row-max shift, 1e-12
  denominator), the same inclusive clip masks and the same Adam update
  expression -- so results are bitwise equal to the oracle's, which
  the scorer and catalog parity tests require;
* both engines run a fixed-step ascent: every element of a stack takes
  exactly ``max_steps`` Adam steps, so the backward always runs at the
  forward's stack size;
* Algorithm 1 generates its fake samples and test-set metrics with a
  kernel reloaded after every optimizer step
  (:mod:`repro.core.training`).  That path is held to exact equality:
  ``tests/test_training_parity.py`` trains once through the kernel and
  once through the autodiff oracle and requires equal state dicts and
  equal loss/MSE/confidence curves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..nn.gat import adjacency_with_self_loops
from ..nn.serialization import (
    InferencePack,
    export_inference,
    verify_inference_pack,
)
from .features import N_NODE_FEATURES
from .gon import GONDiscriminator
from .surrogate import SurrogateResult

__all__ = ["FastGONKernel", "gon_inference_meta"]

_EPS = 1e-8  # clip epsilon of the ascent's log-likelihood (surrogate._EPS)

# Telemetry for the fused kernel, mirroring the gon.ascent.* handles of
# the autodiff oracle so the two engines can be compared directly.
_FAST_SPAN = _telemetry.span("gon.fast.ascent")
_FAST_CALLS = _telemetry.counter("gon.fast.calls")
_FAST_ELEMENTS = _telemetry.counter("gon.fast.elements")
_FAST_STEPS = _telemetry.counter("gon.fast.steps")
_FAST_BATCH = _telemetry.histogram("gon.fast.batch_size", _telemetry.SIZE_EDGES)


def gon_inference_meta(model: GONDiscriminator) -> Dict[str, object]:
    """Architecture metadata an :class:`InferencePack` needs for a GON."""
    return {
        "arch": "gon-discriminator",
        "hidden": int(model.hidden),
        "n_layers": int(model.n_layers),
        "n_m_features": int(model.n_m_features),
        "n_s_features": int(model.n_s_features),
    }


def _verified_export(model: GONDiscriminator) -> InferencePack:
    pack = export_inference(model, meta=gon_inference_meta(model))
    verify_inference_pack(pack, model)
    return pack


class FastGONKernel:
    """Fused forward + closed-form input gradient of one exported GON.

    A kernel holds a snapshot of the weights: fine-tuning the live
    model does not affect it until :meth:`reload`.  Scorers re-export
    after every generation bump (see :class:`repro.core.scoring.
    LocalScorer`); training reloads after every optimizer step (see
    :mod:`repro.core.training`).
    """

    def __init__(self, pack: InferencePack) -> None:
        meta = pack.meta
        if meta.get("arch") != "gon-discriminator":
            raise ValueError(
                f"inference pack is not a GON export: arch={meta.get('arch')!r}"
            )
        try:
            hidden = int(meta["hidden"])
            n_layers = int(meta["n_layers"])
            n_m = int(meta["n_m_features"])
            n_s = int(meta["n_s_features"])
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"inference pack meta missing {exc}") from exc
        if pack.dtype != "float64":
            raise ValueError(
                f"the GON kernel runs float64 packs, got {pack.dtype!r}"
            )
        self.hidden = hidden
        self.n_layers = n_layers
        self.n_m_features = n_m
        self.n_s_features = n_s
        self._load(pack)
        self._ascents = 0  # monotonic call id, part of the forward tag
        # Preallocated per-(batch, hosts) workspaces: forward
        # activations, masked-softmax scratch and backward temporaries
        # live here, so steady-state ascent steps allocate nothing.
        self._workspaces: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}

    def _load(self, pack: InferencePack) -> None:
        """Check ``pack``'s arrays against the architecture and take them."""
        arrays = pack.arrays
        hidden, n_layers = self.hidden, self.n_layers
        expected = {"graph_encoder.layers.0.attention",
                    "graph_encoder.layers.0.bias",
                    "graph_encoder.layers.0.weight",
                    "head.blocks.0.bias", "head.blocks.0.weight",
                    "head.blocks.1.bias", "head.blocks.1.weight"}
        for i in range(n_layers):
            expected.add(f"ms_encoder.blocks.{i}.bias")
            expected.add(f"ms_encoder.blocks.{i}.weight")
        if set(arrays) != expected:
            raise KeyError(
                f"inference pack arrays mismatch: "
                f"missing={sorted(expected - set(arrays))} "
                f"unexpected={sorted(set(arrays) - expected)}"
            )

        def take(name: str, shape: Tuple[int, ...]) -> np.ndarray:
            array = arrays[name]
            if tuple(array.shape) != shape:
                raise ValueError(
                    f"inference pack shape mismatch for {name!r}: "
                    f"{tuple(array.shape)} != {shape}"
                )
            return np.ascontiguousarray(array)

        dims = [self.n_m_features + self.n_s_features] + [hidden] * n_layers
        self._ms: List[Tuple[np.ndarray, np.ndarray]] = [
            (
                take(f"ms_encoder.blocks.{i}.weight", (dims[i], dims[i + 1])),
                take(f"ms_encoder.blocks.{i}.bias", (dims[i + 1],)),
            )
            for i in range(n_layers)
        ]
        self._gat_w = take(
            "graph_encoder.layers.0.weight", (N_NODE_FEATURES, hidden)
        )
        self._gat_b = take("graph_encoder.layers.0.bias", (hidden,))
        self._gat_a = take(
            "graph_encoder.layers.0.attention", (hidden, hidden)
        )
        self._head_w0 = take("head.blocks.0.weight", (2 * hidden, hidden))
        self._head_b0 = take("head.blocks.0.bias", (hidden,))
        self._head_w1 = take("head.blocks.1.weight", (hidden, 1))
        self._head_b1 = take("head.blocks.1.bias", (1,))
        self.pack = pack

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: GONDiscriminator) -> "FastGONKernel":
        """Export ``model`` (with verification) and build a kernel."""
        return cls(_verified_export(model))

    def reload(self, model: GONDiscriminator) -> None:
        """Load ``model``'s current weights, keeping the workspaces.

        The export is verified exactly as in :meth:`from_model` (the
        pack must equal the live parameters bit for bit), and
        ``model`` must have this kernel's architecture.  Training
        reloads one kernel after every optimizer step instead of
        rebuilding it per minibatch.
        """
        pack = _verified_export(model)
        if pack.meta != self.pack.meta:
            raise ValueError(
                f"cannot reload a {self.pack.meta} kernel from a "
                f"{pack.meta} model"
            )
        self._load(pack)

    # ------------------------------------------------------------------
    def _workspace(self, batch: int, n: int) -> Dict[str, np.ndarray]:
        key = (batch, n)
        ws = self._workspaces.get(key)
        if ws is None:
            h = self.hidden
            flat = batch * n
            f_in = self.n_m_features + self.n_s_features
            dims = [f_in] + [h] * self.n_layers
            ws = {
                "joint": np.empty((batch, n, f_in)),
                "joint_tag": None,  # ascent call whose S half is written
                "u": np.empty((flat, N_NODE_FEATURES)),
                "msg": np.empty((flat, h)),
                "q": np.empty((flat, h)),
                "att": np.empty((batch, n, n)),
                "row": np.empty((batch, n, 1)),
                "agg": np.empty((batch, n, h)),
                "e_ms": np.empty((batch, h)),
                "e_g": np.empty((batch, h)),
                "h0": np.empty((batch, 2 * h)),
                "z1": np.empty((batch, h)),
                "mask1": np.empty((batch, h), dtype=bool),
                "z2": np.empty((batch, 1)),
                # backward scratch
                "dz1": np.empty((batch, h)),
                "dh0": np.empty((batch, 2 * h)),
                "dagg": np.empty((batch, n, h)),
                "datt": np.empty((batch, n, n)),
                "dscores": np.empty((batch, n, n)),
                "dmsg3": np.empty((batch, n, h)),
                "dtmp3": np.empty((batch, n, h)),
                "dmsg_flat": np.empty((flat, h)),
                "dpre": np.empty((flat, h)),
                "du": np.empty((flat, N_NODE_FEATURES)),
                "djoint": np.empty((flat, f_in)),
                "dmetrics": np.empty((batch, n, self.n_m_features)),
            }
            for i in range(self.n_layers):
                ws[f"ms_z{i}"] = np.empty((flat, dims[i + 1]))
                ws[f"ms_mask{i}"] = np.empty((flat, dims[i + 1]), dtype=bool)
                ws[f"ms_dz{i}"] = np.empty((flat, dims[i + 1]))
                if i:
                    ws[f"ms_dx{i}"] = np.empty((flat, dims[i]))
            self._workspaces[key] = ws
        return ws

    # ------------------------------------------------------------------
    def _forward(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        masks: np.ndarray,
        push: np.ndarray,
        tag: object = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Fused forward over a ``[k, n, F]`` stack.

        Returns the ``[k]`` confidence vector plus the saved
        activations the closed-form backward needs.  Mirrors
        ``GONDiscriminator.forward_batch`` op for op.  ``tag``
        identifies the schedule stack: the ascent loop passes its call
        id so the constant S half of the joint input is written once
        per ascent.
        """
        k, n, _ = metrics.shape
        h = self.hidden
        ws = self._workspace(k, n)

        # --- eq. 3: per-host feed-forward over [M, S], mean-pooled.
        joint = ws["joint"]
        joint[..., : self.n_m_features] = metrics
        if tag is None or ws["joint_tag"] != tag:
            joint[..., self.n_m_features:] = schedules
            ws["joint_tag"] = tag
        x = joint.reshape(k * n, -1)
        for i, (weight, bias) in enumerate(self._ms):
            z = ws[f"ms_z{i}"]
            np.matmul(x, weight, out=z)
            z += bias
            mask = ws[f"ms_mask{i}"]
            np.greater(z, 0.0, out=mask)
            z *= mask  # ReLU, every layer incl. the final one
            x = z
        e_ms = np.add.reduce(x.reshape(k, n, h), axis=1, out=ws["e_ms"])
        e_ms *= 1.0 / n  # .mean(axis=1) == sum * (1/n)

        # --- eq. 4: one-layer GAT over u_i = M[:, :, :4].
        u_flat = ws["u"]
        u_flat.reshape(k, n, -1)[...] = metrics[..., :N_NODE_FEATURES]
        msg = ws["msg"]
        np.matmul(u_flat, self._gat_w, out=msg)
        msg += self._gat_b
        np.tanh(msg, out=msg)  # messages_flat
        q = ws["q"]
        np.matmul(msg, self._gat_a, out=q)
        messages = msg.reshape(k, n, h)
        queries = q.reshape(k, n, h)
        att = ws["att"]
        np.matmul(queries, messages.swapaxes(-1, -2), out=att)
        # Fused masked softmax (same arithmetic as nn.gat._masked_softmax).
        att += push
        row = ws["row"]
        np.maximum.reduce(att, axis=-1, keepdims=True, out=row)
        att -= row
        np.exp(att, out=att)
        att *= masks
        np.add.reduce(att, axis=-1, keepdims=True, out=row)
        row += 1e-12
        att /= row
        agg = ws["agg"]
        np.matmul(att, messages, out=agg)
        # sigma(agg).  The exact path clips the sigmoid input to
        # [-60, 60] first, but agg is an attention-weighted average of
        # tanh outputs: |agg| <= sum_j w_j |m_j| < 1 (weights are
        # non-negative and sum to at most 1), so the clip is an exact
        # identity here and is skipped.
        np.negative(agg, out=agg)
        np.exp(agg, out=agg)
        agg += 1.0
        np.reciprocal(agg, out=agg)  # g
        e_g = np.add.reduce(agg, axis=1, out=ws["e_g"])
        e_g *= 1.0 / n

        # --- eq. 5: sigmoid head over [E_MS, E_G].
        h0 = ws["h0"]
        h0[:, :h] = e_ms
        h0[:, h:] = e_g
        z1 = ws["z1"]
        np.matmul(h0, self._head_w0, out=z1)
        z1 += self._head_b0
        mask1 = ws["mask1"]
        np.greater(z1, 0.0, out=mask1)
        z1 *= mask1  # r1
        z2 = ws["z2"]
        np.matmul(z1, self._head_w1, out=z2)
        z2 += self._head_b1
        scores = 1.0 / (1.0 + np.exp(-np.clip(z2, -60.0, 60.0)))
        scores = scores.reshape(-1)

        saved = {
            "n": n,
            "ws": ws,
            "messages": messages,
            "queries": queries,
            "att": att,
            "g": agg,
            "r1": z1,
            "mask1": mask1,
            "scores": scores,
        }
        return scores, saved

    # ------------------------------------------------------------------
    def _input_gradient(self, saved: Dict[str, np.ndarray]) -> np.ndarray:
        """``d sum(log clip(D)) / dM`` for the last saved forward."""
        n = saved["n"]
        ws = saved["ws"]
        scores = saved["scores"]
        k = scores.shape[0]
        h = self.hidden
        inv_n = 1.0 / n

        clipped = np.clip(scores, _EPS, 1.0 - _EPS)
        d_scores = ((scores >= _EPS) & (scores <= 1.0 - _EPS)) / clipped
        dz2 = (d_scores * scores * (1.0 - scores)).reshape(k, 1)
        dr1 = dz2 @ self._head_w1.T
        dz1 = np.multiply(dr1, saved["mask1"], out=ws["dz1"])
        dh0 = np.matmul(dz1, self._head_w0.T, out=ws["dh0"])
        dh0 *= inv_n
        de_ms = dh0[:, :h]
        de_g = dh0[:, h:]

        # --- GAT branch.
        messages = saved["messages"]
        queries = saved["queries"]
        att = saved["att"]
        g = saved["g"]
        dagg = ws["dagg"]
        # Autodiff order is (grad * out) * (1 - out); keep it bit-exact.
        np.multiply(g, de_g[:, None, :], out=dagg)
        one_minus = np.subtract(1.0, g, out=ws["dtmp3"])
        dagg *= one_minus
        datt = ws["datt"]
        np.matmul(dagg, messages.swapaxes(-1, -2), out=datt)
        dmsg3 = ws["dmsg3"]
        np.matmul(att.swapaxes(-1, -2), dagg, out=dmsg3)
        inner = np.add.reduce(
            np.multiply(datt, att, out=ws["dscores"]),
            axis=-1, keepdims=True, out=ws["row"],
        )
        dsc = np.subtract(datt, inner, out=ws["dscores"])
        dsc *= att
        dmsg3 += np.matmul(dsc.swapaxes(-1, -2), queries, out=ws["dtmp3"])
        dqueries = np.matmul(dsc, messages, out=ws["dtmp3"])
        dpre = ws["dpre"]
        np.matmul(dqueries.reshape(k * n, h), self._gat_a.T, out=dpre)
        dmsg_flat = np.add(
            dmsg3.reshape(k * n, h), dpre, out=ws["dmsg_flat"]
        )
        tanh_d = np.square(messages.reshape(k * n, h), out=dpre)
        np.subtract(1.0, tanh_d, out=tanh_d)
        dmsg_flat *= tanh_d  # now d(pre-tanh)
        du = np.matmul(dmsg_flat, self._gat_w.T, out=ws["du"])

        # --- [M, S] encoder branch.
        dr = de_ms[:, None, :]  # broadcast over the host axis
        for i in reversed(range(self.n_layers)):
            dz = ws[f"ms_dz{i}"]
            np.multiply(
                dr, ws[f"ms_mask{i}"].reshape(k, n, -1), out=dz.reshape(k, n, -1)
            )
            weight = self._ms[i][0]
            if i == 0:
                d_joint = np.matmul(dz, weight.T, out=ws["djoint"])
                break
            dr = np.matmul(dz, weight.T, out=ws[f"ms_dx{i}"]).reshape(k, n, -1)
        d_metrics = ws["dmetrics"]
        d_metrics[...] = d_joint.reshape(k, n, -1)[..., : self.n_m_features]
        d_metrics[..., :N_NODE_FEATURES] += du.reshape(k, n, N_NODE_FEATURES)
        return d_metrics

    # ------------------------------------------------------------------
    def score_stack(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
    ) -> np.ndarray:
        """Forward-only confidences of a ``[B, n, F]`` stack."""
        metrics = np.asarray(metrics, dtype=float)
        if metrics.shape[0] == 0:
            return np.zeros(0)
        schedules = np.asarray(schedules, dtype=float)
        masks = adjacency_with_self_loops(adjacencies)
        push = np.where(masks > 0, 0.0, -1e9)
        scores, _ = self._forward(metrics, schedules, masks, push)
        return scores

    # ------------------------------------------------------------------
    def ascent(
        self,
        schedules: Sequence[np.ndarray],
        adjacencies: Sequence[np.ndarray],
        init_metrics: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        gamma: float = 1e-3,
        max_steps: int = 40,
    ) -> List[SurrogateResult]:
        """Graph-free eq.-1 Adam ascent over a candidate stack.

        Every element takes exactly ``max_steps`` steps.  Semantics
        match :func:`repro.core.surrogate.generate_metrics_batch`
        element for element (warm starts or noise drawn from ``rng``,
        confidence read from the post-update forward).
        """
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
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")

        if init_metrics is None:
            if rng is None:
                raise ValueError("need rng when init_metrics is omitted")
            point = rng.uniform(
                0.0, 1.0, size=(batch, n_hosts, self.n_m_features)
            )
        else:
            point = np.array(init_metrics, dtype=float, copy=True)
            if point.shape[0] != batch:
                raise ValueError(
                    f"init_metrics batch {point.shape[0]} != {batch}"
                )

        masks = adjacency_with_self_loops(adjacencies)
        push = np.where(masks > 0, 0.0, -1e9)
        beta1, beta2 = 0.9, 0.999
        first_moment = np.zeros_like(point)
        second_moment = np.zeros_like(point)
        self._ascents += 1
        tag = self._ascents
        with _FAST_SPAN.time():
            scores, saved = self._forward(
                point, schedules, masks, push, tag=tag
            )
            for step in range(int(max_steps)):
                gradient = self._input_gradient(saved)
                first_moment = beta1 * first_moment + (1 - beta1) * gradient
                second_moment = (
                    beta2 * second_moment + (1 - beta2) * gradient ** 2
                )
                m_hat = first_moment / (1 - beta1 ** (step + 1))
                v_hat = second_moment / (1 - beta2 ** (step + 1))
                update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
                point = np.clip(point + update, 0.0, 3.0)
                scores, saved = self._forward(
                    point, schedules, masks, push, tag=tag
                )

        _FAST_CALLS.inc()
        _FAST_ELEMENTS.add(batch)
        _FAST_STEPS.add(batch * int(max_steps))
        _FAST_BATCH.observe(batch)

        return [
            SurrogateResult(metrics=point[i].copy(), confidence=float(scores[i]))
            for i in range(batch)
        ]
