"""Benchmark: per-candidate vs batched GON neighbourhood scoring.

Measures the cost of scoring one tabu neighbourhood (the hot inner
loop of ``CAROL.repair``): ``B`` candidate topologies, each evaluated
by the eq.-1 surrogate ascent through the QoS objective.  Three
implementations are timed:

* **seed per-candidate** -- the pre-batching engine's loop, kept here
  as a frozen reference: one :func:`predict_qos`-style ascent per
  candidate with model parameters hot in the graph (their gradients
  were computed and discarded) and an extra post-loop forward to read
  the confidence.  This is the path the batched engine replaced, and
  the baseline for the headline speedup.
* **sequential** -- the current engine (frozen parameters, fused
  attention, no redundant forward) still looping candidate by
  candidate through :func:`predict_qos`.
* **batched** -- the whole stack through one vectorized
  :func:`predict_qos_batch` ascent.

Defaults mirror the paper scenario: 16 hosts / 4 LEIs, a 128-wide
3-layer GON, ``neighbourhood_sample = 24`` candidates and
``surrogate_steps = 8`` ascent iterations per evaluation.  Also checks
batched-vs-sequential score parity, so a correctness regression fails
the run (CI invokes ``--quick``).  A ``training`` section times one
campaign-default ``train_gon`` with kernel-generated vs oracle-generated
fake samples and checks the two train bit-identically.

Run:  PYTHONPATH=src python benchmarks/bench_surrogate.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core import (
    GONDiscriminator,
    GONInput,
    N_M_FEATURES,
    N_S_FEATURES,
    QoSObjective,
    predict_qos,
    predict_qos_batch,
)
from repro.core.nodeshift import neighbours
from repro.nn import Tensor
from repro.simulator import initial_topology

_EPS = 1e-8

#: Local runs write under benchmarks/out/ so stray BENCH_*.json never
#: litter the working tree; CI passes explicit --json artifact paths.
_DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "out", "BENCH_surrogate.json"
)


def seed_predict_qos(model, sample, objective, gamma, max_steps, tol=1e-5):
    """The seed repo's per-candidate scoring loop, verbatim.

    Kept as the benchmark baseline: eq.-1 Adam ascent one sample at a
    time, parameters left requiring grad (the engine computed and
    discarded their gradients every step), and a final full forward
    pass just to read the confidence.
    """
    current = Tensor(np.array(sample.metrics, dtype=float, copy=True), requires_grad=True)
    first_moment = np.zeros_like(current.data)
    second_moment = np.zeros_like(current.data)
    beta1, beta2 = 0.9, 0.999
    for step in range(max_steps):
        current.zero_grad()
        score = model(current, sample.schedule, sample.adjacency)
        score.clip(_EPS, 1.0 - _EPS).log().backward()
        gradient = current.grad
        if gradient is None:
            break
        first_moment = beta1 * first_moment + (1 - beta1) * gradient
        second_moment = beta2 * second_moment + (1 - beta2) * gradient**2
        m_hat = first_moment / (1 - beta1 ** (step + 1))
        v_hat = second_moment / (1 - beta2 ** (step + 1))
        update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
        current = Tensor(np.clip(current.data + update, 0.0, 3.0), requires_grad=True)
        if float(np.abs(update).max()) < tol:
            break
    final_score = model(current.detach(), sample.schedule, sample.adjacency)
    del final_score
    return objective(current.data)


def build_neighbourhood(n_hosts: int, n_leis: int, size: int, rng) -> list:
    """A sampled node-shift neighbourhood, as CAROL.repair draws it."""
    topology = initial_topology(n_hosts, n_leis)
    options = neighbours(topology)
    if len(options) > size:
        picks = rng.choice(len(options), size=size, replace=False)
        options = [options[i] for i in picks]
    return options


def flat_gemm_bench(args: argparse.Namespace) -> dict:
    """The ROADMAP flat-gemm decision, measured.

    Three ways to compute a batched ``[B, n, F] @ [F, H]`` product:

    * **per-slice** -- a Python loop issuing one ``[n, F] @ [F, H]``
      gemm per batch element (what stacked layers would pay without
      the reshape);
    * **stacked matmul** -- ``np.matmul`` broadcasting over the batch
      axis (BLAS is still invoked per slice inside numpy);
    * **flat** -- reshape to ``[B*n, F]``, one gemm, reshape back (the
      fast path ``repro.nn.Linear`` ships).

    Reports wall-times and the max elementwise deviation of the flat
    product from the per-slice reference, which anchors the documented
    tolerance decision in ``repro/nn/linear.py``.
    """
    rng = np.random.default_rng(args.seed)
    batch, n_hosts = args.batch, args.hosts
    in_features, hidden = 13, args.hidden
    x = rng.standard_normal((batch, n_hosts, in_features))
    w = rng.standard_normal((in_features, hidden))

    def per_slice():
        return np.stack([x[i] @ w for i in range(batch)])

    def stacked():
        return np.matmul(x, w)

    def flat():
        return (x.reshape(-1, in_features) @ w).reshape(batch, n_hosts, hidden)

    reference = per_slice()
    max_diff = float(np.abs(flat() - reference).max())
    stacked_diff = float(np.abs(stacked() - reference).max())

    timings = {}
    for label, fn in (("per_slice", per_slice), ("stacked_matmul", stacked), ("flat", flat)):
        best = min(_best_of(fn, repeats=max(args.repeats, 3), inner=50) for _ in range(2))
        timings[label] = best
    speedup = timings["per_slice"] / max(timings["flat"], 1e-12)
    print(
        f"\n-- flat-gemm fast path ([{batch}, {n_hosts}, {in_features}] "
        f"@ [{in_features}, {hidden}]) --"
    )
    for label, seconds in timings.items():
        print(f"  {label:<15} {seconds * 1e6:8.1f} us/call")
    print(
        f"  flat vs per-slice: {speedup:.1f}x, max|diff| = {max_diff:.2e} "
        f"(stacked matmul: {stacked_diff:.2e})"
    )
    return {
        "shape": [batch, n_hosts, in_features, hidden],
        "per_slice_us": round(timings["per_slice"] * 1e6, 2),
        "stacked_matmul_us": round(timings["stacked_matmul"] * 1e6, 2),
        "flat_us": round(timings["flat"] * 1e6, 2),
        "flat_speedup": round(speedup, 2),
        "flat_max_abs_diff": max_diff,
    }


def fast_backend_bench(args: argparse.Namespace, model, samples) -> dict:
    """The graph-free fused ascent kernels vs the autodiff oracle.

    Times the same warm-started eq.-1 ascent over the neighbourhood
    stack three ways -- the exact oracle looping per candidate, the
    exact batched oracle, and the float64 :mod:`repro.core.fastscore`
    kernel (``fast``).  Parity is part of the bench contract: ``fast``
    must reproduce the oracle's results *bit-for-bit* (it mirrors the
    autodiff op order).  The headline criterion key is the
    per-candidate speedup, consistent with ``speedup_batched_vs_seed``
    above; the vs-batched ratio is recorded alongside because on a
    single BLAS stream the shared gemm floor caps it far lower.
    """
    from repro.core.fastscore import FastGONKernel
    from repro.core.surrogate import generate_metrics, generate_metrics_batch

    schedules = np.stack([np.asarray(s.schedule, dtype=float) for s in samples])
    adjacencies = np.stack([np.asarray(s.adjacency, dtype=float) for s in samples])
    init = np.stack([np.asarray(s.metrics, dtype=float) for s in samples])
    gamma, steps = args.gamma, args.steps

    kernel = FastGONKernel.from_model(model)

    def exact_per_candidate():
        return [
            generate_metrics(
                model,
                schedules[i],
                adjacencies[i],
                init_metrics=init[i],
                gamma=gamma,
                max_steps=steps,
            )
            for i in range(len(samples))
        ]

    def exact_batched():
        return generate_metrics_batch(
            model, schedules, adjacencies, init_metrics=init,
            gamma=gamma, max_steps=steps,
        )

    def fast():
        return kernel.ascent(
            schedules, adjacencies, init_metrics=init,
            gamma=gamma, max_steps=steps,
        )

    # Warm-up doubles as the parity check.
    oracle = exact_batched()
    fast_results = fast()
    oracle_conf = np.array([r.confidence for r in oracle])
    oracle_metrics = np.stack([r.metrics for r in oracle])
    fast_conf = np.array([r.confidence for r in fast_results])
    fast_metrics = np.stack([r.metrics for r in fast_results])
    bit_identical = bool(
        np.array_equal(fast_conf, oracle_conf)
        and np.array_equal(fast_metrics, oracle_metrics)
    )
    assert bit_identical, "fast kernel diverged bitwise from the oracle"

    timings = {}
    for label, fn in (
        ("exact_per_candidate", exact_per_candidate),
        ("exact_batched", exact_batched),
        ("fast", fast),
    ):
        best = float("inf")
        for _ in range(args.repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        timings[label] = best

    per_cand = timings["exact_per_candidate"]
    batched = timings["exact_batched"]
    print("\n-- fast inference backend (graph-free fused ascent kernels) --")
    for label, best in timings.items():
        print(f"  {label:<20} {best * 1e3:8.1f} ms/neighbourhood")
    print(
        f"  fast:   {per_cand / timings['fast']:.2f}x per-candidate, "
        f"{batched / timings['fast']:.2f}x vs batched oracle "
        f"(bit-identical: {bit_identical})"
    )
    return {
        "exact_per_candidate_ms": round(per_cand * 1e3, 2),
        "exact_batched_ms": round(batched * 1e3, 2),
        "fast_ms": round(timings["fast"] * 1e3, 2),
        "fast_per_candidate_speedup": round(per_cand / timings["fast"], 2),
        "fast_vs_batched_speedup": round(batched / timings["fast"], 2),
        "fast_bit_identical": bit_identical,
    }


class _OracleKernel:
    """The kernel surface training uses, through the autodiff oracle.

    Takes ``training._live_kernel``'s arguments, so the class itself
    stands in for that seam.
    """

    def __init__(self, model, kernel=None) -> None:
        self.model = model

    def ascent(self, schedules, adjacencies, rng, gamma, max_steps):
        from repro.core.surrogate import generate_metrics_batch

        return generate_metrics_batch(
            self.model, schedules, adjacencies, rng=rng, gamma=gamma, max_steps=max_steps
        )

    def score_stack(self, metrics, schedules, adjacencies):
        return self.model.forward_batch(metrics, schedules, adjacencies).data.copy()


def training_bench(args: argparse.Namespace) -> dict:
    """Algorithm 1 on the fused kernel vs the autodiff oracle.

    Times one ``train_gon`` at the campaign defaults (GON 24x2, 6
    epochs, batch 16, 20 generation steps, on a 40-interval
    ``paper-default`` DeFog trace) as shipped -- fake samples and
    test-set metrics generated by the float64 kernel -- and with the
    ``training._live_kernel`` seam swapped for the autodiff oracle.
    Parity is part of the contract: both runs must end in equal
    weights and equal loss/MSE/confidence curves.
    """
    from repro.core import TrainingConfig, training
    from repro.experiments.calibration import collect_defog_trace
    from repro.scenarios import get_scenario

    config = get_scenario("paper-default").compile(seed=args.seed)
    trace = collect_defog_trace(config, 40)
    samples = [GONInput(s.metrics, s.schedule, s.adjacency) for s in trace.samples]
    train_config = TrainingConfig(
        epochs=6, batch_size=16, learning_rate=1e-3, generation_steps=20, seed=args.seed
    )

    def train():
        model = GONDiscriminator(np.random.default_rng(args.seed), hidden=24, n_layers=2)
        started = time.perf_counter()
        history = training.train_gon(model, samples, train_config)
        return time.perf_counter() - started, model.state_dict(), history

    def oracle():
        live_kernel = training._live_kernel
        training._live_kernel = _OracleKernel
        try:
            return train()
        finally:
            training._live_kernel = live_kernel

    # Warm-up doubles as the parity check.
    _, kernel_state, kernel_history = train()
    _, oracle_state, oracle_history = oracle()
    bit_identical = bool(
        all(np.array_equal(kernel_state[k], oracle_state[k]) for k in oracle_state)
        and kernel_history.losses == oracle_history.losses
        and kernel_history.mses == oracle_history.mses
        and kernel_history.confidences == oracle_history.confidences
    )
    assert bit_identical, "kernel-generated training diverged from the oracle"

    repeats = max(args.repeats, 3)
    kernel_s = min(train()[0] for _ in range(repeats))
    oracle_s = min(oracle()[0] for _ in range(repeats))
    speedup = oracle_s / kernel_s
    print("\n-- training (Algorithm 1, campaign defaults: GON 24x2, 6 epochs) --")
    print(f"  oracle ascents  {oracle_s * 1e3:8.1f} ms/train_gon")
    print(f"  kernel ascents  {kernel_s * 1e3:8.1f} ms/train_gon")
    print(f"  speedup: {speedup:.2f}x (bit-identical: {bit_identical})")
    return {
        "samples": len(samples),
        "oracle_ms": round(oracle_s * 1e3, 2),
        "kernel_ms": round(kernel_s * 1e3, 2),
        "training_speedup": round(speedup, 2),
        "training_bit_identical": bit_identical,
    }


def _best_of(fn, repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - started) / inner)
    return best


def run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model = GONDiscriminator(rng, hidden=args.hidden, n_layers=args.layers)
    objective = QoSObjective(0.5, 0.5)

    candidates = build_neighbourhood(args.hosts, args.leis, args.batch, rng)
    metrics = rng.uniform(0, 1, size=(args.hosts, N_M_FEATURES))
    schedule = rng.uniform(0, 1, size=(args.hosts, N_S_FEATURES))
    samples = [GONInput(metrics, schedule, candidate.adjacency()) for candidate in candidates]
    batch = len(samples)
    print(
        f"scenario: {args.hosts} hosts / {args.leis} LEIs, "
        f"GON {args.hidden}x{args.layers}, neighbourhood B={batch}, "
        f"{args.steps} ascent steps, gamma={args.gamma}"
    )

    def seed() -> list:
        return [
            seed_predict_qos(
                model, s, objective, gamma=args.gamma, max_steps=args.steps
            )
            for s in samples
        ]

    def sequential() -> list:
        return [
            predict_qos(model, s, objective, gamma=args.gamma, max_steps=args.steps)
            for s in samples
        ]

    def batched() -> list:
        return predict_qos_batch(model, samples, objective, gamma=args.gamma, max_steps=args.steps)

    # Warm-up (allocator, BLAS threads) doubles as the parity check:
    # all three paths must score the neighbourhood identically.
    seed_scores = np.array(seed())
    seq_result = sequential()
    bat_result = batched()

    seq_scores = np.array([score for score, _ in seq_result])
    bat_scores = np.array([score for score, _ in bat_result])
    np.testing.assert_allclose(
        seq_scores,
        seed_scores,
        rtol=1e-7,
        atol=1e-10,
        err_msg="current engine diverged from the seed per-candidate path",
    )
    np.testing.assert_allclose(
        bat_scores,
        seq_scores,
        rtol=1e-7,
        atol=1e-10,
        err_msg="batched neighbourhood scoring diverged from sequential",
    )

    seed_times, seq_times, bat_times = [], [], []
    for _ in range(args.repeats):
        started = time.perf_counter()
        seed()
        seed_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        sequential()
        seq_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        batched()
        bat_times.append(time.perf_counter() - started)

    seed_best = min(seed_times)
    seq_best = min(seq_times)
    bat_best = min(bat_times)
    speedup = seed_best / bat_best
    rows = [
        ("seed per-candidate", seed_best),
        ("sequential (new engine)", seq_best),
        ("batched", bat_best),
    ]
    for label, best in rows:
        print(
            f"  {label:<24} {best * 1e3:8.1f} ms/neighbourhood  "
            f"({best / batch * 1e3:6.2f} ms/candidate)"
        )
    print(
        f"  speedup: {speedup:.1f}x batched vs seed per-candidate "
        f"({seq_best / bat_best:.1f}x vs new-engine sequential; "
        f"parity max|diff| = {np.abs(bat_scores - seed_scores).max():.2e})"
    )

    flat_gemm = flat_gemm_bench(args)
    fast_backend = fast_backend_bench(args, model, samples)
    training = training_bench(args)

    payload = {
        "bench": "surrogate",
        "quick": args.quick,
        "numpy": np.__version__,
        "scenario": {
            "hosts": args.hosts,
            "leis": args.leis,
            "gon": f"{args.hidden}x{args.layers}",
            "B": batch,
            "steps": args.steps,
            "gamma": args.gamma,
        },
        "seed_per_candidate_ms": round(seed_best * 1e3, 2),
        "sequential_ms": round(seq_best * 1e3, 2),
        "batched_ms": round(bat_best * 1e3, 2),
        "speedup_batched_vs_seed": round(speedup, 2),
        "parity_max_abs_diff": float(np.abs(bat_scores - seed_scores).max()),
        "flat_gemm": flat_gemm,
        "fast_backend": fast_backend,
        "training": training,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as sink:
        json.dump(payload, sink, indent=2)
    print(f"\nwrote {args.json}")

    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required {args.min_speedup}x")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small model / fewer repeats (CI smoke)"
    )
    parser.add_argument(
        "--batch", type=int, default=24, help="neighbourhood size B (paper default 24)"
    )
    parser.add_argument("--hosts", type=int, default=16)
    parser.add_argument("--leis", type=int, default=4)
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument(
        "--steps", type=int, default=8, help="surrogate ascent steps per evaluation"
    )
    parser.add_argument("--gamma", type=float, default=1e-2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero below this speedup (0 disables)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=_DEFAULT_JSON,
        help="write machine-readable results here (default: benchmarks/out/, kept out of "
        "the working tree; CI passes an explicit path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.quick:
        args.hidden = min(args.hidden, 32)
        args.layers = min(args.layers, 2)
        args.repeats = 1
        args.steps = min(args.steps, 4)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
