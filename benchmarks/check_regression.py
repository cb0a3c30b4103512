"""CI bench regression gate: compare fresh BENCH_*.json to a baseline.

The benches (``bench_surrogate.py``, ``bench_campaign.py``) emit
machine-readable JSON.  This gate keeps two classes of regression out
of main without turning CI into a flaky timing oracle:

* **Speedup collapse** -- every numeric key containing ``speedup`` is
  a ratio of two timings measured on the *same* box in the *same* job,
  so it is far more stable than raw wall-clock.  The gate fails only
  when a fresh ratio drops below ``baseline / tolerance`` (default
  tolerance 2.0, i.e. a >2x relative slowdown) -- generous enough for
  noisy CI runners, tight enough to catch "the batched path silently
  became the slow path".
* **Parity breakage** -- boolean keys such as ``bit_identical_*`` or
  ``*_equal_*`` assert exactness contracts (fleet == serial records,
  batched == sequential scores).  Any ``false`` in a fresh result
  fails immediately; there is no tolerance on correctness.
* **Observability cost creep** -- numeric keys containing
  ``overhead_ratio`` (the telemetry section of ``bench_campaign.py``)
  are enabled/disabled wall-clock ratios gated against an **absolute**
  cap of ``1.10``: instrumentation that costs more than 10% of a
  campaign's runtime fails regardless of what the baseline recorded --
  "low-overhead" is a contract, not a trajectory.

Coverage is part of the contract: a gated key present in the baseline
but missing from a fresh result means a bench section silently stopped
running, and a fresh key absent from the baseline means a new section
landed without being gated.  Both are **hard errors**, as is a fresh
result file the baseline has never seen -- additive bench changes must
ship a regenerated ``BENCH_baseline.json`` (``--write-baseline``) in
the same PR.

Usage::

    # gate (CI): compare fresh results against the committed baseline
    python benchmarks/check_regression.py --baseline BENCH_baseline.json \
        BENCH_surrogate.json BENCH_campaign.json

    # refresh the committed baseline from fresh quick-mode results
    python benchmarks/check_regression.py --baseline BENCH_baseline.json \
        --write-baseline BENCH_surrogate.json BENCH_campaign.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

DEFAULT_TOLERANCE = 2.0

#: Numeric keys matching this substring are tracked speedup ratios.
SPEEDUP_MARKER = "speedup"
#: Numeric keys matching this substring are instrumentation-cost
#: ratios (enabled / disabled wall-clock), capped absolutely.
OVERHEAD_MARKER = "overhead_ratio"
#: Hard ceiling on any ``*overhead_ratio*`` key: telemetry costing
#: more than 10% of the uninstrumented runtime fails the gate.
MAX_OVERHEAD_RATIO = 1.10
#: Boolean keys matching any of these substrings are parity contracts.
PARITY_MARKERS = ("bit_identical", "identical", "parity", "_equal")


def _walk(payload, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield ``(dotted.path, leaf)`` for every leaf of a JSON tree."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _walk(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _walk(value, f"{prefix}{index}.")
    else:
        yield prefix.rstrip("."), payload


def extract(payload) -> Dict[str, Dict[str, object]]:
    """Pull the gated values out of one bench result tree."""
    speedups: Dict[str, float] = {}
    parity: Dict[str, bool] = {}
    overheads: Dict[str, float] = {}
    for path, value in _walk(payload):
        key = path.rsplit(".", 1)[-1].lower()
        if isinstance(value, bool):
            if any(marker in key for marker in PARITY_MARKERS):
                parity[path] = value
        elif isinstance(value, (int, float)):
            if OVERHEAD_MARKER in key:
                overheads[path] = float(value)
            elif SPEEDUP_MARKER in key:
                speedups[path] = float(value)
    return {"speedups": speedups, "parity": parity, "overheads": overheads}


def _load(path: str):
    """One result tree: a JSON file, or a campaign store database.

    Store files reuse ``compare_records.load_payload`` (same directory,
    stdlib-only) so the gate can walk a ``--store sqlite`` campaign's
    telemetry/records exactly like a ``--record-json`` dump.
    """
    with open(path, "rb") as probe:
        if probe.read(16) == b"SQLite format 3\x00":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from compare_records import load_payload

            return load_payload(path)
    with open(path) as source:
        return json.load(source)


def check_file(
    name: str,
    fresh: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
    tolerance: float,
) -> List[str]:
    """Failure messages for one bench result (empty means pass)."""
    failures: List[str] = []
    for path, value in sorted(fresh["parity"].items()):
        if not value:
            failures.append(f"{name}: parity contract {path} is false")
    base_speedups = baseline.get("speedups", {})
    for path in sorted(set(fresh["speedups"]) - set(base_speedups)):
        failures.append(
            f"{name}: {path} has no baseline entry -- an ungated bench "
            "section; regenerate BENCH_baseline.json with --write-baseline"
        )
    for path in sorted(set(base_speedups) - set(fresh["speedups"])):
        failures.append(
            f"{name}: baseline key {path} missing from the fresh result "
            "-- a bench section silently stopped running"
        )
    for path in sorted(set(baseline.get("parity", {})) - set(fresh["parity"])):
        failures.append(
            f"{name}: baseline parity contract {path} missing from the "
            "fresh result -- a bench assertion silently stopped running"
        )
    base_overheads = baseline.get("overheads", {})
    fresh_overheads = fresh.get("overheads", {})
    for path in sorted(set(base_overheads) - set(fresh_overheads)):
        failures.append(
            f"{name}: baseline overhead gate {path} missing from the "
            "fresh result -- the telemetry bench silently stopped running"
        )
    for path, fresh_value in sorted(fresh_overheads.items()):
        status = "ok" if fresh_value <= MAX_OVERHEAD_RATIO else "FAIL"
        print(
            f"  {status}: {name}: {path} = {fresh_value:.3f}x "
            f"(absolute cap {MAX_OVERHEAD_RATIO:.2f}x)"
        )
        if fresh_value > MAX_OVERHEAD_RATIO:
            failures.append(
                f"{name}: {path} = {fresh_value:.3f}x exceeds the "
                f"{MAX_OVERHEAD_RATIO:.2f}x instrumentation-cost cap"
            )
    for path, fresh_value in sorted(fresh["speedups"].items()):
        base_value = base_speedups.get(path)
        if base_value is None:
            continue  # already a failure above
        floor = base_value / tolerance
        status = "ok" if fresh_value >= floor else "FAIL"
        print(
            f"  {status}: {name}: {path} = {fresh_value:.2f}x "
            f"(baseline {base_value:.2f}x, floor {floor:.2f}x)"
        )
        if fresh_value < floor:
            failures.append(
                f"{name}: {path} regressed to {fresh_value:.2f}x, "
                f"more than {tolerance:.1f}x below baseline {base_value:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        nargs="*",
        default=["BENCH_surrogate.json", "BENCH_campaign.json"],
        help="fresh bench result files (default: the two CI smoke outputs)",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_baseline.json",
        help="committed baseline file (default: BENCH_baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative slowdown allowed before failing "
        "(0 = use the baseline file's own tolerance, falling back to 2.0)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the fresh results instead of gating",
    )
    args = parser.parse_args(argv)

    paths = list(args.results)
    if args.write_baseline:
        # Baseline refresh tolerates missing files; the gate does not
        # (a missing result means a bench silently stopped running).
        paths = [path for path in paths if os.path.exists(path)]
    fresh_by_name = {os.path.basename(path): extract(_load(path)) for path in paths}

    if args.write_baseline:
        payload = {
            "_comment": (
                "Quick-mode bench baseline for the CI regression gate; "
                "regenerate with benchmarks/check_regression.py "
                "--write-baseline after intentional perf changes."
            ),
            "tolerance": args.tolerance or DEFAULT_TOLERANCE,
            "benches": fresh_by_name,
        }
        with open(args.baseline, "w") as sink:
            json.dump(payload, sink, indent=2)
        print(f"wrote {args.baseline} from {sorted(fresh_by_name)}")
        return 0

    baseline = _load(args.baseline)
    tolerance = args.tolerance or float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    benches = baseline.get("benches", {})

    print(f"-- bench regression gate (tolerance {tolerance:.1f}x) --")
    failures: List[str] = []
    for name, fresh in sorted(fresh_by_name.items()):
        base = benches.get(name)
        if base is None:
            failures.append(
                f"{name}: not in the baseline -- a new bench output must "
                "ship a regenerated BENCH_baseline.json (--write-baseline)"
            )
            continue
        failures.extend(check_file(name, fresh, base, tolerance))
    for name in sorted(set(benches) - set(fresh_by_name)):
        failures.append(
            f"{name}: in the baseline but absent from this gate run -- "
            "a bench silently stopped running (or wasn't passed here)"
        )

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no speedup regression beyond tolerance, all parity holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
