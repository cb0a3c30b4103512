"""One campaign in a fresh interpreter: the unit the benchmark times.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/child.py SPEC_JSON OUT_JSON

``SPEC_JSON`` holds ``{"config": {CampaignConfig fields},
"trace_dir": str | null, "fail_cell": int | null}``.  The child runs
the grid through the public library API -- ``CampaignConfig`` ->
``prepare_campaign_assets`` (shared-asset grids only, as
``run_campaign`` itself would) -> ``run_campaign`` -- and writes its
milestones (``time.monotonic``, comparable across processes), records
and the campaign telemetry to ``OUT_JSON``.  With ``trace_dir`` set the
layer wrappers of :mod:`tracer` are installed after the imports and
before any worker is forked.  ``fail_cell`` makes the worker that runs
that cell die abruptly (``os._exit``): the benchmark's own tests use it
to check that a crashed worker is counted as failed cells.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _inject_failure(campaign_module, fleet_module, run_index: int) -> None:
    original = campaign_module.run_cell

    def run_cell(task, model_factory):
        if task.run_index == run_index:
            os._exit(70)
        return original(task, model_factory)

    campaign_module.run_cell = run_cell
    if fleet_module is not None:
        fleet_module.run_cell = run_cell


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    fields = dict(spec["config"])
    fleet = fields.get("mode") == "fleet"

    from repro.experiments import campaign

    fleet_module = None
    if fleet:
        # run_campaign imports this lazily; importing it here keeps the
        # whole import cost inside the import phase for every mode.
        from repro.experiments import fleet as fleet_module
    t_imported = time.monotonic()

    tracer = None
    if spec.get("trace_dir"):
        import tracer as tracing  # the script's own directory is on sys.path

        tracer = tracing.install(spec["trace_dir"], fleet=fleet)
    if spec.get("fail_cell") is not None:
        _inject_failure(campaign, fleet_module, int(spec["fail_cell"]))

    for key in ("scenarios", "models"):
        fields[key] = tuple(fields[key])
    fields["carol_overrides"] = tuple(
        tuple(pair) for pair in fields.get("carol_overrides", ())
    )
    config = campaign.CampaignConfig(**fields)
    assets = (
        campaign.prepare_campaign_assets(config) if config.shared_assets else None
    )
    t_setup = time.monotonic()
    result = campaign.run_campaign(config, prepared_assets=assets)
    t_returned = time.monotonic()

    records = []
    for record in result.records:
        records.append({
            "scenario": record.scenario,
            "model": record.model,
            "seed_index": record.seed_index,
            "seed": record.seed,
            # repr keeps every bit of the float in the digest.
            "metrics": {k: repr(v) for k, v in sorted(record.metrics.items())},
            "decision_digest": record.diagnostics.get("decision_digest"),
        })
    if tracer is not None:
        tracer.flush()
    payload = {
        "pid": os.getpid(),
        "t_start": T_START,
        "t_imported": t_imported,
        "t_setup": t_setup,
        "t_returned": t_returned,
        "records": records,
        "telemetry": result.telemetry,
        "missing_targets": tracer.missing if tracer is not None else [],
    }
    payload["t_reported"] = time.monotonic()
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
