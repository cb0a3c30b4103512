"""Fig. 6 -- sensitivity analysis (§V-E).

Three sweeps, each reporting the paper's four series (prediction MSE,
scheduling/decision time, energy, SLO violation rate):

(a) **learning rate** gamma of the eq.-1 ascent, over
    {1e-5, 1e-4, 1e-3, 1e-2, 1e-1}.  Every gamma runs the same
    fixed ``surrogate_steps`` Adam steps, so decision time does not
    depend on gamma: too-small gammas barely move ``M`` off its warm
    start, too-large ones overshoot (MSE/QoS up);
(b) **memory footprint** via the GON layer count -- deeper models
    predict better but generate slower (the paper's 0.25-5 GB axis);
(c) **tabu list size** over {5, 10, 50, 100, 500}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from ..config import ExperimentConfig, ci_scale
from ..core import CAROL, CAROLConfig, GONDiscriminator, TrainingConfig, evaluate, train_gon
from .calibration import TrainedAssets, prepare_assets
from .report import format_table
from .runner import run_experiment

__all__ = [
    "Fig6Config",
    "SweepPoint",
    "run_learning_rate_sweep",
    "run_memory_sweep",
    "run_tabu_sweep",
    "format_sweep",
]

GAMMA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
LAYER_GRID = (1, 2, 3, 4)
TABU_GRID = (5, 10, 50, 100, 500)


@dataclass
class Fig6Config:
    base: ExperimentConfig = field(default_factory=lambda: ci_scale())
    eval_intervals: int = 15
    trace_intervals: int = 120
    gon_hidden: int = 48
    gon_layers: int = 3


@dataclass
class SweepPoint:
    """One x-axis point of a Fig. 6 panel."""

    parameter: float
    mse: float
    decision_time_s: float
    energy_kwh: float
    slo_violation_rate: float
    memory_mb: float = 0.0

    def row(self) -> tuple:
        return (
            self.parameter,
            self.mse,
            self.decision_time_s,
            self.energy_kwh,
            self.slo_violation_rate,
            self.memory_mb,
        )


def _evaluate_point(
    assets: TrainedAssets,
    config: Fig6Config,
    carol_config: CAROLConfig,
    model: Optional[GONDiscriminator] = None,
) -> SweepPoint:
    """Run CAROL briefly and compute the panel metrics."""
    model = model or assets.fresh_gon()
    test_samples = assets.samples[-20:]
    mse, _conf = evaluate(
        model,
        test_samples,
        gamma=carol_config.gamma,
        steps=carol_config.surrogate_steps,
    )

    base = replace(assets_config(config), n_intervals=config.eval_intervals)
    carol = CAROL(model, base.alpha, base.beta, carol_config)
    result = run_experiment(carol, base)
    summary = result.summary()
    return SweepPoint(
        parameter=0.0,
        mse=mse,
        decision_time_s=summary["decision_time_s"],
        energy_kwh=summary["energy_kwh"],
        slo_violation_rate=summary["slo_violation_rate"],
        memory_mb=model.footprint_bytes() / 1024 ** 2,
    )


def assets_config(config: Fig6Config) -> ExperimentConfig:
    return config.base


def run_learning_rate_sweep(
    config: Optional[Fig6Config] = None,
    assets: Optional[TrainedAssets] = None,
    grid: Sequence[float] = GAMMA_GRID,
) -> List[SweepPoint]:
    """Fig. 6(a): sweep the eq.-1 step size gamma."""
    config = config or Fig6Config()
    assets = assets or prepare_assets(
        config.base,
        trace_intervals=config.trace_intervals,
        gon_hidden=config.gon_hidden,
        gon_layers=config.gon_layers,
    )
    points = []
    for gamma in grid:
        carol_config = CAROLConfig(gamma=gamma, seed=config.base.seed)
        point = _evaluate_point(assets, config, carol_config)
        point.parameter = gamma
        points.append(point)
    return points


def run_memory_sweep(
    config: Optional[Fig6Config] = None,
    grid: Sequence[int] = LAYER_GRID,
) -> List[SweepPoint]:
    """Fig. 6(b): sweep the GON depth (the memory-footprint axis)."""
    config = config or Fig6Config()
    # The trace is shared; each point trains its own GON depth.
    assets = prepare_assets(
        config.base,
        trace_intervals=config.trace_intervals,
        gon_hidden=config.gon_hidden,
        gon_layers=config.gon_layers,
    )
    points = []
    for layers in grid:
        gon = GONDiscriminator(
            np.random.default_rng(config.base.seed),
            hidden=config.gon_hidden,
            n_layers=layers,
        )
        training = TrainingConfig(
            epochs=6, batch_size=16, learning_rate=1e-3, seed=config.base.seed
        )
        train_gon(gon, assets.samples, training)
        carol_config = CAROLConfig(seed=config.base.seed)
        point = _evaluate_point(assets, config, carol_config, model=gon)
        point.parameter = layers
        points.append(point)
    return points


def run_tabu_sweep(
    config: Optional[Fig6Config] = None,
    assets: Optional[TrainedAssets] = None,
    grid: Sequence[int] = TABU_GRID,
) -> List[SweepPoint]:
    """Fig. 6(c): sweep the tabu list size L."""
    config = config or Fig6Config()
    assets = assets or prepare_assets(
        config.base,
        trace_intervals=config.trace_intervals,
        gon_hidden=config.gon_hidden,
        gon_layers=config.gon_layers,
    )
    points = []
    for tabu_size in grid:
        carol_config = CAROLConfig(tabu_size=tabu_size, seed=config.base.seed)
        point = _evaluate_point(assets, config, carol_config)
        point.parameter = tabu_size
        points.append(point)
    return points


def format_sweep(
    title: str, parameter_label: str, points: Sequence[SweepPoint]
) -> str:
    return format_table(
        headers=(
            parameter_label,
            "MSE",
            "decision time (s)",
            "energy (kWh)",
            "SLO violation",
            "model memory (MB)",
        ),
        rows=[p.row() for p in points],
        title=title,
    )
