"""Minimax-training laboratory for small differentiable policies.

Trains policies against projected-gradient-ascent state shocks, compares a
trajectory-aligned directional sensitivity penalty with a global
spectral-norm budget, and numerically certifies the expressivity and
stability properties that separate the two.
"""

from .environments import Environment, loss, loss_grad, loss_hessian, loss_hessian_bound, sample
from .errors import ConfigError, NumericError
from .inner import Ascent, InnerLoopConfig, PerturbationSet, ascent_direction, pga_batch, pga_run, project
from .policy import (
    PolicyParams,
    forward,
    init_policy,
    jacobian,
    jvp,
    load_checkpoint,
    param_gradient,
    save_checkpoint,
    vjp,
)
from .regularizers import RegularizerConfig, global_penalty, spectral_norm
from .trainer import (
    GapReport,
    RunMetrics,
    TrainConfig,
    evaluate_robust_risk,
    price_of_robustness,
    train,
)
from .verification import (
    WitnessSpec,
    check_effective_smoothness,
    check_inclusion,
    check_pga_stability,
    class_witness,
    directional_curvature,
    estimate_C,
)

__version__ = "0.1.0"

__all__ = [
    "Ascent",
    "ConfigError",
    "Environment",
    "GapReport",
    "InnerLoopConfig",
    "NumericError",
    "PerturbationSet",
    "PolicyParams",
    "RegularizerConfig",
    "RunMetrics",
    "TrainConfig",
    "WitnessSpec",
    "ascent_direction",
    "check_effective_smoothness",
    "check_inclusion",
    "check_pga_stability",
    "class_witness",
    "directional_curvature",
    "estimate_C",
    "evaluate_robust_risk",
    "forward",
    "global_penalty",
    "init_policy",
    "jacobian",
    "jvp",
    "load_checkpoint",
    "loss",
    "loss_grad",
    "loss_hessian",
    "loss_hessian_bound",
    "param_gradient",
    "pga_batch",
    "pga_run",
    "price_of_robustness",
    "project",
    "sample",
    "save_checkpoint",
    "spectral_norm",
    "train",
    "vjp",
]
