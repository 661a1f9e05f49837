"""Sensitivity penalties: the trajectory-aligned directional penalty, a
global spectral-norm hinge baseline, and exact spectral norms.

The directional penalty averages ||J(s + delta_t) u_t||_2^2 over the
recorded ascent steps with the directions held constant: trajectories are
computed before the penalty is differentiated, so no gradient ever flows
through u_t. Spectral norms come from a dense SVD of the small state-action
Jacobian; when differentiated, the top right singular vector is held fixed
and the gradient flows only through the product J v.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .inner import Trajectory
from .policy import PolicyHandle, PolicyParams, jacobian, numpy_handle
from .tape import dot, relu, sqrt

Array = np.ndarray


@dataclass(frozen=True)
class RegularizerConfig:
    lam: float  # penalty weight
    gamma: float  # global sensitivity budget
    gamma_adv: float  # directional budget (hinge form only)
    aajr_hinge: bool = False

    def __post_init__(self):
        if not self.lam >= 0:
            raise ConfigError("penalty weight lambda must be >= 0")
        if not self.gamma > 0:
            raise ConfigError("global budget gamma must be > 0")
        if not self.gamma_adv > 0:
            raise ConfigError("directional budget gamma_adv must be > 0")


def aajr_term(handle: PolicyHandle, s, traj: Trajectory, cfg: RegularizerConfig | None = None):
    """Penalty as a tape-generic expression; 0.0 when the trajectory is empty."""
    if traj.steps == 0:
        return 0.0
    hinge = bool(cfg and cfg.aajr_hinge)
    total = None
    for delta, u in zip(traj.deltas[:-1], traj.ascent_dirs):
        amp_vec = handle.jvp(s + delta, u)
        if hinge:
            excess = relu(sqrt(dot(amp_vec, amp_vec)) - cfg.gamma_adv)
            term = excess * excess
        else:
            term = dot(amp_vec, amp_vec)
        total = term if total is None else total + term
    return total * (1.0 / traj.steps)


def aajr_penalty(params: PolicyParams, s, traj: Trajectory, cfg: RegularizerConfig | None = None) -> float:
    """Mean squared directional amplification along the recorded trajectory."""
    if traj.steps == 0:
        warnings.warn("trajectory has no ascent steps; directional penalty is 0", stacklevel=2)
        return 0.0
    return float(aajr_term(numpy_handle(params), np.asarray(s, dtype=np.float64), traj, cfg))


def _top_singular(params: PolicyParams, s):
    """Largest singular value of J(s) and its right singular vector, from a
    dense SVD of the Jacobian."""
    J = jacobian(params, s)
    if not np.all(np.isfinite(J)):
        raise NumericError("non-finite Jacobian")
    _, sigmas, vt = np.linalg.svd(J)
    return float(sigmas[0]), vt[0]


def spectral_norm(params: PolicyParams, s) -> float:
    """Exact ||J(s)||_2."""
    return _top_singular(params, s)[0]


def global_term(handle: PolicyHandle, params: PolicyParams, states, cfg: RegularizerConfig):
    """Mean hinge^2 above gamma as a tape-generic expression.

    The top right singular vector v_hat comes from an untaped SVD; the
    differentiable part is ||J v_hat|| with v_hat fixed, which by Danskin's
    theorem has the gradient of ||J||_2 wherever the top singular value is
    simple.
    """
    states = list(states)
    if not states:
        raise ConfigError("global penalty needs at least one state")
    total = None
    for s in states:
        s = np.asarray(s, dtype=np.float64)
        _, v_hat = _top_singular(params, s)
        w = handle.jvp(s, v_hat)
        excess = relu(sqrt(dot(w, w)) - cfg.gamma)
        term = excess * excess
        total = term if total is None else total + term
    return total * (1.0 / len(states))


def global_penalty(params: PolicyParams, states, cfg: RegularizerConfig) -> float:
    """Mean over states of max(0, ||J(s)||_2 - gamma)^2."""
    return float(global_term(numpy_handle(params), params, states, cfg))
