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
from .inner import Ascent, Trajectory
from .policy import PolicyHandle, PolicyParams, jacobian, numpy_handle
from .tape import dot, relu, sqrt

Array = np.ndarray


@dataclass(frozen=True)
class RegularizerConfig:
    lam: float  # penalty weight; the config key is "lambda"
    gamma: float  # global sensitivity budget
    gamma_adv: float  # directional budget (hinge form only)
    aajr_hinge: bool = False

    def __post_init__(self):
        if not self.lam >= 0:
            raise ConfigError("penalty weight lambda must be >= 0", field="lambda")
        if not self.gamma > 0:
            raise ConfigError("global budget gamma must be > 0", field="gamma")
        if not self.gamma_adv > 0:
            raise ConfigError("directional budget gamma_adv must be > 0", field="gamma_adv")


def _hinge_sq(w, budget: float):
    """Mean over the rows of w of max(0, ||row||_2 - budget)^2, tape-generic;
    one mean per model for (M, N, m) rows of a model stack."""
    excess = relu(sqrt((w * w) @ np.ones(w.shape[-1])) - budget)
    return dot(excess, excess, -1 if len(w.shape) == 3 else None) * (1.0 / w.shape[-2])


def _aajr_mean(handle: PolicyHandle, X, U, cfg: RegularizerConfig | None):
    """Mean penalty over rows (s + delta_t, u_t), from one policy pass; one
    mean per model for (M, N, d) rows of a model stack."""
    amp = handle.jvp(X, U)
    if cfg is not None and cfg.aajr_hinge:
        return _hinge_sq(amp, cfg.gamma_adv)
    return dot(amp, amp, (-2, -1) if len(amp.shape) == 3 else None) * (1.0 / amp.shape[-2])


def aajr_batch_term(handle: PolicyHandle, states, record: Ascent, cfg: RegularizerConfig | None = None):
    """Mean penalty over every ascent step of a batch, as a tape-generic
    expression, for the (B, d) or (M, B, d) states the ascents in ``record``
    started from; 0.0 when the ascents have no steps."""
    S = np.asarray(states, dtype=np.float64)
    if record.ascent.shape[-2] == 0:
        return 0.0
    rows = S.shape[:-2] + (-1, S.shape[-1])  # every step of every sample, per model
    X = S[..., None, :] + record.deltas[..., :-1, :]
    return _aajr_mean(handle, X.reshape(rows), record.ascent.reshape(rows), cfg)


def aajr_penalty(params: PolicyParams, s, traj: Trajectory, cfg: RegularizerConfig | None = None) -> float:
    """Mean squared directional amplification along the recorded trajectory."""
    if traj.steps == 0:
        warnings.warn("trajectory has no ascent steps; directional penalty is 0", stacklevel=2)
        return 0.0
    X = np.asarray(s, dtype=np.float64) + np.array(traj.deltas[:-1])
    return float(_aajr_mean(numpy_handle(params), X, np.array(traj.ascent_dirs), cfg))


def top_singular(params: PolicyParams, states):
    """Largest singular value of J and its right singular vector at a state,
    or at every row of stacked states, from one dense SVD per Jacobian."""
    J = jacobian(params, states)
    if not np.all(np.isfinite(J)):
        raise NumericError("non-finite Jacobian")
    _, sigmas, vt = np.linalg.svd(J)
    return sigmas[..., 0], vt[..., 0, :]


def spectral_norm(params: PolicyParams, s):
    """Exact ||J(s)||_2; one value per row for (B, in_dim) stacked states."""
    sigma = top_singular(params, s)[0]
    return float(sigma) if sigma.ndim == 0 else sigma


def _stacked(states) -> Array:
    states = np.asarray(list(states), dtype=np.float64)
    if not len(states):
        raise ConfigError("global penalty needs at least one state")
    return states


def global_term(handle: PolicyHandle, params: PolicyParams, states, cfg: RegularizerConfig, v_hat=None):
    """Mean hinge^2 above gamma as a tape-generic expression.

    The top right singular vectors v_hat come from an untaped SVD, unless
    the caller already has them from ``top_singular``; the differentiable
    part is ||J v_hat|| with v_hat fixed, which by Danskin's theorem has the
    gradient of ||J||_2 wherever the top singular value is simple.
    """
    states = _stacked(states)
    if v_hat is None:
        v_hat = top_singular(params, states)[1]
    return _hinge_sq(handle.jvp(states, v_hat), cfg.gamma)


def global_penalty(params: PolicyParams, states, cfg: RegularizerConfig, sigmas=None) -> float:
    """Mean over states of max(0, ||J(s)||_2 - gamma)^2; ``sigmas``, if
    given, are those spectral norms already taken by ``top_singular``."""
    if sigmas is None:
        sigmas = top_singular(params, _stacked(states))[0]
    return float(np.mean(np.maximum(sigmas - cfg.gamma, 0.0) ** 2))
