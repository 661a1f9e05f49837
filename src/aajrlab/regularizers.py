"""Sensitivity penalties: the trajectory-aligned directional penalty, a
global spectral-norm hinge baseline, exact spectral norms, and the two
constraint levels a batch's ascents reach.

The directional penalty averages ||J(s + delta_t) u_t||_2^2 over the
recorded ascent steps with the directions held constant: the ascents are
run before the penalty is differentiated, so no gradient ever flows
through u_t. Spectral norms come from a dense SVD of the small state-action
Jacobians that ``top_singular`` is given; when differentiated, the top
right singular vector is held fixed and the gradient flows only through J v.
``constraint_levels`` reads the directional amplifications and the largest
spectral norm over every visited state off an ascent record its caller ran:
the one measurement the inclusion certificate and the sweep's budget
matching read. It bounds ||J||_2 cheaply at every visited state and takes
an SVD only where the bound can reach the largest norm, so the sup is still
bit for bit the max of ``spectral_norm`` over every visited state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, check_positive
from .inner import Ascent
from .policy import PolicyHandle, PolicyParams, jacobian
from .tape import dot, relu, sqrt

Array = np.ndarray


@dataclass(frozen=True)
class RegularizerConfig:
    lam: float  # penalty weight; the config key is "lambda"
    gamma: float  # global sensitivity budget
    gamma_adv: float  # directional budget (hinge form only)
    aajr_hinge: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lam", check_positive(self.lam, "lambda", "penalty weight lambda", allow_zero=True))
        object.__setattr__(self, "gamma", check_positive(self.gamma, "gamma", "global budget gamma"))
        gamma_adv = check_positive(self.gamma_adv, "gamma_adv", "directional budget gamma_adv")
        object.__setattr__(self, "gamma_adv", gamma_adv)


def _hinge_sq(w, budget: float):
    """Mean over the (N, m) rows of w of max(0, ||row||_2 - budget)^2,
    tape-generic; one mean per model for (M, N, m) rows of a model stack."""
    excess = relu(sqrt((w * w) @ np.ones(w.shape[-1])) - budget)
    return dot(excess, excess, -1) * (1.0 / w.shape[-2])


def aajr_rows(handle: PolicyHandle, states, record: Ascent):
    """The rows J(s + delta_t) u_t of every ascent step in ``record`` from
    (B, d) or (M, B, d) states, tape-generic: (..., B * K, m), from one
    policy pass over the rows (s + delta_t, u_t)."""
    S = np.asarray(states, dtype=np.float64)
    rows = S.shape[:-2] + (-1, S.shape[-1])  # every step of every sample, per model
    X = S[..., None, :] + record.deltas[..., :-1, :]
    return handle.jvp(X.reshape(rows), record.ascent.reshape(rows))


def aajr_penalty(rows, cfg: RegularizerConfig | None = None):
    """The directional penalty of ``aajr_rows``, tape-generic: the mean of
    ||row||^2, or the mean hinge^2 above ``cfg.gamma_adv`` with
    ``cfg.aajr_hinge``; one per model of a stack, 0.0 without steps."""
    if rows.shape[-2] == 0:
        return 0.0
    if cfg is not None and cfg.aajr_hinge:
        return _hinge_sq(rows, cfg.gamma_adv)
    return dot(rows, rows, (-2, -1)) * (1.0 / rows.shape[-2])


def top_singular(J):
    """Largest singular value and its right singular vector of a dense
    Jacobian, or of each of a stack, from one SVD each; it takes Jacobians,
    so the outer step passes those of its one layer pass at delta = 0."""
    if not np.all(np.isfinite(J)):
        raise NumericError("non-finite Jacobian")
    _, sigmas, vt = np.linalg.svd(J)
    return sigmas[..., 0], vt[..., 0, :]


def spectral_norm(params: PolicyParams, s):
    """Exact ||J(s)||_2, ``top_singular`` of ``jacobian``; one per row of (B, in_dim) stacked states."""
    sigma = top_singular(jacobian(params, s))[0]
    return float(sigma) if sigma.ndim == 0 else sigma


# a row is dropped only when its bound is below the running sup by far more than the bound's rounding
_SUP_SLACK = 1e-9


def _norm_bound(J):
    """u >= ||J||_2 up to rounding, and u <= min(m, n)^(1/16) ||J||_2, for each of a stack of Jacobians:
    u = s ||(G^T G)^4||_F^(1/8) for G = J / s and s = max |J_ij|, which cannot overflow; 0 for a zero J."""
    s = np.max(np.abs(J), axis=(-2, -1))
    G = J / np.where(s > 0, s, 1.0)[..., None, None]
    P = np.linalg.matrix_power(np.swapaxes(G, -1, -2) @ G, 4)
    return s * np.sum(P * P, axis=(-2, -1)) ** (1 / 16)


def constraint_levels(params: PolicyParams, states, record: Ascent):
    """The constraint levels of ``record``, the full ``pga_batch`` record of
    the ascents from (B, d) or a stack's (M, B, d) states: each step's
    directional amplification ||J(s + delta_t) u_t||, (..., B, K), and the
    largest exact spectral norm over every visited state s + delta_t, (...).
    Only the rows whose ``_norm_bound`` can reach the running sup take an SVD."""
    S = np.asarray(states, dtype=np.float64)
    sup = np.zeros(S.shape[:-2]).reshape(-1)
    # one iterate at a time: the Jacobians of every visited state at once would hold K + 1 times the memory
    for t in range(record.steps + 1):
        J = jacobian(params, S + record.deltas[..., t, :])
        J = J.reshape(sup.shape + J.shape[-3:])  # (models, B, m, n), one model for a lone policy
        if not np.all(np.isfinite(J)):
            raise NumericError("non-finite Jacobian")
        u, models = _norm_bound(J), np.arange(len(sup))
        top = np.argmax(u, axis=-1)
        sup = np.maximum(sup, top_singular(J[models, top])[0])
        rest = u > sup[:, None] * (1.0 - _SUP_SLACK)
        rest[models, top] = False
        if rest.any():
            np.maximum.at(sup, np.nonzero(rest)[0], top_singular(J[rest])[0])
    return record.amps, sup.reshape(S.shape[:-2])


def global_term(handle: PolicyHandle, states, v_hat, cfg: RegularizerConfig):
    """Mean hinge^2 above gamma as a tape-generic expression.

    The top right singular vectors v_hat come from ``top_singular``; the
    differentiable part is ||J v_hat|| with v_hat fixed, which by Danskin's
    theorem has the gradient of ||J||_2 wherever the top singular value is
    simple.
    """
    return _hinge_sq(handle.jvp(states, v_hat), cfg.gamma)


def global_penalty(params: PolicyParams, states, cfg: RegularizerConfig, sigmas=None):
    """Mean over states of max(0, ||J(s)||_2 - gamma)^2, one per model of a
    stack; ``sigmas``, if given, are the norms ``top_singular`` already took."""
    if sigmas is None:
        states = np.asarray(list(states), dtype=np.float64)
        if not len(states):
            raise ConfigError("global penalty needs at least one state")
        sigmas = spectral_norm(params, states)
    return np.mean(np.maximum(sigmas - cfg.gamma, 0.0) ** 2, axis=-1)
