"""Projected gradient ascent over a norm-ball perturbation set.

The ascent runs on a whole minibatch at once, with states stacked as
(B, d) rows, or as (M, B, d) rows for a stack of M models: each step takes
the policy outputs and dense Jacobians of all iterates in one pass, then
projects and normalizes row by row. A single run is the same computation
on one row.

The run records everything later checks need: iterates, normalized ascent
directions, unit update directions, objective values, exact inner
gradients, and the directional amplification ||J(s + delta_t) u_t||_2 at
every step, as one ``Ascent`` of stacked arrays; a single run is that
record's one row. The arrays are marked read-only, so a record is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .environments import Environment, loss, loss_grad
from .errors import ConfigError, NumericError, check_count
from .policy import PolicyParams, forward, jvp, vjp

Array = np.ndarray

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """Norm ball {delta : ||delta||_p <= epsilon}, p in {2, inf} (or "inf", as configs spell it).

    epsilon = 0 degenerates to the singleton {0}; the command-line config
    rejects that, but the API keeps it legal so vacuous cases stay testable.
    """

    p: float
    epsilon: float
    dim: int

    def __post_init__(self):
        if self.p not in (2, math.inf, "inf"):
            raise ConfigError(f"norm order must be 2 or \"inf\", got {self.p!r}", field="p")
        if not self.epsilon >= 0:
            raise ConfigError("epsilon must be >= 0", field="epsilon")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "dim", check_count(self.dim, 1, "dim"))

    def norm(self, delta: Array):
        """||delta||_p; one norm per row for stacked deltas."""
        delta = np.asarray(delta, dtype=np.float64)
        n = _safe_l2(delta) if self.p == 2.0 else np.max(np.abs(delta), axis=-1, initial=0.0)
        return float(n) if n.ndim == 0 else n


@dataclass(frozen=True)
class InnerLoopConfig:
    eta: float
    steps: int
    eps0: float = 1e-8

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError("inner step size eta must be > 0", field="eta")
        if not self.eps0 > 0:
            raise ConfigError("direction floor eps0 must be > 0", field="eps0")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "steps", check_count(self.steps, 0, "steps"))
        object.__setattr__(self, "eps0", float(self.eps0))


@dataclass(frozen=True, eq=False)
class Ascent:
    """The ascents of a batch as read-only stacked arrays; the leading axes
    are those of the states (B, or M and B), and indexing takes along them.
    One row is one run, which is what ``pga_run`` returns."""

    deltas: Array  # (..., K + 1, d) iterates, deltas[..., 0, :] == 0
    ascent: Array  # (..., K, d) normalized ascent directions
    update: Array  # (..., K, d) unit steps; zero where the iterate did not move
    moved: Array  # (..., K) whether the iterate moved
    values: Array  # (..., K + 1) objective values
    grads: Array  # (..., K + 1, d) exact inner gradients
    amps: Array  # (..., K) directional amplifications ||J u_t||

    def __getitem__(self, index) -> Ascent:
        return Ascent(*(getattr(self, f.name)[index] for f in fields(self)))

    @property
    def steps(self) -> int:
        return self.ascent.shape[-2]

    # Per-step views of one run, for two readers outside the library: the
    # acceptance tests compare ``inner_values`` with a tuple of floats, and the
    # benchmark's ``pga_run`` observer counts stalled steps in ``update_dirs``.
    # No module of the package reads them.
    @property
    def inner_values(self) -> tuple[float, ...]:
        return tuple(self.values.tolist())

    @property
    def update_dirs(self) -> tuple[Array | None, ...]:
        """The unit steps, None where the iterate did not move."""
        return tuple(v if m else None for v, m in zip(self.update, self.moved))


def _row_norms(x: Array, keepdims: bool = False) -> Array:
    """l2 norm of each row; the arithmetic of ``np.linalg.norm(x, axis=-1)``
    on real input without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def _safe_l2(x: Array) -> Array:
    """l2 norm of each row that cannot overflow on finite input."""
    m = np.max(np.abs(x), axis=-1, initial=0.0)
    ok = (m > 0.0) & np.isfinite(m)
    scale = np.where(ok, m, 1.0)[..., None]
    return np.where(ok, m * _row_norms(x / scale), m)


def project(delta, pset: PerturbationSet) -> Array:
    """Euclidean projection onto the norm ball, row by row."""
    delta = np.asarray(delta, dtype=np.float64)
    if pset.p == 2.0:
        n = _safe_l2(delta)[..., None]
        outside = n > pset.epsilon
        return np.where(outside, (delta / np.where(outside, n, 1.0)) * pset.epsilon, delta)
    return np.clip(delta, -pset.epsilon, pset.epsilon)


def ascent_direction(grad, eps0: float) -> Array:
    """grad / (||grad||_2 + eps0) row by row; strictly shorter than a unit vector.

    Where eps0 is lost in the rounding of a large norm, the denominator is
    raised by the worst-case rounding error of the norms instead, so the
    result still has a computed norm below 1.
    """
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore"):
        n = _row_norms(grad, keepdims=True)
    if not np.isfinite(n).all():
        # a finite gradient can overflow the plain norm
        n = np.where(np.isfinite(n), n, _safe_l2(grad)[..., None])
    slack = (grad.shape[-1] + 4) * _EPS
    return grad / np.maximum(n + eps0, n * (1.0 + slack))


def _check_rows(ok: Array, what: str, step: int) -> None:
    if not ok.all():
        raise NumericError(f"{what} at step {step}, sample {int(np.argmin(ok))}")


def pga_batch(
    params: PolicyParams, states, contexts, env: Environment, pset: PerturbationSet, cfg: InnerLoopConfig
) -> Ascent:
    """``pga_run`` on every row of (B, d) states and (B, q) peer contexts,
    or of (M, B, d) and (M, B, q) ones for a stack of M models.

    Each step evaluates the policy, its vjp and its jvp once for all
    iterates; a row's ascent never depends on the rows batched with it.
    Raises NumericError naming the step and the (flat) sample if an iterate,
    the objective or its gradient turns non-finite.
    """
    S = np.asarray(states, dtype=np.float64)
    A = np.asarray(contexts, dtype=np.float64)
    if pset.dim != params.in_dim or S.ndim != 2 + (params.models > 0) or S.shape[-1] != params.in_dim:
        raise ConfigError(f"states {S.shape}, policy input {params.in_dim} and perturbation dim {pset.dim} disagree")
    rows, d, K = S.shape[:-1], S.shape[-1], cfg.steps
    deltas, grads, values = np.zeros(rows + (K + 1, d)), np.empty(rows + (K + 1, d)), np.empty(rows + (K + 1,))
    ascent, update = np.empty(rows + (K, d)), np.empty(rows + (K, d))
    amps, moved = np.empty(rows + (K,)), np.empty(rows + (K,), bool)
    for t in range(K + 1):
        delta = deltas[..., t, :]
        X = S + delta
        _check_rows(np.isfinite(X).all(axis=-1), "non-finite iterate", t)
        Z = forward(params, X)
        values[..., t] = loss(env, Z, A)
        _check_rows(np.isfinite(values[..., t]), "non-finite inner objective", t)
        grad = vjp(params, X, loss_grad(env, Z, A))  # J(X)^T grad L, one Jacobian per row
        _check_rows(np.isfinite(grad).all(axis=-1), "non-finite inner gradient", t)
        grads[..., t, :] = grad
        if t == K:
            break
        u = ascent_direction(grad, cfg.eps0)
        ascent[..., t, :] = u
        amps[..., t] = _row_norms(jvp(params, X, u))
        deltas[..., t + 1, :] = project(delta + cfg.eta * grad, pset)
        step = deltas[..., t + 1, :] - delta
        moved[..., t] = np.any(step != 0.0, axis=-1)
        norms = _row_norms(step, keepdims=True)
        update[..., t, :] = step / np.where(moved[..., t, None], norms, 1.0)
    record = Ascent(deltas, ascent, update, moved, values, grads, amps)
    for f in fields(record):
        getattr(record, f.name).setflags(write=False)
    return record


def pga_run(
    params: PolicyParams,
    s,
    context,
    env: Environment,
    pset: PerturbationSet,
    cfg: InnerLoopConfig,
) -> Ascent:
    """Run K projected gradient ascent steps on delta -> L(pi(s + delta), a).

    delta_0 = 0 and delta_{t+1} = project(delta_t + eta * grad g(delta_t)).
    Deterministic; raises NumericError naming the step if the objective or
    its gradient turns non-finite. The record is ``pga_batch``'s one row.
    """
    return pga_batch(params, np.asarray(s)[None], np.asarray(context)[None], env, pset, cfg)[0]


def trajectory_records(record: Ascent) -> list[dict]:
    """One JSON-able record per iterate of one run; direction fields are
    null at the end, and ``v`` is null where the iterate did not move."""
    K = record.steps
    return [
        {
            "t": t,
            "delta": record.deltas[t].tolist(),
            "u": None if t == K else record.ascent[t].tolist(),
            "v": None if t == K or not record.moved[t] else record.update[t].tolist(),
            "g": float(record.values[t]),
            "grad_norm": float(np.linalg.norm(record.grads[t])),
            "dir_amp": None if t == K else float(record.amps[t]),
        }
        for t in range(K + 1)
    ]


def dump_trajectory(record: Ascent, fp) -> None:
    """Write one run's ascent as JSON lines."""
    for line in trajectory_records(record):
        fp.write(json.dumps(line) + "\n")
