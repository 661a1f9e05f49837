"""Projected gradient ascent over a norm-ball perturbation set.

The ascent runs on a whole minibatch at once, with states stacked as
(B, d) rows, or as (M, B, d) rows for a stack of M models: each step takes
the policy outputs and dense Jacobians of all iterates in one pass, then
projects and normalizes row by row. A single run is the same computation
on one row.

One loop serves two readers. The full record, which ``pga_batch`` and
``pga_run`` return and every later check reads, holds the iterates,
normalized ascent directions, unit update directions, objective values,
exact inner gradients, and the directional amplification
||J(s + delta_t) u_t||_2 at every step, as one ``Ascent`` of stacked
arrays; a single run is that record's one row. The training record, which
every outer step asks for, diagnostics or not, holds only the iterates
and ascent directions; its other fields are None, and it skips
the amplifications, the last iterate's objective and gradient, and the
separate forward pass of each iterate; a nominal model's has zero steps.
The arrays are marked read-only, so a record is immutable after
construction and safe to share across threads. The shapes are checked at
the public entries, ``pga_batch`` and through it ``pga_run``, not per call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .environments import Environment, loss, loss_grad
from .errors import ConfigError, NumericError, check_count, check_positive
from .policy import PolicyParams, _layer_pass, forward, jvp, vjp
from .tape import matvec

Array = np.ndarray

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
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
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "epsilon", check_positive(self.epsilon, "epsilon", "epsilon", allow_zero=True))
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
        object.__setattr__(self, "eta", check_positive(self.eta, "eta", "inner step size eta"))
        object.__setattr__(self, "steps", check_count(self.steps, 0, "steps"))
        object.__setattr__(self, "eps0", check_positive(self.eps0, "eps0", "direction floor eps0"))


@dataclass(frozen=True, eq=False)
class Ascent:
    """The ascents of a batch as read-only stacked arrays; the leading axes
    are those of the states (B, or M and B), and indexing takes along them.
    One row is one run, which is what ``pga_run`` returns. A training
    record holds only ``deltas`` and ``ascent``; its other fields are None."""

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
    or of (M, B, d) and (M, B, q) ones for a stack of M models; the full
    record. The outer step, with or without diagnostics, asks ``_ascend``
    for the training record instead.

    Each step evaluates the policy, its vjp and its jvp once for all
    iterates; a row's ascent never depends on the rows batched with it.
    Raises ConfigError before any pass if the shapes disagree, and
    NumericError naming the step and the (flat) sample if an iterate, the
    objective or its gradient turns non-finite.
    """
    S = np.asarray(states, dtype=np.float64)
    if pset.dim != params.in_dim or S.ndim != 2 + (params.models > 0) or S.shape[-1] != params.in_dim:
        raise ConfigError(f"states {S.shape}, policy input {params.in_dim} and perturbation dim {pset.dim} disagree")
    return _ascend(params, S, np.asarray(contexts, dtype=np.float64), env, pset, cfg, full=True)


def _ascend(params: PolicyParams, S: Array, A: Array, env, pset, cfg, full: bool, eta=None, start=None) -> Ascent:
    """The one ascent loop, on float64 arrays whose shapes an entry checked.
    ``full=True`` gives ``pga_batch``'s full record through the public
    ``forward``, ``vjp`` and ``jvp``. ``full=False`` gives the training
    record: ``deltas`` and ``ascent``, the two fields the outer update reads,
    bit for bit, and None for the rest. Each of its iterates before the last
    takes its outputs and Jacobians from one layer pass, and the last iterate
    is only checked finite. delta_0 = 0 reads ``start``, the caller's
    ``_layer_pass(params, S)``, if given. ``eta``, (M, 1, 1) for a stack of M
    models, gives each model its own step for ``cfg.eta``."""
    rows, d, K = S.shape[:-1], S.shape[-1], cfg.steps
    deltas, ascent = np.zeros(rows + (K + 1, d)), np.empty(rows + (K, d))
    values = grads = update = moved = amps = None
    if full:
        grads, values = np.empty(rows + (K + 1, d)), np.empty(rows + (K + 1,))
        update, moved, amps = np.empty(rows + (K, d)), np.empty(rows + (K,), bool), np.empty(rows + (K,))
    for t in range(K + 1):
        delta = deltas[..., t, :]
        X = S + delta
        _check_rows(np.isfinite(X).all(axis=-1), "non-finite iterate", t)
        if t == K and not full:
            break  # training reads the last iterate only through the outer objective
        Z, J = (forward(params, X), None) if full else start if t == 0 and start is not None else _layer_pass(params, X)
        value = loss(env, Z, A)
        _check_rows(np.isfinite(value), "non-finite inner objective", t)
        w = loss_grad(env, Z, A)
        grad = vjp(params, X, w) if full else matvec(np.swapaxes(J, -1, -2), w)  # J(X)^T grad L, one per row
        _check_rows(np.isfinite(grad).all(axis=-1), "non-finite inner gradient", t)
        if full:
            values[..., t], grads[..., t, :] = value, grad
        if t == K:
            break
        u = ascent_direction(grad, cfg.eps0)
        ascent[..., t, :] = u
        deltas[..., t + 1, :] = project(delta + (cfg.eta if eta is None else eta) * grad, pset)
        if full:
            amps[..., t] = _row_norms(jvp(params, X, u))
            step = deltas[..., t + 1, :] - delta
            moved[..., t] = np.any(step != 0.0, axis=-1)
            norms = _row_norms(step, keepdims=True)
            update[..., t, :] = step / np.where(moved[..., t, None], norms, 1.0)
    record = Ascent(deltas, ascent, update, moved, values, grads, amps)
    for f in fields(record):
        if getattr(record, f.name) is not None:
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
