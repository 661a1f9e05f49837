"""Synthetic congestion losses with analytically known smoothness constants.

Two loss families over the action z and the observable peer demand a:

* ``quadratic_congestion``:  L = 1/2 ||z + A a - c||^2, Hessian = I, so the
  gradient is 1-Lipschitz exactly.
* ``softplus_congestion``:   L = sum_j softplus(beta * (z + A a - c)_j),
  diagonal Hessian bounded by beta^2 / 4.

An optional orthogonal projector replaces the quadratic residual with its
projection, which confines loss gradients to a chosen subspace (used by the
expressivity witness checks). The one sampler, ``draws``, is seeded and
deterministic, and ``sample`` is its one-row case. In ``mirror`` mode the
peer demand equals the drawn state, which makes the task state-dependent
and lets sensitivity budgets actually bind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count, check_positive
from .tape import dot, matvec, sigmoid, softplus, vsum

Array = np.ndarray

KINDS = ("quadratic_congestion", "softplus_congestion")
PEER_MODES = ("independent", "mirror")


@dataclass(frozen=True, eq=False)
class Environment:
    kind: str
    c: Array  # target, (m,)
    A: Array  # peer coupling, (m, q)
    state_dim: int
    beta: float | None = None
    seed: int = 0
    peer_mode: str = "independent"
    projector: Array | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown environment kind '{self.kind}'", field="kind")
        c = np.asarray(self.c, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        if c.ndim != 1 or not c.size or not np.all(np.isfinite(c)):
            raise ConfigError("target c must be a finite non-empty vector", field="c")
        if A.ndim != 2 or A.shape[0] != c.shape[0] or not np.all(np.isfinite(A)):
            raise ConfigError(f"coupling A must be a finite ({c.shape[0]}, q) matrix, got {A.shape}", field="A")
        state_dim = check_count(self.state_dim, 1, "state_dim")
        if self.kind == "softplus_congestion":
            if self.beta is None:
                raise ConfigError("softplus_congestion needs beta > 0", field="beta")
            check_positive(self.beta, "beta")
        elif self.beta is not None:
            raise ConfigError("beta is only meaningful for softplus_congestion", field="beta")
        if self.peer_mode not in PEER_MODES:
            raise ConfigError(f"unknown peer_mode '{self.peer_mode}'", field="peer_mode")
        if self.peer_mode == "mirror" and A.shape[1] != state_dim:
            raise ConfigError(
                f"mirror peer_mode requires the peer dimension, A's {A.shape[1]} columns, to equal state_dim",
                field="A",
            )
        seed = check_count(self.seed, 0, "seed")
        P = self.projector
        if P is not None:
            if self.kind != "quadratic_congestion":
                raise ConfigError("projector is only supported with quadratic_congestion", field="projector")
            P = np.asarray(P, dtype=np.float64)
            m = c.shape[0]
            if P.shape != (m, m) or not np.all(np.isfinite(P)):
                raise ConfigError(f"projector must be a finite ({m}, {m}) matrix, got {P.shape}", field="projector")
            if np.max(np.abs(P - P.T)) > 1e-9 or np.max(np.abs(P @ P - P)) > 1e-9:
                raise ConfigError("projector must be symmetric and idempotent", field="projector")
            if np.max(np.abs(P)) == 0.0:
                raise ConfigError("projector must be nonzero", field="projector")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "state_dim", state_dim)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "projector", P)

    @property
    def action_dim(self) -> int:
        return self.c.shape[0]

    @property
    def peer_dim(self) -> int:
        return self.A.shape[1]


def draws(env: Environment, rng: np.random.Generator, n: int):
    """n seeded (state, peer context) draws, stacked as (n, d) and (n, q)
    rows: one uniform draw of n rows, each row a state followed by its peer
    context, or a state alone that is also its context in ``mirror`` mode."""
    d = env.state_dim
    if env.peer_mode == "mirror":
        S = rng.uniform(-1.0, 1.0, (n, d))
        return S, S.copy()
    rows = rng.uniform(-1.0, 1.0, (n, d + env.peer_dim))
    return rows[:, :d].copy(), rows[:, d:].copy()


def sample(env: Environment, seed: int):
    """Deterministic draw of (state, peer context) for a non-negative seed:
    the one row of ``draws`` seeded by (env.seed, seed)."""
    S, A = draws(env, np.random.default_rng([env.seed, check_count(seed, 0, "seed")]), 1)
    return S[0], A[0]


def check_seeds(seeds, minimum: int = 1) -> list[int]:
    """Run seeds as a list of at least ``minimum`` distinct non-negative
    integers; a repeated seed would run one seed twice."""
    seeds = [check_count(s, 0, "seeds", "entries") for s in seeds]
    if len(seeds) < minimum:
        raise ConfigError(f"need at least {minimum} seed" + "s" * (minimum > 1), field="seeds")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"entries must be distinct, got {seeds}", field="seeds")
    return seeds


def check_dims(env: Environment, dims, pset=None) -> None:
    """Policy layer sizes that map the environment's states to its actions,
    and a perturbation ball ``pset``, if given, over its states."""
    d, m = env.state_dim, env.action_dim
    if dims[0] != d:
        raise ConfigError(f"first entry {dims[0]} must equal environment.state_dim {d}", field="dims")
    if dims[-1] != m:
        raise ConfigError(f"last entry {dims[-1]} must equal len(environment.c) {m}", field="dims")
    if pset is not None and pset.dim != d:
        raise ConfigError(f"perturbation dim {pset.dim} must equal environment.state_dim {d}", field="pset.dim")


def _check_pair(env: Environment, z, a):
    """An action and a peer context, or (..., B, m) and (..., B, q) stacks of them."""
    z = np.asarray(z, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    m = env.action_dim
    if z.ndim not in (1, 2, 3) or z.shape[-1] != m:
        raise ConfigError(f"action has shape {z.shape}, expected ({m},) or (..., B, {m})")
    if a.shape != z.shape[:-1] + (env.peer_dim,):
        raise ConfigError(f"peer context has shape {a.shape}, expected {z.shape[:-1] + (env.peer_dim,)}")
    return z, a


def _residual(env: Environment, z, a):
    """z + A a - c, projected when the environment has a projector; one row
    per action when z and a are stacked. z may be an ndarray or a Node."""
    r = z + (matvec(env.A, a) - env.c)
    if env.projector is not None:
        r = matvec(env.projector, r)
    return r


def _summed(env: Environment, r, axis):
    """The loss of the residuals r summed over ``axis``, as a tape-generic
    expression: the one loss formula."""
    if env.kind == "quadratic_congestion":
        return 0.5 * dot(r, r, axis)
    return vsum(softplus(env.beta * r), axis)


def loss_term(env: Environment, z, a):
    """Loss summed over the (B, m) rows of z, as a tape-generic expression;
    z may be an ndarray or a Node. (M, B, m) actions of a model stack give
    one sum per model."""
    return _summed(env, _residual(env, z, np.asarray(a, dtype=np.float64)), (-2, -1))


def loss(env: Environment, z, a):
    """Loss at an action; one value per row for stacked actions and contexts."""
    values = _summed(env, _residual(env, *_check_pair(env, z, a)), -1)
    return float(values) if values.ndim == 0 else values


def loss_grad(env: Environment, z, a) -> Array:
    """Gradient of the loss in the action, row by row for stacked input."""
    r = _residual(env, *_check_pair(env, z, a))
    return r if env.kind == "quadratic_congestion" else env.beta * sigmoid(env.beta * r)


def loss_hessian(env: Environment, z, a) -> Array:
    """Hessian of the loss in the action, (m, m); one per row, (..., m, m),
    for stacked input, save the quadratic loss's, which is one for all."""
    z, a = _check_pair(env, z, a)
    if env.kind == "quadratic_congestion":
        return np.eye(env.action_dim) if env.projector is None else env.projector.copy()
    sig = sigmoid(env.beta * _residual(env, z, a))
    return (env.beta**2 * sig * (1.0 - sig))[..., None] * np.eye(env.action_dim)


def loss_hessian_bound(env: Environment) -> float:
    """Exact Lipschitz constant of the loss gradient in the action."""
    return 1.0 if env.kind == "quadratic_congestion" else env.beta**2 / 4.0
