"""Synthetic congestion losses with analytically known smoothness constants.

Two loss families over the action z and the observable peer demand a:

* ``quadratic_congestion``:  L = 1/2 ||z + A a - c||^2, Hessian = I, so the
  gradient is 1-Lipschitz exactly.
* ``softplus_congestion``:   L = sum_j softplus(beta * (z + A a - c)_j),
  diagonal Hessian bounded by beta^2 / 4.

An optional orthogonal projector replaces the quadratic residual with its
projection, which confines loss gradients to a chosen subspace (used by the
expressivity witness checks). The one sampler, ``draws``, is seeded and
deterministic, and ``sample`` is its one-row case; ``samples``, the
vectorized form of ``sample``, draws one row per seed in one array pass.
In ``mirror`` mode the peer demand equals the drawn state, which makes the
task state-dependent and lets sensitivity budgets actually bind.
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
            if not np.isfinite((beta := check_positive(self.beta, "beta")) * beta / 4.0):
                raise ConfigError(f"beta^2 / 4, the loss's smoothness constant, overflows at {beta!r}", field="beta")
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


def _split(env: Environment, uniform):
    """(n, d) states and (n, q) peer contexts from ``uniform(k)``, (n, k) uniform draws: each
    row a state followed by its peer context, or a state alone that is its context in ``mirror`` mode."""
    d = env.state_dim
    if env.peer_mode == "mirror":
        S = uniform(d)
        return S, S.copy()
    rows = uniform(d + env.peer_dim)
    return rows[:, :d].copy(), rows[:, d:].copy()


def draws(env: Environment, rng: np.random.Generator, n: int):
    """n seeded (state, peer context) draws, stacked as (n, d) and (n, q)
    rows: one uniform draw of n rows."""
    return _split(env, lambda k: rng.uniform(-1.0, 1.0, (n, k)))


def sample(env: Environment, seed: int):
    """Deterministic draw of (state, peer context) for a non-negative seed: the one row of
    ``draws`` seeded by numpy's ``default_rng([env.seed, seed])``. ``samples`` draws many
    such rows at once; ``tests/test_environments.py`` pins its rows to this one."""
    S, A = draws(env, np.random.default_rng([env.seed, check_count(seed, 0, "seed")]), 1)
    return S[0], A[0]


def samples(env: Environment, seeds):
    """``sample`` for each of ``seeds``, as (n, d) states and (n, q) peer contexts: row i is
    bit for bit sample(env, seeds[i]). Every seed is checked before ``_uniform_rows`` draws."""
    seeds = [check_count(s, 0, "seed") for s in seeds]
    return _split(env, lambda k: _uniform_rows(env.seed, seeds, k))


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's 128-bit LCG multiplier (pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _POOL_SIZE, _MASK32 = 0xCA01F9DD, 0x4973F715, 4, 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _words(seeds) -> tuple[Array, Array]:
    """(w, n) uint32: the 32-bit words of each non-negative int as SeedSequence
    splits an int, least significant first, zero-padded; and the (n,) word counts."""
    rests = [np.array(seeds, dtype=object)]
    while np.any(rests[-1] >> 32):
        rests.append(rests[-1] >> 32)
    rests = np.array(rests)
    return (rests & _MASK32).astype(np.uint32), 1 + np.sum(rests[1:] > 0, axis=0)


def _uniform_rows(base: int, seeds: list[int], k: int) -> Array:
    """(len(seeds), k): row i is ``default_rng([base, seeds[i]]).uniform(-1.0, 1.0, k)``
    by numpy's own algorithms on every row at once: SeedSequence's mixing and
    ``generate_state(4, np.uint64)`` per entropy word count, PCG64's seeding, 128-bit
    LCG step and XSL-RR output, and ``uniform``'s ``-1 + 2 * ((x >> 11) * 2**-53)``.
    Explicit uint32 / uint64 constants keep numpy 1.24's and NEP 50's dtypes alike."""
    u64 = np.uint64
    head, (words, count) = _words([base])[0], _words(seeds)
    state = np.zeros((4, len(seeds)), u64)  # generate_state(4, np.uint64), one column per row
    with np.errstate(over="ignore"):
        for w in set(count.tolist()):  # np.unique would import numpy.ma, about 10 ms, on its first call
            rows = np.flatnonzero(count == w)
            state[:, rows] = _seed_sequence(np.concatenate([np.repeat(head, len(rows), 1), words[:w, rows]]))
        inc = (state[2] << u64(1) | state[3] >> u64(63), state[3] << u64(1) | u64(1))  # odd, as PCG64 seeds it

        def add(a_hi, a_lo, b_hi, b_lo):  # modulo 2**128
            return a_hi + b_hi + (a_lo + b_lo < a_lo).astype(u64), a_lo + b_lo

        def lcg(hi, lo):  # (hi, lo) * multiplier + inc, modulo 2**128
            lo0, lo1, m0, m1 = lo & u64(_MASK32), lo >> u64(32), u64(_PCG_MULT_LO & _MASK32), u64(_PCG_MULT_LO >> 32)
            p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
            mid = (p00 >> u64(32)) + (p01 & u64(_MASK32)) + (p10 & u64(_MASK32))
            carry = lo1 * m1 + (p01 >> u64(32)) + (p10 >> u64(32)) + (mid >> u64(32))  # high half of lo * MULT_LO
            return add(carry + lo * u64(_PCG_MULT_HI) + hi * u64(_PCG_MULT_LO), lo * u64(_PCG_MULT_LO), *inc)

        hi, lo = lcg(*add(*inc, state[0], state[1]))  # pcg_setseq_128_srandom_r
        out = np.empty((len(seeds), k))
        for j in range(k):
            hi, lo = lcg(hi, lo)
            x, rot = hi ^ lo, hi >> u64(58)
            out[:, j] = (x >> rot | x << (u64(64) - rot & u64(63))) >> u64(11)
    return -1.0 + 2.0 * (out * (1.0 / 9007199254740992.0))


def _seed_sequence(entropy: Array) -> Array:
    """(4, n) uint64: SeedSequence(words).generate_state(4, np.uint64) for
    each column of a (w, n) uint32 array of entropy words."""
    u32, const = np.uint32, [_INIT_A, _MULT_A]

    def hashmix(value):
        value, const[0] = value ^ u32(const[0]), const[0] * const[1] & _MASK32
        value = value * u32(const[0])
        return value ^ value >> u32(16)

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ result >> u32(16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    const[:] = _INIT_B, _MULT_B  # generate_state hashes the pool, cycled, with its own constants
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.array([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])])


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
