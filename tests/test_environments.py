"""Loss families against finite-difference oracles and smoothness constants."""

from __future__ import annotations

import numpy as np
import pytest

from aajrlab import environments
from aajrlab.environments import (
    Environment,
    draws,
    loss,
    loss_grad,
    loss_hessian,
    loss_hessian_bound,
    sample,
    samples,
)
from aajrlab.errors import ConfigError


def quad_env(m=2, A=None, c=None, **kw):
    return Environment(
        kind="quadratic_congestion",
        c=np.zeros(m) if c is None else np.asarray(c, dtype=float),
        A=np.zeros((m, m)) if A is None else np.asarray(A, dtype=float),
        state_dim=kw.pop("state_dim", m),
        **kw,
    )


def soft_env(m=2, beta=2.0, A=None, c=None, **kw):
    return Environment(
        kind="softplus_congestion",
        c=np.zeros(m) if c is None else np.asarray(c, dtype=float),
        A=np.zeros((m, m)) if A is None else np.asarray(A, dtype=float),
        state_dim=kw.pop("state_dim", m),
        beta=beta,
        **kw,
    )


def fd_grad(env, z, a, h=1e-6):
    g = np.zeros_like(z)
    for i in range(len(z)):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (loss(env, z + e, a) - loss(env, z - e, a)) / (2 * h)
    return g


def fd_hessian(env, z, a, h=1e-5):
    m = len(z)
    H = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        H[:, i] = (fd_grad(env, z + e, a) - fd_grad(env, z - e, a)) / (2 * h)
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("peer_mode, A", [("independent", np.ones((3, 2))), ("mirror", np.eye(3))])
def test_sample_is_row_zero_of_draws(peer_mode, A):
    env = quad_env(3, A=A, peer_mode=peer_mode, seed=7)
    for seed in (0, 1, 12345):
        s, a = sample(env, seed)
        S, P = draws(env, np.random.default_rng([7, seed]), 1)
        assert np.array_equal(s, S[0]) and np.array_equal(a, P[0])
        # per sample: a uniform state, then a uniform peer context unless it mirrors the state
        rng = np.random.default_rng([7, seed])
        s_ref = rng.uniform(-1.0, 1.0, 3)
        a_ref = s_ref if peer_mode == "mirror" else rng.uniform(-1.0, 1.0, 2)
        assert np.array_equal(s, s_ref) and np.array_equal(a, a_ref)


# seeds of one, two, three and five 32-bit words, so one call mixes entropy
# word counts, including more words than SeedSequence's pool of four; 7 twice
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 7, 7, 2**130 + 3]


@pytest.mark.parametrize("env_seed", [0, 2**32 + 9])
@pytest.mark.parametrize("peer_mode, A", [("independent", np.ones((3, 2))), ("mirror", np.eye(3))])
@pytest.mark.parametrize("make", [quad_env, soft_env])
def test_samples_rows_are_sample_bit_for_bit(make, peer_mode, A, env_seed):
    env = make(m=3, A=A, peer_mode=peer_mode, seed=env_seed)
    S, P = samples(env, ORACLE_SEEDS)
    assert S.shape == (len(ORACLE_SEEDS), 3) and P.shape == (len(ORACLE_SEEDS), A.shape[1])
    for seed, s, a in zip(ORACLE_SEEDS, S, P):
        s_ref, a_ref = sample(env, seed)  # numpy's own generator, one per row
        assert np.array_equal(s.view(np.uint64), s_ref.view(np.uint64))
        assert np.array_equal(a.view(np.uint64), a_ref.view(np.uint64))
    S0, P0 = samples(env, [])
    assert S0.shape == (0, 3) and P0.shape == (0, A.shape[1])


def test_samples_checks_every_seed_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("rows were drawn before the seeds were checked")

    monkeypatch.setattr(environments, "_uniform_rows", no_draw)
    for bad in (True, 1.5, -1):
        with pytest.raises(ConfigError, match=rf"^seed: must be an integer >= 0, got {bad!r}$"):
            samples(quad_env(), [0, bad])


def test_sample_deterministic_per_seed():
    env = quad_env()
    s1, a1 = sample(env, 7)
    s2, a2 = sample(env, 7)
    assert np.array_equal(s1, s2) and np.array_equal(a1, a2)


def test_sample_different_seeds_differ():
    env = quad_env()
    s1, a1 = sample(env, 1)
    s2, a2 = sample(env, 2)
    assert not (np.array_equal(s1, s2) and np.array_equal(a1, a2))


def test_sample_support():
    env = soft_env(m=3, state_dim=3)
    for seed in range(20):
        s, a = sample(env, seed)
        assert np.all(np.abs(s) <= 1.0) and np.all(np.abs(a) <= 1.0)


def test_sample_mirror_mode():
    env = quad_env(m=3, state_dim=3, peer_mode="mirror")
    for seed in range(5):
        s, a = sample(env, seed)
        assert np.array_equal(s, a)


def test_quadratic_loss_values():
    env = quad_env()
    assert loss(env, np.array([1.0, 0.0]), np.zeros(2)) == 0.5
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2))
    c = rng.standard_normal(2)
    env2 = quad_env(A=A, c=c)
    a = rng.standard_normal(2)
    z_opt = c - A @ a
    assert loss(env2, z_opt, a) == pytest.approx(0.0, abs=1e-30)


def test_quadratic_grad_at_target():
    env = quad_env(c=[1.0, -2.0])
    assert np.array_equal(loss_grad(env, np.array([1.0, -2.0]), np.zeros(2)), np.zeros(2))


@pytest.mark.parametrize("maker", [quad_env, soft_env])
def test_loss_grad_matches_finite_differences(maker):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    env = maker(m=3, A=A, c=c)
    for _ in range(5):
        z = rng.uniform(-2, 2, 3)
        a = rng.uniform(-1, 1, 3)
        g = loss_grad(env, z, a)
        g_fd = fd_grad(env, z, a)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g_fd), 1.0)


def test_softplus_hessian_matches_finite_differences_and_bound():
    rng = np.random.default_rng(9)
    env = soft_env(m=3, beta=2.0, A=rng.standard_normal((3, 3)), c=rng.standard_normal(3))
    z = rng.uniform(-1, 1, 3)
    a = rng.uniform(-1, 1, 3)
    H = loss_hessian(env, z, a)
    H_fd = fd_hessian(env, z, a)
    assert np.max(np.abs(H - H_fd)) <= 1e-4
    assert np.linalg.norm(H, 2) <= loss_hessian_bound(env) + 1e-12
    # stacked actions and contexts give one Hessian per row, each that row's own
    Z, A = np.vstack([z, rng.uniform(-1, 1, (3, 3))]), np.vstack([a, rng.uniform(-1, 1, (3, 3))])
    rows = loss_hessian(env, Z, A)
    assert rows.shape == (4, 3, 3) and np.array_equal(rows[0], H)
    assert all(np.array_equal(rows[k], loss_hessian(env, Z[k], A[k])) for k in range(4))


@pytest.mark.parametrize("beta", [1e155, 2e154, 10**160], ids=["1e155", "2e154", "int 10**160"])
def test_softplus_beta_whose_smoothness_constant_overflows_is_rejected(beta):
    # beta^2 / 4 bounds the loss Hessian; above about 1.34e154 the square overflows a float
    with pytest.raises(ConfigError, match=r"^beta: beta\^2 / 4, .* overflows"):
        soft_env(beta=beta)


def test_softplus_beta_whose_smoothness_constant_is_finite_builds():
    env = soft_env(beta=1e154)
    assert loss_hessian_bound(env) == 1e154**2 / 4.0
    assert np.isfinite(loss_hessian(env, np.zeros(2), np.zeros(2))).all()


def test_hessian_bounds_exact():
    assert loss_hessian_bound(quad_env()) == 1.0
    assert loss_hessian_bound(soft_env(beta=2.0)) == 1.0
    assert loss_hessian_bound(soft_env(beta=3.0)) == pytest.approx(2.25)


def test_softplus_second_derivative_sup_on_grid():
    # 1-d oracle: the diagonal curvature beta^2 sig(1-sig) peaks at the origin
    beta = 2.0
    xs = np.linspace(-10, 10, 20001)
    sig = 0.5 * (np.tanh(0.5 * beta * xs) + 1.0)
    curv = beta**2 * sig * (1.0 - sig)
    assert np.max(curv) == pytest.approx(beta**2 / 4.0, rel=1e-6)


@pytest.mark.parametrize("maker", [quad_env, soft_env])
def test_gradient_lipschitz_property(maker):
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 3))
    env = maker(m=3, A=A, c=rng.standard_normal(3))
    L = loss_hessian_bound(env)
    for _ in range(200):
        z1 = rng.uniform(-3, 3, 3)
        z2 = rng.uniform(-3, 3, 3)
        a = rng.uniform(-1, 1, 3)
        lhs = np.linalg.norm(loss_grad(env, z1, a) - loss_grad(env, z2, a))
        assert lhs <= L * np.linalg.norm(z1 - z2) + 1e-9


@pytest.mark.parametrize("maker", [quad_env, soft_env])
def test_loss_nonnegative(maker):
    rng = np.random.default_rng(23)
    env = maker(m=2, A=rng.standard_normal((2, 2)), c=rng.standard_normal(2))
    for _ in range(50):
        assert loss(env, rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2)) >= 0.0


def test_projector_env_grad_in_subspace():
    P = np.diag([1.0, 0.0])
    env = Environment(
        kind="quadratic_congestion", c=np.array([1.0, 2.0]), A=np.zeros((2, 2)), state_dim=2, projector=P
    )
    g = loss_grad(env, np.array([0.3, 0.7]), np.zeros(2))
    assert g[1] == 0.0
    assert loss_hessian_bound(env) == 1.0
    g_fd = fd_grad(env, np.array([0.3, 0.7]), np.zeros(2))
    assert np.linalg.norm(g - g_fd) <= 1e-6


def test_environment_validation():
    with pytest.raises(ConfigError):
        Environment(kind="cubic", c=np.zeros(2), A=np.zeros((2, 2)), state_dim=2)
    with pytest.raises(ConfigError):
        Environment(kind="softplus_congestion", c=np.zeros(2), A=np.zeros((2, 2)), state_dim=2)  # beta missing
    with pytest.raises(ConfigError):
        Environment(kind="quadratic_congestion", c=np.zeros(2), A=np.zeros((2, 2)), state_dim=2, beta=1.0)
    with pytest.raises(ConfigError):
        Environment(kind="quadratic_congestion", c=np.zeros(2), A=np.zeros((2, 3)), state_dim=2, peer_mode="mirror")
    with pytest.raises(ConfigError):
        Environment(
            kind="quadratic_congestion",
            c=np.zeros(2),
            A=np.zeros((2, 2)),
            state_dim=2,
            projector=np.array([[0.5, 0.1], [0.3, 0.5]]),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_projector_rejected_by_the_library(bad):
    # every symmetry, idempotence and nonzero check compares against NaN and would pass
    P = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ConfigError, match="projector must be a finite"):
        Environment(kind="quadratic_congestion", c=np.zeros(2), A=np.zeros((2, 2)), state_dim=2, projector=P)


def test_loss_dimension_mismatch():
    env = quad_env()
    with pytest.raises(ConfigError):
        loss(env, np.zeros(3), np.zeros(2))
