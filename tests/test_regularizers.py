"""Directional penalty and spectral norms against dense linear-algebra oracles."""

from __future__ import annotations

import numpy as np
import pytest

from aajrlab.environments import Environment, sample
from aajrlab.errors import ConfigError, NumericError
from aajrlab.inner import Ascent, InnerLoopConfig, PerturbationSet, pga_batch, pga_run
from aajrlab.policy import Layer, PolicyParams, init_policy, jacobian, param_gradient, scale_policy, stack_policies
from aajrlab.regularizers import (
    RegularizerConfig,
    aajr_penalty,
    aajr_rows,
    _norm_bound,
    constraint_levels,
    global_penalty,
    global_term,
    spectral_norm,
    top_singular,
)

from conftest import assemble_jacobian, linear_policy, visited_sup


def reg(lam=0.0, gamma=1.0, gamma_adv=1.0, **kw):
    return RegularizerConfig(lam=lam, gamma=gamma, gamma_adv=gamma_adv, **kw)


SHIPPED_SHAPES = [(2, 6, 2), (3, 6, 3), (4, 8, 4)]


def fixed_record(deltas, us):
    """One-sample ascent record with explicit iterates and ascent directions;
    the fields the penalty does not read are zeros."""
    deltas = np.array(deltas, dtype=float).reshape(1, len(deltas), -1)
    K, d = len(us), deltas.shape[-1]
    us = np.array(us, dtype=float).reshape(1, K, d)
    zeros = np.zeros((1, K))
    return Ascent(deltas, us, 0 * us, zeros.astype(bool), np.zeros((1, K + 1)), 0 * deltas, zeros)


def oracle_aajr(params, s, record):
    """Mean of ||J(s + delta_t) u_t||^2 over one sample's steps, from the
    dense row-by-row Jacobian."""
    steps = zip(record.deltas[:-1], record.ascent)
    return np.mean([np.linalg.norm(assemble_jacobian(params, s + delta) @ u) ** 2 for delta, u in steps])


def test_aajr_linear_single_step():
    p = linear_policy(np.array([[2.0, 0.0], [0.0, 1.0]]))
    record = fixed_record([np.zeros(2), np.zeros(2)], [np.array([1.0, 0.0])])
    assert float(aajr_penalty(aajr_rows(p.handle, np.zeros((1, 2)), record))) == pytest.approx(4.0, abs=0.0)


def test_aajr_zero_policy():
    p = linear_policy(np.zeros((2, 2)))
    record = fixed_record([np.zeros(2), np.zeros(2)], [np.array([0.6, 0.8])])
    assert float(aajr_penalty(aajr_rows(p.handle, np.zeros((1, 2)), record))) == 0.0


def test_aajr_matches_assembled_jacobian_oracle():
    env = Environment(kind="quadratic_congestion", c=np.array([0.4, -0.9, 0.1]), A=np.zeros((3, 3)), state_dim=3)
    params = init_policy([3, 6, 3], seed=2)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    pairs = [sample(env, seed) for seed in (4, 5, 6)]
    S, A = (np.array(rows) for rows in zip(*pairs))
    record = pga_batch(params, S, A, env, pset, InnerLoopConfig(eta=0.4, steps=3))
    expected = np.mean([oracle_aajr(params, s, record[k]) for k, s in enumerate(S)])
    assert float(aajr_penalty(aajr_rows(params.handle, S, record))) == pytest.approx(expected, rel=1e-12)


def test_aajr_no_ascent_steps_returns_zero():
    p = linear_policy(np.eye(2))
    record = fixed_record([np.zeros(2)], [])
    assert aajr_penalty(aajr_rows(p.handle, np.zeros((1, 2)), record)) == 0.0


def test_aajr_hinge_form():
    p = linear_policy(np.array([[2.0, 0.0], [0.0, 1.0]]))
    record = fixed_record(
        [np.zeros(2), np.zeros(2), np.zeros(2)],
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
    )
    cfg = reg(gamma_adv=1.5, aajr_hinge=True)
    # amplifications are 2 and 1: hinge terms (2-1.5)^2 and 0
    expected = 0.5 * (0.5**2 + 0.0)
    assert float(aajr_penalty(aajr_rows(p.handle, np.zeros((1, 2)), record), cfg)) == pytest.approx(expected, abs=1e-15)


def test_aajr_bounded_by_max_operator_norm():
    env = Environment(kind="quadratic_congestion", c=np.array([0.3, 0.3]), A=np.zeros((2, 2)), state_dim=2)
    for seed in range(10):
        params = init_policy([2, 5, 2], seed=seed)
        pset = PerturbationSet(p=2, epsilon=0.6, dim=2)
        s, a = sample(env, seed)
        record = pga_batch(params, s[None], a[None], env, pset, InnerLoopConfig(eta=0.5, steps=4))
        worst = max(np.linalg.norm(assemble_jacobian(params, s + delta), 2) for delta in record.deltas[0, :-1])
        assert float(aajr_penalty(aajr_rows(params.handle, s[None], record))) <= worst**2 + 1e-9


def test_spectral_norm_diagonal():
    p = linear_policy(np.diag([1.0, 2.0]))
    assert spectral_norm(p, np.zeros(2)) == pytest.approx(2.0, abs=1e-12)


def test_spectral_norm_zero_policy():
    p = linear_policy(np.zeros((3, 3)))
    assert spectral_norm(p, np.zeros(3)) == 0.0


def test_spectral_norm_matches_gram_eigensolve():
    rng = np.random.default_rng(6)
    W = rng.standard_normal((4, 3))
    p = linear_policy(W)
    expected = float(np.sqrt(np.max(np.linalg.eigvalsh(W.T @ W))))
    got = spectral_norm(p, np.zeros(3))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (4, 3), (8, 8), (3, 8)])
def test_spectral_norm_matches_dense_svd_linear(dims):
    rng = np.random.default_rng(sum(dims))
    W = rng.standard_normal(dims)
    p = linear_policy(W)
    expected = float(np.linalg.svd(W, compute_uv=False)[0])
    got = spectral_norm(p, np.zeros(dims[1]))
    assert got == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_scaling_linearity():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((3, 3))
    p = linear_policy(W)
    base = spectral_norm(p, np.zeros(3))
    for c in (0.5, 2.0, 7.25):
        scaled = spectral_norm(scale_policy(p, c), np.zeros(3))
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_spectral_norm_is_lower_bound_on_tanh_net():
    params = init_policy([4, 6, 3], seed=3)
    s = np.full(4, 0.2)
    est = spectral_norm(params, s)
    dense = np.linalg.norm(assemble_jacobian(params, s), 2)
    assert est <= dense + 1e-12
    assert est == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("dims", SHIPPED_SHAPES)
def test_spectral_norm_matches_svd_of_vjp_oracle(dims):
    rng = np.random.default_rng(sum(dims))
    for seed in range(5):
        params = init_policy(dims, seed=seed)
        s = rng.uniform(-1, 1, dims[0])
        dense = np.linalg.svd(assemble_jacobian(params, s), compute_uv=False)[0]
        assert abs(spectral_norm(params, s) - dense) <= 1e-12


def test_spectral_norm_overflowing_jacobian_raises_numeric_error():
    big = 1e200 * np.eye(2)
    params = PolicyParams((Layer(big, np.zeros(2), "identity"), Layer(big, np.zeros(2), "identity")))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="Jacobian"):
        spectral_norm(params, np.zeros(2))


@pytest.mark.parametrize("dims", SHIPPED_SHAPES)
def test_spectral_norm_bounds_every_directional_amplification(dims):
    d = dims[0]
    env = Environment(kind="quadratic_congestion", c=np.linspace(-0.5, 0.5, d), A=np.eye(d), state_dim=d)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=d)
    checked = 0
    for seed in range(10):
        params = scale_policy(init_policy(dims, seed=seed), 2.0)
        s, a = sample(env, seed)
        traj = pga_run(params, s, a, env, pset, InnerLoopConfig(eta=0.3, steps=5))
        for delta, amp in zip(traj.deltas[:-1], traj.amps):
            assert spectral_norm(params, s + delta) >= amp
            checked += 1
    assert checked == 50


def test_global_penalty_inactive_hinge():
    p = linear_policy(np.diag([0.3, 0.5]))
    states = [np.zeros(2), np.ones(2)]
    assert global_penalty(p, states, reg(gamma=1.0)) == 0.0


def test_global_penalty_single_state():
    p = linear_policy(np.diag([3.0, 3.0]))
    assert global_penalty(p, [np.zeros(2)], reg(gamma=1.0)) == pytest.approx(4.0, rel=1e-12)


def test_global_penalty_matches_per_state_loop():
    rng = np.random.default_rng(8)
    params = init_policy([3, 5, 3], seed=8)
    params = scale_policy(params, 3.0)
    cfg = reg(gamma=0.4)
    states = [rng.uniform(-1, 1, 3) for _ in range(4)]
    expected = np.mean([max(0.0, spectral_norm(params, s) - cfg.gamma) ** 2 for s in states])
    assert global_penalty(params, states, cfg) == pytest.approx(expected, rel=1e-12)


def test_global_hinge_reuses_precomputed_singular_pairs():
    params = scale_policy(init_policy([4, 8, 4], seed=5), 3.0)
    states = np.random.default_rng(5).uniform(-1, 1, (6, 4))
    cfg = reg(gamma=0.4)
    sigmas, v_hat = top_singular(jacobian(params, states))
    np.testing.assert_array_equal(sigmas, spectral_norm(params, states))
    for s, sigma, v in zip(states, sigmas, v_hat):
        dense = np.linalg.svd(assemble_jacobian(params, s))
        assert abs(sigma - dense[1][0]) <= 1e-12 and abs(abs(v @ dense[2][0]) - 1.0) <= 1e-12
    term = float(global_term(params.handle, states, v_hat, cfg))
    assert float(global_term(params.handle, states, np.tile(np.eye(4)[0], (6, 1)), cfg)) < term
    penalty = global_penalty(params, states, cfg, sigmas=sigmas)
    assert penalty == global_penalty(params, states, cfg) > 0.0
    assert global_penalty(params, states, cfg, sigmas=np.zeros(6)) == 0.0
    assert term == pytest.approx(penalty, rel=1e-12)


def test_global_penalty_empty_states_rejected():
    p = linear_policy(np.eye(2))
    with pytest.raises(ConfigError):
        global_penalty(p, [], reg())


def test_aajr_term_taped_matches_value():
    # the taped expression must equal the same term over ndarrays, and the dense oracle
    env = Environment(kind="quadratic_congestion", c=np.array([0.5, 0.1]), A=np.zeros((2, 2)), state_dim=2)
    params = init_policy([2, 4, 2], seed=14)
    pset = PerturbationSet(p=2, epsilon=0.3, dim=2)
    s, a = sample(env, 6)
    record = pga_batch(params, s[None], a[None], env, pset, InnerLoopConfig(eta=0.3, steps=2))
    taped, _ = param_gradient(params, lambda handle: aajr_penalty(aajr_rows(handle, s[None], record)))
    assert taped == pytest.approx(float(aajr_penalty(aajr_rows(params.handle, s[None], record))), rel=1e-14)
    assert taped == pytest.approx(oracle_aajr(params, s, record[0]), rel=1e-12)


def test_constraint_levels_match_dense_oracle_at_every_visited_state():
    env = Environment(kind="quadratic_congestion", c=np.array([0.4, 0.1, -0.3]), A=np.zeros((3, 3)), state_dim=3)
    pset, inner = PerturbationSet(p=2, epsilon=0.4, dim=3), InnerLoopConfig(eta=0.4, steps=4)
    members = [init_policy([3, 5, 3], seed=seed) for seed in (3, 4)]
    S, A = (np.array(rows) for rows in zip(*(sample(env, k) for k in range(5))))
    stack, SS = stack_policies(members), np.stack([S, S])
    stacked_record = pga_batch(stack, SS, np.stack([A, A]), env, pset, inner)
    stacked = constraint_levels(stack, SS, stacked_record)
    assert stacked[0].shape == (2, 5, 4) and stacked[1].shape == (2,)
    np.testing.assert_array_equal(stacked[1], visited_sup(stack, SS, stacked_record))
    for i, params in enumerate(members):
        record = pga_batch(params, S, A, env, pset, inner)
        alone = constraint_levels(params, S, record)
        assert alone[0].shape == (5, 4) and alone[1].shape == ()
        assert alone[1] == visited_sup(params, S, record) == stacked[1][i]
        dense_sigmas = []
        for k, (s, a) in enumerate(zip(S, A)):
            traj = pga_run(params, s, a, env, pset, inner)
            jacobians = [assemble_jacobian(params, s + delta) for delta in traj.deltas]
            dense_sigmas += [np.linalg.svd(J, compute_uv=False)[0] for J in jacobians]
            dense_amps = [np.linalg.norm(J @ u) for J, u in zip(jacobians, traj.ascent)]
            for amps in (alone[0], stacked[0][i]):
                np.testing.assert_allclose(amps[k], dense_amps, rtol=1e-12, atol=0)
        np.testing.assert_allclose(alone[1], max(dense_sigmas), rtol=1e-12, atol=0)


def matrices():
    """Random, rank-1 and +-1e150-scaled matrices of every shape up to 6 x 6."""
    rng = np.random.default_rng(26)
    for m in range(1, 7):
        for n in range(1, 7):
            for _ in range(5):
                J = rng.standard_normal((m, n))
                yield J
                yield np.outer(rng.standard_normal(m), rng.standard_normal(n))
                yield J * 1e150
                yield J * -1e-150


def test_norm_bound_brackets_the_spectral_norm():
    # sigma_1 <= u <= min(m, n)^(1/16) sigma_1, up to rounding far below the pruning slack
    count = 0
    for J in matrices():
        sigma, u = np.linalg.svd(J, compute_uv=False)[0], _norm_bound(J)
        assert sigma <= u * (1.0 + 1e-12) and u <= min(J.shape) ** (1 / 16) * sigma * (1.0 + 1e-12)
        count += 1
    assert count == 36 * 20
    assert _norm_bound(np.zeros((3, 2))) == 0.0
    stack = np.stack([np.zeros((2, 3)), 2.0 * np.eye(2, 3), np.full((2, 3), 1e300)])
    np.testing.assert_array_equal(_norm_bound(stack), [_norm_bound(J) for J in stack])
    assert np.all(np.isfinite(_norm_bound(stack)))


def test_constraint_levels_reject_a_non_finite_jacobian_at_any_visited_state():
    # the record comes from a benign stack; the second model of the stack passed overflows only at
    # one visited state, the first row's start, where its wide tanh unit is unsaturated
    env = Environment(kind="quadratic_congestion", c=np.array([0.4, 0.1, -0.3]), A=np.zeros((3, 3)), state_dim=3)
    pset, inner = PerturbationSet(p=2, epsilon=0.4, dim=3), InnerLoopConfig(eta=0.4, steps=3)
    members = [init_policy([3, 3, 3], seed=seed) for seed in (3, 4)]
    S, A = (np.array(rows) for rows in zip(*(sample(env, k) for k in range(4))))
    SS = np.stack([S, S])
    record = pga_batch(stack_policies(members), SS, np.stack([A, A]), env, pset, inner)
    big = 1e200 * np.eye(3)
    bad = PolicyParams((Layer(big, -(big @ S[0]), "tanh"), Layer(big, np.zeros(3), "identity")))
    with np.errstate(over="ignore", invalid="ignore"):
        J = jacobian(bad, (SS[1][:, None] + record.deltas[1]).reshape(-1, 3))
        assert np.count_nonzero(~np.all(np.isfinite(J), axis=(-2, -1))) == 1
        with pytest.raises(NumericError, match="non-finite Jacobian"):
            constraint_levels(stack_policies([members[0], bad]), SS, record)


def test_regularizer_config_validation():
    with pytest.raises(ConfigError):
        RegularizerConfig(lam=-0.1, gamma=1.0, gamma_adv=1.0)
    with pytest.raises(ConfigError):
        RegularizerConfig(lam=0.0, gamma=0.0, gamma_adv=1.0)
    with pytest.raises(ConfigError):
        RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=0.0)
