"""Certificates against dense finite-difference and SVD oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from aajrlab import inner as inner_module
from aajrlab import policy as policy_module
from aajrlab import environments, regularizers, trainer, verification
from aajrlab.environments import Environment, loss_hessian, sample, samples
from aajrlab.errors import ConfigError
from aajrlab.inner import Ascent, InnerLoopConfig, PerturbationSet, pga_batch, pga_run, trajectory_records
from aajrlab.policy import forward, init_policy, jvp, scale_policy, stack_policies
from aajrlab.regularizers import RegularizerConfig, spectral_norm
from aajrlab.trainer import evaluate_robust_risk
from aajrlab.verification import (
    WitnessReport,
    WitnessSpec,
    check_effective_smoothness,
    check_inclusion,
    check_pga_stability,
    class_witness,
    directional_curvature,
    estimate_C,
    random_orthonormal_basis,
    stable_step_size,
    subspace_directions,
    verify_suite,
    witness_matrix,
    witness_policy,
)

from conftest import assemble_jacobian, inner_objective, linear_policy


def quad_env(c, A=None, state_dim=None, projector=None):
    c = np.asarray(c, dtype=float)
    m = len(c)
    return Environment(
        kind="quadratic_congestion",
        c=c,
        A=np.zeros((m, m)) if A is None else np.asarray(A, dtype=float),
        state_dim=m if state_dim is None else state_dim,
        projector=projector,
    )


def soft_env(c, beta=2.0):
    c = np.asarray(c, dtype=float)
    m = len(c)
    return Environment(kind="softplus_congestion", c=c, A=np.zeros((m, m)), state_dim=m, beta=beta)


def dense_fd_hessian(g, delta, h=1e-3):
    d = len(delta)
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                g(delta + ei + ej) - g(delta + ei - ej) - g(delta - ei + ej) + g(delta - ei - ej)
            ) / (4 * h * h)
    return 0.5 * (H + H.T)


# -- directional curvature ----------------------------------------------------


def test_curvature_identity_hessian():
    g = lambda delta: 0.5 * float(np.sum((delta - np.array([0.3, -0.4])) ** 2))
    v = np.array([0.6, 0.8])
    assert directional_curvature(g, np.zeros(2), v, 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_curvature_linear_function_is_zero():
    g = lambda delta: float(delta @ np.array([2.0, -1.0])) + 3.0
    v = np.array([1.0, 0.0])
    assert directional_curvature(g, np.ones(2), v, 1e-4) == pytest.approx(0.0, abs=1e-6)


def test_curvature_matches_dense_fd_hessian():
    rng = np.random.default_rng(3)
    env = soft_env(rng.standard_normal(3))
    params = init_policy([3, 5, 3], seed=3)
    s, a = sample(env, 2)
    g = inner_objective(params, env, s, a)
    delta = rng.uniform(-0.2, 0.2, 3)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    H = dense_fd_hessian(g, delta, h=1e-3)
    expected = float(v @ H @ v)
    got = directional_curvature(g, delta, v, 1e-3)
    assert got == pytest.approx(expected, abs=1e-4 * max(1.0, abs(expected)))


def test_curvature_second_order_convergence():
    # halving h shrinks the truncation error about fourfold on a smooth g
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 3))
    env = soft_env(rng.standard_normal(3))
    params = linear_policy(W)
    s = rng.uniform(-1, 1, 3)
    a = rng.uniform(-1, 1, 3)
    g = inner_objective(params, env, s, a)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    delta = rng.uniform(-0.2, 0.2, 3)
    z = forward(params, s + delta)
    Jv = W @ v
    exact = float(Jv @ loss_hessian(env, z, a) @ Jv)
    err_h = abs(directional_curvature(g, delta, v, 0.1) - exact)
    err_h2 = abs(directional_curvature(g, delta, v, 0.05) - exact)
    assert 3.5 <= err_h / err_h2 <= 4.5


def test_curvature_rows_equal_single_row_calls():
    rng = np.random.default_rng(4)
    env = soft_env(rng.standard_normal(3))
    params = init_policy([3, 5, 3], seed=4)
    s, a = sample(env, 1)
    g = inner_objective(params, env, s, a)
    deltas = rng.uniform(-0.2, 0.2, (5, 3))
    V = rng.standard_normal((5, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    h = np.array([1e-3, 2e-3, 5e-4, 1e-3, 3e-3])
    rows = directional_curvature(g, deltas, V, h)
    assert rows.shape == (5,)
    for i in range(5):
        assert rows[i] == directional_curvature(g, deltas[i], V[i], h[i])
    with pytest.raises(ConfigError, match="unit"):
        directional_curvature(g, deltas, np.vstack([V[:4], 2.0 * V[4:]]), h)
    for bad in (0.0, np.inf):
        with pytest.raises(ConfigError, match="h must be a finite number > 0"):
            directional_curvature(g, deltas, V, np.array([1e-3, 1e-3, bad, 1e-3, 1e-3]))


def test_curvature_rejects_non_unit_direction():
    g = lambda delta: float(np.sum(delta**2))
    with pytest.raises(ConfigError):
        directional_curvature(g, np.zeros(2), np.array([1.0, 1.0]), 1e-4)


# -- residual curvature estimate ----------------------------------------------


def test_estimate_c_linear_quadratic_vanishes():
    env = quad_env([0.7, -0.2])
    params = linear_policy(np.array([[1.2, 0.3], [-0.4, 0.9]]))
    pset = PerturbationSet(p=2, epsilon=0.5, dim=2)
    s, a = sample(env, 1)
    traj = pga_run(params, s, a, env, pset, InnerLoopConfig(eta=0.3, steps=4))
    assert estimate_C(params, env, s, a, traj) <= 1e-5


def test_estimate_c_stationary_trajectory_is_zero():
    # zero network output and zero target: loss gradient vanishes, nothing moves
    env = quad_env([0.0, 0.0])
    params = scale_policy(init_policy([2, 4, 2], seed=0), 0.0)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=2)
    s, a = sample(env, 0)
    traj = pga_run(params, s, a, env, pset, InnerLoopConfig(eta=0.3, steps=3))
    assert not traj.moved.any()
    assert estimate_C(params, env, s, a, traj) == 0.0


def test_estimate_c_stable_across_grid_densities():
    env = quad_env([0.6, -0.8, 0.3])
    params = init_policy([3, 6, 3], seed=7)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    s, a = sample(env, 7)
    traj = pga_run(params, s, a, env, pset, InnerLoopConfig(eta=0.3, steps=5))
    c5 = estimate_C(params, env, s, a, traj, grid=5)
    c9 = estimate_C(params, env, s, a, traj, grid=9)
    assert c9 > 0.0
    assert abs(c5 - c9) <= 0.1 * c9


def hand_record(deltas, update, values=None):
    """A one-row ascent record built by hand: every step moved, along ``update``."""
    deltas, update = np.array(deltas, dtype=float), np.array(update, dtype=float)
    K, d = update.shape
    values = np.zeros(K + 1) if values is None else np.array(values, dtype=float)
    return Ascent(deltas, update, update, np.ones(K, dtype=bool), values, np.ones((K + 1, d)), np.ones(K))


def spy_policy_passes(monkeypatch, calls):
    """Record every layer recursion, through policy's own name and any module's import of it, as "value",
    "tangent" or "value and tangent", and every public jvp call as "jvp"."""
    def recursion(fn):
        def wrapper(layers, activations, X, T=None, value=True):
            calls.append("tangent" if not value else "value" if T is None else "value and tangent")
            return fn(layers, activations, X, T, value)
        return wrapper

    def public_jvp(fn):
        return lambda *args: calls.append("jvp") or fn(*args)

    for module in (policy_module, verification):
        for name, wrap in (("_mlp", recursion), ("jvp", public_jvp)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def test_segment_scan_takes_one_value_and_tangent_pass_and_one_value_pass(monkeypatch):
    env = soft_env([0.2, -0.5, 0.7])
    members = [init_policy([3, 5, 3], seed=seed) for seed in range(3)]
    pset, inner = PerturbationSet(p=2, epsilon=0.5, dim=3), InnerLoopConfig(eta=0.3, steps=4)
    stack = stack_policies(members)
    S, A = (x.reshape(3, 2, -1) for x in samples(env, range(6)))
    record = pga_batch(stack, S, A, env, pset, inner)
    s, a = sample(env, 1)
    traj = pga_run(members[1], s, a, env, pset, inner)
    calls, losses = [], []
    spy_policy_passes(monkeypatch, calls)
    monkeypatch.setattr(verification, "loss", lambda *args: losses.append(1) or environments.loss(*args))
    scans = [lambda: verification._segment_scan(stack, env, S, A, record, 4)]
    scans.append(lambda: estimate_C(members[1], env, s, a, traj))
    for scan in scans:
        calls.clear()
        losses.clear()
        scan()
        # the stencil's neighbours take one value pass; each probe point's output and J v one pass, not five
        assert sorted(calls) == ["value", "value and tangent"]
        assert len(losses) == 2


def test_estimate_c_checks_direction_and_step_before_any_pass(monkeypatch):
    env = quad_env([0.7, -0.2])
    params = init_policy([2, 4, 2], seed=1)
    s, a = sample(env, 1)
    calls = []
    spy_policy_passes(monkeypatch, calls)
    non_unit = hand_record([[0.0, 0.0], [0.2, 0.0]], [[2.0, 0.0]])
    with pytest.raises(ConfigError, match="^direction must be a unit vector$"):
        estimate_C(params, env, s, a, non_unit)
    # a NaN iterate gives a NaN default step at every point of its segments
    nan_iterate = hand_record([[0.0, 0.0], [np.nan, 0.0], [0.1, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="^finite-difference step h must be a finite number > 0$"):
        estimate_C(params, env, s, a, nan_iterate)
    assert calls == []


# -- effective smoothness -----------------------------------------------------


def test_smoothness_tight_for_linear_quadratic():
    # curvature equals ||J v||^2 exactly; a large h keeps rounding negligible
    env = quad_env([1.0, -0.5])
    params = linear_policy(np.array([[1.5, 0.2], [-0.3, 0.8]]))
    pset = PerturbationSet(p=2, epsilon=0.8, dim=2)
    inner = InnerLoopConfig(eta=0.3, steps=4)
    s, a = sample(env, 3)
    report = check_effective_smoothness(params, env, (s, a), pset, inner, h=0.25)
    assert report.passed
    assert report.c_hat <= 1e-5
    for p in report.points:
        assert abs(p.curvature - p.amplification**2) <= 1e-9


def test_smoothness_vacuous_when_epsilon_zero():
    env = quad_env([1.0, 0.0])
    params = linear_policy(np.eye(2))
    pset = PerturbationSet(p=2, epsilon=0.0, dim=2)
    report = check_effective_smoothness(params, env, (np.zeros(2), np.zeros(2)), pset, InnerLoopConfig(eta=0.5, steps=3))
    assert report.passed
    assert report.gamma_adv_hat == 0.0 and report.l_eff_bound == 0.0 and not report.points


@pytest.mark.parametrize("make_env", [lambda: quad_env([0.6, -0.8, 0.3]), lambda: soft_env([0.2, -0.5, 0.7])])
def test_smoothness_holds_across_seeds(make_env):
    env = make_env()
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    inner = InnerLoopConfig(eta=0.3, steps=5)
    for seed in range(8):
        params = init_policy([3, 6, 3], seed=seed)
        report = check_effective_smoothness(params, env, sample(env, seed), pset, inner)
        assert report.passed, report.violations


# -- ascent stability ---------------------------------------------------------


def test_stability_hand_case_exact():
    env = quad_env([1.0, 0.0])
    params = linear_policy(np.eye(2))
    pset = PerturbationSet(p=math.inf, epsilon=2.0, dim=2)
    inner = InnerLoopConfig(eta=1.0, steps=1)
    pair = (np.zeros(2), np.zeros(2))
    traj = pga_run(params, pair[0], pair[1], env, pset, inner)
    assert traj.values.tolist() == [0.5, 2.0]
    assert np.array_equal(traj.deltas[1], np.array([-1.0, 0.0]))
    smooth = check_effective_smoothness(params, env, pair, pset, inner, h=0.25)
    report = check_pga_stability(params, env, pair, pset, inner, smoothness=smooth)
    assert report.premise_ok and report.passed
    # interior gain 1.5 against the promised eta/2 * ||grad||^2 = 0.5
    assert report.steps[0]["interior_slack"] == pytest.approx(1.0, abs=1e-12)


def test_stability_stationary_point():
    env = quad_env([0.0, 0.0])
    params = scale_policy(init_policy([2, 4, 2], seed=1), 0.0)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=2)
    inner = InnerLoopConfig(eta=0.5, steps=3)
    pair = sample(env, 0)
    report = check_pga_stability(params, env, pair, pset, inner)
    assert report.passed
    for step in report.steps:
        assert step["gain"] == 0.0


@pytest.mark.parametrize("make_env", [lambda: quad_env([0.6, -0.8, 0.3]), lambda: soft_env([0.2, -0.5, 0.7])])
def test_stability_across_seeds_at_safe_step(make_env):
    env = make_env()
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    inner = InnerLoopConfig(eta=0.3, steps=5)
    for seed in range(8):
        params = init_policy([3, 6, 3], seed=seed)
        pair = sample(env, seed)
        cfg, smooth = stable_step_size(params, env, pair, pset, inner)
        report = check_pga_stability(params, env, pair, pset, cfg, smoothness=smooth)
        assert report.premise_ok
        assert report.passed, report.violations


def test_stability_oversized_step_recorded_not_asserted():
    # eta = 10 / L_eff violates the premise; the outcome is informational
    env = soft_env([0.2, -0.5, 0.7])
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    inner = InnerLoopConfig(eta=0.3, steps=5)
    outcomes = []
    for seed in range(8):
        params = init_policy([3, 6, 3], seed=seed)
        pair = sample(env, seed)
        smooth = check_effective_smoothness(params, env, pair, pset, inner)
        if smooth.l_eff_bound == 0.0:
            continue
        big = InnerLoopConfig(eta=10.0 / smooth.l_eff_bound, steps=5)
        report = check_pga_stability(params, env, pair, pset, big)
        assert not report.premise_ok
        outcomes.append(report.passed)
    assert outcomes  # at least one oversized run was actually exercised


@pytest.mark.parametrize("g0, change, unresolved", [(1e8, -1.0, False), (7.11164644454538e153, 0.0, True)])
def test_stability_flags_an_ascent_shortfall_within_the_objectives_rounding(g0, change, unresolved):
    # one step of 0.1 at eta 0.1 promises a gain of 0.05 and more: losing 1.0 at |g| ~ 1e8 is resolved, while
    # at |g| ~ 7e153 a value that never changes leaves a shortfall far below 4 ulps of g
    env = quad_env([1.0, 0.0])
    params = linear_policy(np.eye(2))
    pset, inner = PerturbationSet(p=2, epsilon=0.5, dim=2), InnerLoopConfig(eta=0.1, steps=1)
    pair = (np.zeros(2), np.zeros(2))
    smooth = check_effective_smoothness(params, env, pair, pset, inner, h=0.25)
    traj = hand_record([[0.0, 0.0], [0.1, 0.0]], [[1.0, 0.0]], [g0, g0 + change])
    report = check_pga_stability(params, env, pair, pset, inner, smoothness=dataclasses.replace(smooth, trajectory=traj))
    assert report.premise_ok and not report.passed
    assert {v["inequality"] for v in report.violations} == {"projected_ascent", "interior_ascent"}
    for v in report.violations:
        assert v.get("unresolved", False) is unresolved


def test_stability_rejects_report_from_another_step_size(monkeypatch):
    env = quad_env([0.6, -0.8, 0.3])
    params = init_policy([3, 6, 3], seed=0)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=3)
    pair = sample(env, 0)
    inner = InnerLoopConfig(eta=0.3, steps=4)
    smooth = check_effective_smoothness(params, env, pair, pset, inner)
    other = InnerLoopConfig(eta=0.2, steps=4)
    with pytest.raises(ConfigError, match="measured at"):
        check_pga_stability(params, env, pair, pset, other, smoothness=smooth)
    with pytest.raises(ConfigError, match="measured at"):
        stable_step_size(params, env, pair, pset, other, smoothness=smooth)
    with pytest.raises(ConfigError, match="measured at"):
        check_pga_stability(params, env, pair, pset, InnerLoopConfig(eta=0.3, steps=3), smoothness=smooth)
    calls = []
    monkeypatch.setattr(verification, "pga_run", lambda *args: calls.append(args) or pga_run(*args))
    report = check_pga_stability(params, env, pair, pset, inner)
    assert len(calls) == 1  # the smoothness report's ascent supplies the iterates
    reused = check_pga_stability(params, env, pair, pset, inner, smoothness=smooth)
    assert len(calls) == 1
    assert reused.steps == report.steps and reused.violations == report.violations


# -- verify suite -------------------------------------------------------------


def _counted_suite(monkeypatch, eta, witness_dims=(2,)):
    """verify_suite on a [3,6,3] net with every ascent recorded as (entry,
    whether it ran on the suite's environment, states, config): the stacked
    ``pga_batch``, the one-row ``pga_run`` and the step-size search's
    ``_ascend`` of ``verification``, and the inclusion check's ``pga_batch``.
    An ``_ascend`` call records its per-model step sizes in place of the config."""
    env = quad_env([0.6, -0.8, 0.3])
    pset = PerturbationSet(p=2, epsilon=2.0, dim=3)
    inner = InnerLoopConfig(eta=eta, steps=4)
    calls = []

    def counting(entry, ascent):
        def spy(params, s, a, env_, pset_, cfg, *args, **kwargs):
            etas = np.ravel(kwargs["eta"]).tolist() if "eta" in kwargs else cfg
            calls.append((entry, env_ is env, np.array(s, dtype=float), etas))
            return ascent(params, s, a, env_, pset_, cfg, *args, **kwargs)

        return spy

    for module, name in (
        (verification, "pga_batch"),
        (verification, "pga_run"),
        (verification, "_ascend"),
    ):
        entry = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        monkeypatch.setattr(module, name, counting(entry, getattr(module, name)))
    report, trajectories = verify_suite(
        env,
        [3, 6, 3],
        ["tanh", "identity"],
        pset,
        inner,
        RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0),
        seeds=[0, 1, 2],
        n_samples=2,
        witness_dims=witness_dims,
    )
    return env, pset, inner, report, trajectories, calls


def _is_witness_ascent(call):
    """A class-witness ascent: both gains of one grid point, (2, 1, d) rows
    at the witness's inner config."""
    _, _, S, cfg = call
    return cfg == InnerLoopConfig(eta=0.5, steps=4) and S.shape[:2] == (2, 1)


def _settling_etas(params, env, pair, pset, inner, safety=0.9):
    """The step sizes the search visits for one seed, each measured on the
    lone policy: the configured eta, then one per round that shrinks it."""
    etas = [inner.eta]
    for _ in range(8):
        cfg = InnerLoopConfig(eta=etas[-1], steps=inner.steps, eps0=inner.eps0)
        bound = check_effective_smoothness(params, env, pair, pset, cfg).l_eff_bound
        if bound == 0.0 or cfg.eta <= safety / bound:
            break
        etas.append(safety / bound)
    return etas


@pytest.mark.parametrize("eta", [0.1, 8.0])
def test_verify_suite_runs_one_stacked_ascent_per_step_size_round(monkeypatch, eta):
    env, pset, inner, report, _, calls = _counted_suite(monkeypatch, eta)
    monkeypatch.undo()  # the lone-policy references below run unrecorded
    stability = {c["seed"]: c["margins"]["eta"] for c in report["checks"] if c["name"] == "pga_stability"}
    witnesses = sum(c["name"] == "class_witness" for c in report["checks"])
    states = np.array([sample(env, seed)[0] for seed in stability])
    stacked = [c for c in calls if c[0] == "verification.pga_batch"]
    # each class-witness grid point runs its two gains as one ascent on an environment of its own
    witness_runs = [c for c in stacked if _is_witness_ascent(c)]
    assert len(witness_runs) == witnesses // 2 and not any(own for _, own, _, _ in witness_runs)
    # one stacked ascent covers every seed at the configured eta: its sample row, then its two inclusion rows
    stacked = [c for c in stacked if not _is_witness_ascent(c)]
    assert len(stacked) == 1
    _, own, S, cfg = stacked[0]
    assert own and cfg == inner and S.shape == (3, 3, 3) and np.array_equal(S[:, :1], states[:, None])
    inclusion_states = [[sample(env, 1000 * seed + k)[0] for k in range(2)] for seed in stability]
    assert np.array_equal(S[:, 1:], inclusion_states)
    # the constraint levels read that record: the regularizers run no ascent of their own
    assert not hasattr(regularizers, "pga_batch")
    # no ascent runs on a lone policy
    assert not [c for c in calls if c[0] == "verification.pga_run"]
    # each round that shrinks eta runs one stacked ascent over exactly the seeds it shrinks, each at its own eta
    visited = [  # per seed, in the order of ``states``
        _settling_etas(init_policy([3, 6, 3], ["tanh", "identity"], seed=seed), env, sample(env, seed), pset, inner)
        for seed in stability
    ]
    rounds = [c for c in calls if c[0] == "verification._ascend"]
    assert len(rounds) == max(map(len, visited)) - 1
    for r, (_, own, S, etas) in enumerate(rounds, start=1):
        shrunk = [k for k, seq in enumerate(visited) if len(seq) > r]
        assert own and np.array_equal(S, states[shrunk][:, None])
        assert etas == [visited[k][r] for k in shrunk]
    assert list(stability.values()) == [seq[-1] for seq in visited]
    assert len(calls) == 1 + len(rounds) + witnesses // 2
    assert bool(rounds) == (eta == 8.0)


def test_verify_suite_runs_one_witness_ascent_per_grid_point(monkeypatch):
    *_, report, _, calls = _counted_suite(monkeypatch, 0.1, witness_dims=(2, 4))
    witnesses = [c["margins"]["dim"] for c in report["checks"] if c["name"] == "class_witness"]
    assert witnesses == [2, 2] + [4] * 6
    runs = [c for c in calls if not c[1]]  # the ascents on an environment other than the suite's
    # grid points (2, 1), (4, 1), (4, 2) and (4, 3): one ascent each, over both gains
    assert len(runs) == 4 and all(_is_witness_ascent(c) and c[0] == "verification.pga_batch" for c in runs)
    assert [c[2].shape for c in runs] == [(2, 1, 2)] + [(2, 1, 4)] * 3


def test_verify_suite_draws_its_sample_rows_in_one_call(monkeypatch):
    calls = []

    def counting(name, draw):
        return lambda env, seeds: calls.append((name, seeds)) or draw(env, seeds)

    monkeypatch.setattr(verification, "samples", counting("samples", verification.samples))
    monkeypatch.setattr(verification, "sample", counting("sample", verification.sample))
    *_, report, _, _ = _counted_suite(monkeypatch, 0.1, witness_dims=(2, 4))
    # every seed's sample row s, then its inclusion rows 1000 * s + k, in one call
    assert calls[:1] == [("samples", [0, 0, 1, 1, 1000, 1001, 2, 2000, 2001])]
    # and one start state per class-witness grid point, (2, 1), (4, 1), (4, 2) and (4, 3), seeded by k
    witnesses = sum(c["name"] == "class_witness" for c in report["checks"])
    assert calls[1:] == [("sample", k) for k in (1, 1, 2, 3)] and len(calls[1:]) == witnesses // 2


def test_verify_suite_gives_no_two_seeds_an_inclusion_row_in_common(monkeypatch):
    # seed s's inclusion rows are max(1000, n_samples) * s + k: with 1001 samples, 1000 * s + k would hand row 1000
    # to both seed 0 and seed 1
    calls, draw = [], verification.samples
    monkeypatch.setattr(verification, "samples", lambda env, seeds: calls.append(list(seeds)) or draw(env, seeds))
    env = quad_env([0.6, -0.8, 0.3])
    pset, inner = PerturbationSet(p=2, epsilon=0.5, dim=3), InnerLoopConfig(eta=0.3, steps=1)
    reg = RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0)
    verify_suite(env, [3, 4, 3], None, pset, inner, reg, seeds=[0, 1], n_samples=1001, grid=1, witness_dims=(2,))
    # each seed's block of the one call: its sample row, then its inclusion rows
    (rows,) = calls
    assert rows[0] == 0 and rows[1002] == 1 and len(rows) == 2 * 1002
    rows = rows[1:1002] + rows[1003:]
    assert rows == [s * 1001 + k for s in (0, 1) for k in range(1001)]
    assert len(rows) == 2002 == len(set(rows))


def test_verify_suite_after_shrinking_eta_matches_fresh_run(monkeypatch):
    env, pset, inner, report, trajectories, _ = _counted_suite(monkeypatch, 8.0)
    shrunk = 0
    for check in report["checks"]:
        if check["name"] != "pga_stability":
            continue
        seed = check["seed"]
        params = init_policy([3, 6, 3], ["tanh", "identity"], seed=seed)
        pair = sample(env, seed)
        cfg = InnerLoopConfig(eta=check["margins"]["eta"], steps=inner.steps, eps0=inner.eps0)
        shrunk += cfg.eta < inner.eta
        fresh = pga_run(params, pair[0], pair[1], env, pset, cfg)
        assert trajectory_records(trajectories[seed]) == trajectory_records(fresh)
        stability = check_pga_stability(params, env, pair, pset, cfg)
        smooth = check_effective_smoothness(params, env, pair, pset, cfg)
        assert check["margins"] == {
            "violations": stability.violations,
            "eta": stability.eta,
            "premise_ok": stability.premise_ok,
        }
        assert check["constants"] == smooth.constants()
        assert check["pass"] == (stability.passed or not stability.premise_ok)
    assert shrunk  # at least one seed ran at a shrunk eta


def _report_fields(report) -> dict:
    """Every field of a certificate report; an ascent record as its trajectory
    records and its arrays, which compare by value."""
    out = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, Ascent):
            arrays = [getattr(value, g.name).tolist() for g in dataclasses.fields(Ascent)]
            value = (trajectory_records(value), arrays)
        out[f.name] = value
    return out


@pytest.mark.parametrize(
    "p, epsilon, eta, seeds",
    [
        (2, 0.5, 0.3, [0, 1, 2, 5]),
        (math.inf, 0.25, 0.3, [0, 1, 2, 5]),
        (2, 0.0, 0.3, [0, 1, 2]),  # no ascent ever moves
        (2, 2.0, 8.0, [0, 1, 2]),  # a seed whose step-size search shrinks eta, beside seeds whose does not
        (math.inf, 0.25, 0.3, [4]),  # a stack of one, which keeps its model axis
        (math.inf, 0.25, 8.0, [0, 1, 2, 3, 4, 5]),  # two rounds: the first shrinks four seeds, the second one of them
    ],
)
def test_stacked_certificates_equal_one_sample_calls_row_by_row(monkeypatch, p, epsilon, eta, seeds):
    env = quad_env([0.6, -0.8, 0.3]) if p == 2 else soft_env([0.2, -0.5, 0.7])
    pset = PerturbationSet(p=p, epsilon=epsilon, dim=3)
    inner = InnerLoopConfig(eta=eta, steps=4)
    members = [init_policy([3, 6, 3], seed=seed) for seed in seeds]
    stack = stack_policies(members)
    pairs = [sample(env, seed) for seed in seeds]
    S, A = (np.array(x)[:, None] for x in zip(*pairs))
    smooths = verification._smoothness(stack, env, S, A, pga_batch(stack, S, A, env, pset, inner), inner)
    S3, A3 = (x.reshape(len(seeds), 3, -1) for x in samples(env, [seed * 1000 + k for seed in seeds for k in range(3)]))
    inclusions = verification._inclusion(stack, S3, pga_batch(stack, S3, A3, env, pset, inner), 1.0)
    settled, shrunk = [], 0
    for params, pair, smooth, inclusion, seed in zip(members, pairs, smooths, inclusions, seeds):
        one = check_effective_smoothness(params, env, pair, pset, inner)
        assert _report_fields(smooth) == _report_fields(one)
        one_inclusion = check_inclusion(params, env, pset, inner, 1.0, 3, seed=seed * 1000)
        assert _report_fields(inclusion) == _report_fields(one_inclusion)
        cfg, smooth_stab = stable_step_size(params, env, pair, pset, inner, smoothness=one)
        assert cfg == smooth_stab.inner
        shrunk += cfg.eta < inner.eta
        settled.append((params, pair, cfg, smooth_stab))
        if epsilon == 0.0:
            assert not smooth.points and smooth.l_eff_bound == 0.0 and not smooth.trajectory.moved.any()
    assert (0 < shrunk < len(seeds)) == (eta == 8.0)
    # the stacked search: one ascent per round over the models it shrinks, and every settled
    # report is the lone policy's report at the settled eta, bit for bit
    sizes, ascend = [], verification._ascend

    def counted(params, *args, **kwargs):
        sizes.append(params.models)
        return ascend(params, *args, **kwargs)

    monkeypatch.setattr(verification, "_ascend", counted)
    searched = verification._step_sizes(members, env, S, A, pset, smooths, 0.9, 5)
    monkeypatch.undo()
    visited = [_settling_etas(params, env, pair, pset, inner) for params, pair in zip(members, pairs)]
    assert sizes == [sum(len(etas) > r for etas in visited) for r in range(1, max(map(len, visited)))]
    assert (sizes == [4, 1]) == (len(seeds) == 6)
    for (params, pair, cfg, smooth_stab), report in zip(settled, searched):
        assert report.inner == cfg
        assert _report_fields(report) == _report_fields(smooth_stab)
        assert _report_fields(report) == _report_fields(check_effective_smoothness(params, env, pair, pset, cfg))
    stabilities = verification._stability(pset, [smooth_stab for *_, smooth_stab in settled])
    for (params, pair, cfg, smooth_stab), stability in zip(settled, stabilities):
        one = check_pga_stability(params, env, pair, pset, cfg, smoothness=smooth_stab)
        assert _report_fields(stability) == _report_fields(one)
        assert _report_fields(one) == _report_fields(check_pga_stability(params, env, pair, pset, cfg))
    # the suite reports exactly these certificates, and the trajectories they were measured on
    reg = RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0)
    report, trajectories = verify_suite(
        env, [3, 6, 3], None, pset, inner, reg, seeds=seeds, n_samples=3, witness_dims=(2,)
    )
    checks = {(c["name"], c["seed"]): c for c in report["checks"]}
    for seed, smooth, inclusion, (*_, smooth_stab), stability in zip(seeds, smooths, inclusions, settled, stabilities):
        assert checks["effective_smoothness", seed]["constants"] == smooth.constants()
        assert checks["effective_smoothness", seed]["margins"]["violations"] == smooth.violations
        assert checks["pga_stability", seed]["constants"] == smooth_stab.constants()
        assert checks["pga_stability", seed]["margins"]["violations"] == stability.violations
        assert checks["pga_stability", seed]["margins"]["eta"] == smooth_stab.inner.eta
        assert checks["inclusion", seed]["margins"]["sup_proxy"] == inclusion.sup_proxy
        assert checks["inclusion", seed]["margins"]["violations"] == inclusion.violations
        assert trajectory_records(trajectories[seed]) == trajectory_records(smooth_stab.trajectory)


@pytest.mark.parametrize(
    "dims, ball_dim, field",
    [([3, 4, 2], 2, "dims"), ([2, 4, 3], 2, "dims"), ([2, 4, 2], 3, "pset.dim")],
)
@pytest.mark.parametrize(
    "entry",
    [
        "check_inclusion",
        "check_effective_smoothness",
        "stable_step_size",
        "check_pga_stability",
        "evaluate_robust_risk",
    ],
)
def test_public_entries_check_shapes_before_any_ascent(monkeypatch, entry, dims, ball_dim, field):
    def no_ascent(*args, **kwargs):
        raise AssertionError("an ascent ran before the shapes were checked")

    for module in (inner_module, trainer, verification):
        monkeypatch.setattr(module, "pga_batch", no_ascent)
    monkeypatch.setattr(verification, "pga_run", no_ascent)
    env = quad_env([0.5, -0.5])
    params = init_policy(dims, seed=0)
    pset = PerturbationSet(p=2, epsilon=0.3, dim=ball_dim)
    inner = InnerLoopConfig(eta=0.3, steps=2)
    pair = sample(env, 0)
    call = {
        "check_inclusion": lambda: check_inclusion(params, env, pset, inner, 1.0, 2),
        "check_effective_smoothness": lambda: check_effective_smoothness(params, env, pair, pset, inner),
        "stable_step_size": lambda: stable_step_size(params, env, pair, pset, inner),
        "check_pga_stability": lambda: check_pga_stability(params, env, pair, pset, inner),
        "evaluate_robust_risk": lambda: evaluate_robust_risk(params, env, pset, inner, 2, seed=0),
    }[entry]
    with pytest.raises(ConfigError, match=f"^{field}: "):
        call()


@pytest.mark.parametrize(
    "entry, kwargs, field",
    [
        ("check_effective_smoothness", {"grid": 0}, "grid"),
        ("check_effective_smoothness", {"h": 0.0}, "h"),
        ("check_effective_smoothness", {"h": -1.0}, "h"),
        ("check_effective_smoothness", {"h": math.nan}, "h"),
        ("check_effective_smoothness", {"tol_scale": math.nan}, "tol_scale"),
        ("check_effective_smoothness", {"tol_scale": -1.0}, "tol_scale"),
        ("check_effective_smoothness", {"tol_scale": 0.0}, "tol_scale"),
        ("stable_step_size", {"grid": 0}, "grid"),
        ("stable_step_size", {"grid": 2.5}, "grid"),
        ("stable_step_size", {"safety": 1.5}, "safety"),
        ("stable_step_size", {"safety": True}, "safety"),
        ("check_pga_stability", {"grid": 0}, "grid"),
        ("check_pga_stability", {"grid": 2.5}, "grid"),
    ],
)
def test_one_sample_entries_check_their_arguments_before_the_ascent(monkeypatch, entry, kwargs, field):
    ascents = []
    monkeypatch.setattr(verification, "pga_run", lambda *args, **kw: ascents.append(1) or pga_run(*args, **kw))
    env = quad_env([0.5, -0.5])
    call = getattr(verification, entry)
    with pytest.raises(ConfigError, match=f"^{field}: ") as raised:
        call(init_policy([2, 4, 2], seed=0), env, sample(env, 0), PerturbationSet(2, 0.3, 2),
             InnerLoopConfig(eta=0.3, steps=2), **kwargs)
    assert raised.value.field == field and not ascents


# -- inclusion ----------------------------------------------------------------


def test_inclusion_small_policy_passes():
    env = quad_env([0.5, -0.5])
    params = linear_policy(0.5 * np.eye(2))
    report = check_inclusion(
        params, env, PerturbationSet(p=2, epsilon=0.4, dim=2), InnerLoopConfig(eta=0.3, steps=4), gamma=1.0, n_samples=5
    )
    assert report.status == "pass"
    assert report.sup_proxy <= 1.0
    assert not report.violations


def test_inclusion_premise_not_met_is_skipped():
    env = quad_env([0.5, -0.5])
    params = linear_policy(2.0 * np.eye(2))
    report = check_inclusion(
        params, env, PerturbationSet(p=2, epsilon=0.4, dim=2), InnerLoopConfig(eta=0.3, steps=3), gamma=1.0, n_samples=3
    )
    assert report.status == "premise_not_met"


def test_inclusion_on_trained_global_model_at_achieved_budget():
    from aajrlab.regularizers import RegularizerConfig
    from aajrlab.trainer import TrainConfig, train

    env = quad_env([0.5, -0.5])
    pset = PerturbationSet(p=2, epsilon=0.3, dim=2)
    inner = InnerLoopConfig(eta=0.3, steps=3)
    cfg = TrainConfig(
        mode="robust_global",
        outer_lr=0.05,
        outer_steps=40,
        batch_size=4,
        inner=inner,
        pset=pset,
        reg=RegularizerConfig(lam=5.0, gamma=0.3, gamma_adv=0.3),
        seed=0,
    )
    params, metrics = train(cfg, env, init_policy([2, 4, 2], seed=0))
    assert metrics.aborted_step is None
    rows = trainer._eval_draws(env, 10, seed=500)
    achieved = trainer._evaluate(stack_policies([params]), env, pset, inner, *rows, 10, 10)[0]["achieved_spectral"]
    # small headroom: the check draws its own sample set
    report = check_inclusion(params, env, pset, inner, gamma=achieved * 1.05, n_samples=10, seed=500)
    assert report.status == "pass"
    assert not report.violations


def test_inclusion_levels_match_dense_oracle_at_every_visited_state():
    env = quad_env([0.4, 0.1, -0.3])
    pset = PerturbationSet(p=2, epsilon=0.4, dim=3)
    inner = InnerLoopConfig(eta=0.4, steps=4)
    params = init_policy([3, 5, 3], seed=3)
    sigmas, amps = [], []
    for k in range(4):
        s, a = sample(env, 20 + k)
        traj = pga_run(params, s, a, env, pset, inner)
        jacobians = [assemble_jacobian(params, s + delta) for delta in traj.deltas]
        sigmas += [np.linalg.svd(J, compute_uv=False)[0] for J in jacobians]
        amps += [(k, t, np.linalg.norm(J @ u)) for t, (J, u) in enumerate(zip(jacobians, traj.ascent))]
    assert len(sigmas) == 4 * 5 and len(amps) == 4 * 4
    # a budget far below every amplification reports every step as a violation, with its amplification
    report = check_inclusion(params, env, pset, inner, gamma=1e-12, n_samples=4, seed=20)
    assert report.sup_proxy == pytest.approx(max(sigmas), rel=1e-12, abs=0.0)
    assert report.max_dir_amp == pytest.approx(max(amp for _, _, amp in amps), rel=1e-12, abs=0.0)
    assert [(v["sample"], v["step"]) for v in report.violations] == [(k, t) for k, t, _ in amps]
    for v, (_, _, amp) in zip(report.violations, amps):
        assert v["dir_amp"] == pytest.approx(amp, rel=1e-12, abs=0.0)


def test_inclusion_rejects_an_empty_sample():
    env = quad_env([0.5, -0.5])
    pset, inner = PerturbationSet(p=2, epsilon=0.4, dim=2), InnerLoopConfig(eta=0.3, steps=2)
    for n in (0, -1):
        with pytest.raises(ConfigError, match="^n_samples: "):
            check_inclusion(linear_policy(np.eye(2)), env, pset, inner, gamma=1.0, n_samples=n)


def test_inclusion_random_nets_never_violate_when_premise_met():
    env = quad_env([0.4, 0.1, -0.3])
    pset = PerturbationSet(p=2, epsilon=0.4, dim=3)
    inner = InnerLoopConfig(eta=0.4, steps=4)
    for seed in range(6):
        params = scale_policy(init_policy([3, 5, 3], seed=seed), 0.5)
        report = check_inclusion(params, env, pset, inner, gamma=1.0, n_samples=5, seed=seed * 100)
        assert report.status in ("pass", "premise_not_met")
        if report.status == "pass":
            assert report.max_dir_amp <= report.gamma + 1e-9


# -- class witness ------------------------------------------------------------


def test_witness_axis_aligned_case():
    spec = WitnessSpec(gamma=1.0, offspace_gain=2.0, u_basis=np.array([[1.0], [0.0]]))
    assert np.array_equal(witness_matrix(spec), np.diag([1.0, 2.0]))
    report = class_witness(spec, [np.array([1.0, 0.0])])
    assert report.membership_ok
    assert report.sigma == pytest.approx(2.0, abs=1e-9)
    assert report.exclusion_ok
    assert report.e2e_u_in_subspace and report.e2e_directional_ok and report.e2e_global_violated
    assert report.passed


def test_witness_degenerate_equal_gains():
    spec = WitnessSpec(gamma=1.0, offspace_gain=1.0, u_basis=np.array([[1.0], [0.0]]))
    report = class_witness(spec, [np.array([1.0, 0.0])])
    assert report.membership_ok
    assert report.sigma == pytest.approx(1.0, abs=1e-12)
    assert not report.exclusion_ok  # strict expansion needs a strictly larger gain
    assert not report.e2e_global_violated
    assert not report.passed


def test_witness_random_subspace_matches_dense_svd():
    basis = random_orthonormal_basis(4, 2, seed=5)
    spec = WitnessSpec(gamma=0.5, offspace_gain=3.0, u_basis=basis)
    directions = subspace_directions(basis, 5, seed=9)
    report = class_witness(spec, directions, e2e_seed=5)
    J = witness_matrix(spec)
    sigma_svd = float(np.linalg.svd(J, compute_uv=False)[0])
    assert report.sigma == pytest.approx(sigma_svd, abs=1e-9)
    assert sigma_svd == pytest.approx(3.0, abs=1e-12)
    assert report.passed


def test_witness_validation_errors(monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("an ascent ran before the directions were checked")

    for module, name in ((inner_module, "pga_batch"), (verification, "pga_batch"), (verification, "pga_run")):
        monkeypatch.setattr(module, name, no_ascent)
    bad_basis = np.array([[1.0], [1.0]])  # not orthonormal
    with pytest.raises(ConfigError, match="orthonormal"):
        WitnessSpec(gamma=1.0, offspace_gain=2.0, u_basis=bad_basis)
    spec = WitnessSpec(gamma=1.0, offspace_gain=2.0, u_basis=np.array([[1.0], [0.0]]))
    inside = np.array([1.0, 0.0])
    with pytest.raises(ConfigError, match=r"direction has shape \(3,\), expected \(2,\)"):
        class_witness(spec, [inside, np.zeros(3)])
    with pytest.raises(ConfigError, match="subspace"):
        class_witness(spec, [inside, np.array([0.0, 1.0])])
    with pytest.raises(ConfigError, match="norm at most 1"):
        class_witness(spec, [inside, np.array([2.0, 0.0])])
    with pytest.raises(ConfigError, match="norm at most 1"):
        class_witness(spec, [np.array([np.nan, 0.0])])
    for seed in (-1, 2.5):
        with pytest.raises(ConfigError, match="e2e_seed must be an integer >= 0"):
            class_witness(spec, [inside], e2e_seed=seed)


def witness_by_policy(spec, directions, e2e_seed):
    """The class witness read back through its policy: one validated ``jvp``
    per direction, ``spectral_norm`` at the origin, and the distance of each
    ascent direction to the subspace by ``np.linalg.norm``."""
    params, P, d = witness_policy(spec), spec.projector(), spec.dim
    zero = np.zeros(d)
    max_amp = max([0.0] + [float(np.linalg.norm(jvp(params, zero, u))) for u in directions])
    sigma = float(spectral_norm(params, zero))
    rng = np.random.default_rng(e2e_seed)
    env = Environment("quadratic_congestion", rng.uniform(-1.0, 1.0, d), np.zeros((d, d)), d, projector=P)
    pset, inner = PerturbationSet(p=2, epsilon=0.5, dim=d), InnerLoopConfig(eta=0.5 / max(1.0, spec.gamma**2), steps=4)
    traj = pga_run(params, *sample(env, e2e_seed), env, pset, inner)
    max_off = max([0.0] + [float(np.linalg.norm(u - P @ u)) for u in traj.ascent])
    checks = [max_amp <= spec.gamma + 1e-9, sigma > spec.gamma + 1e-9, max_off <= 1e-9]
    checks.append(bool(np.all(traj.amps <= spec.gamma + 1e-9)))
    return WitnessReport(
        spec.gamma, spec.offspace_gain, d, spec.u_basis.shape[1], checks[0], sigma, checks[1], max_amp,
        checks[2], checks[3], checks[1], max_off, all(checks),
    )


def test_class_witness_equals_policy_oracle():
    # acceptance criterion 3's grid
    gamma = 0.7
    for d in (2, 4, 8):
        for k in range(1, d):
            basis = random_orthonormal_basis(d, k, seed=d * 100 + k)
            directions = subspace_directions(basis, 5, seed=k)
            for factor in (2.0, 10.0):
                spec = WitnessSpec(gamma=gamma, offspace_gain=factor * gamma, u_basis=basis)
                got, want = class_witness(spec, directions, e2e_seed=d + k), witness_by_policy(spec, directions, d + k)
                for f in dataclasses.fields(WitnessReport):
                    assert getattr(got, f.name) == getattr(want, f.name), (d, k, factor, f.name)
                    assert getattr(got, f.name) is not None


def test_class_witness_reads_its_map_once(monkeypatch):
    calls, depth = [], []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, bool(depth)))
            depth.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth.pop()

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(regularizers, "spectral_norm", spy("spectral_norm", regularizers.spectral_norm))
    monkeypatch.setattr(verification, "pga_batch", spy("pga_batch", verification.pga_batch))
    for module in (policy_module, inner_module):  # verification imports no jvp
        monkeypatch.setattr(module, "jvp", spy("jvp", module.jvp))
    for d in (2, 4, 8):
        basis = random_orthonormal_basis(d, d // 2, seed=d)
        spec = WitnessSpec(gamma=1.0, offspace_gain=3.0, u_basis=basis)
        calls.clear()
        assert class_witness(spec, subspace_directions(basis, 3, seed=d), e2e_seed=d).passed
        outside = [name for name, nested in calls if not nested]
        assert sorted(outside) == ["pga_batch", "svd"]
        # the ascent's own amplifications, one jvp per step
        assert [name for name, nested in calls if nested] == ["jvp"] * 4


def test_stacked_witnesses_equal_each_gain_alone(monkeypatch):
    records = []
    batch = verification.pga_batch
    monkeypatch.setattr(verification, "pga_batch", lambda *args: records.append(batch(*args)) or records[-1])
    # acceptance criterion 3's grid, at two budgets
    for gamma in (0.7, 1.0):
        for d in (2, 4, 8):
            for k in range(1, d):
                basis = random_orthonormal_basis(d, k, seed=d * 100 + k)
                directions = subspace_directions(basis, 5, seed=k)
                specs = [WitnessSpec(gamma, factor * gamma, basis) for factor in (2.0, 10.0)]
                records.clear()
                stacked = verification._class_witnesses(specs, directions, d + k)
                assert len(records) == 1 and records[0].moved.shape == (2, 1, 4)
                c = np.random.default_rng(d + k).uniform(-1.0, 1.0, d)
                env = Environment("quadratic_congestion", c, np.zeros((d, d)), d, projector=specs[0].projector())
                pset, inner = PerturbationSet(p=2, epsilon=0.5, dim=d), InnerLoopConfig(eta=0.5, steps=4)
                for i, (spec, got) in enumerate(zip(specs, stacked)):
                    want = class_witness(spec, directions, e2e_seed=d + k)
                    for f in dataclasses.fields(WitnessReport):
                        assert getattr(got, f.name) == getattr(want, f.name), (gamma, d, k, i, f.name)
                    alone = pga_run(witness_policy(spec), *sample(env, d + k), env, pset, inner)
                    for f in dataclasses.fields(Ascent):
                        assert np.array_equal(getattr(records[0][i, 0], f.name), getattr(alone, f.name)), f.name


@pytest.mark.parametrize("seeds", [[], [0, 0], [1, 0, 1], [-1]])
def test_verify_suite_needs_distinct_nonnegative_seeds(seeds):
    env = quad_env([0.6, -0.8])
    with pytest.raises(ConfigError, match="seeds: "):
        verify_suite(
            env, [2, 2], ["identity"], PerturbationSet(p=2, epsilon=0.5, dim=2), InnerLoopConfig(eta=0.1, steps=2),
            RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0), seeds=seeds,
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"n_samples": 0},
        {"grid": 0},
        {"eta_safety": 0.0},
        {"eta_safety": 1.5},
        {"eta_safety": True},
        {"eta_safety": "0.9"},
        {"tol_curv_scale": -1.0},
        {"tol_curv_scale": 0.0},
        {"witness_dims": (1, 0)},
        {"witness_dims": (2, 65)},
        {"seeds": [0, 0]},
        # policy dims that do not map the 2-d states to the 2-d actions, and a 3-d ball
        {"policy_dims": [3, 6, 2], "activations": None},
        {"policy_dims": [2, 6, 3], "activations": None},
        {"pset": PerturbationSet(p=2, epsilon=0.5, dim=3)},
    ],
)
def test_verify_suite_rejects_bad_arguments_before_any_ascent(monkeypatch, bad):
    def no_ascent(*args, **kwargs):
        raise AssertionError("an ascent ran before the arguments were checked")

    for module, name in (
        (inner_module, "pga_batch"),
        (verification, "pga_batch"),
        (verification, "pga_run"),
        (verification, "_ascend"),
    ):
        monkeypatch.setattr(module, name, no_ascent)
    field = {"policy_dims": "dims", "pset": "pset.dim"}.get(next(iter(bad)), next(iter(bad)))
    with pytest.raises(ConfigError, match=f"^{field}: "):
        verify_suite(
            **{
                "env": quad_env([0.6, -0.8]),
                "policy_dims": [2, 2],
                "activations": ["identity"],
                "pset": PerturbationSet(p=2, epsilon=0.5, dim=2),
                "inner": InnerLoopConfig(eta=0.1, steps=2),
                "reg": RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0),
                "seeds": [0],
                "n_samples": 2,
                "witness_dims": (2,),
                **bad,
            }
        )
