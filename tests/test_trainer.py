"""Outer loop against hand-derived gradient steps and closed-form recursions."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aajrlab import cli, inner, policy, regularizers, tape, trainer
from aajrlab.environments import Environment, draws, loss_term
from aajrlab.errors import ConfigError, NumericError
from aajrlab.inner import InnerLoopConfig, PerturbationSet, pga_batch, pga_run
from aajrlab.policy import (
    Layer,
    PolicyParams,
    apply_gradient_step,
    gradient_norm,
    init_policy,
    jacobian,
    param_gradient,
    scale_policy,
    stack_policies,
)
from aajrlab.regularizers import RegularizerConfig, aajr_penalty, aajr_rows
from aajrlab.tape import dot, relu, sqrt
from aajrlab.trainer import (
    CSV_HEADER,
    RunMetrics,
    StepRecord,
    TrainConfig,
    evaluate_robust_risk,
    price_of_robustness,
    train,
)

from conftest import achieved_levels, linear_policy, nominal_risks, sweep_one_rung_per_round

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def nominal_risk(params, env, n_samples, seed):
    """The mean nominal loss over an evaluation draw."""
    return nominal_risks(params, env, n_samples, seed)[0][0]


def quad_env(c, A=None, state_dim=None, seed=0, peer_mode="independent"):
    c = np.asarray(c, dtype=float)
    m = len(c)
    return Environment(
        kind="quadratic_congestion",
        c=c,
        A=np.zeros((m, m)) if A is None else np.asarray(A, dtype=float),
        state_dim=m if state_dim is None else state_dim,
        seed=seed,
        peer_mode=peer_mode,
    )


def make_cfg(mode="nominal", lr=0.1, steps=1, batch=4, eta=0.3, K=2, eps=0.5, p=2, lam=0.0, gamma=1.0, seed=0):
    return TrainConfig(
        mode=mode,
        outer_lr=lr,
        outer_steps=steps,
        batch_size=batch,
        inner=InnerLoopConfig(eta=eta, steps=K),
        pset=PerturbationSet(p=p, epsilon=eps, dim=2),
        reg=RegularizerConfig(lam=lam, gamma=gamma, gamma_adv=gamma),
        seed=seed,
    )


def replicate_batch(env, cfg_seed, step, size):
    """Reproduce the documented batch draw: uniform state then uniform peers."""
    rng = np.random.default_rng([env.seed, cfg_seed, step])
    batch = []
    for _ in range(size):
        s = rng.uniform(-1.0, 1.0, env.state_dim)
        a = s.copy() if env.peer_mode == "mirror" else rng.uniform(-1.0, 1.0, env.peer_dim)
        batch.append((s, a))
    return batch


def test_nominal_single_step_matches_least_squares_gradient():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 2))
    c = rng.standard_normal(2)
    env = quad_env(c, A=A)
    W0 = rng.standard_normal((2, 2))
    b0 = rng.standard_normal(2)
    params0 = linear_policy(W0, b0)
    cfg = make_cfg(mode="nominal", lr=0.05, steps=1, batch=4, seed=3)
    params, metrics = train(cfg, env, params0)
    batch = replicate_batch(env, cfg.seed, 0, cfg.batch_size)
    dW = np.zeros((2, 2))
    db = np.zeros(2)
    for s, a in batch:
        r = W0 @ s + b0 + A @ a - c
        dW += np.outer(r, s)
        db += r
    dW /= len(batch)
    db /= len(batch)
    assert np.allclose(params.layers[0].weight, W0 - cfg.outer_lr * dW, rtol=0, atol=1e-14)
    assert np.allclose(params.layers[0].bias, b0 - cfg.outer_lr * db, rtol=0, atol=1e-14)
    assert metrics.aborted_step is None
    assert len(metrics.records) == 1


def test_all_modes_identical_with_inactive_knobs():
    # lambda = 0 and zero inner steps: every mode walks the same parameter path
    env = quad_env([0.5, -0.5])
    params0 = init_policy([2, 4, 2], seed=7)
    base = dict(lr=0.05, steps=5, batch=3, K=0, lam=0.0, seed=11)
    p_nom, m_nom = train(make_cfg(mode="nominal", **base), env, params0)
    for mode in ("robust_aajr", "robust_global", "robust_plain"):
        p_rob, m_rob = train(make_cfg(mode=mode, **base), env, params0)
        for l1, l2 in zip(p_nom.layers, p_rob.layers):
            assert np.array_equal(l1.weight, l2.weight)
            assert np.array_equal(l1.bias, l2.bias)
        for r1, r2 in zip(m_nom.records, m_rob.records):
            assert r1.nominal_loss == r2.nominal_loss
            assert r1.grad_norm == r2.grad_norm


def test_robust_plain_scalar_pencil_and_paper():
    # 1-d policy z = w*s + b, quadratic loss 0.5*(z - c)^2
    env = quad_env([0.8], state_dim=1)
    w0, b0, c0 = 1.3, 0.0, 0.8
    params0 = PolicyParams((Layer(np.array([[w0]]), np.array([b0]), "identity"),))
    eta, K, eps, lr = 0.4, 3, 0.6, 0.1
    cfg = TrainConfig(
        mode="robust_plain",
        outer_lr=lr,
        outer_steps=1,
        batch_size=1,
        inner=InnerLoopConfig(eta=eta, steps=K),
        pset=PerturbationSet(p=math.inf, epsilon=eps, dim=1),
        reg=RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0),
        seed=5,
    )
    params, _ = train(cfg, env, params0)
    (s, _a) = replicate_batch(env, cfg.seed, 0, 1)[0]
    s0 = float(s[0])
    # inner ascent recursion, then one outer descent step at fixed delta*
    delta = 0.0
    for _ in range(K):
        grad = w0 * (w0 * (s0 + delta) + b0 - c0)
        delta = min(eps, max(-eps, delta + eta * grad))
    x = s0 + delta
    r = w0 * x + b0 - c0
    w1 = w0 - lr * r * x
    b1 = b0 - lr * r
    assert params.layers[0].weight[0, 0] == pytest.approx(w1, abs=1e-14)
    assert params.layers[0].bias[0] == pytest.approx(b1, abs=1e-14)


def test_nominal_risk_zero_policy():
    env = quad_env([0.0, 0.0])
    params = linear_policy(np.zeros((2, 2)))
    assert nominal_risks(params, env, 16, seed=0) == [(0.0, 0.0)]


def test_nominal_risk_single_sample_is_one_loss():
    from aajrlab.environments import loss
    from aajrlab.policy import forward

    env = quad_env([0.4, 0.6])
    params = init_policy([2, 3, 2], seed=2)
    rng = np.random.default_rng([env.seed, 123])
    s = rng.uniform(-1, 1, 2)
    a = rng.uniform(-1, 1, 2)
    assert nominal_risk(params, env, 1, seed=123) == pytest.approx(
        loss(env, forward(params, s), a), rel=0, abs=0
    )


def test_nominal_risk_matches_streaming_second_pass():
    from aajrlab.environments import loss
    from aajrlab.policy import forward

    env = quad_env([0.4, -0.2])
    params = init_policy([2, 5, 2], seed=9)
    n, seed = 37, 77
    rng = np.random.default_rng([env.seed, seed])
    total = 0.0
    for _ in range(n):
        s = rng.uniform(-1, 1, 2)
        a = rng.uniform(-1, 1, 2)
        total += loss(env, forward(params, s), a)
    assert nominal_risk(params, env, n, seed) == pytest.approx(total / n, rel=1e-15)


def test_evaluate_robust_risk_trivial_cases():
    env = quad_env([0.5, 0.5])
    params = init_policy([2, 4, 2], seed=1)
    nominal = nominal_risk(params, env, 10, seed=3)
    # K = 0: no ascent steps
    r0 = evaluate_robust_risk(params, env, PerturbationSet(2, 0.4, 2), InnerLoopConfig(eta=0.3, steps=0), 10, 3)
    assert r0 == pytest.approx(nominal, rel=0, abs=0)
    # epsilon = 0: singleton perturbation set
    r1 = evaluate_robust_risk(params, env, PerturbationSet(2, 0.0, 2), InnerLoopConfig(eta=0.3, steps=4), 10, 3)
    assert r1 == pytest.approx(nominal, rel=0, abs=0)


def test_evaluate_robust_risk_matches_closed_form_recursion():
    env = quad_env([0.9, -0.3])
    params = linear_policy(np.eye(2))
    eta, K, eps = 0.3, 4, 0.5
    n, seed = 5, 21
    rng = np.random.default_rng([env.seed, seed])
    expected = []
    for _ in range(n):
        s = rng.uniform(-1, 1, 2)
        _a = rng.uniform(-1, 1, 2)
        delta = np.zeros(2)
        for _ in range(K):
            step = delta + eta * (s + delta - env.c)
            nrm = np.linalg.norm(step)
            delta = step if nrm <= eps else step * (eps / nrm)
        expected.append(0.5 * np.linalg.norm(s + delta - env.c) ** 2)
    got = evaluate_robust_risk(
        params, env, PerturbationSet(2, eps, 2), InnerLoopConfig(eta=eta, steps=K), n, seed
    )
    assert got == pytest.approx(float(np.mean(expected)), rel=1e-12)


def test_robust_risk_at_least_nominal_when_ascending():
    env = quad_env([0.7, 0.2])
    params = init_policy([2, 4, 2], seed=13)
    nominal = nominal_risk(params, env, 20, seed=5)
    robust = evaluate_robust_risk(
        params, env, PerturbationSet(2, 0.3, 2), InnerLoopConfig(eta=0.1, steps=5), 20, 5
    )
    assert robust >= nominal - 1e-9


def test_train_determinism_csv_identical():
    env = quad_env([0.5, -0.5])
    params0 = init_policy([2, 4, 2], seed=3)
    cfg = make_cfg(mode="robust_aajr", lr=0.05, steps=4, batch=3, K=2, lam=0.2, seed=6)
    _, m1 = train(cfg, env, params0)
    _, m2 = train(cfg, env, params0)
    assert m1.to_csv() == m2.to_csv()
    assert m1.to_csv().splitlines()[0] == CSV_HEADER


def test_train_objective_nonincreasing_convex_case():
    # linear policy on the quadratic environment: plain GD at small lr descends
    env = quad_env([0.6, -0.4], A=np.diag([0.5, 0.5]))
    params0 = linear_policy(np.array([[0.8, -0.2], [0.3, 0.1]]), np.array([0.1, -0.1]))
    cfg = make_cfg(mode="nominal", lr=1e-3, steps=30, batch=32, seed=2)
    params = params0
    risks = [nominal_risk(params, env, 256, seed=999)]
    for step in range(cfg.outer_steps):
        one = TrainConfig(
            mode=cfg.mode,
            outer_lr=cfg.outer_lr,
            outer_steps=1,
            batch_size=cfg.batch_size,
            inner=cfg.inner,
            pset=cfg.pset,
            reg=cfg.reg,
            seed=cfg.seed + step,
        )
        params, _ = train(one, env, params)
        risks.append(nominal_risk(params, env, 256, seed=999))
    for before, after in zip(risks, risks[1:]):
        assert after <= before + 1e-9


def test_train_aborts_on_divergence():
    env = quad_env([0.5, 0.5])
    params0 = linear_policy(np.eye(2))
    cfg = make_cfg(mode="nominal", lr=1e12, steps=40, batch=2, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, metrics = train(cfg, env, params0)
    assert metrics.aborted_step is not None
    assert len(metrics.records) == metrics.aborted_step
    for record in metrics.records:
        assert np.isfinite(record.nominal_loss)


def test_train_rejects_mismatched_policy():
    env = quad_env([0.5, 0.5])
    params0 = init_policy([3, 3], seed=0)
    with pytest.raises(ConfigError):
        train(make_cfg(), env, params0)


def test_price_of_robustness_degenerate_budget():
    # budget never binds: both penalized modes stay at lambda = 0 and train
    # identically, so the two gap estimates coincide exactly
    env = quad_env([0.5, -0.5], seed=1)
    cfg = make_cfg(mode="nominal", lr=0.1, steps=25, batch=4, K=2, eta=0.3, eps=0.1, gamma=1e6)
    report = price_of_robustness(
        env,
        cfg,
        seeds=[0, 1, 2],
        policy_dims=[2, 4, 2],
        eval_samples=64,
        achieved_samples=5,
    )
    assert report.t_hat == report.t_hat_ad
    assert abs(report.t_hat) <= 0.05
    assert len(report.per_seed) == 3
    for entry in report.per_seed:
        assert entry["robust_global"]["lambda"] == 0.0
        assert entry["robust_aajr"]["lambda"] == 0.0
    payload = report.to_json()
    assert set(payload) == {"gamma", "t_hat", "t_hat_ad", "pooled_se", "per_seed", "aggregate", "excluded"}


def test_price_of_robustness_needs_three_seeds():
    env = quad_env([0.5, -0.5])
    with pytest.raises(ConfigError):
        price_of_robustness(env, make_cfg(), seeds=[0, 1], policy_dims=[2, 4, 2])


def mirror_env():
    return quad_env([0.3, -0.2, 0.5, 0.1], A=2.0 * np.eye(4), seed=2, peer_mode="mirror")


def mirror_cfg(mode, batch, hinge=False, steps=1):
    return TrainConfig(
        mode=mode,
        outer_lr=0.1,
        outer_steps=steps,
        batch_size=batch,
        inner=InnerLoopConfig(eta=0.3, steps=4),
        pset=PerturbationSet(p=2, epsilon=0.3, dim=4),
        reg=RegularizerConfig(lam=0.7, gamma=0.4, gamma_adv=0.3, aajr_hinge=hinge),
        seed=5,
    )


@pytest.mark.parametrize("mode,hinge", [("robust_aajr", False), ("robust_aajr", True), ("robust_global", False)])
def test_train_step_matches_sum_of_per_sample_objectives(mode, hinge):
    # the batched objective against one taped objective per sample, averaged
    env = mirror_env()
    cfg = mirror_cfg(mode, batch=5, hinge=hinge)
    params0 = init_policy([4, 8, 4], seed=4)
    params1, _ = train(cfg, env, params0)
    batch = replicate_batch(env, cfg.seed, 0, cfg.batch_size)
    trajs = [pga_run(params0, s, a, env, cfg.pset, cfg.inner) for s, a in batch]

    def hinge_sq(w, budget):
        excess = relu(sqrt(dot(w, w)) - budget)
        return excess * excess

    def per_sample(handle):
        # one small graph per sample and step, written out independently of
        # the batched penalty helpers
        total = 0.0
        for (s, a), traj in zip(batch, trajs):
            if mode == "robust_aajr":
                pen = 0.0
                for delta, u in zip(traj.deltas[:-1], traj.ascent):
                    amp = handle.jvp(s + delta, u)
                    pen = pen + (hinge_sq(amp, cfg.reg.gamma_adv) if hinge else dot(amp, amp))
                pen = pen * (1.0 / traj.steps)
            else:
                v_hat = np.linalg.svd(jacobian(params0, s))[2][0]
                pen = hinge_sq(handle.jvp(s, v_hat), cfg.reg.gamma)
            worst = handle.forward((s + traj.deltas[-1])[None])  # loss_term sums over rows
            total = total + loss_term(env, worst, a[None]) + cfg.reg.lam * pen
        return total * (1.0 / len(batch))

    _, grads = param_gradient(params0, per_sample)
    assert gradient_norm(grads) > 0.1
    expected = apply_gradient_step(params0, grads, cfg.outer_lr)
    for got, want in zip(params1.layers, expected.layers):
        assert np.allclose(got.weight, want.weight, rtol=0, atol=1e-12)
        assert np.allclose(got.bias, want.bias, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["nominal", "robust_aajr", "robust_global"])
def test_objective_tape_size_does_not_grow_with_batch(mode, monkeypatch):
    counts = []
    original = tape.Node.__init__

    def counting_init(self, *args, **kwargs):
        counts[-1] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(tape.Node, "__init__", counting_init)
    for batch in (2, 9):
        counts.append(0)
        train(mirror_cfg(mode, batch), mirror_env(), init_policy([4, 8, 4], seed=1))
    assert counts[0] == counts[1] <= 60


def test_price_of_robustness_rejects_nonpositive_sample_counts():
    env = quad_env([0.5, -0.5])
    for counts in ({"achieved_samples": 0}, {"eval_samples": 0}, {"achieved_samples": -5}):
        with pytest.raises(ConfigError, match="n_samples"):
            price_of_robustness(env, make_cfg(), seeds=[0, 1, 2], policy_dims=[2, 4, 2], **counts)


@pytest.mark.parametrize("peer_mode, A", [("independent", np.ones((3, 2))), ("mirror", np.eye(3))])
def test_batched_draws_equal_per_sample_draws(peer_mode, A):
    env = quad_env([0.3, -0.2, 0.5], A=A, state_dim=3, seed=4, peer_mode=peer_mode)
    for n in (1, 7):
        S, A = draws(env, np.random.default_rng([4, 1, n]), n)
        pairs = replicate_batch(env, 1, n, n)  # the generator seeded by [4, 1, n], sample by sample
        assert np.array_equal(S, np.array([s for s, _ in pairs]))
        assert np.array_equal(A, np.array([a for _, a in pairs]))
        assert S.flags.c_contiguous and A.flags.c_contiguous and not np.shares_memory(S, A)


def without_diagnostics_case(mode, variant):
    """The mirror task's [4, 6, 4] tanh net, or one variant of it."""
    env, cfg, params0 = mirror_env(), mirror_cfg(mode, batch=3, steps=4), init_policy([4, 6, 4], seed=1)
    if variant == "sup_norm":
        cfg = replace(cfg, pset=PerturbationSet(p="inf", epsilon=0.3, dim=4))
    elif variant == "softplus":
        env = Environment("softplus_congestion", [0.2, -0.5, 0.7, 0.1], np.zeros((4, 4)), 4, beta=2.0, seed=2)
    elif variant == "tanh_free":  # a [2, 2] policy: one identity layer
        env, params0 = quad_env([0.5, -0.5], A=0.5 * np.eye(2), seed=2, peer_mode="mirror"), init_policy([2, 2], seed=1)
        cfg = replace(cfg, pset=PerturbationSet(p=2, epsilon=0.3, dim=2))
    elif variant == "no_steps":
        cfg = replace(cfg, inner=InnerLoopConfig(eta=0.3, steps=0))
    elif variant == "hinge":
        cfg = mirror_cfg(mode, batch=3, hinge=True, steps=4)
    return env, cfg, params0


DIAGNOSTIC_CASES = [
    ("nominal", None), ("robust_aajr", None), ("robust_global", None), ("robust_plain", None),
    ("robust_aajr", "sup_norm"), ("robust_global", "sup_norm"), ("robust_aajr", "softplus"),
    ("robust_aajr", "tanh_free"), ("robust_global", "tanh_free"), ("robust_aajr", "no_steps"),
    ("robust_aajr", "hinge"),
]


@pytest.mark.parametrize("mode,variant", DIAGNOSTIC_CASES)
def test_train_without_diagnostics_gives_same_parameters(mode, variant):
    env, cfg, params0 = without_diagnostics_case(mode, variant)
    with_diag, metrics = train(cfg, env, params0)
    without, bare = train(cfg, env, params0, diagnostics=False)
    assert len(metrics.records) == 4 and bare.records == []
    assert bare.aborted_step is None is metrics.aborted_step
    for a, b in zip(with_diag.layers, without.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_mixed_stack_without_diagnostics_gives_each_model_its_parameters():
    env = mirror_env()
    cfgs = stack_cfgs(ROBUST[:3], [0.0, 0.5, 30.0])
    params0s = [init_policy([4, 6, 4], seed=s) for s in (5, 1, 2)]
    for cfg, params0, (params, metrics) in zip(cfgs, params0s, trainer._train_stack(cfgs, env, params0s, False)):
        alone, alone_metrics = train(cfg, env, params0)
        assert metrics.records == [] and metrics.aborted_step is None is alone_metrics.aborted_step
        for a, b in zip(params.layers, alone.layers):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


# the wide robust balls diverge first at the ascent's last iterate, once the outer steps have
# grown the weights: its loss overflows (K = 1) or the iterate itself does (K = 2)
@pytest.mark.parametrize(
    "kwargs,first",
    [(dict(mode="nominal", lr=1e12), None),
     (dict(mode="robust_plain", lr=3e-300, eta=1e151, K=1, eps=1e150), "non-finite inner objective at step 1"),
     (dict(mode="robust_aajr", lr=3e-300, eta=1e151, K=1, eps=1e150, lam=0.5), "non-finite inner objective at step 1"),
     (dict(mode="robust_plain", lr=3e-300, eta=1e151, K=2, eps=1e150), "non-finite iterate at step 2")],
)
def test_train_without_diagnostics_aborts_at_same_step(kwargs, first):
    env = quad_env([0.5, 0.5])
    params0 = linear_policy(np.eye(2))
    cfg = make_cfg(steps=40, batch=2, seed=0, **kwargs)
    with np.errstate(over="ignore", invalid="ignore"):
        last, metrics = train(cfg, env, params0)
        bare_last, bare = train(cfg, env, params0, diagnostics=False)
    assert metrics.aborted_step is not None
    assert bare.aborted_step == metrics.aborted_step and bare.records == []
    assert np.array_equal(last.layers[0].weight, bare_last.layers[0].weight)
    assert np.array_equal(last.layers[0].bias, bare_last.layers[0].bias)
    if first is not None:
        S, A = trainer._training_batch(env, cfg.seed, metrics.aborted_step, cfg.batch_size)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=f"^{first}, "):
            pga_batch(last, S, A, env, cfg.pset, cfg.inner)


@pytest.mark.parametrize("mode,variant", DIAGNOSTIC_CASES)
def test_step_records_equal_the_full_record_of_the_same_step(mode, variant):
    # the diagnostics read the training record; each column equals what the full record of the same step gives
    env, cfg, params0 = without_diagnostics_case(mode, variant)
    _, metrics = train(cfg, env, params0)
    assert len(metrics.records) == cfg.outer_steps
    robust = mode != "nominal"
    for step, got in enumerate(metrics.records):
        params = train(replace(cfg, outer_steps=step), env, params0, diagnostics=False)[0]
        S, A = trainer._training_batch(env, cfg.seed, step, cfg.batch_size)
        full = pga_batch(params, S, A, env, cfg.pset, cfg.inner)
        assert got.nominal_loss == np.mean(full.values[:, 0])
        assert got.robust_loss == (np.mean(full.values[:, -1]) if robust else got.nominal_loss)
        assert got.max_dir_amp == (np.max(full.amps, initial=0.0) if robust else 0.0)
        penalty = aajr_penalty(aajr_rows(params.handle, S, full), cfg.reg)
        assert got.aajr_penalty == (penalty if robust else 0.0)
    if variant == "hinge":  # the budget binds, so the hinge form is what the column reads
        assert any(r.aajr_penalty > 0.0 for r in metrics.records)


def test_training_ascent_calls_no_public_policy_function_and_keeps_two_fields(monkeypatch):
    records, ascend = [], inner._ascend

    def spy(*args, **kwargs):
        records.append(ascend(*args, **kwargs))
        return records[-1]

    def public(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"public {name} called in an outer step")

        return refuse

    monkeypatch.setattr(trainer, "_ascend", spy)
    # the outer step reads J(s) at delta = 0 off its one layer pass, so it calls no public pass function;
    # raising=False puts the refusal also where a module does not import the name, so no later import slips by
    for module in (inner, policy, regularizers, trainer):
        for name in ("forward", "jvp", "vjp", "jacobian"):
            monkeypatch.setattr(module, name, public(name), raising=False)
    env = mirror_env()
    cfgs = stack_cfgs(ROBUST[:3], [0.0, 0.5, 30.0], steps=2)
    params0s = [init_policy([4, 6, 4], seed=s) for s in (5, 1, 2)]
    trainer._train_stack(cfgs, env, params0s, False)
    train(cfgs[1], env, params0s[1], diagnostics=False)
    # train with diagnostics runs the same training ascent, in all four modes and in the hinge form
    hinge = replace(cfgs[1], reg=replace(cfgs[1].reg, aajr_hinge=True))
    nominal = replace(cfgs[0], mode="nominal")
    for cfg in (nominal, cfgs[0], cfgs[1], cfgs[2], hinge):
        assert len(train(cfg, env, params0s[1])[1].records) == 2
    assert len(records) == 14  # two steps each of the stack, the lone run and five runs with diagnostics
    for k, record in enumerate(records):
        steps = 0 if k in (4, 5) else 4  # the nominal run's steps train on the zero-step ascent
        assert record.deltas.shape[-2:] == (steps + 1, 4) and record.ascent.shape[-2:] == (steps, 4)
        assert np.isfinite(record.deltas).all() and np.isfinite(record.ascent).all()
        assert record.values is record.grads is record.amps is record.update is record.moved is None


def test_price_of_robustness_never_builds_step_records(monkeypatch):
    # a small sweep whose budgets bind, so both penalized modes bisect
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    kwargs = dict(seeds=[0, 1, 2], policy_dims=[4, 6, 4], eval_samples=16, achieved_samples=3, bisect_iters=2, max_doublings=2)
    expected = price_of_robustness(env, cfg, **kwargs).to_json()
    assert any(entry[mode]["lambda"] > 0 for entry in expected["per_seed"] for mode in ("robust_global", "robust_aajr"))

    def no_records(*args, **kwargs):
        raise AssertionError("step record built inside the sweep")

    monkeypatch.setattr(trainer, "_step_records", no_records)
    assert price_of_robustness(env, cfg, **kwargs).to_json() == expected


def stack_cfgs(modes, lams, steps=5):
    """One config per model; ``modes`` is one mode for every model, or one per model."""
    modes = [modes] * len(lams) if isinstance(modes, str) else modes
    cfg = mirror_cfg(modes[0], batch=3, steps=steps)
    return [
        replace(cfg, mode=mode, seed=seed, reg=replace(cfg.reg, lam=lam))
        for mode, seed, lam in zip(modes, (3, 0, 7, 1, 4), lams)
    ]


MIXED = ["robust_global", "robust_aajr", "robust_aajr", "robust_global", "robust_aajr"]
ROBUST = ["robust_plain", "robust_aajr", "robust_global", "robust_aajr", "robust_global"]


def assert_same_run(got, want):
    (params, metrics), (params_alone, metrics_alone) = got, want
    for a, b in zip(params.layers, params_alone.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
    assert metrics.aborted_step == metrics_alone.aborted_step
    assert metrics.to_csv() == metrics_alone.to_csv()


@pytest.mark.parametrize("mode,lams", [("nominal", [0.0] * 5), ("robust_aajr", [0.5, 1.0, 2.0, 4.0, 8.0]),
                                       ("robust_global", [30.0, 0.7, 120.0, 2.0, 9.0]),
                                       (MIXED, [30.0, 0.5, 2.0, 120.0, 8.0]),
                                       (ROBUST, [0.0, 0.5, 30.0, 2.0, 9.0]), (ROBUST, [0.0, 1.0, 30.0, 0.0, 0.0]),
                                       (ROBUST[:2] * 2 + ["robust_plain"], [0.0, 0.5, 3.0, 2.0, 0.0])])
def test_stacked_training_equals_training_each_model_alone(mode, lams):
    env = mirror_env()
    cfgs = stack_cfgs(mode, lams)
    params0s = [init_policy([4, 6, 4], seed=s) for s in (5, 1, 2, 8, 3)]
    stacked = trainer._train_stack(cfgs, env, params0s)
    for cfg, params0, got in zip(cfgs, params0s, stacked):
        assert_same_run(got, train(cfg, env, params0))


def test_stack_member_that_diverges_leaves_the_others_unchanged():
    env = mirror_env()
    cfgs = stack_cfgs("robust_aajr", [1.0, 2.0, 100.0, 4.0, 8.0], steps=12)
    params0s = [init_policy([4, 6, 4], ["identity", "identity"], seed=s) for s in (5, 1, 1, 8, 3)]
    with np.errstate(all="ignore"):
        stacked = trainer._train_stack(cfgs, env, params0s)
        alone = [train(cfg, env, params0) for cfg, params0 in zip(cfgs, params0s)]
    assert [m.aborted_step for _, m in stacked] == [None, None, 5, None, None]
    for got, want in zip(stacked, alone):
        assert_same_run(got, want)
    # the diverged model keeps what its five finite steps made
    last_finite, _ = train(replace(cfgs[2], outer_steps=5), env, params0s[2])
    for a, b in zip(stacked[2][0].layers, last_finite.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_mixed_stack_member_that_diverges_leaves_the_others_unchanged():
    env = mirror_env()
    cfgs = stack_cfgs(MIXED[:4] + ["robust_plain"], [30.0, 1.0, 100.0, 2.0, 0.0], steps=12)
    params0s = [init_policy([4, 6, 4], ["identity", "identity"], seed=s) for s in (5, 1, 1, 8, 3)]
    with np.errstate(all="ignore"):
        stacked = trainer._train_stack(cfgs, env, params0s)
        alone = [train(cfg, env, params0) for cfg, params0 in zip(cfgs, params0s)]
    assert [m.aborted_step for _, m in stacked] == [None, None, 5, None, None]
    for got, want in zip(stacked, alone):
        assert_same_run(got, want)


def test_outer_step_takes_the_svd_only_where_it_is_read(monkeypatch):
    calls = []
    top_singular = trainer.top_singular

    def spy(J):
        calls.append(J.shape[0] if J.ndim == 4 else 0)  # M for the (M, B, m, d) Jacobians of a stack
        return top_singular(J)

    monkeypatch.setattr(trainer, "top_singular", spy)
    env, params0s = mirror_env(), [init_policy([4, 6, 4], seed=s) for s in range(3)]
    for modes, lams, diagnostics, expected in (
        ("nominal", [0.0] * 3, False, 0),
        ("robust_plain", [0.0] * 3, False, 0),
        ("robust_global", [0.0] * 3, False, 0),
        ("robust_aajr", [0.5, 1.0, 2.0], False, 0),
        ("robust_global", [30.0, 0.7, 2.0], False, 4),
        ("robust_global", [2.0], False, 4),
        (MIXED[:3], [30.0, 0.5, 2.0], False, 4),
        (ROBUST[:2], [0.0, 0.5], False, 0),
        (ROBUST[:3], [0.0, 0.5, 30.0], False, 4),
        ("nominal", [0.0] * 3, True, 4),
        ("robust_aajr", [0.5, 1.0, 2.0], True, 4),
    ):
        calls.clear()
        cfgs = stack_cfgs(modes, lams, steps=4)
        trainer._train_stack(cfgs, env, params0s[: len(cfgs)], diagnostics)
        assert calls == [len(cfgs) if len(cfgs) > 1 else 0] * expected, (modes, lams, diagnostics)


def shipped_train(name, **changes):
    """The environment, train config and initial policy of a shipped config,
    with ``changes`` merged into its train block (one level deep)."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    for key, value in changes.items():
        raw["train"][key] = {**raw["train"][key], **value} if isinstance(value, dict) else value
    run = cli.parse_config_dict(raw)
    env, cfg = cli._train_setup(run, "train")
    return env, cfg, cli.build_policy(run.policy)


HINGE = {"reg": {"aajr_hinge": True, "gamma_adv": 0.2, "lambda": 0.5}}  # the CI's hinge copy


@pytest.mark.parametrize(
    "name, changes, diagnostics, passes",
    [
        ("quadratic_small", {}, True, 5),  # robust_aajr, K = 3
        ("quadratic_small", {}, False, 3),
        ("quadratic_small", HINGE, True, 5),
        ("quadratic_small", HINGE, False, 3),
        ("softplus_small", {"reg": {"lambda": 5.0}}, True, 6),  # robust_global, K = 4
        ("softplus_small", {"reg": {"lambda": 5.0}}, False, 4),
        ("quadratic_small", {"mode": "nominal"}, True, 1),
        ("quadratic_small", {"mode": "nominal"}, False, 0),
        ("quadratic_small", {"mode": "robust_plain", "inner": {"steps": 0}}, False, 0),
        # with zero ascent steps the last iterate is S: the diagnostics read the pass at delta = 0, as nominal does
        ("quadratic_small", {"mode": "robust_plain", "inner": {"steps": 0}}, True, 1),
        ("quadratic_small", {"inner": {"steps": 0}}, True, 1),
        ("quadratic_small", {"inner": {"steps": 0}}, False, 0),
    ],
)
def test_outer_step_takes_one_untaped_pass_at_delta_zero(monkeypatch, name, changes, diagnostics, passes):
    # the training ascent's first iterate, the SVD and the nominal-loss column share one layer pass at delta = 0
    steps, outer_step, mlp = [], trainer._outer_step, policy._mlp

    def stepping(cfgs, env, params, step, S, A, diagnostics):
        steps.append((S, []))
        return outer_step(cfgs, env, params, step, S, A, diagnostics)

    def counting(layers, activations, X, *args, **kwargs):
        if not isinstance(layers[0][0], tape.Node):  # an untaped pass: ndarray weights
            steps[-1][1].append(np.asarray(X))
        return mlp(layers, activations, X, *args, **kwargs)

    monkeypatch.setattr(trainer, "_outer_step", stepping)
    monkeypatch.setattr(policy, "_mlp", counting)
    env, cfg, params0 = shipped_train(name, outer_steps=4, **changes)
    _, metrics = train(cfg, env, params0, diagnostics=diagnostics)
    assert metrics.aborted_step is None and len(steps) == 4
    for S, xs in steps:
        assert len(xs) == passes
        assert sum(x.shape == S.shape and np.array_equal(x, S) for x in xs) == min(passes, 1)


def test_diverging_stack_member_aborts_at_the_same_step_without_the_svd():
    # the SVD, taken here only with diagnostics, also rejected a non-finite Jacobian;
    # without it the tape and the update stop the diverging model at the same step
    env = mirror_env()
    cfgs = stack_cfgs("nominal", [0.0] * 3, steps=12)
    params0s = [init_policy([4, 6, 4], ["identity", "identity"], seed=s) for s in (5, 1, 2)]
    params0s[1] = scale_policy(params0s[1], 10.0)
    with np.errstate(all="ignore"):
        bare = trainer._train_stack(cfgs, env, params0s, False)
        with_svd = trainer._train_stack(cfgs, env, params0s, True)
    assert [m.aborted_step for _, m in bare] == [m.aborted_step for _, m in with_svd] == [None, 6, None]
    for (params, _), (params_svd, _) in zip(bare, with_svd):
        for a, b in zip(params.layers, params_svd.layers):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_csv_columns_are_the_step_record_fields():
    record = StepRecord(3, 0.5, 0.25, 0.1, 0.0, 1.5, 2.0, 1e-300)
    assert RunMetrics([record]).to_csv() == (
        "step,robust_loss,nominal_loss,aajr_penalty,global_penalty,max_dir_amp,mean_spectral,grad_norm\n"
        "3,0.5,0.25,0.1,0.0,1.5,2.0,1e-300\n"
    )


def test_stack_rejects_models_that_differ_beyond_seed_and_lambda():
    env = mirror_env()
    params0s = [init_policy([4, 6, 4], seed=s) for s in (0, 1)]
    cfgs = stack_cfgs("robust_aajr", [1.0, 2.0])
    for other in (
        replace(cfgs[1], outer_lr=0.2),
        replace(cfgs[1], outer_steps=4),
        replace(cfgs[1], batch_size=2),
        replace(cfgs[1], inner=replace(cfgs[1].inner, eta=0.2)),
        replace(cfgs[1], pset=replace(cfgs[1].pset, epsilon=0.2)),
        replace(cfgs[1], reg=replace(cfgs[1].reg, gamma=0.5)),
        replace(cfgs[1], mode="robust_plain", reg=replace(cfgs[1].reg, lam=0.0, gamma_adv=0.5)),
        replace(cfgs[1], mode="nominal"),
    ):
        with pytest.raises(ConfigError, match="share"):
            trainer._train_stack([cfgs[0], other], env, params0s)
    # a nominal model has zero inner steps, so it never shares a stack with a robust model of K > 0
    nominal = replace(cfgs[0], mode="nominal", reg=replace(cfgs[0].reg, lam=0.0))
    for mode in ("robust_plain", "robust_aajr", "robust_global"):
        for lam in (0.0, 2.0):
            with pytest.raises(ConfigError, match="share"):
                robust = replace(cfgs[1], mode=mode, reg=replace(cfgs[1].reg, lam=lam))
                trainer._train_stack([nominal, robust], env, params0s)


def test_stack_takes_equal_balls_that_are_not_the_same_object():
    # a perturbation ball is a value: configs built with separate PerturbationSet(2, 0.3, 2) objects share a stack
    env = quad_env([0.5, -0.3])
    cfgs = [make_cfg("robust_aajr", steps=3, K=2, eps=0.3, lam=lam, seed=seed) for lam, seed in ((0.5, 0), (2.0, 1))]
    assert cfgs[0].pset is not cfgs[1].pset and cfgs[0].pset == cfgs[1].pset
    assert hash(cfgs[0].pset) == hash(PerturbationSet(2, 0.3, 2))
    params0s = [init_policy([2, 4, 2], seed=s) for s in (0, 1)]
    for cfg, params0, got in zip(cfgs, params0s, trainer._train_stack(cfgs, env, params0s)):
        assert_same_run(got, train(cfg, env, params0))


@pytest.mark.parametrize("diagnostics", [True, False])
def test_nominal_model_trains_as_a_zero_step_robust_plain_model_bit_for_bit(diagnostics):
    # nominal training is the minimax surrogate whose inner maximizer has only delta = 0
    env = mirror_env()
    nominal = stack_cfgs("nominal", [0.0, 0.7, 0.0], steps=6)
    plain = [replace(c, mode="robust_plain", inner=replace(c.inner, steps=0)) for c in nominal]
    params0s = [init_policy([4, 6, 4], seed=s) for s in (5, 1, 2)]
    alone = [train(cfg, env, params0, diagnostics=diagnostics) for cfg, params0 in zip(nominal, params0s)]
    for cfg, params0, want in zip(plain, params0s, alone):
        assert_same_run(train(cfg, env, params0, diagnostics=diagnostics), want)
        assert len(want[1].records) == (cfg.outer_steps if diagnostics else 0)
        assert all(r.robust_loss == r.nominal_loss and r.aajr_penalty == r.max_dir_amp == 0.0 for r in want[1].records)
    for got, want in zip(trainer._train_stack(plain, env, params0s, diagnostics), alone):
        assert_same_run(got, want)
    # in one stack beside zero-step robust models, each model trains as it does alone
    zero_step = replace(plain[2], mode="robust_global", reg=replace(plain[2].reg, lam=30.0))
    mixed = [nominal[0], plain[1], zero_step]
    for cfg, params0, got in zip(mixed, params0s, trainer._train_stack(mixed, env, params0s, diagnostics)):
        assert_same_run(got, train(cfg, env, params0, diagnostics=diagnostics))


@pytest.mark.parametrize("mode", ["nominal", "robust_aajr", "robust_global"])
def test_objective_tape_size_does_not_grow_with_models(mode, monkeypatch):
    counts = []
    original = tape.Node.__init__

    def counting_init(self, *args, **kwargs):
        counts[-1] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(tape.Node, "__init__", counting_init)
    lams = [0.0] * 5 if mode == "nominal" else [0.5, 1.0, 2.0, 4.0, 8.0]
    for models in (1, 2, 5):
        counts.append(0)
        cfgs = stack_cfgs(mode, lams[:models], steps=3)
        trainer._train_stack(cfgs, mirror_env(), [init_policy([4, 6, 4], seed=s) for s in range(models)], False)
    # a stack adds one node per step, the sum of its models' objectives; one model runs without the model axis
    assert counts[1] == counts[2] == counts[0] + 3 > 3


STACK = trainer._train_stack
SWEEP_KWARGS = dict(
    seeds=[0, 1, 2], policy_dims=[4, 6, 4], eval_samples=16, achieved_samples=3, bisect_iters=2, max_doublings=2
)


def recording(rounds, train_stack, aborted=()):
    """``train_stack`` that records each round's (seed, mode, lambda) runs in
    ``rounds`` and reports the runs of the ``aborted`` (seed, mode) pairs as
    aborted."""

    def run(cfgs, env, params0s, diagnostics=True, batches=None):
        rounds.append([(c.seed, c.mode, c.reg.lam) for c in cfgs])
        results = train_stack(cfgs, env, params0s, diagnostics, batches)
        return [
            (params, RunMetrics(aborted_step=0) if (c.seed, c.mode) in aborted else metrics)
            for c, (params, metrics) in zip(cfgs, results)
        ]

    return run


def one_at_a_time(cfgs, env, params0s, diagnostics=True, batches=None):
    """Train each model of a round alone, drawing its own batches."""
    return [STACK([c], env, [p], diagnostics)[0] for c, p in zip(cfgs, params0s)]


def search_rounds(reference_rounds, lambda_init):
    """(seed, mode) -> the rounds after the nominal one that a search takes
    when its doubling rungs train in pairs, from the weights it trained one
    per round: its first round trains lambda = 0 and rungs 0 and 1, each
    further round rungs 2j and 2j + 1, or one bisection weight."""
    paths = {}
    for run in reference_rounds[2:]:
        for seed, mode, lam in run:
            paths.setdefault((seed, mode), []).append(lam)
    for seed, _, _ in reference_rounds[1]:
        for mode in trainer.PENALIZED:
            paths.setdefault((seed, mode), [])
    rounds = {}
    for key, path in paths.items():
        rungs = next((j for j, lam in enumerate(path) if lam != lambda_init * 2.0**j), len(path))
        rounds[key] = 1 + max(rungs - 1, 0) // 2 + len(path) - rungs
    return rounds


def test_price_of_robustness_in_lockstep_equals_one_model_at_a_time(monkeypatch):
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    rounds, alone, reference_rounds = [], [], []
    monkeypatch.setattr(trainer, "_train_stack", recording(rounds, STACK))
    lockstep = price_of_robustness(env, cfg, **SWEEP_KWARGS).to_json()
    for entry in lockstep["per_seed"]:
        assert [entry[mode]["seed"] for mode in ("nominal", "robust_global", "robust_aajr")] == [entry["seed"]] * 3

    # one model per stack, each drawing its own batches, gives the same report
    monkeypatch.setattr(trainer, "_train_stack", recording(alone, one_at_a_time))
    assert price_of_robustness(env, cfg, **SWEEP_KWARGS).to_json() == lockstep
    assert alone == rounds
    monkeypatch.setattr(trainer, "_train_stack", recording(reference_rounds, STACK))
    assert sweep_one_rung_per_round(env, cfg, **SWEEP_KWARGS).to_json() == lockstep
    # the nominal round, then one round with every seed's lambda = 0 run and both searches' first two rungs;
    # each search then trains in every round until it ends, the penalized modes side by side
    assert {mode for _, mode, _ in rounds[0]} == {"nominal"}
    assert sorted(rounds[1]) == sorted(
        [(seed, "robust_plain", 0.0) for seed in (0, 1, 2)]
        + [(seed, mode, lam) for seed in (0, 1, 2) for mode in trainer.PENALIZED for lam in (1.0, 2.0)]
    )
    expected = search_rounds(reference_rounds, lambda_init=1.0)
    assert len(rounds) == 1 + max(expected.values()) == 5 and len(reference_rounds) == 7
    for (seed, mode), n in expected.items():
        assert [r for r, run in enumerate(rounds) if any(m == mode and s == seed for s, m, _ in run)] == list(
            range(1, 1 + n)
        )
    # a seed's search never sees another seed's runs: reordering the seeds reorders the entries only
    reordered = price_of_robustness(env, cfg, **dict(SWEEP_KWARGS, seeds=[2, 0, 1])).to_json()
    assert sorted(reordered["per_seed"], key=lambda e: e["seed"]) == lockstep["per_seed"]


@pytest.mark.parametrize(
    "extra",
    [
        {"max_doublings": 1, "lambda_init": 0.25},  # seed 1's global search runs out of doublings above the band
        {"max_doublings": 0},
        {"bisect_iters": 0},
        {"gamma": 10.0},  # every budget met at lambda = 0
    ],
)
def test_sweep_equals_one_rung_per_round_reference(monkeypatch, extra):
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    if "gamma" in extra:
        cfg = replace(cfg, reg=replace(cfg.reg, gamma=extra["gamma"]))
    kwargs = dict(SWEEP_KWARGS, **{key: value for key, value in extra.items() if key != "gamma"})
    rounds, reference_rounds = [], []
    monkeypatch.setattr(trainer, "_train_stack", recording(rounds, STACK))
    report = price_of_robustness(env, cfg, **kwargs).to_json()
    monkeypatch.setattr(trainer, "_train_stack", recording(reference_rounds, STACK))
    assert sweep_one_rung_per_round(env, cfg, **kwargs).to_json() == report
    lambda_init, max_doublings = kwargs.get("lambda_init", 1.0), kwargs["max_doublings"]
    trained = [run for r in rounds for run in r]
    read = [run for r in reference_rounds for run in r]
    # every run the reference trains is trained once; the others are speculative rungs that no search read
    assert len(set(trained)) == len(trained) and set(read) <= set(trained)
    rungs = [lambda_init * 2.0**j for j in range(max_doublings + 1)]
    assert all(lam in rungs for _, _, lam in set(trained) - set(read))
    assert max(lam for _, _, lam in trained) <= lambda_init * 2.0**max_doublings
    assert len(rounds) == 1 + max(search_rounds(reference_rounds, lambda_init).values())
    if max_doublings == 0:
        assert not any(lam == 2.0 * lambda_init for _, _, lam in trained)
    if "lambda_init" in extra:  # the top rung is read, and the budget stays above the band
        level = report["per_seed"][1]["robust_global"]["achieved_spectral"]
        assert (1, "robust_global", lambda_init * 2.0**max_doublings) in read and level > 1.05 * cfg.reg.gamma
    if cfg.reg.gamma == 10.0:
        assert len(rounds) == 2 and len(reference_rounds) == 2
        assert {lam for _, _, lam in set(trained) - set(read)} == {lambda_init, 2.0 * lambda_init}
        assert all(entry[mode]["lambda"] == 0.0 for entry in report["per_seed"] for mode in trainer.PENALIZED)


def test_sweep_excludes_a_seed_whose_global_search_aborts(monkeypatch):
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    rounds, reference_rounds = [], []
    monkeypatch.setattr(trainer, "_train_stack", recording(rounds, STACK))
    price_of_robustness(env, cfg, **SWEEP_KWARGS)
    # seed 1's AAJR search runs past its first penalized round
    assert sum(any(run[:2] == (1, "robust_aajr") for run in r) for r in rounds) >= 2
    rounds.clear()
    aborted = {(1, "robust_global")}
    monkeypatch.setattr(trainer, "_train_stack", recording(rounds, STACK, aborted))
    report = price_of_robustness(env, cfg, **SWEEP_KWARGS).to_json()
    assert [entry["seed"] for entry in report["per_seed"]] == [0, 2]
    assert report["excluded"] == [{"seed": 1, "mode": "robust_global", "reason": "aborted"}]
    # the global search returns None on its first rung's result; the AAJR rungs trained beside it, then it stops
    trained = [i for i, r in enumerate(rounds) if any(run[:2] == (1, "robust_global") for run in r)]
    assert trained == [1] and any(run[:2] == (1, "robust_aajr") for run in rounds[1])
    assert not any(run[:2] == (1, "robust_aajr") for r in rounds[2:] for run in r)
    monkeypatch.setattr(trainer, "_train_stack", recording([], one_at_a_time, aborted))
    assert price_of_robustness(env, cfg, **SWEEP_KWARGS).to_json() == report
    monkeypatch.setattr(trainer, "_train_stack", recording(reference_rounds, STACK, aborted))
    assert sweep_one_rung_per_round(env, cfg, **SWEEP_KWARGS).to_json() == report


def test_stacked_evaluation_equals_evaluating_each_model_alone():
    env = mirror_env()
    cfg = mirror_cfg("robust_aajr", batch=2)
    members = [init_policy([4, 6, 4], seed=s) for s in (3, 0, 7)]
    rows = trainer._eval_draws(env, 16, seed=4)
    evaluations = trainer._evaluate(stack_policies(members), env, cfg.pset, cfg.inner, *rows, 16, 3)
    assert len(evaluations) == len(members)
    for params, evaluation in zip(members, evaluations):
        assert evaluation == trainer._evaluate(stack_policies([params]), env, cfg.pset, cfg.inner, *rows, 16, 3)[0]
        assert evaluation["nominal_risk_se"] > 0.0
        (risk,), (level,) = nominal_risks(params, env, 16, 4), achieved_levels(params, env, cfg.pset, cfg.inner, 3, 4)
        assert tuple(evaluation.values()) == (*risk, *level)


def test_evaluated_spectral_level_of_a_mixed_mode_stack_is_the_dense_visited_max():
    # models trained in three modes, then evaluated as one stack: each achieved_spectral is bit for bit the
    # max of spectral_norm over every state its evaluation ascent visits
    env = mirror_env()
    modes = ["robust_plain", "robust_aajr", "robust_global"]
    cfgs = [replace(mirror_cfg(mode, batch=3, steps=4), seed=seed) for seed, mode in enumerate(modes)]
    params0s = [init_policy([4, 6, 4], seed=seed) for seed in range(3)]
    members = [params for params, _ in trainer._train_stack(cfgs, env, params0s, diagnostics=False)]
    rows = trainer._eval_draws(env, 12, seed=4)
    evaluations = trainer._evaluate(stack_policies(members), env, cfgs[0].pset, cfgs[0].inner, *rows, 12, 12)
    levels = achieved_levels(stack_policies(members), env, cfgs[0].pset, cfgs[0].inner, 12, seed=4)
    assert len({level for _, level in levels}) == 3
    for evaluation, (_, level) in zip(evaluations, levels):
        assert evaluation["achieved_spectral"] == level


@pytest.mark.parametrize("env", [mirror_env(), quad_env([0.3, -0.2, 0.5, 0.1], A=0.5 * np.eye(4), seed=2)])
@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("eval_samples, achieved_samples", [(16, 3), (5, 5), (3, 16)])
def test_one_evaluation_draw_equals_one_draw_per_quantity(env, stacked, eval_samples, achieved_samples):
    # draws fills its rows in order, so the first n rows of the shared draw are an n-row draw
    cfg = mirror_cfg("robust_aajr", batch=2)
    members = [init_policy([4, 6, 4], seed=s) for s in (3, 0, 7)]
    params = stack_policies(members if stacked else members[:1])
    rows = trainer._eval_draws(env, max(eval_samples, achieved_samples), seed=4)
    got = trainer._evaluate(params, env, cfg.pset, cfg.inner, *rows, eval_samples, achieved_samples)
    risks = nominal_risks(params, env, eval_samples, seed=4)
    levels = achieved_levels(params, env, cfg.pset, cfg.inner, achieved_samples, seed=4)
    assert len(got) == len(risks) == len(levels) == (3 if stacked else 1)
    for evaluation, risk, level in zip(got, risks, levels):
        assert list(evaluation) == ["nominal_risk", "nominal_risk_se", "achieved_dir_amp", "achieved_spectral"]
        assert tuple(evaluation.values()) == (*risk, *level)


def test_price_of_robustness_draws_one_evaluation_sample_per_sweep(monkeypatch):
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    kwargs = dict(seeds=[0, 1, 2], policy_dims=[4, 6, 4], eval_samples=16, achieved_samples=3, bisect_iters=2, max_doublings=2)
    stack, eval_draws, evaluate = trainer._train_stack, trainer._eval_draws, trainer._evaluate
    rounds, draws, rows = [], [], []

    def counting_stack(*args, **kw):
        rounds.append(1)
        return stack(*args, **kw)

    def counting_draws(env, n_samples, seed):
        draws.append((n_samples, seed))
        return eval_draws(env, n_samples, seed)

    def reading(params, env, pset, inner, S, A, *args):
        rows.append((S, A))
        return evaluate(params, env, pset, inner, S, A, *args)

    monkeypatch.setattr(trainer, "_train_stack", counting_stack)
    monkeypatch.setattr(trainer, "_eval_draws", counting_draws)
    monkeypatch.setattr(trainer, "_evaluate", reading)
    report = price_of_robustness(env, cfg, **kwargs)
    assert not report.excluded  # no round lost every run, so every round is evaluated
    # one draw of max(eval_samples, achieved_samples) rows, which every round's evaluation reads
    assert draws == [(16, 10_000)]
    assert len(rounds) > 2 and len(rows) == len(rounds)
    assert all(S is rows[0][0] and A is rows[0][1] for S, A in rows)


def test_training_batches_are_drawn_once_per_seed_and_step(monkeypatch):
    env = mirror_env()
    cfg = mirror_cfg("nominal", batch=2, steps=6)
    sizes, draws = [], trainer.draws

    def counting_draws(env, rng, n):
        sizes.append(n)
        return draws(env, rng, n)

    monkeypatch.setattr(trainer, "draws", counting_draws)
    report = price_of_robustness(env, cfg, **SWEEP_KWARGS)  # eval_samples 16, so only batches have 2 rows
    assert len(report.per_seed) == 3
    assert sizes.count(cfg.batch_size) == len(SWEEP_KWARGS["seeds"]) * cfg.outer_steps
    # a single run draws each step's batch when the step runs
    sizes.clear()
    train(replace(cfg, mode="robust_aajr"), env, init_policy([4, 6, 4], seed=0), diagnostics=False)
    assert sizes == [cfg.batch_size] * cfg.outer_steps


@pytest.mark.parametrize(
    "bad", [{"lambda_init": 0.0}, {"lambda_init": -1.0}, {"match_tol": 0.0}, {"match_tol": 1.0}, {"match_tol": 1.5},
            {"bisect_iters": -1}, {"max_doublings": -1}],
)
def test_price_of_robustness_rejects_bad_bracketing_arguments(bad):
    with pytest.raises(ConfigError, match=next(iter(bad)).split("_")[0]):
        price_of_robustness(quad_env([0.5, -0.5]), make_cfg(), seeds=[0, 1, 2], policy_dims=[2, 4, 2], **bad)


@pytest.mark.parametrize("seeds", [[0, 1], [0, 0, 0], [0, 1, 1], [0, 1, -1]])
def test_price_of_robustness_needs_three_distinct_nonnegative_seeds(seeds):
    with pytest.raises(ConfigError, match="seeds: "):
        price_of_robustness(quad_env([0.5, -0.5]), make_cfg(), seeds=seeds, policy_dims=[2, 4, 2])


@pytest.mark.parametrize(
    "dims, pset, field",
    [
        ([3, 6, 2], None, "dims"),
        ([2, 6, 3], None, "dims"),
        ([2, 4, 2], PerturbationSet(p=2, epsilon=0.5, dim=3), "pset.dim"),
    ],
)
def test_mismatched_policy_or_ball_is_rejected_before_any_training(monkeypatch, dims, pset, field):
    def no_step(*args, **kwargs):
        raise AssertionError("a model trained before its shapes were checked")

    monkeypatch.setattr(trainer, "_outer_step", no_step)
    cfg = make_cfg() if pset is None else replace(make_cfg(), pset=pset)
    env = quad_env([0.5, -0.5])
    with pytest.raises(ConfigError, match=f"^{field}: "):
        price_of_robustness(env, cfg, seeds=[0, 1, 2], policy_dims=dims)
    with pytest.raises(ConfigError, match=f"^{field}: "):
        train(replace(cfg, mode="robust_plain"), env, init_policy(dims, seed=0))


@pytest.mark.parametrize(
    "dims, activations, field",
    [([2, 0, 2], None, "dims"), ([3, 4, 2], None, "dims"), ([2, 4, 2], ["tanh", "relu"], "activations")],
)
def test_price_of_robustness_checks_its_policy_before_drawing(monkeypatch, dims, activations, field):
    drawn = []
    monkeypatch.setattr(trainer, "draws", lambda *args, **kw: drawn.append(1) or draws(*args, **kw))
    with pytest.raises(ConfigError, match=f"^{field}: "):
        price_of_robustness(quad_env([0.5, -0.5]), make_cfg(), [0, 1, 2], dims, activations)
    assert not drawn
