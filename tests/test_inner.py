"""Projection operators and PGA runs against closed-form recursions."""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from aajrlab.environments import Environment, sample
from aajrlab import inner as inner_module
from aajrlab.errors import ConfigError, NumericError
from aajrlab.inner import (
    Ascent,
    InnerLoopConfig,
    PerturbationSet,
    ascent_direction,
    dump_trajectory,
    pga_batch,
    pga_run,
    project,
    trajectory_records,
)
from aajrlab.policy import init_policy, stack_policies

from conftest import linear_policy


def quad_env(c, m=2, A=None, state_dim=None):
    c = np.asarray(c, dtype=float)
    m = len(c)
    return Environment(
        kind="quadratic_congestion",
        c=c,
        A=np.zeros((m, m)) if A is None else np.asarray(A, dtype=float),
        state_dim=m if state_dim is None else state_dim,
    )


def test_project_l2_radial_scaling():
    pset = PerturbationSet(p=2, epsilon=1.0, dim=2)
    assert np.allclose(project(np.array([3.0, 4.0]), pset), [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_linf_clamp():
    pset = PerturbationSet(p=math.inf, epsilon=1.0, dim=2)
    assert np.array_equal(project(np.array([0.5, -2.0]), pset), np.array([0.5, -1.0]))


def test_project_identity_inside():
    for p in (2, math.inf):
        pset = PerturbationSet(p=p, epsilon=1.0, dim=2)
        delta = np.array([0.1, -0.2])
        assert np.array_equal(project(delta, pset), delta)


def test_project_nonexpansive():
    rng = np.random.default_rng(2)
    for p in (2, math.inf):
        pset = PerturbationSet(p=p, epsilon=0.7, dim=3)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            assert np.linalg.norm(project(x, pset) - project(y, pset)) <= np.linalg.norm(x - y) + 1e-12


def test_ascent_direction_cases():
    u = ascent_direction(np.array([3.0, 4.0]), 1e-8)
    assert np.allclose(u, [0.6, 0.8], atol=1e-8)
    assert np.linalg.norm(u) < 1.0
    assert np.array_equal(ascent_direction(np.zeros(2), 1e-8), np.zeros(2))
    assert np.allclose(ascent_direction(np.array([1.0, 0.0]), 1.0), [0.5, 0.0], rtol=0, atol=0)


def test_pga_zero_steps():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    traj = pga_run(p, np.zeros(2), np.zeros(2), env, PerturbationSet(2, 1.0, 2), InnerLoopConfig(eta=0.5, steps=0))
    assert traj.steps == 0
    assert np.array_equal(traj.deltas[-1], np.zeros(2))
    assert len(traj.deltas) == 1 and len(traj.values) == 1 and len(traj.grads) == 1
    assert traj.ascent.shape == (0, 2) and traj.moved.shape == (0,) and traj.amps.shape == (0,)


def test_pga_single_step_closed_form():
    # identity policy, L = 0.5||z - c||^2, s = 0: grad g(0) = -c
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    pset = PerturbationSet(p=math.inf, epsilon=2.0, dim=2)
    traj = pga_run(p, np.zeros(2), np.zeros(2), env, pset, InnerLoopConfig(eta=0.5, steps=1))
    assert np.array_equal(traj.grads[0], np.array([-1.0, 0.0]))
    assert np.array_equal(traj.deltas[1], np.array([-0.5, 0.0]))


def test_pga_five_steps_matches_scalar_recursion():
    # hand-rolled oracle: x_{t+1} = clamp(x_t + eta * (x_t - 1), [-2, 2]) per coordinate
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    pset = PerturbationSet(p=math.inf, epsilon=2.0, dim=2)
    eta = 0.5
    traj = pga_run(p, np.zeros(2), np.zeros(2), env, pset, InnerLoopConfig(eta=eta, steps=5))
    x, y = 0.0, 0.0
    expected = [(x, y)]
    for _ in range(5):
        x = min(2.0, max(-2.0, x + eta * (x - 1.0)))
        y = min(2.0, max(-2.0, y + eta * (y - 0.0)))
        expected.append((x, y))
    for delta, (ex, ey) in zip(traj.deltas, expected):
        assert delta[0] == pytest.approx(ex, abs=1e-15)
        assert delta[1] == pytest.approx(ey, abs=1e-15)


@pytest.mark.parametrize("p_norm", [2, math.inf])
def test_trajectory_invariants_random_net(p_norm):
    env = quad_env([0.7, -0.4, 0.2], state_dim=3)
    params = init_policy([3, 6, 3], seed=31)
    pset = PerturbationSet(p=p_norm, epsilon=0.4, dim=3)
    cfg = InnerLoopConfig(eta=0.3, steps=6)
    s, a = sample(env, 3)
    traj = pga_run(params, s, a, env, pset, cfg)
    assert np.array_equal(traj.deltas[0], np.zeros(3))
    for delta in traj.deltas:
        assert pset.norm(delta) <= pset.epsilon + 1e-12
    for u in traj.ascent:
        assert np.linalg.norm(u) < 1.0
    for t, v in enumerate(traj.update):
        moved = not np.array_equal(traj.deltas[t + 1], traj.deltas[t])
        assert traj.moved[t] == moved
        assert np.linalg.norm(v) == (pytest.approx(1.0, abs=1e-12) if moved else 0.0)
    assert traj.values.shape == (cfg.steps + 1,)
    assert traj.grads.shape == (cfg.steps + 1, 3)
    assert traj.amps.shape == (cfg.steps,)


def test_projection_optimality_inner_product():
    # <delta_t + eta*grad - delta_{t+1}, delta_t - delta_{t+1}> <= tol per step
    env = quad_env([1.0, -0.5])
    params = init_policy([2, 4, 2], seed=5)
    for p_norm in (2, math.inf):
        pset = PerturbationSet(p=p_norm, epsilon=0.2, dim=2)
        cfg = InnerLoopConfig(eta=0.8, steps=8)
        s, a = sample(env, 1)
        traj = pga_run(params, s, a, env, pset, cfg)
        for t in range(traj.steps):
            lhs = np.dot(
                traj.deltas[t] + cfg.eta * traj.grads[t] - traj.deltas[t + 1],
                traj.deltas[t] - traj.deltas[t + 1],
            )
            assert lhs <= 1e-12


def test_pga_deterministic_bit_identical():
    env = quad_env([0.3, 0.9])
    params = init_policy([2, 5, 2], seed=8)
    pset = PerturbationSet(p=2, epsilon=0.5, dim=2)
    cfg = InnerLoopConfig(eta=0.25, steps=7)
    s, a = sample(env, 11)
    t1 = pga_run(params, s, a, env, pset, cfg)
    t2 = pga_run(params, s, a, env, pset, cfg)
    for f in fields(Ascent):
        assert np.array_equal(getattr(t1, f.name), getattr(t2, f.name))


def test_pga_epsilon_zero_stays_at_origin():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    pset = PerturbationSet(p=2, epsilon=0.0, dim=2)
    traj = pga_run(p, np.zeros(2), np.zeros(2), env, pset, InnerLoopConfig(eta=1.0, steps=3))
    for delta in traj.deltas:
        assert np.array_equal(delta, np.zeros(2))
    assert not traj.moved.any() and np.array_equal(traj.update, np.zeros((3, 2)))


def test_pga_numeric_error_names_step():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    pset = PerturbationSet(p=2, epsilon=1e300, dim=2)
    cfg = InnerLoopConfig(eta=1e100, steps=4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=r"step \d+"):
        pga_run(p, np.zeros(2), np.zeros(2), env, pset, cfg)


def test_trajectory_records_schema():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    pset = PerturbationSet(p=math.inf, epsilon=2.0, dim=2)
    traj = pga_run(p, np.zeros(2), np.zeros(2), env, pset, InnerLoopConfig(eta=0.5, steps=3))
    records = trajectory_records(traj)
    assert len(records) == 4
    for rec in records:
        assert set(rec) == {"t", "delta", "u", "v", "g", "grad_norm", "dir_amp"}
    assert records[-1]["u"] is None and records[-1]["v"] is None and records[-1]["dir_amp"] is None
    assert records[0]["u"] is not None

    buf = io.StringIO()
    dump_trajectory(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 4
    parsed = json.loads(lines[1])
    assert parsed["t"] == 1


def _stalling_runs():
    """One-row ascents with stalled steps: on the sup-norm ball the iterate
    reaches the corner at step 3 and stays (steps 3 and 4 do not move); with
    epsilon = 0 no step moves."""
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    cases = [(PerturbationSet(p=math.inf, epsilon=2.0, dim=2), InnerLoopConfig(eta=0.5, steps=5))]
    cases.append((PerturbationSet(p=2, epsilon=0.0, dim=2), InnerLoopConfig(eta=1.0, steps=3)))
    return [pga_run(p, np.zeros(2), np.zeros(2), env, pset, cfg) for pset, cfg in cases]


def _tuple_records(row):
    """The JSON records as the per-step tuples of a run used to give them,
    with None for the direction of a step that did not move."""
    deltas, ascent_dirs, inner_grads = tuple(row.deltas), tuple(row.ascent), tuple(row.grads)
    update_dirs = tuple(v if m else None for v, m in zip(row.update, row.moved))
    inner_values, dir_amps = tuple(row.values.tolist()), tuple(row.amps.tolist())
    records = []
    for t, delta in enumerate(deltas):
        last = t == len(deltas) - 1
        records.append(
            {
                "t": t,
                "delta": [float(x) for x in delta],
                "u": None if last else [float(x) for x in ascent_dirs[t]],
                "v": None if last or update_dirs[t] is None else [float(x) for x in update_dirs[t]],
                "g": float(inner_values[t]),
                "grad_norm": float(np.linalg.norm(inner_grads[t])),
                "dir_amp": None if last else float(dir_amps[t]),
            }
        )
    return records


def test_trajectory_records_of_stalled_steps_have_null_v():
    corner, frozen = _stalling_runs()
    assert corner.moved.tolist() == [True, True, True, False, False]
    assert not frozen.moved.any()
    for traj in (corner, frozen):
        records = trajectory_records(traj)
        assert [r["v"] is None for r in records] == [not m for m in traj.moved.tolist()] + [True]
        assert records == _tuple_records(traj)
        buf = io.StringIO()
        dump_trajectory(traj, buf)
        assert buf.getvalue() == "".join(json.dumps(r) + "\n" for r in _tuple_records(traj))


def test_per_step_views_agree_with_the_arrays():
    env = quad_env([0.7, -0.4, 0.2], state_dim=3)
    params = init_policy([3, 6, 3], seed=31)
    s, a = sample(env, 3)
    moving = pga_run(params, s, a, env, PerturbationSet(p=2, epsilon=0.4, dim=3), InnerLoopConfig(eta=0.3, steps=6))
    for traj in (moving, *_stalling_runs()):
        K = len(traj.moved)
        assert traj.steps == K == len(traj.values) - 1
        assert traj.inner_values == tuple(traj.values.tolist())
        assert all(type(g) is float for g in traj.inner_values)
        assert len(traj.update_dirs) == K
        for t, v in enumerate(traj.update_dirs):
            assert (v is None) == (not traj.moved[t])
            assert v is None or np.array_equal(v, traj.update[t])


def test_project_idempotent_and_optimal():
    rng = np.random.default_rng(9)
    for p_norm in (2, math.inf):
        pset = PerturbationSet(p=p_norm, epsilon=0.6, dim=3)
        for _ in range(50):
            x = rng.uniform(-3, 3, 3)
            px = project(x, pset)
            # boundary points may re-scale by one ulp of the norm
            assert np.allclose(project(px, pset), px, rtol=0, atol=1e-15)
            # optimality: no feasible point is closer to x than its projection
            y = project(rng.uniform(-3, 3, 3), pset)
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - y) + 1e-12


def test_project_huge_finite_input_keeps_direction():
    pset = PerturbationSet(p=2, epsilon=0.5, dim=2)
    out = project(np.array([-1e308, 0.0]), pset)
    assert np.allclose(out, [-0.5, 0.0], rtol=0, atol=1e-15)


def test_trajectory_arrays_read_only():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    traj = pga_run(
        p, np.zeros(2), np.zeros(2), env, PerturbationSet(2, 1.0, 2), InnerLoopConfig(eta=0.5, steps=2)
    )
    with pytest.raises(ValueError):
        traj.deltas[1][0] = 99.0
    with pytest.raises(ValueError):
        traj.grads[0][0] = 99.0


def test_config_validation():
    with pytest.raises(ConfigError):
        PerturbationSet(p=1, epsilon=1.0, dim=2)
    with pytest.raises(ConfigError):
        PerturbationSet(p=2, epsilon=-0.1, dim=2)
    with pytest.raises(ConfigError):
        InnerLoopConfig(eta=0.0, steps=1)
    with pytest.raises(ConfigError):
        InnerLoopConfig(eta=0.1, steps=-1)
    with pytest.raises(ConfigError):
        InnerLoopConfig(eta=0.1, steps=1, eps0=0.0)


def test_pga_dimension_mismatch():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    with pytest.raises(ConfigError):
        pga_run(p, np.zeros(2), np.zeros(2), env, PerturbationSet(2, 1.0, 3), InnerLoopConfig(eta=0.1, steps=1))


@pytest.mark.parametrize(
    "dims,p_norm,kind",
    [((2, 6, 2), 2, "quadratic"), ((3, 6, 3), math.inf, "softplus"), ((4, 8, 4), 2, "mirror")],
)
def test_pga_batch_rows_equal_pga_run_bit_for_bit(dims, p_norm, kind):
    d, m = dims[0], dims[-1]
    if kind == "softplus":
        env = Environment(
            kind="softplus_congestion", c=np.linspace(-0.4, 0.6, m), A=np.zeros((m, d)), state_dim=d, beta=2.0
        )
    else:
        env = Environment(
            kind="quadratic_congestion",
            c=np.linspace(-0.3, 0.5, m),
            A=2.0 * np.eye(m) if kind == "mirror" else 0.3 * np.eye(m),
            state_dim=d,
            peer_mode="mirror" if kind == "mirror" else "independent",
        )
    pset = PerturbationSet(p=p_norm, epsilon=0.3, dim=d)
    cfg = InnerLoopConfig(eta=0.4, steps=5)
    stack, batches = [], []
    for seed in range(3):
        params = init_policy(dims, seed=seed)
        pairs = [sample(env, 10 * seed + k) for k in range(6)]
        S, A = np.array([s for s, _ in pairs]), np.array([a for _, a in pairs])
        batch = pga_batch(params, S, A, env, pset, cfg)
        stack.append((params, S, A))
        batches.append(batch)
        for (s, a), got in zip(pairs, batch):
            one = pga_run(params, s, a, env, pset, cfg)
            for f in fields(Ascent):
                assert np.array_equal(getattr(one, f.name), getattr(got, f.name))
    # the three models stacked as one: each model's rows are its own batch's, bit for bit
    params, S, A = stack_policies([p for p, _, _ in stack]), *(np.stack(x) for x in list(zip(*stack))[1:])
    stacked = pga_batch(params, S, A, env, pset, cfg)
    for m, batch in enumerate(batches):
        for f in fields(Ascent):
            assert np.array_equal(getattr(stacked[m], f.name), getattr(batch, f.name))


@pytest.mark.parametrize("steps", [4, 0])
@pytest.mark.parametrize("p_norm", [2, math.inf])
@pytest.mark.parametrize("full", [True, False])
def test_per_model_step_sizes_give_each_model_its_own_pga_batch_bit_for_bit(full, p_norm, steps):
    env = quad_env([0.6, -0.8, 0.3])
    if p_norm == math.inf:
        env = Environment(kind="softplus_congestion", c=env.c, A=env.A, state_dim=3, beta=2.0)
    pset = PerturbationSet(p=p_norm, epsilon=0.5, dim=3)
    members, etas = [init_policy([3, 6, 3], seed=seed) for seed in range(3)], [0.05, 0.7, 6.0]
    pairs = [[sample(env, 10 * seed + k) for k in range(4)] for seed in range(3)]
    S, A = (np.array([[pair[i] for pair in rows] for rows in pairs]) for i in (0, 1))
    # the stack's config carries a step size that the per-model ones replace
    stack, cfg = stack_policies(members), InnerLoopConfig(eta=1.0, steps=steps)
    got = inner_module._ascend(stack, S, A, env, pset, cfg, full, eta=np.array(etas)[:, None, None])
    for m, (params, eta) in enumerate(zip(members, etas)):
        own = pga_batch(params, S[m], A[m], env, pset, InnerLoopConfig(eta=eta, steps=steps))
        for f in fields(Ascent):
            value = getattr(got, f.name)
            if full or f.name in ("deltas", "ascent"):
                assert np.array_equal(value[m], getattr(own, f.name))
            else:
                assert value is None  # the training record keeps only the iterates and ascent directions
    if steps:  # each model's iterates are not those of the config's step size
        plain = inner_module._ascend(stack, S, A, env, pset, cfg, full).deltas
        assert not any(np.array_equal(got.deltas[m], plain[m]) for m in range(3))


def test_pga_batch_numeric_error_names_step_and_sample():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    states = np.zeros((4, 2))
    states[2] = [1e155, 0.0]  # its loss overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=r"step \d+, sample 2"):
        pga_batch(p, states, np.zeros((4, 2)), env, PerturbationSet(2, 1.0, 2), InnerLoopConfig(eta=0.5, steps=3))


def test_pga_batch_rejects_mismatched_contexts():
    env = quad_env([1.0, 0.0])
    p = linear_policy(np.eye(2))
    with pytest.raises(ConfigError):
        pga_batch(
            p, np.zeros((3, 2)), np.zeros((2, 2)), env, PerturbationSet(2, 1.0, 2), InnerLoopConfig(eta=0.1, steps=1)
        )


def test_ascent_direction_keeps_gradient_whose_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = ascent_direction(np.array([1e200, -1e200]), 1e-8)
    assert np.allclose(u, [math.sqrt(0.5), -math.sqrt(0.5)], rtol=1e-14, atol=0)
    assert np.linalg.norm(u) < 1.0
    rows = ascent_direction(np.array([[1e200, -1e200], [3.0, 4.0]]), 1e-8)
    assert np.array_equal(rows[0], u)
    assert np.array_equal(rows[1], ascent_direction(np.array([3.0, 4.0]), 1e-8))
