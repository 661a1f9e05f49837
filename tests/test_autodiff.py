"""Forward/jvp/vjp/param_gradient against hand-coded and finite-difference oracles."""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from aajrlab.environments import Environment, draws
from aajrlab.errors import ConfigError, NumericError
from aajrlab.inner import Ascent, InnerLoopConfig, PerturbationSet, pga_batch
from aajrlab.policy import (
    Layer,
    PolicyParams,
    apply_gradient_step,
    forward,
    init_policy,
    jacobian,
    jvp,
    load_checkpoint,
    param_gradient,
    save_checkpoint,
    stack_policies,
    vjp,
)
from aajrlab.tape import Node, backward, dot, vsum

from conftest import (
    assemble_jacobian,
    eval_objective,
    fd_param_gradient,
    flatten_grads,
    linear_policy,
    repeat_tile_jacobian,
)


def straightline_forward(params, s):
    """Independent loop-over-neurons forward pass (oracle)."""
    h = [float(x) for x in s]
    for layer in params.layers:
        out = []
        for j in range(layer.weight.shape[0]):
            acc = float(layer.bias[j])
            for i in range(layer.weight.shape[1]):
                acc += float(layer.weight[j, i]) * h[i]
            out.append(math.tanh(acc) if layer.activation == "tanh" else acc)
        h = out
    return np.array(h)


def test_forward_identity_network():
    p = linear_policy(np.eye(2))
    s = np.array([0.3, -0.7])
    assert np.array_equal(forward(p, s), s)


def test_forward_tanh_unit_at_zero():
    p = PolicyParams(
        (
            Layer(np.array([[1.0]]), np.zeros(1), "tanh"),
            Layer(np.array([[1.0]]), np.zeros(1), "identity"),
        )
    )
    assert forward(p, np.zeros(1)) == pytest.approx(0.0, abs=0.0)


def test_forward_matches_straightline_oracle():
    p = init_policy([2, 5, 3], seed=11)
    s = np.array([1.0, 1.0])
    expected = straightline_forward(p, s)
    assert np.allclose(forward(p, s), expected, rtol=0, atol=1e-12)


def test_forward_dimension_mismatch():
    p = init_policy([2, 3, 2], seed=0)
    with pytest.raises(ConfigError):
        forward(p, np.zeros(3))


def test_jvp_linear_policy_is_weight_column():
    p = linear_policy(np.array([[2.0, 0.0], [0.0, 1.0]]))
    out = jvp(p, np.zeros(2), np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([2.0, 0.0]))


def test_jvp_zero_tangent():
    p = init_policy([3, 4, 2], seed=5)
    out = jvp(p, np.ones(3), np.zeros(3))
    assert np.array_equal(out, np.zeros(2))


@pytest.mark.parametrize("seed", range(10))
def test_jvp_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    p = init_policy([4, 6, 3], seed=seed)
    s = rng.uniform(-1, 1, 4)
    v = rng.standard_normal(4)
    h = 1e-5
    fd = (forward(p, s + h * v) - forward(p, s - h * v)) / (2 * h)
    got = jvp(p, s, v)
    assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


def test_jvp_linearity():
    rng = np.random.default_rng(7)
    p = init_policy([3, 5, 3], seed=7)
    s = rng.uniform(-1, 1, 3)
    v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
    a, b = 0.37, -1.91
    lhs = jvp(p, s, a * v1 + b * v2)
    rhs = a * jvp(p, s, v1) + b * jvp(p, s, v2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1e-12)


def test_vjp_linear_policy_is_transpose():
    p = linear_policy(np.array([[2.0, 0.0], [0.0, 1.0]]))
    out = vjp(p, np.zeros(2), np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([2.0, 1.0]))


def test_vjp_zero_cotangent():
    p = init_policy([3, 4, 2], seed=9)
    assert np.array_equal(vjp(p, np.ones(3), np.zeros(2)), np.zeros(3))


def test_adjoint_identity_100_pairs():
    rng = np.random.default_rng(13)
    p = init_policy([4, 7, 3], seed=13)
    s = rng.uniform(-1, 1, 4)
    for _ in range(100):
        v = rng.standard_normal(4)
        w = rng.standard_normal(3)
        lhs = float(w @ jvp(p, s, v))
        rhs = float(vjp(p, s, w) @ v)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_linear_policy_jacobian_is_weight_product():
    rng = np.random.default_rng(3)
    W1 = rng.standard_normal((4, 3))
    W2 = rng.standard_normal((2, 4))
    p = PolicyParams(
        (Layer(W1, np.zeros(4), "identity"), Layer(W2, np.zeros(2), "identity"))
    )
    J = jacobian(p, np.zeros(3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.array_equal(J[:, i], W2 @ (W1 @ e))


@pytest.mark.parametrize("dims", [(2, 6, 2), (3, 6, 3), (4, 8, 4)])
def test_jacobian_matches_vjp_rows_and_finite_differences(dims):
    rng = np.random.default_rng(sum(dims))
    h = 1e-5
    for seed in range(3):
        p = init_policy(dims, seed=seed)
        s = rng.uniform(-1, 1, dims[0])
        J = jacobian(p, s)
        assert J.shape == (dims[-1], dims[0])
        assert np.max(np.abs(J - assemble_jacobian(p, s))) <= 1e-12
        fd = np.stack(
            [(forward(p, s + h * e) - forward(p, s - h * e)) / (2 * h) for e in np.eye(dims[0])], axis=1
        )
        assert np.max(np.abs(J - fd)) <= 1e-6


@pytest.mark.parametrize("dims", [(2, 6, 2), (3, 6, 3), (4, 8, 4), (4, 8, 8, 4), (1, 1), (3, 2)])
def test_jacobian_equals_repeat_tile_construction_bit_for_bit(dims):
    # one forward pass per state carrying all identity tangents, against
    # in_dim copies of each state with one tangent each
    rng = np.random.default_rng(len(dims) + dims[0])
    for seed in range(3):
        p = init_policy(dims, seed=seed)
        S = rng.uniform(-2.0, 2.0, (5, dims[0]))
        for states in (S, S[0]):
            J = jacobian(p, states)
            assert J.shape == states.shape[:-1] + (dims[-1], dims[0])
            assert np.array_equal(J, repeat_tile_jacobian(p, states))
            assert np.array_equal(np.signbit(J), np.signbit(repeat_tile_jacobian(p, states)))


def test_jacobian_without_tanh_layer_is_batched_and_writable():
    # no tanh: the identity tangents never meet a state, yet every state
    # gets its own writable Jacobian
    rng = np.random.default_rng(0)
    for p in (init_policy([1, 1], seed=3), linear_policy(rng.standard_normal((2, 3)))):
        W = p.layers[0].weight
        S = rng.uniform(-1.0, 1.0, (4, p.in_dim))
        J = jacobian(p, S)
        assert J.shape == (4,) + W.shape
        assert J.flags.writeable
        assert all(np.array_equal(Ji, W) for Ji in J)
        J[0] += 1.0
        assert np.array_equal(J[1], W) and np.array_equal(jacobian(p, S)[0], W)
        single = jacobian(p, S[0])
        assert single.shape == W.shape and single.flags.writeable


def test_param_gradient_quadratic_identity_policy():
    p = linear_policy(np.eye(2))
    s = np.array([1.0, 0.0])

    def obj(h):
        z = h.forward(s)
        return 0.5 * dot(z, z)

    _, grads = param_gradient(p, obj)
    assert np.array_equal(grads[0][0], np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(grads[0][1], np.array([1.0, 0.0]))


def test_param_gradient_constant_objective():
    p = init_policy([2, 3, 2], seed=1)
    value, grads = param_gradient(p, lambda h: 2.25)
    assert value == 2.25
    assert all(np.all(g == 0.0) for pair in grads for g in pair)


def test_param_gradient_matches_finite_differences_on_mixed_objective():
    rng = np.random.default_rng(21)
    p = init_policy([3, 5, 2], seed=21)
    s = rng.uniform(-1, 1, 3)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    c = rng.standard_normal(2)

    def obj(h):
        z = h.forward(s)
        amp = h.jvp(s, u)
        r = z - c
        return 0.5 * dot(r, r) + 0.3 * dot(amp, amp)

    _, grads = param_gradient(p, obj)
    g_ad = flatten_grads(grads)
    g_fd = fd_param_gradient(p, obj, h=1e-5)
    assert np.linalg.norm(g_ad - g_fd) <= 1e-5 * max(np.linalg.norm(g_fd), 1e-12)


def test_param_gradient_reports_nonfinite_op():
    p = init_policy([2, 2], seed=0)
    s = np.ones(2)

    def obj(h):
        z = h.forward(s)
        huge = dot(z, z) * 1e308
        return huge * 1e308  # overflows to inf

    with np.errstate(over="ignore"), pytest.raises(NumericError, match="op"):
        param_gradient(p, obj)


def test_eval_objective_matches_param_gradient_value():
    p = init_policy([2, 4, 2], seed=4)
    s = np.array([0.2, -0.5])

    def obj(h):
        z = h.forward(s)
        return dot(z, z)

    value, _ = param_gradient(p, obj)
    assert value == pytest.approx(eval_objective(p, obj), rel=0, abs=0)


def test_apply_gradient_step():
    p = linear_policy(np.eye(2))
    grads = [(np.ones((2, 2)), np.ones(2))]
    out = apply_gradient_step(p, grads, lr=0.1)
    assert np.allclose(out.layers[0].weight, np.eye(2) - 0.1)
    assert np.allclose(out.layers[0].bias, -0.1 * np.ones(2))


def test_init_policy_seeded_and_bounded():
    p1 = init_policy([3, 5, 2], seed=42)
    p2 = init_policy([3, 5, 2], seed=42)
    for l1, l2 in zip(p1.layers, p2.layers):
        assert np.array_equal(l1.weight, l2.weight)
        assert np.array_equal(l1.bias, l2.bias)
    for layer in p1.layers:
        bound = 1.0 / np.sqrt(layer.weight.shape[1])
        assert np.max(np.abs(layer.weight)) <= bound
        assert np.max(np.abs(layer.bias)) <= bound


def test_policy_validation_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        PolicyParams((Layer(np.ones((2, 3)), np.zeros(2), "tanh"), Layer(np.ones((2, 4)), np.zeros(2), "identity")))
    with pytest.raises(ConfigError):
        PolicyParams((Layer(np.ones((2, 2)), np.zeros(2), "tanh"),))  # final must be identity
    with pytest.raises(ConfigError):
        PolicyParams((Layer(np.full((2, 2), np.nan), np.zeros(2), "identity"),))


def test_checkpoint_round_trip(tmp_path):
    p = init_policy([3, 4, 2], seed=8)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    assert loaded.dims() == p.dims()
    assert loaded.activations() == p.activations()
    for l1, l2 in zip(p.layers, loaded.layers):
        assert np.array_equal(l1.weight, l2.weight)
        assert np.array_equal(l1.bias, l2.bias)


def _checkpoint_text(weight=(1, 0, 0, 1), count=1, **payload) -> str:
    """A checkpoint file's text: ``count`` layers of a [2, 2] identity policy,
    with ``payload`` overriding its keys."""
    layer = {"weight": weight, "bias": [0, 0]}
    return json.dumps({"dims": [2, 2], "activations": ["identity"], "layers": [layer] * count, **payload})


# name -> the text of a file that is not a checkpoint
MALFORMED_CHECKPOINTS = {
    "too_few_weights": _checkpoint_text(weight=[1.0]),
    "not_json": "{",
    "json_string": '"a checkpoint"',
    "json_list": "[2, 2]",
    "dims_not_a_list": _checkpoint_text(dims=3),
    "activations_a_string": _checkpoint_text(count=2, dims=[2, 2, 2], activations="ti"),  # read one character at a time
    "unknown_activation": _checkpoint_text(activations=["relu"]),
    "last_activation_not_identity": _checkpoint_text(activations=["tanh"]),
    "weight_a_string": _checkpoint_text(weight=["one", 0, 0, 1]),
    "weight_nan": _checkpoint_text(weight=[math.nan, 0, 0, 1]),  # the NaN literal
    "weight_null": _checkpoint_text(weight=[None, 0, 0, 1]),
    "weight_bool": _checkpoint_text(weight=[True, 0, 0, 1]),
    "weight_beyond_float_range": _checkpoint_text(weight=[10**400, 0, 0, 1]),
    "weight_nested": _checkpoint_text(weight=[[1, 0], [0, 1]]),  # weights are stored flat
    "more_layers_than_dims": _checkpoint_text(count=2),
    "no_layers": _checkpoint_text(count=0),
    "layers_not_a_list": _checkpoint_text(layers="one"),
}


@pytest.mark.parametrize("text", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS.keys())
def test_checkpoint_rejects_malformed_naming_the_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(path))}[: ]"):
        load_checkpoint(path)


def test_checkpoint_that_is_not_text_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(path))} is not valid JSON"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_checkpoint_that_cannot_be_read_names_the_file(tmp_path, name):
    path = tmp_path / name  # no such file, or a directory
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(path))} cannot be read: "):
        load_checkpoint(path)


@pytest.mark.parametrize("layer", [{"weight": [1, 0, 0, 1]}, {"bias": [0, 0]}, [[1, 0, 0, 1], [0, 0]]])
def test_checkpoint_rejects_malformed_layer_naming_it(tmp_path, layer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2], "activations": ["identity"], "layers": [layer]}))
    with pytest.raises(ConfigError, match=f"checkpoint {path}: layer 0 "):
        load_checkpoint(path)


def test_tape_matmul_and_transpose_match_central_differences():
    rng = np.random.default_rng(17)
    values = [rng.standard_normal((3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(4), rng.standard_normal(3)]
    C = rng.standard_normal((3, 5))

    def f(X, Y, x, y):
        # 2-D @ 2-D, 1-D @ 2-D, 2-D @ 1-D, and transposes, each once
        return vsum((X @ Y) * C) + dot(x @ Y, x @ Y) + dot(X @ x, y) + vsum((Y.T @ X.T) * C.T)

    leaves = [Node(v) for v in values]
    backward(f(*leaves))
    h = 1e-6
    for k, leaf in enumerate(leaves):
        fd = np.zeros_like(values[k])
        for idx in np.ndindex(values[k].shape):
            plus = [v.copy() for v in values]
            minus = [v.copy() for v in values]
            plus[k][idx] += h
            minus[k][idx] -= h
            fd[idx] = (f(*plus) - f(*minus)) / (2 * h)
        assert leaf.grad.shape == values[k].shape
        assert np.max(np.abs(leaf.grad - fd)) <= 1e-6


def test_batched_policy_calls_equal_single_state_calls():
    rng = np.random.default_rng(23)
    p = init_policy([4, 8, 4], seed=23)
    S = rng.uniform(-1, 1, (5, 4))
    V = rng.standard_normal((5, 4))
    W = rng.standard_normal((5, 4))
    Z, T, J, G = forward(p, S), jvp(p, S, V), jacobian(p, S), vjp(p, S, W)
    assert Z.shape == (5, 4) and J.shape == (5, 4, 4)
    for i in range(5):
        assert np.array_equal(Z[i], forward(p, S[i]))
        assert np.array_equal(T[i], jvp(p, S[i], V[i]))
        assert np.array_equal(J[i], jacobian(p, S[i]))
        assert np.array_equal(G[i], vjp(p, S[i], W[i]))
    with pytest.raises(ConfigError):
        jvp(p, S, V[:3])


def test_stack_of_one_keeps_the_model_axis_and_computes_as_its_policy():
    rng = np.random.default_rng(29)
    p = init_policy([4, 8, 4], seed=29)
    stack = stack_policies([p])
    assert stack.models == 1 and p.models == 0
    env = Environment(kind="quadratic_congestion", c=np.linspace(-0.3, 0.5, 4), A=0.3 * np.eye(4), state_dim=4)
    S, A = draws(env, rng, 5)
    V, W = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    for call, args in ((forward, (S,)), (jvp, (S, V)), (vjp, (S, W))):
        assert np.array_equal(call(stack, *(x[None] for x in args)), call(p, *args)[None])
    pset, inner = PerturbationSet(p=2, epsilon=0.3, dim=4), InnerLoopConfig(eta=0.4, steps=3)
    stacked, alone = pga_batch(stack, S[None], A[None], env, pset, inner), pga_batch(p, S, A, env, pset, inner)
    for f in fields(Ascent):
        assert np.array_equal(getattr(stacked, f.name), getattr(alone, f.name)[None])

    def objective(X, V):
        """One value per model: the squared actions plus the squared jvp along V."""
        return lambda h: dot(h.forward(X), h.forward(X), (-2, -1)) + dot(h.jvp(X, V), h.jvp(X, V), (-2, -1))

    value, grads = param_gradient(stack, objective(S[None], V[None]))
    value_alone, grads_alone = param_gradient(p, objective(S, V))
    assert value == value_alone
    for (dW, db), (dW_alone, db_alone) in zip(grads, grads_alone):
        assert np.array_equal(dW, dW_alone[None]) and np.array_equal(db, db_alone[None])
