"""Property tests: row-wise projection and ascent directions on extreme
finite inputs, batched policy calls against single-state calls, the pruned
sampled spectral sup against every visited state's SVD, and config parsing
of shipped configs with one value replaced by arbitrary JSON."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aajrlab.cli import parse_config_dict
from aajrlab.environments import Environment, sample, samples
from aajrlab.errors import ConfigError
from aajrlab.inner import InnerLoopConfig, PerturbationSet, ascent_direction, pga_batch, project
from aajrlab.policy import (
    ACTIVATIONS,
    Layer,
    PolicyParams,
    _layer_pass,
    forward,
    init_policy,
    jacobian,
    scale_policy,
    stack_policies,
)
from aajrlab.regularizers import constraint_levels

from conftest import repeat_tile_jacobian, visited_sup

FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).smallest_subnormal


def rows_of(max_dim: int = 6):
    """(B, d) arrays of finite entries up to 1e300 in magnitude."""
    shapes = st.tuples(st.integers(1, 5), st.integers(1, max_dim))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=FINITE))


@settings(max_examples=300, deadline=None)
@given(rows=rows_of(), p=st.sampled_from([2.0, math.inf]), epsilon=st.floats(0.0, 1e3))
def test_project_rows_are_feasible_and_independent(rows, p, epsilon):
    pset = PerturbationSet(p=p, epsilon=epsilon, dim=rows.shape[1])
    out = project(rows, pset)
    assert out.shape == rows.shape
    for row, original in zip(out, rows):
        # feasible up to the rounding of the radial rescaling: a few units in
        # the last place, or a few subnormal steps for a subnormal epsilon
        assert pset.norm(row) <= epsilon * (1.0 + 4 * EPS) + 4 * TINY
        assert np.array_equal(row, project(original, pset))
    # the norm of stacked rows is the norm of each row
    assert np.array_equal(pset.norm(rows), [pset.norm(row) for row in rows])


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**160), max_size=8),
    env_seed=st.integers(0, 2**96),
    mirror=st.booleans(),
    d=st.integers(1, 5),
)
def test_samples_rows_are_sample_rows_bit_for_bit(seeds, env_seed, mirror, d):
    q, peer_mode = (d, "mirror") if mirror else (2, "independent")
    env = Environment("quadratic_congestion", np.zeros(2), np.ones((2, q)), d, seed=env_seed, peer_mode=peer_mode)
    S, P = samples(env, seeds)
    assert S.shape == (len(seeds), d) and P.shape == (len(seeds), q)
    for seed, s, a in zip(seeds, S, P):
        s_ref, a_ref = sample(env, seed)
        assert np.array_equal(s.view(np.uint64), s_ref.view(np.uint64))
        assert np.array_equal(a.view(np.uint64), a_ref.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(rows=rows_of(max_dim=8), eps0=st.floats(1e-12, 1.0))
def test_ascent_direction_is_shorter_than_unit_and_nonzero(rows, eps0):
    # with eps0 <= 1 the division cannot flush a non-zero subnormal entry
    # to zero, so a non-zero gradient always leaves a non-zero direction
    out = ascent_direction(rows, eps0)
    for u, grad in zip(out, rows):
        assert np.all(np.isfinite(u))
        assert np.linalg.norm(u) < 1.0
        assert np.any(u != 0.0) == np.any(grad != 0.0)
        assert np.array_equal(u, ascent_direction(grad, eps0))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 8), min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
    batch=st.integers(1, 9),
)
@example(dims=[1, 1], seed=0, batch=3)  # no tanh layer
def test_batched_forward_and_jacobian_rows_equal_single_calls(dims, seed, batch):
    params = init_policy(dims, seed=seed)
    states = np.random.default_rng(seed).uniform(-3.0, 3.0, (batch, dims[0]))
    Z, J = forward(params, states), jacobian(params, states)
    assert J.shape == (batch, dims[-1], dims[0]) and J.flags.writeable
    assert np.array_equal(J, repeat_tile_jacobian(params, states))
    for i, s in enumerate(states):
        assert np.array_equal(Z[i], forward(params, s))
        assert np.array_equal(J[i], jacobian(params, s))


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
    batch=st.integers(0, 5),
    zero_bias=st.booleans(),
)
def test_layer_pass_at_s_and_at_s_plus_zero_gives_the_jacobians_bit_for_bit(data, dims, seed, batch, zero_bias):
    # the outer step hands the training ascent its pass at S for the first iterate, S + 0.0: a -0.0 entry turns
    # into +0.0 there, and the Jacobians read the states only through 1 - h * h, which no zero's sign moves
    params = init_policy(dims, seed=seed)
    if zero_bias:  # the all -0.0 row then meets signed-zero pre-activations at every layer
        signs = np.random.default_rng(seed).choice([0.0, -0.0], len(params.layers))
        layers = [Layer(layer.weight, np.full_like(layer.bias, sign), layer.activation)
                  for layer, sign in zip(params.layers, signs)]
        params = PolicyParams(tuple(layers))
    drawn = data.draw(arrays(np.float64, (batch, dims[0]), elements=SIGNED_ZEROS | st.floats(-3.0, 3.0)))
    S = np.concatenate([np.full((1, dims[0]), -0.0), drawn])
    Z, J = _layer_pass(params, S)
    Z0, J0 = _layer_pass(params, S + 0.0)
    assert np.array_equal(J.view(np.uint64), J0.view(np.uint64))
    assert np.array_equal(J.view(np.uint64), jacobian(params, S).view(np.uint64))  # what the SVD read before
    assert np.array_equal(Z, Z0)  # as numbers; an output's zero may differ in sign


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 5),
    h=st.integers(2, 9),
    models=st.integers(1, 5),
    batch=st.integers(1, 29),
    steps=st.integers(0, 5),
    activation=st.sampled_from(ACTIVATIONS),
    log_scale=st.floats(-3.0, 2.0),
    zero_layer=st.sampled_from([None, 0, 1]),
    p=st.sampled_from([2.0, math.inf]),
    seed=st.integers(0, 2**16),
)
@example(d=3, h=4, models=2, batch=6, steps=3, activation="identity", log_scale=0.0, zero_layer=None, p=2.0, seed=0)
@example(d=2, h=2, models=1, batch=1, steps=0, activation="tanh", log_scale=0.0, zero_layer=0, p=math.inf, seed=1)
def test_pruned_visited_sup_is_the_full_svd_max_bit_for_bit(
    d, h, models, batch, steps, activation, log_scale, zero_layer, p, seed
):
    # with an identity net every row's bound ties, so every row takes an SVD; a zero layer zeroes the first model
    members = [scale_policy(init_policy([d, h, d], [activation, "identity"], seed=seed + i), 10.0**log_scale)
               for i in range(models)]
    if zero_layer is not None:
        layers = list(members[0].layers)
        zero = layers[zero_layer]
        layers[zero_layer] = Layer(0 * zero.weight, 0 * zero.bias, zero.activation)
        members[0] = PolicyParams(tuple(layers))
    env = Environment("quadratic_congestion", np.linspace(-0.5, 0.5, d), 0.5 * np.eye(d), d, seed=seed)
    S, A = (x.reshape(models, batch, -1) for x in samples(env, range(models * batch)))
    stack, pset = stack_policies(members), PerturbationSet(p=p, epsilon=0.4, dim=d)
    record = pga_batch(stack, S, A, env, pset, InnerLoopConfig(eta=0.3, steps=steps))
    sup = constraint_levels(stack, S, record)[1]
    assert np.array_equal(sup.view(np.uint64), visited_sup(stack, S, record).view(np.uint64))
    assert constraint_levels(members[-1], S[-1], record[-1])[1] == sup[-1]
    if zero_layer is not None:
        assert sup[0] == 0.0


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}

# integers beyond the float range, or beyond what numpy can size an array by
HUGE = st.sampled_from([10**400, -(10**400), 10**30, 2**63])
JSON_LEAVES = st.none() | st.booleans() | st.integers() | HUGE | st.floats() | st.text(max_size=8)
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position below the root of a parsed JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    node = copy.deepcopy(node)
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


@settings(max_examples=600, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SHIPPED)), value=JSON_VALUES)
def test_config_with_one_value_replaced_parses_or_raises_config_error(data, name, value):
    raw = SHIPPED[name]
    path = data.draw(st.sampled_from(list(_paths(raw))), label="path")
    try:
        parse_config_dict(_replaced(raw, path, value))
    except ConfigError:
        pass
