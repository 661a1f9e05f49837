"""The one integer rule: every count and seed a caller supplies is an
integer of at least its minimum, or a ConfigError naming its field that is
raised before anything is drawn or run. Numpy integers count as integers
and give the results of the plain ints they equal. The number rule: every
real hyperparameter is a finite number > 0 (or >= 0), or a ConfigError
naming its field."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from aajrlab import inner as inner_module
from aajrlab import trainer, verification
from aajrlab.environments import Environment, check_seeds, sample, samples
from aajrlab.errors import ConfigError, check_count, check_positive
from aajrlab.inner import InnerLoopConfig, PerturbationSet, pga_run
from aajrlab.policy import init_policy, load_checkpoint, save_checkpoint
from aajrlab.regularizers import RegularizerConfig
from aajrlab.trainer import TrainConfig, evaluate_robust_risk, price_of_robustness, train
from aajrlab.verification import (
    WitnessSpec,
    check_inclusion,
    class_witness,
    estimate_C,
    random_orthonormal_basis,
    subspace_directions,
    check_effective_smoothness,
    stable_step_size,
    verify_suite,
)

ENV = Environment("quadratic_congestion", np.array([0.5, -0.5]), 0.5 * np.eye(2), 2)
PARAMS = init_policy([2, 3, 2], seed=0)
PSET = PerturbationSet(p=2, epsilon=0.3, dim=2)
INNER = InnerLoopConfig(eta=0.3, steps=2)
REG = RegularizerConfig(lam=0.5, gamma=0.5, gamma_adv=0.5)
PAIR = sample(ENV, 0)
TRAJ = pga_run(PARAMS, *PAIR, ENV, PSET, INNER)
BASIS = np.array([[1.0], [0.0]])
TRAIN = dict(mode="robust_aajr", outer_lr=0.05, outer_steps=2, batch_size=2, inner=INNER, pset=PSET, reg=REG)
SWEEP = dict(
    seeds=[0, 1, 2], policy_dims=[2, 3, 2], eval_samples=3, achieved_samples=2, bisect_iters=2, max_doublings=2
)
VERIFY = dict(seeds=[0], grid=2, n_samples=2, witness_dims=(2,))


def environment(**overrides):
    fields = {"kind": "quadratic_congestion", "c": [0.5, -0.5], "A": np.zeros((2, 2)), "state_dim": 2}
    return Environment(**{**fields, **overrides})


def trained(**overrides):
    cfg = TrainConfig(**{**TRAIN, **overrides})
    return cfg, train(cfg, ENV, PARAMS)


def checkpoint(tmp_path, width):
    """A saved [2, 3, 2] policy whose file declares ``dims`` [2, width, 2]."""
    path = tmp_path / "checkpoint.json"
    save_checkpoint(PARAMS, path)
    payload = json.loads(path.read_text())
    payload["dims"][1] = width if isinstance(width, (bool, float)) else int(width)  # JSON holds plain ints
    path.write_text(json.dumps(payload))
    return load_checkpoint(path)


# entry -> (field, a valid value, a non-integral value, call(value, tmp_path))
CASES = {
    "Environment.state_dim": ("state_dim", 2, 2.5, lambda n, _: environment(state_dim=n)),
    "Environment.seed": ("seed", 3, 2.5, lambda n, _: environment(seed=n)),
    "sample": ("seed", 4, 1.5, lambda n, _: sample(ENV, n)),
    "samples": ("seed", 4, 1.5, lambda n, _: samples(ENV, [0, n])),
    "check_seeds": ("seeds", 2, 1.5, lambda n, _: check_seeds([0, n])),
    "PerturbationSet.dim": ("dim", 2, 2.5, lambda n, _: PerturbationSet(p=2, epsilon=0.3, dim=n)),
    "InnerLoopConfig.steps": ("steps", 2, 2.7, lambda n, _: pga_run(PARAMS, *PAIR, ENV, PSET, InnerLoopConfig(0.3, n))),
    "policy_spec.dims": ("dims", 3, 3.7, lambda n, _: init_policy([2, n, 2])),
    "policy_spec.init_seed": ("init_seed", 5, 2.5, lambda n, _: init_policy([2, 3, 2], seed=n)),
    "load_checkpoint.dims": ("dims", 3, 3.5, lambda n, tmp: checkpoint(tmp, n)),
    "TrainConfig.outer_steps": ("outer_steps", 2, 2.5, lambda n, _: trained(outer_steps=n)),
    "TrainConfig.batch_size": ("batch_size", 2, 2.5, lambda n, _: trained(batch_size=n)),
    "TrainConfig.seed": ("seed", 1, 1.5, lambda n, _: trained(seed=n)),
    "_eval_draws.n_samples": ("n_samples", 3, 2.5, lambda n, _: evaluate_robust_risk(PARAMS, ENV, PSET, INNER, n, 0)),
    "_eval_draws.seed": ("seed", 7, 2.5, lambda n, _: evaluate_robust_risk(PARAMS, ENV, PSET, INNER, 3, n)),
    **{
        f"check_sweep.{name}": (name, 2, 2.5, lambda n, _, name=name: price_of_robustness(
            ENV, TrainConfig(**TRAIN), **{**SWEEP, name: n}
        ))
        for name in ("eval_samples", "achieved_samples", "eval_seed", "bisect_iters", "max_doublings")
    },
    "_segment_scan.grid": ("grid", 3, 2.5, lambda n, _: estimate_C(PARAMS, ENV, *PAIR, TRAJ, grid=n)),
    "check_inclusion.n_samples": ("n_samples", 2, 1.5, lambda n, _: check_inclusion(PARAMS, ENV, PSET, INNER, 1.0, n)),
    "check_inclusion.seed": ("seed", 3, 1.5, lambda n, _: check_inclusion(PARAMS, ENV, PSET, INNER, 1.0, 2, seed=n)),
    **{
        f"check_verify.{name}": (name, value, 2.5, lambda n, _, name=name: verify_suite(
            ENV, [2, 3, 2], None, PSET, INNER, REG, **{**VERIFY, name: (n,) if name == "witness_dims" else n}
        ))
        for name, value in (("grid", 2), ("n_samples", 2), ("witness_dims", 3))
    },
    "_class_witnesses.e2e_seed": ("e2e_seed", 3, 2.5, lambda n, _: class_witness(
        WitnessSpec(1.0, 2.0, BASIS), [np.array([1.0, 0.0])], e2e_seed=n
    )),
    "random_orthonormal_basis.dim": ("dim", 3, 3.5, lambda n, _: random_orthonormal_basis(n, 1)),
    "random_orthonormal_basis.k": ("k", 2, 1.5, lambda n, _: random_orthonormal_basis(4, n)),
    "random_orthonormal_basis.seed": ("seed", 6, 1.5, lambda n, _: random_orthonormal_basis(4, 2, seed=n)),
    "subspace_directions.count": ("count", 2, 1.5, lambda n, _: subspace_directions(BASIS, n)),
    "subspace_directions.seed": ("seed", 8, 1.5, lambda n, _: subspace_directions(BASIS, 2, seed=n)),
}


def same(a, b):
    """a and b hold equal values of the same types, array by array."""
    assert type(a) is type(b), (type(a), type(b))
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            same(a[key], b[key])
    else:
        assert a == b


@pytest.mark.parametrize("entry", CASES)
def test_every_count_and_seed_is_an_integer_checked_before_any_draw(monkeypatch, tmp_path, entry):
    field, valid, non_integral, call = CASES[entry]

    def no_draw(*args, **kwargs):
        raise AssertionError("a draw or an ascent ran before the integer was checked")

    with monkeypatch.context() as spies:
        spies.setattr(np.random, "default_rng", no_draw)
        for module in (inner_module, trainer, verification):
            spies.setattr(module, "pga_batch", no_draw)
        spies.setattr(verification, "pga_run", no_draw)
        for bad in (non_integral, True):
            with pytest.raises(ConfigError, match=rf"\b{field}\b.*must be an integer >= \d+, got {bad!r}") as info:
                call(bad, tmp_path)
            if entry.startswith("load_checkpoint"):
                assert str(tmp_path / "checkpoint.json") in str(info.value)
    same(call(np.int64(valid), tmp_path), call(valid, tmp_path))


@pytest.mark.parametrize("value", [0, 1, 7, np.int64(7), np.int32(3), np.uint8(2)])
def test_check_count_returns_a_plain_int(value):
    got = check_count(value, 0, "n")
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [-1, 2.0, 2.5, True, np.bool_(True), "3", None, np.float64(1.0)])
def test_check_count_rejects_what_is_not_an_integer_at_least_the_minimum(value):
    with pytest.raises(ConfigError, match=r"^n: must be an integer >= 0, got ") as info:
        check_count(value, 0, "n")
    assert info.value.field == "n"


# entry -> (field, rule, call(value)); infinities and nan were accepted or
# rejected with a rule that did not say "finite", a negative value is
# rejected with the same rule, and so are a bool (True passed as 1) and a
# string (which raised a bare TypeError)
REAL_CASES = {
    "Environment.beta": ("beta", ">", lambda x: environment(kind="softplus_congestion", beta=x)),
    "InnerLoopConfig.eta": ("eta", ">", lambda x: InnerLoopConfig(eta=x, steps=2)),
    "InnerLoopConfig.eps0": ("eps0", ">", lambda x: InnerLoopConfig(eta=0.3, steps=2, eps0=x)),
    "PerturbationSet.epsilon": ("epsilon", ">=", lambda x: PerturbationSet(p=2, epsilon=x, dim=2)),
    "TrainConfig.outer_lr": ("outer_lr", ">", lambda x: TrainConfig(**{**TRAIN, "outer_lr": x})),
    "RegularizerConfig.lam": ("lambda", ">=", lambda x: RegularizerConfig(lam=x, gamma=0.5, gamma_adv=0.5)),
    "RegularizerConfig.gamma": ("gamma", ">", lambda x: RegularizerConfig(lam=0.5, gamma=x, gamma_adv=0.5)),
    "RegularizerConfig.gamma_adv": ("gamma_adv", ">", lambda x: RegularizerConfig(lam=0.5, gamma=0.5, gamma_adv=x)),
    "check_sweep.lambda_init": ("lambda_init", ">", lambda x: price_of_robustness(
        ENV, TrainConfig(**TRAIN), **SWEEP, lambda_init=x
    )),
    "check_verify.tol_curv_scale": ("tol_curv_scale", ">", lambda x: verify_suite(
        ENV, [2, 3, 2], None, PSET, INNER, REG, **VERIFY, tol_curv_scale=x
    )),
    "_check_one_sample.tol_scale": ("tol_scale", ">", lambda x: check_effective_smoothness(
        PARAMS, ENV, PAIR, PSET, INNER, tol_scale=x
    )),
    "WitnessSpec.gamma": ("gamma", ">", lambda x: WitnessSpec(x, 2.0, BASIS)),
    "WitnessSpec.offspace_gain": ("offspace_gain", ">", lambda x: WitnessSpec(1.0, x, BASIS)),
    "_check_one_sample.h": ("h", ">", lambda x: check_effective_smoothness(PARAMS, ENV, PAIR, PSET, INNER, h=x)),
    "check_inclusion.gamma": ("gamma", ">", lambda x: check_inclusion(PARAMS, ENV, PSET, INNER, x, 2)),
    "check_verify.eta_safety": ("eta_safety", ">", lambda x: verify_suite(
        ENV, [2, 3, 2], None, PSET, INNER, REG, **VERIFY, eta_safety=x
    )),
    "stable_step_size.safety": ("safety", ">", lambda x: stable_step_size(
        PARAMS, ENV, PAIR, PSET, INNER, safety=x
    )),
}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, True, np.bool_(True), "0.3"])
@pytest.mark.parametrize("entry", REAL_CASES)
def test_every_real_hyperparameter_is_a_finite_number(entry, bad):
    field, rule, call = REAL_CASES[entry]
    with pytest.raises(ConfigError, match=rf"^{field}: (.* )?must be a finite number {rule} 0$") as info:
        call(bad)
    assert info.value.field == field


def test_check_positive_returns_a_float_and_takes_zero_only_when_allowed():
    for value in (2, np.float64(0.5), 1e-300):
        got = check_positive(value, "x")
        assert type(got) is float and got == value
    assert check_positive(0, "x", allow_zero=True) == 0.0
    with pytest.raises(ConfigError, match=r"^x: must be a finite number > 0$"):
        check_positive(0.0, "x")
