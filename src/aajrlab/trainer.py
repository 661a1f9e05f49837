"""Outer gradient descent on nominal and robust objectives, risk
evaluation, and the budget-matched price-of-robustness sweep.

Each outer step draws a seeded batch, stacks it as (B, d) rows, runs the
inner maximizer on all rows at once for robust modes, builds the chosen
objective over the tape with one policy pass per term, and applies one
plain gradient-descent update. The worst-case perturbation and the
ascent directions are treated as constants during the outer update, which
is what makes the surrogate a stable first-order method.

The sweep trains nominal, globally-penalized, and directionally-penalized
models at matched budgets: the penalty weight for each penalized mode is
tuned by bisection until the achieved constraint level (max sampled
spectral norm for the global mode, max directional amplification for the
directional mode) lands within a tolerance of the shared budget gamma. The
reported gaps are trained-optimum estimates, not exact infima.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .environments import Environment, loss, loss_term
from .errors import ConfigError, NumericError
from .inner import InnerLoopConfig, PerturbationSet, pga_batch
from .policy import (
    PolicyParams,
    apply_gradient_step,
    gradient_norm,
    init_policy,
    numpy_handle,
    param_gradient,
)
from .regularizers import (
    RegularizerConfig,
    aajr_batch_term,
    global_penalty,
    global_term,
    spectral_norm,
    top_singular,
)

MODES = ("nominal", "robust_aajr", "robust_global", "robust_plain")

CSV_HEADER = "step,robust_loss,nominal_loss,aajr_penalty,global_penalty,max_dir_amp,mean_spectral,grad_norm"


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    outer_lr: float
    outer_steps: int
    batch_size: int
    inner: InnerLoopConfig
    pset: PerturbationSet
    reg: RegularizerConfig
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown training mode '{self.mode}'")
        if not self.outer_lr > 0:
            raise ConfigError("outer_lr must be > 0")
        if int(self.outer_steps) < 0:
            raise ConfigError("outer_steps must be >= 0")
        if int(self.batch_size) < 1:
            raise ConfigError("batch_size must be >= 1")
        if int(self.seed) < 0:
            raise ConfigError("training seed must be >= 0")


@dataclass(frozen=True)
class StepRecord:
    step: int
    robust_loss: float
    nominal_loss: float
    aajr_penalty: float
    global_penalty: float
    max_dir_amp: float
    mean_spectral: float
    grad_norm: float


@dataclass
class RunMetrics:
    records: list[StepRecord] = field(default_factory=list)
    aborted_step: int | None = None

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.step},{float(r.robust_loss)!r},{float(r.nominal_loss)!r},"
                f"{float(r.aajr_penalty)!r},{float(r.global_penalty)!r},"
                f"{float(r.max_dir_amp)!r},{float(r.mean_spectral)!r},{float(r.grad_norm)!r}"
            )
        return "\n".join(lines) + "\n"


def _draws(env: Environment, rng: np.random.Generator, n: int):
    """n seeded (state, peer context) draws, stacked as (n, d) and (n, q)
    rows: one uniform draw of n rows, each the values of one per-sample
    draw (state, then peer context unless it mirrors the state)."""
    d = env.state_dim
    if env.peer_mode == "mirror":
        S = rng.uniform(-1.0, 1.0, (n, d))
        return S, S.copy()
    rows = rng.uniform(-1.0, 1.0, (n, d + env.peer_dim))
    return rows[:, :d].copy(), rows[:, d:].copy()


def _objective_builder(env, S, A, trajs, cfg: TrainConfig, params: PolicyParams, v_hat):
    reg = cfg.reg
    X = S if trajs is None else S + np.array([t.delta_star for t in trajs])

    def build(handle):
        obj = loss_term(env, handle.forward(X), A) * (1.0 / len(S))
        if cfg.mode == "robust_aajr" and reg.lam != 0.0:
            obj = obj + reg.lam * aajr_batch_term(handle, S, trajs, reg)
        elif cfg.mode == "robust_global" and reg.lam != 0.0:
            obj = obj + reg.lam * global_term(handle, params, S, reg, v_hat=v_hat)
        return obj

    return build


def train(cfg: TrainConfig, env: Environment, params0: PolicyParams, *, diagnostics: bool = True):
    """Run the outer loop; returns final parameters and per-step metrics.

    Deterministic given (cfg.seed, env.seed, params0). A non-finite loss,
    gradient or parameter update aborts the run, with the offending step
    recorded in the metrics instead of raised; the returned parameters are
    the last finite ones. With ``diagnostics=False`` no per-step record is
    built and ``metrics.records`` stays empty; the diagnostics never feed
    the update, so the parameters and the aborted step are the same.
    """
    if params0.in_dim != env.state_dim or params0.out_dim != env.action_dim:
        raise ConfigError(
            f"policy ({params0.in_dim} -> {params0.out_dim}) does not match environment "
            f"({env.state_dim} -> {env.action_dim})"
        )
    params = params0
    metrics = RunMetrics()
    robust = cfg.mode != "nominal"
    for step in range(cfg.outer_steps):
        S, A = _draws(env, np.random.default_rng([env.seed, cfg.seed, step]), cfg.batch_size)
        try:
            trajs = pga_batch(params, S, A, env, cfg.pset, cfg.inner) if robust else None
            sigmas, v_hat = top_singular(params, S)
            build = _objective_builder(env, S, A, trajs, cfg, params, v_hat)
            value, grads = param_gradient(params, build)
            if not np.isfinite(value):
                raise NumericError(f"non-finite objective at outer step {step}")
            record = _step_record(step, env, params, S, A, trajs, sigmas, grads, cfg) if diagnostics else None
            new_params = apply_gradient_step(params, grads, cfg.outer_lr)
        except NumericError:
            metrics.aborted_step = step
            break
        if record is not None:
            metrics.records.append(record)
        params = new_params
    return params, metrics


def _step_record(step, env, params, S, A, trajs, sigmas, grads, cfg: TrainConfig) -> StepRecord:
    """Per-step diagnostics, each computed once for the whole batch; the
    spectral norms are those of the objective's global hinge."""
    handle = numpy_handle(params)
    nominal_loss = float(np.mean(loss(env, handle.forward(S), A)))
    robust = trajs is not None
    robust_loss = float(np.mean([t.inner_values[-1] for t in trajs])) if robust else nominal_loss
    aajr_val = float(aajr_batch_term(handle, S, trajs, cfg.reg)) if robust else 0.0
    amps = [amp for t in trajs for amp in t.dir_amps] if robust else []
    return StepRecord(
        step=step,
        robust_loss=robust_loss,
        nominal_loss=nominal_loss,
        aajr_penalty=aajr_val,
        global_penalty=global_penalty(params, S, cfg.reg, sigmas=sigmas),
        max_dir_amp=float(np.max(amps)) if amps else 0.0,
        mean_spectral=float(np.mean(sigmas)),
        grad_norm=gradient_norm(grads),
    )


def evaluate_nominal_risk(params: PolicyParams, env: Environment, n_samples: int, seed: int) -> float:
    """Monte-Carlo mean of L(pi(s), a) over seeded draws."""
    mean, _ = _nominal_risk_samples(params, env, n_samples, seed)
    return mean


def _eval_draws(env: Environment, n_samples: int, seed: int):
    """The seeded evaluation sample, drawn in full before any evaluation."""
    if int(n_samples) < 1:
        raise ConfigError("n_samples must be >= 1")
    return _draws(env, np.random.default_rng([env.seed, int(seed)]), int(n_samples))


def _nominal_risk_samples(params, env, n_samples, seed):
    S, A = _eval_draws(env, n_samples, seed)
    vals = loss(env, numpy_handle(params).forward(S), A)
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(np.mean(vals)), se


def evaluate_robust_risk(
    params: PolicyParams,
    env: Environment,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    n_samples: int,
    seed: int,
) -> float:
    """Monte-Carlo mean of the inner objective at the final PGA iterate."""
    S, A = _eval_draws(env, n_samples, seed)
    return float(np.mean([t.inner_values[-1] for t in pga_batch(params, S, A, env, pset, inner)]))


def measure_achieved_levels(
    params: PolicyParams,
    env: Environment,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    n_samples: int,
    seed: int,
):
    """Post-training constraint levels over fresh trajectories.

    Returns (max directional amplification over ascent steps, max spectral
    norm over every visited state s + delta_t).
    """
    S, A = _eval_draws(env, n_samples, seed)
    trajs = pga_batch(params, S, A, env, pset, inner)
    visited = np.concatenate([s + np.array(t.deltas) for s, t in zip(S, trajs)])
    max_amp = max([0.0] + [amp for t in trajs for amp in t.dir_amps])
    return max_amp, max(0.0, float(np.max(spectral_norm(params, visited))))


@dataclass
class GapReport:
    """Trained-optimum estimates of the nominal-risk gaps at matched budgets."""

    gamma: float
    t_hat: float  # global-budget gap estimate
    t_hat_ad: float  # directional-budget gap estimate
    pooled_se: float
    per_seed: list[dict]
    aggregate: dict
    excluded: list[dict]

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "t_hat": self.t_hat,
            "t_hat_ad": self.t_hat_ad,
            "pooled_se": self.pooled_se,
            "per_seed": self.per_seed,
            "aggregate": self.aggregate,
            "excluded": self.excluded,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(self.to_json(), fp, indent=2)
            fp.write("\n")


def _achieved_level(mode: str, dir_amp: float, spec: float) -> float:
    return dir_amp if mode == "robust_aajr" else spec


def price_of_robustness(
    env: Environment,
    base_cfg: TrainConfig,
    seeds,
    policy_dims,
    activations=None,
    *,
    eval_samples: int = 200,
    eval_seed: int = 10_000,
    achieved_samples: int = 20,
    bisect_iters: int = 12,
    match_tol: float = 0.05,
    lambda_init: float = 1.0,
    max_doublings: int = 10,
) -> GapReport:
    """Train all three modes per seed with bisection-matched budgets."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 3:
        raise ConfigError("price_of_robustness needs at least 3 seeds")
    if int(eval_samples) < 1 or int(achieved_samples) < 1:
        raise ConfigError("n_samples must be >= 1")
    gamma = base_cfg.reg.gamma

    def run_once(mode: str, lam: float, seed: int):
        cfg = replace(base_cfg, mode=mode, seed=seed, reg=replace(base_cfg.reg, lam=lam))
        params0 = init_policy(policy_dims, activations, seed=seed)
        params, metrics = train(cfg, env, params0, diagnostics=False)
        if metrics.aborted_step is not None:
            return None
        risk, se = _nominal_risk_samples(params, env, eval_samples, eval_seed)
        amp, spec = measure_achieved_levels(params, env, base_cfg.pset, base_cfg.inner, achieved_samples, eval_seed)
        return {
            "mode": mode,
            "seed": seed,
            "lambda": lam,
            "nominal_risk": risk,
            "nominal_risk_se": se,
            "achieved_dir_amp": amp,
            "achieved_spectral": spec,
        }

    def match_budget(mode: str, seed: int, unpenalized):
        """Bisect the penalty weight until the achieved level is near gamma,
        starting from this seed's lambda = 0 run."""
        lo_band, hi_band = (1.0 - match_tol) * gamma, (1.0 + match_tol) * gamma
        if unpenalized is None:
            return None
        result = dict(unpenalized, mode=mode)
        if _achieved_level(mode, result["achieved_dir_amp"], result["achieved_spectral"]) <= hi_band:
            return result  # budget not binding (or already matched) at lambda = 0
        lo_lam = 0.0
        hi_lam = lambda_init
        hi_result = run_once(mode, hi_lam, seed)
        doublings = 0
        while hi_result is not None and doublings < max_doublings:
            level = _achieved_level(mode, hi_result["achieved_dir_amp"], hi_result["achieved_spectral"])
            if level <= hi_band:
                break
            lo_lam = hi_lam
            hi_lam *= 2.0
            hi_result = run_once(mode, hi_lam, seed)
            doublings += 1
        if hi_result is None:
            return None
        best = hi_result
        best_err = abs(
            _achieved_level(mode, best["achieved_dir_amp"], best["achieved_spectral"]) - gamma
        )
        for _ in range(bisect_iters):
            level = _achieved_level(mode, best["achieved_dir_amp"], best["achieved_spectral"])
            if lo_band <= level <= hi_band:
                return best
            mid = 0.5 * (lo_lam + hi_lam)
            mid_result = run_once(mode, mid, seed)
            if mid_result is None:
                return best
            mid_level = _achieved_level(
                mode, mid_result["achieved_dir_amp"], mid_result["achieved_spectral"]
            )
            if mid_level > hi_band:
                lo_lam = mid
            else:
                hi_lam = mid
            err = abs(mid_level - gamma)
            if err < best_err:
                best, best_err = mid_result, err
        return best

    per_seed: list[dict] = []
    excluded: list[dict] = []
    for seed in seeds:
        entry: dict = {"seed": seed}
        nominal = run_once("nominal", 0.0, seed)
        if nominal is None:
            excluded.append({"seed": seed, "mode": "nominal", "reason": "aborted"})
            continue
        entry["nominal"] = nominal
        # at lambda = 0 no penalty is built and diagnostics never feed the
        # gradients, so both penalized modes start from the same training run
        unpenalized = run_once("robust_plain", 0.0, seed)
        ok = True
        for mode in ("robust_global", "robust_aajr"):
            matched = match_budget(mode, seed, unpenalized)
            if matched is None:
                excluded.append({"seed": seed, "mode": mode, "reason": "aborted"})
                ok = False
                break
            entry[mode] = matched
        if ok:
            per_seed.append(entry)
    if not per_seed:
        raise NumericError("every sweep run aborted; no gap estimate available")

    best_nominal = min(per_seed, key=lambda e: e["nominal"]["nominal_risk"])["nominal"]
    best_global = min(per_seed, key=lambda e: e["robust_global"]["nominal_risk"])["robust_global"]
    best_aajr = min(per_seed, key=lambda e: e["robust_aajr"]["nominal_risk"])["robust_aajr"]
    t_hat = best_global["nominal_risk"] - best_nominal["nominal_risk"]
    t_hat_ad = best_aajr["nominal_risk"] - best_nominal["nominal_risk"]
    pooled_se = float(np.sqrt(best_global["nominal_risk_se"] ** 2 + best_aajr["nominal_risk_se"] ** 2))
    aggregate = {
        "best_nominal": best_nominal,
        "best_global": best_global,
        "best_aajr": best_aajr,
        "aajr_max_dir_amp": best_aajr["achieved_dir_amp"],
        "global_max_spectral": best_global["achieved_spectral"],
    }
    return GapReport(
        gamma=gamma,
        t_hat=float(t_hat),
        t_hat_ad=float(t_hat_ad),
        pooled_se=pooled_se,
        per_seed=per_seed,
        aggregate=aggregate,
        excluded=excluded,
    )
