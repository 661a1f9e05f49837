"""Outer gradient descent on nominal and robust objectives, risk
evaluation, and the budget-matched price-of-robustness sweep.

Each outer step draws a seeded batch, stacks it as (B, d) rows, runs the
inner maximizer on all rows at once, builds the chosen objective over the
tape with one policy pass per term, and applies one plain gradient-descent
update. Every mode takes this one step: a nominal model's inner maximizer
has only delta = 0, an ascent of zero steps. The worst-case perturbation
and the ascent directions are treated as constants during the outer
update, which is what makes the surrogate a stable first-order method. The
inner maximizer returns only those two, the training record, with or
without diagnostics; the objective's own evaluation of the last iterate is
the one check on its loss, and the diagnostics only read the record. The
batch comes from ``environments.draws``, the one sampler. One untaped layer
pass at delta = 0 per step feeds the ascent's first iterate, the spectral
norms (taken only for a global hinge or the diagnostics) and the nominal
loss. The loop runs a stack of M models that differ only in seed, mode,
penalty weight and initial parameters in lockstep, as (M, B, d) rows, with
one number of ascent steps, and the diagnostics read the whole stack at
once. ``train`` is its one-model case, the one model that runs without the
model axis.

The sweep trains nominal, globally-penalized, and directionally-penalized
models at matched budgets: the penalty weight for each penalized mode is
doubled from ``lambda_init`` until the achieved constraint level (max
sampled spectral norm for the global mode, max directional amplification
for the directional mode) is at most the band's top, then bisected until
it lands within a tolerance of the shared budget gamma. All seeds are
trained together, and the two penalized modes share their rounds: every
round is one model stack, trained on batches drawn once per sweep, and its
models are evaluated as one stack too, on the evaluation sample, drawn
once per sweep. The first penalized round trains each seed's lambda = 0
run with every search's first two doubling rungs, and a search that is
still doubling trains the rung after its current one in the same round.
Every (seed, mode, lambda) run trains once and enters the sweep's one
result table, which answers a search that asks for a run it holds without
a round; a speculative rung that its search never reads stays unread there.
The nominal risk reads its first ``eval_samples`` rows of the evaluation
draw and the achieved levels its first ``achieved_samples`` rows; the
achieved levels are ``regularizers.constraint_levels`` of one ascent over
them: the largest amplification and the largest exact spectral norm over
every visited state, the measurement the inclusion certificate reads. The reported gaps
are trained-optimum estimates, not exact infima.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .environments import Environment, check_dims, check_seeds, draws, loss, loss_term
from .errors import ConfigError, NumericError, check_count, check_positive
from .inner import InnerLoopConfig, PerturbationSet, _ascend, _row_norms, pga_batch
from .policy import (
    PolicyParams,
    _layer_pass,
    apply_gradient_step,
    gradient_norm,
    init_policy,
    param_gradient,
    policy_spec,
    stack_policies,
    unstack_policies,
)
from .regularizers import (
    RegularizerConfig,
    aajr_penalty,
    aajr_rows,
    constraint_levels,
    global_penalty,
    global_term,
    top_singular,
)

MODES = ("nominal", "robust_aajr", "robust_global", "robust_plain")
PENALIZED = ("robust_aajr", "robust_global")


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
            raise ConfigError(f"unknown training mode '{self.mode}'", field="mode")
        object.__setattr__(self, "outer_lr", check_positive(self.outer_lr, "outer_lr"))
        object.__setattr__(self, "outer_steps", check_count(self.outer_steps, 0, "outer_steps"))
        object.__setattr__(self, "batch_size", check_count(self.batch_size, 1, "batch_size"))
        object.__setattr__(self, "seed", check_count(self.seed, 0, "seed"))


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


COLUMNS = tuple(f.name for f in fields(StepRecord))
CSV_HEADER = ",".join(COLUMNS)


@dataclass
class RunMetrics:
    records: list[StepRecord] = field(default_factory=list)
    aborted_step: int | None = None

    def to_csv(self) -> str:
        """One line per record: the step, then every other field as a float's repr."""
        rows = [
            ",".join([str(r.step)] + [repr(float(getattr(r, name))) for name in COLUMNS[1:]]) for r in self.records
        ]
        return "\n".join([CSV_HEADER, *rows]) + "\n"


def _objective_builder(env, S, A, record, cfgs, v_hat):
    """The stack's objective, one value per model. Each penalty enters with
    a per-model weight, the model's lambda under its own mode's penalty and
    0 under the other's, and a penalty no model uses is not built. A masked
    penalty adds exact zeros to its model's value and gradient. The weights
    take the leading shape of the states: a lone model's are scalars. The
    loss reads the last iterate: S + 0 after zero steps."""
    X = S + record.deltas[..., -1, :]
    weights = {mode: [c.reg.lam * (c.mode == mode) for c in cfgs] for mode in PENALIZED}
    lam = {mode: np.reshape(w, S.shape[:-2]) for mode, w in weights.items() if any(w)}
    reg = cfgs[0].reg

    def build(handle):
        obj = loss_term(env, handle.forward(X), A) * (1.0 / S.shape[-2])
        if "robust_aajr" in lam:
            obj = obj + lam["robust_aajr"] * aajr_penalty(aajr_rows(handle, S, record), reg)
        if "robust_global" in lam:
            obj = obj + lam["robust_global"] * global_term(handle, S, v_hat, reg)
        return obj

    return build


def _training_batch(env: Environment, seed: int, step: int, size: int):
    """The seeded batch of one outer step of a model trained with ``seed``."""
    return draws(env, np.random.default_rng([env.seed, seed, step]), size)


def _outer_step(cfgs, env: Environment, params: PolicyParams, step: int, S, A, diagnostics: bool):
    """One outer step of every model of a stack on its states S and peer
    contexts A, shaped as the stack takes them; returns the updated stack
    and, with diagnostics, one record per model, read off the training
    record the objective reads, of zero steps for a nominal model. One
    untaped layer pass at delta = 0, taken only for a reader, feeds the
    ascent's first iterate, the SVD (after the ascent; for a global hinge
    with lambda > 0 or diagnostics) and nominal_loss."""
    cfg, hinged = cfgs[0], any(c.mode == "robust_global" and c.reg.lam for c in cfgs)
    start = _layer_pass(params, S) if cfg.inner.steps or hinged or diagnostics else None
    record = _ascend(params, S, A, env, cfg.pset, cfg.inner, full=False, start=start)
    sigmas, v_hat = top_singular(start[1]) if hinged or diagnostics else (None, None)
    _, grads = param_gradient(params, _objective_builder(env, S, A, record, cfgs, v_hat))
    records = [None] * len(cfgs)
    if diagnostics:
        records = _step_records(step, env, params, S, A, start[0], record, sigmas, grads, cfg.reg)
    return apply_gradient_step(params, grads, cfg.outer_lr), records


def _train_stack(cfgs, env: Environment, params0s, diagnostics: bool = True, batches=None):
    """Train M models in lockstep as one stack; returns (params, metrics) per
    model, each bit for bit what training it alone gives.

    The models share the environment and every hyperparameter but their
    seed, their mode, their penalty weight and ``params0``. They may mix
    modes and lambdas, lambda = 0 beside lambda > 0, since all of them run
    the same ascent: each penalty enters with a per-model weight that is an
    exact zero for a model of another mode or at lambda = 0. A nominal
    model's config gets zero inner steps here, once, so it stacks only with
    zero-step models. ``batches`` maps (seed, step) to
    the batch drawn in advance for that outer step; without it each step
    draws its models' batches. The policy dims and the perturbation ball
    are checked at the entries, ``train`` and ``price_of_robustness``, not
    here. A step that raises NumericError is re-run model by model: a model
    that fails it aborts with its last finite parameters and leaves the
    stack, and the others go on.
    """
    # a nominal model is the zero-step ascent; stacked models share all but seed, mode and lambda
    cfgs = [replace(c, inner=replace(c.inner, steps=0)) if c.mode == "nominal" else c for c in cfgs]
    if len({replace(c, mode="robust_plain", seed=0, reg=replace(c.reg, lam=0.0)) for c in cfgs}) > 1:
        raise ConfigError(
            "stacked models must share every setting but seed, lambda and the mode;"
            " a nominal model has zero inner steps, so it shares a stack only with zero-step models"
        )
    # train's one model runs without the model axis: as a stack of one it costs about 10 % more CPU
    params = params0s[0] if len(cfgs) == 1 else stack_policies(params0s)
    final, metrics, live = list(params0s), [RunMetrics() for _ in cfgs], list(range(len(cfgs)))
    for step in range(cfgs[0].outer_steps):
        batch = {
            i: batches[cfgs[i].seed, step] if batches else _training_batch(env, cfgs[i].seed, step, cfgs[i].batch_size)
            for i in live
        }
        S, A = (np.stack(rows) if params.models else rows[0] for rows in zip(*batch.values()))
        try:
            params, records = _outer_step([cfgs[i] for i in live], env, params, step, S, A, diagnostics)
        except NumericError:
            alone = {}
            for i, member in zip(live, unstack_policies(params)):
                try:
                    alone[i] = _outer_step([cfgs[i]], env, member, step, *batch[i], diagnostics)
                except NumericError:
                    final[i], metrics[i].aborted_step = member, step
            live = list(alone)
            if not live:
                break
            params = stack_policies([p for p, _ in alone.values()])
            records = [r for _, (r,) in alone.values()]
        for i, record in zip(live, records):
            if record is not None:
                metrics[i].records.append(record)
    for i, member in zip(live, unstack_policies(params)):
        final[i] = member
    return list(zip(final, metrics))


def train(cfg: TrainConfig, env: Environment, params0: PolicyParams, *, diagnostics: bool = True):
    """Run the outer loop; returns final parameters and per-step metrics.

    Deterministic given (cfg.seed, env.seed, params0). A non-finite loss,
    gradient or parameter update aborts the run, with the offending step
    recorded in the metrics instead of raised; the returned parameters are
    the last finite ones. With ``diagnostics=False`` no per-step record is
    built and ``metrics.records`` stays empty; the diagnostics only read,
    so the parameters and the aborted step are the same. The one-model case
    of the stacked loop, whose shapes it checks against the environment.
    """
    check_dims(env, params0.dims(), cfg.pset)
    return _train_stack([cfg], env, [params0], diagnostics)[0]


def _step_records(step, env, params, S, A, Z, record, sigmas, grads, reg: RegularizerConfig) -> list[StepRecord]:
    """Per-step diagnostics, one record per model of a stack, each column
    computed once for the whole stack from the spectral norms and outputs Z
    of the outer step's one pass at delta_0 = 0, a value pass at the last
    iterate, and one untaped pass of the AAJR rows for both AAJR columns.
    After zero ascent steps the last iterate is S: robust_loss reads Z, and
    the AAJR columns, which have no rows, are 0."""
    robust_loss = nominal_loss = np.mean(loss(env, Z, A), axis=-1)
    aajr = max_amp = 0.0
    if record.steps:
        rows = aajr_rows(params.handle, S, record)
        robust_loss = np.mean(loss(env, params.handle.forward(S + record.deltas[..., -1, :]), A), axis=-1)
        aajr, max_amp = aajr_penalty(rows, reg), np.max(_row_norms(rows), axis=-1, initial=0.0)
    hinge = global_penalty(params, S, reg, sigmas=sigmas)
    columns = (robust_loss, nominal_loss, aajr, hinge, max_amp, np.mean(sigmas, axis=-1), gradient_norm(grads))
    table = np.empty(S.shape[:-2] + (len(columns),))  # one row per model; one row for a lone model
    for k, column in enumerate(columns):
        table[..., k] = column
    return [StepRecord(step, *row) for row in table.reshape(-1, len(columns)).tolist()]


def _eval_draws(env: Environment, n_samples: int, seed: int):
    """The seeded evaluation sample, drawn in full before any evaluation."""
    n = check_count(n_samples, 1, "n_samples")
    return draws(env, np.random.default_rng([env.seed, check_count(seed, 0, "seed")]), n)


def _per_model(params: PolicyParams, *rows):
    """Rows shared by every model of a stack, as read-only (M, N, ...) views that repeat them without a copy."""
    return tuple(np.broadcast_to(x, (params.models,) + x.shape) for x in rows)


def evaluate_robust_risk(
    params: PolicyParams,
    env: Environment,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    n_samples: int,
    seed: int,
) -> float:
    """Monte-Carlo mean of the inner objective at the final PGA iterate."""
    check_dims(env, params.dims(), pset)
    S, A = _eval_draws(env, n_samples, seed)
    return float(np.mean(pga_batch(params, S, A, env, pset, inner).values[:, -1]))


def _evaluate(params, env, pset, inner, S, A, eval_samples, achieved_samples):
    """The sweep's evaluation of every model of a stack on the evaluation
    sample's rows S, A: the nominal risk and its se over the first
    ``eval_samples`` rows, and the achieved levels over the first
    ``achieved_samples`` rows. The levels read the full record of one stacked
    ascent, run here: the max directional amplification over ascent steps and
    the max exact spectral norm over every visited state s + delta_t. Returns the
    four result fields per model, in the report's key order."""
    S_eval, A_eval = _per_model(params, S[:eval_samples], A[:eval_samples])
    values = loss(env, params.handle.forward(S_eval), A_eval)
    S_levels, A_levels = _per_model(params, S[:achieved_samples], A[:achieved_samples])
    record = pga_batch(params, S_levels, A_levels, env, pset, inner)
    amps, sups = constraint_levels(params, S_levels, record)
    return [
        {
            "nominal_risk": float(np.mean(vals)),
            "nominal_risk_se": float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0,
            "achieved_dir_amp": float(np.max(amp, initial=0.0)),
            "achieved_spectral": max(0.0, sup),
        }
        for vals, amp, sup in zip(values, amps, sups.tolist())
    ]


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
        return asdict(self)

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(self.to_json(), fp, indent=2)
            fp.write("\n")


def _achieved_level(mode: str, result: dict) -> float:
    return result["achieved_dir_amp" if mode == "robust_aajr" else "achieved_spectral"]


def check_sweep(
    seeds, eval_samples, eval_seed, achieved_samples, bisect_iters, match_tol, lambda_init=1.0, max_doublings=10
) -> list[int]:
    """The entry checks of ``price_of_robustness``, on its arguments; returns
    the seeds as a list."""
    for name, n in (("eval_samples", eval_samples), ("achieved_samples", achieved_samples)):
        check_count(n, 1, name, "n_samples")
    for name, n in (("eval_seed", eval_seed), ("bisect_iters", bisect_iters), ("max_doublings", max_doublings)):
        check_count(n, 0, name)
    check_positive(lambda_init, "lambda_init")
    if not 0 < match_tol < 1:
        raise ConfigError("must be in (0, 1)", field="match_tol")
    return check_seeds(seeds, minimum=3)


def _round_runner(env, base_cfg, seeds, policy_dims, activations, eval_samples, eval_seed, achieved_samples):
    """The sweep's round: ``run_round(runs)`` trains the (seed index, mode,
    lambda) runs as one stack and evaluates the runs that did not abort as
    one stack; it returns each run's result, None for a run that aborted.
    Every round stacks its models' batches from one table and evaluates on
    one sample, so each (seed, step) training batch and the evaluation
    sample are drawn once per sweep."""
    batches = {
        (seed, step): _training_batch(env, seed, step, base_cfg.batch_size)
        for seed in seeds
        for step in range(base_cfg.outer_steps)
    }
    S, A = _eval_draws(env, max(eval_samples, achieved_samples), eval_seed)  # the evaluation sample

    def run_round(runs) -> dict:
        cfgs = [
            replace(base_cfg, mode=mode, seed=seeds[k], reg=replace(base_cfg.reg, lam=lam)) for k, mode, lam in runs
        ]
        params0s = [init_policy(policy_dims, activations, seed=cfg.seed) for cfg in cfgs]
        trained = zip(runs, cfgs, _train_stack(cfgs, env, params0s, diagnostics=False, batches=batches))
        kept = [(run, cfg, params) for run, cfg, (params, metrics) in trained if metrics.aborted_step is None]
        results = dict.fromkeys(runs)
        if not kept:
            return results
        stack = stack_policies([params for _, _, params in kept])
        evaluations = _evaluate(stack, env, base_cfg.pset, base_cfg.inner, S, A, eval_samples, achieved_samples)
        for (run, cfg, _), evaluation in zip(kept, evaluations):
            results[run] = {"mode": cfg.mode, "seed": cfg.seed, "lambda": cfg.reg.lam, **evaluation}
        return results

    return run_round


def _gap_report(gamma: float, seeds, nominal, matched) -> GapReport:
    """The report of a sweep from each seed's nominal result (by seed index)
    and the matched result of each (seed index, penalized mode) search,
    None for an aborted run or search."""
    per_seed: list[dict] = []
    excluded: list[dict] = []
    for k, seed in enumerate(seeds):
        if nominal[k] is None:
            excluded.append({"seed": seed, "mode": "nominal", "reason": "aborted"})
            continue
        entry: dict = {"seed": seed, "nominal": nominal[k]}
        for mode in ("robust_global", "robust_aajr"):  # a seed whose global run aborted reports no AAJR model
            if matched[k, mode] is None:
                excluded.append({"seed": seed, "mode": mode, "reason": "aborted"})
                break
            entry[mode] = matched[k, mode]
        else:
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
    """Train all three modes per seed with bisection-matched budgets.

    Every run of the sweep, a (seed index, mode, lambda) triple, trains
    once and enters one result table. The nominal runs train in a round of
    their own. Then each (seed, mode) search is a generator that yields
    the penalty weights it wants, the one it reads first, and receives
    that one result. The searches advance in lockstep, the global and the
    directional ones in the same rounds: every round trains the union of
    the weights that the searches still running ask for as one model stack,
    and evaluates the runs that did not abort as one stack. Lambda = 0 is a
    seed's one ``robust_plain`` run, which both of its searches read.

    A search's first round trains lambda = 0 with its first two doubling
    rungs, ``lambda_init`` and ``2 * lambda_init``. While it is still
    doubling, a search trains its current rung with the next one, 2 lambda,
    if ``max_doublings`` can still reach it, and reads that rung from the
    table without another round. Those runs are speculative: a search that
    stops before it reads one (the budget met at lambda = 0 or at the rung
    below) leaves it unread in the table. A bisection step trains one
    weight per round. Every model trains and evaluates bit for bit as it
    would alone, so each search reads exactly the results that one weight
    per round would give.
    """
    seeds = check_sweep(
        seeds, eval_samples, eval_seed, achieved_samples, bisect_iters, match_tol, lambda_init, max_doublings
    )
    check_dims(env, policy_spec(policy_dims, activations)[0], base_cfg.pset)
    gamma = base_cfg.reg.gamma
    run_round = _round_runner(env, base_cfg, seeds, policy_dims, activations, eval_samples, eval_seed, achieved_samples)
    table = {}  # (seed index, mode, lambda) -> the run's result, None for a run that aborted

    def lockstep(searches: dict) -> dict:
        """Drive every (seed index, mode) search to its end; returns what each
        returned. A search that asks for a run already in the table reads it
        at once, without a round. A round trains the union of the runs that
        the searches ask for, speculative rungs included, as one stack, and
        enters them in the table; a search's lambda = 0 is its seed's
        ``robust_plain`` run, trained once for both modes. A seed whose
        global search returns None trains no further AAJR model: its AAJR
        search is closed."""

        def run(key, lam):
            k, mode = key
            return k, mode if lam else "robust_plain", lam

        replies, done = dict.fromkeys(searches), {}
        while True:
            asked = {}
            for key, reply in replies.items():
                try:
                    lams = searches[key].send(reply)
                    while run(key, lams[0]) in table:
                        lams = searches[key].send(table[run(key, lams[0])])
                    asked[key] = lams
                except StopIteration as stop:
                    done[key] = stop.value
            for k, mode in done:
                if mode == "robust_global" and done[k, mode] is None and (k, "robust_aajr") in asked:
                    del asked[k, "robust_aajr"]
                    searches[k, "robust_aajr"].close()
            if not asked:
                return done
            table.update(run_round(list(dict.fromkeys(run(key, lam) for key, lams in asked.items() for lam in lams))))
            replies = {key: table[run(key, lams[0])] for key, lams in asked.items()}

    def match_budget(mode: str):
        """Bisect the penalty weight until the achieved level is near gamma,
        starting from this seed's lambda = 0 run; yields the weights to train
        in one round, the one it reads next first, and receives its result."""
        lo_band, hi_band = (1.0 - match_tol) * gamma, (1.0 + match_tol) * gamma

        def next_rung(doublings: int, lam: float) -> tuple:
            """The rung after ``lam``, the rung of ``doublings`` doublings, if
            ``max_doublings`` reaches it."""
            return (lam * 2.0,) if doublings < max_doublings else ()

        lo_lam, hi_lam = 0.0, lambda_init
        unpenalized = yield (0.0, hi_lam, *next_rung(0, hi_lam))
        if unpenalized is None:
            return None
        if _achieved_level(mode, unpenalized) <= hi_band:
            return dict(unpenalized, mode=mode)  # budget not binding (or already matched) at lambda = 0
        hi_result = yield (hi_lam,)
        for doubling in range(max_doublings):
            if hi_result is None or _achieved_level(mode, hi_result) <= hi_band:
                break
            lo_lam, hi_lam = hi_lam, hi_lam * 2.0
            hi_result = yield (hi_lam, *next_rung(doubling + 1, hi_lam))
        if hi_result is None:
            return None
        best, best_err = hi_result, abs(_achieved_level(mode, hi_result) - gamma)
        for _ in range(bisect_iters):
            if lo_band <= _achieved_level(mode, best) <= hi_band:
                return best
            mid = 0.5 * (lo_lam + hi_lam)
            mid_result = yield (mid,)
            if mid_result is None:
                return best
            level = _achieved_level(mode, mid_result)
            lo_lam, hi_lam = (mid, hi_lam) if level > hi_band else (lo_lam, mid)
            if abs(level - gamma) < best_err:
                best, best_err = mid_result, abs(level - gamma)
        return best

    table.update(run_round([(k, "nominal", 0.0) for k in range(len(seeds))]))
    nominal = [table[k, "nominal", 0.0] for k in range(len(seeds))]
    kept = [k for k in range(len(seeds)) if nominal[k] is not None]
    searches = {(k, mode): match_budget(mode) for k in kept for mode in PENALIZED}
    return _gap_report(gamma, seeds, nominal, lockstep(searches))
