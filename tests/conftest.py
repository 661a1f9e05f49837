"""Shared oracle helpers: dense Jacobian assembly and parameter flattening.

The oracle Jacobian is assembled row by row by a hand-written reverse pass,
so it is independent of the library's forward-mode layer recursion, from
which ``jacobian``, ``jvp`` and ``vjp`` all come. ``repeat_tile_jacobian``
is the earlier, bit-exact construction of ``jacobian`` from plain ``jvp``
calls. ``nominal_risks`` and ``achieved_levels`` are the sweep's earlier
evaluation route, one evaluation draw per quantity, with each model of a
stack evaluated alone through the public ``forward``, ``loss`` and
``spectral_norm``: the achieved spectral level is ``visited_sup``, the dense
max over every visited state, never ``constraint_levels``. ``sweep_one_rung_per_round``
is the sweep's earlier lockstep, one penalty weight per search and round.
``inner_objective`` is delta -> L(pi(s + delta), a) through the public
``forward`` and ``loss``, and ``reference_segment_scan`` the smoothness
scan's earlier stencil oracle: five policy passes per scan, the centre and
both neighbours of every probe point through ``inner_objective`` and
``directional_curvature``, then J v from ``jvp`` and the loss Hessian from
a second ``forward`` at the same points.
"""

from __future__ import annotations

import numpy as np

from aajrlab import trainer
from aajrlab.environments import draws, loss, loss_hessian
from aajrlab.errors import check_count
from aajrlab.inner import pga_batch
from aajrlab.policy import Layer, PolicyParams, forward, jvp, unstack_policies
from aajrlab.regularizers import spectral_norm
from aajrlab.verification import _dots, directional_curvature


def assemble_jacobian(params: PolicyParams, s) -> np.ndarray:
    """Row-by-row Jacobian: basis cotangents pulled back through the layers."""
    h = np.asarray(s, dtype=np.float64)
    slopes = []
    for layer in params.layers:
        a = layer.weight @ h + layer.bias
        h = np.tanh(a) if layer.activation == "tanh" else a
        slopes.append(1.0 - h * h if layer.activation == "tanh" else np.ones_like(a))
    rows = []
    for g in np.eye(params.out_dim):
        for layer, slope in zip(reversed(params.layers), reversed(slopes)):
            g = layer.weight.T @ (slope * g)
        rows.append(g)
    return np.stack(rows, axis=0)


def repeat_tile_jacobian(params: PolicyParams, s) -> np.ndarray:
    """Jacobian at a state or at every row of s: each state repeated
    ``in_dim`` times, one identity tangent per copy, in one ``jvp`` call."""
    s = np.asarray(s, dtype=np.float64)
    n = params.in_dim
    rows = np.repeat(np.atleast_2d(s), n, axis=0)
    t = jvp(params, rows, np.tile(np.eye(n), (len(rows) // n, 1)))
    return np.swapaxes(t.reshape(s.shape[:-1] + (n, -1)), -1, -2)


def visited_sup(params: PolicyParams, S, record) -> np.ndarray:
    """The dense oracle of the sampled spectral sup: the max of
    ``spectral_norm`` over every visited state of the ascent ``record`` from
    S, one per model of a stack (0-d for a lone policy)."""
    sigmas = [spectral_norm(params, S + record.deltas[..., t, :]) for t in range(record.steps + 1)]
    return np.max(np.stack(sigmas, axis=-1), axis=(-2, -1))


def eval_draw(env, n_samples, seed):
    """The sweep's seeded ``n_samples``-row evaluation draw."""
    return draws(env, np.random.default_rng([env.seed, seed]), n_samples)


def nominal_risks(params: PolicyParams, env, n_samples, seed):
    """(mean, se) of the nominal loss over an ``n_samples``-row evaluation
    draw, per model of a stack, or of a lone policy."""
    S, A = eval_draw(env, n_samples, seed)
    pairs = []
    for model in unstack_policies(params):
        vals = loss(env, forward(model, S), A)
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        pairs.append((float(np.mean(vals)), se))
    return pairs


def achieved_levels(params: PolicyParams, env, pset, inner, n_samples, seed):
    """(max directional amplification, max spectral norm) of one ascent
    over an ``n_samples``-row evaluation draw, per model of a stack, or of
    a lone policy: the norm is ``visited_sup``."""
    S, A = eval_draw(env, n_samples, seed)
    levels = []
    for model in unstack_policies(params):
        record = pga_batch(model, S, A, env, pset, inner)
        levels.append((float(np.max(record.amps, initial=0.0)), max(0.0, float(visited_sup(model, S, record)))))
    return levels


def sweep_one_rung_per_round(
    env,
    base_cfg,
    seeds,
    policy_dims,
    activations=None,
    *,
    eval_samples=200,
    eval_seed=10_000,
    achieved_samples=20,
    bisect_iters=12,
    match_tol=0.05,
    lambda_init=1.0,
    max_doublings=10,
):
    """``price_of_robustness`` with the lambda = 0 runs in a round of their
    own and every search asking for one weight per round, so no run is
    speculative: the round's training, evaluation and report are the
    sweep's own."""
    seeds = trainer.check_sweep(
        seeds, eval_samples, eval_seed, achieved_samples, bisect_iters, match_tol, lambda_init, max_doublings
    )
    gamma = base_cfg.reg.gamma
    train_round = trainer._round_runner(
        env, base_cfg, seeds, policy_dims, activations, eval_samples, eval_seed, achieved_samples
    )

    def run_round(pending: dict) -> dict:
        """Train the pending ((seed index, mode) -> lambda) runs as one round."""
        results = train_round([(k, mode, lam) for (k, mode), lam in pending.items()])
        return {(k, mode): result for (k, mode, _), result in results.items()}

    def lockstep(searches: dict) -> dict:
        results, done = dict.fromkeys(searches), {}
        while results:
            pending = {}
            for key, result in results.items():
                try:
                    pending[key] = searches[key].send(result)
                except StopIteration as stop:
                    done[key] = stop.value
            for k, mode in done:
                if mode == "robust_global" and done[k, mode] is None and (k, "robust_aajr") in pending:
                    del pending[k, "robust_aajr"]
                    searches[k, "robust_aajr"].close()
            results = run_round(pending) if pending else {}
        return done

    def match_budget(mode, unpenalized):
        def level(result):
            return trainer._achieved_level(mode, result)

        lo_band, hi_band = (1.0 - match_tol) * gamma, (1.0 + match_tol) * gamma
        if unpenalized is None:
            return None
        if level(unpenalized) <= hi_band:
            return dict(unpenalized, mode=mode)
        lo_lam, hi_lam = 0.0, lambda_init
        hi_result = yield hi_lam
        for _ in range(max_doublings):
            if hi_result is None or level(hi_result) <= hi_band:
                break
            lo_lam, hi_lam = hi_lam, hi_lam * 2.0
            hi_result = yield hi_lam
        if hi_result is None:
            return None
        best, best_err = hi_result, abs(level(hi_result) - gamma)
        for _ in range(bisect_iters):
            if lo_band <= level(best) <= hi_band:
                return best
            mid = 0.5 * (lo_lam + hi_lam)
            mid_result = yield mid
            if mid_result is None:
                return best
            lo_lam, hi_lam = (mid, hi_lam) if level(mid_result) > hi_band else (lo_lam, mid)
            if abs(level(mid_result) - gamma) < best_err:
                best, best_err = mid_result, abs(level(mid_result) - gamma)
        return best

    nominal = run_round({(k, "nominal"): 0.0 for k in range(len(seeds))})
    kept = [k for k in range(len(seeds)) if nominal[k, "nominal"] is not None]
    unpenalized = run_round({(k, "robust_plain"): 0.0 for k in kept})
    matched = lockstep(
        {(k, mode): match_budget(mode, unpenalized[k, "robust_plain"]) for k in kept for mode in trainer.PENALIZED}
    )
    return trainer._gap_report(gamma, seeds, [nominal[k, "nominal"] for k in range(len(seeds))], matched)


def inner_objective(params: PolicyParams, env, s, a):
    """delta -> L(pi(s + delta), a); one value per row for stacked deltas,
    against one state and context or one of each per row."""
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)

    def g(delta):
        z = forward(params, s + np.asarray(delta, dtype=np.float64))
        return loss(env, z, np.broadcast_to(a, z.shape[:-1] + a.shape[-1:]))

    return g


def reference_segment_scan(params: PolicyParams, env, S, A, record, grid: int = 5, h=None):
    """The (tau, curvature, amplification, residual) of ``_segment_scan``,
    with the stencil run through ``inner_objective`` and J v and the loss
    Hessian's action taken from separate public passes."""
    g, d = check_count(grid, 1, "grid"), S.shape[-1]
    tau = np.arange(1, g + 1) / (g + 1)
    shape = record.moved.shape + (g, d)
    delta = (1.0 - tau[:, None]) * record.deltas[..., :-1, None, :] + tau[:, None] * record.deltas[..., 1:, None, :]
    V = np.where(record.moved[..., None], record.update, np.eye(d)[0])[..., None, :]
    rows = S.shape[:-2] + (-1, d)  # every point of every sample, per model
    delta, V = delta.reshape(rows), np.broadcast_to(V, shape).reshape(rows)
    s = np.broadcast_to(S[..., None, None, :], shape).reshape(rows)
    a = np.broadcast_to(A[..., None, None, :], shape[:-1] + A.shape[-1:]).reshape(rows[:-1] + A.shape[-1:])
    step = np.full(delta.shape[:-1], h) if h is not None else 1e-4 * np.maximum(1.0, np.linalg.norm(delta, axis=-1))
    curv = directional_curvature(inner_objective(params, env, s, a), delta, V, step)
    X = s + delta
    Jv = jvp(params, X, V)
    HJv = (Jv[..., None, :] @ loss_hessian(env, forward(params, X), a))[..., 0, :]
    out = shape[:-1]
    return tau, curv.reshape(out), np.sqrt(_dots(Jv, Jv)).reshape(out), (curv - _dots(HJv, Jv)).reshape(out)


def flatten_params(params: PolicyParams) -> np.ndarray:
    return np.concatenate([np.concatenate([l.weight.ravel(), l.bias]) for l in params.layers])


def unflatten_params(params: PolicyParams, vec: np.ndarray) -> PolicyParams:
    layers = []
    i = 0
    for l in params.layers:
        nw = l.weight.size
        W = vec[i : i + nw].reshape(l.weight.shape)
        i += nw
        b = vec[i : i + l.bias.size]
        i += l.bias.size
        layers.append(Layer(W, b, l.activation))
    return PolicyParams(tuple(layers))


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([np.concatenate([dW.ravel(), db]) for dW, db in grads])


def eval_objective(params: PolicyParams, objective) -> float:
    """Evaluate an objective on plain ndarrays (no tape)."""
    return float(objective(params.handle))


def fd_param_gradient(params: PolicyParams, objective, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of eval_objective over every parameter."""
    x0 = flatten_params(params)
    grad = np.zeros_like(x0)
    for i in range(len(x0)):
        e = np.zeros_like(x0)
        e[i] = h
        fp = eval_objective(unflatten_params(params, x0 + e), objective)
        fm = eval_objective(unflatten_params(params, x0 - e), objective)
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def linear_policy(W: np.ndarray, bias=None) -> PolicyParams:
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return PolicyParams((Layer(W, b, "identity"),))
