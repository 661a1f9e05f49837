"""Numerical certificates for the expressivity and stability claims.

Checks implemented here:

* inclusion: when the sampled spectral norms stay within the global budget,
  every recorded directional amplification must too (a unit direction can
  never amplify more than the operator norm);
* witness: the linear map gamma * P_U + M * P_perp is directionally bounded
  on a proper subspace U while its spectral norm is M, separating the
  trajectory-adaptive class from the globally constrained one; both are
  read from the map itself (one product with the directions, one dense
  SVD), and one projected gradient ascent on it confirms that the ascent
  directions it generates stay in U. The maps of one basis and one budget
  (the suite's two gains per grid point) share that setup and run as one
  model stack: one product, one SVD and one ascent for all of them;
* effective smoothness: finite-difference directional curvature of the
  inner objective along recorded update segments stays below
  L_loss * gamma_hat^2 + C_hat, with the residual curvature C_hat measured
  on the same segment grid;
* ascent stability: with step size eta <= 1 / L_eff the projected ascent
  iterates gain at least eta/2 * ||grad||^2 on interior steps, gain at
  least ||step||^2 / (2 eta) on every step, keep gradient changes along the
  update direction below L_eff * ||step||, and stay feasible.

The suite checks every seed's policy in one model stack, with one ascent
per step size: at the configured eta, each seed's sample row, which gives
its smoothness report and the ``Ascent`` row its stability inequalities
read, ascends with its inclusion rows; each step-size round ascends the
seeds whose eta it shrinks, each at its own eta. ``check_inclusion``,
``stable_step_size`` and ``class_witness`` are one-row cases of the stacked
checks; the others scan one row of a lone policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .environments import Environment, check_dims, check_seeds, loss, loss_hessian, loss_hessian_bound, sample, samples
from .errors import ConfigError, check_count, check_positive
from .inner import Ascent, InnerLoopConfig, PerturbationSet, _ascend, pga_batch, pga_run
from .policy import Layer, PolicyParams, forward, init_policy, jvp, stack_policies
from .regularizers import RegularizerConfig, constraint_levels, top_singular
from .tape import matvec

Array = np.ndarray

INTERIOR_MARGIN = 1e-9
FEASIBILITY_TOL = 1e-12
ASCENT_TOL = 1e-8
DIRECTIONAL_TOL = 1e-9

# largest ambient dimension of a class-witness construction
MAX_WITNESS_DIM = 64


def directional_curvature(g, delta, v, h):
    """Second-order central difference of g along a unit direction.

    Row by row when delta and v are (n, d) stacks: g then maps a stack to
    one value per row, h is one step or one step per row, and the result
    has one curvature per row.
    """
    delta = np.asarray(delta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-9):
        raise ConfigError("direction must be a unit vector")
    if not np.all(np.isfinite(h) & (h > 0)):
        raise ConfigError("finite-difference step h must be a finite number > 0")
    step = h[..., None] * v
    return (g(delta + step) - 2.0 * g(delta) + g(delta - step)) / (h * h)


def inner_objective(params: PolicyParams, env: Environment, s, a):
    """delta -> L(pi(s + delta), a); one value per row for stacked deltas,
    against one state and context or one of each per row."""
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)

    def g(delta):
        z = forward(params, s + np.asarray(delta, dtype=np.float64))
        return loss(env, z, np.broadcast_to(a, z.shape[:-1] + a.shape[-1:]))

    return g


@dataclass(frozen=True)
class SegmentPoint:
    segment: int  # index t of the step the point lies on
    tau: float  # position within [delta_t, delta_{t+1}]
    curvature: float  # finite-difference directional curvature
    amplification: float  # ||J(s + delta) v_t||
    residual: float  # curvature minus the loss-Hessian quadratic form


def _dots(x, y):
    """Dot product of each row pair, with the arithmetic of ``x_i @ y_i``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _one_row(sample_pair):
    return tuple(np.asarray(x, dtype=np.float64)[None] for x in sample_pair)


def _segment_scan(params: PolicyParams, env: Environment, S, A, record: Ascent, grid: int = 5, h=None):
    """Probe ``grid`` interior points of every step of the ascents in
    ``record`` from (..., B, d) states S and contexts A, in one batched pass.

    Returns the positions tau, (grid,), and the curvature, amplification and
    residual at every point, (..., B, K, grid), with the finite-difference
    step ``h`` or, without it, 1e-4 * max(1, ||delta||) at each point. A
    step whose iterate did not move has no segment: it is probed along a
    unit placeholder direction, and its points are masked out by
    ``record.moved``.
    """
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


def estimate_C(params: PolicyParams, env: Environment, s, a, traj: Ascent, grid: int = 5) -> float:
    """Max sampled residual curvature along the trajectory, floored at 0.

    The residual isolates the policy's own second-order contribution: for a
    linear policy it vanishes up to finite-difference noise.
    """
    return _smoothness(params, env, *_one_row((s, a)), traj[None], None, grid)[0].c_hat


@dataclass
class SmoothnessReport:
    l_loss: float  # Lipschitz constant of the loss gradient
    c_hat: float  # measured residual curvature bound
    gamma_adv_hat: float  # max segment amplification along update directions
    l_eff_bound: float  # l_loss * gamma_adv_hat^2 + c_hat
    tol: float
    inner: InnerLoopConfig  # the inner-loop config the ascent ran at
    trajectory: Ascent  # the one-row ascent whose segments were measured
    points: list[SegmentPoint] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    passed: bool = True

    def constants(self) -> dict:
        return {
            "L_L": self.l_loss,
            "C_hat": self.c_hat,
            "gamma_adv_hat": self.gamma_adv_hat,
            "L_eff_bound": self.l_eff_bound,
        }


def _smoothness(params, env, S, A, record: Ascent, inner, grid=5, tol_scale=1e-4, h=None) -> list[SmoothnessReport]:
    """``check_effective_smoothness`` on every row of the ascents ``record``
    ran at ``inner`` from (..., B, d) states S and contexts A, from one
    segment scan over all of them; one report per row, in row order."""
    tau, curv, amp, residual = _segment_scan(params, env, S, A, record, grid, h=h)
    tau, l_loss = tau.tolist(), loss_hessian_bound(env)
    reports = []
    for idx in np.ndindex(record.moved.shape[:-1]):
        traj = record[idx]
        per_step = zip(traj.moved.tolist(), curv[idx].tolist(), amp[idx].tolist(), residual[idx].tolist())
        points = [SegmentPoint(t, *p) for t, (moved, *at) in enumerate(per_step) if moved for p in zip(tau, *at)]
        gamma_hat = max((p.amplification for p in points), default=0.0)
        c_hat = max([0.0] + [p.residual for p in points])
        bound = l_loss * gamma_hat**2 + c_hat
        tol = tol_scale * max(1.0, bound) if points else 0.0
        violations = [
            {"segment": p.segment, "tau": p.tau, "curvature": p.curvature, "bound": bound, "slack": p.curvature - bound}
            for p in points
            if p.curvature > bound + tol
        ]
        report = SmoothnessReport(l_loss, c_hat, gamma_hat, bound, tol, inner, traj, points, violations, not violations)
        reports.append(report)
    return reports


def _check_one_sample(params, env, pset, grid=5, tol_scale=1e-4, h=None) -> int:
    """The entry checks of the one-sample checks, before their ascent; returns ``grid``."""
    check_positive(tol_scale, "tol_scale")
    if h is not None:
        check_positive(h, "h")
    check_dims(env, params.dims(), pset)
    return check_count(grid, 1, "grid")


def _one_sample(params, env, sample_pair, pset, inner, grid=5, tol_scale=1e-4, h=None) -> SmoothnessReport:
    """``check_effective_smoothness`` without its entry checks."""
    record = pga_run(params, *sample_pair, env, pset, inner)
    return _smoothness(params, env, *_one_row(sample_pair), record[None], inner, grid, tol_scale, h)[0]


def check_effective_smoothness(
    params: PolicyParams,
    env: Environment,
    sample_pair,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    *,
    grid: int = 5,
    tol_scale: float = 1e-4,
    h: float | None = None,
) -> SmoothnessReport:
    """Directional curvature along every recorded segment must stay below
    L_loss * gamma_hat^2 + C_hat. Vacuously true when no iterate moved.

    Runs the ascent once; the report keeps that record and ``inner`` so
    the step-size and stability checks can reuse them.
    """
    grid = _check_one_sample(params, env, pset, grid, tol_scale, h)
    return _one_sample(params, env, sample_pair, pset, inner, grid, tol_scale, h)


def stable_step_size(
    params: PolicyParams,
    env: Environment,
    sample_pair,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    *,
    safety: float = 0.9,
    grid: int = 5,
    smoothness: SmoothnessReport | None = None,
) -> tuple[InnerLoopConfig, SmoothnessReport]:
    """Shrink eta until it is consistent with the bound measured at that eta.

    The effective-smoothness bound depends on the trajectory, which depends
    on eta, so a single division is not self-consistent. Iterating
    eta <- safety / bound(eta) settles after a few rounds (at most 8 run);
    eta only ever shrinks, which keeps the loop monotone.

    ``smoothness``, when given, is the report already measured at ``inner``
    (ConfigError otherwise); without it, the lone policy's ascent measures
    it. The rounds that shrink eta are the one-row case of ``verify``'s
    stacked search. The returned report was measured at the returned config.
    """
    if check_positive(safety, "safety", "safety factor") > 1:
        raise ConfigError("safety factor must be in (0, 1]", "safety")
    grid = _check_one_sample(params, env, pset, grid)
    smooth = _measured_at(smoothness, inner) if smoothness else _one_sample(params, env, sample_pair, pset, inner, grid)
    smooth = _step_sizes([params], env, *(x[None] for x in _one_row(sample_pair)), pset, [smooth], safety, grid)[0]
    return smooth.inner, smooth


def _step_sizes(members, env, S, A, pset, reports, safety, grid) -> list[SmoothnessReport]:
    """``stable_step_size`` for each lone policy of ``members``, from its row of
    (M, 1, ...) states S and contexts A and its report at the configured eta:
    a round stacks the models it shrinks for one ascent, each at its own eta."""
    reports = list(reports)
    for _ in range(8):
        # a model settles at a zero bound or at an eta within safety / bound; a NaN bound never settles
        shrink = [i for i, r in enumerate(reports) if r.l_eff_bound and not r.inner.eta <= safety / r.l_eff_bound]
        if not shrink:
            break
        cfgs = [replace(reports[i].inner, eta=safety / reports[i].l_eff_bound) for i in shrink]
        stack, eta = stack_policies([members[i] for i in shrink]), np.array([cfg.eta for cfg in cfgs])[:, None, None]
        record = _ascend(stack, S[shrink], A[shrink], env, pset, cfgs[0], full=True, eta=eta)
        for i, cfg, report in zip(shrink, cfgs, _smoothness(stack, env, S[shrink], A[shrink], record, None, grid)):
            reports[i] = replace(report, inner=cfg)
    return reports


def _measured_at(smoothness: SmoothnessReport, inner: InnerLoopConfig) -> SmoothnessReport:
    """The report, if its trajectory was run at ``inner``."""
    if smoothness.inner != inner:
        raise ConfigError(f"smoothness report was measured at {smoothness.inner}, not at {inner}")
    return smoothness


@dataclass
class StabilityReport:
    eta: float
    l_eff_bound: float
    premise_ok: bool  # eta <= 1 / l_eff_bound
    steps: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    passed: bool = True


def check_pga_stability(
    params: PolicyParams,
    env: Environment,
    sample_pair,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    *,
    grid: int = 5,
    smoothness: SmoothnessReport | None = None,
) -> StabilityReport:
    """Per-step ascent, gradient-control, and feasibility inequalities.

    The iterates are the ascent record of ``smoothness``, which must have been
    measured at ``inner`` (ConfigError otherwise); without a report one is
    measured here, from one ascent.
    """
    if smoothness is None:
        grid = _check_one_sample(params, env, pset, grid)
        smoothness = _one_sample(params, env, sample_pair, pset, inner, grid)
    return _stability(pset, [_measured_at(smoothness, inner)])[0]


def _stability(pset: PerturbationSet, reports: list[SmoothnessReport]) -> list[StabilityReport]:
    """``check_pga_stability`` on the ascent of each smoothness report, at
    the config it was measured at: each inequality is one array expression
    over every step of every ascent."""
    rec = Ascent(*(np.stack([getattr(r.trajectory, f.name) for r in reports]) for f in fields(Ascent)))
    eta = np.array([[r.inner.eta] for r in reports])
    norm, gain, step = pset.norm(rec.deltas), np.diff(rec.values), np.diff(rec.deltas, axis=-2)
    dn = np.sqrt(_dots(step, step))
    # every step: gain at least ||step||^2 / (2 eta); float_power squares as ** does on a Python float
    projected_rhs = np.float_power(dn, 2) / (2.0 * eta)
    # interior steps: gain at least eta/2 * ||grad||^2
    interior = norm[:, 1:] <= pset.epsilon - INTERIOR_MARGIN
    interior_rhs = 0.5 * eta * _dots(rec.grads[:, :-1], rec.grads[:, :-1])
    # moved steps: gradient change along the update direction is bounded
    change = _dots(rec.update, np.diff(rec.grads, axis=-2))
    bound = np.array([[r.l_eff_bound] for r in reports]) * dn
    columns = {  # per step; NaN where the inequality does not apply
        "gain": gain,
        "step_norm": dn,
        "projected_slack": gain - projected_rhs,
        "interior_slack": np.where(interior, gain - interior_rhs, np.nan),
        "gradient_control_slack": np.where(rec.moved, bound - change, np.nan),
    }
    violated = {  # inequality: (where it fails, its slack)
        "feasibility": (~(norm <= pset.epsilon + FEASIBILITY_TOL), norm - pset.epsilon),
        "projected_ascent": (gain < projected_rhs - ASCENT_TOL, gain - projected_rhs),
        "interior_ascent": (interior & (gain < interior_rhs - ASCENT_TOL), gain - interior_rhs),
        "gradient_control": (rec.moved & (change > bound + 1e-6 * np.maximum(1.0, bound)), change - bound),
    }
    # (row, not feasibility, step, inequality): feasibility first, then step by step
    found = sorted(
        (r, k > 0, t, k, name, float(slack[r, t]))
        for k, (name, (bad, slack)) in enumerate(violated.items())
        for r, t in np.argwhere(bad).tolist()
    )
    out = []
    for r, report in enumerate(reports):
        # the measured bound carries finite-difference noise; allow 1e-9 relative
        # slack so eta == 1/L_eff exactly still counts as meeting the premise
        l_eff, eta_r = report.l_eff_bound, report.inner.eta
        rep = StabilityReport(eta=eta_r, l_eff_bound=l_eff, premise_ok=l_eff == 0.0 or eta_r <= (1.0 + 1e-9) / l_eff)
        row = {name: col[r].tolist() for name, col in columns.items()}
        rep.steps = [{"step": t, **{k: v[t] for k, v in row.items() if not math.isnan(v[t])}} for t in range(rec.steps)]
        rep.violations = [{"step": t, "inequality": name, "slack": x} for q, _, t, _, name, x in found if q == r]
        rep.passed = not rep.violations
        out.append(rep)
    return out


@dataclass
class InclusionReport:
    gamma: float
    sup_proxy: float  # max sampled spectral norm over visited states
    max_dir_amp: float
    status: str  # "pass" | "fail" | "premise_not_met"
    n_samples: int
    violations: list[dict] = field(default_factory=list)


def check_inclusion(
    params: PolicyParams,
    env: Environment,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    gamma: float,
    n_samples: int,
    *,
    seed: int = 0,
) -> InclusionReport:
    """A global budget that holds on every visited state must bound every
    directional amplification; checked on the ascents from the rows seeded
    seed, seed + 1, ... Reported as skipped when the budget itself fails."""
    n_samples, seed = check_count(n_samples, 1, "n_samples"), check_count(seed, 0, "seed")
    gamma = check_positive(gamma, "gamma", "inclusion budget gamma")
    check_dims(env, params.dims(), pset)
    stack = stack_policies([params])
    S, A = (x[None] for x in samples(env, range(seed, seed + n_samples)))
    return _inclusion(stack, S, pga_batch(stack, S, A, env, pset, inner), gamma)[0]


def _inclusion(params, S, record: Ascent, gamma) -> list[InclusionReport]:
    """``check_inclusion`` for each model of a stack on its (M, n, d) rows S,
    from the full record of their ascents: one constraint measurement, whose
    per-model largest spectral norm over every visited state is ``sup_proxy``."""
    n = S.shape[-2]
    amps, sups = constraint_levels(params, S, record)
    reports = []
    for amp, sup_proxy in zip(amps, sups.tolist()):
        violations = [
            {"sample": int(k), "step": int(t), "dir_amp": float(amp[k, t])}
            for k, t in np.argwhere(amp > gamma + DIRECTIONAL_TOL)
        ]
        status = "premise_not_met" if sup_proxy > gamma else "fail" if violations else "pass"
        reports.append(InclusionReport(float(gamma), sup_proxy, float(np.max(amp, initial=0.0)), status, n, violations))
    return reports


@dataclass(frozen=True, eq=False)
class WitnessSpec:
    """Budget, off-subspace gain, and orthonormal basis of the subspace."""

    gamma: float
    offspace_gain: float  # spectral norm of the constructed map
    u_basis: Array  # (d, k) orthonormal columns, k < d

    def __post_init__(self):
        check_positive(self.gamma, "gamma", "witness gamma")
        check_positive(self.offspace_gain, "offspace_gain", "witness off-subspace gain")
        B = np.asarray(self.u_basis, dtype=np.float64)
        if B.ndim != 2 or B.shape[1] >= B.shape[0] or B.shape[1] < 1:
            raise ConfigError(f"basis must be (d, k) with 1 <= k < d, got {B.shape}")
        if np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > 1e-9:
            raise ConfigError("basis columns must be orthonormal")
        object.__setattr__(self, "u_basis", B)

    @property
    def dim(self) -> int:
        return self.u_basis.shape[0]

    def projector(self) -> Array:
        return self.u_basis @ self.u_basis.T


def witness_matrix(spec: WitnessSpec) -> Array:
    """gamma on the subspace, offspace_gain on its orthogonal complement."""
    P = spec.projector()
    return spec.gamma * P + spec.offspace_gain * (np.eye(spec.dim) - P)


def witness_policy(spec: WitnessSpec) -> PolicyParams:
    return PolicyParams((Layer(witness_matrix(spec), np.zeros(spec.dim), "identity"),))


@dataclass
class WitnessReport:
    gamma: float
    offspace_gain: float
    dim: int
    subspace_dim: int
    membership_ok: bool  # every supplied direction amplified at most gamma
    sigma: float  # exact spectral norm of the constructed map (dense SVD)
    exclusion_ok: bool  # sigma exceeds gamma
    max_direction_amp: float
    e2e_u_in_subspace: bool  # every ascent direction of the end-to-end run lies in U
    e2e_directional_ok: bool  # and is amplified at most gamma
    e2e_global_violated: bool  # the map the ascent ran on exceeds gamma: exclusion_ok
    e2e_max_offspace: float
    passed: bool


def class_witness(spec: WitnessSpec, directions, *, e2e_seed: int = 0) -> WitnessReport:
    """Check the constructed map separates directional from global budgets.

    Every supplied direction must lie in the subspace; their amplifications
    come from one product with the map W and its spectral norm from one
    dense SVD of W. The end-to-end part drives projected gradient ascent on
    the policy x -> W x against a loss whose gradient is confined to the
    subspace and confirms the generated ascent directions stay there. The
    seed ``e2e_seed``, a non-negative integer, draws that loss and the start
    state. This is the one-map case of the stacked check that ``verify``
    runs on both gains of a grid point.
    """
    return _class_witnesses([spec], directions, e2e_seed)[0]


def _class_witnesses(specs, directions, e2e_seed) -> list[WitnessReport]:
    """``class_witness`` for each of ``specs``, which share one basis and one
    gamma, and with them the directions, the end-to-end environment, start
    state and inner config. The directions and the seed are checked once;
    the maps run as one model stack, with one product with the directions,
    one SVD of the (M, d, d) maps and one ascent over one row per map."""
    seed = check_count(e2e_seed, 0, what="witness e2e_seed")
    gamma, P, d, m = specs[0].gamma, specs[0].projector(), specs[0].dim, len(specs)
    U = [np.asarray(u, dtype=np.float64) for u in directions]
    for u in U:
        if u.shape != (d,):
            raise ConfigError(f"direction has shape {u.shape}, expected ({d},)")
    U = np.reshape(U, (-1, d))
    if not np.all(np.sqrt(_dots(U, U)) <= 1.0 + 1e-9):
        raise ConfigError("directions must have norm at most 1")
    off = U - matvec(P, U)
    if np.any(np.sqrt(_dots(off, off)) > 1e-9):
        raise ConfigError("directions must lie in the witness subspace")
    params = stack_policies([witness_policy(spec) for spec in specs])
    W = params.layers[0].weight
    amps = matvec(W, np.broadcast_to(U, (m,) + U.shape))
    max_amps = np.max(np.sqrt(_dots(amps, amps)), axis=-1, initial=0.0)
    sigmas = top_singular(W)[0]
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    env = Environment(kind="quadratic_congestion", c=c, A=np.zeros((d, d)), state_dim=d, projector=P)
    pset = PerturbationSet(p=2.0, epsilon=0.5, dim=d)
    inner = InnerLoopConfig(eta=0.5 / max(1.0, gamma**2), steps=4)
    record = pga_batch(params, *(np.broadcast_to(x, (m, 1, d)) for x in sample(env, seed)), env, pset, inner)
    off = record.ascent - matvec(P, record.ascent)
    max_offs = np.max(np.sqrt(_dots(off, off)).reshape(m, -1), axis=-1, initial=0.0)
    directional = np.all(record.amps.reshape(m, -1) <= gamma + DIRECTIONAL_TOL, axis=-1)
    reports = []
    per_map = zip(specs, max_amps.tolist(), sigmas.tolist(), max_offs.tolist(), directional.tolist())
    for spec, max_amp, sigma, max_off, directional_ok in per_map:
        membership_ok = max_amp <= gamma + DIRECTIONAL_TOL
        exclusion_ok = sigma > gamma + DIRECTIONAL_TOL
        in_subspace = max_off <= 1e-9
        report = WitnessReport(
            gamma=spec.gamma,
            offspace_gain=spec.offspace_gain,
            dim=d,
            subspace_dim=spec.u_basis.shape[1],
            membership_ok=membership_ok,
            sigma=sigma,
            exclusion_ok=exclusion_ok,
            max_direction_amp=max_amp,
            e2e_u_in_subspace=in_subspace,
            e2e_directional_ok=directional_ok,
            e2e_global_violated=exclusion_ok,
            e2e_max_offspace=max_off,
            passed=membership_ok and exclusion_ok and in_subspace and directional_ok,
        )
        reports.append(report)
    return reports


def random_orthonormal_basis(dim: int, k: int, seed: int = 0) -> Array:
    """Seeded orthonormal (dim, k) basis via QR of a Gaussian draw."""
    k = check_count(k, 1, "k")
    dim = check_count(dim, k + 1, "dim")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def subspace_directions(basis: Array, count: int, seed: int = 0) -> list[Array]:
    """Seeded unit vectors inside the span of an orthonormal basis."""
    count = check_count(count, 0, "count")
    rng = np.random.default_rng(check_count(seed, 0, "seed"))
    out = []
    for _ in range(count):
        coeff = rng.standard_normal(basis.shape[1])
        u = basis @ coeff
        out.append(u / np.linalg.norm(u))
    return out


# -- suite runner (backs the verify subcommand) -----------------------------


def check_verify(seeds, grid=5, tol_curv_scale=1e-4, n_samples=10, eta_safety=0.9, witness_dims=(2, 4)) -> list[int]:
    """The entry checks of ``verify_suite``, on its arguments; returns the
    seeds as a list."""
    for name, n in (("grid", grid), ("n_samples", n_samples)):
        check_count(n, 1, name)
    if check_positive(eta_safety, "eta_safety", "safety factor") > 1:
        raise ConfigError("safety factor must be in (0, 1]", "eta_safety")
    check_positive(tol_curv_scale, "tol_curv_scale")
    if any(check_count(d, 2, "witness_dims", "entries") > MAX_WITNESS_DIM for d in witness_dims):
        raise ConfigError(f"entries must be <= {MAX_WITNESS_DIM}", field="witness_dims")
    return check_seeds(seeds)


def verify_suite(
    env: Environment,
    policy_dims,
    activations,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    reg: RegularizerConfig,
    *,
    seeds,
    grid: int = 5,
    tol_curv_scale: float = 1e-4,
    n_samples: int = 10,
    eta_safety: float = 0.9,
    witness_dims=(2, 4),
) -> tuple[dict, dict[int, Ascent]]:
    """Run every check per seed; returns the JSON report and, per seed, a
    one-row ``Ascent``.

    The seeds' policies run as one model stack, with one ascent per step
    size. One ``samples`` call draws each seed's sample row and inclusion
    rows, and they ascend together at the configured eta: one segment scan
    and one array pass over the sample rows give every seed's smoothness
    and stability reports, and the inclusion rows its inclusion levels. A
    step-size round that shrinks eta ascends the seeds it shrinks, each at
    its own eta; the returned record is the one measured at the stabilised
    step size. Each class-witness grid point checks both of its gains from
    one two-model witness ascent. ``check_verify`` and ``check_dims`` check
    every argument before any ascent runs.
    """
    seeds = check_verify(seeds, grid, tol_curv_scale, n_samples, eta_safety, witness_dims)
    check_dims(env, policy_dims, pset)
    checks: list[dict] = []

    def add(name, seed, passed, margins, constants=None, status=None):
        check = {"name": name, "seed": seed, "pass": bool(passed), "margins": margins, "constants": constants or {}}
        checks.append({**check, "status": status or ("pass" if passed else "fail")})

    members = [init_policy(policy_dims, activations, seed=seed) for seed in seeds]
    stack = stack_policies(members)
    # seed s's sample row is s, its inclusion rows max(1000, n_samples) * s + k, k < n_samples: no two seeds share one
    rows = [r for s in seeds for r in [s] + [max(1000, n_samples) * s + k for k in range(n_samples)]]
    S, A = (x.reshape(len(seeds), 1 + n_samples, -1) for x in samples(env, rows))
    record = pga_batch(stack, S, A, env, pset, inner)
    inclusions = _inclusion(stack, S[:, 1:], record[:, 1:], reg.gamma)
    smooths = _smoothness(stack, env, S[:, :1], A[:, :1], record[:, :1], inner, grid, tol_curv_scale)
    settled = _step_sizes(members, env, S[:, :1], A[:, :1], pset, smooths, eta_safety, grid)
    stabilities = _stability(pset, settled)
    for seed, smooth, smooth_stab, stability, inclusion in zip(seeds, smooths, settled, stabilities, inclusions):
        max_curvature = max((p.curvature for p in smooth.points), default=0.0)
        margins = {"violations": smooth.violations, "max_curvature": max_curvature, "tol": smooth.tol}
        add("effective_smoothness", seed, smooth.passed, margins, smooth.constants())
        margins = {"violations": stability.violations, "eta": stability.eta, "premise_ok": stability.premise_ok}
        status = None if stability.premise_ok else "premise_not_met"
        passed = stability.passed or not stability.premise_ok
        add("pga_stability", seed, passed, margins, smooth_stab.constants(), status)
        margins = {"sup_proxy": inclusion.sup_proxy, "max_dir_amp": inclusion.max_dir_amp}
        margins["violations"] = inclusion.violations
        status = inclusion.status if inclusion.status == "premise_not_met" else None
        add("inclusion", seed, inclusion.status != "fail", margins, {"gamma": inclusion.gamma}, status)

    witness_gamma = 1.0
    for d in witness_dims:
        for k in range(1, d):
            basis = random_orthonormal_basis(d, k, seed=d * 100 + k)
            directions = subspace_directions(basis, 3, seed=k)
            specs = [WitnessSpec(witness_gamma, factor * witness_gamma, basis) for factor in (2.0, 10.0)]
            for rep in _class_witnesses(specs, directions, k):
                add(
                    "class_witness",
                    None,
                    rep.passed,
                    {
                        "dim": rep.dim,
                        "subspace_dim": rep.subspace_dim,
                        "sigma": rep.sigma,
                        "offspace_gain": rep.offspace_gain,
                        "max_direction_amp": rep.max_direction_amp,
                        "e2e_max_offspace": rep.e2e_max_offspace,
                    },
                    {"gamma": rep.gamma},
                )

    trajectories = {seed: smooth.trajectory for seed, smooth in zip(seeds, settled)}
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}, trajectories
