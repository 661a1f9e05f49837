"""Numerical certificates for the expressivity and stability claims.

Checks implemented here:

* inclusion: when the sampled spectral norms stay within the global budget,
  every recorded directional amplification must too (a unit direction can
  never amplify more than the operator norm);
* witness: the linear map gamma * P_U + M * P_perp is directionally bounded
  on a proper subspace U while its spectral norm is M, separating the
  trajectory-adaptive class from the globally constrained one;
* effective smoothness: finite-difference directional curvature of the
  inner objective along recorded update segments stays below
  L_loss * gamma_hat^2 + C_hat, with the residual curvature C_hat measured
  on the same segment grid;
* ascent stability: with step size eta <= 1 / L_eff the projected ascent
  iterates gain at least eta/2 * ||grad||^2 on interior steps, gain at
  least ||step||^2 / (2 eta) on every step, keep gradient changes along the
  update direction below L_eff * ||step||, and stay feasible.

The last three share one projected gradient ascent per (sample, eta): the
smoothness report keeps the ``Ascent`` record it measured and the
inner-loop config it ran at, the step-size search measures again only when
eta shrinks, and the stability check reads its iterates, values, gradients
and ``moved`` steps from that record's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environments import Environment, check_dims, check_seeds, loss, loss_hessian, loss_hessian_bound, sample
from .errors import ConfigError
from .inner import Ascent, InnerLoopConfig, PerturbationSet, pga_run
from .policy import Layer, PolicyParams, forward, init_policy, jvp
from .regularizers import RegularizerConfig, constraint_levels, spectral_norm

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
    if not np.all(h > 0):
        raise ConfigError("finite-difference step h must be > 0")
    step = h[..., None] * v
    return (g(delta + step) - 2.0 * g(delta) + g(delta - step)) / (h * h)


def inner_objective(params: PolicyParams, env: Environment, s, a):
    """delta -> L(pi(s + delta), a); one value per row for stacked deltas."""
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)

    def g(delta):
        z = forward(params, s + np.asarray(delta, dtype=np.float64))
        return loss(env, z, np.broadcast_to(a, z.shape[:-1] + a.shape))

    return g


@dataclass(frozen=True)
class SegmentPoint:
    segment: int  # index t of the step the point lies on
    tau: float  # position within [delta_t, delta_{t+1}]
    curvature: float  # finite-difference directional curvature
    amplification: float  # ||J(s + delta) v_t||
    residual: float  # curvature minus the loss-Hessian quadratic form


def _segment_scan(
    params: PolicyParams,
    env: Environment,
    s,
    a,
    traj: Ascent,
    grid: int = 5,
    h_scale: float = 1e-4,
    h: float | None = None,
) -> list[SegmentPoint]:
    """Probe interior grid points of every segment the iterates moved along,
    all of them in one batched pass."""
    if int(grid) < 1:
        raise ConfigError("segment grid must be >= 1")
    moved = np.flatnonzero(traj.moved)
    if not moved.size:
        return []
    seg = np.repeat(moved, int(grid))
    tau = np.tile(np.arange(1, int(grid) + 1) / (grid + 1), moved.size)
    delta = (1.0 - tau[:, None]) * traj.deltas[seg] + tau[:, None] * traj.deltas[seg + 1]
    V = traj.update[seg]
    step = np.full(len(seg), h) if h is not None else h_scale * np.maximum(1.0, np.linalg.norm(delta, axis=1))
    curv = directional_curvature(inner_objective(params, env, s, a), delta, V, step)
    X = np.asarray(s, dtype=np.float64) + delta
    Jv = jvp(params, X, V)
    quad = [float(jv @ loss_hessian(env, z, a) @ jv) for z, jv in zip(forward(params, X), Jv)]
    return [
        SegmentPoint(int(t), float(x), float(c), float(np.linalg.norm(jv)), float(c - q))
        for t, x, c, jv, q in zip(seg, tau, curv, Jv, quad)
    ]


def estimate_C(
    params: PolicyParams,
    env: Environment,
    s,
    a,
    traj: Ascent,
    grid: int = 5,
    h: float | None = None,
) -> float:
    """Max sampled residual curvature along the trajectory, floored at 0.

    The residual isolates the policy's own second-order contribution: for a
    linear policy it vanishes up to finite-difference noise.
    """
    points = _segment_scan(params, env, s, a, traj, grid=grid, h=h)
    if not points:
        return 0.0
    return max(0.0, max(p.residual for p in points))


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
    s, a = sample_pair
    traj = pga_run(params, s, a, env, pset, inner)
    points = _segment_scan(params, env, s, a, traj, grid=grid, h=h)
    l_loss = loss_hessian_bound(env)
    if not points:
        return SmoothnessReport(
            l_loss=l_loss, c_hat=0.0, gamma_adv_hat=0.0, l_eff_bound=0.0, tol=0.0, inner=inner, trajectory=traj
        )
    gamma_hat = max(p.amplification for p in points)
    c_hat = max(0.0, max(p.residual for p in points))
    bound = l_loss * gamma_hat**2 + c_hat
    tol = tol_scale * max(1.0, bound)
    violations = [
        {"segment": p.segment, "tau": p.tau, "curvature": p.curvature, "bound": bound, "slack": p.curvature - bound}
        for p in points
        if p.curvature > bound + tol
    ]
    return SmoothnessReport(
        l_loss=l_loss,
        c_hat=c_hat,
        gamma_adv_hat=gamma_hat,
        l_eff_bound=bound,
        tol=tol,
        inner=inner,
        trajectory=traj,
        points=points,
        violations=violations,
        passed=not violations,
    )


def stable_step_size(
    params: PolicyParams,
    env: Environment,
    sample_pair,
    pset: PerturbationSet,
    inner: InnerLoopConfig,
    *,
    safety: float = 0.9,
    rounds: int = 8,
    grid: int = 5,
    smoothness: SmoothnessReport | None = None,
) -> tuple[InnerLoopConfig, SmoothnessReport]:
    """Shrink eta until it is consistent with the bound measured at that eta.

    The effective-smoothness bound depends on the trajectory, which depends
    on eta, so a single division is not self-consistent. Iterating
    eta <- safety / bound(eta) settles after a few rounds; eta only ever
    shrinks, which keeps the loop monotone.

    ``smoothness``, when given, is the report already measured at ``inner``
    (ConfigError otherwise) and saves measuring it again; a new ascent runs
    only in a round that shrinks eta. The returned report was measured at
    the returned config.
    """
    if not 0 < safety <= 1:
        raise ConfigError("safety factor must be in (0, 1]")
    cfg = inner
    if smoothness is None:
        smooth = check_effective_smoothness(params, env, sample_pair, pset, cfg, grid=grid)
    else:
        smooth = _measured_at(smoothness, cfg)
    for _ in range(rounds):
        bound = smooth.l_eff_bound
        if bound == 0.0 or cfg.eta <= safety / bound:
            break
        cfg = InnerLoopConfig(eta=safety / bound, steps=cfg.steps, eps0=cfg.eps0)
        smooth = check_effective_smoothness(params, env, sample_pair, pset, cfg, grid=grid)
    return cfg, smooth


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
    tol: float = ASCENT_TOL,
    smoothness: SmoothnessReport | None = None,
) -> StabilityReport:
    """Per-step ascent, gradient-control, and feasibility inequalities.

    The iterates are the ascent record of ``smoothness``, which must have been
    measured at ``inner`` (ConfigError otherwise); without a report one is
    measured here, from one ascent.
    """
    if smoothness is None:
        smoothness = check_effective_smoothness(params, env, sample_pair, pset, inner, grid=grid)
    else:
        smoothness = _measured_at(smoothness, inner)
    l_eff = smoothness.l_eff_bound
    # the measured bound carries finite-difference noise; allow 1e-9 relative
    # slack so eta == 1/L_eff exactly still counts as meeting the premise
    premise_ok = l_eff == 0.0 or inner.eta <= (1.0 + 1e-9) / l_eff
    traj = smoothness.trajectory
    eta = inner.eta
    report = StabilityReport(eta=eta, l_eff_bound=l_eff, premise_ok=premise_ok)

    def violate(step, name, slack):
        report.violations.append({"step": step, "inequality": name, "slack": float(slack)})

    for t, delta in enumerate(traj.deltas):
        if not pset.contains(delta, FEASIBILITY_TOL):
            violate(t, "feasibility", pset.norm(np.asarray(delta)) - pset.epsilon)

    values = traj.values.tolist()
    for t in range(traj.steps):
        g0, g1 = values[t], values[t + 1]
        d = traj.deltas[t + 1] - traj.deltas[t]
        dn = float(np.linalg.norm(d))
        entry = {"step": t, "gain": g1 - g0, "step_norm": dn}
        # every step: gain at least ||step||^2 / (2 eta)
        projected_rhs = dn**2 / (2.0 * eta)
        entry["projected_slack"] = g1 - g0 - projected_rhs
        if g1 - g0 < projected_rhs - tol:
            violate(t, "projected_ascent", g1 - g0 - projected_rhs)
        # interior steps: gain at least eta/2 * ||grad||^2
        if pset.norm(np.asarray(traj.deltas[t + 1])) <= pset.epsilon - INTERIOR_MARGIN:
            interior_rhs = 0.5 * eta * float(np.dot(traj.grads[t], traj.grads[t]))
            entry["interior_slack"] = g1 - g0 - interior_rhs
            if g1 - g0 < interior_rhs - tol:
                violate(t, "interior_ascent", g1 - g0 - interior_rhs)
        # moved steps: gradient change along the update direction is bounded
        if traj.moved[t]:
            change = float(traj.update[t] @ (traj.grads[t + 1] - traj.grads[t]))
            bound = l_eff * dn
            tol_c = 1e-6 * max(1.0, bound)
            entry["gradient_control_slack"] = bound - change
            if change > bound + tol_c:
                violate(t, "gradient_control", change - bound)
        report.steps.append(entry)
    report.passed = not report.violations
    return report


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
    directional amplification. Reported as skipped when the budget itself
    is violated."""
    if int(n_samples) < 1:
        raise ConfigError("must be >= 1", field="n_samples")
    S, A = (np.array(rows) for rows in zip(*(sample(env, seed + k) for k in range(int(n_samples)))))
    amps, sigmas = constraint_levels(params, S, A, env, pset, inner)
    sup_proxy = float(np.max(sigmas))
    violations = [
        {"sample": int(k), "step": int(t), "dir_amp": float(amps[k, t])}
        for k, t in np.argwhere(amps > gamma + DIRECTIONAL_TOL)
    ]
    return InclusionReport(
        gamma=float(gamma),
        sup_proxy=sup_proxy,
        max_dir_amp=float(np.max(amps, initial=0.0)),
        status="premise_not_met" if sup_proxy > gamma else "fail" if violations else "pass",
        n_samples=int(n_samples),
        violations=violations,
    )


@dataclass(frozen=True, eq=False)
class WitnessSpec:
    """Budget, off-subspace gain, and orthonormal basis of the subspace."""

    gamma: float
    offspace_gain: float  # spectral norm of the constructed map
    u_basis: Array  # (d, k) orthonormal columns, k < d

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigError("witness gamma must be > 0")
        if not self.offspace_gain > 0:
            raise ConfigError("witness off-subspace gain must be > 0")
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
    e2e_u_in_subspace: bool | None = None
    e2e_directional_ok: bool | None = None
    e2e_global_violated: bool | None = None
    e2e_max_offspace: float | None = None
    passed: bool = True


def class_witness(spec: WitnessSpec, directions, *, run_e2e: bool = True, e2e_seed: int = 0) -> WitnessReport:
    """Check the constructed map separates directional from global budgets.

    Every supplied direction must lie in the subspace; the end-to-end
    variant drives projected gradient ascent against a loss whose gradient
    is confined to the subspace and confirms the generated ascent
    directions stay there.
    """
    params = witness_policy(spec)
    P = spec.projector()
    zero_state = np.zeros(spec.dim)
    max_amp = 0.0
    for u in directions:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (spec.dim,):
            raise ConfigError(f"direction has shape {u.shape}, expected ({spec.dim},)")
        if np.linalg.norm(u) > 1.0 + 1e-9:
            raise ConfigError("directions must have norm at most 1")
        if np.linalg.norm(u - P @ u) > 1e-9:
            raise ConfigError("directions must lie in the witness subspace")
        max_amp = max(max_amp, float(np.linalg.norm(jvp(params, zero_state, u))))
    membership_ok = max_amp <= spec.gamma + DIRECTIONAL_TOL
    sigma = spectral_norm(params, zero_state)
    exclusion_ok = sigma > spec.gamma + DIRECTIONAL_TOL
    report = WitnessReport(
        gamma=spec.gamma,
        offspace_gain=spec.offspace_gain,
        dim=spec.dim,
        subspace_dim=spec.u_basis.shape[1],
        membership_ok=membership_ok,
        sigma=float(sigma),
        exclusion_ok=exclusion_ok,
        max_direction_amp=max_amp,
    )
    if run_e2e:
        rng = np.random.default_rng(e2e_seed)
        env = Environment(
            kind="quadratic_congestion",
            c=rng.uniform(-1.0, 1.0, spec.dim),
            A=np.zeros((spec.dim, spec.dim)),
            state_dim=spec.dim,
            seed=0,
            projector=P,
        )
        pset = PerturbationSet(p=2.0, epsilon=0.5, dim=spec.dim)
        inner = InnerLoopConfig(eta=0.5 / max(1.0, spec.gamma**2), steps=4)
        s, a = sample(env, e2e_seed)
        traj = pga_run(params, s, a, env, pset, inner)
        offspace = [float(np.linalg.norm(u - P @ u)) for u in traj.ascent]
        report.e2e_max_offspace = max(offspace) if offspace else 0.0
        report.e2e_u_in_subspace = report.e2e_max_offspace <= 1e-9
        report.e2e_directional_ok = bool(np.all(traj.amps <= spec.gamma + DIRECTIONAL_TOL))
        report.e2e_global_violated = sigma > spec.gamma + DIRECTIONAL_TOL
    checks = [report.membership_ok, report.exclusion_ok]
    if run_e2e:
        checks += [report.e2e_u_in_subspace, report.e2e_directional_ok, report.e2e_global_violated]
    report.passed = all(checks)
    return report


def random_orthonormal_basis(dim: int, k: int, seed: int = 0) -> Array:
    """Seeded orthonormal (dim, k) basis via QR of a Gaussian draw."""
    if not 1 <= k < dim:
        raise ConfigError(f"subspace dimension must satisfy 1 <= k < {dim}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def subspace_directions(basis: Array, count: int, seed: int = 0) -> list[Array]:
    """Seeded unit vectors inside the span of an orthonormal basis."""
    rng = np.random.default_rng(seed)
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
        if int(n) < 1:
            raise ConfigError("must be >= 1", field=name)
    if not 0 < eta_safety <= 1:
        raise ConfigError("must be in (0, 1]", field="eta_safety")
    if not tol_curv_scale > 0:
        raise ConfigError("must be > 0", field="tol_curv_scale")
    if any(int(d) < 2 for d in witness_dims):
        raise ConfigError("entries must be >= 2", field="witness_dims")
    if any(int(d) > MAX_WITNESS_DIM for d in witness_dims):
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

    Each seed's smoothness, step-size and stability checks share one ascent
    (one more per round that shrinks eta), and the returned record is the
    one measured at the stabilised step size. Every argument is checked
    by ``check_verify`` and ``check_dims`` before any ascent runs.
    """
    seeds = check_verify(seeds, grid, tol_curv_scale, n_samples, eta_safety, witness_dims)
    check_dims(env, policy_dims, pset)
    checks: list[dict] = []
    trajectories: dict[int, Ascent] = {}

    def add(name, seed, passed, margins, constants=None, status=None):
        checks.append(
            {
                "name": name,
                "seed": seed,
                "pass": bool(passed),
                "margins": margins,
                "constants": constants or {},
                "status": status or ("pass" if passed else "fail"),
            }
        )

    for seed in seeds:
        params = init_policy(policy_dims, activations, seed=seed)
        pair = sample(env, seed)
        smooth = check_effective_smoothness(
            params, env, pair, pset, inner, grid=grid, tol_scale=tol_curv_scale
        )
        add(
            "effective_smoothness",
            seed,
            smooth.passed,
            {
                "violations": smooth.violations,
                "max_curvature": max((p.curvature for p in smooth.points), default=0.0),
                "tol": smooth.tol,
            },
            smooth.constants(),
        )
        inner_stab, smooth_stab = stable_step_size(
            params, env, pair, pset, inner, safety=eta_safety, grid=grid, smoothness=smooth
        )
        stability = check_pga_stability(
            params, env, pair, pset, inner_stab, grid=grid, smoothness=smooth_stab
        )
        status = None if stability.premise_ok else "premise_not_met"
        add(
            "pga_stability",
            seed,
            stability.passed or not stability.premise_ok,
            {"violations": stability.violations, "eta": stability.eta, "premise_ok": stability.premise_ok},
            smooth_stab.constants(),
            status if status else ("pass" if stability.passed else "fail"),
        )
        trajectories[seed] = smooth_stab.trajectory
        inclusion = check_inclusion(
            params, env, pset, inner, reg.gamma, n_samples, seed=seed * 1000
        )
        add(
            "inclusion",
            seed,
            inclusion.status != "fail",
            {
                "sup_proxy": inclusion.sup_proxy,
                "max_dir_amp": inclusion.max_dir_amp,
                "violations": inclusion.violations,
            },
            {"gamma": inclusion.gamma},
            inclusion.status if inclusion.status == "premise_not_met" else None,
        )

    witness_gamma = 1.0
    for d in witness_dims:
        for k in range(1, int(d)):
            for factor in (2.0, 10.0):
                basis = random_orthonormal_basis(int(d), k, seed=int(d) * 100 + k)
                spec = WitnessSpec(gamma=witness_gamma, offspace_gain=factor * witness_gamma, u_basis=basis)
                directions = subspace_directions(basis, 3, seed=k)
                rep = class_witness(spec, directions, e2e_seed=k)
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

    all_pass = all(c["pass"] for c in checks)
    return {"checks": checks, "all_pass": all_pass}, trajectories
