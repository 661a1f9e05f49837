"""Command-line entry point: train / verify / sweep / report.

Experiments are described by a strict-schema JSON config (unknown keys are
rejected, every error names the offending field path); flags only select
the subcommand, the config path, and the output directory. All randomness
flows from config seeds.

Exit codes: 0 success, 1 verification check failure, 2 configuration
error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environments import Environment
from .errors import ConfigError, NumericError
from .inner import InnerLoopConfig, PerturbationSet, dump_trajectory
from .policy import PolicyParams, init_policy, save_checkpoint
from .regularizers import RegularizerConfig
from .trainer import TrainConfig, price_of_robustness, train
from .verification import verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

INCOMPLETE_MARKER = ".incomplete"

# largest ambient dimension of a class-witness construction
MAX_WITNESS_DIM = 64


@dataclass
class RunConfig:
    """Validated, plain-python mirror of the JSON config file."""

    environment: dict
    policy: dict
    train: dict | None = None
    verify: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "runs"


# -- strict schema walking ---------------------------------------------------


def _object(obj, path: str, allowed, required=()) -> dict:
    """A JSON object with no key outside ``allowed`` and every key in ``required``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key '{key}'")
    return obj


def _finite(x, path) -> float:
    """A JSON number as a finite float; an integer beyond the float range
    is not finite either."""
    try:
        val = float(x)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite")
    return val


def _field(check):
    """A schema reader from a check of one value: ``reader(obj, path, ...)``
    checks the value under the last key of ``path``, or returns ``default``
    when that key is absent."""

    def read(obj, path, *args, default=None, **kwargs):
        key = path.split(".")[-1]
        return default if key not in obj else check(obj[key], path, *args, **kwargs)

    return read


@_field
def _number(val, path, *, positive=False, nonnegative=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    val = _finite(val, path)
    if positive and not val > 0:
        raise ConfigError(f"{path}: must be > 0")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}: must be >= 0")
    return val


@_field
def _integer(val, path, *, minimum=None):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return int(val)


@_field
def _string(val, path, choices=None):
    if not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}")
    return val


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@_field
def _float_list(val, path):
    if not isinstance(val, list) or not all(_is_number(x) for x in val):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [_finite(x, path) for x in val]


@_field
def _matrix(val, path):
    if not isinstance(val, list) or not all(isinstance(row, list) and all(_is_number(x) for x in row) for row in val):
        raise ConfigError(f"{path}: expected a list of lists of numbers")
    widths = {len(row) for row in val}
    if len(widths) != 1:
        raise ConfigError(f"{path}: rows must all have the same length")
    return [[_finite(x, path) for x in row] for row in val]


@_field
def _int_list(val, path, minimum=None, maximum=None):
    if not isinstance(val, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in val):
        raise ConfigError(f"{path}: expected a list of integers")
    if minimum is not None and any(x < minimum for x in val):
        raise ConfigError(f"{path}: entries must be >= {minimum}")
    if maximum is not None and any(x > maximum for x in val):
        raise ConfigError(f"{path}: entries must be <= {maximum}")
    return list(val)


@_field
def _bool(val, path):
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return val


def _parse_environment(raw) -> dict:
    keys = {"kind", "state_dim", "c", "A", "beta", "seed", "peer_mode", "projector"}
    raw = _object(raw, "environment", keys, required=("kind", "state_dim", "c"))
    kind = _string(raw, "environment.kind", {"quadratic_congestion", "softplus_congestion"})
    state_dim = _integer(raw, "environment.state_dim", minimum=1)
    c = _float_list(raw, "environment.c")
    if not c:
        raise ConfigError("environment.c: must be non-empty")
    m = len(c)
    A = _matrix(raw, "environment.A", default=[[0.0] * m for _ in range(m)])
    if len(A) != m:
        raise ConfigError(f"environment.A: expected {m} rows to match c, got {len(A)}")
    beta = _number(raw, "environment.beta", positive=True)
    if kind == "softplus_congestion" and beta is None:
        raise ConfigError("environment.beta: required for softplus_congestion")
    if kind != "softplus_congestion" and beta is not None:
        raise ConfigError("environment.beta: only valid for softplus_congestion")
    out = {
        "kind": kind,
        "state_dim": state_dim,
        "c": c,
        "A": A,
        "seed": _integer(raw, "environment.seed", minimum=0, default=0),
        "peer_mode": _string(raw, "environment.peer_mode", {"independent", "mirror"}, default="independent"),
    }
    if beta is not None:
        out["beta"] = beta
    projector = _matrix(raw, "environment.projector")
    if projector is not None:
        out["projector"] = projector
    return out


def _parse_policy(raw, state_dim: int, action_dim: int) -> dict:
    raw = _object(raw, "policy", {"dims", "activations", "init_seed"}, required=("dims",))
    dims = _int_list(raw, "policy.dims", minimum=1)
    if dims is None or len(dims) < 2:
        raise ConfigError("policy.dims: expected at least [input, output]")
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        # numpy refuses arrays whose byte size does not fit its index type
        if n_in * n_out * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
            raise ConfigError(f"policy.dims: layer {i} ({n_out}x{n_in} weights) is larger than numpy can index")
    if dims[0] != state_dim:
        raise ConfigError(f"policy.dims: first entry {dims[0]} must equal environment.state_dim {state_dim}")
    if dims[-1] != action_dim:
        raise ConfigError(f"policy.dims: last entry {dims[-1]} must equal len(environment.c) {action_dim}")
    activations = raw.get("activations")
    if activations is None:
        activations = ["tanh"] * (len(dims) - 2) + ["identity"]
    if not isinstance(activations, list) or not all(isinstance(x, str) for x in activations):
        raise ConfigError("policy.activations: expected a list of strings")
    if len(activations) != len(dims) - 1:
        raise ConfigError(f"policy.activations: expected {len(dims) - 1} entries")
    for i, act in enumerate(activations):
        if act not in ("tanh", "identity"):
            raise ConfigError(f"policy.activations[{i}]: must be 'tanh' or 'identity'")
    if activations[-1] != "identity":
        raise ConfigError("policy.activations: final layer must be identity")
    return {
        "dims": dims,
        "activations": activations,
        "init_seed": _integer(raw, "policy.init_seed", minimum=0, default=0),
    }


def _parse_train(raw) -> dict:
    keys = {"mode", "outer_lr", "outer_steps", "batch_size", "seed", "inner", "set", "reg"}
    raw = _object(raw, "train", keys, required=("mode", "outer_lr", "set", "inner"))
    mode = _string(raw, "train.mode", {"nominal", "robust_aajr", "robust_global", "robust_plain"})
    inner_raw = _object(raw["inner"], "train.inner", {"eta", "steps", "eps0"}, required=("eta",))
    inner = {
        "eta": _number(inner_raw, "train.inner.eta", positive=True),
        "steps": _integer(inner_raw, "train.inner.steps", minimum=0, default=5),
        "eps0": _number(inner_raw, "train.inner.eps0", positive=True, default=1e-8),
    }
    set_raw = _object(raw["set"], "train.set", {"p", "epsilon"}, required=("p", "epsilon"))
    p = set_raw["p"]
    if p == "inf":
        p_val = math.inf
    elif p == 2:
        p_val = 2.0
    else:
        raise ConfigError("train.set.p: must be 2 or \"inf\"")
    pset = {"p": "inf" if p_val == math.inf else 2, "epsilon": _number(set_raw, "train.set.epsilon", positive=True)}
    # power_iters and power_tol are accepted from older configs and ignored: spectral norms are exact
    keys = {"lambda", "gamma", "gamma_adv", "power_iters", "power_tol", "aajr_hinge"}
    reg_raw = _object(raw.get("reg", {}), "train.reg", keys)
    gamma = _number(reg_raw, "train.reg.gamma", positive=True, default=1.0)
    reg = {
        "lambda": _number(reg_raw, "train.reg.lambda", nonnegative=True, default=0.0),
        "gamma": gamma,
        "gamma_adv": _number(reg_raw, "train.reg.gamma_adv", positive=True, default=gamma),
        "aajr_hinge": _bool(reg_raw, "train.reg.aajr_hinge", default=False),
    }
    return {
        "mode": mode,
        "outer_lr": _number(raw, "train.outer_lr", positive=True),
        "outer_steps": _integer(raw, "train.outer_steps", minimum=0, default=100),
        "batch_size": _integer(raw, "train.batch_size", minimum=1, default=8),
        "seed": _integer(raw, "train.seed", minimum=0, default=0),
        "inner": inner,
        "set": pset,
        "reg": reg,
    }


def _parse_verify(raw) -> dict:
    raw = _object(raw, "verify", {"seeds", "grid", "n_samples", "eta_safety", "tol_curv_scale", "witness_dims"})
    eta_safety = _number(raw, "verify.eta_safety", positive=True, default=0.9)
    if eta_safety > 1.0:
        raise ConfigError("verify.eta_safety: must be in (0, 1]")
    return {
        "seeds": _int_list(raw, "verify.seeds", default=[0, 1, 2, 3, 4], minimum=0),
        "grid": _integer(raw, "verify.grid", minimum=1, default=5),
        "n_samples": _integer(raw, "verify.n_samples", minimum=1, default=10),
        "eta_safety": eta_safety,
        "tol_curv_scale": _number(raw, "verify.tol_curv_scale", positive=True, default=1e-4),
        "witness_dims": _int_list(raw, "verify.witness_dims", default=[2, 4], minimum=2, maximum=MAX_WITNESS_DIM),
    }


def _parse_sweep(raw) -> dict:
    keys = {"seeds", "eval_samples", "eval_seed", "achieved_samples", "bisect_iters", "match_tol"}
    raw = _object(raw, "sweep", keys)
    seeds = _int_list(raw, "sweep.seeds", default=[0, 1, 2, 3, 4], minimum=0)
    if len(seeds) < 3:
        raise ConfigError("sweep.seeds: need at least 3 seeds")
    match_tol = _number(raw, "sweep.match_tol", positive=True, default=0.05)
    if match_tol >= 1.0:
        raise ConfigError("sweep.match_tol: must be in (0, 1)")
    return {
        "seeds": seeds,
        "eval_samples": _integer(raw, "sweep.eval_samples", minimum=1, default=200),
        "eval_seed": _integer(raw, "sweep.eval_seed", minimum=0, default=10000),
        "achieved_samples": _integer(raw, "sweep.achieved_samples", minimum=1, default=20),
        "bisect_iters": _integer(raw, "sweep.bisect_iters", minimum=1, default=12),
        "match_tol": match_tol,
    }


def parse_config_dict(raw: dict) -> RunConfig:
    keys = {"environment", "policy", "train", "verify", "sweep", "output_dir"}
    raw = _object(raw, "config", keys, required=("environment", "policy"))
    environment = _parse_environment(raw["environment"])
    policy = _parse_policy(raw["policy"], environment["state_dim"], len(environment["c"]))
    train_block = _parse_train(raw["train"]) if "train" in raw else None
    verify_block = _parse_verify(raw.get("verify", {}))
    sweep_block = _parse_sweep(raw.get("sweep", {}))
    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    # cross-checks that need constructed objects
    build_environment(environment)
    return RunConfig(
        environment=environment,
        policy=policy,
        train=train_block,
        verify=verify_block,
        sweep=sweep_block,
        output_dir=output_dir,
    )


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config_dict(raw)


# -- builders ----------------------------------------------------------------


def build_environment(block: dict) -> Environment:
    return Environment(
        kind=block["kind"],
        c=np.asarray(block["c"], dtype=np.float64),
        A=np.asarray(block["A"], dtype=np.float64),
        state_dim=block["state_dim"],
        beta=block.get("beta"),
        seed=block["seed"],
        peer_mode=block["peer_mode"],
        projector=np.asarray(block["projector"], dtype=np.float64) if "projector" in block else None,
    )


def build_policy(block: dict) -> PolicyParams:
    return init_policy(block["dims"], block["activations"], seed=block["init_seed"])


def build_train_config(block: dict, state_dim: int) -> TrainConfig:
    inner = InnerLoopConfig(eta=block["inner"]["eta"], steps=block["inner"]["steps"], eps0=block["inner"]["eps0"])
    pset = PerturbationSet(
        p=math.inf if block["set"]["p"] == "inf" else 2.0,
        epsilon=block["set"]["epsilon"],
        dim=state_dim,
    )
    reg = RegularizerConfig(
        lam=block["reg"]["lambda"],
        gamma=block["reg"]["gamma"],
        gamma_adv=block["reg"]["gamma_adv"],
        aajr_hinge=block["reg"]["aajr_hinge"],
    )
    return TrainConfig(
        mode=block["mode"],
        outer_lr=block["outer_lr"],
        outer_steps=block["outer_steps"],
        batch_size=block["batch_size"],
        inner=inner,
        pset=pset,
        reg=reg,
        seed=block["seed"],
    )


def _train_required(cfg: RunConfig, command: str) -> dict:
    if cfg.train is None:
        raise ConfigError(f"config: '{command}' requires a train block")
    return cfg.train


# -- subcommands -------------------------------------------------------------


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(cfg: RunConfig, out_override: str | None = None) -> int:
    train_block = _train_required(cfg, "train")
    env = build_environment(cfg.environment)
    params0 = build_policy(cfg.policy)
    tcfg = build_train_config(train_block, env.state_dim)
    out = _out_dir(cfg, out_override)
    marker = out / INCOMPLETE_MARKER
    marker.touch()
    params, metrics = train(tcfg, env, params0)
    (out / "metrics.csv").write_text(metrics.to_csv())
    save_checkpoint(params, out / "checkpoint.json")
    if metrics.aborted_step is not None:
        print(f"train: aborted at outer step {metrics.aborted_step}; partial outputs in {out}", file=sys.stderr)
        return EXIT_RUNTIME
    marker.unlink()
    print(f"train: wrote {out / 'metrics.csv'} and {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_override: str | None = None) -> int:
    env = build_environment(cfg.environment)
    verify = cfg.verify
    if cfg.train is not None:
        tcfg = build_train_config(cfg.train, env.state_dim)
        pset, inner, reg = tcfg.pset, tcfg.inner, tcfg.reg
    else:
        pset = PerturbationSet(p=2.0, epsilon=0.5, dim=env.state_dim)
        inner = InnerLoopConfig(eta=0.1, steps=5)
        reg = RegularizerConfig(lam=0.0, gamma=1.0, gamma_adv=1.0)
    out = _out_dir(cfg, out_override)
    marker = out / INCOMPLETE_MARKER
    marker.touch()
    report, trajectories = verify_suite(
        env,
        cfg.policy["dims"],
        cfg.policy["activations"],
        pset,
        inner,
        reg,
        seeds=verify["seeds"],
        grid=verify["grid"],
        tol_curv_scale=verify["tol_curv_scale"],
        n_samples=verify["n_samples"],
        eta_safety=verify["eta_safety"],
        witness_dims=verify["witness_dims"],
    )
    with open(out / "verify_report.json", "w") as fp:
        json.dump(report, fp, indent=2)
        fp.write("\n")
    for seed, traj in trajectories.items():
        with open(out / f"trajectory_seed{seed}.jsonl", "w") as fp:
            dump_trajectory(traj, fp)
    marker.unlink()
    failed = [c for c in report["checks"] if not c["pass"]]
    print(
        f"verify: {len(report['checks'])} checks, {len(failed)} failed; report in {out / 'verify_report.json'}"
    )
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


def cmd_sweep(cfg: RunConfig, out_override: str | None = None) -> int:
    train_block = _train_required(cfg, "sweep")
    env = build_environment(cfg.environment)
    tcfg = build_train_config(train_block, env.state_dim)
    sweep = cfg.sweep
    out = _out_dir(cfg, out_override)
    marker = out / INCOMPLETE_MARKER
    marker.touch()
    report = price_of_robustness(
        env,
        tcfg,
        sweep["seeds"],
        cfg.policy["dims"],
        cfg.policy["activations"],
        eval_samples=sweep["eval_samples"],
        eval_seed=sweep["eval_seed"],
        achieved_samples=sweep["achieved_samples"],
        bisect_iters=sweep["bisect_iters"],
        match_tol=sweep["match_tol"],
    )
    report.dump(out / "gap_report.json")
    marker.unlink()
    print(
        f"sweep: gap estimates t_hat={report.t_hat:.6g} t_hat_ad={report.t_hat_ad:.6g} "
        f"(pooled se {report.pooled_se:.3g}); report in {out / 'gap_report.json'}"
    )
    return EXIT_OK


def cmd_report(directory) -> int:
    root = Path(directory)
    if not root.exists():
        raise ConfigError(f"report directory not found: {root}")
    metrics_files = sorted(root.rglob("metrics.csv"))
    verify_files = sorted(root.rglob("verify_report.json"))
    gap_files = sorted(root.rglob("gap_report.json"))
    if not metrics_files and not verify_files and not gap_files:
        raise ConfigError(f"no runs found under {root}")
    lines = [f"run summary for {root}"]
    for path in metrics_files:
        rows = path.read_text().strip().splitlines()
        if len(rows) < 2:
            lines.append(f"  {path}  (empty)")
            continue
        header = rows[0].split(",")
        last = rows[-1].split(",")
        fields = dict(zip(header, last))
        lines.append(
            f"  {path}  steps={len(rows) - 1}  final robust_loss={fields['robust_loss']}"
            f"  nominal_loss={fields['nominal_loss']}  grad_norm={fields['grad_norm']}"
        )
        if (path.parent / INCOMPLETE_MARKER).exists():
            lines.append(f"    WARNING: {path.parent} is marked incomplete")
    for path in verify_files:
        report = json.loads(path.read_text())
        checks = report.get("checks", [])
        failed = [c for c in checks if not c.get("pass", False)]
        lines.append(f"  {path}  checks={len(checks)}  failed={len(failed)}  all_pass={report.get('all_pass')}")
    for path in gap_files:
        report = json.loads(path.read_text())
        lines.append(
            f"  {path}  gamma={report['gamma']}  t_hat={report['t_hat']:.6g}"
            f"  t_hat_ad={report['t_hat_ad']:.6g}  pooled_se={report['pooled_se']:.3g}"
        )
    print("\n".join(lines))
    return EXIT_OK


def exit_code_from_verify_report(report: dict) -> int:
    """Stable scripting contract: nonzero iff any check failed."""
    return EXIT_OK if all(c["pass"] for c in report.get("checks", [])) else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aajrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (defaults to config output_dir)")
    p_report = sub.add_parser("report")
    p_report.add_argument("--out", required=True, help="directory containing prior run outputs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.out)
        cfg = parse_config(args.config)
        if args.command == "train":
            return cmd_train(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
