"""Command-line entry point: train / verify / sweep / report.

A run is described by a strict JSON config; flags only pick the subcommand,
the config and the output directory. One loader reads the config against
one table, ``SCHEMA``, checking keys, JSON kinds, finite numbers and
defaults. Range and domain rules live in the library constructors and
validators, which the loader runs, with the field path put in front of
their messages; only rules of the command line alone are checked here.
Policy weights are built by the commands, never by the parser.

Exit codes: 0 success, 1 verification check failure, 2 configuration error
or a malformed artifact under ``report``, 3 runtime, numeric or allocation
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environments import Environment, check_dims
from .errors import ConfigError, NumericError
from .inner import InnerLoopConfig, PerturbationSet, dump_trajectory
from .policy import PolicyParams, init_policy, policy_spec, save_checkpoint
from .regularizers import RegularizerConfig
from .trainer import TrainConfig, check_sweep, price_of_robustness, train
from .verification import check_verify, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

INCOMPLETE_MARKER = ".incomplete"


@dataclass
class RunConfig:
    """Validated, plain-python mirror of the JSON config file."""

    environment: dict
    policy: dict
    train: dict | None = None
    verify: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "runs"


# -- the config: one schema, one loader ----------------------------------------

# A JSON kind is float (a number), int, str or bool, [kind] for a list of that
# kind, or object for any value, which its library constructor checks.
REQUIRED = object()
KIND_NAMES = {float: "number", int: "integer", str: "string", bool: "boolean"}

# key -> (JSON kind or the schema of an object, default); a None default leaves the key out
SCHEMA = {
    "environment": ({
        "kind": (str, REQUIRED),
        "state_dim": (int, REQUIRED),
        "c": ([float], REQUIRED),
        "A": ([[float]], None),  # zeros, (len(c), len(c))
        "beta": (float, None),
        "seed": (int, 0),
        "peer_mode": (str, "independent"),
        "projector": ([[float]], None),
    }, REQUIRED),
    "policy": ({"dims": ([int], REQUIRED), "activations": ([str], None), "init_seed": (int, 0)}, REQUIRED),
    "train": ({
        "mode": (str, REQUIRED),
        "outer_lr": (float, REQUIRED),
        "outer_steps": (int, 100),
        "batch_size": (int, 8),
        "seed": (int, 0),
        "inner": ({"eta": (float, REQUIRED), "steps": (int, 5), "eps0": (float, 1e-8)}, REQUIRED),
        "set": ({"p": (object, REQUIRED), "epsilon": (float, REQUIRED)}, REQUIRED),
        "reg": ({
            "lambda": (float, 0.0),
            "gamma": (float, 1.0),
            "gamma_adv": (float, None),  # gamma
            "aajr_hinge": (bool, False),
        }, {}),
    }, None),
    "verify": ({
        "seeds": ([int], [0, 1, 2, 3, 4]),
        "grid": (int, 5),
        "n_samples": (int, 10),
        "eta_safety": (float, 0.9),
        "tol_curv_scale": (float, 1e-4),
        "witness_dims": ([int], [2, 4]),
    }, {}),
    "sweep": ({
        "seeds": ([int], [0, 1, 2, 3, 4]),
        "eval_samples": (int, 200),
        "eval_seed": (int, 10000),
        "achieved_samples": (int, 20),
        "bisect_iters": (int, 12),
        "match_tol": (float, 0.05),
    }, {}),
    "output_dir": (str, "runs"),
}


def _load(raw, schema: dict, path: str) -> dict:
    """A JSON object read against its schema: no unknown key, every required
    key, values of their JSON kind, and defaults for the keys left out."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{where}: unknown key '{key}'")
    out = {}
    for key, (kind, default) in schema.items():
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"{where}: missing required key '{key}'")
        if key in raw or default is not None:
            value, name = raw.get(key, default), f"{path}.{key}" if path else key
            out[key] = _load(value, kind, name) if isinstance(kind, dict) else _read(value, kind, name)
    return out


def _fits(x, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(x, list) and all(_fits(v, kind[0]) for v in x)
    # a JSON number may be written as an integer, and a JSON boolean is no number
    types = (int, float) if kind is float else kind
    return kind is object or isinstance(x, bool) == (kind is bool) and isinstance(x, types)


def _expected(kind, plural: bool = False) -> str:
    """'an integer', 'a list of numbers', 'a list of lists of numbers', ..."""
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _expected(kind[0], plural=True)
    name = KIND_NAMES[kind]
    return name + "s" if plural else ("an " if name == "integer" else "a ") + name


def _read(value, kind, path: str):
    """A fresh copy of a JSON value of the given kind, every number a finite float."""
    if not _fits(value, kind):
        raise ConfigError(f"{path}: expected {_expected(kind)}")
    if kind == [[float]] and len({len(row) for row in value}) > 1:
        raise ConfigError(f"{path}: rows must all have the same length")
    if kind not in (float, [float], [[float]]):
        return list(value) if isinstance(value, list) else value
    try:
        floats = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        floats = np.array(math.inf)
    if not np.all(np.isfinite(floats)):
        raise ConfigError(f"{path}: must be finite")
    return floats.tolist()


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the block path in front of a ConfigError:
    ``train.inner`` and ``eta: ...`` give ``train.inner.eta: ...``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}{'.' if exc.field else ': '}{exc}") from None


def parse_config_dict(raw: dict) -> RunConfig:
    cfg = _load(raw, SCHEMA, "")
    env, policy, train_block, verify = cfg["environment"], cfg["policy"], cfg.get("train"), cfg["verify"]
    m = len(env["c"])
    env.setdefault("A", [[0.0] * m for _ in range(m)])
    environment = build_environment(env)
    dims, policy["activations"] = _built("policy", policy_spec, **policy)
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        # numpy refuses arrays whose byte size does not fit its index type
        if n_in * n_out * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
            raise ConfigError(f"policy.dims: layer {i} ({n_out}x{n_in} weights) is larger than numpy can index")
    _built("policy", check_dims, environment, dims)
    if train_block is not None:
        train_block["reg"].setdefault("gamma_adv", train_block["reg"]["gamma"])
        pset = build_train_config(train_block, environment.state_dim).pset
        train_block["set"]["p"] = "inf" if pset.p == math.inf else 2
    # a rule of the command line alone: the library allows epsilon = 0
    if train_block is not None and not train_block["set"]["epsilon"] > 0:
        raise ConfigError("train.set.epsilon: must be > 0")
    _built("verify", check_verify, **verify)
    _built("sweep", check_sweep, **cfg["sweep"])
    return RunConfig(**cfg)


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
    return _built("environment", Environment, **block)


def build_policy(block: dict) -> PolicyParams:
    return init_policy(block["dims"], block["activations"], seed=block["init_seed"])


def build_train_config(block: dict, state_dim: int) -> TrainConfig:
    reg = dict(block["reg"])
    return _built(
        "train",
        TrainConfig,
        **{key: block[key] for key in ("mode", "outer_lr", "outer_steps", "batch_size", "seed")},
        inner=_built("train.inner", InnerLoopConfig, **block["inner"]),
        pset=_built("train.set", PerturbationSet, dim=state_dim, **block["set"]),
        reg=_built("train.reg", RegularizerConfig, lam=reg.pop("lambda"), **reg),
    )


def _train_setup(cfg: RunConfig, command: str) -> tuple[Environment, TrainConfig]:
    if cfg.train is None:
        raise ConfigError(f"config: '{command}' requires a train block")
    env = build_environment(cfg.environment)
    return env, build_train_config(cfg.train, env.state_dim)


# -- subcommands -------------------------------------------------------------


def _run_in_out_dir(cfg: RunConfig, override: str | None, work) -> int:
    """``work(out)`` in the output directory, which stays marked incomplete
    when work raises or returns EXIT_RUNTIME."""
    out = Path(override or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / INCOMPLETE_MARKER).touch()
    code = work(out)
    if code != EXIT_RUNTIME:
        (out / INCOMPLETE_MARKER).unlink()
    return code


def cmd_train(cfg: RunConfig, out_override: str | None = None) -> int:
    env, tcfg = _train_setup(cfg, "train")
    params0 = build_policy(cfg.policy)

    def work(out: Path) -> int:
        params, metrics = train(tcfg, env, params0)
        (out / "metrics.csv").write_text(metrics.to_csv())
        save_checkpoint(params, out / "checkpoint.json")
        if metrics.aborted_step is not None:
            print(f"train: aborted at outer step {metrics.aborted_step}; partial outputs in {out}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"train: wrote {out / 'metrics.csv'} and {out / 'checkpoint.json'}")
        return EXIT_OK

    return _run_in_out_dir(cfg, out_override, work)


def cmd_verify(cfg: RunConfig, out_override: str | None = None) -> int:
    env, tcfg = _train_setup(cfg, "verify")

    def work(out: Path) -> int:
        policy = cfg.policy
        report, trajectories = verify_suite(
            env, policy["dims"], policy["activations"], tcfg.pset, tcfg.inner, tcfg.reg, **cfg.verify
        )
        with open(out / "verify_report.json", "w") as fp:
            json.dump(report, fp, indent=2)
            fp.write("\n")
        for seed, traj in trajectories.items():
            with open(out / f"trajectory_seed{seed}.jsonl", "w") as fp:
                dump_trajectory(traj, fp)
        failed = [c for c in report["checks"] if not c["pass"]]
        print(
            f"verify: {len(report['checks'])} checks, {len(failed)} failed; report in {out / 'verify_report.json'}"
        )
        return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED

    return _run_in_out_dir(cfg, out_override, work)


def cmd_sweep(cfg: RunConfig, out_override: str | None = None) -> int:
    env, tcfg = _train_setup(cfg, "sweep")

    def work(out: Path) -> int:
        policy = cfg.policy
        report = price_of_robustness(
            env, tcfg, policy_dims=policy["dims"], activations=policy["activations"], **cfg.sweep
        )
        report.dump(out / "gap_report.json")
        print(
            f"sweep: gap estimates t_hat={report.t_hat:.6g} t_hat_ad={report.t_hat_ad:.6g} "
            f"(pooled se {report.pooled_se:.3g}); report in {out / 'gap_report.json'}"
        )
        return EXIT_OK

    return _run_in_out_dir(cfg, out_override, work)


def _summary(path: Path) -> list[str]:
    """The report lines of one artifact."""
    if path.name == "metrics.csv":
        rows = path.read_text().strip().splitlines()
        if len(rows) < 2:
            return [f"  {path}  (empty)"]
        fields = dict(zip(rows[0].split(","), rows[-1].split(",")))
        return [
            f"  {path}  steps={len(rows) - 1}  final robust_loss={fields['robust_loss']}"
            f"  nominal_loss={fields['nominal_loss']}  grad_norm={fields['grad_norm']}"
        ]
    report = json.loads(path.read_text())
    if path.name == "gap_report.json":
        return [
            f"  {path}  gamma={report['gamma']}  t_hat={report['t_hat']:.6g}"
            f"  t_hat_ad={report['t_hat_ad']:.6g}  pooled_se={report['pooled_se']:.3g}"
        ]
    checks = report.get("checks", [])
    failed = [c for c in checks if not c.get("pass", False)]
    unresolved = sum(c.get("status") == "unresolved" for c in checks)
    line = f"  {path}  checks={len(checks)}  failed={len(failed)}  all_pass={report.get('all_pass')}"
    return [line + (f"  unresolved={unresolved}" if unresolved else "")]


def cmd_report(directory) -> int:
    """Print a summary of every artifact under ``directory``; a malformed
    artifact is a ConfigError that names its file."""
    root = Path(directory)
    if not root.exists():
        raise ConfigError(f"report directory not found: {root}")
    names = ("metrics.csv", "verify_report.json", "gap_report.json")
    paths = [path for name in names for path in sorted(root.rglob(name))]
    if not paths:
        raise ConfigError(f"no runs found under {root}")
    lines = [f"run summary for {root}"]
    for path in paths:
        try:
            lines += _summary(path)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc
        if (path.parent / INCOMPLETE_MARKER).exists():
            lines.append(f"    WARNING: {path.parent} is marked incomplete")
    print("\n".join(lines))
    return EXIT_OK


def exit_code_from_verify_report(report: dict) -> int:
    """Stable scripting contract: nonzero iff any check failed."""
    return EXIT_OK if all(c["pass"] for c in report.get("checks", [])) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aajrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (defaults to config output_dir)")
    sub.add_parser("report").add_argument("--out", required=True, help="directory containing prior run outputs")
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.out)
        command = {"train": cmd_train, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
        return command(parse_config(args.config), args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, MemoryError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
