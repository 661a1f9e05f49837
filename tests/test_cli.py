"""Config parsing, subcommand outputs, and the exit-code contract."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from aajrlab import cli
from aajrlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    exit_code_from_verify_report,
    main,
    parse_config,
    parse_config_dict,
)
from aajrlab.errors import ConfigError
from aajrlab.policy import load_checkpoint

REPO = Path(__file__).resolve().parents[1]
QUAD_CONFIG = REPO / "configs" / "quadratic_small.json"
VERIFY_CONFIG = REPO / "configs" / "verify_linear.json"


def serialize_config(cfg) -> dict:
    """A parsed config back as a JSON-able dict."""
    out = {
        "environment": dict(cfg.environment),
        "policy": dict(cfg.policy),
        "verify": dict(cfg.verify),
        "sweep": dict(cfg.sweep),
        "output_dir": cfg.output_dir,
    }
    if cfg.train is not None:
        out["train"] = json.loads(json.dumps(cfg.train))
    return out


def minimal_config(**overrides):
    cfg = {
        "environment": {"kind": "quadratic_congestion", "state_dim": 2, "c": [0.5, -0.5]},
        "policy": {"dims": [2, 4, 2]},
        "train": {
            "mode": "nominal",
            "outer_lr": 0.05,
            "inner": {"eta": 0.3},
            "set": {"p": 2, "epsilon": 0.4},
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config_dict(minimal_config())
    assert cfg.environment["peer_mode"] == "independent"
    assert cfg.environment["A"] == [[0.0, 0.0], [0.0, 0.0]]
    assert cfg.policy["activations"] == ["tanh", "identity"]
    assert cfg.train["outer_steps"] == 100
    assert cfg.train["batch_size"] == 8
    assert cfg.train["inner"]["steps"] == 5
    assert cfg.train["inner"]["eps0"] == 1e-8
    assert cfg.train["reg"]["gamma"] == 1.0
    assert cfg.verify["grid"] == 5
    assert cfg.sweep["bisect_iters"] == 12


def test_zero_eta_names_field_path():
    cfg = minimal_config()
    cfg["train"]["inner"]["eta"] = 0
    with pytest.raises(ConfigError, match="train.inner.eta"):
        parse_config_dict(cfg)


def test_unknown_keys_rejected():
    cfg = minimal_config()
    cfg["train"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="unknown key 'momentum'"):
        parse_config_dict(cfg)
    cfg = minimal_config()
    cfg["extra"] = {}
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_config_dict(cfg)


def test_dimension_conflicts_named():
    cfg = minimal_config()
    cfg["policy"]["dims"] = [3, 4, 2]
    with pytest.raises(ConfigError, match="policy.dims"):
        parse_config_dict(cfg)


@pytest.mark.parametrize(
    "dims, message",
    [
        ([3, 4, 2], "policy.dims: first entry 3 must equal environment.state_dim 2"),
        ([2, 4, 3], "policy.dims: last entry 3 must equal len(environment.c) 2"),
    ],
)
def test_dimension_conflict_messages(dims, message):
    cfg = minimal_config()
    cfg["policy"]["dims"] = dims
    with pytest.raises(ConfigError) as info:
        parse_config_dict(cfg)
    assert str(info.value) == message


def test_verify_without_train_block_is_config_error(tmp_path, capsys):
    cfg = minimal_config()
    del cfg["train"]
    out = tmp_path / "out"
    assert main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: config: 'verify' requires a train block\n"
    assert not out.exists()


def test_negative_epsilon_rejected():
    cfg = minimal_config()
    cfg["train"]["set"]["epsilon"] = 0
    with pytest.raises(ConfigError, match="train.set.epsilon"):
        parse_config_dict(cfg)


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, minimal_config())
    cfg = parse_config(path)
    path2 = write_config(tmp_path, serialize_config(cfg), name="round.json")
    cfg2 = parse_config(path2)
    assert cfg == cfg2


def test_bundled_configs_parse():
    parse_config(QUAD_CONFIG)
    parse_config(VERIFY_CONFIG)
    parse_config(REPO / "configs" / "sweep_quadratic.json")
    parse_config(REPO / "configs" / "softplus_small.json")


def test_cmd_train_and_verify_softplus(tmp_path):
    cfg_path = REPO / "configs" / "softplus_small.json"
    out = tmp_path / "soft"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "checkpoint.json").exists()
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"] is True


def test_round_trip_softplus_with_projector(tmp_path):
    cfg = minimal_config()
    cfg["environment"] = {
        "kind": "softplus_congestion",
        "state_dim": 2,
        "c": [0.5, -0.5],
        "beta": 2.0,
        "peer_mode": "mirror",
    }
    path = write_config(tmp_path, cfg)
    parsed = parse_config(path)
    path2 = write_config(tmp_path, serialize_config(parsed), name="round.json")
    assert parse_config(path2) == parsed

    quad = minimal_config()
    quad["environment"]["projector"] = [[1.0, 0.0], [0.0, 0.0]]
    path3 = write_config(tmp_path, quad, name="proj.json")
    parsed3 = parse_config(path3)
    assert parsed3.environment["projector"] == [[1.0, 0.0], [0.0, 0.0]]
    bad = minimal_config()
    bad["environment"]["projector"] = [[0.5, 0.1], [0.3, 0.5]]
    with pytest.raises(ConfigError, match="projector"):
        parse_config_dict(bad)


def test_cmd_train_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--config", str(QUAD_CONFIG), "--out", str(out)])
    assert code == EXIT_OK
    csv_text = (out / "metrics.csv").read_text()
    rows = csv_text.strip().splitlines()
    steps = json.loads(QUAD_CONFIG.read_text())["train"]["outer_steps"]
    assert len(rows) == steps + 1
    assert not (out / ".incomplete").exists()
    params = load_checkpoint(out / "checkpoint.json")
    assert params.dims() == [2, 6, 2]


def test_cmd_train_reproducible_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(QUAD_CONFIG), "--out", str(out1)]) == EXIT_OK
    assert main(["train", "--config", str(QUAD_CONFIG), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


def test_cmd_verify_fresh_linear_policy_passes(tmp_path):
    out = tmp_path / "ver"
    code = main(["verify", "--config", str(VERIFY_CONFIG), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"] is True
    for check in report["checks"]:
        assert {"name", "seed", "pass", "margins", "constants"} <= set(check)
    seeds = json.loads(VERIFY_CONFIG.read_text())["verify"]["seeds"]
    for seed in seeds:
        lines = (out / f"trajectory_seed{seed}.jsonl").read_text().strip().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"t", "delta", "u", "v", "g", "grad_norm", "dir_amp"}


def test_cmd_sweep_smoke(tmp_path):
    cfg = minimal_config()
    cfg["train"]["outer_steps"] = 12
    cfg["train"]["batch_size"] = 3
    cfg["train"]["inner"]["steps"] = 2
    cfg["train"]["reg"] = {"gamma": 1000000.0}
    cfg["sweep"] = {"seeds": [0, 1, 2], "eval_samples": 30, "achieved_samples": 3}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "gap_report.json").read_text())
    assert report["t_hat"] == report["t_hat_ad"]  # identical runs when budget never binds
    assert len(report["per_seed"]) == 3


@pytest.mark.parametrize("tol", [1.0, 2.5])
def test_sweep_match_tol_at_or_above_one_is_config_error(tmp_path, capsys, tol):
    cfg = minimal_config()
    cfg["sweep"] = {"seeds": [0, 1, 2], "match_tol": tol}
    with pytest.raises(ConfigError, match=r"sweep.match_tol: must be in \(0, 1\)"):
        parse_config_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "sweep.match_tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "verify"])
def test_softplus_beta_whose_square_overflows_is_config_error(tmp_path, capsys, command):
    cfg = json.loads((REPO / "configs" / "softplus_small.json").read_text())
    cfg["environment"]["beta"] = 1e154
    parse_config_dict(cfg)  # beta^2 / 4 is finite: the config builds
    cfg["environment"]["beta"] = 1e155
    with pytest.raises(ConfigError, match=r"^environment\.beta: "):
        parse_config_dict(cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_CONFIG
    assert "environment.beta" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_report_aggregates(tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", str(QUAD_CONFIG), "--out", str(out)])
    assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "metrics.csv" in text and "steps=25" in text


def test_cmd_report_empty_directory_is_config_error(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "no runs found" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == EXIT_CONFIG
    zero_eta = minimal_config()
    zero_eta["train"]["inner"]["eta"] = 0
    path = write_config(tmp_path, zero_eta)
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_exit_code_runtime_on_divergence(tmp_path, capsys):
    cfg = minimal_config()
    cfg["policy"] = {"dims": [2, 2], "activations": ["identity"]}
    cfg["train"]["outer_lr"] = 1e12
    cfg["train"]["outer_steps"] = 40
    path = write_config(tmp_path, cfg)
    out = tmp_path / "div"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(path), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert (out / ".incomplete").exists()  # partial outputs stay flagged
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
    assert "marked incomplete" in capsys.readouterr().out


def test_exit_code_runtime_on_overflowing_update(tmp_path, capsys):
    cfg = json.loads(QUAD_CONFIG.read_text())
    cfg["environment"]["c"] = [50, -50]
    cfg["train"]["outer_lr"] = 1.7e308
    cfg["train"]["outer_steps"] = 3
    path = write_config(tmp_path, cfg)
    out = tmp_path / "overflow"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(path), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "aborted at outer step" in capsys.readouterr().err
    assert (out / ".incomplete").exists()
    assert (out / "metrics.csv").read_text().startswith("step,")
    params = load_checkpoint(out / "checkpoint.json")  # last finite parameters
    assert all(np.all(np.isfinite(layer.weight)) for layer in params.layers)


@pytest.mark.parametrize("entry", ["x", "0.5", None, {}, [1]])
@pytest.mark.parametrize("key", ["A", "projector"])
def test_non_numeric_matrix_entry_is_config_error(tmp_path, capsys, key, entry):
    cfg = minimal_config()
    cfg["environment"][key] = [[0.0, entry], [0.0, 0.0]]
    with pytest.raises(ConfigError, match=f"environment.{key}: expected a list of lists of numbers"):
        parse_config_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"environment.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", [10**30, 2**61])
def test_policy_dims_numpy_cannot_index_is_config_error(tmp_path, capsys, hidden):
    cfg = minimal_config(policy={"dims": [2, hidden, 2]})
    with pytest.raises(ConfigError, match="policy.dims: layer 0"):
        parse_config_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "policy.dims" in capsys.readouterr().err


def _set_outer_lr(cfg, x):
    cfg["train"]["outer_lr"] = x


def _set_c_entry(cfg, x):
    cfg["environment"]["c"] = [0.5, x]


def _set_A_entry(cfg, x):
    cfg["environment"]["A"] = [[0.0, x], [0.0, 0.0]]


@pytest.mark.parametrize(
    "field, setter",
    [("train.outer_lr", _set_outer_lr), ("environment.c", _set_c_entry), ("environment.A", _set_A_entry)],
)
@pytest.mark.parametrize("huge", [10**400, -(10**400)])
def test_integer_beyond_float_range_is_config_error(tmp_path, capsys, field, setter, huge):
    # one field per helper: a number, a list of numbers, a matrix
    cfg = minimal_config()
    setter(cfg, huge)
    with pytest.raises(ConfigError, match=f"{field}: must be finite"):
        parse_config_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{field}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [[2, 10**30], [2, 65], [65]])
def test_witness_dims_above_bound_is_config_error(tmp_path, capsys, dims):
    cfg = json.loads(VERIFY_CONFIG.read_text())
    cfg["verify"] = dict(cfg.get("verify", {}), witness_dims=dims)
    with pytest.raises(ConfigError, match="verify.witness_dims: entries must be <= 64"):
        parse_config_dict(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "verify.witness_dims" in capsys.readouterr().err
    assert not (out / ".incomplete").exists()


def test_witness_dims_at_bound_parses():
    cfg = json.loads(VERIFY_CONFIG.read_text())
    cfg["verify"] = dict(cfg.get("verify", {}), witness_dims=[2, 64])
    assert parse_config_dict(cfg).verify["witness_dims"] == [2, 64]


def _setting(cfg, dotted, value):
    """cfg with the value at a dotted key path, making any missing block."""
    *blocks, key = dotted.split(".")
    node = cfg
    for block in blocks:
        node = node.setdefault(block, {})
    node[key] = value
    return cfg


MIRROR_A = {"environment.peer_mode": "mirror", "environment.A": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
SOFTPLUS = {"environment.kind": "softplus_congestion", "environment.beta": 2.0}


# one bad value per rule reached through the config: (field path, {dotted key: value})
FIELD_RULES = [
    ("train.outer_lr", {"train.outer_lr": 0}),
    ("train.outer_steps", {"train.outer_steps": -1}),
    ("train.batch_size", {"train.batch_size": 0}),
    ("train.seed", {"train.seed": -1}),
    ("train.mode", {"train.mode": "adversarial"}),
    ("train.inner.eta", {"train.inner.eta": 0}),
    ("train.inner.steps", {"train.inner.steps": -1}),
    ("train.inner.eps0", {"train.inner.eps0": 0}),
    ("train.set.p", {"train.set.p": 3}),
    ("train.set.epsilon", {"train.set.epsilon": 0}),
    ("train.set.epsilon", {"train.set.epsilon": -0.5}),
    ("train.reg.lambda", {"train.reg.lambda": -1}),
    ("train.reg.gamma", {"train.reg.gamma": 0}),
    ("train.reg.gamma_adv", {"train.reg.gamma_adv": 0}),
    ("environment.kind", {"environment.kind": "linear_congestion"}),
    ("environment.state_dim", {"environment.state_dim": 0}),
    ("environment.seed", {"environment.seed": -1}),
    ("environment.c", {"environment.c": []}),
    ("environment.A", {"environment.A": [[0.0, 0.0]]}),
    ("environment.beta", {"environment.beta": 2.0}),
    ("environment.beta", {**SOFTPLUS, "environment.beta": 0}),
    ("environment.peer_mode", {"environment.peer_mode": "shared"}),
    ("environment.A", MIRROR_A),  # the mirror peer dimension
    ("environment.projector", {"environment.projector": [[0.5, 0.1], [0.3, 0.5]]}),
    ("environment.projector", {"environment.projector": [[1.0]]}),
    ("environment.projector", {**SOFTPLUS, "environment.projector": [[1.0, 0.0], [0.0, 0.0]]}),
    ("policy.dims", {"policy.dims": [2, 0, 2]}),
    ("policy.dims", {"policy.dims": [2, 4, 3]}),
    ("policy.activations", {"policy.activations": ["relu", "identity"]}),
    ("policy.activations", {"policy.activations": ["tanh", "tanh"]}),
    ("policy.activations", {"policy.activations": ["identity"]}),
    ("policy.init_seed", {"policy.init_seed": -1}),
    ("verify.seeds", {"verify.seeds": []}),
    ("verify.seeds", {"verify.seeds": [0, 0]}),
    ("verify.seeds", {"verify.seeds": [-1]}),
    ("verify.grid", {"verify.grid": 0}),
    ("verify.n_samples", {"verify.n_samples": 0}),
    ("verify.eta_safety", {"verify.eta_safety": 1.5}),
    ("verify.eta_safety", {"verify.eta_safety": 0}),
    ("verify.tol_curv_scale", {"verify.tol_curv_scale": 0}),
    ("verify.witness_dims", {"verify.witness_dims": [1]}),
    ("sweep.seeds", {"sweep.seeds": [0, 1]}),
    ("sweep.seeds", {"sweep.seeds": [0, 0, 0]}),
    ("sweep.seeds", {"sweep.seeds": [0, 1, -2]}),
    ("sweep.eval_samples", {"sweep.eval_samples": 0}),
    ("sweep.achieved_samples", {"sweep.achieved_samples": 0}),
    ("sweep.eval_seed", {"sweep.eval_seed": -1}),
    ("sweep.bisect_iters", {"sweep.bisect_iters": -1}),
    ("sweep.match_tol", {"sweep.match_tol": 0}),
]


@pytest.mark.parametrize("path, values", FIELD_RULES, ids=[f"{p}-{i}" for i, (p, _) in enumerate(FIELD_RULES)])
def test_config_error_starts_with_field_path(tmp_path, capsys, path, values):
    cfg = minimal_config()
    for dotted, value in values.items():
        _setting(cfg, dotted, value)
    with pytest.raises(ConfigError) as info:
        parse_config_dict(cfg)
    assert str(info.value).startswith(f"{path}: ")
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("verify_report.json", '{"checks": [{"name": "inclusion", "pass": tr'),
        ("metrics.csv", "step,nominal_loss\n0,0.5\n"),
        ("gap_report.json", '{"gamma": 1.0, "t_hat": 0.5}\n'),
    ],
)
def test_report_on_malformed_artifact_is_config_error_naming_the_file(tmp_path, capsys, name, text):
    path = tmp_path / "run" / name
    path.parent.mkdir()
    path.write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"configuration error: {path}: malformed artifact" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["init_policy", "train"])
def test_allocation_failure_is_runtime_error(tmp_path, capsys, monkeypatch, where):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, where, out_of_memory)
    out = tmp_path / "run"
    assert main(["train", "--config", str(QUAD_CONFIG), "--out", str(out)]) == EXIT_RUNTIME
    assert "runtime error: Unable to allocate" in capsys.readouterr().err
    # weights are built before the output directory; a failure inside the run leaves it marked
    assert (out / ".incomplete").exists() == (where == "train")


def test_legacy_power_iteration_keys_are_unknown(tmp_path, capsys):
    # power iteration is gone: spectral norms are exact, and a key that does nothing is no key
    cfg = json.loads(QUAD_CONFIG.read_text())
    cfg["train"]["reg"]["power_iters"] = 60
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_CONFIG
    assert "train.reg: unknown key 'power_iters'" in capsys.readouterr().err
    assert not out.exists()
    cfg = minimal_config()
    cfg["train"]["reg"] = {"power_tol": 1e-12}
    with pytest.raises(ConfigError, match="^train.reg: unknown key 'power_tol'$"):
        parse_config_dict(cfg)


def test_report_flags_every_artifact_of_a_directory_marked_incomplete(tmp_path, capsys):
    cfg = json.loads(QUAD_CONFIG.read_text())
    cfg["environment"]["c"] = [1e200, -1e200]
    runs, out = tmp_path / "runs", tmp_path / "runs" / "huge_c"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_RUNTIME
    assert (out / ".incomplete").exists() and (out / "metrics.csv").read_text().count("\n") == 1  # no step
    # a verify and a sweep report beside it read as if their runs had finished
    (out / "verify_report.json").write_text(json.dumps({"checks": [{"name": "x", "pass": True}], "all_pass": True}))
    gap = {"gamma": 1.0, "t_hat": 0.0, "t_hat_ad": 0.0, "pooled_se": 0.0}
    (out / "gap_report.json").write_text(json.dumps(gap))
    finished = runs / "finished"
    finished.mkdir()
    (finished / "gap_report.json").write_text(json.dumps(gap))
    capsys.readouterr()
    assert main(["report", "--out", str(runs)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for name in ("metrics.csv", "verify_report.json", "gap_report.json"):
        at = [k for k, line in enumerate(lines) if line.startswith(f"  {out / name}  ")]
        assert len(at) == 1 and lines[at[0] + 1] == f"    WARNING: {out} is marked incomplete", lines
    assert sum("WARNING" in line for line in lines) == 3
    assert f"  {out / 'metrics.csv'}  (empty)" in lines
    assert not any("unresolved=" in line for line in lines)  # only a count above zero is printed


def test_verify_step_below_the_objectives_rounding_is_unresolved(tmp_path, capsys):
    # at beta = 1e154 the softplus objective reads ~7e153 at every iterate: every gain is 0, below its rounding
    cfg = json.loads((REPO / "configs" / "softplus_small.json").read_text())
    cfg["environment"]["beta"] = 1e154
    out = tmp_path / "run"
    assert main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_CHECK_FAILED
    report = json.loads((out / "verify_report.json").read_text())
    stability = [c for c in report["checks"] if c["name"] == "pga_stability"]
    assert [c["seed"] for c in stability] == [0, 1, 2]
    for check in stability:
        assert check["status"] == "unresolved" and check["pass"] is False and check["margins"]["premise_ok"]
        violations = check["margins"]["violations"]
        assert violations and all(v["unresolved"] is True for v in violations)
    assert all(c["pass"] for c in report["checks"] if c["name"] != "pga_stability")
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith("failed=3  all_pass=False  unresolved=3")


def test_exit_code_contract_from_report():
    passing = {"checks": [{"name": "x", "pass": True}], "all_pass": True}
    failing = {"checks": [{"name": "x", "pass": True}, {"name": "y", "pass": False}], "all_pass": False}
    assert exit_code_from_verify_report(passing) == EXIT_OK
    assert exit_code_from_verify_report(failing) == EXIT_CHECK_FAILED
