"""Tests of the benchmark's own arithmetic and config generation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Hand-built trace (times in seconds):
#   0 trainer.train          0 .. 10
#   1   inner.pga_run        1 .. 4
#   2     policy.jvp         2 .. 3
#   3   policy.param_gradient 5 .. 9
#   4     tape.backward      6 .. 8
#   5   policy.forward       9.5 .. 9.75   (diagnostics: counts as train other time)
NAMES = ["trainer.train", "inner.pga_run", "policy.jvp", "policy.param_gradient", "tape.backward", "policy.forward"]
NAME = [0, 1, 2, 3, 4, 5]
PARENT = [-1, 0, 1, 0, 3, 0]
START = [0.0, 1.0, 2.0, 5.0, 6.0, 9.5]
END = [10.0, 4.0, 3.0, 9.0, 8.0, 9.75]


def table(**kw):
    return spans.SpanTable(NAMES, NAME, PARENT, START, END, **kw)


def test_percentile_interpolates_like_numpy():
    vals = [4.0, 1.0, 3.0, 2.0]
    for q in (0, 25, 50, 90, 100):
        assert spans.percentile(vals, q) == pytest.approx(np.percentile(vals, q))
    assert spans.percentile([7.0], 50) == 7.0
    assert spans.percentile([], 50) == 0.0


def test_self_time_subtracts_direct_children_only():
    dur = spans.durations(START, END)
    np.testing.assert_allclose(spans.self_time(PARENT, dur), [10 - 3 - 4 - 0.25, 3 - 1, 1, 4 - 2, 2, 0.25])
    np.testing.assert_allclose(spans.child_time(PARENT, dur), [7.25, 1, 0, 2, 0, 0])


def test_under_follows_every_ancestor():
    assert spans.under(NAME, PARENT, 0).tolist() == [False, True, True, True, True, True]
    assert spans.under(NAME, PARENT, 1).tolist() == [False, False, True, False, False, False]
    assert spans.under(NAME, PARENT, 2).tolist() == [False] * 6
    assert spans.under([], [], 0).tolist() == []


def test_span_table_sums_and_nesting():
    t = table()
    assert t.calls("policy.jvp") == 1 and t.calls("missing") == 0
    assert t.total("trainer.train") == 10.0
    assert t.self_total("policy.param_gradient") == 2.0
    assert t.child_total("trainer.train", ("inner.pga_run", "policy.param_gradient")) == 7.0
    assert t.child_total("trainer.train", ("policy.jvp",)) == 0.0  # a grandchild, not a child
    assert t.calls_under("policy.jvp", "inner.pga_run") == 1
    assert t.calls_under("policy.jvp", "policy.param_gradient") == 0


def test_p50_splits_by_shape_tag():
    t = spans.SpanTable(
        ["policy.forward"],
        [0, 0, 0],
        [-1, -1, -1],
        [0.0, 0.0, 0.0],
        [1.0, 2.0, 4.0],
        tag=[0, 1, 1],
        tags=["2-6-2", "4-8-4/robust_aajr"],
    )
    assert t.p50("policy.forward") == 2.0
    assert t.p50("policy.forward", "2-6-2") == 1.0
    assert t.p50("policy.forward", "4-8-4") == 3.0
    assert t.p50("policy.forward", "3-6-3") == 0.0


def test_layer_metrics_on_hand_built_trace():
    counts = {"tape.nodes": 30, "trainer.train.outer_steps": 3, "inner.steps": 4, "inner.steps_moved": 3}
    m = spans.layer_metrics(table(), counts)
    assert set(m) == {name for name, _ in spans.PER_LAYER} - {"trace.overhead_s", "trainer.sweep.matched_ratio"}
    assert m["trainer.train.calls"] == 1
    assert m["trainer.train.other_s"] == pytest.approx(10 - 3 - 4)
    assert m["trainer.diagnostics_share"] == pytest.approx(0.3)
    assert m["policy.param_gradient.self_s"] == pytest.approx(2.0)
    assert m["tape.nodes_per_step"] == 10.0
    assert m["inner.steps_moved_ratio"] == 0.75
    assert m["inner.projection_active_ratio"] == 0.0
    assert m["trainer.sweep.bisection_runs"] == 0


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()
    inner = tracer.span_wrapper(lambda x: x + 1, "inner")
    outer = tracer.span_wrapper(lambda x: inner(inner(x)), "outer")
    counted = tracer.count_wrapper(lambda: None, "env.loss")
    assert outer(1) == 3
    counted()
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert np.all(a["end"] >= a["start"])
    assert tracer.counts == {"env.loss.calls": 1}
    with pytest.raises(ZeroDivisionError):
        tracer.span_wrapper(lambda: 1 / 0, "boom")()
    assert tracer._stack == [-1]


def test_install_rebinds_names_imported_by_other_modules(tmp_path):
    # A fresh interpreter keeps the wrapping out of this test process.
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
import aajrlab, spans
from aajrlab import environments, inner, policy
tracer = spans.Tracer()
spans.install(tracer, aajrlab)
env = environments.Environment(kind="quadratic_congestion", c=[0.1, 0.2], A=[[0.0, 0.0], [0.0, 0.0]], state_dim=2)
params = policy.init_policy([2, 3, 2], seed=0)
pset = inner.PerturbationSet(p=2, epsilon=0.3, dim=2)
aajrlab.pga_run(params, [0.5, -0.5], [0.0, 0.0], env, pset, inner.InnerLoopConfig(eta=0.3, steps=2))
t = spans.SpanTable(tracer.names, tags=tracer.tags, **tracer.arrays())
print(json.dumps({{"pga": t.calls("inner.pga_run"), "jvp": t.calls_under("policy.jvp", "inner.pga_run"),
    "vjp": t.calls("policy.vjp"), "counts": tracer.counts, "tags": tracer.tags}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["pga"] == 1
    assert got["jvp"] == 2  # one per ascent step, reached through inner's own import
    assert got["vjp"] == 3  # one per inner gradient, K + 1
    assert got["counts"]["environments.loss.calls"] == 3
    assert got["counts"]["inner.project.calls"] == 2
    assert got["counts"]["tape.nodes"] == 0
    assert got["tags"] == ["2-3-2"]


def _shipped(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


@pytest.mark.parametrize(
    "template, shipped",
    [(workloads.MIRROR4, "sweep_quadratic"), (workloads.QUADRATIC_SMALL, "quadratic_small"), (workloads.SOFTPLUS_SMALL, "softplus_small")],
)
def test_templates_match_shipped_configs(template, shipped):
    cfg = _shipped(shipped)
    for block in ("environment", "policy", "train"):
        assert template[block] == cfg[block]


def test_default_seed_reproduces_shipped_seeds():
    train = workloads.make_configs("train_modes", 0)
    sweep = workloads.make_configs("sweep_matched", 0)
    verify = workloads.make_configs("verify_certs", 0)
    first = [cfg for name, cfg in train.items() if name.endswith("_0")]
    for cfg in first + list(sweep.values()) + list(verify.values()):
        assert cfg["environment"]["seed"] == 0
        assert cfg["policy"]["init_seed"] == 0
        assert cfg["train"]["seed"] == 0
    assert sweep["mirror4_sweep"]["sweep"]["seeds"] == _shipped("sweep_quadratic")["sweep"]["seeds"][:3]
    assert sweep["mirror4_sweep"]["sweep"]["eval_seed"] == 10000
    assert verify["softplus_small_verify"]["verify"]["seeds"][:3] == _shipped("softplus_small")["verify"]["seeds"]


def test_configs_for_a_seed_are_deterministic_and_valid(tmp_path):
    from aajrlab import cli

    for workload in workloads.WORKLOADS:
        a = workloads.make_configs(workload, 5)
        assert a == workloads.make_configs(workload, 5)
        assert a != workloads.make_configs(workload, 6)
        paths = workloads.write_configs(workload, 5, tmp_path / workload)
        assert [p.stem for p in paths] == list(a)
        for path in paths:
            cli.parse_config(path)
    train = workloads.make_configs("train_modes", 5)
    assert len(train) == 5 * workloads.TRAIN_SEEDS
    assert sorted({c["policy"]["init_seed"] for c in train.values()}) == list(range(30, 36))
    modes = [c["train"]["mode"] for c in train.values()][:5]
    assert modes == ["nominal", "robust_aajr", "robust_global", "robust_aajr", "robust_global"]
    sweep = workloads.make_configs("sweep_matched", 5)["mirror4_sweep"]
    assert sweep["sweep"]["seeds"] == [0, 1, 2] and sweep["sweep"]["eval_seed"] == 10005
    assert sweep["train"]["outer_steps"] == workloads.SWEEP_STEPS
    verify = workloads.make_configs("verify_certs", 1)["mirror4_verify"]["verify"]
    assert verify["seeds"] == list(range(24, 48))
    with pytest.raises(ValueError):
        workloads.make_configs("train_modes", -1)


def _write_report(directory: Path, name: str, payload: dict):
    (directory / name).mkdir(parents=True)
    (directory / name / "gap_report.json").write_text(json.dumps(payload))


def test_sweep_check_counts_an_unmatched_budget_as_failed(tmp_path):
    cfgs = workloads.make_configs("sweep_matched", 0)
    entry = {
        "seed": 0,
        "robust_global": {"achieved_spectral": 1.01},
        "robust_aajr": {"achieved_dir_amp": 0.80},
    }
    report = {"gamma": 1.0, "t_hat": 0.1, "t_hat_ad": 0.1, "pooled_se": 0.01, "excluded": [], "per_seed": [entry] * 3}
    _write_report(tmp_path, "mirror4_sweep", report)
    got = workloads.check("sweep_matched", cfgs, tmp_path, {"mirror4_sweep": 0})
    assert got == {"attempted": 1, "failed": 1, "broken": [], "matched_ratio": 0.5}
    got = workloads.check("sweep_matched", cfgs, tmp_path, {"mirror4_sweep": 3})
    assert got["failed"] == 1 and got["broken"] == ["mirror4_sweep: exit code 3, no gap_report.json"]


def test_verify_check_counts_each_failed_check(tmp_path):
    cfgs = workloads.make_configs("verify_certs", 0)
    for name in cfgs:
        (tmp_path / name).mkdir()
        checks = [{"pass": True}, {"pass": name == "mirror4_verify"}]
        (tmp_path / name / "verify_report.json").write_text(json.dumps({"checks": checks}))
    got = workloads.check("verify_certs", cfgs, tmp_path, {name: 0 for name in cfgs})
    assert got["attempted"] == 4 and got["failed"] == 1 and got["broken"] == []


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


def test_train_check_flags_aborted_and_non_finite_runs(tmp_path):
    cfgs = workloads.make_configs("train_modes", 0)
    for k, (name, cfg) in enumerate(cfgs.items()):
        (tmp_path / name).mkdir()
        rows = ["step,robust_loss"] + [f"{i},{'nan' if k == 1 else 0.5}" for i in range(cfg["train"]["outer_steps"])]
        (tmp_path / name / "metrics.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / name / "checkpoint.json").write_text("{}")
    codes = {name: 3 if k == 2 else 0 for k, name in enumerate(cfgs)}
    got = workloads.check("train_modes", cfgs, tmp_path, codes)
    assert got["attempted"] == len(cfgs) and got["failed"] == 2
    assert got["broken"] == [
        "mirror4_robust_aajr_0: non-finite value in metrics.csv",
        "mirror4_robust_global_0: exit code 3, run aborted",
    ]
