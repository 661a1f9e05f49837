"""aajrlab benchmark: run one workload at one seed and report its metrics.

    python3 perfbench/run.py --workload train_modes --seed 0 --seconds 30 --trace 0

Each measurement is a fresh single-threaded child process, one at a time.
With ``--trace 0`` the end-to-end metrics are medians over the children of
this run; with ``--trace 1`` one untraced and two traced children give the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_REPEATS = 10
TIME_UNITS = {"s", "ms", "us"}
TIME_LIMIT_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


class SpeedProbe:
    """Samples the host's speed while a child runs.

    The speed of a shared host drifts, here by up to 2x within tens of
    seconds, and it slows all code alike. While waiting for a child, the
    parent times a fixed chunk of the operations aajrlab is made of (8x4
    matrix-vector products, tanh, a norm) every SAMPLE_PERIOD_S, in its own
    CPU time, on the other core. Over 2 s windows this tracked the speed of
    a busy process with correlation 0.98. Times are reported at the speed
    where one chunk takes CHUNK_REF_S.
    """

    CHUNK_ITERS = 3000
    CHUNK_REF_S = 0.02
    SAMPLE_PERIOD_S = 0.2

    def __init__(self):
        rng = np.random.default_rng(0)
        self.W, self.b, self.x = rng.uniform(-1.0, 1.0, (8, 4)), rng.uniform(-1.0, 1.0, 8), rng.uniform(-1.0, 1.0, 4)
        self.samples: list[tuple[float, float]] = []  # (monotonic time, chunk CPU seconds)

    def sample(self) -> None:
        t0, c0 = time.monotonic(), time.process_time()
        for _ in range(self.CHUNK_ITERS):
            h = np.tanh(self.W @ self.x + self.b)
            float(np.linalg.norm(self.W.T @ (1.0 - h * h)))
        self.samples.append((0.5 * (t0 + time.monotonic()), time.process_time() - c0))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean chunk time over [t0, t1] (else the nearest sample) / CHUNK_REF_S."""
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        if not inside:
            mid = 0.5 * (t0 + t1)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.mean(inside) / self.CHUNK_REF_S


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, workload: str, cfgs: dict, work: Path, deadline: float):
        self.workload = workload
        self.cfgs = cfgs
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.probe = SpeedProbe()
        # With two CPUs, children run on one and the probe on another, so the
        # probe can sample while a child runs without taking its CPU.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.child_cpu = self.cpus[-1] if len(self.cpus) > 1 else None
        if self.child_cpu is not None:
            os.sched_setaffinity(0, {self.cpus[0]})
        self.n = 0

    def child(self, *, out: Path | None = None, trace: int = 0) -> dict:
        """Run one child to its end; its result carries the slowdowns of its phases."""
        self.n += 1
        result = self.work / f"child{self.n}.json"
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload",
            self.workload,
            "--configs",
            str(self.work / "configs"),
            "--result",
            str(result),
            "--trace",
            str(trace),
        ]
        if out is not None:
            cmd += ["--out", str(out)]
        if self.child_cpu is not None:
            cmd += ["--cpu", str(self.child_cpu)]
        else:
            self.probe.sample()
        began = time.monotonic()
        if began >= self.deadline:
            raise BenchError("time limit reached before all children ran")
        with open(self.work / f"child{self.n}.log", "w") as log:
            proc = subprocess.Popen(
                cmd + ["--spawned-at", repr(began)], cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            try:
                while True:
                    if self.child_cpu is not None:
                        self.probe.sample()
                    try:
                        proc.wait(timeout=self.probe.SAMPLE_PERIOD_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() > self.deadline:
                            raise BenchError(f"child {self.n} passed the time limit") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"child {self.n} exited with {proc.returncode}; see {log.name}")
        self.last_elapsed = time.monotonic() - began
        if self.child_cpu is None:
            self.probe.sample()
        res = json.loads(result.read_text())
        res["spans_file"] = result.with_suffix(".spans.npz")
        res["setup_slowdown"] = self.probe.slowdown(began, res["setup_end"])
        if out is not None:
            res["work_slowdown"] = self.probe.slowdown(res["work_start"], res["work_end"])
        return res

    def fits_another(self) -> bool:
        """Whether one more child like the last one ends well before the deadline."""
        return time.monotonic() + 1.25 * self.last_elapsed < self.deadline

    def execute(self, trace: int = 0) -> dict:
        """One child that sets up and runs the work phase, plus its output checks."""
        out = self.work / f"out{self.n + 1}"
        res = self.child(out=out, trace=trace)
        res["check"] = workloads.check(self.workload, self.cfgs, out, res["exit_codes"])
        res["digests"] = workloads.digests(out)
        res["out"] = out
        return res


def measure(runner: Runner, seconds: int) -> tuple[dict, dict, list[dict]]:
    """(metrics at reference speed, the same unscaled, executions)."""
    setups = [runner.child() for _ in range(SETUP_REPEATS)]
    execs = []
    start = time.monotonic()
    # Stop at the execution boundary nearest to ``seconds``.
    while not execs or time.monotonic() - start + runner.last_elapsed / 2 < seconds:
        execs.append(runner.execute())
    scaled, raw = {}, {}
    for key, children, speed in (
        ("setup_s", setups + execs, "setup_slowdown"),
        ("wall_s", execs, "work_slowdown"),
        ("cpu_s", execs, "work_slowdown"),
    ):
        scaled[key] = statistics.median(c[key] / c[speed] for c in children)
        raw[key] = statistics.median(c[key] for c in children)
    scaled["peak_rss_mb"] = raw["peak_rss_mb"] = statistics.median(e["peak_rss_mb"] for e in execs)
    raw["slowdown"] = statistics.median(e["work_slowdown"] for e in execs)
    return scaled, raw, execs


def trace_checks(workload: str, traced: list[dict]) -> list[str]:
    """Self-checks that the wrapping caught the calls; returns the problems."""
    problems = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for key in ("calls", "counts"):
            a, b = traced[0][key], other[key]
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            if diff:
                problems.append(f"{key} differ between traced executions: {', '.join(diff)}")
    for key in ("tape.nodes", "policy.param_gradient.calls"):
        if (workload == "verify_certs") != (first[key] == 0):
            problems.append(f"{key} = {first[key]} is unexpected on {workload}")
    return problems


def trace(runner: Runner) -> tuple[dict, dict, list[dict], list[str]]:
    """(per-layer metrics, slowdowns, executions: untraced then traced, notes)."""
    untraced = runner.execute()
    traced = [runner.execute(trace=1)]
    notes = []
    if runner.fits_another():
        traced.append(runner.execute(trace=1))
    else:
        notes.append("second traced execution skipped: it would not end within the time limit")
    first = traced[0]
    units = dict(spans.PER_LAYER)
    speed = first["work_slowdown"]
    layers = {k: v / speed if units[k] in TIME_UNITS else v for k, v in first["layers"].items()}
    layers["trace.overhead_s"] = first["wall_s"] / speed - untraced["wall_s"] / untraced["work_slowdown"]
    layers["trainer.sweep.matched_ratio"] = first["check"]["matched_ratio"]
    raw = {"slowdown": speed, "untraced_slowdown": untraced["work_slowdown"]}
    return layers, raw, [untraced] + traced, notes


def run(args) -> dict:
    began = time.monotonic()
    if not (ROOT / "src" / "aajrlab" / "__init__.py").is_file():
        raise BenchError(f"no aajrlab sources under {ROOT / 'src'}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = workloads.write_configs(args.workload, args.seed, work / "configs")
    cfgs = {p.stem: json.loads(p.read_text()) for p in paths}
    runner = Runner(args.workload, cfgs, work, began + TIME_LIMIT_S)
    environment = runner.child()["environment"]  # warm-up: bytecode caches, import check
    environment["nproc"] = len(runner.cpus)

    if args.trace:
        values, raw, execs, notes = trace(runner)
        problems = trace_checks(args.workload, execs[1:])
        units = dict(spans.PER_LAYER)
    else:
        values, raw, execs = measure(runner, args.seconds)
        problems, notes = [], []
        units = dict(END_TO_END)

    attempted = sum(e["check"]["attempted"] for e in execs)
    failed = sum(e["check"]["failed"] for e in execs)
    problems += [p for e in execs for p in e["check"]["broken"]]
    reference = execs[0]["digests"]
    for k, e in enumerate(execs[1:], start=2):  # each comparison is one operation
        attempted += 1
        if e["digests"] != reference:
            failed += 1
            problems.append(f"artifacts of execution {k} differ from execution 1")
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "executions": len(execs),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "correct": not problems,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "unscaled": raw,
        "per_execution": [
            {k: e[k] for k in ("setup_s", "wall_s", "cpu_s", "setup_slowdown", "work_slowdown")} for e in execs
        ],
        "artifacts": reference,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    # Keep the outputs of the first execution and the spans of the first traced one.
    for e in execs[1:]:
        shutil.rmtree(e["out"])
    for e in execs[2:]:
        e["spans_file"].unlink(missing_ok=True)
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: {report['why']}")
    print(
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} threads={env['blas_threads']}"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in report["unscaled"].items()))
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  {'failed_ratio':<48} {ratio:>14.6g} ratio ({report['failed']} of {report['attempted']} operations)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    for note in report["notes"]:
        print(f"  note: {note}")
    for path, digest in report["artifacts"].items():
        print(f"  sha256 {digest}  {path}")
    print(f"verdict: {'correct' if report['correct'] else 'INCORRECT'} over {report['executions']} executions")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
