"""One measured process: set up a workload, optionally run it, report.

Set-up is importing aajrlab and parsing and building every config of the
workload; set-up time counts from the moment the parent started this
process. The work phase runs the workload's aajrlab commands. Results go
to a JSON file named by ``--result``; a traced run also writes its spans
next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--configs", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float, help="parent's time.monotonic() at spawn")
    parser.add_argument("--out", type=Path, default=None, help="run the work phase, writing artifacts here")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import aajrlab
    from aajrlab import cli

    source = Path(aajrlab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"aajrlab imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, aajrlab)

    cfgs = {}
    for path in sorted(args.configs.glob("*.json")):
        cfg = cli.parse_config(path)
        env = cli.build_environment(cfg.environment)
        cli.build_policy(cfg.policy)
        if cfg.train is not None:
            cli.build_train_config(cfg.train, env.state_dim)
        cfgs[path.stem] = cfg
    result = {"setup_end": time.monotonic()}
    result["setup_s"] = result["setup_end"] - args.spawned_at

    if args.out is not None:
        cpu0 = time.process_time()
        result["work_start"] = time.monotonic()
        result["exit_codes"] = workloads.run(args.workload, cfgs, args.out, cli)
        result["work_end"] = time.monotonic()
        result["wall_s"] = result["work_end"] - result["work_start"]
        result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment_info()

    if tracer is not None:
        arrays = tracer.arrays()
        table = spans.SpanTable(tracer.names, tags=tracer.tags, **arrays)
        result["counts"] = dict(tracer.counts)
        result["calls"] = {name: table.calls(name) for name in table.names}
        result["layers"] = spans.layer_metrics(table, tracer.counts)
        result["spans"] = len(table.name)
        tracer.save(args.result.with_suffix(".spans.npz"))
    args.result.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
