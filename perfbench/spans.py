"""In-memory span recording around aajrlab's public functions, and the
arithmetic that turns spans into per-layer metrics.

A span is (name, parent, start, end, tag). Spans are appended in call
order, so a parent always has a lower index than its children; the
program is single-threaded, so children of one span never overlap and a
span's self time is its duration minus the sum of its children's.

The tracer lives in the benchmark: it rebinds each public function of the
traced modules to a wrapper in every ``aajrlab`` module that imported it by
name, so no file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose public functions are wrapped, in layer order.
TRACED_MODULES = ("cli", "tape", "policy", "inner", "regularizers", "environments", "trainer", "verification")

# tape's elementwise helpers run inside every forward pass and cost less
# than a span; Node constructions are counted instead.
UNTRACED = {
    "tape": {"tanh", "softplus", "relu", "sqrt", "vsum", "dot", "sigmoid"},
}

# Called once or more per ascent step; the metrics need only their counts.
COUNT_ONLY = {
    "environments": {"loss", "loss_grad", "loss_term"},
}

# Policy shapes of the shipped configs; per-call medians are split by them.
SHAPES = ((2, 6, 2), (3, 6, 3), (4, 8, 4))


def shape_label(dims) -> str:
    return "-".join(str(d) for d in dims)


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def tag_id(self, key: str) -> int:
        if key not in self._tag_ids:
            self._tag_ids[key] = len(self.tags)
            self.tags.append(key)
        return self._tag_ids[key]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span_wrapper(self, fn, name: str, tag_of=None, observe=None):
        """Wrap ``fn`` so each call records a span.

        ``tag_of(args, kwargs)`` returns an int stored with the span;
        ``observe(args, kwargs, result)`` sees every successful result.
        """
        nid = self._intern(name)
        names, parents, tags, starts, ends, stack = self.name, self.parent, self.tag, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(tag_of(args, kwargs) if tag_of is not None else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        key = name + ".calls"
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write spans as .npz: integer name/tag ids index ``names``/``tags``."""
        arrs = self.arrays()
        t0 = arrs["start"].min() if len(arrs["start"]) else 0.0
        arrs["start"] -= t0
        arrs["end"] -= t0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            tags=np.array(self.tags),
            **arrs,
        )


def _policy_tag(tracer: Tracer, position: int, with_mode: bool = False):
    """Tag a call by the shape of the PolicyParams at ``args[position]``,
    as "4-8-4", followed by "/<mode>" of the TrainConfig at ``args[0]``."""

    def tag_of(args, kwargs):
        params = args[position] if len(args) > position else None
        layers = getattr(params, "layers", None)
        if not layers:
            return -1
        key = shape_label([layers[0].weight.shape[1]] + [layer.weight.shape[0] for layer in layers])
        if with_mode:
            key += "/" + args[0].mode
        return tracer.tag_id(key)

    return tag_of


def install(tracer: Tracer, package) -> None:
    """Rebind every public function of the traced modules to a wrapper."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in TRACED_MODULES}
    observers = _observers(tracer)
    tag_position = {
        "policy.forward": 0,
        "policy.jvp": 0,
        "policy.vjp": 0,
        "policy.param_gradient": 0,
        "inner.pga_run": 0,
        "regularizers.spectral_norm": 0,
        "trainer.train": 2,
    }
    replaced = {}
    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr in UNTRACED.get(mod_name, ()):
                continue
            name = f"{mod_name}.{attr}"
            if attr in COUNT_ONLY.get(mod_name, ()):
                replaced[obj] = tracer.count_wrapper(obj, name)
                continue
            pos = tag_position.get(name)
            replaced[obj] = tracer.span_wrapper(
                obj,
                name,
                tag_of=_policy_tag(tracer, pos, name == "trainer.train") if pos is not None else None,
                observe=observers.get(name),
            )
    # Modules import functions by name, so rebind every alias in the package.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    _count_nodes(tracer, modules["tape"].Node)


def _count_nodes(tracer: Tracer, node_cls) -> None:
    original = node_cls.__init__
    counts = tracer.counts
    counts["tape.nodes"] = 0

    def __init__(self, *args, **kwargs):
        counts["tape.nodes"] += 1
        original(self, *args, **kwargs)

    node_cls.__init__ = __init__


def _observers(tracer: Tracer) -> dict:
    def train(args, kwargs, result):
        _, metrics = result
        tracer.count("trainer.train.outer_steps", len(metrics.records))
        if metrics.aborted_step is not None:
            tracer.count("trainer.train.aborted")

    def pga_run(args, kwargs, traj):
        tracer.count("inner.steps", traj.steps)
        tracer.count("inner.steps_moved", sum(v is not None for v in traj.update_dirs))

    def project(args, kwargs, result):
        tracer.count("inner.project.calls")
        if not np.array_equal(result, args[0]):
            tracer.count("inner.project.active")

    return {"trainer.train": train, "inner.pga_run": pga_run, "inner.project": project}


# -- span arithmetic ---------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def durations(start, end) -> np.ndarray:
    return np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)


def child_time(parent, dur) -> np.ndarray:
    """Per span, the summed duration of its direct children."""
    parent = np.asarray(parent)
    dur = np.asarray(dur, dtype=np.float64)
    has = parent >= 0
    return np.bincount(parent[has], weights=dur[has], minlength=len(dur))[: len(dur)]


def self_time(parent, dur) -> np.ndarray:
    """Span duration minus the part its direct children cover."""
    return np.asarray(dur, dtype=np.float64) - child_time(parent, dur)


def under(name, parent, target: int) -> np.ndarray:
    """Per span, whether some proper ancestor has name id ``target``."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    n = len(name)
    if n == 0:
        return np.zeros(0, dtype=bool)
    idx = np.where(parent >= 0, parent, 0)
    flag = (parent >= 0) & (name[idx] == target)
    # Parents precede children, so each pass settles one more level of depth.
    while True:
        nxt = flag | ((parent >= 0) & flag[idx])
        if np.array_equal(nxt, flag):
            return flag
        flag = nxt


class SpanTable:
    """Read-side view of one trace: per-name selections and time sums."""

    def __init__(self, names, name, parent, start, end, tag=None, tags=()):
        self.names = list(names)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = np.asarray(name)
        self.parent = np.asarray(parent)
        self.dur = durations(start, end)
        self.tag = np.asarray(tag) if tag is not None else np.full(len(self.name), -1)
        self.tags = list(tags)
        self.self = self_time(self.parent, self.dur)

    def mask(self, name: str) -> np.ndarray:
        nid = self.ids.get(name)
        if nid is None:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == nid

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def tagged(self, pred) -> np.ndarray:
        """Spans whose tag label satisfies ``pred``."""
        ids = [i for i, t in enumerate(self.tags) if pred(t)]
        return np.isin(self.tag, ids)

    def shape_mask(self, shape: str) -> np.ndarray:
        return self.tagged(lambda t: t.split("/")[0] == shape)

    def p50(self, name: str, shape: str | None = None) -> float:
        m = self.mask(name)
        if shape is not None:
            m = m & self.shape_mask(shape)
        return percentile(self.dur[m], 50)

    def self_total(self, name: str) -> float:
        return float(self.self[self.mask(name)].sum())

    def child_total(self, parent_name: str, child_names) -> float:
        """Summed duration of direct children named ``child_names`` of ``parent_name`` spans."""
        pm = self.mask(parent_name)
        if not pm.any():
            return 0.0
        idx = np.where(self.parent >= 0, self.parent, 0)
        is_child = np.zeros(len(self.name), dtype=bool)
        for child in child_names:
            is_child |= self.mask(child)
        sel = is_child & (self.parent >= 0) & pm[idx]
        return float(self.dur[sel].sum())

    def under(self, ancestor: str) -> np.ndarray:
        aid = self.ids.get(ancestor)
        if aid is None:
            return np.zeros(len(self.name), dtype=bool)
        return under(self.name, self.parent, aid)

    def calls_under(self, name: str, ancestor: str) -> int:
        return int((self.mask(name) & self.under(ancestor)).sum())


# -- per-layer metrics -------------------------------------------------------

# Per-call medians that are also reported per policy shape:
# (metric, span name, unit, seconds -> unit factor).
_SPLIT = (
    ("trainer.train.s_p50", "trainer.train", "s", 1.0),
    ("policy.param_gradient.ms_p50", "policy.param_gradient", "ms", 1e3),
    ("policy.forward.us_p50", "policy.forward", "us", 1e6),
    ("policy.jvp.us_p50", "policy.jvp", "us", 1e6),
    ("policy.vjp.us_p50", "policy.vjp", "us", 1e6),
    ("inner.pga_run.us_p50", "inner.pga_run", "us", 1e6),
    ("regularizers.spectral_norm.us_p50", "regularizers.spectral_norm", "us", 1e6),
)

PER_LAYER = (
    [
        ("trainer.train.calls", "count"),
        ("trainer.train.s_p50", "s"),
        ("trainer.train.total_s", "s"),
        ("trainer.train.aborted", "count"),
        ("trainer.train.other_s", "s"),
        ("trainer.diagnostics_share", "ratio"),
        ("trainer.sweep.bisection_runs", "count"),
        ("trainer.sweep.matched_ratio", "ratio"),
        ("trainer.measure_achieved_levels.total_s", "s"),
        ("trainer.sweep.other_s", "s"),
        ("regularizers.spectral_norm.calls", "count"),
        ("regularizers.spectral_norm.us_p50", "us"),
        ("regularizers.spectral_norm.total_s", "s"),
        ("regularizers.spectral_norm.jvp_per_call", "count"),
        ("regularizers.global_term.calls", "count"),
        ("regularizers.global_term.total_s", "s"),
        ("regularizers.global_penalty.calls", "count"),
        ("regularizers.global_penalty.total_s", "s"),
        ("regularizers.aajr_term.calls", "count"),
        ("regularizers.aajr_term.total_s", "s"),
        ("tape.nodes", "count"),
        ("tape.nodes_per_step", "count"),
        ("tape.backward.calls", "count"),
        ("tape.backward.total_s", "s"),
        ("policy.param_gradient.calls", "count"),
        ("policy.param_gradient.ms_p50", "ms"),
        ("policy.param_gradient.self_s", "s"),
        ("policy.apply_gradient_step.total_s", "s"),
        ("policy.forward.calls", "count"),
        ("policy.forward.us_p50", "us"),
        ("policy.jvp.calls", "count"),
        ("policy.jvp.us_p50", "us"),
        ("policy.vjp.calls", "count"),
        ("policy.vjp.us_p50", "us"),
        ("inner.pga_run.calls", "count"),
        ("inner.pga_run.us_p50", "us"),
        ("inner.pga_run.total_s", "s"),
        ("inner.steps_moved_ratio", "ratio"),
        ("inner.projection_active_ratio", "ratio"),
        ("environments.loss.calls", "count"),
        ("environments.loss_grad.calls", "count"),
        ("verification.check_effective_smoothness.total_s", "s"),
        ("verification.stable_step_size.total_s", "s"),
        ("verification.check_pga_stability.total_s", "s"),
        ("verification.check_inclusion.total_s", "s"),
        ("verification.class_witness.total_s", "s"),
        ("cli.parse_config.ms", "ms"),
        ("cli.artifacts.ms", "ms"),
        ("trace.overhead_s", "s"),
    ]
    + [
        (f"{metric}.{shape_label(shape)}", unit)
        for metric, _, unit, _ in _SPLIT
        for shape in SHAPES
    ]
)

# command span -> its library-entry child
_COMMANDS = {
    "cli.cmd_train": "trainer.train",
    "cli.cmd_verify": "verification.verify_suite",
    "cli.cmd_sweep": "trainer.price_of_robustness",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(table: SpanTable, counts: dict) -> dict:
    """Every PER_LAYER metric except ``trace.overhead_s`` and
    ``trainer.sweep.matched_ratio``, which come from an untraced execution
    and from the sweep's report."""
    t = table
    out = {}
    train_total = t.total("trainer.train")
    out["trainer.train.calls"] = t.calls("trainer.train")
    out["trainer.train.s_p50"] = t.p50("trainer.train")
    out["trainer.train.total_s"] = train_total
    out["trainer.train.aborted"] = counts.get("trainer.train.aborted", 0)
    other = train_total - t.child_total(
        "trainer.train", ("inner.pga_run", "policy.param_gradient", "policy.apply_gradient_step")
    )
    out["trainer.train.other_s"] = other
    out["trainer.diagnostics_share"] = _ratio(other, train_total)

    in_sweep = t.under("trainer.price_of_robustness")
    penalized = t.tagged(lambda label: not label.endswith("/nominal"))
    out["trainer.sweep.bisection_runs"] = int((t.mask("trainer.train") & in_sweep & penalized).sum())
    out["trainer.measure_achieved_levels.total_s"] = t.total("trainer.measure_achieved_levels")
    out["trainer.sweep.other_s"] = t.total("trainer.price_of_robustness") - t.child_total(
        "trainer.price_of_robustness", ("trainer.train", "trainer.measure_achieved_levels")
    )

    sn_calls = t.calls("regularizers.spectral_norm")
    out["regularizers.spectral_norm.calls"] = sn_calls
    out["regularizers.spectral_norm.us_p50"] = t.p50("regularizers.spectral_norm") * 1e6
    out["regularizers.spectral_norm.total_s"] = t.total("regularizers.spectral_norm")
    out["regularizers.spectral_norm.jvp_per_call"] = _ratio(
        t.calls_under("policy.jvp", "regularizers.spectral_norm"), sn_calls
    )
    for fn in ("global_term", "global_penalty", "aajr_term"):
        out[f"regularizers.{fn}.calls"] = t.calls(f"regularizers.{fn}")
        out[f"regularizers.{fn}.total_s"] = t.total(f"regularizers.{fn}")

    out["tape.nodes"] = counts.get("tape.nodes", 0)
    out["tape.nodes_per_step"] = _ratio(counts.get("tape.nodes", 0), counts.get("trainer.train.outer_steps", 0))
    out["tape.backward.calls"] = t.calls("tape.backward")
    out["tape.backward.total_s"] = t.total("tape.backward")

    out["policy.param_gradient.calls"] = t.calls("policy.param_gradient")
    out["policy.param_gradient.ms_p50"] = t.p50("policy.param_gradient") * 1e3
    out["policy.param_gradient.self_s"] = t.total("policy.param_gradient") - t.child_total(
        "policy.param_gradient", ("tape.backward",)
    )
    out["policy.apply_gradient_step.total_s"] = t.total("policy.apply_gradient_step")
    for fn in ("forward", "jvp", "vjp"):
        out[f"policy.{fn}.calls"] = t.calls(f"policy.{fn}")
        out[f"policy.{fn}.us_p50"] = t.p50(f"policy.{fn}") * 1e6

    out["inner.pga_run.calls"] = t.calls("inner.pga_run")
    out["inner.pga_run.us_p50"] = t.p50("inner.pga_run") * 1e6
    out["inner.pga_run.total_s"] = t.total("inner.pga_run")
    out["inner.steps_moved_ratio"] = _ratio(counts.get("inner.steps_moved", 0), counts.get("inner.steps", 0))
    out["inner.projection_active_ratio"] = _ratio(
        counts.get("inner.project.active", 0), counts.get("inner.project.calls", 0)
    )

    out["environments.loss.calls"] = counts.get("environments.loss.calls", 0)
    out["environments.loss_grad.calls"] = counts.get("environments.loss_grad.calls", 0)
    for fn in ("check_effective_smoothness", "stable_step_size", "check_pga_stability", "check_inclusion", "class_witness"):
        out[f"verification.{fn}.total_s"] = t.total(f"verification.{fn}")

    out["cli.parse_config.ms"] = t.total("cli.parse_config") * 1e3
    out["cli.artifacts.ms"] = 1e3 * sum(
        t.total(cmd) - t.child_total(cmd, (entry,)) for cmd, entry in _COMMANDS.items()
    )

    for metric, span, _, scale in _SPLIT:
        for shape in SHAPES:
            out[f"{metric}.{shape_label(shape)}"] = t.p50(span, shape_label(shape)) * scale
    return out
