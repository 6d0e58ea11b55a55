"""Per-layer tracing of holodisc from outside the package.

Wrappers replace every binding of a module's public functions (the package
uses ``from .x import y``, so the caller's binding is replaced too, not only
the defining module's) and time the calls.  Nothing under ``src/`` changes.

Each wrapped call opens a frame.  On close its duration is added to its
probe's busy time and subtracted from the parent frame, so a layer's self
time is its frames' durations minus the child frames they contain.  Frequent
leaf calls are aggregated per (probe, key, parent probe); the coarse
boundaries (experiments, engines, builds, iterations) are also kept as full
spans (name, start, end, span id, parent span id, iteration id) and written
out at the end of a run.

A probe whose targets no longer exist (ROADMAP items 2-3 delete helpers such
as ``ChainBank.bound_to``) is skipped, and the metrics that depend on it are
reported as missing (value null) instead of failing the run.
"""

from __future__ import annotations

import statistics
import sys
import types
from dataclasses import dataclass
from time import perf_counter

MARK = "__perfbench_probe__"


def _size(args, kwargs):
    a = args[0] if args else None
    return int(getattr(a, "size", 1))


def _variant(args, kwargs):
    for a in list(args) + list(kwargs.values()):
        v = getattr(a, "variant", None)
        if isinstance(v, str):
            return v
    return "?"


def _signal_kind(args, kwargs):
    kind = getattr(getattr(args[0], "signal", None), "kind", "?")
    return "white" if kind == "white-noise" else kind


@dataclass(frozen=True)
class Probe:
    """A group of target functions that share one set of counters.

    passthrough: a call made while the innermost frame already belongs to
    this probe is not counted again (``delta4`` calling ``delta2``).
    spans: also keep every call as a full span.
    callbacks: wrap function arguments (rhs closures, drives, assemble
    maps) so their time is charged to the caller's layer, not this one.
    in_rhs: frames of this probe mark "inside a coarse rhs", which the
    per-rhs waste ratios use as their scope.
    """

    name: str
    layer: str
    targets: tuple = ()
    passthrough: bool = True
    spans: bool = False
    callbacks: bool = False
    in_rhs: bool = False
    key: object = None
    size: object = None


H = "holodisc."
PROBES = (
    Probe("stencil", "stencil", (H + "stencil:delta2", H + "stencil:mudelta",
                                 H + "stencil:delta4"), size=_size),
    Probe("forcing", "forcing", tuple(H + "forcing:" + t for t in (
        "lorenz_rhs", "make_signal", "mode_decay_rate", "csn", "sample_forcing",
        "project_to_modes", "Signal.driver_init", "Signal.driver_rhs",
        "ConstantSignal.value", "HarmonicSignal.value", "LorenzSignal.value",
        "LorenzSignal.driver_init", "LorenzSignal.driver_rhs",
        "WhiteNoiseSignal.value", "WhiteNoiseSignal.draw", "FileSignal.value"))),
    Probe("microscale.rhs", "microscale", (H + "microscale:burgers_rhs",
                                           H + "microscale:lattice_rhs")),
    Probe("microscale.step", "microscale", tuple(H + "microscale:" + t for t in (
        "rk4_step", "euler_step", "step", "integrate")), callbacks=True),
    Probe("convolution.chain_rhs", "convolution", (H + "convolution:chain_rhs",)),
    Probe("convolution.integrate", "convolution", (
        H + "convolution:integrate_chain", H + "convolution:chain_step"),
        callbacks=True),
    Probe("convolution.canon", "convolution", (H + "convolution:canonical_rates",)),
    Probe("macromodel.rhs", "macromodel", tuple(H + "macromodel:" + t for t in (
        "variant_rhs", "ssm1_rhs", "strongquad_rhs", "lowg_rhs",
        "lattice_coarse_rhs")), in_rhs=True, key=_variant),
    Probe("macromodel.bank_rhs", "macromodel", (H + "macromodel:ChainBank.rhs_flat",)),
    Probe("macromodel.bank_rebind", "macromodel", (
        H + "macromodel:ChainBank.bound_to", H + "macromodel:ChainBank.unpack")),
    Probe("macromodel.bank_lookup", "macromodel", (
        H + "macromodel:ChainBank.output", H + "macromodel:ChainBank.states")),
    Probe("macromodel.recon", "macromodel", (
        H + "macromodel:nsm_field_at_grid", H + "macromodel:nsm_subgrid_field")),
    Probe("macromodel.build", "macromodel", (H + "macromodel:build_bank",),
          spans=True),
    Probe("weakmodel.build", "weakmodel", (H + "weakmodel:build_weak_model",),
          spans=True),
    Probe("weakmodel.step", "weakmodel", (H + "weakmodel:WeakCoarseModel.step",),
          key=_signal_kind),
    Probe("weakmodel.run", "weakmodel", (H + "weakmodel:WeakCoarseModel.run",),
          spans=True, key=_signal_kind),
    Probe("harness", "harness", (
        H + "harness:EXPERIMENTS[*]", H + "harness:run_micro_field",
        H + "harness:run_macro_forced", H + "harness:nsm_series",
        H + "harness:spec_from_dict", H + "harness:default_spec"),
        passthrough=False, spans=True, callbacks=True),
)
# Frames the benchmark opens around its own calls; they have no targets.
BENCH = Probe("bench.iteration", "bench", passthrough=False, spans=True)
BENCH_BUILD = Probe("bench.build", "bench", passthrough=False, spans=True)
CLI = Probe("cli.command", "cli", passthrough=False, spans=True)

# (name, unit, better) of every per-layer metric a traced run prints.  Times
# and counts are per workload iteration (medians over traced iterations);
# build_s is per setup build.
PER_LAYER = (
    ("stencil.calls", "count", "lower"),
    ("stencil.busy_s", "s", "lower"),
    ("stencil.us_per_call", "us", "lower"),
    ("stencil.elems_per_call", "count", "higher"),
    ("forcing.calls", "count", "lower"),
    ("forcing.busy_s", "s", "lower"),
    ("microscale.rhs_calls", "count", "lower"),
    ("microscale.rhs_busy_s", "s", "lower"),
    ("microscale.us_per_rhs", "us", "lower"),
    ("microscale.rk4_self_s", "s", "lower"),
    ("convolution.chain_rhs_calls", "count", "lower"),
    ("convolution.chain_rhs_busy_s", "s", "lower"),
    ("convolution.integrate_busy_s", "s", "lower"),
    ("convolution.canon_calls", "count", "lower"),
    ("convolution.canon_per_coarse_rhs", "ratio", "lower"),
    ("macromodel.rhs_calls", "count", "lower"),
    ("macromodel.rhs_busy_s", "s", "lower"),
    ("macromodel.us_per_rhs.ssm1", "us", "lower"),
    ("macromodel.us_per_rhs.strongquad", "us", "lower"),
    ("macromodel.bank_rhs_calls", "count", "lower"),
    ("macromodel.bank_rhs_busy_s", "s", "lower"),
    ("macromodel.bank_rebinds", "count", "lower"),
    ("macromodel.bank_lookups_per_rhs", "ratio", "lower"),
    ("macromodel.recon_busy_s", "s", "lower"),
    ("macromodel.build_s", "s", "lower"),
    ("weakmodel.build_s", "s", "lower"),
    ("weakmodel.step_calls", "count", "lower"),
    ("weakmodel.step_busy_s", "s", "lower"),
    ("weakmodel.us_per_step.harmonic", "us", "lower"),
    ("weakmodel.us_per_step.white", "us", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.self_frac", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

# Layer metric -> the end-to-end metric it should move -> on which workloads,
# and where the prediction is no change.  Kept here because BENCHMARK.json
# has a fixed schema; every traced run prints it.
PREDICTIONS = (
    ("stencil.*", "wall_s", ["strongquad-m1024", "fig3"], ["weak-drift", "fig1-fine"]),
    ("forcing.*", "wall_s", ["fig1-fine", "fig3"], ["weak-drift"]),
    ("microscale.rhs_*, microscale.us_per_rhs", "wall_s", ["fig1-fine", "fig3"],
     ["strongquad-m1024", "weak-drift"]),
    ("microscale.rk4_self_s", "wall_s", ["fig1-fine", "fig3", "strongquad-m1024"],
     ["weak-drift"]),
    ("convolution.chain_rhs_*, convolution.integrate_busy_s", "wall_s",
     ["weak-drift"], []),
    ("convolution.canon_*", "wall_s", ["strongquad-m1024", "fig3"], []),
    ("macromodel.* (except build_s)", "wall_s, steps_per_s",
     ["strongquad-m1024", "fig3"], ["weak-drift", "fig1-fine"]),
    ("macromodel.build_s", "setup_s", ["strongquad-m1024", "fig3"], []),
    ("weakmodel.build_s", "setup_s", ["strongquad-m1024"], []),
    ("weakmodel.step_*, weakmodel.us_per_step.*", "wall_s", ["strongquad-m1024"],
     ["weak-drift"]),
    ("harness.self_s, harness.self_frac", "wall_s, peak_rss_mb",
     ["fig3", "fig1-fine"], []),
    ("cli.self_s", "wall_s", ["fig3", "weak-drift", "fig1-fine"], ["strongquad-m1024"]),
)


def _holodisc_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "holodisc" or n.startswith("holodisc."))]


def _resolve(target):
    """Originals of one target, as (class or None, attribute, raw object)."""
    modname, _, attr = target.partition(":")
    mod = sys.modules.get(modname)
    if mod is None:
        return []
    if attr.endswith("[*]"):
        table = getattr(mod, attr[:-3], None)
        if not isinstance(table, dict):
            return []
        return [(None, None, v) for v in table.values() if callable(v)]
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if raw is None or isinstance(raw, property):
            return []
        return [(cls, meth, raw)]
    fn = getattr(mod, attr, None)
    return [(None, None, fn)] if callable(fn) else []


class Tracer:
    """Installs the wrappers, records frames, and restores every binding."""

    def __init__(self):
        self.stack = []
        self.agg = {}  # (probe, key, parent probe) -> [calls, busy, self, elems]
        self.layer_self = {}
        self.inside_rhs = {}  # probe -> calls made while a coarse rhs is open
        self.rhs_depth = 0
        self.spans = []
        self.iteration = None
        self._next_id = 0
        self._patches = []
        self._callback_probes = {}
        self.missing = set()

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target that exists; returns self for use in ``with``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = {}  # id(original) -> (original, wrapper)
        for probe in PROBES:
            found = False
            for target in probe.targets:
                for cls, name, raw in _resolve(target):
                    found = True
                    if cls is None:
                        functions.setdefault(id(raw), (raw, self._wrap(probe, raw)))
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(self._wrap(probe, raw.__func__))
                    else:
                        wrapped = self._wrap(probe, raw)
                    self._set(cls, name, raw, wrapped, setattr)
            if not found:
                self.missing.add(probe.name)
        # Every binding of a wrapped function: module attributes, including
        # the callers' ``from .x import y`` copies, and module-level tables.
        for _, setter, owner, name, val in _bindings():
            hit = functions.get(id(val))
            if hit is not None and hit[0] is val:
                self._set(owner, name, val, hit[1], setter)
        return self

    def _set(self, owner, name, original, replacement, setter):
        setter(owner, name, replacement)
        self._patches.append((setter, owner, name, original))

    def restore(self):
        """Put every original binding back, newest first."""
        while self._patches:
            setter, owner, name, original = self._patches.pop()
            setter(owner, name, original)
        # A module first imported while tracing copied wrappers into its own
        # namespace; unwrap those too.
        for _, setter, owner, name, val in _bindings():
            original = _original(val)
            if original is not None:
                setter(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, probe, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(probe, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, probe.name)
        return wrapper

    def _callback(self, fn, layer):
        probe = self._callback_probes.get(layer)
        if probe is None:
            probe = self._callback_probes[layer] = Probe(layer + ".callback", layer)
        call = self.call

        def callback(*args, **kwargs):
            return call(probe, fn, args, kwargs)

        return callback

    # -- recording -----------------------------------------------------------

    def call(self, probe, fn, args, kwargs):
        stack = self.stack
        top = stack[-1] if stack else None
        if top is not None and probe.passthrough and top[0] is probe:
            return fn(*args, **kwargs)
        if probe.callbacks:
            layer = top[0].layer if top is not None else "bench"
            args = tuple(
                self._callback(a, layer)
                if isinstance(a, (types.FunctionType, types.MethodType)) else a
                for a in args
            )
        key = probe.key(args, kwargs) if probe.key else ""
        if self.rhs_depth:
            self.inside_rhs[probe.name] = self.inside_rhs.get(probe.name, 0) + 1
        if probe.in_rhs:
            self.rhs_depth += 1
        self._next_id += 1
        # [probe, key, span id, parent span id, child time]
        frame = [probe, key, self._next_id, top[2] if top is not None else None, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if probe.in_rhs:
                self.rhs_depth -= 1
            dur = t1 - t0
            own = dur - frame[4]
            slot = (probe.name, key, top[0].name if top is not None else "")
            rec = self.agg.get(slot)
            if rec is None:
                rec = self.agg[slot] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += own
            if probe.size is not None:
                rec[3] += probe.size(args, kwargs)
            self.layer_self[probe.layer] = self.layer_self.get(probe.layer, 0.0) + own
            if top is not None:
                top[4] += dur
            if probe.spans:
                self.spans.append((probe.name, key, t0, t1, frame[2], frame[3],
                                   self.iteration))

    def run(self, probe, fn, *args, **kwargs):
        """Call fn inside a frame of one of the benchmark's own probes."""
        return self.call(probe, fn, args, kwargs)

    def take_counters(self):
        """Return and reset the aggregated counters (spans are kept)."""
        out = (self.agg, self.layer_self, self.inside_rhs)
        self.agg, self.layer_self, self.inside_rhs = {}, {}, {}
        return out


def _bindings():
    """(where, setter, owner, name, value) of every binding in holodisc."""
    for mod in _holodisc_modules():
        for name, val in list(vars(mod).items()):
            yield f"{mod.__name__}.{name}", setattr, mod, name, val
            if type(val) is dict:
                for key, entry in list(val.items()):
                    yield (f"{mod.__name__}.{name}[{key!r}]", dict.__setitem__,
                           val, key, entry)
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, raw in list(vars(val).items()):
                    yield f"{mod.__name__}.{name}.{attr}", setattr, val, attr, raw


def _original(obj):
    """What a wrapper stands for, or None if obj is not a wrapper."""
    fn = obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj
    if getattr(fn, MARK, None) is None:
        return None
    return fn.__wrapped__ if fn is obj else type(obj)(fn.__wrapped__)


def instrumented_bindings():
    """Every binding in the holodisc modules that still holds a wrapper."""
    return [where for where, _, _, _, val in _bindings() if _original(val) is not None]


# -- per-layer metrics -----------------------------------------------------------

def _sum(agg, probe, field, key=None):
    return sum(rec[field] for (p, k, _), rec in agg.items()
               if p == probe and (key is None or k == key))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def iteration_metrics(counters, wall_s):
    """Layer metrics of one traced iteration, before the missing filter."""
    agg, layer_self, inside = counters
    calls = lambda p, key=None: _sum(agg, p, 0, key)  # noqa: E731
    busy = lambda p, key=None: _sum(agg, p, 1, key)  # noqa: E731
    rhs_calls = calls("macromodel.rhs")
    m = {
        "stencil.calls": calls("stencil"),
        "stencil.busy_s": busy("stencil"),
        "stencil.us_per_call": _ratio(busy("stencil"), calls("stencil"), 1e6),
        "stencil.elems_per_call": _ratio(_sum(agg, "stencil", 3), calls("stencil")),
        "forcing.calls": calls("forcing"),
        "forcing.busy_s": busy("forcing"),
        "microscale.rhs_calls": calls("microscale.rhs"),
        "microscale.rhs_busy_s": busy("microscale.rhs"),
        "microscale.us_per_rhs": _ratio(busy("microscale.rhs"),
                                        calls("microscale.rhs"), 1e6),
        "microscale.rk4_self_s": _sum(agg, "microscale.step", 2),
        "convolution.chain_rhs_calls": calls("convolution.chain_rhs"),
        "convolution.chain_rhs_busy_s": busy("convolution.chain_rhs"),
        "convolution.integrate_busy_s": busy("convolution.integrate"),
        "convolution.canon_calls": calls("convolution.canon"),
        "convolution.canon_per_coarse_rhs": _ratio(
            inside.get("convolution.canon", 0), rhs_calls),
        "macromodel.rhs_calls": rhs_calls,
        "macromodel.rhs_busy_s": busy("macromodel.rhs"),
        "macromodel.bank_rhs_calls": calls("macromodel.bank_rhs"),
        "macromodel.bank_rhs_busy_s": busy("macromodel.bank_rhs"),
        "macromodel.bank_rebinds": calls("macromodel.bank_rebind"),
        "macromodel.bank_lookups_per_rhs": _ratio(
            inside.get("macromodel.bank_lookup", 0), rhs_calls),
        "macromodel.recon_busy_s": busy("macromodel.recon"),
        "weakmodel.step_calls": calls("weakmodel.step"),
        "weakmodel.step_busy_s": busy("weakmodel.step"),
        "harness.self_s": layer_self.get("harness", 0.0),
        "harness.self_frac": _ratio(layer_self.get("harness", 0.0), wall_s),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
    for variant in ("ssm1", "strongquad"):
        m[f"macromodel.us_per_rhs.{variant}"] = _ratio(
            busy("macromodel.rhs", variant), calls("macromodel.rhs", variant), 1e6)
    for kind in ("harmonic", "white"):
        m[f"weakmodel.us_per_step.{kind}"] = _ratio(
            busy("weakmodel.step", kind), calls("weakmodel.step", kind), 1e6)
    return m


def build_metrics(counters):
    agg = counters[0]
    return {"macromodel.build_s": _sum(agg, "macromodel.build", 1),
            "weakmodel.build_s": _sum(agg, "weakmodel.build", 1)}


# Probes each metric reads, by the first matching name prefix; a metric is
# missing when any of its probes is.
_NEEDS = {
    "stencil.": ("stencil",),
    "forcing.": ("forcing",),
    "microscale.rk4": ("microscale.step",),
    "microscale.": ("microscale.rhs",),
    "convolution.chain_rhs": ("convolution.chain_rhs",),
    "convolution.integrate": ("convolution.integrate",),
    "convolution.canon_per": ("convolution.canon", "macromodel.rhs"),
    "convolution.canon": ("convolution.canon",),
    "macromodel.bank_rhs": ("macromodel.bank_rhs",),
    "macromodel.bank_rebinds": ("macromodel.bank_rebind",),
    "macromodel.bank_lookups": ("macromodel.bank_lookup", "macromodel.rhs"),
    "macromodel.recon": ("macromodel.recon",),
    "macromodel.build": ("macromodel.build",),
    "macromodel.": ("macromodel.rhs",),
    "weakmodel.build": ("weakmodel.build",),
    "weakmodel.": ("weakmodel.step",),
    "harness.": ("harness",),
}


def needed_probes(metric):
    for prefix, probes in _NEEDS.items():
        if metric.startswith(prefix):
            return probes
    return ()


def summarise(per_iteration, missing):
    """Median of each metric over traced iterations; None where missing."""
    out = {}
    for name in per_iteration[0]:
        if any(p in missing for p in needed_probes(name)):
            out[name] = None
        else:
            out[name] = statistics.median(it[name] for it in per_iteration)
    return out


def spans_table(spans, t_origin):
    """Spans as JSON-ready rows, times relative to t_origin."""
    return [
        {"name": n, "key": k, "start_s": round(a - t_origin, 9),
         "end_s": round(b - t_origin, 9), "id": i, "parent": p, "iteration": it}
        for n, k, a, b, i, p, it in spans
    ]
