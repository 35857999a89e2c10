"""Outside-in layer tracing: wrap each layer's public entry points.

The benchmark times the program's layers without changing a line
under ``src/``.  For a traced pass it replaces each public callable
listed in :data:`LAYERS` with a wrapper that records a span (host wall
time from :func:`time.perf_counter`) and restores the originals
afterwards, so untimed code and untraced passes run the program as
shipped.

A layer's *self time* is its span's duration minus the duration of the
spans directly inside it.  Every span sits inside one benchmark *op*
(the root span); the op's own self time is ``other``: wall time no
layer claimed.  Self times therefore partition each op's wall time
exactly, up to float rounding.

Module-level functions are imported by name all over the package
(``from ..hw.topology import build_machine``), so a function target is
patched in every ``repro`` module that holds a reference to it, not
only where it is defined.  A target that no longer exists marks its
layer ``unwrapped`` with a warning; the pass still runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "Layer",
    "SpanRecorder",
    "install",
    "layer_metrics",
    "per_layer_specs",
]


@dataclass(frozen=True)
class Layer:
    """One layer: a name and the ``module:Qual.name`` callables it owns."""

    name: str
    targets: Tuple[str, ...]


def _methods(module: str, cls: str, *names: str) -> Tuple[str, ...]:
    return tuple(f"{module}:{cls}.{name}" for name in names)


LAYERS: Tuple[Layer, ...] = (
    # Sampling path: dominates the cold paper suite.
    Layer("lang.dataset", ("repro.lang.dataset:Dataset.payload",)),
    Layer("runtime.profiler", ("repro.runtime.profiler:LineProfiler.profile",)),
    Layer("runtime.fitting", ("repro.runtime.fitting:fit_curve",)),
    Layer("runtime.sampling", ("repro.runtime.sampling:SamplingPhase.run",)),
    Layer("baselines", (
        "repro.baselines.c_baseline:run_c_baseline",
        "repro.baselines.static_isp:ground_truth_estimates",
        *_methods("repro.baselines.static_isp", "StaticIspBaseline", "tune", "run"),
    )),
    Layer("analysis.experiments", tuple(
        f"repro.analysis.experiments:{name}" for name in (
            "run_table1", "run_fig2", "run_fig4", "run_fig5",
            "run_overhead_ladder", "run_prediction_accuracy",
            "run_csr_matrix_sweep",
        )
    )),
    Layer("workloads", ("repro.workloads.base:get_workload",)),
    # Per-run fixed costs: dominate warm ActivePy runs.  The facade's
    # self time includes freeing the run's machine when ``run`` returns.
    Layer("runtime.activepy", (
        "repro.runtime.activepy:ActivePy.run",
        "repro.runtime.activepy:run_plan",
    )),
    Layer("runtime.profcache", _methods(
        "repro.runtime.profcache", "ProfileCache",
        "key_for", "get", "put", "get_plan", "put_plan",
    )),
    Layer("hw.topology", ("repro.hw.topology:build_machine",)),
    Layer("runtime.estimator", ("repro.runtime.estimator:build_estimates",)),
    Layer("runtime.planner", (
        "repro.runtime.planner:assign_csd_code",
        "repro.runtime.planner:host_only_plan",
    )),
    Layer("runtime.codegen", _methods(
        "repro.runtime.codegen", "CodeGenerator", "generate", "regenerate_for_host",
    )),
    Layer("runtime.executor", ("repro.runtime.executor:PlanExecutor.execute",)),
    Layer("runtime.explain", ("repro.runtime.explain:explain_plan",)),
    Layer("runtime.plansearch", ("repro.runtime.plansearch:search_plan",)),
    # Fleet serving.
    Layer("fleet", ("repro.fleet.fleet:Fleet.run",)),
    Layer("fleet.admission", _methods(
        "repro.fleet.admission", "AdmissionController",
        "admit", "requeue", "next_job", "shed_overload", "drain",
    )),
    Layer("fleet.traffic", ("repro.fleet.traffic:TrafficGenerator.schedule",)),
    Layer("fleet.profiles", _methods(
        "repro.fleet.profiles", "ProfileStore",
        "profile", "baseline", "mean_service_seconds", "inner_plan",
    )),
    Layer("obs.timeseries", (
        *_methods(
            "repro.obs.timeseries", "FlightRecorder",
            "series", "names", "gauge", "observe", "count", "finalize",
            "window_values", "window_percentile", "to_jsonable", "render",
        ),
        "repro.obs.timeseries:evaluate_alerts",
    )),
    # Recovery path: dominates the chaos campaign.
    Layer("faults", (
        "repro.faults.injector:FaultInjector.arm",
        "repro.faults.spec:FaultPlan.random",
    )),
    Layer("runtime.checkpoint", _methods(
        "repro.runtime.checkpoint", "CheckpointManager", "save", "restore",
    )),
    Layer("integrity", ("repro.integrity:IntegrityChecker.charge_verify",)),
    Layer("runtime.migration", ("repro.runtime.migration:perform_migration",)),
    # The harness owns each run's machine, so its self time includes
    # freeing that machine when ``run_plan`` returns.
    Layer("chaos", (
        "repro.chaos.invariants:check_invariants",
        *_methods("repro.chaos.campaign", "ChaosHarness", "baseline", "plan_for",
                  "run_plan"),
    )),
)

#: Extra per-layer metrics: (name, unit, better).  Each is filled from
#: counters the hooks below accumulate over the traced pass.
EXTRA_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.dataset.bytes", "B", "lower"),
    ("runtime.profcache.hit_ratio", "ratio", "higher"),
    ("runtime.profcache.plan_hit_ratio", "ratio", "higher"),
    ("runtime.executor.sim_events", "count", "lower"),
    ("runtime.executor.chunk_replays", "count", "lower"),
    ("runtime.executor.host_fallbacks", "count", "lower"),
    ("runtime.executor.migrations", "count", "lower"),
    ("runtime.plansearch.steps_simulated", "count", "lower"),
    ("runtime.plansearch.nodes_expanded", "count", "lower"),
    ("runtime.plansearch.pruned_ratio", "ratio", "higher"),
    ("fleet.admission.shed_ratio", "ratio", "lower"),
    ("integrity.detected", "count", "higher"),
    ("integrity.missed", "count", "lower"),
)


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """Every metric the traced pass reports from the layers themselves.

    Self time is reported as ``.self_frac``, a share of the traced ops'
    wall time: a share does not move with the host's speed, and a layer
    a workload never calls reads 0 without being a time that never
    changes.  The seconds are in :meth:`SpanRecorder.self_seconds`.
    """
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.self_frac", "ratio", "lower"))
        specs.append((f"{layer.name}.calls", "count", "lower"))
    specs.extend(EXTRA_SPECS)
    specs.append(("other.self_frac", "ratio", "lower"))
    return specs


# --- hooks: counts measured where the work happens ---------------------------

def _payload_before(args: tuple) -> bool:
    # Only the first access materialises a dataset's arrays.
    return getattr(args[0], "_payload", None) is None


def _payload_after(counters, built, args, result) -> None:
    if built:
        from repro.runtime.profiler import payload_nbytes

        counters["lang.dataset.bytes"] += payload_nbytes(result)


def _cache_get_after(prefix: str):
    def after(counters, _state, _args, result) -> None:
        counters[f"{prefix}.lookups"] += 1
        if result is not None:
            counters[f"{prefix}.hits"] += 1
    return after


def _execute_before(args: tuple) -> int:
    return args[0].machine.simulator.events_fired


def _execute_after(counters, fired_before, args, result) -> None:
    counters["runtime.executor.sim_events"] += (
        args[0].machine.simulator.events_fired - fired_before
    )
    counters["runtime.executor.chunk_replays"] += result.chunk_replays
    counters["runtime.executor.host_fallbacks"] += sum(
        1 for event in result.fault_events if event.action == "host-fallback"
    )
    counters["runtime.executor.migrations"] += len(result.migrations)
    counters["integrity.detected"] += result.integrity_stats.get("detected", 0)
    counters["integrity.missed"] += result.integrity_stats.get("missed", 0)


def _search_after(counters, _state, _args, result) -> None:
    metrics = result.metrics
    counters["runtime.plansearch.steps_simulated"] += metrics.steps_simulated
    counters["runtime.plansearch.nodes_expanded"] += metrics.nodes_expanded
    counters["runtime.plansearch.nodes_pruned"] += metrics.nodes_pruned


def _fleet_after(counters, _state, _args, result) -> None:
    counters["fleet.jobs"] += result.job_count
    counters["fleet.shed"] += result.shed


_Before = Callable[[tuple], Any]
_After = Callable[[Dict[str, float], Any, tuple, Any], None]

HOOKS: Dict[str, Tuple[Optional[_Before], _After]] = {
    "repro.lang.dataset:Dataset.payload": (_payload_before, _payload_after),
    "repro.runtime.profcache:ProfileCache.get": (
        None, _cache_get_after("profcache"),
    ),
    "repro.runtime.profcache:ProfileCache.get_plan": (
        None, _cache_get_after("profcache.plan"),
    ),
    "repro.runtime.executor:PlanExecutor.execute": (_execute_before, _execute_after),
    "repro.runtime.plansearch:search_plan": (None, _search_after),
    "repro.fleet.fleet:Fleet.run": (None, _fleet_after),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _derived(counters: Dict[str, float]) -> Dict[str, float]:
    """Extra metrics from the raw hook counters."""
    out = {name: counters.get(name, 0.0) for name, _, _ in EXTRA_SPECS}
    out["runtime.profcache.hit_ratio"] = _ratio(
        counters.get("profcache.hits", 0.0), counters.get("profcache.lookups", 0.0)
    )
    out["runtime.profcache.plan_hit_ratio"] = _ratio(
        counters.get("profcache.plan.hits", 0.0),
        counters.get("profcache.plan.lookups", 0.0),
    )
    expanded = counters.get("runtime.plansearch.nodes_expanded", 0.0)
    pruned = counters.get("runtime.plansearch.nodes_pruned", 0.0)
    out["runtime.plansearch.pruned_ratio"] = _ratio(pruned, expanded + pruned)
    out["fleet.admission.shed_ratio"] = _ratio(
        counters.get("fleet.shed", 0.0), counters.get("fleet.jobs", 0.0)
    )
    return out


# --- the span recorder --------------------------------------------------------

#: Layer name of an op's root span; its self time is ``other``.
OTHER = "other"


class SpanRecorder:
    """Spans of the traced pass, kept in memory until the run ends.

    A span is ``[layer, op_id, parent, start, end, self_s]`` with
    ``parent`` the index of the enclosing span (``None`` for an op's
    root).  Calls into wrapped layers outside an open op pass straight
    through unrecorded.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_kinds: List[str] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.origin = time.perf_counter()
        # One frame per open span: [span index, start, child time].
        self._stack: List[list] = []
        self._broken_hooks: set = set()

    def _open(self, layer: str, op_id: int, parent: Optional[int]) -> None:
        self.spans.append([layer, op_id, parent, 0.0, 0.0, 0.0])
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        span = self.spans[index]
        duration = end - start
        span[3], span[4], span[5] = start, end, duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def open_op(self, kind: str) -> None:
        """Start an op: a root span every layer call below nests under."""
        if self._stack:
            raise RuntimeError("an op is already open")
        self.op_kinds.append(kind)
        self._open(OTHER, len(self.op_kinds) - 1, None)

    def close_op(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("close_op with layer spans still open")
        self._close()

    def discard_last_op(self) -> None:
        """Forget the most recent (closed) op and its spans."""
        op_id = len(self.op_kinds) - 1
        self.op_kinds.pop()
        while self.spans and self.spans[-1][1] == op_id:
            self.spans.pop()

    def call(self, layer: str, target: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        """Run ``fn`` inside a ``layer`` span (or bare, outside an op)."""
        if not self._stack:
            return fn(*args, **kwargs)
        hook = HOOKS.get(target) if target not in self._broken_hooks else None
        state = self._run_hook(target, hook[0], args) if hook and hook[0] else None
        parent = self._stack[-1][0]
        self._open(layer, self.spans[parent][1], parent)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close()
        self.calls[layer] += 1
        if hook is not None:
            self._run_hook(target, hook[1], self.counters, state, args, result)
        return result

    def _run_hook(self, target: str, hook: Callable, *hook_args: Any) -> Any:
        # A hook reads result fields that a refactor may rename; losing
        # an extra count must not abort the traced pass.
        try:
            return hook(*hook_args)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            self._broken_hooks.add(target)
            warnings.warn(
                f"e2e trace: counter hook for {target} disabled: {exc!r}",
                RuntimeWarning, stacklevel=2,
            )
            return None

    # --- results --------------------------------------------------------------

    def op_walls(self) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] is None]

    def self_by_op(self) -> List[Dict[str, float]]:
        """Per op: layer -> self seconds, ``other`` included."""
        out: List[Dict[str, float]] = [defaultdict(float) for _ in self.op_kinds]
        for layer, op_id, _parent, _start, _end, self_s in self.spans:
            out[op_id][layer] += self_s
        return out

    def self_seconds(self) -> Dict[str, float]:
        """Layer -> self seconds summed over every op, ``other`` included."""
        total: Dict[str, float] = defaultdict(float)
        for layer, _op_id, _parent, _start, _end, self_s in self.spans:
            total[layer] += self_s
        return dict(total)

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome ``trace_event`` object on the host clock.

        Every event carries its op's ``trace_id`` and its parent's
        ``span_id``; timestamps are microseconds since the recorder
        was created.
        """
        events: List[Dict[str, Any]] = [{
            "name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "host wall"},
        }]
        for index, (layer, op_id, parent, start, end, _) in enumerate(self.spans):
            name = f"op:{self.op_kinds[op_id]}" if parent is None else layer
            events.append({
                "name": name,
                "cat": "op" if parent is None else layer,
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"trace_id": op_id, "span_id": index, "parent_id": parent},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "host wall (perf_counter)"},
        }


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer totals over the traced pass: self share, calls, extras."""
    self_s = recorder.self_seconds()
    wall = sum(recorder.op_walls())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.self_frac"] = _ratio(self_s.get(layer.name, 0.0), wall)
        out[f"{layer.name}.calls"] = float(recorder.calls.get(layer.name, 0))
    out.update(_derived(recorder.counters))
    out["other.self_frac"] = _ratio(self_s.get(OTHER, 0.0), wall)
    return out


# --- installing wrappers ----------------------------------------------------------

def _resolve(target: str) -> Tuple[Any, str]:
    """``module:Qual.name`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{owner!r} has no attribute {attr!r}")
    return owner, attr


def _wrap_function(recorder: SpanRecorder, layer: str, target: str,
                   fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, target, fn, args, kwargs)
    return wrapper


def _wrap_descriptor(recorder: SpanRecorder, layer: str, target: str, raw: Any) -> Any:
    """A wrapped class attribute of the same kind as ``raw``."""
    if isinstance(raw, property):
        return property(
            _wrap_function(recorder, layer, target, raw.fget),
            raw.fset, raw.fdel, raw.__doc__,
        )
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(_wrap_function(recorder, layer, target, raw.__func__))
    return _wrap_function(recorder, layer, target, raw)


def install(
    recorder: SpanRecorder, layers: Sequence[Layer] = LAYERS
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every layer target; returns ``(restore, unwrapped_layers)``."""
    patches: List[Tuple[Any, str, Any, bool]] = []
    functions: Dict[int, Tuple[Callable, Callable]] = {}
    unwrapped: List[str] = []
    for layer in layers:
        for target in layer.targets:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError, ValueError) as exc:
                warnings.warn(
                    f"e2e trace: layer {layer.name} is unwrapped: "
                    f"{target} not found ({exc})",
                    RuntimeWarning, stacklevel=2,
                )
                if layer.name not in unwrapped:
                    unwrapped.append(layer.name)
                continue
            if isinstance(owner, type):
                own = attr in owner.__dict__
                raw = owner.__dict__[attr] if own else getattr(owner, attr)
                patches.append((owner, attr, raw, own))
                setattr(owner, attr, _wrap_descriptor(recorder, layer.name, target, raw))
            else:
                fn = getattr(owner, attr)
                functions[id(fn)] = (fn, _wrap_function(recorder, layer.name, target, fn))
    # Re-point every module-level reference to a wrapped function.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append((module, key, value, True))
                setattr(module, key, entry[1])

    def restore() -> None:
        for owner, attr, original, own in reversed(patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return restore, unwrapped
