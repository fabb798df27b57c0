"""Per-layer span tracer that times the program from outside.

The traced run wraps the public entry points of each layer (the
``LAYERS`` table) without touching ``src/``: module-level functions are
rebound in every loaded ``repro.*`` module that holds the original
object (callers that did ``from x import f`` keep their own binding, so
patching only the defining module would miss them), and methods are
replaced on their class.

Every wrapped call records a span ``(layer, start, end, parent)`` in
memory. At the end :meth:`Tracer.summary` folds the spans into per-layer
numbers:

* ``busy`` — wall time inside the layer, counting a call nested in an
  earlier call of the same layer only once;
* ``self`` — busy time minus the time of child spans of other layers;
* ``other`` — the part of the traced window no span covers.

Self times of all layers plus ``other`` add up to the window exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: The experiments pinned byte for byte by ``tests/golden``: the
#: paper_suite workload runs them, and their ``render`` functions form
#: the render layer.
EXPERIMENTS = (
    "fig1", "fig6", "fig7", "fig8", "table1", "table2", "ablation",
    "speculation",
)


def _first(args, kwargs, name, index=0):
    return args[index] if len(args) > index else kwargs[name]


# Counter hooks: ``hook(counts, args, kwargs, result, seconds)`` runs
# after each wrapped call and adds the layer's work counts.

def _trace_hook(counts, args, kwargs, result, seconds):
    counts["trace.records"] += len(result.trace)


def _frontend_hook(counts, args, kwargs, result, seconds):
    counts["frontend.records"] += len(result)


def _modelled(counts, schedule):
    """Simulated statistics of one schedule handed to a caller; they
    must not move under any change that only speeds up the host."""
    counts["cgra.launches"] += schedule.cgra.launches
    counts["cgra.misspeculations"] += schedule.cgra.misspeculations
    counts["cfgcache.hits"] += schedule.cache_stats.hits
    counts["cfgcache.accesses"] += schedule.cache_stats.accesses


def _compute_schedule_hook(counts, args, kwargs, result, seconds):
    counts["walk.calls"] += 1
    params = _first(args, kwargs, "params")
    kind = "spec" if params.frontend is not None else "clean"
    counts[f"walk.{kind}_launches"] += result.n_launches
    counts[f"walk.{kind}_busy_s"] += seconds
    if kwargs.get("allocator") is None and len(args) < 3:
        # Policy-independent walk: only shared_schedule asks for one,
        # so this is a memo miss of that call (which counts the result).
        counts["walk.memo_misses"] += 1
    else:
        _modelled(counts, result)


def _shared_schedule_hook(counts, args, kwargs, result, seconds):
    counts["walk.shared_calls"] += 1
    _modelled(counts, result)


def _dbt_hook(counts, args, kwargs, result, seconds):
    counts["dbt.calls"] += 1
    counts["dbt.units"] += result is not None


def _map_hook(counts, args, kwargs, result, seconds):
    counts["map.units"] += 1


def _replay_hook(counts, args, kwargs, result, seconds):
    schedule = _first(args, kwargs, "schedule")
    policy = _first(args, kwargs, "policy", 2)
    granularity = getattr(policy, "plan_granularity", "launch")
    counts["replay.calls"] += 1
    counts["replay.launches"] += schedule.n_launches
    counts[f"replay.{granularity}.launches"] += schedule.n_launches
    counts[f"replay.{granularity}.busy_s"] += seconds


def _alloc_hook(counts, args, kwargs, result, seconds):
    counts["alloc.scalar_calls"] += 1


def _gpp_hook(counts, args, kwargs, result, seconds):
    counts["gpp_ref.calls"] += 1


def _device_lifetimes_hook(counts, args, kwargs, result, seconds):
    counts["aging.devices"] += len(result)


def _expand_hook(counts, args, kwargs, result, seconds):
    counts["fleet.devices"] += _first(args, kwargs, "shard", 1).n_devices


def _campaign_hook(counts, args, kwargs, result, seconds):
    counts["campaign.points"] += len(result.runs)


def _calls_hook(name):
    def hook(counts, args, kwargs, result, seconds):
        counts[name] += 1
    return hook


#: layer -> [(module, attribute or Class.method, counter hook or None)].
LAYERS = {
    "trace": [("repro.sim.cpu", "CPU.run", _trace_hook)],
    "frontend": [
        ("repro.frontend.speculative", "speculative_trace", _frontend_hook)
    ],
    "walk": [
        ("repro.system.schedule", "compute_schedule", _compute_schedule_hook),
        ("repro.system.schedule", "shared_schedule", _shared_schedule_hook),
    ],
    "dbt": [("repro.dbt.translator", "DBTEngine.translate_at", _dbt_hook)],
    "map": [
        ("repro.mapping.annealing", "SimulatedAnnealingMapper.map_unit",
         _map_hook),
    ],
    "replay": [("repro.system.schedule", "replay_schedule", _replay_hook)],
    "alloc.scalar": [
        ("repro.core.allocator", "ConfigurationAllocator.allocate",
         _alloc_hook),
    ],
    "gpp_ref": [("repro.system.schedule", "gpp_reference", _gpp_hook)],
    "aging": [
        ("repro.aging.lifetime", "device_lifetimes", _device_lifetimes_hook),
        ("repro.aging.nbti", "NBTIModel.years_to_degradation", None),
    ],
    "fleet.profiles": [
        ("repro.fleet.runner", "FleetRunner.stress_profiles", None)
    ],
    "fleet.expand": [("repro.fleet.runner", "expand_shard", _expand_hook)],
    "fleet.mix": [("repro.fleet.spec", "FleetSpec.device_weights", None)],
    "fleet.record": [
        ("repro.fleet.store", "ShardRecord.from_lifetimes", None)
    ],
    "fleet.store": [("repro.fleet.store", "ResultStore.append", None)],
    "fleet.merge": [("repro.fleet.store", "merge_records", None)],
    "campaign": [
        ("repro.campaign.runner", "CampaignRunner.run", _campaign_hook)
    ],
    "io": [
        ("repro.campaign.artifacts", "write_json", _calls_hook("io.calls"))
    ],
    "render": [
        (f"repro.experiments.{name}", "render", _calls_hook("render.calls"))
        for name in EXPERIMENTS
    ],
}

#: Layers timed by the benchmark itself rather than by a wrapped call.
DIRECT_LAYERS = ("import",)

ALL_LAYERS = DIRECT_LAYERS + tuple(LAYERS)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[layer, start, end, parent_index]`` lists; the
    parent is the innermost span open when the span began (``-1`` at
    top level). ``counts`` accumulates the counter hooks' work counts.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list = []

    # -- spans -----------------------------------------------------------

    def begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError("spans must close in LIFO order")
        return span[2] - span[1]

    def wrap(self, layer: str, func, hook=None):
        """``func`` with a span of ``layer`` around every call and
        ``hook`` applied to its result."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = self.end(index)
            if hook is not None:
                hook(self.counts, args, kwargs, result, seconds)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS`."""
        for layer, targets in LAYERS.items():
            for module_name, attribute, hook in targets:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    self._wrap_method(module, attribute, layer, hook)
                else:
                    self._wrap_function(module, attribute, layer, hook)

    def _wrap_method(self, module, attribute, layer, hook) -> None:
        class_name, method_name = attribute.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method_name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(layer, raw.__func__, hook))
        else:
            wrapped = self.wrap(layer, raw, hook)
        setattr(owner, method_name, wrapped)
        self._restore.append((owner, method_name, raw))

    def _wrap_function(self, module, attribute, layer, hook) -> None:
        original = getattr(module, attribute)
        wrapped = self.wrap(layer, original, hook)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._restore.append((loaded, key, original))

    def uninstall(self) -> None:
        """Undo :meth:`install` (newest binding first)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- folding -----------------------------------------------------------

    def summary(self, window_start: float, window_end: float) -> dict:
        """Fold the closed spans into per-layer busy and self seconds.

        Returns ``{"wall_s", "busy_s": {layer: s}, "self_s": {layer: s},
        "other_s"}``; every layer of :data:`ALL_LAYERS` is present.
        """
        busy = dict.fromkeys(ALL_LAYERS, 0.0)
        self_time = dict.fromkeys(ALL_LAYERS, 0.0)
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for index, (layer, start, end, parent) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {layer!r} was never closed")
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            else:
                top_level += duration
            if not self._inside_same_layer(index):
                busy[layer] += duration
        for index, (layer, start, end, _) in enumerate(self.spans):
            self_time[layer] += (end - start) - child_time[index]
        wall = window_end - window_start
        return {
            "wall_s": wall,
            "busy_s": busy,
            "self_s": self_time,
            "other_s": wall - top_level,
        }

    def _inside_same_layer(self, index: int) -> bool:
        layer = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False
