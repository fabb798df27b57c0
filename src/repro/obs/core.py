"""Telemetry registry: named counters, value stats and phase timers.

The registry is process-wide and **disabled by default**: every
recording entry point checks one module-level flag before doing any
work, so instrumented hot paths pay a single attribute test (plus one
function call for the convenience wrappers) when telemetry is off —
the golden experiment outputs and the repository benchmark
(``perfbench/``) are measured in exactly this state. Set
``REPRO_TELEMETRY=1`` in the environment, call :func:`set_enabled`, or
use the ``--profile`` flag of ``repro.experiments`` to turn it on.

Three primitive families share the registry:

* **counters** (:func:`count`) — monotonically increasing named ints
  (launches, cache hits, SA moves accepted, ...);
* **values** (:func:`observe`) — min/max/total/count summaries of a
  named quantity (histogram-style aggregation without buckets);
* **timers** (:func:`span`, :func:`timed`) —
  min/max/total/count of wall-clock durations, one entry per phase
  name. When span capture is active
  (:func:`repro.obs.tracing.start`), every recorded timer also emits
  a Chrome trace-event so the run can be opened in Perfetto.

:func:`snapshot` freezes everything into a picklable
:class:`TelemetrySnapshot`; :func:`absorb` merges another process's
snapshot into the live registry (how the campaign runner aggregates
pool workers).

Instrumentation sites that cannot afford even a no-op function call
per event may import ``state`` directly and guard with
``if state.enabled:`` before formatting counter names.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field

__all__ = [
    "TelemetrySnapshot",
    "Stopwatch",
    "absorb",
    "count",
    "enabled",
    "note",
    "observe",
    "reset",
    "set_enabled",
    "snapshot",
    "span",
    "state",
    "telemetry",
    "timed",
]

#: Environment variable that enables telemetry at import time
#: (``1``/``true``/``on``/``yes``, case-insensitive).
TELEMETRY_ENV = "REPRO_TELEMETRY"

# Aggregate slots: [count, total, min, max] — lists, not dataclasses,
# so the enabled-mode record path is two dict lookups and four stores.
_COUNT, _TOTAL, _MIN, _MAX = range(4)


class _State:
    """Process-wide registry (one instance, module-level)."""

    __slots__ = ("enabled", "counters", "values", "timers", "notes")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, int] = {}
        self.values: dict[str, list] = {}
        self.timers: dict[str, list] = {}
        self.notes: dict[str, str] = {}

    def clear(self) -> None:
        self.counters.clear()
        self.values.clear()
        self.timers.clear()
        self.notes.clear()


#: The live registry. Public so hot instrumentation sites can guard
#: with ``if state.enabled:`` instead of paying a wrapper call.
state = _State()

state.enabled = os.environ.get(TELEMETRY_ENV, "").strip().lower() in (
    "1",
    "true",
    "on",
    "yes",
)


def enabled() -> bool:
    """Whether telemetry recording is currently on."""
    return state.enabled


def set_enabled(on: bool) -> bool:
    """Turn recording on/off; returns the previous setting."""
    previous = state.enabled
    state.enabled = bool(on)
    return previous


@contextlib.contextmanager
def telemetry(on: bool = True):
    """Scoped :func:`set_enabled` (tests, profiled sections)."""
    previous = set_enabled(on)
    try:
        yield state
    finally:
        set_enabled(previous)


def reset() -> None:
    """Drop every recorded counter/value/timer/note (the enabled flag
    is left alone)."""
    state.clear()


# ----------------------------------------------------------------------
# Recording primitives


def count(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op while disabled)."""
    if not state.enabled:
        return
    counters = state.counters
    counters[name] = counters.get(name, 0) + value


def observe(name: str, value: float) -> None:
    """Fold ``value`` into the min/max/total/count summary ``name``."""
    if not state.enabled:
        return
    _record(state.values, name, value)


def note(name: str, message: str) -> None:
    """Record a one-line diagnostic string (last write wins) — e.g.
    kernel-fallback reasons that would otherwise only be a warning."""
    if not state.enabled:
        return
    state.notes[name] = str(message)


def _record(table: dict[str, list], name: str, value: float) -> None:
    entry = table.get(name)
    if entry is None:
        table[name] = [1, value, value, value]
        return
    entry[_COUNT] += 1
    entry[_TOTAL] += value
    if value < entry[_MIN]:
        entry[_MIN] = value
    if value > entry[_MAX]:
        entry[_MAX] = value


# ----------------------------------------------------------------------
# Timers and spans


class Stopwatch:
    """Context manager timing one named block (the enabled-mode span).

    Measures ``.elapsed`` in seconds; on exit records a phase-timer
    entry — and a trace event while span capture is active — if
    telemetry is still enabled. ``args`` become trace-event ``args``.
    """

    __slots__ = ("name", "args", "elapsed", "_t0")

    def __init__(self, name: str, args: dict | None = None):
        self.name = name
        self.args = args
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        if state.enabled:
            _record(state.timers, self.name, self.elapsed)
            from repro.obs import tracing

            if tracing.active():
                tracing.add_complete_event(
                    self.name, self.elapsed, self.args
                )
        return False


class _NullSpan:
    """Shared no-op span: the disabled-mode fast path allocates
    nothing and records nothing."""

    __slots__ = ()

    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **args):
    """A recording :class:`Stopwatch` when telemetry is enabled, else
    a shared no-op (the instrumentation-site entry point)."""
    if not state.enabled:
        return _NULL_SPAN
    return Stopwatch(name, args or None)


def timed(name: str):
    """Decorator form of :func:`span`."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*fargs, **fkwargs):
            if not state.enabled:
                return func(*fargs, **fkwargs)
            with Stopwatch(name):
                return func(*fargs, **fkwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Snapshots


def _summaries(table: dict[str, list], total_key: str) -> dict[str, dict]:
    return {
        name: {
            "count": entry[_COUNT],
            total_key: entry[_TOTAL],
            "min": entry[_MIN],
            "max": entry[_MAX],
        }
        for name, entry in table.items()
    }


@dataclass
class TelemetrySnapshot:
    """Frozen, picklable view of one process's telemetry registry.

    ``timers`` map phase names to ``{count, total_s, min, max}``
    (seconds); ``values`` use ``total`` instead of ``total_s``.
    ``trace_events`` carries the process's Chrome trace-event buffer
    when span capture was active (so pool workers' spans survive the
    trip back to the parent), else it is empty.
    """

    counters: dict[str, int] = field(default_factory=dict)
    values: dict[str, dict] = field(default_factory=dict)
    timers: dict[str, dict] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    trace_events: list[dict] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.counters or self.values or self.timers or self.notes
        )

    def timer_total(self, name: str) -> float:
        """Total recorded seconds of phase ``name`` (0.0 if absent)."""
        entry = self.timers.get(name)
        return float(entry["total_s"]) if entry else 0.0

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold ``other`` into this snapshot (in place; returns self).

        Counters and totals add; mins/maxes extremise; notes keep the
        other side's message (last writer wins); trace events append.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for table, total_key in (
            (("values", other.values), "total"),
            (("timers", other.timers), "total_s"),
        ):
            attr, source = table
            target = getattr(self, attr)
            for name, entry in source.items():
                mine = target.get(name)
                if mine is None:
                    target[name] = dict(entry)
                    continue
                mine["count"] += entry["count"]
                mine[total_key] += entry[total_key]
                mine["min"] = min(mine["min"], entry["min"])
                mine["max"] = max(mine["max"], entry["max"])
        self.notes.update(other.notes)
        self.trace_events.extend(other.trace_events)
        return self


def snapshot() -> TelemetrySnapshot:
    """Freeze the live registry (plus any active trace buffer) into a
    :class:`TelemetrySnapshot`."""
    from repro.obs import tracing

    return TelemetrySnapshot(
        counters=dict(state.counters),
        values=_summaries(state.values, "total"),
        timers=_summaries(state.timers, "total_s"),
        notes=dict(state.notes),
        trace_events=list(tracing.events()),
    )


def absorb(snap: TelemetrySnapshot | None) -> None:
    """Merge a (worker) snapshot into the live registry.

    Trace events are appended to the active trace buffer (dropped when
    span capture is off — there is nowhere to put them).
    """
    if snap is None:
        return
    for name, value in snap.counters.items():
        state.counters[name] = state.counters.get(name, 0) + value
    for source, table, total_key in (
        (snap.values, state.values, "total"),
        (snap.timers, state.timers, "total_s"),
    ):
        for name, entry in source.items():
            mine = table.get(name)
            if mine is None:
                table[name] = [
                    entry["count"],
                    entry[total_key],
                    entry["min"],
                    entry["max"],
                ]
                continue
            mine[_COUNT] += entry["count"]
            mine[_TOTAL] += entry[total_key]
            if entry["min"] < mine[_MIN]:
                mine[_MIN] = entry["min"]
            if entry["max"] > mine[_MAX]:
                mine[_MAX] = entry["max"]
    state.notes.update(snap.notes)
    if snap.trace_events:
        from repro.obs import tracing

        tracing.extend(snap.trace_events)
