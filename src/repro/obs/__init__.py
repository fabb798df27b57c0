"""repro.obs — lightweight, dependency-free telemetry.

Counters, value summaries and phase timers (:mod:`repro.obs.core`),
Chrome trace-event span capture (:mod:`repro.obs.tracing`) and a
structured stderr logger (:mod:`repro.obs.log`), wired through the
whole pipeline: the schedule walk, batch replay, config cache, the
mappers and the campaign runner all record here when telemetry is
enabled.

Disabled (the default) everything is a near-zero no-op — one flag
check per event — and no output changes anywhere. Enable with
``REPRO_TELEMETRY=1``, :func:`set_enabled`, or the ``--profile`` flag
of ``repro.experiments`` (which additionally captures spans to a trace
file).

Quick start::

    from repro import obs

    obs.set_enabled(True)
    with obs.span("my.phase", detail="useful"):
        ...
    obs.count("my.counter")
    print(obs.snapshot().counters)
"""

from repro.obs import log, tracing
from repro.obs.core import (
    TELEMETRY_ENV,
    Stopwatch,
    TelemetrySnapshot,
    absorb,
    count,
    enabled,
    note,
    observe,
    reset,
    set_enabled,
    snapshot,
    span,
    state,
    telemetry,
    timed,
)

__all__ = [
    "TELEMETRY_ENV",
    "Stopwatch",
    "TelemetrySnapshot",
    "absorb",
    "count",
    "enabled",
    "log",
    "note",
    "observe",
    "reset",
    "set_enabled",
    "snapshot",
    "span",
    "state",
    "telemetry",
    "timed",
    "tracing",
]
