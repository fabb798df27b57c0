"""JSON artifact helpers: generic serialization for result objects."""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.utilization import UtilizationTracker
from repro.obs import TelemetrySnapshot


def _key(key: object) -> str:
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


def to_jsonable(obj: object) -> object:
    """Convert result objects (dataclasses, numpy, trackers) to plain
    JSON-serializable structures.

    Unknown objects fall back to ``str`` so a dump never fails on an
    exotic field — artifacts prefer lossy completeness over crashes.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, UtilizationTracker):
        return {
            "execution_counts": obj.execution_counts.tolist(),
            "cycle_counts": obj.cycle_counts.tolist(),
            "total_executions": obj.total_executions,
            "total_cycles": obj.total_cycles,
            "n_configs": obj.n_configs,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        members = [to_jsonable(value) for value in obj]
        try:
            return sorted(members)
        except TypeError:
            # Mixed-type sets (e.g. {1, "a"}) have no natural ordering;
            # a (type name, repr) key is total and deterministic for
            # any mix, keeping the never-fails contract above.
            return sorted(
                members,
                key=lambda value: (type(value).__name__, repr(value)),
            )
    return str(obj)


def write_json(path: str | Path, payload: object) -> Path:
    """Serialize ``payload`` (via :func:`to_jsonable`) to ``path``.

    Parent directories are created; returns the written path. The
    write is atomic (temp file in the same directory + ``os.replace``):
    a crash or killed pool worker mid-campaign can never leave a
    truncated artifact on disk — readers see either the previous
    complete file or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(to_jsonable(payload), handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def write_telemetry(path: str | Path, snap: TelemetrySnapshot) -> Path:
    """Write one merged telemetry snapshot as a JSON artifact.

    The trace-event buffer is summarised to its length — full traces
    belong in a trace file (:func:`repro.obs.tracing.write`), not in
    the campaign summary.
    """
    payload = {
        "counters": snap.counters,
        "values": snap.values,
        "timers": snap.timers,
        "notes": snap.notes,
        "n_trace_events": len(snap.trace_events),
    }
    return write_json(path, payload)
