"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
:func:`checked_ratio` is the one ratio helper that raises instead of
guessing a value for a zero denominator, and :func:`check_kwargs` the
one check that a registered component takes the keyword arguments it
is configured with.
"""

from __future__ import annotations

import inspect


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class AssemblyError(ReproError):
    """Raised when assembly source cannot be parsed or resolved.

    Attributes:
        line: 1-based source line number where the error occurred, or
            ``None`` when the error is not tied to a single line.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Raised when the functional simulator hits an illegal state."""


class MemoryAccessError(SimulationError):
    """Raised on misaligned or otherwise invalid memory accesses."""


class ConfigurationError(ReproError):
    """Raised when a CGRA configuration or system parameter is invalid."""


class AllocationError(ReproError):
    """Raised when an allocation policy produces an invalid placement."""


class ExecutionError(ReproError):
    """Raised when the resilient execution layer cannot complete a task
    (worker loss, timeout, exhausted retries)."""


class WorkerCrashError(ExecutionError):
    """Raised when a pool worker died (broken process pool) while a
    task was in flight — retryable by default."""


class TaskTimeoutError(ExecutionError):
    """Raised when a task exceeded its per-task wall-clock timeout —
    retryable by default (the worker may simply have been slow)."""


class InjectedFaultError(ExecutionError):
    """Raised by the fault-injection harness (:mod:`repro.resilience`)
    at a ``task.error`` site — only ever seen under an active
    :class:`~repro.resilience.faults.FaultPlan`."""


class MappingError(ReproError):
    """Raised when a mapper produces an illegal virtual configuration."""


def checked_ratio(numerator: float, denominator: float, name: str) -> float:
    """``numerator / denominator`` for the reported ratio ``name``.

    Raises:
        ConfigurationError: on a zero denominator — a 1.0 fallback
            would silently report a degenerate run as parity.
    """
    if denominator == 0:
        raise ConfigurationError(
            f"{name} undefined: zero denominator (degenerate run) — a "
            "1.0 fallback would silently report parity"
        )
    return numerator / denominator


def check_kwargs(kind: str, name: str, cls: type, kwargs: dict) -> None:
    """Check that ``cls``, the registered ``kind`` (``"policy"``,
    ``"mapper"``) called ``name``, takes every keyword of ``kwargs``.

    Raises:
        ConfigurationError: naming the component and the keyword, so a
            misspelt or retired option fails where it is configured,
            not as a bare ``TypeError`` inside a walk.
    """
    signature = inspect.signature(cls)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        accepted = list(signature.parameters) or "no arguments"
        raise ConfigurationError(
            f"{kind} {name!r}: {exc}; it takes {accepted}"
        ) from None
