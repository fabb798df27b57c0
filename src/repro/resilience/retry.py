"""Bounded retries with deterministic, seeded backoff.

:class:`RetryPolicy` answers the three questions every retrying caller
asks — *should this exception be retried*, *how many times*, and *how
long to wait* — with answers that are pure functions of the policy's
configuration: the backoff sequence for a given task key is identical
in every run and every process (jitter comes from a SHA-256 hash of
``(seed, key, attempt)``, never from wall-clock or a shared RNG), so
retried executions stay reproducible and property-testable.

Classification is explicit: transient infrastructure failures
(:class:`~repro.errors.WorkerCrashError`,
:class:`~repro.errors.TaskTimeoutError`, ``OSError``, ...) are
retryable; deterministic task bugs
(:class:`~repro.errors.ConfigurationError` and friends) are not — a
task that failed on bad input fails identically on every retry, so it
is quarantined immediately instead of burning attempts.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.errors import (
    AllocationError,
    AssemblyError,
    ConfigurationError,
    InjectedFaultError,
    MappingError,
    SimulationError,
    TaskTimeoutError,
    WorkerCrashError,
)

__all__ = ["RetryPolicy"]

#: Default transient failure types (retrying can help).
RETRYABLE_TYPES: tuple[type[BaseException], ...] = (
    WorkerCrashError,
    TaskTimeoutError,
    InjectedFaultError,
    BrokenExecutor,
    OSError,
    TimeoutError,
    ConnectionError,
)

#: Default deterministic failure types (retrying cannot help). Checked
#: before the retryable set, so e.g. a ConfigurationError never
#: retries even though it is a ReproError.
NON_RETRYABLE_TYPES: tuple[type[BaseException], ...] = (
    ConfigurationError,
    AssemblyError,
    SimulationError,
    AllocationError,
    MappingError,
    ValueError,
    TypeError,
    KeyError,
)


def _stable_unit(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1)."""
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + exponential backoff with seeded jitter.

    Attributes:
        max_attempts: total tries per task (1 = no retries).
        base_delay: delay before the first retry (seconds).
        backoff: multiplier per further retry.
        max_delay: cap on the un-jittered delay.
        jitter: fraction of the delay added as deterministic jitter
            (``delay * (1 + jitter * u)`` with ``u`` hashed from
            ``(seed, key, attempt)``).
        seed: jitter seed — same seed, same key, same delays.
        retryable_types / non_retryable_types: classification sets;
            non-retryable wins on overlap.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable_types: tuple[type[BaseException], ...] = RETRYABLE_TYPES
    non_retryable_types: tuple[type[BaseException], ...] = NON_RETRYABLE_TYPES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must be >= 1.0, got {self.backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    # -- classification ----------------------------------------------------

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt."""
        if isinstance(error, self.non_retryable_types):
            return False
        return isinstance(error, self.retryable_types)

    def should_retry(self, error: BaseException, attempts: int) -> bool:
        """Whether a task that has already run ``attempts`` times and
        just raised ``error`` should be requeued."""
        return attempts < self.max_attempts and self.retryable(error)

    # -- backoff -----------------------------------------------------------

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based) of task
        ``key`` — deterministic in (seed, key, attempt)."""
        raw = min(self.max_delay, self.base_delay * self.backoff**attempt)
        return raw * (1.0 + self.jitter * _stable_unit(self.seed, key, attempt))

    def delays(self, key: str) -> tuple[float, ...]:
        """The full backoff sequence of ``key`` (one delay per retry)."""
        return tuple(
            self.delay(key, attempt)
            for attempt in range(self.max_attempts - 1)
        )
