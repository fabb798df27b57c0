"""Deterministic, seeded fault injection for the execution layer.

A :class:`FaultPlan` names *sites* — fixed points in the pipeline where
a failure mode can be provoked — and per-site :class:`FaultSpec`\\ s
decide *which* invocations fire. Every failure mode the resilient
executor recovers from is therefore reproducible in CI:

========================  =============================================
site                      effect when fired
========================  =============================================
``worker.crash``          pool worker dies hard (``os._exit``) — the
                          parent sees a broken process pool. Inline
                          (serial / degraded-serial) execution raises
                          :class:`~repro.errors.WorkerCrashError`
                          instead of killing the process.
``worker.hang``           the task sleeps ``seconds`` before running —
                          the parent's per-task timeout must fire.
``task.error``            raises :class:`~repro.errors.InjectedFaultError`
                          inside the task.
``store.append``          raises ``OSError`` inside
                          :meth:`~repro.fleet.store.ResultStore.append`
                          (a full disk / dead mount).
========================  =============================================

Firing is **deterministic**: a spec fires on the first ``times``
matching calls of its site (per process), optionally restricted to a
task-key substring (``match``), to early attempts (``max_attempt`` —
the executor publishes the current task key and attempt through
:func:`set_context`, so "crash on the first try, succeed on retry" is
expressible), and sub-sampled by a *seeded* ``rate`` draw that hashes
``(seed, site, key, attempt, call)`` — the same plan fires the same
calls in every run and in every worker process.

Activation: :func:`activate` (the executor also ships the active plan
to pool workers inside task payloads) or the ``REPRO_FAULTS``
environment variable holding the plan as JSON. With no plan active
every site is a single ``is None`` check — the fault-free hot path
stays free.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from repro import obs
from repro.errors import ConfigurationError, InjectedFaultError, WorkerCrashError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "activate",
    "active_plan",
    "deactivate",
    "fired_counts",
    "maybe_fire",
    "set_context",
    "set_inline",
]

#: Environment variable holding a JSON-encoded fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Every site; :func:`maybe_fire` performs each one's action.
KNOWN_SITES = ("worker.crash", "worker.hang", "task.error", "store.append")


def _stable_unit(seed: int, site: str, key: str, attempt: int, call: int) -> float:
    """Deterministic uniform draw in [0, 1) — stable across processes
    and Python hash randomization."""
    digest = hashlib.sha256(
        f"{seed}:{site}:{key}:{attempt}:{call}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *when* a site fires.

    Attributes:
        site: the instrumentation site this rule arms.
        match: substring of the executor task key (``""`` matches any
            call, including sites outside a task context).
        times: maximum fires per process (``None`` = unlimited).
        max_attempt: fire only while the task attempt is below this
            (``None`` = any attempt). The default 1 means "first try
            fails, retries succeed" — the shape every recovery test
            wants.
        rate: seeded sub-sampling of otherwise-matching calls.
        seconds: sleep duration for ``worker.hang``.
        seed: seed of the ``rate`` draw.
    """

    site: str
    match: str = ""
    times: int | None = 1
    max_attempt: int | None = 1
    rate: float = 1.0
    seconds: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known: {KNOWN_SITES}"
            )

    def to_jsonable(self) -> dict:
        return {
            "site": self.site,
            "match": self.match,
            "times": self.times,
            "max_attempt": self.max_attempt,
            "rate": self.rate,
            "seconds": self.seconds,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultSpec":
        return cls(
            site=str(payload["site"]),
            match=str(payload.get("match", "")),
            times=payload.get("times", 1),
            max_attempt=payload.get("max_attempt", 1),
            rate=float(payload.get("rate", 1.0)),
            seconds=float(payload.get("seconds", 30.0)),
            seed=int(payload.get("seed", 0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec`\\ s (picklable and
    JSON-round-trippable so it can ride in pool-task payloads and the
    ``REPRO_FAULTS`` environment variable)."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def single(cls, site: str, **kwargs) -> "FaultPlan":
        return cls(specs=(FaultSpec(site, **kwargs),))

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.site == site)

    def to_jsonable(self) -> list[dict]:
        return [spec.to_jsonable() for spec in self.specs]

    @classmethod
    def from_jsonable(cls, payload: list) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec.from_jsonable(item) for item in payload)
        )

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        try:
            payload = json.loads(value)
        except ValueError as error:
            raise ConfigurationError(
                f"{FAULTS_ENV} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, list):
            raise ConfigurationError(
                f"{FAULTS_ENV} must be a JSON list of fault specs"
            )
        return cls.from_jsonable(payload)


class _Runtime:
    """Per-process injection state (plan + call/fire counters +
    executor task context)."""

    __slots__ = ("plan", "calls", "fires", "key", "attempt", "inline")

    def __init__(self) -> None:
        self.plan: FaultPlan | None = None
        self.calls: dict[str, int] = {}
        self.fires: dict[str, int] = {}
        self.key = ""
        self.attempt = 0
        self.inline = False


_runtime = _Runtime()
_env_checked = False


def activate(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` (resetting call/fire counters); returns the
    previously active plan."""
    global _env_checked
    _env_checked = True
    previous = _runtime.plan
    _runtime.plan = plan
    _runtime.calls.clear()
    _runtime.fires.clear()
    return previous


def deactivate() -> None:
    activate(None)


def active_plan() -> FaultPlan | None:
    """The active plan; reads ``REPRO_FAULTS`` lazily on first call so
    spawned pool workers inherit an environment-armed plan."""
    global _env_checked
    if _runtime.plan is None and not _env_checked:
        _env_checked = True
        value = os.environ.get(FAULTS_ENV, "").strip()
        if value:
            _runtime.plan = FaultPlan.from_env(value)
    return _runtime.plan


def set_context(key: str | None, attempt: int = 0) -> None:
    """Publish the executor's current task key and attempt (cleared
    with ``set_context(None)``)."""
    _runtime.key = key or ""
    _runtime.attempt = attempt


def set_inline(on: bool) -> None:
    """Mark in-process execution: ``worker.crash`` degrades to raising
    :class:`~repro.errors.WorkerCrashError` instead of ``os._exit``
    (which would kill the parent, not a worker)."""
    _runtime.inline = bool(on)


def fired_counts() -> dict[str, int]:
    """Fires per site in this process (chaos-smoke accounting)."""
    return dict(_runtime.fires)


def _should_fire(site: str) -> FaultSpec | None:
    plan = active_plan()
    if plan is None:
        return None
    specs = plan.for_site(site)
    if not specs:
        return None
    call = _runtime.calls.get(site, 0)
    _runtime.calls[site] = call + 1
    for spec in specs:
        if spec.match and spec.match not in _runtime.key:
            continue
        if spec.max_attempt is not None and _runtime.attempt >= spec.max_attempt:
            continue
        if spec.times is not None and _runtime.fires.get(site, 0) >= spec.times:
            continue
        if spec.rate < 1.0 and (
            _stable_unit(spec.seed, site, _runtime.key, _runtime.attempt, call)
            >= spec.rate
        ):
            continue
        _runtime.fires[site] = _runtime.fires.get(site, 0) + 1
        obs.count(f"faults.fired.{site}")
        return spec
    return None


def maybe_fire(site: str) -> None:
    """Perform ``site``'s failure action if the active plan says this
    invocation fires; no-op (one ``is None`` check) otherwise."""
    if _runtime.plan is None and _env_checked:
        return
    spec = _should_fire(site)
    if spec is None:
        return
    if site == "worker.crash":
        if _runtime.inline:
            raise WorkerCrashError(
                f"injected inline worker crash (key={_runtime.key!r})"
            )
        os._exit(3)
    if site == "worker.hang":
        time.sleep(spec.seconds)
        return
    if site == "task.error":
        raise InjectedFaultError(
            f"injected task error (key={_runtime.key!r}, "
            f"attempt={_runtime.attempt})"
        )
    if site == "store.append":
        raise OSError(f"injected store append failure (key={_runtime.key!r})")
