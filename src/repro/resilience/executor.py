"""Fault-tolerant process-pool execution with requeue and degradation.

:class:`ResilientExecutor` runs a list of picklable task payloads
through one worker function and keeps going where a bare
``ProcessPoolExecutor`` would abort the whole campaign:

* **Worker crashes** (OOM kill, segfault, injected ``os._exit``) break
  the pool; the executor detects the broken pool (while waiting, or at
  the next submit), delivers the in-flight tasks that had finished,
  counts every other in-flight task as a crash attempt (the culprit is
  unknowable — the innocents succeed on requeue), rebuilds the pool
  and requeues. A task whose submit found the pool broken never ran
  and requeues without a charge.
* **Hangs** are bounded by a per-task wall-clock ``task_timeout``
  (measured from submission; submissions are capped at ``max_workers``
  in flight so a queued task's clock never runs while it waits). A
  timed-out task is charged an attempt; its pool is rebuilt — the hung
  worker cannot be reclaimed — and the other in-flight tasks requeue
  *without* an attempt charge.
* **Task exceptions** are classified by the :class:`RetryPolicy`:
  transient failures back off (deterministic seeded jitter) and
  requeue; deterministic bugs and tasks that exhausted their attempts
  are **quarantined** as structured :class:`TaskFailure` records — the
  rest of the campaign completes.
* **Repeated pool breakage** (more than ``max_pool_rebuilds``) drops
  to serial in-process execution for the remaining tasks — graceful
  degradation: slower, but the campaign finishes. Inline execution
  arms :func:`repro.resilience.faults.set_inline`, so an injected
  "crash" raises instead of killing the parent.

Because task functions are deterministic in their payloads, results
are **bit-identical** no matter how many retries, requeues or
degradations occurred — the property the campaign/fleet runners'
equivalence suites pin.

Completion order is whatever failure recovery makes it; results are
returned index-aligned with the payloads, and the optional
``on_result`` callback streams them as they land (at most once per
task — a timed-out task whose abandoned worker later finishes is
never double-delivered).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro import obs
from repro.errors import TaskTimeoutError, WorkerCrashError
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy

__all__ = ["ExecutionReport", "ResilientExecutor", "TaskFailure"]


@dataclass
class TaskFailure:
    """One quarantined task: what failed, how, after how many tries."""

    key: str
    kind: str  # "error" | "timeout" | "crash"
    error_type: str
    message: str
    attempts: int
    #: Runner-filled context (e.g. the design-point keys or shard
    #: indices the task covered).
    detail: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "detail": dict(self.detail),
        }


@dataclass
class ExecutionReport:
    """Outcome of one :meth:`ResilientExecutor.run`.

    ``results`` is index-aligned with the submitted payloads (``None``
    where the task was quarantined — check ``failures`` for why).
    """

    results: list
    failures: list[TaskFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded_serial: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


class _Task:
    __slots__ = ("index", "key", "payload", "attempts", "not_before")

    def __init__(self, index: int, key: str, payload) -> None:
        self.index = index
        self.key = key
        self.payload = payload
        self.attempts = 0
        self.not_before = 0.0


def _run_task(bundle):
    """Worker-side trampoline: arm the shipped fault plan, publish the
    task context, walk the injection sites, run the task."""
    fn, payload, key, attempt, plan_payload = bundle
    if plan_payload is not None:
        faults.activate(faults.FaultPlan.from_jsonable(plan_payload))
    faults.set_context(key, attempt)
    try:
        faults.maybe_fire("worker.crash")
        faults.maybe_fire("worker.hang")
        faults.maybe_fire("task.error")
        return fn(payload)
    finally:
        faults.set_context(None)


class ResilientExecutor:
    """Runs deterministic tasks on a process pool, surviving worker
    loss, hangs and transient task failures.

    Args:
        fn: picklable module-level worker function of one payload.
        max_workers: pool width; ``<= 1`` runs everything inline (the
            degraded-serial path, without a pool to break).
        retry: attempt budget + backoff + classification
            (default :class:`RetryPolicy`).
        task_timeout: per-task wall-clock budget in seconds
            (``None`` = unbounded).
        max_pool_rebuilds: pool breakages tolerated before degrading
            to serial execution for the remainder.
        sleep: injectable sleep (tests pass a recorder).
    """

    def __init__(
        self,
        fn,
        max_workers: int,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_rebuilds: int = 3,
        sleep=time.sleep,
    ) -> None:
        self.fn = fn
        self.max_workers = max_workers
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.max_pool_rebuilds = max_pool_rebuilds
        self.sleep = sleep

    # ------------------------------------------------------------------

    def run(self, payloads, keys=None, on_result=None) -> ExecutionReport:
        """Execute every payload; returns the index-aligned report.

        ``keys`` names tasks for failure records, backoff determinism
        and fault-plan matching (defaults to ``task-<index>``).
        ``on_result(index, result)`` streams successes as they land.
        """
        payloads = list(payloads)
        if keys is None:
            keys = [f"task-{index}" for index in range(len(payloads))]
        else:
            keys = [str(key) for key in keys]
            if len(keys) != len(payloads):
                raise ValueError(
                    f"{len(keys)} keys for {len(payloads)} payloads"
                )
        tasks = [
            _Task(index, key, payload)
            for index, (key, payload) in enumerate(zip(keys, payloads))
        ]
        report = ExecutionReport(results=[None] * len(payloads))
        if not tasks:
            return report
        queue: deque[_Task] = deque(tasks)
        if self.max_workers <= 1:
            self._drain_inline(queue, report, on_result)
            return report
        plan = faults.active_plan()
        plan_payload = plan.to_jsonable() if plan is not None else None
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        inflight: dict = {}  # future -> (task, deadline)
        try:
            while queue or inflight:
                if report.degraded_serial:
                    break
                now = time.monotonic()
                # Submit up to max_workers ready tasks (backoff keeps a
                # requeued task out until its not_before).
                ready = len(
                    [t for t in queue if t.not_before <= now]
                )
                broken = False
                while ready and len(inflight) < self.max_workers:
                    task = self._pop_ready(queue, now)
                    if task is None:
                        break
                    ready -= 1
                    try:
                        future = pool.submit(
                            _run_task,
                            (self.fn, task.payload, task.key, task.attempts,
                             plan_payload),
                        )
                    except BrokenExecutor:
                        # A worker died since the last wait: this task
                        # never ran, so it requeues without a charge.
                        queue.appendleft(task)
                        broken = True
                        break
                    deadline = (
                        now + self.task_timeout
                        if self.task_timeout is not None
                        else float("inf")
                    )
                    inflight[future] = (task, deadline)
                if broken:
                    # Deliver what finished before the pool broke; the
                    # rest is charged below, as when a wait finds it.
                    done = [future for future in inflight if future.done()]
                elif not inflight:
                    # Everything queued is backing off; sleep to the
                    # earliest release.
                    wake = min(task.not_before for task in queue)
                    self.sleep(max(0.0, wake - time.monotonic()))
                    continue
                else:
                    next_deadline = min(dl for _, dl in inflight.values())
                    wait_budget = None
                    if next_deadline != float("inf"):
                        wait_budget = max(
                            0.0, next_deadline - time.monotonic()
                        )
                    done, _ = wait(
                        inflight,
                        timeout=wait_budget,
                        return_when=FIRST_COMPLETED,
                    )
                for future in done:
                    task, _ = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broken = True
                        self._task_failed(
                            task,
                            WorkerCrashError(
                                f"worker died running {task.key!r}"
                            ),
                            "crash",
                            queue,
                            report,
                        )
                    except Exception as error:
                        self._task_failed(task, error, "error", queue, report)
                    else:
                        self._deliver(task, result, report, on_result)
                if broken:
                    # The pool is unusable; every other in-flight task
                    # is charged a crash attempt too (the culprit is
                    # unknowable) and requeued.
                    for future, (task, _) in list(inflight.items()):
                        self._task_failed(
                            task,
                            WorkerCrashError(
                                f"pool broke while {task.key!r} was in flight"
                            ),
                            "crash",
                            queue,
                            report,
                        )
                    inflight.clear()
                    # A broken pool's workers are already dead: wait so
                    # its management thread unwinds cleanly (leaving it
                    # behind trips the interpreter's atexit wakeup on a
                    # closed pipe).
                    pool = self._rebuild(pool, report, wait=True)
                    continue
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in inflight.items()
                    if now >= deadline
                ]
                if expired:
                    for future in expired:
                        task, _ = inflight.pop(future)
                        report.timeouts += 1
                        obs.count("resilience.timeouts")
                        self._task_failed(
                            task,
                            TaskTimeoutError(
                                f"task {task.key!r} exceeded "
                                f"{self.task_timeout}s"
                            ),
                            "timeout",
                            queue,
                            report,
                        )
                    # The hung worker cannot be reclaimed: abandon the
                    # pool. Innocent in-flight tasks requeue without an
                    # attempt charge (their recomputation is free —
                    # tasks are deterministic).
                    for future, (task, _) in list(inflight.items()):
                        future.cancel()
                        task.not_before = 0.0
                        queue.append(task)
                    inflight.clear()
                    pool = self._rebuild(pool, report)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if report.degraded_serial and (queue or inflight):
            for future, (task, _) in list(inflight.items()):
                future.cancel()
                queue.append(task)
            inflight.clear()
            self._drain_inline(queue, report, on_result)
        return report

    # ------------------------------------------------------------------

    @staticmethod
    def _pop_ready(queue: deque, now: float) -> _Task | None:
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.not_before <= now:
                return task
            queue.append(task)
        return None

    def _deliver(self, task: _Task, result, report, on_result) -> None:
        report.results[task.index] = result
        if on_result is not None:
            on_result(task.index, result)

    def _task_failed(
        self,
        task: _Task,
        error: BaseException,
        kind: str,
        queue: deque,
        report: ExecutionReport,
    ) -> None:
        task.attempts += 1
        if self.retry.should_retry(error, task.attempts):
            report.retries += 1
            obs.count("resilience.retries")
            task.not_before = time.monotonic() + self.retry.delay(
                task.key, task.attempts - 1
            )
            queue.append(task)
            return
        report.failures.append(
            TaskFailure(
                key=task.key,
                kind=kind,
                error_type=type(error).__name__,
                message=str(error),
                attempts=task.attempts,
            )
        )
        obs.count("resilience.quarantined")
        obs.log.emit(
            "resilience.quarantined",
            key=task.key,
            kind=kind,
            error=type(error).__name__,
            attempts=task.attempts,
        )

    def _rebuild(self, pool, report: ExecutionReport, wait: bool = False):
        # wait=False abandons a pool with a hung worker (joining it
        # would block for the whole hang); wait=True joins a broken
        # pool, whose processes are already gone.
        pool.shutdown(wait=wait, cancel_futures=True)
        report.pool_rebuilds += 1
        obs.count("resilience.pool_rebuilds")
        if report.pool_rebuilds > self.max_pool_rebuilds:
            report.degraded_serial = True
            obs.count("resilience.degraded_serial")
            obs.log.emit(
                "resilience.degraded_serial",
                rebuilds=report.pool_rebuilds,
                limit=self.max_pool_rebuilds,
            )
            return pool  # unused from here on; run() drains inline
        obs.log.emit("resilience.pool_rebuild", rebuilds=report.pool_rebuilds)
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _drain_inline(self, queue: deque, report, on_result) -> None:
        """Serial in-process execution of the remaining tasks (the
        degraded path, and the whole path for ``max_workers <= 1``).
        No timeout enforcement — there is no worker to abandon."""
        faults.set_inline(True)
        try:
            while queue:
                task = queue.popleft()
                faults.set_context(task.key, task.attempts)
                try:
                    faults.maybe_fire("worker.crash")
                    faults.maybe_fire("worker.hang")
                    faults.maybe_fire("task.error")
                    result = self.fn(task.payload)
                except Exception as error:
                    before = len(report.failures)
                    self._task_failed(task, error, "error", queue, report)
                    if len(report.failures) == before:
                        # Requeued: honour the backoff inline.
                        self.sleep(
                            max(0.0, task.not_before - time.monotonic())
                        )
                        task.not_before = 0.0
                else:
                    self._deliver(task, result, report, on_result)
                finally:
                    faults.set_context(None)
        finally:
            faults.set_inline(False)
