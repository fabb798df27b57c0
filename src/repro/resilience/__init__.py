"""repro.resilience — fault injection, retries, resilient execution.

The layer between the campaign/fleet runners and
``ProcessPoolExecutor``: deterministic seeded fault injection
(:mod:`repro.resilience.faults`) so every failure mode is testable in
CI, retry classification and seeded backoff
(:mod:`repro.resilience.retry`), and a pool wrapper
(:mod:`repro.resilience.executor`) that survives worker crashes,
hangs and transient task failures — rebuilding pools, requeueing
unfinished work, quarantining poison tasks as structured
:class:`~repro.resilience.executor.TaskFailure` records, and degrading
to serial in-process execution when the pool keeps breaking.
Successful results are bit-identical no matter how many recoveries
occurred.

The package exports only :class:`RetryPolicy`, which every runner
takes as an option. The pool and the fault plans are imported from
their submodules (``repro.resilience.executor``,
``repro.resilience.faults``), so a process that runs nothing in
parallel never loads ``multiprocessing``.
"""

from repro.resilience.retry import RetryPolicy

__all__ = ["RetryPolicy"]
