"""Campaign evaluation: serial or process-pool execution of design points.

The runner owns the three scale levers the ROADMAP asks for:

* **Shared memoised traces** — workload traces are design-independent,
  so they are verified once per process (``run_workload`` is cached)
  and warmed *before* a pool forks, letting every worker inherit them
  for free on fork-based platforms.
* **Shared launch schedules** — design points whose pipelines differ
  only in allocation policy (or policy seed) share one
  policy-independent trace walk per workload and fan the policy axis
  out as vectorized replays (:mod:`repro.system.schedule`). Points are
  grouped by :func:`~repro.system.schedule.schedule_key`;
  stress-coupled mappers (e.g. annealing with live stress feedback)
  get one group per point and take the coupled walk.
* **Process-pool parallelism** — schedule groups are embarrassingly
  parallel; ``max_workers > 1`` fans them out over a
  ``ProcessPoolExecutor`` while keeping results in submission order.
  Each group's points run in one worker, so the group's schedules are
  computed exactly once. Splitting a large group for parallelism costs
  one extra walk per chunk. The pool's modules
  (:mod:`repro.resilience.executor`, ``multiprocessing``) load on the
  first parallel run, so a serial campaign never imports them.

Artifacts: pass ``artifact_dir`` to persist one JSON summary per design
point plus a ``campaign.json`` manifest describing the spec.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obs
from repro.campaign.artifacts import write_json, write_telemetry
from repro.campaign.results import SuiteRun, suite_run_summary
from repro.campaign.spec import CampaignSpec, DesignPoint
from repro.cgra.fabric import FabricGeometry
from repro.errors import ConfigurationError
from repro.resilience import RetryPolicy
from repro.sim.trace import Trace
from repro.system.params import SystemParams
from repro.system.schedule import params_stress_coupled, schedule_key
from repro.system.transrec import TransRecSystem
from repro.workloads.suite import run_workload

if TYPE_CHECKING:  # pragma: no cover - the pool loads on its first use
    from repro.resilience.executor import TaskFailure


def _build_params(
    point: DesignPoint, base_params: SystemParams | None
) -> SystemParams:
    # A point-declared ctx_lines is a hard routing budget enforced by
    # the whole mapping stack; None keeps elastic default sizing.
    geometry = FabricGeometry(
        rows=point.rows, cols=point.cols, ctx_lines=point.ctx_lines
    )
    return replace(
        base_params or SystemParams(geometry=geometry),
        geometry=geometry,
        policy=point.policy.name,
        policy_kwargs=point.policy.as_kwargs(),
        mapper=point.mapper.name,
        mapper_kwargs=point.mapper.as_kwargs(),
        frontend=point.frontend,
    )


def evaluate_design_point(
    point: DesignPoint,
    base_params: SystemParams | None = None,
    traces: dict[str, Trace] | None = None,
) -> SuiteRun:
    """Run every workload of ``point`` on its system; returns the
    :class:`SuiteRun` with full per-workload results.

    ``traces`` overrides trace resolution (useful for custom or
    truncated traces); by default the memoised verified suite traces
    are used. Explicit traces must cover ``point.workloads`` — only
    the point's workloads are evaluated, so results and artifacts
    always agree with the spec.
    """
    system = TransRecSystem(_build_params(point, base_params))
    if traces is None:
        traces = {name: run_workload(name) for name in point.workloads}
    else:
        missing = [name for name in point.workloads if name not in traces]
        if missing:
            raise ConfigurationError(
                f"explicit traces missing workload(s) {missing} required "
                f"by design point {point.label!r}"
            )
        traces = {name: traces[name] for name in point.workloads}
    with obs.span("campaign.evaluate_point", point=point.label):
        obs.count("campaign.points")
        results = {
            name: system.run_trace(trace) for name, trace in traces.items()
        }
    return SuiteRun(
        geometry=system.geometry, policy=point.policy.name, results=results
    )


def _pool_evaluate_group(
    payload: tuple[
        tuple[DesignPoint, ...],
        SystemParams | None,
        str | None,
    ],
) -> tuple[list[SuiteRun], obs.TelemetrySnapshot | None]:
    """Evaluate one schedule group in a pool worker.

    The group's points run sequentially in this process, so the first
    point's walks warm the per-process schedule memo and every further
    point replays them.

    The payload carries the parent's telemetry mode (``None`` = off,
    ``"telemetry"`` = counters/timers, ``"trace"`` = additionally
    capture trace events); the worker's registry is reset per group —
    pool workers serve several groups — and its snapshot rides home
    with the results for the parent to :func:`~repro.obs.absorb`.
    """
    points, base_params, obs_mode = payload
    if obs_mode is not None:
        obs.set_enabled(True)
        obs.reset()
        if obs_mode == "trace":
            obs.tracing.start()
    runs = [evaluate_design_point(point, base_params) for point in points]
    snap = obs.snapshot() if obs_mode is not None else None
    return runs, snap


@dataclass
class CampaignResult:
    """Evaluated campaign: design points mapped to their suite runs
    (insertion order follows ``spec.design_points()``).

    ``failures`` lists quarantined tasks (points whose schedule group
    could not be evaluated even after retries — their points are
    absent from ``runs``); it is empty on every healthy run.
    """

    spec: CampaignSpec
    runs: dict[DesignPoint, SuiteRun]
    failures: tuple[TaskFailure, ...] = ()

    def __iter__(self):
        return iter(self.runs.items())

    @property
    def points(self) -> tuple[DesignPoint, ...]:
        return tuple(self.runs)

    def only_run(self) -> SuiteRun:
        """The single run of a one-point campaign."""
        if len(self.runs) != 1:
            raise ConfigurationError(
                f"campaign has {len(self.runs)} design points, not 1"
            )
        return next(iter(self.runs.values()))

    def summaries(self) -> list[dict]:
        return [
            suite_run_summary(point, run) for point, run in self.runs.items()
        ]


class CampaignRunner:
    """Evaluates campaign specs.

    Args:
        max_workers: ``None``/``0``/``1`` evaluates serially in-process
            (sharing the memoised traces and schedules); ``> 1`` fans
            schedule groups out over a process pool, whose modules load
            on the first parallel run.
        artifact_dir: when given, one JSON summary per design point and
            a ``campaign.json`` manifest are written there.
        base_params: timing parameter overrides applied to every
            design point (geometry, mapper, policy and front end are
            taken from the point).
        retry: :class:`~repro.resilience.RetryPolicy` governing how
            pool-task failures (worker crashes, hangs, transient
            exceptions) are retried before a group is quarantined
            (default policy: 3 attempts, seeded exponential backoff).
        task_timeout: per-group wall-clock budget in seconds for pool
            execution; a hung worker past the budget is abandoned and
            its group requeued (``None`` = unbounded, the default).
        max_pool_rebuilds: broken-pool recoveries tolerated before the
            runner degrades to serial in-process evaluation of the
            remaining groups (results stay bit-identical either way).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        artifact_dir: str | Path | None = None,
        base_params: SystemParams | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_rebuilds: int = 3,
    ) -> None:
        self.max_workers = max_workers
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        self.base_params = base_params
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.max_pool_rebuilds = max_pool_rebuilds

    def schedule_groups(
        self, points: tuple[DesignPoint, ...]
    ) -> list[list[int]]:
        """Partition point indices into schedule-sharing groups.

        Points with equal :func:`~repro.system.schedule.schedule_key`
        (every parameter but the allocation policy) and equal
        workloads walk each trace once and replay it per policy.
        Stress-coupled points get singleton groups.
        """
        groups: dict[object, list[int]] = {}
        order: list[object] = []
        for index, point in enumerate(points):
            params = _build_params(point, self.base_params)
            if params_stress_coupled(params):
                key: object = ("coupled", index)
            else:
                key = ("shared", schedule_key(params), point.workloads)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(index)
        return [groups[key] for key in order]

    #: Relative replay cost per plan granularity, used to balance pool
    #: payloads: a whole-schedule plan replays in one vectorized pass,
    #: while finer granularities re-enter the policy per epoch /
    #: search interval / launch.
    _GRANULARITY_COST = {"schedule": 1, "epoch": 2, "interval": 4, "launch": 8}

    @classmethod
    def _point_cost(cls, point: DesignPoint) -> int:
        return cls._GRANULARITY_COST.get(point.policy.plan_granularity, 8)

    @classmethod
    def _balanced_groups(
        cls,
        groups: list[list[int]],
        target: int,
        points: tuple[DesignPoint, ...],
    ) -> list[list[int]]:
        """Split large schedule groups until at least ``target`` pool
        payloads exist (or nothing is left to split).

        A policy-only campaign collapses into one schedule group; one
        worker walking and replaying everything would leave the rest of
        the pool idle. Each chunk re-walks the shared schedule once in
        its own worker — one extra walk buys parallelism across the
        replay axis, and results stay bit-identical (replays are
        independent). The group to split is the one with the highest
        estimated replay cost — points are weighted by their policy's
        :attr:`~repro.core.policy.AllocationPolicy.plan_granularity`,
        so a group of per-interval stress-search replays splits before
        an equally sized group of whole-schedule replays that never
        read stress.
        """
        groups = [list(group) for group in groups]

        def cost(group: list[int]) -> int:
            return sum(cls._point_cost(points[index]) for index in group)

        while len(groups) < target:
            # Only multi-point groups can split; an expensive singleton
            # (e.g. one stress-coupled point) must not stall the loop
            # while cheaper groups still have parallelism to give.
            splittable = [group for group in groups if len(group) >= 2]
            if not splittable:
                break
            largest = max(splittable, key=cost)
            groups.remove(largest)
            half = len(largest) // 2
            groups.append(largest[:half])
            groups.append(largest[half:])
        return groups

    def run(
        self,
        spec: CampaignSpec,
        traces: dict[str, Trace] | None = None,
    ) -> CampaignResult:
        """Evaluate every design point of ``spec``.

        ``traces`` pins explicit traces (serial evaluation only, since
        arbitrary traces are not shipped to pool workers); without it
        the named workloads are resolved from the memoised suite.
        """
        points = spec.design_points()
        if traces is None:
            # Warm the shared trace cache once so serial evaluation
            # reuses it and fork-based pool workers inherit it.
            for name in spec.resolved_workloads():
                run_workload(name)
        parallel = (
            self.max_workers is not None
            and self.max_workers > 1
            and traces is None
            and len(points) > 1
        )
        telemetry_on = obs.enabled()
        obs_mode = (
            ("trace" if obs.tracing.active() else "telemetry")
            if telemetry_on
            else None
        )
        started = time.perf_counter()
        suite_runs: list[SuiteRun | None] = [None] * len(points)
        failures: list[TaskFailure] = []
        try:
            if parallel:
                self._run_parallel(
                    points, obs_mode, telemetry_on, started, suite_runs,
                    failures,
                )
            else:
                self._run_serial(
                    points, traces, telemetry_on, started, suite_runs
                )
        except KeyboardInterrupt:
            # Salvage: completed points are real, deterministic results
            # — persist them (plus the partial manifest) before
            # re-raising, so a Ctrl-C mid-campaign loses only the
            # unfinished work.
            partial = self._build_result(spec, points, suite_runs, failures)
            if self.artifact_dir is not None:
                self._write_artifacts(partial, interrupted=True)
                obs.log.emit(
                    "campaign.interrupted",
                    completed=len(partial.runs),
                    total=len(points),
                    artifact_dir=str(self.artifact_dir),
                )
            raise
        result = self._build_result(spec, points, suite_runs, failures)
        if self.artifact_dir is not None:
            self._write_artifacts(result)
        return result

    def _run_parallel(
        self,
        points: tuple[DesignPoint, ...],
        obs_mode: str | None,
        telemetry_on: bool,
        started: float,
        suite_runs: list[SuiteRun | None],
        failures: list[TaskFailure],
    ) -> None:
        groups = self._balanced_groups(
            self.schedule_groups(points), self.max_workers, points
        )
        payloads = [
            (tuple(points[index] for index in group), self.base_params, obs_mode)
            for group in groups
        ]
        keys = [
            f"group:{position}:{self._group_label(points[group[0]])}"
            for position, group in enumerate(groups)
        ]
        progress = {"done": 0}

        def collect(position: int, payload) -> None:
            group_runs, snap = payload
            for index, run in zip(groups[position], group_runs):
                suite_runs[index] = run
            progress["done"] += len(groups[position])
            if telemetry_on:
                obs.absorb(snap)
                obs.log.progress(
                    "campaign.group",
                    progress["done"],
                    len(points),
                    time.perf_counter() - started,
                    group=self._group_label(points[groups[position][0]]),
                    points=len(groups[position]),
                )

        from repro.resilience.executor import ResilientExecutor

        executor = ResilientExecutor(
            _pool_evaluate_group,
            self.max_workers,
            retry=self.retry,
            task_timeout=self.task_timeout,
            max_pool_rebuilds=self.max_pool_rebuilds,
        )
        report = executor.run(payloads, keys=keys, on_result=collect)
        for failure in report.failures:
            position = keys.index(failure.key)
            failure.detail["points"] = [
                points[index].key for index in groups[position]
            ]
            failures.append(failure)

    def _run_serial(
        self,
        points: tuple[DesignPoint, ...],
        traces: dict[str, Trace] | None,
        telemetry_on: bool,
        started: float,
        suite_runs: list[SuiteRun | None],
    ) -> None:
        # Serial evaluation shares schedules through the in-process
        # memo regardless of point order; no grouping needed.
        for index, point in enumerate(points):
            suite_runs[index] = evaluate_design_point(
                point, self.base_params, traces
            )
            if telemetry_on:
                obs.log.progress(
                    "campaign.point",
                    index + 1,
                    len(points),
                    time.perf_counter() - started,
                    point=point.label,
                )

    @staticmethod
    def _build_result(
        spec: CampaignSpec,
        points: tuple[DesignPoint, ...],
        suite_runs: list[SuiteRun | None],
        failures: list[TaskFailure],
    ) -> CampaignResult:
        runs = {
            point: run
            for point, run in zip(points, suite_runs)
            if run is not None
        }
        return CampaignResult(spec=spec, runs=runs, failures=tuple(failures))

    def _group_label(self, point: DesignPoint) -> str:
        """Short stable digest of the point's schedule key (names the
        schedule-sharing group in progress lines)."""
        params = _build_params(point, self.base_params)
        return hashlib.sha256(
            repr(schedule_key(params)).encode()
        ).hexdigest()[:8]

    def _write_artifacts(
        self, result: CampaignResult, interrupted: bool = False
    ) -> None:
        manifest = {
            "spec": result.spec.to_jsonable(),
            "design_points": [point.key for point in result.points],
        }
        if interrupted:
            # Partial manifest: design_points lists only the completed
            # points whose per-point JSONs exist below.
            manifest["interrupted"] = True
        write_json(self.artifact_dir / "campaign.json", manifest)
        if result.failures or interrupted:
            write_json(
                self.artifact_dir / "failures.json",
                {
                    "interrupted": interrupted,
                    "failures": [
                        failure.to_jsonable() for failure in result.failures
                    ],
                },
            )
        for point, run in result.runs.items():
            write_json(
                self.artifact_dir / f"{point.key}.json",
                suite_run_summary(point, run),
            )
        if obs.enabled():
            # The merged registry: this process plus every absorbed
            # pool-worker snapshot.
            write_telemetry(
                self.artifact_dir / "telemetry.json", obs.snapshot()
            )
