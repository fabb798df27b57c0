"""Fleet evaluation: sharded device expansion over shared replays.

The runner splits a fleet campaign into three phases, each bounded in
memory regardless of fleet size:

* **Phase 1 — stress profiles** (per policy x workload): one
  vectorized replay of the shared launch schedule per (policy,
  workload) yields the per-cell launch-count matrix and launch total.
  Schedules are memoised per process and keyed by
  :func:`~repro.system.schedule.schedule_key`, so a million-device
  fleet walks each trace exactly once. A device's end of life is set
  by its most-utilized FU alone (the paper's Eq. 1 criterion), so each
  profile keeps only the cells that can be the worst FU under some
  mix: the Pareto-maximal columns (:func:`worst_cell_candidates`).
* **Phase 2 — shard expansion** (per shard): each shard regenerates
  its devices' scenario-drawn mix weights
  (:meth:`~repro.fleet.spec.FleetSpec.device_weights`, sharding-
  independent), folds them with each profile's candidate cells into
  the per-device worst-FU duty cycle (:func:`worst_cell_stress`, a
  ``(candidates, devices)`` accumulator — the ``(devices, workloads,
  cells)`` product is never built) and NBTI lifetime, and reduces the
  result straight into one compact :class:`ShardRecord` per policy.
  Shards fan out over a process pool; only records cross process
  boundaries, never per-device vectors.
* **Phase 3 — merge**: records (freshly computed + resumed from the
  append-only store) fold into per-policy :class:`FleetAggregate`\\ s
  in sorted shard order — streaming lifetime percentiles, fleet
  survival curves and MTTF deltas, with the same counter/summary merge
  semantics as :meth:`~repro.obs.TelemetrySnapshot.merge`.

Resume: with a ``store_dir``, every completed (policy, shard) record
is appended as one NDJSON line; a re-run loads the intact records,
re-runs only the missing/torn shards, and — because shard expansion is
deterministic — produces bit-identical merged aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.aging.lifetime import device_lifetimes
from repro.aging.nbti import NBTIModel
from repro.campaign.artifacts import write_json
from repro.campaign.spec import PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import make_policy
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetShard, FleetSpec
from repro.fleet.store import (
    FleetAggregate,
    ResultStore,
    ShardRecord,
    StoreSkips,
    merge_records,
)
from repro.resilience import RetryPolicy
from repro.resilience.executor import ResilientExecutor, TaskFailure
from repro.system.params import SystemParams
from repro.system.schedule import replay_schedule, shared_schedule
from repro.workloads.suite import run_workload

#: Shards per pool task: amortises task dispatch without letting one
#: straggler hold a worker for the whole fleet.
_SHARDS_PER_TASK = 4


@dataclass(frozen=True)
class StressProfile:
    """Phase 1 output for one policy: the per-workload launch counts of
    the cells that can be a device's worst FU, stacked for the shard
    expansion.

    Attributes:
        policy: policy label the profile was replayed under.
        candidates: ``(n_workloads, n_candidates)`` per-cell launch
            counts of the Pareto-maximal cells only
            (:func:`worst_cell_candidates`, ascending cell order).
            Every other cell has at most as many launches as some
            candidate in every workload, so under non-negative mix
            weights it can never be a device's worst FU.
        totals: ``(n_workloads,)`` total launches per workload.
    """

    policy: str
    candidates: np.ndarray
    totals: np.ndarray


def worst_cell_candidates(counts: np.ndarray) -> np.ndarray:
    """Indices of the columns of a ``(workloads, cells)`` launch-count
    matrix that can hold a device's worst FU: the Pareto-maximal ones.

    A column is dropped when another column has at least as many
    launches in every workload and more in at least one; of exactly
    equal columns only the lowest index stays. With non-negative mix
    weights a dropped column never weighs in above the column that
    covers it (round-to-nearest products and sums are monotone), so
    the per-device maximum over the candidates is bit-identical to the
    maximum over every cell. ``O(cells**2 * workloads)`` comparisons,
    once per profile.
    """
    n_cells = counts.shape[1]
    covers = np.ones((n_cells, n_cells), dtype=bool)  # [a, b]: a >= b
    for row in counts:
        covers &= row[:, None] >= row[None, :]
    index = np.arange(n_cells)
    beats = covers & (~covers.T | (index[:, None] < index[None, :]))
    return np.flatnonzero(~beats.any(axis=0))


def worst_cell_stress(candidates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-device maximum of the mix-weighted launch counts over the
    candidate cells — shape ``(devices,)`` from ``candidates``
    ``(workloads, n_candidates)`` and ``weights`` ``(devices,
    workloads)``.

    The fold runs cells-major into a ``(n_candidates, devices)``
    accumulator and adds the workloads one at a time in index order.
    That fixed sequential order is the order numpy's broadcast
    ``(weights[:, :, None] * counts[None]).sum(axis=1)`` uses over the
    full matrix whenever a fabric has at least two cells, so results
    are bit-identical to it (and independent of shard size). A
    ``.sum(axis=1)`` over a pruned matrix would not be: with one
    candidate the workload axis becomes numpy's innermost reduction,
    which switches to pairwise summation from eight workloads on.
    """
    mix = np.ascontiguousarray(weights.T)
    stressed = np.multiply.outer(candidates[0], mix[0])
    for counts, column in zip(candidates[1:], mix[1:]):
        stressed += np.multiply.outer(counts, column)
    return stressed.max(axis=0)


def policy_label(policy: PolicySpec) -> str:
    return policy.label


def _fleet_params(
    spec: FleetSpec,
    policy: PolicySpec,
    base_params: SystemParams | None,
) -> SystemParams:
    geometry = FabricGeometry(
        rows=spec.rows, cols=spec.cols, ctx_lines=spec.ctx_lines
    )
    return replace(
        base_params or SystemParams(geometry=geometry),
        geometry=geometry,
        policy=policy.name,
        policy_kwargs=policy.as_kwargs(),
        frontend=spec.frontend,
    )


def expand_shard(
    spec: FleetSpec,
    shard: FleetShard,
    profiles: dict[str, StressProfile],
    model: NBTIModel,
    fingerprint: str,
) -> list[ShardRecord]:
    """Evaluate one shard's devices under every policy.

    Pure numpy over the shard's device block: a device's worst-FU
    utilization is the largest mix-weighted launch count over the
    policy's candidate cells (:func:`worst_cell_stress`), normalised by
    the device's weighted launch total (the EXECUTIONS duty-cycle
    weighting, per device). Two preconditions keep it bit-identical to
    a fold over every cell and independent of shard size — the
    property resume and the sharded-vs-unsharded smoke both rest on:
    the mix weights are non-negative (Dirichlet draws), which makes the
    candidate pruning exact, and each device's workloads are summed in
    a fixed sequential order, never a BLAS matmul or pairwise sum.
    """
    weights = spec.device_weights(shard.start, shard.stop)
    records = []
    for policy in spec.policies:
        profile = profiles[policy_label(policy)]
        stressed = worst_cell_stress(profile.candidates, weights)
        launches = (weights * profile.totals[None, :]).sum(axis=1)
        launches = np.where(launches > 0, launches, 1.0)
        worst = stressed / launches
        worst = np.clip(worst, 0.0, 1.0)
        lifetimes = device_lifetimes(model, worst)
        records.append(
            ShardRecord.from_lifetimes(
                fingerprint=fingerprint,
                policy=policy_label(policy),
                shard=shard.index,
                lifetimes=lifetimes,
                worst_utils=worst,
                mission_years=spec.mission_years,
            )
        )
    obs.count("fleet.shards.expanded")
    obs.count("fleet.devices.expanded", shard.n_devices)
    return records


def _pool_expand_shards(
    payload: tuple[
        dict,
        tuple[FleetShard, ...],
        dict[str, StressProfile],
        NBTIModel,
        str,
    ],
) -> list[ShardRecord]:
    """Expand a chunk of shards in a pool worker (no trace walks, no
    schedule state — just the spec, the stacked profiles and numpy)."""
    spec_payload, shards, profiles, model, fingerprint = payload
    spec = FleetSpec.from_jsonable(spec_payload)
    records: list[ShardRecord] = []
    for shard in shards:
        records.extend(expand_shard(spec, shard, profiles, model, fingerprint))
    return records


@dataclass
class FleetResult:
    """Merged outcome of one fleet campaign."""

    spec: FleetSpec
    aggregates: dict[str, FleetAggregate]
    #: Shards evaluated this run vs resumed from the store.
    shards_run: int
    shards_resumed: int
    #: Total store lines skipped while resuming (see ``store_skips``
    #: for the torn/stale/corrupt/foreign breakdown).
    store_lines_skipped: int
    store_skips: StoreSkips = field(default_factory=StoreSkips)
    #: Shard chunks quarantined after exhausting retries; their shards
    #: are absent from the aggregates (graceful degradation).
    failures: tuple[TaskFailure, ...] = ()
    shards_failed: int = 0
    #: store.append I/O errors degraded to in-memory records (merged
    #: aggregates stay correct; only resumability was lost).
    store_append_errors: int = 0

    def aggregate(self, policy: str) -> FleetAggregate:
        agg = self.aggregates.get(policy)
        if agg is None:
            raise ConfigurationError(
                f"no aggregate for policy {policy!r}; "
                f"available: {sorted(self.aggregates)}"
            )
        return agg

    def mttf_ratio(self, policy: str, baseline: str | None = None) -> float:
        """Fleet MTTF of ``policy`` relative to ``baseline`` (default:
        the spec's first policy) — the paper's Eq. 1 lifetime-
        improvement claim, fleet-expanded."""
        if baseline is None:
            baseline = policy_label(self.spec.policies[0])
        return self.aggregate(policy).mttf_years() / self.aggregate(
            baseline
        ).mttf_years()

    def to_jsonable(self) -> dict:
        return {
            "fleet": self.spec.to_jsonable(),
            "fingerprint": self.spec.fingerprint(),
            "shards_run": self.shards_run,
            "shards_resumed": self.shards_resumed,
            "store_lines_skipped": self.store_lines_skipped,
            "store_skips": self.store_skips.to_jsonable(),
            "shards_failed": self.shards_failed,
            "store_append_errors": self.store_append_errors,
            "failures": [failure.to_jsonable() for failure in self.failures],
            "policies": {
                name: aggregate.to_jsonable()
                for name, aggregate in self.aggregates.items()
            },
        }


class FleetRunner:
    """Evaluates :class:`FleetSpec`\\ s.

    Args:
        store_dir: append-only result store directory. When given,
            every completed (policy, shard) record is persisted as one
            NDJSON line and re-runs resume from the intact records;
            ``fleet.json`` (manifest) and ``fleet_summary.json``
            (merged aggregates) are written alongside. ``None`` keeps
            everything in memory (tests, benchmarks).
        max_workers: ``None``/``0``/``1`` expands shards serially;
            ``> 1`` fans shard chunks out over a process pool.
        base_params: timing-parameter overrides for the replay phase
            (geometry and policy come from the spec).
        model: NBTI model for device lifetimes (default calibration:
            +10% delay over 3 years at full stress).
        retry: :class:`~repro.resilience.RetryPolicy` for pool-task
            failures during shard expansion (worker crashes, hangs,
            transient exceptions) before a chunk is quarantined.
        task_timeout: per-chunk wall-clock budget in seconds for pool
            expansion (``None`` = unbounded).
        max_pool_rebuilds: broken-pool recoveries tolerated before
            degrading to serial in-process expansion.
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        max_workers: int | None = None,
        base_params: SystemParams | None = None,
        model: NBTIModel | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_rebuilds: int = 3,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir else None
        self.max_workers = max_workers
        self.base_params = base_params
        self.model = model if model is not None else NBTIModel()
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.max_pool_rebuilds = max_pool_rebuilds

    # ------------------------------------------------------------------

    def stress_profiles(self, spec: FleetSpec) -> dict[str, StressProfile]:
        """Phase 1: per-policy stacked stress profiles.

        Policies of one fleet share a single schedule walk per
        workload (they differ only in allocation policy, the exact
        case :func:`~repro.system.schedule.shared_schedule` exists
        for); each (policy, workload) is then one vectorized replay.
        Each policy's stacked counts keep only the cells that can be a
        device's worst FU (:func:`worst_cell_candidates`).
        """
        profiles: dict[str, StressProfile] = {}
        for policy in spec.policies:
            params = _fleet_params(spec, policy, self.base_params)
            counts = []
            totals = []
            for workload in spec.workloads:
                with obs.span(
                    "fleet.replay",
                    policy=policy_label(policy),
                    workload=workload,
                ):
                    trace = run_workload(workload)
                    schedule = shared_schedule(params, trace)
                    tracker = replay_schedule(
                        schedule,
                        params.geometry,
                        make_policy(policy.name, **policy.as_kwargs()),
                    ).tracker
                counts.append(tracker.execution_counts.ravel().astype(float))
                totals.append(float(tracker.total_executions))
            stacked = np.stack(counts)
            profiles[policy_label(policy)] = StressProfile(
                policy=policy_label(policy),
                candidates=stacked[:, worst_cell_candidates(stacked)],
                totals=np.asarray(totals),
            )
        return profiles

    # ------------------------------------------------------------------

    def run(self, spec: FleetSpec) -> FleetResult:
        """Evaluate ``spec``: replay, expand pending shards, merge."""
        fingerprint = spec.fingerprint()
        store = ResultStore(self.store_dir) if self.store_dir else None
        resumed: list[ShardRecord] = []
        skips = StoreSkips()
        if store is not None:
            resumed, skips = store.load(fingerprint)
        done: set[tuple[str, int]] = {
            (record.policy, record.shard) for record in resumed
        }
        labels = [policy_label(policy) for policy in spec.policies]
        pending = [
            shard
            for shard in spec.shards()
            if any((label, shard.index) not in done for label in labels)
        ]
        started = time.perf_counter()
        with obs.span(
            "fleet.run",
            fleet=spec.name,
            devices=spec.n_devices,
            shards=len(spec.shards()),
        ):
            profiles = (
                self.stress_profiles(spec) if pending else {}
            )
            fresh, append_errors, failures = self._expand_pending(
                spec, pending, profiles, fingerprint, store, started
            )
        # Deduplicate against resumed records: a shard is re-run when
        # *any* of its per-policy records is missing, so the intact
        # ones are recomputed too (bit-identical) and must not
        # double-count. merge_records keeps the first of each
        # (policy, shard) key; resumed-first preserves store priority.
        aggregates = merge_records(resumed + fresh, spec.mission_years)
        shards_failed = sum(
            len(failure.detail.get("shards", ())) for failure in failures
        )
        result = FleetResult(
            spec=spec,
            aggregates=aggregates,
            shards_run=len(pending),
            shards_resumed=len(spec.shards()) - len(pending),
            store_lines_skipped=skips.total,
            store_skips=skips,
            failures=tuple(failures),
            shards_failed=shards_failed,
            store_append_errors=append_errors,
        )
        if store is not None:
            write_json(store.directory / "fleet.json", spec.to_jsonable())
            write_json(
                store.directory / "fleet_summary.json", result.to_jsonable()
            )
        return result

    def _expand_pending(
        self,
        spec: FleetSpec,
        pending: list[FleetShard],
        profiles: dict[str, StressProfile],
        fingerprint: str,
        store: ResultStore | None,
        started: float,
    ) -> tuple[list[ShardRecord], int, list[TaskFailure]]:
        """Phase 2 over the pending shards, serially or on the
        resilient pool; records are appended to the store as they
        arrive (streaming — a kill at any point leaves a resumable
        store). Returns ``(records, store_append_errors, failures)``.

        A ``store.append`` I/O failure (full disk, dead mount,
        injected fault) degrades to keeping the record in memory: the
        merged aggregates stay correct, only this run's resumability
        is lost for that record.
        """
        telemetry_on = obs.enabled()
        records: list[ShardRecord] = []
        append_errors = 0
        progress = {"shards": 0}

        def collect(batch: list[ShardRecord], done_shards: int) -> None:
            nonlocal append_errors
            for record in batch:
                if store is not None:
                    try:
                        store.append(record)
                    except OSError as error:
                        append_errors += 1
                        obs.count("fleet.store.append_errors")
                        if append_errors == 1:
                            obs.log.emit(
                                "fleet.store.append_error",
                                policy=record.policy,
                                shard=record.shard,
                                error=str(error),
                            )
                records.append(record)
            if telemetry_on:
                obs.log.progress(
                    "fleet.shard",
                    done_shards,
                    len(pending),
                    time.perf_counter() - started,
                    fleet=spec.name,
                )

        parallel = (
            self.max_workers is not None
            and self.max_workers > 1
            and len(pending) > 1
        )
        if not parallel:
            for index, shard in enumerate(pending, start=1):
                collect(
                    expand_shard(
                        spec, shard, profiles, self.model, fingerprint
                    ),
                    index,
                )
            return records, append_errors, []
        chunks = [
            tuple(pending[index : index + _SHARDS_PER_TASK])
            for index in range(0, len(pending), _SHARDS_PER_TASK)
        ]
        spec_payload = spec.to_jsonable()
        payloads = [
            (spec_payload, chunk, profiles, self.model, fingerprint)
            for chunk in chunks
        ]
        keys = [
            f"shards:{chunk[0].index}-{chunk[-1].index}" for chunk in chunks
        ]

        def on_result(position: int, batch: list[ShardRecord]) -> None:
            progress["shards"] += len(chunks[position])
            collect(batch, progress["shards"])

        executor = ResilientExecutor(
            _pool_expand_shards,
            self.max_workers,
            retry=self.retry,
            task_timeout=self.task_timeout,
            max_pool_rebuilds=self.max_pool_rebuilds,
        )
        report = executor.run(payloads, keys=keys, on_result=on_result)
        failures: list[TaskFailure] = []
        for failure in report.failures:
            position = keys.index(failure.key)
            failure.detail["shards"] = [
                shard.index for shard in chunks[position]
            ]
            failures.append(failure)
        return records, append_errors, failures
