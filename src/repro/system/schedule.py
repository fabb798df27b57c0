"""Launch-schedule computation and vectorized policy replay.

The TransRec timing walk is split into two phases so campaigns that
sweep *allocation policies* over one pipeline stop re-walking the trace
per policy:

* **Phase A — schedule computation** (:func:`compute_schedule`): one
  walk per (trace, geometry, mapper identity, DBT/cache/GPP/datapath
  parameters) records the policy-independent event stream as a
  :class:`LaunchSchedule` — per-launch unit and execution cycles, the
  final cycle count, fabric/cache counters and the energy-model
  activity summary. The walk itself only feeds the allocator when one
  is attached, which is required exactly when the mapper is
  *stress-coupled* (it reads the allocator's live stress map, closing
  the feedback loop that makes the launch stream policy-dependent).
* **Phase B — replay** (:func:`replay_schedule`): any allocation
  policy is applied to a recorded schedule, reconstructing the
  policy-dependent utilization tracker without touching the trace.
  The schedule stores its launches as columns — a unit index per
  launch into its distinct units, beside the cycle weights — and
  hands them straight to the batch engine
  (:meth:`~repro.core.allocator.ConfigurationAllocator.allocate_indexed`),
  which folds each range of planned launches into the tracker as one
  (unit, pivot) histogram. Replay is bit-identical to the interleaved
  walk (the batch engine is property-tested against the scalar loop,
  ``tests/test_schedule_equivalence.py`` pins the system level and
  ``tests/test_replay_trackers.py`` the per-cell results of the
  benchmarked policy sweep).

Schedules and the stand-alone GPP reference timing are memoised per
process, keyed weakly by trace object, so serial campaigns and the
experiment drivers share one walk per pipeline across the whole
policy x seed axis. Nothing is cached across processes: a pool worker
walks each pipeline of its schedule group once.
"""

from __future__ import annotations

import copy
import dataclasses
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.datapath import (
    DatapathParams,
    configuration_cycles,
    execution_cycles,
)
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import FUKind
from repro.cgra.reconfig import ReconfigLogicSpec
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import AllocationPolicy, unit_column
from repro.dbt.config_cache import ConfigCache, ConfigCacheStats
from repro.dbt.translator import DBTEngine
from repro.errors import ConfigurationError
from repro.frontend.speculative import clear_annotation_cache, speculative_trace
from repro.gpp.timing import GPPTimingModel, GPPTimingResult
from repro.hw.energy import EnergyModel, EnergyReport, SystemActivity
from repro.mapping import make_mapper
from repro.sim.trace import (
    CLASS_MEMBERS,
    KIND_COMMITTED,
    KIND_WRONG_PATH,
    Trace,
)
from repro.system.params import SystemParams
from repro.system.stats import CGRAStats

__all__ = [
    "LaunchSchedule",
    "clear_schedule_caches",
    "compute_schedule",
    "gpp_reference",
    "params_stress_coupled",
    "replay_schedule",
    "schedule_key",
    "shared_schedule",
]


# ----------------------------------------------------------------------
# Cache keys


def _freeze(value):
    """Canonical hashable form of a parameter bundle.

    Dataclasses become (type name, frozen fields) tuples, dicts become
    item tuples sorted by key repr (enum keys are not orderable), and
    sequences become tuples; everything else must already be hashable.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, _freeze(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((_freeze(key), _freeze(item)) for key, item in value.items()),
                key=repr,
            )
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(item) for item in value), key=repr))
    return value


def schedule_key(params: SystemParams):
    """Hashable identity of everything a :class:`LaunchSchedule`
    depends on — the full :class:`~repro.system.params.SystemParams`
    *minus* the allocation policy and the energy model (energy is pure
    post-processing of the recorded activity). Two design points with
    equal keys share one trace walk. The front-end spec is part of the
    key: different specs produce different speculative streams from the
    same committed trace, so their schedules must never alias.
    """
    return (
        _freeze(params.geometry),
        params.mapper,
        _freeze(params.mapper_kwargs),
        _freeze(params.gpp),
        _freeze(params.datapath),
        _freeze(params.dbt),
        params.config_cache_entries,
        _freeze(params.frontend),
    )


def _make_walk_mapper(params: SystemParams):
    """The walk's mapper instance (greedy inherits the DBT row policy,
    keeping seed placements and the cache namespace in agreement)."""
    mapper_kwargs = dict(params.mapper_kwargs)
    if params.mapper == "greedy":
        mapper_kwargs.setdefault("row_policy", params.dbt.row_policy)
    return make_mapper(params.mapper, **mapper_kwargs)


def params_stress_coupled(params: SystemParams) -> bool:
    """Whether ``params``' mapper closes the allocation feedback loop.

    Stress-coupled pipelines (e.g. the annealing mapper with a nonzero
    stress weight) must keep the interleaved walk; everything else —
    including the default greedy pipeline behind every paper figure —
    can share policy-independent schedules.
    """
    return bool(_make_walk_mapper(params).stress_coupled)


# ----------------------------------------------------------------------
# The schedule


@dataclass
class LaunchSchedule:
    """Policy-independent event stream of one timed TransRec run.

    Everything in a :class:`~repro.system.stats.SystemResult` except
    the utilization tracker is a function of the schedule alone; the
    tracker is reconstructed per policy by :func:`replay_schedule`.

    Attributes:
        trace_name: name of the walked trace.
        instructions: committed instructions in the trace.
        stress_coupled: whether the walk consumed a live stress map —
            such schedules are valid only for the policy they were
            recorded under and are never shared.
        configs: launched unit per fabric launch, in launch order
            (every replay of one cached unit repeats the same object).
        exec_cycles: per-launch execution cycles (the stress weight of
            the launch), aligned with ``configs`` (read-only int64).
        transrec_cycles: total TransRec cycles of the walk.
        cgra: final fabric counters (template — copied per result).
        cache_stats: final configuration-cache counters (template).
        activity: energy-model activity summary of the walk.
        gpp_segments: half-open ``[start, stop)`` trace ranges executed
            on the GPP side (diagnostics; replay never touches them).
        units: the distinct unit objects of ``configs`` in first-launch
            order (derived; see :func:`~repro.core.policy.unit_column`).
        unit_index: per launch, the position of its unit in ``units``
            (derived; read-only int32). Replay reads these two columns
            instead of walking ``configs``.
    """

    trace_name: str
    instructions: int
    stress_coupled: bool
    configs: tuple[VirtualConfiguration, ...]
    exec_cycles: np.ndarray
    transrec_cycles: int
    cgra: CGRAStats
    cache_stats: ConfigCacheStats
    activity: SystemActivity
    gpp_segments: tuple[tuple[int, int], ...]
    units: tuple[VirtualConfiguration, ...] = field(
        init=False, repr=False, compare=False
    )
    unit_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Schedules are shared by every replay in the process, so the
        # columns they hand out must not be writable.
        exec_cycles = np.asarray(self.exec_cycles, dtype=np.int64).view()
        exec_cycles.flags.writeable = False
        self.exec_cycles = exec_cycles
        self.units, self.unit_index = unit_column(self.configs)

    @property
    def n_launches(self) -> int:
        return len(self.configs)

    def result_template(self) -> tuple[CGRAStats, ConfigCacheStats]:
        """Fresh copies of the mutable per-result stat containers (a
        shallow copy keeps the non-field front-end counters)."""
        return copy.copy(self.cgra), replace(self.cache_stats)


class _UnitLaunch(NamedTuple):
    """Walk-invariant launch constants of one unit, memoised per walk
    by unit identity (``unit`` pins the identity key)."""

    unit: VirtualConfiguration
    n_instructions: int
    #: ``pc_path`` as native int64 bytes, probed against the trace's
    #: PC column for the full-match fast path.
    path_bytes: bytes
    exec_cycles: int
    #: :func:`configuration_cycles` indexed ``[cold][chained]``.
    launch_cycles: tuple[tuple[int, int], tuple[int, int]]
    cold_config_bits: int
    used_cols: int
    #: ``(FU kind, op count)`` pairs in first-seen op order.
    op_kind_counts: tuple[tuple[FUKind, int], ...]


def _unit_launch(
    unit: VirtualConfiguration,
    geometry: FabricGeometry,
    datapath: DatapathParams,
    config_bits_per_column: int,
) -> _UnitLaunch:
    kinds: dict[FUKind, int] = {}
    for op in unit.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return _UnitLaunch(
        unit=unit,
        n_instructions=unit.n_instructions,
        path_bytes=np.asarray(unit.pc_path, dtype=np.int64).tobytes(),
        exec_cycles=execution_cycles(datapath, unit),
        launch_cycles=tuple(
            tuple(
                configuration_cycles(
                    geometry, datapath, unit, cold=cold, back_to_back=chained
                )
                for chained in (False, True)
            )
            for cold in (False, True)
        ),
        cold_config_bits=config_bits_per_column * unit.used_cols,
        used_cols=unit.used_cols,
        op_kind_counts=tuple(kinds.items()),
    )


def _matched_prefix(
    pcs: memoryview, position: int, path: tuple[int, ...]
) -> int:
    """Length of the common prefix of a unit's recorded path and the
    actual upcoming trace PCs (>= 1 since start PCs match)."""
    limit = min(len(path), len(pcs) - position)
    for offset in range(limit):
        if pcs[position + offset] != path[offset]:
            return offset
    return limit


def compute_schedule(
    params: SystemParams,
    trace: Trace,
    allocator: ConfigurationAllocator | None = None,
) -> LaunchSchedule:
    """Walk ``trace`` once and record its launch schedule.

    With ``allocator`` the walk is *coupled*: every recorded launch is
    also allocated immediately (scalar fast path), so stress-coupled
    mappers see the live stress map exactly as the legacy
    single-phase simulation did. Without it the walk is
    policy-independent; a stress-coupled mapper then raises, because
    its placements would silently diverge from the coupled pipeline.

    With ``params.frontend`` set, the committed trace is first expanded
    into its speculative fetch stream (memoised per trace/spec): the
    walk then sees wrong-path runs and handler mini-traces — squashed
    launches still probe and pollute the config cache and accrue fabric
    stress, but only committed-kind records count as committed work,
    and flush gaps charge cycles and break GPP segments mid-stream.

    The per-launch path reads only Python ints: launch costs are
    memoised per unit, trace columns are read through bytes and
    memoryviews, and op-kind counts are folded per unit by launch
    multiplicity after the walk.
    """
    if params.frontend is not None and not trace.speculative:
        trace = speculative_trace(trace, params.frontend)
    geometry = params.geometry
    mapper = _make_walk_mapper(params)
    if mapper.stress_coupled and allocator is None:
        raise ConfigurationError(
            f"mapper {mapper.identity()!r} is stress-coupled: its "
            "placements read the allocator's live stress map, so a "
            "policy-independent schedule cannot be computed — run the "
            "coupled walk instead"
        )
    config_bits_per_column = ReconfigLogicSpec(
        geometry
    ).config_bits_per_column
    gpp = GPPTimingModel(params.gpp)
    cache = ConfigCache(
        capacity=params.config_cache_entries, mapper_key=mapper.identity()
    )
    stress_provider = None
    if allocator is not None:
        stress_provider = lambda: allocator.tracker.stress_map  # noqa: E731
    engine = DBTEngine(
        geometry=geometry,
        cache=cache,
        limits=params.dbt,
        mapper=mapper,
        stress_provider=stress_provider,
    )

    obs.count("schedule.walks")
    datapath = params.datapath
    misspeculation_penalty = datapath.misspeculation_penalty
    dcache = gpp.dcache
    gpp_cycles = gpp.span_cycles
    lookup = cache.lookup
    note_replay = engine.note_replay
    stats = CGRAStats()
    activity = SystemActivity(fabric_cells=geometry.n_cells)
    gpp_class_counts: dict[int, int] = {}
    unit_launches: dict[int, _UnitLaunch] = {}
    launch_configs: list[VirtualConfiguration] = []
    launch_exec_cycles: list[int] = []
    gpp_segments: list[tuple[int, int]] = []

    pcs = memoryview(trace.pc_array)
    pc_bytes = trace.pc_array.tobytes()
    pc_width = trace.pc_array.itemsize
    head_flags = engine.unit_head_flags(trace).tobytes()
    class_codes = memoryview(trace.class_code_array)
    mem_positions = memoryview(trace.mem_positions)
    mem_addresses = memoryview(trace.mem_addresses)

    # Front-end annotation columns; only consulted on speculative
    # streams, so plain committed walks stay byte-identical and never
    # materialise the zero columns.
    speculative = trace.speculative
    if speculative:
        kind_codes = memoryview(trace.kind_array)
        flush_gaps = memoryview(trace.flush_gap_array)
        committed_prefix = memoryview(trace.committed_prefix)
        flush_prefix = memoryview(trace.flush_gap_prefix)
        wrong_path_counts = np.zeros(len(trace) + 1, dtype=np.int64)
        np.cumsum(trace.kind_array == KIND_WRONG_PATH, out=wrong_path_counts[1:])
        wrong_path_prefix = memoryview(wrong_path_counts)

    cycles = 0
    config_cache_accesses = 0
    cold_launches = 0
    cold_config_bits = 0
    committed = 0
    misspeculations = 0
    squashed = 0
    wrong_path_launches = 0
    wrong_path_instructions = 0
    flush_cycles = 0
    loaded_pc: int | None = None
    position = 0
    # A translated or replayed unit makes the instruction right after it
    # a translation point too, so configurations tile long straight-line
    # regions instead of only covering their heads.
    pending_head = -1
    # Whether the previous window ran on the fabric without a
    # misspeculation (enables I/O overlap of chained launches).
    chained = False
    segment_start = -1
    n_records = len(trace)
    while position < n_records:
        is_head = position == pending_head or head_flags[position]
        unit = None
        if is_head:
            config_cache_accesses += 1
            unit = lookup(pcs[position])
        if unit is not None:
            if segment_start >= 0:
                gpp_segments.append((segment_start, position))
                segment_start = -1
            launch = unit_launches.get(id(unit))
            if launch is None:
                launch = _unit_launch(
                    unit, geometry, datapath, config_bits_per_column
                )
                unit_launches[id(unit)] = launch
            # Replay the unit on the fabric: commit the matching prefix
            # of its recorded path, squash on divergence.
            length = launch.n_instructions
            if pc_bytes.startswith(launch.path_bytes, position * pc_width):
                matched = length
            else:
                matched = _matched_prefix(pcs, position, unit.pc_path)
            end = position + matched
            cold = loaded_pc != unit.start_pc
            launch_cost = launch.launch_cycles[cold][chained]
            # Data-cache effects of the unit's memory ops (shared L1) —
            # only the precomputed load/store positions are touched.
            lo = bisect_left(mem_positions, position)
            hi = bisect_left(mem_positions, end, lo)
            if hi > lo:
                launch_cost += dcache.span_cycles(mem_addresses[lo:hi])
            if matched < length:
                launch_cost += misspeculation_penalty
                misspeculations += 1
                squashed += length - matched
            exec_cost = launch.exec_cycles
            launch_configs.append(unit)
            launch_exec_cycles.append(exec_cost)
            if allocator is not None:
                allocator.allocate(unit, cycles=exec_cost)
            if cold:
                cold_launches += 1
                cold_config_bits += launch.cold_config_bits
            chained = matched == length
            if speculative:
                # Only committed-kind records are architectural work;
                # wrong-path (and handler) records in the span still
                # occupied the fabric but never commit GPP state.
                committed += committed_prefix[end] - committed_prefix[position]
                wrong_path_instructions += (
                    wrong_path_prefix[end] - wrong_path_prefix[position]
                )
                if kind_codes[position] != KIND_COMMITTED:
                    wrong_path_launches += 1
                span_flush = flush_prefix[end] - flush_prefix[position]
                if span_flush:
                    # A pipeline flush inside the replayed span: charge
                    # the refill gap and break launch chaining.
                    launch_cost += span_flush
                    flush_cycles += span_flush
                    chained = False
            else:
                committed += matched
            loaded_pc = unit.start_pc
            note_replay(unit, matched)
            cycles += launch_cost
            position = end
            pending_head = position
            continue
        chained = False
        if segment_start < 0:
            segment_start = position
        cycles += gpp_cycles(trace, position, position + 1)
        code = class_codes[position]
        gpp_class_counts[code] = gpp_class_counts.get(code, 0) + 1
        if speculative:
            gap = flush_gaps[position]
            if gap:
                # Pipeline flush right after this record (mispredict
                # resolution or interrupt redirect): charge the refill
                # gap and invalidate the GPP segment mid-stream.
                cycles += gap
                flush_cycles += gap
                gpp_segments.append((segment_start, position + 1))
                segment_start = -1
        if is_head:
            new_unit = engine.translate_at(trace, position)
            if new_unit is not None:
                pending_head = position + new_unit.n_instructions
            else:
                # Unmappable or too-short head: resume translation at
                # the next instruction so the code after a DIV/syscall/
                # indirect jump still gets configurations.
                pending_head = position + 1
        position += 1

    if segment_start >= 0:
        gpp_segments.append((segment_start, n_records))
    stats.launches = activity.launches = len(launch_configs)
    stats.cold_launches = cold_launches
    stats.committed_instructions = committed
    stats.misspeculations = misspeculations
    stats.squashed_instructions = squashed
    stats.frontend_flush_cycles = flush_cycles
    activity.cold_config_bits = cold_config_bits
    activity.config_cache_accesses = config_cache_accesses
    activity.cycles = cycles
    activity.gpp_class_counts = {
        CLASS_MEMBERS[code]: count for code, count in gpp_class_counts.items()
    }
    activity.cache_misses = gpp.icache.misses + gpp.dcache.misses
    stats.cgra_cycles = cycles
    stats.peak_line_pressure = engine.peak_line_pressure
    if speculative:
        stats.wrong_path_launches = wrong_path_launches
        stats.wrong_path_instructions = wrong_path_instructions
        stats.frontend_mispredicts = trace.mispredicts
        stats.frontend_flushes = trace.flushes
        stats.frontend_interrupts = trace.interrupts
        obs.count("frontend.mispredicts", trace.mispredicts)
        obs.count("frontend.flushes", trace.flushes)
        obs.count("frontend.interrupts", trace.interrupts)
        obs.count("frontend.wrong_path_launches", wrong_path_launches)
    schedule = LaunchSchedule(
        trace_name=trace.name,
        instructions=trace.n_committed,
        stress_coupled=engine.stress_coupled,
        configs=tuple(launch_configs),
        exec_cycles=np.asarray(launch_exec_cycles, dtype=np.int64),
        transrec_cycles=cycles,
        cgra=stats,
        cache_stats=cache.stats,
        activity=activity,
        gpp_segments=tuple(gpp_segments),
    )
    # Integer counts commute, so op kinds fold once per unit by launch
    # multiplicity; units are in first-launch order and so is the op
    # kind dict, which the energy model's float sums depend on.
    multiplicities = np.bincount(
        schedule.unit_index, minlength=len(schedule.units)
    ).tolist()
    cgra_op_counts: dict[FUKind, int] = {}
    active_column_launches = 0
    for unit, multiplicity in zip(schedule.units, multiplicities):
        launch = unit_launches[id(unit)]
        active_column_launches += launch.used_cols * multiplicity
        for kind, count in launch.op_kind_counts:
            cgra_op_counts[kind] = (
                cgra_op_counts.get(kind, 0) + count * multiplicity
            )
    activity.active_column_launches = active_column_launches
    activity.cgra_op_counts = cgra_op_counts
    return schedule


def replay_schedule(
    schedule: LaunchSchedule,
    geometry,
    policy: AllocationPolicy,
) -> ConfigurationAllocator:
    """Apply ``policy`` to a recorded schedule (vectorized).

    Returns the allocator whose tracker holds the policy's stress
    outcome; the launch stream itself is replayed bit-identically to
    the coupled walk through the batch engine
    (:meth:`~repro.core.allocator.ConfigurationAllocator.allocate_indexed`
    on the schedule's unit columns), which drives the policy's whole-schedule *segment plans*
    (:meth:`~repro.core.policy.AllocationPolicy.plan_segments`): the
    policy sees the full launch sequence up front and is re-entered
    only where it actually needs fresh tracker state.
    """
    if schedule.stress_coupled:
        raise ConfigurationError(
            "stress-coupled schedules are policy-dependent and cannot "
            "be replayed under a different policy"
        )
    allocator = ConfigurationAllocator(geometry, policy)
    with obs.span(
        "schedule.replay",
        trace=schedule.trace_name,
        policy=getattr(policy, "name", "?"),
        launches=schedule.n_launches,
    ):
        obs.count("schedule.replays")
        if schedule.configs:
            allocator.allocate_indexed(
                schedule.configs,
                schedule.units,
                schedule.unit_index,
                cycles=schedule.exec_cycles,
            )
    return allocator


# ----------------------------------------------------------------------
# Per-process memoisation (weak on the trace, LRU-bounded per trace)

#: Distinct pipelines memoised per trace before LRU eviction. Large
#: geometry sweeps stream through without pinning every fabric's
#: schedule in memory.
_SCHEDULES_PER_TRACE = 16

_SCHEDULE_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_GPP_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def shared_schedule(params: SystemParams, trace: Trace) -> LaunchSchedule:
    """Memoised :func:`compute_schedule` for decoupled pipelines.

    One walk per (trace, :func:`schedule_key`) per process; campaigns
    and the experiment drivers fan every policy and seed out as replays
    of the shared schedule.
    """
    key = schedule_key(params)
    per_trace = _SCHEDULE_CACHE.get(trace)
    if per_trace is None:
        per_trace = OrderedDict()
        _SCHEDULE_CACHE[trace] = per_trace
    schedule = per_trace.get(key)
    if schedule is None:
        obs.count("schedule.memo.misses")
        with obs.span("schedule.walk", trace=trace.name, coupled=False):
            schedule = compute_schedule(params, trace)
        per_trace[key] = schedule
        while len(per_trace) > _SCHEDULES_PER_TRACE:
            per_trace.popitem(last=False)
    else:
        obs.count("schedule.memo.hits")
        per_trace.move_to_end(key)
    return schedule


def gpp_reference(
    trace: Trace, params: SystemParams
) -> tuple[GPPTimingResult, EnergyReport]:
    """Stand-alone GPP reference timing + energy, memoised.

    The reference is identical across every policy and mapper point of
    a campaign (it never touches the fabric), so it is computed once
    per (trace, GPP params, energy params) per process. A fresh copy
    of the timing result is returned per call — results are mutable
    dataclasses and must not alias across
    :class:`~repro.system.stats.SystemResult`\\ s.
    """
    key = (_freeze(params.gpp), _freeze(params.energy))
    per_trace = _GPP_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _GPP_CACHE[trace] = per_trace
    entry = per_trace.get(key)
    if entry is None:
        timing = GPPTimingModel(params.gpp).run(trace)
        activity = SystemActivity(
            cycles=timing.cycles,
            gpp_class_counts=dict(trace.class_counts()),
            cache_misses=timing.icache_misses + timing.dcache_misses,
            fabric_cells=0,
        )
        energy = EnergyModel(params.energy).report(activity)
        entry = (timing, energy)
        per_trace[key] = entry
    timing, energy = entry
    return replace(timing), energy


def clear_schedule_caches() -> None:
    """Drop all in-process memoised schedules, GPP references and
    front-end annotations (benchmarking and test isolation)."""
    _SCHEDULE_CACHE.clear()
    _GPP_CACHE.clear()
    clear_annotation_cache()
