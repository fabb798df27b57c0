"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.cgra.configuration import VirtualConfiguration, greedy_identity
from repro.core.allocator import ConfigurationAllocator
from repro.dbt.scheduler import NO_FABRIC_OP, PlacementFacts, SchedulerState
from repro.gpp.branch import make_predictor
from repro.gpp.cache import CacheModel
from repro.gpp.params import GPPParams
from repro.isa.assembler import assemble
from repro.isa.instructions import OPCODES, InstrClass
from repro.sim.cpu import CPU
from repro.sim.trace import ABSENT, Trace, TraceRecord


def run_asm(source: str, max_steps: int = 500_000):
    """Assemble and functionally execute a snippet."""
    return CPU(assemble(source), max_steps=max_steps).run()


def trace_of(source: str, max_steps: int = 500_000) -> Trace:
    """Committed trace of an assembly snippet."""
    return run_asm(source, max_steps=max_steps).trace


_NEXT_PC = 0x1000


def rec(
    op: str,
    rd: int | None = None,
    rs1: int | None = None,
    rs2: int | None = None,
    imm: int | None = None,
    pc: int | None = None,
    mem_addr: int | None = None,
    mem_bytes: int | None = None,
    taken: bool | None = None,
    next_pc: int | None = None,
) -> TraceRecord:
    """Hand-build a TraceRecord with sensible defaults for tests."""
    global _NEXT_PC
    if pc is None:
        pc = _NEXT_PC
        _NEXT_PC += 4
    spec = OPCODES[op]
    if mem_bytes is None:
        mem_bytes = spec.mem_bytes if mem_addr is not None else 0
    if taken is None and spec.cls is InstrClass.BRANCH:
        taken = False
    if next_pc is None:
        next_pc = pc + 4
    if rd == 0:
        rd = None
    return TraceRecord(
        pc=pc, op=op, cls=spec.cls, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
        rd_value=None, mem_addr=mem_addr, mem_bytes=mem_bytes,
        taken=taken, next_pc=next_pc,
    )


def reset_rec_pcs(base: int = 0x1000) -> None:
    """Reset the automatic PC counter used by :func:`rec`."""
    global _NEXT_PC
    _NEXT_PC = base


def place_record(state: SchedulerState, record: TraceRecord, offset: int):
    """:meth:`SchedulerState.place` on ``record``'s decoded facts and
    memory address: the placed op, ``NO_FABRIC_OP`` or ``None``."""
    mem_addr = record.mem_addr
    return state.place(
        PlacementFacts(record),
        ABSENT if mem_addr is None else mem_addr,
        offset,
    )


def greedy_unit(
    records, geometry, row_policy: str = "first_fit"
) -> VirtualConfiguration | None:
    """Discovery's greedy placement of a fixed window of ``records``:
    each one placed in order on ``geometry`` (under its routing budget)
    with rows scanned by ``row_policy``. Unlike discovery it never
    closes the unit early: ``None`` when any record is unmappable or
    finds no slot, or when no record yields a fabric op."""
    records = tuple(records)
    state = SchedulerState(geometry, row_policy=row_policy)
    ops = []
    for offset, record in enumerate(records):
        placed = place_record(state, record, offset)
        if placed is None:
            return None
        if placed is not NO_FABRIC_OP:
            ops.append(placed)
    if not ops:
        return None
    return VirtualConfiguration(
        start_pc=records[0].pc,
        pc_path=tuple(record.pc for record in records),
        ops=tuple(ops),
        n_instructions=len(records),
        geometry_rows=geometry.rows,
        geometry_cols=geometry.cols,
        mapper_key=greedy_identity(row_policy),
    )


#: Every registered allocation policy with state-exercising kwargs,
#: plus every other configuration an experiment runs: the ablation's
#: raster and diagonal rotations, and stress_aware at the ablation's
#: interval and at its default one. Entries are (name, kwargs factory);
#: the equivalence and conservation tests run each one.
POLICIES = (
    ("baseline", dict),
    ("random", lambda: {"seed": 11}),
    ("rotation", lambda: {"pattern": "snake"}),
    ("stress_aware", lambda: {"interval": 3}),
    ("static_remap", dict),
    ("rotation", lambda: {"pattern": "raster"}),
    ("rotation", lambda: {"pattern": "diagonal"}),
    ("stress_aware", lambda: {"interval": 8}),
    ("stress_aware", dict),
)

#: Test ids of :data:`POLICIES`, in order.
POLICY_IDS = (
    "baseline",
    "random",
    "rotation",
    "stress_aware",
    "static_remap",
    "rotation-raster",
    "rotation-diagonal",
    "stress_aware-interval8",
    "stress_aware-default",
)


class PerRecordGPP:
    """The GPP's cost, one record at a time: the oracle for
    :meth:`repro.gpp.timing.GPPTimingModel.cycles_at`.

    :meth:`time` charges each record its class's base cycles, fetches
    its PC through the icache and, for a branch, asks and updates the
    predictor, carrying that state from call to call.
    """

    def __init__(self, params: GPPParams) -> None:
        self.params = params
        self.icache = CacheModel(params.icache)
        self.predictor = make_predictor(params.predictor)
        self.base_cycles = 0
        self.mispredicts = 0
        self.class_counts: dict[InstrClass, int] = {}

    def time(self, trace: Trace, positions) -> int:
        """Cycles of the records at ``positions``, in the given order,
        without the dcache."""
        params = self.params
        misses = self.icache.misses
        base = mispredicts = 0
        for position in positions:
            record = trace[int(position)]
            base += params.cycles_for(record.cls)
            self.class_counts[record.cls] = (
                self.class_counts.get(record.cls, 0) + 1
            )
            self.icache.access(record.pc)
            if record.cls is InstrClass.BRANCH:
                offset = record.imm if record.imm is not None else 0
                if self.predictor.predict(record.pc, offset) != record.taken:
                    mispredicts += 1
                self.predictor.update(record.pc, record.taken)
        self.base_cycles += base
        self.mispredicts += mispredicts
        return (
            base
            + (self.icache.misses - misses) * params.icache.miss_penalty
            + mispredicts * params.branch_mispredict_penalty
        )


def allocate_each(schedule, geometry, policy) -> ConfigurationAllocator:
    """A fresh allocator after placing ``schedule``'s launches one by
    one with ``allocate``: the policy's ``next_pivot`` hook picks each
    pivot from the stress of every launch before it. This is the
    per-launch reference for the batch replay and the coupled walk."""
    allocator = ConfigurationAllocator(geometry, policy)
    for unit, cycles in zip(schedule.configs, schedule.exec_cycles.tolist()):
        allocator.allocate(unit, cycles=cycles)
    return allocator


def assert_trackers_equal(expected, actual):
    """Bit-identity of two utilization trackers."""
    np.testing.assert_array_equal(
        expected.execution_counts, actual.execution_counts
    )
    np.testing.assert_array_equal(expected.cycle_counts, actual.cycle_counts)
    assert expected.total_executions == actual.total_executions
    assert expected.total_cycles == actual.total_cycles
    assert expected.config_footprints == actual.config_footprints
