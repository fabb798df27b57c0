"""Speculative front end: annotate a committed trace with speculation.

:class:`SpeculativeFrontEnd` replays a branch predictor from the shared
:mod:`repro.gpp.branch` registry over a committed :class:`Trace` and
emits a :class:`SpeculativeTrace` — the stream the fetch/translate
pipeline actually saw:

- after every mispredicted branch, a *wrong-path run* of up to
  ``fetch_width * resolve_latency`` records fetched down the predicted
  (wrong) path, taken from the committed code at the wrong target when
  it exists there (so wrong-path fetch pollutes the config cache and
  dcache with *real* code) and synthesized otherwise;
- a flush gap (``resolve_latency + flush_penalty`` cycles) attached to
  the record preceding every fetch redirect (mispredict resolution,
  interrupt entry, handler return);
- seeded asynchronous interrupts that flush the pipeline and inject a
  handler mini-trace at :data:`HANDLER_BASE_PC`.

The stream is built by column, without record objects: every stream
record is a *source position* into the base trace's columns, extended
by one row per synthesized or handler instruction (which also get their
own entries in the stream's instruction table). Committed records keep
every column; wrong-path records keep the static instruction and the
memory address but carry no written value and no branch outcome.

Wrong-path runs never contain BRANCH records, so the GPP predictor and
branch accounting never train on squashed work; handler code is real
committed work but is tracked separately via its record kind.

The annotation is deterministic per ``(trace, spec)`` and memoised in
the trace's :func:`~repro.sim.trace.trace_memo`, so every walk of one
pipeline shares one annotation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.frontend.spec import FrontEndSpec
from repro.isa.instructions import InstrClass
from repro.sim.trace import (
    ABSENT,
    CLASS_MEMBERS,
    KIND_COMMITTED,
    KIND_HANDLER,
    KIND_WRONG_PATH,
    SpeculativeTrace,
    Trace,
    trace_memo,
)

#: Base address of the injected interrupt-handler mini-trace. High and
#: 4-aligned so it never collides with workload code.
HANDLER_BASE_PC = 0xFFFF_0000

_BRANCH_CODE = CLASS_MEMBERS.index(InstrClass.BRANCH)
_JUMP_CODE = CLASS_MEMBERS.index(InstrClass.JUMP)


class SpeculativeFrontEnd:
    """Stateless-per-call annotator driven by a :class:`FrontEndSpec`."""

    def __init__(self, spec: FrontEndSpec) -> None:
        self.spec = spec

    # -- wrong-path synthesis ----------------------------------------------

    def _wrong_path_run(
        self,
        control_flow: list[bool],
        first_position: dict[int, int],
        synthesize: Callable[[int, str, InstrClass], int],
        wrong_pc: int,
    ) -> list[int]:
        """Source positions of the records fetched down the wrong path
        starting at ``wrong_pc``: the committed code there up to the
        first control-flow instruction (fetch stalls at unresolved
        control flow), or synthesized ALU ops when that is empty."""
        budget = self.spec.wrong_path_budget
        position = first_position.get(wrong_pc)
        if position is not None:
            stop = min(position + budget, len(control_flow))
            end = position
            while end < stop and not control_flow[end]:
                end += 1
            if end > position:
                return list(range(position, end))
        return [
            synthesize(wrong_pc + 4 * i, "add", InstrClass.ALU)
            for i in range(budget)
        ]

    def _handler_run(
        self, synthesize: Callable[[int, str, InstrClass], int]
    ) -> list[int]:
        """Source positions of the interrupt-handler mini-trace (kind
        ``KIND_HANDLER``)."""
        length = self.spec.handler_length
        run = [synthesize(HANDLER_BASE_PC, "ecall", InstrClass.SYSTEM)]
        for i in range(1, length - 1):
            run.append(synthesize(HANDLER_BASE_PC + 4 * i, "add", InstrClass.ALU))
        if length > 1:
            run.append(
                synthesize(
                    HANDLER_BASE_PC + 4 * (length - 1), "jalr", InstrClass.JUMP
                )
            )
        return run

    def _interrupt_points(self, n_committed: int) -> set[int]:
        """Committed indices after which an interrupt fires (seeded)."""
        rate = self.spec.interrupt_rate
        points: set[int] = set()
        if rate <= 0.0 or n_committed == 0:
            return points
        rng = np.random.default_rng(self.spec.seed)
        position = 0
        while True:
            position += int(rng.geometric(rate))
            if position > n_committed:
                return points
            points.add(position - 1)

    # -- annotation --------------------------------------------------------

    def annotate(self, trace: Trace) -> SpeculativeTrace:
        """Expand a committed trace into the speculative fetch stream."""
        spec = self.spec
        predictor = spec.make_predictor()
        n_committed = len(trace)
        table = trace.table
        static_index = trace.static_index_array
        codes = trace.class_code_array
        is_branch = codes == _BRANCH_CODE
        control_flow = (is_branch | (codes == _JUMP_CODE)).tolist()
        indices = memoryview(static_index)
        pcs = memoryview(trace.pc_array)
        outcomes = memoryview(trace.taken_array)

        # First committed occurrence of each pc, for wrong-path fetch.
        statics, first = np.unique(static_index, return_index=True)
        first_position = dict(
            zip(table.pc_array[statics].tolist(), first.tolist())
        )
        # Synthesized and handler instructions, one row per distinct
        # (pc, op, cls), addressed by source positions after the base
        # trace's records.
        synthetic_rows: dict[tuple[int, str, InstrClass], int] = {}

        def synthesize(pc: int, op: str, cls: InstrClass) -> int:
            return n_committed + synthetic_rows.setdefault(
                (pc, op, cls), len(synthetic_rows)
            )

        interrupt_after = self._interrupt_points(n_committed)

        # The stream as source positions, kinds as (kind, length) runs,
        # and the stream positions that carry a flush gap.
        sources: list[int] = []
        run_kinds: list[int] = []
        run_lengths: list[int] = []
        flush_at: list[int] = []
        mispredicts = 0
        interrupts = 0

        def emit(run, kind: int) -> None:
            sources.extend(run)
            run_kinds.append(kind)
            run_lengths.append(len(run))

        branches = set(np.flatnonzero(is_branch).tolist())
        committed_from = 0
        for position in sorted(interrupt_after.union(branches)):
            emit(range(committed_from, position + 1), KIND_COMMITTED)
            committed_from = position + 1
            if position in branches:
                pc = pcs[position]
                imm = table.imm[indices[position]]
                offset = imm if imm is not None else 0
                predicted = predictor.predict(pc, offset)
                taken = outcomes[position] == 1
                predictor.update(pc, taken)
                if predicted != taken:
                    mispredicts += 1
                    # Wrong path = the predicted (not-executed) side.
                    wrong_pc = pc + offset if predicted else pc + 4
                    run = self._wrong_path_run(
                        control_flow, first_position, synthesize, wrong_pc
                    )
                    emit(run, KIND_WRONG_PATH)
                    flush_at.append(len(sources) - 1)
            if position in interrupt_after:
                interrupts += 1
                # Pipeline flush on entry: gap lands on the last record
                # fetched before the handler redirect.
                flush_at.append(len(sources) - 1)
                emit(self._handler_run(synthesize), KIND_HANDLER)
                flush_at.append(len(sources) - 1)
        emit(range(committed_from, n_committed), KIND_COMMITTED)

        # A synthesized instruction reads and writes no register and
        # touches no memory.
        stream_table = table.extended(
            (pc, op, cls, None, None, None, None, 0)
            for pc, op, cls in synthetic_rows
        )
        source = np.asarray(sources, dtype=np.int64)
        kinds = np.repeat(
            np.asarray(run_kinds, dtype=np.int8), np.asarray(run_lengths)
        )
        committed = kinds == KIND_COMMITTED
        committed_source = source[committed]
        stream_index = np.concatenate(
            [static_index, np.arange(len(table), len(stream_table))]
        )[source]
        mem_addr = np.concatenate(
            [trace.mem_addr_array, np.full(len(synthetic_rows), ABSENT)]
        )[source]
        rd_value = np.full(len(source), ABSENT, dtype=np.int64)
        rd_value[committed] = trace.rd_value_array[committed_source]
        taken = np.full(len(source), ABSENT, dtype=np.int8)
        taken[committed] = trace.taken_array[committed_source]
        gaps = np.zeros(len(source), dtype=np.int64)
        np.add.at(gaps, flush_at, spec.flush_cycles)

        # Stream consistency: every record's next_pc is the pc of the
        # record that follows it in the fetch stream, so redirect flags
        # (and therefore unit heads and prefix matches) describe the
        # speculative stream, not the committed one. The final record
        # keeps its own next_pc (a fetched, uncommitted one falls
        # through).
        stream_pc = stream_table.pc_array[stream_index]
        next_pc = np.empty(len(source), dtype=np.int64)
        next_pc[:-1] = stream_pc[1:]
        if len(source):
            next_pc[-1] = (
                trace.next_pc_array[source[-1]]
                if committed[-1]
                else stream_pc[-1] + 4
            )

        return SpeculativeTrace(
            stream_table,
            stream_index,
            mem_addr,
            rd_value,
            taken,
            next_pc,
            trace.name,
            kinds,
            gaps,
            n_committed=n_committed,
            mispredicts=mispredicts,
            flushes=len(flush_at),
            interrupts=interrupts,
            frontend_fingerprint=spec.fingerprint(),
        )


def speculative_trace(trace: Trace, spec: FrontEndSpec) -> SpeculativeTrace:
    """Memoised :meth:`SpeculativeFrontEnd.annotate` for ``(trace, spec)``."""
    if trace.speculative:
        raise ValueError("trace is already speculative; annotate the base trace")
    memo = trace_memo(trace)
    key = ("frontend", spec)
    annotated = memo.get(key)
    if annotated is None:
        annotated = memo[key] = SpeculativeFrontEnd(spec).annotate(trace)
    return annotated
