"""Dataflow-graph construction over committed instruction windows.

The scheduler tracks dependences incrementally for speed; this module
derives the same dependences explicitly — as a plain edge list
(:func:`dependence_edges`, used by the annealing mapper) and as a
:class:`networkx.DiGraph` (:func:`build_dfg`) for analysis, visual
inspection and — most importantly — as an independent oracle that the
tests use to validate scheduler output. networkx is imported only when
a graph is built, so importing :mod:`repro` never pays for it.

Edge kinds (``kind`` attribute):

* ``"raw"`` — register read-after-write;
* ``"mem"`` — memory ordering between overlapping accesses (RAW, WAR
  and WAW on the same word; load-load pairs are unordered).

A pair can be related both ways — e.g. a load whose result the next
store both *stores* (register RAW) and is ordered against (WAR on the
word). The graph keeps one edge and the ``raw`` kind wins: the
ordering constraint is identical either way (consumer starts at or
after the producer's end), but only ``raw`` edges carry a value on
the context lines, and the routing model
(:mod:`repro.mapping.routing`) must see every one of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.isa.instructions import OPCODES, InstrClass
from repro.sim.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def _word_span(record: TraceRecord) -> range:
    """Word-aligned address range touched by a memory access."""
    first = record.mem_addr >> 2
    last = (record.mem_addr + record.mem_bytes - 1) >> 2
    return range(first, last + 1)


def dependence_edges(
    records: Sequence[TraceRecord],
) -> list[tuple[int, int, str]]:
    """``(producer, consumer, kind)`` dependence edges of a window.

    Producers and consumers are window offsets (0-based). Edges come
    producer-major, each producer's consumers in window order — the
    iteration order of :func:`build_dfg`'s ``graph.edges``.
    """
    kinds: dict[tuple[int, int], str] = {}
    last_writer: dict[int, int] = {}
    last_store: dict[int, int] = {}
    last_load: dict[int, list[int]] = {}

    for offset, record in enumerate(records):
        for reg in source_registers(record):
            producer = last_writer.get(reg)
            if producer is not None:
                kinds[producer, offset] = "raw"
        # Raw edges for this consumer were added first; a duplicate
        # pair keeps the raw kind (the value really rides a line).
        if record.cls is InstrClass.LOAD:
            for word in _word_span(record):
                store = last_store.get(word)
                if store is not None:
                    kinds.setdefault((store, offset), "mem")
                last_load.setdefault(word, []).append(offset)
        elif record.cls is InstrClass.STORE:
            for word in _word_span(record):
                store = last_store.get(word)
                if store is not None:
                    kinds.setdefault((store, offset), "mem")
                for load in last_load.pop(word, ()):  # WAR
                    kinds.setdefault((load, offset), "mem")
                last_store[word] = offset
        if record.rd is not None:
            last_writer[record.rd] = offset
    return [
        (producer, consumer, kind)
        for (producer, consumer), kind in sorted(kinds.items())
    ]


def build_dfg(records: Sequence[TraceRecord]) -> nx.DiGraph:
    """Build the dependence graph of an instruction window.

    Nodes are window offsets (0-based ints) with a ``record`` attribute;
    edges point from producer to consumer and carry their ``kind``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for offset, record in enumerate(records):
        graph.add_node(offset, record=record)
    for producer, consumer, kind in dependence_edges(records):
        graph.add_edge(producer, consumer, kind=kind)
    return graph


def source_registers(record: TraceRecord) -> tuple[int, ...]:
    """Registers ``record`` reads (``x0`` is constant zero, never a
    dependence). The single definition of the source-register rule,
    shared by this oracle, the scheduler's incremental bookkeeping and
    the routing pressure model — the three must never drift."""
    spec = OPCODES[record.op]
    sources = []
    if spec.reads_rs1 and record.rs1 is not None and record.rs1 != 0:
        sources.append(record.rs1)
    if spec.reads_rs2 and record.rs2 is not None and record.rs2 != 0:
        sources.append(record.rs2)
    return tuple(sources)


def critical_path_length(graph: nx.DiGraph) -> int:
    """Longest dependence chain, in instructions (>= 1 for non-empty)."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return 0
    return nx.dag_longest_path_length(graph) + 1


def ilp_estimate(graph: nx.DiGraph) -> float:
    """Average instruction-level parallelism: nodes / critical path."""
    length = critical_path_length(graph)
    return graph.number_of_nodes() / length if length else 0.0
