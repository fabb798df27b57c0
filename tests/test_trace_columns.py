"""The committed trace and its speculative streams, record by record.

The experiment goldens pin the ISS and the front end only through the
numbers the models derive from them. This file pins the streams
themselves: one SHA-256 digest over all 12 :class:`TraceRecord` fields,
the record kind and the flush gap of every record of the 10 suite
kernels, clean and behind each front end of the speculation study
(``repro.experiments.speculation.ARMS``).

It also checks the laws of the columns on every one of those streams,
that the suite traces stay compact, and that the ISS, the front end and
the GPP reference read columns without building a record object.
"""

import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.cgra.fabric import FabricGeometry
from repro.experiments.speculation import ARMS
from repro.frontend.speculative import speculative_trace
from repro.gpp.timing import GPPTimingModel, stream_dcache
from repro.isa.instructions import InstrClass
from repro.sim.cpu import CPU
from repro.sim.trace import (
    ABSENT,
    CLASS_MEMBERS,
    KIND_COMMITTED,
    KIND_HANDLER,
    KIND_WRONG_PATH,
    TraceRecord,
)
from repro.system import SystemParams
from repro.system.schedule import clear_schedule_caches, gpp_reference
from repro.workloads.suite import (
    get_workload,
    run_workload,
    suite_traces,
    workload_names,
)

FIXTURE = Path(__file__).resolve().parent / "golden" / "trace_records.json"

#: Every :class:`~repro.sim.trace.TraceRecord` field, in declaration order.
FIELDS = (
    "pc", "op", "cls", "rd", "rs1", "rs2", "imm", "rd_value", "mem_addr",
    "mem_bytes", "taken", "next_pc",
)

#: The speculation study's front ends (the clean arm is the base trace).
FRONT_ENDS = tuple((arm, spec) for arm, spec in ARMS if spec is not None)


def streams():
    """``(label, stream)`` for every suite kernel, clean and then behind
    each front end of :data:`FRONT_ENDS`."""
    for name, trace in suite_traces().items():
        yield f"{name} clean", trace
        for arm, spec in FRONT_ENDS:
            yield f"{name} {arm}", speculative_trace(trace, spec)


def record_digest() -> dict:
    """Digest of every field of every record of :func:`streams`.

    Each record hashes as the ``repr`` of its field values (the class
    by member name), its kind and its flush gap, so a field that comes
    back as a numpy scalar, or as ``1`` where ``True`` was, changes the
    digest too.
    """
    sha = hashlib.sha256()
    n_streams = n_records = 0
    for label, stream in streams():
        sha.update(f"# {label}\n".encode())
        kinds = stream.kind_array.tolist()
        gaps = stream.flush_gap_array.tolist()
        for record, kind, gap in zip(stream, kinds, gaps, strict=True):
            values = [getattr(record, field) for field in FIELDS]
            values[2] = values[2].name
            sha.update(repr((*values, kind, gap)).encode() + b"\n")
        n_streams += 1
        n_records += len(stream)
    return {"sha256": sha.hexdigest(), "streams": n_streams, "records": n_records}


def test_record_digest_matches_fixture():
    """Regenerating the fixture after an *intentional* change to the
    ISS or the front end::

        PYTHONPATH=src python -m tests.test_trace_columns \\
            > tests/golden/trace_records.json
    """
    expected = json.loads(FIXTURE.read_text())
    assert record_digest() == expected, (
        "trace records drifted from tests/golden/trace_records.json"
    )


# ----------------------------------------------------------------------
# Laws of the columns, on every suite kernel clean and behind each
# front end.

ARM_NAMES = ("clean",) + tuple(arm for arm, _ in FRONT_ENDS)
STREAMS = [(name, arm) for name in workload_names() for arm in ARM_NAMES]
STREAM_IDS = [f"{name}-{arm}" for name, arm in STREAMS]


def _codes(*classes: InstrClass) -> list[int]:
    return [CLASS_MEMBERS.index(cls) for cls in classes]


def _stream(name: str, arm: str):
    """``(base trace, stream)``; the clean stream is the base trace."""
    trace = run_workload(name)
    spec = dict(FRONT_ENDS).get(arm)
    return trace, trace if spec is None else speculative_trace(trace, spec)


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_memory_address_set_exactly_on_loads_and_stores(name, arm):
    _, stream = _stream(name, arm)
    memory = np.isin(
        stream.class_code_array, _codes(InstrClass.LOAD, InstrClass.STORE)
    )
    np.testing.assert_array_equal(stream.mem_addr_array != ABSENT, memory)
    assert (stream.mem_addr_array[memory] >= 0).all()


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_outcome_set_exactly_on_committed_branches_and_jumps(name, arm):
    """Committed BRANCH/JUMP records carry an outcome (jumps always
    taken) and nothing else does: wrong-path and handler records were
    fetched, never resolved."""
    _, stream = _stream(name, arm)
    codes = stream.class_code_array
    committed = stream.kind_array == KIND_COMMITTED
    control_flow = np.isin(codes, _codes(InstrClass.BRANCH, InstrClass.JUMP))
    np.testing.assert_array_equal(
        stream.taken_array != ABSENT, control_flow & committed
    )
    assert set(np.unique(stream.taken_array[control_flow & committed])) <= {0, 1}
    jumps = (codes == _codes(InstrClass.JUMP)[0]) & committed
    assert (stream.taken_array[jumps] == 1).all()


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_next_pc_is_the_following_records_pc(name, arm):
    _, stream = _stream(name, arm)
    np.testing.assert_array_equal(
        stream.next_pc_array[:-1], stream.pc_array[1:]
    )


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_committed_subsequence_is_the_base_trace(name, arm):
    trace, stream = _stream(name, arm)
    committed = stream.kind_array == KIND_COMMITTED
    for column in (
        "static_index_array",
        "mem_addr_array",
        "taken_array",
        "rd_value_array",
    ):
        np.testing.assert_array_equal(
            getattr(stream, column)[committed],
            getattr(trace, column),
            err_msg=column,
        )
    base = len(trace.table)
    assert stream.table.pc[:base] == trace.table.pc
    assert stream.table.op[:base] == trace.table.op


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_kind_counts_sum_to_stream_length(name, arm):
    trace, stream = _stream(name, arm)
    counts = np.bincount(stream.kind_array, minlength=3)
    assert len(counts) == 3
    assert int(counts.sum()) == len(stream)
    assert counts[KIND_COMMITTED] == stream.n_committed == len(trace)
    if stream is trace:
        assert counts[KIND_WRONG_PATH] == counts[KIND_HANDLER] == 0


@pytest.mark.parametrize("name,arm", STREAMS, ids=STREAM_IDS)
def test_wrong_path_runs_hold_no_branch(name, arm):
    _, stream = _stream(name, arm)
    wrong_path = stream.kind_array == KIND_WRONG_PATH
    assert not np.isin(
        stream.class_code_array[wrong_path], _codes(InstrClass.BRANCH)
    ).any()


# ----------------------------------------------------------------------
# Cost guards.


def test_suite_traces_hold_at_most_64_bytes_per_record():
    programs = [get_workload(name).program() for name in workload_names()]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [CPU(program).run().trace for program in programs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_records = sum(map(len, traces))
    assert held <= 64 * n_records, (
        f"{held} B for {n_records} records ({held / n_records:.1f} B each)"
    )


def test_iss_front_end_and_gpp_reference_build_no_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a TraceRecord was built")

    monkeypatch.setattr(TraceRecord, "__init__", refuse)
    params = SystemParams(geometry=FabricGeometry(rows=4, cols=8))
    clear_schedule_caches()
    for name in workload_names():
        trace = CPU(get_workload(name).program()).run().trace
        for _, spec in FRONT_ENDS:
            speculative_trace(trace, spec)
        gpp_reference(trace, params)
    with pytest.raises(AssertionError, match="TraceRecord was built"):
        trace[0]


@pytest.mark.parametrize("cut", ("per_record", "random", "sparse"))
def test_gpp_cost_is_additive_over_spans(cut):
    """The GPP cost is a partition law over record positions. Timing
    the pieces of an ordered partition of a position set one after
    another on one model charges what one pass over their union does,
    with the same icache, base cycles, mispredicts and first-seen class
    counts: the whole trace record by record, as the walk's GPP side
    once timed it, or cut at random points, and a sparse random
    position set, as the walk's GPP side is, cut at random points.
    Over the whole trace, adding the stream's dcache penalty once gives
    the stand-alone reference."""
    trace = run_workload("dijkstra")
    rng = np.random.default_rng(0)
    positions = np.arange(len(trace))
    if cut == "sparse":
        positions = positions[rng.random(positions.size) < 0.3]
    if cut == "per_record":
        pieces = np.split(positions, positions.size)
    else:
        points = rng.choice(np.arange(1, positions.size), size=64, replace=False)
        pieces = np.split(positions, np.sort(points))
    whole = GPPTimingModel()
    expected = whole.cycles_at(trace, positions)
    model = GPPTimingModel()
    assert sum(model.cycles_at(trace, piece) for piece in pieces) == expected
    assert (model.icache.hits, model.icache.misses) == (
        whole.icache.hits,
        whole.icache.misses,
    )
    assert model.base_cycles == whole.base_cycles
    assert model.mispredicts == whole.mispredicts
    assert list(model.class_counts.items()) == list(
        whole.class_counts.items()
    )
    if cut == "sparse":
        return
    reference = GPPTimingModel().run(trace)
    params = model.params
    dcache = stream_dcache(trace, params.dcache)
    assert expected + dcache.misses * params.dcache.miss_penalty == (
        reference.cycles
    )
    assert model.icache.misses == reference.icache_misses
    assert dcache.misses == reference.dcache_misses
    assert model.base_cycles == reference.base_cycles
    assert model.mispredicts * params.branch_mispredict_penalty == (
        reference.mispredict_cycles
    )
    assert list(model.class_counts.items()) == list(
        trace.class_counts().items()
    )


if __name__ == "__main__":
    print(json.dumps(record_digest(), indent=2))
