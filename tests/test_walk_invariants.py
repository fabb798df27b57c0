"""Conservation and ordering laws of the Phase A walk and Phase B replay.

Checked from each schedule's own records, independently of any
reference walk: launch counts agree across the three places that hold
them, execution cycles and active columns are what the launched units
imply, op-kind and GPP-class counts are what the launched units and the
GPP segments contain — in first-occurrence order, because the energy
model sums their floats in dict order — and committed work plus GPP
work covers the trace exactly once. The utilization tracker a replay
(or the stress-coupled walk) fills holds exactly the stress the
schedule's launches put on the fabric: launches, cycles, per-cell
counts and per-config footprints.
"""

import math

import numpy as np
import pytest

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.frontend import FrontEndSpec
from repro.frontend.speculative import speculative_trace
from repro.system import (
    SystemParams,
    compute_schedule,
    replay_schedule,
    shared_schedule,
)
from repro.workloads.suite import run_workload, workload_names
from tests.support import POLICIES, POLICY_IDS
from tests.test_schedule_equivalence import GEOMETRY

GEOMETRIES = ((2, 16), (4, 32), (8, 24))
FRONTENDS = (None, FrontEndSpec.make("bimodal", interrupt_rate=0.0005, seed=7))


def _walk(name, rows, cols, frontend):
    trace = run_workload(name)
    params = SystemParams(
        geometry=FabricGeometry(rows=rows, cols=cols), frontend=frontend
    )
    stream = trace if frontend is None else speculative_trace(trace, frontend)
    return params, trace, stream, compute_schedule(params, trace)


def _first_seen_counts(keys_per_item):
    counts = {}
    for keys in keys_per_item:
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    return list(counts.items())


@pytest.mark.parametrize("frontend", FRONTENDS, ids=("clean", "spec"))
@pytest.mark.parametrize("rows,cols", GEOMETRIES)
@pytest.mark.parametrize("name", workload_names())
def test_walk_conservation(name, rows, cols, frontend):
    params, trace, stream, schedule = _walk(name, rows, cols, frontend)
    configs = schedule.configs
    activity = schedule.activity
    assert configs, "every suite workload launches on the fabric"

    assert schedule.cgra.launches == activity.launches == len(configs)
    per_cycle = params.datapath.columns_per_cycle
    assert int(schedule.exec_cycles.sum()) == sum(
        math.ceil(unit.used_cols / per_cycle) for unit in configs
    )
    assert activity.active_column_launches == sum(
        unit.used_cols for unit in configs
    )
    assert list(activity.cgra_op_counts.items()) == _first_seen_counts(
        (op.kind for op in unit.ops) for unit in configs
    )

    segments = schedule.gpp_segments
    assert all(
        0 <= start < stop <= len(stream) for start, stop in segments
    )
    assert list(activity.gpp_class_counts.items()) == _first_seen_counts(
        (record.cls for record in stream[start:stop])
        for start, stop in segments
    )
    if frontend is None:
        gpp_records = sum(stop - start for start, stop in segments)
        assert schedule.cgra.committed_instructions + gpp_records == len(trace)
    else:
        # Committed-kind records run once, on the fabric or the GPP.
        prefix = stream.committed_prefix
        gpp_committed = sum(
            int(prefix[stop] - prefix[start]) for start, stop in segments
        )
        assert (
            schedule.cgra.committed_instructions + gpp_committed
            == trace.n_committed
            == len(trace)
        )


def _assert_tracker_conserves(schedule, tracker):
    """The tracker's stress is exactly what the schedule launched."""
    configs = schedule.configs
    exec_cycles = [int(cycles) for cycles in schedule.exec_cycles]
    assert configs, "every suite workload launches on the fabric"
    assert (
        tracker.total_executions
        == schedule.n_launches
        == schedule.cgra.launches
    )
    assert tracker.total_cycles == sum(exec_cycles)
    assert int(tracker.execution_counts.sum()) == sum(
        len(unit.cells) for unit in configs
    )
    assert int(tracker.cycle_counts.sum()) == sum(
        len(unit.cells) * cycles for unit, cycles in zip(configs, exec_cycles)
    )
    footprints = tracker.config_footprints
    stressed = {
        (int(row), int(col))
        for row, col in zip(*np.nonzero(tracker.execution_counts))
    }
    assert set().union(*footprints.values()) == stressed
    assert set(footprints) == {unit.start_pc for unit in configs}


@pytest.mark.parametrize(
    "policy_name,make_kwargs",
    POLICIES,
    ids=POLICY_IDS,
)
@pytest.mark.parametrize("name", workload_names())
def test_replay_conservation(name, policy_name, make_kwargs):
    schedule = shared_schedule(
        SystemParams(geometry=GEOMETRY), run_workload(name)
    )
    allocator = replay_schedule(
        schedule, GEOMETRY, make_policy(policy_name, **make_kwargs())
    )
    _assert_tracker_conserves(schedule, allocator.tracker)


@pytest.mark.parametrize(
    "policy_name,policy_kwargs",
    (("rotation", {}), ("stress_aware", {"interval": 8})),
    ids=("rotation", "stress_aware"),
)
@pytest.mark.parametrize("name", ("bitcount", "crc32", "sha"))
def test_coupled_walk_conservation(name, policy_name, policy_kwargs):
    geometry = FabricGeometry(rows=2, cols=16)
    params = SystemParams(
        geometry=geometry, mapper="annealing", mapper_kwargs={"seed": 0}
    )
    allocator = ConfigurationAllocator(
        geometry, make_policy(policy_name, **policy_kwargs)
    )
    schedule = compute_schedule(params, run_workload(name), allocator=allocator)
    assert schedule.stress_coupled
    _assert_tracker_conserves(schedule, allocator.tracker)


# ----------------------------------------------------------------------
# Laws of the replay fold on the benchmarked policy sweep's fabrics.

SWEEP_GEOMETRIES = ((2, 16), (4, 32), (8, 32))
FOOTPRINT_GEOMETRIES = SWEEP_GEOMETRIES + ((4, 16),)


def _sweep_schedule(name, rows, cols):
    geometry = FabricGeometry(rows=rows, cols=cols)
    params = SystemParams(geometry=geometry)
    return geometry, shared_schedule(params, run_workload(name))


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("rows,cols", SWEEP_GEOMETRIES)
@pytest.mark.parametrize("name", workload_names())
def test_replay_conservation_on_sweep_fabrics(
    name, rows, cols, policy_name, make_kwargs
):
    geometry, schedule = _sweep_schedule(name, rows, cols)
    allocator = replay_schedule(
        schedule, geometry, make_policy(policy_name, **make_kwargs())
    )
    _assert_tracker_conserves(schedule, allocator.tracker)


@pytest.mark.parametrize("policy_name,make_kwargs", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("rows,cols", FOOTPRINT_GEOMETRIES)
@pytest.mark.parametrize("name", workload_names())
def test_footprint_is_the_union_of_its_keys_launches(
    name, rows, cols, policy_name, make_kwargs
):
    """For each start PC, the tracker's footprint is the union of the
    translated cells of every launch with that start PC, under the
    pivots ``allocate_batch`` returns. Several unit objects with
    different cells often share one start PC (87 of the 422 keys of
    these schedules), so the fold must OR across units and flushes."""
    geometry, schedule = _sweep_schedule(name, rows, cols)
    allocator = ConfigurationAllocator(
        geometry, make_policy(policy_name, **make_kwargs())
    )
    batch = allocator.allocate_batch(
        schedule.configs, cycles=schedule.exec_cycles
    )
    placed = {}
    for unit, (row, col) in zip(schedule.configs, batch.pivots.tolist()):
        placed[id(unit), row, col] = (unit, row, col)
    expected = {}
    for unit, pivot_row, pivot_col in placed.values():
        expected.setdefault(unit.start_pc, set()).update(
            ((row + pivot_row) % rows, (col + pivot_col) % cols)
            for row, col in unit.cells
        )
    assert allocator.tracker.config_footprints == {
        key: frozenset(cells) for key, cells in expected.items()
    }


def test_footprint_law_meets_shared_start_pcs():
    """The footprint law above is exercised where it matters: some
    suite schedules launch one start PC from units with different
    cells."""
    shared = 0
    for rows, cols in FOOTPRINT_GEOMETRIES:
        for name in workload_names():
            _, schedule = _sweep_schedule(name, rows, cols)
            cells_by_key = {}
            for unit in schedule.units:
                cells_by_key.setdefault(unit.start_pc, set()).add(unit.cells)
            shared += sum(len(cells) > 1 for cells in cells_by_key.values())
    assert shared > 0
