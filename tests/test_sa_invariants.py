"""The annealer's incremental state, checked against a recomputation.

The move loop never recomputes its state: it patches cached dependence
windows, live value intervals, line pressure, occupancy masks, row
counts, the used-column maximum and the running cost delta on every
commit. These tests anneal suite windows and, after every commit,
recount all of it from the op coordinates alone:

* each cached window equals :meth:`_AnnealState.column_window` and
  each cached interval equals :meth:`_AnnealState._interval`;
* line pressure equals the routing oracle's profile
  (:func:`repro.mapping.routing.value_intervals`), and the occupancy
  masks, row counts and ``used_max`` equal a recount;
* the running ``cost_delta`` equals the full cost of the current
  placement minus the seed's: weighted critical path + row balance +
  stress + congestion excess.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cgra.interconnect import pressure_profile
from repro.dbt.translator import DBTLimits
from repro.dbt.window import build_unit
from repro.mapping import SimulatedAnnealingMapper
from repro.mapping.legality import check_unit
from repro.mapping.annealing import _AnnealState
from repro.mapping.routing import value_intervals
from repro.workloads.suite import run_workload
from tests.test_sa_placements import (
    VARIANTS,
    head_positions,
    variant_geometry,
    variant_hint,
)

#: Suite workloads whose windows are annealed under every variant
#: (both have moves the budgeted variant rejects).
WORKLOADS = ("dijkstra", "rijndael")


def placement_of(state: _AnnealState, seed) -> SimpleNamespace:
    """The placement ``state`` currently describes, as a light view
    with the unit fields the routing oracle and the cost read (building
    a :class:`VirtualConfiguration` per commit would dominate the
    test's time)."""
    return SimpleNamespace(
        ops=tuple(
            SimpleNamespace(
                row=row,
                col=col,
                width=op.width,
                end_col=col + op.width,
                trace_offset=op.trace_offset,
            )
            for op, row, col in zip(seed.ops, state.op_rows, state.op_cols)
        ),
        n_instructions=seed.n_instructions,
        geometry_cols=seed.geometry_cols,
    )


def line_profile(unit, records) -> np.ndarray:
    """Per-boundary line pressure of ``unit`` from the routing oracle."""
    return pressure_profile(value_intervals(unit, records), unit.geometry_cols)


def full_cost(state: _AnnealState, unit, hint, pressure) -> float:
    """The annealing cost of ``unit`` (whose line pressure is
    ``pressure``), computed from scratch."""
    ops = unit.ops
    norm = max(1, sum(op.width for op in ops))
    used = max(op.col + op.width for op in ops)
    rows = np.zeros(state.rows, dtype=np.int64)
    for op in ops:
        rows[op.row] += op.width
    stress = 0.0
    if hint is not None:
        table = hint[: state.rows, : unit.geometry_cols]
        peak = float(table.max())
        if peak > 0:
            stress = sum(
                float(table[op.row, op.col : op.col + op.width].sum()) / peak
                for op in ops
            )
    excess = np.maximum(0, pressure - state.line_soft_cap)
    return (
        state.cp_weight * used
        + state.balance_weight * float((rows**2).sum()) / norm
        + state.stress_weight * stress
        + state.congestion_weight * float((excess**2).sum()) / norm
    )


def check_state(state: _AnnealState, seed, records, hint, seed_cost) -> None:
    """Assert every incremental field of ``state`` equals a recount."""
    n_ops = state.n_ops
    assert state.end_cols == [
        col + width for col, width in zip(state.op_cols, state.widths)
    ]
    for index in range(n_ops):
        assert (
            state.win_lo[index], state.win_hi[index]
        ) == state.column_window(index), f"stale window of op {index}"
    unit = placement_of(state, seed)
    pressure = line_profile(unit, records)
    if state.track_lines:
        for index in range(n_ops):
            assert state.intervals[index] == state._interval(index), (
                f"stale live interval of op {index}"
            )
        assert state.line_pressure[:-1] == pressure.tolist()
        assert state.line_pressure[-1] == 0
    busy = [0] * state.rows
    counts = [0] * state.rows
    for op in unit.ops:
        cells = ((1 << op.width) - 1) << op.col
        assert not busy[op.row] & cells, "two ops share a cell"
        busy[op.row] |= cells
        counts[op.row] += op.width
    assert state.busy == busy
    assert state.row_counts == counts
    assert state.used_max == max(state.end_cols)
    expected = full_cost(state, unit, hint, pressure) - seed_cost
    assert math.isclose(
        state.cost_delta, expected, rel_tol=0.0,
        abs_tol=1e-9 * max(1.0, abs(seed_cost)),
    ), (state.cost_delta, expected)


@pytest.fixture
def audited(monkeypatch):
    """Check the state after every commit; yields the audit log:
    one ``[state, seed, records, hint, seed cost, commits]`` per
    annealed unit."""
    log = []
    init, commit = _AnnealState.__init__, _AnnealState.commit

    def audited_init(self, seed, records, geometry, stress_hint, *args, **kw):
        init(self, seed, records, geometry, stress_hint, *args, **kw)
        hint = None
        if stress_hint is not None:
            hint = np.asarray(stress_hint, dtype=np.float64)
        records = tuple(records)[: seed.n_instructions]
        cost = full_cost(self, seed, hint, line_profile(seed, records))
        self.audit = [self, seed, records, hint, cost, 0]
        log.append(self.audit)
        check_state(self, seed, records, hint, cost)

    def audited_commit(self, delta):
        commit(self, delta)
        self.audit[5] += 1
        check_state(self, *self.audit[1:5])

    monkeypatch.setattr(_AnnealState, "__init__", audited_init)
    monkeypatch.setattr(_AnnealState, "commit", audited_commit)
    return log


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "label,shape,kwargs,hint_seed", VARIANTS, ids=[v[0] for v in VARIANTS]
)
def test_incremental_state_matches_recount_after_every_commit(
    audited, label, shape, kwargs, hint_seed, workload
):
    geometry = variant_geometry(shape)
    hint = variant_hint(geometry, hint_seed)
    mapper = SimulatedAnnealingMapper(**kwargs)
    trace = run_workload(workload)
    for position in head_positions(trace):
        annealed = len(audited)
        unit = build_unit(
            trace, position, geometry, DBTLimits(),
            mapper=mapper, stress_hint=hint,
        )
        if unit is None:
            continue
        window = [trace[position + i] for i in range(unit.n_instructions)]
        assert check_unit(unit, window, geometry).ok
        if len(audited) == annealed:
            continue  # a single-op unit: nothing was annealed
        state, seed, records, hint_arr, seed_cost, _ = audited[-1]
        # The returned unit is the best placement seen, and its cost
        # is the seed's plus the best running delta.
        assert [op.row for op in unit.ops] == state.best_rows
        assert [op.col for op in unit.ops] == state.best_cols
        best = full_cost(
            state, unit, hint_arr, line_profile(unit, records)
        ) - seed_cost
        assert math.isclose(
            best, state.best_delta, rel_tol=0.0,
            abs_tol=1e-9 * max(1.0, abs(seed_cost)),
        )
    assert sum(entry[5] for entry in audited) > 0, "no move was committed"
    if shape[2] is not None:
        assert sum(entry[0].budget_rejections for entry in audited) > 0
    # The line bookkeeping runs exactly when something reads it.
    assert all(
        entry[0].track_lines
        == (mapper.congestion_weight != 0.0 or shape[2] is not None)
        for entry in audited
    )
