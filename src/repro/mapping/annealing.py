"""Simulated-annealing mapper with an incremental move cost.

In the style of cgra_pnr's ``SADetailedPlacer``: start from unit
discovery's greedy first-fit placement (the ``seed``
:func:`repro.dbt.window.translate_unit` passes), then anneal single-op
moves (new row and/or a
column shift inside the op's dependence-legal window) under a cost that
trades *wear* against *time*:

* **critical path** — the unit's used-column count, which is exactly
  what the datapath timing model charges
  (:func:`repro.cgra.datapath.execution_cycles`). Moves are bounded so
  the annealed unit never grows past the greedy bounding width of its
  window, so a translated unit costs no more execution cycles than
  the greedy one (it may *save* some by shrinking the critical path).
  The bound does not survive misspeculation truncation: a truncated
  unit keeps its annealed columns, so its prefix can run wider than
  the greedy placement of that prefix
  (:func:`repro.dbt.window.truncate_unit`);
* **row balance** — a quadratic penalty on per-row occupied-cell
  counts. The greedy scheduler's row-0 bias (Fig. 1's corner) makes
  this term large; spreading ops over rows flattens the stress the
  allocator later has to level;
* **stress** — when the DBT engine feeds the allocator's live per-cell
  stress map (``stress_hint``), ops are steered away from the cells
  that already aged the most. The term reads the map in the *virtual*
  frame, which coincides with the physical frame only under
  identity-pivot allocation (the ``baseline`` policy); under pivoting
  policies it is a heuristic prior, and the frame-free row-balance
  term is what cooperates with allocation-level leveling;
* **congestion** — a quadratic penalty on per-column context-line
  pressure *in excess of the fabric's line sizing*
  (``geometry.ctx_lines``; see :mod:`repro.mapping.routing`). Below
  the sizing the interconnect is free and wear-leveling moves pay
  nothing; above it, wide or value-heavy units pay per extra line —
  even when no hard budget is declared. When the geometry declares a
  routing budget, moves that would push any boundary over it are
  additionally rejected outright; discovery placed the seed under the
  same budget, so annealed placements never overflow it.

Move evaluation is incremental, and each proposal pays only for what
decides it. Random draws are batched per sweep (four ``rng`` calls)
from a :class:`numpy.random.Generator` seeded deterministically per
unit, so identical (seed, window) inputs map identically regardless of
translation order; each batch becomes a Python list once. Every op's
dependence-legal column window is cached and, after a commit, refreshed
only for the moved op's predecessors and successors. Most proposals
are illegal (same cell, occupied cells, port clash); the move loop
rejects them inline with per-op width masks against per-row occupancy
bitmasks (the scheduler's own representation) before any cost is
computed. A legal move is priced term by term — congestion, row
balance, stress, critical path, always in that order: per-row
cumulative stress sums (Python lists of the normalised float64 map)
give O(1) stress deltas; each producer's live value interval is cached,
so the line-pressure change computes only the intervals the move
changes; and the critical-path term is re-reduced over the op
end-column vector only when the moved op holds the current maximum.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import math

import numpy as np

from repro import obs
from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.cgra.fu import MEM_PORT_ISSUE_COLUMNS, FUKind
from repro.dbt.dfg import dependence_edges
from repro.mapping.base import Mapper, register_mapper
from repro.sim.trace import TraceRecord


@register_mapper
class SimulatedAnnealingMapper(Mapper):
    """Wear-aware annealing refinement of the greedy placement.

    Args:
        seed: base RNG seed; the per-unit stream also hashes the unit's
            start PC and length, so mapping is order-independent.
        sweeps: annealing sweeps (temperature levels); ``None`` derives
            a budget from the cooling schedule.
        proposals_per_op: proposed moves per op per sweep.
        t0: initial temperature (cost deltas are O(1) after
            normalisation, so ~1.0 is a sensible scale).
        cooling: geometric cooling factor per sweep.
        cp_weight: weight of the critical-path (used columns) term.
        balance_weight: weight of the row-balance term.
        stress_weight: weight of the live-stress term.
        congestion_weight: weight of the context-line congestion term.

    Moves never overflow the geometry's declared routing budget
    (:attr:`~repro.cgra.fabric.FabricGeometry.routing_budget`).
    """

    name = "annealing"
    seedable = True

    #: Constructor defaults, used by :meth:`identity` to name every
    #: parameter that deviates — equal identity must imply identical
    #: output, so every knob that changes placement participates.
    _DEFAULTS = {
        "sweeps": None,
        "proposals_per_op": 2,
        "t0": 1.0,
        "cooling": 0.85,
        "cp_weight": 4.0,
        "balance_weight": 1.0,
        "stress_weight": 1.0,
        "congestion_weight": 1.0,
    }

    def __init__(
        self,
        seed: int = 0,
        sweeps: int | None = None,
        proposals_per_op: int = 2,
        t0: float = 1.0,
        cooling: float = 0.85,
        cp_weight: float = 4.0,
        balance_weight: float = 1.0,
        stress_weight: float = 1.0,
        congestion_weight: float = 1.0,
    ) -> None:
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        if proposals_per_op < 1:
            raise ValueError("proposals_per_op must be >= 1")
        if t0 <= 0.0:
            raise ValueError(f"t0 must be > 0, got {t0}")
        self.seed = int(seed)
        self.sweeps = sweeps
        self.proposals_per_op = proposals_per_op
        self.t0 = float(t0)
        self.cooling = float(cooling)
        self.cp_weight = float(cp_weight)
        self.balance_weight = float(balance_weight)
        self.stress_weight = float(stress_weight)
        self.congestion_weight = float(congestion_weight)

    # ------------------------------------------------------------------

    @property
    def stress_coupled(self) -> bool:
        """Live-stress feedback is consumed only when it is weighted.

        With ``stress_weight == 0`` the stress term contributes an
        exact ``0.0`` to every move delta, so placements are
        policy-independent and simulations may share launch schedules.
        """
        return self.stress_weight != 0.0

    def identity(self) -> str:
        parts = [f"seed={self.seed}"]
        for param in sorted(self._DEFAULTS):
            value = getattr(self, param)
            if value != self._DEFAULTS[param]:
                parts.append(f"{param}={value}")
        return f"{self.name}({','.join(parts)})"

    def _n_sweeps(self) -> int:
        if self.sweeps is not None:
            return self.sweeps
        # Cool from t0 down to ~0.02.
        return max(1, math.ceil(math.log(0.02 / self.t0, self.cooling)))

    def _unit_rng(
        self, records: Sequence[TraceRecord]
    ) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed, records[0].pc, len(records))
        )

    # ------------------------------------------------------------------

    def map_unit(
        self,
        ops: Sequence[TraceRecord],
        geometry: FabricGeometry,
        rng: np.random.Generator | None = None,
        stress_hint: np.ndarray | None = None,
        seed: VirtualConfiguration | None = None,
    ) -> VirtualConfiguration:
        if seed is None:
            raise ValueError(
                "the annealer refines discovery's greedy placement: "
                "pass it as seed"
            )
        records = tuple(ops)
        if len(seed.ops) < 2:
            return self._rebrand(seed)
        if rng is None:
            rng = self._unit_rng(records)
        placed = _AnnealState(
            seed,
            records,
            geometry,
            stress_hint,
            line_limit=geometry.routing_budget,
            cp_weight=self.cp_weight,
            balance_weight=self.balance_weight,
            stress_weight=self.stress_weight,
            congestion_weight=self.congestion_weight,
        )
        if obs.state.enabled:
            obs.count("mapping.sa.units")
        with obs.span("mapping.sa.anneal", ops=len(seed.ops)):
            self._anneal(placed, rng)
        return self._rebrand(seed, placed)

    def _rebrand(
        self,
        seed: VirtualConfiguration,
        state: "_AnnealState | None" = None,
    ) -> VirtualConfiguration:
        """Rebuild the unit under this mapper's cache identity (only the
        ops the annealer moved are rebuilt)."""
        if state is None:
            new_ops = seed.ops
        else:
            new_ops = tuple(
                op
                if op.row == row and op.col == col
                else replace(op, row=row, col=col)
                for op, row, col in zip(
                    seed.ops, state.best_rows, state.best_cols
                )
            )
        return replace(seed, ops=new_ops, mapper_key=self.identity())

    # ------------------------------------------------------------------

    def _anneal(self, state: "_AnnealState", rng: np.random.Generator) -> None:
        n_ops = state.n_ops
        proposals = self.proposals_per_op * n_ops
        temperature = self.t0
        accepted = rejected = 0
        # The state's lists, mutated in place by ``commit``.
        win_lo, win_hi = state.win_lo, state.win_hi
        op_rows, op_cols = state.op_rows, state.op_cols
        busy, width_masks = state.busy, state.width_masks
        port_peers = state.port_peers
        try_move, commit = state.try_move, state.commit
        for _ in range(self._n_sweeps()):
            # One batched draw per sweep instead of four per proposal;
            # ``tolist`` hands the loop the same values as Python scalars.
            pick_op = rng.integers(0, n_ops, size=proposals).tolist()
            pick_row = rng.integers(0, state.rows, size=proposals).tolist()
            pick_frac = rng.random(size=proposals).tolist()
            pick_accept = rng.random(size=proposals).tolist()
            for index, new_row, frac, accept in zip(
                pick_op, pick_row, pick_frac, pick_accept
            ):
                lo = win_lo[index]
                hi = win_hi[index]
                if hi < lo:
                    continue
                new_col = lo + int(frac * (hi - lo + 1))
                if new_col > hi:
                    new_col = hi
                # Illegal moves (same cell, occupied cells, port clash)
                # are rejected here, before any cost is computed.
                occupied = busy[new_row]
                if new_row == op_rows[index]:
                    old_col = op_cols[index]
                    if new_col == old_col:
                        rejected += 1
                        continue
                    occupied ^= width_masks[index] << old_col
                if occupied & (width_masks[index] << new_col):
                    rejected += 1
                    continue
                peers = port_peers[index]
                if peers and any(
                    abs(new_col - op_cols[peer]) < MEM_PORT_ISSUE_COLUMNS
                    for peer in peers
                ):
                    rejected += 1
                    continue
                delta = try_move(index, new_row, new_col)
                if delta is None:
                    rejected += 1
                    continue  # would overflow a context line
                if delta <= 0.0 or accept < math.exp(-delta / temperature):
                    accepted += 1
                    commit(delta)
            temperature *= self.cooling
        if obs.state.enabled:
            obs.count(
                "mapping.sa.moves_tried", self._n_sweeps() * proposals
            )
            obs.count("mapping.sa.moves_accepted", accepted)
            obs.count("mapping.sa.moves_rejected", rejected)
            obs.count(
                "mapping.sa.moves_rejected_budget", state.budget_rejections
            )


class _AnnealState:
    """Mutable annealing state with incremental cost bookkeeping.

    The move loop reads the cached dependence windows (``win_lo``,
    ``win_hi``), the occupancy masks (``busy``, ``width_masks``) and the
    port peers directly; :meth:`try_move` prices a legal move and
    :meth:`commit` applies the move it last priced, refreshing exactly
    the cached windows and live intervals that move changes.
    """

    def __init__(
        self,
        seed: VirtualConfiguration,
        records: Sequence[TraceRecord],
        geometry: FabricGeometry,
        stress_hint: np.ndarray | None,
        line_limit: int | None,
        cp_weight: float,
        balance_weight: float,
        stress_weight: float,
        congestion_weight: float,
    ) -> None:
        ops = seed.ops
        self.n_ops = len(ops)
        self.rows = geometry.rows
        self.cp_weight = cp_weight
        self.balance_weight = balance_weight
        self.stress_weight = stress_weight
        self.congestion_weight = congestion_weight
        # Hard bound: never grow past the greedy bounding width, so the
        # timing model can only improve (execution cycles are a pure
        # function of used columns).
        self.col_cap = seed.used_cols
        self.op_rows = [op.row for op in ops]
        self.op_cols = [op.col for op in ops]
        self.widths = [op.width for op in ops]
        self.width_masks = [(1 << op.width) - 1 for op in ops]
        self.end_cols = [op.end_col for op in ops]
        self.used_max = max(self.end_cols)  # incremental critical path
        self.total_cells = sum(self.widths)

        # Dependence bounds from the DFG oracle: preds/succs per op.
        # Register (``raw``) edges are kept separately — they are the
        # values the context lines must carry; memory-ordering edges
        # constrain columns but occupy no line.
        offset_to_index = {
            op.trace_offset: index for index, op in enumerate(ops)
        }
        self.preds: list[list[int]] = [[] for _ in ops]
        self.succs: list[list[int]] = [[] for _ in ops]
        self.raw_preds: list[list[int]] = [[] for _ in ops]
        self.raw_succs: list[list[int]] = [[] for _ in ops]
        for producer, consumer, kind in dependence_edges(
            tuple(records)[: seed.n_instructions]
        ):
            u = offset_to_index.get(producer)
            v = offset_to_index.get(consumer)
            if u is not None and v is not None:
                self.preds[v].append(u)
                self.succs[u].append(v)
                if kind == "raw":
                    self.raw_preds[v].append(u)
                    self.raw_succs[u].append(v)
        #: Ops whose window reads op ``i``'s column: its preds and succs
        #: (each edge is listed once, and no op precedes itself).
        self.window_dependents = [
            tuple(self.preds[i] + self.succs[i]) for i in range(self.n_ops)
        ]
        #: Producers whose live interval reads op ``i``'s column: its
        #: raw preds, and ``i`` itself when its value has a consumer.
        self.line_producers = [
            tuple(self.raw_preds[i]) + ((i,) if self.raw_succs[i] else ())
            for i in range(self.n_ops)
        ]
        self.win_lo = [0] * self.n_ops
        self.win_hi = [0] * self.n_ops
        for index in range(self.n_ops):
            self.win_lo[index], self.win_hi[index] = self.column_window(index)

        # Per-boundary context-line pressure of the current placement
        # (diff-free direct counts; moves patch it incrementally). The
        # cost term charges only pressure above the fabric's nominal
        # line sizing, so wear-leveling moves below it stay free.
        # Pressure and the live intervals are maintained only while
        # something reads them (a hard limit or a non-zero congestion
        # weight).
        self.line_limit = line_limit
        self.line_soft_cap = geometry.ctx_lines
        self.track_lines = congestion_weight != 0.0 or line_limit is not None
        self.intervals = [self._interval(i) for i in range(self.n_ops)]
        self.line_pressure = [0] * (geometry.cols + 1)
        for first, last in self.intervals:
            for boundary in range(first, last + 1):
                self.line_pressure[boundary] += 1

        # Occupancy bitmasks, one int per fabric row (the scheduler's
        # own representation — O(1) exclusivity tests).
        self.busy = [0] * self.rows
        for index in range(self.n_ops):
            self.busy[self.op_rows[index]] |= self._mask(index)

        # Pipelined port peers: ops sharing the load (store) port.
        self.port_peers: list[list[int]] = [[] for _ in ops]
        for kind in (FUKind.LOAD, FUKind.STORE):
            members = [
                index for index, op in enumerate(ops) if op.kind is kind
            ]
            for index in members:
                self.port_peers[index] = [
                    peer for peer in members if peer != index
                ]

        # Row-balance counts and normalised stress prefix sums, one
        # Python list of float64 values per row.
        self.row_counts = [0] * self.rows
        for index in range(self.n_ops):
            self.row_counts[self.op_rows[index]] += self.widths[index]
        self.stress_cum: list[list[float]] | None = None
        if stress_hint is not None and np.asarray(stress_hint).size:
            hint = np.asarray(stress_hint, dtype=np.float64)
            hint = hint[: self.rows, : geometry.cols]
            peak = float(hint.max())
            norm = hint / peak if peak > 0 else np.zeros_like(hint)
            # Cumulative sums along columns: range-sum in O(1).
            self.stress_cum = np.concatenate(
                [np.zeros((norm.shape[0], 1)), np.cumsum(norm, axis=1)],
                axis=1,
            ).tolist()

        #: The move last priced by ``try_move``: (index, new_row,
        #: new_col, used columns after it, line-pressure deltas or
        #: ``None`` while lines are untracked).
        self._move: tuple | None = None
        self.cost_delta = 0.0  # accumulated (relative) cost
        self.best_delta = 0.0
        self.best_rows = list(self.op_rows)
        self.best_cols = list(self.op_cols)
        #: Moves refused because they would overflow a context line
        #: (telemetry; a subset of the illegal-move rejections).
        self.budget_rejections = 0

    # -- geometry helpers ---------------------------------------------

    def _mask(self, index: int, col: int | None = None) -> int:
        col = self.op_cols[index] if col is None else col
        return self.width_masks[index] << col

    def _stress(self, row: int, col: int, width: int) -> float:
        if self.stress_cum is None:
            return 0.0
        sums = self.stress_cum[row]
        return sums[col + width] - sums[col]

    # -- context-line pressure ----------------------------------------

    def _interval(
        self, index: int, moved: int | None = None, moved_col: int | None = None
    ) -> tuple[int, int]:
        """Live boundary interval of op ``index``'s produced value,
        optionally with op ``moved`` relocated to ``moved_col``.
        ``(0, -1)`` when the value has no placed consumer."""
        succs = self.raw_succs[index]
        if not succs:
            return (0, -1)
        if moved == index:
            first = moved_col + self.widths[index]
        else:
            first = self.end_cols[index]
        last = max(
            moved_col if succ == moved else self.op_cols[succ]
            for succ in succs
        )
        if last < first:
            return (0, -1)  # defensive: dependence windows prevent this
        return (first, last)

    def _line_deltas(self, index: int, new_col: int) -> dict[int, int]:
        """Per-boundary pressure change of moving ``index`` to
        ``new_col``: its own value shifts availability, and each
        producer feeding it may stretch or shrink its live range."""
        deltas: dict[int, int] = {}
        if new_col == self.op_cols[index]:
            return deltas  # a row-only move changes no interval
        for producer in self.line_producers[index]:
            old = self.intervals[producer]
            new = self._interval(producer, moved=index, moved_col=new_col)
            if old == new:
                continue
            for boundary in range(old[0], old[1] + 1):
                deltas[boundary] = deltas.get(boundary, 0) - 1
            for boundary in range(new[0], new[1] + 1):
                deltas[boundary] = deltas.get(boundary, 0) + 1
        return {b: d for b, d in deltas.items() if d}

    def column_window(self, index: int) -> tuple[int, int]:
        """Dependence-legal start-column range for op ``index``."""
        lo = 0
        for pred in self.preds[index]:
            lo = max(lo, self.end_cols[pred])
        hi = self.col_cap - self.widths[index]
        for succ in self.succs[index]:
            hi = min(hi, self.op_cols[succ] - self.widths[index])
        return lo, hi

    # -- move evaluation ----------------------------------------------

    def try_move(self, index: int, new_row: int, new_col: int) -> float | None:
        """Cost delta of moving ``index`` to ``(new_row, new_col)``, or
        ``None`` when the move would overflow a context line.

        The caller has already rejected the same cell, occupied cells
        and port clashes. The delta's terms are added in a fixed order:
        congestion, row balance, stress, critical path.
        """
        delta = 0.0
        line_deltas = None
        if self.track_lines:
            cap = self.line_soft_cap
            raw = 0
            line_deltas = self._line_deltas(index, new_col)
            for boundary, change in line_deltas.items():
                pressure = self.line_pressure[boundary]
                if (
                    self.line_limit is not None
                    and change > 0
                    and pressure + change > self.line_limit
                ):
                    self.budget_rejections += 1
                    return None  # would overflow a context line
                old_excess = max(0, pressure - cap)
                new_excess = max(0, pressure + change - cap)
                raw += new_excess**2 - old_excess**2
            delta += self.congestion_weight * raw / max(1, self.total_cells)
        old_row, old_col = self.op_rows[index], self.op_cols[index]
        width = self.widths[index]
        if new_row != old_row:
            n_old = self.row_counts[old_row]
            n_new = self.row_counts[new_row]
            raw = (
                (n_old - width) ** 2
                + (n_new + width) ** 2
                - n_old**2
                - n_new**2
            )
            delta += self.balance_weight * raw / max(1, self.total_cells)
        delta += self.stress_weight * (
            self._stress(new_row, new_col, width)
            - self._stress(old_row, old_col, width)
        )
        used = self._used_cols_after(index, new_col)
        delta += self.cp_weight * (used - self.used_max)
        self._move = (index, new_row, new_col, used, line_deltas)
        return delta

    def _used_cols_after(self, index: int, new_col: int) -> int:
        """Used columns if op ``index`` started at ``new_col`` — O(1)
        unless the moved op currently holds the maximum."""
        new_end = new_col + self.widths[index]
        if new_end >= self.used_max:
            return new_end
        if self.end_cols[index] < self.used_max:
            return self.used_max
        # The moved op held the maximum: re-reduce over the others.
        return max(
            new_end,
            max(
                end
                for other, end in enumerate(self.end_cols)
                if other != index
            ),
        )

    def commit(self, delta: float) -> None:
        """Apply the move last priced by :meth:`try_move` (whose cost
        delta is ``delta``)."""
        index, new_row, new_col, used, line_deltas = self._move
        self._move = None
        self.used_max = used
        if line_deltas:
            for boundary, change in line_deltas.items():
                self.line_pressure[boundary] += change
        old_row, old_col = self.op_rows[index], self.op_cols[index]
        width = self.widths[index]
        self.busy[old_row] &= ~self._mask(index)
        self.busy[new_row] |= self._mask(index, new_col)
        self.row_counts[old_row] -= width
        self.row_counts[new_row] += width
        self.op_rows[index] = new_row
        self.op_cols[index] = new_col
        self.end_cols[index] = new_col + width
        if new_col != old_col:
            for other in self.window_dependents[index]:
                self.win_lo[other], self.win_hi[other] = self.column_window(
                    other
                )
            if self.track_lines:
                for producer in self.line_producers[index]:
                    self.intervals[producer] = self._interval(producer)
        self.cost_delta += delta
        if self.cost_delta < self.best_delta - 1e-12:
            self.best_delta = self.cost_delta
            self.best_rows = list(self.op_rows)
            self.best_cols = list(self.op_cols)
