"""Simulated-annealing mapper with a vectorized incremental cost.

In the style of cgra_pnr's ``SADetailedPlacer``: start from the greedy
first-fit placement, then anneal single-op moves (new row and/or a
column shift inside the op's dependence-legal window) under a cost that
trades *wear* against *time*:

* **critical path** — the unit's used-column count, which is exactly
  what the datapath timing model charges
  (:func:`repro.cgra.datapath.execution_cycles`). Moves are bounded so
  the annealed unit never grows past the greedy bounding width —
  mapper-level wear leveling is guaranteed to cost zero execution
  cycles (it may *save* some by shrinking the critical path);
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
  routing budget (or ``line_budget`` is given), moves that would push
  any boundary over it are additionally rejected outright — annealed
  placements can never be less routable than the budget allows.

Move evaluation is incremental: per-row cumulative stress sums give
O(1) stress deltas, per-row occupancy bitmasks give O(1) exclusivity
checks (the scheduler's own representation), and the critical-path term
is re-reduced over the op end-column vector only when the moved op
touches the current maximum. Random draws are batched per sweep from a
:class:`numpy.random.Generator` seeded deterministically per unit, so
identical (seed, window) inputs map identically regardless of
translation order.
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
from repro.cgra.interconnect import FOLLOW_GEOMETRY, resolve_line_budget
from repro.dbt.dfg import dependence_edges
from repro.mapping.base import Mapper, register_mapper
from repro.mapping.greedy import place_window
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
        line_budget: hard per-column line cap for moves; the default
            follows the geometry's declared routing budget (elastic
            unless ``ctx_lines`` was set explicitly), an int overrides
            it, ``None`` forces elastic routing.
    """

    name = "annealing"
    seedable = True
    uses_stress = True

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
        "line_budget": FOLLOW_GEOMETRY,
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
        line_budget: int | str | None = FOLLOW_GEOMETRY,
    ) -> None:
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        if proposals_per_op < 1:
            raise ValueError("proposals_per_op must be >= 1")
        if t0 <= 0.0:
            raise ValueError(f"t0 must be > 0, got {t0}")
        if isinstance(line_budget, str) and line_budget != FOLLOW_GEOMETRY:
            raise ValueError(f"unknown line budget {line_budget!r}")
        if isinstance(line_budget, int) and line_budget < 1:
            raise ValueError("line_budget must be >= 1")
        self.seed = int(seed)
        self.sweeps = sweeps
        self.proposals_per_op = proposals_per_op
        self.t0 = float(t0)
        self.cooling = float(cooling)
        self.cp_weight = float(cp_weight)
        self.balance_weight = float(balance_weight)
        self.stress_weight = float(stress_weight)
        self.congestion_weight = float(congestion_weight)
        self.line_budget = line_budget

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
    ) -> VirtualConfiguration | None:
        records = tuple(ops)
        limit = resolve_line_budget(self.line_budget, geometry)
        if seed is not None and not self._seed_routable(seed, records, limit):
            # A caller-supplied seed placed under a looser budget (e.g.
            # greedy discovery on an elastic geometry) may already
            # overflow this mapper's cap, and moves can only avoid
            # worsening pressure, never repair it — re-place instead.
            seed = None
        if seed is None:
            seed = place_window(
                records, geometry, line_budget=self.line_budget
            )
        if seed is None:
            return None
        if len(seed.ops) < 2:
            return self._rebrand(seed)
        if rng is None:
            rng = self._unit_rng(records)
        placed = _AnnealState(
            seed,
            records,
            geometry,
            stress_hint,
            line_limit=limit,
        )
        if obs.state.enabled:
            obs.count("mapping.sa.units")
        with obs.span("mapping.sa.anneal", ops=len(seed.ops)):
            self._anneal(placed, rng)
        return self._rebrand(seed, placed)

    @staticmethod
    def _seed_routable(
        seed: VirtualConfiguration,
        records: Sequence[TraceRecord],
        limit: int | None,
    ) -> bool:
        if limit is None:
            return True
        from repro.mapping.routing import routing_profile

        return routing_profile(seed, records).peak_pressure <= limit

    def _rebrand(
        self,
        seed: VirtualConfiguration,
        state: "_AnnealState | None" = None,
    ) -> VirtualConfiguration:
        """Rebuild the unit under this mapper's cache identity."""
        if state is None:
            new_ops = seed.ops
        else:
            new_ops = tuple(
                replace(op, row=int(row), col=int(col))
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
        for _ in range(self._n_sweeps()):
            # One batched draw per sweep instead of four per proposal.
            pick_op = rng.integers(0, n_ops, size=proposals)
            pick_row = rng.integers(0, state.rows, size=proposals)
            pick_frac = rng.random(size=proposals)
            pick_accept = rng.random(size=proposals)
            for k in range(proposals):
                index = int(pick_op[k])
                lo, hi = state.column_window(index)
                if hi < lo:
                    continue
                new_row = int(pick_row[k])
                new_col = lo + int(pick_frac[k] * (hi - lo + 1))
                delta = state.try_move(
                    index,
                    new_row,
                    min(new_col, hi),
                    self.cp_weight,
                    self.balance_weight,
                    self.stress_weight,
                    self.congestion_weight,
                )
                if delta is None:
                    rejected += 1
                    continue  # illegal (occupied cells or port clash)
                if delta <= 0.0 or (
                    pick_accept[k] < math.exp(-delta / temperature)
                ):
                    accepted += 1
                    state.commit(index, new_row, min(new_col, hi), delta)
            temperature *= self.cooling
        state.restore_best()
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
    """Mutable annealing state with incremental cost bookkeeping."""

    def __init__(
        self,
        seed: VirtualConfiguration,
        records: Sequence[TraceRecord],
        geometry: FabricGeometry,
        stress_hint: np.ndarray | None,
        line_limit: int | None = None,
    ) -> None:
        ops = seed.ops
        self.n_ops = len(ops)
        self.rows = geometry.rows
        # Hard bound: never grow past the greedy bounding width, so the
        # timing model can only improve (execution cycles are a pure
        # function of used columns).
        self.col_cap = seed.used_cols
        self.op_rows = [op.row for op in ops]
        self.op_cols = [op.col for op in ops]
        self.widths = [op.width for op in ops]
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

        # Per-boundary context-line pressure of the current placement
        # (diff-free direct counts; moves patch it incrementally). The
        # cost term charges only pressure above the fabric's nominal
        # line sizing, so wear-leveling moves below it stay free.
        # Maintained only while something reads it (a hard limit or a
        # non-zero congestion weight) — see ``try_move``/``commit``.
        self.line_limit = line_limit
        self.line_soft_cap = geometry.ctx_lines
        self.line_pressure = [0] * (geometry.cols + 1)
        for index in range(self.n_ops):
            first, last = self._interval(index)
            for boundary in range(first, last + 1):
                self.line_pressure[boundary] += 1
        #: Deltas computed by the latest ``try_move``, reused verbatim
        #: by the matching ``commit`` (``None`` = congestion inactive).
        self._pending_lines: tuple[int, int, int, dict[int, int] | None] | None = None

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

        # Row-balance counts and normalised stress prefix sums.
        self.row_counts = [0] * self.rows
        for index in range(self.n_ops):
            self.row_counts[self.op_rows[index]] += self.widths[index]
        if stress_hint is not None and np.asarray(stress_hint).size:
            hint = np.asarray(stress_hint, dtype=np.float64)
            hint = hint[: self.rows, : geometry.cols]
            peak = float(hint.max())
            norm = hint / peak if peak > 0 else np.zeros_like(hint)
            # Cumulative sums along columns: range-sum in O(1).
            self.stress_cum = np.concatenate(
                [np.zeros((norm.shape[0], 1)), np.cumsum(norm, axis=1)],
                axis=1,
            )
        else:
            self.stress_cum = None

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
        return ((1 << self.widths[index]) - 1) << col

    def _stress(self, row: int, col: int, width: int) -> float:
        if self.stress_cum is None:
            return 0.0
        return float(
            self.stress_cum[row, col + width] - self.stress_cum[row, col]
        )

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
        affected = set(self.raw_preds[index])
        if self.raw_succs[index]:
            affected.add(index)
        deltas: dict[int, int] = {}
        for producer in affected:
            old = self._interval(producer)
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

    def try_move(
        self,
        index: int,
        new_row: int,
        new_col: int,
        cp_weight: float,
        balance_weight: float,
        stress_weight: float,
        congestion_weight: float = 0.0,
    ) -> float | None:
        """Cost delta of moving ``index`` to ``(new_row, new_col)``,
        or ``None`` when the move is illegal."""
        old_row, old_col = self.op_rows[index], self.op_cols[index]
        if new_row == old_row and new_col == old_col:
            return None
        width = self.widths[index]
        occupied = self.busy[new_row]
        if new_row == old_row:
            occupied &= ~self._mask(index)
        if occupied & self._mask(index, new_col):
            return None
        for peer in self.port_peers[index]:
            if abs(new_col - self.op_cols[peer]) < MEM_PORT_ISSUE_COLUMNS:
                return None

        delta = 0.0
        if congestion_weight != 0.0 or self.line_limit is not None:
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
            delta += congestion_weight * raw / max(1, self.total_cells)
            self._pending_lines = (index, new_row, new_col, line_deltas)
        else:
            self._pending_lines = (index, new_row, new_col, None)
        if new_row != old_row:
            n_old = self.row_counts[old_row]
            n_new = self.row_counts[new_row]
            raw = (
                (n_old - width) ** 2
                + (n_new + width) ** 2
                - n_old**2
                - n_new**2
            )
            delta += balance_weight * raw / max(1, self.total_cells)
        delta += stress_weight * (
            self._stress(new_row, new_col, width)
            - self._stress(old_row, old_col, width)
        )
        delta += cp_weight * (
            self._used_cols_after(index, new_col) - self.used_max
        )
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

    def commit(
        self, index: int, new_row: int, new_col: int, delta: float
    ) -> None:
        self.used_max = self._used_cols_after(index, new_col)
        # Patch the line-pressure profile before coordinates mutate,
        # reusing the deltas the accepting try_move already computed
        # (or recomputing for a commit that didn't come through it).
        pending = self._pending_lines
        if pending is not None and pending[:3] == (index, new_row, new_col):
            line_deltas = pending[3]  # None = congestion inactive
        else:
            line_deltas = self._line_deltas(index, new_col)
        if line_deltas:
            for boundary, change in line_deltas.items():
                self.line_pressure[boundary] += change
        old_row = self.op_rows[index]
        width = self.widths[index]
        self.busy[old_row] &= ~self._mask(index)
        self.busy[new_row] |= self._mask(index, new_col)
        self.row_counts[old_row] -= width
        self.row_counts[new_row] += width
        self.op_rows[index] = new_row
        self.op_cols[index] = new_col
        self.end_cols[index] = new_col + width
        self.cost_delta += delta
        if self.cost_delta < self.best_delta - 1e-12:
            self.best_delta = self.cost_delta
            self.best_rows = list(self.op_rows)
            self.best_cols = list(self.op_cols)

    def restore_best(self) -> None:
        """Leave ``best_rows``/``best_cols`` as the annealing result."""
        # Nothing to do — best state is tracked on every commit; the
        # method exists so callers read an explicit final step.
