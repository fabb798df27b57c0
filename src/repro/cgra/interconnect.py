"""Structural description of the fabric interconnect.

Per column (Fig. 4b): before the FUs an *input crossbar* selects, for
each FU operand, which context line feeds it; after the FUs an *output
crossbar* selects, for each context line, whether it keeps its value or
takes one of the column's FU results. These counts feed the area,
energy and critical-path models in :mod:`repro.hw`.

This module is also the single definition of *context-line pressure* —
how many live values a placement forces across each column boundary —
so the hardware model, the greedy scheduler and the mappers all agree
on one arithmetic (:func:`pressure_profile`,
:class:`LinePressureTracker`). A value produced by the FU column ending
at ``e`` and last consumed by an op starting at column ``c`` occupies
one context line at every boundary ``b`` with ``e <= b <= c`` (each
boundary's line segments are re-steered independently by the output
crossbars, so pressure is a per-boundary count, not a global one).
Immediates and window live-ins arrive through the per-column input
context (``imm_slots`` in :mod:`repro.hw`) and are accounted
separately — they never contend for context lines.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.cgra.fabric import FabricGeometry

#: Datapath width of every context line and FU port.
WORD_BITS = 32
#: Operands consumed by each FU.
OPERANDS_PER_FU = 2

def pressure_profile(
    intervals: Iterable[tuple[int, int]], n_cols: int
) -> np.ndarray:
    """Per-boundary line occupancy of a set of live intervals.

    ``intervals`` are inclusive ``(first, last)`` boundary pairs (one
    per routed value); entry ``b`` of the result counts the values
    crossing into column ``b``. Computed with a difference array, so
    cost is O(values + columns).
    """
    diff = np.zeros(n_cols + 1, dtype=np.int64)
    for first, last in intervals:
        if last < first:
            continue  # value never leaves its producer column
        diff[first] += 1
        if last + 1 <= n_cols:
            diff[last + 1] -= 1
    return np.cumsum(diff[:n_cols])


class LinePressureTracker:
    """Incremental context-line pressure bookkeeping for one unit.

    The greedy scheduler owns register-to-value resolution; this class
    owns the per-boundary arithmetic, shared with the whole-unit
    profile computation so the two can never drift. ``limit`` is the
    hard budget (``None`` = elastic: everything fits, pressure is still
    tracked for reporting).

    Each register's current value is held as the last boundary already
    charged to the profile (one before the value's availability until
    a consumer reads it). A consumer at column ``c`` extends the value
    to ``c``: it charges the boundaries after the last charged one, up
    to ``c``. A consumer reads at most :data:`OPERANDS_PER_FU` registers,
    and a register read twice is one value on one line.
    """

    def __init__(self, n_cols: int, limit: int | None) -> None:
        self.limit = limit
        self.pressure = [0] * (n_cols + 1)
        self._last: dict[int, int] = {}  # reg -> last charged boundary

    def define(self, reg: int, end_col: int) -> None:
        """A new value for ``reg`` becomes available at ``end_col``."""
        self._last[reg] = end_col - 1  # nothing charged yet

    def _firsts(self, regs: tuple[int, ...], col: int) -> tuple[int, int]:
        """The first boundary a consumer at ``col`` newly charges for
        each source value, in ascending order (``col + 1``: none)."""
        if len(regs) > OPERANDS_PER_FU:
            raise ValueError(
                f"a consumer reads at most {OPERANDS_PER_FU} registers, "
                f"got {regs}"
            )
        last = self._last
        end = col + 1
        first = second = end
        if regs:
            charged = last.get(regs[0])
            if charged is not None and charged < col:
                first = charged + 1
            if len(regs) == 2 and regs[1] != regs[0]:
                charged = last.get(regs[1])
                if charged is not None and charged < col:
                    second = charged + 1
        return (first, second) if first <= second else (second, first)

    def fits(self, regs: tuple[int, ...], col: int) -> bool:
        """Whether a consumer of ``regs`` at ``col`` stays in budget."""
        limit = self.limit
        if limit is None:
            return True
        low, high = self._firsts(regs, col)
        # One new line on [low, high), two on [high, col].
        pressure = self.pressure
        if low < high and max(pressure[low:high]) >= limit:
            return False
        return high > col or max(pressure[high : col + 1]) + 2 <= limit

    def charge(self, regs: tuple[int, ...], col: int) -> None:
        """Commit a consumer of ``regs`` at ``col``."""
        low, high = self._firsts(regs, col)
        pressure = self.pressure
        for boundary in range(low, high):
            pressure[boundary] += 1
        for boundary in range(high, col + 1):
            pressure[boundary] += 2
        last = self._last
        for reg in regs:
            if reg in last and last[reg] < col:
                last[reg] = col

    @property
    def peak(self) -> int:
        """Highest per-boundary pressure charged so far."""
        return max(self.pressure)


@dataclass(frozen=True)
class InterconnectSpec:
    """Mux counts of the per-column crossbars for one geometry."""

    geometry: FabricGeometry

    @property
    def input_mux_inputs(self) -> int:
        """Fan-in of each FU operand mux (one input per context line)."""
        return self.geometry.ctx_lines

    @property
    def input_muxes_per_column(self) -> int:
        """Number of operand muxes in one column's input crossbar."""
        return self.geometry.rows * OPERANDS_PER_FU

    @property
    def output_mux_inputs(self) -> int:
        """Fan-in of each context-line output mux: keep the incoming
        value or take any of the row results."""
        return self.geometry.rows + 1

    @property
    def output_muxes_per_column(self) -> int:
        """Number of context-line muxes in one column's output crossbar."""
        return self.geometry.ctx_lines

    @property
    def wrap_mux_inputs(self) -> int:
        """Fan-in of the wrap-around mux added by the proposed design:
        previous column's line value or the initial input context."""
        return 2

    @property
    def wrap_muxes_per_column(self) -> int:
        """One wrap-around mux per context line per column (proposed
        design only)."""
        return self.geometry.ctx_lines

    def input_select_bits(self) -> int:
        """Config bits to steer one column's input crossbar."""
        return self.input_muxes_per_column * _select_bits(self.input_mux_inputs)

    def output_select_bits(self) -> int:
        """Config bits to steer one column's output crossbar."""
        return self.output_muxes_per_column * _select_bits(self.output_mux_inputs)


def _select_bits(fan_in: int) -> int:
    """Select-signal width for a mux with ``fan_in`` inputs."""
    return max(1, (fan_in - 1).bit_length())
