"""Virtual CGRA configurations: operations placed on a virtual grid.

A *virtual configuration* (paper Fig. 3a) is the output of the DBT's
scheduler: every operation has a row, a start column and a column span,
all relative to the virtual origin ``(0, 0)``. The allocation policies
of :mod:`repro.core` later translate it by a pivot (with wrap-around)
onto the physical fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cgra.fu import FUKind
from repro.errors import ConfigurationError

#: Identity of the default (greedy first-fit) mapper — the namespace
#: configurations carry when no mapper was injected. Single source for
#: the literal shared by :class:`VirtualConfiguration`,
#: :class:`repro.dbt.config_cache.ConfigCache` and
#: :class:`repro.mapping.greedy.GreedyMapper`.
DEFAULT_MAPPER_KEY = "greedy"


def greedy_identity(row_policy: str) -> str:
    """Mapper identity of the greedy scheduler under ``row_policy``.

    One formatter shared by unit discovery (which stamps the seed
    placement it produced) and :class:`repro.mapping.greedy.GreedyMapper`
    (which only adopts seeds carrying its own identity) — equal
    identity must imply identical placement, so the row-scan order is
    part of the name.
    """
    if row_policy == "first_fit":
        return DEFAULT_MAPPER_KEY
    return f"{DEFAULT_MAPPER_KEY}(row_policy={row_policy})"


@dataclass(frozen=True, slots=True)
class PlacedOp:
    """One operation placed on the virtual grid.

    Attributes:
        op: mnemonic (for reporting).
        kind: FU kind that executes it.
        row: virtual row.
        col: virtual start column.
        width: number of columns spanned.
        trace_offset: index of the originating instruction within the
            translation unit (0-based).
        is_branch: whether the op is a (speculated) branch comparison.
    """

    op: str
    kind: FUKind
    row: int
    col: int
    width: int
    trace_offset: int
    is_branch: bool = False

    @property
    def end_col(self) -> int:
        """First column *after* this op (exclusive end)."""
        return self.col + self.width

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Virtual cells stressed by this op."""
        return tuple((self.row, c) for c in range(self.col, self.end_col))


@dataclass(frozen=True)
class VirtualConfiguration:
    """A complete translation unit scheduled onto the virtual grid.

    Attributes:
        start_pc: PC of the first instruction (config-cache key).
        pc_path: PCs of all instructions, in unit order (used for
            speculation checking at replay).
        ops: placed operations (fabric-mapped instructions only).
        n_instructions: total instructions in the unit, including ones
            that produced no fabric op (e.g. ``jal`` glue).
        geometry_rows: rows of the fabric this was scheduled for.
        geometry_cols: columns of the fabric this was scheduled for.
        mapper_key: identity of the mapper that placed the ops (the
            configuration-cache namespace — see
            :meth:`repro.mapping.base.Mapper.identity`).
    """

    start_pc: int
    pc_path: tuple[int, ...]
    ops: tuple[PlacedOp, ...]
    n_instructions: int
    geometry_rows: int
    geometry_cols: int
    mapper_key: str = DEFAULT_MAPPER_KEY
    _cells: tuple[tuple[int, int], ...] = field(
        default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError("configuration has no operations")
        for op in self.ops:
            if op.width < 1:
                # Every launch must stress at least one FU: the batch
                # allocator's stress fold relies on it.
                raise ConfigurationError(
                    f"op {op.op} at ({op.row},{op.col}) spans "
                    f"{op.width} columns; ops span at least one"
                )
            if op.row >= self.geometry_rows or op.end_col > self.geometry_cols:
                raise ConfigurationError(
                    f"op {op.op} at ({op.row},{op.col})+{op.width} exceeds "
                    f"{self.geometry_rows}x{self.geometry_cols} grid"
                )
        seen: set[tuple[int, int]] = set()
        for op in self.ops:
            for cell in op.cells():
                if cell in seen:
                    raise ConfigurationError(f"overlapping ops at cell {cell}")
                seen.add(cell)
        object.__setattr__(
            self, "_cells", tuple(sorted(seen))
        )

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """All stressed virtual cells, each exactly once."""
        return self._cells

    @cached_property
    def cell_rows(self) -> np.ndarray:
        """Row coordinate of every stressed cell (cached, read-only).

        Together with :attr:`cell_cols` this is the configuration's
        numpy footprint: the batched allocation path translates these
        vectors by pivot with pure integer arithmetic instead of
        looping over :attr:`cells` tuples.
        """
        rows = np.array([cell[0] for cell in self._cells], dtype=np.int64)
        rows.flags.writeable = False
        return rows

    @cached_property
    def cell_cols(self) -> np.ndarray:
        """Column coordinate of every stressed cell (cached, read-only)."""
        cols = np.array([cell[1] for cell in self._cells], dtype=np.int64)
        cols.flags.writeable = False
        return cols

    @cached_property
    def used_rows(self) -> int:
        """Height of the bounding box (max row + 1)."""
        return max(op.row for op in self.ops) + 1

    @cached_property
    def used_cols(self) -> int:
        """Width of the bounding box (max end column)."""
        return max(op.end_col for op in self.ops)

    @cached_property
    def n_branches(self) -> int:
        """Number of speculated branch ops inside the unit."""
        return sum(1 for op in self.ops if op.is_branch)

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def occupancy(self) -> float:
        """Fraction of the *full fabric* stressed by one execution."""
        return len(self._cells) / (self.geometry_rows * self.geometry_cols)
