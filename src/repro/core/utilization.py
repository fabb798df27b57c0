"""Per-FU utilization accounting.

Utilization is the quantity Eq. 1 consumes as the duty cycle ``u``: the
fraction of stress time each physical FU accumulates. Three weightings
are supported because the paper uses two of them and the third is the
physically precise one:

* ``EXECUTIONS`` (default, used for Table I): a cell's utilization is
  the fraction of configuration *launches* during which it was busy.
* ``CONFIGS`` (Fig. 1's caption): the fraction of *distinct
  configurations* whose (allocated) footprint covers the cell.
* ``CYCLES``: busy-cycle weighted — each launch contributes its
  execution cycle count, normalising by total fabric-active cycles.

Stress arrives two ways: :meth:`UtilizationTracker.record` adds one
launch (the scalar allocation path), and
:meth:`UtilizationTracker.accrue` adds a histogram the batch allocator
folded from many launches — per-cell launch and cycle counts, their
totals, and the cells to OR into each configuration's footprint.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.cgra.fabric import FabricGeometry
from repro.errors import checked_ratio


class Weighting(enum.Enum):
    """How launches are weighted when normalising utilization."""

    EXECUTIONS = "executions"
    CONFIGS = "configs"
    CYCLES = "cycles"


class UtilizationTracker:
    """Accumulates per-cell stress counts for one fabric."""

    def __init__(self, geometry: FabricGeometry) -> None:
        self.geometry = geometry
        shape = (geometry.rows, geometry.cols)
        self._execution_counts = np.zeros(shape, dtype=np.int64)
        self._cycle_counts = np.zeros(shape, dtype=np.int64)
        # Per-config footprints as flat boolean bitmaps (``row * cols +
        # col``), one row of ``_footprints`` per config key in
        # first-record order, so a batch fold ORs all its cells in with
        # one fancy assignment; exposed as frozensets of ``(row, col)``
        # via :attr:`config_footprints`.
        self._footprint_rows: dict[int, int] = {}
        self._footprints = np.zeros((4, geometry.n_cells), dtype=bool)
        self.total_executions = 0
        self.total_cycles = 0

    def record(
        self,
        config_key: int,
        cells: tuple[tuple[int, int], ...],
        cycles: int = 1,
    ) -> None:
        """Record one launch stressing ``cells`` for ``cycles`` cycles.

        ``config_key`` identifies the virtual configuration (its start
        PC) so the CONFIGS weighting can count distinct footprints.
        """
        rows = [cell[0] for cell in cells]
        cols = [cell[1] for cell in cells]
        self._execution_counts[rows, cols] += 1
        self._cycle_counts[rows, cols] += cycles
        self.total_executions += 1
        self.total_cycles += cycles
        # Take the row first: adding a key may grow ``_footprints``.
        footprint = self._footprint_row(config_key)
        mask = self._footprints[footprint]
        n_cols = self.geometry.cols
        for row, col in cells:
            mask[row * n_cols + col] = True

    def footprint_rows(self, config_keys) -> list[int]:
        """Footprint row of each key, adding unseen keys in order.

        Rows index the bitmaps :meth:`accrue` ORs cells into; a key
        counts as a configuration (:attr:`n_configs`) from the moment
        it has a row.
        """
        return [self._footprint_row(key) for key in config_keys]

    def _footprint_row(self, config_key: int) -> int:
        row = self._footprint_rows.get(config_key)
        if row is None:
            row = self._footprint_rows[config_key] = len(self._footprint_rows)
            if row == len(self._footprints):
                grown = np.zeros((2 * row, self.geometry.n_cells), dtype=bool)
                grown[:row] = self._footprints
                self._footprints = grown
        return row

    def accrue(
        self,
        executions: np.ndarray,
        cycles: np.ndarray,
        launches: int,
        total_cycles: int,
        footprints: np.ndarray,
        cells: np.ndarray,
    ) -> None:
        """Fold many launches' stress in at once.

        Args:
            executions: ``(n_cells,)`` int64 launch count per flat
                raster cell (``row * cols + col``).
            cycles: ``(n_cells,)`` int64 busy cycles per flat cell.
            launches: launches the histograms hold.
            total_cycles: their summed execution cycles.
            footprints: ``(k, 1)`` rows from :meth:`footprint_rows`.
            cells: ``(k, m)`` flat cells OR-ed into those rows.
        """
        execution_counts = self._execution_counts.reshape(-1)
        execution_counts += executions
        cycle_counts = self._cycle_counts.reshape(-1)
        cycle_counts += cycles
        self.total_executions += launches
        self.total_cycles += total_cycles
        self._footprints[footprints, cells] = True

    # -- reports -----------------------------------------------------------

    def utilization(self, weighting: Weighting = Weighting.EXECUTIONS) -> np.ndarray:
        """Per-cell utilization in [0, 1], shape ``(rows, cols)``."""
        if weighting is Weighting.EXECUTIONS:
            if self.total_executions == 0:
                return np.zeros_like(self._execution_counts, dtype=float)
            return self._execution_counts / self.total_executions
        if weighting is Weighting.CYCLES:
            if self.total_cycles == 0:
                return np.zeros_like(self._cycle_counts, dtype=float)
            return self._cycle_counts / self.total_cycles
        return self._config_utilization()

    def _config_utilization(self) -> np.ndarray:
        n_configs = self.n_configs
        counts = self._footprints[:n_configs].sum(axis=0, dtype=np.int64)
        counts = counts.reshape(self.geometry.rows, self.geometry.cols)
        if n_configs == 0:
            return counts.astype(float)
        return counts / n_configs

    def max_utilization(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> float:
        """Worst-case (highest) per-cell utilization — the FU that
        determines end-of-life."""
        return float(self.utilization(weighting).max())

    def mean_utilization(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> float:
        """Average utilization over all FUs (the paper's 'occupation')."""
        return float(self.utilization(weighting).mean())

    def utilization_values(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> np.ndarray:
        """Flat vector of per-cell utilizations (for PDFs, Fig. 8)."""
        return self.utilization(weighting).ravel()

    def balance_ratio(self, weighting: Weighting = Weighting.EXECUTIONS) -> float:
        """mean/max utilization — 1.0 means perfectly balanced stress.

        Raises:
            ConfigurationError: when no stress was recorded (max 0).
        """
        return checked_ratio(
            self.mean_utilization(weighting),
            self.max_utilization(weighting),
            "balance_ratio",
        )

    @property
    def n_configs(self) -> int:
        """Distinct configurations observed."""
        return len(self._footprint_rows)

    @property
    def config_footprints(self) -> dict[int, frozenset[tuple[int, int]]]:
        """Per-configuration stressed-cell footprints (copy)."""
        cols = self.geometry.cols
        return {
            key: frozenset(
                divmod(index, cols)
                for index in np.flatnonzero(self._footprints[row]).tolist()
            )
            for key, row in self._footprint_rows.items()
        }

    @property
    def cycle_counts(self) -> np.ndarray:
        """Raw per-cell busy-cycle counts (read-only view)."""
        view = self._cycle_counts.view()
        view.flags.writeable = False
        return view

    @property
    def execution_counts(self) -> np.ndarray:
        """Raw per-cell launch counts (read-only view).

        This is the 'run-time aging information' an on-chip stress
        sensor would expose; the adaptive policy consumes it.
        """
        view = self._execution_counts.view()
        view.flags.writeable = False
        return view

    @property
    def stress_map(self) -> np.ndarray:
        """The live per-cell stress map (read-only view).

        The named feedback interface between allocation and mapping:
        the DBT engine snapshots it as the ``stress_hint`` handed to
        wear-aware mappers (:mod:`repro.mapping`). Mappers read it in
        the virtual frame — exact under identity-pivot allocation, a
        heuristic prior under pivoting policies (see
        :mod:`repro.mapping.annealing`). Launch-count weighted, the
        same signal the ``stress_aware`` policy reads.
        """
        return self.execution_counts
