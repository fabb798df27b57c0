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
        # Per-config footprints as flat boolean bitmaps internally
        # (``mask[flat_indices] = True`` is O(cells) per record with no
        # tuple churn); exposed as frozensets of ``(row, col)`` via
        # :attr:`config_footprints`.
        self._config_cells: dict[int, np.ndarray] = {}
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
        mask = self._footprint_mask(config_key)
        n_cols = self.geometry.cols
        for row, col in cells:
            mask[row * n_cols + col] = True

    def record_batch(
        self,
        config_key: int,
        flat_cells: np.ndarray,
        cycles: np.ndarray,
    ) -> None:
        """Record many launches of one configuration in a single pass.

        Args:
            config_key: configuration identity (its start PC).
            flat_cells: ``(n_launches, n_cells)`` flat raster indices
                (``row * cols + col``) of the stressed physical cells,
                one row per launch.
            cycles: ``(n_launches,)`` execution cycle counts.

        Equivalent to ``n_launches`` :meth:`record` calls but accrues
        the stress counts with ``np.add.at`` on the flattened count
        matrices instead of one fancy-indexing pair per launch.
        """
        n_launches, n_cells = flat_cells.shape
        if n_launches == 0:
            return
        cycles = np.asarray(cycles, dtype=np.int64)
        flat = flat_cells.ravel()
        if n_launches == 1:
            # Single-launch fast path (the scalar wrapper): indices
            # within one launch are distinct, so plain fancy-index
            # accumulation is exact and cheaper than np.add.at.
            self._execution_counts.reshape(-1)[flat] += 1
            self._cycle_counts.reshape(-1)[flat] += cycles[0]
        else:
            np.add.at(self._execution_counts.reshape(-1), flat, 1)
            np.add.at(
                self._cycle_counts.reshape(-1),
                flat,
                np.repeat(cycles, n_cells),
            )
        self.total_executions += int(n_launches)
        self.total_cycles += int(cycles.sum())
        self._footprint_mask(config_key)[flat] = True

    def _footprint_mask(self, config_key: int) -> np.ndarray:
        """The config's flat footprint bitmap, created on first use."""
        mask = self._config_cells.get(config_key)
        if mask is None:
            mask = np.zeros(self.geometry.n_cells, dtype=bool)
            self._config_cells[config_key] = mask
        return mask

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
        counts = np.zeros(
            (self.geometry.rows, self.geometry.cols), dtype=np.int64
        )
        for mask in self._config_cells.values():
            counts += mask.reshape(counts.shape)
        n_configs = len(self._config_cells)
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
        return len(self._config_cells)

    @property
    def config_footprints(self) -> dict[int, frozenset[tuple[int, int]]]:
        """Per-configuration stressed-cell footprints (copy)."""
        cols = self.geometry.cols
        return {
            key: frozenset(
                (int(index) // cols, int(index) % cols)
                for index in np.flatnonzero(mask)
            )
            for key, mask in self._config_cells.items()
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
