"""Fabric geometry: rows x columns, cell addressing and wrap-around."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Paper's design-space bounds (Section IV-B).
MIN_ROWS, MAX_ROWS = 1, 16
MIN_COLS, MAX_COLS = 2, 64


@dataclass(frozen=True)
class FabricGeometry:
    """Shape of the reconfigurable fabric.

    Attributes:
        rows: number of rows ``W`` (parallel execution lanes).
        cols: number of columns ``L`` (sequential execution depth).
        n_config_lines: configuration lines feeding the columns
            (``n`` in Fig. 5; column ``i`` listens to line ``i mod n``).
        ctx_lines: context lines carrying values between columns. When
            *explicitly* set, the count is a hard routing budget: unit
            discovery, the annealer and the legality oracle all refuse
            placements whose per-column line pressure exceeds it (see
            :mod:`repro.mapping.routing`). When left at the default,
            the hw models keep the TransRec baseline sizing
            (``2 * rows``) for area/energy, but routing is *elastic* —
            the seed pipeline's implicit assumption that the
            interconnect always carries the greedy schedule (measured
            greedy demand exceeds ``2 * rows`` on long fabrics, so a
            hard default budget would perturb the paper reproduction).
    """

    rows: int
    cols: int
    n_config_lines: int = 4
    ctx_lines: int | None = None
    #: Whether ``ctx_lines`` was user-specified (derived). It takes
    #: part in equality and hashing: an explicit budget equal to the
    #: default sizing describes the same hardware but routes under a
    #: hard constraint, so memos keyed on a geometry keep the two apart.
    ctx_lines_declared: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        if not MIN_ROWS <= self.rows <= MAX_ROWS:
            raise ConfigurationError(
                f"rows must be in [{MIN_ROWS}, {MAX_ROWS}], got {self.rows}"
            )
        if not MIN_COLS <= self.cols <= MAX_COLS:
            raise ConfigurationError(
                f"cols must be in [{MIN_COLS}, {MAX_COLS}], got {self.cols}"
            )
        if self.n_config_lines < 1:
            raise ConfigurationError("n_config_lines must be >= 1")
        object.__setattr__(self, "ctx_lines_declared", self.ctx_lines is not None)
        if self.ctx_lines is None:
            # Enough lines to carry every row's result plus input context
            # headroom, the sizing used by the TransRec baseline.
            object.__setattr__(self, "ctx_lines", 2 * self.rows)
        if self.ctx_lines < self.rows:
            raise ConfigurationError("ctx_lines must be >= rows")

    @property
    def routing_budget(self) -> int | None:
        """Hard per-column context-line budget, or ``None`` (elastic).

        An explicitly declared ``ctx_lines`` is a first-class legality
        constraint for mapping; the default sizing only feeds the
        area/energy models. This is the one budget placement reads:
        discovery's scheduler and the annealer take it from here.
        """
        return self.ctx_lines if self.ctx_lines_declared else None

    @property
    def n_cells(self) -> int:
        """Total number of FU cells in the fabric."""
        return self.rows * self.cols

    def cells(self):
        """Iterate all ``(row, col)`` cell coordinates in raster order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield (row, col)

    def contains(self, row: int, col: int) -> bool:
        """Whether ``(row, col)`` is a valid cell coordinate."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    def wrap(self, row: int, col: int) -> tuple[int, int]:
        """Map an arbitrary coordinate into the fabric with wrap-around
        in both axes (the circular-buffer behaviour of Section III-B)."""
        return (row % self.rows, col % self.cols)

    def cell_index(self, row: int, col: int) -> int:
        """Flat raster index of a cell (row-major)."""
        if not self.contains(row, col):
            raise ConfigurationError(f"cell ({row}, {col}) outside {self}")
        return row * self.cols + col

    def __str__(self) -> str:
        return f"L{self.cols}xW{self.rows}"
