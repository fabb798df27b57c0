"""Result containers for full-system runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.utilization import UtilizationTracker
from repro.dbt.config_cache import ConfigCacheStats
from repro.errors import checked_ratio
from repro.gpp.timing import GPPTimingResult
from repro.hw.energy import EnergyReport


@dataclass
class CGRAStats:
    """Fabric-side counters for one run.

    The front-end counters (``frontend_*``, ``wrong_path_*``) are
    deliberately *not* dataclass fields: they are set in
    ``__post_init__`` and kept out of field-driven serialisation
    (``to_jsonable``) so the pinned golden experiment JSON stays
    byte-identical. They are zero unless the run was driven through a
    speculative front end (:class:`repro.frontend.FrontEndSpec`).
    """

    launches: int = 0
    cold_launches: int = 0
    committed_instructions: int = 0
    squashed_instructions: int = 0
    misspeculations: int = 0
    cgra_cycles: int = 0
    #: Worst per-column context-line pressure over the run's translated
    #: units (see :mod:`repro.mapping.routing`).
    peak_line_pressure: int = 0

    def __post_init__(self) -> None:
        # Speculative front-end counters (repro.frontend).
        self.wrong_path_launches = 0
        self.wrong_path_instructions = 0
        self.frontend_mispredicts = 0
        self.frontend_flushes = 0
        self.frontend_interrupts = 0
        self.frontend_flush_cycles = 0

    @property
    def commit_efficiency(self) -> float:
        """Committed / (committed + squashed) fabric instructions."""
        total = self.committed_instructions + self.squashed_instructions
        return self.committed_instructions / total if total else 0.0


@dataclass
class SystemResult:
    """Complete outcome of simulating one trace on one design point.

    ``speedup`` and ``energy_ratio`` are TransRec relative to the
    stand-alone GPP (speedup > 1 and energy_ratio < 1 favour TransRec).
    """

    name: str
    gpp: GPPTimingResult
    transrec_cycles: int
    cgra: CGRAStats
    cache_stats: ConfigCacheStats
    tracker: UtilizationTracker
    gpp_energy: EnergyReport
    transrec_energy: EnergyReport
    instructions: int

    @property
    def speedup(self) -> float:
        """GPP runtime / TransRec runtime (higher is faster).

        Raises:
            ConfigurationError: on a zero-cycle TransRec run — a 1.0
                fallback would report a degenerate run as parity.
        """
        return checked_ratio(self.gpp.cycles, self.transrec_cycles, "speedup")

    @property
    def exec_time_ratio(self) -> float:
        """TransRec runtime / GPP runtime (lower is faster)."""
        return checked_ratio(
            self.transrec_cycles, self.gpp.cycles, "exec_time_ratio"
        )

    @property
    def energy_ratio(self) -> float:
        """TransRec energy / GPP energy (lower is better)."""
        return checked_ratio(
            self.transrec_energy.total_pj,
            self.gpp_energy.total_pj,
            "energy_ratio",
        )

    @property
    def offload_fraction(self) -> float:
        """Fraction of committed instructions executed on the fabric."""
        if self.instructions == 0:
            return 0.0
        return self.cgra.committed_instructions / self.instructions
