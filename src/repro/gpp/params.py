"""Timing parameters for the single-issue in-order GPP model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.frozen import FrozenDict
from repro.gpp.cache import CacheParams
from repro.isa.instructions import InstrClass


@dataclass(frozen=True)
class GPPParams:
    """Per-class latencies and structural penalties.

    Latencies are *occupancy* cycles of a single-issue pipeline (CPI
    contribution at cache hit and correct prediction), in the spirit of
    gem5's TimingSimple model of a Rocket-class core.

    Frozen and hashable (``class_cycles`` is stored as a
    :class:`~repro.frozen.FrozenDict`): the GPP reference of a trace is
    memoised under its params.

    Attributes:
        class_cycles: base cycles per instruction class (every class,
            each >= 0).
        branch_mispredict_penalty: pipeline refill cycles on mispredict
            (>= 0).
        predictor: a registered name from :mod:`repro.gpp.branch`
            (``"btfn"``, ``"taken"``, ``"bimodal"``, ``"gshare"``).
        icache: instruction cache geometry/penalty.
        dcache: data cache geometry/penalty.
    """

    class_cycles: FrozenDict[InstrClass, int] = FrozenDict(
        {
            InstrClass.ALU: 1,
            InstrClass.MUL: 3,
            InstrClass.DIV: 16,
            InstrClass.LOAD: 2,
            InstrClass.STORE: 1,
            InstrClass.BRANCH: 1,
            InstrClass.JUMP: 2,
            InstrClass.SYSTEM: 5,
        }
    )
    branch_mispredict_penalty: int = 3
    predictor: str = "btfn"
    icache: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=16 * 1024, line_bytes=64, ways=4, miss_penalty=20
        )
    )
    dcache: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=16 * 1024, line_bytes=64, ways=4, miss_penalty=20
        )
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_cycles", FrozenDict(self.class_cycles))
        missing = [
            cls.name for cls in InstrClass if cls not in self.class_cycles
        ]
        if missing:
            raise ConfigurationError(
                f"class_cycles has no entry for {', '.join(missing)}"
            )
        for cls, cycles in self.class_cycles.items():
            if cycles < 0:
                raise ConfigurationError(
                    f"class_cycles[{cls.name}] must be >= 0, got {cycles}"
                )
        if self.branch_mispredict_penalty < 0:
            raise ConfigurationError(
                "branch_mispredict_penalty must be >= 0, got "
                f"{self.branch_mispredict_penalty}"
            )

    def cycles_for(self, cls: InstrClass) -> int:
        """Base cycles for one instruction of class ``cls``."""
        return self.class_cycles[cls]
