"""System energy model (Fig. 6's energy axis).

Energy is accounted from an activity summary produced by the system
simulation::

    E(GPP-only)  = dynamic(instructions) + miss energy
                 + background power x runtime
    E(TransRec)  = dynamic(GPP-side instructions) + miss energy
                 + CGRA op/launch/reconfig energy + config-cache accesses
                 + background power x runtime
                 + fabric overhead power x runtime  (clock tree + leakage,
                   proportional to fabric cells)

The fabric overhead term is what penalises over-provisioned fabrics:
the BU-class designs buy no extra speedup over BP but clock four times
the cells, reproducing the paper's energy ordering BE < BP < BU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cgra.fu import FUKind
from repro.isa.instructions import InstrClass


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (pJ) and background powers (pJ/cycle)."""

    gpp_class_pj: dict[InstrClass, float] = field(
        default_factory=lambda: {
            InstrClass.ALU: 8.0,
            InstrClass.MUL: 14.0,
            InstrClass.DIV: 24.0,
            InstrClass.LOAD: 16.0,
            InstrClass.STORE: 13.0,
            InstrClass.BRANCH: 8.5,
            InstrClass.JUMP: 9.0,
            InstrClass.SYSTEM: 12.0,
        }
    )
    cache_miss_pj: float = 42.0
    #: GPP core + caches background (clock/leakage) per cycle.
    gpp_background_pj_per_cycle: float = 6.0
    cgra_op_pj: dict[FUKind, float] = field(
        default_factory=lambda: {
            FUKind.ALU: 2.2,
            FUKind.MUL: 9.0,
            FUKind.LOAD: 14.0,
            FUKind.STORE: 11.0,
        }
    )
    #: Crossbar/context switching per active column per launch.
    xbar_column_pj: float = 1.1
    #: Fixed input-context load + writeback cost per launch.
    launch_pj: float = 6.5
    #: Configuration streaming per bit (cold launches only).
    reconfig_bit_pj: float = 0.018
    #: Config-cache probe/read energy per access.
    config_cache_access_pj: float = 3.0
    #: Fabric clock-tree + leakage background, charged per cycle as
    #: ``base * cells**exponent``. The sublinear exponent models
    #: clock-gating of idle columns, whose effectiveness grows with
    #: fabric size; both constants are calibrated against the paper's
    #: three Fig. 6 energy points (BE -10%, BP +20%, BU +46%).
    fabric_background_pj_base: float = 0.62
    fabric_cells_exponent: float = 0.66


@dataclass
class SystemActivity:
    """Event counts gathered during one timed run."""

    cycles: int = 0
    gpp_class_counts: dict[InstrClass, int] = field(default_factory=dict)
    cache_misses: int = 0
    cgra_op_counts: dict[FUKind, int] = field(default_factory=dict)
    launches: int = 0
    active_column_launches: int = 0  # sum of used_cols over launches
    cold_config_bits: int = 0
    config_cache_accesses: int = 0
    fabric_cells: int = 0  # 0 for a GPP-only run


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown for one run (pJ)."""

    gpp_dynamic_pj: float
    cache_miss_pj: float
    gpp_background_pj: float
    cgra_dynamic_pj: float
    fabric_background_pj: float

    @property
    def total_pj(self) -> float:
        return (
            self.gpp_dynamic_pj
            + self.cache_miss_pj
            + self.gpp_background_pj
            + self.cgra_dynamic_pj
            + self.fabric_background_pj
        )


class EnergyModel:
    """Turns a :class:`SystemActivity` into an :class:`EnergyReport`
    under the calibrated :class:`EnergyParams`."""

    params = EnergyParams()

    def report(self, activity: SystemActivity) -> EnergyReport:
        params = self.params
        gpp_dynamic = sum(
            params.gpp_class_pj[cls] * count
            for cls, count in activity.gpp_class_counts.items()
        )
        miss = activity.cache_misses * params.cache_miss_pj
        background = activity.cycles * params.gpp_background_pj_per_cycle
        cgra = sum(
            params.cgra_op_pj[kind] * count
            for kind, count in activity.cgra_op_counts.items()
        )
        cgra += activity.launches * params.launch_pj
        cgra += activity.active_column_launches * params.xbar_column_pj
        cgra += activity.cold_config_bits * params.reconfig_bit_pj
        cgra += activity.config_cache_accesses * params.config_cache_access_pj
        fabric = 0.0
        if activity.fabric_cells:
            fabric = (
                activity.cycles
                * params.fabric_background_pj_base
                * activity.fabric_cells**params.fabric_cells_exponent
            )
        return EnergyReport(
            gpp_dynamic_pj=gpp_dynamic,
            cache_miss_pj=miss,
            gpp_background_pj=background,
            cgra_dynamic_pj=cgra,
            fabric_background_pj=fabric,
        )
