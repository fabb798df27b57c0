"""Hardware cost models: area, cells, timing, energy.

The paper synthesises an HDL prototype with Cadence RTL Compiler on
NanGate's 15nm library. Offline we replace that flow with structural
gate-count models over a 15nm-class cell library: every fabric
component (crossbars, ALUs, registers, reconfiguration logic, the
proposed extensions) is expressed as cell counts, rolled up into
area/leakage, and the per-column critical path is computed from cell
delays. Absolute numbers are calibrated once against Table II's
baseline; all *ratios* (the paper's actual claims) are structural.
"""

from repro.hw.area import AreaBreakdown, CGRAAreaModel
from repro.hw.cells import CELL_LIBRARY, Cell, CellCounts
from repro.hw.components import (
    alu32,
    barrel_rotator,
    memory_unit,
    multiplier32,
    mux_tree,
    register,
    rob,
)
from repro.hw.energy import EnergyModel, EnergyParams, EnergyReport
from repro.hw.timing_model import ColumnTimingModel, TimingReport

__all__ = [
    "AreaBreakdown",
    "CELL_LIBRARY",
    "CGRAAreaModel",
    "Cell",
    "CellCounts",
    "ColumnTimingModel",
    "EnergyModel",
    "EnergyParams",
    "EnergyReport",
    "TimingReport",
    "alu32",
    "barrel_rotator",
    "memory_unit",
    "multiplier32",
    "mux_tree",
    "register",
    "rob",
]
