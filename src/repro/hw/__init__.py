"""Hardware cost models: area, cells, timing, energy.

The paper synthesises an HDL prototype with Cadence RTL Compiler on
NanGate's 15nm library. Offline we replace that flow with structural
gate-count models over a 15nm-class cell library: every fabric
component (crossbars, ALUs, registers, reconfiguration logic, the
proposed extensions) is expressed as cell counts, rolled up into
area/leakage, and the per-column critical path is computed from cell
delays. Absolute numbers are calibrated once against Table II's
baseline; all *ratios* (the paper's actual claims) are structural.

The package imports none of its modules: every simulation reads
:mod:`repro.hw.energy`, while only Table II reads the area and timing
models (:mod:`repro.hw.area`, :mod:`repro.hw.timing_model`) and the
cell counts behind them (:mod:`repro.hw.cells`,
:mod:`repro.hw.components`).
"""
