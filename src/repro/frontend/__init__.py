"""Speculative front-end subsystem.

Models the GPP fetch front end that feeds the DBT: a branch predictor
(from the shared :mod:`repro.gpp.branch` registry) running ahead of
execution emits wrong-path fetch runs after every mispredict, pipeline
flush gaps, and seeded interrupt punctuation with handler mini-traces.
The output is a :class:`repro.sim.trace.SpeculativeTrace` consumed by
the Phase A schedule walk; :class:`FrontEndSpec` is the declarative
configuration that rides in ``SystemParams`` and campaign axes.
"""

from repro.frontend.spec import FrontEndSpec
from repro.frontend.speculative import (
    HANDLER_BASE_PC,
    SpeculativeFrontEnd,
    speculative_trace,
)

__all__ = [
    "HANDLER_BASE_PC",
    "FrontEndSpec",
    "SpeculativeFrontEnd",
    "speculative_trace",
]
