"""Full-system TransRec simulation: GPP + DBT + config cache + CGRA.

:class:`TransRecSystem` consumes a committed trace and produces cycle
counts, energy, utilization maps and cache statistics for both the
stand-alone GPP and the accelerated system, under a chosen allocation
policy. Timing is two-phase: :mod:`repro.system.schedule` records the
policy-independent :class:`LaunchSchedule` once per pipeline and
replays it vectorized under each allocation policy.
:mod:`repro.system.scenarios` provides the paper's BE/BP/BU design
points.
"""

from repro.system.params import SystemParams
from repro.system.scenarios import SCENARIOS, Scenario, make_system
from repro.system.schedule import (
    LaunchSchedule,
    clear_schedule_caches,
    compute_schedule,
    replay_schedule,
    schedule_key,
    shared_schedule,
)
from repro.system.stats import SystemResult
from repro.system.transrec import TransRecSystem

__all__ = [
    "SCENARIOS",
    "LaunchSchedule",
    "Scenario",
    "SystemParams",
    "SystemResult",
    "TransRecSystem",
    "clear_schedule_caches",
    "compute_schedule",
    "make_system",
    "replay_schedule",
    "schedule_key",
    "shared_schedule",
]
