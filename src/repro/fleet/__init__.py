"""Fleet-scale aging campaigns.

Scales the paper's single-device evaluation to fleets of devices, each
drawing its own traffic mix from a named scenario distribution
(:mod:`repro.system.scenarios`), with sharded evaluation and an
append-only mergeable result store that resumes a killed run. See
:mod:`repro.fleet.runner` for the phase structure.
"""

from repro.fleet.runner import FleetResult, FleetRunner, StressProfile, expand_shard
from repro.fleet.spec import (
    DEFAULT_MISSION_YEARS,
    GENERATION_BLOCK,
    FleetShard,
    FleetSpec,
)
from repro.fleet.store import (
    FleetAggregate,
    ResultStore,
    ShardRecord,
    lifetime_histogram,
    merge_records,
)

__all__ = [
    "DEFAULT_MISSION_YEARS",
    "GENERATION_BLOCK",
    "FleetAggregate",
    "FleetResult",
    "FleetRunner",
    "FleetShard",
    "FleetSpec",
    "ResultStore",
    "ShardRecord",
    "StressProfile",
    "expand_shard",
    "lifetime_histogram",
    "merge_records",
]
