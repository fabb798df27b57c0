"""Hardware Dynamic Binary Translation (DBT) model.

TransRec's DBT watches the committed instruction stream, groups
instructions into translation units, allocates them onto the CGRA's
virtual grid with a greedy first-fit scheduler (the energy-oriented
allocation whose corner bias motivates the paper) and stores the
resulting configurations in a PC-indexed configuration cache.
"""

from repro.dbt.config_cache import ConfigCache, ConfigCacheStats
from repro.dbt.dfg import build_dfg, critical_path_length
from repro.dbt.scheduler import SchedulerState
from repro.dbt.translator import DBTEngine, DBTLimits
from repro.dbt.window import build_unit

__all__ = [
    "ConfigCache",
    "ConfigCacheStats",
    "DBTEngine",
    "DBTLimits",
    "SchedulerState",
    "build_dfg",
    "build_unit",
    "critical_path_length",
]
