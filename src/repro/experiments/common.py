"""Shared experiment plumbing — a thin consumer of the campaign layer.

``run_suite`` evaluates one (geometry, policy) design point over the
full verified workload suite through the campaign runner and memoises
the result, so every figure/table that touches the same design point
shares one simulation. Design points that differ only in allocation
policy additionally share one launch schedule per workload through the
in-process memo (:mod:`repro.system.schedule`): the first policy walks
each trace, every further policy is a vectorized replay — which is how
the multi-policy figures (Fig. 7/8, Tables I–II) avoid re-walking the
suite per policy. :class:`SuiteRun` itself lives in
:mod:`repro.campaign.results`; it is re-exported here for the
experiment drivers.
"""

from __future__ import annotations

from functools import lru_cache

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    MapperSpec,
    PolicySpec,
    SuiteRun,
)

__all__ = ["SuiteRun", "run_suite"]


def run_suite(
    rows: int,
    cols: int,
    policy: str = "baseline",
    mapper: str = "greedy",
    mapper_kwargs: dict | None = None,
    **policy_kwargs,
) -> SuiteRun:
    """Run the full verified suite on one design point (memoised)."""
    return _run_suite_cached(
        CampaignSpec(
            geometries=((rows, cols),),
            policies=(PolicySpec.make(policy, **policy_kwargs),),
            mappers=(MapperSpec.make(mapper, **(mapper_kwargs or {})),),
            name=f"suite_L{cols}xW{rows}_{policy}",
        )
    )


@lru_cache(maxsize=64)
def _run_suite_cached(spec: CampaignSpec) -> SuiteRun:
    return CampaignRunner().run(spec).only_run()
