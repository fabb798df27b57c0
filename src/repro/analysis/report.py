"""Comprehensive plain-text report for one system run.

Turns a :class:`~repro.system.stats.SystemResult` into the summary a
user wants after running a workload: performance, energy, offload,
cache behaviour, utilization map and lifetime projection — everything
the paper's evaluation discusses, on one screen.
"""

from __future__ import annotations

from repro.aging.lifetime import lifetime_years
from repro.aging.nbti import NBTIModel
from repro.analysis.distribution import gini
from repro.analysis.heatmap import render_heatmap
from repro.system.stats import SystemResult


def run_report(
    result: SystemResult,
    model: NBTIModel | None = None,
    include_heatmap: bool = True,
) -> str:
    """Render a full report for one run."""
    model = model if model is not None else NBTIModel()
    tracker = result.tracker
    worst = tracker.max_utilization()
    sections = [
        f"=== run report: {result.name or 'unnamed workload'} ===",
        "",
        "performance",
        f"  committed instructions: {result.instructions:,}",
        f"  GPP-only cycles:        {result.gpp.cycles:,}"
        f"  (CPI {result.gpp.cpi:.2f})",
        f"  TransRec cycles:        {result.transrec_cycles:,}",
        f"  speedup:                {result.speedup:.2f}x",
        f"  offloaded to fabric:    {result.offload_fraction * 100:.1f}%",
        "",
        "energy",
        f"  GPP-only:  {result.gpp_energy.total_pj / 1e6:.3f} uJ",
        f"  TransRec:  {result.transrec_energy.total_pj / 1e6:.3f} uJ"
        f"  (ratio {result.energy_ratio:.2f})",
        "",
        "fabric",
        f"  launches: {result.cgra.launches:,}"
        f"  (cold: {result.cgra.cold_launches:,},"
        f" misspeculations: {result.cgra.misspeculations:,})",
        f"  commit efficiency: {result.cgra.commit_efficiency * 100:.1f}%",
        f"  config cache: {result.cache_stats.hit_rate * 100:.1f}% hits,"
        f" {result.cache_stats.evictions} evictions,"
        f" {result.cache_stats.truncations} truncations",
        "",
        "utilization",
        f"  worst FU: {worst * 100:.1f}%"
        f"   mean: {tracker.mean_utilization() * 100:.1f}%"
        f"   balance (mean/max): {tracker.balance_ratio():.2f}"
        f"   gini: {gini(tracker.utilization().ravel()):.3f}",
        "",
        "aging projection (Eq. 1)",
        f"  time to +{model.reference_degradation * 100:.0f}% delay:"
        f" {lifetime_years(model, worst):.1f} years",
    ]
    if include_heatmap:
        sections.extend(["", render_heatmap(tracker.utilization())])
    return "\n".join(sections)

