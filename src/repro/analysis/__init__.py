"""Text-mode analysis and reporting: heatmaps, distributions, tables."""

from repro.analysis.distribution import gini, histogram, text_histogram
from repro.analysis.heatmap import render_heatmap
from repro.analysis.report import run_report
from repro.analysis.tables import render_table

__all__ = [
    "gini",
    "histogram",
    "render_heatmap",
    "render_table",
    "run_report",
    "text_histogram",
]
