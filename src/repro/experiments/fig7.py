"""Fig. 7 — per-FU utilization on BE (16x2), baseline vs proposed.

The paper reports the maximum utilization dropping from 94.5% under
traditional allocation to 41.2% under the utilization-aware one, with
the proposed map nearly flat across the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.heatmap import render_heatmap
from repro.core.utilization import Weighting
from repro.errors import checked_ratio
from repro.experiments.common import SuiteRun, run_suite

ROWS = 2
COLS = 16

PAPER_BASELINE_MAX = 0.945
PAPER_PROPOSED_MAX = 0.412


@dataclass
class Fig7Result:
    """Measured Fig. 7 data."""

    baseline: np.ndarray
    proposed: np.ndarray
    baseline_run: SuiteRun
    proposed_run: SuiteRun

    @property
    def baseline_max(self) -> float:
        return float(self.baseline.max())

    @property
    def proposed_max(self) -> float:
        return float(self.proposed.max())

    @property
    def flatness(self) -> float:
        """min/max of the proposed map (1.0 = perfectly flat)."""
        return checked_ratio(
            float(self.proposed.min()), self.proposed_max, "flatness"
        )


def run(pattern: str = "snake") -> Fig7Result:
    baseline_run = run_suite(rows=ROWS, cols=COLS, policy="baseline")
    proposed_run = run_suite(
        rows=ROWS, cols=COLS, policy="rotation", pattern=pattern
    )
    return Fig7Result(
        baseline=baseline_run.utilization(Weighting.EXECUTIONS),
        proposed=proposed_run.utilization(Weighting.EXECUTIONS),
        baseline_run=baseline_run,
        proposed_run=proposed_run,
    )


def render(result: Fig7Result) -> str:
    lines = [
        "Fig. 7 — average FU utilization, BE scenario (16x2)",
        "",
        render_heatmap(result.baseline, title="Baseline (traditional)"),
        "",
        render_heatmap(result.proposed, title="Proposed (utilization-aware)"),
        "",
        f"max utilization baseline: {result.baseline_max * 100:5.1f}%"
        f"  (paper: {PAPER_BASELINE_MAX * 100:.1f}%)",
        f"max utilization proposed: {result.proposed_max * 100:5.1f}%"
        f"  (paper: {PAPER_PROPOSED_MAX * 100:.1f}%)",
        f"proposed-map flatness (min/max): {result.flatness:.2f}",
    ]
    return "\n".join(lines)


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
