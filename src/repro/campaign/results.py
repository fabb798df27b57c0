"""Per-design-point results: suite runs and their JSON summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.spec import DesignPoint
from repro.cgra.fabric import FabricGeometry
from repro.core.utilization import Weighting
from repro.errors import ConfigurationError
from repro.system.stats import SystemResult


@dataclass
class SuiteRun:
    """Results of running a workload suite on one design point."""

    geometry: FabricGeometry
    policy: str
    results: dict[str, SystemResult]

    def utilization(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> np.ndarray:
        """Suite-merged per-FU utilization.

        Executions/cycles merge by summing counts across workloads;
        configs merge by counting distinct (workload, configuration)
        footprints.
        """
        shape = (self.geometry.rows, self.geometry.cols)
        if weighting is Weighting.CONFIGS:
            counts = np.zeros(shape)
            n_configs = 0
            for result in self.results.values():
                footprints = result.tracker.config_footprints
                n_configs += len(footprints)
                for cells in footprints.values():
                    for row, col in cells:
                        counts[row, col] += 1
            return counts / n_configs if n_configs else counts
        counts = np.zeros(shape, dtype=np.int64)
        total = 0
        for result in self.results.values():
            if weighting is Weighting.EXECUTIONS:
                counts += result.tracker.execution_counts
                total += result.tracker.total_executions
            else:
                counts += result.tracker.cycle_counts
                total += result.tracker.total_cycles
        return counts / total if total else counts.astype(float)

    def max_utilization(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> float:
        return float(self.utilization(weighting).max())

    def mean_utilization(
        self, weighting: Weighting = Weighting.EXECUTIONS
    ) -> float:
        return float(self.utilization(weighting).mean())

    def geomean_speedup(self) -> float:
        speedups = np.array([r.speedup for r in self.results.values()])
        if speedups.size == 0:
            raise ConfigurationError("suite run has no workload results")
        if np.any(speedups <= 0):
            bad = [
                name
                for name, result in self.results.items()
                if result.speedup <= 0
            ]
            raise ConfigurationError(
                "geomean undefined: non-positive speedup for "
                f"workload(s) {bad} — the log-mean would silently "
                "produce -inf/NaN"
            )
        return float(np.exp(np.mean(np.log(speedups))))

    def energy_ratio(self) -> float:
        """Suite-total energy ratio (sums, not geomean, so big and
        small workloads weigh by their actual energy).

        Raises:
            ConfigurationError: when the suite's total GPP energy is
                zero — silently returning 1.0 would mask a degenerate
                run (empty traces, zeroed energy params) as parity
                (mirrors the :meth:`geomean_speedup` guard).
        """
        transrec = sum(r.transrec_energy.total_pj for r in self.results.values())
        gpp = sum(r.gpp_energy.total_pj for r in self.results.values())
        if gpp == 0:
            raise ConfigurationError(
                "energy ratio undefined: total GPP energy is zero "
                "(degenerate run) — a 1.0 fallback would silently "
                "report parity"
            )
        return transrec / gpp


def suite_run_summary(point: DesignPoint, run: SuiteRun) -> dict:
    """JSON-ready summary of one evaluated design point.

    This is what campaign artifacts persist: aggregate metrics, the
    merged utilization matrix, and per-workload rows — enough to plot
    every paper figure without re-running the simulation.
    """
    per_workload = {
        name: {
            "speedup": result.speedup,
            "exec_time_ratio": result.exec_time_ratio,
            "energy_ratio": result.energy_ratio,
            "instructions": result.instructions,
            "launches": result.cgra.launches,
            "misspeculations": result.cgra.misspeculations,
            "offload_fraction": result.offload_fraction,
        }
        for name, result in run.results.items()
    }
    summary = {
        "key": point.key,
        "rows": point.rows,
        "cols": point.cols,
        "policy": point.policy.name,
        "policy_kwargs": point.policy.as_kwargs(),
        "workloads": list(point.workloads),
        "geomean_speedup": run.geomean_speedup(),
        "energy_ratio": run.energy_ratio(),
        "max_utilization": run.max_utilization(),
        "mean_utilization": run.mean_utilization(),
        "utilization": run.utilization().tolist(),
        "per_workload": per_workload,
    }
    if not point.mapper.is_default:
        # Emitted only off the default so pre-mapper artifacts stay
        # byte-identical.
        summary["mapper"] = point.mapper.name
        summary["mapper_kwargs"] = point.mapper.as_kwargs()
    if point.ctx_lines is not None:
        # Same rule for the routing budget: pre-routing artifacts are
        # unchanged, budgeted points record their constraint.
        summary["ctx_lines"] = point.ctx_lines
    if point.frontend is not None:
        # Speculative points record their front end and the speculation
        # counters; pre-front-end artifacts stay byte-identical.
        summary["frontend"] = point.frontend.to_jsonable()
        summary["speculation"] = {
            name: {
                "wrong_path_launches": result.cgra.wrong_path_launches,
                "wrong_path_instructions": (
                    result.cgra.wrong_path_instructions
                ),
                "mispredicts": result.cgra.frontend_mispredicts,
                "flushes": result.cgra.frontend_flushes,
                "interrupts": result.cgra.frontend_interrupts,
                "flush_cycles": result.cgra.frontend_flush_cycles,
            }
            for name, result in run.results.items()
        }
    return summary
