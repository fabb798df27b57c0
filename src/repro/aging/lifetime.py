"""Lifetime analysis on top of the NBTI model.

The product's end-of-life is determined by the FU with the highest
utilization (paper Section IV-A), so system lifetime is
``years_to_degradation(max utilization)`` and the improvement of one
allocation over another is the ratio of their worst-case utilizations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.aging.nbti import NBTIModel


def lifetime_years(
    model: NBTIModel,
    worst_utilization: float,
    threshold: float | None = None,
) -> float:
    """System lifetime in years given the worst-case FU utilization."""
    return model.years_to_degradation(worst_utilization, threshold)


def lifetime_improvement(
    model: NBTIModel,
    baseline_worst_utilization: float,
    proposed_worst_utilization: float,
    threshold: float | None = None,
) -> float:
    """Lifetime ratio proposed/baseline (>1 means the proposal wins).

    With Eq. 1's matched exponents this equals
    ``baseline_worst_utilization / proposed_worst_utilization``; the
    function still computes it through the model so alternative aging
    models can be swapped in.
    """
    baseline = lifetime_years(model, baseline_worst_utilization, threshold)
    proposed = lifetime_years(model, proposed_worst_utilization, threshold)
    return proposed / baseline


def delay_curve(
    model: NBTIModel,
    utilization: float,
    years: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Relative delay increase over time (Fig. 8 bottom curves)."""
    return np.asarray(
        model.delay_increase(np.asarray(years, dtype=float), utilization)
    )


def device_lifetimes(
    model: NBTIModel,
    worst_utilizations: np.ndarray,
    threshold: float | None = None,
) -> np.ndarray:
    """Per-device lifetime (years) from per-device worst-FU duty
    cycles — one batched model call over a whole fleet shard.

    A device fails when its *worst-stressed* FU leaves the delay
    budget (the paper's end-of-life criterion, applied per device), so
    fleet lifetime statistics reduce to this transform of the
    worst-utilization vector.
    """
    return np.atleast_1d(
        np.asarray(model.years_to_degradation(worst_utilizations, threshold))
    )


def survival_counts(
    lifetimes: np.ndarray, mission_years: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Devices (or FUs) still alive at each mission time.

    Counts are computed per mission year on the raw lifetime vector,
    so per-shard counts sum exactly across a sharded fleet — the
    mergeable form of a fleet survival curve (divide by the total
    device count for the fraction).
    """
    lifetimes = np.asarray(lifetimes, dtype=float)
    grid = np.asarray(mission_years, dtype=float)
    return (lifetimes[None, :] > grid[:, None]).sum(axis=1)
