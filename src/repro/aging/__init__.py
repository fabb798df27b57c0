"""NBTI aging model and lifetime analysis (paper Section II-A / Eq. 1).

The model is the predictive long-term NBTI form of Henkel et al. [26]
used verbatim by the paper::

    dVt = 0.005 * exp(-1500 / T) * Vdd^4 * t^(1/6) * u^(1/6)

with delay degradation linear in dVt, calibrated such that a fully
stressed FU (u = 1) reaches the paper's worst-case 10% delay increase
after 3 years. End-of-life is set by the most-stressed FU, which gives
the closed form ``lifetime(u) = 3 years / u`` and, consequently,
``lifetime improvement = worst-utilization ratio`` — exactly how the
paper's Table I numbers compose.
"""

from repro.aging.lifetime import (
    delay_curve,
    lifetime_improvement,
    lifetime_years,
)
from repro.aging.nbti import HOURS_PER_YEAR, NBTIModel

__all__ = [
    "HOURS_PER_YEAR",
    "NBTIModel",
    "delay_curve",
    "lifetime_improvement",
    "lifetime_years",
]
