"""Random-pivot allocation (reference point, not a hardware proposal).

The paper notes that supporting fully random allocations "may severely
impact performance" with a complex interconnect; on the TransRec fabric
the wrap-around extensions make any pivot equally cheap, so a seeded
random policy serves as a statistical upper bound for balancing in
ablation studies.
"""

from __future__ import annotations

import random

import numpy as np

from repro.cgra.configuration import VirtualConfiguration
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import AllocationPolicy, register_policy


def draw_pivots(
    rng: random.Random, rows: int, cols: int, count: int
) -> np.ndarray:
    """``count`` pivots drawn as ``(rng.randrange(rows),
    rng.randrange(cols))`` pairs, as an ``(count, 2)`` int64 array.

    The draws stay on the scalar ``random.Random`` stream (not a numpy
    generator) so batched and scalar sequences are bit-identical for
    the same seed. They inline ``randrange``'s own rule for a bound
    ``n``: draw ``n.bit_length()`` bits and redraw while the value is
    ``>= n`` — the same draws and the same final RNG state, without
    its per-call argument handling.
    """
    getrandbits = rng.getrandbits
    row_bits, col_bits = rows.bit_length(), cols.bit_length()
    draws = []
    append = draws.append
    for _ in range(count):
        draw = getrandbits(row_bits)
        while draw >= rows:
            draw = getrandbits(row_bits)
        append(draw)
        draw = getrandbits(col_bits)
        while draw >= cols:
            draw = getrandbits(col_bits)
        append(draw)
    return np.array(draws, dtype=np.int64).reshape(count, 2)


@register_policy
class RandomPolicy(AllocationPolicy):
    """Uniformly random pivot per launch (deterministic under ``seed``)."""

    name = "random"
    seedable = True
    plan_granularity = "schedule"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def bind(self, geometry: FabricGeometry) -> None:
        super().bind(geometry)
        self._rng = random.Random(self.seed)

    def next_pivot(self, config: VirtualConfiguration, counts) -> tuple[int, int]:
        return (
            self._rng.randrange(self.geometry.rows),
            self._rng.randrange(self.geometry.cols),
        )

    def plan_pivots(self, schedule, counts):
        """The whole schedule's draws on the scalar RNG stream."""
        return draw_pivots(
            self._rng, self.geometry.rows, self.geometry.cols,
            schedule.n_launches,
        )

    def describe(self) -> str:
        return f"random(seed={self.seed})"
