"""Set-associative cache timing model with true-LRU replacement.

Only hit/miss behaviour is modelled — no data storage — because the
functional simulator already provides values. The model is shared by
the instruction and data caches of the GPP and sized like the paper's
embedded Rocket configuration by default. Callers charge
``misses * miss_penalty``: the GPP's icache per fetch, and the shared
dcache once per stream (:func:`repro.gpp.timing.stream_dcache`).

Both feed whole address arrays through :meth:`CacheModel.access_many`,
which merges runs of accesses to one line. The merge is exact: an
access leaves its line the most recent of its set, so an access to the
line the access before it touched is a hit that reorders nothing. Only
the first access of each run can change the LRU state or miss; every
repeat adds one hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheParams:
    """Geometry and penalty of one cache.

    Attributes:
        size_bytes: total capacity.
        line_bytes: cache line size.
        ways: associativity.
        miss_penalty: extra cycles charged on a miss (>= 0).

    Frozen and validated on construction: a cache's per-stream outcome
    is memoised under its params.
    """

    size_bytes: int = 16 * 1024
    line_bytes: int = 64
    ways: int = 4
    miss_penalty: int = 20

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "ways"):
            if not _is_power_of_two(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a power of two")
        if self.size_bytes < self.line_bytes * self.ways:
            raise ConfigurationError("cache smaller than one set")
        if self.miss_penalty < 0:
            raise ConfigurationError(
                f"miss_penalty must be >= 0, got {self.miss_penalty}"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


class CacheModel:
    """Hit/miss simulator for one cache."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self._offset_bits = params.line_bytes.bit_length() - 1
        self._set_mask = params.n_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        # Per-set list of tags in LRU order (index 0 = most recent).
        self._sets: list[list[int]] = [[] for _ in range(params.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch ``address``; return ``True`` on hit."""
        line = address >> self._offset_bits
        tags = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        if tags and tags[0] == tag:
            # Already the most recent line of its set: LRU order stays.
            self.hits += 1
            return True
        try:
            tags.remove(tag)
        except ValueError:
            self.misses += 1
            tags.insert(0, tag)
            if len(tags) > self.params.ways:
                tags.pop()
            return False
        self.hits += 1
        tags.insert(0, tag)
        return True

    def access_many(self, addresses: np.ndarray) -> None:
        """Touch every address of the int array ``addresses``, in order.

        Equivalent to :meth:`access` per address: only the first access
        of each run on one line goes through it, and each repeat counts
        one hit (a repeat hits the most recent line of its set).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if not addresses.size:
            return
        lines = addresses >> self._offset_bits
        run_heads = np.empty(lines.size, dtype=bool)
        run_heads[0] = True
        np.not_equal(lines[1:], lines[:-1], out=run_heads[1:])
        heads = addresses[run_heads].tolist()
        access = self.access
        for address in heads:
            access(address)
        self.hits += addresses.size - len(heads)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
