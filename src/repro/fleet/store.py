"""Append-only, mergeable fleet result store.

One fleet campaign produces one newline-delimited JSON file
(``shards.ndjson``): each line is a compact :class:`ShardRecord` — the
*aggregate* of one (policy, shard) evaluation, never per-device rows.
Appending a record is a single ``write()`` of one line, so concurrent
or killed writers can at worst leave a torn trailing line, which the
loader skips (and counts) instead of failing; the shard whose record
was torn simply re-runs on resume.

Aggregation is *streaming*: lifetime percentiles come from a fixed
log-spaced histogram (:data:`HIST_BINS` bins spanning
[:data:`HIST_LO`, :data:`HIST_HI`] years, plus under/overflow slots),
survival curves from per-mission-year alive counts, MTTF from sums.
Every field merges like the telemetry snapshot's counter/summary
semantics (:meth:`repro.obs.TelemetrySnapshot.merge`): counts add,
mins/maxes extremise — so folding shard records is order- and
partition-insensitive and the parent never holds more than one record
per (policy, shard) regardless of fleet size.

Percentile error is bounded by the histogram's bin ratio
(``(HIST_HI/HIST_LO)**(1/HIST_BINS)`` ≈ 2.3% relative), with exact
global min/max preserved; the fleet tests pin streaming-vs-dense
agreement to this bound.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.aging.lifetime import survival_counts
from repro.errors import ConfigurationError
from repro.resilience import faults

#: On-disk record schema version; bump on layout changes so stale
#: records are skipped rather than misread.
STORE_VERSION = 1

#: Lifetime histogram geometry: log-spaced bins over [HIST_LO, HIST_HI]
#: years. 512 bins over five decades bound the streaming-percentile
#: relative error at 10**(5/512) - 1 ≈ 2.3%.
HIST_BINS = 512
HIST_LO = 1e-2
HIST_HI = 1e3

#: Log-spaced bin edges, shared by every record (len HIST_BINS + 1).
_EDGES = np.logspace(np.log10(HIST_LO), np.log10(HIST_HI), HIST_BINS + 1)


def lifetime_histogram(lifetimes: np.ndarray) -> np.ndarray:
    """Bin finite lifetimes into the shared log grid.

    Returns ``HIST_BINS + 2`` counts: ``[underflow, bins...,
    overflow]``. Infinite lifetimes are the caller's to count
    separately (they carry no magnitude to bin).
    """
    finite = lifetimes[np.isfinite(lifetimes)]
    counts = np.zeros(HIST_BINS + 2, dtype=np.int64)
    if finite.size == 0:
        return counts
    counts[0] = int((finite < HIST_LO).sum())
    counts[-1] = int((finite >= HIST_HI).sum())
    inside = finite[(finite >= HIST_LO) & (finite < HIST_HI)]
    if inside.size:
        counts[1:-1], _ = np.histogram(inside, bins=_EDGES)
    return counts


@dataclass
class ShardRecord:
    """Mergeable aggregate of one (policy, shard) fleet evaluation."""

    fingerprint: str
    policy: str
    shard: int
    n_devices: int
    #: Devices whose worst utilization is exactly 0 (lifetime = inf).
    n_infinite: int
    lifetime_sum: float
    lifetime_min: float  # finite lifetimes only; inf when none
    lifetime_max: float  # -inf when none
    worst_util_sum: float
    worst_util_min: float
    worst_util_max: float
    hist: np.ndarray  # (HIST_BINS + 2,) int64
    survival: np.ndarray  # per mission year, int64 alive counts
    version: int = STORE_VERSION

    @classmethod
    def from_lifetimes(
        cls,
        fingerprint: str,
        policy: str,
        shard: int,
        lifetimes: np.ndarray,
        worst_utils: np.ndarray,
        mission_years: tuple[float, ...],
    ) -> "ShardRecord":
        """Fold one shard's per-device vectors into an aggregate (the
        vectors are dropped afterwards — this is all that survives)."""
        lifetimes = np.asarray(lifetimes, dtype=float)
        worst_utils = np.asarray(worst_utils, dtype=float)
        finite = lifetimes[np.isfinite(lifetimes)]
        grid = np.asarray(mission_years, dtype=float)
        return cls(
            fingerprint=fingerprint,
            policy=policy,
            shard=int(shard),
            n_devices=int(lifetimes.size),
            n_infinite=int(lifetimes.size - finite.size),
            lifetime_sum=float(finite.sum()),
            lifetime_min=float(finite.min()) if finite.size else float("inf"),
            lifetime_max=float(finite.max()) if finite.size else float("-inf"),
            worst_util_sum=float(worst_utils.sum()),
            worst_util_min=float(worst_utils.min()) if worst_utils.size else 0.0,
            worst_util_max=float(worst_utils.max()) if worst_utils.size else 0.0,
            hist=lifetime_histogram(lifetimes),
            survival=survival_counts(lifetimes, grid),
        )

    def to_jsonable(self) -> dict:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "policy": self.policy,
            "shard": self.shard,
            "n_devices": self.n_devices,
            "n_infinite": self.n_infinite,
            "lifetime_sum": self.lifetime_sum,
            "lifetime_min": self.lifetime_min,
            "lifetime_max": self.lifetime_max,
            "worst_util_sum": self.worst_util_sum,
            "worst_util_min": self.worst_util_min,
            "worst_util_max": self.worst_util_max,
            "hist": self.hist.tolist(),
            "survival": self.survival.tolist(),
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "ShardRecord":
        if payload.get("version") != STORE_VERSION:
            raise ValueError(
                f"unsupported shard-record version {payload.get('version')!r}"
            )
        hist = np.asarray(payload["hist"], dtype=np.int64)
        if hist.shape != (HIST_BINS + 2,):
            raise ValueError(f"bad histogram shape {hist.shape}")
        return cls(
            fingerprint=str(payload["fingerprint"]),
            policy=str(payload["policy"]),
            shard=int(payload["shard"]),
            n_devices=int(payload["n_devices"]),
            n_infinite=int(payload["n_infinite"]),
            lifetime_sum=float(payload["lifetime_sum"]),
            lifetime_min=float(payload["lifetime_min"]),
            lifetime_max=float(payload["lifetime_max"]),
            worst_util_sum=float(payload["worst_util_sum"]),
            worst_util_min=float(payload["worst_util_min"]),
            worst_util_max=float(payload["worst_util_max"]),
            hist=hist,
            survival=np.asarray(payload["survival"], dtype=np.int64),
        )


@dataclass
class FleetAggregate:
    """The merged fleet-wide statistics of one policy.

    Built by folding :class:`ShardRecord`\\ s in sorted shard order
    (:func:`merge_records`); every field follows the telemetry merge
    law — counts/sums add, mins/maxes extremise — so the fold is
    independent of which worker finished first.
    """

    policy: str
    mission_years: tuple[float, ...]
    n_devices: int = 0
    n_infinite: int = 0
    lifetime_sum: float = 0.0
    lifetime_min: float = float("inf")
    lifetime_max: float = float("-inf")
    worst_util_sum: float = 0.0
    worst_util_min: float = float("inf")
    worst_util_max: float = 0.0
    hist: np.ndarray = field(
        default_factory=lambda: np.zeros(HIST_BINS + 2, dtype=np.int64)
    )
    survival: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    shards: tuple[int, ...] = ()

    def absorb(self, record: ShardRecord) -> None:
        """Fold one shard record in (same semantics as
        :meth:`~repro.obs.TelemetrySnapshot.merge`)."""
        if self.survival.size == 0:
            self.survival = np.zeros(len(self.mission_years), dtype=np.int64)
        self.n_devices += record.n_devices
        self.n_infinite += record.n_infinite
        self.lifetime_sum += record.lifetime_sum
        self.lifetime_min = min(self.lifetime_min, record.lifetime_min)
        self.lifetime_max = max(self.lifetime_max, record.lifetime_max)
        self.worst_util_sum += record.worst_util_sum
        self.worst_util_min = min(self.worst_util_min, record.worst_util_min)
        self.worst_util_max = max(self.worst_util_max, record.worst_util_max)
        self.hist = self.hist + record.hist
        self.survival = self.survival + record.survival
        self.shards = self.shards + (record.shard,)

    # -- derived statistics ------------------------------------------------

    def lifetime_percentile(self, q: float) -> float:
        """Streaming lifetime percentile (years) from the histogram.

        Geometric interpolation inside the covering bin; the under/
        overflow slots interpolate against the exact global min/max,
        and a quantile falling into the infinite-lifetime tail returns
        ``inf``. Relative error <= the bin ratio (~2.3%).
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile {q} outside [0, 100]")
        total = self.n_devices
        if total == 0:
            raise ConfigurationError("empty aggregate has no percentiles")
        target = q / 100.0 * total
        if target <= 0:
            return self.lifetime_min if np.isfinite(self.lifetime_min) else float("inf")
        cumulative = 0.0
        n_finite = total - self.n_infinite
        if target > n_finite:
            return float("inf")
        for index in range(self.hist.size):
            count = int(self.hist[index])
            if count == 0:
                continue
            if cumulative + count >= target:
                if index == 0:
                    lo, hi = self.lifetime_min, HIST_LO
                elif index == self.hist.size - 1:
                    lo, hi = HIST_HI, self.lifetime_max
                else:
                    lo, hi = _EDGES[index - 1], _EDGES[index]
                lo = max(lo, 1e-12)
                hi = max(hi, lo)
                frac = (target - cumulative) / count
                return float(lo * (hi / lo) ** frac)
            cumulative += count
        return self.lifetime_max if np.isfinite(self.lifetime_max) else float("inf")

    def mttf_years(self) -> float:
        """Mean time to failure over the finite-lifetime devices."""
        finite = self.n_devices - self.n_infinite
        if finite == 0:
            return float("inf")
        return self.lifetime_sum / finite

    def mean_worst_utilization(self) -> float:
        if self.n_devices == 0:
            return 0.0
        return self.worst_util_sum / self.n_devices

    def survival_fractions(self) -> dict[float, float]:
        """Fleet survival curve: mission year -> alive fraction."""
        if self.n_devices == 0:
            return {year: 0.0 for year in self.mission_years}
        return {
            year: int(alive) / self.n_devices
            for year, alive in zip(self.mission_years, self.survival)
        }

    def to_jsonable(self) -> dict:
        return {
            "policy": self.policy,
            "devices": self.n_devices,
            "shards": len(self.shards),
            "mttf_years": self.mttf_years(),
            "lifetime_p50": self.lifetime_percentile(50),
            "lifetime_p90": self.lifetime_percentile(90),
            "lifetime_p99": self.lifetime_percentile(99),
            "lifetime_min": self.lifetime_min,
            "lifetime_max": self.lifetime_max,
            "mean_worst_utilization": self.mean_worst_utilization(),
            "max_worst_utilization": self.worst_util_max,
            "survival": {
                str(year): fraction
                for year, fraction in self.survival_fractions().items()
            },
        }


def merge_records(
    records: list[ShardRecord], mission_years: tuple[float, ...]
) -> dict[str, FleetAggregate]:
    """Fold shard records into per-policy aggregates.

    Records are sorted by (policy, shard) before folding and
    deduplicated on that key (first wins — a raced append of one shard
    must not double-count its devices), so the merge is bit-identical
    regardless of completion or load order.
    """
    aggregates: dict[str, FleetAggregate] = {}
    seen: set[tuple[str, int]] = set()
    for record in sorted(records, key=lambda r: (r.policy, r.shard)):
        key = (record.policy, record.shard)
        if key in seen:
            continue
        seen.add(key)
        aggregate = aggregates.get(record.policy)
        if aggregate is None:
            aggregate = FleetAggregate(
                policy=record.policy, mission_years=mission_years
            )
            aggregates[record.policy] = aggregate
        aggregate.absorb(record)
    return aggregates


@dataclass
class StoreSkips:
    """Per-category counts of store lines the loader skipped.

    Categories: ``torn`` (not parseable JSON — a write died mid-line),
    ``stale`` (an older record schema version), ``corrupt`` (parseable
    but schema-invalid), ``foreign`` (another fleet's fingerprint).
    """

    torn: int = 0
    stale: int = 0
    corrupt: int = 0
    foreign: int = 0

    @property
    def total(self) -> int:
        return self.torn + self.stale + self.corrupt + self.foreign

    def __bool__(self) -> bool:
        return self.total > 0

    def to_jsonable(self) -> dict:
        return {
            "torn": self.torn,
            "stale": self.stale,
            "corrupt": self.corrupt,
            "foreign": self.foreign,
            "total": self.total,
        }


class ResultStore:
    """The on-disk NDJSON shard-record store of one fleet campaign.

    ``append`` writes one record as one line (single ``write`` on an
    append-mode handle); ``load`` returns every intact record matching
    ``fingerprint`` and counts torn/stale/corrupt/foreign lines per
    category instead of raising, so a store that survived a kill -9 is
    still a valid resume point.
    """

    FILENAME = "shards.ndjson"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME

    def append(self, record: ShardRecord) -> None:
        faults.maybe_fire("store.append")
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_jsonable(), sort_keys=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        obs.count("fleet.store.appends")

    def load(self, fingerprint: str) -> tuple[list[ShardRecord], StoreSkips]:
        """All intact records stamped with ``fingerprint``, plus the
        per-category :class:`StoreSkips` breakdown of skipped lines."""
        skips = StoreSkips()
        if not self.path.exists():
            return [], skips
        records: list[ShardRecord] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    skips.torn += 1
                    continue
                if not isinstance(payload, dict):
                    skips.corrupt += 1
                    continue
                if payload.get("version") != STORE_VERSION:
                    skips.stale += 1
                    continue
                try:
                    record = ShardRecord.from_jsonable(payload)
                except (ValueError, KeyError, TypeError):
                    skips.corrupt += 1
                    continue
                if record.fingerprint != fingerprint:
                    skips.foreign += 1
                    continue
                records.append(record)
        for category, value in (
            ("torn", skips.torn),
            ("stale", skips.stale),
            ("corrupt", skips.corrupt),
            ("foreign", skips.foreign),
        ):
            if value:
                obs.count(f"fleet.store.skipped.{category}", value)
        obs.count("fleet.store.loaded", len(records))
        return records, skips
