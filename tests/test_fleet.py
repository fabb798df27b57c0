"""Fleet subsystem gates: spec determinism, store merge laws and
runner resume.

The invariants pinned here are the ones the fleet service's
correctness rests on (see :mod:`repro.fleet`):

* device traffic mixes are **sharding-independent** — the same fleet
  expands to the same devices whether it runs as 1 shard or 1000;
* shard-record merging is **order- and duplicate-insensitive** and
  partitions **associatively** (counts exactly, float sums to
  tolerance);
* streaming percentiles agree with dense ``np.percentile`` within the
  histogram's documented ~2.3% bin-ratio bound;
* the store survives torn/corrupt/foreign lines;
* a killed-and-resumed run merges **bit-identically** to an
  uninterrupted one;
* shard expansion keeps only the cells that can be a device's worst
  FU and folds them cells-major, **bit-identically** to the broadcast
  fold over every cell, in a fraction of its memory;
* every traffic scenario's merged aggregates obey the fleet
  conservation laws (device mass, monotone survival, utilization and
  lifetime bounds).
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.lifetime import device_lifetimes, survival_counts
from repro.aging.nbti import NBTIModel
from repro.campaign.spec import PolicySpec
from repro.cgra.fabric import FabricGeometry
from repro.core.policy import make_policy
from repro.errors import ConfigurationError
from repro.fleet import (
    GENERATION_BLOCK,
    FleetRunner,
    FleetSpec,
    ResultStore,
    ShardRecord,
    expand_shard,
    lifetime_histogram,
    merge_records,
)
from repro.fleet.runner import worst_cell_candidates, worst_cell_stress
from repro.fleet.store import HIST_BINS, HIST_HI, HIST_LO
from repro.system.params import SystemParams
from repro.system.scenarios import (
    TRAFFIC_SCENARIOS,
    TrafficScenario,
    traffic_scenario,
)
from repro.system.schedule import replay_schedule, shared_schedule
from repro.workloads.suite import run_workload, workload_names

MISSION = (1.0, 3.0, 10.0)


def _spec(**overrides) -> FleetSpec:
    defaults = dict(
        name="test_fleet",
        rows=4,
        cols=4,
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("stress_aware"),
        ),
        scenario="telemetry_node",
        n_devices=256,
        devices_per_shard=64,
        seed=5,
        mission_years=MISSION,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


# -- traffic scenarios -----------------------------------------------------


def test_traffic_scenarios_registered_and_looked_up():
    assert set(TRAFFIC_SCENARIOS) >= {
        "uniform",
        "crypto_gateway",
        "edge_vision",
        "telemetry_node",
        "navigation",
    }
    for name, scenario in TRAFFIC_SCENARIOS.items():
        assert traffic_scenario(name) is scenario
    with pytest.raises(ConfigurationError, match="unknown traffic scenario"):
        traffic_scenario("nope")


def test_traffic_scenario_validation():
    with pytest.raises(ConfigurationError):
        TrafficScenario(name="bad", description="", mix={"nope": 1.0})
    with pytest.raises(ConfigurationError):
        TrafficScenario(name="bad", description="", mix={"sha": -1.0})
    with pytest.raises(ConfigurationError):
        TrafficScenario(name="bad", description="", mix={"sha": 0.0})
    with pytest.raises(ConfigurationError):
        TrafficScenario(name="bad", description="", concentration=0.0)


def test_base_weights_normalized_in_suite_order():
    suite = workload_names()
    for scenario in TRAFFIC_SCENARIOS.values():
        weights = scenario.base_weights()
        assert len(weights) == len(scenario.workloads)
        assert sum(weights) == pytest.approx(1.0)
        # workloads come out in canonical suite order
        order = [suite.index(name) for name in scenario.workloads]
        assert order == sorted(order)
    assert traffic_scenario("uniform").workloads == suite


# -- fleet spec ------------------------------------------------------------


def test_fleet_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec(rows=0)
    with pytest.raises(ConfigurationError):
        _spec(policies=())
    with pytest.raises(ConfigurationError):
        _spec(n_devices=0)
    with pytest.raises(ConfigurationError):
        _spec(mission_years=(3.0, 1.0))
    with pytest.raises(ConfigurationError):
        _spec(mission_years=(-1.0, 1.0))
    with pytest.raises(ConfigurationError):
        _spec(scenario="nope")
    with pytest.raises(ConfigurationError, match="duplicate"):
        _spec(
            policies=(PolicySpec.make("baseline"), PolicySpec.make("baseline"))
        )


def test_shards_partition_the_fleet():
    spec = _spec(n_devices=150, devices_per_shard=64)
    shards = spec.shards()
    assert [s.index for s in shards] == [0, 1, 2]
    assert shards[0].start == 0 and shards[-1].stop == 150
    for left, right in zip(shards, shards[1:]):
        assert left.stop == right.start
    assert sum(s.n_devices for s in shards) == 150


def test_device_weights_are_sharding_independent():
    """The load-bearing determinism law: any partition of the device
    range regenerates exactly the same per-device mixes — including
    splits that straddle a GENERATION_BLOCK boundary."""
    spec = _spec(n_devices=GENERATION_BLOCK + 500, devices_per_shard=512)
    full = spec.device_weights(0, spec.n_devices)
    assert full.shape == (spec.n_devices, len(spec.workloads))
    np.testing.assert_allclose(full.sum(axis=1), 1.0, rtol=1e-12)
    cuts = [0, 100, GENERATION_BLOCK - 3, GENERATION_BLOCK + 9, spec.n_devices]
    pieces = [
        spec.device_weights(lo, hi) for lo, hi in zip(cuts, cuts[1:])
    ]
    assert np.array_equal(full, np.concatenate(pieces))


def test_device_weights_rejects_out_of_range():
    spec = _spec()
    with pytest.raises(ConfigurationError):
        spec.device_weights(0, spec.n_devices + 1)
    with pytest.raises(ConfigurationError):
        spec.device_weights(-1, 5)


def test_spec_rejects_an_unknown_policy_kwarg_at_load():
    payload = _spec().to_jsonable()
    payload["policies"] = [{"name": "stress_aware", "kwargs": {"intervl": 8}}]
    with pytest.raises(
        ConfigurationError, match="policy 'stress_aware'.*'intervl'"
    ):
        FleetSpec.from_jsonable(payload)


def test_spec_round_trip_and_fingerprint():
    spec = _spec(ctx_lines=6)
    assert FleetSpec.from_jsonable(spec.to_jsonable()) == spec
    assert FleetSpec.from_jsonable(json.loads(json.dumps(spec.to_jsonable()))) == spec
    assert spec.fingerprint() == _spec(ctx_lines=6).fingerprint()
    assert spec.fingerprint() != _spec(ctx_lines=6, seed=99).fingerprint()
    assert spec.fingerprint() != _spec(ctx_lines=6, scenario="uniform").fingerprint()


# -- lifetime helpers ------------------------------------------------------


def test_device_lifetimes_zero_utilization_is_infinite():
    model = NBTIModel()
    lifetimes = device_lifetimes(model, np.array([0.0, 0.5, 1.0]))
    assert lifetimes.shape == (3,)
    assert np.isinf(lifetimes[0])
    assert lifetimes[2] == pytest.approx(model.reference_years)
    assert lifetimes[1] > lifetimes[2]


def test_survival_counts_sum_across_partitions():
    rng = np.random.default_rng(0)
    lifetimes = rng.uniform(0.5, 20.0, size=200)
    grid = np.asarray(MISSION)
    whole = survival_counts(lifetimes, grid)
    parts = survival_counts(lifetimes[:80], grid) + survival_counts(
        lifetimes[80:], grid
    )
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole, (lifetimes[None, :] > grid[:, None]).sum(axis=1))


# -- worst-cell candidates and the cells-major fold -------------------------


def _pareto_oracle(counts):
    """Brute force over column pairs: column ``b`` is dropped when
    another column covers it in every workload and is larger in one,
    or is an exact copy with a lower index."""
    n_cells = counts.shape[1]
    return [
        b
        for b in range(n_cells)
        if not any(
            a != b
            and np.all(counts[:, a] >= counts[:, b])
            and (np.any(counts[:, a] > counts[:, b]) or a < b)
            for a in range(n_cells)
        )
    ]


def _broadcast_worst_stress(weights, counts):
    """Reference: the fold over every cell that the cells-major fold
    replaced."""
    return (weights[:, :, None] * counts[None]).sum(axis=1).max(axis=1)


@st.composite
def _launch_counts(draw):
    """A ``(workloads, cells)`` launch-count matrix with an exact
    duplicate, a dominated and an all-zero column forced in."""
    n_workloads = draw(st.integers(1, 10))
    n_cells = draw(st.integers(2, 64))
    high = draw(st.sampled_from([2, 4, 1000, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, high, size=(n_workloads, n_cells)).astype(float)
    source, duplicate, dominated, zero = rng.integers(0, n_cells, size=4)
    counts[:, duplicate] = counts[:, source]
    counts[:, dominated] = np.floor(
        counts[:, source] * rng.uniform(size=n_workloads)
    )
    counts[:, zero] = 0.0
    return counts


def _mix_weights(seed, n_devices, n_workloads, zero_fraction):
    """Dirichlet device mixes with a share of weights set to exactly 0."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(n_workloads, 0.7), size=n_devices)
    weights[rng.uniform(size=weights.shape) < zero_fraction] = 0.0
    return weights


@settings(max_examples=80, deadline=None)
@given(counts=_launch_counts())
def test_worst_cell_candidates_match_pareto_oracle(counts):
    assert worst_cell_candidates(counts).tolist() == _pareto_oracle(counts)


def test_worst_cell_candidates_edge_cases():
    assert worst_cell_candidates(np.zeros((3, 5))).tolist() == [0]
    counts = np.array([[2.0, 1.0, 2.0, 0.0, 3.0], [1.0, 1.0, 1.0, 0.0, 0.0]])
    # Column 2 copies column 0; columns 1 and 3 are dominated by it.
    assert worst_cell_candidates(counts).tolist() == [0, 4]


@settings(max_examples=80, deadline=None)
@given(
    counts=_launch_counts(),
    n_devices=st.integers(1, 300),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_worst_cell_stress_bit_identical_to_broadcast_fold(
    counts, n_devices, zero_fraction, seed
):
    weights = _mix_weights(seed, n_devices, counts.shape[0], zero_fraction)
    pruned = counts[:, worst_cell_candidates(counts)]
    assert (
        worst_cell_stress(pruned, weights).tobytes()
        == _broadcast_worst_stress(weights, counts).tobytes()
    )


@pytest.mark.parametrize("n_workloads", [8, 10])
def test_one_candidate_profile_keeps_the_sequential_order(n_workloads):
    """One cell covers every other, so a single candidate is left. Over
    that pruned column a ``.sum(axis=1)`` would reduce the workload
    axis innermost, in numpy's pairwise order, and change bits; the
    fold must keep the full matrix's sequential order."""
    rng = np.random.default_rng(n_workloads)
    counts = rng.integers(0, 10**6, size=(n_workloads, 16)).astype(float)
    counts[:, 5] = counts.max(axis=1) + rng.integers(1, 1000, n_workloads)
    keep = worst_cell_candidates(counts)
    assert keep.tolist() == [5]
    weights = _mix_weights(0, 2000, n_workloads, 0.2)
    assert (
        worst_cell_stress(counts[:, keep], weights).tobytes()
        == _broadcast_worst_stress(weights, counts).tobytes()
    )


def test_stress_profiles_keep_the_pareto_columns():
    spec = _spec(
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("stress_aware"),
        )
    )
    profiles = FleetRunner().stress_profiles(spec)
    geometry = FabricGeometry(rows=spec.rows, cols=spec.cols)
    for policy in spec.policies:
        full = np.stack([
            replay_schedule(
                shared_schedule(
                    SystemParams(geometry=geometry), run_workload(workload)
                ),
                geometry,
                make_policy(policy.name, **policy.as_kwargs()),
            )
            .tracker.execution_counts.ravel()
            .astype(float)
            for workload in spec.workloads
        ])
        assert np.array_equal(
            profiles[policy.label].candidates, full[:, _pareto_oracle(full)]
        )


def test_expand_shard_peak_memory_below_two_device_cell_blocks():
    """On the benchmark fleet's shard shape one expansion must stay
    under two ``(devices, cells)`` float64 blocks; building the
    ``(devices, workloads, cells)`` product takes three times that."""
    spec = FleetSpec(
        name="memory",
        rows=4,
        cols=32,
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("stress_aware"),
        ),
        scenario="crypto_gateway",
        n_devices=4096,
        devices_per_shard=4096,
    )
    runner = FleetRunner()
    profiles = runner.stress_profiles(spec)
    (shard,) = spec.shards()
    fingerprint = spec.fingerprint()
    expand_shard(spec, shard, profiles, runner.model, fingerprint)  # warm-up
    tracemalloc.start()
    try:
        expand_shard(spec, shard, profiles, runner.model, fingerprint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * shard.n_devices * spec.rows * spec.cols * 8


# -- store: records and merging --------------------------------------------


def _record(shard, lifetimes, policy="p", fingerprint="f"):
    lifetimes = np.asarray(lifetimes, dtype=float)
    worst = np.clip(1.0 / np.maximum(lifetimes, 1e-9), 0.0, 1.0)
    return ShardRecord.from_lifetimes(
        fingerprint, policy, shard, lifetimes, worst, MISSION
    )


def test_lifetime_histogram_bins_and_tails():
    values = np.array([1e-3, 0.5, 5.0, 2e3, np.inf])
    hist = lifetime_histogram(values)
    assert hist.shape == (HIST_BINS + 2,)
    assert hist[0] == 1  # 1e-3 underflows
    assert hist[-1] == 1  # 2e3 overflows
    assert hist.sum() == 4  # inf carries no magnitude to bin
    assert lifetime_histogram(np.array([])).sum() == 0


def test_shard_record_round_trip():
    record = _record(3, [0.8, 2.5, np.inf, 40.0])
    clone = ShardRecord.from_jsonable(
        json.loads(json.dumps(record.to_jsonable()))
    )
    assert clone.to_jsonable() == record.to_jsonable()
    assert clone.n_infinite == 1


def test_shard_record_version_mismatch_rejected():
    payload = _record(0, [1.0]).to_jsonable()
    payload["version"] = 999
    with pytest.raises(ValueError, match="version"):
        ShardRecord.from_jsonable(payload)


def test_merge_is_order_and_duplicate_insensitive():
    rng = np.random.default_rng(1)
    records = [
        _record(shard, rng.uniform(0.5, 30.0, size=50))
        for shard in range(6)
    ]
    reference = merge_records(records, MISSION)["p"].to_jsonable()
    shuffled = list(reversed(records))
    assert merge_records(shuffled, MISSION)["p"].to_jsonable() == reference
    # A raced double-append of one shard must not double-count.
    assert (
        merge_records(records + [records[2]], MISSION)["p"].to_jsonable()
        == reference
    )


def test_merge_partitions_associatively():
    """One giant shard vs many small ones: integer statistics match
    exactly; float sums to tolerance (addition order differs)."""
    rng = np.random.default_rng(2)
    lifetimes = rng.lognormal(mean=1.5, sigma=0.6, size=1200)
    whole = merge_records([_record(0, lifetimes)], MISSION)["p"]
    parts = merge_records(
        [
            _record(i, chunk)
            for i, chunk in enumerate(np.array_split(lifetimes, 7))
        ],
        MISSION,
    )["p"]
    assert whole.n_devices == parts.n_devices
    assert np.array_equal(whole.hist, parts.hist)
    assert np.array_equal(whole.survival, parts.survival)
    assert whole.lifetime_min == parts.lifetime_min
    assert whole.lifetime_max == parts.lifetime_max
    assert whole.mttf_years() == pytest.approx(parts.mttf_years(), rel=1e-12)


def test_streaming_percentiles_match_dense_within_bin_error():
    """The documented accuracy contract: streaming percentiles from
    the 512-bin log histogram are within the bin ratio
    (~(HIST_HI/HIST_LO)**(1/HIST_BINS) - 1 ≈ 2.3%) of dense
    np.percentile."""
    bound = (HIST_HI / HIST_LO) ** (1.0 / HIST_BINS) - 1.0 + 1e-3
    rng = np.random.default_rng(3)
    lifetimes = rng.lognormal(mean=2.0, sigma=0.8, size=20_000)
    aggregate = merge_records(
        [
            _record(i, chunk)
            for i, chunk in enumerate(np.array_split(lifetimes, 16))
        ],
        MISSION,
    )["p"]
    for q in (1, 10, 50, 90, 99):
        dense = float(np.percentile(lifetimes, q))
        streaming = aggregate.lifetime_percentile(q)
        assert streaming == pytest.approx(dense, rel=bound), f"q={q}"


def test_percentile_with_infinite_tail():
    aggregate = merge_records(
        [_record(0, [2.0, 4.0, np.inf, np.inf])], MISSION
    )["p"]
    assert np.isfinite(aggregate.lifetime_percentile(50))
    assert aggregate.lifetime_percentile(99) == float("inf")
    assert aggregate.mttf_years() == pytest.approx(3.0)


def test_store_skips_torn_corrupt_and_foreign_lines(tmp_path):
    store = ResultStore(tmp_path)
    good = [_record(0, [1.0, 2.0]), _record(1, [3.0, 4.0])]
    for record in good:
        store.append(record)
    store.append(_record(2, [5.0], fingerprint="other"))
    with store.path.open("a") as handle:
        handle.write("not json at all\n")
        handle.write(json.dumps(_record(3, [6.0]).to_jsonable())[:25])
    records, skips = store.load("f")
    assert [r.shard for r in records] == [0, 1]
    assert skips.total == 3
    assert (skips.foreign, skips.torn) == (1, 2)  # garbage + torn parse as torn
    empty_records, empty_skips = ResultStore(tmp_path / "missing").load("f")
    assert empty_records == [] and empty_skips.total == 0


# -- runner ----------------------------------------------------------------


def _policy_payloads(result):
    return json.dumps(
        {n: a.to_jsonable() for n, a in result.aggregates.items()},
        sort_keys=True,
    )


def test_runner_store_resume_is_bit_identical(tmp_path):
    spec = _spec()
    first = FleetRunner(store_dir=tmp_path / "store").run(spec)
    assert first.shards_run == len(spec.shards())
    assert (tmp_path / "store" / "fleet.json").exists()
    assert (tmp_path / "store" / "fleet_summary.json").exists()
    second = FleetRunner(store_dir=tmp_path / "store").run(spec)
    assert second.shards_run == 0
    assert second.shards_resumed == len(spec.shards())
    assert _policy_payloads(first) == _policy_payloads(second)


def test_runner_kill_and_resume_is_bit_identical(tmp_path):
    spec = _spec()
    store_dir = tmp_path / "store"
    reference = FleetRunner(store_dir=store_dir).run(spec)
    store_file = store_dir / ResultStore.FILENAME
    lines = store_file.read_text().splitlines(keepends=True)
    # Kill scenario: drop one complete record, tear the last line.
    store_file.write_text("".join(lines[:-2]) + lines[-1][:30])
    resumed = FleetRunner(store_dir=store_dir).run(spec)
    assert resumed.shards_run >= 1
    assert resumed.store_lines_skipped == 1
    assert _policy_payloads(reference) == _policy_payloads(resumed)


def test_runner_parallel_matches_serial():
    spec = _spec(n_devices=128, devices_per_shard=32)
    serial = FleetRunner().run(spec)
    parallel = FleetRunner(max_workers=2).run(spec)
    assert _policy_payloads(serial) == _policy_payloads(parallel)


def test_fleet_result_lookup_errors():
    result = FleetRunner().run(_spec(n_devices=64, devices_per_shard=64))
    with pytest.raises(ConfigurationError, match="no aggregate"):
        result.aggregate("nope")
    assert result.mttf_ratio("baseline") == pytest.approx(1.0)


def test_fleet_experiment_smoke():
    from repro.experiments import fleet as fleet_experiment

    spec = _spec(n_devices=64, devices_per_shard=32, scenario="navigation")
    outcome = fleet_experiment.run(spec=spec)
    text = fleet_experiment.render(outcome)
    assert "Fleet-scale aging campaign" in text
    assert "baseline" in text and "stress_aware" in text
    assert "navigation" in text


# -- fleet conservation laws -----------------------------------------------


@pytest.mark.parametrize("scenario", sorted(TRAFFIC_SCENARIOS))
@pytest.mark.parametrize("geometry", [(2, 16), (4, 32)], ids=str)
def test_fleet_aggregates_obey_conservation_laws(scenario, geometry):
    rows, cols = geometry
    spec = FleetSpec(
        name="conservation",
        rows=rows,
        cols=cols,
        policies=(
            PolicySpec.make("baseline"),
            PolicySpec.make("rotation"),
            PolicySpec.make("stress_aware"),
        ),
        scenario=scenario,
        n_devices=600,
        devices_per_shard=256,
    )
    result = FleetRunner().run(spec)
    full_stress_years = NBTIModel().years_to_degradation(1.0)
    assert sorted(result.aggregates) == sorted(p.label for p in spec.policies)
    for aggregate in result.aggregates.values():
        assert aggregate.n_devices == 600
        assert int(aggregate.hist.sum()) + aggregate.n_infinite == 600
        assert np.all(np.diff(aggregate.survival) <= 0)
        assert np.all(aggregate.survival <= aggregate.n_devices)
        assert aggregate.worst_util_max <= 1.0
        assert aggregate.lifetime_min >= full_stress_years
