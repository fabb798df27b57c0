"""Speculative front-end subsystem tests.

Covers the :class:`~repro.frontend.FrontEndSpec` configuration object,
the annotation invariants of :class:`SpeculativeFrontEnd` (committed
subsequence preserved, wrong-path runs bounded and branch-free, seeded
interrupt punctuation, stream-consistent ``next_pc``), the schedule
walk's speculative accounting, replay ≡ coupled bit-identity with a
front end attached for every shipped policy, schedule-key/cache
separation between front-end specs, and the campaign axis.
"""

import dataclasses

import pytest

from repro.cgra.fabric import FabricGeometry
from repro.campaign import CampaignSpec, PolicySpec
from repro.errors import ConfigurationError
from repro.frontend import (
    HANDLER_BASE_PC,
    FrontEndSpec,
    SpeculativeFrontEnd,
    speculative_trace,
)
from repro.gpp.branch import BimodalPredictor, GSharePredictor
from repro.isa.instructions import InstrClass
from repro.sim.trace import (
    KIND_COMMITTED,
    KIND_HANDLER,
    KIND_WRONG_PATH,
    SpeculativeTrace,
)
from repro.system import (
    SystemParams,
    TransRecSystem,
    clear_schedule_caches,
    compute_schedule,
    schedule_key,
    shared_schedule,
)
from repro.workloads.suite import run_workload
from tests.support import POLICIES, POLICY_IDS
from tests.test_schedule_equivalence import (
    assert_matches_per_launch,
    assert_results_identical,
)

GEOMETRY = FabricGeometry(rows=4, cols=16)

#: Nonzero-interrupt spec used by most annotation tests.
IRQ_SPEC = FrontEndSpec.make("bimodal", interrupt_rate=0.002, seed=3)


class TestFrontEndSpec:
    def test_defaults(self):
        spec = FrontEndSpec()
        assert spec.predictor == "bimodal"
        assert spec.wrong_path_budget == spec.fetch_width * spec.resolve_latency
        assert spec.flush_cycles == spec.resolve_latency + spec.flush_penalty

    def test_make_splits_predictor_kwargs_from_spec_fields(self):
        spec = FrontEndSpec.make(
            "gshare", entries=64, history_bits=4, fetch_width=3, seed=9
        )
        assert spec.fetch_width == 3
        assert spec.seed == 9
        assert dict(spec.predictor_kwargs) == {
            "entries": 64,
            "history_bits": 4,
        }
        predictor = spec.make_predictor()
        assert isinstance(predictor, GSharePredictor)
        assert predictor._mask == 63

    def test_make_predictor_returns_fresh_state(self):
        spec = FrontEndSpec.make("bimodal")
        a = spec.make_predictor()
        b = spec.make_predictor()
        assert isinstance(a, BimodalPredictor)
        assert a is not b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"predictor": "perceptron"},
            {"fetch_width": 0},
            {"resolve_latency": 0},
            {"flush_penalty": -1},
            {"interrupt_rate": 1.0},
            {"interrupt_rate": -0.1},
            {"handler_length": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FrontEndSpec(**kwargs)

    def test_label(self):
        assert FrontEndSpec.make("btfn").label == "btfn-w2r4"
        assert "irq" in IRQ_SPEC.label
        assert IRQ_SPEC.label.startswith("bimodal-w2r4-irq")

    def test_fingerprint_separates_specs(self):
        base = FrontEndSpec.make("bimodal")
        assert base.fingerprint() == FrontEndSpec.make("bimodal").fingerprint()
        distinct = [
            FrontEndSpec.make("btfn"),
            FrontEndSpec.make("bimodal", entries=64),
            FrontEndSpec.make("bimodal", fetch_width=4),
            FrontEndSpec.make("bimodal", interrupt_rate=0.01),
            FrontEndSpec.make("bimodal", interrupt_rate=0.01, seed=1),
        ]
        fingerprints = {spec.fingerprint() for spec in distinct}
        fingerprints.add(base.fingerprint())
        assert len(fingerprints) == len(distinct) + 1

    def test_jsonable_round_trip(self):
        spec = FrontEndSpec.make(
            "gshare", entries=64, interrupt_rate=0.001, seed=5
        )
        assert FrontEndSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_hashable_and_frozen(self):
        spec = FrontEndSpec.make("btfn")
        assert spec in {spec}
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.fetch_width = 8


@pytest.fixture(scope="module")
def base_trace():
    return run_workload("crc32")


@pytest.fixture(scope="module")
def annotated(base_trace):
    return SpeculativeFrontEnd(IRQ_SPEC).annotate(base_trace)


class TestAnnotation:
    def test_deterministic(self, base_trace, annotated):
        again = SpeculativeFrontEnd(IRQ_SPEC).annotate(base_trace)
        assert [r.pc for r in again] == [r.pc for r in annotated]
        assert list(again.kind_array) == list(annotated.kind_array)
        assert list(again.flush_gap_array) == list(annotated.flush_gap_array)
        assert again.mispredicts == annotated.mispredicts
        assert again.interrupts == annotated.interrupts

    def test_committed_subsequence_preserved(self, base_trace, annotated):
        committed = [
            record
            for record, kind in zip(annotated, annotated.kind_array)
            if kind == KIND_COMMITTED
        ]
        assert len(committed) == len(base_trace)
        assert annotated.n_committed == len(base_trace)
        for original, kept in zip(base_trace, committed):
            assert kept.pc == original.pc
            assert kept.op == original.op
            assert kept.cls is original.cls

    def test_wrong_path_runs_bounded_and_branch_free(self, annotated):
        budget = IRQ_SPEC.wrong_path_budget
        run = 0
        for record, kind in zip(annotated, annotated.kind_array):
            if kind == KIND_WRONG_PATH:
                run += 1
                assert record.cls is not InstrClass.BRANCH
                assert run <= budget
            else:
                run = 0
        assert annotated.n_wrong_path > 0

    def test_mispredicts_match_wrong_path_runs(self, annotated):
        kinds = annotated.kind_array
        runs = sum(
            1
            for position in range(len(kinds))
            if kinds[position] == KIND_WRONG_PATH
            and (position == 0 or kinds[position - 1] != KIND_WRONG_PATH)
        )
        assert runs == annotated.mispredicts

    def test_flush_gaps_charged_per_flush(self, annotated):
        gaps = annotated.flush_gap_array
        # Every gap is a whole number of flush_cycles (entry + return
        # gaps may stack on one record) and the total matches the flush
        # count exactly.
        assert int(gaps.sum()) == annotated.flushes * IRQ_SPEC.flush_cycles
        assert annotated.flush_cycles == int(gaps.sum())

    def test_interrupts_inject_handler_runs(self, annotated):
        kinds = annotated.kind_array
        handler_heads = [
            position
            for position in range(len(kinds))
            if kinds[position] == KIND_HANDLER
            and (position == 0 or kinds[position - 1] != KIND_HANDLER)
        ]
        assert len(handler_heads) == annotated.interrupts
        assert annotated.interrupts > 0
        for head in handler_heads:
            assert annotated[head].pc == HANDLER_BASE_PC
            assert annotated[head].cls is InstrClass.SYSTEM
            tail = head + IRQ_SPEC.handler_length - 1
            assert kinds[tail] == KIND_HANDLER
            assert annotated[tail].cls is InstrClass.JUMP

    def test_zero_rate_means_no_interrupts(self, base_trace):
        spec = FrontEndSpec.make("bimodal")
        clean = SpeculativeFrontEnd(spec).annotate(base_trace)
        assert clean.interrupts == 0
        assert KIND_HANDLER not in set(clean.kind_array.tolist())

    def test_interrupt_seed_changes_arrivals(self, base_trace):
        a = SpeculativeFrontEnd(IRQ_SPEC).annotate(base_trace)
        b = SpeculativeFrontEnd(
            dataclasses.replace(IRQ_SPEC, seed=IRQ_SPEC.seed + 1)
        ).annotate(base_trace)
        assert a.interrupts > 0 and b.interrupts > 0
        assert list(a.kind_array) != list(b.kind_array)

    def test_stream_consistent_next_pc(self, annotated):
        for j in range(len(annotated) - 1):
            assert annotated[j].next_pc == annotated[j + 1].pc

    def test_prefix_columns_sum_kinds(self, annotated):
        kinds = annotated.kind_array
        n = len(annotated)
        assert annotated.committed_prefix[0] == 0
        assert annotated.committed_prefix[n] == annotated.n_committed
        assert int((kinds == KIND_WRONG_PATH).sum()) == annotated.n_wrong_path

    def test_memoised_per_trace_and_spec(self, base_trace):
        first = speculative_trace(base_trace, IRQ_SPEC)
        assert speculative_trace(base_trace, IRQ_SPEC) is first
        other = speculative_trace(base_trace, FrontEndSpec.make("btfn"))
        assert other is not first

    def test_annotating_speculative_trace_rejected(self, base_trace):
        spec_trace = speculative_trace(base_trace, IRQ_SPEC)
        assert isinstance(spec_trace, SpeculativeTrace)
        with pytest.raises(ValueError, match="already speculative"):
            speculative_trace(spec_trace, IRQ_SPEC)


class TestWalkSemantics:
    def _params(self, frontend, **overrides):
        return SystemParams(
            geometry=GEOMETRY, frontend=frontend, **overrides
        )

    def test_clean_walk_has_zero_frontend_counters(self, base_trace):
        schedule = compute_schedule(self._params(None), base_trace)
        assert schedule.cgra.wrong_path_launches == 0
        assert schedule.cgra.wrong_path_instructions == 0
        assert schedule.cgra.frontend_mispredicts == 0
        assert schedule.cgra.frontend_flush_cycles == 0

    def test_speculative_walk_accounting(self, base_trace):
        schedule = compute_schedule(self._params(IRQ_SPEC), base_trace)
        annotated = speculative_trace(base_trace, IRQ_SPEC)
        # Committed instruction count is the *base* trace's, never the
        # expanded stream's.
        assert schedule.instructions == len(base_trace)
        assert schedule.cgra.wrong_path_launches > 0
        assert schedule.cgra.wrong_path_instructions > 0
        assert schedule.cgra.frontend_mispredicts == annotated.mispredicts
        assert schedule.cgra.frontend_flushes == annotated.flushes
        assert schedule.cgra.frontend_interrupts == annotated.interrupts
        assert schedule.cgra.frontend_flush_cycles == annotated.flush_cycles
        clean = compute_schedule(self._params(None), base_trace)
        assert schedule.transrec_cycles > clean.transrec_cycles

    def test_result_template_carries_frontend_counters(self, base_trace):
        schedule = compute_schedule(self._params(IRQ_SPEC), base_trace)
        cgra, _ = schedule.result_template()
        assert cgra.wrong_path_launches == schedule.cgra.wrong_path_launches
        assert (
            cgra.frontend_mispredicts == schedule.cgra.frontend_mispredicts
        )


class TestReplayEquivalenceWithFrontEnd:
    @pytest.mark.parametrize(
        "policy_name,make_kwargs",
        POLICIES,
        ids=POLICY_IDS,
    )
    def test_bit_identical_with_frontend(self, policy_name, make_kwargs):
        trace = run_workload("crc32")
        def params():
            return SystemParams(
                geometry=GEOMETRY,
                policy=policy_name,
                policy_kwargs=make_kwargs(),
                frontend=IRQ_SPEC,
            )
        coupled = TransRecSystem(params())._run_coupled(trace)
        replayed = TransRecSystem(params()).run_trace(trace)
        assert_results_identical(coupled, replayed)
        assert_matches_per_launch(params(), trace, replayed)
        assert coupled.cgra.wrong_path_launches > 0


class TestScheduleKeysAndCaches:
    def test_schedule_key_separates_frontends(self):
        base = SystemParams(geometry=GEOMETRY)
        a = dataclasses.replace(base, frontend=FrontEndSpec.make("btfn"))
        b = dataclasses.replace(base, frontend=FrontEndSpec.make("bimodal"))
        assert schedule_key(base) != schedule_key(a)
        assert schedule_key(a) != schedule_key(b)
        # Equal specs share one walk.
        assert schedule_key(a) == schedule_key(
            dataclasses.replace(base, frontend=FrontEndSpec.make("btfn"))
        )

    def test_memoised_separately_per_frontend(self):
        clear_schedule_caches()
        trace = run_workload("bitcount")
        base = SystemParams(geometry=GEOMETRY)
        spec_params = dataclasses.replace(base, frontend=IRQ_SPEC)
        clean = shared_schedule(base, trace)
        speculative = shared_schedule(spec_params, trace)
        assert clean is not speculative
        assert shared_schedule(spec_params, trace) is speculative


class TestCampaignAxis:
    def test_frontend_axis_multiplies_points(self):
        arms = (None, FrontEndSpec.make("btfn"), FrontEndSpec.make("bimodal"))
        spec = CampaignSpec(
            geometries=((4, 8),),
            policies=(
                PolicySpec.make("baseline"),
                PolicySpec.make("rotation"),
            ),
            frontends=arms,
            workloads=("bitcount",),
        )
        points = spec.design_points()
        assert len(points) == 2 * len(arms)
        keys = {point.key for point in points}
        assert len(keys) == len(points)

    def test_clean_point_key_unchanged_by_axis(self):
        plain = CampaignSpec(
            geometries=((4, 8),),
            policies=(PolicySpec.make("baseline"),),
            workloads=("bitcount",),
        )
        with_axis = CampaignSpec(
            geometries=((4, 8),),
            policies=(PolicySpec.make("baseline"),),
            frontends=(None, FrontEndSpec.make("btfn")),
            workloads=("bitcount",),
        )
        plain_keys = {point.key for point in plain.design_points()}
        axis_keys = {point.key for point in with_axis.design_points()}
        # The None arm reuses the exact pre-axis key; the speculative
        # arm is tagged with the spec's label + fingerprint.
        assert plain_keys < axis_keys
        tagged = axis_keys - plain_keys
        assert all("fe-btfn" in key for key in tagged)

    def test_spec_round_trips_frontends(self):
        spec = CampaignSpec(
            geometries=((4, 8),),
            policies=(PolicySpec.make("baseline"),),
            frontends=(None, FrontEndSpec.make("gshare", entries=64)),
            workloads=("bitcount",),
        )
        restored = CampaignSpec.from_jsonable(spec.to_jsonable())
        assert restored.frontends == spec.frontends
