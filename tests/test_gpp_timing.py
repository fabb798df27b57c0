"""Tests for the GPP timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.frontend import FrontEndSpec
from repro.frontend.speculative import speculative_trace
from repro.gpp.cache import CacheParams
from repro.gpp.params import GPPParams
from repro.gpp.timing import GPPTimingModel, make_predictor
from repro.isa.instructions import InstrClass
from repro.workloads.suite import run_workload

from tests.support import PerRecordGPP, trace_of


def ideal_params(**overrides):
    """Params with no cache misses or mispredicts charged."""
    kwargs = dict(
        icache=CacheParams(miss_penalty=0),
        dcache=CacheParams(miss_penalty=0),
        branch_mispredict_penalty=0,
    )
    kwargs.update(overrides)
    return GPPParams(**kwargs)


class TestBaseCycles:
    def test_alu_only_is_one_cpi(self):
        trace = trace_of("li a0, 1\nli a1, 2\nadd a0, a0, a1\nli a7, 93\necall")
        result = GPPTimingModel(ideal_params()).run(trace)
        alu = sum(1 for r in trace if r.cls is InstrClass.ALU)
        system = sum(1 for r in trace if r.cls is InstrClass.SYSTEM)
        params = ideal_params()
        expected = (
            alu * params.cycles_for(InstrClass.ALU)
            + system * params.cycles_for(InstrClass.SYSTEM)
        )
        assert result.base_cycles == expected
        assert result.cycles == expected

    def test_load_heavier_than_alu(self):
        load_trace = trace_of(
            """
            la t0, buf
            lw a0, 0(t0)
            lw a0, 0(t0)
            li a7, 93
            ecall
            .data
            buf: .word 1
            """
        )
        result = GPPTimingModel(ideal_params()).run(load_trace)
        params = ideal_params()
        loads = sum(1 for r in load_trace if r.cls is InstrClass.LOAD)
        assert loads == 2
        assert result.base_cycles > len(load_trace)
        assert params.cycles_for(InstrClass.LOAD) > params.cycles_for(
            InstrClass.ALU
        )

    def test_cpi_property(self):
        trace = trace_of("li a0, 0\nli a7, 93\necall")
        result = GPPTimingModel(ideal_params()).run(trace)
        assert result.cpi == pytest.approx(result.cycles / len(trace))


class TestPenalties:
    def test_icache_miss_charged_once_per_line(self):
        # A straight-line program fits a few lines; only compulsory misses.
        source = "\n".join(["nop"] * 64) + "\nli a7, 93\necall"
        trace = trace_of(source)
        params = GPPParams(
            icache=CacheParams(line_bytes=64, miss_penalty=100),
            dcache=CacheParams(miss_penalty=0),
            branch_mispredict_penalty=0,
        )
        result = GPPTimingModel(params).run(trace)
        # 66 instructions x 4 bytes = 264 bytes -> 5 lines touched
        lines = {r.pc // 64 for r in trace}
        assert result.icache_miss_cycles == 100 * len(lines)

    def test_dcache_misses_counted(self):
        trace = trace_of(
            """
            la t0, buf
            lw a0, 0(t0)
            lw a1, 0(t0)
            li a7, 93
            ecall
            .data
            buf: .word 1
            """
        )
        params = GPPParams(
            icache=CacheParams(miss_penalty=0),
            dcache=CacheParams(miss_penalty=50),
            branch_mispredict_penalty=0,
        )
        result = GPPTimingModel(params).run(trace)
        assert result.dcache_miss_cycles == 50  # second lw hits

    def test_mispredict_penalty(self):
        # A loop's backward branch is BTFN-predicted taken; the final
        # fall-through mispredicts exactly once.
        trace = trace_of(
            """
            li t0, 5
            loop:
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        params = ideal_params(branch_mispredict_penalty=9)
        result = GPPTimingModel(params).run(trace)
        assert result.mispredict_cycles == 9

    def test_bimodal_learns_loop(self):
        trace = trace_of(
            """
            li t0, 50
            loop:
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        params = ideal_params(
            branch_mispredict_penalty=10, predictor="bimodal"
        )
        result = GPPTimingModel(params).run(trace)
        # Warm-up may mispredict once or twice, plus the final exit.
        assert result.mispredict_cycles <= 30


class TestParamsValidation:
    def test_negative_mispredict_penalty_rejected(self):
        with pytest.raises(ConfigurationError, match="mispredict"):
            GPPParams(branch_mispredict_penalty=-3)

    def test_negative_class_cycles_rejected(self):
        cycles = dict(GPPParams().class_cycles)
        cycles[InstrClass.LOAD] = -1
        with pytest.raises(ConfigurationError, match="LOAD"):
            GPPParams(class_cycles=cycles)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError, match="MUL"):
            GPPParams(class_cycles={InstrClass.ALU: 1})

    def test_negative_cache_penalty_rejected(self):
        with pytest.raises(ConfigurationError, match="miss_penalty"):
            GPPParams(dcache=CacheParams(miss_penalty=-20))

    def test_zero_costs_stay_legal(self):
        params = ideal_params(
            class_cycles={cls: 0 for cls in InstrClass}
        )
        trace = trace_of("li a0, 1\nli a7, 93\necall")
        assert GPPTimingModel(params).run(trace).cycles == 0


class TestPredictorsFactory:
    def test_known_predictors(self):
        for name in ("btfn", "taken", "bimodal"):
            assert make_predictor(name) is not None

    def test_unknown_predictor(self):
        with pytest.raises(ConfigurationError):
            make_predictor("neural")


class TestDeterminism:
    def test_run_is_repeatable(self):
        trace = trace_of(
            """
            li t0, 20
            loop:
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        model = GPPTimingModel()
        first = model.run(trace)
        second = model.run(trace)  # run() resets state
        assert first.cycles == second.cycles


#: The registered predictors the oracle runs.
PREDICTORS = ("btfn", "taken", "bimodal", "gshare")
#: The default icache and a small one that conflicts and evicts.
ICACHES = (
    CacheParams(),
    CacheParams(size_bytes=256, line_bytes=16, ways=2, miss_penalty=7),
)
#: The front end of the speculative streams: wrong-path runs and
#: handler mini-traces interleave the committed records.
FRONT_END = FrontEndSpec.make("gshare", interrupt_rate=0.001, seed=3)


def _stream(name, speculative):
    trace = run_workload(name)
    return speculative_trace(trace, FRONT_END) if speculative else trace


def _position_pieces(kind, n_records, rng):
    """An ascending position set of a stream of ``n_records`` records
    and its cut into consecutive pieces, timed one call each."""
    if kind == "whole":
        positions = np.arange(n_records)
        pieces = [positions]
    elif kind == "random":
        positions = np.flatnonzero(rng.random(n_records) < rng.random())
        cuts = np.sort(rng.integers(0, positions.size + 1, size=4))
        pieces = np.split(positions, cuts)
    else:
        # GPP segments, as the walk records them: alternating runs of
        # GPP and fabric records, each piece one segment.
        bounds = np.unique(rng.integers(0, n_records + 1, size=40))
        segments = [
            (int(start), int(stop))
            for start, stop in zip(bounds[::2], bounds[1::2])
        ]
        pieces = [np.arange(start, stop) for start, stop in segments]
        positions = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        if rng.random() < 0.5:
            pieces = [positions]  # the walk's one pass over the union
    return positions, pieces


class TestCyclesAtMatchesPerRecordLoop:
    @given(
        name=st.sampled_from(("dijkstra", "stringsearch", "susan_edges")),
        speculative=st.booleans(),
        predictor=st.sampled_from(PREDICTORS),
        icache=st.sampled_from(ICACHES),
        kind=st.sampled_from(("whole", "random", "segments")),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pass_equals_oracle(
        self, name, speculative, predictor, icache, kind, seed
    ):
        """Cycles, base cycles, icache hits and misses, mispredicts and
        first-seen class counts of the one pass equal the per-record
        loop's, whatever the predictor, icache geometry, stream and
        position set, and however the set is cut into calls."""
        stream = _stream(name, speculative)
        params = GPPParams(predictor=predictor, icache=icache)
        positions, pieces = _position_pieces(
            kind, len(stream), np.random.default_rng(seed)
        )
        model = GPPTimingModel(params)
        oracle = PerRecordGPP(params)
        cycles = sum(model.cycles_at(stream, piece) for piece in pieces)
        assert cycles == oracle.time(stream, positions.tolist())
        assert model.base_cycles == oracle.base_cycles
        assert (model.icache.hits, model.icache.misses) == (
            oracle.icache.hits,
            oracle.icache.misses,
        )
        assert model.mispredicts == oracle.mispredicts
        assert list(model.class_counts.items()) == list(
            oracle.class_counts.items()
        )

    @pytest.mark.parametrize("predictor", PREDICTORS)
    @pytest.mark.parametrize("speculative", (False, True), ids=("clean", "spec"))
    def test_whole_stream_reference_equals_oracle(self, predictor, speculative):
        """``run`` times every position: its parts are the oracle's over
        the whole stream (with the stream's dcache added once)."""
        stream = _stream("stringsearch", speculative)
        params = GPPParams(predictor=predictor, icache=ICACHES[1])
        result = GPPTimingModel(params).run(stream)
        oracle = PerRecordGPP(params)
        cycles = oracle.time(stream, range(len(stream)))
        assert result.cycles == cycles + result.dcache_miss_cycles
        assert result.base_cycles == oracle.base_cycles
        assert result.icache_misses == oracle.icache.misses
        assert result.mispredict_cycles == (
            oracle.mispredicts * params.branch_mispredict_penalty
        )


class TestCyclesAtRejectsBadPositions:
    @pytest.mark.parametrize(
        "positions,match",
        (
            ([3, 3], "strictly ascending"),
            ([5, 2], "strictly ascending"),
            ([-1, 0], "outside"),
            ([0, 10**6], "outside"),
            ([[0, 1]], "1-D int"),
            ([0.0, 1.0], "1-D int"),
            ([True, False], "1-D int"),
        ),
    )
    def test_raises_instead_of_timing(self, positions, match):
        trace = trace_of("li a0, 1\nli a1, 2\nli a7, 93\necall")
        model = GPPTimingModel()
        with pytest.raises(ValueError, match=match):
            model.cycles_at(trace, np.array(positions))
        assert (model.base_cycles, model.icache.accesses) == (0, 0)

    def test_empty_set_costs_nothing(self):
        trace = trace_of("li a0, 1\nli a7, 93\necall")
        model = GPPTimingModel()
        assert model.cycles_at(trace, np.empty(0, dtype=np.int64)) == 0
        assert model.cycles_at(trace, []) == 0
        assert model.class_counts == {}
