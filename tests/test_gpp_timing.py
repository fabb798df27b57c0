"""Tests for the GPP timing model."""

import pytest

from repro.errors import ConfigurationError
from repro.gpp.cache import CacheParams
from repro.gpp.params import GPPParams
from repro.gpp.timing import GPPTimingModel, make_predictor
from repro.isa.instructions import InstrClass

from tests.support import trace_of


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
