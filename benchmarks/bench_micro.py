"""Micro-benchmarks of the hot library paths.

These use pytest-benchmark's statistical timing (many rounds) since
they are cheap: the greedy scheduler, the allocation policies and the
functional simulator — the three components everything else multiplies.
Allocation is timed through ``allocate_batch``, the path every
simulation takes (the coupled walk folds its launches in batches too).
"""

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.window import build_unit
from repro.isa.assembler import assemble
from repro.sim.cpu import CPU
from repro.workloads.suite import get_workload, run_workload


def test_functional_simulator_throughput(benchmark):
    """Instructions/second of the RV32IM interpreter (bitcount)."""
    program = get_workload("bitcount").program()

    def run():
        return CPU(program).run()

    result = benchmark(run)
    assert result.exit_code == get_workload("bitcount").expected_checksum
    benchmark.extra_info["instructions"] = result.steps


def test_scheduler_unit_build(benchmark):
    """Greedy first-fit scheduling of one translation unit."""
    trace = run_workload("sha")
    geometry = FabricGeometry(rows=4, cols=32)

    unit = benchmark(build_unit, trace, 0, geometry)
    assert unit is not None
    benchmark.extra_info["unit_instructions"] = unit.n_instructions


def test_rotation_allocation_batch_throughput(benchmark):
    """Pivot selection + wrap translation + stress recording of
    ``batch_size`` launches through the vectorized batch API (the
    reported time covers the whole batch)."""
    geometry = FabricGeometry(rows=4, cols=32)
    trace = run_workload("sha")
    unit = build_unit(trace, 0, geometry)
    allocator = ConfigurationAllocator(geometry, make_policy("rotation"))
    batch_size = 4096
    sequence = [unit] * batch_size

    def launch_batch():
        return allocator.allocate_batch(sequence)

    batch = benchmark(launch_batch)
    assert batch.n_launches == batch_size
    benchmark.extra_info["batch_size"] = batch_size


def test_stress_aware_allocation_batch_throughput(benchmark):
    """The adaptive policy's pivot search (future-work variant): with
    ``interval=1`` it reads the stress map, and so folds, once per
    launch (the reported time covers ``batch_size`` launches)."""
    geometry = FabricGeometry(rows=4, cols=32)
    trace = run_workload("sha")
    unit = build_unit(trace, 0, geometry)
    allocator = ConfigurationAllocator(
        geometry, make_policy("stress_aware", interval=1)
    )
    batch_size = 256
    sequence = [unit] * batch_size

    batch = benchmark(lambda: allocator.allocate_batch(sequence))
    assert batch.n_launches == batch_size
    benchmark.extra_info["batch_size"] = batch_size


def test_assembler_throughput(benchmark):
    """Two-pass assembly of the largest workload source."""
    source = get_workload("rijndael").source

    program = benchmark(assemble, source)
    assert len(program) > 0
