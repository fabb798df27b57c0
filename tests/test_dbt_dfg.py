"""Tests for explicit DFG construction and its use as a scheduler oracle."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx

import repro
from repro.cgra.fabric import FabricGeometry
from repro.dbt.dfg import (
    build_dfg,
    critical_path_length,
    dependence_edges,
    ilp_estimate,
)
from repro.dbt.scheduler import SchedulerState

from tests.support import place_record, rec, reset_rec_pcs, trace_of


def setup_function(_):
    reset_rec_pcs()


class TestGraphConstruction:
    def test_raw_edge(self):
        records = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=5, rs2=5),
        ]
        graph = build_dfg(records)
        assert graph.has_edge(0, 1)
        assert graph.edges[0, 1]["kind"] == "raw"

    def test_no_edge_between_independent_ops(self):
        records = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=3, rs2=4),
        ]
        graph = build_dfg(records)
        assert graph.number_of_edges() == 0

    def test_x0_never_creates_dependence(self):
        records = [
            rec("add", rd=None, rs1=1, rs2=2),  # writes x0
            rec("add", rd=6, rs1=0, rs2=0),     # reads x0
        ]
        graph = build_dfg(records)
        assert graph.number_of_edges() == 0

    def test_write_after_write_takes_latest(self):
        records = [
            rec("addi", rd=5, rs1=1, imm=1),
            rec("addi", rd=5, rs1=2, imm=2),
            rec("add", rd=6, rs1=5, rs2=5),
        ]
        graph = build_dfg(records)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)

    def test_memory_raw_war_waw(self):
        records = [
            rec("sw", rs1=1, rs2=2, mem_addr=0x100),   # 0
            rec("lw", rd=5, rs1=1, mem_addr=0x100),    # 1 RAW on 0
            rec("sw", rs1=1, rs2=3, mem_addr=0x100),   # 2 WAW on 0, WAR on 1
        ]
        graph = build_dfg(records)
        mem_edges = {
            (u, v) for u, v, k in graph.edges(data="kind") if k == "mem"
        }
        assert (0, 1) in mem_edges
        assert (0, 2) in mem_edges
        assert (1, 2) in mem_edges

    def test_loads_unordered(self):
        records = [
            rec("lw", rd=5, rs1=1, mem_addr=0x100),
            rec("lw", rd=6, rs1=1, mem_addr=0x100),
        ]
        graph = build_dfg(records)
        assert graph.number_of_edges() == 0

    def test_disjoint_addresses_unordered(self):
        records = [
            rec("sw", rs1=1, rs2=2, mem_addr=0x100),
            rec("sw", rs1=1, rs2=3, mem_addr=0x200),
        ]
        assert build_dfg(records).number_of_edges() == 0

    def test_graph_is_acyclic(self):
        trace = trace_of(
            """
            li t0, 10
            li t1, 0
            loop:
              add t1, t1, t0
              addi t0, t0, -1
              bnez t0, loop
            li a7, 93
            ecall
            """
        )
        graph = build_dfg(list(trace))
        assert nx.is_directed_acyclic_graph(graph)


class TestDependenceEdges:
    def test_edges_are_producer_major_with_raw_winning(self):
        records = [
            rec("sw", rs1=1, rs2=2, mem_addr=0x100),   # 0
            rec("lw", rd=5, rs1=1, mem_addr=0x100),    # 1 mem on 0
            rec("sw", rs1=1, rs2=5, mem_addr=0x100),   # 2 raw+mem on 1
            rec("add", rd=6, rs1=5, rs2=5),            # 3 raw on 1
        ]
        assert dependence_edges(records) == [
            (0, 1, "mem"),
            (0, 2, "mem"),
            (1, 2, "raw"),
            (1, 3, "raw"),
        ]

    def test_graph_edges_follow_the_edge_list(self):
        trace = trace_of(
            """
            la t0, buf
            lw t1, 0(t0)
            addi t1, t1, 1
            sw t1, 0(t0)
            lw t2, 0(t0)
            add a0, t1, t2
            ret
            .data
            buf: .word 5
            """
        )
        records = list(trace)
        assert list(build_dfg(records).edges(data="kind")) == (
            dependence_edges(records)
        )

    def test_importing_the_pipeline_skips_networkx(self):
        code = (
            "import sys, repro.experiments.__main__, repro.campaign, "
            "repro.fleet; sys.exit('networkx' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMetrics:
    def test_critical_path_of_chain(self):
        records = [rec("addi", rd=5, rs1=5, imm=1) for _ in range(4)]
        graph = build_dfg(records)
        assert critical_path_length(graph) == 4

    def test_critical_path_of_parallel_ops(self):
        records = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=3, rs2=4),
        ]
        assert critical_path_length(build_dfg(records)) == 1

    def test_empty_graph(self):
        assert critical_path_length(build_dfg([])) == 0
        assert ilp_estimate(build_dfg([])) == 0.0

    def test_ilp_estimate(self):
        records = [
            rec("add", rd=5, rs1=1, rs2=2),
            rec("add", rd=6, rs1=3, rs2=4),
            rec("add", rd=7, rs1=5, rs2=6),
        ]
        assert ilp_estimate(build_dfg(records)) == 1.5


class TestSchedulerAgainstOracle:
    """The incremental dependence tracking inside the scheduler must
    respect every edge the explicit DFG finds."""

    def _check(self, records, rows=4, cols=32):
        state = SchedulerState(FabricGeometry(rows=rows, cols=cols))
        placements = {}
        for offset, record in enumerate(records):
            placed = place_record(state, record, offset)
            assert placed is not None, f"op {offset} did not fit"
            placements[offset] = placed
        graph = build_dfg(records)
        for producer, consumer in graph.edges:
            assert (
                placements[consumer].col >= placements[producer].end_col
            ), f"edge {producer}->{consumer} violated"

    def test_register_chain(self):
        self._check([rec("addi", rd=5, rs1=5, imm=1) for _ in range(6)])

    def test_mixed_workload(self):
        self._check(
            [
                rec("lw", rd=5, rs1=1, mem_addr=0x100),
                rec("addi", rd=6, rs1=5, imm=1),
                rec("sw", rs1=1, rs2=6, mem_addr=0x100),
                rec("lw", rd=7, rs1=1, mem_addr=0x100),
                rec("add", rd=8, rs1=7, rs2=6),
                rec("mul", rd=9, rs1=8, rs2=8),
                rec("sw", rs1=1, rs2=9, mem_addr=0x104),
            ]
        )

    def test_real_trace_window(self):
        trace = trace_of(
            """
            la t0, buf
            li t1, 0
            li t2, 8
            loop:
              lw t3, 0(t0)
              add t1, t1, t3
              addi t0, t0, 4
              addi t2, t2, -1
              bnez t2, loop
            li a7, 93
            ecall
            .data
            buf: .word 1, 2, 3, 4, 5, 6, 7, 8
            """
        )
        mappable = [
            r for r in list(trace)[:20]
            if r.cls.value in ("alu", "mul", "load", "store", "branch")
        ]
        self._check(mappable, rows=8, cols=64)
