"""Independent oracles for the workload reference implementations.

The suite verifies each kernel against its own Python reference; these
tests verify the *references* against third parties (zlib's CRC,
networkx shortest paths, the published AES S-box, Python built-ins),
closing the loop: asm == our reference == independent implementation.
"""

import zlib

import networkx as nx

from repro.workloads import crc32 as crc32_mod
from repro.workloads import dijkstra as dijkstra_mod
from repro.workloads import qsort as qsort_mod
from repro.workloads import rijndael as rijndael_mod
from repro.workloads import sha as sha_mod
from repro.workloads import stringsearch as stringsearch_mod
from repro.workloads._data import lcg_stream


class TestCRC32Oracle:
    def test_reference_matches_zlib(self):
        message = crc32_mod._message()
        assert crc32_mod._reference(message) == zlib.crc32(message)

    def test_arbitrary_messages_match_zlib(self):
        for seed in (1, 2, 3):
            message = bytes(v & 0xFF for v in lcg_stream(seed, 64))
            assert crc32_mod._reference(message) == zlib.crc32(message)


class TestDijkstraOracle:
    def test_reference_matches_networkx(self):
        matrix = dijkstra_mod._graph()
        graph = nx.DiGraph()
        graph.add_nodes_from(range(dijkstra_mod.N_NODES))
        for i in range(dijkstra_mod.N_NODES):
            for j in range(dijkstra_mod.N_NODES):
                if matrix[i][j]:
                    graph.add_edge(i, j, weight=matrix[i][j])
        lengths = nx.single_source_dijkstra_path_length(
            graph, 0, weight="weight"
        )
        expected = sum(
            lengths.get(node, dijkstra_mod.INF)
            for node in range(dijkstra_mod.N_NODES)
        ) & 0xFFFFFFFF
        assert dijkstra_mod._reference(matrix) == expected


class TestAESOracle:
    def test_sbox_matches_published_values(self):
        sbox = rijndael_mod._aes_sbox()
        # FIPS-197 Table 4 spot checks.
        assert sbox[0x00] == 0x63
        assert sbox[0x01] == 0x7C
        assert sbox[0x10] == 0xCA
        assert sbox[0x53] == 0xED
        assert sbox[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        sbox = rijndael_mod._aes_sbox()
        assert sorted(sbox) == list(range(256))

    def test_shift_rows_is_a_permutation(self):
        perm = rijndael_mod._shift_rows_permutation()
        assert sorted(perm) == list(range(16))
        # Row 0 is untouched by ShiftRows.
        for col in range(4):
            assert perm[4 * col] == 4 * col


class TestQsortOracle:
    def test_reference_weighted_sum_of_sorted(self):
        values = [5, 0xFFFFFFFF, 1, 0x80000000]  # mixed signs
        # signed order: 0x80000000 (-2^31), 0xFFFFFFFF (-1), 1, 5
        expected = (
            1 * 0x80000000 + 2 * 0xFFFFFFFF + 3 * 1 + 4 * 5
        ) & 0xFFFFFFFF
        assert qsort_mod._reference(values) == expected


class TestSHAOracle:
    def test_known_h_initialisation(self):
        assert sha_mod.H_INIT[0] == 0x67452301
        assert sha_mod.H_INIT[4] == 0xC3D2E1F0

    def test_avalanche(self):
        words = lcg_stream(sha_mod.SHA_SEED, 16 * sha_mod.N_BLOCKS)
        flipped = list(words)
        flipped[3] ^= 1
        assert sha_mod._reference(words) != sha_mod._reference(flipped)

    def test_rotl_semantics(self):
        assert sha_mod._rotl(0x80000000, 1) == 1
        assert sha_mod._rotl(1, 31) == 0x80000000


class TestStringsearchOracle:
    def test_reference_matches_manual_scan(self):
        text, patterns = stringsearch_mod._inputs()
        checksum = 0
        for pattern in patterns:
            position = -1
            for start in range(len(text) - len(pattern) + 1):
                if text[start:start + len(pattern)] == pattern:
                    position = start
                    break
            checksum = (checksum * 31 + position + 1) & 0xFFFFFFFF
        assert stringsearch_mod._reference(text, patterns) == checksum

    def test_guaranteed_patterns_present(self):
        text, patterns = stringsearch_mod._inputs()
        assert text.find(patterns[0]) >= 0
        assert text.find(patterns[1]) >= 0
        assert text.find(patterns[5]) == -1  # alphabet-disjoint


class TestBitcountOracle:
    def test_reference_matches_bit_count(self):
        from repro.workloads import bitcount as bitcount_mod

        values = lcg_stream(bitcount_mod.SEED, bitcount_mod.N_WORDS)
        assert bitcount_mod._reference(values) == sum(
            v.bit_count() for v in values
        )
