"""Edge-case tests for the policy registry and base classes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.fabric import FabricGeometry
from repro.core.patterns import movement_pattern
from repro.core.policy import (
    AllocationPolicy,
    available_policies,
    make_policy,
    min_stress_index,
    register_policy,
)
from repro.core.random_policy import draw_pivots
from repro.errors import ConfigurationError


class TestRegistry:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            @register_policy
            class Duplicate(AllocationPolicy):  # noqa: N801
                name = "baseline"

    def test_policy_kwargs_forwarded(self):
        policy = make_policy("rotation", pattern="diagonal", stride=3)
        assert policy.pattern_name == "diagonal"
        assert policy.stride == 3

    def test_available_policies_sorted(self):
        names = available_policies()
        assert list(names) == sorted(names)
        assert "static_remap" in names

    def test_base_class_is_abstract(self):
        policy = AllocationPolicy()
        policy.bind(FabricGeometry(rows=2, cols=8))
        with pytest.raises(NotImplementedError):
            policy.next_pivot(None, None)


class TestDescriptions:
    @pytest.mark.parametrize(
        "name,kwargs,needle",
        [
            ("baseline", {}, "baseline"),
            ("rotation", {"pattern": "raster"}, "raster"),
            ("random", {"seed": 9}, "seed=9"),
            ("stress_aware", {"interval": 5}, "interval=5"),
        ],
    )
    def test_describe_mentions_configuration(self, name, kwargs, needle):
        assert needle in make_policy(name, **kwargs).describe()


class TestRotationStride:
    def test_non_coprime_stride_still_covers_over_time(self):
        """Stride 2 on an even-size pattern halves per-sweep coverage;
        the policy must still cycle (never crash) and revisit cells."""
        from repro.core.allocator import ConfigurationAllocator
        from tests.test_core_allocator import config

        geometry = FabricGeometry(rows=2, cols=4)
        allocator = ConfigurationAllocator(
            geometry, make_policy("rotation", stride=2)
        )
        c = config([(0, 0)], rows=2, cols=4)
        pivots = [allocator.allocate(c).pivot for _ in range(16)]
        assert len(set(pivots)) == 4  # half of the 8 cells, repeated


N_CELLS = 12

#: Integer execution counts, and float stress in multiples of 1/4 (so
#: the oracle's Python sums are exact). Small ranges make ties on the
#: max and on the sum common.
STRESS_VALUES = {
    "int": (st.integers(0, 4), np.int64),
    "float": (st.integers(0, 16).map(lambda k: k / 4), np.float64),
}


@st.composite
def stress_cases(draw, values, all_tied=False):
    if all_tied:
        counts = [draw(values)] * N_CELLS
    else:
        counts = draw(st.lists(values, min_size=N_CELLS, max_size=N_CELLS))
    width = draw(st.integers(1, 4))
    footprints = draw(
        st.lists(
            st.lists(
                st.integers(0, N_CELLS - 1), min_size=width, max_size=width
            ),
            min_size=1,
            max_size=8,
        )
    )
    return counts, footprints


def brute_force_min_stress(counts, footprints):
    def key(index):
        stress = [counts[cell] for cell in footprints[index]]
        return (max(stress), sum(stress), index)

    return min(range(len(footprints)), key=key)


class TestMinStressIndex:
    @pytest.mark.parametrize("kind", sorted(STRESS_VALUES))
    @pytest.mark.parametrize("all_tied", [False, True])
    @given(data=st.data())
    def test_matches_brute_force(self, kind, all_tied, data):
        values, dtype = STRESS_VALUES[kind]
        counts, footprints = data.draw(stress_cases(values, all_tied))
        got = min_stress_index(
            np.asarray(counts, dtype=dtype),
            np.asarray(footprints, dtype=np.int64),
        )
        assert got == brute_force_min_stress(counts, footprints)
        if all_tied:
            assert got == 0


SEARCH_ROWS, SEARCH_COLS = 2, 4


def _raster(rows, cols):
    return [(row, col) for row in range(rows) for col in range(cols)]


class TestPivotSearchTieBreak:
    """The stress-searching policies pick their pivot with the shared
    (max, sum, candidate order) rule: candidates in movement-pattern
    order for stress_aware, in raster order for static_remap."""

    CASES = {
        "stress_aware": (
            lambda: {"interval": 1},
            lambda: movement_pattern("snake", SEARCH_ROWS, SEARCH_COLS),
        ),
        "static_remap": (
            dict,
            lambda: _raster(SEARCH_ROWS, SEARCH_COLS),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @settings(max_examples=40, deadline=None)
    @given(
        history=st.lists(
            st.tuples(
                st.integers(0, SEARCH_ROWS - 1),
                st.integers(0, SEARCH_COLS - 1),
            ),
            max_size=12,
        )
    )
    def test_search_matches_brute_force(self, case, history):
        from repro.core.allocator import ConfigurationAllocator
        from tests.test_core_allocator import config

        make_kwargs, candidates = self.CASES[case]
        candidates = candidates()
        geometry = FabricGeometry(rows=SEARCH_ROWS, cols=SEARCH_COLS)
        allocator = ConfigurationAllocator(
            geometry, make_policy(case, **make_kwargs())
        )
        warm = config([(0, 0)], rows=SEARCH_ROWS, cols=SEARCH_COLS)
        probe = config(
            [(0, 0), (0, 1), (1, 1)],
            rows=SEARCH_ROWS,
            cols=SEARCH_COLS,
            start_pc=0x2000,
        )
        if history:
            allocator.allocate_batch([warm] * len(history), pivots=history)
        counts = np.array(allocator.tracker.execution_counts)
        footprints = [
            [
                ((row + pivot_row) % SEARCH_ROWS) * SEARCH_COLS
                + (col + pivot_col) % SEARCH_COLS
                for row, col in probe.cells
            ]
            for pivot_row, pivot_col in candidates
        ]
        best = brute_force_min_stress(
            [int(value) for value in counts.reshape(-1)], footprints
        )
        assert allocator.allocate(probe).pivot == tuple(candidates[best])


class TestRandomDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**32 + 5])
    def test_draws_are_the_randrange_stream(self, seed):
        """``draw_pivots`` inlines ``randrange``'s rejection rule, so for
        every bound 1..300 (rows ``n`` with columns ``301 - n``, one RNG
        carried through all of them) it must make exactly the draws of
        ``randrange`` and leave the same RNG state: a Python whose
        ``randrange`` draws differently fails here instead of shifting
        every random-policy result."""
        drawn_rng, reference = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            drawn = draw_pivots(drawn_rng, n, 301 - n, 7)
            expected = [
                (reference.randrange(n), reference.randrange(301 - n))
                for _ in range(7)
            ]
            assert drawn.dtype == np.int64
            assert [tuple(pivot) for pivot in drawn.tolist()] == expected
            assert drawn_rng.getstate() == reference.getstate()
