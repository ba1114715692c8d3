"""Tests for the best-fit bin packing of the first design criterion."""

import pytest
from hypothesis import given, strategies as st

from repro.core.binpack import best_fit


class TestBestFit:
    def test_everything_fits_one_bin(self):
        result = best_fit([3, 4], [10])
        assert result.unplaced == []
        assert result.placed_total == 7
        assert result.residuals == [3]

    def test_nothing_fits(self):
        result = best_fit([5, 6], [4, 4])
        assert sorted(result.unplaced) == [5, 6]
        assert result.unplaced_fraction == 1.0

    def test_picks_tightest_bin(self):
        result = best_fit([4], [10, 5, 6])
        # The size-5 bin is the snuggest.
        assert result.residuals == [10, 1, 6]

    def test_decreasing_order_helps(self):
        # Objects 6, 4 into bins 6, 4: decreasing packs both.
        result = best_fit([4, 6], [6, 4])
        assert result.unplaced == []

    def test_partial_packing_fraction(self):
        result = best_fit([4, 4, 4], [4, 4])
        assert result.unplaced == [4]
        assert result.unplaced_fraction == pytest.approx(1 / 3)

    def test_empty_objects(self):
        result = best_fit([], [5])
        assert result.placed == []
        assert result.unplaced_fraction == 0.0

    def test_empty_bins(self):
        result = best_fit([3], [])
        assert result.unplaced == [3]

    def test_zero_capacity_bin_unusable(self):
        result = best_fit([1], [0])
        assert result.unplaced == [1]

    def test_invalid_object_rejected(self):
        with pytest.raises(ValueError):
            best_fit([0], [5])

    def test_invalid_bin_rejected(self):
        with pytest.raises(ValueError):
            best_fit([1], [-1])

    def test_bin_indices_reported(self):
        result = best_fit([4, 3], [3, 4])
        assert sorted(result.placed) == [(3, 0), (4, 1)]

    def test_exact_fill_removes_bin_from_pool(self):
        result = best_fit([4, 1], [4])
        assert result.placed == [(4, 0)]
        assert result.unplaced == [1]


@st.composite
def packing_instance(draw):
    objects = draw(st.lists(st.integers(1, 30), max_size=30))
    bins = draw(st.lists(st.integers(0, 50), max_size=15))
    return objects, bins


class TestPackingProperties:
    @given(packing_instance())
    def test_conservation(self, instance):
        objects, bins = instance
        result = best_fit(objects, bins)
        assert result.placed_total + result.unplaced_total == sum(objects)

    @given(packing_instance())
    def test_no_bin_overflows(self, instance):
        objects, bins = instance
        result = best_fit(objects, bins)
        used = [0] * len(bins)
        for size, idx in result.placed:
            used[idx] += size
        for idx, cap in enumerate(bins):
            assert used[idx] <= cap
            assert result.residuals[idx] == cap - used[idx]

    @given(packing_instance())
    def test_unplaced_objects_truly_do_not_fit(self, instance):
        """Best-fit never leaves an object unplaced while a bin with
        room exists at the moment of placement -- check the weaker
        final-state invariant: every unplaced object is larger than
        every final residual."""
        objects, bins = instance
        result = best_fit(objects, bins)
        if result.unplaced:
            smallest_unplaced = min(result.unplaced)
            assert all(res < smallest_unplaced for res in result.residuals)

    @given(packing_instance())
    def test_best_fit_matches_reference_greedy(self, instance):
        """The bisect-based best-fit equals a brute-force best-fit."""
        objects, bins = instance
        fast = best_fit(objects, bins)

        residuals = list(bins)
        unplaced = []
        for size in sorted(objects, reverse=True):
            best_idx, best_res = -1, None
            for i, res in enumerate(residuals):
                if res >= size and (best_res is None or res < best_res):
                    best_idx, best_res = i, res
            if best_idx < 0:
                unplaced.append(size)
            else:
                residuals[best_idx] -= size
        assert sorted(fast.unplaced) == sorted(unplaced)
        assert sorted(fast.residuals) == sorted(residuals)


class TestLeanUnplacedKernel:
    """best_fit_unplaced_total == best_fit for the same multisets."""

    @given(
        st.lists(
            st.sampled_from([2, 4, 6, 8, 20, 50, 100, 150]),
            max_size=60,
        ),
        st.lists(st.integers(min_value=0, max_value=400), max_size=40),
    )
    def test_matches_full_best_fit(self, sizes, bins):
        from repro.core.binpack import best_fit_unplaced_total

        ordered = sorted(sizes, reverse=True)
        assert best_fit_unplaced_total(ordered, bins) == best_fit(
            ordered, bins
        ).unplaced_total

    def test_equal_size_runs_drain_batched(self):
        from repro.core.binpack import best_fit_unplaced_total

        # 5 objects of size 20 into bins 70 and 50: 3 + 2 placed.
        assert best_fit_unplaced_total([20] * 5, [70, 50]) == 0
        # A sixth object no longer fits usefully (residuals 10, 10).
        assert best_fit_unplaced_total([20] * 6, [70, 50]) == 20

    def test_presorted_run_batching_matches_per_object(self):
        from repro.core.binpack import best_fit_unplaced_total

        ordered = [50, 50, 20, 20, 20, 2, 2]
        bins = [61, 55, 23]
        reference = best_fit(ordered, bins).unplaced_total
        assert best_fit_unplaced_total(ordered, bins) == reference
