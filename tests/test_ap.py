"""Tests for the truncated Average Precision metric (§5.1 definition)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ap import average_precision


class TestDefinition:
    def test_perfect_first_ten(self):
        assert average_precision([True] * 10, 100) == pytest.approx(1.0)

    def test_nothing_found(self):
        assert average_precision([False] * 60, 50) == pytest.approx(0.0)

    def test_single_hit_at_rank_one(self):
        # R = min(10, 50) = 10; one precision of 1.0, nine zeros.
        assert average_precision([True] + [False] * 59, 50) == pytest.approx(0.1)

    def test_single_relevant_in_dataset(self):
        # R = 1, found at rank 1 -> AP 1.
        assert average_precision([True], 1) == pytest.approx(1.0)

    def test_single_relevant_found_late(self):
        # R = 1, found at rank 4 -> AP = 1/4.
        assert average_precision([False] * 3 + [True], 1) == pytest.approx(0.25)

    def test_r_caps_at_dataset_count(self):
        # 3 relevant in dataset, all found first -> perfect.
        assert average_precision([True] * 3 + [False] * 10, 3) == pytest.approx(1.0)

    def test_alternating(self):
        # hits at ranks 1 and 3: (1/1 + 2/3)/min(10, 2)
        assert average_precision([True, False, True], 2) == pytest.approx(
            (1.0 + 2 / 3) / 2
        )

    def test_truncates_after_target_hits(self):
        # Hits beyond the 10th relevant are ignored (loop stops anyway).
        seq = [True] * 10 + [True] * 5
        assert average_precision(seq, 100) == pytest.approx(1.0)

    def test_budget_truncation(self):
        # A hit past the budget (60) must not count.
        seq = [False] * 60 + [True]
        assert average_precision(seq, 5) == pytest.approx(0.0)

    def test_no_relevant_raises(self):
        with pytest.raises(ValueError):
            average_precision([True], 0)

    @pytest.mark.parametrize("target, budget", [(0, 60), (-1, 60), (10, 0), (10, -3)])
    def test_bad_task_raises(self, target, budget):
        with pytest.raises(ValueError, match="target and budget"):
            average_precision([True], 5, target=target, budget=budget)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=0, max_size=60),
        st.integers(1, 200),
    )
    def test_range(self, seq, n_rel):
        if sum(seq) > n_rel:
            n_rel = sum(seq)  # keep the scenario consistent
        ap = average_precision(seq, n_rel)
        assert 0.0 <= ap <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=59), st.integers(1, 100))
    def test_earlier_hit_never_worse(self, seq, n_rel):
        """Prepending a hit never lowers AP (the metric rewards early hits)."""
        n_rel = max(n_rel, sum(seq) + 1)
        base = average_precision(seq, n_rel)
        better = average_precision([True] + seq, n_rel)
        assert better >= base - 1e-12
