"""Tests for co-occurrence and confusion matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ConfusionMatrix, CooccurrenceMatrix, LabelMatrix

LABELS = [f"L{i}" for i in range(12)]


def add_set_reference(matrix, covered):
    """The original pair loop: the oracle for the vectorised add_set."""
    unique = sorted(set(covered))
    for i, a in enumerate(unique):
        matrix.increment(a, a)
        for b in unique[i + 1:]:
            matrix.increment(a, b)
            matrix.increment(b, a)


class TestLabelMatrix:
    def test_increment_and_get(self):
        matrix = LabelMatrix(["a", "b"])
        matrix.increment("a", "b", 3)
        assert matrix.get("a", "b") == 3
        assert matrix.get("b", "a") == 0

    def test_unknown_label_raises(self):
        matrix = LabelMatrix(["a"])
        with pytest.raises(KeyError):
            matrix.get("a", "zzz")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelMatrix(["a", "a"])

    def test_row_and_total(self):
        matrix = LabelMatrix(["a", "b", "c"])
        matrix.increment("a", "b")
        matrix.increment("a", "c", 2)
        assert matrix.row("a") == {"a": 0, "b": 1, "c": 2}
        assert matrix.total() == 3

    def test_nonzero_pairs_sorted(self):
        matrix = LabelMatrix(["a", "b"])
        matrix.increment("a", "b", 1)
        matrix.increment("b", "a", 5)
        pairs = matrix.nonzero_pairs()
        assert pairs[0] == ("b", "a", 5)


class TestCooccurrence:
    def test_single_label_only_diagonal(self):
        matrix = CooccurrenceMatrix(["x", "y"])
        matrix.add_set(["x"])
        assert matrix.get("x", "x") == 1
        assert matrix.get("x", "y") == 0

    def test_pair_symmetric(self):
        matrix = CooccurrenceMatrix(["x", "y", "z"])
        matrix.add_set(["x", "y"])
        assert matrix.get("x", "y") == 1
        assert matrix.get("y", "x") == 1
        assert matrix.get("x", "x") == 1
        assert matrix.get("y", "y") == 1

    def test_duplicates_in_set_collapse(self):
        matrix = CooccurrenceMatrix(["x", "y"])
        matrix.add_set(["x", "x", "y"])
        assert matrix.get("x", "x") == 1
        assert matrix.get("x", "y") == 1

    def test_triple_counts_all_pairs(self):
        matrix = CooccurrenceMatrix(["a", "b", "c"])
        matrix.add_set(["a", "b", "c"])
        for one in "abc":
            for two in "abc":
                assert matrix.get(one, two) == 1

    def test_confusability_conditional(self):
        matrix = CooccurrenceMatrix(["a", "b"])
        matrix.add_set(["a", "b"])
        matrix.add_set(["a"])
        assert matrix.confusability("a", "b") == pytest.approx(0.5)
        assert matrix.confusability("b", "a") == pytest.approx(1.0)

    def test_confusability_of_absent_label(self):
        matrix = CooccurrenceMatrix(["a", "b"])
        assert matrix.confusability("a", "b") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(LABELS), max_size=9),
                    max_size=12))
    def test_add_set_matches_pair_loop(self, sets):
        fast = CooccurrenceMatrix(LABELS)
        slow = CooccurrenceMatrix(LABELS)
        for covered in sets:
            fast.add_set(covered)
            add_set_reference(slow, covered)
        assert fast.counts.dtype == np.int64
        assert np.array_equal(fast.counts, slow.counts)

    @given(st.lists(st.sampled_from(LABELS), max_size=6))
    def test_unknown_label_leaves_counts_untouched(self, covered):
        matrix = CooccurrenceMatrix(LABELS)
        matrix.add_set(["L0", "L1"])
        before = matrix.counts.copy()
        with pytest.raises(KeyError, match="unknown label 'nope'"):
            matrix.add_set(covered + ["nope"])
        assert np.array_equal(matrix.counts, before)


class TestConfusionMatrix:
    def test_accuracy(self):
        matrix = ConfusionMatrix(["x", "y"])
        matrix.add("x", "x")
        matrix.add("x", "y")
        matrix.add("y", "y")
        assert matrix.accuracy() == pytest.approx(2 / 3)

    def test_precision_recall(self):
        matrix = ConfusionMatrix(["x", "y"])
        matrix.add("x", "x")
        matrix.add("x", "x")
        matrix.add("x", "y")
        matrix.add("y", "x")
        assert matrix.recall("x") == pytest.approx(2 / 3)
        assert matrix.precision("x") == pytest.approx(2 / 3)

    def test_empty_label_metrics_zero(self):
        matrix = ConfusionMatrix(["x", "y"])
        matrix.add("x", "x")
        assert matrix.recall("y") == 0.0
        assert matrix.precision("y") == 0.0

    def test_empty_accuracy_raises(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["x"]).accuracy()
