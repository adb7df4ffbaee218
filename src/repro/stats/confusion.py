"""Confusion / co-occurrence matrices for Appendix A (Figures 22–23).

The paper's appendix matrices are *co-occurrence* counts: for every proxy
whose prediction region covers several countries (or continents), each
pair of covered labels increments the off-diagonal cells, and each label
increments its own diagonal.  A standard true-vs-predicted confusion
matrix is also provided for validation experiments where ground truth is
known.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class LabelMatrix:
    """A square integer matrix over a fixed label vocabulary."""

    def __init__(self, labels: Sequence[str]):
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        self.labels: List[str] = list(labels)
        self._index: Dict[str, int] = {label: i for i, label in enumerate(self.labels)}
        self.counts = np.zeros((len(self.labels), len(self.labels)), dtype=np.int64)

    def _idx(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def increment(self, row: str, col: str, amount: int = 1) -> None:
        self.counts[self._idx(row), self._idx(col)] += amount

    def get(self, row: str, col: str) -> int:
        return int(self.counts[self._idx(row), self._idx(col)])

    def row(self, label: str) -> Dict[str, int]:
        i = self._idx(label)
        return {other: int(self.counts[i, j]) for j, other in enumerate(self.labels)}

    def total(self) -> int:
        return int(self.counts.sum())

    def nonzero_pairs(self) -> List[Tuple[str, str, int]]:
        """(row, col, count) for every non-zero cell, descending by count."""
        rows, cols = np.nonzero(self.counts)
        entries = [(self.labels[r], self.labels[c], int(self.counts[r, c]))
                   for r, c in zip(rows, cols)]
        return sorted(entries, key=lambda e: -e[2])

    def merge(self, other: "LabelMatrix") -> None:
        """Fold another matrix's counts into this one (same vocabulary).

        Counting is commutative, so merging per-shard matrices equals
        counting the concatenated stream — the property the sharded
        campaign aggregation rests on.
        """
        if other.labels != self.labels:
            raise ValueError("cannot merge matrices over different labels")
        self.counts += other.counts


class CooccurrenceMatrix(LabelMatrix):
    """Symmetric co-occurrence counts (the Appendix A matrices)."""

    def add_set(self, covered: Iterable[str]) -> None:
        """Record one prediction region covering the given labels.

        The diagonal counts how often each label appears at all; the
        off-diagonal (symmetric) counts how often two labels are covered
        by the *same* prediction — i.e. how often they are confusable.
        Every label resolves before any count moves, so an unknown label
        raises with the matrix untouched; the labels are unique, so the
        one fancy-indexed add hits each cell at most once and the int64
        counts stay exact.
        """
        index = np.array([self._idx(label) for label in sorted(set(covered))],
                         dtype=np.intp)
        self.counts[index[:, None], index] += 1     # the np.ix_ cross product

    def confusability(self, a: str, b: str) -> float:
        """P(region covers b | region covers a); 0 when a never appears."""
        total_a = self.get(a, a)
        if total_a == 0:
            return 0.0
        return self.get(a, b) / total_a


class ConfusionMatrix(LabelMatrix):
    """Standard true-label vs predicted-label confusion matrix."""

    def add(self, true_label: str, predicted_label: str) -> None:
        self.increment(true_label, predicted_label)

    def accuracy(self) -> float:
        total = self.total()
        if total == 0:
            raise ValueError("empty confusion matrix")
        return float(np.trace(self.counts)) / total

    def precision(self, label: str) -> float:
        i = self._idx(label)
        col_total = int(self.counts[:, i].sum())
        if col_total == 0:
            return 0.0
        return int(self.counts[i, i]) / col_total
