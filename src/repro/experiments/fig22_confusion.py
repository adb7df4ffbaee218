"""Figures 22 & 23 (Appendix A): confusion among continents and countries.

Every prediction region that covers several countries makes those
countries mutually confusable; the appendix matrices count these
co-occurrences.  Reproduced shapes: intercontinental confusion follows
geography (Europe↔Africa↔Asia, the Americas with each other), and within
continents nearly every neighbour pair co-occurs, with sparse regions
(southern Africa, Oceania) confusable with far-away hubs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..geo.countries import CONTINENTS
from ..stats.confusion import CooccurrenceMatrix
from .audit import cached_audit
from .scenario import Scenario


@dataclass
class ConfusionFigures:
    continent_matrix: CooccurrenceMatrix
    country_matrix: CooccurrenceMatrix

    def most_confused_countries(self, n: int = 10) -> List[Tuple[str, str, int]]:
        pairs = [(a, b, count)
                 for a, b, count in self.country_matrix.nonzero_pairs()
                 if a < b]
        return pairs[:n]

    def same_continent_confusion_rate(self, scenario: Scenario) -> float:
        """Count-weighted fraction of country confusion within a continent.

        Weighting by co-occurrence count matters: a single exotic region
        covering two continents creates many one-off cross-continent
        pairs, but the confusion *mass* sits between neighbours.
        """
        total = 0
        same = 0
        for a, b, count in self.country_matrix.nonzero_pairs():
            if a >= b:
                continue
            total += count
            if (scenario.registry.continent_of(a)
                    == scenario.registry.continent_of(b)):
                same += count
        if total == 0:
            return 1.0
        return same / total


def run(scenario: Scenario, max_servers: Optional[int] = None,
        seed: int = 0) -> ConfusionFigures:
    audit = cached_audit(scenario, max_servers=max_servers, seed=seed)
    country_matrix = CooccurrenceMatrix(scenario.registry.codes())
    continent_matrix = CooccurrenceMatrix(list(CONTINENTS))
    for record in audit.records:
        covered = record.assessment.countries_covered
        if not covered:
            continue
        country_matrix.add_set(covered)
        continent_matrix.add_set(
            scenario.registry.continent_of(code) for code in covered)
    return ConfusionFigures(
        continent_matrix=continent_matrix,
        country_matrix=country_matrix,
    )


def format_table(figures: ConfusionFigures) -> str:
    matrix = figures.continent_matrix
    header = "      " + "".join(f"{c:>6}" for c in matrix.labels)
    lines = ["Figure 22 — continent co-occurrence matrix", header]
    for row_label in matrix.labels:
        row = matrix.row(row_label)
        lines.append(f"  {row_label:<4}" + "".join(
            f"{row[c]:>6}" for c in matrix.labels))
    lines.append("Figure 23 — most confusable country pairs:")
    for a, b, count in figures.most_confused_countries(12):
        lines.append(f"  {a} <-> {b}: {count}")
    return "\n".join(lines)
