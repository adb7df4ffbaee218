"""Figures 18 & 19: claim honesty by provider and by country.

Figure 18's matrix — providers × the twenty most-commonly-claimed
countries, each cell the fraction of that provider's claims there that
CBG++ backs up (credible or uncertain, after disambiguation).  Figure 19
generalises to every claimed country per provider.  The shape to
reproduce: honesty concentrates in the commonly claimed, easy-hosting
countries; the long tail is almost entirely false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.assessment import Verdict
from .audit import AuditResult, cached_audit
from .scenario import Scenario


@dataclass
class HonestyMatrix:
    providers: List[str]
    countries: List[str]                       # column order (most-claimed first)
    honesty: Dict[Tuple[str, str], float]      # (provider, country) -> rate
    claims: Dict[Tuple[str, str], int]         # (provider, country) -> n claims

    def rate(self, provider: str, country: str) -> Optional[float]:
        return self.honesty.get((provider, country))

    def provider_mean(self, provider: str) -> float:
        values = [rate for (p, _), rate in self.honesty.items() if p == provider]
        if not values:
            raise KeyError(f"no claims for provider {provider!r}")
        return sum(values) / len(values)

    def tier_means(self, scenario: Scenario) -> Dict[int, float]:
        """Mean honesty by the claimed country's hosting tier."""
        sums: Dict[int, List[float]] = {1: [], 2: [], 3: []}
        for (_, country), rate in self.honesty.items():
            tier = scenario.registry.get(country).hosting_tier
            sums[tier].append(rate)
        return {tier: (sum(v) / len(v) if v else 0.0)
                for tier, v in sums.items()}


def _claim_backed(record) -> bool:
    """Is the claim backed up (credible or still-uncertain)?"""
    return record.assessment.verdict in (Verdict.CREDIBLE, Verdict.UNCERTAIN)


def run(scenario: Scenario, n_countries: int = 20,
        max_servers: Optional[int] = None, seed: int = 0,
        all_countries: bool = False) -> HonestyMatrix:
    """Build the honesty matrix from the shared audit run.

    ``all_countries=True`` produces the Figure 19 variant (every claimed
    country, not just the twenty most-claimed).
    """
    audit = cached_audit(scenario, max_servers=max_servers, seed=seed)
    return summarize(audit, n_countries=n_countries, all_countries=all_countries)


def summarize(audit: AuditResult, n_countries: int = 20,
              all_countries: bool = False) -> HonestyMatrix:
    claim_counts: Dict[str, int] = {}
    for record in audit.records:
        code = record.server.claimed_country
        claim_counts[code] = claim_counts.get(code, 0) + 1
    ordered = sorted(claim_counts, key=lambda code: -claim_counts[code])
    countries = ordered if all_countries else ordered[:n_countries]
    country_set = set(countries)

    providers = sorted({r.server.provider for r in audit.records})
    backed: Dict[Tuple[str, str], int] = {}
    totals: Dict[Tuple[str, str], int] = {}
    for record in audit.records:
        code = record.server.claimed_country
        if code not in country_set:
            continue
        key = (record.server.provider, code)
        totals[key] = totals.get(key, 0) + 1
        if _claim_backed(record):
            backed[key] = backed.get(key, 0) + 1
    honesty = {key: backed.get(key, 0) / total
               for key, total in totals.items()}
    return HonestyMatrix(
        providers=providers,
        countries=countries,
        honesty=honesty,
        claims=totals,
    )


def format_table(matrix: HonestyMatrix) -> str:
    header = "prov " + " ".join(f"{code:>4}" for code in matrix.countries[:15])
    lines = ["Figure 18 — honesty by provider and country (top countries)",
             header]
    for provider in matrix.providers:
        cells = []
        for code in matrix.countries[:15]:
            rate = matrix.rate(provider, code)
            cells.append("   ." if rate is None else f"{rate:4.0%}")
        lines.append(f"   {provider}  " + " ".join(cells))
    lines.append("  provider means: " + "  ".join(
        f"{p}:{matrix.provider_mean(p):.0%}" for p in matrix.providers))
    return "\n".join(lines)
