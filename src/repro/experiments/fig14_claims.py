"""Figure 14: the country-claim landscape of the commercial VPN market.

157 providers ranked by how many countries and dependencies they claim,
with the seven studied providers placed in that ranking.  The paper's
observation to reproduce: providers A–E are among the top 20 broadest
claimants, F and G make modest, typical claims — and narrow-claim
providers tend to claim the *same* few easy-hosting countries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netsim.proxies import competitor_claim_counts
from .scenario import Scenario


@dataclass
class ClaimLandscape:
    market_counts: List[int]                # descending claim counts, market-wide
    studied_counts: Dict[str, int]          # provider -> n claimed countries
    studied_ranks: Dict[str, int]           # provider -> rank in the market

    def top20_providers(self) -> List[str]:
        """Studied providers ranking inside the market's top 20."""
        return [name for name, rank in self.studied_ranks.items() if rank <= 20]


def run(scenario: Scenario, n_market_providers: int = 150,
        seed: int = 7) -> ClaimLandscape:
    """Merge the studied providers into the synthetic market ranking."""
    market = competitor_claim_counts(n_providers=n_market_providers, seed=seed)
    studied = {p.name: p.n_claimed_countries for p in scenario.providers}
    combined = sorted(market + list(studied.values()), reverse=True)
    ranks: Dict[str, int] = {}
    for name, count in studied.items():
        # Rank = 1 + number of providers claiming strictly more.
        ranks[name] = 1 + sum(1 for c in combined if c > count)
    return ClaimLandscape(
        market_counts=market,
        studied_counts=studied,
        studied_ranks=ranks,
    )


def format_table(landscape: ClaimLandscape) -> str:
    lines = [
        f"Figure 14 — claimed-country counts across "
        f"{len(landscape.market_counts) + len(landscape.studied_counts)} providers",
        f"  market max/median claims: {max(landscape.market_counts)} / "
        f"{landscape.market_counts[len(landscape.market_counts) // 2]}",
    ]
    for name in sorted(landscape.studied_counts):
        lines.append(
            f"  provider {name}: {landscape.studied_counts[name]:3d} countries "
            f"(rank {landscape.studied_ranks[name]})")
    lines.append(f"  studied providers in top 20: "
                 f"{', '.join(landscape.top20_providers())}")
    return "\n".join(lines)
