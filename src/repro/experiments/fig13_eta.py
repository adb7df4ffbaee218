"""Figure 13: the direct vs. indirect proxy RTT relationship (η).

For every proxy that answers ICMP both directly and through the tunnel,
plot the direct client→proxy RTT against the indirect self-ping RTT.  The
robust regression slope is η — "almost exactly 1/2" in the paper
(0.49, R² > 0.99) because the self-ping traverses the client→proxy path
twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.proxy_adapter import collect_eta_data
from ..stats.regression import LinearFit, ols_fit, theil_sen_fit
from .scenario import Scenario


@dataclass
class EtaFigure:
    pairs: List[Tuple[float, float]]   # (indirect, direct) RTTs, ms
    robust_fit: LinearFit
    ols_fit_result: LinearFit

    @property
    def eta(self) -> float:
        return self.robust_fit.slope

    @property
    def n_proxies(self) -> int:
        return len(self.pairs)


def run(scenario: Scenario, seed: int = 0,
        samples_per_proxy: int = 3) -> EtaFigure:
    """Collect (indirect, direct) pairs over the pingable fleet and fit η."""
    rng = np.random.default_rng(seed)
    pairs = collect_eta_data(scenario.network, scenario.client,
                             scenario.all_servers(), rng,
                             samples_per_proxy=samples_per_proxy)
    if len(pairs) < 3:
        raise ValueError("too few pingable proxies to fit eta")
    indirect = [p[0] for p in pairs]
    direct = [p[1] for p in pairs]
    return EtaFigure(
        pairs=pairs,
        robust_fit=theil_sen_fit(indirect, direct),
        ols_fit_result=ols_fit(indirect, direct),
    )


def format_table(figure: EtaFigure) -> str:
    return "\n".join([
        f"Figure 13 — direct vs indirect RTT over "
        f"{figure.n_proxies} pingable proxies",
        f"  robust slope (eta)  {figure.eta:.3f}   (paper: 0.49)",
        f"  robust R^2          {figure.robust_fit.r_squared:.4f}   (paper: >0.99)",
        f"  OLS slope           {figure.ols_fit_result.slope:.3f}",
    ])
