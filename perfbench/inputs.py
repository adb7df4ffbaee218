"""Seeded workload inputs: verdict traffic and landmark-churn sequences.

Everything here is a pure function of the seed and of public facts about
the world the program built from that seed (fleet host ids and claims,
landmark names, which landmarks the warm verdicts used).  The program
under test only ever receives the generated queries and quarantine sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

#: Sub-stream tags so traffic and churn draws never share a generator.
_TRAFFIC_STREAM = 1
_CHURN_STREAM = 2


@dataclass(frozen=True)
class Traffic:
    """An open-loop request schedule, as arrays.

    Request ``i`` is due ``due_s[i]`` seconds after the traffic window
    opens and asks about fleet server ``host[i]`` (an index into the
    fleet) and country ``countries[claim[i]]``; ``own[i]`` says whether
    that is the server's own claimed country.  Arrays rather than lists
    of tuples, so the schedule adds no objects for the collector to walk
    while the service runs.
    """

    due_s: np.ndarray
    host: np.ndarray
    claim: np.ndarray
    own: np.ndarray
    countries: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.due_s)

    def query(self, at: int, host_ids: Sequence[int]) -> Tuple[int, str]:
        """Request ``at`` as the ``(host_id, claim)`` pair it sends."""
        return (int(host_ids[self.host[at]]),
                self.countries[self.claim[at]])


def verdict_traffic(seed: int, claims: Sequence[str], *, rate: float,
                    seconds: float, zipf_s: float,
                    other_share: float) -> Traffic:
    """Poisson arrivals at ``rate`` over Zipf-popular fleet servers.

    ``claims[i]`` is fleet server ``i``'s own claimed country.  Host
    popularity is Zipf(``zipf_s``) over a seeded permutation of the
    fleet.  A request asks about the host's own claimed country, except
    with probability ``other_share``, when it asks about another country
    drawn uniformly from the fleet's claimed countries.
    """
    if not claims:
        raise ValueError("need at least one fleet server")
    rng = np.random.default_rng([seed, _TRAFFIC_STREAM])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.2) + 64)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    n = len(due)
    popularity = 1.0 / np.arange(1, len(claims) + 1) ** zipf_s
    popularity /= popularity.sum()
    order = rng.permutation(len(claims))
    host = order[rng.choice(len(claims), size=n, p=popularity)]
    countries = tuple(sorted(set(claims)))
    own_claim = np.array([countries.index(claim) for claim in claims])
    claim = own_claim[host]
    other = rng.random(n) < other_share
    if len(countries) > 1:
        # Uniform over the other countries: shift past the host's own
        # claim by 1..len-1 places, wrapping around.
        shift = rng.integers(1, len(countries), size=n)
        claim = np.where(other, (claim + shift) % len(countries), claim)
    else:
        other[:] = False
    return Traffic(due_s=due, host=host, claim=claim, own=~other,
                   countries=countries)


def churn_sequence(seed: int, anchors: Sequence[str],
                   fanout: Dict[str, int], *, ordinary: int,
                   repeat: int = 0) -> List[FrozenSet[str]]:
    """The quarantine sets of one churn sequence, one per roll.

    ``1 + ordinary`` landmarks churn: the first phase-1 anchor by name,
    which every server's panel requests, so its two rolls re-audit the
    whole fleet, and the ``ordinary`` other landmarks whose ``fanout``
    (how many warm verdicts used each) sits nearest the median of those
    used.  The seed and ``repeat`` order them: they are quarantined one
    at a time in one drawn order, then released one at a time in
    another, so the last set is empty.

    The landmarks themselves are not drawn from the seed: drawn, which
    landmarks churned moved a sequence's re-evaluations by 15% and its
    median roll by a factor of two from seed to seed.
    """
    rng = np.random.default_rng([seed, _CHURN_STREAM, repeat])
    pool = sorted((count, name) for name, count in fanout.items()
                  if count > 0 and name not in set(anchors))
    if len(pool) < ordinary:
        raise ValueError(f"only {len(pool)} used landmarks; need {ordinary}")
    low = min(max(0, len(pool) // 2 - ordinary // 2), len(pool) - ordinary)
    chosen = [sorted(anchors)[0]] + [name for _, name in
                                     pool[low:low + ordinary]]
    sets: List[FrozenSet[str]] = []
    current: set = set()
    for at in rng.permutation(len(chosen)):
        current.add(chosen[at])
        sets.append(frozenset(current))
    for at in rng.permutation(len(chosen)):
        current.discard(chosen[at])
        sets.append(frozenset(current))
    return sets


def nearest_rank(samples: Sequence[float], percent: float) -> Optional[float]:
    """The nearest-rank percentile (an observed sample, never a blend).

    Failed operations enter as ``inf`` and so count as missing every
    latency limit.  None for an empty sample.
    """
    if not len(samples):
        return None
    ordered = sorted(samples)
    rank = max(1, int(np.ceil(percent / 100.0 * len(ordered))))
    return float(ordered[rank - 1])
