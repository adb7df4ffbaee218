"""A shared, strictly-typed bounded LRU cache.

One implementation backs every long-lived cache in the reproduction —
the memoised figure audit (:func:`repro.experiments.cached_audit`) and
the verdict service's verdict and measurement caches
(:class:`~repro.service.verdict.VerdictService`) — so hit/miss/eviction
accounting, eviction order, and the ``cache_info()``/``cache_clear()``
wrapper API cannot drift between call sites.

Design constraints the call sites impose:

* **bounded**: every instance declares ``maxsize`` up front; inserting
  past it evicts the least-recently-used entry (and counts it).  An
  unbounded cache in a long-running service is a slow memory leak —
  reprolint R009 exists to keep raw dict/queue growth out of the
  service modules, and this class is the sanctioned replacement.
* **observable**: :meth:`cache_info` mirrors
  :func:`functools.lru_cache`'s ``CacheInfo`` (plus an ``evictions``
  field) so benchmarks can prove cache effectiveness, and
  :meth:`cache_clear` resets entries and counters together.
* **deterministic**: no clocks, no weights — recency is the only
  eviction signal, so cache behaviour is a pure function of the access
  sequence.

The class is deliberately not thread-safe: both call sites access it
from one thread (the audit path serially; the service from its single
batcher), and a lock here would tax the warm-hit fast path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, List, NamedTuple, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class CacheInfo(NamedTuple):
    """One cache's counters, in ``functools.lru_cache`` field order."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    #: Entries dropped to stay under ``maxsize`` (not counting clears).
    evictions: int


class LruCache(Generic[K, V]):
    """A bounded least-recently-used mapping with hit/miss accounting."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        """Membership test; touches neither counters nor recency."""
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """The cached value (now most recently used), or None; counted."""
        value = self._entries.get(key)
        if value is None:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Like :meth:`get` but touches neither counters nor recency."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert or refresh an entry, evicting LRU entries past maxsize."""
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def pop(self, key: K) -> Optional[V]:
        """Remove and return an entry (None if absent); not counted."""
        return self._entries.pop(key, None)

    def items(self) -> List[Tuple[K, V]]:
        """A snapshot of (key, value) pairs, least recently used first.

        A materialised copy, so callers may mutate the cache while
        iterating — the epoch-roll carry-forward scan depends on that.
        """
        return list(self._entries.items())

    def cache_info(self) -> CacheInfo:
        return CacheInfo(hits=self._hits, misses=self._misses,
                         maxsize=self.maxsize, currsize=len(self._entries),
                         evictions=self._evictions)

    def cache_clear(self) -> None:
        """Drop every entry and reset all counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
