"""Batched shortest-path engine over the router graph.

The latency oracle used to resolve every routed delay through per-source
pure-Python ``networkx`` Dijkstra trees.  A fleet audit touches hundreds
of source routers (every landmark's access router, every proxy's hosting
router, the measurement client), so cold starts paid one interpreted
graph traversal per source — the dominant serial cost once the geometry
side was vectorised (see :mod:`repro.geo.bank`).

:class:`PathEngine` replaces that with ``scipy.sparse.csgraph``:

* the :class:`~repro.netsim.topology.Topology` graph is converted **once**
  into a CSR adjacency matrix over a canonical (sorted) router ordering;
* shortest-path trees for any batch of sources are computed by **one**
  multi-source C-level Dijkstra call and stored as rows of a contiguous
  ``(n_sources, n_routers)`` float64 distance matrix;
* rows are keyed by source router and live in an insertion-ordered cache
  whose eviction drops the oldest half (mirroring
  ``DistanceBank._evict_oldest_half`` — never the thundering-herd full
  clear);
* :meth:`warm` precomputes the rows for a whole host universe before the
  audit forks its worker pool, so children inherit the matrix as
  copy-on-write pages.

Everything is versioned against ``topology.version``: a structural
mutation (hosting-AS creation) rebuilds the CSR matrix and drops every
cached row.

**Determinism.** Dijkstra relaxations accumulate ``dist[u] + w(u, v)``
along the shortest-path tree, and on every substrate we generate the
scipy rows have been observed bit-identical to per-source networkx
Dijkstra (the test suite keeps that engine as its oracle).  The serial
== parallel == resumed audit contract holds because rows are pure
functions of the topology, independent of computation order.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .. import sanitize
from .topology import RouterId, Topology


def graph_digest(topology: Topology) -> str:
    """sha256 over the sorted router ids, then every edge as its sorted
    endpoints' ids and its float64 latency, in sorted edge order."""
    graph = topology.graph
    nodes = sorted(graph.nodes)
    edges = sorted((min(u, v), max(u, v), w)
                   for u, v, w in graph.edges(data="latency_ms"))
    hasher = hashlib.sha256()
    hasher.update(np.int64(len(nodes)).tobytes())
    hasher.update(np.asarray(nodes, dtype=np.int64).tobytes())
    # One packed record per edge: the same bytes as hashing its two
    # endpoints and its weight one update at a time.
    hasher.update(np.array(edges, dtype=[("u", np.int64, (2,)),
                                         ("v", np.int64, (2,)),
                                         ("w", np.float64)]).tobytes())
    return hasher.hexdigest()


class PathEngine:
    """CSR-backed batched shortest paths for a :class:`Topology`.

    Parameters
    ----------
    topology:
        The router graph.  Structural mutations are detected through
        ``topology.version`` on every public call.
    max_rows:
        Soft bound on cached shortest-path rows.  When exceeded, the
        oldest half is evicted; warmed rows count toward the bound like
        any other row.
    """

    def __init__(self, topology: Topology, max_rows: int = 4096):
        if max_rows < 2:
            raise ValueError(f"max_rows too small: {max_rows!r}")
        self.topology = topology
        self.max_rows = int(max_rows)
        self._version: Optional[int] = None
        self._nodes: List[RouterId] = []
        self._index: Dict[RouterId, int] = {}
        self._csr = None
        self._rows: Dict[RouterId, np.ndarray] = {}
        self._digest: Optional[str] = None
        # Warm-start fast path: the last warmed (k, n) matrix plus a
        # node-index -> matrix-row map (-1 where not warmed), letting
        # path_pairs_ms gather a whole pair batch with one fancy index.
        self._warm_matrix: Optional[np.ndarray] = None
        self._warm_pos: Optional[np.ndarray] = None

    # -- graph conversion -----------------------------------------------------

    def _rebuild(self) -> None:
        graph = self.topology.graph
        self._nodes = sorted(graph.nodes)
        self._index = {node: i for i, node in enumerate(self._nodes)}
        n = len(self._nodes)
        k = graph.number_of_edges()
        rows = np.empty(2 * k, dtype=np.int32)
        cols = np.empty(2 * k, dtype=np.int32)
        data = np.empty(2 * k, dtype=np.float64)
        for at, (u, v, w) in enumerate(graph.edges(data="latency_ms")):
            iu, iv = self._index[u], self._index[v]
            rows[2 * at], cols[2 * at], data[2 * at] = iu, iv, w
            rows[2 * at + 1], cols[2 * at + 1], data[2 * at + 1] = iv, iu, w
        # The graph is undirected with symmetric weights, so a symmetric
        # CSR matrix traversed as *directed* gives identical path lengths
        # while skipping csgraph's undirected double-scan.
        self._csr = csr_matrix((data, (rows, cols)), shape=(n, n))
        self._rows = {}
        self._digest = None
        self._warm_matrix = None
        self._warm_pos = None
        self._version = self.topology.version

    def _ensure_current(self) -> None:
        if self._csr is None or self._version != self.topology.version:
            self._rebuild()

    @property
    def n_routers(self) -> int:
        self._ensure_current()
        return len(self._nodes)

    @property
    def n_rows(self) -> int:
        """Number of shortest-path rows currently cached."""
        return len(self._rows)

    def _index_of(self, router: RouterId) -> int:
        try:
            return self._index[router]
        except KeyError:
            from .network import Unreachable
            raise Unreachable(
                f"router {router!r} is not in the graph") from None

    # -- row computation ------------------------------------------------------

    def _evict_oldest_half(self) -> None:
        drop = len(self._rows) // 2
        for key in list(self._rows)[:drop]:
            del self._rows[key]

    def _compute_rows(self, sources: Sequence[RouterId]) -> np.ndarray:
        """One batched multi-source Dijkstra; returns ``(k, n)`` float64."""
        indices = np.array([self._index_of(s) for s in sources],
                           dtype=np.intp)
        matrix = _csgraph_dijkstra(self._csr, directed=True, indices=indices)
        return np.atleast_2d(matrix)

    def ensure_rows(self, sources: Sequence[RouterId]) -> None:
        """Compute (in one batch) any missing shortest-path rows."""
        self._ensure_current()
        missing: List[RouterId] = []
        seen = set()
        for source in sources:
            if source not in self._rows and source not in seen:
                seen.add(source)
                missing.append(source)
        if not missing:
            return
        if len(self._rows) + len(missing) > self.max_rows:
            self._evict_oldest_half()
        matrix = self._compute_rows(missing)
        for offset, source in enumerate(missing):
            self._rows[source] = matrix[offset]

    def distances_from(self, router: RouterId) -> np.ndarray:
        """The full shortest-path row of one source router (read-only)."""
        self.ensure_rows([router])
        return self._rows[router]

    # -- public queries -------------------------------------------------------

    def path_ms(self, a: RouterId, b: RouterId) -> float:
        """Routed one-way delay between two routers, ms.

        Resolves from the canonically-smaller endpoint: the two
        directions sum the same path in opposite orders and can differ in
        the last ulp, so choosing by whichever row happens to be cached
        would make measured RTTs depend on cache history.
        """
        if a == b:
            # Identity needs no graph entry.
            return 0.0
        self._ensure_current()
        source, target = (a, b) if a <= b else (b, a)
        row = self._rows.get(source)
        if row is None:
            self.ensure_rows([source])
            row = self._rows[source]
        value = row[self._index_of(target)]
        if not np.isfinite(value):
            from .network import Unreachable
            raise Unreachable(f"no path between {a!r} and {b!r}")
        return float(value)

    def path_pairs_ms(self, a_routers: Sequence[RouterId],
                      b_routers: Sequence[RouterId]) -> np.ndarray:
        """Vectorised routed delays for aligned router pairs.

        All missing source rows are filled by a single batched Dijkstra;
        values are then gathered per source row, giving the exact floats
        :meth:`path_ms` would return pair by pair.
        """
        if len(a_routers) != len(b_routers):
            raise ValueError("router lists disagree in length")
        self._ensure_current()
        n = len(a_routers)
        out = np.zeros(n, dtype=np.float64)
        if n == 0:
            return out
        index = self._index
        try:
            ia = np.fromiter((index[r] for r in a_routers),
                             dtype=np.intp, count=n)
            ib = np.fromiter((index[r] for r in b_routers),
                             dtype=np.intp, count=n)
        except KeyError as error:
            from .network import Unreachable
            raise Unreachable(
                f"router {error.args[0]!r} is not in the graph") from None
        # Nodes are sorted, so the canonically-smaller endpoint is simply
        # the smaller index: the whole batch canonicalises in two ufuncs.
        src = np.minimum(ia, ib)
        dst = np.maximum(ia, ib)
        diff = src != dst
        resolved = False
        if self._warm_pos is not None and diff.any():
            pos = self._warm_pos[src[diff]]
            if pos.min() >= 0:
                # Every source is warm: one fancy-index gather.
                out[diff] = self._warm_matrix[pos, dst[diff]]
                resolved = True
        if not resolved and diff.any():
            by_source: Dict[RouterId, Tuple[List[int], List[int]]] = {}
            for at in np.flatnonzero(diff):
                source = self._nodes[src[at]]
                positions, targets = by_source.setdefault(source, ([], []))
                positions.append(int(at))
                targets.append(int(dst[at]))
            self.ensure_rows(list(by_source))
            for source, (positions, targets) in by_source.items():
                out[positions] = self._rows[source][targets]
        if not np.isfinite(out).all():
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            from .network import Unreachable
            raise Unreachable(
                f"no path between {a_routers[bad]!r} and {b_routers[bad]!r}")
        return out

    # -- warm start -----------------------------------------------------------

    def topology_digest(self) -> str:
        """Content digest of the router graph (nodes, edges, weights)."""
        self._ensure_current()
        if self._digest is None:
            self._digest = graph_digest(self.topology)
        return self._digest

    def warm(self, routers: Sequence[RouterId]) -> None:
        """Precompute the rows of a whole source universe in one batch.

        Called once per audit, before the worker pool forks, with every
        router a measurement could use as its canonical source; the
        ``(n_sources, n_routers)`` matrix is shared copy-on-write with
        every process that inherits the engine.
        """
        self._ensure_current()
        seen = set()
        sources: List[RouterId] = []
        for router in routers:
            if router not in seen:
                seen.add(router)
                sources.append(router)
        sources.sort()
        for router in sources:
            self._index_of(router)          # validate before any I/O
        if not sources or self._warmed_already(sources):
            # Every requested row is cached *and* reachable through the
            # fancy-index gather: repeated warming (one audit per figure,
            # all over the same fleet) is a true no-op instead of a full
            # multi-source Dijkstra per call.
            return
        missing = [s for s in sources if s not in self._rows]
        if len(missing) < len(sources):
            # Partial warm: batch-compute only the missing trees and
            # stitch the cached rows in.  Rows are pure functions of the
            # topology, so reusing them is bit-identical to recomputing
            # the whole matrix.
            matrix = np.empty((len(sources), len(self._nodes)),
                              dtype=np.float64)
            if missing:
                fresh = self._compute_rows(missing)
            fresh_of = {s: i for i, s in enumerate(missing)}
            for offset, source in enumerate(sources):
                at = fresh_of.get(source)
                matrix[offset] = (self._rows[source] if at is None
                                  else fresh[at])
        else:
            matrix = self._compute_rows(sources)
        self._adopt(sources, matrix)

    def _warmed_already(self, sources: List[RouterId]) -> bool:
        """All sources cached and covered by the fancy-index gather?"""
        if self._warm_pos is None:
            return False
        if len(sources) > len(self._rows):
            return False
        for source in sources:
            if source not in self._rows:
                return False
            if self._warm_pos[self._index[source]] < 0:
                return False
        return True

    def _nx_reference_row(self, source: RouterId) -> np.ndarray:
        """One source's distances by an independent networkx Dijkstra.

        The sanitizer's cross-check oracle: pure Python over the same
        graph and weights, sharing none of the CSR conversion or batching
        machinery whose failure it is meant to catch.
        """
        import networkx as nx

        lengths = nx.single_source_dijkstra_path_length(
            self.topology.graph, source, weight="latency_ms")
        row = np.full(len(self._nodes), np.inf, dtype=np.float64)
        for node, distance in lengths.items():
            row[self._index[node]] = distance
        return row

    def _sanitize_spot_check(self, sources: List[RouterId]) -> None:
        """Cross-check one deterministically sampled warmed row.

        The sample index comes from the topology digest — a pure
        function of the graph, never of RNG state or insertion order —
        so arming the sanitizer cannot perturb any random stream.
        """
        if not sources:
            return
        pick = int(self.topology_digest()[:8], 16) % len(sources)
        source = sources[pick]
        sanitize.check_rows_close(
            self._rows[source], self._nx_reference_row(source),
            f"PathEngine.warm spot check, source {source!r}")

    def _adopt(self, sources: List[RouterId], matrix: np.ndarray) -> None:
        if len(self._rows) + len(sources) > self.max_rows:
            self._evict_oldest_half()
        for offset, source in enumerate(sources):
            self._rows[source] = matrix[offset]
        # Register the contiguous matrix for the fancy-index fast path.
        # Eviction never invalidates it: rows are pure functions of the
        # topology, so stale entries are still the right floats.
        pos = np.full(len(self._nodes), -1, dtype=np.intp)
        pos[[self._index[s] for s in sources]] = np.arange(len(sources))
        self._warm_matrix = matrix
        self._warm_pos = pos
        if sanitize.enabled():
            self._sanitize_spot_check(sources)
