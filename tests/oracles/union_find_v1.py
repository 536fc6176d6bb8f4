"""Frozen copy of the per-shot union-find reference loop.

:class:`ReferenceUnionFind` is the sequential Delfosse-Nickerson growth
and DFS peel exactly as ``UnionFindDecoder`` carried it before its
per-shot fallback was tuned (precomputed edge keys, inlined find/union,
memoized edge masks, per-round member buckets).  The tuned loop still
decodes every row the arena flags, so tests hold it to this copy bit for
bit.  Do not edit the methods below: set iteration order decides the
peel, and a "harmless" rewrite here would silently move the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.decoder.base import _unmask_rows as _unmask_words
from repro.decoder.graph import BOUNDARY, DecodingGraph


def _unmask_rows(masks: np.ndarray, num_observables: int) -> np.ndarray:
    """The int64-mask expansion this copy was written against."""
    words = np.asarray(masks, dtype=np.int64).view(np.uint64)[:, None]
    return _unmask_words(words, num_observables)

_ZERO_WEIGHT = 1e-5
_MAX_ROUNDS = 10_000


@dataclass
class _Cluster:
    """A growing cluster of detectors (reference implementation)."""

    root: int
    defects: int
    touches_boundary: bool

    @property
    def is_valid(self) -> bool:
        return self.touches_boundary or self.defects % 2 == 0


class ReferenceUnionFind:
    """Per-shot union-find decoder: sequential growth + DFS peel."""

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        self._adjacency: Dict[int, List[Tuple[int, float, int]]] = {}
        for edge in graph.edges:
            if len(edge.detectors) == 1:
                u, v = edge.detectors[0], BOUNDARY
            else:
                u, v = edge.detectors
            mask = 0
            for obs in edge.observables:
                mask |= 1 << obs
            self._adjacency.setdefault(u, []).append((v, edge.weight, mask))
            self._adjacency.setdefault(v, []).append((u, edge.weight, mask))

    def _find(self, parents: Dict[int, int], node: int) -> int:
        root = node
        while parents[root] != root:
            root = parents[root]
        while parents[node] != root:
            parents[node], node = root, parents[node]
        return root

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Per-shot reference decode (sequential growth + DFS peel)."""
        defects = [int(d) for d in np.flatnonzero(syndrome)]
        if not defects:
            return np.zeros(self.graph.num_observables, dtype=np.uint8)
        mask = self._peel(self._grow(set(defects)), set(defects))
        return _unmask_rows(
            np.array([mask], dtype=np.int64), self.graph.num_observables
        )[0]

    # -- reference growth ----------------------------------------------------

    def _grow(self, defects: Set[int]) -> Set[frozenset]:
        """Grow clusters until valid; returns the set of fully-grown edges.

        Edge growth is discretized: each cluster adds half an edge weight
        per round on its frontier; an edge is grown when the accumulated
        support reaches its weight.
        """
        parents: Dict[int, int] = {}
        clusters: Dict[int, _Cluster] = {}
        support: Dict[frozenset, float] = {}
        grown: Set[frozenset] = set()

        def ensure(node: int) -> None:
            if node not in parents:
                parents[node] = node
                clusters[node] = _Cluster(
                    node, 1 if node in defects else 0, node == BOUNDARY
                )

        for d in defects:
            ensure(d)

        def invalid_roots() -> List[int]:
            roots = {self._find(parents, d) for d in defects}
            return [r for r in roots if not clusters[r].is_valid]

        safety = 0
        while True:
            bad = invalid_roots()
            if not bad:
                return grown
            safety += 1
            if safety > _MAX_ROUNDS:
                state = {
                    root: (clusters[root].defects, clusters[root].touches_boundary)
                    for root in bad
                }
                raise RuntimeError(
                    "union-find growth failed to converge after "
                    f"{safety - 1} rounds; invalid clusters "
                    f"(root -> (defects, touches_boundary)): {state}; "
                    f"{len(grown)} edges grown"
                )
            for root in bad:
                nodes = [n for n in parents if self._find(parents, n) == root]
                for node in nodes:
                    for neighbor, weight, _mask in self._adjacency.get(node, ()):
                        key = frozenset((node, neighbor))
                        if key in grown:
                            continue
                        if weight <= _ZERO_WEIGHT:
                            # Effectively-free edge: grow it immediately.
                            support[key] = weight
                        else:
                            support[key] = support.get(key, 0.0) + weight / 2
                        if support[key] >= weight:
                            grown.add(key)
                            ensure(neighbor)
                            self._union(parents, clusters, node, neighbor)

    def _union(self, parents, clusters, a: int, b: int) -> None:
        ra = self._find(parents, a)
        rb = self._find(parents, b)
        if ra == rb:
            return
        parents[rb] = ra
        clusters[ra] = _Cluster(
            ra,
            clusters[ra].defects + clusters[rb].defects,
            clusters[ra].touches_boundary or clusters[rb].touches_boundary,
        )

    # -- reference peeling ---------------------------------------------------

    def _peel(self, grown: Set[frozenset], defects: Set[int]) -> int:
        """Peel spanning forests of the grown edges; return observable mask."""
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for key in grown:
            nodes = tuple(key)
            if len(nodes) == 1:
                continue
            u, v = nodes
            mask = self._edge_mask(u, v)
            adjacency.setdefault(u, []).append((v, mask))
            adjacency.setdefault(v, []).append((u, mask))
        # Build spanning trees rooted at boundary (if present) or any node.
        visited: Set[int] = set()
        total_mask = 0
        nodes = list(adjacency)
        # Prefer roots at the boundary so dangling defects peel onto it.
        nodes.sort(key=lambda n: 0 if n == BOUNDARY else 1)
        for start in nodes:
            if start in visited:
                continue
            order: List[Tuple[int, Optional[int], int]] = []
            stack = [(start, None, 0)]
            while stack:
                node, parent, mask = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                order.append((node, parent, mask))
                for neighbor, edge_mask in adjacency.get(node, ()):
                    if neighbor not in visited:
                        stack.append((neighbor, node, edge_mask))
            # Peel leaves upward: flip an edge when its child carries a defect.
            carry: Dict[int, int] = {
                node: 1 if node in defects else 0 for node, _, _ in order
            }
            for node, parent, mask in reversed(order):
                if parent is None:
                    continue
                if carry[node] % 2 == 1:
                    total_mask ^= mask
                    carry[parent] += 1
                    carry[node] = 0
        return total_mask

    def _edge_mask(self, u: int, v: int) -> int:
        edge = self.graph.edge_between(u, v)
        if edge is None:
            return 0
        mask = 0
        for obs in edge.observables:
            mask |= 1 << obs
        return mask
