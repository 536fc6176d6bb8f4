"""Frozen copy of the whole-syndrome MWPM decoder and its networkx tables.

:class:`ReferenceMWPM` is ``MWPMDecoder`` as it stood before the decoder
moved to scipy-built dense tables and a single cluster-decomposed path:
networkx ``single_source_dijkstra`` tables with Python path walks, the
whole-syndrome matcher (``decompose=False``), and ``matcher="auto"``
(subset DP up to :data:`_DP_MATCH_LIMIT` defects, the boundary-copy
blossom beyond) or ``matcher="blossom"`` (the copy-construction blossom
everywhere).  Tests certify the production tables and large-cluster
matchings against it, and the decode-engine bench times it as the
per-shot and unpacked-engine baselines.

Do not edit the methods below: they are the historical implementation
the certifications compare against.  The only changes are the ones the
shared base class needs: the per-row ``_decode_unique`` loop and
``num_detectors`` the base no longer supplies, and the int64 masks of
``_sparse_tables`` passed on as one-word uint64 rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.decoder.base import BatchDecoder, SparseTables, _unmask_rows
from repro.decoder.graph import BOUNDARY, DecodingGraph

# Largest defect count handled by the exact subset-DP matcher; beyond it
# the O(k 2^k) table loses to blossom.
_DP_MATCH_LIMIT = 12

# Observable masks fit the int64 dense table up to this many observables.
_VEC_DP_MAX_OBS = 62


class ReferenceMWPM(BatchDecoder):
    """Whole-syndrome MWPM decoder on networkx shortest-path tables.

    Args:
        graph: decoding graph to match on.
        matcher: ``"auto"`` (subset-DP for small defect sets, blossom
            otherwise) or ``"blossom"`` (always blossom).
    """

    def __init__(self, graph: DecodingGraph, matcher: str = "auto") -> None:
        if matcher not in ("auto", "blossom"):
            raise ValueError(f"unknown matcher {matcher!r}")
        self.graph = graph
        self.matcher = matcher
        self.decompose = False
        self._dense: "Tuple[np.ndarray, np.ndarray] | None" = None
        self._sparse: "SparseTables | bool | None" = None
        self._nx = nx.Graph()
        self._nx.add_node(BOUNDARY)
        for det in range(graph.num_detectors):
            self._nx.add_node(det)
        for edge in graph.edges:
            if len(edge.detectors) == 1:
                u, v = edge.detectors[0], BOUNDARY
            else:
                u, v = edge.detectors
            obs_mask = _mask(edge.observables, graph.num_observables)
            # Keep the lighter of parallel edges (merging already done).
            if self._nx.has_edge(u, v) and self._nx[u][v]["weight"] <= edge.weight:
                continue
            self._nx.add_edge(u, v, weight=edge.weight, obs=obs_mask)
        self._distance: Dict[int, Dict[int, float]] = {}
        self._path_obs: Dict[int, Dict[int, int]] = {}
        self._precompute_paths()

    def _precompute_paths(self) -> None:
        for source in self._nx.nodes:
            lengths, paths = nx.single_source_dijkstra(self._nx, source, weight="weight")
            self._distance[source] = lengths
            obs_map: Dict[int, int] = {}
            for dest, path in paths.items():
                mask = 0
                for a, b in zip(path, path[1:]):
                    mask ^= self._nx[a][b]["obs"]
                obs_map[dest] = mask
            self._path_obs[source] = obs_map

    # -- decoding -----------------------------------------------------------

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    @property
    def num_detectors(self) -> int:
        return self.graph.num_detectors

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict observable flips for one shot.

        Args:
            syndrome: uint8 vector over detectors (1 = defect).

        Returns:
            uint8 vector over observables with the predicted flips.
        """
        defects = [int(d) for d in np.flatnonzero(syndrome)]
        prediction = 0
        if defects:
            prediction = self._match(defects)
        return _unmask(prediction, self.graph.num_observables)

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        out = np.zeros((syndromes.shape[0], self.num_observables), dtype=np.uint8)
        for i in range(syndromes.shape[0]):
            out[i] = self.decode(syndromes[i])
        return out

    def _sparse_tables(self) -> "SparseTables | None":
        """Closed-form <= 2-defect corrections from the dense path tables.

        A single defect matches the boundary (``bobs[u]``); a pair matches
        directly iff ``d(u, v) < d(u, B) + d(v, B)`` -- the cluster
        relation *and* the subset DP's strict-improvement rule, so ties
        resolve exactly as in :meth:`_match_dp` -- and otherwise routes
        both ends to the boundary.  Only valid for the DP matcher (blossom
        breaks degenerate ties arbitrarily); infeasible entries fall
        through to the full path, which raises the usual error.
        """
        if self._sparse is None:
            if (
                self.matcher != "auto"
                or self.graph.num_observables > _VEC_DP_MAX_OBS
            ):
                self._sparse = False
            else:
                dist, obs = self._dense_tables()
                n = dist.shape[0] - 1
                num_obs = self.graph.num_observables
                bc = dist[:n, n]
                bobs = obs[:n, n]
                singles_ok = np.isfinite(bc)
                singles = _unmask_rows(bobs.view(np.uint64)[:, None], num_obs)
                singles[~singles_ok] = 0
                bsum = bc[:, None] + bc[None, :]
                use_pair = dist[:n, :n] < bsum
                pair_mask = np.where(
                    use_pair, obs[:n, :n], bobs[:, None] ^ bobs[None, :]
                ).view(np.uint64)[..., None]
                pair_ok = use_pair | np.isfinite(bsum)
                self._sparse = SparseTables(
                    singles=singles,
                    singles_ok=singles_ok,
                    pair_mask=pair_mask,
                    pair_ok=pair_ok,
                )
        return self._sparse or None

    # -- batched decoding ---------------------------------------------------

    def _dense_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """(distance, path-observable-mask) matrices over detectors+boundary.

        Row/column ``num_detectors`` is the boundary; unreachable pairs
        hold ``inf`` distance and mask 0.  Built lazily on the first
        batched decode.
        """
        if self._dense is None:
            n = self.graph.num_detectors
            dist = np.full((n + 1, n + 1), math.inf)
            # Observable masks only fit the int64 table up to
            # _VEC_DP_MAX_OBS observables (the sequential decoder's
            # pseudo-observable graphs exceed it); the vectorized DP is
            # disabled beyond that, so the mask table is never read.
            with_obs = self.graph.num_observables <= _VEC_DP_MAX_OBS
            obs = np.zeros((n + 1, n + 1), dtype=np.int64) if with_obs else None
            for u, lengths in self._distance.items():
                ui = n if u == BOUNDARY else u
                obs_row = self._path_obs[u]
                for v, length in lengths.items():
                    vi = n if v == BOUNDARY else v
                    dist[ui, vi] = length
                    if with_obs:
                        obs[ui, vi] = obs_row[v]
            self._dense = (dist, obs)
        return self._dense

    def _match(self, defects: List[int]) -> int:
        """Exact minimum-weight matching of the defect set."""
        unreachable = [d for d in defects if d not in self._distance]
        if unreachable:
            raise ValueError(f"defects outside the decoding graph: {unreachable}")
        if self.matcher == "auto" and len(defects) <= _DP_MATCH_LIMIT:
            return self._match_dp(defects)
        return self._match_blossom(defects)

    def _match_dp(self, defects: List[int]) -> int:
        """Subset DP: each defect pairs with a partner or the boundary.

        ``cost[mask]`` is the minimal weight to resolve the defect subset
        ``mask``; the lowest defect in the subset either matches the
        boundary or one of the remaining defects.  Exact for any defect
        count (the boundary absorbs arbitrarily many), and detects
        infeasible syndromes as an infinite total cost.
        """
        k = len(defects)
        boundary_cost = [
            self._distance[u].get(BOUNDARY, math.inf) for u in defects
        ]
        pair_cost = [
            [self._distance[u].get(v, math.inf) for v in defects] for u in defects
        ]
        size = 1 << k
        cost = [math.inf] * size
        choice: List[Tuple[int, int]] = [(-1, -1)] * size
        cost[0] = 0.0
        for mask in range(1, size):
            i = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << i)
            best = boundary_cost[i] + cost[rest]
            best_choice = (i, -1)
            row = pair_cost[i]
            submask = rest
            while submask:
                j = (submask & -submask).bit_length() - 1
                submask &= submask - 1
                candidate = row[j] + cost[rest ^ (1 << j)]
                if candidate < best:
                    best = candidate
                    best_choice = (i, j)
            cost[mask] = best
            choice[mask] = best_choice
        full = size - 1
        if math.isinf(cost[full]):
            raise ValueError(
                f"MWPM matching is not perfect: defects {defects} cannot all "
                "be paired or routed to the boundary; the decoding graph "
                "cannot explain this syndrome"
            )
        prediction = 0
        mask = full
        while mask:
            i, j = choice[mask]
            if j < 0:
                prediction ^= self._path_obs[defects[i]][BOUNDARY]
                mask ^= 1 << i
            else:
                prediction ^= self._path_obs[defects[i]][defects[j]]
                mask ^= (1 << i) | (1 << j)
        return prediction

    def _match_blossom(self, defects: List[int]) -> int:
        """Blossom matching on the defect graph with boundary copies.

        Defect-defect edges no cheaper than routing both ends to the
        boundary are pruned up front: a minimum-weight matching never
        needs them (replace the pair with its two boundary matchings), and
        they dominate the blossom run time on large defect sets.
        """
        boundary_dist = [
            self._distance[u].get(BOUNDARY, math.inf) for u in defects
        ]
        match_graph = nx.Graph()
        for i, u in enumerate(defects):
            match_graph.add_node(("d", i))
            match_graph.add_node(("b", i))
            if not math.isinf(boundary_dist[i]):
                match_graph.add_edge(("d", i), ("b", i), weight=boundary_dist[i])
            for j in range(i + 1, len(defects)):
                v = defects[j]
                dist = self._distance[u].get(v)
                if dist is not None and dist < boundary_dist[i] + boundary_dist[j]:
                    match_graph.add_edge(("d", i), ("d", j), weight=dist)
        for i in range(len(defects)):
            for j in range(i + 1, len(defects)):
                match_graph.add_edge(("b", i), ("b", j), weight=0.0)
        matching = nx.algorithms.matching.min_weight_matching(match_graph)
        # Blossom returns a maximum-cardinality matching, which is only
        # perfect when one exists.  With an odd defect count and defects
        # that cannot reach the boundary, some defect stays unmatched and
        # would previously be dropped silently, corrupting the prediction.
        matched = {node for pair in matching for node in pair}
        unmatched = [defects[i] for i in range(len(defects)) if ("d", i) not in matched]
        if unmatched:
            raise ValueError(
                f"MWPM matching is not perfect: defects {unmatched} have no "
                f"boundary path and no available partner (defect count "
                f"{len(defects)}); the decoding graph cannot explain this "
                "syndrome"
            )
        prediction = 0
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "d" and b[0] == "d":
                u, v = defects[a[1]], defects[b[1]]
                prediction ^= self._path_obs[u][v]
            else:
                defect_node = a if a[0] == "d" else b
                u = defects[defect_node[1]]
                prediction ^= self._path_obs[u][BOUNDARY]
        return prediction


def _mask(observables, num_observables: int) -> int:
    mask = 0
    for obs in observables:
        if obs >= num_observables:
            raise ValueError(f"observable index {obs} out of range")
        mask |= 1 << obs
    return mask


def _unmask(mask: int, num_observables: int) -> np.ndarray:
    out = np.zeros(num_observables, dtype=np.uint8)
    for i in range(num_observables):
        out[i] = (mask >> i) & 1
    return out
