"""Minimum-weight perfect-matching decoder on a decoding graph.

Defects (flipped detectors) are matched pairwise or to the boundary along
shortest paths of the decoding graph; the predicted logical flip is the XOR
of observable masks along the matched paths.

Tables: ``MWPMDecoder(graph)`` builds two dense tables in ``__init__``,
over the detectors plus the boundary (row/column ``num_detectors``):
all-pairs shortest-path distances, and the observable mask of one
shortest path per ordered pair.  Distances come from
``scipy.sparse.csgraph.dijkstra`` over a CSR matrix with one entry per
graph edge (``DecodingGraph`` has merged parallel edges already, and a
COO->CSR conversion would *sum* duplicates).  Unreachable pairs hold
``inf`` distance and mask 0.  Masks are uint64 words with a trailing word
axis, ``W = ceil(num_observables / 64)``, so one representation covers
any observable count (the sequential decoder's control graphs carry one
pseudo-observable per target detector).

Tie rule: several shortest paths may join a pair with different masks.
The table holds the mask of one canonical path, whatever order scipy's
heap settled nodes in: from source ``s``, the predecessor of ``v`` is the
lowest-index neighbour ``u`` with ``dist[s, u] + w(u, v) == dist[s, v]``
exactly.  Masks are XOR-ed down each source's predecessor tree in
distance order, vectorized across sources.

Matching: the defect set is split into clusters, the connected
components of ``d(u, v) < d(u, B) + d(v, B)`` (matching the pair directly
is strictly cheaper than routing both ends to the boundary).  A
minimum-weight matching never needs a pair that violates it -- two
boundary matchings cost no more -- so clusters are matched independently
without changing the optimal weight.  Each cluster is matched exactly:
up to :data:`_VEC_DP_LIMIT` defects by a subset-sum DP over the defect
set (vectorized over a batch's same-size clusters once a group holds
:data:`_VEC_DP_MIN_GROUP` of them, scalar below), and beyond that by
networkx's max-weight matching on the cluster's boundary-reduced gain
graph (networkx is imported only then).  Each cluster's mask is memoized
in a cross-call cache: in sub-threshold Monte-Carlo runs full syndromes
are mostly unique, but they are combinations of a *small* recurring set
of local clusters, so most unique syndromes cost a few dict lookups.
``repro_mwpm_clusters_total{path=}`` counts the cluster solves by
matcher, and the ``repro_mwpm_cluster_size{path=dp|blossom}`` histogram
records each solved cluster's defect count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.decoder.base import BatchDecoder, SparseTables, _mask_words, _unmask_rows
from repro.decoder.graph import DecodingGraph
from repro.obs import metrics as _metrics

# Cluster-mask cache entries kept before the cache is dropped wholesale; at
# sub-threshold noise the reachable cluster population is tiny, so this is
# purely a runaway guard for above-threshold inputs.
_CLUSTER_CACHE_LIMIT = 1 << 18

# Largest cluster solved by subset DP -- the batched table fill amortizes
# the 2^k blowup over whole defect-count groups, so it stays ahead of
# blossom up to here (measured crossover ~14-15 at d=7 cluster rates).
_VEC_DP_LIMIT = 14
# Vectorized subset-DP is used for a defect-count group when it has at
# least this many clusters; below that, per-cluster scalar DP has less
# overhead.
_VEC_DP_MIN_GROUP = 4

# Elements per (sources, arcs) block of the predecessor selection, which
# bounds its float temporaries to a few tens of MB at any graph size.
_TABLE_BLOCK_ELEMS = 1 << 21

# One increment per cluster solve (a cluster-cache miss), by matcher.
# The cluster cache is per process, so the number of solves a run needs
# depends on how its shards land on workers: unlike the decode shot and
# unique-row counters, this family is not worker-count invariant.
_CLUSTERS = _metrics.counter(
    "repro_mwpm_clusters_total",
    "Defect clusters MWPM matched (cluster-cache misses), by matcher: "
    "vectorized subset DP, scalar subset DP, or networkx blossom.",
    ("path",),
)
# The same solves, one observation each of the defect count (the spectrum
# that decides how much decode goes to blossom; 14 = _VEC_DP_LIMIT is a
# bucket edge).  Per process like _CLUSTERS, so not worker-count invariant.
_CLUSTER_SIZE = _metrics.histogram(
    "repro_mwpm_cluster_size",
    "Defects per cluster MWPM matched (cluster-cache misses), by matcher "
    "family: subset DP or networkx blossom.",
    ("path",),
    bounds=(1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64),
)

# Popcount-layer tables for the batched DP, memoized per defect count:
# (lowest-set-bit index, mask minus lowest bit, masks grouped by popcount).
_MASK_TABLES: Dict[int, Tuple[np.ndarray, np.ndarray, List[np.ndarray]]] = {}


def _mask_tables(k: int) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    cached = _MASK_TABLES.get(k)
    if cached is None:
        masks = np.arange(1 << k, dtype=np.int64)
        low = masks & -masks
        low_i = np.bitwise_count(np.maximum(low - 1, 0)).astype(np.int64)
        rest = masks ^ low
        popcount = np.bitwise_count(masks)
        layers = [np.flatnonzero(popcount == c) for c in range(1, k + 1)]
        cached = (low_i, rest, layers)
        _MASK_TABLES[k] = cached
    return cached


def _path_tables(graph: DecodingGraph) -> Tuple[np.ndarray, np.ndarray]:
    """(distance, path-mask) tables of ``graph``; see the module docstring.

    Returns ``dist`` of shape (N, N) and ``obs`` of shape (N, N, W), with
    ``N = num_detectors + 1`` and the boundary last.
    """
    n = graph.num_detectors
    size = n + 1
    words = max(1, -(-graph.num_observables // 64))  # >= 1 word per mask
    ends: List[Tuple[int, int]] = []
    weights: List[float] = []
    masks: List[List[int]] = []
    for edge in graph.edges:
        u, v = (edge.detectors[0], n) if len(edge.detectors) == 1 else edge.detectors
        if u == v:
            continue  # a self-loop lies on no shortest path
        mask = 0
        for obs in edge.observables:
            if not 0 <= obs < graph.num_observables:
                raise ValueError(f"observable index {obs} out of range")
            mask |= 1 << obs
        ends.append((u, v))
        weights.append(edge.weight)
        masks.append(_mask_words(mask, graph.num_observables))
    a, b = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    weight = np.array(weights, dtype=np.float64)
    dist = dijkstra(
        csr_matrix((weight, (a, b)), shape=(size, size)), directed=False
    )
    # Arcs in both directions, sorted by head then tail: the first tight
    # arc in a head's segment comes from its lowest-index neighbour.
    tail = np.concatenate([a, b])
    head = np.concatenate([b, a])
    order = np.lexsort((tail, head))
    tail, head = tail[order], head[order]
    arc_weight = np.concatenate([weight, weight])[order]
    edge_obs = np.array(masks, dtype=np.uint64).reshape(-1, words)
    # One zero-mask sentinel arc (index ``arcs``) for "no predecessor".
    arc_obs = np.concatenate([edge_obs, edge_obs])[order]
    arc_obs = np.concatenate([arc_obs, np.zeros((1, words), dtype=np.uint64)])
    arcs = tail.size
    pred = np.full((size, size), arcs, dtype=np.intp)
    if arcs:
        starts = np.flatnonzero(np.r_[True, head[1:] != head[:-1]])
        positions = np.arange(arcs)
        block = max(1, _TABLE_BLOCK_ELEMS // arcs)
        for lo in range(0, size, block):
            d = dist[lo : lo + block]
            tight = d[:, tail] + arc_weight == d[:, head]
            pred[lo : lo + block, head[starts]] = np.minimum.reduceat(
                np.where(tight, positions, arcs), starts, axis=1
            )
    pred[np.isinf(dist)] = arcs
    # Parents settle before children (edge weights are railed above 0), so
    # one pass over each row's distance ranks fills the tree.  A node
    # without a predecessor takes its source's own (zero) mask.
    rows = np.arange(size)
    tail = np.append(tail, 0)
    obs = np.zeros((size, size, words), dtype=np.uint64)
    rank = np.argsort(dist, axis=1, kind="stable")
    for r in range(1, int(np.isfinite(dist).sum(axis=1).max())):
        v = rank[:, r]
        arc = pred[rows, v]
        parent = np.where(arc == arcs, rows, tail[arc])
        obs[rows, v] = obs[rows, parent] ^ arc_obs[arc]
    return dist, obs


class MWPMDecoder(BatchDecoder):
    """Decoder instance bound to one decoding graph.

    Args:
        graph: decoding graph to match on.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        self._dist, self._obs = _path_tables(graph)
        self._cluster_cache: Dict[Tuple[int, ...], bytes] = {}
        self._sparse: "SparseTables | None" = None

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    @property
    def num_detectors(self) -> int:
        return self.graph.num_detectors

    # -- sparse fast path ---------------------------------------------------

    def _sparse_tables(self) -> SparseTables:
        """Closed-form <= 2-defect corrections from the path tables.

        A single defect matches the boundary (``bobs[u]``); a pair matches
        directly iff ``d(u, v) < d(u, B) + d(v, B)`` -- the cluster
        relation *and* the subset DP's strict-improvement rule, so ties
        resolve exactly as in :meth:`_match_dp` -- and otherwise routes
        both ends to the boundary.  Infeasible entries fall through to the
        full path, which raises the usual error.
        """
        if self._sparse is None:
            dist, obs = self._dist, self._obs
            n = self.graph.num_detectors
            bc = dist[:n, n]
            bobs = obs[:n, n]
            singles_ok = np.isfinite(bc)
            singles = _unmask_rows(bobs, self.graph.num_observables)
            singles[~singles_ok] = 0
            bsum = bc[:, None] + bc[None, :]
            use_pair = dist[:n, :n] < bsum
            pair_mask = np.where(
                use_pair[..., None], obs[:n, :n], bobs[:, None] ^ bobs[None, :]
            )
            self._sparse = SparseTables(
                singles=singles,
                singles_ok=singles_ok,
                pair_mask=pair_mask,
                pair_ok=use_pair | np.isfinite(bsum),
            )
        return self._sparse

    # -- batched decoding ---------------------------------------------------

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode unique syndrome rows with cross-row cluster batching.

        All rows are decomposed first, the union of their clusters is
        looked up in (or solved into) the cluster cache, and each row's
        prediction is the XOR of its clusters' masks.  A cluster's mask
        does not depend on its batch-mates, so neither does the output.
        """
        # Each row's clusters, as (row, slot) entries grouped by row, with
        # slots indexing the batch's distinct clusters.
        slots: Dict[Tuple[int, ...], int] = {}
        entry_rows: List[int] = []
        entry_slots: List[int] = []
        counts = syndromes.sum(axis=1)
        for k in np.unique(counts):
            k = int(k)
            if k == 0:
                continue
            rows = np.flatnonzero(counts == k)
            # np.nonzero walks rows in order with ascending columns, so
            # the reshape yields each row's sorted defect list.
            defs = np.nonzero(syndromes[rows])[1].reshape(rows.size, k)
            for row, clusters in zip(rows.tolist(), self._cluster_split_batch(defs)):
                for cluster in clusters:
                    entry_rows.append(row)
                    entry_slots.append(slots.setdefault(cluster, len(slots)))
        masks = np.zeros((syndromes.shape[0], self._obs.shape[2]), dtype=np.uint64)
        if entry_rows:
            entry_rows_arr = np.array(entry_rows)
            starts = np.flatnonzero(np.r_[True, np.diff(entry_rows_arr) != 0])
            masks[entry_rows_arr[starts]] = np.bitwise_xor.reduceat(
                self._cluster_masks(list(slots))[entry_slots], starts, axis=0
            )
        return _unmask_rows(masks, self.graph.num_observables)

    def _cluster_split_batch(
        self, defs: np.ndarray
    ) -> List[List[Tuple[int, ...]]]:
        """Split many same-count defect rows into matchable clusters.

        Clusters are the connected components of the relation
        ``d(u, v) < d(u, B) + d(v, B)``; cutting every other pair is
        weight-neutral (route both ends to the boundary instead), so the
        per-cluster optima compose into a global minimum-weight matching.
        The linkage test and transitive closure run vectorized over the
        whole ``(rows, k)`` batch; only the final member grouping walks
        rows in Python.
        """
        rows, k = defs.shape
        if k == 1:
            return [[(int(row[0]),)] for row in defs]
        dist = self._dist
        n = self.graph.num_detectors
        bc = dist[defs, n]
        linked = dist[defs[:, :, None], defs[:, None, :]] < (
            bc[:, :, None] + bc[:, None, :]
        )
        # Shortest pair paths may route *through* the boundary node, where
        # d(u, v) equals d(u, B) + d(v, B) up to float associativity and
        # the strict comparison can come out asymmetric.  Read only i < j
        # entries and mirror them, so the relation is symmetric.
        upper = np.triu(linked, 1)
        reach = upper | upper.transpose(0, 2, 1) | np.eye(k, dtype=bool)
        for _ in range(max(1, int(np.ceil(np.log2(k))))):
            reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)) > 0
        # Component label = lowest member index reaching each defect
        # (reach is symmetric, so labels are consistent per component).
        labels = np.argmax(reach, axis=1)
        out: List[List[Tuple[int, ...]]] = []
        for r in range(rows):
            groups: Dict[int, List[int]] = {}
            row_defs = defs[r]
            row_labels = labels[r]
            for i in range(k):
                groups.setdefault(int(row_labels[i]), []).append(int(row_defs[i]))
            out.append([tuple(members) for members in groups.values()])
        return out

    def _cluster_masks(self, clusters: List[Tuple[int, ...]]) -> np.ndarray:
        """(len(clusters), W) mask words, from the cache or solved now."""
        cache = self._cluster_cache
        found = [cache.get(cluster) for cluster in clusters]
        pending = [i for i, mask in enumerate(found) if mask is None]
        if pending:
            solved = self._solve_clusters([clusters[i] for i in pending])
            for i, mask in zip(pending, solved):
                found[i] = mask.tobytes()
        words = np.frombuffer(b"".join(found), dtype=np.uint64)
        return words.reshape(len(clusters), self._obs.shape[2])

    def _solve_clusters(self, clusters: List[Tuple[int, ...]]) -> np.ndarray:
        """Match clusters, vectorizing defect-count groups; cache the masks.

        The solve strategy depends only on the defect count (DP up to
        :data:`_VEC_DP_LIMIT`, blossom beyond), never on the group size:
        the vectorized and scalar DPs resolve ties identically, so a
        cluster's cached mask is independent of how -- and with what
        batch-mates -- it was first solved.
        """
        out = np.zeros((len(clusters), self._obs.shape[2]), dtype=np.uint64)
        by_size: Dict[int, List[int]] = {}
        for i, cluster in enumerate(clusters):
            by_size.setdefault(len(cluster), []).append(i)
        for k, group in sorted(by_size.items()):
            if k > _VEC_DP_LIMIT:
                path = "blossom"
                masks = [self._match_blossom(clusters[i]) for i in group]
            elif len(group) >= _VEC_DP_MIN_GROUP:
                path = "dp_batch"
                masks = self._match_dp_batch(
                    np.array([clusters[i] for i in group], dtype=np.intp)
                )
            else:
                path = "dp"
                masks = [self._match_dp(clusters[i]) for i in group]
            out[group] = masks
            if _metrics.enabled():
                _CLUSTERS.labels(path=path).inc(len(group))
                sizes = _CLUSTER_SIZE.labels(path="blossom" if k > _VEC_DP_LIMIT else "dp")
                for _ in group:
                    sizes.observe(k)
        cache = self._cluster_cache
        for cluster, mask in zip(clusters, out):
            if len(cache) >= _CLUSTER_CACHE_LIMIT:
                cache.clear()
            cache[cluster] = mask.tobytes()
        return out

    def _match_dp_batch(self, defs: np.ndarray) -> np.ndarray:
        """Subset DP over every row of ``defs`` (shape (B, k)) at once.

        The table is filled popcount layer by popcount layer, with each
        update vectorized over *both* the batch rows and the layer's
        masks, so the Python overhead is O(k^2) numpy calls regardless of
        batch size.  The recurrence, candidate order (boundary first,
        then partners in ascending defect order), and strict-improvement
        rule are the same as :meth:`_match_dp`, so each row's matching
        (including tie resolution) is identical to the scalar path's.
        Returns the (B, W) mask words.
        """
        batch, k = defs.shape
        dist = self._dist
        n = self.graph.num_detectors
        bcost = dist[defs, n]
        pcost = dist[defs[:, :, None], defs[:, None, :]]
        size = 1 << k
        low_i, rest_of, layers = _mask_tables(k)
        cost = np.full((batch, size), math.inf)
        choice = np.full((batch, size), -1, dtype=np.int8)
        cost[:, 0] = 0.0
        for layer in layers:
            i_l = low_i[layer]
            rest_l = rest_of[layer]
            best = bcost[:, i_l] + cost[:, rest_l]
            best_j = np.full((batch, layer.size), -1, dtype=np.int8)
            for j in range(k):
                has = ((rest_l >> j) & 1) == 1
                if not has.any():
                    continue
                i_s = i_l[has]
                rest_s = rest_l[has]
                candidate = pcost[:, i_s, j] + cost[:, rest_s ^ (1 << j)]
                current = best[:, has]
                better = candidate < current
                if better.any():
                    best[:, has] = np.where(better, candidate, current)
                    chosen = best_j[:, has]
                    chosen[better] = j
                    best_j[:, has] = chosen
            cost[:, layer] = best
            choice[:, layer] = best_j
        full = size - 1
        infeasible = np.isinf(cost[:, full])
        if infeasible.any():
            row = int(np.flatnonzero(infeasible)[0])
            raise ValueError(
                f"MWPM matching is not perfect: defects "
                f"{[int(d) for d in defs[row]]} cannot all be paired or "
                "routed to the boundary; the decoding graph cannot "
                "explain this syndrome"
            )
        # Walk every row's choices at once: each step resolves the lowest
        # open defect against its chosen partner (or the boundary).
        rows = np.arange(batch)
        open_set = np.full(batch, full, dtype=np.int64)
        out = np.zeros((batch, self._obs.shape[2]), dtype=np.uint64)
        for _ in range(k):
            live = open_set != 0
            if not live.any():
                break
            i = low_i[open_set]
            j = choice[rows, open_set].astype(np.intp)
            partner = np.where(j < 0, n, defs[rows, j])
            step = self._obs[defs[rows, i], partner]
            step[~live] = 0
            out ^= step
            closed = (1 << i) | np.where(j < 0, 0, 1 << np.maximum(j, 0))
            open_set = np.where(live, open_set ^ closed, 0)
        return out

    def _match_dp(self, defects: Sequence[int]) -> np.ndarray:
        """Subset DP: each defect pairs with a partner or the boundary.

        ``cost[mask]`` is the minimal weight to resolve the defect subset
        ``mask``; the lowest defect in the subset either matches the
        boundary or one of the remaining defects.  Exact for any defect
        count (the boundary absorbs arbitrarily many), and detects
        infeasible syndromes as an infinite total cost.  Returns the (W,)
        mask words.
        """
        k = len(defects)
        n = self.graph.num_detectors
        defs = np.asarray(defects, dtype=np.intp)
        boundary_cost = self._dist[defs, n].tolist()
        pair_cost = self._dist[np.ix_(defs, defs)].tolist()
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
                f"MWPM matching is not perfect: defects {list(defects)} cannot "
                "all be paired or routed to the boundary; the decoding graph "
                "cannot explain this syndrome"
            )
        starts: List[int] = []
        stops: List[int] = []
        mask = full
        while mask:
            i, j = choice[mask]
            starts.append(defects[i])
            stops.append(n if j < 0 else defects[j])
            mask ^= (1 << i) | (0 if j < 0 else 1 << j)
        return np.bitwise_xor.reduce(self._obs[starts, stops], axis=0)

    def _blossom_pairs(self, defects: Sequence[int]) -> List[Tuple[int, int]]:
        """Minimum-weight matching of one cluster by max-weight blossom.

        Minimizing ``sum_pairs d(u,v) + sum_unmatched d(u,B)`` equals
        maximizing the *gain* ``d(u,B) + d(v,B) - d(u,v)`` over a
        (possibly partial) matching, with unmatched defects routed to the
        boundary: a max-weight matching on just the cluster's ``k``
        defects, over the positive-gain pairs.  A defect with no boundary
        path gets a finite boundary cost above any finite matching's total
        weight, so the optimum pairs every such defect it can; one left
        over raises the usual "not perfect" error.

        Returns the matched ``(i, j)`` index pairs into ``defects``; the
        other defects match the boundary.
        """
        import networkx as nx

        k = len(defects)
        defs = np.asarray(defects, dtype=np.intp)
        n = self.graph.num_detectors
        bcost = self._dist[defs, n]
        pcost = self._dist[np.ix_(defs, defs)]
        reachable = np.isfinite(bcost)
        if not reachable.all():
            upper = pcost[np.triu_indices(k, 1)]
            ceiling = 1.0 + bcost[reachable].sum() + upper[np.isfinite(upper)].sum()
            bcost = np.where(reachable, bcost, ceiling)
        boundary_dist = bcost.tolist()
        pair_dist = pcost.tolist()
        match_graph = nx.Graph()
        match_graph.add_nodes_from(range(k))
        for i in range(k):
            row = pair_dist[i]
            for j in range(i + 1, k):
                gain = boundary_dist[i] + boundary_dist[j] - row[j]
                if gain > 0:
                    match_graph.add_edge(i, j, weight=gain)
        pairs = list(nx.algorithms.matching.max_weight_matching(match_graph))
        matched = {i for pair in pairs for i in pair}
        stranded = [
            defects[i] for i in range(k) if not reachable[i] and i not in matched
        ]
        if stranded:
            raise ValueError(
                f"MWPM matching is not perfect: defects {stranded} have no "
                f"boundary path and no available partner (defect count {k}); "
                "the decoding graph cannot explain this syndrome"
            )
        return pairs

    def _match_blossom(self, defects: Sequence[int]) -> np.ndarray:
        """(W,) mask words of :meth:`_blossom_pairs`' matching."""
        n = self.graph.num_detectors
        pairs = self._blossom_pairs(defects)
        matched = {i for pair in pairs for i in pair}
        starts = [defects[i] for i, _ in pairs]
        stops = [defects[j] for _, j in pairs]
        for i, u in enumerate(defects):
            if i not in matched:
                starts.append(u)
                stops.append(n)
        return np.bitwise_xor.reduce(self._obs[starts, stops], axis=0)
