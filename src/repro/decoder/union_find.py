"""Union-find decoder (paper Refs. [17, 90]).

A faster-but-less-accurate alternative to MWPM: defects grow clusters on
the decoding graph until every cluster is valid (even defect count or
touching the boundary); each cluster is then corrected by peeling a
spanning tree.  The paper's Fig. 13(a) motivates carrying such decoders:
they trade accuracy (a larger decoding factor alpha) for speed, and the
architecture tolerates the difference at ~50% volume cost.

Two implementations live here:

* The **batched arena** (default) runs cluster growth for a whole
  unique-syndrome batch at once: support is a flat ``(row, edge)`` touch
  counter updated with sorted-key scatters over the graph's CSR incidence
  arrays, cluster membership is a per-row union-find over dense
  ``(rows, nodes)`` parent tables with vectorized path compression, and
  the final correction peels the recorded spanning forest of every row
  simultaneously (leaf rounds over compact node instances).  Half-edge
  growth discretizes exactly to touch counting -- every increment of an
  edge's support is half that same edge's weight, so an edge is grown at
  two touches (one for zero-weight rails) -- which is what makes the
  integer batch formulation bit-exact per row.
* The **reference** per-shot implementation (the ``_grow``/``_peel``
  methods) is the sequential Delfosse-Nickerson loop.  It is a production
  path, not only a baseline: every row the arena flags as not certified
  bit-identical (a few percent of unique rows on dense, importance-sampled
  syndromes) is re-decoded through it, and ``batched=False`` or more than
  62 observables route every row through it.  Its output is held bit for
  bit to a frozen copy of the original loop in the tests; edge-set
  iteration order decides the peel, so the loop keeps every container's
  construction order.

Rows are independent in the arena: predictions are a pure per-row
function, so batch composition and row order never change the output
(the ``registry_contract`` analysis pass checks this for every
registered decoder).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.decoder.base import BatchDecoder, SparseTables, _mask_words, _unmask_rows
from repro.decoder.graph import BOUNDARY, DecodingGraph
from repro.obs import metrics as _metrics

# One increment per path per _decode_unique call.  The reference share is
# the arena's flagged rows (plus every row when the arena is off); the
# pair is a deterministic function of the decoded rows, so it merges
# worker-count invariantly like the decode shot/unique counters.
_UF_ROWS = _metrics.counter(
    "repro_uf_rows_total",
    "Unique syndrome rows union-find decoded, by path: the batched arena "
    "or the per-shot reference loop.",
    ("path",),
)

# Edges whose -log-likelihood weight rails to ~0 (probability pinned at
# the 0.499999 rail in Edge.weight) are grown in one step: half-edge
# increments of a vanishing weight would otherwise stall the frontier.
_ZERO_WEIGHT = 1e-5

# Growth rounds before the decoder declares non-convergence (a defect
# that can never become valid, e.g. a severed adjacency).
_MAX_ROUNDS = 10_000

# Observable masks ride int64 scalars through the arena; graphs with more
# observables fall back to the reference path (mirrors the MWPM decoder's
# vectorized-DP limit).
_MASK_OBS_LIMIT = 62

# Upper bound on rows x max(nodes, edges) elements held live per arena
# chunk, bounding the dense per-row state tables.
_ARENA_CHUNK_ELEMS = 1 << 24


class _EdgeArrays(NamedTuple):
    """Flat edge/incidence arrays of the decoding graph for the arena.

    The boundary is materialized as node index ``num_detectors``; edges
    are sorted by endpoint pair so every derived ordering (and therefore
    every tie in the arena) is a pure function of the graph.
    """

    node_count: int  # detectors + 1 (boundary at index num_detectors)
    ea: np.ndarray  # (E,) int64 lower endpoint
    eb: np.ndarray  # (E,) int64 upper endpoint
    mask: np.ndarray  # (E,) int64 observable mask
    thresh: np.ndarray  # (E,) uint8 touches to grow (1 zero-weight, else 2)
    indptr: np.ndarray  # (node_count + 1,) CSR over incident edges
    inc_edge: np.ndarray  # incident edge index per CSR slot


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (s, c) pair, vectorized.

    ``counts`` must be strictly positive (filter zeros before calling).
    """
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        idx = np.cumsum(counts)[:-1]
        out[idx] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    np.cumsum(out, out=out)
    return out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int array (``np.unique`` without the
    hash table numpy >= 2.3 builds for it, which is ~20x slower here)."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Bool mask marking the first occurrence of every distinct key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    win = np.zeros(keys.size, dtype=bool)
    win[order[first]] = True
    return win


def _find_rows(parent: np.ndarray, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Vectorized union-find root lookup with per-query path compression.

    ``parent`` is a C-contiguous ``(rows, nodes)`` table; lookups go
    through its flat view (1-D fancy indexing is ~3x cheaper than 2-D).
    """
    if rows.size == 0:
        return nodes
    flat = parent.reshape(-1)
    base = rows * parent.shape[1]
    p = flat[base + nodes]
    while True:
        gp = flat[base + p]
        if np.array_equal(gp, p):
            break
        p = gp
    flat[base + nodes] = p
    return p


class UnionFindDecoder(BatchDecoder):
    """Cluster-growth decoder on a :class:`DecodingGraph`.

    Args:
        graph: decoding graph to grow clusters on.
        batched: when True (default), decode through the vectorized
            multi-row arena, re-decoding the rows it flags through the
            per-shot reference loop; ``False`` decodes every row through
            that loop (the pre-arena path, also the decode-phase
            benchmark's baseline).
    """

    def __init__(self, graph: DecodingGraph, *, batched: bool = True) -> None:
        self.graph = graph
        self.batched = batched
        # Per node: (neighbor, weight, key) with key the frozenset
        # ``{node, neighbor}`` built in that element order once, here --
        # the reference loop's edge sets iterate (and so peel) in the
        # order their keys were built.
        self._adjacency: Dict[int, List[Tuple[int, float, frozenset]]] = {}
        self._edge_masks: Dict[frozenset, int] = {}
        for edge in graph.edges:
            if len(edge.detectors) == 1:
                u, v = edge.detectors[0], BOUNDARY
            else:
                u, v = edge.detectors
            mask = 0
            for obs in edge.observables:
                mask |= 1 << obs
            self._edge_masks[frozenset((u, v))] = mask
            self._adjacency.setdefault(u, []).append(
                (v, edge.weight, frozenset((u, v)))
            )
            self._adjacency.setdefault(v, []).append(
                (u, edge.weight, frozenset((v, u)))
            )
        self._edge_cache: Optional[_EdgeArrays] = None
        self._sparse_cache: "SparseTables | bool | None" = None

    @property
    def num_observables(self) -> int:
        return self.graph.num_observables

    @property
    def num_detectors(self) -> int:
        return self.graph.num_detectors

    def _decode_reference(self, syndrome: np.ndarray) -> np.ndarray:
        """Per-shot reference decode (sequential growth + DFS peel)."""
        defects = [int(d) for d in np.flatnonzero(syndrome)]
        if not defects:
            return np.zeros(self.graph.num_observables, dtype=np.uint8)
        mask = self._peel(self._grow(set(defects)), set(defects))
        num_obs = self.graph.num_observables
        return _unmask_rows(
            np.array(_mask_words(mask, num_obs), dtype=np.uint64), num_obs
        )

    # -- sparse fast path ---------------------------------------------------

    def _sparse_tables(self) -> Optional[SparseTables]:
        """Single-defect correction table, precomputed through the arena.

        Unlike MWPM, a union-find pair correction is not a shortest-path
        closed form (it depends on the cluster-growth geometry), so only
        the singles table is precomputed: every boundary-reachable
        detector's one-defect syndrome is decoded once as a single arena
        batch.  Table rows are exact :meth:`decode` outputs, so the fast
        path is bit-identical by construction.
        """
        if not self.batched or self.graph.num_observables > _MASK_OBS_LIMIT:
            return None
        if self._sparse_cache is None:
            n = self.graph.num_detectors
            edges = self._edge_arrays()
            # A lone defect converges iff its component holds the boundary;
            # isolated defects stay out of the table (the full path raises
            # its non-convergence error for them).
            reach = np.zeros(edges.node_count, dtype=bool)
            reach[edges.node_count - 1] = True
            while True:
                live = reach[edges.ea] | reach[edges.eb]
                before = int(reach.sum())
                reach[edges.ea[live]] = True
                reach[edges.eb[live]] = True
                if int(reach.sum()) == before:
                    break
            singles_ok = reach[:n].copy()
            singles = np.zeros(
                (n, self.graph.num_observables), dtype=np.uint8
            )
            ok_rows = np.flatnonzero(singles_ok)
            if ok_rows.size and n:
                eye = np.zeros((ok_rows.size, n), dtype=np.uint8)
                eye[np.arange(ok_rows.size), ok_rows] = 1
                # Uncounted: table set-up is not decode traffic, and it
                # runs once per process (per worker in a pool).
                singles[ok_rows] = self._decode_rows(eye)[0]
            self._sparse_cache = SparseTables(
                singles=singles, singles_ok=singles_ok
            ) if n else False
        return self._sparse_cache or None

    # -- batched arena -------------------------------------------------------

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode deduplicated syndrome rows through the growth arena."""
        out, reference_rows = self._decode_rows(syndromes)
        if _metrics.enabled():
            _UF_ROWS.labels(path="arena").inc(syndromes.shape[0] - reference_rows)
            _UF_ROWS.labels(path="reference").inc(reference_rows)
        return out

    def _decode_rows(self, syndromes: np.ndarray) -> Tuple[np.ndarray, int]:
        """Uncounted body of :meth:`_decode_unique`; returns the prediction
        rows and how many of them the per-shot reference loop decoded."""
        num_obs = self.graph.num_observables
        if not self.batched or num_obs > _MASK_OBS_LIMIT:
            out = np.zeros((syndromes.shape[0], num_obs), dtype=np.uint8)
            for i in range(syndromes.shape[0]):
                out[i] = self._decode_reference(syndromes[i])
            return out, syndromes.shape[0]
        edges = self._edge_arrays()
        rows = syndromes.shape[0]
        width = max(edges.node_count, edges.ea.size, 1)
        chunk = max(1, _ARENA_CHUNK_ELEMS // width)
        masks = np.zeros(rows, dtype=np.int64)
        flagged = np.zeros(rows, dtype=bool)
        for start in range(0, rows, chunk):
            block = np.ascontiguousarray(syndromes[start:start + chunk])
            masks[start:start + chunk], flagged[start:start + chunk] = (
                self._arena(block, edges)
            )
        out = _unmask_rows(masks.view(np.uint64)[:, None], num_obs)
        # Rows where round-synchronous growth could diverge from the
        # sequential reference (live-live merges with carried-over support,
        # or a grown cycle whose observable mask makes the correction
        # spanning-tree dependent) re-decode through the reference path so
        # the arena is bit-identical to it on every row.
        redo = np.flatnonzero(flagged)
        for i in redo:
            out[i] = self._decode_reference(syndromes[i])
        return out, redo.size

    def _edge_arrays(self) -> _EdgeArrays:
        """Canonical flat edge list + CSR incidence, built lazily."""
        if self._edge_cache is None:
            n = self.graph.num_detectors
            merged: Dict[Tuple[int, int], Tuple[float, int]] = {}
            for u, nbrs in self._adjacency.items():
                ui = n if u == BOUNDARY else u
                for v, weight, edge_key in nbrs:
                    vi = n if v == BOUNDARY else v
                    key = (ui, vi) if ui < vi else (vi, ui)
                    merged.setdefault(key, (weight, self._edge_masks[edge_key]))
            keys = sorted(merged)
            count = len(keys)
            ea = np.fromiter((k[0] for k in keys), dtype=np.int64, count=count)
            eb = np.fromiter((k[1] for k in keys), dtype=np.int64, count=count)
            weight = np.fromiter(
                (merged[k][0] for k in keys), dtype=np.float64, count=count
            )
            mask = np.fromiter(
                (merged[k][1] for k in keys), dtype=np.int64, count=count
            )
            thresh = np.where(weight <= _ZERO_WEIGHT, 1, 2).astype(np.uint8)
            if count:
                ends = np.concatenate([ea, eb])
                eids = np.concatenate([np.arange(count, dtype=np.int64)] * 2)
                order = np.lexsort((eids, ends))
                inc_edge = eids[order]
                counts = np.bincount(ends, minlength=n + 1)
            else:
                inc_edge = np.zeros(0, dtype=np.int64)
                counts = np.zeros(n + 1, dtype=np.int64)
            indptr = np.zeros(n + 2, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._edge_cache = _EdgeArrays(
                node_count=n + 1,
                ea=ea,
                eb=eb,
                mask=mask,
                thresh=thresh,
                indptr=indptr,
                inc_edge=inc_edge,
            )
        return self._edge_cache

    def _arena(
        self, syndromes: np.ndarray, edges: _EdgeArrays
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Grow and peel every row of one chunk.

        Returns ``(masks, flagged)``: int64 observable masks per row, and a
        bool row mask marking rows whose arena result is not certified
        bit-identical to the sequential reference (the caller re-decodes
        those through :meth:`_decode_reference`).

        Growth is round-synchronous: every node of every invalid cluster
        adds one touch to each un-grown incident edge, edges at threshold
        grow, and the resulting events apply as ensure-then-union in
        canonical (row, edge) order via a vectorized link loop.  Cluster
        validity (defect parity, boundary contact) is recomputed from the
        membership pairs at every round start rather than maintained
        incrementally.

        The reference loop processes clusters sequentially *within* a
        round, so a merge can absorb a cluster whose turn had not happened
        yet, skipping its touches for that round.  That is only possible
        when the merge edge entered the round one touch below threshold
        (a single cluster's touch completes it mid-round); such rows are
        flagged rather than emulated.  Every other divergence is a
        spanning-tree choice, which the peel-side potential check flags.
        """
        rows = syndromes.shape[0]
        node_count = edges.node_count
        boundary = node_count - 1
        num_edges = edges.ea.size
        flagged = np.zeros(rows, dtype=bool)
        rows0, nodes0 = np.nonzero(syndromes)
        if rows0.size == 0:
            return np.zeros(rows, dtype=np.int64), flagged
        parent = np.broadcast_to(
            np.arange(node_count, dtype=np.int64), (rows, node_count)
        ).copy()
        in_cl = np.zeros((rows, node_count), dtype=bool)
        in_cl[rows0, nodes0] = True
        # Defect indicator padded with a zero boundary column so cluster
        # stats index it directly with (row, node) membership pairs.
        defect_pad = np.zeros((rows, node_count), dtype=np.int64)
        defect_pad[:, :node_count - 1] = syndromes
        act_r = rows0.astype(np.int64)
        act_n = nodes0.astype(np.int64)
        support = np.zeros(rows * num_edges, dtype=np.uint8)
        grown = np.zeros(rows * num_edges, dtype=bool)
        tree_rows: List[np.ndarray] = []
        tree_edges: List[np.ndarray] = []
        for round_no in range(_MAX_ROUNDS + 1):
            roots = _find_rows(parent, act_r, act_n)
            # Fresh cluster stats: defect parity and boundary contact per
            # root, scattered back to the membership pairs.
            root_keys = act_r * node_count + roots
            uniq_roots, root_inv = np.unique(root_keys, return_inverse=True)
            defects = np.bincount(
                root_inv, weights=defect_pad[act_r, act_n],
                minlength=uniq_roots.size,
            ).astype(np.int64)
            touches = np.zeros(uniq_roots.size, dtype=bool)
            touches[root_inv[act_n == boundary]] = True
            live = ~(touches[root_inv] | (defects[root_inv] % 2 == 0))
            if not live.any():
                break
            if round_no == _MAX_ROUNDS:
                raise self._convergence_error(
                    act_r, roots, live, defects[root_inv],
                    touches[root_inv], grown, num_edges,
                )
            # Rows whose clusters are all valid stop paying per-round cost.
            row_live = np.zeros(rows, dtype=bool)
            row_live[act_r[live]] = True
            keep = row_live[act_r]
            if not keep.all():
                act_r, act_n = act_r[keep], act_n[keep]
                live = live[keep]
            rows_l = act_r[live]
            nodes_l = act_n[live]
            # One touch per (invalid-cluster node, incident un-grown edge).
            starts = edges.indptr[nodes_l]
            cnts = edges.indptr[nodes_l + 1] - starts
            nz = cnts > 0
            total = int(cnts.sum())
            if total == 0:
                continue
            pos = _ragged_ranges(starts[nz], cnts[nz], total)
            touched = np.repeat(rows_l[nz], cnts[nz]) * num_edges
            touched += edges.inc_edge[pos]
            touched = touched[~grown[touched]]
            if touched.size == 0:
                continue
            cand, counts = np.unique(touched, return_counts=True)
            prev = support[cand].astype(np.int64)
            support[cand] += counts.astype(np.uint8)
            ready = support[cand] >= edges.thresh[cand % num_edges]
            newly = cand[ready]
            if newly.size == 0:
                continue
            grown[newly] = True
            # Edges entering the round one touch below threshold can grow
            # at a single cluster's sequential turn in the reference loop;
            # _apply_events flags live-live merges on those edges.
            risky = prev[ready] == (
                edges.thresh[newly % num_edges].astype(np.int64) - 1
            )
            new_r, new_n = self._apply_events(
                newly, risky, edges, parent, in_cl,
                tree_rows, tree_edges, flagged, boundary, node_count, num_edges,
            )
            if new_r.size:
                act_r = np.concatenate([act_r, new_r])
                act_n = np.concatenate([act_n, new_n])
        masks = self._peel_forest(
            rows, tree_rows, tree_edges, syndromes, edges, grown, flagged
        )
        return masks, flagged

    def _apply_events(
        self,
        newly: np.ndarray,
        risky: np.ndarray,
        edges: _EdgeArrays,
        parent: np.ndarray,
        in_cl: np.ndarray,
        tree_rows: List[np.ndarray],
        tree_edges: List[np.ndarray],
        flagged: np.ndarray,
        boundary: int,
        node_count: int,
        num_edges: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply one round's grown edges; returns the new (row, node) pairs.

        ``newly`` is sorted by flat (row, edge) key.  Endpoints outside
        any cluster are ensured as singletons first (the reference loop's
        ``ensure``), turning every event into a union.  Unions run as a
        vectorized link loop: each pass links the higher root under the
        lower (strictly decreasing, hence acyclic and safe to apply
        simultaneously), first event per target root wins, losers retry
        next pass, and same-root events drop as cycles.
        """
        g_r = newly // num_edges
        g_e = newly % num_edges
        ends_a = edges.ea[g_e]
        ends_b = edges.eb[g_e]
        in_a = in_cl[g_r, ends_a]
        in_b = in_cl[g_r, ends_b]
        # A risky edge joining two distinct round-start clusters is the
        # one event whose sequential-order effects the arena cannot
        # reproduce; flag the row for reference re-decode.
        merge_risk = np.flatnonzero(in_a & in_b & risky)
        if merge_risk.size:
            ru0 = _find_rows(parent, g_r[merge_risk], ends_a[merge_risk])
            rv0 = _find_rows(parent, g_r[merge_risk], ends_b[merge_risk])
            flagged[g_r[merge_risk[ru0 != rv0]]] = True
        # Ensure fresh endpoints as singleton clusters (they are their own
        # roots already); they join via the union loop below.
        fresh_r = np.concatenate([g_r[~in_a], g_r[~in_b]])
        fresh_n = np.concatenate([ends_a[~in_a], ends_b[~in_b]])
        if fresh_r.size:
            fresh_keys = _sorted_unique(fresh_r * node_count + fresh_n)
            fresh_r = fresh_keys // node_count
            fresh_n = fresh_keys % node_count
            in_cl[fresh_r, fresh_n] = True
        rem = np.arange(newly.size)
        tr: List[np.ndarray] = []
        te: List[np.ndarray] = []
        while rem.size:
            ru = _find_rows(parent, g_r[rem], ends_a[rem])
            rv = _find_rows(parent, g_r[rem], ends_b[rem])
            merge = ru != rv
            rem = rem[merge]
            if rem.size == 0:
                break
            ru = ru[merge]
            rv = rv[merge]
            hi = np.maximum(ru, rv)
            lo = np.minimum(ru, rv)
            win = _first_occurrences(g_r[rem] * node_count + hi)
            widx = rem[win]
            parent[g_r[widx], hi[win]] = lo[win]
            tr.append(g_r[widx])
            te.append(g_e[widx])
            rem = rem[~win]
        if tr:
            tree_rows.append(np.concatenate(tr))
            tree_edges.append(np.concatenate(te))
        return fresh_r, fresh_n

    def _peel_forest(
        self,
        rows: int,
        tree_rows: List[np.ndarray],
        tree_edges: List[np.ndarray],
        syndromes: np.ndarray,
        edges: _EdgeArrays,
        grown: np.ndarray,
        flagged: np.ndarray,
    ) -> np.ndarray:
        """Peel every row's spanning forest at once; returns int64 masks.

        A tree edge is flipped iff its leaf-side subtree holds odd defect
        parity, so the result is independent of peel order; leaves are
        removed in synchronized rounds over compact (row, node) instances.

        The reference peel picks *its own* spanning tree over the grown
        subgraph; two trees give the same correction iff every grown cycle
        carries a zero observable mask.  After peeling, tree-derived node
        potentials certify each non-tree grown edge; rows with an
        inconsistent cycle are flagged for reference re-decode.
        """
        masks = np.zeros(rows, dtype=np.int64)
        num_edges = edges.ea.size
        grown_flat = np.flatnonzero(grown)
        if not tree_rows:
            flagged[grown_flat // num_edges] = True
            return masks
        t_r = np.concatenate(tree_rows)
        t_e = np.concatenate(tree_edges)
        if t_r.size == 0:
            flagged[grown_flat // num_edges] = True
            return masks
        node_count = edges.node_count
        boundary = node_count - 1
        e_u = edges.ea[t_e]
        e_v = edges.eb[t_e]
        e_mask = edges.mask[t_e]
        keys = np.concatenate([t_r * node_count + e_u, t_r * node_count + e_v])
        inst_keys, inverse = np.unique(keys, return_inverse=True)
        count = t_e.size
        uid = np.asarray(inverse[:count], dtype=np.int64)
        vid = np.asarray(inverse[count:], dtype=np.int64)
        total = inst_keys.size
        deg = np.bincount(uid, minlength=total) + np.bincount(vid, minlength=total)
        xor_nbr = np.zeros(total, dtype=np.int64)
        np.bitwise_xor.at(xor_nbr, uid, vid)
        np.bitwise_xor.at(xor_nbr, vid, uid)
        xor_mask = np.zeros(total, dtype=np.int64)
        np.bitwise_xor.at(xor_mask, uid, e_mask)
        np.bitwise_xor.at(xor_mask, vid, e_mask)
        node_of = inst_keys % node_count
        row_of = inst_keys // node_count
        detector = node_of != boundary
        parity = np.zeros(total, dtype=np.int64)
        parity[detector] = syndromes[row_of[detector], node_of[detector]]
        replay: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while True:
            leaves = np.flatnonzero(detector & (deg == 1))
            if leaves.size == 0:
                break
            nbr = xor_nbr[leaves]
            # A two-node component has two mutual leaves; the larger
            # instance id defers so exactly one side peels the edge.
            skip = (deg[nbr] == 1) & detector[nbr] & (nbr < leaves)
            if skip.any():
                leaves = leaves[~skip]
                nbr = nbr[~skip]
            leaf_mask = xor_mask[leaves]
            replay.append((leaves, nbr, leaf_mask))
            odd = parity[leaves] == 1
            if odd.any():
                np.bitwise_xor.at(masks, row_of[leaves[odd]], leaf_mask[odd])
                np.bitwise_xor.at(parity, nbr[odd], 1)
            np.subtract.at(deg, nbr, 1)
            np.bitwise_xor.at(xor_nbr, nbr, leaves)
            np.bitwise_xor.at(xor_mask, nbr, leaf_mask)
            deg[leaves] = 0
        # Certify non-tree grown edges against tree potentials: replaying
        # the peel in reverse assigns phi root-first along every path.
        # Tree edges are grown edges, so they index into sorted grown_flat.
        non_tree = np.ones(grown_flat.size, dtype=bool)
        non_tree[np.searchsorted(grown_flat, t_r * num_edges + t_e)] = False
        cycle_flat = grown_flat[non_tree]
        if cycle_flat.size:
            phi = np.zeros(total, dtype=np.int64)
            for leaves, nbr, leaf_mask in reversed(replay):
                phi[leaves] = phi[nbr] ^ leaf_mask
            c_r = cycle_flat // num_edges
            c_e = cycle_flat % num_edges
            key_u = c_r * node_count + edges.ea[c_e]
            key_v = c_r * node_count + edges.eb[c_e]
            iu = np.minimum(np.searchsorted(inst_keys, key_u), total - 1)
            iv = np.minimum(np.searchsorted(inst_keys, key_v), total - 1)
            consistent = (
                (inst_keys[iu] == key_u)
                & (inst_keys[iv] == key_v)
                & ((phi[iu] ^ phi[iv]) == edges.mask[c_e])
            )
            if not consistent.all():
                flagged[c_r[~consistent]] = True
        return masks

    def _convergence_error(
        self,
        act_r: np.ndarray,
        roots: np.ndarray,
        live: np.ndarray,
        pair_defects: np.ndarray,
        pair_touches: np.ndarray,
        grown: np.ndarray,
        num_edges: int,
    ) -> RuntimeError:
        row = int(act_r[live][0])
        sel = live & (act_r == row)
        state = {
            int(root): (int(dc), bool(tb))
            for root, dc, tb in zip(
                roots[sel], pair_defects[sel], pair_touches[sel]
            )
        }
        grown_count = int(grown[row * num_edges:(row + 1) * num_edges].sum())
        return RuntimeError(
            "union-find growth failed to converge after "
            f"{_MAX_ROUNDS} rounds; invalid clusters "
            f"(root -> (defects, touches_boundary)): {state}; "
            f"{grown_count} edges grown"
        )

    # -- reference growth ----------------------------------------------------

    def _grow(self, defects: Set[int]) -> Set[frozenset]:
        """Grow clusters until valid; returns the set of fully-grown edges.

        Edge growth is discretized: each cluster adds half an edge weight
        per round on its frontier; an edge is grown when the accumulated
        support reaches its weight.  Invalid clusters take their turns
        sequentially within a round, so a cluster absorbed by an earlier
        turn skips its own.
        """
        adjacency = self._adjacency
        parents: Dict[int, int] = {}
        # Per root: [defect count, touches boundary].
        stats: Dict[int, List] = {}
        support: Dict[frozenset, float] = {}
        grown: Set[frozenset] = set()

        def find(node: int) -> int:
            root = node
            while parents[root] != root:
                root = parents[root]
            while parents[node] != root:
                parents[node], node = root, parents[node]
            return root

        for d in defects:
            parents[d] = d
            stats[d] = [1, d == BOUNDARY]

        rounds = 0
        while True:
            roots = {find(d) for d in defects}
            bad = [
                r for r in roots if not (stats[r][1] or stats[r][0] % 2 == 0)
            ]
            if not bad:
                return grown
            rounds += 1
            if rounds > _MAX_ROUNDS:
                state = {root: tuple(stats[root]) for root in bad}
                raise RuntimeError(
                    "union-find growth failed to converge after "
                    f"{rounds - 1} rounds; invalid clusters "
                    f"(root -> (defects, touches_boundary)): {state}; "
                    f"{len(grown)} edges grown"
                )
            # Members per root in node-insertion order.  A turn only ever
            # absorbs other clusters into its own root, so a later root's
            # members are unchanged at its turn -- or it has been absorbed
            # and is no longer a root.
            members: Dict[int, List[int]] = {}
            for node in parents:
                members.setdefault(find(node), []).append(node)
            for root in bad:
                if parents[root] != root:
                    continue
                root_stats = stats[root]
                for node in members[root]:
                    for neighbor, weight, key in adjacency.get(node, ()):
                        if key in grown:
                            continue
                        if weight <= _ZERO_WEIGHT:
                            # Effectively-free edge: grow it immediately.
                            grown_support = support[key] = weight
                        else:
                            grown_support = support[key] = (
                                support.get(key, 0.0) + weight / 2
                            )
                        if grown_support < weight:
                            continue
                        grown.add(key)
                        if neighbor not in parents:
                            parents[neighbor] = neighbor
                            stats[neighbor] = [
                                1 if neighbor in defects else 0,
                                neighbor == BOUNDARY,
                            ]
                        other = find(neighbor)
                        if other != root:
                            parents[other] = root
                            other_stats = stats.pop(other)
                            root_stats[0] += other_stats[0]
                            root_stats[1] = root_stats[1] or other_stats[1]

    # -- reference peeling ---------------------------------------------------

    def _peel(self, grown: Set[frozenset], defects: Set[int]) -> int:
        """Peel spanning forests of the grown edges; return observable mask."""
        edge_masks = self._edge_masks
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for key in grown:
            if len(key) != 2:
                continue
            u, v = key
            mask = edge_masks[key]
            adjacency.setdefault(u, []).append((v, mask))
            adjacency.setdefault(v, []).append((u, mask))
        # Build spanning trees rooted at boundary (if present) or any node.
        visited: Set[int] = set()
        total_mask = 0
        nodes = list(adjacency)
        # Prefer roots at the boundary so dangling defects peel onto it.
        if BOUNDARY in adjacency:
            nodes.remove(BOUNDARY)
            nodes.insert(0, BOUNDARY)
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
                for neighbor, edge_mask in adjacency[node]:
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
