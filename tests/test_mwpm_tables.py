"""MWPM's scipy-built path tables and single matching path.

* The dense distance/mask tables are certified against the networkx tables
  of the frozen whole-syndrome decoder (``tests/oracles/mwpm_v1.py``):
  distances bit-equal (``inf`` pattern included), masks equal wherever
  every float-shortest path carries one mask, and elsewhere the canonical
  tie rule's mask, which is one of the achievable ones.
* The boundary-reduced blossom matches large clusters, boundaryless
  defects included, at the copy-construction blossom's minimum weight.
* ``repro_mwpm_clusters_total`` counts cluster solves by matcher.
* Decoding a small MWPM batch never imports networkx.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from repro.decoder.engine import make_decoder
from repro.decoder.graph import BOUNDARY, DecodingGraph
from repro.decoder.mwpm import MWPMDecoder
from repro.noise.dem import extract_dem
from repro.obs.metrics import REGISTRY
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.sim.memory import memory_circuit, transversal_cnot_experiment

from oracles.mwpm_v1 import ReferenceMWPM


def _memory_graph(distance, uniform=False):
    dem = extract_dem(memory_circuit(distance, distance, 1e-3))
    if uniform:
        return DecodingGraph.from_dem_uniform(dem)
    return DecodingGraph.from_dem(dem)


def _cnot_builder(distance):
    return transversal_cnot_experiment(distance, distance + 1, 1e-3, [1, 2])


def _joint_graph(distance):
    return DecodingGraph.from_dem(extract_dem(_cnot_builder(distance).circuit))


def _sequential_graph(distance, patch):
    builder = _cnot_builder(distance)
    decoder = make_decoder(
        "sequential",
        extract_dem(builder.circuit),
        detector_meta=builder.detector_meta,
    )
    return getattr(decoder, f"_{patch}_decoder").graph


GRAPHS = {
    **{f"memory_d{d}": (_memory_graph, d) for d in (3, 5, 7)},
    **{f"uniform_d{d}": (_memory_graph, d, True) for d in (3, 5, 7)},
    **{f"joint_d{d}": (_joint_graph, d) for d in (3, 5)},
    **{
        f"sequential_{patch}_d{d}": (_sequential_graph, d, patch)
        for d in (3, 5)
        for patch in ("control", "target")
    },
}


def _mask_int(words):
    return sum(int(word) << (64 * w) for w, word in enumerate(words))


def _path_masks(graph, dist):
    """Per ordered pair: the canonical tie rule's mask and every mask a
    float-shortest path achieves, walked in distance order per source."""
    n = graph.num_detectors
    adjacency = {v: [] for v in range(n + 1)}
    for edge in graph.edges:
        u, v = edge.detectors if len(edge.detectors) == 2 else (edge.detectors[0], n)
        mask = sum(1 << o for o in edge.observables)
        adjacency[u].append((v, edge.weight, mask))
        adjacency[v].append((u, edge.weight, mask))
    canonical, achievable = {}, {}
    for s in range(n + 1):
        row = dist[s]
        canon = {s: 0}
        sets = {s: {0}}
        for v in np.argsort(row, kind="stable")[1:].tolist():
            if np.isinf(row[v]):
                break
            tight = [(u, m) for u, w, m in adjacency[v] if row[u] + w == row[v]]
            u, m = min(tight)
            canon[v] = canon[u] ^ m
            sets[v] = {x ^ m for u, m in tight for x in sets[u]}
        canonical[s], achievable[s] = canon, sets
    return canonical, achievable


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_tables_match_networkx_oracle(name):
    build, *args = GRAPHS[name]
    graph = build(*args)
    decoder = MWPMDecoder(graph)
    reference = ReferenceMWPM(graph)
    n = graph.num_detectors
    ref_dist = np.full((n + 1, n + 1), np.inf)
    ref_obs = {}
    for u, lengths in reference._distance.items():
        ui = n if u == BOUNDARY else u
        for v, length in lengths.items():
            vi = n if v == BOUNDARY else v
            ref_dist[ui, vi] = length
            ref_obs[ui, vi] = reference._path_obs[u][v]
    assert decoder._dist.tobytes() == ref_dist.tobytes()
    canonical, achievable = _path_masks(graph, decoder._dist)
    assert set(ref_obs) == {(s, v) for s in canonical for v in canonical[s]}
    unreachable = np.isinf(decoder._dist)
    assert not decoder._obs[unreachable].any()
    for (s, v), ref_mask in ref_obs.items():
        mask = _mask_int(decoder._obs[s, v])
        masks = achievable[s][v]
        assert ref_mask in masks
        assert mask == canonical[s][v]
        if len(masks) == 1:
            assert mask == ref_mask


def _two_component_graph():
    """A d=5 memory graph beside a copy without boundary edges."""
    base = _memory_graph(5)
    n = base.num_detectors
    graph = DecodingGraph(2 * n, base.num_observables)
    for edge in base.edges:
        graph.add_mechanism(edge.detectors, edge.probability, edge.observables)
        if len(edge.detectors) == 2:
            shifted = tuple(d + n for d in edge.detectors)
            graph.add_mechanism(shifted, edge.probability, edge.observables)
    return graph, n


@pytest.fixture(scope="module")
def two_component():
    graph, n = _two_component_graph()
    return MWPMDecoder(graph), ReferenceMWPM(graph), n


def _oracle_blossom_weight(reference, defects, monkeypatch):
    """Weight of the copy-construction blossom's matching."""
    seen = []
    original = nx.algorithms.matching.min_weight_matching

    def spy(match_graph, *args, **kwargs):
        matching = original(match_graph, *args, **kwargs)
        seen.append(sum(match_graph[a][b]["weight"] for a, b in matching))
        return matching

    monkeypatch.setattr(nx.algorithms.matching, "min_weight_matching", spy)
    reference._match_blossom(list(defects))
    monkeypatch.setattr(nx.algorithms.matching, "min_weight_matching", original)
    return seen[0]


def _matching_weight(decoder, defects, pairs):
    dist = decoder._dist
    n = decoder.num_detectors
    matched = {i for pair in pairs for i in pair}
    weight = sum(dist[defects[i], defects[j]] for i, j in pairs)
    return weight + sum(
        dist[d, n] for i, d in enumerate(defects) if i not in matched
    )


def test_large_clusters_match_copy_construction_weight(two_component, monkeypatch):
    decoder, reference, n = two_component
    rng = np.random.default_rng(2026)
    boundaryless = 0
    for trial in range(200):
        k = int(rng.integers(15, 31))
        # Thirds: boundary component only, boundaryless only, and mixed
        # (boundaryless part even, so a perfect matching exists).
        kind = trial % 3
        if kind == 0:
            inner = 0
        elif kind == 1:
            k += k % 2
            inner = k
        else:
            inner = 2 * int(rng.integers(1, k // 2))
        outer = rng.choice(n, size=k - inner, replace=False)
        second = rng.choice(n, size=inner, replace=False) + n
        defects = sorted(int(d) for d in np.concatenate([outer, second]))
        boundaryless += inner > 0
        pairs = decoder._blossom_pairs(defects)
        expected = _oracle_blossom_weight(reference, defects, monkeypatch)
        got = _matching_weight(decoder, defects, pairs)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9), defects
    assert boundaryless >= 100


def test_odd_boundaryless_cluster_not_perfect(two_component):
    decoder, reference, n = two_component
    rng = np.random.default_rng(7)
    for k in (15, 21, 29):
        inner = sorted(int(d) + n for d in rng.choice(n, size=k, replace=False))
        with pytest.raises(ValueError, match="not perfect"):
            decoder._blossom_pairs(inner)
        with pytest.raises(ValueError, match="not perfect"):
            reference._match_blossom(inner)
        # The full decode path reaches the same error.
        syndrome = np.zeros(decoder.num_detectors, dtype=np.uint8)
        syndrome[inner] = 1
        with pytest.raises(ValueError, match="not perfect"):
            decoder.decode(syndrome)


def test_cluster_path_counter(two_component):
    decoder, _, n = two_component
    decoder._cluster_cache.clear()

    def totals():
        series = REGISTRY.snapshot()["repro_mwpm_clusters_total"]["series"]
        return {path: series.get((path,), 0.0) for path in ("dp_batch", "dp", "blossom")}

    before = totals()
    clusters = [(2 * i, 2 * i + 1) for i in range(5)]  # one 2-defect group
    clusters += [(20, 21, 22)]  # a lone 3-defect cluster
    clusters += [tuple(range(30, 46))]  # 16 defects: beyond subset DP
    decoder._solve_clusters(clusters)
    after = totals()
    assert {p: after[p] - before[p] for p in after} == {
        "dp_batch": 5.0,
        "dp": 1.0,
        "blossom": 1.0,
    }
    # Cached clusters are not solved again.
    decoder._cluster_masks(clusters)
    assert totals() == after
    parse_prometheus(render_prometheus())


def test_mwpm_decode_does_not_import_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from repro.decoder.engine import DecodingEngine\n"
        "from repro.sim.memory import memory_circuit\n"
        "with DecodingEngine(memory_circuit(3, 3, 1e-3), 'mwpm') as engine:\n"
        "    result = engine.run(2048, seed=1)\n"
        "assert result.shots == 2048\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
