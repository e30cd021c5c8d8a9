"""Property-based tests for samplers, loader and comm arithmetic."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    CommMeter,
    CommRecord,
    SparsifiedRemoteStore,
    WorkerGraphView,
)
from repro.distributed.comm import structure_nbytes
from repro.graph import Graph
from repro.partition import partition_graph
from repro.sparsify import sparsify_partitions
from repro.sampling import (
    EdgeBatchLoader,
    EdgeMembership,
    GraphNeighborSource,
    NeighborSampler,
    PerSourceUniformNegativeSampler,
    sample_block,
)

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_with_room(draw):
    """Graphs sparse enough that negative sampling always succeeds."""
    n = draw(st.integers(8, 30))
    extra = draw(st.integers(0, n))
    backbone = [(i, i + 1) for i in range(n - 1)]
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=extra, max_size=extra))
    edges = backbone + [e for e in extras if e[0] != e[1]]
    graph = Graph.from_edges(n, np.asarray(edges, dtype=np.int64))
    assume(graph.num_edges < n * (n - 1) // 4)
    return graph


class TestLoaderProperties:
    @common_settings
    @given(st.integers(1, 40), st.integers(1, 15),
           st.integers(0, 2**31 - 1))
    def test_batches_partition_the_edges(self, m, batch_size, seed):
        edges = np.arange(2 * m).reshape(m, 2)
        loader = EdgeBatchLoader(edges, batch_size,
                                 rng=np.random.default_rng(seed))
        seen = np.concatenate(list(loader))
        assert seen.shape == edges.shape
        assert sorted(map(tuple, seen.tolist())) == \
            sorted(map(tuple, edges.tolist()))

    @common_settings
    @given(st.integers(1, 40), st.integers(1, 15),
           st.integers(0, 2**31 - 1))
    def test_len_matches_iteration(self, m, batch_size, seed):
        edges = np.arange(2 * m).reshape(m, 2)
        loader = EdgeBatchLoader(edges, batch_size,
                                 rng=np.random.default_rng(seed))
        assert len(list(loader)) == len(loader)


class TestNegativeSamplerProperties:
    @common_settings
    @given(graphs_with_room(), st.integers(0, 2**31 - 1))
    def test_never_emits_edges(self, graph, seed):
        # The sampler is deliberately non-strict after max_rounds
        # rejection rounds (DGL semantics); with a generous round
        # budget and a capped max degree, a surviving collision would
        # need ~2^-64 luck, so the property is effectively exact.
        assume(graph.degrees.max() <= graph.num_nodes // 2)
        rng = np.random.default_rng(seed)
        sampler = PerSourceUniformNegativeSampler(graph, rng=rng,
                                                  max_rounds=64)
        sources = graph.edge_list()[:, 0]
        pairs = sampler.sample(sources)
        assert not EdgeMembership(graph).contains_many(pairs).any()

    @common_settings
    @given(graphs_with_room(), st.integers(0, 2**31 - 1))
    def test_sources_unchanged(self, graph, seed):
        rng = np.random.default_rng(seed)
        sampler = PerSourceUniformNegativeSampler(graph, rng=rng)
        sources = np.arange(graph.num_nodes // 2, dtype=np.int64)
        pairs = sampler.sample(sources)
        assert np.array_equal(pairs[:, 0], sources)


class TestBlockProperties:
    @common_settings
    @given(graphs_with_room(), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    def test_block_edges_exist_in_graph(self, graph, fanout, seed):
        rng = np.random.default_rng(seed)
        seeds = np.arange(min(5, graph.num_nodes), dtype=np.int64)
        block = sample_block(GraphNeighborSource(graph), seeds, fanout,
                             rng)
        for s, d in zip(block.edge_src, block.edge_dst):
            u = int(block.src_nodes[s])
            v = int(block.src_nodes[d])
            assert graph.has_edge(u, v)

    @common_settings
    @given(graphs_with_room(), st.integers(1, 4),
           st.integers(0, 2**31 - 1))
    def test_fanout_bound_per_destination(self, graph, fanout, seed):
        rng = np.random.default_rng(seed)
        seeds = np.arange(min(6, graph.num_nodes), dtype=np.int64)
        block = sample_block(GraphNeighborSource(graph), seeds, fanout,
                             rng)
        counts = np.bincount(block.edge_dst, minlength=block.num_dst)
        assert counts.max(initial=0) <= fanout

    @common_settings
    @given(graphs_with_room(), st.integers(0, 2**31 - 1))
    def test_layer_chain_invariant(self, graph, seed):
        rng = np.random.default_rng(seed)
        sampler = NeighborSampler([3, 2], rng=rng)
        seeds = np.arange(min(4, graph.num_nodes), dtype=np.int64)
        cg = sampler.sample(graph, seeds)
        # each block's dst set equals the next block's seed prefix
        assert np.array_equal(
            cg.blocks[0].src_nodes[:cg.blocks[0].num_dst],
            cg.blocks[1].src_nodes)
        assert np.array_equal(cg.blocks[1].dst_nodes, cg.seeds)


def reference_neighbors(graph_of, nodes):
    """Per-node reference: ``graph_of(n)``'s CSR slice for each node."""
    nbrs, weights, offsets = [], [], [0]
    for n in nodes:
        g = graph_of(int(n))
        lo, hi = int(g.indptr[n]), int(g.indptr[n + 1])
        nbrs.append(g.indices[lo:hi])
        weights.append(np.ones(hi - lo) if g.weights is None
                       else g.weights[lo:hi])
        offsets.append(offsets[-1] + hi - lo)
    return (np.concatenate([np.zeros(0, dtype=np.int64)] + nbrs)
            .astype(np.int64),
            np.concatenate([np.zeros(0)] + weights).astype(np.float64),
            np.asarray(offsets, dtype=np.int64))


def assert_same_answer(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@st.composite
def sparse_graphs(draw, n):
    """Weighted graphs on ``n`` nodes, zero-degree nodes included."""
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges = np.asarray([e for e in edges if e[0] != e[1]],
                       dtype=np.int64).reshape(-1, 2)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges),
                            max_size=len(edges)))
    return Graph.from_edges(n, edges,
                            edge_weights=np.asarray(weights, dtype=float),
                            dedup=False)


@st.composite
def sparsified_stores(draw):
    """A store over arbitrary per-partition graphs and owners."""
    n = draw(st.integers(1, 25))
    parts = draw(st.integers(1, 4))
    graphs = [draw(sparse_graphs(n)) for _ in range(parts)]
    owners = np.asarray(draw(st.lists(st.integers(0, parts - 1),
                                      min_size=n, max_size=n)))
    return SparsifiedRemoteStore(graphs[0], graphs, owners), graphs, owners


class TestNeighborPlumbingProperties:
    @common_settings
    @given(graphs_with_room(), st.booleans(), st.data())
    def test_graph_source_matches_per_node_slices(self, graph, weighted,
                                                  data):
        if weighted:
            graph = Graph.from_edges(
                graph.num_nodes, graph.edge_list(),
                edge_weights=np.linspace(0.5, 2.0, graph.num_edges))
        nodes = np.asarray(data.draw(st.lists(
            st.integers(0, graph.num_nodes - 1), max_size=40)),
            dtype=np.int64)
        got = GraphNeighborSource(graph).neighbors_batch(nodes)
        assert_same_answer(got, reference_neighbors(lambda n: graph,
                                                    nodes))

    @common_settings
    @given(sparsified_stores(), st.data())
    def test_sparsified_store_matches_per_node_slices(self, store_setup,
                                                      data):
        store, graphs, owners = store_setup
        nodes = np.asarray(data.draw(st.lists(
            st.integers(0, owners.size - 1), max_size=40)), dtype=np.int64)
        meter = CommMeter()
        got = store.neighbors_batch(nodes, meter)
        expected = reference_neighbors(lambda n: graphs[owners[n]], nodes)
        assert_same_answer(got, expected)
        assert meter.current.structure_bytes == structure_nbytes(
            expected[0].size, nodes.size, weighted=True)

    @common_settings
    @given(graphs_with_room(), st.integers(2, 3), st.booleans(),
           st.sampled_from(["mixed", "all-remote", "empty"]),
           st.integers(0, 2**31 - 1), st.data())
    def test_worker_view_matches_per_node_answers(self, graph, parts,
                                                  mirror, query, seed,
                                                  data):
        rng = np.random.default_rng(seed)
        pg = partition_graph(graph, parts, "metis", rng=rng, mirror=mirror)
        sparsified = sparsify_partitions(pg, alpha=0.3, rng=rng).graphs
        store = SparsifiedRemoteStore(graph, sparsified, pg.assignment)
        part = data.draw(st.integers(0, parts - 1))
        view = WorkerGraphView(pg, part, remote=store, meter=CommMeter())
        local = pg.local_structure_mask(part)
        pool = {"mixed": np.arange(graph.num_nodes),
                "all-remote": np.flatnonzero(~local),
                "empty": np.zeros(0, dtype=np.int64)}[query]
        picks = data.draw(st.lists(st.integers(0, max(pool.size - 1, 0)),
                                   max_size=30 if pool.size else 0))
        nodes = pool[np.asarray(picks, dtype=np.int64)].astype(np.int64)
        expected = reference_neighbors(
            lambda n: (pg.local_graph(part) if local[n]
                       else sparsified[pg.assignment[n]]), nodes)
        assert_same_answer(view.neighbors_batch(nodes), expected)

    @common_settings
    @given(graphs_with_room(), st.sampled_from([-1, 1, 2, 4]),
           st.integers(0, 2**31 - 1), st.data())
    def test_sample_block_remap_equals_dict_lookup(self, graph, fanout,
                                                   seed, data):
        # Duplicate seeds included: the dict keeps the last index.
        seeds = np.asarray(data.draw(st.lists(
            st.integers(0, graph.num_nodes - 1), min_size=1, max_size=8)),
            dtype=np.int64)
        source = GraphNeighborSource(graph)
        block = sample_block(source, seeds, fanout,
                             np.random.default_rng(seed))
        nbrs = block.src_nodes[block.edge_src]
        if fanout < 0:
            assert np.array_equal(nbrs, source.neighbors_batch(seeds)[0])
        for i, seed_node in enumerate(seeds):
            # Each seed keeps min(fanout, degree) of its own neighbors.
            picked = np.sort(nbrs[block.edge_dst == i])
            own = np.sort(graph.neighbors(int(seed_node)))
            keep = own.size if fanout < 0 else min(fanout, own.size)
            assert picked.size == keep
            assert np.isin(picked, own).all()
        lookup = {int(n): i for i, n in enumerate(block.src_nodes)}
        expected = np.fromiter((lookup[int(n)] for n in nbrs),
                               dtype=np.int64, count=nbrs.size)
        assert np.array_equal(block.edge_src, expected)


class TestCommProperties:
    @common_settings
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000),
                              st.integers(0, 1000)),
                    min_size=1, max_size=10))
    def test_total_equals_sum_of_epochs(self, charges):
        meter = CommMeter()
        expected = CommRecord()
        for feat_nodes, edges, sync in charges:
            meter.charge_features(feat_nodes, 4)
            meter.charge_structure(edges, 1)
            meter.charge_sync(sync)
            expected += CommRecord(
                feature_bytes=feat_nodes * 16,
                structure_bytes=edges * 16 + 8,
                sync_bytes=sync)
            meter.end_epoch()
        total = meter.total()
        assert total.feature_bytes == expected.feature_bytes
        assert total.structure_bytes == expected.structure_bytes
        assert total.sync_bytes == expected.sync_bytes

    @common_settings
    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 10**6))
    def test_graph_data_excludes_sync_always(self, f, s, y):
        rec = CommRecord(feature_bytes=f, structure_bytes=s, sync_bytes=y)
        assert rec.graph_data_bytes == f + s
        assert rec.total_bytes == f + s + y
