"""Message-flow blocks: the computational graphs of mini-batch GNNs.

A :class:`Block` is the bipartite graph that one GNN layer consumes,
equivalent to DGL's message-flow graph (MFG): messages flow from a set
of *source* rows to a (smaller) set of *destination* rows.  By
convention the destination nodes are the first ``num_dst`` entries of
``src_nodes`` so a layer can combine a node's own previous embedding
with its aggregated neighborhood without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Tuple

import numpy as np


@dataclass
class Block:
    """One layer of a sampled computational graph.

    Attributes
    ----------
    src_nodes:
        Global node ids feeding this layer.  ``src_nodes[:num_dst]``
        are the destination nodes themselves.
    num_dst:
        Number of destination (output) rows.
    edge_src / edge_dst:
        Edge endpoints as *local* indices: ``edge_src`` into
        ``src_nodes``, ``edge_dst`` into the destination rows.
    edge_weight:
        Per-edge weights (1.0 on unsparsified graphs; the
        Spielman-Srivastava weights on sparsified ones).
    """

    src_nodes: np.ndarray
    num_dst: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self) -> None:
        self.src_nodes = np.asarray(self.src_nodes, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64)
        if self.edge_src.shape != self.edge_dst.shape:
            raise ValueError("edge_src and edge_dst must align")
        if self.edge_weight.shape != self.edge_src.shape:
            raise ValueError("edge_weight must align with edges")
        if self.num_dst > self.src_nodes.size:
            raise ValueError("num_dst cannot exceed len(src_nodes)")
        if self.edge_src.size:
            if self.edge_src.max() >= self.src_nodes.size:
                raise ValueError("edge_src index out of range")
            if self.edge_dst.max() >= self.num_dst:
                raise ValueError("edge_dst index out of range")

    @property
    def num_src(self) -> int:
        """Source-side node count."""
        return int(self.src_nodes.size)

    @property
    def num_edges(self) -> int:
        """Edges in this block."""
        return int(self.edge_src.size)

    @property
    def dst_nodes(self) -> np.ndarray:
        """Destination node ids (global id space)."""
        return self.src_nodes[:self.num_dst]


@dataclass
class ComputationGraph:
    """A stack of blocks (input layer first) plus the input node set.

    ``blocks[0].src_nodes`` is the full set of nodes whose raw features
    must be materialized to run the forward pass — this is exactly the
    set the communication model charges feature bytes for.
    """

    blocks: List[Block]
    seeds: np.ndarray

    @property
    def input_nodes(self) -> np.ndarray:
        """Input node ids of the deepest block."""
        return self.blocks[0].src_nodes

    @property
    def num_layers(self) -> int:
        """Number of blocks (= sampling depth)."""
        return len(self.blocks)


class NeighborSource(Protocol):
    """Anything the neighbor sampler can draw adjacency from.

    Implementations: a plain :class:`~repro.graph.Graph` (wrapped), a
    worker's composite view over its local partition plus remote
    sparsified partitions, or the master's full-graph store.
    """

    @property
    def num_nodes(self) -> int:  # pragma: no cover - protocol
        """Total nodes addressable through this source."""
        ...

    def neighbors_batch(
        self, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency of many nodes at once.

        Returns ``(nbr_ids, nbr_weights, offsets)`` where node
        ``nodes[i]``'s neighbors are
        ``nbr_ids[offsets[i]:offsets[i+1]]``.
        """
        ...  # pragma: no cover - protocol


class GraphNeighborSource:
    """Adapter exposing a :class:`~repro.graph.Graph` as a
    :class:`NeighborSource`."""

    def __init__(self, graph) -> None:
        self.graph = graph

    @property
    def num_nodes(self) -> int:
        """Nodes in the wrapped graph."""
        return self.graph.num_nodes

    def neighbors_batch(self, nodes: np.ndarray):
        """CSR neighbor lists of ``nodes`` (see the protocol)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        g = self.graph
        starts = g.indptr[nodes]
        stops = g.indptr[nodes + 1]
        counts = stops - starts
        offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(offsets[-1])
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.float64), offsets
        # Flat index selecting each node's CSR slice: output position
        # ``p`` of node ``i`` reads ``starts[i] + p - offsets[i]``.
        flat = np.arange(total) + np.repeat(starts - offsets[:-1], counts)
        nbrs = g.indices[flat]
        if g.weights is None:
            weights = np.ones(total, dtype=np.float64)
        else:
            weights = g.weights[flat]
        return nbrs, weights, offsets


def merge_neighbor_groups(num_nodes: int, groups) -> Tuple[np.ndarray,
                                                          np.ndarray,
                                                          np.ndarray]:
    """Scatter per-group neighbor answers back into query order.

    ``groups`` holds ``(sel, nbrs, weights, offsets)`` tuples: the
    query positions a group answered and its CSR-shaped answer (as
    :meth:`NeighborSource.neighbors_batch` returns it).  Every query
    position in ``range(num_nodes)`` appears in at most one group; a
    position in none gets an empty list.  Returns the merged
    ``(nbr_ids, nbr_weights, offsets)``.
    """
    if not groups:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
                np.zeros(num_nodes + 1, dtype=np.int64))
    sel = np.concatenate([g[0] for g in groups])
    nbrs = np.concatenate([g[1] for g in groups])
    weights = np.concatenate([g[2] for g in groups])
    group_counts = np.concatenate([np.diff(g[3]) for g in groups])
    counts = np.zeros(num_nodes, dtype=np.int64)
    counts[sel] = group_counts
    out_offsets = np.concatenate([[0], np.cumsum(counts)])
    # Answer ``k`` of the concatenated groups lands at its query's
    # output offset plus its rank within that query's list.
    src_offsets = np.cumsum(group_counts) - group_counts
    dest = np.arange(nbrs.size) + np.repeat(out_offsets[sel] - src_offsets,
                                            group_counts)
    out_nbrs = np.empty(nbrs.size, dtype=np.int64)
    out_w = np.empty(nbrs.size, dtype=np.float64)
    out_nbrs[dest] = nbrs
    out_w[dest] = weights
    return out_nbrs, out_w, out_offsets
