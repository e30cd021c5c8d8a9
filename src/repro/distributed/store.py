"""Master-side graph stores.

The master server owns the full graph and (for SpLPG) the sparsified
copies of every partition, exposed to workers through a shared-memory
abstraction (the paper implements this with PyTorch's
``shared_memory``; we simulate it in-process).  Every structure answer
and feature fetch served to a worker is charged to that worker's
:class:`~repro.distributed.comm.CommMeter` — shared memory on a single
multi-GPU box still crosses host/device boundaries, and in the
multi-machine setting it is genuine network traffic, which is exactly
what the paper measures.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph
from ..sampling.blocks import GraphNeighborSource, merge_neighbor_groups
from .comm import CommMeter


class RemoteGraphStore:
    """Full-graph store: the complete data-sharing strategy.

    Serves exact neighbor lists and features of any node.  Used by the
    ``+`` variants (PSGD-PA+, RandomTMA+, SuperTMA+, SpLPG+).

    ``complete = True`` tells worker views that this store can fill in
    the parts of a *locally stored* node's neighbor list that the
    partition lost, charging only the missing edges (paper Section
    III-B: workers "obtain the full k-hop neighbors ... when they are
    not locally available").
    """

    weighted = False
    complete = True
    #: Optional RunObserver; the trainer attaches one when observing.
    obs = None

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._source = GraphNeighborSource(graph)

    def neighbors_batch(self, nodes: np.ndarray, meter: Optional[CommMeter]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact neighbor lists of ``nodes``, charged to ``meter``."""
        nbrs, weights, offsets = self._source.neighbors_batch(nodes)
        if meter is not None:
            meter.charge_structure(num_edges=nbrs.size,
                                   num_queried_nodes=nodes.size,
                                   weighted=self.weighted)
        if self.obs is not None:
            self.obs.counter("store.structure_requests").inc(1)
            self.obs.counter("store.structure_nodes").inc(nodes.size)
            self.obs.counter("store.structure_edges").inc(int(nbrs.size))
        return nbrs, weights, offsets

    def complete_neighbors_batch(
        self, nodes: np.ndarray, local_counts: np.ndarray,
        meter: Optional[CommMeter],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-fidelity neighbor lists with delta charging.

        Serves the complete adjacency of ``nodes`` from the master's
        full graph.  ``local_counts[i]`` is how many of node
        ``nodes[i]``'s edges the querying worker already stores
        locally; only the difference is charged (paper Section III-B —
        a node whose list is already complete locally costs nothing).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        local_counts = np.asarray(local_counts, dtype=np.int64)
        full_counts = (self.graph.indptr[nodes + 1]
                       - self.graph.indptr[nodes])
        missing = np.maximum(full_counts - local_counts, 0)
        if meter is not None:
            num_incomplete = int(np.count_nonzero(missing))
            if num_incomplete:
                meter.charge_structure(
                    num_edges=int(missing.sum()),
                    num_queried_nodes=num_incomplete,
                    weighted=False)
        if self.obs is not None:
            self.obs.counter("store.structure_requests").inc(1)
            self.obs.counter("store.structure_nodes").inc(nodes.size)
            self.obs.counter("store.completed_edges").inc(int(missing.sum()))
        # Answer from the full graph without re-charging.
        return self._source.neighbors_batch(nodes)

    def fetch_features(self, nodes: np.ndarray,
                       meter: Optional[CommMeter]) -> np.ndarray:
        """Feature rows of ``nodes``, charged to ``meter``."""
        feats = self.graph.features[nodes]
        if meter is not None:
            meter.charge_features(nodes.shape[0], feats.shape[1])
        if self.obs is not None:
            self.obs.counter("store.feature_requests").inc(1)
            self.obs.counter("store.feature_nodes").inc(int(nodes.shape[0]))
        return feats


class SparsifiedRemoteStore:
    """Sparsified-partition store: SpLPG's shared memory.

    Remote structure queries are answered from the *sparsified* copy of
    the owning partition (Algorithm 1 line 14), so each answer carries
    far fewer edges; the per-edge payload includes the
    Spielman-Srivastava weight.  Feature vectors are always exact —
    sparsification drops edges, never features.
    """

    weighted = True
    complete = False  # sparsified copies cannot complete local lists
    #: Optional RunObserver; the trainer attaches one when observing.
    obs = None

    def __init__(self, full_graph: Graph, sparsified: List[Graph],
                 assignment) -> None:
        self.full_graph = full_graph
        # Duck-typed owner source: a PartitionedGraph's node_owner (the
        # master replica under vertex cut) or a raw per-node array.
        assignment = getattr(assignment, "node_owner", assignment)
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self._sources = [GraphNeighborSource(g) for g in sparsified]

    def neighbors_batch(self, nodes: np.ndarray, meter: Optional[CommMeter]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparsified (weighted) neighbor lists of ``nodes``, answered
        from each node's owning partition and charged to ``meter``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        owners = self.assignment[nodes]
        # Group queried nodes by owning partition and answer each group
        # from that partition's sparsified copy.
        groups = []
        for part in np.unique(owners):
            sel = np.flatnonzero(owners == part)
            groups.append((sel, *self._sources[part].neighbors_batch(
                nodes[sel])))
        out_nbrs, out_w, out_offsets = merge_neighbor_groups(nodes.size,
                                                             groups)
        total = int(out_nbrs.size)
        if meter is not None:
            meter.charge_structure(num_edges=total,
                                   num_queried_nodes=nodes.size,
                                   weighted=True)
        if self.obs is not None:
            self.obs.counter("store.structure_requests").inc(1)
            self.obs.counter("store.structure_nodes").inc(nodes.size)
            self.obs.counter("store.structure_edges").inc(total)
        return out_nbrs, out_w, out_offsets

    def fetch_features(self, nodes: np.ndarray,
                       meter: Optional[CommMeter]) -> np.ndarray:
        """Exact feature rows of ``nodes`` (sparsification never drops
        features), charged to ``meter``."""
        feats = self.full_graph.features[nodes]
        if meter is not None:
            meter.charge_features(nodes.shape[0], feats.shape[1])
        if self.obs is not None:
            self.obs.counter("store.feature_requests").inc(1)
            self.obs.counter("store.feature_nodes").inc(int(nodes.shape[0]))
        return feats
