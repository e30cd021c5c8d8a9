"""Shard routing shared by batch inference and online serving.

Both :class:`~repro.distributed.inference.DistributedScorer` and the
serving cluster (:mod:`repro.serve`) answer the same question for
every query: *which shard serves this request?*  The answer is
owner-routing — a pair goes to the shard owning its source endpoint —
with a two-step fallback when that shard is marked down: first the
destination endpoint's owner, then the first live shard.  Marking the
last live shard down raises
:class:`~repro.faults.errors.ClusterDeadError`, because a router with
no live shards cannot make progress.

:class:`ShardRouter` holds that logic once so the batch and online
paths cannot drift.  *How* the routed shards then run (serial, thread
or forked children) is the job of
:class:`~repro.distributed.execution.ShardExecutor`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..faults.errors import ClusterDeadError


class ShardRouter:
    """Owner routing over ``num_parts`` shards with outage fallback.

    Parameters
    ----------
    assignment:
        A :class:`~repro.partition.partitioned.PartitionedGraph` (its
        :attr:`~repro.partition.partitioned.PartitionedGraph.node_owner`
        vector is used — the *master* replica under vertex cut) or a
        raw per-node owner array (node id → shard).
    num_parts:
        Number of shards in the cluster.
    """

    def __init__(self, assignment, num_parts: int) -> None:
        # Duck-typed: PartitionedGraph exposes node_owner (master under
        # vertex cut); raw arrays pass through unchanged.
        assignment = getattr(assignment, "node_owner", assignment)
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.num_parts = int(num_parts)
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self._down: set = set()

    # -- membership -----------------------------------------------------

    def mark_down(self, part: int) -> None:
        """Take shard ``part`` out of the routing table.

        Requests owned by a downed shard are rerouted — destination
        endpoint's owner first, else the first live shard — and pay
        the extra remote traffic of being served by a non-owner.
        """
        if not 0 <= part < self.num_parts:
            raise ValueError(f"no shard {part} in a "
                             f"{self.num_parts}-shard cluster")
        self._down.add(part)
        if len(self._down) == self.num_parts:
            self._down.discard(part)
            raise ClusterDeadError(
                "cannot mark the last live shard down; the router needs "
                "at least one shard to route to")

    def mark_up(self, part: int) -> None:
        """Return a previously downed shard to the routing table."""
        self._down.discard(part)

    def is_down(self, part: int) -> bool:
        """Whether shard ``part`` is currently out of the table."""
        return part in self._down

    @property
    def live_shards(self) -> List[int]:
        """Shards currently accepting queries, in worker order."""
        return [p for p in range(self.num_parts) if p not in self._down]

    # -- routing --------------------------------------------------------

    def route_pairs(self, pairs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Owner routing with down-shard fallback.

        Returns ``(owners, rerouted)``: the shard each pair is served
        from, and how many pairs could not use their true owner.
        """
        owners = self.assignment[pairs[:, 0]].copy()
        if not self._down:
            return owners, 0
        down = np.isin(owners, sorted(self._down))
        rerouted = int(down.sum())
        if rerouted:
            # Fallback 1: the destination endpoint's owner.
            dst_owners = self.assignment[pairs[:, 1]]
            owners[down] = dst_owners[down]
            # Fallback 2: the first live shard.
            still_down = np.isin(owners, sorted(self._down))
            owners[still_down] = self.live_shards[0]
        return owners, rerouted

