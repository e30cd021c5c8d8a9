"""The serving cluster: per-shard replicas answering link queries.

A :class:`ServingCluster` loads a :class:`~repro.serve.artifact.
ServableArtifact` and serves pairwise-score and top-k requests through
dynamic micro-batching.  Execution is split into two phases so results
are bit-identical across execution backends:

1. **Plan (deterministic, parent-side).**  The
   :class:`~repro.serve.scheduler.MicroBatchScheduler` simulates the
   whole run on the :class:`~repro.distributed.timeline.HardwareModel`
   clock — admission, routing (including fault-plan outages via the
   shared :class:`~repro.distributed.routing.ShardRouter`), bounded
   queues, flush triggers, LRU cache bookkeeping, byte charges and
   service times.  No model numerics happen here.
2. **Execute (embarrassingly parallel).**  Each shard's frozen flush
   plan — which requests, which exclusion lists — is evaluated
   against the read-only embedding table and decoder.  Per-request
   numbers depend only on the artifact and the plan, never on worker
   interleaving, so the serial, thread and process backends produce
   byte-identical :class:`~repro.serve.requests.ServeReport` digests.
   Shards run through the shared
   :class:`~repro.distributed.execution.ShardExecutor`; a forked
   shard that dies is recomputed in the parent.

Serve handlers never touch the raw graph (lint rule R107): embeddings
come from the artifact's table, and top-k neighbor exclusion goes
through the master's :class:`~repro.distributed.store.RemoteGraphStore`
with every fetch charged to the communication meter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distributed.comm import FEATURE_ITEMSIZE, CommMeter
from ..distributed.execution import ShardExecutor, resolve_backend
from ..distributed.routing import ShardRouter
from ..distributed.timeline import HardwareModel
from ..faults.plan import FaultPlan
from ..nn.tensor import Tensor
from .artifact import ServableArtifact
from .cache import LRUCache
from .requests import RequestOutcome, ScoreRequest, ServeReport
from .scheduler import Flush, MicroBatchScheduler, ServeFaultSchedule

class ServingCluster:
    """Owner-routed, micro-batched serving over a frozen artifact.

    Parameters
    ----------
    artifact:
        The exported servable (embedding table shards + decoder).
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` — how phase-2
        numerics execute.  All three produce identical reports.
    store:
        Optional master graph store used only for top-k neighbor
        exclusion (known neighbors are not re-recommended); fetches
        are charged to the serve communication meter.  Without a
        store, top-k excludes only the query node itself.
    max_batch / max_delay_s:
        Micro-batch flush triggers: flush when ``max_batch`` requests
        wait, or when the oldest has waited ``max_delay_s``.
    max_queue:
        Bounded admission queue per shard; arrivals beyond it are
        load-shed explicitly.
    embed_cache / neighbor_cache:
        Per-shard LRU capacities (entries) for remote embedding rows
        and neighbor lists.  0 disables the cache.
    plan:
        Optional :class:`~repro.faults.FaultPlan` of shard outages and
        stragglers (see :class:`~repro.serve.scheduler.
        ServeFaultSchedule` for the serving-time semantics).
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`; serve spans,
        latency histograms and queue-depth gauges are emitted per run.
    """

    def __init__(
        self,
        artifact: ServableArtifact,
        *,
        backend: str = "serial",
        store=None,
        max_batch: int = 8,
        max_delay_s: float = 2e-3,
        max_queue: int = 64,
        embed_cache: int = 256,
        neighbor_cache: int = 256,
        hardware: Optional[HardwareModel] = None,
        plan: Optional[FaultPlan] = None,
        observer=None,
        timeout_s: float = 30.0,
    ) -> None:
        self.artifact = artifact
        self.backend = resolve_backend(backend)
        self.store = store
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.max_queue = int(max_queue)
        self.embed_cache_capacity = int(embed_cache)
        self.neighbor_cache_capacity = int(neighbor_cache)
        self.hardware = hardware or HardwareModel()
        self.plan = plan
        self.observer = observer
        self.timeout_s = float(timeout_s)
        self.num_shards = artifact.num_shards
        self.table = artifact.embedding_table()
        self.predictor = artifact.build_predictor()
        self._owned = [set(nodes.tolist()) for nodes in artifact.shard_nodes]
        #: Registered servables by ``model_version``; requests execute
        #: against exactly one of these tables, chosen by the version
        #: pinned at admission time (see :meth:`serve`'s ``swaps``).
        self._versions: Dict[str, Tuple[np.ndarray, object]] = {
            artifact.model_version: (self.table, self.predictor)}
        self.active_version = artifact.model_version
        self._pinned: Dict[int, str] = {}
        #: Neighbor lists fetched so far (simulation-side value store;
        #: the LRU caches model what a replica would retain/charge).
        self._neighbor_lists: Dict[int, np.ndarray] = {}
        self._closed = False

    # -- versioned artifacts (hot swap) ----------------------------------

    def register_version(self, artifact: ServableArtifact) -> str:
        """Add a servable the cluster may hot-swap to.

        The artifact must be *layout-compatible* with the serving
        topology — same shard count, node universe, embedding width
        and ownership assignment — because a hot swap exchanges only
        the numeric tables, never the routing.  A rebalanced layout
        needs a new cluster (a cold swap).  Returns the registered
        ``model_version``.
        """
        if artifact.num_shards != self.num_shards:
            raise ValueError(
                f"artifact has {artifact.num_shards} shard(s), cluster "
                f"serves {self.num_shards}: rebuild the cluster instead "
                "of hot-swapping")
        if artifact.num_nodes != self.artifact.num_nodes:
            raise ValueError(
                "artifact covers a different node universe "
                f"({artifact.num_nodes} vs {self.artifact.num_nodes})")
        if artifact.embed_dim != self.artifact.embed_dim:
            raise ValueError(
                f"artifact embed_dim {artifact.embed_dim} != cluster's "
                f"{self.artifact.embed_dim}")
        if not np.array_equal(artifact.assignment,
                              self.artifact.assignment):
            raise ValueError(
                "artifact ownership assignment differs from the "
                "cluster's routing; a rebalance requires a cold swap "
                "(new ServingCluster)")
        self._versions[artifact.model_version] = (
            artifact.embedding_table(), artifact.build_predictor())
        return artifact.model_version

    def activate(self, version: str) -> None:
        """Make ``version`` the default for subsequently admitted
        requests (it must have been :meth:`register_version`-ed)."""
        if version not in self._versions:
            raise ValueError(
                f"unknown model_version {version[:12]!r}…; "
                "register_version() it first")
        self.active_version = version
        self.table, self.predictor = self._versions[version]

    def pinned_version(self, index: int) -> str:
        """The model version request ``index`` of the last run scored
        against (admission-time pinning)."""
        return self._pinned.get(index, self.active_version)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the cluster (idempotent; ``serve`` refuses after)."""
        self._closed = True

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving ---------------------------------------------------------

    def serve(self, workload, swaps=None) -> ServeReport:
        """Serve one workload to completion; returns the run report.

        Each call is an independent run: fresh router state, fresh
        caches, fresh meter, fresh neighbor-list store — so repeated
        calls (and calls on different backends) are directly
        comparable.

        ``swaps`` hot-swaps model versions mid-workload: a sequence of
        ``(seq, model_version)`` pairs meaning "requests admitted at
        sequence ``seq`` or later score against ``model_version``".
        Pinning is decided at *admission*: a request admitted before a
        swap point scores entirely against the pre-swap version even
        when its micro-batch flushes after the swap, and a flush whose
        batch straddles a swap is split into version-homogeneous
        groups — no batch ever mixes embedding tables.
        """
        if self._closed:
            raise RuntimeError("ServingCluster is closed")
        swap_points: List[Tuple[int, str]] = []
        for seq, version in (swaps or ()):
            if version not in self._versions:
                raise ValueError(
                    f"swap target {str(version)[:12]!r}… is not a "
                    "registered model_version")
            swap_points.append((int(seq), str(version)))
        swap_points.sort(key=lambda p: p[0])
        # Per-run mutable state (phase 1).
        self._neighbor_lists = {}
        self._meter = CommMeter()
        self._meter.obs = self.observer
        self._embed_caches = [LRUCache(self.embed_cache_capacity)
                              for _ in range(self.num_shards)]
        self._nbr_caches = [LRUCache(self.neighbor_cache_capacity)
                            for _ in range(self.num_shards)]
        router = ShardRouter(self.artifact.assignment, self.num_shards)
        schedule = ServeFaultSchedule(self.plan, self.num_shards)
        scheduler = MicroBatchScheduler(
            router, schedule,
            max_batch=self.max_batch, max_delay_s=self.max_delay_s,
            max_queue=self.max_queue, flush_cost=self._flush_cost)
        scheduler.run(workload)
        # Admission-time version pinning: outcome ``index`` is the
        # admission sequence, so each request's version is fixed here,
        # before any numerics run on any backend.
        self._pinned = {}
        if swap_points:
            for outcome in scheduler.outcomes:
                version = self.active_version
                for seq, swapped in swap_points:
                    if outcome.index >= seq:
                        version = swapped
                self._pinned[outcome.index] = version
        # Phase 2: numeric execution of the frozen flush plan.
        self._execute(scheduler.outcomes, scheduler.flushes)
        # Phase 3: counters, observability, report.
        counters = dict(scheduler.counters)
        counters["embed_cache_hits"] = sum(
            c.hits for c in self._embed_caches)
        counters["embed_cache_misses"] = sum(
            c.misses for c in self._embed_caches)
        counters["neighbor_cache_hits"] = sum(
            c.hits for c in self._nbr_caches)
        counters["neighbor_cache_misses"] = sum(
            c.misses for c in self._nbr_caches)
        report = ServeReport(outcomes=scheduler.outcomes,
                             counters=counters,
                             comm=self._meter.total(),
                             backend=self.backend)
        self._observe(report, scheduler.flushes)
        return report

    # -- phase 1: deterministic cost model -------------------------------

    def _flush_cost(self, shard: int, batch: List[RequestOutcome]
                    ) -> Tuple[float, Dict[str, object]]:
        """Simulated service time + execution metadata for one flush.

        Charges the communication meter for every remote embedding row
        and neighbor list the shard's caches miss, then prices the
        flush: one dispatch round-trip, the missed bytes over the
        link, and decoder compute proportional to scored rows.
        """
        embed_dim = self.artifact.embed_dim
        owned = self._owned[shard]
        needed: List[int] = []
        exclusions: Dict[int, np.ndarray] = {}
        work_rows = 0
        store_requests = 0
        for outcome in batch:
            request = outcome.request
            if isinstance(request, ScoreRequest):
                needed.extend(n for n in (request.u, request.v)
                              if n not in owned)
                work_rows += 1
            else:
                node = request.node
                if node not in owned:
                    needed.append(node)
                # Top-k scores the query node against every candidate;
                # candidate rows the replica does not own flow through
                # the embedding cache like any other remote row.
                needed.extend(n for n in range(self.table.shape[0])
                              if n != node and n not in owned)
                work_rows += self.table.shape[0] - 1
                if self.store is not None:
                    if self._nbr_caches[shard].admit([node]):
                        nbrs, _, _ = self.store.neighbors_batch(
                            np.array([node], dtype=np.int64), self._meter)
                        self._neighbor_lists[node] = np.unique(nbrs)
                        store_requests += 1
                    exclusions[outcome.index] = self._neighbor_lists.get(
                        node, np.empty(0, dtype=np.int64))
        missed = self._embed_caches[shard].admit(needed)
        if missed:
            self._meter.charge_features(len(missed), embed_dim)
        transfer_bytes = len(missed) * embed_dim * FEATURE_ITEMSIZE
        service_s = (
            self.hardware.request_latency_s * (1 + store_requests)
            + transfer_bytes / self.hardware.bytes_per_second
            + work_rows * embed_dim / self.hardware.edges_per_second)
        meta = {"exclusions": exclusions, "embed_missed": len(missed),
                "work_rows": work_rows,
                # Frozen request objects ride along so phase-2 workers
                # (possibly forked processes) need no outcome list.
                "requests": {o.index: o.request for o in batch}}
        return service_s, meta

    # -- phase 2: numeric execution --------------------------------------

    def _execute(self, outcomes: List[RequestOutcome],
                 flushes: List[Flush]) -> None:
        """Evaluate every flush's numerics and write results back."""
        by_shard: Dict[int, List[Flush]] = {}
        for flush in flushes:
            by_shard.setdefault(flush.shard, []).append(flush)
        # The plan is frozen, so a shard whose forked child fails is
        # recomputed in the parent bit-identically.
        replies = ShardExecutor(
            self.backend, self.timeout_s, name="repro-serve").map(
                self._execute_shard, [by_shard[s] for s in sorted(by_shard)],
                fallback=self._execute_shard)
        for reply in replies:
            for index, score, topk_nodes, topk_scores in reply:
                outcome = outcomes[index]
                outcome.score = score
                outcome.topk_nodes = topk_nodes
                outcome.topk_scores = topk_scores

    def _execute_shard(self, flushes: List[Flush]) -> List[tuple]:
        """Run one shard's flush plan against the read-only tables.

        Returns ``(index, score, topk_nodes, topk_scores)`` rows; pure
        function of the registered artifacts and the plan, so any
        backend (or a parent-side fallback) computes identical bytes.

        Requests are evaluated in version-homogeneous groups: each
        request uses exactly the table+decoder of the version pinned
        at its admission, so a flush straddling a hot swap never mixes
        embedding tables within one batch.
        """
        results: List[tuple] = []
        for flush in flushes:
            exclusions = flush.meta.get("exclusions", {})
            group_order: List[str] = []
            groups: Dict[str, List[int]] = {}
            for index in flush.seqs:
                version = self._pinned.get(index, self.active_version)
                if version not in groups:
                    groups[version] = []
                    group_order.append(version)
                groups[version].append(index)
            for version in group_order:
                table, predictor = self._versions[version]
                results.extend(self._execute_group(
                    flush, groups[version], table, predictor,
                    exclusions))
        return results

    def _execute_group(self, flush: Flush, seqs: List[int],
                       table: np.ndarray, predictor,
                       exclusions: Dict[int, np.ndarray]) -> List[tuple]:
        """Evaluate one version-consistent slice of a flush."""
        results: List[tuple] = []
        num_nodes = table.shape[0]
        pair_seqs: List[int] = []
        pair_u: List[int] = []
        pair_v: List[int] = []
        for index in seqs:
            request = self._request_of(flush, index)
            if isinstance(request, ScoreRequest):
                pair_seqs.append(index)
                pair_u.append(request.u)
                pair_v.append(request.v)
            else:
                excl = np.asarray(
                    exclusions.get(index, np.empty(0, dtype=np.int64)),
                    dtype=np.int64)
                mask = np.ones(num_nodes, dtype=bool)
                mask[request.node] = False
                mask[excl[excl < num_nodes]] = False
                candidates = np.flatnonzero(mask).astype(np.int64)
                h_u = np.repeat(table[request.node][None, :],
                                candidates.size, axis=0)
                scores = predictor(
                    Tensor(h_u), Tensor(table[candidates])).data
                # Descending score, ties broken by ascending node id
                # — a total order, so top-k is deterministic.
                order = np.lexsort((candidates, -scores))
                top = order[:request.k]
                results.append((index, None,
                                candidates[top].copy(),
                                scores[top].copy()))
        # Pairs are scored one request at a time on purpose: BLAS
        # results can differ in the last bit across batch shapes, so a
        # flush that splits into version groups at a hot swap would
        # otherwise score its rows differently from an unswapped run.
        # Row-at-a-time keeps every score a pure function of
        # (table, predictor, u, v), independent of batching.
        for outcome_index, u, v in zip(pair_seqs, pair_u, pair_v):
            score = predictor(Tensor(table[[u]]),
                              Tensor(table[[v]])).data[0]
            results.append((outcome_index, float(score), None, None))
        return results

    def _request_of(self, flush: Flush, index: int):
        """The request object for outcome ``index`` in this flush."""
        return flush.meta["requests"][index]

    # -- phase 3: observability ------------------------------------------

    def _observe(self, report: ServeReport, flushes: List[Flush]) -> None:
        """Emit serve spans, histograms and gauges for the run."""
        obs = self.observer
        if obs is None:
            return
        with obs.span("serve.run", backend=self.backend,
                      requests=len(report.outcomes)):
            clock = 0.0
            for flush in sorted(flushes, key=lambda f: f.completion_s):
                with obs.span("serve.flush", shard=flush.shard,
                              size=len(flush.seqs)):
                    obs.advance(max(0.0, flush.completion_s - clock))
                clock = max(clock, flush.completion_s)
        latency = obs.histogram("serve.latency_s")
        for value in report.latencies_s():
            latency.observe(float(value))
        for key in ("requests", "completed", "shed", "rerouted", "flushes"):
            obs.counter(f"serve.{key}").inc(report.counters.get(key, 0))
        obs.counter("serve.embed_cache_hits").inc(
            report.counters.get("embed_cache_hits", 0))
        obs.counter("serve.embed_cache_misses").inc(
            report.counters.get("embed_cache_misses", 0))
        obs.gauge("serve.queue_depth").set(
            report.counters.get("max_queue_depth", 0))

