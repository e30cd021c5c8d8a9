"""The stream driver: one deterministic tick loop over a live graph.

Each tick of :class:`StreamDriver` is the paper's whole static
pipeline in miniature, run incrementally:

1. **Apply** the tick's :class:`~repro.stream.plan.ArrivalPlan` events
   to the :class:`~repro.stream.mutable.MutableGraph`.
2. **Patch** shard storage (:class:`~repro.stream.shards.ShardedState`)
   with the realized delta, charging every shipped byte; fire a
   **rebalance** through the partitioner registry when a trigger
   trips (cold swap: the serving cluster is rebuilt).
3. **Re-embed** on the configured cadence — affected-vertex frontier
   recompute or scheduled full refresh
   (:class:`~repro.stream.reembed.Reembedder`) — producing a
   versioned candidate artifact.
4. **Roll out** the candidate through the
   :class:`~repro.stream.rollout.RolloutGate` (digest equality + AUC
   floor); acceptance hot-swaps it into the live
   :class:`~repro.serve.cluster.ServingCluster` mid-workload with
   in-flight requests pinned to their admission-time version;
   rejection is a **rollback** (the previous version keeps serving).
5. **Serve** the tick's seeded workload (per-tick
   :class:`~repro.faults.FaultPlan` sub-plans inject shard outages)
   and append a :class:`TickRecord`.

Every decision derives from ``(seed, tick)`` and the serve numerics
are backend-invariant by the serving cluster's two-phase contract, so
:meth:`StreamReport.digest` is bit-identical across serial, thread
and process backends — with or without injected faults — and across
checkpoint/resume boundaries (:meth:`StreamDriver.resume` replays the
remaining ticks to the uninterrupted run's digest).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields as dc_fields
from typing import Dict, List, Optional

import numpy as np

from ..checkpoint.store import CheckpointStore
from ..distributed.comm import CommMeter
from ..distributed.execution import check_backend
from ..distributed.store import RemoteGraphStore
from ..faults.plan import FaultPlan
from ..graph.graph import Graph
from ..nn.models import build_model
from ..partition.registry import PartitionSpec
from ..serve.artifact import (
    artifact_from_table,
    predictor_kind_of,
)
from ..serve.cluster import ServingCluster
from ..serve.workload import OpenLoopWorkload, synthetic_requests
from .errors import StreamError, StreamStateError
from .mutable import MutableGraph
from .plan import ArrivalPlan
from .reembed import Reembedder
from .rollout import RolloutGate
from .shards import ShardedState

#: Checkpoint schema identifier; bump on any layout change.
STREAM_STATE_SCHEMA = "repro_stream_state/v1"

#: Counter keys every report carries (stable digest layout).
_COUNTER_KEYS = ("events", "inserted", "deleted", "drifted", "skipped",
                 "rebalances", "swaps", "cold_swaps", "rollbacks",
                 "reembed_rows", "requests", "completed", "shed")


@dataclass
class StreamConfig:
    """Every knob of one streaming run (JSON round-trippable).

    ``plan`` defaults to :meth:`ArrivalPlan.generate` with the
    ``*_per_tick`` rates.  ``refresh`` selects frontier or full
    re-embedding on the ``refresh_every`` cadence
    (``full_refresh_every`` forces a periodic full pass in frontier
    mode).  ``rebalance_threshold``/``replication_threshold`` arm the
    re-partition triggers (0 disarms).  ``auc_floor`` parametrizes the
    rollout gate and ``swap_fraction`` places the hot-swap point
    inside the tick's workload.  ``fault_plan`` events use ``epoch``
    as the tick and ``round`` as the admitted-request sequence.
    """

    ticks: int = 8
    seed: int = 0
    inserts_per_tick: float = 4.0
    deletes_per_tick: float = 1.0
    drifts_per_tick: float = 1.0
    plan: Optional[ArrivalPlan] = None
    refresh: str = "frontier"
    refresh_every: int = 1
    full_refresh_every: int = 0
    rebalance_threshold: float = 0.0
    replication_threshold: float = 0.0
    requests_per_tick: int = 24
    rate_rps: float = 2000.0
    topk_fraction: float = 0.2
    auc_floor: float = 0.0
    swap_fraction: float = 0.5
    embed_batch: int = 64
    max_batch: int = 4
    max_delay_s: float = 1e-3
    max_queue: int = 64
    fault_plan: Optional[FaultPlan] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        if self.refresh not in ("frontier", "full"):
            raise ValueError(
                f"refresh must be 'frontier' or 'full', got "
                f"{self.refresh!r}")
        if self.refresh_every < 0 or self.full_refresh_every < 0:
            raise ValueError("refresh cadences must be >= 0")
        if not 0.0 <= self.swap_fraction <= 1.0:
            raise ValueError("swap_fraction must be in [0, 1]")
        if self.requests_per_tick < 1:
            raise ValueError("requests_per_tick must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if isinstance(self.plan, dict):
            self.plan = ArrivalPlan.from_dict(self.plan)
        if isinstance(self.fault_plan, dict):
            self.fault_plan = FaultPlan.from_dict(self.fault_plan)

    def to_dict(self) -> Dict[str, object]:
        """JSON form (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name in ("plan", "fault_plan") and value is not None:
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        known = {f.name for f in dc_fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(
                f"unknown StreamConfig field(s) {sorted(extra)}")
        return cls(**data)


@dataclass
class TickRecord:
    """Everything one tick decided and produced (digest material)."""

    tick: int
    inserted: int
    deleted: int
    drifted: int
    skipped: int
    refreshed: bool
    reembed_rows: int
    rebalanced: str
    swapped: bool
    cold_swapped: bool
    rolled_back: bool
    gate_reason: str
    gate_auc: float
    model_version: str
    serve_digest: str
    graph_fingerprint: str
    shards_fingerprint: str
    swap_latency_s: float
    requests: int
    completed: int
    shed: int

    def to_dict(self) -> Dict[str, object]:
        """JSON form (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TickRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**data)

    def feed(self, digest) -> None:
        """Hash this record's deterministic content into ``digest``."""
        digest.update(np.int64([
            self.tick, self.inserted, self.deleted, self.drifted,
            self.skipped, int(self.refreshed), self.reembed_rows,
            int(self.swapped), int(self.cold_swapped),
            int(self.rolled_back), self.requests, self.completed,
            self.shed]).tobytes())
        for text in (self.rebalanced, self.gate_reason,
                     self.model_version, self.serve_digest,
                     self.graph_fingerprint, self.shards_fingerprint):
            digest.update(text.encode("utf-8"))
            digest.update(b"\x00")
        # Simulated-clock floats hash exactly (hex form, no rounding).
        digest.update(float(self.gate_auc).hex().encode("ascii"))
        digest.update(float(self.swap_latency_s).hex().encode("ascii"))


@dataclass
class StreamReport:
    """The outcome of a whole streaming run."""

    backend: str
    plan_name: str
    records: List[TickRecord] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    comm: Dict[str, int] = field(default_factory=dict)
    final_version: str = ""
    wall_s: float = 0.0
    #: The training result a Session stream rode on (not serialized,
    #: excluded from the digest).
    train_result: Optional[object] = None

    def digest(self) -> str:
        """Bit-exact fingerprint of the run (hex sha256).

        Covers every tick record, the counters and the byte ledger —
        everything deterministic.  Wall-clock time and the attached
        train result are excluded, so the digest compares across
        backends and across checkpoint/resume boundaries.
        """
        digest = hashlib.sha256()
        for record in self.records:
            record.feed(digest)
        for key in _COUNTER_KEYS:
            digest.update(np.int64([self.counters.get(key, 0)])
                          .tobytes())
        for key in sorted(self.comm):
            digest.update(key.encode("ascii"))
            digest.update(np.int64([self.comm[key]]).tobytes())
        digest.update(self.final_version.encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """Serializable roll-up (reports, benches, checkpoints)."""
        return {"backend": self.backend, "plan_name": self.plan_name,
                "records": [r.to_dict() for r in self.records],
                "counters": dict(self.counters),
                "comm": dict(self.comm),
                "final_version": self.final_version,
                "wall_s": self.wall_s,
                "digest": self.digest()}

    def summary(self) -> str:
        """One paragraph for humans."""
        c = self.counters
        return (f"stream[{self.backend}] {len(self.records)} tick(s): "
                f"+{c.get('inserted', 0)}/-{c.get('deleted', 0)} edges, "
                f"~{c.get('drifted', 0)} drifts "
                f"({c.get('skipped', 0)} skipped), "
                f"{c.get('rebalances', 0)} rebalance(s), "
                f"{c.get('swaps', 0)} hot swap(s) + "
                f"{c.get('cold_swaps', 0)} cold, "
                f"{c.get('rollbacks', 0)} rollback(s), "
                f"{c.get('completed', 0)}/{c.get('requests', 0)} "
                f"requests served, digest {self.digest()[:12]}")


class StreamDriver:
    """Runs one :class:`StreamConfig` against a trained model.

    ``model_spec`` (the :func:`repro.nn.models.build_model` keyword
    dict) is required when checkpointing so :meth:`resume` can rebuild
    the model before loading its weights.
    """

    def __init__(self, model, graph: Graph, spec: PartitionSpec,
                 num_parts: int, config: StreamConfig,
                 backend: str = "serial", observer=None,
                 model_spec: Optional[Dict[str, object]] = None) -> None:
        check_backend(backend)
        if graph.features is None:
            raise StreamError(
                "streaming needs node features (the GNN re-embeds "
                "from them)")
        if config.checkpoint_dir is not None and model_spec is None:
            raise StreamStateError(
                "checkpointing a stream needs model_spec= (the "
                "build_model kwargs) so resume() can rebuild the model")
        self.model = model
        self.spec = spec
        self.num_parts = int(num_parts)
        self.config = config
        self.backend = backend
        self.observer = observer
        self.model_spec = dict(model_spec) if model_spec else None
        self._graph = graph
        self._ready = False
        self._next_tick = 0

    # -- setup -----------------------------------------------------------

    def _setup(self) -> None:
        """Fresh-run initialization (skipped on resume)."""
        cfg = self.config
        graph = self._graph
        self.plan = cfg.plan or ArrivalPlan.generate(
            graph.num_nodes, cfg.ticks, cfg.seed,
            inserts_per_tick=cfg.inserts_per_tick,
            deletes_per_tick=cfg.deletes_per_tick,
            drifts_per_tick=cfg.drifts_per_tick)
        if self.plan.ticks != cfg.ticks:
            raise StreamError(
                f"plan covers {self.plan.ticks} tick(s) but the config "
                f"runs {cfg.ticks}")
        self.mutable = MutableGraph(graph)
        self.sharded = ShardedState(self.mutable.snapshot(), self.spec,
                                    self.num_parts, cfg.seed)
        self.meter = CommMeter()
        self.meter.obs = self.observer
        self.reembedder = Reembedder(self.model,
                                     batch_size=cfg.embed_batch)
        snapshot = self.mutable.snapshot()
        self.reembedder.full_refresh(snapshot)
        self.active_artifact = self.reembedder.make_artifact(
            snapshot, self.sharded.assignment, self.num_parts)
        self.gate = RolloutGate(auc_floor=cfg.auc_floor)
        self.records: List[TickRecord] = []
        self.counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self._serve_comm = {"feature_bytes": 0, "structure_bytes": 0,
                            "sync_bytes": 0}
        self._base_comm = {"feature_bytes": 0, "structure_bytes": 0,
                           "sync_bytes": 0}
        self._cluster: Optional[ServingCluster] = None
        self._ready = True

    # -- the tick loop ---------------------------------------------------

    def run(self) -> StreamReport:
        """Run (or continue) the stream to completion."""
        started = time.perf_counter()
        if not self._ready:
            self._setup()
        cfg = self.config
        for tick in range(self._next_tick, cfg.ticks):
            self._run_tick(tick)
            self._next_tick = tick + 1
            if (cfg.checkpoint_dir is not None
                    and (tick + 1) % cfg.checkpoint_every == 0):
                self._write_checkpoint(tick)
        report = self._build_report(time.perf_counter() - started)
        if self.observer is not None:
            self.observer.counter("stream.runs").inc(1)
        return report

    def _run_tick(self, tick: int) -> None:
        cfg = self.config
        events = self.plan.events_at(tick)
        delta = self.mutable.apply(events, tick)
        snapshot = self.mutable.snapshot()
        self.sharded.apply_delta(delta, self.meter)
        self.counters["events"] += len(events)
        self.counters["inserted"] += int(delta.inserted.shape[0])
        self.counters["deleted"] += int(delta.deleted.shape[0])
        self.counters["drifted"] += int(delta.drifted.size)
        self.counters["skipped"] += delta.skipped

        rebalanced = ""
        cold_swapped = False
        reason = self.sharded.needs_rebalance(
            cfg.rebalance_threshold, cfg.replication_threshold)
        if reason is not None:
            self.sharded.rebalance(snapshot, tick, self.meter)
            rebalanced = reason
            self.counters["rebalances"] += 1
            # Routing changed: the live cluster's layout is stale.
            # Re-shard the current table and count the forced cold
            # swap here — at the (replayable) rebalance decision, not
            # at cluster creation, so a crash/resume that also has to
            # rebuild the cluster does not perturb the digest.
            self.active_artifact = self.reembedder.make_artifact(
                snapshot, self.sharded.assignment, self.num_parts)
            self._drop_cluster()
            cold_swapped = True
            self.counters["cold_swaps"] += 1

        refreshed = False
        reembed_rows = 0
        candidate = None
        due = cfg.refresh_every and (tick + 1) % cfg.refresh_every == 0
        if due:
            refreshed = True
            full_due = (cfg.refresh == "full"
                        or (cfg.full_refresh_every
                            and (tick + 1) % cfg.full_refresh_every == 0))
            if full_due:
                reembed_rows = self.reembedder.full_refresh(snapshot)
            else:
                reembed_rows = self.reembedder.frontier_refresh(
                    snapshot, delta.touched_nodes())
            self.counters["reembed_rows"] += reembed_rows
            candidate = self.reembedder.make_artifact(
                snapshot, self.sharded.assignment, self.num_parts)

        swapped = False
        rolled_back = False
        gate_reason = ""
        gate_auc = float("nan")
        swap_candidate = None
        pre_swap = self.active_artifact
        if (candidate is not None
                and candidate.model_version
                != self.active_artifact.model_version):
            decision = self.gate.evaluate(
                candidate, candidate.checksum(), self.active_artifact,
                snapshot, cfg.seed, tick)
            gate_reason = decision.reason
            gate_auc = decision.auc
            if decision.accepted:
                swap_candidate = candidate
                swapped = True
                self.counters["swaps"] += 1
                self.active_artifact = candidate
            else:
                rolled_back = True
                self.counters["rollbacks"] += 1

        report, swap_latency_s = self._serve_tick(tick, snapshot,
                                                  pre_swap,
                                                  swap_candidate)
        self._serve_comm["feature_bytes"] += report.comm.feature_bytes
        self._serve_comm["structure_bytes"] += report.comm.structure_bytes
        self._serve_comm["sync_bytes"] += report.comm.sync_bytes
        self.counters["requests"] += report.counters.get("requests", 0)
        self.counters["completed"] += report.counters.get("completed", 0)
        self.counters["shed"] += report.counters.get("shed", 0)

        record = TickRecord(
            tick=tick,
            inserted=int(delta.inserted.shape[0]),
            deleted=int(delta.deleted.shape[0]),
            drifted=int(delta.drifted.size),
            skipped=delta.skipped,
            refreshed=refreshed,
            reembed_rows=reembed_rows,
            rebalanced=rebalanced,
            swapped=swapped,
            cold_swapped=cold_swapped,
            rolled_back=rolled_back,
            gate_reason=gate_reason,
            gate_auc=gate_auc,
            model_version=self.active_artifact.model_version,
            serve_digest=report.digest(),
            graph_fingerprint=self.mutable.fingerprint(),
            shards_fingerprint=self.sharded.fingerprint(),
            swap_latency_s=swap_latency_s,
            requests=report.counters.get("requests", 0),
            completed=report.counters.get("completed", 0),
            shed=report.counters.get("shed", 0))
        self.records.append(record)
        self._observe_tick(record)

    def _serve_tick(self, tick: int, snapshot: Graph, pre_swap,
                    swap_candidate):
        """Serve the tick's seeded workload on the live cluster.

        The cluster is (re)created from ``pre_swap`` — the artifact
        that was active before this tick's gate decision — whenever it
        is missing (first tick, post-rebalance, or post-resume), so an
        accepted candidate is *always* a mid-workload hot swap and the
        serve digest never depends on whether the process crashed and
        resumed in between.
        """
        cfg = self.config
        tick_plan = (cfg.fault_plan.at_epoch(tick)
                     if cfg.fault_plan is not None else None)
        if self._cluster is None:
            self._cluster = ServingCluster(
                pre_swap, backend=self.backend,
                store=RemoteGraphStore(snapshot),
                max_batch=cfg.max_batch, max_delay_s=cfg.max_delay_s,
                max_queue=cfg.max_queue, plan=tick_plan,
                observer=self.observer)
        else:
            self._cluster.store = RemoteGraphStore(snapshot)
            self._cluster.plan = tick_plan
        requests = synthetic_requests(
            cfg.requests_per_tick, snapshot.num_nodes,
            seed=cfg.seed * 1000003 + tick,
            topk_fraction=cfg.topk_fraction)
        workload = OpenLoopWorkload(requests, rate_rps=cfg.rate_rps,
                                    seed=cfg.seed + 13 + tick)
        swaps = None
        swap_seq = None
        swap_version = None
        if swap_candidate is not None:
            swap_version = self._cluster.register_version(
                swap_candidate)
            swap_seq = max(1, int(round(
                cfg.requests_per_tick * cfg.swap_fraction)))
            swaps = [(swap_seq, swap_version)]
        report = self._cluster.serve(workload, swaps=swaps)
        swap_latency_s = 0.0
        if swap_seq is not None:
            self._cluster.activate(swap_version)
            post = [o for o in report.outcomes
                    if o.index >= swap_seq and o.status == "ok"]
            if post:
                first_arrival = min(o.arrival_s for o in post)
                first_completion = min(o.completion_s for o in post)
                swap_latency_s = max(0.0,
                                     first_completion - first_arrival)
        return report, swap_latency_s

    def _drop_cluster(self) -> None:
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None

    def _observe_tick(self, record: TickRecord) -> None:
        obs = self.observer
        if obs is None:
            return
        from ..obs.metrics import SWAP_LATENCY_BUCKETS

        obs.counter("stream.ticks").inc(1)
        obs.counter("stream.events").inc(
            record.inserted + record.deleted + record.drifted)
        obs.counter("stream.reembed_rows").inc(record.reembed_rows)
        if record.rebalanced:
            obs.counter("stream.rebalances").inc(1)
        if record.swapped:
            obs.counter("stream.swaps").inc(1)
            obs.histogram("stream.swap_latency_s",
                          buckets=SWAP_LATENCY_BUCKETS).observe(
                              record.swap_latency_s)
        if record.rolled_back:
            obs.counter("stream.rollbacks").inc(1)

    # -- report ----------------------------------------------------------

    def _build_report(self, wall_s: float) -> StreamReport:
        total = self.meter.total()
        comm = {
            "stream_feature_bytes": (self._base_comm["feature_bytes"]
                                     + total.feature_bytes),
            "stream_structure_bytes": (self._base_comm["structure_bytes"]
                                       + total.structure_bytes),
            "stream_sync_bytes": (self._base_comm["sync_bytes"]
                                  + total.sync_bytes),
            "serve_feature_bytes": self._serve_comm["feature_bytes"],
            "serve_structure_bytes": self._serve_comm["structure_bytes"],
            "serve_sync_bytes": self._serve_comm["sync_bytes"],
        }
        return StreamReport(
            backend=self.backend, plan_name=self.plan.name,
            records=list(self.records), counters=dict(self.counters),
            comm=comm,
            final_version=self.active_artifact.model_version,
            wall_s=wall_s)

    # -- checkpoint / resume ---------------------------------------------

    def _write_checkpoint(self, tick: int) -> None:
        """Durably snapshot everything resume needs (atomic WAL)."""
        total = self.meter.total()
        meta = {
            "schema": STREAM_STATE_SCHEMA,
            "config": self.config.to_dict(),
            "plan": self.plan.to_dict(),
            "next_tick": tick + 1,
            "backend": self.backend,
            "num_parts": self.num_parts,
            "spec": self.spec.to_dict(),
            "model_spec": self.model_spec,
            "counters": dict(self.counters),
            "records": [r.to_dict() for r in self.records],
            "serve_comm": dict(self._serve_comm),
            "stream_comm": {
                "feature_bytes": (self._base_comm["feature_bytes"]
                                  + total.feature_bytes),
                "structure_bytes": (self._base_comm["structure_bytes"]
                                    + total.structure_bytes),
                "sync_bytes": (self._base_comm["sync_bytes"]
                               + total.sync_bytes),
            },
            "active_version": self.active_artifact.model_version,
            "reembed_rows_total": self.reembedder.rows_recomputed,
        }
        state = {}
        state.update(self.mutable.state_arrays())
        state.update(self.sharded.state_arrays())
        state["stream.embed.table"] = self.reembedder.table.copy()
        embedded = self.reembedder._embedded_graph
        state["stream.embed.graph_edges"] = embedded.edge_list()
        state["stream.active.table"] = (
            self.active_artifact.embedding_table())
        for key, value in self.model.state_dict().items():
            state[f"stream.model.{key}"] = np.asarray(value)
        state["stream.meta.json"] = np.array(json.dumps(meta))
        CheckpointStore(self.config.checkpoint_dir).write(
            state, epoch=tick, rnd=0)

    @classmethod
    def resume(cls, checkpoint_dir, backend: Optional[str] = None,
               observer=None) -> "StreamDriver":
        """Rebuild a driver mid-stream from its durable checkpoint.

        The remaining ticks replay to the uninterrupted run's exact
        :meth:`StreamReport.digest` — the arrival plan, the frozen
        shard layout, the embedding tables and every counter are
        restored bit-for-bit.  ``backend`` overrides the serving
        backend (the digest is backend-invariant, so this is safe).
        """
        _, state, _ = CheckpointStore(checkpoint_dir).latest()
        meta = json.loads(str(state["stream.meta.json"]))
        if meta.get("schema") != STREAM_STATE_SCHEMA:
            raise StreamError(
                f"checkpoint schema {meta.get('schema')!r} is not "
                f"{STREAM_STATE_SCHEMA!r}")
        config = StreamConfig.from_dict(meta["config"])
        config.plan = ArrivalPlan.from_dict(meta["plan"])
        model_spec = meta["model_spec"]
        model = build_model(**model_spec)
        model.load_state_dict({
            key[len("stream.model."):]: value
            for key, value in state.items()
            if key.startswith("stream.model.")})
        spec = PartitionSpec.from_dict(meta["spec"])
        mutable = MutableGraph.from_state_arrays(state)
        snapshot = mutable.snapshot()
        driver = cls(model, snapshot, spec, int(meta["num_parts"]),
                     config, backend=backend or meta["backend"],
                     observer=observer, model_spec=model_spec)
        driver.plan = config.plan
        driver.mutable = mutable
        driver.sharded = ShardedState.from_state_arrays(
            state, snapshot, spec, int(meta["num_parts"]), config.seed)
        driver.meter = CommMeter()
        driver.meter.obs = observer
        driver.reembedder = Reembedder(model,
                                       batch_size=config.embed_batch)
        driver.reembedder.table = np.asarray(
            state["stream.embed.table"], dtype=np.float64).copy()
        driver.reembedder.rows_recomputed = int(
            meta["reembed_rows_total"])
        driver.reembedder._embedded_graph = Graph.from_edges(
            snapshot.num_nodes, state["stream.embed.graph_edges"],
            features=snapshot.features)
        driver.active_artifact = artifact_from_table(
            np.asarray(state["stream.active.table"],
                       dtype=np.float64).copy(),
            str(meta["active_version"]), predictor_kind_of(model),
            model.predictor.state_dict(), driver.sharded.assignment,
            int(meta["num_parts"]))
        driver.gate = RolloutGate(auc_floor=config.auc_floor)
        driver.records = [TickRecord.from_dict(r)
                          for r in meta["records"]]
        driver.counters = {k: int(v)
                           for k, v in meta["counters"].items()}
        driver._serve_comm = {k: int(v)
                              for k, v in meta["serve_comm"].items()}
        driver._base_comm = {k: int(v)
                             for k, v in meta["stream_comm"].items()}
        driver._cluster = None
        driver._next_tick = int(meta["next_tick"])
        driver._ready = True
        return driver
