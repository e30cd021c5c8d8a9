"""The synchronous distributed training loop (Algorithm 1).

:class:`DistributedTrainer` simulates a cluster of ``p`` workers in a
deterministic, sequential event loop.  Each round, every worker that
still has a mini-batch this epoch:

1. draws positive samples from its partition,
2. draws negative samples from its configured candidate space
   (local-only, or global via the shared store),
3. builds the computational graph through its
   :class:`~repro.distributed.views.WorkerGraphView` (remote accesses
   are charged to its communication meter),
4. computes the loss and backpropagates.

Synchronization is either per-round gradient averaging or periodic
model averaging.  Per-epoch validation follows the paper's protocol:
the synchronized model is scored on the validation split, and the
weights with the best validation Hits@K are the ones tested.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..eval.evaluator import EvalResult, Evaluator
from ..faults import FaultController
from ..graph.splits import EdgeSplit
from ..nn.loss import bce_with_logits
from ..nn.models import LinkPredictionModel, build_model
from ..nn.optim import Adam
from ..obs import LOSS_BUCKETS, RunObserver, RunReport, build_run_report
from ..partition.partitioned import PartitionedGraph
from ..sampling.loader import EdgeBatchLoader
from ..sampling.negative import (
    DegreeWeightedNegativeSampler,
    InBatchNegativeSampler,
    PerSourceUniformNegativeSampler,
)
from ..sampling.neighbor import NeighborSampler
from .comm import FEATURE_ITEMSIZE, GB, CommMeter, CommRecord
from .sync import ParameterServer, SyncPlan, broadcast_model
from .views import WorkerGraphView

#: Test/chaos instrumentation: a callable invoked parent-side at the
#: top of every round with ``(trainer, epoch, round)`` before any work
#: is dispatched.  The kill-driver harness uses it to SIGKILL the
#: coordinator at an exact seeded point; ``None`` (the default) costs
#: one comparison per round.
_ROUND_HOOK = None

#: Serializes hook swaps: harnesses may install/clear hooks from a
#: different thread than the coordinator loop reading them.
_ROUND_HOOK_LOCK = threading.Lock()


def set_round_hook(hook):
    """Install the round hook (``None`` clears it); returns the
    previous hook so callers can restore it."""
    global _ROUND_HOOK
    with _ROUND_HOOK_LOCK:
        previous = _ROUND_HOOK
        _ROUND_HOOK = hook
    return previous


@dataclass
class TrainConfig:
    """Hyperparameters shared by every training framework.

    Defaults follow the paper (Section V-A): 3-layer GNN, hidden 256,
    fanouts 25/10/5, batch 256, Adam with lr 1e-3, MLP edge predictor.
    Scaled-down runs override ``hidden_dim``/``epochs`` for speed.
    """

    gnn_type: str = "sage"
    hidden_dim: int = 256
    num_layers: int = 3
    fanouts: Sequence[int] = (25, 10, 5)
    predictor: str = "mlp"
    batch_size: int = 256
    lr: float = 1e-3
    epochs: int = 20
    dropout: float = 0.0
    num_heads: int = 1
    # Training-time negative sampling strategy: "uniform" (paper's
    # per-source uniform), "degree" (PinSage-style, ∝ degree^0.75) or
    # "in_batch" (recycle batch destinations).
    negative_sampler: str = "uniform"
    # Synchronization mode: "barrier" (canonical alias of the legacy
    # "grad" per-round all-reduce, today's default), "ps"
    # (parameter-server with bounded staleness), "async" (fully-async
    # pushes with seeded pulls), "local_sgd" (model averaging every
    # sync_every rounds), or the legacy values "grad"/"model".
    sync: str = "grad"
    sync_every_batches: int = 0   # 0 = once per epoch (model averaging)
    sync_topology: str = "allreduce"  # or "parameter_server"
    # Bounded-staleness knob for sync="ps": a worker pulls fresh server
    # weights once its version lag exceeds this many applied pushes
    # (0 = pull after every push, the sequential-consistency corner).
    max_staleness: int = 2
    # Local-SGD cadence for sync="local_sgd": model averaging every
    # this many trained rounds.
    sync_every: int = 4
    # Pull probability for sync="async": the seeded per-round coin a
    # worker flips to decide whether to refresh its replica.
    pull_prob: float = 0.5
    # Pre-computed update interleaving (repro.distributed.SyncPlan, or
    # its to_dict() form).  None derives one from the knobs above with
    # the run seed — see SyncPlan.for_config.
    sync_plan: Optional[object] = None
    cache_remote_features: bool = False  # epoch-scoped remote feature cache
    # Partition layout for runs that build their own PartitionedGraph
    # (repro.api / build_trainer): a repro.partition.PartitionSpec, a
    # plain strategy name, or the spec's to_dict() form — all
    # canonicalized to a PartitionSpec here.  None keeps the
    # framework's default strategy.
    partition: Optional[object] = None
    # Failure injection (legacy knob): probability that a worker's
    # contribution to a synchronization round is lost.  Compiles to a
    # FaultPlan via FaultPlan.from_probability — same RNG stream as the
    # pre-plan trainer, so old configs stay bit-identical.  Mutually
    # exclusive with fault_plan.
    worker_failure_prob: float = 0.0
    # Declarative fault schedule (repro.faults.FaultPlan, or its
    # to_dict() form).  None (and prob 0) means a fault-free run that
    # is bit-identical to pre-faults training.
    fault_plan: Optional[object] = None
    # How injected faults are survived: "drop" (contribution lost),
    # "retry" (bounded exponential backoff re-delivery), "restore"
    # (rehydrate from the last checkpoint + replay) or "elastic"
    # (continue with survivors, reweight the averages).
    recovery: str = "drop"
    # Process-backend checkpoint cadence in epochs for the restore
    # policy (0 disables checkpointing; in-process backends checkpoint
    # at sync barriers and ignore this).
    checkpoint_every: int = 1
    # Per-operation budget: how long (simulated seconds for injected
    # stragglers, wall seconds for real child-process reads) a worker
    # may lag before it is treated as dead.
    fault_timeout_s: float = 30.0
    # Retry policy bounds: attempts per worker, and the base of the
    # exponential backoff schedule (simulated seconds).
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    hits_k: int = 100
    eval_every: int = 1
    # Early stopping: stop after `patience` consecutive evaluations
    # without validation improvement (0 disables).
    patience: int = 0
    # Multiplicative learning-rate decay applied every `lr_decay_every`
    # epochs (1.0 disables).
    lr_decay: float = 1.0
    lr_decay_every: int = 1
    # Observability (repro.obs): record a span trace + metrics for the
    # run and attach the joined RunReport to TrainResult.report.  All
    # recorded durations are synthetic (timeline cost model), so
    # observed runs stay deterministic and observe=False runs are
    # bit-identical to uninstrumented ones.
    observe: bool = False
    # Execution backend: "serial" (default), "thread" or "process".
    # All three produce bit-identical results for the same seed — see
    # repro.distributed.backends.
    backend: str = "serial"
    # Expected worker count, 0 = decided by the trainer (num_parts).
    # When set it must match the cluster size at build time; it exists
    # so a fully self-describing config can be validated up front.
    num_workers: int = 0
    # Durable session checkpoints (repro.checkpoint): directory the
    # trainer writes atomic, checksummed full-session snapshots into,
    # every checkpoint_every epochs.  None disables durable
    # checkpointing (the restore recovery policy's in-memory/child
    # snapshots are independent of this knob).
    checkpoint_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        from .sync import LEGACY_SYNC_MODES, SYNC_MODES, SyncPlan
        if self.sync not in SYNC_MODES + LEGACY_SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES + LEGACY_SYNC_MODES}, "
                f"got {self.sync!r}")
        if self.sync == "barrier":
            # "barrier" is the canonical alias of the legacy per-round
            # gradient all-reduce; canonicalizing here keeps every
            # downstream dispatch (and bit-identity with pre-async
            # builds) trivially intact.
            self.sync = "grad"
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if not 0.0 <= self.pull_prob <= 1.0:
            raise ValueError("pull_prob must be in [0, 1]")
        if isinstance(self.sync_plan, dict):
            # Accept the to_dict form so configs stay JSON-round-trippable.
            self.sync_plan = SyncPlan.from_dict(self.sync_plan)
        if (self.sync_plan is not None
                and not isinstance(self.sync_plan, SyncPlan)):
            raise ValueError(
                "sync_plan must be a SyncPlan (or its to_dict form), "
                f"got {type(self.sync_plan).__name__}")
        if self.sync_plan is not None and self.sync_plan.mode != self.sync:
            raise ValueError(
                f"sync_plan.mode {self.sync_plan.mode!r} does not match "
                f"sync={self.sync!r}")
        if (self.sync in ("ps", "async") and self.recovery == "restore"):
            raise ValueError(
                "recovery='restore' is a barrier-family policy (it "
                "replays from synchronization barriers, which ps/async "
                "runs never reach); use drop, retry or elastic with "
                "asynchronous sync modes")
        if self.sync in ("ps", "async", "local_sgd") \
                and self.num_workers == 1:
            import warnings
            warnings.warn(
                f"sync={self.sync!r} with num_workers=1 degrades to the "
                "barrier mode (reason: a one-worker cluster has no "
                "staleness to schedule)", RuntimeWarning, stacklevel=2)
            self.sync = "grad"
            self.sync_plan = None
        from .execution import check_backend
        check_backend(self.backend)
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.num_workers == 1 and self.backend != "serial":
            # A one-worker pool pays startup for zero overlap.
            import warnings
            warnings.warn(
                f"backend={self.backend!r} with num_workers=1 degrades "
                "to the serial backend (reason: a one-worker pool has "
                "nothing to parallelize)", RuntimeWarning, stacklevel=2)
            self.backend = "serial"
        if len(self.fanouts) != self.num_layers:
            raise ValueError("need one fanout per layer")
        if not 0.0 <= self.worker_failure_prob < 1.0:
            raise ValueError("worker_failure_prob must be in [0, 1)")
        from ..faults import RECOVERY_POLICIES, FaultPlan
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, "
                f"got {self.recovery!r}")
        if isinstance(self.fault_plan, dict):
            # Accept the to_dict form so configs stay JSON-round-trippable.
            self.fault_plan = FaultPlan.from_dict(self.fault_plan)
        if (self.fault_plan is not None
                and not isinstance(self.fault_plan, FaultPlan)):
            raise ValueError(
                "fault_plan must be a FaultPlan (or its to_dict form), "
                f"got {type(self.fault_plan).__name__}")
        if self.fault_plan is not None and self.worker_failure_prob:
            raise ValueError(
                "fault_plan and worker_failure_prob are mutually "
                "exclusive; compile the probability into the plan with "
                "FaultPlan.from_probability")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = os.fspath(self.checkpoint_dir)
            if self.checkpoint_every < 1:
                raise ValueError(
                    "checkpoint_dir needs checkpoint_every >= 1 "
                    "(epochs between durable session snapshots)")
        if (self.recovery == "restore" and self.backend == "process"
                and self.checkpoint_every < 1):
            raise ValueError(
                "recovery='restore' on backend='process' needs "
                "checkpointing enabled: set checkpoint_every >= 1 "
                "(epochs between child snapshots)")
        if self.fault_timeout_s <= 0:
            raise ValueError("fault_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.negative_sampler not in ("uniform", "degree", "in_batch"):
            raise ValueError(
                "negative_sampler must be 'uniform', 'degree' or "
                "'in_batch'")
        if self.sync_topology not in ("allreduce", "parameter_server"):
            raise ValueError(
                "sync_topology must be 'allreduce' or 'parameter_server'")
        if self.partition is not None:
            # Accept PartitionSpec | strategy name | to_dict form, like
            # the FaultPlan/SyncPlan knobs above.
            from ..partition.registry import PartitionSpec
            self.partition = PartitionSpec.canonicalize(self.partition)


@dataclass
class EpochStats:
    """Per-epoch training record."""

    epoch: int
    mean_loss: float
    comm: CommRecord
    val: Optional[EvalResult] = None
    rounds: int = 0
    mfg_edges: int = 0  # message-flow edges computed (all workers)


@dataclass
class TrainResult:
    """Outcome of one training run."""

    framework: str
    test: EvalResult
    best_epoch: int
    history: List[EpochStats] = field(default_factory=list)
    comm_total: CommRecord = field(default_factory=CommRecord)
    num_workers: int = 1
    dropped_contributions: int = 0
    #: Fault/recovery counters from the run's FaultController (empty
    #: for fault-free runs) — crashes, retries, restores, respawns…
    faults: Dict[str, float] = field(default_factory=dict)
    #: Synchronization-mode telemetry: the resolved ``mode`` plus, for
    #: ps/async runs, push/pull counts and the observed staleness
    #: distribution (mean/max).  Barrier runs record only the mode.
    sync_stats: Dict[str, object] = field(default_factory=dict)
    #: Observability artifact (None unless ``TrainConfig.observe``).
    report: Optional[RunReport] = None

    @property
    def graph_data_gb_per_epoch(self) -> float:
        """Mean graph-data GB per epoch across all workers (paper's
        communication-cost metric)."""
        epochs = max(len(self.history), 1)
        return self.comm_total.graph_data_bytes / epochs / GB

    def val_curve(self) -> List[float]:
        """Validation Hits@K at each evaluated epoch, in order."""
        return [s.val.hits for s in self.history if s.val is not None]

    def digest(self) -> str:
        """Canonical sha256 over the run's observable outcome.

        Covers accuracy, the full epoch history, communication
        ledgers, fault counters and sync telemetry; floats are hashed
        via ``float.hex`` so the digest is exact (not print-rounded)
        and NaN losses hash stably.  Two runs with equal digests
        produced bit-identical training trajectories — this is the
        invariant the checkpoint/resume and cross-backend tests gate
        on.  ``report`` (the obs artifact) is excluded: it is derived
        from the same counters and only exists for observed runs.
        """
        def _f(x: float) -> str:
            return float(x).hex()

        payload = {
            "framework": self.framework,
            "num_workers": self.num_workers,
            "best_epoch": self.best_epoch,
            "test": [_f(self.test.hits), _f(self.test.auc),
                     int(self.test.k)],
            "comm_total": self.comm_total.to_dict(),
            "dropped": self.dropped_contributions,
            "faults": {k: _f(v)
                       for k, v in sorted(self.faults.items())},
            "sync_stats": {k: _f(v) if isinstance(v, float) else v
                           for k, v in sorted(self.sync_stats.items())},
            "history": [
                [s.epoch, _f(s.mean_loss), s.comm.to_dict(), s.rounds,
                 s.mfg_edges,
                 ([_f(s.val.hits), _f(s.val.auc), int(s.val.k)]
                  if s.val is not None else None)]
                for s in self.history],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def summary(self) -> str:
        """Human-readable report of the run (accuracy + comm ledger)."""
        total = self.comm_total
        epochs = max(len(self.history), 1)
        lines = [
            f"framework: {self.framework}",
            f"workers:   {self.num_workers}",
            f"epochs:    {len(self.history)} (best: {self.best_epoch})",
            f"test:      Hits@{self.test.k}={self.test.hits:.4f}, "
            f"AUC={self.test.auc:.4f}",
            "communication per epoch:",
            f"  features:  {total.feature_bytes / epochs / 2**20:.3f} MB",
            f"  structure: {total.structure_bytes / epochs / 2**20:.3f} MB",
            f"  sync:      {total.sync_bytes / epochs / 2**20:.3f} MB",
        ]
        if self.sync_stats.get("pushes"):
            lines.append(
                f"parameter server: {self.sync_stats['pushes']:g} pushes, "
                f"{self.sync_stats['pulls']:g} pulls, "
                f"mean staleness {self.sync_stats['mean_staleness']:.2f} "
                f"(max {self.sync_stats['max_staleness']:g})")
        if self.dropped_contributions:
            lines.append(
                f"dropped worker contributions: "
                f"{self.dropped_contributions}")
        if self.faults:
            events = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                               else f"{k}={v}"
                               for k, v in sorted(self.faults.items()))
            lines.append(f"fault events: {events}")
        return "\n".join(lines)


class _Worker:
    """Per-worker state: model replica, optimizer, samplers, meter."""

    def __init__(
        self,
        part: int,
        view: WorkerGraphView,
        model: LinkPredictionModel,
        config: TrainConfig,
        positive_edges: np.ndarray,
        negative_candidates: np.ndarray,
        rng: np.random.Generator,
        obs: Optional[RunObserver] = None,
    ) -> None:
        self.part = part
        self.view = view
        self.model = model
        self.obs = obs
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.sampler = NeighborSampler(config.fanouts, rng=rng)
        full_graph = view.partitioned.full
        if config.negative_sampler == "degree":
            self.negative_sampler = DegreeWeightedNegativeSampler(
                full_graph, candidates=negative_candidates, rng=rng)
        elif config.negative_sampler == "in_batch":
            self.negative_sampler = InBatchNegativeSampler(full_graph,
                                                           rng=rng)
        else:
            self.negative_sampler = PerSourceUniformNegativeSampler(
                full_graph, candidates=negative_candidates, rng=rng)
        self._in_batch = config.negative_sampler == "in_batch"
        self.loader = EdgeBatchLoader(positive_edges, config.batch_size,
                                      rng=rng)
        self.rng = rng
        if obs is not None:
            self.negative_sampler.obs = obs

    def train_batch(self, batch: np.ndarray) -> tuple:
        """Returns ``(loss_value, mfg_edges)`` for the batch."""
        obs = self.obs
        if obs is None:
            return self._run_batch(batch, None)
        with obs.span("batch", worker=self.part,
                      batch_size=int(batch.shape[0])):
            return self._run_batch(batch, obs)

    def _run_batch(self, batch: np.ndarray,
                   obs: Optional[RunObserver]) -> tuple:
        """One mini-batch; when observing, the sample/fetch/compute
        phases become child spans with timeline-model durations."""
        if self._in_batch:
            neg = self.negative_sampler.sample(batch)
        else:
            neg = self.negative_sampler.sample(batch[:, 0])
        pairs = np.concatenate([batch, neg], axis=0)
        labels = np.concatenate([np.ones(batch.shape[0]),
                                 np.zeros(neg.shape[0])])
        seeds, inverse = np.unique(pairs.ravel(), return_inverse=True)
        if obs is None:
            comp_graph = self.sampler.sample(self.view, seeds)
            features = self.view.fetch_features(comp_graph.input_nodes)
        else:
            meter = self.view.meter
            before = meter.current.structure_bytes if meter else 0
            with obs.span("sample", worker=self.part) as sp:
                comp_graph = self.sampler.sample(self.view, seeds)
                moved = (meter.current.structure_bytes - before
                         if meter else 0)
                seconds = obs.transfer_seconds(
                    moved, requests=1 if moved else 0)
                obs.advance(seconds)
                sp.attrs["structure_bytes"] = moved
            obs.counter("time.sample_s").inc(seconds)
            before = meter.current.feature_bytes if meter else 0
            with obs.span("fetch", worker=self.part) as sp:
                features = self.view.fetch_features(comp_graph.input_nodes)
                moved = (meter.current.feature_bytes - before
                         if meter else 0)
                seconds = obs.transfer_seconds(moved)
                obs.advance(seconds)
                sp.attrs["feature_bytes"] = moved
            obs.counter("time.fetch_s").inc(seconds)
        pair_idx = inverse.reshape(-1, 2)
        mfg_edges = sum(b.num_edges for b in comp_graph.blocks)
        compute_cm = (obs.span("compute", worker=self.part,
                               mfg_edges=mfg_edges)
                      if obs is not None else nullcontext())
        with compute_cm:
            scores = self.model(comp_graph, features,
                                pair_idx[:, 0], pair_idx[:, 1])
            loss = bce_with_logits(scores, labels)
            self.optimizer.zero_grad()
            loss.backward()
            if obs is not None:
                seconds = obs.compute_seconds(mfg_edges)
                obs.advance(seconds)
        loss_value = loss.item()
        if obs is not None:
            obs.counter("time.compute_s").inc(seconds)
            obs.counter("train.batches").inc(1)
            obs.counter("train.mfg_edges").inc(mfg_edges)
            obs.histogram("train.loss", LOSS_BUCKETS).observe(loss_value)
        return loss_value, mfg_edges


class DistributedTrainer:
    """Runs Algorithm 1 for any framework configuration.

    The framework-specific pieces are injected: the partitioned graph
    (strategy + mirroring already applied), one remote store shared by
    all workers (or ``None``), and the negative candidate space per
    worker.  ``correction_hook``, when given, runs after every
    synchronization round with the synchronized model — this is how
    LLCG's global correction step is implemented.
    """

    def __init__(
        self,
        framework: str,
        split: EdgeSplit,
        partitioned: PartitionedGraph,
        config: TrainConfig,
        remote_store=None,
        global_negatives: bool = False,
        correction_hook=None,
        positive_mode: str = "local",
        observer: Optional[RunObserver] = None,
        backend=None,
    ) -> None:
        if positive_mode not in ("local", "owned_cover"):
            raise ValueError(
                f"positive_mode must be 'local' or 'owned_cover', "
                f"got {positive_mode!r}")
        if (config.num_workers
                and config.num_workers != partitioned.num_parts):
            raise ValueError(
                f"TrainConfig.num_workers={config.num_workers} does not "
                f"match the partitioning ({partitioned.num_parts} parts)")
        if backend is None:
            backend = config.backend
        if isinstance(backend, str):
            from .backends import make_backend
            backend = make_backend(backend, partitioned.num_parts)
        self.backend = backend
        self.framework = framework
        self.split = split
        self.partitioned = partitioned
        self.config = config
        self.remote_store = remote_store
        self.correction_hook = correction_hook
        self.positive_mode = positive_mode
        if observer is None and config.observe:
            observer = RunObserver()
        self.observer = observer
        #: Set by ``_train_loop``; backends consult it for fault
        #: counters and elastic liveness during recovery.
        self.fault_controller = None
        #: Build-time knobs that live outside TrainConfig (alpha,
        #: sparsifier choice); recorded in durable checkpoints so
        #: resume can rebuild the identical cluster.  build_trainer
        #: overwrites this with its actual arguments.
        self.build_knobs = {"alpha": 0.15,
                            "sparsifier_kind": "approx_er"}
        #: Loop state loaded by repro.checkpoint.restore_trainer;
        #: consumed (and cleared) by ``_train_loop`` to continue a
        #: previous run at ``epoch + 1``.
        self._resume = None
        self.meters = [CommMeter() for _ in range(partitioned.num_parts)]
        # Vertex-cut replica averaging: every sync event a worker ships
        # the hidden state of each mirrored node to its master and gets
        # the averaged copy back (2 × |mirrors| × hidden_dim floats).
        # This is the communication vertex cut trades its zero
        # training-time feature fetches for; charged parent-side (in
        # _synchronize/_ps_round) so all backends stay bit-identical.
        self._replica_sync_total = 0
        if partitioned.edge_partitioned:
            self._replica_sync_nbytes = [
                2 * int(partitioned.mirror_nodes(part).size)
                * config.hidden_dim * FEATURE_ITEMSIZE
                for part in range(partitioned.num_parts)]
        else:
            self._replica_sync_nbytes = [0] * partitioned.num_parts
        if observer is not None:
            for meter in self.meters:
                meter.obs = observer
            if remote_store is not None:
                # An AuditedStore sanitizer proxies reads but not
                # attribute writes; instrument the store it wraps.
                inner = getattr(remote_store, "_store", remote_store)
                inner.obs = observer
        self.evaluator = Evaluator(
            split, config.fanouts, k=config.hits_k,
            rng=np.random.default_rng(config.seed + 7919))

        master_rng = np.random.default_rng(config.seed)
        feature_dim = split.train_graph.feature_dim
        reference = build_model(
            config.gnn_type, feature_dim, config.hidden_dim,
            num_layers=config.num_layers, predictor=config.predictor,
            dropout=config.dropout, num_heads=config.num_heads,
            seed=config.seed)

        self.workers: List[_Worker] = []
        for part in range(partitioned.num_parts):
            view = WorkerGraphView(
                partitioned, part, remote=remote_store,
                meter=self.meters[part],
                cache_remote_features=config.cache_remote_features,
                obs=observer)
            model = build_model(
                config.gnn_type, feature_dim, config.hidden_dim,
                num_layers=config.num_layers, predictor=config.predictor,
                dropout=config.dropout, num_heads=config.num_heads,
                seed=config.seed)
            if global_negatives:
                candidates = view.global_candidate_nodes()
            else:
                candidates = view.local_candidate_nodes()
            positives = self._worker_positive_edges(part)
            worker_rng = np.random.default_rng(
                master_rng.integers(0, 2**63 - 1))
            self.workers.append(_Worker(
                part, view, model, config, positives, candidates, worker_rng,
                obs=observer))
        broadcast_model(reference, [w.model for w in self.workers])

        if (config.sync in ("ps", "async", "local_sgd")
                and partitioned.num_parts == 1):
            import warnings
            warnings.warn(
                f"sync={config.sync!r} on a single partition degrades "
                "to the barrier mode (reason: a one-worker cluster has "
                "no staleness to schedule)", RuntimeWarning, stacklevel=2)
            config.sync = "grad"
            config.sync_plan = None
        self.sync_plan: Optional[SyncPlan] = None
        self.parameter_server: Optional[ParameterServer] = None
        if config.sync in ("ps", "async", "local_sgd"):
            plan = config.sync_plan
            if plan is None:
                plan = SyncPlan.for_config(config, partitioned.num_parts)
            if plan.num_workers != partitioned.num_parts:
                raise ValueError(
                    f"sync_plan.num_workers={plan.num_workers} does not "
                    f"match the partitioning ({partitioned.num_parts} "
                    f"parts)")
            self.sync_plan = plan
        if config.sync in ("ps", "async"):
            # The server replica starts from the same broadcast weights
            # as every worker and owns the only optimizer that moves
            # under PS training.
            server_model = build_model(
                config.gnn_type, feature_dim, config.hidden_dim,
                num_layers=config.num_layers, predictor=config.predictor,
                dropout=config.dropout, num_heads=config.num_heads,
                seed=config.seed)
            server_model.load_state_dict(reference.state_dict())
            self.parameter_server = ParameterServer(
                server_model, Adam(server_model.parameters(), lr=config.lr),
                self.sync_plan, meters=self.meters, obs=observer)

    # ------------------------------------------------------------------

    def _worker_positive_edges(self, part: int) -> np.ndarray:
        """Positive training edges for worker ``part``.

        ``positive_mode="local"``: edges the worker stores.  Mirrored
        partitions see every edge incident to an owned node (SpLPG
        trains cross-partition edges on both sides); induced partitions
        only see fully-internal edges — the lost cross-partition
        positives are part of the vanilla baselines' information loss.

        ``positive_mode="owned_cover"``: the complete data-sharing
        strategy.  Each graph edge is assigned to exactly one worker
        (its lower endpoint's owner), so the cluster jointly covers
        every positive edge each epoch exactly as centralized training
        does — remote neighborhoods/features for the non-local pieces
        are fetched from the master (and paid for).
        """
        if self.positive_mode == "owned_cover":
            owned = self.partitioned.owned_edges(part)
            if owned.shape[0]:
                return owned
        local = self.partitioned.local_graph(part).edge_list()
        if local.shape[0] == 0:
            # Degenerate partition (tiny graph + unlucky random
            # assignment): fall back to the ownership cover so the
            # worker still has something to iterate.
            local = self.partitioned.owned_edges(part)
        return local

    # ------------------------------------------------------------------

    def train(self) -> TrainResult:
        """Run Algorithm 1 to completion and return the result.

        The per-round batch work executes on the configured
        :mod:`execution backend <repro.distributed.backends>`; the
        synchronization collectives are the round barrier.  When an
        observer is attached, every epoch/round/batch/sync phase is
        traced on the simulated clock and the joined
        :class:`~repro.obs.report.RunReport` lands on
        ``TrainResult.report``.
        """
        backend = self.backend
        backend.bind(self)
        wall_started = time.perf_counter()
        try:
            result = self._train_loop()
        finally:
            backend.close()
        if self.observer is not None and backend.parallel:
            # Real elapsed time of the whole run, alongside the modeled
            # (simulated-clock) timeline.
            self.observer.gauge("train.wall_clock_s").set(
                time.perf_counter() - wall_started)
            if result.report is not None:
                result.report = build_run_report(self.observer, result)
        return result

    def _train_loop(self) -> TrainResult:
        """The epoch/round loop, generic over the execution backend."""
        config = self.config
        obs = self.observer
        backend = self.backend
        models = [w.model for w in self.workers]
        history: List[EpochStats] = []
        best_val = -1.0
        best_state: Optional[Dict[str, np.ndarray]] = None
        best_epoch = -1
        faults = FaultController(self)
        self.fault_controller = faults
        evals_since_best = 0

        ckpt_store = None
        if config.checkpoint_dir is not None:
            from ..checkpoint.store import CheckpointStore
            ckpt_store = CheckpointStore(config.checkpoint_dir)

        start_epoch = 0
        resume = self._resume
        if resume is not None:
            # Continue a restored run: re-enter the loop exactly where
            # the checkpoint left off.  Worker/evaluator/server state
            # was already loaded by repro.checkpoint.restore_trainer;
            # here we rebuild the loop locals and replay permanent
            # worker removals into the fresh backend + controller.
            self._resume = None
            start_epoch = resume.epoch + 1
            history = list(resume.history)
            best_val = resume.best_val
            best_state = resume.best_state
            best_epoch = resume.best_epoch
            evals_since_best = resume.evals_since_best
            resume.apply_faults(faults)
            for i, alive in enumerate(faults.live):
                if not alive:
                    backend.deactivate(i)

        for epoch in range(start_epoch, config.epochs):
            epoch_cm = (obs.span("epoch", epoch=epoch)
                        if obs is not None else nullcontext())
            epoch_started = obs.tracer.now_s if obs is not None else 0.0
            with epoch_cm:
                backend.begin_epoch()
                faults.begin_epoch(epoch)
                losses: List[float] = []
                batches_since_sync = 0
                rounds_since_avg = 0
                epoch_rounds = 0
                epoch_mfg_edges = 0
                while not backend.all_exhausted():
                    round_cm = (obs.span("round", index=epoch_rounds)
                                if obs is not None else nullcontext())
                    with round_cm:
                        if _ROUND_HOOK is not None:
                            _ROUND_HOOK(self, epoch, epoch_rounds)
                        has_batch = backend.poll_batches()
                        decision = faults.plan_round(epoch, epoch_rounds,
                                                     has_batch)
                        train_mask = decision.train_mask
                        pending = (backend.pending_batches()
                                   if faults.logging_batches else None)
                        round_results = backend.train_round(train_mask)
                        for res in round_results:
                            if res is not None:
                                losses.append(res.loss)
                                epoch_mfg_edges += res.mfg_edges
                        if pending is not None:
                            for i, ok in enumerate(train_mask):
                                if ok:
                                    faults.note_trained(i, pending[i])
                        epoch_rounds += 1
                        if obs is not None:
                            obs.counter("train.rounds").inc(1)
                        if not any(train_mask):
                            # Nothing trained this round (exhausted
                            # loaders and/or injected failures).
                            continue
                        live = None if faults.all_live else faults.live
                        if config.sync == "grad":
                            if any(decision.sync_mask):
                                self._synchronize("grad",
                                                  decision.sync_mask,
                                                  live=live)
                                if live is None:
                                    backend.step_all()
                                else:
                                    backend.step_participants(live)
                                faults.barrier(epoch, epoch_rounds)
                        elif config.sync in ("ps", "async"):
                            self._ps_round(epoch, epoch_rounds - 1,
                                           round_results,
                                           decision.sync_mask)
                        elif config.sync == "local_sgd":
                            backend.step_participants(train_mask)
                            for i, ok in enumerate(train_mask):
                                if ok:
                                    faults.note_step(i)
                            rounds_since_avg += 1
                            if self.sync_plan.is_sync_round(
                                    rounds_since_avg):
                                self._synchronize(
                                    "local_sgd",
                                    faults.model_sync_mask()
                                    if faults.enabled else None,
                                    live=live)
                                rounds_since_avg = 0
                                self._run_correction()
                                faults.barrier(epoch, epoch_rounds)
                        else:
                            backend.step_participants(train_mask)
                            for i, ok in enumerate(train_mask):
                                if ok:
                                    faults.note_step(i)
                            batches_since_sync += 1
                            if (config.sync_every_batches
                                    and batches_since_sync
                                    >= config.sync_every_batches):
                                self._synchronize(
                                    "model",
                                    faults.model_sync_mask()
                                    if faults.enabled else None,
                                    live=live)
                                batches_since_sync = 0
                                self._run_correction()
                                faults.barrier(epoch, epoch_rounds)
                if config.sync == "model" and (
                        not config.sync_every_batches or batches_since_sync):
                    self._synchronize(
                        "model",
                        faults.model_sync_mask()
                        if faults.enabled else None,
                        live=None if faults.all_live else faults.live)
                    self._run_correction()
                    faults.barrier(epoch, epoch_rounds)
                elif config.sync == "local_sgd" and rounds_since_avg:
                    # Flush the tail of the epoch into one last average
                    # so validation sees the consensus model.
                    self._synchronize(
                        "local_sgd",
                        faults.model_sync_mask()
                        if faults.enabled else None,
                        live=None if faults.all_live else faults.live)
                    self._run_correction()
                    faults.barrier(epoch, epoch_rounds)
                elif config.sync in ("ps", "async"):
                    # The epoch boundary is a pull barrier: every live
                    # worker receives the server model, so validation
                    # (and any correction hook) sees one consistent
                    # consensus state.
                    self._ps_epoch_barrier(
                        None if faults.all_live else faults.live)
                elif config.sync == "grad":
                    # Under per-round gradient averaging the replicas
                    # are already synchronized; the server-side
                    # correction (LLCG) runs once per epoch, the same
                    # cadence as the default model-averaging round.
                    self._run_correction()

                comm = CommRecord()
                for meter in self.meters:
                    comm += meter.end_epoch()
                mean_loss = float(np.mean(losses)) if losses else float("nan")

                val = None
                if ((epoch + 1) % config.eval_every == 0
                        or epoch == config.epochs - 1):
                    backend.refresh_eval_model()
                    faults.refresh_eval(models)
                    val_cm = (obs.span("validate", epoch=epoch)
                              if obs is not None else nullcontext())
                    with val_cm:
                        val = self.evaluator.validate(models[0])
                    if obs is not None:
                        obs.counter("train.evals").inc(1)
                        obs.gauge("train.val_hits").set(float(val.hits))
                    if val.hits > best_val:
                        best_val = val.hits
                        best_state = models[0].state_dict()
                        best_epoch = epoch
                        evals_since_best = 0
                    else:
                        evals_since_best += 1
                history.append(EpochStats(epoch=epoch, mean_loss=mean_loss,
                                          comm=comm, val=val,
                                          rounds=epoch_rounds,
                                          mfg_edges=epoch_mfg_edges))
            if obs is not None:
                obs.counter("train.epochs").inc(1)
                obs.histogram("epoch.duration_s").observe(
                    obs.tracer.now_s - epoch_started)

            if (config.patience and val is not None
                    and evals_since_best >= config.patience):
                break
            if (config.lr_decay < 1.0
                    and (epoch + 1) % config.lr_decay_every == 0):
                backend.scale_lr(config.lr_decay)
                if self.parameter_server is not None:
                    self.parameter_server.optimizer.lr *= config.lr_decay
            if ckpt_store is not None and (
                    (epoch + 1) % config.checkpoint_every == 0
                    or epoch == config.epochs - 1):
                # After the lr decay so the snapshot holds the decayed
                # rate; a patience break above skips the write, so
                # resume re-evaluates (and re-takes) the break.
                self._write_checkpoint(
                    ckpt_store, epoch, epoch_rounds, history, best_val,
                    best_state, best_epoch, evals_since_best, faults)

        if best_state is not None:
            models[0].load_state_dict(best_state)
        else:
            backend.refresh_eval_model()
            faults.refresh_eval(models)
        test_cm = obs.span("test") if obs is not None else nullcontext()
        with test_cm:
            test = self.evaluator.test(models[0])

        total = CommRecord()
        for stats in history:
            total += stats.comm
        sync_stats: Dict[str, object] = {"mode": config.sync}
        if self.parameter_server is not None:
            sync_stats.update(self.parameter_server.stats())
        elif self.sync_plan is not None:
            sync_stats["sync_every"] = self.sync_plan.sync_every
        if self.partitioned.edge_partitioned:
            sync_stats["replica_sync_bytes"] = self._replica_sync_total
        result = TrainResult(
            framework=self.framework,
            test=test,
            best_epoch=best_epoch,
            history=history,
            comm_total=total,
            num_workers=len(self.workers),
            dropped_contributions=faults.dropped_contributions,
            faults=faults.summary(),
            sync_stats=sync_stats,
        )
        if obs is not None:
            result.report = build_run_report(obs, result)
        return result

    # ------------------------------------------------------------------

    def _write_checkpoint(self, store, epoch: int, rnd: int, history,
                          best_val: float, best_state, best_epoch: int,
                          evals_since_best: int, faults) -> None:
        """Capture the full session state and durably persist it."""
        from ..checkpoint.state import capture_trainer_state
        obs = self.observer
        cm = (obs.span("checkpoint.write", epoch=epoch)
              if obs is not None else nullcontext())
        with cm:
            state = capture_trainer_state(
                self, epoch=epoch, rnd=rnd, history=history,
                best_val=best_val, best_state=best_state,
                best_epoch=best_epoch,
                evals_since_best=evals_since_best, faults=faults)
            info = store.write(state, epoch, rnd)
        if obs is not None:
            obs.counter("checkpoint.writes").inc(1)
            obs.counter("checkpoint.bytes_written").inc(info.nbytes)

    # ------------------------------------------------------------------

    def _charge_replica_sync(self,
                             live: Optional[List[bool]] = None) -> None:
        """Charge vertex-cut mirror reconciliation for one sync event.

        Parent-side (never inside backend workers) so the ledger is
        bit-identical across serial/thread/process.  No-op for
        node-partitioned layouts — ``_replica_sync_nbytes`` is all
        zeros there."""
        for part, nbytes in enumerate(self._replica_sync_nbytes):
            if nbytes and (live is None or live[part]):
                self.meters[part].charge_sync(nbytes)
                self._replica_sync_total += nbytes

    def _synchronize(self, mode: str,
                     participating: Optional[List[bool]] = None,
                     live: Optional[List[bool]] = None) -> None:
        """Run the backend's sync barrier, traced as one ``sync`` span
        whose duration is the per-worker payload over the modeled
        link.  ``live`` (elastic recovery) restricts the collective to
        the surviving workers."""
        obs = self.observer
        topology = self.config.sync_topology

        def dispatch(obs_arg) -> None:
            """Route to the right backend collective."""
            if mode == "grad":
                self.backend.apply_gradients(participating, topology,
                                             obs=obs_arg, live=live)
            else:
                self.backend.sync_models(topology, obs=obs_arg,
                                         participating=participating,
                                         live=live)

        if obs is None:
            dispatch(None)
            self._charge_replica_sync(live)
            return
        before = self.meters[0].current.sync_bytes
        with obs.span("sync", mode=mode) as sp:
            dispatch(obs)
            self._charge_replica_sync(live)
            moved = self.meters[0].current.sync_bytes - before
            seconds = obs.sync_seconds(moved)
            obs.advance(seconds)
            sp.attrs["sync_bytes"] = moved
        obs.counter("time.sync_s").inc(seconds)

    # ------------------------------------------------------------------

    def _ps_round(self, epoch: int, rnd: int, round_results,
                  sync_mask: List[bool]) -> None:
        """One parameter-server round: push surviving gradients in the
        SyncPlan's seeded order, pulling per the mode's staleness rule.

        ``round_results`` tells which workers actually trained a batch
        (their replicas hold this round's gradients); ``sync_mask``
        drops workers whose push was lost by the fault layer.  Traced
        as one ``sync`` span whose modeled duration covers this round's
        push/pull payloads.
        """
        server = self.parameter_server
        backend = self.backend
        push_mask = [ok and round_results[i] is not None
                     for i, ok in enumerate(sync_mask)]
        grads = backend.collect_gradients(push_mask)
        obs = self.observer

        def dispatch(obs_arg) -> None:
            """Apply the round against the server replica."""
            server.obs = obs_arg
            server.apply_round(epoch, rnd, grads, push_mask,
                               backend.load_worker_model)

        if obs is None:
            dispatch(None)
            self._charge_replica_sync()
            return
        before = self.meters[0].current.sync_bytes
        with obs.span("sync", mode=self.config.sync) as sp:
            dispatch(obs)
            self._charge_replica_sync()
            moved = self.meters[0].current.sync_bytes - before
            seconds = obs.sync_seconds(moved)
            obs.advance(seconds)
            sp.attrs["sync_bytes"] = moved
        obs.counter("time.sync_s").inc(seconds)

    def _ps_epoch_barrier(self, live: Optional[List[bool]]) -> None:
        """Epoch-end pull barrier for ps/async runs: ship the server
        model to every live worker, then run the correction hook (the
        server adopts any corrected weights)."""
        server = self.parameter_server
        backend = self.backend
        obs = self.observer
        barrier_cm = (obs.span("sync", mode=f"{self.config.sync}-barrier")
                      if obs is not None else nullcontext())
        with barrier_cm:
            server.epoch_barrier(live, backend.load_worker_model)
        if self.correction_hook is not None:
            self._run_correction()
            server.adopt(self.workers[0].model.state_dict(), live=live)

    # ------------------------------------------------------------------

    def _run_correction(self) -> None:
        if self.correction_hook is not None:
            self.backend.run_correction(self.correction_hook)
