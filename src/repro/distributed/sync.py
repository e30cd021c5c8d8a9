"""Model synchronization: barriers, parameter servers and local SGD.

Algorithm 1 (lines 29-30) synchronizes by averaging worker gradients
every mini-batch; the baselines use periodic model averaging (FedAvg
style).  SpLPG supports both — the paper reports that their prediction
performance is "more or less the same" and uses model averaging for
the headline numbers.  Both are *barrier* modes: every worker reaches
the collective before any worker proceeds.

This module also implements the asynchronous alternatives the paper
leaves unexplored, selected with ``TrainConfig(sync=)``:

* ``"barrier"``   — today's behaviour (canonicalized to the legacy
  ``"grad"`` per-round gradient all-reduce), bit-identical to pre-async
  builds;
* ``"ps"``        — a parameter server with bounded staleness: workers
  push gradients to a server replica and pull weights back only when
  their version lag exceeds ``max_staleness``;
* ``"async"``     — fully-asynchronous updates: pushes apply in a
  seeded interleaved order and pulls happen on seeded coin flips, so
  staleness is unbounded;
* ``"local_sgd"`` — periodic model averaging every ``sync_every``
  rounds (FedAvg cadence measured in rounds, not batches).

Determinism follows the ``FaultPlan`` trick: a seeded :class:`SyncPlan`
pre-computes every interleaving decision (push order, pull coin flips,
averaging rounds) from ``(seed, epoch, round)`` alone, so each mode is
replayable and bit-identical same-seed across the serial, thread and
process execution backends.

Sync traffic is charged to each worker's meter in the ``sync`` bucket:
barrier modes use a selectable topology cost model (ring all-reduce by
default, parameter-server optional) — see
:func:`sync_bytes_per_worker` — while ``ps``/``async`` charge one
:func:`ps_message_nbytes` payload per push and per pull.  Parameters
travel as float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..nn.models import LinkPredictionModel
from .comm import CommMeter

#: First-class ``TrainConfig(sync=)`` modes.  ``"barrier"`` is the
#: canonical name of the legacy ``"grad"`` per-round all-reduce; the
#: legacy values ``"grad"`` and ``"model"`` stay accepted.
SYNC_MODES = ("barrier", "ps", "async", "local_sgd")

#: Legacy ``TrainConfig(sync=)`` values (both barrier-family).
LEGACY_SYNC_MODES = ("grad", "model")

#: Modes whose update interleaving is driven by a :class:`SyncPlan`.
PLANNED_SYNC_MODES = ("ps", "async", "local_sgd")


def average_gradients(
    models: Sequence[LinkPredictionModel],
    meters: Optional[Sequence[CommMeter]] = None,
    participating: Optional[Sequence[bool]] = None,
    topology: str = "allreduce",
    obs=None,
    live: Optional[Sequence[bool]] = None,
) -> None:
    """All-reduce gradients in place (Algorithm 1 line 29).

    ``participating`` masks workers that produced no batch this round
    (their gradients are absent); the average runs over participants.
    After the call every model holds the same averaged gradient, so
    identical optimizer states take identical steps.  ``obs``, when
    given, counts the round (byte metrics mirror through the meters).

    ``live`` marks workers permanently removed by the fault layer's
    elastic policy: the cost model sizes the collective to the live
    cluster and dead workers are neither updated nor charged.
    """
    if participating is None:
        participating = [True] * len(models)
    count_sync_round(obs, sum(participating))
    if live is None:
        live = [True] * len(models)
    active = [m for m, ok in zip(models, participating) if ok]
    if not active:
        return
    mean = mean_gradients([{name: p.grad for name, p
                            in m.named_parameters()} for m in active])
    # Every live worker, participant or not, receives the averaged
    # gradient.
    for model, ok, alive in zip(models, participating, live):
        if ok or alive:
            for name, p in model.named_parameters():
                g = mean[name]
                p.grad = None if g is None else g.copy()
    charge_sync(meters, models[0].parameter_nbytes(), topology, live)


def average_models(
    models: Sequence[LinkPredictionModel],
    meters: Optional[Sequence[CommMeter]] = None,
    topology: str = "allreduce",
    obs=None,
    participating: Optional[Sequence[bool]] = None,
    live: Optional[Sequence[bool]] = None,
) -> None:
    """FedAvg-style model averaging [40]: every worker's weights are
    replaced by the element-wise mean.

    ``participating`` restricts the mean to the workers whose sync
    messages arrived (partial averaging, PSGD-PA style); the result is
    still loaded into every model so a non-participant rejoins the
    consensus rather than drifting.  ``live`` sizes the collective's
    cost model to the surviving cluster under elastic recovery.
    """
    if not models:
        return
    if participating is None:
        participating = [True] * len(models)
    if not any(participating):
        return
    count_sync_round(obs, sum(participating))
    averaged = mean_states([m.state_dict() for m, ok
                            in zip(models, participating) if ok])
    for m in models:
        m.load_state_dict(averaged)
    charge_sync(meters, models[0].parameter_nbytes(), topology, live)


def broadcast_model(source: LinkPredictionModel,
                    targets: Sequence[LinkPredictionModel]) -> None:
    """Copy ``source`` weights into every target (Algorithm 1 line 16)."""
    state = source.state_dict()
    for t in targets:
        t.load_state_dict(state)


def sync_bytes_per_worker(param_nbytes: int, num_workers: int,
                          topology: str = "allreduce") -> int:
    """Bytes one worker sends+receives in a synchronization round.

    * ``allreduce`` — ring all-reduce: each worker moves
      ``2 (p-1)/p`` times the parameter payload (reduce-scatter +
      all-gather), the standard NCCL cost model.
    * ``parameter_server`` — one upload plus one download of the full
      payload per worker.
    """
    if num_workers <= 1:
        return 0
    if topology == "allreduce":
        return int(2 * param_nbytes * (num_workers - 1) / num_workers)
    if topology == "parameter_server":
        return int(2 * param_nbytes)
    raise ValueError(
        f"unknown topology {topology!r}; choose 'allreduce' or "
        f"'parameter_server'")


def count_sync_round(obs, participants: int) -> None:
    """Count one barrier round and its participants on ``obs``."""
    if obs is not None:
        obs.counter("sync.rounds").inc(1)
        obs.counter("sync.participants").inc(participants)


def mean_gradients(grads: Sequence[Dict[str, Optional[np.ndarray]]]
                   ) -> Dict[str, Optional[np.ndarray]]:
    """Element-wise mean of participants' named gradients.

    Summed in participant order and divided by the participant count
    (a participant without a gradient counts as zero); ``None`` where
    no participant has one.
    """
    mean: Dict[str, Optional[np.ndarray]] = {}
    for name in grads[0]:
        present = [g[name] for g in grads if g[name] is not None]
        mean[name] = sum(present) / len(grads) if present else None
    return mean


def mean_states(states: Sequence[Dict[str, np.ndarray]]
                ) -> Dict[str, np.ndarray]:
    """Element-wise mean of participants' named weights (FedAvg)."""
    return {name: np.mean([sd[name] for sd in states], axis=0)
            for name in states[0]}


def charge_sync(meters: Optional[Sequence[Optional[CommMeter]]],
                param_nbytes: int, topology: str = "allreduce",
                live: Optional[Sequence[bool]] = None) -> None:
    """Charge one barrier round to every live meter (``live`` None:
    all of them), the collective sized to the live cluster."""
    if meters is None:
        return
    if live is None:
        live = [True] * len(meters)
    per_worker = sync_bytes_per_worker(param_nbytes, sum(live), topology)
    for meter, alive in zip(meters, live):
        if meter is not None and alive:
            meter.charge_sync(per_worker)


def ps_message_nbytes(param_nbytes: int) -> int:
    """Wire bytes of one parameter-server message (push or pull).

    A push uploads the full gradient, a pull downloads the full model;
    both move exactly the float32 parameter payload, so the cost of a
    PS round is ``pushes + pulls`` payloads rather than a collective's
    ``2 (p-1)/p`` — the trade the staleness frontier measures.
    """
    return int(param_nbytes)


@dataclass(frozen=True)
class SyncPlan:
    """A seeded, declarative schedule of asynchronous update decisions.

    Replayability is the whole point: every decision an async schedule
    makes — the order pushes reach the server, whether a worker pulls
    after pushing, which rounds average models — is derived from
    ``(seed, epoch, round)`` alone, never from wall-clock arrival or
    call order.  The same plan therefore produces the same interleaving
    on the serial, thread and process backends, which is what makes
    ``ps``/``async``/``local_sgd`` runs bit-identical same-seed (the
    ``FaultPlan`` determinism trick applied to synchronization).

    ``mode`` selects which decisions are consulted: ``"ps"`` uses
    ``max_staleness`` (forced pull once the version lag exceeds it),
    ``"async"`` uses ``pull_prob`` (seeded per-worker coin flip each
    round), ``"local_sgd"`` uses ``sync_every`` (model averaging every
    that many rounds).  Unused knobs are carried but ignored, so one
    plan dict round-trips through any mode.
    """

    mode: str
    num_workers: int
    seed: int = 0
    max_staleness: int = 2
    pull_prob: float = 0.5
    sync_every: int = 4
    name: str = "sync-plan"

    def __post_init__(self) -> None:
        """Validate the mode and knob ranges."""
        if self.mode not in PLANNED_SYNC_MODES:
            raise ValueError(
                f"SyncPlan.mode must be one of {PLANNED_SYNC_MODES}, "
                f"got {self.mode!r}")
        if self.num_workers < 1:
            raise ValueError("SyncPlan.num_workers must be >= 1")
        if self.max_staleness < 0:
            raise ValueError("SyncPlan.max_staleness must be >= 0")
        if not 0.0 <= self.pull_prob <= 1.0:
            raise ValueError("SyncPlan.pull_prob must be in [0, 1]")
        if self.sync_every < 1:
            raise ValueError("SyncPlan.sync_every must be >= 1")

    # -- seeded decisions -----------------------------------------------

    def _round_rng(self, epoch: int, rnd: int) -> np.random.Generator:
        """The decision stream for one ``(epoch, round)`` cell.

        Seeded from the plan seed plus the cell coordinates through a
        ``SeedSequence``, so decisions are independent of the order in
        which rounds (or backends) ask for them.
        """
        return np.random.default_rng(
            (int(self.seed), int(epoch), int(rnd)))

    def push_order(self, epoch: int, rnd: int,
                   participants: Sequence[int]) -> List[int]:
        """The order participants' pushes reach the server this round.

        A seeded permutation of ``participants`` — the deterministic
        stand-in for nondeterministic network arrival order.  Barrier
        modes never call this.
        """
        participants = list(participants)
        order = self._round_rng(epoch, rnd).permutation(len(participants))
        return [participants[j] for j in order]

    def should_pull(self, epoch: int, rnd: int, worker: int,
                    staleness: int) -> bool:
        """Whether ``worker`` pulls fresh weights after its push.

        ``ps``: pull exactly when the post-push version lag exceeds
        ``max_staleness`` (the bounded-staleness contract).  ``async``:
        a seeded per-worker Bernoulli draw with ``pull_prob`` —
        staleness is unbounded.  ``local_sgd`` never pulls.
        """
        if self.mode == "ps":
            return staleness > self.max_staleness
        if self.mode == "async":
            rng = np.random.default_rng(
                (int(self.seed), int(epoch), int(rnd), int(worker)))
            return bool(rng.random() < self.pull_prob)
        return False

    def is_sync_round(self, rounds_since_sync: int) -> bool:
        """Whether a local-SGD averaging round is due.

        ``rounds_since_sync`` counts trained rounds since the last
        model average; averaging fires every ``sync_every`` rounds.
        """
        return rounds_since_sync >= self.sync_every

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`), JSON-safe."""
        return {
            "mode": self.mode,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "max_staleness": self.max_staleness,
            "pull_prob": self.pull_prob,
            "sync_every": self.sync_every,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SyncPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(mode=str(data["mode"]),
                   num_workers=int(data["num_workers"]),
                   seed=int(data.get("seed", 0)),
                   max_staleness=int(data.get("max_staleness", 2)),
                   pull_prob=float(data.get("pull_prob", 0.5)),
                   sync_every=int(data.get("sync_every", 4)),
                   name=str(data.get("name", "sync-plan")))

    @classmethod
    def for_config(cls, config, num_workers: int) -> "SyncPlan":
        """Derive the plan a :class:`TrainConfig` implies.

        Used by the trainer when ``config.sync_plan`` is ``None``: the
        plan seed is the run seed, so the schedule is pinned by the
        same knob that pins everything else.
        """
        return cls(mode=config.sync, num_workers=num_workers,
                   seed=config.seed, max_staleness=config.max_staleness,
                   pull_prob=config.pull_prob,
                   sync_every=config.sync_every,
                   name=f"{config.sync}-from-config")


class ParameterServer:
    """The server replica for ``sync="ps"`` / ``sync="async"`` runs.

    Lives in the trainer (parent) process on every backend: workers
    compute gradients on their possibly-stale local weights, and the
    server applies each push sequentially — load the pushed gradient,
    take one optimizer step — in the :class:`SyncPlan`'s seeded arrival
    order.  Because the application is parent-side pure numpy in a
    deterministic order, the server trajectory is bit-identical across
    execution backends.

    ``version`` counts applied pushes; a worker's *staleness* is the
    number of pushes applied since it last pulled, observed at the
    moment its own push lands.  Push/pull payloads are charged to the
    pushing/pulling worker's meter (:func:`ps_message_nbytes` each).
    """

    def __init__(self, model: LinkPredictionModel, optimizer,
                 plan: SyncPlan,
                 meters: Optional[Sequence[CommMeter]] = None,
                 obs=None) -> None:
        self.model = model
        self.optimizer = optimizer
        self.plan = plan
        self.meters = meters
        self.obs = obs
        #: Number of pushes applied to the server so far.
        self.version = 0
        #: Server version each worker last pulled.
        self.worker_version = [0] * plan.num_workers
        #: Run totals for ``TrainResult.sync_stats``.
        self.pushes = 0
        self.pulls = 0
        self.staleness_sum = 0
        self.staleness_max = 0

    def _charge(self, worker: int) -> None:
        """Charge one PS message to ``worker``'s sync-byte ledger."""
        if self.meters is None:
            return
        meter = self.meters[worker]
        if meter is not None:
            meter.charge_sync(ps_message_nbytes(
                self.model.parameter_nbytes()))

    def _observe_staleness(self, staleness: int) -> None:
        """Record one push's staleness on the run observer."""
        self.staleness_sum += staleness
        self.staleness_max = max(self.staleness_max, staleness)
        if self.obs is not None:
            from ..obs import STALENESS_BUCKETS
            self.obs.histogram("sync.staleness",
                               STALENESS_BUCKETS).observe(float(staleness))
            self.obs.gauge("sync.server_version").set(float(self.version))

    def apply_round(self, epoch: int, rnd: int,
                    grads: Sequence[Optional[Dict[str, np.ndarray]]],
                    push_mask: Sequence[bool],
                    load_model: Callable[[int, Dict[str, np.ndarray]],
                                         None]) -> None:
        """Apply one round of pushes in the plan's seeded order.

        ``grads[i]`` is worker *i*'s named-gradient dict (``None`` when
        it trained nothing); ``push_mask`` additionally filters workers
        whose sync message was lost by the fault layer.  ``load_model``
        delivers pulled server weights to one worker on whatever
        backend is running (in-process load or child ``set_model``).
        """
        participants = [i for i, g in enumerate(grads)
                        if g is not None and push_mask[i]]
        if self.obs is not None:
            self.obs.counter("sync.rounds").inc(1)
            self.obs.counter("sync.participants").inc(len(participants))
        for i in self.plan.push_order(epoch, rnd, participants):
            staleness = self.version - self.worker_version[i]
            self._apply_push(grads[i])
            self.pushes += 1
            self._charge(i)
            self._observe_staleness(staleness)
            if self.obs is not None:
                self.obs.counter("sync.pushes").inc(1)
            if self.plan.should_pull(
                    epoch, rnd, i, self.version - self.worker_version[i]):
                self.pull(i, load_model)

    def _apply_push(self, grads: Dict[str, np.ndarray]) -> None:
        """Load one pushed gradient and take one server step."""
        for name, p in self.model.named_parameters():
            g = grads.get(name)
            p.grad = None if g is None else g
        self.optimizer.step()
        self.version += 1

    def pull(self, worker: int,
             load_model: Callable[[int, Dict[str, np.ndarray]],
                                  None]) -> None:
        """Deliver the current server weights to one worker."""
        load_model(worker, self.model.state_dict())
        self.worker_version[worker] = self.version
        self.pulls += 1
        self._charge(worker)
        if self.obs is not None:
            self.obs.counter("sync.pulls").inc(1)

    def epoch_barrier(self, live: Optional[Sequence[bool]],
                      load_model: Callable[[int, Dict[str, np.ndarray]],
                                           None]) -> None:
        """Pull the server model into every live worker.

        Runs at each epoch boundary so validation (and the correction
        hook) sees one consistent consensus model — the PS analogue of
        the barrier modes' epoch-end average.  Each delivered copy is a
        charged pull.
        """
        for i in range(self.plan.num_workers):
            if live is not None and not live[i]:
                continue
            if self.worker_version[i] == self.version:
                # A worker's weights only change through pulls and the
                # server's through pushes, so an equal version means
                # equal weights: nothing to ship.
                continue
            self.pull(i, load_model)

    def adopt(self, state: Dict[str, np.ndarray],
              live: Optional[Sequence[bool]] = None) -> None:
        """Replace the server weights with an external consensus.

        Used after a correction hook rewrites the (already-pulled)
        replicas at an epoch boundary: the server adopts the corrected
        weights and every live worker is marked current — the hook's
        own delivery path already updated the replicas, so no pull
        payload is charged here.
        """
        self.model.load_state_dict(state)
        self.version += 1
        for i in range(self.plan.num_workers):
            if live is None or live[i]:
                self.worker_version[i] = self.version

    def stats(self) -> Dict[str, float]:
        """Run totals for ``TrainResult.sync_stats``."""
        mean = (self.staleness_sum / self.pushes) if self.pushes else 0.0
        return {
            "pushes": float(self.pushes),
            "pulls": float(self.pulls),
            "server_version": float(self.version),
            "mean_staleness": float(mean),
            "max_staleness": float(self.staleness_max),
        }
