"""The fault controller: injects planned faults and drives recovery.

One :class:`FaultController` is attached to a
:class:`~repro.distributed.trainer.DistributedTrainer` for the length
of a ``train()`` call.  Each synchronization round the trainer hands it
the per-worker has-batch flags; the controller consults the
:class:`~repro.faults.plan.FaultPlan` (plus the legacy probabilistic
shim) and returns a :class:`RoundDecision` with two masks:

* ``train_mask`` — which workers actually train their pending batch,
* ``sync_mask``  — which workers' contributions reach the
  synchronization collective.

The two differ under message faults: a worker whose sync message is
lost *did* train (its RNG stream advanced exactly as in a fault-free
run) but contributes nothing — this is the invariant that keeps
same-seed runs comparable across recovery policies.

Recovery policies
-----------------

``drop``
    Today's behavior: the crashed worker's batch is consumed but never
    trained, its contribution is lost, the round proceeds with
    survivors.
``retry``
    The fault is treated as lost delivery of a durable result: the
    contribution is re-delivered after bounded exponential backoff
    (charged to the simulated clock), so a run with enough retry
    budget finishes bit-identical to its fault-free twin.
``restore``
    The crash wipes the worker's volatile state (model, optimizer
    moments, RNG).  The worker is rehydrated from the last barrier
    checkpoint (serialized through :mod:`repro.nn.serialize`) and its
    batch/step log since that barrier is replayed, reproducing the
    pre-crash state bit for bit; the pending batch then trains
    normally and the round is indistinguishable from fault-free.
``elastic``
    The worker is removed for good; training continues with the
    survivors and every subsequent model average is reweighted over
    the live workers only (partial-participation PSGD-PA averaging).

On the process backend, planned crashes are executed *for real*: the
controller SIGKILLs the worker's child process and the backend's
death-detection/respawn machinery (guarded pipe reads with liveness
probes and timeouts, call-log replay) carries out the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .plan import FAILURE_SEED_SALT, FaultEvent, FaultPlan
from .snapshot import WorkerSnapshot, restore_worker, snapshot_worker

#: Recovery policies accepted by ``TrainConfig.recovery``.
RECOVERY_POLICIES = ("drop", "retry", "restore", "elastic")


@dataclass
class RoundDecision:
    """What the trainer should do with this round's pending batches."""

    train_mask: List[bool]
    sync_mask: List[bool]
    #: Workers whose pending batch was dropped this round.
    dropped: int = 0


@dataclass
class _WorkerLog:
    """Replay log since the last barrier snapshot (restore policy)."""

    snapshot: Optional[WorkerSnapshot] = None
    #: ``("batch", array)`` and ``("step",)`` actions, in order.
    actions: List[tuple] = field(default_factory=list)


class FaultController:
    """Per-run fault injection + recovery state machine."""

    def __init__(self, trainer) -> None:
        config = trainer.config
        self.trainer = trainer
        self.config = config
        plan = config.fault_plan
        if plan is None:
            if config.worker_failure_prob:
                plan = FaultPlan.from_probability(config.worker_failure_prob)
            else:
                plan = FaultPlan.empty()
        elif isinstance(plan, dict):
            plan = FaultPlan.from_dict(plan)
        self.plan = plan
        self.policy = config.recovery
        num_workers = len(trainer.workers)
        if plan.max_worker() >= num_workers:
            raise ValueError(
                f"fault plan targets worker {plan.max_worker()} but the "
                f"cluster has {num_workers} worker(s)")
        self.live: List[bool] = [True] * num_workers
        self.obs = trainer.observer
        self.counts: Dict[str, int] = {}
        self.dropped_contributions = 0
        #: RNG for the legacy probabilistic shim; same seed salt (and
        #: the same per-round draw order) as the pre-plan trainer, so
        #: ``worker_failure_prob`` configs stay bit-identical.
        self._failure_rng = np.random.default_rng(
            config.seed + FAILURE_SEED_SALT)
        self._logs: List[_WorkerLog] = [_WorkerLog()
                                        for _ in range(num_workers)]
        self._retry_attempts: List[int] = [0] * num_workers
        #: Workers whose sync message was lost since the last model
        #: barrier — excluded from the next model average.
        self._model_sync_excluded: set = set()
        self._outage_rounds_left = 0
        self._epoch = -1
        self._epoch_first_round = True
        #: In-process restore needs barrier snapshots; the process
        #: backend manages its own checkpoint/replay machinery.
        self._snapshots_here = (self.policy == "restore"
                                and not plan.is_empty()
                                and not getattr(trainer.backend,
                                                "child_owned_state", False))

    # -- bookkeeping -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this run injects any faults at all."""
        return not self.plan.is_empty()

    @property
    def logging_batches(self) -> bool:
        """True when the trainer must hand trained batches to
        :meth:`note_trained` (in-process restore replay log)."""
        return self._snapshots_here

    def num_live(self) -> int:
        """Workers still participating."""
        return sum(self.live)

    @property
    def all_live(self) -> bool:
        """True while no worker has been permanently removed."""
        return all(self.live)

    def model_sync_mask(self) -> List[bool]:
        """Who participates in the next model average: live workers
        whose sync messages since the last barrier all arrived."""
        return [alive and i not in self._model_sync_excluded
                for i, alive in enumerate(self.live)]

    def refresh_eval(self, models) -> None:
        """Keep ``models[0]`` evaluable after worker 0's removal by
        copying the first live replica's weights into it (in-process
        backends; the process backend pulls from a live child)."""
        if self.live[0]:
            return
        for i, alive in enumerate(self.live):
            if alive:
                models[0].load_state_dict(models[i].state_dict())
                return

    def count(self, name: str, value: float = 1) -> None:
        """Increment an internal fault counter and its obs mirror."""
        self.counts[name] = self.counts.get(name, 0) + value
        if self.obs is not None:
            self.obs.counter(f"fault.{name}").inc(value)

    def summary(self) -> Dict[str, float]:
        """All fault/recovery counters accumulated so far."""
        return dict(self.counts)

    def _span(self, kind: str, **attrs):
        """Emit a zero-duration ``fault`` span when observing."""
        if self.obs is not None:
            with self.obs.span("fault", kind=kind, **attrs):
                pass

    def mark_dead(self, worker: int, reason: str = "") -> None:
        """Permanently remove a worker (elastic removal, real death)."""
        if self.live[worker]:
            self.live[worker] = False
            self.count("elastic_removed")
            self._span("elastic_remove", worker=worker, reason=reason)

    # -- epoch / round hooks ---------------------------------------------

    def begin_epoch(self, epoch: int) -> None:
        """Reset per-epoch state; barrier snapshots wait for the first
        round so they capture the post-shuffle RNG state."""
        self._epoch = epoch
        self._epoch_first_round = True

    def plan_round(self, epoch: int, rnd: int,
                   has_batch: List[bool]) -> RoundDecision:
        """Decide this round's faults and run in-process recoveries.

        Draw order of the probabilistic shim replays the legacy
        trainer's exactly: one draw per live worker holding a batch, in
        worker order, before declarative events apply.
        """
        if self._epoch_first_round:
            self._epoch_first_round = False
            if self._snapshots_here:
                self._barrier_snapshot(epoch, rnd)
        train_mask = [bool(h) and self.live[i]
                      for i, h in enumerate(has_batch)]
        decision = RoundDecision(train_mask=train_mask,
                                 sync_mask=list(train_mask))
        dropped_before = self.dropped_contributions
        if self._outage_rounds_left > 0:
            self._outage_rounds_left -= 1
            self._store_stall()
        prob = self.plan.worker_failure_prob
        if prob:
            for i, has in enumerate(has_batch):
                if not has or not self.live[i]:
                    continue
                if self._failure_rng.random() < prob:
                    self._apply_crash(i, decision, source="prob")
        for event in self.plan.events_at(epoch, rnd):
            self._apply_event(event, decision)
        decision.dropped = self.dropped_contributions - dropped_before
        return decision

    def note_trained(self, worker: int, batch) -> None:
        """Record a trained batch in the replay log (restore policy)."""
        if self._snapshots_here and batch is not None:
            self._logs[worker].actions.append(("batch", batch))

    def note_step(self, worker: int) -> None:
        """Record a local optimizer step in the replay log."""
        if self._snapshots_here:
            self._logs[worker].actions.append(("step",))

    def barrier(self, epoch: int, rnd: int) -> None:
        """A synchronization barrier completed: every live replica is
        at a consistent, reproducible point — refresh checkpoints and
        forget pre-barrier message faults."""
        self._model_sync_excluded.clear()
        if self._snapshots_here:
            self._barrier_snapshot(epoch, rnd)

    # -- event application ------------------------------------------------

    def _apply_event(self, event: FaultEvent,
                     decision: RoundDecision) -> None:
        """Dispatch one declarative event against this round."""
        if event.kind == "store_outage":
            self.count("store_outages")
            self._span("store_outage", rounds=event.rounds)
            self._outage_rounds_left = max(self._outage_rounds_left,
                                           event.rounds - 1)
            self._store_stall()
            return
        worker = event.worker
        if not self.live[worker]:
            return
        if event.kind == "crash":
            self._apply_crash(worker, decision, source="plan")
        elif event.kind == "straggle":
            self._apply_straggle(worker, event, decision)
        elif event.kind in ("msg_loss", "msg_corrupt"):
            self._apply_message_fault(worker, event.kind, decision)

    def _apply_crash(self, worker: int, decision: RoundDecision,
                     source: str) -> None:
        """A worker loses its round (and, under restore, its state).

        On the process backend, *planned* crashes are executed for real
        (SIGKILL); the backend's death detection and respawn machinery
        then carries out the recovery, so the mask stays on for retry
        and restore.  Probabilistic (legacy-shim) crashes never kill —
        they keep the pre-plan drop semantics on every backend.
        """
        self.count("crashes")
        self._span("crash", worker=worker, source=source,
                   policy=self.policy)
        backend = self.trainer.backend
        child_owned = getattr(backend, "child_owned_state", False)
        real_kill = child_owned and source == "plan"
        if real_kill:
            backend.inject_crash(worker)
        if self.policy == "drop":
            self._drop(worker, decision)
        elif self.policy == "retry":
            if real_kill:
                # The backend requeues the pending batch onto the
                # respawned child; the backoff is charged there.
                pass
            elif self._charge_retries(worker):
                self.count("redelivered")
            else:
                self._drop(worker, decision)
        elif self.policy == "restore":
            if child_owned:
                # Real kill: the backend rehydrates the child from its
                # last snapshot and replays the call log.  Shim
                # crash: the result is durable child-side, so leaving
                # the mask on is the re-delivery.
                pass
            else:
                self._restore(worker)
        elif self.policy == "elastic":
            if self.num_live() <= 1:
                self._spare_last_worker(worker, decision)
                return
            self.mark_dead(worker, reason=source)
            backend.deactivate(worker)
            self._drop(worker, decision)

    def _apply_straggle(self, worker: int, event: FaultEvent,
                        decision: RoundDecision) -> None:
        """Charge the delay; past the timeout budget it is a crash."""
        self.count("straggles")
        self.count("straggle_s", event.delay_s)
        self._span("straggle", worker=worker, delay_s=event.delay_s)
        if self.obs is not None:
            self.obs.advance(event.delay_s)
        if event.delay_s > self.config.fault_timeout_s:
            self.count("straggle_timeouts")
            self._apply_crash(worker, decision, source="straggle")

    def _apply_message_fault(self, worker: int, kind: str,
                             decision: RoundDecision) -> None:
        """The worker trains, but its contribution is lost/corrupted;
        retry and restore re-deliver (the result is durable
        worker-side), drop and elastic lose it for the round."""
        self.count(kind)
        self._span(kind, worker=worker, policy=self.policy)
        if self.policy in ("retry", "restore"):
            if self._charge_retries(worker):
                self.count("redelivered")
                return
        if decision.train_mask[worker]:
            decision.sync_mask[worker] = False
            self._model_sync_excluded.add(worker)
            self._count_dropped()

    # -- recovery actions --------------------------------------------------

    def _drop(self, worker: int, decision: RoundDecision) -> None:
        """Lose the worker's round: batch consumed, never trained."""
        decision.train_mask[worker] = False
        decision.sync_mask[worker] = False
        self._count_dropped()

    def record_dropped(self) -> None:
        """Backend hook: a real worker death dropped a contribution."""
        self._count_dropped()

    def _count_dropped(self) -> None:
        self.dropped_contributions += 1
        self.count("dropped_contributions")
        if self.obs is not None:
            # Legacy counter name, kept for report compatibility.
            self.obs.counter("train.dropped_contributions").inc(1)

    def _charge_retries(self, worker: int) -> bool:
        """Charge one bounded-exponential-backoff re-delivery.

        The n-th retry for a worker waits ``retry_backoff_s * 2**n``
        simulated seconds, capped at ``fault_timeout_s``.  Returns
        False once the worker has exhausted its ``max_retries`` budget,
        in which case the caller degrades to ``drop``.
        """
        config = self.config
        attempt = self._retry_attempts[worker]
        if attempt >= config.max_retries:
            self.count("retry_budget_exhausted")
            return False
        self._retry_attempts[worker] = attempt + 1
        backoff = min(config.retry_backoff_s * (2.0 ** attempt),
                      config.fault_timeout_s)
        self.count("retries")
        self.count("retry_backoff_s", backoff)
        self._span("retry", worker=worker, attempt=attempt,
                   backoff_s=backoff)
        if self.obs is not None:
            self.obs.advance(backoff)
        return True

    def _spare_last_worker(self, worker: int,
                           decision: RoundDecision) -> None:
        """Never remove the final live worker — degrade to drop so the
        run can finish (the no-hang chaos invariant)."""
        self.count("spared_last_worker")
        self._span("spared_last_worker", worker=worker)
        self._drop(worker, decision)

    def _restore(self, worker: int) -> None:
        """Wipe and rehydrate an in-process worker, then replay.

        The wipe is real: parameters are zeroed, the optimizer loses
        its moments and the RNG is scrambled, so a restore that failed
        to rebuild state exactly would be caught by the bit-identity
        acceptance tests rather than masked by leftover live state.
        """
        log = self._logs[worker]
        if log.snapshot is None:  # crash before the first barrier
            self.count("restore_unavailable")
            return
        self.count("restores")
        self._span("restore", worker=worker,
                   replayed=len(log.actions))
        w = self.trainer.workers[worker]
        self._wipe(w)
        restore_worker(w, log.snapshot)
        replayed = 0
        for action in log.actions:
            if action[0] == "batch":
                w._run_batch(action[1], None)
                replayed += 1
            elif action[0] == "step":
                w.optimizer.step()
        if replayed:
            self.count("replayed_batches", replayed)
        if self.obs is not None:
            self.obs.advance(self.config.retry_backoff_s)

    @staticmethod
    def _wipe(worker) -> None:
        """Destroy a worker's volatile state (simulated crash)."""
        for p in worker.model.parameters():
            p.data = np.zeros_like(p.data)
            p.grad = None
        blank = {name: np.zeros_like(value) for name, value
                 in worker.optimizer.state_dict().items()}
        blank["lr"] = np.asarray(worker.optimizer.lr)
        worker.optimizer.load_state_dict(blank)
        worker.rng.bit_generator.state = (
            np.random.default_rng(0xDEAD).bit_generator.state)

    def _barrier_snapshot(self, epoch: int, rnd: int) -> None:
        """Checkpoint every live worker and truncate the replay logs."""
        for i, w in enumerate(self.trainer.workers):
            if not self.live[i]:
                continue
            snap = snapshot_worker(w, epoch, rnd)
            self._logs[i] = _WorkerLog(snapshot=snap)
            self.count("checkpoint_bytes", snap.nbytes)
        self.count("checkpoints")

    def _store_stall(self) -> None:
        """One round spent with the shared store unreachable: workers
        buffer their remote requests and the run pays latency (no data
        is lost — the store replays its queue when it returns)."""
        self.count("store_outage_rounds")
        stall = self.config.retry_backoff_s
        self.count("store_stall_s", stall)
        if self.obs is not None:
            self.obs.advance(stall)
