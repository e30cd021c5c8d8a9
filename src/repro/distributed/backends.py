"""Parallel execution backends for the distributed trainer.

The trainer simulates ``p`` workers; *how* their per-round batch work
is executed is an engine concern, factored out here behind the
:class:`ExecutionBackend` contract:

* :class:`SerialBackend` — the original in-process loop, the default.
  Workers train one after another in worker order; bit-identical to
  the pre-backend trainer.
* :class:`ThreadBackend` — a thread pool dispatches every worker's
  mini-batch concurrently.  numpy releases the GIL inside the dense
  and sparse matmul / segment-reduction hot paths, so compute-bound
  rounds overlap.  All mutable state (model replica, optimizer, RNG,
  CommMeter) is per-worker, so results are independent of thread
  interleaving and bit-identical to Serial.
* :class:`ProcessBackend` — one forked child process per worker, with
  the full graph's feature matrix re-homed into
  ``multiprocessing.shared_memory`` before the fork so every child
  reads features through one shared mapping (no pickling of graphs,
  views or feature tensors — children inherit them copy-on-write).
  Each child owns its worker's batch loader, samplers and RNG stream
  end to end; per-round results (loss, message-flow edge counts,
  gradient tensors, communication deltas) are merged by the parent in
  deterministic worker order, so same-seed accuracy and the CommMeter
  byte ledger match Serial exactly.

Synchronization (gradient or model averaging) is the barrier: every
backend finishes the round's batch work before the trainer invokes the
sync collective, exactly as Algorithm 1 prescribes.

Backends are selected with ``TrainConfig(backend=...)`` or constructed
directly via :func:`make_backend`.  Parallel backends degrade to
Serial with a warning when there is only one worker or (for
ProcessBackend) when the platform cannot ``fork``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..faults.errors import (
    ClusterDeadError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from .comm import CommRecord
from .execution import fork_child, guarded_recv, reap, resolve_backend
from .sync import (
    average_gradients,
    average_models,
    charge_sync,
    count_sync_round,
    mean_gradients,
    mean_states,
)

#: Keep shared-memory segments (and the ndarray views into them) alive
#: for the life of the process: graphs handed out by a ProcessBackend
#: keep referencing the mapping after the pool shuts down, and closing
#: it under them would invalidate live arrays.  Segments are unlinked
#: (named resource released) at shutdown; the mapping itself is freed
#: when the process exits.
_LIVE_SHARED_SEGMENTS: List[object] = []

#: Guards ``_LIVE_SHARED_SEGMENTS``: backends may be constructed from
#: serving threads, so registration must be thread-safe.
_SHARED_SEGMENTS_LOCK = threading.Lock()


@dataclass
class RoundResult:
    """Outcome of one worker's mini-batch in one round."""

    loss: float
    mfg_edges: int


class ExecutionBackend:
    """Contract between :class:`DistributedTrainer` and an engine.

    Lifecycle: the trainer calls :meth:`bind` once at the start of
    ``train()`` and :meth:`shutdown` when training ends.  Each epoch it
    calls :meth:`begin_epoch`, then repeatedly :meth:`poll_batches`
    (draw one batch per live worker), decides participation (failure
    injection), and calls :meth:`train_round`.  Synchronization runs
    through :meth:`apply_gradients` / :meth:`sync_models` — the
    round-level barrier — plus the optimizer-step, correction and
    evaluation hooks below.

    Implementations must preserve two invariants: every worker's RNG
    stream advances exactly as under :class:`SerialBackend`, and all
    floating-point reductions happen in worker order — together these
    make same-seed runs bit-identical across backends.
    """

    name = "base"
    #: True for backends that overlap worker compute; the trainer
    #: records ``pool.*`` metrics only for these.
    parallel = False
    #: True when worker state lives outside the trainer process (the
    #: fault layer then crashes workers for real and the backend owns
    #: detection + respawn; in-process backends simulate crashes by
    #: wiping the worker object instead).
    child_owned_state = False

    def bind(self, trainer) -> None:
        """Attach to a trainer (fork pools, allocate executors)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pools, processes and shared memory."""
        raise NotImplementedError

    def close(self) -> None:
        """Idempotent :meth:`shutdown`.

        The first call releases resources; later calls are no-ops, so
        overlapping cleanup paths (the trainer's ``finally`` block,
        fault controllers, context managers, tests) can all close
        defensively without double-releasing pools or shared memory.
        :meth:`bind` re-arms the guard, so a backend reused for a new
        run closes again.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.shutdown()

    def begin_epoch(self) -> None:
        """Reset per-epoch state: feature caches and batch iterators."""
        raise NotImplementedError

    def all_exhausted(self) -> bool:
        """True once every worker's epoch iterator is spent."""
        raise NotImplementedError

    def poll_batches(self) -> List[bool]:
        """Draw the next batch for every live worker (worker order).

        Returns one flag per worker: True if it holds a pending batch
        for this round, False if it is (or just became) exhausted.
        """
        raise NotImplementedError

    def train_round(self, participate: Sequence[bool]
                    ) -> List[Optional[RoundResult]]:
        """Run the round's pending batches.

        ``participate[i]`` False discards worker *i*'s pending batch
        (failure injection: the batch is consumed but never trained).
        Returns per-worker results, ``None`` where nothing ran.
        """
        raise NotImplementedError

    def apply_gradients(self, participating: Sequence[bool],
                        topology: str, obs=None, live=None) -> None:
        """Average participants' gradients; every live replica receives
        the mean (the gradient-sync barrier).  ``live`` marks the
        workers elastic recovery kept (``None``: all)."""
        raise NotImplementedError

    def step_all(self) -> None:
        """Optimizer step on every worker (post gradient averaging)."""
        raise NotImplementedError

    def step_participants(self, participating: Sequence[bool]) -> None:
        """Optimizer step on round participants only (model-averaging
        mode trains locally between syncs)."""
        raise NotImplementedError

    def sync_models(self, topology: str, obs=None, participating=None,
                    live=None) -> None:
        """FedAvg model averaging across replicas (the model-sync
        barrier): the mean over ``participating`` (``None``: all)
        reaches every ``live`` replica."""
        raise NotImplementedError

    # -- asynchronous sync-mode primitives ------------------------------

    def collect_gradients(self, mask: Sequence[bool]
                          ) -> List[Optional[Dict[str, np.ndarray]]]:
        """This round's named-gradient dict per masked worker.

        ``mask[i]`` False (or a worker that trained nothing) yields
        ``None``.  Used by the parameter-server modes, which apply the
        pushes parent-side in :class:`~repro.distributed.sync.SyncPlan`
        order instead of all-reducing them.
        """
        raise NotImplementedError

    def load_worker_model(self, worker: int,
                          state: Dict[str, np.ndarray]) -> None:
        """Load ``state`` into one worker's replica (a PS pull or any
        other targeted weight delivery), wherever that replica lives."""
        raise NotImplementedError

    def refresh_eval_model(self) -> None:
        """Make ``trainer.workers[0].model`` reflect worker 0's current
        weights (no-op for in-process backends)."""
        raise NotImplementedError

    def run_correction(self, hook) -> None:
        """Run a server-side correction hook over all model replicas."""
        raise NotImplementedError

    def scale_lr(self, factor: float) -> None:
        """Multiply every worker optimizer's learning rate."""
        raise NotImplementedError

    # -- fault-tolerance hooks (repro.faults) ---------------------------

    def pending_batches(self) -> List[Optional[np.ndarray]]:
        """This round's pending batch per worker (after
        :meth:`poll_batches`, before :meth:`train_round`).  The fault
        controller logs them for restore replay; only meaningful for
        in-process backends, which hold the batches parent-side."""
        raise NotImplementedError

    def deactivate(self, worker: int) -> None:
        """Permanently remove a worker from the pool (elastic
        recovery): it draws no further batches and is skipped by every
        broadcast."""
        raise NotImplementedError

    def inject_crash(self, worker: int) -> None:
        """Make a planned crash real.  In-process backends no-op (the
        controller wipes/restores the worker object itself); the
        process backend SIGKILLs the child so detection and respawn
        run against an actual death."""
        raise NotImplementedError

    def snapshot_workers(self, epoch: int,
                         rnd: int) -> List[Optional[bytes]]:
        """Serialize every worker's state (model + optimizer + RNG)
        wherever it lives, for the durable session checkpoint
        (:mod:`repro.checkpoint`).  ``None`` for workers removed by
        elastic recovery."""
        raise NotImplementedError


def make_backend(name: str, num_workers: int):
    """Build the named backend, degrading when it cannot help.

    ``process`` (and ``thread``) with a single worker would pay pool
    startup for zero overlap, so they degrade to :class:`SerialBackend`
    with a warning; ``process`` also degrades on platforms without the
    ``fork`` start method (children must inherit the graph without
    pickling it).
    """
    name = resolve_backend(name)
    if name == "serial":
        return SerialBackend()
    if num_workers <= 1:
        warnings.warn(
            f"backend={name!r} with {num_workers} worker(s) has nothing "
            "to parallelize; degrading to the serial backend",
            RuntimeWarning, stacklevel=2)
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(num_workers)
    return ProcessBackend(num_workers)


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------


class SerialBackend(ExecutionBackend):
    """The original sequential in-process engine (default)."""

    name = "serial"
    parallel = False

    def __init__(self) -> None:
        self.trainer = None
        self._iters: List = []
        self._pending: List[Optional[np.ndarray]] = []
        self._exhausted: List[bool] = []
        self._dead: set = set()

    # -- lifecycle ------------------------------------------------------

    def bind(self, trainer) -> None:
        """Attach to ``trainer``; serial needs no pool setup."""
        self.trainer = trainer
        self._closed = False
        n = len(trainer.workers)
        self._pending = [None] * n
        self._exhausted = [True] * n

    def shutdown(self) -> None:
        """Nothing to release for the in-process engine."""
        self.trainer = None

    # -- epoch / round --------------------------------------------------

    def begin_epoch(self) -> None:
        """Clear feature caches and build fresh shuffled iterators."""
        trainer = self.trainer
        if trainer.config.cache_remote_features:
            for worker in trainer.workers:
                worker.view.clear_feature_cache()
        self._iters = [iter(w.loader) for w in trainer.workers]
        self._exhausted = [i in self._dead
                           for i in range(len(trainer.workers))]
        self._pending = [None] * len(trainer.workers)

    def all_exhausted(self) -> bool:
        """True once every worker's iterator is spent."""
        return all(self._exhausted)

    def poll_batches(self) -> List[bool]:
        """Draw one batch per live worker, in worker order."""
        has: List[bool] = []
        for i, it in enumerate(self._iters):
            if self._exhausted[i]:
                self._pending[i] = None
                has.append(False)
                continue
            batch = next(it, None)
            if batch is None:
                self._exhausted[i] = True
                self._pending[i] = None
                has.append(False)
            else:
                self._pending[i] = batch
                has.append(True)
        return has

    def train_round(self, participate: Sequence[bool]
                    ) -> List[Optional[RoundResult]]:
        """Train pending batches one worker at a time, in order."""
        out: List[Optional[RoundResult]] = [None] * len(participate)
        for i, worker in enumerate(self.trainer.workers):
            batch = self._pending[i]
            self._pending[i] = None
            if batch is None or not participate[i]:
                continue
            loss, edges = worker.train_batch(batch)
            out[i] = RoundResult(loss, edges)
        return out

    # -- synchronization ------------------------------------------------

    def apply_gradients(self, participating: Sequence[bool],
                        topology: str, obs=None, live=None) -> None:
        """In-process gradient all-reduce over the worker replicas."""
        trainer = self.trainer
        average_gradients([w.model for w in trainer.workers],
                          trainer.meters, participating,
                          topology=topology, obs=obs, live=live)

    def step_all(self) -> None:
        """Step every optimizer (replicas share the averaged grad)."""
        for worker in self.trainer.workers:
            worker.optimizer.step()

    def step_participants(self, participating: Sequence[bool]) -> None:
        """Step only the workers that trained this round."""
        for worker, ok in zip(self.trainer.workers, participating):
            if ok:
                worker.optimizer.step()

    def sync_models(self, topology: str, obs=None, participating=None,
                    live=None) -> None:
        """In-process FedAvg over the worker replicas."""
        trainer = self.trainer
        average_models([w.model for w in trainer.workers],
                       trainer.meters, topology=topology, obs=obs,
                       participating=participating, live=live)

    def collect_gradients(self, mask: Sequence[bool]
                          ) -> List[Optional[Dict[str, np.ndarray]]]:
        """Read the live replicas' gradients straight off their models."""
        out: List[Optional[Dict[str, np.ndarray]]] = []
        for worker, ok in zip(self.trainer.workers, mask):
            if not ok:
                out.append(None)
                continue
            out.append({name: p.grad for name, p
                        in worker.model.named_parameters()})
        return out

    def load_worker_model(self, worker: int,
                          state: Dict[str, np.ndarray]) -> None:
        """Load weights into the in-process replica directly."""
        self.trainer.workers[worker].model.load_state_dict(state)

    # -- auxiliary hooks ------------------------------------------------

    def refresh_eval_model(self) -> None:
        """Worker 0's model object is live in-process; nothing to do."""

    def run_correction(self, hook) -> None:
        """Run the correction hook directly over the live replicas."""
        hook([w.model for w in self.trainer.workers])

    def scale_lr(self, factor: float) -> None:
        """Decay every worker optimizer's learning rate in place."""
        for worker in self.trainer.workers:
            worker.optimizer.lr *= factor

    # -- fault-tolerance hooks ------------------------------------------

    def pending_batches(self) -> List[Optional[np.ndarray]]:
        """The parent-side pending batches, by worker."""
        return list(self._pending)

    def deactivate(self, worker: int) -> None:
        """Remove a worker: drop its pending batch, stop polling it."""
        self._dead.add(worker)
        if worker < len(self._pending):
            self._pending[worker] = None
        if worker < len(self._exhausted):
            self._exhausted[worker] = True

    def inject_crash(self, worker: int) -> None:
        """In-process crashes are simulated by the fault controller
        (state wipe + optional restore); nothing to kill here."""

    def snapshot_workers(self, epoch: int,
                         rnd: int) -> List[Optional[bytes]]:
        """Serialize the in-process worker objects directly."""
        from ..faults.snapshot import snapshot_worker
        out: List[Optional[bytes]] = []
        for i, worker in enumerate(self.trainer.workers):
            if i in self._dead:
                out.append(None)
                continue
            out.append(snapshot_worker(worker, epoch, rnd).payload)
        return out


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------


class ThreadBackend(SerialBackend):
    """Thread-pool engine: one round's batches run concurrently.

    Batch *drawing* stays sequential in the caller thread (preserving
    per-worker RNG streams exactly); only the compute-heavy
    ``train_batch`` calls are dispatched to the pool.  Each worker's
    state is touched by exactly one thread per round and results are
    collected in worker order, so outputs are bit-identical to Serial.

    Per-batch observability spans are disabled under this backend (the
    span tracer is a single simulated-clock stack); the trainer records
    ``pool.*`` wall-clock metrics instead.
    """

    name = "thread"
    parallel = True

    def __init__(self, num_workers: int) -> None:
        super().__init__()
        self.num_workers = int(num_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def bind(self, trainer) -> None:
        """Attach to ``trainer`` and spin up the thread pool."""
        super().bind(trainer)
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers,
            thread_name_prefix="repro-worker")

    def shutdown(self) -> None:
        """Stop the thread pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().shutdown()

    def train_round(self, participate: Sequence[bool]
                    ) -> List[Optional[RoundResult]]:
        """Dispatch pending batches to the pool; join in worker order."""
        trainer = self.trainer
        tasks = []
        for i, worker in enumerate(trainer.workers):
            batch = self._pending[i]
            self._pending[i] = None
            if batch is None or not participate[i]:
                continue
            tasks.append((i, worker, batch))
        out: List[Optional[RoundResult]] = [None] * len(participate)
        if not tasks:
            return out
        started = time.perf_counter()
        futures = [
            (i, self._pool.submit(worker._run_batch, batch, None))
            for i, worker, batch in tasks
        ]
        for i, future in futures:
            loss, edges = future.result()
            out[i] = RoundResult(loss, edges)
        _record_pool_round(trainer.observer, self.name, len(tasks),
                           self.num_workers,
                           time.perf_counter() - started)
        return out


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class ProcessBackend(ExecutionBackend):
    """Forked worker processes with shared-memory feature storage.

    At :meth:`bind` the full graph's feature matrix is copied once into
    a ``multiprocessing.shared_memory`` segment and the graph is
    re-pointed at the shared view; the subsequent ``fork`` gives every
    child the same mapping, so feature reads never cross a pickle
    boundary and the matrix exists once in physical memory.  Each child
    then owns its worker outright — batch loader, negative/neighbor
    samplers, model replica, optimizer and meter — in a
    :class:`_WorkerHost`, whose methods the parent calls by name: it
    sends ``(method, args)`` and, unless the method is one-way, the
    child answers ``(method, result)``.  Round-wide exchanges go
    through :meth:`_gather`: send to every worker, then collect the
    replies in worker order.

    The parent performs every cross-worker reduction (gradient mean,
    model mean, sync-byte charge) itself, in worker order, through the
    same :mod:`~repro.distributed.sync` functions the in-process
    backends use, and absorbs each child's communication deltas into
    the parent-side meters — hence bit-identical metrics and
    byte-identical ledgers.

    **Fault tolerance.**  Every pipe read runs through
    :func:`~repro.distributed.execution.guarded_recv`: it polls with a
    short period, probes the child's liveness, and gives up after
    ``TrainConfig.fault_timeout_s`` wall seconds —
    a dead child raises :class:`WorkerDiedError`, a wedged one
    :class:`WorkerTimeoutError`; bare ``conn.recv()`` never blocks the
    parent forever.  Detection triggers the configured recovery:

    * ``drop``    — respawn a warm child; the in-flight contribution is
      lost.
    * ``retry``   — respawn warm (survivor weights, loader
      fast-forwarded) and requeue the in-flight batch on the new child.
    * ``restore`` — respawn, rehydrate from the worker's last periodic
      checkpoint (``TrainConfig.checkpoint_every`` epochs, serialized
      child-side through :mod:`repro.nn.serialize`) and silently replay
      the parent's call log since that checkpoint — deterministic
      compute makes the rebuilt child bit-identical to the lost one.
    * ``elastic`` — the worker is removed; collectives reweight over
      the survivors.
    """

    name = "process"
    parallel = True
    child_owned_state = True

    #: Methods recorded in the per-worker replay log (restore policy).
    _REPLAYABLE = frozenset((
        "epoch", "draw", "train", "grads", "step", "get_model",
        "set_model", "lr", "ffwd"))

    def __init__(self, num_workers: int) -> None:
        self.num_workers = int(num_workers)
        self.trainer = None
        self._procs: List = []
        self._conns: List = []
        self._has_pending: List[bool] = []
        self._exhausted: List[bool] = []
        self._round_grads: Dict[int, Dict[str, Optional[np.ndarray]]] = {}
        self._shm = None
        self._dead: set = set()
        self._timeout_s = 30.0
        self._logging = False
        self._checkpoint_every = 1
        self._epoch_index = -1
        self._in_epoch = False
        self._call_log: List[List[tuple]] = []
        self._snapshots: List[Optional[bytes]] = []
        self._draws: List[int] = []
        self._recoveries: List[int] = []

    # -- lifecycle ------------------------------------------------------

    def bind(self, trainer) -> None:
        """Move features to shared memory, then fork one child per
        worker (children inherit the trainer copy-on-write)."""
        self.trainer = trainer
        self._closed = False
        n = len(trainer.workers)
        if n != self.num_workers:
            self.num_workers = n
        config = trainer.config
        self._timeout_s = float(config.fault_timeout_s)
        self._checkpoint_every = int(config.checkpoint_every)
        self._logging = (config.recovery == "restore"
                         and self._checkpoint_every >= 1)
        self._shm = _share_features(trainer.partitioned.full)
        self._procs = [None] * n
        self._conns = [None] * n
        self._inbox = [[] for _ in range(n)]
        for part in range(n):
            self._fork_child(part)
        self._exhausted = [True] * n
        self._has_pending = [False] * n
        self._dead = set()
        self._epoch_index = -1
        self._in_epoch = False
        self._call_log = [[] for _ in range(n)]
        self._snapshots = [None] * n
        self._draws = [0] * n
        self._recoveries = [0] * n

    def _fork_child(self, part: int) -> None:
        """Fork (or re-fork) the child process owning worker ``part``."""
        self._procs[part], self._conns[part] = fork_child(
            target=_child_main, args=(self.trainer, part),
            name=f"repro-worker-{part}")
        # Replies buffered from the previous incarnation's pipe are
        # stale once the child is re-forked.
        self._inbox[part] = []

    def shutdown(self) -> None:
        """Stop children and release the shared-memory segment name."""
        for i, conn in enumerate(self._conns):
            if conn is not None and i not in self._dead:
                self._stop(i)
        self._procs, self._conns = [], []
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._shm = None
        self.trainer = None

    def _stop(self, i: int, grace_s: float = 5.0) -> None:
        """Ask child ``i`` to exit (a broken pipe means it already
        has), then reap it."""
        try:
            self._conns[i].send(("stop", ()))
        except (BrokenPipeError, OSError):
            pass
        reap(self._procs[i], self._conns[i], grace_s=grace_s)

    # -- guarded pipe I/O -----------------------------------------------

    def _controller(self):
        """The run's fault controller, when one is attached."""
        return getattr(self.trainer, "fault_controller", None)

    def _count(self, name: str, value: float = 1) -> None:
        """Mirror a backend fault event onto the controller counters."""
        controller = self._controller()
        if controller is not None:
            controller.count(name, value)

    def _raw_send(self, i: int, call: tuple) -> None:
        """Send one ``(method, args)`` call; a broken pipe means the
        child died."""
        try:
            self._conns[i].send(call)
        except (BrokenPipeError, OSError) as err:
            raise WorkerDiedError(i, f"send {call[0]!r}") from err

    def _raw_recv(self, i: int, method: str, context: str):
        """The result of child ``i``'s next reply to ``method`` — the
        one read of a child pipe, guarded by
        :func:`~repro.distributed.execution.guarded_recv`.  Replies to
        other methods that arrive first (round traffic a recovery
        interleaves with) wait in the worker's inbox."""
        inbox = self._inbox[i]
        for k, (tag, result) in enumerate(inbox):
            if tag == method:
                del inbox[k]
                return result
        while True:
            tag, result = guarded_recv(self._conns[i], self._procs[i],
                                       self._timeout_s, i, context)
            if tag == method:
                return result
            inbox.append((tag, result))

    def _send(self, i: int, call: tuple, context: str) -> None:
        """Deliver a call (logged for restore replay), recovering the
        worker if the send itself reveals a death."""
        try:
            self._raw_send(i, call)
        except WorkerDiedError:
            if self._recover(i, call, context, expect_reply=False) is None \
                    and i in self._dead:
                return
        if self._logging and call[0] in self._REPLAYABLE:
            self._call_log[i].append(call)

    def _recv(self, i: int, inflight: tuple, context: str):
        """Receive ``inflight``'s result, running death/timeout
        recovery when the child fails mid-request.  Returns ``None``
        when the worker was removed (elastic), its contribution
        dropped, or it trained nothing."""
        try:
            return self._raw_recv(i, inflight[0], context)
        except (WorkerDiedError, WorkerTimeoutError):
            return self._recover(i, inflight, context, expect_reply=True)

    def _gather(self, calls: Dict[int, tuple], context: str):
        """Send ``calls[i]`` to every worker ``i``, then yield
        ``(i, result)`` in worker order as each reply is read (see
        :meth:`_recv` for ``None``).  Workers removed by recovery
        during the sends are skipped."""
        for i, call in calls.items():
            self._send(i, call, context)
        for i, call in calls.items():
            if i not in self._dead:
                yield i, self._recv(i, call, context)

    # -- death recovery --------------------------------------------------

    def _recover(self, i: int, inflight: tuple, context: str,
                 expect_reply: bool):
        """A child died (or timed out) with ``inflight`` outstanding.

        Applies ``TrainConfig.recovery``: remove the worker (elastic),
        or respawn it — warm from a survivor (drop/retry) or restored
        from its last checkpoint plus a silent replay of the call log
        (restore) — then re-issues ``inflight`` and returns its result
        (``None`` for one-way calls or lost work).
        """
        trainer = self.trainer
        config = trainer.config
        policy = config.recovery
        controller = self._controller()
        self._count("child_deaths")
        reap(self._procs[i], self._conns[i], grace_s=0)
        live_others = [j for j in range(self.num_workers)
                       if j != i and j not in self._dead]
        if policy == "elastic":
            if live_others:
                had_pending = self._has_pending[i]
                self.deactivate(i)
                if controller is not None:
                    controller.mark_dead(i, reason=context)
                    if had_pending:
                        controller.record_dropped()
                return None
            # Never lose the last worker: fall through to a warm
            # respawn so the run can finish.
            self._count("spared_last_worker")
        self._recoveries[i] += 1
        if (policy == "retry"
                and self._recoveries[i] > max(1, config.max_retries)):
            if live_others:
                self.deactivate(i)
                if controller is not None:
                    controller.mark_dead(i, reason="retry budget")
                return None
            raise ClusterDeadError(
                f"worker {i} exceeded its retry budget and no live "
                "worker remains")
        self._count("respawns")
        if policy == "restore" and self._snapshots[i] is not None:
            self._respawn_restore(i, inflight)
        else:
            self._respawn_warm(i, inflight, live_others,
                               requeue=(policy not in ("drop",)))
        if not expect_reply:
            self._raw_send(i, inflight)
            return None
        if inflight[0] == "train":
            if policy == "drop" or not self._has_pending[i]:
                # The contribution is lost; the worker lives on.
                if controller is not None:
                    controller.record_dropped()
                return None
        self._raw_send(i, inflight)
        return self._raw_recv(i, inflight[0], context)

    def _respawn_restore(self, i: int, inflight: tuple) -> None:
        """Fork a fresh child, rehydrate it from the last checkpoint
        and replay the logged calls since — minus the in-flight one,
        which the caller re-issues for real."""
        self._fork_child(i)
        replay = self._call_log[i]
        if replay and replay[-1] == inflight:
            replay = replay[:-1]
        self._raw_send(i, ("load_snapshot", (self._snapshots[i],)))
        self._raw_send(i, ("replay", (replay,)))
        replayed = self._raw_recv(i, "replay", "replay")
        self._count("restores")
        self._count("replayed_commands", replayed)

    def _respawn_warm(self, i: int, inflight: tuple,
                      live_others: List[int], requeue: bool) -> None:
        """Fork a fresh child and warm it up: copy a survivor's model,
        re-enter the epoch and fast-forward the loader past the batches
        the dead child already consumed.  No bit-identity claim — the
        respawned worker continues on a fresh RNG stream."""
        self._fork_child(i)
        if live_others:
            src = live_others[0]
            self._raw_send(src, ("get_model", ()))
            state = self._raw_recv(src, "get_model",
                                   "get_model (warm respawn)")
            self._raw_send(i, ("set_model", (state,)))
        if self._in_epoch and not self._exhausted[i]:
            self._raw_send(i, ("epoch", ()))
            consumed = self._draws[i]
            if inflight[0] == "draw":
                # The in-flight draw is re-sent by the caller; it must
                # not be skipped here.
                consumed = max(consumed - 1, 0)
            if requeue and self._has_pending[i]:
                self._raw_send(i, ("ffwd", (max(consumed - 1, 0),)))
                self._raw_send(i, ("draw", ()))
                has = self._raw_recv(i, "draw", "draw (requeue)")
                self._has_pending[i] = has
                if not has:
                    self._exhausted[i] = True
                else:
                    self._count("requeued_batches")
            else:
                self._raw_send(i, ("ffwd", (consumed,)))
                self._has_pending[i] = False

    # -- fault-tolerance hooks ------------------------------------------

    def pending_batches(self) -> List[Optional[np.ndarray]]:
        """Batches live child-side; the parent has nothing to log."""
        return [None] * self.num_workers

    def deactivate(self, worker: int) -> None:
        """Remove a worker for good: stop polling it, end its child."""
        if worker in self._dead:
            return
        self._dead.add(worker)
        self._exhausted[worker] = True
        self._has_pending[worker] = False
        self._round_grads.pop(worker, None)
        self._stop(worker, grace_s=0)

    def inject_crash(self, worker: int) -> None:
        """SIGKILL the child — a real, unannounced death; detection
        and recovery run through the guarded receive path."""
        proc = self._procs[worker]
        if proc is None or not proc.is_alive():
            return
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=2.0)

    def _active(self) -> List[int]:
        """Worker indices not removed by elastic recovery."""
        return [i for i in range(self.num_workers) if i not in self._dead]

    # -- epoch / round --------------------------------------------------

    def begin_epoch(self) -> None:
        """Checkpoint (restore policy, on cadence), then tell every
        active child to reset its cache and iterator."""
        self._epoch_index += 1
        if (self._logging
                and self._epoch_index % self._checkpoint_every == 0):
            # The restore point: checkpoint every active child and
            # truncate its replay log.
            payloads = self.snapshot_workers(self._epoch_index, 0)
            for i, payload in enumerate(payloads):
                if payload is not None:
                    self._snapshots[i] = payload
                    self._call_log[i] = []
                    self._count("checkpoint_bytes", len(payload))
            self._count("checkpoints")
        for i in self._active():
            self._send(i, ("epoch", ()), "epoch")
        self._exhausted = [i in self._dead
                           for i in range(self.num_workers)]
        self._has_pending = [False] * self.num_workers
        self._draws = [0] * self.num_workers
        self._in_epoch = True

    def snapshot_workers(self, epoch: int,
                         rnd: int) -> List[Optional[bytes]]:
        """Pull a serialized state payload, positioned at ``(epoch,
        rnd)``, from every active child; the replay logs are left
        untouched."""
        calls = {i: ("snapshot", (epoch, rnd)) for i in self._active()}
        payloads = dict(self._gather(calls, "snapshot"))
        return [payloads.get(i) for i in range(self.num_workers)]

    def all_exhausted(self) -> bool:
        """True once every child reported an empty iterator."""
        return all(self._exhausted)

    def poll_batches(self) -> List[bool]:
        """Ask all live children to draw; collect flags in order."""
        live = [i for i in self._active() if not self._exhausted[i]]
        for i in live:
            # Count the draw before sending so recovery's fast-forward
            # arithmetic sees the in-flight draw on both the send and
            # the receive failure paths.
            self._draws[i] += 1
        for i, has_batch in self._gather({i: ("draw", ()) for i in live},
                                         "draw"):
            if has_batch is None:
                continue
            self._has_pending[i] = has_batch
            if not has_batch:
                self._exhausted[i] = True
        return [self._has_pending[i] and not self._exhausted[i]
                for i in range(self.num_workers)]

    def train_round(self, participate: Sequence[bool]
                    ) -> List[Optional[RoundResult]]:
        """Run (or discard) every pending batch concurrently; merge
        losses, edge counts, grads and comm deltas in worker order."""
        trainer = self.trainer
        want_grads = trainer.config.sync in ("grad", "ps", "async")
        inflight = {i: ("train", (bool(participate[i]), want_grads))
                    for i in self._active() if self._has_pending[i]}
        started = time.perf_counter()
        out: List[Optional[RoundResult]] = [None] * len(participate)
        self._round_grads = {}
        tasks = 0
        for i, result in self._gather(inflight, "train"):
            self._has_pending[i] = False
            if result is None:
                continue
            loss, edges, delta, grads = result
            out[i] = RoundResult(loss, edges)
            trainer.meters[i].absorb(delta)
            if grads is not None:
                self._round_grads[i] = grads
            tasks += 1
        _record_pool_round(trainer.observer, self.name, tasks,
                           self.num_workers,
                           time.perf_counter() - started)
        return out

    # -- synchronization ------------------------------------------------

    def apply_gradients(self, participating: Sequence[bool],
                        topology: str, obs=None, live=None) -> None:
        """Parent-side gradient mean over participants' returned grads;
        every live child receives the mean (and steps on
        ``step_all``)."""
        active = [self._round_grads[i]
                  for i, ok in enumerate(participating)
                  if ok and i in self._round_grads]
        count_sync_round(obs, sum(participating))
        if not active:
            return
        self._broadcast_mean("grads", mean_gradients(active), topology)
        self._round_grads = {}

    def step_all(self) -> None:
        """Every live child steps its optimizer."""
        for i in self._active():
            self._send(i, ("step", ()), "step")

    def step_participants(self, participating: Sequence[bool]) -> None:
        """Only the round's participants step their optimizers."""
        for i in self._active():
            if participating[i]:
                self._send(i, ("step", ()), "step")

    def sync_models(self, topology: str, obs=None, participating=None,
                    live=None) -> None:
        """Parent-side FedAvg: pull live children's weights, average
        participants in worker order, push the mean back to every live
        child."""
        mask = [participating is None or bool(participating[i])
                for i in range(self.num_workers)]
        count_sync_round(obs, sum(mask[i] for i in self._active()))
        included = [sd for i, sd in self._gather_states() if mask[i]]
        if not included:
            return
        self._broadcast_mean("set_model", mean_states(included), topology)

    def _broadcast_mean(self, method: str, mean: Dict[str, np.ndarray],
                        topology: str) -> None:
        """Send the round's mean to every live child through ``method``
        and charge the barrier to the live parent-side meters."""
        for i in self._active():
            self._send(i, (method, (mean,)), method)
        trainer = self.trainer
        charge_sync(trainer.meters,
                    trainer.workers[0].model.parameter_nbytes(), topology,
                    [i not in self._dead for i in range(self.num_workers)])

    def collect_gradients(self, mask: Sequence[bool]
                          ) -> List[Optional[Dict[str, np.ndarray]]]:
        """This round's child-reported gradients, filtered by ``mask``.

        Children ship their named-gradient dicts with every trained
        batch when an asynchronous sync mode is active (the same
        payloads the barrier path averages); the round buffer holds
        them until the next :meth:`train_round`.
        """
        return [self._round_grads.get(i) if ok else None
                for i, ok in enumerate(mask)]

    def load_worker_model(self, worker: int,
                          state: Dict[str, np.ndarray]) -> None:
        """Ship weights to one child (a PS pull); dead workers are
        skipped — elastic recovery already removed them."""
        if worker in self._dead:
            return
        self._send(worker, ("set_model", (state,)), "set_model")

    # -- auxiliary hooks ------------------------------------------------

    def _gather_states(self) -> List[tuple]:
        """Live children's ``(worker, state_dict)``, in worker order."""
        calls = {i: ("get_model", ()) for i in self._active()}
        return [(i, state) for i, state in self._gather(calls, "get_model")
                if state is not None]

    def refresh_eval_model(self) -> None:
        """Load the first live child's weights into the parent replica
        the evaluator reads."""
        active = self._active()
        if not active:
            raise ClusterDeadError("no live worker to evaluate")
        i = active[0]
        replies = dict(self._gather({i: ("get_model", ())}, "get_model"))
        if replies.get(i) is None:
            self.refresh_eval_model()
            return
        self.trainer.workers[0].model.load_state_dict(replies[i])

    def run_correction(self, hook) -> None:
        """Pull live replicas to the parent, run the server-side hook,
        push the corrected weights back to every live child."""
        trainer = self.trainer
        models = [w.model for w in trainer.workers]
        for i, state in self._gather_states():
            models[i].load_state_dict(state)
        hook(models)
        for i in self._active():
            self._send(i, ("set_model", (models[i].state_dict(),)),
                       "set_model")

    def scale_lr(self, factor: float) -> None:
        """Broadcast the learning-rate decay to every live child."""
        for i in self._active():
            self._send(i, ("lr", (float(factor),)), "lr")


def _share_features(graph):
    """Re-home ``graph.features`` into a shared-memory segment.

    Returns the segment (or ``None`` when the graph has no features).
    The view replaces ``graph.features`` permanently — see
    ``_LIVE_SHARED_SEGMENTS`` for why the mapping is never closed.
    """
    feats = getattr(graph, "features", None)
    if feats is None or feats.nbytes == 0:
        return None
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=feats.nbytes)
    view = np.ndarray(feats.shape, dtype=feats.dtype, buffer=shm.buf)
    view[:] = feats
    view.flags.writeable = feats.flags.writeable
    graph.features = view
    with _SHARED_SEGMENTS_LOCK:
        _LIVE_SHARED_SEGMENTS.append((shm, view))
    return shm


class _WorkerHost:
    """Worker ``part`` of the inherited trainer inside its forked
    child, called by name from :class:`ProcessBackend`.  Observability
    is detached: spans and metrics belong to the parent."""

    #: Methods whose result is not sent back.
    ONE_WAY = frozenset(("epoch", "ffwd", "grads", "step", "set_model",
                         "lr", "load_snapshot"))

    def __init__(self, trainer, part: int) -> None:
        self.trainer = trainer
        self.worker = worker = trainer.workers[part]
        self.meter = trainer.meters[part]
        detached = [worker, worker.negative_sampler, worker.view, self.meter]
        if trainer.remote_store is not None:
            detached.append(getattr(trainer.remote_store, "_store",
                                    trainer.remote_store))
        for obj in detached:
            obj.obs = None
        self.iterator = None
        self.pending = None

    def epoch(self) -> None:
        """Reset the feature cache and start the epoch's iterator."""
        if self.trainer.config.cache_remote_features:
            self.worker.view.clear_feature_cache()
        self.iterator = iter(self.worker.loader)
        self.pending = None

    def draw(self) -> bool:
        """Draw the next batch; False once the epoch is spent."""
        self.pending = next(self.iterator, None)
        return self.pending is not None

    def ffwd(self, n: int) -> None:
        """Skip ``n`` batches (warm respawn)."""
        for _ in range(n):
            next(self.iterator, None)

    def train(self, ok: bool, want_grads: bool):
        """Train the pending batch (discard it when ``ok`` is False):
        ``(loss, edges, the batch's CommRecord, grads or None)``, or
        ``None`` when nothing ran."""
        pending, self.pending = self.pending, None
        if pending is None or not ok:
            return None
        self.meter.current = CommRecord()
        loss, edges = self.worker._run_batch(pending, None)
        grads = None
        if want_grads:
            grads = {name: p.grad for name, p
                     in self.worker.model.named_parameters()}
        return loss, edges, self.meter.current, grads

    def grads(self, averaged: Dict[str, Optional[np.ndarray]]) -> None:
        """Load the averaged gradients into the replica."""
        for name, p in self.worker.model.named_parameters():
            g = averaged.get(name)
            p.grad = None if g is None else g.copy()

    def step(self) -> None:
        """Local optimizer step."""
        self.worker.optimizer.step()

    def get_model(self) -> Dict[str, np.ndarray]:
        """The replica's weights."""
        return self.worker.model.state_dict()

    def set_model(self, state: Dict[str, np.ndarray]) -> None:
        """Load synchronized weights."""
        self.worker.model.load_state_dict(state)

    def lr(self, factor: float) -> None:
        """Decay the learning rate."""
        self.worker.optimizer.lr *= factor

    def snapshot(self, epoch: int, rnd: int) -> bytes:
        """Serialized worker checkpoint at position ``(epoch, rnd)``."""
        from ..faults.snapshot import snapshot_worker
        return snapshot_worker(self.worker, epoch, rnd).payload

    def load_snapshot(self, payload: bytes) -> None:
        """Rehydrate the worker from a :meth:`snapshot` payload."""
        from ..faults.snapshot import WorkerSnapshot, restore_worker
        restore_worker(self.worker, WorkerSnapshot(
            payload=payload, epoch=0, round=0))

    def replay(self, calls: Sequence[tuple]) -> int:
        """Re-run logged ``(method, args)`` calls, dropping their
        results: after :meth:`load_snapshot`, deterministic compute
        rebuilds the dead child's state bit for bit."""
        for method, args in calls:
            getattr(self, method)(*args)
        return len(calls)


def _child_main(trainer, part: int, conn) -> None:
    """Entry point of a forked worker process: run the parent's
    ``(method, args)`` calls on a :class:`_WorkerHost` until ``stop``,
    answering ``(method, result)`` unless the method is one-way."""
    host = _WorkerHost(trainer, part)
    try:
        while True:
            # Child side: blocking on the parent is safe — parent death
            # closes the pipe and the EOFError below ends the loop.
            method, args = conn.recv()  # lint: disable=R106
            if method == "stop":
                break
            result = getattr(host, method)(*args)
            if method not in host.ONE_WAY:
                conn.send((method, result))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


def _record_pool_round(observer, backend_name: str, tasks: int,
                       workers: int, wall_s: float) -> None:
    """Record one parallel round's pool metrics on the run observer.

    Real wall-clock lands in ``pool.*`` counters/gauges and a
    zero-duration ``pool.round`` span attribute — kept separate from
    the simulated timeline so modeled durations stay deterministic.
    """
    if observer is None or tasks == 0:
        return
    with observer.span("pool.round", backend=backend_name,
                       tasks=tasks) as span:
        span.attrs["wall_s"] = wall_s
    observer.counter("pool.rounds").inc(1)
    observer.counter("pool.tasks").inc(tasks)
    observer.counter("pool.wall_busy_s").inc(wall_s)
    observer.gauge("pool.workers").set(workers)
