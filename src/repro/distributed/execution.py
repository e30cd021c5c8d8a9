"""The one shard-execution seam: serial, thread or forked children.

Training, batch scoring and online serving run per-shard work on one
of three backends, and every fork, pipe read and reap they need lives
here: :func:`resolve_backend` (the name check, degrading ``process``
to ``serial`` without ``fork``), :func:`fork_child`,
:func:`guarded_recv` (poll, liveness probe, deadline) and :func:`reap`
(join, terminate, kill).  :class:`ShardExecutor` maps a shard function
over tasks on top of them; the persistent training children of
:class:`~repro.distributed.backends.ProcessBackend` answer method
calls by name on top of the same helpers.

Forked children inherit their task copy-on-write; only replies are
pickled.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence

from ..faults.errors import WorkerDiedError, WorkerTimeoutError

#: Names accepted wherever an execution backend is chosen.
BACKEND_NAMES = ("serial", "thread", "process")


def check_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise
    ``ValueError``."""
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; backend must be "
                         f"one of {BACKEND_NAMES}")
    return name


def resolve_backend(name: str) -> str:
    """Check ``name`` and degrade ``process`` to ``serial`` (with a
    ``RuntimeWarning``) where the fork start method is missing:
    children must inherit their state without pickling it."""
    check_backend(name)
    if name == "process" and "fork" not in mp.get_all_start_methods():
        warnings.warn(
            "backend='process' needs the fork start method; degrading "
            "to the serial backend", RuntimeWarning, stacklevel=3)
        return "serial"
    return name


def fork_child(target: Callable, args: tuple, name: str):
    """Fork a daemon child running ``target(*args, conn)``.

    Returns ``(proc, conn)``: the started process and the parent's end
    of the pipe (the child's end is closed parent-side, so the parent
    sees EOF once the child exits).
    """
    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=target, args=(*args, child_conn),
                       daemon=True, name=name)
    proc.start()
    child_conn.close()
    return proc, parent_conn


def guarded_recv(conn, proc, timeout_s: float, worker: int,
                 context: str):
    """Read one reply from ``proc`` without risking a parent hang.

    Polls in short slices, probing the child's liveness between them.
    Raises :class:`WorkerDiedError` when the child is gone (after one
    final drain, in case it answered and then exited) and
    :class:`WorkerTimeoutError` once ``timeout_s`` elapses.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        if conn.poll(0.05):  # lint: disable=R106
            try:
                return conn.recv()  # lint: disable=R106
            except (EOFError, OSError) as exc:
                raise WorkerDiedError(worker, context) from exc
        if not proc.is_alive():
            if conn.poll(0):  # lint: disable=R106
                continue
            raise WorkerDiedError(worker, context)
        if time.monotonic() > deadline:
            raise WorkerTimeoutError(worker, context, timeout_s)


def reap(proc, conn=None, grace_s: float = 5.0) -> None:
    """Make sure ``proc`` is gone, then close ``conn``.

    Waits ``grace_s`` for a clean exit, then terminates, then kills.
    Pass ``grace_s=0`` for a child already known to have failed.
    """
    if proc is not None:
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
    if conn is not None:
        try:
            conn.close()
        except OSError:
            pass


class ShardExecutor:
    """Runs one task per shard on ``backend``, results in task order;
    ``timeout_s`` bounds each forked child's reply and ``name``
    prefixes thread and child names."""

    def __init__(self, backend: str, timeout_s: float = 30.0,
                 name: str = "repro-shard") -> None:
        self.backend = backend
        self.timeout_s = float(timeout_s)
        self.name = name

    def map(self, fn: Callable, tasks: Sequence,
            fallback: Callable) -> List:
        """``[fn(task) for task in tasks]`` on the backend.

        One task runs inline whatever the backend.  On ``process``, a
        task whose child dies or times out is computed by
        ``fallback(task)`` in the parent, with one ``RuntimeWarning``
        per call naming every failed task.
        """
        tasks = list(tasks)
        if self.backend == "serial" or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if self.backend == "thread":
            with ThreadPoolExecutor(
                    max_workers=len(tasks),
                    thread_name_prefix=self.name) as pool:
                return list(pool.map(fn, tasks))
        children, results, failed = [], [], []
        try:
            for i, task in enumerate(tasks):
                children.append(fork_child(
                    target=_map_child, args=(fn, task),
                    name=f"{self.name}-{i}"))
            for i, (task, (proc, conn)) in enumerate(zip(tasks, children)):
                try:
                    results.append(guarded_recv(conn, proc, self.timeout_s,
                                                i, self.name))
                except (WorkerDiedError, WorkerTimeoutError) as exc:
                    reap(proc, grace_s=0)
                    failed.append(f"task {i}: {exc}")
                    results.append(fallback(task))
        finally:
            for proc, conn in children:
                reap(proc, conn)
        if failed:
            warnings.warn(
                f"{self.name}: {len(failed)} child(ren) failed "
                f"({'; '.join(failed)}); their tasks ran in the parent",
                RuntimeWarning, stacklevel=2)
        return results


def _map_child(fn: Callable, task, conn) -> None:
    """Forked map child: run ``fn`` on the inherited task and ship the
    result back."""
    try:
        conn.send(fn(task))
    finally:
        conn.close()
