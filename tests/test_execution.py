"""The shard-execution seam: one map over serial, thread and fork.

Covers :class:`repro.distributed.execution.ShardExecutor` directly —
task order, a child that dies, a child that hangs past its deadline,
no leaked children — and end to end through the two callers that
hand it their shard work: batch scoring (``DistributedScorer``) and
online serving (``ServingCluster``).  A failed child must leave scores,
outcomes and serve digests byte-equal to the serial run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import warnings

import numpy as np
import pytest

from repro.distributed import DistributedScorer, RemoteGraphStore
from repro.distributed.execution import (
    BACKEND_NAMES,
    ShardExecutor,
    check_backend,
    resolve_backend,
)
from repro.distributed.views import WorkerGraphView
from repro.serve import OpenLoopWorkload, ServingCluster, synthetic_requests

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork")
PARENT_PID = os.getpid()


def _square(task):
    return task * task


class _Fallback:
    """Parent-side fallback that records which tasks it computed."""

    def __init__(self):
        self.calls = []

    def __call__(self, task):
        assert os.getpid() == PARENT_PID
        self.calls.append(task)
        return task * task


def _dies_in_child(task):
    if os.getpid() != PARENT_PID:
        os._exit(1)
    return task * task


def _hangs_in_child(task):
    if os.getpid() != PARENT_PID:
        time.sleep(60)
    return task * task


def _map(backend, fn, tasks, fallback, timeout_s=30.0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = ShardExecutor(backend, timeout_s=timeout_s).map(
            fn, tasks, fallback=fallback)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return out, runtime


def _backends():
    return [pytest.param(b, marks=needs_fork) if b == "process" else b
            for b in BACKEND_NAMES]


class TestShardExecutor:
    @pytest.mark.parametrize("backend", _backends())
    def test_results_in_task_order(self, backend):
        tasks = [5, 3, 8, 1, 0, 7]
        fallback = _Fallback()
        out, caught = _map(backend, _square, tasks, fallback)
        assert out == [t * t for t in tasks]
        assert caught == [] and fallback.calls == []
        assert mp.active_children() == []

    @pytest.mark.parametrize("backend", _backends())
    def test_dying_child_takes_the_fallback(self, backend):
        tasks = [2, 4, 6]
        fallback = _Fallback()
        out, caught = _map(backend, _dies_in_child, tasks, fallback)
        assert out == [4, 16, 36]
        if backend == "process":
            assert len(caught) == 1
            assert "task 0" in str(caught[0].message)
            assert fallback.calls == tasks
        else:
            assert caught == [] and fallback.calls == []
        assert mp.active_children() == []

    @pytest.mark.parametrize("backend", _backends())
    def test_hung_child_times_out_into_the_fallback(self, backend):
        tasks = [1, 9]
        fallback = _Fallback()
        started = time.monotonic()
        out, caught = _map(backend, _hangs_in_child, tasks, fallback,
                           timeout_s=0.3)
        assert out == [1, 81]
        assert time.monotonic() - started < 20.0
        if backend == "process":
            assert len(caught) == 1
            assert "timed out" in str(caught[0].message)
            assert fallback.calls == tasks
        else:
            assert caught == [] and fallback.calls == []
        assert mp.active_children() == []

    @needs_fork
    def test_single_task_runs_inline(self):
        out, caught = _map("process", lambda t: os.getpid(), [0],
                           _Fallback())
        assert out == [PARENT_PID] and caught == []


class TestBackendCheck:
    def test_unknown_name_names_the_choices(self):
        with pytest.raises(ValueError, match="unknown backend") as err:
            check_backend("gpu")
        assert "backend must be one of" in str(err.value)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_known_names_pass_through(self, name):
        assert check_backend(name) == name
        if HAS_FORK:
            assert resolve_backend(name) == name

    def test_process_degrades_without_fork(self, monkeypatch):
        monkeypatch.setattr(mp, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.warns(RuntimeWarning, match="degrading to the serial"):
            assert resolve_backend("process") == "serial"


# ----------------------------------------------------------------------
# End to end: scoring
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scoring():
    from repro.graph import synthetic_lp_graph
    from repro.nn import build_model
    from repro.partition import partition_graph

    rng = np.random.default_rng(5)
    graph = synthetic_lp_graph(num_nodes=200, target_edges=700,
                               feature_dim=16, num_communities=4, rng=rng)
    pg = partition_graph(graph, 3, "metis", rng=np.random.default_rng(1),
                         mirror=True)
    model = build_model("sage", 16, 12, num_layers=2, seed=0)
    return graph, pg, model


def _scorer(scoring, backend):
    graph, pg, model = scoring
    return DistributedScorer(model, pg, remote=RemoteGraphStore(graph),
                             fanouts=(-1, -1), backend=backend,
                             rng=np.random.default_rng(0))


@needs_fork
class TestScorerChildFailure:
    def _kill_shard(self, monkeypatch, part):
        original = WorkerGraphView.fetch_features

        def fetch(view, nodes):
            if os.getpid() != PARENT_PID and view.part == part:
                os._exit(1)
            return original(view, nodes)

        monkeypatch.setattr(WorkerGraphView, "fetch_features", fetch)

    def test_dead_shard_is_rerouted_to_the_fallback(self, scoring,
                                                    monkeypatch):
        graph, pg, _ = scoring
        pairs = graph.edge_list()[:30]
        serial = _scorer(scoring, "serial").score(pairs)
        owned_by_1 = serial.pairs_per_worker[1]
        assert owned_by_1 > 0
        self._kill_shard(monkeypatch, 1)
        scorer = _scorer(scoring, "process")
        with pytest.warns(RuntimeWarning) as caught:
            result = scorer.score(pairs)
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1
        assert result.scores.tobytes() == serial.scores.tobytes()
        # Shard 1's pairs were served by shard 0, and say so.
        assert result.rerouted_pairs == owned_by_1
        assert result.pairs_per_worker == [
            serial.pairs_per_worker[0] + owned_by_1, 0,
            serial.pairs_per_worker[2]]
        assert scorer.live_shards == [0, 2]
        assert mp.active_children() == []


# ----------------------------------------------------------------------
# End to end: serving
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving():
    from repro.api import Session
    from repro.graph import synthetic_lp_graph

    rng = np.random.default_rng(41)
    graph = synthetic_lp_graph(num_nodes=120, target_edges=400,
                               feature_dim=16, num_communities=3, rng=rng)
    session = (Session(graph).partition(3).framework("psgd_pa")
               .scale("smoke").configure(seed=3).backend("serial"))
    session.train()
    artifact = session.export()
    store = RemoteGraphStore(session._trainer.partitioned.full)
    return artifact, store


def _serve(serving, backend):
    artifact, store = serving
    cluster = ServingCluster(artifact, backend=backend, store=store,
                             max_batch=4, max_delay_s=1e-3, max_queue=32)
    workload = OpenLoopWorkload(
        synthetic_requests(40, artifact.num_nodes, seed=3), rate_rps=2e3,
        seed=5)
    with cluster:
        return cluster.serve(workload)


@needs_fork
def test_serving_child_death_matches_serial(serving, monkeypatch):
    serial = _serve(serving, "serial")
    original = ServingCluster._execute_group

    def dying(cluster, *args):
        if os.getpid() != PARENT_PID:
            os._exit(1)
        return original(cluster, *args)

    monkeypatch.setattr(ServingCluster, "_execute_group", dying)
    with pytest.warns(RuntimeWarning) as caught:
        report = _serve(serving, "process")
    assert len([w for w in caught
                if issubclass(w.category, RuntimeWarning)]) == 1
    assert report.digest() == serial.digest()
    assert [o.score for o in report.outcomes] == \
        [o.score for o in serial.outcomes]
    assert mp.active_children() == []
