"""Fixture corpus for the deep analyses (F201-F204).

Every analysis is exercised with at least one true positive and one
true negative over small self-contained "projects" (modpath → source
mappings fed straight to :func:`repro.lint.flow.analyze_sources`), so
the interprocedural machinery — call graph, worker cone, CFG path
queries, taint summaries — is pinned down by behavior, not structure.
"""

import textwrap

from repro.lint.flow import analyze_sources


def _dedent(mapping):
    return {path: textwrap.dedent(src) for path, src in mapping.items()}


def _lines(findings, rule_id):
    return sorted((f.path, f.line) for f in findings
                  if f.rule_id == rule_id)


# ----------------------------------------------------------------------
# F201 — RNG-seed taint
# ----------------------------------------------------------------------

F201_SOURCES = _dedent({
    "repro/flowfix/draws.py": '''\
    """Fixture: generator provenance."""
    import numpy as np


    def draw_unseeded():
        """TP: fresh OS entropy reaches a draw in the same function."""
        rng = np.random.default_rng()
        return rng.integers(10)


    def sample(rng, n):
        """Sink helper: draws from its parameter."""
        return rng.choice(n)


    def run_interproc():
        """TP: unseeded generator flows into a sink parameter."""
        gen = np.random.Generator(np.random.PCG64())
        return sample(gen, 5)


    def draw_seeded():
        """TN: literal seed."""
        rng = np.random.default_rng(17)
        return rng.integers(10)


    def draw_spawned():
        """TN: child of a seeded generator is seeded."""
        root = np.random.default_rng(17)
        child = root.spawn(1)[0]
        return child.integers(10)


    def draw_unknown(cfg):
        """TN: unresolvable provenance is trusted, never flagged."""
        rng = cfg.rng
        return rng.integers(10)
    ''',
})


def test_f201_flags_direct_and_interprocedural_unseeded_draws():
    """Both the local draw and the cross-function flow are caught."""
    findings = analyze_sources(F201_SOURCES, select=["F201"])
    assert _lines(findings, "F201") == [
        ("repro/flowfix/draws.py", 8),    # rng.integers in draw_unseeded
        ("repro/flowfix/draws.py", 19),   # sample(gen, 5) in run_interproc
    ]
    interproc = [f for f in findings if f.line == 19]
    assert "sample()" in interproc[0].message
    assert "rng" in interproc[0].message


def test_f201_trusts_seeded_spawned_and_unknown_generators():
    """Seeded roots, spawned children and opaque sources stay silent."""
    findings = analyze_sources(F201_SOURCES, select=["F201"])
    flagged = {line for _, line in _lines(findings, "F201")}
    # draw_seeded / draw_spawned / draw_unknown bodies are clean.
    assert not flagged & set(range(22, 41))


# ----------------------------------------------------------------------
# F202 — worker shared-state races
# ----------------------------------------------------------------------

F202_SOURCES = _dedent({
    "repro/flowfix/shared.py": '''\
    """Fixture: module-global shared state touched by workers."""
    import threading

    RESULTS = []
    _RESULTS_LOCK = threading.Lock()


    def work(item):
        """TP: worker-executed append to a module global."""
        RESULTS.append(item)
        return item


    def work_locked(item):
        """TN: the same write, under a lock."""
        with _RESULTS_LOCK:
            RESULTS.append(item)
        return item


    def not_a_worker(item):
        """TN: same write, but never shipped to a pool."""
        RESULTS.append(item)
        return item
    ''',
    "repro/flowfix/pool.py": '''\
    """Fixture: the driver that makes them workers."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.flowfix.shared import work, work_locked


    def run_all(items):
        """Submit work items; only submitted functions are workers."""
        pool = ThreadPoolExecutor(2)
        futs = [pool.submit(work, item) for item in items]
        futs += [pool.submit(work_locked, item) for item in items]
        out = [f.result() for f in futs]
        pool.shutdown()
        return out
    ''',
})


def test_f202_flags_worker_write_to_module_global():
    """The submitted function's unguarded append is a race."""
    findings = analyze_sources(F202_SOURCES, select=["F202"])
    assert _lines(findings, "F202") == [("repro/flowfix/shared.py", 10)]
    (finding,) = findings
    assert "RESULTS" in finding.message
    assert "work()" in finding.message


def test_f202_accepts_locked_write_and_non_worker_code():
    """A lock guard, or not being submitted at all, silences F202."""
    findings = analyze_sources(F202_SOURCES, select=["F202"])
    flagged = {line for _, line in _lines(findings, "F202")}
    assert 17 not in flagged     # work_locked: guarded by _RESULTS_LOCK
    assert 23 not in flagged     # not_a_worker: outside the worker cone


def test_f202_process_spawn_counts_as_worker_root():
    """``Process(target=fn)`` makes ``fn`` worker-executed too."""
    sources = _dedent({
        "repro/flowfix/proc.py": '''\
        """Fixture: process-spawned worker."""
        from multiprocessing import Process

        SEEN = {}


        def child(key):
            """TP: forked worker writing a parent-module global."""
            SEEN[key] = True


        def launch(key):
            """Spawns the child process."""
            proc = Process(target=child, args=(key,))
            proc.start()
            return proc
        ''',
    })
    findings = analyze_sources(sources, select=["F202"])
    assert _lines(findings, "F202") == [("repro/flowfix/proc.py", 9)]


def test_f202_by_name_dispatch_reaches_host_methods():
    """``getattr(host, name)(...)`` in a worker links to every method
    of the class ``host`` was built from, and ``getattr(self, name)``
    to every method of the enclosing class."""
    sources = _dedent({
        "repro/flowfix/host.py": '''\
        """Fixture: a forked child dispatching calls by name."""
        from multiprocessing import Process

        SEEN = {}


        class Host:
            """Methods the child calls by name."""

            def record(self, key):
                """TP: reached only through the child's dispatch."""
                SEEN[key] = True


        class Ledger:
            """Dispatches to its own methods by name."""

            def apply(self, name, key):
                """Calls one of this class's methods by name."""
                getattr(self, name)(key)

            def stamp(self, key):
                """TP: reached only through ``apply``'s dispatch."""
                SEEN[key] = False


        def child(method, args):
            """Forked worker: dispatch one call by name."""
            host = Host()
            getattr(host, method)(*args)
            ledger = Ledger()
            ledger.apply("stamp", 0)


        def launch(method, args):
            """Spawns the child process."""
            proc = Process(target=child, args=(method, args))
            proc.start()
            return proc
        ''',
    })
    findings = analyze_sources(sources, select=["F202"])
    assert _lines(findings, "F202") == [("repro/flowfix/host.py", 12),
                                        ("repro/flowfix/host.py", 24)]


# ----------------------------------------------------------------------
# F203 — CommMeter completeness
# ----------------------------------------------------------------------

F203_SOURCES = _dedent({
    "repro/flowfix/store.py": '''\
    """Fixture: payload serving with and without accounting."""


    def fetch_rows(graph, nodes, meter):
        """TP: materializes features, returns them uncharged."""
        rows = graph.features[nodes]
        return rows


    def fetch_rows_charged(graph, nodes, meter):
        """TN: the canonical guarded charge dominates the return."""
        rows = graph.features[nodes]
        if meter is not None:
            meter.charge_features(rows.nbytes)
        return rows


    def fetch_delegated(store, nodes, meter):
        """TN: forwarding the meter delegates the charge."""
        return store.fetch_features(nodes, meter)


    def peek_no_meter(graph, nodes):
        """TN: no meter parameter — not a charging boundary."""
        return graph.features[nodes]
    ''',
})


def test_f203_flags_uncharged_payload_return():
    """A return reachable without any charge on the path is flagged."""
    findings = analyze_sources(F203_SOURCES, select=["F203"])
    assert _lines(findings, "F203") == [("repro/flowfix/store.py", 7)]
    assert "fetch_rows()" in findings[0].message


def test_f203_accepts_guarded_charge_and_delegation():
    """`if meter: charge` and meter-forwarding delegation both count."""
    findings = analyze_sources(F203_SOURCES, select=["F203"])
    flagged = {line for _, line in _lines(findings, "F203")}
    assert 15 not in flagged     # fetch_rows_charged's return
    assert 20 not in flagged     # fetch_delegated's return


def test_f203_early_return_on_one_branch_is_still_caught():
    """Charging one branch does not excuse the other."""
    sources = _dedent({
        "repro/flowfix/branchy.py": '''\
        """Fixture: partially charged store."""


        def fetch(graph, nodes, meter):
            """TP on the fast path, which skips the charge."""
            rows = graph.features[nodes]
            if nodes.size == 0:
                return rows
            meter.charge_features(rows.nbytes)
            return rows
        ''',
    })
    findings = analyze_sources(sources, select=["F203"])
    assert _lines(findings, "F203") == [("repro/flowfix/branchy.py", 8)]


# ----------------------------------------------------------------------
# F204 — worker-IO exception safety
# ----------------------------------------------------------------------

F204_SOURCES = _dedent({
    "repro/flowfix/io.py": '''\
    """Fixture: resource handling on the worker path."""


    def load(path):
        """TP: the empty-data return leaks the handle."""
        fh = open(path)
        data = fh.read()
        if not data:
            return None
        fh.close()
        return data


    def load_safe(path):
        """TN: the finally releases on every path, including raises."""
        fh = open(path)
        try:
            data = fh.read()
        finally:
            fh.close()
        return data


    def open_for_caller(path):
        """TN: returning the handle transfers ownership."""
        fh = open(path)
        return fh
    ''',
    "repro/flowfix/spawn.py": '''\
    """Fixture: threads that make the IO functions worker code."""
    from threading import Thread

    from repro.flowfix.io import load, load_safe, open_for_caller


    def start(path):
        """Spawn every fixture worker."""
        workers = [Thread(target=load, args=(path,)),
                   Thread(target=load_safe, args=(path,)),
                   Thread(target=open_for_caller, args=(path,))]
        for thread in workers:
            thread.start()
        return workers
    ''',
})


def test_f204_flags_leak_on_early_return_path():
    """A path to the exit that skips the release is reported."""
    findings = analyze_sources(F204_SOURCES, select=["F204"])
    assert _lines(findings, "F204") == [("repro/flowfix/io.py", 6)]
    assert "'fh'" in findings[0].message


def test_f204_accepts_finally_release_and_ownership_transfer():
    """try/finally covers all paths; returning the handle escapes it."""
    findings = analyze_sources(F204_SOURCES, select=["F204"])
    flagged = {line for _, line in _lines(findings, "F204")}
    assert 16 not in flagged     # load_safe's open
    assert 25 not in flagged     # open_for_caller's open


def test_f204_scopes_to_worker_and_distributed_code():
    """The same leak outside the worker/distributed scope is ignored."""
    leaky = '''\
    """Fixture: a leak nobody ships to a worker."""


    def load(path):
        """Leaks, but is not worker-reachable."""
        fh = open(path)
        data = fh.read()
        if not data:
            return None
        fh.close()
        return data
    '''
    silent = analyze_sources(
        _dedent({"repro/flowfix/solo.py": leaky}), select=["F204"])
    assert silent == []
    # The identical source under repro/distributed/ is in scope.
    flagged = analyze_sources(
        _dedent({"repro/distributed/solo.py": leaky}), select=["F204"])
    assert _lines(flagged, "F204") == [("repro/distributed/solo.py", 6)]


# ----------------------------------------------------------------------
# Cross-cutting behavior
# ----------------------------------------------------------------------


def test_deep_findings_honor_statement_suppressions():
    """``# lint: disable=F202`` on the writing statement silences it."""
    sources = dict(F202_SOURCES)
    sources["repro/flowfix/shared.py"] = sources[
        "repro/flowfix/shared.py"].replace(
            "    RESULTS.append(item)\n    return item\n\n\ndef work_locked",
            "    RESULTS.append(item)  # lint: disable=F202\n"
            "    return item\n\n\ndef work_locked", 1)
    findings = analyze_sources(sources, select=["F202"])
    assert _lines(findings, "F202") == []


def test_deep_output_is_deterministic_and_order_independent():
    """Same project, any modpath insertion order → identical findings."""
    merged = {}
    for part in (F201_SOURCES, F202_SOURCES, F203_SOURCES, F204_SOURCES):
        merged.update(part)
    forward = analyze_sources(merged)
    backward = analyze_sources(dict(reversed(list(merged.items()))))
    assert forward == backward
    keys = [(f.path, f.line, f.col, f.rule_id, f.message) for f in forward]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_unknown_deep_analysis_id_raises():
    """Selecting an unknown F-id is a hard error, not silence."""
    import pytest

    with pytest.raises(KeyError):
        analyze_sources(F203_SOURCES, select=["F999"])


# ----------------------------------------------------------------------
# The worker cone on the real tree
# ----------------------------------------------------------------------


def test_real_tree_cone_keeps_shard_functions():
    """Shard functions handed to ``ShardExecutor.map`` stay worker
    roots, so F202/F204 keep checking scoring and serving code."""
    from pathlib import Path

    from repro.lint.engine import _iter_python_files, _module_path
    from repro.lint.flow.callgraph import CallGraph
    from repro.lint.flow.symbols import ProjectIndex

    src = Path(__file__).resolve().parents[1] / "src"
    sources = {_module_path(f): f.read_text(encoding="utf-8")
               for f in sorted(_iter_python_files(src))}
    index = ProjectIndex.from_sources(sources)
    cone, _ = CallGraph(index).worker_reachable()
    host = index.classes["repro.distributed.backends._WorkerHost"]
    assert len(host.methods) > 10
    for qname in (
            "repro.distributed.inference.DistributedScorer._score_shard",
            "repro.serve.cluster.ServingCluster._execute_shard",
            "repro.serve.cluster.ServingCluster._execute_group",
            "repro.distributed.backends._child_main",
            *(method.qname for method in host.methods.values())):
        assert qname in cone, qname
