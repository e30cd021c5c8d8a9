"""One workload in one fresh process: inputs, repeats, checks, layers.

``perfbench/run.py`` launches this file with ``PYTHONPATH=src`` and
one BLAS thread.  It builds the workload's inputs from the seed alone
(graph, split, arrival plan; the stream workload also trains the model
it serves, outside every timed region), then:

* ``--trace 0``: repeats set-up + run until ``--seconds`` have passed
  and enough steps were seen, timing only whole calls (set-up, train(),
  the tick loop) plus one timestamp per round or tick;
* ``--trace 1``: one untraced repeat, one traced repeat on the
  workload's own backend and, for the process backend, one traced
  repeat on the serial backend (``observe=True`` for training), then
  per-layer metrics from the spans.

Every repeat is checked; the result is one JSON document written to
``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import statistics
import sys
import time

import numpy as np

import catalog
import layers
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed import TrainConfig
from repro.distributed.trainer import set_round_hook
from repro.graph import split_edges, synthetic_lp_graph
from repro.partition.registry import PartitionSpec
from repro.stream import ArrivalPlan, StreamConfig, StreamDriver

MB = 1e6


class Checks:
    """Operations attempted and failed, with the failed checks named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check."""
        self.ops(1, 0 if ok else 1, what)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Seconds the reference kernel takes on the host the bounds were set
#: on, in its fast phase (Intel Xeon, 2 vCPUs, one BLAS thread).
REFERENCE_S = 0.003


def reference_s(reps: int = 30) -> list:
    """Median seconds of a fixed kernel (interpreter loop, small
    matmuls, a sort) on each CPU this process may run on: the host's
    current speed per CPU, independent of the program under test."""
    matrix = np.random.default_rng(0).random((128, 128))
    values = np.random.default_rng(1).random(50000)
    mask = os.sched_getaffinity(0)
    out = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(reps):
                started = time.perf_counter()
                total = 0
                for i in range(30000):
                    total += i * i
                for _ in range(10):
                    matrix @ matrix
                np.sort(values)
                times.append(time.perf_counter() - started)
            out.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, mask)
    return out


class Repeats:
    """Per-repeat timings, scaled to the reference host speed.

    On a shared host each CPU runs the same work up to 1.8x slower for
    seconds to minutes at a time.  The reference kernel runs on every
    CPU before the first repeat and after each one; a repeat's times
    are scaled by ``REFERENCE_S`` over the kernel time around it
    (averaged over the CPUs), so runs made in different phases
    compare.  Set-up time and throughput are medians over the repeats
    and step times are percentiles of all steps pooled.  The unscaled
    values are kept in the result as well.
    """

    def __init__(self) -> None:
        self.references = [reference_s()]
        self.setups, self.rates, self.steps = [], [], []

    def add(self, setups, rate: float, steps) -> None:
        """Record one repeat: its set-up times, items per second and
        step durations, all in seconds."""
        self.references.append(reference_s())
        self.setups.append(list(setups))
        self.rates.append(rate)
        self.steps.append(list(steps))

    def step_count(self) -> int:
        """Steps recorded so far, over all repeats."""
        return sum(map(len, self.steps))

    def metrics(self, scaled: bool = True) -> dict:
        """The end-to-end timing metrics."""
        setups, rates, steps = [], [], []
        for i, rate in enumerate(self.rates):
            factor = 1.0
            if scaled:
                factor = REFERENCE_S / statistics.mean(
                    statistics.mean(ref) for ref in self.references[i:i + 2])
            setups += [x * factor for x in self.setups[i]]
            rates.append(rate / factor)
            steps += [x * factor for x in self.steps[i]]
        return {"setup_s": statistics.median(setups),
                "items_per_s": statistics.median(rates),
                "step_p50_ms": percentile(steps, 50) * 1e3,
                "step_p90_ms": percentile(steps, 90) * 1e3}

    def samples(self) -> dict:
        """The raw samples (seconds) and the unscaled metrics."""
        return {"references": self.references, "setups": self.setups,
                "rates": self.rates, "steps": self.steps,
                "unscaled": self.metrics(scaled=False)}


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------


def make_split(cfg: dict, seed: int):
    """The seeded graph and edge split of a workload."""
    rng = np.random.default_rng(seed)
    graph = synthetic_lp_graph(
        num_nodes=cfg["nodes"], target_edges=cfg["edges"],
        feature_dim=cfg["feature_dim"], num_communities=8, rng=rng)
    return split_edges(graph, rng=rng)


def build(cfg: dict, split, seed: int, backend: str, framework: str,
          workers: int, sync: str, epochs: int, observe: bool = False):
    """A fresh trainer (the set-up a user pays before train())."""
    config = TrainConfig(
        hidden_dim=cfg["hidden_dim"], num_layers=len(cfg["fanouts"]),
        fanouts=tuple(cfg["fanouts"]), batch_size=cfg["batch_size"],
        epochs=epochs, lr=cfg["lr"], seed=seed, sync=sync,
        sync_every_batches=0, eval_every=1, backend=backend,
        num_workers=workers, observe=observe)
    return build_trainer(FRAMEWORKS[framework], split, workers, config,
                         rng=np.random.default_rng(seed))


def build_workload_trainer(cfg: dict, split, seed: int, backend: str,
                           observe: bool = False):
    """The workload's own trainer, on ``backend``."""
    return build(cfg, split, seed, backend, cfg["framework"],
                 cfg["workers"], cfg["sync"], cfg["epochs"], observe)


def train_once(trainer, round_starts=None):
    """``trainer.train()``; returns ``(result, wall seconds)``.

    With ``round_starts`` (a list) each round start is appended as
    ``(epoch, round, perf_counter)`` through the public round hook.
    """
    previous = None
    if round_starts is not None:
        previous = set_round_hook(
            lambda _t, epoch, rnd: round_starts.append(
                (epoch, rnd, time.perf_counter())))
    try:
        started = time.perf_counter()
        result = trainer.train()
        return result, time.perf_counter() - started
    finally:
        if round_starts is not None:
            set_round_hook(previous)


def positive_edges_per_epoch(trainer) -> int:
    """Positive training edges one epoch consumes (all workers)."""
    return sum(int(w.loader.edges.shape[0]) for w in trainer.workers)


def batches_per_epoch(trainer) -> int:
    """Mini-batches one epoch trains (all workers)."""
    return sum(len(w.loader) for w in trainer.workers)


def check_train(name: str, result, trainer, checks: Checks,
                toy: bool) -> None:
    """The training correctness gate for one repeat."""
    losses = [h.mean_loss for h in result.history]
    checks.ops(batches_per_epoch(trainer) * len(result.history),
               0 if all(math.isfinite(x) for x in losses)
               else len(result.history), "finite training losses")
    auc = float(result.test.auc)
    floor = 0.0 if toy else catalog.AUC_FLOORS[name]
    checks.check(math.isfinite(auc) and floor <= auc <= 1.0,
                 f"test auc {auc:.4f} >= floor {floor}")


def step_intervals(round_starts, trainer) -> list:
    """Seconds from each round's start to the next one's, for the
    rounds in which every worker trains a batch.

    Workers hold different numbers of batches, so an epoch ends with
    rounds in which fewer and fewer workers train; where the median
    falls among those depends on the partition sizes of the seed.
    """
    full = min(len(w.loader) for w in trainer.workers)
    return [b[2] - a[2] for a, b in zip(round_starts, round_starts[1:])
            if a[0] == b[0] and a[1] < full]


def run_train(name: str, cfg: dict, seed: int, seconds: float,
              toy: bool) -> dict:
    """Untraced repeats of a training workload.

    Each repeat builds the trainer twice (two set-up samples) and
    trains the second one.
    """
    split = make_split(cfg, seed)
    checks = Checks()
    repeats = Repeats()
    digests = set()
    started = time.perf_counter()
    while not repeats.rates or (
            (time.perf_counter() - started < seconds
             or repeats.step_count() < cfg["min_steps"])
            and time.perf_counter() - started < 120):
        setups = []
        for _ in range(2):
            t0 = time.perf_counter()
            trainer = build_workload_trainer(cfg, split, seed,
                                             cfg["backend"])
            setups.append(time.perf_counter() - t0)
        starts = []
        result, wall = train_once(trainer, starts)
        repeats.add(setups, positive_edges_per_epoch(trainer)
                    * len(result.history) / wall,
                    step_intervals(starts, trainer))
        digests.add(result.digest())
        check_train(name, result, trainer, checks, toy)
    checks.check(len(digests) == 1, "repeats give one digest")
    return {
        "metrics": dict(repeats.metrics(), auc=float(result.test.auc)),
        "samples": repeats.samples(),
        "extra": {"test_hits": float(result.test.hits),
                  "digest": digests.pop()},
        "checks": checks,
    }


# ----------------------------------------------------------------------
# stream workload
# ----------------------------------------------------------------------


def stream_inputs(cfg: dict, seed: int):
    """The served model, initial graph, partition spec and the configs
    of one repeat: a steady run and a churn run.

    The model is trained here (2-worker serial PSGD-PA), outside every
    timed region.  The steady run keeps the re-partition triggers
    disarmed.  The churn run replays the first ``churn_ticks`` ticks
    with a hair-trigger replication threshold, so each of its ticks
    re-partitions (a cold swap).  Armed at a fixed margin instead, the
    trigger fires on 0-60% of the ticks depending on the seed: after
    the first re-partition, the new METIS cut's replication factor
    lands anywhere in a band wider than the drift that fired it.
    """
    split = make_split(cfg, seed)
    trainer = build(cfg, split, seed, "serial", "psgd_pa", 2, "barrier",
                    cfg["train_epochs"])
    trainer.train()
    model = trainer.workers[0].model
    graph = trainer.partitioned.full
    spec = PartitionSpec("metis", mirror=True)
    configs = []
    for ticks, threshold in ((cfg["ticks"], 0.0), (cfg["churn_ticks"], 1.0)):
        plan = ArrivalPlan.generate(
            graph.num_nodes, ticks, seed, inserts_per_tick=cfg["inserts"],
            deletes_per_tick=cfg["deletes"], drifts_per_tick=cfg["drifts"])
        configs.append(dict(
            ticks=ticks, seed=seed, plan=plan, refresh="frontier",
            refresh_every=1, replication_threshold=threshold,
            requests_per_tick=cfg["requests"], rate_rps=cfg["rate_rps"],
            topk_fraction=cfg["topk_fraction"], auc_floor=cfg["auc_floor"],
            embed_batch=cfg["embed_batch"], max_batch=cfg["max_batch"]))
    return model, graph, spec, configs


def stream_repeat(cfg: dict, inputs, backend: str, tracer: layers.Tracer):
    """One repeat (steady run, then churn run).

    Returns one ``(report, tick starts, start, end)`` per run; the two
    per-tick calls (``MutableGraph.apply`` and ``ServingCluster.serve``)
    are timed on ``tracer``.
    """
    model, graph, spec, configs = inputs
    runs = []
    for config in configs:
        driver = StreamDriver(model, graph, spec, cfg["shards"],
                              StreamConfig(**config), backend=backend)
        seen = len(tracer.spans)
        patch = layers.tick_probe(tracer)
        try:
            started = time.perf_counter()
            report = driver.run()
            ended = time.perf_counter()
        finally:
            patch.restore()
        ticks = [span[1] for span in tracer.spans[seen:]
                 if span[0] == "stream.apply"]
        runs.append((report, ticks, started, ended))
    return runs


def check_stream(name: str, runs, tracer, checks: Checks,
                 toy: bool) -> float:
    """The stream correctness gate for one repeat; returns the mean
    probe AUC the rollout gate measured."""
    sent = 0
    for serve in tracer.serve_reports:
        for outcome in serve.outcomes:
            sent += 1
            if outcome.status != "ok":
                continue
            if outcome.topk_nodes is not None:
                scores = np.asarray(outcome.topk_scores)
                ok = (len(outcome.topk_nodes) == outcome.request.k
                      and np.all(np.isfinite(scores))
                      and np.all(np.diff(scores) <= 0))
                checks.check(bool(ok), "top-k has k finite descending "
                             "entries")
            else:
                checks.check(outcome.score is not None
                             and math.isfinite(outcome.score),
                             "served score is finite")
    totals = {key: sum(run[0].counters[key] for run in runs)
              for key in ("events", "requests", "completed", "shed")}
    checks.ops(sent, totals["shed"], "requests served")
    checks.ops(totals["events"])
    checks.check(totals["completed"] + totals["shed"]
                 == totals["requests"] == sent,
                 "completed + shed equals requests sent")
    aucs = [r.gate_auc for run in runs for r in run[0].records
            if not math.isnan(r.gate_auc)]
    auc = float(np.mean(aucs)) if aucs else float("nan")
    floor = 0.0 if toy else catalog.AUC_FLOORS[name]
    checks.check(math.isfinite(auc) and floor <= auc <= 1.0,
                 f"gate auc {auc:.4f} >= floor {floor}")
    return auc


def run_stream(name: str, cfg: dict, seed: int, seconds: float,
               toy: bool) -> dict:
    """Untraced repeats of the stream workload."""
    inputs = stream_inputs(cfg, seed)
    checks = Checks()
    repeats = Repeats()
    digests = set()
    started = time.perf_counter()
    while not repeats.rates or (
            (time.perf_counter() - started < seconds
             or repeats.step_count() < cfg["min_steps"])
            and time.perf_counter() - started < 120):
        tracer = layers.Tracer()
        runs = stream_repeat(cfg, inputs, cfg["backend"], tracer)
        events = loop_s = 0.0
        setups, steps = [], []
        for report, ticks, t0, t1 in runs:
            setups.append(ticks[0] - t0)
            steps += [b - a for a, b in zip(ticks, ticks[1:] + [t1])]
            events += report.counters["events"]
            loop_s += t1 - ticks[0]
        repeats.add(setups, events / loop_s, steps)
        digests.add(tuple(run[0].digest() for run in runs))
        auc = check_stream(name, runs, tracer, checks, toy)
    checks.check(len(digests) == 1, "repeats give one digest")
    return {
        "metrics": dict(repeats.metrics(), auc=auc),
        "samples": repeats.samples(),
        "extra": {"digests": list(digests.pop())},
        "checks": checks,
    }


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------


def traced(table, tracer: layers.Tracer, checks: Checks, fn):
    """Run ``fn()`` with ``table`` wrapped; checks the restore."""
    before = layers.current(table)
    patch = layers.install(tracer, table)
    try:
        return fn()
    finally:
        patch.restore()
        after = layers.current(table)
        checks.check(all(a is b for a, b in zip(before, after)),
                     "wrappers restore the original callables")


def layer_metrics(tracer: layers.Tracer, windows) -> dict:
    """Self-time and count metrics of the traced spans."""
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {name: 0.0 for name, *_ in catalog.PER_LAYER}
    for span, seconds in self_s.items():
        if f"{span}_s" in out:
            out[f"{span}_s"] = seconds
    for key in ("sampling.mfg_edges", "sampling.negative_pairs",
                "store.remote_nodes", "nn.segment_sum_calls",
                "eval.pairs", "partition.replication_factor",
                "serve.calls"):
        out[key] = float(counts.get(key, 0.0))
    reports = tracer.serve_reports
    if reports:
        sent = sum(len(r.outcomes) for r in reports)
        done = sum(len(r.completed()) for r in reports)
        flushes = sum(r.counters.get("flushes", 0) for r in reports)
        hits = sum(r.counters.get("embed_cache_hits", 0) for r in reports)
        lookups = hits + sum(r.counters.get("embed_cache_misses", 0)
                             for r in reports)
        out["serve.flushes"] = float(flushes)
        out["serve.mean_batch"] = done / flushes if flushes else 0.0
        out["serve.embed_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out["serve.rps"] = done / tracer.inclusive("serve.execute")
        out["serve.completed_ratio"] = done / sent
        if tracer.serve_latencies_s:
            out["serve.model_p50_ms"] = percentile(
                tracer.serve_latencies_s, 50) * 1e3
            out["serve.model_p99_ms"] = percentile(
                tracer.serve_latencies_s, 99) * 1e3
    nodes = counts.get("stream.reembed_nodes", 0.0)
    if nodes:
        out["stream.reembed_row_ratio"] = counts["stream.reembed_rows"] / nodes
    wall = sum(end - start for start, end in windows)
    covered = sum(seconds for span, seconds
                  in tracer.self_times(windows).items()
                  if span not in layers.HELPER_SPANS)
    out["trace.coverage"] = covered / wall
    out["trace.other_s"] = wall - covered
    return out


def model_errors(tracer: layers.Tracer, result, trainer) -> dict:
    """Measured over modeled seconds per training stage."""
    modeled = {key: float(value.get("value", 0.0)) for key, value
               in result.report.metrics.items() if key.startswith("time.")}
    hardware = trainer.observer.hardware
    validate_modeled = (tracer.counts.get("eval.validate_mfg_edges", 0.0)
                        / hardware.edges_per_second)
    measured = {
        "sample": tracer.inclusive("sampling.neighbor", outside="eval."),
        "fetch": tracer.inclusive("views.fetch", outside="eval."),
        "compute": sum(tracer.inclusive(name, outside="eval.") for name in
                       ("nn.forward.conv0", "nn.forward.conv1",
                        "nn.predictor", "nn.backward")),
        "sync": (tracer.inclusive("backends.apply_gradients")
                 + tracer.inclusive("backends.sync_models")),
        "validate": tracer.inclusive("eval.validate"),
    }
    model = {"sample": modeled.get("time.sample_s", 0.0),
             "fetch": modeled.get("time.fetch_s", 0.0),
             "compute": modeled.get("time.compute_s", 0.0),
             "sync": modeled.get("time.sync_s", 0.0),
             "validate": validate_modeled}
    return {f"model_error.{stage}": (measured[stage] / model[stage]
                                     if model[stage] > 0 else 0.0)
            for stage in measured}


def worker_compute(tracer: layers.Tracer, parallel: bool) -> float:
    """Workers' batch compute per round: the slowest worker's when
    they run in parallel, all of them when they run one by one."""
    rounds = tracer.per_step("backends.worker_batch").values()
    return sum(max(d) if parallel else sum(d) for d in rounds)


def trace_train(name: str, cfg: dict, seed: int, toy: bool) -> dict:
    """Untraced, traced-own-backend and traced-serial repeats."""
    split = make_split(cfg, seed)
    checks = Checks()
    backend = cfg["backend"]

    trainer = build_workload_trainer(cfg, split, seed, backend)
    plain, plain_wall = train_once(trainer)
    check_train(name, plain, trainer, checks, toy)

    def serial_traced(tracer):
        trainer = build_workload_trainer(cfg, split, seed, "serial",
                                         observe=True)
        previous = set_round_hook(
            lambda _t, epoch, rnd: setattr(tracer, "step", (epoch, rnd)))
        try:
            t0 = time.perf_counter()
            result = trainer.train()
            t1 = time.perf_counter()
        finally:
            set_round_hook(previous)
        return trainer, result, (t0, t1)

    worker = layers.Tracer()
    table = layers.WORKER_SIDE + layers.COORDINATOR_SIDE
    s_trainer, s_result, window = traced(
        table, worker, checks, lambda: serial_traced(worker))
    check_train(name, s_result, s_trainer, checks, toy)
    checks.check(s_result.digest() == plain.digest(),
                 "traced serial digest equals untraced digest")
    metrics = layer_metrics(worker, [window])
    metrics.update(model_errors(worker, s_result, s_trainer))

    if backend == "serial":
        own, own_wall = worker, window[1] - window[0]
        own_result = s_result
    else:
        own = layers.Tracer()

        def own_traced():
            trainer = build_workload_trainer(cfg, split, seed, backend)
            return train_once(trainer)
        own_result, own_wall = traced(layers.COORDINATOR_SIDE, own, checks,
                                      own_traced)
        checks.check(own_result.digest() == plain.digest(),
                     "traced digest equals untraced digest")
        own_self = own.self_times()
        for span in ("backends.train_round", "backends.apply_gradients",
                     "backends.sync_models", "backends.step"):
            metrics[f"{span}_s"] = own_self.get(span, 0.0)
    metrics["backends.wait_s"] = (own.inclusive("backends.train_round")
                                  - worker_compute(worker,
                                                   backend != "serial"))
    epochs = max(len(own_result.history), 1)
    metrics["sync.mb_per_epoch"] = own_result.comm_total.sync_bytes / epochs / MB
    metrics["comm.graph_mb_per_epoch"] = (
        own_result.comm_total.graph_data_bytes / epochs / MB)
    metrics["eval.test_hits"] = float(own_result.test.hits)
    metrics["trace.overhead_ratio"] = own_wall / plain_wall
    return {"metrics": metrics, "checks": checks, "tracer": worker,
            "extra": {"digest": plain.digest()}}


def trace_stream(name: str, cfg: dict, seed: int, toy: bool) -> dict:
    """Untraced, traced-own-backend and traced-serial repeats."""
    inputs = stream_inputs(cfg, seed)
    checks = Checks()
    probe = layers.Tracer()
    plain = stream_repeat(cfg, inputs, cfg["backend"], probe)
    check_stream(name, plain, probe, checks, toy)
    plain_wall = sum(t1 - ticks[0] for _, ticks, _, t1 in plain)
    table = layers.WORKER_SIDE + layers.COORDINATOR_SIDE
    own = None
    for backend in dict.fromkeys((cfg["backend"], "serial")):
        tracer = layers.Tracer()
        runs = traced(table, tracer, checks,
                      lambda: stream_repeat(cfg, inputs, backend, tracer))
        own = own or (tracer, runs)
        for (report, *_), (base, *_) in zip(runs, plain):
            checks.check(report.digest() == base.digest(),
                         f"traced {backend} digest equals untraced digest")
        check_stream(name, runs, tracer, checks, toy)
    tracer, runs = own
    windows = [(ticks[0], t1) for _, ticks, _, t1 in runs]
    metrics = layer_metrics(tracer, windows)
    for key in ("rebalances", "swaps", "rollbacks"):
        metrics[f"stream.{key}"] = float(
            sum(run[0].counters[key] for run in runs))
    metrics["trace.overhead_ratio"] = (
        sum(w[1] - w[0] for w in windows) / plain_wall)
    return {"metrics": metrics, "checks": checks, "tracer": tracer,
            "extra": {"digests": [run[0].digest() for run in plain]}}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def blas_info() -> dict:
    """BLAS libraries loaded in this process and the thread count each
    reports, read through ctypes (threadpoolctl is not assumed)."""
    libs = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            base = os.path.basename(path)
            if (any(k in base for k in ("openblas", "mkl_rt", "blis"))
                    and path not in libs):
                libs.append(path)
    out = {"env": {k: os.environ.get(k) for k in catalog.LAUNCH_ENV},
           "libraries": []}
    for path in libs:
        entry = {"path": path}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.argtypes = []
                threads.restype = ctypes.c_int
                entry["threads"] = int(threads())
                if config is not None:
                    config.argtypes = []
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                break
            if "threads" in entry:
                break
        out["libraries"].append(entry)
    out["numpy"] = np.__version__
    out["python"] = sys.version.split()[0]
    return out


def main(argv=None) -> int:
    """Run one workload and write its result; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    _, full, toy = catalog.WORKLOADS[args.workload]
    cfg = toy if args.toy else full
    host = blas_info()
    if args.trace:
        fn = trace_stream if cfg["kind"] == "stream" else trace_train
        outcome = fn(args.workload, cfg, args.seed, args.toy)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(layers.chrome_trace(outcome.pop("tracer")),
                          handle)
        else:
            outcome.pop("tracer")
    else:
        fn = run_stream if cfg["kind"] == "stream" else run_train
        outcome = fn(args.workload, cfg, args.seed, args.seconds, args.toy)
    checks = outcome.pop("checks")
    outcome.update(host=host, attempted=checks.attempted,
                   failed=checks.failed, failures=checks.failures,
                   config={k: list(v) if isinstance(v, tuple) else v
                           for k, v in cfg.items()})
    with open(args.out, "w") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
