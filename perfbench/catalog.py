"""What the benchmark measures: workloads, metrics and their layers.

``BENCHMARK.json`` at the repository root holds the fixed-schema subset
of this table (names, units, direction, bounds, one-line reasons); the
self-test checks that the two agree.  Everything that schema has no
room for lives here and is printed by every run:

* the layer each per-layer metric belongs to and the public calls that
  time it;
* the end-to-end metric and workload each per-layer metric should
  move, and the workloads on which it should stay flat;
* the quality floors of the correctness gate;
* the launch environment (one BLAS thread per process) and its blind
  spot.

Every end-to-end metric is reported on every workload, so the
workload-specific quantities share generic names: a *step* is a
training round (``train-*``) or a stream tick (``stream-serve``), an
*item* is a positive training edge or an applied arrival event, and
``auc`` is the test-split AUC or the mean probe AUC the rollout gate
measured on the served versions.
"""

from __future__ import annotations

#: Environment every workload process is launched with.  With the
#: default, 2 process workers x 2 OpenBLAS threads = 4 runnable threads
#: on a 2-CPU host, and the benchmark measures the scheduler instead of
#: the program.
LAUNCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

BLIND_SPOT = ("every workload runs with one BLAS thread per process, so "
              "a change that pins BLAS threads inside the program "
              "cannot show a gain here")

HOST_NOTE = ("the committed BENCH_*.json files record cpu_count 1 and "
             "schedulable_cpus 1; compare their wall times only with "
             "runs on a host of the same shape")

#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 30

#: Workload name -> (why, full-size knobs, toy-size knobs).
WORKLOADS = {
    "train-splpg": (
        "SpLPG (METIS+mirroring, sparsified remote store, global "
        "negatives) on 4 serial workers: sampling and store work "
        "dominate, with no OS scheduling in the measurement",
        dict(kind="train", framework="splpg", backend="serial", workers=4,
             sync="model", nodes=2400, edges=9600, feature_dim=64,
             hidden_dim=64, fanouts=(10, 5), batch_size=192, epochs=4,
             lr=0.005, min_steps=100),
        dict(kind="train", framework="splpg", backend="serial", workers=4,
             sync="model", nodes=300, edges=1100, feature_dim=16,
             hidden_dim=16, fanouts=(5, 5), batch_size=96, epochs=1,
             lr=0.005, min_steps=1)),
    "train-barrier-process": (
        "PSGD-PA with a gradient all-reduce every round on 2 process "
        "workers: nn, backends and sync carry the work; sampling and "
        "store work stay small",
        dict(kind="train", framework="psgd_pa", backend="process",
             workers=2, sync="barrier", nodes=2400, edges=9600,
             feature_dim=64, hidden_dim=128, fanouts=(5, 5),
             batch_size=192, epochs=4, lr=0.005, min_steps=100),
        dict(kind="train", framework="psgd_pa", backend="process",
             workers=2, sync="barrier", nodes=300, edges=1100,
             feature_dim=16, hidden_dim=16, fanouts=(5, 5), batch_size=96,
             epochs=1, lr=0.005, min_steps=1)),
    "stream-serve": (
        "seeded edge inserts, deletes and feature drift through "
        "StreamDriver on 2 process shards: frontier re-embedding, gated "
        "hot swaps and open-loop serving every tick; 1 tick in 26 "
        "re-partitions",
        dict(kind="stream", backend="process", shards=2, nodes=800,
             edges=3200, feature_dim=32, hidden_dim=32, fanouts=(10, 5),
             batch_size=128, train_epochs=2, lr=0.01, ticks=25,
             churn_ticks=1, inserts=12.0, deletes=4.0, drifts=4.0,
             requests=48, rate_rps=2000.0, topk_fraction=0.2,
             embed_batch=64, max_batch=6, auc_floor=0.5, min_steps=100),
        dict(kind="stream", backend="process", shards=2, nodes=200,
             edges=800, feature_dim=12, hidden_dim=12, fanouts=(5, 5),
             batch_size=64, train_epochs=1, lr=0.01, ticks=3,
             churn_ticks=1, inserts=5.0, deletes=1.0, drifts=2.0,
             requests=12, rate_rps=2000.0, topk_fraction=0.2,
             embed_batch=32, max_batch=4, auc_floor=0.0, min_steps=1)),
}

#: Quality floor of the correctness gate, per workload: the lowest
#: ``auc`` over seeds 0-9 at full size minus a margin of 0.10, rounded
#: down to two decimals.  Never lowered to make a run pass; the toy
#: size checks only that the value is a finite probability.
AUC_FLOORS = {"train-splpg": 0.67, "train-barrier-process": 0.69,
              "stream-serve": 0.73}

#: (name, unit, better, bound, meaning) of every end-to-end metric,
#: measured in untraced runs.  Times are scaled to the reference host
#: speed (see ``workloads.Repeats``).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median set-up time: partitioning, sparsification and trainer "
     "build, or shard state, first full refresh and first artifact; "
     "graph generation excluded"),
    ("items_per_s", "items/s", "higher", 0.25,
     "median over repeats of positive training edges per second of "
     "train(), or arrival events per second of the tick loop"),
    ("step_p50_ms", "ms", "lower", 0.25,
     "median time from a round's start to the next one's within an "
     "epoch (rounds where every worker trains), or from one "
     "MutableGraph.apply call to the next"),
    ("step_p90_ms", "ms", "lower", 0.25,
     "90th percentile of the same steps; a run has at least 100"),
    ("auc", "ratio", "higher", 0.1,
     "test-split AUC, or the mean probe AUC of the rollout gate"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident memory of the largest process in the workload's "
     "process tree"),
]

#: (name, unit, layer, should move, on, flat on, timed calls) of every
#: per-layer metric, measured in traced runs.  ``*_s`` metrics are
#: span self times in seconds over one traced repeat.  A layer a
#: workload does not exercise reports 0, and so does a model error
#: whose stage the HardwareModel prices at 0 s.
PER_LAYER = [
    ("sampling.neighbor_s", "s", "sampling", "items_per_s, step_p50_ms",
     "train-splpg, stream-serve (re-embedding samples full neighborhoods)",
     "-", "NeighborSampler.sample minus child view/store spans"),
    ("sampling.negative_s", "s", "sampling", "items_per_s",
     "train-splpg", "stream-serve", "negative samplers' .sample"),
    ("sampling.mfg_edges", "count", "sampling", "items_per_s",
     "train-splpg, stream-serve", "-", "edges of sampled blocks"),
    ("sampling.negative_pairs", "count", "sampling", "items_per_s",
     "train-splpg", "stream-serve", "pairs negative samplers returned"),
    ("views.neighbors_s", "s", "distributed.views", "items_per_s",
     "train-splpg", "train-barrier-process",
     "WorkerGraphView.neighbors_batch"),
    ("views.fetch_s", "s", "distributed.views", "items_per_s",
     "train-splpg", "train-barrier-process",
     "WorkerGraphView.fetch_features"),
    ("store.neighbors_s", "s", "distributed.store", "items_per_s",
     "train-splpg", "train-barrier-process",
     "SparsifiedRemoteStore/RemoteGraphStore neighbor queries"),
    ("store.fetch_s", "s", "distributed.store", "items_per_s",
     "train-splpg", "train-barrier-process",
     "SparsifiedRemoteStore/RemoteGraphStore.fetch_features"),
    ("store.remote_nodes", "count", "distributed.store", "items_per_s",
     "train-splpg", "train-barrier-process", "nodes queried remotely"),
    ("comm.graph_mb_per_epoch", "MB", "distributed.store",
     "items_per_s", "train-splpg", "train-barrier-process",
     "graph-data bytes fetched per epoch (paper Fig 8/9)"),
    ("nn.forward.conv0_s", "s", "nn", "items_per_s, step_p50_ms",
     "train-barrier-process, train-splpg", "-", "GNNModel.convs[0]"),
    ("nn.forward.conv1_s", "s", "nn", "items_per_s, step_p50_ms",
     "train-barrier-process, train-splpg", "-", "GNNModel.convs[1]"),
    ("nn.predictor_s", "s", "nn", "items_per_s, step_p50_ms",
     "train-barrier-process, train-splpg", "-", "edge predictor forward"),
    ("nn.backward_s", "s", "nn", "items_per_s, step_p50_ms",
     "train-barrier-process, train-splpg", "stream-serve",
     "Tensor.backward"),
    ("nn.optimizer_s", "s", "nn", "items_per_s, step_p50_ms",
     "train-barrier-process, train-splpg", "stream-serve",
     "Optimizer.step"),
    ("nn.segment_sum_calls", "count", "nn", "items_per_s",
     "train-barrier-process, train-splpg", "-", "segment_sum"),
    ("backends.train_round_s", "s", "distributed.backends",
     "step_p90_ms, items_per_s", "train-barrier-process", "train-splpg",
     "ExecutionBackend.train_round (coordinator, own backend)"),
    ("backends.apply_gradients_s", "s", "distributed.backends",
     "step_p90_ms, items_per_s", "train-barrier-process", "train-splpg",
     "ExecutionBackend.apply_gradients"),
    ("backends.sync_models_s", "s", "distributed.backends",
     "items_per_s", "train-splpg", "train-barrier-process",
     "ExecutionBackend.sync_models"),
    ("backends.step_s", "s", "distributed.backends",
     "step_p90_ms, items_per_s", "train-barrier-process", "train-splpg",
     "ExecutionBackend.step_all/step_participants"),
    ("backends.wait_s", "s", "distributed.backends",
     "step_p90_ms, items_per_s", "train-barrier-process", "train-splpg",
     "train_round minus the workers' compute for the same rounds"),
    ("sync.mb_per_epoch", "MB", "distributed.sync", "step_p90_ms",
     "train-barrier-process", "train-splpg", "sync bytes per epoch"),
    ("eval.validate_s", "s", "eval", "items_per_s", "train-*",
     "stream-serve", "Evaluator.validate"),
    ("eval.test_s", "s", "eval", "items_per_s", "train-*",
     "stream-serve", "Evaluator.test"),
    ("eval.pairs", "count", "eval", "items_per_s", "train-*",
     "stream-serve", "pairs scored by validate/test"),
    ("eval.test_hits", "ratio", "eval", "auc", "train-*", "stream-serve",
     "test-split Hits@100"),
    ("partition.build_s", "s", "partition", "setup_s; items_per_s",
     "train-splpg; stream-serve", "-", "PartitionSpec.build"),
    ("partition.replication_factor", "ratio", "partition", "setup_s",
     "train-splpg; stream-serve", "-",
     "replication factor of the last built partitioning"),
    ("sparsify.build_s", "s", "sparsify", "setup_s", "train-splpg",
     "train-barrier-process", "sparsify_partitions"),
    ("serve.plan_s", "s", "serve", "step_p50_ms", "stream-serve",
     "train-*", "MicroBatchScheduler.run"),
    ("serve.execute_s", "s", "serve", "step_p50_ms", "stream-serve",
     "train-*", "ServingCluster.serve minus plan"),
    ("serve.calls", "count", "serve", "step_p50_ms", "stream-serve",
     "train-*", "ServingCluster.serve calls"),
    ("serve.flushes", "count", "serve", "step_p50_ms", "stream-serve",
     "train-*", "micro-batch flushes"),
    ("serve.mean_batch", "count", "serve", "step_p50_ms", "stream-serve",
     "train-*", "completed requests per flush"),
    ("serve.embed_cache_hit_ratio", "ratio", "serve", "step_p50_ms",
     "stream-serve", "train-*", "embedding-cache hits over lookups"),
    ("serve.model_p50_ms", "ms", "serve", "-", "stream-serve", "train-*",
     "modeled (simulated-clock) request latency p50"),
    ("serve.model_p99_ms", "ms", "serve", "-", "stream-serve", "train-*",
     "modeled (simulated-clock) request latency p99"),
    ("serve.rps", "req/s", "serve", "step_p50_ms", "stream-serve",
     "train-*", "completed requests per second inside serve()"),
    ("serve.completed_ratio", "ratio", "serve", "step_p50_ms",
     "stream-serve", "train-*", "completed over sent; shed count as misses"),
    ("stream.apply_s", "s", "stream", "step_p50_ms, items_per_s",
     "stream-serve", "train-*", "MutableGraph.apply"),
    ("stream.patch_s", "s", "stream", "step_p50_ms, items_per_s",
     "stream-serve", "train-*", "ShardedState.apply_delta"),
    ("stream.rebalance_s", "s", "stream", "items_per_s", "stream-serve",
     "train-*", "ShardedState.rebalance minus partition.build"),
    ("stream.reembed_s", "s", "stream", "step_p50_ms, items_per_s",
     "stream-serve", "train-*",
     "Reembedder.frontier_refresh/full_refresh minus nn spans"),
    ("stream.artifact_s", "s", "stream", "step_p50_ms", "stream-serve",
     "train-*", "Reembedder.make_artifact"),
    ("stream.gate_s", "s", "stream", "step_p50_ms", "stream-serve",
     "train-*", "RolloutGate.evaluate"),
    ("stream.reembed_row_ratio", "ratio", "stream",
     "step_p50_ms, items_per_s", "stream-serve", "train-*",
     "rows re-embedded over (refreshes x nodes)"),
    ("stream.rebalances", "count", "stream", "items_per_s",
     "stream-serve", "train-*", "re-partitions fired"),
    ("stream.swaps", "count", "stream", "step_p50_ms", "stream-serve",
     "train-*", "hot swaps accepted by the gate"),
    ("stream.rollbacks", "count", "stream", "step_p50_ms",
     "stream-serve", "train-*", "candidates the gate rejected"),
    ("model_error.sample", "ratio", "obs", "-", "train-*", "-",
     "measured sampling s over HardwareModel time.sample_s"),
    ("model_error.fetch", "ratio", "obs", "-", "train-*", "-",
     "measured fetch s over HardwareModel time.fetch_s"),
    ("model_error.compute", "ratio", "obs", "-", "train-*", "-",
     "measured forward+backward s over HardwareModel time.compute_s"),
    ("model_error.sync", "ratio", "obs", "-", "train-*", "-",
     "measured sync s over HardwareModel time.sync_s"),
    ("model_error.validate", "ratio", "obs", "-", "train-*", "-",
     "measured validate s over HardwareModel compute time of the "
     "validation MFG edges"),
    ("trace.coverage", "ratio", "trace", "-", "all", "-",
     "share of train()/tick-loop wall time the layer self times cover"),
    ("trace.other_s", "s", "trace", "-", "all", "-",
     "train()/tick-loop wall time no layer span covers"),
    ("trace.overhead_ratio", "ratio", "trace", "-", "all", "-",
     "traced over untraced wall time, same backend"),
]

END_TO_END_UNITS = {name: unit for name, unit, *_ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` content this table implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _, _) in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": _per_layer_direction(name)}
                      for name, unit, *_ in PER_LAYER],
    }


def _per_layer_direction(name: str) -> str:
    """Which way a per-layer metric improves."""
    higher = ("serve.embed_cache_hit_ratio", "serve.rps",
              "serve.completed_ratio", "serve.mean_batch", "stream.swaps",
              "trace.coverage", "eval.test_hits")
    return "higher" if name in higher else "lower"


def describe() -> str:
    """Human-readable metric catalogue (printed by every run)."""
    lines = ["end-to-end metrics (untraced runs, every workload):"]
    for name, unit, better, bound, meaning in END_TO_END:
        lines.append(f"  {name} [{unit}] {better} is better, bound "
                     f"{bound:.0%}: {meaning}")
    lines.append("per-layer metrics (traced runs): name [unit] layer | "
                 "should move | on | flat on | timed at")
    for name, unit, layer, moves, on, flat, calls in PER_LAYER:
        lines.append(f"  {name} [{unit}] {layer} | {moves} | {on} | "
                     f"{flat} | {calls}")
    lines.append("launch environment: " + " ".join(
        f"{k}={v}" for k, v in LAUNCH_ENV.items()))
    lines.append("blind spot: " + BLIND_SPOT)
    lines.append("note: " + HOST_NOTE)
    return "\n".join(lines)
