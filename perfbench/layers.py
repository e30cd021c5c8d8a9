"""Layer tracing from outside the program.

:func:`install` wraps public calls of the program's layers (classes
and module functions under ``repro``) so that each call records a span
on a :class:`Tracer`, and :meth:`Patch.restore` puts the original
callables back.  Nothing under ``src/`` knows about it.  Spans stay in
memory; :func:`chrome_trace` writes them out once the run ends.

Each span has a name, a start and end time (``perf_counter``), the
index of the span that was open when it started (its parent) and the
round ``(epoch, round)`` or tick it ran in.  A layer's self time is
its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span names that group work but are not a layer metric of their own.
HELPER_SPANS = ("backends.worker_batch",)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, step]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.serve_latencies_s: List[float] = []
        self.serve_reports: List[object] = []
        self.step: object = None
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._conv_index: Dict[int, int] = {}

    def begin(self, name: str) -> int:
        """Open a span; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.step])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return self._open[name] > 0

    # -- derived ---------------------------------------------------------

    def self_times(self, windows: Optional[Sequence[Tuple[float, float]]]
                   = None) -> Dict[str, float]:
        """Self time per span name, optionally only for spans that
        start inside one of ``windows``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if windows is None or any(lo <= start <= hi
                                      for lo, hi in windows):
                out[name] += (end - start) - child[i]
        return out

    def inclusive(self, name: str, outside: Optional[str] = None) -> float:
        """Total duration of ``name`` spans, skipping those nested
        inside a span whose name starts with ``outside``."""
        under = self._under(outside) if outside else None
        return sum(end - start for i, (n, start, end, _, _)
                   in enumerate(self.spans)
                   if n == name and not (under and under[i]))

    def _under(self, prefix: str) -> List[bool]:
        """Per span: is it, or an ancestor of it, a ``prefix*`` span?"""
        flags: List[bool] = []
        for name, _, _, parent, _ in self.spans:
            flags.append(name.startswith(prefix)
                         or (parent >= 0 and flags[parent]))
        return flags

    def per_step(self, name: str) -> Dict[object, List[float]]:
        """Durations of ``name`` spans grouped by step."""
        out: Dict[object, List[float]] = defaultdict(list)
        for n, start, end, _, step in self.spans:
            if n == name:
                out[step].append(end - start)
        return out


def chrome_trace(tracer: Tracer) -> dict:
    """The spans as a Chrome-trace document (the format
    ``python -m repro.obs export`` writes)."""
    from repro.obs.trace import chrome_trace as to_chrome

    nodes: List[dict] = []
    roots: List[dict] = []
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    for i, (name, start, end, parent, step) in enumerate(tracer.spans):
        attrs = {"id": i, "parent": parent}
        if isinstance(step, tuple):
            attrs["epoch"], attrs["round"] = step
        elif step is not None:
            attrs["tick"] = step
        node = {"name": name, "start_s": start - origin,
                "end_s": end - origin, "attrs": attrs, "children": []}
        nodes.append(node)
        (nodes[parent]["children"] if parent >= 0 else roots).append(node)
    return to_chrome(roots)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------


def _count(key: str, value: Callable) -> Callable:
    """A counter hook adding ``value(args, result)`` to ``key``."""
    def hook(tracer: Tracer, args: tuple, result) -> None:
        tracer.counts[key] += value(args, result)
    return hook


def _count_blocks(tracer: Tracer, args: tuple, result) -> None:
    edges = sum(block.num_edges for block in result.blocks)
    tracer.counts["sampling.mfg_edges"] += edges
    if tracer.inside("eval.validate"):
        tracer.counts["eval.validate_mfg_edges"] += edges


def _count_eval(split_pos: str, split_neg: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, result) -> None:
        split = args[0].split
        tracer.counts["eval.pairs"] += (len(getattr(split, split_pos))
                                        + len(getattr(split, split_neg)))
    return hook


def _count_partition(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["partition.replication_factor"] = float(
        result.replication_factor())


def _count_reembed(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["stream.reembed_rows"] += result
    tracer.counts["stream.reembed_nodes"] += args[1].num_nodes


def _count_serve(tracer: Tracer, args: tuple, report) -> None:
    tracer.counts["serve.calls"] += 1
    tracer.serve_reports.append(report)
    tracer.serve_latencies_s.extend(report.latencies_s().tolist())


def _conv_name(tracer: Tracer, args: tuple) -> str:
    return f"nn.forward.conv{tracer._conv_index.get(id(args[0]), 'x')}"


def _index_convs(tracer: Tracer, args: tuple) -> None:
    for i, conv in enumerate(args[0].convs):
        tracer._conv_index[id(conv)] = i


#: (module, class or None, attribute, span name, counter hook).  A span
#: name of None records no span (counter or pre-hook only); a callable
#: name is resolved per call.
WORKER_SIDE = [
    ("repro.sampling.neighbor", "NeighborSampler", "sample",
     "sampling.neighbor", _count_blocks),
    *[("repro.sampling.negative", cls, "sample", "sampling.negative",
       _count("sampling.negative_pairs", lambda a, r: len(r)))
      for cls in ("PerSourceUniformNegativeSampler",
                  "GlobalUniformNegativeSampler",
                  "DegreeWeightedNegativeSampler",
                  "InBatchNegativeSampler")],
    ("repro.distributed.views", "WorkerGraphView", "neighbors_batch",
     "views.neighbors", None),
    ("repro.distributed.views", "WorkerGraphView", "fetch_features",
     "views.fetch", None),
    *[("repro.distributed.store", cls, attr, span,
       _count("store.remote_nodes", lambda a, r: len(a[1])))
      for cls, attr, span in (
          ("RemoteGraphStore", "neighbors_batch", "store.neighbors"),
          ("RemoteGraphStore", "complete_neighbors_batch",
           "store.neighbors"),
          ("RemoteGraphStore", "fetch_features", "store.fetch"),
          ("SparsifiedRemoteStore", "neighbors_batch", "store.neighbors"),
          ("SparsifiedRemoteStore", "fetch_features", "store.fetch"))],
    ("repro.nn.models", "GNNModel", "forward", _index_convs, None),
    *[("repro.nn.gnn", cls, "forward", _conv_name, None)
      for cls in ("GCNConv", "SAGEConv", "GATConv", "GATv2Conv",
                  "GINConv")],
    ("repro.nn.models", "MLPPredictor", "forward", "nn.predictor", None),
    ("repro.nn.models", "DotPredictor", "forward", "nn.predictor", None),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim", "Adam", "step", "nn.optimizer", None),
    ("repro.nn.optim", "SGD", "step", "nn.optimizer", None),
    *[(module, None, "segment_sum", None,
       _count("nn.segment_sum_calls", lambda a, r: 1))
      for module in ("repro.nn.tensor", "repro.nn.gnn")],
    ("repro.distributed.trainer", "_Worker", "train_batch",
     "backends.worker_batch", None),
]

COORDINATOR_SIDE = [
    *[("repro.distributed.backends", cls, attr, span, None)
      for cls in ("SerialBackend", "ProcessBackend")
      for attr, span in (("train_round", "backends.train_round"),
                         ("apply_gradients", "backends.apply_gradients"),
                         ("sync_models", "backends.sync_models"),
                         ("step_all", "backends.step"),
                         ("step_participants", "backends.step"))],
    ("repro.eval.evaluator", "Evaluator", "validate", "eval.validate",
     _count_eval("val_pos", "val_neg")),
    ("repro.eval.evaluator", "Evaluator", "test", "eval.test",
     _count_eval("test_pos", "test_neg")),
    ("repro.partition.registry", "PartitionSpec", "build",
     "partition.build", _count_partition),
    *[(module, None, "sparsify_partitions", "sparsify.build", None)
      for module in ("repro.sparsify.partition_sparsifier",
                     "repro.core.frameworks")],
    ("repro.serve.scheduler", "MicroBatchScheduler", "run", "serve.plan",
     None),
    ("repro.stream.shards", "ShardedState", "apply_delta", "stream.patch",
     None),
    ("repro.stream.shards", "ShardedState", "rebalance",
     "stream.rebalance", None),
    *[("repro.stream.reembed", "Reembedder", attr, "stream.reembed",
       _count_reembed) for attr in ("frontier_refresh", "full_refresh")],
    ("repro.stream.reembed", "Reembedder", "make_artifact",
     "stream.artifact", None),
    ("repro.stream.rollout", "RolloutGate", "evaluate", "stream.gate",
     None),
]

#: The two calls the untraced stream runs time: one per tick each.
STREAM_PROBES = [
    ("repro.stream.mutable", "MutableGraph", "apply", "stream.apply",
     None),
    ("repro.serve.cluster", "ServingCluster", "serve", "serve.execute",
     _count_serve),
]


def _wrap(tracer: Tracer, fn: Callable, name, hook) -> Callable:
    """``fn`` with a span around it and ``hook`` after it."""
    if name is _index_convs:
        def indexed(*args, **kwargs):
            _index_convs(tracer, args)
            return fn(*args, **kwargs)
        return indexed
    if name is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, result)
            return result
        return counted
    resolve = None if isinstance(name, str) else name

    def spanned(*args, **kwargs):
        index = tracer.begin(resolve(tracer, args) if resolve else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return spanned


class Patch:
    """Installed wrappers; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self.originals: List[Tuple[object, str, object]] = []

    def restore(self) -> None:
        """Put every original callable back, newest first."""
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer, table: Sequence[tuple]) -> Patch:
    """Wrap every entry of ``table``; returns the :class:`Patch`."""
    patch = Patch()
    try:
        for module, cls, attr, name, hook in table:
            owner = _owner(module, cls)
            original = (owner.__dict__[attr] if cls
                        else getattr(owner, attr))
            patch.originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
    except BaseException:
        patch.restore()
        raise
    return patch


def current(table: Sequence[tuple]) -> List[object]:
    """The callables ``table`` names, as they are now."""
    out = []
    for module, cls, attr, _, _ in table:
        owner = _owner(module, cls)
        out.append(owner.__dict__[attr] if cls else getattr(owner, attr))
    return out


def tick_probe(tracer: Tracer) -> Patch:
    """Wrap the per-tick calls; ``MutableGraph.apply`` also sets the
    tracer's current step to its tick argument."""
    patch = install(tracer, STREAM_PROBES)
    owner = _owner("repro.stream.mutable", "MutableGraph")
    spanned = owner.__dict__["apply"]

    def apply(self, events, tick, *args, **kwargs):
        tracer.step = tick
        return spanned(self, events, tick, *args, **kwargs)
    owner.apply = apply
    return patch
