"""CLI entry point: ``python -m repro.stream [--smoke]``.

Runs the end-to-end streaming determinism check: build a seeded model
over a synthetic graph, then replay the same :class:`~repro.stream.
plan.ArrivalPlan` tick loop — incremental shard updates, frontier
re-embedding, gated hot swaps, per-tick serving — on every execution
backend and assert the :meth:`~repro.stream.driver.StreamReport.
digest` matches bit for bit.  Three cells run:

* ``plain``        — fault-free stream; must hot-swap at least once.
* ``shard-outage`` — same stream under a :class:`~repro.faults.
  FaultPlan` injecting a shard crash and a store outage mid-tick.
* ``churn``        — aggressive rebalance trigger plus an impossible
  AUC floor; must fire at least one re-partition *and* at least one
  rollback.

Exit status: 0 when every backend agrees and all structural
assertions hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from ..distributed.execution import BACKEND_NAMES
from ..faults.plan import FaultEvent, FaultPlan
from ..graph.generators import synthetic_lp_graph
from ..nn.models import build_model
from ..partition.registry import PartitionSpec
from .driver import StreamConfig, StreamDriver


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.stream`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Streaming determinism check: same seed, same "
                    "digest on every backend.")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small graph, few ticks)")
    parser.add_argument("--seed", type=int, default=7,
                        help="stream + model seed (default 7)")
    parser.add_argument("--backends", nargs="+", metavar="NAME",
                        default=list(BACKEND_NAMES),
                        help="backends to compare (default: all three)")
    return parser


def _cells(seed: int, ticks: int, requests: int):
    """The three smoke cells: (label, config, structural checks)."""
    outage = FaultPlan(events=[
        FaultEvent(kind="crash", epoch=1, round=requests // 3,
                   worker=1),
        FaultEvent(kind="store_outage", epoch=2, round=requests // 4,
                   rounds=2),
    ], name="stream-outage")
    base = dict(ticks=ticks, seed=seed, requests_per_tick=requests,
                inserts_per_tick=5.0, deletes_per_tick=1.5,
                drifts_per_tick=1.5, embed_batch=32)
    return [
        ("plain", StreamConfig(**base), {"swaps": 1}),
        ("shard-outage", StreamConfig(fault_plan=outage, **base), {}),
        ("churn",
         StreamConfig(rebalance_threshold=1.01, auc_floor=1.5, **base),
         {"rebalances": 1, "rollbacks": 1}),
    ]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the process exit status."""
    args = build_parser().parse_args(argv)
    nodes, edges, ticks, requests = ((90, 270, 4, 18) if args.smoke
                                     else (240, 960, 8, 48))
    graph = synthetic_lp_graph(nodes, edges, feature_dim=12,
                               rng=np.random.default_rng(args.seed))
    model = build_model("sage", 12, hidden_dim=16, num_layers=2,
                        seed=args.seed)
    spec = PartitionSpec("metis", mirror=True)
    failures = 0
    for label, config, minimums in _cells(args.seed, ticks, requests):
        reports = {}
        for name in args.backends:
            driver = StreamDriver(model, graph, spec, num_parts=3,
                                  config=config, backend=name)
            reports[name] = driver.run()
        digests = {name: r.digest() for name, r in reports.items()}
        unique = set(digests.values())
        status = "ok" if len(unique) == 1 else "MISMATCH"
        if len(unique) != 1:
            failures += 1
        counters = next(iter(reports.values())).counters
        for key, floor in minimums.items():
            if counters.get(key, 0) < floor:
                status = "MISSING"
                failures += 1
                print(f"[{label}] expected >= {floor} {key}, got "
                      f"{counters.get(key, 0)}", file=sys.stderr)
        print(f"[{label}] {status}: " + ", ".join(
            f"{name}={digest[:12]}" for name, digest in digests.items()))
        print("  " + next(iter(reports.values())).summary())
    if failures:
        print("stream smoke FAILED", file=sys.stderr)
        return 1
    print("stream smoke passed: all backends bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
