"""CLI entry point: ``python -m repro.serve [--smoke]``.

Runs the end-to-end serving determinism check: train a small model,
export a servable artifact, replay the same seeded workload on every
execution backend — plain and under a shard-outage fault plan — and
assert the :class:`~repro.serve.requests.ServeReport` digests match
bit for bit.  ``--smoke`` is the CI-sized configuration (smaller
graph, fewer requests); without it a somewhat larger run is used.

Exit status: 0 when every backend agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from ..api import Session
from ..distributed.execution import BACKEND_NAMES
from ..distributed.store import RemoteGraphStore
from ..faults.plan import FaultEvent, FaultPlan
from ..graph.generators import synthetic_lp_graph
from .cluster import ServingCluster
from .workload import OpenLoopWorkload, synthetic_requests


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serving determinism check: same seed, same "
                    "digest on every backend.")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small graph, few requests)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload + model seed (default 7)")
    parser.add_argument("--backends", nargs="+", metavar="NAME",
                        default=list(BACKEND_NAMES),
                        help="backends to compare (default: all three)")
    return parser


def _digests(artifact, store, requests, rate_rps, backends, seed,
             plan=None) -> dict:
    """Serve the same workload on every backend; return name→digest."""
    digests = {}
    for name in backends:
        cluster = ServingCluster(artifact, backend=name, store=store,
                                 max_batch=4, max_delay_s=1e-3,
                                 max_queue=32, plan=plan)
        workload = OpenLoopWorkload(requests, rate_rps=rate_rps,
                                    seed=seed + 13)
        with cluster:
            digests[name] = cluster.serve(workload).digest()
    return digests


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the process exit status."""
    args = build_parser().parse_args(argv)
    nodes, edges, num_requests = ((120, 360, 60) if args.smoke
                                  else (400, 1600, 300))
    graph = synthetic_lp_graph(nodes, edges, feature_dim=16,
                               rng=np.random.default_rng(args.seed))
    session = (Session(graph).partition(3).framework("psgd_pa")
               .scale("smoke").configure(seed=args.seed).backend("serial"))
    session.train()
    artifact = session.export()
    store = RemoteGraphStore(session._trainer.partitioned.full)
    requests = synthetic_requests(num_requests, nodes, seed=args.seed)
    outage = FaultPlan(events=[
        FaultEvent(kind="crash", epoch=0, round=num_requests // 3,
                   worker=1)])
    failures = 0
    for label, plan in (("fault-free", None), ("shard-outage", outage)):
        digests = _digests(artifact, store, requests, rate_rps=2000.0,
                           backends=args.backends, seed=args.seed,
                           plan=plan)
        unique = set(digests.values())
        status = "ok" if len(unique) == 1 else "MISMATCH"
        if len(unique) != 1:
            failures += 1
        print(f"[{label}] {status}: " + ", ".join(
            f"{name}={digest[:12]}" for name, digest in digests.items()))
    if failures:
        print("serve smoke FAILED: backends disagree", file=sys.stderr)
        return 1
    print("serve smoke passed: all backends bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
