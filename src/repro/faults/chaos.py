"""Chaos harness: prove the fault-tolerance machinery end to end.

The harness sweeps a set of :class:`~repro.faults.plan.FaultPlan`\\ s
across every execution backend and recovery policy, running each case
on a small synthetic link-prediction workload next to a fault-free
twin, and asserts the robustness invariants:

* **completes** — the run finishes (guarded pipe reads bound every
  wait by ``fault_timeout_s``, so a completed run is a no-hang proof)
  inside a generous wall-clock budget;
* **progress** — every epoch produced a finite mean loss and the
  history is exactly ``epochs`` long (rounds advanced monotonically to
  the end of every epoch);
* **metrics** — the final test AUC lands within an absolute tolerance
  of the fault-free twin on the same backend (faults degrade, they do
  not destroy);
* **accounted** — a non-empty plan leaves a non-empty
  ``TrainResult.faults`` ledger, and — when observing — ``fault``
  spans and ``fault.*`` counters in the :class:`~repro.obs.RunReport`.

``python -m repro.faults chaos`` runs the full sweep; ``--smoke`` the
CI-sized subset (3 plans x 3 backends, rotating recovery policies and
sync modes so the asynchronous trainers — ``ps``, ``async``,
``local_sgd`` — face faults too).  Everything is seeded: the same
invocation replays the same faults, byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .plan import FaultEvent, FaultPlan

#: Absolute AUC tolerance vs the fault-free twin.  Deliberately loose:
#: dropped contributions on a 2-epoch toy workload move the needle, and
#: the invariant is "degraded, not destroyed".
DEFAULT_TOLERANCE = 0.30

#: Wall-clock budget per case (seconds) — the no-hang backstop on top
#: of the backend's own ``fault_timeout_s`` guarantees.
DEFAULT_WALL_BUDGET_S = 300.0


def builtin_plans(num_workers: int = 3, seed: int = 11) -> Dict[str, FaultPlan]:
    """The named fault plans the sweep draws from.

    ``crash_mid`` kills a worker mid-epoch (a real SIGKILL on the
    process backend); ``mixed`` layers a straggler, message faults and
    a store outage on top; ``random`` is a seeded Poisson schedule.
    """
    return {
        "crash_mid": FaultPlan(
            name="crash_mid",
            events=(FaultEvent(kind="crash", epoch=1, round=1, worker=1),),
        ),
        "mixed": FaultPlan(
            name="mixed",
            events=(
                FaultEvent(kind="straggle", epoch=0, round=1, worker=0,
                           delay_s=0.5),
                FaultEvent(kind="crash", epoch=1, round=0, worker=1),
                FaultEvent(kind="msg_loss", epoch=1, round=1,
                           worker=num_workers - 1),
                FaultEvent(kind="msg_corrupt", epoch=1, round=2, worker=0),
                FaultEvent(kind="store_outage", epoch=0, round=2, rounds=2),
            ),
        ),
        "random": FaultPlan.random(num_workers=num_workers, epochs=2,
                                   seed=seed, events_per_epoch=1.5,
                                   rounds_hint=3),
    }


@dataclass(frozen=True)
class ChaosCase:
    """One cell of the sweep: a plan on a backend under a policy."""

    plan_name: str
    plan: FaultPlan
    backend: str
    recovery: str
    sync: str = "model"
    #: Training framework the cell runs — the sweep rotates
    #: ``vertex_cut`` in so edge-partitioned training (replica
    #: averaging, zero feature traffic) faces faults too.
    framework: str = "splpg"

    @property
    def name(self) -> str:
        """Stable ``plan/backend/recovery/sync/framework`` label."""
        return (f"{self.plan_name}/{self.backend}/{self.recovery}"
                f"/{self.sync}/{self.framework}")


@dataclass
class ChaosOutcome:
    """What one case did, and which invariants (if any) it broke."""

    case: ChaosCase
    ok: bool
    violations: List[str] = field(default_factory=list)
    auc: float = float("nan")
    baseline_auc: float = float("nan")
    faults: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0

    def describe(self) -> str:
        """One status line (plus any violations, indented)."""
        status = "ok  " if self.ok else "FAIL"
        line = (f"[{status}] {self.case.name:44s} "
                f"auc={self.auc:.3f} (twin {self.baseline_auc:.3f}) "
                f"{self.wall_s:5.1f}s")
        for v in self.violations:
            line += f"\n       - {v}"
        return line


def _make_workload(seed: int):
    """A small shared graph split; deferred imports keep
    ``repro.faults`` importable without the heavier stacks."""
    from ..graph import split_edges, synthetic_lp_graph

    rng = np.random.default_rng(seed)
    graph = synthetic_lp_graph(num_nodes=140, target_edges=520,
                               feature_dim=16, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _compatible_recovery(recovery: str, sync: str) -> str:
    """Map ``restore`` to ``retry`` for barrier-free sync modes.

    ``restore`` replays from barrier snapshots, which the ``ps`` and
    ``async`` trainers never reach — :class:`TrainConfig` rejects the
    combination, so the sweep substitutes the nearest policy instead
    of burning a cell on a guaranteed ``ValueError``.
    """
    if recovery == "restore" and sync in ("ps", "async"):
        return "retry"
    return recovery


def _run_case(split, plan: Optional[FaultPlan], backend: str,
              recovery: str, sync: str, *, workers: int, epochs: int,
              seed: int, observe: bool, framework: str = "splpg"):
    from ..core.frameworks import run_framework
    from ..distributed import TrainConfig

    config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                         epochs=epochs, batch_size=64, seed=seed,
                         sync=sync, backend=backend, observe=observe,
                         fault_plan=plan, recovery=recovery,
                         fault_timeout_s=15.0, retry_backoff_s=0.05)
    return run_framework(framework, split, workers, config,
                         rng=np.random.default_rng(seed))


def _check(case: ChaosCase, result, baseline, epochs: int, wall_s: float,
           tolerance: float, observe: bool) -> ChaosOutcome:
    violations: List[str] = []
    if wall_s > DEFAULT_WALL_BUDGET_S:
        violations.append(
            f"wall clock {wall_s:.1f}s exceeded the "
            f"{DEFAULT_WALL_BUDGET_S:.0f}s no-hang budget")
    if len(result.history) != epochs:
        violations.append(
            f"history has {len(result.history)} epochs, expected "
            f"{epochs}: the round loop did not run to completion")
    bad = [i for i, s in enumerate(result.history)
           if not np.isfinite(s.mean_loss)]
    if bad:
        violations.append(f"non-finite mean loss at epochs {bad}")
    if not np.isfinite(result.test.auc):
        violations.append("non-finite final test AUC")
    elif abs(result.test.auc - baseline.test.auc) > tolerance:
        violations.append(
            f"final AUC {result.test.auc:.3f} drifted more than "
            f"{tolerance} from the fault-free twin "
            f"{baseline.test.auc:.3f}")
    from ..core.frameworks import FRAMEWORKS
    from ..partition import get_partitioner

    strategy = FRAMEWORKS[case.framework].partition_strategy
    if get_partitioner(strategy).edge_partitioned:
        # Edge-partitioned training must keep its communication shape
        # under faults: zero training-time feature fetches, a non-zero
        # replica-averaging ledger — and with a lossless recovery
        # policy (and no permanent removals) the ledger must equal the
        # fault-free twin's byte for byte.
        if result.comm_total.feature_bytes != 0:
            violations.append(
                f"{case.framework} moved "
                f"{result.comm_total.feature_bytes} "
                "feature bytes under faults (must stay 0)")
        replica = result.sync_stats.get("replica_sync_bytes", 0)
        if replica <= 0:
            violations.append(
                f"{case.framework} recorded no replica_sync_bytes: "
                "mirror reconciliation did not run")
        if (case.recovery in ("retry", "restore")
                and "elastic_removed" not in result.faults):
            twin = baseline.sync_stats.get("replica_sync_bytes", 0)
            if replica != twin:
                violations.append(
                    f"replica_sync_bytes {replica} != fault-free twin "
                    f"{twin} under lossless recovery "
                    f"'{case.recovery}'")
    if not case.plan.is_empty():
        if not result.faults:
            violations.append("non-empty plan left an empty "
                              "TrainResult.faults ledger")
        if observe:
            report = result.report
            if report is None:
                violations.append("observing run produced no RunReport")
            else:
                counters = [n for n in report.metrics
                            if n.startswith("fault.")]
                if not counters:
                    violations.append(
                        "RunReport has no fault.* counters")
                if not report.meta.get("faults"):
                    violations.append(
                        "RunReport.meta['faults'] is empty")
    return ChaosOutcome(
        case=case, ok=not violations, violations=violations,
        auc=float(result.test.auc), baseline_auc=float(baseline.test.auc),
        faults=dict(result.faults), wall_s=wall_s)


def run_chaos(
    *,
    smoke: bool = False,
    plans: Optional[Dict[str, FaultPlan]] = None,
    backends: Sequence[str] = ("serial", "thread", "process"),
    recoveries: Optional[Sequence[str]] = None,
    syncs: Sequence[str] = ("model", "ps", "async", "local_sgd"),
    frameworks: Sequence[str] = ("splpg", "vertex_cut"),
    workers: int = 3,
    epochs: int = 2,
    seed: int = 23,
    tolerance: float = DEFAULT_TOLERANCE,
    observe: bool = True,
    verbose: bool = True,
) -> List[ChaosOutcome]:
    """Sweep ``plans x backends x recoveries x syncs`` and check
    invariants.

    ``smoke`` selects the CI subset: every plan on every backend, one
    recovery policy, one sync mode and one framework per cell chosen
    round-robin so all four policies, all four sync families and both
    partition families (node-partitioned ``splpg``, edge-partitioned
    ``vertex_cut``) still execute.  ``restore`` cells landing on a
    barrier-free sync mode fall back to ``retry`` (see
    :func:`_compatible_recovery`).  Returns one :class:`ChaosOutcome`
    per case; raises :class:`ChaosError` if any case violated an
    invariant.
    """
    from ..distributed.execution import check_backend

    for backend in backends:
        check_backend(backend)
    if plans is None:
        plans = builtin_plans(num_workers=workers, seed=seed)
    if recoveries is None:
        from .controller import RECOVERY_POLICIES
        recoveries = RECOVERY_POLICIES

    split = _make_workload(seed)

    cases: List[ChaosCase] = []
    if smoke:
        # One policy, one sync mode and one framework per
        # (plan, backend) cell, rotating at coprime strides so the
        # smoke sweep still exercises every recovery policy, every
        # sync family and both partition families (rotation 1 lands
        # vertex_cut on the lossless ``retry`` policy, so the
        # replica-ledger equality assertion runs in CI).
        rotation = 0
        for plan_name, plan in sorted(plans.items()):
            for backend in backends:
                recovery = recoveries[rotation % len(recoveries)]
                sync = syncs[(rotation + rotation // len(syncs))
                             % len(syncs)]
                framework = frameworks[rotation % len(frameworks)]
                rotation += 1
                cases.append(ChaosCase(
                    plan_name, plan, backend,
                    _compatible_recovery(recovery, sync), sync,
                    framework))
    else:
        for plan_name, plan in sorted(plans.items()):
            for backend in backends:
                for recovery in recoveries:
                    for sync in syncs:
                        for framework in frameworks:
                            cases.append(ChaosCase(
                                plan_name, plan, backend,
                                _compatible_recovery(recovery, sync),
                                sync, framework))

    # Fault-free twins, one per (backend, sync, framework) the sweep
    # actually visits: the comparison target and the empty-plan
    # bit-identity anchor.
    baselines: Dict[Tuple[str, str, str], object] = {}
    for case in cases:
        key = (case.backend, case.sync, case.framework)
        if key not in baselines:
            baselines[key] = _run_case(
                split, FaultPlan.empty(), case.backend, "drop", case.sync,
                workers=workers, epochs=epochs, seed=seed, observe=False,
                framework=case.framework)

    outcomes: List[ChaosOutcome] = []
    for case in cases:
        started = time.perf_counter()
        try:
            result = _run_case(split, case.plan, case.backend,
                               case.recovery, case.sync, workers=workers,
                               epochs=epochs, seed=seed, observe=observe,
                               framework=case.framework)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome = ChaosOutcome(
                case=case, ok=False,
                violations=[f"run raised {type(exc).__name__}: {exc}"],
                wall_s=time.perf_counter() - started)
            outcomes.append(outcome)
            if verbose:
                print(outcome.describe())
            continue
        outcome = _check(case, result,
                         baselines[(case.backend, case.sync,
                                    case.framework)], epochs,
                         time.perf_counter() - started, tolerance, observe)
        outcomes.append(outcome)
        if verbose:
            print(outcome.describe())

    failed = [o for o in outcomes if not o.ok]
    if verbose:
        print(f"\nchaos: {len(outcomes) - len(failed)}/{len(outcomes)} "
              f"cases ok ({len(plans)} plans x {len(backends)} backends"
              f"{' [smoke]' if smoke else ''})")
    if failed:
        raise ChaosError(failed)
    return outcomes


class ChaosError(AssertionError):
    """At least one chaos case violated a robustness invariant."""

    def __init__(self, failed: List[ChaosOutcome]) -> None:
        self.failed = failed
        lines = [f"{len(failed)} chaos case(s) failed:"]
        for o in failed:
            lines.append(o.describe())
        super().__init__("\n".join(lines))
