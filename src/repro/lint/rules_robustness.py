"""Robustness rules for the distributed layer.

The fault-tolerance subsystem (``repro.faults`` + the hardened
:mod:`~repro.distributed.backends`) only detects worker deaths because
every pipe read is guarded: bounded polling, a liveness probe between
polls, and a wall-clock deadline.  One raw ``Pipe.recv()`` on a dead
child hangs the whole run forever — the exact failure mode the
subsystem exists to rule out.  R106 keeps that invariant lintable.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .registry import Rule, register


@register
class UnguardedWorkerIORule(Rule):
    """R106: unguarded worker I/O in ``repro.distributed``,
    ``repro.serve`` and ``repro.stream``.

    Flags two hang/mask hazards on the worker-communication path:

    * **bare** ``except:`` handlers — they swallow
      ``KeyboardInterrupt``/``SystemExit`` and every fault-tolerance
      error, silently converting a detectable worker death into a
      corrupt run.  Catch the specific pipe/process errors instead.
    * unbounded ``.recv()`` calls — a raw ``Pipe.recv()`` blocks
      forever when the peer was SIGKILLed.  Route reads through
      :func:`repro.distributed.execution.guarded_recv` (poll +
      liveness probe + deadline); the few sanctioned call sites
      inside that helper carry a ``# lint: disable=R106`` comment.
    """

    rule_id = "R106"
    name = "unguarded-worker-io"
    description = ("bare except or unbounded Pipe.recv() on the "
                   "worker-communication path")

    def applies_to(self, modpath: str) -> bool:
        """The layers that run shard work: training, serving and
        streaming."""
        return modpath.startswith(("repro/distributed/", "repro/serve/",
                                   "repro/stream/"))

    def check(self, tree: ast.AST, modpath: str) -> Iterable:
        """Yield findings for one parsed module."""
        from .engine import Finding

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                findings.append(Finding(
                    rule_id=self.rule_id, path=modpath,
                    line=node.lineno, col=node.col_offset,
                    message=("bare 'except:' swallows worker-death "
                             "errors; catch the specific pipe/process "
                             "exceptions")))
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "recv"
                    and not node.args and not node.keywords):
                findings.append(Finding(
                    rule_id=self.rule_id, path=modpath,
                    line=node.lineno, col=node.col_offset,
                    message=("unbounded .recv() can hang forever on a "
                             "dead worker; use the guarded receive "
                             "(poll + liveness probe + deadline)")))
        return findings
