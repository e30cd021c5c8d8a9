"""Static call graph over a :class:`~repro.lint.flow.symbols.ProjectIndex`.

Resolution is deliberately *over-approximate* where Python's dynamism
defeats precise typing: a ``receiver.method(...)`` call whose receiver
class is unknown links to **every** project method of that name.  For
the reachability analyses built on top (F202's worker cone, F204's
worker-IO scope) an over-approximation is the sound direction — a
spurious edge can at worst surface a finding for a human to triage; a
missing edge would silently un-check real worker code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .symbols import FunctionInfo, ModuleInfo, ProjectIndex

#: Methods that execute their function argument on another thread or
#: process — the roots of the worker cone.
_SUBMIT_METHODS = {"submit", "map", "apply_async", "starmap"}
#: Constructors/helpers whose ``target=`` runs in a new thread or
#: process (``fork_child`` is :mod:`repro.distributed.execution`'s).
_SPAWN_CALLS = {"Thread", "Process", "fork_child"}


@dataclass
class CallSite:
    """One call expression inside a function, with its resolution."""

    caller: FunctionInfo
    node: ast.Call
    callees: List[FunctionInfo] = field(default_factory=list)


class CallGraph:
    """Call edges plus per-function call-site lists."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: caller qname → ordered callee qnames (duplicates removed).
        self.edges: Dict[str, List[str]] = {}
        #: callee qname → call sites targeting it.
        self.callers: Dict[str, List[CallSite]] = {}
        #: every call site, per caller qname.
        self.sites: Dict[str, List[CallSite]] = {}
        #: functions handed to pools/threads/processes as work items.
        self.worker_roots: List[FunctionInfo] = []
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        for modname in sorted(self.index.modules):
            mod = self.index.modules[modname]
            for local in sorted(mod.functions):
                self._scan_function(mod, mod.functions[local])

    def _scan_function(self, mod: ModuleInfo, info: FunctionInfo) -> None:
        qname = info.qname
        self.edges.setdefault(qname, [])
        self.sites.setdefault(qname, [])
        seen: Set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            callees = self.resolve_call(mod, info, node)
            site = CallSite(caller=info, node=node, callees=callees)
            self.sites[qname].append(site)
            for callee in callees:
                self.callers.setdefault(callee.qname, []).append(site)
                if callee.qname not in seen:
                    seen.add(callee.qname)
                    self.edges[qname].append(callee.qname)
            self._scan_worker_root(mod, info, node)

    def _scan_worker_root(self, mod: ModuleInfo, info: FunctionInfo,
                          node: ast.Call) -> None:
        """Record functions shipped to executors / thread / process
        constructors as worker-cone roots."""
        func = node.func
        # pool.submit(fn, ...) / pool.map(fn, ...)
        if (isinstance(func, ast.Attribute)
                and func.attr in _SUBMIT_METHODS and node.args):
            for target in self._work_item_targets(mod, info, node.args[0]):
                self.worker_roots.append(target)
        # Thread(target=fn) / ctx.Process(target=fn) / fork_child(target=fn)
        callee_name = (func.attr if isinstance(func, ast.Attribute)
                       else func.id if isinstance(func, ast.Name) else None)
        if callee_name in _SPAWN_CALLS:
            for kw in node.keywords:
                if kw.arg == "target":
                    for target in self._work_item_targets(mod, info,
                                                         kw.value):
                        self.worker_roots.append(target)

    def _work_item_targets(self, mod: ModuleInfo, info: FunctionInfo,
                           expr: ast.AST) -> List[FunctionInfo]:
        """Resolve a function *reference* (not call) to project targets."""
        if isinstance(expr, ast.Name):
            found = self.index.resolve_name(mod, expr.id)
            return [found] if found is not None else []
        if isinstance(expr, ast.Attribute):
            owner = expr.value
            owner_name = owner.id if isinstance(owner, ast.Name) else None
            if owner_name is not None:
                return self.index.resolve_attribute(
                    mod, owner_name, expr.attr, cls=info.cls)
            return list(self.index.methods_by_name.get(expr.attr, []))
        return []

    # -- resolution -----------------------------------------------------

    def resolve_call(self, mod: ModuleInfo, info: FunctionInfo,
                     node: ast.Call) -> List[FunctionInfo]:
        """Project-function targets of one call expression."""
        func = node.func
        if isinstance(func, ast.Name):
            found = self.index.resolve_name(mod, func.id)
            return [found] if found is not None else []
        if (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
                and func.func.id == "getattr" and func.args):
            return self._dispatch_targets(mod, info, func.args[0])
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                return self.index.resolve_attribute(
                    mod, owner.id, func.attr, cls=info.cls)
            if isinstance(owner, ast.Attribute):
                # self.obj.meth / module.sub.meth: duck-typed fallback.
                return list(self.index.methods_by_name.get(func.attr, []))
        return []

    def _dispatch_targets(self, mod: ModuleInfo, info: FunctionInfo,
                          receiver: ast.AST) -> List[FunctionInfo]:
        """Targets of a by-name ``getattr(receiver, name)(...)`` call:
        every method of the receiver's class — the enclosing class for
        ``self``, else the project class a local ``receiver = Cls(...)``
        constructs."""
        if not isinstance(receiver, ast.Name):
            return []
        cls_name = info.cls if receiver.id == "self" else None
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and any(isinstance(t, ast.Name) and t.id == receiver.id
                            for t in node.targets)):
                cls_name = node.value.func.id
        cinfo = self.index.resolve_class(mod, cls_name) if cls_name else None
        return list(cinfo.methods.values()) if cinfo else []

    # -- queries --------------------------------------------------------

    def reachable_from(self, roots: Iterable[FunctionInfo]
                       ) -> Set[str]:
        """Qnames of every function reachable from ``roots``."""
        queue = [r.qname for r in roots]
        seen: Set[str] = set()
        while queue:
            qname = queue.pop()
            if qname in seen:
                continue
            seen.add(qname)
            queue.extend(self.edges.get(qname, ()))
        return seen

    def worker_reachable(self) -> Tuple[Set[str], Dict[str, str]]:
        """The worker cone: functions reachable from submit targets.

        Returns ``(qnames, why)`` where ``why[qname]`` names the root
        that makes the function worker-executed (for messages).
        """
        why: Dict[str, str] = {}
        seen: Set[str] = set()
        for root in self.worker_roots:
            stack = [root.qname]
            while stack:
                qname = stack.pop()
                if qname in seen:
                    continue
                seen.add(qname)
                why.setdefault(qname, root.qname)
                stack.extend(self.edges.get(qname, ()))
        return seen, why

    def call_sites_of(self, info: FunctionInfo) -> List[CallSite]:
        """Call sites that (may) target ``info``."""
        return self.callers.get(info.qname, [])
