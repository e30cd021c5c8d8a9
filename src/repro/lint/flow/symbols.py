"""Project-wide symbol table.

Parses every module once and records what the interprocedural analyses
need to resolve names across files: the functions and classes each
module defines, what its imports bind, and which module-level names
are mutable containers (the shared state F202 polices).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Call names whose result is a mutable container (module-global
#: classification).
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "collections.defaultdict", "collections.OrderedDict", "deque",
    "collections.deque",
}


def modname_of(modpath: str) -> str:
    """Dotted module name for a repo-rooted posix path.

    ``repro/distributed/backends.py`` → ``repro.distributed.backends``;
    package ``__init__`` files name the package itself.
    """
    name = modpath[:-3] if modpath.endswith(".py") else modpath
    parts = [p for p in name.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition, with resolution context."""

    qname: str                      # "pkg.mod.fn" / "pkg.mod.Cls.fn"
    modpath: str
    modname: str
    node: ast.AST                   # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None       # enclosing class name, if a method
    #: Positional parameter names (``self``/``cls`` included).
    params: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Bare function name."""
        return self.node.name

    def param_index(self, name: str) -> Optional[int]:
        """Positional index of parameter ``name`` (None if absent)."""
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition and its methods."""

    qname: str
    modpath: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module and its top-level bindings."""

    modpath: str
    modname: str
    tree: ast.Module
    source: str
    #: alias → fully dotted target ("np" → "numpy",
    #: "ensure_rng" → "repro.rng.ensure_rng").
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level names bound to mutable containers (list/dict/set
    #: literals or constructor calls) — candidate shared state.
    mutable_globals: Dict[str, int] = field(default_factory=dict)


def _resolve_relative(modname: str, target: Optional[str],
                      level: int) -> str:
    """Resolve a ``from ... import`` module spec to a dotted name."""
    if level == 0:
        return target or ""
    parts = modname.split(".")
    # A module's package is its own prefix; ``from . import x`` inside
    # ``repro.lint.engine`` refers to ``repro.lint``.
    base = parts[:-level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ProjectIndex:
    """Every module of the project, parsed once and cross-linked."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Fully qualified function name → info (methods included).
        self.functions: Dict[str, FunctionInfo] = {}
        #: Method name → every FunctionInfo with that name (duck-typed
        #: attribute-call resolution for the call graph).
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectIndex":
        """Build the index from ``{modpath: source}`` mappings.

        Unparseable sources are skipped (the per-file engine reports
        them as ``E999``).
        """
        index = cls()
        for modpath in sorted(sources):
            try:
                tree = ast.parse(sources[modpath])
            except SyntaxError:
                continue
            index._add_module(modpath, tree, sources[modpath])
        return index

    def _add_module(self, modpath: str, tree: ast.Module,
                    source: str) -> None:
        modname = modname_of(modpath)
        mod = ModuleInfo(modpath=modpath, modname=modname, tree=tree,
                         source=source)
        self.modules[modname] = mod
        for stmt in tree.body:
            self._index_toplevel(mod, stmt)

    def _index_toplevel(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_relative(mod.modname, stmt.module, stmt.level)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                mod.imports[alias.asname or alias.name] = \
                    f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(mod, stmt, cls=None)
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            value = stmt.value
            if value is not None and _is_mutable_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        mod.mutable_globals[target.id] = stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditionally defined top-level bindings (version gates).
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._index_toplevel(mod, sub)

    def _index_function(self, mod: ModuleInfo, node,
                        cls: Optional[str]) -> FunctionInfo:
        local = f"{cls}.{node.name}" if cls else node.name
        qname = f"{mod.modname}.{local}"
        params = [a.arg for a in (node.args.posonlyargs + node.args.args)]
        info = FunctionInfo(qname=qname, modpath=mod.modpath,
                            modname=mod.modname, node=node, cls=cls,
                            params=params)
        mod.functions[local] = info
        self.functions[qname] = info
        self.methods_by_name.setdefault(node.name, []).append(info)
        return info

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.modname}.{node.name}"
        cinfo = ClassInfo(qname=qname, modpath=mod.modpath, node=node,
                          bases=[b for b in map(_base_name, node.bases)
                                 if b])
        mod.classes[node.name] = cinfo
        self.classes[qname] = cinfo
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cinfo.methods[stmt.name] = self._index_function(
                    mod, stmt, cls=node.name)

    # -- lookups --------------------------------------------------------

    def module_of(self, info: FunctionInfo) -> ModuleInfo:
        """The :class:`ModuleInfo` a function was defined in."""
        return self.modules[info.modname]

    def resolve_name(self, mod: ModuleInfo, name: str
                     ) -> Optional[FunctionInfo]:
        """Resolve a bare ``Name`` call in ``mod`` to a project function.

        Checks module-level functions first, then imported names
        (``from repro.rng import ensure_rng`` style).
        """
        if name in mod.functions:
            return mod.functions[name]
        target = mod.imports.get(name)
        if target and target in self.functions:
            return self.functions[target]
        # ``Cls(...)`` (local or imported): resolve to the class
        # __init__ when one exists.
        cinfo = self.resolve_class(mod, name)
        return cinfo.methods.get("__init__") if cinfo else None

    def resolve_class(self, mod: ModuleInfo, name: str
                      ) -> Optional[ClassInfo]:
        """The project class ``name`` is bound to in ``mod``, if any."""
        target = mod.imports.get(name)
        if target and target in self.classes:
            return self.classes[target]
        return mod.classes.get(name)

    def resolve_attribute(self, mod: ModuleInfo, owner: str, attr: str,
                          cls: Optional[str] = None
                          ) -> List[FunctionInfo]:
        """Candidate targets of an ``owner.attr(...)`` call.

        ``self.attr`` resolves within the enclosing class (walking
        project base classes); ``module_alias.attr`` resolves through
        the import table; anything else falls back to *every* project
        method named ``attr`` — a deliberate over-approximation that
        keeps worker-reachability sound for F202.
        """
        if owner in ("self", "cls") and cls is not None:
            found = self._resolve_method(mod, cls, attr)
            if found is not None:
                return [found]
        target = mod.imports.get(owner)
        if target is not None:
            targetmod = self.modules.get(target)
            if targetmod is not None:
                fn = targetmod.functions.get(attr)
                if fn is not None:
                    return [fn]
                if attr in targetmod.classes:
                    init = targetmod.classes[attr].methods.get("__init__")
                    return [init] if init is not None else []
                return []
        return list(self.methods_by_name.get(attr, []))

    def _resolve_method(self, mod: ModuleInfo, cls: str, attr: str
                        ) -> Optional[FunctionInfo]:
        """Look up ``attr`` on class ``cls`` and its project bases."""
        seen = set()
        queue = [(mod, cls)]
        while queue:
            cur_mod, cur_cls = queue.pop(0)
            if (cur_mod.modname, cur_cls) in seen:
                continue
            seen.add((cur_mod.modname, cur_cls))
            cinfo = cur_mod.classes.get(cur_cls)
            if cinfo is None:
                imported = cur_mod.imports.get(cur_cls)
                if imported and imported in self.classes:
                    cinfo = self.classes[imported]
                    cur_mod = self.modules[cinfo.qname.rsplit(".", 1)[0]] \
                        if cinfo.qname.rsplit(".", 1)[0] in self.modules \
                        else cur_mod
            if cinfo is None:
                continue
            if attr in cinfo.methods:
                return cinfo.methods[attr]
            for base in cinfo.bases:
                queue.append((cur_mod, base))
        return None


def _base_name(node: ast.AST) -> Optional[str]:
    """Base-class name of a ``ClassDef`` base expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_mutable_value(node: ast.AST) -> bool:
    """Whether a top-level binding's value is a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        from ..astutils import call_name
        return call_name(node) in _MUTABLE_CALLS
    return False
