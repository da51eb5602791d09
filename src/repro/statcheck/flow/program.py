"""fluxflow program model: every module of the analyzed tree, parsed once,
with import maps and symbol tables for whole-program resolution.

The model deliberately mirrors how the tree is laid out rather than how
Python's import machinery works at runtime: a module's dotted name is
derived from its path (walking up through ``__init__.py`` packages, with a
``src/``-stripping fallback for in-memory sources), and name resolution
chases ``from x import y`` chains through package ``__init__`` re-exports
up to a bounded depth.  That is enough to resolve every project-internal
call the analyses care about; anything else is treated as *external* and
handled conservatively by each analysis.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import SourceModule, _expand

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "FlowProgram",
    "module_name_for_path",
]

_MAX_RESOLVE_DEPTH = 16


def module_name_for_path(path: str, package_dirs: Optional[Set[str]] = None) -> str:
    """Derive a dotted module name from a file path.

    Walks parent directories upward for as long as they are packages — a
    directory counts as a package when it holds an ``__init__.py`` on disk
    or appears in ``package_dirs`` (directories of in-memory sources that
    include an ``__init__.py``).  When no package chain exists (synthetic
    fixture paths), falls back to the path itself with a leading ``src``
    component stripped: ``src/repro/sched/ops.py`` -> ``repro.sched.ops``.
    """
    norm = path.replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    if not parts:
        return norm
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dir_parts = parts[:-1]
    pkg_parts: List[str] = []
    while dir_parts:
        candidate = "/".join(dir_parts)
        is_pkg = (package_dirs is not None and candidate in package_dirs) or (
            os.path.isfile(os.path.join(*dir_parts, "__init__.py"))
            if not norm.startswith("/")
            else os.path.isfile("/" + os.path.join(*dir_parts, "__init__.py"))
        )
        if not is_pkg:
            break
        pkg_parts.insert(0, dir_parts[-1])
        dir_parts = dir_parts[:-1]
    if not pkg_parts:
        # Fallback for paths with no importable package chain on disk.
        fallback = [p for p in parts[:-1] if p != "src"]
        pkg_parts = fallback
    if stem == "__init__":
        return ".".join(pkg_parts) if pkg_parts else stem
    return ".".join(pkg_parts + [stem])


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    name: str
    qualname: str  # e.g. "repro.sched.simulator.ClusterSimulator.submit"
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_info: Optional["ClassInfo"] = None
    params: List[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_info is not None

    def __hash__(self) -> int:
        return hash(self.qualname)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


@dataclass
class ClassInfo:
    """One class definition with its methods and tracked attribute types."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_exprs: List[ast.expr] = field(default_factory=list)
    #: attribute name -> class qualname, from ``self.x = ClassName(...)``,
    #: annotated parameters assigned to attributes, and ``self.x: T`` forms
    attr_types: Dict[str, str] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.qualname)


@dataclass
class ModuleInfo:
    """One parsed source module plus its import maps and symbols."""

    name: str
    path: str
    source_module: SourceModule
    #: local alias -> imported module dotted name (``import a.b as c``)
    import_modules: Dict[str, str] = field(default_factory=dict)
    #: local alias -> (module dotted name, original name) for from-imports
    import_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    is_package: bool = False

    @property
    def tree(self) -> ast.Module:
        return self.source_module.tree


class FlowProgram:
    """Whole-program index over a set of modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "FlowProgram":
        """Parse every ``.py`` file under ``paths`` into a program."""
        sources: Dict[str, str] = {}
        for path in _expand(paths):
            with open(path, "rb") as handle:
                raw = handle.read()
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                from ..core import LintParseError

                raise LintParseError(f"{path}: cannot decode as UTF-8: {exc}")
            sources[path.replace(os.sep, "/")] = text
        return cls.from_sources(sources)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "FlowProgram":
        """Build a program from ``{path: source}`` (paths may be virtual)."""
        program = cls()
        package_dirs = {
            os.path.dirname(path.replace(os.sep, "/"))
            for path in sources
            if os.path.basename(path) == "__init__.py"
        }
        for path in sorted(sources):
            norm = path.replace(os.sep, "/")
            module = SourceModule.parse(sources[path], norm)
            name = module_name_for_path(norm, package_dirs)
            info = ModuleInfo(
                name=name,
                path=norm,
                source_module=module,
                is_package=os.path.basename(norm) == "__init__.py",
            )
            program.modules[name] = info
            program.modules_by_path[norm] = info
        for info in program.modules.values():
            program._index_module(info)
        for info in program.modules.values():
            program._infer_attr_types(info)
        return program

    # -- per-module indexing -------------------------------------------
    def _index_module(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            self._collect_imports(info, node)
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._collect_imports(info, node)
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    name=node.name,
                    qualname=f"{info.name}.{node.name}",
                    module=info,
                    node=node,
                    params=_param_names(node),
                )
                info.functions[node.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(node, ast.ClassDef):
                ci = ClassInfo(
                    name=node.name,
                    qualname=f"{info.name}.{node.name}",
                    module=info,
                    node=node,
                    base_exprs=list(node.bases),
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = FunctionInfo(
                            name=stmt.name,
                            qualname=f"{ci.qualname}.{stmt.name}",
                            module=info,
                            node=stmt,
                            class_info=ci,
                            params=_param_names(stmt),
                        )
                        ci.methods[stmt.name] = method
                        self.functions[method.qualname] = method
                info.classes[node.name] = ci
                self.classes[ci.qualname] = ci

    def _collect_imports(self, info: ModuleInfo, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.import_modules[alias.asname] = alias.name
                else:
                    info.import_modules[alias.name.split(".")[0]] = (
                        alias.name.split(".")[0]
                    )
                    # ``import a.b`` also makes ``a.b`` reachable as a chain
                    # starting at ``a``; resolution handles the tail.
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_relative(info, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.import_names[alias.asname or alias.name] = (base, alias.name)

    def _resolve_relative(
        self, info: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if not node.level:
            return node.module
        parts = info.name.split(".")
        if not info.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            if drop > len(parts):
                return None
            parts = parts[: len(parts) - drop]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None

    # -- attribute type inference --------------------------------------
    def _infer_attr_types(self, info: ModuleInfo) -> None:
        for ci in info.classes.values():
            for method in ci.methods.values():
                param_types = self.param_types(method)
                for stmt in ast.walk(method.node):
                    target: Optional[str] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.expr] = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        tgt = stmt.targets[0]
                        if _is_self_attr(tgt):
                            target, value = tgt.attr, stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        if _is_self_attr(stmt.target):
                            target = stmt.target.attr
                            value = stmt.value
                            annotation = stmt.annotation
                    if target is None or target in ci.attr_types:
                        continue
                    inferred: Optional[str] = None
                    if annotation is not None:
                        resolved = self.resolve_annotation(info, annotation)
                        if resolved is not None:
                            inferred = resolved.qualname
                    if inferred is None and value is not None:
                        inferred = self._infer_expr_type(info, value, param_types)
                    if inferred is not None:
                        ci.attr_types[target] = inferred

    def _infer_expr_type(
        self,
        info: ModuleInfo,
        value: ast.expr,
        param_types: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            resolved = self.resolve_expr(info, value.func)
            if isinstance(resolved, ClassInfo):
                return resolved.qualname
        elif isinstance(value, ast.Name):
            return param_types.get(value.id)
        return None

    # -- resolution -----------------------------------------------------
    def resolve_expr(
        self, info: ModuleInfo, expr: ast.AST, depth: int = 0
    ) -> Optional[object]:
        """Resolve a Name/Attribute chain to a project symbol.

        Returns a :class:`FunctionInfo`, :class:`ClassInfo` or
        :class:`ModuleInfo`, or None for anything external/dynamic.
        """
        parts = _dotted_parts(expr)
        if parts is None:
            return None
        return self.resolve_dotted(info, parts, depth)

    def resolve_dotted(
        self, info: ModuleInfo, parts: Sequence[str], depth: int = 0
    ) -> Optional[object]:
        if depth > _MAX_RESOLVE_DEPTH or not parts:
            return None
        head, rest = parts[0], list(parts[1:])
        if head in info.classes:
            return self._descend_class(info.classes[head], rest)
        if head in info.functions:
            return info.functions[head] if not rest else None
        if head in info.import_names:
            target_module, original = info.import_names[head]
            return self._resolve_in_module(
                target_module, [original] + rest, depth + 1
            )
        if head in info.import_modules:
            return self._resolve_in_module(
                info.import_modules[head], rest, depth + 1
            )
        return None

    def _resolve_in_module(
        self, module_name: str, parts: Sequence[str], depth: int
    ) -> Optional[object]:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        # Longest module prefix wins: ``repro`` + [sched, simulator, X]
        # resolves inside module ``repro.sched.simulator``.
        parts = list(parts)
        best: Optional[Tuple[ModuleInfo, List[str]]] = None
        candidate = module_name
        if candidate in self.modules:
            best = (self.modules[candidate], parts)
        for index, part in enumerate(parts):
            candidate = f"{candidate}.{part}"
            if candidate in self.modules:
                best = (self.modules[candidate], parts[index + 1 :])
        if best is None:
            return None
        module, remainder = best
        if not remainder:
            return module
        return self.resolve_dotted(module, remainder, depth + 1)

    def _descend_class(
        self, ci: ClassInfo, rest: Sequence[str]
    ) -> Optional[object]:
        if not rest:
            return ci
        if len(rest) == 1:
            return self.find_method(ci, rest[0])
        return None

    def find_method(self, ci: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look up ``name`` on ``ci`` or its resolvable project bases."""
        seen: Set[str] = set()
        stack = [ci]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.base_exprs:
                resolved = self.resolve_expr(current.module, base)
                if isinstance(resolved, ClassInfo):
                    stack.append(resolved)
        return None

    def resolve_annotation(
        self, info: ModuleInfo, annotation: ast.AST
    ) -> Optional[ClassInfo]:
        """Resolve a type annotation to a project class (through
        ``Optional[T]``, ``"T"`` strings, and ``T | None``)."""
        node: Optional[ast.AST] = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = _dotted_parts(node.value)
            if base and base[-1] in ("Optional", "Annotated"):
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.resolve_annotation(info, inner)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    resolved = self.resolve_annotation(info, side)
                    if resolved is not None:
                        return resolved
            return None
        resolved = self.resolve_expr(info, node) if node is not None else None
        return resolved if isinstance(resolved, ClassInfo) else None

    # -- typing helpers -------------------------------------------------
    def param_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """Annotated parameter types as ``{param: class qualname}``."""
        types: Dict[str, str] = {}
        args = fn.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is not None:
                resolved = self.resolve_annotation(fn.module, arg.annotation)
                if resolved is not None:
                    types[arg.arg] = resolved.qualname
        return types

    def function_at(self, info: ModuleInfo, lineno: int) -> Optional[FunctionInfo]:
        """Innermost indexed function/method containing ``lineno``."""
        best: Optional[FunctionInfo] = None
        best_span = None
        for fn in self.functions.values():
            if fn.module is not info:
                continue
            start = fn.node.lineno
            end = getattr(fn.node, "end_lineno", start)
            if start <= lineno <= end:
                span = end - start
                if best_span is None or span < best_span:
                    best, best_span = fn, span
        return best


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    names.extend(a.arg for a in args.kwonlyargs)
    return names


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None
