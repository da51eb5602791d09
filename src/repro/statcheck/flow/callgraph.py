"""Whole-program call graph with method resolution.

Every :class:`ast.Call` in every indexed function becomes a
:class:`CallSite`.  Resolution handles the forms that actually occur in
this tree:

* ``helper(...)`` / ``mod.helper(...)`` / ``pkg.mod.helper(...)`` via the
  module import maps (:class:`repro.statcheck.flow.program.FlowProgram`);
* ``self.meth(...)`` via the enclosing class (including project base
  classes);
* ``self.attr.meth(...)`` via class attribute types inferred from
  ``self.attr = ClassName(...)`` and annotated constructor parameters;
* ``var.meth(...)`` via local variable types (annotated parameters,
  ``var = ClassName(...)``, ``var = self.attr``);
* ``ClassName(...)`` resolves to the class (and its ``__init__`` when
  defined in-project).

Anything else is an *unresolved* call site; analyses treat those
conservatively (arguments escape, effects unknown but pure-by-default for
journaling — each analysis documents its own choice).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from .program import ClassInfo, FlowProgram, FunctionInfo

__all__ = ["CallSite", "CallGraph", "build_call_graph", "walk_own"]


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but does not descend into nested function or
    class definitions (their bodies run at call time, not in this frame)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


@dataclass
class CallSite:
    """One call expression inside an analyzed function."""

    caller: FunctionInfo
    node: ast.Call
    callee: Optional[FunctionInfo] = None
    #: set when the call constructs a project class (callee is its __init__)
    constructed: Optional[ClassInfo] = None
    #: textual receiver ("self", "self.attr", "var", "mod") for diagnostics
    receiver: Optional[str] = None
    #: True when ``callee`` is a method invoked on an instance (self is bound)
    bound: bool = False
    #: True when the call site lives inside a nested def/lambda of the caller
    in_nested: bool = False

    @property
    def resolved(self) -> bool:
        return self.callee is not None

    def param_for_arg(self, arg: ast.AST) -> Optional[str]:
        """The callee parameter that receives ``arg``, or None."""
        if self.callee is None:
            return None
        params = list(self.callee.params)
        if self.bound and params:
            params = params[1:]  # drop self/cls
        for index, actual in enumerate(self.node.args):
            if actual is arg:
                if isinstance(actual, ast.Starred):
                    return None
                return params[index] if index < len(params) else None
        for keyword in self.node.keywords:
            if keyword.value is arg:
                return keyword.arg  # None for **kwargs — caller handles
        return None


class CallGraph:
    """Call sites plus forward/reverse qualname edges."""

    def __init__(self) -> None:
        #: caller qualname -> its call sites, in source order
        self.sites: Dict[str, List[CallSite]] = {}
        #: id(ast.Call) -> CallSite, for analyses walking statement ASTs
        self.site_for: Dict[int, CallSite] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.reverse: Dict[str, Set[str]] = {}

    def add(self, site: CallSite) -> None:
        caller = site.caller.qualname
        self.sites.setdefault(caller, []).append(site)
        self.site_for[id(site.node)] = site
        if site.callee is not None:
            self.edges.setdefault(caller, set()).add(site.callee.qualname)
            self.reverse.setdefault(site.callee.qualname, set()).add(caller)

    def sites_in(self, fn: FunctionInfo) -> List[CallSite]:
        return self.sites.get(fn.qualname, [])

    def callers_of(self, qualname: str) -> Set[str]:
        return self.reverse.get(qualname, set())


def build_call_graph(program: FlowProgram) -> CallGraph:
    graph = CallGraph()
    for fn in program.functions.values():
        local_types = infer_local_types(program, fn)
        own = set(map(id, walk_own(fn.node)))
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            site = _resolve_call(program, fn, node, local_types)
            site.in_nested = id(node) not in own
            graph.add(site)
    return graph


def infer_local_types(
    program: FlowProgram, fn: FunctionInfo
) -> Dict[str, str]:
    """Local variable name -> project class qualname, flow-insensitively."""
    types: Dict[str, str] = dict(program.param_types(fn))
    if fn.class_info is not None and fn.params and fn.params[0] in ("self", "cls"):
        types[fn.params[0]] = fn.class_info.qualname
    for stmt in walk_own(fn.node):
        target: Optional[str] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            if isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target = stmt.target.id
            value = stmt.value
            annotation = stmt.annotation
        if target is None:
            continue
        inferred: Optional[str] = None
        if annotation is not None:
            resolved = program.resolve_annotation(fn.module, annotation)
            if resolved is not None:
                inferred = resolved.qualname
        if inferred is None and value is not None:
            inferred = _value_type(program, fn, value, types)
        if inferred is not None:
            types[target] = inferred
        elif target in types and value is not None:
            del types[target]  # rebound to something we cannot type
    return types


def _value_type(
    program: FlowProgram,
    fn: FunctionInfo,
    value: ast.expr,
    types: Dict[str, str],
) -> Optional[str]:
    if isinstance(value, ast.Call):
        resolved = program.resolve_expr(fn.module, value.func)
        if isinstance(resolved, ClassInfo):
            return resolved.qualname
        return None
    if isinstance(value, ast.Name):
        return types.get(value.id)
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
        and fn.class_info is not None
    ):
        return fn.class_info.attr_types.get(value.attr)
    return None


def _resolve_call(
    program: FlowProgram,
    fn: FunctionInfo,
    node: ast.Call,
    local_types: Dict[str, str],
) -> CallSite:
    site = CallSite(caller=fn, node=node)
    func = node.func
    parts = _dotted_parts(func)
    if parts is None:
        return site

    # self.meth(...) / self.attr.meth(...)
    if parts[0] == "self" and fn.class_info is not None:
        if len(parts) == 2:
            method = program.find_method(fn.class_info, parts[1])
            if method is not None:
                site.callee, site.bound, site.receiver = method, True, "self"
            return site
        if len(parts) == 3:
            attr_type = fn.class_info.attr_types.get(parts[1])
            if attr_type in program.classes:
                method = program.find_method(program.classes[attr_type], parts[2])
                if method is not None:
                    site.callee, site.bound = method, True
                    site.receiver = f"self.{parts[1]}"
            return site
        return site

    # var.meth(...) with a typed local
    if len(parts) == 2 and parts[0] in local_types:
        type_name = local_types[parts[0]]
        if type_name in program.classes:
            method = program.find_method(program.classes[type_name], parts[1])
            if method is not None:
                site.callee, site.bound, site.receiver = method, True, parts[0]
        return site

    resolved = program.resolve_dotted(fn.module, parts)
    if isinstance(resolved, FunctionInfo):
        site.callee = resolved
        site.receiver = ".".join(parts[:-1]) or None
        # ClassName.method(instance, ...) — unbound: first param is explicit.
        site.bound = False
        if resolved.is_method and len(parts) >= 2:
            # Reached through a class object: unbound (self passed by caller)
            site.bound = False
    elif isinstance(resolved, ClassInfo):
        site.constructed = resolved
        init = program.find_method(resolved, "__init__")
        if init is not None:
            site.callee, site.bound = init, True
        site.receiver = parts[-1]
    return site


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
