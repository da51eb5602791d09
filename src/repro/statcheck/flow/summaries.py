"""Interprocedural function summaries.

Two summary families, both computed to a fixpoint over the call graph
(:func:`repro.statcheck.flow.fixpoint.solve_summaries`):

* **Parameter summaries** (for SPAN001): for each parameter, does the
  function *release* it (``X.rem_span(p)`` anywhere, directly or via a
  resolved callee that releases its corresponding parameter) and does it
  *escape* it (stored, returned, or passed to an unresolved call — the
  caller can no longer assume it still owns the handle exclusively)?  A
  parameter that neither releases nor escapes is *inert*: the helper
  looked at the value but the caller still holds the obligation.
* **Mutation summaries** (for JRN002): does calling this method mutate the
  receiver's state — directly (assignment to a ``self``-rooted target or a
  known mutator call on one, the JRN001 notion) or transitively through a
  resolved method call on ``self`` / a ``self`` attribute?  The witness
  chain records where the actual mutation happens.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .callgraph import CallGraph, walk_own
from .fixpoint import solve_summaries
from .program import FlowProgram, FunctionInfo

__all__ = [
    "ParamSummary",
    "MutationWitness",
    "FunctionSummary",
    "SummaryTable",
    "compute_summaries",
    "ACQUIRE_METHOD",
    "RELEASE_METHOD",
]

ACQUIRE_METHOD = "add_span"
RELEASE_METHOD = "rem_span"

#: method names treated as in-place mutators when invoked on self-rooted
#: receivers (mirrors JRN001's list — keep in sync with rules.py)
MUTATOR_NAMES = {
    "append", "add", "pop", "popleft", "push", "clear", "remove",
    "discard", "update", "extend", "insert", "setdefault",
    "transition", "mark_down", "mark_up", "heappush", "heappop",
    "_push", "_cycle", "_kill", "_dispatch", "record",
}

#: AST contexts in which reading a tracked name neither releases nor leaks
#: it — comparisons, arithmetic, formatting, indexing, attribute reads.
_NEUTRAL_PARENTS = (
    ast.Compare, ast.BoolOp, ast.UnaryOp, ast.BinOp,
    ast.JoinedStr, ast.FormattedValue, ast.Attribute,
    ast.If, ast.While, ast.Assert, ast.IfExp, ast.Expr,
)


@dataclass
class ParamSummary:
    releases: bool = False
    escapes: bool = False
    #: human-readable witnesses ("rem_span at repro/x.py:12", "via helper()")
    flows: List[str] = field(default_factory=list)

    @property
    def inert(self) -> bool:
        return not (self.releases or self.escapes)


@dataclass(frozen=True)
class MutationWitness:
    path: str
    line: int
    what: str  # e.g. "self.jobs.append(...)"
    #: call chain of function short names from the summarized function down
    #: to the mutation site (empty for a direct mutation)
    chain: Tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    params: Dict[str, ParamSummary] = field(default_factory=dict)
    mutates_self: bool = False
    mutation: Optional[MutationWitness] = None


class SummaryTable:
    """Summaries per function qualname, with convenience accessors."""

    def __init__(self) -> None:
        self.by_qualname: Dict[str, FunctionSummary] = {}

    def get(self, qualname: str) -> FunctionSummary:
        summary = self.by_qualname.get(qualname)
        if summary is None:
            summary = FunctionSummary()
            self.by_qualname[qualname] = summary
        return summary

    def param(self, fn: FunctionInfo, name: Optional[str]) -> Optional[ParamSummary]:
        if name is None:
            return None
        return self.get(fn.qualname).params.get(name)


def compute_summaries(program: FlowProgram, graph: CallGraph) -> SummaryTable:
    table = SummaryTable()
    for qualname, fn in program.functions.items():
        summary = table.get(qualname)
        for param in fn.params:
            if param not in ("self", "cls"):
                summary.params[param] = ParamSummary()

    def recompute(qualname: str) -> bool:
        fn = program.functions.get(qualname)
        if fn is None:
            return False
        summary = table.get(qualname)
        changed = False
        for param in summary.params:
            changed |= _update_param(fn, param, summary.params[param], graph, table)
        changed |= _update_mutation(fn, summary, graph, table)
        return changed

    solve_summaries(
        list(program.functions),
        dependents=lambda q: graph.callers_of(q),
        recompute=recompute,
    )
    return table


# ---------------------------------------------------------------------------
# parameter release / escape classification
# ---------------------------------------------------------------------------


def _update_param(
    fn: FunctionInfo,
    param: str,
    summary: ParamSummary,
    graph: CallGraph,
    table: SummaryTable,
) -> bool:
    if summary.releases and summary.escapes:
        return False
    releases, escapes, flows = classify_name_uses(fn.node, param, graph, table)
    changed = False
    if releases and not summary.releases:
        summary.releases = True
        changed = True
    if escapes and not summary.escapes:
        summary.escapes = True
        changed = True
    if changed:
        for flow in flows:
            if flow not in summary.flows:
                summary.flows.append(flow)
    return changed


def classify_name_uses(
    scope: ast.AST,
    name: str,
    graph: CallGraph,
    table: SummaryTable,
) -> Tuple[bool, bool, List[str]]:
    """Classify every read of ``name`` inside ``scope``.

    Returns ``(releases, escapes, flow_witnesses)``.  Reads inside nested
    functions/lambdas count as escapes (the closure may outlive the frame).
    """
    parents = _parent_map(scope)
    releases = False
    escapes = False
    flows: List[str] = []
    own = set(map(id, walk_own(scope)))
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        if not isinstance(node.ctx, ast.Load):
            continue
        if id(node) not in own:
            escapes = True
            flows.append(f"captured by a nested function (line {node.lineno})")
            continue
        effect, witness = _classify_use(node, parents, graph, table)
        if effect == "release":
            releases = True
        elif effect == "escape":
            escapes = True
        if witness:
            flows.append(witness)
    return releases, escapes, flows


def _classify_use(
    node: ast.AST,
    parents: Dict[int, ast.AST],
    graph: CallGraph,
    table: SummaryTable,
) -> Tuple[str, Optional[str]]:
    """Classify one Load of a tracked name: 'release' | 'escape' | 'inert'."""
    parent = parents.get(id(node))
    while parent is not None and isinstance(parent, ast.Starred):
        node, parent = parent, parents.get(id(parent))
    if parent is None:
        return "inert", None
    if isinstance(parent, ast.Call):
        if node is parent.func:
            return "inert", None  # calling the handle itself: not a store
        return _classify_call_arg(node, parent, graph, table)
    if isinstance(parent, ast.keyword):
        call = parents.get(id(parent))
        if isinstance(call, ast.Call):
            return _classify_call_arg(node, call, graph, table)
        return "escape", None
    if isinstance(parent, ast.Subscript):
        if node is parent.value:
            return "inert", None  # p[...] read
        return "inert", None  # used as an index
    if isinstance(parent, _NEUTRAL_PARENTS):
        return "inert", None
    if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Await)):
        line = getattr(parent, "lineno", 0)
        return "escape", f"returned to the caller (line {line})"
    # Stored somewhere: assignment value, container literal, comprehension,
    # raise cause, default value, f-string conversion — all escapes.
    line = getattr(parent, "lineno", getattr(node, "lineno", 0))
    return "escape", f"stored via {type(parent).__name__} (line {line})"


def _classify_call_arg(
    node: ast.AST,
    call: ast.Call,
    graph: CallGraph,
    table: SummaryTable,
) -> Tuple[str, Optional[str]]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == RELEASE_METHOD:
        return "release", f"{RELEASE_METHOD} at line {call.lineno}"
    site = graph.site_for.get(id(call))
    if site is None or site.callee is None:
        return "escape", f"passed to an unresolved call (line {call.lineno})"
    param = site.param_for_arg(node)
    if param is None:
        return "escape", f"passed via */** to {site.callee.name}()"
    callee_summary = table.param(site.callee, param)
    if callee_summary is None:
        return "escape", f"passed to {site.callee.name}() (untracked param)"
    if callee_summary.releases:
        return "release", f"released by {site.callee.qualname}()"
    if callee_summary.escapes:
        return "escape", f"escapes via {site.callee.qualname}()"
    return "inert", f"inspected by {site.callee.qualname}() which keeps it inert"


# ---------------------------------------------------------------------------
# mutation summaries (JRN002)
# ---------------------------------------------------------------------------


def _update_mutation(
    fn: FunctionInfo,
    summary: FunctionSummary,
    graph: CallGraph,
    table: SummaryTable,
) -> bool:
    if summary.mutates_self or fn.class_info is None:
        return False
    witness = find_direct_mutation(fn)
    if witness is None:
        witness = _find_transitive_mutation(fn, graph, table)
    if witness is not None:
        summary.mutates_self = True
        summary.mutation = witness
        return True
    return False


def find_direct_mutation(fn: FunctionInfo) -> Optional[MutationWitness]:
    """First JRN001-style direct self-mutation in ``fn``, in line order."""
    best: Optional[MutationWitness] = None
    for node in walk_own(fn.node):
        what: Optional[str] = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                    _rooted_at_self(target)
                ):
                    what = f"assignment to {_describe(target)}"
                    break
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_NAMES:
                if _rooted_at_self(func.value) or any(
                    _rooted_at_self(arg) for arg in node.args
                ):
                    what = f"{_describe(func)}(...)"
        if what is not None:
            line = getattr(node, "lineno", 0)
            candidate = MutationWitness(fn.module.path, line, what)
            if best is None or candidate.line < best.line:
                best = candidate
    return best


def _find_transitive_mutation(
    fn: FunctionInfo,
    graph: CallGraph,
    table: SummaryTable,
) -> Optional[MutationWitness]:
    for site in graph.sites_in(fn):
        if site.in_nested or site.callee is None or not site.bound:
            continue
        if site.receiver not in ("self",) and not (
            site.receiver or ""
        ).startswith("self."):
            continue
        callee_summary = table.get(site.callee.qualname)
        if callee_summary.mutates_self and callee_summary.mutation is not None:
            inner = callee_summary.mutation
            return MutationWitness(
                inner.path,
                inner.line,
                inner.what,
                chain=(site.callee.name,) + inner.chain,
            )
    return None


def _rooted_at_self(node: ast.AST) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _describe(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our inputs
        return "<expr>"


def _parent_map(scope: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(scope):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents
