"""fluxflow analyses: interprocedural rules on top of the flow substrate.

========  ==============================================================
SPAN001   planner span leak: a path reaches function exit holding an
          ``add_span`` handle that was never ``rem_span``-ed, stored,
          or handed to a releasing helper (exception edges included)
DET002    transitive determinism taint: a critical-package call site
          whose callee reaches wall-clock/unseeded RNG through any
          resolved call chain (the chain is printed)
EXC002    transitive crash swallowing: a critical-package call site
          whose callee (transitively) contains a handler that absorbs
          ``SimulatedCrash`` without re-raising
JRN002    journal-before-mutate across helpers: in any class with a
          ``_journal`` method, a journaling method must not call a
          (transitively) state-mutating helper before the journal append
========  ==============================================================

Analyses are :class:`repro.statcheck.core.ProgramRule` subclasses run by
the whole-program engine (:mod:`repro.statcheck.engine`).  They report
through the same :class:`~repro.statcheck.core.Violation` records as the
intraprocedural rules, honour the same suppression directives, and are
gated by the same baseline file (see ``baseline.py``).
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import ProgramContext, ProgramRule, Violation
from ..rules import WallClockRule, _handler_catches, _has_bare_reraise
from .callgraph import CallGraph, walk_own
from .cfg import build_cfg
from .fixpoint import solve_cfg
from .program import FlowProgram, FunctionInfo
from .summaries import (
    ACQUIRE_METHOD,
    RELEASE_METHOD,
    MUTATOR_NAMES,
    _classify_use,
    _parent_map,
    _rooted_at_self,
)

__all__ = [
    "SpanLeakAnalysis",
    "DeterminismTaintAnalysis",
    "CrashSwallowTaintAnalysis",
    "JournalHelperAnalysis",
]

#: packages whose code paths feed the journal/replay contract (mirrors API001)
_CORE_PACKAGES = (
    "planner", "match", "sched", "resource", "recovery", "resilience",
)


def _is_critical(path: str) -> bool:
    return any(f"repro/{package}/" in path for package in _CORE_PACKAGES)


# ---------------------------------------------------------------------------
# taint propagation shared by DET002 / EXC002
# ---------------------------------------------------------------------------


def _propagate(
    seeds: Mapping[str, Tuple], graph: CallGraph
) -> Dict[str, Tuple[Optional[str], Tuple]]:
    """BFS taint up the reverse call graph.

    Returns ``{qualname: (next_qualname_toward_seed, seed_payload)}``; seed
    functions map to ``(None, payload)``.
    """
    taint: Dict[str, Tuple[Optional[str], Tuple]] = {
        qualname: (None, payload) for qualname, payload in seeds.items()
    }
    queue = deque(seeds)
    while queue:
        current = queue.popleft()
        payload = taint[current][1]
        for caller in sorted(graph.callers_of(current)):
            if caller not in taint:
                taint[caller] = (current, payload)
                queue.append(caller)
    return taint


def _chain(
    program: FlowProgram,
    taint: Mapping[str, Tuple[Optional[str], Tuple]],
    start: str,
) -> str:
    names: List[str] = []
    current: Optional[str] = start
    hops = 0
    while current is not None and hops < 32:
        fn = program.functions.get(current)
        names.append(fn.name if fn is not None else current)
        current = taint[current][0] if current in taint else None
        hops += 1
    return " -> ".join(names)


# ---------------------------------------------------------------------------
# SPAN001
# ---------------------------------------------------------------------------


class SpanLeakAnalysis(ProgramRule):
    """SPAN001: planner spans (paper §4.1) must stay exactly consistent
    with allocations — a span id that is neither freed, stored, nor
    handed off is unreachable garbage in every planner, and rollback on
    the recovery path can no longer remove it."""

    rule_id = "SPAN001"
    engine = "flow"
    summary = "add_span handle can leak: a path exits without rem_span"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        for fn in ctx.program.functions.values():
            _SpanChecker(self, ctx, fn).check()
        return self.violations


#: one tracked acquisition: (variable, line, col of the add_span call)
_Acq = Tuple[str, int, int]


class _SpanChecker:
    def __init__(
        self, analysis: SpanLeakAnalysis, ctx: ProgramContext, fn: FunctionInfo
    ) -> None:
        self.analysis = analysis
        self.ctx = ctx
        self.fn = fn
        #: acq -> (reason, detail line or None); first reason wins
        self.leaks: Dict[_Acq, Tuple[str, Optional[int]]] = {}
        #: acq -> inert helper qualnames consulted while held
        self.notes: Dict[_Acq, Set[str]] = {}
        self.drops: Set[Tuple[int, int]] = set()

    def check(self) -> None:
        if not self._mentions_acquire():
            return
        cfg = build_cfg(self.fn.node)
        in_states = solve_cfg(
            cfg,
            init=frozenset(),
            bottom=frozenset(),
            transfer=self._transfer,
            join=lambda a, b: a | b,
        )
        for acq in in_states[cfg.exit.node_id]:
            self.leaks.setdefault(acq, ("exit", None))
        self._emit()

    def _mentions_acquire(self) -> bool:
        for node in walk_own(self.fn.node):
            if isinstance(node, ast.Attribute) and node.attr == ACQUIRE_METHOD:
                return True
        return False

    # -- transfer -------------------------------------------------------
    def _transfer(self, node: "object", state: frozenset) -> frozenset:
        stmt = getattr(node, "stmt", None)
        if stmt is None:
            return state
        held: Dict[str, List[_Acq]] = {}
        for acq in state:
            held.setdefault(acq[0], []).append(acq)
        removed: Set[_Acq] = set()
        added: List[_Acq] = []

        # 1) classify uses of held variables in this statement's own exprs
        if held:
            for fragment in _fragments(stmt):
                effects = self._scan_fragment(fragment, set(held))
                for var, (effect, helpers) in effects.items():
                    for acq in held[var]:
                        if effect in ("release", "escape"):
                            removed.add(acq)
                        elif helpers:
                            self.notes.setdefault(acq, set()).update(helpers)

        # 2) rebinding a held variable loses the span id permanently
        targets, value = _assign_parts(stmt)
        for name in _names_stored(targets, stmt):
            for acq in held.get(name, []):
                if acq not in removed:
                    removed.add(acq)
                    self.leaks.setdefault(acq, ("rebound", stmt.lineno))

        # 3) new acquisition: v = X.add_span(...) without span_id=
        if (
            value is not None
            and len(targets) == 1
            and isinstance(targets[0], ast.Name)
        ):
            call = _direct_acquire(value)
            if call is not None:
                added.append(
                    (targets[0].id, call.lineno, call.col_offset)
                )

        # 4) bare expression drop: the span id is unrecoverable immediately
        if isinstance(stmt, ast.Expr):
            call = _direct_acquire(stmt.value)
            if call is not None:
                self.drops.add((call.lineno, call.col_offset))

        if not removed and not added:
            return state
        return frozenset((state - removed) | set(added))

    def _scan_fragment(
        self, fragment: ast.AST, names: Set[str]
    ) -> Dict[str, Tuple[str, Set[str]]]:
        """Per-variable strongest effect in one expression fragment.

        Effects: ``release`` > ``escape`` > ``inert``; for inert uses that
        flowed through a resolved helper, the helper qualnames are noted
        for the diagnostic chain.
        """
        parents = _parent_map(fragment)
        own = set(map(id, walk_own(fragment)))
        own.add(id(fragment))
        results: Dict[str, Tuple[str, Set[str]]] = {}
        for node in ast.walk(fragment):
            if not (isinstance(node, ast.Name) and node.id in names):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if id(node) not in own:
                effect, witness = "escape", None  # captured by a closure
            else:
                effect, witness = _classify_use(
                    node, parents, self.ctx.graph, self.ctx.summaries
                )
            previous, helpers = results.get(node.id, ("inert", set()))
            order = {"inert": 0, "escape": 1, "release": 2}
            if order[effect] > order[previous]:
                previous = effect
            if (
                effect == "inert"
                and witness is not None
                and "inspected by" in witness
            ):
                helpers.add(witness.split("inspected by ", 1)[1].split("(")[0])
            results[node.id] = (previous, helpers)
        return results

    # -- reporting ------------------------------------------------------
    def _emit(self) -> None:
        module = self.fn.module
        for line, col in sorted(self.drops):
            self.analysis.report(
                module,
                line,
                col,
                f"{ACQUIRE_METHOD}() result is discarded; without the span "
                f"id a later {RELEASE_METHOD}() is impossible and the span "
                "leaks (bind the result or pass an explicit span_id=)",
            )
        for acq in sorted(self.leaks):
            var, line, col = acq
            reason, detail = self.leaks[acq]
            if reason == "rebound":
                message = (
                    f"span handle '{var}' acquired here is overwritten on "
                    f"line {detail} before {RELEASE_METHOD}(); the span id "
                    "is lost and the span leaks"
                )
            else:
                message = (
                    f"span handle '{var}' acquired here can leak: a path "
                    f"through {self.fn.name}() reaches its exit without "
                    f"{RELEASE_METHOD}(), storing, or returning it"
                )
                helpers = self.notes.get(acq)
                if helpers:
                    chain = ", ".join(sorted(helpers))
                    message += (
                        f" [held across {chain}(), which neither releases "
                        "nor stores it]"
                    )
            self.analysis.report(module, line, col, message)


def _direct_acquire(value: Optional[ast.AST]) -> Optional[ast.Call]:
    """``X.add_span(...)`` with no explicit ``span_id=`` (an explicit id is
    a crash-recovery re-insert whose id is already journaled)."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == ACQUIRE_METHOD
        and not any(kw.arg == "span_id" for kw in value.keywords)
    ):
        return value
    return None


def _fragments(stmt: ast.AST) -> List[ast.AST]:
    """The expression parts evaluated *at* this CFG node (compound
    statements contribute only their headers; bodies are separate nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    return [stmt]


def _assign_parts(
    stmt: ast.AST,
) -> Tuple[List[ast.expr], Optional[ast.expr]]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), stmt.value
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target], stmt.value
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target], None
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target], None
    return [], None


def _names_stored(targets: Sequence[ast.expr], stmt: ast.AST) -> List[str]:
    names: List[str] = []
    queue: List[ast.AST] = list(targets)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        queue.extend(
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        )
    if isinstance(stmt, ast.Delete):
        queue.extend(stmt.targets)
    while queue:
        node = queue.pop()
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            queue.extend(node.elts)
        elif isinstance(node, ast.Starred):
            queue.append(node.value)
    return names


# ---------------------------------------------------------------------------
# DET002
# ---------------------------------------------------------------------------


class DeterminismTaintAnalysis(ProgramRule):
    """DET002: recovery replay (PR 2) re-executes journaled commands;
    DET001 flags direct wall-clock/RNG reads, this rule flags critical
    call sites whose callee reaches one through any resolved chain."""

    rule_id = "DET002"
    engine = "flow"
    summary = "call chain reaches wall-clock/unseeded RNG (replay diverges)"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        seeds: Dict[str, Tuple] = {}
        for module in ctx.program.modules.values():
            for violation in WallClockRule(module.source_module).run():
                fn = ctx.program.function_at(module, violation.line)
                if fn is None or fn.qualname in seeds:
                    continue
                cause = violation.message.split(";")[0]
                seeds[fn.qualname] = (cause, module.path, violation.line)
        if not seeds:
            return self.violations
        taint = _propagate(seeds, ctx.graph)
        for fn in ctx.program.functions.values():
            if not _is_critical(fn.module.path):
                continue
            for site in ctx.graph.sites_in(fn):
                callee = site.callee
                if callee is None or callee.qualname not in taint:
                    continue
                cause, path, line = taint[callee.qualname][1]
                chain = _chain(ctx.program, taint, callee.qualname)
                self.report(
                    fn.module,
                    site.node.lineno,
                    site.node.col_offset,
                    f"call into {callee.name}() reaches nondeterminism: "
                    f"{chain} => {cause} at {path}:{line}; replay of "
                    "journaled commands will diverge",
                )
        return self.violations


# ---------------------------------------------------------------------------
# EXC002
# ---------------------------------------------------------------------------


class CrashSwallowTaintAnalysis(ProgramRule):
    """EXC002: fault injection relies on ``SimulatedCrash`` propagating to
    the simulator loop.  EXC001 flags broad handlers intraprocedurally;
    this rule flags critical call sites whose callee (transitively)
    contains a handler that absorbs the crash — including handlers that
    catch ``SimulatedCrash`` *by name* without re-raising, which EXC001
    does not look for."""

    rule_id = "EXC002"
    engine = "flow"
    summary = "call chain can absorb SimulatedCrash before the sim loop"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        seeds: Dict[str, Tuple] = {}
        for fn in ctx.program.functions.values():
            seed = self._absorbing_handler(fn)
            if seed is not None:
                seeds[fn.qualname] = seed
        if not seeds:
            return self.violations
        taint = _propagate(seeds, ctx.graph)
        for fn in ctx.program.functions.values():
            if not _is_critical(fn.module.path):
                continue
            for site in ctx.graph.sites_in(fn):
                callee = site.callee
                if callee is None or callee.qualname not in taint:
                    continue
                what, path, line = taint[callee.qualname][1]
                chain = _chain(ctx.program, taint, callee.qualname)
                self.report(
                    fn.module,
                    site.node.lineno,
                    site.node.col_offset,
                    f"call into {callee.name}() can absorb SimulatedCrash: "
                    f"{chain} => handler at {path}:{line} catches {what} "
                    "without re-raising; injected crashes must reach the "
                    "simulator loop",
                )
        return self.violations

    def _absorbing_handler(self, fn: FunctionInfo) -> Optional[Tuple]:
        module = fn.module.source_module
        for node in walk_own(fn.node):
            if not isinstance(node, ast.ExceptHandler):
                continue
            # A justified EXC001/EXC002 suppression vets the handler.
            if module.is_suppressed("EXC002", node.lineno) or (
                module.is_suppressed("EXC001", node.lineno)
            ):
                continue
            if _has_bare_reraise(node):
                continue
            if _handler_catches(node, "SimulatedCrash"):
                return ("SimulatedCrash", fn.module.path, node.lineno)
            if node.type is None:
                return ("everything (bare except)", fn.module.path, node.lineno)
            if _handler_catches(node, "BaseException"):
                return ("BaseException", fn.module.path, node.lineno)
        return None


# ---------------------------------------------------------------------------
# JRN002
# ---------------------------------------------------------------------------


class JournalHelperAnalysis(ProgramRule):
    """JRN002: write-ahead order, generalized.  JRN001 checks direct
    mutations inside ``sched/simulator.py``; this rule checks *any* class
    with a ``_journal`` method and follows helper calls — a handler that
    delegates its mutation to ``self._admit()`` before journaling is just
    as lossy on crash as one that mutates inline."""

    rule_id = "JRN002"
    engine = "flow"
    summary = "journaling method runs a mutating helper before _journal"

    _EXEMPT = {"_journal", "_crashpoint"}

    def run(self, ctx: ProgramContext) -> List[Violation]:
        for ci in ctx.program.classes.values():
            if "_journal" not in ci.methods:
                continue
            for name, method in ci.methods.items():
                if name in self._EXEMPT:
                    continue
                self._check_method(ctx, name, method)
        return self.violations

    def _check_method(
        self, ctx: ProgramContext, name: str, method: FunctionInfo
    ) -> None:
        journal_line = self._first_journal_line(method)
        if journal_line is None:
            return
        module = method.module
        on_simulator = module.path.endswith("sched/simulator.py")
        best: Optional[Tuple[int, int, str]] = None
        for node in walk_own(method.node):
            line = getattr(node, "lineno", None)
            if line is None or line >= journal_line:
                continue
            message = self._offence(ctx, name, node, journal_line, on_simulator)
            if message is None:
                continue
            col = getattr(node, "col_offset", 0)
            if best is None or (line, col) < (best[0], best[1]):
                best = (line, col, message)
        if best is not None:
            self.report(module, best[0], best[1], best[2])

    def _offence(
        self,
        ctx: ProgramContext,
        name: str,
        node: ast.AST,
        journal_line: int,
        on_simulator: bool,
    ) -> Optional[str]:
        # Direct mutation: JRN001 already owns this inside sched/simulator.py.
        if not on_simulator and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                    _rooted_at_self(target)
                ):
                    return (
                        f"{name}() mutates state on line {node.lineno} before "
                        f"journaling on line {journal_line}; a crash in "
                        "between loses the command (write-ahead order)"
                    )
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not on_simulator and (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_NAMES
            and (
                _rooted_at_self(func.value)
                or any(_rooted_at_self(arg) for arg in node.args)
            )
        ):
            return (
                f"{name}() mutates state on line {node.lineno} before "
                f"journaling on line {journal_line} (write-ahead order)"
            )
        # Transitive mutation through a resolved helper on self/self.attr.
        site = ctx.graph.site_for.get(id(node))
        if site is None or site.callee is None or not site.bound:
            return None
        receiver = site.receiver or ""
        if receiver != "self" and not receiver.startswith("self."):
            return None
        if site.callee.name in self._EXEMPT:
            return None
        summary = ctx.summaries.get(site.callee.qualname)
        if not summary.mutates_self or summary.mutation is None:
            return None
        witness = summary.mutation
        chain = " -> ".join((name, site.callee.name) + witness.chain)
        return (
            f"{name}() calls {site.callee.name}() on line {node.lineno} "
            f"before journaling on line {journal_line}, and that helper "
            f"mutates state: {chain} => {witness.what} at "
            f"{witness.path}:{witness.line}; journal first (write-ahead "
            "order)"
        )

    def _first_journal_line(self, method: FunctionInfo) -> Optional[int]:
        lines = [
            node.lineno
            for node in walk_own(method.node)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_journal"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ]
        return min(lines, default=None)


#: this module's rules, in catalogue order (see :mod:`repro.statcheck.engine`)
RULES = (
    SpanLeakAnalysis,
    DeterminismTaintAnalysis,
    CrashSwallowTaintAnalysis,
    JournalHelperAnalysis,
)
