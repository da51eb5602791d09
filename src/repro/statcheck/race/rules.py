"""fluxrace RACE rules: is this tree safe to share across concurrent
tenants?

========  ==============================================================
RACE001   module-global mutable state written outside module init (the
          ``obs/runtime.ACTIVE`` pattern, mutable class attributes,
          memo dicts without ownership)
RACE002   blocking or process-wide calls (``time.sleep``, subprocess,
          file I/O, ``cProfile``, ``signal``) transitively reachable
          from the checked-in service-entrypoint manifest
RACE003   shared-object escape: a global reachable from two or more
          service roots that some reachable function mutates without a
          guard, with aliasing tracked through helper returns and the
          fluxflow escape summaries
RACE004   ``# guarded-by: <lock>`` discipline: every write to guarded
          state holds the named lock, every call into a caller-holds
          function holds it, and no call chain re-acquires a
          non-reentrant lock it already holds
========  ==============================================================

Rules are :class:`repro.statcheck.core.ProgramRule` subclasses run by the
whole-program engine (:mod:`repro.statcheck.engine`), which builds the
:class:`RaceModel` only when one of them runs.  Findings report through the
standard :class:`Violation` records, honour ``# fluxlint: disable=``
suppressions, and gate through the same baseline files as every other rule — ``statcheck-race-baseline.json`` is the
ranked de-globalization worklist for the scheduling-as-a-service PR.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from ..core import ProgramContext, ProgramRule, Violation
from ..flow.callgraph import walk_own
from ..flow.program import FunctionInfo, ModuleInfo
from ..flow.summaries import classify_name_uses
from .model import MUTATOR_NAMES, SharedGlobal, WriteSite, _dotted_parts

__all__ = [
    "GlobalMutableStateRule",
    "BlockingCallRule",
    "SharedEscapeRule",
    "GuardDisciplineRule",
]


def _roots_label(roots: Sequence[str], limit: int = 3) -> str:
    shown = [".".join(r.rsplit(".", 2)[-2:]) for r in roots[:limit]]
    extra = len(roots) - limit
    return ", ".join(shown) + (f" (+{extra} more)" if extra > 0 else "")


# ---------------------------------------------------------------------------
# RACE001 — module-global mutable state written outside module init
# ---------------------------------------------------------------------------


class GlobalMutableStateRule(ProgramRule):
    """RACE001: process-global mutable state is last-writer-wins across
    tenants the moment two requests share the interpreter; every memo
    dict, registry, and ``global`` rebind found here must either move
    into an owning object / ContextVar or declare its lock."""

    rule_id = "RACE001"
    engine = "race"
    summary = "module-global mutable state written outside module init"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        for qualname in sorted(ctx.model.globals):
            shared = ctx.model.globals[qualname]
            if shared.guard is not None or not shared.writes:
                continue  # guarded state is RACE004's problem
            rebinds = [w for w in shared.writes if w.kind == "rebind"]
            if not shared.mutable and not rebinds:
                continue
            first = min(shared.writes, key=lambda w: (w.path, w.line))
            kind = (
                f"module-global mutable '{shared.name}' ({shared.ctor})"
                if shared.mutable
                else f"module-global '{shared.name}'"
            )
            self.report(
                shared.module,
                shared.line,
                shared.col,
                f"{kind} is written outside module init by "
                f"{len({w.fn_qualname for w in shared.writes})} function(s), "
                f"first in {first.fn_qualname.rsplit('.', 1)[-1]}() at "
                f"line {first.line} ({first.what}); process-wide state "
                "cross-contaminates concurrent tenants — move it into an "
                "owning object or ContextVar, or declare "
                "'# guarded-by: <lock>'",
            )
        for qualname in sorted(ctx.model.class_attrs):
            attr = ctx.model.class_attrs[qualname]
            if attr.guard is not None or not attr.writes:
                continue
            if attr.rebound_in_init:
                continue  # instances own a private copy; the class-level
                # literal is only a default value
            first = min(attr.writes, key=lambda w: (w.path, w.line))
            short_cls = attr.class_qualname.rsplit(".", 1)[-1]
            self.report(
                attr.module,
                attr.line,
                attr.col,
                f"class attribute '{short_cls}.{attr.name}' ({attr.ctor}) "
                "is shared by every instance and mutated by "
                f"{len({w.fn_qualname for w in attr.writes})} function(s), "
                f"first in {first.fn_qualname.rsplit('.', 1)[-1]}() at "
                f"line {first.line} ({first.what}); rebind it per instance "
                "in __init__ or declare '# guarded-by: <lock>'",
            )
        return self.violations


# ---------------------------------------------------------------------------
# RACE002 — blocking calls reachable from service entrypoints
# ---------------------------------------------------------------------------

#: module -> blocking member names (None = every attribute blocks)
_BLOCKING_MODULES: Dict[str, Optional[Set[str]]] = {
    "time": {"sleep"},
    "subprocess": None,
    "signal": None,
    "cProfile": None,
    "profile": None,
    "os": {
        "system", "popen", "fork", "forkpty", "wait", "waitpid",
        "wait3", "wait4", "spawnl", "spawnv", "spawnve", "execv",
        "execve", "fsync", "sync",
    },
    "shutil": {"rmtree", "copytree", "copy", "copy2", "copyfile", "move"},
    "io": {"open"},
}

#: bare builtins that block the calling thread (process-wide for input())
_BLOCKING_BUILTINS = {"open", "input"}


class BlockingCallRule(ProgramRule):
    """RACE002: one worker parked in ``time.sleep`` or synchronous file
    I/O stalls every tenant sharing the event loop; ``signal``/``fork``/
    ``cProfile`` are process-wide and cannot be scoped to one request at
    all."""

    rule_id = "RACE002"
    engine = "race"
    summary = "blocking or process-wide call reachable from a service entrypoint"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        for qualname in sorted(ctx.program.functions):
            fn = ctx.program.functions[qualname]
            roots = ctx.model.roots_reaching(qualname)
            if not roots:
                continue
            shadowed = ctx.model.shadowed_names(fn)
            for node in walk_own(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(fn, node, shadowed)
                if label is None:
                    continue
                ctx.model.blocking_by_module[fn.module.name] = (
                    ctx.model.blocking_by_module.get(fn.module.name, 0) + 1
                )
                self.report(
                    fn.module,
                    node.lineno,
                    node.col_offset,
                    f"blocking call {label} in {fn.name}() is reachable "
                    f"from service entrypoint(s) {_roots_label(roots)} via "
                    f"{ctx.model.chain(roots[0], qualname)}; a stalled "
                    "worker blocks every tenant in this process — move it "
                    "off the request path or behind an executor",
                )
        return self.violations

    @staticmethod
    def _blocking_label(
        fn: FunctionInfo, node: ast.Call, shadowed: Set[str]
    ) -> Optional[str]:
        parts = _dotted_parts(node.func)
        if parts is None:
            return None
        info = fn.module
        head = parts[0]
        if head in shadowed:
            return None
        if len(parts) == 1:
            if (
                head in _BLOCKING_BUILTINS
                and head not in info.functions
                and head not in info.import_names
                and head not in info.import_modules
            ):
                return f"{head}()"
            alias = info.import_names.get(head)
            if alias is not None:
                module_name, original = alias
                members = _BLOCKING_MODULES.get(module_name)
                if members is None and module_name in _BLOCKING_MODULES:
                    return f"{module_name}.{original}()"
                if members is not None and original in members:
                    return f"{module_name}.{original}()"
            return None
        real = info.import_modules.get(head)
        if real is None or real not in _BLOCKING_MODULES:
            return None
        if len(parts) != 2:
            return None  # os.path.join and deeper chains are not calls
            # into the blocking table
        members = _BLOCKING_MODULES[real]
        if members is None or parts[1] in members:
            return f"{real}.{parts[1]}()"
        return None


# ---------------------------------------------------------------------------
# RACE003 — shared-object escape across tenant roots
# ---------------------------------------------------------------------------


class SharedEscapeRule(ProgramRule):
    """RACE003: a value two tenant roots can both reach, that some
    reachable function mutates without a guard, is a data race the
    moment those roots run concurrently; aliasing through helper
    returns and escaping parameters is tracked so hiding the global
    behind an accessor does not hide the race."""

    rule_id = "RACE003"
    engine = "race"
    summary = "unguarded mutation of state shared between service roots"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        returns_global = self._returns_global(ctx)
        touchers: Dict[str, Set[str]] = {}
        mutations: Dict[str, List[WriteSite]] = {}
        escapes: Dict[str, str] = {}

        for qualname, shared in ctx.model.globals.items():
            for write in shared.writes:
                touchers.setdefault(qualname, set()).add(write.fn_qualname)
                mutations.setdefault(qualname, []).append(write)

        for fn_qualname in sorted(ctx.program.functions):
            fn = ctx.program.functions[fn_qualname]
            shadowed = ctx.model.shadowed_names(fn)
            read_globals: Set[str] = set()
            aliases: Dict[str, str] = {}
            for node in walk_own(fn.node):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    if node.id in shadowed:
                        continue
                    shared = ctx.model.resolve_global(fn, [node.id])
                    if shared is not None:
                        read_globals.add(shared.qualname)
                        touchers.setdefault(shared.qualname, set()).add(
                            fn_qualname
                        )
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    # x = helper() where helper returns a tracked global:
                    # x aliases the shared object
                    site = ctx.graph.site_for.get(id(node.value))
                    if site is not None and site.callee is not None:
                        aliased = returns_global.get(site.callee.qualname)
                        if aliased is not None:
                            aliases[node.targets[0].id] = aliased
                            touchers.setdefault(aliased, set()).add(
                                fn_qualname
                            )
            self._record_alias_mutations(
                ctx, fn, aliases, touchers, mutations
            )
            self._record_escapes(ctx, fn, read_globals, escapes)

        for qualname in sorted(mutations):
            shared = ctx.model.globals.get(qualname)
            if shared is None or shared.guard is not None:
                continue
            roots = sorted(
                {
                    root
                    for toucher in touchers.get(qualname, ())
                    for root in ctx.model.roots_reaching(toucher)
                }
            )
            if len(roots) < 2:
                continue
            first = min(mutations[qualname], key=lambda w: (w.path, w.line))
            module = ctx.program.modules_by_path.get(first.path)
            if module is None:
                continue
            escape_note = (
                f"; aliases escape: {escapes[qualname]}"
                if qualname in escapes
                else ""
            )
            self.report(
                module,
                first.line,
                first.col,
                f"'{qualname}' is reachable from {len(roots)} service "
                f"roots ({_roots_label(roots)}) and mutated without a "
                f"guard in {first.fn_qualname.rsplit('.', 1)[-1]}() "
                f"({first.what}){escape_note}; two tenants racing here "
                "corrupt shared state — give each root its own instance "
                "or declare '# guarded-by: <lock>'",
            )
        return self.violations

    @staticmethod
    def _returns_global(ctx: ProgramContext) -> Dict[str, str]:
        """Function qualname -> global qualname it returns an alias of."""
        out: Dict[str, str] = {}
        for fn in ctx.program.functions.values():
            shadowed = None
            for node in walk_own(fn.node):
                if not (
                    isinstance(node, ast.Return) and node.value is not None
                ):
                    continue
                parts = _dotted_parts(node.value)
                if not parts:
                    continue
                if shadowed is None:
                    shadowed = ctx.model.shadowed_names(fn)
                if parts[0] in shadowed:
                    continue
                shared = ctx.model.resolve_global(fn, parts)
                if shared is not None:
                    out[fn.qualname] = shared.qualname
        return out

    def _record_alias_mutations(
        self,
        ctx: ProgramContext,
        fn: FunctionInfo,
        aliases: Dict[str, str],
        touchers: Dict[str, Set[str]],
        mutations: Dict[str, List[WriteSite]],
    ) -> None:
        if not aliases:
            return
        for node in walk_own(fn.node):
            target: Optional[str] = None
            what = ""
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_NAMES
                and isinstance(node.func.value, ast.Name)
            ):
                target = node.func.value.id
                what = f"{target}.{node.func.attr}(...) [alias]"
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
            ):
                target = node.value.id
                what = f"{target}[...] = ... [alias]"
            if target is None or target not in aliases:
                continue
            qualname = aliases[target]
            touchers.setdefault(qualname, set()).add(fn.qualname)
            mutations.setdefault(qualname, []).append(
                WriteSite(
                    fn_qualname=fn.qualname,
                    path=fn.module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    what=what,
                    kind="alias",
                )
            )

    def _record_escapes(
        self,
        ctx: ProgramContext,
        fn: FunctionInfo,
        read_globals: Set[str],
        escapes: Dict[str, str],
    ) -> None:
        """Record how a global's value leaks out of ``fn`` — returned,
        stored, or passed to a callee whose parameter summary escapes."""
        for qualname in read_globals:
            if qualname in escapes:
                continue
            shared = ctx.model.globals[qualname]
            spelled = self._spelling(fn.module, shared)
            if spelled is None:
                continue
            _, escaped, flows = classify_name_uses(
                fn.node, spelled, ctx.graph, ctx.summaries
            )
            if escaped:
                witness = flows[0] if flows else "stored outside the frame"
                short = fn.qualname.rsplit(".", 1)[-1]
                escapes[qualname] = f"{short}() {witness}"
                shared.escapes.append((fn.qualname, fn.node.lineno, witness))

    @staticmethod
    def _spelling(
        info: ModuleInfo, shared: SharedGlobal
    ) -> Optional[str]:
        """How ``shared`` is spelled as a bare name inside ``info``."""
        if info is shared.module:
            return shared.name
        for alias, (module_name, original) in info.import_names.items():
            if (
                module_name == shared.module.name
                and original == shared.name
            ):
                return alias
        return None


# ---------------------------------------------------------------------------
# RACE004 — guarded-by discipline + non-reentrant re-entry
# ---------------------------------------------------------------------------


class GuardDisciplineRule(ProgramRule):
    """RACE004: a ``# guarded-by:`` annotation is a machine-checked
    contract — writes hold the named lock, callers of caller-holds
    functions hold it, and no call chain re-acquires a non-reentrant
    lock it already holds (instant deadlock, not just a race)."""

    rule_id = "RACE004"
    engine = "race"
    summary = "guarded-by contract violated or non-reentrant lock re-entered"

    def run(self, ctx: ProgramContext) -> List[Violation]:
        held_maps = {
            qualname: _held_map(fn)
            for qualname, fn in ctx.program.functions.items()
        }
        self._check_guarded_writes(ctx, held_maps)
        self._check_caller_holds(ctx, held_maps)
        self._check_reentry(ctx, held_maps)
        return self.violations

    # (a) every write to guarded state holds the named lock
    def _check_guarded_writes(
        self,
        ctx: ProgramContext,
        held_maps: Dict[str, Dict[int, frozenset]],
    ) -> None:
        guarded = [
            (shared.qualname, shared.guard, shared.writes, shared.module)
            for shared in ctx.model.globals.values()
            if shared.guard is not None
        ]
        guarded.extend(
            (attr.qualname, attr.guard, attr.writes, attr.module)
            for attr in ctx.model.class_attrs.values()
            if attr.guard is not None
        )
        for qualname, guard, writes, _module in sorted(
            guarded, key=lambda item: item[0]
        ):
            for write in writes:
                fn = ctx.program.functions.get(write.fn_qualname)
                if fn is None:
                    continue
                if ctx.model.fn_guards.get(write.fn_qualname) == guard:
                    continue  # the whole function declares it holds it
                if self._write_holds(
                    held_maps.get(write.fn_qualname, {}), fn, write, guard
                ):
                    continue
                self.report(
                    fn.module,
                    write.line,
                    write.col,
                    f"write to '{qualname}' (guarded-by {guard}) in "
                    f"{fn.name}() without holding {guard}: {write.what}; "
                    f"wrap it in 'with {guard}:' or annotate the function "
                    f"'# guarded-by: {guard}'",
                )

    @staticmethod
    def _write_holds(
        held: Dict[int, frozenset],
        fn: FunctionInfo,
        write: WriteSite,
        guard: str,
    ) -> bool:
        # the held map is keyed by node id; find any node at the write's
        # line that holds the guard (line-level matching keeps WriteSite
        # free of AST references, which multiprocessing would not pickle)
        for node in walk_own(fn.node):
            if getattr(node, "lineno", None) != write.line:
                continue
            if guard in held.get(id(node), frozenset()):
                return True
        return False

    # (b) calls into caller-holds-annotated functions hold the lock
    def _check_caller_holds(
        self,
        ctx: ProgramContext,
        held_maps: Dict[str, Dict[int, frozenset]],
    ) -> None:
        for caller_qualname in sorted(ctx.graph.sites):
            caller = ctx.program.functions.get(caller_qualname)
            if caller is None:
                continue
            held = held_maps.get(caller_qualname, {})
            for site in ctx.graph.sites[caller_qualname]:
                if site.callee is None:
                    continue
                guard = ctx.model.fn_guards.get(site.callee.qualname)
                if guard is None:
                    continue
                if ctx.model.fn_guards.get(caller_qualname) == guard:
                    continue
                if guard in held.get(id(site.node), frozenset()):
                    continue
                self.report(
                    caller.module,
                    site.node.lineno,
                    site.node.col_offset,
                    f"call to {site.callee.name}() requires holding "
                    f"{guard} ('# guarded-by: {guard}' on its def) but "
                    f"{caller.name}() does not hold it; acquire "
                    f"'with {guard}:' around the call or annotate the "
                    "caller",
                )

    # (c) non-reentrant re-entry along the call graph
    def _check_reentry(
        self,
        ctx: ProgramContext,
        held_maps: Dict[str, Dict[int, frozenset]],
    ) -> None:
        known_locks = set(ctx.model.lock_reentrant)
        known_locks.update(ctx.model.guard_lines.values())
        known_locks.update(ctx.model.fn_guards.values())
        if not known_locks:
            return
        direct: Dict[str, Set[str]] = {}
        for qualname, fn in ctx.program.functions.items():
            acquired: Set[str] = set()
            for node in walk_own(fn.node):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    acquired |= _with_locks(node) & known_locks
            direct[qualname] = acquired
        eventually = {q: set(locks) for q, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for qualname in eventually:
                for callee in ctx.graph.edges.get(qualname, ()):
                    extra = eventually.get(callee, set()) - eventually[qualname]
                    if extra:
                        eventually[qualname] |= extra
                        changed = True
        for caller_qualname in sorted(ctx.graph.sites):
            caller = ctx.program.functions.get(caller_qualname)
            if caller is None:
                continue
            held = held_maps.get(caller_qualname, {})
            for site in ctx.graph.sites[caller_qualname]:
                if site.callee is None:
                    continue
                holding = held.get(id(site.node), frozenset()) & known_locks
                if not holding:
                    continue
                reacquired = sorted(
                    lock
                    for lock in holding
                    if not ctx.model.lock_reentrant.get(lock, False)
                    and lock in eventually.get(site.callee.qualname, ())
                )
                if not reacquired:
                    continue
                lock = reacquired[0]
                self.report(
                    caller.module,
                    site.node.lineno,
                    site.node.col_offset,
                    f"call to {site.callee.name}() while holding "
                    f"non-reentrant lock {lock} re-acquires {lock} "
                    "somewhere down its call chain — this deadlocks; use "
                    "an RLock or lift the inner acquisition out",
                )


def _with_locks(node: ast.AST) -> Set[str]:
    """The lock texts a With/AsyncWith statement acquires."""
    out: Set[str] = set()
    for item in node.items:
        out.add(ast.unparse(item.context_expr))
    return out


def _held_map(fn: FunctionInfo) -> Dict[int, frozenset]:
    """id(node) -> set of lock texts held at that node inside ``fn``."""
    held: Dict[int, frozenset] = {}

    def visit(node: ast.AST, stack: frozenset) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            inner = stack
            if isinstance(child, (ast.With, ast.AsyncWith)):
                inner = stack | frozenset(_with_locks(child))
            held[id(child)] = inner
            visit(child, inner)

    visit(fn.node, frozenset())
    return held


#: this module's rules, in catalogue order (see :mod:`repro.statcheck.engine`)
RULES = (
    GlobalMutableStateRule,
    BlockingCallRule,
    SharedEscapeRule,
    GuardDisciplineRule,
)
