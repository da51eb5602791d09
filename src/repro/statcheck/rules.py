"""The fluxlint rule catalogue.

Each rule enforces one invariant the recovery/resilience layers depend on;
the rationale for every rule lives in docs/static_analysis.md.  Rules are
deliberately conservative: they aim for zero false positives on this
codebase and accept missing exotic violations — a lint that cries wolf gets
suppressed wholesale.

========  ==============================================================
DET001    no wall-clock reads or unseeded RNG (breaks recovery replay)
EXC001    no broad exception handlers that can swallow or starve
          ``SimulatedCrash`` (a ``BaseException``)
FLT001    no ``==``/``!=`` on float-typed times (use repro.epsilon)
MUT001    no mutable default arguments
JRN001    simulator command handlers journal before they mutate
INT001    repair-engine mutations of scheduler state go through a
          journaled repair action (replay must regenerate repairs)
API001    public functions in core modules carry full type hints
OBS001    instrumentation goes through ``repro.obs``: no raw timer
          reads or hand-rolled stats-dict counters elsewhere
OBS002    prune/outcome bookkeeping goes through the decision
          recorder (``obs.why``), not ad-hoc accumulators
OVL001    overload-control signals (``AdmissionRejected``,
          ``SchedulingDeadlineExceeded``) are only absorbed by the
          overload machinery itself; everywhere else must re-raise
========  ==============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import LintRule

__all__ = [
    "WallClockRule",
    "ExceptionSwallowRule",
    "FloatTimeEqualityRule",
    "MutableDefaultRule",
    "JournalBeforeMutateRule",
    "JournaledRepairRule",
    "TypeHintRule",
    "ObservabilityFunnelRule",
    "DecisionProvenanceRule",
    "OverloadSignalSwallowRule",
]


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _ImportTracker:
    """Resolves local names back to the modules/objects they were imported as."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> imported module dotted name ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: local alias -> (module, original name) for from-imports
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve_call(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a call target to ``(module, dotted attr)``.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``("numpy", "random.seed")``; ``now()`` after ``from datetime import
        datetime as now``... does not arise — from-imported *names* resolve
        to ``(module, name)`` with any trailing attributes appended.
        """
        parts = _dotted_parts(func)
        if not parts:
            return None
        head, rest = parts[0], parts[1:]
        if head in self.modules:
            return self.modules[head], ".".join(rest)
        if head in self.names:
            module, original = self.names[head]
            return module, ".".join([original] + rest)
        return None


class WallClockRule(LintRule):
    """DET001: recovery replay re-executes journaled commands and must make
    byte-identical decisions; any wall-clock read or unseeded RNG on a
    scheduler code path diverges on replay."""

    rule_id = "DET001"
    summary = "wall-clock read or unseeded RNG breaks deterministic replay"

    _TIME_FNS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "clock",
    }
    _DATETIME_FNS = {
        "datetime.now", "datetime.utcnow", "datetime.today",
        "date.today", "now", "utcnow", "today",
    }
    # random-module attributes that are *safe* to call: seeded-instance
    # construction and non-RNG helpers.
    _RANDOM_SAFE = {"Random", "getstate", "setstate"}
    _NUMPY_GLOBAL_FNS = {
        "random", "rand", "randn", "randint", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "poisson", "exponential", "standard_normal", "bytes",
    }

    def visit_Call(self, node: ast.Call) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        tracker = self._tracker()
        resolved = tracker.resolve_call(node.func)
        if resolved is None:
            return
        module, attr = resolved
        if module == "time" and attr in self._TIME_FNS:
            self.report(
                node,
                f"wall-clock read time.{attr}() is not replayable; derive "
                "times from simulator state or suppress for observability-"
                "only metrics",
            )
        elif module == "datetime" and attr in self._DATETIME_FNS:
            self.report(
                node,
                f"wall-clock read datetime {attr}() is not replayable",
            )
        elif module == "random":
            first = attr.split(".")[0]
            if first in self._RANDOM_SAFE:
                if first == "Random" and not (node.args or node.keywords):
                    self.report(
                        node,
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
            elif "." not in attr:
                self.report(
                    node,
                    f"random.{attr}() uses the unseeded global RNG; use a "
                    "seeded random.Random(seed) instance",
                )
        elif module == "numpy":
            if attr == "random.default_rng" and not (node.args or node.keywords):
                self.report(
                    node,
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
            elif (
                attr.startswith("random.")
                and attr.split(".")[1] in self._NUMPY_GLOBAL_FNS
            ):
                self.report(
                    node,
                    f"numpy.{attr}() uses the unseeded global RNG; use "
                    "numpy.random.default_rng(seed)",
                )

    def _tracker(self) -> _ImportTracker:
        tracker = getattr(self, "_tracker_cache", None)
        if tracker is None:
            tracker = _ImportTracker(self.module.tree)
            self._tracker_cache = tracker
        return tracker


def _handler_catches(handler: ast.ExceptHandler, name: str) -> bool:
    """True when the handler's type spec names ``name`` (directly or in a tuple)."""
    spec = handler.type
    if spec is None:
        return False
    specs = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    for entry in specs:
        if isinstance(entry, ast.Name) and entry.id == name:
            return True
        if isinstance(entry, ast.Attribute) and entry.attr == name:
            return True
    return False


def _has_bare_reraise(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a top-level bare ``raise``."""
    return any(
        isinstance(stmt, ast.Raise) and stmt.exc is None
        for stmt in handler.body
    )


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing observable (pass/.../continue)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare literal
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


class ExceptionSwallowRule(LintRule):
    """EXC001: ``SimulatedCrash`` derives from ``BaseException`` so that
    cleanup written as ``except Exception`` cannot eat it — but handlers
    broad enough to catch it (bare / BaseException) must re-raise, and
    cleanup-then-reraise handlers must catch BaseException or the cleanup
    is silently skipped when the crash fires mid-block."""

    rule_id = "EXC001"
    summary = "broad exception handler can swallow or starve SimulatedCrash"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        bare = node.type is None
        catches_base = _handler_catches(node, "BaseException")
        catches_exc = _handler_catches(node, "Exception")
        if bare or catches_base:
            if not _has_bare_reraise(node):
                what = "bare except:" if bare else "except BaseException:"
                self.report(
                    node,
                    f"{what} can swallow SimulatedCrash; re-raise with a "
                    "bare `raise` or narrow the handler",
                )
        elif catches_exc:
            if _swallows(node):
                self.report(
                    node,
                    "except Exception: pass silently discards failures "
                    "adjacent to SimulatedCrash; handle or narrow it",
                )
            elif _has_bare_reraise(node) and len(node.body) > 1:
                self.report(
                    node,
                    "cleanup-then-reraise must catch BaseException, not "
                    "Exception: a SimulatedCrash here would skip the cleanup "
                    "and leak partially-applied state",
                )
        self.generic_visit(node)


class FloatTimeEqualityRule(LintRule):
    """FLT001: float-typed times (``sched_time`` and friends are wall-clock
    accumulations) must not be compared with ``==``/``!=`` — rounding makes
    the result platform-dependent.  Use :mod:`repro.epsilon` helpers."""

    rule_id = "FLT001"
    summary = "exact equality on float-typed times; use repro.epsilon"

    #: attribute/variable names known to hold float times in this codebase
    _FLOAT_TIME_NAMES = {
        "sched_time", "total_sched_time", "mttr_observed",
        "mean_wait", "mean_response", "avg_wait",
    }

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._is_float_time(left) or self._is_float_time(right):
                self.report(
                    node,
                    "== / != on a float-typed time is not portable; use "
                    "repro.epsilon.approx_eq / approx_zero",
                )
                break
        self.generic_visit(node)

    def _is_float_time(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return True
            name = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", None)
            )
            return name in self._FLOAT_TIME_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._FLOAT_TIME_NAMES
        if isinstance(node, ast.Name):
            return node.id in self._FLOAT_TIME_NAMES
        return False


class MutableDefaultRule(LintRule):
    """MUT001: a mutable default argument is shared across calls — in a
    simulator that replays commands this aliases state between the control
    run and the replay, corrupting both."""

    rule_id = "MUT001"
    summary = "mutable default argument"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.AST) -> None:
        args = node.args
        for default in list(args.defaults) + list(args.kw_defaults):
            if default is None:
                continue
            if self._is_mutable(default):
                label = getattr(node, "name", "<lambda>")
                self.report(
                    default,
                    f"mutable default argument in {label}(); default to None "
                    "and allocate inside the body",
                )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False


class JournalBeforeMutateRule(LintRule):
    """JRN001: write-ahead discipline in the simulator.

    Within ``sched/simulator.py``, every top-level command handler must
    append to the journal (``self._journal(...)``) and the append must come
    before the first mutation of simulator state — otherwise a crash between
    the mutation and the append loses the command and replay diverges.

    Checked mechanically: in the class that defines ``_journal``, (a) the
    handlers in :attr:`REQUIRED_HANDLERS` must contain a ``self._journal``
    call, and (b) in *any* method calling ``self._journal``, no statement
    before the first call may assign to ``self.<attr>`` (or a subscript of
    one) or invoke a known mutator rooted at ``self``.
    """

    rule_id = "JRN001"
    summary = "simulator command handler mutates state before journaling"

    REQUIRED_HANDLERS = {
        "submit", "cancel", "schedule_failure", "schedule_repair",
        "fail", "repair", "reschedule", "step", "inject_corruption",
    }
    _MUTATOR_NAMES = {
        "append", "add", "pop", "popleft", "push", "clear", "remove",
        "discard", "update", "extend", "insert", "setdefault",
        "transition", "mark_down", "mark_up", "heappush", "heappop",
        "_push", "_cycle", "_kill", "_dispatch", "record",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return path.endswith("sched/simulator.py")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "_journal" not in methods:
            self.generic_visit(node)
            return
        for name, method in methods.items():
            if name == "_journal":
                continue
            journal_call = self._first_journal_call(method)
            if name in self.REQUIRED_HANDLERS and journal_call is None:
                self.report(
                    method,
                    f"command handler {name}() never journals; append the "
                    "command with self._journal(...) before mutating state",
                )
                continue
            if journal_call is None:
                continue
            early = self._first_mutation_before(method, journal_call.lineno)
            if early is not None:
                self.report(
                    early,
                    f"{name}() mutates simulator state on line {early.lineno} "
                    f"before journaling on line {journal_call.lineno}; a "
                    "crash in between loses the command (write-ahead order)",
                )
        # Class bodies never nest another simulator here; no generic_visit
        # so nested defs are not double-walked.

    # -- helpers -------------------------------------------------------
    def _first_journal_call(self, method: ast.AST) -> Optional[ast.Call]:
        calls = [
            node
            for node in ast.walk(method)
            if isinstance(node, ast.Call) and self._is_self_call(node, "_journal")
        ]
        return min(calls, key=lambda c: c.lineno, default=None)

    def _is_self_call(self, node: ast.Call, name: str) -> bool:
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == name
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        )

    def _rooted_at_self(self, node: ast.AST) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _first_mutation_before(
        self, method: ast.AST, journal_line: int
    ) -> Optional[ast.AST]:
        for node in ast.walk(method):
            if getattr(node, "lineno", journal_line) >= journal_line:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                        self._rooted_at_self(target)
                    ):
                        return node
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATOR_NAMES
                ):
                    if self._rooted_at_self(func.value) or any(
                        self._rooted_at_self(arg) for arg in node.args
                    ):
                        return node
        return None


class JournaledRepairRule(LintRule):
    """INT001: repairs mutate scheduler state only via journaled actions.

    Within ``recovery/repair.py``, any function that mutates graph, planner
    or allocation state — a call to a known state mutator (``add_span``,
    ``rem_span``, ``rebuild``, ``mark_down``, ...) or an assignment to an
    attribute/subscript *not* rooted at ``self`` (the engine's own
    bookkeeping is exempt) — must call ``self._journal_action(...)`` on an
    earlier line of the same function.  Un-journaled repairs are invisible
    to replay: a recovered simulator would re-diverge at exactly the state
    the repair was supposed to fix.
    """

    rule_id = "INT001"
    summary = "repair mutates scheduler state without journaling the action"

    #: state mutators specific enough to repair targets that a call is a
    #: mutation; generic container verbs (pop/clear/remove) are excluded
    #: to keep the rule zero-false-positive on bookkeeping code
    _MUTATOR_NAMES = {
        "add_span", "rem_span", "update_span_end", "rebuild", "reset",
        "resize", "import_state", "install_allocation", "mark_down",
        "mark_up", "_kill", "transition",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return path.endswith("recovery/repair.py")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)

    def _check(self, node: ast.AST) -> None:
        if getattr(node, "name", "") == "_journal_action":
            return  # the journaling primitive itself writes the record
        journal_line = None
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if name == "_journal_action":
                if journal_line is None or sub.lineno < journal_line:
                    journal_line = sub.lineno
        mutation = self._first_mutation(node)
        if mutation is None:
            return
        if journal_line is None:
            self.report(
                mutation,
                "repair mutates scheduler state on line "
                f"{mutation.lineno} without any _journal_action() call; "
                "journal the repair action first so replay regenerates it",
            )
        elif mutation.lineno < journal_line:
            self.report(
                mutation,
                f"repair mutates scheduler state on line {mutation.lineno} "
                f"before journaling on line {journal_line}; a crash in "
                "between leaves an unjournaled, unreplayable repair",
            )

    def _first_mutation(self, node: ast.AST) -> Optional[ast.AST]:
        found = None
        for sub in ast.walk(node):
            lineno = getattr(sub, "lineno", None)
            if lineno is None:
                continue
            if found is not None and lineno >= found.lineno:
                continue
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if self._foreign_attribute_target(target):
                        found = sub
                        break
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATOR_NAMES
                ):
                    found = sub
        return found

    def _foreign_attribute_target(self, node: ast.AST) -> bool:
        """True for ``other.attr[...] = ...`` where ``other`` is not self.

        Plain subscripts of local names (``table[key] = v``) are local
        bookkeeping, not scheduler state, and are left alone.
        """
        has_attribute = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                has_attribute = True
            node = node.value
        return (
            has_attribute
            and isinstance(node, ast.Name)
            and node.id != "self"
        )


class ObservabilityFunnelRule(LintRule):
    """OBS001: instrumentation must funnel through :mod:`repro.obs`.

    Two patterns used to be scattered across the codebase and are now
    centralized: raw ``time.perf_counter()``-style wall-clock timing (the
    audited shim is :func:`repro.obs.clock.wall_now` / ``WallTimer``) and
    hand-rolled ``stats["key"] += n`` counter dicts (the replacement is a
    :class:`repro.obs.MetricsRegistry` counter).  Scattered instrumentation
    drifts: each site needs its own DET001 audit, and ad-hoc dicts never
    reach trace exports or ``repro.obs report``.
    """

    rule_id = "OBS001"
    summary = "raw timer read or stats-dict counter outside repro.obs"

    #: every ``time`` module entry point that reads a clock
    _TIMER_FNS = {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns", "clock",
    }

    @classmethod
    def applies_to(cls, path: str) -> bool:
        # repro.obs itself is the one place allowed to touch raw clocks
        # and accumulator internals.
        return "repro/" in path and "repro/obs/" not in path

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._tracker().resolve_call(node.func)
        if resolved is not None:
            module, attr = resolved
            if module == "time" and attr in self._TIMER_FNS:
                self.report(
                    node,
                    f"raw time.{attr}() bypasses the observability layer; "
                    "use repro.obs.wall_now()/WallTimer (audited clock shim) "
                    "or a MetricsRegistry histogram",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript) and self._is_stats_dict(
            target.value
        ):
            self.report(
                node,
                "manual stats-dict increment; register a counter on a "
                "repro.obs MetricsRegistry so it reaches trace exports "
                "and `python -m repro.obs report`",
            )
        self.generic_visit(node)

    def _is_stats_dict(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "stats"
        if isinstance(node, ast.Attribute):
            return node.attr == "stats"
        return False

    def _tracker(self) -> _ImportTracker:
        tracker = getattr(self, "_tracker_cache", None)
        if tracker is None:
            tracker = _ImportTracker(self.module.tree)
            self._tracker_cache = tracker
        return tracker


class DecisionProvenanceRule(LintRule):
    """OBS002: prune/outcome bookkeeping belongs to the decision recorder.

    The fluxwhy recorder (:mod:`repro.obs.why`) is the single store for
    match-failure attribution: per-vertex prune tallies, failure reasons,
    and attempt outcomes.  A shadow accumulator like
    ``prune_counts[reason] += 1`` or ``fail_reasons.append(...)`` outside
    ``repro/obs/`` never reaches ``report.explain()`` or
    ``python -m repro.obs why``, and its reason strings drift from the
    audited :data:`repro.obs.why.PRUNE_REASONS` taxonomy — so any mutation
    of a provenance-named accumulator is flagged.  Only compound names
    (a prune/outcome/fail/verdict noun plus a counter-ish suffix) match;
    domain state such as ``prune_types`` membership sets or the circuit
    breaker's ``_outcomes`` window is left alone.
    """

    rule_id = "OBS002"
    summary = "ad-hoc prune/outcome bookkeeping outside repro.obs"

    #: ``prune_counts``, ``outcome_tally``, ``fail_reasons``, ``verdict_log``…
    _BOOKKEEPING = re.compile(
        r"(?:^|_)(?:prune|outcome|verdict|fail(?:ure)?)s?_"
        r"(?:count|reason|stat|tally|log|hist|bucket)s?$"
    )
    #: mutators that grow an accumulator in place
    _MUTATORS = {"append", "add", "setdefault", "update", "extend"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        # the recorder itself is the one place allowed to keep these
        return "repro/" in path and "repro/obs/" not in path

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript) and self._is_bookkeeping(
            target.value
        ):
            self._flag(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._MUTATORS
            and self._is_bookkeeping(func.value)
        ):
            self._flag(node)
        self.generic_visit(node)

    def _is_bookkeeping(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        return self._BOOKKEEPING.search(name.lower()) is not None

    def _flag(self, node: ast.AST) -> None:
        self.report(
            node,
            "prune/outcome bookkeeping outside repro.obs; record it via "
            "the decision recorder (obs.why.prune()/fail()/end_attempt()) "
            "so it reaches report.explain() and `python -m repro.obs why`",
        )


class TypeHintRule(LintRule):
    """API001: public functions in the core layers (planner, match, sched,
    resource, recovery, resilience) are the recovery layer's serialization
    surface — they must carry full type hints so state documents and their
    producers cannot drift apart silently."""

    rule_id = "API001"
    summary = "public core-module function missing type hints"

    _CORE_PACKAGES = (
        "planner", "match", "sched", "resource", "recovery", "resilience",
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return any(
            f"repro/{package}/" in path for package in cls._CORE_PACKAGES
        )

    def __init__(self, module: "SourceModule") -> None:  # noqa: F821
        super().__init__(module)
        self._class_stack: List[str] = []
        self._function_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def _check(self, node: ast.AST) -> None:
        if self._function_depth:
            return  # nested helper functions are private by construction
        name = node.name
        if name.startswith("_") and name != "__init__":
            return
        if any(cls.startswith("_") for cls in self._class_stack):
            return
        in_class = bool(self._class_stack)
        missing: List[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if in_class and positional and not self._is_static(node):
            positional = positional[1:]  # self / cls
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(f"parameter {arg.arg!r}")
        if node.returns is None and name != "__init__":
            missing.append("return type")
        if missing:
            self.report(
                node,
                f"public function {name}() missing type hints: "
                + ", ".join(missing),
            )

    def _is_static(self, node: ast.AST) -> bool:
        return any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod"
            for dec in node.decorator_list
        )


class OverloadSignalSwallowRule(LintRule):
    """OVL001: overload-control signals are scheduling *decisions*, not
    failures.  :class:`~repro.errors.AdmissionRejected` and
    :class:`~repro.errors.SchedulingDeadlineExceeded` (and their
    :class:`~repro.errors.OverloadError` base) are raised by the admission
    controller and work budgets so the overload machinery can route to a
    degraded path or surface backpressure to the submitter.  A handler
    elsewhere that catches one and does not re-raise converts a deliberate
    shed/deadline verdict into a silent no-op — the job vanishes from the
    accounting and the degradation ladder never sees the pressure.  Only
    the overload package itself (``repro/resilience/``), the budget-aware
    traverser, the simulator dispatch loop and the integrity scrubber
    (whose private scrub budget bounds a scan, not a scheduling decision)
    may absorb them."""

    rule_id = "OVL001"
    summary = "handler swallows an overload-control signal"

    _SIGNALS = (
        "OverloadError",
        "AdmissionRejected",
        "SchedulingDeadlineExceeded",
    )
    _ABSORBERS = (
        "repro/resilience/",
        "repro/match/traverser.py",
        "repro/sched/simulator.py",
        # The integrity scrubber runs under its own WorkBudget; an exhausted
        # scrub budget ends the pass early (cursor keeps its place), it is
        # not a scheduling verdict.
        "repro/recovery/integrity.py",
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return not any(part in normalized for part in cls._ABSORBERS)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        for name in self._SIGNALS:
            if _handler_catches(node, name) and not _has_bare_reraise(node):
                self.report(
                    node,
                    f"except {name}: outside the overload machinery must "
                    "re-raise with a bare `raise`; swallowing it here turns "
                    "a deliberate admission/deadline verdict into silent "
                    "job loss",
                )
                break
        self.generic_visit(node)


#: this module's rules, in catalogue order (see :mod:`repro.statcheck.engine`)
RULES = (
    WallClockRule,
    ExceptionSwallowRule,
    FloatTimeEqualityRule,
    MutableDefaultRule,
    JournalBeforeMutateRule,
    JournaledRepairRule,
    ObservabilityFunnelRule,
    DecisionProvenanceRule,
    TypeHintRule,
    OverloadSignalSwallowRule,
)
