"""fluxlint core: source model, rule framework, suppression, engine.

A lint run parses each Python file once into a :class:`SourceModule`
(source text + AST + suppression directives), instantiates every selected
:class:`LintRule` against it, and collects :class:`Violation` records.
Rules are :class:`ast.NodeVisitor` subclasses listed in the rule catalogue
(:mod:`repro.statcheck.engine`); each owns one rule id and decides with
:meth:`LintRule.applies_to` which files it inspects.  Whole-program rules
(fluxflow, fluxrace) derive from :class:`ProgramRule` instead.

Suppression directives, checked per emitted violation:

* ``# fluxlint: disable=RULE1,RULE2`` on the violating line;
* ``# fluxlint: disable-next-line=RULE`` on the line above it;
* ``# fluxlint: disable-file=RULE`` anywhere in the file.

``RULE`` may be ``all`` to suppress every rule.  Suppressions are meant to
be rare and justified — pair each with a trailing comment explaining why
the invariant does not apply (see docs/static_analysis.md).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type,
)

from ..errors import FluxionError

if TYPE_CHECKING:
    from .flow.callgraph import CallGraph
    from .flow.program import FlowProgram, ModuleInfo
    from .flow.summaries import SummaryTable
    from .race.model import RaceModel

__all__ = [
    "Violation",
    "LintParseError",
    "SourceModule",
    "LintRule",
    "ProgramContext",
    "ProgramRule",
    "LintEngine",
    "lint_source",
    "lint_paths",
]


class LintParseError(FluxionError):
    """Raised when a file handed to fluxlint is not valid Python."""


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


_DIRECTIVE = re.compile(
    r"#\s*fluxlint:\s*(disable|disable-next-line|disable-file)"
    r"\s*=\s*([A-Za-z0-9_,\s]+)"
)


def _parse_rule_list(raw: str) -> Set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


@dataclass
class SourceModule:
    """A parsed source file plus its suppression directives."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line number -> rule ids suppressed on that line ("ALL" = every rule)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file
    file_suppressions: Set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, source: str, path: str = "<string>") -> "SourceModule":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintParseError(
                f"{path}:{exc.lineno or 0}: cannot parse: {exc.msg}"
            ) from exc
        except ValueError as exc:
            # e.g. "source code string cannot contain null bytes"
            raise LintParseError(f"{path}:0: cannot parse: {exc}") from exc
        module = cls(path=path, source=source, tree=tree,
                     lines=source.splitlines())
        module._collect_directives()
        return module

    def _collect_directives(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            if "fluxlint" not in text:
                continue
            for match in _DIRECTIVE.finditer(text):
                kind, raw = match.group(1), match.group(2)
                rules = _parse_rule_list(raw)
                if kind == "disable-file":
                    self.file_suppressions |= rules
                elif kind == "disable-next-line":
                    bucket = self.line_suppressions.setdefault(lineno + 1, set())
                    bucket |= rules
                else:
                    bucket = self.line_suppressions.setdefault(lineno, set())
                    bucket |= rules

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        if "ALL" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line, ())
        return "ALL" in on_line or rule_id in on_line


class LintRule(ast.NodeVisitor):
    """Base class for fluxlint rules.

    Subclasses set :attr:`rule_id` / :attr:`summary`, optionally override
    :meth:`applies_to`, and call :meth:`report` from their ``visit_*``
    methods.  One instance is created per (rule, file) pair, so instance
    state is per-file scratch space.
    """

    rule_id: str = ""
    summary: str = ""
    engine: str = "lint"

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.violations: List[Violation] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule inspects the file at ``path`` (default: all)."""
        return True

    def run(self) -> List[Violation]:
        """Execute the rule over the module and return its violations."""
        self.visit(self.module.tree)
        return self.violations

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        if not self.module.is_suppressed(self.rule_id, line):
            self.violations.append(
                Violation(self.module.path, line, col, self.rule_id, message)
            )


@dataclass
class ProgramContext:
    """What a whole-program rule sees: the program, its call graph and
    summaries, and the shared-state model when a RACE rule runs."""

    program: "FlowProgram"
    graph: "CallGraph"
    summaries: "SummaryTable"
    model: Optional["RaceModel"] = None


class ProgramRule:
    """Base class for whole-program rules (one instance per run).

    Subclasses set :attr:`rule_id`, :attr:`summary` and :attr:`engine`
    (``"flow"`` or ``"race"``) and implement :meth:`run`.
    """

    rule_id: str = ""
    summary: str = ""
    engine: str = ""

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def run(self, ctx: ProgramContext) -> List[Violation]:
        raise NotImplementedError

    def report(
        self, module: "ModuleInfo", line: int, col: int, message: str
    ) -> None:
        if not module.source_module.is_suppressed(self.rule_id, line):
            self.violations.append(
                Violation(module.path, line, col, self.rule_id, message)
            )


class LintEngine:
    """Runs a selected set of rules over files or source strings.

    Parameters
    ----------
    select:
        Rule ids to run (default: every lint rule in the catalogue).
    ignore:
        Rule ids to exclude after selection.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        from .engine import resolve_rules

        self.rules: List[Type[LintRule]] = resolve_rules(
            select, ignore, ("lint",)
        )

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Violation]:
        """Lint one source string as if it lived at ``path``."""
        module = SourceModule.parse(source, path)
        violations: List[Violation] = []
        for rule_cls in self.rules:
            if rule_cls.applies_to(module.path):
                violations.extend(rule_cls(module).run())
        return sorted(violations)

    def lint_file(self, path: str, cache: Optional["object"] = None) -> List[Violation]:
        with open(path, "rb") as handle:
            raw = handle.read()
        key = None
        if cache is not None:
            key = cache.key(_normalize(path), raw)
            cached = cache.get(key)
            if cached is not None:
                return cached
        try:
            source = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # UnicodeDecodeError is a ValueError, *not* an OSError — without
            # this it escaped the CLI's error handling as a traceback.
            raise LintParseError(
                f"{_normalize(path)}:0: cannot decode as UTF-8: {exc}"
            ) from exc
        violations = self.lint_source(source, _normalize(path))
        if cache is not None and key is not None:
            cache.put(key, violations)
        return violations

    def lint_paths(
        self,
        paths: Sequence[str],
        jobs: int = 1,
        cache: Optional["object"] = None,
    ) -> Tuple[List[Violation], int]:
        """Lint files and directory trees; returns (violations, files seen).

        ``jobs > 1`` fans the file list out over a multiprocessing pool;
        ``cache`` is a :class:`repro.statcheck.cache.LintCache` (results are
        keyed by content hash, so hits skip parsing entirely).
        """
        files = list(_expand(paths))
        violations: List[Violation] = []
        if jobs > 1 and len(files) > 1:
            violations = self._lint_parallel(files, jobs, cache)
        else:
            for path in files:
                violations.extend(self.lint_file(path, cache=cache))
        return sorted(violations), len(files)

    def _lint_parallel(
        self,
        files: Sequence[str],
        jobs: int,
        cache: Optional["object"],
    ) -> List[Violation]:
        import multiprocessing

        rule_ids = [rule_cls.rule_id for rule_cls in self.rules]
        cache_root = getattr(cache, "root", None)
        tasks = [(path, rule_ids, cache_root) for path in files]
        violations: List[Violation] = []
        with multiprocessing.Pool(processes=min(jobs, len(files))) as pool:
            for ok, payload in pool.imap_unordered(_lint_worker, tasks):
                if not ok:
                    pool.terminate()
                    raise LintParseError(payload)
                violations.extend(payload)
        return violations


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/")


def _expand(paths: Sequence[str]) -> Iterable[str]:
    seen: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif path.endswith(".py") or os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
        else:
            raise FluxionError(f"no such file or directory: {path}")


def _lint_worker(task: Tuple[str, List[str], Optional[str]]) -> Tuple[bool, "object"]:
    """Pool worker: lint one file, returning (ok, violations-or-error)."""
    path, rule_ids, cache_root = task
    engine = LintEngine(select=rule_ids)
    cache = None
    if cache_root is not None:
        from .cache import LintCache

        cache = LintCache(root=cache_root, rule_ids=rule_ids)
    try:
        return True, engine.lint_file(path, cache=cache)
    except (LintParseError, OSError, FluxionError) as exc:
        return False, str(exc)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Convenience wrapper: lint one source string with a fresh engine."""
    return LintEngine(select=select, ignore=ignore).lint_source(source, path)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    jobs: int = 1,
    cache: Optional["object"] = None,
) -> Tuple[List[Violation], int]:
    """Convenience wrapper: lint files/trees with a fresh engine."""
    engine = LintEngine(select=select, ignore=ignore)
    return engine.lint_paths(paths, jobs=jobs, cache=cache)
