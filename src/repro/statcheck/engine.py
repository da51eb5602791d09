"""The statcheck rule catalogue and the whole-program engine.

Every rule module lists its classes in a module-level ``RULES`` tuple, and
every class names the engine that runs it:

* ``lint`` — per-file AST rules (:class:`~repro.statcheck.core.LintRule`),
  run by :class:`~repro.statcheck.core.LintEngine`;
* ``flow`` / ``race`` — whole-program rules
  (:class:`~repro.statcheck.core.ProgramRule`), run by
  :class:`ProgramEngine` over one :class:`FlowProgram`.

:data:`CATALOGUE` joins those tuples once, at import.  :func:`resolve_rules`
is the one ``--select``/``--ignore`` resolution every engine, the CLI, the
reporters and the lint cache share.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type,
)

from ..errors import FluxionError
from . import rules
from .core import ProgramContext, Violation
from .flow import analyses
from .flow.callgraph import build_call_graph
from .flow.program import FlowProgram
from .flow.summaries import compute_summaries
from .race import rules as race_rules
from .race.model import DEFAULT_ENTRYPOINTS, RaceModel, load_entrypoints

__all__ = [
    "ENGINES",
    "CATALOGUE",
    "build_catalogue",
    "resolve_rules",
    "ProgramEngine",
    "analyze_sources",
]

#: engine name -> its ``--list-rules`` heading (which names the flag)
ENGINES = {
    "lint": "fluxlint AST rules (always on)",
    "flow": "fluxflow interprocedural analyses (--flow)",
    "race": "fluxrace concurrency-readiness rules (--race)",
}


def build_catalogue(rule_classes: Iterable[type]) -> Dict[str, type]:
    """Rule id -> class; an empty, duplicate or engine-less id raises."""
    catalogue: Dict[str, type] = {}
    for cls in rule_classes:
        if not cls.rule_id:
            raise ValueError(f"{cls.__name__} has no rule_id")
        if cls.engine not in ENGINES:
            raise ValueError(
                f"{cls.rule_id} names unknown engine {cls.engine!r}"
            )
        if cls.rule_id in catalogue:
            raise ValueError(
                f"duplicate rule id {cls.rule_id} "
                f"({catalogue[cls.rule_id].engine} and {cls.engine})"
            )
        catalogue[cls.rule_id] = cls
    return catalogue


#: every statcheck rule, keyed by rule id
CATALOGUE = build_catalogue(rules.RULES + analyses.RULES + race_rules.RULES)


def resolve_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    engines: Iterable[str] = tuple(ENGINES),
) -> List[Type]:
    """The catalogue classes of ``engines`` chosen by select/ignore, by id.

    ``select=None`` chooses every rule of those engines.  An id not in the
    catalogue raises; so does *selecting* a rule whose engine is not among
    ``engines`` (ignoring one is a no-op).
    """
    chosen = None if select is None else {r.upper() for r in select}
    dropped = {r.upper() for r in ignore or ()}
    unknown = ((chosen or set()) | dropped) - set(CATALOGUE)
    if unknown:
        raise FluxionError(
            f"unknown rule ids: {sorted(unknown)}; known: {sorted(CATALOGUE)}"
        )
    engines = set(engines)
    for rule_id in sorted(chosen or ()):
        engine = CATALOGUE[rule_id].engine
        if engine not in engines:
            raise FluxionError(
                f"rule id {rule_id} is one of the {ENGINES[engine]}, "
                "which this run does not include"
            )
    return [
        cls
        for rule_id, cls in sorted(CATALOGUE.items())
        if cls.engine in engines
        and (chosen is None or rule_id in chosen)
        and rule_id not in dropped
    ]


class ProgramEngine:
    """Runs the selected flow and race rules over one whole program.

    The program, call graph and summaries are built once per run and
    shared by every rule; the :class:`RaceModel` is built only when a RACE
    rule runs.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        engines: Sequence[str] = ("flow", "race"),
    ) -> None:
        self.rules = resolve_rules(select, ignore, engines)
        self.runs_race = any(rule.engine == "race" for rule in self.rules)

    def analyze_program(
        self, program: FlowProgram, manifest: Optional[dict] = None
    ) -> Tuple[List[Violation], ProgramContext]:
        """Run the rules; ``manifest`` is the entrypoint manifest the RACE
        rules need.  Returns the sorted findings and the shared context."""
        graph = build_call_graph(program)
        ctx = ProgramContext(program, graph, compute_summaries(program, graph))
        if self.runs_race:
            ctx.model = RaceModel.build(program, graph, manifest or {})
        violations: List[Violation] = []
        for rule_cls in self.rules:
            violations.extend(rule_cls().run(ctx))
        return sorted(set(violations)), ctx

    def analyze_paths(
        self, paths: Sequence[str], entrypoints: str = DEFAULT_ENTRYPOINTS
    ) -> Tuple[List[Violation], ProgramContext]:
        """Parse ``paths`` into one program and run the rules over it; the
        entrypoint manifest is read only when a RACE rule runs."""
        manifest = load_entrypoints(entrypoints) if self.runs_race else None
        return self.analyze_program(FlowProgram.from_paths(paths), manifest)


def analyze_sources(
    sources: Mapping[str, str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the flow analyses over in-memory sources (path -> text)."""
    engine = ProgramEngine(select=select, ignore=ignore, engines=("flow",))
    return engine.analyze_program(FlowProgram.from_sources(sources))[0]
