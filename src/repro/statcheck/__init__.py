"""statcheck: project-specific static analysis (fluxlint) + runtime sanitizer (FluxSan).

PRs 1-2 made the scheduler crash-consistent; correctness of recovery replay
rests on three whole-codebase invariants:

* **determinism** — no wall-clock reads or unseeded randomness on any code
  path that feeds scheduler state (replay re-executes journaled commands and
  must reproduce identical decisions);
* **journaling** — every state mutation in a simulator command handler is
  appended to the write-ahead journal *before* it is applied;
* **span safety** — planner spans are freed exactly once, exclusive holds
  never overlap, and the pruning filters (SDFU) never diverge from the
  allocations that fed them.

Example-based tests cannot enforce these across ~50 modules, so this package
checks them mechanically:

* :mod:`repro.statcheck.core` / :mod:`repro.statcheck.rules` — **fluxlint**,
  an AST lint engine with project-specific rules (DET001, EXC001, FLT001,
  MUT001, JRN001, API001, ...), per-line suppression via
  ``# fluxlint: disable=RULE`` and text/JSON/SARIF reporters.  Run it with
  ``python -m repro.statcheck src/repro``.
* :mod:`repro.statcheck.engine` — the one rule catalogue (lint, flow and
  race rules) and the whole-program engine that runs the interprocedural
  **fluxflow** (``--flow``) and concurrency-readiness **fluxrace**
  (``--race``) rules over one shared program model.
* :mod:`repro.statcheck.sanitizer` — **FluxSan**, an opt-in runtime
  sanitizer (``FLUXSAN=1`` or ``ClusterSimulator(..., sanitize=True)``)
  that wraps the Planner/PlannerMulti/graph/traverser hot paths with
  checking proxies: span double-free, overlapping exclusive holds, SDFU
  divergence from ground truth, and a dual-run nondeterminism detector.

See ``docs/static_analysis.md`` for the rule catalogue and suppression
policy.
"""

from __future__ import annotations

from .cache import LintCache
from .core import (
    LintEngine,
    LintParseError,
    LintRule,
    ProgramRule,
    SourceModule,
    Violation,
    lint_paths,
    lint_source,
)
from .engine import CATALOGUE, ProgramEngine, analyze_sources, resolve_rules
from .race import render_race_report
from .reporters import render_json, render_sarif, render_text
from .sanitizer import DualRunReport, FluxSan, dual_run

__all__ = [
    "LintEngine",
    "LintParseError",
    "LintRule",
    "ProgramRule",
    "SourceModule",
    "Violation",
    "lint_paths",
    "lint_source",
    "CATALOGUE",
    "ProgramEngine",
    "analyze_sources",
    "resolve_rules",
    "render_text",
    "render_json",
    "render_sarif",
    "LintCache",
    "render_race_report",
    "FluxSan",
    "DualRunReport",
    "dual_run",
]
