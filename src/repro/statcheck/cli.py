"""fluxlint / fluxflow / fluxrace / FluxSan command line:
``python -m repro.statcheck``.

Exit codes follow the usual lint convention:

* ``0`` — no violations (or the dual run was deterministic);
* ``1`` — violations found / dual run diverged;
* ``2`` — usage error, unreadable input, or a file that does not parse.

Examples::

    python -m repro.statcheck src/repro              # lint the tree
    python -m repro.statcheck --flow src/repro       # + interprocedural
    python -m repro.statcheck --flow --baseline statcheck-baseline.json src/repro
    python -m repro.statcheck --format sarif --output lint.sarif src/repro
    python -m repro.statcheck --jobs 4 --cache src/  # parallel + cached
    python -m repro.statcheck --changed-only src/    # pre-commit speed
    python -m repro.statcheck --select DET001 src/   # one rule only
    python -m repro.statcheck --list-rules
    python -m repro.statcheck --dual-run tiny        # FluxSan determinism
    python -m repro.statcheck --race src/repro       # concurrency readiness
    python -m repro.statcheck --race --race-report fluxrace-report.txt src/repro
    python -m repro.statcheck --flow --race --format sarif src/repro

``--flow`` and ``--race`` share one whole-program model, built once per
run.  For where the *scheduler's* time goes, use the per-layer ledger:
``python3 schedbench/run.py --workload fill_lod --trace 1``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Callable, List, Optional, Set

from ..errors import FluxionError, SanitizerError
from .core import LintEngine, Violation
from .engine import CATALOGUE, ENGINES, ProgramEngine, resolve_rules
from .reporters import render_json, render_sarif, render_text
from .sanitizer import FluxSan, dual_run

__all__ = ["main", "build_preset_simulator", "DUAL_RUN_PRESETS"]


def build_preset_simulator(preset: str) -> "object":
    """Build a fully loaded simulator for one GRUG preset workload.

    The factory is deterministic by construction (seeded trace, seeded
    preset) — exactly what the dual-run detector requires.
    """
    from ..grug import tiny_cluster
    from ..sched.simulator import ClusterSimulator
    from ..workloads.trace import synthetic_trace

    if preset == "tiny":
        graph = tiny_cluster()
        trace = synthetic_trace(
            n_jobs=24, seed=7, max_nodes=4, min_duration=60,
            max_duration=1800, arrival_spread=600,
        )
    elif preset == "tiny-faulty":
        graph = tiny_cluster()
        trace = synthetic_trace(
            n_jobs=16, seed=11, max_nodes=4, min_duration=60,
            max_duration=900, arrival_spread=400,
        )
    else:
        raise FluxionError(
            f"unknown dual-run preset {preset!r}; "
            f"known: {sorted(DUAL_RUN_PRESETS)}"
        )
    sim = ClusterSimulator(graph, match_policy="first", queue="conservative")
    for job in trace:
        sim.submit(job.to_jobspec(), at=job.submit_time)
    if preset == "tiny-faulty":
        nodes = graph.find(type="node")
        sim.schedule_failure(nodes[0], at=300)
        sim.schedule_repair(nodes[0], at=700)
    return sim


DUAL_RUN_PRESETS = ("tiny", "tiny-faulty")


def _run_dual(preset: str, out: Callable[[str], None]) -> int:
    factory = lambda: build_preset_simulator(preset)  # noqa: E731
    with FluxSan():
        try:
            report = dual_run(factory, raise_on_divergence=False)
        except SanitizerError as exc:
            out(f"fluxsan: {exc}")
            return 1
    out(f"fluxsan [{preset}]: {report.summary()}")
    return 0 if report.ok else 1


def _list_rules(out: Callable[[str], None]) -> int:
    for engine, title in ENGINES.items():
        out(f"{title}:")
        for rule_id, rule_cls in sorted(CATALOGUE.items()):
            if rule_cls.engine == engine:
                out(f"  {rule_id}  {rule_cls.summary}")
        out("")
    out("FluxSan runtime sanitizer (--dual-run PRESET / FLUXSAN=1):")
    out("  span double-free, exclusive-overlap, SDFU divergence, graph")
    out("  status sanity, dual-run nondeterminism (runtime checks; no")
    out("  static rule ids)")
    return 0


def _changed_files() -> Set[str]:
    """Absolute paths of files changed vs ``git merge-base HEAD main``,
    plus untracked files — the ``--changed-only`` working set."""

    def git(*argv: str) -> str:
        proc = subprocess.run(
            ("git",) + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise FluxionError(
                f"git {' '.join(argv)} failed: {proc.stderr.strip() or 'unknown error'}"
            )
        return proc.stdout

    toplevel = git("rev-parse", "--show-toplevel").strip()
    base = git("merge-base", "HEAD", "main").strip()
    changed = git("diff", "--name-only", base).splitlines()
    untracked = git("ls-files", "--others", "--exclude-standard").splitlines()
    return {
        os.path.realpath(os.path.join(toplevel, rel))
        for rel in changed + untracked
        if rel.strip()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck",
        description="fluxlint static analysis + fluxflow interprocedural "
        "analysis + fluxrace concurrency readiness + FluxSan runtime checks",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="violation report format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the interprocedural fluxflow analyses "
        "(SPAN001, DET002, EXC002, JRN002)",
    )
    parser.add_argument(
        "--race", action="store_true",
        help="also run the concurrency-readiness fluxrace rules "
        "(RACE001-RACE004) against the service-entrypoint manifest",
    )
    parser.add_argument(
        "--entrypoints", default=None, metavar="FILE",
        help="service-entrypoint manifest for --race "
        "(default: statcheck-entrypoints.json)",
    )
    parser.add_argument(
        "--race-report", default=None, metavar="FILE",
        help="with --race, also write the per-module shared-state "
        "footprint table to FILE",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings recorded in this baseline file; only new "
        "findings fail the run",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file with the current findings and exit 0",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files with N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="cache per-file lint results keyed by content hash",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: .statcheck-cache; implies --cache)",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="only report on files changed since `git merge-base HEAD main` "
        "(plus untracked files)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--dual-run", default=None, metavar="PRESET",
        help="run the FluxSan dual-run nondeterminism check on a preset "
        f"workload ({', '.join(DUAL_RUN_PRESETS)}) and exit",
    )
    args = parser.parse_args(argv)

    def out(line: str) -> None:
        print(line)

    if args.list_rules:
        return _list_rules(out)
    if args.dual_run is not None:
        try:
            return _run_dual(args.dual_run, out)
        except FluxionError as exc:
            print(f"fluxsan: error: {exc}", file=sys.stderr)
            return 2
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "python -m repro.statcheck: error: no paths given "
            "(try 'src/repro')",
            file=sys.stderr,
        )
        return 2

    try:
        return _run_lint(args, out)
    except (OSError, FluxionError) as exc:  # includes LintParseError
        print(f"fluxlint: error: {exc}", file=sys.stderr)
        return 2


def _rule_ids(raw: Optional[str]) -> Optional[List[str]]:
    """A comma-separated ``--select``/``--ignore`` value as a list."""
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _run_lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    from .core import _expand

    engines = ["lint"]
    engines += [name for name in ("flow", "race") if getattr(args, name)]
    chosen = resolve_rules(
        _rule_ids(args.select), _rule_ids(args.ignore), engines
    )
    engine = LintEngine(
        select=[rule.rule_id for rule in chosen if rule.engine == "lint"]
    )

    cache = None
    if args.cache or args.cache_dir is not None:
        from .cache import DEFAULT_CACHE_DIR, LintCache

        cache = LintCache(
            root=args.cache_dir or DEFAULT_CACHE_DIR,
            rule_ids=[rule_cls.rule_id for rule_cls in engine.rules],
        )

    changed: Optional[Set[str]] = None
    if args.changed_only:
        try:
            changed = _changed_files()
        except FluxionError as exc:
            # Outside a git checkout, or detached HEAD with no main
            # merge-base: fall back to a full scan rather than crash.
            print(
                f"fluxlint: warning: --changed-only unavailable ({exc}); "
                "falling back to a full scan",
                file=sys.stderr,
            )
            changed = None

    lint_targets: List[str] = list(args.paths)
    if changed is not None:
        lint_targets = [
            path
            for path in _expand(args.paths)
            if os.path.realpath(path) in changed
        ]

    violations: List[Violation] = []
    files_checked = 0
    if lint_targets:
        violations, files_checked = engine.lint_paths(
            lint_targets, jobs=max(args.jobs, 1), cache=cache
        )

    if args.flow or args.race:
        from .race import DEFAULT_ENTRYPOINTS, render_race_report

        program_engine = ProgramEngine(
            select=[rule.rule_id for rule in chosen if rule.engine != "lint"],
            engines=engines[1:],
        )
        # The whole program is always built from the full path set —
        # interprocedural facts need every module — but with --changed-only
        # findings are reported only for the changed files.
        program_violations, ctx = program_engine.analyze_paths(
            args.paths, args.entrypoints or DEFAULT_ENTRYPOINTS
        )
        if changed is not None:
            program_violations = [
                v
                for v in program_violations
                if os.path.realpath(v.path) in changed
            ]
        violations = sorted(set(violations) | set(program_violations))
        if args.race_report is not None and ctx.model is not None:
            with open(args.race_report, "w", encoding="utf-8") as handle:
                handle.write(render_race_report(ctx.model))
                handle.write("\n")

    if args.update_baseline:
        from .flow.baseline import save_baseline

        target = args.baseline or "statcheck-baseline.json"
        save_baseline(target, violations)
        out(
            f"fluxlint: baseline {target} updated with "
            f"{len(violations)} finding(s)"
        )
        return 0

    if args.baseline is not None:
        from .flow.baseline import apply_baseline, load_baseline

        baseline = load_baseline(args.baseline)
        violations, stale = apply_baseline(violations, baseline)
        if stale:
            print(
                f"fluxlint: warning: {stale} stale baseline entr"
                f"{'y' if stale == 1 else 'ies'} in {args.baseline} no "
                "longer match any finding; regenerate with --update-baseline",
                file=sys.stderr,
            )

    if args.format == "json":
        report = render_json(violations, files_checked)
    elif args.format == "sarif":
        report = render_sarif(violations, files_checked)
    else:
        report = render_text(violations, files_checked)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
            handle.write("\n")
    else:
        out(report)
    return 1 if violations else 0
