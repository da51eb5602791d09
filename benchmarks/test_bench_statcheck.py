"""Benchmarks for the fluxlint pipeline: cold lint, cached lint, parallel
fan-out, and the whole-program engine's flow and race sweeps.

These track the costs a developer pays on every pre-commit run and the cost
CI pays per push; the cached/cold ratio is the headline number for the
content-hash cache (ISSUE 4 satellite 1).
"""

import os
import shutil

from repro.statcheck import LintCache, ProgramEngine, lint_paths

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def test_bench_lint_cold(benchmark):
    violations, files = benchmark(lint_paths, [SRC_REPRO])
    assert files > 60
    assert violations == []


def test_bench_lint_cached(benchmark, tmp_path):
    cache = LintCache(root=str(tmp_path / "cache"))
    lint_paths([SRC_REPRO], cache=cache)  # warm the cache once

    violations, files = benchmark(lint_paths, [SRC_REPRO], cache=cache)
    assert files > 60
    assert violations == []
    assert cache.hits > 0


def test_bench_lint_parallel(benchmark):
    def run():
        return lint_paths([SRC_REPRO], jobs=4)

    violations, files = benchmark.pedantic(run, rounds=3, iterations=1)
    assert files > 60
    assert violations == []


def test_bench_flow_sweep(benchmark):
    """The full interprocedural sweep: parse, call graph, summaries, four
    analyses.  Acceptance bound is 30s; typical is ~2s."""

    def sweep():
        return ProgramEngine(engines=("flow",)).analyze_paths([SRC_REPRO])

    violations, ctx = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(ctx.program.modules) > 60
    assert violations == []


def test_bench_race_sweep(benchmark):
    """The fluxrace pass CI pays per push: parse, call graph, escape
    summaries, shared-state model, four RACE rules over the whole tree
    against the checked-in entrypoint manifest.  Same 30s acceptance
    bound as the flow sweep; typical is a few seconds."""
    from repro.statcheck.race import DEFAULT_ENTRYPOINTS

    manifest_path = os.path.join(REPO, DEFAULT_ENTRYPOINTS)

    def sweep():
        engine = ProgramEngine(engines=("race",))
        return engine.analyze_paths([SRC_REPRO], manifest_path)

    violations, ctx = benchmark.pedantic(sweep, rounds=2, iterations=1)
    model = ctx.model
    assert model.entrypoints and not model.missing_entrypoints
    assert all(v.rule.startswith("RACE") for v in violations)


def test_bench_cache_cold_vs_warm_ratio(tmp_path):
    """Not a timed benchmark: assert the cache actually short-circuits."""
    root = str(tmp_path / "cache")
    cache = LintCache(root=root)
    lint_paths([SRC_REPRO], cache=cache)
    first_misses = cache.misses

    cache2 = LintCache(root=root)
    lint_paths([SRC_REPRO], cache=cache2)
    assert cache2.hits == first_misses
    assert cache2.misses == 0
    shutil.rmtree(root, ignore_errors=True)
