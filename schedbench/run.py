"""Scheduler benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout::

    python3 schedbench/run.py --workload easy_burst --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's episodes (workloads.py) for about
``--seconds`` seconds with no tracing and prints every end-to-end metric,
its times scaled by the machine-speed calibration (calibrate.py).
``--trace 1`` runs the episodes the schedule digest covers once untraced
and twice under the per-layer ledger (ledger.py), checks that the two
traced passes did identical work, and prints every per-layer metric.
``--spread N`` runs ``--trace 0`` in N fresh processes on seeds
``--seed .. --seed+N-1`` and prints median and quartiles per end-to-end
metric.

Every episode passes the correctness gate in workloads.py before anything
is reported; a failed gate exits 1 with no result line.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``name -> {"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from calibrate import NOMINAL_S, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: recorded seeds, digests and counts (see README.md)
EXPECTED = os.path.join(HERE, "expected.json")
#: traced runs write their spans here
SPAN_DIR = os.path.join(ROOT, ".schedbench-out")
#: fewest set-ups whose median becomes setup_s
MIN_SETUPS = 5

Metrics = Dict[str, Tuple[float, str]]


def _load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def _import_program():
    """Import the benchmark's modules (they import the scheduler from
    ``src/``); exit 2 with a message when the program is not there."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import ledger
        import repro
        import workloads
    except ImportError as exc:
        print(f"schedbench: cannot import the scheduler: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"schedbench: imported the scheduler from {repro.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        raise SystemExit(2)
    return workloads, ledger


def _percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Digest:
    """Schedule digest of a run's first episodes, checked against the
    value recorded for the seed (when there is one)."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.workloads = workloads
        self.episodes = workloads.WORKLOADS[name][1]
        recorded = _load_expected()["digests"][name]
        self.recorded = recorded.get(str(seed), recorded.get("any"))
        self.seed = seed
        self._hash = hashlib.sha256()
        self._seen = 0
        self.value: Optional[str] = None

    def add(self, outcome) -> None:
        if self._seen == self.episodes:
            return
        self._hash.update(outcome.digest.encode())
        self._seen += 1
        if self._seen < self.episodes:
            return
        self.value = self._hash.hexdigest()
        if self.recorded is not None and self.value != self.recorded:
            raise self.workloads.CheckFailed(
                f"schedule digest {self.value} for seed {self.seed} does "
                f"not match the recorded {self.recorded}"
            )


def _episode(workloads, name: str, seed: int, episode: int):
    """Set up one episode; returns (run, set-up seconds)."""
    build = workloads.WORKLOADS[name][0]
    gc.collect()
    t0 = perf_counter()
    run = build(workloads.episode_seed(seed, episode))
    return run, perf_counter() - t0


# ----------------------------------------------------------------------
# end-to-end mode
# ----------------------------------------------------------------------
def measure(workloads, name: str, seed: int,
            seconds: float) -> Tuple[dict, List[str]]:
    """Run episodes for about ``seconds`` (at least the digest's ones).

    Times are scaled by the machine-speed calibration (calibrate.py)."""
    digest = _Digest(workloads, name, seed)
    calibration = Calibration()
    setups: List[float] = []
    decisions: List[float] = []
    outcomes = []
    wall = raw_wall = 0.0
    start = perf_counter()
    while True:
        run, setup_s = _episode(workloads, name, seed, len(outcomes))
        setups.append(setup_s * calibration.factor())
        try:
            gc.collect()
            decisions.extend(run.measure(calibration))
            outcome = run.check()
        finally:
            run.close()
        digest.add(outcome)
        outcomes.append(outcome)
        wall += run.wall
        raw_wall += run.raw_wall
        elapsed = perf_counter() - start
        if (len(outcomes) >= digest.episodes
                and elapsed * (1 + 1 / len(outcomes)) > seconds):
            break
    while len(setups) < MIN_SETUPS:
        run, setup_s = _episode(workloads, name, seed, 0)
        setups.append(setup_s * calibration.factor())
        run.close()
    attempted = sum(o.submitted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    done = sum(o.done for o in outcomes)
    metrics: Metrics = {
        "jobs_per_s": (done / wall, "1/s"),
        "decision_p50_ms": (statistics.median(decisions) * 1e3, "ms"),
        "decision_p95_ms": (_percentile(decisions, 95) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    reference = statistics.median(calibration.samples)
    lines = [
        f"workload {name} seed {seed}: {len(outcomes)} episodes, "
        f"{len(decisions)} decisions, {raw_wall:.3f} s measured",
        f"  schedule digest {digest.value} "
        f"(first {digest.episodes} episodes)",
        f"  failed_ratio {failed / attempted:.6f} "
        f"({failed} of {attempted} submitted jobs never ran)",
    ]
    sims = [o for o in outcomes[:digest.episodes] if o.utilization is not None]
    if sims:
        lines.append("  sim_utilization "
                     f"{statistics.mean(o.utilization for o in sims):.6f}")
        lines.append("  sim_mean_wait_s "
                     f"{statistics.mean(o.mean_wait for o in sims):.3f} s")
    lines.append(
        f"  calibration: reference median {reference * 1e3:.3f} ms over "
        f"{len(calibration.samples)} samples (nominal {NOMINAL_S * 1e3:g} "
        f"ms); unscaled jobs_per_s {done / raw_wall:.6g}"
    )
    lines += [f"  {key} {value:.6g} {unit}"
              for key, (value, unit) in metrics.items()]
    return _result(metrics, attempted, failed), lines


def _result(metrics: Metrics, attempted: int, failed: int) -> dict:
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------
def _pass(workloads, ledger_mod, name: str, seed: int, run_id: int):
    """Run the digest's episodes once, traced when ``run_id`` >= 0.

    The ledger's wrappers are installed around each measured phase only.
    Returns (measured wall seconds, ledger or None, outcomes)."""
    digest = _Digest(workloads, name, seed)
    ledger = ledger_mod.Ledger(run_id) if run_id >= 0 else None
    wall = 0.0
    outcomes = []
    for episode in range(digest.episodes):
        run, _ = _episode(workloads, name, seed, episode)
        try:
            setup_spans = ledger_mod.live_spans(run.graph)
            if ledger is None:
                run.measure()
            else:
                ledger.install()
                try:
                    if run.sim is not None:
                        ledger.watch_queue(run.sim.queue_policy)
                    run.measure()
                finally:
                    ledger.uninstall()
            outcome = run.check()
            if ledger is not None:
                ledger.add_run(run, outcome, setup_spans)
        finally:
            run.close()
        digest.add(outcome)
        outcomes.append(outcome)
        wall += run.wall
    return wall, ledger, outcomes


def traced(workloads, ledger_mod, name: str,
           seed: int) -> Tuple[dict, List[str]]:
    """One untraced and two traced passes; per-layer metrics of the last."""
    untraced_wall, _, _ = _pass(workloads, ledger_mod, name, seed, -1)
    walls: List[float] = []
    ledgers = []
    for run_id in range(2):
        wall, ledger, outcomes = _pass(workloads, ledger_mod, name, seed,
                                       run_id)
        walls.append(wall)
        ledgers.append(ledger)
    units = [ledger.work_units() for ledger in ledgers]
    if units[0] != units[1]:
        diff = sorted(k for k in units[0] if units[0][k] != units[1].get(k))
        raise workloads.CheckFailed(
            f"work units differ between two traced runs of seed {seed}: {diff}"
        )
    metrics = ledgers[-1].layer_metrics()
    metrics["trace.overhead_ratio"] = (
        statistics.mean(walls) / untraced_wall, "ratio")
    os.makedirs(SPAN_DIR, exist_ok=True)
    span_path = os.path.join(SPAN_DIR, f"{name}-seed{seed}.spans.jsonl.gz")
    ledger_mod.write_spans(span_path, ledgers)
    lines = [
        f"workload {name} seed {seed}: {len(outcomes)} episodes traced "
        f"twice, {sum(len(l.spans) for l in ledgers)} spans -> "
        f"{os.path.relpath(span_path, ROOT)}",
        "  work units (identical across both traced runs):",
    ]
    lines += [f"    {key} {value}" for key, value in units[0].items()]
    lines.append("  per-layer metrics:")
    lines += [f"    {key} {value:.6g} {unit}"
              for key, (value, unit) in metrics.items()]
    return _result(
        metrics,
        sum(o.submitted for o in outcomes),
        sum(o.failed for o in outcomes),
    ), lines


# ----------------------------------------------------------------------
# spread mode
# ----------------------------------------------------------------------
def spread(name: str, seed: int, seconds: float, count: int) -> List[str]:
    values: Dict[str, List[float]] = {}
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed + i), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, entry in result["metrics"].items():
            values.setdefault(key, []).append(entry["value"])
    lines = [f"spread of {name} over seeds {seed}..{seed + count - 1}:",
             f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
             f"{'iqr/median':>10}"]
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        lines.append(
            f"  {key:<18} {q1:12.5f} {med:12.5f} {q3:12.5f} "
            f"{(q3 - q1) / med if med else 0.0:10.4f}"
        )
    return lines


def _check_names(result: dict, trace: bool) -> None:
    """The printed metric names must be exactly BENCHMARK.json's list."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    have = list(result["metrics"])
    if sorted(want) != sorted(have):
        raise SystemExit(
            f"schedbench: metrics {sorted(set(have) ^ set(want))} differ "
            f"from BENCHMARK.json"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if not os.path.isfile(EXPECTED):
        print(f"schedbench: missing {EXPECTED}", file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        seed = _load_expected()["default_seed"]
    if seed < 0:
        print(f"schedbench: --seed must be >= 0, got {seed}", file=sys.stderr)
        return 2
    if args.spread:
        print("\n".join(spread(args.workload, seed, args.seconds,
                               args.spread)))
        return 0
    workloads, ledger_mod = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"schedbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        try:
            if args.trace:
                result, lines = traced(workloads, ledger_mod, args.workload,
                                       seed)
            else:
                result, lines = measure(workloads, args.workload, seed,
                                        args.seconds)
        finally:
            shutil.rmtree(workloads.TMP_DIR, ignore_errors=True)
    except workloads.CheckFailed as exc:
        print(f"schedbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    _check_names(result, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
