"""Per-layer ledger for the traced run.

:class:`Ledger` replaces public methods of each layer's classes with
wrappers that record one span per call — ``(id, name, start, end,
parent id, run id)`` — and keep per-name calls, seconds and self seconds
(a span's duration minus the part its child spans cover).  Spans stay in
memory until :meth:`Ledger.write` dumps them when the run ends.  The
wrappers live here, in the benchmark, so no program file changes; they
are installed only around a traced run's measured phase and removed
after it.
"""

from __future__ import annotations

import gzip
import json
import os
from time import perf_counter
from typing import Dict, List, Tuple

from repro import ClusterSimulator, JobState, Planner, PlannerMulti, Traverser
from repro.recovery import IntegrityMonitor
from repro.recovery.journal import Journal
from repro.resilience import InvariantAuditor
from repro.resilience.overload import OverloadController
from repro.sched.queue import EasyBackfill

#: (owner class, method, span name, count non-None results as ok)
TARGETS = [
    (ClusterSimulator, "step", "sim.step", False),
    (Traverser, "allocate", "match.allocate", True),
    (Traverser, "allocate_orelse_reserve", "match.reserve", True),
    (Traverser, "remove", "match.remove", False),
    (Traverser, "satisfiable", "match.satisfiable", True),
    (Planner, "avail_time_first", "planner.avail_time_first", False),
    (Planner, "avail_during", "planner.avail_during", False),
    (Planner, "add_span", "planner.add_span", False),
    (Planner, "rem_span", "planner.rem_span", False),
    (PlannerMulti, "avail_time_first", "planner_multi.avail_time_first",
     False),
    (PlannerMulti, "add_span", "planner_multi.add_span", False),
    (OverloadController, "admit", "overload.admit", True),
    (OverloadController, "run_cycle", "overload.run_cycle", False),
    (IntegrityMonitor, "scrub_cycle", "integrity.scrub_cycle", False),
    (InvariantAuditor, "check", "audit.check", False),
    (Journal, "append", "journal.append", False),
]
QUEUE_SPAN = "queue.cycle"
SPAN_NAMES = [name for _, _, name, _ in TARGETS] + [QUEUE_SPAN]


class Ledger:
    """Span recorder with per-name calls / seconds / self seconds."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        #: (id, name, start, end, parent id or -1, run id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: name -> [calls, seconds, self seconds, ok results]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES
        }
        self.pending_total = 0
        self.queue_attempts = 0
        self.replans = 0
        self.replan_noops = 0
        #: program counters summed over the traced episodes
        self.counters: Dict[str, int] = dict.fromkeys(
            ("jobs", "spans_setup", "spans_end", "shed", "degraded",
             "scrubbed", "journal_bytes", "trace_events", "trace_bytes"), 0)
        self._stack: List[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> "Ledger":
        """Wrap every target class method."""
        for owner, attr, name, count_ok in TARGETS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, count_ok))
            self._restore.append((owner, attr, original))
        return self

    def watch_queue(self, policy) -> None:
        """Wrap one queue-policy instance's ``cycle`` (until uninstall)."""
        inner = policy.cycle
        timed = self._wrap(inner, QUEUE_SPAN, False)
        easy = isinstance(policy, EasyBackfill)
        verbs = (self.stats["match.allocate"], self.stats["match.reserve"])

        def cycle(pending, traverser, now):
            self.pending_total += len(pending)
            # EASY holds at most the head's reservation; read it from the
            # public Job fields before the cycle re-plans it.
            held = [
                (job, job.allocation.alloc_id, job.start_time)
                for job in pending if job.state is JobState.RESERVED
            ] if easy else ()
            before = verbs[0][0] + verbs[1][0]
            timed(pending, traverser, now)
            self.queue_attempts += verbs[0][0] + verbs[1][0] - before
            for job, alloc_id, start in held:
                alloc = job.allocation
                if alloc is None or alloc.alloc_id != alloc_id:
                    self.replans += 1
                    if job.start_time == start:
                        self.replan_noops += 1

        policy.cycle = cycle
        self._restore.append((policy, "cycle", inner))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, count_ok: bool):
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        run_id = self.run_id
        ledger = self

        def wrapper(*args, **kwargs):
            sid = ledger._next_id
            ledger._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                spans.append((sid, name, start, end, parent, run_id))
            if count_ok and result is not None and result is not False:
                stat[3] += 1
            return result

        return wrapper

    # -- program state read after each traced episode ---------------------
    def add_run(self, run, outcome, setup_spans: int) -> None:
        """Accumulate counters ``run`` exposes publicly, after it ended."""
        c = self.counters
        for key, value in run.traverser.metrics.as_dict().items():
            if isinstance(value, int):
                c[key] = c.get(key, 0) + value
        c["jobs"] += outcome.done
        c["spans_setup"] += setup_spans
        c["spans_end"] += live_spans(run.graph)
        sim = run.sim
        if sim is None:
            return
        if sim.overload is not None:
            c["shed"] += sim.overload.counters["shed"]
            c["degraded"] += sim.overload.counters["degraded_matches"]
        if sim.integrity is not None:
            c["scrubbed"] += sim.integrity.counters["scrubbed_vertices"]
        if run.manager is not None:
            c["journal_bytes"] += os.path.getsize(run.manager.journal_path)
        if sim.obs.enabled:
            c["trace_events"] += len(sim.obs.tracer.events)
            path = os.path.join(run.workdir, "trace.jsonl")
            sim.obs.tracer.write_jsonl(path)
            c["trace_bytes"] += os.path.getsize(path)

    # -- results -----------------------------------------------------------
    def work_units(self) -> Dict[str, int]:
        """Exact call counts per span and traverser counters."""
        units = {f"calls {k}": int(st[0]) for k, st in self.stats.items()}
        for key in sorted(self.counters):
            if key != "trace_bytes":  # holds wall-clock timestamps
                units[f"count {key}"] = self.counters[key]
        return units

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        out: Dict[str, Tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, seconds, self_s, ok = self.stats[name]
            out[f"{name}.calls"] = (int(calls), "count")
            out[f"{name}.s"] = (seconds, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in ("match.allocate", "match.reserve"):
            calls, _, _, ok = self.stats[name]
            out[f"{name}.ok_ratio"] = (_ratio(ok, calls), "ratio")
        cycles = self.stats[QUEUE_SPAN][0]
        out["sim.cycles"] = (int(cycles), "count")
        out["queue.pending_mean"] = (_ratio(self.pending_total, cycles),
                                     "count")
        out["queue.attempts_per_cycle"] = (
            _ratio(self.queue_attempts, cycles), "count")
        out["queue.replans"] = (self.replans, "count")
        out["queue.replan_noop_ratio"] = (
            _ratio(self.replan_noops, self.replans), "ratio")
        c = self.counters
        hits = c.get("sdfu.filter_hits", 0)
        out["dfu.visits"] = (c.get("dfu.visits", 0), "count")
        out["dfu.visits_per_job"] = (_ratio(c.get("dfu.visits", 0),
                                            c["jobs"]), "count")
        out["dfu.reserve_iters"] = (c.get("dfu.reserve_iters", 0), "count")
        out["sdfu.updates"] = (c.get("sdfu.updates", 0), "count")
        out["sdfu.filter_hit_ratio"] = (
            _ratio(hits, hits + c.get("sdfu.filter_misses", 0)), "ratio")
        out["planner.spans_live_setup"] = (c["spans_setup"], "count")
        out["planner.spans_live_end"] = (c["spans_end"], "count")
        out["overload.shed"] = (c["shed"], "count")
        out["overload.degraded_matches"] = (c["degraded"], "count")
        out["integrity.vertices_scrubbed"] = (c["scrubbed"], "count")
        out["integrity.s_per_vertex"] = (
            _ratio(self.stats["integrity.scrub_cycle"][1], c["scrubbed"]),
            "s")
        out["journal.bytes"] = (c["journal_bytes"], "bytes")
        out["obs.trace_events"] = (c["trace_events"], "count")
        out["obs.trace_bytes"] = (c["trace_bytes"], "bytes")
        return out

    def write(self, handle) -> None:
        """Dump every span as one JSON array per line."""
        for span in self.spans:
            handle.write(json.dumps(span))
            handle.write("\n")


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 when nothing was counted (see README.md)."""
    return part / whole if whole else 0.0


def write_spans(path: str, ledgers: List[Ledger]) -> None:
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
        for ledger in ledgers:
            ledger.write(handle)


def live_spans(graph) -> int:
    """Active spans across every planner and pruning filter of ``graph``."""
    total = 0
    for vertex in graph.vertices():
        total += vertex.plans.span_count + vertex.xplans.span_count
        if vertex.prune_filters is not None:
            total += vertex.prune_filters.span_count
    return total
