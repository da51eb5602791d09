"""The benchmark's four workloads and the correctness gate each one passes.

Every workload in :data:`WORKLOADS` builds one episode, a :class:`Run`,
from a seed (the set-up); :meth:`Run.measure` drives it to the end.  A
simulator episode is driven one ``ClusterSimulator.step()`` at a time;
``run()`` is only a loop over ``step()``, so timing each step separately
loses nothing.  A *decision* is a step during which the queue policy's
``cycle`` ran; ``fill_lod`` has no simulator and its decision is one
``Traverser.allocate`` call.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import tempfile
from time import perf_counter as _clock
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from calibrate import Chunks
from repro import ClusterSimulator, Job, JobState, Traverser, tiny_cluster
from repro.grug import build_lod, quartz
from repro.jobspec import simple_node_jobspec
from repro.recovery import IntegrityConfig, RecoveryManager
from repro.resilience import InvariantAuditor, OverloadConfig
from repro.sched.queue import (
    ConservativeBackfill,
    EasyBackfill,
    QueuePolicy,
)
from repro.workloads import TraceJob, synthetic_trace

#: Temporary space for journals and trace exports, inside the checkout.
TMP_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".schedbench-tmp",
)


class CheckFailed(Exception):
    """The run produced a wrong or incomplete schedule."""


class Outcome(NamedTuple):
    """What one finished episode produced, for the gate and the report."""

    digest: str
    #: jobs the benchmark submitted (fill: the recorded fill count)
    submitted: int
    #: jobs brought to a terminal state (fill: jobs placed)
    done: int
    #: submitted jobs that ended without running
    failed: int
    utilization: Optional[float] = None
    mean_wait: Optional[float] = None


class _CycleFlag:
    """Wraps a queue policy's ``cycle`` so the measuring loop sees which steps
    made a decision."""

    __slots__ = ("ran", "_inner")

    def __init__(self, policy: QueuePolicy) -> None:
        self.ran = False
        self._inner = policy.cycle
        policy.cycle = self

    def __call__(self, pending, traverser, now) -> None:
        self.ran = True
        self._inner(pending, traverser, now)


class Run:
    """One set-up workload: measure it once, then check it."""

    #: the simulator, or None for the fill
    sim: Optional[ClusterSimulator] = None
    traverser: Traverser
    graph: object
    #: wall seconds of the measured phase, and the same scaled by the
    #: calibration (see calibrate.py; equal when measured without one)
    raw_wall = 0.0
    wall = 0.0
    #: the attached journal's manager and its directory, if any
    manager: Optional[RecoveryManager] = None
    workdir: Optional[str] = None

    def measure(self, calibration=None) -> List[float]:
        """Drive the workload to the end; return per-decision seconds,
        scaled by ``calibration`` (a :class:`calibrate.Calibration`) when
        one is given."""
        raise NotImplementedError

    def check(self) -> Outcome:
        """Gate the finished run (outside the timed phase)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release files the run holds."""


class FillRun(Run):
    """Allocate one jobspec at t=0 until the graph is full."""

    def __init__(self, graph, traverser: Traverser, jobspec, expected: int):
        self.graph = graph
        self.traverser = traverser
        self.jobspec = jobspec
        self.expected = expected
        self.allocs: List[object] = []

    def measure(self, calibration=None) -> List[float]:
        clock = _clock
        allocate = self.traverser.allocate
        jobspec = self.jobspec
        chunks = Chunks(calibration)
        while True:
            t0 = clock()
            alloc = allocate(jobspec, at=0)
            chunks.record(clock() - t0)
            if alloc is None:
                break
            self.allocs.append(alloc)
        chunks.finish()
        self.raw_wall, self.wall = chunks.raw_wall, chunks.wall
        return chunks.times

    def check(self) -> Outcome:
        placed = len(self.allocs)
        if placed != self.expected:
            raise CheckFailed(
                f"fill placed {placed} jobs, recorded count is {self.expected}"
            )
        # The auditor reads jobs, traverser, graph and clock; give it the
        # fill's placements as running jobs so it checks ownership, span
        # accounting and exclusivity of every booking.
        jobs = {
            i: Job(
                job_id=i, jobspec=self.jobspec, state=JobState.RUNNING,
                allocations=[alloc],
            )
            for i, alloc in enumerate(self.allocs, 1)
        }
        view = SimpleNamespace(
            jobs=jobs, traverser=self.traverser, graph=self.graph, now=0
        )
        _audit(view)
        rows = (
            (i, "placed", a.at, a.end,
             sorted(s.vertex.uniq_id for s in a.selections))
            for i, a in enumerate(self.allocs, 1)
        )
        return Outcome(_digest(rows), self.expected, placed, 0)


class SimRun(Run):
    """A ClusterSimulator with its submissions queued, driven by step()."""

    def __init__(
        self,
        sim: ClusterSimulator,
        flag: _CycleFlag,
        submitted: int,
        workdir: Optional[str] = None,
        manager: Optional[RecoveryManager] = None,
    ) -> None:
        self.sim = sim
        self.graph = sim.graph
        self.traverser = sim.traverser
        self.flag = flag
        self.submitted = submitted
        self.workdir = workdir
        self.manager = manager

    def measure(self, calibration=None) -> List[float]:
        clock = _clock
        step = self.sim.step
        flag = self.flag
        chunks = Chunks(calibration)
        while True:
            flag.ran = False
            t0 = clock()
            when = step()
            t1 = clock()
            if when is None:
                break
            chunks.record(t1 - t0 if flag.ran else None)
        chunks.finish()
        self.raw_wall, self.wall = chunks.raw_wall, chunks.wall
        return chunks.times

    def check(self) -> Outcome:
        sim = self.sim
        jobs = sorted(sim.jobs.values(), key=lambda j: j.job_id)
        by_reason: Dict[str, int] = {}
        for job in jobs:
            if job.state is JobState.COMPLETED:
                key = "completed"
            elif job.state is JobState.CANCELED:
                key = job.cancel_reason.value
            else:
                raise CheckFailed(
                    f"job {job.job_id} ended the run {job.state.value}"
                )
            by_reason[key] = by_reason.get(key, 0) + 1
        if sum(by_reason.values()) != self.submitted:
            raise CheckFailed(
                f"per-reason counts {by_reason} do not sum to "
                f"{self.submitted} submitted"
            )
        _audit(sim)
        _check_node_timelines(jobs)
        report = sim.report()
        rows = (
            (j.job_id, j.state.value, j.start_time, j.finished_at)
            for j in jobs
        )
        return Outcome(
            _digest(rows), self.submitted, len(jobs),
            len(jobs) - by_reason.get("completed", 0),
            report.utilization(), report.mean_wait(),
        )

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _digest(rows) -> str:
    """sha256 over the schedule rows, one ``repr`` per line."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _audit(sim) -> None:
    violations = InvariantAuditor().collect(sim)
    if violations:
        raise CheckFailed(
            f"{len(violations)} invariant violations, first: {violations[0]}"
        )


def _check_node_timelines(jobs: List[Job]) -> None:
    """Independent schedule check: every completed job ran exactly its
    work after its submission, and no node ran two jobs at once."""
    busy: Dict[int, list] = {}
    for job in jobs:
        if job.state is not JobState.COMPLETED:
            continue
        start, end = job.start_time, job.finished_at
        if start < job.submit_time or end - start != job.work_required:
            raise CheckFailed(
                f"job {job.job_id} ran [{start},{end}) after submit "
                f"{job.submit_time} for work {job.work_required}"
            )
        for alloc in job.allocations:
            for sel in alloc.selections:
                if sel.vertex.type == "node":
                    busy.setdefault(sel.vertex.uniq_id, []).append(
                        (start, end, job.job_id)
                    )
    for uid, spans in busy.items():
        spans.sort()
        for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
            if start < end:
                raise CheckFailed(
                    f"node {uid} ran jobs {a} and {b} at once"
                )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
# A simulator workload is many small independent episodes, each a fresh
# simulator fed from its own seed: a single large instance's cost swings
# 30-50% from seed to seed (queue order decides how much backfill work
# the burst causes), and only averaging many episodes per run keeps the
# figures steady.  Priority favours small jobs, as many sites do; it
# fixes the queue order's shape, which cuts per-episode spread further.

#: jobs the Fig 6a fill places: 504 nodes x 4 (cores bind: 40 per node)
FILL_JOBS = 2016


def fill_lod(seed: int) -> Run:
    # The Fig 6a fill has one input; the seed does not change it.
    graph = build_lod("med", racks=28, nodes_per_rack=18, prune_types=("core",))
    traverser = Traverser(graph, policy="first", prune=True)
    jobspec = simple_node_jobspec(cores=10, memory=8, ssds=1, duration=10_000)
    return FillRun(graph, traverser, jobspec, FILL_JOBS)


@functools.lru_cache(maxsize=None)
def _quantiles(max_nodes: int, min_duration: int, max_duration: int):
    """Sorted node counts and durations of a large fixed synthetic_trace
    sample: the distributions every episode's jobs are drawn from."""
    sample = synthetic_trace(
        n_jobs=4000, seed=0, max_nodes=max_nodes,
        min_duration=min_duration, max_duration=max_duration,
    )
    return (sorted(t.nnodes for t in sample),
            sorted(t.duration for t in sample))


def _trace(seed: int, n_jobs: int, max_nodes: int, min_duration: int = 600,
           max_duration: int = 43_200, arrival_spread: int = 0):
    """``synthetic_trace`` with stratified node counts and durations.

    The seed's trace keeps its order, arrival times and which job is
    larger or longer than which; its k-th smallest node count (duration)
    is replaced by the k-th of ``n_jobs`` evenly spaced quantiles of the
    fixed distribution.  Every episode then asks for the same mix of work,
    so its cost varies by seed far less (per-episode CV of p95 decision
    time on ``conservative_stream``: 0.38 iid, 0.17 stratified), while the
    seed still decides the schedule.
    """
    trace = synthetic_trace(
        n_jobs=n_jobs, seed=seed, max_nodes=max_nodes,
        min_duration=min_duration, max_duration=max_duration,
        arrival_spread=arrival_spread,
    )
    sizes, durations = _quantiles(max_nodes, min_duration, max_duration)
    nnodes = _rank_map([t.nnodes for t in trace], sizes)
    duration = _rank_map([t.duration for t in trace], durations)
    return [
        TraceJob(t.job_index, nnodes[i], duration[i], t.submit_time)
        for i, t in enumerate(trace)
    ]


def _rank_map(values: List[int], reference: List[int]) -> List[int]:
    n = len(values)
    out = [0] * n
    order = sorted(range(n), key=lambda i: (values[i], i))
    for rank, i in enumerate(order):
        out[i] = reference[(2 * rank + 1) * len(reference) // (2 * n)]
    return out


def easy_burst(seed: int) -> Run:
    policy = EasyBackfill()
    flag = _CycleFlag(policy)
    sim = ClusterSimulator(tiny_cluster(4, 16, cores=4), queue=policy)
    trace = _trace(seed, 40, max_nodes=64, min_duration=300,
                   max_duration=3600)
    for t in trace:
        sim.submit(t.to_jobspec(), at=0, priority=-t.nnodes)
    return SimRun(sim, flag, len(trace))


def conservative_stream(seed: int) -> Run:
    policy = ConservativeBackfill()
    flag = _CycleFlag(policy)
    sim = ClusterSimulator(quartz(16, 64), match_policy="low", queue=policy)
    n_jobs = 100
    # ~2x the machine's node-seconds arrive over the spread, so a backlog
    # of future reservations builds.
    trace = _trace(seed, n_jobs, max_nodes=1024,
                   arrival_spread=140 * n_jobs)
    for t in trace:
        sim.submit(t.to_jobspec(), at=t.submit_time, priority=-t.nnodes)
    return SimRun(sim, flag, len(trace))


def guarded_easy(seed: int) -> Run:
    policy = EasyBackfill()
    flag = _CycleFlag(policy)
    sim = ClusterSimulator(
        tiny_cluster(4, 16, cores=4),
        queue=policy,
        audit=InvariantAuditor(),
        observe=True,
        overload=OverloadConfig(
            max_pending=96,
            admission_policy="shed",
            cycle_budget=400,
            attempt_budget=100,
            checkpoint_interval=8,
            degrade_after=2,
            recover_after=3,
        ),
        integrity=IntegrityConfig(scrub_window=16),
    )
    n_jobs = 50
    spread = 60 * n_jobs
    trace = _trace(seed, n_jobs, max_nodes=16, min_duration=300,
                   max_duration=3600, arrival_spread=spread)
    for t in trace:
        # Every third job lands on one of four burst ticks, in turn.
        at = t.submit_time
        if t.job_index % 3 == 0:
            at = spread * ((t.job_index // 3) % 4) // 4
        sim.submit(t.to_jobspec(), at=at, priority=-t.nnodes)
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="journal-", dir=TMP_DIR)
    manager = RecoveryManager(workdir, fsync=False).attach(sim)
    return SimRun(sim, flag, len(trace), workdir, manager)


#: name -> (episode set-up, episodes the schedule digest covers)
WORKLOADS: Dict[str, Tuple[Callable[[int], Run], int]] = {
    "fill_lod": (fill_lod, 1),
    "easy_burst": (easy_burst, 8),
    "conservative_stream": (conservative_stream, 8),
    "guarded_easy": (guarded_easy, 8),
}


def episode_seed(seed: int, episode: int) -> int:
    """Seed of one episode of a run seeded ``seed``."""
    return seed * 100_003 + episode
