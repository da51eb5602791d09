"""Queue policies: FCFS, EASY backfill, conservative backfill (paper §3.2).

The resource model deliberately knows nothing about queueing — these policies
sit on top of a :class:`~repro.match.Traverser` and only call its public
match verbs (separation of concerns, §3.5).  Because reservations are
physically booked in the planners, backfilled jobs can never delay a
reservation: the match itself refuses conflicting windows.

* :class:`FCFSQueue` — strict order, no reservations: the queue head either
  starts now or everything waits.
* :class:`EasyBackfill` — the head of the queue gets a reservation; later
  jobs may start *now* if they fit (they cannot push the head back).  The
  reservation stands until freed capacity or a new head could move it.
* :class:`ConservativeBackfill` — every job gets allocate-orelse-reserve in
  submit order, the discipline the paper's §6.3 study uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import SchedulerError
from ..match import Traverser
from ..obs import NULL_OBSERVER, Observer, WallTimer
from .job import Job, JobState

__all__ = [
    "QueuePolicy",
    "FCFSQueue",
    "EasyBackfill",
    "ConservativeBackfill",
    "QUEUE_POLICIES",
    "make_queue_policy",
]


class _SchedAttempt:
    """Times one full scheduling attempt for one job.

    Everything inside the ``with`` block — match/reserve verbs, reservation
    cancels during re-planning, state transitions — is charged to
    ``job.sched_time`` (wall-clock observability only; excluded from state
    fingerprints so it cannot break replay determinism).  When an observer
    is enabled the attempt also lands in the ``sched.attempt_seconds``
    histogram and opens a ``sched.attempt`` tracer span.
    """

    __slots__ = ("_obs", "_job", "_now", "_verb", "_timer", "_alloc0")

    def __init__(self, obs: Observer, job: Job, now: int, verb: str) -> None:
        self._obs = obs
        self._job = job
        self._now = now
        self._verb = verb
        self._timer = WallTimer()
        self._alloc0 = 0

    def __enter__(self) -> "_SchedAttempt":
        if self._obs.enabled:
            self._obs.tracer.begin(
                "sched.attempt", "sched", vt=float(self._now),
                job=self._job.job_id, verb=self._verb,
            )
            why = self._obs.why
            if why.enabled:
                self._alloc0 = len(self._job.allocations)
                why.begin_attempt(
                    self._job.job_id, float(self._now), self._verb,
                    name=self._job.name,
                )
        self._timer.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__()
        self._job.sched_time += self._timer.elapsed
        if self._obs.enabled:
            self._obs.metrics.histogram(
                "sched.attempt_seconds",
                "wall time per full scheduling attempt",
            ).observe(self._timer.elapsed)
            why = self._obs.why
            if why.enabled:
                why.end_attempt(*self._outcome(exc))
            self._obs.tracer.end()

    def _outcome(self, exc: tuple) -> tuple:
        """(outcome, degradation level) for the attempt that just closed."""
        level = None
        if self._verb.startswith("degraded_"):
            level = self._verb[len("degraded_"):].upper()
        if exc and exc[0] is not None:
            return "deadline", level
        if self._verb == "replan_cancel":
            return "replan_cancel", level
        if len(self._job.allocations) > self._alloc0:
            alloc = self._job.allocations[-1]
            return ("reserved" if alloc.reserved else "matched"), level
        return "failed", level


class QueuePolicy:
    """Base queue policy; subclasses implement :meth:`cycle`."""

    name = "base"
    #: observability sink; ``ClusterSimulator(observe=...)`` replaces this
    #: per instance (class default keeps standalone policies zero-cost).
    obs: Observer = NULL_OBSERVER
    #: a standing reservation the last cycle kept instead of canceling and
    #: re-booking it; the simulator re-queues its events as for a new booking
    kept: Optional[Job] = None

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        """Try to place pending jobs (in submit order) at time ``now``.

        Implementations mutate job state/allocations via the traverser.  Jobs
        left PENDING stay in the queue for the next cycle.
        """
        raise NotImplementedError

    def _attempt(self, job: Job, now: int, verb: str) -> _SchedAttempt:
        """Scope one job's full scheduling attempt (see _SchedAttempt)."""
        return _SchedAttempt(self.obs, job, now, verb)

    @staticmethod
    def _out_of_budget(traverser: Traverser) -> bool:
        """True when an attached overload work budget is spent: policies
        stop attempting further jobs this cycle (clean stop between
        attempts; mid-attempt the budget's own cancellation checkpoints
        fire — see :mod:`repro.resilience.overload`)."""
        budget = traverser.budget
        return budget is not None and budget.cycle_exhausted

    @staticmethod
    def _attach(job: Job, alloc, now: int) -> None:
        job.allocations.append(alloc)
        job.transition(JobState.RUNNING if alloc.at <= now else JobState.RESERVED)

    # -- snapshot state (crash recovery) -------------------------------
    def export_state(self) -> dict:
        """Policy-internal state to carry across a restart (default: none)."""
        return {}

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        """Restore :meth:`export_state` output; ``jobs`` maps id -> Job."""


class FCFSQueue(QueuePolicy):
    """First-come first-served without backfilling."""

    name = "fcfs"

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        for job in pending:
            if job.state is not JobState.PENDING:
                continue
            if self._out_of_budget(traverser):
                break
            with self._attempt(job, now, "allocate"):
                alloc = traverser.allocate(job.jobspec, at=now)
                if alloc is not None:
                    self._attach(job, alloc, now)
            if alloc is None:
                break  # head of queue blocks everyone behind it


class EasyBackfill(QueuePolicy):
    """EASY backfilling: one reservation for the queue head, others start-now.

    The head's reservation is booked in the planners, so backfilled jobs
    physically cannot delay it.  It stands across cycles and is canceled and
    re-planned only when the answer could change: the head is no longer the
    first job in ``pending``, its start is due, or capacity at or after
    ``now`` was freed since it was booked (the graph's ``release_horizon``:
    early completions, cancels, truncations, repairs, canceled outages).
    Otherwise availability on ``[now, inf)`` has only shrunk, every booking
    since was made around the reservation, and a re-plan would find the same
    start on the same vertices.  A kept reservation is reported in
    :attr:`kept` so its events are re-queued as a re-plan would queue them.
    """

    name = "easy"

    def __init__(self) -> None:
        #: (job, alloc id) of the standing reservation
        self._head: Optional[Tuple[Job, int]] = None

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        head_blocked = self._keep_or_cancel_head(pending, traverser, now)
        for job in pending:
            if job.state is not JobState.PENDING:
                continue  # the kept head
            if self._out_of_budget(traverser):
                break
            if not head_blocked:
                with self._attempt(job, now, "allocate_orelse_reserve"):
                    alloc = traverser.allocate_orelse_reserve(
                        job.jobspec, now=now
                    )
                    if alloc is not None:
                        self._attach(job, alloc, now)
                if alloc is None:
                    continue  # never satisfiable; skip (stays pending)
                if alloc.reserved:
                    head_blocked = True
                    self._head = (job, alloc.alloc_id)
                    traverser.graph.reset_releases()
            else:
                with self._attempt(job, now, "backfill"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)

    def _keep_or_cancel_head(
        self, pending: List[Job], traverser: Traverser, now: int
    ) -> bool:
        """Keep the standing head reservation or cancel it for a re-plan.

        Returns True when the reservation is kept (later jobs only backfill).
        """
        head, self._head = self._head, None
        self.kept = None
        if head is None:
            return False
        job, alloc_id = head
        alloc = job.allocation
        if (
            job.state is not JobState.RESERVED
            or alloc is None
            or alloc.alloc_id != alloc_id
            or alloc_id not in traverser.allocations
        ):
            return False  # started, canceled or killed meanwhile
        if (
            pending
            and pending[0] is job
            and alloc.at > now
            and traverser.graph.release_horizon <= now
        ):
            why = self.obs.why
            if why.enabled:
                why.begin_attempt(job.job_id, float(now), "keep_reservation",
                                  name=job.name)
                why.end_attempt("kept", start=alloc.at)
            self._head = head
            self.kept = job
            return True
        # Re-planning work is scheduling cost too: charge the cancel to the
        # job whose reservation is being re-made.
        with self._attempt(job, now, "replan_cancel"):
            traverser.remove(alloc_id)
            job.transition(JobState.PENDING)
            job.allocations.clear()
        return False

    def export_state(self) -> dict:
        if self._head is None:
            return {"head_reservation": {}}
        job, alloc_id = self._head
        return {"head_reservation": {str(job.job_id): alloc_id}}

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        self._head = None
        for job_id, alloc_id in (state.get("head_reservation") or {}).items():
            self._head = (jobs[int(job_id)], int(alloc_id))


class ConservativeBackfill(QueuePolicy):
    """Conservative backfilling: every job allocates now or reserves.

    Reservations are kept (never re-planned), so each job's planned start can
    only be honored, matching the guarantee conservative backfilling makes.

    ``depth`` bounds how many jobs hold future reservations at once
    (Fluxion's ``queue-depth``): deep queues stop paying reservation-planning
    cost for jobs far from the head, at the price of weaker start-time
    guarantees for them.  ``None`` means unlimited.
    """

    name = "conservative"

    def __init__(self, depth: Optional[int] = None) -> None:
        if depth is not None and depth < 1:
            raise SchedulerError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth

    def cycle(self, pending: List[Job], traverser: Traverser, now: int) -> None:
        reserved = sum(1 for job in pending if job.state is JobState.RESERVED)
        for job in pending:
            if job.state is not JobState.PENDING:
                continue
            if self._out_of_budget(traverser):
                break
            if self.depth is not None and reserved >= self.depth:
                # Depth reached: only start-now placements beyond this point.
                with self._attempt(job, now, "allocate"):
                    alloc = traverser.allocate(job.jobspec, at=now)
                    if alloc is not None:
                        self._attach(job, alloc, now)
            else:
                with self._attempt(job, now, "allocate_orelse_reserve"):
                    alloc = traverser.allocate_orelse_reserve(
                        job.jobspec, now=now
                    )
                    if alloc is not None:
                        self._attach(job, alloc, now)
            if alloc is not None and alloc.reserved:
                reserved += 1

    def export_state(self) -> dict:
        return {"depth": self.depth}

    def import_state(self, state: dict, jobs: Dict[int, Job]) -> None:
        self.depth = state.get("depth")


QUEUE_POLICIES = {
    "fcfs": FCFSQueue,
    "easy": EasyBackfill,
    "conservative": ConservativeBackfill,
}


def make_queue_policy(name: str) -> QueuePolicy:
    """Instantiate a queue policy by registry name."""
    try:
        return QUEUE_POLICIES[name]()
    except KeyError:
        raise SchedulerError(
            f"unknown queue policy {name!r}; known: {sorted(QUEUE_POLICIES)}"
        ) from None
