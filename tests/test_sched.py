"""Tests for the scheduling framework: jobs, queues, simulator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import JobError, SchedulerError
from repro.grug import tiny_cluster
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.sched import (
    ClusterSimulator,
    EasyBackfill,
    Job,
    JobState,
    make_queue_policy,
)


def four_node_cluster():
    return tiny_cluster(racks=1, nodes_per_rack=4, cores=4)


def assert_graph_clean(graph):
    for v in graph.vertices():
        assert v.plans.span_count == 0, v
        assert v.xplans.span_count == 0, v


class TestJobLifecycle:
    def test_legal_transitions(self):
        job = Job(1, nodes_jobspec(1))
        job.transition(JobState.RESERVED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        assert not job.is_active

    def test_illegal_transition_rejected(self):
        job = Job(1, nodes_jobspec(1))
        with pytest.raises(JobError):
            job.transition(JobState.COMPLETED)

    def test_wait_time(self):
        job = Job(1, nodes_jobspec(1), submit_time=10)
        assert job.wait_time is None


class TestConservativeSimulation:
    def test_sequential_batches(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, match_policy="low", queue="conservative")
        for _ in range(6):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert sorted(j.start_time for j in report.jobs) == [0, 0, 100, 100, 200, 200]
        assert len(report.completed) == 6
        assert report.makespan == 300
        assert_graph_clean(g)

    def test_immediate_starts_counted(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        for _ in range(3):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert report.immediate_starts() == 2

    def test_unsatisfiable_job_canceled(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        job = sim.submit(nodes_jobspec(9, duration=10), at=0)
        report = sim.run()
        assert job.state is JobState.CANCELED
        assert report.unsatisfiable == [job]

    def test_arrivals_over_time(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        sim.submit(nodes_jobspec(4, duration=100), at=0)
        late = sim.submit(nodes_jobspec(4, duration=50), at=30)
        report = sim.run()
        assert late.start_time == 100
        assert late.wait_time == 70
        assert report.makespan == 150

    def test_submit_in_past_rejected(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        sim.submit(nodes_jobspec(1, duration=10), at=50)
        sim.run()
        with pytest.raises(SchedulerError):
            sim.submit(nodes_jobspec(1, duration=5), at=0)

    def test_shared_core_jobs_pack(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, match_policy="low")
        for _ in range(4):
            sim.submit(simple_node_jobspec(cores=2, duration=100), at=0)
        report = sim.run()
        assert all(j.start_time == 0 for j in report.jobs)
        assert report.makespan == 100

    def test_cancel_pending_and_running(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        running = sim.submit(nodes_jobspec(4, duration=100), at=0)
        queued = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.step()  # submit event 1 -> running
        sim.step()  # submit event 2 -> reserved
        assert running.state is JobState.RUNNING
        assert queued.state is JobState.RESERVED
        sim.cancel(queued)
        assert queued.state is JobState.CANCELED
        sim.cancel(running)
        assert_graph_clean(g)
        with pytest.raises(SchedulerError):
            sim.cancel(running)


class TestQueuePolicyBehavior:
    def submit_trio(self, queue):
        """Job1 takes 3/4 nodes for 100; job2 wants all 4; job3 wants 1 for 50."""
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=queue)
        j1 = sim.submit(nodes_jobspec(3, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(4, duration=100), at=0)
        j3 = sim.submit(nodes_jobspec(1, duration=50), at=0)
        report = sim.run()
        assert_graph_clean(g)
        return j1, j2, j3, report

    def test_fcfs_no_backfill(self):
        j1, j2, j3, report = self.submit_trio("fcfs")
        assert j1.start_time == 0
        assert j2.start_time == 100
        assert j3.start_time == 200  # waits behind j2 even though a node is free

    def test_easy_backfills_short_job(self):
        j1, j2, j3, report = self.submit_trio("easy")
        assert (j1.start_time, j2.start_time, j3.start_time) == (0, 100, 0)

    def test_conservative_backfills_short_job(self):
        j1, j2, j3, report = self.submit_trio("conservative")
        assert (j1.start_time, j2.start_time, j3.start_time) == (0, 100, 0)

    def test_easy_reservation_not_delayed_by_backfill(self):
        """A long backfill candidate must not postpone the head reservation."""
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        j1 = sim.submit(nodes_jobspec(3, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(4, duration=100), at=0)  # reserved at 100
        j3 = sim.submit(nodes_jobspec(1, duration=500), at=0)  # would delay j2
        report = sim.run()
        assert j2.start_time == 100
        assert j3.start_time >= 200

    def test_easy_reservation_stays_when_completion_frees_nothing_later(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        j1 = sim.submit(nodes_jobspec(2, duration=100), at=0)
        j2 = sim.submit(nodes_jobspec(2, duration=300), at=0)
        j3 = sim.submit(nodes_jobspec(4, duration=50), at=0)  # head-blocked
        sim.run(until=0)
        booked = j3.allocation.alloc_id
        report = sim.run()
        # j3 needs all nodes: reserved at 300; j1 completes at its booked
        # end (100), which frees nothing at or after 100, so the booking
        # stands untouched.
        assert j3.start_time == 300
        assert j3.allocation.alloc_id == booked
        assert len(report.completed) == 3

    def test_easy_reservation_pulled_earlier_by_early_completion(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        j1 = sim.submit(nodes_jobspec(4, duration=300), at=0,
                        actual_duration=100)
        j2 = sim.submit(nodes_jobspec(4, duration=50), at=0)
        sim.run(until=0)
        assert (j2.state, j2.start_time) == (JobState.RESERVED, 300)
        report = sim.run()
        # j1 finishes 200 ticks early: [100, 300) is freed, and the head's
        # reservation is re-planned onto it.
        assert j1.finished_at == 100
        assert j2.start_time == 100
        assert (100, "start", j2.job_id) in sim.event_log
        assert len(report.completed) == 2
        assert_graph_clean(g)

    def test_easy_rebooked_head_is_kept_afterwards(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        sim.submit(nodes_jobspec(2, duration=300), at=0, actual_duration=100)
        sim.submit(nodes_jobspec(2, duration=400), at=0)
        head = sim.submit(nodes_jobspec(4, duration=50), at=0)
        sim.run(until=100)
        # The early completion at 100 re-planned the head (still at 400);
        # releases before that re-booking cannot move it again.
        rebooked = head.allocation.alloc_id
        assert (head.state, head.start_time) == (JobState.RESERVED, 400)
        sim.submit(nodes_jobspec(1, duration=10), at=150)
        sim.run()
        assert head.allocation.alloc_id == rebooked
        assert head.start_time == 400

    def test_easy_higher_priority_arrival_replaces_head(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        sim.submit(nodes_jobspec(4, duration=100), at=0)
        old_head = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.run(until=0)
        assert old_head.state is JobState.RESERVED
        urgent = sim.submit(nodes_jobspec(4, duration=100), at=10,
                            priority=5)
        sim.run(until=10)
        # The new head takes the reservation; the old head waits behind it.
        assert (urgent.state, urgent.start_time) == (JobState.RESERVED, 100)
        assert (old_head.state, old_head.allocation) == (JobState.PENDING,
                                                         None)
        sim.run()
        assert old_head.start_time == 200

    def test_unknown_queue_policy(self):
        with pytest.raises(SchedulerError):
            make_queue_policy("mystery")

    def test_policy_names(self):
        for name in ("fcfs", "easy", "conservative"):
            assert make_queue_policy(name).name == name


class TestPriorities:
    def test_priority_orders_same_instant_batch(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        a = sim.submit(nodes_jobspec(4, duration=100), at=0)
        b = sim.submit(nodes_jobspec(4, duration=100), at=0)
        c = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=5)
        sim.run()
        assert (c.start_time, a.start_time, b.start_time) == (0, 100, 200)

    def test_priority_jumps_existing_queue(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        running = sim.submit(nodes_jobspec(4, duration=100), at=0)
        waiting = sim.submit(nodes_jobspec(4, duration=100), at=0)
        urgent = sim.submit(nodes_jobspec(4, duration=50), at=10, priority=9)
        sim.run()
        assert running.start_time == 0
        assert urgent.start_time == 100
        assert waiting.start_time == 150

    def test_conservative_respects_priority_reservation_order(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        filler = sim.submit(nodes_jobspec(4, duration=100), at=0)
        low = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=1)
        high = sim.submit(nodes_jobspec(4, duration=100), at=0, priority=2)
        sim.run()
        # Same-instant batch: priority decides who allocates "now" and the
        # reservation order behind it.
        assert high.start_time == 0
        assert low.start_time == 100
        assert filler.start_time == 200

    def test_default_priority_is_fifo(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="fcfs")
        jobs = [sim.submit(nodes_jobspec(4, duration=10), at=0) for _ in range(3)]
        sim.run()
        assert [j.start_time for j in jobs] == [0, 10, 20]


class TestSchedTimeAccounting:
    def test_sched_time_recorded(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        for _ in range(4):
            sim.submit(nodes_jobspec(2, duration=100), at=0)
        report = sim.run()
        assert all(j.sched_time > 0 for j in report.jobs)
        assert report.total_sched_time >= max(j.sched_time for j in report.jobs)

    def test_report_summary_format(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        sim.submit(nodes_jobspec(1, duration=10), at=0)
        report = sim.run()
        text = report.summary()
        assert "1/1 jobs completed" in text
        assert "makespan=10" in text


class TestQueueDepth:
    def test_depth_limits_reservations(self):
        from repro.sched import ConservativeBackfill

        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=ConservativeBackfill(depth=1))
        blocker = sim.submit(nodes_jobspec(4, duration=100), at=0)
        first = sim.submit(nodes_jobspec(4, duration=100), at=0)
        second = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.step(); sim.step(); sim.step()  # all submissions at t=0
        assert first.state is JobState.RESERVED
        assert second.state is JobState.PENDING  # depth=1 blocks its reservation
        report = sim.run()
        assert len(report.completed) == 3  # still completes once capacity frees

    def test_unlimited_depth_reserves_all(self):
        from repro.sched import ConservativeBackfill

        g = four_node_cluster()
        sim = ClusterSimulator(g, queue=ConservativeBackfill())
        jobs = [sim.submit(nodes_jobspec(4, duration=10), at=0) for _ in range(4)]
        sim.step(); sim.step(); sim.step(); sim.step()
        states = [j.state for j in jobs]
        assert states.count(JobState.RESERVED) == 3

    def test_bad_depth(self):
        from repro.sched import ConservativeBackfill

        with pytest.raises(SchedulerError):
            ConservativeBackfill(depth=0)


class TestEventLog:
    def test_chronological_lifecycle(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="conservative")
        a = sim.submit(nodes_jobspec(4, duration=100), at=0)
        b = sim.submit(nodes_jobspec(4, duration=50), at=0)
        sim.run()
        events = [(t, kind, jid) for t, kind, jid in sim.event_log]
        assert (0, "submit", a.job_id) in events
        assert (0, "start", a.job_id) in events
        assert (100, "end", a.job_id) in events
        assert (100, "start", b.job_id) in events
        assert (150, "end", b.job_id) in events
        times = [t for t, *_ in events]
        assert times == sorted(times)

    def test_cancel_recorded(self):
        g = four_node_cluster()
        sim = ClusterSimulator(g)
        job = sim.submit(nodes_jobspec(1, duration=100), at=0)
        sim.step()
        sim.cancel(job)
        assert (0, "cancel", job.job_id) in sim.event_log


class TestReleaseRecord:
    """The graph's release record behind EASY's keep-or-re-plan test."""

    def test_truncation_frees_up_to_old_end(self):
        from repro.match import Traverser

        g = four_node_cluster()
        t = Traverser(g)
        alloc = t.allocate(nodes_jobspec(2, duration=100), at=0)
        g.reset_releases()
        t.update_end(alloc.alloc_id, 300)  # extension frees nothing
        assert g.release_horizon == g.plan_start
        t.update_end(alloc.alloc_id, 50)  # truncation frees [50, 300)
        assert g.release_horizon == 300

    def test_resume_is_unbounded(self):
        g = four_node_cluster()
        node = next(iter(g.vertices("node")))
        g.mark_down(node)
        g.mark_up(node)
        assert g.release_horizon == g.plan_end
        g.reset_releases()
        g.mark_up(node)  # already up: nothing comes back
        assert g.release_horizon == g.plan_start

    def test_canceled_outage_pulls_head_in(self):
        from repro.sched import CapacitySchedule

        g = four_node_cluster()
        sim = ClusterSimulator(g, queue="easy")
        cap = CapacitySchedule(g)
        outage = cap.add_outage(g.root, start=50, duration=450)
        head = sim.submit(nodes_jobspec(4, duration=100), at=0)
        sim.run(until=0)
        assert (head.state, head.start_time) == (JobState.RESERVED, 500)
        cap.cancel(outage.outage_id)
        sim.reschedule()
        assert (head.state, head.start_time) == (JobState.RUNNING, 0)


# ----------------------------------------------------------------------
# EASY keeps its head reservation: differential check against re-planning
# ----------------------------------------------------------------------
class ReplanEveryCycle(EasyBackfill):
    """Reference EASY: cancel and re-plan the head reservation every cycle."""

    def _keep_or_cancel_head(self, pending, traverser, now):
        head, self._head = self._head, None
        if head is not None:
            job, alloc_id = head
            if (job.state is JobState.RESERVED
                    and alloc_id in traverser.allocations):
                traverser.remove(alloc_id)
                job.transition(JobState.PENDING)
                job.allocations.clear()
        return False


class RecordingEasy(EasyBackfill):
    """The real EASY, recording ``(now, head job, reserved start)`` after
    every cycle (``None`` job while no reservation stands)."""

    def __init__(self):
        super().__init__()
        self.records = []

    def cycle(self, pending, traverser, now):
        super().cycle(pending, traverser, now)
        if self._head is None:
            self.records.append((now, None, None))
        else:
            job = self._head[0]
            self.records.append((now, job, job.allocation.at))


_JOB = st.tuples(
    st.sampled_from(["nodes", "cores"]),
    st.integers(1, 4),                      # nodes, or cores on one node
    st.sampled_from([20, 50, 100, 150]),    # walltime
    st.one_of(st.none(), st.integers(1, 200)),  # actual work
    st.integers(0, 12),                     # submit tick (x10)
    st.integers(0, 2),                      # priority
)
_TRACE = st.fixed_dictionaries({
    "nodes": st.integers(2, 4),
    "jobs": st.lists(_JOB, min_size=1, max_size=12),
    "cancels": st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 11)), max_size=2),
    "failures": st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(1, 30)),
        max_size=2),
})


def _drive(policy, trace):
    """Run one random trace; time ticks are multiples of 10."""
    graph = tiny_cluster(racks=1, nodes_per_rack=trace["nodes"], cores=2)
    sim = ClusterSimulator(graph, match_policy="first", queue=policy)
    jobs = []
    for kind, size, walltime, work, tick, priority in trace["jobs"]:
        if kind == "nodes":
            spec = nodes_jobspec(size, duration=walltime)
        else:
            spec = simple_node_jobspec(cores=min(size, 2), duration=walltime)
        jobs.append(sim.submit(spec, at=tick * 10, priority=priority,
                               actual_duration=work))
    nodes = list(graph.vertices("node"))
    for index, tick, down_for in trace["failures"]:
        node = nodes[index % len(nodes)]
        sim.schedule_failure(node, at=tick * 10)
        sim.schedule_repair(node, at=(tick + down_for) * 10)
    for tick, index in sorted(trace["cancels"]):
        sim.run(until=tick * 10)
        job = jobs[index % len(jobs)]
        if job.is_active:
            sim.cancel(job)
    sim.run()
    return sim


def _outcome(sim):
    return [
        (
            job.job_id,
            job.state,
            job.start_time,
            job.end_time,
            job.finished_at,
            None if job.allocation is None
            else sorted(v.name for v in job.allocation.nodes()),
        )
        for job in sim.jobs.values()
    ]


def _check_easy_contract(sim, records):
    """No backfill ever pushes the head back.

    While a job stays the head its reserved start only moves later when a
    job ahead of it in queue order (priority, then id) started meanwhile;
    when it stops being the head it started no later than its reservation,
    was canceled, or a job ahead of it took its place.
    """
    started = {ref: t for t, kind, ref in sim.event_log if kind == "start"}
    canceled = {ref for _, kind, ref in sim.event_log if kind == "cancel"}

    def ahead(other, job):
        return (-other.priority, other.job_id) < (-job.priority, job.job_id)

    def overtaken(job, now):
        return any(
            t == now and ahead(sim.jobs[ref], job)
            for ref, t in started.items()
        )

    for (now, job, at), (nxt_now, nxt, nxt_at) in zip(records, records[1:]):
        if job is None:
            continue
        if nxt is job:
            assert nxt_at <= at or overtaken(job, nxt_now), (
                job.job_id, at, nxt_at, now)
            continue
        assert (
            started.get(job.job_id, at + 1) <= at
            or job.job_id in canceled
            or (nxt is not None and ahead(nxt, job))
        ), (job.job_id, at, now)
    if records and records[-1][1] is not None:
        _, job, at = records[-1]
        assert started.get(job.job_id, at + 1) <= at or job.job_id in canceled


@settings(max_examples=150, deadline=None)
@given(trace=_TRACE)
# Two ends at t=150, the head's and a backfilled job's: a kept booking must
# keep them in the order a re-plan at C's submission would queue them.
@example(trace={
    "nodes": 4,
    "jobs": [("nodes", 2, 100, None, 0, 0), ("nodes", 3, 50, None, 0, 0),
             ("nodes", 1, 150, None, 0, 0), ("nodes", 1, 20, None, 0, 0)],
    "cancels": [], "failures": [],
})
# A submission at the head's booked start: the due head starts in that
# cycle, ahead of the newcomer backfilled beside it.
@example(trace={
    "nodes": 3,
    "jobs": [("nodes", 3, 50, None, 0, 0), ("nodes", 2, 50, None, 0, 0),
             ("nodes", 1, 20, None, 5, 0)],
    "cancels": [], "failures": [],
})
def test_easy_keep_matches_replan_every_cycle(trace):
    kept = RecordingEasy()
    ours = _drive(kept, trace)
    reference = _drive(ReplanEveryCycle(), trace)
    assert _outcome(ours) == _outcome(reference)
    assert ours.event_log == reference.event_log
    _check_easy_contract(ours, kept.records)
