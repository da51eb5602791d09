"""Self-healing state integrity: scrub, quarantine, repair, fsck, salvage.

The acceptance bar is the corruption matrix at the bottom: for every
injection site (live planner span, live DFU aggregate, mid-stream journal
frame, snapshot section) and several seeds, damage must be detected,
quarantined without crashing, repaired, survive a deep audit plus the
``fluxfsck --check`` gate, and the loss accounting must match the injected
damage exactly.  Everything above it unit-tests the pieces the matrix
composes.
"""

import collections
import json
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.match.traverser as traverser_module
import repro.match.writer as writer_module
import repro.recovery.integrity as integrity_module
from repro.grug import tiny_cluster
from repro.jobspec import simple_node_jobspec
from repro.match.traverser import sdfu_charges
from repro.match.writer import planner_owner_index
from repro.recovery import (
    CORRUPTION_KINDS,
    IntegrityConfig,
    IntegrityMonitor,
    RecoveryManager,
    RepairEngine,
    apply_corruption,
    corruption_targets,
    expected_span_table,
    restore_simulator,
    snapshot_state,
    state_diff,
    structure_checksum,
)
from repro.resource.vertex import X_LIMIT
from repro.recovery.__main__ import main as fsck_main
from repro.resilience import InvariantAuditor
from repro.resilience.chaos import (
    CORRUPTION_SITES,
    CampaignSpec,
    run_corruption_campaign,
)
from repro.sched import CapacitySchedule, ClusterSimulator


def book_outage(sim, name, start, duration):
    """A planned outage on ``name``'s subtree (§5.5)."""
    return CapacitySchedule(sim.graph).add_outage(
        sim.graph.vertex_by_name(name), start, duration
    )


def outage_intact(outage):
    """Every span the outage booked is still on its planner."""
    return all(
        planner.has_span(span_id) for planner, span_id in outage._span_records
    )


def busy_sim(outage=False, **kwargs):
    """A mid-flight simulator with live allocations on every level; with
    ``outage``, node3 is planned out over [0, 2000) before any job arrives,
    so jobs route around it and node3 holds only the outage's spans."""
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy", **kwargs
    )
    if outage:
        book_outage(sim, "node3", 0, 2000)
    for i in range(8):
        sim.submit(simple_node_jobspec(cores=4, duration=500), at=i * 50)
    sim.run(until=300)
    return sim


# ----------------------------------------------------------------------
# checksums and targeting
# ----------------------------------------------------------------------
class TestChecksums:
    def test_structure_checksum_deterministic(self):
        a, b = busy_sim(), busy_sim()
        for va, vb in zip(a.graph.vertices(), b.graph.vertices()):
            assert structure_checksum(va) == structure_checksum(vb)

    def test_structure_checksum_tracks_damage(self):
        sim = busy_sim()
        vertex = sim.graph.vertex_by_name("node0")
        before = structure_checksum(vertex)
        apply_corruption(sim, vertex, "structure", salt=5)
        assert structure_checksum(vertex) != before

    def test_corruption_targets_are_applicable(self):
        sim = busy_sim()
        for kind in CORRUPTION_KINDS:
            for name in corruption_targets(sim, kind):
                probe = busy_sim()
                assert apply_corruption(
                    probe, probe.graph.vertex_by_name(name), kind, salt=9
                ), f"{kind} listed {name} but did not apply"

    def test_expected_span_table_covers_allocations(self):
        sim = busy_sim()
        table = expected_span_table(sim)
        assert table  # live allocations -> expected spans
        for (name, _kind), spans in table.items():
            assert sim.graph.vertex_by_name(name) is not None
            assert spans


# ----------------------------------------------------------------------
# windowed derivation: the scrubber derives expectations per window
# ----------------------------------------------------------------------
def seeded_busy_sim(seed, outage=False, **kwargs):
    """:func:`busy_sim` with seed-drawn shapes: shared and exclusive holds,
    gpus and memory, one- and two-node jobs, running and reserved; with
    ``outage``, one seed-chosen node is planned out over [200, 600)."""
    rng = random.Random(seed)
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy", **kwargs
    )
    if outage:
        book_outage(sim, f"node{seed % 4}", 200, 400)
    for i in range(8):
        spec = simple_node_jobspec(
            cores=rng.randint(1, 4),
            memory=rng.choice([0, 0, 4]),
            gpus=rng.randint(0, 1),
            nodes=rng.choice([1, 1, 2]),
            duration=rng.randint(200, 800),
            node_exclusive=rng.random() < 0.3,
        )
        sim.submit(spec, at=i * rng.randint(10, 60))
    sim.run(until=300)
    return sim


def reference_span_table(sim):
    """Independent oracle for :func:`expected_span_table` over the whole
    graph: owners from ``planner_owner_index``, an eager ``sdfu_charges``
    walk for every live allocation, and each planned outage's subtree
    pool totals charged to every filter from its vertex up."""
    owners = planner_owner_index(sim.graph)
    by_name = {v.name: v for v in sim.graph.vertices()}
    table = {}
    for schedule in sim.graph.capacity_schedules:
        for outage in schedule.outages.values():
            totals = collections.Counter()
            for v in [outage.vertex, *sim.graph.descendants(outage.vertex)]:
                totals[v.type] += v.plans.total
            for planner, span_id in outage._span_records:
                name, kind = owners[id(planner)]
                vertex = by_name[name]
                want = {"start": outage.start, "end": outage.end}
                if kind == "plans":
                    want["request"] = vertex.plans.total
                elif kind == "xplans":
                    want["request"] = X_LIMIT
                else:
                    want["counts"] = {
                        rtype: totals[rtype]
                        for rtype in sim.graph.prune_types
                        if planner.tracks(rtype) and totals.get(rtype)
                    }
                table.setdefault((name, kind), {})[span_id] = want
    for alloc in sim.traverser.allocations.values():
        sel_by_name = {sel.vertex.name: sel for sel in alloc.selections}
        charges = sdfu_charges(
            sim.graph, sim.traverser.subsystem, alloc.selections
        )
        for planner, span_id in alloc._span_records:
            owner = owners.get(id(planner))
            if owner is None:
                continue
            name, kind = owner
            sel = sel_by_name.get(name)
            want = {"start": alloc.at, "end": alloc.end}
            if kind == "plans":
                want["request"] = sel.amount if sel is not None else 0
            elif kind == "xplans":
                exclusive = sel is not None and sel.exclusive
                want["request"] = X_LIMIT if exclusive else 1
            else:
                uniq_id = by_name[name].uniq_id
                want["counts"] = {
                    rtype: qty
                    for rtype, qty in charges.get(uniq_id, {}).items()
                    if qty > 0
                }
            table.setdefault((name, kind), {})[span_id] = want
    return table


def _corrupt(sim, kind, pick, salt):
    """Damage the ``pick``-th target of ``kind``; returns its name."""
    targets = corruption_targets(sim, kind)
    if not targets:
        return None
    name = targets[pick % len(targets)]
    apply_corruption(sim, sim.graph.vertex_by_name(name), kind, salt)
    return name


def _window(sim, start, width):
    ordered = sorted(sim.graph.vertices(), key=lambda v: v.name)
    width = min(width, len(ordered))
    return [ordered[(start + i) % len(ordered)] for i in range(width)]


_window_cases = given(
    seed=st.integers(0, 63),
    kind=st.sampled_from(CORRUPTION_KINDS),
    pick=st.integers(0, 1000),
    salt=st.integers(0, 2**16),
    lead=st.integers(0, 30),
    width=st.integers(1, 24),
    outage=st.booleans(),
)


@_window_cases
@settings(max_examples=40, deadline=None)
@example(seed=1, kind="span", pick=0, salt=0, lead=0, width=24, outage=True)
def test_window_table_is_full_table_restricted(
    seed, kind, pick, salt, lead, width, outage
):
    sim = seeded_busy_sim(seed, outage)
    damaged = _corrupt(sim, kind, pick, salt)
    names = sorted(v.name for v in sim.graph.vertices())
    anchor = names.index(damaged) if damaged else 0
    window = _window(sim, anchor - lead, width)
    full = reference_span_table(sim)
    assert expected_span_table(sim) == full
    keys = {(v.name, pkind) for v in window
            for pkind in ("plans", "xplans", "filter")}
    restricted = {key: spans for key, spans in full.items() if key in keys}
    assert expected_span_table(sim, window) == restricted


def _scrub_pass(
    seed, kind, pick, salt, lead, width, outage, budget, full_table
):
    """One scrub pass on a freshly damaged sim; returns everything it
    decided plus the sim.  ``full_table`` hands the pass the reference
    whole-graph table instead of the windowed derivation."""
    sim = seeded_busy_sim(
        seed,
        outage,
        integrity=IntegrityConfig(
            scrub_window=width, scrub_budget=budget, checkpoint_interval=1
        ),
    )
    damaged = _corrupt(sim, kind, pick, salt)
    names = sorted(v.name for v in sim.graph.vertices())
    anchor = names.index(damaged) if damaged else 0
    monitor = sim.integrity
    monitor.cursor = (anchor - lead) % len(names)
    records, findings = [], []
    sim._journal = records.append
    scan_vertex = monitor.scan_vertex

    def recording_scan(vertex, expected, budget=None):
        out = scan_vertex(vertex, expected, budget)
        findings.append((vertex.name, out))
        return out

    monitor.scan_vertex = recording_scan
    with pytest.MonkeyPatch.context() as mp:
        if full_table:
            mp.setattr(
                integrity_module, "expected_span_table",
                lambda sim, vertices=None: reference_span_table(sim),
            )
        monitor.scrub_cycle()
    return findings, records, monitor.export_state(), sim


@_window_cases
@settings(max_examples=30, deadline=None)
@example(seed=0, kind="aggregate", pick=0, salt=7, lead=0, width=1,
         outage=False)
@example(seed=3, kind="span", pick=1, salt=11, lead=2, width=8, outage=False)
@example(seed=5, kind="structure", pick=40, salt=3, lead=5, width=16,
         outage=False)
@example(seed=1, kind="point", pick=0, salt=5, lead=0, width=24, outage=True)
def test_window_scrub_pass_matches_full_table_pass(
    seed, kind, pick, salt, lead, width, outage
):
    budget = (None, 6, 40)[seed % 3]
    windowed = _scrub_pass(
        seed, kind, pick, salt, lead, width, outage, budget, full_table=False
    )
    full = _scrub_pass(
        seed, kind, pick, salt, lead, width, outage, budget, full_table=True
    )
    assert windowed[:3] == full[:3]
    assert state_diff(windowed[3], full[3]) == []


@pytest.mark.parametrize("racks", [4, 16])
def test_scrub_derivation_bound_holds_as_graph_grows(racks, monkeypatch):
    """Counts, not times: a pass never indexes the whole graph and walks
    ``sdfu_charges`` only for allocations with a filter span in its
    window, whatever the graph size."""
    sim = ClusterSimulator(
        tiny_cluster(racks=racks), match_policy="first", queue="easy",
        integrity=IntegrityConfig(scrub_window=8),
    )
    for i in range(5 * racks):  # same per-rack load: running + reserved
        sim.submit(simple_node_jobspec(cores=2, duration=500), at=i)
    sim.run(until=100)
    calls = {"sdfu_charges": 0, "planner_owner_index": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        traverser_module, "sdfu_charges",
        counting("sdfu_charges", sdfu_charges),
    )
    monkeypatch.setattr(
        writer_module, "planner_owner_index",
        counting("planner_owner_index", planner_owner_index),
    )
    monitor = sim.integrity
    total = sum(1 for _ in sim.graph.vertices())
    walked = filterless = 0
    for cursor in range(0, total, 8):
        monitor.cursor = cursor
        window = _window(sim, cursor, 8)
        filters = {
            id(v.prune_filters) for v in window if v.prune_filters is not None
        }
        touching = sum(
            1
            for alloc in sim.traverser.allocations.values()
            if any(id(p) in filters for p, _sid in alloc._span_records)
        )
        calls.update(sdfu_charges=0, planner_owner_index=0)
        monitor.scrub_cycle()
        assert calls["planner_owner_index"] == 0
        assert calls["sdfu_charges"] <= touching
        if not filters:
            assert calls["sdfu_charges"] == 0
            filterless += 1
        walked += calls["sdfu_charges"]
    assert filterless and walked  # both kinds of window were exercised
    assert len(sim.traverser.allocations) >= 4 * racks
    assert monitor.counters["detected"] == 0


# ----------------------------------------------------------------------
# detect -> quarantine -> repair -> converge, per corruption kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind, outage",
    [(kind, False) for kind in CORRUPTION_KINDS]
    + [(kind, True) for kind in CORRUPTION_KINDS],
    ids=[*CORRUPTION_KINDS, *(f"{kind}-outage" for kind in CORRUPTION_KINDS)],
)
def test_detect_quarantine_repair(kind, outage):
    """With ``outage`` the damage lands on node3, which holds only the
    planned outage's spans: repair must rebuild them to its window."""
    sim = busy_sim(
        outage, integrity=IntegrityConfig(scrub_window=None), audit=True
    )
    targets = corruption_targets(sim, kind)
    assert targets, f"no {kind} targets on a saturated tiny cluster"
    vertex = sim.graph.vertex_by_name("node3" if outage else targets[0])
    assert vertex.name in targets
    assert sim.inject_corruption(kind, vertex, salt=11)
    counters = sim.integrity.counters
    assert counters["detected"] >= 1
    assert counters["repaired"] >= 1
    assert counters["unrepaired"] == 0
    assert counters["jobs_requeued"] == 0
    assert not sim.integrity.quarantined
    assert sim.integrity.scan() == []
    if outage:
        (schedule,) = sim.graph.capacity_schedules
        held = schedule.outages[1]
        assert outage_intact(held)
        assert [
            (span.start, span.end) for span in vertex.plans.spans()
        ] == [(held.start, held.end)]
    report = sim.run()
    assert sim.integrity.scan() == []
    InvariantAuditor(deep=True).check(sim)
    assert len(report.completed) == 8
    assert "integrity:" in report.summary()
    if outage:
        schedule.cancel(held.outage_id)
        InvariantAuditor(deep=True).check(sim)


def test_planned_outage_scrubs_and_audits_clean():
    """A booked outage is part of the ground truth: a whole-graph scrub
    pass flags nothing, the default auditor passes, and the outage's
    spans survive for ``cancel()``."""
    sim = ClusterSimulator(
        tiny_cluster(2, 4), integrity=IntegrityConfig(scrub_window=None)
    )
    schedule = CapacitySchedule(sim.graph)
    held = schedule.add_outage(sim.graph.vertex_by_name("rack0"), 100, 200)
    InvariantAuditor().check(sim)
    sim.integrity.scrub_cycle()
    assert sim.integrity.counters["detected"] == 0
    assert sim.integrity.counters["quarantined"] == 0
    assert outage_intact(held)
    schedule.cancel(held.outage_id)
    InvariantAuditor().check(sim)
    assert sim.integrity.scan() == []


def test_detect_only_when_auto_repair_off():
    sim = busy_sim(
        integrity=IntegrityConfig(scrub_window=None, auto_repair=False)
    )
    vertex = sim.graph.vertex_by_name(corruption_targets(sim, "span")[0])
    assert sim.inject_corruption("span", vertex, salt=3)
    assert sim.integrity.counters["detected"] >= 1
    assert sim.integrity.counters["repaired"] == 0
    assert vertex.name in sim.integrity.quarantined
    assert vertex.status == "down"  # drained, not crashed


def test_scrub_budget_bounds_one_pass():
    sim = busy_sim(
        integrity=IntegrityConfig(
            scrub_window=None, scrub_budget=3, checkpoint_interval=1
        )
    )
    before = sim.integrity.counters["scrubbed_vertices"]
    passes = sim.integrity.counters["scrub_passes"]
    sim.integrity.scrub_cycle()
    assert sim.integrity.counters["scrub_passes"] == passes + 1
    assert sim.integrity.counters["scrubbed_vertices"] - before <= 3


def test_scrub_window_rotates_whole_graph():
    sim = busy_sim(integrity=IntegrityConfig(scrub_window=4))
    total = sum(1 for _ in sim.graph.vertices())
    start = sim.integrity.cursor
    for _ in range((total // 4) + 1):
        sim.integrity.scrub_cycle()
    assert sim.integrity.cursor != start or total <= 4
    assert sim.integrity.counters["scrubbed_vertices"] >= total


def test_evacuation_requeues_jobs():
    from repro.sched.failures import affected_jobs

    sim = busy_sim()
    engine = RepairEngine(sim)
    vertex = next(
        v for v in sim.graph.vertices("node") if affected_jobs(sim, v)
    )
    requeued = engine.evacuate_vertex(vertex)
    assert requeued >= 1
    report = sim.run()
    assert len(report.completed) == 8  # evacuated jobs rescheduled
    InvariantAuditor(deep=True).check(sim)


# ----------------------------------------------------------------------
# fluxfsck CLI
# ----------------------------------------------------------------------
def _recovery_dir(tmp_path, *, integrity=None):
    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy",
        integrity=integrity,
    )
    RecoveryManager(str(tmp_path), snapshot_every=5).attach(sim)
    for i in range(6):
        sim.submit(simple_node_jobspec(cores=4, duration=400), at=i * 40)
    sim.run(until=500)
    sim.recovery.close()
    return sim


class TestFsckCLI:
    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        _recovery_dir(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert fsck_main(
            ["fsck", str(tmp_path), "--check", "--json", report_path]
        ) == 0
        report = json.load(open(report_path))
        assert report["findings"] == []
        assert report["exit"] == 0
        assert "clean" in capsys.readouterr().out

    def test_unloadable_directory_exits_two(self, tmp_path):
        assert fsck_main(["fsck", str(tmp_path / "void"), "--check"]) == 2

    def test_check_repair_check_cycle(self, tmp_path):
        from repro.recovery.snapshot import _section_digest
        import hashlib

        _recovery_dir(tmp_path)
        # Damage the planners section of every snapshot, then re-seal the
        # wrapper digests: the file verifies, but the *state* is corrupt —
        # exactly what fsck exists to catch.
        for name in sorted(os.listdir(tmp_path)):
            if not name.startswith("snapshot-"):
                continue
            path = tmp_path / name
            wrapper = json.load(open(path))
            doc = wrapper["snapshot"]
            for planners in doc["planners"].values():
                plans = planners.get("plans")
                if plans and plans.get("spans"):
                    plans["spans"][0]["end"] += 5000
            payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            wrapper["sha256"] = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()
            wrapper["sections"] = {
                key: _section_digest(value) for key, value in doc.items()
            }
            with open(path, "w") as handle:
                json.dump(wrapper, handle, sort_keys=True,
                          separators=(",", ":"))
        assert fsck_main(["fsck", str(tmp_path), "--check"]) == 1
        assert fsck_main(["fsck", str(tmp_path), "--repair"]) == 0
        assert fsck_main(["fsck", str(tmp_path), "--check"]) == 0


def test_snapshot_with_retired_check_orphans_restores():
    """Snapshots written while ``check_orphans`` was an
    IntegrityConfig option still carry it; restoring ignores it."""
    sim = busy_sim(integrity=IntegrityConfig(scrub_window=4))
    doc = json.loads(json.dumps(snapshot_state(sim)))
    doc["integrity"]["config"]["check_orphans"] = False
    restored = restore_simulator(doc)
    assert restored.integrity.config == sim.integrity.config
    assert state_diff(sim, restored) == []


# ----------------------------------------------------------------------
# the corruption acceptance matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("site", CORRUPTION_SITES)
def test_corruption_matrix(site, seed):
    spec = CampaignSpec.corruption_from_seed(seed, site)
    result = run_corruption_campaign(spec)
    assert result.ok, result.violations
    loss = result.loss
    assert loss["fsck_exit"] == 0
    if site in ("live-span", "live-aggregate"):
        assert loss["applied"]
        assert loss["detected"] >= 1
        assert loss["unrepaired"] == 0
    elif site == "journal":
        # every skipped record accounted: count matches injected damage
        assert loss["strict_refused"]
        assert loss["crc_skipped"] == loss["injected"] > 0
    else:
        assert loss["strict_refused"]
        assert loss["sections_rebuilt"] == ["planners"]


def test_corruption_campaign_deterministic():
    spec = CampaignSpec.corruption_from_seed(5, "live-span")
    a = run_corruption_campaign(spec)
    b = run_corruption_campaign(spec)
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint
    assert a.loss == b.loss


def test_corruption_spec_round_trips():
    spec = CampaignSpec.corruption_from_seed(9)
    assert spec.corruption["site"] in CORRUPTION_SITES
    assert spec.faults is False and spec.crash_point is None
    again = CampaignSpec.corruption_from_seed(9)
    assert spec == again
    assert spec.to_dict()["corruption"] == spec.corruption


def test_repairs_replay_identically(tmp_path):
    """Journaled corruption + repairs regenerate on recovery replay."""
    from repro.recovery import recover, state_diff

    sim = ClusterSimulator(
        tiny_cluster(), match_policy="first", queue="easy",
        integrity=IntegrityConfig(scrub_window=None),
    )
    RecoveryManager(str(tmp_path)).attach(sim)
    for i in range(6):
        sim.submit(simple_node_jobspec(cores=4, duration=400), at=i * 40)
    sim.run(until=250)
    targets = corruption_targets(sim, "span")
    assert sim.inject_corruption(
        "span", sim.graph.vertex_by_name(targets[0]), salt=21
    )
    sim.run(until=400)
    sim.recovery.close()
    recovered = recover(str(tmp_path))
    assert state_diff(sim, recovered) == []
    assert recovered.integrity.counters == sim.integrity.counters
    sim.run()
    recovered.run()
    assert recovered.event_log == sim.event_log
