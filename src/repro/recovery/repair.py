"""Journaled repair actions for the fluxfsck subsystem.

Every mutation of graph/planner/allocation state in this module flows
through :meth:`RepairEngine._journal_action` *before* the first raw write —
enforced mechanically by fluxlint rule INT001.  The journal records are
``internal`` effects (repairs always run inside a journaled command:
a dispatched event's scrub pass, a replayed ``corrupt`` command, or a
salvage restore), so replay regenerates them by re-running the command
rather than re-applying the record; journaling them anyway leaves an audit
trail an operator can correlate with ``integrity.*`` metrics.

Repair strategies (tentpole spec):

* **rebuild planner spans from the allocation table** — the live
  allocations are the source of truth; plans/xplans/filter registries and
  their scheduled-point trees are reconstructed to exactly what SDFU would
  have booked (via :func:`~repro.match.traverser.sdfu_charges`).
* **reconcile aggregate DFU filters** — filter bundles are re-derived from
  the selections that should be charging them, fixing drifted aggregates.
* **release orphaned spans** — spans no allocation accounts for are
  dropped as part of the registry rebuild.
* **requeue jobs whose reservations were lost** — when a vertex cannot be
  verified clean after repair, every job holding it is evacuated: spans
  released tolerantly, the job killed with ``NODE_FAILURE`` and resubmitted
  under the simulator's retry policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Dict, Iterable, List, Optional

from ..errors import FluxionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..match.writer import Allocation
    from ..resource import ResourceVertex
    from ..sched.simulator import ClusterSimulator
    from .integrity import Finding, IntegrityMonitor

__all__ = ["RepairEngine"]

#: planner kinds in repair order (filters last: they aggregate the others)
_REPAIR_ORDER = ("plans", "xplans", "filter")


class RepairEngine:
    """Deterministic, journaled state repair for one simulator instance."""

    def __init__(
        self,
        sim: "ClusterSimulator",
        monitor: Optional["IntegrityMonitor"] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.skipped_spans = 0

    # ------------------------------------------------------------------
    # journal plumbing (INT001: call before any raw write)
    # ------------------------------------------------------------------
    def _journal_action(self, action: str, **fields: object) -> None:
        """Write-ahead record for one repair action (audit trail)."""
        record = {"type": "repair_action", "action": action,
                  "at": self.sim.now}
        record.update(fields)
        self.sim._journal(record)

    # ------------------------------------------------------------------
    # repair actions
    # ------------------------------------------------------------------
    def restore_structure(self, vertex: "ResourceVertex") -> bool:
        """Restore a vertex's structural fields from the attach baseline.

        Identity fields (type/basename/id) are not touched — the baseline
        is keyed by name, so identity corruption presents as an unknown
        vertex and is handled by quarantine, not rewriting.  Returns False
        when no baseline is known.
        """
        base = (
            self.monitor.baseline_structure(vertex)
            if self.monitor is not None
            else None
        )
        if base is None:
            return False
        self._journal_action("restore-structure", vertex=vertex.name)
        self.sim.graph.note_release()
        vertex.size = base["size"]
        vertex.unit = base["unit"]
        vertex.rank = base["rank"]
        vertex.properties = dict(base["properties"])
        vertex.paths = dict(base["paths"])
        return True

    def rebuild_planner(
        self,
        vertex: "ResourceVertex",
        pkind: str,
        want: Dict[int, dict],
    ) -> int:
        """Rebuild one planner to exactly the expected span set.

        ``want`` is the per-span expectation from
        :func:`~repro.recovery.integrity.expected_span_table`; the registry
        is replaced wholesale (releasing orphans) and the point trees are
        reconstructed from scratch, so even unreadable trees repair.
        Returns the number of spans booked.
        """
        self._journal_action(
            "rebuild-planner", vertex=vertex.name, planner=pkind,
            spans=len(want),
        )
        self.sim.graph.note_release()
        if pkind == "filter":
            filters = vertex.prune_filters
            if filters is None:
                return 0
            bundles = [
                {
                    "id": sid,
                    "start": exp["start"],
                    "end": exp["end"],
                    "counts": dict(exp["counts"]),
                }
                for sid, exp in sorted(want.items())
            ]
            return filters.rebuild(bundles=bundles)
        planner = getattr(vertex, pkind)
        records = [
            {
                "id": sid,
                "start": exp["start"],
                "end": exp["end"],
                "request": exp["request"],
                "metadata": {},
            }
            for sid, exp in sorted(want.items())
        ]
        return planner.rebuild(spans=records)

    def repair_vertex(
        self,
        vertex: "ResourceVertex",
        findings: Iterable["Finding"],
        expected: Dict[tuple, Dict[int, dict]],
    ) -> List[str]:
        """Apply the repair actions implied by ``findings``; returns labels.

        A planner whose expected span set turns out infeasible (corrupt
        beyond reconciliation) is skipped — the caller re-scans and
        escalates to :meth:`evacuate_vertex`.
        """
        actions: List[str] = []
        kinds = {f.kind for f in findings}
        planners = {f.planner for f in findings if f.planner is not None}
        if "structure" in kinds and self.restore_structure(vertex):
            actions.append("restore-structure")
        for pkind in _REPAIR_ORDER:
            if pkind not in planners:
                continue
            want = expected.get((vertex.name, pkind), {})
            try:
                self.rebuild_planner(vertex, pkind, want)
            except (AssertionError, FluxionError):
                # Leave it dirty; the monitor escalates after re-scanning.
                continue
            actions.append(f"rebuild-{pkind}")
        return actions

    # ------------------------------------------------------------------
    # bounded-loss escalation
    # ------------------------------------------------------------------
    def release_allocation(self, alloc: "Allocation") -> int:
        """Tolerantly release every span behind ``alloc`` and deregister it.

        Unlike :meth:`Traverser.remove`, a span that is already gone (or a
        tree too damaged to unbook) is skipped and counted in
        :attr:`skipped_spans` instead of aborting — the enclosing repair
        rebuilds the planner afterwards.  Returns spans actually released.
        """
        self._journal_action("release-allocation", alloc_id=alloc.alloc_id)
        self.sim.graph.note_release(alloc.end)
        released = 0
        for planner, span_id in list(alloc._span_records):
            try:
                planner.rem_span(span_id)
                released += 1
            except (AssertionError, FluxionError):
                self.skipped_spans += 1
        alloc._span_records.clear()
        self.sim.traverser.allocations.pop(alloc.alloc_id, None)
        self.sim._started_allocs.discard(alloc.alloc_id)
        return released

    def evacuate_vertex(self, vertex: "ResourceVertex") -> int:
        """Requeue every job holding ``vertex`` (reservations lost).

        The bounded-loss last resort: allocations beneath the vertex are
        released tolerantly, each victim killed with ``NODE_FAILURE`` and
        resubmitted per the retry policy (work-credit accounting included,
        exactly like a hardware failure).  Returns the victim count.
        """
        from ..sched.failures import affected_jobs
        from ..sched.job import CancelReason

        victims = affected_jobs(self.sim, vertex)
        if not victims:
            return 0
        self._journal_action(
            "evacuate", vertex=vertex.name,
            jobs=[job.job_id for job in victims],
        )
        for job in victims:
            for alloc in list(job.allocations):
                self.release_allocation(alloc)
            self.sim._kill(job, CancelReason.NODE_FAILURE, retry=True)
        return len(victims)

    # ------------------------------------------------------------------
    # snapshot salvage support
    # ------------------------------------------------------------------
    def rebuild_from_allocation_records(
        self,
        records: Iterable[dict],
        live_ids: Container[int],
    ) -> int:
        """Re-book planner spans for live allocation records.

        Snapshot-salvage path: when a snapshot's ``planners`` section is
        corrupt it is dropped entirely and the spans each *live* allocation
        record references are reconstructed here — windows from the record,
        requests and filter charges from
        :func:`~repro.recovery.integrity.allocation_expectations`, the
        derivation the scrubber checks them against — before
        ``Allocation.from_record`` resolves them.  Span ids are preserved;
        planner auto-id counters restart from the rebuilt registry (a
        bounded, accounted loss).  Returns the number of spans booked.
        """
        from ..match.writer import Allocation
        from .integrity import allocation_expectations

        sim = self.sim
        by_name = {v.name: v for v in sim.graph.vertices()}
        subsystem = sim.traverser.subsystem
        self._journal_action("rebuild-from-allocations")
        booked = 0
        for record in records:
            if int(record["alloc_id"]) not in live_ids:
                continue  # released allocations hold no spans
            selections, spans = Allocation.resolve_record(record, by_name)
            at = int(record["at"])
            end = at + int(record["duration"])
            for vertex, kind, sid, want in allocation_expectations(
                sim.graph, subsystem, selections, at, end, spans
            ):
                if kind == "filter":
                    planner, amount = vertex.prune_filters, want["counts"]
                else:
                    planner, amount = getattr(vertex, kind), want["request"]
                if planner is not None and not planner.has_span(sid):
                    planner.add_span(at, end - at, amount, span_id=sid)
                    booked += 1
        return booked
