"""Variable system capacity: planned outages and maintenance windows (§5.5).

"Variable capacity in system resources" [Zhang & Chien] means the scheduler
must plan around capacity that comes and goes: maintenance windows, power
emergencies, cloud capacity leases.  With the graph model an outage is just
an exclusive hold on a subtree for a future window — reservations and
backfilling then route around it automatically, because the planners already
encode when the capacity disappears and returns.

:class:`CapacitySchedule` books and releases such windows, keeping the
pruning filters consistent the same way the traverser's SDFU does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ResourceGraphError
from ..resource import ResourceGraph, ResourceVertex
from ..resource.vertex import X_LIMIT

__all__ = ["CapacitySchedule", "Outage", "outage_charges"]


def outage_charges(
    graph: ResourceGraph, vertex: ResourceVertex
) -> Dict[int, Dict[str, int]]:
    """Pruning-filter charges of an outage on ``vertex``'s subtree.

    Pure function of the graph, shared by :meth:`CapacitySchedule.add_outage`
    and :func:`~repro.recovery.integrity.expected_span_table`: ``{uniq_id:
    {type: count}}`` for ``vertex`` and each filter-bearing ancestor, in
    booking order.  Pools count at their planners' totals, which equal
    ``vertex.size`` unless the structure fields the scrubber checks are
    damaged.
    """
    prune_types = set(graph.prune_types)
    totals: Dict[str, int] = {}
    for v in [vertex, *graph.descendants(vertex)]:
        if v.type in prune_types and v.plans.total:
            totals[v.type] = totals.get(v.type, 0) + v.plans.total
    charges: Dict[int, Dict[str, int]] = {}
    for target in [vertex, *graph.ancestors(vertex)]:
        filters = target.prune_filters
        if filters is None:
            continue
        tracked = {t: n for t, n in totals.items() if filters.tracks(t)}
        if tracked:
            charges[target.uniq_id] = tracked
    return charges


@dataclass
class Outage:
    """A planned capacity removal of one subtree over ``[start, end)``."""

    outage_id: int
    vertex: ResourceVertex
    start: int
    end: int
    reason: str = ""
    _span_records: List[Tuple[object, int]] = field(default_factory=list,
                                                    repr=False)


class CapacitySchedule:
    """Planned-outage manager over one resource graph.

    Outages are booked exactly like exclusive allocations: full pool size on
    every vertex of the subtree, the exclusivity level on their x-planners,
    and subtree totals into every pruning filter above — so matching,
    reservations and ``avail_time_first`` all see the window without any
    special-casing.  Each schedule registers in ``graph.capacity_schedules``
    so the integrity checkers account for its outages.
    """

    def __init__(self, graph: ResourceGraph) -> None:
        self.graph = graph
        graph.capacity_schedules.append(self)
        self.outages: Dict[int, Outage] = {}
        self._next_id = 1

    def add_outage(
        self,
        vertex: ResourceVertex,
        start: int,
        duration: int,
        reason: str = "",
    ) -> Outage:
        """Take ``vertex`` and its subtree offline over ``[start, start+duration)``.

        Raises :class:`ResourceGraphError` when any affected vertex already
        has conflicting bookings in the window (drain jobs first, or pick a
        window the planners show as free).
        """
        records: List[Tuple[object, int]] = []
        try:
            for v in [vertex, *self.graph.descendants(vertex)]:
                pool = v.plans.total
                if pool:
                    records.append(
                        (v.plans, v.plans.add_span(start, duration, pool))
                    )
                records.append(
                    (v.xplans, v.xplans.add_span(start, duration, X_LIMIT))
                )
            for uniq_id, counts in outage_charges(self.graph, vertex).items():
                filters = self.graph.vertex(uniq_id).prune_filters
                records.append(
                    (filters, filters.add_span(start, duration, counts))
                )
        except BaseException:
            # BaseException on purpose: rollback must also run when the
            # failure is a SimulatedCrash (which bypasses Exception so that
            # ordinary handlers cannot swallow it).  The bare raise keeps the
            # original cause intact.
            for planner, span_id in records:
                planner.rem_span(span_id)
            raise
        outage = Outage(
            outage_id=self._next_id,
            vertex=vertex,
            start=start,
            end=start + duration,
            reason=reason,
            _span_records=records,
        )
        self._next_id += 1
        self.outages[outage.outage_id] = outage
        return outage

    def cancel(self, outage_id: int) -> Outage:
        """Cancel a planned outage, restoring the capacity."""
        try:
            outage = self.outages.pop(outage_id)
        except KeyError:
            raise ResourceGraphError(f"unknown outage {outage_id}") from None
        for planner, span_id in outage._span_records:
            planner.rem_span(span_id)
        outage._span_records.clear()
        self.graph.note_release(outage.end)
        return outage

    def capacity_at(self, rtype: str, at: int) -> int:
        """Schedulable capacity of ``rtype`` at instant ``at`` (excludes both
        outages and job allocations)."""
        return sum(
            v.plans.avail_resources_at(at) for v in self.graph.vertices(rtype)
        )

    def offline_at(self, at: int) -> List[Outage]:
        """Outages active at instant ``at``."""
        return [o for o in self.outages.values() if o.start <= at < o.end]
