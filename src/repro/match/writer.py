"""Match writers: the selected resource set a match emits (paper §3.2 step 7).

A successful traversal produces an :class:`Allocation` — the best-matching
resource subgraph with per-vertex amounts and exclusivity — which the
underlying resource manager uses to contain, bind and execute the job.  The
``to_rlite`` form mirrors Flux's R-lite allocation documents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import RecoveryError
from ..resource import ResourceGraph, ResourceVertex

__all__ = ["Selection", "Allocation", "planner_owner_index"]


def planner_owner_index(graph: ResourceGraph) -> Dict[int, Tuple[str, str]]:
    """Map ``id(planner object)`` -> ``(vertex name, kind)`` for every
    planner a graph owns (``plans``, ``xplans`` and pruning ``filter``).

    Allocation span records hold bare planner references; this index lets
    :meth:`Allocation.to_record` name them durably.
    """
    index: Dict[int, Tuple[str, str]] = {}
    for vertex in graph.vertices():
        index[id(vertex.plans)] = (vertex.name, "plans")
        index[id(vertex.xplans)] = (vertex.name, "xplans")
        if vertex.prune_filters is not None:
            index[id(vertex.prune_filters)] = (vertex.name, "filter")
    return index


class Selection:
    """One vertex's contribution to an allocation.

    ``amount`` is the pool quantity taken (0 for shared pass-through
    vertices, which participate only for exclusivity tracking); ``exclusive``
    marks a whole-pool exclusive hold; ``passthrough`` marks interior
    vertices on the path between the request level and the selected
    resources.

    Slotted plain class: every match emits one Selection per
    booked vertex, and the per-instance dict a dataclass carries is
    measurable overhead at fill-the-machine rates.  Treated as immutable.
    """

    __slots__ = ("vertex", "amount", "exclusive", "passthrough")

    def __init__(
        self,
        vertex: ResourceVertex,
        amount: int,
        exclusive: bool = False,
        passthrough: bool = False,
    ) -> None:
        self.vertex = vertex
        self.amount = amount
        self.exclusive = exclusive
        self.passthrough = passthrough

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Selection):
            return NotImplemented
        return (
            self.vertex == other.vertex
            and self.amount == other.amount
            and self.exclusive == other.exclusive
            and self.passthrough == other.passthrough
        )

    def __hash__(self) -> int:
        return hash((self.vertex, self.amount, self.exclusive, self.passthrough))

    def __repr__(self) -> str:
        return (
            f"Selection(vertex={self.vertex!r}, amount={self.amount!r}, "
            f"exclusive={self.exclusive!r}, passthrough={self.passthrough!r})"
        )

    @property
    def type(self) -> str:
        return self.vertex.type


class Allocation:
    """A booked (or reserved) resource set.

    Attributes
    ----------
    alloc_id:
        Traverser-unique id; pass to ``Traverser.remove`` to free.
    at, duration:
        The booked window ``[at, at + duration)``.
    reserved:
        True when the allocation starts in the future (a reservation made by
        ``allocate_orelse_reserve``).
    selections:
        Every vertex booked, including shared pass-through vertices.
    _span_records:
        (planner-like object, span id) pairs to undo on removal;
        planner-like is a Planner (vertex plans/xplans) or PlannerMulti
        (pruning filter).

    Slotted plain class: one Allocation per successful match, so the
    per-instance dict a dataclass carries is overhead on every booking.
    Mirrors the former (non-frozen) dataclass: equality compares all
    fields and instances are unhashable.
    """

    __slots__ = (
        "alloc_id", "at", "duration", "reserved", "selections",
        "_span_records",
    )

    def __init__(
        self,
        alloc_id: int,
        at: int,
        duration: int,
        reserved: bool,
        selections: List[Selection],
        _span_records: Optional[List[Tuple[object, int]]] = None,
    ) -> None:
        self.alloc_id = alloc_id
        self.at = at
        self.duration = duration
        self.reserved = reserved
        self.selections = selections
        self._span_records = [] if _span_records is None else _span_records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (
            self.alloc_id == other.alloc_id
            and self.at == other.at
            and self.duration == other.duration
            and self.reserved == other.reserved
            and self.selections == other.selections
            and self._span_records == other._span_records
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Allocation(alloc_id={self.alloc_id!r}, at={self.at!r}, "
            f"duration={self.duration!r}, reserved={self.reserved!r}, "
            f"selections={self.selections!r})"
        )

    @property
    def end(self) -> int:
        return self.at + self.duration

    def resources(self) -> List[Selection]:
        """Selections that carry actual resources (non-pass-through)."""
        return [s for s in self.selections if not s.passthrough]

    def vertices_of_type(self, rtype: str) -> List[ResourceVertex]:
        """Selected (non-pass-through) vertices of ``rtype``."""
        return [s.vertex for s in self.selections if not s.passthrough and s.type == rtype]

    def nodes(self) -> List[ResourceVertex]:
        """Convenience: selected compute nodes."""
        return self.vertices_of_type("node")

    def amount_of(self, rtype: str) -> int:
        """Total quantity of ``rtype`` in the allocation."""
        return sum(
            s.amount for s in self.selections if not s.passthrough and s.type == rtype
        )

    def to_rlite(self) -> dict:
        """R-lite-style document: per-path type/amount/exclusive entries."""
        children = [
            {
                "path": s.vertex.path("containment"),
                "type": s.type,
                "count": s.amount,
                "exclusive": s.exclusive,
            }
            for s in self.selections
            if not s.passthrough
        ]
        return {
            "version": 1,
            "execution": {
                "starttime": self.at,
                "expiration": self.end,
                "reserved": self.reserved,
            },
            "resources": children,
        }

    def to_rv1(self) -> dict:
        """R version-1 style document: R-lite resources plus a scheduling
        section carrying the full per-vertex detail (Fluxion attaches its
        scheduler-specific view under ``scheduling``)."""
        rlite = self.to_rlite()
        return {
            "version": 1,
            "execution": rlite["execution"],
            "scheduling": {
                "resources": [
                    {
                        "path": s.vertex.path("containment"),
                        "type": s.type,
                        "basename": s.vertex.basename,
                        "id": s.vertex.id,
                        "count": s.amount,
                        "exclusive": s.exclusive,
                        "passthrough": s.passthrough,
                    }
                    for s in self.selections
                ],
            },
            "resources": rlite["resources"],
        }

    # ------------------------------------------------------------------
    # snapshot records (crash recovery)
    # ------------------------------------------------------------------
    def to_record(self, planner_owner: Mapping[int, Tuple[str, str]]) -> dict:
        """Serialise this allocation for a scheduler snapshot.

        Unlike :meth:`to_rlite`, the record keeps everything needed to
        *re-install* the allocation exactly: pass-through selections and the
        ``(vertex, planner kind, span id)`` triples behind ``_span_records``.
        ``planner_owner`` maps ``id(planner_obj)`` to ``(vertex name, kind)``
        — build it with :func:`planner_owner_index`.
        """
        spans = []
        for planner, span_id in self._span_records:
            try:
                name, kind = planner_owner[id(planner)]
            except KeyError:
                raise RecoveryError(
                    f"allocation {self.alloc_id} books a planner not owned "
                    "by any graph vertex"
                ) from None
            spans.append({"vertex": name, "kind": kind, "span_id": span_id})
        return {
            "alloc_id": self.alloc_id,
            "at": self.at,
            "duration": self.duration,
            "reserved": self.reserved,
            "selections": [
                {
                    "vertex": s.vertex.name,
                    "amount": s.amount,
                    "exclusive": s.exclusive,
                    "passthrough": s.passthrough,
                }
                for s in self.selections
            ],
            "spans": spans,
        }

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, Any],
        by_name: Mapping[str, ResourceVertex],
    ) -> "Allocation":
        """Rebuild an allocation from :meth:`to_record` output.

        ``by_name`` maps vertex names to the (already restored) graph's
        vertices; the referenced planner spans must already exist — the
        recovery layer imports planner state before rewiring allocations.
        """

        def vertex_of(name: str) -> ResourceVertex:
            try:
                return by_name[name]
            except KeyError:
                raise RecoveryError(
                    f"allocation record references unknown vertex {name!r}"
                ) from None

        selections = [
            Selection(
                vertex=vertex_of(s["vertex"]),
                amount=int(s["amount"]),
                exclusive=bool(s["exclusive"]),
                passthrough=bool(s["passthrough"]),
            )
            for s in record["selections"]
        ]
        span_records: List[Tuple[object, int]] = []
        for entry in record["spans"]:
            vertex = vertex_of(entry["vertex"])
            kind = entry["kind"]
            span_id = int(entry["span_id"])
            if kind == "plans":
                planner: object = vertex.plans
                present = vertex.plans.has_span(span_id)
            elif kind == "xplans":
                planner = vertex.xplans
                present = vertex.xplans.has_span(span_id)
            elif kind == "filter":
                planner = vertex.prune_filters
                present = planner is not None and planner.has_span(span_id)
            else:
                raise RecoveryError(f"unknown planner kind {kind!r}")
            if not present:
                raise RecoveryError(
                    f"allocation record references missing {kind} span "
                    f"{span_id} on vertex {vertex.name!r}"
                )
            span_records.append((planner, span_id))
        return cls(
            alloc_id=int(record["alloc_id"]),
            at=int(record["at"]),
            duration=int(record["duration"]),
            reserved=bool(record["reserved"]),
            selections=selections,
            _span_records=span_records,
        )

    def to_pretty(self) -> str:
        """Render the selected resource set as an indented tree (Fluxion's
        "pretty" match writer): one line per selection, nested by containment
        path, pass-through vertices shown without amounts."""
        entries = sorted(
            self.selections, key=lambda s: s.vertex.path("containment")
        )
        lines = []
        for sel in entries:
            path = sel.vertex.path("containment")
            depth = max(path.count("/") - 1, 0)
            indent = "  " * depth
            if sel.passthrough:
                lines.append(f"{indent}{sel.vertex.name}")
            else:
                marker = "!" if sel.exclusive else ""
                amount = f"[{sel.amount}{sel.vertex.unit}]" if sel.amount else ""
                lines.append(f"{indent}{sel.vertex.name}{marker}{amount}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line description, e.g. ``t=[0,3600) node0{core:10,memory:8}``."""
        by_type: Dict[str, int] = {}
        for s in self.resources():
            by_type[s.type] = by_type.get(s.type, 0) + s.amount
        body = ",".join(f"{t}:{n}" for t, n in sorted(by_type.items()))
        flag = " reserved" if self.reserved else ""
        return f"t=[{self.at},{self.end}){flag} {{{body}}}"
