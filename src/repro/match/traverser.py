"""The DFU traverser: graph matching, pruning and SDFU (paper §3.2-§3.4).

The traverser walks the resource graph store in depth-first order, matches an
abstract resource request graph (jobspec) against it, and emits the selected
resource set.  Three operations mirror Fluxion's match verbs:

* :meth:`Traverser.allocate` — match at a fixed time or fail;
* :meth:`Traverser.allocate_orelse_reserve` — match now, or reserve the
  earliest future window (conservative-backfill building block).  Candidate
  start times come from the containment root's pruning filter via
  ``PlannerMultiAvailTimeFirst`` (§4.1);
* :meth:`Traverser.satisfiable` — structural check against raw capacities,
  ignoring current allocations.

Pruning (§3.4): while collecting candidates the traverser consults each
interior vertex's pruning filter with the request's per-unit subtree demand
and skips subtrees that cannot satisfy it; exclusively-held vertices are
skipped outright.  After a successful match, the Scheduler-Driven Filter
Update (SDFU) books the selected amounts into every ancestor filter along the
selected paths only — the filters are never recomputed from scratch.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

import functools

from ..errors import (
    AllocationNotFoundError,
    MatchError,
    SchedulingDeadlineExceeded,
)
from ..jobspec import Jobspec, ResourceRequest
from ..obs import NULL_OBSERVER, Counter, MetricsRegistry, Observer
from ..resource import CONTAINMENT, ResourceGraph, ResourceVertex
from ..resource.vertex import X_LIMIT
from .policy import MatchPolicy, make_policy
from .writer import Allocation, Selection

if False:  # pragma: no cover - annotation-only imports
    from ..resilience.overload import WorkBudget

__all__ = ["Traverser", "Candidate", "exclusive_top_selections", "sdfu_charges"]


def exclusive_top_selections(
    selections: List[Selection], subsystem: str
) -> List[Selection]:
    """Exclusive selections not nested under another exclusive selection."""
    exclusive = [s for s in selections if s.exclusive and not s.passthrough]
    paths = [s.vertex.path(subsystem) for s in exclusive]
    tops = []
    for sel, path in zip(exclusive, paths):
        nested = any(
            other is not sel and path.startswith(other_path + "/")
            for other, other_path in zip(exclusive, paths)
        )
        if not nested:
            tops.append(sel)
    return tops


def sdfu_charges(
    graph: ResourceGraph, subsystem: str, selections: List[Selection]
) -> Dict[int, Dict[str, int]]:
    """Per-ancestor pruning-filter charges for a selection set (§3.4).

    Pure function of the graph and the selections: returns
    ``{ancestor uniq_id: {type: quantity}}`` in the deterministic order the
    charges are discovered — the same order :meth:`Traverser._book` books
    filter spans in.  Shared by SDFU at booking time and by the repair
    engine, which re-derives what the filters *should* hold from the
    allocation table alone.  Counts may include non-positive entries; the
    booking side filters those out.
    """
    prune_types = set(graph.prune_types)
    updates: Dict[int, Dict[str, int]] = {}
    if not prune_types:
        return updates

    # Sibling selections (cores under one node) share most of their ancestor
    # walk; cache the filtered ancestor list per vertex for this call.
    anc_cache: Dict[int, List[ResourceVertex]] = {}

    def charge(vertex: ResourceVertex, counts: Dict[str, int]) -> None:
        ancs = anc_cache.get(vertex.uniq_id)
        if ancs is None:
            ancs = [
                anc
                for anc in graph.ancestors(vertex, subsystem)
                if anc.prune_filters is not None
            ]
            anc_cache[vertex.uniq_id] = ancs
        for anc in ancs:
            filters = anc.prune_filters
            bucket = updates.setdefault(anc.uniq_id, {})
            for rtype, qty in counts.items():
                if filters.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty

    explicit = [s for s in selections if not s.passthrough and s.amount]
    for sel in explicit:
        if sel.type in prune_types:
            charge(sel.vertex, {sel.type: sel.amount})
    # Exclusive subtree extras: a top-level exclusive hold consumes its
    # whole subtree, so charge subtree totals minus explicit bookings.
    for sel in exclusive_top_selections(selections, subsystem):
        vertex = sel.vertex
        prefix = vertex.path(subsystem) + "/"
        extras = {
            t: n
            for t, n in graph.subtree_totals(vertex, subsystem).items()
            if t in prune_types
        }
        extras[vertex.type] = extras.get(vertex.type, 0) - vertex.size
        for other in explicit:
            if other.vertex is vertex:
                continue
            if other.vertex.path(subsystem).startswith(prefix):
                if other.type in extras:
                    extras[other.type] -= other.amount
        extras = {t: n for t, n in extras.items() if n > 0}
        if not extras:
            continue
        own = vertex.prune_filters
        if own is not None:
            bucket = updates.setdefault(vertex.uniq_id, {})
            for rtype, qty in extras.items():
                if own.tracks(rtype):
                    bucket[rtype] = bucket.get(rtype, 0) + qty
        charge(vertex, extras)
    return updates


class _StatsView(Mapping):
    """Deprecated read-only dict view over registry-backed counters.

    Kept so pre-observability callers (``t.stats["visits"]``,
    ``dict(t.stats)``) keep working; new code should read
    :attr:`Traverser.metrics` instead.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters: Dict[str, Counter]) -> None:
        self._counters = counters

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return repr({key: counter.value
                     for key, counter in self._counters.items()})


def _tracked_slice(
    filters, demand: Dict[str, int], cache: Dict[Tuple[str, ...], Dict[str, int]]
) -> Dict[str, int]:
    """The slice of ``demand`` a pruning filter tracks, memoized per filter
    type-set.

    Filters at the same graph level track identical type sets, so one
    ``_collect``/``_fill_count`` pass re-derives the same dict thousands of
    times; keying on ``filters.types`` collapses that to one comprehension
    per distinct set (otherwise a dict is built per visited vertex).
    """
    key = filters.types
    tracked = cache.get(key)
    if tracked is None:
        tracked = {t: n for t, n in demand.items() if n and filters.tracks(t)}
        cache[key] = tracked
    return tracked


@functools.lru_cache(maxsize=256)
def _compiled_requires(expression: str):
    from ..resource.expr import compile_expression

    return compile_expression(expression)


class Candidate:
    """A candidate vertex plus the interior vertices crossed to reach it.

    Slotted plain class: ``_collect`` materialises one per matching vertex
    per dispatch, so the per-instance dict a dataclass would carry is pure
    hot-path overhead.  Treated as immutable.
    """

    __slots__ = ("vertex", "via")

    def __init__(
        self,
        vertex: ResourceVertex,
        via: Tuple[ResourceVertex, ...] = (),
    ) -> None:
        self.vertex = vertex
        self.via = via

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Candidate):
            return NotImplemented
        return self.vertex == other.vertex and self.via == other.via

    def __hash__(self) -> int:
        return hash((self.vertex, self.via))

    def __repr__(self) -> str:
        return f"Candidate(vertex={self.vertex!r}, via={self.via!r})"


class _Tentative:
    """Journalled tentative bookings for one in-progress match.

    Quantities and exclusivity levels claimed so far are tracked per vertex;
    ``mark``/``rollback`` undo failed sub-matches cheaply.
    """

    __slots__ = ("qty", "x", "passthrough", "_journal")

    def __init__(self) -> None:
        self.qty: Dict[int, int] = {}
        self.x: Dict[int, int] = {}
        self.passthrough: set = set()
        self._journal: List[Tuple[str, int, int]] = []

    def add_qty(self, uid: int, amount: int) -> None:
        if amount:
            self.qty[uid] = self.qty.get(uid, 0) + amount
            self._journal.append(("q", uid, amount))

    def add_x(self, uid: int, amount: int) -> None:
        self.x[uid] = self.x.get(uid, 0) + amount
        self._journal.append(("x", uid, amount))

    def add_passthrough(self, uid: int) -> bool:
        """Record a pass-through visit; False when already recorded."""
        if uid in self.passthrough:
            return False
        self.passthrough.add(uid)
        self._journal.append(("p", uid, 0))
        return True

    def mark(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        while len(self._journal) > mark:
            kind, uid, amount = self._journal.pop()
            if kind == "q":
                self.qty[uid] -= amount
                if not self.qty[uid]:
                    del self.qty[uid]
            elif kind == "x":
                self.x[uid] -= amount
                if not self.x[uid]:
                    del self.x[uid]
            else:
                self.passthrough.discard(uid)


class Traverser:
    """Depth-first-and-up traverser over one subsystem of a resource graph.

    Parameters
    ----------
    graph:
        The resource graph store.
    policy:
        A :class:`~repro.match.policy.MatchPolicy` instance or registered
        policy name (``first``/``high``/``low``/``locality``/``variation``).
    prune:
        Enable pruning-filter consultation during candidate collection.
    subsystem:
        The subsystem to traverse (graph filtering, §3.3).
    max_reserve_iters:
        Safety bound on the candidate-time iteration of
        ``allocate_orelse_reserve``.
    obs:
        An :class:`repro.obs.Observer` for span tracing; counters always
        collect into :attr:`metrics` regardless (they are the paper's §6
        instrumentation and cost one attribute-add each).
    """

    def __init__(
        self,
        graph: ResourceGraph,
        policy: "MatchPolicy | str" = "first",
        prune: bool = True,
        subsystem: str = CONTAINMENT,
        max_reserve_iters: int = 100_000,
        obs: Optional[Observer] = None,
    ) -> None:
        self.graph = graph
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.prune = prune
        self.subsystem = subsystem
        self.max_reserve_iters = max_reserve_iters
        self.allocations: Dict[int, Allocation] = {}
        self._next_alloc_id = 1
        #: span tracing sink; replaced by ClusterSimulator(observe=...)
        self.obs = obs if obs is not None else NULL_OBSERVER
        #: per-traverser performance counters (always on; §6 numbers)
        self.metrics = MetricsRegistry()
        self._c_visits = self.metrics.counter(
            "dfu.visits", "graph vertices visited during collection")
        self._c_matched = self.metrics.counter(
            "dfu.matched", "successful full matches")
        self._c_failed = self.metrics.counter(
            "dfu.failed", "failed match/reserve attempts")
        self._c_reserve = self.metrics.counter(
            "dfu.reserve_iters", "candidate times tried by reserve search")
        self._c_filter_hits = self.metrics.counter(
            "sdfu.filter_hits", "pruning-filter consults that cut a subtree")
        self._c_filter_misses = self.metrics.counter(
            "sdfu.filter_misses", "pruning-filter consults that passed")
        self._c_sdfu_updates = self.metrics.counter(
            "sdfu.updates", "ancestor filters updated after a booking")
        self._c_deadline = self.metrics.counter(
            "dfu.deadline_cancels",
            "match attempts cut short by a scheduling deadline")
        self._stats_view = _StatsView({
            "visits": self._c_visits,
            "matched": self._c_matched,
            "failed": self._c_failed,
            "reserve_iters": self._c_reserve,
        })
        #: observer hooks: called with the Allocation after a booking is
        #: registered / after a removal completes (used by the recovery
        #: journal; None disables).
        self.on_book = None
        self.on_remove = None
        #: cooperative work budget (repro.resilience.overload): when an
        #: OverloadController attaches one for the duration of a dispatch
        #: cycle, candidate collection and the reservation search charge it
        #: and honour its cancellation checkpoints.  None = unbounded.
        self.budget: "Optional[WorkBudget]" = None

    @property
    def stats(self) -> _StatsView:
        """Deprecated: read-only dict view of :attr:`metrics` counters."""
        return self._stats_view

    @stats.setter
    def stats(self, values: "Mapping[str, int]") -> None:
        # Snapshot restore (repro.recovery.snapshot) assigns a plain dict;
        # write the values through to the backing counters.
        for key, counter in self._stats_view._counters.items():
            counter.value = int(values.get(key, 0))

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def allocate(self, jobspec: Jobspec, at: int = 0) -> Optional[Allocation]:
        """Match and book ``jobspec`` starting exactly at ``at``.

        Returns the Allocation, or None when the request cannot be satisfied
        at that time — including when an attached work budget's *attempt*
        deadline fires mid-traversal (partial verdict: treated as no-match;
        a *cycle*-scope deadline propagates to the overload controller).
        """
        with self.obs.tracer.span("dfu.match", "match", vt=float(at)):
            if self.budget is not None:
                self.budget.begin_attempt()
            try:
                selections = self._match_at(at, jobspec.duration, jobspec)
            except SchedulingDeadlineExceeded as exc:
                if exc.scope != "attempt":
                    raise
                self._c_deadline.inc()
                self._c_failed.inc()
                why = self.obs.why
                if why.enabled:
                    why.fail("deadline", scope=exc.scope)
                return None
            if selections is None:
                self._c_failed.inc()
                return None
            return self._book(selections, at, jobspec.duration, reserved=False)

    def allocate_orelse_reserve(
        self, jobspec: Jobspec, now: int = 0
    ) -> Optional[Allocation]:
        """Match at ``now`` or reserve the earliest future window.

        Candidate start times are produced by the containment root's pruning
        filter (install one with
        :meth:`~repro.resource.graph.ResourceGraph.install_pruning_filters`);
        each candidate is verified with a full match, and the first success
        is booked.  Returns None when the request can never fit.
        """
        with self.obs.tracer.span("dfu.reserve_search", "match", vt=float(now)):
            if self.budget is not None:
                self.budget.begin_attempt()
            try:
                return self._reserve_search(jobspec, now)
            except SchedulingDeadlineExceeded as exc:
                if exc.scope != "attempt":
                    raise
                self._c_deadline.inc()
                self._c_failed.inc()
                why = self.obs.why
                if why.enabled:
                    why.fail("deadline", scope=exc.scope)
                return None

    def _reserve_search(
        self, jobspec: Jobspec, now: int
    ) -> Optional[Allocation]:
        duration = jobspec.duration
        totals = jobspec.totals()
        # Availability only changes at scheduled points, so the earliest
        # feasible start is `now` or a later event: an allocation completing,
        # or any state change visible in a root pruning filter (which also
        # covers outage windows booked by CapacitySchedule).  Root filters
        # additionally *jump* the candidate time forward with the paper's
        # PlannerMultiAvailTimeFirst: times whose aggregate availability
        # cannot cover the request totals are skipped wholesale (§3.4, §4.1).
        why = self.obs.why
        horizon = self.graph.plan_end - duration
        if now > horizon:
            if why.enabled:
                why.fail("horizon", now=now, horizon=horizon)
            return None
        prefilters = [
            (root.prune_filters, {
                t: n for t, n in totals.items() if root.prune_filters.tracks(t)
            })
            for root in self.graph.roots(self.subsystem)
            if root.prune_filters is not None
        ]
        candidate = now
        for _ in range(self.max_reserve_iters):
            self._c_reserve.inc()
            if self.budget is not None:
                self.budget.charge(1)
            # Advance to the first aggregate-feasible time per every filter.
            stable = False
            while not stable:
                stable = True
                for filters, tracked in prefilters:
                    if not tracked:
                        continue
                    t = filters.avail_time_first(tracked, duration, candidate)
                    if t is None:
                        self._c_failed.inc()
                        if why.enabled:
                            why.fail(
                                "planner_time", after=candidate,
                                types=",".join(sorted(tracked)),
                            )
                        return None
                    if t > candidate:
                        candidate = t
                        stable = False
            if candidate > horizon:
                self._c_failed.inc()
                if why.enabled:
                    why.fail(
                        "planner_time", candidate=candidate, horizon=horizon
                    )
                return None
            selections = self._match_at(candidate, duration, jobspec)
            if selections is not None:
                return self._book(
                    selections, candidate, duration, reserved=candidate > now
                )
            # Aggregates were satisfied but the full match failed (spatial
            # fragmentation): move to the next event after the candidate.
            events = [
                a.end
                for a in self.allocations.values()
                if candidate < a.end <= horizon
            ]
            for filters, _ in prefilters:
                t = filters.next_event_time(candidate)
                if t is not None and t <= horizon:
                    events.append(t)
            if not events:
                break
            candidate = min(events)
        else:
            raise MatchError(
                f"reservation search exceeded {self.max_reserve_iters} "
                "candidate times"
            )
        self._c_failed.inc()
        if why.enabled:
            why.fail("reserve_exhausted", last_candidate=candidate)
        return None

    def reserve(self, jobspec: Jobspec, earliest: int = 0) -> Optional[Allocation]:
        """Reserve the earliest window at or after ``earliest`` (alias that
        never considers 'now' special; the result may still start at
        ``earliest``)."""
        return self.allocate_orelse_reserve(jobspec, now=earliest)

    def satisfiable(self, jobspec: Jobspec) -> bool:
        """Could ``jobspec`` ever match this graph, ignoring allocations?"""
        return self._match_at(None, jobspec.duration, jobspec) is not None

    def remove(self, alloc_id: int) -> Allocation:
        """Release an allocation or cancel a reservation."""
        try:
            alloc = self.allocations.pop(alloc_id)
        except KeyError:
            raise AllocationNotFoundError(alloc_id) from None
        for planner, span_id in alloc._span_records:
            planner.rem_span(span_id)
        alloc._span_records.clear()
        self.graph.note_release(alloc.end)
        if self.on_remove is not None:
            self.on_remove(alloc)
        return alloc

    def install_allocation(self, alloc: Allocation) -> None:
        """Register an externally rebuilt allocation (crash recovery).

        The allocation's planner spans must already be booked; this only
        re-registers the record and keeps future alloc ids disjoint.  The
        ``on_book`` hook is *not* fired — installation restores state, it
        does not create it.
        """
        if alloc.alloc_id in self.allocations:
            raise MatchError(
                f"allocation id {alloc.alloc_id} already registered"
            )
        self.allocations[alloc.alloc_id] = alloc
        self._next_alloc_id = max(self._next_alloc_id, alloc.alloc_id + 1)

    def remove_all(self) -> None:
        """Release every allocation made through this traverser."""
        for alloc_id in list(self.allocations):
            self.remove(alloc_id)

    def update_end(self, alloc_id: int, new_end: int) -> Allocation:
        """Extend or truncate an allocation's window in place (§5.5).

        Extension succeeds only when every booked vertex (and filter) has the
        capacity free over the added segment — reservations made after this
        allocation physically block it, so walltime extensions can never
        invalidate the schedule.  All-or-nothing: on failure the allocation
        is left exactly as it was and :class:`MatchError` is raised.
        """
        from ..errors import PlannerError

        try:
            alloc = self.allocations[alloc_id]
        except KeyError:
            raise AllocationNotFoundError(alloc_id) from None
        if new_end == alloc.end:
            return alloc
        old_end = alloc.end
        done = []
        try:
            for planner, span_id in alloc._span_records:
                planner.update_span_end(span_id, new_end)
                done.append((planner, span_id))
        except PlannerError as exc:
            for planner, span_id in done:
                planner.update_span_end(span_id, old_end)
            raise MatchError(
                f"cannot move allocation {alloc_id} end to {new_end}: {exc}"
            ) from exc
        alloc.duration = new_end - alloc.at
        if new_end < old_end:
            self.graph.note_release(old_end)
        return alloc

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _match_at(
        self, at: Optional[int], duration: int, jobspec: Jobspec
    ) -> Optional[List[Selection]]:
        """Match the whole jobspec at time ``at`` (None = capacity mode)."""
        if at is not None and at + duration > self.graph.plan_end:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "horizon", at=at, duration=duration,
                    plan_end=self.graph.plan_end,
                )
            return None
        tentative = _Tentative()
        out: List[Selection] = []
        ok = self._match_requests(
            None, list(jobspec.resources), at, duration, False, tentative, out
        )
        if ok:
            self._c_matched.inc()
            return out
        return None

    def _match_requests(
        self,
        parent: Optional[ResourceVertex],
        requests: List[ResourceRequest],
        at: Optional[int],
        duration: int,
        exclusive_ctx: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        for request in requests:
            if request.is_slot:
                # A slot is a grouping shape: its children are matched with
                # multiplied counts and forced exclusivity (paper §4.2).
                for child in request.with_:
                    scaled = replace(
                        child,
                        count=child.count * request.count,
                        count_max=(
                            None
                            if child.count_max is None
                            else child.count_max * request.count
                        ),
                    )
                    if not self._match_one(
                        parent, scaled, at, duration, True, tentative, out
                    ):
                        return False
            elif not self._match_one(
                parent, request, at, duration, exclusive_ctx, tentative, out
            ):
                return False
        return True

    def _match_one(
        self,
        parent: Optional[ResourceVertex],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive_ctx: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        exclusive = request.effective_exclusive(exclusive_ctx)
        demand = self._unit_demand(request)
        why = self.obs.why
        pre = why.mark() if why.enabled else 0
        candidates = self._collect(parent, request, at, duration, tentative, demand)
        if not candidates:
            if why.enabled:
                # No prune event fired during the walk → nothing of this
                # type exists in the searched region (type mismatch);
                # otherwise every instance was pruned (see prune buckets).
                why.fail(
                    "type" if why.mark() == pre else "no_candidates",
                    type=request.type,
                    under=parent.name if parent is not None else "",
                )
            return False
        quantity_mode = not request.with_ and any(
            c.vertex.size != 1 for c in candidates
        )
        ordered = self.policy.order(candidates, request)
        mark = tentative.mark()
        length = len(out)
        if quantity_mode:
            ok = self._fill_quantity(
                ordered, request, at, duration, exclusive, tentative, out
            )
        else:
            ok = self._fill_count(
                ordered, request, at, duration, exclusive, demand, tentative, out
            )
        if not ok:
            tentative.rollback(mark)
            del out[length:]
        return ok

    def _fill_quantity(
        self,
        ordered: List[Candidate],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        """Aggregate units across pool candidates greedily.

        Fills toward ``request.max_count`` and succeeds once at least
        ``request.count`` units are gathered (moldable ranges take what is
        available, §5.5).
        """
        remaining = request.max_count
        minimum = request.count
        for candidate in ordered:
            vertex = candidate.vertex
            uid = vertex.uniq_id
            avail = self._avail_qty(vertex, at, duration) - tentative.qty.get(uid, 0)
            if avail <= 0:
                continue
            if self._avail_x(vertex, at, duration) - tentative.x.get(uid, 0) < 1:
                continue
            take = min(avail, remaining)
            tentative.add_qty(uid, take)
            tentative.add_x(uid, 1)
            # Pool quantities are owned by amount, not by exclusivity: the
            # allocated units can never be shared, and locking the whole pool
            # would block other jobs from the remaining units (an exclusive
            # jobspec flag on a pool is equivalent to requesting it all).
            out.append(Selection(vertex, take, False))
            self._book_passthrough(candidate.via, at, duration, tentative, out)
            remaining -= take
            if remaining == 0:
                return True
        gathered = request.max_count - remaining
        if gathered < minimum:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "quantity", type=request.type,
                    needed=minimum, got=gathered,
                )
            return False
        return True

    def _fill_count(
        self,
        ordered: List[Candidate],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        demand: Dict[str, int],
        tentative: _Tentative,
        out: List[Selection],
    ) -> bool:
        """Select distinct vertices (``request.count`` up to
        ``request.max_count``), matching children inside each; greedy with
        per-candidate fallback (no cross-subtree backtracking, mirroring
        Fluxion's one-pass DFS)."""
        needed = request.max_count
        # demand is fixed for the whole fill, so feasibility checks across
        # candidates share one tracked-slice cache; _match_requests only
        # iterates its request list, so one copy serves every candidate.
        tracked_cache: Dict[Tuple[str, ...], Dict[str, int]] = {}
        children = list(request.with_)
        if self.policy.needs_full_feasible:
            feasible = [
                c
                for c in ordered
                if self._vertex_fits(
                    c.vertex, at, duration, exclusive, demand, tentative,
                    tracked_cache,
                )
            ]
            preference = self.policy.choose(feasible, needed, request) or []
        else:
            preference = ordered
        selected = 0
        used: set = set()
        for candidate in preference:
            if selected == needed:
                break
            vertex = candidate.vertex
            if vertex.uniq_id in used:
                continue
            if not self._vertex_fits(
                vertex, at, duration, exclusive, demand, tentative,
                tracked_cache,
            ):
                continue
            mark = tentative.mark()
            length = len(out)
            amount = vertex.size if exclusive else 0
            tentative.add_qty(vertex.uniq_id, amount)
            tentative.add_x(vertex.uniq_id, X_LIMIT if exclusive else 1)
            out.append(Selection(vertex, amount, exclusive))
            self._book_passthrough(candidate.via, at, duration, tentative, out)
            if children and not self._match_requests(
                vertex, children, at, duration, exclusive, tentative, out
            ):
                tentative.rollback(mark)
                del out[length:]
                continue
            used.add(vertex.uniq_id)
            selected += 1
        if selected < request.count:
            why = self.obs.why
            if why.enabled:
                why.fail(
                    "count", type=request.type,
                    needed=request.count, got=selected,
                )
            return False
        return True

    # ------------------------------------------------------------------
    # candidate collection and feasibility
    # ------------------------------------------------------------------
    def _collect(
        self,
        parent: Optional[ResourceVertex],
        request: ResourceRequest,
        at: Optional[int],
        duration: int,
        tentative: _Tentative,
        demand: Dict[str, int],
    ) -> List[Candidate]:
        """Gather candidate vertices of ``request.type`` reachable from
        ``parent`` (or the subsystem roots), pruning infeasible subtrees."""
        rtype = request.type
        predicate = (
            _compiled_requires(request.requires)
            if request.requires is not None
            else None
        )
        graph = self.graph
        if parent is None:
            frontier = [(root, ()) for root in graph.roots(self.subsystem)]
        else:
            frontier = [
                (child, ())
                for child in graph.children_tuple(parent, self.subsystem)
            ]
        # demand as seen from an interior vertex: one candidate + its subtree
        interior_demand = dict(demand)
        interior_demand[rtype] = interior_demand.get(rtype, 0) + 1
        stack = frontier[::-1]
        visited: set = set()
        results: List[Candidate] = []
        tracer = self.obs.tracer
        traced = tracer.enabled
        if traced:
            tracer.begin("dfu.collect", "match", rtype=rtype)
        budget = self.budget
        visits = 0
        filter_hits = 0
        filter_misses = 0
        # Hot-loop hoists: bind per-call invariants to locals so the
        # DFS body — run once per visited vertex — skips repeated attribute
        # lookups; memoize the tracked demand slice per filter type-set.
        prune = self.prune
        subsystem = self.subsystem
        children_tuple = graph.children_tuple
        tentative_x = tentative.x
        tracked_cache: Dict[Tuple[str, ...], Dict[str, int]] = {}
        # Decision provenance (null-twin pattern): one hoisted bool guards
        # every probe, so a disabled recorder costs a local truth test on
        # the prune paths only; the bound method is hoisted too.
        why = self.obs.why
        why_on = why.enabled
        why_prune = why.prune
        try:
            while stack:
                vertex, via = stack.pop()
                uid = vertex.uniq_id
                if uid in visited:
                    continue
                visited.add(uid)
                visits += 1
                if budget is not None:
                    # Cooperative cancellation checkpoint: may raise
                    # SchedulingDeadlineExceeded, aborting the walk with a
                    # partial verdict (the finally block still accounts the
                    # work already done).
                    budget.charge(1)
                if vertex.status != "up":
                    # drained vertices close their whole subtree
                    if why_on:
                        why_prune("down", vertex.type, vertex.name)
                    continue
                if vertex.type == rtype:
                    if predicate is None or predicate(vertex):
                        results.append(Candidate(vertex, via))
                    elif why_on:
                        why_prune("predicate", rtype, vertex.name)
                    continue
                if at is not None:
                    # Exclusively-held vertices close their whole subtree
                    # (§3.4).
                    if (
                        vertex.xplans.avail_resources_during(at, duration)
                        - tentative_x.get(uid, 0)
                        < 1
                    ):
                        if why_on:
                            why_prune("exclusive", vertex.type, vertex.name)
                        continue
                    if prune and vertex.prune_filters is not None:
                        filters = vertex.prune_filters
                        tracked = _tracked_slice(
                            filters, interior_demand, tracked_cache
                        )
                        if tracked:
                            if not filters.avail_during(at, duration, tracked):
                                filter_hits += 1
                                if why_on:
                                    why_prune("filter", vertex.type, vertex.name)
                                continue
                            filter_misses += 1
                children = children_tuple(vertex, subsystem)
                next_via = via + (vertex,)
                for child in reversed(children):
                    if child.uniq_id not in visited:
                        stack.append((child, next_via))
        finally:
            self._c_visits.inc(visits)
            if filter_hits:
                self._c_filter_hits.inc(filter_hits)
            if filter_misses:
                self._c_filter_misses.inc(filter_misses)
            if traced:
                tracer.end(visits=visits, candidates=len(results),
                           pruned=filter_hits)
        return results

    def _vertex_fits(
        self,
        vertex: ResourceVertex,
        at: Optional[int],
        duration: int,
        exclusive: bool,
        demand: Dict[str, int],
        tentative: _Tentative,
        tracked_cache: Optional[Dict[Tuple[str, ...], Dict[str, int]]] = None,
    ) -> bool:
        uid = vertex.uniq_id
        if exclusive:
            avail = self._avail_qty(vertex, at, duration) - tentative.qty.get(uid, 0)
            if avail < vertex.size:
                return False
            need_x = X_LIMIT
        else:
            need_x = 1
        if self._avail_x(vertex, at, duration) - tentative.x.get(uid, 0) < need_x:
            return False
        if (
            self.prune
            and at is not None
            and demand
            and vertex.prune_filters is not None
        ):
            filters = vertex.prune_filters
            tracked = _tracked_slice(
                filters,
                demand,
                tracked_cache if tracked_cache is not None else {},
            )
            if tracked:
                if not filters.avail_during(at, duration, tracked):
                    self._c_filter_hits.inc()
                    return False
                self._c_filter_misses.inc()
        return True

    def _book_passthrough(
        self,
        via: Tuple[ResourceVertex, ...],
        at: Optional[int],
        duration: int,
        tentative: _Tentative,
        out: List[Selection],
    ) -> None:
        """Record shared pass-through holds on interior vertices once each."""
        for vertex in via:
            if tentative.add_passthrough(vertex.uniq_id):
                tentative.add_x(vertex.uniq_id, 1)
                out.append(Selection(vertex, 0, False, passthrough=True))

    def _avail_qty(self, vertex: ResourceVertex, at: Optional[int], duration: int) -> int:
        if at is None:
            return vertex.size
        return vertex.plans.avail_resources_during(at, duration)

    def _avail_x(self, vertex: ResourceVertex, at: Optional[int], duration: int) -> int:
        if at is None:
            return X_LIMIT
        return vertex.xplans.avail_resources_during(at, duration)

    @staticmethod
    def _unit_demand(request: ResourceRequest) -> Dict[str, int]:
        """Per-instance subtree demand of ``request`` (excluding itself)."""
        demand: Dict[str, int] = {}

        def accumulate(req: ResourceRequest, multiplier: int) -> None:
            if not req.is_slot:
                demand[req.type] = demand.get(req.type, 0) + multiplier * req.count
            for child in req.with_:
                accumulate(child, multiplier * req.count)

        for child in request.with_:
            accumulate(child, 1)
        return demand

    # ------------------------------------------------------------------
    # booking and SDFU
    # ------------------------------------------------------------------
    def _book(
        self, selections: List[Selection], at: int, duration: int, reserved: bool
    ) -> Allocation:
        records: List[Tuple[object, int]] = []
        for sel in selections:
            vertex = sel.vertex
            if sel.amount:
                records.append(
                    (vertex.plans, vertex.plans.add_span(at, duration, sel.amount))
                )
            level = X_LIMIT if sel.exclusive else 1
            records.append(
                (vertex.xplans, vertex.xplans.add_span(at, duration, level))
            )
        self._sdfu(selections, at, duration, records)
        alloc = Allocation(
            alloc_id=self._next_alloc_id,
            at=at,
            duration=duration,
            reserved=reserved,
            selections=selections,
            _span_records=records,
        )
        self._next_alloc_id += 1
        self.allocations[alloc.alloc_id] = alloc
        if self.on_book is not None:
            self.on_book(alloc)
        return alloc

    def _sdfu(
        self,
        selections: List[Selection],
        at: int,
        duration: int,
        records: List[Tuple[object, int]],
    ) -> None:
        """Scheduler-Driven Filter Update (§3.4, Fig. 2).

        Book the selected amounts into the pruning filters of every ancestor
        along the selected paths, walking up only from what was chosen —
        never recomputing aggregates from the whole graph.  Exclusive
        selections additionally charge their full subtree totals (minus any
        explicitly selected descendants) so filters reflect that the subtree
        is closed to other jobs.  The charge computation itself lives in
        :func:`sdfu_charges` so the repair engine can re-derive it.
        """
        updates = sdfu_charges(self.graph, self.subsystem, selections)
        booked = 0
        for uid, counts in updates.items():
            counts = {t: n for t, n in counts.items() if n > 0}
            if not counts:
                continue
            filters = self.graph.vertex(uid).prune_filters
            records.append((filters, filters.add_span(at, duration, counts)))
            booked += 1
        if booked:
            self._c_sdfu_updates.inc(booked)

    def _exclusive_tops(self, selections: List[Selection]) -> List[Selection]:
        """Exclusive selections not nested under another exclusive selection."""
        return exclusive_top_selections(selections, self.subsystem)
