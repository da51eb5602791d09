"""Worklist fixpoint solvers for fluxflow.

Two solvers, both classic chaotic iteration over a monotone transfer
function on a finite lattice:

* :func:`solve_cfg` — forward data-flow over one function's control-flow
  graph (:mod:`repro.statcheck.flow.cfg`).  Exception edges propagate the
  *pre*-state of the raising statement (the statement's effects are assumed
  not to have happened when it raised), normal edges propagate the
  post-state.
* :func:`solve_summaries` — fixpoint over a dependency graph of function
  summaries: recompute a function whenever one of its callees' summaries
  changed, until nothing changes.  Used for the interprocedural
  release/escape/mutation summaries and taint seeds.

Both terminate because states grow monotonically in finite lattices
(sets of facts drawn from the finite program text).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, Iterable, Set, TypeVar

__all__ = ["solve_cfg", "solve_summaries"]

S = TypeVar("S")
K = TypeVar("K", bound=Hashable)


def solve_cfg(
    cfg: "object",
    init: S,
    bottom: S,
    transfer: Callable[["object", S], S],
    join: Callable[[S, S], S],
    max_iterations: int = 100_000,
) -> Dict[int, S]:
    """Forward worklist solve; returns the IN state per node id.

    ``cfg`` is a :class:`repro.statcheck.flow.cfg.CFG`; ``transfer`` maps a
    node's IN state to its normal-exit OUT state.  The solver iterates to a
    fixpoint (bounded by ``max_iterations`` as a defensive backstop against
    a non-monotone transfer — never hit in practice).
    """
    IN: Dict[int, S] = {node.node_id: bottom for node in cfg.nodes}
    IN[cfg.entry.node_id] = init
    # Seed with every node: transfer effects must be applied at least once
    # even when no IN state differs from bottom yet.
    work = deque(cfg.nodes)
    queued: Set[int] = {node.node_id for node in cfg.nodes}
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive
            break
        node = work.popleft()
        queued.discard(node.node_id)
        in_state = IN[node.node_id]
        out_state = transfer(node, in_state)
        for succ, is_exception in node.succs:
            flowed = in_state if is_exception else out_state
            merged = join(IN[succ.node_id], flowed)
            if merged != IN[succ.node_id]:
                IN[succ.node_id] = merged
                if succ.node_id not in queued:
                    queued.add(succ.node_id)
                    work.append(succ)
    return IN


def solve_summaries(
    keys: Iterable[K],
    dependents: Callable[[K], Iterable[K]],
    recompute: Callable[[K], bool],
    max_iterations: int = 1_000_000,
) -> None:
    """Iterate ``recompute`` over ``keys`` until stable.

    ``recompute(key)`` returns True when the summary for ``key`` changed;
    ``dependents(key)`` yields the keys whose summaries read ``key``'s (for
    call summaries: the callers of ``key``).  Every key is computed at
    least once.
    """
    work = deque(keys)
    queued: Set[K] = set(work)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive
            break
        key = work.popleft()
        queued.discard(key)
        if recompute(key):
            for dep in dependents(key):
                if dep not in queued:
                    queued.add(dep)
                    work.append(dep)
