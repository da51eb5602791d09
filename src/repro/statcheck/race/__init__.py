"""fluxrace: whole-program concurrency-readiness analysis.

Before ROADMAP item 1 wraps :class:`~repro.sched.simulator.ClusterSimulator`
in a long-running multi-tenant service, fluxrace answers mechanically:
*what state is shared, and who guards it?*  It joins the checked-in
service-entrypoint manifest (``statcheck-entrypoints.json``) with the
fluxflow call graph and escape summaries; the whole-program engine
(:mod:`repro.statcheck.engine`) runs the RACE001-004 rules over it (see
docs/static_analysis.md).  ``statcheck-race-baseline.json`` is the
ranked de-globalization worklist for the service PR.
"""

from .model import (
    DEFAULT_ENTRYPOINTS,
    ENTRYPOINTS_VERSION,
    EntryPoint,
    RaceModel,
    SharedClassAttr,
    SharedGlobal,
    load_entrypoints,
    render_race_report,
)
from .rules import (
    BlockingCallRule,
    GlobalMutableStateRule,
    GuardDisciplineRule,
    SharedEscapeRule,
)

__all__ = [
    "DEFAULT_ENTRYPOINTS",
    "ENTRYPOINTS_VERSION",
    "EntryPoint",
    "RaceModel",
    "SharedClassAttr",
    "SharedGlobal",
    "load_entrypoints",
    "render_race_report",
    "GlobalMutableStateRule",
    "BlockingCallRule",
    "SharedEscapeRule",
    "GuardDisciplineRule",
]
