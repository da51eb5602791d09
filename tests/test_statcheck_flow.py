"""Tests for fluxflow — the interprocedural analyses (ISSUE 4 tentpole).

Covers the substrate (module resolution, call graph, CFG, summaries), the
four analyses (SPAN001, DET002, EXC002, JRN002) on planted interprocedural
fixtures and their negatives, the baseline gate, the CLI integration, and
the tree-clean + speed acceptance criteria.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import time

import pytest

from repro.errors import FluxionError
from repro.statcheck import CATALOGUE, ProgramEngine, Violation, analyze_sources
from repro.statcheck.cli import main
from repro.statcheck.flow import (
    FlowProgram,
    apply_baseline,
    build_call_graph,
    build_cfg,
    compute_summaries,
    load_baseline,
    save_baseline,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def rules_of(violations):
    return sorted({v.rule for v in violations})


# ---------------------------------------------------------------------------
# program model + call graph
# ---------------------------------------------------------------------------


class TestProgramModel:
    def test_module_names_from_virtual_paths(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/__init__.py": "",
                "src/repro/sched/__init__.py": "",
                "src/repro/sched/ops.py": "def f():\n    return 1\n",
            }
        )
        assert "repro.sched.ops" in program.modules
        assert "repro.sched.ops.f" in program.functions

    def test_fallback_name_without_packages(self):
        program = FlowProgram.from_sources(
            {"src/repro/sched/ops.py": "def f():\n    return 1\n"}
        )
        assert "repro.sched.ops" in program.modules

    def test_from_import_resolution(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/a.py": "def helper():\n    return 1\n",
                "src/repro/b.py": (
                    "from repro.a import helper\n\n"
                    "def caller():\n    return helper()\n"
                ),
            }
        )
        graph = build_call_graph(program)
        fn = program.functions["repro.b.caller"]
        (site,) = graph.sites_in(fn)
        assert site.callee is not None
        assert site.callee.qualname == "repro.a.helper"

    def test_relative_import_resolution(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/__init__.py": "",
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/a.py": "def helper():\n    return 1\n",
                "src/repro/pkg/b.py": (
                    "from .a import helper\n\n"
                    "def caller():\n    return helper()\n"
                ),
            }
        )
        graph = build_call_graph(program)
        (site,) = graph.sites_in(program.functions["repro.pkg.b.caller"])
        assert site.callee.qualname == "repro.pkg.a.helper"

    def test_reexport_chasing_through_package_init(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/__init__.py": "",
                "src/repro/pkg/__init__.py": "from .impl import helper\n",
                "src/repro/pkg/impl.py": "def helper():\n    return 1\n",
                "src/repro/use.py": (
                    "from repro.pkg import helper\n\n"
                    "def caller():\n    return helper()\n"
                ),
            }
        )
        graph = build_call_graph(program)
        (site,) = graph.sites_in(program.functions["repro.use.caller"])
        assert site.callee.qualname == "repro.pkg.impl.helper"

    def test_self_method_resolution(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/c.py": (
                    "class C:\n"
                    "    def helper(self):\n"
                    "        return 1\n\n"
                    "    def caller(self):\n"
                    "        return self.helper()\n"
                )
            }
        )
        graph = build_call_graph(program)
        (site,) = graph.sites_in(program.functions["repro.c.C.caller"])
        assert site.callee.qualname == "repro.c.C.helper"
        assert site.bound

    def test_attr_type_method_resolution(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/d.py": (
                    "class Graph:\n"
                    "    def vertex(self, ref):\n"
                    "        return ref\n\n"
                    "class Sim:\n"
                    "    def __init__(self):\n"
                    "        self.graph = Graph()\n\n"
                    "    def step(self):\n"
                    "        return self.graph.vertex(0)\n"
                )
            }
        )
        graph = build_call_graph(program)
        sites = graph.sites_in(program.functions["repro.d.Sim.step"])
        callees = {s.callee.qualname for s in sites if s.callee}
        assert "repro.d.Graph.vertex" in callees

    def test_annotated_param_attr_type(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/e.py": (
                    "class Graph:\n"
                    "    def vertex(self, ref):\n"
                    "        return ref\n\n"
                    "class Sim:\n"
                    "    def __init__(self, graph: Graph):\n"
                    "        self.graph = graph\n\n"
                    "    def step(self):\n"
                    "        return self.graph.vertex(0)\n"
                )
            }
        )
        ci = program.classes["repro.e.Sim"]
        assert ci.attr_types["graph"] == "repro.e.Graph"

    def test_base_class_method_lookup(self):
        program = FlowProgram.from_sources(
            {
                "src/repro/f.py": (
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return 1\n\n"
                    "class Child(Base):\n"
                    "    def caller(self):\n"
                    "        return self.helper()\n"
                )
            }
        )
        graph = build_call_graph(program)
        (site,) = graph.sites_in(program.functions["repro.f.Child.caller"])
        assert site.callee.qualname == "repro.f.Base.helper"


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


def _cfg_of(source):
    func = ast.parse(source).body[0]
    return build_cfg(func)


class TestCFG:
    def test_straight_line(self):
        cfg = _cfg_of("def f():\n    a = 1\n    return a\n")
        # entry -> a=1 -> return -> exit
        succs = {n.node_id: [t.node_id for t, _ in n.succs] for n in cfg.nodes}
        assert succs[cfg.entry.node_id]
        assert any(cfg.exit.node_id in s for s in succs.values())

    def test_if_join(self):
        cfg = _cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
        cond = [n for n in cfg.nodes if n.kind == "cond"]
        assert len(cond) == 1
        assert len(cond[0].succs) == 2  # then + else

    def test_loop_back_edge(self):
        cfg = _cfg_of("def f(xs):\n    for x in xs:\n        y = x\n    return 1\n")
        head = [n for n in cfg.nodes if n.kind == "cond"][0]
        body = [t for t, _ in head.succs if t.kind == "stmt"]
        assert body, "loop head must reach the body"
        assert any(t is head for t, _ in body[0].succs), "missing back edge"

    def test_try_exception_edges(self):
        cfg = _cfg_of(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        cleanup()\n"
            "    return 1\n"
        )
        risky = [
            n
            for n in cfg.nodes
            if n.kind == "stmt" and getattr(n.stmt, "lineno", 0) == 3
        ][0]
        assert any(is_exc for _, is_exc in risky.succs), (
            "statements inside try need exception successors"
        )

    def test_finally_on_return_path(self):
        cfg = _cfg_of(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        cleanup()\n"
        )
        ret = [n for n in cfg.nodes if isinstance(n.stmt, ast.Return)][0]
        # The return must NOT go straight to exit: it routes via the finally.
        direct = [t for t, is_exc in ret.succs if not is_exc]
        assert cfg.exit not in direct
        cleanup = [
            n
            for n in cfg.nodes
            if n.kind == "stmt" and getattr(n.stmt, "lineno", 0) == 5
        ][0]
        assert any(t is cfg.exit for t, _ in cleanup.succs), (
            "finally body must continue to the requested return"
        )


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


class TestSummaries:
    def _table(self, sources):
        program = FlowProgram.from_sources(sources)
        graph = build_call_graph(program)
        return program, compute_summaries(program, graph)

    def test_inert_param(self):
        _, table = self._table(
            {
                "src/repro/s.py": (
                    "def check(span_id):\n"
                    "    if span_id > 0:\n"
                    "        pass\n"
                )
            }
        )
        summary = table.get("repro.s.check").params["span_id"]
        assert summary.inert

    def test_releasing_param(self):
        _, table = self._table(
            {
                "src/repro/s.py": (
                    "def free(planner, sid):\n"
                    "    planner.rem_span(sid)\n"
                )
            }
        )
        assert table.get("repro.s.free").params["sid"].releases

    def test_transitively_releasing_param(self):
        _, table = self._table(
            {
                "src/repro/s.py": (
                    "def free(planner, sid):\n"
                    "    planner.rem_span(sid)\n\n"
                    "def free2(planner, sid):\n"
                    "    free(planner, sid)\n"
                )
            }
        )
        assert table.get("repro.s.free2").params["sid"].releases

    def test_escaping_param(self):
        _, table = self._table(
            {"src/repro/s.py": "def keep(store, sid):\n    store.append(sid)\n"}
        )
        assert table.get("repro.s.keep").params["sid"].escapes

    def test_mutates_self_direct_and_transitive(self):
        _, table = self._table(
            {
                "src/repro/s.py": (
                    "class S:\n"
                    "    def _admit(self, job):\n"
                    "        self.jobs.append(job)\n\n"
                    "    def outer(self, job):\n"
                    "        self._admit(job)\n"
                )
            }
        )
        assert table.get("repro.s.S._admit").mutates_self
        outer = table.get("repro.s.S.outer")
        assert outer.mutates_self
        assert outer.mutation.chain == ("_admit",)


# ---------------------------------------------------------------------------
# SPAN001
# ---------------------------------------------------------------------------


class TestSpanLeak:
    def test_interprocedural_leak_through_helper(self):
        violations = analyze_sources(
            {
                "src/repro/planner/book.py": (
                    "from repro.planner.check import check_span\n\n"
                    "def book(planner, start, dur):\n"
                    "    sid = planner.add_span(start, dur)\n"
                    "    check_span(sid)\n"
                    "    return None\n"
                ),
                "src/repro/planner/check.py": (
                    "def check_span(span_id):\n"
                    "    if span_id > 0:\n"
                    "        pass\n"
                ),
            },
            select=["SPAN001"],
        )
        assert len(violations) == 1
        v = violations[0]
        # Reported at the exact acquire site, with the consulted helper chain.
        assert (v.path, v.line) == ("src/repro/planner/book.py", 4)
        assert "check_span" in v.message
        assert "sid" in v.message

    def test_negative_released_in_finally(self):
        violations = analyze_sources(
            {
                "src/repro/planner/book.py": (
                    "def book(planner, start, dur):\n"
                    "    sid = planner.add_span(start, dur)\n"
                    "    try:\n"
                    "        planner.check(sid)\n"
                    "    finally:\n"
                    "        planner.rem_span(sid)\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert violations == []

    def test_negative_released_by_helper(self):
        violations = analyze_sources(
            {
                "src/repro/planner/book.py": (
                    "from repro.planner.free import free_span\n\n"
                    "def book(planner, start, dur):\n"
                    "    sid = planner.add_span(start, dur)\n"
                    "    free_span(planner, sid)\n"
                    "    return True\n"
                ),
                "src/repro/planner/free.py": (
                    "def free_span(planner, sid):\n"
                    "    planner.rem_span(sid)\n"
                ),
            },
            select=["SPAN001"],
        )
        assert violations == []

    def test_negative_escapes(self):
        violations = analyze_sources(
            {
                "src/repro/planner/esc.py": (
                    "def returned(planner, s, d):\n"
                    "    sid = planner.add_span(s, d)\n"
                    "    return sid\n\n"
                    "def stored(book, planner, s, d):\n"
                    "    book.spans[s] = planner.add_span(s, d)\n"
                    "    return True\n\n"
                    "def nested(records, plans, s, d):\n"
                    "    records.append((plans, plans.add_span(s, d)))\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert violations == []

    def test_negative_explicit_span_id_is_reinsert(self):
        violations = analyze_sources(
            {
                "src/repro/planner/re.py": (
                    "def reinsert(planner, rec):\n"
                    "    planner.add_span(rec['start'], rec['dur'], "
                    "span_id=rec['id'])\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert violations == []

    def test_exception_path_leak(self):
        violations = analyze_sources(
            {
                "src/repro/planner/exc.py": (
                    "def shaky(planner, s, d):\n"
                    "    sid = planner.add_span(s, d)\n"
                    "    try:\n"
                    "        planner.validate(sid)\n"
                    "    except ValueError:\n"
                    "        return None\n"
                    "    planner.rem_span(sid)\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert [v.line for v in violations] == [2]

    def test_rebind_loses_handle(self):
        violations = analyze_sources(
            {
                "src/repro/planner/rb.py": (
                    "def rebind(planner, s, d):\n"
                    "    sid = planner.add_span(s, d)\n"
                    "    sid = planner.add_span(s + 1, d)\n"
                    "    planner.rem_span(sid)\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert len(violations) == 1
        assert violations[0].line == 2
        assert "overwritten" in violations[0].message

    def test_discarded_result(self):
        violations = analyze_sources(
            {
                "src/repro/planner/drop.py": (
                    "def drop(planner, s, d):\n"
                    "    planner.add_span(s, d)\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert len(violations) == 1
        assert "discarded" in violations[0].message

    def test_suppression_honoured(self):
        violations = analyze_sources(
            {
                "src/repro/planner/sup.py": (
                    "def drop(planner, s, d):\n"
                    "    planner.add_span(s, d)  "
                    "# fluxlint: disable=SPAN001  -- intentional fixture\n"
                    "    return True\n"
                )
            },
            select=["SPAN001"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# DET002
# ---------------------------------------------------------------------------

_DET_FIXTURE = {
    "src/repro/sched/clock.py": (
        "from repro.workloads.meters import sample\n\n"
        "def tick(sim):\n"
        "    return sample(sim)\n"
    ),
    "src/repro/workloads/meters.py": (
        "from repro.workloads.lowlevel import raw_stamp\n\n"
        "def sample(sim):\n"
        "    return raw_stamp() - sim.t0\n"
    ),
    "src/repro/workloads/lowlevel.py": (
        "import time\n\n"
        "def raw_stamp():\n"
        "    return time.time()\n"
    ),
}


class TestDeterminismTaint:
    def test_wall_clock_three_calls_deep(self):
        violations = analyze_sources(_DET_FIXTURE, select=["DET002"])
        assert len(violations) == 1
        v = violations[0]
        # Flagged at the critical-package call site, full chain printed.
        assert (v.path, v.line) == ("src/repro/sched/clock.py", 4)
        assert "sample -> raw_stamp" in v.message
        assert "time.time()" in v.message
        assert "lowlevel.py:4" in v.message

    def test_taint_behind_justified_suppression_stays_clean(self):
        fixture = dict(_DET_FIXTURE)
        fixture["src/repro/workloads/lowlevel.py"] = (
            "import time\n\n"
            "def raw_stamp():\n"
            "    return time.time()  "
            "# fluxlint: disable=DET001  -- observability only, not replayed\n"
        )
        assert analyze_sources(fixture, select=["DET002"]) == []

    def test_call_site_suppression(self):
        fixture = dict(_DET_FIXTURE)
        fixture["src/repro/sched/clock.py"] = (
            "from repro.workloads.meters import sample\n\n"
            "def tick(sim):\n"
            "    return sample(sim)  "
            "# fluxlint: disable=DET002  -- metrics path, not journaled\n"
        )
        assert analyze_sources(fixture, select=["DET002"]) == []

    def test_non_critical_caller_not_reported(self):
        fixture = {
            "src/repro/workloads/caller.py": (
                "from repro.workloads.lowlevel import raw_stamp\n\n"
                "def outside(sim):\n"
                "    return raw_stamp()\n"
            ),
            "src/repro/workloads/lowlevel.py": _DET_FIXTURE[
                "src/repro/workloads/lowlevel.py"
            ],
        }
        assert analyze_sources(fixture, select=["DET002"]) == []


# ---------------------------------------------------------------------------
# EXC002
# ---------------------------------------------------------------------------

_EXC_FIXTURE = {
    "src/repro/sched/loop.py": (
        "from repro.usecases.util import guarded\n\n"
        "def advance(sim):\n"
        "    return guarded(sim)\n"
    ),
    "src/repro/usecases/util.py": (
        "from repro.errors import SimulatedCrash\n\n"
        "def guarded(sim):\n"
        "    try:\n"
        "        return sim.step()\n"
        "    except SimulatedCrash:\n"
        "        return None\n"
    ),
}


class TestCrashSwallowTaint:
    def test_crash_swallowed_in_utility(self):
        violations = analyze_sources(_EXC_FIXTURE, select=["EXC002"])
        assert len(violations) == 1
        v = violations[0]
        assert (v.path, v.line) == ("src/repro/sched/loop.py", 4)
        assert "guarded" in v.message
        assert "util.py:6" in v.message
        assert "SimulatedCrash" in v.message

    def test_reraising_handler_is_clean(self):
        fixture = dict(_EXC_FIXTURE)
        fixture["src/repro/usecases/util.py"] = (
            "from repro.errors import SimulatedCrash\n\n"
            "def guarded(sim):\n"
            "    try:\n"
            "        return sim.step()\n"
            "    except SimulatedCrash:\n"
            "        sim.note_crash()\n"
            "        raise\n"
        )
        assert analyze_sources(fixture, select=["EXC002"]) == []

    def test_vetted_handler_suppression(self):
        fixture = dict(_EXC_FIXTURE)
        fixture["src/repro/usecases/util.py"] = (
            "from repro.errors import SimulatedCrash\n\n"
            "def guarded(sim):\n"
            "    try:\n"
            "        return sim.step()\n"
            "    except SimulatedCrash:  "
            "# fluxlint: disable=EXC002  -- crash-drill harness boundary\n"
            "        return None\n"
        )
        assert analyze_sources(fixture, select=["EXC002"]) == []

    def test_bare_except_in_helper_is_a_seed(self):
        fixture = {
            "src/repro/sched/loop.py": (
                "from repro.usecases.util import run_quietly\n\n"
                "def advance(sim):\n"
                "    return run_quietly(sim)\n"
            ),
            "src/repro/usecases/util.py": (
                "def run_quietly(sim):\n"
                "    try:\n"
                "        return sim.step()\n"
                "    except:\n"
                "        return None\n"
            ),
        }
        violations = analyze_sources(fixture, select=["EXC002"])
        assert len(violations) == 1
        assert "bare except" in violations[0].message


# ---------------------------------------------------------------------------
# JRN002
# ---------------------------------------------------------------------------


class TestJournalHelper:
    def test_unjournaled_mutation_via_helper(self):
        violations = analyze_sources(
            {
                "src/repro/sched/minisim.py": (
                    "class MiniSim:\n"
                    "    def __init__(self):\n"
                    "        self.jobs = []\n"
                    "        self.log = []\n\n"
                    "    def _journal(self, rec):\n"
                    "        self.log.append(rec)\n\n"
                    "    def _admit(self, job):\n"
                    "        self.jobs.append(job)\n\n"
                    "    def submit(self, job):\n"
                    "        self._admit(job)\n"
                    "        self._journal(('submit', job))\n"
                    "        return True\n"
                )
            },
            select=["JRN002"],
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.line == 13  # the self._admit(job) call site
        assert "submit -> _admit" in v.message
        assert "self.jobs.append" in v.message

    def test_journal_first_is_clean(self):
        violations = analyze_sources(
            {
                "src/repro/sched/minisim.py": (
                    "class MiniSim:\n"
                    "    def __init__(self):\n"
                    "        self.jobs = []\n"
                    "        self.log = []\n\n"
                    "    def _journal(self, rec):\n"
                    "        self.log.append(rec)\n\n"
                    "    def _admit(self, job):\n"
                    "        self.jobs.append(job)\n\n"
                    "    def submit(self, job):\n"
                    "        self._journal(('submit', job))\n"
                    "        self._admit(job)\n"
                    "        return True\n"
                )
            },
            select=["JRN002"],
        )
        assert violations == []

    def test_direct_mutation_outside_simulator_module(self):
        violations = analyze_sources(
            {
                "src/repro/recovery/store.py": (
                    "class Store:\n"
                    "    def _journal(self, rec):\n"
                    "        self.log.append(rec)\n\n"
                    "    def put(self, key, value):\n"
                    "        self.data[key] = value\n"
                    "        self._journal(('put', key))\n"
                    "        return True\n"
                )
            },
            select=["JRN002"],
        )
        assert len(violations) == 1
        assert violations[0].line == 6

    def test_reads_before_journal_are_clean(self):
        violations = analyze_sources(
            {
                "src/repro/sched/minisim.py": (
                    "class MiniSim:\n"
                    "    def _journal(self, rec):\n"
                    "        self.log.append(rec)\n\n"
                    "    def lookup(self, ref):\n"
                    "        return self.table[ref]\n\n"
                    "    def submit(self, job):\n"
                    "        name = self.lookup(job)\n"
                    "        self._journal(('submit', name))\n"
                    "        return True\n"
                )
            },
            select=["JRN002"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# baseline gate
# ---------------------------------------------------------------------------


class TestBaseline:
    V1 = Violation("src/a.py", 3, 0, "SPAN001", "span handle 'sid' leaks")
    V2 = Violation("src/b.py", 9, 4, "DET002", "call reaches time.time()")

    def test_round_trip_and_filtering(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [self.V1])
        baseline = load_baseline(path)
        fresh, stale = apply_baseline([self.V1, self.V2], baseline)
        assert fresh == [self.V2]
        assert stale == 0

    def test_line_drift_still_matches(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [self.V1])
        drifted = Violation(
            "src/a.py", 42, 0, "SPAN001", "span handle 'sid' leaks"
        )
        fresh, stale = apply_baseline([drifted], load_baseline(path))
        assert fresh == []

    def test_stale_entries_counted(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [self.V1, self.V2])
        fresh, stale = apply_baseline([self.V2], load_baseline(path))
        assert fresh == []
        assert stale == 1

    def test_multiset_semantics(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [self.V1])
        twin = Violation("src/a.py", 7, 0, "SPAN001", "span handle 'sid' leaks")
        fresh, _ = apply_baseline([self.V1, twin], load_baseline(path))
        assert len(fresh) == 1  # only one of the two is baselined

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"findings\": [{\"rule\": 1}], \"version\": 1}")
        with pytest.raises(FluxionError):
            load_baseline(str(bad))
        bad.write_text("not json")
        with pytest.raises(FluxionError):
            load_baseline(str(bad))
        with pytest.raises(FluxionError):
            load_baseline(str(tmp_path / "missing.json"))

    def test_shipped_baseline_is_empty(self):
        shipped = os.path.join(REPO, "statcheck-baseline.json")
        with open(shipped, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document == {"findings": [], "version": 1}


# ---------------------------------------------------------------------------
# engine + acceptance criteria
# ---------------------------------------------------------------------------


class TestFlowEngine:
    def test_registry_has_all_four(self):
        assert sorted(i for i, c in CATALOGUE.items() if c.engine == "flow") == [
            "DET002", "EXC002", "JRN002", "SPAN001",
        ]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(FluxionError):
            ProgramEngine(select=["NOPE"], engines=("flow",))
        with pytest.raises(FluxionError):
            ProgramEngine(ignore=["NOPE"], engines=("flow",))

    def test_tree_is_clean_and_fast(self):
        start = time.perf_counter()
        engine = ProgramEngine(engines=("flow",))
        violations, ctx = engine.analyze_paths([SRC_REPRO])
        elapsed = time.perf_counter() - start
        assert violations == []
        assert len(ctx.program.modules) > 60
        assert elapsed < 30.0, f"flow sweep took {elapsed:.1f}s (budget 30s)"


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


def _write_leaky_tree(root):
    """A tiny on-disk package with one planted SPAN001 leak."""
    pkg = root / "repro"
    planner = pkg / "planner"
    planner.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (planner / "__init__.py").write_text("")
    (planner / "book.py").write_text(
        "def book(planner, start, dur):\n"
        "    sid = planner.add_span(start, dur)\n"
        "    return None\n"
    )
    return root


class TestFlowCLI:
    def test_flow_finds_planted_leak(self, tmp_path, capsys):
        root = _write_leaky_tree(tmp_path)
        assert main(["--flow", str(root)]) == 1
        out = capsys.readouterr().out
        assert "SPAN001" in out and "book.py:2" in out

    def test_flow_select_only_flow_rule(self, tmp_path, capsys):
        root = _write_leaky_tree(tmp_path)
        assert main(["--flow", "--select", "SPAN001", str(root)]) == 1
        assert "SPAN001" in capsys.readouterr().out

    def test_flow_rule_without_flow_flag_exits_two(self, tmp_path):
        root = _write_leaky_tree(tmp_path)
        assert main(["--select", "SPAN001", str(root)]) == 2

    def test_baseline_gates_findings(self, tmp_path, capsys):
        root = _write_leaky_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "--flow",
                    "--update-baseline",
                    "--baseline",
                    str(baseline),
                    str(root),
                ]
            )
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        assert (
            main(["--flow", "--baseline", str(baseline), str(root)]) == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_sarif_output_file(self, tmp_path):
        root = _write_leaky_tree(tmp_path)
        report = tmp_path / "lint.sarif"
        code = main(
            ["--flow", "--format", "sarif", "--output", str(report), str(root)]
        )
        assert code == 1
        document = json.loads(report.read_text())
        assert document["version"] == "2.1.0"
        rule_ids = {
            result["ruleId"] for result in document["runs"][0]["results"]
        }
        assert "SPAN001" in rule_ids

    def test_unreadable_file_exits_two_with_diagnostic(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "gone.py"
        link = tmp_path / "dangling.py"
        link.symlink_to(missing)
        assert main([str(link)]) == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_file_exits_two_with_diagnostic(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"x = '\xff\xfe'\n")
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot decode" in err and "bad.py" in err

    def test_null_bytes_exit_two_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "nul.py"
        bad.write_bytes(b"a\x00b = 1\n")
        assert main([str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_jobs_and_cache(self, tmp_path, capsys):
        for index in range(4):
            (tmp_path / f"mod{index}.py").write_text(f"x{index} = {index}\n")
        cache_dir = tmp_path / "cache"
        argv = [
            "--jobs", "2", "--cache", "--cache-dir", str(cache_dir),
            str(tmp_path),
        ]
        assert main(argv) == 0
        assert cache_dir.exists()
        capsys.readouterr()
        assert main(argv) == 0  # second run served from cache

    def test_list_rules_includes_flow(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SPAN001", "DET002", "EXC002", "JRN002"):
            assert rule_id in out


class TestChangedOnly:
    @pytest.fixture
    def git_repo(self, tmp_path, monkeypatch):
        def git(*argv):
            subprocess.run(
                ("git",) + argv,
                cwd=str(tmp_path),
                check=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        git("init")
        git("config", "user.email", "test@example.invalid")
        git("config", "user.name", "test")
        (tmp_path / "old.py").write_text("def f(x=[]):\n    return x\n")
        git("add", "-A")
        git("commit", "-m", "seed")
        git("branch", "-f", "main")
        git("checkout", "-b", "feature", "--quiet")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_only_changed_files_linted(self, git_repo, capsys):
        # old.py has a MUT001 violation but predates the branch; new.py is
        # clean — so --changed-only must pass while a full lint fails.
        (git_repo / "new.py").write_text("x = 1\n")
        assert main(["--changed-only", "."]) == 0
        capsys.readouterr()
        assert main(["."]) == 1

    def test_changed_file_is_linted(self, git_repo, capsys):
        (git_repo / "new.py").write_text("def g(y={}):\n    return y\n")
        assert main(["--changed-only", "."]) == 1
        out = capsys.readouterr().out
        assert "new.py" in out and "old.py" not in out

    def test_git_failure_falls_back_to_full_scan(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # not a git repository
        (tmp_path / "a.py").write_text("x = 1\n")
        assert main(["--changed-only", "."]) == 0
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert "fluxlint: OK" in captured.out


class TestIntraproceduralUnchanged:
    """The flow layer must not alter what the PR 3 rules report."""

    def test_lint_engine_ignores_flow_rules_by_default(self, tmp_path):
        from repro.statcheck import LintEngine

        f = tmp_path / "leak.py"
        f.write_text(
            "def book(planner, s, d):\n"
            "    sid = planner.add_span(s, d)\n"
            "    return None\n"
        )
        violations = LintEngine().lint_file(str(f))
        assert violations == []  # SPAN001 only runs under --flow

    def test_flow_run_includes_intraprocedural_findings(self, tmp_path, capsys):
        f = tmp_path / "both.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert main(["--flow", str(f)]) == 1
        assert "MUT001" in capsys.readouterr().out
