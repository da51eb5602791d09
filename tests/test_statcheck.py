"""Tests for repro.statcheck: the fluxlint engine, every lint rule
(positive fixture flagged at the right line + negative fixture showing the
clean spelling and the suppression directive), the FluxSan runtime
sanitizer, the dual-run nondeterminism detector, and the CLI."""

import json
import os

import pytest

from repro.errors import FluxionError, SanitizerError
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.match import Traverser
from repro.match.writer import Allocation
from repro.planner import Planner
from repro.sched.simulator import ClusterSimulator
from repro.statcheck import (
    CATALOGUE,
    FluxSan,
    LintEngine,
    LintParseError,
    LintRule,
    dual_run,
    lint_source,
)
from repro.statcheck import cache as cache_mod
from repro.statcheck.cache import LintCache, _rules_fingerprint
from repro.statcheck.cli import main
from repro.statcheck.engine import build_catalogue
from repro.statcheck.flow.analyses import SpanLeakAnalysis
from repro.statcheck.reporters import render_json, render_text

from .test_match import build_cluster


def rules_hit(source, path="mod.py", select=None):
    return [v.rule for v in lint_source(source, path, select=select)]


# ----------------------------------------------------------------------
# engine basics
# ----------------------------------------------------------------------
class TestEngine:
    def test_all_rules_registered(self):
        lint_ids = {i for i, cls in CATALOGUE.items() if cls.engine == "lint"}
        assert lint_ids == {
            "DET001", "EXC001", "FLT001", "MUT001", "JRN001", "INT001",
            "API001", "OBS001", "OBS002", "OVL001",
        }

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(FluxionError, match="unknown rule ids"):
            LintEngine(select=["NOPE999"])

    def test_rule_id_duplicated_across_engines_is_rejected(self):
        class ShadowsSpan001(LintRule):
            rule_id = "SPAN001"

        with pytest.raises(ValueError, match="duplicate rule id SPAN001"):
            build_catalogue((SpanLeakAnalysis, ShadowsSpan001))

    def test_select_and_ignore(self):
        src = "import time\n\ndef f(x=[]):\n    return time.time()\n"
        assert rules_hit(src) == ["MUT001", "DET001"] or set(
            rules_hit(src)
        ) == {"MUT001", "DET001"}
        assert rules_hit(src, select=["DET001"]) == ["DET001"]
        only = lint_source(src, ignore=["DET001"])
        assert [v.rule for v in only] == ["MUT001"]

    def test_syntax_error_raises_parse_error(self):
        with pytest.raises(LintParseError):
            lint_source("def broken(:\n", "bad.py")

    def test_violation_render_is_clickable(self):
        (v,) = lint_source("import time\nt = time.time()\n", "pkg/mod.py")
        assert v.render().startswith("pkg/mod.py:2:")
        assert "DET001" in v.render()


# ----------------------------------------------------------------------
# DET001 — wall-clock / unseeded randomness
# ----------------------------------------------------------------------
class TestDET001:
    def test_time_time_flagged_at_line(self):
        src = "import time\n\ndef now():\n    return time.time()\n"
        (v,) = lint_source(src, select=["DET001"])
        assert (v.rule, v.line) == ("DET001", 4)

    def test_datetime_now_and_module_alias(self):
        src = (
            "import datetime as dt\n"
            "from datetime import datetime\n"
            "a = dt.datetime.now()\n"
            "b = datetime.utcnow()\n"
        )
        vs = lint_source(src, select=["DET001"])
        assert [v.line for v in vs] == [3, 4]

    def test_unseeded_random_flagged_seeded_ok(self):
        bad = "import random\nx = random.random()\nr = random.Random()\n"
        assert rules_hit(bad, select=["DET001"]) == ["DET001", "DET001"]
        good = (
            "import random\n"
            "import numpy as np\n"
            "r = random.Random(42)\n"
            "g = np.random.default_rng(7)\n"
        )
        assert rules_hit(good, select=["DET001"]) == []

    def test_perf_counter_flagged(self):
        src = "import time as _time\nt0 = _time.perf_counter()\n"
        (v,) = lint_source(src, select=["DET001"])
        assert v.line == 2

    def test_suppression_same_line(self):
        src = "import time\nt = time.time()  # fluxlint: disable=DET001\n"
        assert rules_hit(src, select=["DET001"]) == []

    def test_suppression_next_line(self):
        src = (
            "import time\n"
            "# fluxlint: disable-next-line=DET001\n"
            "t = time.time()\n"
        )
        assert rules_hit(src, select=["DET001"]) == []

    def test_suppression_whole_file(self):
        src = (
            "# fluxlint: disable-file=DET001\n"
            "import time\n"
            "t = time.time()\n"
            "u = time.monotonic()\n"
        )
        assert rules_hit(src, select=["DET001"]) == []


# ----------------------------------------------------------------------
# EXC001 — exception swallowing
# ----------------------------------------------------------------------
class TestEXC001:
    def test_bare_except_without_reraise(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        return None\n"
        )
        (v,) = lint_source(src, select=["EXC001"])
        assert v.line == 4

    def test_bare_except_with_reraise_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        undo()\n"
            "        raise\n"
        )
        assert rules_hit(src, select=["EXC001"]) == []

    def test_broad_exception_pass_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_hit(src, select=["EXC001"]) == ["EXC001"]

    def test_capacity_regression_cleanup_then_reraise(self):
        # The exact shape fixed at sched/capacity.py: rollback + re-raise
        # must catch BaseException so a SimulatedCrash cannot skip it.
        src = (
            "def take_offline(records):\n"
            "    try:\n"
            "        book()\n"
            "    except Exception:\n"
            "        for planner, span_id in records:\n"
            "            planner.rem_span(span_id)\n"
            "        raise\n"
        )
        (v,) = lint_source(src, select=["EXC001"])
        assert v.line == 4
        assert "BaseException" in v.message
        fixed = src.replace("except Exception:", "except BaseException:")
        assert rules_hit(fixed, select=["EXC001"]) == []

    def test_narrow_handler_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert rules_hit(src, select=["EXC001"]) == []


# ----------------------------------------------------------------------
# FLT001 — float time equality
# ----------------------------------------------------------------------
class TestFLT001:
    def test_float_literal_equality_flagged(self):
        src = "def f(t):\n    return t == 0.5\n"
        (v,) = lint_source(src, select=["FLT001"])
        assert v.line == 2

    def test_time_attribute_equality_flagged(self):
        src = "def f(job, other):\n    return job.sched_time != other\n"
        assert rules_hit(src, select=["FLT001"]) == ["FLT001"]

    def test_epsilon_helper_and_int_compare_ok(self):
        src = (
            "from repro.epsilon import approx_eq\n"
            "def f(job, other):\n"
            "    return approx_eq(job.sched_time, other) and job.at == 3\n"
        )
        assert rules_hit(src, select=["FLT001"]) == []

    def test_epsilon_helpers_behave(self):
        from repro.epsilon import approx_eq, approx_ne, approx_zero

        assert approx_eq(1.0, 1.0 + 1e-12)
        assert approx_ne(1.0, 1.1)
        assert approx_zero(0.0) and not approx_zero(0.1)


# ----------------------------------------------------------------------
# MUT001 — mutable default arguments
# ----------------------------------------------------------------------
class TestMUT001:
    def test_list_default_flagged_at_line(self):
        src = "\ndef f(jobs=[]):\n    return jobs\n"
        (v,) = lint_source(src, select=["MUT001"])
        assert v.line == 2

    def test_dict_set_and_call_defaults(self):
        src = (
            "def f(a={}, b=set(), c=dict()):\n"
            "    return a, b, c\n"
        )
        assert rules_hit(src, select=["MUT001"]) == ["MUT001"] * 3

    def test_kwonly_and_lambda_defaults(self):
        src = "g = lambda x=[]: x\n\ndef f(*, y=[]):\n    return y\n"
        assert rules_hit(src, select=["MUT001"]) == ["MUT001", "MUT001"]

    def test_none_and_tuple_defaults_ok(self):
        src = "def f(a=None, b=(), c=0):\n    return a, b, c\n"
        assert rules_hit(src, select=["MUT001"]) == []

    def test_suppression(self):
        src = "def f(a=[]):  # fluxlint: disable=MUT001\n    return a\n"
        assert rules_hit(src, select=["MUT001"]) == []


# ----------------------------------------------------------------------
# JRN001 — journal-before-mutate (path-scoped to sched/simulator.py)
# ----------------------------------------------------------------------
JRN_BAD = """\
class ClusterSimulator:
    def _journal(self, command, payload):
        pass

    def submit(self, jobspec, at=None):
        self.jobs[1] = jobspec
        self._journal("submit", {})
"""

JRN_GOOD = """\
class ClusterSimulator:
    def _journal(self, command, payload):
        pass

    def submit(self, jobspec, at=None):
        self._journal("submit", {})
        self.jobs[1] = jobspec

    def cancel(self, job_id):
        self._journal("cancel", {})
        self.jobs.pop(job_id)

    def schedule_failure(self, vertex, at):
        self._journal("schedule_failure", {})

    def schedule_repair(self, vertex, at):
        self._journal("schedule_repair", {})

    def fail(self, vertex):
        self._journal("fail", {})

    def repair(self, vertex):
        self._journal("repair", {})

    def reschedule(self):
        self._journal("reschedule", {})

    def step(self):
        self._journal("step", {})

    def inject_corruption(self, kind, vertex, salt):
        self._journal("corrupt", {})
"""


class TestJRN001:
    def test_mutation_before_journal_flagged(self):
        vs = lint_source(JRN_BAD, "src/repro/sched/simulator.py",
                         select=["JRN001"])
        assert any(v.line == 6 for v in vs)

    def test_journal_first_clean(self):
        assert rules_hit(JRN_GOOD, "src/repro/sched/simulator.py",
                         select=["JRN001"]) == []

    def test_missing_journal_call_in_required_handler(self):
        src = JRN_GOOD.replace(
            '    def cancel(self, job_id):\n        self._journal("cancel", {})\n',
            "    def cancel(self, job_id):\n",
        )
        vs = lint_source(src, "src/repro/sched/simulator.py",
                         select=["JRN001"])
        assert len(vs) == 1 and "cancel" in vs[0].message

    def test_rule_is_path_scoped(self):
        # The same code outside sched/simulator.py is not JRN001's business.
        assert rules_hit(JRN_BAD, "src/repro/sched/other.py",
                         select=["JRN001"]) == []

    def test_mutator_call_before_journal_flagged(self):
        src = JRN_BAD.replace(
            "self.jobs[1] = jobspec", "self.event_log.append(1)"
        )
        vs = lint_source(src, "src/repro/sched/simulator.py",
                         select=["JRN001"])
        assert any(v.line == 6 for v in vs)


# ----------------------------------------------------------------------
# INT001 — repairs journal their actions before mutating scheduler state
# ----------------------------------------------------------------------
INT_GOOD = """\
class RepairEngine:
    def _journal_action(self, action, **fields):
        pass

    def rebuild_planner(self, vertex):
        self._journal_action("rebuild-planner", vertex=vertex.name)
        vertex.plans.rebuild(spans=[])
        table = {}
        table["local"] = 1
        self.stats["rebuilds"] = self.stats.get("rebuilds", 0) + 1
"""

INT_BAD_BEFORE = """\
class RepairEngine:
    def _journal_action(self, action, **fields):
        pass

    def release(self, planner, span_id):
        planner.rem_span(span_id)
        self._journal_action("release", span=span_id)
"""

INT_BAD_NEVER = """\
class RepairEngine:
    def restore(self, vertex):
        vertex.status = "up"
"""


class TestINT001:
    def test_journal_first_clean(self):
        assert rules_hit(INT_GOOD, "src/repro/recovery/repair.py",
                         select=["INT001"]) == []

    def test_mutation_before_journal_flagged(self):
        (v,) = lint_source(INT_BAD_BEFORE, "src/repro/recovery/repair.py",
                           select=["INT001"])
        assert v.rule == "INT001" and v.line == 6

    def test_unjournaled_mutation_flagged(self):
        (v,) = lint_source(INT_BAD_NEVER, "src/repro/recovery/repair.py",
                           select=["INT001"])
        assert "_journal_action" in v.message

    def test_local_bookkeeping_and_self_state_exempt(self):
        src = (
            "class RepairEngine:\n"
            "    def tally(self, findings):\n"
            "        table = {}\n"
            "        table['x'] = 1\n"
            "        self.count += len(findings)\n"
            "        self.seen['x'] = True\n"
        )
        assert rules_hit(src, "src/repro/recovery/repair.py",
                         select=["INT001"]) == []

    def test_rule_is_path_scoped(self):
        assert rules_hit(INT_BAD_NEVER, "src/repro/sched/simulator.py",
                         select=["INT001"]) == []

    def test_repair_module_is_compliant(self):
        # the live rule against the live module: the baseline stays empty
        path = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "recovery",
            "repair.py",
        )
        with open(path) as handle:
            source = handle.read()
        assert lint_source(
            source, "src/repro/recovery/repair.py", select=["INT001"]
        ) == []


# ----------------------------------------------------------------------
# API001 — type hints on public core-module functions
# ----------------------------------------------------------------------
class TestAPI001:
    def test_unannotated_public_function_flagged(self):
        src = "def allocate(jobspec, at):\n    return None\n"
        (v,) = lint_source(src, "src/repro/sched/thing.py",
                           select=["API001"])
        assert (v.rule, v.line) == ("API001", 1)

    def test_annotated_and_private_ok(self):
        src = (
            "def allocate(jobspec: object, at: int) -> None:\n"
            "    return None\n"
            "\n"
            "def _helper(x):\n"
            "    return x\n"
        )
        assert rules_hit(src, "src/repro/sched/thing.py",
                         select=["API001"]) == []

    def test_rule_is_package_scoped(self):
        src = "def allocate(jobspec, at):\n    return None\n"
        assert rules_hit(src, "src/repro/analysis/thing.py",
                         select=["API001"]) == []


# ----------------------------------------------------------------------
# OBS001 — instrumentation funnels through repro.obs
# ----------------------------------------------------------------------
class TestOBS001:
    def test_raw_timer_flagged_at_line(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        (v,) = lint_source(src, "src/repro/sched/thing.py",
                           select=["OBS001"])
        assert (v.rule, v.line) == ("OBS001", 4)
        assert "repro.obs" in v.message

    def test_aliased_timer_and_from_import(self):
        src = (
            "import time as _time\n"
            "from time import monotonic\n"
            "a = _time.perf_counter_ns()\n"
            "b = monotonic()\n"
        )
        vs = lint_source(src, "src/repro/sched/thing.py", select=["OBS001"])
        assert [v.line for v in vs] == [3, 4]

    def test_stats_dict_increment_flagged(self):
        src = (
            "def visit(self):\n"
            "    self.stats['visits'] += 1\n"
            "    stats['x'] += 2\n"
        )
        vs = lint_source(src, "src/repro/match/thing.py", select=["OBS001"])
        assert [v.line for v in vs] == [2, 3]

    def test_other_dicts_and_assignments_ok(self):
        src = (
            "def f(self):\n"
            "    self.recovery_stats['replays'] += 1\n"
            "    self.stats = {}\n"
            "    counts['x'] += 1\n"
        )
        assert rules_hit(src, "src/repro/sched/thing.py",
                         select=["OBS001"]) == []

    def test_obs_package_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert rules_hit(src, "src/repro/obs/clock.py",
                         select=["OBS001"]) == []
        assert rules_hit(src, "lib/other.py", select=["OBS001"]) == []

    def test_suppression_directive(self):
        src = (
            "import time\n"
            "# fluxlint: disable-next-line=OBS001\n"
            "t = time.perf_counter()\n"
        )
        assert rules_hit(src, "src/repro/sched/thing.py",
                         select=["OBS001"]) == []


# ----------------------------------------------------------------------
# OBS002 — prune/outcome bookkeeping goes through obs.why
# ----------------------------------------------------------------------
class TestOBS002:
    def test_prune_counter_dict_flagged(self):
        src = (
            "def visit(self, reason):\n"
            "    self.prune_counts[reason] += 1\n"
            "    prune_counts[reason] += 1\n"
        )
        vs = lint_source(src, "src/repro/match/thing.py", select=["OBS002"])
        assert [v.line for v in vs] == [2, 3]
        assert "obs.why" in vs[0].message

    def test_outcome_and_fail_accumulators_flagged(self):
        src = (
            "def f(self, verb, kind):\n"
            "    self.outcome_tally[verb] += 1\n"
            "    self.fail_reasons.append(kind)\n"
            "    verdict_log.extend([kind])\n"
        )
        vs = lint_source(src, "src/repro/sched/thing.py", select=["OBS002"])
        assert [v.line for v in vs] == [2, 3, 4]

    def test_domain_state_not_flagged(self):
        src = (
            "def f(self, graph, ok):\n"
            "    prune_types = set(graph.prune_types)\n"
            "    prune_types.add('core')\n"
            "    self._outcomes.append(ok)\n"
            "    self.failures[1] += 1\n"
        )
        assert rules_hit(src, "src/repro/resilience/thing.py",
                         select=["OBS002"]) == []

    def test_obs_package_exempt(self):
        src = "def f(self, r):\n    self.prune_counts[r] += 1\n"
        assert rules_hit(src, "src/repro/obs/why.py",
                         select=["OBS002"]) == []
        assert rules_hit(src, "lib/other.py", select=["OBS002"]) == []

    def test_suppression_directive(self):
        src = (
            "def f(self, r):\n"
            "    # fluxlint: disable-next-line=OBS002\n"
            "    self.prune_counts[r] += 1\n"
        )
        assert rules_hit(src, "src/repro/match/thing.py",
                         select=["OBS002"]) == []


class TestOVL001:
    def test_swallowed_deadline_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        pass\n"
        )
        (v,) = lint_source(src, "src/repro/sched/queue.py",
                           select=["OVL001"])
        assert (v.rule, v.line) == ("OVL001", 4)
        assert "re-raise" in v.message

    def test_admission_and_base_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except AdmissionRejected:\n"
            "        return None\n"
            "    try:\n"
            "        g()\n"
            "    except (ValueError, OverloadError):\n"
            "        log()\n"
        )
        vs = lint_source(src, "src/repro/planner/thing.py",
                         select=["OVL001"])
        assert [v.line for v in vs] == [4, 8]

    def test_bare_reraise_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        assert rules_hit(src, "src/repro/sched/queue.py",
                         select=["OVL001"]) == []

    def test_overload_machinery_exempt(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        pass\n"
        )
        for path in (
            "src/repro/resilience/overload.py",
            "src/repro/match/traverser.py",
            "src/repro/sched/simulator.py",
        ):
            assert rules_hit(src, path, select=["OVL001"]) == []

    def test_unrelated_handlers_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert rules_hit(src, "src/repro/sched/queue.py",
                         select=["OVL001"]) == []


# ----------------------------------------------------------------------
# zero-tolerance regression: the shipped tree must stay clean
# ----------------------------------------------------------------------
class TestTreeClean:
    def test_src_repro_is_fluxlint_clean(self):
        import os

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        violations, count = LintEngine().lint_paths([root])
        assert count > 60
        assert violations == [], "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_and_json(self):
        vs = lint_source("import time\nt = time.time()\n", "m.py")
        text = render_text(vs, 1)
        assert "m.py:2" in text and "1 violation" in text
        doc = json.loads(render_json(vs, 1))
        assert doc["violation_count"] == 1
        assert doc["violations"][0]["rule"] == "DET001"
        assert render_text([], 3).startswith("fluxlint: OK")


# ----------------------------------------------------------------------
# FluxSan: span double-free
# ----------------------------------------------------------------------
class TestFluxSanDoubleFree:
    def test_planted_double_free_caught_with_report(self):
        with FluxSan() as san:
            p = Planner(4, 0, 1000, "core")
            sid = p.add_span(0, 10, 2)
            p.rem_span(sid)
            with pytest.raises(SanitizerError) as exc:
                p.rem_span(sid)
        msg = str(exc.value)
        assert "double-free" in msg
        assert "already freed at" in msg  # names the first-free site
        assert "test_statcheck" in msg  # ...and it is a usable location
        assert san.stats["double_frees"] == 1

    def test_reinsert_after_free_is_not_double_free(self):
        with FluxSan():
            p = Planner(4, 0, 1000, "core")
            sid = p.add_span(0, 10, 2)
            p.rem_span(sid)
            # crash recovery legitimately re-inserts with an explicit id
            p.add_span(0, 10, 2, span_id=sid)
            p.rem_span(sid)  # must not raise

    def test_inactive_sanitizer_leaves_planner_behavior(self):
        from repro.errors import SpanNotFoundError

        p = Planner(4, 0, 1000, "core")
        sid = p.add_span(0, 10, 2)
        p.rem_span(sid)
        with pytest.raises(SpanNotFoundError):
            p.rem_span(sid)


# ----------------------------------------------------------------------
# FluxSan: exclusive overlap + SDFU ground truth
# ----------------------------------------------------------------------
class TestFluxSanAllocationChecks:
    def test_clean_workload_passes_all_checks(self):
        g = build_cluster()
        with FluxSan() as san:
            t = Traverser(g, policy="first")
            a1 = t.allocate(nodes_jobspec(2, duration=100), at=0)
            a2 = t.allocate(simple_node_jobspec(cores=4, duration=50), at=0)
            assert a1 is not None and a2 is not None
        assert san.stats["sdfu_checks"] >= 2
        assert san.stats["exclusive_checks"] >= 2

    def test_planted_exclusive_overlap_caught(self):
        g = build_cluster()
        t = Traverser(g, policy="first")
        alloc = t.allocate(nodes_jobspec(1, duration=100), at=0)
        assert alloc is not None
        clone = Allocation(
            alloc_id=alloc.alloc_id + 1000,
            at=alloc.at,
            duration=alloc.duration,
            reserved=False,
            selections=list(alloc.selections),
        )
        with FluxSan():
            with pytest.raises(SanitizerError) as exc:
                t.install_allocation(clone)
        assert "exclusively-held vertex" in str(exc.value)

    def test_planted_sdfu_divergence_caught(self):
        class SabotagedTraverser(Traverser):
            def _sdfu(self, *args, **kwargs):
                return None  # drop every pruning-filter charge

        g = build_cluster()
        with FluxSan():
            t = SabotagedTraverser(g, policy="first")
            with pytest.raises(SanitizerError) as exc:
                t.allocate(nodes_jobspec(1, duration=100), at=0)
        assert "SDFU" in str(exc.value)


# ----------------------------------------------------------------------
# FluxSan: simulator integration (sanitize=True / FLUXSAN=1)
# ----------------------------------------------------------------------
class TestFluxSanSimulatorHook:
    def test_sanitize_kwarg_attaches_and_full_run_passes(self):
        from repro.grug import tiny_cluster
        from repro.workloads.trace import synthetic_trace

        sim = ClusterSimulator(tiny_cluster(), sanitize=True)
        try:
            assert sim.fluxsan is not None
            for job in synthetic_trace(
                n_jobs=8, seed=3, max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            sim.run()
            assert sim.fluxsan.stats["sdfu_checks"] > 0
            assert "FluxSan" in sim.fluxsan.report()
        finally:
            sim.fluxsan.deactivate()

    def test_fluxsan_env_var(self, monkeypatch):
        from repro.grug import tiny_cluster

        monkeypatch.setenv("FLUXSAN", "1")
        sim = ClusterSimulator(tiny_cluster())
        try:
            assert sim.fluxsan is not None
        finally:
            sim.fluxsan.deactivate()
        monkeypatch.setenv("FLUXSAN", "0")
        assert ClusterSimulator(tiny_cluster()).fluxsan is None

    def test_double_free_fails_loudly_under_fluxsan_env(self, monkeypatch):
        from repro.grug import tiny_cluster

        monkeypatch.setenv("FLUXSAN", "1")
        sim = ClusterSimulator(tiny_cluster())
        try:
            node = next(sim.graph.vertices("node"))
            sid = node.plans.add_span(0, 10, 1)
            node.plans.rem_span(sid)
            with pytest.raises(SanitizerError, match="double-free"):
                node.plans.rem_span(sid)
        finally:
            sim.fluxsan.deactivate()

    def test_proxies_fully_uninstalled(self):
        import repro.planner.planner as planner_mod

        assert not FluxSan.active()
        fn = planner_mod.Planner.rem_span
        assert "statcheck" not in (fn.__module__ or "")


# ----------------------------------------------------------------------
# dual-run nondeterminism detector
# ----------------------------------------------------------------------
def _deterministic_factory():
    from repro.grug import tiny_cluster
    from repro.workloads.trace import synthetic_trace

    sim = ClusterSimulator(tiny_cluster(), queue="conservative")
    for job in synthetic_trace(
        n_jobs=6, seed=5, max_nodes=2, min_duration=60,
        max_duration=600, arrival_spread=300,
    ):
        sim.submit(job.to_jobspec(), at=job.submit_time)
    return sim


class TestDualRun:
    def test_deterministic_workload_passes(self):
        report = dual_run(_deterministic_factory)
        assert report.ok
        assert report.events > 0
        assert "deterministic" in report.summary()

    def test_planted_nondeterminism_caught(self):
        seeds = iter([5, 6])  # second build sees a different workload

        def leaky_factory():
            from repro.grug import tiny_cluster
            from repro.workloads.trace import synthetic_trace

            sim = ClusterSimulator(tiny_cluster())
            for job in synthetic_trace(
                n_jobs=6, seed=next(seeds), max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            return sim

        report = dual_run(leaky_factory, raise_on_divergence=False)
        assert not report.ok
        assert report.diverged_at is not None
        assert "DIVERGED" in report.summary()

    def test_divergence_raises_by_default(self):
        seeds = iter([5, 6])

        def leaky_factory():
            from repro.grug import tiny_cluster
            from repro.workloads.trace import synthetic_trace

            sim = ClusterSimulator(tiny_cluster())
            for job in synthetic_trace(
                n_jobs=4, seed=next(seeds), max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            return sim

        with pytest.raises(SanitizerError, match="DIVERGED"):
            dual_run(leaky_factory)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("def f(a=None):\n    return a\n")
        assert main([str(f)]) == 0
        assert "fluxlint: OK" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("import time\nt = time.time()\n")
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "dirty.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("def f(x=[]):\n    return x\n")
        assert main(["--format", "json", str(f)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"][0]["rule"] == "MUT001"

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_syntax_error_exits_two(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def broken(:\n")
        assert main([str(f)]) == 2

    def test_no_paths_exits_two(self):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id, cls in CATALOGUE.items():
            if cls.engine == "lint":
                assert rule_id in out

    def test_unknown_preset_exits_two(self):
        assert main(["--dual-run", "bogus"]) == 2

    def test_select_unknown_rule_exits_two(self, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert main(["--select", "NOPE", str(f)]) == 2


# ----------------------------------------------------------------------
# lint cache keys fingerprint the rule implementations
# ----------------------------------------------------------------------
class TestCacheRuleFingerprint:
    def test_fingerprint_changes_when_rule_source_changes(self, monkeypatch):
        baseline = _rules_fingerprint(["DET001"])
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        assert _rules_fingerprint(["DET001"]) != baseline

    def test_cache_key_depends_on_rule_fingerprint(self, tmp_path, monkeypatch):
        cache = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        key_before = cache.key("mod.py", b"x = 1\n")
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        edited = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        assert edited.key("mod.py", b"x = 1\n") != key_before

    def test_fingerprint_is_stable_across_constructions(self, tmp_path):
        first = LintCache(root=str(tmp_path), rule_ids=["DET001", "MUT001"])
        second = LintCache(root=str(tmp_path), rule_ids=["DET001", "MUT001"])
        assert first.signature == second.signature

    def test_unknown_rule_ids_do_not_crash(self):
        assert _rules_fingerprint(["NOPE999"])

    def test_stale_results_not_served_after_rule_edit(self, tmp_path, monkeypatch):
        """The regression this fixes: a cached clean verdict must not
        survive a rule edit that would now flag the file."""
        raw = b"import time\nt = time.time()\n"
        cache = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        cache.put(cache.key("mod.py", raw), [])  # old (stale) clean result
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        edited = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        assert edited.get(edited.key("mod.py", raw)) is None


# ----------------------------------------------------------------------
# --changed-only degrades to a full scan outside git
# ----------------------------------------------------------------------
class TestChangedOnlyFallback:
    def test_outside_git_warns_and_scans_everything(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # no enclosing git checkout under /tmp
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        code = main(["--changed-only", str(dirty)])
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert code == 1  # the full scan ran and found the violation
        assert "DET001" in captured.out

    def test_outside_git_clean_tree_still_exits_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a=None):\n    return a\n")
        code = main(["--changed-only", str(clean)])
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert code == 0
        assert "fluxlint: OK" in captured.out
