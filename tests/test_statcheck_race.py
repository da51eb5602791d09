"""fluxrace tests: the shared-state model, the four RACE rules on planted
fixtures, and the ``--race`` CLI mode (suppression, baseline, SARIF,
``--jobs`` determinism, the grouped ``--list-rules`` output).

Fixtures are virtual programs (``FlowProgram.from_sources``) paired with
synthetic entrypoint manifests, so every test controls exactly which
functions count as tenant roots and can assert the reachability chain
verbatim.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import FluxionError
from repro.statcheck import engine as engine_mod
from repro.statcheck.cli import main
from repro.statcheck.engine import CATALOGUE, ProgramEngine
from repro.statcheck.flow.callgraph import build_call_graph
from repro.statcheck.flow.program import FlowProgram, module_name_for_path
from repro.statcheck.race import (
    ENTRYPOINTS_VERSION,
    RaceModel,
    load_entrypoints,
    render_race_report,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# fixture helpers
# ---------------------------------------------------------------------------


def manifest(*qualnames, kind="service"):
    """Synthetic entrypoint manifest naming the given tenant roots."""
    return {
        "version": ENTRYPOINTS_VERSION,
        "entrypoints": [{"qualname": q, "kind": kind} for q in qualnames],
    }


def analyze(sources, *entrypoints, select=None, ignore=None):
    """Run the RACE rules over a virtual program; returns (violations, model)."""
    program = FlowProgram.from_sources(sources)
    engine = ProgramEngine(select=select, ignore=ignore, engines=("race",))
    violations, ctx = engine.analyze_program(program, manifest(*entrypoints))
    return violations, ctx.model


def rules_fired(violations):
    return sorted({v.rule for v in violations})


# ---------------------------------------------------------------------------
# entrypoint manifest loading
# ---------------------------------------------------------------------------


class TestEntrypointManifest:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FluxionError, match="cannot read"):
            load_entrypoints(str(tmp_path / "nope.json"))

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FluxionError, match="not valid JSON"):
            load_entrypoints(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9, "entrypoints": []}))
        with pytest.raises(FluxionError, match="unsupported version"):
            load_entrypoints(str(path))

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(
            json.dumps({"version": 1, "entrypoints": [{"kind": "service"}]})
        )
        with pytest.raises(FluxionError, match="qualname"):
            load_entrypoints(str(path))

    def test_unresolved_qualnames_are_recorded_not_fatal(self):
        program = FlowProgram.from_sources({"mod.py": "def f():\n    pass\n"})
        graph = build_call_graph(program)
        model = RaceModel.build(
            program, graph, manifest("mod.f", "mod.ghost")
        )
        assert [p.qualname for p in model.entrypoints] == ["mod.f"]
        assert model.missing_entrypoints == ["mod.ghost"]
        assert "mod.ghost" in render_race_report(model)

    def test_checked_in_manifest_resolves_fully(self, monkeypatch):
        monkeypatch.chdir(REPO)
        document = load_entrypoints("statcheck-entrypoints.json")
        program = FlowProgram.from_paths([os.path.join("src", "repro")])
        graph = build_call_graph(program)
        model = RaceModel.build(program, graph, document)
        assert model.missing_entrypoints == []
        assert len(model.entrypoints) == len(document["entrypoints"])


# ---------------------------------------------------------------------------
# RACE001 — module-global mutable state
# ---------------------------------------------------------------------------


class TestGlobalMutableState:
    def test_memo_dict_write_fires(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "_CACHE = {}\n"
                    "def lookup(key):\n"
                    "    if key not in _CACHE:\n"
                    "        _CACHE[key] = key * 2\n"
                    "    return _CACHE[key]\n"
                )
            },
            select=["RACE001"],
        )
        assert len(violations) == 1
        assert violations[0].rule == "RACE001"
        assert "_CACHE" in violations[0].message
        assert violations[0].line == 1  # reported at the definition

    def test_global_rebind_fires_even_on_immutable(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "MODE = 'idle'\n"
                    "def set_mode(m):\n"
                    "    global MODE\n"
                    "    MODE = m\n"
                )
            },
            select=["RACE001"],
        )
        assert len(violations) == 1
        assert "MODE" in violations[0].message

    def test_untouched_constant_is_silent(self):
        violations, _ = analyze(
            {"mod.py": "LIMIT = 64\ndef f():\n    return LIMIT\n"},
            select=["RACE001"],
        )
        assert violations == []

    def test_guarded_global_is_not_race001(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.Lock()\n"
                    "_CACHE = {}  # guarded-by: _LOCK\n"
                    "def put(k, v):\n"
                    "    with _LOCK:\n"
                    "        _CACHE[k] = v\n"
                )
            },
            select=["RACE001"],
        )
        assert violations == []

    def test_mutable_class_attr_fires(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "class Counter:\n"
                    "    hits = []\n"
                    "    def bump(self):\n"
                    "        self.hits.append(1)\n"
                )
            },
            select=["RACE001"],
        )
        assert len(violations) == 1
        assert "Counter.hits" in violations[0].message

    def test_class_attr_rebound_in_init_is_silent(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "class Safe:\n"
                    "    items = []\n"
                    "    def __init__(self):\n"
                    "        self.items = []\n"
                    "    def add(self, x):\n"
                    "        self.items.append(x)\n"
                )
            },
            select=["RACE001"],
        )
        assert violations == []

    def test_suppression_comment_wins(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "_CACHE = {}  # fluxlint: disable=RACE001\n"
                    "def put(k, v):\n"
                    "    _CACHE[k] = v\n"
                )
            },
            select=["RACE001"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RACE002 — blocking calls reachable from entrypoints
# ---------------------------------------------------------------------------

BLOCKING_SRC = {
    "svc/server.py": (
        "from . import work\n"
        "def handle(req):\n"
        "    return work.slow(req)\n"
    ),
    "svc/work.py": (
        "import time\n"
        "def slow(req):\n"
        "    time.sleep(0.1)\n"
        "    return req\n"
        "def offline_only():\n"
        "    time.sleep(9)\n"
    ),
}


class TestBlockingCalls:
    def test_reachable_sleep_fires_with_chain(self):
        violations, _ = analyze(
            BLOCKING_SRC, "svc.server.handle", select=["RACE002"]
        )
        assert len(violations) == 1
        msg = violations[0].message
        assert "time.sleep()" in msg
        assert "svc.server.handle -> slow" in msg

    def test_unreachable_blocking_call_is_silent(self):
        violations, _ = analyze(BLOCKING_SRC, select=["RACE002"])
        assert violations == []  # no entrypoints -> nothing reachable

    def test_from_import_alias_resolves(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "from time import sleep as nap\n"
                    "def entry():\n"
                    "    nap(1)\n"
                )
            },
            "mod.entry",
            select=["RACE002"],
        )
        assert len(violations) == 1
        assert "time.sleep()" in violations[0].message

    def test_shadowed_name_is_silent(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "def entry(open):\n"
                    "    return open('x')\n"
                )
            },
            "mod.entry",
            select=["RACE002"],
        )
        assert violations == []

    def test_subprocess_any_member_fires(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import subprocess\n"
                    "def entry():\n"
                    "    subprocess.run(['ls'])\n"
                )
            },
            "mod.entry",
            select=["RACE002"],
        )
        assert len(violations) == 1
        assert "subprocess.run()" in violations[0].message

    def test_blocking_count_feeds_race_report(self):
        _, model = analyze(BLOCKING_SRC, "svc.server.handle")
        assert model.blocking_by_module.get("svc.work") == 1
        assert "blocking" in render_race_report(model)


# ---------------------------------------------------------------------------
# RACE003 — shared-object escape across tenant roots
# ---------------------------------------------------------------------------

ESCAPE_SRC = {
    "svc/state.py": (
        "CACHE = {}\n"
        "def get_cache():\n"
        "    return CACHE\n"
    ),
    "svc/server.py": (
        "from .state import get_cache\n"
        "def tenant_a(key):\n"
        "    store = get_cache()\n"
        "    store[key] = 'a'\n"
        "def tenant_b(key):\n"
        "    return get_cache().get(key)\n"
    ),
}


class TestSharedEscape:
    def test_two_roots_plus_aliased_mutation_fires(self):
        violations, _ = analyze(
            ESCAPE_SRC,
            "svc.server.tenant_a",
            "svc.server.tenant_b",
            select=["RACE003"],
        )
        assert len(violations) == 1
        msg = violations[0].message
        assert "svc.state.CACHE" in msg
        assert "2 service roots" in msg
        assert "get_cache() returned" in msg

    def test_single_root_is_silent(self):
        violations, _ = analyze(
            ESCAPE_SRC, "svc.server.tenant_a", select=["RACE003"]
        )
        assert violations == []

    def test_cross_module_from_import_alias(self):
        """The cross-module alias fixture: the global is imported under a
        different name in the mutating module."""
        violations, _ = analyze(
            {
                "svc/state.py": "REGISTRY = {}\n",
                "svc/a.py": (
                    "from .state import REGISTRY as R\n"
                    "def tenant_a(k):\n"
                    "    R[k] = 1\n"
                ),
                "svc/b.py": (
                    "from .state import REGISTRY\n"
                    "def tenant_b(k):\n"
                    "    return REGISTRY.get(k)\n"
                ),
            },
            "svc.a.tenant_a",
            "svc.b.tenant_b",
            select=["RACE003"],
        )
        assert len(violations) == 1
        assert "svc.state.REGISTRY" in violations[0].message

    def test_guarded_mutation_is_silent(self):
        violations, _ = analyze(
            {
                "svc/state.py": (
                    "import threading\n"
                    "LOCK = threading.Lock()\n"
                    "CACHE = {}  # guarded-by: LOCK\n"
                ),
                "svc/server.py": (
                    "from .state import CACHE, LOCK\n"
                    "def tenant_a(k):\n"
                    "    with LOCK:\n"
                    "        CACHE[k] = 1\n"
                    "def tenant_b(k):\n"
                    "    return CACHE.get(k)\n"
                ),
            },
            "svc.server.tenant_a",
            "svc.server.tenant_b",
            select=["RACE003"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RACE004 — guard-annotation discipline
# ---------------------------------------------------------------------------

GUARD_SRC = {
    "mod.py": (
        "import threading\n"
        "_LOCK = threading.Lock()\n"
        "STATE = {}  # guarded-by: _LOCK\n"
        "def good(k):\n"
        "    with _LOCK:\n"
        "        STATE[k] = 1\n"
        "def bad(k):\n"
        "    STATE[k] = 2\n"
    )
}


class TestGuardDiscipline:
    def test_pass_fail_pair(self):
        """The write under ``with _LOCK`` passes; the bare write fires."""
        violations, _ = analyze(GUARD_SRC, select=["RACE004"])
        assert len(violations) == 1
        assert violations[0].line == 8  # the write in bad(), not good()
        assert "_LOCK" in violations[0].message

    def test_caller_holds_satisfies_annotated_callee(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.Lock()\n"
                    "STATE = {}  # guarded-by: _LOCK\n"
                    "def _store(k):  # guarded-by: _LOCK\n"
                    "    STATE[k] = 1\n"
                    "def entry(k):\n"
                    "    with _LOCK:\n"
                    "        _store(k)\n"
                )
            },
            select=["RACE004"],
        )
        assert violations == []

    def test_caller_without_lock_fires(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.Lock()\n"
                    "STATE = {}  # guarded-by: _LOCK\n"
                    "def _store(k):  # guarded-by: _LOCK\n"
                    "    STATE[k] = 1\n"
                    "def entry(k):\n"
                    "    _store(k)\n"
                )
            },
            select=["RACE004"],
        )
        assert len(violations) == 1
        assert "_store" in violations[0].message

    def test_nonreentrant_reacquire_fires(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.Lock()\n"
                    "STATE = {}  # guarded-by: _LOCK\n"
                    "def inner(k):\n"
                    "    with _LOCK:\n"
                    "        STATE[k] = 1\n"
                    "def outer(k):\n"
                    "    with _LOCK:\n"
                    "        inner(k)\n"
                )
            },
            select=["RACE004"],
        )
        assert any("deadlock" in v.message for v in violations)

    def test_rlock_reacquire_is_silent(self):
        violations, _ = analyze(
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.RLock()\n"
                    "STATE = {}  # guarded-by: _LOCK\n"
                    "def inner(k):\n"
                    "    with _LOCK:\n"
                    "        STATE[k] = 1\n"
                    "def outer(k):\n"
                    "    with _LOCK:\n"
                    "        inner(k)\n"
                )
            },
            select=["RACE004"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------


class TestRaceEngine:
    def test_registry_has_all_four_rules(self):
        assert sorted(i for i, c in CATALOGUE.items() if c.engine == "race") == [
            "RACE001",
            "RACE002",
            "RACE003",
            "RACE004",
        ]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(FluxionError, match="unknown rule ids"):
            ProgramEngine(select=["RACE999"], engines=("race",))

    def test_select_and_ignore_compose(self):
        engine = ProgramEngine(
            select=["RACE001", "RACE002"], ignore=["RACE002"], engines=("race",)
        )
        assert [r.rule_id for r in engine.rules] == ["RACE001"]

    def test_full_run_is_deterministic(self):
        sources = dict(ESCAPE_SRC)
        sources.update(BLOCKING_SRC)
        first, _ = analyze(
            sources,
            "svc.server.tenant_a",
            "svc.server.tenant_b",
            "svc.server.handle",
        )
        second, _ = analyze(
            sources,
            "svc.server.tenant_a",
            "svc.server.tenant_b",
            "svc.server.handle",
        )
        assert [v.render() for v in first] == [v.render() for v in second]
        assert first  # the fixture is not accidentally clean


# ---------------------------------------------------------------------------
# --race CLI mode
# ---------------------------------------------------------------------------


def write_fixture(tmp_path):
    """A mutable-global fixture plus a manifest naming its entrypoint."""
    fixture = tmp_path / "racemod.py"
    fixture.write_text(
        "import time\n"
        "_CACHE = {}\n"
        "def entry(key):\n"
        "    time.sleep(0)\n"
        "    _CACHE[key] = 1\n"
        "    return _CACHE\n"
    )
    qualname = module_name_for_path(str(fixture).replace(os.sep, "/"))
    entrypoints = tmp_path / "entrypoints.json"
    entrypoints.write_text(
        json.dumps(manifest(f"{qualname}.entry"))
    )
    return fixture, entrypoints


class TestRaceCLI:
    def test_race_mode_reports_findings(self, tmp_path, capsys):
        fixture, entrypoints = write_fixture(tmp_path)
        code = main(
            ["--race", "--entrypoints", str(entrypoints), str(fixture)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RACE001" in out
        assert "RACE002" in out

    def test_selecting_race_without_flag_exits_two(self, tmp_path, capsys):
        fixture, _ = write_fixture(tmp_path)
        assert main(["--select", "RACE001", str(fixture)]) == 2
        assert "--race" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        fixture, _ = write_fixture(tmp_path)
        code = main(
            [
                "--race",
                "--entrypoints",
                str(tmp_path / "nope.json"),
                str(fixture),
            ]
        )
        assert code == 2

    def test_race_report_artifact_is_written(self, tmp_path, capsys):
        fixture, entrypoints = write_fixture(tmp_path)
        report = tmp_path / "report.txt"
        main(
            [
                "--race",
                "--entrypoints",
                str(entrypoints),
                "--race-report",
                str(report),
                str(fixture),
            ]
        )
        text = report.read_text()
        assert "fluxrace shared-state footprint" in text
        assert "entrypoints:" in text

    def test_baseline_round_trip(self, tmp_path, capsys):
        fixture, entrypoints = write_fixture(tmp_path)
        baseline = tmp_path / "race-baseline.json"
        assert (
            main(
                [
                    "--race",
                    "--entrypoints",
                    str(entrypoints),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                    str(fixture),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "--race",
                    "--entrypoints",
                    str(entrypoints),
                    "--baseline",
                    str(baseline),
                    str(fixture),
                ]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_sarif_output_includes_race_rules(self, tmp_path, capsys):
        fixture, entrypoints = write_fixture(tmp_path)
        main(
            [
                "--race",
                "--entrypoints",
                str(entrypoints),
                "--format",
                "sarif",
                str(fixture),
            ]
        )
        document = json.loads(capsys.readouterr().out)
        run = document["runs"][0]
        fired = {r["ruleId"] for r in run["results"]}
        assert "RACE001" in fired and "RACE002" in fired
        # the driver catalogue lists exactly the fired rules, with the
        # race summaries resolved (not the bare-id fallback)
        catalogue = {
            r["id"]: r["shortDescription"]["text"]
            for r in run["tool"]["driver"]["rules"]
        }
        assert catalogue["RACE001"] != "RACE001"
        assert catalogue["RACE002"] != "RACE002"

    @pytest.mark.parametrize("jobs", ["1", "2", "4"])
    def test_jobs_determinism(self, tmp_path, capsys, jobs):
        fixture, entrypoints = write_fixture(tmp_path)
        sibling = tmp_path / "othermod.py"
        sibling.write_text("VALUES = []\ndef push(x):\n    VALUES.append(x)\n")
        argv = [
            "--race",
            "--entrypoints",
            str(entrypoints),
            "--jobs",
            jobs,
            str(fixture),
            str(sibling),
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert "RACE001" in first

    def test_flow_and_race_build_the_program_once(
        self, tmp_path, capsys, monkeypatch
    ):
        fixture, entrypoints = write_fixture(tmp_path)
        calls = {"from_paths": 0, "compute_summaries": 0}
        from_paths = FlowProgram.from_paths
        compute_summaries = engine_mod.compute_summaries

        def counting_from_paths(paths):
            calls["from_paths"] += 1
            return from_paths(paths)

        def counting_summaries(program, graph):
            calls["compute_summaries"] += 1
            return compute_summaries(program, graph)

        monkeypatch.setattr(
            engine_mod.FlowProgram, "from_paths", counting_from_paths
        )
        monkeypatch.setattr(
            engine_mod, "compute_summaries", counting_summaries
        )
        argv = ["--flow", "--race", "--entrypoints", str(entrypoints)]
        assert main(argv + [str(fixture)]) == 1
        assert "RACE001" in capsys.readouterr().out
        assert calls == {"from_paths": 1, "compute_summaries": 1}

    def test_checked_in_race_baseline_is_clean(self, capsys, monkeypatch):
        """The acceptance criterion: the shipped tree runs clean under
        ``--race`` against the checked-in manifest and baseline."""
        monkeypatch.chdir(REPO)
        code = main(
            [
                "--race",
                "--baseline",
                "statcheck-race-baseline.json",
                os.path.join("src", "repro"),
            ]
        )
        assert code == 0, capsys.readouterr().out

    def test_obs_runtime_has_no_race001(self, capsys, monkeypatch):
        """The contextvar remediation removed the ACTIVE-global finding."""
        monkeypatch.chdir(REPO)
        main(
            [
                "--race",
                os.path.join("src", "repro"),
            ]
        )
        out = capsys.readouterr().out
        assert "obs/runtime.py" not in out

    def test_list_rules_groups_by_engine(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "fluxlint AST rules (always on)" in out
        assert "fluxflow interprocedural analyses (--flow)" in out
        assert "fluxrace concurrency-readiness rules (--race)" in out
        assert "RACE001" in out
        # the runtime sanitizer has no static ids but is still listed
        assert "FluxSan" in out
