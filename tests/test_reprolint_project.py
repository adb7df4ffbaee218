"""Whole-program reprolint layer: call graph, dataflow rules, engine.

Covers the whole-program machinery from tools/reprolint/:

* golden call-graph tests on synthetic packages (import cycles,
  ``__init__`` re-exports, decorated functions, method resolution
  through inheritance and through typed ``self`` attributes,
  pathological self-aliases),
* paired pass/fail fixtures for each inter-procedural rule (R010,
  R012, R013) plus the cross-module R002 extension,
* SARIF output and the self-lint of the tooling trees.
"""

import json
import os
import subprocess
import sys

from tools.reprolint import (
    Project,
    analyze_paths,
    extract_module_facts,
    main,
    sarif_report,
)
from tools.reprolint.callgraph import module_name_for
from tools.reprolint.engine import scope_path_for

import ast

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_tree(root, files):
    """Materialise {relpath: source} under root, with package inits."""
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        # every ancestor dir below the top-level (src-like) directory
        # becomes a package; the top level itself stays a plain root
        directory = target.parent
        while directory != root and directory.parent != root:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
            directory = directory.parent
    return root


def analyze_tree(tmp_path, files):
    root = write_tree(tmp_path, files)
    return analyze_paths([str(root)])


def rules_fired(result):
    return sorted({d.rule for d in result.diagnostics})


def facts_for(tmp_path, files):
    root = write_tree(tmp_path, files)
    collected = []
    for relpath in files:
        path = str(root / relpath)
        tree = ast.parse((root / relpath).read_text(), filename=path)
        collected.append(extract_module_facts(tree, path,
                                              scope_path_for(path)))
    return collected


class TestCallGraph:
    def test_module_naming_follows_packages(self, tmp_path):
        write_tree(tmp_path, {"src/repro/geo/region.py": "x = 1\n"})
        assert module_name_for(
            str(tmp_path / "src/repro/geo/region.py")) == "repro.geo.region"
        assert module_name_for(
            str(tmp_path / "src/repro/geo/__init__.py")) == "repro.geo"

    def test_direct_call_resolution(self, tmp_path):
        facts = facts_for(tmp_path, {
            "src/pkg/a.py": "from pkg.b import helper\n"
                            "def caller():\n    return helper()\n",
            "src/pkg/b.py": "def helper():\n    return 1\n",
        })
        project = Project(facts)
        fn = project.functions["pkg.a.caller"]
        resolved = project.resolve_call("pkg.a", fn.calls[0])
        assert resolved == "pkg.b.helper"

    def test_init_reexport_resolution(self, tmp_path):
        files = {
            "src/pkg/impl.py": "def thing():\n    return 1\n",
            "src/pkg/client.py": "from pkg import thing\n"
                                 "def use():\n    return thing()\n",
        }
        root = write_tree(tmp_path, files)
        (root / "src/pkg/__init__.py").write_text(
            "from .impl import thing\n")
        collected = []
        for relpath in ["src/pkg/impl.py", "src/pkg/client.py",
                        "src/pkg/__init__.py"]:
            path = str(root / relpath)
            tree = ast.parse((root / relpath).read_text(), filename=path)
            collected.append(extract_module_facts(
                tree, path, scope_path_for(path)))
        project = Project(collected)
        fn = project.functions["pkg.client.use"]
        assert project.resolve_call("pkg.client",
                                    fn.calls[0]) == "pkg.impl.thing"

    def test_import_cycle_terminates(self, tmp_path):
        facts = facts_for(tmp_path, {
            "src/pkg/a.py": "from pkg import b\n"
                            "def fa():\n    return b.fb()\n",
            "src/pkg/b.py": "from pkg import a\n"
                            "def fb():\n    return a.fa()\n",
        })
        project = Project(facts)
        fa = project.functions["pkg.a.fa"]
        fb = project.functions["pkg.b.fb"]
        assert project.resolve_call("pkg.a", fa.calls[0]) == "pkg.b.fb"
        assert project.resolve_call("pkg.b", fb.calls[0]) == "pkg.a.fa"

    def test_pathological_self_alias_terminates(self, tmp_path):
        # `from .x import x` rewrites p.x -> p.x.x -> p.x.x.x ...; the
        # resolver must cap the chase instead of spinning (regression:
        # this hung the first whole-tree run).
        facts = facts_for(tmp_path, {
            "src/pkg/x.py": "def x():\n    return 1\n",
            "src/pkg/user.py": "from pkg.x import x\n"
                               "def use():\n    return x()\n",
        })
        project = Project(facts)
        project._aliases["pkg.x"] = "pkg.x.x"
        assert isinstance(project.resolve("pkg.x.anything"), str)

    def test_decorated_function_still_in_graph(self, tmp_path):
        facts = facts_for(tmp_path, {
            "src/pkg/deco.py": (
                "import functools\n"
                "def wrap(fn):\n"
                "    @functools.wraps(fn)\n"
                "    def inner(*a):\n        return fn(*a)\n"
                "    return inner\n"
                "@wrap\n"
                "def target():\n    return 1\n"
                "def caller():\n    return target()\n"),
        })
        project = Project(facts)
        assert "pkg.deco.target" in project.functions
        fn = project.functions["pkg.deco.caller"]
        assert project.resolve_call("pkg.deco",
                                    fn.calls[0]) == "pkg.deco.target"

    def test_method_resolution_through_inheritance(self, tmp_path):
        facts = facts_for(tmp_path, {
            "src/pkg/base.py": (
                "class Base:\n"
                "    def shared(self):\n        return 1\n"),
            "src/pkg/child.py": (
                "from pkg.base import Base\n"
                "class Child(Base):\n"
                "    def run(self):\n        return self.shared()\n"),
        })
        project = Project(facts)
        fn = project.functions["pkg.child.Child.run"]
        assert project.resolve_call(
            "pkg.child", fn.calls[0]) == "pkg.base.Base.shared"

    def test_annotation_typed_local_resolves_method(self, tmp_path):
        # a fork-state hand-off: a module global annotated
        # Optional["Service"], loaded into a local, then a method call.
        facts = facts_for(tmp_path, {
            "src/pkg/svc.py": (
                "from typing import Optional\n"
                "class Service:\n"
                "    def evaluate(self):\n        return 1\n"
                "_STATE: Optional[\"Service\"] = None\n"
                "def worker():\n"
                "    service = _STATE\n"
                "    return service.evaluate()\n"),
        })
        project = Project(facts)
        fn = project.functions["pkg.svc.worker"]
        targets = {project.resolve_call("pkg.svc", call)
                   for call in fn.calls}
        assert "pkg.svc.Service.evaluate" in targets


SERVICE = "src/repro/service/"


class TestR010RngEscape:
    def test_module_level_plain_rng_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": "import numpy as np\n"
                                "RNG = np.random.default_rng(0)\n"})
        assert "R010" in rules_fired(result)

    def test_worker_closure_over_plain_rng_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "def run(pool, chunks):\n"
                "    rng = np.random.default_rng(3)\n"
                "    def work(chunk):\n"
                "        return rng.normal()\n"
                "    return [pool.submit(work, c) for c in chunks]\n")})
        assert "R010" in rules_fired(result)

    def test_async_handler_over_plain_module_rng_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "RNG = np.random.default_rng(1)\n"
                "async def handle(query):\n"
                "    return RNG.normal()\n")})
        messages = [d.message for d in result.diagnostics
                    if d.rule == "R010"]
        assert any("asyncio handler" in m for m in messages)

    def test_stream_keyed_rng_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "def run(pool, chunks, seed):\n"
                "    def work(host_id):\n"
                "        rng = np.random.default_rng((seed, host_id))\n"
                "        return rng.normal()\n"
                "    return [pool.submit(work, c) for c in chunks]\n")})
        assert "R010" not in rules_fired(result)

    def test_helper_returning_plain_rng_to_module_state_fails(
            self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "def make_rng():\n"
                "    return np.random.default_rng(9)\n"
                "SHARED = make_rng()\n")})
        assert "R010" in rules_fired(result)

    def test_helper_returning_stream_rng_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "def make_rng(seed, host_id):\n"
                "    return np.random.default_rng((seed, host_id))\n"
                "def worker(seed, host_id):\n"
                "    rng = make_rng(seed, host_id)\n"
                "    return rng.normal()\n")})
        assert "R010" not in rules_fired(result)


class TestR012EpochKeys:
    def test_host_key_without_epoch_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "from repro.lrucache import LruCache\n"
                "class Keeper:\n"
                "    def __init__(self, slots):\n"
                "        self._cache = LruCache(slots)\n"
                "    def lookup(self, host_id, claim):\n"
                "        return self._cache.get((host_id, claim))\n")})
        assert "R012" in rules_fired(result)

    def test_dict_cache_host_key_without_epoch_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            "src/repro/experiments/mod.py": (
                "_VERDICT_CACHE = {}\n"
                "def remember(host_id, verdict):\n"
                "    _VERDICT_CACHE[(host_id,)] = verdict\n")})
        assert "R012" in rules_fired(result)

    def test_epoch_complete_key_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "from repro.lrucache import LruCache\n"
                "class Keeper:\n"
                "    def __init__(self, slots):\n"
                "        self._cache = LruCache(slots)\n"
                "    def lookup(self, host_id, digest, claim):\n"
                "        return self._cache.get((host_id, digest, claim))\n")})
        assert "R012" not in rules_fired(result)

    def test_hostless_cache_passes(self, tmp_path):
        # scenario-keyed caches (no host identity) don't need the epoch
        result = analyze_tree(tmp_path, {
            "src/repro/experiments/mod.py": (
                "_ETA_CACHE = {}\n"
                "def remember(scenario_token, seed, eta):\n"
                "    _ETA_CACHE[(scenario_token, seed)] = eta\n")})
        assert "R012" not in rules_fired(result)

    def test_non_literal_keys_stay_silent(self, tmp_path):
        # an opaque key parameter is not provably incomplete
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "from repro.lrucache import LruCache\n"
                "class Keeper:\n"
                "    def __init__(self, slots):\n"
                "        self._cache = LruCache(slots)\n"
                "    def lookup(self, key):\n"
                "        return self._cache.get(key)\n")})
        assert "R012" not in rules_fired(result)

    def test_outside_scoped_subtrees_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            "src/repro/geo/mod.py": (
                "_CACHE = {}\n"
                "def remember(host_id, region):\n"
                "    _CACHE[(host_id,)] = region\n")})
        assert "R012" not in rules_fired(result)


class TestR013BlockingInAsync:
    def test_direct_sleep_in_coroutine_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import time\n"
                "async def handle(query):\n"
                "    time.sleep(0.1)\n"
                "    return query\n")})
        assert "R013" in rules_fired(result)

    def test_blocking_reachable_through_helper_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import time\n"
                "def helper():\n"
                "    time.sleep(1.0)\n"
                "    return 1\n"
                "async def handle(query):\n"
                "    return helper()\n")})
        messages = [d.message for d in result.diagnostics
                    if d.rule == "R013"]
        assert any("helper" in m and "time.sleep" in m for m in messages)

    def test_blocking_method_of_typed_self_attribute_fails(self, tmp_path):
        # The frontend's shape: the coroutine reaches the service through
        # an attribute typed in __init__.  The direct call blocks the
        # loop; the executor hand-off of the same method does not.
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import time\n"
                "class Service:\n"
                "    def resolve(self, target):\n"
                "        time.sleep(0.1)\n"
                "        return target\n"
                "class Frontend:\n"
                "    def __init__(self, svc: Service):\n"
                "        self.svc = svc\n"
                "    async def handle(self, loop, target):\n"
                "        await loop.run_in_executor("
                "None, self.svc.resolve, target)\n"
                "        return self.svc.resolve(target)\n")})
        r013 = [d for d in result.diagnostics if d.rule == "R013"]
        assert [d.line for d in r013] == [11]
        assert "'resolve' which blocks via time.sleep" in r013[0].message

    def test_pool_future_get_in_coroutine_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "def work(c):\n"
                "    return c\n"
                "async def drain(pool, chunks):\n"
                "    futures = [pool.submit(work, c) for c in chunks]\n"
                "    return [f.result() for f in futures]\n")})
        assert "R013" in rules_fired(result)

    def test_asyncio_sleep_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import asyncio\n"
                "async def handle(query):\n"
                "    await asyncio.sleep(0.1)\n"
                "    return query\n")})
        assert "R013" not in rules_fired(result)

    def test_blocking_behind_executor_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "def evaluate(chunks):\n"
                "    futures = []\n"
                "    return [f.result() for f in futures]\n"
                "async def drain(loop, chunks):\n"
                "    return await loop.run_in_executor("
                "None, evaluate, chunks)\n")})
        assert "R013" not in rules_fired(result)


class TestInterproceduralWallClock:
    def test_helper_outside_scope_fails(self, tmp_path):
        result = analyze_tree(tmp_path, {
            "src/helpers.py": "import time\n"
                              "def stamp():\n"
                              "    return time.time()\n",
            "src/repro/experiments/mod.py": (
                "import sys\n"
                "from helpers import stamp\n"
                "def record(event):\n"
                "    return (event, stamp())\n")})
        r002 = [d for d in result.diagnostics if d.rule == "R002"]
        assert any("stamp" in d.message for d in r002)

    def test_service_monotonic_allowlist_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            "src/helpers.py": "import time\n"
                              "def tick():\n"
                              "    return time.monotonic()\n",
            SERVICE + "mod.py": (
                "from helpers import tick\n"
                "def latency(started):\n"
                "    return tick() - started\n")})
        assert "R002" not in rules_fired(result)

    def test_unscoped_caller_passes(self, tmp_path):
        result = analyze_tree(tmp_path, {
            "src/helpers.py": "import time\n"
                              "def stamp():\n"
                              "    return time.time()\n",
            "src/cli.py": "from helpers import stamp\n"
                          "def banner():\n"
                          "    return stamp()\n"})
        assert "R002" not in rules_fired(result)


class TestSarif:
    def test_sarif_structure(self, tmp_path):
        result = analyze_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "RNG = np.random.default_rng(0)\n")})
        log = sarif_report(result)
        json.dumps(log)  # serialisable as-is
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"R001", "R010", "R012", "R013"} <= rule_ids
        assert run["results"], "expected at least one result"
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1

    def test_cli_writes_sarif(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            SERVICE + "mod.py": (
                "import numpy as np\n"
                "RNG = np.random.default_rng(0)\n")})
        out = tmp_path / "report.sarif"
        assert main([str(root / "src"), "--sarif", str(out)]) == 1
        capsys.readouterr()
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"]


def test_self_lint_tools_benchmarks_examples():
    """The self-lint satellite: reprolint over its own code, the
    benchmark/example trees and the paper-claims module must be clean
    (with reasoned suppressions where intentional)."""
    completed = subprocess.run(
        [sys.executable, "-m", "tools.reprolint",
         "tools/reprolint", "benchmarks", "examples",
         "tests/claims.py", "tests/test_paper_claims.py"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert completed.returncode == 0, (
        f"reprolint found violations in tools/benchmarks/examples/claims:\n"
        f"{completed.stdout}")
