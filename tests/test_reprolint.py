"""Tests for reprolint, the determinism & invariant linter.

Every rule gets a paired fixture: source that must trip it and a
minimally different source that must stay clean.  The meta-test at the
bottom runs the real CLI over ``src/`` and requires a clean exit — the
repository must satisfy its own lint gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (  # noqa: E402
    RULE_IDS,
    lint_source,
    report_json,
)
from tools.reprolint.engine import main, scope_path_for  # noqa: E402


def rules_hit(source, scope_path):
    result = lint_source(source, scope_path=scope_path)
    return [d.rule for d in result.diagnostics]


# -- R001: unseeded randomness ------------------------------------------------

class TestR001UnseededRandomness:
    def test_global_numpy_draw_flagged(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_hit(source, "core/foo.py") == ["R001"]

    def test_seedless_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_hit(source, "core/foo.py") == ["R001"]

    def test_stdlib_random_flagged(self):
        source = "import random\nrandom.shuffle([1, 2])\n"
        assert rules_hit(source, "stats/foo.py") == ["R001"]

    def test_seeded_default_rng_clean(self):
        source = ("import numpy as np\n"
                  "rng = np.random.default_rng(42)\n"
                  "rng2 = np.random.default_rng(seed)\n")
        assert rules_hit(source, "core/foo.py") == []

    def test_import_alias_resolved(self):
        source = "from numpy import random as nr\nnr.normal(0, 1)\n"
        assert rules_hit(source, "core/foo.py") == ["R001"]


# -- R002: wall clock ---------------------------------------------------------

class TestR002WallClock:
    def test_time_time_in_netsim_flagged(self):
        source = "import time\nstamp = time.time()\n"
        assert rules_hit(source, "netsim/foo.py") == ["R002"]

    def test_datetime_now_in_experiments_flagged(self):
        source = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_hit(source, "experiments/foo.py") == ["R002"]

    def test_benchmarks_exempt_by_scope(self):
        source = "import time\nstamp = time.perf_counter()\n"
        assert rules_hit(source, "bench_audit.py") == []

    def test_sleep_is_not_a_clock_read(self):
        source = "import time\ntime.sleep(0.1)\n"
        assert rules_hit(source, "netsim/foo.py") == []

    def test_monotonic_allowed_in_service_scope(self):
        source = "import time\nstarted = time.monotonic()\n"
        assert rules_hit(source, "service/foo.py") == []

    def test_monotonic_ns_allowed_in_service_scope(self):
        source = "import time\nstarted = time.monotonic_ns()\n"
        assert rules_hit(source, "service/foo.py") == []

    def test_time_time_in_service_still_flagged(self):
        source = "import time\nstamp = time.time()\n"
        assert rules_hit(source, "service/foo.py") == ["R002"]

    def test_monotonic_outside_service_still_flagged(self):
        source = "import time\nstarted = time.monotonic()\n"
        assert rules_hit(source, "netsim/foo.py") == ["R002"]


# -- R003: uncentralised knob reads -------------------------------------------

class TestR003KnobReads:
    @pytest.mark.parametrize("read", [
        'value = os.getenv("REPRO_REGION_ENGINE")',
        'value = os.environ.get("REPRO_REGION_ENGINE")',
        'value = os.environ["REPRO_REGION_ENGINE"]',
        'flag = "REPRO_SANITIZE" in os.environ',
    ])
    def test_direct_reads_flagged(self, read):
        source = f"import os\n{read}\n"
        assert rules_hit(source, "geo/foo.py") == ["R003"]

    def test_env_constant_convention_flagged(self):
        source = ("import os\n"
                  "ENGINE_ENV = 'REPRO_PATH_ENGINE'\n"
                  "value = os.environ.get(ENGINE_ENV)\n")
        assert rules_hit(source, "netsim/foo.py") == ["R003"]

    def test_non_repro_variables_clean(self):
        source = "import os\nhome = os.environ.get('HOME')\n"
        assert rules_hit(source, "geo/foo.py") == []

    def test_config_module_exempt(self):
        source = "import os\nvalue = os.environ.get('REPRO_SANITIZE')\n"
        assert rules_hit(source, "config.py") == []


# -- R004: dense-bool views on hot paths --------------------------------------

class TestR004HotPathBoolView:
    def test_mask_in_hot_module_flagged(self):
        source = "dense = region.mask\n"
        assert rules_hit(source, "geo/bank.py") == ["R004"]

    def test_bool_mask_in_audit_flagged(self):
        source = "dense = region.bool_mask\n"
        assert rules_hit(source, "experiments/audit.py") == ["R004"]

    def test_cold_module_clean(self):
        source = "dense = region.mask\n"
        assert rules_hit(source, "geo/region.py") == []


# -- R005: payload field types ------------------------------------------------

_BAD_PAYLOAD = """\
from dataclasses import dataclass
import threading

@dataclass
class WorkerPayload:
    index: int
    lock: threading.Lock
"""

_GOOD_PAYLOAD = """\
from dataclasses import dataclass
from typing import List, Optional

@dataclass
class WorkerPayload:
    index: int
    mask: bytes
    names: List[str]
    note: Optional[str]
"""


class TestR005PayloadFields:
    def test_fork_unsafe_field_flagged(self):
        assert rules_hit(_BAD_PAYLOAD, "experiments/checkpoint.py") == ["R005"]

    def test_whitelisted_fields_clean(self):
        assert rules_hit(_GOOD_PAYLOAD, "experiments/audit.py") == []

    def test_payload_alias_checked(self):
        source = ("from typing import Tuple\n"
                  "import threading\n"
                  "ServerPayload = Tuple[int, threading.Lock]\n")
        assert rules_hit(source, "experiments/checkpoint.py") == ["R005"]

    def test_other_modules_exempt(self):
        assert rules_hit(_BAD_PAYLOAD, "core/foo.py") == []


# -- R007: per-panel bank access inside loops on fleet hot paths --------------

class TestR007PerPanelBankLoop:
    def test_loop_over_scalar_kernel_flagged(self):
        source = ("def sweep(bank, panels):\n"
                  "    out = []\n"
                  "    for lats, lons, radii in panels:\n"
                  "        out.append(bank.field_block(\n"
                  "            lats, lons) <= radii[:, None])\n"
                  "    return out\n")
        assert rules_hit(source, "core/cbgpp.py") == ["R007"]

    def test_comprehension_over_field_block_flagged(self):
        source = ("def sweep(bank, panels):\n"
                  "    return [bank.field_block(p.lats, p.lons).sum(0)\n"
                  "            for p in panels]\n")
        assert rules_hit(source, "core/octant.py") == ["R007"]

    def test_while_loop_field_block_flagged(self):
        source = ("def drain(bank, queue):\n"
                  "    while queue:\n"
                  "        panel = queue.pop()\n"
                  "        fields = bank.field_block(panel.lats, panel.lons)\n")
        assert rules_hit(source, "experiments/audit.py") == ["R007"]

    def test_fleet_front_end_in_loop_clean(self):
        source = ("def sweep(bank, batches):\n"
                  "    out = []\n"
                  "    for rows, radii in batches:\n"
                  "        out.append(bank.disk_intersections_fleet(\n"
                  "            rows, radii, packed=True))\n"
                  "    return out\n")
        assert rules_hit(source, "core/cbgpp.py") == []

    def test_single_scalar_call_outside_loop_clean(self):
        source = ("def one(bank, lats, lons, radii):\n"
                  "    return bank.disk_intersections(lats, lons, radii)\n")
        assert rules_hit(source, "core/cbgpp.py") == []

    def test_bank_module_itself_exempt(self):
        source = ("def ring_masks(self, panels):\n"
                  "    return [self.ring_intersection(p) for p in panels]\n")
        assert rules_hit(source, "geo/bank.py") == []

    def test_non_hot_modules_exempt(self):
        source = ("def figure(bank, panels):\n"
                  "    return [bank.ring_votes(*p) for p in panels]\n")
        assert rules_hit(source, "experiments/figures.py") == []


# -- R008: unbounded record accumulation on streaming paths -------------------

class TestR008UnboundedRecordAccumulation:
    def test_append_to_records_list_flagged(self):
        source = ("def collect(payloads):\n"
                  "    records = []\n"
                  "    for payload in payloads:\n"
                  "        records.append(payload)\n"
                  "    return records\n")
        assert rules_hit(source, "experiments/campaign.py") == ["R008"]

    def test_append_of_record_constructor_flagged(self):
        source = ("def collect(servers, grid, payloads):\n"
                  "    out = []\n"
                  "    for payload in payloads:\n"
                  "        out.append(_record_from_payload(\n"
                  "            servers, grid, payload))\n"
                  "    return out\n")
        assert rules_hit(source, "experiments/audit.py") == ["R008"]

    def test_record_listcomp_flagged(self):
        source = ("def collect(servers, grid, payloads):\n"
                  "    return [_record_from_payload(servers, grid, p)\n"
                  "            for p in payloads]\n")
        assert rules_hit(source, "experiments/campaign.py") == ["R008"]

    def test_attribute_records_append_flagged(self):
        source = ("def stash(self, record):\n"
                  "    self.kept_records.append(record)\n")
        assert rules_hit(source, "report.py") == ["R008"]

    def test_sink_aggregation_clean(self):
        source = ("def accept(self, record):\n"
                  "    self.tally.add(record)\n"
                  "    self.providers[record.server.provider] = (\n"
                  "        self.providers.get(record.server.provider, 0) + 1)\n")
        assert rules_hit(source, "experiments/campaign.py") == []

    def test_non_record_append_clean(self):
        source = ("def render(rows):\n"
                  "    lines = []\n"
                  "    for row in rows:\n"
                  "        lines.append(str(row))\n"
                  "    return lines\n")
        assert rules_hit(source, "report.py") == []

    def test_other_modules_exempt(self):
        source = ("def collect(payloads):\n"
                  "    records = []\n"
                  "    for payload in payloads:\n"
                  "        records.append(payload)\n"
                  "    return records\n")
        assert rules_hit(source, "experiments/figures.py") == []

    def test_reasoned_suppression_honoured(self):
        source = ("records = [make_record(p) for p in payloads]"
                  "  # reprolint: disable=R008 (legacy API keeps the list)\n")
        result = lint_source(source, scope_path="experiments/audit.py")
        assert result.ok
        assert result.suppressions[0].rules == ("R008",)


# -- R009: unbounded queue/container growth in service code -------------------

class TestR009UnboundedServiceGrowth:
    def test_unbounded_asyncio_queue_flagged(self):
        source = "import asyncio\nq = asyncio.Queue()\n"
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_zero_maxsize_queue_flagged(self):
        source = "import asyncio\nq = asyncio.Queue(maxsize=0)\n"
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_simple_queue_always_flagged(self):
        source = "import queue\nq = queue.SimpleQueue()\n"
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_bounded_queue_clean(self):
        source = "import asyncio\nq = asyncio.Queue(maxsize=256)\n"
        assert rules_hit(source, "service/foo.py") == []

    def test_runtime_bound_queue_clean(self):
        source = ("import asyncio\n"
                  "def start(self):\n"
                  "    self.q = asyncio.Queue(maxsize=self.queue_max)\n")
        assert rules_hit(source, "service/foo.py") == []

    def test_positional_bound_clean(self):
        source = "import queue\nq = queue.Queue(128)\n"
        assert rules_hit(source, "service/foo.py") == []

    def test_self_dict_growth_flagged(self):
        source = ("class Cache:\n"
                  "    def __init__(self):\n"
                  "        self.entries = {}\n"
                  "    def put(self, key, value):\n"
                  "        self.entries[key] = value\n")
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_self_list_append_flagged(self):
        source = ("class Log:\n"
                  "    def __init__(self):\n"
                  "        self.lines = []\n"
                  "    def note(self, line):\n"
                  "        self.lines.append(line)\n")
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_module_level_dict_growth_flagged(self):
        source = ("_REGISTRY = {}\n"
                  "def register(name, value):\n"
                  "    _REGISTRY[name] = value\n")
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_unbounded_deque_growth_flagged(self):
        source = ("import collections\n"
                  "class Log:\n"
                  "    def __init__(self):\n"
                  "        self.lines = collections.deque()\n"
                  "    def note(self, line):\n"
                  "        self.lines.append(line)\n")
        assert rules_hit(source, "service/foo.py") == ["R009"]

    def test_bounded_deque_growth_clean(self):
        source = ("import collections\n"
                  "class Log:\n"
                  "    def __init__(self):\n"
                  "        self.lines = collections.deque(maxlen=64)\n"
                  "    def note(self, line):\n"
                  "        self.lines.append(line)\n")
        assert rules_hit(source, "service/foo.py") == []

    def test_local_list_growth_clean(self):
        source = ("def render(rows):\n"
                  "    lines = []\n"
                  "    for row in rows:\n"
                  "        lines.append(str(row))\n"
                  "    return lines\n")
        assert rules_hit(source, "service/foo.py") == []

    def test_lru_cache_state_clean(self):
        source = ("from repro.lrucache import LruCache\n"
                  "class Cache:\n"
                  "    def __init__(self, slots):\n"
                  "        self.entries = LruCache(maxsize=slots)\n"
                  "    def put(self, key, value):\n"
                  "        self.entries.put(key, value)\n")
        assert rules_hit(source, "service/foo.py") == []

    def test_non_service_scope_exempt(self):
        source = "import asyncio\nq = asyncio.Queue()\n"
        assert rules_hit(source, "experiments/foo.py") == []

    def test_reasoned_suppression_honoured(self):
        source = ("import queue\n"
                  "q = queue.SimpleQueue()"
                  "  # reprolint: disable=R009 (drained every tick)\n")
        result = lint_source(source, scope_path="service/foo.py")
        assert result.ok
        assert result.suppressions[0].rules == ("R009",)


# -- R006: unordered reductions -----------------------------------------------

class TestR006UnorderedReduction:
    def test_sum_dict_values_flagged(self):
        source = "total = sum(d.values())\n"
        assert rules_hit(source, "core/foo.py") == ["R006"]

    def test_sum_set_literal_flagged(self):
        source = "total = sum({1.0, 2.0})\n"
        assert rules_hit(source, "core/foo.py") == ["R006"]

    def test_sum_generator_over_set_flagged(self):
        source = "total = sum(x * x for x in set(xs))\n"
        assert rules_hit(source, "core/foo.py") == ["R006"]

    def test_sorted_reduction_clean(self):
        source = "total = sum(sorted(d.values()))\n"
        assert rules_hit(source, "core/foo.py") == []


# -- suppressions -------------------------------------------------------------

class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        source = ("total = sum(d.values())"
                  "  # reprolint: disable=R006 (values are exact ints)\n")
        result = lint_source(source, scope_path="core/foo.py")
        assert result.ok
        assert len(result.suppressions) == 1
        assert result.suppressions[0].rules == ("R006",)
        assert result.suppressions[0].reason == "values are exact ints"

    def test_reasonless_suppression_rejected(self):
        source = "total = sum(d.values())  # reprolint: disable=R006\n"
        result = lint_source(source, scope_path="core/foo.py")
        hit = sorted(d.rule for d in result.diagnostics)
        assert hit == ["R000", "R006"]  # meta-diag AND the original finding

    def test_unknown_rule_rejected(self):
        source = "x = 1  # reprolint: disable=R999 (no such rule)\n"
        result = lint_source(source, scope_path="core/foo.py")
        assert [d.rule for d in result.diagnostics] == ["R000"]

    def test_suppression_only_covers_its_line(self):
        source = ("a = sum(d.values())"
                  "  # reprolint: disable=R006 (exact ints)\n"
                  "b = sum(e.values())\n")
        result = lint_source(source, scope_path="core/foo.py")
        assert [d.rule for d in result.diagnostics] == ["R006"]
        assert result.diagnostics[0].line == 2


# -- engine plumbing ----------------------------------------------------------

class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        result = lint_source("def broken(:\n", path="bad.py")
        assert not result.ok
        assert result.diagnostics[0].rule == "E999"

    def test_scope_path_relative_to_repro_root(self):
        assert scope_path_for("src/repro/geo/region.py") == "geo/region.py"
        assert scope_path_for("/x/src/repro/core/cbgpp.py") == "core/cbgpp.py"
        assert scope_path_for("somewhere/loose.py") == "loose.py"

    def test_diagnostic_render_format(self):
        source = "total = sum(d.values())\n"
        result = lint_source(source, path="m.py", scope_path="core/foo.py")
        rendered = result.diagnostics[0].render()
        assert rendered.startswith("m.py:1:")
        assert " R006 " in rendered

    def test_json_report_schema(self):
        source = "total = sum(d.values())  # reprolint: disable=R999\n"
        result = lint_source(source, path="m.py", scope_path="core/foo.py")
        report = report_json(result)
        assert report["version"] == 3
        assert report["tool"] == "reprolint"
        assert report["files_checked"] == 1
        assert report["ok"] is False
        for diagnostic in report["diagnostics"]:
            assert set(diagnostic) == {"path", "line", "col", "rule",
                                       "message"}
        json.dumps(report)  # must be serialisable as-is

    def test_rule_ids_catalogue(self):
        assert RULE_IDS == ("R001", "R002", "R003", "R004", "R005", "R006",
                            "R007", "R008", "R009",
                            "R010", "R012", "R013")


class TestCli:
    def test_failing_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n")
        assert main([str(bad)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0
        capsys.readouterr()

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/here"]) == 2
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("total = sum(d.values())\n")
        out = tmp_path / "report.json"
        assert main([str(bad), "--json", str(out)]) == 1
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["diagnostics"][0]["rule"] == "R006"

    def test_directory_without_python_files_exits_two(self, tmp_path,
                                                      capsys):
        (tmp_path / "notes.txt").write_text("nothing to lint here\n")
        assert main([str(tmp_path)]) == 2
        assert "nothing analyzed" in capsys.readouterr().err

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert "nothing analyzed" in capsys.readouterr().err

    def test_exit_code_matrix(self, tmp_path, capsys):
        """0 = clean, 1 = diagnostics, 2 = operational error."""
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "bad.py").write_text("import random\nrandom.random()\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(empty)]) == 2
        assert main([str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R009", "R010", "R012", "R013"):
            assert rule_id in out


def test_repository_is_lint_clean():
    """The meta-test: ``python -m tools.reprolint src/`` must exit 0."""
    completed = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "src"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert completed.returncode == 0, (
        f"reprolint found violations in src/:\n{completed.stdout}")
