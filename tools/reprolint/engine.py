"""reprolint engine: file discovery, suppressions, reporting, CLI.

Every run has two layers.  Per-file rules (R001-R009) walk each
module's AST; the whole-program layer extracts
:class:`~tools.reprolint.callgraph.ModuleFacts` from the same parse and
feeds every module's facts to the inter-procedural rules (R010, R012,
R013 plus the cross-module R002 extension) in ``dataflow.py``.
Findings of both layers honour the same inline suppressions.  The CLI
prints one line per diagnostic and can also write a JSON report
(``--json``) and a SARIF 2.1.0 log (``--sarif``) for code-scanning
upload.

Everything is deliberately dependency-free (stdlib only) so the lint
gate runs anywhere the repository checks out — CI bootstrap, a
scipy-free container, a pre-commit hook.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import sys
import tokenize
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import ModuleFacts, Project, extract_module_facts
from .dataflow import run_project_rules
from .rules import ALL_RULES, PROJECT_RULE_IDS, PROJECT_RULE_TITLES, \
    RULE_IDS, Rule, build_import_map, extract_registered_knobs

#: Pseudo-rule for defects in suppression comments themselves
#: (reasonless, or naming an unknown rule).  Not suppressible.
META_RULE = "R000"

#: Pseudo-rule for files that fail to parse.  Not suppressible.
PARSE_RULE = "E999"

_SUPPRESS_RE = re.compile(
    r"reprolint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*\((?P<reason>[^()]*)\))?\s*$")


@dataclass(frozen=True)
class Diagnostic:
    """One ``file:line:col rule`` finding."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One well-formed inline suppression (with its mandatory reason)."""

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic]
    suppressions: List[Suppression]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.diagnostics


@dataclass
class FileRecord:
    """One file's analysis output (everything but project rules)."""

    diagnostics: List[Diagnostic]
    suppressions: List[Suppression]
    #: line -> rule ids suppressed there (project-rule findings honour
    #: them too).
    suppressed_at: Dict[int, Set[str]]
    facts: Optional[ModuleFacts]


def _parse_suppressions(source: str, path: str
                        ) -> Tuple[Dict[int, Set[str]], List[Suppression],
                                   List[Diagnostic]]:
    """Scan comments for suppressions; malformed ones become diagnostics."""
    by_line: Dict[int, Set[str]] = {}
    valid: List[Suppression] = []
    problems: List[Diagnostic] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return by_line, valid, problems  # parse diagnostics come separately
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            if "reprolint:" in token.string:
                problems.append(Diagnostic(
                    path, token.start[0], token.start[1], META_RULE,
                    "malformed reprolint comment; expected "
                    "'# reprolint: disable=RXXX (reason)'"))
            continue
        line = token.start[0]
        rules = tuple(part.strip() for part in
                      match.group("rules").split(",") if part.strip())
        reason = (match.group("reason") or "").strip()
        unknown = [rule for rule in rules if rule not in RULE_IDS]
        if unknown:
            problems.append(Diagnostic(
                path, line, token.start[1], META_RULE,
                f"suppression names unknown rule(s) {unknown}; "
                f"known rules: {list(RULE_IDS)}"))
            continue
        if not reason:
            problems.append(Diagnostic(
                path, line, token.start[1], META_RULE,
                "suppression must carry a reason: "
                "'# reprolint: disable=RXXX (why this is intentional)'"))
            continue
        by_line.setdefault(line, set()).update(rules)
        valid.append(Suppression(path=path, line=line, rules=rules,
                                 reason=reason))
    return by_line, valid, problems


def scope_path_for(path: str) -> str:
    """A file's path relative to the ``repro`` package root.

    ``src/repro/geo/region.py`` scopes as ``geo/region.py``; files
    outside a ``repro`` package scope as their bare name, which keeps
    every rule's subsystem scoping inert for unrelated trees.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    for at in range(len(parts) - 1, -1, -1):
        if parts[at] == "repro":
            tail = parts[at + 1:]
            if tail:
                return "/".join(tail)
    return parts[-1]


def lint_source(source: str, path: str = "<string>",
                scope_path: Optional[str] = None,
                rules: Sequence[Rule] = ALL_RULES) -> LintResult:
    """Lint one module's source text (per-file rules only)."""
    record = _analyze_source(source, path, scope_path, rules,
                             extract_facts=False)
    return LintResult(diagnostics=record.diagnostics,
                      suppressions=record.suppressions, files_checked=1)


def _analyze_source(source: str, path: str,
                    scope_path: Optional[str] = None,
                    rules: Sequence[Rule] = ALL_RULES,
                    extract_facts: bool = True) -> FileRecord:
    """Parse one module: per-file diagnostics plus (optionally) facts."""
    if scope_path is None:
        scope_path = scope_path_for(path)
    suppressed_at, suppressions, diagnostics = _parse_suppressions(
        source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        diagnostics.append(Diagnostic(
            path, error.lineno or 1, (error.offset or 1) - 1, PARSE_RULE,
            f"file does not parse: {error.msg}"))
        return FileRecord(diagnostics=diagnostics, suppressions=suppressions,
                          suppressed_at=suppressed_at, facts=None)
    names = build_import_map(tree)
    for rule in rules:
        if not rule.applies_to(scope_path):
            continue
        for line, col, message in rule.check(tree, names, scope_path):
            if rule.id in suppressed_at.get(line, ()):
                continue
            diagnostics.append(Diagnostic(path, line, col, rule.id, message))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    facts: Optional[ModuleFacts] = None
    if extract_facts:
        try:
            facts = extract_module_facts(tree, path, scope_path)
        except Exception as error:  # stay loud, never crash the lint
            diagnostics.append(Diagnostic(
                path, 1, 0, META_RULE,
                f"whole-program fact extraction failed: {error!r}; "
                f"inter-procedural rules cannot see this module"))
    return FileRecord(diagnostics=diagnostics, suppressions=suppressions,
                      suppressed_at=suppressed_at, facts=facts)


def _python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, entries in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d != "__pycache__" and not d.startswith("."))
            for entry in sorted(entries):
                if entry.endswith(".py"):
                    files.append(os.path.join(root, entry))
    return files


def _find_readme(config_path: str) -> Optional[str]:
    """Walk up from repro/config.py to the repository README.md."""
    directory = os.path.dirname(os.path.abspath(config_path))
    for _ in range(6):
        candidate = os.path.join(directory, "README.md")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return None


def _registry_readme_check(config_path: str, source: str) -> List[Diagnostic]:
    """R003 cross-check: every registered knob is documented in README."""
    try:
        tree = ast.parse(source, filename=config_path)
    except SyntaxError:
        return []  # the parse diagnostic is reported by lint_source
    knobs = extract_registered_knobs(tree)
    if not knobs:
        return []
    readme = _find_readme(config_path)
    if readme is None:
        return [Diagnostic(
            config_path, line, 0, "R003",
            f"knob '{name}' is registered but no README.md was found to "
            "document it in")
            for name, line in knobs]
    with open(readme, "r", encoding="utf-8") as handle:
        text = handle.read()
    return [Diagnostic(
        config_path, line, 0, "R003",
        f"registered knob '{name}' is not documented in "
        f"{os.path.relpath(readme)}; add it to the knob table")
        for name, line in knobs if name not in text]


# -- whole-program analysis ---------------------------------------------------

def analyze_paths(paths: Sequence[str],
                  rules: Sequence[Rule] = ALL_RULES) -> LintResult:
    """Lint files/directories with both per-file and project rules."""
    files = _python_files(paths)
    records: Dict[str, FileRecord] = {}
    diagnostics: List[Diagnostic] = []
    suppressions: List[Suppression] = []
    for path in files:
        with open(path, "rb") as handle:
            source = handle.read().decode("utf-8")
        record = records[path] = _analyze_source(source, path, rules=rules)
        diagnostics.extend(record.diagnostics)
        suppressions.extend(record.suppressions)
        if scope_path_for(path) == "config.py":
            diagnostics.extend(_registry_readme_check(path, source))
    project = Project([record.facts for record in records.values()
                       if record.facts is not None])
    for finding_path, line, col, rule, message in run_project_rules(project):
        record = records.get(finding_path)
        if record is not None and rule in record.suppressed_at.get(line, ()):
            continue
        diagnostics.append(Diagnostic(finding_path, line, col, rule, message))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return LintResult(diagnostics=diagnostics, suppressions=suppressions,
                      files_checked=len(files))


# -- reporting ----------------------------------------------------------------

def report_json(result: LintResult) -> dict:
    """The machine-readable report (schema version 3)."""
    return {
        "version": 3,
        "tool": "reprolint",
        "files_checked": result.files_checked,
        "ok": result.ok,
        "diagnostics": [asdict(d) for d in result.diagnostics],
        "suppressions": [
            {"path": s.path, "line": s.line, "rules": list(s.rules),
             "reason": s.reason}
            for s in result.suppressions],
    }


def _rule_catalogue() -> List[Tuple[str, str]]:
    """(id, title) for every rule, meta-rules included."""
    catalogue = [(rule.id, rule.title) for rule in ALL_RULES]
    catalogue.extend((rule_id, PROJECT_RULE_TITLES[rule_id])
                     for rule_id in PROJECT_RULE_IDS)
    catalogue.append((META_RULE, "malformed reprolint suppression"))
    catalogue.append((PARSE_RULE, "file does not parse"))
    return catalogue


def sarif_report(result: LintResult) -> dict:
    """A minimal SARIF 2.1.0 log for code-scanning upload."""
    results = []
    for diagnostic in result.diagnostics:
        results.append({
            "ruleId": diagnostic.rule,
            "level": "error",
            "message": {"text": diagnostic.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": diagnostic.path.replace(os.sep, "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(1, diagnostic.line),
                        "startColumn": diagnostic.col + 1,
                    },
                },
            }],
        })
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "informationUri":
                        "https://example.invalid/reprolint",
                    "rules": [
                        {"id": rule_id,
                         "shortDescription": {"text": title}}
                        for rule_id, title in _rule_catalogue()],
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


def render(result: LintResult) -> str:
    lines = [diagnostic.render() for diagnostic in result.diagnostics]
    lines.append(
        f"reprolint: {len(result.diagnostics)} diagnostic(s), "
        f"{len(result.suppressions)} suppression(s), "
        f"{result.files_checked} file(s) checked")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="whole-program determinism & invariant linter "
                    "(per-file rules R001-R009, inter-procedural rules "
                    "R010, R012, R013; see DESIGN.md)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write a JSON report to FILE")
    parser.add_argument("--sarif", metavar="FILE", default=None,
                        help="also write a SARIF 2.1.0 log to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    arguments = parser.parse_args(argv)
    if arguments.list_rules:
        for rule_id, title in _rule_catalogue():
            print(f"{rule_id}  {title}")
        return 0
    missing = [path for path in arguments.paths if not os.path.exists(path)]
    if missing:
        print(f"reprolint: no such path(s): {missing}", file=sys.stderr)
        return 2
    result = analyze_paths(arguments.paths)
    if result.files_checked == 0:
        print(f"reprolint: nothing analyzed: no Python files under "
              f"{list(arguments.paths)}", file=sys.stderr)
        return 2
    print(render(result))
    for target, report in ((arguments.json, report_json),
                           (arguments.sarif, sarif_report)):
        if target:
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(report(result), handle, indent=2, sort_keys=True)
                handle.write("\n")
    return 0 if result.ok else 1
