"""reprolint: the repository's determinism & invariant linter.

A static analyser that encodes this reproduction's determinism
contract as machine-checked rules.  Per-file AST rules (R001–R009)
walk each module in isolation; whole-program rules (R010, R012, R013,
built on ``callgraph.py``/``dataflow.py``) track RNG generators,
wall-clock values, blocking calls and cache-key tuples across function
and module boundaries.  See DESIGN.md "Determinism contract & static
analysis".  Run it as::

    python -m tools.reprolint src/
    python -m tools.reprolint src/ --json reprolint.json --sarif reprolint.sarif
    python -m tools.reprolint --list-rules

Diagnostics print as ``file:line:col: RULE message`` and the process
exits non-zero when any active (unsuppressed) diagnostic remains; a
run that finds no Python files at all exits 2 ("nothing analyzed").
Intentional exceptions are suppressed inline with::

    something_flagged()  # reprolint: disable=R002 (benchmark timer, not sim time)

A suppression **must** carry a parenthesised reason; a reasonless (or
unknown-rule) suppression is itself a diagnostic (R000) and does not
silence anything.
"""

from .callgraph import ModuleFacts, Project, extract_module_facts  # noqa: F401
from .dataflow import run_project_rules  # noqa: F401
from .engine import (  # noqa: F401  (public API re-exports)
    Diagnostic,
    LintResult,
    Suppression,
    analyze_paths,
    lint_source,
    main,
    render,
    report_json,
    sarif_report,
)
from .rules import (  # noqa: F401
    ALL_RULES,
    PER_FILE_RULE_IDS,
    PROJECT_RULE_IDS,
    RULE_IDS,
)
