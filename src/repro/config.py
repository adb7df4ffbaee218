"""Central registry of ``REPRO_*`` environment knobs.

Every runtime switch the reproduction honours is declared here — name,
type, default, allowed values, and a docstring — and read through
:func:`env_value`.  Reading a ``REPRO_*`` variable anywhere else is a
``reprolint`` R003 violation: scattering ``os.environ`` reads is how a
typo'd knob silently falls back to a default and quietly changes which
engine produced a fleet's verdicts.

The registry enforces three things the scattered reads never did:

* **unknown knob values are a hard error at read time** — setting
  ``REPRO_REGION_ENGINE=typo`` raises :class:`KnobError` listing the
  allowed values instead of silently picking an engine;
* **an empty string means unset** for every knob (the shell idiom
  ``REPRO_X= cmd`` clears a knob rather than smuggling ``""`` in as a
  value), consistently across knobs;
* **documentation stays honest** — ``reprolint`` cross-checks that every
  knob registered here is mentioned in README.md, and the README's knob
  table is generated from :func:`knob_table_markdown`.

The module deliberately has no repro-internal imports so any module —
including :mod:`repro.geo.region` at the bottom of the dependency
graph — can use it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

#: Values a knob read can produce: choice/path knobs yield strings (path
#: knobs ``None`` when unset), flag knobs yield booleans, int knobs yield
#: non-negative integers.
KnobValue = Union[str, bool, int, None]

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


class KnobError(ValueError):
    """A ``REPRO_*`` variable is set to a value the knob does not allow."""


@dataclass(frozen=True)
class Knob:
    """Declaration of one ``REPRO_*`` environment knob.

    ``kind`` is one of ``"choice"`` (value must be one of ``choices``),
    ``"flag"`` (boolean words), ``"path"`` (any non-empty string,
    ``None`` when unset), or ``"int"`` (a non-negative integer).
    """

    name: str
    kind: str
    default: KnobValue
    doc: str
    choices: Optional[Tuple[str, ...]] = None

    def parse(self, raw: Optional[str]) -> KnobValue:
        """Parse a raw environment string (``None``/empty = unset)."""
        if raw is None or raw == "":
            return self.default
        if self.kind == "choice":
            assert self.choices is not None
            if raw not in self.choices:
                raise KnobError(
                    f"{self.name} must be one of {self.choices}, got {raw!r}")
            return raw
        if self.kind == "flag":
            lowered = raw.lower()
            if lowered in _TRUE_WORDS:
                return True
            if lowered in _FALSE_WORDS:
                return False
            raise KnobError(
                f"{self.name} must be a boolean word "
                f"({'/'.join(_TRUE_WORDS)} or {'/'.join(_FALSE_WORDS)}), "
                f"got {raw!r}")
        if self.kind == "path":
            return raw
        if self.kind == "int":
            try:
                value = int(raw, 10)
            except ValueError:
                raise KnobError(
                    f"{self.name} must be a non-negative integer, "
                    f"got {raw!r}") from None
            if value < 0:
                raise KnobError(
                    f"{self.name} must be a non-negative integer, "
                    f"got {raw!r}")
            return value
        raise AssertionError(f"unknown knob kind {self.kind!r}")

    def allowed_text(self) -> str:
        """Human-readable allowed-values column for the README table."""
        if self.kind == "choice":
            assert self.choices is not None
            return " / ".join(f"`{choice}`" for choice in self.choices)
        if self.kind == "flag":
            return "`0` / `1`"
        if self.kind == "int":
            return "integer >= 0"
        return "any path"

    def default_text(self) -> str:
        if self.default is None:
            return "unset"
        if isinstance(self.default, bool):
            return "`1`" if self.default else "`0`"
        return f"`{self.default}`"


_REGISTRY: Dict[str, Knob] = {}


def _register(knob: Knob) -> Knob:
    if not knob.name.startswith("REPRO_"):
        raise AssertionError(f"knob {knob.name!r} must start with REPRO_")
    if knob.name in _REGISTRY:
        raise AssertionError(f"knob {knob.name!r} registered twice")
    _REGISTRY[knob.name] = knob
    return knob


REGION_ENGINE = _register(Knob(
    name="REPRO_REGION_ENGINE",
    kind="choice",
    default="packed",
    choices=("packed", "bool"),
    doc="Region representation: packed uint64 bitsets (the native "
        "engine) or the historical boolean-mask reference.",
))

PATH_ENGINE = _register(Knob(
    name="REPRO_PATH_ENGINE",
    kind="choice",
    default="csr",
    choices=("csr", "networkx"),
    doc="Routed-delay oracle: the batched scipy CSR engine or the "
        "per-source pure-Python networkx Dijkstra fallback.",
))

SNAPSHOT_DIR = _register(Knob(
    name="REPRO_SNAPSHOT_DIR",
    kind="path",
    default=None,
    doc="Directory for the persisted substrate snapshot (the Atlas "
        "mesh-ping archive, one content-digested file per world) that "
        "audits, campaign shards and `repro serve --warm` reuse across "
        "processes; unset means `$XDG_CACHE_HOME/repro`, else "
        "`~/.cache/repro`.",
))

AUDIT_ENGINE = _register(Knob(
    name="REPRO_AUDIT_ENGINE",
    kind="choice",
    default="fleet",
    choices=("fleet", "perserver"),
    doc="Fleet-audit multilateration engine: one vectorised NumPy pass "
        "over all servers at once (the native engine) or the historical "
        "per-server Python pipeline; both emit byte-identical records.",
))

CAMPAIGN_SHARDS = _register(Knob(
    name="REPRO_CAMPAIGN_SHARDS",
    kind="int",
    default=1,
    doc="Default shard count for campaign audits (`repro campaign` and "
        "run_campaign when no shard count is given): each shard journals "
        "to its own checkpoint and the merge step folds the journals "
        "into one report, byte-identical at any shard count.",
))

CAMPAIGN_DIR = _register(Knob(
    name="REPRO_CAMPAIGN_DIR",
    kind="path",
    default=None,
    doc="Directory for campaign shard journals and the merged campaign "
        "journal; unset uses a per-run temporary directory (resume "
        "across invocations then needs an explicit --journal-dir).",
))

SANITIZE = _register(Knob(
    name="REPRO_SANITIZE",
    kind="flag",
    default=False,
    doc="Enable the runtime sanitizer: cheap invariant assertions at "
        "module boundaries (packed-region padding, distance-bank "
        "finiteness, path-engine cross-check, checkpoint round-trip).",
))


SERVICE_CACHE_SLOTS = _register(Knob(
    name="REPRO_SERVICE_CACHE_SLOTS",
    kind="int",
    default=4096,
    doc="Verdict-cache capacity for the always-on verdict service "
        "(`repro serve` / VerdictService): entries beyond this are "
        "evicted least-recently-used; 0 means the built-in default.",
))

SERVICE_BATCH_MAX = _register(Knob(
    name="REPRO_SERVICE_BATCH_MAX",
    kind="int",
    default=32,
    doc="Largest micro-batch the verdict service coalesces uncached "
        "queries into before one vectorised predict_fleet sweep; "
        "0 means the built-in default.",
))

SERVICE_QUEUE_MAX = _register(Knob(
    name="REPRO_SERVICE_QUEUE_MAX",
    kind="int",
    default=256,
    doc="Bound on the verdict service's pending-request queue; arrivals "
        "past it are shed as degraded verdicts instead of queueing "
        "without bound; 0 means the built-in default.",
))

SERVICE_WORKERS = _register(Knob(
    name="REPRO_SERVICE_WORKERS",
    kind="int",
    default=1,
    doc="Fork-pool workers the verdict service evaluates uncached "
        "micro-batches with (1 = in-process, no pool); verdicts are "
        "byte-identical at any worker count.",
))


def knob(name: str) -> Knob:
    """The :class:`Knob` registered under ``name`` (KeyError if none)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered REPRO_* knob; "
            f"known knobs: {sorted(_REGISTRY)}") from None


def all_knobs() -> Tuple[Knob, ...]:
    """Every registered knob, in registration order."""
    return tuple(_REGISTRY.values())


def env_value(name: str) -> KnobValue:
    """The knob's current value from the environment, validated.

    Unset (or empty-string) variables yield the declared default; any
    other value is parsed per the knob's kind and an invalid value
    raises :class:`KnobError` naming the allowed values.  This is the
    only sanctioned way to read a ``REPRO_*`` variable.
    """
    declared = knob(name)
    return declared.parse(os.environ.get(name))


def is_set(name: str) -> bool:
    """Was the knob explicitly set (to a non-empty string)?"""
    knob(name)  # unknown names are programming errors, not "unset"
    raw = os.environ.get(name)
    return raw is not None and raw != ""


def snapshot_dir() -> str:
    """The substrate snapshot directory, resolved from the environment.

    ``REPRO_SNAPSHOT_DIR`` when set; otherwise ``repro`` under
    ``$XDG_CACHE_HOME``, falling back to ``~/.cache``.
    """
    configured = env_value(SNAPSHOT_DIR.name)
    if isinstance(configured, str):
        return configured
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(cache_home, "repro")


def knob_table_markdown() -> str:
    """The README's knob table, generated so docs can't drift."""
    lines = [
        "| Knob | Values | Default | What it does |",
        "| --- | --- | --- | --- |",
    ]
    for declared in all_knobs():
        lines.append(
            f"| `{declared.name}` | {declared.allowed_text()} "
            f"| {declared.default_text()} | {declared.doc} |")
    return "\n".join(lines)
