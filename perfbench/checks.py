"""Output checks: each returns a sha256 output digest or raises CheckFailed.

The checks read plain artifacts — journal files, canonical verdict
strings, epoch digests — so the self-tests can hand them tampered copies
and watch them fail.  The digest lets two commits be compared byte for
byte on the same seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- campaign -------------------------------------------------------------------

#: Header fields every journal of one campaign shares.
_SHARED_HEADER = ("format", "version", "audit_seed", "profile", "n_cells")


def _journal_lines(path: str, *, n_servers: int, seed: int,
                   fleet: Optional[str]) -> Tuple[dict, List[str]]:
    """A finalized journal's header and record lines, header checked."""
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        lines = handle.readlines()
    try:
        header = json.loads(header_line)
    except ValueError:
        raise CheckFailed(f"{path}: unreadable journal header")
    _require(isinstance(header, dict), f"{path}: header is not an object")
    _require(header.get("format") == "repro-audit-checkpoint",
             f"{path}: not an audit journal")
    _require(header.get("complete") == n_servers,
             f"{path}: not finalized for {n_servers} servers: "
             f"complete={header.get('complete')!r}")
    _require(header.get("n_servers") == n_servers,
             f"{path}: journal is for {header.get('n_servers')!r} servers, "
             f"expected {n_servers}")
    _require(header.get("audit_seed") == seed,
             f"{path}: journal seed {header.get('audit_seed')!r} != {seed}")
    if fleet is not None:
        _require(header.get("fleet") == fleet,
                 f"{path}: journal covers another fleet slice")
    _require(len(lines) == n_servers,
             f"{path}: {len(lines)} record lines for {n_servers} servers")
    return header, lines


def _split_index(path: str, line: str, expected: int) -> str:
    """Check a record line's index; return the rest of the line."""
    head, sep, rest = line.partition(", ")
    _require(sep == ", " and head == '{"i": %d' % expected,
             f"{path}: record {expected} is out of place or torn")
    return rest


def check_campaign(*, seed: int, plan_size: int, precision_floor: float,
                   shards: Sequence[Dict[str, object]],
                   merged_path: str, report_text: str) -> str:
    """Journals finalized per shard slice, merge faithful, report sound.

    ``shards`` holds, per shard in fleet order, the journal ``path``,
    the slice size ``n_servers`` and the slice's ``fleet`` digest, as
    the shard process derived them from the plan.  The paper reports
    false-verdict precision above 0.9 at fleet scale, the floor the
    paper-scale campaign is held to; a handful of servers says nothing
    about precision.
    """
    _require(sum(int(shard["n_servers"]) for shard in shards) == plan_size,
             "shard slices do not add up to the plan")
    merged_header, merged = _journal_lines(
        merged_path, n_servers=plan_size, seed=seed, fleet=None)
    offset = 0
    for shard in shards:
        path = str(shard["path"])
        size = int(shard["n_servers"])
        header, lines = _journal_lines(path, n_servers=size, seed=seed,
                                       fleet=str(shard["fleet"]))
        _require(all(header.get(key) == merged_header.get(key)
                     for key in _SHARED_HEADER),
                 f"{path}: header disagrees with {merged_path}")
        for local, line in enumerate(lines):
            rest = _split_index(path, line, local)
            _require(_split_index(merged_path, merged[offset + local],
                                  offset + local) == rest,
                     f"{merged_path}: record {offset + local} differs from "
                     f"{path} record {local}")
        offset += size

    try:
        report = json.loads(report_text)
    except ValueError:
        raise CheckFailed("campaign report is not JSON")
    _require(report.get("n_servers") == plan_size,
             f"report covers {report.get('n_servers')!r} servers, "
             f"plan has {plan_size}")
    final = report.get("verdicts_final", {})
    _require(sum(final.values()) == plan_size,
             f"final verdicts {final} do not sum to {plan_size}")
    precision = report.get("ground_truth", {}).get("false_precision")
    _require(precision is not None and precision >= precision_floor,
             f"false-verdict precision {precision!r} is below "
             f"{precision_floor}")
    return hashlib.sha256(report_text.encode("utf-8")).hexdigest()


# -- verdict-serve --------------------------------------------------------------

#: Response fields that describe how a reply was produced, not what the
#: verdict is; ``VerdictResponse.canonical_json`` leaves them out.
VOLATILE = ("cached", "shed")


class ServeCheck:
    """Checks verdict traffic one reply at a time, keeping no replies.

    Every request must be answered exactly once and none may error; each
    ``(host, claim)`` pair must get the same canonical JSON on every
    answer, and an own-claim answer the warm pass's verdict for that
    host (``warm`` maps host id to its canonical JSON).  A shed reply is
    an answer, counted as failed by the caller.  Problems are kept, not
    raised, so the traffic runs to the end; :meth:`finish` raises the
    first one.
    """

    def __init__(self, warm: Dict[int, str], n_requests: int) -> None:
        self.warm = warm
        self.answers = bytearray(n_requests)
        #: (host_id, claim) -> (field values, canonical JSON).
        self.seen: Dict[Tuple[int, str], Tuple[tuple, str]] = {}
        self.problems: List[str] = []
        self._values = None

    def observe(self, at: int, query: Tuple[int, str], own: bool,
                reply: object) -> bool:
        """Record request ``at``'s reply; True if it carries a verdict."""
        self.answers[at] = min(255, self.answers[at] + 1)
        if isinstance(reply, BaseException):
            self.problems.append(f"request {at} errored: "
                                 f"{type(reply).__name__}: {reply}")
            return False
        if reply.shed:
            return False
        key = (reply.host_id, reply.claim)
        if key != tuple(query):
            self.problems.append(f"request {at} for {query} answered for "
                                 f"{key}")
            return False
        if self._values is None:
            self._values = attrgetter(*[
                field.name for field in fields(reply)
                if field.name not in VOLATILE])
        values = self._values(reply)
        known = self.seen.get(key)
        # Equal field values give equal canonical JSON, so only a new
        # pair or a changed value is serialised.
        if known is None:
            canonical = reply.canonical_json()
            self.seen[key] = (values, canonical)
            if own and canonical != self.warm.get(key[0]):
                self.problems.append(
                    f"request {at}: own-claim verdict for host {key[0]} "
                    "differs from the warm pass")
        elif values != known[0] and reply.canonical_json() != known[1]:
            self.problems.append(f"request {at}: verdict for {key} changed "
                                 "between answers")
        return True

    def finish(self) -> str:
        """Raise the first problem, else the digest of every verdict."""
        for at, count in enumerate(self.answers):
            _require(count == 1, f"request {at} answered {count} times")
        _require(not self.problems,
                 self.problems[0] if self.problems else "")
        digest = hashlib.sha256()
        for (host_id, claim), (_, canonical) in sorted(self.seen.items()):
            digest.update(f"{host_id}\t{claim}\t{canonical}\n"
                          .encode("utf-8"))
        return digest.hexdigest()


# -- epoch-roll -----------------------------------------------------------------

def check_roll(*, start_digest: str, pre: Sequence[str],
               steps: Sequence[Dict[str, object]],
               final: Sequence[str]) -> str:
    """Re-queries cite the new epoch; releases restore the start bytes.

    ``steps`` holds per roll its ``new_digest``, the ``cited`` epoch
    digests of its fleet re-query, and its ``reevaluated`` and
    ``carried_forward`` counts; ``final`` is the canonical fleet
    verdicts after the last roll.
    """
    _require(bool(steps), "no rolls to check")
    digest = hashlib.sha256(start_digest.encode("ascii"))
    previous = start_digest
    for at, step in enumerate(steps):
        new = str(step["new_digest"])
        _require(new != previous, f"roll {at} did not change the epoch")
        cited = set(step["cited"])  # type: ignore[arg-type]
        _require(cited == {new},
                 f"roll {at}: re-query cites {sorted(cited)}, not {new}")
        digest.update(f"{new}\t{step['reevaluated']}\t"
                      f"{step['carried_forward']}\n".encode("ascii"))
        previous = new
    _require(previous == start_digest,
             "the releases did not return to the starting epoch")
    _require(list(final) == list(pre),
             "fleet verdicts after the releases differ from the pre-roll "
             "verdicts")
    for canonical in final:
        digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()
