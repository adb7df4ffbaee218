"""Opt-in runtime sanitizer: cheap invariant assertions at module seams.

``REPRO_SANITIZE=1`` (registered in :mod:`repro.config`) arms a small
set of checks that verify, at module boundaries, the invariants the
determinism contract (DESIGN.md, "Determinism contract & static
analysis") otherwise only documents:

* **packed regions** — the operands of every packed
  :class:`~repro.geo.region.Region` set operation have their padding
  bits (beyond ``grid.n_cells``) re-verified as zero, catching in-place
  corruption of a shared word buffer the moment it feeds an op;
* **distance bank** — every field row handed out by
  :class:`~repro.geo.bank.DistanceBank` must be finite and
  non-negative (a NaN distance silently poisons every downstream mask
  comparison into ``False``);
* **path engine** — each :meth:`PathEngine.warm` cross-checks one
  deterministically sampled source row against an independent networkx
  Dijkstra sweep, so a batching or CSR-conversion fault cannot feed an
  audit wrong routed delays;
* **checkpoints** — every journalled record is round-tripped through
  the JSON codec before it is written; a payload that cannot be read
  back bit-identically (e.g. a NaN observation) trips immediately
  instead of surfacing as a resume mismatch hours later.

The sanitizer is read-only: it consumes no random draws and mutates no
state, so a sanitized run is bit-identical to an unsanitized one (this
is property-tested in ``tests/test_sanitizer.py``).  A tripped check
raises :class:`SanitizerError`.
"""

from __future__ import annotations

import numpy as np

from . import config


class SanitizerError(AssertionError):
    """A runtime invariant the determinism contract relies on was broken."""


def enabled() -> bool:
    """Is the sanitizer armed (``REPRO_SANITIZE=1``)?

    Read from the environment on every call so tests can flip it with
    ``monkeypatch.setenv``; the read is a dict lookup, far below the
    cost of any check it gates.
    """
    return bool(config.env_value(config.SANITIZE.name))


def check_region_padding(words: np.ndarray, n_bits: int, context: str) -> None:
    """Verify the packed words carry no set bits beyond ``n_bits``."""
    # Imported lazily: region.py imports this module at import time.
    from .geo.region import _check_padding_clear

    if not _check_padding_clear(words, n_bits):
        raise SanitizerError(
            f"packed region has set padding bits beyond {n_bits} cells "
            f"({context}); a word buffer was corrupted in place")


def check_distance_fields(block: np.ndarray, context: str) -> None:
    """Verify distance-field rows are finite and non-negative."""
    if not np.isfinite(block).all():
        raise SanitizerError(
            f"distance bank handed out a non-finite field ({context})")
    if (block < 0).any():
        raise SanitizerError(
            f"distance bank handed out a negative distance ({context})")


def check_rows_close(computed: np.ndarray, reference: np.ndarray,
                     context: str) -> None:
    """Verify two shortest-path rows agree (inf pattern + tight floats)."""
    computed = np.asarray(computed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if computed.shape != reference.shape:
        raise SanitizerError(
            f"shortest-path row shape mismatch ({context}): "
            f"{computed.shape} vs {reference.shape}")
    finite = np.isfinite(computed)
    if not np.array_equal(finite, np.isfinite(reference)):
        raise SanitizerError(
            f"shortest-path reachability disagrees with the networkx "
            f"reference ({context})")
    if finite.any() and not np.allclose(computed[finite], reference[finite],
                                        rtol=1e-9, atol=1e-9):
        worst = float(np.abs(computed[finite] - reference[finite]).max())
        raise SanitizerError(
            f"shortest-path row diverges from the networkx reference "
            f"by up to {worst!r} ms ({context})")
