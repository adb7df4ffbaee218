"""The one timer of the clock gates.

Every bench reports the minimum seconds per call: scheduling noise on a
shared machine only ever adds time, so the minimum is the reading that
noise disturbs least.
"""

import math
import time

#: With no fixed round count, rounds run until this much time has
#: passed, and at least ``MIN_ROUNDS`` of them.
CALIBRATED_S = 1.0
MIN_ROUNDS = 5


def min_call_s(fn, rounds=None, iterations=1):
    """Time ``fn`` with ``time.perf_counter``.

    Each round calls ``fn`` ``iterations`` times in a row.  Returns the
    minimum over the rounds of a round's time per call, and the last
    result of ``fn``.  ``rounds=None`` runs rounds for ``CALIBRATED_S``
    and at least ``MIN_ROUNDS``.
    """
    best = math.inf
    spent = 0.0
    done = 0
    result = None
    while (done < rounds if rounds is not None
           else done < MIN_ROUNDS or spent < CALIBRATED_S):
        start = time.perf_counter()
        for _ in range(iterations):
            result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations)
        spent += elapsed
        done += 1
    return best, result
