"""Summary statistics for the NOPE benchmark.

A tail percentile is reported only when at least ten samples lie beyond it,
so a p99 needs 1000 samples and a run of one slow operation reports no tail
at all.

Times are also expressed at a nominal host speed. The measuring host is
shared, and neighbours slow every compute-bound loop by up to 2x in phases
lasting from a fraction of a second to minutes. The benchmark program times a
frozen reference chunk next to single-threaded operations, on the same
thread; a time t measured while the chunk took r ms becomes t * nominal / r,
the time on a host where the chunk takes its nominal time.
"""

import math

MIN_BEYOND = 10


def median(values):
    """The median of a non-empty sequence."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q):
    """The q-th percentile (0 < q < 100, nearest rank), or None when fewer
    than MIN_BEYOND samples lie above that rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100 * n)  # 1-based nearest rank
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def tail(values, candidates=(99.9, 99, 95, 90)):
    """(q, value) for the highest candidate percentile that qualifies, or
    None."""
    for q in candidates:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def at_nominal_speed(ms, ref_ms, nominal_ms):
    """A time measured while the reference chunk took ref_ms, rescaled to a
    host on which it takes nominal_ms."""
    return ms * nominal_ms / ref_ms

