"""Streaming cross-correlator: the performance-critical histogram kernel."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import CoincidenceHistogram, ConfigError, TagStream, require_sorted

MAX_PAIRS = 1 << 20  # pairs enumerated at once: two int64 arrays of 8 MB each


def cross_correlate(
    a: TagStream,
    b: TagStream,
    max_delay_ps: int,
    bin_width_ps: int,
    chunk_size: int = 1 << 14,
    workers: int = 1,
) -> CoincidenceHistogram:
    """Histogram of delays (t_b - t_a) over [-max_delay, +max_delay).

    Both streams must be sorted.  A sliding window located with binary search
    visits each qualifying pair exactly once, so the cost is
    O(n log m + pairs) and the result is identical to brute-force enumeration.
    Work proceeds in passes over ``chunk_size`` tags of stream A, split where
    their running pair count passes a multiple of ``MAX_PAIRS``.  A pass holds
    at most two int64 arrays of its pairs (16 bytes per pair, for at most
    ``MAX_PAIRS`` pairs plus those of one tag of A), a few int64 arrays of its
    chunk's length and the histogram; sortedness is checked ``SORT_PIECE``
    tags at a time (``core.require_sorted``).  So memory grows with neither
    the streams nor the window: at the 7 pairs per tag of a ``hom`` run a pass
    peaks at about 2.5 MB.

    With ``workers`` of 2 or more, stream A is split into that many contiguous
    index ranges, each counted in its own thread (``searchsorted`` releases
    the GIL), and their histograms are added.  Counts are integers, so the
    result is the same for any ``workers``.  At most ``workers`` passes are
    alive at once, so the bound above is per thread: about 5 MB at ``hom``
    density for two.
    """
    if max_delay_ps <= 0 or bin_width_ps <= 0:
        raise ConfigError("max_delay_ps and bin_width_ps must be positive")
    if max_delay_ps % bin_width_ps != 0:
        raise ConfigError("bin_width_ps must divide max_delay_ps")
    ta, tb = a.tags, b.tags
    require_sorted(ta)
    require_sorted(tb)

    n_bins = 2 * max_delay_ps // bin_width_ps

    def count(i0: int, i1: int) -> np.ndarray:
        """Counts of the pairs whose A tag has an index in [i0, i1)."""
        counts = np.zeros(n_bins, dtype=np.int64)
        for start in range(i0, i1, chunk_size):
            # earliest B tag each A tag reaches
            first = ta[start : min(start + chunk_size, i1)] - max_delay_ps
            lo = np.searchsorted(tb, first, side="left")
            per = np.searchsorted(tb, first + 2 * max_delay_ps, side="left") - lo
            ends = np.cumsum(per)
            cuts = np.searchsorted(ends, np.arange(MAX_PAIRS, ends[-1], MAX_PAIRS), side="right")
            for piece in map(slice, [0, *cuts], [*cuts, per.size]):
                n_pairs = per[piece]
                # flat index into B of every (a_i, b_j) pair inside the window
                flat = np.repeat(lo[piece] - (np.cumsum(n_pairs) - n_pairs), n_pairs)
                flat += np.arange(flat.size)
                delays = tb[flat]
                del flat
                delays -= np.repeat(first[piece], n_pairs)  # delay + max_delay, never negative
                delays //= bin_width_ps
                counts += np.bincount(delays, minlength=n_bins)
                del delays  # before the next piece's arrays are made
        return counts

    if workers <= 1:
        counts = count(0, ta.size)
    else:
        bounds = [ta.size * k // workers for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(count, bounds[:-1], bounds[1:]))

    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        offset_ps=-max_delay_ps + bin_width_ps / 2.0,
        counts=counts,
    )
