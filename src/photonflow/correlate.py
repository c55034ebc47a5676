"""Streaming cross-correlator: the performance-critical histogram kernel."""

from __future__ import annotations

import numpy as np

from .core import CoincidenceHistogram, ConfigError, TagStream

MAX_PAIRS = 1 << 20  # pairs enumerated at once: about 50 MB of index and delay arrays


def cross_correlate(
    a: TagStream,
    b: TagStream,
    max_delay_ps: int,
    bin_width_ps: int,
    chunk_size: int = 1 << 16,
) -> CoincidenceHistogram:
    """Histogram of delays (t_b - t_a) over [-max_delay, +max_delay).

    Both streams must be sorted.  A sliding window located with binary search
    visits each qualifying pair exactly once, so the cost is
    O(n log m + pairs) and the result is identical to brute-force enumeration.
    Work proceeds in chunks of stream A, cut where their running pair count
    passes a multiple of ``MAX_PAIRS``, so memory does not grow with the window.
    """
    if max_delay_ps <= 0 or bin_width_ps <= 0:
        raise ConfigError("max_delay_ps and bin_width_ps must be positive")
    if max_delay_ps % bin_width_ps != 0:
        raise ConfigError("bin_width_ps must divide max_delay_ps")
    ta, tb = a.tags, b.tags
    if np.any(np.diff(ta) < 0) or np.any(np.diff(tb) < 0):
        raise ConfigError("tag streams must be sorted")

    n_bins = 2 * max_delay_ps // bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)

    for start in range(0, ta.size, chunk_size):
        a_chunk = ta[start : start + chunk_size]
        lo = np.searchsorted(tb, a_chunk - max_delay_ps, side="left")
        per = np.searchsorted(tb, a_chunk + max_delay_ps, side="left") - lo
        ends = np.cumsum(per)
        cuts = np.searchsorted(ends, np.arange(MAX_PAIRS, ends[-1], MAX_PAIRS), side="right")
        for piece in map(slice, [0, *cuts], [*cuts, per.size]):
            n_pairs = per[piece]
            total = int(n_pairs.sum())
            # flat indices of every (a_i, b_j) pair inside the window
            offsets = np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
            flat = np.repeat(lo[piece], n_pairs) + (np.arange(total) - offsets)
            delays = tb[flat] - np.repeat(a_chunk[piece], n_pairs)
            bins = (delays + max_delay_ps) // bin_width_ps
            counts += np.bincount(bins, minlength=n_bins)

    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        offset_ps=-max_delay_ps + bin_width_ps / 2.0,
        counts=counts,
    )
