"""Streaming cross-correlator: the performance-critical histogram kernel."""

from __future__ import annotations

import numpy as np

from .core import CoincidenceHistogram, ConfigError, TagStream

MAX_PAIRS = 1 << 20  # pairs enumerated at once: two int64 arrays of 8 MB each
SORT_PIECE = 1 << 16  # tags per sortedness check; consecutive pieces share one tag


def _require_sorted(tags: np.ndarray) -> None:
    for start in range(0, tags.size - 1, SORT_PIECE):
        piece = tags[start : start + SORT_PIECE + 1]
        if np.any(piece[1:] < piece[:-1]):
            raise ConfigError("tag streams must be sorted")


def cross_correlate(
    a: TagStream,
    b: TagStream,
    max_delay_ps: int,
    bin_width_ps: int,
    chunk_size: int = 1 << 14,
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
    tags at a time.  So memory grows with neither the streams nor the window: at the
    7 pairs per tag of a ``hom`` run a pass peaks at about 2.5 MB.
    """
    if max_delay_ps <= 0 or bin_width_ps <= 0:
        raise ConfigError("max_delay_ps and bin_width_ps must be positive")
    if max_delay_ps % bin_width_ps != 0:
        raise ConfigError("bin_width_ps must divide max_delay_ps")
    ta, tb = a.tags, b.tags
    _require_sorted(ta)
    _require_sorted(tb)

    n_bins = 2 * max_delay_ps // bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)

    for start in range(0, ta.size, chunk_size):
        first = ta[start : start + chunk_size] - max_delay_ps  # earliest B tag each A tag reaches
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

    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        offset_ps=-max_delay_ps + bin_width_ps / 2.0,
        counts=counts,
    )
