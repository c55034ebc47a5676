"""Streaming correlator against brute-force enumeration."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflow import core, correlate
from photonflow.core import ConfigError, TagStream
from photonflow.correlate import cross_correlate


def brute_force(a: np.ndarray, b: np.ndarray, max_delay: int, bin_width: int) -> np.ndarray:
    """O(n*m) enumeration of all pair delays, chunked to bound memory."""
    n_bins = 2 * max_delay // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, a.size, 256):
        delays = b[None, :] - a[start : start + 256, None]
        delays = delays[(delays >= -max_delay) & (delays < max_delay)]
        counts += np.bincount((delays + max_delay) // bin_width, minlength=n_bins)
    return counts


def stream(values):
    return TagStream(channel_id=0, tags=np.sort(np.asarray(values, dtype=np.int64)))


class TestCrossCorrelate:
    def test_single_pair(self):
        h = cross_correlate(stream([0]), stream([5]), max_delay_ps=10, bin_width_ps=1)
        assert h.n_bins == 20
        assert h.total() == 1
        centers = h.bin_centers()
        assert centers[np.argmax(h.counts)] == 5.5  # delay 5 falls in bin [5, 6)

    def test_window_edges(self):
        h = cross_correlate(stream([100]), stream([90, 110]), max_delay_ps=10, bin_width_ps=1)
        assert h.total() == 1  # -10 included, +10 excluded
        assert h.counts[0] == 1

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n, m = rng.integers(1, 3000, size=2)
            a = np.sort(rng.integers(0, 500_000, n))
            b = np.sort(rng.integers(0, 500_000, m))
            max_delay = int(rng.choice([100, 1000, 20_000]))
            bin_width = int(rng.choice([1, 10, 100]))
            got = cross_correlate(stream(a), stream(b), max_delay, bin_width)
            assert np.array_equal(got.counts, brute_force(a, b, max_delay, bin_width))

    @given(
        a=st.lists(st.integers(0, 2000), min_size=1, max_size=80),
        b=st.lists(st.integers(0, 2000), min_size=1, max_size=80),
        bin_width=st.sampled_from([1, 5, 25]),
        workers=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_property(self, a, b, bin_width, workers):
        # a stream A shorter than ``workers`` leaves some threads an empty range
        max_delay = bin_width * 40
        got = cross_correlate(stream(a), stream(b), max_delay, bin_width, workers=workers)
        expected = brute_force(np.sort(np.asarray(a)), np.sort(np.asarray(b)), max_delay, bin_width)
        assert np.array_equal(got.counts, expected)

    def test_chunked_streams_merge_to_whole(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, 10**7, 20_000))
        b = np.sort(rng.integers(0, 10**7, 20_000))
        whole = cross_correlate(stream(a), stream(b), 10_000, 100)
        chunks = [cross_correlate(stream(chunk), stream(b), 10_000, 100) for chunk in np.array_split(a, 5)]
        assert np.array_equal(whole.counts, sum(h.counts for h in chunks))

    def test_internal_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(8)
        a = np.sort(rng.integers(0, 10**6, 5000))
        b = np.sort(rng.integers(0, 10**6, 5000))
        monkeypatch.setattr(correlate, "CHUNK_TAGS", 17)
        h1 = cross_correlate(stream(a), stream(b), 1000, 10)
        monkeypatch.setattr(correlate, "CHUNK_TAGS", 10**6)
        h2 = cross_correlate(stream(a), stream(b), 1000, 10)
        assert np.array_equal(h1.counts, h2.counts)
        # a cap below most tags' pair counts cuts the chunk into pieces, some of them empty
        monkeypatch.setattr(correlate, "MAX_PAIRS", 3)
        h3 = cross_correlate(stream(a), stream(b), 1000, 10)
        assert np.array_equal(h3.counts, h2.counts)
        monkeypatch.setattr(correlate, "CHUNK_TAGS", 17)
        # split over threads, with chunk ends and pair cuts inside every thread's range
        for workers in (2, 3):
            h4 = cross_correlate(stream(a), stream(b), 1000, 10, workers=workers)
            assert np.array_equal(h4.counts, h2.counts)

    def test_memory_does_not_grow_with_the_window(self):
        # every tag of A sees every tag of B: one 2048-tag chunk holds
        # 4 * MAX_PAIRS pairs, which enumerated at once take about 128 MB
        tags = np.arange(0, 2048 * 100, 100)
        tracemalloc.start()
        try:
            h = cross_correlate(stream(tags), stream(tags), 1_000_000, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.total() == 4 * correlate.MAX_PAIRS
        assert peak < 64 * correlate.MAX_PAIRS

    def test_unsorted_rejected(self):
        good = stream([1, 2, 3])
        bad = stream([1, 2, 3])
        bad.tags[0] = 10  # mutate behind the constructor's check
        with pytest.raises(ConfigError):
            cross_correlate(bad, good, 10, 1)
        with pytest.raises(ConfigError):
            cross_correlate(good, bad, 10, 1)

    @pytest.mark.parametrize("at", ["piece_end", "last_tag"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_unsorted_across_pieces_rejected(self, at, side):
        # the check runs in SORT_PIECE-tag pieces: a step back between two of
        # them, or onto the last tag, is caught only if the pieces overlap
        tags = np.arange(2 * core.SORT_PIECE + 10) * 1000
        good, bad = stream(tags), stream(tags)
        i = core.SORT_PIECE if at == "piece_end" else tags.size - 1
        bad.tags[i] = bad.tags[i - 1] - 1  # mutate behind the constructor's check
        with pytest.raises(ConfigError):
            cross_correlate(*((bad, good) if side == "a" else (good, bad)), 1000, 10)

    def test_memory_below_half_a_stream(self):
        # hom-like density, about 7 pairs per tag: a pass holds a chunk's
        # pairs, not a stream-sized temporary such as np.diff of a stream
        rng = np.random.default_rng(11)
        n, max_delay = 1 << 20, 527_400
        a, b = (stream(np.cumsum(rng.integers(0, 4 * max_delay // 7, n))) for _ in range(2))
        # on two threads at most one pass per thread is alive, about 5 MB
        for workers, bound in ((1, a.tags.nbytes / 2), (2, a.tags.nbytes)):
            tracemalloc.start()
            try:
                h = cross_correlate(a, b, max_delay, 100, workers=workers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 6 * n < h.total() < 8 * n
            assert peak < bound

    def test_binning_validated(self):
        with pytest.raises(ConfigError):
            cross_correlate(stream([0]), stream([1]), max_delay_ps=10, bin_width_ps=3)

    def test_throughput_smoke(self):
        # engineering target: well above 1e6 tags/s on a 1 us window
        rng = np.random.default_rng(9)
        n = 400_000
        a = np.sort(rng.integers(0, int(n / 5e6 * 1e12), n))
        b = np.sort(rng.integers(0, int(n / 5e6 * 1e12), n))
        t0 = time.perf_counter()
        cross_correlate(stream(a), stream(b), 1_000_000, 1000)
        elapsed = time.perf_counter() - t0
        assert (2 * n) / elapsed > 2e6
