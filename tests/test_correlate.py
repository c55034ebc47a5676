"""Streaming correlator against brute-force enumeration."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_property(self, a, b, bin_width):
        max_delay = bin_width * 40
        got = cross_correlate(stream(a), stream(b), max_delay, bin_width)
        expected = brute_force(np.sort(np.asarray(a)), np.sort(np.asarray(b)), max_delay, bin_width)
        assert np.array_equal(got.counts, expected)

    def test_chunked_streams_merge_to_whole(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, 10**7, 20_000))
        b = np.sort(rng.integers(0, 10**7, 20_000))
        whole = cross_correlate(stream(a), stream(b), 10_000, 100)
        chunks = [cross_correlate(stream(chunk), stream(b), 10_000, 100) for chunk in np.array_split(a, 5)]
        assert np.array_equal(whole.counts, sum(h.counts for h in chunks))

    def test_internal_chunking_invariant(self):
        rng = np.random.default_rng(8)
        a = np.sort(rng.integers(0, 10**6, 5000))
        b = np.sort(rng.integers(0, 10**6, 5000))
        h1 = cross_correlate(stream(a), stream(b), 1000, 10, chunk_size=17)
        h2 = cross_correlate(stream(a), stream(b), 1000, 10, chunk_size=10**6)
        assert np.array_equal(h1.counts, h2.counts)

    def test_unsorted_rejected(self):
        good = stream([1, 2, 3])
        bad = stream([1, 2, 3])
        bad.tags[0] = 10  # mutate behind the constructor's check
        with pytest.raises(ConfigError):
            cross_correlate(bad, good, 10, 1)
        with pytest.raises(ConfigError):
            cross_correlate(good, bad, 10, 1)

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
