"""Core types: histograms, RNG substreams, time arithmetic, file formats."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflow import io
from photonflow.core import (
    C_NM_GHZ,
    SORT_PIECE,
    CoincidenceHistogram,
    ConfigError,
    PulseTrainConfig,
    RunSeed,
    TagStream,
    Wavelength,
    substream,
)


def hist(counts, bin_width=1, offset=0.5):
    return CoincidenceHistogram(bin_width_ps=bin_width, offset_ps=offset, counts=np.asarray(counts))


class TestCoincidenceHistogram:
    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            hist([1, -1])


class TestSubstream:
    def test_deterministic(self):
        seed = RunSeed(123456789)
        draws1 = substream(seed, 0, 0).random(100)
        draws2 = substream(seed, 0, 0).random(100)
        assert np.array_equal(draws1, draws2)

    def test_streams_uncorrelated(self):
        seed = RunSeed(99)
        a = substream(seed, 0, 0).random(10_000)
        b = substream(seed, 1, 0).random(10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_distinct_keys_differ(self):
        seed = RunSeed(7)
        base = substream(seed, 3, 2).random(8)
        assert not np.array_equal(base, substream(seed, 3, 3).random(8))
        assert not np.array_equal(base, substream(seed, 4, 2).random(8))
        assert not np.array_equal(base, substream(RunSeed(8), 3, 2).random(8))

    def test_stage_base_shifts_family(self):
        seed = RunSeed(7)
        shifted = seed.with_stage_base(100)
        assert not np.array_equal(
            substream(seed, 0, 0).random(8), substream(shifted, 0, 0).random(8)
        )

    def test_seed_range_checked(self):
        with pytest.raises(ConfigError):
            RunSeed(-1)
        with pytest.raises(ConfigError):
            RunSeed(2**64)
        with pytest.raises(ConfigError):
            substream(RunSeed(0), -1, 0)


class TestWavelength:
    def test_positive_required(self):
        with pytest.raises(ConfigError):
            Wavelength(0.0)

    @given(st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=100, deadline=None)
    def test_frequency_roundtrip_within_ppb(self, nm):
        wl = Wavelength(nm)
        back = Wavelength(C_NM_GHZ / wl.frequency_ghz)
        assert abs(back.nm - nm) / nm < 1e-9


class TestPulseTrain:
    def test_period(self):
        train = PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=10)
        assert math.isclose(train.period_ps, 1e6 / 73.0)

    def test_pulse_width_must_fit(self):
        with pytest.raises(ConfigError):
            PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=14000.0, n_pulses=1)

    def test_no_drift_over_long_runs(self):
        # oracle: exact rational arithmetic for the start times
        train = PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=10**8 + 1)
        period = Fraction(10**6, 73)
        for i in (1, 999, 10**6, 10**8):
            exact = float(i * period)
            assert abs(int(train.pulse_start_ps(i)) - exact) <= 0.5000001

    def test_starts_are_integers_and_monotone(self):
        train = PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=1000)
        starts = train.pulse_start_ps(np.arange(1000))
        assert starts.dtype == np.int64
        assert np.all(np.diff(starts) > 0)


class TestTagStream:
    def test_sortedness_enforced(self):
        with pytest.raises(ConfigError):
            TagStream(channel_id=0, tags=np.array([5, 3, 7]))

    def test_equal_times_allowed(self):
        stream = TagStream(channel_id=0, tags=np.array([3, 3, 7]))
        assert len(stream) == 3

    @pytest.mark.parametrize("at", ["piece_end", "last_tag"])
    def test_step_back_across_pieces_rejected(self, at):
        # the check runs in SORT_PIECE-tag pieces that share one tag
        tags = np.arange(2 * SORT_PIECE + 10) * 1000
        i = SORT_PIECE if at == "piece_end" else tags.size - 1
        tags[i] = tags[i - 1] - 1
        with pytest.raises(ConfigError):
            TagStream(channel_id=0, tags=tags)

    def test_construction_memory_below_a_quarter_of_the_stream(self):
        # no stream-sized temporary such as np.diff of the tags
        tags = np.arange(1 << 20, dtype=np.int64) * 1000
        tracemalloc.start()
        try:
            TagStream(channel_id=0, tags=tags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tags.nbytes / 4

    def test_binary_roundtrip(self, tmp_path):
        stream = TagStream(channel_id=3, tags=np.array([0, 17, 17, 2**50]))
        path = tmp_path / "s.pftg"
        io.write_tagstream(path, stream)
        back = io.read_tagstream(path)
        assert back.channel_id == 3
        assert np.array_equal(back.tags, stream.tags)
        assert path.read_bytes()[:4] == b"PFTG"

    def test_negative_tag_rejected(self, tmp_path):
        path = tmp_path / "neg.pftg"
        with pytest.raises(ConfigError, match="negative"):
            io.write_tagstream(path, TagStream(channel_id=0, tags=np.array([-5, 3])))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pftg"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(ConfigError):
            io.read_tagstream(path)

    def test_truncated_rejected(self, tmp_path):
        stream = TagStream(channel_id=0, tags=np.arange(10))
        path = tmp_path / "t.pftg"
        io.write_tagstream(path, stream)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            io.read_tagstream(path)


class TestHistogramCsv:
    def test_roundtrip(self, tmp_path):
        h = hist([3, 0, 9], bin_width=4, offset=-4.0)
        path = tmp_path / "h.csv"
        io.write_histogram_csv(path, h)
        back = io.read_histogram_csv(path)
        assert back.bin_width_ps == 4
        assert back.offset_ps == -4.0
        assert np.array_equal(back.counts, h.counts)


class TestReport:
    def test_roundtrip_types(self, tmp_path):
        path = tmp_path / "report.txt"
        io.write_report(path, {"experiment": "hbt", "g2": 0.0204, "n": 17})
        back = io.read_report(path)
        assert back["experiment"] == "hbt"
        assert back["n"] == 17
        assert math.isclose(back["g2"], 0.0204)
