"""Shared domain types, deterministic RNG substreams, and histogram primitives.

All times are integer picoseconds internally.  Randomness is derived from a
single 64-bit master seed through substreams keyed by (pulse index, stage
id), so results are bit-identical for any degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# speed of light; frequency_GHz = C_NM_GHZ / wavelength_nm
C_NM_GHZ = 299_792_458.0e-9 * 1e9  # = 2.99792458e8

PS_PER_US = 1_000_000
PS_PER_S = 1_000_000_000_000


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration values."""


# stage ids for RNG substream derivation (one per random decision family)
STAGE_EMIT = 0
STAGE_DIFFUSION = 1
STAGE_BLINK = 2
STAGE_CONVERT = 3
STAGE_NOISE = 4
STAGE_ROUTE = 5
STAGE_JOINT = 6
STAGE_DETECT = 7
STAGE_DARK = 8
STAGE_JITTER = 9
STAGE_SCAN = 10
# reference (IRF) runs reuse the same stages shifted by this offset
STAGE_BASE_IRF = 100


@dataclass(frozen=True)
class Wavelength:
    """A vacuum wavelength in nanometers."""

    nm: float

    def __post_init__(self):
        if not self.nm > 0:
            raise ConfigError(f"wavelength must be positive, got {self.nm}")

    @property
    def frequency_ghz(self) -> float:
        return C_NM_GHZ / self.nm

    @classmethod
    def from_frequency_ghz(cls, freq: float) -> "Wavelength":
        return cls(C_NM_GHZ / freq)


@dataclass(frozen=True)
class PulseTrainConfig:
    """Excitation pulse train: repetition rate, pulse duration, pulse count."""

    rep_rate_mhz: float
    pulse_width_ps: float
    n_pulses: int

    def __post_init__(self):
        if not self.rep_rate_mhz > 0:
            raise ConfigError("rep_rate_mhz must be positive")
        if self.pulse_width_ps < 0:
            raise ConfigError("pulse_width_ps must be non-negative")
        if self.pulse_width_ps >= self.period_ps:
            raise ConfigError("pulse_width_ps must be shorter than the period")
        if self.n_pulses < 0:
            raise ConfigError("n_pulses must be non-negative")

    @property
    def period_ps(self) -> float:
        # 1/MHz = 1 us = 1e6 ps
        return 1e6 / self.rep_rate_mhz

    def pulse_start_ps(self, pulse_index) -> np.ndarray:
        """Integer start time(s) of the given pulse(s).

        Computed as round(i * period) in one float64 operation per index, so
        there is no accumulated drift over long runs.
        """
        return np.rint(np.asarray(pulse_index, dtype=np.float64) * self.period_ps).astype(np.int64)

    @property
    def duration_ps(self) -> int:
        return int(self.pulse_start_ps(self.n_pulses))


@dataclass(frozen=True)
class TagStream:
    """Sorted detection timestamps (integer ps) for one detector channel."""

    channel_id: int
    tags: np.ndarray

    def __post_init__(self):
        tags = np.ascontiguousarray(self.tags, dtype=np.int64)
        object.__setattr__(self, "tags", tags)
        if tags.ndim != 1:
            raise ConfigError("tags must be a 1-d array")
        if tags.size > 1 and np.any(np.diff(tags) < 0):
            raise ConfigError("tags must be monotonically non-decreasing")

    def __len__(self) -> int:
        return int(self.tags.size)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned correlation counts.

    ``offset_ps`` is the center of bin 0; bin k is centered at
    offset_ps + k * bin_width_ps.  Counts are exact integers so histograms
    from disjoint data merge by element-wise addition.
    """

    bin_width_ps: int
    offset_ps: float
    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.bin_width_ps <= 0:
            raise ConfigError("bin_width_ps must be positive")
        if np.any(counts < 0):
            raise ConfigError("histogram counts must be non-negative")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    def bin_centers(self) -> np.ndarray:
        return self.offset_ps + self.bin_width_ps * np.arange(self.counts.size)

    def total(self) -> int:
        return int(self.counts.sum())


def merge_histograms(a: CoincidenceHistogram, b: CoincidenceHistogram) -> CoincidenceHistogram:
    """Element-wise sum of two histograms with identical binning."""
    if a.bin_width_ps != b.bin_width_ps or a.offset_ps != b.offset_ps or a.n_bins != b.n_bins:
        raise ConfigError(
            "cannot merge histograms with different binning: "
            f"({a.bin_width_ps}, {a.offset_ps}, {a.n_bins}) vs "
            f"({b.bin_width_ps}, {b.offset_ps}, {b.n_bins})"
        )
    return CoincidenceHistogram(a.bin_width_ps, a.offset_ps, a.counts + b.counts)


@dataclass(frozen=True)
class RunSeed:
    """Master seed plus the substream derivation rule.

    Substreams are derived as hash(master_seed, pulse_index, stage_id), so a
    simulation partitioned into pulse ranges produces identical output for any
    execution order or worker count.
    """

    master_seed: int
    stage_base: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")

    def with_stage_base(self, base: int) -> "RunSeed":
        return RunSeed(self.master_seed, base)


def substream(seed: RunSeed, pulse_index: int, stage_id: int) -> np.random.Generator:
    """Deterministic, statistically independent random source for one key.

    Same (seed, pulse_index, stage_id) always yields the same sequence.  The
    key becomes a SeedSequence spawn key, and SeedSequence hashes it into
    the initial state of a PCG64 generator, numpy's default.  Every stream
    is read from its start by the one block that owns its key, so a
    counter-based generator's O(1) jump (Philox) is never needed, and PCG64
    draws uniforms two to three times faster than Philox.
    """
    if pulse_index < 0 or stage_id < 0:
        raise ConfigError("pulse_index and stage_id must be non-negative")
    ss = np.random.SeedSequence(
        entropy=seed.master_seed,
        spawn_key=(seed.stage_base + stage_id, pulse_index),
    )
    return np.random.Generator(np.random.PCG64(ss))


def poisson_times(rate_cps: float, window_ps: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Unsorted integer-ps event times of a Poisson process over [t0, t1).

    Draws the count, then one uniform per event; an empty window or a zero
    rate draws nothing.
    """
    t0, t1 = window_ps
    if rate_cps == 0 or t1 <= t0:
        return np.empty(0, dtype=np.int64)
    count = rng.poisson(rate_cps * (t1 - t0) * 1e-12)
    return t0 + np.floor(rng.random(count) * (t1 - t0)).astype(np.int64)
