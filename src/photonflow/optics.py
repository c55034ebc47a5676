"""Splitter, interferometer and detector kernels on photon arrays.

Every rule here acts on whole arrays of photons and is the one the block
engine calls.  A splitter sends each photon to port 0 (reflected), port 1
(transmitted) or loses it, from one uniform per photon.  Two-photon
interference is handled at the coincidence-probability level: when two
photons meet at the output splitter, their joint port assignment is sampled
from the two-photon distribution with an effective overlap factor.  A
``HomInterferometer`` is the instrument alone, the one the engine runs and the
visibility estimator inverts; the polarization setting of a measurement is
the argument of its ``effective_overlap``.
Everything else routes independently (a joint distribution with zero overlap
factorizes exactly into independent routing, so distinguishable photons never
need the joint path).  A detector thins arrivals by its efficiency, adds
Gaussian jitter, and applies a dead-time veto to the merged, sorted stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, poisson_times

# beyond this phase-mismatch argument the pair is treated as fully distinguishable
COHERENCE_X_MAX = 6.0

# the dead-time jump table is built JUMP_PIECE tags at a time (512 KB of
# int64), counting each window's tags for at most JUMP_STEPS steps
JUMP_PIECE = 1 << 16
JUMP_STEPS = 8


class PolarizationConfig(enum.Enum):
    CO = "co"
    CROSS = "cross"


@dataclass(frozen=True)
class BeamSplitter:
    """Splitter with reflectance r and transmittance t; excess 1 - r - t is loss."""

    r: float = 0.5
    t: float = 0.5

    def __post_init__(self):
        if self.r < 0 or self.t < 0 or self.r + self.t > 1.0 + 1e-12:
            raise ConfigError(f"beam splitter needs r, t >= 0 and r + t <= 1, got {self.r}, {self.t}")


@dataclass(frozen=True)
class HomInterferometer:
    """Unbalanced interferometer with one arm delayed by about one pulse period."""

    bs_in: BeamSplitter
    bs_out: BeamSplitter
    arm_delay_ps: int
    classical_visibility: float = 1.0  # (1 - epsilon) mode-matching factor

    def __post_init__(self):
        if not 0.0 <= self.classical_visibility <= 1.0:
            raise ConfigError("classical_visibility must be in [0, 1]")
        if self.arm_delay_ps <= 0:
            raise ConfigError("arm_delay_ps must be positive")

    @property
    def epsilon(self) -> float:
        return 1.0 - self.classical_visibility

    def effective_overlap(self, overlap: np.ndarray, polarization: PolarizationConfig) -> np.ndarray:
        """Overlap factor of the joint draw: (1 - epsilon)^2 times the pair overlap.

        Crossed polarizations make every pair distinguishable.
        """
        if polarization == PolarizationConfig.CROSS:
            return np.zeros(overlap.size)
        return self.classical_visibility**2 * overlap


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float = 1.0
    irf_sigma_ps: float = 0.0
    dead_time_ps: int = 0
    dark_rate_cps: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("detector efficiency must be in [0, 1]")
        if self.irf_sigma_ps < 0 or self.dead_time_ps < 0 or self.dark_rate_cps < 0:
            raise ConfigError("detector parameters must be non-negative")


def split_ports(u: np.ndarray, r: float, t: float) -> np.ndarray:
    """Splitter port per photon from its uniform: 0 reflected, 1 transmitted, -1 lost.

    A photon entering the other input port sees ``r`` and ``t`` swapped.
    """
    port = (u >= r).astype(np.int8)
    port[u >= r + t] = -1
    return port


def pair_overlap(
    tau_ps: float,
    det_early: np.ndarray,
    det_late: np.ndarray,
    env_early: np.ndarray,
    env_late: np.ndarray,
    arm_delay_ps: float,
) -> np.ndarray:
    """Wavepacket overlap factor of photon pairs meeting at the output splitter.

    A Gaussian kernel of the detuning difference times the exponential
    envelope-mismatch factor; zero for detunings beyond the coherence
    criterion.  The early photon's envelope is delayed by the long arm.
    """
    x = 2.0 * math.pi * 1e-3 * (det_late - det_early) * tau_ps
    m = np.exp(-0.5 * x * x) * np.exp(-np.abs(env_early + arm_delay_ps - env_late) / tau_ps)
    m[np.abs(x) > COHERENCE_X_MAX] = 0.0
    return m


def joint_split_probabilities(r2: float, t2: float, m_eff):
    """(both det1, both det2, split, P(early to det1 | split)) given both photons survive.

    ``m_eff`` is a scalar or an array of per-pair overlap factors; the four
    results have its shape.
    """
    s = r2 + t2
    rr, tt = r2 / s, t2 / s
    p_bunch = (1.0 + m_eff) * rr * tt
    p_split = rr**2 + tt**2 - 2.0 * rr * tt * m_eff
    # ordered split probabilities: distinguishable part keeps which-path identity,
    # interfering part is symmetrized
    p_early_d1 = (1.0 - m_eff) * tt**2 + 0.5 * m_eff * (tt - rr) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w_early_d1 = np.where(p_split > 0, np.divide(p_early_d1, p_split), 0.5)
    if w_early_d1.ndim == 0:
        w_early_d1 = float(w_early_d1)
    return p_bunch, p_bunch, p_split, w_early_d1


def joint_ports(
    r2: float, t2: float, m_eff: np.ndarray, u: np.ndarray, u_order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ports (early, late) of meeting pairs whose photons both survive the output splitter.

    ``u`` picks bunched-to-port-0, bunched-to-port-1 or split; for a split,
    ``u_order`` picks which photon goes to port 0.
    """
    p_d1d1, p_d2d2, _, w_e_d1 = joint_split_probabilities(r2, t2, m_eff)
    bunch1 = u < p_d1d1
    bunch2 = ~bunch1 & (u < p_d1d1 + p_d2d2)
    e_to_d1 = ~bunch1 & ~bunch2 & (u_order < w_e_d1)
    return np.where(bunch1 | e_to_d1, 0, 1), np.where(bunch2 | e_to_d1, 1, 0)


@dataclass
class DetectStats:
    """Photon bookkeeping through one detection stage."""

    n_in: int = 0
    registered: int = 0
    undetected: int = 0
    dark: int = 0
    vetoed: int = 0

    def merge(self, other: "DetectStats") -> None:
        self.n_in += other.n_in
        self.registered += other.registered
        self.undetected += other.undetected
        self.dark += other.dark
        self.vetoed += other.vetoed


def register_arrivals(
    cfg: DetectorConfig,
    arrivals_ps: np.ndarray,
    u_eff: np.ndarray,
    z_jitter: np.ndarray,
    stats: DetectStats,
) -> np.ndarray:
    """Efficiency thinning plus Gaussian IRF jitter; returns unsorted tag times, counted into ``stats``.

    Efficiency 1 keeps every arrival and reads no ``u_eff``; zero jitter reads
    no ``z_jitter``.
    """
    tags = arrivals_ps = np.asarray(arrivals_ps, dtype=np.int64)
    if cfg.efficiency < 1:
        mask = u_eff < cfg.efficiency
        tags, z_jitter = arrivals_ps[mask], z_jitter[mask]
    if cfg.irf_sigma_ps > 0:
        tags = tags + np.rint(z_jitter * cfg.irf_sigma_ps).astype(np.int64)
    stats.n_in += int(arrivals_ps.size)
    stats.registered += int(tags.size)
    stats.undetected += int(arrivals_ps.size - tags.size)
    return tags


def sample_dark_counts(
    cfg: DetectorConfig, window_ps: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Unsorted dark-count times of one detector over ``window_ps``."""
    return poisson_times(cfg.dark_rate_cps, window_ps, rng)


def _dead_time_jumps(tags_ps: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """``jumps[i]``, the first index past tag i's dead window: equal to
    ``np.searchsorted(tags_ps, tags_ps + dead_time_ps)`` on sorted tags.

    The tags inside a window are the next few in a row, so ``jumps[i]``
    starts at i + 1 and gains one per step k while
    ``tags[i + k] - tags[i] < dead_time``.  The table is built
    ``JUMP_PIECE`` tags at a time.  A piece stops at the first step that no
    window gains at, and the windows still gaining after
    ``JUMP_STEPS`` steps take their value from binary search.
    """
    n = tags_ps.size
    jumps = np.arange(1, n + 1)
    for s in range(0, n, JUMP_PIECE):
        e = min(s + JUMP_PIECE, n)
        for k in range(1, JUMP_STEPS + 1):
            hi = min(e, n - k)
            if hi <= s:
                break
            gain = tags_ps[s + k : hi + k] - tags_ps[s:hi] < dead_time_ps
            if not gain.any():
                break
            jumps[s:hi] += gain
        else:
            full = s + np.flatnonzero(gain)
            jumps[full] = np.searchsorted(tags_ps, tags_ps[full] + dead_time_ps, side="left")
    return jumps


def apply_dead_time(tags_ps: np.ndarray, dead_time_ps: int) -> tuple[np.ndarray, int]:
    """Greedy dead-time veto on a sorted tag array.

    A tag closer than dead_time to the previous accepted tag is discarded;
    vetoed tags do not extend the dead window.  With ``jumps[i]`` the first
    index past tag i's dead window, the accepted set is the orbit of index 0
    under ``jumps``.  It is found exactly without a per-tag Python loop:

    1. the array is cut into segments of ceil(sqrt(n)) tags.  The first orbit
       index at or past a segment start is the jump target of an orbit index
       before that start.  So the segment's candidate entries are the
       distinct jump targets inside it whose first source index (``jumps``
       is monotone) lies before its start, plus index 0 for the first
       segment;
    2. a walk starts from every candidate and all walks step in lockstep
       until they leave their segment, which gives each candidate's exit.
       Orbits under a monotone jump table never cross, so when two walks of
       a segment land on the same index the right one is dropped and takes
       the exit of the nearest surviving walk to its left.  Walks that never
       merge visit disjoint indices, so the walking costs O(n) in total;
    3. the true entries are stitched from index 0, one Python step per
       segment the orbit enters, and only their orbits are walked again to
       mark the kept tags.

    The jump table costs O(n · w) for windows holding w tags, up to
    ``JUMP_STEPS``; only windows past that cap use an O(log n) binary
    search each.  The walks cost O(n).
    Besides the input, memory is the table (8 bytes a tag) and a keep mask
    (1 byte a tag) while walking, and the mask and the kept tags while
    gathering, as the table is freed first: about 1.14 times the input's
    bytes on a stream that keeps most of its tags.  The walks' candidates
    grow with the tags a dead window holds, to about 10 times the input at
    10^4 tags a window.  Returns the kept tags and the vetoed count.
    """
    tags_ps = np.asarray(tags_ps, dtype=np.int64)
    n = int(tags_ps.size)
    if dead_time_ps <= 0 or n < 2:
        return tags_ps, 0
    jumps = _dead_time_jumps(tags_ps, dead_time_ps)
    # the sources before each segment start s that jump into the segment are
    # the range [first index with jump >= s, min(s, first index with jump >= end))
    seg = math.isqrt(n - 1) + 1
    seg_starts = np.arange(seg, n, seg)
    lo = np.searchsorted(jumps, seg_starts)
    hi = np.minimum(np.searchsorted(jumps, np.minimum(seg_starts + seg, n)), seg_starts)
    sizes = hi - lo
    sources = np.arange(int(sizes.sum())) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    targets = jumps[sources]
    # ranges of different segments hold targets in different segments, so a
    # target that differs from its left neighbour is new
    distinct = np.ones(targets.size, dtype=bool)
    distinct[1:] = targets[1:] != targets[:-1]
    starts = np.concatenate(([0], targets[distinct]))
    n_walks = starts.size

    ids = np.arange(n_walks)
    pos = starts
    # each walk runs until the end of its start's segment; starts are sorted
    seg_ends = np.minimum(np.arange(seg, n + seg, seg), n)
    end = np.repeat(seg_ends, np.diff(np.searchsorted(starts, seg_ends), prepend=0))
    exits = np.empty(n_walks, dtype=np.int64)
    merged = np.zeros(n_walks, dtype=bool)
    while ids.size:
        pos = jumps[pos]
        out = pos >= end
        if out.any():
            exits[ids[out]] = pos[out]
            stay = ~out
            ids, pos, end = ids[stay], pos[stay], end[stay]
        # walks still inside a segment are ordered by position within it
        dup = pos[1:] == pos[:-1]
        if dup.any():
            merged[ids[1:][dup]] = True
            stay = np.concatenate(([True], ~dup))
            ids, pos, end = ids[stay], pos[stay], end[stay]
    if merged.any():
        exits = exits[np.maximum.accumulate(np.where(merged, 0, np.arange(n_walks)))]

    # an exit is the first orbit index past its segment, so it is a
    # candidate entry of the segment it lies in
    entries = []
    entry = 0
    while entry < n:
        entries.append(entry)
        entry = int(exits[np.searchsorted(starts, entry)])

    keep = np.zeros(n, dtype=bool)
    pos = np.asarray(entries, dtype=np.int64)
    end = np.minimum(pos - pos % seg + seg, n)
    while pos.size:
        keep[pos] = True
        pos = jumps[pos]
        stay = pos < end
        pos, end = pos[stay], end[stay]
    del jumps
    kept = tags_ps[keep]
    return kept, n - kept.size
