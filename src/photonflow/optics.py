"""Measurement optics: beam splitters, the delay interferometer, detectors.

Two-photon interference is handled at the coincidence-probability level: when
two photons meet at the output splitter, their joint port assignment is
sampled from the two-photon distribution with an effective overlap factor.
Everything else routes independently (a joint distribution with zero overlap
factorizes exactly into independent routing, so distinguishable photons never
need the joint path).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Origin, PhotonRecord, TagStream

# beyond this phase-mismatch argument the pair is treated as fully distinguishable
COHERENCE_X_MAX = 6.0


class SplitPort(enum.Enum):
    REFLECT = "reflect"
    TRANSMIT = "transmit"
    LOST = "lost"


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
    polarization_config: PolarizationConfig = PolarizationConfig.CO

    def __post_init__(self):
        if not 0.0 <= self.classical_visibility <= 1.0:
            raise ConfigError("classical_visibility must be in [0, 1]")
        if self.arm_delay_ps <= 0:
            raise ConfigError("arm_delay_ps must be positive")

    @property
    def epsilon(self) -> float:
        return 1.0 - self.classical_visibility


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


def split(bs: BeamSplitter, photon: PhotonRecord, rng: np.random.Generator) -> SplitPort:
    """Route one photon at a splitter: reflect w.p. r, transmit w.p. t, else lost."""
    u = rng.random()
    if u < bs.r:
        return SplitPort.REFLECT
    if u < bs.r + bs.t:
        return SplitPort.TRANSMIT
    return SplitPort.LOST


def pair_overlap(early: PhotonRecord, late: PhotonRecord, arm_delay_ps: float) -> float:
    """Wavepacket overlap factor for two photons meeting at the output splitter.

    Zero for companion or noise photons and for detunings beyond the coherence
    criterion; otherwise a Gaussian detuning kernel times the exponential
    envelope-mismatch factor.
    """
    if early.origin != Origin.SIGNAL or late.origin != Origin.SIGNAL:
        return 0.0
    if early.polarization != late.polarization:
        return 0.0
    tau = 0.5 * (early.wavepacket_tau_ps + late.wavepacket_tau_ps)
    if tau <= 0:
        return 0.0
    x = 2.0 * math.pi * 1e-3 * (late.detuning_ghz - early.detuning_ghz) * tau
    if abs(x) > COHERENCE_X_MAX:
        return 0.0
    delta = (early.env_start_ps + arm_delay_ps) - late.env_start_ps
    return math.exp(-0.5 * x * x) * math.exp(-abs(delta) / tau)


def _route_from_long(r2: float, t2: float, u: float) -> int:
    """Port of a lone photon arriving from the long arm: 0 = det1, 1 = det2, -1 = lost."""
    if u < t2:
        return 0
    if u < t2 + r2:
        return 1
    return -1


def _route_from_short(r2: float, t2: float, u: float) -> int:
    if u < r2:
        return 0
    if u < r2 + t2:
        return 1
    return -1


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


def hom_interfere(
    ifo: HomInterferometer,
    early: PhotonRecord,
    late: PhotonRecord,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Send two photons through the interferometer; arrival times per output port.

    Photons must be ordered by emission time.  Each routes through the short or
    long arm at the input splitter (reflection = long arm).  When the early
    photon takes the long arm and the late one the short arm they meet at the
    output splitter and their ports are drawn jointly with effective overlap
    (1 - epsilon)^2 * pair_overlap; otherwise ports are drawn independently.
    """
    if late.emit_time_ps < early.emit_time_ps:
        raise ConfigError("photons must be ordered by emission time")
    d1: list[int] = []
    d2: list[int] = []
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t

    arm_early = split(ifo.bs_in, early, rng)
    arm_late = split(ifo.bs_in, late, rng)
    u_early, u_late = rng.random(), rng.random()

    arrivals = {}
    for record, arm in ((early, arm_early), (late, arm_late)):
        if arm == SplitPort.REFLECT:
            arrivals[id(record)] = record.emit_time_ps + ifo.arm_delay_ps
        elif arm == SplitPort.TRANSMIT:
            arrivals[id(record)] = record.emit_time_ps

    meeting = arm_early == SplitPort.REFLECT and arm_late == SplitPort.TRANSMIT
    if meeting and u_early < r2 + t2 and u_late < r2 + t2:
        if ifo.polarization_config == PolarizationConfig.CROSS:
            m_eff = 0.0
        else:
            m_eff = ifo.classical_visibility**2 * pair_overlap(early, late, ifo.arm_delay_ps)
        p_d1d1, p_d2d2, _, w_early_d1 = joint_split_probabilities(r2, t2, m_eff)
        u = rng.random()
        t_early, t_late = arrivals[id(early)], arrivals[id(late)]
        if u < p_d1d1:
            d1.extend([t_early, t_late])
        elif u < p_d1d1 + p_d2d2:
            d2.extend([t_early, t_late])
        elif rng.random() < w_early_d1:
            d1.append(t_early)
            d2.append(t_late)
        else:
            d2.append(t_early)
            d1.append(t_late)
        return sorted(d1), sorted(d2)

    for record, arm, u in ((early, arm_early, u_early), (late, arm_late, u_late)):
        if arm == SplitPort.LOST:
            continue
        port = _route_from_long(r2, t2, u) if arm == SplitPort.REFLECT else _route_from_short(r2, t2, u)
        if port == 0:
            d1.append(arrivals[id(record)])
        elif port == 1:
            d2.append(arrivals[id(record)])
    return sorted(d1), sorted(d2)


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
    stats: DetectStats | None = None,
) -> np.ndarray:
    """Efficiency thinning plus Gaussian IRF jitter; returns unsorted tag times."""
    arrivals_ps = np.asarray(arrivals_ps, dtype=np.int64)
    mask = u_eff < cfg.efficiency
    tags = arrivals_ps[mask]
    if cfg.irf_sigma_ps > 0:
        tags = tags + np.rint(z_jitter[mask] * cfg.irf_sigma_ps).astype(np.int64)
    if stats is not None:
        stats.n_in += int(arrivals_ps.size)
        stats.registered += int(tags.size)
        stats.undetected += int(arrivals_ps.size - tags.size)
    return tags


def sample_dark_counts(
    cfg: DetectorConfig, window_ps: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    t0, t1 = window_ps
    if cfg.dark_rate_cps == 0 or t1 <= t0:
        return np.empty(0, dtype=np.int64)
    count = rng.poisson(cfg.dark_rate_cps * (t1 - t0) * 1e-12)
    return t0 + np.floor(rng.random(count) * (t1 - t0)).astype(np.int64)


def apply_dead_time(tags_ps: np.ndarray, dead_time_ps: int) -> tuple[np.ndarray, int]:
    """Greedy dead-time veto on a sorted tag array.

    A tag closer than dead_time to the previous accepted tag is discarded;
    vetoed tags do not extend the dead window.  The jump table (first index
    past each tag's dead window) is built vectorized, then the accepted set is
    the orbit of the first tag under it.
    """
    tags_ps = np.asarray(tags_ps, dtype=np.int64)
    n = int(tags_ps.size)
    if dead_time_ps <= 0 or n < 2:
        return tags_ps, 0
    jumps = np.searchsorted(tags_ps, tags_ps + dead_time_ps, side="left")
    accepted = []
    i = 0
    while i < n:
        accepted.append(i)
        i = jumps[i]
    kept = tags_ps[np.asarray(accepted, dtype=np.int64)]
    return kept, n - kept.size


def detect(
    cfg: DetectorConfig,
    photons: list[PhotonRecord],
    window_ps: tuple[int, int],
    rng: np.random.Generator,
    channel_id: int = 0,
    stats: DetectStats | None = None,
) -> TagStream:
    """Full detector model for a list of photons arriving at one port.

    Each photon registers with the configured efficiency at its emission time
    plus Gaussian jitter; dark counts are Poisson-injected over the window; the
    merged, sorted stream then passes the dead-time veto.
    """
    arrivals = np.asarray([p.emit_time_ps for p in photons], dtype=np.int64)
    u_eff = rng.random(arrivals.size)
    z = rng.standard_normal(arrivals.size)
    local = stats if stats is not None else DetectStats()
    tags = register_arrivals(cfg, arrivals, u_eff, z, local)
    dark = sample_dark_counts(cfg, window_ps, rng)
    local.dark += int(dark.size)
    merged = np.sort(np.concatenate([tags, dark]))
    kept, vetoed = apply_dead_time(merged, cfg.dead_time_ps)
    local.vetoed += vetoed
    return TagStream(channel_id=channel_id, tags=kept)
