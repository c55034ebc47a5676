"""Pulsed two-level emitter: single photons with impurity, dephasing, blinking.

The emitter fires once per excitation pulse.  A signal photon is produced with
probability ``p_emit``; given a signal photon, a spectrally offset,
distinguishable companion is added with probability ``p_multi`` (this is what
gives the source a nonzero central correlation peak).  Detunings combine a
slow Gaussian wander (spectral diffusion, redrawn every ``diffusion_block``
pulses) with a fast per-photon Lorentzian (pure dephasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    STAGE_DIFFUSION,
    ConfigError,
    PulseTrainConfig,
    RunSeed,
    substream,
    Wavelength,
)


def natural_linewidth_ghz(tau_ps: float) -> float:
    """Lifetime-limited (FWHM = 1/(2 pi tau)) linewidth in GHz."""
    return 1e3 / (2.0 * math.pi * tau_ps)


@dataclass(frozen=True)
class EmitterConfig:
    wavelength: Wavelength
    lifetime_tau_ps: float
    p_emit: float
    p_multi: float = 0.0
    dephasing_linewidth_ghz: float = 0.0
    spectral_diffusion_sigma_ghz: float = 0.0
    blink_on_rate_per_us: float = 0.0
    blink_off_rate_per_us: float = 0.0
    diffusion_block_pulses: int = 1000
    multi_detuning_offset_ghz: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.p_emit <= 1.0:
            raise ConfigError("p_emit must be in [0, 1]")
        if not 0.0 <= self.p_multi <= self.p_emit:
            raise ConfigError("p_multi must be in [0, p_emit]")
        if not self.lifetime_tau_ps > 0:
            raise ConfigError("lifetime_tau_ps must be positive")
        if self.dephasing_linewidth_ghz < 0 or self.spectral_diffusion_sigma_ghz < 0:
            raise ConfigError("linewidths must be non-negative")
        if min(self.blink_on_rate_per_us, self.blink_off_rate_per_us) < 0:
            raise ConfigError("blink rates must be non-negative")
        if (self.blink_on_rate_per_us > 0) != (self.blink_off_rate_per_us > 0):
            raise ConfigError("blinking needs both on and off rates (or neither)")
        if self.diffusion_block_pulses < 1:
            raise ConfigError("diffusion_block_pulses must be >= 1")

    @property
    def blinking_enabled(self) -> bool:
        return self.blink_on_rate_per_us > 0


class BlinkTable:
    """Precomputed telegraph switch times for one run.

    Built in a single sequential pass so that parallel pulse blocks can query
    the bright/dark state without advancing shared mutable state.
    """

    def __init__(self, initial_bright: bool, switch_times_ps: np.ndarray):
        self.initial_bright = initial_bright
        self.switch_times_ps = np.asarray(switch_times_ps, dtype=np.float64)

    @classmethod
    def build(cls, cfg: EmitterConfig, duration_ps: float, rng: np.random.Generator) -> "BlinkTable":
        """Telegraph of a blinking emitter over [0, duration_ps], started in its stationary distribution."""
        on, off = cfg.blink_on_rate_per_us, cfg.blink_off_rate_per_us
        initial = bright = rng.random() < on / (on + off)
        t = rng.exponential(1e6 / (off if bright else on))
        switches = []
        while t <= duration_ps:
            switches.append(t)
            bright = not bright
            t += rng.exponential(1e6 / (off if bright else on))
        return cls(initial, np.asarray(switches))

    def bright_at(self, times_ps: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.switch_times_ps, np.asarray(times_ps, dtype=np.float64), side="right")
        even = idx % 2 == 0
        return even if self.initial_bright else ~even


def _sample_cauchy(fwhm_ghz: float, rows: np.ndarray) -> np.ndarray:
    # Lorentzian line of given FWHM <=> Cauchy with scale FWHM/2; a zero
    # linewidth is certain to give no detuning and its rows hold no column
    if fwhm_ghz == 0:
        return np.zeros(rows.shape[0])
    return 0.5 * fwhm_ghz * np.tan(np.pi * (rows[:, _U_CAU] - 0.5))


def _sample_exponential(tau_ps: float, u: np.ndarray) -> np.ndarray:
    return -tau_ps * np.log1p(-u)


# columns of a photon's row: envelope start, exponential delay, then the
# dephasing uniform, which a zero linewidth does not draw; an emitting pulse's
# row ends with the companion decision, which p_multi = 0 does not draw
_U_W, _U_EXP, _U_CAU = range(3)


def companion_draws(cfg: EmitterConfig) -> int:
    """Uniforms in a companion's row: its photon's columns."""
    return 3 if cfg.dephasing_linewidth_ghz > 0 else 2


def signal_draws(cfg: EmitterConfig) -> int:
    """Uniforms in an emitting pulse's row: its signal photon's columns, then the companion decision."""
    return companion_draws(cfg) + (cfg.p_multi > 0)


@dataclass
class EmissionBlock:
    """Struct-of-arrays emission of a contiguous pulse range, one entry per photon.

    The first ``n_signal`` entries are the signal photons, one per emitting
    pulse, and the rest the companions, each part in pulse order.  ``pulse``
    is the photon's offset from the range's first pulse and ``env_ps`` its
    envelope start.  ``time_ps`` is the emission time rounded to the 1 ps
    recording grid.
    """

    n_signal: int
    pulse: np.ndarray
    time_ps: np.ndarray
    env_ps: np.ndarray
    detuning_ghz: np.ndarray


def diffusion_offsets_ghz(cfg: EmitterConfig, seed: RunSeed, block_indices: np.ndarray) -> np.ndarray:
    """Slow-wander detuning for the given diffusion-block indices.

    Each diffusion block draws its offset from its own substream, so any
    engine block can evaluate it without sequential state.
    """
    out = np.empty(len(block_indices))
    for i, bidx in enumerate(block_indices):
        rng = substream(seed, int(bidx), STAGE_DIFFUSION)
        out[i] = rng.normal(0.0, cfg.spectral_diffusion_sigma_ghz)
    return out


def emitting(cfg: EmitterConfig, rng: np.random.Generator, bright: np.ndarray) -> np.ndarray:
    """Which pulses emit a signal photon, from the blinking state and one uniform per pulse.

    ``bright`` holds the state of every pulse.  A steady emitter with
    ``p_emit`` = 1 emits at every pulse, so it draws no uniform.
    """
    if cfg.p_emit >= 1 and not cfg.blinking_enabled:
        return bright
    return bright & (rng.random(bright.size) < cfg.p_emit)


def has_companion(cfg: EmitterConfig, signal_rows: np.ndarray) -> np.ndarray:
    """Which emitting pulses add a companion photon, from the last column of their rows.

    With ``p_multi`` = 0 none does, and the rows hold no decision column.
    """
    if cfg.p_multi == 0:
        return np.zeros(signal_rows.shape[0], dtype=bool)
    return signal_rows[:, -1] < cfg.p_multi


def sample_emission(
    cfg: EmitterConfig,
    train: PulseTrainConfig,
    first_pulse: int,
    emits: np.ndarray,
    wander_ghz,
    signal_rows: np.ndarray,
    companion_rows: np.ndarray,
) -> EmissionBlock:
    """Turn the emitting pulses' uniform rows into one photon table.

    ``emits`` marks the emitting pulses of the range starting at
    ``first_pulse`` (see ``emitting``).  ``signal_rows`` has one row of
    ``signal_draws(cfg)`` columns per emitting pulse, in pulse order: the
    signal photon's envelope start, exponential delay and [dephasing], then
    the [companion decision].  ``companion_rows`` has one row of
    ``companion_draws(cfg)`` columns, the same photon columns for the
    companion, per emitting pulse that ``has_companion``, in pulse order.
    ``wander_ghz`` is the slow detuning per pulse of the range, or one value
    for all of it.  A companion sits ``multi_detuning_offset_ghz`` off line.
    """
    if signal_rows.shape[1:] != (signal_draws(cfg),) or companion_rows.shape[1:] != (companion_draws(cfg),):
        raise ValueError(f"rows need {signal_draws(cfg)} and {companion_draws(cfg)} columns")
    emitters = np.flatnonzero(emits)
    multi = np.flatnonzero(has_companion(cfg, signal_rows))
    if companion_rows.shape[0] != multi.size:
        raise ValueError(f"{multi.size} companions need as many companion rows, got {companion_rows.shape[0]}")
    k = emitters.size
    pulse = np.concatenate([emitters, emitters[multi]])
    env = train.pulse_start_ps(first_pulse + pulse).astype(np.float64)
    exact, det = np.empty(pulse.size), np.empty(pulse.size)
    for rows, part in ((signal_rows, slice(None, k)), (companion_rows, slice(k, None))):
        env[part] += rows[:, _U_W] * train.pulse_width_ps
        exact[part] = env[part] + _sample_exponential(cfg.lifetime_tau_ps, rows[:, _U_EXP])
        det[part] = _sample_cauchy(cfg.dephasing_linewidth_ghz, rows)
    det += wander_ghz[pulse] if np.ndim(wander_ghz) else wander_ghz
    det[k:] += cfg.multi_detuning_offset_ghz
    return EmissionBlock(k, pulse, np.rint(exact).astype(np.int64), env, det)


def temporal_jitter_overlap(pulse_width_ps: float, tau_ps: float) -> float:
    """E[exp(-|U1 - U2|/tau)] for independent U(0, w) excitation jitters.

    This is the envelope-overlap penalty between photons whose wavepacket
    start times each carry the excitation-pulse timing jitter.
    """
    w, tau = pulse_width_ps, tau_ps
    if w == 0:
        return 1.0
    return (2.0 * tau / w**2) * (w - tau * (1.0 - math.exp(-w / tau)))


def expected_pair_overlap(cfg: EmitterConfig, train: PulseTrainConfig) -> float:
    """Expected value of the interferometer's per-pair overlap factor.

    This is the engine-matched ground truth: the interferometer scores each
    pair with a Gaussian detuning kernel exp(-(2 pi D tau)^2 / 2), and
    consecutive pulses share the slow wander, so only the Lorentzian dephasing
    contributes to D.  E[exp(-D^2/(2 b^2))] over Cauchy(c) has the closed form
    exp(q^2/2) erfc(q/sqrt(2)) with q = c/b.
    """
    tau = cfg.lifetime_tau_ps
    q = cfg.dephasing_linewidth_ghz / natural_linewidth_ghz(tau)
    spectral = math.exp(q * q / 2.0) * math.erfc(q / math.sqrt(2.0))
    return temporal_jitter_overlap(train.pulse_width_ps, tau) * spectral
