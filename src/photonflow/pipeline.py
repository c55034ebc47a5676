"""End-to-end experiment runners on a block-parallel Monte Carlo engine.

Pulses are processed in fixed-size blocks.  Every random decision is drawn
from a substream keyed by (master seed, owning chunk, stage) with a fixed
number of draws per pulse, so any pulse's samples can be regenerated in
isolation; consecutive-pulse photon pairs that straddle a block boundary are
completed by reading the neighbour chunk's boundary row, which the counter-based
streams reach by advancing their counter rather than drawing the rows before
it.  Results are therefore bit-identical for any worker count.

A fixed instrument path delay keeps all timestamps positive for the unsigned
on-disk format; it shifts both channels equally and cancels in every delay
histogram.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    STAGE_BASE_IRF,
    STAGE_BLINK,
    STAGE_CONVERT,
    STAGE_DARK,
    STAGE_DETECT,
    STAGE_EMIT,
    STAGE_JITTER,
    STAGE_JOINT,
    STAGE_NOISE,
    STAGE_ROUTE,
    CoincidenceHistogram,
    ConfigError,
    PulseTrainConfig,
    RunSeed,
    TagStream,
    Wavelength,
    substream,
)
from .conversion import (
    ConversionConfig,
    dfg_wavelength,
    filter_offset_ghz,
    sample_noise_times,
    survival_probability,
)
from .optics import (
    COHERENCE_X_MAX,
    BeamSplitter,
    DetectorConfig,
    DetectStats,
    HomInterferometer,
    PolarizationConfig,
    apply_dead_time,
    joint_split_probabilities,
    register_arrivals,
    sample_dark_counts,
)
from .source import (
    EMIT_DRAWS_PER_PULSE,
    BlinkTable,
    EmitterConfig,
    diffusion_offsets_ghz,
    sample_emission,
)

BLOCK_PULSES = 16384
PATH_DELAY_PS = 1_000_000


@dataclass(frozen=True)
class Pipeline:
    """Source plus optional conversion stage feeding a measurement topology."""

    emitter: EmitterConfig
    train: PulseTrainConfig
    seed: RunSeed
    conversion: ConversionConfig | None = None

    def output_wavelength(self) -> Wavelength:
        if self.conversion is None:
            return self.emitter.wavelength
        return dfg_wavelength(self.emitter.wavelength, self.conversion.pump_wavelength)

    def filter_center_offset_ghz(self) -> float:
        if self.conversion is None:
            return 0.0
        return filter_offset_ghz(self.conversion, self.output_wavelength())


@dataclass
class RunStats:
    pulses: int = 0
    emitted_signal: int = 0
    emitted_multi: int = 0
    conversion_lost: int = 0
    noise_injected: int = 0
    routed_lost: int = 0
    channels: tuple[DetectStats, ...] = field(default_factory=tuple)

    @property
    def emitted(self) -> int:
        return self.emitted_signal + self.emitted_multi

    @property
    def converted(self) -> int:
        return self.emitted - self.conversion_lost

    def merge(self, other: "RunStats") -> None:
        self.pulses += other.pulses
        self.emitted_signal += other.emitted_signal
        self.emitted_multi += other.emitted_multi
        self.conversion_lost += other.conversion_lost
        self.noise_injected += other.noise_injected
        self.routed_lost += other.routed_lost
        for mine, theirs in zip(self.channels, other.channels):
            mine.merge(theirs)


@dataclass
class RunResult:
    streams: tuple[TagStream, ...]
    stats: RunStats

    def __iter__(self):
        return iter(self.streams)

    def by_setting(self) -> tuple["RunResult", ...]:
        """One result per setting of a multi-setting run.

        Streams and channel stats are ordered (setting, detector), and each
        stream's ``channel_id`` is its detector index; the other counts
        describe the shared pulses and are the same in every part.
        """
        n_detectors = 1 + max(stream.channel_id for stream in self.streams)
        return tuple(
            RunResult(
                streams=self.streams[k : k + n_detectors],
                stats=replace(self.stats, channels=self.stats.channels[k : k + n_detectors]),
            )
            for k in range(0, len(self.streams), n_detectors)
        )


# ---------------------------------------------------------------------------
# chunk-keyed draw reconstruction

@dataclass
class _Rows:
    """Per-pulse samples for rows [0, n) of one chunk's fixed-layout draws."""

    sig_exists: np.ndarray
    sig_ok: np.ndarray  # exists and survived conversion
    sig_time: np.ndarray
    sig_env: np.ndarray
    sig_det: np.ndarray
    comp_exists: np.ndarray
    comp_ok: np.ndarray
    comp_time: np.ndarray
    comp_env: np.ndarray
    route: np.ndarray  # (n, 4) uniforms: signal arm/port, companion arm/port
    det_u: np.ndarray | None  # (n, 2) efficiency uniforms: signal, companion
    det_z: np.ndarray | None  # (n, 2) jitter normals


def _uniform_rows(
    seed: RunSeed, chunk_start: int, stage: int, first_row: int, n_rows: int, width: int
) -> np.ndarray:
    """Rows [first_row, first_row + n_rows) of a chunk's (rows, width) uniform table.

    Philox yields four 64-bit words per counter step and each float64 uniform
    consumes one word, so the rows before ``first_row`` are skipped by a
    counter advance plus at most three discarded draws.
    """
    rng = substream(seed, chunk_start, stage)
    skip = first_row * width
    if skip:
        rng.bit_generator.advance(skip // 4)
        if skip % 4:
            rng.random(skip % 4)
    return rng.random((n_rows, width))


def _emission_rows(
    pipe: Pipeline, chunk_start: int, n_rows: int, blink: BlinkTable | None, first_row: int = 0
) -> _Rows:
    """Rows [first_row, first_row + n_rows) of chunk ``chunk_start``'s draws.

    A read that does not start at row 0 leaves out the detection draws: the
    jitter normals come from the ziggurat, which consumes a varying number of
    words per value, so that stream cannot be advanced to a row.
    """
    seed, emitter, train = pipe.seed, pipe.emitter, pipe.train
    uniforms = _uniform_rows(seed, chunk_start, STAGE_EMIT, first_row, n_rows, EMIT_DRAWS_PER_PULSE)
    first_pulse = chunk_start + first_row
    pulses = first_pulse + np.arange(n_rows)

    if emitter.spectral_diffusion_sigma_ghz > 0:
        dblocks = pulses // emitter.diffusion_block_pulses
        unique, inverse = np.unique(dblocks, return_inverse=True)
        wander = diffusion_offsets_ghz(emitter, seed, unique)[inverse]
    else:
        wander = np.zeros(n_rows)

    if blink is not None and emitter.blinking_enabled:
        bright = blink.bright_at(train.pulse_start_ps(pulses).astype(np.float64))
    else:
        bright = np.ones(n_rows, dtype=bool)

    block = sample_emission(emitter, train, first_pulse, uniforms, wander, bright)

    if pipe.conversion is not None:
        u_conv = _uniform_rows(seed, chunk_start, STAGE_CONVERT, first_row, n_rows, 2)
        offset = pipe.filter_center_offset_ghz()
        sig_ok = block.sig_exists & (
            u_conv[:, 0] < survival_probability(pipe.conversion, block.sig_detuning_ghz, offset)
        )
        comp_ok = block.comp_exists & (
            u_conv[:, 1] < survival_probability(pipe.conversion, block.comp_detuning_ghz, offset)
        )
    else:
        sig_ok = block.sig_exists
        comp_ok = block.comp_exists

    route = _uniform_rows(seed, chunk_start, STAGE_ROUTE, first_row, n_rows, 4)
    if first_row == 0:
        det_u = substream(seed, chunk_start, STAGE_DETECT).random((n_rows, 2))
        det_z = substream(seed, chunk_start, STAGE_JITTER).standard_normal((n_rows, 2))
    else:
        det_u = det_z = None

    return _Rows(
        sig_exists=block.sig_exists,
        sig_ok=sig_ok,
        sig_time=block.sig_time_ps,
        sig_env=block.sig_env_ps,
        sig_det=block.sig_detuning_ghz,
        comp_exists=block.comp_exists,
        comp_ok=comp_ok,
        comp_time=block.comp_time_ps,
        comp_env=block.comp_env_ps,
        route=route,
        det_u=det_u,
        det_z=det_z,
    )


def _build_blink_table(pipe: Pipeline) -> BlinkTable | None:
    if not pipe.emitter.blinking_enabled:
        return None
    rng = substream(pipe.seed, 0, STAGE_BLINK)
    return BlinkTable.build(pipe.emitter, float(pipe.train.duration_ps), rng)


# ---------------------------------------------------------------------------
# per-channel tag accumulation

class _ChannelSink:
    """Collects (arrival, efficiency uniform, jitter normal) per channel."""

    def __init__(self, n_channels: int):
        self.arrivals = [[] for _ in range(n_channels)]
        self.u_eff = [[] for _ in range(n_channels)]
        self.z = [[] for _ in range(n_channels)]
        self.dark = [[] for _ in range(n_channels)]

    def add(self, channel: int, arrivals, u_eff, z) -> None:
        if len(arrivals):
            self.arrivals[channel].append(np.asarray(arrivals, dtype=np.int64))
            self.u_eff[channel].append(np.asarray(u_eff))
            self.z[channel].append(np.asarray(z))

    def add_ports(self, ports: np.ndarray, arrivals, u_eff, z) -> int:
        """Route by port code (0/1 detector, negative lost); returns lost count."""
        ports = np.asarray(ports)
        arrivals, u_eff, z = np.asarray(arrivals), np.asarray(u_eff), np.asarray(z)
        for channel in range(len(self.arrivals)):
            idx = np.flatnonzero(ports == channel)
            self.add(channel, arrivals[idx], u_eff[idx], z[idx])
        return int(np.count_nonzero(ports < 0))

    def register(
        self, detectors: tuple[DetectorConfig, ...], channel_stats: tuple[DetectStats, ...]
    ) -> list[np.ndarray]:
        """Unsorted tags per channel, dark counts included; counts go to ``channel_stats``."""
        out = []
        for ch, cfg in enumerate(detectors):
            if self.arrivals[ch]:
                arrivals = np.concatenate(self.arrivals[ch])
                u = np.concatenate(self.u_eff[ch])
                z = np.concatenate(self.z[ch])
            else:
                arrivals = np.empty(0, dtype=np.int64)
                u = np.empty(0)
                z = np.empty(0)
            tags = register_arrivals(cfg, arrivals, u, z, channel_stats[ch]) + PATH_DELAY_PS
            if self.dark[ch]:
                dark = np.concatenate(self.dark[ch])
                channel_stats[ch].dark += int(dark.size)
                tags = np.concatenate([tags, dark])
            out.append(tags)
        return out


def _block_window_ps(train: PulseTrainConfig, i0: int, i1: int) -> tuple[int, int]:
    return int(train.pulse_start_ps(i0)), int(train.pulse_start_ps(i1))


def _dark_counts(
    pipe: Pipeline, detectors, i0: int, i1: int, sink: _ChannelSink
) -> None:
    if not any(d.dark_rate_cps > 0 for d in detectors):
        return
    rng = substream(pipe.seed, i0, STAGE_DARK)
    t0, t1 = _block_window_ps(pipe.train, i0, i1)
    window = (t0 + PATH_DELAY_PS, t1 + PATH_DELAY_PS)
    for ch, det in enumerate(detectors):
        sink.dark[ch].append(sample_dark_counts(det, window, rng))


def _noise_photons(pipe: Pipeline, i0: int, i1: int) -> tuple[np.ndarray, np.random.Generator | None]:
    """Noise photon times for this block plus the stream for their later draws."""
    if pipe.conversion is None or pipe.conversion.noise_rate_cps == 0:
        return np.empty(0, dtype=np.int64), None
    rng = substream(pipe.seed, i0, STAGE_NOISE)
    window = _block_window_ps(pipe.train, i0, i1)
    return sample_noise_times(pipe.conversion, window, rng), rng


# ---------------------------------------------------------------------------
# topologies

def _block_direct(pipe: Pipeline, detectors, i0: int, i1: int, blink) -> tuple[list[np.ndarray], RunStats]:
    n = i1 - i0
    rows = _emission_rows(pipe, i0, n, blink)
    stats = _new_stats(pipe, rows, i0, i1, n_channels=1)
    sink = _ChannelSink(1)
    sink.add(0, rows.sig_time[rows.sig_ok], rows.det_u[rows.sig_ok, 0], rows.det_z[rows.sig_ok, 0])
    sink.add(0, rows.comp_time[rows.comp_ok], rows.det_u[rows.comp_ok, 1], rows.det_z[rows.comp_ok, 1])

    noise_times, noise_rng = _noise_photons(pipe, i0, i1)
    if noise_times.size:
        stats.noise_injected += int(noise_times.size)
        sink.add(0, noise_times, noise_rng.random(noise_times.size), noise_rng.standard_normal(noise_times.size))

    _dark_counts(pipe, detectors, i0, i1, sink)
    tags = sink.register(detectors, stats.channels)
    return tags, stats


def _block_hbt(pipe: Pipeline, detectors, bs: BeamSplitter, i0: int, i1: int, blink):
    n = i1 - i0
    rows = _emission_rows(pipe, i0, n, blink)
    stats = _new_stats(pipe, rows, i0, i1, n_channels=2)
    sink = _ChannelSink(2)

    def ports_for(u):
        return np.where(u < bs.r, 0, np.where(u < bs.r + bs.t, 1, -1))

    for ok, times, u_arm, col in (
        (rows.sig_ok, rows.sig_time, rows.route[:, 0], 0),
        (rows.comp_ok, rows.comp_time, rows.route[:, 2], 1),
    ):
        ports = ports_for(u_arm[ok])
        stats.routed_lost += sink.add_ports(ports, times[ok], rows.det_u[ok, col], rows.det_z[ok, col])

    noise_times, noise_rng = _noise_photons(pipe, i0, i1)
    if noise_times.size:
        stats.noise_injected += int(noise_times.size)
        ports = ports_for(noise_rng.random(noise_times.size))
        stats.routed_lost += sink.add_ports(
            ports, noise_times, noise_rng.random(noise_times.size), noise_rng.standard_normal(noise_times.size)
        )

    _dark_counts(pipe, detectors, i0, i1, sink)
    return sink.register(detectors, stats.channels), stats


def _independent_ports(long_arm: np.ndarray, u_port: np.ndarray, r2: float, t2: float) -> np.ndarray:
    """Port codes for independently routed photons; loss encoded as -1.

    Photons from the long arm transmit to detector 1 and reflect to detector
    2; short-arm photons see the mirrored mapping.
    """
    from_long = np.where(u_port < t2, 0, np.where(u_port < r2 + t2, 1, -1))
    from_short = np.where(u_port < r2, 0, np.where(u_port < r2 + t2, 1, -1))
    return np.where(long_arm, from_long, from_short)


def _pair_overlap_vec(pipe: Pipeline, det_e, det_l, env_e, env_l, arm_delay_ps: float) -> np.ndarray:
    tau = pipe.emitter.lifetime_tau_ps
    x = 2.0 * math.pi * 1e-3 * (det_l - det_e) * tau
    m = np.exp(-0.5 * x * x) * np.exp(-np.abs(env_e + arm_delay_ps - env_l) / tau)
    m[np.abs(x) > COHERENCE_X_MAX] = 0.0
    return m


def _joint_ports(
    m_eff: np.ndarray, u: np.ndarray, ua: np.ndarray, r2: float, t2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ports of meeting pairs whose photons both survive the output splitter."""
    p_d1d1, p_d2d2, _, w_e_d1 = joint_split_probabilities(r2, t2, m_eff)
    bunch1 = u < p_d1d1
    bunch2 = ~bunch1 & (u < p_d1d1 + p_d2d2)
    e_to_d1 = ~bunch1 & ~bunch2 & (ua < w_e_d1)
    port_e = np.where(bunch1 | e_to_d1, 0, 1)
    port_l = np.where(bunch2 | e_to_d1, 1, 0)
    return port_e, port_l


def _block_hom(
    pipe: Pipeline,
    detectors,
    settings: tuple[HomInterferometer, ...],
    i0: int,
    i1: int,
    blink,
    n_total: int,
):
    """One block of the interferometer, simulated once for every setting.

    The settings share splitters and arm delay, so emission, arm and port
    decisions, independent routing and registration are common to all of
    them; only the joint port draw of meeting pairs is evaluated per setting.
    Tags and channel stats are ordered (setting, detector).
    """
    n = i1 - i0
    rows = _emission_rows(pipe, i0, n, blink)
    stats = _new_stats(pipe, rows, i0, i1, n_channels=len(detectors) * len(settings))
    ifo = settings[0]
    r1, t1 = ifo.bs_in.r, ifo.bs_in.t
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    delay = ifo.arm_delay_ps

    # right halo: the first pulse of the next chunk completes the last pair,
    # which can only start from a signal photon taking the long arm
    has_halo = i1 < n_total and rows.sig_ok[-1] and rows.route[-1, 0] < r1
    if has_halo:
        halo = _emission_rows(pipe, i1, 1, blink)
        sig_ok_ext = np.concatenate([rows.sig_ok, halo.sig_ok])
        sig_time_ext = np.concatenate([rows.sig_time, halo.sig_time])
        sig_env_ext = np.concatenate([rows.sig_env, halo.sig_env])
        sig_det_ext = np.concatenate([rows.sig_det, halo.sig_det])
        u_arm_ext = np.concatenate([rows.route[:, 0], halo.route[:, 0]])
        u_port_ext = np.concatenate([rows.route[:, 1], halo.route[:, 1]])
        det_u_ext = np.concatenate([rows.det_u[:, 0], halo.det_u[:, 0]])
        det_z_ext = np.concatenate([rows.det_z[:, 0], halo.det_z[:, 0]])
    else:
        sig_ok_ext, sig_time_ext = rows.sig_ok, rows.sig_time
        sig_env_ext, sig_det_ext = rows.sig_env, rows.sig_det
        u_arm_ext, u_port_ext = rows.route[:, 0], rows.route[:, 1]
        det_u_ext, det_z_ext = rows.det_u[:, 0], rows.det_z[:, 0]

    n_ext = sig_ok_ext.size
    long_arm = u_arm_ext < r1
    short_arm = (u_arm_ext < r1 + t1) & ~long_arm
    arm_lost = sig_ok_ext & ~long_arm & ~short_arm

    # meeting pairs (early pulse e long, next pulse short), owned by this block
    n_pairs = n_ext - 1
    meet = (
        sig_ok_ext[:-1] & long_arm[:-1] & sig_ok_ext[1:] & short_arm[1:]
        if n_pairs > 0
        else np.zeros(0, dtype=bool)
    )
    meet = meet[:n]  # only pairs whose early pulse belongs to this block

    # left halo: if the previous block's last pulse formed a meeting pair with
    # our first pulse, that block already routed and detected our photon
    consumed_left = False
    if i0 > 0 and rows.sig_ok[0] and short_arm[0]:
        prev = _emission_rows(pipe, i0 - BLOCK_PULSES, 1, blink, first_row=BLOCK_PULSES - 1)
        consumed_left = bool(prev.sig_ok[0] and prev.route[0, 0] < r1)

    consumed = np.zeros(n_ext, dtype=bool)
    pair_idx = np.flatnonzero(meet)
    consumed[pair_idx] = True
    consumed[pair_idx + 1] = True
    if consumed_left:
        consumed[0] = True

    sink = _ChannelSink(2)  # photons whose port is the same in every setting
    pair_sinks = [_ChannelSink(2) for _ in settings]
    if pair_idx.size:
        e, l = pair_idx, pair_idx + 1
        s = r2 + t2
        e_surv = u_port_ext[e] < s
        l_surv = u_port_ext[l] < s
        arr_e = sig_time_ext[e] + delay
        arr_l = sig_time_ext[l]

        # a lone survivor routes independently off its own port uniform
        port_e = np.where(e_surv & ~l_surv, np.where(u_port_ext[e] < t2, 0, 1), -1)
        port_l = np.where(l_surv & ~e_surv, np.where(u_port_ext[l] < r2, 0, 1), -1)
        both = e_surv & l_surv
        alone = ~both
        ea, la = e[alone], l[alone]
        stats.routed_lost += sink.add_ports(port_e[alone], arr_e[alone], det_u_ext[ea], det_z_ext[ea])
        stats.routed_lost += sink.add_ports(port_l[alone], arr_l[alone], det_u_ext[la], det_z_ext[la])

        # joint routing of pairs that both survive: the only per-setting step
        if np.any(both):
            u_join = substream(pipe.seed, i0, STAGE_JOINT).random((n, 2))
            eb, lb = e[both], l[both]
            u, ua = u_join[pair_idx[both], 0], u_join[pair_idx[both], 1]
            photons_e = (arr_e[both], det_u_ext[eb], det_z_ext[eb])
            photons_l = (arr_l[both], det_u_ext[lb], det_z_ext[lb])
            overlap = _pair_overlap_vec(
                pipe, sig_det_ext[eb], sig_det_ext[lb], sig_env_ext[eb], sig_env_ext[lb], delay
            )
            for setting, pair_sink in zip(settings, pair_sinks):
                if setting.polarization_config == PolarizationConfig.CROSS:
                    m_eff = np.zeros(eb.size)
                else:
                    m_eff = setting.classical_visibility**2 * overlap
                joint_e, joint_l = _joint_ports(m_eff, u, ua, r2, t2)
                pair_sink.add_ports(joint_e, *photons_e)
                pair_sink.add_ports(joint_l, *photons_l)

    # independent signal photons owned by this block (the first n rows)
    solo = np.flatnonzero((sig_ok_ext & ~consumed & ~arm_lost)[:n])
    stats.routed_lost += int(np.count_nonzero(arm_lost[:n]))
    if solo.size:
        long_solo = long_arm[solo]
        arr = sig_time_ext[solo] + np.where(long_solo, delay, 0)
        ports = _independent_ports(long_solo, u_port_ext[solo], r2, t2)
        stats.routed_lost += sink.add_ports(ports, arr, det_u_ext[solo], det_z_ext[solo])

    # companions and noise photons route independently (zero overlap factor)
    comp = np.flatnonzero(rows.comp_ok)
    if comp.size:
        u_arm_c = rows.route[comp, 2]
        long_c = u_arm_c < r1
        lost_c = u_arm_c >= r1 + t1
        arr_c = rows.comp_time[comp] + np.where(long_c, delay, 0)
        ports_c = _independent_ports(long_c, rows.route[comp, 3], r2, t2)
        ports_c[lost_c] = -1
        stats.routed_lost += sink.add_ports(ports_c, arr_c, rows.det_u[comp, 1], rows.det_z[comp, 1])

    noise_times, noise_rng = _noise_photons(pipe, i0, i1)
    if noise_times.size:
        stats.noise_injected += int(noise_times.size)
        u_arm_n = noise_rng.random(noise_times.size)
        u_port_n = noise_rng.random(noise_times.size)
        long_n = u_arm_n < r1
        lost_n = u_arm_n >= r1 + t1
        arr_n = noise_times + np.where(long_n, delay, 0)
        ports_n = _independent_ports(long_n, u_port_n, r2, t2)
        ports_n[lost_n] = -1
        stats.routed_lost += sink.add_ports(
            ports_n, arr_n, noise_rng.random(arr_n.size), noise_rng.standard_normal(arr_n.size)
        )

    _dark_counts(pipe, detectors, i0, i1, sink)
    shared_stats = tuple(DetectStats() for _ in detectors)
    shared_tags = sink.register(detectors, shared_stats)
    tags = []
    for k, pair_sink in enumerate(pair_sinks):
        channels = stats.channels[k * len(detectors) : (k + 1) * len(detectors)]
        for ch, pair_tags in enumerate(pair_sink.register(detectors, channels)):
            channels[ch].merge(shared_stats[ch])
            tags.append(np.concatenate([shared_tags[ch], pair_tags]))
    return tags, stats


def _new_stats(pipe: Pipeline, rows: _Rows, i0: int, i1: int, n_channels: int) -> RunStats:
    n = i1 - i0
    return RunStats(
        pulses=n,
        emitted_signal=int(np.count_nonzero(rows.sig_exists[:n])),
        emitted_multi=int(np.count_nonzero(rows.comp_exists[:n])),
        conversion_lost=int(
            np.count_nonzero(rows.sig_exists[:n] & ~rows.sig_ok[:n])
            + np.count_nonzero(rows.comp_exists[:n] & ~rows.comp_ok[:n])
        ),
        channels=tuple(DetectStats() for _ in range(n_channels)),
    )


# ---------------------------------------------------------------------------
# engine

def _block_ranges(n_pulses: int) -> list[tuple[int, int]]:
    return [(i0, min(i0 + BLOCK_PULSES, n_pulses)) for i0 in range(0, n_pulses, BLOCK_PULSES)]


class _TagFold:
    """One channel's unsorted tags, folded in block by block as blocks finish.

    The buffer grows by doubling, so each block's arrays are freed as soon as
    they are copied in instead of being held until the run ends.
    """

    def __init__(self):
        self.buf = np.empty(0, dtype=np.int64)
        self.size = 0

    def add(self, tags: np.ndarray) -> None:
        end = self.size + tags.size
        if end > self.buf.size:
            grown = np.empty(max(end, 2 * self.buf.size), dtype=np.int64)
            grown[: self.size] = self.buf[: self.size]
            self.buf = grown
        self.buf[self.size : end] = tags
        self.size = end

    def sorted(self) -> np.ndarray:
        return np.sort(self.buf[: self.size])


def _run_blocks(block_fn, pipe: Pipeline, detectors, workers: int, n_settings: int = 1) -> RunResult:
    """Run every block and merge its tags per channel.

    A block returns tags for each of ``n_settings`` settings of the same
    detectors, ordered (setting, detector); stream ``channel_id`` is the
    detector index.
    """
    n_pulses = pipe.train.n_pulses
    if n_pulses <= 0:
        raise ConfigError("n_pulses must be positive")
    blink = _build_blink_table(pipe)
    ranges = _block_ranges(n_pulses)
    channels = tuple(detectors) * n_settings
    total = RunStats(channels=tuple(DetectStats() for _ in channels))
    folds = [_TagFold() for _ in channels]

    def job(rng_pair):
        i0, i1 = rng_pair
        return block_fn(pipe, detectors, i0, i1, blink)

    def fold(results) -> None:
        for tags, stats in results:
            total.merge(stats)
            for ch_fold, arr in zip(folds, tags):
                ch_fold.add(arr)

    if workers <= 1:
        fold(job(r) for r in ranges)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fold(pool.map(job, ranges))

    streams = []
    for ch, det in enumerate(channels):
        kept, vetoed = apply_dead_time(folds[ch].sorted(), det.dead_time_ps)
        folds[ch] = None  # release the buffer before the next channel sorts
        total.channels[ch].vetoed += vetoed
        streams.append(TagStream(channel_id=ch % len(detectors), tags=kept))
    return RunResult(streams=tuple(streams), stats=total)


def _with_pulses(pipe: Pipeline, n_pulses: int | None) -> Pipeline:
    if n_pulses is None:
        return pipe
    return replace(pipe, train=replace(pipe.train, n_pulses=n_pulses))


def run_direct(
    pipe: Pipeline, det: DetectorConfig, n_pulses: int | None = None, workers: int = 1
) -> RunResult:
    """Single-detector topology: photon counting and lifetime measurements."""
    pipe = _with_pulses(pipe, n_pulses)
    return _run_blocks(_block_direct, pipe, (det,), workers)


def run_hbt(
    pipe: Pipeline,
    bs: BeamSplitter,
    det1: DetectorConfig,
    det2: DetectorConfig,
    n_pulses: int | None = None,
    workers: int = 1,
) -> RunResult:
    """Splitter with a detector on each output port (purity measurement)."""
    pipe = _with_pulses(pipe, n_pulses)

    def block(p, dets, i0, i1, blink):
        return _block_hbt(p, dets, bs, i0, i1, blink)

    return _run_blocks(block, pipe, (det1, det2), workers)


def run_hom(
    pipe: Pipeline,
    ifo: HomInterferometer | Sequence[HomInterferometer],
    det1: DetectorConfig,
    det2: DetectorConfig,
    n_pulses: int | None = None,
    workers: int = 1,
) -> RunResult:
    """Delay-matched interferometer topology (indistinguishability measurement).

    ``ifo`` is one setting or several settings that share splitters and arm
    delay, such as the co- and cross-polarized halves of a paired run.  Each
    pulse is simulated once for all of them, so every setting sees the same
    photons.  Streams and channel stats are ordered (setting, detector);
    ``RunResult.by_setting`` splits them.
    """
    settings = (ifo,) if isinstance(ifo, HomInterferometer) else tuple(ifo)
    if not settings:
        raise ConfigError("run_hom needs at least one interferometer setting")
    shared = {(s.bs_in, s.bs_out, s.arm_delay_ps) for s in settings}
    if len(shared) > 1:
        raise ConfigError("interferometer settings run together must share bs_in, bs_out and arm_delay_ps")
    pipe = _with_pulses(pipe, n_pulses)
    n_total = pipe.train.n_pulses

    def block(p, dets, i0, i1, blink):
        return _block_hom(p, dets, settings, i0, i1, blink, n_total)

    return _run_blocks(block, pipe, (det1, det2), workers, n_settings=len(settings))


def irf_pipeline(pipe: Pipeline) -> Pipeline:
    """Reference pipeline measuring the instrument response.

    The emitter is replaced by an effectively instantaneous one (the excitation
    pulse itself), conversion is bypassed, and all random stages draw from a
    disjoint substream family so the reference run is independent of the main
    run at the same master seed.
    """
    delta_emitter = replace(
        pipe.emitter,
        lifetime_tau_ps=1e-3,
        p_emit=1.0,
        p_multi=0.0,
        dephasing_linewidth_ghz=0.0,
        spectral_diffusion_sigma_ghz=0.0,
        blink_on_rate_per_us=0.0,
        blink_off_rate_per_us=0.0,
    )
    return Pipeline(
        emitter=delta_emitter,
        train=pipe.train,
        seed=pipe.seed.with_stage_base(STAGE_BASE_IRF),
        conversion=None,
    )


def fold_decay(stream: TagStream, period_ps: float, bin_width_ps: int) -> CoincidenceHistogram:
    """Fold tags modulo the pulse period into a decay histogram."""
    n_bins = int(math.ceil(period_ps / bin_width_ps))
    span = n_bins * bin_width_ps
    t = stream.tags.astype(np.float64)
    rel = t - np.rint(t / period_ps) * period_ps  # [-period/2, period/2)
    idx = np.floor((rel + span / 2.0) / bin_width_ps).astype(np.int64)
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        offset_ps=-span / 2.0 + bin_width_ps / 2.0,
        counts=counts,
    )
