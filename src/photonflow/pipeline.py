"""End-to-end experiment runners on a block-parallel Monte Carlo engine.

Pulses are processed in fixed-size blocks.  Every random decision is drawn
from a substream keyed by (master seed, owning chunk, stage).  Only the
emission decision is drawn for every pulse; every other draw is made only for
photons that exist, in compacted order: one emission row per emitting pulse,
and one conversion, route and detection row per photon, signal photons first.
A signal photon's rows are keyed by its emitter rank (the pulse's position
among the chunk's emitting pulses).  Consecutive-pulse photon pairs that
straddle a block boundary are completed by reading the neighbour chunk's
boundary photon: its rank follows from the chunk's per-pulse emission
uniforms, and the counter-based streams reach its rows by advancing their
counter rather than drawing the rows before it.  Results are therefore
bit-identical for any worker count.

All three topologies run through one block driver.  It emits the block's
photons, sends signal, companion and noise photons alike through the
topology's routing function, which maps each photon's route uniforms to a
detector port and an arm delay, registers them as one table split by port,
and adds dark counts.
Direct detection is one port and draws no route uniforms; the splitter reads
one per photon; the interferometer reads two and adds a meeting-pair step,
where photon pairs that meet at the output splitter get a joint port draw
per setting.

A fixed instrument path delay keeps all timestamps positive for the unsigned
on-disk format; it shifts both channels equally and cancels in every delay
histogram.  Configuration loading keeps ten sigma of IRF jitter inside it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

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
    BeamSplitter,
    DetectorConfig,
    DetectStats,
    HomInterferometer,
    apply_dead_time,
    joint_ports,
    pair_overlap,
    register_arrivals,
    sample_dark_counts,
    split_ports,
)
from .source import (
    EMIT_DRAWS,
    BlinkTable,
    EmissionBlock,
    EmitterConfig,
    diffusion_offsets_ghz,
    emitting,
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

def _stream(seed: RunSeed, chunk_start: int, stage: int, skip: int = 0) -> np.random.Generator:
    """A chunk's substream with its first ``skip`` uniforms passed over.

    Philox yields four 64-bit words per counter step and each float64 uniform
    consumes one word, so the skip is a counter advance plus at most three
    discarded draws.
    """
    rng = substream(seed, chunk_start, stage)
    if skip:
        rng.bit_generator.advance(skip // 4)
        if skip % 4:
            rng.random(skip % 4)
    return rng


def _pulse_bright(blink: BlinkTable | None, train: PulseTrainConfig, first_pulse: int, n: int):
    """Blinking state of pulses [first_pulse, first_pulse + n), or True without blinking."""
    if blink is None:
        return True
    return blink.bright_at(train.pulse_start_ps(first_pulse + np.arange(n)).astype(np.float64))


def _emission_rows(
    pipe: Pipeline, first_pulse: int, u_emit: np.ndarray, blink: BlinkTable | None, rng: np.random.Generator
) -> EmissionBlock:
    """Emission of pulses [first_pulse, first_pulse + u_emit.size).

    ``u_emit`` holds their emission uniforms, one per pulse.  A chunk's
    emission stream holds that column for all of its pulses, then one row of
    ``EMIT_DRAWS`` uniforms per emitting pulse; ``rng`` is the stream at the
    row of the range's first emitting pulse.
    """
    emitter, n = pipe.emitter, u_emit.size
    emits = emitting(emitter, u_emit, _pulse_bright(blink, pipe.train, first_pulse, n))
    uniforms = rng.random((int(np.count_nonzero(emits)), EMIT_DRAWS))
    wander = 0.0
    if emitter.spectral_diffusion_sigma_ghz > 0:
        dblocks = (first_pulse + np.arange(n)) // emitter.diffusion_block_pulses
        unique, inverse = np.unique(dblocks, return_inverse=True)
        wander = diffusion_offsets_ghz(emitter, pipe.seed, unique)[inverse]
    return sample_emission(emitter, pipe.train, first_pulse, emits, wander, uniforms)


def _converted(pipe: Pipeline, chunk_start: int, detuning_ghz: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Which photons survive conversion, from the chunk's conversion uniforms at ``first_row`` on.

    A chunk's conversion uniforms hold one per signal photon, by emitter
    rank, then one per companion.
    """
    if pipe.conversion is None:
        return np.ones(detuning_ghz.size, dtype=bool)
    survive = survival_probability(pipe.conversion, detuning_ghz, pipe.filter_center_offset_ghz())
    return _stream(pipe.seed, chunk_start, STAGE_CONVERT, first_row).random(detuning_ghz.size) < survive


def _signal_at(
    pipe: Pipeline, chunk_start: int, chunk_pulses: int, row: int, blink: BlinkTable | None, n_route: int
) -> tuple[EmissionBlock, np.ndarray, np.ndarray]:
    """Row ``row`` of a chunk of ``chunk_pulses`` pulses read alone, for a block halo.

    The pulse's emitter rank is the number of emitting pulses before it,
    which takes the chunk's emission uniforms up to the row (one per pulse);
    every other read is a counter advance to that rank.  Returns the
    emission, the ``sig_ok`` mask of its signal photon (survived conversion)
    and that photon's route uniforms, an ``(n_signal, n_route)`` table.
    """
    seed = pipe.seed
    u_emit = substream(seed, chunk_start, STAGE_EMIT).random(row + 1)
    bright = _pulse_bright(blink, pipe.train, chunk_start, row)
    rank = int(np.count_nonzero(emitting(pipe.emitter, u_emit[:row], bright)))
    rows = _stream(seed, chunk_start, STAGE_EMIT, chunk_pulses + EMIT_DRAWS * rank)
    block = _emission_rows(pipe, chunk_start + row, u_emit[row:], blink, rows)
    ok = _converted(pipe, chunk_start, block.sig_detuning_ghz, rank)
    return block, ok, _stream(seed, chunk_start, STAGE_ROUTE, n_route * rank).random((ok.size, n_route))


def _detection_rows(seed: RunSeed, chunk_start: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_rows`` efficiency uniforms and jitter normals of a chunk.

    Row r belongs to the chunk's r-th photon: signal photons by emitter rank,
    then companions.  The right halo reads row 0 alone; no read starts later,
    because the normals come from the ziggurat, which consumes a varying
    number of words per value, so that stream cannot be advanced to a row.
    """
    u_eff = substream(seed, chunk_start, STAGE_DETECT).random(n_rows)
    return u_eff, substream(seed, chunk_start, STAGE_JITTER).standard_normal(n_rows)


def _build_blink_table(pipe: Pipeline) -> BlinkTable | None:
    if not pipe.emitter.blinking_enabled:
        return None
    rng = substream(pipe.seed, 0, STAGE_BLINK)
    return BlinkTable.build(pipe.emitter, float(pipe.train.duration_ps), rng)


# ---------------------------------------------------------------------------
# the block driver and the three topologies

class _Photons(NamedTuple):
    """Photons entering a topology, one array entry per photon."""

    time: np.ndarray  # emission time, integer ps
    u_eff: np.ndarray  # detection efficiency uniform
    z: np.ndarray  # IRF jitter normal
    u_route: tuple[np.ndarray, ...]  # one array per route uniform the topology reads

    def take(self, idx: np.ndarray) -> "_Photons":
        """The photons at ``idx``, an index array or a boolean mask."""
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)  # one pass over the mask, then cheap gathers
        return _Photons(self.time[idx], self.u_eff[idx], self.z[idx], tuple(u[idx] for u in self.u_route))


def _register(detectors, ports, arrivals, u_eff, z) -> tuple[list[np.ndarray], list[DetectStats]]:
    """Unsorted tags and detection stats per detector of photons routed to ``ports``."""
    tags, stats = [], []
    for ch, det in enumerate(detectors):
        idx = np.flatnonzero(ports == ch)
        stats.append(DetectStats())
        tags.append(register_arrivals(det, arrivals[idx], u_eff[idx], z[idx], stats[-1]) + PATH_DELAY_PS)
    return tags, stats


def _simulate_block(pipe: Pipeline, detectors, i0: int, i1: int, blink, n_route: int, route, pairs):
    """One block of any topology: emission, routing, registration, dark counts.

    ``route`` maps photons, through their ``n_route`` route uniforms, to a
    port each (0/1 detector, negative lost) and an arm delay.  Signal,
    companion and noise photons all go through it, and a topology that reads
    no route uniform does not draw any.  Conversion, route and detection
    draws hold one row per photon that exists: signal photons by emitter
    rank, then companions.  ``pairs(block, sig_ok, signal)`` is the
    interferometer's meeting-pair step: given the signal photons that
    survived conversion, it returns the ones left for routing and, for each
    setting, the ``(ports, arrivals, u_eff, z)`` of the photons it routed
    jointly.  Without it (``None``) the block has one setting.  The routed
    photons form one table that is registered once; each setting's pair
    photons are registered on their own and join its tags and channel stats,
    which are ordered (setting, detector).
    """
    n, seed = i1 - i0, pipe.seed
    rng = substream(seed, i0, STAGE_EMIT)
    block = _emission_rows(pipe, i0, rng.random(n), blink, rng)
    k = block.sig_pulse.size
    ok = _converted(pipe, i0, np.concatenate([block.sig_detuning_ghz, block.comp_detuning_ghz]))
    sig_ok, comp_ok = ok[:k], ok[k:]
    det_u, det_z = _detection_rows(seed, i0, ok.size)
    u_route = np.empty((0, 0))
    if n_route:
        u_route = substream(seed, i0, STAGE_ROUTE).random((ok.size, n_route))
    signal = _Photons(block.sig_time_ps, det_u[:k], det_z[:k], tuple(u_route[:k].T))
    if pairs is None:
        solo, pair_tables = signal.take(sig_ok), [(np.empty(0),) * 4]
    else:
        solo, pair_tables = pairs(block, sig_ok, signal.take(sig_ok))
    batches = [solo, _Photons(block.comp_time_ps, det_u[k:], det_z[k:], tuple(u_route[k:].T)).take(comp_ok)]

    t0, t1 = int(pipe.train.pulse_start_ps(i0)), int(pipe.train.pulse_start_ps(i1))
    noise = np.empty(0, dtype=np.int64)
    if pipe.conversion is not None and pipe.conversion.noise_rate_cps > 0:
        rng = substream(pipe.seed, i0, STAGE_NOISE)
        noise = sample_noise_times(pipe.conversion, (t0, t1), rng)
    if noise.size:
        # one full array per route uniform, then the detection draws
        u_noise = tuple(rng.random((n_route, noise.size)))
        batches.append(_Photons(noise, rng.random(noise.size), rng.standard_normal(noise.size), u_noise))

    routes = [route(photons) for photons in batches]
    ports = np.concatenate([port for port, _ in routes])
    shared_tags, shared_stats = _register(
        detectors,
        ports,
        np.concatenate([photons.time + delay for photons, (_, delay) in zip(batches, routes)]),
        np.concatenate([photons.u_eff for photons in batches]),
        np.concatenate([photons.z for photons in batches]),
    )
    if any(det.dark_rate_cps > 0 for det in detectors):
        rng = substream(pipe.seed, i0, STAGE_DARK)
        dark = [sample_dark_counts(det, (t0 + PATH_DELAY_PS, t1 + PATH_DELAY_PS), rng) for det in detectors]
    else:
        dark = [np.empty(0, dtype=np.int64)] * len(detectors)

    tags, channels = [], []
    for table in pair_tables:
        pair_tags, pair_stats = _register(detectors, *table)
        for ch, stats in enumerate(pair_stats):
            stats.merge(shared_stats[ch])
            stats.dark = int(dark[ch].size)
            tags.append(np.concatenate([shared_tags[ch], pair_tags[ch], dark[ch]]))
        channels += pair_stats
    return tags, RunStats(
        pulses=n,
        emitted_signal=k,
        emitted_multi=ok.size - k,
        conversion_lost=ok.size - int(np.count_nonzero(ok)),
        noise_injected=int(noise.size),
        routed_lost=int(np.count_nonzero(ports < 0)),
        channels=tuple(channels),
    )


def _direct_route(photons: _Photons):
    """One detector and no splitter: every photon arrives undelayed."""
    return np.zeros(photons.time.size, dtype=np.int8), 0


def _splitter_route(bs: BeamSplitter, photons: _Photons):
    """One splitter with a detector on each output port."""
    return split_ports(photons.u_route[0], bs.r, bs.t), 0


def _interferometer_route(ifo: HomInterferometer, photons: _Photons):
    """Input splitter picks the arm (reflected = long), output splitter the port.

    A long-arm photon enters the output splitter from the other side, so it
    sees r and t swapped.
    """
    u_arm, u_port = photons.u_route
    arm = split_ports(u_arm, ifo.bs_in.r, ifo.bs_in.t)
    long_arm = arm == 0
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    port = np.where(long_arm, split_ports(u_port, t2, r2), split_ports(u_port, r2, t2))
    port[arm < 0] = -1
    return port, np.where(long_arm, ifo.arm_delay_ps, 0)


def _meeting_pairs(
    pipe: Pipeline, settings: tuple[HomInterferometer, ...], block: EmissionBlock, sig_ok: np.ndarray,
    signal: _Photons, i0: int, i1: int, blink, n_total: int,
) -> tuple[_Photons, list[tuple[np.ndarray, ...]]]:
    """Signal photon pairs that meet at the output splitter, for one block.

    A long-arm photon meets the next pulse's photon if that one takes the
    short arm.  When both survive the output splitter, their ports are drawn
    jointly, once per setting; every other photon routes independently.  The
    block owns the pairs whose early photon it holds: the next block's
    photon at its first pulse (right halo) completes its last pair, and its
    own photon at its first pulse is left out if the previous block's last
    pair took it (left halo).  Pulses are adjacent by index, not by position
    in the photon arrays.

    Returns the signal photons left for independent routing and, for each
    setting, the ``(ports, arrivals, u_eff, z)`` of the pair photons, early
    photons first; the arrivals and draws are the same in every setting.
    """
    ifo = settings[0]
    r1, t1 = ifo.bs_in.r, ifo.bs_in.t
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    n = i1 - i0
    pulse, env, det = block.sig_pulse[sig_ok], block.sig_env_ps[sig_ok], block.sig_detuning_ghz[sig_ok]
    has_halo = False
    if i1 < n_total and pulse.size and pulse[-1] == n - 1 and signal.u_route[0][-1] < r1:
        halo, halo_ok, u_halo = _signal_at(pipe, i1, min(BLOCK_PULSES, n_total - i1), 0, blink, 2)
        has_halo = bool(halo_ok.any())
        if has_halo:
            halo_u, halo_z = _detection_rows(pipe.seed, i1, 1)
            signal = _Photons(
                np.append(signal.time, halo.sig_time_ps),
                np.append(signal.u_eff, halo_u),
                np.append(signal.z, halo_z),
                tuple(np.append(u, h) for u, h in zip(signal.u_route, u_halo[0])),
            )
            pulse = np.append(pulse, n)
            env = np.append(env, halo.sig_env_ps)
            det = np.append(det, halo.sig_detuning_ghz)

    u_arm, u_port = signal.u_route
    arm = split_ports(u_arm, r1, t1)
    long_arm, short_arm = arm == 0, arm == 1
    survives = u_port < r2 + t2
    early = np.flatnonzero(long_arm[:-1] & short_arm[1:] & (pulse[1:] == pulse[:-1] + 1))
    early = early[survives[early] & survives[early + 1]]
    late = early + 1

    solo = np.ones(pulse.size, dtype=bool)
    solo[early] = solo[late] = False
    if has_halo:
        solo[-1] &= short_arm[-1]  # the halo photon is ours only as the late photon of our last pair
    if i0 > 0 and pulse.size and pulse[0] == 0 and short_arm[0]:
        _, prev_ok, prev_route = _signal_at(pipe, i0 - BLOCK_PULSES, BLOCK_PULSES, BLOCK_PULSES - 1, blink, 2)
        solo[0] = not (prev_ok.any() and prev_route[0, 0] < r1)

    u_joint = np.empty((0, 2))
    if early.size:
        u_joint = substream(pipe.seed, i0, STAGE_JOINT).random((early.size, 2))
    overlap = pair_overlap(
        pipe.emitter.lifetime_tau_ps, det[early], det[late], env[early], env[late], ifo.arm_delay_ps
    )
    met = signal.take(np.concatenate([early, late]))
    arrivals = met.time + np.repeat([ifo.arm_delay_ps, 0], early.size)
    tables = []
    for setting in settings:
        ports = joint_ports(r2, t2, setting.effective_overlap(overlap), u_joint[:, 0], u_joint[:, 1])
        tables.append((np.concatenate(ports), arrivals, met.u_eff, met.z))
    return signal.take(solo), tables


def _block_direct(pipe: Pipeline, detectors, i0: int, i1: int, blink):
    return _simulate_block(pipe, detectors, i0, i1, blink, 0, _direct_route, None)


def _block_hbt(pipe: Pipeline, detectors, bs: BeamSplitter, i0: int, i1: int, blink):
    return _simulate_block(pipe, detectors, i0, i1, blink, 1, partial(_splitter_route, bs), None)


def _block_hom(
    pipe: Pipeline,
    detectors,
    settings: tuple[HomInterferometer, ...],
    i0: int,
    i1: int,
    blink,
    n_total: int,
):
    """One interferometer block, simulated once for every setting.

    The settings share splitters and arm delay, so only the joint port draw
    of meeting pairs is evaluated per setting.
    """
    def pairs(block, sig_ok, signal):
        return _meeting_pairs(pipe, settings, block, sig_ok, signal, i0, i1, blink, n_total)

    route = partial(_interferometer_route, settings[0])
    return _simulate_block(pipe, detectors, i0, i1, blink, 2, route, pairs)


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
