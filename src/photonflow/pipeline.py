"""End-to-end experiment runners on a block-parallel Monte Carlo engine.

Pulses are processed in fixed-size blocks.  Every random decision is drawn
from a substream keyed by (master seed, owning chunk, stage), and a block
reads only its own chunk's substreams.  No decision whose outcome is certain
draws anything.  The emission decision is drawn for every pulse unless a
steady emitter has ``p_emit`` = 1; every other draw is made only for photons
that exist, in compacted order.  The emission stream holds one row per
emitting pulse (envelope, exponential, [dephasing], [companion decision]),
then one row per companion (envelope, exponential, [dephasing]); a
dephasing column is drawn only for a nonzero linewidth and a companion
decision only for ``p_multi`` > 0.  The conversion, route, detection and
jitter streams hold one entry or row per emitted photon, signal photons
first; detection uniforms are drawn only if some detector's efficiency is
below 1, and jitter normals only if some detector has IRF jitter.  A signal
photon's rows are keyed by its emitter rank (the pulse's position among the
chunk's emitting pulses).  Interferometer photon
pairs can straddle a block edge, so a block keeps back the photons at its
edge pulses that could meet a neighbour's photon; once every block is done,
one merge step pairs them with the same rule.  A realization is therefore
fixed by the seed, the configuration and ``BLOCK_PULSES``: the worker count
never changes a bit of it, while another block size keys the draws by other
chunks and gives another realization of the same physics.

All three topologies run through one block driver.  It emits the block's
photons as one table, signal photons then companions, and routes every
photon once, right after its draws: the topology's routing function maps
each photon's route uniforms to a detector port and an arm delay, and the
photon's arrival is its emission time plus that delay.  Noise photons are
routed the same way.  Everything downstream reads the routed table: the
driver registers it split by port and adds dark counts.
Direct detection is one port and draws no route uniforms; the splitter reads
one per photon; the interferometer reads two and adds a meeting-pair step,
which reads the routed ports and arms to find the photon pairs that meet at
the output splitter and gives them a joint port draw per setting.

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
    PolarizationConfig,
    apply_dead_time,
    joint_ports,
    pair_overlap,
    register_arrivals,
    sample_dark_counts,
    split_ports,
)
from .source import (
    BlinkTable,
    EmissionBlock,
    EmitterConfig,
    companion_draws,
    diffusion_offsets_ghz,
    emitting,
    has_companion,
    sample_emission,
    signal_draws,
)

BLOCK_PULSES = 65536
PATH_DELAY_PS = 1_000_000
FOLD_PIECE = 1 << 16  # tags folded at once by fold_decay


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
# chunk-keyed draws

def _emission_rows(pipe: Pipeline, i0: int, n: int, blink: BlinkTable | None) -> EmissionBlock:
    """Emission of the chunk of pulses [i0, i0 + n).

    The chunk's emission stream holds one uniform per pulse, which a steady
    emitter with ``p_emit`` = 1 does not draw, then one row per emitting
    pulse (envelope, exponential, [dephasing], [companion decision]), then
    one row per companion (envelope, exponential, [dephasing]), each table
    in pulse order.  The dephasing column is drawn for a nonzero linewidth
    and the companion decision for ``p_multi`` > 0.  A block with k emitting
    pulses and m companions draws n + 4k + 3m uniforms when every decision is
    uncertain, and 2k when none is.
    """
    emitter, rng = pipe.emitter, substream(pipe.seed, i0, STAGE_EMIT)
    if blink is None:
        bright = np.ones(n, dtype=bool)
    else:
        bright = blink.bright_at(pipe.train.pulse_start_ps(i0 + np.arange(n)).astype(np.float64))
    emits = emitting(emitter, rng, bright)
    signal_rows = rng.random((int(np.count_nonzero(emits)), signal_draws(emitter)))
    companions = int(np.count_nonzero(has_companion(emitter, signal_rows)))
    companion_rows = rng.random((companions, companion_draws(emitter)))
    wander = 0.0
    if emitter.spectral_diffusion_sigma_ghz > 0:
        dblocks = (i0 + np.arange(n)) // emitter.diffusion_block_pulses
        unique, inverse = np.unique(dblocks, return_inverse=True)
        wander = diffusion_offsets_ghz(emitter, pipe.seed, unique)[inverse]
    return sample_emission(emitter, pipe.train, i0, emits, wander, signal_rows, companion_rows)


def _converted(pipe: Pipeline, i0: int, block: EmissionBlock):
    """The photons that survive conversion, as indices into ``block``: all of them, then the signal photons alone.

    A chunk's conversion uniforms hold one per signal photon, by emitter
    rank, then one per companion.  Without a conversion stage no photon is
    lost and both are slices, so the block's columns are used as they are.
    """
    if pipe.conversion is None:
        return slice(None), slice(None, block.n_signal)
    survive = survival_probability(pipe.conversion, block.detuning_ghz, pipe.filter_center_offset_ghz())
    alive = np.flatnonzero(substream(pipe.seed, i0, STAGE_CONVERT).random(block.pulse.size) < survive)
    return alive, alive[: np.searchsorted(alive, block.n_signal)]


def _detection_draws(detectors, n: int, eff_rng, jitter_rng) -> tuple[np.ndarray, np.ndarray]:
    """Efficiency uniforms and IRF jitter normals of ``n`` photons.

    ``eff_rng()`` and ``jitter_rng()`` return the generators to draw from.  A
    draw whose outcome is certain is not made: with every detector at
    efficiency 1 the uniforms are zeros, and with no detector jitter the
    normals are; ``register_arrivals`` reads neither then.
    """
    u_eff = eff_rng().random(n) if any(det.efficiency < 1 for det in detectors) else np.zeros(n)
    z = jitter_rng().standard_normal(n) if any(det.irf_sigma_ps > 0 for det in detectors) else np.zeros(n)
    return u_eff, z


def _build_blink_table(pipe: Pipeline) -> BlinkTable | None:
    if not pipe.emitter.blinking_enabled:
        return None
    rng = substream(pipe.seed, 0, STAGE_BLINK)
    return BlinkTable.build(pipe.emitter, float(pipe.train.duration_ps), rng)


# ---------------------------------------------------------------------------
# the block driver and the three topologies

class _Photons(NamedTuple):
    """Routed photons, one row per photon."""

    arrival: np.ndarray  # emission time plus arm delay, integer ps
    port: np.ndarray  # detector index; negative: lost, or paired or kept back by the meeting-pair step
    u_eff: np.ndarray  # detection efficiency uniform
    z: np.ndarray  # IRF jitter normal

    def take(self, idx: np.ndarray) -> "_Photons":
        """The photons at ``idx``, an index array or a boolean mask."""
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)  # one pass over the mask, then cheap gathers
        return _Photons(*(column.take(idx) for column in self))

    @staticmethod
    def concat(tables: Sequence["_Photons"]) -> "_Photons":
        return _Photons(*(np.concatenate(columns) for columns in zip(*tables)))


_NO_PHOTONS = _Photons(*(np.empty(0, dtype=np.int64) for _ in _Photons._fields))


class _Edge(NamedTuple):
    """Signal photons a block keeps back for the merge step, in pulse order."""

    photons: _Photons
    pulse: np.ndarray  # pulse index in the run
    env: np.ndarray  # envelope start, ps
    det: np.ndarray  # detuning, GHz
    long_arm: np.ndarray  # took the interferometer's long arm
    u_joint: np.ndarray  # (photons, 2): a long-arm photon's reserved joint row


_Settings = tuple[HomInterferometer, tuple[PolarizationConfig, ...]]  # (ifo, polarizations) of a run


def _register(detectors, photons: _Photons) -> tuple[list[np.ndarray], list[DetectStats]]:
    """Unsorted tags and detection stats per detector of ``photons``."""
    tags, stats = [], []
    for ch, det in enumerate(detectors):
        idx = np.flatnonzero(photons.port == ch)
        stats.append(DetectStats())
        arrivals, u_eff, z = photons.arrival[idx], photons.u_eff[idx], photons.z[idx]
        tags.append(register_arrivals(det, arrivals, u_eff, z, stats[-1]) + PATH_DELAY_PS)
    return tags, stats


def _register_settings(detectors, photons: _Photons, pair_tables, dark) -> tuple[list[np.ndarray], RunStats]:
    """Register ``photons`` beside each setting's pair photons and dark counts.

    The routed photons are registered once and join every setting's tags and
    channel stats; each entry of ``pair_tables`` is a setting's jointly
    routed pair photons, and ``dark`` holds each detector's dark counts.
    Returns the unsorted tags per (setting, detector) and a RunStats of the
    channels alone.
    """
    shared_tags, shared_stats = _register(detectors, photons)
    tags, channels = [], []
    for table in pair_tables:
        pair_tags, pair_stats = _register(detectors, table)
        for ch, stats in enumerate(pair_stats):
            stats.merge(shared_stats[ch])
            stats.dark = int(dark[ch].size)
            tags.append(np.concatenate([shared_tags[ch], pair_tags[ch], dark[ch]]))
        channels += pair_stats
    return tags, RunStats(channels=tuple(channels))


def _simulate_block(pipe: Pipeline, detectors, i0: int, i1: int, blink, n_route: int, route, settings=None):
    """One block of any topology: emission, routing, registration, dark counts.

    ``route`` maps photons' rows of ``n_route`` route uniforms to a port each
    (0/1 detector, negative lost) and an arm delay.  Every photon is routed
    once, right after its draws: the emitted photons that survive conversion
    as one table, then the noise photons; a topology that reads no route
    uniform does not draw any.  Conversion, route, detection and jitter
    draws hold one row per photon that exists: signal photons by emitter
    rank, then companions.  An interferometer block (``settings`` given)
    then pairs the signal photons that meet at the output splitter
    (``_meeting_pairs``); without settings the block has one setting and
    keeps nothing back.

    Returns the unsorted tags per (setting, detector), the block's RunStats
    and its kept-back photons.
    """
    n, seed = i1 - i0, pipe.seed
    block = _emission_rows(pipe, i0, n, blink)
    emitted = block.pulse.size
    alive, signal_alive = _converted(pipe, i0, block)
    u_eff, z = _detection_draws(
        detectors, emitted, partial(substream, seed, i0, STAGE_DETECT), partial(substream, seed, i0, STAGE_JITTER)
    )
    u_route = np.empty((emitted, 0))
    if n_route:
        u_route = substream(seed, i0, STAGE_ROUTE).random((emitted, n_route))
    port, delay = route(u_route[alive])
    routed_lost = int(np.count_nonzero(port < 0))
    converted = port.size
    photons = _Photons(block.time_ps[alive] + delay, port, u_eff[alive], z[alive])
    pair_tables, edge = [_NO_PHOTONS], None
    if settings is not None:  # arm_delay_ps is positive, so a delay marks the long arm
        photons, pair_tables, edge = _meeting_pairs(pipe, settings, block, signal_alive, photons, delay > 0, i0, i1)

    t0, t1 = int(pipe.train.pulse_start_ps(i0)), int(pipe.train.pulse_start_ps(i1))
    noise = np.empty(0, dtype=np.int64)
    if pipe.conversion is not None and pipe.conversion.noise_rate_cps > 0:
        rng = substream(seed, i0, STAGE_NOISE)
        noise = sample_noise_times(pipe.conversion, (t0, t1), rng)
    if noise.size:
        # one full array per route uniform, then the detection draws
        port, delay = route(rng.random((n_route, noise.size)).T)
        routed_lost += int(np.count_nonzero(port < 0))
        noisy = _Photons(noise + delay, port, *_detection_draws(detectors, noise.size, lambda: rng, lambda: rng))
        photons = _Photons.concat([photons, noisy])
    if any(det.dark_rate_cps > 0 for det in detectors):
        rng = substream(seed, i0, STAGE_DARK)
        dark = [sample_dark_counts(det, (t0 + PATH_DELAY_PS, t1 + PATH_DELAY_PS), rng) for det in detectors]
    else:
        dark = [np.empty(0, dtype=np.int64)] * len(detectors)

    tags, stats = _register_settings(detectors, photons, pair_tables, dark)
    stats = replace(
        stats,
        pulses=n,
        emitted_signal=block.n_signal,
        emitted_multi=emitted - block.n_signal,
        conversion_lost=emitted - converted,
        noise_injected=int(noise.size),
        routed_lost=routed_lost,
    )
    return tags, stats, edge


def _direct_route(u_route: np.ndarray):
    """One detector and no splitter: every photon arrives undelayed."""
    return np.zeros(u_route.shape[0], dtype=np.int8), 0


def _splitter_route(bs: BeamSplitter, u_route: np.ndarray):
    """One splitter with a detector on each output port."""
    return split_ports(u_route[:, 0], bs.r, bs.t), 0


def _interferometer_route(ifo: HomInterferometer, u_route: np.ndarray):
    """Input splitter picks the arm (reflected = long), output splitter the port.

    A long-arm photon enters the output splitter from the other side, so it
    sees r and t swapped.
    """
    u_arm, u_port = u_route.T
    arm = split_ports(u_arm, ifo.bs_in.r, ifo.bs_in.t)
    long_arm = arm == 0
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    port = np.where(long_arm, split_ports(u_port, t2, r2), split_ports(u_port, r2, t2))
    port[arm < 0] = -1
    return port, np.where(long_arm, ifo.arm_delay_ps, 0)


def _meeting(pulse: np.ndarray, port: np.ndarray, long_arm: np.ndarray):
    """The meeting-pair rule, for routed signal photons in pulse order.

    A photon that takes the long arm at pulse p meets the photon of pulse
    p + 1 if that one takes the short arm and both survive the output
    splitter.  Pulses are adjacent by index, not by position in the photon
    arrays.  Returns the indices of the pairs' early photons and, per photon,
    whether it can be an early and whether it can be a late photon.
    """
    survives = port >= 0
    can_early, can_late = long_arm & survives, ~long_arm & survives
    early = np.flatnonzero(can_early[:-1] & can_late[1:] & (pulse[1:] == pulse[:-1] + 1))
    return early, can_early, can_late


def _pair_tables(pipe: Pipeline, settings, signal: _Photons, env, det, early: np.ndarray, u_joint: np.ndarray):
    """Joint port draws of the meeting pairs whose early photons are at ``early``.

    ``settings`` is the run's ``(ifo, polarizations)`` and ``u_joint`` holds
    each pair's two joint uniforms.  Returns a mask of the photons in no pair
    and, for each polarization, the pair photons with their joint ports,
    early photons first; the arrivals and draws are the same in every
    setting.
    """
    ifo, polarizations = settings
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    late = early + 1
    overlap = pair_overlap(
        pipe.emitter.lifetime_tau_ps, det[early], det[late], env[early], env[late], ifo.arm_delay_ps
    )
    met = signal.take(np.concatenate([early, late]))
    tables = []
    for polarization in polarizations:
        ports = joint_ports(r2, t2, ifo.effective_overlap(overlap, polarization), u_joint[:, 0], u_joint[:, 1])
        tables.append(met._replace(port=np.concatenate(ports)))
    solo = np.ones(signal.arrival.size, dtype=bool)
    solo[early] = solo[late] = False
    return solo, tables


def _meeting_pairs(
    pipe: Pipeline, settings: _Settings, block: EmissionBlock, signal_alive,
    photons: _Photons, long_arm: np.ndarray, i0: int, i1: int,
) -> tuple[_Photons, list[_Photons], _Edge]:
    """The meeting-pair step of one interferometer block.

    ``photons`` are the block's routed photons that survived conversion,
    signal photons first, ``signal_alive`` indexes the surviving signal
    photons in ``block``, and ``long_arm`` flags the photons that took the
    long arm.  Pairs with both photons in the block get their joint ports
    here, one row of the block's joint draws each.  A photon that could meet
    a photon of a neighbouring block, short arm at the block's first pulse or
    long arm at its last, is kept back for ``_merge_edges``; the long-arm one
    takes along the joint row after the block's own pairs.

    Returns ``photons``, with the ports of the pair and kept-back photons set
    negative in place, each setting's pair table, and the kept-back photons.
    """
    pulse, env, det = block.pulse[signal_alive], block.env_ps[signal_alive], block.detuning_ghz[signal_alive]
    n_sig = pulse.size
    signal = _Photons(*(column[:n_sig] for column in photons))
    long_arm = long_arm[:n_sig]
    early, can_early, can_late = _meeting(pulse, signal.port, long_arm)
    kept = (pulse == 0) & can_late | (pulse == i1 - i0 - 1) & can_early
    reserve = int(np.count_nonzero(kept & can_early))  # at most one: the last pulse's photon
    u_joint = np.empty((0, 2))
    if early.size + reserve:
        u_joint = substream(pipe.seed, i0, STAGE_JOINT).random((early.size + reserve, 2))
    solo, tables = _pair_tables(pipe, settings, signal, env, det, early, u_joint[: early.size])
    edge_joint = np.concatenate([np.zeros((np.count_nonzero(kept) - reserve, 2)), u_joint[early.size :]])
    edge = _Edge(signal.take(kept), pulse[kept] + i0, env[kept], det[kept], long_arm[kept], edge_joint)
    signal.port[~solo | kept] = -1
    return photons, tables, edge


def _merge_edges(pipe: Pipeline, detectors, settings: _Settings, edges: Sequence[_Edge]):
    """Pair or register the photons that the blocks kept back.

    ``edges`` come in pulse order, so one pass of the meeting-pair rule finds
    every pair across a block edge, and its early photon brings its joint
    row.  The photons were routed in their blocks.  Returns tags and RunStats
    of these photons alone, as a block does.
    """
    columns = list(zip(*edges))
    signal = _Photons.concat(columns[0])
    pulse, env, det, long_arm, u_joint = map(np.concatenate, columns[1:])
    early, _, _ = _meeting(pulse, signal.port, long_arm)
    solo, tables = _pair_tables(pipe, settings, signal, env, det, early, u_joint[early])
    no_dark = [np.empty(0, dtype=np.int64)] * len(detectors)
    return _register_settings(detectors, signal.take(solo), tables, no_dark)


def _block_direct(pipe: Pipeline, detectors, i0: int, i1: int, blink):
    return _simulate_block(pipe, detectors, i0, i1, blink, 0, _direct_route)


def _block_hbt(pipe: Pipeline, detectors, i0: int, i1: int, blink, bs: BeamSplitter):
    return _simulate_block(pipe, detectors, i0, i1, blink, 1, partial(_splitter_route, bs))


def _block_hom(pipe: Pipeline, detectors, i0: int, i1: int, blink, settings: _Settings):
    """One interferometer block, simulated once for every polarization setting.

    Only the joint port draw of meeting pairs is evaluated per setting.
    """
    route = partial(_interferometer_route, settings[0])
    return _simulate_block(pipe, detectors, i0, i1, blink, 2, route, settings)


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
        # blocks fold in nearly in order, and the stable sort (timsort on
        # int64) runs through such data several times faster than quicksort
        return np.sort(self.buf[: self.size], kind="stable")


def _run_blocks(block_fn, pipe: Pipeline, detectors, workers: int, settings=None) -> RunResult:
    """Run every block and merge its tags per channel.

    A block returns tags for each setting of the same detectors (one setting
    unless the interferometer ``settings`` give several polarizations),
    ordered (setting, detector), its RunStats and the photons it kept back;
    stream ``channel_id`` is the detector index.  Once every block is done,
    ``_merge_edges`` pairs or registers the kept-back photons of all blocks
    in pulse order.
    """
    n_pulses = pipe.train.n_pulses
    if n_pulses <= 0:
        raise ConfigError("n_pulses must be positive")
    blink = _build_blink_table(pipe)
    ranges = _block_ranges(n_pulses)
    channels = tuple(detectors) * (1 if settings is None else len(settings[1]))
    total = RunStats(channels=tuple(DetectStats() for _ in channels))
    folds = [_TagFold() for _ in channels]
    edges = []

    def job(rng_pair):
        i0, i1 = rng_pair
        return block_fn(pipe, detectors, i0, i1, blink)

    def fold(tags, stats) -> None:
        total.merge(stats)
        for ch_fold, arr in zip(folds, tags):
            ch_fold.add(arr)

    def fold_blocks(results) -> None:
        for tags, stats, edge in results:
            fold(tags, stats)
            edges.append(edge)

    if workers <= 1:
        fold_blocks(job(r) for r in ranges)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fold_blocks(pool.map(job, ranges))
    if settings is not None:
        fold(*_merge_edges(pipe, detectors, settings, edges))

    streams = []
    for ch, det in enumerate(channels):
        tags = folds[ch].sorted()
        folds[ch] = None  # release the unsorted buffer (up to twice the tags) before the veto
        kept, vetoed = apply_dead_time(tags, det.dead_time_ps)
        del tags  # and the sorted stream before the next channel sorts
        total.channels[ch].vetoed += vetoed
        streams.append(TagStream(channel_id=ch % len(detectors), tags=kept))
    return RunResult(streams=tuple(streams), stats=total)


def run_direct(pipe: Pipeline, det: DetectorConfig, workers: int = 1) -> RunResult:
    """Single-detector topology: photon counting and lifetime measurements."""
    return _run_blocks(_block_direct, pipe, (det,), workers)


def run_hbt(
    pipe: Pipeline, bs: BeamSplitter, det1: DetectorConfig, det2: DetectorConfig, workers: int = 1
) -> RunResult:
    """Splitter with a detector on each output port (purity measurement)."""
    return _run_blocks(partial(_block_hbt, bs=bs), pipe, (det1, det2), workers)


def run_hom(
    pipe: Pipeline,
    ifo: HomInterferometer,
    polarizations: Sequence[PolarizationConfig],
    det1: DetectorConfig,
    det2: DetectorConfig,
    workers: int = 1,
) -> RunResult:
    """Delay-matched interferometer topology (indistinguishability measurement).

    ``polarizations`` are the settings measured with the one interferometer
    ``ifo``, such as co and cross for the two halves of a paired run.  Each
    pulse is simulated once for all of them, so every setting sees the same
    photons.  Streams and channel stats are ordered (setting, detector);
    ``RunResult.by_setting`` splits them.
    """
    if not polarizations:
        raise ConfigError("run_hom needs at least one polarization")
    settings = (ifo, tuple(polarizations))
    return _run_blocks(partial(_block_hom, settings=settings), pipe, (det1, det2), workers, settings)


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
    """Fold tags modulo the pulse period into a decay histogram.

    Tags are folded ``FOLD_PIECE`` at a time, so the float temporaries stay
    piece-sized whatever the stream's length.
    """
    n_bins = int(math.ceil(period_ps / bin_width_ps))
    span = n_bins * bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, stream.tags.size, FOLD_PIECE):
        t = stream.tags[start : start + FOLD_PIECE].astype(np.float64)
        rel = t - np.rint(t / period_ps) * period_ps  # [-period/2, period/2)
        idx = np.floor((rel + span / 2.0) / bin_width_ps).astype(np.int64)
        idx = np.clip(idx, 0, n_bins - 1)
        counts += np.bincount(idx, minlength=n_bins)
    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        offset_ps=-span / 2.0 + bin_width_ps / 2.0,
        counts=counts,
    )
