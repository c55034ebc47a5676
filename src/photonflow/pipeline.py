"""End-to-end experiment runners on a block-parallel Monte Carlo engine.

Pulses are processed in fixed-size blocks.  Every random decision is drawn
from a substream keyed by (master seed, owning chunk, stage), and a block
reads only its own chunk's substreams.  Only the emission decision is drawn
for every pulse; every other draw is made only for photons that exist, in
compacted order: one four-uniform emission row per emitting pulse (its
signal photon and the companion decision), then one three-uniform row per
companion, and one conversion, route and detection row per photon, signal
photons first.  A signal photon's rows are keyed by its emitter rank (the
pulse's position among the chunk's emitting pulses).  Interferometer photon
pairs can straddle a block edge, so a block keeps back the photons at its
edge pulses that could meet a neighbour's photon; once every block is done,
one merge step pairs them with the same rule.  A realization is therefore
fixed by the seed, the configuration and ``BLOCK_PULSES``: the worker count
never changes a bit of it, while another block size keys the draws by other
chunks and gives another realization of the same physics.

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
    COMPANION_DRAWS,
    SIGNAL_DRAWS,
    BlinkTable,
    EmissionBlock,
    EmitterConfig,
    diffusion_offsets_ghz,
    emitting,
    has_companion,
    sample_emission,
)

BLOCK_PULSES = 65536
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
# chunk-keyed draws

def _emission_rows(pipe: Pipeline, i0: int, n: int, blink: BlinkTable | None) -> EmissionBlock:
    """Emission of the chunk of pulses [i0, i0 + n).

    The chunk's emission stream holds one uniform per pulse, then one row of
    ``SIGNAL_DRAWS`` uniforms per emitting pulse (signal photon and companion
    decision), then one row of ``COMPANION_DRAWS`` uniforms per companion,
    each table in pulse order.  A block with k emitting pulses and m
    companions draws n + 4k + 3m uniforms.
    """
    emitter, rng = pipe.emitter, substream(pipe.seed, i0, STAGE_EMIT)
    bright = True
    if blink is not None:
        bright = blink.bright_at(pipe.train.pulse_start_ps(i0 + np.arange(n)).astype(np.float64))
    emits = emitting(emitter, rng.random(n), bright)
    signal_rows = rng.random((int(np.count_nonzero(emits)), SIGNAL_DRAWS))
    companions = int(np.count_nonzero(has_companion(emitter, signal_rows)))
    companion_rows = rng.random((companions, COMPANION_DRAWS))
    wander = 0.0
    if emitter.spectral_diffusion_sigma_ghz > 0:
        dblocks = (i0 + np.arange(n)) // emitter.diffusion_block_pulses
        unique, inverse = np.unique(dblocks, return_inverse=True)
        wander = diffusion_offsets_ghz(emitter, pipe.seed, unique)[inverse]
    return sample_emission(emitter, pipe.train, i0, emits, wander, signal_rows, companion_rows)


def _converted(pipe: Pipeline, i0: int, detuning_ghz: np.ndarray) -> np.ndarray:
    """Which photons survive conversion, one uniform each from the chunk's conversion stream.

    A chunk's conversion uniforms hold one per signal photon, by emitter
    rank, then one per companion.
    """
    if pipe.conversion is None:
        return np.ones(detuning_ghz.size, dtype=bool)
    survive = survival_probability(pipe.conversion, detuning_ghz, pipe.filter_center_offset_ghz())
    return substream(pipe.seed, i0, STAGE_CONVERT).random(detuning_ghz.size) < survive


def _build_blink_table(pipe: Pipeline) -> BlinkTable | None:
    if not pipe.emitter.blinking_enabled:
        return None
    rng = substream(pipe.seed, 0, STAGE_BLINK)
    return BlinkTable.build(pipe.emitter, float(pipe.train.duration_ps), rng)


# ---------------------------------------------------------------------------
# the block driver and the three topologies

class _Photons(NamedTuple):
    """Photons entering a topology, one row per photon."""

    time: np.ndarray  # emission time, integer ps
    u_eff: np.ndarray  # detection efficiency uniform
    z: np.ndarray  # IRF jitter normal
    u_route: np.ndarray  # (photons, route uniforms the topology reads)

    def take(self, idx: np.ndarray) -> "_Photons":
        """The photons at ``idx``, an index array or a boolean mask."""
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)  # one pass over the mask, then cheap gathers
        # take, not indexing: fancy indexing of the 2-D route rows is ten times slower
        return _Photons(*(column.take(idx, axis=0) for column in self))

    @staticmethod
    def concat(tables: Sequence["_Photons"]) -> "_Photons":
        return _Photons(*(np.concatenate(columns) for columns in zip(*tables)))


class _Edge(NamedTuple):
    """Signal photons a block keeps back for the merge step, in pulse order."""

    photons: _Photons
    pulse: np.ndarray  # pulse index in the run
    env: np.ndarray  # envelope start, ps
    det: np.ndarray  # detuning, GHz
    u_joint: np.ndarray  # (photons, 2): a long-arm photon's reserved joint row


def _register(detectors, ports, arrivals, u_eff, z) -> tuple[list[np.ndarray], list[DetectStats]]:
    """Unsorted tags and detection stats per detector of photons routed to ``ports``."""
    tags, stats = [], []
    for ch, det in enumerate(detectors):
        idx = np.flatnonzero(ports == ch)
        stats.append(DetectStats())
        tags.append(register_arrivals(det, arrivals[idx], u_eff[idx], z[idx], stats[-1]) + PATH_DELAY_PS)
    return tags, stats


def _route_and_register(
    detectors, route, photons: _Photons, pair_tables, dark
) -> tuple[list[np.ndarray], RunStats]:
    """Route ``photons`` and register them beside each setting's pair photons and dark counts.

    The routed photons are registered once and join every setting's tags and
    channel stats; each entry of ``pair_tables`` is a setting's jointly
    routed ``(ports, arrivals, u_eff, z)``, and ``dark`` holds each
    detector's dark counts.  Returns the unsorted tags per (setting,
    detector) and a RunStats of the routing losses and channels alone.
    """
    ports, delay = route(photons)
    shared_tags, shared_stats = _register(detectors, ports, photons.time + delay, photons.u_eff, photons.z)
    tags, channels = [], []
    for table in pair_tables:
        pair_tags, pair_stats = _register(detectors, *table)
        for ch, stats in enumerate(pair_stats):
            stats.merge(shared_stats[ch])
            stats.dark = int(dark[ch].size)
            tags.append(np.concatenate([shared_tags[ch], pair_tags[ch], dark[ch]]))
        channels += pair_stats
    return tags, RunStats(routed_lost=int(np.count_nonzero(ports < 0)), channels=tuple(channels))


def _simulate_block(pipe: Pipeline, detectors, i0: int, i1: int, blink, n_route: int, route, pairs):
    """One block of any topology: emission, routing, registration, dark counts.

    ``route`` maps photons, through their ``n_route`` route uniforms, to a
    port each (0/1 detector, negative lost) and an arm delay.  Signal,
    companion and noise photons go through it as one table, and a topology
    that reads no route uniform does not draw any.  Conversion, route and
    detection draws hold one row per photon that exists: signal photons by
    emitter rank, then companions.  ``pairs(block, sig_ok, signal)`` is the
    interferometer's meeting-pair step: given the signal photons that
    survived conversion, it returns the ones left for routing, each
    setting's ``(ports, arrivals, u_eff, z)`` of the photons it routed
    jointly, and the ``_Edge`` photons it kept back.  Without it (``None``)
    the block has one setting and keeps nothing back.

    Returns the unsorted tags per (setting, detector), the block's RunStats
    and its kept-back photons.
    """
    n, seed = i1 - i0, pipe.seed
    block = _emission_rows(pipe, i0, n, blink)
    k = block.sig_pulse.size
    ok = _converted(pipe, i0, np.concatenate([block.sig_detuning_ghz, block.comp_detuning_ghz]))
    u_eff = substream(seed, i0, STAGE_DETECT).random(ok.size)
    z = substream(seed, i0, STAGE_JITTER).standard_normal(ok.size)
    u_route = np.empty((ok.size, 0))
    if n_route:
        u_route = substream(seed, i0, STAGE_ROUTE).random((ok.size, n_route))
    signal = _Photons(block.sig_time_ps, u_eff[:k], z[:k], u_route[:k]).take(ok[:k])
    pair_tables, edge = [(np.empty(0),) * 4], None
    if pairs is not None:
        signal, pair_tables, edge = pairs(block, ok[:k], signal)
    batches = [signal, _Photons(block.comp_time_ps, u_eff[k:], z[k:], u_route[k:]).take(ok[k:])]

    t0, t1 = int(pipe.train.pulse_start_ps(i0)), int(pipe.train.pulse_start_ps(i1))
    noise = np.empty(0, dtype=np.int64)
    if pipe.conversion is not None and pipe.conversion.noise_rate_cps > 0:
        rng = substream(seed, i0, STAGE_NOISE)
        noise = sample_noise_times(pipe.conversion, (t0, t1), rng)
    if noise.size:
        # one full array per route uniform, then the detection draws
        u_noise = rng.random((n_route, noise.size)).T
        batches.append(_Photons(noise, rng.random(noise.size), rng.standard_normal(noise.size), u_noise))
    if any(det.dark_rate_cps > 0 for det in detectors):
        rng = substream(seed, i0, STAGE_DARK)
        dark = [sample_dark_counts(det, (t0 + PATH_DELAY_PS, t1 + PATH_DELAY_PS), rng) for det in detectors]
    else:
        dark = [np.empty(0, dtype=np.int64)] * len(detectors)

    tags, stats = _route_and_register(detectors, route, _Photons.concat(batches), pair_tables, dark)
    stats = replace(
        stats,
        pulses=n,
        emitted_signal=k,
        emitted_multi=ok.size - k,
        conversion_lost=ok.size - int(np.count_nonzero(ok)),
        noise_injected=int(noise.size),
    )
    return tags, stats, edge


def _direct_route(photons: _Photons):
    """One detector and no splitter: every photon arrives undelayed."""
    return np.zeros(photons.time.size, dtype=np.int8), 0


def _splitter_route(bs: BeamSplitter, photons: _Photons):
    """One splitter with a detector on each output port."""
    return split_ports(photons.u_route[:, 0], bs.r, bs.t), 0


def _interferometer_route(ifo: HomInterferometer, photons: _Photons):
    """Input splitter picks the arm (reflected = long), output splitter the port.

    A long-arm photon enters the output splitter from the other side, so it
    sees r and t swapped.
    """
    u_arm, u_port = photons.u_route.T
    arm = split_ports(u_arm, ifo.bs_in.r, ifo.bs_in.t)
    long_arm = arm == 0
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    port = np.where(long_arm, split_ports(u_port, t2, r2), split_ports(u_port, r2, t2))
    port[arm < 0] = -1
    return port, np.where(long_arm, ifo.arm_delay_ps, 0)


def _meeting(ifo: HomInterferometer, pulse: np.ndarray, signal: _Photons):
    """The meeting-pair rule, for signal photons in pulse order.

    A photon that takes the long arm at pulse p meets the photon of pulse
    p + 1 if that one takes the short arm and both survive the output
    splitter.  Pulses are adjacent by index, not by position in the photon
    arrays.  Returns the indices of the pairs' early photons and, per photon,
    whether it can be an early and whether it can be a late photon.
    """
    u_arm, u_port = signal.u_route.T
    arm = split_ports(u_arm, ifo.bs_in.r, ifo.bs_in.t)
    survives = u_port < ifo.bs_out.r + ifo.bs_out.t
    can_early, can_late = (arm == 0) & survives, (arm == 1) & survives
    early = np.flatnonzero(can_early[:-1] & can_late[1:] & (pulse[1:] == pulse[:-1] + 1))
    return early, can_early, can_late


def _pair_tables(pipe: Pipeline, settings, signal: _Photons, env, det, early: np.ndarray, u_joint: np.ndarray):
    """Joint port draws of the meeting pairs whose early photons are at ``early``.

    ``u_joint`` holds each pair's two joint uniforms.  Returns a mask of the
    photons in no pair and, for each setting, the ``(ports, arrivals, u_eff,
    z)`` of the pair photons, early photons first; the arrivals and draws are
    the same in every setting.
    """
    ifo = settings[0]
    r2, t2 = ifo.bs_out.r, ifo.bs_out.t
    late = early + 1
    overlap = pair_overlap(
        pipe.emitter.lifetime_tau_ps, det[early], det[late], env[early], env[late], ifo.arm_delay_ps
    )
    met = signal.take(np.concatenate([early, late]))
    arrivals = met.time + np.repeat([ifo.arm_delay_ps, 0], early.size)
    tables = []
    for setting in settings:
        ports = joint_ports(r2, t2, setting.effective_overlap(overlap), u_joint[:, 0], u_joint[:, 1])
        tables.append((np.concatenate(ports), arrivals, met.u_eff, met.z))
    solo = np.ones(signal.time.size, dtype=bool)
    solo[early] = solo[late] = False
    return solo, tables


def _meeting_pairs(
    pipe: Pipeline, settings: tuple[HomInterferometer, ...], block: EmissionBlock, sig_ok: np.ndarray,
    signal: _Photons, i0: int, i1: int,
) -> tuple[_Photons, list[tuple[np.ndarray, ...]], _Edge]:
    """The meeting-pair step of one interferometer block.

    Pairs with both photons in the block get their joint ports here, one row
    of the block's joint draws each.  A photon that could meet a photon of a
    neighbouring block, short arm at the block's first pulse or long arm at
    its last, is kept back for ``_merge_edges``; the long-arm one takes along
    the joint row after the block's own pairs.

    Returns the signal photons left for independent routing, each setting's
    pair table, and the kept-back photons.
    """
    pulse, env, det = block.sig_pulse[sig_ok], block.sig_env_ps[sig_ok], block.sig_detuning_ghz[sig_ok]
    early, can_early, can_late = _meeting(settings[0], pulse, signal)
    kept = (pulse == 0) & can_late | (pulse == i1 - i0 - 1) & can_early
    reserve = int(np.count_nonzero(kept & can_early))  # at most one: the last pulse's photon
    u_joint = np.empty((0, 2))
    if early.size + reserve:
        u_joint = substream(pipe.seed, i0, STAGE_JOINT).random((early.size + reserve, 2))
    solo, tables = _pair_tables(pipe, settings, signal, env, det, early, u_joint[: early.size])
    edge_joint = np.concatenate([np.zeros((np.count_nonzero(kept) - reserve, 2)), u_joint[early.size :]])
    edge = _Edge(signal.take(kept), pulse[kept] + i0, env[kept], det[kept], edge_joint)
    return signal.take(solo & ~kept), tables, edge


def _merge_edges(pipe: Pipeline, detectors, settings: tuple[HomInterferometer, ...], edges: Sequence[_Edge]):
    """Pair or route the photons that the blocks kept back.

    ``edges`` come in pulse order, so one pass of the meeting-pair rule finds
    every pair across a block edge, and its early photon brings its joint
    row.  Returns tags and RunStats of these photons alone, as a block does.
    """
    columns = list(zip(*edges))
    signal = _Photons.concat(columns[0])
    pulse, env, det, u_joint = map(np.concatenate, columns[1:])
    early, _, _ = _meeting(settings[0], pulse, signal)
    solo, tables = _pair_tables(pipe, settings, signal, env, det, early, u_joint[early])
    route = partial(_interferometer_route, settings[0])
    no_dark = [np.empty(0, dtype=np.int64)] * len(detectors)
    return _route_and_register(detectors, route, signal.take(solo), tables, no_dark)


def _block_direct(pipe: Pipeline, detectors, i0: int, i1: int, blink):
    return _simulate_block(pipe, detectors, i0, i1, blink, 0, _direct_route, None)


def _block_hbt(pipe: Pipeline, detectors, bs: BeamSplitter, i0: int, i1: int, blink):
    return _simulate_block(pipe, detectors, i0, i1, blink, 1, partial(_splitter_route, bs), None)


def _block_hom(pipe: Pipeline, detectors, settings: tuple[HomInterferometer, ...], i0: int, i1: int, blink):
    """One interferometer block, simulated once for every setting.

    The settings share splitters and arm delay, so only the joint port draw
    of meeting pairs is evaluated per setting.
    """
    def pairs(block, sig_ok, signal):
        return _meeting_pairs(pipe, settings, block, sig_ok, signal, i0, i1)

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


def _run_blocks(
    block_fn, pipe: Pipeline, detectors, workers: int, n_settings: int = 1, merge_fn=None
) -> RunResult:
    """Run every block and merge its tags per channel.

    A block returns tags for each of ``n_settings`` settings of the same
    detectors, ordered (setting, detector), its RunStats and the photons it
    kept back; stream ``channel_id`` is the detector index.  Once every block
    is done, ``merge_fn(pipe, detectors, edges)`` gets the kept-back photons
    of all blocks in pulse order and returns their tags and RunStats.
    """
    n_pulses = pipe.train.n_pulses
    if n_pulses <= 0:
        raise ConfigError("n_pulses must be positive")
    blink = _build_blink_table(pipe)
    ranges = _block_ranges(n_pulses)
    channels = tuple(detectors) * n_settings
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
    if merge_fn is not None:
        fold(*merge_fn(pipe, detectors, edges))

    streams = []
    for ch, det in enumerate(channels):
        kept, vetoed = apply_dead_time(folds[ch].sorted(), det.dead_time_ps)
        folds[ch] = None  # release the buffer before the next channel sorts
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

    def block(p, dets, i0, i1, blink):
        return _block_hbt(p, dets, bs, i0, i1, blink)

    return _run_blocks(block, pipe, (det1, det2), workers)


def run_hom(
    pipe: Pipeline,
    ifo: HomInterferometer | Sequence[HomInterferometer],
    det1: DetectorConfig,
    det2: DetectorConfig,
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

    def block(p, dets, i0, i1, blink):
        return _block_hom(p, dets, settings, i0, i1, blink)

    def merge(p, dets, edges):
        return _merge_edges(p, dets, settings, edges)

    return _run_blocks(block, pipe, (det1, det2), workers, len(settings), merge)


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
