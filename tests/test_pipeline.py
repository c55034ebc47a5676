"""Block engine: determinism, conservation, and closed-loop physics checks."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonflow import pipeline
from photonflow.analysis import VisibilityCalib, estimate_g2, fit_lifetime, integrate_peaks
from photonflow.conversion import ConversionConfig
from photonflow.config import load_config
from photonflow.core import (
    STAGE_EMIT,
    STAGE_ROUTE,
    ConfigError,
    PulseTrainConfig,
    RunSeed,
    Wavelength,
    substream,
)
from photonflow.correlate import cross_correlate
from photonflow.enumeration import hbt_expected, visibility_model
from photonflow.optics import BeamSplitter, DetectorConfig, HomInterferometer, PolarizationConfig
from photonflow.pipeline import (
    Pipeline,
    fold_decay,
    irf_pipeline,
    run_direct,
    run_hbt,
    run_hom,
)
from photonflow.source import BlinkTable, EmitterConfig

from oracles import calibrate_p_multi

PERIOD = 1e6 / 73.0
PROFILES = Path(__file__).resolve().parent.parent / "profiles"
DELAY = round(PERIOD)
# dense, typical and sparse emission; at 0.02 many 64-pulse blocks hold no emitter
SPARSE_P_EMIT = [1.0, 0.3, 0.02]


def make_pipeline(seed=202, n_pulses=100_000, conversion=False, **emitter_kwargs):
    defaults = dict(wavelength=Wavelength(945.0), lifetime_tau_ps=271.0, p_emit=0.3)
    defaults.update(emitter_kwargs)
    conv = None
    if conversion:
        conv = ConversionConfig(
            pump_wavelength=Wavelength(2400.0), pump_power_mw=327.0, eta_max=0.417, p_sat_mw=327.0
        )
    return Pipeline(
        emitter=EmitterConfig(**defaults),
        train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=n_pulses),
        seed=RunSeed(seed),
        conversion=conv,
    )


def ideal_detector(**kwargs):
    defaults = dict(efficiency=1.0, irf_sigma_ps=0.0, dead_time_ps=0, dark_rate_cps=0.0)
    defaults.update(kwargs)
    return DetectorConfig(**defaults)


def interferometer(pol=PolarizationConfig.CO, visibility=1.0):
    return HomInterferometer(
        bs_in=BeamSplitter(),
        bs_out=BeamSplitter(),
        arm_delay_ps=DELAY,
        classical_visibility=visibility,
        polarization_config=pol,
    )


def assert_conservation(result):
    st = result.stats
    assert st.converted + st.noise_injected == sum(ch.n_in for ch in st.channels) + st.routed_lost
    for ch, stream in zip(st.channels, result.streams):
        assert ch.n_in == ch.registered + ch.undetected
        assert len(stream) == ch.registered + ch.dark - ch.vetoed


class TestDeterminism:
    def test_workers_do_not_change_results(self):
        pipe = make_pipeline(n_pulses=60_000, p_multi=0.01, conversion=True)
        det = DetectorConfig(efficiency=0.8, irf_sigma_ps=40.0, dead_time_ps=25_000, dark_rate_cps=100.0)
        for runner, extra in (
            (run_hbt, (BeamSplitter(),)),
            (run_hom, (interferometer(),)),
        ):
            serial = runner(pipe, *extra, det, det, workers=1)
            parallel = runner(pipe, *extra, det, det, workers=8)
            for s1, s2 in zip(serial.streams, parallel.streams):
                assert np.array_equal(s1.tags, s2.tags)
            assert serial.stats == parallel.stats

    def test_rerun_identical(self):
        pipe = make_pipeline(n_pulses=30_000)
        det = ideal_detector(irf_sigma_ps=100.0)
        a = run_direct(pipe, det)
        b = run_direct(pipe, det)
        assert np.array_equal(a.streams[0].tags, b.streams[0].tags)

    def test_different_seeds_differ(self):
        det = ideal_detector()
        a = run_direct(make_pipeline(seed=1, n_pulses=20_000), det)
        b = run_direct(make_pipeline(seed=2, n_pulses=20_000), det)
        assert not np.array_equal(a.streams[0].tags, b.streams[0].tags)


class TestConservationAndBoundaries:
    def test_direct_accounting(self):
        pipe = make_pipeline(n_pulses=50_000, p_multi=0.02, conversion=True)
        result = run_direct(pipe, DetectorConfig(efficiency=0.7, dead_time_ps=25_000, dark_rate_cps=200.0))
        assert_conservation(result)
        assert result.stats.conversion_lost > 0

    def test_hbt_accounting_with_losses(self):
        pipe = make_pipeline(n_pulses=50_000, p_multi=0.02)
        result = run_hbt(pipe, BeamSplitter(0.45, 0.45), ideal_detector(), ideal_detector())
        assert_conservation(result)
        assert result.stats.routed_lost > 0

    @pytest.mark.parametrize("p_emit", SPARSE_P_EMIT)
    def test_hom_accounting_small_blocks(self, monkeypatch, p_emit):
        # shrink blocks so boundary pairs dominate; any ownership bug breaks
        # the exact photon-number balance
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)
        pipe = make_pipeline(n_pulses=5_000, p_emit=p_emit, p_multi=0.05 * p_emit)
        result = run_hom(pipe, interferometer(), ideal_detector(), ideal_detector())
        assert_conservation(result)

    @pytest.mark.parametrize("p_emit", [1.0, 0.3])
    def test_meeting_pairs_are_consecutive_pulses(self, monkeypatch, p_emit):
        # photons are compacted, so neighbours in the photon arrays are not
        # always neighbouring pulses; only consecutive pulses may meet
        gaps = []
        overlap = pipeline.pair_overlap

        def recording(tau, det_early, det_late, env_early, env_late, delay):
            gaps.append(env_late - env_early)
            return overlap(tau, det_early, det_late, env_early, env_late, delay)

        monkeypatch.setattr(pipeline, "pair_overlap", recording)
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)
        pipe = make_pipeline(n_pulses=5_000, p_emit=p_emit, conversion=True)
        run_hom(pipe, interferometer(), ideal_detector(), ideal_detector())
        gaps = np.concatenate(gaps)
        assert gaps.size > 20
        # envelopes start within the 20 ps excitation pulse of their pulse
        assert np.all(np.abs(gaps - PERIOD) <= 21.0)

    def test_block_size_preserves_statistics(self, monkeypatch):
        # central-peak physics must not depend on the block partition
        pipe = make_pipeline(n_pulses=400_000, p_emit=1.0)
        det = ideal_detector()
        result_big = run_hom(pipe, interferometer(pol=PolarizationConfig.CROSS), det, det)
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 1000)
        result_small = run_hom(pipe, interferometer(pol=PolarizationConfig.CROSS), det, det)
        for result in (result_big, result_small):
            assert_conservation(result)
        areas = []
        for result in (result_big, result_small):
            hist = cross_correlate(result.streams[0], result.streams[1], 200_000, 100)
            peaks = integrate_peaks(hist, PERIOD, 2000)
            area, _ = peaks.area_at(0.0, PERIOD)
            areas.append(area)
        expected = 400_000 * 0.25 * 0.5
        for area in areas:
            assert abs(area - expected) < 4 * math.sqrt(expected)

    @pytest.mark.parametrize("p_emit", SPARSE_P_EMIT)
    def test_workers_with_tiny_blocks(self, monkeypatch, p_emit):
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 128)
        pipe = make_pipeline(n_pulses=10_000, p_emit=p_emit, p_multi=0.02 * p_emit)
        det = ideal_detector(irf_sigma_ps=50.0)
        serial = run_hom(pipe, interferometer(), det, det, workers=1)
        parallel = run_hom(pipe, interferometer(), det, det, workers=5)
        for s1, s2 in zip(serial.streams, parallel.streams):
            assert np.array_equal(s1.tags, s2.tags)


class TestSharedSettings:
    """Settings passed to one run_hom call share every pulse's simulation."""

    @staticmethod
    def settings_pair():
        kwargs = dict(
            bs_in=BeamSplitter(0.48, 0.48),
            bs_out=BeamSplitter(0.47, 0.5),
            arm_delay_ps=DELAY,
            classical_visibility=0.95,
        )
        return (
            HomInterferometer(polarization_config=PolarizationConfig.CO, **kwargs),
            HomInterferometer(polarization_config=PolarizationConfig.CROSS, **kwargs),
        )

    @pytest.mark.parametrize("p_emit", SPARSE_P_EMIT)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_paired_call_equals_single_calls(self, monkeypatch, workers, p_emit):
        # small blocks put many meeting pairs on block edges; conversion noise,
        # companions, dark counts and dead time exercise every shared path
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)
        pipe = make_pipeline(seed=17, n_pulses=6_000, p_emit=p_emit, p_multi=0.05 * p_emit, conversion=True)
        pipe = replace(pipe, conversion=replace(pipe.conversion, noise_rate_cps=5e6))
        det1 = DetectorConfig(efficiency=0.8, irf_sigma_ps=50.0, dead_time_ps=20_000, dark_rate_cps=2e5)
        det2 = DetectorConfig(efficiency=0.7, irf_sigma_ps=90.0, dead_time_ps=25_000, dark_rate_cps=3e5)
        co, cross = self.settings_pair()

        paired = run_hom(pipe, (co, cross), det1, det2, workers=workers)
        assert [s.channel_id for s in paired.streams] == [0, 1, 0, 1]
        assert paired.stats.pulses == 6_000
        parts = paired.by_setting()
        for setting, part in zip((co, cross), parts):
            single = run_hom(pipe, setting, det1, det2, workers=workers)
            for mine, theirs in zip(part.streams, single.streams, strict=True):
                assert mine.channel_id == theirs.channel_id
                assert np.array_equal(mine.tags, theirs.tags)
            assert part.stats == single.stats
            assert part.stats.routed_lost > 0 and part.stats.noise_injected > 0
            assert all(ch.dark > 0 and ch.vetoed > 0 for ch in part.stats.channels)
            assert_conservation(part)
        # the joint draw differs between the settings, so the streams must too;
        # at p_emit 0.02 the run holds about 0.1 meeting pairs, so it has none to differ by
        if p_emit > SPARSE_P_EMIT[-1]:
            assert not np.array_equal(parts[0].streams[0].tags, parts[1].streams[0].tags)

    def test_settings_must_share_optics(self):
        co, cross = self.settings_pair()
        other = replace(cross, bs_out=BeamSplitter())
        det = ideal_detector()
        with pytest.raises(ConfigError, match="share"):
            run_hom(make_pipeline(n_pulses=100), (co, other), det, det)
        with pytest.raises(ConfigError):
            run_hom(make_pipeline(n_pulses=100), (), det, det)


class TestHaloRow:
    """A halo read by counter advance equals the same photon of a full regeneration."""

    @staticmethod
    def full_chunk(pipe, start, block, blink):
        rng = substream(pipe.seed, start, STAGE_EMIT)
        full = pipeline._emission_rows(pipe, start, rng.random(block), blink, rng)
        k = full.sig_pulse.size
        full_ok = pipeline._converted(pipe, start, np.concatenate([full.sig_detuning_ghz, full.comp_detuning_ghz]))
        route = substream(pipe.seed, start, STAGE_ROUTE).random((k, 2))
        return full, full_ok[:k], route

    @staticmethod
    def assert_halo_row(pipe, start, block, row, blink, full, full_ok, full_route):
        halo, ok, route = pipeline._signal_at(pipe, start, block, row, blink, 2)
        rank = int(np.count_nonzero(full.sig_pulse < row))
        emits = rank < full.sig_pulse.size and full.sig_pulse[rank] == row
        assert halo.sig_pulse.tolist() == ([0] if emits else [])
        for name in ("sig_time_ps", "sig_time_exact_ps", "sig_env_ps", "sig_detuning_ghz"):
            assert np.array_equal(getattr(halo, name), getattr(full, name)[rank : rank + emits]), name
        companion = full.comp_pulse == row
        assert halo.comp_pulse.size == np.count_nonzero(companion)
        for name in ("comp_time_ps", "comp_detuning_ghz"):
            assert np.array_equal(getattr(halo, name), getattr(full, name)[companion]), name
        assert np.array_equal(ok, full_ok[rank : rank + emits])
        assert np.array_equal(route, full_route[rank : rank + emits])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        block=st.integers(2, 300),
        chunk=st.integers(0, 50),
        conversion=st.booleans(),
        p_emit=st.sampled_from(SPARSE_P_EMIT),
    )
    # emitter rows follow the chunk's column of emission uniforms, so a chunk
    # of 65 or 67 pulses starts them inside a 4-word Philox step; an odd
    # emitter rank does the same for the conversion uniforms
    @example(seed=5, block=64, chunk=3, conversion=True, p_emit=1.0)
    @example(seed=5, block=65, chunk=3, conversion=True, p_emit=0.3)
    @example(seed=5, block=67, chunk=3, conversion=True, p_emit=0.02)
    def test_counter_advance_matches_full_regeneration(self, seed, block, chunk, conversion, p_emit):
        pipe = make_pipeline(
            seed=seed,
            n_pulses=(chunk + 1) * block,
            conversion=conversion,
            p_emit=p_emit,
            p_multi=0.3 * p_emit,
            dephasing_linewidth_ghz=2.0,
            spectral_diffusion_sigma_ghz=3.0,
            diffusion_block_pulses=7,
            blink_on_rate_per_us=20.0,
            blink_off_rate_per_us=20.0,
        )
        blink = pipeline._build_blink_table(pipe)
        start = chunk * block
        full, full_ok, full_route = self.full_chunk(pipe, start, block, blink)
        # the left halo reads the last pulse, the right halo the first
        for row in (block - 1, 0):
            self.assert_halo_row(pipe, start, block, row, blink, full, full_ok, full_route)
        # the right halo reads row 0 of the chunk's detection draws alone
        n_photons = max(full.sig_pulse.size + full.comp_pulse.size, 1)
        for one, all_rows in zip(
            pipeline._detection_rows(pipe.seed, start, 1), pipeline._detection_rows(pipe.seed, start, n_photons)
        ):
            assert np.array_equal(one, all_rows[:1])

    def test_dark_halo_pulse(self):
        # every bright pulse emits; pulse 10 and the last pulse of the chunk are dark
        block, start = 64, 3 * 64
        pipe = make_pipeline(
            seed=9, n_pulses=4 * block, conversion=True, p_emit=1.0, p_multi=0.3,
            blink_on_rate_per_us=20.0, blink_off_rate_per_us=20.0,
        )

        def t(row):
            return float(pipe.train.pulse_start_ps(start + row))

        blink = BlinkTable(True, np.array([t(10) - 1, t(10) + 1, t(block - 1) - 1]))
        full, full_ok, full_route = self.full_chunk(pipe, start, block, blink)
        assert full.sig_pulse.tolist() == [row for row in range(block - 1) if row != 10]
        for row in (block - 1, block - 2, 11, 10, 0):
            self.assert_halo_row(pipe, start, block, row, blink, full, full_ok, full_route)

    # seeds at which the block before the short last one reads it as its right halo
    @pytest.mark.parametrize("p_emit,seed", [(1.0, 3), (0.3, 4)])
    def test_short_last_block(self, monkeypatch, p_emit, seed):
        # the last block holds 3 pulses, so its emitter rows start inside a Philox
        # step, and the right halo of the block before reads one of them
        monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)
        n_total = 64 * 40 + 3
        pipe = make_pipeline(seed=seed, n_pulses=n_total, p_emit=p_emit, p_multi=0.05, conversion=True)
        det = ideal_detector(irf_sigma_ps=50.0)
        reads = []
        signal_at = pipeline._signal_at
        monkeypatch.setattr(pipeline, "_signal_at", lambda *args: reads.append(args[1:3]) or signal_at(*args))
        serial = run_hom(pipe, interferometer(), det, det, workers=1)
        # every halo read names the length of the chunk it reads
        assert (64 * 40, 3) in reads
        assert all(pulses == min(64, n_total - start) for start, pulses in reads)
        parallel = run_hom(pipe, interferometer(), det, det, workers=3)
        assert_conservation(serial)
        assert serial.stats == parallel.stats
        for s1, s2 in zip(serial.streams, parallel.streams):
            assert np.array_equal(s1.tags, s2.tags)
        full, full_ok, full_route = self.full_chunk(pipe, 64 * 40, 3, None)
        for row in (0, 2):
            self.assert_halo_row(pipe, 64 * 40, 3, row, None, full, full_ok, full_route)


class TestDrawBudget:
    """Random draws are made only for photons that exist, at profile parameters."""

    @staticmethod
    def draws_per_pulse(monkeypatch, run) -> float:
        drawn = []
        make = pipeline.substream

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                attr = getattr(self.rng, name)
                if not callable(attr):
                    return attr

                def draw(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    drawn.append(np.size(out))
                    return out

                return draw

        monkeypatch.setattr(pipeline, "substream", lambda *key: Counting(make(*key)))
        result = run()
        return sum(drawn) / result.stats.pulses

    def test_hom_930_paired(self, monkeypatch):
        cfg = load_config(PROFILES / "hom_930.cfg")
        settings = [cfg.interferometer(pol) for pol in PolarizationConfig]
        pipe = cfg.pipeline()
        per_pulse = self.draws_per_pulse(
            monkeypatch, lambda: run_hom(pipe, settings, cfg.det1, cfg.det2, n_pulses=200_000)
        )
        assert per_pulse <= 5.0  # 18 with one row per pulse

    def test_hbt_930(self, monkeypatch):
        cfg = load_config(PROFILES / "hbt_930.cfg")
        pipe = cfg.pipeline()
        per_pulse = self.draws_per_pulse(
            monkeypatch, lambda: run_hbt(pipe, cfg.bs, cfg.det1, cfg.det2, n_pulses=200_000)
        )
        assert per_pulse <= 6.0  # 16 with one row per pulse


class TestRateExperiment:
    def test_conversion_rate_matches_survival(self):
        pipe = make_pipeline(n_pulses=1_000_000, p_emit=0.03, conversion=True)
        result = run_direct(pipe, ideal_detector())
        st = result.stats
        eta = st.converted / st.emitted
        expected = 0.417
        sigma = math.sqrt(expected * (1 - expected) / st.emitted)
        assert abs(eta - expected) < 3 * sigma


class TestNoiseOnly:
    def test_poissonian_light_is_flat(self):
        conv = ConversionConfig(
            pump_wavelength=Wavelength(2400.0),
            pump_power_mw=327.0,
            eta_max=0.417,
            p_sat_mw=327.0,
            noise_rate_cps=5e6,
        )
        pipe = Pipeline(
            emitter=EmitterConfig(wavelength=Wavelength(945.0), lifetime_tau_ps=271.0, p_emit=0.0),
            train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=1_000_000),
            seed=RunSeed(404),
            conversion=conv,
        )
        result = run_hbt(pipe, BeamSplitter(), ideal_detector(), ideal_detector())
        assert result.stats.emitted == 0
        hist = cross_correlate(result.streams[0], result.streams[1], 100_000, 100)
        peaks = integrate_peaks(hist, PERIOD, 2000)
        g2 = estimate_g2(peaks, PERIOD, PERIOD)
        assert abs(g2.value - 1.0) < 3 * g2.sigma


class TestBlinking:
    def test_telegraph_bunching_decays(self):
        pipe = make_pipeline(
            seed=71,
            n_pulses=2_000_000,
            p_emit=0.05,
            blink_on_rate_per_us=0.1,
            blink_off_rate_per_us=0.1,
        )
        det = ideal_detector()
        result = run_hbt(pipe, BeamSplitter(), det, det)
        hist = cross_correlate(result.streams[0], result.streams[1], 45_000_000, 1000)
        peaks = integrate_peaks(hist, PERIOD, 2000)
        near = np.mean(
            [peaks.area_at(k * PERIOD, PERIOD)[0] for k in (1, 2, 3, -1, -2, -3)]
        )
        far = np.mean(
            [peaks.area_at(d, PERIOD)[0] for d in (40e6, -40e6, 41e6, -41e6, 42e6, -42e6)]
        )
        # stationary on/off telegraph: pair rate doubles at delays much
        # shorter than the 5 us correlation time and relaxes at 40 us
        ratio = near / far
        assert 1.6 < ratio < 2.4

    def test_no_blinking_far_peaks_flat(self):
        pipe = make_pipeline(seed=72, n_pulses=2_000_000, p_emit=0.05)
        det = ideal_detector()
        result = run_hbt(pipe, BeamSplitter(), det, det)
        hist = cross_correlate(result.streams[0], result.streams[1], 45_000_000, 1000)
        peaks = integrate_peaks(hist, PERIOD, 2000)
        near = np.mean([peaks.area_at(k * PERIOD, PERIOD)[0] for k in (1, 2, 3, -1, -2, -3)])
        far = np.mean([peaks.area_at(d, PERIOD)[0] for d in (40e6, -40e6, 41e6, -41e6)])
        assert abs(near / far - 1.0) < 0.1


class TestWiringSymmetry:
    def test_swapped_outputs_same_physics(self):
        pipe = make_pipeline(seed=88, n_pulses=2_000_000, p_emit=0.3, p_multi=0.003)
        det_a = ideal_detector(irf_sigma_ps=180.0)
        det_b = ideal_detector(irf_sigma_ps=40.0)
        straight = run_hbt(pipe, BeamSplitter(0.6, 0.4), det_a, det_b)
        mirrored = run_hbt(pipe, BeamSplitter(0.4, 0.6), det_b, det_a)
        values = []
        for result in (straight, mirrored):
            hist = cross_correlate(result.streams[0], result.streams[1], 100_000, 100)
            peaks = integrate_peaks(hist, PERIOD, 2000)
            values.append(estimate_g2(peaks, 3 * PERIOD, PERIOD))
        assert abs(values[0].value - values[1].value) < 4 * math.hypot(values[0].sigma, values[1].sigma)


class TestCrossSetupConsistency:
    def test_hom_cross_central_matches_hbt_oracle(self):
        # the cross-polarized central area, far-peak normalized, must equal
        # the enumerated model fed with the splitter-measured g2
        p_emit, target_g2 = 0.25, 0.02
        p_multi = calibrate_p_multi(target_g2, p_emit)
        pipe = make_pipeline(seed=99, n_pulses=3_000_000, p_emit=p_emit, p_multi=p_multi)
        det = ideal_detector()

        hbt_result = run_hbt(pipe, BeamSplitter(), det, det)
        hist = cross_correlate(hbt_result.streams[0], hbt_result.streams[1], 100_000, 100)
        g2 = estimate_g2(integrate_peaks(hist, PERIOD, 2000), 3 * PERIOD, PERIOD)

        hom_result = run_hom(pipe, interferometer(pol=PolarizationConfig.CROSS), det, det)
        hist = cross_correlate(hom_result.streams[0], hom_result.streams[1], 600_000, 100)
        peaks = integrate_peaks(hist, PERIOD, 2000)
        central, _ = peaks.area_at(0.0, PERIOD)
        norm, _ = peaks.area_at(500_000, PERIOD)
        a_perp = central / norm

        model = visibility_model(0.5, 0.5)
        predicted = model.c_two_photon + model.d_multi * g2.value
        sigma = a_perp * math.sqrt(1 / central + 1 / norm)
        # allow the consecutive-pulse companion term the model neglects
        neglected = target_g2 * p_emit * model.c_two_photon
        assert abs(a_perp - predicted) < 4 * sigma + 2 * neglected


class TestTwoSourceMixture:
    def test_independent_sources_give_half(self):
        # two synchronized independent single-photon sources on shared
        # detectors: cross-source accidentals put the central peak at half the
        # side level (central 2 p^2 RT vs side (2p)^2 RT)
        det = ideal_detector()
        streams = []
        for seed in (501, 502):
            pipe = make_pipeline(seed=seed, n_pulses=2_000_000, p_emit=0.2)
            streams.append(run_hbt(pipe, BeamSplitter(), det, det).streams)
        from photonflow.core import TagStream

        merged = [
            TagStream(ch, np.sort(np.concatenate([streams[0][ch].tags, streams[1][ch].tags])))
            for ch in (0, 1)
        ]
        hist = cross_correlate(merged[0], merged[1], 100_000, 100)
        peaks = integrate_peaks(hist, PERIOD, 2000)
        g2 = estimate_g2(peaks, PERIOD, PERIOD)
        assert abs(g2.value - 0.5) < 3 * g2.sigma


class TestFilterSelectivity:
    def test_broad_line_survival_matches_band_average(self):
        # a heavily broadened line loses photons in the spectral filter; the
        # engine's survival rate must match the quadrature band average
        from scipy import integrate as scipy_integrate

        from photonflow.conversion import filter_transmission, saturation_efficiency

        dephasing = 80.0  # comparable to the 115 GHz filter width
        pipe = make_pipeline(
            seed=61, n_pulses=400_000, p_emit=1.0, conversion=True, dephasing_linewidth_ghz=dephasing
        )
        conv = pipe.conversion
        scale = dephasing / 2.0  # per-photon Lorentzian half width

        def integrand(theta):
            return filter_transmission(conv, scale * math.tan(theta)) / math.pi

        band_average, _ = scipy_integrate.quad(integrand, -math.pi / 2, math.pi / 2)
        expected = saturation_efficiency(conv, conv.pump_power_mw) * band_average
        result = run_direct(pipe, ideal_detector())
        st = result.stats
        rate = st.converted / st.emitted
        sigma = math.sqrt(expected * (1 - expected) / st.emitted)
        assert abs(rate - expected) < 3 * sigma


class TestVisibilityRoundTrip:
    @pytest.mark.parametrize(
        "overlap_target,g2_target,r2,eps,seed",
        [
            (0.95, 0.02, 0.5, 0.02, 301),
            (0.75, 0.05, 0.45, 0.10, 302),
            (0.55, 0.00, 0.60, 0.00, 303),
        ],
    )
    def test_estimator_recovers_ground_truth(self, overlap_target, g2_target, r2, eps, seed):
        # sampled points of the (overlap, g2, splitting, visibility) grid:
        # simulate, analyze, recover the engine-matched expected overlap
        from scipy.optimize import brentq
        from scipy.special import erfc

        from photonflow.source import natural_linewidth_ghz, temporal_jitter_overlap

        p_emit = 0.15
        tau, width = 271.0, 20.0
        spectral_target = overlap_target / temporal_jitter_overlap(width, tau)

        def spectral(q):
            return math.exp(q * q / 2.0) * erfc(q / math.sqrt(2.0))

        q = brentq(lambda x: spectral(x) - spectral_target, 1e-12, 10.0)
        dephasing = q * natural_linewidth_ghz(tau)
        p_multi = calibrate_p_multi(g2_target, p_emit) if g2_target else 0.0

        pipe = make_pipeline(
            seed=seed,
            n_pulses=3_000_000,
            p_emit=p_emit,
            p_multi=p_multi,
            dephasing_linewidth_ghz=dephasing,
        )
        from photonflow.source import expected_pair_overlap

        truth = expected_pair_overlap(pipe.emitter, pipe.train)
        assert truth == pytest.approx(overlap_target, abs=1e-6)

        ifo_kwargs = dict(
            bs_in=BeamSplitter(),
            bs_out=BeamSplitter(r2, 1.0 - r2),
            arm_delay_ps=DELAY,
            classical_visibility=1.0 - eps,
        )
        det = ideal_detector(irf_sigma_ps=120.0)
        hists = {}
        for pol in (PolarizationConfig.CO, PolarizationConfig.CROSS):
            result = run_hom(
                pipe, HomInterferometer(polarization_config=pol, **ifo_kwargs), det, det
            )
            hists[pol] = cross_correlate(result.streams[0], result.streams[1], 600_000, 100)

        from photonflow.analysis import estimate_visibility

        calib = VisibilityCalib(r2=r2, t2=1.0 - r2, epsilon=eps, g2=hbt_expected(p_emit, p_multi).g2)
        vis = estimate_visibility(
            integrate_peaks(hists[PolarizationConfig.CO], PERIOD, 2000),
            integrate_peaks(hists[PolarizationConfig.CROSS], PERIOD, 2000),
            500_000,
            calib,
            PERIOD,
        )
        assert abs(vis.v_corr - truth) <= 0.02


class TestLifetimeThroughConversion:
    def test_conversion_preserves_lifetime(self):
        det = DetectorConfig(efficiency=1.0, irf_sigma_ps=180.0, dead_time_ps=25_000, dark_rate_cps=100.0)
        fits = []
        for conversion in (False, True):
            pipe = make_pipeline(seed=55, n_pulses=500_000, p_emit=1.0, conversion=conversion)
            decay = fold_decay(run_direct(pipe, det).streams[0], PERIOD, 8)
            irf = fold_decay(run_direct(irf_pipeline(pipe), det).streams[0], PERIOD, 8)
            fits.append(fit_lifetime(decay, irf))
        before, after = fits
        joint = math.hypot(before.tau_err_ps, after.tau_err_ps)
        assert abs(before.tau_ps - after.tau_ps) < 3 * joint
        assert abs(before.tau_ps - 271.0) < 16.0
        assert abs(after.tau_ps - 271.0) < 16.0
