"""Emitter statistics, the analytic pair overlap, and the blinking telegraph."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from photonflow.core import PulseTrainConfig, RunSeed, Wavelength, substream
from photonflow.source import (
    COMPANION_DRAWS,
    SIGNAL_DRAWS,
    BlinkTable,
    EmitterConfig,
    emitting,
    expected_pair_overlap,
    has_companion,
    sample_emission,
    temporal_jitter_overlap,
)

WL = Wavelength(945.0)


def train(n_pulses, width=20.0):
    return PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=width, n_pulses=n_pulses)


def emitter(**kwargs):
    defaults = dict(wavelength=WL, lifetime_tau_ps=271.0, p_emit=1.0)
    defaults.update(kwargs)
    return EmitterConfig(**defaults)


def emission_arrays(cfg, pulse_train, seed=11):
    """Vectorized emission for the whole train: one uniform per pulse, one row per emitter and per companion."""
    rng = substream(RunSeed(seed), 0, 0)
    n = pulse_train.n_pulses
    emits = emitting(cfg, rng.random(n), True)
    wander = (
        rng.normal(0.0, cfg.spectral_diffusion_sigma_ghz, n)
        if cfg.spectral_diffusion_sigma_ghz
        else np.zeros(n)
    )
    signal_rows = rng.random((int(emits.sum()), SIGNAL_DRAWS))
    companion_rows = rng.random((int(has_companion(cfg, signal_rows).sum()), COMPANION_DRAWS))
    return sample_emission(cfg, pulse_train, 0, emits, wander, signal_rows, companion_rows)


class TestEmission:
    def test_p_emit_zero_always_empty(self):
        block = emission_arrays(emitter(p_emit=0.0, p_multi=0.0), train(200), seed=1)
        assert block.sig_pulse.size == 0 and block.comp_pulse.size == 0

    def test_mean_emission_delay(self):
        # tau plus half the excitation pulse width, at a million pulses
        cfg = emitter()
        tr = train(1_000_000)
        block = emission_arrays(cfg, tr)
        delays = block.sig_time_ps - tr.pulse_start_ps(np.arange(tr.n_pulses))
        assert abs(delays.mean() - (271.0 + 10.0)) < 1.0

    def test_signal_count_binomial(self):
        cfg = emitter(p_emit=0.37)
        tr = train(200_000)
        block = emission_arrays(cfg, tr)
        count = block.sig_pulse.size
        sigma = math.sqrt(tr.n_pulses * 0.37 * 0.63)
        assert abs(count - 0.37 * tr.n_pulses) < 5 * sigma

    def test_emission_law_is_exponential(self):
        # KS on the continuous emission samples at 1e6 pulses; the 1 ps
        # recording grid is checked separately (rounding is within +-0.5 ps)
        cfg = emitter()
        tr = train(1_000_000, width=0.0)
        block = emission_arrays(cfg, tr)
        delays = block.sig_time_exact_ps - tr.pulse_start_ps(np.arange(tr.n_pulses))
        result = stats.kstest(delays, stats.expon(scale=271.0).cdf)
        assert result.pvalue > 0.01
        assert np.max(np.abs(block.sig_time_ps - block.sig_time_exact_ps)) <= 0.5

    def test_companion_needs_signal_and_carries_origin(self):
        block = emission_arrays(emitter(p_emit=1.0, p_multi=1.0), train(10), seed=3)
        assert block.sig_pulse.size == block.comp_pulse.size == 10
        assert np.all(block.comp_detuning_ghz > 5.0)  # companion sits far off line
        mixed = emission_arrays(emitter(p_emit=0.5, p_multi=0.5), train(10_000), seed=3)
        assert mixed.comp_pulse.size
        assert np.isin(mixed.comp_pulse, mixed.sig_pulse).all()

    def test_companion_rate(self):
        cfg = emitter(p_emit=0.5, p_multi=0.1)
        tr = train(200_000)
        block = emission_arrays(cfg, tr)
        expected = 0.5 * 0.1 * tr.n_pulses
        sigma = math.sqrt(expected)
        assert abs(block.comp_pulse.size - expected) < 5 * sigma

    def test_emit_time_not_before_pulse_start(self):
        cfg = emitter()
        tr = train(50_000)
        block = emission_arrays(cfg, tr)
        assert np.all(block.sig_time_ps >= tr.pulse_start_ps(block.sig_pulse))


class TestPairwiseOverlap:
    def test_pure_wavepackets_give_unity(self):
        cfg = emitter()
        assert expected_pair_overlap(cfg, train(10, width=0.0)) == pytest.approx(1.0)

    def test_pulse_width_factor(self):
        cfg = emitter()
        expected = temporal_jitter_overlap(20.0, 271.0)
        assert expected_pair_overlap(cfg, train(10, width=20.0)) == pytest.approx(expected)
        # factor agrees with a Monte Carlo average
        rng = np.random.default_rng(0)
        du = np.abs(rng.uniform(0, 20, 2_000_000) - rng.uniform(0, 20, 2_000_000))
        assert expected == pytest.approx(np.exp(-du / 271.0).mean(), abs=3e-4)

    @given(
        d1=st.floats(min_value=0.0, max_value=2.0),
        d2=st.floats(min_value=0.0, max_value=2.0),
        s1=st.floats(min_value=0.0, max_value=2.0),
        s2=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_broadening(self, d1, d2, s1, s2):
        lo = emitter(dephasing_linewidth_ghz=min(d1, d2), spectral_diffusion_sigma_ghz=min(s1, s2))
        hi = emitter(dephasing_linewidth_ghz=max(d1, d2), spectral_diffusion_sigma_ghz=max(s1, s2))
        tr = train(10)
        assert expected_pair_overlap(hi, tr) <= expected_pair_overlap(lo, tr) + 1e-12

    def test_engine_matched_expectation(self):
        # expected_pair_overlap is the mean of the interferometer's Gaussian
        # kernel over the sampled detuning differences
        cfg = emitter(dephasing_linewidth_ghz=0.05)
        tr = train(10, width=0.0)
        rng = np.random.default_rng(2)
        tau = 271.0
        d = 0.5 * 0.05 * np.tan(np.pi * (rng.random(2_000_000) - 0.5))
        d -= 0.5 * 0.05 * np.tan(np.pi * (rng.random(2_000_000) - 0.5))
        mc = np.exp(-0.5 * (2e-3 * np.pi * d * tau) ** 2).mean()
        assert expected_pair_overlap(cfg, tr) == pytest.approx(mc, abs=5e-4)


class TestBlinking:
    def test_rates_must_pair(self):
        from photonflow.core import ConfigError

        with pytest.raises(ConfigError):
            emitter(blink_on_rate_per_us=0.1)

    def test_dark_state_emits_nothing(self):
        cfg = emitter(blink_on_rate_per_us=0.1, blink_off_rate_per_us=0.1)
        tr = train(10)
        dark = BlinkTable(initial_bright=False, switch_times_ps=np.empty(0))
        bright = dark.bright_at(tr.pulse_start_ps(np.arange(tr.n_pulses)))
        emits = emitting(cfg, substream(RunSeed(5), 0, 0).random(tr.n_pulses), bright)
        assert not emits.any()
        no_rows = np.empty((0, SIGNAL_DRAWS)), np.empty((0, COMPANION_DRAWS))
        block = sample_emission(cfg, tr, 0, emits, np.zeros(tr.n_pulses), *no_rows)
        assert block.sig_pulse.size == 0 and block.comp_pulse.size == 0

    def test_dwell_times_exponential(self):
        cfg = emitter(blink_on_rate_per_us=0.1, blink_off_rate_per_us=0.1)
        rng = substream(RunSeed(8), 0, 0)
        table = BlinkTable.build(cfg, 2e12, rng)  # 2 s of telegraph
        dwells = np.diff(table.switch_times_ps) * 1e-6  # us
        assert abs(dwells.mean() - 10.0) < 5 * dwells.std() / math.sqrt(dwells.size)
        ks = stats.kstest(dwells, stats.expon(scale=10.0).cdf)
        assert ks.pvalue > 0.01

    def test_stationary_occupancy(self):
        cfg = emitter(blink_on_rate_per_us=0.3, blink_off_rate_per_us=0.1)
        rng = substream(RunSeed(9), 0, 0)
        table = BlinkTable.build(cfg, 1e12, rng)
        times = np.linspace(0, 1e12, 200_001)
        bright_fraction = table.bright_at(times).mean()
        assert abs(bright_fraction - 0.75) < 0.05

    def test_advance_matches_initial_state_contract(self):
        # the state holds its initial value up to the first switch and flips at each switch
        cfg = emitter(blink_on_rate_per_us=0.2, blink_off_rate_per_us=0.2)
        table = BlinkTable.build(cfg, 1e9, substream(RunSeed(10), 0, 0))
        first, second = table.switch_times_ps[:2]
        states = table.bright_at(np.array([0.0, first - 1.0, first + 1.0, second - 1.0, second + 1.0]))
        before = table.initial_bright
        assert states.tolist() == [before, before, not before, not before, before]
