"""Splitter, interferometer and detector kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflow.conversion import ConversionConfig, dfg_wavelength
from photonflow.core import ConfigError, PulseTrainConfig, RunSeed, Wavelength, substream
from photonflow.optics import (
    BeamSplitter,
    DetectorConfig,
    DetectStats,
    HomInterferometer,
    PolarizationConfig,
    apply_dead_time,
    joint_ports,
    joint_split_probabilities,
    pair_overlap,
    register_arrivals,
    sample_dark_counts,
    split_ports,
)
from photonflow.pipeline import Pipeline, run_hom
from photonflow.source import EmitterConfig

DELAY = 13699
TAU = 271.0


def ifo(visibility=1.0, pol=PolarizationConfig.CO):
    return HomInterferometer(
        bs_in=BeamSplitter(0.5, 0.5),
        bs_out=BeamSplitter(0.5, 0.5),
        arm_delay_ps=DELAY,
        classical_visibility=visibility,
        polarization_config=pol,
    )


def uniforms(seed, shape):
    return substream(RunSeed(seed), 0, 0).random(shape)


class TestSplit:
    def test_full_reflectance(self):
        assert np.all(split_ports(uniforms(0, 100), 1.0, 0.0) == 0)

    def test_balanced_binomial(self):
        n = 1_000_000
        reflected = np.count_nonzero(split_ports(uniforms(1, n), 0.5, 0.5) == 0)
        assert abs(reflected / n - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_lossy_splitter(self):
        n = 100_000
        lost = np.count_nonzero(split_ports(uniforms(2, n), 0.45, 0.45) == -1)
        assert abs(lost / n - 0.1) < 3 * math.sqrt(0.1 * 0.9 / n)

    def test_invalid_ratios(self):
        with pytest.raises(ConfigError):
            BeamSplitter(0.7, 0.7)


def overlap_of(det_early, det_late, env_early, env_late):
    """Overlap factor of a single pair."""
    det_early, det_late, env_early, env_late = (
        np.array([value], dtype=float) for value in (det_early, det_late, env_early, env_late)
    )
    return pair_overlap(TAU, det_early, det_late, env_early, env_late, DELAY)[0]


def hom_pipeline(filter_center_offset_ghz):
    """Every pulse emits a signal photon and a companion 20 GHz off line; a
    2 GHz filter passes the line at the given offset, plus converted noise."""
    emitter = EmitterConfig(wavelength=Wavelength(945.0), lifetime_tau_ps=271.0, p_emit=1.0, p_multi=1.0)
    pump = Wavelength(2400.0)
    center = dfg_wavelength(emitter.wavelength, pump).frequency_ghz + filter_center_offset_ghz
    conversion = ConversionConfig(
        pump_wavelength=pump, pump_power_mw=327.0, eta_max=0.417, p_sat_mw=327.0,
        filter_fwhm_ghz=2.0, filter_center=Wavelength.from_frequency_ghz(center), noise_rate_cps=5e6,
    )
    return Pipeline(
        emitter=emitter,
        train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=20_000),
        seed=RunSeed(21),
        conversion=conversion,
    )


class TestPairOverlap:
    def test_companion_and_noise_are_distinguishable(self):
        # only signal photons enter the joint draw: with the filter on the
        # companion line, the co and cross settings see the same companion and
        # noise photons and register identical streams; on the signal line
        # they differ
        det = DetectorConfig()
        for offset, same in ((20.0, True), (0.0, False)):
            result = run_hom(hom_pipeline(offset), (ifo(), ifo(pol=PolarizationConfig.CROSS)), det, det)
            assert result.stats.converted > 1000 and result.stats.noise_injected > 0
            co, cross = result.by_setting()
            identical = all(np.array_equal(a.tags, b.tags) for a, b in zip(co.streams, cross.streams))
            assert identical == same, offset

    def test_polarization_mismatch(self):
        m = pair_overlap(TAU, np.zeros(3), np.zeros(3), np.zeros(3), np.full(3, float(DELAY)), DELAY)
        assert np.array_equal(m, np.ones(3))
        assert np.array_equal(ifo(pol=PolarizationConfig.CROSS).effective_overlap(m), np.zeros(3))
        assert ifo(visibility=0.9).effective_overlap(m) == pytest.approx(np.full(3, 0.81))

    def test_detuning_beyond_coherence(self):
        assert overlap_of(0.0, 50.0, 0.0, float(DELAY)) == 0.0

    def test_formula(self):
        x = 2 * math.pi * 1e-3 * 0.1 * TAU
        expected = math.exp(-0.5 * x * x) * math.exp(-40.0 / TAU)
        assert overlap_of(0.0, 0.1, 0.0, DELAY + 40.0) == pytest.approx(expected)


def joint_draw(m_eff, r2, t2, seed):
    """Ports (early, late) of pairs that both survive the output splitter."""
    u = uniforms(seed, (2, m_eff.size))
    return joint_ports(r2, t2, m_eff, u[0], u[1])


class TestHomInterfere:
    def test_perfect_dip(self):
        # identical photons, balanced splitter, perfect mode matching: no split
        port_e, port_l = joint_draw(np.ones(100_000), 0.5, 0.5, 3)
        assert np.array_equal(port_e, port_l)

    def test_cross_polarized_central_rate(self):
        # zero overlap: split at rr^2 + tt^2, and each photon keeps its own
        # splitter law (the long-arm photon transmits to port 0)
        r2, t2 = 0.6, 0.4
        n = 100_000
        m_eff = ifo(pol=PolarizationConfig.CROSS).effective_overlap(np.ones(n))
        port_e, port_l = joint_draw(m_eff, r2, t2, 4)
        for count, p in (
            (np.count_nonzero(port_e != port_l), r2**2 + t2**2),
            (np.count_nonzero(port_e == 0), t2),
            (np.count_nonzero(port_l == 0), r2),
        ):
            assert abs(count - n * p) < 3 * math.sqrt(n * p * (1 - p))

    def test_partial_overlap_suppression(self):
        # detuning chosen for a 0.95 overlap factor: split rate at 5% of cross
        x = math.sqrt(-2.0 * math.log(0.95))
        detuning = x / (2 * math.pi * 1e-3 * TAU)
        n = 100_000
        m = pair_overlap(TAU, np.zeros(n), np.full(n, detuning), np.zeros(n), np.full(n, float(DELAY)), DELAY)
        assert np.allclose(m, 0.95)
        splits = []
        for setting, seed in ((ifo(), 5), (ifo(pol=PolarizationConfig.CROSS), 6)):
            port_e, port_l = joint_draw(setting.effective_overlap(m), 0.5, 0.5, seed)
            splits.append(np.count_nonzero(port_e != port_l))
        co, cross = splits
        ratio = co / cross
        sigma = ratio * math.sqrt(1 / co + 1 / cross)
        assert abs(ratio - 0.05) < 3 * sigma

    def test_joint_probabilities_normalize(self):
        for m in (0.0, 0.3, 1.0):
            for r2, t2 in ((0.5, 0.5), (0.6, 0.3), (0.2, 0.7)):
                b1, b2, s, w = joint_split_probabilities(r2, t2, m)
                assert b1 + b2 + s == pytest.approx(1.0)
                assert 0.0 <= w <= 1.0


def detect(cfg, arrivals, window_ps, seed, stats=None):
    """One detector channel as the engine runs it: register, add darks, sort, veto."""
    rng = substream(RunSeed(seed), 0, 0)
    stats = stats if stats is not None else DetectStats()
    arrivals = np.asarray(arrivals, dtype=np.int64)
    u_eff, z = rng.random(arrivals.size), rng.standard_normal(arrivals.size)
    tags = register_arrivals(cfg, arrivals, u_eff, z, stats)
    dark = sample_dark_counts(cfg, window_ps, rng)
    stats.dark += dark.size
    kept, vetoed = apply_dead_time(np.sort(np.concatenate([tags, dark])), cfg.dead_time_ps)
    stats.vetoed += vetoed
    return kept


class TestDetect:
    def test_ideal_detector_exact_times(self):
        tags = detect(DetectorConfig(), [100, 2000, 2000, 50_000], (0, 100_000), 8)
        assert tags.tolist() == [100, 2000, 2000, 50_000]

    def test_jitter_sigma_recovered(self):
        cfg = DetectorConfig(efficiency=1.0, irf_sigma_ps=100.0)
        n = 100_000
        tags = detect(cfg, np.full(n, 10_000_000), (0, 20_000_000), 9)
        spread = tags.astype(float) - 10_000_000
        assert abs(spread.std(ddof=1) - 100.0) < 2.0
        assert abs(spread.mean()) < 3 * 100.0 / math.sqrt(n)

    def test_dead_time_veto(self):
        cfg = DetectorConfig(dead_time_ps=50_000)
        assert detect(cfg, [1000, 1010], (0, 100_000), 10).tolist() == [1000]

    def test_efficiency_thinning_and_accounting(self):
        cfg = DetectorConfig(efficiency=0.3)
        stats = DetectStats()
        tags = detect(cfg, 100 * np.arange(100_000), (0, 10_000_000), 11, stats)
        assert stats.n_in == 100_000
        assert stats.registered + stats.undetected == stats.n_in
        assert stats.registered == tags.size + stats.vetoed - stats.dark
        assert abs(stats.registered / 1e5 - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 1e5)

    def test_dark_counts_poisson(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate_cps=1e6)
        rng = substream(RunSeed(12), 0, 0)
        counts = [sample_dark_counts(cfg, (0, 10**9), rng).size for _ in range(200)]
        mean = np.mean(counts)  # expect 1000 per window
        assert abs(mean - 1000.0) < 3 * math.sqrt(1000.0 / 200)

    def test_irf_moment_matching(self):
        # tag law equals emission law convolved with the jitter kernel:
        # mean shift zero, variance adds in quadrature
        tau, sigma = 271.0, 180.0
        rng = substream(RunSeed(13), 0, 0)
        n = 1_000_000
        emit = np.rint(rng.exponential(tau, n)).astype(np.int64) + 1_000_000
        photons_var = emit.var()
        cfg = DetectorConfig(efficiency=1.0, irf_sigma_ps=sigma)
        u = rng.random(n)
        z = rng.standard_normal(n)
        tags = register_arrivals(cfg, emit, u, z)
        added = tags.var() - photons_var
        assert abs(tags.mean() - emit.mean()) < 3 * sigma / math.sqrt(n)
        assert abs(added - sigma**2) < 0.05 * sigma**2


def _dead_time_oracle(tags_ps, dead_time_ps):
    """Reference veto: walk the accepted orbit one tag at a time."""
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


def _straddling_bursts(n, half, dead_time_ps):
    """Tags two dead times apart, except a burst of equal tags around each
    start of the ceil(sqrt(n))-long segments ``apply_dead_time`` cuts."""
    seg = math.isqrt(max(n - 1, 0)) + 1
    idx = np.arange(n)
    k = (idx + half) // seg
    burst = (np.abs(idx - k * seg) < half) & (k > 0)
    return np.where(burst, k * seg - half, idx).astype(np.int64) * 2 * dead_time_ps


@st.composite
def veto_cases(draw):
    dead = draw(st.integers(1, 40))
    root = draw(st.integers(1, 45))
    # n of 0, 1 and 2, and n on either side of a square, where the segment length steps
    n = draw(st.sampled_from([0, 1, 2, root * root - 1, root * root, root * root + 1]) | st.integers(0, 2000))
    shape = draw(st.sampled_from(["clustered", "periodic", "bursts"]))
    if shape == "clustered":
        # zero gaps make duplicate tags
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tags = np.cumsum(rng.integers(0, 2 * dead + 1, n))
    elif shape == "periodic":
        # jumps[i] = i + ceil(dead / step): walks from different residues never merge
        tags = draw(st.integers(1, dead)) * np.arange(n)
    else:
        seg = math.isqrt(max(n - 1, 0)) + 1
        tags = _straddling_bursts(n, draw(st.integers(1, max(1, seg // 2))), dead)
    tags = tags.astype(np.int64) + draw(st.integers(0, 10**6))
    if n and draw(st.booleans()):
        dead = max(1, int(tags[-1] - tags[0]) + draw(st.integers(0, 2)))  # the whole span
    return tags, dead


class TestApplyDeadTime:
    @given(veto_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, case):
        tags, dead = case
        kept, vetoed = apply_dead_time(tags, dead)
        want, want_vetoed = _dead_time_oracle(tags, dead)
        assert np.array_equal(kept, want)
        assert vetoed == want_vetoed

    def test_straddling_bursts_match_the_loop(self):
        # each burst straddles a segment start, so the segment is entered from
        # burst tags that lie before the start
        tags = _straddling_bursts(100_003, 150, 1000)
        assert np.all(np.diff(tags) >= 0)
        kept, vetoed = apply_dead_time(tags, 1000)
        want, want_vetoed = _dead_time_oracle(tags, 1000)
        assert np.array_equal(kept, want)
        assert vetoed == want_vetoed > 0

    def test_greedy_semantics(self):
        tags = np.array([0, 10, 20, 30, 100, 105, 200])
        kept, vetoed = apply_dead_time(tags, 25)
        assert kept.tolist() == [0, 30, 100, 200]
        assert vetoed == 3

    def test_boundary_is_exclusive(self):
        kept, _ = apply_dead_time(np.array([0, 25]), 25)
        assert kept.tolist() == [0, 25]

    def test_dense_stream_alternates(self):
        tags = np.arange(0, 100_000, 10)
        kept, vetoed = apply_dead_time(tags, 15)
        assert np.all(np.diff(kept) >= 15)
        assert kept.size + vetoed == tags.size
        assert kept.tolist() == list(range(0, 100_000, 20))

    def test_zero_dead_time_passthrough(self):
        tags = np.array([1, 2, 3])
        kept, vetoed = apply_dead_time(tags, 0)
        assert np.array_equal(kept, tags)
        assert vetoed == 0
