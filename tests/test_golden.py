"""Pinned realizations: SHA-256 digests of every stream of small engine runs.

The engine promises identical bytes for any worker count; these digests also
pin the realization across code changes.  A change that alters any draw,
routing rule or registration step changes a digest, so a deliberate change of
the realization must update the table below in the same commit.
"""

import hashlib
from dataclasses import replace

import pytest

from photonflow import pipeline
from photonflow.conversion import ConversionConfig
from photonflow.core import PulseTrainConfig, RunSeed, Wavelength
from photonflow.optics import BeamSplitter, DetectorConfig, HomInterferometer, PolarizationConfig
from photonflow.pipeline import Pipeline, run_direct, run_hbt, run_hom
from photonflow.source import EmitterConfig

PERIOD = 1e6 / 73.0

GOLDEN = {
    "direct": [
        "2666392f027573cf9896d76ffd2520051cf06391ec85a3da04e0efcc8458bc8e",
    ],
    "hbt": [
        "c3fef25b0ecea90028250cde9331906eca336b3610a8b214c7f5b10312648b51",
        "a376f3b3b64e8dd6ccf5d194c467d8a538f13edd1d6c5e9e91c26b284463b6b5",
    ],
    # (setting, detector): co det1, co det2, cross det1, cross det2
    "hom": [
        "ce4f4b8a7b39ec3208db9e67b8522f337c66fbcb674f1f7067981d08b718f697",
        "d739e8f8f31dd864903046d9f58da947b2e486ec2367efc506dfc900c9e7c788",
        "19a0030fdeb0a3a824584c6e2c2baa82e514e413ee3c169a4280d2d5e5590737",
        "fbc44ee7db1290ed2af0a4a567c5eec1a21578d390504247a4eaf8b17c9d8578",
    ],
}


def make_pipeline(seed, n_pulses, noise_rate_cps, **emitter_kwargs):
    emitter = dict(wavelength=Wavelength(945.0), lifetime_tau_ps=271.0, p_emit=1.0, p_multi=0.05)
    emitter.update(emitter_kwargs)
    return Pipeline(
        emitter=EmitterConfig(**emitter),
        train=PulseTrainConfig(rep_rate_mhz=73.0, pulse_width_ps=20.0, n_pulses=n_pulses),
        seed=RunSeed(seed),
        conversion=ConversionConfig(
            pump_wavelength=Wavelength(2400.0),
            pump_power_mw=327.0,
            eta_max=0.417,
            p_sat_mw=327.0,
            noise_rate_cps=noise_rate_cps,
        ),
    )


def digests(result):
    return [hashlib.sha256(s.tags.astype("<i8").tobytes()).hexdigest() for s in result.streams]


DET1 = DetectorConfig(efficiency=0.8, irf_sigma_ps=50.0, dead_time_ps=20_000, dark_rate_cps=2e5)
DET2 = DetectorConfig(efficiency=0.7, irf_sigma_ps=90.0, dead_time_ps=25_000, dark_rate_cps=3e5)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)


def test_direct_digest():
    pipe = make_pipeline(31, 4_000, 5e6, blink_on_rate_per_us=0.5, blink_off_rate_per_us=0.5)
    result = run_direct(pipe, DET1)
    assert all(ch.dark > 0 and ch.vetoed > 0 for ch in result.stats.channels)
    assert result.stats.noise_injected > 0 and result.stats.conversion_lost > 0
    assert digests(result) == GOLDEN["direct"]


def test_hbt_digest():
    pipe = make_pipeline(32, 4_000, 5e6)
    result = run_hbt(pipe, BeamSplitter(0.45, 0.45), DET1, DET2)
    assert result.stats.routed_lost > 0
    assert digests(result) == GOLDEN["hbt"]


@pytest.mark.parametrize("workers", [1, 3])
def test_paired_hom_digest(workers):
    pipe = make_pipeline(
        33, 6_000, 5e6, dephasing_linewidth_ghz=0.3, spectral_diffusion_sigma_ghz=0.5,
        diffusion_block_pulses=100,
    )
    co = HomInterferometer(
        bs_in=BeamSplitter(0.48, 0.48),
        bs_out=BeamSplitter(0.47, 0.5),
        arm_delay_ps=round(PERIOD),
        classical_visibility=0.95,
    )
    cross = replace(co, polarization_config=PolarizationConfig.CROSS)
    result = run_hom(pipe, (co, cross), DET1, DET2, workers=workers)
    assert result.stats.routed_lost > 0 and result.stats.noise_injected > 0
    assert digests(result) == GOLDEN["hom"]
