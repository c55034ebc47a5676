"""Pinned realizations: SHA-256 digests of engine streams and of CLI artifacts.

The engine promises identical bytes for any worker count; these digests also
pin the realization across code changes.  A change that alters any draw,
routing rule or registration step changes a stream digest, and a change to a
report, CSV or plot changes an artifact digest, so a deliberate change of
either must update the tables below in the same commit.
"""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from photonflow import cli, pipeline
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


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(pipeline, "BLOCK_PULSES", 64)


@pytest.mark.usefixtures("small_blocks")
def test_direct_digest():
    pipe = make_pipeline(31, 4_000, 5e6, blink_on_rate_per_us=0.5, blink_off_rate_per_us=0.5)
    result = run_direct(pipe, DET1)
    assert all(ch.dark > 0 and ch.vetoed > 0 for ch in result.stats.channels)
    assert result.stats.noise_injected > 0 and result.stats.conversion_lost > 0
    assert digests(result) == GOLDEN["direct"]


@pytest.mark.usefixtures("small_blocks")
def test_hbt_digest():
    pipe = make_pipeline(32, 4_000, 5e6)
    result = run_hbt(pipe, BeamSplitter(0.45, 0.45), DET1, DET2)
    assert result.stats.routed_lost > 0
    assert digests(result) == GOLDEN["hbt"]


@pytest.mark.usefixtures("small_blocks")
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

PROFILES = Path(__file__).resolve().parent.parent / "profiles"

# shipped profile (or hom_930 rewritten to one polarization) -> artifact -> sha256,
# each run at n_pulses = 100000 through `photonflow run`
CLI_GOLDEN = {
    "hbt_1550": {
        "correlation.csv": "9f94e01afa2b8cae63477b1bb718b3f0078015bab6c7319562b79c9c567b729f",
        "correlation.svg": "447a424335092d6ed5684c534cff34bfeac7b319a4aefae23e9af1f310f05f9c",
        "report.txt": "929f899bb3a6af876b60ff34d5fc05c911d0790c726819a8bcb3c4c9d3921840",
        "tags_ch0.pftg": "2a22cb0c9f52a150cb47324690269823d511f29571814dfb40f30d3115eba447",
        "tags_ch1.pftg": "0e12a9b83813848f4ef4cff094bda1461badc403ca064efd8e23e9d4108c092a",
    },
    "hbt_930": {
        "correlation.csv": "aabc056e0f73a1fd8425a04a785ee4f12544cfccb9cc30992a39c31c2014befc",
        "correlation.svg": "7e5f99f73b7c93d9224d97e69260d609dd722acf85caa8f4f6009c6af3ab5885",
        "report.txt": "72d0df6884ea76fc26fcb9d8d7953608eaa09fce92ea5d1db9c4a8d5c5cc6f39",
        "tags_ch0.pftg": "ef21c53e784da40d46a7291d53c45c39de45d05a46f86019d9c9a702883c1bbc",
        "tags_ch1.pftg": "f5f33d00f4e22008ec2dea1ae98db83e5b6573374f963bebb374ca37f5d4b2e0",
    },
    "hom_1550": {
        "correlation_co.csv": "44cde7729c5c1f448d70555172a7f21d118a77a45ff86c7a7d274fe835f62a47",
        "correlation_cross.csv": "366ea3893d14de22c23585e5c713e3033eeb79f73e7926b7bdbefa3437463acb",
        "hom_central.svg": "1e1a814ea47b7d36e9f4c5b3d76dd1bd1ef50525a4238e2a73b33771655bb217",
        "report.txt": "c26ca651d7fb665e2dc84327542f210f064f51ca39f025c24ca45777e91820da",
        "tags_co_ch0.pftg": "8ea97ba53832103e8063ebea798a1483e84ee69f5a151deefb75386d4b7e31d8",
        "tags_co_ch1.pftg": "7001346f0029d9ed221b291e64353f0022d932ee68dd6cdc89fccfcace823845",
        "tags_cross_ch0.pftg": "891c57b734e462f6e61919d02210bf0e00bc4eaab73ba671040c1c7ab98ea7a8",
        "tags_cross_ch1.pftg": "20670d4a502d262f11ed481b50b38caa95a71a24c7b2cca295026b902185c031",
    },
    "hom_930": {
        "correlation_co.csv": "48e2b7e5ff4b00a1f9f246ed9911717df9561be4999fa7208cd2220ed0fde533",
        "correlation_cross.csv": "fc4a39903f3c2f840203ca35473350016f970e159945305e92306e6e3ec3b005",
        "hom_central.svg": "77d789ca1cfd831bbf1401cbee9e8d8ae3988d16944bf63130c7be95fd0e535a",
        "report.txt": "445665692eda4b2710bc8b96af232f18414e8e9050f418f9fdb6376d371d16a7",
        "tags_co_ch0.pftg": "35716d34cb58500745f7ed44e29c7bf41e1b559585592be345b3b8865020f3ec",
        "tags_co_ch1.pftg": "13da75d04211ac57ccf7929e24c46adee6feacd9d689f9d71d29528187ed22f9",
        "tags_cross_ch0.pftg": "6357d7ae8c30ddc36dfb7fcf7b82960e19284135f186e70f3d711adddd66a294",
        "tags_cross_ch1.pftg": "6c59face87648d57044d0a0f76e9db615a34a3f892200990c538afcd752d059b",
    },
    "lifetime_1550": {
        "decay_hist.csv": "7e84c750c752ffe6815c56c4ed67fed9afa7f92bf86de1e0a75546d55c84d2be",
        "irf_hist.csv": "8e6824b37420ab46ed29eabffe9c17744a88a7a7c8112116558779ad064534ff",
        "irf_tags_ch0.pftg": "cde7723665e38d4c4e89e1990a8a96d506845b2c90dbfbd97d96ec0aeb3bafe5",
        "lifetime_fit.svg": "b9005409b3b48478dfc8e05d3aa30b36176dd5ccc953ddb935d868a0989acae7",
        "report.txt": "ea7748687fbfab8d97276aa907dbadf1c35752b346642df16ef493e097e8286b",
        "tags_ch0.pftg": "d2af95252c3a7824b651bb436723dfe066a8d231b5463697386ca01f097c7732",
    },
    "lifetime_930": {
        "decay_hist.csv": "e8150babc049d3d3c38957ed81877f0ad1e041cff365df813a1bc9e16e85f69d",
        "irf_hist.csv": "059d243279362b69697ead96ec9b206f535aa09d4906aec097324bb1a84a3ed8",
        "irf_tags_ch0.pftg": "8cdfef9c5c48154f286e2cbf1d9ffa93f64a0b6f1d64a102fa741ddb0db04527",
        "lifetime_fit.svg": "03093efb7f34e3e3f0cf9b0d0e95c3bb7fafc1b1570b731f50c0aa37b6c289b2",
        "report.txt": "d79b2f0aba05106d71307562a57b6edef6a73d6bfe675dbc507baf0857ec5626",
        "tags_ch0.pftg": "bb7641f0a3fbbfbd488432e393739cced400e0e5b7bec9fbafd9302770de331d",
    },
    "rate_1550": {
        "report.txt": "a115634f60264c7788e272897164b3a8442b86498897ab1068c256ee7bbadd0c",
        "tags_ch0.pftg": "2f09f8a271d0e1f2f6f66ad65a6769454a297ea77d8c5adf1d0a082df2d0c9a1",
    },
    "saturation": {
        "report.txt": "4e85e7f901a8800a5f152cee0e9a9d676f1e425c01145e7b475b28c2620bf6ca",
        "saturation.csv": "f7e9a68d1c75b57135fa3499d89cb0b615c256b3c42bf4c792022bc11ea4abb6",
        "saturation.svg": "ba15c7d5edf4bff82bebae26fb34d3b3165be95ce2a06c7f4c3c9ac29a6cc24b",
    },
    "hom_930_co": {
        "correlation_co.csv": "48e2b7e5ff4b00a1f9f246ed9911717df9561be4999fa7208cd2220ed0fde533",
        "correlation_co.svg": "5d0614e026943e03af32529a03c780d00c3e07d8443de116ac3319144f274121",
        "report.txt": "a2c1eb4bd77f0f46b24a740462c3b655c7a2bd8428332f482d65a82335de0561",
        "tags_co_ch0.pftg": "35716d34cb58500745f7ed44e29c7bf41e1b559585592be345b3b8865020f3ec",
        "tags_co_ch1.pftg": "13da75d04211ac57ccf7929e24c46adee6feacd9d689f9d71d29528187ed22f9",
    },
    "hom_930_cross": {
        "correlation_cross.csv": "fc4a39903f3c2f840203ca35473350016f970e159945305e92306e6e3ec3b005",
        "correlation_cross.svg": "f8642f0e773ba2142c73e326ac3b422bcc31e2c791ead133273868932006af21",
        "report.txt": "70fde8893a2b509de338441e629006a7679fc72d235ca5617074244f894932e6",
        "tags_cross_ch0.pftg": "6357d7ae8c30ddc36dfb7fcf7b82960e19284135f186e70f3d711adddd66a294",
        "tags_cross_ch1.pftg": "6c59face87648d57044d0a0f76e9db615a34a3f892200990c538afcd752d059b",
    },
}



def cli_config_text(name):
    """The profile's text with n_pulses cut to 100000; hom_930_<pol> runs one polarization."""
    stem, _, setting = name.partition("_930_")
    text = (PROFILES / f"{stem}_930.cfg" if setting else PROFILES / f"{name}.cfg").read_text()
    if setting:
        assert "experiment = hom_paired" in text
        text = text.replace("experiment = hom_paired", f"experiment = hom_{setting}")
    return re.sub(r"(?m)^n_pulses = .*$", "n_pulses = 100000", text)


def test_cli_golden_covers_every_profile():
    assert {p.stem for p in PROFILES.glob("*.cfg")} <= set(CLI_GOLDEN)


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_artifact_digests(name, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(cli_config_text(name))
    outdir = tmp_path / "out"
    assert cli.main(["run", str(config), "--output", str(outdir)]) == cli.EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["artifacts"] == CLI_GOLDEN[name]
