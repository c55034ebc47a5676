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
        "8dc4fe3bd2d81559f499788de471c8654bbf32906a15f093c770ac3104be0dc4",
    ],
    "hbt": [
        "105c77d14d887d1249ab09f9cf1b9cacd71e346523c0979007ce7243e2e0993f",
        "f0d387ef68df23ee6b60794b9ac2cb3fc9a696bd37210932381ad0a5c780c27c",
    ],
    # (setting, detector): co det1, co det2, cross det1, cross det2
    "hom": [
        "a465baf715a1269a580bf6df1b8fa90d21373e1749e69694bf45e69bdbae1d11",
        "2bcce70cf23bab633f551284b09f0e57dc4eaa476ebeef080a28595633d186c0",
        "5c77a3e30ac53b18b9aca92fa3362f18a8e8963e81616101f243c96d83ddc7f8",
        "01e01b74e562daa31e42753f8916d1f8204767a6d3b18a42992afb6aa01af398",
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
        "correlation.csv": "4943b1b1ce5274b067b40e1c367c9e39d7545293c37a40cd0ee8c06157f27514",
        "correlation.svg": "c1eeb58cca08f037be5bb334c7cb6acb2fa56f1f9e6e0831337d31d3a84a0568",
        "report.txt": "e52de445722ae474066d794e322c022cc9b7c416b9dc792553d82110e9ad9934",
        "tags_ch0.pftg": "75b16247525ff47deed12b7a34cf00fb0a5fe5129fc0429c2cb16d7b5a5fcb12",
        "tags_ch1.pftg": "c59230f8451f15d51c33c51825e1a601ffb302552089a61b4d73d869076afcc9",
    },
    "hbt_930": {
        "correlation.csv": "02b2d0faac5ea44a6c2b03c009c5672e9b543256aed687ec758062d1506e0bdf",
        "correlation.svg": "eb96c6d030d009cade9472b612b41b2b2e8350fb5f736caaa500619baa65e900",
        "report.txt": "d0ee47570bc7fcea88b9db0adb356042d50476a37988846285e5b8492c553fc1",
        "tags_ch0.pftg": "5f7ad5636719387e390049d89f08189240b8de2639966098f9b0c12c6e810972",
        "tags_ch1.pftg": "f479281834350337d37eb076c0b7e9df1ef4cb7e1b857def39472dc8ea8ab09d",
    },
    "hom_1550": {
        "correlation_co.csv": "d9304b004dcf44d43a952bca612b10da93751cece785e68df26e1e4456bae49f",
        "correlation_cross.csv": "26e00691c60654318edf36a4578959a42fa8ee7df7b7b15864005f52fe3b5410",
        "hom_central.svg": "436da09978eae4b11726a95eeb85bb583ebf3608542a475200f87a2fcf55942e",
        "report.txt": "8105a30de0899b05a9260cd531ae8f2b3c8d53a436bc16ed343d4d88c7efcd2f",
        "tags_co_ch0.pftg": "b1c66d3b3d169f7b181c6c35f89fdf98c373c0e5396d59416afb46f6322e3405",
        "tags_co_ch1.pftg": "230070c86bc1da75a42cca0d04fb45c8f5c488707d7517c8f668f3141c8c405d",
        "tags_cross_ch0.pftg": "16208075d31481aa12ef7a0782a0e2cb4a862ba3c6c61a9d970b0cfc5c087e2a",
        "tags_cross_ch1.pftg": "541faeccf2a7336a1ba01812cc5ebde976e4d9261ecbca4b75b90772f386836d",
    },
    "hom_930": {
        "correlation_co.csv": "dca4b9d3a3e4b66808846f0e1aeb7b269ff7470d8f65931d0ee90162b2de28d3",
        "correlation_cross.csv": "d72104cfaaa8794985ac9170a295fb97b884652e321ff94e94275134d95b5f7f",
        "hom_central.svg": "6d6c7cc95c0f700f82222d77532946777ec0d3a9fa95aadb48cdfdee0fe5822f",
        "report.txt": "cefb01b17d8f8c60c4a1fc74206ef1d6bc5eed44930cba8e29a4492f24cf7b81",
        "tags_co_ch0.pftg": "8f317a9867b3ebbf763744c84ca5925f1877da5c8b4bb3ce53bcd61fe3025f45",
        "tags_co_ch1.pftg": "a510a0eed69cb1c3012b8557afda42f3c84c976e299e38b4d1fe45911749bf3f",
        "tags_cross_ch0.pftg": "02a7d222b9f00a3b9150676ff4e900a8c30b6c81854d8895432d27445a347401",
        "tags_cross_ch1.pftg": "aa86ddf2e0dfb4520686ebd4e4807e9c12c23734df2a31923355680a26736f9b",
    },
    "lifetime_1550": {
        "decay_hist.csv": "4d408d9d009db08d4553b1b0e881b387c5702318bb766991a38b49444a3e2e9a",
        "irf_hist.csv": "682e35953d402844beac66465fd9d8d7586f4095f16c16bc18799b181f964a7a",
        "irf_tags_ch0.pftg": "3773c76c5387ff6e832f18a0ce0380147dfcf261c665b71a2db214d96eacf909",
        "lifetime_fit.svg": "e23f017bf42d38cfeccc295a335fb452f6e7ad66504176a0e937a4d1fd517f3d",
        "report.txt": "19c5a40d32b0ec240d5311dc2df5fe7ef50fe4c0d7c0bb10ebb2cb0cb0bbec91",
        "tags_ch0.pftg": "d70acaa35d56a7f14cb69959f73a81bf7e8598abcd883483fae4312324511034",
    },
    "lifetime_930": {
        "decay_hist.csv": "ad3520fa60fc811399c80c35eaa99ebeb5924ddbd64202e39a8d46034563a9b7",
        "irf_hist.csv": "7c3427253831bb5decfacaeec23e29ab82dd8898f80d9646e0d28e2b139d4de9",
        "irf_tags_ch0.pftg": "0d717a4c03544fd49947abab5bb043735c823567e9541045a3aaec5b94b9aeba",
        "lifetime_fit.svg": "c2b5ee2c25c001e80438f649351979de82a063859d4bc0556adc0150ad521bbd",
        "report.txt": "9904613e63ef18ffab0b226a254dd09fb549ad073b0da88e093ef635a9d5a89f",
        "tags_ch0.pftg": "bf7b59e0849e380280c83130f7bce127dd4f5e070d23c6c140f98df0c37b48d9",
    },
    "rate_1550": {
        "report.txt": "c6889c66195d469d28b30bb97f0b812e0f1063960f1e29e08ab92a10e70510b5",
        "tags_ch0.pftg": "769b3bde1136720df9d8df1b681d2c4f11aa1521473bb9abc28f430b74ee9bc2",
    },
    "saturation": {
        "report.txt": "5634b9cbdf923525ba89be066c7b261bb6ea2d612076c447bcba69ef67431e70",
        "saturation.csv": "8a1d9cce4da2d2257e5b21c6ad1dd1341553fade7e6a88e6d7a2621da05bc48e",
        "saturation.svg": "07ad36bbd36d49ea1bd8ebd6e8804eab0c181e81419b7a169b9c97b58e31c6e4",
    },
    "hom_930_co": {
        "correlation_co.csv": "dca4b9d3a3e4b66808846f0e1aeb7b269ff7470d8f65931d0ee90162b2de28d3",
        "correlation_co.svg": "82f18ec477ec056a29d25fa625a8da5729aff1c51f5f098ddff413585973271b",
        "report.txt": "673adb36d21d9d1ad6c6adbc21ecfe363ee07af12d5aa384312d2bdd29617496",
        "tags_co_ch0.pftg": "8f317a9867b3ebbf763744c84ca5925f1877da5c8b4bb3ce53bcd61fe3025f45",
        "tags_co_ch1.pftg": "a510a0eed69cb1c3012b8557afda42f3c84c976e299e38b4d1fe45911749bf3f",
    },
    "hom_930_cross": {
        "correlation_cross.csv": "d72104cfaaa8794985ac9170a295fb97b884652e321ff94e94275134d95b5f7f",
        "correlation_cross.svg": "b5899799bf2af3d62c5a1d3f43a54e86fb6006de331e7b844273e2c7a5759b74",
        "report.txt": "00b16e99ba823b439693e2df775c70aefc7336d537454baef82fbce8fb3d6f2b",
        "tags_cross_ch0.pftg": "02a7d222b9f00a3b9150676ff4e900a8c30b6c81854d8895432d27445a347401",
        "tags_cross_ch1.pftg": "aa86ddf2e0dfb4520686ebd4e4807e9c12c23734df2a31923355680a26736f9b",
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
