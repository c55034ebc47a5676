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
        "78fc0b3db9c6907190ff32b3f54d36165149e3f4a4e1b4e0f068e412e067b5d7",
    ],
    "hbt": [
        "8cd8e47309a84c8385c45f44c126bbd5128c0647e106c24b6bf21207a0cb39d2",
        "590b1c7954999846a0d08e123d8d9b48ec518cd9bd82d69535be1f820d0e5e7a",
    ],
    # (setting, detector): co det1, co det2, cross det1, cross det2
    "hom": [
        "767b34dcf9c8695d192c03d6ce07bafe4af49dde78cda5afb78b422b0a0f5790",
        "c55ed9d50314be00c1961f74885f25f74ba2818926b121a5377a1a7a0b3e08f4",
        "92430a213c3e99c3445c22b8707c12e570cfbbeee1e03d81efbca5abf3ca7e60",
        "956bbeaf34da4a6faee363979e53c43008f5bfe4a6d5edca8a058e8f913079fa",
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
    ifo = HomInterferometer(
        bs_in=BeamSplitter(0.48, 0.48),
        bs_out=BeamSplitter(0.47, 0.5),
        arm_delay_ps=round(PERIOD),
        classical_visibility=0.95,
    )
    result = run_hom(pipe, ifo, (PolarizationConfig.CO, PolarizationConfig.CROSS), DET1, DET2, workers=workers)
    assert result.stats.routed_lost > 0 and result.stats.noise_injected > 0
    assert digests(result) == GOLDEN["hom"]

PROFILES = Path(__file__).resolve().parent.parent / "profiles"

# shipped profile -> artifact -> sha256, each run at n_pulses = 100000 through `photonflow run`
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
        "decay_hist.csv": "0a7b7e2db45c68c2449d7d7b6139c7a911998bf7316129fdc318e6ab852af471",
        "irf_hist.csv": "4560dd5b337fa4915afdf3c4346d70fc81608ede2a1662aec672e24b9d58321e",
        "irf_tags_ch0.pftg": "a6bde632d693364ff0f778f73caef5298e9dac598393062705b8120dd373cabd",
        "lifetime_fit.svg": "c4e0f7eafa576c97f97502ed067b1aa602765d3beaef3a260c8adf405137b0cb",
        "report.txt": "3e6447f4f8382f17b6999c234008a95f0fc6ba4b692be7c4aaf6cc7737564844",
        "tags_ch0.pftg": "866b76e0215bdd0e7784ec258a0f83591a7081deee6de250ddeef68d1c526953",
    },
    "lifetime_930": {
        "decay_hist.csv": "5c65bed559ab765a7695182663048eb5d72d0e47ce4d279032b62967558e6587",
        "irf_hist.csv": "35a1317b897303998359d353cb166f5185523f252a7d1dc82e95104d21ff2aa6",
        "irf_tags_ch0.pftg": "3cca20708383735e8b40a0370446a1fb3f6b22f02fa8614ee5708399a465cc55",
        "lifetime_fit.svg": "8684f4bb11e871e6fe18790d80fb142b7fb8c5f2ddf887aea13efe7a17cff4a0",
        "report.txt": "303d1b1abfd93345b1fd3308447958f15233d2a46701eeb40a7f8c979cde32f1",
        "tags_ch0.pftg": "5e902c15fe51fec838bc47e05823389c06339825d09d7e0e8f4de297ecd2c01e",
    },
    "rate_1550": {
        "report.txt": "c6889c66195d469d28b30bb97f0b812e0f1063960f1e29e08ab92a10e70510b5",
        "tags_ch0.pftg": "b128a75ee7dc3b64e51c8eefc61a301c579249633092397ea8dfa3f7bdf37ccd",
    },
    "saturation": {
        "report.txt": "5634b9cbdf923525ba89be066c7b261bb6ea2d612076c447bcba69ef67431e70",
        "saturation.csv": "8a1d9cce4da2d2257e5b21c6ad1dd1341553fade7e6a88e6d7a2621da05bc48e",
        "saturation.svg": "07ad36bbd36d49ea1bd8ebd6e8804eab0c181e81419b7a169b9c97b58e31c6e4",
    },
}



def cli_config_text(name):
    """The profile's text with n_pulses cut to 100000."""
    text = (PROFILES / f"{name}.cfg").read_text()
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
