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
        "3dcef8c89eb82100f7d2b38700199810743ba1c5d28828e8ce14308689c3e653",
    ],
    "hbt": [
        "2682ece881d0c39d8a6fc4da01b414492c75c88147499920c8fbb834d141b6cd",
        "d38633c7096ffc4d6e9953f69358b85fcc23d15e96df46bdeb7437ebd24c2a8c",
    ],
    # (setting, detector): co det1, co det2, cross det1, cross det2
    "hom": [
        "e97a33864dc547e6f5160dbd98d68183e44e95be31ac77c1a0c73add0f68dfb7",
        "5f266fa49669d9d03ad1c4f31ac854aee5482e88460f5f24cba105826364c880",
        "6f207893b59c72647b2d4bf63a8c763352d75870b7e59e58d5ec4d4849c7a888",
        "c18104512aac4e2214f14ff6c7549fb429e42a11979414d90d2d578579f610fa",
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
        "correlation.csv": "b0ec6c26b01481dd3aff6fc82e00d3a1d00b9a6b8a90499197ff25f3daca4c5e",
        "correlation.svg": "29345b276a96cd987362a911a680ee42d711320b7a776b112eaf68b3281c1282",
        "report.txt": "955c7b67cddc14ffc58461c8a8715905348a57adefd0f67e1953a50c5f0f0190",
        "tags_ch0.pftg": "45a783a8eb1d10e7a5ec1480325c9a48278f0518c2780d50b8ee5cdecfa339e5",
        "tags_ch1.pftg": "6ad9d42aef75969d08a49d8f3b0a6a933b30a7005b669ba41e94452c7cf00967",
    },
    "hbt_930": {
        "correlation.csv": "a22377c1c1f6486ec09184130c2f0de06bb8bb57cca64fadd63c790f13626a62",
        "correlation.svg": "3f89ee7b5c4e0b3705e2e630af8f5f74e3987c459aa265e0957652598629aa94",
        "report.txt": "b94d6403e48827dc635cd674f20da93fb314bd2e0d6661568b54ac3d030607e8",
        "tags_ch0.pftg": "d829e66e6c595a78c1498552fd3cff41b4c91131e6f7d72566851096d6893f9c",
        "tags_ch1.pftg": "2f13e90edcdd8036dec957aa115bb60b1c2c5dfa0fd7960d7f1be5d546b49ac3",
    },
    "hom_1550": {
        "correlation_co.csv": "d5198d9e868bf192ad56531d101a4590632fab0c58a53ff47a8d5059eb383669",
        "correlation_cross.csv": "7ea74b30259b3adc8d893b8b8d05c99a31ab08701a009ab8e4016619136bf62d",
        "hom_central.svg": "430774742fee386989e1544dc7d4ab7315cbe34b1f9e43c2da4d206cef6c4386",
        "report.txt": "6e01a1e7a5c92efa79cead19d8f3d3950ca426bb9d7bc7e7ed297f3a1dbcae8c",
        "tags_co_ch0.pftg": "6a3be01bba56f4d222dc4f1fe45289b883f12d596ccdd8b43dd8aa7ad109b21f",
        "tags_co_ch1.pftg": "c225e89d7486a399f372f75694cad7d3e9cd8b687d6be9eb95446060eaf0f392",
        "tags_cross_ch0.pftg": "579a469dd0f4c3d264dd4f0c3ddc42bba7fc502d537cb010c54eaa8a859cac58",
        "tags_cross_ch1.pftg": "bfe4b79dc9ee8bc22bdf8dfc0e167d5b11f6fa360512c0bfd3db5c3c7dcc1dff",
    },
    "hom_930": {
        "correlation_co.csv": "af68b76a988e8cd096eaf7dbc2e76628d21248c51801c16c7d22b04b06875762",
        "correlation_cross.csv": "8e3ce29062721cdc8ddc7b74fed5ec4b049c50c80fe2cd09859f810f39aee642",
        "hom_central.svg": "9d50df96d91d08c828f8d9ab95fc02f2ec935198a23ec4eb29f606373666f6af",
        "report.txt": "036da0da6bd7d666c5b3dc3a4a056b86716383d9d481f01e64596d29ff5111e7",
        "tags_co_ch0.pftg": "8dd950cbc079e0d397112b57c3baffabacee80c51dcdf3471bd17ec2759372d4",
        "tags_co_ch1.pftg": "455fbfcf5efb9e8ada3537e1b3520f1a2220bde033a6d6b80f2c31138e115054",
        "tags_cross_ch0.pftg": "ae82c9f67f518d9a52ba5a1f9cade477209d0f29da97565ce2ab52be57efa322",
        "tags_cross_ch1.pftg": "686c6c0fdda9376ba665b6c2bb32f3262538ead9100db28cc96bdf4e4e260e9b",
    },
    "lifetime_1550": {
        "decay_hist.csv": "b9eb9cd995d1e7372915b6357e8b42529f6ce19bd38fb9f8f24f1e9feca4a964",
        "irf_hist.csv": "0fe52cbd93bd5f3118b2f12db52aed40fa794c3fb12b033411aaf23fbdbd6ed7",
        "irf_tags_ch0.pftg": "26c0fdcb91e573ebdc0187fc09d4dacdc69b13127d3b168d43cdf05ae4d27808",
        "lifetime_fit.svg": "64394a1c05260abcbedd13f59dca2dfe84ae346ec5dc344f10bff25576772088",
        "report.txt": "d5a0dfcbe7e63790f2ae3b327e6118e56521262b2945c5e931021a3bf10dcda8",
        "tags_ch0.pftg": "463b8c42a669ced97d14a47de75aa955177a34da92acfd049cf6c99aad556db3",
    },
    "lifetime_930": {
        "decay_hist.csv": "dfee7399de825da713a027e258ed5a15d33dfb53f3013933589d3fdfe2279c27",
        "irf_hist.csv": "2b3c37560e4b22377dd3f490bbc253f5e4d649eda141c73e2f578be2ec0da1a8",
        "irf_tags_ch0.pftg": "6029d109e7fff63d5e2fa244c94ac7fa926b7507fc9bac1b9fed61e864013ab2",
        "lifetime_fit.svg": "71bef4406f890cfeb5b18cd06899f71e3bf973324b450e838a06a4eacc408ced",
        "report.txt": "e4d8efb94a1ad51604cc33177eacc1c3dfc576d088d8982ede8afa4b44af32d9",
        "tags_ch0.pftg": "f8d88edbfaaae52fa27a7468c1ea1e8907a18ea3ac253face12fb8b6d8f0fe00",
    },
    "rate_1550": {
        "report.txt": "05dab1986befd759d8d1a27ebe7df654b068fc967de5a4171e5692d24e76f527",
        "tags_ch0.pftg": "49ffb202bdb9181a2f989b317df96385fdde19baecb298d3e0b6ec2f4e8502db",
    },
    "saturation": {
        "report.txt": "0f1211f95945964285250913a348a02dc31941b91d250b29b84f0b583b5ea63f",
        "saturation.csv": "f7e9a68d1c75b57135fa3499d89cb0b615c256b3c42bf4c792022bc11ea4abb6",
        "saturation.svg": "ba15c7d5edf4bff82bebae26fb34d3b3165be95ce2a06c7f4c3c9ac29a6cc24b",
    },
    "hom_930_co": {
        "correlation_co.csv": "af68b76a988e8cd096eaf7dbc2e76628d21248c51801c16c7d22b04b06875762",
        "correlation_co.svg": "0f165d35ed441a5d42ca869b93d86dc9f0365dcf6f91efc328f6b51075e68e67",
        "report.txt": "67ac595288522d2a63470e7b7cec7b63fb68f609ad18d3b3e66e6a5414225f01",
        "tags_co_ch0.pftg": "8dd950cbc079e0d397112b57c3baffabacee80c51dcdf3471bd17ec2759372d4",
        "tags_co_ch1.pftg": "455fbfcf5efb9e8ada3537e1b3520f1a2220bde033a6d6b80f2c31138e115054",
    },
    "hom_930_cross": {
        "correlation_cross.csv": "8e3ce29062721cdc8ddc7b74fed5ec4b049c50c80fe2cd09859f810f39aee642",
        "correlation_cross.svg": "3fa4d47cb11aeb38456cbbee27ee46c38c938fabb2a78078de22c5cfbb4e95ab",
        "report.txt": "f4c998a4a332405fb666021d015d8fa3aea4e27ee2f64c87015a1989ae21564c",
        "tags_cross_ch0.pftg": "ae82c9f67f518d9a52ba5a1f9cade477209d0f29da97565ce2ab52be57efa322",
        "tags_cross_ch1.pftg": "686c6c0fdda9376ba665b6c2bb32f3262538ead9100db28cc96bdf4e4e260e9b",
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
