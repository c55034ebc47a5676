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
        "correlation.csv": "5fade8f282a3d109e2110b6111c0dd81c767682dab56611e4a09c0d263c0b159",
        "correlation.svg": "33330ecd4073f9df101cae6b4a3bf4da22fa9b4ab023e7e1188f1da53964ae5f",
        "report.txt": "52cc8014832e7ab6db74045aa0ae53e551948ba523d4a49d3bddc69400e39852",
        "tags_ch0.pftg": "c61058701ab2cb74b9c9f2c2014595b370da653de1360f9523f8429bdb76e9ae",
        "tags_ch1.pftg": "ba6c6685a0f3e2dc703189a0ff53a10c12c6757cc44808cb1f886b0fbdb3b80a",
    },
    "hbt_930": {
        "correlation.csv": "21b5442400dab709752acc8318d161b73ed6a52f995d079d5df9b25fb54b86a4",
        "correlation.svg": "0d877b8ccf22692f737a3f2f9734c061ad9198e2c791acaa7704f133affe8e88",
        "report.txt": "20549a36f107722b194419da6a49e2c9c2559ee68e02d71dc6c456816bbf985c",
        "tags_ch0.pftg": "473f9475f2ed4d3a7ac4febdae08422f57424483938aaaed0468c6f6be5af466",
        "tags_ch1.pftg": "6eecb18b084bc6c7f77412302968a12e4b3483c8bfb4e621dc93316b62de895e",
    },
    "hom_1550": {
        "correlation_co.csv": "38210eed85538649af4863b372cd068b7da95146590e2c69b079b533f230225b",
        "correlation_cross.csv": "8f32d97e52efc8ada756bed648c8c1db52b222cbec14a0e52cb750642cb49d94",
        "hom_central.svg": "e278548cc19d00b2ecaa389066e29b92febef72e0ba6fcb9a7de95b4b54f0cf6",
        "report.txt": "865f818cc083472875dbdb5de6104f42b4c3ca2765dc1954c95ee12c7b8bfdc3",
        "tags_co_ch0.pftg": "65e998876b433f123ac64e2980c36f921e3220f5eb31d2840ac9465fcef200f6",
        "tags_co_ch1.pftg": "537d6349e474edb987ebcba286b2619fa280428481185e049eb71fc870eca079",
        "tags_cross_ch0.pftg": "ac4a6bb46d222728844fbd6fb5e9297b2e1b1a238553817230c14d29a1d9b36b",
        "tags_cross_ch1.pftg": "b3b040ffc5958acacdcd9731016156f568c06d50b914dfca23965f6581d0fcd4",
    },
    "hom_930": {
        "correlation_co.csv": "5e3e353dc22152694f2dd5426b978f7fde5e9c00e5ddf0fea1699698480bca87",
        "correlation_cross.csv": "ed325e8ed846345fee36cc430070f34d17975c372465b75df9abddcec60447cb",
        "hom_central.svg": "d8d1e2664e6f45e8a3cad17c6ec1757c3ec3738fee6a866314e95337cb6acad9",
        "report.txt": "b517151d71adcfd90739ca9403b92c15a68f165c4d12840be525fe98a83f3800",
        "tags_co_ch0.pftg": "5d45e622ac7f0e5bc33aebe088f6f3d6caed6dbaecae07a943a04061abac9e8c",
        "tags_co_ch1.pftg": "13da6c0fabcef9fd274f55c32e42853964d355fac8ec2c55dd30c1495a3d2f76",
        "tags_cross_ch0.pftg": "fbb9cfce1e6998c375cb6cbf888dfda144fb35af3c49b0d9daf59f1b75920759",
        "tags_cross_ch1.pftg": "ded9aabc406ca2a91fa5ea9bc8f6cb427eed212375a3198869637e3a2364922e",
    },
    "lifetime_1550": {
        "decay_hist.csv": "f7e59fe2711613f13b6d15bfc27f306041b039cd83908b9ab04d34856fa1ccb1",
        "irf_hist.csv": "d7b826dd67203aa7dcbb27cb75da6f7e024e5403bb6b824d95dfa15e5e5f6e87",
        "irf_tags_ch0.pftg": "336aff8d16ec45e3e6e5341bee911e5191679cb8a2db554172ba19d737ac0767",
        "lifetime_fit.svg": "e0898ad678c9cc099e9e2184d2415d913b20ac174f77d64c2a80b6ecccffdbad",
        "report.txt": "20d4430b0c628f472a982d59eae40c30f59ff16b8e0f5e719b12008f33ffdf5f",
        "tags_ch0.pftg": "72654c076dc55b8149e2a6039508226343a39829df8691efc54104a8ed01b25c",
    },
    "lifetime_930": {
        "decay_hist.csv": "fec25bd373638bdd62743f635c6ca727ece9170e7257e10b5aaf7572a329012f",
        "irf_hist.csv": "603d83225fcbe2c9b270d904d0ccf167ae48a9cbb7310c088416a09750277b3e",
        "irf_tags_ch0.pftg": "c885704c63ea47eec45e9ca285ac144a98f77c3ffc21409642fba27edf80f650",
        "lifetime_fit.svg": "de8ea92ea7be8d5a16d7d3d29514d75558ea686b2d9a366ea254bafe46081365",
        "report.txt": "9d12c8a6da4febd86cba86874a8ea0123a1851717bcec326b3d28a6478e59cbd",
        "tags_ch0.pftg": "66fb7e3191f7047d8febc7a54355bf9b5790de33376cc4911aa379d0359c626a",
    },
    "rate_1550": {
        "report.txt": "336117c9ade2261d83455926369673bff581a5e8203ab4f3b00814f3a578eb7a",
        "tags_ch0.pftg": "6849bcb03c9c22c474b52e4bad0cdeb7365229217ba668d8ada831f447869326",
    },
    "saturation": {
        "report.txt": "0f1211f95945964285250913a348a02dc31941b91d250b29b84f0b583b5ea63f",
        "saturation.csv": "f7e9a68d1c75b57135fa3499d89cb0b615c256b3c42bf4c792022bc11ea4abb6",
        "saturation.svg": "ba15c7d5edf4bff82bebae26fb34d3b3165be95ce2a06c7f4c3c9ac29a6cc24b",
    },
    "hom_930_co": {
        "correlation_co.csv": "5e3e353dc22152694f2dd5426b978f7fde5e9c00e5ddf0fea1699698480bca87",
        "correlation_co.svg": "c7f3751a77d29c8c1094e17e0c90710b9c84a605aa9c077c5a4891fb7dcfde77",
        "report.txt": "4a291e8d4986beef09323c3cca2bf661d93974b38e4158d4d29e8709564e8085",
        "tags_co_ch0.pftg": "5d45e622ac7f0e5bc33aebe088f6f3d6caed6dbaecae07a943a04061abac9e8c",
        "tags_co_ch1.pftg": "13da6c0fabcef9fd274f55c32e42853964d355fac8ec2c55dd30c1495a3d2f76",
    },
    "hom_930_cross": {
        "correlation_cross.csv": "ed325e8ed846345fee36cc430070f34d17975c372465b75df9abddcec60447cb",
        "correlation_cross.svg": "8aa21f0caf698ec9a5f3399d63360db3e2e62dcb19be729c1dd38a39d4259734",
        "report.txt": "e99ea903990a35fbba4a9034abacaf482a7da1b36775a9878dcab714bd0f3c63",
        "tags_cross_ch0.pftg": "fbb9cfce1e6998c375cb6cbf888dfda144fb35af3c49b0d9daf59f1b75920759",
        "tags_cross_ch1.pftg": "ded9aabc406ca2a91fa5ea9bc8f6cb427eed212375a3198869637e3a2364922e",
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
