"""Run configuration: sectioned key-value files with units in the key names.

The whole file is schema-validated before any simulation starts; unknown
sections or keys are errors, and every physical quantity carries its unit in
the key name so a config cannot be silently misread.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .conversion import BoundsMeasurement, ConversionConfig, LossBudget
from .core import ConfigError, PulseTrainConfig, RunSeed, Wavelength
from .optics import BeamSplitter, DetectorConfig, HomInterferometer, PolarizationConfig
from .pipeline import PATH_DELAY_PS, Pipeline
from .source import EmitterConfig

EXPERIMENTS = ("lifetime", "hbt", "hom_co", "hom_cross", "hom_paired", "rate", "saturation_scan")

_REQUIRED = object()

# section -> key -> (converter, default); _REQUIRED means the key must be present
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "experiment": (str, _REQUIRED),
        "n_pulses": (int, _REQUIRED),
        "seed": (int, _REQUIRED),
        "output_dir": (str, _REQUIRED),
        "workers": (int, 1),
    },
    "pulse_train": {
        "rep_rate_mhz": (float, 73.0),
        "pulse_width_ps": (float, 20.0),
    },
    "emitter": {
        "wavelength_nm": (float, _REQUIRED),
        "lifetime_tau_ps": (float, _REQUIRED),
        "p_emit": (float, _REQUIRED),
        "p_multi": (float, 0.0),
        "dephasing_linewidth_ghz": (float, 0.0),
        "spectral_diffusion_sigma_ghz": (float, 0.0),
        "diffusion_block_pulses": (int, 1000),
        "multi_detuning_offset_ghz": (float, 20.0),
        "blink_on_rate_per_us": (float, 0.0),
        "blink_off_rate_per_us": (float, 0.0),
    },
    "conversion": {
        "pump_wavelength_nm": (float, 2400.0),
        "pump_power_mw": (float, _REQUIRED),
        "eta_max": (float, _REQUIRED),
        "p_sat_mw": (float, _REQUIRED),
        "filter_fwhm_ghz": (float, 115.0),
        "filter_center_nm": (float, None),
        "loss_lens_in": (float, 0.065),
        "loss_lens_out": (float, 0.065),
        "loss_coupling": (float, 0.04),
        "loss_filter_chain": (float, 0.30),
        "loss_fiber_out": (float, 0.25),
        "noise_rate_cps": (float, 0.0),
    },
    "optics": {
        "bs_r": (float, 0.5),
        "bs_t": (float, 0.5),
        "bs1_r": (float, 0.5),
        "bs1_t": (float, 0.5),
        "bs2_r": (float, 0.5),
        "bs2_t": (float, 0.5),
        "arm_delay_ps": (int, None),  # default: one repetition period
        "classical_visibility": (float, 1.0),
    },
    "detector1": {
        "efficiency": (float, 0.8),
        "irf_sigma_ps": (float, 180.0),
        "dead_time_ps": (int, 25_000),
        "dark_rate_cps": (float, 100.0),
    },
    "detector2": {
        "efficiency": (float, 0.8),
        "irf_sigma_ps": (float, 180.0),
        "dead_time_ps": (int, 25_000),
        "dark_rate_cps": (float, 100.0),
    },
    "analysis": {
        "bin_width_ps": (int, 100),
        "max_delay_ps": (int, None),
        "peak_half_window_ps": (int, 2000),
        "norm_delay_ps": (int, 500_000),
        "g2_reference_delay_ps": (int, None),
        "lifetime_bin_width_ps": (int, 8),
    },
    "saturation_scan": {
        "n_points": (int, 15),
        "p_min_mw": (float, 20.0),
        "p_max_mw": (float, 500.0),
        "noise_fraction": (float, 0.01),
        "ideal_band_fraction": (float, 0.05),
        "meas_p_in_before_lens_mw": (float, None),
        "meas_p_out_after_lens_mw": (float, None),
        "meas_lens_loss": (float, None),
        "meas_coupling": (float, None),
        "meas_depletion_on_mw": (float, None),
        "meas_depletion_off_mw": (float, None),
    },
}

_BOUNDS_KEYS = (
    "meas_p_in_before_lens_mw",
    "meas_p_out_after_lens_mw",
    "meas_lens_loss",
    "meas_coupling",
    "meas_depletion_on_mw",
    "meas_depletion_off_mw",
)


@dataclass
class AnalysisParams:
    bin_width_ps: int
    max_delay_ps: int
    peak_half_window_ps: int
    norm_delay_ps: int
    g2_reference_delay_ps: int
    lifetime_bin_width_ps: int


@dataclass
class RunConfig:
    experiment: str
    n_pulses: int
    seed: RunSeed
    workers: int
    output_dir: str
    train: PulseTrainConfig
    emitter: EmitterConfig | None
    conversion: ConversionConfig | None
    bs: BeamSplitter
    bs1: BeamSplitter
    bs2: BeamSplitter
    arm_delay_ps: int
    classical_visibility: float
    det1: DetectorConfig
    det2: DetectorConfig
    analysis: AnalysisParams
    scan: dict | None
    source_text: str

    def config_sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def pipeline(self) -> Pipeline:
        if self.emitter is None:
            raise ConfigError("this experiment has no emitter section")
        return Pipeline(
            emitter=self.emitter, train=self.train, seed=self.seed, conversion=self.conversion
        )

    def interferometer(self, polarization: PolarizationConfig) -> HomInterferometer:
        return HomInterferometer(
            bs_in=self.bs1,
            bs_out=self.bs2,
            arm_delay_ps=self.arm_delay_ps,
            classical_visibility=self.classical_visibility,
            polarization_config=polarization,
        )

    def bounds_measurement(self) -> BoundsMeasurement | None:
        if self.scan is None or any(self.scan[k] is None for k in _BOUNDS_KEYS):
            return None
        out_wl = self.pipeline().output_wavelength() if self.emitter else Wavelength(1550.0)
        return BoundsMeasurement(
            p_in_before_lens_mw=self.scan["meas_p_in_before_lens_mw"],
            p_out_after_lens_mw=self.scan["meas_p_out_after_lens_mw"],
            lens_loss=self.scan["meas_lens_loss"],
            coupling=self.scan["meas_coupling"],
            depletion_on_mw=self.scan["meas_depletion_on_mw"],
            depletion_off_mw=self.scan["meas_depletion_off_mw"],
            lambda_in=self.emitter.wavelength if self.emitter else Wavelength(940.0),
            lambda_out=out_wl,
        )

    def resolved_items(self) -> dict:
        """Flat key-value view of the fully resolved configuration."""
        items = {
            "run.experiment": self.experiment,
            "run.n_pulses": self.n_pulses,
            "run.seed": self.seed.master_seed,
            "run.workers": self.workers,
            "run.output_dir": self.output_dir,
            "pulse_train.rep_rate_mhz": self.train.rep_rate_mhz,
            "pulse_train.pulse_width_ps": self.train.pulse_width_ps,
        }
        if self.emitter is not None:
            e = self.emitter
            items.update(
                {
                    "emitter.wavelength_nm": e.wavelength.nm,
                    "emitter.lifetime_tau_ps": e.lifetime_tau_ps,
                    "emitter.p_emit": e.p_emit,
                    "emitter.p_multi": e.p_multi,
                    "emitter.dephasing_linewidth_ghz": e.dephasing_linewidth_ghz,
                    "emitter.spectral_diffusion_sigma_ghz": e.spectral_diffusion_sigma_ghz,
                    "emitter.blink_on_rate_per_us": e.blink_on_rate_per_us,
                    "emitter.blink_off_rate_per_us": e.blink_off_rate_per_us,
                }
            )
        if self.conversion is not None:
            c = self.conversion
            items.update(
                {
                    "conversion.pump_wavelength_nm": c.pump_wavelength.nm,
                    "conversion.pump_power_mw": c.pump_power_mw,
                    "conversion.eta_max": c.eta_max,
                    "conversion.p_sat_mw": c.p_sat_mw,
                    "conversion.filter_fwhm_ghz": c.filter_fwhm_ghz,
                    "conversion.noise_rate_cps": c.noise_rate_cps,
                }
            )
        items.update(
            {
                "optics.arm_delay_ps": self.arm_delay_ps,
                "optics.classical_visibility": self.classical_visibility,
                "analysis.bin_width_ps": self.analysis.bin_width_ps,
                "analysis.max_delay_ps": self.analysis.max_delay_ps,
                "analysis.peak_half_window_ps": self.analysis.peak_half_window_ps,
                "analysis.norm_delay_ps": self.analysis.norm_delay_ps,
                "analysis.g2_reference_delay_ps": self.analysis.g2_reference_delay_ps,
            }
        )
        return items


def _parse_sections(text: str, path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _coerce(section: str, key: str, raw: str, conv, path: str):
    try:
        if conv is int:
            return int(float(raw)) if float(raw) == int(float(raw)) else int(raw)
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not a valid {conv.__name__}") from exc


def load_config(path: str | Path, seed_override: int | None = None, workers_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    sections = _parse_sections(text, str(path))

    values: dict[str, dict] = {}
    for name, content in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{name}]")
        schema = _SCHEMA[name]
        out = {}
        for key, raw in content.items():
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{name}]")
            out[key] = _coerce(name, key, raw, schema[key][0], str(path))
        values[name] = out

    def section(name: str, required: bool) -> dict | None:
        if name not in values:
            if required:
                raise ConfigError(f"{path}: missing required section [{name}]")
            return None
        out = {}
        for key, (conv, default) in _SCHEMA[name].items():
            if key in values[name]:
                out[key] = values[name][key]
            elif default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r} in section [{name}]")
            else:
                out[key] = default
        return out

    run = section("run", required=True)
    experiment = run["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")

    train_raw = section("pulse_train", required=False) or {
        k: d for k, (c, d) in _SCHEMA["pulse_train"].items()
    }
    train = PulseTrainConfig(
        rep_rate_mhz=train_raw["rep_rate_mhz"],
        pulse_width_ps=train_raw["pulse_width_ps"],
        n_pulses=run["n_pulses"],
    )

    needs_emitter = experiment != "saturation_scan"
    emitter_raw = section("emitter", required=needs_emitter)
    emitter = None
    if emitter_raw is not None:
        emitter = EmitterConfig(
            wavelength=Wavelength(emitter_raw["wavelength_nm"]),
            lifetime_tau_ps=emitter_raw["lifetime_tau_ps"],
            p_emit=emitter_raw["p_emit"],
            p_multi=emitter_raw["p_multi"],
            dephasing_linewidth_ghz=emitter_raw["dephasing_linewidth_ghz"],
            spectral_diffusion_sigma_ghz=emitter_raw["spectral_diffusion_sigma_ghz"],
            blink_on_rate_per_us=emitter_raw["blink_on_rate_per_us"],
            blink_off_rate_per_us=emitter_raw["blink_off_rate_per_us"],
            diffusion_block_pulses=emitter_raw["diffusion_block_pulses"],
            multi_detuning_offset_ghz=emitter_raw["multi_detuning_offset_ghz"],
        )

    needs_conversion = experiment in ("rate", "saturation_scan")
    conv_raw = section("conversion", required=needs_conversion)
    conversion = None
    if conv_raw is not None:
        conversion = ConversionConfig(
            pump_wavelength=Wavelength(conv_raw["pump_wavelength_nm"]),
            pump_power_mw=conv_raw["pump_power_mw"],
            eta_max=conv_raw["eta_max"],
            p_sat_mw=conv_raw["p_sat_mw"],
            filter_fwhm_ghz=conv_raw["filter_fwhm_ghz"],
            filter_center=(
                Wavelength(conv_raw["filter_center_nm"]) if conv_raw["filter_center_nm"] else None
            ),
            loss_budget=LossBudget(
                lens_in=conv_raw["loss_lens_in"],
                lens_out=conv_raw["loss_lens_out"],
                coupling=conv_raw["loss_coupling"],
                filter_chain=conv_raw["loss_filter_chain"],
                fiber_out=conv_raw["loss_fiber_out"],
            ),
            noise_rate_cps=conv_raw["noise_rate_cps"],
        )

    optics = section("optics", required=False) or {k: d for k, (c, d) in _SCHEMA["optics"].items()}
    det1_raw = section("detector1", required=experiment not in ("saturation_scan",))
    det2_raw = section("detector2", required=experiment in ("hbt", "hom_co", "hom_cross", "hom_paired"))
    det1 = DetectorConfig(**det1_raw) if det1_raw else DetectorConfig()
    det2 = DetectorConfig(**det2_raw) if det2_raw else det1
    for name, det in (("detector1", det1), ("detector2", det2)):
        # tags are shifted by the path delay; ten sigma of jitter must not reach below zero
        if 10 * det.irf_sigma_ps > PATH_DELAY_PS:
            raise ConfigError(
                f"{path}: [{name}] irf_sigma_ps = {det.irf_sigma_ps} exceeds a tenth of the "
                f"{PATH_DELAY_PS} ps path delay, so jitter could push a tag below zero"
            )

    ana_raw = section("analysis", required=False) or {
        k: d for k, (c, d) in _SCHEMA["analysis"].items()
    }
    period = int(round(train.period_ps))
    blinking = emitter.blinking_enabled if emitter else False
    g2_ref = ana_raw["g2_reference_delay_ps"]
    if g2_ref is None:
        g2_ref = 40_000_000 if blinking else period
    max_delay = ana_raw["max_delay_ps"]
    if max_delay is None:
        horizon = max(
            g2_ref if experiment == "hbt" else 0,
            ana_raw["norm_delay_ps"] if experiment.startswith("hom") else 0,
            4 * period,
        )
        max_delay = ana_raw["bin_width_ps"] * -(-(horizon + 2 * period) // ana_raw["bin_width_ps"])
    analysis = AnalysisParams(
        bin_width_ps=ana_raw["bin_width_ps"],
        max_delay_ps=max_delay,
        peak_half_window_ps=ana_raw["peak_half_window_ps"],
        norm_delay_ps=ana_raw["norm_delay_ps"],
        g2_reference_delay_ps=g2_ref,
        lifetime_bin_width_ps=ana_raw["lifetime_bin_width_ps"],
    )
    if analysis.max_delay_ps % analysis.bin_width_ps != 0:
        raise ConfigError(f"{path}: max_delay_ps must be a multiple of bin_width_ps")

    scan = section("saturation_scan", required=experiment == "saturation_scan")

    arm_delay = optics["arm_delay_ps"] if optics["arm_delay_ps"] is not None else period

    seed_value = seed_override if seed_override is not None else run["seed"]
    workers = workers_override if workers_override is not None else run["workers"]
    if workers < 1:
        raise ConfigError(f"{path}: workers must be >= 1")

    return RunConfig(
        experiment=experiment,
        n_pulses=run["n_pulses"],
        seed=RunSeed(seed_value),
        workers=workers,
        output_dir=run["output_dir"],
        train=train,
        emitter=emitter,
        conversion=conversion,
        bs=BeamSplitter(optics["bs_r"], optics["bs_t"]),
        bs1=BeamSplitter(optics["bs1_r"], optics["bs1_t"]),
        bs2=BeamSplitter(optics["bs2_r"], optics["bs2_t"]),
        arm_delay_ps=arm_delay,
        classical_visibility=optics["classical_visibility"],
        det1=det1,
        det2=det2,
        analysis=analysis,
        scan=scan,
        source_text=text,
    )
