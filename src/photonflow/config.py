"""Run configuration: sectioned key-value files with units in the key names.

``_SCHEMA`` is the one list of sections and keys.  The whole file is validated
against it before any simulation starts; unknown sections or keys are errors,
and every physical quantity carries its unit in the key name so a config cannot
be silently misread.  ``load_config`` resolves the file into one table,
section -> key -> value, holding every key of every section the run uses
(given or defaulted), the computed defaults and the seed/worker overrides.
The config objects, the interferometer among them, are built from that table
by field name, and ``photonflow run --dry-run`` prints it.  The optics and the
analysis windows are validated here too, before a run writes any output.

``_EXPERIMENTS`` gives each experiment the sections its file must give and the
``[analysis]`` delays it reads peaks at.  The correlation histogram's window is
worked out from those delays, so it reaches every one of them; each of them
must lie more than half a period from 0, and peak windows must be narrower
than half a period.  Every float must be finite.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .conversion import BoundsMeasurement, ConversionConfig, LossBudget
from .core import ConfigError, PulseTrainConfig, RunSeed, Wavelength
from .optics import BeamSplitter, DetectorConfig, HomInterferometer
from .pipeline import PATH_DELAY_PS, Pipeline
from .source import EmitterConfig

_REQUIRED = object()

_DETECTOR = {
    "efficiency": (float, 0.8),
    "irf_sigma_ps": (float, 180.0),
    "dead_time_ps": (int, 25_000),
    "dark_rate_cps": (float, 100.0),
}

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
    "detector1": _DETECTOR,
    "detector2": _DETECTOR,
    "analysis": {
        "bin_width_ps": (int, 100),
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
        "meas_p_in_before_lens_mw": (float, None),
        "meas_p_out_after_lens_mw": (float, None),
        "meas_lens_loss": (float, None),
        "meas_coupling": (float, None),
        "meas_depletion_on_mw": (float, None),
        "meas_depletion_off_mw": (float, None),
    },
}


class _Experiment(NamedTuple):
    sections: tuple[str, ...]  # the sections its file must give besides [run]
    delays: tuple[str, ...] = ()  # the [analysis] delays it reads a correlation peak at besides 0


_EXPERIMENTS = {
    "lifetime": _Experiment(("emitter", "detector1")),
    "hbt": _Experiment(("emitter", "detector1", "detector2"), ("g2_reference_delay_ps",)),
    "hom_paired": _Experiment(("emitter", "detector1", "detector2"), ("norm_delay_ps",)),
    "rate": _Experiment(("emitter", "conversion", "detector1")),
    "saturation_scan": _Experiment(("conversion", "saturation_scan")),
}
EXPERIMENTS = tuple(_EXPERIMENTS)

# sections resolved from their defaults when the file leaves them out
_DEFAULTED = ("pulse_train", "optics", "analysis")


@dataclass
class AnalysisParams:
    bin_width_ps: int
    peak_half_window_ps: int
    norm_delay_ps: int
    g2_reference_delay_ps: int
    lifetime_bin_width_ps: int
    window_ps: int  # worked out at load: the correlation histogram spans [-window_ps, window_ps)


@dataclass
class RunConfig:
    experiment: str
    seed: RunSeed
    workers: int
    output_dir: str
    train: PulseTrainConfig
    emitter: EmitterConfig | None
    conversion: ConversionConfig | None
    bs: BeamSplitter
    ifo: HomInterferometer
    det1: DetectorConfig
    det2: DetectorConfig
    analysis: AnalysisParams
    resolved: dict  # section -> key -> value, the table every field above was built from
    source_text: str

    @property
    def n_pulses(self) -> int:
        """The pulse count, which ``train`` holds; ``perfbench`` reads it here."""
        return self.train.n_pulses

    def config_sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def pipeline(self) -> Pipeline:
        if self.emitter is None:
            raise ConfigError("this experiment has no emitter section")
        return Pipeline(
            emitter=self.emitter, train=self.train, seed=self.seed, conversion=self.conversion
        )

    def bounds_measurement(self) -> BoundsMeasurement | None:
        measured = _take(dict(self.resolved.get("saturation_scan", {})), "meas_")
        if not measured or None in measured.values():
            return None
        return BoundsMeasurement(
            lambda_in=self.emitter.wavelength if self.emitter else Wavelength(940.0),
            lambda_out=self.pipeline().output_wavelength() if self.emitter else Wavelength(1550.0),
            **measured,
        )

    def resolved_items(self) -> dict:
        """Flat ``section.key`` view of the fully resolved configuration."""
        return {
            f"{name}.{key}": value
            for name, section in self.resolved.items()
            for key, value in section.items()
        }


def _take(values: dict, prefix: str) -> dict:
    """Remove the keys that start with ``prefix`` from ``values``; return them without it."""
    keys = [key for key in values if key.startswith(prefix)]
    return {key.removeprefix(prefix): values.pop(key) for key in keys}


def _coerce(section: str, key: str, raw: str, conv, path: str):
    try:
        if conv is int:
            try:
                return int(raw)  # exact at any size; float would round above 2**53
            except ValueError:
                value = float(raw)  # an integral literal such as 1e7
                if not value.is_integer():
                    raise
                return int(value)
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not a valid {conv.__name__}") from exc
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r} is not a finite number")
    return value


def _resolve(path: Path, text: str) -> dict[str, dict]:
    """Section -> key -> coerced or default value, for every section the run uses."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    given: dict[str, dict] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{name}]")
        given[name] = {}
        for key, raw in parser.items(name):
            if key not in _SCHEMA[name]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{name}]")
            given[name][key] = _coerce(name, key, raw, _SCHEMA[name][key][0], str(path))

    def section(name: str) -> dict:
        if name not in given and name not in _DEFAULTED:
            raise ConfigError(f"{path}: missing required section [{name}]")
        content = given.get(name, {})
        values = {key: content.get(key, default) for key, (_, default) in _SCHEMA[name].items()}
        for key, value in values.items():
            if value is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r} in section [{name}]")
        return values

    table = {"run": section("run")}
    experiment = table["run"]["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    used = {*given, *_DEFAULTED, *_EXPERIMENTS[experiment].sections}
    table.update((name, section(name)) for name in _SCHEMA if name in used and name != "run")
    return table


def load_config(path: str | Path, seed_override: int | None = None, workers_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    table = _resolve(path, text)
    run, optics, analysis = table["run"], table["optics"], table["analysis"]
    if seed_override is not None:
        run["seed"] = seed_override
    if workers_override is not None:
        run["workers"] = workers_override
    if run["workers"] < 1:
        raise ConfigError(f"{path}: workers must be >= 1")
    for key in ("bin_width_ps", "lifetime_bin_width_ps"):
        if analysis[key] < 1:
            raise ConfigError(f"{path}: [analysis] {key} must be >= 1")
    if "saturation_scan" in table and table["saturation_scan"]["n_points"] < 4:
        raise ConfigError(f"{path}: [saturation_scan] n_points must be >= 4")
    train = PulseTrainConfig(n_pulses=run["n_pulses"], **table["pulse_train"])

    emitter = conversion = None
    if "emitter" in table:
        values = dict(table["emitter"])
        emitter = EmitterConfig(wavelength=Wavelength(values.pop("wavelength_nm")), **values)
    if "conversion" in table:
        values = dict(table["conversion"])
        center = values.pop("filter_center_nm")
        conversion = ConversionConfig(
            pump_wavelength=Wavelength(values.pop("pump_wavelength_nm")),
            filter_center=Wavelength(center) if center else None,
            loss_budget=LossBudget(**_take(values, "loss_")),
            **values,
        )

    det1 = DetectorConfig(**table.get("detector1", {}))
    det2 = DetectorConfig(**table["detector2"]) if "detector2" in table else det1
    for name, det in (("detector1", det1), ("detector2", det2)):
        # tags are shifted by the path delay; ten sigma of jitter must not reach below zero
        if 10 * det.irf_sigma_ps > PATH_DELAY_PS:
            raise ConfigError(
                f"{path}: [{name}] irf_sigma_ps = {det.irf_sigma_ps} exceeds a tenth of the "
                f"{PATH_DELAY_PS} ps path delay, so jitter could push a tag below zero"
            )

    # computed defaults go into the table, so the dry run shows the values the run uses
    period = int(round(train.period_ps))
    if optics["arm_delay_ps"] is None:
        optics["arm_delay_ps"] = period
    if analysis["g2_reference_delay_ps"] is None:
        blinking = emitter.blinking_enabled if emitter else False
        analysis["g2_reference_delay_ps"] = 40_000_000 if blinking else period
    # peaks are integrated after the run, so their windows are checked here
    delays = _EXPERIMENTS[run["experiment"]].delays
    if delays and not 0 <= 2 * analysis["peak_half_window_ps"] < train.period_ps:
        raise ConfigError(f"{path}: peak_half_window_ps must lie in [0, period / 2)")
    for key in delays:
        if not abs(analysis[key]) > train.period_ps / 2:
            raise ConfigError(f"{path}: [analysis] {key} must lie more than half a period from 0")
    # the window: two periods beyond the farthest peak read (at least four periods out), in whole bins
    horizon = max([4 * period] + [abs(analysis[key]) for key in delays])
    bin_width = analysis["bin_width_ps"]
    window = bin_width * -(-(horizon + 2 * period) // bin_width)

    optics = dict(optics)
    bs, bs_in, bs_out = (
        BeamSplitter(optics.pop(f"{name}_r"), optics.pop(f"{name}_t")) for name in ("bs", "bs1", "bs2")
    )
    return RunConfig(
        experiment=run["experiment"],
        seed=RunSeed(run["seed"]),
        workers=run["workers"],
        output_dir=run["output_dir"],
        train=train,
        emitter=emitter,
        conversion=conversion,
        bs=bs,
        ifo=HomInterferometer(bs_in, bs_out, **optics),
        det1=det1,
        det2=det2,
        analysis=AnalysisParams(**analysis, window_ps=window),
        resolved=table,
        source_text=text,
    )
