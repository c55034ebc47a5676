"""Command-line entry point: configuration-driven runs, comparison, verification.

A run writes every file through ``_Artifacts``, and each tag count in its
``report.txt`` is the length of the tag file written under that name.

Exit codes: 0 success, 1 runtime/analysis failure, 2 invalid configuration,
3 analysis completed but produced a flagged (out-of-range) result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .analysis import (
    AnalysisError,
    estimate_g2,
    estimate_visibility,
    fit_lifetime,
    integrate_peaks,
    lifetime_model_counts,
)
from .config import RunConfig, load_config
from .conversion import (
    FitError,
    MeasurementError,
    fit_saturation,
    internal_efficiency_bounds,
    saturation_curve,
    saturation_efficiency,
)
from .core import STAGE_SCAN, ConfigError, substream
from .correlate import cross_correlate
from .enumeration import expected_source_g2
from .optics import PolarizationConfig
from .pipeline import (
    RunResult,
    fold_decay,
    irf_pipeline,
    run_direct,
    run_hbt,
    run_hom,
)
from .svgplot import Series, write_svg_plot

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_FLAGGED = 3

# the saturation plot's ideal band spans this fraction below the loss budget's transmission
IDEAL_BAND_FRACTION = 0.05


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):  # 1 MiB reads: no file-sized bytes object
            digest.update(block)
    return digest.hexdigest()


class _Artifacts:
    """The one writer of a run's files: ``path`` names each file and lists it for the manifest.

    It holds the ``--format`` policy: ``write_csv`` leaves CSVs out unless
    ``csv`` is set, and runners test ``svg`` before they build a plot's series.
    """

    def __init__(self, outdir: Path, fmt: str):
        self.outdir = outdir
        self.csv = fmt in ("csv", "both")
        self.svg = fmt in ("svg", "both")
        self.files: list[str] = []
        outdir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.outdir / name

    def write_csv(self, name: str, write, *args, **kwargs) -> None:
        """``write(path, *args, **kwargs)`` to the CSV ``name``, unless the format leaves CSVs out."""
        if self.csv:
            write(self.path(name), *args, **kwargs)

    def streams(self, result: RunResult, prefix: str = "tags") -> dict[str, int]:
        """Write ``PREFIX_chN.pftg`` per stream; returns ``{"PREFIX_chN": tags written}``."""
        counts = {}
        for stream in result.streams:
            name = f"{prefix}_ch{stream.channel_id}"
            io.write_tagstream(self.path(f"{name}.pftg"), stream)
            counts[name] = len(stream)
        return counts

    def write_manifest(self, cfg: RunConfig) -> None:
        manifest = {
            "experiment": cfg.experiment,
            "seed": cfg.seed.master_seed,
            "config_sha256": cfg.config_sha256(),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "artifacts": {name: _sha256(self.outdir / name) for name in sorted(self.files)},
        }
        (self.outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _base_report(cfg: RunConfig, result: RunResult) -> dict:
    """The run's shared photon bookkeeping; tag counts come from ``_Artifacts.streams``."""
    st = result.stats
    return {
        "experiment": cfg.experiment,
        "seed": cfg.seed.master_seed,
        "n_pulses": cfg.train.n_pulses,
        "emitted_signal": st.emitted_signal,
        "emitted_multi": st.emitted_multi,
        "conversion_lost": st.conversion_lost,
        "noise_injected": st.noise_injected,
        "routed_lost": st.routed_lost,
    }


def _correlate(cfg: RunConfig, art: _Artifacts, result: RunResult, name: str):
    """Correlate a two-detector run's streams, write ``NAME.csv`` and integrate its peaks."""
    hist = cross_correlate(
        result.streams[0], result.streams[1], cfg.analysis.window_ps, cfg.analysis.bin_width_ps,
        workers=cfg.workers,
    )
    art.write_csv(f"{name}.csv", io.write_histogram_csv, hist)
    return hist, integrate_peaks(hist, cfg.train.period_ps, cfg.analysis.peak_half_window_ps)


def _run_lifetime(cfg: RunConfig, art: _Artifacts) -> tuple[dict, str]:
    pipe = cfg.pipeline()
    result = run_direct(pipe, cfg.det1, workers=cfg.workers)
    irf_result = run_direct(irf_pipeline(pipe), cfg.det1, workers=cfg.workers)
    report = {**_base_report(cfg, result), **art.streams(result), **art.streams(irf_result, "irf_tags")}

    bw = cfg.analysis.lifetime_bin_width_ps
    decay = fold_decay(result.streams[0], cfg.train.period_ps, bw)
    irf = fold_decay(irf_result.streams[0], cfg.train.period_ps, bw)
    art.write_csv("decay_hist.csv", io.write_histogram_csv, decay)
    art.write_csv("irf_hist.csv", io.write_histogram_csv, irf)
    fit = fit_lifetime(decay, irf)
    if art.svg:
        centers = decay.bin_centers()
        write_svg_plot(
            art.path("lifetime_fit.svg"),
            [
                Series(centers, decay.counts.tolist(), "decay", "points"),
                Series(centers, irf.counts.tolist(), "IRF", "line"),
                Series(centers, lifetime_model_counts(fit, irf).tolist(), "fit", "dashed"),
            ],
            title="Decay histogram with reconvolution fit",
            xlabel="time in period (ps)",
            ylabel="counts",
        )
    return {
        **report,
        "tau_ps": fit.tau_ps,
        "tau_ps_err": fit.tau_err_ps,
        "amplitude": fit.amplitude,
        "baseline": fit.baseline,
        "t0_ps": fit.t0_ps,
        "residual_rms": fit.residual_rms,
        "irf_sigma_used_ps": fit.irf_sigma_used_ps,
    }, ""


def _run_hbt(cfg: RunConfig, art: _Artifacts) -> tuple[dict, str]:
    result = run_hbt(cfg.pipeline(), cfg.bs, cfg.det1, cfg.det2, workers=cfg.workers)
    report = {**_base_report(cfg, result), **art.streams(result)}
    hist, peaks = _correlate(cfg, art, result, "correlation")
    g2 = estimate_g2(peaks, cfg.analysis.g2_reference_delay_ps, cfg.train.period_ps)
    if art.svg:
        write_svg_plot(
            art.path("correlation.svg"),
            [Series(hist.bin_centers().tolist(), hist.counts.tolist(), "coincidences", "line")],
            title="Coincidence histogram (splitter setup)",
            xlabel="delay (ps)",
            ylabel="counts",
        )
    return {
        **report,
        "g2": g2.value,
        "g2_err": g2.sigma,
        "central_area": g2.central_area,
        "reference_area": g2.reference_area,
        "reference_delay_ps": g2.reference_delay_ps,
    }, ""


def _run_hom(cfg: RunConfig, art: _Artifacts) -> tuple[dict, str]:
    pipe = cfg.pipeline()
    polarizations = (PolarizationConfig.CO, PolarizationConfig.CROSS)

    # one engine pass serves both polarization settings
    paired = run_hom(pipe, cfg.ifo, polarizations, cfg.det1, cfg.det2, workers=cfg.workers)
    # the shared counts and each setting's tag counts; the peak areas come with the visibility
    report = _base_report(cfg, paired)
    histograms: dict[str, object] = {}
    peaks: dict[str, object] = {}
    for pol, result in zip(polarizations, paired.by_setting()):
        tag = pol.value
        report.update(art.streams(result, f"tags_{tag}"))
        histograms[tag], peaks[tag] = _correlate(cfg, art, result, f"correlation_{tag}")

    g2 = expected_source_g2(pipe)
    vis = estimate_visibility(
        peaks["co"], peaks["cross"], cfg.analysis.norm_delay_ps, cfg.ifo, g2, cfg.train.period_ps
    )
    report.update(
        {
            "central_area_co": vis.central_area_co,
            "norm_area_co": vis.norm_area_co,
            "central_area_cross": vis.central_area_cross,
            "norm_area_cross": vis.norm_area_cross,
            "a_par": vis.a_par,
            "a_perp": vis.a_perp,
            "v_raw": vis.v_raw,
            "v_raw_err": vis.v_raw_err,
            "v_corr": vis.v_corr,
            "v_corr_err": vis.v_corr_err,
            "calib_g2": g2,
            "calib_epsilon": cfg.ifo.epsilon,
            "flagged": int(vis.flagged),
        }
    )
    if art.svg:
        co, cross = histograms["co"], histograms["cross"]
        centers = co.bin_centers()
        window = np.abs(centers) <= 3.2 * cfg.train.period_ps
        write_svg_plot(
            art.path("hom_central.svg"),
            [
                Series(centers[window].tolist(), cross.counts[window].tolist(), "cross-polarized", "line"),
                Series(centers[window].tolist(), co.counts[window].tolist(), "co-polarized", "line"),
            ],
            title="Central interference peaks",
            xlabel="delay (ps)",
            ylabel="counts",
        )
    return report, "corrected value outside [0, 1.05]" if vis.flagged else ""


def _run_rate(cfg: RunConfig, art: _Artifacts) -> tuple[dict, str]:
    result = run_direct(cfg.pipeline(), cfg.det1, workers=cfg.workers)
    report = {**_base_report(cfg, result), **art.streams(result)}
    st = result.stats
    n_in, n_out = st.emitted, st.converted
    if n_in == 0:
        raise AnalysisError("no photons were emitted")
    eta = n_out / n_in
    duration_s = cfg.train.duration_ps * 1e-12
    return {
        **report,
        "n_in": n_in,
        "n_out": n_out,
        "eta_ext": eta,
        "eta_ext_err": float(np.sqrt(eta * (1 - eta) / n_in)),
        "rate_in_cps": n_in / duration_s,
        "rate_out_cps": n_out / duration_s,
    }, ""


def _run_saturation(cfg: RunConfig, art: _Artifacts) -> tuple[dict, str]:
    scan = cfg.resolved["saturation_scan"]
    conv = cfg.conversion
    rng = substream(cfg.seed, 0, STAGE_SCAN)
    powers = np.linspace(scan["p_min_mw"], scan["p_max_mw"], scan["n_points"])
    eta_true = np.array([saturation_efficiency(conv, p) for p in powers])
    eta_meas = eta_true * (1.0 + scan["noise_fraction"] * rng.standard_normal(powers.size))
    fit = fit_saturation(list(zip(powers.tolist(), eta_meas.tolist())))
    eta_fit = saturation_curve(powers, fit.eta_max, fit.p_sat_mw)

    art.write_csv(
        "saturation.csv", np.savetxt, np.column_stack([powers, eta_meas, eta_fit]),
        fmt=("%.6g", "%.8g", "%.8g"), delimiter=",", header="pump_mw,eta_measured,eta_fit", comments="",
    )
    if art.svg:
        ideal = conv.loss_budget.transmission()
        grid = np.linspace(powers[0], powers[-1], 200)
        fit_curve = saturation_curve(grid, fit.eta_max, fit.p_sat_mw)
        write_svg_plot(
            art.path("saturation.svg"),
            [
                Series(powers.tolist(), eta_meas.tolist(), "measured", "points"),
                Series(grid.tolist(), fit_curve.tolist(), "fit", "dashed"),
                Series([powers[0], powers[-1]], [ideal, ideal], "ideal upper", "line"),
                Series([powers[0], powers[-1]], [ideal * (1 - IDEAL_BAND_FRACTION)] * 2, "ideal lower", "line"),
            ],
            title="Conversion efficiency vs pump power",
            xlabel="pump power (mW)",
            ylabel="external efficiency",
        )

    report = {
        "experiment": cfg.experiment,
        "seed": cfg.seed.master_seed,
        "eta_max": fit.eta_max,
        "eta_max_err": fit.eta_max_err,
        "p_sat_mw": fit.p_sat_mw,
        "p_sat_mw_err": fit.p_sat_err_mw,
        "residual_rms": fit.residual_rms,
        "ideal_transmission": conv.loss_budget.transmission(),
    }
    measurement = cfg.bounds_measurement()
    if measurement is not None:
        bounds = internal_efficiency_bounds(measurement)
        report["eta_int_lower"] = bounds.eta_int_lower
        report["eta_int_upper"] = bounds.eta_int_upper
    flag = ""
    if fit.p_sat_mw < powers[0]:
        # the sin^2 then turns over between scan points: the fit is an alias
        flag = f"p_sat_mw {fit.p_sat_mw:.3g} is below the smallest scan power, {powers[0]:g} mW: an unresolved alias"
    return report, flag


_RUNNERS = {
    "lifetime": _run_lifetime,
    "hbt": _run_hbt,
    "hom_paired": _run_hom,
    "rate": _run_rate,
    "saturation_scan": _run_saturation,
}


def _resolve_output_dir(cfg: RunConfig, flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("PHOTONFLOW_OUTPUT")
    if env:
        return Path(env)
    return Path(cfg.output_dir)


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, seed_override=args.seed, workers_override=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dry_run:
        for key, value in cfg.resolved_items().items():
            print(f"{key} = {value}")
        return EXIT_OK

    outdir = _resolve_output_dir(cfg, args.output)
    try:
        art = _Artifacts(outdir, args.format)
        report, flag = _RUNNERS[cfg.experiment](cfg, art)
        io.write_report(art.path("report.txt"), report)
        art.write_manifest(cfg)
    except (ConfigError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnalysisError, FitError, MeasurementError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: cannot write the run output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    for key, value in report.items():
        print(f"{key} = {value}")
    if flag:
        print(f"result flagged: {flag}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        ra = io.read_report(Path(args.run_a) / "report.txt")
        rb = io.read_report(Path(args.run_b) / "report.txt")
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if ra.get("experiment") != rb.get("experiment"):
        print(
            f"error: experiment types differ: {ra.get('experiment')} vs {rb.get('experiment')}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    keys = [key for key in ra if f"{key}_err" in ra and key in rb and f"{key}_err" in rb]
    if not keys:
        print("no paired quantities with uncertainties found", file=sys.stderr)
        return EXIT_CONFIG
    try:
        values = {key: [float(r[name]) for r in (ra, rb) for name in (key, f"{key}_err")] for key in keys}
    except ValueError as exc:
        print(f"error: malformed report value: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    all_consistent = True
    print(f"{'quantity':<22}{'a':>14}{'b':>14}{'delta':>12}{'sigma':>12}  verdict")
    for key, (va, ea, vb, eb) in values.items():
        sigma_joint = float(np.hypot(ea, eb))
        delta = vb - va
        consistent = abs(delta) <= 2.0 * sigma_joint
        all_consistent &= consistent
        verdict = "consistent" if consistent else "INCONSISTENT"
        print(f"{key:<22}{va:>14.6g}{vb:>14.6g}{delta:>12.3g}{sigma_joint:>12.3g}  {verdict}")
    return EXIT_OK if all_consistent else EXIT_RUNTIME


def _read_manifest_artifacts(run_dir: Path) -> dict[str, str]:
    """The manifest's artifact name -> sha256 table; ConfigError if it is malformed.

    A name that is absolute or resolves outside ``run_dir`` makes it malformed.
    """
    path = run_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, dict) or not all(
        isinstance(name, str) and isinstance(digest, str) for name, digest in artifacts.items()
    ):
        raise ConfigError(f"{path}: no 'artifacts' table of file name to sha256")
    root = run_dir.resolve()
    for name in artifacts:
        try:
            inside = not Path(name).is_absolute() and (run_dir / name).resolve().is_relative_to(root)
        except ValueError:  # a NUL byte in the name
            inside = False
        if not inside:
            raise ConfigError(f"{path}: artifact {name!r} is not a file name inside the run directory")
    return artifacts


def cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        artifacts = _read_manifest_artifacts(run_dir)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    bad = 0
    for name, digest in artifacts.items():
        target = run_dir / name
        if not target.is_file():
            print(f"missing: {name}")
        else:
            try:
                if _sha256(target) == digest:
                    continue
                print(f"hash mismatch: {name}")
            except OSError as exc:
                print(f"unreadable: {name} ({exc.strerror or exc})")
        bad += 1
    print(f"{len(artifacts) - bad}/{len(artifacts)} artifacts verified")
    return EXIT_OK if bad == 0 else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonflow",
        description="Pulsed single-photon source simulator with telecom-band conversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to the run configuration")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--workers", type=int, default=None, help="override the worker count")
    p_run.add_argument("--dry-run", action="store_true", help="validate and print the resolved config")
    p_run.add_argument("--format", choices=("csv", "svg", "both"), default="both")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run reports")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="verify artifact hashes against the manifest")
    p_ver.add_argument("run_dir")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
