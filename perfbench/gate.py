"""Correctness gate: a benchmark run counts only if its outputs are correct.

A run passes when ``photonflow verify`` accepts its manifest and its headline
lies inside the acceptance tolerance of its experiment.  The exit code is
checked by the caller, which owns the process.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
from pathlib import Path

from photonflow import cli
from photonflow.config import load_config
from photonflow.io import read_report
from photonflow.source import expected_pair_overlap

# Raw-visibility targets of the acceptance suite, per HOM profile.
V_RAW_TARGETS = {"hom_930.cfg": 0.892, "hom_1550.cfg": 0.888}
V_RAW_TOL = 0.01
V_CORR_TOL = 0.02
TAU_TARGET_PS, TAU_TOL_PS, TAU_MIN_COUNTS = 271.0, 4.0, 1_000_000
G2_TARGET, G2_TOL = 0.020, 0.003


def headline_problems(report: dict, profile: Path) -> list[str]:
    """Tolerance violations of a report produced from ``profile``."""
    cfg = load_config(profile)
    if report.get("experiment") != cfg.experiment:
        return [f"experiment {report.get('experiment')!r}, expected {cfg.experiment!r}"]
    try:
        if cfg.experiment == "hom_paired":
            overlap = expected_pair_overlap(cfg.emitter, cfg.train)
            checks = [
                ("v_raw", report["v_raw"], V_RAW_TARGETS[profile.name], V_RAW_TOL),
                ("v_corr", report["v_corr"], overlap, V_CORR_TOL),
            ]
        elif cfg.experiment == "lifetime":
            if report["tags_ch0"] < TAU_MIN_COUNTS:
                return [f"tags_ch0 {report['tags_ch0']} < {TAU_MIN_COUNTS}"]
            checks = [("tau_ps", report["tau_ps"], TAU_TARGET_PS, TAU_TOL_PS)]
        elif cfg.experiment == "hbt":
            checks = [("g2", report["g2"], G2_TARGET, G2_TOL)]
        else:
            return [f"no acceptance tolerance for experiment {cfg.experiment!r}"]
    except KeyError as exc:
        return [f"report lacks {exc.args[0]!r}"]
    return [
        f"{key} {value!r} outside {target} +- {tol}"
        for key, value, target, tol in checks
        if not (isinstance(value, (int, float)) and abs(value - target) <= tol)
    ]


def run_problems(outdir: Path, profile: Path) -> list[str]:
    """Why the run in ``outdir`` is not correct; empty when it is."""
    printed = _stdio.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(["verify", str(outdir)])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"verify could not read the manifest: {exc!r}"]
    if code != cli.EXIT_OK:
        return [f"verify exit {code}: {printed.getvalue().strip()}"]
    if "report.txt" not in json.loads((outdir / "manifest.json").read_text())["artifacts"]:
        return ["manifest does not cover report.txt"]
    try:
        report = read_report(outdir / "report.txt")
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    return headline_problems(report, profile)
