"""Multi-seed pull check: are the reported ``*_err`` values calibrated?

    python3 pulls/run.py --out DIR [--src SRC] [--label TEXT] [--loops g2 hom tau eta]
        [--pulses N] [--seeds N] [--first-seed S]

Each closed loop runs ``photonflow run`` (``cli.main``, one worker) on a
shipped profile with ``n_pulses`` cut, at seeds 1..N:

    g2              hbt_930         2 M pulses, 60 seeds
    v_raw, v_corr   hom_930 paired  2 M pulses, 80 seeds
    tau_ps          lifetime_1550   1 M pulses, 50 seeds
    eta_ext         rate_1550       1 M pulses, 40 seeds

For each quantity x with quoted error x_err, the pull of seed i is
``(x_i - mean(x)) / x_err_i``; calibrated errors give sd(pull) near 1.  The
mean is compared with the acceptance target in standard errors,
``(mean - target) / (sd(x) / sqrt(N))``.  A quantity is in band when sd(pull)
lies in [0.8, 1.25] and that offset is at most 3.  One ``PULLS_<quantity>.json``
per quantity is written to DIR, with every seed's value and error.

``--src`` imports photonflow from another checkout's ``src`` directory, so
two versions can be compared at the same seeds.  ``--pulses`` and ``--seeds``
override the sizes for a quick smoke run, and ``--first-seed`` moves the seed
range for a second sample; results at other sizes or seeds are not the
calibration check.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import json
import math
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, stdev

ROOT = Path(__file__).resolve().parent.parent
PROFILES = ROOT / "profiles"

SD_PULL_BAND = (0.8, 1.25)
MAX_OFFSET_SE = 3.0

# loop -> (profile, n_pulses, seeds, [(quantity, error key, target)]); a target
# of None is the engine-matched expected pair overlap of the profile
LOOPS = {
    "g2": ("hbt_930.cfg", 2_000_000, 60, [("g2", "g2_err", 0.020)]),
    "hom": ("hom_930.cfg", 2_000_000, 80, [("v_raw", "v_raw_err", 0.892), ("v_corr", "v_corr_err", None)]),
    "tau": ("lifetime_1550.cfg", 1_000_000, 50, [("tau_ps", "tau_ps_err", 271.0)]),
    "eta": ("rate_1550.cfg", 1_000_000, 40, [("eta_ext", "eta_ext_err", 0.408)]),
}


def summarize(values: list[float], errors: list[float], target: float) -> dict:
    """Mean, spread, mean quoted error, sd(pull) and the offset from ``target`` in SE."""
    n = len(values)
    mean, spread = fmean(values), stdev(values)
    sd_pull = stdev([(x - mean) / err for x, err in zip(values, errors)])
    offset_se = (mean - target) / (spread / math.sqrt(n))
    return {
        "n": n,
        "mean": mean,
        "spread": spread,
        "mean_err": fmean(errors),
        "sd_pull": sd_pull,
        # sampling error of a standard deviation from n normal values
        "sd_pull_se": sd_pull / math.sqrt(2 * (n - 1)),
        "target": target,
        "offset_se": offset_se,
        "in_band": SD_PULL_BAND[0] <= sd_pull <= SD_PULL_BAND[1] and abs(offset_se) <= MAX_OFFSET_SE,
    }


def run_loop(cli, read_report, profile: Path, n_pulses: int, seed: int, workdir: Path) -> dict:
    """One ``photonflow run`` of ``profile`` cut to ``n_pulses``; returns its report."""
    text = re.sub(r"(?m)^n_pulses = .*$", f"n_pulses = {n_pulses}", profile.read_text())
    config = workdir / profile.name
    config.write_text(text)
    outdir = workdir / f"{profile.stem}_{seed}"
    argv = ["run", str(config), "--seed", str(seed), "--workers", "1", "--format", "csv", "--output", str(outdir)]
    with contextlib.redirect_stdout(_stdio.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"photonflow run {profile.name} --seed {seed} exited {code}")
    report = read_report(outdir / "report.txt")
    shutil.rmtree(outdir)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the PULLS_*.json files")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="photonflow source directory")
    parser.add_argument("--label", default="", help="what was measured, recorded in every file")
    parser.add_argument("--loops", nargs="+", choices=sorted(LOOPS), default=list(LOOPS))
    parser.add_argument("--pulses", type=int, help="override n_pulses (smoke runs only)")
    parser.add_argument("--seeds", type=int, help="override the seed count (smoke runs only)")
    parser.add_argument("--first-seed", type=int, default=1, help="first seed (1 for the calibration check)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from photonflow import cli
    from photonflow.config import load_config
    from photonflow.io import read_report
    from photonflow.source import expected_pair_overlap

    args.out.mkdir(parents=True, exist_ok=True)
    for loop in args.loops:
        profile_name, n_pulses, n_seeds, quantities = LOOPS[loop]
        profile = PROFILES / profile_name
        n_pulses = args.pulses or n_pulses
        n_seeds = args.seeds or n_seeds
        reports = []
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            for seed in range(args.first_seed, args.first_seed + n_seeds):
                reports.append(run_loop(cli, read_report, profile, n_pulses, seed, Path(tmp)))
        elapsed = time.perf_counter() - start
        for key, err_key, target in quantities:
            if target is None:
                cfg = load_config(profile)
                target = expected_pair_overlap(cfg.emitter, cfg.train)
            values = [float(r[key]) for r in reports]
            errors = [float(r[err_key]) for r in reports]
            record = {
                "quantity": key,
                "profile": profile_name,
                "n_pulses": n_pulses,
                "seeds": f"{args.first_seed}..{args.first_seed + n_seeds - 1}",
                "label": args.label,
                "loop_seconds": round(elapsed, 1),
                **summarize(values, errors, target),
                "values": values,
                "errors": errors,
            }
            (args.out / f"PULLS_{key}.json").write_text(json.dumps(record, indent=1) + "\n")
            print(f"{key:<8} mean {record['mean']:.6g} (target {target:.6g}, {record['offset_se']:+.2f} SE)  "
                  f"spread {record['spread']:.3g}  mean err {record['mean_err']:.3g}  "
                  f"sd(pull) {record['sd_pull']:.3f} +- {record['sd_pull_se']:.3f}  "
                  f"{'in band' if record['in_band'] else 'OUT OF BAND'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
