"""Check that two checkouts, or two worker counts, produce the same bytes for every shipped profile.

    python3 tools/same_bytes.py PARENT_DIR CHANGE_DIR [--pulses N]
    python3 tools/same_bytes.py --workers-only DIR [--pulses N]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Every
``profiles/*.cfg`` of CHANGE_DIR, plus ``hom_930`` rewritten as ``hom_co`` and
as ``hom_cross``, and ``hbt_1550`` rewritten with conversion noise and many
dark counts (``hbt_1550_noisy``), runs through ``photonflow run`` with
``--workers 1`` and ``--workers 2`` in both checkouts, each with its own
``src`` on the import path.  With ``--workers-only`` the same profiles of the
one checkout DIR run with ``--workers 1`` and with ``--workers 2``, and the
two runs are compared: the determinism check for a change that alters the
realization on purpose, which the parent cannot check.  ``--pulses N`` caps
every profile's ``n_pulses`` at N for a quick check.

The two sides must agree on the exit code, stdout and every artifact byte for
byte, and on ``manifest.json`` apart from its ``created_utc``.  Exits 0 when
nothing differs, and 1 after naming every run and file that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKERS = (1, 2)
VOLATILE_MANIFEST_KEYS = ("created_utc",)
# no shipped profile has conversion noise, and their 100 cps dark counts
# barely register in a short run; hbt_1550_noisy gets about 1000 noise photons
# and 100 dark counts per detector in 150000 pulses
NOISY_NOISE_CPS = 5e5
NOISY_DARK_CPS = 5e4


def configs(change: Path, pulses: int | None) -> dict[str, str]:
    """Name -> config text of every profile, plus the single-setting halves of hom_930 and a noisy hbt_1550."""
    texts = {path.stem: path.read_text() for path in sorted((change / "profiles").glob("*.cfg"))}
    for experiment in ("hom_co", "hom_cross"):
        texts[f"hom_930_{experiment}"] = re.sub(
            r"(?m)^experiment\s*=.*$", f"experiment = {experiment}", texts["hom_930"]
        )
    noisy = re.sub(r"(?m)^dark_rate_cps\s*=.*$", f"dark_rate_cps = {NOISY_DARK_CPS:g}", texts["hbt_1550"])
    noisy = noisy.replace("[conversion]\n", f"[conversion]\nnoise_rate_cps = {NOISY_NOISE_CPS:g}\n")
    texts["hbt_1550_noisy"] = noisy
    if pulses is not None:
        def cap(match):
            return f"n_pulses = {min(int(match.group(1)), pulses)}"

        texts = {name: re.sub(r"(?m)^n_pulses\s*=\s*(\d+)\s*$", cap, text) for name, text in texts.items()}
    return texts


def run(checkout: Path, workdir: Path, name: str, text: str, workers: int) -> tuple[int, bytes, Path]:
    """One CLI run inside ``workdir``; paths on the command line are relative, so stdout can match."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"{name}.cfg").write_text(text)
    out = f"{name}_w{workers}"
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    env.pop("PHOTONFLOW_OUTPUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "photonflow.cli", "run", f"{name}.cfg", "--workers", str(workers), "--output", out],
        cwd=workdir, env=env, capture_output=True, timeout=1800,
    )
    return proc.returncode, proc.stdout, workdir / out


def manifest_bytes(path: Path) -> bytes:
    manifest = json.loads(path.read_text())
    for key in VOLATILE_MANIFEST_KEYS:
        manifest.pop(key, None)
    return json.dumps(manifest, sort_keys=True).encode()


def differing_files(parent_out: Path, change_out: Path) -> list[str]:
    """Every artifact (by name) whose bytes differ, or that only one side wrote."""
    names = sorted({p.name for p in parent_out.iterdir()} | {p.name for p in change_out.iterdir()})
    differing = []
    for name in names:
        a, b = parent_out / name, change_out / name
        if not (a.exists() and b.exists()):
            differing.append(f"{name} (written by one side only)")
            continue
        read = manifest_bytes if name == "manifest.json" else Path.read_bytes
        if read(a) != read(b):
            differing.append(name)
    return differing


def compare(sides) -> tuple[list[str], int]:
    """What differs between two runs' results, and the number of artifacts compared."""
    (code_a, stdout_a, out_a), (code_b, stdout_b, out_b) = sides
    differing = [] if code_a == code_b else [f"exit code ({code_a} -> {code_b})"]
    if stdout_a != stdout_b:
        differing.append("stdout")
    if out_a.is_dir() != out_b.is_dir():
        return differing + ["output directory (written by one side only)"], 0
    if not out_a.is_dir():
        return differing, 0
    return differing + differing_files(out_a, out_b), sum(1 for _ in out_a.iterdir())


def comparisons(args, names) -> list[tuple[str, str, list[tuple[Path, str, int]]]]:
    """(label, profile name, the two sides' (checkout, work directory, workers)) of every comparison."""
    if args.workers_only is not None:
        sides = [(args.workers_only, f"workers_{workers}", workers) for workers in WORKERS]
        return [(f"{name} --workers 1 vs 2", name, sides) for name in names]
    return [
        (f"{name} --workers {workers}", name, [(args.parent, "parent", workers), (args.change, "change", workers)])
        for name in names
        for workers in WORKERS
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workers-only", type=Path, metavar="DIR",
                        help="compare --workers 1 with --workers 2 in the one checkout DIR")
    parser.add_argument("--pulses", type=int, default=None, help="cap every profile's n_pulses")
    args = parser.parse_args(argv)
    if (args.change is None) == (args.workers_only is None) or (args.parent is None) != (args.change is None):
        parser.error("give PARENT_DIR and CHANGE_DIR, or --workers-only DIR")

    texts = configs(args.workers_only or args.change, args.pulses)
    runs = comparisons(args, texts)
    n_files, n_differing = 0, 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for label, name, sides in runs:
            results = [run(checkout, Path(tmp) / side, name, texts[name], workers) for checkout, side, workers in sides]
            differing, compared = compare(results)
            n_files += compared
            n_differing += len(differing)
            for what in differing:
                print(f"{label}: {what} differs", flush=True)
            if not differing:
                print(f"{label}: same bytes (exit {results[0][0]})", flush=True)
    print(f"{n_differing} differences: {n_files} files and {len(runs)} stdouts compared")
    return 1 if n_differing else 0


if __name__ == "__main__":
    sys.exit(main())
