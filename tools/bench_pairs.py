"""Benchmark a change against its parent in interleaved pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --label NAME \\
        [--workloads hom_paired lifetime_dense hbt_parallel] [--pairs 10] [--first-seed 100]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for example
``git worktree add ../parent HEAD~1``).  For each workload, pair i runs
``python3 perfbench/run.py --workload W --seed FIRST+i --seconds S --trace 0``
once in each checkout, the parent first in even pairs and the change first in
odd ones, so slow phases of a shared machine fall on both sides alike.  S is
``run_seconds`` from the change's BENCHMARK.json.  Every run is written to
``BENCH_<label>.json`` in CHANGE_DIR, and the median [q1, q3] of each
end-to-end metric per side, with the change's wins out of the pairs, is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from statistics import median, quantiles

PER_SAMPLE = "untraced run_s per sample (s):"


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its JSON result, flattened, plus the per-sample run_s."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "run_s_per_sample": [],
                "exit_code": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    per_sample = next((line.split(PER_SAMPLE, 1)[1].split() for line in lines if PER_SAMPLE in line), [])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: round(m["value"], 6) for name, m in result["metrics"].items()},
        "run_s_per_sample": [float(t) for t in per_sample],
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric: parent -> change median [q1, q3] and the change's wins."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        both = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        sides = {side: [p[side]["metrics"][name] for p in both] for side in ("parent", "change")}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0 for p in both)

        def spread(values):
            q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}]"

        rows.append(f"  {name:<14} {spread(sides['parent'])} -> {spread(sides['change'])}"
                    f"  change better in {wins}/{len(both)}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")

    record = {
        "what": "interleaved parent/change pairs of the repository benchmark, untraced",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "seeds": (f"pair i uses seed {args.first_seed} + i for both sides; "
                  "even pairs run the parent first, odd pairs the change first"),
        "hardware": (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}; "
                     f"Python {platform.python_version()}, numpy {version('numpy')}"),
        "workloads": {},
    }
    out = args.change / f"BENCH_{args.label}.json"
    for workload in workloads:
        pairs = record["workloads"][workload] = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(checkouts[side], workload, seed, seconds)
            pairs.append({key: pair[key] for key in ("seed", "first", "parent", "change")})
            out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: run_s "
                  f"{pair['parent']['metrics'].get('run_s')} -> {pair['change']['metrics'].get('run_s')}",
                  flush=True)
        print(f"{workload}, parent -> change, median [q1, q3]:")
        print("\n".join(summarize(pairs, spec["end_to_end"])), flush=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
