"""photonflow benchmark: time to a verified result on shipped profiles.

    python3 perfbench/run.py --workload hom_paired --seed 1 --seconds 30 --trace 0

Every sample is a fresh process (``child.py``) that runs ``photonflow run`` on
a shipped profile with a seed derived from ``--seed``, writing its artifacts to
a temporary directory that is removed at exit.  A sample counts as successful
only if it exits 0 and its outputs pass the correctness gate (``gate.py``).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics, from traced samples (``spans.py``) interleaved with
untraced samples of the same seed.  The last line of standard output is one
JSON object; a human-readable summary precedes it.  See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run must end within this many seconds of its start, whatever --seconds says.
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 3
MIN_SETUPS = 5
MIN_TRACED = 2
# Counters that must repeat bit-for-bit across traced samples of one seed.
EXACT_COUNTS = (
    "pipeline.pulses",
    "core.draws",
    "source.rows",
    "optics.dead_time_tags_in",
    "pipeline.tags_out",
    "correlate.pairs",
    "io.bytes_written",
)


@dataclass(frozen=True)
class Workload:
    profile: str
    workers: int
    sub_runs: int  # simulated passes over n_pulses: hom co+cross, lifetime main+IRF


WORKLOADS = {
    # hom_930, not hom_1550: see WORKLOADS.md, "Why HOM runs at 930 nm".
    "hom_paired": Workload("profiles/hom_930.cfg", workers=1, sub_runs=2),
    "lifetime_dense": Workload("profiles/lifetime_1550.cfg", workers=1, sub_runs=2),
    "hbt_parallel": Workload("profiles/hbt_930.cfg", workers=2, sub_runs=1),
}


@dataclass
class Sample:
    seed: int
    wall_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    run_s: float | None = None
    trace: dict | None = None
    problems: tuple[str, ...] = ()


def sample_seed(seed: int, index: int) -> int:
    """Master seed of sample ``index`` of a run started with ``seed``."""
    digest = hashlib.sha256(f"photonflow-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Runner:
    def __init__(self, workload: Workload, scratch: Path, deadline: float):
        self.workload = workload
        self.profile = ROOT / workload.profile
        self.scratch = scratch
        self.deadline = deadline
        self._n = 0
        import gate  # imports photonflow, so only once its sources are on the path

        self._run_problems = gate.run_problems

    def spawn(self, mode: str, seed: int) -> Sample:
        """Run one child to completion and gate its outputs."""
        self._n += 1
        outdir = self.scratch / f"s{self._n}"
        result_path = self.scratch / f"s{self._n}.json"
        log_path = self.scratch / f"s{self._n}.log"
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(ROOT), str(self.profile),
                 str(self.workload.workers), str(seed), str(outdir), str(result_path), repr(spawned)],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
            code, rusage = self._reap(proc)
        sample = Sample(seed=seed, wall_s=time.monotonic() - spawned,
                        peak_rss_mb=rusage.ru_maxrss / 1024.0 if rusage else 0.0)
        problems = []
        if code != 0 or not result_path.is_file():
            problems.append(f"child exit {code}: {log_path.read_text(errors='replace')[-2000:]}")
        else:
            result = json.loads(result_path.read_text())
            sample.setup_s = result["setup_s"]
            sample.run_s = result.get("run_s")
            sample.trace = result.get("trace")
            if mode != "setup":
                if result["exit"] != 0:
                    problems.append(f"photonflow run exit {result['exit']}")
                else:
                    problems.extend(self._run_problems(outdir, self.profile))
        sample.problems = tuple(problems)
        shutil.rmtree(outdir, ignore_errors=True)
        return sample

    def _reap(self, proc: subprocess.Popen):
        """Wait for ``proc`` with ``os.wait4`` to get its resource usage."""
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, rusage
                if time.monotonic() > self.deadline:
                    raise TimeoutError(f"sample exceeded the {HARD_LIMIT_S:.0f} s run limit")
                time.sleep(0.005)
        finally:
            if proc.returncode is None:
                proc.kill()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)

    def fits(self, wall_s: float, end: float) -> bool:
        """Whether work taking ``wall_s`` would finish by ``end`` and the run limit."""
        return time.monotonic() + wall_s <= min(end, self.deadline)


def end_to_end(runner: Runner, seed: int, seconds: float, pulses: int) -> tuple[list[Sample], dict]:
    end = time.monotonic() + seconds
    samples: list[Sample] = []
    while len(samples) < MIN_SAMPLES or runner.fits(median(s.wall_s for s in samples), end):
        samples.append(runner.spawn("run", sample_seed(seed, len(samples))))
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    while len(setups) < MIN_SETUPS:
        probe = runner.spawn("setup", sample_seed(seed, 0))
        if probe.problems:
            samples.append(probe)
            break
        setups.append(probe.setup_s)
    timed = [s for s in samples if s.run_s is not None]
    if not timed or not setups:
        return samples, {}
    metrics = {
        "run_s": (median(s.run_s for s in timed), "s"),
        "pulses_per_s": (median(pulses / s.run_s for s in timed), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(s.peak_rss_mb for s in timed), "MB"),
    }
    return samples, metrics


def layer_metrics(trace: dict, run_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    run_spans = [s for s in trace["spans"] if s["run_id"].endswith(":run")]
    counts = trace["counts"]
    busy = spans.busy_times(run_spans)
    self_s = spans.self_times(run_spans)
    pipeline_s = busy.get(spans.RUN_SPAN, 0.0)
    pulses = counts["pipeline.pulses"]
    tags_in = counts.get("optics.dead_time_tags_in", 0)
    return {
        "core.draw_s": busy.get("core.draw", 0.0),
        "core.substream_s": busy.get("core.substream", 0.0),
        "core.draws_per_pulse": counts.get("core.draws", 0) / pulses,
        "source.sample_emission_s": busy.get("source.sample_emission", 0.0),
        "source.rows_per_pulse": counts.get("source.rows", 0) / pulses,
        "conversion.survival_probability_s": busy.get("conversion.survival_probability", 0.0),
        "optics.apply_dead_time_s": busy.get("optics.apply_dead_time", 0.0),
        "optics.dead_time_tags_in": tags_in,
        "optics.dead_time_kept_frac": counts.get("optics.dead_time_tags_kept", 0) / tags_in if tags_in else 1.0,
        "optics.sample_dark_counts_s": busy.get("optics.sample_dark_counts", 0.0),
        "pipeline.run_s": pipeline_s,
        "pipeline.self_s": sum(self_s[s["id"]] for s in run_spans if s["name"] == spans.RUN_SPAN),
        "pipeline.worker_utilization": counts.get("pipeline.worker_busy_s", 0.0) / (pipeline_s * workers),
        "pipeline.tags_out": counts.get("pipeline.tags_out", 0),
        "pipeline.fold_decay_s": busy.get("pipeline.fold_decay", 0.0),
        "correlate.cross_correlate_s": busy.get("correlate.cross_correlate", 0.0),
        "correlate.pairs": counts.get("correlate.pairs", 0),
        "analysis.fit_lifetime_s": busy.get("analysis.fit_lifetime", 0.0),
        "analysis.estimate_s": busy.get("analysis.estimate", 0.0),
        "io.write_s": busy.get("io.write", 0.0),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "svgplot.write_svg_plot_s": busy.get("svgplot.write_svg_plot", 0.0),
        "cli.write_manifest_s": busy.get("cli.write_manifest", 0.0),
        "config.load_config_s": spans.busy_times(trace["spans"]).get("config.load_config", 0.0),
        "trace.coverage": spans.top_level_time(run_spans) / run_s,
    }


def per_layer(runner: Runner, seed: int, seconds: float) -> tuple[list[Sample], dict, list[str]]:
    """Alternate untraced and traced samples of one seed; returns samples, metrics, count mismatches."""
    end = time.monotonic() + seconds
    s0 = sample_seed(seed, 0)
    plain: list[Sample] = []
    traced: list[Sample] = []
    while len(traced) < MIN_TRACED or runner.fits(plain[-1].wall_s + traced[-1].wall_s, end):
        plain.append(runner.spawn("run", s0))
        traced.append(runner.spawn("trace", s0))
    samples = plain + traced
    good_plain = [s for s in plain if s.run_s is not None]
    good_traced = [s for s in traced if s.trace is not None]
    if not good_plain or not good_traced:
        return samples, {}, []

    per_sample = [layer_metrics(s.trace, s.run_s, runner.workload.workers) for s in good_traced]
    metrics = {
        name: (median(m[name] for m in per_sample), _unit(name)) for name in per_sample[0]
    }
    overhead = median(s.run_s for s in good_traced) / median(s.run_s for s in good_plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")

    first = good_traced[0].trace["counts"]
    mismatches = [
        f"{key}: {first.get(key)} vs {s.trace['counts'].get(key)}"
        for s in good_traced[1:]
        for key in EXACT_COUNTS
        if s.trace["counts"].get(key) != first.get(key)
    ]
    if len(good_traced) < 2:
        mismatches.append("fewer than two traced samples completed; counts not compared")
    return samples, metrics, mismatches


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {
        "core.draws_per_pulse": "draws/pulse",
        "source.rows_per_pulse": "rows/pulse",
        "io.bytes_written": "bytes",
    }.get(name, "fraction" if name.endswith(("_frac", "utilization", "coverage")) else "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "photonflow" / "cli.py").is_file() or not (ROOT / workload.profile).is_file():
        print(f"error: no photonflow sources or {workload.profile} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from photonflow.config import load_config

    pulses = workload.sub_runs * load_config(ROOT / workload.profile).n_pulses
    deadline = time.monotonic() + HARD_LIMIT_S
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        runner = Runner(workload, scratch, deadline)
        if args.trace:
            samples, metrics, mismatches = per_layer(runner, args.seed, args.seconds)
        else:
            samples, metrics = end_to_end(runner, args.seed, args.seconds, pulses)
            mismatches = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    failed = [s for s in samples if s.problems]
    for s in failed:
        print(f"FAILED seed {s.seed}: {'; '.join(s.problems)}", file=sys.stderr)
    for m in mismatches:
        print(f"COUNT MISMATCH {m}", file=sys.stderr)
    if not metrics:
        print("error: no sample completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {workload.profile}, --workers {workload.workers}, "
          f"{pulses} pulses per sample, {len(samples)} samples "
          f"({sum(s.trace is not None for s in samples)} traced), "
          f"error_rate {len(failed) / len(samples):.4f}")
    timed = [s.run_s for s in samples if s.run_s is not None and s.trace is None]
    print(f"  untraced run_s per sample (s): {' '.join(f'{t:.3f}' for t in timed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not mismatches,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
