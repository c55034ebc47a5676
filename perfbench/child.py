"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py MODE ROOT PROFILE WORKERS SEED OUTDIR RESULT SPAWNED

MODE is ``run`` (set up, then ``photonflow run``), ``trace`` (the same with
spans recorded) or ``setup`` (set up only).  SPAWNED is the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide, so set-up time counts interpreter start, ``import photonflow.cli``
and ``load_config``.  Timings, the exit code of the run and, when traced, the
spans and counters are written to RESULT as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, root, profile, workers, seed, outdir, result_path, spawned = argv
    sys.path.insert(0, str(Path(root) / "src"))
    from photonflow import cli

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(f"{seed}:setup")
        spans.install(tracer)
    cli.load_config(profile, seed_override=int(seed), workers_override=int(workers))
    result = {"setup_s": time.monotonic() - float(spawned)}

    if mode != "setup":
        if tracer is not None:
            tracer.run_id = f"{seed}:run"
        start = time.perf_counter()
        code = cli.main(["run", profile, "--workers", workers, "--seed", seed, "--output", outdir])
        result["run_s"] = time.perf_counter() - start
        result["exit"] = code
        if tracer is not None:
            result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
