"""Tests of the pull harness itself: the statistics and one smoke run per loop.

    python3 -m pytest pulls -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_calibrated_errors_give_unit_pulls():
    rng = random.Random(3)
    errors = [rng.uniform(0.5, 2.0) for _ in range(4000)]
    values = [5.0 + rng.gauss(0.0, err) for err in errors]
    summary = run.summarize(values, errors, target=5.0)
    assert summary["sd_pull"] == pytest.approx(1.0, abs=4 * summary["sd_pull_se"])
    assert abs(summary["offset_se"]) < 4
    assert summary["in_band"]


def test_overstated_errors_and_bias_leave_the_band():
    rng = random.Random(4)
    values = [rng.gauss(0.0, 1.0) for _ in range(400)]
    overstated = run.summarize(values, [1.5] * 400, target=0.0)
    assert overstated["sd_pull"] == pytest.approx(1 / 1.5, abs=0.05)
    assert not overstated["in_band"]
    biased = run.summarize(values, [1.0] * 400, target=-0.5)
    assert biased["offset_se"] == pytest.approx(10.0, abs=1.5)
    assert not biased["in_band"]


def test_smoke_run_writes_one_file_per_quantity(tmp_path):
    assert run.main(["--out", str(tmp_path), "--pulses", "20000", "--seeds", "2"]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(f"PULLS_{key}.json" for _, _, _, quantities in run.LOOPS.values() for key, _, _ in quantities)
    assert written == expected
    record = json.loads((tmp_path / "PULLS_v_corr.json").read_text())
    assert record["seeds"] == "1..2" and len(record["values"]) == 2
    assert math.isclose(record["target"], 0.935, abs_tol=1e-3)
