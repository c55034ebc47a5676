"""Tests of the benchmark harness itself: span arithmetic, tracer, correctness gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import spans  # noqa: E402

HBT_PROFILE = ROOT / "profiles" / "hbt_930.cfg"


def _span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run_id": "t:run"}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = [
        _span(0, "pipeline.run", 0.0, 10.0),
        # two worker threads overlap on [3, 4]; the union, not the sum, is covered
        _span(1, "core.draw", 1.0, 4.0, parent=0),
        _span(2, "core.draw", 3.0, 6.0, parent=0),
        # a grandchild is covered by its own parent and does not count twice
        _span(3, "core.substream", 2.0, 3.0, parent=1),
        # a child that ends after its parent only covers the parent's interval
        _span(4, "optics.apply_dead_time", 9.5, 11.0, parent=0),
        _span(5, "io.write", 12.0, 12.5),
    ]
    self_s = spans.self_times(tree)
    assert self_s[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert self_s[1] == pytest.approx(2.0)
    assert self_s[2] == pytest.approx(3.0)
    assert self_s[4] == pytest.approx(1.5)
    assert spans.busy_times(tree)["core.draw"] == pytest.approx(6.0)
    assert spans.top_level_time(tree) == pytest.approx(10.5)


def test_covered_merges_nested_and_disjoint_intervals():
    assert spans.covered([(0, 4), (1, 2), (6, 7), (3, 5)], 0, 10) == pytest.approx(6.0)
    assert spans.covered([], 0, 10) == 0.0
    assert spans.covered([(-5, -1), (11, 12)], 0, 10) == 0.0


def test_tracer_loses_no_update_under_thread_contention():
    tracer = spans.Tracer("t:run")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(500):
                tracer.call("x", tracer.count, "n", 1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counts["n"] == 4000
    ids = [s.id for s in tracer.spans]
    assert len(ids) == len(set(ids)) == 4000


def _traced_child(tmp_path: Path, tag: str, profile: Path) -> dict:
    result = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "trace", str(ROOT), str(profile), "2", "7",
         str(tmp_path / tag), str(result), "0"],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    return json.loads(result.read_text())


def test_traced_counts_repeat_exactly_and_workers_adopt_the_run_span(tmp_path):
    text = HBT_PROFILE.read_text().replace("n_pulses = 10000000", "n_pulses = 40000")
    assert "n_pulses = 40000" in text
    profile = tmp_path / "hbt_small.cfg"
    profile.write_text(text)

    first, second = (_traced_child(tmp_path, tag, profile) for tag in ("a", "b"))
    counts_a, counts_b = first["trace"]["counts"], second["trace"]["counts"]
    exact = [
        "pipeline.pulses", "core.draws", "source.rows", "optics.dead_time_tags_in",
        "pipeline.tags_out", "correlate.pairs", "io.bytes_written",
    ]
    assert {k: counts_a[k] for k in exact} == {k: counts_b[k] for k in exact}
    assert counts_a["pipeline.pulses"] == 40000
    assert counts_a["source.rows"] == 40000

    tree = first["trace"]["spans"]
    runs = [s["id"] for s in tree if s["name"] == spans.RUN_SPAN]
    assert len(runs) == 1
    by_id = {s["id"]: s for s in tree}
    for s in tree:
        if s["name"] in ("source.sample_emission", "optics.apply_dead_time"):
            assert s["parent"] == runs[0]
        if s["name"] == "core.draw":
            assert by_id[s["parent"]]["name"] in (spans.RUN_SPAN, "optics.sample_dark_counts")


# ---------------------------------------------------------------------------
# correctness gate

def _write_run(outdir: Path, g2: float) -> None:
    outdir.mkdir()
    (outdir / "report.txt").write_text(f"experiment = hbt\nseed = 7\ng2 = {g2}\n")
    (outdir / "tags_ch0.pftg").write_bytes(b"PFTG")
    artifacts = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ("report.txt", "tags_ch0.pftg")
    }
    (outdir / "manifest.json").write_text(json.dumps({"experiment": "hbt", "artifacts": artifacts}))


def test_gate_accepts_a_consistent_run_in_tolerance(tmp_path):
    _write_run(tmp_path / "run", g2=0.0197)
    assert gate.run_problems(tmp_path / "run", HBT_PROFILE) == []


def test_gate_rejects_tampered_report(tmp_path):
    outdir = tmp_path / "run"
    _write_run(outdir, g2=0.0197)
    report = outdir / "report.txt"
    report.write_text(report.read_text().replace("g2 = 0.0197", "g2 = 0.0201"))
    problems = gate.run_problems(outdir, HBT_PROFILE)
    assert problems and "hash mismatch: report.txt" in problems[0]


def test_gate_rejects_wrong_manifest_hash(tmp_path):
    outdir = tmp_path / "run"
    _write_run(outdir, g2=0.0197)
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["artifacts"]["tags_ch0.pftg"] = "0" * 64
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    problems = gate.run_problems(outdir, HBT_PROFILE)
    assert problems and "hash mismatch: tags_ch0.pftg" in problems[0]


def test_gate_rejects_headline_outside_tolerance(tmp_path):
    _write_run(tmp_path / "run", g2=0.0240)
    assert gate.run_problems(tmp_path / "run", HBT_PROFILE) == ["g2 0.024 outside 0.02 +- 0.003"]


def test_gate_rejects_corrupt_manifest(tmp_path):
    outdir = tmp_path / "run"
    _write_run(outdir, g2=0.0197)
    (outdir / "manifest.json").write_text("{not json")
    assert gate.run_problems(outdir, HBT_PROFILE)


def test_gate_holds_each_hom_profile_to_its_own_raw_visibility_target():
    # v_raw 0.9006 is what hom_1550 gave for one benchmark seed: 0.0126 above its 0.888 target.
    report = {"experiment": "hom_paired", "v_raw": 0.9006, "v_corr": 0.94}
    assert gate.headline_problems(report, ROOT / "profiles" / "hom_930.cfg") == []
    assert gate.headline_problems(report, ROOT / "profiles" / "hom_1550.cfg") == [
        "v_raw 0.9006 outside 0.888 +- 0.01"
    ]
