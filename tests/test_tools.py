"""The benchmark-pair verdicts of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
RUN_S = {"name": "run_s", "better": "lower", "bound": 0.24}
PULSES = {"name": "pulses_per_s", "better": "higher", "bound": 0.24}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(parent, change, failed=(0, 0)):
    """Pairs with one run_s value per side, and pulses_per_s as 1e7 / run_s."""
    def side(run_s, n_failed):
        return {"attempted": 4, "failed": n_failed,
                "metrics": {"run_s": run_s, "pulses_per_s": 1e7 / run_s}}
    return [{"parent": side(p, failed[0]), "change": side(c, failed[1])} for p, c in zip(parent, change)]


def row(lines, name):
    return next(line for line in lines if line.split()[0] == name)


class TestSummarize:
    PARENT = [0.60, 0.61, 0.62, 0.63, 0.64, 0.60, 0.61, 0.62, 0.63, 0.64]

    def test_gain_needs_nine_wins_in_ten(self, bench_pairs):
        nine = [p - 0.05 for p in self.PARENT[:9]] + [self.PARENT[9] + 0.01]
        lines = bench_pairs.summarize(pairs(self.PARENT, nine), [RUN_S, PULSES])
        assert "change better in 9/10; gain: yes; worse than bound: no" in row(lines, "run_s")
        assert "change better in 9/10; gain: yes" in row(lines, "pulses_per_s")
        eight = nine[:8] + [self.PARENT[8] + 0.01, self.PARENT[9] + 0.01]
        assert "8/10; gain: no" in row(bench_pairs.summarize(pairs(self.PARENT, eight), [RUN_S]), "run_s")

    def test_ties_count_for_neither_side(self, bench_pairs):
        tied = [p - 0.05 for p in self.PARENT[:9]] + [self.PARENT[9]]
        assert "9/10; gain: yes" in row(bench_pairs.summarize(pairs(self.PARENT, tied), [RUN_S]), "run_s")
        more_ties = tied[:8] + self.PARENT[8:]
        assert "8/10; gain: no" in row(bench_pairs.summarize(pairs(self.PARENT, more_ties), [RUN_S]), "run_s")

    def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(self, bench_pairs):
        # every pair won, but by less than the parent's quartile distance (0.02)
        close = [p - 0.005 for p in self.PARENT]
        assert "10/10; gain: no" in row(bench_pairs.summarize(pairs(self.PARENT, close), [RUN_S]), "run_s")

    def test_worse_than_bound(self, bench_pairs):
        slower = [p * 1.4 for p in self.PARENT]
        lines = bench_pairs.summarize(pairs(self.PARENT, slower), [RUN_S, PULSES])
        assert "0/10; gain: no; worse than bound: yes" in row(lines, "run_s")
        assert "worse than bound: yes" in row(lines, "pulses_per_s")
        within = [p * 1.2 for p in self.PARENT]
        assert "worse than bound: no" in row(bench_pairs.summarize(pairs(self.PARENT, within), [RUN_S]), "run_s")
        unbounded = {"name": "run_s", "better": "lower"}
        assert "worse than bound: no bound" in bench_pairs.summarize(pairs(self.PARENT, slower), [unbounded])[0]

    def test_failed_samples_per_side(self, bench_pairs):
        lines = bench_pairs.summarize(pairs(self.PARENT, self.PARENT, failed=(0, 1)), [RUN_S])
        assert lines[-1] == "  samples failed/attempted: parent 0/40, change 10/40"
