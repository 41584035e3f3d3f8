import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

BETTER = {"dist_mlups": "higher", "setup_s": "lower"}


def _result(mlups, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"dist_mlups": {"value": mlups, "unit": "MLUP/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_fold_counts_wins_by_direction():
    # The change is faster in four pairs and slower in one; its set-up is
    # shorter in three, longer in one and equal in one (a tie).
    pairs = [(_result(100, 1.0), _result(110, 0.9)),
             (_result(100, 1.0), _result(120, 0.8)),
             (_result(100, 1.0), _result(105, 1.0)),
             (_result(100, 1.0), _result(90, 1.2)),
             (_result(100, 1.0), _result(130, 0.5))]
    folded = ab_bench.fold(pairs, BETTER)
    assert folded["pairs"] == 5 and folded["bad"] == []
    mlups, setup = folded["metrics"]["dist_mlups"], folded["metrics"]["setup_s"]
    assert (mlups["wins"], mlups["losses"], mlups["ties"]) == (4, 1, 0)
    assert (setup["wins"], setup["losses"], setup["ties"]) == (3, 1, 1)
    assert mlups["n"] == setup["n"] == 5
    assert (mlups["parent"], mlups["change"]) == (100, 110)
    assert mlups["parent_iqr"] == 0
    assert mlups["ratio"] == pytest.approx(1.10)
    assert setup["ratio"] == pytest.approx(0.9)
    assert mlups["p"] == pytest.approx(2 * 6 / 32)     # 1 of 5 lost
    assert setup["p"] == pytest.approx(2 * 5 / 16)     # 1 of 4, tie left out


def test_fold_counts_and_lists_a_failed_pair():
    pairs = [(_result(100, 1.0), _result(110, 1.0)),
             (_result(100, 1.0), _result(500, 1.0, failed=2)),
             (_result(100, 1.0, correct=False), _result(120, 1.0)),
             (None, _result(130, 1.0)),
             (_result(100, 1.0), _result(115, 1.0))]
    folded = ab_bench.fold(pairs, BETTER)
    assert folded["bad"] == [(1, "change", "2 failed"),
                             (2, "parent", "not correct"),
                             (3, "parent", "no result")]
    mlups = folded["metrics"]["dist_mlups"]
    assert mlups["n"] == 2 and mlups["wins"] == 2
    assert mlups["change"] == pytest.approx(112.5)
    assert folded["metrics"]["setup_s"]["parent_iqr"] == 0
    text = ab_bench.report(folded)
    assert "bad pairs: 3 of 5" in text and "pair 2 change: 2 failed" in text


def test_fold_reports_the_spread_of_the_parent_runs():
    pairs = [(_result(m, 1.0), _result(m + 1, 1.0)) for m in (112, 100, 108, 104)]
    mlups = ab_bench.fold(pairs, BETTER)["metrics"]["dist_mlups"]
    assert mlups["parent"] == 106 and mlups["parent_iqr"] == pytest.approx(10)


def test_fold_gives_the_sign_test_interval_on_the_ratio():
    # Ten ratios 0.91 .. 1.00 in shuffled order: the interval is the 2nd
    # and 9th smallest, at coverage 1 - 2 * 11/1024.  Five pairs cannot
    # reach 95% (1 - 2/32), six can with the extremes (1 - 2/64).
    ratios = [0.95, 0.91, 1.0, 0.98, 0.93, 0.96, 0.92, 0.99, 0.94, 0.97]
    pairs = [(_result(100, 1.0), _result(100 * r, 1.0)) for r in ratios]
    folded = ab_bench.fold(pairs, BETTER)
    lo, hi, coverage = folded["metrics"]["dist_mlups"]["interval"]
    assert (lo, hi) == (pytest.approx(0.92), pytest.approx(0.99))
    assert coverage == pytest.approx(1 - 22 / 1024)
    assert "[0.920, 0.990] 97.9%" in ab_bench.report(folded)
    assert ab_bench.median_interval(ratios[:5]) is None
    row = ab_bench.report(ab_bench.fold(pairs[:5], BETTER)).splitlines()[1]
    assert row.split()[5] == "-"          # the interval column
    lo, hi, coverage = ab_bench.median_interval(ratios[:6])
    assert (lo, hi, coverage) == (0.91, 1.0, pytest.approx(1 - 2 / 64))


def test_sign_test_is_exact_and_two_sided():
    assert ab_bench.sign_test(0, 0) == 1.0
    assert ab_bench.sign_test(5, 5) == 1.0
    assert ab_bench.sign_test(10, 0) == pytest.approx(2 / 1024)
    assert ab_bench.sign_test(0, 10) == ab_bench.sign_test(10, 0)
    assert ab_bench.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)


def test_steal_ticks_reads_the_aggregate_cpu_line(tmp_path):
    # Fields after "cpu": user nice system idle iowait irq softirq steal.
    stat = ("cpu  793406 0 61173 8500778 212 0 1251 11426 0 0\n"
            "cpu0 405281 0 30588 4241606 119 0 600 5613 0 0\n"
            "intr 1 2 3\n")
    assert ab_bench.steal_ticks(stat) == 11426
    assert ab_bench.steal_ticks("cpu  1 2 3 4 5 6 7\n") is None   # no steal
    assert ab_bench.steal_ticks("cpu  1 2 3 4 5 6 7 x 0 0\n") is None
    assert ab_bench.steal_ticks("cpu0 1 2 3 4 5 6 7 8 0 0\n") is None
    path = tmp_path / "stat"
    path.write_text(stat)
    assert ab_bench.read_steal(str(path)) == 11426
    assert ab_bench.read_steal(str(tmp_path / "missing")) is None


def test_steal_medians_skip_unreadable_runs():
    assert ab_bench._ticks([3, None, 1, 8]) == "3"
    assert ab_bench._ticks([2, 5]) == "3.5"
    assert ab_bench._ticks([None]) == ab_bench._ticks([]) == "-"
