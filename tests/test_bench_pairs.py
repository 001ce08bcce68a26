"""The pair runner's verdict on fixed numbers (tools/bench_pairs.py)."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

P50 = {"name": "job_p50_ms", "better": "lower", "bound": 0.25}
RATE = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
PARENT = [0.100, 0.104, 0.098, 0.102, 0.101, 0.099, 0.103, 0.100, 0.102, 0.101]


def test_a_clear_win_holds_the_claim():
    change = [x * 0.8 for x in PARENT]
    change[3] = 0.110  # one lost pair of ten still holds
    v = bench_pairs.summarize(P50, PARENT, change)
    assert (v.parent_q1, v.parent_median, v.parent_q3) == bench_pairs.quartiles(PARENT)
    assert v.parent_median == 0.101 and v.change_median < v.parent_q1
    assert (v.won, v.pairs, v.claim_holds, v.within_bound) == (9, 10, True, True)
    # a gain in a higher-is-better metric is the same verdict
    v = bench_pairs.summarize(RATE, [1 / x for x in PARENT], [1 / x for x in change])
    assert (v.won, v.claim_holds, v.within_bound) == (9, True, True)


def test_a_tie_holds_no_claim():
    v = bench_pairs.summarize(P50, PARENT, list(PARENT))
    assert (v.won, v.claim_holds, v.within_bound) == (0, False, True)
    # every pair won, but by less than the parent's interquartile range
    v = bench_pairs.summarize(P50, PARENT, [x - 0.0005 for x in PARENT])
    assert (v.won, v.claim_holds, v.within_bound) == (10, False, True)


def test_a_loss_within_the_bound():
    v = bench_pairs.summarize(P50, PARENT, [x * 1.2 for x in PARENT])
    assert (v.won, v.claim_holds, v.within_bound) == (0, False, True)
    v = bench_pairs.summarize(RATE, [1000.0] * 10, [800.0] * 10)
    assert (v.won, v.claim_holds, v.within_bound) == (0, False, True)


def test_a_regression_past_the_bound():
    v = bench_pairs.summarize(P50, PARENT, [x * 1.3 for x in PARENT])
    assert (v.won, v.claim_holds, v.within_bound) == (0, False, False)
    v = bench_pairs.summarize(RATE, [1000.0] * 10, [700.0] * 10)
    assert (v.won, v.claim_holds, v.within_bound) == (0, False, False)


def test_fewer_than_ten_pairs_hold_no_claim():
    v = bench_pairs.summarize(P50, [0.1], [0.09])
    assert (v.parent_q1, v.parent_median, v.parent_q3) == (0.1, 0.1, 0.1)
    assert (v.won, v.pairs, v.claim_holds, v.within_bound) == (1, 1, False, True)
    v = bench_pairs.summarize(P50, PARENT[:9], [x * 0.8 for x in PARENT[:9]])
    assert (v.won, v.claim_holds) == (9, False)


def test_a_spread_wider_than_the_bound_is_unresolved():
    # quartiles 0.1 and 0.2 about a median of 0.15: the spread is 67% of it
    wide = [0.1, 0.2] * 5
    v = bench_pairs.summarize(P50, wide, list(wide))
    assert (v.within_bound, v.resolved) == (True, False)
    # past the bound stays past, whatever the spread
    v = bench_pairs.summarize(P50, wide, [x * 2 for x in wide])
    assert (v.within_bound, v.resolved) == (False, False)
    # unless every run of the change beats every run of the parent
    v = bench_pairs.summarize(P50, wide, [0.09] * 10)
    assert (v.won, v.within_bound, v.resolved) == (10, True, True)
    v = bench_pairs.summarize(RATE, wide, [0.21] * 10)
    assert (v.won, v.within_bound, v.resolved) == (10, True, True)
    # the narrow parent runs of the other cases are resolved
    assert bench_pairs.summarize(P50, PARENT, list(PARENT)).resolved


@pytest.mark.parametrize("workload", ["all", "compilr"])
def test_a_workload_not_in_the_benchmark_is_a_usage_error(monkeypatch, capsys, workload):
    # refused by argparse before the parent is extracted or anything runs
    def never(*args):
        raise AssertionError("ran")

    monkeypatch.setattr(bench_pairs, "extract", never)
    monkeypatch.setattr(bench_pairs, "run_once", never)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", "HEAD", "--workload", workload, "--pairs", "1", "--seconds", "1"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
