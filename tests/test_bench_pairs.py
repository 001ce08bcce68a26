"""The pair runner's verdict on fixed numbers, and the shape of its records
(tools/bench_pairs.py)."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
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


RUN = {"setup_s": 0.2, "jobs_per_s": 10000.0, "job_p50_ms": 0.08, "job_p90_ms": 0.16, "peak_rss_mb": 23.5}
EXAMPLE = {
    "workload": "wordproblem", "pairs": 1, "seconds": 25.0,
    "parent": {"ref": "HEAD~1", "commit": "0" * 40},
    "change": {"commit": "1" * 40, "dirty": False},
    "python": "3.11.7", "cpu_count": 2,
    "runs": {"parent": [RUN], "change": [dict(RUN, jobs_per_s=11000.0)]},
    "verdicts": {"jobs_per_s": bench_pairs.summarize(RATE, [10000.0], [11000.0])._asdict()},
}


def test_committed_records_have_the_record_shape():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        bench_pairs.check_record(json.loads(path.read_text()))


def test_check_record_checks_keys_and_types_not_values():
    bench_pairs.check_record(EXAMPLE)
    # any value of the right type passes: a lost claim, an empty run list
    other = copy.deepcopy(EXAMPLE)
    other["verdicts"]["jobs_per_s"]["claim_holds"] = True
    other["runs"]["change"] = []
    bench_pairs.check_record(other)
    breakages = [
        (lambda r: r.pop("cpu_count"), "record: keys"),
        (lambda r: r.update(extra=1), "record: keys"),
        (lambda r: r["change"].update(dirty=0), "record.change.dirty: int"),
        (lambda r: r.update(pairs=True), "record.pairs: bool"),
        (lambda r: r.update(seconds="25"), "record.seconds: str"),
        (lambda r: r["runs"]["parent"][0].update(setup_s=None), "record.runs.parent[0].setup_s"),
        (lambda r: r["runs"].update(change={}), "record.runs.change: expected a list"),
        (lambda r: r["verdicts"]["jobs_per_s"].pop("won"), "record.verdicts.jobs_per_s: keys"),
    ]
    for breakage, message in breakages:
        broken = copy.deepcopy(EXAMPLE)
        breakage(broken)
        with pytest.raises(ValueError, match=re.escape(message)):
            bench_pairs.check_record(broken)


def test_record_holds_every_run_and_verdict(monkeypatch, tmp_path):
    values = iter([1.0, 2.0, 3.0, 4.0])  # pair 1: parent, change; pair 2: change, parent
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "f" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seconds: dict(RUN, jobs_per_s=next(values)))
    path = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "compiler", "--pairs", "2",
                             "--seconds", "1", "--record", str(path)]) == 0
    record = json.loads(path.read_text())
    bench_pairs.check_record(record)
    assert (record["workload"], record["pairs"], record["seconds"]) == ("compiler", 2, 1.0)
    assert record["parent"] == {"ref": "HEAD", "commit": "f" * 40}
    assert record["change"] == {"commit": "f" * 40, "dirty": False}
    assert [r["jobs_per_s"] for r in record["runs"]["parent"]] == [1.0, 4.0]
    assert [r["jobs_per_s"] for r in record["runs"]["change"]] == [2.0, 3.0]
    assert list(record["verdicts"]) == [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert record["verdicts"]["jobs_per_s"]["won"] == 1


def test_a_peak_rss_move_under_one_percent_is_noted_as_layout():
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    parent = [23.80 + 0.01 * (i % 3) for i in range(10)]
    small = bench_pairs.summarize(rss, parent, [x * 0.995 for x in parent])
    large = bench_pairs.summarize(rss, parent, [x * 0.95 for x in parent])
    assert small.won == large.won == 10
    assert bench_pairs.LAYOUT_NOTE in bench_pairs.report_line(rss, small)
    assert bench_pairs.LAYOUT_NOTE not in bench_pairs.report_line(rss, large)
    # other metrics carry no note, however small their move
    assert bench_pairs.LAYOUT_NOTE not in bench_pairs.report_line(P50, bench_pairs.summarize(
        P50, PARENT, [x * 0.995 for x in PARENT]))
