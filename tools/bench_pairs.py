"""Run the benchmark on a parent commit and on this checkout in alternating
pairs, and print how each end-to-end metric moved.

    python tools/bench_pairs.py --parent HEAD~1 --workload wordproblem --pairs 10

The workload is one of the names in ``BENCHMARK.json``; any other name,
``all`` included, is a usage error (exit code 2) before anything runs.
The parent ref is extracted with ``git archive`` into a temporary
directory.  Each pair runs ``python3 perfbench/run.py --workload W
--seconds S`` once in each tree, one after the other, the parent first in
even pairs and the change first in odd ones.  A run whose final line does
not report ``"correct": true`` with 0 failed jobs stops the tool with exit
code 1.

For each end-to-end metric of ``BENCHMARK.json`` (its name, ``better`` and
``bound``) the report gives the parent's median and quartiles, the change's
median, the pairs the change won, whether a claimed gain would hold (at
least 10 pairs, 9 in 10 of them won, and the gap between the medians wider
than the parent's interquartile range) and whether the change stays within the
bound.  A metric within the bound is reported as unresolved when the parent's
interquartile range is wider than the bound, unless every run of the change
beats every run of the parent: the spread then hides a move of the bound's size.

``--record PATH`` also writes the pairs as JSON: every run's end-to-end
values per side, each metric's ``Verdict``, the workload, pairs and seconds,
the parent ref and commit, the change commit and whether its tree was dirty,
the Python version and the CPU count.  ``check_record`` checks that a record
has this shape, its keys and types, not its values.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]


class Verdict(NamedTuple):
    parent_q1: float
    parent_median: float
    parent_q3: float
    change_median: float
    won: int
    pairs: int
    claim_holds: bool
    within_bound: bool
    resolved: bool


def quartiles(xs: Sequence[float]) -> tuple:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, parent: Sequence[float], change: Sequence[float]) -> Verdict:
    """The verdict on one metric from its values in each pair, parent[i]
    and change[i] measured in pair i.  ``metric`` is a ``BENCHMARK.json``
    end-to-end entry: ``name``, ``better`` ("lower" or "higher") and
    ``bound``, the largest relative move for the worse that is allowed."""
    sign = 1 if metric["better"] == "higher" else -1
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    gain = sign * (change_median - median)
    claim = len(parent) >= 10 and 10 * won >= 9 * len(parent) and gain > q3 - q1
    within = gain >= -metric["bound"] * abs(median)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    resolved = q3 - q1 <= metric["bound"] * abs(median) or beats_all
    return Verdict(q1, median, q3, change_median, won, len(parent), claim, within, resolved)


NUMBER = (int, float)
RECORD = {
    "workload": str,
    "pairs": int,
    "seconds": NUMBER,
    "parent": {"ref": str, "commit": str},
    "change": {"commit": str, "dirty": bool},
    "python": str,
    "cpu_count": int,
    "runs": {"parent": [{str: NUMBER}], "change": [{str: NUMBER}]},
    "verdicts": {str: {"parent_q1": NUMBER, "parent_median": NUMBER, "parent_q3": NUMBER,
                       "change_median": NUMBER, "won": int, "pairs": int, "claim_holds": bool,
                       "within_bound": bool, "resolved": bool}},
}
"""The shape of a ``--record`` file: a dict with exactly the keys shown, a
list whose items all have the one shape shown, a dict keyed ``str`` whose
values all have the shape shown, or a type (a tuple of them for numbers)."""


def check_record(data, shape=RECORD, where: str = "record") -> None:
    """Raise ValueError naming the first place where data is not of the
    shape of a ``--record`` file; types and keys are checked, not values."""
    if isinstance(shape, list):
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list")
        for i, item in enumerate(data):
            check_record(item, shape[0], f"{where}[{i}]")
    elif isinstance(shape, dict):
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        if str in shape:
            for key, value in data.items():
                check_record(key, str, f"{where} key")
                check_record(value, shape[str], f"{where}.{key}")
        elif data.keys() != shape.keys():
            raise ValueError(f"{where}: keys {sorted(data)}, expected {sorted(shape)}")
        else:
            for key, value in data.items():
                check_record(value, shape[key], f"{where}.{key}")
    elif isinstance(data, bool) and shape is not bool or not isinstance(data, shape):
        raise ValueError(f"{where}: {type(data).__name__}, expected {shape}")


def git(*args: str) -> str:
    """The output of a git command in this checkout; exits 1 if it fails."""
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def extract(ref: str, into: Path) -> None:
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref], capture_output=True)
    if proc.returncode:
        sys.exit(f"error: git archive {ref}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """The final JSON line of one benchmark run in tree; exits 1 unless it
    reports correct outputs and no failed job."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"error: run in {tree} not correct with 0 failed jobs:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent tree")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--record", type=Path, help="write the runs and verdicts to this JSON file")
    args = ap.parse_args(argv)
    metrics = benchmark["end_to_end"]
    runs = {"parent": [], "change": []}
    record = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
              "parent": {"ref": args.parent, "commit": git("rev-parse", f"{args.parent}^{{commit}}")},
              "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "runs": runs, "verdicts": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, trees["parent"])
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                values = run_once(trees[side], args.workload, args.seconds)
                runs[side].append(values)
                print(f"pair {i + 1} {side}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs: parent median [quartiles] -> change median")
    for metric in metrics:
        name = metric["name"]
        v = summarize(metric, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
        record["verdicts"][name] = v._asdict()
        move = (v.change_median / v.parent_median - 1) * 100
        print(f"  {name:12} {v.parent_median:.6g} [{v.parent_q1:.6g}-{v.parent_q3:.6g}] -> "
              f"{v.change_median:.6g} ({move:+.1f}%), won {v.won}/{v.pairs}, "
              f"claim {'holds' if v.claim_holds else 'fails'}, "
              f"{'PAST' if not v.within_bound else 'within' if v.resolved else 'unresolved at'} "
              f"the {metric['bound']:.0%} bound")
    if args.record:
        check_record(record)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
