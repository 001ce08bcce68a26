"""nilq benchmark: one workload per call, its metrics as the last stdout line.

    python3 perfbench/run.py --workload wordproblem --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The program is imported from the ``src/`` of the checkout holding this
file.  Each workload runs in fresh worker processes started one after
another (never two at once): two that only set up, ``inputs.ROUNDS`` that
each run the same jobs, two more that only set up.  ``--seconds`` sets how
many passes of the workload's job mix each round runs (see
inputs.passes_for).  The gated times are reference times (see speed.py):
each job's wall time scaled by the speed of a fixed kernel timed around it,
then the median over the rounds.  The machine's speed drifts by a third or
more over minutes, and no run is long enough to average that out; the
kernel slows with it.  Wall-clock figures are printed in the human report.
The workers return their job outputs and this process checks them against
the oracles in oracles.py, after the timed loops and without importing
nilq.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay of the same jobs (see tracer.py).  The human
report goes to standard output before the final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402

ROOT = os.path.dirname(HERE)
# Set-up-only workers before and after the measured rounds: the machine's
# speed drifts over tens of seconds, so probes on both sides of the timed
# phase keep the set-up median from following one moment's speed.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170.0
DEFAULT_SECONDS = 25.0  # BENCHMARK.json's run_seconds


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(workload: str, seed: int, seconds: float, mode: str):
    """Run one worker process to completion; returns (its report, setup seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout)
    return report, report["ready"] - started


def verdicts(workload: str, seed: int, seconds: float, report):
    """({job id: (class, seconds, error)}, failure reasons, correct)."""
    jobs = {rid: (cls, dt, error) for rid, cls, dt, error, _ in report["records"]}
    once, passes = inputs.generate(workload, seed, inputs.passes_for(workload, seconds))
    ran = [j for j in once + [j for p in passes for j in p] if j["id"] in jobs]
    pins = None
    if seed == inputs.DEFAULT_SEED:
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pins = json.load(fh)
    reasons = oracles.check(ran, report["outputs"], pins)
    correct = not reasons
    for rid, (_, _, error) in jobs.items():
        if error is not None:
            reasons.setdefault(rid, f"raised or refused: {error}")
    return jobs, reasons, correct


def timings(jobs, cls=None, seconds=None):
    """Milliseconds of the jobs (of one class): wall times, or the times
    ``seconds`` gives by job id."""
    return [(t if seconds is None else seconds[rid]) * 1000.0
            for rid, (c, t, _) in jobs.items() if cls is None or c == cls]


def class_percentiles(jobs, seconds=None):
    out = {}
    for cls in ("normalize", "query"):
        ms = timings(jobs, cls, seconds)
        if ms:
            out[f"{cls}_p50_ms"] = (percentile(ms, 50), "ms", len(ms))
            out[f"{cls}_p90_ms"] = (percentile(ms, 90), "ms", len(ms))
    return out


def combine(rounds):
    """One report from the run-mode reports of the rounds: each job's median
    wall and reference time and first error, the first round's outputs, and
    the jobs whose output differs between rounds."""
    by_id = [{rec[0]: (rec, ref) for rec, ref in zip(r["records"], r["reference_s"])} for r in rounds]
    records, reference, differ = [], {}, []
    for rid, cls, _, _, _ in rounds[0]["records"]:
        runs = [b[rid] for b in by_id if rid in b]
        error = next((rec[3] for rec, _ in runs if rec[3] is not None), None)
        if len({rec[4] for rec, _ in runs}) > 1:
            differ.append(rid)
        records.append((rid, cls, statistics.median(rec[2] for rec, _ in runs), error, runs[0][0][4]))
        reference[rid] = statistics.median(ref for _, ref in runs)
    return dict(rounds[0], records=records, reference=reference, differ=differ,
                elapsed=sum(r["elapsed"] for r in rounds), truncated=any(r["truncated"] for r in rounds))


def setup_seconds(report, wall):
    """(wall, reference) seconds from a worker's start to its first job."""
    return wall, wall * speed.REFERENCE_S / report["setup_kernel_s"]


def end_to_end(workload: str, seed: int, seconds: float):
    workers = [spawn(workload, seed, seconds, "setup") for _ in range(SETUP_PROBES)]
    rounds = []
    for _ in range(inputs.ROUNDS[workload]):
        workers.append(spawn(workload, seed, seconds, "run"))
        rounds.append(workers[-1][0])
    workers += [spawn(workload, seed, seconds, "setup") for _ in range(SETUP_PROBES)]
    setups = [setup_seconds(*w) for w in workers]
    report = combine(rounds)
    jobs, reasons, correct = verdicts(workload, seed, seconds, report)
    for rid in report["differ"]:
        reasons.setdefault(rid, "output differs between rounds")
    correct = correct and not report["differ"]
    ms, wall_ms = timings(jobs, seconds=report["reference"]), timings(jobs)
    done = len(jobs) - len(reasons)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s", len(setups)),
        "jobs_per_s": (done / (sum(ms) / 1000.0), "1/s", len(jobs)),
        "job_p50_ms": (percentile(ms, 50), "ms", len(ms)),
        "job_p90_ms": (percentile(ms, 90), "ms", len(ms)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB", len(rounds)),
    }
    extra = {"failed_ratio": (len(reasons) / len(jobs), "ratio", len(jobs))}
    extra.update(class_percentiles(jobs, report["reference"]))
    extra.update({
        "wall.setup_s": (statistics.median(wall for wall, _ in setups), "s", len(setups)),
        "wall.jobs_per_s": (done / (sum(wall_ms) / 1000.0), "1/s", len(jobs)),
        "wall.job_p50_ms": (percentile(wall_ms, 50), "ms", len(wall_ms)),
        "wall.job_p90_ms": (percentile(wall_ms, 90), "ms", len(wall_ms)),
    })
    return report, jobs, reasons, correct, metrics, extra


def per_layer(workload: str, seed: int, seconds: float):
    report, _ = spawn(workload, seed, seconds, "trace")
    jobs, reasons, correct = verdicts(workload, seed, seconds, report)
    tr = report["trace"]
    for rid in tr["mismatched"]:
        reasons.setdefault(rid, "traced output differs from untraced output")
    correct = correct and not tr["mismatched"] and not tr["truncated"]
    return report, jobs, reasons, correct, layer_metrics(report, jobs, reasons), {}


def layer_metrics(report, jobs, reasons):
    """Per-layer metrics from a trace-mode worker report: totals over the
    traced passes divided by their number."""
    tr = report["trace"]
    passes = tr["passes"]
    calls, self_s, counts = tr["calls"], tr["self_s"], tr["counts"]
    metrics = {}

    def add(name, value, unit):
        metrics[name] = (value, unit, passes)

    for name, key, kind in LAYER_METRICS:
        if kind == "self_s":
            add(name, self_s.get(key, 0.0) / passes, "s/pass")
        elif kind == "calls":
            add(name, (calls.get(key, 0) + counts.get(key + ".calls", 0)) / passes, "count/pass")
        else:
            add(name, counts.get(key, 0) / passes, "count/pass")
    add("zmatrix.snf_max_entry_bits", counts.get("zmatrix.snf_max_entry_bits", 0), "bits")
    add("randwalk.return_state_bits_computed", counts.get("randwalk.return_state_bits_computed", 0) / passes,
        "bits/pass")
    add("nilpotent2.arith.self_s", tr["arith_s"] / passes, "s/pass")
    deciders = [f"presentation.{d}" for d in inputs.DECIDERS]
    decider_calls = sum(calls.get(d, 0) for d in deciders)
    inconclusive = sum(counts.get(f"{d}.raised.InconclusiveError", 0) for d in deciders)
    add("presentation.deciders.calls", decider_calls / passes, "count/pass")
    add("presentation.deciders.self_s", sum(self_s.get(d, 0.0) for d in deciders) / passes, "s/pass")
    add("presentation.inconclusive_ratio", inconclusive / decider_calls if decider_calls else 0.0, "ratio")
    add("randwalk.resource_limit_errors",
        counts.get("randwalk.return_probability_exact.raised.ResourceLimitError", 0), "count")
    searches = calls.get("diophantine.bounded_solve_group", 0)
    add("diophantine.found_per_search", counts.get("diophantine.searches_found", 0) / searches if searches else 0.0,
        "ratio")
    add("cli.stdout_bytes", tr["stdout_bytes"] / passes, "bytes/pass")
    add("trace.overhead_s", (tr["traced_s"] - tr["untraced_s"]) / passes, "s/pass")
    add("trace.overhead_ratio", tr["traced_s"] / tr["untraced_s"] - 1.0, "ratio")
    metrics["failed_ratio"] = (len(reasons) / len(jobs), "ratio", len(jobs))
    split = class_percentiles(jobs)
    for name in ("normalize_p50_ms", "normalize_p90_ms", "query_p50_ms", "query_p90_ms"):
        metrics[name] = split.get(name, (0.0, "ms", 0))
    return metrics


# (metric name, tracer key, kind): kind "self_s" reads a span's self time,
# "calls" a span or counter call count, anything else a tracer counter.
LAYER_METRICS = [
    ("zmatrix.smith_normal_form.calls", "zmatrix.smith_normal_form", "calls"),
    ("zmatrix.smith_normal_form.self_s", "zmatrix.smith_normal_form", "self_s"),
    ("zmatrix.snf_ops", "zmatrix.snf_ops", "count"),
    ("zmatrix.rank.self_s", "zmatrix.rank", "self_s"),
    ("zmatrix.minor_polynomial.self_s", "zmatrix.minor_polynomial", "self_s"),
    ("zmatrix.lattice_membership.self_s", "zmatrix.lattice_membership", "self_s"),
    ("zmatrix.hermite_normal_form.self_s", "zmatrix.hermite_normal_form", "self_s"),
    ("words.nielsen_normalize.self_s", "words.nielsen_normalize", "self_s"),
    ("words.nielsen_moves", "words.nielsen_moves", "count"),
    ("words.rewritten_letters", "words.rewritten_letters", "count"),
    ("words.rewrite_through_generator_moves.self_s", "words.rewrite_through_generator_moves", "self_s"),
    ("words.rewrite_through_generator_moves.letters_out", "words.rewrite_through_generator_moves.letters_out",
     "count"),
    ("words.parse_word.self_s", "words.parse_word", "self_s"),
    ("words.parse_word.letters", "words.parse_word.letters", "count"),
    ("words.random_word.self_s", "words.random_word", "self_s"),
    ("nilpotent2.from_word.self_s", "nilpotent2.from_word", "self_s"),
    ("nilpotent2.from_word.letters", "nilpotent2.from_word.letters", "count"),
    ("nilpotent2.multiply.calls", "nilpotent2.multiply", "calls"),
    ("nilpotent2.inverse.calls", "nilpotent2.inverse", "calls"),
    ("nilpotent2.power.calls", "nilpotent2.power", "calls"),
    ("nilpotent2.commutator.calls", "nilpotent2.commutator", "calls"),
    ("presentation.parse_presentation.self_s", "presentation.parse_presentation", "self_s"),
    ("presentation.normalize.self_s", "presentation.normalize", "self_s"),
    ("presentation.classify.self_s", "presentation.classify", "self_s"),
    ("presentation.closure_lattice_vectors", "presentation.closure_lattice_vectors", "count"),
    ("presentation.express_in_normalized_basis.self_s", "presentation.express_in_normalized_basis", "self_s"),
    ("randwalk.rank_experiment.self_s", "randwalk.rank_experiment", "self_s"),
    ("randwalk.coordinate_clt_stats.self_s", "randwalk.coordinate_clt_stats", "self_s"),
    ("randwalk.escape_probability.self_s", "randwalk.escape_probability", "self_s"),
    ("randwalk.schwartz_zippel_check.self_s", "randwalk.schwartz_zippel_check", "self_s"),
    ("randwalk.decay_slope.self_s", "randwalk.decay_slope", "self_s"),
    ("randwalk.trials", "randwalk.trials", "count"),
    ("randwalk.return_probability_exact.calls", "randwalk.return_probability_exact", "calls"),
    ("randwalk.return_probability_exact.self_s", "randwalk.return_probability_exact", "self_s"),
    ("randwalk.return_steps", "randwalk.return_steps", "count"),
    ("diophantine.bounded_solve_group.calls", "diophantine.bounded_solve_group", "calls"),
    ("diophantine.bounded_solve_group.self_s", "diophantine.bounded_solve_group", "self_s"),
    ("diophantine.verify_correspondence.self_s", "diophantine.verify_correspondence", "self_s"),
    ("diophantine.odot_law_failures.self_s", "diophantine.odot_law_failures", "self_s"),
    ("diophantine.bounded_solve_ring.self_s", "diophantine.bounded_solve_ring", "self_s"),
    ("diophantine.compile_system.self_s", "diophantine.compile_system", "self_s"),
    ("diophantine.eval_gword.calls", "diophantine.eval_gword", "calls"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    fn = per_layer if trace else end_to_end
    report, jobs, reasons, correct, metrics, extra = fn(workload, seed, seconds)
    mode = ("untraced, then a traced replay" if trace
            else f"untraced, median of {inputs.ROUNDS[workload]} rounds, reference times")
    cut = " (cut short at the loop's time limit)" if report["truncated"] else ""
    print(f"== {workload} (seed {seed}, {mode}): {report['passes']} passes in {report['elapsed']:.2f} s{cut}, "
          f"{len(jobs)} jobs attempted, {len(reasons)} failed, outputs {'correct' if correct else 'WRONG'}")
    for name, (value, unit, n) in list(metrics.items()) + list(extra.items()):
        print(f"   {name:<52} {value:>16.6g} {unit:<10} n={n}")
    for rid, reason in sorted(reasons.items())[:20]:
        print(f"   failed {rid}: {reason}")
    return {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nilq", "__init__.py")):
        print(f"error: no nilq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
