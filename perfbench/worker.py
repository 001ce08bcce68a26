"""One workload in one fresh process: set up, run the closed loop, report.

Started by run.py, never imported by it.  Modes:

* ``setup``: import nilq, generate inputs, report when the first job would
  start, exit.
* ``run``: the untraced closed loop.  One client runs the jobs of
  ``inputs.passes_for(--seconds)`` passes one after another, each job
  starting when the previous one ended.
* ``trace``: the same untraced loop, then its first jobs again with the
  tracer installed, for per-layer numbers and the tracing overhead.

Prints one JSON document on its standard output.  Job outputs go back to
run.py, which checks them without importing nilq.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import inputs
import speed

# Stop a loop even mid-pass after this long, so a pathologically slow
# program still lets the run finish inside its time limit.
LOOP_LIMIT_S = {"run": 120.0, "trace": 70.0}
# Kernel samples right after set-up, which set the speed set-up ran at, and
# before the first job, so the first jobs have samples on both sides.
SETUP_SAMPLES = 20


def _digest(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Executes jobs against the nilq modules as they are bound right now
    (the tracer may have rebound them)."""

    def __init__(self, workdir: str):
        from nilq import cli, diophantine, presentation, words

        self.cli, self.diophantine, self.presentation, self.words = cli, diophantine, presentation, words
        self.workdir = workdir
        self.sessions = {}
        self.stdout_bytes = 0

    def prepare(self, job):
        """Write a CLI job's input files and substitute their paths."""
        if job["kind"] != "cli":
            return job
        argv = []
        for arg in job["argv"]:
            if arg.startswith("{") and arg.endswith("}"):
                path = os.path.join(self.workdir, f"{job['id']}.{arg[1:-1]}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job["files"][arg[1:-1]], fh)
                arg = path
            argv.append(arg)
        return dict(job, argv=argv)

    def execute(self, job):
        """Returns (error name or None, output)."""
        kind = job["kind"]
        try:
            if kind == "normalize":
                p = self.presentation.parse_presentation(job["text"])
                np_ = self.presentation.normalize(p)
                report = self.presentation.classify(np_)
                self.sessions[job["id"]] = np_
                return None, {"regime": report.regime, "rank": report.rank,
                              "invariant_factors": list(report.invariant_factors)}
            if kind == "query":
                np_ = self.sessions[job["presentation"]]
                w = self.words.parse_word(job["word"], job["m"])
                h = self.presentation.express_in_normalized_basis(w, np_)
                return None, getattr(self.presentation, job["decider"])(h, np_)
            if kind == "cli":
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(job["argv"])
                text = out.getvalue()
                self.stdout_bytes += len(text.encode())
                return (None if code == 0 else f"exit {code}"), text
            if kind == "gadget":
                d = self.diophantine
                failures = d.odot_law_failures(d.z_in_g_templates(), d.FreeNilpotentAmbient(2),
                                               job["t_max"], job["aux_bound"])
                return None, [list(f) for f in failures]
        except Exception as exc:  # a failed job is recorded, the run goes on
            return f"{type(exc).__name__}: {exc}", None
        raise ValueError(f"unknown job kind {kind!r}")


def run_loop(runner, once, passes, limit, tracer=None, probe=None):
    """The closed loop: the once-per-run jobs, then every pass in order.
    With a speed probe, the kernel runs between jobs, outside their time.
    Returns (records, outputs, elapsed, truncated, job start times)."""
    records, outputs, starts = [], {}, []
    start = time.perf_counter()
    for batch in [once] + passes:
        runner.sessions.clear()  # the previous pass's presentations are done
        for job in batch:
            if tracer is not None:
                tracer.job = job["id"]
                tracer.enter("job")
            t0 = time.perf_counter()
            error, output = runner.execute(job)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.leave()
            records.append((job["id"], job["class"], dt, error, _digest(output) if error is None else None))
            starts.append(t0)
            if error is None:
                outputs[job["id"]] = output
            if probe is not None:
                probe.after_job(dt)
            if time.perf_counter() - start > limit:
                return records, outputs, time.perf_counter() - start, True, starts
    return records, outputs, time.perf_counter() - start, False, starts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import nilq

    if not os.path.abspath(nilq.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"nilq imported from {nilq.__file__}, not from {src}")
    workdir = os.path.join(args.root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir)
        once, passes = inputs.generate(args.workload, args.seed, inputs.passes_for(args.workload, args.seconds))
        once = [runner.prepare(j) for j in once]
        passes = [[runner.prepare(j) for j in p] for p in passes]
        ready = time.monotonic()
        probe = speed.Probe()
        probe.sample(SETUP_SAMPLES)
        result = {"ready": ready, "setup_kernel_s": probe.median()}
        if args.mode != "setup":
            records, outputs, elapsed, truncated, starts = run_loop(
                runner, once, passes, LOOP_LIMIT_S[args.mode], probe=probe if args.mode == "run" else None)
            result.update(records=records, outputs=outputs, elapsed=elapsed, passes=len(passes),
                          truncated=truncated,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if args.mode == "run":
                result["reference_s"] = [probe.reference(t0, rec[2]) for t0, rec in zip(starts, records)]
        if args.mode == "trace":
            result["trace"] = traced_loop(runner, once, passes, args, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    json.dump(result, sys.stdout)
    return 0


def traced_loop(runner, once, passes, args, untraced_records):
    """Replay the once-per-run jobs and the first half of the passes (at
    least one) under the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    runner.stdout_bytes = 0
    replayed = passes[:max(1, len(passes) // 2)]
    tracer.install()
    try:
        records, _, elapsed, truncated, _ = run_loop(runner, once, replayed, LOOP_LIMIT_S["trace"], tracer=tracer)
    finally:
        tracer.uninstall()
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.jsonl"), "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    calls, self_s, arith = tracer.aggregate()
    untraced = [(r[0], r[4]) for r in untraced_records]
    traced = [(r[0], r[4]) for r in records]
    return {
        "passes": len(replayed),
        "traced_s": sum(r[2] for r in records),
        "untraced_s": sum(r[2] for r in untraced_records[:len(records)]),
        "truncated": truncated,
        "calls": dict(calls),
        "self_s": dict(self_s),
        "arith_s": arith,
        "counts": dict(tracer.counts),
        "stdout_bytes": runner.stdout_bytes,
        "mismatched": [t[0] for u, t in zip(untraced, traced) if u != t],
    }


if __name__ == "__main__":
    sys.exit(main())
