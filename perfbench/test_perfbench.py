"""Self-tests of the benchmark (not of nilq).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def cli_stdout(argv):
    from nilq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix=".perfbench_test_", dir=ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# --- input generation --------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = inputs.generate(workload, 5, 2)
    assert first == inputs.generate(workload, 5, 2)
    other = inputs.generate(workload, 6, 2)
    assert first[1] != other[1]
    assert [len(p) for p in first[1]] == [len(p) for p in other[1]]


def test_wordproblem_library_is_full_rank_and_seed_independent():
    library = inputs.exponent_library()
    assert library == inputs.exponent_library()
    for (m, r, _, _), rows in zip(inputs.WORDPROBLEM_SLOTS, library):
        assert inputs.fraction_rank(rows) == min(m, r)


def test_realized_relators_keep_the_library_exponent_sums():
    for job in inputs.generate("wordproblem", 3, 1)[1][0]:
        if job["kind"] == "normalize":
            words = [line for line in job["text"].splitlines()[1:]]
            from nilq.words import exponent_sums, parse_word

            assert [list(exponent_sums(parse_word(w, job["m"]))) for w in words] == job["exponent_rows"]


def test_stratum_covers_every_stratum_before_repeating():
    picks = [inputs.stratum(i, 7, 3) for i in range(14)]
    assert sorted(picks[:7]) == list(range(7)) and picks[7:] == picks[:7]


def test_compiler_constant_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        _, passes = inputs.generate("compiler", seed, 6)
        return [json.dumps(j["files"]["ring"]).replace("-", "") for p in passes for j in p]

    assert sizes(1) == sizes(2)


def test_wordproblem_work_sizes_do_not_depend_on_the_seed():
    def shape(seed):
        _, passes = inputs.generate("wordproblem", seed, 2)
        return [(j["id"], j["text"] if j["class"] == "normalize" else
                 j["word"].replace("-", "") if ".q2." in j["id"] else None) for p in passes for j in p]

    assert shape(1) == shape(2)


# --- reference times -----------------------------------------------------------


def test_reference_time_scales_by_the_kernel_median_around_the_job():
    probe = speed.Probe()
    probe.starts = [0.0, 0.5, 1.2, 2.9, 3.1, 9.0]
    probe.times = [speed.REFERENCE_S * f for f in (1, 2, 2, 4, 2, 100)]
    # samples in [0.2 - 1, 2.0 + 1]: factors 1, 2, 2, 4 -> median 2
    assert probe.reference(0.2, 1.8) == pytest.approx(0.9)
    probe.sample(3)
    assert len(probe.times) == 9 and all(t > 0 for t in probe.times[6:])


# --- percentiles -------------------------------------------------------------


def test_percentile_on_known_data():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert run.percentile([7.5], 90) == 7.5
    assert run.percentile([1, 2, 3, 4], 0) == 1 and run.percentile([1, 2, 3, 4], 100) == 4
    data = [0.3, 9.1, 2.2, 5.0, 7.7, 1.4, 3.3]
    q = statistics.quantiles(data, n=10, method="inclusive")
    assert run.percentile(data, 50) == pytest.approx(statistics.median(data))
    assert run.percentile(data, 90) == pytest.approx(q[8])
    with pytest.raises(ValueError):
        run.percentile([], 50)


# --- oracles -------------------------------------------------------------------


def flip_digit(text: str, after: str) -> str:
    """Change the first digit following ``after``."""
    start = text.index(after) + len(after)
    for k in range(start, len(text)):
        if text[k].isdigit():
            return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    raise AssertionError("no digit to flip")


def test_return_prob_oracle_accepts_the_program_and_rejects_a_flipped_digit():
    job = {"id": "r", "class": "return-prob", "argv": ["return-prob", "--m", "3", "--n-max", "12"]}
    text = cli_stdout(job["argv"])
    assert oracles.check_return_prob(job, text) is None
    assert oracles.check_return_prob(job, flip_digit(text, "\n7,")) is not None


def test_closed_forms_match_small_direct_counts():
    # closed walks on Z^2 of length 4: 36 = sum over even (k1, k2) of 4!/(k1! k2!) C(k1,k1/2) C(k2,k2/2)
    assert oracles.closed_walk_counts(2, 4) == [1, 0, 4, 0, 36]
    assert oracles.closed_walk_counts(1, 6) == [1, 0, 2, 0, 6, 0, 20]


def test_rank_exp_oracle_rejects_a_flipped_count(workdir):
    cfg = {"m": 3, "r": 3, "lengths": [4, 12], "trials": 25, "seed": 11}
    path = os.path.join(workdir, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    job = {"id": "k", "class": "rank-exp", "argv": ["rank-exp", "{config}"], "files": {"config": cfg}}
    text = cli_stdout(["rank-exp", path])
    assert oracles.check_rank_exp(job, text) is None
    assert oracles.check_rank_exp(job, flip_digit(text, "\n12,25,")) is not None


def test_walks_monte_carlo_oracles_accept_the_program():
    for argv, check in (
        (["clt", "--m", "2", "--n", "300", "--trials", "40", "--seed", "4"], oracles.check_clt),
        (["escape", "--m", "1", "--n", "50", "--n", "400", "--trials", "60", "--seed", "4", ], oracles.check_escape),
        (["sz-check", "--r", "2", "--m", "2", "--b", "1"], oracles.check_sz),
        (["slope", "--m", "2", "--n-lo", "10", "--n-hi", "30"], oracles.check_slope),
    ):
        text = cli_stdout(argv)
        job = {"id": "j", "argv": argv}
        assert check(job, text) is None, argv
        assert check(job, flip_digit(text, "\n" + text.splitlines()[2].split(",")[0] + ",")) is not None, argv


def test_verify_oracle_rejects_a_wrong_solution_count(workdir):
    system = {"variables": ["x", "y"], "equations": [[["+", ["var", "x"], ["var", "y"]], ["const", 2]]]}
    path = os.path.join(workdir, "ring.json")
    with open(path, "w") as fh:
        json.dump(system, fh)
    job = {"id": "v", "class": "verify", "argv": ["verify", "{ring}", "--box-ring", "3", "--box-group", "3"],
           "files": {"ring": system}}
    report = json.loads(cli_stdout(["verify", path, "--box-ring", "3", "--box-group", "3"]))
    assert oracles.check_verify(job, json.dumps(report)) is None
    assert oracles.check_verify(job, json.dumps(dict(report, ring_solutions=report["ring_solutions"] + 1)))
    assert oracles.check_verify(job, json.dumps(dict(report, ok=False)))


def test_gadget_and_normalize_oracles_reject_wrong_outputs():
    assert oracles.check_gadget({}, []) is None
    assert oracles.check_gadget({}, [[1, 2]]) is not None
    job = {"m": 3, "r": 2, "exponent_rows": [[2, 0, 0], [0, 4, 0]]}
    good = {"regime": "VIRTUALLY_ABELIAN", "rank": 2, "invariant_factors": [2, 4]}
    assert oracles.check_normalize(job, good) is None
    assert oracles.check_normalize(job, dict(good, invariant_factors=[1, 8])) is not None
    assert oracles.check_normalize(job, dict(good, regime="FINITE")) is not None


def test_query_oracle_rejects_a_wrong_verdict():
    deciders = ("is_trivial_in_G", "is_trivial_mod_torsion", "is_central_mod_torsion")
    jobs = [{"id": d, "class": "query", "kind": "query", "word_id": "w", "decider": d, "expect_trivial": True}
            for d in deciders]
    assert oracles.check(jobs, {d: True for d in deciders}) == {}
    assert set(oracles.check(jobs, {"is_trivial_in_G": False, "is_trivial_mod_torsion": True,
                                    "is_central_mod_torsion": True})) == set(deciders)
    loose = [dict(j, expect_trivial=None) for j in jobs]
    assert oracles.check(loose, {"is_trivial_in_G": False, "is_trivial_mod_torsion": False,
                                 "is_central_mod_torsion": True}) == {}
    assert oracles.check(loose, {"is_trivial_in_G": False, "is_trivial_mod_torsion": True,
                                 "is_central_mod_torsion": False}) != {}


def test_pins_cover_the_default_seed_jobs():
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    seeded = [j["id"] for w in inputs.WORKLOADS
              for p in inputs.generate(w, inputs.DEFAULT_SEED, inputs.passes_for(w, run.DEFAULT_SECONDS))[1]
              for j in p if j["class"] in oracles.SEEDED]
    assert seeded and set(seeded) <= set(pins)


# --- tracing -------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_them():
    import nilq
    from nilq import diophantine, nilpotent2, randwalk, zmatrix

    before = (nilpotent2.multiply, diophantine.multiply, nilq.multiply, randwalk.zrank, zmatrix.rank)
    tracer = Tracer()
    tracer.install()
    try:
        assert nilpotent2.multiply is diophantine.multiply is nilq.multiply
        assert nilpotent2.multiply is not before[0]
        assert randwalk.zrank is zmatrix.rank is not before[4]
        nilpotent2.power(nilpotent2.generator(2, 1), 5)
    finally:
        tracer.uninstall()
    assert (nilpotent2.multiply, diophantine.multiply, nilq.multiply, randwalk.zrank, zmatrix.rank) == before
    assert tracer.counts["nilpotent2.power.calls"] == 1 and tracer.counts["nilpotent2.multiply.calls"] == 5


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.leave()
    tracer.leave()
    calls, self_s, _ = tracer.aggregate()
    (_, s0, e0, p0, _, _), (_, s1, e1, p1, _, _) = tracer.spans
    assert (p0, p1) == (-1, 0) and calls == {"outer": 1, "inner": 1}
    assert self_s["outer"] == pytest.approx((e0 - s0) - (e1 - s1))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, workdir):
    runner = worker.Runner(workdir)
    once, passes = inputs.generate(workload, 7, 1)
    jobs = [runner.prepare(j) for j in passes[0]]
    if workload == "walks":  # the small jobs; the tables are checked in the full runs
        jobs = [j for j in jobs if j["class"] != "return-prob"][:12]
    elif workload == "wordproblem":
        jobs = [j for j in jobs if j["id"].split(".")[1] in ("0", "3", "6", "8")]
    plain = worker.run_loop(runner, [], [jobs], 1e9)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_loop(runner, [], [jobs], 1e9, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [r[3] for r in plain[0]] == [None] * len(jobs)
    assert [(r[0], r[4]) for r in plain[0]] == [(r[0], r[4]) for r in traced[0]]
    assert len([s for s in tracer.spans if s[0] == "job"]) == len(jobs)


# --- the benchmark's declared contract -----------------------------------------


def test_benchmark_json_matches_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json")) as fh:
        records = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS) == list(records["workloads"])
    assert [m["name"] for m in bench["per_layer"]] == list(records["layer_metrics"])
    empty = {"trace": {"passes": 2, "calls": {}, "self_s": {}, "counts": {}, "arith_s": 0.0, "stdout_bytes": 0,
                       "traced_s": 1.5, "untraced_s": 1.0}}
    reported = run.layer_metrics(empty, {"j": ("query", 0.002, None)}, {})
    assert {name: unit for name, (_, unit, _) in reported.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms",
                                                        "peak_rss_mb"}
