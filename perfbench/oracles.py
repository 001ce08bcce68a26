"""Output oracles for every benchmark job, independent of nilq.

Nothing here imports nilq: each check recomputes what it needs from the
job's input with code written for the benchmark (Fraction elimination,
closed forms, brute-force enumeration, and the documented per-trial stream
contract sha256("seed:scale:trial")).  ``check`` returns, for each job id
whose output is wrong, the reason.  Jobs that raised or exited nonzero have
no output to check; they already count as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from math import comb, gcd

from inputs import fraction_rank

# --- exact linear algebra --------------------------------------------------


def fraction_det(rows) -> Fraction:
    A = [[Fraction(v) for v in row] for row in rows]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, n):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return det


def invariant_factors(rows):
    """Smith invariant factors from determinantal divisors: d_k is the gcd
    of all k x k minors and the k-th factor is d_k / d_(k-1)."""
    r, m = len(rows), len(rows[0])
    factors, prev = [], 1
    for k in range(1, min(r, m) + 1):
        d = 0
        for rs in itertools.combinations(range(r), k):
            for cs in itertools.combinations(range(m), k):
                d = gcd(d, int(fraction_det([[rows[i][j] for j in cs] for i in rs])))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def expected_regime(m: int, r: int, full_rank: bool) -> str:
    if not full_rank:
        return "INCONCLUSIVE"
    if r <= m - 2:
        return "UNDECIDABLE_REGULAR"
    if r == m - 1:
        return "VIRTUALLY_ABELIAN"
    if r == m:
        return "FINITE"
    return "FINITE_ABELIAN"


# --- wordproblem -------------------------------------------------------------


def check_normalize(job, out):
    rows = job["exponent_rows"]
    rank = fraction_rank(rows)
    want = {"regime": expected_regime(job["m"], job["r"], rank == min(job["r"], job["m"])),
            "rank": rank, "invariant_factors": invariant_factors(rows)}
    if out != want:
        return f"normalize gave {out}, expected {want}"
    return None


def check_query_groups(jobs, outputs, bad):
    """Decider implications per query word: trivial => trivial mod torsion
    => central mod torsion; a product of relator conjugates is trivial."""
    groups = {}
    for job in jobs:
        if job["kind"] == "query":
            groups.setdefault(job["word_id"], []).append(job)
    for group in groups.values():
        verdicts = {j["decider"]: outputs[j["id"]] for j in group if j["id"] in outputs}
        reasons = []
        if any(not isinstance(v, bool) for v in verdicts.values()):
            reasons.append("non-boolean verdict")
        chain = [verdicts.get(d) for d in ("is_trivial_in_G", "is_trivial_mod_torsion",
                                           "is_central_mod_torsion")]
        for a, b in zip(chain, chain[1:]):
            if a is True and b is False:
                reasons.append(f"implication broken: {chain}")
        if group[0]["expect_trivial"] and any(v is False for v in chain):
            reasons.append(f"relator conjugate product not trivial: {chain}")
        if reasons:
            for j in group:
                bad[j["id"]] = "; ".join(reasons)


# --- walks -------------------------------------------------------------------


def stream_seed(seed: int, scale: int, trial: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{scale}:{trial}".encode("ascii")).digest(), "big")


def _csv(text: str):
    lines = text.strip("\n").split("\n")
    if not lines[0].startswith("# config: "):
        raise ValueError("missing config line")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    return config, [dict(zip(header, line.split(","))) for line in lines[2:]]


def _args(argv):
    """--name value pairs of a CLI argument list (repeated names collect)."""
    out = {}
    for k in range(1, len(argv) - 1):
        if argv[k].startswith("--"):
            out.setdefault(argv[k][2:].replace("-", "_"), []).append(argv[k + 1])
    return out


def closed_walk_counts(m: int, n_max: int):
    """N_n(0) for n <= n_max: closed walks of length n on Z^m with 2m steps.

    The multinomial sum  sum n!/prod k_i! prod C(k_i, k_i/2)  over even k_i,
    grouped by the last coordinate into a binomial convolution with the 1-D
    counts C(k, k/2)."""
    one = [comb(n, n // 2) if n % 2 == 0 else 0 for n in range(n_max + 1)]
    counts = one
    for _ in range(m - 1):
        counts = [sum(comb(n, k) * counts[k] * one[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
    return counts


def return_values(m: int, n_max: int):
    counts = closed_walk_counts(m, n_max + 1)
    return [Fraction(counts[n], (2 * m) ** n) + Fraction(counts[n + 1], (2 * m) ** (n + 1))
            for n in range(n_max + 1)]


def check_return_prob(job, text):
    a = _args(job["argv"])
    m, n_max = int(a["m"][0]), int(a["n_max"][0])
    config, rows = _csv(text)
    if config != {"exact": True, "m": m, "n_max": n_max}:
        return f"config {config}"
    got = [(int(r["n"]), Fraction(r["return_prob_sum"])) for r in rows]
    if got != list(enumerate(return_values(m, n_max))):
        return "return probabilities differ from the closed form"
    return None


def full_rank_count(m, r, length, trials, seed):
    alphabet = list(range(1, m + 1)) + [-k for k in range(1, m + 1)]
    full = 0
    for t in range(trials):
        rng = random.Random(stream_seed(seed, length, t))
        rows = []
        for _ in range(r):
            word = rng.choices(alphabet, k=length)
            rows.append([word.count(k) - word.count(-k) for k in range(1, m + 1)])
        full += fraction_rank(rows) == min(r, m)
    return full


def check_rank_exp(job, text):
    cfg = job["files"]["config"]
    config, rows = _csv(text)
    if config != cfg:
        return f"config {config}"
    if [int(r["length"]) for r in rows] != cfg["lengths"]:
        return "lengths differ"
    for row in rows:
        count = full_rank_count(cfg["m"], cfg["r"], int(row["length"]), cfg["trials"], cfg["seed"])
        p = Fraction(count, cfg["trials"])
        want = (str(cfg["trials"]), str(count), str(p), repr(math.sqrt(float(p) * (1.0 - float(p)) / cfg["trials"])))
        if (row["trials"], row["full_rank_count"], row["p_hat"], row["stderr"]) != want:
            return f"length {row['length']}: got {row}, expected full_rank_count {count}"
    return None


def coordinate_sums(m, n, seed, trials):
    import numpy as np

    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(stream_seed(seed, n, t)))
        counts = rng.multinomial(n, [1.0 / (2 * m)] * (2 * m))
        yield [int(counts[2 * i]) - int(counts[2 * i + 1]) for i in range(m)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_clt(job, text):
    a = _args(job["argv"])
    m, n, trials, seed = (int(a[k][0]) for k in ("m", "n", "trials", "seed"))
    config, rows = _csv(text)
    if config != {"m": m, "n": n, "trials": trials, "seed": seed} or len(rows) != m:
        return f"config {config}"
    sums, squares = [0] * m, [0] * m
    for s in coordinate_sums(m, n, seed, trials):
        for i, v in enumerate(s):
            sums[i] += v
            squares[i] += v * v
    for i, row in enumerate(rows):
        mean = sums[i] / trials / math.sqrt(n)
        var = float((Fraction(squares[i]) - Fraction(sums[i] ** 2, trials)) / ((trials - 1) * n))
        if not (row["coordinate"] == str(i + 1) and _close(float(row["mean"]), mean)
                and _close(float(row["variance"]), var)
                and _close(float(row["variance_stderr"]), var * math.sqrt(2.0 / (trials - 1)))):
            return f"coordinate {i + 1}: got {row}, expected mean {mean} variance {var}"
        if not 0.0 <= float(row["sup_distance"]) <= 1.0:
            return f"coordinate {i + 1}: sup distance out of range"
    return None


def check_escape(job, text):
    a = _args(job["argv"])
    m, trials, seed = int(a["m"][0]), int(a["trials"][0]), int(a["seed"][0])
    ns = [int(v) for v in a["n"]]
    config, rows = _csv(text)
    if config != {"m": m, "seed": seed, "trials": trials} or [int(r["n"]) for r in rows] != ns:
        return f"config {config}"
    for n, row in zip(ns, rows):
        eps = math.log(n)
        count = sum(abs(s[0]) >= eps * math.sqrt(n) for s in coordinate_sums(m, n, seed, trials))
        p = Fraction(count, trials)
        want = {"n": str(n), "epsilon": repr(eps), "count": str(count), "p_hat": str(p),
                "stderr": repr(math.sqrt(float(p) * (1.0 - float(p)) / trials))}
        if row != want:
            return f"n={n}: got {row}, expected {want}"
    return None


def check_sz(job, text):
    a = _args(job["argv"])
    r, m, b = int(a["r"][0]), int(a["m"][0]), int(a["b"][0])
    config, rows = _csv(text)
    side = 2 * b + 1
    zeros = sum(
        fraction_rank([entries[i * m:(i + 1) * m] for i in range(r)]) < min(r, m)
        for entries in itertools.product(range(-b, b + 1), repeat=r * m)
    )
    degree = 2 * min(r, m)
    bound = degree * side ** (r * m - 1)
    want = {"r": str(r), "m": str(m), "b": str(b), "total": str(side ** (r * m)), "degree": str(degree),
            "zero_count": str(zeros), "bound": str(bound), "holds": str(zeros <= bound).lower()}
    if config != {"b": b, "m": m, "r": r} or rows != [want]:
        return f"got {rows}, expected {want}"
    return None


def check_slope(job, text):
    a = _args(job["argv"])
    m, lo, hi = int(a["m"][0]), int(a["n_lo"][0]), int(a["n_hi"][0])
    config, rows = _csv(text)
    if config != {"m": m, "n_lo": lo, "n_hi": hi} or len(rows) != 1:
        return f"config {config}"
    values = return_values(m, hi)
    ns = [n for n in range(lo, hi + 1) if n % 2 == 0]
    xs = [math.log(n) for n in ns]
    ys = [math.log(float(values[n])) for n in ns]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    intercept = my - slope * mx
    row = rows[0]
    if not ((row["m"], row["n_lo"], row["n_hi"]) == (str(m), str(lo), str(hi))
            and _close(float(row["slope"]), slope) and _close(float(row["intercept"]), intercept)):
        return f"got {rows[0]}, expected slope {slope} intercept {intercept}"
    return None


# --- compiler ----------------------------------------------------------------


def eval_ring_term(node, env) -> int:
    head = node[0]
    if head == "const":
        return node[1]
    if head == "var":
        return env[node[1]]
    if head == "+":
        return eval_ring_term(node[1], env) + eval_ring_term(node[2], env)
    if head == "*":
        return eval_ring_term(node[1], env) * eval_ring_term(node[2], env)
    raise ValueError(f"term head {head!r}")


def ring_solution_count(system, bound: int) -> int:
    names = system["variables"]
    return sum(
        all(eval_ring_term(lhs, env) == eval_ring_term(rhs, env) for lhs, rhs in system["equations"])
        for env in (dict(zip(names, values))
                    for values in itertools.product(range(-bound, bound + 1), repeat=len(names)))
    )


def check_verify(job, text):
    a = _args(job["argv"])
    box_ring, box_group = int(a["box_ring"][0]), int(a["box_group"][0])
    system = job["files"]["ring"]
    report = json.loads(text)
    k = len(system["variables"])
    want_ring = ring_solution_count(system, box_ring)
    problems = []
    if report.get("ok") is not True or report.get("missing_extensions") or report.get("bad_projections"):
        problems.append("not ok")
    if report.get("ring_solutions") != want_ring:
        problems.append(f"ring_solutions {report.get('ring_solutions')} != brute force {want_ring}")
    if report.get("grid_points") != (2 * box_group + 1) ** k:
        problems.append(f"grid_points {report.get('grid_points')}")
    if not 0 <= report.get("solvable_points", -1) <= ring_solution_count(system, box_group):
        problems.append(f"solvable_points {report.get('solvable_points')}")
    return "; ".join(problems) or None


def check_gadget(job, failures):
    return f"gadget law failures {failures}" if failures != [] else None


CHECKS = {
    "normalize": check_normalize,
    "return-prob": check_return_prob,
    "rank-exp": check_rank_exp,
    "clt": check_clt,
    "escape": check_escape,
    "sz-check": check_sz,
    "slope": check_slope,
    "verify": check_verify,
    "gadget": check_gadget,
}
SEEDED = ("rank-exp", "clt", "escape")


def check(jobs, outputs, pins=None):
    """{job id: reason} for every job whose output fails its oracle.

    ``jobs`` holds every job that ran and ``outputs`` the output of each
    one that finished.  ``pins`` maps job ids of the default seed to the
    sha256 of their stdout; those bytes are compared too."""
    bad = {}
    for job in jobs:
        out = outputs.get(job["id"])
        if out is None or job["class"] not in CHECKS:
            continue
        try:
            reason = CHECKS[job["class"]](job, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None and pins is not None and job["id"] in pins:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if pins.get(job["id"]) != digest:
                reason = f"stdout sha256 {digest} differs from the pinned {pins.get(job['id'])}"
        if reason:
            bad[job["id"]] = reason
    check_query_groups(jobs, outputs, bad)
    return bad
