"""Seeded input generation for the three benchmark workloads.

Imports nothing from nilq: the program only ever sees the texts, argument
lists and JSON files produced here.  Every random draw comes from
``random.Random`` streams keyed by a string, so the same seed gives the same
inputs on any platform and independent of PYTHONHASHSEED.

A workload's inputs are a list of *passes*.  Every pass runs the same fixed
mix of job slots; the seed only fills in the content of each slot (words,
relator lengths, signs of constants, experiment seeds).  The sizes that set
a job's cost follow the slot and the pass index (see ``stratum``), so runs
of different seeds do the same amount of work.  How many passes a run
measures follows from its ``--seconds`` alone, never from how fast the
program is, so every run of a seed measures exactly the same jobs.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 20260822
WORKLOADS = ("wordproblem", "walks", "compiler")

# Typical seconds one pass took at the commit that defined the benchmark, on
# a 2-vCPU x86-64 virtual machine with Python 3.11 (whose speed varied by a
# factor of 1.5 to 2 over the day).  A run of --seconds S
# executes its passes ROUNDS times, each round in a fresh process, so it
# measures round(S / (ROUNDS * PASS_SECONDS)) passes, but at least
# MIN_PASSES (100 jobs or more), whatever the speed of the program under
# test.  walks runs a fourth round: its exact return tables are bound by
# memory traffic, which the speed kernel (speed.py) tracks less well.
PASS_SECONDS = {"wordproblem": 2.1, "walks": 3.5, "compiler": 1.4}
MIN_PASSES = {"wordproblem": 1, "walks": 2, "compiler": 6}
ROUNDS = {"wordproblem": 3, "walks": 4, "compiler": 3}

# Stream for the wordproblem abelianization library.  Fixed on purpose: the
# cost of Nielsen replay is set mostly by the Smith reduction of the
# exponent-sum matrix and spans two orders of magnitude between matrices, so
# drawing the matrices from the workload seed would make one run's total
# time hinge on a few unlucky draws.  Each slot keeps one matrix (drawn once
# from random words of the slot's shape); the words that realize it come
# from this stream too, by pass index, and the seed draws the queries.
LIBRARY_STREAM = "perfbench-wordproblem-library-v1"

# (m, r, shortest, longest relator length), two library matrices each.
# r = 3 relators stop at 14 letters: from about 15 on, single presentations
# take seconds to minutes in the word-level Nielsen replay, and one of them
# would set the whole run's time.
WORDPROBLEM_SHAPES = (
    (3, 2, 10, 20),
    (3, 2, 20, 30),
    (3, 3, 8, 12),
    (4, 2, 10, 20),
    (4, 2, 20, 40),
    (4, 3, 8, 12),
    (5, 2, 10, 20),
    (5, 2, 20, 40),
    (5, 3, 8, 12),
    (5, 3, 12, 14),
)
WORDPROBLEM_SLOTS = WORDPROBLEM_SHAPES * 2
DECIDERS = ("is_trivial_in_G", "is_trivial_mod_torsion", "is_central_mod_torsion", "is_c_small")

# The one request per walks run that is past the exact engine's state limit.
WALKS_OVER_LIMIT = ("return-prob", "--m", "3", "--n-max", "120")


def stream(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def stratum(index: int, count: int, offset: int) -> int:
    """Which of ``count`` strata pass ``index`` draws from.  The passes walk
    the strata in one fixed order that alternates low and high (0, count-1,
    1, count-2, ...), starting ``offset`` steps in, so successive passes
    cover every stratum before any repeats, and a run of a given number of
    passes covers the same strata whatever the seed."""
    k = (index + offset) % count
    return k // 2 if k % 2 == 0 else count - 1 - k // 2


def banded(index: int, rng: random.Random, lo: int, hi: int, strata: int, offset: int) -> int:
    """Integer in [lo, hi]: the ``stratum`` of ``strata`` equal sub-bands,
    the position inside it from ``rng``."""
    width = (hi - lo + 1) / strata
    return lo + int(width * (stratum(index, strata, offset) + rng.random()))


def with_sign(rng: random.Random, size: int) -> int:
    return size if rng.random() < 0.5 else -size


def signed(index: int, rng: random.Random, bound: int, offset: int) -> int:
    """Integer in [-bound, bound]: its size the ``stratum`` of 0..bound,
    its sign from ``rng``."""
    return with_sign(rng, stratum(index, bound + 1, offset))


# --- words ---------------------------------------------------------------


def free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def reduced_word(rng: random.Random, m: int, length: int):
    out = []
    while len(out) < length:
        x = rng.choice([k for k in range(-m, m + 1) if k])
        if not (out and out[-1] == -x):
            out.append(x)
    return out


def inverse_word(letters):
    return [-x for x in reversed(letters)]


def exponent_sums(letters, m: int):
    sums = [0] * m
    for x in letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


def word_text(letters) -> str:
    """Letters as word text, runs merged into powers."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        e = (j - i) if letters[i] > 0 else -(j - i)
        parts.append(f"a{abs(letters[i])}" if e == 1 else f"a{abs(letters[i])}^{e}")
        i = j
    return " ".join(parts)


def fraction_rank(rows) -> int:
    """Rank over Q by Gauss elimination on Fractions."""
    A = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c] / A[rank][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def realize(rng: random.Random, sums, length: int):
    """Freely reduced random word with the given exponent sums and about
    ``length`` letters: the forced letters plus cancelling pairs, shuffled."""
    letters = []
    for i, v in enumerate(sums, start=1):
        letters += [i if v > 0 else -i] * abs(v)
    m = len(sums)
    while len(letters) + 2 <= length:
        k = rng.randint(1, m)
        letters += [k, -k]
    rng.shuffle(letters)
    return free_reduce(letters)


def exponent_library():
    """One full-rank exponent-sum matrix per wordproblem slot (fixed)."""
    rng = random.Random(LIBRARY_STREAM)
    library = []
    for m, r, lo, hi in WORDPROBLEM_SLOTS:
        while True:
            rows = [exponent_sums(reduced_word(rng, m, (lo + hi) // 2), m) for _ in range(r)]
            if fraction_rank(rows) == min(r, m):
                break
        library.append(rows)
    return library


# --- wordproblem ---------------------------------------------------------


def _queries(rng: random.Random, m: int, relators, index: int, slot: int):
    """Three (query word, trivial in G or None if unknown): a product of
    relator conjugates, that product times a short random word, and a power
    word.  Replay cost grows with the number and length of the conjugates
    and the power word's exponents and swings with its generators, so those
    sizes follow the pass index and the slot, and the seed draws the rest:
    which relators, the letters of conjugators and noise, the signs."""
    conj = []
    for t in range(2 + stratum(index, 2, slot)):
        rel = rng.choice(relators)
        if rng.random() < 0.5:
            rel = inverse_word(rel)
        u = reduced_word(rng, m, 1 + stratum(index, 3, slot + t))
        conj += u + rel + inverse_word(u)
    noisy = conj + reduced_word(rng, m, 1 + stratum(index, 4, slot))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    i, j = pairs[stratum(index, len(pairs), 3 * slot)]
    k, l, c = (with_sign(rng, 1 + stratum(index, size, offset))
               for size, offset in ((36, 7 * slot), (36, 7 * slot + 18), (12, 5 * slot)))
    power = f"a{i}^{k} a{j}^{l} [a{i},a{j}]^{c}"
    return [(word_text(conj), True), (word_text(noisy), None), (power, None)]


def wordproblem_pass(seed: int, index: int, library):
    jobs = []
    for slot, ((m, r, lo, hi), rows) in enumerate(zip(WORDPROBLEM_SLOTS, library)):
        # The relator words follow the pass index, like the matrices: the
        # cost of Nielsen replay, and of every query through it, swings
        # with the words, and seed-drawn words moved job_p90_ms by a third
        # from seed to seed.  The seed draws the queries.
        fixed = stream(LIBRARY_STREAM, "relators", index, slot)
        length = banded(index, fixed, lo, hi, 8, slot)
        relators = [realize(fixed, row, length) for row in rows]
        rng = stream(seed, "wordproblem", index, slot)
        pid = f"p{index}.{slot}"
        text = f"{m} 2\n" + "\n".join(word_text(w) for w in relators) + "\n"
        jobs.append({"id": pid, "class": "normalize", "kind": "normalize", "m": m, "r": r,
                     "text": text, "exponent_rows": rows})
        deciders = DECIDERS if r <= m - 2 else DECIDERS[:3]
        for q, (word, trivial) in enumerate(_queries(rng, m, relators, index, slot)):
            for d in deciders:
                jobs.append({"id": f"{pid}.q{q}.{d}", "class": "query", "kind": "query",
                             "presentation": pid, "m": m, "word": word,
                             "word_id": f"{pid}.q{q}", "decider": d, "expect_trivial": trivial})
    return jobs


# --- walks ---------------------------------------------------------------


def walks_pass(seed: int, index: int):
    """One pass: 42 small Monte Carlo jobs and 8 exact return tables.

    The seed draws the experiments' own seeds; every size (trials, lengths,
    n, n_max) follows the slot and the pass index instead, so runs of
    different seeds do the same amount of work.  The walk engines' cost is
    set by those sizes, and drawing them would move job_p50_ms, job_p90_ms
    and peak_rss_mb from seed to seed."""
    rng = stream(seed, "walks", index)
    jobs = []
    phase = (index % 4) / 3  # where in each size band this pass sits

    def cli(name, argv, files=None):
        jobs.append({"id": f"w{index}.{len(jobs)}", "class": name, "kind": "cli",
                     "argv": list(argv), "files": files or {}})

    def grid(lo, hi, k, count):
        """The k-th of ``count`` equal sub-bands of [lo, hi], ``phase`` of the way in."""
        return lo + round((hi - lo) * (k + phase) / count)

    for k in range(14):
        m = 2 + k % 3
        cfg = {"m": m, "r": 1 + k % m, "lengths": [grid(8, 16, 0, 1), grid(30, 60, k % 2, 2)],
               "trials": grid(20, 40, k % 2, 2), "seed": rng.randrange(10**6)}
        cli("rank-exp", ["rank-exp", "{config}"], {"config": cfg})
    for k in range(10):
        cli("clt", ["clt", "--m", str(2 + k % 2), "--n", str(grid(500, 5000, k % 5, 5)),
                    "--trials", str(grid(150, 300, k % 2, 2)), "--seed", str(rng.randrange(10**6))])
    for k in range(10):
        argv = ["escape", "--m", str(1 + k % 3), "--n", str(grid(100, 1000, k % 2, 2)),
                "--n", str(grid(1001, 2000, k % 2, 2))]
        cli("escape", argv + ["--trials", str(grid(150, 300, k % 2, 2)), "--seed", str(rng.randrange(10**6))])
    for r, m, b in [(1, 2, 2), (2, 2, 1), (1, 3, 2), (2, 2, 2), (1, 4, 1)]:
        cli("sz-check", ["sz-check", "--r", str(r), "--m", str(m), "--b", str(b)])
    cli("slope", ["slope", "--m", "1", "--n-lo", str(grid(10, 40, 0, 1)), "--n-hi", str(grid(120, 200, 0, 1))])
    cli("slope", ["slope", "--m", "1", "--n-lo", str(grid(4, 10, 0, 1)), "--n-hi", str(grid(30, 100, 0, 1))])
    cli("slope", ["slope", "--m", "2", "--n-lo", str(grid(10, 20, 0, 1)), "--n-hi", str(grid(40, 60, 0, 1))])
    for m, lo, hi, count in ((1, 50, 200, 2), (2, 40, 120, 3), (3, 20, 40, 3)):
        for k in range(count):
            cli("return-prob", ["return-prob", "--m", str(m), "--n-max", str(grid(lo, hi, k, count))])
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order]


# --- compiler ------------------------------------------------------------


def _var(name):
    return ["var", name]


# Ring-system shapes (1-3 variables, + and *) with the group box each gets.
COMPILER_SHAPES = (
    ("x+c=d", 5), ("c*x=d", 5), ("x*x=c", 4), ("x+y=c", 5), ("x+c=y", 4), ("x*y=c", 3),
    ("x+y=c,x=d", 5), ("x+y=z", 3), ("x+y+c=z", 3), ("x*c=y", 3), ("x+c=d", 3), ("x+y=c", 4),
    ("x+c=d", 4), ("c*x=d", 3), ("x*x=c", 3), ("x+y=c", 3), ("x+c=y", 3), ("x+y=c,x=d", 4),
)


def ring_system(shape: str, c: int, d: int):
    """The ring system of a shape with constants ``c`` and ``d`` (shapes
    with one constant use ``c``)."""
    x, y, z = _var("x"), _var("y"), _var("z")
    c, d = ["const", c], ["const", d]
    if shape == "x+c=d":
        return {"variables": ["x"], "equations": [[["+", x, c], d]]}
    if shape == "c*x=d":
        return {"variables": ["x"], "equations": [[["*", c, x], d]]}
    if shape == "x*x=c":
        return {"variables": ["x"], "equations": [[["*", x, x], c]]}
    if shape == "x+y=c":
        return {"variables": ["x", "y"], "equations": [[["+", x, y], c]]}
    if shape == "x+c=y":
        return {"variables": ["x", "y"], "equations": [[["+", x, c], y]]}
    if shape == "x*y=c":
        return {"variables": ["x", "y"], "equations": [[["*", x, y], c]]}
    if shape == "x+y=c,x=d":
        return {"variables": ["x", "y"], "equations": [[["+", x, y], c], [x, d]]}
    if shape == "x+y=z":
        return {"variables": ["x", "y", "z"], "equations": [[["+", x, y], z]]}
    if shape == "x+y+c=z":
        return {"variables": ["x", "y", "z"], "equations": [[["+", ["+", x, y], c], z]]}
    if shape == "x*c=y":
        return {"variables": ["x", "y"], "equations": [[["*", x, c], y]]}
    raise ValueError(shape)


def compiler_pass(seed: int, index: int):
    jobs = []
    for slot, (shape, box_group) in enumerate(COMPILER_SHAPES):
        rng = stream(seed, "compiler", index, slot)
        # The solver's cost swings tenfold with the constants' sizes (for
        # c*x=d, |d| = 6 is quick and every other d is not), so the sizes
        # follow the pass index and the seed draws the signs.  A constant
        # inside a product needs an auxiliary of its size, so it stays
        # within the group box: beyond it verify rightly reports missing
        # extensions.  Constants lie in [-6, 6].
        bound = box_group if shape in ("c*x=d", "x*c=y") else 6
        c = stratum(index, 7, slot) if shape == "x*x=c" else signed(index, rng, bound, slot)
        system = ring_system(shape, c, signed(index, rng, 6, slot + 3))
        jobs.append({"id": f"c{index}.{slot}", "class": "verify", "kind": "cli",
                     "argv": ["verify", "{ring}", "--box-ring", "3", "--box-group", str(box_group)],
                     "files": {"ring": system}})
    return jobs


# --- entry ---------------------------------------------------------------


def once_jobs(workload: str):
    """Jobs run once per run, at the start of the timed loop."""
    if workload == "walks":
        return [{"id": "over-limit", "class": "return-prob", "kind": "cli",
                 "argv": list(WALKS_OVER_LIMIT), "files": {}}]
    if workload == "compiler":
        return [{"id": "gadget", "class": "gadget", "kind": "gadget", "t_max": 2, "aux_bound": 2}]
    return []


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES[workload], round(seconds / (ROUNDS[workload] * PASS_SECONDS[workload])))


def generate(workload: str, seed: int, npasses: int):
    """(once-per-run jobs, list of passes) for a workload and seed."""
    if workload == "wordproblem":
        library = exponent_library()
        passes = [wordproblem_pass(seed, i, library) for i in range(npasses)]
    elif workload == "walks":
        passes = [walks_pass(seed, i) for i in range(npasses)]
    elif workload == "compiler":
        passes = [compiler_pass(seed, i) for i in range(npasses)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return once_jobs(workload), passes
