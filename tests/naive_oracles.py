"""Naive reference implementations that the tests check the library against.

Each one recomputes a result the slow, literal way and shares no code path
with the routine it checks: collection of a letter sequence by adjacent
swaps (for ``from_word``, ``from_syllables`` and ``multiply``), a
character-by-character scanner of the word grammar (for ``parse_word``),
Q-span membership by a rank comparison (for ``Echelon.rational_residue``),
the elementary operations of a Smith log applied one at a time, the
schoolbook matrix product and the determinant by cofactor expansion (for
``smith_normal_form``, the Hermite transform and ``minor_polynomial``),
substitution into a word and collection of the result (for
``express_in_normalized_basis``), the lift of V collected letter by letter
and the Nielsen replay of a whole Smith log on relator elements by group
multiplication (for ``normalize``), the probe-and-test scan of a box of
alphas and gammas (for the group solver's candidate walk), the letters of
one ``rng.choices`` call counted by a ``Counter`` (for ``rank_experiment``'s
block draw), numpy's own PCG64 seeded one trial at a time with one
multinomial per trial (for the samplers' block seeding and block tallies),
and the empirical CDF read off every trial's sums, kept and sorted (for the
streamed CLT statistics).  ``traced_peak`` measures the memory a call
allocates, for the tests that bound it.
"""

import itertools
import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from collections import Counter
from functools import lru_cache
from typing import List, Tuple

from nilq.nilpotent2 import (
    MalcevElement,
    Polynomial,
    commutator,
    generator,
    inverse,
    multiply,
    pair_list,
    power,
)
from nilq.randwalk import CltSummary, _normal_cdf, stream_seed
from nilq.words import MAX_WORD_LETTERS, Word, WordSyntaxError, check_rank
from nilq.zmatrix import ElementaryOp, rank


@lru_cache(maxsize=None)
def _pair_index_map(m: int):
    return {p: t for t, p in enumerate(pair_list(m))}


def pair_index(m: int, i: int, j: int) -> int:
    """The gamma index of the pair (i, j), i < j, 1-based."""
    return _pair_index_map(m)[(i, j)]


def matmul(A, B) -> tuple:
    """The product of the rows A by the rows B, each entry summed row by
    column, as row tuples."""
    if any(len(row) != len(B) for row in A):
        raise ValueError("dimension mismatch")
    columns = list(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in columns) for row in A)


def view_rows(M) -> tuple:
    """The rows of one of the Smith form's views D, U and V, as tuples."""
    return tuple(M.row(i) for i in range(M.rows))


def cofactor_det(rows) -> int:
    """The determinant of the square rows by cofactor expansion along the
    first row, skipping its zero entries; 1 for no rows."""
    if not rows:
        return 1
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def letter_word(letters, m: int) -> Word:
    """The word of a signed letter sequence (+k is a_k, -k its inverse), one
    unit syllable per letter."""
    return Word(tuple((abs(l), 1 if l > 0 else -1) for l in letters), m)


def collection_oracle(w: Word) -> MalcevElement:
    """Collect a word letter by letter by literal rewriting; deliberately naive.

    Expands each syllable a_k^e into |e| letters, then repeatedly applies
    a_t^e a_s^d -> a_s^d a_t^e [a_s, a_t]^(-e*d) for adjacent letters with
    t > s until the sequence is sorted by generator index, tracking the
    central commutator letters on the side, then merges exponents.
    Quadratic and slow.
    """
    m = w.m
    letters = [k if e > 0 else -k for k, e in w.syllables for _ in range(abs(e))]
    gamma = [0] * (m * (m - 1) // 2)
    changed = True
    while changed:
        changed = False
        for p in range(len(letters) - 1):
            l1, l2 = letters[p], letters[p + 1]
            if abs(l1) > abs(l2):
                letters[p], letters[p + 1] = l2, l1
                e = 1 if l1 > 0 else -1
                d = 1 if l2 > 0 else -1
                gamma[pair_index(m, abs(l2), abs(l1))] -= e * d
                changed = True
    alpha = [0] * m
    for l in letters:
        alpha[abs(l) - 1] += 1 if l > 0 else -1
    return MalcevElement(m, tuple(alpha), tuple(gamma))


def substituted_collection(w: Word, images) -> MalcevElement:
    """w with each letter a_k^(+-1) replaced by the word of images[k-1], or
    its inverse, then collected letter by letter.  The word of an element
    (x | g) is a_1^x_1 ... a_m^x_m followed by [a_p, a_q]^g_pq at each pair."""
    m = w.m
    words = []
    for x in images:
        syllables = [(c + 1, e) for c, e in enumerate(x.alpha) if e]
        for (p, q), g in zip(pair_list(m), x.gamma):
            bracket = ((p, -1), (q, -1), (p, 1), (q, 1))
            syllables.extend((bracket if g > 0 else _inverted(bracket)) * abs(g))
        words.append(tuple(syllables))
    out = []
    for k, e in w.syllables:
        out.extend((words[k - 1] if e > 0 else _inverted(words[k - 1])) * abs(e))
    return collection_oracle(Word(tuple(out), m))


Syllable = Tuple[int, int]


def _inverted(syllables) -> Tuple[Syllable, ...]:
    return tuple((k, -e) for k, e in reversed(syllables))


def _check_word_length(n: int) -> None:
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"word expands to {n} letters, over the limit of {MAX_WORD_LETTERS}")


def _token_int(digits: str, at: int) -> int:
    """int(digits), except that ASCII digits int() refuses, which can only be
    too many of them, are a WordSyntaxError at ``at``."""
    try:
        return int(digits)
    except ValueError:
        n = len(digits.lstrip("+-"))
        if not digits.isascii():
            raise
        raise WordSyntaxError(f"integer of {n} digits is too long", at) from None


def scanner_parse_word(text: str, m: int) -> Word:
    """``parse_word`` by a recursive-descent scan, one character at a time.

    Digits are ``str.isdigit`` characters, so a superscript digit such as
    '²' reaches ``int()`` and raises its bare ValueError where ``parse_word``
    raises a WordSyntaxError.
    """
    check_rank(m)
    pos = 0
    n = len(text)
    # one tuple per distinct syllable: a long text repeats few of them, and a
    # tuple each would cost 64 bytes a token against 8 for a reference
    interned: dict = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_exponent() -> int:
        """The nonzero integer after a '^', or 1 without one."""
        nonlocal pos
        if pos >= n or text[pos] != "^":
            return 1
        pos += 1
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if not text[start:pos].lstrip("+-"):
            raise WordSyntaxError("expected integer", start)
        e = _token_int(text[start:pos], start)
        if e == 0:
            raise WordSyntaxError("zero exponent not allowed", start)
        return e

    def parse_sequence(stops: str) -> Tuple[List[Syllable], int]:
        """The syllables up to a stop character, and their letter count."""
        nonlocal pos
        syllables: List[Syllable] = []
        count = 0
        while True:
            skip_ws()
            if pos >= n or text[pos] in stops:
                return syllables, count
            item, item_count = parse_item()
            count += item_count
            _check_word_length(count)
            syllables.extend(item)

    def parse_item() -> Tuple[Tuple[Syllable, ...], int]:
        nonlocal pos
        start = pos
        if text[pos] == "a":
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == dstart:
                raise WordSyntaxError("expected generator index after 'a'", dstart)
            k = _token_int(text[dstart:pos], dstart)
            if not (1 <= k <= m):
                raise WordSyntaxError(f"generator index {k} out of range 1..{m}", start)
            e = parse_exponent()
            _check_word_length(abs(e))
            return (interned.setdefault((k, e), (k, e)),), abs(e)
        if text[pos] == "[":
            pos += 1
            u, u_count = parse_sequence(",")
            skip_ws()
            if pos >= n or text[pos] != ",":
                raise WordSyntaxError("expected ',' in commutator", pos)
            pos += 1
            v, v_count = parse_sequence("]")
            skip_ws()
            if pos >= n or text[pos] != "]":
                raise WordSyntaxError("expected ']' closing commutator", pos)
            pos += 1
            count = 2 * (u_count + v_count)
            _check_word_length(count)
            base = _inverted(u) + _inverted(v) + tuple(u + v)
            e = parse_exponent()
            _check_word_length(count * abs(e))
            return (base if e > 0 else _inverted(base)) * abs(e), count * abs(e)
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)

    syllables, _ = parse_sequence("")
    skip_ws()
    if pos < n:
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    return Word(tuple(syllables), m)


def rational_membership(basis, target) -> bool:
    """True iff target lies in the Q-span of basis.

    Equivalently, some nonzero integer multiple of target lies in the Z-span.
    Decided by a rank comparison (Bareiss), independent of the HNF path.
    """
    basis = [list(v) for v in basis]
    target = list(target)
    for v in basis:
        if len(v) != len(target):
            raise ValueError("basis vector dimension mismatch")
    if not basis:
        return all(v == 0 for v in target)
    return rank(basis + [target]) == rank(basis)


def apply_op(M, op: ElementaryOp) -> tuple:
    """Apply one logged elementary operation to a fresh copy of the rows M,
    returned as row tuples."""
    A = [list(row) for row in M]
    k = op.kind
    if k == "row_add":
        for j in range(len(A[op.dst])):
            A[op.dst][j] += op.mult * A[op.src][j]
    elif k == "col_add":
        for row in A:
            row[op.dst] += op.mult * row[op.src]
    elif k == "row_swap":
        A[op.src], A[op.dst] = A[op.dst], A[op.src]
    elif k == "col_swap":
        for row in A:
            row[op.src], row[op.dst] = row[op.dst], row[op.src]
    elif k == "row_negate":
        A[op.src] = [-v for v in A[op.src]]
    elif k == "col_negate":
        for row in A:
            row[op.src] = -row[op.src]
    else:
        raise ValueError(f"unknown op kind {k!r}")
    return tuple(map(tuple, A))


def lift_basis(np_):
    """The generators' images under normalize's basis change, recomputed: V
    as the column ops of np_'s Smith log applied one at a time to the
    identity, then each a_k's image, the word a_1^V_k1 ... a_m^V_km,
    collected letter by letter."""
    m = np_.m
    V = [[int(i == j) for j in range(m)] for i in range(m)]
    for op in np_.snf.ops:
        if op.kind.startswith("col"):
            V = apply_op(V, op)
    return tuple(
        collection_oracle(Word(tuple((c + 1, e) for c, e in enumerate(V[k]) if e), m))
        for k in range(m)
    )


def relator_replay(p, np_, basis=None):
    """(basis images, rewritten relators, closure lattice) of the
    presentation p by replaying np_'s Smith log as Nielsen moves with
    multiply(power(...)).

    Row ops act on the relators as elements.  The basis images are
    ``basis`` when given (``lift_basis`` for normalize's own), and
    otherwise the column ops replayed as generator moves, the log walked
    backwards.  The rewritten relators are the replayed ones over the new
    basis: a_i^alpha_i c_i for i < rank, then the central ones.  The closure
    lattice holds [h_i, a_g] for each of the first rank of them and g != i,
    then the nonzero gammas of the rest.
    """
    m, k = np_.m, np_.snf.rank
    relators = list(p.relators)
    for op in np_.snf.ops:
        if op.kind == "row_add":
            relators[op.dst] = multiply(power(relators[op.src], op.mult), relators[op.dst])
        elif op.kind == "row_swap":
            relators[op.src], relators[op.dst] = relators[op.dst], relators[op.src]
        elif op.kind == "row_negate":
            relators[op.src] = inverse(relators[op.src])
    if basis is None:
        basis = [generator(m, g) for g in range(1, m + 1)]
        for op in reversed(np_.snf.ops):
            if op.kind == "col_add":
                basis[op.src] = multiply(power(basis[op.dst], op.mult), basis[op.src])
            elif op.kind == "col_swap":
                basis[op.src], basis[op.dst] = basis[op.dst], basis[op.src]
            elif op.kind == "col_negate":
                basis[op.src] = inverse(basis[op.src])
    rewritten = tuple(Polynomial(h, range(m))(basis, m) for h in relators)
    lattice = tuple(
        commutator(h, generator(m, g)).gamma
        for i, h in enumerate(rewritten[:k])
        for g in range(1, m + 1)
        if g != i + 1
    ) + tuple(h.gamma for h in rewritten[k:] if any(h.gamma))
    return tuple(basis), rewritten, lattice


def plain_candidates(forms, ambient, bounds, spend):
    """The elements of the box with half-width bounds[j] in coordinate j,
    alpha then gamma, in the plain scan's order (0, 1, -1, 2, -2, ... per
    coordinate, the first slowest), whose alpha makes ``ambient.is_trivial``
    hold for every affine form (a0, g0, L): the element with alpha a0 and
    gamma g0 + sum_k alpha[k] L_k.  Each point is charged 1 through
    ``spend`` when it is tested."""
    m = ambient.m

    @lru_cache(maxsize=None)
    def admitted(alpha):
        return all(
            ambient.is_trivial(MalcevElement(m, a0, tuple(
                g + sum(a * row[t] for a, row in zip(alpha, slope)) for t, g in enumerate(g0)
            )))
            for a0, g0, slope in forms
        )

    values = [[0] + [v for k in range(1, b + 1) for v in (k, -k)] for b in bounds]
    for point in itertools.product(*values):
        spend()
        if admitted(point[:m]):
            yield MalcevElement(m, point[:m], point[m:])


def np_trial_rng(seed: int, scale: int, trial: int):
    """numpy's Generator on the trial's stream, seeded by numpy's own
    SeedSequence and PCG64 from the 256-bit stream seed."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(stream_seed(seed, scale, trial)))


def per_trial_coordinate_sums(m: int, n: int, seed: int, trials: int):
    """Each trial's coordinate sums, a list per trial: one multinomial draw
    of the 2m letter counts on ``np_trial_rng``, coordinate i summing
    count(+i) - count(-i)."""
    pvals = [1.0 / (2 * m)] * (2 * m)
    for t in range(trials):
        counts = np_trial_rng(seed, n, t).multinomial(n, pvals).tolist()
        yield [counts[2 * i] - counts[2 * i + 1] for i in range(m)]


def per_trial_clt_stats(m: int, n: int, seed: int, rows) -> CltSummary:
    """``coordinate_clt_stats`` over the sums rows, one list per trial,
    tallied a trial at a time: exact integer sums and squares, and each sum's
    bin among the float thresholds by ``bisect_left``."""
    trials = len(rows)
    sqrt_n = math.sqrt(n)
    sigma = 1.0 / math.sqrt(m)
    grid = [(-4.0 + 8.0 * j / 40.0) * sigma for j in range(41)]
    thresholds = [x * sqrt_n for x in grid]
    sums, squares = [0] * m, [0] * m
    between = [[0] * 42 for _ in range(m)]
    for s in rows:
        for i, v in enumerate(s):
            sums[i] += v
            squares[i] += v * v
            between[i][bisect_left(thresholds, v)] += 1
    means = tuple(float(Fraction(sums[i], trials)) / sqrt_n for i in range(m))
    variances = tuple(
        float((Fraction(squares[i]) - Fraction(sums[i] ** 2, trials)) / ((trials - 1) * n))
        if trials > 1 else 0.0 for i in range(m))
    var_se = tuple(v * math.sqrt(2.0 / (trials - 1)) if trials > 1 else float("inf")
                   for v in variances)
    sups = tuple(
        max(abs(at_most / trials - _normal_cdf(x, m))
            for at_most, x in zip(itertools.accumulate(counts), grid))
        for counts in between)
    return CltSummary(m, n, trials, seed, means, variances, var_se, sups)


def random_exponent_sums(length: int, m: int, rng: random.Random) -> list:
    """The exponent sums of the word ``random_word(length, m, rng)`` draws,
    from the same single rng.choices call, counted by a Counter: index k < m
    is the letter a_(k+1), index m + k its inverse."""
    counts = Counter(rng.choices(range(2 * m), k=length))
    return [counts[k] - counts[m + k] for k in range(m)]


def sorted_sample_sup_distances(m: int, n: int, trials: int, seed: int) -> Tuple[float, ...]:
    """``coordinate_clt_stats``' sup_distances from every trial's sums, kept
    and sorted per coordinate: at each of the 41 grid points x, the share
    of sums at most x sqrt(n), by bisection, against the N(0, 1/m) CDF."""
    sqrt_n = math.sqrt(n)
    sigma = 1.0 / math.sqrt(m)
    grid = [(-4.0 + 8.0 * j / 40.0) * sigma for j in range(41)]
    samples = [[] for _ in range(m)]
    for s in per_trial_coordinate_sums(m, n, seed, trials):
        for i, v in enumerate(s):
            samples[i].append(v)
    sups = []
    for xs in map(sorted, samples):
        worst = 0.0
        for x in grid:
            worst = max(worst, abs(bisect_right(xs, x * sqrt_n) / trials - _normal_cdf(x, m)))
        sups.append(worst)
    return tuple(sups)


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
