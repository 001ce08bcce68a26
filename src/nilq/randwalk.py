"""Random-walk experiments on free 2-step nilpotent groups.

Covers: full-rank probability of exponent-sum matrices of independent random
words (the abelianized walk), the per-coordinate central limit behaviour with
variance 1/m, escape-probability estimates, exact return-probability tables
with their log-log decay slope -m/2, and an exhaustive Schwartz-Zippel count
for the sum-of-squared-minors polynomial.

Determinism contract: every stochastic experiment derives one RNG stream per
trial as sha256("<seed>:<scale>:<trial>") over the decimal strings, so results
are independent of execution order and identical configs give byte-identical
CSV tables.  Trials never share stream state and all aggregation is
commutative integer accumulation, so a parallel runner would reproduce the
same counts; the built-in runner is sequential.  rank_experiment's stream is
random.Random seeded with the digest as an integer (``trial_rng``).  The
samplers' stream is numpy's Generator(PCG64(that integer)); ``_trial_rngs``
realizes it by running numpy's SeedSequence mixing for a block of trials at
once and letting numpy's PCG64 seed each trial from its state words, and
numpy's own per-trial PCG64 is the oracle the tests hold it to.

Walk convention: one step multiplies by a uniformly chosen generator or
inverse (2m choices, probability 1/2m each); the abelianized position after n
steps has per-coordinate step mean 0 and variance 1/m.  rank_experiment
draws each word's letters from the stream ``words.random_word`` reads, a
block of letters per numpy pass, and tallies their exponent sums;
experiments that only need the per-coordinate sums draw the 2m letter
counts from a multinomial instead, which is the same distribution at a
fraction of the cost, and tally a block of trials' sums per numpy pass.
numpy is imported by the engines that use it, never at module import.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

from .words import (
    MAX_RELATORS,
    MAX_WORD_LETTERS,
    RankLimitError,
    check_rank,
    count_over_limit,
)
from .zmatrix import minor_polynomial, rank as zrank

if TYPE_CHECKING:
    import numpy as np


class ResourceLimitError(Exception):
    """The requested exact table is past the size limit."""


class EnumerationLimitError(Exception):
    """The requested exhaustive enumeration is too large."""


def _stream_digest(seed: int, scale: int, trial: int) -> bytes:
    return hashlib.sha256(f"{seed}:{scale}:{trial}".encode("ascii")).digest()


def stream_seed(seed: int, scale: int, trial: int) -> int:
    """256-bit per-trial seed: sha256 of the decimal string 'seed:scale:trial'."""
    return int.from_bytes(_stream_digest(seed, scale, trial), "big")


def trial_rng(seed: int, scale: int, trial: int) -> random.Random:
    return random.Random(stream_seed(seed, scale, trial))


_SEED_BLOCK = 1024
"""Trials whose SeedSequence state words ``_digest_rngs`` computes in one
numpy pass."""

# numpy's SeedSequence hash constants (pool of 4 words, 16-bit xorshift)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def _hash_constants(init: int, mult: int, calls: int) -> list:
    """The hash constant before each of a hasher's calls and after the last:
    call j xors with entry j and multiplies by entry j + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# pool setup hashes 4 entropy words, 12 pool words and 16 more entropy words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 32)
# generate_state(4, uint64) draws 8 words
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_words(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row e of a
    (B, 8) uint32 array of entropy words, least significant first, as a
    (B, 4) uint64 array.

    This is numpy's SeedSequence run on all rows at once: hash the first 4
    words into the pool, mix every pool word into every other, mix in words
    4 to 7, then draw 8 state words, read as 4 little-endian uint64s.  Each
    step works on every pool word it may at once: the hash constants follow
    a fixed sequence, so a step's calls are rows of one array operation.  A
    row is the entropy of an integer only when its top word is nonzero:
    numpy drops leading zero words, which changes the mixing."""
    import numpy as np

    columns = np.ascontiguousarray(words.T, dtype=np.uint32)
    shift = np.uint32(16)
    hash_a = np.array(_HASH_A, dtype=np.uint32)[:, None]
    hash_b = np.array(_HASH_B, dtype=np.uint32)[:, None]

    def hashmix(values, consts, first, calls):
        # calls first, ..., first + calls - 1 of a hasher, on the rows of values
        values = values ^ consts[first : first + calls]
        values *= consts[first + 1 : first + calls + 1]
        values ^= values >> shift
        return values

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x
        result -= np.uint32(_MIX_MULT_R) * y
        result ^= result >> shift
        return result

    pool = hashmix(columns[:4], hash_a, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], hash_a, 4 + 3 * src, 3))
    hashed = hashmix(np.repeat(columns[4:], 4, axis=0), hash_a, 16, 16)
    for src in range(4):
        pool = mix(pool, hashed[4 * src : 4 * src + 4])
    # generate_state(4, uint64): 8 words, read as little-endian uint64 pairs
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], hash_b, 0, 8)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _digest_rngs(digests: Iterable[bytes]) -> Iterator[np.random.Generator]:
    """For each 32-byte digest d, a new ``Generator(PCG64(s))`` on the stream
    of ``Generator(PCG64(int.from_bytes(d, "big")))``.

    Mixes ``_SEED_BLOCK`` digests per numpy pass (``_seed_words``); s is a
    SeedSequence stand-in that hands PCG64 its trial's 4 state words, and
    numpy's PCG64 seeds itself from them.  A digest whose top 32-bit word
    is 0 (probability 2^-32) is seeded by numpy itself."""
    # importing numpy costs more than most commands; only the walk engines import it
    import numpy as np

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds exactly 4 uint64 state words")
            return self.row

    digests = iter(digests)
    while True:
        block = list(itertools.islice(digests, _SEED_BLOCK))
        if not block:
            return
        words = np.frombuffer(b"".join(block), dtype=">u4").reshape(-1, 8)[:, ::-1]
        for digest, row in zip(block, _seed_words(words)):
            seed = int.from_bytes(digest, "big") if digest[:4] == bytes(4) else StateWords(row)
            yield np.random.Generator(np.random.PCG64(seed))


def _trial_rngs(seed: int, scale: int, trials: int) -> Iterator[np.random.Generator]:
    """For t in range(trials), a Generator on the stream of
    ``Generator(PCG64(stream_seed(seed, scale, t)))``, as ``_digest_rngs``."""
    return _digest_rngs(_stream_digest(seed, scale, t) for t in range(trials))


def _binomial_stderr(p: Fraction, trials: int) -> float:
    return math.sqrt(float(p) * (1.0 - float(p)) / trials)


def _check_walk_rank(m: int) -> None:
    if m < 1:
        raise ValueError("m must be positive")
    check_rank(m)


MAX_SAMPLED_STEPS = 2**63 - 1
"""Most steps n of a walk that ``coordinate_clt_stats`` and
``escape_probability`` sample: numpy's multinomial draws the letter counts
as 64-bit integers."""


def _check_sampled_walk(m: int, n: int, trials: int) -> None:
    _check_walk_rank(m)
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if n > MAX_SAMPLED_STEPS:
        raise ValueError(f"n over {MAX_SAMPLED_STEPS}, the most steps the sampler draws")


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    r: int
    lengths: Tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        values = (self.m, self.r, self.trials, self.seed, *self.lengths)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise TypeError("m, r, trials, seed and lengths must be integers")
        _check_walk_rank(self.m)
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if not self.lengths:
            raise ValueError("lengths must be nonempty")
        if any(n < 1 for n in self.lengths):
            raise ValueError("lengths must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.r > MAX_RELATORS:
            raise RankLimitError(f"{self.r} relators, over the limit of {MAX_RELATORS}")
        if max(self.lengths) > MAX_WORD_LETTERS:
            raise RankLimitError(
                f"length {max(self.lengths)}, over the limit of {MAX_WORD_LETTERS}"
            )


@dataclass(frozen=True)
class RankExperimentRow:
    length: int
    trials: int
    full_rank_count: int
    p_hat: Fraction
    stderr: float


_LETTER_BLOCK = 2**14
"""Most letters ``_exponent_sum_matrices`` draws and tallies in one numpy
pass, whatever the word length and r: a block spans trial and word
boundaries and splits a long word."""


def _letters(block: bytes, n: int) -> np.ndarray:
    """The letter indices ``rng.choices(range(n), k=k)`` returns, from the
    8k bytes of ``rng.getrandbits(64 * k)`` on the same stream, little-endian.

    That reads the 2k Mersenne Twister words k ``random()`` calls would, in
    order, and each pair (w0, w1) is one ``random()``: ((w0 >> 5) 2^26 +
    (w1 >> 6)) 2^-53, an exact float64.  Unweighted ``choices`` picks index
    floor(random() n) with a float64 product, as this does."""
    import numpy as np

    words = np.frombuffer(block, dtype="<u4").reshape(-1, 2)
    x = (words[:, 0] >> 5).astype(np.float64)
    x *= 2.0**26
    x += words[:, 1] >> 6
    x *= 2.0**-53
    x *= n
    return x.astype(np.int64)


def _exponent_sum_matrices(m: int, r: int, length: int, seed: int, trials: int) -> Iterator[list]:
    """For t in range(trials), the r x m exponent-sum matrix of the r words
    that ``random_word(length, m, rng)`` draws in turn from
    ``trial_rng(seed, length, t)``: index k < m counts the letter a_(k+1)
    up, index m + k its inverse down.

    The trials' letters are read as one sequence, ``_LETTER_BLOCK`` at a
    time, each trial's from its own stream (``_letters``).  One
    ``np.bincount`` over (word in the block, letter) gives each word's
    letter counts in the block; a word split between blocks carries its
    partial row into the next one."""
    if r == 0:
        yield from ([] for _ in range(trials))
        return
    import numpy as np

    n = 2 * m
    per_trial = r * length
    t, left, rng = 0, per_trial, trial_rng(seed, length, 0)
    offset = 0  # letters of the first word in the block that earlier blocks drew
    carry, matrix = [0] * m, []
    while True:
        parts, k = [], 0
        while k < _LETTER_BLOCK:
            if not left:
                if t + 1 == trials:
                    break
                t += 1
                left, rng = per_trial, trial_rng(seed, length, t)
            take = min(left, _LETTER_BLOCK - k)
            parts.append(rng.getrandbits(64 * take).to_bytes(8 * take, "little"))
            k += take
            left -= take
        if not k:
            return
        # the block's k letters fill `words` words, the first of which lost
        # offset letters to earlier blocks and the last of which may go on
        end = offset + k
        words = -(-end // length)
        runs = np.full(words, length)
        runs[0] -= offset
        runs[-1] -= words * length - end
        keys = np.repeat(np.arange(0, words * n, n), runs)
        keys += _letters(b"".join(parts), n)
        counts = np.bincount(keys, minlength=words * n).reshape(words, n)
        rows = (counts[:, :m] - counts[:, m:]).tolist()
        rows[0] = [a + b for a, b in zip(carry, rows[0])]
        offset = end % length
        carry = rows.pop() if offset else [0] * m
        for row in rows:
            matrix.append(row)
            if len(matrix) == r:
                yield matrix
                matrix = []


def rank_experiment(cfg: ExperimentConfig) -> list:
    """Full-rank frequency of the r x m exponent-sum matrix of r independent
    random words, per length.

    Each trial checks the rank two independent ways (fraction-free
    elimination, and the sum of squared maximal minors, which is the
    determinant of the Gram matrix) and insists they agree.  The words are
    drawn and tallied a block of letters at a time
    (``_exponent_sum_matrices``), so memory does not grow with r, the
    length or the trials.
    """
    rows = []
    for length in cfg.lengths:
        full = 0
        for M in _exponent_sum_matrices(cfg.m, cfg.r, length, cfg.seed, cfg.trials):
            is_full = zrank(M) == min(cfg.r, cfg.m)
            if is_full != (minor_polynomial(M) != 0):
                raise AssertionError("rank routes disagree")
            full += is_full
        p = Fraction(full, cfg.trials)
        rows.append(
            RankExperimentRow(length, cfg.trials, full, p, _binomial_stderr(p, cfg.trials))
        )
    return rows


def csv_table(config: dict, columns: Sequence[str], rows) -> str:
    """The CSV text of every experiment: a comment line holding config as
    sorted-key JSON, the column line, then one line per row, each cell
    written with str() and bools as true/false."""
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def rank_experiment_csv(cfg: ExperimentConfig, rows: Sequence[RankExperimentRow]) -> str:
    columns = ("length", "trials", "full_rank_count", "p_hat", "stderr")
    return csv_table(asdict(cfg), columns, map(astuple, rows))


def _coordinate_sum_blocks(m: int, n: int, seed: int, trials: int) -> Iterator[np.ndarray]:
    """The trials' coordinate sums, one (B, m) int64 array per block of
    ``_SEED_BLOCK`` trials: each trial's letter counts over the 2m signed
    generators are one multinomial draw on its stream, and coordinate i sums
    count(+i) - count(-i)."""
    import numpy as np

    pvals = np.full(2 * m, 1.0 / (2 * m))
    rngs = _trial_rngs(seed, n, trials)
    while True:
        counts = np.array([rng.multinomial(n, pvals) for rng in itertools.islice(rngs, _SEED_BLOCK)])
        if not len(counts):
            return
        yield counts[:, 0::2] - counts[:, 1::2]


@dataclass(frozen=True)
class CltSummary:
    m: int
    n: int
    trials: int
    seed: int
    means: Tuple[float, ...]
    variances: Tuple[float, ...]
    variance_stderrs: Tuple[float, ...]
    sup_distances: Tuple[float, ...]


def _normal_cdf(x: float, m: int) -> float:
    # N(0, 1/m) distribution function
    return 0.5 * (1.0 + math.erf(x * math.sqrt(m / 2.0)))


def coordinate_clt_stats(m: int, n: int, trials: int, seed: int) -> CltSummary:
    """Sample statistics of the normalized coordinate sums s_{n,i}/sqrt(n).

    Sums and sums of squares are accumulated as exact integers; the variance
    estimate is the unbiased sample variance converted from an exact rational
    at the end.  Its reported standard error uses the normal approximation
    var * sqrt(2/(trials-1)).  sup_distances compares the empirical CDF with
    the N(0, 1/m) one on a fixed 41-point grid spanning [-4, 4] standard
    deviations.  The trials are streamed: each coordinate keeps, per grid
    point, the count of its sums between that threshold and the one before,
    so memory does not grow with trials.  An m below 1 raises ValueError,
    one over MAX_RANK RankLimitError.
    """
    _check_sampled_walk(m, n, trials)
    import numpy as np

    sqrt_n = math.sqrt(n)
    sigma = 1.0 / math.sqrt(m)
    grid = [(-4.0 + 8.0 * j / 40.0) * sigma for j in range(41)]
    thresholds = [x * sqrt_n for x in grid]
    cuts = np.array([math.floor(t) + 1 for t in thresholds])
    bins = len(cuts) + 1
    sums = [0] * m
    squares = [0] * m
    # between[i * bins + k]: coordinate i's sums above thresholds[k - 1], at
    # most thresholds[k]; an integer v is above t exactly when v >= floor(t) + 1
    between = np.zeros(m * bins, dtype=np.int64)
    offsets = np.arange(0, m * bins, bins)
    for block in _coordinate_sum_blocks(m, n, seed, trials):
        for i, column in enumerate(block.T.tolist()):
            sums[i] += sum(column)
            squares[i] += sum(map(operator.mul, column, column))
        bin_of = np.searchsorted(cuts, block, side="right") + offsets
        between += np.bincount(bin_of.ravel(), minlength=m * bins)
    means = tuple(float(Fraction(sums[i], trials)) / sqrt_n for i in range(m))
    variances = []
    for i in range(m):
        if trials == 1:
            variances.append(0.0)
            continue
        num = Fraction(squares[i]) - Fraction(sums[i] ** 2, trials)
        variances.append(float(num / ((trials - 1) * n)))
    var_se = tuple(v * math.sqrt(2.0 / (trials - 1)) if trials > 1 else float("inf") for v in variances)
    # the empirical CDF at each threshold: the running sums of between
    sups = tuple(
        max(abs(at_most / trials - _normal_cdf(x, m))
            for at_most, x in zip(itertools.accumulate(counts), grid))
        for counts in between.reshape(m, bins).tolist()
    )
    return CltSummary(m, n, trials, seed, means, tuple(variances), var_se, sups)


def clt_csv(s: CltSummary) -> str:
    cfg = {"m": s.m, "n": s.n, "trials": s.trials, "seed": s.seed}
    columns = ("coordinate", "mean", "variance", "variance_stderr", "sup_distance")
    rows = zip(range(1, s.m + 1), s.means, s.variances, s.variance_stderrs, s.sup_distances)
    return csv_table(cfg, columns, rows)


@dataclass(frozen=True)
class EscapeEstimate:
    m: int
    n: int
    trials: int
    seed: int
    epsilon: float
    count: int
    p_hat: Fraction
    stderr: float


def escape_probability(
    m: int, n: int, trials: int, seed: int, epsilon: Optional[float] = None
) -> EscapeEstimate:
    """Estimate of P(|s_{n,1}/sqrt(n)| >= epsilon), epsilon defaulting to ln n.

    The first coordinate stands for all by symmetry.  Since |s_{n,1}| <= n,
    any epsilon > sqrt(n) makes the probability exactly zero; the default
    ln n never does (ln n < sqrt(n) for all n >= 1), so the zero regime is
    only reachable through the override.  An infinite epsilon gives exactly
    0 or 1, and a NaN one raises ValueError, as does an m below 1; an m over
    MAX_RANK raises RankLimitError.
    """
    _check_sampled_walk(m, n, trials)
    eps = math.log(n) if epsilon is None else float(epsilon)
    if math.isnan(eps):
        raise ValueError("epsilon must not be NaN")
    threshold = eps * math.sqrt(n)
    count = 0
    if threshold <= n:
        # an integer |s| is at least threshold exactly when it is at least its ceiling
        cut = math.ceil(max(threshold, 0.0))
        for block in _coordinate_sum_blocks(m, n, seed, trials):
            count += int((abs(block[:, 0]) >= cut).sum())
    p = Fraction(count, trials)
    return EscapeEstimate(m, n, trials, seed, eps, count, p, _binomial_stderr(p, trials))


def escape_csv(estimates: Sequence[EscapeEstimate]) -> str:
    if not estimates:
        raise ValueError("need at least one estimate")
    first = estimates[0]
    cfg = {"m": first.m, "seed": first.seed, "trials": first.trials}
    rows = ((e.n, e.epsilon, e.count, e.p_hat, e.stderr) for e in estimates)
    return csv_table(cfg, ("n", "epsilon", "count", "p_hat", "stderr"), rows)


# Largest n_max that return_probability_exact accepts.
RETURN_N_MAX_LIMIT = 1000

# Most matrices that schwartz_zippel_check enumerates.
SCHWARTZ_ZIPPEL_LIMIT = 4_000_000


@dataclass(frozen=True)
class ReturnTable:
    """values[n] = p_n(0) + p_{n+1}(0) for the 2m-choice walk on Z^m, as
    exact Fractions.  ``exact`` is always True; the CSV header reports it."""

    m: int
    n_max: int
    exact: bool
    values: Tuple[Fraction, ...]


def return_probability_exact(m: int, n_max: int) -> ReturnTable:
    """Exact table of return probabilities for n <= n_max <= RETURN_N_MAX_LIMIT.

    A closed walk of length n on Z^m spends k steps on the first m-1 axes and
    n-k on the last, so its count is the binomial convolution
    N^(m)_n = sum_k C(n, k) N^(m-1)_k C(n-k, (n-k)/2), starting from the 1-D
    central binomials (zero at odd lengths); p_n(0) = N^(m)_n / (2m)^n.  The
    slowest table allowed, m=3 at n_max=1000, builds in about 1 s on a 2-vCPU
    x86-64 VM; a larger n_max raises ResourceLimitError before any work.
    """
    if m not in (1, 2, 3):
        raise ValueError("m must be 1, 2, or 3")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > RETURN_N_MAX_LIMIT:
        raise ResourceLimitError(
            f"n_max {n_max} is over the exact table limit {RETURN_N_MAX_LIMIT}"
        )
    n_total = n_max + 1
    one = [math.comb(k, k // 2) if k % 2 == 0 else 0 for k in range(n_total + 1)]
    counts = one
    for _ in range(m - 1):
        convolved = []
        for n in range(n_total + 1):
            c, total = 1, 0  # c = C(n, k)
            for k in range(n + 1):
                total += c * counts[k] * one[n - k]
                c = c * (n - k) // (k + 1)
            convolved.append(total)
        counts = convolved
    denom = 1
    values = []
    for n in range(n_max + 1):
        values.append(Fraction(counts[n], denom) + Fraction(counts[n + 1], denom * 2 * m))
        denom *= 2 * m
    return ReturnTable(m, n_max, True, tuple(values))


def return_table_csv(table: ReturnTable) -> str:
    cfg = {"exact": table.exact, "m": table.m, "n_max": table.n_max}
    return csv_table(cfg, ("n", "return_prob_sum"), enumerate(table.values))


@dataclass(frozen=True)
class DecayFit:
    m: int
    n_lo: int
    n_hi: int
    slope: float
    intercept: float
    points: Tuple[Tuple[int, float], ...]


def decay_slope(m: int, n_range: Tuple[int, int]) -> DecayFit:
    """Least-squares slope of log(p_n(0)+p_{n+1}(0)) against log n over even n.

    The local limit theorem makes this approach -m/2.  Odd n are skipped
    because the parity-split sum is dominated by the even term anyway and the
    even subsequence is strictly positive.
    """
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    table = return_probability_exact(m, hi)
    ns = [n for n in range(lo, hi + 1) if n % 2 == 0]
    if len(ns) < 2:
        raise ValueError("degenerate range: need at least two even points")
    vals = [float(table.values[n]) for n in ns]
    if min(vals) == max(vals):
        raise ValueError("degenerate range: constant values")
    if min(vals) <= 0.0:
        raise ValueError("nonpositive table values in range")
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in vals]
    k = len(ns)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    return DecayFit(m, lo, hi, slope, intercept, tuple(zip(ns, vals)))


def decay_fit_csv(fit: DecayFit) -> str:
    cfg = {"m": fit.m, "n_lo": fit.n_lo, "n_hi": fit.n_hi}
    row = (fit.m, fit.n_lo, fit.n_hi, fit.slope, fit.intercept)
    return csv_table(cfg, ("m", "n_lo", "n_hi", "slope", "intercept"), [row])


@dataclass(frozen=True)
class SchwartzZippelResult:
    r: int
    m: int
    box_halfwidth: int
    total: int
    degree: int
    zero_count: int
    bound: int
    holds: bool


def schwartz_zippel_check(r: int, m: int, box_halfwidth: int) -> SchwartzZippelResult:
    """Exhaustive zero count of the sum-of-squared-minors polynomial.

    Enumerates every r x m integer matrix with entries in [-b, b], counts
    those of non-maximal rank (the polynomial's zeros), and compares with the
    bound d * |I|^(rm-1) for d = 2*min(r, m), the polynomial's degree.  More
    than SCHWARTZ_ZIPPEL_LIMIT matrices raise EnumerationLimitError.
    """
    if r < 1 or m < 1 or box_halfwidth < 1:
        raise ValueError("r, m, box_halfwidth must be positive")
    side = 2 * box_halfwidth + 1
    # decided before a count of perhaps millions of digits is built
    message = count_over_limit(side, r * m, SCHWARTZ_ZIPPEL_LIMIT, "matrices")
    if message:
        raise EnumerationLimitError(message)
    total = side ** (r * m)
    zero_count = 0
    box_rows = itertools.product(range(-box_halfwidth, box_halfwidth + 1), repeat=m)
    for M in itertools.product(box_rows, repeat=r):
        if minor_polynomial(M) == 0:
            zero_count += 1
    degree = 2 * min(r, m)
    bound = degree * side ** (r * m - 1)
    return SchwartzZippelResult(
        r, m, box_halfwidth, total, degree, zero_count, bound, zero_count <= bound
    )


def schwartz_zippel_csv(res: SchwartzZippelResult) -> str:
    cfg = {"b": res.box_halfwidth, "m": res.m, "r": res.r}
    columns = ("r", "m", "b", "total", "degree", "zero_count", "bound", "holds")
    return csv_table(cfg, columns, [astuple(res)])
