"""Random walk experiments: determinism, exact tables, frozen oracle values."""

import dataclasses
import inspect
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nilq import randwalk, zmatrix
from nilq.randwalk import (
    RETURN_N_MAX_LIMIT,
    EnumerationLimitError,
    ExperimentConfig,
    ResourceLimitError,
    coordinate_clt_stats,
    clt_csv,
    decay_slope,
    escape_csv,
    escape_probability,
    rank_experiment,
    rank_experiment_csv,
    return_probability_exact,
    return_table_csv,
    schwartz_zippel_check,
    stream_seed,
    trial_rng,
)
from nilq.words import Word, exponent_sums, random_word

from naive_oracles import (
    coordinate_cdf,
    escape_law,
    np_trial_rng,
    per_trial_clt_stats,
    per_trial_coordinate_sums,
    random_exponent_sums,
    sorted_sample_sup_distances,
    traced_peak,
    two_relator_full_rank_law,
)


def _binom(n, k):
    return math.comb(n, k)


def test_stream_seed_distinct_and_stable():
    a = stream_seed(7, 100, 3)
    assert a == stream_seed(7, 100, 3)
    assert a != stream_seed(7, 100, 4)
    assert a != stream_seed(7, 101, 3)
    assert a != stream_seed(8, 100, 3)
    # derived python streams agree too
    assert trial_rng(7, 100, 3).random() == trial_rng(7, 100, 3).random()


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m=0, r=1, lengths=(10,), trials=5, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, r=-1, lengths=(10,), trials=5, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, r=1, lengths=(), trials=5, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, r=1, lengths=(0,), trials=5, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, r=1, lengths=(10,), trials=0, seed=1)


def test_rank_experiment_deterministic():
    cfg = ExperimentConfig(m=2, r=2, lengths=(6, 12), trials=60, seed=424)
    rows1 = rank_experiment(cfg)
    rows2 = rank_experiment(cfg)
    assert rows1 == rows2
    for row in rows1:
        assert 0 <= row.full_rank_count <= row.trials
        assert row.p_hat == Fraction(row.full_rank_count, row.trials)
    assert rank_experiment_csv(cfg, rank_experiment(cfg)) == rank_experiment_csv(cfg, rows1)


def test_rank_experiment_r_zero_always_full():
    cfg = ExperimentConfig(m=2, r=0, lengths=(5,), trials=10, seed=1)
    (row,) = rank_experiment(cfg)
    assert row.p_hat == 1


def test_rank_experiment_tallies_the_draws_of_random_word(monkeypatch):
    # the same rng.choices call as random_word: equal exponent sums and the
    # stream left in the same place
    for m, length, seed in ((1, 0, 1), (2, 7, 2), (3, 50, 3), (5, 301, 4)):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(3):
            sums = random_exponent_sums(length, m, rng)
            assert tuple(sums) == exponent_sums(random_word(length, m, oracle))
        assert rng.random() == oracle.random()

    # no Word is built, so no letter is validated again
    def no_words(self):
        raise AssertionError("rank_experiment built a Word")

    cfg = ExperimentConfig(m=3, r=6, lengths=(50,), trials=2, seed=5)
    expected = rank_experiment(cfg)
    monkeypatch.setattr(Word, "__post_init__", no_words)
    assert rank_experiment(cfg) == expected

    # a trial holds one word's letter indices at a time
    def peak(r):
        return traced_peak(lambda: rank_experiment(
            ExperimentConfig(m=2, r=r, lengths=(20_000,), trials=1, seed=1)))[1]

    assert peak(8) < 1.5 * peak(1)


def test_cpython_draws_that_the_block_draw_reads():
    # a release that changes any of these changes every rank-exp output
    for seed in (1, 2**200 + 3):
        rng, words = random.Random(seed), random.Random(seed)
        # random() is two 32-bit Mersenne Twister words
        for _ in range(5):
            w0, w1 = words.getrandbits(32), words.getrandbits(32)
            assert rng.random() == ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2.0**-53
        # getrandbits(64 k) reads the same 2k words, least significant first
        for k in (1, 3, 64):
            big = rng.getrandbits(64 * k)
            assert big == sum(words.getrandbits(32) << 32 * i for i in range(2 * k))
        assert rng.getstate() == words.getstate()
        # unweighted choices is floor(random() n), one random() per letter
        for n in (2, 6, 10, 128):
            picks = rng.choices(range(n), k=50)
            assert picks == [math.floor(words.random() * n) for _ in range(50)]
        assert rng.getstate() == words.getstate()


def _choices_matrices(m, r, length, seed, trials):
    for t in range(trials):
        rng = trial_rng(seed, length, t)
        yield [random_exponent_sums(length, m, rng) for _ in range(r)]


_L = randwalk._LETTER_BLOCK


@pytest.mark.parametrize("m", [1, 2, 5, 64])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_block_draw_matches_the_choices_route(m, r):
    # lengths at the block size, where a word fills a block or splits over
    # two; at the short lengths a trial straddles a block
    for length in (3, 7, _L - 1, _L, _L + 1):
        trials = _L // (r * length) + 2 if r and length < 8 else 2
        expected = list(_choices_matrices(m, r, length, 11, trials))
        assert list(randwalk._exponent_sum_matrices(m, r, length, 11, trials)) == expected


@pytest.mark.parametrize("block", [1, 5, 12])
def test_block_draw_carries_words_across_small_blocks(monkeypatch, block):
    # a word of 12 letters over blocks of 5 spans three blocks
    monkeypatch.setattr(randwalk, "_LETTER_BLOCK", block)
    for m, r, length, trials in ((2, 3, 12, 4), (3, 2, 5, 3), (1, 4, 1, 5), (4, 1, 13, 2)):
        expected = list(_choices_matrices(m, r, length, 3, trials))
        assert list(randwalk._exponent_sum_matrices(m, r, length, 3, trials)) == expected


# the acceptance seed and one more; k, the standard errors allowed, was fixed
# before the first run
_EXACT_LAW_SEEDS = (20260822, 1)
_EXACT_LAW_K = 4


@pytest.mark.parametrize("seed", _EXACT_LAW_SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank_experiment_at_one_relator_meets_its_exact_law(m, seed):
    # a 1 x m exponent-sum matrix is deficient iff the walk is back at 0, so
    # p_full = 1 - p_l(0): that is 1 - values[l] at even l (values[l] adds
    # p_(l+1)(0), which is 0 there) and exactly 1 at odd l
    lengths, trials = (10, 11, 40, 100), 2000
    table = return_probability_exact(m, max(lengths))
    for row in rank_experiment(ExperimentConfig(m=m, r=1, lengths=lengths, trials=trials,
                                                seed=seed)):
        if row.length % 2:
            assert row.p_hat == 1, row
            continue
        p = 1 - table.values[row.length]
        assert abs(row.p_hat - p) <= _EXACT_LAW_K * math.sqrt(p * (1 - p) / trials), (row, float(p))


@pytest.mark.parametrize("seed", _EXACT_LAW_SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_escape_probability_meets_its_exact_law(m, seed):
    # |s_1| >= eps sqrt(n) exactly when |s_1| >= ceil(eps sqrt(n)), s_1 being
    # an integer; the default eps = ln n is left out, as its p falls to 1e-25
    # at these n, where a normal z score says nothing
    trials = 2000
    for n in (10, 11, 100, 401):
        for eps in (0.5, 1.0):
            est = escape_probability(m, n, trials, seed, eps)
            p = escape_law(m, n, math.ceil(eps * math.sqrt(n)))
            assert abs(est.p_hat - p) <= _EXACT_LAW_K * math.sqrt(p * (1 - p) / trials), (est, float(p))


def test_two_relator_law_reproduces_the_probe():
    # the exact values a dict DP over endpoints gave at the ROADMAP's probe
    for (m, length), p in {(2, 10): 0.77502, (2, 100): 0.96292, (3, 10): 0.94091}.items():
        assert round(float(two_relator_full_rank_law(m, length)), 5) == p


@pytest.mark.parametrize("seed", _EXACT_LAW_SEEDS)
@pytest.mark.parametrize("m, lengths", [(2, (10, 11, 40, 100)), (3, (10, 11, 40))])
def test_rank_experiment_at_two_relators_meets_its_exact_law(m, lengths, seed):
    # m = 2 is the square case; (3, 2, 100) is left out, as its law takes
    # about 9 s to build
    trials = 2000
    for row in rank_experiment(ExperimentConfig(m=m, r=2, lengths=lengths, trials=trials,
                                                seed=seed)):
        p = two_relator_full_rank_law(m, row.length)
        assert abs(row.p_hat - p) <= _EXACT_LAW_K * math.sqrt(p * (1 - p) / trials), (row, float(p))


def _positive_pivot_bareiss():
    """``zmatrix._bareiss`` with one fault: it pivots only on positive
    entries, so it stops early, and reads det 0, where every entry left is
    negative or zero."""
    source = inspect.getsource(zmatrix._bareiss)
    assert source.count("if A[i][j]:") == 1
    namespace = {}
    exec(source.replace("if A[i][j]:", "if A[i][j] > 0:"), vars(zmatrix).copy(), namespace)
    return namespace["_bareiss"]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rank_routes_disagree_on_a_faulty_square_elimination(monkeypatch, m):
    # at r = m the Gram route eliminates M M^T, not M, so the check sees an
    # elimination fault that shows on M alone
    mutant = _positive_pivot_bareiss()
    monkeypatch.setattr(zmatrix, "_bareiss", mutant)
    monkeypatch.setattr(randwalk, "_bareiss", mutant)
    with pytest.raises(AssertionError, match="rank routes disagree"):
        rank_experiment(ExperimentConfig(m=m, r=m, lengths=(12,), trials=200, seed=20260822))


def test_rank_experiment_csv_shape():
    cfg = ExperimentConfig(m=2, r=1, lengths=(4,), trials=8, seed=99)
    text = rank_experiment_csv(cfg, rank_experiment(cfg))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "length,trials,full_rank_count,p_hat,stderr"
    assert len(lines) == 3
    assert '"seed": 99' in lines[0]


def test_clt_stats_deterministic_and_plausible():
    s1 = coordinate_clt_stats(2, 400, 300, 17)
    s2 = coordinate_clt_stats(2, 400, 300, 17)
    assert s1 == s2
    for i in range(2):
        # crude sanity; the acceptance suite checks 5% at scale
        assert abs(s1.means[i]) < 0.3
        assert 0.25 < s1.variances[i] < 0.75
        assert 0.0 <= s1.sup_distances[i] <= 1.0
    text = clt_csv(s1)
    assert text.splitlines()[1] == "coordinate,mean,variance,variance_stderr,sup_distance"
    assert len(text.splitlines()) == 4


def test_clt_single_trial_variance_degenerate():
    s = coordinate_clt_stats(2, 10, 1, 5)
    assert s.variances == (0.0, 0.0)
    assert all(math.isinf(v) for v in s.variance_stderrs)


@pytest.mark.parametrize("m, n, trials, seed", [
    # at n = 16 and m in (1, 4) grid thresholds fall on integer sums, so
    # ties between a sum and a threshold are exercised
    (1, 16, 500, 1), (4, 16, 300, 2), (3, 40, 200, 3), (2, 10, 1, 5), (64, 1000, 20, 6),
    (2, 7, 50, 7)])
def test_clt_sup_distances_match_the_sorted_samples(m, n, trials, seed):
    s = coordinate_clt_stats(m, n, trials, seed)
    assert s.sup_distances == sorted_sample_sup_distances(m, n, trials, seed)


def test_escape_default_epsilon_is_log_n():
    e = escape_probability(2, 100, 50, 3)
    assert e.epsilon == pytest.approx(math.log(100))
    assert e.p_hat == 0  # ln(100)*10 = 46 is far out in the tail


def test_escape_epsilon_overrides():
    # threshold above the walk range: exactly zero
    e = escape_probability(2, 50, 40, 3, epsilon=8.0)
    assert 8.0 > math.sqrt(50)
    assert e.p_hat == 0
    # threshold zero: every trial escapes
    e = escape_probability(2, 50, 40, 3, epsilon=0.0)
    assert e.p_hat == 1
    text = escape_csv([e])
    assert text.splitlines()[1] == "n,epsilon,count,p_hat,stderr"


def test_escape_epsilon_nan_raises_and_infinities_are_exact():
    # every comparison with NaN is false, so NaN counted no escapes
    with pytest.raises(ValueError, match="NaN"):
        escape_probability(2, 1, 1, 1, epsilon=math.nan)
    assert escape_probability(2, 50, 40, 3, epsilon=math.inf).p_hat == 0
    assert escape_probability(2, 50, 40, 3, epsilon=-math.inf).p_hat == 1


@pytest.mark.parametrize("m, n, trials", [
    (1, 16, 300), (4, 16, 300), (2, 2**53 + 1, 40), (3, randwalk.MAX_SAMPLED_STEPS, 40)])
def test_clt_matches_the_per_trial_oracle(m, n, trials):
    rows = list(per_trial_coordinate_sums(m, n, 8, trials))
    assert coordinate_clt_stats(m, n, trials, 8) == per_trial_clt_stats(m, n, 8, rows)


def _thresholds(m, n):
    sigma = 1.0 / math.sqrt(m)
    return [(-4.0 + 8.0 * j / 40.0) * sigma * math.sqrt(n) for j in range(41)]


@pytest.mark.parametrize("m, n", [(1, 16), (4, 16), (1, 2**53 + 1), (2, 2**53 + 1),
                                  (1, randwalk.MAX_SAMPLED_STEPS), (3, randwalk.MAX_SAMPLED_STEPS)])
def test_clt_integer_cuts_bin_sums_at_the_thresholds(monkeypatch, m, n):
    # at n = 16 and m in (1, 4) some thresholds are integral floats; every
    # threshold t is met by the sums floor(t) - 1, floor(t), floor(t) + 1
    values = sorted({v for t in _thresholds(m, n) for v in (math.floor(t) - 1, math.floor(t),
                                                              math.floor(t) + 1, -n, n)
                     if -n <= v <= n})
    rows = [[values[(k + i) % len(values)] for i in range(m)] for k in range(len(values))]
    monkeypatch.setattr(randwalk, "_coordinate_sum_blocks",
                        lambda *args: iter([np.array(rows[:9]), np.array(rows[9:])]))
    assert coordinate_clt_stats(m, n, len(rows), 4) == per_trial_clt_stats(m, n, 4, rows)


@pytest.mark.parametrize("m, n, epsilon", [
    (1, 16, 0.0), (1, 16, -1.5), (1, 16, math.inf), (1, 16, 1e400), (1, 16, -math.inf),
    # eps sqrt(n) = 4.0 and 2.0, which sums at even n meet, and 16.0 = n
    (1, 16, 1.0), (2, 16, 0.5), (1, 16, 4.0), (1, 16, 4.25),
    (2, 2**53 + 1, 1e-8), (1, randwalk.MAX_SAMPLED_STEPS, 1e-9), (2, randwalk.MAX_SAMPLED_STEPS, 1e10)])
def test_escape_matches_the_per_trial_oracle(m, n, epsilon):
    trials = 300 if n == 16 else 40
    threshold = epsilon * math.sqrt(n)
    count = sum(abs(s[0]) >= threshold for s in per_trial_coordinate_sums(m, n, 6, trials))
    assert escape_probability(m, n, trials, 6, epsilon=epsilon).count == count


@pytest.mark.parametrize("n, epsilon", [(16, 1.0), (16, 0.75), (16, 4.0), (2**53 + 1, 0.5),
                                        (randwalk.MAX_SAMPLED_STEPS, 1.0)])
def test_escape_integer_cut_counts_sums_at_the_threshold(monkeypatch, n, epsilon):
    threshold = epsilon * math.sqrt(n)
    values = [v for c in (math.floor(threshold), math.ceil(threshold))
              for v in (c - 1, c, c + 1, -c + 1, -c, -c - 1) if -n <= v <= n]
    monkeypatch.setattr(randwalk, "_coordinate_sum_blocks",
                        lambda *args: iter([np.array([[v, 0] for v in values])]))
    count = sum(abs(v) >= threshold for v in values)
    assert escape_probability(2, n, len(values), 1, epsilon=epsilon).count == count


_B = randwalk._SEED_BLOCK


# the chance that the DKW bound lets one comparison miss, fixed before the
# first run
_DKW_DELTA = 1e-6


@pytest.mark.parametrize("seed", _EXACT_LAW_SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_clt_sup_distances_meet_their_exact_law(m, seed):
    # every coordinate has the law of s_1, with CDF F.  By the DKW inequality
    # with Massart's constant, the empirical CDF is within eps of F at every
    # grid point but for a chance of delta, so each reported sup distance to
    # the normal CDF is within eps of F's own distance to it on the grid
    trials = 2000
    eps = math.sqrt(math.log(2 / _DKW_DELTA) / (2 * trials))
    sigma = 1.0 / math.sqrt(m)
    grid = [(-4.0 + 8.0 * j / 40.0) * sigma for j in range(41)]
    for n in (10, 11, 100, 401):
        exact = max(abs(coordinate_cdf(m, n, math.floor(x * math.sqrt(n))) - randwalk._normal_cdf(x, m))
                    for x in grid)
        for sup in coordinate_clt_stats(m, n, trials, seed).sup_distances:
            assert abs(sup - exact) <= eps, (n, sup, float(exact))


def _draws(rng):
    # a few kinds of draw, so the whole bit generator state is compared
    return (rng.integers(0, 2**64, 3, dtype=np.uint64).tolist(), rng.random(),
            rng.multinomial(10**6, [0.25] * 4).tolist())


@pytest.mark.parametrize("seed, scale", [(0, 1), (7, 2001), (2**70 + 3, 2**63 - 1)])
@pytest.mark.parametrize("trials", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
def test_trial_rngs_match_the_per_trial_oracle(seed, scale, trials):
    count = 0
    for t, rng in enumerate(randwalk._trial_rngs(seed, scale, trials)):
        assert _draws(rng) == _draws(np_trial_rng(seed, scale, t)), t
        count += 1
    assert count == trials


def test_short_digest_is_seeded_by_numpy():
    # a digest whose top 32-bit word is 0 is a seed of fewer than 8 entropy
    # words, which numpy mixes differently; no sha256 of a trial string with
    # that prefix is known, so the digests are made up
    short = [bytes(4) + bytes(range(1, 29)), bytes(31) + b"\x05", bytes(32)]
    full = [randwalk._stream_digest(3, 4, t) for t in range(5)]
    digests = full[:2] + short[:1] + full[2:] + short[1:]
    for d, rng in zip(digests, randwalk._digest_rngs(digests)):
        oracle = np.random.Generator(np.random.PCG64(int.from_bytes(d, "big")))
        assert _draws(rng) == _draws(oracle)
    # the block formula itself misses such a seed: the branch is needed
    words = np.frombuffer(short[0], dtype=">u4").reshape(1, 8)[:, ::-1]
    (row,) = randwalk._seed_words(words)
    numpy_seed = np.random.SeedSequence(int.from_bytes(short[0], "big"))
    assert row.tolist() != numpy_seed.generate_state(4, np.uint64).tolist()


def test_trial_rngs_are_independent_generators():
    rngs = randwalk._trial_rngs(5, 9, 3)
    first, second = next(rngs), next(rngs)
    assert first is not second
    first.random(100)
    assert _draws(second) == _draws(np_trial_rng(5, 9, 1))
    oracle = np_trial_rng(5, 9, 0)
    oracle.random(100)
    assert _draws(first) == _draws(oracle)


def test_trial_seed_hands_out_only_pcg64_state_words():
    seed = next(randwalk._trial_rngs(5, 9, 1)).bit_generator.seed_seq
    assert seed.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence(stream_seed(5, 9, 0)).generate_state(4, np.uint64).tolist())
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)


def test_trial_seeds_keep_their_own_words_after_the_iterator_moves_on():
    # each generator keeps a holder of its own: read after the iterator has
    # gone past it, into the next block, it still hands out its trial's words
    rngs = randwalk._trial_rngs(5, 9, _B + 3)
    kept = {t: rng for t, rng in enumerate(rngs) if t in (0, 1, _B - 1, _B, _B + 1)}
    for t, rng in kept.items():
        words = rng.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
        assert words == np.random.SeedSequence(stream_seed(5, 9, t)).generate_state(4, np.uint64).tolist(), t


@pytest.mark.parametrize("seed", [0, -5, 2**70 + 3])
@pytest.mark.parametrize("scale", [1, 2**63 - 1])
def test_prefix_copied_digests_are_the_stream_digests(seed, scale):
    # past each change of the index's decimal width (9/10, 99/100,
    # 999/1000) and at the seed block's edge (1023/1024/1025)
    digests = list(randwalk._stream_digests(seed, scale, _B + 2))
    for t in (0, 9, 10, 99, 100, 999, 1000, _B - 1, _B, _B + 1):
        assert digests[t] == randwalk._stream_digest(seed, scale, t), t


def test_rank_draw_reseeds_one_twister_as_trial_rng_seeds_each(monkeypatch):
    # one Random for all the trials, in trial_rng's state at each trial's start
    seed, length, trials = 3, 5, 4
    expected = [trial_rng(seed, length, t).getstate() for t in range(trials)]
    made, states = [], []

    class Recording(random.Random):
        def __init__(self, x):
            made.append(x)
            super().__init__(x)

        def seed(self, a=None, version=2):
            super().seed(a, version)
            states.append(self.getstate())

    monkeypatch.setattr(randwalk.random, "Random", Recording)
    list(randwalk._exponent_sum_matrices(2, 3, length, seed, trials))
    assert len(made) == 1
    assert states == expected


def _per_trial_rngs(seed, scale, trials):
    return (np_trial_rng(seed, scale, t) for t in range(trials))


@pytest.mark.parametrize("m", [1, 3])
def test_sampler_csvs_match_per_trial_streams(monkeypatch, m):
    trials = _B + 1
    clt = clt_csv(coordinate_clt_stats(m, 1001, trials, 11))
    escape = escape_csv([escape_probability(m, n, trials, 11, epsilon=0.5) for n in (9, 1001)])
    monkeypatch.setattr(randwalk, "_trial_rngs", _per_trial_rngs)
    assert clt == clt_csv(coordinate_clt_stats(m, 1001, trials, 11))
    assert escape == escape_csv(
        [escape_probability(m, n, trials, 11, epsilon=0.5) for n in (9, 1001)])


def test_escape_memory_is_per_block():
    # --trials has no cap: the seeding holds one block, not every trial
    def peak(trials):
        escape_probability(2, 10, trials, 1)
        return traced_peak(lambda: escape_probability(2, 10, trials, 1))[1]

    assert peak(8 * _B) < 1.5 * peak(_B)


def test_clt_memory_does_not_grow_with_trials():
    # each coordinate keeps its counts between the grid's thresholds, not
    # every trial's sum
    def peak(trials):
        coordinate_clt_stats(2, 10, trials, 1)
        return traced_peak(lambda: coordinate_clt_stats(2, 10, trials, 1))[1]

    assert peak(8 * _B) < 1.5 * peak(_B)


def test_return_probabilities_match_binomial_m1():
    table = return_probability_exact(1, 20)
    assert table.exact
    for n in range(21):
        p_n = Fraction(_binom(n, n // 2), 2**n) if n % 2 == 0 else Fraction(0)
        np1 = n + 1
        p_n1 = Fraction(_binom(np1, np1 // 2), 2**np1) if np1 % 2 == 0 else Fraction(0)
        assert table.values[n] == p_n + p_n1


def test_return_probabilities_match_product_m2():
    # independent coordinate pairs: p_n(0,0) = (C(n,n/2)/2^n)^2 via the
    # rotated-axes bijection of the 4-choice walk
    table = return_probability_exact(2, 14)
    for n in range(0, 15, 2):
        expected = Fraction(_binom(n, n // 2), 2**n) ** 2
        odd = n + 1
        assert table.values[n] == expected
        if odd <= 14:
            assert table.values[odd] == Fraction(_binom(odd + 1, (odd + 1) // 2), 2 ** (odd + 1)) ** 2


def test_return_probabilities_match_multinomial_m3():
    # direct count: paths with matched +/- steps per axis
    def p0(n):
        total = 0
        for i in range(n // 2 + 1):
            for j in range(n // 2 + 1 - i):
                k = n // 2 - i - j
                ways = math.factorial(n) // (
                    math.factorial(i) ** 2 * math.factorial(j) ** 2 * math.factorial(k) ** 2
                )
                total += ways
        return Fraction(total, 6**n)

    table = return_probability_exact(3, 8)
    for n in range(0, 9, 2):
        # values[n] = p_n + p_{n+1} and the odd term vanishes
        assert table.values[n] == p0(n)


def _walk_return_counts(m, n_total):
    """Closed-walk counts N_0..N_{n_total} by stepping a dict of lattice-point
    counts one step at a time."""
    steps = [tuple(s if t == i else 0 for t in range(m)) for i in range(m) for s in (1, -1)]
    origin = (0,) * m
    counts = {origin: 1}
    out = [1]
    for _ in range(n_total):
        nxt = {}
        for point, c in counts.items():
            for step in steps:
                q = tuple(a + b for a, b in zip(point, step))
                nxt[q] = nxt.get(q, 0) + c
        counts = nxt
        out.append(counts.get(origin, 0))
    return out


@pytest.mark.parametrize("m,n_max", [(1, 40), (2, 40), (3, 24)])
def test_return_table_matches_stepwise_walk(m, n_max):
    counts = _walk_return_counts(m, n_max + 1)
    table = return_probability_exact(m, n_max)
    assert table.exact
    expected = tuple(
        Fraction(counts[n], (2 * m) ** n) + Fraction(counts[n + 1], (2 * m) ** (n + 1))
        for n in range(n_max + 1)
    )
    assert table.values == expected


def test_return_exact_past_200():
    table = return_probability_exact(1, 201)
    assert table.exact
    for n in range(202):
        p_n = Fraction(_binom(n, n // 2), 2**n) if n % 2 == 0 else Fraction(0)
        np1 = n + 1
        p_n1 = Fraction(_binom(np1, np1 // 2), 2**np1) if np1 % 2 == 0 else Fraction(0)
        assert table.values[n] == p_n + p_n1


def test_return_resource_limit():
    with pytest.raises(ResourceLimitError):
        return_probability_exact(1, RETURN_N_MAX_LIMIT + 1)
    assert return_probability_exact(1, RETURN_N_MAX_LIMIT).n_max == RETURN_N_MAX_LIMIT


def test_return_table_csv_rows():
    table = return_probability_exact(1, 4)
    lines = return_table_csv(table).strip().split("\n")
    assert lines[1] == "n,return_prob_sum"
    assert lines[2] == "0,1"
    assert lines[3] == "1,1/2"


def test_decay_slope_near_theory():
    assert abs(decay_slope(1, (50, 120)).slope + 0.5) < 0.1
    assert abs(decay_slope(2, (50, 120)).slope + 1.0) < 0.1


def test_decay_slope_degenerate_inputs():
    with pytest.raises(ValueError):
        decay_slope(1, (50, 51))  # only one even point
    with pytest.raises(ValueError):
        decay_slope(1, (51, 50))


def test_schwartz_zippel_frozen_counts():
    res = schwartz_zippel_check(1, 1, 1)
    assert (res.total, res.zero_count, res.bound, res.holds) == (3, 1, 2, True)
    res = schwartz_zippel_check(1, 2, 1)
    assert (res.total, res.zero_count, res.bound, res.holds) == (9, 1, 6, True)
    res = schwartz_zippel_check(2, 2, 1)
    assert (res.total, res.zero_count, res.bound, res.holds) == (81, 33, 108, True)
    data = dataclasses.asdict(res)
    assert data["degree"] == 4


def test_schwartz_zippel_enumeration_limit():
    # 9^8 matrices, over the limit
    assert 9**8 > randwalk.SCHWARTZ_ZIPPEL_LIMIT
    with pytest.raises(EnumerationLimitError):
        schwartz_zippel_check(2, 4, 4)


def test_schwartz_zippel_limit_decided_before_the_count():
    # 3^(9 * 10^7) matrices: refused from the exponent, its digits never built
    t0 = time.perf_counter()
    message = r"^3\^90000000 matrices exceed the limit 4000000$"
    with pytest.raises(EnumerationLimitError, match=message):
        schwartz_zippel_check(3000, 30000, 1)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("sample", [
    lambda n: coordinate_clt_stats(2, n, 1, 1),
    lambda n: escape_probability(2, n, 1, 1),
])
def test_sampled_walks_refuse_steps_past_int64(sample):
    assert randwalk.MAX_SAMPLED_STEPS == 2**63 - 1
    sample(2**63 - 1)
    for n in (2**63, 10**30):
        with pytest.raises(ValueError, match="the most steps the sampler draws"):
            sample(n)
