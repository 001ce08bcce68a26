"""Random walk experiments: determinism, exact tables, frozen oracle values."""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nilq import randwalk
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

from naive_oracles import np_trial_rng, sorted_sample_sup_distances, traced_peak


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
            sums = randwalk._random_exponent_sums(length, m, rng)
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


_B = randwalk._SEED_BLOCK


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
    with pytest.raises(EnumerationLimitError):
        schwartz_zippel_check(2, 3, 4, limit=1000)


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
