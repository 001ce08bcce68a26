"""Word grammar, free reduction, and the Nielsen move dictionary."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nilq.diophantine import FreeNilpotentAmbient
from nilq.presentation import parse_presentation
from nilq.words import (
    MAX_RANK,
    MAX_WORD_LETTERS,
    NielsenLog,
    RankLimitError,
    RelatorSet,
    Word,
    WordSyntaxError,
    apply_move_to_relators,
    concat,
    exponent_sum_matrix,
    exponent_sums,
    format_word,
    free_reduce,
    nielsen_normalize,
    parse_word,
    random_word,
    word_power,
)
from nilq.zmatrix import IntMatrix
from nilq.nilpotent2 import from_word


letters = st.lists(
    st.integers(-3, 3).filter(lambda k: k != 0), min_size=0, max_size=12
)


def test_parse_basic_forms():
    assert parse_word("a1 a2", 2).letters == (1, 2)
    assert parse_word("a1^3", 2).letters == (1, 1, 1)
    assert parse_word("a2^-2", 2).letters == (-2, -2)
    assert parse_word("", 2).letters == ()
    assert parse_word("   ", 2).letters == ()


def test_parse_brackets_and_groups():
    w = parse_word("[a1,a2]", 2)
    assert w.letters == (-1, -2, 1, 2)
    w = parse_word("[a1,a2]^-1", 2)
    assert w.letters == (-2, -1, 2, 1)
    w = parse_word("[a1, a2^2]", 2)
    assert w.letters == (-1, -2, -2, 1, 2, 2)


def test_rank_over_limit_refused_before_allocating():
    assert parse_word(f"a{MAX_RANK}", MAX_RANK).m == MAX_RANK
    m = 10**9  # one element of this rank would hold 5e17 gamma coordinates
    for make in (
        lambda: parse_word("a1", m),
        lambda: parse_presentation(f"{m} 2\n"),
        lambda: FreeNilpotentAmbient(m),
        lambda: parse_word("a1", MAX_RANK + 1),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(RankLimitError):
                make()
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()


def test_parse_rejects_oversized_expansion_before_expanding():
    n = MAX_WORD_LETTERS
    assert len(parse_word(f"a1^{n}", 1)) == n
    # (text, bytes it may allocate): an expansion past the limit is refused
    # before its list exists; only the sequence case legitimately builds a
    # word of n letters first (a list of n pointers, twice over)
    cases = (
        (f"a1^{10 * n}", n),
        (f"a1^-{10 * n}", n),
        (f"[a1,a2]^{n // 4 + 1}", n),
        (f"[a1^{n // 2}, a2]", 20 * n),
        (f"a1^{n} a2", 20 * n),
    )
    for text, budget in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the limit") as ei:
                parse_word(text, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a domain error, not a syntax error: the text itself is well formed
        assert not isinstance(ei.value, WordSyntaxError)
        assert peak < budget, (text, peak)


def test_parse_error_positions():
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("a1 a9", 2)
    assert ei.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("a0", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("[a1,a2", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("a1^", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("b1", 2)


@given(letters)
def test_format_parse_roundtrip(ls):
    w = Word(tuple(ls), 3)
    assert parse_word(format_word(w), 3).letters == w.letters


@given(letters)
def test_free_reduce_is_reduced_and_equivalent(ls):
    w = free_reduce(Word(tuple(ls), 3))
    for a, b in zip(w.letters, w.letters[1:]):
        assert a != -b
    # same element of the free nilpotent quotient
    assert from_word(w) == from_word(Word(tuple(ls), 3))


@given(letters)
def test_inverse_cancels(ls):
    w = Word(tuple(ls), 3)
    assert free_reduce(concat(w, w.inverse())).letters == ()


def test_word_power():
    w = parse_word("a1 a2", 2)
    assert word_power(w, 3).letters == (1, 2) * 3
    assert word_power(w, 0).letters == ()
    assert word_power(w, -2).letters == (-2, -1) * 2


def test_exponent_sums():
    assert exponent_sums(parse_word("a1^2 a3 a1^-1", 3)) == (1, 0, 1)
    rs = RelatorSet(m=2, relators=(parse_word("a1^2", 2), parse_word("a1 a2^3", 2)))
    M = exponent_sum_matrix(rs.relators, rs.m)
    assert M.to_rows() == [[2, 0], [1, 3]]


def test_random_word_deterministic():
    a = random_word(40, 3, random.Random(9))
    b = random_word(40, 3, random.Random(9))
    assert a == b
    assert len(a) == 40
    assert all(1 <= abs(k) <= 3 for k in a.letters)
    assert a != random_word(40, 3, random.Random(10))


def test_nielsen_normalize_known_diagonal():
    rs = RelatorSet(m=2, relators=(parse_word("a1^2", 2), parse_word("a2^3", 2)))
    newrs, log, snf = nielsen_normalize(rs)
    assert snf.invariant_factors == (1, 6)
    assert exponent_sum_matrix(newrs.relators, newrs.m) == snf.D
    assert isinstance(log, NielsenLog)


def _random_relator_set(rng, m, r):
    rels = tuple(random_word(rng.randrange(1, 9), m, rng) for _ in range(r))
    return RelatorSet(m=m, relators=rels)


def test_nielsen_normalize_matches_smith_diagonal():
    rng = random.Random(71)
    for _ in range(40):
        m = rng.randrange(2, 4)
        r = rng.randrange(1, m + 2)
        rs = _random_relator_set(rng, m, r)
        newrs, log, snf = nielsen_normalize(rs)
        assert exponent_sum_matrix(newrs.relators, newrs.m) == snf.D
        # moves replayed against the original relators land on the output
        rel = [w for w in rs.relators]
        for mv in log.moves:
            apply_move_to_relators(rel, mv)
        assert [free_reduce(w) for w in rel] == [free_reduce(w) for w in newrs.relators]


def test_nielsen_log_jsonable():
    rs = RelatorSet(m=2, relators=(parse_word("a1^2 a2^2", 2), parse_word("a2^4", 2)))
    _, log, _ = nielsen_normalize(rs)
    data = log.to_jsonable()
    assert isinstance(data, list)
    for entry in data:
        assert "kind" in entry


def test_relator_set_validates_alphabet():
    with pytest.raises(ValueError):
        RelatorSet(m=2, relators=(Word((1, 2), 3),))
