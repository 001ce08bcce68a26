"""Word grammar, free reduction, and the Smith ops replayed as Nielsen moves."""

import json
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from nilq.diophantine import FreeNilpotentAmbient
from nilq.presentation import parse_presentation
from nilq.words import (
    MAX_RANK,
    MAX_WORD_LETTERS,
    RankLimitError,
    Word,
    WordSyntaxError,
    _BLOCK_CHARS,
    _plain_syllable,
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
from nilq.cli import _jsonable
from nilq.zmatrix import ElementaryOp
from nilq.nilpotent2 import commutator, from_word, power

from naive_oracles import apply_op, collection_oracle, scanner_parse_word, traced_peak, view_rows
from test_cli import _run_capped


# words over a1..a3 of up to 12 syllables (k, e), 1 <= |e| <= 4
syllable_words = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-4, 4).filter(lambda e: e != 0)), max_size=12
).map(lambda syllables: Word(tuple(syllables), 3))


def _letters(w):
    """The signed letters of w: a_k^e is |e| copies of +-k."""
    return [k if e > 0 else -k for k, e in w.syllables for _ in range(abs(e))]


def test_parse_basic_forms():
    assert parse_word("a1 a2", 2).syllables == ((1, 1), (2, 1))
    assert parse_word("a1^3", 2).syllables == ((1, 3),)
    assert parse_word("a2^-2", 2).syllables == ((2, -2),)
    assert parse_word("", 2).syllables == ()
    assert parse_word("   ", 2).syllables == ()
    w = parse_word("a3^-7 a1", 3)
    assert w.syllables == ((3, -7), (1, 1))
    assert len(w) == 8


def test_parse_brackets_and_groups():
    # [u, v]^E is written (u_E)^-1 w^-1 u_E w from the exponent sums of u^E
    # and v, equal to the expanded commutator power in N_{2,m}
    cases = {
        "[a1,a2]": ((1, -1), (2, -1), (1, 1), (2, 1)),
        "[a1,a2]^-1": ((1, 1), (2, -1), (1, -1), (2, 1)),
        "[a1, a2^2]": ((1, -1), (2, -2), (1, 1), (2, 2)),
        "[a1,a2]^2": ((1, -2), (2, -1), (1, 2), (2, 1)),
    }
    for text, syllables in cases.items():
        w = parse_word(text, 2)
        assert w.syllables == syllables, text
        assert from_word(w) == from_word(scanner_parse_word(text, 2)), text


def test_bracket_power_is_collected_from_exponent_sums():
    # about 10^6 letters expanded, at most 4m syllables written
    m = 64
    text = "[a1 a2 a3 a4 a5 a6 a7 a8, a64 a63]^49999"
    w = parse_word(text, m)
    assert len(w.syllables) <= 4 * m
    u = from_word(parse_word("a1 a2 a3 a4 a5 a6 a7 a8", m))
    v = from_word(parse_word("a64 a63", m))
    assert from_word(w) == power(commutator(u, v), 49999)


def test_word_rejects_syllables_outside_the_alphabet():
    for syllables in (((4, 1),), ((0, 1),), ((1, 0),), ((1, 2), (2, 0))):
        with pytest.raises(ValueError):
            Word(syllables, 3)


def test_parsed_word_is_a_checked_word():
    # parse_word builds its Word without the check, which it has done as it read
    w = parse_word("a1^-3 [a1,a2]^2 a2", 2)
    assert Word(w.syllables, w.m) == w and hash(Word(w.syllables, w.m)) == hash(w)
    assert len(w) == 3 + 6 + 1
    # an alphabet below size 1 is refused once the text is read
    for text, m in (("", 0), (" ", -1), ("[,]", 0)):
        with pytest.raises(ValueError) as ei:
            parse_word(text, m)
        assert type(ei.value) is ValueError
        assert str(ei.value) == "alphabet size must be at least 1"
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("a1", 0)
    assert str(ei.value) == "generator index 1 out of range 1..0 (position 0)"


def test_rank_over_limit_refused_before_allocating():
    assert parse_word(f"a{MAX_RANK}", MAX_RANK).m == MAX_RANK
    m = 10**9  # one element of this rank would hold 5e17 gamma coordinates
    for make in (
        lambda: parse_word("a1", m),
        lambda: parse_presentation(f"{m} 2\n"),
        lambda: FreeNilpotentAmbient(m),
        lambda: parse_word("a1", MAX_RANK + 1),
    ):
        assert traced_peak(lambda: pytest.raises(RankLimitError, make))[1] < 10**6


def test_parse_rejects_oversized_expansion_before_expanding():
    n = MAX_WORD_LETTERS
    # a power at the cap is one syllable
    w, peak = traced_peak(lambda: parse_word(f"a1^{n}", 1))
    assert w.syllables == ((1, n),) and len(w) == n
    assert peak < 10**6, peak
    # an expansion past the limit is refused from the letter counts, before
    # any syllable list of its size exists
    cases = (
        f"a1^{10 * n}",
        f"a1^-{10 * n}",
        f"[a1,a2]^{n // 4 + 1}",
        f"[a1^{n // 2}, a2]",
        f"a1^{n} a2",
    )
    for text in cases:
        ei, peak = traced_peak(lambda: pytest.raises(ValueError, parse_word, text, 2))
        ei.match("over the limit")
        # a domain error, not a syntax error: the text itself is well formed
        assert not isinstance(ei.value, WordSyntaxError)
        assert peak < 10**6, (text, peak)


def test_parse_error_positions():
    cases = [
        ("a", "expected generator index after 'a'", 1),
        ("a0", "generator index 0 out of range 1..2", 0),
        ("a1 a9", "generator index 9 out of range 1..2", 3),
        ("a1^", "expected integer", 3),
        ("a1^-", "expected integer", 3),
        ("a1^0", "zero exponent not allowed", 3),
        ("[a1", "expected ',' in commutator", 3),
        ("[a1,a2", "expected ']' closing commutator", 6),
        ("[a1,a2,a3]", "unexpected character ','", 6),
        ("a1 ]", "unexpected character ']'", 3),
        ("b1", "unexpected character 'b'", 0),
        # superscript digits are digits to str.isdigit, not to int()
        ("a\u00b2", "expected generator index after 'a'", 1),
        ("a1\u00b2", "unexpected character '\u00b2'", 2),
    ]
    for text, message, position in cases:
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(text, 2)
        assert str(ei.value) == f"{message} (position {position})", text
        assert ei.value.position == position, text


def test_plain_token_memo_checks_every_use():
    # the memo holds a token's (k, e) for every m: the range of k and the
    # letter count are checked each time it is read
    hits = _plain_syllable.cache_info().hits
    assert parse_word("a5^2 a5^2", 5).syllables == ((5, 2), (5, 2))
    assert _plain_syllable.cache_info().hits > hits
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("a5^2", 3)
    assert str(ei.value) == "generator index 5 out of range 1..3 (position 0)"
    # a0 and a1^0 are not a1, and still raise the token machine's errors
    assert parse_word("a1", 2).syllables == ((1, 1),)
    for text, message in (("a0", "generator index 0 out of range 1..2 (position 0)"),
                          ("a1^0", "zero exponent not allowed (position 3)")):
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(text, 2)
        assert str(ei.value) == message
    n = MAX_WORD_LETTERS
    assert parse_word(f"a1^{n}", 1).syllables == ((1, n),)
    with pytest.raises(ValueError, match=f"word expands to {n + 1} letters"):
        parse_word(f"a1^{n} a1", 1)


def test_plain_token_memo_is_bounded():
    maxsize = _plain_syllable.cache_info().maxsize
    assert maxsize is not None
    for e in range(1, maxsize + 100):
        assert parse_word(f"a1^{e}", 1).syllables == ((1, e),)
    assert _plain_syllable.cache_info().currsize <= maxsize


def test_glued_text_at_the_cap_parses_in_bounded_memory(tmp_path):
    # a million tokens in one run go through the token machine, which reads
    # the run without copying it; the flat text's runs go through the memo.
    # word-eval reads each text, and a bracket power of as many letters, in
    # a child capped at 100 MiB of address space: holding the flat text's
    # tokens split whole, or the glued run's matches listed, dies there
    flat = " ".join(("a1", "a2")[i % 2] for i in range(MAX_WORD_LETTERS))
    glued = flat.replace(" ", "")
    # gamma of both texts is -C(500000, 2)
    text_value = {"m": 2, "alpha": [500000, 500000], "gamma": [-124999750000],
                  "normal_form": "a1^500000 a2^500000 [a1,a2]^-124999750000"}
    runs = []
    for name, text in (("flat", flat), ("glued", glued)):
        (tmp_path / name).write_text(text)
        runs.append((f"@{tmp_path / name}", text_value))
    runs.append(("[a1,a2]^250000", {"m": 2, "alpha": [0, 0], "gamma": [250000],
                                    "normal_form": "[a1,a2]^250000"}))
    # the children run side by side while this process parses both texts
    with ThreadPoolExecutor(len(runs)) as pool:
        results = pool.map(lambda run: _run_capped(["word-eval", "--m", "2", run[0]], 100 * 2**20, 60),
                           runs)
        words = [parse_word(text, 2) for text in (flat, glued)]
        assert words[1].syllables == words[0].syllables
        assert len(words[0].syllables) == MAX_WORD_LETTERS
        for (word, value), (code, out) in zip(runs, results):
            assert code == 0 and json.loads(out) == value, word


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit before Python 3.10.7")
def test_parse_refuses_integers_past_the_digit_limit():
    # int() refuses more than 4300 digits, leading zeros included: such an
    # index or exponent is a syntax error at its digits, in the scanner too
    long = "0" * 4300 + "1"
    cases = [
        (f"a{long}", 1),
        (f"a1 a{long}^2", 4),
        (f"a1^{long}", 3),
        (f"a2^-{long}", 3),
        (f"[a1,a2]^+{long}", 8),
    ]
    for text, position in cases:
        for parse in (parse_word, scanner_parse_word):
            with pytest.raises(WordSyntaxError) as ei:
                parse(text, 2)
            assert str(ei.value) == f"integer of 4301 digits is too long (position {position})"
            assert ei.value.position == position
    # at the limit the integer is read
    assert parse_word("a" + "0" * 4299 + "2", 2).syllables == ((2, 1),)
    assert scanner_parse_word("a1^-" + "0" * 4299 + "3", 2).syllables == ((1, -3),)


def test_deep_brackets_are_not_parsed_by_recursion():
    depth = 10**5
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("[" * depth, 2)
    assert str(ei.value) == f"expected ',' in commutator (position {depth})"
    # each level doubles the letters, so the cap stops the expansion
    with pytest.raises(ValueError, match="over the limit"):
        parse_word("[" * depth + "a1" + ",a2]" * depth, 2)


def _fuzz_text(rng: random.Random, m: int, depth: int = 0) -> str:
    """A word text over a1..am with mixed whitespace, signed and zero-padded
    exponents, nested brackets and exponents near MAX_WORD_LETTERS."""
    n = MAX_WORD_LETTERS
    space = lambda: rng.choice(["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"])
    parts = []
    for _ in range(rng.randrange(4)):
        if depth < 3 and rng.random() < 0.3:
            u, v = _fuzz_text(rng, m, depth + 1), _fuzz_text(rng, m, depth + 1)
            parts.append(f"[{u},{v}]")
            if rng.random() < 0.5:
                # a bracket power below the cap stays small, so no case expands far
                parts[-1] += "^" + rng.choice(["-", ""]) + rng.choice(["1", "3", "0", str(n)])
            continue
        k = rng.choice([str(rng.randrange(1, m + 1))] * 30 + ["0", "02", str(m + 1)])
        if rng.random() < 0.5:
            e = rng.choice(["1", "2", "07", "\u0663"] * 5
                           + ["0", "00", str(n // 2), str(n), str(n + 1)])
            k += "^" + rng.choice(["", "+", "-"]) + e
        parts.append(f"a{k}")
    return space() + "".join(p + space() for p in parts)


def _corrupt(rng: random.Random, text: str) -> str:
    """Insert, replace or delete a character, or cut the text, up to three times."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        c = rng.choice("aa1[[]],,^+-0 \t\u00b2\u0663b!")
        text = rng.choice([text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
                           text[:i] + text[i + 1:], text[:i]])
    return text


def _parse_against_scanner(text: str, m: int):
    """Check parse_word on text against the character scanner, which expands
    brackets: the same element, no more letters and, without brackets, the
    same syllables; or the same exception type, message and position.  A
    parsed Word is also a checked one.  Returns the outcome, "word" or the
    message without its numbers, or None where the scanner itself crashes
    on superscript digits."""
    try:
        expected = scanner_parse_word(text, m)
    except WordSyntaxError as exc:
        expected = exc
    except ValueError as exc:
        if str(exc).startswith("invalid literal for int()"):
            return None  # the scanner's crash on superscript digits
        expected = exc
    try:
        got = parse_word(text, m)
    except ValueError as exc:
        got = exc
    if isinstance(expected, Word):
        assert isinstance(got, Word), text
        assert Word(got.syllables, got.m) == got, text
        assert from_word(got) == from_word(expected), text
        assert len(got) <= len(expected), text
        if "[" not in text:
            assert got == expected, text
        return "word"
    assert type(got) is type(expected), text
    assert str(got) == str(expected), text
    assert getattr(got, "position", None) == getattr(expected, "position", None), text
    return re.sub(r"\d+|'.*'", "", str(got))


def test_parse_matches_scanner_oracle():
    """parse_word against the character scanner on 4000 fuzzed texts."""
    rng = random.Random(2016)
    outcomes = set()
    for case in range(4000):
        m = rng.randrange(1, 5)
        text = _fuzz_text(rng, m)
        if case % 2:
            text = _corrupt(rng, text)
        outcome = _parse_against_scanner(text, m)
        if outcome is not None:
            outcomes.add(outcome)
    # every kind of outcome occurred
    assert outcomes == {
        "word",
        "expected generator index after  (position )",
        "generator index  out of range .. (position )",
        "expected integer (position )",
        "zero exponent not allowed (position )",
        "expected  in commutator (position )",
        "expected  closing commutator (position )",
        "unexpected character  (position )",
        "word expands to  letters, over the limit of ",
    }


def _plain_text(length: int, tail: str = "") -> str:
    """A text of exactly ``length`` characters: plain tokens over a1..a3,
    the last one zero-padded to fit, then ``tail`` as its last run."""
    tokens = ("a1", "a2^-3", "a3^12", "a2")
    tail = f" {tail}" if tail else ""
    head, i = "a1", 0
    while len(head) + len(tail) + 16 < length:
        head += " " + tokens[i % 4]
        i += 1
    text = f"{head} a1^{'0' * (length - len(head) - len(tail) - 5)}5{tail}"
    assert len(text) == length
    return text


def test_parse_matches_scanner_oracle_at_the_block_boundary():
    # a text of at most _BLOCK_CHARS characters is one block, a longer one
    # is read 256 runs at a time: both sides of the boundary read the same
    n = _BLOCK_CHARS
    texts = [_plain_text(length) for length in (n - 1, n, n + 1)]
    texts.append("a1 a2^2 " * 200)  # 400 runs in one short block
    # whitespace that is str.isspace but not ASCII, at the ends
    for space in ("\x1c", "\x85", "\u3000"):
        texts += [f"{space}a1 a2{space}", f"{space}[a1,a2]{space}", f"{space}a1 b1{space}",
                  f"{space}{_plain_text(n + 1)}{space}"]
    texts += ["\x1c\x85\u3000 \t", "\u3000" * (n + 1)]
    # a bracket or an error as the last run of a long text, on each side
    for tail in ("[a1,a2]^2", "b1", "a", "a1^", "a4", "a1^0", "a1^1000001"):
        for length in (n - 100, n + 100):
            texts.append(_plain_text(length, tail))
    assert {_parse_against_scanner(text, 3) for text in texts} == {
        "word",
        "unexpected character  (position )",
        "expected generator index after  (position )",
        "expected integer (position )",
        "generator index  out of range .. (position )",
        "zero exponent not allowed (position )",
        "word expands to  letters, over the limit of ",
    }


@given(syllable_words)
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w), 3) == w


def test_format_word_prints_one_token_per_syllable():
    assert format_word(parse_word("a1 a1^2 [a1,a2]", 2)) == "a1 a1^2 a1^-1 a2^-1 a1 a2"


@given(syllable_words)
def test_from_word_matches_collection(w):
    assert from_word(w) == collection_oracle(w)


@given(syllable_words)
def test_free_reduce_is_reduced_and_equivalent(w):
    r = free_reduce(w)
    for (k, e), (k2, _) in zip(r.syllables, r.syllables[1:]):
        assert k != k2
    assert all(e for _, e in r.syllables)
    # the free reduction of w's letters, one letter at a time
    stack = []
    for l in _letters(w):
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    assert _letters(r) == stack
    # same element of the free nilpotent quotient
    assert from_word(r) == from_word(w)


@given(syllable_words)
def test_inverse_cancels(w):
    assert free_reduce(concat(w, w.inverse())).syllables == ()


def test_word_power():
    w = parse_word("a1 a2", 2)
    assert word_power(w, 3).syllables == ((1, 1), (2, 1)) * 3
    assert word_power(w, 0).syllables == ()
    assert word_power(w, -2).syllables == ((2, -1), (1, -1)) * 2


def test_exponent_sums():
    assert exponent_sums(parse_word("a1^2 a3 a1^-1", 3)) == (1, 0, 1)
    M = exponent_sum_matrix(iter([parse_word("a1^2", 2), parse_word("a1 a2^3", 2)]))
    assert M == ((2, 0), (1, 3))
    assert exponent_sum_matrix([]) == ()


def test_random_word_deterministic():
    a = random_word(40, 3, random.Random(9))
    b = random_word(40, 3, random.Random(9))
    assert a == b
    assert len(a) == 40
    assert all(1 <= k <= 3 and e in (1, -1) for k, e in a.syllables)
    # one rng.choices draw over a1..a3 then their inverses
    assert _letters(a) == random.Random(9).choices([1, 2, 3, -1, -2, -3], k=40)
    assert a != random_word(40, 3, random.Random(10))


def test_nielsen_normalize_known_diagonal():
    words, snf = nielsen_normalize((parse_word("a1^2", 2), parse_word("a2^3", 2)), 2)
    assert snf.invariant_factors == (1, 6)
    assert exponent_sum_matrix(words) == view_rows(snf.D) == ((1, 0), (0, 6))


def _random_relators(rng, m, r):
    return tuple(random_word(rng.randrange(1, 9), m, rng) for _ in range(r))


def test_nielsen_normalize_matches_smith_diagonal():
    rng = random.Random(71)
    for _ in range(40):
        m = rng.randrange(2, 4)
        r = rng.randrange(1, m + 2)
        rels = _random_relators(rng, m, r)
        words, snf = nielsen_normalize(rels, m)
        assert exponent_sum_matrix(words) == view_rows(snf.D)
        # ops replayed against the original relators land on the output, and
        # each one moves the exponent sums as it moves the matrix
        rel = list(rels)
        M = exponent_sum_matrix(rels)
        for op in snf.ops:
            apply_move_to_relators(rel, op)
            M = apply_op(M, op)
            assert exponent_sum_matrix(rel) == M
        assert [free_reduce(w) for w in rel] == [free_reduce(w) for w in words]


def test_smith_ops_jsonable():
    # the log as ``nilq normalize`` prints it: each op by its fields
    _, snf = nielsen_normalize((parse_word("a1^2 a2^2", 2), parse_word("a2^4", 2)), 2)
    data = json.loads(json.dumps(snf.ops, default=_jsonable))
    assert data and [ElementaryOp(**entry) for entry in data] == list(snf.ops)

