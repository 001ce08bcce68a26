"""Malcev coordinate arithmetic against the collection oracle."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from nilq.nilpotent2 import (
    MalcevElement,
    Polynomial,
    commutator,
    format_element,
    from_syllables,
    from_word,
    generator,
    identity,
    inverse,
    multiply,
    pair_list,
    power,
)
from nilq.words import Word, parse_word

from naive_oracles import collection_oracle, letter_word, pair_index


def _elements(m):
    alpha = st.tuples(*([st.integers(-5, 5)] * m))
    gamma = st.tuples(*([st.integers(-5, 5)] * (m * (m - 1) // 2)))
    return st.builds(lambda a, g: MalcevElement(m, a, g), alpha, gamma)


def test_pair_list_and_index():
    assert pair_list(3) == ((1, 2), (1, 3), (2, 3))
    for m in (2, 3, 4):
        for idx, (i, j) in enumerate(pair_list(m)):
            assert pair_index(m, i, j) == idx


def test_malcev_element_is_an_immutable_checked_value():
    x = MalcevElement(2, (1, 0), (0,))
    for field, value in (("m", 3), ("alpha", (0, 0)), ("gamma", (1,))):
        with pytest.raises(AttributeError):
            setattr(x, field, value)
    with pytest.raises(AttributeError):
        x.extra = 1
    y = MalcevElement(2, (1, 0), (0,))
    assert y is not x and y == x and hash(y) == hash(x)
    assert x != MalcevElement(2, (1, 0), (1,)) and x != MalcevElement(2, (0, 1), (0,))
    assert repr(x) == "MalcevElement(m=2, alpha=(1, 0), gamma=(0,))"
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(x), copy.deepcopy(x)]:
        assert type(c) is MalcevElement and c == x and c.alpha == (1, 0)
    with pytest.raises(ValueError, match=r"^alpha length must equal m$"):
        MalcevElement(2, (1,), (0,))
    with pytest.raises(ValueError, match=r"^gamma length must equal m\(m-1\)/2$"):
        MalcevElement(3, (1, 0, 0), (0,))
    with pytest.raises(ValueError, match=r"^alpha length must equal m$"):
        x._replace(alpha=(1, 0, 0))


def test_malcev_element_is_the_tuple_of_its_fields():
    x = MalcevElement(3, (1, -2, 3), (4, 0, -6))
    m, alpha, gamma = x
    assert (m, alpha, gamma) == (3, (1, -2, 3), (4, 0, -6)) and len(x) == 3
    assert x == (3, (1, -2, 3), (4, 0, -6)) and hash(x) == hash((3, (1, -2, 3), (4, 0, -6)))
    assert {x: "x"}[(3, (1, -2, 3), (4, 0, -6))] == "x"


def test_generator_coordinates():
    g = generator(3, 2)
    assert g.alpha == (0, 1, 0)
    assert g.gamma == (0, 0, 0)
    with pytest.raises(ValueError):
        generator(2, 3)


def test_from_word_matches_collection_exhaustively():
    # small exhaustive sweep; the acceptance suite runs the big one
    for m in (2, 3):
        for length in range(5):
            alphabet = [k for k in range(1, m + 1)] + [-k for k in range(1, m + 1)]
            for ls in itertools.product(alphabet, repeat=length):
                w = letter_word(ls, m)
                assert from_word(w) == collection_oracle(w)


def _run_words(m):
    """Words of at most 40 letters over m generators, built from runs of one
    letter up to 12 long."""
    run = st.tuples(st.integers(1, m), st.sampled_from((1, -1)), st.integers(1, 12))
    return st.lists(run, max_size=10).map(
        lambda runs: letter_word(tuple(s * k for k, s, n in runs for _ in range(n))[:40], m)
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 4, 5, 6)).flatmap(_run_words))
def test_from_word_matches_collection_in_higher_ranks(w):
    # rank 1 and ranks past 3, where gamma rows 3 and later start
    assert from_word(w) == collection_oracle(w)


def _syllables(m, e_max):
    """(m, runs): up to 8 runs (k, e) over rank m with 1 <= |e| <= e_max."""
    exps = st.integers(1, e_max).flatmap(lambda e: st.sampled_from((e, -e)))
    return st.tuples(st.just(m), st.lists(st.tuples(st.integers(1, m), exps), max_size=8))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: _syllables(m, 6)))
def test_from_syllables_matches_collection(case):
    m, runs = case
    assert from_syllables(m, runs) == collection_oracle(Word(tuple(runs), m))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: _syllables(m, 10**12)))
def test_from_syllables_matches_products_of_powers(case):
    m, runs = case
    expected = identity(m)
    for k, e in runs:
        expected = multiply(expected, power(generator(m, k), e))
    assert from_syllables(m, runs) == expected


def test_from_syllables_matches_collection_across_ranks():
    # the gamma row offsets are a table per m: check ranks 1 and 64 too, on
    # words whose exponent sums cancel and on syllables with |e| >= 2
    rng = random.Random(43)
    for m in (1, 2, 5, 64):
        for _ in range(20):
            runs = [(rng.randint(1, m), rng.choice((-1, 1)) * rng.randint(1, 4)) for _ in range(6)]
            # runs, their inverse, then three runs and their negatives in order
            cancelling = runs + [(k, -e) for k, e in runs[::-1]]
            cancelling += runs[:3] + [(k, -e) for k, e in runs[:3]]
            for syllables in (runs, cancelling):
                assert from_syllables(m, syllables) == collection_oracle(Word(tuple(syllables), m))
        assert from_syllables(m, cancelling[:len(runs) * 2]) == identity(m)


def test_from_syllables_rejects_an_index_out_of_range():
    for m in (1, 2, 5, 64):
        for k in (0, m + 1):
            with pytest.raises(ValueError) as ei:
                from_syllables(m, [(1, 1), (k, 2)])
            assert str(ei.value) == f"generator index {k} out of range 1..{m}"


def test_commutator_word_pinned_sign():
    # a1 a2 a1^-1 a2^-1 collects to [a1,a2]^{+1} under [g,h]=g^-1 h^-1 g h
    w = letter_word((1, 2, -1, -2), 2)
    el = from_word(w)
    assert el.alpha == (0, 0)
    assert el.gamma == (1,)
    lhs = from_word(parse_word("[a1,a2]", 2))
    assert lhs == commutator(generator(2, 1), generator(2, 2))
    assert lhs.gamma == (1,)


@settings(max_examples=80, deadline=None)
@given(_elements(3), _elements(3), _elements(3))
def test_group_laws(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    e = identity(3)
    assert multiply(x, e) == x
    assert multiply(e, x) == x
    assert multiply(x, inverse(x)) == e
    assert multiply(inverse(x), x) == e


@settings(max_examples=60, deadline=None)
@given(_elements(3), _elements(3))
def test_commutator_is_central_and_skew(x, y):
    c = commutator(x, y)
    assert c.alpha == (0, 0, 0)
    assert commutator(y, x) == inverse(c)
    # definition check, not the closed form
    assert c == multiply(multiply(inverse(x), inverse(y)), multiply(x, y))


def _repeated_product(x, k):
    """x^k as |k| multiplications by x or its inverse: the oracle for power."""
    acc = identity(x.m)
    step = x if k >= 0 else inverse(x)
    for _ in range(abs(k)):
        acc = multiply(acc, step)
    return acc


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(_elements), st.integers(-50, 50))
def test_power_matches_repeated_multiplication(x, k):
    assert power(x, k) == _repeated_product(x, k)
    assert power(x, -k) == inverse(power(x, k))
    assert power(x, 0) == identity(x.m)


def test_power_extreme_exponents():
    # the class-2 power polynomial x^k = (k alpha, k gamma_ij - C(k,2) alpha_i alpha_j)
    x = MalcevElement(3, (2, -3, 5), (1, -4, 7))
    pairs = ((0, 1), (0, 2), (1, 2))
    for k in (10**12, -(10**12)):
        c = k * (k - 1) // 2
        alpha = tuple(k * a for a in x.alpha)
        gamma = tuple(k * g - c * x.alpha[i] * x.alpha[j] for g, (i, j) in zip(x.gamma, pairs))
        assert power(x, k) == MalcevElement(3, alpha, gamma)
    assert power(x, 10**12) == multiply(power(x, 10**12 - 1), x)


def apply_hom(x, images, m):
    """Image of x in N_{2,n} under a_k -> images[k-1], n images of rank m,
    by group arithmetic: each image raised to its exponent and multiplied in
    order, then one commutator per nonzero gamma coordinate.  The oracle for
    Polynomial."""
    acc = identity(m)
    for img, a in zip(images, x.alpha):
        acc = multiply(acc, power(img, a))
    gamma = list(acc.gamma)
    for (i, j), g in zip(pair_list(x.m), x.gamma):
        for t, v in enumerate(commutator(images[i - 1], images[j - 1]).gamma):
            gamma[t] += g * v
    return MalcevElement(m, acc.alpha, tuple(gamma))


def _hom_inputs(m):
    """(x, y, images, letters) for rank m: two elements, the generator
    images of an endomorphism, and a word's letters."""
    alphabet = [k for k in range(-m, m + 1) if k]
    images = st.tuples(*([_elements(m)] * m))
    letters = st.lists(st.sampled_from(alphabet), max_size=12)
    return st.tuples(_elements(m), _elements(m), images, letters)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(_hom_inputs))
def test_apply_hom_is_homomorphism_and_evaluates_letters(inputs):
    x, y, images, letters = inputs
    hom = lambda el: apply_hom(el, images, x.m)
    assert hom(multiply(x, y)) == multiply(hom(x), hom(y))
    m = x.m
    expected = identity(m)
    for l in letters:
        img = images[abs(l) - 1]
        expected = multiply(expected, img if l > 0 else inverse(img))
    assert hom(collection_oracle(letter_word(letters, m))) == expected


def _map_inputs(n, m):
    """(x, images) for x in N_{2,n} with coordinates up to 10^12 in absolute
    value, often zero, and n small images of rank m."""
    big = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12))
    x = st.builds(lambda a, g: MalcevElement(n, a, g),
                  st.tuples(*([big] * n)), st.tuples(*([big] * (n * (n - 1) // 2))))
    return st.tuples(x, st.tuples(*([_elements(m)] * n)))


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(lambda nm: _map_inputs(*nm)))
def test_polynomial_matches_group_arithmetic(inputs):
    x, images = inputs
    m = images[0].m
    assert Polynomial(x, range(x.m))(images, m) == apply_hom(x, images, m)
    # keyed by labels, it reads the images from a mapping just the same
    labels = [f"y{k}" for k in range(x.m)]
    assert Polynomial(x, labels)(dict(zip(labels, images)), m) == apply_hom(x, images, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_slope_matches_probe_differences(m):
    # with y's net exponent 0 the image is affine in y's alpha: the gamma of
    # x at y = a_k less that at y = 1 is row k of the slope, whatever the
    # other images, and y's own image is never read
    rng = random.Random(f"slope-{m}")
    for _ in range(60):
        n = rng.randint(1, 5)
        y = rng.randrange(n)
        alpha = tuple(0 if k == y else rng.choice((0, 1, -1, rng.randint(-6, 6))) for k in range(n))
        gamma = tuple(rng.choice((0, rng.randint(-6, 6))) for _ in range(n * (n - 1) // 2))
        labels = [f"v{k}" for k in range(n)]
        P = Polynomial(MalcevElement(n, alpha, gamma), labels)
        images = {
            l: MalcevElement(m, tuple(rng.randint(-4, 4) for _ in range(m)),
                             tuple(rng.randint(-4, 4) for _ in range(m * (m - 1) // 2)))
            for l in labels
        }
        at = lambda image: P({**images, labels[y]: image}, m).gamma
        g0 = at(identity(m))
        probes = tuple(
            tuple(g - h for g, h in zip(at(generator(m, k)), g0)) for k in range(1, m + 1)
        )
        assert P.slope(labels[y], images, m) == probes
        del images[labels[y]]
        assert P.slope(labels[y], images, m) == probes


def test_power_known_square():
    # (a1 a2)^2 = a1^2 a2^2 [a2,a1] in coordinates
    x = from_word(letter_word((1, 2), 2))
    sq = power(x, 2)
    assert sq.alpha == (2, 2)
    assert sq == from_word(letter_word((1, 2, 1, 2), 2))


def test_format_element_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(2, 4)
        npairs = m * (m - 1) // 2
        el = MalcevElement(
            m,
            tuple(rng.randint(-4, 4) for _ in range(m)),
            tuple(rng.randint(-4, 4) for _ in range(npairs)),
        )
        assert from_word(parse_word(format_element(el), m)) == el
    assert format_element(identity(2)) == "1"


def test_mixed_rank_rejected():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))
