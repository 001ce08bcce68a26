"""Presentation normalization, word-problem deciders, c-smallness, regimes."""

import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest

from nilq import nilpotent2, presentation, zmatrix
from nilq.nilpotent2 import (
    MalcevElement,
    Polynomial,
    commutator,
    from_word,
    generator,
    identity,
    multiply,
    pair_list,
    power,
)
from nilq.presentation import (
    InconclusiveError,
    NilPresentation,
    classify,
    express_in_normalized_basis,
    is_c_small,
    is_central_mod_torsion,
    is_trivial_in_G,
    is_trivial_mod_torsion,
    normalize,
    parse_presentation,
)
from nilq.words import (
    MAX_RANK,
    MAX_RELATORS,
    RankLimitError,
    Word,
    concat,
    format_word,
    free_reduce,
    nielsen_normalize,
    parse_word,
    random_word,
    rewrite_through_generator_moves,
    word_power,
)

from naive_oracles import (lift_basis, rational_membership, relator_replay, substituted_collection,
                           traced_peak)


def _norm(text):
    return normalize(parse_presentation(text))


def _presentation(rels, m):
    """The presentation of the relator words rels over a1..am, class 2."""
    return NilPresentation(m, 2, tuple(from_word(w) for w in rels))


def _generator_images(np_):
    """normalize's basis change at each generator a_1 ... a_m."""
    m = np_.m
    return tuple(express_in_normalized_basis(Word(((k, 1),), m), np_) for k in range(1, m + 1))


def test_public_api_is_pinned():
    # a change to the package's names shows up here as a diff
    import nilq

    assert sorted(nilq.__all__) == [
        "InconclusiveError", "MalcevElement", "NilPresentation", "NormalizedPresentation",
        "RegimeReport", "SmithDecomposition", "Word", "classify", "commutator",
        "express_in_normalized_basis", "format_word", "from_word", "identity", "inverse",
        "is_c_small", "is_central_mod_torsion", "is_trivial_in_G", "is_trivial_mod_torsion",
        "multiply", "normalize", "parse_presentation", "parse_word", "power",
        "smith_normal_form",
    ]
    assert all(hasattr(nilq, name) for name in nilq.__all__)


def test_parse_presentation():
    p = parse_presentation("# demo\n2 2\na1^2\n\na2^2  # inline\n")
    assert p.m == 2 and p.s == 2
    assert p.relators == (power(generator(2, 1), 2), power(generator(2, 2), 2))


def test_presentation_rejects_relator_of_another_rank():
    with pytest.raises(ValueError, match="rank"):
        NilPresentation(2, 2, (generator(2, 1), generator(3, 1)))


def test_normalize_reads_elements_without_from_word(monkeypatch):
    p = parse_presentation("3 2\na1^2 a2 [a1,a3]\na2^2 a3^-1\na3^4 a1\n[a1,a2]^3\n")

    def refuse(*args):
        raise AssertionError("normalize called from_word")

    monkeypatch.setattr(nilpotent2, "from_word", refuse)
    monkeypatch.setattr(presentation, "from_word", refuse)
    np_ = normalize(p)
    assert np_.snf.rank == 3 and np_.r == 4


@pytest.mark.parametrize("text", ["3 2\na1^2 a2 [a1,a3]\na2^4 a1^-2\n[a2,a3]^6\n", "3 2\n"])
def test_deciders_read_v_and_build_neither_d_nor_u(text):
    # the Smith form's D and U are views no decider needs, so none is built
    np_ = _norm(text)
    classify(np_)
    for word in ("a1^2 a2", "a3 a2^-1 a3^-1 a2", "a1^4"):
        h = express_in_normalized_basis(parse_word(word, 3), np_)
        is_trivial_in_G(h, np_)
        is_trivial_mod_torsion(h, np_)
    assert "V" in vars(np_.snf) and not {"D", "U"} & set(vars(np_.snf))
    assert np_.snf.shape == (np_.r, 3)


def test_parse_presentation_errors():
    with pytest.raises(ValueError):
        parse_presentation("")
    with pytest.raises(ValueError):
        parse_presentation("2\na1\n")
    with pytest.raises(ValueError):
        parse_presentation("2 1\na1\n")
    with pytest.raises(ValueError):
        parse_presentation("2 2\na1 a9\n")
    # a relator's error names its line, counted with blank and comment lines
    with pytest.raises(ValueError, match=r"^line 4: unexpected character '!' \(position 3\)$"):
        parse_presentation("2 2\na1 a2\n# note\na1 !\n")
    # the letter cap is a resource limit, not a syntax error
    with pytest.raises(RankLimitError, match=r"^line 2: word expands to"):
        parse_presentation("2 2\na1^2000000\n")


def test_normalize_single_relator():
    np_ = _norm("2 2\na1^2\n")
    assert np_.r == 1
    assert np_.alphas == (2,)
    assert np_.rank_full
    # closing under conjugation contributes gamma([a1^2, a2]) = 2
    assert np_.closure_lattice == ((2,),)


def test_normalize_carries_central_parts():
    np_ = _norm("2 2\na1^2 [a1,a2]^3\n")
    assert np_.alphas == (2,)
    # d_12 = 2, so the relator's [a1,a2]^3 is kept modulo 2
    assert np_.d_pq == (2,) and np_.kept_pairs == (0,)
    assert np_.echelon.rows == ((2, 0, 1), (0, 0, 2))


def test_normalize_extra_relators_must_reduce():
    # full row rank with r > m folds surplus relators into central ones
    np_ = _norm("2 2\na1^2\na2^2\n[a1,a2]^5\n")
    assert np_.r == 3
    # [a1,a2]^5 and [a1,a2]^2 = [a1^2, a2] leave [a1,a2] in the closure
    assert np_.closure_lattice == ((1,),)
    assert is_trivial_in_G(from_word(parse_word("[a1,a2]", 2)), np_)


def test_word_problem_triple():
    np_ = _norm("2 2\na1^2\na2^2\n")
    c = from_word(parse_word("[a1,a2]", 2))
    assert is_trivial_in_G(power(c, 2), np_)
    assert not is_trivial_in_G(c, np_)
    assert is_trivial_mod_torsion(c, np_)
    assert is_trivial_in_G(identity(2), np_)
    assert not is_trivial_in_G(generator(2, 1), np_)
    # relators themselves die
    assert is_trivial_in_G(from_word(parse_word("a1^2", 2)), np_)


def test_word_problem_off_support():
    # r=1 < m: a2 survives even mod torsion
    np_ = _norm("2 2\na1^2\n")
    g2 = generator(2, 2)
    assert not is_trivial_in_G(g2, np_)
    assert not is_trivial_mod_torsion(g2, np_)
    assert is_trivial_mod_torsion(generator(2, 1), np_)
    assert not is_trivial_in_G(generator(2, 1), np_)


def test_word_problem_across_basis_change():
    # the Smith reduction substitutes generators here, so queries over the
    # original basis must be rewritten before the coordinate deciders run
    np_ = _norm("2 2\na1 a2\n")
    ask = lambda text: is_trivial_in_G(
        express_in_normalized_basis(parse_word(text, 2), np_), np_
    )
    assert ask("a1 a2")
    assert not ask("a1")
    assert not ask("a2")
    assert ask("[a1,a2]")  # the quotient is abelian

    np3 = _norm("3 2\na1 a2\na2\n")
    assert np3.alphas == (1, 1)
    ask3 = lambda text: is_trivial_in_G(
        express_in_normalized_basis(parse_word(text, 3), np3), np3
    )
    assert ask3("a1") and ask3("a2")
    assert not ask3("a3")


def test_original_relators_die_after_rewrite():
    for text in ("2 2\na1 a2\n", "3 2\na1 a2 a3\na2^2\n", "2 2\na1^2 a2^4\n"):
        p = parse_presentation(text)
        np_ = normalize(p)
        if not np_.rank_full:
            continue
        for line in text.splitlines()[1:]:
            rel = express_in_normalized_basis(parse_word(line, p.m), np_)
            assert is_trivial_in_G(rel, np_)


def test_express_in_normalized_basis_rejects_other_ranks():
    np_ = _norm("3 2\na1 a2\n")
    for m in (2, 4):
        with pytest.raises(ValueError, match="rank mismatch"):
            express_in_normalized_basis(parse_word("a1 a2", m), np_)


def test_normalize_matches_word_replay():
    # letter-by-letter Nielsen replay is the reference for the Smith log; its
    # words grow exponentially with the generator moves, hence the short
    # relators.  normalize's basis is the lift of V, which agrees with the
    # replayed moves in alpha only
    rng = random.Random(2)
    for _ in range(100):
        m = rng.randrange(2, 6)
        r = rng.randrange(1, m + 2)
        rels = tuple(random_word(rng.randrange(13), m, rng) for _ in range(r))
        p = _presentation(rels, m)
        np_ = normalize(p)
        words, snf = nielsen_normalize(rels, m)
        assert np_.snf == snf
        _, rewritten, _ = relator_replay(p, np_)
        assert rewritten == tuple(from_word(w) for w in words)
        basis = lift_basis(np_)
        assert _generator_images(np_) == basis
        for _ in range(3):
            w = random_word(rng.randrange(16), m, rng)
            h = express_in_normalized_basis(w, np_)
            assert h == substituted_collection(w, basis)
            assert h.alpha == from_word(rewrite_through_generator_moves(w, snf.ops)).alpha


def test_normalize_outputs_pinned():
    # the relators and closure lattice replayed by square-and-multiply, and
    # the collected lift of V, of 60 seeded presentations with m <= 8;
    # normalize's basis change must send each generator to its lift, and
    # normalize's lattice must be the replayed one
    rng = random.Random(11)
    digest = hashlib.sha256()
    moved = 0
    for _ in range(60):
        m = rng.randrange(2, 9)
        r = rng.randrange(1, m + 3)
        rels = tuple(random_word(rng.randrange(1, 13), m, rng) for _ in range(r))
        p = _presentation(rels, m)
        np_ = normalize(p)
        _, rewritten, lattice = relator_replay(p, np_)
        basis = lift_basis(np_)
        assert _generator_images(np_) == basis
        assert zmatrix.hermite_normal_form(np_.closure_lattice) == zmatrix.hermite_normal_form(lattice)
        moved += basis != tuple(generator(m, k) for k in range(1, m + 1))
        coords = lambda els: [el.alpha + el.gamma for el in els]
        digest.update(json.dumps([coords(rewritten), lattice, coords(basis)]).encode())
    assert moved >= 30
    assert digest.hexdigest() == "6074c7e902cde58cc7e57b2e87169ef10e241def14b1981094f30adeedac5ba6"


def test_cached_map_query_runs_no_group_arithmetic(monkeypatch):
    rng = random.Random(5)
    rels = tuple(random_word(10, 4, rng) for _ in range(2))
    np_ = normalize(_presentation(rels, 4))
    basis = lift_basis(np_)
    assert basis != tuple(generator(4, k) for k in range(1, 5))
    words = [random_word(30, 4, rng) for _ in range(20)] + list(rels)
    expected = [substituted_collection(w, basis) for w in words]
    replayed = [from_word(rewrite_through_generator_moves(w, np_.snf.ops)) for w in words]

    def forbidden(*args):
        raise AssertionError("group arithmetic on the query path")

    for module in (nilpotent2, presentation):
        for name in ("multiply", "inverse", "power", "commutator"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for w, want, moved in zip(words, expected, replayed):
        h = express_in_normalized_basis(w, np_)
        assert h == want and h.alpha == moved.alpha
        assert is_trivial_in_G(h, np_) == is_trivial_mod_torsion(h, np_) == (w in rels)


def _basis_change_draws(rng):
    """600 seeded presentations, m 1-8 and r 0..m+1, each with 5 query
    words.  A relator is a random word, a proper power of one (invariant
    factors above 1, so pairs with d_pq >= 2) or a bracket power; a query is
    a random word, one syllable a_k^e with |e| up to 10^6, or a bracket
    power of two random words."""
    def bracket(m):
        u, v = (format_word(random_word(rng.randrange(1, 5), m, rng)) for _ in range(2))
        return parse_word(f"[{u},{v}]^{rng.choice((-3, -1, 1, 2, 7))}", m)

    for i in range(600):
        m = i % 8 + 1
        rels = []
        for _ in range(rng.randrange(0, m + 2)):
            shape = rng.random()
            if m >= 2 and shape < 0.15:
                rels.append(bracket(m))
            elif shape < 0.4:
                rels.append(word_power(random_word(rng.randrange(1, 6), m, rng), rng.randint(2, 5)))
            else:
                rels.append(random_word(rng.randrange(1, 12), m, rng))
        queries = []
        for _ in range(5):
            shape = rng.random()
            if shape < 0.3:
                e = rng.choice((-1, 1)) * rng.randint(1, 10**6)
                queries.append(parse_word(f"a{rng.randint(1, m)}^{e}", m))
            elif m >= 2 and shape < 0.5:
                queries.append(bracket(m))
            else:
                queries.append(random_word(rng.randrange(0, 20), m, rng))
        yield _presentation(rels, m), queries


def test_basis_change_matches_the_polynomial_route():
    # the sparse rows of V map every query and relator as the word's
    # Polynomial evaluated at the basis images does, on 3000 (presentation,
    # word) pairs
    rng = random.Random(39)
    seen = {"no relators": 0, "moved basis": 0, "torsion pair": 0, "r > m": 0}
    pairs = 0
    for p, queries in _basis_change_draws(rng):
        np_ = normalize(p)
        m, d = np_.m, np_.d_pq
        basis = lift_basis(np_)
        identity_basis = basis == tuple(generator(m, k) for k in range(1, m + 1))
        seen["no relators"] += not p.relators and identity_basis
        seen["moved basis"] += not identity_basis
        seen["torsion pair"] += any(x >= 2 for x in d)
        seen["r > m"] += np_.r > m
        for h, row in zip(p.relators, np_.image_rows, strict=True):
            g = Polynomial(h, range(m))(basis, m)
            assert row == g.alpha + tuple(g.gamma[t] % d[t] if d[t] else g.gamma[t] for t in np_.kept_pairs)
        for w in queries:
            assert express_in_normalized_basis(w, np_) == Polynomial(from_word(w), range(m))(basis, m)
            pairs += 1
    assert pairs >= 3000 and all(seen.values()), seen


def test_basis_change_builds_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Polynomial was built")

    assert not hasattr(presentation, "Polynomial")
    monkeypatch.setattr(nilpotent2, "Polynomial", refuse)
    np_ = _norm("3 2\na1^2 a2 [a1,a3]\na2^4 a1^-2\n[a2,a3]^6\n")
    assert lift_basis(np_) != tuple(generator(3, k) for k in range(1, 4))
    for word in ("a1^2 a2", "a3 a2^-1 a3^-1 a2", "a2^-999999", "[a1 a2,a3]^5"):
        h = express_in_normalized_basis(parse_word(word, 3), np_)
        is_trivial_in_G(h, np_)


def test_normalize_long_relators():
    # word-level replay of this presentation's moves exhausts memory
    rng = random.Random(1)
    rels = [random_word(200, 5, rng) for _ in range(3)]
    np_ = normalize(_presentation(rels, 5))
    assert np_.rank_full and len(np_.alphas) == 3
    for rel in rels:
        assert is_trivial_in_G(express_in_normalized_basis(rel, np_), np_)
    assert not is_trivial_in_G(express_in_normalized_basis(parse_word("a5", 5), np_), np_)


def test_word_problem_rank_deficient():
    # a1 a2 = 1 makes a2 = a1^-1, and then a1^2 a2^2 = 1 holds already: G = Z
    np_ = _norm("2 2\na1^2 a2^2\na1 a2\n")
    assert not np_.rank_full
    ask = lambda text: express_in_normalized_basis(parse_word(text, 2), np_)
    for text in ("[a1,a2]", "a1 a2", "a1^2 a2^2", "a2 a1"):
        assert is_trivial_in_G(ask(text), np_)
    for text in ("a1", "a2^-3", "a1^2"):
        assert not is_trivial_in_G(ask(text), np_)
        assert not is_trivial_mod_torsion(ask(text), np_)
        assert is_central_mod_torsion(ask(text), np_)


def _conjugate_product(rels, m, rng):
    """A product of 1-3 conjugates of relators or their inverses: an element
    of the normal closure of rels."""
    prod = Word((), m)
    for _ in range(rng.randrange(1, 4)):
        u = random_word(rng.randrange(0, 5), m, rng)
        g = word_power(rels[rng.randrange(len(rels))], rng.choice((1, -1)))
        prod = concat(prod, concat(u, concat(g, u.inverse())))
    return free_reduce(prod)


def _metamorphic_queries(rels, m, rng):
    """Random words, closure elements, and closure elements times a random
    word, a commutator or a power of a random word."""
    for _ in range(16):
        w = random_word(rng.randrange(0, 8), m, rng)
        kind = rng.randrange(5)
        if kind == 0:
            yield w
        elif kind == 1:
            yield _conjugate_product(rels, m, rng)
        elif kind == 2:
            v = random_word(rng.randrange(1, 5), m, rng)
            comm = concat(concat(w, v), concat(w.inverse(), v.inverse()))
            yield concat(_conjugate_product(rels, m, rng), word_power(comm, rng.randint(1, 3)))
        else:
            yield concat(word_power(w, rng.randint(1, 4)), _conjugate_product(rels, m, rng))


def test_redundant_relator_changes_no_decision():
    # R is full-rank with r < m; R plus one product of conjugates of R is
    # rank-deficient and presents the same group
    rng = random.Random(11)
    seen = {"in G": 0, "not in G": 0, "torsion only": 0, "central": 0, "c-small": 0,
            "not c-small": 0}
    presentations = 0
    while presentations < 40:
        m = rng.randrange(2, 6)
        r = rng.randrange(1, m)
        rels = [random_word(rng.randrange(1, 10), m, rng) for _ in range(r)]
        base = normalize(_presentation(rels, m))
        if not base.rank_full:
            continue
        presentations += 1
        grown_rels = list(rels)
        grown_rels.insert(rng.randrange(r + 1), _conjugate_product(rels, m, rng))
        grown = normalize(_presentation(grown_rels, m))
        assert not grown.rank_full
        for w in _metamorphic_queries(rels, m, rng):
            h, hg = (express_in_normalized_basis(w, np_) for np_ in (base, grown))
            in_G = is_trivial_in_G(h, base)
            assert is_trivial_in_G(hg, grown) == in_G
            mod_torsion = is_trivial_mod_torsion(h, base)
            assert is_trivial_mod_torsion(hg, grown) == mod_torsion
            central = is_central_mod_torsion(h, base)
            assert is_central_mod_torsion(hg, grown) == central
            seen["in G" if in_G else "not in G"] += 1
            seen["torsion only"] += mod_torsion and not in_G
            seen["central"] += central and not mod_torsion
            if r <= m - 2:
                small = is_c_small(h, base)
                assert is_c_small(hg, grown) == small
                seen["c-small" if small else "not c-small"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("m", [2, 3, 4])
def test_all_commutator_relators_present_free_abelian(m):
    # the relators [a_i, a_j] have rank 0 and present Z^m: a word is trivial
    # iff its exponent sums vanish
    text = f"{m} 2\n" + "".join(f"[a{i},a{j}]\n" for i, j in pair_list(m))
    np_ = _norm(text)
    assert np_.snf.rank == 0 and not np_.rank_full
    rng = random.Random(m)
    trivial = 0
    for _ in range(120):
        w = random_word(rng.randrange(0, 12), m, rng)
        if rng.random() < 0.5:
            # append w's letters inverted in shuffled order: exponent sums 0
            letters = [(k, -e) for k, e in w.syllables]
            rng.shuffle(letters)
            w = concat(w, Word(tuple(letters), m))
        h = express_in_normalized_basis(w, np_)
        expected = not any(from_word(w).alpha)
        trivial += expected
        assert is_trivial_in_G(h, np_) == expected
        assert is_trivial_mod_torsion(h, np_) == expected
        assert is_central_mod_torsion(h, np_)
    assert 0 < trivial < 120


def test_central_mod_torsion():
    np_ = _norm("2 2\na1^2\n")
    assert is_central_mod_torsion(from_word(parse_word("[a1,a2]", 2)), np_)
    assert is_central_mod_torsion(generator(2, 1), np_)
    # the commutator has become torsion here, so even a2 is central mod torsion
    assert is_central_mod_torsion(generator(2, 2), np_)
    # not so in the free group
    free = _norm("2 2\n")
    assert is_central_mod_torsion(from_word(parse_word("[a1,a2]", 2)), free)
    assert not is_central_mod_torsion(generator(2, 1), free)


def test_c_small_examples():
    np_ = _norm("3 2\na1^2\n")
    assert is_c_small(generator(3, 3), np_)
    assert is_c_small(generator(3, 2), np_)
    # a1 becomes central mod torsion, and the ambient quotient is nonabelian
    assert not is_c_small(generator(3, 1), np_)
    assert not is_c_small(identity(3), np_)


def test_c_small_free_group():
    np_ = _norm("2 2\n")
    assert np_.r == 0
    assert is_c_small(generator(2, 1), np_)
    assert is_c_small(generator(2, 2), np_)
    assert not is_c_small(identity(2), np_)
    assert not is_c_small(from_word(parse_word("[a1,a2]", 2)), np_)


def test_c_small_caches_per_presentation_ranks(monkeypatch):
    calls = []

    def counting_rank(M):
        calls.append(M)
        return zmatrix.rank(M)

    monkeypatch.setattr(presentation, "zrank", counting_rank)
    np_ = _norm("4 2\na1^2 a2^3\n")
    assert not calls  # normalize leaves the profile ranks to is_c_small
    g = generator(4, 3)
    first = is_c_small(g, np_)
    calls.clear()
    assert is_c_small(g, np_) == first
    assert len(calls) <= 1


def test_c_small_precondition():
    np_ = _norm("2 2\na1^2\n")  # r = 1 > m - 2 = 0
    with pytest.raises(InconclusiveError):
        is_c_small(generator(2, 2), np_)


def test_c_small_precondition_counts_rank_not_relators():
    # a repeated relator presents the same group: r = 2 > m - 2, rank 1
    np_ = _norm("3 2\na1^2\na1^2\n")
    assert np_.r == 2 and np_.snf.rank == 1
    assert is_c_small(generator(3, 3), np_)
    assert is_c_small(generator(3, 3), _norm("3 2\na1^2\n"))


@pytest.mark.parametrize(
    "text,regime,dioph,corank",
    [
        ("3 2\na1^2\n", "UNDECIDABLE_REGULAR", "UNDECIDABLE", 2),
        ("4 2\na1^2\na2^3\n", "UNDECIDABLE_REGULAR", "UNDECIDABLE", 2),
        ("3 2\na1^2\na2^2\n", "VIRTUALLY_ABELIAN", "DECIDABLE", None),
        ("2 2\na1^2\na2^2\n", "FINITE", "DECIDABLE", None),
        ("2 2\na1^2\na2^2\na1 a2 a1 a2\n", "FINITE_ABELIAN", "DECIDABLE", None),
    ],
)
def test_classify_regimes(text, regime, dioph, corank):
    report = classify(_norm(text))
    assert report.regime == regime
    assert report.diophantine == dioph
    assert report.corank == corank


def test_classify_rank_deficient():
    report = classify(_norm("2 2\na1^2 a2^2\na1 a2\n"))
    assert report.regime == "INCONCLUSIVE"
    assert report.diophantine == "UNKNOWN"


def test_regime_report_json():
    report = classify(_norm("3 2\na1^2\n"))
    data = dataclasses.asdict(report)
    json.dumps(data)
    assert data["corank"] == 2
    assert data["regime"] == "UNDECIDABLE_REGULAR"
    assert "rank" in data and "invariant_factors" in data


def test_classify_mentions_asymptotic_caveat():
    report = classify(_norm("3 2\na1^2\na2^2\n"))
    assert "asymptotically almost surely" in report.notes


def test_higher_class_presentation_accepted():
    p = parse_presentation("2 3\na1^2\n")
    np_ = normalize(p)
    assert np_.s == 3
    report = classify(np_)
    assert "2-step" in report.notes or "class-2" in report.notes


# --- the echelon form against the Nielsen replay oracle ----------------------


def _replayed_closure(p, np_):
    """The normalized relators and the closure lattice of p over normalize's
    basis, the lift of V, from the replay of every row op by group
    multiplication."""
    basis = lift_basis(np_)
    assert _generator_images(np_) == basis
    _, rewritten, lattice = relator_replay(p, np_, basis)
    return rewritten[: np_.snf.rank], lattice


def _kept(np_, h):
    """h's coordinates at the echelon's columns: alpha, then the kept pairs."""
    return h.alpha + tuple(h.gamma[t] for t in np_.kept_pairs)


def _reference_trivial(h, np_, normalized, lattice, in_span):
    """Group-arithmetic bookkeeping that cancels alpha with relator powers,
    ending in a from-scratch membership test of the gamma residue: the
    oracle of is_trivial_in_G with lattice_membership, and of
    is_trivial_mod_torsion on h^n0 with rational_membership."""
    lam = []
    for i, a in enumerate(np_.alphas):
        q, rem = divmod(h.alpha[i], a)
        if rem:
            return False
        lam.append(q)
    if any(h.alpha[len(np_.alphas):]):
        return False
    t = h
    for rel, q in zip(normalized, lam):
        t = multiply(t, power(rel, -q))
    assert not any(t.alpha)
    return in_span(lattice, t.gamma)


def _bilinear_matrix(m, w):
    rows = []
    for (i, j) in pair_list(m):
        row = [0] * m
        row[j - 1] += w[i - 1]
        row[i - 1] -= w[j - 1]
        rows.append(row)
    return rows


def _kernel_dim(rows, cols):
    return cols - zmatrix.rank(rows)


def _lattice_rank(lat):
    return zmatrix.rank(lat)


# The Bareiss rank formulas the deciders used before the echelon form: the
# profile spaces as kernels of [B | -lattice] systems, less the lattice's own
# kernel.


def _bareiss_center_dim(m, lattice):
    lat = [list(v) for v in lattice]
    L = len(lat)
    rows = []
    for g in range(m):
        B = _bilinear_matrix(m, [1 if t == g else 0 for t in range(m)])
        for t, brow in enumerate(B):
            row = brow + [0] * (m * L)
            for s in range(L):
                row[m + g * L + s] = -lat[s][t]
            rows.append(row)
    return _kernel_dim(rows, m + m * L) - m * (L - _lattice_rank(lat))


def _bareiss_commuting_dim(m, lat, w):
    L = len(lat)
    B = _bilinear_matrix(m, w)
    rows = [brow + [-lat[s][t] for s in range(L)] for t, brow in enumerate(B)]
    return _kernel_dim(rows, m + L) - (L - _lattice_rank(lat))


def _seeded_presentations(rng):
    """m 1-6, r 0..m+1 random relators, plus a copied relator (rank-deficient)
    and relators with zero exponent sums."""
    for _ in range(90):
        m = rng.randrange(1, 7)
        r = rng.randrange(0, m + 2)
        rels = [random_word(rng.randrange(1, 12), m, rng) for _ in range(r)]
        shape = rng.random()
        if rels and shape < 0.15:
            rels.append(rels[0])
        elif m >= 2 and shape < 0.3:
            rels.append(parse_word(f"[a1,a{m}]^{rng.randint(1, 4)}", m))
        yield _presentation(rels, m)


def _seeded_queries(rng, m, normalized, lat):
    """Elements built from relator powers and central parts that land in the
    lattice, in its Q-span only, or off it, sometimes with a stray alpha."""
    npairs = m * (m - 1) // 2
    for _ in range(12):
        h = identity(m)
        for rel in normalized:
            h = multiply(h, power(rel, rng.randint(-2, 2)))
        gamma = [0] * npairs
        for v in lat:
            c = rng.randint(-3, 3)
            gamma = [a + c * b for a, b in zip(gamma, v)]
        kind = rng.random()
        if kind < 0.3 and any(gamma):
            g = math.gcd(*gamma)
            gamma = [a // g for a in gamma]
        elif kind < 0.55 and npairs:
            gamma[rng.randrange(npairs)] += rng.choice((-1, 1))
        h = multiply(h, MalcevElement(m, (0,) * m, tuple(gamma)))
        if rng.random() < 0.2:
            h = multiply(h, generator(m, rng.randrange(1, m + 1)))
        yield h


def test_cached_reductions_match_membership_oracles():
    rng = random.Random(5)
    seen = {"empty lattice": 0, "rank-deficient": 0, "in G": 0, "torsion only": 0, "c-small": 0}
    for p in _seeded_presentations(rng):
        np_ = normalize(p)
        normalized, lat = _replayed_closure(p, np_)
        seen["empty lattice"] += not lat
        assert np_.center_profile_dim == _bareiss_center_dim(np_.m, lat)
        zeros = (0,) * np_.m
        stacked = [g.alpha + g.gamma for g in normalized] + [zeros + v for v in lat]
        gamma_echelon = zmatrix.hermite_normal_form(np_.closure_lattice)
        for h in _seeded_queries(rng, np_.m, normalized, lat):
            # the echelon reductions alone
            coords = h.alpha + h.gamma
            assert np_.echelon.in_lattice(_kept(np_, h)) == (
                zmatrix.lattice_membership(stacked, coords) is not None)
            assert (not any(np_.echelon.rational_residue(_kept(np_, h)))) == (
                rational_membership(stacked, coords))
            assert gamma_echelon.in_lattice(h.gamma) == (
                zmatrix.lattice_membership(lat, h.gamma) is not None)
            assert (not any(gamma_echelon.rational_residue(h.gamma))) == (
                rational_membership(lat, h.gamma))
            assert presentation._commuting_profile_dim(np_, h) == _bareiss_commuting_dim(
                np_.m, lat, h.alpha)
            seen["rank-deficient"] += not np_.rank_full
            in_G = is_trivial_in_G(h, np_)
            assert in_G == _reference_trivial(
                h, np_, normalized, lat,
                lambda lat, v: zmatrix.lattice_membership(lat, v) is not None)
            n0 = math.lcm(*np_.alphas) if np_.alphas else 1
            mod_torsion = is_trivial_mod_torsion(h, np_)
            assert mod_torsion == _reference_trivial(
                power(h, n0), np_, normalized, lat, rational_membership)
            seen["in G"] += in_G
            seen["torsion only"] += mod_torsion and not in_G
            if np_.r <= np_.m - 2:
                seen["c-small"] += is_c_small(h, np_)
    assert all(seen.values()), seen


def _free_block_presentations(rng):
    """m 1-6 with a few random relators, sometimes one repeated, and brackets
    [a_i, a_j]^e with i, j beyond them, so that extra relators reach the free
    pairs rank < p < q; then the edge cases rank = m and m = 1."""
    for _ in range(80):
        m = rng.randrange(1, 7)
        r = rng.randrange(0, max(1, m - 1))
        rels = [random_word(rng.randrange(1, 12), m, rng) for _ in range(r)]
        if rels and rng.random() < 0.3:
            rels.append(rels[0])
        if m - r >= 2:
            for _ in range(rng.randrange(1, 4)):
                i, j = sorted(rng.sample(range(r + 1, m + 1), 2))
                rels.append(parse_word(f"[a{i},a{j}]^{rng.randint(1, 4)}", m))
        yield _presentation(rels, m)
    for m in range(2, 6):
        rels = [random_word(rng.randrange(1, 12), m, rng) for _ in range(m)]
        yield _presentation(rels + [parse_word(f"[a1,a{m}]^3", m)], m)
    yield NilPresentation(1, 2, ())
    yield _presentation([parse_word("a1^3", 1)], 1)


def test_free_block_deciders_match_whole_lattice_oracles():
    rng = random.Random(29)
    seen = {"free echelon rows": 0, "rank = m": 0, "m = 1": 0, "rank-deficient": 0,
            "torsion only": 0, "central": 0, "c-small": 0, "not c-small": 0}
    for p in _free_block_presentations(rng):
        np_ = normalize(p)
        normalized, lat = _replayed_closure(p, np_)
        m, k = np_.m, np_.snf.rank
        seen["free echelon rows"] += len(np_.free_block[1].rows) > k
        seen["rank = m"] += k == m
        seen["m = 1"] += m == 1
        seen["rank-deficient"] += not np_.rank_full
        center_dim = _bareiss_center_dim(m, lat)
        assert np_.center_profile_dim == center_dim
        n0 = math.lcm(*np_.alphas)
        queries = list(_seeded_queries(rng, m, normalized, lat))
        queries += [from_word(random_word(rng.randrange(1, 8), m, rng)) for _ in range(4)]
        queries += [generator(m, c) for c in range(1, m + 1)]
        for h in queries:
            in_G = is_trivial_in_G(h, np_)
            assert in_G == _reference_trivial(
                h, np_, normalized, lat,
                lambda lat, v: zmatrix.lattice_membership(lat, v) is not None)
            mod_torsion = is_trivial_mod_torsion(h, np_)
            assert mod_torsion == _reference_trivial(
                power(h, n0), np_, normalized, lat, rational_membership)
            commuting_dim = _bareiss_commuting_dim(m, lat, h.alpha)
            assert presentation._commuting_profile_dim(np_, h) == commuting_dim
            central = is_central_mod_torsion(h, np_)
            assert central == (commuting_dim == m)
            seen["torsion only"] += mod_torsion and not in_G
            seen["central"] += central
            if k <= m - 2:
                expected = center_dim == m if central else commuting_dim == center_dim + 1
                assert is_c_small(h, np_) == expected
                seen["c-small" if expected else "not c-small"] += 1
            else:
                with pytest.raises(InconclusiveError):
                    is_c_small(h, np_)
    assert all(seen.values()), seen


def test_torsion_free_deciders_never_build_the_echelon():
    # the free block is the Hermite form of the relator images alone, so no
    # decider modulo torsion builds the closure echelon and its rows d_pq e_pq
    rng = random.Random(31)
    squares = _presentation([parse_word(f"a{i}^2", MAX_RANK) for i in range(1, MAX_RANK + 1)], MAX_RANK)
    seen = {"torsion pairs": 0, "c-small": 0, "inconclusive": 0}
    for p in [*_seeded_presentations(rng), squares]:
        np_ = normalize(p)
        m = np_.m
        seen["torsion pairs"] += any(d >= 2 for d in np_.d_pq)
        assert np_.center_profile_dim <= m
        for h in [from_word(random_word(6, m, rng)) for _ in range(3)] + [generator(m, c) for c in (1, m)]:
            is_trivial_mod_torsion(h, np_)
            is_central_mod_torsion(h, np_)
            if np_.snf.rank <= m - 2:
                seen["c-small"] += is_c_small(h, np_)
            else:
                seen["inconclusive"] += 1
        assert "echelon" not in vars(np_)
    assert all(seen.values()), seen
    # on a_i^2 over MAX_RANK generators every d_pq is 2: the echelon has a
    # row for each of the 2016 pairs and a traced peak of about 65 MB
    np_ = normalize(squares)
    h = from_word(parse_word("a1^2 a2^4 [a3,a4]", MAX_RANK))
    trivial, peak = traced_peak(lambda: is_trivial_mod_torsion(h, np_))
    assert trivial and peak < 10**6, peak
    assert "echelon" not in vars(np_)


def _differential_presentations(rng, count):
    """count seeded presentations: m 1-6 and r 0..m+3 random relators, some
    with a repeated relator, a bracket relator [a_i, a_j]^e or a power of
    another relator (the last two rank-deficient whenever r <= m)."""
    for _ in range(count):
        m = rng.randrange(1, 7)
        rels = [random_word(rng.randrange(1, 10), m, rng) for _ in range(rng.randrange(0, m + 4))]
        shape = rng.random()
        if rels and shape < 0.2:
            rels.insert(rng.randrange(len(rels) + 1), rels[rng.randrange(len(rels))])
        elif m >= 2 and shape < 0.4:
            i, j = sorted(rng.sample(range(1, m + 1), 2))
            rels.append(parse_word(f"[a{i},a{j}]^{rng.randint(1, 4)}", m))
        elif rels and shape < 0.5:
            rels.append(word_power(rels[0], rng.randint(2, 3)))
        yield rels, _presentation(rels, m)


def test_deciders_match_the_replayed_closure_on_3000_presentations():
    # the lattice built from the relators and generator moves replayed by
    # group multiplication, asked of each query evaluated at the same
    # moves' basis, decides every query as normalize's echelon does in its
    # own basis, the lift of V: both lifts of V give the same answers
    rng = random.Random(2021)
    seen = {"r > m": 0, "rank-deficient": 0, "bracket relator": 0, "repeated relator": 0,
            "in G": 0, "torsion only": 0, "central": 0, "c-small": 0, "not c-small": 0}
    for rels, p in _differential_presentations(rng, 3000):
        np_ = normalize(p)
        m, k = np_.m, np_.snf.rank
        nielsen, rewritten, lat = relator_replay(p, np_)
        normalized = rewritten[:k]
        coordinate_echelon = zmatrix.hermite_normal_form(
            [g.alpha + g.gamma for g in normalized] + [(0,) * m + v for v in lat])
        gamma_echelon = zmatrix.hermite_normal_form(lat)

        def residues(h):
            return [gamma_echelon.rational_residue(commutator(h, generator(m, c)).gamma)
                    for c in range(1, m + 1)]

        def rank_of(rows):
            return zmatrix.rank(rows)

        center_dim = m - rank_of([sum(residues(generator(m, c)), []) for c in range(1, m + 1)])
        assert np_.center_profile_dim == center_dim
        seen["r > m"] += np_.r > m
        seen["rank-deficient"] += not np_.rank_full
        seen["bracket relator"] += any(not any(h.alpha) for h in p.relators)
        seen["repeated relator"] += len(set(p.relators)) < len(p.relators)
        n0 = math.lcm(*np_.alphas)
        queries = _metamorphic_queries(rels, m, rng) if rels else (
            random_word(rng.randrange(0, 8), m, rng) for _ in range(4))
        for w in itertools.islice(queries, 4):
            h = express_in_normalized_basis(w, np_)
            moved = Polynomial(from_word(w), range(m))(nielsen, m)
            in_G = coordinate_echelon.in_lattice(moved.alpha + moved.gamma)
            hn = power(moved, n0)
            mod_torsion = not any(coordinate_echelon.rational_residue(hn.alpha + hn.gamma))
            commuting_dim = m - rank_of(residues(moved))
            central = commuting_dim == m
            assert is_trivial_in_G(h, np_) == in_G
            assert is_trivial_mod_torsion(h, np_) == mod_torsion
            assert is_central_mod_torsion(h, np_) == central
            assert presentation._commuting_profile_dim(np_, h) == commuting_dim
            seen["in G"] += in_G
            seen["torsion only"] += mod_torsion and not in_G
            seen["central"] += central
            if k <= m - 2:
                expected = center_dim == m if central else commuting_dim == center_dim + 1
                assert is_c_small(h, np_) == expected
                seen["c-small" if expected else "not c-small"] += 1
            else:
                with pytest.raises(InconclusiveError):
                    is_c_small(h, np_)
    assert all(seen.values()), seen


def test_deciders_run_one_hnf_per_presentation(monkeypatch):
    calls = []
    hnf = zmatrix.hermite_normal_form

    def counting_hnf(M):
        calls.append(M)
        return hnf(M)

    monkeypatch.setattr(presentation, "hermite_normal_form", counting_hnf)
    # normalize runs no HNF; is_trivial_in_G runs the presentation's one,
    # over the alpha columns and the pairs with d_pq != 1, and every query
    # together runs one more, the free block's, of the r relator images alone
    for text in ("4 2\na1^2 a2^3\na2^4 [a1,a3]^2\n[a3,a4]^2\n",
                 "3 2\na1^2 a2\na2^3 a3\na3^2 a1 [a1,a2]\n[a2,a3]^4\n"):
        calls.clear()
        np_ = _norm(text)
        m = np_.m
        assert len(calls) == 0
        h = from_word(parse_word("a1 a2", m))
        is_trivial_in_G(h, np_)
        assert len(calls) == 1
        assert len(calls[0][0]) == m + len(np_.kept_pairs) < m + math.comb(m, 2)
        assert len(calls[0]) <= np_.r + len(np_.kept_pairs)
        assert np_.closure_lattice and len(calls) == 1
        rng = random.Random(8)
        rel = express_in_normalized_basis(parse_word(text.splitlines()[1], m), np_)
        for k in range(10):
            # alpha in the relators' span, so every call reaches the lattice test
            x, y = (from_word(random_word(6, m, rng)) for _ in range(2))
            h = multiply(power(rel, k), commutator(x, y))
            is_trivial_in_G(h, np_)
            is_trivial_mod_torsion(h, np_)
            is_central_mod_torsion(h, np_)
        assert len(calls) == 2 and len(calls[1]) <= np_.r


def test_normalize_runs_no_commutator(monkeypatch):
    def refuse(*args):
        raise AssertionError("normalize called commutator")

    monkeypatch.setattr(nilpotent2, "commutator", refuse)
    monkeypatch.setattr(presentation, "commutator", refuse, raising=False)
    np_ = _norm("3 2\na1^2 a2 [a1,a3]\na2^2 a3^-1\na3^4 a1\n[a1,a2]^3\n")
    assert np_.snf.rank == 3 and np_.r == 4
    # the closure lattice is read off the echelon, with no brackets either
    assert np_.closure_lattice


def _closure_draws(rng):
    """The seeded presentations, one with m = 1 and no relators, some whose
    relators are all proper powers (alphas > 1) and one at m = 12-16."""
    for _ in range(3):
        yield from _seeded_presentations(rng)
    yield NilPresentation(1, 2, ())
    for _ in range(100):
        m = rng.randrange(1, 7)
        rels = [word_power(random_word(rng.randrange(1, 8), m, rng), rng.randint(2, 4))
                for _ in range(rng.randrange(1, m + 4))]
        yield _presentation(rels, m)
    m = rng.randrange(12, 17)
    rels = [random_word(rng.randrange(1, 12), m, rng) for _ in range(rng.randrange(m - 2, m + 3))]
    yield _presentation(rels, m)


def test_closure_echelon_is_the_hermite_form_of_the_closure_lattice():
    # a lattice has one Hermite form: the echelon of the relators' images
    # and the d_pq is that of the replayed closure at the kept pairs, and the
    # closure lattice read off it spans the replayed one
    rng = random.Random(17)
    seen = {"no pairs": 0, "r > m": 0, "repeated relator": 0, "bracket relator": 0,
            "rank-deficient": 0, "extra gamma": 0, "alpha > 1": 0, "m >= 12": 0,
            "dropped pairs": 0}
    for p in _closure_draws(rng):
        np_ = normalize(p)
        _, rewritten, lat = relator_replay(p, np_, lift_basis(np_))
        assert relator_replay(p, np_)[2] == lat
        k = np_.snf.rank
        stacked = list(rewritten[:k]) + [MalcevElement(np_.m, (0,) * np_.m, v) for v in lat]
        assert np_.echelon == zmatrix.hermite_normal_form([_kept(np_, g) for g in stacked])
        assert zmatrix.hermite_normal_form(np_.closure_lattice) == zmatrix.hermite_normal_form(lat)
        assert np_.d_pq == tuple(np_.alphas[i - 1] if i <= k else 0 for i, _ in pair_list(np_.m))
        rels = p.relators
        seen["no pairs"] += p.m == 1 and not rels
        seen["r > m"] += np_.r > np_.m
        seen["repeated relator"] += len(set(rels)) < len(rels)
        seen["bracket relator"] += any(not any(h.alpha) for h in rels)
        seen["rank-deficient"] += not np_.rank_full
        seen["extra gamma"] += any(any(h.gamma) for h in rewritten[k:])
        seen["alpha > 1"] += any(a > 1 for a in np_.alphas)
        seen["m >= 12"] += np_.m >= 12
        seen["dropped pairs"] += len(np_.kept_pairs) < len(np_.d_pq)
    assert all(seen.values()), seen


def _full_rank_draws(rng, regime):
    """Seeded full-rank presentations with r <= m - 2, r = m - 1 or r >= m."""
    while True:
        if regime == "r <= m-2":
            m = rng.randrange(2, 7)
            r = rng.randrange(0, m - 1)
        else:
            m = rng.randrange(1, 7)
            r = m - 1 if regime == "r = m-1" else rng.randrange(m, m + 4)
        rels = [random_word(rng.randrange(1, 12), m, rng) for _ in range(r)]
        np_ = normalize(_presentation(rels, m))
        if np_.rank_full:
            yield np_


@pytest.mark.parametrize("regime", ["r <= m-2", "r = m-1", "r >= m"])
def test_paper_claims_1_to_3_hold_for_every_full_rank_draw(regime):
    # the argument is in the presentation module docstring
    draws = _full_rank_draws(random.Random(23), regime)
    for _ in range(300):
        np_ = next(draws)
        m, k = np_.m, np_.snf.rank
        a = [generator(m, c) for c in range(1, m + 1)]
        if regime == "r <= m-2":
            assert np_.center_profile_dim == k
            assert all(is_c_small(a[c], np_) for c in range(k, m))
        elif regime == "r = m-1":
            assert all(is_trivial_mod_torsion(commutator(x, y), np_) for x in a for y in a)
            assert not is_trivial_mod_torsion(a[-1], np_)
        else:
            assert all(is_trivial_mod_torsion(x, np_) for x in a)


def test_central_mod_torsion_matches_commutator_loop():
    # the loop the bracket residues replaced: h is central modulo torsion iff
    # [h, a_g] is trivial modulo torsion for every generator a_g
    rng = random.Random(12)
    seen = {True: 0, False: 0}
    for p in _seeded_presentations(rng):
        np_ = normalize(p)
        for h in _seeded_queries(rng, np_.m, *_replayed_closure(p, np_)):
            expected = all(
                is_trivial_mod_torsion(commutator(h, generator(np_.m, g)), np_)
                for g in range(1, np_.m + 1)
            )
            assert is_central_mod_torsion(h, np_) == expected
            seen[expected] += 1
    assert all(seen.values()), seen


def test_relator_count_limit():
    at_limit = "2 2\n" + "a1 a2^2\n" * MAX_RELATORS
    assert len(parse_presentation(at_limit + "# a comment\n").relators) == MAX_RELATORS
    # the count is checked before the next word is parsed
    for extra in ("a1\n", "b9\n"):
        with pytest.raises(RankLimitError, match=f"over the limit of {MAX_RELATORS}"):
            parse_presentation(at_limit + extra)


def test_central_mod_torsion_stops_at_first_noncommuting_generator(monkeypatch):
    consumed = []
    residues = presentation._bracket_residues

    def counting_residues(np_, g):
        for res in residues(np_, g):
            consumed.append(res)
            yield res

    monkeypatch.setattr(presentation, "_bracket_residues", counting_residues)
    assert not is_central_mod_torsion(generator(4, 1), _norm("4 2\n"))
    assert len(consumed) == 2  # a1 commutes with a1, not with a2
