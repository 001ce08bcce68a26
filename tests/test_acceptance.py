"""Acceptance gate: twelve calibrated criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
without -s they only surface on failure.  Stochastic criteria use the frozen
seed 20260822; thresholds come from the pilot runs in docs/pilot_runs.md.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from nilq.nilpotent2 import (
    MalcevElement,
    commutator,
    from_word,
    generator,
    identity,
    inverse,
    multiply,
    power,
)
from nilq.presentation import (
    NilPresentation,
    classify,
    express_in_normalized_basis,
    is_trivial_in_G,
    is_trivial_mod_torsion,
    normalize,
    parse_presentation,
)
from nilq.randwalk import (
    ExperimentConfig,
    coordinate_clt_stats,
    clt_csv,
    decay_slope,
    rank_experiment,
    rank_experiment_csv,
    return_probability_exact,
    return_table_csv,
    schwartz_zippel_check,
)
from nilq.words import (
    Word,
    concat,
    free_reduce,
    random_word,
    word_power,
)
from nilq.zmatrix import smith_normal_form
from nilq.diophantine import (
    FreeNilpotentAmbient,
    RingSystem,
    odot_law_failures,
    verify_correspondence,
    z_in_g_templates,
)

from naive_oracles import (cofactor_det, collection_oracle, letter_word, lift_basis, matmul,
                           relator_replay, view_rows)


SEED = 20260822


def _verdict(num, desc, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[A{num}] {desc}: {status} ({elapsed:.1f}s)")
    detail = failures[0] if failures else f"over budget: {elapsed:.1f}s >= {budget}s"
    assert ok, f"criterion {num}: {detail}"


# shared CSV cache so criterion 12 can compare independent recomputations
_FIRST_RUN = {}


def _rank_csvs():
    out = {}
    for m, r in ((2, 1), (3, 2), (2, 2)):
        cfg = ExperimentConfig(m=m, r=r, lengths=(10, 100, 1000), trials=2000, seed=SEED)
        rows = rank_experiment(cfg)
        out[(m, r)] = (rows, rank_experiment_csv(cfg, rows))
    return out


def _clt_csvs():
    out = {}
    for m in (2, 3):
        s = coordinate_clt_stats(m, 10**4, 10**4, SEED)
        out[m] = (s, clt_csv(s))
    return out


def _return_csvs():
    out = {}
    for m in (1, 2, 3):
        t = return_probability_exact(m, 200)
        out[m] = (t, return_table_csv(t))
    return out


def test_criterion_01_exact_algebra():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED)
    for trial in range(500):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        M = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(M, cols)
        U, V = view_rows(snf.U), view_rows(snf.V)
        if matmul(matmul(U, M), V) != view_rows(snf.D):
            failures.append(f"trial {trial}: U*M*V != D")
            break
        if abs(cofactor_det(U)) != 1 or abs(cofactor_det(V)) != 1:
            failures.append(f"trial {trial}: transform not unimodular")
            break
        chain = snf.invariant_factors
        if any(d <= 0 for d in chain) or any(
            b % a for a, b in zip(chain, chain[1:])
        ):
            failures.append(f"trial {trial}: divisibility chain broken: {chain}")
            break
    _verdict(1, "Smith decomposition identities on 500 random matrices", failures,
             time.monotonic() - t0, 10.0)


def test_criterion_02_malcev_oracle():
    t0 = time.monotonic()
    failures = []
    for m in (2, 3):
        alphabet = [k for k in range(1, m + 1)] + [-k for k in range(1, m + 1)]
        for length in range(1, 7):
            for ls in itertools.product(alphabet, repeat=length):
                w = letter_word(ls, m)
                if from_word(w) != collection_oracle(w):
                    failures.append(f"mismatch at m={m}, word={ls}")
                    break
            if failures:
                break
        if failures:
            break
    if not failures:
        rng = random.Random(SEED)
        for i in range(1000):
            m = 2 + (i % 2)
            w = random_word(50, m, rng)
            if from_word(w) != collection_oracle(w):
                failures.append(f"random mismatch at word {i}")
                break
    _verdict(2, "coordinate evaluation equals collection (exhaustive + random)",
             failures, time.monotonic() - t0, 60.0)


def test_criterion_03_group_laws():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED)

    def rand_el(m):
        npairs = m * (m - 1) // 2
        return MalcevElement(
            m,
            tuple(rng.randint(-10, 10) for _ in range(m)),
            tuple(rng.randint(-10, 10) for _ in range(npairs)),
        )

    for trial in range(1000):
        m = rng.choice((2, 3))
        x, y, z = rand_el(m), rand_el(m), rand_el(m)
        k = rng.randint(-6, 6)
        e = identity(m)
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            failures.append(f"trial {trial}: associativity")
            break
        if multiply(x, inverse(x)) != e:
            failures.append(f"trial {trial}: inverse")
            break
        if not commutator(commutator(x, y), z).is_identity():
            failures.append(f"trial {trial}: 2-step law")
            break
        if commutator(power(x, k), y) != power(commutator(x, y), k):
            failures.append(f"trial {trial}: commutator power bilinearity")
            break
    _verdict(3, "group laws on 1000 random instances", failures,
             time.monotonic() - t0, 60.0)


def _random_full_rank_presentation(rng, max_m=3):
    while True:
        m = rng.randrange(2, max_m + 1)
        r = rng.randrange(1, m + 1)
        rels = tuple(random_word(rng.randrange(2, 9), m, rng) for _ in range(r))
        np_ = normalize(NilPresentation(m, 2, tuple(from_word(w) for w in rels)))
        if np_.rank_full:
            return rels, np_


def _closure_generators(rels, np_):
    """The normalized relators and the closure lattice of the relator words
    rels, from the Nielsen replay oracle over normalize's basis, the lift of
    V."""
    p = NilPresentation(np_.m, 2, tuple(from_word(w) for w in rels))
    basis = lift_basis(np_)
    assert np_.basis_images == basis
    _, rewritten, lattice = relator_replay(p, np_, basis)
    return rewritten[: np_.snf.rank], lattice


def _snf_lattice_member(lattice, v):
    """Independent membership oracle: y*L = v solvable over Z iff, with
    U*L*V = D, the vector w = v*V satisfies d_i | w_i on the diagonal range
    and w_i = 0 beyond the rank."""
    if not lattice:
        return not any(v)
    snf = smith_normal_form(lattice, len(v))
    (w,) = matmul([v], view_rows(snf.V))
    for i, x in enumerate(w):
        if i < snf.rank:
            if x % snf.invariant_factors[i]:
                return False
        elif x:
            return False
    return True


def test_criterion_04_word_problem_small_scale():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED)
    for pres_idx in range(20):
        rels, np_ = _random_full_rank_presentation(rng)
        m = np_.m
        # soundness: products of <= 4 random conjugates of original relators
        for _ in range(10):
            k = rng.randrange(1, 5)
            prod = Word((), m)
            for _ in range(k):
                u = random_word(rng.randrange(0, 5), m, rng)
                g = word_power(rels[rng.randrange(len(rels))], rng.choice((1, -1)))
                prod = concat(prod, concat(u, concat(g, u.inverse())))
            h = express_in_normalized_basis(free_reduce(prod), np_)
            if not is_trivial_in_G(h, np_):
                failures.append(f"presentation {pres_idx}: conjugate product rejected")
                break
        if failures:
            break
        # completeness at small scale: all products of <= 3 closure
        # generators (normalized relators and lattice vectors) are accepted
        normalized, lattice = _closure_generators(rels, np_)
        factors = []
        for g in normalized:
            factors.extend((g, inverse(g)))
        npairs = m * (m - 1) // 2
        for vec in lattice:
            el = MalcevElement(m, (0,) * m, tuple(vec))
            factors.extend((el, inverse(el)))
        products = {identity(m)}
        frontier = {identity(m)}
        for _ in range(3):
            frontier = {multiply(a, f) for a in frontier for f in factors}
            products |= frontier
        for el in products:
            if not is_trivial_in_G(el, np_):
                failures.append(f"presentation {pres_idx}: closure element rejected")
                break
        if failures:
            break
        # cross-check central decisions against an independent SNF oracle
        for _ in range(30):
            v = tuple(rng.randint(-6, 6) for _ in range(npairs))
            got = is_trivial_in_G(MalcevElement(m, (0,) * m, v), np_)
            want = _snf_lattice_member(lattice, v)
            if got != want:
                failures.append(
                    f"presentation {pres_idx}: central {v} decided {got}, oracle {want}"
                )
                break
        if failures:
            break
    _verdict(4, "word problem vs closure enumeration on 20 presentations",
             failures, time.monotonic() - t0, 120.0)


def _conjugate_product(rels, m, rng):
    """A product of 1-4 conjugates of relators or their inverses."""
    prod = Word((), m)
    for _ in range(rng.randrange(1, 5)):
        u = random_word(rng.randrange(0, 5), m, rng)
        g = word_power(rels[rng.randrange(len(rels))], rng.choice((1, -1)))
        prod = concat(prod, concat(u, concat(g, u.inverse())))
    return free_reduce(prod)


def _random_rank_deficient_presentation(rng, max_m=4):
    """Random relators plus one that adds no rank: a product of conjugates of
    the others, a commutator power (central, and new to the closure) or a
    repeat of another relator."""
    while True:
        m = rng.randrange(2, max_m + 1)
        r = rng.randrange(1, m + 1)
        rels = [random_word(rng.randrange(2, 9), m, rng) for _ in range(r)]
        shape = rng.randrange(3)
        if shape == 0:
            extra = _conjugate_product(rels, m, rng)
        elif shape == 1:
            u, v = (random_word(rng.randrange(1, 4), m, rng) for _ in range(2))
            extra = word_power(concat(concat(u, v), concat(u.inverse(), v.inverse())),
                               rng.randint(1, 3))
        else:
            extra = rels[rng.randrange(r)]
        rels.insert(rng.randrange(r + 1), free_reduce(extra))
        np_ = normalize(NilPresentation(m, 2, tuple(from_word(w) for w in rels)))
        if not np_.rank_full:
            return rels, np_


def test_word_problem_closure_enumeration_rank_deficient():
    # A4's soundness, completeness and SNF cross-check on presentations whose
    # exponent-sum matrix is rank-deficient
    rng = random.Random(SEED + 4)
    for pres_idx in range(20):
        rels, np_ = _random_rank_deficient_presentation(rng)
        m = np_.m
        for _ in range(10):
            h = express_in_normalized_basis(_conjugate_product(rels, m, rng), np_)
            assert is_trivial_in_G(h, np_), f"presentation {pres_idx}: conjugate product rejected"
        normalized, lattice = _closure_generators(rels, np_)
        factors = []
        for g in normalized:
            factors.extend((g, inverse(g)))
        for vec in lattice:
            el = MalcevElement(m, (0,) * m, tuple(vec))
            factors.extend((el, inverse(el)))
        products = frontier = {identity(m)}
        for _ in range(3):
            frontier = {multiply(a, f) for a in frontier for f in factors}
            products = products | frontier
        for el in products:
            assert is_trivial_in_G(el, np_), f"presentation {pres_idx}: closure element rejected"
        npairs = m * (m - 1) // 2
        for _ in range(30):
            v = tuple(rng.randint(-6, 6) for _ in range(npairs))
            got = is_trivial_in_G(MalcevElement(m, (0,) * m, v), np_)
            assert got == _snf_lattice_member(lattice, v), (pres_idx, v)


def test_criterion_05_support_lemmas():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(SEED)
    pairs = 0
    while pairs < 200 and not failures:
        _, np_ = _random_full_rank_presentation(rng)
        m, r = np_.m, np_.snf.rank
        npairs = m * (m - 1) // 2
        pairs += 1
        # support lemma: trivial h with alpha supported past r has alpha = 0
        alpha = [0] * m
        for idx in range(r, m):
            alpha[idx] = rng.randint(-4, 4)
        h = MalcevElement(m, tuple(alpha), tuple(rng.randint(-4, 4) for _ in range(npairs)))
        if is_trivial_in_G(h, np_) and any(h.alpha):
            failures.append(f"pair {pairs}: trivial element with off-rank alpha {h.alpha}")
            break
        if r < m:
            # torsion corollary: [a_l, h] trivial mod torsion forces alpha to
            # vanish on the off-rank indices other than l
            ell = rng.randrange(r + 1, m + 1)
            if rng.random() < 0.5:
                alpha = [rng.randint(-4, 4) if i < r else 0 for i in range(m)]
                alpha[ell - 1] = rng.randint(-4, 4)
                h = MalcevElement(
                    m, tuple(alpha), tuple(rng.randint(-4, 4) for _ in range(npairs))
                )
            else:
                h = MalcevElement(
                    m,
                    tuple(rng.randint(-4, 4) for _ in range(m)),
                    tuple(rng.randint(-4, 4) for _ in range(npairs)),
                )
            if is_trivial_mod_torsion(commutator(generator(m, ell), h), np_):
                bad = [
                    i + 1
                    for i in range(r, m)
                    if i + 1 != ell and h.alpha[i] != 0
                ]
                if bad:
                    failures.append(
                        f"pair {pairs}: centralizing h has support at {bad}"
                    )
                    break
    _verdict(5, "support/torsion lemma conformance on 200 pairs", failures,
             time.monotonic() - t0, 120.0)


def test_criterion_06_full_rank_frequencies():
    t0 = time.monotonic()
    failures = []
    data = _rank_csvs()
    _FIRST_RUN["rank"] = {k: v[1] for k, v in data.items()}
    for (m, r), (rows, _) in data.items():
        for a, b in zip(rows, rows[1:]):
            slack = 2.0 * math.sqrt(a.stderr**2 + b.stderr**2)
            if float(b.p_hat) < float(a.p_hat) - slack:
                failures.append(
                    f"(m,r)=({m},{r}): p_hat drops {a.p_hat}->{b.p_hat} beyond {slack:.4f}"
                )
        final = rows[-1]
        if float(final.p_hat) < 0.97:
            failures.append(f"(m,r)=({m},{r}): p_hat(1000) = {float(final.p_hat)} < 0.97")
    _verdict(6, "full-rank frequency rises to >= 0.97 at length 1000", failures,
             time.monotonic() - t0, 120.0)


def test_criterion_07_coordinate_variance():
    t0 = time.monotonic()
    failures = []
    data = _clt_csvs()
    _FIRST_RUN["clt"] = {k: v[1] for k, v in data.items()}
    for m, (summary, _) in data.items():
        for i, v in enumerate(summary.variances):
            if abs(v - 1.0 / m) > 0.05 / m:
                failures.append(f"m={m} coordinate {i+1}: variance {v} off 1/{m} by >5%")
    _verdict(7, "normalized coordinate variance within 5% of 1/m", failures,
             time.monotonic() - t0, 120.0)


def test_criterion_08_return_decay():
    t0 = time.monotonic()
    failures = []
    data = _return_csvs()
    _FIRST_RUN["return"] = {k: v[1] for k, v in data.items()}
    for m, (table, _) in data.items():
        if not table.exact:
            failures.append(f"m={m}: table not exact")
            continue
        fit = decay_slope(m, (50, 200))
        if abs(fit.slope + m / 2.0) > 0.15:
            failures.append(f"m={m}: slope {fit.slope} outside +-0.15 of {-m/2}")
    # cross check against closed forms as independent evidence (odd-step
    # return probability is 0, so values[n] = p_n(0) at even n)
    if not failures:
        for n in range(0, 201, 2):
            p1 = Fraction(math.comb(n, n // 2), 2**n)
            if data[1][0].values[n] != p1:
                failures.append(f"m=1 n={n}: exact value off central binomial")
                break
            if data[2][0].values[n] != p1 * p1:
                failures.append(f"m=2 n={n}: exact value off squared binomial")
                break
    _verdict(8, "exact return tables decay like n^(-m/2)", failures,
             time.monotonic() - t0, 120.0)


def test_criterion_09_schwartz_zippel():
    t0 = time.monotonic()
    failures = []
    for r, m in ((1, 1), (1, 2), (2, 2)):
        for b in (1, 2):
            res = schwartz_zippel_check(r, m, b)
            if not res.holds:
                failures.append(
                    f"(r,m,b)=({r},{m},{b}): {res.zero_count} zeros > bound {res.bound}"
                )
    _verdict(9, "zero counts within the degree bound on six grids", failures,
             time.monotonic() - t0, 60.0)


def test_criterion_10_classifier_table():
    t0 = time.monotonic()
    failures = []
    table = [
        ("3 2\na1^2\n", "UNDECIDABLE_REGULAR", "UNDECIDABLE", 2),
        ("4 2\na1^2\na2^6\n", "UNDECIDABLE_REGULAR", "UNDECIDABLE", 2),
        ("3 2\na1^2\na2^2\n", "VIRTUALLY_ABELIAN", "DECIDABLE", None),
        ("2 2\na1^3\na2^3\n", "FINITE", "DECIDABLE", None),
        ("2 2\na1^2\na2^2\na1 a2 a1 a2\n", "FINITE_ABELIAN", "DECIDABLE", None),
        ("2 2\na1^2 a2^2\na1 a2\n", "INCONCLUSIVE", "UNKNOWN", None),
    ]
    for text, regime, dioph, corank in table:
        rep = classify(normalize(parse_presentation(text)))
        if (rep.regime, rep.diophantine, rep.corank) != (
            regime,
            dioph,
            corank,
        ):
            failures.append(
                f"{text!r}: got ({rep.regime}, {rep.diophantine}, "
                f"{rep.corank}), want ({regime}, {dioph}, {corank})"
            )
    _verdict(10, "regime table matches expected verdicts and coranks", failures,
             time.monotonic() - t0, 60.0)


def _corpus():
    V = lambda n: ("var", n)
    C = lambda n: ("const", n)
    return [
        ("x=0", RingSystem(("x",), (((V("x")), C(0)),)), 1),
        (
            "x1+x2=x3",
            RingSystem(
                ("x1", "x2", "x3"),
                ((("+", V("x1"), V("x2")), V("x3")),),
            ),
            91,
        ),
        ("x*x=4", RingSystem(("x",), ((("*", V("x"), V("x")), C(4)),)), 2),
        ("x*x=2", RingSystem(("x",), ((("*", V("x"), V("x")), C(2)),)), 0),
        (
            "x*y=6,x+y=5",
            RingSystem(
                ("x", "y"),
                (
                    (("*", V("x"), V("y")), C(6)),
                    (("+", V("x"), V("y")), C(5)),
                ),
            ),
            2,
        ),
    ]


def test_criterion_11_compiler_correspondence():
    t0 = time.monotonic()
    failures = []
    edef = z_in_g_templates()
    amb = FreeNilpotentAmbient(2)
    for name, S, expected_solutions in _corpus():
        rep = verify_correspondence(S, edef, amb, 5, 8, eval_limit=2 * 10**7)
        if not rep.ok:
            failures.append(f"{name}: counterexamples {rep}")
            break
        if rep.ring_solutions != expected_solutions:
            failures.append(
                f"{name}: {rep.ring_solutions} ring solutions, expected {expected_solutions}"
            )
            break
    if not failures:
        bad = odot_law_failures(edef, amb, t_max=4, aux_bound=4, eval_limit=2 * 10**7)
        if bad:
            failures.append(f"multiplication gadget law fails at {bad[:3]}")
    _verdict(11, "equation compiler faithful on corpus, product law to |t|=4",
             failures, time.monotonic() - t0, 300.0)


def test_criterion_12_determinism():
    t0 = time.monotonic()
    failures = []
    # baselines come from criteria 6-8 when the whole file runs; recompute
    # them here so this test also stands alone
    baselines = {
        "rank": _FIRST_RUN.get("rank") or {k: v[1] for k, v in _rank_csvs().items()},
        "clt": _FIRST_RUN.get("clt") or {k: v[1] for k, v in _clt_csvs().items()},
        "return": _FIRST_RUN.get("return") or {k: v[1] for k, v in _return_csvs().items()},
    }
    for key, (_, text) in _rank_csvs().items():
        if text != baselines["rank"][key]:
            failures.append(f"rank CSV for {key} differs between runs")
    for key, (_, text) in _clt_csvs().items():
        if text != baselines["clt"][key]:
            failures.append(f"clt CSV for m={key} differs between runs")
    for key, (_, text) in _return_csvs().items():
        if text != baselines["return"][key]:
            failures.append(f"return CSV for m={key} differs between runs")
    _verdict(12, "criteria 6-8 reruns byte-identical", failures,
             time.monotonic() - t0, 300.0)
