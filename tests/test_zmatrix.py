"""Exact integer matrix layer: Smith form, Hermite form, rank, membership."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilq.zmatrix import (
    ElementaryOp,
    hermite_normal_form,
    lattice_membership,
    minor_polynomial,
    rank,
    smith_normal_form,
    solve_affine,
    solver_form,
)

from naive_oracles import apply_op, cofactor_det, matmul, rational_membership, view_rows


def _random_matrix(rng, max_dim=5, lo=-9, hi=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _fraction_rank(M) -> int:
    # Gaussian elimination over Q, the slow obvious way.
    a = [[Fraction(x) for x in row] for row in M]
    r = 0
    for c in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(M)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_smith_form_identities_and_replay():
    rng = random.Random(11)
    for _ in range(120):
        M = _random_matrix(rng)
        snf = smith_normal_form(M, len(M[0]))
        assert snf.shape == (len(M), len(M[0]))
        U, D, V = view_rows(snf.U), view_rows(snf.D), view_rows(snf.V)
        assert matmul(matmul(U, M), V) == D
        assert abs(cofactor_det(U)) == abs(cofactor_det(V)) == 1
        for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
            assert a > 0 and b % a == 0
        assert snf.rank == len(snf.invariant_factors) == _fraction_rank(M)
        # off-diagonal of D is zero
        for i, row in enumerate(D):
            for j, v in enumerate(row):
                if i != j:
                    assert v == 0
        # the op log, replayed from scratch, reproduces D
        R = tuple(map(tuple, M))
        for op in snf.ops:
            R = apply_op(R, op)
        assert R == D


def test_smith_form_known_values():
    snf = smith_normal_form([[2, 0], [0, 3]], 2)
    assert snf.invariant_factors == (1, 6)
    snf = smith_normal_form([[2, 4], [6, 8]], 2)
    assert snf.invariant_factors == (2, 4)
    snf = smith_normal_form([[0, 0], [0, 0]], 2)
    assert snf.invariant_factors == ()
    assert snf.rank == 0


def test_smith_form_of_no_rows_is_the_identity_on_its_width():
    for m in range(1, 5):
        snf = smith_normal_form([], m)
        assert (snf.shape, snf.rank, snf.invariant_factors, snf.ops) == ((0, m), 0, (), ())
        assert (snf.U.rows, snf.U.cols) == (0, 0)
        assert view_rows(snf.V) == tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        assert (snf.D.rows, snf.D.cols, snf.D.entries) == (0, m, ())


def test_smith_form_rejects_ragged_rows_and_another_width():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]], 2)
    with pytest.raises(ValueError, match="rows of length 2, not 3"):
        smith_normal_form([[1, 2], [3, 4]], 3)


def test_smith_form_builds_d_u_and_v_only_when_read():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12]], 3)
    assert not {"D", "U", "V"} & set(vars(snf))
    assert view_rows(snf.D) == ((2, 0, 0), (0, 6, 0))
    assert set(vars(snf)) >= {"D"} and not {"U", "V"} & set(vars(snf))


def test_apply_op_rejects_unknown_kind():
    with pytest.raises(ValueError):
        apply_op([[1, 0], [0, 1]], ElementaryOp("row_scale", 0, 0, 5))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_routes_agree(rows):
    r = rank(rows)
    assert r == _fraction_rank(rows)
    # minor_polynomial is nonzero exactly when the rank is maximal
    assert (minor_polynomial(rows) != 0) == (r == min(len(rows), len(rows[0])))


def test_minor_polynomial_edge_cases():
    # no maximal minors to sum: empty product convention
    assert minor_polynomial([[3]]) == 9
    wide = [[1, 0, 2]]
    assert minor_polynomial(wide) == 1 + 0 + 4
    assert minor_polynomial([[0, 0, 0], [0, 0, 0]]) == 0


def _squared_minor_sum(rows, r, m):
    """The sum of squared maximal minors, one cofactor expansion each."""
    if min(r, m) == 0:
        return 1
    if r <= m:
        return sum(cofactor_det([[row[j] for j in cols] for row in rows]) ** 2
                   for cols in combinations(range(m), r))
    return sum(cofactor_det([rows[i] for i in rws]) ** 2 for rws in combinations(range(r), m))


def test_minor_polynomial_matches_squared_minor_sum():
    rng = random.Random(29)
    shapes = {"empty": 0, "square": 0, "wide": 0, "tall": 0, "deficient": 0}
    for _ in range(400):
        r, m = rng.randrange(0, 5), rng.randrange(0, 6)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.2:
            rows[-1] = list(rows[0])
        value = minor_polynomial(rows)
        assert value == _squared_minor_sum(rows, r, m), rows
        shapes["empty" if min(r, m) == 0 else "square" if r == m else "wide" if r < m else "tall"] += 1
        shapes["deficient"] += value == 0
    assert all(shapes.values()), shapes


def test_hermite_form_properties():
    rng = random.Random(23)
    for _ in range(100):
        M = _random_matrix(rng)
        E = hermite_normal_form(M)
        # the form of [M | I]: E is its rows that pivot in M's columns, cut
        # to them, and W every row's identity part
        HW, m = solver_form(M), len(M[0])
        k = sum(c < m for c in HW.pivots)
        assert (tuple(row[:m] for row in HW.rows[:k]), HW.pivots[:k]) == (E.rows, E.pivots)
        W = tuple(row[m:] for row in HW.rows)
        # the nonzero rows of H = W M, then its zero rows
        H = E.rows + ((0,) * m,) * (len(M) - len(E.rows))
        assert matmul(W, M) == H
        assert abs(cofactor_det(W)) == 1
        assert len(E.pivots) == len(E.rows) == rank(M)
        prev = -1
        for k, pc in enumerate(E.pivots):
            assert pc > prev
            prev = pc
            assert H[k][pc] > 0
            for i in range(k):
                assert 0 <= H[i][pc] < H[k][pc]
        for row in H[len(E.pivots):]:
            assert not any(row)


_ROW_ROUTINES = pytest.mark.parametrize(
    "routine", [rank, minor_polynomial, hermite_normal_form, solver_form],
    ids=lambda f: f.__name__)


@_ROW_ROUTINES
def test_row_routines_reject_ragged_rows(routine):
    for rows in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged rows"):
            routine(rows)


@_ROW_ROUTINES
def test_row_routines_leave_their_input_alone(routine):
    # Bareiss and the Hermite form eliminate in place, on a copy
    rows = [[2, 4, 1], [6, 8, 3], [1, 5, 7]]
    routine(rows)
    assert rows == [[2, 4, 1], [6, 8, 3], [1, 5, 7]]


def test_lattice_membership_roundtrip():
    rng = random.Random(37)
    for _ in range(100):
        basis = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
        coeffs = [rng.randint(-4, 4) for _ in range(3)]
        target = [
            sum(c * basis[i][j] for i, c in enumerate(coeffs)) for j in range(4)
        ]
        found = lattice_membership(basis, target)
        assert found is not None
        rebuilt = [
            sum(c * basis[i][j] for i, c in enumerate(found)) for j in range(4)
        ]
        assert rebuilt == target


def test_lattice_membership_rejects():
    basis = [[2, 0], [0, 2]]
    assert lattice_membership(basis, [1, 0]) is None
    assert list(lattice_membership(basis, [2, 2])) == [1, 1]
    assert lattice_membership([], [0, 0]) is not None
    assert lattice_membership([], [1, 0]) is None


def test_echelon_reductions_match_membership_oracles():
    rng = random.Random(41)
    shifts = random.Random(42)  # its own stream, so rng draws what it did
    seen = {"combination": 0, "outside the Q-span": 0}
    for _ in range(300):
        dim = rng.randrange(1, 6)
        basis = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randrange(4))]
        if basis and rng.random() < 0.3:  # a dependent row
            basis.append([2 * a - b for a, b in zip(basis[0], basis[-1])])
        ech = hermite_normal_form(basis)
        for _ in range(6):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            target = [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(dim)]
            moved = rng.random() < 0.5
            if moved:
                target[rng.randrange(dim)] += rng.randint(-2, 2)
            scaled = any(target) and rng.random() < 0.3
            if scaled:  # in the Q-span, maybe not the lattice
                g = math.gcd(*target)
                target = [v // g for v in target]
            in_span = rational_membership(basis, target)
            # reduce leaves each pivot's column in [0, pivot), takes a
            # lattice vector off target, and is the same on target plus any
            # lattice vector: a normal form modulo the lattice
            left = ech.reduce(target)
            assert all(0 <= left[c] < row[c] for row, c in zip(ech.rows, ech.pivots))
            taken = [a - b for a, b in zip(target, left)]
            assert lattice_membership(basis, taken) is not None
            shift = [shifts.randint(-3, 3) for _ in ech.rows]
            shifted = [a + sum(c * row[j] for c, row in zip(shift, ech.rows))
                       for j, a in enumerate(target)]
            assert ech.reduce(shifted) == left
            # lattice_membership reduces through Echelon.reduce too, so the
            # way the target was built is the ground truth for both
            if not (moved or scaled):
                assert ech.in_lattice(target)
                seen["combination"] += 1
            if not in_span:
                assert not ech.in_lattice(target)
                seen["outside the Q-span"] += 1
            assert ech.in_lattice(target) == (lattice_membership(basis, target) is not None)
            assert (not any(ech.rational_residue(target))) == in_span
            # one scale for every vector: the residue map is linear, so ranks
            # of residues (stacked blocks included) are ranks modulo the span
            other = [rng.randint(-3, 3) for _ in range(dim)]
            k = rng.randint(-3, 3)
            combined = ech.rational_residue([a + k * b for a, b in zip(target, other)])
            expected = [a + k * b for a, b in zip(ech.rational_residue(target),
                                                  ech.rational_residue(other))]
            assert combined == expected
    assert all(seen.values()), seen


def test_solve_affine_matches_divisibility_over_a_box():
    # L = rows d_j e_j, so x S + b lies in span_Z(L) iff d_j divides its
    # j-th entry (which is 0 when d_j is): no lattice reduction is needed
    # to know the answer at every point of the box [-6, 6]^k
    rng = random.Random(43)
    seen = {"none": 0, "kernel": 0, "single": 0}
    for _ in range(200):
        k, w = rng.randint(1, 3), rng.randint(1, 3)
        S = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(k)]
        d = [rng.randint(0, 4) for _ in range(w)]
        b = [rng.randint(-5, 5) for _ in range(w)]

        def holds(x, b):
            return all((v % dj == 0) if dj else v == 0
                       for v, dj in zip((sum(xi * r[j] for xi, r in zip(x, S)) + b[j]
                                         for j in range(w)), d))

        L = [[dj * (i == j) for i in range(w)] for j, dj in enumerate(d)]
        box = [p for p in product(range(-6, 7), repeat=k) if holds(p, b)]
        found = solve_affine(solver_form(S, L), w, b)
        if found is None:
            assert not box, (S, d, b)
            seen["none"] += 1
            continue
        x, kernel = found
        assert len(x) == len(kernel) == k and holds(x, b)
        for j, tail in enumerate(kernel):
            if tail is not None:
                assert tail[0] > 0 and holds((0,) * j + tuple(tail), (0,) * w)
        seen["kernel" if any(t is not None for t in kernel) else "single"] += 1
        for p in box:  # p - x read off the kernel rows, pivot by pivot
            diff = [a - c for a, c in zip(p, x)]
            for j, tail in enumerate(kernel):
                if tail is None:
                    assert diff[j] == 0, (S, d, b, p)
                    continue
                q, rem = divmod(diff[j], tail[0])
                assert rem == 0, (S, d, b, p)
                for i, v in enumerate(tail, j):
                    diff[i] -= q * v
    assert all(seen.values()), seen


def test_rational_membership():
    assert rational_membership([[2, 0]], [5, 0])
    assert not rational_membership([[2, 0]], [0, 1])
    assert rational_membership([[1, 1], [1, -1]], [7, 3])
    assert rational_membership([], [0, 0])
    assert not rational_membership([], [0, 3])
