"""Exact integer matrix algebra: Smith and Hermite normal forms, rank,
the maximal-minor polynomial, lattice and Q-span membership, and the
affine lattice solve.

Everything works over arbitrary-precision Python ints.  Entries grow without
bound during elimination, so none of this is allowed anywhere near fixed-width
arithmetic; numpy stays out of this module on purpose.

A matrix is its integer rows, all of one length: ``smith_normal_form``,
``rank``, ``minor_polynomial`` and ``hermite_normal_form`` copy them once
(ragged rows raise ValueError) and work on the copy in place.
``hermite_normal_form`` returns an ``Echelon``.  ``IntMatrix`` is only the
type of the Smith form's views D, U and V, each built when first read.

Every membership test is one floor reduction (Cohen, *A Course in
Computational Algebraic Number Theory*, GTM 138, section 2.4):
``Echelon.reduce`` subtracts floor(left / pivot) times each row, which
leaves every pivot's column in [0, pivot), a normal form modulo the rows'
Z-span, and ``Echelon.in_lattice`` asks that nothing be left.  One Hermite
form answers "which integer x put x S + b in span_Z(L)?": ``solver_form``
builds the form of [S | I] on [L | 0], and ``solve_affine`` reduces (b | 0)
by it for each b, reading off a particular x and an echelon basis of the
kernel.  The group solver (``diophantine._admissible_coset``) and
``lattice_membership`` both go through the pair.

The Smith routine records every elementary operation it performs, and that
log is the only record of the reduction.  One routine, ``_apply``, applies
an operation: the reduction applies each one as it records it, and
``SmithDecomposition.U`` and ``.V`` replay the log through it on an
identity matrix, U its row ops and V its column ops.  ``presentation.
normalize`` lifts V to its basis change, and the test oracles replay the log
as Nielsen transformations of relator words (``nilq.words``).  Log entries:

* ``row_add(src, dst, mult)``  --  ``row[dst] += mult * row[src]``
* ``col_add(src, dst, mult)``  --  ``col[dst] += mult * col[src]``
* ``row_swap(i, j)``, ``col_swap(i, j)``
* ``row_negate(i)``

Indices are 0-based.  An add with ``|mult| > 1`` abbreviates ``|mult|``
repetitions of the unit operation; replay code may apply it in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major: the type of the
    Smith form's views D, U and V, built when read."""

    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


@dataclass(frozen=True)
class ElementaryOp:
    """One elementary row/column operation.

    kind is one of row_add, col_add, row_swap, col_swap, row_negate.  For
    adds, ``src``/``dst`` name the source and destination
    line and ``mult`` the integer multiplier; for swaps they are the two
    indices; for negations only ``src`` is used.
    """

    kind: str
    src: int
    dst: int = -1
    mult: int = 0


@dataclass(frozen=True)
class SmithDecomposition:
    """U M V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``shape`` is M's (rows, columns), ``rank`` the number of nonzero diagonal
    entries and ``invariant_factors`` the nonzero diagonal, all positive.
    ``ops`` is the ordered elementary-operation log that transforms M into D.
    Nothing else is kept: D, U and V are ``IntMatrix`` views built on first
    read, D from the invariant factors, U and V by replaying the row ops, or
    the column ops, on an identity matrix.
    """

    shape: Tuple[int, int]
    rank: int
    invariant_factors: Tuple[int, ...]
    ops: Tuple[ElementaryOp, ...]

    @cached_property
    def D(self) -> IntMatrix:
        r, m = self.shape
        return IntMatrix(r, m, tuple(v for row in diagonal(self.invariant_factors, r, m) for v in row))

    @cached_property
    def U(self) -> IntMatrix:
        return _replayed_identity(self.shape[0], self.ops, "row")

    @cached_property
    def V(self) -> IntMatrix:
        return _replayed_identity(self.shape[1], self.ops, "col")


def diagonal(factors: Sequence[int], r: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """The r rows of length m with factors down the diagonal, then zeros."""
    return tuple(tuple(factors[i] if i == j and i < len(factors) else 0 for j in range(m)) for i in range(r))


def _apply(A: list, op: ElementaryOp) -> None:
    """Apply op to the matrix whose rows are the lists A, in place."""
    kind, i, j = op.kind, op.src, op.dst
    if kind == "row_add":
        A[j] = [a + op.mult * b for a, b in zip(A[j], A[i])]
    elif kind == "col_add":
        k = op.mult
        for row in A:
            row[j] += k * row[i]
    elif kind == "row_swap":
        A[i], A[j] = A[j], A[i]
    elif kind == "col_swap":
        for row in A:
            row[i], row[j] = row[j], row[i]
    elif kind == "row_negate":
        A[i] = [-v for v in A[i]]
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def _replayed_identity(n: int, ops: Sequence[ElementaryOp], side: str) -> IntMatrix:
    """The n x n identity with the ops on one side, "row" or "col", applied
    in order."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in ops:
        if op.kind.startswith(side):
            _apply(A, op)
    return IntMatrix(n, n, tuple(v for row in A for v in row))


def smith_normal_form(M: Iterable[Iterable[int]], width: int) -> SmithDecomposition:
    """Smith normal form over the integers of the rows M, each of length
    width, with recorded operations.

    The width is given because M may have no rows.  Ragged rows, or rows of
    another length, raise ValueError.  Pivot selection always takes a
    smallest-magnitude nonzero entry of the working submatrix, which keeps
    intermediate growth modest.  Signs are normalized with explicit negation
    ops so they land in the log and the invariant factors come out positive.
    """
    A, m = _rows(M)
    if A and m != width:
        raise ValueError(f"rows of length {m}, not {width}")
    r, m = len(A), width
    ops: list[ElementaryOp] = []

    def record(*args):
        op = ElementaryOp(*args)
        _apply(A, op)
        ops.append(op)

    limit = min(r, m)
    t = 0
    while t < limit:
        best = None
        for i in range(t, r):
            Ai = A[i]
            for j in range(t, m):
                v = Ai[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            record("row_swap", t, bi)
        if bj != t:
            record("col_swap", t, bj)
        if A[t][t] < 0:
            record("row_negate", t)
        p = A[t][t]
        dirty = False
        for i in range(t + 1, r):
            q = A[i][t] // p
            if q:
                record("row_add", t, i, -q)
            if A[i][t]:
                dirty = True
        for j in range(t + 1, m):
            q = A[t][j] // p
            if q:
                record("col_add", t, j, -q)
            if A[t][j]:
                dirty = True
        if dirty:
            # some remainder strictly smaller than the pivot survives;
            # re-pivot on it
            continue
        p = A[t][t]
        stuck = next((i for i in range(t + 1, r) if any(v % p for v in A[i][t + 1 :])), None)
        if stuck is not None:
            # drag a row with a non-multiple into the pivot row and re-reduce;
            # the next pivot becomes gcd(p, offender) < p
            record("row_add", stuck, t, 1)
            continue
        t += 1

    rank = t
    inv = tuple(A[i][i] for i in range(rank))
    # the divisibility sweep above guarantees the chain; fail loudly if not
    for a, b in zip(inv, inv[1:]):
        if b % a:
            raise AssertionError("invariant factor chain violated")
    return SmithDecomposition((r, m), rank, inv, tuple(ops))


def _rows(M: Iterable[Iterable[int]]) -> Tuple[list, int]:
    """The rows M as fresh lists, which the routines below work on in place,
    and their one length."""
    A = [list(row) for row in M]
    m = len(A[0]) if A else 0
    if any(len(row) != m for row in A):
        raise ValueError("ragged rows")
    return A, m


def _bareiss(A: list, cols: int) -> Tuple[int, int]:
    """(rank, det) of the rows A, consumed, by fraction-free elimination with
    full pivoting.  Each step divides exactly by the previous pivot, so the
    last pivot, signed by the swaps, is det; det is 0 unless A is square of
    full rank, and 1 when A is empty."""
    r = len(A)
    sign = prev = 1
    t = 0
    while t < r and t < cols:
        piv = None
        for i in range(t, r):
            for j in range(t, cols):
                if A[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            sign = -sign
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
            sign = -sign
        At = A[t]
        p = At[t]
        for i in range(t + 1, r):
            Ai = A[i]
            f = Ai[t]
            for j in range(t, cols):
                Ai[j] = (Ai[j] * p - f * At[j]) // prev
        prev = p
        t += 1
    return t, sign * prev if t == r == cols else 0


def rank(M: Iterable[Iterable[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Deliberately independent of smith_normal_form so the two can check each
    other.
    """
    return _bareiss(*_rows(M))[0]


def minor_polynomial(M: Iterable[Iterable[int]]) -> int:
    """Sum of squared maximal minors: det(M)^2, or by Cauchy-Binet
    det(M M^T) for a wide M and det(M^T M) for a tall one.

    Zero iff the matrix has less than full rank min(rows, cols).  For an
    empty matrix the single empty minor has determinant 1, so the value is 1.
    """
    A, m = _rows(M)
    if len(A) == m:
        return _bareiss(A, m)[1] ** 2
    lines = A if len(A) < m else list(zip(*A))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in lines] for u in lines]
    return _bareiss(gram, len(gram))[1]


def hermite_normal_form(M: Iterable[Iterable[int]]) -> Echelon:
    """Row-style Hermite normal form: the nonzero rows of W M for some
    unimodular W, which is not built (the form of [M | I] from
    ``solver_form`` carries it), and their pivots.  Pivots are positive, and
    entries above each pivot reduced into [0, pivot).
    """
    A, m = _rows(M)
    r = len(A)

    def row_add(src, dst, mult):
        As, Ad = A[src], A[dst]
        for j in range(m):
            Ad[j] += mult * As[j]

    pivots: list[int] = []
    prow = 0
    for col in range(m):
        if prow == r:
            break
        while True:
            nz = [i for i in range(prow, r) if A[i][col]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(A[i][col]))
            for i in nz:
                if i != piv:
                    q = A[i][col] // A[piv][col]
                    if q:
                        row_add(piv, i, -q)
        if not nz:
            continue
        if nz[0] != prow:
            A[prow], A[nz[0]] = A[nz[0]], A[prow]
        if A[prow][col] < 0:
            A[prow] = [-v for v in A[prow]]
        p = A[prow][col]
        for i in range(prow):
            q = A[i][col] // p
            if q:
                row_add(prow, i, -q)
        pivots.append(col)
        prow += 1
    for i in range(prow):  # one row at a time, so the lists go as the tuples come
        A[i] = tuple(A[i])
    return Echelon(tuple(A[:prow]), tuple(pivots))


@dataclass(frozen=True)
class Echelon:
    """A row-echelon basis and its pivot columns.

    Each row is zero left of its pivot, and the pivots increase strictly.
    ``hermite_normal_form`` returns one, but any such basis will do.  Built
    once per basis, it decides span membership for many vectors by
    reduction alone; built by ``solver_form``, it solves x S + b in a
    lattice for many b (``solve_affine``).
    """

    rows: Tuple[Tuple[int, ...], ...]
    pivots: Tuple[int, ...]

    def reduce(self, target: Sequence[int], stop: Optional[int] = None) -> list:
        """target less floor(left / pivot) times each row that pivots before
        column stop (every row by default), in order, where left is what is
        left of target at that pivot: each such column is left in [0, pivot)
        for a positive pivot.  Targets that differ by a Z-combination of
        those rows reduce to the same list."""
        resid = list(target)
        stop = len(resid) if stop is None else stop
        for row, col in zip(self.rows, self.pivots):
            if col >= stop:
                break
            q = resid[col] // row[col]
            if q:
                for j in range(col, len(resid)):
                    resid[j] -= q * row[j]
        return resid

    def in_lattice(self, target: Sequence[int]) -> bool:
        """True iff target lies in the Z-span of the rows: nothing is left
        of it after ``reduce``."""
        return not any(self.reduce(target))

    def rational_residue(self, target: Sequence[int]) -> list:
        """Fraction-free reduction of target modulo the Q-span of the rows.

        Every step scales by its pivot whether or not the column needs
        clearing, so the result is P * target minus a span element with the
        same P (the product of the pivots) for every target: the map is
        linear, its kernel is the Q-span, and ranks of residues, stacked or
        not, are ranks modulo the span.
        """
        resid = list(target)
        for row, col in zip(self.rows, self.pivots):
            p, f = row[col], resid[col]
            resid = [p * a - f * b for a, b in zip(resid, row)]
        return resid


def solver_form(S: Sequence[Sequence[int]], L: Iterable[Iterable[int]] = ()) -> Echelon:
    """The Hermite form of [S | I_k] stacked on [L | 0], k = len(S), off
    which ``solve_affine`` reads the x with x S + b in span_Z(L).

    S must not be empty, and L's rows have S's length; ragged rows raise
    ValueError.  The rows that pivot in S's columns span what the rows of S
    and L span there.  The others are (0 | u), the u an echelon basis of
    those with u S in span_Z(L).
    """
    k = len(S)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(S)]
    return hermite_normal_form(rows + [list(row) + [0] * k for row in L])


def solve_affine(form: Echelon, width: int, b: Sequence[int]) -> Optional[Tuple[tuple, list]]:
    """(x, kernel) with x S + b in span_Z(L), for the ``solver_form`` of an
    S of this width and L, or None if no integer x has it.

    Reducing (b | 0) by the rows that pivot in S's columns leaves (0 | x)
    when x exists.  ``kernel`` is the form's other rows as an echelon basis
    of the x with x S in span_Z(L), in ``diophantine._coset_walk``'s
    format: ``kernel[j]`` is None, or the entries from column j on of the
    identity part of the row that pivots at column width + j.
    """
    resid = form.reduce(list(b) + [0] * (len(form.rows[0]) - width), width)
    if any(resid[:width]):
        return None
    kernel = [None] * (len(resid) - width)
    for row, col in zip(form.rows, form.pivots):
        if col >= width:
            kernel[col - width] = row[col:]
    return tuple(resid[width:]), kernel


def lattice_membership(
    basis: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list]:
    """Integer coefficients expressing target in the Z-span of basis, or None.

    The x of ``solve_affine`` with S the basis and b = -target, so the
    returned x satisfies sum_i x[i] * basis[i] == target exactly.
    """
    basis = [list(v) for v in basis]
    target = list(target)
    dim = len(target)
    if any(len(v) != dim for v in basis):
        raise ValueError("basis vector dimension mismatch")
    if not basis:
        return [] if all(v == 0 for v in target) else None
    found = solve_affine(solver_form(basis), dim, [-v for v in target])
    return None if found is None else list(found[0])
