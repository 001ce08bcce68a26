"""Naive reference implementations that the tests check the library against.

Each one recomputes a result the slow, literal way and shares no code path
with the routine it checks: collection of a letter sequence by adjacent
swaps (for ``from_word``, ``from_syllables`` and ``multiply``), Q-span
membership by a rank comparison (for ``Echelon.in_rational_span``), and the
elementary operations of a Smith log applied one at a time (for
``smith_normal_form``).
"""

from nilq.nilpotent2 import MalcevElement, pair_index
from nilq.words import Word
from nilq.zmatrix import ElementaryOp, IntMatrix, rank


def letter_word(letters, m: int) -> Word:
    """The word of a signed letter sequence (+k is a_k, -k its inverse), one
    unit syllable per letter."""
    return Word(tuple((abs(l), 1 if l > 0 else -1) for l in letters), m)


def collection_oracle(w: Word) -> MalcevElement:
    """Collect a word letter by letter by literal rewriting; deliberately naive.

    Expands each syllable a_k^e into |e| letters, then repeatedly applies
    a_t^e a_s^d -> a_s^d a_t^e [a_s, a_t]^(-e*d) for adjacent letters with
    t > s until the sequence is sorted by generator index, tracking the
    central commutator letters on the side, then merges exponents.
    Quadratic and slow.
    """
    m = w.m
    letters = [k if e > 0 else -k for k, e in w.syllables for _ in range(abs(e))]
    gamma = [0] * (m * (m - 1) // 2)
    changed = True
    while changed:
        changed = False
        for p in range(len(letters) - 1):
            l1, l2 = letters[p], letters[p + 1]
            if abs(l1) > abs(l2):
                letters[p], letters[p + 1] = l2, l1
                e = 1 if l1 > 0 else -1
                d = 1 if l2 > 0 else -1
                gamma[pair_index(m, abs(l2), abs(l1))] -= e * d
                changed = True
    alpha = [0] * m
    for l in letters:
        alpha[abs(l) - 1] += 1 if l > 0 else -1
    return MalcevElement(m, tuple(alpha), tuple(gamma))


def rational_membership(basis, target) -> bool:
    """True iff target lies in the Q-span of basis.

    Equivalently, some nonzero integer multiple of target lies in the Z-span.
    Decided by a rank comparison (Bareiss), independent of the HNF path.
    """
    basis = [list(v) for v in basis]
    target = list(target)
    for v in basis:
        if len(v) != len(target):
            raise ValueError("basis vector dimension mismatch")
    if not basis:
        return all(v == 0 for v in target)
    return rank(IntMatrix.from_rows(basis + [target])) == rank(IntMatrix.from_rows(basis))


def apply_op(M: IntMatrix, op: ElementaryOp) -> IntMatrix:
    """Apply one logged elementary operation to a fresh copy of M."""
    A = M.to_rows()
    k = op.kind
    if k == "row_add":
        for j in range(M.cols):
            A[op.dst][j] += op.mult * A[op.src][j]
    elif k == "col_add":
        for row in A:
            row[op.dst] += op.mult * row[op.src]
    elif k == "row_swap":
        A[op.src], A[op.dst] = A[op.dst], A[op.src]
    elif k == "col_swap":
        for row in A:
            row[op.src], row[op.dst] = row[op.dst], row[op.src]
    elif k == "row_negate":
        A[op.src] = [-v for v in A[op.src]]
    elif k == "col_negate":
        for row in A:
            row[op.src] = -row[op.src]
    else:
        raise ValueError(f"unknown op kind {k!r}")
    return IntMatrix.from_rows(A) if A else M
