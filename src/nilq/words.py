"""Words over a signed generator alphabet, relator sets, and Nielsen moves.

A letter is a nonzero int: ``+k`` is the generator ``a_k``, ``-k`` its
inverse, ``1 <= k <= m``.  The text grammar accepts whitespace-separated
tokens ``a<k>`` with an optional ``^<int>`` exponent (nonzero), plus
``[u, v]`` for the commutator ``u^-1 v^-1 u v``; the empty string is the
identity.  Parsing expands powers and commutators into letters, at most
``MAX_WORD_LETTERS`` of them.

``nielsen_moves`` reduces the exponent-sum matrix of a relator set to Smith
normal form and mirrors every elementary operation as a Nielsen
transformation.  Replaying the log on words (``nielsen_normalize``,
``rewrite_through_generator_moves``) is the test oracle for the coordinate
replay in ``presentation.normalize``: the words grow exponentially.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .zmatrix import ElementaryOp, IntMatrix, SmithDecomposition, smith_normal_form


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Word:
    """Freely reducible word; not reduced automatically on construction."""

    letters: Tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("alphabet size must be at least 1")
        for l in self.letters:
            if l == 0 or abs(l) > self.m:
                raise ValueError(f"letter {l} outside alphabet of size {self.m}")

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)), self.m)


def concat(u: Word, v: Word) -> Word:
    if u.m != v.m:
        raise ValueError("alphabet mismatch")
    return Word(u.letters + v.letters, u.m)


def word_power(w: Word, k: int) -> Word:
    base = w if k >= 0 else w.inverse()
    return Word(base.letters * abs(k), w.m)


def free_reduce(w: Word) -> Word:
    stack: List[int] = []
    for l in w.letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return Word(tuple(stack), w.m)


MAX_WORD_LETTERS = 10**6
"""Most letters ``parse_word`` expands a text into (a million letters take
about 16 MB as a letter tuple and most of a second in ``from_word``)."""


def _check_word_length(n: int) -> None:
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"word expands to {n} letters, over the limit of {MAX_WORD_LETTERS}")


MAX_RANK = 64
"""Most generators m that ``parse_word``, a presentation header and a free
ambient accept.  An element has m(m-1)/2 gamma coordinates, and the closure
lattice of m relators about m^4/2 integers: ``is-trivial`` on m seeded
two-letter relators took 3.7 s and 0.29 GB at m = 64 (2.0 s and 0.11 GB at
m = 48), on a 2-vCPU VM with Python 3.11."""


MAX_RELATORS = 128
"""Most relators a presentation file holds, so r >= m + 1 stays reachable at
every m: at m = MAX_RANK with seeded four-letter relators, ``is-trivial``
took 8.0 s and 0.33 GB at r = 64, and 28 s and 0.36 GB at r = 128 (same
machine; about half of it in the HNF of the closure lattice)."""


class RankLimitError(Exception):
    """A rank m over MAX_RANK, more than MAX_RELATORS relators, or a random
    relator longer than MAX_WORD_LETTERS."""


def check_rank(m: int) -> None:
    if m > MAX_RANK:
        raise RankLimitError(f"{m} generators, over the limit of {MAX_RANK}")


def parse_word(text: str, m: int) -> Word:
    """Parse the word grammar; raises WordSyntaxError with a position.

    Powers and commutators are expanded into letters; a text whose expansion
    would exceed MAX_WORD_LETTERS raises a plain ValueError before expanding.
    An m over MAX_RANK raises RankLimitError.
    """
    check_rank(m)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start or not text[start:pos].lstrip("+-"):
            raise WordSyntaxError("expected integer", start)
        return int(text[start:pos])

    def parse_sequence(stops: str) -> List[int]:
        nonlocal pos
        letters: List[int] = []
        while True:
            skip_ws()
            if pos >= n or text[pos] in stops:
                return letters
            item = parse_item()
            _check_word_length(len(letters) + len(item))
            letters.extend(item)

    def parse_item() -> List[int]:
        nonlocal pos
        start = pos
        if text[pos] == "a":
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == dstart:
                raise WordSyntaxError("expected generator index after 'a'", dstart)
            k = int(text[dstart:pos])
            if not (1 <= k <= m):
                raise WordSyntaxError(f"generator index {k} out of range 1..{m}", start)
            base = [k]
        elif text[pos] == "[":
            pos += 1
            u = parse_sequence(",")
            skip_ws()
            if pos >= n or text[pos] != ",":
                raise WordSyntaxError("expected ',' in commutator", pos)
            pos += 1
            v = parse_sequence("]")
            skip_ws()
            if pos >= n or text[pos] != "]":
                raise WordSyntaxError("expected ']' closing commutator", pos)
            pos += 1
            _check_word_length(2 * (len(u) + len(v)))
            inv_u = [-l for l in reversed(u)]
            inv_v = [-l for l in reversed(v)]
            base = inv_u + inv_v + u + v
        else:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if pos < n and text[pos] == "^":
            pos += 1
            estart = pos
            e = parse_int()
            if e == 0:
                raise WordSyntaxError("zero exponent not allowed", estart)
            if e < 0:
                base = [-l for l in reversed(base)]
                e = -e
            _check_word_length(len(base) * e)
            base = base * e
        return base

    letters = parse_sequence("")
    skip_ws()
    if pos < n:
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    return Word(tuple(letters), m)


def format_word(w: Word) -> str:
    """Inverse of parse_word up to run merging: a1 a1 prints as a1^2."""
    parts = []
    i = 0
    ls = w.letters
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        count = j - i
        k = abs(ls[i])
        e = count if ls[i] > 0 else -count
        parts.append(f"a{k}" if e == 1 else f"a{k}^{e}")
        i = j
    return " ".join(parts)


def exponent_sums(w: Word) -> Tuple[int, ...]:
    c = Counter(w.letters)
    return tuple(c[k] - c[-k] for k in range(1, w.m + 1))


@dataclass(frozen=True)
class RelatorSet:
    relators: Tuple[Word, ...]
    m: int

    def __post_init__(self):
        for w in self.relators:
            if w.m != self.m:
                raise ValueError("relator alphabet mismatch")


def exponent_sum_matrix(words: Iterable[Word], m: int) -> IntMatrix:
    """len(words) x m matrix of letter exponent sums; invariant under free
    reduction.  ``words`` is read one word at a time."""
    rows = [exponent_sums(w) for w in words]
    return IntMatrix(len(rows), m, tuple(v for row in rows for v in row))


def random_word(length: int, m: int, rng) -> Word:
    """Uniform word over the 2m signed letters, each step independent.

    Deterministic given a seeded random.Random; the draw is a single
    rng.choices call so the stream consumption per word is fixed.
    """
    if length < 0:
        raise ValueError("negative length")
    alphabet = list(range(1, m + 1)) + [-k for k in range(1, m + 1)]
    return Word(tuple(rng.choices(alphabet, k=length)), m)


# --- Nielsen transformations -------------------------------------------------

# Move kinds and their meaning (generator/relator indices are 1-based):
#   relator_mult(i, j, k):    g_j <- g_i^k g_j
#   relator_swap(i, j)
#   relator_invert(i):        g_i <- g_i^-1
#   generator_mult(i, j, k):  a_j <- a_i^k a_j, relators rewritten by
#                             a_j -> a_i^-k a_j
#   generator_swap(i, j)
#   generator_invert(i):      a_i <- a_i^-1, relators rewritten by a_i -> a_i^-1


@dataclass(frozen=True)
class NielsenMove:
    kind: str
    i: int
    j: int = 0
    k: int = 0

    def to_jsonable(self) -> dict:
        d = {"kind": self.kind, "i": self.i}
        if self.kind in ("relator_mult", "relator_swap", "generator_mult", "generator_swap"):
            d["j"] = self.j
        if self.kind in ("relator_mult", "generator_mult"):
            d["k"] = self.k
        return d


@dataclass(frozen=True)
class NielsenLog:
    moves: Tuple[NielsenMove, ...]

    def to_jsonable(self) -> list:
        return [mv.to_jsonable() for mv in self.moves]


def _move_for(op: ElementaryOp) -> NielsenMove:
    """Translate one matrix operation into the Nielsen move that induces it.

    Row operations act on relators directly.  A generator move
    a_j <- a_i^k a_j changes relator coordinates by col_i -= k * col_j, so
    the matrix op col_add(src, dst, mult) mirrors as
    generator_mult(i=dst, j=src, k=-mult).
    """
    if op.kind == "row_add":
        return NielsenMove("relator_mult", op.src + 1, op.dst + 1, op.mult)
    if op.kind == "row_swap":
        return NielsenMove("relator_swap", op.src + 1, op.dst + 1)
    if op.kind == "row_negate":
        return NielsenMove("relator_invert", op.src + 1)
    if op.kind == "col_add":
        return NielsenMove("generator_mult", op.dst + 1, op.src + 1, -op.mult)
    if op.kind == "col_swap":
        return NielsenMove("generator_swap", op.src + 1, op.dst + 1)
    if op.kind == "col_negate":
        return NielsenMove("generator_invert", op.src + 1)
    raise ValueError(f"unknown op kind {op.kind}")


def _substitute(w: Word, j: int, image: Sequence[int]) -> Word:
    """Replace every letter +-j by the image word (occurrences of -j get the
    inverse image); other letters pass through."""
    inv = [-l for l in reversed(image)]
    out: List[int] = []
    for l in w.letters:
        if l == j:
            out.extend(image)
        elif l == -j:
            out.extend(inv)
        else:
            out.append(l)
    return free_reduce(Word(tuple(out), w.m))


def apply_move_to_relators(relators: List[Word], move: NielsenMove) -> None:
    """Apply one Nielsen move to a relator list in place (words re-reduced
    eagerly after every substitution)."""
    m = relators[0].m if relators else 0
    if move.kind == "relator_mult":
        gi = relators[move.i - 1]
        relators[move.j - 1] = free_reduce(concat(word_power(gi, move.k), relators[move.j - 1]))
    elif move.kind == "relator_swap":
        a, b = move.i - 1, move.j - 1
        relators[a], relators[b] = relators[b], relators[a]
    elif move.kind == "relator_invert":
        relators[move.i - 1] = relators[move.i - 1].inverse()
    elif move.kind == "generator_mult":
        # a_j <- a_i^k a_j means old a_j = a_i^-k (new a_j)
        image = [-move.i if move.k > 0 else move.i] * abs(move.k) + [move.j]
        for idx, w in enumerate(relators):
            relators[idx] = _substitute(w, move.j, image)
    elif move.kind == "generator_swap":
        for idx, w in enumerate(relators):
            out = []
            for l in w.letters:
                if abs(l) == move.i:
                    out.append(move.j if l > 0 else -move.j)
                elif abs(l) == move.j:
                    out.append(move.i if l > 0 else -move.i)
                else:
                    out.append(l)
            relators[idx] = Word(tuple(out), w.m)
    elif move.kind == "generator_invert":
        for idx, w in enumerate(relators):
            relators[idx] = Word(
                tuple(-l if abs(l) == move.i else l for l in w.letters), w.m
            )
    else:
        raise ValueError(f"unknown move kind {move.kind}")


def rewrite_through_generator_moves(w: Word, log: NielsenLog) -> Word:
    """Express a word over the original basis as a word over the final basis
    by applying the log's generator substitutions (relator moves do not
    change what letters mean)."""
    out = [w]
    for mv in log.moves:
        if mv.kind.startswith("generator"):
            apply_move_to_relators(out, mv)
    return out[0]


def nielsen_moves(rs: RelatorSet) -> Tuple[NielsenLog, SmithDecomposition]:
    """Smith form of the exponent-sum matrix and its operations as Nielsen moves."""
    snf = smith_normal_form(exponent_sum_matrix(rs.relators, rs.m))
    return NielsenLog(tuple(_move_for(op) for op in snf.ops)), snf


def nielsen_normalize(
    rs: RelatorSet,
) -> Tuple[RelatorSet, NielsenLog, SmithDecomposition]:
    """Mirror the Smith reduction of the exponent-sum matrix on the relators.

    Returns (rewritten relators, move log, Smith decomposition); the
    exponent-sum matrix of the rewritten set equals the diagonal D exactly.
    """
    log, snf = nielsen_moves(rs)
    relators = list(rs.relators)
    for mv in log.moves:
        apply_move_to_relators(relators, mv)
    out = RelatorSet(tuple(relators), rs.m)
    if exponent_sum_matrix(out.relators, out.m).entries != snf.D.entries:
        raise AssertionError("Nielsen replay does not match Smith diagonal")
    return out, log, snf
