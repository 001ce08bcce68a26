"""Words over generators a_1..a_m, and the Nielsen replay of a Smith log.

A word is a sequence of syllables a_k^e, stored as pairs ``(k, e)`` with
``1 <= k <= m`` and ``e != 0``.  The text grammar accepts whitespace-separated
tokens ``a<k>`` with an optional ``^<int>`` exponent (nonzero), plus
``[u, v]`` for the commutator ``u^-1 v^-1 u v``, with an optional exponent
too; the empty string is the identity.  Digits are Unicode decimal digits
(``str.isdecimal``) and whitespace is ``str.isspace``.  ``parse_word`` reads
a text of at most ``_BLOCK_CHARS`` (8192) characters as one block, and a
longer one a block of up to 256 runs at a time, a run being what lies
between whitespace.  A block of plain tokens a<k> or a<k>^<e> is split at
once and each token read through a bounded process-wide memo,
``_plain_syllable``; any other block (brackets, glued tokens, errors, or
over ``_BLOCK_CHARS`` characters) goes through one compiled pattern,
``_TOKEN``, token by token.  Each token a<k>^<e> is one syllable.  A
commutator power [u, v]^E becomes a word equal to it in every
2-step nilpotent group, at most 4m syllables whatever E is (see
``parse_word``).  A text may expand to at most ``MAX_WORD_LETTERS``
letters, brackets written out, each syllable a_k^e counting |e|.

Every operation in the log of ``zmatrix.smith_normal_form`` is a Nielsen
transformation: a row op combines relators, a column op substitutes
generators.  ``presentation.normalize`` carries out neither: its basis
change is the lift of V, the product of the column ops.  Replaying the
whole log on words (``nielsen_normalize``, ``rewrite_through_generator_moves``)
serves the tests, as the oracle of the Smith log and as the generator-move
lift of V, which decides every query as ``normalize``'s basis does; the
words grow exponentially.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from .zmatrix import ElementaryOp, SmithDecomposition, diagonal, smith_normal_form

Syllable = Tuple[int, int]


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Word:
    """The word a_k1^e1 ... a_kn^en as its syllables (k, e); not reduced on
    construction.  ``len`` counts letters, the sum of |e|.

    Construction checks m >= 1 and every syllable, 1 <= k <= m and e != 0.
    ``parse_word`` alone builds its Word unchecked (``_unchecked_word``): it
    checks each syllable as it reads it, k in range and e != 0 for a token,
    and a bracket's collected sums drop the zeros, so the check would only
    repeat it."""

    syllables: Tuple[Syllable, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("alphabet size must be at least 1")
        for k, e in self.syllables:
            if e == 0 or not 1 <= k <= self.m:
                raise ValueError(f"syllable a{k}^{e} outside alphabet of size {self.m}")

    def __len__(self):
        return sum(abs(e) for _, e in self.syllables)

    def inverse(self) -> "Word":
        return Word(_inverted(self.syllables), self.m)


def _unchecked_word(syllables: Tuple[Syllable, ...], m: int) -> Word:
    """The Word of syllables already checked as they were read, built
    without ``__post_init__``; m >= 1 is the caller's to check."""
    w = object.__new__(Word)
    w.__dict__.update(syllables=syllables, m=m)
    return w


def _inverted(syllables) -> Tuple[Syllable, ...]:
    return tuple((k, -e) for k, e in reversed(syllables))


def concat(u: Word, v: Word) -> Word:
    if u.m != v.m:
        raise ValueError("alphabet mismatch")
    return Word(u.syllables + v.syllables, u.m)


def word_power(w: Word, k: int) -> Word:
    base = w if k >= 0 else w.inverse()
    return Word(base.syllables * abs(k), w.m)


def free_reduce(w: Word) -> Word:
    """Merge neighbouring syllables of one generator, dropping those that
    cancel: no two neighbours of the result share a generator."""
    stack: List[Syllable] = []
    for k, e in w.syllables:
        if stack and stack[-1][0] == k:
            e += stack.pop()[1]
            if not e:
                continue
        stack.append((k, e))
    return Word(tuple(stack), w.m)


MAX_WORD_LETTERS = 10**6
"""Most letters in a word ``parse_word`` reads, counted with every bracket
expanded and each a_k^e counting |e|, and checked from the counts before
anything is built.  A power a_k^e is one syllable whatever e is, and a
bracket power at most 4m; the costliest words at the cap are texts of a
million syllables.  A text of a million tokens ``a1 a2 a1 ...`` took 0.3 s
to parse, the same tokens glued into one run ``a1a2a1...`` 0.5 s, each with
a 16 MB traced peak, and ``from_word`` on either 0.5 s at m = 2 and 4 to 5 s
at m = 64; ``[a1,a2]^250000`` parses to 4 syllables in under a millisecond
with a 3 KB peak (2-vCPU VM, Python 3.11)."""


def _check_word_length(n: int) -> None:
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"word expands to {n} letters, over the limit of {MAX_WORD_LETTERS}")


MAX_RANK = 64
"""Most generators m that ``parse_word``, a presentation header and a free
ambient accept.  An element has m(m-1)/2 gamma coordinates, and the Hermite
form of the word problem has a column for each pair whose invariant factor
d_pq is not 1, with a row for each d_pq >= 2, so its size turns on the
invariant factors.  ``is-trivial`` on m seeded two-letter relators, where
nearly every d_pq is 1, took 0.2 s and a 28 MB peak of address space at
m = 64; on the m relators a_i^2, where every d_pq is 2 and the form holds
about m^4/4 integers, it took 0.7-1.1 s and 90 MB, while ``classify``,
which never builds the form, took 0.2-0.3 s and 24 MB (2-vCPU VM,
Python 3.11)."""


MAX_RELATORS = 128
"""Most relators a presentation file holds, so r >= m + 1 stays reachable at
every m: at m = MAX_RANK with seeded four-letter relators, ``is-trivial``
took 0.4 s and 29 MB at r = 64, and 0.4 s and 30 MB at r = 128 (same
machine and measure), as every d_pq is 1 there and the Hermite form has
only the m alpha columns."""


class RankLimitError(Exception):
    """A rank m over MAX_RANK, more than MAX_RELATORS relators, or a random
    relator longer than MAX_WORD_LETTERS."""


def check_rank(m: int) -> None:
    if m > MAX_RANK:
        raise RankLimitError(f"{m} generators, over the limit of {MAX_RANK}")


def _int_text(x: int) -> str:
    # int-to-str refuses integers past 4300 digits; 4096 bits is 1234 digits
    return str(x) if x.bit_length() <= 4096 else f"<{x.bit_length()}-bit integer>"


def count_over_limit(side: int, n: int, limit: int, what: str) -> Optional[str]:
    """The message "<count> <what> exceed the limit <limit>" when an
    enumeration of side^n points is over limit, else None.

    For side >= 2 the count is over once side > limit or n reaches the
    limit's bit length.  That is decided before side^n is built, which
    could take millions of digits, and the count is written side^n.
    Otherwise side^n is built and, if over, written in decimal.  An integer
    over 4096 bits is written by its bit length, never in decimal.
    """
    if side > 1 and n and (side > limit or n >= limit.bit_length()):
        count = f"{_int_text(side)}^{n}"
    else:
        total = side**n
        if total <= limit:
            return None
        count = str(total) if total.bit_length() <= 4096 else f"{_int_text(side)}^{n}"
    return f"{count} {what} exceed the limit {_int_text(limit)}"


_BLOCK = re.compile(r"\S+(?:\s+\S+){0,255}")
"""Up to 256 runs of a text over ``_BLOCK_CHARS`` characters, the
whitespace (``str.isspace``) between them included; a run is one token or
several glued ones."""

_BLOCK_CHARS = 8192
"""Longest text ``parse_word`` reads as one block, and longest block of a
longer text that it splits into runs and looks up in ``_plain_syllable``;
a longer block, such as a run of a million glued tokens, goes through
``_TOKEN`` without being copied."""


def _blocks(text: str):
    """(runs, start, end) for each block of the text: its runs, or None for
    a block over ``_BLOCK_CHARS`` characters, and the span from its first to
    its last non-whitespace character.  A text of at most ``_BLOCK_CHARS``
    characters is one block, split at once; a longer one is read 256 runs at
    a time through ``_BLOCK``, so that a huge line is never split whole.
    ``split``, ``strip`` and the regex agree on whitespace, ``str.isspace``."""
    if len(text) <= _BLOCK_CHARS:
        yield text.split(), len(text) - len(text.lstrip()), len(text.rstrip())
        return
    for block in _BLOCK.finditer(text):
        start, end = block.span()
        yield block[0].split() if end - start <= _BLOCK_CHARS else None, start, end


_TOKEN = re.compile(
    r"\s*(?:(?:a(?P<index>\d*)|(?P<close>\]))(?:\^(?P<exponent>[+-]?\d*))?|(?P<char>.))",
    re.DOTALL,
)
"""One token of the word grammar with the whitespace before it: a<k> (group
``index``) or ] (``close``) with an optional ^<e> (``exponent``), or any
other single character (``char``, [ and , among them)."""

_PLAIN = re.compile(r"a(\d+)(?:\^([+-]?\d+))?")
"""A run that is one plain token, a<k> or a<k>^<e>."""

_PLAIN_CHARS = 24
"""Longest run looked up in ``_plain_syllable``, so that the memo holds
short texts only: a<k>^<e> at the caps, a64^-1000000, has 12 characters."""


@lru_cache(maxsize=1024)
def _plain_syllable(run: str) -> Optional[Syllable]:
    """The syllable (k, e) of a run that is one plain token with k >= 1,
    e != 0 and |e| <= MAX_WORD_LETTERS, else None.  It depends on the text
    alone, so one bounded memo serves every call and every m: each use
    checks k <= m and the letter count, and a block with a run that fails
    goes through ``_TOKEN``, which raises the errors."""
    match = _PLAIN.fullmatch(run)
    if match is None:
        return None
    k = int(match[1])
    e = 1 if match[2] is None else int(match[2])
    if k < 1 or e == 0 or abs(e) > MAX_WORD_LETTERS:
        return None
    return k, e


def _token_int(digits: str, at: int) -> int:
    """The integer a token's digits spell, with an optional sign; a
    WordSyntaxError at ``at`` past int()'s digit limit
    (``sys.get_int_max_str_digits``), the only ValueError int() raises on
    them."""
    try:
        return int(digits)
    except ValueError:
        n = len(digits.lstrip("+-"))
        raise WordSyntaxError(f"integer of {n} digits is too long", at) from None


def _exponent(match: re.Match) -> int:
    """The exponent of an a<k> or ] token: 1 without a '^', else the nonzero
    integer after it."""
    digits = match["exponent"]
    if digits is None:
        return 1
    if not digits.lstrip("+-"):
        raise WordSyntaxError("expected integer", match.start("exponent"))
    e = _token_int(digits, match.start("exponent"))
    if e == 0:
        raise WordSyntaxError("zero exponent not allowed", match.start("exponent"))
    return e


def _collected(syllables, m: int, e: int) -> Tuple[Syllable, ...]:
    """a_1^(e s_1) ... a_m^(e s_m), s the exponent sums of the syllables."""
    sums = [0] * (m + 1)
    for k, x in syllables:
        sums[k] += x
    return tuple((k, e * s) for k, s in enumerate(sums) if s)


def parse_word(text: str, m: int) -> Word:
    """Parse the word grammar; raises WordSyntaxError with a position.

    A token a<k>^<e> is the syllable (k, e).  A commutator power [u, v]^E
    becomes (u_E)^-1 w^-1 u_E w, where u_E is a_1^(E s_1) ... a_m^(E s_m)
    for the exponent sums s of u, and w the same for v with E = 1.  In class
    2 a commutator is central and bilinear, and depends only on the exponent
    sums of its arguments, so this word equals [u, v]^E in N_{2,m}, in at
    most 4m syllables.  A bracket inside a bracket has zero exponent sums and
    adds nothing to them.  Letters are still counted as if every bracket
    were expanded: a text of more than MAX_WORD_LETTERS of them raises a
    plain ValueError.  An m over MAX_RANK raises RankLimitError, and an m
    below 1 a ValueError once the text is read.  An index or exponent past
    int()'s digit limit is a WordSyntaxError at its digits.

    A text of at most ``_BLOCK_CHARS`` characters is one block; a longer one
    is read 256 runs at a time (``_blocks``).  The Word is built unchecked,
    each syllable having been checked as it was read.
    """
    check_rank(m)
    syllables: List[Syllable] = []  # the innermost open sequence
    count = 0  # its letters
    # per open bracket: the enclosing sequence and its count, then the first
    # part and its count once the ',' is read
    brackets: List[list] = []
    # token text -> (syllables, letters) for the blocks read through _TOKEN:
    # a long glued run repeats few tokens, so each distinct one is converted
    # once and the word holds one tuple per distinct syllable, 8 bytes a
    # token instead of 64
    known: dict = {}
    # blocks and tokens are matched one at a time: a list of all tokens
    # would cost some 60 bytes a token, 2 GB for a 100 MB line, before the
    # length checks could refuse it
    for runs, start, end in _blocks(text):
        if runs is not None:
            mark, before = len(syllables), count
            for run in runs:
                syllable = _plain_syllable(run) if len(run) <= _PLAIN_CHARS else None
                if syllable is None or syllable[0] > m:
                    break
                syllables.append(syllable)
                count += abs(syllable[1])
                if count > MAX_WORD_LETTERS:
                    _check_word_length(count)
            else:
                continue
            # a run that is not a plain token in range: the block is read
            # again, token by token
            del syllables[mark:]
            count = before
        for match in _TOKEN.finditer(text, start, end):
            token = match[0]
            item = known.get(token)
            if item is None:
                index, char, close = match["index"], match["char"], match["close"]
                if index is not None:
                    at = match.start("index")
                    if not index:
                        raise WordSyntaxError("expected generator index after 'a'", at)
                    k = _token_int(index, at)
                    if not 1 <= k <= m:
                        raise WordSyntaxError(f"generator index {k} out of range 1..{m}", at - 1)
                    e = _exponent(match)
                    _check_word_length(abs(e))
                    item = known[token] = ((k, e),), abs(e)
                elif char == "[":
                    brackets.append([syllables, count, None, 0])
                    syllables, count = [], 0
                elif char == "," and brackets and brackets[-1][2] is None:
                    brackets[-1][2:] = syllables, count
                    syllables, count = [], 0
                elif close and brackets and brackets[-1][2] is not None:
                    outer, outer_count, u, u_count = brackets.pop()
                    n = 2 * (u_count + count)
                    _check_word_length(n)
                    e = _exponent(match)
                    _check_word_length(n * abs(e))
                    # in class 2, [u, v]^e = [u^e, v] = [u_e, w] with u_e and
                    # w the collected exponent sums of u^e and v
                    u_e, w = _collected(u, m, e), _collected(syllables, m, 1)
                    item = _inverted(u_e) + _inverted(w) + u_e + w, n * abs(e)
                    syllables, count = outer, outer_count
                else:
                    at = match.start("char" if char else "close")
                    raise WordSyntaxError(f"unexpected character {char or close!r}", at)
            if item is not None:
                syllables.extend(item[0])
                count += item[1]
                _check_word_length(count)
    if brackets:
        if brackets[-1][2] is None:
            raise WordSyntaxError("expected ',' in commutator", len(text))
        raise WordSyntaxError("expected ']' closing commutator", len(text))
    if m < 1:
        raise ValueError("alphabet size must be at least 1")
    return _unchecked_word(tuple(syllables), m)


def format_word(w: Word) -> str:
    """The text of w, one token per syllable (a<k> for e = 1, else a<k>^<e>);
    ``parse_word`` reads it back to w exactly."""
    return " ".join(f"a{k}" if e == 1 else f"a{k}^{e}" for k, e in w.syllables)


def exponent_sums(w: Word) -> Tuple[int, ...]:
    sums = [0] * w.m
    for k, e in w.syllables:
        sums[k - 1] += e
    return tuple(sums)


def exponent_sum_matrix(words: Iterable[Word]) -> Tuple[Tuple[int, ...], ...]:
    """The rows of generator exponent sums, one per word; invariant under
    free reduction.  ``words`` is read one word at a time."""
    return tuple(exponent_sums(w) for w in words)


def random_word(length: int, m: int, rng) -> Word:
    """Uniform word of ``length`` letters over the 2m signed generators, as
    unit syllables (k, +-1), each step independent.

    Deterministic given a seeded random.Random; the draw is a single
    rng.choices call so the stream consumption per word is fixed.
    """
    if length < 0:
        raise ValueError("negative length")
    alphabet = [(k, 1) for k in range(1, m + 1)] + [(k, -1) for k in range(1, m + 1)]
    return Word(tuple(rng.choices(alphabet, k=length)), m)


# --- Nielsen replay on words ------------------------------------------------
#
# The log is the Smith reduction's own (``zmatrix``, 0-based).  A row op acts
# on the relators: row_add(src, dst, k) is g_dst <- g_src^k g_dst.  A column
# op is a generator move, which the relators see as a substitution:
# col_add(src, dst, k) is a_src <- a_dst^-k a_src, relators rewritten by
# a_src -> a_dst^k a_src, as that changes their coordinates by
# col_dst += k * col_src.


def _substitute(w: Word, j: int, image: Tuple[Syllable, ...]) -> Word:
    """Replace every syllable a_j^e by the image word to the power e; other
    syllables pass through."""
    inv = _inverted(image)
    out: List[Syllable] = []
    for k, e in w.syllables:
        if k != j:
            out.append((k, e))
        else:
            out.extend((image if e > 0 else inv) * abs(e))
    return free_reduce(Word(tuple(out), w.m))


def apply_move_to_relators(relators: List[Word], op: ElementaryOp) -> None:
    """Apply one Smith operation to a relator list in place as a Nielsen
    move (words re-reduced eagerly after every substitution)."""
    if op.kind == "row_add":
        gi = relators[op.src]
        relators[op.dst] = free_reduce(concat(word_power(gi, op.mult), relators[op.dst]))
    elif op.kind == "row_swap":
        relators[op.src], relators[op.dst] = relators[op.dst], relators[op.src]
    elif op.kind == "row_negate":
        relators[op.src] = relators[op.src].inverse()
    elif op.kind == "col_add":
        image = ((op.dst + 1, op.mult), (op.src + 1, 1))
        for idx, w in enumerate(relators):
            relators[idx] = _substitute(w, op.src + 1, image)
    elif op.kind == "col_swap":
        swap = {op.src + 1: op.dst + 1, op.dst + 1: op.src + 1}
        for idx, w in enumerate(relators):
            relators[idx] = Word(tuple((swap.get(k, k), e) for k, e in w.syllables), w.m)
    else:
        raise ValueError(f"unknown op kind {op.kind}")


def rewrite_through_generator_moves(w: Word, ops: Iterable[ElementaryOp]) -> Word:
    """Express a word over the original basis as a word over the final basis
    by applying the column ops' substitutions (row ops do not change what a
    generator means)."""
    out = [w]
    for op in ops:
        if op.kind.startswith("col"):
            apply_move_to_relators(out, op)
    return out[0]


def nielsen_normalize(
    words: Iterable[Word], m: int
) -> Tuple[Tuple[Word, ...], SmithDecomposition]:
    """Mirror the Smith reduction of the exponent-sum matrix on relator words.

    Returns (rewritten words, Smith decomposition); the exponent-sum matrix
    of the rewritten words equals the diagonal D exactly.
    """
    relators = list(words)
    snf = smith_normal_form(exponent_sum_matrix(relators), m)
    for op in snf.ops:
        apply_move_to_relators(relators, op)
    if exponent_sum_matrix(relators) != diagonal(snf.invariant_factors, len(relators), m):
        raise AssertionError("Nielsen replay does not match Smith diagonal")
    return tuple(relators), snf
