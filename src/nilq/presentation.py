"""Finite presentations of 2-step nilpotent quotients and their word problem.

A presentation file looks like

    # comment
    m s
    a1 a2^-1
    [a1,a2] a3

with m generators, declared nilpotency class s >= 2, and one relator word per
line.  Classes above 2 are projected to the 2-step image; every report states
that explicitly.  G is N_{2,m} modulo the normal closure of the relators, so
all that is decided here reads only a relator's Malcev coordinates:
``parse_presentation`` turns each line into its element as it reads it, and
a ``NilPresentation`` holds those elements, not words.

``normalize`` rewrites the relators through Nielsen moves mirroring the Smith
reduction of the exponent-sum matrix (the relators' alpha rows), so relator
i becomes a_i^alpha_i * c_i with c_i in the derived subgroup.  The normal
closure of the relators is then generated, modulo the relators themselves,
by the central elements [g_i, a_k]: conjugation in a 2-step group obeys
w^-1 g w = g [g, w], and [g, w] is bilinear in the exponent vector of w, so
the commutators with the generators span everything.  Their gamma parts
span the closure lattice L, which holds alpha_i [a_i, a_k] for every k != i.

Relators beyond the rank of the exponent-sum matrix (the extra relators when
r > m, and the leftovers of a rank-deficient matrix alike) have zero exponent
row after rewriting, hence are central; their gamma parts join L too.  The
closure is <g_i> * L for every presentation, whatever its rank.

L has a closed form.  As alpha_p | alpha_q for p < q, L is spanned by
d_pq e_pq at each pair p < q, with d_pq = alpha_p for p <= rank and 0
otherwise, plus the gamma parts of the relators beyond the rank, which may be
reduced modulo every nonzero d_pq.  ``closure_echelon`` is the Hermite form of
these at most C(m, 2) + r - rank rows.

So the paper's claims 1-3 hold exactly, in the rewritten basis, whenever the
exponent-sum matrix has full rank.  Modulo torsion every [a_i, a_k] with
i <= rank vanishes, and G is the free 2-step nilpotent group on
a_(rank+1) ... a_m modulo the extra relators, which exist only for r > m:
- r <= m - 2: at least two free generators remain, so a profile is central
  modulo torsion iff it is zero beyond the rank (``center_profile_dim`` is
  the rank), and each a_k with k > rank commutes modulo torsion only with
  those profiles and itself: it is c-small;
- r = m - 1: every pair has p <= rank, so each [a_i, a_j] is trivial modulo
  torsion, while a_m is not (no alpha row reaches coordinate m);
- r >= m: the alpha rows and L both span everything over Q, so each a_k is
  trivial modulo torsion.

A product or inverse of closure elements differs from the sum of their Malcev
coordinates (alpha | gamma) only by multiples of alpha_i [a_i, a_j], which lie
in L.  So the coordinates of the closure form one lattice, spanned by the
rows (alpha_i e_i | c_i) and (0 | L): the word problem is a membership test
in that lattice, and "some power of h is trivial" is membership in its Q-span.

Over Q the free block is enough.  Every d_pq with p <= rank is nonzero, so
the Q-span of L holds each such pair, and the rest of it is the span of the
extra relators' gammas at the free pairs rank < p < q.  These pairs are the
tail of gamma, laid out as the gamma of N_{2,m-rank}.  Dropping the other
pairs therefore maps Q^C(m,2) modulo the Q-span of L isomorphically onto the
free pairs modulo the extras there, and every zero test and rank modulo L
over Q can be read in the free block (``free_block``).  A bracket [g, a_c]
with c <= rank has no free coordinate, and h is trivial modulo torsion iff
its alpha vanishes beyond the rank and, once the normalized relators clear
its alpha, its free coordinates lie in the span of the extras there.

The Nielsen moves act on Malcev coordinates, never on words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Tuple

from .nilpotent2 import (
    MalcevElement,
    Polynomial,
    commutator,
    from_word,
    generator,
    inverse,
    multiply,
    pair_list,
    power,
)
from .words import MAX_RELATORS, NielsenLog, RankLimitError, Word, WordSyntaxError
from .words import check_rank, nielsen_moves, parse_word
from .zmatrix import Echelon, IntMatrix, SmithDecomposition, rank as zrank


class InconclusiveError(Exception):
    """The presentation is outside the regime where the procedure decides."""


@dataclass(frozen=True)
class NilPresentation:
    """m generators, declared class s, and the relators as elements of
    N_{2,m}, each of rank m: their coordinates are all that is decided."""

    m: int
    s: int
    relators: Tuple[MalcevElement, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one generator")
        if self.s < 2:
            raise ValueError("nilpotency class must be at least 2")
        if any(h.m != self.m for h in self.relators):
            raise ValueError("relator rank does not match m")


def parse_presentation(text: str) -> NilPresentation:
    """Read a presentation file, each relator line straight into its element.

    A malformed line raises ValueError; a relator over MAX_WORD_LETTERS
    letters, or one relator more than MAX_RELATORS, raises RankLimitError.
    Either message starts with the number of the line at fault.
    """
    header = None
    relators: list[MalcevElement] = []
    m = s = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'm s'")
            try:
                m, s = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: header must be two integers") from None
            check_rank(m)
            header = (m, s)
        elif len(relators) == MAX_RELATORS:
            raise RankLimitError(f"line {lineno}: relators over the limit of {MAX_RELATORS}")
        else:
            try:
                relators.append(from_word(parse_word(line, m)))
            except WordSyntaxError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            except ValueError as exc:  # the letter cap; from_word of a parsed word raises none
                raise RankLimitError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ValueError("empty presentation file")
    return NilPresentation(m, s, tuple(relators))


@dataclass(frozen=True)
class NormalizedPresentation:
    """Presentation in normal form: relator i reads a_i^alphas[i] * c_parts[i].

    ``rewritten`` and ``basis_images`` are the relators and the original
    generators over the new basis; ``nielsen_log`` holds the moves.  The
    other parts are views of ``snf`` and ``rewritten``.
    """

    m: int
    r: int
    s: int
    nielsen_log: NielsenLog
    snf: SmithDecomposition
    rewritten: Tuple[MalcevElement, ...]
    basis_images: Tuple[MalcevElement, ...]

    @property
    def rank_full(self) -> bool:
        return self.snf.rank == min(self.r, self.m)

    @property
    def alphas(self) -> Tuple[int, ...]:
        return self.snf.invariant_factors

    @property
    def normalized_relators(self) -> Tuple[MalcevElement, ...]:
        """The rewritten relators a_i^alphas[i] * c_parts[i], i < rank."""
        return self.rewritten[: self.snf.rank]

    @property
    def c_parts(self) -> Tuple[MalcevElement, ...]:
        # a_i^-alpha_i * h: with one nonzero alpha, no gamma coordinate moves
        return tuple(MalcevElement(self.m, (0,) * self.m, h.gamma) for h in self.normalized_relators)

    @property
    def extra_commutator_relators(self) -> Tuple[MalcevElement, ...]:
        return self.rewritten[self.snf.rank :]  # zero alpha, so central

    @property
    def closure_lattice(self) -> Tuple[Tuple[int, ...], ...]:
        """Vectors spanning the gamma coordinates of the central part of the
        normal closure: alpha_i * [a_i, a_k] for each normalized relator i
        and k != i, then the nonzero gammas of extra_commutator_relators."""
        m = self.m
        # [a_i^alpha_i c_i, a_g] is +-alpha_i at the pair (i+1, g), never zero
        return tuple(
            commutator(h, generator(m, g)).gamma
            for i, h in enumerate(self.normalized_relators)
            for g in range(1, m + 1)
            if g != i + 1
        ) + tuple(h.gamma for h in self.extra_commutator_relators if any(h.gamma))

    # Computed on first use only: the deciders need them, and normalize
    # should not pay for them where nothing is asked.
    @cached_property
    def closure_echelon(self) -> Echelon:
        """Echelon form of closure_lattice: the gamma block of
        coordinate_echelon, built from the closed form of L (see the module
        docstring)."""
        k = self.snf.rank
        d = [self.alphas[p - 1] if p <= k else 0 for p, _ in pair_list(self.m)]
        n = len(d)
        rows = [(0,) * t + (x,) + (0,) * (n - t - 1) for t, x in enumerate(d) if x]
        extras = self.extra_commutator_relators
        rows += [tuple(g % x if x else g for g, x in zip(h.gamma, d)) for h in extras]
        return Echelon.of(rows)

    @cached_property
    def coordinate_echelon(self) -> Echelon:
        """Row-echelon basis of the Malcev coordinates (alpha | gamma) of the
        normal closure: each normalized relator (alpha_i e_i | c_i), pivot i,
        then (0 | row) for each row of closure_echelon.  No second HNF."""
        zeros = (0,) * self.m
        lattice = self.closure_echelon
        return Echelon(
            tuple(g.alpha + g.gamma for g in self.normalized_relators)
            + tuple(zeros + row for row in lattice.rows),
            tuple(range(self.snf.rank)) + tuple(self.m + c for c in lattice.pivots),
        )

    @cached_property
    def free_block(self) -> Tuple[int, Echelon]:
        """Where the free pairs (p, q), rank < p < q, start in gamma, of which
        they are the tail, and the echelon form of the extra relators' gammas
        there, with no rows when those are all zero.  Over Q, L is every pair
        with p <= rank plus these rows (see the module docstring)."""
        n = self.m - self.snf.rank
        start = len(pair_list(self.m)) - n * (n - 1) // 2
        rows = [h.gamma[start:] for h in self.extra_commutator_relators if any(h.gamma[start:])]
        return start, Echelon.of(rows) if rows else Echelon((), ())

    @cached_property
    def center_profile_dim(self) -> int:
        """Dimension over Q of the alpha profiles central modulo torsion: the
        kernel of the map whose row c is the bracket residues of a_c.  Rows
        c <= rank are zero, as a_c has no free coordinate."""
        gens = [generator(self.m, c) for c in range(self.snf.rank + 1, self.m + 1)]
        rows = [[x for res in _bracket_residues(self, g) for x in res] for g in gens]
        return self.m - zrank(IntMatrix.from_rows(rows))


def _bracket_residues(np_: NormalizedPresentation, g: MalcevElement) -> Iterator[list]:
    """gamma([g, a_c]) modulo the Q-span of the closure lattice, read in the
    free block, for c = rank+1..m one at a time: the columns of the bracket
    map v -> [g, v] modulo torsion that can be nonzero.  For c <= rank the
    residue is 0, as [g, a_c] has no free coordinate."""
    _, echelon = np_.free_block
    a = g.alpha[np_.snf.rank :]
    n = len(a)
    for c in range(n):
        # gamma_pq([g, a_c]) is a_p at q = c and -a_q at p = c (0-based, in
        # N_{2,n}); the pair (p, q) sits at p (2n - p - 1) / 2 + q - p - 1
        v = [0] * (n * (n - 1) // 2)
        for p in range(c):
            v[p * (2 * n - p - 1) // 2 + c - p - 1] = a[p]
        t = c * (2 * n - c - 1) // 2
        v[t : t + n - c - 1] = [-x for x in a[c + 1 :]]
        yield echelon.rational_residue(v)


def normalize(p: NilPresentation) -> NormalizedPresentation:
    m = p.m
    relators = list(p.relators)
    sums = IntMatrix(len(relators), m, tuple(a for h in relators for a in h.alpha))
    log, snf = nielsen_moves(sums)
    basis = [generator(m, k) for k in range(1, m + 1)]
    for mv in log.moves:
        i, j = mv.i - 1, mv.j - 1
        if mv.kind == "relator_mult":
            relators[j] = multiply(power(relators[i], mv.k), relators[j])
        elif mv.kind == "relator_swap":
            relators[i], relators[j] = relators[j], relators[i]
        elif mv.kind == "relator_invert":
            relators[i] = inverse(relators[i])
    # Generator moves substitute letters (a_j -> a_i^-k a_j): walking the log
    # backwards composes the substitutions in replay order, one image at a time.
    for mv in reversed(log.moves):
        i, j = mv.i - 1, mv.j - 1
        if mv.kind == "generator_mult":
            basis[j] = multiply(power(basis[i], -mv.k), basis[j])
        elif mv.kind == "generator_swap":
            basis[i], basis[j] = basis[j], basis[i]
        elif mv.kind == "generator_invert":
            basis[i] = inverse(basis[i])
    images = tuple(Polynomial(h)(basis, m) for h in relators)
    k = snf.rank
    if any(h.alpha != snf.D.row(i) for i, h in enumerate(images[:k])):
        raise AssertionError("rewritten relator alpha does not match diagonal")
    if any(any(h.alpha) for h in images[k:]):
        raise AssertionError("relator beyond rank must be central")
    return NormalizedPresentation(
        m=m,
        r=len(relators),
        s=p.s,
        nielsen_log=log,
        snf=snf,
        rewritten=images,
        basis_images=tuple(basis),
    )


def express_in_normalized_basis(w: Word, np_: NormalizedPresentation) -> MalcevElement:
    """Evaluate a word written over the original presentation's generators.

    Normalization may substitute generators (the column moves of the Smith
    reduction), so a word meant relative to the input presentation has to go
    through the same substitutions before the coordinate-level deciders see
    it: each original generator a_k becomes basis_images[k-1].  Words already
    phrased in the rewritten basis can skip this and call from_word directly.

    The substitution is the class-2 polynomial map of ``nilpotent2``: the
    word's element as a ``Polynomial``, evaluated at basis_images.  No group
    multiplication runs.
    """
    if w.m != np_.m:
        raise ValueError("rank mismatch")
    return Polynomial(from_word(w))(np_.basis_images, np_.m)


def is_trivial_in_G(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """Membership of h in the normal closure of the relators inside N_{2,m}.

    h is taken in the rewritten basis; use express_in_normalized_basis for
    words over the original generators.  The closure's Malcev coordinates
    are exactly the lattice coordinate_echelon, so this is one membership
    test of h's coordinates.
    """
    if h.m != np_.m:
        raise ValueError("rank mismatch")
    return np_.coordinate_echelon.in_lattice(h.alpha + h.gamma)


def is_trivial_mod_torsion(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """True iff some positive power of h lies in the normal closure.

    Rational analogue of is_trivial_in_G: Q-span membership of h's
    coordinates in the closure's lattice, read in the free block (see the
    module docstring).  The coordinates of h^n are n times those of h minus
    binom(n, 2) alpha_i alpha_j at each pair (i, j); once alpha lies in the
    span of the alpha_i e_i, that term lies in the Q-span of the closure
    lattice.  So alpha must vanish beyond the rank.  Then N h, N the lcm of
    the alphas, less N h_i / alpha_i times each normalized relator has zero
    alpha, and its free coordinates must lie in the span of the extras.
    """
    if h.m != np_.m:
        raise ValueError("rank mismatch")
    if any(h.alpha[np_.snf.rank :]):
        return False
    start, echelon = np_.free_block
    scale = math.lcm(*np_.alphas)
    rest = [scale * x for x in h.gamma[start:]]
    for a, x, rel in zip(np_.alphas, h.alpha, np_.normalized_relators):
        if x:
            f = scale // a * x
            rest = [u - f * v for u, v in zip(rest, rel.gamma[start:])]
    return not any(echelon.rational_residue(rest))


def is_central_mod_torsion(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """True iff h commutes with every generator modulo torsion, i.e. h is
    central in the quotient by the torsion subgroup; stops at the first
    generator that h does not commute with."""
    if h.m != np_.m:
        raise ValueError("rank mismatch")
    return not any(any(res) for res in _bracket_residues(np_, h))


def _commuting_profile_dim(np_: NormalizedPresentation, g: MalcevElement) -> int:
    """Dimension over Q of {v : gamma([g, v]) lies in the Q-span of the
    closure lattice}; the alpha profiles commuting with g modulo torsion."""
    return np_.m - zrank(IntMatrix.from_rows(_bracket_residues(np_, g)))


def is_c_small(g: MalcevElement, np_: NormalizedPresentation) -> bool:
    """Centralizer smallness of g in the torsion-free quotient G0.

    Commutation with g only depends on alpha coordinates and is the rational
    linear condition gamma-form(g.alpha, v) in Q-span(closure_lattice).  g is
    centralizer-small iff that solution space is exactly
    span({g.alpha} + central profiles), which (the containment being
    automatic) is a dimension comparison.  This is the rational criterion:
    the centralizer equals <g> * Z(G0) up to finite index.  Degenerate case:
    for g central modulo torsion (the identity included) the answer is true
    iff G0 is abelian.  Decided where the exponent-sum matrix has rank
    <= m - 2, so a redundant relator leaves the answer as it was; raises
    InconclusiveError otherwise.
    """
    if g.m != np_.m:
        raise ValueError("rank mismatch")
    if np_.snf.rank > np_.m - 2:
        raise InconclusiveError(
            "centralizer-smallness is only decided for relator rank <= m - 2"
        )
    commuting_dim = _commuting_profile_dim(np_, g)
    if commuting_dim == np_.m:  # g is central modulo torsion
        return np_.center_profile_dim == np_.m
    return commuting_dim == np_.center_profile_dim + 1


REGIME_UNDECIDABLE = "UNDECIDABLE_REGULAR"
REGIME_VIRTUALLY_ABELIAN = "VIRTUALLY_ABELIAN"
REGIME_FINITE = "FINITE"
REGIME_FINITE_ABELIAN = "FINITE_ABELIAN"
REGIME_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class RegimeReport:
    """Classifier output for the (m, r) parameter regime of a presentation.

    The regime describes what holds for asymptotically almost every random
    presentation with these parameters; notes spell out the structural facts
    and flag the a.a.s. qualifier where it applies.
    """

    regime: str
    corank: Optional[int]
    diophantine: str
    notes: str
    rank: int
    invariant_factors: Tuple[int, ...]


def classify(np_: NormalizedPresentation) -> RegimeReport:
    m, r = np_.m, np_.r
    notes: list[str] = []
    corank = None
    if np_.s > 2:
        notes.append(
            f"declared nilpotency class {np_.s}; all computations use the "
            "2-step image (quotient by the third lower central subgroup)."
        )
    if not np_.rank_full:
        notes.append(
            "exponent-sum matrix is rank-deficient, which happens with "
            "vanishing probability for random relators; no regime assigned."
        )
        regime, dio = REGIME_INCONCLUSIVE, "UNKNOWN"
    elif r <= m - 2:
        notes.append(
            f"quotient by the third lower central subgroup is virtually free "
            f"nilpotent of rank {m - r} (class 2). Asymptotically almost "
            "surely the group is regular, directly indecomposable, its "
            "torsion-free quotient has centralizer-small non-commuting "
            "generators, and its largest ring of scalars is the integers; "
            "the integers are definable by systems of equations, so "
            "Diophantine solvability over the group is undecidable."
        )
        regime, dio, corank = REGIME_UNDECIDABLE, "UNDECIDABLE", m - r
    elif r == m - 1:
        notes.append(
            "one generator survives rationally: asymptotically almost surely "
            "the group is virtually abelian (finite-by-cyclic up to finite "
            "index), and equation solvability is decidable."
        )
        regime, dio = REGIME_VIRTUALLY_ABELIAN, "DECIDABLE"
    elif r == m:
        notes.append(
            "full-rank square regime: the abelianization is finite and the "
            "derived subgroup has finite exponent, so the group is finite; "
            "everything is decidable by enumeration."
        )
        regime, dio = REGIME_FINITE, "DECIDABLE"
    else:
        notes.append(
            "overdetermined regime: extra central relators kill the derived "
            "subgroup asymptotically almost surely, leaving a finite abelian "
            "group; equation solvability is decidable."
        )
        regime, dio = REGIME_FINITE_ABELIAN, "DECIDABLE"
    return RegimeReport(
        regime=regime,
        corank=corank,
        diophantine=dio,
        notes=" ".join(notes),
        rank=np_.snf.rank,
        invariant_factors=np_.snf.invariant_factors,
    )
