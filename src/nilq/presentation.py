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

``normalize`` reduces the exponent-sum matrix (the relators' alpha rows)
to Smith form D = U S V, and its basis change phi is the lift of V: a_k
goes to a_1^V_k1 ... a_m^V_km, with no commutator part.  phi acts as V on
the abelianization, so it is onto there, hence onto N_{2,m}; a finitely
generated nilpotent group is Hopfian (Segal, *Polycyclic Groups*, ch. 1),
so phi is an automorphism.  ``normalize`` builds phi once, from the sparse
rows of V, and maps each relator through it, as
``express_in_normalized_basis`` maps each query: a closed form on Malcev
coordinates (``_BasisChange``), with no word and no ``Polynomial`` built
per element.  Mapped through phi, the relators have alpha rows S V, whose
Z-span is that of D: the rows alpha_i e_i, i <= rank, with alpha_i the
invariant factors.  The row operations, which only combine relators, are
not carried out at all.

Any other lift of V, such as the Smith log's column operations replayed
as generator moves, is phi followed by a central automorphism
x -> x z(x's alpha), which fixes every central element.  So the closure
lattice L below and every decision are the same for each lift; only the
images of the generators and the gammas of the echelon rows with an alpha
pivot depend on the choice.

The normal closure of the relators is generated, modulo the relators
themselves, by the central elements [g, a_k]: conjugation in a 2-step group
obeys w^-1 g w = g [g, w], and [g, w] is bilinear in the exponent vector of
w, so the commutators with the generators span everything.  As the alphas
of the images span the alpha_i e_i, these brackets span the pairs
d_pq e_pq, with d_pq = alpha_p for p <= rank and 0 otherwise (as
alpha_p | alpha_q for p < q).

A product or inverse of closure elements differs from the sum of their
Malcev coordinates (alpha | gamma) only by multiples of alpha_i [a_i, a_j],
which are multiples of d_ij e_ij.  So the coordinates of the closure form
one lattice, spanned by the images of the original relators and the rows
(0 | d_pq e_pq): the word problem is a membership test in that lattice, and
"some power of h is trivial" is membership in its Q-span.  Its elements
with zero alpha are the closure lattice L: the d_pq e_pq, plus the gammas
of the integer combinations of images whose alphas cancel (there are such
combinations only when r exceeds the rank).

A pair with d_pq = 1 has (0 | e_pq) in the lattice, so its coordinate says
nothing and is dropped.  ``echelon`` is the Hermite form of the images and
the rows d_pq e_pq, d_pq >= 2, over the alpha coordinates and the pairs
left (``kept_pairs``), with each gamma reduced modulo its nonzero d_pq.
``normalize`` keeps the images, and the form is built when it is first
read: by ``is_trivial_in_G``, ``closure_lattice`` or the solver's ambient,
never by ``classify`` or the torsion-free deciders.  Its alpha block is
diag(alpha_i) whatever the presentation, which is checked as it is built,
and its rows with a gamma pivot span L at the kept pairs.  At MAX_RANK
generators and MAX_RELATORS relators of full rank nearly every d_pq is 1,
and the form has no more columns than generators.

So the paper's claims 1-3 hold exactly, in the new basis, whenever the
exponent-sum matrix has full rank.  Modulo torsion every [a_i, a_k] with
i <= rank vanishes, and G is the free 2-step nilpotent group on
a_(rank+1) ... a_m modulo the central combinations of the relators, which
exist only for r > m:
- r <= m - 2: at least two free generators remain, so a profile is central
  modulo torsion iff it is zero beyond the rank (``center_profile_dim`` is
  the rank), and each a_k with k > rank commutes modulo torsion only with
  those profiles and itself: it is c-small;
- r = m - 1: every pair has p <= rank, so each [a_i, a_j] is trivial modulo
  torsion, while a_m is not (no alpha row reaches coordinate m);
- r >= m: the alpha rows and L both span everything over Q, so each a_k is
  trivial modulo torsion.

Over Q the free block is enough.  Every d_pq with p <= rank is nonzero, so
the Q-span of the closure's coordinates holds each such pair, and modulo
them it is the span of the images alone.  So every zero test and rank
modulo it over Q reads only the images at the first rank alphas (they are
zero beyond) and at the free pairs rank < p < q, the tail of gamma laid out
as the gamma of N_{2,m-rank}: their Hermite form is ``free_block``, whose
rows past the first rank have zero alpha and span L there over Q.  A
bracket [g, a_c] with c <= rank has no free coordinate, and h is trivial
modulo torsion iff its alpha vanishes beyond the rank and its first rank
alphas, then its free coordinates, lie in the Q-span of the block: one
rational reduction.

The basis change acts on Malcev coordinates, never on words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple

from .nilpotent2 import (MalcevElement, _row_offsets, commutator, from_word, generator, pair_list,
                         quadratic_form)
from .words import MAX_RELATORS, RankLimitError, Word, WordSyntaxError, check_rank, parse_word
from .zmatrix import (Echelon, SmithDecomposition, diagonal, hermite_normal_form, rank as zrank,
                      smith_normal_form)


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
    """A presentation over the basis of its Smith reduction.

    ``snf`` is the Smith reduction D = U S V of the exponent-sum matrix; the
    original generators over the new basis are the lift of V, a_k being
    a_1^V_k1 ... a_m^V_km.  ``d_pq`` is d_pq at each pair in gamma order,
    and ``kept_pairs`` the gamma indices where it is not 1.
    ``image_rows`` are the relators' images at the alpha columns, then those
    pairs, each gamma reduced modulo its nonzero d_pq: the columns that
    ``coordinates`` names in an element's alpha + gamma.
    """

    m: int
    r: int
    s: int
    snf: SmithDecomposition
    d_pq: Tuple[int, ...]
    kept_pairs: Tuple[int, ...]
    image_rows: Tuple[Tuple[int, ...], ...]
    _phi: _BasisChange = field(repr=False, compare=False)

    @property
    def rank_full(self) -> bool:
        return self.snf.rank == min(self.r, self.m)

    @property
    def alphas(self) -> Tuple[int, ...]:
        return self.snf.invariant_factors

    @cached_property
    def coordinates(self) -> Tuple[int, ...]:
        """The columns of ``echelon`` as indices into an element's alpha +
        gamma: every alpha, then the ``kept_pairs`` of gamma."""
        return tuple(range(self.m)) + tuple(self.m + t for t in self.kept_pairs)

    @cached_property
    def echelon(self) -> Echelon:
        """The Hermite form of the closure's coordinates at the alpha columns,
        then the kept pairs (see the module docstring), built on first read:
        of ``image_rows`` and the rows d_pq e_pq, d_pq >= 2.  Its first rank
        rows are (alpha_i e_i | c_i), the rest have zero alpha."""
        m, n, d = self.m, len(self.kept_pairs), self.d_pq
        rows = list(self.image_rows)
        rows += [(0,) * (m + c) + (d[t],) + (0,) * (n - c - 1)
                 for c, t in enumerate(self.kept_pairs) if d[t]]
        return self._hermite(rows, m)

    @property
    def closure_lattice(self) -> Tuple[Tuple[int, ...], ...]:
        """A generating set of the closure lattice L, built on each read: e_pq
        at each pair with d_pq = 1, then the echelon rows with a gamma pivot,
        zero at those pairs."""
        n, m = len(self.d_pq), self.m
        units = [(0,) * t + (1,) + (0,) * (n - t - 1) for t, d in enumerate(self.d_pq) if d == 1]
        rows = []
        for row in self.echelon.rows[self.snf.rank :]:
            v = [0] * n
            for t, x in zip(self.kept_pairs, row[m:]):
                v[t] = x
            rows.append(tuple(v))
        return tuple(units + rows)

    @cached_property
    def free_block(self) -> Tuple[int, Echelon]:
        """Where the free pairs (p, q), rank < p < q, start in gamma, of which
        they are the tail, and the Hermite form of ``image_rows`` cut to the
        first rank alphas and those pairs, built on first read.  Its first
        rank rows are (alpha_i e_i | c_i), which is checked as it is built,
        and the rest have zero alpha.  Over Q, L is every pair with
        p <= rank plus the latter rows (see the module docstring)."""
        k = self.snf.rank
        tail = (self.m - k) * (self.m - k - 1) // 2
        rows = [row[:k] + row[len(row) - tail :] for row in self.image_rows]
        return len(self.d_pq) - tail, self._hermite(rows, k)

    def _hermite(self, rows, cols: int) -> Echelon:
        """The Hermite form of rows whose first cols columns are alphas,
        checked to be diag(alpha_i) there: the one check that the relators
        were mapped through phi as their Smith form says."""
        form = hermite_normal_form(rows)
        if diagonal(self.alphas, self.snf.rank, cols) != tuple(r[:cols] for r in form.rows if any(r[:cols])):
            raise AssertionError("relator images do not span the Smith diagonal")
        return form

    @cached_property
    def center_profile_dim(self) -> int:
        """Dimension over Q of the alpha profiles central modulo torsion: the
        kernel of the map whose row c is the bracket residues of a_c.  Rows
        c <= rank are zero, as a_c has no free coordinate."""
        gens = (generator(self.m, c) for c in range(self.snf.rank + 1, self.m + 1))
        return _corank(self, ([x for res in _bracket_residues(self, g) for x in res] for g in gens))


def _corank(np_: NormalizedPresentation, rows) -> int:
    """m less the rank of rows, taken over their nonzero columns: a bracket
    map's rows are zero at most pairs, and the rank of the few columns left
    costs far less than that of the long rows."""
    return np_.m - zrank(c for c in zip(*rows) if any(c))


def _bracket_residues(np_: NormalizedPresentation, g: MalcevElement) -> Iterator[list]:
    """gamma([g, a_c]) modulo the Q-span of the closure lattice, read in the
    free block, for c = rank+1..m one at a time: the columns of the bracket
    map v -> [g, v] modulo torsion that can be nonzero.  For c <= rank the
    residue is 0, as [g, a_c] has no free coordinate.

    Killing a_1 ... a_rank maps N_{2,m} onto N_{2,n}, n = m - rank, and
    sends the free pairs to all of gamma there, so each bracket is
    ``commutator`` in N_{2,n} of g's image with a generator.  It has no
    alpha, so the block's rank alpha rows would only scale it: it is
    reduced by the free-pair rows alone."""
    k = np_.snf.rank
    start, block = np_.free_block
    echelon = Echelon(block.rows[k:], block.pivots[k:])
    free = MalcevElement(np_.m - k, g.alpha[k:], g.gamma[start:])
    for c in range(1, free.m + 1):
        # the bracket's alpha is zero in the free block's first k columns
        yield echelon.rational_residue((0,) * k + commutator(free, generator(free.m, c)).gamma)


class _BasisChange:
    """phi on Malcev coordinates, built once from the rows of V.

    phi sends x = (a | g) to alpha' = sum_k a_k V_k and gamma' the p < q
    part of V^T X V, with X the matrix of x's nonzero entries that
    ``nilpotent2.quadratic_form`` lists; W = X V is summed from them.  That
    is the class-2 substitution of the basis images, whose gammas are zero,
    for the generators.  ``rows[k]`` holds the nonzero (p, V_kp) of row k,
    and ``spans[k]`` a (t, V_kp, q) for each of them and each q > p, t the
    gamma index of the pair (p, q): O(nnz(V) m) state, whatever x.
    """

    __slots__ = ("m", "rows", "spans")

    def __init__(self, V: Sequence[Sequence[int]]):
        m = self.m = len(V)
        self.rows = tuple(tuple((p, v) for p, v in enumerate(row) if v) for row in V)
        offsets = _row_offsets(m)  # the pair (p, q), 0-based, sits at offsets[p] + q
        self.spans = tuple(tuple((offsets[p] + q, v, q) for p, v in row for q in range(p + 1, m))
                           for row in self.rows)

    def __call__(self, x: MalcevElement) -> MalcevElement:
        m, rows = self.m, self.rows
        alpha = [0] * m
        for k, ak in enumerate(x.alpha):
            if ak:
                for p, v in rows[k]:
                    alpha[p] += ak * v
        # W[k] = sum_l X_kl V_l over the nonzero X_kl; None where row k of X is 0
        W = [None] * m
        for k, l, c in quadratic_form(x):
            w = W[k]
            if w is None:
                w = W[k] = [0] * m
            for q, v in rows[l]:
                w[q] += c * v
        gamma = [0] * len(x.gamma)
        for w, spans in zip(W, self.spans):
            if w is not None:
                for t, v, q in spans:
                    gamma[t] += v * w[q]
        return MalcevElement(m, tuple(alpha), tuple(gamma))


def normalize(p: NilPresentation) -> NormalizedPresentation:
    """p over the basis of the Smith reduction of its relators' alphas.

    Returns the ``NormalizedPresentation``: the reduction, d_pq and the
    relators' images over the new basis, the lift of V.  phi is
    built here once, from the rows of V; each relator is mapped through it,
    and it is kept for the queries.  The echelon of the closure lattice,
    and the free block, are not built here but on first read, so a caller
    that only classifies never pays for them.
    """
    m = p.m
    snf = smith_normal_form((h.alpha for h in p.relators), m)
    k = snf.rank
    d = tuple(snf.invariant_factors[i - 1] if i <= k else 0 for i, _ in pair_list(m))
    # the lift of V: a_k goes to a_1^V_k1 ... a_m^V_km, with no gamma part
    phi = _BasisChange([snf.V.row(c) for c in range(m)])
    kept = tuple(t for t, x in enumerate(d) if x != 1)
    rows = []
    for h in p.relators:
        g = phi(h)
        rows.append(g.alpha + tuple(g.gamma[t] % d[t] if d[t] else g.gamma[t] for t in kept))
    return NormalizedPresentation(m, len(p.relators), p.s, snf, d, kept, tuple(rows), phi)


def _require_m(x, np_: NormalizedPresentation) -> None:
    """The one guard of every query: x, a word or an element, has np_'s m."""
    if x.m != np_.m:
        raise ValueError("rank mismatch")


def express_in_normalized_basis(w: Word, np_: NormalizedPresentation) -> MalcevElement:
    """Evaluate a word written over the original presentation's generators.

    Normalization changes the basis by the lift of the Smith form's V, so a
    word meant relative to the input presentation has to be mapped through
    it before the coordinate-level deciders see it: each original generator
    a_k becomes a_1^V_k1 ... a_m^V_km.  Words already phrased in the new
    basis can skip this and call from_word directly.

    The substitution is the class-2 polynomial map of ``nilpotent2`` at
    those images, applied in closed form to the word's Malcev coordinates
    through the sparse rows of V that ``normalize`` kept: no ``Polynomial``
    is built and no group multiplication runs.
    """
    _require_m(w, np_)
    return np_._phi(from_word(w))


def is_trivial_in_G(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """Membership of h in the normal closure of the relators inside N_{2,m}.

    h is taken in the rewritten basis; use express_in_normalized_basis for
    words over the original generators.  The closure's Malcev coordinates
    are exactly the lattice of ``echelon`` and the unit pairs it drops, so
    this is one membership test of h's coordinates at ``coordinates``.
    """
    _require_m(h, np_)
    v = h.alpha + h.gamma
    return np_.echelon.in_lattice([v[c] for c in np_.coordinates])


def is_trivial_mod_torsion(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """True iff some positive power of h lies in the normal closure.

    Rational analogue of is_trivial_in_G: Q-span membership of h's
    coordinates in the closure's lattice, read in the free block (see the
    module docstring).  The coordinates of h^n are n times those of h minus
    binom(n, 2) alpha_i alpha_j at each pair (i, j); once alpha lies in the
    span of the alpha_i e_i, that term lies in the Q-span of the closure
    lattice.  So alpha must vanish beyond the rank, and h's first rank
    alphas, then its free coordinates, must lie in the Q-span of the free
    block's rows: one rational reduction.
    """
    _require_m(h, np_)
    k = np_.snf.rank
    if any(h.alpha[k:]):
        return False
    start, echelon = np_.free_block
    return not any(echelon.rational_residue(h.alpha[:k] + h.gamma[start:]))


def is_central_mod_torsion(h: MalcevElement, np_: NormalizedPresentation) -> bool:
    """True iff h commutes with every generator modulo torsion, i.e. h is
    central in the quotient by the torsion subgroup; stops at the first
    generator that h does not commute with."""
    _require_m(h, np_)
    return not any(any(res) for res in _bracket_residues(np_, h))


def _commuting_profile_dim(np_: NormalizedPresentation, g: MalcevElement) -> int:
    """Dimension over Q of {v : gamma([g, v]) lies in the Q-span of the
    closure lattice}; the alpha profiles commuting with g modulo torsion."""
    return _corank(np_, _bracket_residues(np_, g))


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
    _require_m(g, np_)
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
