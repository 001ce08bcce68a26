"""Exact arithmetic in the free 2-step nilpotent group N_{2,m}.

Elements are Malcev normal forms

    a_1^alpha_1 ... a_m^alpha_m * prod_{i<j} [a_i, a_j]^gamma_ij

with the commutator convention [g, h] = g^-1 h^-1 g h and basic commutators
central.  The gamma block is indexed by pairs (i, j), i < j, row-major:
(1,2), (1,3), ..., (1,m), (2,3), ...  A ``MalcevElement`` is the named tuple
(m, alpha, gamma), checked once when built: an immutable value whose hash
and equality are the tuple's, so solver memos and caches key on elements
at the cost of a tuple.

The ground truth for the product is the collection identity

    a_s a_t = a_t a_s [a_s, a_t]        (any s, t)

applied letter by letter.  The closed forms below were read off from it, and
the test suite pins them against a letter-by-letter collection oracle; if
you change a sign here, the oracle will catch you.

Substituting y_1 ... y_n in N_{2,m} for the generators of x = (a | g) in
N_{2,n} is, in class 2, a polynomial map on coordinates (Sims, *Computation
with Finitely Presented Groups*, 1994, the chapter on polycyclic groups).
With A the m x n matrix whose column k is y_k.alpha and beta_k = y_k.gamma,
the image x(y) is

    alpha' = A a
    gamma'_pq = sum_k a_k beta_k[pq] + (A X A^T)_pq        (p < q)

where X[k][l] = g_kl above the diagonal, X[l][k] = -g_kl - a_k a_l below it
and X[k][k] = -C(a_k, 2): ``quadratic_form`` lists these entries, and every
reader of X takes them from it.  The a_k beta_k and diagonal terms are the
powers y_k^(a_k), the terms below the diagonal collect those powers in
order, and g_kl (A_pk A_ql - A_pl A_qk) is [y_k, y_l]^(g_kl).  ``Polynomial`` holds x as
this map, the evaluator of a fixed word at varying elements: the
group-system words of ``diophantine`` run through it, with no group
multiplication.  ``presentation`` applies the same formula the other way
round, one fixed set of images (its basis change) at varying x.
``coordinate_names`` names the coordinates, alpha then gamma, for
``format_element`` and the CLI.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from .words import MAX_RANK, Word


@lru_cache(maxsize=None)
def pair_list(m: int) -> Tuple[Tuple[int, int], ...]:
    """All (i, j) with 1 <= i < j <= m, row-major; gamma follows this order."""
    return tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))


class MalcevElement(namedtuple("MalcevElement", "m alpha gamma")):
    """The element a_1^alpha_1 ... a_m^alpha_m prod_{i<j} [a_i, a_j]^gamma_ij
    of N_{2,m}, gamma in ``pair_list(m)`` order.

    An immutable value: a named tuple (m, alpha, gamma) whose fields, hash
    and equality run in C, so it can key a dict cheaply.  Being a tuple, it
    iterates over m, alpha and gamma, has ``len`` 3, and equals the plain
    tuple (m, alpha, gamma).  Construction checks both lengths (ValueError);
    pickle and copy rebuild it through the same check.
    """

    __slots__ = ()

    def __new__(cls, m: int, alpha: Tuple[int, ...], gamma: Tuple[int, ...]):
        if len(alpha) != m:
            raise ValueError("alpha length must equal m")
        if len(gamma) != m * (m - 1) // 2:
            raise ValueError("gamma length must equal m(m-1)/2")
        return tuple.__new__(cls, (m, alpha, gamma))

    @classmethod
    def _make(cls, iterable):
        """As for any named tuple, but through the length checks, which
        ``_replace`` then passes too."""
        return cls(*iterable)

    def is_identity(self) -> bool:
        return not any(self.alpha) and not any(self.gamma)


@lru_cache(maxsize=None)
def identity(m: int) -> MalcevElement:
    return MalcevElement(m, (0,) * m, (0,) * (m * (m - 1) // 2))


@lru_cache(maxsize=None)
def generator(m: int, k: int) -> MalcevElement:
    if not (1 <= k <= m):
        raise ValueError(f"generator index {k} out of range 1..{m}")
    return MalcevElement(
        m,
        tuple(1 if i == k - 1 else 0 for i in range(m)),
        (0,) * (m * (m - 1) // 2),
    )


def multiply(x: MalcevElement, y: MalcevElement) -> MalcevElement:
    """Product in collected form.

    Moving y's a_i block left past x's a_j blocks (j > i) costs
    [a_i, a_j]^(-x_alpha_j * y_alpha_i) per pair, by bilinearity of the
    collection identity.
    """
    if x.m != y.m:
        raise ValueError("rank mismatch")
    m = x.m
    xa, ya = x.alpha, y.alpha
    alpha = tuple(xa[i] + ya[i] for i in range(m))
    gamma = []
    t = 0
    xg, yg = x.gamma, y.gamma
    for i in range(m):
        for j in range(i + 1, m):
            gamma.append(xg[t] + yg[t] - xa[j] * ya[i])
            t += 1
    return MalcevElement(m, alpha, tuple(gamma))


def inverse(x: MalcevElement) -> MalcevElement:
    m = x.m
    a = x.alpha
    alpha = tuple(-v for v in a)
    gamma = []
    t = 0
    for i in range(m):
        for j in range(i + 1, m):
            gamma.append(-x.gamma[t] - a[i] * a[j])
            t += 1
    return MalcevElement(m, alpha, tuple(gamma))


def commutator(x: MalcevElement, y: MalcevElement) -> MalcevElement:
    """[x, y] = x^-1 y^-1 x y; central, with gamma the alpha bilinear form."""
    if x.m != y.m:
        raise ValueError("rank mismatch")
    m = x.m
    xa, ya = x.alpha, y.alpha
    gamma = []
    for i in range(m):
        for j in range(i + 1, m):
            gamma.append(xa[i] * ya[j] - xa[j] * ya[i])
    return MalcevElement(m, (0,) * m, tuple(gamma))


def power(x: MalcevElement, k: int) -> MalcevElement:
    """x^k by square and multiply; negative k via the inverse."""
    if k < 0:
        return power(inverse(x), -k)
    acc = identity(x.m)
    base = x
    while k:
        if k & 1:
            acc = multiply(acc, base)
        base = multiply(base, base)
        k >>= 1
    return acc


def quadratic_form(x: MalcevElement) -> Iterator[Tuple[int, int, int]]:
    """The nonzero entries (k, l, X[k][l]) of x's matrix X (see the module
    docstring), 0-based: X[k][k] = -C(a_k, 2), and for k < l, X[k][l] =
    g_kl and X[l][k] = -g_kl - a_k a_l.  The one statement of X, which
    ``Polynomial`` and ``presentation``'s basis change both read."""
    a, g = x.alpha, x.gamma
    t = 0
    for k, ak in enumerate(a):
        if ak not in (0, 1):
            yield k, k, -(ak * (ak - 1) // 2)
        for l in range(k + 1, x.m):
            gkl = g[t]
            t += 1
            if gkl:
                yield k, l, gkl
            v = -gkl - ak * a[l]
            if v:
                yield l, k, v


class Polynomial:
    """An element x of N_{2,n} as the class-2 polynomial map
    (y_1 ... y_n) -> x(y), the image of x under a_k -> y_k (see the module
    docstring).

    Built once from x, it keeps x's nonzero a_k and the nonzero entries of
    the rows of X, each keyed by its generator's label, labels[k - 1] for
    a_k, and ``reads``, the sorted labels of the images a call reads.  A
    call takes ``images``, indexed by those labels, and their rank m; it
    reads an image only where x uses that generator and runs no multiply,
    power or commutator.
    """

    __slots__ = ("linear", "rows", "reads")

    def __init__(self, x: MalcevElement, labels: Sequence):
        rows = [{} for _ in x.alpha]  # row k maps labels[l] to X[k][l]
        for k, l, v in quadratic_form(x):
            rows[k][labels[l]] = v
        self.linear = tuple((labels[k], ak) for k, ak in enumerate(x.alpha) if ak)
        self.rows = tuple((labels[k], row) for k, row in enumerate(rows) if row)
        reads = {k for k, _ in self.linear}.union(*(row.keys() | {k} for k, row in self.rows))
        self.reads = tuple(sorted(reads))

    def __call__(self, images, m: int) -> MalcevElement:
        alpha = [0] * m
        gamma = [0] * (m * (m - 1) // 2)
        for k, ak in self.linear:
            y = images[k]
            for p, v in enumerate(y.alpha):
                alpha[p] += ak * v
            for t, v in enumerate(y.gamma):
                gamma[t] += ak * v
        # (A X A^T)_pq = sum_k A_pk w_q with w = (X A^T)_k, for p < q
        for k, row in self.rows:
            w = [0] * m
            for l, x_kl in row.items():
                for q, v in enumerate(images[l].alpha):
                    w[q] += x_kl * v
            col = images[k].alpha
            t = 0
            for p in range(m):
                u = col[p]
                if u:
                    for q in range(p + 1, m):
                        gamma[t] += u * w[q]
                        t += 1
                else:
                    t += m - p - 1
        return MalcevElement(m, tuple(alpha), tuple(gamma))

    def slope(self, label, images, m: int) -> Tuple[Tuple[int, ...], ...]:
        """The gamma slope of the map in the image of ``label``, a name
        whose linear coefficient is 0.

        Then X[label][label] = 0 and the image's gamma is not read, so
        gamma'(y) = g0 + sum_j alpha_y[j] L_j with L_j[pq] = [p = j] w_q +
        v_p [q = j], where w = sum_l X[label][l] A_l and v = sum_k
        X[k][label] A_k (the other images' alphas).  Returns the m rows L_j;
        ``images`` need not hold ``label``, and no group arithmetic runs.
        """
        w = [0] * m
        v = [0] * m
        for k, row in self.rows:
            if k == label:
                for l, x_kl in row.items():
                    for q, a in enumerate(images[l].alpha):
                        w[q] += x_kl * a
            else:
                x_ky = row.get(label)
                if x_ky:
                    for p, a in enumerate(images[k].alpha):
                        v[p] += x_ky * a
        rows = [[0] * (m * (m - 1) // 2) for _ in range(m)]
        for t, (p, q) in enumerate(pair_list(m)):
            rows[p - 1][t] = w[q - 1]
            rows[q - 1][t] = v[p - 1]
        return tuple(map(tuple, rows))


def from_word(w: Word) -> MalcevElement:
    """Evaluate a word: the product of its syllables."""
    return from_syllables(w.m, w.syllables)


@lru_cache(maxsize=MAX_RANK)
def _row_offsets(m: int) -> Tuple[int, ...]:
    """For each 0-based k, the offset t - j of gamma's pairs (k, j), j > k,
    0-based: row k of gamma starts at the pair (k, k + 1)."""
    return tuple(k * (2 * m - k - 1) // 2 - k - 1 for k in range(m))


def from_syllables(m: int, syllables) -> MalcevElement:
    """The product of the runs a_k^e, given as (k, e) pairs with k 1-based,
    in one step per run.

    Appending a_k^e moves it left past the a_j blocks with j > k, which adds
    -e * alpha_j to gamma_(k,j); then alpha_k gains e.  The pair (k, j) sits
    at ``_row_offsets(m)[k] + j``, and an alpha_j of 0 adds nothing.
    """
    alpha = [0] * m
    gamma = [0] * (m * (m - 1) // 2)
    offsets = _row_offsets(m)
    for k, e in syllables:
        if not (1 <= k <= m):
            raise ValueError(f"generator index {k} out of range 1..{m}")
        t = offsets[k - 1]
        for j in range(k, m):
            if alpha[j]:
                gamma[t + j] -= e * alpha[j]
        alpha[k - 1] += e
    return MalcevElement(m, tuple(alpha), tuple(gamma))


@lru_cache(maxsize=MAX_RANK)
def coordinate_names(m: int) -> Tuple[str, ...]:
    """The names of the Malcev coordinates of N_{2,m}, alpha then gamma:
    a<i> for each generator, then [a<i>,a<j>] in ``pair_list`` order."""
    return tuple(f"a{i}" for i in range(1, m + 1)) + tuple(f"[a{i},a{j}]" for i, j in pair_list(m))


def format_element(x: MalcevElement) -> str:
    """Render as a1^e ... [ai,aj]^g, omitting zero exponents and exponent 1;
    the identity renders as '1'."""
    parts = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(coordinate_names(x.m), x.alpha + x.gamma) if e]
    return " ".join(parts) if parts else "1"
