"""Small presentations whose answers are derived by hand, not by nilq.

Each family is a function whose docstring derives every value it returns:
the regime ``classify`` assigns today, the invariant factors of the
exponent-sum matrix, which words are trivial in G and which modulo torsion,
and, where the rank is at most m - 2 so that they are decided, the
dimension of the central alpha profiles modulo torsion and which words are
centralizer-small.  Words are written over the presentation's own
generators.

Facts used throughout, for G = N_{2,m} modulo the normal closure of the
relators, with [x, y] = x^-1 y^-1 x y:
- commutators are central and bilinear, so [x^k, y] = [x, y]^k, and
  (xy)^n = x^n y^n [y, x]^C(n, 2);
- the closure is generated, modulo the relators themselves, by the
  brackets [g, a_k] of each relator g with each generator;
- a finite G is all torsion, so every word is trivial modulo torsion;
- h commutes with g modulo torsion iff [h, g] is torsion, and [h, g]
  depends only on the exponent sums of h and g.
"""

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from nilq.presentation import (REGIME_FINITE, REGIME_INCONCLUSIVE, REGIME_UNDECIDABLE,
                               REGIME_VIRTUALLY_ABELIAN)


@dataclass(frozen=True)
class Family:
    name: str
    text: str
    regime: str
    invariant_factors: Tuple[int, ...]
    # word -> (trivial in G, trivial modulo torsion)
    words: Mapping[str, Tuple[bool, bool]]
    # None where the rank is over m - 2 and neither is decided
    center_profile_dim: Optional[int] = None
    c_small: Optional[Mapping[str, bool]] = None


def free_n23() -> Family:
    """N_{2,3}, the free 2-step nilpotent group on three generators.

    No relators: the 0 x 3 exponent-sum matrix has rank 0 = min(r, m), so it
    is of full rank, and r = 0 <= m - 2 puts it in the undecidable regime,
    with no invariant factors.  The closure is trivial, so a word is
    trivial in G iff its Malcev form is the identity: [a1,a2] is not,
    [a1,a2] [a2,a1] is, a1 a2 a1^-1 a2^-1 = [a1^-1, a2^-1] = [a1,a2] is
    not, a3 is not, and the empty word is.  N_{2,m} is torsion-free (a
    power h^n with n != 0 has alpha n alpha(h), and then gamma n gamma(h)
    when alpha(h) = 0), so each word is trivial modulo torsion iff it is
    trivial.

    [h, a_k] has gamma alpha(h) wedge e_k, which is zero for every k only
    when alpha(h) = 0: no nonzero profile is central, and the dimension is
    0, the rank.  h commutes with a1 iff alpha(h) wedge e_1 = 0, i.e.
    alpha(h) is a multiple of e_1, so the centralizer of a1 is <a1> Z(G):
    a1 is c-small, and so is a1 a2 (profiles on the line of (1, 1, 0)).
    [a1,a2] is central, and G is not abelian, so it is not c-small.
    """
    return Family(
        "free N_{2,3}", "3 2\n", REGIME_UNDECIDABLE, (),
        {"[a1,a2]": (False, False), "[a1,a2] [a2,a1]": (True, True),
         "a1 a2 a1^-1 a2^-1": (False, False), "a3": (False, False), "": (True, True)},
        center_profile_dim=0,
        c_small={"a1": True, "a1 a2": True, "[a1,a2]": False},
    )


def cubes() -> Family:
    """<a1, a2 | a1^3, a2^3>, the Heisenberg group over Z/3.

    The exponent-sum matrix is diag(3, 3): rank 2 = r = m, the finite
    regime, invariant factors (3, 3).  The closure holds a1^3, a2^3 and the
    brackets [a1^3, a2] = [a1,a2]^3 and [a2^3, a1] = [a1,a2]^-3, and these
    generate it; a1^3 a2^3 has gamma 0, and a product of closure elements
    changes gamma only by products of their alphas, multiples of 9.  So the
    closure is exactly the Malcev coordinates (3x, 3y | 3z).  [a1,a2] =
    (0, 0 | 1) is nontrivial and [a1,a2]^3 trivial; a1 a2 = (1, 1 | 0) is
    nontrivial, and (a1 a2)^3 = a1^3 a2^3 [a2,a1]^3 = (3, 3 | -3) trivial.
    G has order 27, so every word is trivial modulo torsion.  Its rank 2
    is over m - 2 = 0: no profile is decided.
    """
    return Family(
        "<a, b | a^3, b^3>", "2 2\na1^3\na2^3\n", REGIME_FINITE, (3, 3),
        {"[a1,a2]": (False, True), "[a1,a2]^3": (True, True), "a1": (False, True),
         "a1 a2": (False, True), "a1 a2 a1 a2 a1 a2": (True, True)},
    )


def commutator_fourth_power() -> Family:
    """<a1, a2 | [a1,a2]^4>.

    The relator has exponent sums (0, 0): rank 0 < min(r, m) = 1, so the
    matrix is rank-deficient and the regime INCONCLUSIVE, with no invariant
    factors.  The relator is central, so its normal closure is the cyclic
    group it generates, the coordinates (0, 0 | 4z).  [a1,a2] and
    [a1,a2]^2 are nontrivial in G, [a1,a2]^4 is trivial, and a1 and a1 a2
    are nontrivial, having nonzero alpha.  A power of (x, y | z) has alpha
    n (x, y), so the torsion is exactly the derived subgroup (0, 0 | z),
    cyclic of order 4: [a1,a2] is trivial modulo torsion, a1 and a1 a2 are
    not.

    G0 = G / torsion = Z^2 is abelian: both profiles are central (the
    dimension is 2), and with rank 0 <= m - 2 = 0 this is decided.  A
    central element is c-small iff G0 is abelian, so a1, a1 a2 and [a1,a2]
    are all c-small.
    """
    return Family(
        "<a, b | [a,b]^4>", "2 2\n[a1,a2]^4\n", REGIME_INCONCLUSIVE, (),
        {"[a1,a2]": (False, True), "[a1,a2]^2": (False, True), "[a1,a2]^4": (True, True),
         "a1": (False, False), "a1 a2": (False, False)},
        center_profile_dim=2,
        c_small={"a1": True, "a1 a2": True, "[a1,a2]": True},
    )


def squares() -> Family:
    """<a1, a2, a3 | a1^2, a2^2, a3^2>.

    The exponent-sum matrix is 2 I_3: rank 3 = r = m, the finite regime,
    invariant factors (2, 2, 2).  The closure is generated by the a_i^2,
    whose gammas are 0, and the brackets [a_i^2, a_j] = [a_i,a_j]^2; a
    product of its elements changes gamma by products of even alphas.  So
    the closure is the coordinates (2x | 2z).  [a1,a2] = (0 | 1, 0, 0) is
    nontrivial and [a1,a2]^2 trivial, and [a2,a3] [a1,a3] = (0 | 0, 1, 1)
    is nontrivial.  a1 a2 is nontrivial, and so is (a1 a2)^2 = a1^2 a2^2
    [a2,a1] = (2, 2, 0 | -1, 0, 0): a1 a2 has order 4, as (a1 a2)^4 =
    (4, 4, 0 | -6, 0, 0) is trivial.  G has order 64, so
    every word is trivial modulo torsion.  Its rank 3 is over m - 2 = 1: no
    profile is decided.
    """
    return Family(
        "<a1, a2, a3 | a1^2, a2^2, a3^2>", "3 2\na1^2\na2^2\na3^2\n", REGIME_FINITE, (2, 2, 2),
        {"[a1,a2]": (False, True), "[a1,a2]^2": (True, True), "[a2,a3] [a1,a3]": (False, True),
         "a1 a2": (False, True), "a1 a2 a1 a2": (False, True), "a1 a2 a1 a2 a1 a2 a1 a2": (True, True)},
    )


def cyclic_by_a_product() -> Family:
    """<a1, a2 | a1 a2>, which is Z.

    The exponent-sum matrix is (1 1): rank 1 = min(r, m), and r = m - 1,
    the virtually abelian regime, with invariant factors (1).  Its Smith
    form needs a column operation, so the basis change is not the
    identity and every query runs through it.  The closure holds a1 a2 =
    (1, 1 | 0) and [a1 a2, a1] = [a2, a1] = (0, 0 | -1).  The coordinates
    (x, x | z) are a subgroup, as a product of two of them has gamma
    z + z' - x' x, and they are the kernel of (x, y | z) -> x - y, a
    homomorphism onto Z that kills a1 a2: so the closure is exactly that
    kernel and G is Z, torsion-free, through x - y.  A word is trivial iff
    its exponent sums are equal, and trivial modulo torsion iff trivial:
    [a1,a2], a1^2 a2^2 and a2 a1 are, a1 and a1 a2^-1 (x - y = 1 and 2)
    are not.  Its rank 1 is over m - 2 = 0: no profile is decided.
    """
    return Family(
        "<a1, a2 | a1 a2>", "2 2\na1 a2\n", REGIME_VIRTUALLY_ABELIAN, (1,),
        {"[a1,a2]": (True, True), "a1^2 a2^2": (True, True), "a2 a1": (True, True),
         "a1": (False, False), "a1 a2^-1": (False, False)},
    )


def dihedral_eight() -> Family:
    """<a1, a2 | a1^2, a2^2>, of order 8.

    The exponent-sum matrix is diag(2, 2): rank 2 = r = m, the finite
    regime, invariant factors (2, 2).  As for the cubes, the closure is
    generated by a1^2, a2^2 and [a1^2, a2] = [a1,a2]^2, and the
    coordinates (2x, 2y | 2z) are a subgroup holding them (a product
    changes gamma by an even alpha times an even alpha), which they
    generate: the closure is exactly those, and |G| = 2^3.  [a1,a2] =
    (0, 0 | 1) is nontrivial and [a1,a2]^2 trivial.  By (xy)^n = x^n y^n
    [y, x]^C(n, 2), (a1 a2)^2 = (2, 2 | -1) is nontrivial and (a1 a2)^4 =
    (4, 4 | -6) trivial, so a1 a2 has order 4 (G is the dihedral group of
    order 8).  G is finite, so every word is trivial modulo torsion.  Its
    rank 2 is over m - 2 = 0: no profile is decided.
    """
    return Family(
        "<a1, a2 | a1^2, a2^2>", "2 2\na1^2\na2^2\n", REGIME_FINITE, (2, 2),
        {"[a1,a2]": (False, True), "[a1,a2]^2": (True, True), "a1": (False, True),
         "a1 a2 a1 a2": (False, True), "a1 a2 a1 a2 a1 a2 a1 a2": (True, True)},
    )


def heisenberg_squared() -> Family:
    """H x H, H the Heisenberg group N_{2,2}: m = 4 with relators [a1,a3],
    [a1,a4], [a2,a3] and [a2,a4].

    Every relator has exponent sums 0: the 4 x 4 matrix has rank 0 <
    min(r, m) = 4, so it is rank-deficient and the regime INCONCLUSIVE,
    with no invariant factors.  The relators are central, so the closure is
    the group they generate, the coordinates (0 | g) with g zero at the
    pairs (1,2) and (3,4); G is H x H, on a1, a2 and on a3, a4, and is
    torsion-free, so a word is trivial modulo torsion iff it is trivial.
    [a1,a3] and a1 a3 a1^-1 a3^-1 = [a1^-1, a3^-1] = [a1,a3] are trivial;
    [a1,a2] is not, nor is [a1 a3, a2 a4], which is [a1,a2] [a3,a4] times
    closure elements by bilinearity.

    Rank 0 <= m - 2 = 2 decides profiles.  [h, a_k] has gamma
    alpha(h) wedge e_k, and modulo the closure only the pairs (1,2) and
    (3,4) count: for a profile v, k = 1, 2, 3, 4 give -v2, v1, -v4 and v3
    there, so only v = 0 is central and the dimension is 0.  v commutes
    with a1 iff v2 = 0, a dimension of 3, and with a1 a3 iff v2 = v4 = 0,
    a dimension of 2: neither is the 0 + 1 of a c-small element.
    [a1,a2] is central while G0 = G is not abelian, so it is not c-small.
    """
    return Family(
        "H x H", "4 2\n[a1,a3]\n[a1,a4]\n[a2,a3]\n[a2,a4]\n", REGIME_INCONCLUSIVE, (),
        {"[a1,a3]": (True, True), "a1 a3 a1^-1 a3^-1": (True, True), "[a1,a2]": (False, False),
         "[a1 a3,a2 a4]": (False, False)},
        center_profile_dim=0,
        c_small={"a1": False, "a1 a3": False, "[a1,a2]": False},
    )


FAMILIES = (free_n23(), cubes(), commutator_fourth_power(), squares(), cyclic_by_a_product(),
            dihedral_eight(), heisenberg_squared())
