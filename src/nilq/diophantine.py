"""Equation systems over the integers and over 2-step nilpotent groups.

Ring systems are polynomial equalities between terms, and group systems
equate words over declared variables and constants.  In memory both are the
JSON file format with tuples for lists, so they print as they were read.  A
term is ("const", n), ("var", name), ("+", t1, t2), ("*", t1, t2) or
("-", t); binary subtraction ("-", t1, t2) becomes ("+", t1, ("-", t2)) on
input.  A word is a tuple of factors: (name, exp), or ("comm", u, v) for the
bracket [u, v], with a fourth entry exp when exp != 1.  The name "comm" is
reserved.

The bridge is an equation-definability encoding of the integers inside a
group with two non-commuting centralizer-small constants a, b: writing
c = [a, b], the integer t is carried by c^t, whose defining system is
x = [a, y], [y, b] = 1.  Addition is plain multiplication inside that set,
negation is x1 x2 = 1, and multiplication of exponents is the five-equation
system

    x1 = [x1', b],   [x1', a] = 1,
    x2 = [a, x2'],   [x2', b] = 1,
    x3 = [x1', x2'],

transcribed literally; its sign consistency under this commutator orientation
is validated by the gadget-law check rather than re-derived.  compile_system
performs the standard structural recursion: one group variable per
distinct subterm (shared by structural identity), a domain gadget per ring
variable, constants as explicit powers c^n, one operation gadget per
composite subterm, and an equality per ring equation.

The bounded solvers are testing oracles.  They never claim unsolvability:
"no solution within the box" is all a search can report.  The group solver
backtracks over variables instead of scanning the full product box: at every
level it first checks all fully-determined equations, then assigns variables
forced by an equation of the shape x = (determined word), and only then
scans one variable's coordinate box, smallest coordinates first, visiting
only the alphas that the blindness rule below admits: those equations that
are affine in the variable's alpha are solved together for a lattice coset
(Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
section 2.4), and one walk visits the points of that coset times the gamma
box.  The work limit counts the work done as the plain scan of the box
would, 1 per candidate, not the nominal volume of the whole search (that
of the gadget systems is astronomically larger than the work the scheduler
does).  Which equations a level checks, which variables they force and
which variable it scans depend only on which names are bound, and every
candidate of a scan goes down into the same level below, so the levels of
a search are a fixed chain: ``group_search`` lays it out once for the
pinned names, boxes and mode, and each direction of a verify, or the gadget
law, runs that one chain at every pin.  An equation that forced its
variable earlier in the level is settled: u v^-1 is the identity by
construction, so its check is charged and not evaluated.

In class 2 every group word is a polynomial in its names' coordinates
(Duchin, Liang & Shapiro, "Equations in nilpotent groups", Proc. AMS 2015),
so the solver never walks a word through group arithmetic.  A word over n
sorted names is an element x = (a | g) of N_{2,n}, the k-th name standing for
a_k: its generator factors collect by ``nilpotent2.from_syllables``, and a
bracket [s, t]^e adds e times the gamma of ``commutator(s, t)``, which is
central.  Evaluating the word at env is substituting env for the names, the
class-2 polynomial map of ``nilpotent2``: ``eval_gword`` builds the
``nilpotent2.Polynomial`` of x keyed by the names and evaluates it on env as
it stands, reading only the names the word uses.  The polynomial's
linear terms are a, a_n being n's net exponent outside brackets, and its
quadratic terms are the matrix X of ``nilpotent2`` with diagonal
X[n][n] = -C(a_n, 2).  Hence the blindness rule: a word reads n's gamma iff
a_n != 0, and when a_n = 0 it is affine in alpha_n (every gadget equation
is, in its scanned variable), with a slope read off row and column n of X
(``Polynomial.slope``).  Each equation u = v is compiled once, over its
own names, into the one record the solver reads (``_Equation``): its two
sides are collected once, the polynomial of u v^-1 and, for each forced
assignment x^e = w, that of w^e are built from those two elements, and
each polynomial lists the names it reads (``Polynomial.reads``).  That
record is cached on the equation as written (at most 256 equations), so
the systems ``compile_system`` builds again from one ring system share it.

A prepared search meets the same polynomial on the same values again and
again: across the pins of a verify grid, the gadgets of the unpinned names
see the same values, and the scans meet the same slopes.  Each prepared
search keeps one memo of the evaluations, slopes and slope echelons it has
made, keyed by the values they read, and charges each one as if it were
made afresh; the ambient keeps no state of its own.

The solver decides equality in the G = N_{2,m} / <<R>> that
``presentation.normalize`` presents (the paper's claim 1 reduces systems
over Z to systems over G).  An ``Ambient`` is that normalized presentation
plus the indices of the two constants, and its triviality test is the
presentation's own, ``is_trivial_in_G``: one floor reduction in its
echelon.  N_{2,m} itself is the presentation with no relators
(``FreeNilpotentAmbient``): its echelon has no rows, so the same test
asks that every coordinate be 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .nilpotent2 import (
    MalcevElement,
    Polynomial,
    commutator,
    from_syllables,
    generator,
    identity,
    inverse,
    multiply,
)
from .presentation import NilPresentation, NormalizedPresentation, is_trivial_in_G, normalize
from .words import check_rank, count_over_limit
from .zmatrix import Echelon, solve_affine, solver_form


class SearchSpaceError(Exception):
    """The bounded search exceeded its work limit."""


MAX_FOUND_SOLUTIONS = 100_000
"""Most solutions a find-all search keeps, over the ring or a group: its
limit bounds the work but not the list, so one more raises
SearchSpaceError."""


EVAL_LIMIT = 20_000_000
"""The default work limit of a group search, of verify and of the gadget
law, and of the CLI's ``--limit``.  It takes minutes to run out: find-all
``solve-bounded --box 1`` on x = y z, [x, a] = [b, z^2] over the
presentation ``3 2 / a1^2 / [a2,a3]^3`` ran 213 s on a 2-vCPU VM before it
exited 1 at this limit."""


# ---------------------------------------------------------------------------
# ring terms


Term = tuple


MAX_NESTING = 100
"""Deepest nesting ``term_from_json`` and ``gword_from_json`` accept: a
term's JSON arrays, or a word's brackets.  term_vars, eval_term,
compile_system, gword_names and _element recurse once to four times per
level (a binary - is a + (-b)), so at this depth ``nilq verify`` and
``solve-bounded`` need at most about 410 of Python's default 1000 frames."""


def _is_int(x) -> bool:
    """A JSON integer: an int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_names(data: Mapping, key: str) -> Tuple[str, ...]:
    names = data[key]
    if not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names):
        raise ValueError(f"{key} must be a list of names")
    return tuple(names)


def _json_equations(data: Mapping) -> list:
    eqs = data["equations"]
    if not isinstance(eqs, (list, tuple)) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2 for e in eqs):
        raise ValueError("equations must be a list of [lhs, rhs] pairs")
    return eqs


def term_from_json(node) -> Term:
    """The term a JSON array tree denotes; ValueError past ``MAX_NESTING``."""
    return _term_from_json(node, 1)


def _term_from_json(node, depth: int) -> Term:
    if not isinstance(node, (list, tuple)) or not node:
        raise ValueError(f"bad term node: {node!r}")
    if depth > MAX_NESTING:
        raise ValueError(f"term nested deeper than {MAX_NESTING}")
    head = node[0]
    if head == "const":
        if len(node) != 2 or not _is_int(node[1]):
            raise ValueError(f"bad const: {node!r}")
        return ("const", node[1])
    if head == "var":
        if len(node) != 2 or not isinstance(node[1], str):
            raise ValueError(f"bad var: {node!r}")
        return ("var", node[1])
    if head in ("+", "*"):
        if len(node) != 3:
            raise ValueError(f"{head} takes two arguments: {node!r}")
        return (head, _term_from_json(node[1], depth + 1), _term_from_json(node[2], depth + 1))
    if head == "-":
        if len(node) == 2:
            return ("-", _term_from_json(node[1], depth + 1))
        if len(node) == 3:
            return ("+", _term_from_json(node[1], depth + 1),
                    ("-", _term_from_json(node[2], depth + 1)))
        raise ValueError(f"- takes one or two arguments: {node!r}")
    raise ValueError(f"unknown term head: {head!r}")


def term_vars(t: Term) -> set:
    kind = t[0]
    if kind == "var":
        return {t[1]}
    if kind == "const":
        return set()
    return set().union(*(term_vars(s) for s in t[1:]))


def eval_term(t: Term, assignment: Mapping[str, int]) -> int:
    kind = t[0]
    if kind == "const":
        return t[1]
    if kind == "var":
        return assignment[t[1]]
    if kind == "+":
        return eval_term(t[1], assignment) + eval_term(t[2], assignment)
    if kind == "*":
        return eval_term(t[1], assignment) * eval_term(t[2], assignment)
    if kind == "-":
        return -eval_term(t[1], assignment)
    raise ValueError(f"unknown term kind: {kind!r}")


@dataclass(frozen=True)
class RingSystem:
    variables: Tuple[str, ...]
    equations: Tuple[Tuple[Term, Term], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        declared = set(self.variables)
        for lhs, rhs in self.equations:
            undeclared = (term_vars(lhs) | term_vars(rhs)) - declared
            if undeclared:
                raise ValueError(f"undeclared variables: {sorted(undeclared)}")

    @staticmethod
    def from_jsonable(data: Mapping) -> "RingSystem":
        eqs = tuple((term_from_json(u), term_from_json(v)) for u, v in _json_equations(data))
        return RingSystem(_json_names(data, "variables"), eqs)


def ring_satisfies(S: RingSystem, assignment: Mapping[str, int]) -> bool:
    return all(eval_term(a, assignment) == eval_term(b, assignment) for a, b in S.equations)


def _check_box_size(side: int, n: int, limit: int, what: str) -> None:
    """Raise SearchSpaceError if side^n points exceed limit, decided and
    written by ``words.count_over_limit``."""
    message = count_over_limit(side, n, limit, what)
    if message:
        raise SearchSpaceError(message)


def bounded_solve_ring(S: RingSystem, bound: int, limit: int = 2_000_000, *,
                       find_all: bool = True) -> List[Dict[str, int]]:
    """The integer solutions with every variable in [-bound, bound], in
    the order of the box scan; with find_all=False only the first.

    A box of more than limit assignments raises SearchSpaceError before
    the scan, and so does a find-all search that finds more than
    MAX_FOUND_SOLUTIONS.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_box_size(2 * bound + 1, len(S.variables), limit, "assignments")
    out = []
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(S.variables)):
        assignment = dict(zip(S.variables, combo))
        if ring_satisfies(S, assignment):
            if len(out) == MAX_FOUND_SOLUTIONS:
                raise SearchSpaceError(f"more than {MAX_FOUND_SOLUTIONS} solutions")
            out.append(assignment)
            if not find_all:
                break
    return out


# ---------------------------------------------------------------------------
# group words and systems


GroupWord = tuple


def gen(name: str, exp: int = 1):
    return (name, exp)


def comm(u: GroupWord, v: GroupWord, exp: int = 1):
    return ("comm", u, v) if exp == 1 else ("comm", u, v, exp)


def gword_names(w: GroupWord) -> set:
    names = set()
    for f in w:
        if f[0] == "comm":
            names |= gword_names(f[1]) | gword_names(f[2])
        else:
            names.add(f[0])
    return names


def _element(w: GroupWord, index: Mapping[str, int], n: int) -> MalcevElement:
    """w as an element of N_{2,n}, the name x standing for a_(index[x])."""
    x = from_syllables(n, [(index[f[0]], f[1]) for f in w if f[0] != "comm"])
    brackets = [f for f in w if f[0] == "comm"]
    if not brackets:
        return x
    gamma = list(x.gamma)
    for f in brackets:
        e = f[3] if len(f) == 4 else 1
        c = commutator(_element(f[1], index, n), _element(f[2], index, n))
        gamma = [s + e * v for s, v in zip(gamma, c.gamma)]
    return MalcevElement(n, x.alpha, tuple(gamma))


def _name_index(names) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """The names sorted, and each name's 1-based generator index."""
    names = tuple(sorted(names))
    return names, {x: k for k, x in enumerate(names, 1)}


def eval_gword(w: GroupWord, env: Mapping[str, MalcevElement], m: int) -> MalcevElement:
    """The value of w: its class-2 polynomial, keyed by w's names, evaluated
    on env."""
    names, index = _name_index(gword_names(w))
    return Polynomial(_element(w, index, len(names)), names)(env, m)


def gword_from_json(nodes) -> GroupWord:
    """The word a JSON factor list denotes; ValueError past ``MAX_NESTING``."""
    return _gword_from_json(nodes, 0)


def _gword_from_json(nodes, depth: int) -> GroupWord:
    if depth > MAX_NESTING:
        raise ValueError(f"brackets nested deeper than {MAX_NESTING}")
    factors = []
    for node in nodes:
        if not isinstance(node, (list, tuple)) or not node:
            raise ValueError(f"bad word factor: {node!r}")
        if node[0] == "comm":
            if len(node) not in (3, 4) or not all(map(_is_int, node[3:])):
                raise ValueError(f"bad comm node: {node!r}")
            u = _gword_from_json(node[1], depth + 1)
            v = _gword_from_json(node[2], depth + 1)
            factors.append(comm(u, v, *node[3:]))
        else:
            if len(node) != 2 or not isinstance(node[0], str) or not _is_int(node[1]):
                raise ValueError(f"bad generator factor: {node!r}")
            factors.append(gen(node[0], node[1]))
    return tuple(factors)


@dataclass(frozen=True)
class GroupSystem:
    variables: Tuple[str, ...]
    constants: Tuple[str, ...]
    equations: Tuple[Tuple[GroupWord, GroupWord], ...]

    def __post_init__(self):
        names = set(self.variables) | set(self.constants)
        if len(names) != len(self.variables) + len(self.constants):
            raise ValueError("name collision between variables and constants")
        if "comm" in names:
            raise ValueError("the name 'comm' is reserved for brackets")
        for lhs, rhs in self.equations:
            undeclared = (gword_names(lhs) | gword_names(rhs)) - names
            if undeclared:
                raise ValueError(f"undeclared names: {sorted(undeclared)}")

    @staticmethod
    def from_jsonable(data: Mapping) -> "GroupSystem":
        eqs = tuple((gword_from_json(u), gword_from_json(v)) for u, v in _json_equations(data))
        variables, constants = _json_names(data, "variables"), _json_names(data, "constants")
        return GroupSystem(variables, constants, eqs)

    # the solver's per-system analysis, computed on first use
    @cached_property
    def _shapes(self) -> Tuple["_Equation", ...]:
        return tuple(_compile_equation(lhs, rhs) for lhs, rhs in self.equations)


# ---------------------------------------------------------------------------
# ambients


class Ambient:
    """The group the solver works in: the G = N_{2,m} / <<R>> that a
    normalized presentation presents, with constants a = a_a and b = a_b
    (generator indices).

    ``coordinates`` and ``lattice`` are the presentation's own columns and
    echelon: an element is trivial iff its coordinates there lie in the
    lattice, so ``is_trivial`` is ``presentation.is_trivial_in_G`` for every
    ambient, the free one, whose lattice has no rows, included.
    ``_admissible_coset`` solves that test for alpha with
    ``zmatrix.solve_affine``, the lattice's rows as its L, over the blocks
    of coordinates that the rows join, found once here (``_lattice_blocks``).
    ``FreeNilpotentAmbient`` and ``QuotientAmbient`` build the two kinds.
    """

    coordinates = property(lambda self: self.presentation.coordinates)
    lattice = property(lambda self: self.presentation.echelon)

    def __init__(self, presentation: NormalizedPresentation, a: int, b: int):
        if presentation.m < 2:
            raise ValueError("need m >= 2 for non-commuting constants")
        self.presentation, self.m, self.a, self.b = presentation, presentation.m, a, b
        self._blocks = _lattice_blocks(len(self.coordinates), self.lattice)

    def constants(self) -> Dict[str, MalcevElement]:
        return {"a": generator(self.m, self.a), "b": generator(self.m, self.b)}

    def is_trivial(self, el: MalcevElement) -> bool:
        return is_trivial_in_G(el, self.presentation)


@lru_cache(maxsize=None)
def FreeNilpotentAmbient(m: int) -> Ambient:
    """Free 2-step nilpotent group of rank m, the presentation with no
    relators; constants a = a_1, b = a_2.  Built once per m."""
    check_rank(m)
    if m < 2:  # before NilPresentation refuses m <= 0 in its own words
        raise ValueError("need m >= 2 for non-commuting constants")
    return Ambient(normalize(NilPresentation(m, 2, ())), 1, 2)


def QuotientAmbient(np_: NormalizedPresentation) -> Ambient:
    """Quotient of N_{2,m} by a normalized presentation of any rank.

    Constants pick the last two generators: in the regime r <= m - 2 they are
    asymptotically almost surely centralizer-small modulo torsion, which is
    what the encoding needs.
    """
    return Ambient(np_, np_.m - 1, np_.m)


def ambient_constants(S: GroupSystem, ambient: Ambient) -> Dict[str, MalcevElement]:
    """A fresh dict of the ambient's constants; ValueError naming those
    constants of S that the ambient does not bind."""
    consts = ambient.constants()
    missing = [c for c in S.constants if c not in consts]
    if missing:
        raise ValueError(f"constants not in the ambient: {missing}")
    return consts


def _satisfied(S: GroupSystem, env: Mapping[str, MalcevElement], ambient: Ambient) -> bool:
    """Every equation of S holds in the ambient under env."""
    return all(ambient.is_trivial(shape.residual(env, ambient.m)) for shape in S._shapes)


# ---------------------------------------------------------------------------
# e-definition templates


@dataclass(frozen=True)
class Template:
    """Equation-system fragment with named slots and private auxiliaries."""

    slots: Tuple[str, ...]
    aux: Tuple[str, ...]
    equations: Tuple[Tuple[GroupWord, GroupWord], ...]


def _rename_word(w: GroupWord, mapping: Mapping[str, str]) -> GroupWord:
    return tuple(
        ("comm", _rename_word(f[1], mapping), _rename_word(f[2], mapping)) + f[3:]
        if f[0] == "comm"
        else (mapping.get(f[0], f[0]), f[1])
        for f in w
    )


def instantiate_template(
    tpl: Template, mapping: Mapping[str, str]
) -> Tuple[Tuple[GroupWord, GroupWord], ...]:
    """Rename slots and auxiliaries; the mapping must cover both (no capture)."""
    for name in tpl.slots + tpl.aux:
        if name not in mapping:
            raise ValueError(f"mapping misses template name {name!r}")
    return tuple(
        (_rename_word(a, mapping), _rename_word(b, mapping)) for a, b in tpl.equations
    )


@dataclass(frozen=True)
class EDefinition:
    """Encoding of the ring of integers in a group with constants.

    The integer t is encoded by one group element, c^t for c = [a, b].
    """

    constants: Tuple[str, ...]
    domain: Template
    add: Template
    neg: Template
    mul: Template
    equal: Template

    def constant_word(self, n: int) -> GroupWord:
        if n == 0:
            return ()
        return (comm((gen("a"),), (gen("b"),), n),)


def z_in_g_templates() -> EDefinition:
    a = (gen("a"),)
    b = (gen("b"),)
    x = (gen("x"),)
    y = (gen("y"),)
    one: GroupWord = ()
    domain = Template(
        slots=("x",),
        aux=("y",),
        equations=((x, (comm(a, y),)), ((comm(y, b),), one)),
    )
    add = Template(
        slots=("x1", "x2", "x3"),
        aux=(),
        equations=(((gen("x1"), gen("x2")), (gen("x3"),)),),
    )
    neg = Template(
        slots=("x1", "x2"),
        aux=(),
        equations=(((gen("x1"), gen("x2")), one),),
    )
    p1 = (gen("p1"),)
    p2 = (gen("p2"),)
    mul = Template(
        slots=("x1", "x2", "x3"),
        aux=("p1", "p2"),
        equations=(
            ((gen("x1"),), (comm(p1, b),)),
            ((comm(p1, a),), one),
            ((gen("x2"),), (comm(a, p2),)),
            ((comm(p2, b),), one),
            ((gen("x3"),), (comm(p1, p2),)),
        ),
    )
    equal = Template(
        slots=("x1", "x2"),
        aux=(),
        equations=(((gen("x1"),), (gen("x2"),)),),
    )
    return EDefinition(
        constants=("a", "b"),
        domain=domain,
        add=add,
        neg=neg,
        mul=mul,
        equal=equal,
    )


# ---------------------------------------------------------------------------
# compiler


@dataclass(frozen=True)
class CompiledSystem:
    system: GroupSystem
    term_names: Tuple[Tuple[Term, str], ...]

    def ring_variable_names(self) -> Dict[str, str]:
        return {t[1]: name for t, name in self.term_names if t[0] == "var"}


def compile_system(edef: EDefinition, S: RingSystem) -> CompiledSystem:
    """Structural-recursion compiler from a ring system to a group system.

    One group variable per distinct subterm (structural identity), a domain
    gadget per ring variable, constants as explicit c^n words, operation
    gadgets joining argument variables to result variables, and the equality
    template at every ring-equation root.  Fresh names come from
    deterministic counters, so identical inputs compile to syntactically
    identical outputs.
    """
    term_name: Dict[Term, str] = {}
    variables: List[str] = []
    equations: List[Tuple[GroupWord, GroupWord]] = []
    counters = {"t": 0, "w": 0}
    gadgets = {"var": edef.domain, "+": edef.add, "-": edef.neg, "*": edef.mul}

    def fresh(prefix: str) -> str:
        name = f"{prefix}{counters[prefix]}"
        counters[prefix] += 1
        return name

    def emit(tpl: Template, slot_names: Sequence[str]):
        mapping = dict(zip(tpl.slots, slot_names))
        for aux in tpl.aux:
            aux_name = fresh("w")
            mapping[aux] = aux_name
            variables.append(aux_name)
        equations.extend(instantiate_template(tpl, mapping))

    def visit(t: Term) -> str:
        if t in term_name:
            return term_name[t]
        kind, args = t[0], []
        if kind == "var":
            name = "v_" + t[1]
        elif kind == "const":
            name = fresh("t")
        elif kind in gadgets:
            args = [visit(s) for s in t[1:]]
            name = fresh("t")
        else:
            raise ValueError(f"unknown term kind {kind!r}")
        term_name[t] = name
        variables.append(name)
        if kind == "const":
            equations.append(((gen(name),), edef.constant_word(t[1])))
        else:
            emit(gadgets[kind], (*args, name))
        return name

    for name in S.variables:
        visit(("var", name))
    for lhs, rhs in S.equations:
        ln = visit(lhs)
        rn = visit(rhs)
        emit(edef.equal, (ln, rn))

    system = GroupSystem(tuple(variables), edef.constants, tuple(equations))
    return CompiledSystem(system=system, term_names=tuple(term_name.items()))


# ---------------------------------------------------------------------------
# bounded group solver


def _coset_walk(point: Sequence[int], kernel: Sequence, bounds: Sequence[int]):
    """The points of point + span(kernel) inside the box with half-width
    bounds[j] in coordinate j, lazily, in the order of the plain box scan:
    0, 1, -1, 2, -2, ... in each coordinate, the first coordinate slowest.

    The kernel is an echelon basis: ``kernel[j]`` is None, or the entries
    from column j on of the basis row whose pivot d > 0 is in column j.  A
    column with a pivot takes the values of one class mod d, and any other
    column the one value the columns before it leave.  Yields (rank, point),
    rank being the point's place in the box scan, the mixed-radix number
    with digits idx(x_j) < 2 bounds[j] + 1, idx(v) = 2v - 1 for v > 0 and
    -2v otherwise; and (end, None) on leaving a stretch of ranks below end
    that holds no point.  Each yield passes at least one rank, so a caller
    that charges the ranks it passes bounds the walk.  The walk keeps one
    current point and one frame per pivot column, however large the box.
    """
    dim, sides = len(point), [2 * b + 1 for b in bounds]
    cur = list(point)
    # per pivot column on the path: [column, rank before it, ranks per value,
    # next member v >= 0, next member -s < 0 as s, shift applied, none yet]
    frames: list = []
    col, rank, span = 0, 0, math.prod(sides)  # the prefix cur[:col] owns [rank, rank + span)
    while True:
        while col < dim and kernel[col] is None and -bounds[col] <= cur[col] <= bounds[col]:
            span //= sides[col]
            rank += (2 * cur[col] - 1 if cur[col] > 0 else -2 * cur[col]) * span
            col += 1
        if col == dim:
            yield rank, tuple(cur)
        elif kernel[col] is None:
            yield rank + span, None
        else:
            pos = cur[col] % kernel[col][0]
            frames.append([col, rank, span // sides[col], pos, kernel[col][0] - pos, 0, True])
        # the next value of the deepest pivot column that has one left; the
        # class merges its members v >= 0 and -s < 0 by idx, v first iff
        # 2v - 1 < 2s, that is v <= s
        while frames:
            frame = frames[-1]
            col, rank, span, pos, neg, shift, empty = frame
            tail = kernel[col]
            d = tail[0]
            if pos <= neg:
                v, frame[3] = pos, pos + d
            else:
                v, frame[4] = -neg, neg + d
            # move cur[col] to v by a multiple of the row, or, with no member
            # left in the box, back to where the frame found it
            found = abs(v) <= bounds[col]
            c = (v - cur[col]) // d if found else -shift
            if c:
                for i, b in enumerate(tail, col):
                    cur[i] += c * b
            if found:
                frame[5:] = shift + c, False
                rank += (2 * v - 1 if v > 0 else -2 * v) * span
                col += 1
                break
            frames.pop()
            if empty:
                yield rank + span * sides[col], None
        else:
            return


def _lattice_blocks(width: int, lattice: Echelon) -> Tuple[int, ...]:
    """Each coordinate's block, by union-find: two coordinates share a
    block when some lattice row is nonzero at both, so every row lies
    within one block."""
    root = list(range(width))

    def find(j):
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for row, pivot in zip(lattice.rows, lattice.pivots):
        for j in itertools.compress(range(pivot + 1, width), row[pivot + 1 :]):
            root[find(j)] = find(pivot)
    return tuple(find(j) for j in range(width))


def _slope_echelon(slopes, ambient: Ambient):
    """The ``zmatrix.solver_form`` that solves affine forms with these
    slopes in the ambient's lattice (see ``_admissible_coset``).

    The lattice's rows split its coordinates into blocks (each d_pq e_pq
    row of a torsion pair is a block of its own), which the ambient finds
    when it is built, and the form takes, per affine form, only the blocks
    that its slope reaches: S has a row per alpha coordinate k, L_k at each
    form's reached coordinates, and L has the lattice's rows in the reached
    blocks, padded to S's length.
    Returns the (form, coordinate) pairs of its columns, each form's set of
    positions in those blocks, and the solver form, or None if no slope
    reaches any coordinate.
    """
    m, coordinates, lattice, block = ambient.m, ambient.coordinates, ambient.lattice, ambient._blocks
    width = len(coordinates)
    columns, inside, lattice_rows = [], [], []
    slope_rows: List[list] = [[] for _ in range(m)]
    for f, slope in enumerate(slopes):
        slope_at = ((0,) * m,) * m + tuple(zip(*slope))  # each coordinate's column
        hit = {block[j] for j, c in enumerate(coordinates) if any(slope_at[c])}
        reached = [j for j in range(width) if block[j] in hit]
        for k in range(m):
            slope_rows[k] += [slope_at[coordinates[j]][k] for j in reached]
        for row, pivot in zip(lattice.rows, lattice.pivots):
            if block[pivot] in hit:
                lattice_rows.append((len(columns), [row[j] for j in reached]))
        columns += [(f, coordinates[j]) for j in reached]
        inside.append(frozenset(reached))
    if not columns:
        return (), tuple(inside), None
    padded = ([0] * offset + part + [0] * (len(columns) - offset - len(part))
              for offset, part in lattice_rows)
    return tuple(columns), tuple(inside), solver_form(slope_rows, padded)


def _admissible_coset(forms, slope_echelon, ambient: Ambient):
    """The alphas at which every affine form is trivial in the ambient, as
    (particular alpha, kernel), or None if there are none; ``kernel`` as
    ``_coset_walk`` takes it, and ``slope_echelon`` is ``_slope_echelon``
    of the forms' slopes.  This is ``Ambient.is_trivial`` solved for
    alpha: a form is trivial iff its coordinates at ``coordinates`` lie in
    ``lattice``.

    A form (a0, g0, L) is the element with alpha a0 and gamma
    g0 + sum_k alpha[k] L_k.  So alpha solves every form at once iff
    alpha S + b lies in the span of the lattice's rows, with S and those
    rows as ``_slope_echelon`` lays them out and b the a0 + g0 at its
    columns: ``zmatrix.solve_affine`` gives alpha and the kernel.
    Coordinates that no slope reaches, even through the lattice's rows, are
    left out of the Hermite form: there a0 + g0 must lie in the lattice by
    itself.

    The Hermite form depends on the slopes alone, not on the constant
    parts, so a caller that meets the same slopes again hands in the one it
    has built (``group_search`` keeps them in its memo).
    """
    m = ambient.m
    columns, inside, echelon = slope_echelon
    full = [a0 + g0 for a0, g0, _ in forms]
    for values, reached in zip(full, inside):
        rest = [0 if j in reached else values[c] for j, c in enumerate(ambient.coordinates)]
        if not ambient.lattice.in_lattice(rest):
            return None
    if echelon is None:
        return (0,) * m, ((1,),) * m
    return solve_affine(echelon, len(columns), [full[f][c] for f, c in columns])


def _candidates(forms, slope_echelon, ambient: Ambient, bounds: Sequence[int], spend):
    """The candidate elements of the box with half-width bounds[j] in
    coordinate j, alpha then gamma, whose alpha every affine form admits,
    lazily, in the plain scan's order: one walk of the admissible alpha
    coset (``_admissible_coset``, with the ``_slope_echelon`` of the forms'
    slopes) times the gamma box.

    Charges 1 for every point of the box through ``spend``: the points
    before a candidate with the candidate, just before it is yielded, a
    stretch with none as the walk passes it, and the rest once the walk
    runs out.  A caller that stops early charges no more.
    """
    m, n = ambient.m, len(bounds) - ambient.m
    coset = _admissible_coset(forms, slope_echelon, ambient)
    passed = 0
    if coset is not None:
        alpha, kernel = coset
        for rank, point in _coset_walk(alpha + (0,) * n, tuple(kernel) + ((1,),) * n, bounds):
            found = point is not None
            spend(rank + found - passed)
            passed = rank + found
            if found:
                yield MalcevElement(m, point[:m], point[m:])
    spend(math.prod(2 * b + 1 for b in bounds) - passed)


class _Equation(NamedTuple):
    """One equation u = v as the solver reads it, compiled over its own
    sorted names.

    ``names``: every name in it, constants included.  ``residual``: the
    polynomial of u v^-1.  ``reads_gamma``: the names with a nonzero net
    exponent in the residual, the only ones whose gamma coordinates it
    reads.  ``forced``: one (x, polynomial of w^e, names of w) per side that
    is a single factor x^e, e = +-1, with w the other side; once w is
    determined, x = w^e.
    """

    names: frozenset
    residual: Polynomial
    reads_gamma: frozenset
    forced: Tuple[Tuple[str, Polynomial, frozenset], ...]


@lru_cache(maxsize=256)
def _compile_equation(lhs: GroupWord, rhs: GroupWord) -> _Equation:
    """u = v compiled as written.  ``compile_system`` names its fresh
    variables deterministically, so the systems it builds from one ring
    system repeat their equations and share one compile."""
    names, index = _name_index(gword_names(lhs) | gword_names(rhs))
    u, v = (_element(w, index, len(names)) for w in (lhs, rhs))
    residual = Polynomial(multiply(u, inverse(v)), names)
    forced = []
    for a, b, w in ((lhs, rhs, v), (rhs, lhs, u)):
        if len(a) == 1 and a[0][0] != "comm" and abs(a[0][1]) == 1:
            form = Polynomial(w if a[0][1] == 1 else inverse(w), names)
            forced.append((a[0][0], form, frozenset(gword_names(b))))
    return _Equation(frozenset(names), residual, frozenset(n for n, _ in residual.linear),
                     tuple(forced))


def _element_in_box(el: MalcevElement, bound: int) -> bool:
    """Every coordinate of el within [-bound, bound]; alpha is never empty."""
    return max(map(abs, el.alpha + el.gamma)) <= bound


@dataclass(frozen=True)
class _Level:
    """One level of a prepared group search.

    ``steps`` in order, each (polynomial, name): (residual, None) checks an
    equation, (None, None) charges the check of an equation settled by a
    forced value earlier in the level (its u v^-1 is the identity by
    construction), and (w^e, x) forces x := w^e.  Then, if ``target`` is
    None, every variable is bound; otherwise ``target`` is scanned over the
    box with half-widths ``bounds``, alpha then gamma (gamma 0 when the scan
    is blind), solving the equations ``affine`` (indices into
    ``GroupSystem._shapes``) as affine forms, which the levels below do not
    check again.
    """

    steps: Tuple[Tuple[Optional[Polynomial], Optional[str]], ...]
    target: Optional[str]
    bounds: Tuple[int, ...]
    affine: Tuple[int, ...]


def _levels(S: GroupSystem, bound: Iterable[str], boxes: Mapping[str, int], find_all: bool,
            m: int) -> List[_Level]:
    """The levels of a search of S that starts with the names in bound
    assigned, top down: each propagates, then chooses the variable to scan,
    and every candidate of that scan goes down into the next level."""
    shapes = S._shapes
    bound = set(bound)
    n_pairs = m * (m - 1) // 2
    rem = list(range(len(S.equations)))
    levels = []
    while True:
        steps: list = []
        settled = set()
        # propagate: check determined equations, assign forced variables
        progress = True
        while progress:
            progress = False
            next_rem = []
            for idx in rem:
                shape = shapes[idx]
                if shape.names <= bound:
                    steps.append((None if idx in settled else shape.residual, None))
                    progress = True
                    continue
                for name, form, w_names in shape.forced:
                    if name not in bound and w_names <= bound:
                        steps.append((form, name))
                        bound.add(name)
                        settled.add(idx)
                        progress = True
                        break
                next_rem.append(idx)
            rem = next_rem
        free = [v for v in S.variables if v not in bound]
        if not free:
            levels.append(_Level(tuple(steps), None, (), ()))
            return levels
        # scan one variable from an equation with the fewest unbound names;
        # among those prefer the variable shared by the most remaining
        # equations, so contradictions surface before unrelated auxiliaries
        # get enumerated.  Variables in no equation are scanned last.
        best = None
        candidates: set = set()
        occurrences: Dict[str, int] = {}
        for idx in rem:
            missing = shapes[idx].names - bound
            for v in missing:
                occurrences[v] = occurrences.get(v, 0) + 1
            if best is None or len(missing) < best:
                best = len(missing)
                candidates = set(missing)
            elif len(missing) == best:
                candidates |= missing
        target = min(candidates, key=lambda v: (-occurrences[v], v)) if candidates else free[0]
        # existence mode: scan gamma = 0 only where nothing reads it
        blind = not find_all and all(target not in shapes[idx].reads_gamma for idx in rem)
        box = boxes[target]
        # affine in target: its only unbound name, and blind to its gamma.
        # The forms see only alpha, so the walk visits only the alphas they
        # admit.  They pay when (2 box + 1)^m alpha values outnumber the
        # m + 1 evaluations each is charged: as m >= 2, when box > 0.
        affine = [idx for idx in rem if box and target not in shapes[idx].reads_gamma
                  and shapes[idx].names - bound == {target}]
        levels.append(_Level(tuple(steps), target, (box,) * m + (0 if blind else box,) * n_pairs,
                             tuple(affine)))
        rem = [idx for idx in rem if idx not in affine]
        bound.add(target)


_MEMO_CAP = 1024
"""Most entries a prepared search's memo of evaluations, slopes and slope
echelons holds before it is emptied (see ``group_search``).  The compiler
benchmark's searches stay under 650 entries, and verify on x*y = z at box
15 would reach 1226."""


def group_search(
    S: GroupSystem,
    ambient: Ambient,
    bound: Union[int, Mapping[str, int]],
    pinned_names: Iterable[str],
    *,
    find_all: bool,
    eval_limit: int,
) -> Callable[[Mapping[str, MalcevElement]], List[Dict[str, MalcevElement]]]:
    """``bounded_solve_group`` prepared once for pins of the given names:
    ``group_search(S, ambient, bound, pinned, find_all=f, eval_limit=n)(pinned)``
    is ``bounded_solve_group(S, ambient, bound, pinned=pinned, find_all=f,
    eval_limit=n)``, and one prepared search serves any number of pins.

    The bound, the constants, the pinned names and the boxes are checked
    here (ValueError, as ``bounded_solve_group`` raises it), and the levels
    of the search are laid out (``_levels``).  The returned function
    raises ValueError unless its pins are of exactly the prepared names and
    every value has rank m, and gives each search a budget of eval_limit of
    its own.

    One memo serves every pin: an evaluation is keyed by its polynomial and
    the values of the names that polynomial reads (``Polynomial.reads``,
    listed once, when the polynomial is built), a slope by its polynomial,
    its target and the alphas of the other names it reads, and the Hermite
    form of a scan's affine forms (``_slope_echelon``) by their slopes, so a
    hit is the value the call would return.  The memo is emptied when it holds
    ``_MEMO_CAP`` entries, which bounds its memory however many pins it
    serves.  It saves arithmetic only: every charge is made where it was,
    hit or miss, so the solutions, the errors and the smallest passing
    eval_limit are those of a search without it.
    """
    m = ambient.m
    if isinstance(bound, int):
        bound = {"*": bound}
    if any(b < 0 for b in bound.values()):
        raise ValueError("bound must be nonnegative")
    consts = ambient_constants(S, ambient)
    names = frozenset(pinned_names)
    strays = sorted(names - set(S.variables))
    if strays:
        raise ValueError(f"pinned name {strays[0]!r} is not a variable")
    boxes = {}
    for v in S.variables:
        if v in names:
            continue
        bv = bound.get(v, bound.get("*"))
        if bv is None:
            raise ValueError(f"no box for variable {v!r}")
        boxes[v] = bv
    levels = _levels(S, set(consts) | names, boxes, find_all, m)
    shapes = S._shapes
    is_trivial = ambient.is_trivial
    # the evaluations, slopes and slope echelons made at any pin; as they
    # are all nonempty tuples, a miss is the only falsy get
    memo: dict = {}

    def remember(key, value):
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = value
        return value

    def search(pinned: Mapping[str, MalcevElement]) -> List[Dict[str, MalcevElement]]:
        if pinned.keys() != names:
            raise ValueError(f"pinned names {sorted(pinned)} are not the prepared {sorted(names)}")
        for name, val in pinned.items():
            if val.m != m:
                raise ValueError(f"pinned value of {name!r} has rank {val.m}, not {m}")
        env = {**consts, **pinned}
        budget = eval_limit
        solutions: List[Dict[str, MalcevElement]] = []

        def spend(k: int = 1):
            nonlocal budget
            budget -= k
            if budget < 0:
                raise SearchSpaceError("evaluation limit exceeded")

        def evaluate(poly: Polynomial) -> MalcevElement:
            key = (poly, tuple(map(env.__getitem__, poly.reads)))
            return memo.get(key) or remember(key, poly(env, m))

        def affine_forms(target: str, affine: Tuple[int, ...]):
            """(alpha, g0, L) of each equation in affine.  One evaluation at
            target = 1 gives alpha and g0; L is read off the polynomial,
            charged as the m probes target = a_k that would give it."""
            forms = []
            for idx in affine:
                residual = shapes[idx].residual
                env[target] = identity(m)
                spend()
                r0 = evaluate(residual)
                del env[target]
                spend(m)
                key = (residual, target, tuple(env[n].alpha for n in residual.reads if n != target))
                slope = memo.get(key) or remember(key, residual.slope(target, env, m))
                forms.append((r0.alpha, r0.gamma, slope))
            return forms

        def recurse(depth: int) -> bool:
            """Returns True if the search should stop (find_all=False and found)."""
            level = levels[depth]
            assigned_here: List[str] = []
            try:
                for form, name in level.steps:
                    if name is None:
                        spend()
                        if form is not None and not is_trivial(evaluate(form)):
                            return False
                        continue
                    val = evaluate(form)
                    spend()
                    if not _element_in_box(val, boxes[name]):
                        return False
                    env[name] = val
                    assigned_here.append(name)
                target = level.target
                if target is None:
                    if len(solutions) == MAX_FOUND_SOLUTIONS:
                        raise SearchSpaceError(f"more than {MAX_FOUND_SOLUTIONS} solutions")
                    solutions.append({v: env[v] for v in S.variables})
                    return not find_all
                forms = affine_forms(target, level.affine)
                slopes = tuple(slope for _, _, slope in forms)
                built = memo.get(slopes) or remember(slopes, _slope_echelon(slopes, ambient))
                for value in _candidates(forms, built, ambient, level.bounds, spend):
                    env[target] = value
                    stop = recurse(depth + 1)
                    del env[target]
                    if stop:
                        return True
                return False
            finally:
                for name in assigned_here:
                    del env[name]

        recurse(0)
        return solutions

    return search


def bounded_solve_group(
    S: GroupSystem,
    ambient: Ambient,
    bound: Union[int, Mapping[str, int]],
    *,
    pinned: Optional[Mapping[str, MalcevElement]] = None,
    find_all: bool = True,
    eval_limit: int = EVAL_LIMIT,
) -> List[Dict[str, MalcevElement]]:
    """Solutions with every variable's Malcev coordinates inside its box.

    ``bound`` is one box half-width for all variables or a per-variable
    mapping (key "*" as default); a negative half-width raises ValueError.
    ``pinned`` pre-assigns variables (their values need not lie in any box,
    and they need no box).  With find_all=False the search stops at the
    first solution.  An equation u = v holds when u v^-1 is trivial in the
    ambient, which must bind every constant of S (ValueError otherwise).
    Each equation is evaluated through its compiled Polynomial, so the search
    runs no multiply, inverse, power or commutator, and an evaluation,
    slope or slope echelon that the search has made before on the same
    values is read from its memo (``group_search``), charged as before.

    Each level of the search checks the equations it can and forces the
    variables it can, in order, and then scans one variable (``_Level``).
    None of it depends on values, only on the names bound, and every
    candidate of a scan goes down into the same level below, so the levels
    of a search are a fixed chain, laid out once before it starts
    (``group_search``, which lays it out once for many pins of the same
    names).  A check of an equation that forced its variable earlier in the
    level is charged 1 and not evaluated: x := w^e makes u v^-1 the
    identity, which is trivial in every ambient.

    Before scanning a variable y, each remaining equation whose only
    unassigned name is y, with net exponent 0 in u v^-1, is affine in
    alpha_y by the blindness rule of the module docstring: u v^-1 has a
    fixed alpha part a0 and gamma part g0 + sum_k alpha_y[k] L_k.  When y's
    box has more than m + 1 alpha values, one evaluation at y = 1 gives a0
    and g0, and ``Polynomial.slope`` reads L off the polynomial.  The alphas
    whose forms are all trivial (``Ambient.is_trivial``, a test of their
    coordinates against the ambient's lattice) are a coset of a lattice in
    Z^m.  One Hermite form of the forms' slopes (``_slope_echelon``, made
    once per slopes in the memo) solves for it, and one walk
    (``_coset_walk``) visits the points of that coset times the gamma box:
    an empty coset ends the scan at once, and every candidate it skips is
    one the plain scan would reject.  An admitted alpha settles those
    equations, which the search below y does not check again.  The
    candidate order, the solutions and their order are those of the plain
    scan.  With find_all=False, a y whose net exponent is 0 in every
    remaining u v^-1 is scanned at gamma = 0 only: nothing below reads y's
    gamma, and 0 is the first gamma the full scan tries, so the first
    solution is the same.

    Known gap: an equation x^e = w (e = +-1, on either side) forces x to the
    one element w^e evaluates to in N, and the box is checked against that
    representative only.  In a QuotientAmbient other representatives of the
    same class may lie in the box and be missed: over <a1, a2 | a1^2>, with
    a = a1, the system x = a^2 has no solution within box 1, although x = 1
    is one, and the same equation written x a^-2 = 1 finds it.  The free
    ambient is unaffected (there w has one representative).

    ``eval_limit`` counts word evaluations and candidate elements, not box
    volume, exactly as the plain probe-and-test scan would: equation checks,
    forced values, m + 1 per affine form (its evaluation at y = 1 and the m
    probes y = a_k its slope stands for), and 1 per candidate of the box,
    whether the walk yields it or skips it.  The skipped ones are charged
    by arithmetic, in one sum before the next yielded one, as the walk
    passes a stretch with none, and after the last, so an unbounded walk
    still stops at the limit.  Candidates are generated, never listed, so
    the limit bounds memory too.  Exceeding it raises SearchSpaceError, and
    so does a find-all search that finds more than MAX_FOUND_SOLUTIONS.
    """
    pinned = pinned or {}
    return group_search(S, ambient, bound, pinned, find_all=find_all, eval_limit=eval_limit)(pinned)


# ---------------------------------------------------------------------------
# correspondence verification


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of the two-directional compiler check.

    missing_extensions: ring solutions (within B_ring) whose mapped tuples
    admit no auxiliary witness within the group box.  bad_projections:
    ring-variable exponent tuples that the compiled system accepts within the
    group box but the ring system rejects.  Both lists must stay empty, and
    ok says whether they are; the bounded searches never prove
    unsolvability, so nothing beyond the boxes is claimed.
    """

    ring_solutions: int
    missing_extensions: Tuple[dict, ...]
    grid_points: int
    solvable_points: int
    bad_projections: Tuple[dict, ...]
    ok: bool


def _c_powers(consts: Dict[str, MalcevElement]):
    """t -> c^t for c = [a, b], a and b the ambient's constants.  In class 2,
    c is central with zero alpha, so c^t is (0 | t gamma(c))."""
    c = commutator(consts["a"], consts["b"])
    return lambda t: MalcevElement(c.m, (0,) * c.m, tuple(t * g for g in c.gamma))


def verify_correspondence(
    S: RingSystem,
    edef: EDefinition,
    ambient: Ambient,
    bound_ring: int,
    bound_group: int,
    *,
    eval_limit: int = EVAL_LIMIT,
) -> CorrespondenceReport:
    """Two-directional bounded check of the ring-to-group compilation.

    Direction (i): every ring solution within bound_ring, with every subterm
    tuple pinned to c^(subterm value), extends to a full group solution by
    auxiliary search within bound_group; the found assignment is re-verified
    by exact substitution.  Direction (ii): for every ring-variable exponent
    tuple in [-bound_group, bound_group]^k the compiled system is searched
    with exactly the ring-variable tuples pinned; solvable tuples must
    satisfy the ring system.  Because the domain gadget confines tuple
    variables to powers of c whose exponent is a gamma coordinate (bounded by
    the box), this grid covers every group solution within bound_group.

    A negative bound raises ValueError.  A grid of more than eval_limit points
    raises SearchSpaceError before any search, and so does a ring box of
    more than eval_limit assignments, or a ring box with more than
    MAX_FOUND_SOLUTIONS solutions, the find-all cap of ``bounded_solve_ring``.
    The grid cap is a sanity cap on the number of points, in the units of
    eval_limit, not a bound on the total work: each point's search gets its
    own eval_limit budget.  Each direction lays out one search
    (``group_search``) and runs it at every pin.  The pins c^t are read off
    c in closed form (``_c_powers``), each grid value once, and the grid
    holds (2 bound_group + 1)^k points, k the number of ring variables.
    """
    if min(bound_ring, bound_group) < 0:
        raise ValueError("bound must be nonnegative")
    _check_box_size(2 * bound_group + 1, len(S.variables), eval_limit, "grid points")
    compiled = compile_system(edef, S)
    consts = ambient.constants()
    c_power = _c_powers(consts)

    ring_solutions = bounded_solve_ring(S, bound_ring, eval_limit)
    extend = group_search(compiled.system, ambient, bound_group,
                          [name for _, name in compiled.term_names],
                          find_all=False, eval_limit=eval_limit)
    missing = []
    for sol in ring_solutions:
        found = extend({name: c_power(eval_term(t, sol)) for t, name in compiled.term_names})
        if not (found and _satisfied(compiled.system, {**consts, **found[0]}, ambient)):
            missing.append(sol)

    ring_vars = S.variables
    var_names = compiled.ring_variable_names()
    project = group_search(compiled.system, ambient, bound_group,
                           [var_names[v] for v in ring_vars],
                           find_all=False, eval_limit=eval_limit)
    bad = []
    solvable = 0
    axis = [(t, c_power(t)) for t in range(-bound_group, bound_group + 1)]
    for combo in itertools.product(axis, repeat=len(ring_vars)):
        found = project({var_names[v]: pin for v, (_, pin) in zip(ring_vars, combo)})
        if found:
            solvable += 1
            assignment = {v: t for v, (t, _) in zip(ring_vars, combo)}
            if not ring_satisfies(S, assignment):
                bad.append(assignment)
    return CorrespondenceReport(
        ring_solutions=len(ring_solutions),
        missing_extensions=tuple(missing),
        grid_points=(2 * bound_group + 1) ** len(ring_vars),
        solvable_points=solvable,
        bad_projections=tuple(bad),
        ok=not missing and not bad,
    )


def odot_law_failures(
    edef: EDefinition,
    ambient: Ambient,
    t_max: int = 4,
    aux_bound: int = 4,
    *,
    eval_limit: int = EVAL_LIMIT,
) -> List[Tuple[int, int]]:
    """Check x3 = c^(t1*t2) across all witnesses of the instantiated
    multiplication gadget, for |t1|, |t2| <= t_max.

    For each pair, x1 and x2 are pinned to c^t1, c^t2 and all witnesses
    (auxiliaries within aux_bound, x3 within t_max^2) are enumerated; a pair
    fails if no witness exists or some witness yields an x3 that differs
    from c^(t1*t2) in the ambient group, not merely as an element of N.
    The system is the template's own equations, its slots and auxiliaries
    the variables, and every c^t is read off c in closed form
    (``_c_powers``).
    """
    c_power = _c_powers(ambient.constants())
    tpl = edef.mul
    x1, x2, x3 = tpl.slots
    system = GroupSystem(tpl.slots + tpl.aux, edef.constants, tpl.equations)
    failures = []
    search = group_search(system, ambient, {x3: t_max * t_max, "*": aux_bound}, (x1, x2),
                          find_all=True, eval_limit=eval_limit)
    for t1 in range(-t_max, t_max + 1):
        for t2 in range(-t_max, t_max + 1):
            sols = search({x1: c_power(t1), x2: c_power(t2)})
            undo = c_power(-t1 * t2)  # x3 must equal c^(t1*t2) in G
            if not sols or any(not ambient.is_trivial(multiply(s[x3], undo)) for s in sols):
                failures.append((t1, t2))
    return failures
