"""Ring systems, the group-equation compiler, and the bounded solvers."""

import copy
import dataclasses
import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilq import diophantine, nilpotent2, zmatrix
from nilq.diophantine import (
    FreeNilpotentAmbient,
    GroupSystem,
    QuotientAmbient,
    RingSystem,
    SearchSpaceError,
    Template,
    bounded_solve_group,
    bounded_solve_ring,
    comm,
    compile_gword,
    compile_system,
    eval_gword,
    eval_term,
    gen,
    gword_from_json,
    instantiate_template,
    odot_law_failures,
    ring_satisfies,
    term_from_json,
    verify_correspondence,
    z_in_g_templates,
)
from nilq.nilpotent2 import MalcevElement, commutator, generator, identity, inverse, multiply, power
from nilq.presentation import is_trivial_in_G, normalize, parse_presentation
from nilq.zmatrix import lattice_membership

from naive_oracles import plain_candidates, traced_peak


def _walk_gword(w, env, m):
    """The value of w by group arithmetic, factor by factor: the oracle
    for the compiled forms."""
    acc = identity(m)
    for f in w:
        if f[0] == "comm":
            x = commutator(_walk_gword(f[1], env, m), _walk_gword(f[2], env, m))
            e = f[3] if len(f) == 4 else 1
        else:
            x, e = env[f[0]], f[1]
        acc = multiply(acc, power(x, e))
    return acc


def _ring(variables, equations):
    return RingSystem(tuple(variables), tuple(equations))


V = lambda name: ("var", name)
C = lambda n: ("const", n)
ADD = lambda a, b: ("+", a, b)
MUL = lambda a, b: ("*", a, b)


def _json_roundtrip(obj):
    """obj as a file holds it: a dataclass by its fields."""
    return json.loads(json.dumps(obj, default=dataclasses.asdict))


def test_term_json_roundtrip():
    t = ADD(MUL(V("x"), V("y")), C(-3))
    assert term_from_json(_json_roundtrip(t)) == t
    # unary and binary minus both land on +/unary - trees
    assert term_from_json(["-", ["var", "x"]]) == ("-", V("x"))
    assert term_from_json(["-", ["var", "x"], ["var", "y"]]) == (
        "+",
        V("x"),
        ("-", V("y")),
    )
    with pytest.raises(ValueError):
        term_from_json(["&", ["var", "x"]])


def test_json_nesting_cap():
    # at each step the term is one array deeper than the word has brackets
    term, word = ["var", "x"], [["x", 1]]
    for _ in range(diophantine.MAX_NESTING):
        term_from_json(term)
        gword_from_json(word)
        term, word = ["-", term], [["comm", word, [["a", 1]]]]
    with pytest.raises(ValueError, match="term nested deeper than 100"):
        term_from_json(term)
    gword_from_json(word)
    with pytest.raises(ValueError, match="brackets nested deeper than 100"):
        gword_from_json([["comm", word, []]])


def test_eval_term():
    t = ADD(MUL(V("x"), V("x")), ("-", C(4)))
    assert eval_term(t, {"x": 3}) == 5
    assert eval_term(t, {"x": -2}) == 0


def test_ring_system_validation_and_json():
    with pytest.raises(ValueError):
        _ring(["x"], [(V("x"), V("y"))])
    S = _ring(["x", "y"], [(ADD(V("x"), V("y")), C(1))])
    assert RingSystem.from_jsonable(_json_roundtrip(S)) == S
    assert ring_satisfies(S, {"x": 3, "y": -2})
    assert not ring_satisfies(S, {"x": 0, "y": 0})


def test_bounded_solve_ring_examples():
    S = _ring(["x"], [(MUL(V("x"), V("x")), C(4))])
    assert bounded_solve_ring(S, 5) == [{"x": -2}, {"x": 2}]
    S2 = _ring(["x"], [(MUL(V("x"), V("x")), C(2))])
    assert bounded_solve_ring(S2, 5) == []
    S3 = _ring(["x1", "x2", "x3"], [(ADD(V("x1"), V("x2")), V("x3"))])
    sols = bounded_solve_ring(S3, 2)
    # the box clips x3 too, so 19 of the 25 (x1,x2) pairs survive
    assert len(sols) == 19
    assert all(s["x1"] + s["x2"] == s["x3"] for s in sols)


def test_bounded_solve_ring_static_limit():
    S = _ring(["x", "y", "z"], [(V("x"), V("x"))])
    with pytest.raises(SearchSpaceError):
        bounded_solve_ring(S, 100, limit=1000)


def test_ring_search_stops_at_first_and_keeps_at_most_the_solution_cap(monkeypatch):
    # the empty system holds at all 9 points of box 1: the first is the
    # scan's first, and find-all, verify's ring search too, keeps at most
    # the cap
    S = _ring(["x", "y"], [])
    assert bounded_solve_ring(S, 1, find_all=False) == [{"x": -1, "y": -1}]
    monkeypatch.setattr(diophantine, "MAX_FOUND_SOLUTIONS", 9)
    assert len(bounded_solve_ring(S, 1)) == 9
    monkeypatch.setattr(diophantine, "MAX_FOUND_SOLUTIONS", 8)
    assert bounded_solve_ring(S, 1, find_all=False) == [{"x": -1, "y": -1}]
    for search in (lambda: bounded_solve_ring(S, 1),
                   lambda: verify_correspondence(S, z_in_g_templates(), FreeNilpotentAmbient(2), 1, 0)):
        with pytest.raises(SearchSpaceError, match="more than 8 solutions"):
            search()


def test_gword_json_roundtrip():
    w = (gen("x", 2), comm((gen("a"),), (gen("b"),), -3))
    assert gword_from_json(_json_roundtrip(w)) == w
    # an explicit bracket exponent 1 is dropped, as the output drops it
    a_b = [["a", 1]], [["b", 1]]
    assert gword_from_json([["comm", *a_b, 1]]) == gword_from_json([["comm", *a_b]])


def test_eval_gword():
    m = 2
    a, b = generator(m, 1), generator(m, 2)
    w = (comm((gen("a"),), (gen("b"),), 2),)
    assert eval_gword(w, {"a": a, "b": b}, m) == power(commutator(a, b), 2)
    assert eval_gword((), {}, m) == identity(m)


_NAMES = ("x", "y", "z")
_EXPONENTS = st.sampled_from((1, -1, 2, -2, 0)) | st.integers(-10**12, 10**12)


def _factors(words):
    return st.tuples(st.sampled_from(_NAMES), _EXPONENTS) | st.builds(comm, words, words, _EXPONENTS)


_WORDS = st.recursive(
    st.just(()), lambda words: st.lists(_factors(words), max_size=4).map(tuple), max_leaves=10
)


@st.composite
def _elements(draw, m):
    coords = st.integers(-10**6, 10**6)
    alpha = tuple(draw(coords) for _ in range(m))
    gamma = tuple(draw(coords) for _ in range(m * (m - 1) // 2))
    return MalcevElement(m, alpha, gamma)


@st.composite
def _word_and_env(draw):
    m = draw(st.integers(1, 5))
    return draw(_WORDS), {n: draw(_elements(m)) for n in _NAMES}, m


@settings(max_examples=300, deadline=None)
@given(_word_and_env())
@example(((), {n: identity(3) for n in _NAMES}, 3))  # the empty word
@example(  # a bracket of a bracket, names repeated, a large exponent
    ((gen("x", 10**12), comm((comm((gen("x"),), (gen("y"),)),), (gen("x"), gen("z")), -7),
      gen("x", -3), gen("z")),
     {n: MalcevElement(3, (k, -2 * k, 5), (k, 0, -k)) for k, n in enumerate(_NAMES, 1)}, 3),
)
def test_compiled_form_matches_word_walker(case):
    w, env, m = case
    assert compile_gword(w)(env, m) == _walk_gword(w, env, m)


def test_group_system_validation():
    with pytest.raises(ValueError):
        GroupSystem(("x",), ("x",), ())  # variable/constant collision
    with pytest.raises(ValueError):
        GroupSystem(("x",), (), (((gen("y"),), (gen("x"),)),))
    # a factor ["comm", ...] in a file is a bracket, never a name
    for variables, constants in ((("comm",), ()), (("x",), ("comm",))):
        with pytest.raises(ValueError, match="reserved"):
            GroupSystem(variables, constants, ())


def test_group_system_json_roundtrip():
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((gen("x"),), (comm((gen("a"),), (gen("b"),)),)),),
    )
    assert GroupSystem.from_jsonable(_json_roundtrip(S)) == S


def test_templates_shape():
    edef = z_in_g_templates()
    assert len(edef.domain.equations) == 2 and len(edef.domain.aux) == 1
    assert len(edef.add.equations) == 1 and not edef.add.aux
    assert len(edef.neg.equations) == 1
    assert len(edef.mul.equations) == 5 and len(edef.mul.aux) == 2
    assert len(edef.equal.equations) == 1
    assert edef.constant_word(0) == ()
    (factor,) = edef.constant_word(3)
    assert factor[0] == "comm" and factor[3] == 3


def test_instantiate_template_needs_full_mapping():
    edef = z_in_g_templates()
    with pytest.raises(ValueError):
        instantiate_template(edef.mul, {"x1": "u"})


def test_compile_addition_shape():
    edef = z_in_g_templates()
    S = _ring(["x1", "x2", "x3"], [(ADD(V("x1"), V("x2")), V("x3"))])
    compiled = compile_system(edef, S)
    # one tuple per ring variable plus the sum node
    assert len(compiled.term_names) == 4
    # three domain gadgets (2 eqs each), one join, one equality
    assert len(compiled.system.equations) == 8
    assert set(compiled.ring_variable_names()) == {"x1", "x2", "x3"}


def test_compile_shares_repeated_subterms():
    edef = z_in_g_templates()
    xx = compile_system(edef, _ring(["x"], [(ADD(V("x"), V("x")), C(0))]))
    xy = compile_system(edef, _ring(["x", "y"], [(ADD(V("x"), V("y")), C(0))]))
    assert len(xy.system.variables) == len(xx.system.variables) + 2  # tuple + domain aux


def test_compile_deterministic_bytes():
    edef = z_in_g_templates()
    S = _ring(["x"], [(MUL(V("x"), V("x")), C(4))])
    a = json.dumps(compile_system(edef, S).system, sort_keys=True, default=dataclasses.asdict)
    b = json.dumps(compile_system(edef, S).system, sort_keys=True, default=dataclasses.asdict)
    assert a == b


def test_solve_group_commutator_value():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((gen("x"),), (comm((gen("a"),), (gen("b"),)),)),),
    )
    sols = bounded_solve_group(S, amb, 1)
    assert len(sols) == 1
    assert sols[0]["x"] == commutator(generator(2, 1), generator(2, 2))


def test_solve_group_centralizer_count():
    # [x, a] = 1 in rank 2: alpha_2 = 0, other coordinates free in the box
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((comm((gen("x"),), (gen("a"),)),), ()),),
    )
    sols = bounded_solve_group(S, amb, 1)
    assert len(sols) == 9
    assert all(s["x"].alpha[1] == 0 for s in sols)


def test_solve_group_no_square_root_of_generator():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((gen("x", 2),), (gen("a"),)),),
    )
    assert bounded_solve_group(S, amb, 2) == []


def test_solve_group_find_first():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((comm((gen("x"),), (gen("a"),)),), ()),),
    )
    sols = bounded_solve_group(S, amb, 1, find_all=False)
    assert len(sols) == 1


def test_find_all_keeps_at_most_the_solution_cap(monkeypatch):
    # x = x holds at every point: box 1 at m = 2 has 3^3 points per
    # variable, so two variables have 729 solutions
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(("x", "y"), ("a", "b"), (((gen("x"),), (gen("x"),)),))
    assert diophantine.MAX_FOUND_SOLUTIONS >= 100_000
    monkeypatch.setattr(diophantine, "MAX_FOUND_SOLUTIONS", 729)
    assert len(bounded_solve_group(S, amb, 1)) == 729
    monkeypatch.setattr(diophantine, "MAX_FOUND_SOLUTIONS", 728)
    with pytest.raises(SearchSpaceError, match="more than 728 solutions"):
        bounded_solve_group(S, amb, 1)


def test_solve_group_pinned_variables_need_no_box():
    amb = FreeNilpotentAmbient(2)
    g = generator(2, 1)
    S = GroupSystem(("x", "y"), ("a", "b"), (((gen("x"),), (gen("y"),)),))
    assert bounded_solve_group(S, amb, {"x": 1}, pinned={"y": g}) == [{"x": g, "y": g}]


def test_solve_group_rejects_pinned_values_of_another_rank():
    # x y = a over rank 2: a rank-3 pin must not lose its third coordinate
    S = GroupSystem(("x", "y"), ("a", "b"), (((gen("x"), gen("y")), (gen("a"),)),))
    amb = FreeNilpotentAmbient(2)
    for pin in (MalcevElement(3, (1, 0, 5), (0, 0, 0)), generator(1, 1)):
        with pytest.raises(ValueError, match="pinned value of 'x' has rank"):
            bounded_solve_group(S, amb, 1, pinned={"x": pin})


def test_solve_group_names_constants_the_ambient_lacks():
    S = GroupSystem.from_jsonable(
        {"variables": ["x"], "constants": ["c"], "equations": [[[["x", 1]], [["c", 1]]]]}
    )
    with pytest.raises(ValueError, match=r"constants not in the ambient: \['c'\]"):
        bounded_solve_group(S, FreeNilpotentAmbient(2), 1)


def test_solver_runs_no_group_arithmetic(monkeypatch):
    # x*y = z compiled, with its ring-variable tuples pinned to c^t
    edef = z_in_g_templates()
    compiled = compile_system(edef, _ring(["x", "y", "z"], [(MUL(V("x"), V("y")), V("z"))]))
    amb = FreeNilpotentAmbient(2)
    c = commutator(generator(2, 1), generator(2, 2))
    names = compiled.ring_variable_names()
    pin = {names[v]: power(c, t) for v, t in (("x", 2), ("y", -1), ("z", -2))}

    def boom(*args):
        raise AssertionError("group arithmetic on the search path")

    compiled.system._shapes  # compiling collects each equation by the group law
    for mod in (nilpotent2, diophantine):
        for name in ("multiply", "inverse", "power", "commutator"):
            monkeypatch.setattr(mod, name, boom, raising=False)
    (found,) = bounded_solve_group(compiled.system, amb, 2, pinned=pin, find_all=False)
    monkeypatch.undo()
    env = {**amb.constants(), **found}
    for u, v in compiled.system.equations:
        assert amb.is_trivial(multiply(_walk_gword(u, env, 2), inverse(_walk_gword(v, env, 2))))


@pytest.mark.xfail(strict=True, reason="forcing checks the box against one representative of w")
def test_forced_variable_misses_other_representatives_in_a_quotient():
    # over <a1, a2 | a1^2> with a = a1, x = 1 equals a^2 in G; the forced
    # x = a^2 lies outside box 1, the unforced x a^-2 = 1 finds x = 1
    amb = QuotientAmbient(normalize(parse_presentation("2 2\na1^2\n")))
    forced = GroupSystem(("x",), ("a", "b"), (((gen("x"),), (gen("a", 2),)),))
    unforced = GroupSystem(("x",), ("a", "b"), (((gen("x"), gen("a", -2)), ()),))
    assert {"x": identity(2)} in bounded_solve_group(unforced, amb, 1)
    assert bounded_solve_group(forced, amb, 1) == bounded_solve_group(unforced, amb, 1)


def test_solve_group_pinned_escapes_box():
    # pinned values are exempt from the box; free variables are not
    amb = FreeNilpotentAmbient(2)
    c10 = power(commutator(generator(2, 1), generator(2, 2)), 10)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((gen("x"),), (comm((gen("a"),), (gen("b"),), 10),)),),
    )
    assert bounded_solve_group(S, amb, 1, pinned={"x": c10}) == [{"x": c10}]
    # without the pin the box rejects the only candidate
    assert bounded_solve_group(S, amb, 1) == []


def test_solve_group_eval_budget():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x", "y"),
        ("a", "b"),
        (((comm((gen("x"),), (gen("y"),)),), ()),),
    )
    with pytest.raises(SearchSpaceError):
        bounded_solve_group(S, amb, 2, eval_limit=5)


def test_solve_group_budget_counts_probes_only_on_wide_boxes():
    # [a, y] = 1 in rank 2 holds iff alpha_y[2] = 0
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(("y",), ("a", "b"), (((comm((gen("a"),), (gen("y"),)),), ()),))
    # box 0: one alpha value, no probes; one candidate plus one check
    assert len(bounded_solve_group(S, amb, 0, eval_limit=2)) == 1
    with pytest.raises(SearchSpaceError):
        bounded_solve_group(S, amb, 0, eval_limit=1)
    # box 1: 3 probes, 6 rejected alpha values x 3 gammas, 9 candidates; the
    # probes settle the equation, so no candidate checks it again: 30,
    # against 54 for the plain scan
    assert len(bounded_solve_group(S, amb, 1, eval_limit=30)) == 9
    with pytest.raises(SearchSpaceError):
        bounded_solve_group(S, amb, 1, eval_limit=29)


def test_negative_boxes_rejected():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(("x",), ("a", "b"), (((gen("x"),), ()),))
    for bound in (-1, {"*": -1}, {"x": 1, "*": -1}, {"x": -2}):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            bounded_solve_group(S, amb, bound)
    R = _ring(["x"], [(V("x"), C(0))])
    for boxes in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            verify_correspondence(R, z_in_g_templates(), amb, *boxes)


def test_element_in_box_matches_the_per_coordinate_test():
    rng = random.Random(41)
    seen = set()
    for m in range(1, 5):
        n = m * (m - 1) // 2
        for _ in range(200):
            el = MalcevElement(m, tuple(rng.randint(-4, 4) for _ in range(m)),
                               tuple(rng.randint(-4, 4) for _ in range(n)))
            for bound in range(4):
                verdict = diophantine._element_in_box(el, bound)
                assert verdict == all(abs(v) <= bound for v in el.alpha + el.gamma), (el, bound)
                seen.add((m, verdict))
    assert len(seen) == 8  # both verdicts at every rank


def test_box_size_limit_decided_before_the_count():
    # 3^10000 points have more decimal digits than int-to-str converts: the
    # count is refused from its exponent and written as a power
    R = _ring([f"x{i}" for i in range(10000)], [(V("x0"), C(0))])
    amb = FreeNilpotentAmbient(2)
    for search, what in ((lambda: bounded_solve_ring(R, 1), "assignments"),
                         (lambda: verify_correspondence(R, z_in_g_templates(), amb, 0, 1),
                          "grid points")):
        t0 = time.perf_counter()
        with pytest.raises(SearchSpaceError, match=rf"^3\^10000 {what} exceed the limit"):
            search()
        assert time.perf_counter() - t0 < 1.0
    # a box of one point is never over a nonnegative limit, however many variables
    assert bounded_solve_ring(R, 0) == [{f"x{i}": 0 for i in range(10000)}]


def test_verify_correspondence_ring_search_obeys_eval_limit():
    # 7^2 ring assignments against a limit of 20; the 3^2 grid fits
    R = _ring(["x", "y"], [(ADD(V("x"), V("y")), C(0))])
    with pytest.raises(SearchSpaceError, match="49 assignments exceed the limit 20"):
        verify_correspondence(R, z_in_g_templates(), FreeNilpotentAmbient(2), 3, 1, eval_limit=20)


def test_solve_group_per_variable_boxes():
    amb = FreeNilpotentAmbient(2)
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((comm((gen("x"),), (gen("a"),)),), ()),),
    )
    sols = bounded_solve_group(S, amb, {"x": 0})
    assert len(sols) == 1  # only the identity fits a zero box


def test_quotient_ambient_solution():
    S = GroupSystem(
        ("x",),
        ("a", "b"),
        (((gen("x"),), (comm((gen("a"),), (gen("b"),)),)),),
    )
    # the repeated relator makes the exponent-sum matrix rank-deficient and
    # presents the same group
    for text in ("3 2\na1^2\n", "3 2\na1^2\na1^2\n"):
        amb = QuotientAmbient(normalize(parse_presentation(text)))
        # the ambient binds the distinguished constants to the c-small pair a2, a3
        sols = bounded_solve_group(S, amb, 1)
        assert len(sols) == 1
        assert sols[0]["x"] == commutator(generator(3, 2), generator(3, 3))


def test_c_powers_are_the_powers_of_c():
    # c^t read off c = [a, b] in closed form is c^t by square and multiply,
    # in free ambients and a seeded quotient
    rng = random.Random(32)
    relators = [" ".join(f"a{rng.randrange(1, 5)}^{rng.choice((-2, -1, 1, 3))}" for _ in range(6))
                for _ in range(2)]
    quotient = QuotientAmbient(normalize(parse_presentation("4 2\n" + "\n".join(relators) + "\n")))
    for amb in [FreeNilpotentAmbient(m) for m in (2, 3, 4)] + [quotient]:
        consts = amb.constants()
        c_power = diophantine._c_powers(consts)
        c = commutator(consts["a"], consts["b"])
        for t in range(-40, 41):
            assert c_power(t) == power(c, t), (amb.m, t)


def test_verify_correspondence_known_reports():
    edef = z_in_g_templates()
    amb = FreeNilpotentAmbient(2)
    S = _ring(["x"], [(V("x"), C(0))])
    rep = verify_correspondence(S, edef, amb, 2, 4, eval_limit=10**7)
    assert rep.ok
    assert rep.ring_solutions == 1
    # completeness sweeps the group box, which is the wider of the two
    assert rep.grid_points == 9
    assert rep.solvable_points == 1

    S2 = _ring(["x"], [(MUL(V("x"), V("x")), C(2))])
    rep2 = verify_correspondence(S2, edef, amb, 3, 6, eval_limit=10**7)
    assert rep2.ok
    assert rep2.ring_solutions == 0
    assert rep2.solvable_points == 0

    data = dataclasses.asdict(rep)
    assert data["ok"] and "missing_extensions" in data


def test_verify_correspondence_addition_counts():
    edef = z_in_g_templates()
    amb = FreeNilpotentAmbient(2)
    S = _ring(["x1", "x2", "x3"], [(ADD(V("x1"), V("x2")), V("x3"))])
    rep = verify_correspondence(S, edef, amb, 2, 3, eval_limit=10**7)
    assert rep.ok
    assert rep.ring_solutions == 19
    assert rep.grid_points == 343
    assert rep.solvable_points == 37


def test_verify_correspondence_reports_a_broken_encoding():
    # an equality gadget that equates nothing accepts every grid point
    edef = dataclasses.replace(z_in_g_templates(), equal=Template(("x1", "x2"), (), ()))
    rep = verify_correspondence(_ring(["x"], [(V("x"), C(0))]), edef, FreeNilpotentAmbient(2), 1, 1)
    assert rep.bad_projections == ({"x": -1}, {"x": 1}) and not rep.missing_extensions
    assert rep.ok is False


def test_odot_law_small_range():
    edef = z_in_g_templates()
    amb = FreeNilpotentAmbient(2)
    assert odot_law_failures(edef, amb, t_max=2, aux_bound=3, eval_limit=10**7) == []


@pytest.mark.parametrize("relator", [
    "a2 a1^-1 a3 a1^-1 a1^-1 a1 a1 a3^-1",
    "a2 a1 a3 a1 a1 a3 a3^-1 a2^-1",
    "a1^-1 a2^-1 a2^-1 a3^-1 a2^-1 a3^-1 a1 a3",
])
def test_odot_law_compares_in_the_quotient(relator):
    # x3 is one representative of its class in G; comparing it with
    # c^(t1*t2) as elements of N failed 8 of these 9 pairs
    amb = QuotientAmbient(normalize(parse_presentation(f"3 2\n{relator}\n")))
    assert odot_law_failures(z_in_g_templates(), amb, t_max=1, aux_bound=1) == []


def _random_word(rng, names, depth=0):
    factors = []
    for _ in range(rng.randrange(3)):
        if depth < 2 and rng.random() < 0.4:
            u = _random_word(rng, names, depth + 1)
            v = _random_word(rng, names, depth + 1)
            factors.append(comm(u, v, rng.choice((1, 1, -1, 2))))
        else:
            factors.append(gen(rng.choice(names), rng.choice((1, 1, -1, 2, -2))))
    return tuple(factors)


def _random_system(rng, dim, max_volume):
    """Tiny system: 1-3 variables, 1-3 equations, boxes 0-2 with at most
    max_volume joint candidates.  An equation is a gadget-shaped
    [g, v] = c^k or v = g c^k (v a variable, g any name, c = [a, b]), a
    conjugation v h v^-1 = h c^k (h a name other than v), in which v is bare
    with net exponent 0, or a pair of random words mixing bare factors and
    nested brackets."""
    variables = ("x", "y", "z")[: rng.randrange(1, 4)]
    names = list(variables) + ["a", "b"]
    equations = []
    for _ in range(rng.randrange(1, 4)):
        v, g = (gen(rng.choice(variables)),), (gen(rng.choice(names)),)
        k = rng.choice((-1, 0, 1, 2))
        c_k = (comm((gen("a"),), (gen("b"),), k),) if k else ()
        kind = rng.random()
        if kind < 0.4:
            equations.append(((comm(g, v) if rng.random() < 0.5 else comm(v, g),), c_k))
        elif kind < 0.5:
            equations.append((v, g + c_k))
        elif kind < 0.6:
            h = (gen(rng.choice([n for n in names if n != v[0][0]])),)
            equations.append((v + h + (gen(v[0][0], -1),), h + c_k))
        else:
            equations.append((_random_word(rng, names), _random_word(rng, names)))
    while True:
        boxes = {v: rng.randrange(3) for v in variables}
        volume = 1
        for b in boxes.values():
            volume *= (2 * b + 1) ** dim
        if volume <= max_volume:
            return GroupSystem(variables, ("a", "b"), tuple(equations)), boxes


def _brute_force(S, amb, boxes):
    """Every assignment in the product of the boxes that satisfies S."""
    m = amb.m
    dim = m + m * (m - 1) // 2
    per_variable = []
    for v in S.variables:
        coords = itertools.product(range(-boxes[v], boxes[v] + 1), repeat=dim)
        per_variable.append([MalcevElement(m, c[:m], c[m:]) for c in coords])
    out = []
    for values in itertools.product(*per_variable):
        env = dict(amb.constants())
        env.update(zip(S.variables, values))
        if all(
            amb.is_trivial(multiply(_walk_gword(u, env, m), inverse(_walk_gword(v, env, m))))
            for u, v in S.equations
        ):
            out.append(dict(zip(S.variables, values)))
    return out


def _key(S, sol):
    return tuple((sol[v].alpha, sol[v].gamma) for v in S.variables)


@pytest.mark.parametrize("ambient,systems", [("free2", 40), ("free3", 30), ("quotient", 30)])
def test_solve_group_matches_brute_force(ambient, systems):
    amb = {
        "free2": lambda: FreeNilpotentAmbient(2),
        "free3": lambda: FreeNilpotentAmbient(3),
        "quotient": lambda: QuotientAmbient(normalize(parse_presentation("3 2\na1^2\n"))),
    }[ambient]()
    m = amb.m
    rng = random.Random(f"solver-oracle-{ambient}")
    nonempty = 0
    for _ in range(systems):
        S, boxes = _random_system(rng, m + m * (m - 1) // 2, 800)
        expected = _brute_force(S, amb, boxes)
        found = bounded_solve_group(S, amb, boxes)
        assert sorted(_key(S, s) for s in found) == sorted(_key(S, s) for s in expected)
        # existence mode may skip gamma values, never change the first solution
        first = bounded_solve_group(S, amb, boxes, find_all=False)
        assert first == found[:1]
        nonempty += bool(first)
    # the draws must exercise both outcomes
    assert 0 < nonempty < systems


# quotients with kept pairs, torsion in the alphas, and a free block
_SCAN_PRESENTATIONS = (
    "3 2\na1^2\n",
    "3 2\na1^2 a2^3 [a1,a3]^2\n",
    "3 2\na1 a2 a1^-1 a2 a3^2\n[a2,a3]^3\n",
    "4 2\na1^2 a2^3\na2^4 [a1,a3]^2\n[a3,a4]^2\n",
)


def _scan_cases():
    """Each scanned ambient with the triviality test its lattice replaced:
    the identity test in N_{2,m}, is_trivial_in_G in a quotient."""
    for m in (2, 3):
        yield FreeNilpotentAmbient(m), MalcevElement.is_identity
    for text in _SCAN_PRESENTATIONS:
        np_ = normalize(parse_presentation(text))
        yield QuotientAmbient(np_), lambda el, np_=np_: is_trivial_in_G(el, np_)


_SCAN_CASES = list(_scan_cases())


def _scan_ambients():
    return [amb for amb, _ in _SCAN_CASES]


def _scan_id(amb):
    return f"m{amb.m}-{len(amb.lattice.rows)}rows"


def test_ambients_refuse_one_generator():
    # a and b must not commute, so neither ambient takes m = 1
    with pytest.raises(ValueError, match="need m >= 2 for non-commuting constants"):
        FreeNilpotentAmbient(1)
    with pytest.raises(ValueError, match="need m >= 2 for non-commuting constants"):
        QuotientAmbient(normalize(parse_presentation("1 2\na1^3\n")))


def _element_at(amb, coords, rng):
    """An element whose coordinates at amb.coordinates are coords; the
    others, which is_trivial does not read, random."""
    m = amb.m
    full = [rng.randint(-3, 3) for _ in range(m + m * (m - 1) // 2)]
    for c, v in zip(amb.coordinates, coords):
        full[c] = v
    return MalcevElement(m, tuple(full[:m]), tuple(full[m:]))


@pytest.mark.parametrize("amb,replaced", _SCAN_CASES, ids=[_scan_id(amb) for amb in _scan_ambients()])
def test_ambient_lattice_decides_is_trivial(amb, replaced):
    rng = random.Random(f"lattice-{amb.m}-{amb.lattice.rows}")
    trivial = 0
    for _ in range(300):
        coords = [0] * len(amb.coordinates)
        for row in amb.lattice.rows:
            c = rng.randint(-3, 3)
            coords = [u + c * v for u, v in zip(coords, row)]
        if rng.random() < 0.5:
            coords[rng.randrange(len(coords))] += rng.choice((-1, 1, 2))
        el = _element_at(amb, coords, rng)
        member = lattice_membership(amb.lattice.rows, coords) is not None
        assert amb.is_trivial(el) == member == replaced(el)
        trivial += member
    assert 0 < trivial < 300


def _seeded_forms(rng, amb, bound, density=1.0):
    """0-3 affine forms, most of them solvable at a common alpha in the box;
    below density 1, each slope entry is 0 but for that share."""
    m = amb.m
    n = m * (m - 1) // 2
    hit = [rng.randint(-bound, bound) for _ in range(m)]
    forms = []
    for _ in range(rng.randrange(4)):
        slope = tuple(tuple(rng.choice((0, 0, 1, -1, rng.randint(-4, 4)))
                            if density == 1.0 or rng.random() < density else 0 for _ in range(n))
                      for _ in range(m))
        g0 = [-sum(h * row[t] for h, row in zip(hit, slope)) for t in range(n)]
        a0 = [0] * m
        coords = [0] * len(amb.coordinates)
        for row in amb.lattice.rows:
            c = rng.randint(-2, 2)
            coords = [u + c * v for u, v in zip(coords, row)]
        for c, v in zip(amb.coordinates, coords):
            if c < m:
                a0[c] += v
            else:
                g0[c - m] += v
        if rng.random() < 0.2:
            g0[rng.randrange(n)] += rng.choice((-1, 1))
        forms.append((tuple(a0), tuple(g0), slope))
    return forms


def _drive(scan, limit):
    """Run a candidate scan as the solver does: (the candidates, the budget
    used), or (the candidates yielded before the limit was hit, None)."""
    budget = [limit]

    def spend(k=1):
        budget[0] -= k
        if budget[0] < 0:
            raise SearchSpaceError("evaluation limit exceeded")

    out = []
    try:
        for candidate in scan(spend):
            out.append(candidate)
    except SearchSpaceError:
        return out, None
    return out, limit - budget[0]


@pytest.mark.parametrize("amb", _scan_ambients(), ids=_scan_id)
def test_coset_walk_matches_the_plain_scan(amb):
    # the same candidates in the same order, the same budget, and the same
    # point of failure under every smaller limit; each gamma coordinate
    # gets its own half-width, 0 as in existence mode or 1
    rng = random.Random(f"walk-{amb.m}-{amb.lattice.rows}")
    n = amb.m * (amb.m - 1) // 2
    admitted = 0
    for _ in range(40):
        bound = rng.randrange(3 if amb.m == 2 else 2)
        bounds = (bound,) * amb.m + tuple(int(rng.random() < 3 / (n + 3)) for _ in range(n))
        forms = _seeded_forms(rng, amb, bound)
        echelon = diophantine._slope_echelon(tuple(f[2] for f in forms), amb)
        walk = lambda spend: diophantine._candidates(forms, echelon, amb, bounds, spend)
        plain = lambda spend: plain_candidates(forms, amb, bounds, spend)
        full = _drive(plain, 10**9)
        assert _drive(walk, 10**9) == full
        used = full[1]
        for limit in sorted({0, used - 1, used, *rng.sample(range(used + 1), min(used + 1, 12))}):
            if limit >= 0:
                assert _drive(walk, limit) == _drive(plain, limit)
        admitted += bool(full[0])
    assert 0 < admitted < 40


def test_admissible_coset_in_a_wide_quotient():
    # m = 12 with d_pq = 2 at most pairs: 67 target coordinates, most in
    # blocks of their own, which the Hermite form leaves out unless a slope
    # reaches them; the coset is checked against is_trivial form by form,
    # at random alphas and at points of the coset
    relators = [f"a{i}^2" for i in range(1, 13)] + ["a1 a2 a3^-1 [a4,a5]^3"]
    amb = QuotientAmbient(normalize(parse_presentation("12 2\n" + "\n".join(relators) + "\n")))
    rng = random.Random("wide-quotient")
    admitted_total = empty = 0
    for _ in range(20):
        forms = _seeded_forms(rng, amb, 3, density=0.05)
        echelon = diophantine._slope_echelon(tuple(f[2] for f in forms), amb)
        coset = diophantine._admissible_coset(forms, echelon, amb)
        columns, _, _ = echelon
        assert len(columns) < len(forms) * len(amb.coordinates) or not forms
        kernel = [row for row in coset[1] if row is not None] if coset else []
        pivots = [j for j, row in enumerate(coset[1]) if row is not None] if coset else []
        span = zmatrix.Echelon(tuple((0,) * j + row + (0,) * (amb.m - j - len(row))
                                     for j, row in zip(pivots, kernel)), tuple(pivots))
        admitted_here = 0
        for _ in range(50):
            alpha = tuple(rng.randint(-3, 3) for _ in range(amb.m))
            if coset and rng.random() < 0.5:  # a point of the coset itself
                alpha = list(coset[0])
                for row in span.rows:
                    c = rng.randint(-2, 2)
                    alpha = [a + c * v for a, v in zip(alpha, row)]
            values = (MalcevElement(amb.m, a0, tuple(
                g + sum(a * row[t] for a, row in zip(alpha, slope)) for t, g in enumerate(g0)))
                for a0, g0, slope in forms)
            admitted = all(amb.is_trivial(value) for value in values)
            in_coset = coset is not None and span.in_lattice([a - p for a, p in zip(alpha, coset[0])])
            assert admitted == in_coset
            admitted_here += admitted
        admitted_total += bool(forms) and admitted_here
        empty += coset is None
    assert admitted_total and empty


def test_coset_walk_charges_the_stretches_it_passes():
    # alpha_2 = alpha_1 + 10^7 has no point in the box, but each alpha_1 is
    # a stretch the walk passes: charged as passed, a small limit stops it
    amb = FreeNilpotentAmbient(2)
    forms = [((0, 0), (-10**7,), ((-1,), (1,)))]
    echelon = diophantine._slope_echelon((forms[0][2],), amb)
    scan = lambda bounds: lambda spend: diophantine._candidates(forms, echelon, amb, bounds, spend)
    t0 = time.perf_counter()
    assert _drive(scan((10**6, 10**6, 0)), 10**4) == ([], None)
    assert time.perf_counter() - t0 < 1.0
    assert _drive(scan((50, 50, 1)), 10**9) == ([], 3 * 101**2)


def test_wide_box_scans_lazily():
    # [a, y] = 1 over a box of 2*10^7 + 1 values per coordinate: nothing is
    # listed, the first solution comes at once, and find-all stops at its limit
    S = GroupSystem(("y",), ("a", "b"), (((comm((gen("a"),), (gen("y"),)),), ()),))
    amb = FreeNilpotentAmbient(2)
    t0 = time.perf_counter()
    assert bounded_solve_group(S, amb, 10**7, find_all=False) == [{"y": identity(2)}]
    with pytest.raises(SearchSpaceError):
        bounded_solve_group(S, amb, 10**7, eval_limit=1000)
    assert time.perf_counter() - t0 < 1.0


def _charge_corpus():
    """(label, system, ambient, bound, pinned, find_all) of each search whose
    charges are pinned: the benchmark's compiled ring shapes in existence
    mode, with their ring variables pinned as verify's grid pins them, or
    every subterm as its extension search does, or nothing; and find-all
    searches over the gadgets; in the free rank-2 ambient and in a quotient,
    over boxes of 0 and 1."""
    edef = z_in_g_templates()
    free = FreeNilpotentAmbient(2)
    quotient = QuotientAmbient(normalize(parse_presentation("3 2\na1^2\n")))
    x, y, z = V("x"), V("y"), V("z")
    shapes = (
        ("x+c=d", _ring(["x"], [(ADD(x, C(1)), C(0))]), (-1,), (1,)),
        ("c*x=d", _ring(["x"], [(MUL(C(-1), x), C(1))]), (-1,), (1,)),
        ("x*x=c", _ring(["x"], [(MUL(x, x), C(1))]), (-1,), (0,)),
        ("x+y=c", _ring(["x", "y"], [(ADD(x, y), C(1))]), (1, 0), (1, 1)),
        ("x+c=y", _ring(["x", "y"], [(ADD(x, C(1)), y)]), (0, 1), (-1, 1)),
        ("x*y=c", _ring(["x", "y"], [(MUL(x, y), C(-1))]), (1, -1), (1, 1)),
        ("x+y=c,x=d", _ring(["x", "y"], [(ADD(x, y), C(1)), (x, C(1))]), (1, 0), (0, 1)),
        ("x+y=z", _ring(["x", "y", "z"], [(ADD(x, y), z)]), (1, -1, 0), (1, 1, 1)),
        ("x+y+c=z", _ring(["x", "y", "z"], [(ADD(ADD(x, y), C(1)), z)]), (0, 0, 1), (1, 0, 1)),
        ("x*c=y", _ring(["x", "y"], [(MUL(x, C(-1)), y)]), (1, -1), (-1, -1)),
    )
    searches = []
    for label, ring, solution, other in shapes:
        compiled = compile_system(edef, ring)
        names = compiled.ring_variable_names()
        for amb_label, amb in (("free", free), ("quotient", quotient)):
            c = commutator(*amb.constants().values())
            value = dict(zip(ring.variables, solution))
            everything = {name: power(c, eval_term(t, value)) for t, name in compiled.term_names}
            for pin_label, pin in (("extension", everything),
                                   ("grid", {names[v]: power(c, t) for v, t in zip(ring.variables, solution)}),
                                   ("grid-miss", {names[v]: power(c, t) for v, t in zip(ring.variables, other)})):
                searches.append((f"{label} {amb_label} {pin_label}", compiled.system, amb, 1, pin, False))
            searches.append((f"{label} {amb_label} unpinned", compiled.system, amb, 1, None, False))
    mapping = {"x1": "x1", "x2": "x2", "x3": "x3", "p1": "p1", "p2": "p2"}
    mul = GroupSystem(("x1", "x2", "x3", "p1", "p2"), ("a", "b"), instantiate_template(edef.mul, mapping))
    domain = GroupSystem(("x", "y"), ("a", "b"), instantiate_template(edef.domain, {"x": "x", "y": "y"}))
    centralizer = GroupSystem(("y",), ("a", "b"), (((comm((gen("a"),), (gen("y"),)),), ()),))
    for amb_label, amb in (("free", free), ("quotient", quotient)):
        c = commutator(*amb.constants().values())
        pin = {"x1": c, "x2": power(c, -1)}
        for box in (0, 1):
            searches.append((f"mul {amb_label} box {box}", mul, amb, {"x3": 1, "*": box}, pin, True))
            searches.append((f"domain {amb_label} box {box}", domain, amb, box, None, True))
        searches.append((f"centralizer {amb_label}", centralizer, amb, 1, None, True))
    return searches


def _solutions_digest(sols):
    return hashlib.sha256(repr([sorted((v, e.alpha, e.gamma) for v, e in s.items())
                                for s in sols]).encode()).hexdigest()[:12]


# (label, solutions, their digest, smallest eval_limit that lets the search
# finish), found by bisection before level plans were cached
_CHARGES = (
    ("x+c=d free extension", 1, "bf709c15cbb9", 13),
    ("x+c=d free grid", 1, "bf709c15cbb9", 16),
    ("x+c=d free grid-miss", 0, "4f53cda18c2b", 2),
    ("x+c=d free unpinned", 1, "bf709c15cbb9", 21),
    ("x+c=d quotient extension", 1, "b57e43aa900c", 15),
    ("x+c=d quotient grid", 1, "b57e43aa900c", 18),
    ("x+c=d quotient grid-miss", 0, "4f53cda18c2b", 2),
    ("x+c=d quotient unpinned", 1, "b57e43aa900c", 23),
    ("c*x=d free extension", 1, "43cf527964ae", 37),
    ("c*x=d free grid", 1, "43cf527964ae", 40),
    ("c*x=d free grid-miss", 0, "4f53cda18c2b", 39),
    ("c*x=d free unpinned", 1, "43cf527964ae", 39),
    ("c*x=d quotient extension", 1, "15dde688ab79", 44),
    ("c*x=d quotient grid", 1, "15dde688ab79", 47),
    ("c*x=d quotient grid-miss", 0, "4f53cda18c2b", 80),
    ("c*x=d quotient unpinned", 1, "15dde688ab79", 45),
    ("x*x=c free extension", 1, "b9188e68bf62", 36),
    ("x*x=c free grid", 1, "b9188e68bf62", 38),
    ("x*x=c free grid-miss", 0, "4f53cda18c2b", 37),
    ("x*x=c free unpinned", 1, "682338c50ab9", 52),
    ("x*x=c quotient extension", 1, "833482e74702", 43),
    ("x*x=c quotient grid", 1, "833482e74702", 45),
    ("x*x=c quotient grid-miss", 0, "4f53cda18c2b", 78),
    ("x*x=c quotient unpinned", 1, "c26ffcda61d1", 79),
    ("x+y=c free extension", 1, "5d629d11c793", 18),
    ("x+y=c free grid", 1, "5d629d11c793", 20),
    ("x+y=c free grid-miss", 0, "4f53cda18c2b", 1),
    ("x+y=c free unpinned", 1, "99ad0830488f", 22),
    ("x+y=c quotient extension", 1, "00f17cf6473a", 22),
    ("x+y=c quotient grid", 1, "00f17cf6473a", 24),
    ("x+y=c quotient grid-miss", 0, "4f53cda18c2b", 1),
    ("x+y=c quotient unpinned", 1, "a452cbd39031", 25),
    ("x+c=y free extension", 1, "99ad0830488f", 18),
    ("x+c=y free grid", 1, "99ad0830488f", 20),
    ("x+c=y free grid-miss", 0, "4f53cda18c2b", 3),
    ("x+c=y free unpinned", 1, "99ad0830488f", 20),
    ("x+c=y quotient extension", 1, "a452cbd39031", 22),
    ("x+c=y quotient grid", 1, "a452cbd39031", 24),
    ("x+c=y quotient grid-miss", 0, "4f53cda18c2b", 3),
    ("x+c=y quotient unpinned", 1, "a452cbd39031", 23),
    ("x*y=c free extension", 1, "c6104c13f18a", 41),
    ("x*y=c free grid", 1, "c6104c13f18a", 43),
    ("x*y=c free grid-miss", 0, "4f53cda18c2b", 37),
    ("x*y=c free unpinned", 1, "c6104c13f18a", 58),
    ("x*y=c quotient extension", 1, "1113607eccc9", 50),
    ("x*y=c quotient grid", 1, "1113607eccc9", 52),
    ("x*y=c quotient grid-miss", 0, "4f53cda18c2b", 78),
    ("x*y=c quotient unpinned", 1, "1113607eccc9", 85),
    ("x+y=c,x=d free extension", 1, "5d629d11c793", 19),
    ("x+y=c,x=d free grid", 1, "5d629d11c793", 21),
    ("x+y=c,x=d free grid-miss", 0, "4f53cda18c2b", 4),
    ("x+y=c,x=d free unpinned", 1, "5d629d11c793", 23),
    ("x+y=c,x=d quotient extension", 1, "00f17cf6473a", 23),
    ("x+y=c,x=d quotient grid", 1, "00f17cf6473a", 25),
    ("x+y=c,x=d quotient grid-miss", 0, "4f53cda18c2b", 4),
    ("x+y=c,x=d quotient unpinned", 1, "00f17cf6473a", 27),
    ("x+y=z free extension", 1, "bcfb6ef9e0e4", 26),
    ("x+y=z free grid", 1, "bcfb6ef9e0e4", 27),
    ("x+y=z free grid-miss", 0, "4f53cda18c2b", 1),
    ("x+y=z free unpinned", 1, "676c80c9bec8", 23),
    ("x+y=z quotient extension", 1, "1ba4f8b4b965", 32),
    ("x+y=z quotient grid", 1, "1ba4f8b4b965", 33),
    ("x+y=z quotient grid-miss", 0, "4f53cda18c2b", 1),
    ("x+y=z quotient unpinned", 1, "9e1b613f59e5", 27),
    ("x+y+c=z free extension", 1, "c9ef71f3db57", 26),
    ("x+y+c=z free grid", 1, "c9ef71f3db57", 29),
    ("x+y+c=z free grid-miss", 0, "4f53cda18c2b", 3),
    ("x+y+c=z free unpinned", 1, "c9ef71f3db57", 28),
    ("x+y+c=z quotient extension", 1, "44d23def85de", 32),
    ("x+y+c=z quotient grid", 1, "44d23def85de", 35),
    ("x+y+c=z quotient grid-miss", 0, "4f53cda18c2b", 3),
    ("x+y+c=z quotient unpinned", 1, "44d23def85de", 32),
    ("x*c=y free extension", 1, "c6104c13f18a", 41),
    ("x*c=y free grid", 1, "c6104c13f18a", 43),
    ("x*c=y free grid-miss", 0, "4f53cda18c2b", 37),
    ("x*c=y free unpinned", 1, "5df5be0b91c8", 35),
    ("x*c=y quotient extension", 1, "1113607eccc9", 50),
    ("x*c=y quotient grid", 1, "1113607eccc9", 52),
    ("x*c=y quotient grid-miss", 0, "4f53cda18c2b", 78),
    ("x*c=y quotient unpinned", 1, "256fece49bcb", 42),
    ("mul free box 0", 0, "4f53cda18c2b", 2),
    ("domain free box 0", 1, "79c6b7539c5c", 4),
    ("mul free box 1", 9, "c2395b8fa42a", 150),
    ("domain free box 1", 9, "45de0b910b21", 48),
    ("centralizer free", 9, "fdd89c048ef5", 30),
    ("mul quotient box 0", 0, "4f53cda18c2b", 2),
    ("domain quotient box 0", 1, "5f5eca81737d", 4),
    ("mul quotient box 1", 729, "603859c33f1e", 22094),
    ("domain quotient box 1", 81, "e27492947fb3", 895),
    ("centralizer quotient", 81, "c15dd0589e89", 733),
)


def test_solver_charges_are_pinned():
    # the limit passes and one less raises, so every charge is pinned
    corpus = _charge_corpus()
    assert [search[0] for search in corpus] == [pin[0] for pin in _CHARGES]
    for (label, S, amb, bound, pinned, find_all), (_, count, digest, limit) in zip(corpus, _CHARGES):
        sols = bounded_solve_group(S, amb, bound, pinned=pinned, find_all=find_all, eval_limit=limit)
        assert (len(sols), _solutions_digest(sols)) == (count, digest), label
        with pytest.raises(SearchSpaceError):
            bounded_solve_group(S, amb, bound, pinned=pinned, find_all=find_all, eval_limit=limit - 1)


def _outcome(search):
    """A search's solutions, or the message of the SearchSpaceError it raised."""
    try:
        return search()
    except SearchSpaceError as exc:
        return str(exc)


_OVER_LIMIT = "evaluation limit exceeded"


def _smallest_limit(search, guesses=()):
    """The smallest eval_limit at which search(eval_limit) does not run out
    of budget: it then finishes, or stops at the solution cap.  A guess is
    taken if it passes and one less runs out, as the charge of a search is
    fixed; otherwise the limit is found by doubling, then bisection."""
    for guess in guesses:
        if (_outcome(lambda: search(guess)) != _OVER_LIMIT
                and _outcome(lambda: search(guess - 1)) == _OVER_LIMIT):
            return guess
    lo, hi = 0, 1
    while _outcome(lambda: search(hi)) == _OVER_LIMIT:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(lambda: search(mid)) == _OVER_LIMIT:
            lo = mid
        else:
            hi = mid
    return hi


def test_prepared_search_replays_as_fresh_searches():
    # one prepared search per ambient, box and mode, reused across seeded
    # pins, finds what a fresh bounded_solve_group finds at the same limit,
    # and raises where it raises: each call spends a budget of its own, so
    # the first pin finishes at its smallest limit every time it is searched
    compiled = compile_system(z_in_g_templates(), _ring(
        ["x", "y", "z"], [(ADD(MUL(V("x"), V("y")), C(1)), V("z"))]))
    S, ring_names = compiled.system, compiled.ring_variable_names()
    names = sorted(ring_names.values())
    quotient = QuotientAmbient(normalize(parse_presentation("3 2\na1^2\n")))
    rng = random.Random("prepared-search")
    for amb in (FreeNilpotentAmbient(2), quotient):
        c = commutator(*amb.constants().values())
        m = amb.m
        for box, find_all in itertools.product((0, 1), (False, True)):
            pins = []
            for _ in range(8):
                # half of them solve x*y + 1 = z, and some pin z off the powers of c
                x, y = rng.randint(-1, 1), rng.randint(-1, 1)
                z = x * y + 1 if rng.random() < 0.5 else rng.randint(-1, 1)
                pin = {ring_names[v]: power(c, t) for v, t in zip("xyz", (x, y, z))}
                if rng.random() < 0.2:
                    pin[ring_names["z"]] = generator(m, 1)
                pins.append(pin)
            pins.append(pins[0])

            def fresh(pin, limit):
                return bounded_solve_group(S, amb, box, pinned=pin, find_all=find_all, eval_limit=limit)

            limit = _smallest_limit(lambda lim: fresh(pins[0], lim))
            for lim in (limit, limit - 1):
                search = diophantine.group_search(S, amb, box, names, find_all=find_all, eval_limit=lim)
                for pin in pins:
                    assert _outcome(lambda: search(pin)) == _outcome(lambda: fresh(pin, lim))
                assert isinstance(_outcome(lambda: search(pins[0])), str) == (lim < limit)
            with pytest.raises(ValueError, match="pinned names"):
                search({v: c for v in names[1:]})
            with pytest.raises(ValueError, match="pinned name 'a' is not a variable"):
                diophantine.group_search(S, amb, box, names + ["a"], find_all=find_all, eval_limit=1)
            with pytest.raises(ValueError, match=f"has rank {m + 1}, not {m}"):
                search({**pins[0], names[0]: generator(m + 1, 1)})


def test_prepared_search_memo_moves_no_outcome_and_no_charge(monkeypatch):
    # a prepared search keeps one memo of evaluations and slopes for every
    # pin it serves.  Over a grid of pins (x, y in {-1, 0, 1}, z in {0, 1}:
    # 7 of the 18 solve x*y + 1 = z), in grid order and again shuffled, it
    # gives each pin a fresh search's outcome, and each pin passes at its
    # smallest limit and fails at one less, memo warm or not.
    # The quotient's find-all searches at box 2 charge millions per pin, so
    # that mode stops at box 1 there; a low solution cap keeps the solvable
    # find-all pins cheap
    monkeypatch.setattr(diophantine, "MAX_FOUND_SOLUTIONS", 200)
    compiled = compile_system(z_in_g_templates(), _ring(
        ["x", "y", "z"], [(ADD(MUL(V("x"), V("y")), C(1)), V("z"))]))
    S, ring_names = compiled.system, compiled.ring_variable_names()
    names = sorted(ring_names.values())
    quotient = QuotientAmbient(normalize(parse_presentation("3 2\na1^2\n")))
    rng = random.Random("memo")
    for amb in (FreeNilpotentAmbient(2), quotient):
        c = commutator(*amb.constants().values())
        grid = [{ring_names[v]: power(c, t) for v, t in zip("xyz", ts)}
                for ts in itertools.product((-1, 0, 1), (-1, 0, 1), (0, 1))]
        order = list(range(len(grid))) + rng.sample(range(len(grid)), len(grid))
        for box, find_all in itertools.product((0, 1, 2), (False, True)):
            if find_all and box == 2 and amb is quotient:
                continue

            def fresh(pin, limit):
                return bounded_solve_group(S, amb, box, pinned=pin, find_all=find_all, eval_limit=limit)

            limits: list = []
            for pin in grid:
                limits.append(_smallest_limit(lambda lim: fresh(pin, lim), dict.fromkeys(limits[::-1])))
            expected = [_outcome(lambda: fresh(pin, lim)) for pin, lim in zip(grid, limits)]
            search = diophantine.group_search(S, amb, box, names, find_all=find_all,
                                              eval_limit=max(limits))
            assert [_outcome(lambda: search(grid[i])) for i in order] == [expected[i] for i in order]
            at = {}
            for i in order:
                for lim in (limits[i], limits[i] - 1):
                    if lim not in at:
                        at[lim] = diophantine.group_search(S, amb, box, names, find_all=find_all,
                                                           eval_limit=lim)
                    want = expected[i] if lim == limits[i] else _OVER_LIMIT
                    assert _outcome(lambda: at[lim](grid[i])) == want, (box, find_all, i, lim)


def test_prepared_search_memo_is_capped(monkeypatch):
    # a grid of 13^3 = 2197 pins, more than the memo's cap, runs through one
    # prepared search within a traced peak of 2 MB (0.4 MB measured), and a
    # memo emptied every 8 entries, mid-search too, finds the same pins
    # solvable: those that solve x*y + 1 = z with auxiliaries in box 1
    compiled = compile_system(z_in_g_templates(), _ring(
        ["x", "y", "z"], [(ADD(MUL(V("x"), V("y")), C(1)), V("z"))]))
    S, ring_names = compiled.system, compiled.ring_variable_names()
    amb = FreeNilpotentAmbient(2)
    c = commutator(*amb.constants().values())
    grid = list(itertools.product(range(-6, 7), repeat=3))
    pins = [{ring_names[v]: power(c, t) for v, t in zip("xyz", ts)} for ts in grid]
    assert len(pins) > diophantine._MEMO_CAP

    def solvable():
        search = diophantine.group_search(S, amb, 1, sorted(ring_names.values()), find_all=False,
                                          eval_limit=10**6)
        return [ts for ts, pin in zip(grid, pins) if search(pin)]

    found, peak = traced_peak(solvable)
    assert peak < 2 * 2**20
    assert found and all(x * y + 1 == z for x, y, z in found)
    monkeypatch.setattr(diophantine, "_MEMO_CAP", 8)
    assert solvable() == found


def _net_exponents(w):
    """Each name's net exponent in w outside its brackets."""
    net = {}
    for f in w:
        if f[0] != "comm":
            net[f[0]] = net.get(f[0], 0) + f[1]
    return net


def _compiled_equations(rng):
    """Each template's equations and 400 seeded random ones."""
    edef = z_in_g_templates()
    equations = [eq for tpl in (edef.domain, edef.add, edef.neg, edef.mul, edef.equal)
                 for eq in tpl.equations]
    return equations + [(_random_word(rng, ["x", "y", "z", "a", "b"]),
                         _random_word(rng, ["x", "y", "a"])) for _ in range(400)]


def test_equation_shapes_match_group_arithmetic_and_the_cache_is_bounded():
    # each template's equations and seeded random words: the compiled
    # record's names, reads_gamma and forced names are those read off the
    # words, constants included, its residual and forced values are those
    # of group arithmetic at random elements of ranks 2-4, its slopes are
    # the differences of those values, and the cache keeps to its size over
    # more equations than it holds
    rng = random.Random("shapes")
    for lhs, rhs in _compiled_equations(rng):
        names = diophantine.gword_names(lhs) | diophantine.gword_names(rhs)
        shape = diophantine._compile_equation(lhs, rhs)
        net = _net_exponents(lhs)
        for n, e in _net_exponents(rhs).items():
            net[n] = net.get(n, 0) - e
        assert shape.names == names
        assert shape.reads_gamma == {n for n, e in net.items() if e}
        forced = [(a, b) for a, b in ((lhs, rhs), (rhs, lhs))
                  if len(a) == 1 and a[0][0] != "comm" and abs(a[0][1]) == 1]
        assert [(x, w) for x, _, _, w in shape.forced] == [
            (a[0][0], diophantine.gword_names(b)) for a, b in forced]
        for m in (2, 3, 4):
            env = {n: MalcevElement(m, tuple(rng.randint(-4, 4) for _ in range(m)),
                                    tuple(rng.randint(-4, 4) for _ in range(m * (m - 1) // 2)))
                   for n in names}

            def residual(at):
                return multiply(_walk_gword(lhs, at, m), inverse(_walk_gword(rhs, at, m)))

            assert shape.residual(env, m) == residual(env)
            for (_, form, _, _), (a, b) in zip(shape.forced, forced):
                assert form(env, m) == power(_walk_gword(b, env, m), a[0][1])
            for n in names - {n for n, _ in shape.residual.linear}:
                g0 = residual({**env, n: identity(m)}).gamma
                probes = tuple(
                    tuple(g - h for g, h in zip(residual({**env, n: generator(m, k)}).gamma, g0))
                    for k in range(1, m + 1))
                assert shape.residual.slope(n, env, m) == probes
    info = diophantine._compile_equation.cache_info()
    assert info.misses > info.maxsize and info.currsize <= info.maxsize


class _Reads(dict):
    """A dict that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_compiled_equations_list_the_names_each_polynomial_reads():
    # the reads of the residual and of each forced polynomial are
    # _read_names of it, and exactly the names a call of it reads
    rng = random.Random("reads")
    for lhs, rhs in _compiled_equations(rng):
        shape = diophantine._compile_equation(lhs, rhs)
        for poly, reads in [(shape.residual, shape.reads)] + [f[1:3] for f in shape.forced]:
            assert reads == diophantine._read_names(poly)
            images = _Reads({n: MalcevElement(3, tuple(rng.randint(-4, 4) for _ in range(3)),
                                              (rng.randint(-4, 4),) * 3) for n in shape.names})
            poly(images, 3)
            assert tuple(sorted(images.read)) == reads


def test_equation_shapes_are_shared_as_written_and_compiled_per_renaming():
    # two systems compiled from one ring system share each compiled
    # record; a renamed copy of an equation is compiled on its own and
    # evaluates the same at the renamed images
    ring = _ring(["x", "y", "z"], [(ADD(MUL(V("x"), V("y")), C(1)), V("z"))])
    first, second = (compile_system(z_in_g_templates(), ring).system for _ in range(2))
    assert first.equations == second.equations
    assert all(a is b for a, b in zip(first._shapes, second._shapes))
    rng = random.Random("renamed")
    lhs, rhs = _random_word(rng, ["x", "y", "a"]), (gen("x", 1), gen("z", -1))
    names = sorted(diophantine.gword_names(lhs) | diophantine.gword_names(rhs))
    mapping = {n: f"copy_{n}" for n in names}
    copied = tuple(diophantine._rename_word(w, mapping) for w in (lhs, rhs))
    shape = diophantine._compile_equation(lhs, rhs)
    misses = diophantine._compile_equation.cache_info().misses
    renamed = diophantine._compile_equation(*copied)
    assert diophantine._compile_equation.cache_info().misses == misses + 1
    assert renamed.residual is not shape.residual
    assert renamed.names == {mapping[n] for n in shape.names}
    for m in (2, 3):
        env = {n: MalcevElement(m, tuple(rng.randint(-4, 4) for _ in range(m)),
                                tuple(rng.randint(-4, 4) for _ in range(m * (m - 1) // 2)))
               for n in names}
        moved = {mapping[n]: y for n, y in env.items()}
        assert renamed.residual(moved, m) == shape.residual(env, m)


def test_verify_leaves_the_ambient_as_it_found_it():
    # each search keeps its memo, slope echelons included, to itself: a
    # verify, free and over a quotient, changes no attribute of the ambient
    ring = _ring(["x", "y", "z"], [(MUL(V("x"), V("y")), V("z"))])
    quotient = QuotientAmbient(normalize(parse_presentation("3 2\na1^2\n")))
    for amb in (FreeNilpotentAmbient(2), quotient):
        before = copy.deepcopy(vars(amb))
        assert verify_correspondence(ring, z_in_g_templates(), amb, 1, 1).ok
        assert vars(amb) == before
