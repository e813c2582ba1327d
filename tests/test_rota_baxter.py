import random
import sys
from collections import defaultdict

import pytest

from helpers import diamond_rewrite, psi, random_rb_word, rb_words, record_hashes
from opgroups import rota_baxter
from opgroups.finite import Law, cyclic, dihedral, enumerate_operators, symmetric
from opgroups.operated import OperatedTarget, UnassignedGeneratorError, bracket
from opgroups.rota_baxter import (
    DiamondLimitError,
    RBTarget,
    diamond,
    evaluate,
    find_rb_violation,
    is_rb_word,
    rb_bracket,
    rb_inverse,
)
from opgroups.words import Word, format_word, gen, parse_word

x, y, z = gen("x"), gen("y"), gen("z")


# --- the word predicate --------------------------------------------------------

def test_is_rb_word_examples():
    assert not is_rb_word(bracket(x) * bracket(y))
    assert is_rb_word(bracket(x) * rb_inverse(bracket(y)))
    assert is_rb_word(Word())
    assert not is_rb_word(bracket(x, ) * bracket(y))


def test_is_rb_word_checks_nested_levels():
    w = bracket(bracket(x) * bracket(y))  # violation hidden inside the body
    assert not is_rb_word(w)
    assert "inside bracket" in find_rb_violation(w)


def test_is_rb_word_rejects_empty_bracket_body():
    assert not is_rb_word(bracket(Word()))
    assert "empty body" in find_rb_violation(bracket(Word()))


def test_violation_message_names_adjacency():
    msg = find_rb_violation(parse_word("<x> <y>"))
    assert "<x>" in msg and "<y>" in msg and "0-1" in msg


def test_diamond_rejects_non_rb_input():
    with pytest.raises(ValueError, match="not a Rota-Baxter word"):
        diamond(parse_word("<x> <y>"), x)


# --- bracket operator and inverse -----------------------------------------------

def test_rb_bracket_examples():
    assert rb_bracket(x * bracket(y, ).inverse()) == parse_word("<x <y>^-1>")
    # the bracket of the identity is the identity: forced by the relation
    assert rb_bracket(Word()) == Word()


def test_rb_inverse_examples():
    assert rb_inverse(bracket(x) * y) == y.inverse() * bracket(x).inverse()
    assert rb_inverse(Word()) == Word()


def test_closure_under_bracket_and_inverse():
    rng = random.Random(3)
    for _ in range(300):
        w = random_rb_word(rng)
        assert is_rb_word(rb_bracket(w))
        assert is_rb_word(rb_inverse(w))


# --- the diamond product ---------------------------------------------------------

def test_diamond_generators_concatenate():
    assert diamond(x, y) == x * y


def test_diamond_cancellation():
    assert diamond(x, x.inverse()) == Word()


def test_diamond_identity_and_inverse():
    rng = random.Random(5)
    for _ in range(300):
        w = random_rb_word(rng)
        assert diamond(w, Word()) == w
        assert diamond(Word(), w) == w
        assert diamond(w, rb_inverse(w)).is_identity
        assert diamond(rb_inverse(w), w).is_identity


def test_diamond_positive_brackets_hand_computed():
    # <x> ⋄ <y>: the twist of y by <x> is <x> y <x>^-1, so the body is
    # x <x> y <x>^-1
    assert diamond(bracket(x), bracket(y)) == parse_word("<x <x> y <x>^-1>")
    # and the rewriting oracle agrees
    assert diamond_rewrite(bracket(x), bracket(y)) == parse_word("<x <x> y <x>^-1>")


def test_diamond_negative_brackets_swap():
    got = diamond(rb_inverse(bracket(x)), rb_inverse(bracket(y)))
    assert got == rb_inverse(diamond(bracket(y), bracket(x)))
    assert got == parse_word("<y <y> x <y>^-1>^-1")


def test_diamond_results_are_rb_words():
    rng = random.Random(7)
    for _ in range(500):
        u, v = random_rb_word(rng), random_rb_word(rng)
        assert is_rb_word(diamond(u, v))


def test_diamond_agrees_with_rewriting_oracle():
    rng = random.Random(11)
    for _ in range(2000):
        u, v = random_rb_word(rng), random_rb_word(rng)
        assert diamond(u, v) == diamond_rewrite(u, v)


def _chain(core: Word, length: int, sign: int) -> Word:
    # `length` nested positive brackets around core, the outermost one signed
    for _ in range(length):
        core = rb_bracket(core)
    return core if sign > 0 else rb_inverse(core)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("left", [1, 2, 3, 4])
@pytest.mark.parametrize("right", [1, 2, 3, 4])
def test_diamond_merges_same_sign_chains_like_the_oracle(left, right, sign):
    # the seam shape of the benchmark: two same-sign chains of nested
    # brackets, each with shallow atoms on its far side
    rng = random.Random(100 * left + 10 * right + sign)
    core = lambda: random_rb_word(rng, max_depth=0, max_breadth=3, nonempty=True)
    side = lambda: random_rb_word(rng, max_depth=1, max_breadth=2)
    for _ in range(3):
        u = diamond(side(), _chain(core(), left, sign))
        v = diamond(_chain(core(), right, sign), side())
        got = diamond(u, v)
        assert got == diamond_rewrite(u, v)
        assert is_rb_word(got)


def test_diamond_cancels_a_long_word():
    # one stack push per letter, so 15,000 cancellations do not recurse
    w = (x * bracket(y * rb_inverse(bracket(z))) * z.inverse()) ** 5000
    assert len(w) == 15_000
    assert diamond(w, rb_inverse(w)) == Word() == diamond_rewrite(w, rb_inverse(w))
    assert diamond(w, w) == w ** 2 == diamond_rewrite(w, w)


def test_diamond_rewrite_trivia():
    assert diamond_rewrite(x, x.inverse()) == Word()
    u = bracket(x) * y
    assert diamond_rewrite(u, Word()) == u


def test_recursion_guard_is_configurable(monkeypatch):
    u = rb_bracket(rb_bracket(rb_bracket(x)))
    monkeypatch.setattr(rota_baxter, "MERGE_BUDGET", 3)
    with pytest.raises(DiamondLimitError):
        diamond(u, u)


def test_guard_error_names_budget_and_operands(monkeypatch):
    u = rb_bracket(rb_bracket(rb_bracket(x)))
    monkeypatch.setattr(rota_baxter, "MERGE_BUDGET", 3)
    with pytest.raises(DiamondLimitError, match=r"^diamond recursion guard exceeded: more "
                       r"than 3 distinct subproducts for operands of length 1 and 1, "
                       r"depth 3 and 3$"):
        diamond(u, u)


def test_diamond_hashes_no_atom_and_no_word(monkeypatch):
    # the merge memo is keyed by the identities of the bracket bodies
    pairs = [(parse_word(s), parse_word(t)) for s, t in [
        ("x <y <x>^-1 z>", "<<x> y> <z>^-1 x"),
        ("<x>^-1 y <y <z>>^-1", "<<y>^-1 x>^-1 y"),
        ("<<<x>>>", "<<<x>>>"),
    ]]
    calls = record_hashes(monkeypatch)
    got = [diamond(u, v) for u, v in pairs]
    assert calls == [] and all(r._hash is None for r in got)
    monkeypatch.undo()
    assert got == [diamond_rewrite(u, v) for u, v in pairs]


def test_depth_five_square_computes_each_subproduct_once(monkeypatch):
    # one product memoises its bracket merges: exactly 453 distinct ones
    # here, where recomputing every subproduct on every request took about
    # 2.8e7 steps
    w = parse_word("<<<<<x>>>>>")
    monkeypatch.setattr(rota_baxter, "MERGE_BUDGET", 453)
    r = diamond(w, w)
    assert is_rb_word(r) and not r.is_identity
    monkeypatch.setattr(rota_baxter, "MERGE_BUDGET", 452)
    with pytest.raises(DiamondLimitError, match=r"more than 452 distinct subproducts "
                       r"for operands of length 1 and 1, depth 5 and 5$"):
        diamond(w, w)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="merges nest as deep as the brackets of the result")
def test_depth_eight_square_computes_near_the_callers_recursion_depth():
    # the square's merges nest 143 deep, the depth of the result; they should
    # run on an explicit stack, not on the interpreter's
    w = parse_word("<<<<<<<<x>>>>>>>>")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        r = diamond(w, w)
    finally:
        sys.setrecursionlimit(limit)
    assert is_rb_word(r) and r.depth() == 143


def test_depth_four_square_agrees_with_rewriting_oracle():
    w = parse_word("<<<<x>>>>")
    assert diamond(w, w) == diamond_rewrite(w, w)


# B(x) B(a) = B(x B(x) a B(x)^-1) = B(1) = 1 for a = B(x)^-1 x^-1 B(x), so
# <a> ⋄ <x> is 1 in every Rota-Baxter group; the merge of <a> with <x> asks
# for its own result, which recursed until RecursionError
SELF_MERGING = "<<x>^-1 x^-1 <x>>"


def test_a_merge_that_asks_for_its_own_result_raises_the_guard():
    b = parse_word(SELF_MERGING)
    message = (r"^diamond recursion guard: the merge of <<x>\^-1 x\^-1 <x>> and <x> "
               r"asks for its own result$")
    with pytest.raises(DiamondLimitError, match=message):
        diamond(b, bracket(x))
    # the mirror pair, through the swapped positive merge
    with pytest.raises(DiamondLimitError, match=message):
        diamond(rb_inverse(bracket(x)), rb_inverse(b))
    # the other order merges to an empty body, and the bracket of 1 is 1
    assert diamond(bracket(x), b) == Word()


def test_products_with_a_self_merging_bracket_compute_or_raise_the_guard():
    # every RB word over {x} of size <= 6 on the other side: the same 455
    # words fail on each side, by the guard and not by RecursionError
    words = rb_words(("x",), 6)
    assert len(words) == 5245
    b = parse_word(SELF_MERGING)
    b_inverse = rb_inverse(b)
    for product in (lambda w: diamond(b, w), lambda w: diamond(w, b_inverse)):
        failed = 0
        for w in words:
            try:
                product(w)
            except DiamondLimitError:
                failed += 1
        assert failed == 455


# --- the conjugation twist --------------------------------------------------------

def conjugate(u, v):
    """The left-bracketed diamond conjugation (u ⋄ v) ⋄ u^-1: for a positive
    bracket u, the twist by which diamond merges u with <v>."""
    return diamond(diamond(u, v), rb_inverse(u))


def test_conjugate_examples():
    assert conjugate(bracket(x), y) == bracket(x) * y * rb_inverse(bracket(x))
    assert conjugate(bracket(x), Word()) == Word()


def test_conjugate_matches_diamond_conjugation():
    # the twist inside a merge is the conjugation computed by two products
    rng = random.Random(13)
    for _ in range(1000):
        u = rb_bracket(random_rb_word(rng, max_depth=2, nonempty=True))
        v = random_rb_word(rng)
        assert diamond(u, rb_bracket(v)) == rb_bracket(diamond(u.atoms[0].base, conjugate(u, v)))


def test_conjugate_cancels_a_final_negative_bracket_first():
    # (<z> ⋄ <z>^-1) ⋄ <z>^-1 = <z>^-1: the final <z>^-1 of v cancels against
    # u before the closing u^-1 is merged in
    z_b = bracket(z)
    assert conjugate(z_b, rb_inverse(z_b)) == rb_inverse(z_b)


@pytest.mark.parametrize("u, expected", [
    (z, "<z <z>^-1>"),
    (y.inverse() * z.inverse(), "<y^-1 z^-1 <y^-1 z^-1>^-1>"),
], ids=["z", "y^-1_z^-1"])
def test_rb_relation_when_v_is_the_inverse_bracket_of_u(u, expected):
    # the witnesses of seed 17 in the test below: v = <u>^-1
    bu = rb_bracket(u)
    v = rb_inverse(bu)
    lhs = diamond(bu, rb_bracket(v))
    rhs = rb_bracket(diamond(u, diamond(diamond(bu, v), rb_inverse(bu))))
    assert lhs == rhs == parse_word(expected)


def test_rb_relation_on_the_free_object():
    rng = random.Random(17)
    for _ in range(1000):
        u = random_rb_word(rng, max_depth=2)
        v = random_rb_word(rng, max_depth=2)
        bu, bv = rb_bracket(u), rb_bracket(v)
        lhs = diamond(bu, bv)
        rhs = rb_bracket(diamond(u, diamond(diamond(bu, v), rb_inverse(bu))))
        assert lhs == rhs


def test_weight_minus_one_conversion_on_free_object():
    # C(w) = <w^-1> satisfies C(u) ⋄ C(v) = C((C(u) ⋄ v ⋄ C(u)^-1) ⋄ u)
    rng = random.Random(19)
    for _ in range(500):
        u = random_rb_word(rng, max_depth=2)
        v = random_rb_word(rng, max_depth=2)

        def c(w):
            return rb_bracket(rb_inverse(w))

        lhs = diamond(c(u), c(v))
        twisted = diamond(diamond(c(u), v), rb_inverse(c(u)))
        rhs = c(diamond(twisted, u))
        assert lhs == rhs


# --- known defect of the bracket-word model ---------------------------------------
#
# The merge rules are not confluent: a negative bracket absorbs an adjacent
# positive bracket in no rule, yet group structure would force
# B(a)^-1 B(b) = B(B(a)^-1 a^-1 b B(a)).  A census counts the failures of the
# group laws over every small word, and the smallest witnesses are pinned, so
# the behaviour is documented and stable.

def test_known_nonassociative_triple():
    u = rb_inverse(bracket(x))
    v = bracket(x)
    w = bracket(y)
    left = diamond(diamond(u, v), w)
    right = diamond(u, diamond(v, w))
    assert left == bracket(y)
    assert right == parse_word("<x>^-1 <x <x> y <x>^-1>")
    assert left != right  # the word model is not a group on this triple


def test_census_of_group_law_failures_at_size_two():
    # every reduced RB word over {x, y} of size <= 2; a random sampler
    # rarely puts brackets on both sides of a seam, so it under-counts
    words = rb_words(("x", "y"), 2)
    assert len(words) == len(set(words)) == 25
    assert all(is_rb_word(w) for w in words)
    products = {(u, v): diamond(u, v) for u in words for v in words}
    assert sum(diamond(products[u, v], w) != diamond(u, products[v, w])
               for u in words for v in words for w in words) == 192
    inverses = [(v, rb_inverse(v)) for v in words]
    assert sum(diamond(products[u, v], vi) != u for u in words for v, vi in inverses) == 32
    assert sum(diamond(vi, products[v, u]) != u for u in words for v, vi in inverses) == 32


def test_psi_is_an_involution_on_the_words_of_size_two():
    # psi, induced by B -> B~ (B~(g) = g^-1 B(g^-1)), squares to the identity
    # of the free RB group
    words = rb_words(("x", "y"), 2)
    assert len(words) == 25
    assert all(psi(psi(w)) == w for w in words)


def test_psi_squared_names_16_words_of_size_three_otherwise():
    # each such pair is two names of one element, which the diamond's rules
    # do not identify; the smallest meets a negative bracket with a positive one
    words = rb_words(("x", "y"), 3)
    assert len(words) == 165
    moved = [w for w in words if psi(psi(w)) != w]
    assert len(moved) == 16
    assert format_word(moved[0]) == "<<x>>"
    assert format_word(psi(psi(moved[0]))) == "<x>^-1 <x <x <x> x <x>^-1> <x>^-1>"


def test_smallest_witness_the_cube_of_a_bracket_depends_on_its_bracketing():
    # three factors of size 2, the smallest size at which a law fails
    b = bracket(x)
    left = diamond(diamond(b, b), rb_inverse(b))
    right = diamond(b, diamond(b, rb_inverse(b)))
    assert left == parse_word("<x <x> x <x>^-1> <x>^-1")
    assert right == b


# --- evaluation --------------------------------------------------------------------

def rb_targets():
    out = []
    for g in (cyclic(2), cyclic(3), symmetric(3), dihedral(4)):
        for op in enumerate_operators(g, Law.RB_PLUS):
            out.append((g, RBTarget(g, lambda i, op=op: op[i])))
    return out


def test_rbtarget_rejects_bad_operator():
    g = symmetric(3)
    bad = [g.identity_index] * 5 + [g.index("(12)")]
    with pytest.raises(ValueError, match="Rota-Baxter"):
        RBTarget(g, lambda i: bad[i])


def test_rbtarget_requires_enumerable_carrier():
    class Procedural:
        def identity(self):
            return 0

        def mul(self, a, b):
            return (a + b) % 7

        def inv(self, a):
            return (-a) % 7

    with pytest.raises(ValueError, match=r"^cannot enumerate the carrier to validate the "
                       r"weight-1 Rota-Baxter relation; an OperatedTarget evaluates "
                       r"into it unchecked$"):
        RBTarget(Procedural(), lambda a: 0)
    # the evaluator takes an unchecked OperatedTarget into such a carrier
    assert evaluate(parse_word("<x> y"), {"x": 1, "y": 2},
                    OperatedTarget(Procedural(), lambda a: 3)) == 5


def test_eval_examples():
    g = symmetric(3)
    op = [g.inv(i) for i in range(len(g))]  # inversion is a Rota-Baxter operator
    t = RBTarget(g, lambda i: op[i])
    assert evaluate(Word(), {}, t) == g.identity_index
    i12 = g.index("(12)")
    # <x> x^-1 evaluates to B(g) g^-1
    got = evaluate(bracket(x) * x.inverse(), {"x": i12}, t)
    assert got == g.mul(op[i12], g.inv(i12))
    with pytest.raises(UnassignedGeneratorError):
        evaluate(y, {"x": i12}, t)


def test_eval_reads_an_assignment_by_lookup():
    # one rule in every theory: a generator's image is assignment[symbol],
    # so a mapping with a default supplies the missing ones
    g = cyclic(3)
    t = RBTarget(g, lambda i: g.inv(i))  # inversion is a Rota-Baxter operator
    assert evaluate(x * y, defaultdict(int, {"x": 1}), t) == 1
    with pytest.raises(UnassignedGeneratorError, match="'y'"):
        evaluate(x * y, {"x": 1}, t)


def test_a_non_rb_word_is_refused_on_every_call():
    # the verdict cached on a word is the verdict itself, not a note that the
    # word was checked
    g = symmetric(3)
    t = RBTarget(g, lambda i: g.inv(i))
    w = parse_word("<x> <y>")
    for _ in range(2):
        assert not is_rb_word(w)
        with pytest.raises(ValueError, match="not a Rota-Baxter word"):
            evaluate(w, {"x": 1, "y": 2}, t)
        with pytest.raises(ValueError, match="left factor is not a Rota-Baxter word"):
            diamond(w, x)
        with pytest.raises(ValueError, match="right factor is not a Rota-Baxter word"):
            diamond(x, w)


def test_eval_homomorphism_and_intertwining():
    rng = random.Random(23)
    for g, t in rb_targets():
        assignment = {s: rng.randrange(len(g)) for s in "xyz"}
        for _ in range(25):
            u = random_rb_word(rng, max_depth=2)
            v = random_rb_word(rng, max_depth=2)
            eu, ev = evaluate(u, assignment, t), evaluate(v, assignment, t)
            assert evaluate(diamond(u, v), assignment, t) == g.mul(eu, ev)
            assert evaluate(rb_bracket(u), assignment, t) == t.op(eu)
            assert evaluate(rb_inverse(u), assignment, t) == g.inv(eu)


def test_eval_of_bracket_product_is_operator_product():
    # eval(<x> ⋄ <y>) = B(f(x)) B(f(y)) over every validated fixture target
    rng = random.Random(29)
    w = diamond(bracket(x), bracket(y))
    for g, t in rb_targets():
        for _ in range(10):
            fx, fy = rng.randrange(len(g)), rng.randrange(len(g))
            got = evaluate(w, {"x": fx, "y": fy}, t)
            assert got == g.mul(t.op(fx), t.op(fy))
