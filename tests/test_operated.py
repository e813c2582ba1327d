import random

import pytest

from helpers import random_word
from opgroups import rota_baxter
from opgroups.finite import (
    Law,
    constant_operator,
    cyclic,
    enumerate_operators,
    identity_operator,
    inversion_operator,
    symmetric,
)
from opgroups.operated import OperatedTarget, UnassignedGeneratorError, bracket, evaluate
from opgroups.words import Atom, Word, format_word, gen, parse_word

x, y = gen("x"), gen("y")


def test_bracket_basics():
    b = bracket(Word())
    assert not b.is_identity and b.breadth() == 1
    assert bracket(x * y).atoms[0].body == x * y
    assert bracket(bracket(x)).depth() == 2
    assert bracket(x).depth() == bracket(x).atoms[0].base.depth() + 1


def evaluate_rightfold(w, assignment, target):
    """Same homomorphism, evaluated right to left: the uniqueness oracle."""
    g, op = target.group, target.op
    acc = g.identity()
    for atom in reversed(w.atoms):
        if atom.is_bracket:
            val = op(evaluate_rightfold(atom.base, assignment, target))
        else:
            val = assignment[atom.base]
        if atom.sign < 0:
            val = g.inv(val)
        acc = g.mul(val, acc)
    return acc


def table_op(images):
    return lambda i: images[i]


def test_eval_identity_word():
    g = cyclic(3)
    t = OperatedTarget(g, table_op(identity_operator(g)))
    assert evaluate(Word(), {}, t) == g.identity_index


def test_eval_direct_recursion():
    # <x> x^-1 evaluates to P(g) g^-1
    g = symmetric(3)
    op = constant_operator(g, g.index("(123)"))
    t = OperatedTarget(g, table_op(op))
    i12 = g.index("(12)")
    got = evaluate(bracket(x) * x.inverse(), {"x": i12}, t)
    assert got == g.mul(g.index("(123)"), g.inv(i12))


def test_eval_constant_identity_on_s3():
    # with P constant at the identity and x -> (12): <x x> evaluates to e
    g = symmetric(3)
    t = OperatedTarget(g, table_op(constant_operator(g)))
    w = bracket(x * x)
    assert evaluate(w, {"x": g.index("(12)")}, t) == g.identity_index


def test_eval_unassigned_generator_names_symbol():
    g = cyclic(2)
    t = OperatedTarget(g, table_op(identity_operator(g)))
    with pytest.raises(UnassignedGeneratorError, match="'y'"):
        evaluate(x * y, {"x": 1}, t)


def test_an_unassigned_generator_is_named_on_every_call():
    # the plan cached on a word lists its generators; whether each has an
    # image is asked again on every call, also after a call that succeeded
    g = cyclic(3)
    t = OperatedTarget(g, table_op((1, 2, 0)))
    w = x * bracket(y)
    assert evaluate(w, {"x": 1, "y": 1}, t) == 0
    for _ in range(2):
        with pytest.raises(UnassignedGeneratorError, match="'y'"):
            evaluate(w, {"x": 1}, t)
    assert evaluate(w, {"x": 2, "y": 0}, t) == 0


def test_eval_deep_nesting_does_not_recurse():
    # <<...<x>...>> with 2,000 brackets: evaluating one bracket level per
    # interpreter frame would overflow the stack
    w = x
    for _ in range(2000):
        w = bracket(w)
    z3 = cyclic(3)
    t = OperatedTarget(z3, lambda i: z3.mul(i, 1))
    assert evaluate(w, {"x": 1}, t) == (1 + 2000) % 3
    s3 = symmetric(3)
    r = s3.index("(123)")
    # the inversion map is a Rota-Baxter operator; an even number of
    # brackets gives back the generator's image
    rb = rota_baxter.RBTarget(s3, table_op(inversion_operator(s3)))
    assert rota_baxter.evaluate(w, {"x": r}, rb) == r
    assert rota_baxter.evaluate(bracket(w), {"x": r}, rb) == s3.inv(r)


def test_walks_take_each_shared_body_once():
    # w = <w y w>, 60 times over: 60 distinct bodies, but 2^60 occurrences of
    # the innermost one, so a walk per occurrence would never finish
    w = x
    for _ in range(60):
        w = bracket(w * y * w)
    assert w.depth() == 60
    assert rota_baxter.is_rb_word(w)
    s3 = symmetric(3)
    gx, gy = s3.index("(12)"), s3.index("(123)")

    def recurrence(op):
        v = gx
        for _ in range(60):
            v = op(s3.mul(s3.mul(v, gy), v))
        return v

    op = table_op((2, 0, 5, 1, 3, 4))
    assert evaluate(w, {"x": gx, "y": gy}, OperatedTarget(s3, op)) == recurrence(op)
    rb = table_op(inversion_operator(s3))
    assert rota_baxter.evaluate(w, {"x": gx, "y": gy},
                                rota_baxter.RBTarget(s3, rb)) == recurrence(rb)
    # <A> <B>, where A and B hold the one body of <x>: it is valued first
    inner = bracket(x)
    u = bracket(inner * y) * bracket(y * inner)
    assert u.depth() == 2
    for t in _random_targets():
        assignment = {"x": 1, "y": 0}
        assert evaluate(u, assignment, t) == evaluate_rightfold(u, assignment, t)


def _random_targets():
    # a few finite targets with arbitrary operators (no law is required)
    rng = random.Random(23)
    out = []
    for g in (cyclic(2), cyclic(4), symmetric(3)):
        n = len(g)
        for _ in range(3):
            images = tuple(rng.randrange(n) for _ in range(n))
            out.append(OperatedTarget(g, table_op(images)))
        out.append(OperatedTarget(g, table_op(identity_operator(g))))
    return out


def test_eval_is_homomorphism():
    rng = random.Random(29)
    targets = _random_targets()
    for _ in range(150):
        t = rng.choice(targets)
        g = t.group
        assignment = {s: rng.randrange(len(g)) for s in "xyz"}
        u = random_word(rng)
        v = random_word(rng)
        eu, ev = evaluate(u, assignment, t), evaluate(v, assignment, t)
        assert evaluate(u * v, assignment, t) == g.mul(eu, ev)
        assert evaluate(u.inverse(), assignment, t) == g.inv(eu)


def test_eval_intertwines_bracket_with_operator():
    rng = random.Random(31)
    targets = _random_targets()
    for _ in range(150):
        t = rng.choice(targets)
        assignment = {s: rng.randrange(len(t.group)) for s in "xyz"}
        w = random_word(rng)
        assert evaluate(bracket(w), assignment, t) == t.op(evaluate(w, assignment, t))


def test_eval_recursion_order_irrelevant():
    rng = random.Random(37)
    targets = _random_targets()
    for _ in range(200):
        t = rng.choice(targets)
        assignment = {s: rng.randrange(len(t.group)) for s in "xyz"}
        w = random_word(rng, max_depth=3, max_breadth=5)
        assert evaluate(w, assignment, t) == evaluate_rightfold(w, assignment, t)


def test_a_word_evaluates_as_a_fresh_copy_of_itself():
    # the plan cached on a word holds no image: one word object evaluated
    # into two targets, each under two assignments, gives what a freshly
    # parsed copy (with no plan yet) gives
    rng = random.Random(43)
    targets = _random_targets()
    for _ in range(60):
        w = random_word(rng, max_depth=3, max_breadth=5)
        for t in rng.sample(targets, 2):
            for _ in range(2):
                assignment = {s: rng.randrange(len(t.group)) for s in "xyz"}
                fresh = parse_word(format_word(w))
                assert evaluate(w, assignment, t) == evaluate(fresh, assignment, t)


def test_eval_against_every_endomorphism_of_s3():
    # the homomorphism property holds for every enumerated endomorphism
    rng = random.Random(41)
    g = symmetric(3)
    for op in enumerate_operators(g, Law.ENDO):
        t = OperatedTarget(g, table_op(op))
        assignment = {s: rng.randrange(len(g)) for s in "xyz"}
        for _ in range(20):
            u, v = random_word(rng), random_word(rng)
            assert evaluate(u * v, assignment, t) == g.mul(
                evaluate(u, assignment, t), evaluate(v, assignment, t))
