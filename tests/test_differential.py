import random
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from helpers import derive_recursive, q_d, random_diff_word, random_word, record_hashes
from opgroups import operated
from opgroups.differential import (
    DiffLetter,
    DiffTarget,
    DiffWord,
    derive,
    derive_power,
    diff_gen,
    evaluate,
    format_diff_word,
    inverse_power_formula,
    parse_diff_word,
    product_formula,
    shift_orders,
)
from opgroups.finite import (Law, constant_operator, cyclic, dihedral, enumerate_operators,
                             symmetric)
from opgroups.operated import OperatedTarget, UnassignedGeneratorError
from opgroups.words import Atom, Word, WordSyntaxError, parse_word

x0 = diff_gen("x")
y0 = diff_gen("y")


def L(sym, order, sign=1):
    return DiffLetter(sym, order, sign)


# --- the derivation -----------------------------------------------------------

def test_derive_single_letter():
    assert derive(x0) == diff_gen("x", 1)
    assert derive(diff_gen("x", 4)) == diff_gen("x", 5)


def test_derive_inverse_letter():
    # D(z^-1) = z^-1 D(z)^-1 z for a letter z
    assert derive(x0.inverse()) == DiffWord([L("x", 0, -1), L("x", 1, -1), L("x", 0, 1)])


def test_derive_identity():
    assert derive(DiffWord()) == DiffWord()


def test_derive_two_letters():
    # hand recursion: D(x y) = D(x) x D(y) x^-1
    got = derive(x0 * y0)
    expected = DiffWord([L("x", 1), L("x", 0), L("y", 1), L("x", 0, -1)])
    assert got == expected


def test_derive_matches_product_rule_random():
    rng = random.Random(3)
    for _ in range(400):
        g = random_diff_word(rng)
        h = random_diff_word(rng)
        assert derive(g * h) == derive(g) * g * derive(h) * g.inverse()


def test_three_factor_expansion():
    # D(g h k) = D(g) g D(h) h D(k) h^-1 g^-1
    rng = random.Random(5)
    for _ in range(200):
        g, h, k = (random_diff_word(rng) for _ in range(3))
        lhs = derive(g * h * k)
        rhs = derive(g) * g * derive(h) * h * derive(k) * h.inverse() * g.inverse()
        assert lhs == rhs


def test_derive_power():
    assert derive_power(x0, 3) == diff_gen("x", 3)
    w = x0 * y0.inverse()
    assert derive_power(w, 0) == w
    assert derive_power(x0 * y0, 2) == derive(derive(x0 * y0))
    with pytest.raises(ValueError):
        derive_power(w, -1)


def test_derive_matches_recursive_oracle():
    rng = random.Random(31)
    for _ in range(500):
        w = random_diff_word(rng, max_len=8, max_order=3)
        assert derive(w) == derive_recursive(w)


def test_derive_matches_the_fully_reduced_product_formula():
    # derive reduces only the seam between the pieces and w^-1, yet its
    # result is the fully reduced word of the definition
    rng = random.Random(53)
    for _ in range(500):
        w = random_diff_word(rng, max_len=8, max_order=3)
        got = derive(w)
        assert got == derive_recursive(w)
        assert not any(a.cancels(b) for a, b in zip(got.atoms, got.atoms[1:]))


def test_derive_cancels_a_long_seam():
    # x.2 x.1 x.1 x.0 | x.0^-1 x.1^-1: two pairs cancel at the seam
    assert derive(parse_diff_word("x.1 x.0")) == parse_diff_word("x.2 x.1")
    w = parse_diff_word("y.0 x.1 x.0")
    assert derive(w) == parse_diff_word("y.1 y.0 x.2 x.1 y.0^-1") == derive_recursive(w)


def test_derive_power_matches_iterated_oracle():
    rng = random.Random(37)
    for _ in range(100):
        w = random_diff_word(rng, max_len=4)
        expected = w
        for n in range(4):
            assert derive_power(w, n) == expected
            expected = derive_recursive(expected)


def test_derive_power_length_triples():
    # |D^n(x.0 y.0)| = 4 * 3^(n-1); n = 9 is 26,244 letters, so a derive that
    # is quadratic in its output does not finish in reasonable time
    for n in range(1, 10):
        assert len(derive_power(x0 * y0, n)) == 4 * 3 ** (n - 1)


def test_derive_power_hashes_no_letter(monkeypatch):
    # neither through DiffLetter.__hash__ nor by a direct call of hash()
    w = parse_diff_word("x y.1^-1 z.2 x^-1 y")
    calls = record_hashes(monkeypatch)
    got = derive_power(w, 4)
    assert calls == [] and got._hash is None
    monkeypatch.undo()
    assert got == derive(derive(derive(derive(w))))


# --- closed formulas as oracles ------------------------------------------------

def test_product_formula_single_factor_collapses():
    rng = random.Random(7)
    for _ in range(50):
        g = random_diff_word(rng)
        assert product_formula([g]) == derive(g)


def test_product_formula_matches_derive():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(100):
            gs = [random_diff_word(rng, max_len=4) for _ in range(n)]
            prod = DiffWord()
            for g in gs:
                prod = prod * g
            assert product_formula(gs) == derive(prod)


def test_product_formula_of_long_factors_matches_oracle():
    # factors of two or more letters, so the formula is not derive itself
    rng = random.Random(41)

    def factor():
        while len(g := random_diff_word(rng, max_len=5)) < 2:
            pass
        return g

    for n in (1, 2, 3, 4):
        for _ in range(100):
            gs = [factor() for _ in range(n)]
            prod = DiffWord([a for g in gs for a in g.atoms])
            assert product_formula(gs) == derive_recursive(prod)


def test_product_formula_rejects_empty():
    with pytest.raises(ValueError):
        product_formula([])


def test_inverse_power_formula_base_case():
    assert inverse_power_formula(x0, 1) == DiffWord(
        [L("x", 0, -1), L("x", 1, -1), L("x", 0, 1)])
    assert inverse_power_formula(x0, 1) == derive(x0.inverse())


def test_inverse_power_formula_matches_derive():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(100):
            g = random_diff_word(rng, max_len=4)
            assert inverse_power_formula(g, n) == derive(g.inverse() ** n)


def test_inverse_power_formula_rejects_zero():
    with pytest.raises(ValueError):
        inverse_power_formula(x0, 0)


# --- order shift ----------------------------------------------------------------

def test_shift_orders_examples():
    w = x0 * diff_gen("y", 2, -1)
    assert shift_orders(w) == diff_gen("x", 1) * diff_gen("y", 3, -1)
    assert shift_orders(DiffWord()) == DiffWord()


def test_shift_orders_is_endomorphism():
    rng = random.Random(17)
    for _ in range(200):
        u, v = random_diff_word(rng), random_diff_word(rng)
        assert shift_orders(u * v) == shift_orders(u) * shift_orders(v)
        assert shift_orders(u.inverse()) == shift_orders(u).inverse()


def test_shift_orders_violates_product_rule():
    # the order shift is an endomorphism but not a derivation
    g, h = x0, y0
    assert shift_orders(g * h) != shift_orders(g) * g * shift_orders(h) * g.inverse()


# --- evaluation ------------------------------------------------------------------

def diff_targets():
    out = []
    for g in (cyclic(2), cyclic(4), symmetric(3)):
        for op in enumerate_operators(g, Law.DIFF_PLUS):
            out.append((g, DiffTarget(g, lambda i, op=op: op[i])))
    return out


def test_difftarget_rejects_bad_operator():
    g = symmetric(3)
    with pytest.raises(ValueError, match="product rule"):
        DiffTarget(g, lambda i: i)  # identity map is not a derivation on S3


def test_difftarget_requires_enumerable_carrier():
    class Procedural:
        def identity(self):
            return 0

        def mul(self, a, b):
            return (a + b) % 5

        def inv(self, a):
            return (-a) % 5

    with pytest.raises(ValueError, match=r"^cannot enumerate the carrier to validate the "
                       r"weight-1 differential product rule; an OperatedTarget evaluates "
                       r"into it unchecked$"):
        DiffTarget(Procedural(), lambda a: 0)
    # the evaluator takes an unchecked OperatedTarget into such a carrier
    assert evaluate(parse_diff_word("x.1 y"), {"x": 1, "y": 2},
                    OperatedTarget(Procedural(), lambda a: 3)) == 0


def test_eval_letter_iterates_operator():
    g = cyclic(4)
    ops = enumerate_operators(g, Law.DIFF_PLUS)
    op = next(o for o in ops if o != constant_operator(g))
    t = DiffTarget(g, lambda i: op[i])
    a = g.index("a")
    v = a
    for n in range(4):
        assert evaluate(diff_gen("x", n), {"x": a}, t) == v
        v = op[v]


def test_eval_high_order_letter_does_not_recurse():
    g = cyclic(4)
    t = DiffTarget(g, lambda i: 0)
    assert evaluate(parse_diff_word("x.5000"), {"x": 1}, t) == 0
    assert evaluate(parse_diff_word("x.5000 x.0"), {"x": 1}, t) == 1


def test_eval_identity_and_missing_generator():
    g = cyclic(2)
    t = DiffTarget(g, lambda i: g.identity_index)
    assert evaluate(DiffWord(), {}, t) == g.identity_index
    with pytest.raises(UnassignedGeneratorError, match="'y'"):
        evaluate(y0, {"x": 0}, t)


def test_eval_reads_an_assignment_by_lookup():
    # one rule in every theory: a generator's image is assignment[symbol],
    # so a mapping with a default supplies the missing ones
    g = cyclic(3)
    t = DiffTarget(g, lambda i: g.identity_index)
    w = parse_diff_word("x y")
    assert evaluate(w, defaultdict(int, {"x": 1}), t) == 1
    with pytest.raises(UnassignedGeneratorError, match="'y'"):
        evaluate(w, {"x": 1}, t)


def test_eval_caches_no_image():
    # the plan cached on a word holds no image: one word object evaluated into
    # two targets, each under two assignments, gives what a freshly parsed
    # copy gives, and an unassigned symbol is named on every call
    rng = random.Random(29)
    targets = diff_targets()
    for _ in range(60):
        w = random_diff_word(rng)
        for g, t in rng.sample(targets, 2):
            for _ in range(2):
                assignment = {s: rng.randrange(len(g)) for s in "xyz"}
                fresh = parse_diff_word(format_diff_word(w))
                assert evaluate(w, assignment, t) == evaluate(fresh, assignment, t)
    g, t = targets[-1]
    w = parse_diff_word("x.1 y.2")
    evaluate(w, {"x": 1, "y": 2}, t)
    for _ in range(2):
        with pytest.raises(UnassignedGeneratorError, match="'y'"):
            evaluate(w, {"x": 1}, t)


def test_eval_homomorphism_and_intertwining():
    rng = random.Random(19)
    for g, t in diff_targets():
        assignment = {s: rng.randrange(len(g)) for s in "xyz"}
        for _ in range(40):
            u = random_diff_word(rng)
            v = random_diff_word(rng)
            eu, ev = evaluate(u, assignment, t), evaluate(v, assignment, t)
            assert evaluate(u * v, assignment, t) == g.mul(eu, ev)
            assert evaluate(derive(u), assignment, t) == t.op(eu)


def as_bracketed_word(w: DiffWord) -> Word:
    # the paper's reading of a derived letter: x.n is x inside n brackets
    atoms = []
    for a in w:
        base = a.symbol
        for _ in range(a.order):
            base = Word((Atom(base),))
        atoms.append(Atom(base, a.sign))
    return Word(atoms)


def test_a_derived_word_evaluates_as_its_bracketed_word():
    # one evaluator: operated.evaluate takes a DiffWord, into any self-map,
    # and derives each order of a symbol once
    calls = []
    t = OperatedTarget(cyclic(4), lambda i: calls.append(i) or (i + 1) % 4)
    assert operated.evaluate(parse_diff_word("x.3 y x.1"), {"x": 1, "y": 2}, t) == 0
    assert calls == [1, 2, 3]
    rng = random.Random(37)
    for g in (cyclic(4), symmetric(3)):
        for _ in range(20):
            t = OperatedTarget(g, tuple(rng.randrange(len(g)) for _ in range(len(g))).__getitem__)
            assignment = {s: rng.randrange(len(g)) for s in "xyz"}
            for _ in range(10):
                w = random_diff_word(rng, max_order=4)
                got = operated.evaluate(w, assignment, t)
                assert got == operated.evaluate(as_bracketed_word(w), assignment, t), w
                assert evaluate(w, assignment, t) == got


def test_q_d_sends_each_bracket_to_the_derivative_of_its_body():
    assert format_diff_word(q_d(parse_word("<x y> <<x>>"))) == "x.1 x.0 y.1 x.0^-1 x.2"


def test_q_d_is_multiplicative():
    rng = random.Random(47)
    for _ in range(200):
        u, v = random_word(rng), random_word(rng)
        assert q_d(u * v) == q_d(u) * q_d(v), (u, v)


def test_q_d_commutes_with_every_weight_one_differential_operator():
    # a word evaluates into (G, D) as its image under q_D does: 20 words under
    # each of the 10 operators on S3 and the 36 on D4
    rng = random.Random(53)
    words = [random_word(rng) for _ in range(20)]
    for g in (symmetric(3), dihedral(4)):
        for op in enumerate_operators(g, Law.DIFF_PLUS):
            t = DiffTarget(g, op.__getitem__)
            for w in words:
                assignment = {s: rng.randrange(len(g)) for s in "xyz"}
                assert operated.evaluate(w, assignment, t) == evaluate(q_d(w), assignment, t), w


def test_eval_constant_identity_annihilates_derivatives():
    g = symmetric(3)
    t = DiffTarget(g, lambda i: g.identity_index)
    rng = random.Random(23)
    assignment = {s: rng.randrange(len(g)) for s in "xyz"}
    for _ in range(50):
        w = random_diff_word(rng)
        assert evaluate(derive(w), assignment, t) == g.identity_index


# --- text form --------------------------------------------------------------------

def test_parse_examples():
    assert parse_diff_word("x.0 x.0^-1") == DiffWord()
    assert parse_diff_word("x") == x0
    assert parse_diff_word("x.3^-1") == diff_gen("x", 3, -1)
    assert parse_diff_word("1") == DiffWord()
    assert parse_diff_word("x y.2") == x0 * diff_gen("y", 2)


def test_format_always_prints_order():
    w = derive(x0 * y0)
    assert format_diff_word(w) == "x.1 x.0 y.1 x.0^-1"
    assert format_diff_word(DiffWord()) == "1"


@pytest.mark.parametrize("order", [1.5, True, False])
def test_letter_order_must_be_an_int(order):
    with pytest.raises(TypeError, match="int"):
        DiffLetter("x", order)


@pytest.mark.parametrize("symbol", ["1x", "", "x.1", "x y"])
def test_letter_name_must_be_an_identifier(symbol):
    with pytest.raises(ValueError, match="generator name"):
        DiffLetter(symbol)


@pytest.mark.parametrize("make", [lambda: DiffLetter(3), lambda: DiffLetter(None),
                                  lambda: diff_gen(b"x")], ids=["int", "None", "bytes"])
def test_letter_name_must_be_a_str(make):
    # refused before the name reaches the regex, with the value named
    with pytest.raises(TypeError, match=r"generator name must be a str, got (3|None|b'x')"):
        make()


def test_letter_sign_must_not_be_a_bool():
    # True == 1, so only a type check refuses it
    with pytest.raises(ValueError, match="sign"):
        DiffLetter("x", 0, True)


def test_letter_order_must_not_be_negative():
    with pytest.raises(ValueError, match=r"^derivative order must be >= 0$"):
        DiffLetter("x", -1)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("x 1", 2),
    ("x.y", 0),
    ("x.", 0),
    ("<x>", 0),
    ("x^2", 0),
])
def test_parse_errors(text, offset):
    with pytest.raises(WordSyntaxError) as err:
        parse_diff_word(text)
    assert err.value.position == offset


def test_parse_rejects_an_order_too_long_for_int():
    # int() refuses more than 4,300 digits; the parser names the letter
    w = parse_diff_word("y x." + "7" * 4300)
    assert w.atoms[1].order == int("7" * 4300)
    with pytest.raises(WordSyntaxError, match="too many digits") as err:
        parse_diff_word("y x." + "7" * 4301)
    assert err.value.position == 2


def test_round_trip_random():
    rng = random.Random(29)
    for _ in range(300):
        w = random_diff_word(rng, max_len=8, max_order=3)
        s = format_diff_word(w)
        assert parse_diff_word(s) == w
        assert format_diff_word(parse_diff_word(s)) == s


letters = st.builds(DiffLetter, st.sampled_from(["x", "y"]),
                    st.integers(0, 3), st.sampled_from([1, -1]))
diff_words = st.builds(DiffWord, st.lists(letters, max_size=6))


@given(diff_words, diff_words)
def test_weight_one_rule_hypothesis(g, h):
    assert derive(g * h) == derive(g) * g * derive(h) * g.inverse()


@given(diff_words)
def test_round_trip_hypothesis(w):
    assert parse_diff_word(format_diff_word(w)) == w
