import random
import re

import pytest
from hypothesis import given, strategies as st

from helpers import power_streamed, random_diff_word, random_word, record_hashes
from opgroups import operated
from opgroups.differential import DiffLetter, DiffWord, format_diff_word, parse_diff_word
from opgroups.words import Atom, Word, WordSyntaxError, format_word, gen, parse_word

x, y, z = gen("x"), gen("y"), gen("z")


def bracket(w: Word, sign: int = 1) -> Word:
    return Word((Atom(w, sign),))


# --- independent oracle: reduce by deleting inverse pairs in random order ----

def naive_reduce(atoms, rng):
    """Delete one cancelling adjacent pair at a time, at a random position."""
    atoms = list(atoms)
    while True:
        sites = [i for i in range(len(atoms) - 1) if atoms[i].cancels(atoms[i + 1])]
        if not sites:
            return tuple(atoms)
        i = rng.choice(sites)
        del atoms[i:i + 2]


def insert_inverse_pairs(atoms, rng, count):
    atoms = list(atoms)
    for _ in range(count):
        i = rng.randrange(len(atoms) + 1)
        a = Atom(rng.choice("xyz"), rng.choice((1, -1)))
        atoms[i:i] = [a, a.inverse()]
    return atoms


def test_reduction_confluence_random_order():
    rng = random.Random(5)
    for _ in range(300):
        w = random_word(rng)
        unreduced = insert_inverse_pairs(w.atoms, rng, rng.randint(1, 4))
        assert Word(unreduced) == w
        assert naive_reduce(unreduced, rng) == w.atoms


# --- multiplication, inverses ------------------------------------------------

def test_mul_single_cancellation():
    assert (x * y) * (y.inverse() * z) == x * z


def test_mul_identity_cases():
    w = x * bracket(y).inverse()
    assert w * Word() == w
    assert Word() * w == w


def test_mul_full_telescoping():
    # expected value computed with the naive random-order reducer
    u = bracket(x) * y
    v = y.inverse() * bracket(x).inverse()
    rng = random.Random(1)
    assert naive_reduce(u.atoms + v.atoms, rng) == ()
    assert u * v == Word()


def test_inverse_examples():
    assert (x * bracket(y)).inverse() == bracket(y, -1) * gen("x", -1)
    assert Word().inverse() == Word()


def test_inverse_involution_random():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_identity


def test_group_axioms_random():
    rng = random.Random(11)
    for _ in range(300):
        u, v, w = (random_word(rng, max_depth=3, max_breadth=6) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * Word() == u and Word() * u == u
        assert (u * u.inverse()).is_identity


def test_depth_and_breadth():
    assert (x * y.inverse()).depth() == 0
    assert Word().depth() == 0
    # oracle: recursive max nesting of a hand-built word
    w = bracket(bracket(x)) * y
    assert w.depth() == 2
    assert w.breadth() == 2
    assert (x * bracket(y) * x.inverse()).breadth() == 3
    assert Word().breadth() == 0
    assert (x * y * y.inverse()).breadth() == 1


def test_depth_of_a_deep_chain_does_not_recurse():
    # 2,000 nested brackets: past the default recursion limit
    w = x
    for _ in range(2000):
        w = bracket(w)
    assert w.depth() == 2000
    assert w.atoms[0].depth() == 2000
    assert (y * w.inverse() * bracket(x)).depth() == 2000


def test_depth_breadth_inequalities_random():
    rng = random.Random(13)
    for _ in range(200):
        u = random_word(rng)
        v = random_word(rng)
        uv = u * v
        assert uv.depth() <= max(u.depth(), v.depth())
        assert uv.breadth() <= u.breadth() + v.breadth()


# --- parsing and printing ----------------------------------------------------

def test_parse_examples():
    assert parse_word("x <y> x^-1") == x * bracket(y) * x.inverse()
    assert parse_word("x x^-1") == Word()
    nested = parse_word("<x <y>^-1>^-1")
    assert nested == bracket(x * bracket(y, -1), -1)
    # round-trip oracle for the nested case
    assert parse_word(format_word(nested)) == nested


def test_parse_b_alias():
    assert parse_word("B(x)") == bracket(x)
    assert parse_word("B(x <y>)^-1") == bracket(x * bracket(y), -1)
    assert parse_word("B B(x)") == gen("B") * bracket(x)


def test_deep_chain_round_trips_through_printer_and_parser():
    # 2,000 nested brackets: past the default recursion limit
    w = x * y.inverse()
    for _ in range(2000):
        w = bracket(w, -1) * x
    text = format_word(w)
    assert text.startswith("<" * 2000 + "x y^-1>^-1 x>^-1 x>^-1")
    assert text.endswith(">^-1 x")
    back = parse_word(text)
    assert back.depth() == 2000 and format_word(back) == text
    chain = "<" * 2000 + "x" + ">" * 2000
    assert format_word(parse_word(chain)) == chain


def test_equality_of_deep_chains_does_not_recurse():
    # two separately parsed 2,000-deep chains share no body object, so
    # comparing them walks every level
    chain = "<" * 2000 + "x y^-1" + ">" * 2000
    u, v = parse_word(chain), parse_word(chain)
    assert u.atoms[0].base is not v.atoms[0].base
    assert u == v and u.atoms[0] == v.atoms[0] and hash(u) == hash(v)
    assert u * v.inverse() == Word()
    assert u != parse_word("<" * 2000 + "x y" + ">" * 2000)
    assert u != parse_word("<" * 1999 + "x y^-1" + ">" * 1999)


def test_printer_shares_repeated_bodies_and_atoms_print_alike():
    # ** repeats one body object; it prints like a freshly parsed equal word
    w = (bracket(x * bracket(y)) * z) ** 50
    assert format_word(w) == " ".join(["<x <y>> z"] * 50)
    assert format_word(w) == format_word(parse_word(format_word(w)))
    a = bracket(x * bracket(y, -1), -1).atoms[0]
    assert repr(a) == format_word(Word((a,))) == "<x <y>^-1>^-1"
    assert repr(Atom("x", -1)) == "x^-1"


def test_parse_one():
    assert parse_word("1") == Word()
    assert parse_word("<1>") == bracket(Word())
    assert parse_word(" <1>^-1  ") == bracket(Word(), -1)


def test_format_examples():
    assert format_word(Word()) == "1"
    assert format_word(x * bracket(y, -1)) == "x <y>^-1"
    assert format_word(bracket(Word())) == "<1>"


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("<x", 0),
    ("x>", 1),
    ("<>", 0),
    ("x^2", 1),
    ("x 1", 2),
    ("1 1", 2),
    ("?", 0),
    ("12", 0),
    ("<x)^-1", 2),
    ("B(x>", 3),
    ("x ^-1", 2),
    ("x^-1^-1", 4),
    ("<x>^-1^-1", 6),
    ("1^-1", 1),
    ("B (x)", 2),
    (">?", 0),  # the leftmost of two errors
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text)
    assert err.value.position == offset


def test_round_trip_random():
    rng = random.Random(17)
    for _ in range(500):
        w = random_word(rng, max_depth=3, max_breadth=5)
        s = format_word(w)
        assert parse_word(s) == w
        assert format_word(parse_word(s)) == s


# --- hypothesis property tests ----------------------------------------------

names = st.sampled_from(["x", "y", "z", "w_1"])
signs = st.sampled_from([1, -1])


def atoms(depth):
    if depth == 0:
        return st.builds(Atom, names, signs)
    return st.builds(Atom, names, signs) | st.builds(
        Atom, st.builds(Word, st.lists(atoms(depth - 1), max_size=4)), signs)


word_strategy = st.builds(Word, st.lists(atoms(2), max_size=6))


@given(word_strategy, word_strategy)
def test_mul_reduced_and_consistent(u, v):
    prod = u * v
    for a, b in zip(prod.atoms, prod.atoms[1:]):
        assert not a.cancels(b)
    assert prod == Word(u.atoms + v.atoms)


def test_parse_error_messages():
    for text, message in [("x^2", "expected '^-1'"), ("x ^-1", "invalid token '^'"),
                          ("1x", "invalid token '1x'..."), ("<x ?", "invalid token '?'"),
                          ("<x", "missing closer"), ("x)", "unexpected closer"),
                          ("<x)", "mismatched bracket closer"), ("<1 x>", "'1' must stand alone")]:
        with pytest.raises(WordSyntaxError, match=re.escape(message)):
            parse_word(text)
    assert parse_word("B(x)^-1") == parse_word("<x>^-1") == bracket(x, -1)
    assert parse_word("\tx^-1\n<B(y)>  ") == gen("x", -1) * bracket(bracket(y))


def test_a_bracket_after_one_is_refused():
    # '1' then an opener: the opener is named, not the '1'
    with pytest.raises(WordSyntaxError, match=r"^'1' must stand alone \(at offset 2\)$") as err:
        parse_word("1 <x>")
    assert err.value.position == 2


@pytest.mark.parametrize("parse,fmt", [(parse_word, format_word),
                                       (parse_diff_word, format_diff_word)])
@given(text=st.text(st.sampled_from(list("<>B()^-1xy_.2 \t?"))) | st.text())
def test_parse_round_trips_or_names_an_offset(parse, fmt, text):
    try:
        w = parse(text)
    except WordSyntaxError as e:
        assert 0 <= e.position <= len(text)
    else:
        assert parse(fmt(w)) == w


@given(word_strategy)
def test_round_trip_hypothesis(w):
    assert parse_word(format_word(w)) == w


@given(word_strategy, word_strategy, word_strategy)
def test_associativity_hypothesis(u, v, w):
    assert (u * v) * w == u * (v * w)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("1x")
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("x", 0)
    with pytest.raises(TypeError):
        Atom(42)


def test_atom_accessors_and_word_reprs():
    w = parse_word("x <y z^-1>^-1")
    letter, bracket = w.atoms
    assert letter.name == "x" and bracket.body == parse_word("y z^-1")
    with pytest.raises(ValueError, match=r"^bracket atom has no generator name$"):
        bracket.name
    with pytest.raises(ValueError, match=r"^generator atom has no bracket body$"):
        letter.body
    assert repr(w) == format_word(w) == "x <y z^-1>^-1"
    d = parse_diff_word("x.2^-1 y.0")
    assert repr(d) == format_diff_word(d) == "x.2^-1 y.0"
    assert [repr(a) for a in d.atoms] == ["x.2^-1", "y.0"]


def test_atom_sign_must_not_be_a_bool():
    # True == 1, so only a type check refuses it
    with pytest.raises(ValueError, match="sign"):
        Atom("x", True)


class _Name(str):
    pass


def test_atom_comparison_decides_early(monkeypatch):
    # a name never equals a body, and comparing the two reads no Word.__eq__
    calls = []
    word_eq = Word.__eq__
    monkeypatch.setattr(Word, "__eq__", lambda u, v: calls.append((u, v)) or word_eq(u, v))
    letter, brk = Atom("x"), Atom(x)
    assert letter != brk and brk != letter
    assert not (letter == brk or brk == letter)
    assert calls == []
    # equal deep bodies of opposite signs differ, and equal bodies built apart
    # are equal, at every depth
    chain = "<" * 50 + "x y^-1" + ">" * 50
    u, v = parse_word(chain), parse_word(chain)
    assert u.atoms[0].base is not v.atoms[0].base
    assert u.atoms[0] == v.atoms[0] and u.atoms[0] != v.atoms[0].inverse()
    assert u.atoms[0] != parse_word("<" * 50 + "x y" + ">" * 50).atoms[0]
    assert parse_word("<x <y>>").atoms[0] != parse_word("<x y>").atoms[0]
    # a generator name of a str subclass is still a name
    assert Atom(_Name("x")) == Atom("x") and Atom("x") == Atom(_Name("x"))
    assert Atom(_Name("x")) != brk and brk != Atom(_Name("x"))
    assert Word((Atom(_Name("x")),)) * x.inverse() == Word()


# --- the shared reduced-word core ---------------------------------------------

@pytest.mark.parametrize("random_of", [random_word, random_diff_word])
def test_power_is_the_repeated_product(random_of):
    rng = random.Random(31)
    for _ in range(200):
        w = random_of(rng)
        identity = type(w)()
        for n in range(-3, 4):
            prod = identity
            for _ in range(abs(n)):
                prod = prod * (w if n > 0 else w.inverse())
            assert w ** n == prod


def _is_reduced(w) -> bool:
    return not any(a.cancels(b) for a, b in zip(w.atoms, w.atoms[1:]))


_WORD_LETTERS = [Atom("x"), Atom("y", -1), Atom(Word((Atom("x"), Atom("y")))),
                 Atom(Word((Atom(Word((Atom("z"),)), -1),)), -1)]
_DIFF_LETTERS = [DiffLetter("x"), DiffLetter("x", 1, -1), DiffLetter("y", 2), DiffLetter("z")]


@pytest.mark.parametrize("kind, random_of, letters", [(Word, random_word, _WORD_LETTERS),
                                                      (DiffWord, random_diff_word, _DIFF_LETTERS)])
def test_power_matches_the_streamed_oracle(kind, random_of, letters):
    # random words, the identity, and explicit conjugates p c p^-1 with
    # |p| <= 4 and c a random word or a single letter
    rng = random.Random(43)
    words = [kind(), *(random_of(rng) for _ in range(100))]
    for _ in range(60):
        p = kind(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        c = random_of(rng) if rng.random() < 0.5 else kind((rng.choice(letters),))
        words.append(p * c * p.inverse())
    for w in words:
        for n in range(-6, 7):
            got = w ** n
            assert got == power_streamed(w, n)
            assert _is_reduced(got)


@pytest.mark.parametrize("letter_type, w", [
    # p c p^-1 with |p| = 4, bracketed letters in p, and c = x <z>
    (Atom, parse_word("<x y> z^-1 <<x>>^-1 y x <z> y^-1 <<x>> z <x y>^-1")),
    (Atom, parse_word("x y z")),
    (DiffLetter, parse_diff_word("x.1 y.0^-1 z.2 x.0 z.2^-1 y.0 x.1^-1")),
    (DiffLetter, parse_diff_word("x.1 y.0 x.1")),
])
def test_a_power_makes_at_most_half_a_length_of_cancels_calls(monkeypatch, letter_type, w):
    calls = []
    cancels = letter_type.cancels

    def counting(a, b):
        calls.append((a, b))
        return cancels(a, b)

    monkeypatch.setattr(letter_type, "cancels", counting)
    for n in (1000, -1000):
        calls.clear()
        got = w ** n
        assert len(calls) <= len(w) // 2
    monkeypatch.undo()
    assert got == power_streamed(w, -1000)


@pytest.mark.parametrize("random_of", [random_word, random_diff_word])
def test_product_is_the_reduced_concatenation(random_of):
    # the product cancels only at the seam; v = u^-1 t gives a seam as long
    # as u, and a product that cancels to the identity
    rng = random.Random(47)
    for _ in range(300):
        u, t = random_of(rng), random_of(rng)
        for v in (random_of(rng), u.inverse() * t, u.inverse(), t * u.inverse()):
            got = u * v
            assert got == type(u)(u.atoms + v.atoms)
            assert _is_reduced(got)
            assert (u * v) * u == u * (v * u)


def test_words_of_two_theories_never_mix():
    assert Word() != DiffWord()
    assert DiffWord() != Word()
    with pytest.raises(TypeError):
        Word() * DiffWord()
    with pytest.raises(TypeError):
        DiffWord() * Word()


# --- hashing on first use -------------------------------------------------------

def _chain_by_brackets():
    w = gen("x") * gen("y", -1)
    for _ in range(2000):
        w = operated.bracket(w)
    return w


@pytest.mark.parametrize("build", [
    lambda: parse_word("<" * 2000 + "x y^-1" + ">" * 2000),
    _chain_by_brackets,
], ids=["parse_word", "operated.bracket"])
def test_hash_of_a_never_hashed_deep_chain_does_not_recurse(build):
    # no atom of the chain is hashed when it is built; the first hash() hashes
    # the bodies children first on an explicit stack, so it does not recurse
    w = build()
    assert w._hash is None
    assert hash(w) == hash(build()) == hash(w.atoms)
    assert w == build()


def test_bracketed_words_are_parsed_multiplied_and_printed_with_no_hash(monkeypatch):
    # the word core hashes an atom or a word only when a caller asks for it
    calls = record_hashes(monkeypatch)
    u = parse_word("<x <y <z>^-1>> y^-1 B(<x> z)^-1")
    v = parse_word("<<x> z>^-1 y x")
    p = u * v * v.inverse()
    q = (v * u) ** 7
    n = q ** -3
    b = operated.bracket(q)
    r = ~b
    texts = [format_word(w) for w in (p, q, n, b, r)]
    assert calls == []
    assert all(w._hash is None for w in (u, v, p, q, n, b, r))
    monkeypatch.undo()
    assert p == u and q == power_streamed(v * u, 7) and n == power_streamed(v * u, -21)
    assert [parse_word(t) for t in texts] == [p, q, n, b, r]
    assert r == bracket(q, -1)


@pytest.mark.parametrize("hashed", ["left", "right", "both"])
@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_atoms_whose_bodies_were_hashed_on_one_side_compare_alike(hashed, equal):
    # an inner body hashed and the bodies around it not: equality reads no
    # stored hash, so it agrees with hashing whichever bodies were hashed
    u = parse_word("<x <y <z>^-1> x^-1> y")
    v = parse_word("<x <y <z>^-1> x^-1> y" if equal else "<x <y <z>> x^-1> y")
    for w in ((u,) if hashed == "left" else (v,) if hashed == "right" else (u, v)):
        hash(w.atoms[0].base.atoms[1])  # <y <z>^-1> or <y <z>>
    a, b = u.atoms[0], v.atoms[0]
    assert u._hash is None and v._hash is None
    assert (a == b) is (b == a) is (u == v) is (v == u) is equal
    assert (b in {a: "a"}) is (a in {b: "b"}) is (v in {u: "u"}) is equal
    if equal:
        assert hash(a) == hash(b) and hash(u) == hash(v)


def test_hashes_are_those_of_the_fields():
    # a letter hashes its fields on each call, and a word its letters
    w = parse_word("<x <y>^-1> z^-1")
    d = parse_diff_word("x.2 y^-1")
    for a in w.atoms:
        assert hash(a) == hash((a.base, a.sign))
    for a in d.atoms:
        assert hash(a) == hash((a.symbol, a.order, a.sign))
    assert hash(w) == hash(w.atoms) and hash(d) == hash(d.atoms)


def _pairs_built_apart():
    # (u, v, u == v): words built apart, by the parser and by hand or by a product
    return [
        (parse_word("<x <y>^-1> z^-1"),
         Word((Atom(Word((Atom("x"), Atom(Word((Atom("y"),)), -1)))), Atom("z", -1))), True),
        (parse_word("<x y> y^-1 x"),
         parse_word("<x y> x") * gen("x", -1) * gen("y", -1) * gen("x"), True),
        (parse_diff_word("x.1 y.0^-1"),
         DiffWord((DiffLetter("x", 1), DiffLetter("y", 0, -1))), True),
        (parse_diff_word("x.1 x.0 y.1 x.0^-1"),
         DiffWord((DiffLetter("x", 1), DiffLetter("x"))) * parse_diff_word("y.1 x.0^-1"), True),
        (parse_word("<x y> z"), parse_word("<x y> z^-1"), False),
        (parse_word("<x y>"), parse_word("<y x>"), False),
        (parse_diff_word("x.1 y.0"), parse_diff_word("x.1 y.1"), False),
    ]


@pytest.mark.parametrize("hashed_first", ["neither", "left", "right", "both"])
def test_words_built_apart_compare_and_hash_alike_whichever_was_hashed(hashed_first):
    for u, v, equal in _pairs_built_apart():
        assert u is not v and u._hash is None and v._hash is None
        if hashed_first in ("left", "both"):
            hash(u)
        if hashed_first in ("right", "both"):
            hash(v)
        before = (u._hash, v._hash)
        assert (u == v) is (v == u) is equal
        assert (u._hash, v._hash) == before  # comparing hashes nothing
        assert (v in {u: "u"}) is (u in {v: "v"}) is equal
        if equal:
            assert hash(u) == hash(v)
            assert {u: "u"}[v] == "u" and {v: "v"}[u] == "v"
