"""Seeded random generators for words of the three theories, shared by the
unit tests and the acceptance suite, test oracles for the products, the
powers, the law checks and the operator search, the built-in groups up to
order 24, a view of a group through its carrier methods alone, and the free
differential and Rota-Baxter groups as carriers, with the maps into them
that the one evaluator computes."""

from __future__ import annotations

import builtins
import random
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Optional

from opgroups import operated
from opgroups.differential import DiffLetter, DiffWord, derive, diff_gen
from opgroups.finite import (Law, _pair_rule, alternating, cyclic, dihedral, klein_four, quaternion,
                             symmetric)
from opgroups.operated import OperatedTarget
from opgroups.rota_baxter import _require_rb, diamond, rb_bracket, rb_inverse
from opgroups.words import Atom, ReducedWord, Word, gen

ALPHABET = ("x", "y", "z")

BUILT_IN_UP_TO_ORDER_24 = [*(lambda n=n: cyclic(n) for n in range(1, 25)),
                           *(lambda n=n: dihedral(n) for n in range(2, 13)),
                           klein_four, quaternion, lambda: alternating(4), lambda: symmetric(4)]


def as_carrier(g):
    """``g`` seen through the carrier interface only, not as a FiniteGroup."""
    return SimpleNamespace(identity=g.identity, mul=g.mul, inv=g.inv,
                           iter_elements=g.iter_elements)


# the free weight-1 differential group and the free weight-1 Rota-Baxter group,
# each as a carrier of the one evaluator
FREE_DIFF = SimpleNamespace(identity=DiffWord, mul=DiffWord.__mul__, inv=DiffWord.inverse)
FREE_RB = SimpleNamespace(identity=Word, mul=diamond, inv=rb_inverse)


def q_d(w: Word) -> DiffWord:
    """The quotient map of the free operated group onto the free differential
    group: each generator of ``ALPHABET`` to its letter x.0, the bracket to
    ``derive``."""
    return operated.evaluate(w, {s: diff_gen(s) for s in ALPHABET},
                             OperatedTarget(FREE_DIFF, derive))


def _tilde(w: Word) -> Word:
    # B~(g) = g^-1 B(g^-1), the weight-1 RB operator that B gives (Guo, Lang
    # & Sheng), for B the bracket of the free RB group
    u = rb_inverse(w)
    return diamond(u, rb_bracket(u))


def psi(w: Word) -> Word:
    """The map of a Rota-Baxter word that fixes each generator of ``ALPHABET``
    and sends <w> to psi(w)^-1 ⋄ <psi(w)^-1>: the automorphism of the free RB
    group that B ↦ B~ induces.  psi∘psi is the identity there, so where
    psi(psi(w)) differs from w, the two words name one element that the
    diamond's rules do not identify."""
    return operated.evaluate(w, {s: gen(s) for s in ALPHABET}, OperatedTarget(FREE_RB, _tilde))


def random_word(rng: random.Random, *, max_depth: int = 2, max_breadth: int = 4,
                alphabet=ALPHABET, nonempty: bool = False) -> Word:
    """A random reduced bracketed word (general operated theory)."""
    k = rng.randint(1 if nonempty else 0, max_breadth)
    atoms: list[Atom] = []
    tries = 0
    while len(atoms) < k and tries < 100:
        tries += 1
        a = _random_atom(rng, max_depth, max_breadth, alphabet, rb=False)
        if atoms and atoms[-1].cancels(a):
            continue
        atoms.append(a)
    return Word(atoms)


def random_rb_word(rng: random.Random, *, max_depth: int = 3, max_breadth: int = 4,
                   alphabet=ALPHABET, nonempty: bool = False) -> Word:
    """A random Rota-Baxter word: additionally no adjacent same-sign brackets
    and no empty bracket bodies."""
    k = rng.randint(1 if nonempty else 0, max_breadth)
    atoms: list[Atom] = []
    tries = 0
    while len(atoms) < k and tries < 100:
        tries += 1
        a = _random_atom(rng, max_depth, max_breadth, alphabet, rb=True)
        if atoms:
            prev = atoms[-1]
            if prev.cancels(a):
                continue
            if prev.is_bracket and a.is_bracket and prev.sign == a.sign:
                continue
        atoms.append(a)
    return Word(atoms)


def _random_atom(rng, max_depth, max_breadth, alphabet, *, rb: bool) -> Atom:
    sign = rng.choice((1, -1))
    if max_depth == 0 or rng.random() < 0.6:
        return Atom(rng.choice(alphabet), sign)
    if rb:
        body = random_rb_word(rng, max_depth=max_depth - 1, max_breadth=max_breadth,
                              alphabet=alphabet, nonempty=True)
    else:
        body = random_word(rng, max_depth=max_depth - 1, max_breadth=max_breadth,
                           alphabet=alphabet)
    return Atom(body, sign)


def rb_words(alphabet, size: int) -> list[Word]:
    """Every reduced Rota-Baxter word over ``alphabet`` of size at most
    ``size``, by size, the identity first.  The size of a word counts its
    atoms at every nesting level, so ``<x>`` has size 2 and ``<x> y`` size 3."""
    atoms = {1: [Atom(g, s) for g in alphabet for s in (1, -1)]}  # by size
    words: dict = {0: [()]}  # the atom tuples of the words, by size
    for n in range(1, size + 1):
        if n > 1:
            atoms[n] = [Atom(Word(body), s) for body in words[n - 1] for s in (1, -1)]
        words[n] = [w + (a,) for k in range(1, n + 1) for w in words[n - k] for a in atoms[k]
                    if not w or not (w[-1].cancels(a) or w[-1].is_bracket and a.is_bracket
                                     and w[-1].sign == a.sign)]
    return [Word(w) for n in range(size + 1) for w in words[n]]


def random_diff_word(rng: random.Random, *, max_len: int = 6, max_order: int = 2,
                     alphabet=ALPHABET) -> DiffWord:
    """A random reduced word in derived letters."""
    k = rng.randint(0, max_len)
    letters: list[DiffLetter] = []
    tries = 0
    while len(letters) < k and tries < 100:
        tries += 1
        a = DiffLetter(rng.choice(alphabet), rng.randint(0, max_order), rng.choice((1, -1)))
        if letters and letters[-1].cancels(a):
            continue
        letters.append(a)
    return DiffWord(letters)


def _derive_letter(a: DiffLetter) -> DiffWord:
    up = DiffLetter(a.symbol, a.order + 1, 1)
    if a.sign > 0:
        return DiffWord((up,))
    # D(z^-1) = z^-1 D(z)^-1 z for a single letter z
    z = DiffLetter(a.symbol, a.order, 1)
    return DiffWord((z.inverse(), up.inverse(), z))


def derive_recursive(w: DiffWord) -> DiffWord:
    """Oracle for ``differential.derive``: the weight-1 rule
    D(z rest) = D(z) z D(rest) z^-1, folded from the right with every
    intermediate word re-reduced (quadratic in the output)."""
    if not w.atoms:
        return DiffWord()
    out = _derive_letter(w.atoms[-1])
    for a in reversed(w.atoms[:-1]):
        head = DiffWord((a,))
        out = _derive_letter(a) * head * out * head.inverse()
    return out


def power_streamed(w, n: int):
    """Oracle for ``ReducedWord.__pow__``: one free reduction over |n|
    streamed copies of ``w``, or of its inverse for n < 0."""
    base = w if n >= 0 else w.inverse()
    return type(w)(chain.from_iterable(repeat(base.atoms, abs(n))))


def record_hashes(monkeypatch) -> list:
    """A list that collects every atom, derived letter and word hashed, and
    every argument of the builtin ``hash``, until ``monkeypatch.undo()``: a
    direct call of ``hash`` is seen as well as a hash through ``__hash__``."""
    calls: list = []

    def counting(hash_of):
        def count(obj):
            calls.append(obj)
            return hash_of(obj)
        return count

    for cls in (Atom, DiffLetter, ReducedWord):
        monkeypatch.setattr(cls, "__hash__", counting(cls.__hash__))
    monkeypatch.setattr(builtins, "hash", counting(builtins.hash))
    return calls


# --- independent oracle: fixpoint rewriting ----------------------------------

def diamond_rewrite(u: Word, v: Word) -> Word:
    """Oracle for :func:`diamond`: concatenate the atom sequences, then apply
    three local rules at the leftmost applicable position until none applies:
    cancel mutually-inverse neighbours, merge adjacent positive brackets,
    merge adjacent negative brackets."""
    _require_rb(u, "left factor")
    _require_rb(v, "right factor")
    return Word(_rewrite_fix(list(u.atoms) + list(v.atoms)))


def _rewrite_fix(atoms: list[Atom]) -> list[Atom]:
    i = 0
    while i + 1 < len(atoms):
        a, b = atoms[i], atoms[i + 1]
        if a.cancels(b):
            del atoms[i:i + 2]
            i = max(i - 1, 0)
            continue
        if a.is_bracket and b.is_bracket and a.sign == b.sign:
            if a.sign == 1:
                merged = _merge_positive(a, b)
            else:
                pos = _merge_positive(b.inverse(), a.inverse())
                merged = pos.inverse() if pos is not None else None
            atoms[i:i + 2] = [] if merged is None else [merged]
            i = max(i - 1, 0)
            continue
        i += 1
    return atoms


def _merge_positive(a: Atom, b: Atom) -> Optional[Atom]:
    # <ā><b̄> -> < ā ⋄ AD > with every product evaluated by rewriting;
    # None when the body comes out empty (the bracket of 1 is 1).  Rewriting
    # a b̄ a^-1 leftmost-first reaches the last pair only once a b̄ is
    # irreducible, so the twist is the left-bracketed (a ⋄ b̄) ⋄ a^-1.
    twist = _rewrite_fix([a] + list(b.base.atoms) + [a.inverse()])
    body = _rewrite_fix(list(a.base.atoms) + twist)
    if not body:
        return None
    return Atom(Word(body), 1)


# --- oracles: the full law scan and the prefix search -----------------------

def law_holds(g, op, law, action, a, b):
    """Whether ``op`` satisfies ``law`` at the pair ``(a, b)``, written out from
    the formula in the comment on each :class:`Law` member, with no code
    shared with ``finite.py``."""
    m, i = g.mul, g.inv
    if law is Law.ENDO:         # P(ab) = P(a) P(b)
        return op[m(a, b)] == m(op[a], op[b])
    if law is Law.DIFF_PLUS:    # D(ab) = D(a) a D(b) a^-1
        return op[m(a, b)] == m(m(m(op[a], a), op[b]), i(a))
    if law is Law.DIFF_MINUS:   # D(ab) = (a D(b) a^-1) D(a)
        return op[m(a, b)] == m(m(m(a, op[b]), i(a)), op[a])
    if law is Law.RB_PLUS:      # B(a) B(b) = B(a B(a) b B(a)^-1)
        return m(op[a], op[b]) == op[m(m(m(a, op[a]), b), i(op[a]))]
    if law is Law.RB_MINUS:     # C(a) C(b) = C((C(a) b C(a)^-1) a)
        return m(op[a], op[b]) == op[m(m(m(op[a], b), i(op[a])), a)]
    if law is Law.CROSSED:      # f(ab) = f(a) act(a, f(b))
        return op[m(a, b)] == m(op[a], action[a][op[b]])
    raise AssertionError(law)


def first_broken_pair(g, op, law, action=None):
    """Oracle for :func:`opgroups.finite.first_violation` on a
    :class:`FiniteGroup`: the first pair ``(a, b)`` in element order at which
    the map ``op`` breaks ``law``, scanning every pair with :func:`law_holds`."""
    for a in range(len(g)):
        for b in range(len(g)):
            if not law_holds(g, op, law, action, a, b):
                return a, b
    return None


def descendent_table(g, op, law=Law.RB_PLUS) -> list[list[int]]:
    """The products a∘b of the descendent group of a Rota-Baxter operator
    (Guo, Lang & Sheng 2021), by element index: a B(a) b B(a)^-1 for a
    weight 1 operator B, and C(a) b C(a)^-1 a for a weight -1 operator C,
    which is the weight 1 product read through g -> g^-1."""
    m, i, n = g.mul, g.inv, len(g)
    if law is Law.RB_PLUS:
        return [[m(m(m(a, op[a]), b), i(op[a])) for b in range(n)] for a in range(n)]
    if law is Law.RB_MINUS:
        return [[m(m(m(op[a], b), i(op[a])), a) for b in range(n)] for a in range(n)]
    raise AssertionError(law)


def enumerate_operators_prefix(group, law, action=None) -> list[tuple[int, ...]]:
    """Oracle for :func:`opgroups.finite.enumerate_operators`: assign the
    images in index order, with no propagation, and after each assignment
    check the pairs whose verdict it decides, by the law's pair rule.  The
    maps come out in lexicographic image order."""
    rule = _pair_rule(group._table, group._inv, Law(law), action)
    n = len(group)
    images: list[int] = []
    found = []
    p = 0  # the next image to try for element len(images)
    while True:
        if p == n:
            if not images:
                return found
            p = images.pop() + 1
            continue
        images.append(p)
        if _decided_pairs_hold(rule, images):
            if len(images) < n:
                p = 0
                continue
            found.append(tuple(images))
        p = images.pop() + 1


def _decided_pairs_hold(rule, images: list[int]) -> bool:
    # images[0..k] are assigned.  The pair (a, b) holds when the image of c
    # is v, so its verdict is decided once the largest of a, b and c has an
    # image: check the pairs where that is k.
    k = len(images) - 1
    p = images[k]
    for b in range(k + 1):
        c, v = rule(k, p, b, images[b])
        if c <= k and images[c] != v:
            return False
    for a in range(k):
        pa = images[a]
        c, v = rule(a, pa, k, p)
        if c <= k and images[c] != v:
            return False
        # the pairs (a, b) with b < k whose c is k, found by scanning b
        for b in range(k):
            c, v = rule(a, pa, b, images[b])
            if c == k and v != p:
                return False
    return True
