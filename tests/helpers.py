"""Seeded random generators for words of the three theories, shared by the
unit tests and the acceptance suite, and test oracles for the products, the
powers and the operator search."""

from __future__ import annotations

import random
from itertools import chain, repeat
from typing import Optional

from opgroups.differential import DiffLetter, DiffWord
from opgroups.finite import Law, _pair_rule
from opgroups.rota_baxter import _require_rb
from opgroups.words import Atom, ReducedWord, Word

ALPHABET = ("x", "y", "z")


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
    """A list that collects every atom and word hashed until
    ``monkeypatch.undo()``."""
    calls: list = []
    for cls in (Atom, ReducedWord):
        def counting(obj, hash_of=cls.__hash__):
            calls.append(obj)
            return hash_of(obj)
        monkeypatch.setattr(cls, "__hash__", counting)
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


# --- oracle: the prefix search ----------------------------------------------

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
