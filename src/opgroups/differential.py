"""The free differential group of weight 1.

Elements are reduced words over the derived letters ``x.n`` (generator ``x``
taken ``n`` derivatives deep); the derivation sends ``x.n`` to ``x.n+1`` and
extends to words through the weight-1 product rule D(g h) = D(g) g D(h) g^-1.
Unrolled over the letters of a word it gives the product formula

    D(z_1 ... z_n) = (D(z_1) z_1) ... (D(z_n) z_n) (z_1 ... z_n)^-1,

which :func:`derive` computes, reduced at one seam; the recursive rule is
the tests' oracle.

:class:`DiffWord` is the word core :class:`~opgroups.words.ReducedWord` over
:class:`DiffLetter` letters.  Also here: the closed formulas for a product of
words and for an inverse power, the order shift, and the evaluator into a
group with a validated weight-1 differential operator, which runs the loop
:func:`opgroups.operated.multiply_images` over the images of the ``x.n``.

Text syntax: ``x.n`` is the n-th derived letter, ``x`` abbreviates ``x.0``,
inverses are written ``x.n^-1``; letters are whitespace separated and ``1``
denotes the identity.  Brackets do not exist in this theory.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Mapping, Sequence

from .finite import Law, LawTarget
from .operated import UnassignedGeneratorError, multiply_images
from .words import _IDENT_RE, ReducedWord, WordSyntaxError, _join

__all__ = [
    "DiffLetter",
    "DiffTarget",
    "DiffWord",
    "derive",
    "derive_power",
    "diff_gen",
    "evaluate",
    "format_diff_word",
    "inverse_power_formula",
    "parse_diff_word",
    "product_formula",
    "shift_orders",
]


class DiffLetter:
    """A signed derived letter: generator symbol, derivative order, sign.

    Like an :class:`~opgroups.words.Atom`, a letter stores no hash: it hashes
    its three fields on each call.  Only a :class:`DiffWord` keeps its hash.
    """

    __slots__ = ("symbol", "order", "sign")

    def __init__(self, symbol: str, order: int = 0, sign: int = 1):
        if not isinstance(symbol, str):
            raise TypeError(f"generator name must be a str, got {symbol!r}")
        if not _IDENT_RE.fullmatch(symbol):
            raise ValueError(f"invalid generator name {symbol!r}")
        if isinstance(order, bool) or not isinstance(order, int):
            raise TypeError(f"derivative order must be an int, got {order!r}")
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        self.symbol = symbol
        self.order = order
        self.sign = sign

    @classmethod
    def _make(cls, symbol: str, order: int, sign: int) -> "DiffLetter":
        # trusted constructor for parts already known to be valid: a name
        # matched by _IDENT_RE, an int order >= 0 and a sign of +1 or -1
        a = cls.__new__(cls)
        a.symbol, a.order, a.sign = symbol, order, sign
        return a

    def inverse(self) -> "DiffLetter":
        return DiffLetter._make(self.symbol, self.order, -self.sign)

    def cancels(self, other: "DiffLetter") -> bool:
        return (self.sign == -other.sign and self.order == other.order
                and self.symbol == other.symbol)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffLetter):
            return NotImplemented
        return (self.symbol == other.symbol and self.order == other.order
                and self.sign == other.sign)

    def __hash__(self) -> int:
        return hash((self.symbol, self.order, self.sign))

    def __repr__(self) -> str:
        return _format_letter(self)


class DiffWord(ReducedWord):
    """A reduced word in derived letters, kept in ``atoms``; ``DiffWord()``
    is the identity.  Its hash and evaluation plan (:meth:`_make_plan`) are
    cached on first use; both depend only on the letters, which never change."""

    __slots__ = ()

    def _make_plan(self) -> tuple:
        """``(chains, steps)``: how to evaluate the word.  ``chains`` lists
        ``(symbol, top)`` for each symbol, in the order of its first letter,
        with ``top`` its highest order; its slots are its orders ``0..top``,
        symbol after symbol.  ``steps`` is one ``(slot, sign)`` per letter."""
        tops: dict[str, int] = {}
        for a in self.atoms:
            if a.order > tops.get(a.symbol, -1):
                tops[a.symbol] = a.order
        first, offset = {}, 0  # the slot of each symbol's order 0
        for symbol, top in tops.items():
            first[symbol] = offset
            offset += top + 1
        shared: dict = {}  # one tuple per distinct step
        steps = tuple(shared.setdefault(s, s) for s in
                      ((first[a.symbol] + a.order, a.sign) for a in self.atoms))
        return tuple(tops.items()), steps

    def __repr__(self) -> str:
        return format_diff_word(self)


def diff_gen(symbol: str, order: int = 0, sign: int = 1) -> DiffWord:
    """The one-letter word for a derived generator."""
    return DiffWord((DiffLetter(symbol, order, sign),))


def derive(w: DiffWord) -> DiffWord:
    """The derivation: x.n -> x.n+1 on letters, extended by the weight-1 rule.

    Computed by the product formula over the letters z_i of ``w``,
    D(z_1 ... z_n) = (D(z_1) z_1) ... (D(z_n) z_n) (z_1 ... z_n)^-1,
    reduced at one seam, so the cost is linear in the output.  The recursive
    rule is the oracle in the tests.
    """
    pieces: list[DiffLetter] = []
    for a in w.atoms:
        # D(z) z is x.n+1 x.n for z = x.n, and x.n^-1 x.n+1^-1 for z = x.n^-1
        up = DiffLetter._make(a.symbol, a.order + 1, a.sign)
        pieces += (up, a) if a.sign > 0 else (a, up)
    # The pieces are reduced because w is: the two letters of a piece differ
    # in order, and where two pieces meet, the facing letters have one sign,
    # or are z_i and z_i+1, or are their derived letters, which cancel only
    # if z_i and z_i+1 do.  So only the seam with w^-1 can cancel.
    return DiffWord._reduced(_join(tuple(pieces), w.inverse().atoms))


def derive_power(w: DiffWord, n: int) -> DiffWord:
    """n-fold derivation; n = 0 returns the word unchanged."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    for _ in range(n):
        w = derive(w)
    return w


def product_formula(factors: Sequence[DiffWord]) -> DiffWord:
    """Closed form for the derivative of a product of words:

        D(g_1 ... g_n) = (D(g_1) g_1) ... (D(g_n) g_n) (g_1 ... g_n)^-1,

    streamed through one free reduction.  With one-letter factors it is
    :func:`derive` itself; the recursive rule in the tests is the oracle.
    """
    gs = list(factors)
    if not gs:
        raise ValueError("need at least one factor")
    total = DiffWord(chain.from_iterable(g.atoms for g in gs))
    pieces = chain.from_iterable(chain(derive(g).atoms, g.atoms) for g in gs)
    return DiffWord(chain(pieces, total.inverse().atoms))


def inverse_power_formula(g: DiffWord, n: int) -> DiffWord:
    """Closed form D(g^-n) = (g^-1 D(g)^-1)^n g^n, for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1 (the derivative of the identity is the identity)")
    step = g.inverse() * derive(g).inverse()
    return step ** n * g ** n


def shift_orders(w: DiffWord) -> DiffWord:
    """The endomorphism sending every letter x.n to x.n+1 (signs kept).

    Unlike :func:`derive` it is a plain group endomorphism and does not
    satisfy the weight-1 product rule.
    """
    return DiffWord(DiffLetter._make(a.symbol, a.order + 1, a.sign) for a in w.atoms)


# --- evaluation into differential groups -------------------------------------

class DiffTarget(LawTarget):
    """A group with a weight-1 differential operator, validated as a
    :class:`~opgroups.finite.LawTarget`."""

    law = Law.DIFF_PLUS
    rule = "the weight-1 differential product rule"


def evaluate(w: DiffWord, assignment: Mapping[str, object], target: DiffTarget):
    """Image of ``w`` under the homomorphism sending x.n to the n-th
    derivative of the element assigned to x.  The slots of the word's cached
    plan are each symbol's chain ``g, d(g), d(d(g)), ...``, extended
    iteratively up to the highest order the word uses; the plan depends only
    on the word, so every call computes its chains afresh."""
    chains, steps = w._plan()
    d = target.op
    values = []  # the image of each slot of the plan
    for symbol, top in chains:
        try:
            v = assignment[symbol]
        except KeyError:
            raise UnassignedGeneratorError(symbol) from None
        values.append(v)
        for _ in range(top):
            v = d(v)
            values.append(v)
    return multiply_images(steps, target.group, values)


# --- text form ---------------------------------------------------------------

_LETTER_RE = re.compile(rf"({_IDENT_RE.pattern})(?:\.(\d+))?(\^-1)?\Z")


def parse_diff_word(text: str) -> DiffWord:
    """Parse whitespace-separated derived letters into a reduced DiffWord."""
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise WordSyntaxError("empty word (write '1' for the identity)", len(text))
    if any(tok == "1" for tok, _ in tokens):
        if len(tokens) > 1:
            raise WordSyntaxError("'1' must stand alone",
                                  next(pos for tok, pos in tokens if tok == "1"))
        return DiffWord()
    letters = []
    for tok, pos in tokens:
        m = _LETTER_RE.fullmatch(tok)
        if not m:
            raise WordSyntaxError(f"invalid letter {tok!r}", pos)
        name, order, inv = m.groups()
        try:
            letters.append(DiffLetter._make(name, int(order or 0), -1 if inv else 1))
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
            raise WordSyntaxError(f"derivative order of {name!r} has too many digits",
                                  pos) from None
    return DiffWord(letters)


def _format_letter(a: DiffLetter) -> str:
    return f"{a.symbol}.{a.order}" + ("" if a.sign > 0 else "^-1")


def format_diff_word(w: DiffWord) -> str:
    """Canonical text form; the order suffix is always printed (x.0, not x)."""
    if not w.atoms:
        return "1"
    return " ".join(_format_letter(a) for a in w.atoms)
