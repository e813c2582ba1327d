"""Reduced group words: the core shared by every theory, and bracketed words.

:class:`ReducedWord` owns free reduction, the product, inverse, power,
equality, hashing and the cached evaluation plan over any letter type with
``cancels`` and ``inverse``.  Each subclass builds its plan in the one format
of :meth:`ReducedWord._plan`: :class:`Word` from its brackets, and
``differential.DiffWord`` by reading a derived letter ``x.n`` as ``x`` inside
n brackets.  :class:`Word` adds bracket depth, breadth and its printer.

A :class:`Word` is a finite sequence of atoms, each atom being a signed
generator or a signed bracket ``<...>`` enclosing another word.  Words are
kept *reduced* (no adjacent mutually-inverse atoms), so two words are equal
as Python values exactly when they are equal in the free operated group.  The
empty word is the group identity and prints as ``"1"``.

Canonical text grammar (whitespace separated)::

    word   := "1" | term (SP term)*
    term   := ident | ident "^-1" | "<" word ">" | "<" word ">^-1"
    ident  := [A-Za-z_][A-Za-z0-9_]*

``B(...)`` is accepted as an input alias for ``<...>``; the printer always
emits angle brackets.  The parser reads the tokens below, with optional
whitespace between them and no "1" followed by a letter, digit or "_", and
reports the leftmost error of a malformed text::

    token  := "<" | "B(" | (">" | ")") ["^-1"] | "1" | ident ["^-1"]
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

__all__ = [
    "Atom",
    "ReducedWord",
    "Word",
    "WordSyntaxError",
    "free_reduce",
    "gen",
    "parse_word",
    "format_word",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offset of the problem, in characters."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def free_reduce(letters: Iterable) -> tuple:
    """Cancel adjacent mutually-inverse letters until none remain.

    Works for any letter type with a ``cancels`` method.  Deleting the
    leftmost cancelling pair first is confluent, so the result does not
    depend on the order of cancellation.
    """
    out: list = []
    for a in letters:
        if out and out[-1].cancels(a):
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _join(a: tuple, b: tuple) -> tuple:
    """The reduced product of two reduced tuples of letters.

    Neither side can cancel within itself, so cancellation happens only at
    the seam: pop the pairs that cancel there and concatenate the rest.
    """
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1].cancels(b[j]):
        i -= 1
        j += 1
    return a[:i] + b[j:]


class Atom:
    """One letter of a word: a generator name or a bracketed word, with a sign.

    An atom stores no hash: it hashes ``(base, sign)`` on each call, which
    reads the stored hash of a bracket body.  A body not yet hashed is hashed
    first, after the unhashed bodies below it in the order of
    :func:`_children_first`, which walks only those, on an explicit stack: so
    a chain nested thousands deep hashes with no recursion.
    """

    __slots__ = ("base", "sign")

    def __init__(self, base: Union[str, "Word"], sign: int = 1):
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"atom sign must be +1 or -1, got {sign!r}")
        if isinstance(base, str):
            if not _IDENT_RE.fullmatch(base):
                raise ValueError(f"invalid generator name {base!r}")
        elif not isinstance(base, Word):
            raise TypeError(f"atom base must be a generator name or a Word, got {type(base)!r}")
        self.base = base
        self.sign = sign

    @property
    def is_bracket(self) -> bool:
        return not isinstance(self.base, str)

    @property
    def name(self) -> str:
        """Generator name; only valid for generator atoms."""
        if self.is_bracket:
            raise ValueError("bracket atom has no generator name")
        return self.base

    @property
    def body(self) -> "Word":
        """Enclosed word; only valid for bracket atoms."""
        if not self.is_bracket:
            raise ValueError("generator atom has no bracket body")
        return self.base

    @classmethod
    def _make(cls, base: Union[str, "Word"], sign: int) -> "Atom":
        # trusted constructor for parts already known to be valid: a name
        # matched by _IDENT_RE or a Word, and a sign of +1 or -1
        a = cls.__new__(cls)
        a.base, a.sign = base, sign
        return a

    def inverse(self) -> "Atom":
        return Atom._make(self.base, -self.sign)

    def cancels(self, other: "Atom") -> bool:
        return self.sign == -other.sign and self.base == other.base

    def depth(self) -> int:
        return self.base.depth() + 1 if self.is_bracket else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        if self.base is other.base:  # a shared body, as merges and ** make
            return self.sign == other.sign
        # an explicit stack of the atom pairs still to compare, so that equal
        # words nested thousands deep do not recurse through __eq__
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.sign != b.sign:
                return False
            u, v = a.base, b.base
            if isinstance(u, str) or isinstance(v, str):
                if u != v:
                    return False
            elif u is not v:
                if len(u.atoms) != len(v.atoms):
                    return False
                stack.extend(zip(u.atoms, v.atoms))
        return True

    def __hash__(self) -> int:
        base = self.base
        if not isinstance(base, str) and base._hash is None:
            # each listed body contains only hashed bodies when its turn comes
            for u in _children_first(base, lambda b: b._hash is not None):
                hash(u)
        return hash((base, self.sign))

    def __repr__(self) -> str:
        return format_word(Word._reduced((self,)))


class ReducedWord:
    """A reduced tuple of letters, ``atoms``; the empty word is the identity.

    The constructor reduces its input, so the product is concatenation::

        u * v   ==  type(u)(u.atoms + v.atoms)

    Two reduced words cancel only at their seam, so the product pops the
    cancelling pairs there and reduces nothing else.  A reduced word is
    ``p c p^-1`` with ``c`` cyclically reduced, so its power is
    ``p c^n p^-1``, which needs no reduction at all.

    Equality and the product are strict about the subclass: words of two
    theories are never equal and cannot be multiplied.

    A word hashes its atoms on the first ``hash()`` and keeps the result in
    ``_hash``, None until then: most intermediate words of a product or a
    derivation are never hashed.  No letter stores a hash, and equality reads
    none.  Hashing cannot recurse: an :class:`Atom` hashes the unhashed bodies
    below it children first, so each body's hash reads stored hashes only.
    """

    __slots__ = ("atoms", "_hash", "_cached_plan")

    def __init__(self, atoms: Iterable = ()):
        self.atoms = free_reduce(atoms)
        self._hash = None

    @classmethod
    def _reduced(cls, atoms: tuple):
        # trusted constructor for a tuple of atoms already known to be reduced
        w = cls.__new__(cls)
        w.atoms = atoms
        w._hash = None
        return w

    def _plan(self) -> tuple:
        """``(names, bodies, steps)``: how to evaluate the word, from the
        subclass's ``_make_plan`` on first use; a word never changes, so
        neither does its plan.

        ``names`` are its generator names in the order an evaluation meets
        them; ``bodies`` are its distinct bracket bodies, each after every
        body it contains, and ``steps`` the word's own letters.  A body or
        the word is a tuple of ``(slot, sign)`` steps, one per letter: slot
        ``i`` is ``names[i]`` for ``i < len(names)`` and else the bracket of
        ``bodies[i - len(names)]``.  Equal steps are one tuple.  The plan
        holds only names and ints, so it refers to no word object.
        """
        try:
            return self._cached_plan
        except AttributeError:
            plan = self._cached_plan = self._make_plan()
            return plan

    @property
    def is_identity(self) -> bool:
        return not self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator:
        return iter(self.atoms)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._reduced(_join(self.atoms, other.atoms))

    def inverse(self):
        # the inverse of a reduced word is reduced
        return self._reduced(tuple(a.inverse() for a in reversed(self.atoms)))

    def __invert__(self):
        return self.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return type(self)()
        atoms = (self if n > 0 else self.inverse()).atoms
        # split off the longest p with atoms == p c p^-1; c is not empty (two
        # adjacent letters of a reduced word never cancel) and its ends do not
        # cancel, so p c^|n| p^-1 is reduced
        L, k = len(atoms), 0
        while 2 * k + 1 < L and atoms[k].cancels(atoms[L - 1 - k]):
            k += 1
        return self._reduced(atoms[:k] + atoms[k:L - k] * abs(n) + atoms[L - k:])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self.atoms == other.atoms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.atoms)
        return h


class Word(ReducedWord):
    """A reduced sequence of atoms.  ``Word()`` is the group identity.

    A word caches three things it computes on first use: its hash, its
    evaluation plan (see :meth:`ReducedWord._plan`) and, for
    :mod:`opgroups.rota_baxter`, why it is not a Rota-Baxter word (None if
    it is one).  All three depend only on the atoms, which never change, so
    a cached value is the value a fresh computation would give.  Its atoms
    cache nothing.
    """

    __slots__ = ("_rb_violation",)

    def _make_plan(self) -> tuple:
        # the plan of ReducedWord._plan, its bodies in _children_first order
        order = _children_first(self)
        slots: dict = {}  # a generator name or the id of a body -> its slot
        for u in order:
            for a in u.atoms:
                if isinstance(a.base, str) and a.base not in slots:
                    slots[a.base] = len(slots)
        names = tuple(slots)
        for u in order[:-1]:
            slots[id(u)] = len(slots)
        shared: dict = {}  # one tuple per distinct step
        plans = [tuple(shared.setdefault(s, s) for s in
                       ((slots[a.base if isinstance(a.base, str) else id(a.base)], a.sign)
                        for a in u.atoms))
                 for u in order]
        return names, tuple(plans[:-1]), plans[-1]

    def depth(self) -> int:
        """Maximal bracket nesting; 0 for bracket-free words and the identity."""
        names, bodies, steps = self._plan()
        k = len(names)
        depths: list[int] = []  # of each body, in plan order
        for body in (*bodies, steps):
            depths.append(max((depths[i - k] + 1 for i, _ in body if i >= k), default=0))
        return depths[-1]

    def breadth(self) -> int:
        """Number of atoms in the standard (reduced) factorization."""
        return len(self.atoms)

    def __repr__(self) -> str:
        return format_word(self)


def _children_first(w: Word, skip=None) -> list:
    """``w`` and its bracket bodies, each distinct body object once and after
    every body it contains.  Merges and ``**`` share bodies, so a walk per
    occurrence can take time exponential in the depth.  A body for which
    ``skip`` is true is left out, with every body below it."""
    # an explicit stack of (body, rest of its atoms); w keeps every id valid
    order, seen = [], set()
    frames = [(w, iter(w.atoms))]
    while frames:
        for a in frames[-1][1]:
            b = a.base
            if not isinstance(b, str) and id(b) not in seen:
                seen.add(id(b))
                if skip is None or not skip(b):
                    frames.append((b, iter(b.atoms)))
                    break
        else:
            order.append(frames.pop()[0])
    return order


def gen(name: str, sign: int = 1) -> Word:
    """The one-atom word for a generator (or its inverse, with sign=-1)."""
    return Word((Atom(name, sign),))


# --- parsing ---------------------------------------------------------------

# One token after optional whitespace, named by the group that matched last
# (``lastindex``): 1 "<", 2 "B(", 3 "1", 4 ">" or ")", 7 a generator; 5 and 8
# add "^-1" to 4 and 7, and 6 and 9 a bare "^" (an error).  Group 10, any
# other character, is an error too, so the matches of a text leave no gaps.
_TOKEN_RE = re.compile(
    r"\s*(?:(<)|(B\()|(1)(?!\w)|([>)])(?:(\^-1)|(\^))?"
    rf"|({_IDENT_RE.pattern})(?:(\^-1)|(\^))?|(\S))")


def _token_error(text: str, m: re.Match) -> WordSyntaxError:
    # the error of a match in group 6, 9 or 10 of _TOKEN_RE
    k = m.lastindex
    pos = m.start(k)
    if k != 10:
        return WordSyntaxError("expected '^-1'", pos)
    if text[pos] == "1":
        return WordSyntaxError(f"invalid token {text[pos:pos + 2]!r}...", pos)
    return WordSyntaxError(f"invalid token {text[pos]!r}", pos)


def parse_word(text: str) -> Word:
    """Parse text into a reduced Word.

    The tokens, with optional whitespace between them, are ``<``, ``B(``,
    ``>`` or ``)`` with an optional ``^-1``, ``1`` not followed by a letter,
    digit or ``_``, and a generator with an optional ``^-1``.  Unreduced
    input such as ``"x x^-1"`` is accepted and silently reduced.  Malformed
    input raises :class:`WordSyntaxError` with the offset of its leftmost
    error: the text is read once, left to right, up to the first bad token.
    """
    # One grammar level is "1" or a nonempty run of terms.  An open bracket
    # saves the enclosing level on an explicit stack, so deep nesting cannot
    # overflow; its closer builds the body and resumes the enclosing level.
    make = Atom._make
    stack: list[tuple[list, bool, object, int]] = []
    atoms: list[Atom] = []
    saw_one = False
    closer, open_pos = None, 0  # the closer that ends this level, and its opener's offset
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 7 or k == 8:
            if saw_one:
                raise WordSyntaxError("'1' must stand alone", m.start(7))
            atoms.append(make(m[7], 1 if k == 7 else -1))
        elif k == 4 or k == 5:
            if m[4] != closer:
                if closer is None:
                    raise WordSyntaxError("unbalanced bracket: unexpected closer", m.start(4))
                raise WordSyntaxError("mismatched bracket closer", m.start(4))
            if not atoms and not saw_one:
                raise WordSyntaxError("empty word (write '1' for the identity)", open_pos)
            body = Word(atoms)
            atoms, saw_one, closer, open_pos = stack.pop()
            atoms.append(make(body, 1 if k == 4 else -1))
        elif k <= 2:
            if saw_one:
                raise WordSyntaxError("'1' must stand alone", m.start(k))
            stack.append((atoms, saw_one, closer, open_pos))
            atoms, saw_one = [], False
            closer, open_pos = (">" if k == 1 else ")"), m.start(k)
        elif k == 3:
            if atoms or saw_one:
                raise WordSyntaxError("'1' must stand alone", m.start(3))
            saw_one = True
        else:
            raise _token_error(text, m)
    if closer is not None:
        raise WordSyntaxError("unbalanced bracket: missing closer", open_pos)
    if not atoms and not saw_one:
        raise WordSyntaxError("empty word (write '1' for the identity)", len(text))
    return Word(atoms)


def format_word(w: Word) -> str:
    """Canonical text form; ``parse_word(format_word(w)) == w`` exactly.

    One pass over the atoms with an explicit stack, so deep nesting cannot
    overflow, and with a memo of the text of each bracket body for the length
    of the call: bracket merges and ``**`` share body objects, so each
    distinct body is printed once however often it occurs.
    """
    texts: dict[int, str] = {}  # id of a body -> its text; w keeps every body alive
    # frames of the words being printed, w first: (word, rest of its atoms, texts so far, sign)
    frames = [(w, iter(w.atoms), [], 1)]
    while True:
        body, rest, parts, sign = frames[-1]
        for a in rest:
            base = a.base
            if isinstance(base, str):
                parts.append(base if a.sign > 0 else base + "^-1")
                continue
            text = texts.get(id(base))
            if text is None:
                frames.append((base, iter(base.atoms), [], a.sign))
                break
            parts.append(f"<{text}>" if a.sign > 0 else f"<{text}>^-1")
        else:
            frames.pop()
            text = texts[id(body)] = " ".join(parts) or "1"
            if not frames:
                return text
            frames[-1][2].append(f"<{text}>" if sign > 0 else f"<{text}>^-1")
