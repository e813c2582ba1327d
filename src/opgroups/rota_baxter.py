"""The free Rota-Baxter group of weight 1 on bracketed words.

Its carrier is the set of *Rota-Baxter words*: reduced bracketed words with
no two adjacent same-sign brackets at any nesting level (a positive bracket
next to a negative one is fine).  Bracketing is the Rota-Baxter operator, and
the group law -- the diamond product -- concatenates words, merging at the
seam when two same-sign brackets or two mutually-inverse atoms collide.

Merging adjacent positive brackets is the interesting step:

    <a> <b>  =  < a ⋄ AD >      where AD = (<a> ⋄ b) ⋄ <a>^-1

with AD computed literally as this left-bracketed conjugation: every factor
of b meets its left neighbour before the closing <a>^-1 meets the last one.
The bracketing matters because the product is not associative on every
triple (see the known limitation below).  With it, the Rota-Baxter relation
``<u> ⋄ <v> = <u ⋄ ((<u> ⋄ v) ⋄ <u>^-1)>`` holds for every pair of
Rota-Baxter words, because both sides compute the same body.  Adjacent
negative brackets merge through the inverse of the swapped positive merge.
Each merge can expose a new collision on its left, so combination cascades
until the word is again a Rota-Baxter word.

There is one production product, a stack machine: the atoms of the right
factor are pushed one at a time onto those of the left, and the top atom and
the incoming one cancel, merge into one bracket that is pushed in place of
the incoming atom, or stay side by side.  This is leftmost-first rewriting of
the concatenated atoms.  Only a merge recurses, and only into the bracket
bodies, not once per letter.  But a merge's body is built by merges too, so
merges nest as deep as the brackets of the *result*, not of the operands:
squaring a chain of depth 2-9 nests them 5, 9, 15, 25, 43, 77, 143 and 273
deep, and at depth 11 the interpreter's stack runs out before
``MERGE_BUDGET`` does.  Each call of :func:`diamond` memoises its merges
for the length of that call: the merges of nested brackets ask for the same
pairs of body objects many times over, and each is computed once, with no
word hashed.  One entry, keyed by the identities of the two bodies of a
positive merge ``<x> <y>``, holds its result and the inverse of it; the
negative merge ``<y>^-1 <x>^-1`` reads that entry, so the memo and the
budget count positive pairs whatever the signs asked.  The memo is dropped
when the call returns, so no memory outlives a product.  Every sequence of
atoms the machine pushes (the right factor, a bracket body, a merge's stack
or one atom) has no two neighbours that cancel or merge, so once one of its
atoms lands on the stack untouched, the rest follows in one slice.  The
test suite checks the product against a flat, unmemoised rewriting oracle.

Because the Rota-Baxter relation forces ``B(1) = 1`` in every group carrying
such an operator (``B(1)B(1) = B(1 · B(1) 1 B(1)^-1) = B(1)``), the bracket
of the empty word collapses to the identity here: :func:`rb_bracket` maps 1
to 1, merges whose body comes out empty drop the bracket, and words
containing an empty bracket body are rejected as Rota-Baxter words.

Known limitation: this word model does not realize a group.  No merge rule
applies where a positive and a negative bracket meet, so the rules are not
confluent.  Over the Rota-Baxter words in x and y of size at most 2 (atoms
counted at every nesting level), cancellation ``(u ⋄ v) ⋄ v^-1 = u`` fails
on about 5% of the pairs, and at size at most 3 on 12%; see the census in
``tests/test_rota_baxter.py``.  Evaluation into any honest Rota-Baxter group
is nevertheless a homomorphism for every product this module computes,
because every local rule is an identity of Rota-Baxter groups.  Some
products of valid words are not computed at all: the merge in
``<<x>^-1 x^-1 <x>> ⋄ <x>`` asks for its own result, and raises
:class:`DiamondLimitError`.  In a Rota-Baxter group B(x) B(a) = B(1) = 1 for
a = B(x)^-1 x^-1 B(x), so this product is 1; a confluent normal form
(ROADMAP item 6) must make such pairs compute.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import operated
from .finite import Law, LawTarget
from .words import Atom, Word

__all__ = [
    "DiamondLimitError",
    "RBTarget",
    "diamond",
    "evaluate",
    "find_rb_violation",
    "is_rb_word",
    "rb_bracket",
    "rb_inverse",
]

# The guard counts the distinct bracket merges one product makes, by the
# identities of the two bodies of the positive merge (memo misses), not the
# requests for them, of either sign; squaring <<<<<x>>>>> takes 453.
MERGE_BUDGET = 1_000_000

# The product's stack machine leaves its stack reduced (see _Product.push),
# so it skips free reduction.
_word = Word._reduced
_UNSEEN = object()  # not yet in a cache, or not yet computed; None is a value there


class DiamondLimitError(RuntimeError):
    """The recursion guard fired: one product made more distinct bracket
    merges than ``MERGE_BUDGET`` (10^6), and the message names the budget
    and the lengths and depths of the two operands; or a merge asked for its
    own result, and the message names its two brackets.  The second happens
    on valid Rota-Baxter words, such as ``<<x>^-1 x^-1 <x>> ⋄ <x>``, whose
    product is 1 in every Rota-Baxter group (see the module docstring): a
    confluent normal form (ROADMAP item 6) must make these pairs compute."""


def find_rb_violation(w: Word) -> Optional[str]:
    """Why ``w`` is not a Rota-Baxter word, or None if it is one.

    The answer is cached on ``w``: it depends only on the atoms, which never
    change, so checking one word again (as :func:`evaluate` does for every
    target) costs nothing.
    """
    # getattr with a default is cheaper than catching AttributeError on a
    # miss, which every new word is
    reason = getattr(w, "_rb_violation", _UNSEEN)
    if reason is _UNSEEN:
        reason = w._rb_violation = _find_rb_violation(w)
    return reason


def _find_rb_violation(w: Word) -> Optional[str]:
    # depth first over the bracket bodies, with an explicit stack so deep
    # nesting cannot overflow the interpreter stack; the path of a body is
    # the pair (its position, the path of the word that encloses it).  A body
    # object met again (merges and ** share them) was checked whole already.
    stack, checked = [(w, None)], set()
    while stack:
        u, path = stack.pop()
        if id(u) in checked:
            continue
        checked.add(id(u))
        if path is not None and not u.atoms:
            return (_inside(path[1]) + f"bracket with empty body at position {path[0]} "
                    "(the operator sends 1 to 1)")
        bodies = []
        prev = 0  # the sign of the previous atom if it is a bracket, else 0
        for i, a in enumerate(u.atoms):
            if isinstance(a.base, str):
                prev = 0
            elif a.sign == prev:
                return (_inside(path) + f"adjacent same-sign brackets {u.atoms[i - 1]!r} "
                        f"{a!r} at positions {i - 1}-{i}")
            else:
                prev = a.sign
                bodies.append((a.base, (i, path)))
        bodies.reverse()
        stack += bodies
    return None


def _inside(path) -> str:
    # "inside bracket at position i: " for each bracket on the path, outermost first
    out = []
    while path is not None:
        out.append(f"inside bracket at position {path[0]}: ")
        path = path[1]
    return "".join(reversed(out))


def is_rb_word(w: Word) -> bool:
    """True iff ``w`` is reduced with no empty bracket body and no two
    adjacent same-sign brackets, at any nesting level."""
    return find_rb_violation(w) is None


def _require_rb(w: Word, what: str = "word") -> None:
    reason = find_rb_violation(w)
    if reason:
        raise ValueError(f"{what} is not a Rota-Baxter word: {reason}")


def rb_bracket(w: Word) -> Word:
    """The Rota-Baxter operator: w -> <w> for w != 1, and 1 -> 1.

    Sending the identity to the identity is forced: any operator satisfying
    the Rota-Baxter relation has B(1) idempotent, hence B(1) = 1.
    """
    _require_rb(w)
    if w.is_identity:
        return w
    return Word((Atom(w, 1),))


def rb_inverse(w: Word) -> Word:
    """Group inverse; Rota-Baxter words are closed under it."""
    _require_rb(w)
    return w.inverse()


class _Product:
    # One per top-level product: the memo of every bracket merge made so far
    # in this call, the merges left in the budget and the operands named when
    # it runs out.
    __slots__ = ("memo", "left", "u", "v")

    def __init__(self, u: Word, v: Word):
        # (id of x, id of y) for the positive merge <x> <y> -> [x, y, its
        # result, the inverse of its result], the results _UNSEEN while it is
        # computed; <y>^-1 <x>^-1 reads the same entry.  Keeping x and y keeps
        # both bodies alive, so no id is reused during the call
        self.memo: dict[tuple[int, int], list] = {}
        self.left = MERGE_BUDGET
        self.u, self.v = u, v

    def push(self, stack: list, incoming) -> list:
        # The free_reduce loop with one more rule: push each incoming atom
        # onto the stack, popping the top when the two cancel, and when they
        # are same-sign brackets popping the top and pushing their merge in
        # place of the incoming atom.  The stack starts, and so stays, with
        # no two adjacent atoms that cancel or merge, so this is the
        # leftmost-first rewriting of the stack followed by the incoming atoms.
        # Nor do two adjacent incoming atoms cancel or merge: they are those
        # of v, of a bracket body, of a merge stack, or one atom.  So once an
        # incoming atom lands on the stack untouched, so does every later one,
        # and the rest goes on in one slice; a merge of it may still cancel
        # the next one.
        for i, b in enumerate(incoming):
            m = b  # what b has become: b, a merge of it, or None
            while stack:
                a = stack[-1]
                x, y = a.base, m.base
                if a.sign != m.sign:
                    # identity first, then the kinds: a name never equals a
                    # word, and comparing them costs a reflected round trip
                    if x is y or (isinstance(x, str) is isinstance(y, str) and x == y):
                        stack.pop()
                        m = None
                    break
                if isinstance(x, str) or isinstance(y, str):
                    break
                stack.pop()
                m = self.merge(a, m)
                if m is None:
                    break
            if m is b:
                stack.append(b)
                stack += incoming[i + 1:]
                return stack
            if m is not None:
                stack.append(m)
        return stack

    def merge(self, a: Atom, b: Atom) -> Optional[Atom]:
        # <x> <y> = < x ⋄ AD >, or None when the body comes out empty (the
        # bracket of 1 is 1).  Two negative brackets <y>^-1 <x>^-1 merge as
        # the inverse of the swapped positive merge, so one memo entry serves
        # both signs and the budget counts positive pairs.  Only here does
        # the product recurse, and only into the bracket bodies.
        positive = a.sign > 0
        x, y = (a.base, b.base) if positive else (b.base, a.base)
        key = (id(x), id(y))
        hit = self.memo.get(key)
        if hit is not None:
            if hit[2] is not _UNSEEN:
                return hit[2] if positive else hit[3]
            # its own subproduct: the recursion would never end
            raise DiamondLimitError(f"diamond recursion guard: the merge of "
                                    f"{Atom._make(x, 1)!r} and {Atom._make(y, 1)!r} "
                                    "asks for its own result")
        self.left -= 1
        if self.left < 0:
            u, v = self.u, self.v
            raise DiamondLimitError(
                f"diamond recursion guard exceeded: more than {MERGE_BUDGET} distinct "
                f"subproducts for operands of length {len(u)} and {len(v)}, "
                f"depth {u.depth()} and {v.depth()}")
        # AD of y by the positive bracket p = <x>: the left-bracketed
        # conjugate (p ⋄ y) ⋄ p^-1, so every factor of y meets its left
        # neighbour before the closing p^-1 meets the last one
        entry = self.memo[key] = [x, y, _UNSEEN, None]
        # p = <x> is a itself for a positive pair, and for a negative one
        # the inverse of b, which is then p^-1
        p, p_inverse = (a, Atom._make(x, -1)) if positive else (Atom._make(x, 1), b)
        ad = self.push(self.push([p], y.atoms), (p_inverse,))
        body = self.push(list(x.atoms), ad)
        if body:
            w = _word(tuple(body))
            entry[2], entry[3] = Atom._make(w, 1), Atom._make(w, -1)
        else:
            entry[2] = None
        return entry[2] if positive else entry[3]


def diamond(u: Word, v: Word) -> Word:
    """The product of the free Rota-Baxter group.

    Both arguments must be Rota-Baxter words; the result is one.  The empty
    word is the two-sided identity and ``diamond(w, rb_inverse(w))`` is the
    identity, whatever the length of ``w``.

    The atoms of ``v`` are pushed one at a time onto those of ``u``; see the
    module docstring.  ``MERGE_BUDGET`` (10^6) bounds the number of distinct
    bracket merges the call makes; each is memoised for the rest of the call,
    so asking for it again costs no step.  :class:`DiamondLimitError` is
    raised beyond it.
    """
    _require_rb(u, "left factor")
    _require_rb(v, "right factor")
    return _word(tuple(_Product(u, v).push(list(u.atoms), v.atoms)))


# --- evaluation into Rota-Baxter groups --------------------------------------

class RBTarget(LawTarget):
    """A group with a weight-1 Rota-Baxter operator, validated as a
    :class:`~opgroups.finite.LawTarget`."""

    law = Law.RB_PLUS
    rule = "the weight-1 Rota-Baxter relation"


def evaluate(w: Word, assignment: Mapping[str, object], target: RBTarget):
    """Image of ``w`` under the homomorphism of Rota-Baxter groups extending
    the assignment: brackets evaluate through ``target.op``, and a negative
    bracket to the inverse of that."""
    _require_rb(w)
    return operated.evaluate(w, assignment, target)
