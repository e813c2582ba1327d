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
bodies, so the product recurses as deep as the brackets nest, not once per
letter.  Each call of :func:`diamond` memoises its merges, keyed by the
identities of the two bracket bodies, for the length of that call: the merges
of nested brackets ask for the same pairs of body objects many times over,
and each is computed once, with no word hashed.  The memo is dropped when the
call returns, so no memory outlives a product.  The test suite checks the
product against a flat, unmemoised rewriting oracle.

Because the Rota-Baxter relation forces ``B(1) = 1`` in every group carrying
such an operator (``B(1)B(1) = B(1 · B(1) 1 B(1)^-1) = B(1)``), the bracket
of the empty word collapses to the identity here: :func:`rb_bracket` maps 1
to 1, merges whose body comes out empty drop the bracket, and words
containing an empty bracket body are rejected as Rota-Baxter words.

Known limitation: this word model does not quite realize a group.  The local
merge rules are not confluent, so the product fails associativity on rare
configurations in which a merged bracket later meets an exact inverse of one
of its ingredients (roughly 2 to 3 per 1000 random triples of depth 3; see
``tests/test_rota_baxter.py`` for a pinned minimal example).  Evaluation
into any honest Rota-Baxter group is nevertheless a homomorphism for every
product this module computes, because every local rule is an identity of
Rota-Baxter groups.
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
# identities of the two bodies (memo misses), not the requests for them;
# squaring <<<<<x>>>>> takes 453.
MERGE_BUDGET = 1_000_000

# The product's stack machine leaves its stack reduced (see _Product.push),
# so it skips free reduction.
_word = Word._reduced
_UNSEEN = object()  # not yet in the cache; None is a value there


class DiamondLimitError(RuntimeError):
    """The recursion guard fired: one product made more distinct bracket
    merges than ``MERGE_BUDGET`` (10^6).  This signals a bug in the product,
    not a property of the input; it must never happen for valid Rota-Baxter
    words.  The message names the budget and the lengths and depths of the
    two operands."""


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
        # (id of a's body, id of b's body) -> (a, b, their merge); keeping a
        # and b keeps both bodies alive, so no id is reused during the call
        self.memo: dict[tuple[int, int], tuple[Atom, Atom, Optional[Atom]]] = {}
        self.left = MERGE_BUDGET
        self.u, self.v = u, v

    def push(self, stack: list, incoming) -> list:
        # The free_reduce loop with one more rule: push each incoming atom
        # onto the stack, popping the top when the two cancel, and when they
        # are same-sign brackets popping the top and pushing their merge in
        # place of the incoming atom.  The stack starts, and so stays, with
        # no two adjacent atoms that cancel or merge, so this is the
        # leftmost-first rewriting of the stack followed by the incoming atoms.
        for b in incoming:
            while stack:
                a = stack[-1]
                if a.sign != b.sign:
                    if a.base == b.base:
                        stack.pop()
                        b = None
                    break
                if isinstance(a.base, str) or isinstance(b.base, str):
                    break
                stack.pop()
                b = self.merge(a, b)
                if b is None:
                    break
            if b is not None:
                stack.append(b)
        return stack

    def merge(self, a: Atom, b: Atom) -> Optional[Atom]:
        # <ā> <b̄> = < ā ⋄ AD >, or None when the body comes out empty (the
        # bracket of 1 is 1); two negative brackets merge as the inverse of
        # the swapped positive merge.  Only here does the product recurse,
        # and only into the bracket bodies.
        if a.sign < 0:
            m = self.merge(b.inverse(), a.inverse())
            return None if m is None else m.inverse()
        key = (id(a.base), id(b.base))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[2]
        self.left -= 1
        if self.left < 0:
            u, v = self.u, self.v
            raise DiamondLimitError(
                f"diamond recursion guard exceeded: more than {MERGE_BUDGET} distinct "
                f"subproducts for operands of length {len(u)} and {len(v)}, "
                f"depth {u.depth()} and {v.depth()}")
        # AD of b̄ by the positive bracket a: the left-bracketed conjugate
        # (a ⋄ b̄) ⋄ a^-1, so every factor of b̄ meets its left neighbour
        # before the closing a^-1 meets the last one
        ad = self.push(self.push([a], b.base.atoms), (a.inverse(),))
        body = self.push(list(a.base.atoms), ad)
        m = Atom._make(_word(tuple(body)), 1) if body else None
        self.memo[key] = (a, b, m)
        return m


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
