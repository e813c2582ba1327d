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

Two implementations are provided: :func:`diamond`, structured as the case
split on standard factorizations, and :func:`diamond_rewrite`, a flat
leftmost-first fixpoint rewriting of the concatenated atom sequence.  They
are cross-checked against each other in the test suite.  Each call of
:func:`diamond` or :func:`diamond_conjugate` memoises its subproducts for the
length of that call: the bracket merges ask for the same ``(u, v)`` pairs
many times over, and each is computed once.  The memo is dropped when the
call returns, so no memory outlives a product.

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
    "DEFAULT_GUARD_STEPS",
    "DiamondLimitError",
    "RBTarget",
    "diamond",
    "diamond_conjugate",
    "diamond_rewrite",
    "evaluate",
    "find_rb_violation",
    "is_rb_word",
    "rb_bracket",
    "rb_inverse",
]

# The guard counts the distinct subproducts one product computes (memo
# misses), not the recursive calls; squaring <<<<<x>>>>> takes 4,427.
DEFAULT_GUARD_STEPS = 1_000_000

# The product builds its words from pieces of reduced words that it knows
# not to cancel (see the seam split in _diamond_step), so it skips free
# reduction.
_word = Word._reduced


class DiamondLimitError(RuntimeError):
    """The recursion guard fired: one product computed more distinct
    subproducts than its ``max_steps`` budget.  This signals a bug in the
    product recursion, not a property of the input; it must never happen for
    valid Rota-Baxter words under the default budget.  The message names the
    budget and the lengths and depths of the two operands."""


def find_rb_violation(w: Word) -> Optional[str]:
    """Why ``w`` is not a Rota-Baxter word, or None if it is one."""
    # depth first over the bracket bodies, with an explicit stack so deep
    # nesting cannot overflow the interpreter stack; the path of a body is
    # the pair (its position, the path of the word that encloses it)
    stack = [(w, None)]
    while stack:
        u, path = stack.pop()
        if path is not None and not u.atoms:
            return (_inside(path[1]) + f"bracket with empty body at position {path[0]} "
                    "(the operator sends 1 to 1)")
        bodies = []
        prev = 0  # the sign of the previous atom if it is a bracket, else 0
        for i, a in enumerate(u.atoms):
            if not a.is_bracket:
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


class _Guard:
    # One per top-level product: the step budget, the operands named when it
    # fires, and the memo of every subproduct computed so far in this call.
    __slots__ = ("left", "budget", "u", "v", "memo")

    def __init__(self, steps: int, u: Word, v: Word):
        self.left = self.budget = steps
        self.u, self.v = u, v
        self.memo: dict[tuple[Word, Word], Word] = {}

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            u, v = self.u, self.v
            raise DiamondLimitError(
                f"diamond recursion guard exceeded: more than {self.budget} distinct "
                f"subproducts for operands of length {len(u)} and {len(v)}, "
                f"depth {u.depth()} and {v.depth()}")


def _diamond(u: Word, v: Word, guard: _Guard) -> Word:
    # _diamond is a pure function of two immutable words, and the bracket
    # merges ask for the same subproducts many times over, so each is
    # computed once per top-level call; only those computations tick.
    key = (u, v)
    r = guard.memo.get(key)
    if r is None:
        guard.tick()
        r = guard.memo[key] = _diamond_step(u, v, guard)
    return r


def _diamond_step(u: Word, v: Word, guard: _Guard) -> Word:
    if not u.atoms:
        return v
    if not v.atoms:
        return u
    ua, va = u.atoms, v.atoms
    if len(ua) == 1 and len(va) == 1:
        a, b = ua[0], va[0]
        if a.is_bracket and b.is_bracket:
            if a.sign == 1 and b.sign == 1:
                # <ā> ⋄ <b̄> = < ā ⋄ AD_<ā>(b̄) >, collapsing an empty body
                twist = _ad(a, b.base, guard)
                body = _diamond(a.base, twist, guard)
                if body.is_identity:
                    return body
                return _word((Atom(body, 1),))
            if a.sign == -1 and b.sign == -1:
                # swap into the positive case and invert
                return _diamond(_word((b.inverse(),)), _word((a.inverse(),)), guard).inverse()
        if a.cancels(b):
            return _word(())
        return _word((a, b))
    # split off the seam pair; a collapse there may expose new collisions,
    # which the recursive products resolve.  A two-atom seam is the pair
    # itself, unchanged, so the concatenation stays reduced.
    mid = _diamond(_word(ua[-1:]), _word(va[:1]), guard)
    if len(mid) == 2:
        return _word(ua[:-1] + mid.atoms + va[1:])
    left = _diamond(_word(ua[:-1]), mid, guard)
    return _diamond(left, _word(va[1:]), guard)


def _ad(u_atom: Atom, vbar: Word, guard: _Guard) -> Word:
    # Twist of vbar by the positive bracket u: the left-bracketed conjugate
    # (u ⋄ vbar) ⋄ u^-1, so that every factor of vbar meets its left
    # neighbour before the closing u^-1 meets the last factor
    u = _word((u_atom,))
    return _diamond(_diamond(u, vbar, guard), u.inverse(), guard)


def diamond(u: Word, v: Word, *, max_steps: int = DEFAULT_GUARD_STEPS) -> Word:
    """The product of the free Rota-Baxter group.

    Both arguments must be Rota-Baxter words; the result is one.  The empty
    word is the two-sided identity and ``diamond(w, rb_inverse(w))`` is the
    identity.

    ``max_steps`` bounds the number of distinct subproducts the call
    computes; each is memoised for the rest of the call, so asking for it
    again costs no step.  :class:`DiamondLimitError` is raised beyond it.
    """
    _require_rb(u, "left factor")
    _require_rb(v, "right factor")
    return _diamond(u, v, _Guard(max_steps, u, v))


def diamond_conjugate(u: Word, vbar: Word, *, max_steps: int = DEFAULT_GUARD_STEPS) -> Word:
    """The twist AD of ``vbar`` by a one-atom positive bracket ``u``: the
    left-bracketed diamond conjugation ``(u ⋄ vbar) ⋄ u^-1``, the body twist
    that :func:`diamond` uses to merge ``u`` with ``<vbar>``.  ``max_steps``
    bounds its distinct subproducts as in :func:`diamond`."""
    if len(u.atoms) != 1 or not u.atoms[0].is_bracket or u.atoms[0].sign != 1:
        raise ValueError("conjugating element must be a single positive bracket <...>")
    _require_rb(u, "conjugating element")
    _require_rb(vbar, "conjugated word")
    return _ad(u.atoms[0], vbar, _Guard(max_steps, u, vbar))


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
