"""The free operated group on bracketed words and its universal evaluator.

Bracketing is the free operator: applying it to a word ``w`` yields the
one-atom word ``<w>``.  Given any target group carrying an arbitrary self-map
``op`` and an assignment of the generators, :func:`evaluate` computes the
image of a word under the unique operated-group homomorphism extending the
assignment: generators go to their assigned elements, concatenation to the
carrier product, and a bracket to ``op`` applied to the evaluated body.

The free differential and Rota-Baxter groups are operated groups with a law,
so :func:`evaluate` is the one evaluator of all three theories: it runs a
word's evaluation plan, which a Rota-Baxter word builds from its brackets and
a derived-letter word by reading ``x.n`` as ``x`` inside n brackets.

The plan runs in one of two lanes, chosen by the type of the target's group.
Into a :class:`~opgroups.groups.FiniteGroup` it runs on the group's Cayley
table and inverse table, whose elements are indices; there every generator
image and every ``op`` image is checked to be an element index, as the table
would otherwise read -1 as the last element or fail with a bare IndexError.
Into any other carrier it runs through :func:`multiply_images`, on the
carrier's own ``mul`` and ``inv`` over opaque elements.  That lane stays, as
a carrier need not have a table to read: it need not be finite (the free
objects themselves are targets), and its elements need not be indices, so
that lane checks nothing of the images.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .groups import FiniteGroup, _is_index
from .words import Atom, ReducedWord, Word

__all__ = [
    "OperatedTarget",
    "UnassignedGeneratorError",
    "bracket",
    "evaluate",
    "multiply_images",
]


class UnassignedGeneratorError(LookupError):
    """A word mentions a generator the assignment does not cover."""

    def __init__(self, symbol: str):
        super().__init__(f"no image assigned for generator {symbol!r}")
        self.symbol = symbol


def bracket(w: Word) -> Word:
    """The one-atom word ``<w>``.  Note ``bracket(Word())`` is ``<1>``, not 1."""
    return Word((Atom(w, 1),))


class OperatedTarget:
    """A group together with an arbitrary self-map.

    ``group`` must expose ``identity()``, ``mul(a, b)`` and ``inv(a)`` over
    opaque carrier elements; ``op`` is any total map on those elements.  No
    law is required of ``op``.
    """

    def __init__(self, group, op: Callable):
        self.group = group
        self.op = op


def multiply_images(steps, group, values):
    """The product in ``group`` over the ``(slot, sign)`` steps of a plan of
    ``values[slot]``, inverted where ``sign`` is negative: the generic lane
    of :func:`evaluate`, for a carrier that is not a ``FiniteGroup``.  The
    images of the slots are computed before the loop, so it calls only
    ``group.mul`` and ``group.inv`` per step.  The product starts from the
    first factor, so ``group.identity()`` is called only for no steps, as for
    ``<1>``."""
    if not steps:
        return group.identity()
    mul, inv = group.mul, group.inv
    rest = iter(steps)
    slot, sign = next(rest)
    acc = values[slot] if sign > 0 else inv(values[slot])
    for slot, sign in rest:
        acc = mul(acc, values[slot] if sign > 0 else inv(values[slot]))
    return acc


def evaluate(w: ReducedWord, assignment: Mapping[str, object], target: OperatedTarget):
    """Image of ``w`` under the homomorphism sending each generator to its
    assigned carrier element and each bracket to ``target.op`` of its body.

    ``w`` is a :class:`Word` or a ``differential.DiffWord``, whose ``x.n``
    is ``x`` inside n brackets.  Runs the word's cached plan
    (:meth:`ReducedWord._plan`): the plan depends only on the word and the
    images only on this call's assignment and target, so every call computes
    its images afresh.  Each distinct body is valued and sent through ``op``
    once, before every word that encloses it.

    When ``target.group`` is a ``FiniteGroup``, each product is read off its
    tables, starting from the identity.  An image that is no element index
    (a bool, a float, -1 or the order) raises ValueError: an assigned one
    names its generator, and one that ``op`` returns names the bracket's
    plan slot and the body value that ``op`` sent there.  Any other carrier
    multiplies through :func:`multiply_images`.  A generator without an
    image raises :class:`UnassignedGeneratorError` in both lanes, before any
    image is checked.
    """
    names, bodies, steps = w._plan()
    values = []  # the image of each slot of the plan
    for s in names:
        try:
            values.append(assignment[s])
        except KeyError:
            raise UnassignedGeneratorError(s) from None
    g, op = target.group, target.op
    if not isinstance(g, FiniteGroup):
        for body in bodies:
            values.append(op(multiply_images(body, g, values)))
        return multiply_images(steps, g, values)

    rows, inv, e = g._table, g._inv, g.identity_index
    n = len(rows)
    for v in values:
        if not (type(v) is int and 0 <= v < n or _is_index(v, n)):
            s = next(s for s, u in zip(names, values) if u is v)
            raise ValueError(f"the image {v!r} of generator {s!r} is not an element index")
    for body in bodies:
        acc = e
        for slot, sign in body:
            acc = rows[acc][values[slot] if sign > 0 else inv[values[slot]]]
        v = op(acc)
        if not (type(v) is int and 0 <= v < n or _is_index(v, n)):
            raise ValueError(f"op sends {acc!r}, the body of the bracket in slot {len(values)}, "
                             f"to {v!r}, which is not an element index")
        values.append(v)
    acc = e
    for slot, sign in steps:
        acc = rows[acc][values[slot] if sign > 0 else inv[values[slot]]]
    return acc
