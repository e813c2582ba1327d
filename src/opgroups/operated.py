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
"""

from __future__ import annotations

from typing import Callable, Mapping

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
    ``values[slot]``, inverted where ``sign`` is negative.  The images of the
    slots are computed before the loop, so it calls only ``group.mul`` and
    ``group.inv`` per step."""
    mul, inv = group.mul, group.inv
    acc = group.identity()
    for slot, sign in steps:
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
    """
    names, bodies, steps = w._plan()
    values = []  # the image of each slot of the plan
    for s in names:
        try:
            values.append(assignment[s])
        except KeyError:
            raise UnassignedGeneratorError(s) from None
    g, op = target.group, target.op
    for body in bodies:
        values.append(op(multiply_images(body, g, values)))
    return multiply_images(steps, g, values)
