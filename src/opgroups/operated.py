"""The free operated group on bracketed words and its universal evaluator.

Bracketing is the free operator: applying it to a word ``w`` yields the
one-atom word ``<w>``.  Given any target group carrying an arbitrary self-map
``op`` and an assignment of the generators, :func:`evaluate` computes the
image of a word under the unique operated-group homomorphism extending the
assignment: generators go to their assigned elements, concatenation to the
carrier product, and a bracket to ``op`` applied to the evaluated body.

The free differential and Rota-Baxter groups are operated groups with a law,
so every evaluator runs :func:`multiply_images`, the one loop over a word's
letters; each theory supplies only the image of one letter.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .words import Atom, Word, _children_first

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


def multiply_images(w, group, image: Callable):
    """The product in ``group`` of ``image(a)`` over the letters ``a`` of
    ``w``, inverted where ``a`` is negative: ``image`` maps a letter to the
    image of its positive form."""
    acc = group.identity()
    for a in w.atoms:
        val = image(a)
        if a.sign < 0:
            val = group.inv(val)
        acc = group.mul(acc, val)
    return acc


def evaluate(w: Word, assignment: Mapping[str, object], target: OperatedTarget):
    """Image of ``w`` under the homomorphism sending each generator to its
    assigned carrier element and each bracket to ``target.op`` of its body."""
    g, op = target.group, target.op
    values: dict[int, object] = {}  # id of a word -> its image

    def image(atom: Atom):
        base = atom.base
        if isinstance(base, str):
            try:
                return assignment[base]
            except KeyError:
                raise UnassignedGeneratorError(base) from None
        return op(values[id(base)])

    # each distinct body once, before every word that encloses it
    for u in _children_first(w):
        values[id(u)] = multiply_images(u, g, image)
    return values[id(w)]
