"""Operator identities on the finite groups of :mod:`opgroups.groups`.

This is the brute-force laboratory: load a group file, check a self-map
against one of the operator laws (endomorphism, weight +-1 differential,
weight +-1 Rota-Baxter, crossed homomorphism), enumerate all maps satisfying
a law, convert between the two Rota-Baxter weights, and build the projection
operator of an exact factorization.  It re-exports the names of
:mod:`opgroups.groups`.

Carrier elements are the indices ``0..n-1`` of the element-name list; an
operator map is a length-n tuple of image indices.  Any other carrier that
can be enumerated is read into the :class:`FiniteGroup` of its table.

Four of the six laws are homomorphisms in disguise, pair by pair: D is a
weight 1 differential operator exactly when x -> D(x) x is an endomorphism,
a weight -1 one exactly when x -> D(x)^-1 x is, and f is a crossed
homomorphism for an action by automorphisms exactly when x -> (f(x), x) is a
homomorphism into the semidirect product.  A map that is multiplicative on
the pairs (a, s), with s in a generating set, is multiplicative everywhere:
the b with h(ab) = h(a) h(b) for all a are closed under the product.  So
these laws are checked on the pairs whose right factor is in the group's
generating set ``_gens``.

The two Rota-Baxter laws are decided the same way in the descendent group of
Guo, Lang & Sheng (arXiv:2009.03492), a∘b = a B(a) b B(a)^-1: the element
``c`` that the pair rule forces at (a, b) is a∘b.  The map
σ(g) = (g B(g), B(g)) is one-to-one from G into G × G, and the law holds at
(a, b) exactly when σ(a) σ(b) = σ(a∘b).  The m with σ(G) m ⊆ σ(G) are closed
under the product, so if B(e) = e and the law holds on the pairs (a, t), with
t in a set T whose right ∘-products reach every element from e, it holds on
every pair.  The weight -1 law is the same law read through g -> g^-1 (see
:func:`convert_weight`), with c = C(a) b C(a)^-1 a.  So these laws are
checked on the pair (e, e) and on the pairs (a, t), with T grown during
the check: a breadth-first search from e reaches the ``c`` of each pair
that holds, and the lowest-index element not yet reached becomes the next
element of T.  A lawful map takes n |T| + 1 rule calls, and |T| <= log2 n,
as each new element of T at least doubles the subgroup of the descendent
group reached.

The operator search takes the branch points of its current path as the
right factors of the pairs it propagates through.  Every image it sets by
force is at the ``c`` of a pair (a, t), with t a branch point, so on a
complete path the branch points reach every element from e by right
products (∘-products for the Rota-Baxter laws), and play the part of
``_gens`` and of T.  A crossed law whose action is not by automorphisms is
checked, and searched, on every pair.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .groups import (FiniteGroup, GroupTableError, _all_indices, _first_incompatible, _is_index,
                     alternating, cyclic, dihedral, klein_four, quaternion, symmetric,
                     validate_group)
from .operated import OperatedTarget

__all__ = [
    "EnumerationBudgetError",
    "FiniteGroup",
    "GroupData",
    "GroupTableError",
    "Law",
    "LawTarget",
    "adjoint_action",
    "alternating",
    "check_identity",
    "constant_operator",
    "convert_weight",
    "cyclic",
    "dihedral",
    "dump_group_file",
    "enumerate_operators",
    "first_violation",
    "identity_operator",
    "inversion_operator",
    "klein_four",
    "load_group_file",
    "operator_from_names",
    "operator_to_names",
    "projection_operator",
    "quaternion",
    "symmetric",
    "validate_action",
    "validate_group",
]

ENUM_NODE_BUDGET = 10**6


class EnumerationBudgetError(ValueError):
    """The operator search tried more images than ``ENUM_NODE_BUDGET``."""


# --- operator maps ----------------------------------------------------------

def _require_images(group: FiniteGroup, n: int) -> None:
    if n != len(group):
        raise ValueError(f"operator must list {len(group)} images, got {n}")


def operator_from_names(group: FiniteGroup, images: Sequence[str]) -> tuple[int, ...]:
    _require_images(group, len(images))
    return tuple(group.index(s) for s in images)


def operator_to_names(group: FiniteGroup, op: Sequence[int]) -> tuple[str, ...]:
    _require_images(group, len(op))
    return tuple(group.name(i) for i in op)


def identity_operator(group: FiniteGroup) -> tuple[int, ...]:
    return tuple(range(len(group)))


def inversion_operator(group: FiniteGroup) -> tuple[int, ...]:
    return tuple(group.inv(i) for i in group.iter_elements())


def constant_operator(group: FiniteGroup, value: Optional[int] = None) -> tuple[int, ...]:
    v = group.identity_index if value is None else value
    if not _is_index(v, len(group)):
        raise ValueError(f"the constant value {v!r} is not an element index")
    return (v,) * len(group)


class Law(str, Enum):
    """Operator identities checkable on a finite group."""

    ENDO = "endo"            # P(ab) = P(a) P(b)
    DIFF_PLUS = "diff1"      # D(ab) = D(a) a D(b) a^-1
    DIFF_MINUS = "diff-1"    # D(ab) = (a D(b) a^-1) D(a)
    RB_PLUS = "rb1"          # B(a) B(b) = B(a B(a) b B(a)^-1)
    RB_MINUS = "rb-1"        # C(a) C(b) = C((C(a) b C(a)^-1) a)
    CROSSED = "crossed"      # f(ab) = f(a) act(a, f(b))


# the laws decided on the pairs whose right factor is a generator (see above),
# the crossed law when its action is by automorphisms
_HOMOMORPHISM_LIKE = frozenset({Law.ENDO, Law.DIFF_PLUS, Law.DIFF_MINUS, Law.CROSSED})


# the builder of each law's pair rule (see _pair_rule), from the Cayley table
# rows, the inverse table inv and the crossed law's action
_PAIR_RULES = {
    Law.ENDO: lambda rows, inv, action: lambda a, p, b, q: (rows[a][b], rows[p][q]),
    Law.DIFF_PLUS: lambda rows, inv, action: (
        lambda a, p, b, q: (rows[a][b], rows[rows[rows[p][a]][q]][inv[a]])),
    Law.DIFF_MINUS: lambda rows, inv, action: (
        lambda a, p, b, q: (rows[a][b], rows[rows[rows[a][q]][inv[a]]][p])),
    Law.CROSSED: lambda rows, inv, action: (
        lambda a, p, b, q: (rows[a][b], rows[p][action[a][q]])),
    # c = a B(a) b B(a)^-1
    Law.RB_PLUS: lambda rows, inv, action: (
        lambda a, p, b, q: (rows[a][rows[rows[p][b]][inv[p]]], rows[p][q])),
    # c = C(a) b C(a)^-1 a
    Law.RB_MINUS: lambda rows, inv, action: (
        lambda a, p, b, q: (rows[rows[rows[p][b]][inv[p]]][a], rows[p][q])),
}


def validate_action(group: FiniteGroup, action: Sequence[Sequence[int]]) -> None:
    """Check that ``action`` is an n x n matrix of element indices that
    satisfies the left-action axioms act(e, x) = x and
    act(ab, x) = act(a, act(b, x))."""
    _checked_action(group, action)


def _action_rows(action, elems) -> tuple:
    # the rows (action[x][y] for y in elems) for x in elems, of an action
    # indexed by the elements elems, once it is checked to be an n x n matrix
    n = len(elems)
    try:
        if len(action) == n and all(len(action[x]) == n for x in elems):
            return tuple(tuple(map(action[x].__getitem__, elems)) for x in elems)
    except (LookupError, TypeError):
        pass
    raise ValueError(f"action must be an {n}x{n} matrix")


# The last action that passed the checks of validate_action: its group, its
# snapshot as a tuple of tuples, and whether it is by automorphisms.  The lab
# checks every operator of a search against one action object.  A snapshot
# cannot go stale when a caller mutates its action in place, and one entry
# keeps the memory O(1) however many groups a process builds.
_last_action: Optional[tuple] = None


def _checked_action(group: FiniteGroup, action: Sequence[Sequence[int]]) -> tuple[tuple, bool]:
    """A snapshot of ``action`` as a tuple of tuples, checked as
    :func:`validate_action` checks it, and whether it acts by automorphisms,
    decided in the same pass.  A tuple of tuples is its own snapshot; the
    last snapshot that passed, with the same group object, is not checked
    again."""
    global _last_action
    memo = _last_action
    if memo is not None and group is memo[0] and action is memo[1]:
        return memo[1], memo[2]
    n = len(group)
    snapshot = _action_rows(action, range(n))
    if not _all_indices(chain.from_iterable(snapshot), n):
        for g, row in enumerate(snapshot):
            for x, v in enumerate(row):
                if not _is_index(v, n):
                    raise ValueError(f"action entry {v!r} at ({group.name(g)}, "
                                     f"{group.name(x)}) is not an element index")
    for x, v in enumerate(snapshot[group.identity_index]):
        if v != x:
            raise ValueError(f"action of the identity moves {group.name(x)!r}")
    # the b with act(ab, x) = act(a, act(b, x)) for all a and x contain e and
    # are closed under the product, so the generators decide the second axiom
    # (Light's test, see FiniteGroup); a full scan names the first failure
    rows, gens = group._table, group._gens
    if _first_incompatible(rows, snapshot, gens) is not None:
        a, b, x = _first_incompatible(rows, snapshot, range(n))
        raise ValueError(f"action is not compatible with multiplication at "
                         f"({group.name(a)}, {group.name(b)}, {group.name(x)})")
    # each act(g, .) is a bijection, with inverse act(g^-1, .), and an
    # endomorphism once it keeps the endo law on the pairs (x, s) with s a
    # generator (see the module docstring); as act(gh, .) = act(g, act(h, .)),
    # the generators g suffice too
    endo = _pair_rule(rows, group._inv, Law.ENDO, None)
    by_automorphisms = all(_first_broken(endo, snapshot[g], gens) is None for g in gens)
    if type(action) is tuple and all(type(row) is tuple for row in action):
        snapshot = action  # immutable as it is, so that passing it again is a hit
    _last_action = group, snapshot, by_automorphisms
    return snapshot, by_automorphisms


def adjoint_action(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The conjugation action act(g, x) = g x g^-1."""
    return tuple(
        tuple(group.mul(group.mul(g, x), group.inv(g)) for x in group.iter_elements())
        for g in group.iter_elements()
    )


def _pair_rule(rows, inv, law: Law, action) -> Callable:
    """The pair rule of ``law`` on the Cayley table ``rows`` with inverse
    table ``inv``, as a function over element indices.

    ``rule(a, p, b, q)``, where ``p`` and ``q`` are the images of ``a`` and
    ``b``, is ``(c, v)``: the law holds at the pair ``(a, b)`` exactly when
    the image of ``c`` is ``v``.  ``c`` depends on ``a``, ``p`` and ``b``
    only, so once the images of ``a`` and ``b`` are known the image of
    ``c`` is forced.
    """
    return _PAIR_RULES[law](rows, inv, action)


def _law_rule(group: FiniteGroup, law: Law, action) -> tuple[Callable, bool]:
    """The pair rule of ``law`` on ``group``, and whether the law must be
    checked on every pair: only a crossed law whose action is not by
    automorphisms must (see the module docstring).  The action of the
    crossed law is checked, or found to be the last one checked, by
    :func:`_checked_action`."""
    every_pair = False
    if law is Law.CROSSED:
        if action is None:
            raise ValueError("the crossed-homomorphism law needs an action")
        action, by_automorphisms = _checked_action(group, action)
        every_pair = not by_automorphisms
    return _pair_rule(group._table, group._inv, law, action), every_pair


def _first_broken(rule: Callable, ims: list, rights: Sequence[int]) -> Optional[tuple[int, int]]:
    # the first pair (a, b), b in rights, at which the map ims breaks rule
    for a, p in enumerate(ims):
        for b in rights:
            c, v = rule(a, p, b, ims[b])
            if ims[c] != v:
                return a, b
    return None


def _broken_in_descendent(rule: Callable, ims: list, e: int) -> Optional[tuple[int, int]]:
    # a pair at which the map ims breaks a Rota-Baxter rule, or None: the
    # pair (e, e), which holds only when e -> e, so that e∘t = t reaches each
    # new generator t; then the pairs (a, t) of a breadth-first search from
    # e, with t in a generating set T of the descendent group grown as it
    # goes (see the module docstring)
    c, v = rule(e, ims[e], e, ims[e])
    if ims[c] != v:
        return e, e
    reached = [False] * len(ims)
    reached[e] = True
    seen: list[int] = [e]  # the elements reached, in the order reached
    gens: list[int] = []
    for s, hit in enumerate(reached):
        if hit:
            continue
        # a new generator meets every element reached so far, and each
        # element reached from here on meets every generator
        gens.append(s)
        old = len(seen)
        for i, a in enumerate(seen):
            p = ims[a]
            for t in ((s,) if i < old else gens):
                c, v = rule(a, p, t, ims[t])
                if ims[c] != v:
                    return a, t
                if not reached[c]:
                    reached[c] = True
                    seen.append(c)
    return None


def first_violation(group, images, law: Law, action=None) -> Optional[tuple]:
    """The first pair ``(a, b)``, in ``group.iter_elements()`` order, at which
    ``x -> images[x]`` breaks ``law``, or None.  ``images`` is a dict or, for
    a :class:`FiniteGroup`, a tuple; a tuple of the wrong length, an element
    with no image and an image outside the carrier raise ValueError.

    Any other carrier is read, on every call, into the :class:`FiniteGroup`
    of its table, named by its elements (an action is indexed by them):
    ``group.mul`` must stay in it, ``group.identity()`` and ``group.inv``
    must give its identity and inverses, and a table that is not a group
    raises GroupTableError.  The law's pair rule, the one the operator search uses,
    runs first on the pairs that decide the law (see the module docstring);
    only a map that breaks it there, or a crossed law under an action that
    is not by automorphisms, is scanned over every pair for the first broken
    one.  The crossed law's action is checked as :func:`validate_action`
    checks it, in the pass that decides whether it acts by automorphisms.
    The last action that passed is remembered with its group, so checking
    many operators against one action validates it once when the same group
    and the same tuple of tuples are passed each time.
    """
    law = Law(law)
    elems = list(group.iter_elements())
    if not isinstance(images, Mapping) and len(images) != len(elems):
        raise ValueError(f"operator must have {len(elems)} images, got {len(images)}")
    try:
        ys = [images[x] for x in elems]
    except (LookupError, TypeError):  # a dict without x, or a sequence x does not index
        for x in elems:
            try:
                images[x]
            except (LookupError, TypeError):
                raise ValueError(f"the operator has no image of {x!r}") from None
        raise
    n = len(elems)
    if isinstance(group, FiniteGroup):
        # an image is an index: a bool or 1.0 equals one, but names no element
        ims = ys if _all_indices(ys, n) else [y if _is_index(y, n) else None for y in ys]
    else:
        group, action = _carrier_group(group, elems, action if law is Law.CROSSED else None)
        ims = [_position(group._index, y) for y in ys]
    if None in ims:
        i = ims.index(None)
        raise ValueError(f"the image {ys[i]!r} of {elems[i]!r} is not an element")
    rule, every_pair = _law_rule(group, law, action)
    if every_pair:
        bad = _first_broken(rule, ims, range(n))
    elif law in _HOMOMORPHISM_LIKE:
        bad = _first_broken(rule, ims, group._gens)
    else:
        bad = _broken_in_descendent(rule, ims, group.identity_index)
    if bad is not None and not every_pair:  # the first broken pair of all
        bad = _first_broken(rule, ims, range(n))
    return None if bad is None else (elems[bad[0]], elems[bad[1]])


def _position(pos: dict, x) -> Optional[int]:
    # the index of the element x, or None; an unhashable x is no element
    try:
        return pos.get(x)
    except TypeError:
        return None


def _carrier_group(carrier, elems: list, action) -> tuple[FiniteGroup, Optional[tuple]]:
    # an enumerable carrier as the FiniteGroup of its table, named by its
    # elements, and an action indexed by them as a table of element indices;
    # the carrier's identity and inverses must be the table's, as the
    # evaluators use them
    pos = {x: i for i, x in enumerate(elems)}
    rows = [[_position(pos, carrier.mul(x, y)) for y in elems] for x in elems]
    for x, row in zip(elems, rows):
        if None in row:
            y = elems[row.index(None)]
            raise ValueError(f"the carrier is not closed: the product of {x!r} and {y!r} "
                             f"is {carrier.mul(x, y)!r}, not an element")
    group = FiniteGroup._closed(elems, rows)
    e = _position(pos, carrier.identity())
    if e != group.identity_index:
        raise ValueError(f"the identity {carrier.identity()!r} is not "
                         + ("an element" if e is None else "the identity of its table"))
    for x, i in zip(elems, group._inv):
        y = carrier.inv(x)
        if _position(pos, y) is None:
            raise ValueError(f"the carrier is not closed: the inverse of {x!r} "
                             f"is {y!r}, not an element")
        if y != elems[i]:
            raise ValueError(f"the inverse of {x!r} is {elems[i]!r}, not {y!r}")
    if action is not None:
        cells = _action_rows(action, elems)
        action = tuple(tuple(_position(pos, v) for v in row) for row in cells)
        for x, row, cell_row in zip(elems, action, cells):
            if None in row:
                y = row.index(None)
                raise ValueError(f"action entry {cell_row[y]!r} at ({x!r}, {elems[y]!r}) "
                                 "is not an element")
    return group, action


def check_identity(group: FiniteGroup, op: Sequence[int], law: Law,
                   action: Optional[Sequence[Sequence[int]]] = None
                   ) -> Optional[tuple[str, str]]:
    """The first pair of element names, in element order, at which ``op``
    breaks the law, or None when it holds everywhere.  :func:`first_violation`
    finds it from the pairs that decide the law, checks the images and
    validates the action of the crossed law."""
    bad = first_violation(group, op, law, action)
    return None if bad is None else (group.name(bad[0]), group.name(bad[1]))


class LawTarget(OperatedTarget):
    """An operated target whose ``op`` satisfies the subclass's ``law`` (named
    ``rule`` in errors), checked by :func:`first_violation` on a table of
    ``op`` over ``group.iter_elements()``, which must be a group.  Into a
    carrier that cannot be enumerated, evaluate through an unchecked
    :class:`OperatedTarget`."""

    law: Law
    rule: str

    def __init__(self, group, op: Callable):
        super().__init__(group, op)
        try:
            elems = group.iter_elements()
        except AttributeError:
            raise ValueError(
                f"cannot enumerate the carrier to validate {self.rule}; "
                "an OperatedTarget evaluates into it unchecked") from None
        bad = first_violation(group, {a: op(a) for a in elems}, self.law)
        if bad is not None:
            raise ValueError(f"{self.rule} fails at the pair ({bad[0]!r}, {bad[1]!r})")


def enumerate_operators(group: FiniteGroup, law: Law,
                        action: Optional[Sequence[Sequence[int]]] = None
                        ) -> list[tuple[int, ...]]:
    """All operator maps satisfying the law, in lexicographic image order.

    Assigns and propagates.  The law's pair rule says that the pair
    ``(a, b)`` holds exactly when the image of some ``c`` takes some value
    ``v``, so once ``a`` and ``b`` have images the image of ``c`` is forced.
    Every law forces the identity to the identity, as its pair ``(e, e)``
    reads ``p = p p``, so the search starts from that image; it branches on
    the lowest-index element without an image, trying each image in turn.
    The branch points of the current path are its right factors (every
    element is one, for a crossed law whose action is not by automorphisms).
    Every element that gets an image, by a branch or by force, joins a
    queue; taking ``k`` off the queue runs the rule on the pairs ``(k, a)``
    and ``(a, k)``, for ``k`` and every element taken off before it, whose
    second element is a right factor.  A forced image of an element without
    one is set and queued at once, and the first forced image that differs
    from the one already set prunes the branch.  So on each complete path
    every pair whose second element is a branch point is checked exactly
    once.  Every forced element is the ``c`` of such a pair, so on a
    complete path the branch points reach every element from the identity
    and decide the law (see the module docstring): the maps found are
    exactly those satisfying the law.
    For the homomorphism-like laws the branch points are the group's
    ``_gens``.  For the Rota-Baxter laws the pairs left out neither force an
    image nor prune a branch that the others leave, so the tree is the one
    that every pair gives.  The maps come out sorted: two of them first
    differ at the element of a branch point, as both keep every image set
    before it, and the branch tries images in ascending order.  Trying more
    than ``ENUM_NODE_BUDGET`` (10^6) images at branch points raises
    :class:`EnumerationBudgetError`; every law on every built-in group up to
    order 64 tries at most 36,928 (D32).
    """
    law = Law(law)
    n = len(group)
    rule, every_pair = _law_rule(group, law, action)

    images: list[Optional[int]] = [None] * n
    # the elements with an image, in the order they got it: the queue, the
    # elements taken off it (a prefix) and the trail undone on backtracking
    trail: list[int] = []
    # the branch points of the current path, in path order: the right factors
    # among the elements taken off the queue, unless every element is one
    branches: list[int] = []
    found: list[tuple[int, ...]] = []
    left = ENUM_NODE_BUDGET  # the images still to try at branch points

    def propagate(x: int, p: int) -> bool:
        # give x the image p and every image that forces; False on a conflict
        images[x] = p
        head = len(trail)
        trail.append(x)
        while head < len(trail):
            k = trail[head]
            pk = images[k]
            head += 1
            # the (c, v) forced by the needed pairs of k with itself and with
            # each element taken off the queue before it, each set as it is
            # found: every a here has its image already, so a forced image
            # changes no later pair, and the first conflict prunes the branch
            for a in trail[:head] if every_pair else branches:
                c, v = rule(k, pk, a, images[a])
                pc = images[c]
                if pc is None:
                    images[c] = v
                    trail.append(c)
                elif pc != v:
                    return False
            if every_pair or k == x and branches:  # k is a right factor, the branch point x
                for a in trail[:head - 1]:
                    c, v = rule(a, images[a], k, pk)
                    pc = images[c]
                    if pc is None:
                        images[c] = v
                        trail.append(c)
                    elif pc != v:
                        return False
        return True

    def extend(x: int) -> None:
        nonlocal left
        while x < n and images[x] is not None:
            x += 1
        if x == n:
            found.append(tuple(images))  # type: ignore[arg-type]
            return
        left -= n  # the branch below tries all n images of x
        if left < 0:
            raise EnumerationBudgetError(f"the {law.value} search on a group of order {n} "
                                         f"tries more than {ENUM_NODE_BUDGET} images")
        mark = len(trail)
        branches.append(x)  # a right factor while the branch below runs
        for p in range(n):
            if propagate(x, p):
                extend(x + 1)
            for y in trail[mark:]:
                images[y] = None
            del trail[mark:]
        branches.pop()

    e = group.identity_index
    if propagate(e, e):  # always: no pair (e, e) breaks a law at e -> e
        extend(0)
    return found


def convert_weight(op: Sequence[int], group: FiniteGroup) -> tuple[int, ...]:
    """g -> P(g^-1): swaps a weight +1 Rota-Baxter operator with a weight -1
    one; applying it twice gives back the original map."""
    n = len(group)
    if len(op) != n:
        raise ValueError(f"operator must have {n} images, got {len(op)}")
    if not _all_indices(op, n):
        for i, x in enumerate(op):
            if not _is_index(x, n):
                raise ValueError(f"the image {x!r} of {i!r} is not an element")
    return tuple(map(op.__getitem__, group._inv))


def _as_index_set(group: FiniteGroup, members: Iterable) -> set[int]:
    out = set()
    for x in members:
        if isinstance(x, str):
            out.add(group.index(x))
        elif _is_index(x, len(group)):
            out.add(x)
        else:
            raise ValueError(f"the member {x!r} is neither an element name nor an element index")
    return out


def _require_subgroup(group: FiniteGroup, s: set[int], which: str) -> None:
    if group.identity_index not in s:
        raise ValueError(f"{which} subgroup does not contain the identity")
    for a in s:
        if group.inv(a) not in s:
            raise ValueError(f"{which} subgroup is not closed under inverse at {group.name(a)!r}")
        for b in s:
            if group.mul(a, b) not in s:
                raise ValueError(
                    f"{which} subgroup is not closed under product at "
                    f"({group.name(a)}, {group.name(b)})")


def projection_operator(group: FiniteGroup, first: Iterable, second: Iterable) -> tuple[int, ...]:
    """Projection to the first factor of an exact factorization.

    ``first`` and ``second`` are subgroups (given by names or indices) with
    trivial intersection whose pairwise products cover the whole group; every
    g then factors uniquely as g = g1 g2, as a1 b1 = a2 b2 puts
    a2^-1 a1 = b2 b1^-1 in the intersection, and the map sends g to g1.
    The result satisfies the weight -1 Rota-Baxter law.
    """
    s1 = _as_index_set(group, first)
    s2 = _as_index_set(group, second)
    _require_subgroup(group, s1, "first")
    _require_subgroup(group, s2, "second")
    if s1 & s2 != {group.identity_index}:
        raise ValueError("subgroups have nontrivial intersection")
    images: list[Optional[int]] = [None] * len(group)
    for a in sorted(s1):
        for b in sorted(s2):
            images[group.mul(a, b)] = a
    missing = [group.name(i) for i, v in enumerate(images) if v is None]
    if missing:
        raise ValueError(f"factorization is not exhaustive: no factorization for {missing}")
    return tuple(images)  # type: ignore[arg-type]


# --- group files ------------------------------------------------------------

_FILE_KEYS = {"elements", "table", "operator", "action", "subgroups"}


class GroupData(NamedTuple):
    """Contents of a group file: the validated group plus optional extras."""

    group: FiniteGroup
    operator: Optional[tuple[int, ...]] = None
    action: Optional[tuple[tuple[int, ...], ...]] = None
    # read-only, so the one empty default is safe to share
    subgroups: Mapping[str, tuple[int, ...]] = MappingProxyType({})


def _as_list(value, what: str) -> list:
    # YAML reads ``elements: ea`` as the string "ea", which would otherwise be
    # iterated as the two elements "e" and "a"
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _entry_indices(group: FiniteGroup, names, what: str) -> tuple[int, ...]:
    # the indices of the element names of one group-file entry; a name that
    # is no element is refused with the entry named
    try:
        return tuple(group.index(str(s)) for s in names)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None


def _subgroup_entry(group: FiniteGroup, key: str, names: list[str]) -> tuple[int, ...]:
    # the indices of a subgroups entry, which must list the members of a
    # subgroup, each once
    members = _entry_indices(group, names, f"subgroups entry {key!r}")
    if len(set(members)) != len(members):
        twice = next(s for i, s in enumerate(names) if s in names[:i])
        raise ValueError(f"subgroups entry {key!r} lists {twice!r} twice")
    _require_subgroup(group, set(members), f"subgroups entry {key!r}:")
    return members


def load_group_file(path) -> GroupData:
    """Read and validate a group file (YAML/JSON mapping).

    Required keys: ``elements`` (list of names) and ``table`` (list of rows
    of names).  Optional: ``operator`` (list of names parallel to elements),
    ``action`` (matrix of names) and ``subgroups`` (mapping of name -> list
    of the members of a subgroup, each once).  Unknown keys are rejected,
    and so is a name that is no element, with its entry named (``operator``,
    ``action row i`` or ``subgroups entry 'k'``).
    The group's order is at most 64, the reach of ``ENUM_NODE_BUDGET`` (see
    :class:`FiniteGroup`).
    """
    import yaml  # only the group-file functions need it
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError("group file must be a mapping")
    unknown = set(raw) - _FILE_KEYS
    if unknown:
        raise ValueError(f"unknown group file keys: {', '.join(sorted(map(str, unknown)))}")
    for key in ("elements", "table"):
        if key not in raw:
            raise ValueError(f"group file is missing the {key!r} key")
    elements = [str(s) for s in _as_list(raw["elements"], "elements")]
    table = [[str(s) for s in _as_list(row, f"table row {i}")]
             for i, row in enumerate(_as_list(raw["table"], "table"))]
    group = validate_group(elements, table)

    operator = None
    if "operator" in raw:
        images = _as_list(raw["operator"], "operator")
        _require_images(group, len(images))
        operator = _entry_indices(group, images, "operator")

    action = None
    if "action" in raw:
        action = tuple(_entry_indices(group, _as_list(row, f"action row {i}"), f"action row {i}")
                       for i, row in enumerate(_as_list(raw["action"], "action")))
        validate_action(group, action)

    subgroups: dict[str, tuple[int, ...]] = {}
    if "subgroups" in raw:
        if not isinstance(raw["subgroups"], dict):
            raise ValueError("subgroups must be a mapping of name -> element list")
        for key, members in raw["subgroups"].items():
            members = _as_list(members, f"subgroups entry {key!r}")
            if str(key) in subgroups:  # YAML reads 1 and '1' as two keys
                raise ValueError(f"subgroup name {str(key)!r} occurs twice")
            subgroups[str(key)] = _subgroup_entry(group, str(key), [str(s) for s in members])

    return GroupData(group, operator, action, subgroups)


def dump_group_file(path, group: FiniteGroup, *, operator: Optional[Sequence[int]] = None,
                    action: Optional[Sequence[Sequence[int]]] = None,
                    subgroups: Optional[dict[str, Sequence[int]]] = None) -> None:
    """Write a group file readable by :func:`load_group_file`.  An operator,
    action, subgroup name, subgroup member or subgroups entry that it would
    refuse or misread raises ValueError before the file is opened."""
    import yaml
    data: dict = {
        "elements": list(group.elements),
        "table": [[group.name(x) for x in row] for row in group._table],
    }
    if operator is not None:
        data["operator"] = list(operator_to_names(group, operator))
    if action is not None:
        validate_action(group, action)
        data["action"] = [[group.name(x) for x in row] for row in action]
    if subgroups is not None:
        for k in subgroups:
            if not isinstance(k, str) or not k:
                raise ValueError(f"subgroup name {k!r} is not a nonempty string")
        data["subgroups"] = {k: [group.name(i) for i in v] for k, v in subgroups.items()}
        for k, names in data["subgroups"].items():
            _subgroup_entry(group, k, names)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False, default_flow_style=None)
