"""Operator identities on the finite groups of :mod:`opgroups.groups`.

This is the brute-force laboratory: load a group file, check a self-map
against one of the operator laws (endomorphism, weight +-1 differential,
weight +-1 Rota-Baxter, crossed homomorphism), enumerate all maps satisfying
a law, convert between the two Rota-Baxter weights, and build the projection
operator of an exact factorization.  It re-exports the names of
:mod:`opgroups.groups`.

Carrier elements are the indices ``0..n-1`` of the element-name list; an
operator map is a length-n tuple of image indices.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .groups import (FiniteGroup, GroupTableError, _is_index, alternating, cyclic, dihedral,
                     klein_four, quaternion, symmetric, validate_group)
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

def operator_from_names(group: FiniteGroup, images: Sequence[str]) -> tuple[int, ...]:
    if len(images) != len(group):
        raise ValueError(f"operator must list {len(group)} images, got {len(images)}")
    return tuple(group.index(s) for s in images)


def operator_to_names(group: FiniteGroup, op: Sequence[int]) -> tuple[str, ...]:
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


def validate_action(group: FiniteGroup, action: Sequence[Sequence[int]]) -> None:
    """Check that ``action`` is an n x n matrix of element indices that
    satisfies the left-action axioms act(e, x) = x and
    act(ab, x) = act(a, act(b, x))."""
    n = len(group)
    if len(action) != n or any(len(row) != n for row in action):
        raise ValueError(f"action must be an {n}x{n} matrix")
    for g, row in enumerate(action):
        for x, v in enumerate(row):
            if not _is_index(v, n):
                raise ValueError(f"action entry {v!r} at ({group.name(g)}, {group.name(x)}) "
                                 "is not an element index")
    _check_action_axioms(group._table, group.identity_index, action, group.name)


def _check_action_axioms(rows, e: int, action, name: Callable) -> None:
    # the left-action axioms of an n x n table of element indices, on the
    # Cayley table rows with identity index e; name(i) names element i
    n = len(rows)
    for x in range(n):
        if action[e][x] != x:
            raise ValueError(f"action of the identity moves {name(x)!r}")
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for x in range(n):
                if action[ab][x] != action[a][action[b][x]]:
                    raise ValueError(
                        f"action is not compatible with multiplication at "
                        f"({name(a)}, {name(b)}, {name(x)})")


# The last (Cayley table, action) pair that passed validate_action, by value:
# the lab checks every operator of a search against one action.  A key by
# value cannot go stale when a caller mutates its action in place, and one
# entry keeps the memory O(1) however many groups a process builds.
_valid_action: Optional[tuple] = None


def _checked_action(group: FiniteGroup, action: Sequence[Sequence[int]]) -> tuple:
    """A snapshot of ``action`` as a tuple of tuples, validated by
    :func:`validate_action` unless it equals the last one validated on the
    same table."""
    global _valid_action
    snapshot = tuple(map(tuple, action))
    key = (group._table, snapshot)
    if key != _valid_action:
        validate_action(group, snapshot)
        _valid_action = key
    return snapshot


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
    if law is Law.ENDO:
        return lambda a, p, b, q: (rows[a][b], rows[p][q])
    if law is Law.DIFF_PLUS:
        return lambda a, p, b, q: (rows[a][b], rows[rows[rows[p][a]][q]][inv[a]])
    if law is Law.DIFF_MINUS:
        return lambda a, p, b, q: (rows[a][b], rows[rows[rows[a][q]][inv[a]]][p])
    if law is Law.CROSSED:
        if action is None:
            raise ValueError("the crossed-homomorphism law needs an action")
        return lambda a, p, b, q: (rows[a][b], rows[p][action[a][q]])
    if law is Law.RB_PLUS:
        # c = a B(a) b B(a)^-1
        return lambda a, p, b, q: (rows[a][rows[rows[p][b]][inv[p]]], rows[p][q])
    # Law.RB_MINUS, the last law: c = C(a) b C(a)^-1 a
    return lambda a, p, b, q: (rows[rows[rows[p][b]][inv[p]]][a], rows[p][q])


def first_violation(group, images, law: Law, action=None) -> Optional[tuple]:
    """The first pair ``(a, b)``, in ``group.iter_elements()`` order, at which
    ``x -> images[x]`` breaks ``law``, or None.  ``images`` is a dict or, for
    a :class:`FiniteGroup`, a tuple; a tuple of the wrong length, a dict with
    no image of an element and an image outside the carrier raise ValueError.

    Each pair is tested by the law's pair rule (the one the operator search
    uses), on the Cayley table of a :class:`FiniteGroup` or, for any other
    carrier, on a table of its elements built with ``group.mul`` and
    ``group.inv``.  The action of the crossed law is checked as
    :func:`validate_action` checks it: its shape, each entry and the action
    axioms.  On a :class:`FiniteGroup` the last action that passed is
    remembered by value, with the table, so checking many operators against
    one action validates it once; on any other carrier, whose action is
    indexed by its elements, it is checked on every call.
    """
    law = Law(law)
    elems = list(group.iter_elements())
    if not isinstance(images, Mapping) and len(images) != len(elems):
        raise ValueError(f"operator must have {len(elems)} images, got {len(images)}")
    try:
        ys = [images[x] for x in elems]
    except KeyError as e:
        raise ValueError(f"the operator has no image of {e.args[0]!r}") from None
    finite = isinstance(group, FiniteGroup)
    if finite:
        # an image is an index: a bool or 1.0 equals one, but names no element
        n = len(elems)
        ims = [y if _is_index(y, n) else None for y in ys]
    else:
        pos = {x: i for i, x in enumerate(elems)}
        ims = [_position(pos, y) for y in ys]
    if None in ims:
        i = ims.index(None)
        raise ValueError(f"the image {ys[i]!r} of {elems[i]!r} is not an element")
    if finite:
        rows, inv = group._table, group._inv
        if law is Law.CROSSED and action is not None:
            action = _checked_action(group, action)
    else:
        rows, inv = _carrier_tables(group, elems, pos)
        if law is Law.CROSSED and action is not None:
            action = _carrier_action(group, action, elems, pos, rows)
    rule = _pair_rule(rows, inv, law, action)
    for a, p in enumerate(ims):
        for b, q in enumerate(ims):
            c, v = rule(a, p, b, q)
            if ims[c] != v:
                return elems[a], elems[b]
    return None


def _position(pos: dict, x) -> Optional[int]:
    # the index of the element x, or None; an unhashable x is no element
    try:
        return pos.get(x)
    except TypeError:
        return None


def _carrier_tables(group, elems: list, pos: dict) -> tuple[list, list]:
    # the Cayley and inverse tables of an enumerable carrier, by element
    # index, naming a product or an inverse that leaves the carrier
    rows = [[pos.get(group.mul(x, y)) for y in elems] for x in elems]
    for x, row in zip(elems, rows):
        if None in row:
            y = elems[row.index(None)]
            raise ValueError(f"the carrier is not closed: the product of {x!r} and {y!r} "
                             f"is {group.mul(x, y)!r}, not an element")
    inv = [pos.get(group.inv(x)) for x in elems]
    if None in inv:
        x = elems[inv.index(None)]
        raise ValueError(f"the carrier is not closed: the inverse of {x!r} "
                         f"is {group.inv(x)!r}, not an element")
    return rows, inv


def _carrier_action(group, action, elems: list, pos: dict, rows: list) -> list:
    # the action of an enumerable carrier, indexed by its elements, as a
    # table of element indices, checked as validate_action checks one
    n = len(elems)
    try:
        cells = [[action[x][y] for y in elems] for x in elems]
    except (LookupError, TypeError):
        cells = None
    if cells is None or len(action) != n or any(len(action[x]) != n for x in elems):
        raise ValueError(f"action must be an {n}x{n} matrix")
    table = [[_position(pos, v) for v in row] for row in cells]
    for x, row in zip(elems, table):
        if None in row:
            y = elems[row.index(None)]
            raise ValueError(f"action entry {action[x][y]!r} at ({x!r}, {y!r}) is not an element")
    e = pos.get(group.identity())
    if e is None:
        raise ValueError(f"the identity {group.identity()!r} is not an element")
    _check_action_axioms(rows, e, table, elems.__getitem__)
    return table


def check_identity(group: FiniteGroup, op: Sequence[int], law: Law,
                   action: Optional[Sequence[Sequence[int]]] = None
                   ) -> Optional[tuple[str, str]]:
    """Test the law over all ordered pairs.

    Returns None when the law holds everywhere, else the first violating
    pair of element names in element order.  :func:`first_violation`
    checks the images and validates the action of the crossed law.
    """
    bad = first_violation(group, op, law, action)
    return None if bad is None else (group.name(bad[0]), group.name(bad[1]))


class LawTarget(OperatedTarget):
    """An operated target whose ``op`` satisfies the subclass's ``law`` (named
    ``rule`` in errors), checked by :func:`first_violation` on a table of
    ``op`` over ``group.iter_elements()``.  Into a carrier that cannot be
    enumerated, evaluate through an unchecked :class:`OperatedTarget`."""

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
    The search branches on the lowest-index element without an image, trying
    each image in turn.  Every element that gets an image, by a branch or by
    force, joins a queue; taking ``k`` off the queue runs the rule on the
    pairs ``(k, a)`` and ``(a, k)`` for ``k`` and every element taken off
    before it.  A forced image of an element without one is set and queued,
    and a forced image that differs from the one already set prunes the
    branch.  So on each path every ordered pair is checked exactly once, and
    the maps found are exactly those satisfying the law.  The maps come out
    sorted: two of them first differ at the element of a branch point, as
    both keep every image set before it, and the branch tries images in
    ascending order.  Trying more than ``ENUM_NODE_BUDGET`` (10^6) images at
    branch points raises :class:`EnumerationBudgetError`; every law on every
    built-in group up to order 64 tries at most 36,992 (D32).
    """
    law = Law(law)
    n = len(group)
    if law is Law.CROSSED and action is not None:
        action = _checked_action(group, action)
    rule = _pair_rule(group._table, group._inv, law, action)

    images: list[Optional[int]] = [None] * n
    # the elements with an image, in the order they got it: the queue, the
    # elements taken off it (a prefix) and the trail undone on backtracking
    trail: list[int] = []
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
            # the (c, v) forced by the pairs of k with itself and with each
            # element taken off the queue before it
            forced = [rule(k, pk, k, pk)]
            for a in trail[:head - 1]:
                pa = images[a]
                forced.append(rule(k, pk, a, pa))
                forced.append(rule(a, pa, k, pk))
            for c, v in forced:
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
        for p in range(n):
            if propagate(x, p):
                extend(x + 1)
            for y in trail[mark:]:
                images[y] = None
            del trail[mark:]

    extend(0)
    return found


def convert_weight(op: Sequence[int], group: FiniteGroup) -> tuple[int, ...]:
    """g -> P(g^-1): swaps a weight +1 Rota-Baxter operator with a weight -1
    one; applying it twice gives back the original map."""
    n = len(group)
    if len(op) != n:
        raise ValueError(f"operator must have {n} images, got {len(op)}")
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
    g then factors uniquely as g = g1 g2 and the returned map sends g to g1.
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
            p = group.mul(a, b)
            if images[p] is not None:
                raise ValueError(f"factorization of {group.name(p)!r} is not unique")
            images[p] = a
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


def load_group_file(path) -> GroupData:
    """Read and validate a group file (YAML/JSON mapping).

    Required keys: ``elements`` (list of names) and ``table`` (list of rows
    of names).  Optional: ``operator`` (list of names parallel to elements),
    ``action`` (matrix of names) and ``subgroups`` (mapping of name ->
    element list).  Unknown keys are rejected.  The group's order is at most
    64, the reach of ``ENUM_NODE_BUDGET`` (see :class:`FiniteGroup`).
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
        operator = operator_from_names(group, [str(s) for s in images])

    action = None
    if "action" in raw:
        action = tuple(tuple(group.index(str(s)) for s in _as_list(row, f"action row {i}"))
                       for i, row in enumerate(_as_list(raw["action"], "action")))
        validate_action(group, action)

    subgroups: dict[str, tuple[int, ...]] = {}
    if "subgroups" in raw:
        if not isinstance(raw["subgroups"], dict):
            raise ValueError("subgroups must be a mapping of name -> element list")
        for key, members in raw["subgroups"].items():
            members = _as_list(members, f"subgroups entry {key!r}")
            subgroups[str(key)] = tuple(group.index(str(s)) for s in members)

    return GroupData(group, operator, action, subgroups)


def dump_group_file(path, group: FiniteGroup, *, operator: Optional[Sequence[int]] = None,
                    action: Optional[Sequence[Sequence[int]]] = None,
                    subgroups: Optional[dict[str, Sequence[int]]] = None) -> None:
    """Write a group file readable by :func:`load_group_file`."""
    import yaml
    data: dict = {
        "elements": list(group.elements),
        "table": [[group.name(x) for x in row] for row in group._table],
    }
    if operator is not None:
        data["operator"] = list(operator_to_names(group, operator))
    if action is not None:
        data["action"] = [[group.name(x) for x in row] for row in action]
    if subgroups is not None:
        data["subgroups"] = {k: [group.name(i) for i in v] for k, v in subgroups.items()}
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False, default_flow_style=None)
