"""Finite groups given by validated Cayley tables, and the standard small
groups.  Elements are the indices ``0..n-1`` of the element-name list.  The
operator laboratory, :mod:`opgroups.finite`, re-exports them, and reads any
other enumerable carrier into the group of its table (``FiniteGroup._closed``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Sequence

__all__ = ["FiniteGroup", "GroupTableError", "alternating", "cyclic", "dihedral", "klein_four",
           "quaternion", "symmetric", "validate_group"]

ORDER_BOUND = 64


class GroupTableError(ValueError):
    """The raw table fails one of the group axioms (the message says which)."""


def _check_names(names: Sequence) -> None:
    # strings first, so that no unhashable name reaches the set
    if any(not isinstance(s, str) or not s for s in names):
        raise GroupTableError("element names must be nonempty strings")
    if len(set(names)) != len(names):
        raise GroupTableError("element names are not unique")


def _is_index(x, n: int) -> bool:
    # an element index of a group of order n; a bool is an int, but names no element
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _all_indices(xs: Iterable, n: int) -> bool:
    # whether xs holds only element indices of a group of order n, as plain
    # ints, in one pass that stops at the first other entry; a caller runs
    # _is_index on the entries only when it is False, to accept an int
    # subclass or to name the first entry that is no index
    for x in xs:
        if type(x) is not int or not 0 <= x < n:
            return False
    return True


def _generators(rows, e: int) -> tuple[int, ...]:
    # greedily, in index order, each element that the right products of the
    # earlier generators, starting from e, do not reach; needs no associativity
    gens: list[int] = []
    reached = {e}
    for x in range(len(rows)):
        if x in reached:
            continue
        gens.append(x)
        todo = list(reached)
        while todo:
            row = rows[todo.pop()]
            for s in gens:
                y = row[s]
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    return tuple(gens)


def _first_incompatible(rows, action, middles) -> Optional[tuple[int, int, int]]:
    # the first triple (a, b, x), with b in middles, at which a table of
    # tuples breaks act(ab, x) = act(a, act(b, x)) on the Cayley table rows;
    # with action = rows, the first at which (ab)x != a(bx)
    for a, row_a in enumerate(rows):
        act_a = action[a]
        for b in middles:
            left, right = action[row_a[b]], tuple(map(act_a.__getitem__, action[b]))
            if left != right:
                return a, b, next(x for x, v in enumerate(left) if v != right[x])
    return None


class FiniteGroup:
    """A finite group backed by a validated Cayley table.

    ``elements`` are the element names; all arithmetic is on indices into
    that list.  Construction checks closure, identity, inverses and
    associativity, so an instance is always a genuine group.  The order is at
    most ``ORDER_BOUND`` (64), the reach of ``finite.ENUM_NODE_BUDGET``: every
    law on every built-in group up to order 64 enumerates within it.

    ``_gens`` is a generating set, chosen greedily in index order: each
    element that the right products of the earlier generators, starting from
    the identity, do not reach.  Associativity is checked by F. W. Light's
    test (Clifford & Preston, *Algebraic Theory of Semigroups*, 1961, 1.2):
    the b with (ab)c = a(bc) for all a and c contain the identity and are
    closed under the product, so every element has the property once each
    generator has it, and the check costs n^2 |gens| products, not n^3.  Only
    when it fails is every triple scanned, so that the error names the first
    failing one.  ``opgroups.finite`` checks the action axioms and the
    homomorphism-like operator laws on the same set, and the Rota-Baxter
    laws on a generating set of the descendent group, found the same way.
    ``_closed`` runs the same axiom checks on the table of any enumerable
    carrier, named by its elements, of any order.
    """

    def __init__(self, elements: Sequence[str], table: Sequence[Sequence[int]]):
        names = tuple(elements)
        n = len(names)
        if n == 0:
            raise GroupTableError("empty table")
        if n > ORDER_BOUND:
            raise GroupTableError(f"group order {n} exceeds the checking bound {ORDER_BOUND}")
        _check_names(names)
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise GroupTableError(f"table is not {n}x{n}")
        if not _all_indices(chain.from_iterable(rows), n):
            for a, row in enumerate(rows):
                for b, x in enumerate(row):
                    if not _is_index(x, n):
                        raise GroupTableError(f"table is not closed: entry {x!r} at "
                                              f"({names[a]}, {names[b]}) is not an element index")

        self._adopt(names, rows)

    @classmethod
    def _closed(cls, names: Sequence, rows: Sequence[Sequence[int]]) -> FiniteGroup:
        # the group on a closed n x n table of element indices, with any
        # distinct hashable names, of any order
        return cls.__new__(cls)._adopt(tuple(names), tuple(map(tuple, rows)))

    def _adopt(self, names: tuple, rows: tuple) -> FiniteGroup:
        # self, once a closed table passes the axiom checks: identity,
        # inverses, and associativity by Light's test on the generators
        n = len(names)
        self.elements = names
        self._table = rows
        self._index = {s: i for i, s in enumerate(names)}
        ids = tuple(range(n))
        ident = next((e for e, row in enumerate(rows)
                      if row == ids and tuple(r[e] for r in rows) == ids), None)
        if ident is None:
            raise GroupTableError("no identity element")
        self.identity_index = ident

        inv = []
        for i, row in enumerate(rows):
            # the first j with ij = ji = e: in a group, the first j with ij = e;
            # in a table that is no group, a later j may be the first two-sided one
            j = row.index(ident) if ident in row else n
            if j < n and rows[j][i] != ident:
                j = next((k for k in range(j + 1, n) if row[k] == ident and rows[k][i] == ident), n)
            if j == n:
                raise GroupTableError(f"element {names[i]!r} has no inverse")
            inv.append(j)
        self._inv = tuple(inv)

        self._gens = _generators(rows, ident)
        if _first_incompatible(rows, rows, self._gens) is not None:
            a, b, c = _first_incompatible(rows, rows, range(n))
            raise GroupTableError(f"associativity fails at ({names[a]}, {names[b]}, {names[c]})")
        return self

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({len(self)} elements: {', '.join(self.elements[:6])}{'...' if len(self) > 6 else ''})"

    # carrier interface used by the evaluators (elements are indices)
    def identity(self) -> int:
        return self.identity_index

    def mul(self, a: int, b: int) -> int:
        return self._table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def iter_elements(self) -> range:
        return range(len(self.elements))

    @property
    def is_abelian(self) -> bool:
        rows = self._table
        return all(rows[a][b] == rows[b][a] for a in range(len(rows)) for b in range(a))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # an unhashable name is no name
            raise ValueError(f"unknown element name {name!r}") from None

    def name(self, i: int) -> str:
        if not _is_index(i, len(self.elements)):
            raise ValueError(f"{i!r} is not an element index")
        return self.elements[i]


def validate_group(elements: Sequence[str], table: Sequence[Sequence[str]]) -> FiniteGroup:
    """Build a FiniteGroup from a table of element *names*, checking all axioms."""
    names = list(elements)
    _check_names(names)
    pos = {s: i for i, s in enumerate(names)}
    try:
        rows = [tuple(map(pos.__getitem__, row)) for row in table]
    except (KeyError, TypeError):  # an unhashable entry names no element either
        # the first entry that names no element, in row order
        for row in table:
            for entry in row:
                try:
                    pos[entry]
                except (KeyError, TypeError):
                    raise GroupTableError(
                        f"table is not closed: {entry!r} is not a declared element") from None
        raise
    return FiniteGroup(names, rows)


# --- standard groups --------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n with elements e, a, a2, ..."""
    if n < 1:
        raise ValueError("order must be positive")
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table)


def klein_four() -> FiniteGroup:
    """The Klein four-group (Z/2 x Z/2) with elements e, a, b, c."""
    return FiniteGroup(["e", "a", "b", "c"], [[i ^ j for j in range(4)] for i in range(4)])


def dihedral(n: int) -> FiniteGroup:
    """The dihedral group of order 2n: rotations r^i and reflections r^i s."""
    if n < 2:
        raise ValueError("need n >= 2")

    def nm(i, f):
        r = "e" if i == 0 else "r" if i == 1 else f"r{i}"
        if not f:
            return r
        return "s" if i == 0 else r + "s"

    elems = [(i, f) for f in (0, 1) for i in range(n)]
    names = [nm(i, f) for i, f in elems]
    pos = {e: k for k, e in enumerate(elems)}

    def mul(x, y):
        (i, f), (j, g) = x, y
        return ((i + (j if f == 0 else -j)) % n, f ^ g)

    table = [[pos[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup(names, table)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_name(p: tuple[int, ...]) -> str:
    seen: set[int] = set()
    parts = []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc = [s]
        seen.add(s)
        x = p[s]
        while x != s:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) or "e"


def _perm_group(perms: list[tuple[int, ...]]) -> FiniteGroup:
    perms = sorted(perms)
    pos = {p: k for k, p in enumerate(perms)}
    names = [_cycle_name(p) for p in perms]
    table = [[pos[_perm_mul(p, q)] for q in perms] for p in perms]
    return FiniteGroup(names, table)


def _parity(p: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n points (n <= 4), named in cycle notation."""
    from itertools import permutations

    if not 1 <= n <= 4:
        raise ValueError("only n <= 4 is supported as an explicit table")
    return _perm_group([tuple(p) for p in permutations(range(n))])


def alternating(n: int) -> FiniteGroup:
    """The alternating group on n points (n <= 4)."""
    from itertools import permutations

    if not 1 <= n <= 4:
        raise ValueError("only n <= 4 is supported as an explicit table")
    return _perm_group([tuple(p) for p in permutations(range(n)) if _parity(tuple(p)) == 0])


def quaternion() -> FiniteGroup:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k}."""
    units = "1ijk"
    prod = {("1", u): (1, u) for u in units}
    prod.update({(u, "1"): (1, u) for u in units})
    for u in "ijk":
        prod[(u, u)] = (-1, "1")
    prod[("i", "j")] = (1, "k")
    prod[("j", "i")] = (-1, "k")
    prod[("j", "k")] = (1, "i")
    prod[("k", "j")] = (-1, "i")
    prod[("k", "i")] = (1, "j")
    prod[("i", "k")] = (-1, "j")

    elems = [(s, u) for u in units for s in (1, -1)]
    names = [("" if s == 1 else "-") + u for s, u in elems]
    pos = {e: k for k, e in enumerate(elems)}

    def mul(x, y):
        s, u = prod[(x[1], y[1])]
        return (s * x[0] * y[0], u)

    table = [[pos[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup(names, table)
