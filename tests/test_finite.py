import hashlib
import importlib
import os
import random
import re
import subprocess
import sys
from enum import IntEnum
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from helpers import (BUILT_IN_UP_TO_ORDER_24, as_carrier, descendent_table,
                     enumerate_operators_prefix, first_broken_pair, law_holds)
from opgroups import finite, groups
from opgroups.differential import DiffTarget
from opgroups.finite import (
    EnumerationBudgetError,
    FiniteGroup,
    GroupTableError,
    Law,
    LawTarget,
    adjoint_action,
    alternating,
    check_identity,
    constant_operator,
    convert_weight,
    cyclic,
    dihedral,
    dump_group_file,
    enumerate_operators,
    first_violation,
    identity_operator,
    inversion_operator,
    klein_four,
    load_group_file,
    operator_from_names,
    operator_to_names,
    projection_operator,
    quaternion,
    symmetric,
    validate_action,
    validate_group,
)
from opgroups.rota_baxter import RBTarget


# --- construction and validation ---------------------------------------------

def test_z2_table_valid():
    g = validate_group(["e", "a"], [["e", "a"], ["a", "e"]])
    assert g.identity_index == 0
    assert g.inv(1) == 1
    assert g.name(g.mul(1, 1)) == "e"


def test_standard_groups_are_groups():
    for g in (cyclic(1), cyclic(2), cyclic(6), cyclic(12), klein_four(), dihedral(4),
              dihedral(6), symmetric(3), symmetric(4), alternating(4), quaternion()):
        n = len(g)
        e = g.identity_index
        assert all(g.mul(e, i) == i for i in range(n))
        assert all(g.mul(i, g.inv(i)) == e for i in range(n))
    assert len(symmetric(4)) == 24
    assert len(alternating(4)) == 12
    assert len(dihedral(6)) == 12


def test_a_table_of_the_wrong_shape_is_refused():
    for table in ([[0, 1]], [[0, 1], [1]], [[0, 1], [1, 0, 1]], [[0, 1], [1, 0], [0, 1]]):
        with pytest.raises(GroupTableError, match=r"^table is not 2x2$"):
            FiniteGroup(["e", "a"], table)


@pytest.mark.parametrize("make,message", [
    (lambda: cyclic(0), "order must be positive"),
    (lambda: dihedral(1), "need n >= 2"),
    (lambda: symmetric(5), "only n <= 4 is supported as an explicit table"),
    (lambda: alternating(5), "only n <= 4 is supported as an explicit table"),
], ids=["C0", "D1", "S5", "A5"])
def test_standard_groups_refuse_an_order_out_of_range(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_operator_from_names_needs_one_image_per_element():
    with pytest.raises(ValueError, match=r"^operator must list 3 images, got 2$"):
        operator_from_names(cyclic(3), ["e", "a"])
    assert not symmetric(3).is_abelian
    assert cyclic(12).is_abelian


def test_s3_cycle_names():
    s3 = symmetric(3)
    assert set(s3.elements) == {"e", "(12)", "(13)", "(23)", "(123)", "(132)"}
    i = s3.index("(12)")
    assert s3.mul(i, i) == s3.identity_index
    r = s3.index("(123)")
    assert s3.name(s3.mul(r, r)) == "(132)"


def test_an_unhashable_name_is_an_unknown_name():
    # FiniteGroup.index raised a bare TypeError on an unhashable name
    c2 = cyclic(2)
    for names in (["e", ["a"]], ["e", "b"]):
        with pytest.raises(ValueError, match=r"^unknown element name "):
            operator_from_names(c2, names)
    assert operator_from_names(c2, ["e", "a"]) == (0, 1)


def test_validate_rejects_empty_table():
    with pytest.raises(GroupTableError, match="empty"):
        validate_group([], [])


def test_validate_rejects_duplicate_names():
    with pytest.raises(GroupTableError, match="unique"):
        validate_group(["e", "e"], [["e", "e"], ["e", "e"]])


def test_validate_rejects_unknown_entries():
    with pytest.raises(GroupTableError, match="closed"):
        validate_group(["e", "a"], [["e", "a"], ["a", "b"]])
    # an unhashable entry is not a bare TypeError
    with pytest.raises(GroupTableError, match=r"^table is not closed: \['e'\] is not a "
                       r"declared element$"):
        validate_group(["e"], [[["e"]]])


@pytest.mark.parametrize("name", [["e"], "", 0], ids=["unhashable", "empty", "int"])
def test_element_names_must_be_nonempty_strings(name):
    for make in (lambda: FiniteGroup([name], [[0]]), lambda: validate_group([name], [[name]])):
        with pytest.raises(GroupTableError, match="^element names must be nonempty strings$"):
            make()


def test_a_group_table_refuses_bool_entries():
    # a bool is an int, but names no element
    with pytest.raises(GroupTableError, match=r"^table is not closed: entry False at \(e, e\) "
                       r"is not an element index$"):
        FiniteGroup(["e", "a"], [[False, True], [True, False]])


def test_validate_rejects_no_identity():
    # subtraction mod 3 is a Latin square with no two-sided identity
    names = ["a", "b", "c"]
    table = [["a", "c", "b"], ["b", "a", "c"], ["c", "b", "a"]]
    with pytest.raises(GroupTableError, match="identity"):
        validate_group(names, table)


def test_validate_rejects_nonassociative_latin_square():
    # order-5 quasigroup: x*y = (2x + y + (x odd and y odd)) arranged to break
    # associativity while keeping a two-sided identity at 0; built by hand
    names = ["0", "1", "2", "3", "4"]
    table = [
        ["0", "1", "2", "3", "4"],
        ["1", "0", "3", "4", "2"],
        ["2", "4", "0", "1", "3"],
        ["3", "2", "4", "0", "1"],
        ["4", "3", "1", "2", "0"],
    ]
    # it is a Latin square with identity "0" and involutive inverses
    for row in table:
        assert sorted(row) == names
    for col in zip(*table):
        assert sorted(col) == names
    with pytest.raises(GroupTableError, match=r"^associativity fails at \(1, 1, 2\)$"):
        validate_group(names, table)


def test_a_nonassociative_table_names_its_first_failing_triple():
    # a loop of order 8 (a Latin square with identity 0 and two-sided
    # inverses) whose first failing triple, (1, 2, 3), has the middle element
    # 2 outside the generating set (1, 3): the test on the generators finds
    # some failure, and the rescan of every triple names the first
    rows = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 6, 7, 3, 4, 0, 5], [2, 6, 0, 5, 7, 3, 1, 4],
            [3, 7, 5, 4, 1, 0, 2, 6], [4, 3, 7, 6, 2, 1, 5, 0], [5, 4, 3, 0, 6, 2, 7, 1],
            [6, 0, 1, 2, 5, 7, 4, 3], [7, 5, 4, 1, 0, 6, 3, 2]]
    assert groups._generators(rows, 0) == (1, 3)
    with pytest.raises(GroupTableError, match=r"^associativity fails at \(1, 2, 3\)$"):
        FiniteGroup([str(i) for i in range(8)], rows)


@pytest.mark.parametrize("make", [lambda: cyclic(1), lambda: cyclic(12), klein_four, quaternion,
                                  lambda: symmetric(4), lambda: dihedral(32)])
def test_the_generators_generate_the_group(make):
    # every element is a right product of generators, starting from e, and
    # each generator is outside the subgroup the earlier ones generate
    g = make()
    reached = {g.identity_index}
    for s in g._gens:
        assert s not in reached
        layer = reached
        while layer:
            layer = {g.mul(r, t) for r in layer for t in g._gens if t <= s} - reached
            reached |= layer
    assert reached == set(range(len(g)))


def test_size_bound():
    assert len(cyclic(64)) == 64
    with pytest.raises(GroupTableError, match=r"^group order 65 exceeds the checking bound 64$"):
        cyclic(65)


# --- law checking -------------------------------------------------------------

def test_identity_map_is_endo():
    for g in (cyclic(4), symmetric(3), quaternion()):
        assert check_identity(g, identity_operator(g), Law.ENDO) is None


def test_inversion_is_rb_plus_on_any_group():
    # B(g) = g^-1: B(g)B(h) = g^-1 h^-1 = (hg)^-1 = B(g B(g) h B(g)^-1);
    # verified exhaustively on S3 first, then on the other fixtures
    s3 = symmetric(3)
    op = inversion_operator(s3)
    m, i = s3.mul, s3.inv
    for a in range(6):
        for b in range(6):
            assert m(op[a], op[b]) == op[m(a, m(m(op[a], b), i(op[a])))]
    assert check_identity(s3, op, Law.RB_PLUS) is None
    for g in (cyclic(6), dihedral(4), alternating(4), quaternion()):
        assert check_identity(g, inversion_operator(g), Law.RB_PLUS) is None


def test_constant_identity_is_diff_plus():
    for g in (cyclic(4), symmetric(3)):
        assert check_identity(g, constant_operator(g), Law.DIFF_PLUS) is None


@pytest.mark.parametrize("value", [99, -1, 3])
def test_constant_operator_checks_its_value(value):
    assert constant_operator(cyclic(3), 2) == (2, 2, 2)
    with pytest.raises(ValueError, match=rf"the constant value {value} is not an element index"):
        constant_operator(cyclic(3), value)


def test_element_indices_must_be_ints():
    with pytest.raises(ValueError, match=r"^the constant value True is not an element index$"):
        constant_operator(cyclic(3), True)
    d3 = dihedral(3)
    with pytest.raises(ValueError, match=r"^the member 1\.9 is neither an element name nor "
                       r"an element index$"):
        projection_operator(d3, [0, 1.9, 2], [0, 3])
    # names and int indices mix
    assert (projection_operator(d3, [0, 1, 2], [0, "s"])
            == projection_operator(d3, ["e", "r", "r2"], [0, 3]) == (0, 1, 2, 0, 1, 2))


def test_the_crossed_law_needs_an_action_everywhere():
    g = cyclic(3)
    for check in (lambda: first_violation(g, (0, 0, 0), Law.CROSSED),
                  lambda: check_identity(g, (0, 0, 0), Law.CROSSED),
                  lambda: enumerate_operators(g, Law.CROSSED)):
        with pytest.raises(ValueError, match="^the crossed-homomorphism law needs an action$"):
            check()


@pytest.mark.parametrize("action,message", [
    ([[0]], r"^action must be an 3x3 matrix$"),
    ([[0, 1, 2], [1, 2, 7], [2, 0, 1]], r"^action entry 7 at \(a, a2\) is not an element index$"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], r"^action is not compatible with multiplication at "),
    ([0, 1, 2], r"^action must be an 3x3 matrix$"),
    ([[0, 1, 2], None, [2, 0, 1]], r"^action must be an 3x3 matrix$"),
], ids=["shape", "entry", "axiom", "row-of-ints", "none-row"])
def test_every_law_check_validates_the_action(action, message):
    # first_violation used to index a short matrix and raise IndexError, and
    # a row of ints raised a bare TypeError in every check
    g = cyclic(3)
    for check in (lambda: first_violation(g, (0, 0, 0), Law.CROSSED, action),
                  lambda: check_identity(g, (0, 0, 0), Law.CROSSED, action),
                  lambda: enumerate_operators(g, Law.CROSSED, action),
                  lambda: validate_action(g, action)):
        with pytest.raises(ValueError, match=message):
            check()


class _C3:
    # 0, 1, 2 under addition mod 3: a carrier that is not a FiniteGroup
    def identity(self):
        return 0

    def iter_elements(self):
        return range(3)

    def mul(self, a, b):
        return (a + b) % 3

    def inv(self, a):
        return -a % 3


def test_the_crossed_law_validates_the_action_on_any_carrier():
    # the action was read as given: [[0]] raised IndexError, an entry 7 a bare
    # KeyError, and an action moving elements under the identity was used
    zero = {0: 0, 1: 0, 2: 0}
    for action, message in [
        ([[0]], r"^action must be an 3x3 matrix$"),
        ([[0, 1, 2], [1, 2, 7], [2, 0, 1]], r"^action entry 7 at \(1, 2\) is not an element$"),
        ([[0, 1, 2], [1, 2, [0]], [2, 0, 1]], r"^action entry \[0\] at \(1, 2\) is not an element$"),
        ([[1, 2, 0]] * 3, r"^action of the identity moves 0$"),
    ]:
        with pytest.raises(ValueError, match=message):
            first_violation(_C3(), zero, Law.CROSSED, action)
    assert first_violation(_C3(), zero, Law.CROSSED, [[0, 1, 2]] * 3) is None

    class AwayIdentity(_C3):
        def identity(self):
            return 3

    with pytest.raises(ValueError, match=r"^the identity 3 is not an element$"):
        first_violation(AwayIdentity(), zero, Law.CROSSED, [[0, 1, 2]] * 3)
    # an unhashable image raised a bare TypeError
    with pytest.raises(ValueError, match=r"^the image \[0\] of 1 is not an element$"):
        first_violation(_C3(), {0: 0, 1: [0], 2: 0}, Law.ENDO)


def relabel(g, order):
    """A copy of ``g`` whose element ``k`` is the element ``order[k]`` of ``g``."""
    pos = {x: k for k, x in enumerate(order)}
    return FiniteGroup([g.name(x) for x in order],
                       [[pos[g.mul(x, y)] for y in order] for x in order])


def test_check_returns_first_counterexample_in_element_order():
    # one map that breaks every law on S3, first at a different pair for most
    # laws: check_identity and the LawTarget errors must name the first
    # broken pair in element order
    g = symmetric(3)
    op = (0, 1, 0, 5, 1, 3)
    for law in Law:
        action = adjoint_action(g) if law is Law.CROSSED else None
        a, b = first_broken_pair(g, op, law, action)
        assert a != 0, law
        assert check_identity(g, op, law, action) == (g.name(a), g.name(b)), law
        if law is not Law.CROSSED:
            target = type("Target", (LawTarget,), {"law": law, "rule": law.value})
            with pytest.raises(ValueError, match=rf"^{law.value} fails at the pair \({a}, {b}\)$"):
                target(g, op.__getitem__)


class PermutationCarrier:
    """S3 as tuples of images, a carrier that is not a FiniteGroup."""

    def __init__(self):
        self.perms = sorted(permutations(range(3)))

    def identity(self):
        return (0, 1, 2)

    def mul(self, p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(self, p):
        return tuple(sorted(range(3), key=p.__getitem__))

    def iter_elements(self):
        return iter(self.perms)


def test_first_violation_on_a_carrier_that_is_not_a_finite_group():
    c = PermutationCarrier()
    g = FiniteGroup([str(p) for p in c.perms],
                    [[c.perms.index(c.mul(p, q)) for q in c.perms] for p in c.perms])
    act = adjoint_action(g)
    c_act = {p: {x: c.perms[act[i][j]] for j, x in enumerate(c.perms)}
             for i, p in enumerate(c.perms)}
    rng = random.Random(43)
    maps = [identity_operator(g), inversion_operator(g), constant_operator(g)]
    maps += [tuple(rng.randrange(6) for _ in range(6)) for _ in range(40)]
    for law in Law:
        maps += enumerate_operators(g, law, act if law is Law.CROSSED else None)[:3]
    for op in maps:
        images = {p: c.perms[op[i]] for i, p in enumerate(c.perms)}
        for law in Law:
            action, c_action = (act, c_act) if law is Law.CROSSED else (None, None)
            bad = first_broken_pair(g, op, law, action)
            expected = None if bad is None else (c.perms[bad[0]], c.perms[bad[1]])
            assert first_violation(c, images, law, c_action) == expected, (op, law)


def left_regular_action(g):
    """act(g, x) = g x: an action, but not by automorphisms."""
    return tuple(tuple(g.mul(a, x) for x in range(len(g))) for a in range(len(g)))


UP_TO_ORDER_12 = {**{f"C{n}": (lambda n=n: cyclic(n)) for n in range(1, 13)}, "V4": klein_four,
                  **{f"D{n}": (lambda n=n: dihedral(n)) for n in range(3, 7)},
                  "A4": lambda: alternating(4), "Q8": quaternion}


@pytest.mark.parametrize("name", UP_TO_ORDER_12)
def test_first_violation_matches_the_full_scan(name):
    # first_violation decides four laws on the pairs whose right factor is a
    # generator, and scans every pair only for a map that breaks one there:
    # it must name the full scan's first broken pair, for every law, in the
    # built-in labelling and under seeded shuffles (which move the
    # generators), on the lawful maps of every law and on random maps, most
    # of which break every law.  The crossed law also runs under the
    # left-regular action, which is not by automorphisms and takes the full
    # scan.
    g0 = UP_TO_ORDER_12[name]()
    n = len(g0)
    rng = random.Random(name)
    for order in (range(n), rng.sample(range(n), n), rng.sample(range(n), n)):
        g = relabel(g0, order)
        laws = [(law, adjoint_action(g) if law is Law.CROSSED else None) for law in Law]
        laws.append((Law.CROSSED, left_regular_action(g)))
        maps = {tuple(rng.randrange(n) for _ in range(n)) for _ in range(30)}
        for law, action in laws:
            maps.update(enumerate_operators(g, law, action))
        for op in sorted(maps):
            for law, action in laws:
                expected = first_broken_pair(g, op, law, action)
                assert first_violation(g, op, law, action) == expected, (order, op, law, action)


def test_an_action_is_by_automorphisms_when_it_is_on_the_generators():
    # the verdict that lets the crossed law use the generators, against
    # every triple; on C4, a -> (x -> x^(-1)^a) acts by outer automorphisms
    c4 = cyclic(4)
    flips = tuple(tuple(x if a % 2 == 0 else c4.inv(x) for x in range(4)) for a in range(4))
    cases = [(c4, flips, True), (c4, left_regular_action(c4), False),
             (cyclic(1), left_regular_action(cyclic(1)), True)]
    for g in (symmetric(3), dihedral(4), quaternion()):
        cases += [(g, adjoint_action(g), True), (g, left_regular_action(g), False)]
    for g, action, expected in cases:
        m, n = g.mul, len(g)
        assert all(action[a][m(x, y)] == m(action[a][x], action[a][y])
                   for a in range(n) for x in range(n) for y in range(n)) is expected
        assert finite._checked_action(g, action)[1] is expected


def test_the_automorphism_verdict_on_every_built_in_group_up_to_order_24():
    # each act(s, .), s a generator, kept the endo law on the pairs (x, t),
    # t a generator, exactly when every act(g, .) keeps it on every pair
    for make in BUILT_IN_UP_TO_ORDER_24:
        g = make()
        m, n = g.mul, len(g)
        for action in (adjoint_action(g), left_regular_action(g)):
            expected = all(action[a][m(x, y)] == m(action[a][x], action[a][y])
                           for a, x, y in product(range(n), repeat=3))
            assert finite._checked_action(g, action)[1] is expected, (g, action)


@pytest.mark.parametrize("name", UP_TO_ORDER_12)
def test_first_violation_names_the_first_broken_pair_of_near_rota_baxter_maps(name):
    # the Rota-Baxter laws are first checked on (e, e) and on the pairs
    # whose right factor is in a generating set of the descendent group,
    # grown during the check: a map one image away from an operator breaks
    # the law on few pairs, and the check must still name the first of them,
    # e's image changed included
    g0 = UP_TO_ORDER_12[name]()
    n = len(g0)
    rng = random.Random(name)
    for order in (range(n), rng.sample(range(n), n)):
        g = relabel(g0, order)
        for law in (Law.RB_PLUS, Law.RB_MINUS):
            for op in enumerate_operators(g, law):
                for x, y in product(range(n), repeat=2):
                    if y != op[x]:
                        near = op[:x] + (y,) + op[x + 1:]
                        expected = first_broken_pair(g, near, law)
                        assert first_violation(g, near, law) == expected, (order, near, law)


def test_rota_baxter_checks_need_the_descendent_generators_and_e_to_e():
    # maps that two cheaper checks would pass.  On D6, maps that hold on
    # every pair whose right factor is in the group's own generating set but
    # are not Rota-Baxter: the generating set must be the descendent group's.
    # On S3, maps with B(e) != e that a search from e which skipped the
    # pair (e, e) would pass, as e∘t is then not t
    d6 = dihedral(6)
    for law, op in [(Law.RB_PLUS, (0, 6, 0, 6, 3, 9, 6, 0, 6, 0, 9, 3)),
                    (Law.RB_MINUS, (0, 6, 0, 6, 3, 9, 6, 3, 9, 0, 6, 0))]:
        assert all(law_holds(d6, op, law, None, a, s) for a in range(12) for s in d6._gens)
        bad = first_broken_pair(d6, op, law)
        assert bad is not None and first_violation(d6, op, law) == bad, law
    s3 = symmetric(3)
    for law, op in [(Law.RB_PLUS, (5, 0, 5, 5, 0, 0)), (Law.RB_MINUS, (5, 1, 4, 1, 4, 5))]:
        assert check_identity(s3, op, law) == ("e", "e")


@pytest.mark.parametrize("name", UP_TO_ORDER_12)
def test_a_map_is_rota_baxter_exactly_when_its_graph_is_closed(name):
    # σ(g) = (g B(g), B(g)) is one-to-one from G into G × G, and B satisfies
    # the weight 1 law at (a, b) exactly when σ(a) σ(b) = σ(a∘b), the
    # descendent product; so σ(G) is closed under the product of G × G for
    # every Rota-Baxter operator and for no other map
    g = UP_TO_ORDER_12[name]()
    n, m = len(g), g.mul
    rng = random.Random(name)
    ops = enumerate_operators(g, Law.RB_PLUS)
    maps = {tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)}
    for op in rng.sample(ops, min(len(ops), 5)):  # and maps one image away
        x = rng.randrange(n)
        maps.add(op[:x] + (rng.randrange(n),) + op[x + 1:])
    maps.update(ops)
    for op in maps:
        lawful = first_broken_pair(g, op, Law.RB_PLUS) is None
        assert lawful is (op in ops)
        sigma = [(m(x, op[x]), op[x]) for x in range(n)]
        assert len(set(sigma)) == n
        circ = descendent_table(g, op)
        for a, b in product(range(n), repeat=2):
            product_ab = (m(sigma[a][0], sigma[b][0]), m(sigma[a][1], sigma[b][1]))
            assert (product_ab == sigma[circ[a][b]]) is (op[circ[a][b]] == m(op[a], op[b]))
        products = {(m(u, s), m(v, t)) for u, v in sigma for s, t in sigma}
        assert (products <= set(sigma)) is lawful, op


@pytest.mark.parametrize("make,carrier", [(lambda: dihedral(32), False),
                                          (lambda: cyclic(64), False),
                                          (lambda: dihedral(32), True)],
                         ids=["D32", "C64", "D32-carrier"])
def test_a_rota_baxter_check_makes_n_rule_calls_per_descendent_generator(make, carrier,
                                                                         monkeypatch):
    # a lawful map is checked on (e, e) and on the pairs (a, t), with t in
    # the generating set T of its descendent group that groups._generators
    # picks: n |T| + 1 rule calls, |T| <= log2 n, where a scan of every pair
    # takes n^2 (4,096 here, as a carrier that is not a FiniteGroup took)
    g = make()
    n, e = len(g), g.identity_index
    rng = random.Random(n)
    ops = {law: enumerate_operators(g, law) for law in (Law.RB_PLUS, Law.RB_MINUS)}
    calls = [0]
    pair_rule = finite._pair_rule

    def counting_pair_rule(*args):
        rule = pair_rule(*args)

        def count(*pair):
            calls[0] += 1
            return rule(*pair)
        return count

    monkeypatch.setattr(finite, "_pair_rule", counting_pair_rule)
    for law, lawful in ops.items():
        for op in rng.sample(lawful, min(len(lawful), 40)):
            gens = groups._generators(descendent_table(g, op, law), e)
            assert len(gens) <= n.bit_length() - 1
            calls[0] = 0
            if carrier:
                assert first_violation(as_carrier(g), dict(enumerate(op)), law) is None
            else:
                assert check_identity(g, op, law) is None
            assert calls[0] == n * len(gens) + 1, (law, op)


def test_crossed_with_adjoint_equals_diff_plus():
    for g in (symmetric(3), dihedral(4)):
        act = adjoint_action(g)
        validate_action(g, act)
        for op in enumerate_operators(g, Law.DIFF_PLUS):
            assert check_identity(g, op, Law.CROSSED, act) is None
        for op in enumerate_operators(g, Law.CROSSED, act):
            assert check_identity(g, op, Law.DIFF_PLUS) is None


@pytest.mark.parametrize("target,law", [(DiffTarget, Law.DIFF_PLUS), (RBTarget, Law.RB_PLUS)])
@pytest.mark.parametrize("make", [lambda: cyclic(2), lambda: cyclic(3), lambda: cyclic(4),
                                  klein_four])
def test_targets_accept_exactly_the_enumerated_operators(make, target, law):
    g = make()
    lawful = set(enumerate_operators(g, law))
    for op in product(range(len(g)), repeat=len(g)):
        try:
            target(g, op.__getitem__)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (op in lawful), op


def test_images_outside_the_carrier_are_rejected():
    g = cyclic(3)
    for op in [(0, -1, -2), (None, None, None), (0, 1, 3)]:
        with pytest.raises(ValueError, match="not an element"):
            check_identity(g, op, Law.ENDO)
    for target in (DiffTarget, RBTarget):
        with pytest.raises(ValueError, match="not an element"):
            target(g, lambda i: None)
    # a bool or a float equals an index, but names no element
    c2 = cyclic(2)
    for op, bad in [((False, True), "False of 0"), ((0.0, 1.0), "0.0 of 0"),
                    ((0, True), "True of 1")]:
        with pytest.raises(ValueError, match=f"^the image {bad} is not an element$"):
            check_identity(c2, op, Law.ENDO)
    for target in (DiffTarget, RBTarget):
        with pytest.raises(ValueError, match="^the image False of 0 is not an element$"):
            target(c2, (False, False).__getitem__)
    for op, bad in [((0, 5), "5 of 1"), ((0, True), "True of 1"), ((0.0, 1), "0.0 of 0")]:
        with pytest.raises(ValueError, match=f"^the image {bad} is not an element$"):
            convert_weight(op, c2)


def test_an_inverse_is_the_first_two_sided_one():
    # a b = e but b a != e: the inverse of a is the later c with a c = c a = e,
    # and the table then fails associativity; with no such c, a has none
    names = ["e", "a", "b", "c"]
    with pytest.raises(GroupTableError, match=r"^associativity fails at \(a, a, b\)$"):
        FiniteGroup(names, [[0, 1, 2, 3], [1, 1, 0, 0], [2, 2, 0, 1], [3, 0, 3, 0]])
    with pytest.raises(GroupTableError, match=r"^element 'a' has no inverse$"):
        FiniteGroup(names, [[0, 1, 2, 3], [1, 1, 0, 2], [2, 2, 1, 1], [3, 3, 3, 0]])


# a bad entry last, where a check that read only the first entry would miss it
LAST_BAD = [True, 1.0, -1, 3]
LAST_BAD_IDS = ["bool", "float", "-1", "n"]


@pytest.mark.parametrize("bad", LAST_BAD, ids=LAST_BAD_IDS)
def test_a_group_table_refuses_a_bad_last_cell(bad):
    table = [[0, 1, 2], [1, 2, 0], [2, 0, bad]]
    with pytest.raises(GroupTableError, match=rf"^table is not closed: entry {bad!r} at \(a2, a2\) "
                                              r"is not an element index$"):
        FiniteGroup(["e", "a", "a2"], table)


@pytest.mark.parametrize("bad", LAST_BAD, ids=LAST_BAD_IDS)
def test_the_operator_checks_refuse_a_bad_last_image(bad):
    g = cyclic(3)
    message = rf"^the image {bad!r} of 2 is not an element$"
    for images in [(0, 1, bad), {0: 0, 1: 1, 2: bad}]:
        with pytest.raises(ValueError, match=message):
            first_violation(g, images, Law.ENDO)
        with pytest.raises(ValueError, match=message):
            check_identity(g, images, Law.RB_PLUS)
    with pytest.raises(ValueError, match=message):
        convert_weight((0, 1, bad), g)
    for target in (RBTarget, DiffTarget):
        with pytest.raises(ValueError, match=message):
            target(g, lambda i: bad if i == 2 else 0)


def test_an_int_subclass_is_an_index_wherever_it_was():
    # an IntEnum fails the one-pass checks, which accept only ints, and
    # passes the per-element checks behind them
    Index = IntEnum("Index", [("E", 0), ("A", 1), ("A2", 2)])
    table = [[Index((a + b) % 3) for b in range(3)] for a in range(3)]
    g = FiniteGroup(["e", "a", "a2"], table)
    assert g._table == cyclic(3)._table
    inversion = (Index.E, Index.A2, Index.A)
    assert first_violation(g, inversion, Law.ENDO) is None
    assert first_violation(g, dict(enumerate(inversion)), Law.ENDO) is None
    assert convert_weight(inversion, g) == identity_operator(g)
    trivial = (Index.E,) * 3
    assert RBTarget(g, trivial.__getitem__).op(2) is Index.E


def test_first_violation_checks_the_shape_of_the_images():
    # a short tuple raised a bare IndexError, a dict missing 2 a bare KeyError
    g = cyclic(3)
    for op in [(0, 1), (0, 1, 2, 0)]:
        for check in (first_violation, check_identity):
            with pytest.raises(ValueError,
                               match=rf"^operator must have 3 images, got {len(op)}$"):
                check(g, op, Law.ENDO)
    for carrier in (g, _C3()):
        with pytest.raises(ValueError, match=r"^the operator has no image of 2$"):
            first_violation(carrier, {0: 0, 1: 0}, Law.ENDO)
        assert first_violation(carrier, {0: 0, 1: 0, 2: 0}, Law.ENDO) is None

    class C3FromOne:
        # 1, 2, 3 under addition mod 3, shifted by one
        def identity(self):
            return 1

        def iter_elements(self):
            return range(1, 4)

        def mul(self, a, b):
            return (a + b - 2) % 3 + 1

        def inv(self, a):
            return -(a - 1) % 3 + 1

    # a sequence of three images has no index 3: that raised a bare IndexError
    for images in [(1, 1, 1), ["a", "b", "c"]]:
        with pytest.raises(ValueError, match=r"^the operator has no image of 3$"):
            first_violation(C3FromOne(), images, Law.ENDO)
    assert first_violation(C3FromOne(), {1: 1, 2: 1, 3: 1}, Law.ENDO) is None
    # a tuple indexed by a permutation raised a bare TypeError
    c = PermutationCarrier()
    with pytest.raises(ValueError, match=r"^the operator has no image of \(0, 1, 2\)$"):
        first_violation(c, c.perms, Law.ENDO)


def test_a_carrier_that_is_not_closed_is_named():
    class Open:
        # 0, 1, 2 under integer addition: 1 + 2 and the inverse of 1 leave it
        def identity(self):
            return 0

        def iter_elements(self):
            return range(3)

        def mul(self, a, b):
            return a + b

        def inv(self, a):
            return -a

    with pytest.raises(ValueError, match=r"not closed: the product of 1 and 2 is 3, "
                       r"not an element"):
        DiffTarget(Open(), lambda a: 0)

    class OpenInverse(Open):
        def mul(self, a, b):
            return (a + b) % 3

    with pytest.raises(ValueError, match=r"not closed: the inverse of 1 is -1, not an element"):
        first_violation(OpenInverse(), {0: 0, 1: 0, 2: 0}, Law.DIFF_PLUS)

    # an unhashable product or inverse raised a bare TypeError
    class UnhashableProduct(Open):
        def mul(self, a, b):
            return [a] if (a, b) == (1, 2) else (a + b) % 3

    class UnhashableInverse(OpenInverse):
        def inv(self, a):
            return [a] if a == 2 else -a % 3

    for carrier, message in [(UnhashableProduct(), r"the product of 1 and 2 is \[1\]"),
                             (UnhashableInverse(), r"the inverse of 2 is \[2\]")]:
        with pytest.raises(ValueError, match=rf"^the carrier is not closed: {message}, not an "):
            first_violation(carrier, {0: 0, 1: 0, 2: 0}, Law.ENDO)


def test_a_carrier_inverse_is_read_once_per_element():
    # the inverses were read twice, once for closure and once against the
    # table, and the closure message was the first of them
    calls = []

    class Counting(_C3):
        def inv(self, a):
            calls.append(a)
            return super().inv(a)

    for law in Law:
        calls.clear()
        action = [[0, 1, 2]] * 3 if law is Law.CROSSED else None
        assert first_violation(Counting(), dict.fromkeys(range(3), 0), law, action) is None
        assert sorted(calls) == [0, 1, 2], law

    # so a carrier broken in two ways is named by the fault found first in
    # one pass: an inverse in the carrier but not the table's, before a
    # later inverse that leaves the carrier
    class WrongThenOpen(_C3):
        def inv(self, a):
            return (0, 1, 5)[a]

    with pytest.raises(ValueError, match=r"^the inverse of 1 is 2, not 1$"):
        first_violation(WrongThenOpen(), dict.fromkeys(range(3), 0), Law.ENDO)
    # and a table that is no group, or a wrong identity, before an inverse
    # that leaves the carrier
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    c5 = SimpleNamespace(identity=lambda: 0, mul=lambda a, b: loop[a][b], inv=lambda a: 9,
                         iter_elements=lambda: range(5))
    with pytest.raises(GroupTableError, match=r"^associativity fails at \(1, 1, 2\)$"):
        first_violation(c5, dict.fromkeys(range(5), 0), Law.ENDO)
    c3 = SimpleNamespace(identity=lambda: 1, mul=lambda a, b: (a + b) % 3, inv=lambda a: 9,
                         iter_elements=lambda: range(3))
    with pytest.raises(ValueError, match=r"^the identity 1 is not the identity of its table$"):
        first_violation(c3, dict.fromkeys(range(3), 0), Law.ENDO)


def test_a_carrier_is_checked_as_the_group_of_its_table():
    # a carrier that is not a FiniteGroup was scanned pair by pair with no
    # group check; it is now read into the FiniteGroup of its table
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]  # the smallest loop that is not a group
    c5 = SimpleNamespace(identity=lambda: 0, mul=lambda a, b: loop[a][b], inv=lambda a: a,
                         iter_elements=lambda: range(5))
    with pytest.raises(GroupTableError, match=r"^associativity fails at \(1, 1, 2\)$"):
        first_violation(c5, dict.fromkeys(range(5), 0), Law.ENDO)
    # identity() is checked for every law, not only for the crossed one
    zero = dict.fromkeys(range(3), 0)
    for identity, message in [(3, "an element"), (1, "the identity of its table")]:
        c3 = SimpleNamespace(identity=lambda: identity, mul=lambda a, b: (a + b) % 3,
                             inv=lambda a: -a % 3, iter_elements=lambda: range(3))
        for law in Law:
            action = [[0, 1, 2]] * 3 if law is Law.CROSSED else None
            with pytest.raises(ValueError, match=rf"^the identity {identity} is not {message}$"):
                first_violation(c3, zero, law, action)
    # and inv must give the table's inverses, as the evaluators call it:
    # inv(a) = a on C3 passed an endo check, and a check that used the
    # table's inverses alone would build a DiffTarget that takes x^-1 to x
    c3 = SimpleNamespace(identity=lambda: 0, mul=lambda a, b: (a + b) % 3, inv=lambda a: a,
                         iter_elements=lambda: range(3))
    for law in Law:
        action = [[0, 1, 2]] * 3 if law is Law.CROSSED else None
        with pytest.raises(ValueError, match=r"^the inverse of 1 is 2, not 1$"):
            first_violation(c3, zero, law, action)
    # no order bound: FiniteGroup refuses order 100, the carrier is checked
    c100 = SimpleNamespace(identity=lambda: 0, mul=lambda a, b: (a + b) % 100,
                           inv=lambda a: -a % 100, iter_elements=lambda: range(100))
    assert first_violation(c100, {x: 3 * x % 100 for x in range(100)}, Law.ENDO) is None
    assert first_violation(c100, {x: x * x % 100 for x in range(100)}, Law.ENDO) == (1, 1)


@pytest.mark.parametrize("name", ["opgroups", "opgroups.words", "opgroups.operated",
                                  "opgroups.differential", "opgroups.rota_baxter",
                                  "opgroups.groups", "opgroups.finite"])
def test_star_import_binds_every_public_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    module = importlib.import_module(name)
    ns = {}
    exec(f"from {name} import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(module.__all__)
    for attr in module.__all__:
        assert ns[attr] is getattr(module, attr)


def test_action_validation_rejects_bad_matrix():
    g = cyclic(2)
    with pytest.raises(ValueError, match="identity"):
        validate_action(g, ((1, 0), (0, 1)))


@pytest.mark.parametrize("entry", [7, "a", -1, True])
def test_action_entries_must_be_element_indices(entry):
    g = cyclic(3)
    with pytest.raises(ValueError, match=rf"action entry {entry!r} at \(a, a2\) is not an "
                       r"element index"):
        validate_action(g, [[0, 1, 2], [1, 2, entry], [2, 0, 1]])


def test_check_identity_validates_a_mutated_action_again():
    # the remembered action is a snapshot by value, not the caller's list
    g = symmetric(3)
    act = [list(row) for row in adjoint_action(g)]
    op = enumerate_operators(g, Law.CROSSED, act)[1]
    assert check_identity(g, op, Law.CROSSED, act) is None
    act[1][1], act[1][2] = act[1][2], act[1][1]
    with pytest.raises(ValueError, match="action is not compatible"):
        check_identity(g, op, Law.CROSSED, act)


def test_an_invalid_action_raises_after_a_valid_one():
    g = symmetric(3)
    act = adjoint_action(g)
    op = enumerate_operators(g, Law.CROSSED, act)[1]
    swapped = (act[0], act[2], act[1]) + act[3:]
    out_of_range = act[:-1] + ((0, 1, 2, 3, 4, 9),)
    # the same matrix on another table: C6 is abelian, S3 is not
    for group, bad, message in [(g, swapped, "not compatible"),
                                (g, out_of_range, "not an element index"),
                                (cyclic(6), act, "not compatible")]:
        assert check_identity(g, op, Law.CROSSED, act) is None
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                check_identity(group, op, Law.CROSSED, bad)
            with pytest.raises(ValueError, match=message):
                enumerate_operators(group, Law.CROSSED, bad)


def test_an_action_equal_to_a_valid_one_must_still_hold_element_indices(monkeypatch):
    # the remembered action was compared by value, and False == 0: an action
    # of bools passed once the equal action of ints had been validated, and
    # the search found its maps twice.  Checked in both orders, from a
    # fresh memo
    g = cyclic(2)
    ints = adjoint_action(g)
    ops = enumerate_operators(g, Law.CROSSED, ints)
    for bad, entry in [(((False, True), (False, True)), "False"), ([[0.0, 1], [0, 1]], "0.0")]:
        message = rf"^action entry {entry} at \(e, e\) is not an element index$"
        for ints_first in (True, False):
            monkeypatch.setattr(finite, "_last_action", None)
            for action in ([ints, bad] if ints_first else [bad, ints, bad]):
                if action is ints:
                    assert check_identity(g, (0, 0), Law.CROSSED, action) is None
                    assert enumerate_operators(g, Law.CROSSED, action) == ops
                    continue
                with pytest.raises(ValueError, match=message):
                    check_identity(g, (0, 0), Law.CROSSED, action)
                with pytest.raises(ValueError, match=message):
                    enumerate_operators(g, Law.CROSSED, action)
    # only the same tuple of tuples passes again without a new validation;
    # equal ints in new rows are validated on every call
    passes = count_compatibility_passes(monkeypatch)
    assert check_identity(g, (0, 0), Law.CROSSED, ints) is None
    assert check_identity(g, (0, 0), Law.CROSSED, ints) is None
    assert len(passes) == 1
    for expected in (2, 3):
        assert check_identity(g, (0, 0), Law.CROSSED, [list(row) for row in ints]) is None
        assert len(passes) == expected


def count_compatibility_passes(monkeypatch) -> list:
    """Forget the remembered action, and record each call of Light's test
    on an action (one per validation of a valid action) in the list
    returned."""
    passes = []
    first_incompatible = finite._first_incompatible
    monkeypatch.setattr(finite, "_first_incompatible",
                        lambda *args: passes.append(args) or first_incompatible(*args))
    monkeypatch.setattr(finite, "_last_action", None)
    return passes


@pytest.mark.parametrize("make", [lambda: symmetric(3), lambda: dihedral(4), quaternion],
                         ids=["S3", "D4", "Q8"])
def test_a_search_and_the_checks_of_its_maps_validate_the_action_once(monkeypatch, make):
    # the lab's traffic: every crossed homomorphism found is checked against
    # the same action object on the same group
    g = make()
    act = adjoint_action(g)
    passes = count_compatibility_passes(monkeypatch)
    ops = enumerate_operators(g, Law.CROSSED, act)
    assert ops
    for op in ops:
        assert check_identity(g, op, Law.CROSSED, act) is None
    assert len(passes) == 1


def action_axiom_error(g, action):
    """Oracle for :func:`validate_action` on a square table of element
    indices: the message of the first failing axiom, scanning every triple,
    or None."""
    n, e = len(g), g.identity_index
    for x in range(n):
        if action[e][x] != x:
            return f"action of the identity moves {g.name(x)!r}"
    for a, b, x in product(range(n), repeat=3):
        if action[g.mul(a, b)][x] != action[a][action[b][x]]:
            return (f"action is not compatible with multiplication at "
                    f"({g.name(a)}, {g.name(b)}, {g.name(x)})")
    return None


@pytest.mark.parametrize("name", UP_TO_ORDER_12)
def test_validate_action_names_the_first_failing_triple(name):
    # validate_action checks compatibility on the middle elements in _gens
    # and scans every triple only when that fails: on seeded perturbations
    # of three valid actions it must name the full scan's first failure
    g = UP_TO_ORDER_12[name]()
    n = len(g)
    rng = random.Random(name)
    trivial = tuple(tuple(range(n)) for _ in range(n))
    for base in (adjoint_action(g), left_regular_action(g), trivial):
        assert action_axiom_error(g, base) is None
        validate_action(g, base)
        for _ in range(12):
            action = [list(row) for row in base]
            a, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:  # swap two images in a row: still a permutation
                action[a][x], action[a][y] = action[a][y], action[a][x]
            else:
                action[a][x] = y
            expected = action_axiom_error(g, action)
            if expected is None:
                validate_action(g, action)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    validate_action(g, action)


# --- enumeration ---------------------------------------------------------------

def brute_force_operators(g, law, action=None):
    """Oracle: test every one of the |G|^|G| candidate maps directly."""
    n = len(g)
    return [images for images in product(range(n), repeat=n)
            if first_broken_pair(g, images, law, action) is None]


@pytest.mark.parametrize("law", [Law.ENDO, Law.DIFF_PLUS, Law.DIFF_MINUS,
                                 Law.RB_PLUS, Law.RB_MINUS, Law.CROSSED])
@pytest.mark.parametrize("make", [lambda: cyclic(2), lambda: cyclic(3),
                                  lambda: cyclic(4), lambda: symmetric(3),
                                  # the identity last
                                  lambda: relabel(cyclic(4), (3, 2, 1, 0)),
                                  lambda: relabel(klein_four(), (3, 2, 1, 0)),
                                  lambda: relabel(symmetric(3), (5, 4, 3, 2, 1, 0)),
                                  # generators first, so the search assigns a
                                  # product only after its factors: a, a^3 in
                                  # C4 and the transpositions in S3
                                  lambda: relabel(cyclic(4), (1, 3, 0, 2)),
                                  lambda: relabel(symmetric(3), (1, 2, 5, 0, 3, 4))])
def test_enumeration_matches_brute_force(make, law):
    g = make()
    action = adjoint_action(g) if law is Law.CROSSED else None
    assert enumerate_operators(g, law, action) == brute_force_operators(g, law, action)


CATALOGUE = {**{f"C{n}": (lambda n=n: cyclic(n)) for n in range(2, 9)}, "V4": klein_four,
             "S3": lambda: symmetric(3), "D4": lambda: dihedral(4), "Q8": quaternion}


@pytest.mark.parametrize("name", CATALOGUE)
def test_enumeration_matches_prefix_search(name):
    # the propagating search against the plain prefix search, on every group
    # of order <= 8 and every law, with the identity last and under a seeded
    # shuffle (D4 and Q8 are out of the brute-force oracle's reach)
    g = CATALOGUE[name]()
    e = g.identity_index
    shuffled = list(range(len(g)))
    random.Random(name).shuffle(shuffled)
    for order in ([x for x in range(len(g)) if x != e] + [e], shuffled):
        h = relabel(g, order)
        # the crossed law under an action by automorphisms, and under one
        # that is not, which the search checks on every pair
        laws = [(law, adjoint_action(h) if law is Law.CROSSED else None) for law in Law]
        for law, action in laws + [(Law.CROSSED, left_regular_action(h))]:
            ops = enumerate_operators(h, law, action)
            assert ops == sorted(ops), (order, law)
            assert ops == enumerate_operators_prefix(h, law, action), (order, law)


def test_operator_counts_on_the_built_in_groups_up_to_order_24():
    # the operator counts on each of the 39 built-in groups of order <= 24:
    # D -> (x -> D(x) x) and D -> (x -> D(x)^-1 x) are bijections from the
    # diff1 and diff-1 operators onto the endomorphisms, crossed
    # homomorphisms under conjugation are the diff1 operators, and
    # convert_weight swaps rb1 and rb-1
    totals = dict.fromkeys(Law, 0)
    for make in BUILT_IN_UP_TO_ORDER_24:
        g = make()
        counts = {law: len(enumerate_operators(g, law, adjoint_action(g) if law is Law.CROSSED
                                               else None)) for law in Law}
        assert (counts[Law.ENDO] == counts[Law.DIFF_PLUS] == counts[Law.DIFF_MINUS]
                == counts[Law.CROSSED]), (g, counts)
        assert counts[Law.RB_PLUS] == counts[Law.RB_MINUS], (g, counts)
        for law in Law:
            totals[law] += counts[law]
    assert len(BUILT_IN_UP_TO_ORDER_24) == 39
    assert totals == {Law.ENDO: 1281, Law.DIFF_PLUS: 1281, Law.DIFF_MINUS: 1281,
                      Law.CROSSED: 1281, Law.RB_PLUS: 1226, Law.RB_MINUS: 1226}


def test_enumeration_counts_z2_z3():
    z2, z3 = cyclic(2), cyclic(3)
    assert len(enumerate_operators(z2, Law.RB_PLUS)) == 2
    assert len(enumerate_operators(z2, Law.ENDO)) == 2
    assert len(enumerate_operators(z3, Law.ENDO)) == 3
    assert set(enumerate_operators(z3, Law.RB_PLUS)) == set(enumerate_operators(z3, Law.ENDO))
    # d(1) = 1 holds for every weight-1 differential operator
    for op in enumerate_operators(z2, Law.DIFF_PLUS):
        assert op[z2.identity_index] == z2.identity_index
    assert len(enumerate_operators(z2, Law.DIFF_PLUS)) == 2


def test_enumeration_is_sorted_and_deterministic():
    g = symmetric(3)
    ops = enumerate_operators(g, Law.ENDO)
    assert ops == sorted(ops)
    assert ops == enumerate_operators(g, Law.ENDO)


def test_enumeration_abelian_rb_equals_endo():
    for g in (cyclic(2), cyclic(3), cyclic(4), klein_four()):
        assert set(enumerate_operators(g, Law.RB_PLUS)) == set(enumerate_operators(g, Law.ENDO))


def test_diff_operators_satisfy_inverse_law():
    # d(g^-1) = g^-1 d(g)^-1 g follows from the product rule
    for g in (cyclic(4), symmetric(3)):
        for op in enumerate_operators(g, Law.DIFF_PLUS):
            assert op[g.identity_index] == g.identity_index
            for a in range(len(g)):
                lhs = op[g.inv(a)]
                rhs = g.mul(g.mul(g.inv(a), g.inv(op[a])), a)
                assert lhs == rhs


def test_enumeration_budget_errors(monkeypatch):
    # the endo search on S3 starts from e -> e, branches 5 times and tries
    # all 6 images each time
    g = symmetric(3)
    monkeypatch.setattr(finite, "ENUM_NODE_BUDGET", 30)
    assert len(enumerate_operators(g, Law.ENDO)) == 10
    monkeypatch.setattr(finite, "ENUM_NODE_BUDGET", 29)
    with pytest.raises(EnumerationBudgetError,
                       match=r"^the endo search on a group of order 6 tries more than 29 images$"):
        enumerate_operators(g, Law.ENDO)


def test_every_law_enumerates_up_to_order_64_within_the_budget(monkeypatch):
    # the Rota-Baxter searches on D32 try the most images of any built-in
    # group up to order 64: 36,928, far below ENUM_NODE_BUDGET
    monkeypatch.setattr(finite, "ENUM_NODE_BUDGET", 36928)
    for g in (dihedral(16), dihedral(32), cyclic(64)):
        for law in Law:
            assert enumerate_operators(g, law, adjoint_action(g) if law is Law.CROSSED else None)
    monkeypatch.setattr(finite, "ENUM_NODE_BUDGET", 36927)
    with pytest.raises(EnumerationBudgetError, match=r"^the rb1 search on a group of order 64 "):
        enumerate_operators(dihedral(32), Law.RB_PLUS)


def test_the_built_in_tables_and_the_order_64_sweep_are_pinned():
    # the 105 built-in groups up to order 64, in the order C1-C64, D2-D32, V4,
    # Q8, S1-S4, A1-A4: the SHA-256 of their concatenated repr((elements,
    # table)), and of the concatenated repr of each search's list of maps, per
    # group under endo, diff1, diff-1, rb1, rb-1 and crossed under the adjoint
    # and under the left-regular action
    built_in = ([cyclic(n) for n in range(1, 65)] + [dihedral(n) for n in range(2, 33)]
               + [klein_four(), quaternion()] + [symmetric(n) for n in range(1, 5)]
               + [alternating(n) for n in range(1, 5)])
    tables = "".join(repr((g.elements, g._table)) for g in built_in)
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "be145aa69d62093c1fb8bd8ff392a58c520c0047b7b572b0d2636cb9f6ede67e")
    sweep, searches, maps = hashlib.sha256(), 0, 0
    for g in built_in:
        laws = [(law, None) for law in Law if law is not Law.CROSSED]
        for law, action in laws + [(Law.CROSSED, adjoint_action(g)),
                                   (Law.CROSSED, left_regular_action(g))]:
            found = enumerate_operators(g, law, action)
            sweep.update(repr(found).encode())
            searches, maps = searches + 1, maps + len(found)
    assert (searches, maps) == (735, 74972)
    assert sweep.hexdigest() == "f6fddc712f251e6f1f32438a107e549a0064782afea174b311dc4adbc5adefff"


PAST_ORDER_8 = {**{f"C{n}": (lambda n=n: cyclic(n)) for n in (9, 10, 12)},
                "A4": lambda: alternating(4), "D5": lambda: dihedral(5), "D6": lambda: dihedral(6)}


@pytest.mark.parametrize("name", PAST_ORDER_8)
def test_enumeration_matches_prefix_search_past_order_8(name):
    # in the built-in labelling only: under a shuffle, D6 keeps the prefix
    # search busy for seconds
    g = PAST_ORDER_8[name]()
    for law in Law:
        action = adjoint_action(g) if law is Law.CROSSED else None
        assert enumerate_operators(g, law, action) == enumerate_operators_prefix(g, law, action)


SHUFFLED_PAST_ORDER_8 = {"C9": lambda: cyclic(9), "C12": lambda: cyclic(12),
                         "A4": lambda: alternating(4), "D5": lambda: dihedral(5),
                         "D6": lambda: dihedral(6), "D12": lambda: dihedral(12),
                         "S4": lambda: symmetric(4)}


@pytest.mark.parametrize("name", SHUFFLED_PAST_ORDER_8)
def test_enumeration_commutes_with_relabelling_past_order_8(name):
    # a relabelling is an isomorphism, so under a seeded shuffle the search
    # finds the images k -> pos[op[order[k]]] of the maps it finds in the
    # built-in labelling, which the tests around this one pin down; the
    # crossed law uses each group's own adjoint action
    g = SHUFFLED_PAST_ORDER_8[name]()
    order = list(range(len(g)))
    random.Random(name).shuffle(order)
    h = relabel(g, order)
    pos = {x: k for k, x in enumerate(order)}
    for law in Law:
        crossed = law is Law.CROSSED
        ops = enumerate_operators(g, law, adjoint_action(g) if crossed else None)
        expected = sorted(tuple(pos[op[x]] for x in order) for op in ops)
        assert enumerate_operators(h, law, adjoint_action(h) if crossed else None) == expected, law


@pytest.mark.parametrize("make,endo,rb1", [(lambda: symmetric(4), 58, 100),
                                           (lambda: dihedral(12), 196, 288)])
def test_order_24_operators_meet_identities_that_need_no_brute_force(make, endo, rb1):
    g = make()
    m, i = g.mul, g.inv
    ops = {law: enumerate_operators(g, law) for law in Law if law is not Law.CROSSED}
    assert (len(ops[Law.ENDO]), len(ops[Law.RB_PLUS])) == (endo, rb1)
    assert enumerate_operators(g, Law.CROSSED, adjoint_action(g)) == ops[Law.DIFF_PLUS]
    # D(a) = φ(a) a^-1 is a weight-1 differential operator exactly when φ is
    # an endomorphism
    assert ops[Law.DIFF_PLUS] == sorted(tuple(m(phi[a], i(a)) for a in range(len(g)))
                                        for phi in ops[Law.ENDO])
    assert ops[Law.RB_MINUS] == sorted(convert_weight(op, g) for op in ops[Law.RB_PLUS])
    # the descendent group of a Rota-Baxter operator (Guo, Lang & Sheng 2021)
    for op in ops[Law.RB_PLUS]:
        FiniteGroup(list(g.elements), descendent_table(g, op))


# --- weight conversion and projections ----------------------------------------

def test_convert_weight_examples():
    z2 = cyclic(2)
    assert convert_weight(identity_operator(z2), z2) == identity_operator(z2)
    s3 = symmetric(3)
    conv = convert_weight(inversion_operator(s3), s3)
    assert conv == identity_operator(s3)
    assert check_identity(s3, conv, Law.RB_MINUS) is None


def test_convert_weight_checks_the_length():
    for op in [(0, 1, 2), (0,)]:
        with pytest.raises(ValueError, match=rf"operator must have 2 images, got {len(op)}"):
            convert_weight(op, cyclic(2))


def test_convert_weight_is_involution_and_swaps_laws():
    for g in (cyclic(4), symmetric(3), dihedral(4)):
        for op in enumerate_operators(g, Law.RB_PLUS):
            conv = convert_weight(op, g)
            assert check_identity(g, conv, Law.RB_MINUS) is None
            assert convert_weight(conv, g) == op
        for op in enumerate_operators(g, Law.RB_MINUS):
            assert check_identity(g, convert_weight(op, g), Law.RB_PLUS) is None


def test_projection_operator_s3():
    s3 = symmetric(3)
    a3 = {"e", "(123)", "(132)"}
    op = projection_operator(s3, a3, {"e", "(12)"})
    # exhaustive weight -1 check over all 36 pairs
    assert check_identity(s3, op, Law.RB_MINUS) is None
    # idempotent, image inside A3
    for i in range(6):
        assert op[op[i]] == op[i]
        assert s3.name(op[i]) in a3


def test_projection_operator_direct_product():
    g = klein_four()  # {e,a} x {e,b} with c = ab
    op = projection_operator(g, {"e", "a"}, {"e", "b"})
    assert operator_to_names(g, op) == ("e", "a", "e", "a")
    assert check_identity(g, op, Law.RB_MINUS) is None


def test_projection_operator_rejects_bad_factorizations():
    s3 = symmetric(3)
    a3 = {"e", "(123)", "(132)"}
    with pytest.raises(ValueError):
        projection_operator(s3, a3, a3)  # nontrivial intersection, not exhaustive
    with pytest.raises(ValueError, match="subgroup"):
        projection_operator(s3, {"e", "(123)"}, {"e", "(12)"})
    with pytest.raises(ValueError, match="exhaustive"):
        projection_operator(s3, {"e"}, {"e", "(12)"})


def test_projection_operator_names_a_subset_that_is_no_subgroup():
    c5 = cyclic(5)
    with pytest.raises(ValueError, match=r"^first subgroup does not contain the identity$"):
        projection_operator(c5, {"a"}, {"e"})
    # closed under inverses, as a4 = a^-1, but not under products
    with pytest.raises(ValueError, match=r"^second subgroup is not closed under product "
                       r"at \(a, a\)$"):
        projection_operator(c5, {"e"}, {"e", "a", "a4"})


# --- group files ---------------------------------------------------------------

def test_import_does_not_load_yaml():
    # only the group-file functions need PyYAML, so they import it themselves
    code = "import sys, opgroups; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at import
    code = "import sys, opgroups; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_group_file_round_trip(tmp_path):
    g = dihedral(4)
    path = tmp_path / "d4.grp"
    dump_group_file(path, g, operator=inversion_operator(g),
                    subgroups={"rot": [g.index(n) for n in ("e", "r", "r2", "r3")]})
    data = load_group_file(path)
    assert data.group.elements == g.elements
    assert data.operator == inversion_operator(data.group)
    assert set(data.subgroups) == {"rot"}
    assert len(data.subgroups["rot"]) == 4
    # each of these was written, then misread (-1 as a2, -2 as a, the name 1
    # as '1', a subgroups entry that is no subgroup as it stood) or refused
    # on load; an image 5 raised a bare IndexError
    c3, path = cyclic(3), tmp_path / "c3.grp"
    swapped = ((0, 1, 2), (0, 2, 1), (0, 1, 2))  # act(a, .) swaps a and a2 but act(a2, .) not
    for extra, message in [({"operator": (0, -1, 0)}, r"^-1 is not an element index$"),
                           ({"operator": (0, 5, 0)}, r"^5 is not an element index$"),
                           ({"operator": (0, 1)}, r"^operator must list 3 images, got 2$"),
                           ({"subgroups": {"h": [0, -2]}}, r"^-2 is not an element index$"),
                           ({"action": swapped}, r"^action is not compatible with multiplication "),
                           ({"action": [0, 1, 2]}, r"^action must be an 3x3 matrix$"),
                           ({"subgroups": {(1, 2): [0]}},
                            r"^subgroup name \(1, 2\) is not a nonempty string$"),
                           ({"subgroups": {1: [0]}}, r"^subgroup name 1 is not a nonempty string$"),
                           ({"subgroups": {"h": [1, 1]}}, r"^subgroups entry 'h' lists 'a' twice$"),
                           ({"subgroups": {"h": [1, 2]}},
                            r"^subgroups entry 'h': subgroup does not contain the identity$")]:
        with pytest.raises(ValueError, match=message):
            dump_group_file(path, c3, **extra)
        assert not path.exists(), extra
    for i in (-1, 3, True, 1.0):
        with pytest.raises(ValueError, match=rf"^{i!r} is not an element index$"):
            c3.name(i)
    with pytest.raises(ValueError, match=r"^5 is not an element index$"):
        operator_to_names(c3, (0, 5, 0))


def test_group_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("elements: [e]\ntable: [[e]]\ncolour: blue\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown group file keys: colour"):
        load_group_file(path)


def test_group_file_requires_elements_and_table(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("elements: [e]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing"):
        load_group_file(path)


def test_group_file_action_is_validated(tmp_path):
    path = tmp_path / "act.grp"
    path.write_text(
        "elements: [e, a]\n"
        "table: [[e, a], [a, e]]\n"
        "action: [[a, e], [e, a]]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="identity"):
        load_group_file(path)


def test_group_file_round_trips_an_action(tmp_path):
    g = symmetric(3)
    path = tmp_path / "s3.grp"
    dump_group_file(path, g, action=adjoint_action(g))
    data = load_group_file(path)
    assert data.group.elements == g.elements
    assert data.action == adjoint_action(g)


GROUP_C2 = "elements: [e, a]\ntable: [[e, a], [a, e]]\n"
GROUP_C3 = "elements: [e, a, a2]\ntable: [[e, a, a2], [a, a2, e], [a2, e, a]]\n"


@pytest.mark.parametrize("body,key", [
    pytest.param(body, key, id=key) for body, key in [
        ("elements: ea\ntable: [[e, a], [a, e]]\n", "elements"),
        ("elements: [e, a]\ntable: ea\n", "table"),
        ("elements: [e, a]\ntable: [[e, a], ae]\n", "table row 1"),
        (GROUP_C2 + "operator: ea\n", "operator"),
        (GROUP_C2 + "action: ea\n", "action"),
        (GROUP_C2 + "action: [[e, a], ae]\n", "action row 1"),
        (GROUP_C2 + "subgroups: {h: e}\n", "subgroups entry 'h'"),
    ]
])
def test_group_file_rejects_a_string_for_a_list(tmp_path, body, key):
    path = tmp_path / "bad.grp"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{key} must be a list, got str$"):
        load_group_file(path)


@pytest.mark.parametrize("body,message", [
    ("- e\n- a\n", "group file must be a mapping"),
    (GROUP_C2 + "subgroups: [e]\n", "subgroups must be a mapping of name -> element list"),
    (GROUP_C2 + "subgroups: {1: [e], '1': [e, a]}\n", "subgroup name '1' occurs twice"),
    (GROUP_C3 + "subgroups: {h: [a]}\n",
     "subgroups entry 'h': subgroup does not contain the identity"),
    (GROUP_C3 + "subgroups: {k: [e, e]}\n", "subgroups entry 'k' lists 'e' twice"),
    (GROUP_C2 + "subgroups: {h: [e, q]}\n", "subgroups entry 'h': unknown element name 'q'"),
    (GROUP_C2 + "action: [[e, a], [q, e]]\n", "action row 1: unknown element name 'q'"),
    (GROUP_C2 + "operator: [e, q]\n", "operator: unknown element name 'q'"),
], ids=["list", "subgroups-list", "subgroup-name-twice", "no-subgroup", "member-twice",
        "unknown-member", "unknown-action-image", "unknown-operator-image"])
def test_group_file_mappings_must_be_mappings(tmp_path, body, message):
    path = tmp_path / "bad.grp"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_group_file(path)
