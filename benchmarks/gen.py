"""Seeded input generators for the opgroups benchmark.

Every input is handed to the program as text.  Nothing here imports
``opgroups``: the generators build word text from their own small models, so
the program under test only ever sees generated text.

Inputs come in *blocks*.  A block has a fixed composition of cost classes
(nesting depth and seam chain lengths, derivation orders, powers, groups and
laws) and only the contents inside each class are drawn from the seed.  The
timed phase runs whole blocks, so the mix of cheap and heavy ops, and hence
throughput and the latency percentiles, is the same from seed to seed while
the inputs themselves differ.  Block ``b`` of seed ``s`` is the same whatever
blocks were drawn before it.
"""

from __future__ import annotations

import random
from collections import Counter

WORKLOADS = ("rb_products", "diff_derive", "lab_eval", "operated_text")
GENERATORS = ("x", "y", "z")

# rb_products: the chain lengths (left, right) of the positive bracket merge
# at the seam, for each op of a block.  The pair's nesting depth is the
# longer chain.  The merge recursion costs grow steeply with both lengths; a
# depth-5 chain against a chain of length >= 2 needs more than the default
# 10^6 guard steps, so such pairs are kept out of the timed ops (no timed op
# may fail) and appear as the guard probe among the checks instead.  The
# median falls in the middle of the ten (3, 2) merges and the 90th
# percentile among the three (4, 2) merges, so both sit inside one class.
RB_BLOCK = (
    [(1, 2)] * 3 + [(2, 1)] * 3 + [(2, 2)] * 4                          # depth 2
    + [(1, 3), (2, 3), (3, 1)] + [(3, 2)] * 10 + [(3, 3)] * 7           # depth 3
    + [(1, 4), (3, 4), (4, 1), (4, 2), (4, 2), (4, 2), (4, 3), (4, 4)]  # depth 4
    + [(1, 5), (5, 1)]                                                  # depth 5
)
RB_PROBE_CHAIN = 5

# diff_derive: (derivation order n, word length) for each op of a block.  The
# output grows like length * 3^n and derive is quadratic in it, so long words
# are only derived a few times.  The median falls among the six (4, 3)
# derivations and the 90th percentile among the three (5, 4) ones.
DIFF_BLOCK = (
    [(3, k) for k in range(1, 7)] + [(4, 2)]
    + [(4, 3)] * 6
    + [(4, 4), (4, 5), (6, 1), (5, 2)] + [(5, 4)] * 3 + [(6, 2)]
)

# lab_eval: every group of order <= 8 that opgroups.finite builds, with its
# order, and every law.  A block relabels each group once for every law and
# every position of the identity in the new order, in a seeded order: the
# search slows down sharply when the identity comes late (up to 60x on Q8),
# so the position is part of the block's fixed composition, not drawn.
LAB_GROUPS = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
              "V4": 4, "S3": 6, "D4": 8, "Q8": 8}
LAB_LAWS = ("endo", "diff1", "diff-1", "rb1", "rb-1", "crossed")
LAB_WORDS = 6

# operated_text: powers are stratified over 2..120, one op per stratum.
POWER_STRATA = 20
POWER_MIN, POWER_MAX = 2, 120
# Sizes of each input word: top-level atoms and atoms at all levels.
OPERATED_BREADTH = (4, 6)
OPERATED_ATOMS = (18, 24)
OPERATED_DEPTH = 3

# Groups of the evaluation targets the checks use; the seed picks the
# operator on each, the generators' images and, for operated_text, the
# arbitrary self-map.
TARGET_GROUPS = ("S3", "D4", "Q8")


# --- a small model of bracketed words ----------------------------------------
# An atom is (sign, base) where base is a generator name or a tuple of atoms.

def _cancels(a, b) -> bool:
    return a[0] == -b[0] and a[1] == b[1]


def _is_bracket(a) -> bool:
    return not isinstance(a[1], str)


def _fits(prev, a, rb: bool) -> bool:
    if prev is None:
        return True
    if _cancels(prev, a):
        return False
    return not (rb and _is_bracket(prev) and _is_bracket(a) and prev[0] == a[0])


def word_text(atoms) -> str:
    return " ".join(_atom_text(a) for a in atoms) if atoms else "1"


def _atom_text(a) -> str:
    sign, base = a
    text = base if isinstance(base, str) else f"<{word_text(base)}>"
    return text if sign > 0 else text + "^-1"


def _size(atoms) -> int:
    return sum(1 + (0 if isinstance(b, str) else _size(b)) for _, b in atoms)


def _gen_atom(rng) -> tuple:
    return (rng.choice((1, -1)), rng.choice(GENERATORS))


def random_word(rng, *, breadth: int, depth: int, rb: bool, p_bracket: float = 0.4) -> tuple:
    """A reduced word of exactly ``breadth`` top-level atoms and depth at most
    ``depth``; with ``rb`` it is a Rota-Baxter word (no adjacent same-sign
    brackets, no empty bodies, at every level)."""
    atoms: list = []
    while len(atoms) < breadth:
        if depth > 0 and rng.random() < p_bracket:
            body = random_word(rng, breadth=rng.randint(1, 3), depth=depth - 1, rb=rb,
                               p_bracket=p_bracket)
            a = (rng.choice((1, -1)), body)
        else:
            a = _gen_atom(rng)
        if _fits(atoms[-1] if atoms else None, a, rb):
            atoms.append(a)
    return tuple(atoms)


def _chain(rng, length: int, sign: int) -> tuple:
    # `length` nested brackets around a 1-3 letter core; the outer sign is given
    core = random_word(rng, breadth=rng.randint(1, 3), depth=0, rb=True)
    for _ in range(length - 1):
        core = ((1, core),)
    return (sign, core)


def _rb_side(rng, seam, room: int) -> list:
    # 0..room shallow atoms that may sit next to the seam bracket
    atoms = [seam]
    for _ in range(rng.randint(0, room)):
        a = (rng.choice((1, -1)), random_word(rng, breadth=rng.randint(1, 2), depth=1, rb=True)) \
            if rng.random() < 0.3 else _gen_atom(rng)
        if _fits(atoms[-1], a, rb=True):
            atoms.append(a)
    return atoms


def rb_pair(rng, left: int, right: int) -> dict:
    # Negative brackets merge through the positive merge of the swapped pair,
    # so a negative seam puts the `left` chain at the start of v: the
    # positive merge is always <left chain> <right chain>.
    sign = rng.choice((1, -1))
    cu, cv = (left, right) if sign > 0 else (right, left)
    u = _rb_side(rng, _chain(rng, cu, sign), 3)[::-1]
    v = _rb_side(rng, _chain(rng, cv, sign), 3)
    return {"u": word_text(u), "v": word_text(v), "depth": max(cu, cv), "chains": [left, right]}


# --- per-workload blocks --------------------------------------------------------

def block(workload: str, seed: int, index: int) -> list[dict]:
    """The op records of block ``index``: text inputs plus the class labels
    the report uses."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "rb_products":
        recs = [rb_pair(rng, cu, cv) for cu, cv in RB_BLOCK]
    elif workload == "diff_derive":
        recs = [{"w": diff_word_text(rng, length), "n": n, "length": length}
                for n, length in DIFF_BLOCK]
    elif workload == "lab_eval":
        recs = [lab_record(rng, g, law, at) for g, n in LAB_GROUPS.items()
                for law in LAB_LAWS for at in range(n)]
    elif workload == "operated_text":
        width = (POWER_MAX - POWER_MIN + 1) / POWER_STRATA
        recs = [{"u": operated_word_text(rng), "v": operated_word_text(rng),
                 "k": POWER_MIN + int(i * width + rng.random() * width)}
                for i in range(POWER_STRATA)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(recs)
    return recs


def diff_word_text(rng, length: int) -> str:
    letters: list = []
    while len(letters) < length:
        a = (rng.choice(GENERATORS), rng.randint(0, 1), rng.choice((1, -1)))
        if letters and letters[-1][:2] == a[:2] and letters[-1][2] == -a[2]:
            continue
        letters.append(a)
    out = []
    for sym, order, sign in letters:
        # order 0 is written both ways, "x" and "x.0"
        text = sym if order == 0 and rng.random() < 0.5 else f"{sym}.{order}"
        out.append(text if sign > 0 else text + "^-1")
    return " ".join(out)


def operated_word_text(rng) -> str:
    lo, hi = OPERATED_ATOMS
    while True:
        w = random_word(rng, breadth=rng.randint(*OPERATED_BREADTH), depth=OPERATED_DEPTH,
                        rb=False, p_bracket=0.45)
        if lo <= _size(w) <= hi:
            return word_text(w)


def lab_record(rng, group: str, law: str, at: int) -> dict:
    """A relabelling of the group's elements that puts the identity (index 0
    in every catalogue group) at position ``at``: ``perm[i]`` is the new
    position of the element with index ``i`` and ``names`` are the new names."""
    n = LAB_GROUPS[group]
    perm = list(range(n))
    rng.shuffle(perm)
    j = perm.index(at)
    perm[0], perm[j] = perm[j], perm[0]
    names = [f"g{v}" for v in rng.sample(range(100), n)]
    assign = {g: names[rng.randrange(n)] for g in GENERATORS}
    return {"group": group, "law": law, "perm": perm, "names": names, "assign": assign}


def fixed_inputs(workload: str, seed: int) -> dict:
    """Inputs fixed for the whole run: which enumerated operators become the
    evaluation targets and where the generators go, the word batch of
    lab_eval, and the guard probe of rb_products."""
    rng = random.Random(f"{workload}:{seed}:fixed")
    targets = [{"group": g, "pick": rng.random(),
                "assign": {x: rng.random() for x in GENERATORS}} for g in TARGET_GROUPS]
    out: dict = {"targets": targets}
    if workload == "rb_products":
        probe = _chain(rng, RB_PROBE_CHAIN, 1)
        out["probe"] = word_text([probe])
    elif workload == "lab_eval":
        out["rb_words"] = [word_text(random_word(rng, breadth=rng.randint(2, 5), depth=2, rb=True))
                           for _ in range(LAB_WORDS)]
        out["diff_words"] = [diff_word_text(rng, rng.randint(2, 6)) for _ in range(LAB_WORDS)]
    elif workload == "operated_text":
        out["maps"] = [[rng.random() for _ in range(8)] for _ in TARGET_GROUPS]
    return out


# --- input properties for the report ----------------------------------------------

def _seam_signs(u: str, v: str):
    # sign of the last atom of u and the first atom of v, when they are brackets
    def last_sign(t):
        if t.endswith(">^-1"):
            return -1
        return 1 if t.endswith(">") else None

    def first_sign(t):
        if not t.startswith("<"):
            return None
        level = 0
        for i, c in enumerate(t):
            level += (c == "<") - (c == ">")
            if level == 0:
                return -1 if t.startswith("^-1", i + 1) else 1
        return None

    return last_sign(u), first_sign(v)


def describe(workload: str, recs: list[dict]) -> list[str]:
    """Shares of the run's inputs that have the property each planned
    optimisation depends on."""
    n = len(recs)
    if not n:
        return []

    def hist(key):
        c = Counter(key(r) for r in recs)
        return ", ".join(f"{k}: {v / n:.1%}" for k, v in sorted(c.items()))

    if workload == "rb_products":
        same = sum(1 for r in recs if None not in (s := _seam_signs(r["u"], r["v"]))
                   and s[0] == s[1])
        return [f"depth histogram: {hist(lambda r: r['depth'])}",
                f"pairs with a same-sign bracket seam: {same / n:.1%}",
                f"seam chain lengths: {hist(lambda r: tuple(r['chains']))}"]
    if workload == "diff_derive":
        return [f"n histogram: {hist(lambda r: r['n'])}",
                f"length histogram: {hist(lambda r: r['length'])}"]
    if workload == "lab_eval":
        return [f"orders: {hist(lambda r: LAB_GROUPS[r['group']])}",
                f"laws: {hist(lambda r: r['law'])}"]
    if workload == "operated_text":
        chars = sum(len(r["u"]) + len(r["v"]) for r in recs)
        return [f"input characters per op: {chars / n:.1f}",
                f"power histogram by tens: {hist(lambda r: r['k'] // 10 * 10)}"]
    raise ValueError(f"unknown workload {workload!r}")
