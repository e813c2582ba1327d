"""The four benchmark workloads: set-up, one op, and the untimed checks.

Each op takes one generated text record, calls ``opgroups`` only through
``Tracer.call`` and returns what the untimed checks need.  Set-up builds the
groups and the evaluation targets, enumerating and validating their
operators, before the first op runs.  After the timed phase, ``check_op``
checks one op's output and ``check_end`` runs the checks that need the whole
run.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Callable, NamedTuple

from opgroups import differential, finite, operated, rota_baxter
from opgroups.differential import derive, derive_power, format_diff_word, parse_diff_word
from opgroups.finite import EnumerationBudgetError
from opgroups.rota_baxter import DiamondLimitError, diamond
from opgroups.words import Atom, Word, format_word, parse_word

# Op failures that are counted and survived; anything else is a bug that
# stops the run.
OP_ERRORS = (DiamondLimitError, EnumerationBudgetError)

# Check kinds that probe a law the program is known to break today (ROADMAP
# item 1: the diamond product is not associative, and the recursion guard
# fires on valid depth-5 input).  Their failures count in the wrong ratio and
# name a witness, but do not make the run's outputs incorrect.
LAW_PROBES = {"assoc", "guard"}
ASSOC_TRIPLES = 100

CATALOGUE = {
    **{f"C{n}": (lambda n=n: finite.cyclic(n)) for n in range(2, 9)},
    "V4": finite.klein_four,
    "S3": lambda: finite.symmetric(3),
    "D4": lambda: finite.dihedral(4),
    "Q8": finite.quaternion,
}


class Checks:
    """Counts of checks per kind, failures per kind and, per kind, the
    shortest witness of a failure."""

    def __init__(self):
        self.total: Counter = Counter()
        self.failed: Counter = Counter()
        self.witness: dict[str, str] = {}

    def __call__(self, kind: str, ok: bool, witness) -> None:
        self.total[kind] += 1
        if not ok:
            self.failed[kind] += 1
            text = witness()
            if len(text) < len(self.witness.get(kind, text + " ")):
                self.witness[kind] = text

    @property
    def correct(self) -> bool:
        return not any(n for kind, n in self.failed.items() if kind not in LAW_PROBES)


def _targets(fixed: dict, law: str, target_cls) -> list:
    # one validated target per group: a seeded pick among the operators of
    # the law that are not constant, with a seeded assignment of generators
    out = []
    for t in fixed["targets"]:
        g = CATALOGUE[t["group"]]()
        ops = [op for op in finite.enumerate_operators(g, law) if len(set(op)) > 1]
        op = ops[int(t["pick"] * len(ops))]
        assign = {x: int(r * len(g)) for x, r in t["assign"].items()}
        out.append((target_cls(g, op.__getitem__), assign))
    return out


def _short(w, limit: int = 120) -> str:
    text = str(w)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _power(g, a, k: int):
    acc = g.identity()
    for _ in range(k):
        acc = g.mul(acc, a)
    return acc


# --- rb_products ------------------------------------------------------------------

def rb_setup(fixed: dict):
    return SimpleNamespace(targets=_targets(fixed, "rb1", rota_baxter.RBTarget),
                           probe=parse_word(fixed["probe"]), shallow=[])


def rb_op(st, rec: dict, tr):
    u = tr.call("words.parse_word", parse_word, rec["u"])
    v = tr.call("words.parse_word", parse_word, rec["v"])
    tr.add("words.parse_word.chars_in", len(rec["u"]) + len(rec["v"]))
    try:
        r = tr.call("rota_baxter.diamond", diamond, u, v)
    except DiamondLimitError:
        tr.add("rota_baxter.diamond.guard_errors")
        raise
    tr.add("rota_baxter.diamond.atoms_out", len(r))
    text = tr.call("words.format_word", format_word, r)
    tr.add("words.format_word.chars_out", len(text))
    return text


def rb_check_op(st, i: int, rec: dict, out: str, check: Checks) -> None:
    u, v, r = parse_word(rec["u"]), parse_word(rec["v"]), parse_word(out)
    check("rb_word", rota_baxter.is_rb_word(r),
          lambda: f"op {i}: {rec['u']} ⋄ {rec['v']} = {_short(out)}: "
                  f"{rota_baxter.find_rb_violation(r)}")
    for target, assign in st.targets:
        g = target.group
        lhs = rota_baxter.evaluate(r, assign, target)
        rhs = g.mul(rota_baxter.evaluate(u, assign, target),
                    rota_baxter.evaluate(v, assign, target))
        check("rb_hom", lhs == rhs,
              lambda: f"op {i}: eval({_short(out)}) = {lhs} but eval({rec['u']}) eval({rec['v']}) "
                      f"= {rhs} in {g!r}")
    if rec["depth"] <= 3 and len(st.shallow) <= ASSOC_TRIPLES:
        st.shallow.append(rec)


def rb_check_end(st, check: Checks) -> None:
    # all-bracket triples with same-sign seams, from the depth <= 3 inputs:
    # the seam bracket of u, the seam bracket of v, and the seam bracket of
    # the next such v turned to the same sign
    for rec, nxt in zip(st.shallow, st.shallow[1:]):
        a = Word(parse_word(rec["u"]).atoms[-1:])
        b = Word(parse_word(rec["v"]).atoms[:1])
        c0 = parse_word(nxt["v"]).atoms[0]
        c = Word((Atom(c0.base, a.atoms[0].sign),))
        try:
            left, right = diamond(diamond(a, b), c), diamond(a, diamond(b, c))
        except DiamondLimitError as e:
            check("assoc", False, lambda: f"a = {a}, b = {b}, c = {c}: {e}")
            continue
        check("assoc", left == right,
              lambda: f"(a ⋄ b) ⋄ c = {_short(left)} but a ⋄ (b ⋄ c) = {_short(right)} "
                      f"for a = {a}, b = {b}, c = {c}")

    # no guard may fire on valid input: a depth-5 chain squared
    w = st.probe
    try:
        diamond(w, w)
        check("guard", True, None)
    except DiamondLimitError as e:
        check("guard", False, lambda: f"diamond(w, w) for w = {w}: {e}")


# --- diff_derive ------------------------------------------------------------------

def diff_setup(fixed: dict):
    return SimpleNamespace(targets=_targets(fixed, "diff1", differential.DiffTarget))


def diff_op(st, rec: dict, tr):
    w = tr.call("differential.parse_diff_word", parse_diff_word, rec["w"])
    r = tr.call("differential.derive_power", derive_power, w, rec["n"])
    tr.add("differential.derive_power.letters_out", len(r))
    text = tr.call("differential.format_diff_word", format_diff_word, r)
    tr.add("differential.format_diff_word.chars_out", len(text))
    return text


def diff_check_op(st, i: int, rec: dict, out: str, check: Checks) -> None:
    w, r, n = parse_diff_word(rec["w"]), parse_diff_word(out), rec["n"]
    for target, assign in st.targets:
        lhs = differential.evaluate(r, assign, target)
        rhs = differential.evaluate(w, assign, target)
        for _ in range(n):
            rhs = target.op(rhs)
        check("intertwine", lhs == rhs,
              lambda: f"op {i}: eval(D^{n} {rec['w']}) = {lhs} but d^{n}(eval) = {rhs} "
                      f"in {target.group!r}")
    d1 = derive(w)
    pf = differential.product_formula([differential.DiffWord((a,)) for a in w])
    check("product_formula", pf == d1,
          lambda: f"op {i}: product formula {_short(pf)} != D({rec['w']}) = {_short(d1)}")
    ip, dp = differential.inverse_power_formula(w, 2), derive(w ** -2)
    check("inverse_power", ip == dp,
          lambda: f"op {i}: inverse power formula {_short(ip)} != D(({rec['w']})^-2) = "
                  f"{_short(dp)}")


# --- lab_eval ---------------------------------------------------------------------

def lab_setup(fixed: dict):
    return SimpleNamespace(groups={name: make() for name, make in CATALOGUE.items()},
                           rb_words=[parse_word(t) for t in fixed["rb_words"]],
                           diff_words=[parse_diff_word(t) for t in fixed["diff_words"]],
                           counts={})


def lab_op(st, rec: dict, tr):
    base = st.groups[rec["group"]]
    perm, names, law = rec["perm"], rec["names"], rec["law"]
    back = sorted(range(len(perm)), key=perm.__getitem__)
    table = [[names[perm[base.mul(back[a], back[b])]] for b in range(len(perm))]
             for a in range(len(perm))]
    g = tr.call("finite.validate_group", finite.validate_group, names, table)
    action = None
    if law == "crossed":
        action = tr.call("finite.adjoint_action", finite.adjoint_action, g)
    ops = tr.call("finite.enumerate_operators", finite.enumerate_operators, g, law, action)
    tr.add("finite.enumerate_operators.operators_found", len(ops))
    assign = {x: g.index(name) for x, name in rec["assign"].items()}
    converted = []
    for op in ops:
        if tr.call("finite.check_identity", finite.check_identity, g, op, law, action) is not None:
            tr.add("finite.check_identity.violations")
        converted.append(tr.call("finite.convert_weight", finite.convert_weight, op, g))
        if law == "rb1":
            t = tr.call("rota_baxter.RBTarget", rota_baxter.RBTarget, g, op.__getitem__)
            for w in st.rb_words:
                tr.call("rota_baxter.evaluate", rota_baxter.evaluate, w, assign, t)
        elif law == "diff1":
            t = tr.call("differential.DiffTarget", differential.DiffTarget, g, op.__getitem__)
            for w in st.diff_words:
                tr.call("differential.evaluate", differential.evaluate, w, assign, t)
        else:
            # any self-map makes an operated group
            t = operated.OperatedTarget(g, op.__getitem__)
            for w in st.rb_words:
                tr.call("operated.evaluate", operated.evaluate, w, assign, t)
    return g, action, ops, converted


def lab_check_op(st, i: int, rec: dict, out, check: Checks) -> None:
    g, action, ops, converted = out
    law, key = rec["law"], (rec["group"], rec["law"])
    if key not in st.counts:
        base = st.groups[rec["group"]]
        base_action = finite.adjoint_action(base) if law == "crossed" else None
        st.counts[key] = len(finite.enumerate_operators(base, law, base_action))
    check("count", len(ops) == st.counts[key],
          lambda: f"op {i}: {len(ops)} {law} operators on a relabelled {rec['group']}, "
                  f"{st.counts[key]} on the original")
    for op, conv in zip(ops, converted):
        bad = finite.check_identity(g, op, law, action)
        check("law", bad is None,
              lambda: f"op {i}: {finite.operator_to_names(g, op)} breaks {law} at {bad}")
        if law == "rb1":
            bad_conv = finite.check_identity(g, conv, "rb-1")
            check("rb_weight", bad_conv is None,
                  lambda: f"op {i}: convert_weight({finite.operator_to_names(g, op)}) "
                          f"breaks rb-1 at {bad_conv}")


# --- operated_text ----------------------------------------------------------------

def operated_setup(fixed: dict):
    targets = []
    for t, images in zip(fixed["targets"], fixed["maps"]):
        g = CATALOGUE[t["group"]]()
        self_map = tuple(int(r * len(g)) for r in images[:len(g)])
        assign = {x: int(r * len(g)) for x, r in t["assign"].items()}
        targets.append((operated.OperatedTarget(g, self_map.__getitem__), assign))
    return SimpleNamespace(targets=targets)


def operated_op(st, rec: dict, tr):
    u = tr.call("words.parse_word", parse_word, rec["u"])
    v = tr.call("words.parse_word", parse_word, rec["v"])
    tr.add("words.parse_word.chars_in", len(rec["u"]) + len(rec["v"]))
    p = tr.call("words.Word.mul", Word.__mul__, u, v)
    q = tr.call("words.Word.pow", Word.__pow__, p, rec["k"])
    tr.add("words.Word.pow.atoms_out", len(q))
    b = tr.call("operated.bracket", operated.bracket, q)
    r = tr.call("words.Word.inverse", Word.inverse, b)
    text = tr.call("words.format_word", format_word, r)
    tr.add("words.format_word.chars_out", len(text))
    return text


def operated_check_op(st, i: int, rec: dict, out: str, check: Checks) -> None:
    # format(parse(out)) == out, with out = format(w), gives parse(format(w)) == w
    w = parse_word(out)
    check("roundtrip", format_word(w) == out,
          lambda: f"op {i}: {_short(out)} does not survive parse and format")
    # the outputs are long, so each op is evaluated into one target in turn
    u, v, k = parse_word(rec["u"]), parse_word(rec["v"]), rec["k"]
    target, assign = st.targets[i % len(st.targets)]
    g = target.group
    lhs = operated.evaluate(w, assign, target)
    uv = g.mul(operated.evaluate(u, assign, target), operated.evaluate(v, assign, target))
    rhs = g.inv(target.op(_power(g, uv, k)))
    check("op_hom", lhs == rhs,
          lambda: f"op {i}: eval(<(uv)^{k}>^-1) = {lhs} but the image of the "
                  f"inputs is {rhs} in {g!r}")


def _no_end_checks(st, check: Checks) -> None:
    pass


class Workload(NamedTuple):
    setup: Callable
    op: Callable
    check_op: Callable
    check_end: Callable


WORKLOADS = {
    "rb_products": Workload(rb_setup, rb_op, rb_check_op, rb_check_end),
    "diff_derive": Workload(diff_setup, diff_op, diff_check_op, _no_end_checks),
    "lab_eval": Workload(lab_setup, lab_op, lab_check_op, _no_end_checks),
    "operated_text": Workload(operated_setup, operated_op, operated_check_op, _no_end_checks),
}
