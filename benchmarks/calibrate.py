"""The host's current speed, read off a fixed piece of pure-Python work.

A shared host's speed drifts: on a 2-vCPU VM the same op took up to twice
as long for a minute or more.  A run therefore times this fixed work next to
its ops and reports op times scaled to a reference speed, at which one
calibration takes ``REFERENCE_S``.  The work
mixes what the program's layers do (small named tuples built recursively and
printed, sequences grown by copying, index arithmetic over a Cayley table)
and imports nothing from ``opgroups``, so no change to the program under test
moves it.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import NamedTuple

REFERENCE_S = 0.005     # a calibration's time at the reference speed


class _Atom(NamedTuple):
    base: object
    sign: int


def _build(depth: int) -> tuple:
    if depth == 0:
        return (_Atom("x", 1), _Atom("y", -1))
    inner = _build(depth - 1)
    return inner[:2] + (_Atom(inner, 1 - 2 * (depth % 2)),) + inner[::-1][:3]


def _text(w: tuple) -> str:
    return " ".join(a.base + ("" if a.sign > 0 else "^-1") if isinstance(a.base, str)
                    else "<" + _text(a.base) + ">" for a in w)


def _words() -> int:
    # small named tuples built recursively, printed, counted and hashed
    counts: dict[str, int] = {}
    total = 0
    for _ in range(50):
        w = _build(8)
        t = _text(w)
        counts[t[:5]] = counts.get(t[:5], 0) + len(t)
        total += hash(w) & 1
    return total + len(counts)


def _copies() -> int:
    # sequences grown by copying, as derive and the word products grow theirs
    total = 0
    for _ in range(2):
        acc: tuple = ()
        for i in range(400):
            acc = acc + (("x", i & 1, 1),)
        seq: list = []
        for i in range(300):
            seq = seq[:] + [i]
        total += len(acc) + len(seq)
    return total


def _tables() -> int:
    # index arithmetic over a Cayley table, as the finite search does
    n = 8
    table = [[(a * b + a) % n for b in range(n)] for a in range(n)]
    hits = 0
    for _ in range(20):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    hits += table[table[a][b]][c] == table[a][table[b][c]]
    return hits


def calibrate() -> float:
    """Seconds the fixed work takes now.  The garbage collector is off
    meanwhile, so the objects the benchmark holds do not slow the work down
    as they pile up."""
    gc.disable()
    try:
        start = perf_counter()
        _words()
        _copies()
        _tables()
        return perf_counter() - start
    finally:
        gc.enable()
