"""Versioning primitives: vector clocks and write tags.

A vector clock is a tuple of N naturals compared componentwise.  A tag pairs
a vector-clock timestamp with the writing client's id, and tags are ordered
lexicographically on (timestamp, id).  That order is total and transitive,
and it extends strict clock dominance (a componentwise-smaller clock is also
lexicographically smaller), so causally dependent writes always order after
their dependencies while concurrent writes get a deterministic tie-break.

An id-first tie-break on incomparable clocks would NOT work here: with three
writers it produces order cycles, leaving "the newest version" ill-defined.
Everything downstream (history lists, delete bookkeeping, convergence)
assumes a unique maximum, so the tie-break must stay lexicographic.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

VectorClock = Tuple[int, ...]

LT, GT, EQ, INCOMPARABLE = "LT", "GT", "EQ", "INCOMPARABLE"

# Reserved client id for reads a server issues to itself while re-encoding.
LOCALHOST = 0


class ProtocolInvariantViolation(Exception):
    """A condition the protocol's guarantees rule out was observed."""


class Tag(NamedTuple):
    """A write tag.  Tags compare as tuples, lexicographically on (ts, id)."""

    ts: VectorClock
    id: int

    def render(self) -> str:
        return f"(({','.join(str(c) for c in self.ts)}),{self.id})"


def zero_tag(n: int) -> Tag:
    return Tag((0,) * n, 0)


def vc_compare(a: VectorClock, b: VectorClock) -> str:
    if len(a) != len(b):
        raise ValueError(f"vector clock dimension mismatch: {len(a)} vs {len(b)}")
    le = ge = True
    for x, y in zip(a, b):
        if x < y:
            ge = False
            if not le:
                return INCOMPARABLE
        elif x > y:
            le = False
            if not ge:
                return INCOMPARABLE
    if le and ge:
        return EQ
    return LT if le else GT
