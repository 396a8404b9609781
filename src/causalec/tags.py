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

from typing import Iterable, NamedTuple, Tuple

VectorClock = Tuple[int, ...]

LT, GT, EQ, INCOMPARABLE = "LT", "GT", "EQ", "INCOMPARABLE"

# Reserved client id for reads a server issues to itself while re-encoding.
LOCALHOST = 0


class ProtocolInvariantViolation(Exception):
    """A condition the protocol's guarantees rule out was observed."""


class Tag(NamedTuple):
    ts: VectorClock
    id: int

    def render(self) -> str:
        return f"(({','.join(str(c) for c in self.ts)}),{self.id})"


def zero_clock(n: int) -> VectorClock:
    return (0,) * n


def zero_tag(n: int) -> Tag:
    return Tag(zero_clock(n), 0)


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


def tag_less(t1: Tag, t2: Tag) -> bool:
    """Strict total order on tags: lexicographic on (timestamp, id).

    Dominance-compatible: ts1 < ts2 componentwise implies t1 < t2.  Distinct
    writes always compare strictly (their timestamps already differ).  This
    coincides with the tuple order of Tag itself, so hot code may compare
    tags directly.
    """
    if len(t1.ts) != len(t2.ts):
        raise ValueError(f"tag dimension mismatch: {len(t1.ts)} vs {len(t2.ts)}")
    return t1 < t2


def tag_le(t1: Tag, t2: Tag) -> bool:
    return t1 <= t2


def tag_max(tags: Iterable[Tag]) -> Tag:
    """The unique maximum; raises ValueError on an empty collection."""
    try:
        return max(tags)
    except ValueError:
        raise ValueError("tag_max of empty set") from None


def tag_min(tags: Iterable[Tag]) -> Tag:
    try:
        return min(tags)
    except ValueError:
        raise ValueError("tag_min of empty set") from None
