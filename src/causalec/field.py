"""Prime-field arithmetic GF(p) and fixed-length vectors over it.

Field elements are plain ints in [0, p).  Object values are tuples of
field elements of a fixed per-run length; all vector operations are
applied coordinate-wise.  The characteristic must be odd so that the
coefficient 2 is invertible.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Value = Tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """GF(p) for an odd prime p.  Elements are ints reduced mod p."""

    def __init__(self, p: int = 257):
        if type(p) is not int or not _is_prime(p):
            raise ValueError(f"field order must be a prime integer, got {p!r}")
        if p == 2:
            raise ValueError("field characteristic must be odd")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    # -- vector (Value) helpers ------------------------------------------

    def zero_value(self, length: int) -> Value:
        return (0,) * length

    def value(self, coords: Iterable[int]) -> Value:
        return tuple(c % self.p for c in coords)

    def vadd(self, u: Value, v: Value) -> Value:
        if len(u) != len(v):
            raise ValueError(f"value length mismatch: {len(u)} vs {len(v)}")
        p = self.p
        return tuple((a + b) % p for a, b in zip(u, v))

    def vsub(self, u: Value, v: Value) -> Value:
        if len(u) != len(v):
            raise ValueError(f"value length mismatch: {len(u)} vs {len(v)}")
        p = self.p
        return tuple((a - b) % p for a, b in zip(u, v))

    def vscale(self, c: int, v: Value) -> Value:
        p = self.p
        c %= p
        return tuple((c * a) % p for a in v)

