"""Prime-field arithmetic GF(p) and fixed-length vectors over it.

Field elements are plain ints in [0, p).  Object values are tuples of
field elements of a fixed per-run length; all vector operations are
applied coordinate-wise.  The characteristic must be odd so that the
coefficient 2 is invertible.
"""

from __future__ import annotations

from typing import Tuple

Value = Tuple[int, ...]


# Deterministic Miller-Rabin: the first 12 primes as bases decide primality
# exactly for every n below _MR_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for an odd prime p.  Elements are ints reduced mod p."""

    def __init__(self, p: int = 257):
        if type(p) is not int or p >= _MR_BOUND or not _is_prime(p):
            raise ValueError(f"field order must be a prime integer below {_MR_BOUND}, got {p!r}")
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

