"""Cross-object linear codes over GF(p).

A code for K objects on N servers is an N x K coefficient matrix.  Server
``i`` stores the codeword symbol ``sum_k coeffs[i][k] * x_k`` (coordinate-wise
over value vectors), so a symbol mixes the values of *different* objects
rather than fragments of one object.  Servers and objects are numbered from
1 throughout the public API.

Recovery sets and decoding reduce to solving ``e_k = sum a_j row_j`` over
GF(p); re-encoding a symbol after one object changes is a single scaled
update, ``symbol + coeffs[i][k] * (new - old)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from .field import PrimeField, Value


@dataclass(frozen=True)
class RecoverySet:
    """Servers whose symbols jointly determine one object's value.

    ``decode_coeffs[j]`` is the field coefficient applied to server j's
    symbol; the combination sums to the object value for every coherent
    codeword.
    """

    object: int
    members: FrozenSet[int]
    decode_coeffs: Mapping[int, int]


class LinearCode:
    def __init__(self, field: PrimeField, coeffs: Sequence[Sequence[int]], value_len: int = 1):
        if not coeffs:
            raise ValueError("coefficient matrix must have at least one row")
        k = len(coeffs[0])
        if k == 0 or any(len(row) != k for row in coeffs):
            raise ValueError("coefficient matrix rows must be non-empty and equal-length")
        if value_len < 1:
            raise ValueError("value_len must be >= 1")
        self.field = field
        self.value_len = value_len
        self.n = len(coeffs)
        self.k = k
        self.coeffs = tuple(tuple(c % field.p for c in row) for row in coeffs)
        self._minimal_cache: Dict[int, List[RecoverySet]] = {}
        self._objects_at = tuple(
            frozenset(j + 1 for j, c in enumerate(row) if c) for row in self.coeffs)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "LinearCode":
        """Build from ``{"field_p": 7, "value_len": 1, "coeffs": [[...], ...]}``."""
        if "coeffs" not in doc:
            raise ValueError("code spec missing required field 'coeffs'")
        field = PrimeField(doc.get("field_p", 257))
        return cls(field, doc["coeffs"], value_len=doc.get("value_len", 1))

    def to_json(self) -> dict:
        return {
            "field_p": self.field.p,
            "value_len": self.value_len,
            "coeffs": [list(r) for r in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, p={self.field.p}, L={self.value_len})"

    # -- encoding ----------------------------------------------------------

    def zero_value(self) -> Value:
        return self.field.zero_value(self.value_len)

    def _check_value(self, v: Value) -> None:
        if len(v) != self.value_len:
            raise ValueError(f"value length {len(v)} != configured {self.value_len}")

    def encode_one(self, server: int, x: Sequence[Value]) -> Value:
        """Symbol of one server for the full object vector ``x``."""
        if len(x) != self.k:
            raise ValueError(f"expected {self.k} object values, got {len(x)}")
        row = self.coeffs[server - 1]
        acc = self.zero_value()
        f = self.field
        for c, xv in zip(row, x):
            self._check_value(xv)
            if c:
                acc = f.vadd(acc, f.vscale(c, xv))
        return acc

    def encode(self, x: Sequence[Value]) -> List[Value]:
        """All N codeword symbols for the object vector ``x``."""
        return [self.encode_one(s, x) for s in range(1, self.n + 1)]

    def reencode(self, server: int, obj: int, symbol: Value, old_xk: Value, new_xk: Value) -> Value:
        """Update a symbol after object ``obj`` changes from old_xk to new_xk.

        Equals ``symbol + coeffs[server][obj] * (new_xk - old_xk)``, so the
        zero-substituted forms (removing a contribution with new=0, or adding
        one with old=0) come out of the same expression.
        """
        self._check_value(symbol)
        self._check_value(old_xk)
        self._check_value(new_xk)
        c = self.coeffs[server - 1][obj - 1]
        if not c:
            return symbol
        f = self.field
        return f.vadd(symbol, f.vscale(c, f.vsub(new_xk, old_xk)))

    # -- recovery ----------------------------------------------------------

    def objects_at(self, server: int) -> FrozenSet[int]:
        """Objects whose value affects this server's symbol."""
        if not 1 <= server <= self.n:
            raise ValueError(f"server index {server} out of range 1..{self.n}")
        return self._objects_at[server - 1]

    def _solve(self, rows: Sequence[int], obj: int) -> Optional[Dict[int, int]]:
        """Coefficients a_j with sum a_j row_j = e_obj, or None.

        Gaussian elimination with lowest-server-index pivoting, so decode
        coefficients are deterministic.
        """
        p = self.field.p
        n_un = len(rows)
        # augmented system: one equation per object column
        eqs = [[self.coeffs[j - 1][c] for j in rows] + [1 if c == obj - 1 else 0]
               for c in range(self.k)]
        pivots: List[int] = []
        r = 0
        for c in range(n_un):
            pr = next((i for i in range(r, len(eqs)) if eqs[i][c] % p), None)
            if pr is None:
                continue
            eqs[r], eqs[pr] = eqs[pr], eqs[r]
            inv = pow(eqs[r][c], p - 2, p)
            eqs[r] = [(v * inv) % p for v in eqs[r]]
            for i in range(len(eqs)):
                if i != r and eqs[i][c] % p:
                    f = eqs[i][c]
                    eqs[i] = [(a - f * b) % p for a, b in zip(eqs[i], eqs[r])]
            pivots.append(c)
            r += 1
        if any(eqs[i][n_un] % p for i in range(r, len(eqs))):
            return None
        sol = [0] * n_un
        for i, c in enumerate(pivots):
            sol[c] = eqs[i][n_un]
        return {srv: sol[i] for i, srv in enumerate(rows)}

    def is_recovery_set(self, servers, obj: int) -> Optional[RecoverySet]:
        """RecoverySet with decode coefficients iff ``servers`` suffice for ``obj``."""
        members = sorted(set(servers))
        if any(not 1 <= s <= self.n for s in members):
            raise ValueError(f"server indices {members} out of range 1..{self.n}")
        if not 1 <= obj <= self.k:
            raise ValueError(f"object index {obj} out of range 1..{self.k}")
        sol = self._solve(members, obj)
        if sol is None:
            return None
        return RecoverySet(object=obj, members=frozenset(members), decode_coeffs=sol)

    def singleton_recovery(self, server: int, obj: int) -> Optional[RecoverySet]:
        """Recovery set {server} for obj, if the object is locally decodable."""
        row = self.coeffs[server - 1]
        if any(c for k, c in enumerate(row) if k != obj - 1) or not row[obj - 1]:
            return None
        return RecoverySet(
            object=obj,
            members=frozenset([server]),
            decode_coeffs={server: self.field.inv(row[obj - 1])},
        )

    def minimal_recovery_sets(self, obj: int) -> List[RecoverySet]:
        """All inclusion-minimal recovery sets for ``obj``.

        Subset search ordered by cardinality with superset pruning; fine for
        the intended N <= 12.  Raises if the object is unrecoverable.
        """
        if obj not in self._minimal_cache:
            found: List[RecoverySet] = []
            for size in range(1, self.n + 1):
                for S in combinations(range(1, self.n + 1), size):
                    if any(rs.members <= set(S) for rs in found):
                        continue
                    rs = self.is_recovery_set(S, obj)
                    if rs is not None:
                        found.append(rs)
            if not found:
                raise ValueError(f"object {obj} is not recoverable under this code")
            self._minimal_cache[obj] = found
        return list(self._minimal_cache[obj])

    def check_recoverable(self) -> None:
        """Raise unless every object is recoverable from the full server set."""
        for obj in range(1, self.k + 1):
            if self.is_recovery_set(range(1, self.n + 1), obj) is None:
                raise ValueError(f"object {obj} cannot be recovered from any server set")

    def decode(self, obj: int, rs: RecoverySet, symbols: Mapping[int, Value]) -> Value:
        """Combine symbols of a recovery set into the object value."""
        if rs.object != obj:
            raise ValueError(f"recovery set is for object {rs.object}, not {obj}")
        f = self.field
        acc = self.zero_value()
        for server in sorted(rs.members):
            if server not in symbols:
                raise ValueError(f"missing symbol for server {server}")
            sym = symbols[server]
            self._check_value(sym)
            acc = f.vadd(acc, f.vscale(rs.decode_coeffs[server], sym))
        return acc
