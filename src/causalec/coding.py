"""Cross-object linear codes over GF(p).

A code for K objects on N servers is an N x K coefficient matrix.  Server
``i`` stores ``sum_k coeffs[i][k] * x_k`` (coordinate-wise over value
vectors), so a symbol mixes the values of *different* objects rather than
fragments of one object.  Servers and objects are numbered from 1 in the
public API.  Re-encoding after one object changes is a single scaled update,
``symbol + coeffs[i][k] * (new - old)``.  Every kernel reduces mod p once
per coordinate; encoding and decoding share one, ``_combine``.

Server set S recovers object X when the unit vector ``e_X`` is a combination
``sum a_j row_j`` of S's rows; the ``a_j`` decode X from S's symbols.  All
recovery algebra runs on one kernel, ``_insert``, which adds a row to a
reduced row-echelon basis whose vectors carry, in N extra columns, their
combination over server rows: ``e_X`` is in the span iff the vector pivoted
on column X is ``e_X``, and its extra columns are then the decode coefficients.

A minimal recovery set is linearly independent (a dependent set has a proper
subset with the same span), and over an independent set the combination
giving ``e_X`` is unique, so S is minimal iff no coefficient of it is zero.
A read decodes with ``recovery_set_within``: the first minimal set, by size
then members, inside the servers that answered, found from those servers
alone, with spans and answers memoized on the code.  ``recovered_by``, which
adds rows in a given order, serves the latency analysis and
``check_recoverable``.  ``minimal_recovery_sets`` lists every minimal set by
one depth-first search; no run calls it, and the tests hold the lookup to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .field import PrimeField, Value

# pivot column -> basis vector: K coefficient columns, then N columns giving
# the vector as a combination of server rows
Basis = Dict[int, List[int]]


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
        """A bad argument raises ValueError whose message starts with its name."""
        if not (isinstance(coeffs, (list, tuple)) and coeffs and all(
                isinstance(row, (list, tuple)) and row and len(row) == len(coeffs[0])
                for row in coeffs)):
            raise ValueError("coeffs: must be a non-empty list of equal-length non-empty lists")
        for i, row in enumerate(coeffs):
            for j, c in enumerate(row):
                if type(c) is not int:
                    raise ValueError(f"coeffs[{i}][{j}]: must be an integer, got {c!r}")
        if type(value_len) is not int or value_len < 1:
            raise ValueError(f"value_len: must be an integer >= 1, got {value_len!r}")
        self.field = field
        self.value_len = value_len
        self.n = len(coeffs)
        self.k = len(coeffs[0])
        self.coeffs = tuple(tuple(c % field.p for c in row) for row in coeffs)
        self._minimal: Optional[Tuple[Tuple[RecoverySet, ...], ...]] = None
        # memos keyed by server bitmask (bit i-1 for server i): per mask its
        # rows' span and whether they are independent (``_mask_span``), and
        # per (object, mask) the answer of ``recovery_set_within``
        self._spans: Dict[int, Tuple[Basis, bool]] = {0: ({}, True)}
        self._within: Dict[Tuple[int, int], Optional[RecoverySet]] = {}
        # placement, in index order: per server its objects, per object its holders
        self.held = tuple(tuple(j + 1 for j, c in enumerate(row) if c) for row in self.coeffs)
        self.holders = tuple(tuple(i + 1 for i, row in enumerate(self.coeffs) if row[x])
                             for x in range(self.k))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "LinearCode":
        """Build from ``{"field_p": 7, "value_len": 1, "coeffs": [[...], ...]}``.

        A bad field raises ValueError whose message starts with its name.
        """
        if "coeffs" not in doc:
            raise ValueError("coeffs: missing required field")
        try:
            field = PrimeField(doc.get("field_p", 257))
        except ValueError as e:
            raise ValueError(f"field_p: {e}") from e
        return cls(field, doc["coeffs"], value_len=doc.get("value_len", 1))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, p={self.field.p}, L={self.value_len})"

    # -- encoding ----------------------------------------------------------

    def zero_value(self) -> Value:
        return self.field.zero_value(self.value_len)

    def _check_value(self, v: Value) -> None:
        if len(v) != self.value_len:
            raise ValueError(f"value length {len(v)} != configured {self.value_len}")

    def _combine(self, terms: Iterable[Tuple[int, Value]]) -> Value:
        """``sum c * v`` over the ``(c, v)`` terms, coordinate-wise: the
        products are summed unreduced and reduced mod p once at the end."""
        acc = [0] * self.value_len
        for c, v in terms:
            acc = [a + c * b for a, b in zip(acc, v)]
        p = self.field.p
        return tuple([a % p for a in acc])

    def encode_one(self, server: int, x: Sequence[Value]) -> Value:
        """Symbol of one server for the full object vector ``x``."""
        if len(x) != self.k:
            raise ValueError(f"expected {self.k} object values, got {len(x)}")
        for xv in x:
            self._check_value(xv)
        return self._combine([(c, xv) for c, xv in zip(self.coeffs[server - 1], x) if c])

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
        p = self.field.p
        return tuple([(s + c * (b - a)) % p for s, a, b in zip(symbol, old_xk, new_xk)])

    # -- recovery ----------------------------------------------------------

    def objects_at(self, server: int) -> FrozenSet[int]:
        """Objects whose value affects this server's symbol."""
        if not 1 <= server <= self.n:
            raise ValueError(f"server index {server} out of range 1..{self.n}")
        return frozenset(self.held[server - 1])

    def _insert(self, basis: Basis, server: int) -> Optional[Basis]:
        """``basis`` with ``server``'s row added, or None if the row is in its span.

        The reduced row is scaled to 1 at its first nonzero column, which is
        then cleared from the other vectors, so each is 0 at the others' pivots.
        """
        p, k = self.field.p, self.k
        v = [*self.coeffs[server - 1], *([0] * self.n)]
        v[k + server - 1] = 1
        for piv, b in basis.items():
            f = v[piv]
            if f:
                v = [(a - f * c) % p for a, c in zip(v, b)]
        piv = next((i for i in range(k) if v[i]), None)
        if piv is None:
            return None
        inv = self.field.inv(v[piv])
        v = [a * inv % p for a in v]
        out = {bp: [(a - b[piv] * c) % p for a, c in zip(b, v)] if b[piv] else b
               for bp, b in basis.items()}
        out[piv] = v
        return out

    def _decoder(self, basis: Basis, obj: int) -> Optional[List[int]]:
        """Per-server coefficients (N of them) combining the basis to e_obj, or None."""
        v = basis.get(obj - 1)
        if v is None or any(v[i] for i in range(self.k) if i != obj - 1):
            return None
        return v[self.k:]

    def _mask_span(self, mask: int) -> Tuple[Basis, bool]:
        """The span of the rows of the servers in ``mask``, added in ascending
        order, and whether those rows are independent: one ``_insert`` of the
        highest server into the memoized span of the others."""
        got = self._spans.get(mask)
        if got is None:
            top = mask.bit_length()
            basis, independent = self._mask_span(mask ^ (1 << (top - 1)))
            grown = self._insert(basis, top)
            got = (basis, False) if grown is None else (grown, independent)
            self._spans[mask] = got
        return got

    def is_recovery_set(self, servers, obj: int) -> Optional[RecoverySet]:
        """RecoverySet with decode coefficients iff ``servers`` suffice for ``obj``;
        a member whose row depends on lower-numbered members gets coefficient 0."""
        members = sorted(set(servers))
        if any(not 1 <= s <= self.n for s in members):
            raise ValueError(f"server indices {members} out of range 1..{self.n}")
        if not 1 <= obj <= self.k:
            raise ValueError(f"object index {obj} out of range 1..{self.k}")
        a = self._decoder(self._mask_span(sum(1 << (s - 1) for s in members))[0], obj)
        if a is None:
            return None
        return RecoverySet(object=obj, members=frozenset(members),
                           decode_coeffs={s: a[s - 1] for s in members})

    def recovery_set_within(self, obj: int, mask: int) -> Optional[RecoverySet]:
        """The first of ``minimal_recovery_sets(obj)`` whose members are all in
        ``mask`` (bit i-1 for server i), or None if no such set exists.

        Over independent rows the combination giving ``e_X`` is unique, so
        its support is the only minimal set inside.  Over dependent rows
        every minimal set inside, being independent, misses some member, so
        the answer is the least of those for ``mask`` less one server.
        """
        key = (obj, mask)
        if key in self._within:
            return self._within[key]
        basis, independent = self._mask_span(mask)
        a = self._decoder(basis, obj)
        if a is None:
            rs = None
        elif independent:
            members = [j for j in range(1, self.n + 1) if a[j - 1]]
            rs = RecoverySet(object=obj, members=frozenset(members),
                             decode_coeffs={j: a[j - 1] for j in members})
        else:
            subs = (self.recovery_set_within(obj, mask ^ (1 << i))
                    for i in range(mask.bit_length()) if mask >> i & 1)
            rs = min((r for r in subs if r is not None),
                     key=lambda r: (len(r.members), sorted(r.members)))
        self._within[key] = rs
        return rs

    def recovered_by(self, order: Iterable[int]) -> List[Optional[int]]:
        """Per object X, the server of ``order`` whose row brings ``e_X`` into
        the span of the rows added in that order, or None if none does."""
        found: List[Optional[int]] = [None] * self.k
        basis: Basis = {}
        for s in order:
            grown = self._insert(basis, s)
            if grown is None:
                continue
            basis = grown
            for x in range(1, self.k + 1):
                if found[x - 1] is None and self._decoder(basis, x) is not None:
                    found[x - 1] = s
            if len(basis) == self.k:
                break
        return found

    def minimal_recovery_sets(self, obj: int) -> Tuple[RecoverySet, ...]:
        """All inclusion-minimal recovery sets for ``obj``, by size then members.

        One search finds every object's sets and caches them.  Raises if the
        object is unrecoverable.
        """
        if not 1 <= obj <= self.k:
            raise ValueError(f"object index {obj} out of range 1..{self.k}")
        if self._minimal is None:
            self._minimal = self._enumerate_minimal()
        if not self._minimal[obj - 1]:
            raise ValueError(f"object {obj} is not recoverable under this code")
        return self._minimal[obj - 1]

    def _enumerate_minimal(self) -> Tuple[Tuple[RecoverySet, ...], ...]:
        found: List[list] = [[] for _ in range(self.k)]  # per object: (members, decoder)
        stack: List[Tuple[Tuple[int, ...], Basis]] = [((), {})]
        while stack:
            members, basis = stack.pop()
            for s in range(members[-1] + 1 if members else 1, self.n + 1):
                grown = self._insert(basis, s)
                if grown is None:
                    continue
                ms = members + (s,)
                for x in range(1, self.k + 1):
                    a = self._decoder(grown, x)
                    if a is not None and all(a[j - 1] for j in ms):
                        found[x - 1].append((ms, a))
                if len(grown) < self.k:
                    stack.append((ms, grown))
        return tuple(
            tuple(RecoverySet(object=x, members=frozenset(ms),
                              decode_coeffs={j: a[j - 1] for j in ms})
                  for ms, a in sorted(sets, key=lambda e: (len(e[0]), e[0])))
            for x, sets in enumerate(found, start=1))

    def check_recoverable(self) -> None:
        """Raise unless the rows have rank K, so every object is recoverable."""
        found = self.recovered_by(range(1, self.n + 1))
        if None in found:
            raise ValueError(f"object {found.index(None) + 1} cannot be recovered "
                             "from any server set")

    def decode(self, obj: int, rs: RecoverySet, symbols: Mapping[int, Value]) -> Value:
        """Combine symbols of a recovery set into the object value."""
        if rs.object != obj:
            raise ValueError(f"recovery set is for object {rs.object}, not {obj}")
        terms = []
        for server in sorted(rs.members):
            if server not in symbols:
                raise ValueError(f"missing symbol for server {server}")
            sym = symbols[server]
            self._check_value(sym)
            terms.append((rs.decode_coeffs[server], sym))
        return self._combine(terms)
