"""Cross-object code algebra against independent oracles.

The oracle for encoding is a naive matrix-vector product written separately
from the library path; decode and re-encode are checked against it by brute
force over entire small fields.  The oracle for recovery sets tries every
coefficient vector over every server subset, so it shares no linear algebra
with the library.
"""

import random
from itertools import combinations, product

import pytest

import bundled
from bundled import ALT_COEFFS, FIG1_COEFFS
from causalec.checker import check_all
from causalec.coding import LinearCode, RecoverySet
from causalec.field import PrimeField
from causalec.harness import fuzz_scenario, random_code
from causalec.scenarios import scenario_from_json
from causalec.server import VARIANTS
from causalec.simnet import run

# a 5x3 sample with denser mixing, used alongside the bundled example code
CHAIN_COEFFS = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1], [2, 1, 1]]


def naive_encode(p, coeffs, x):
    """Independent oracle: plain double loop, scalar arithmetic mod p."""
    out = []
    for row in coeffs:
        acc = [0] * len(x[0])
        for c, xv in zip(row, x):
            for i, coord in enumerate(xv):
                acc[i] = (acc[i] + c * coord) % p
        out.append(tuple(acc))
    return out


def code_of(coeffs, p=7, value_len=1):
    return LinearCode(PrimeField(p), coeffs, value_len=value_len)


def wrap(*scalars):
    return [(s,) for s in scalars]


def oracle_recovery(p, coeffs):
    """Brute force over GF(p): ``(minimal, exact)`` for a small code.

    ``exact[S]`` maps each object X to the coefficient vectors, with no zero
    entry, that combine the rows of server tuple S into the unit vector e_X.
    A set recovers X iff some subset of it is in ``exact`` for X, and is
    minimal iff it is and no proper subset is.  ``minimal[X]`` lists the
    minimal sets by size, then lexicographically, each with its decode
    coefficients, which must be unique.
    """
    n, k = len(coeffs), len(coeffs[0])
    units = {tuple(int(i == x) for i in range(k)): x + 1 for x in range(k)}
    exact = {}
    minimal = {x: [] for x in range(1, k + 1)}
    for size in range(1, n + 1):
        for S in combinations(range(1, n + 1), size):
            rows = [coeffs[s - 1] for s in S]
            hits = {}
            for a in product(range(1, p), repeat=size):
                comb = tuple(sum(c * row[i] for c, row in zip(a, rows)) % p
                             for i in range(k))
                if comb in units:
                    hits.setdefault(units[comb], []).append(a)
            exact[S] = hits
            for x, sols in hits.items():
                if not any(x in exact[T] for r in range(1, size)
                           for T in combinations(S, r)):
                    assert len(sols) == 1, (S, x, sols)
                    minimal[x].append((S, dict(zip(S, sols[0]))))
    return minimal, exact


def oracle_recovers(exact, S, x):
    return any(x in exact[T] for r in range(1, len(S) + 1) for T in combinations(S, r))


def random_small_codes(count=50, seed=23):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([3, 5, 7])
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, n))
        yield p, [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(k)]
                  for _ in range(n)]


ORACLE_CODES = ([(7, FIG1_COEFFS), (7, ALT_COEFFS), (7, CHAIN_COEFFS)]
                + list(random_small_codes()))
ORACLE_IDS = ["fig1", "alt", "chain"] + [f"random{i}" for i in range(len(ORACLE_CODES) - 3)]


class TestEncode:
    def test_matches_oracle_exhaustively(self):
        code = code_of(CHAIN_COEFFS)
        for x in product(range(7), repeat=3):
            vals = wrap(*x)
            assert code.encode(vals) == naive_encode(7, CHAIN_COEFFS, vals)

    def test_frozen_examples(self):
        # computed with naive_encode
        assert code_of(CHAIN_COEFFS).encode(wrap(1, 2, 3)) == wrap(1, 2, 3, 6, 0)
        assert code_of(FIG1_COEFFS).encode(wrap(1, 2, 3)) == wrap(1, 2, 6, 3, 3)

    def test_all_zero_input(self):
        code = code_of(CHAIN_COEFFS)
        assert code.encode(wrap(0, 0, 0)) == wrap(0, 0, 0, 0, 0)

    def test_replication_rows_copy_the_value(self):
        code = code_of([[1], [1]], p=11, value_len=2)
        v = (3, 7)
        assert code.encode([v]) == [v, v]

    def test_dimension_mismatch(self):
        code = code_of(CHAIN_COEFFS)
        with pytest.raises(ValueError):
            code.encode(wrap(1, 2))
        with pytest.raises(ValueError):
            code.encode([(1, 1), (2, 2), (3, 3)])


class TestReencode:
    def test_row_with_coefficient_two(self):
        # server 5 of the sample mixes 2*x1, so replacing x1 subtracts twice
        # the old value and adds twice the new one
        code = code_of(CHAIN_COEFFS)
        f = code.field
        for x1, x2, x3, new in product(range(7), repeat=4):
            y5 = code.encode(wrap(x1, x2, x3))[4]
            got = code.reencode(5, 1, y5, (x1,), (new,))
            manual = f.vadd(f.vsub(y5, f.vscale(2, (x1,))), f.vscale(2, (new,)))
            assert got == manual
            assert got == code.encode(wrap(new, x2, x3))[4]

    def test_no_change_when_value_repeats(self):
        code = code_of(CHAIN_COEFFS)
        y = code.encode(wrap(1, 2, 3))[3]
        assert code.reencode(4, 2, y, (2,), (2,)) == y

    def test_against_fresh_encode(self):
        code = code_of(CHAIN_COEFFS)
        y4 = code.encode(wrap(1, 2, 3))[3]
        assert y4 == (6,)
        assert code.reencode(4, 2, y4, (2,), (5,)) == (2,)
        assert code.encode(wrap(1, 5, 3))[3] == (2,)

    def test_three_equivalent_forms(self):
        rng = random.Random(7)
        f = PrimeField(11)
        for _ in range(40):
            coeffs = [[rng.randrange(11) for _ in range(3)] for _ in range(4)]
            code = LinearCode(f, coeffs, value_len=2)
            x = [(rng.randrange(11), rng.randrange(11)) for _ in range(3)]
            i = rng.randint(1, 4)
            k = rng.randint(1, 3)
            new = (rng.randrange(11), rng.randrange(11))
            sym = code.encode(x)[i - 1]
            want = code.encode(x[:k - 1] + [new] + x[k:])[i - 1]
            zero = f.zero_value(2)
            assert code.reencode(i, k, sym, x[k - 1], new) == want
            assert code.reencode(i, k, sym, zero, f.vsub(new, x[k - 1])) == want
            assert code.reencode(i, k, sym, f.vsub(x[k - 1], new), zero) == want


class TestObjectsAt:
    def test_examples(self):
        code = code_of(CHAIN_COEFFS)
        assert code.objects_at(3) == {1, 2}
        assert code.objects_at(5) == {1, 2, 3}
        assert code_of([[0, 0], [1, 1]]).objects_at(1) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            code_of(CHAIN_COEFFS).objects_at(6)


class TestRecoverySets:
    def test_solved_coefficients(self):
        code = code_of(CHAIN_COEFFS)
        rs = code.is_recovery_set({3, 4}, 3)
        assert rs is not None
        # e3 = -1*[1,1,0] + 1*[1,1,1] over GF(7)
        assert rs.decode_coeffs == {3: 6, 4: 1}

    def test_singletons(self):
        code = code_of(FIG1_COEFFS)
        assert code.is_recovery_set({1}, 1).decode_coeffs == {1: 1}
        assert code.is_recovery_set({1}, 2) is None
        # the size-1 prefix of the minimal sets: the servers that decode the
        # object alone, each with coefficient inv(row[obj])
        assert [rs.members for rs in code.minimal_recovery_sets(1)
                if len(rs.members) == 1] == [{1}]
        scaled = code_of([[3, 0], [0, 1], [1, 1]])
        (rs,) = [rs for rs in scaled.minimal_recovery_sets(1) if len(rs.members) == 1]
        assert rs.decode_coeffs == {1: scaled.field.inv(3)}

    def test_minimal_sets_of_bundled_example(self):
        code = code_of(FIG1_COEFFS)
        as_sets = lambda obj: {tuple(sorted(rs.members))
                               for rs in code.minimal_recovery_sets(obj)}
        assert as_sets(1) == {(1,), (2, 4), (2, 3, 5)}
        assert as_sets(2) == {(2,), (1, 4), (1, 3, 5)}
        assert as_sets(3) == {(5,), (3, 4), (1, 2, 3)}
        # {1,3,4} recovers X2 but is not minimal: it strictly contains {1,4}
        assert code.is_recovery_set({1, 3, 4}, 2) is not None

    def test_minimal_sets_of_alternate_code(self):
        code = code_of(ALT_COEFFS)
        as_sets = lambda obj: {tuple(sorted(rs.members))
                               for rs in code.minimal_recovery_sets(obj)}
        assert as_sets(1) == {(1,), (4, 5)}
        assert as_sets(2) == {(2,), (3,)}
        assert as_sets(3) == {(5,), (1, 4)}

    def test_minimal_sets_of_sample(self):
        code = code_of(CHAIN_COEFFS)
        as_sets = lambda obj: {tuple(sorted(rs.members))
                               for rs in code.minimal_recovery_sets(obj)}
        assert as_sets(1) == {(1,), (2, 3), (4, 5)}
        assert as_sets(2) == {(2,), (1, 3), (3, 4, 5)}
        assert as_sets(3) == {(3, 4), (1, 2, 4), (1, 2, 5), (1, 3, 5),
                              (2, 3, 5), (2, 4, 5)}

    def test_dependent_member_gets_zero(self):
        # row 3 = row 1 + row 2, so server 3 is dependent and takes no part
        rs = code_of(CHAIN_COEFFS).is_recovery_set({1, 2, 3}, 1)
        assert rs.decode_coeffs == {1: 1, 2: 0, 3: 0}

    def test_minimal_sets_are_cached(self):
        code = code_of(FIG1_COEFFS)
        assert code.minimal_recovery_sets(2) is code.minimal_recovery_sets(2)
        with pytest.raises(ValueError):
            code.minimal_recovery_sets(4)

    @pytest.mark.parametrize("p,coeffs", ORACLE_CODES, ids=ORACLE_IDS)
    def test_against_brute_force_oracle(self, p, coeffs):
        code = code_of(coeffs, p=p)
        minimal, exact = oracle_recovery(p, coeffs)
        for x in range(1, code.k + 1):
            if not minimal[x]:
                with pytest.raises(ValueError):
                    code.minimal_recovery_sets(x)
                continue
            got = [(tuple(sorted(rs.members)), dict(rs.decode_coeffs))
                   for rs in code.minimal_recovery_sets(x)]
            assert got == minimal[x]
        recoverable = all(minimal[x] for x in minimal)
        if recoverable:
            code.check_recoverable()
        else:
            with pytest.raises(ValueError):
                code.check_recoverable()
        for S in exact:
            for x in range(1, code.k + 1):
                rs = code.is_recovery_set(S, x)
                assert (rs is not None) == oracle_recovers(exact, S, x), (S, x)
                if rs is not None:
                    comb = [sum(rs.decode_coeffs[s] * coeffs[s - 1][i] for s in S) % p
                            for i in range(code.k)]
                    assert comb == [int(i == x - 1) for i in range(code.k)]

    def test_unrecoverable_object(self):
        code = code_of([[1, 0], [1, 0]])
        with pytest.raises(ValueError):
            code.minimal_recovery_sets(2)
        with pytest.raises(ValueError):
            code.check_recoverable()

    def test_antichain_and_supersets(self):
        rng = random.Random(11)
        for _ in range(25):
            n, k = rng.randint(2, 5), rng.randint(1, 3)
            coeffs = [[rng.randrange(7) for _ in range(k)] for _ in range(n)]
            code = code_of(coeffs)
            try:
                code.check_recoverable()
            except ValueError:
                continue
            for obj in range(1, k + 1):
                sets = [rs.members for rs in code.minimal_recovery_sets(obj)]
                for a in sets:
                    for b in sets:
                        assert not (a < b), "minimal sets must form an antichain"
                for rs in sets:
                    for extra in range(1, n + 1):
                        assert code.is_recovery_set(rs | {extra}, obj) is not None


def rank(p, rows):
    """Rank of the non-empty ``rows`` over GF(p) by plain Gauss-Jordan elimination."""
    rows, r = [list(row) for row in rows], 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def lookup_codes():
    """The codes the lookup is held to: fuzz systems 0-99, the bundled
    scenarios, a dense 8/4 GF(257) code, and the 8/4 and 10/5 codes that the
    scale benchmark draws (``random_code`` on ``0x5CA1E + n``)."""
    codes = [fuzz_scenario(i).code for i in range(100)]
    codes += [LinearCode.from_json(bundled.doc(name)["code"]) for name in bundled.NAMES]
    rng = random.Random(257)
    codes.append(code_of([[rng.randint(1, 256) for _ in range(4)] for _ in range(8)], p=257))
    codes += [random_code(random.Random(0x5CA1E + n), n, k) for n, k in ((8, 4), (10, 5))]
    return codes


class TestRecoverySetWithin:
    """``recovery_set_within`` against the listed minimal sets."""

    def test_first_listed_set_inside_every_mask(self):
        # a dependent mask takes the removal path; a one-server mask that
        # recovers is a replication-style reader decoding its own symbol
        seen = {"dependent": 0, "own row": 0}
        rng = random.Random(33)
        for listed in lookup_codes():
            code = LinearCode(listed.field, listed.coeffs)
            masks = list(range(1 << code.n))
            rng.shuffle(masks)  # the memos must not depend on the query order
            for obj in range(1, code.k + 1):
                sets = [(sum(1 << (j - 1) for j in rs.members), rs)
                        for rs in listed.minimal_recovery_sets(obj)]
                for mask in masks:
                    want = next((rs for m, rs in sets if m & mask == m), None)
                    assert code.recovery_set_within(obj, mask) == want, (obj, mask)
                    if want is None:
                        continue
                    servers = [j for j in range(1, code.n + 1) if mask >> (j - 1) & 1]
                    if rank(code.field.p, [code.coeffs[j - 1] for j in servers]) < len(servers):
                        seen["dependent"] += 1
                    if len(servers) == 1:
                        seen["own row"] += 1
        assert seen["dependent"] and seen["own row"], seen

    def test_no_simulated_run_lists_minimal_sets(self, monkeypatch):
        calls = {"listed": 0, "lookups": 0}
        listed, within = LinearCode.minimal_recovery_sets, LinearCode.recovery_set_within

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(LinearCode, "minimal_recovery_sets", counting("listed", listed))
        monkeypatch.setattr(LinearCode, "recovery_set_within", counting("lookups", within))
        scenarios = [(scenario_from_json(bundled.path(name)), seed, protocol)
                     for name in bundled.NAMES for seed in range(3) for protocol in VARIANTS]
        scenarios += [(fuzz_scenario(i), i, protocol) for i in range(20) for protocol in VARIANTS]
        for scenario, seed, protocol in scenarios:
            check_all(run(scenario, seed, protocol=protocol, collect_trace=False, probes=True))
        assert calls["listed"] == 0 and calls["lookups"] > 0, calls


class TestDecode:
    def test_via_pair(self):
        code = code_of(CHAIN_COEFFS)
        rs = code.is_recovery_set({3, 4}, 3)
        assert code.decode(3, rs, {3: (3,), 4: (6,)}) == (3,)

    def test_singleton_returns_symbol(self):
        code = code_of(FIG1_COEFFS)
        rs = code.is_recovery_set({1}, 1)
        assert code.decode(1, rs, {1: (4,)}) == (4,)

    def test_missing_symbol(self):
        code = code_of(CHAIN_COEFFS)
        rs = code.is_recovery_set({3, 4}, 3)
        with pytest.raises(ValueError):
            code.decode(3, rs, {3: (3,)})

    @pytest.mark.parametrize("coeffs", [FIG1_COEFFS, CHAIN_COEFFS, ALT_COEFFS])
    def test_exhaustive_roundtrip(self, coeffs):
        code = code_of(coeffs)
        for x in product(range(7), repeat=3):
            vals = wrap(*x)
            symbols = code.encode(vals)
            for obj in range(1, 4):
                for rs in code.minimal_recovery_sets(obj):
                    got = code.decode(obj, rs, {j: symbols[j - 1] for j in rs.members})
                    assert got == vals[obj - 1]


def scaled_sum(f, terms, length):
    """The composition the one-pass kernels must equal: a ``vscale`` and a
    ``vadd`` per ``(c, v)`` term, each reduced mod p."""
    acc = f.zero_value(length)
    for c, v in terms:
        acc = f.vadd(acc, f.vscale(c, v))
    return acc


# a unit row (singleton decodes), rows holding zero coefficients, an
# all-zero row and a dense row; rows 1, 3 and 4 have rank 3 in each field
KERNEL_COEFFS = [[1, 0, 0], [0, 0, 0], [0, 3, 5], [2, 6, 1], [-1, 1, 0]]


class TestKernelOracle:
    """``encode_one``, ``reencode`` and ``decode`` each reduce mod p once per
    coordinate; they must equal the ``PrimeField`` helper compositions."""

    @staticmethod
    def kernel_case(p, length):
        code = code_of(KERNEL_COEFFS, p=p, value_len=length)
        rng = random.Random(p ^ length)
        return code, code.field, lambda: tuple(rng.randrange(p) for _ in range(length))

    @pytest.mark.parametrize("p", [7, 257, 2**61 - 1])
    @pytest.mark.parametrize("length", [1, 3, 32])
    def test_encode_one(self, p, length):
        code, f, value = self.kernel_case(p, length)
        for _ in range(10):
            x = [value() for _ in range(code.k)]
            for s in range(1, code.n + 1):
                assert code.encode_one(s, x) == scaled_sum(f, zip(code.coeffs[s - 1], x), length)
        assert code.encode_one(2, x) == f.zero_value(length)

    @pytest.mark.parametrize("p", [7, 257, 2**61 - 1])
    @pytest.mark.parametrize("length", [1, 3, 32])
    def test_reencode(self, p, length):
        code, f, value = self.kernel_case(p, length)
        for _ in range(10):
            for s in range(1, code.n + 1):
                for obj in range(1, code.k + 1):
                    sym, old, new = value(), value(), value()
                    c = code.coeffs[s - 1][obj - 1]
                    assert code.reencode(s, obj, sym, old, new) == f.vadd(
                        sym, f.vscale(c, f.vsub(new, old)))

    @pytest.mark.parametrize("p", [7, 257, 2**61 - 1])
    @pytest.mark.parametrize("length", [1, 3, 32])
    def test_decode(self, p, length):
        code, f, value = self.kernel_case(p, length)
        sets = [rs for obj in range(1, code.k + 1) for rs in code.minimal_recovery_sets(obj)]
        assert any(len(rs.members) == 1 for rs in sets)
        # a dependent member gets coefficient 0, and so may any hand-made set
        sets.append(code.is_recovery_set({1, 2, 3, 4, 5}, 2))
        sets.append(RecoverySet(3, frozenset({2, 4, 5}), {2: 0, 4: 0, 5: 0}))
        sets.append(RecoverySet(3, frozenset({1, 3}), {1: 5, 3: 0}))
        for _ in range(5):
            x = [value() for _ in range(code.k)]
            codeword = code.encode(x)
            symbols = {s: value() for s in range(1, code.n + 1)}
            for rs in sets:
                terms = [(rs.decode_coeffs[s], symbols[s]) for s in sorted(rs.members)]
                assert code.decode(rs.object, rs, symbols) == scaled_sum(f, terms, length)
            for rs in sets[:-2]:
                assert code.decode(rs.object, rs, dict(enumerate(codeword, 1))) == x[rs.object - 1]

    def test_wrong_lengths_still_raise(self):
        code = code_of(KERNEL_COEFFS, p=257, value_len=3)
        good, bad = (1, 2, 3), (1, 2)
        with pytest.raises(ValueError, match="^expected 3 object values, got 2$"):
            code.encode_one(1, [good, good])
        # a value under a zero coefficient, and under an all-zero row, is checked too
        for s in (1, 2):
            with pytest.raises(ValueError, match="^value length 2 != configured 3$"):
                code.encode_one(s, [good, good, bad])
        for s in (1, 2):
            for args in ((bad, good, good), (good, bad, good), (good, good, bad)):
                with pytest.raises(ValueError, match="^value length 2 != configured 3$"):
                    code.reencode(s, 1, *args)
        rs = code.is_recovery_set({1, 3}, 1)
        with pytest.raises(ValueError, match="^value length 2 != configured 3$"):
            code.decode(1, rs, {1: good, 3: bad})


class TestJson:
    def test_roundtrip(self):
        doc = {"field_p": 7, "value_len": 2, "coeffs": CHAIN_COEFFS}
        code = LinearCode.from_json(doc)
        assert (code.field.p, code.value_len) == (7, 2)
        assert code.coeffs == tuple(map(tuple, CHAIN_COEFFS))

    def test_missing_coeffs(self):
        with pytest.raises(ValueError, match="coeffs"):
            LinearCode.from_json({"field_p": 7})

    def test_vector_values_encode_coordinatewise(self):
        code = LinearCode.from_json({"field_p": 7, "value_len": 2, "coeffs": [[1, 1]]})
        assert code.encode([(1, 2), (3, 4)]) == [(4, 6)]
