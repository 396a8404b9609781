"""Prime-field arithmetic checks, exhaustive for small fields."""

import time

import pytest

from causalec.field import PrimeField, _is_prime


@pytest.mark.parametrize("p", [3, 7, 31])
def test_inverse_exhaustive(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert a * f.inv(a) % p == 1


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)


@pytest.mark.parametrize("p", [1, 4, 9, 15, 100])
def test_composites_rejected(p):
    with pytest.raises(ValueError):
        PrimeField(p)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_vector_helpers():
    f = PrimeField(7)
    u, v = (1, 2, 3), (6, 5, 4)
    assert f.vadd(u, v) == (0, 0, 0)
    assert f.vsub(u, v) == (2, 4, 6)
    assert f.vscale(3, u) == (3, 6, 2)
    assert f.zero_value(3) == (0, 0, 0)


def test_vector_length_mismatch():
    f = PrimeField(7)
    with pytest.raises(ValueError):
        f.vadd((1, 2), (1, 2, 3))



def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_below_ten_thousand():
    assert [n for n in range(10_000) if _is_prime(n)] == \
        [n for n in range(10_000) if trial_division(n)]


def test_large_mersenne_prime_accepted_quickly():
    t0 = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1.0


# 3215031751 = 151 * 751 * 28351 passes the strong test to bases 2, 3, 5 and 7
@pytest.mark.parametrize("n", [561, 2**61 + 1, 3_215_031_751])
def test_carmichael_and_large_composites_rejected(n):
    with pytest.raises(ValueError):
        PrimeField(n)


def test_prime_beyond_exact_range_rejected():
    with pytest.raises(ValueError, match="below"):
        PrimeField(2**89 - 1)
