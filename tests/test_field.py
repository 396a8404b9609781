"""Prime-field arithmetic checks, exhaustive for small fields."""

import pytest

from causalec.field import PrimeField


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
    u, v = f.value([1, 2, 3]), f.value([6, 5, 4])
    assert f.vadd(u, v) == (0, 0, 0)
    assert f.vsub(u, v) == (2, 4, 6)
    assert f.vscale(3, u) == (3, 6, 2)
    assert f.zero_value(3) == (0, 0, 0)
    assert f.value([9, -1]) == (2, 6)


def test_vector_length_mismatch():
    f = PrimeField(7)
    with pytest.raises(ValueError):
        f.vadd((1, 2), (1, 2, 3))

