from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripods.quadratic import QuadraticNumber, Vec2, sign_root3

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)
qnumbers = st.builds(QuadraticNumber, rationals, rationals)


def test_mul_example():
    x = QuadraticNumber(1, 1)
    assert x * x == QuadraticNumber(4, 2)


def test_sub_self_is_zero():
    x = QuadraticNumber(2, 1)
    assert x - x == QuadraticNumber(0, 0)
    assert not (x - x)


def test_mul_half_by_two_root3():
    assert QuadraticNumber(Fraction(1, 2)) * QuadraticNumber(0, 2) == QuadraticNumber(0, 1)


def test_sign_examples():
    assert QuadraticNumber(2, -1).sign() == 1
    assert QuadraticNumber(-7, 4).sign() == -1  # 4*sqrt(3) = 6.93 < 7
    assert QuadraticNumber(0, 0).sign() == 0
    assert sign_root3(-7, 4) == -1
    assert sign_root3(7, -4) == 1


def test_float_values():
    assert float(QuadraticNumber(2, 1)) == pytest.approx(3.7320508075688772, abs=1e-15)
    assert float(QuadraticNumber(0, 0)) == 0.0
    assert float(QuadraticNumber(Fraction(1, 2), Fraction(1, 2))) == pytest.approx(
        1.3660254037844386, abs=1e-15)


def test_division_and_inverse():
    x = QuadraticNumber(3, 1)
    assert x / x == QuadraticNumber(1)
    y = QuadraticNumber(Fraction(1, 3), Fraction(-2, 7))
    assert (x / y) * y == x


def test_floor():
    assert QuadraticNumber(0, 1).floor() == 1          # sqrt(3) = 1.73
    assert QuadraticNumber(0, -1).floor() == -2
    assert QuadraticNumber(5).floor() == 5
    assert QuadraticNumber(Fraction(-1, 2)).floor() == -1
    assert QuadraticNumber(2, 1).floor() == 3


big = st.integers(min_value=-10**6, max_value=10**6)


@given(big, big, st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_floor_brackets_value(x, y, d):
    q = QuadraticNumber(Fraction(x, d), Fraction(y, d))
    f = q.floor()
    assert QuadraticNumber(f) <= q < QuadraticNumber(f + 1)


def test_floor_huge_magnitude():
    # float(self) overflows here; the floor is exact integer arithmetic
    assert QuadraticNumber(10**400, 1).floor() == 10**400 + 1
    assert QuadraticNumber(-10**400, -1).floor() == -10**400 - 2


def test_representation_unique():
    x = QuadraticNumber(Fraction(5, 6), Fraction(-7, 4))
    y = QuadraticNumber(Fraction(1, 3), Fraction(-2, 7))
    pairs = [((x / y) * y, x),
             (QuadraticNumber(Fraction(2, 4), Fraction(3, 6)),
              QuadraticNumber(Fraction(1, 2), Fraction(1, 2))),
             (x - x, QuadraticNumber(0)),
             (QuadraticNumber(0, 2) * QuadraticNumber(0, Fraction(1, 6)), QuadraticNumber(1))]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
    assert x.rational == Fraction(5, 6) and x.root3 == Fraction(-7, 4)


def test_ordering_near_ties():
    # 433/250 = 1.732 < sqrt(3) < 1.7321 = 17321/10000
    assert QuadraticNumber(Fraction(433, 250)) < QuadraticNumber(0, 1)
    assert QuadraticNumber(0, 1) < QuadraticNumber(Fraction(17321, 10000))


@given(qnumbers, qnumbers, qnumbers)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(qnumbers)
@settings(max_examples=200, deadline=None)
def test_square_nonnegative(a):
    s = (a * a).sign()
    assert s >= 0
    assert (s == 0) == (a == QuadraticNumber(0, 0))


def test_sign_agrees_with_float_outside_rounding_zone():
    import random

    rng = random.Random(12345)
    for _ in range(100_000):
        a = QuadraticNumber(Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                            Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        b = QuadraticNumber(Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                            Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        fd = float(a) - float(b)
        if abs(fd) > 1e-6:
            assert (a - b).sign() == (1 if fd > 0 else -1)


def test_vec2_ops():
    v = Vec2(QuadraticNumber(1), QuadraticNumber(0))
    w = Vec2(QuadraticNumber(0), QuadraticNumber(1))
    assert v.cross(w) == QuadraticNumber(1)
    assert v.dot(w) == QuadraticNumber(0)
    assert (v + w).norm_sq() == QuadraticNumber(2)
    r = v.rotate60()
    assert r.x == QuadraticNumber(Fraction(1, 2))
    assert r.y == QuadraticNumber(0, Fraction(1, 2))
    assert r.rotate_minus60() == v
    assert v.rotate60().norm_sq() == v.norm_sq()


def test_immutability():
    x = QuadraticNumber(1, 2)
    with pytest.raises(AttributeError):
        x.rational = Fraction(3)
    with pytest.raises(AttributeError):
        x._x = 3
