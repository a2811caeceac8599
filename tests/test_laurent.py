from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wsep.laurent import Laurent, ONE, Q, Q_INV, ZERO
from wsep.quantum import NCPoly

laurents = st.builds(
    Laurent,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)


def test_zero_coefficients_dropped():
    assert Laurent({0: 0, 2: 1}) == Laurent({2: 1})
    assert not Laurent({3: 0})


def test_pairs_add_up():
    assert Laurent([(0, 1), (1, -1), (0, 2)]) == Laurent({0: 3, 1: -1})
    assert Laurent([(2, 1), (2, -1)]) == Laurent() == Laurent({}) == Laurent([]) == ZERO
    assert Laurent.term(0, 5) == ZERO and Laurent.term(-2, 3) == Laurent({3: -2})


@pytest.mark.parametrize(
    "coeffs",
    [{0: 1.5}, {0.5: 1}, {0: 2.0}, {0: True}, {True: 1}, {0: Fraction(1)}, [(0, 1.5)]],
)
def test_non_int_terms_rejected(coeffs):
    with pytest.raises(ValueError, match="must be ints"):
        Laurent(coeffs)


@pytest.mark.parametrize("coeffs", [3, 0, False, 1.5, "ab", [1, 2], [(1,)], [(0, 1, 2)]])
def test_non_maps_rejected(coeffs):
    with pytest.raises(ValueError, match="not a map of exponents to coefficients"):
        Laurent(coeffs)


def test_term_checks_its_arguments():
    for args in ((1.5,), (1, 0.5), (0.0,), (True, 1)):
        with pytest.raises(ValueError, match="must be ints"):
            Laurent.term(*args)


def test_float_coefficient_never_reaches_an_ncpoly():
    # this used to square to 2.25 * x[1,1] x[1,1]
    with pytest.raises(ValueError, match="got 1.5 at q\\^0"):
        NCPoly(2, 2, {((1, 1),): Laurent({0: 1.5})})


def test_basic_identities():
    assert Q * Q_INV == ONE
    assert (Q - Q_INV) * (Q + Q_INV) == Laurent({2: 1, -2: -1})
    assert ONE + (-ONE) == ZERO


@given(laurents, laurents, laurents)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(laurents, st.integers(-5, 5))
def test_shift_is_multiplication_by_power(a, d):
    p = Laurent({d: 1})
    assert a.shift(d) == a * p
    assert a.shift(d).shift(-d) == a


@given(laurents, laurents)
def test_at_one_is_ring_morphism(a, b):
    assert (a * b).at_one() == a.at_one() * b.at_one()
    assert (a + b).at_one() == a.at_one() + b.at_one()


def test_str_format():
    assert str(Laurent({2: 1, 0: -1, -2: 1})) == "q^2 - 1 + q^-2"
    assert str(ZERO) == "0"
    assert str(Laurent({1: -3})) == "-3q"
