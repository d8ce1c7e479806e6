import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wreathq.cyclotomic import (
    MAX_CYCLOTOMIC_ORDER, Scalar, _power_table, cyclotomic_polynomial, euler_phi,
    format_scalar, parse_scalar,
)
from wreathq.errors import FormatError, OrderMismatchError, ResourceLimitError


KNOWN_PHI = {
    1: (-1, 1),          # x - 1
    2: (1, 1),           # x + 1
    3: (1, 1, 1),        # x^2 + x + 1
    4: (1, 0, 1),        # x^2 + 1
    6: (1, -1, 1),       # x^2 - x + 1
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials(m, coeffs):
    assert cyclotomic_polynomial(m) == tuple(Fraction(c) for c in coeffs)
    assert all(type(c) is int for c in cyclotomic_polynomial(m))


def test_cyclotomic_order_is_capped():
    t0 = time.perf_counter()
    for m in (MAX_CYCLOTOMIC_ORDER + 1, 10 ** 6):
        with pytest.raises(ResourceLimitError):
            cyclotomic_polynomial(m)
        with pytest.raises(ResourceLimitError):
            Scalar.one(m)
    assert time.perf_counter() - t0 < 0.1
    assert euler_phi(MAX_CYCLOTOMIC_ORDER) == 32


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 5, 6)] == [1, 1, 2, 2, 4, 2]


def test_zeta_powers_reduce():
    z = Scalar.zeta(4)
    assert z * z == Scalar.rational(-1, 4)
    assert z * z * z * z == Scalar.one(4)
    # zeta_3^2 = -1 - zeta_3
    z3 = Scalar.zeta(3)
    assert z3 * z3 == Scalar((-1, -1), 3)
    # primitive roots multiply to 1 around the circle
    z6 = Scalar.zeta(6)
    assert z6 * z6 * z6 * z6 * z6 * z6 == Scalar.one(6)


def _random_scalar(rng, m):
    phi = euler_phi(m)
    return Scalar(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)), m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_field_axioms(m):
    rng = random.Random(100 + m)
    one = Scalar.one(m)
    for _ in range(25):
        x, y, z = (_random_scalar(rng, m) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        if x:
            assert x * x.inverse() == one


def test_scalar_has_no_division_or_power_operator():
    x = Scalar.zeta(3)
    for op in (lambda: x / x, lambda: 1 / x, lambda: x ** 2):
        with pytest.raises(TypeError):
            op()


def test_inverse_of_zeta4():
    z = Scalar.zeta(4)
    assert z.inverse() == -z
    assert z * (-z) == Scalar.one(4)


def test_order_mixing_is_an_error():
    with pytest.raises(OrderMismatchError):
        Scalar.one(3) + Scalar.one(4)
    # an int or a Fraction is not silently moved into the field either
    with pytest.raises(TypeError):
        Scalar.one(4) + 1
    with pytest.raises(TypeError):
        Fraction(1, 2) * Scalar.rational(2, 3)


@pytest.mark.parametrize("text,order", [
    ("1/2 + 3*z^2", 4),
    ("-1*z^2 + 5", 3),
    ("z", 6),
    ("0", 1),
    ("-7/3", 1),
    ("2*z^3 - 1/5", 5),
])
def test_parse_format_round_trip(text, order):
    x = parse_scalar(text, order)
    assert parse_scalar(format_scalar(x), order) == x


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_format_is_canonical(m):
    rng = random.Random(7 * m + 1)
    for _ in range(20):
        x = _random_scalar(rng, m)
        assert parse_scalar(format_scalar(x), m) == x


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_scalar("", 1)
    with pytest.raises(FormatError):
        parse_scalar("1 ** 2", 1)
    with pytest.raises(FormatError):
        parse_scalar("z", 1)  # no zeta at order 1
    with pytest.raises(FormatError):
        parse_scalar("1/0", 1)


def test_high_zeta_power_in_text():
    # z^5 at order 4 wraps to z
    assert parse_scalar("z^5", 4) == Scalar.zeta(4)


# ---------------------------------------------------------------------------
# Property tests against a reference: Fraction polynomials reduced mod Phi_m
# ---------------------------------------------------------------------------

REF_PHI = {**KNOWN_PHI, 5: (1, 1, 1, 1, 1), 8: (1, 0, 0, 0, 1),
           7: (1, 1, 1, 1, 1, 1, 1),          # x^6 + ... + x + 1
           9: (1, 0, 0, 1, 0, 0, 1),          # x^6 + x^3 + 1
           15: (1, -1, 0, 1, -1, 1, 0, -1, 1)}  # x^8 - x^7 + x^5 - x^4 + x^3 - x + 1
ORDERS = (1, 2, 3, 4, 5, 8, 12)


def ref_remainder(poly, mod):
    """Remainder of a polynomial (low degree first) by the monic ``mod``, by long division."""
    phi = len(mod) - 1
    out = list(poly) + [0] * max(0, phi - len(poly))
    for k in range(len(out) - 1, phi - 1, -1):
        top = out[k]
        if top:
            for t, c in enumerate(mod):
                out[k - phi + t] -= top * c
    return tuple(out[:phi])


def ref_reduce(poly, m):
    """Remainder of a Fraction polynomial (low degree first) mod Phi_m."""
    return ref_remainder(poly, REF_PHI[m])


def ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            prod[s + t] += x * y
    return ref_reduce(prod, m)


def ref_one(m):
    return (Fraction(1),) + (Fraction(0),) * (len(REF_PHI[m]) - 2)


def ref_inverse(a, m):
    """Solve a * v = 1 with the multiplication-by-a matrix (Gauss-Jordan)."""
    phi = len(a)
    cols = [ref_mul(a, tuple(Fraction(int(i == k)) for i in range(phi)), m)
            for k in range(phi)]
    rows = [[cols[k][i] for k in range(phi)] + [ref_one(m)[i]] for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(phi):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[-1] for row in rows)


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.num)
    assert len(x.num) == euler_phi(x.order)
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def agrees(x, ref):
    assert_canonical(x)
    return x.coeffs == ref


coefficient = (st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
               | st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)))


@st.composite
def elements(draw, count):
    """An order from ORDERS and ``count`` coefficient tuples at that order."""
    m = draw(st.sampled_from(ORDERS))
    phi = euler_phi(m)
    return (m,) + tuple(tuple(draw(coefficient) for _ in range(phi)) for _ in range(count))


PROPS = settings(max_examples=60, deadline=None)


@PROPS
@given(elements(2))
def test_ring_operations_agree_with_reference(case):
    m, a, b = case
    x, y = Scalar(a, m), Scalar(b, m)
    assert agrees(x, a) and agrees(y, b)
    assert agrees(x + y, tuple(p + q for p, q in zip(a, b)))
    assert agrees(x - y, tuple(p - q for p, q in zip(a, b)))
    assert agrees(-x, tuple(-p for p in a))
    assert agrees(x * y, ref_mul(a, b, m))


@PROPS
@given(elements(2))
def test_inverse_and_quotient_agree_with_reference(case):
    m, a, b = case
    x, y = Scalar(a, m), Scalar(b, m)
    if y:
        assert agrees(y.inverse(), ref_inverse(b, m))
        assert agrees(x * y.inverse(), ref_mul(a, ref_inverse(b, m), m))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@PROPS
@given(elements(2))
def test_conjugate_is_the_automorphism_inverting_zeta(case):
    m, a, b = case
    x, y = Scalar(a, m), Scalar(b, m)
    cx, cy = x.conjugate(), y.conjugate()
    # sum a_i zeta^i goes to sum a_i zeta^-i
    ref = sum((Scalar.zeta(m, -i) * Scalar.rational(c, m) for i, c in enumerate(a)),
              Scalar.zero(m))
    assert agrees(cx, ref.coeffs)
    assert cx.conjugate() == x
    assert (x + y).conjugate() == cx + cy and (x * y).conjugate() == cx * cy
    assert (x * cx).conjugate() == x * cx


@PROPS
@given(elements(3))
def test_equal_values_are_equal_and_hash_alike(case):
    m, a, b, c = case
    x, y, z = (Scalar(t, m) for t in (a, b, c))
    routes = [
        ((x + y) - y, x),
        (x * y, y * x),
        ((x * y) * z, x * (y * z)),
        (x * (y + z), x * y + x * z),
        (x - x, Scalar.zero(m)),
        (x * Scalar.zero(m), Scalar.zero(m)),
        (Scalar([q.numerator if q.denominator == 1 else q for q in a], m), x),
        (Scalar(x.coeffs, m), x),
        (-(-x), x),
    ]
    if x:
        routes.append((x * x.inverse(), Scalar.one(m)))
        routes.append(((y * x.inverse()) * x, y))
    for u, v in routes:
        assert_canonical(u)
        assert u == v and hash(u) == hash(v)


# the orders of the refusal properties: Q, and phi(m) = 2, 2 and 4 coefficients
REFUSAL_ORDERS = st.sampled_from((1, 3, 4, 5))
NOT_RATIONAL = (st.floats(allow_nan=False) | st.text(max_size=4) | st.booleans()
                | st.decimals(allow_nan=False, allow_infinity=False))


@st.composite
def refusal_elements(draw):
    m = draw(REFUSAL_ORDERS)
    return Scalar(tuple(draw(coefficient) for _ in range(euler_phi(m))), m)


@PROPS
@given(refusal_elements(),
       st.integers(-50, 50) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
       | NOT_RATIONAL)
def test_mixing_with_another_type_is_refused(x, other):
    for op in (operator.add, operator.sub, operator.mul, operator.eq, operator.ne):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(OrderMismatchError):
            op(x, Scalar.one(4 if x.order == 3 else 3))


@PROPS
@given(REFUSAL_ORDERS, st.data(), NOT_RATIONAL)
def test_only_ints_and_fractions_build_a_scalar(m, data, bad):
    a = tuple(data.draw(coefficient) for _ in range(euler_phi(m)))
    with pytest.raises(TypeError):
        Scalar.rational(bad, m)
    k = data.draw(st.integers(0, len(a) - 1))
    with pytest.raises(TypeError):
        Scalar(a[:k] + (bad,) + a[k + 1:], m)
    # equal Scalars hash alike, whether ints or Fractions built them
    ints = tuple(q.numerator if q.denominator == 1 else q for q in a)
    x, y = Scalar(a, m), Scalar(ints, m)
    assert x == y and hash(x) == hash(y) and {x} & {y}
    u, v = Scalar.rational(a[0], m), Scalar.rational(ints[0], m)
    assert u == v and hash(u) == hash(v)


def test_repr_is_not_a_constructor_call():
    assert repr(Scalar.rational(Fraction(1, 2))) == "<Scalar 1/2, order 1>"
    assert repr(Scalar.zeta(3)) == "<Scalar z, order 3>"


@PROPS
@given(elements(1))
def test_text_round_trip(case):
    m, a = case
    x = Scalar(a, m)
    assert parse_scalar(format_scalar(x), m) == x


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((7, 9, 15)), st.data())
def test_inverse_agrees_with_reference_at_larger_phi(m, data):
    # phi(7) = phi(9) = 6 and phi(15) = 8: the Galois norm multiplies 5 or 7 conjugates
    a = tuple(data.draw(coefficient) for _ in range(euler_phi(m)))
    x = Scalar(a, m)
    if x:
        assert agrees(x.inverse(), ref_inverse(a, m))


@pytest.mark.parametrize("m", [60, 120])
def test_inverse_at_the_largest_orders(m):
    rng = random.Random(m)
    phi = euler_phi(m)
    for _ in range(4):
        x = Scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)], m)
        y = x.inverse()
        assert_canonical(y)
        assert x * y == Scalar.one(m)
    z = Scalar.zeta(m, 7) + Scalar.rational(Fraction(10 ** 20, 3), m)
    assert_canonical(z.inverse())
    assert z * z.inverse() == Scalar.one(m)


def test_power_table_rows_are_reduced_powers_of_zeta():
    for m in range(1, MAX_CYCLOTOMIC_ORDER + 1):
        table = _power_table(m)
        mod = cyclotomic_polynomial(m)
        assert len(table) == m
        for e, row in enumerate(table):
            assert row == ref_remainder([0] * e + [1], mod), (m, e)
            assert Scalar.zeta(m, e).num == row and Scalar.zeta(m, e + m) == Scalar.zeta(m, e)


def test_rational_inverse_keeps_the_denominator_positive():
    x = Scalar.rational(Fraction(-6, 35), 3).inverse()
    assert (x.num, x.den) == ((-35, 0), 6)
    assert (Scalar.zero(4).num, Scalar.zero(4).den) == ((0, 0), 1)


def test_an_irrational_inverse_calls_inverse_once(monkeypatch):
    # the rational Galois norm is inverted in place, not by a second inverse()
    calls = []
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda x: calls.append(x) or inverse(x))
    x = Scalar.one(5) + Scalar.zeta(5) * Scalar.rational(3, 5)
    assert x * x.inverse() == Scalar.one(5)
    assert calls == [x]
