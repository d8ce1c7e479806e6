"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a polynomial in zeta_m of degree below phi(m), reduced modulo
the m-th cyclotomic polynomial Phi_m, and stored as a tuple of integer
numerators over one positive common denominator, in lowest terms (the
standard representation of number-field elements; Cohen, GTM 138,
section 4.2.2).  Phi_m is monic with integer coefficients, so products
reduce without leaving the integers and only the denominators multiply;
one cached table of the powers zeta^e (e < m), reduced mod Phi_m, serves
products, ``Scalar.zeta`` and the Galois conjugates.  An irrational x is
inverted through its Galois norm: with sigma_k(zeta) = zeta^k,
y = prod sigma_k(x) over the units k != 1 mod m makes N(x) = x * y
rational, and x^-1 = y / N(x) (Cohen, GTM 138, section 4.3), so inversion
uses the same integer products and no polynomial arithmetic over Q.  For
m = 1 and m = 2, phi(m) = 1 and a scalar is a single rational.  No
floating point is used anywhere: a scalar is built only from ints and
Fractions, and combines and compares only with other scalars.

Orders above ``MAX_CYCLOTOMIC_ORDER`` are refused with
:class:`ResourceLimitError` before Phi_m is built.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FormatError, OrderMismatchError, ResourceLimitError

# Desk-scale cap.  Phi_m itself is cheap (Phi_120 builds in ~2 ms on a
# Xeon VM under Python 3.11), but a product costs phi(m)^2 integer
# multiplications and Phi_m grows with m; the fields the paper's wreath
# products need are far smaller than this.
MAX_CYCLOTOMIC_ORDER = 120


def _poly_divmod(num: list, den: list):
    """Quotient and remainder (as long as ``num``) of integer polynomials by
    a monic ``den``, coefficients low-degree first."""
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        coeff = num[k + len(den) - 1]
        if coeff:
            q[k] = coeff
            for t, d in enumerate(den):
                num[k + t] -= coeff * d
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (low-degree first, monic) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    if m > MAX_CYCLOTOMIC_ORDER:
        raise ResourceLimitError(
            f"cyclotomic order {m} exceeds the limit of {MAX_CYCLOTOMIC_ORDER}")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            if any(r):
                raise AssertionError("cyclotomic division must be exact")
            num = q
    return tuple(num)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta^e reduced mod Phi_m for e = 0 .. m - 1, as integer rows of length phi(m)."""
    phi_m = cyclotomic_polynomial(m)
    cur = (1,) + (0,) * (len(phi_m) - 2)
    rows = []
    for _ in range(m):
        rows.append(cur)
        # times zeta; zeta^phi = -(the low part of Phi_m)
        top = cur[-1]
        cur = (0,) + cur[:-1]
        if top:
            cur = tuple(x - top * c for x, c in zip(cur, phi_m))
    return tuple(rows)


@lru_cache(maxsize=None)
def _high_power_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows zeta^k of the power table for k = phi(m) .. 2*phi(m) - 2,
    each as its nonzero (index, integer coefficient) pairs."""
    rows = _power_table(m)
    phi = len(rows[0])
    return tuple(tuple((t, c) for t, c in enumerate(rows[k % m]) if c)
                 for k in range(phi, 2 * phi - 1))


_new = object.__new__


def _mk(num: tuple, den: int, order: int) -> "Scalar":
    """Wrap numerators and a denominator that are already in lowest terms."""
    s = _new(Scalar)
    s.num = num
    s.den = den
    s.order = order
    return s


def _reduced(num, den: int, order: int) -> "Scalar":
    """Scale ``num / den`` (den > 0) to lowest terms and wrap it."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _mk(tuple(num), den, order)


def _rational_inverse(x: "Scalar") -> "Scalar":
    """1/x for a nonzero rational x: its one numerator and its denominator swap."""
    n, den = x.num[0], x.den
    if n < 0:
        n, den = -n, -den
    return _mk((den,) + x.num[1:], n, x.order)


def _galois(x: "Scalar", k: int) -> "Scalar":
    """sigma_k(x) for k prime to the order m: zeta^i -> zeta^(k i).  It
    permutes Z[zeta], so the numerators keep their gcd with the
    denominator and stay in lowest terms."""
    m = x.order
    rows = _power_table(m)
    out = [0] * len(x.num)
    for i, a in enumerate(x.num):
        if a:
            for t, c in enumerate(rows[k * i % m]):
                if c:
                    out[t] += a * c
    return _mk(tuple(out), x.den, m)


def _fraction(x) -> Fraction:
    """An int or a Fraction as a Fraction; no other type is a rational here."""
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"a rational must be an int or a Fraction, not {x!r}")
    return Fraction(x)


def _mismatch(a: int, b: int) -> OrderMismatchError:
    return OrderMismatchError(f"cannot mix cyclotomic orders {a} and {b}")


class Scalar:
    """An element of Q(zeta_m), reduced mod the m-th cyclotomic polynomial.

    ``num`` holds phi(m) integer numerators and ``den`` their positive
    common denominator, with ``gcd(den, *num) == 1``; zero is
    ``(0, ..., 0) / 1``.  That form is unique, so ``==`` and ``hash``
    compare it directly.  Scalars are immutable by convention: nothing
    assigns to them after construction.

    ``+``, ``-``, ``*`` and ``==`` take only another ``Scalar``: any
    other operand, a plain ``int`` or ``Fraction`` included, raises
    ``TypeError`` on either side, so a rational enters the field only
    through ``Scalar.rational`` or the constructor, and both take only
    ``int`` and ``Fraction`` values.  Subtraction is addition of the
    negation.  There is no ``/`` or ``**``: division is a product with
    ``inverse()``.  Combining scalars of different orders raises
    :class:`OrderMismatchError` (no implicit field embeddings).
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, coeffs, order: int = 1):
        phi = euler_phi(order)
        c = [_fraction(x) for x in coeffs]
        if len(c) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(c)}")
        den = lcm(*(x.denominator for x in c))
        # each Fraction is in lowest terms, so over the lcm of their
        # denominators the numerators already share no factor with it
        self.num = tuple(x.numerator * (den // x.denominator) for x in c)
        self.den = den
        self.order = order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta, ..., zeta^(phi-1) as Fractions."""
        d = self.den
        return tuple(Fraction(x, d) for x in self.num)

    # -- constructors ------------------------------------------------
    @staticmethod
    def zero(order: int = 1) -> "Scalar":
        return _cached_const(order, 0)

    @staticmethod
    def one(order: int = 1) -> "Scalar":
        return _cached_const(order, 1)

    @staticmethod
    def rational(value, order: int = 1) -> "Scalar":
        if type(value) is int:
            num, den = value, 1
        else:
            q = _fraction(value)
            num, den = q.numerator, q.denominator
        return _mk((num,) + (0,) * (euler_phi(order) - 1), den, order)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Scalar":
        """zeta_m^power as a reduced scalar."""
        return _mk(_power_table(order)[power % order], 1, order)

    # -- predicates --------------------------------------------------
    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- arithmetic --------------------------------------------------
    def __add__(self, o):
        if type(o) is not Scalar:
            return NotImplemented
        if o.order != self.order:
            raise _mismatch(self.order, o.order)
        da, db = self.den, o.den
        if da == db:
            return _reduced([x + y for x, y in zip(self.num, o.num)], da, self.order)
        # over the lcm only the primes of gcd(da, db) can cancel (Knuth,
        # TAOCP 4.5.1), so the lowest-terms factor divides g
        g = gcd(da, db)
        fa, fb = db // g, da // g
        num = [x * fa + y * fb for x, y in zip(self.num, o.num)]
        if g != 1:
            g = gcd(g, *num)
            if g != 1:
                return _mk(tuple(x // g for x in num), da * fa // g, self.order)
        return _mk(tuple(num), da * fa, self.order)

    __radd__ = __add__    # always NotImplemented; perfbench/spans.py wraps it

    def __neg__(self):
        return _mk(tuple(-x for x in self.num), self.den, self.order)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, o):
        if type(o) is not Scalar:
            return NotImplemented
        if o.order != self.order:
            raise _mismatch(self.order, o.order)
        a, b = self.num, o.num
        den = self.den * o.den
        phi = len(a)
        if phi == 1:
            n = a[0] * b[0]
            if den != 1:
                g = gcd(n, den)
                if g != 1:
                    return _mk((n // g,), den // g, self.order)
            return _mk((n,), den, self.order)
        # most factors in the pipeline are rational even over Q(zeta_m)
        if not any(b[1:]):
            y = b[0]
            out = [x * y for x in a]
        elif not any(a[1:]):
            x = a[0]
            out = [x * y for y in b]
        else:
            prod = [0] * (2 * phi - 1)
            for s, x in enumerate(a):
                if x:
                    for t, y in enumerate(b, s):
                        prod[t] += x * y
            out = prod[:phi]
            for top, row in zip(prod[phi:], _high_power_table(self.order)):
                if top:
                    for t, c in row:
                        out[t] += top * c
        return _reduced(out, den, self.order)

    __rmul__ = __mul__    # always NotImplemented; perfbench/spans.py wraps it

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar is zero")
        if self.is_rational():
            return _rational_inverse(self)
        # x^-1 = y / N(x) with y = prod_{k != 1} sigma_k(x), N(x) = x * y
        m = self.order
        y = None
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = _galois(self, k)
                y = conj if y is None else y * conj
        norm = self * y
        if not norm.is_rational():
            raise AssertionError("the Galois norm of a cyclotomic scalar must be rational")
        return y * _rational_inverse(norm)

    def conjugate(self) -> "Scalar":
        """The complex conjugate: sigma_-1, which sends zeta to zeta^-1."""
        return self if self.is_rational() else _galois(self, -1)

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other):
        if type(other) is not Scalar:
            raise TypeError(f"cannot compare a Scalar with {type(other).__name__}")
        return self.num == other.num and self.den == other.den and self.order == other.order

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    # -- text form ----------------------------------------------------
    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"<Scalar {format_scalar(self)}, order {self.order}>"


@lru_cache(maxsize=None)
def _cached_const(order: int, value: int) -> Scalar:
    return Scalar.rational(value, order)


# ---------------------------------------------------------------------------
# The scalar text grammar used by every file format:
#   term (('+'|'-') term)*
#   term     = rational | rational '*' 'z' '^' k | 'z' '^' k | 'z'
#   rational = int | int '/' posint
# 'z' denotes zeta_m for the session order m.  The parser is tolerant of
# whitespace and of 'rational*z' without an exponent; the printer always
# emits the strict grammar.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
          (?P<coef>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*z(?:\s*\^\s*(?P<k1>\d+))?)?
          |
          z(?:\s*\^\s*(?P<k2>\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_scalar(text: str, order: int = 1) -> Scalar:
    """Parse the scalar grammar into an element of Q(zeta_order)."""
    s = text.strip()
    if not s:
        raise FormatError("empty scalar")
    out = Scalar.zero(order)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise FormatError(f"bad scalar syntax at {s[pos:]!r} in {text!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise FormatError(f"missing '+'/'-' before {s[pos:]!r} in {text!r}")
        neg = sign == "-"
        try:
            if m.group("coef") is not None:
                coef = Fraction(m.group("coef").replace(" ", ""))
                k = m.group("k1")
                if k is None and "*" in s[pos:m.end()]:
                    k = "1"
                power = int(k) if k is not None else 0
            else:
                coef = 1
                k = m.group("k2")
                power = int(k) if k is not None else 1
        except ZeroDivisionError as exc:
            raise FormatError(f"zero denominator in {text!r}") from exc
        except ValueError as exc:
            # the digits match the grammar, so int() refused them by
            # Python's limit on integer string conversion
            raise FormatError(f"a number in a scalar has more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc
        if power and order == 1:
            raise FormatError("'z' is not available at cyclotomic order 1")
        term = Scalar.rational(coef, order)
        if power:
            term = term * Scalar.zeta(order, power)
        out = out - term if neg else out + term
        pos = m.end()
        first = False
    return out


def format_scalar(x: Scalar) -> str:
    """Canonical text form, strictly inside the scalar grammar."""
    parts = [(k, c) for k, c in enumerate(x.coeffs) if c]
    if not parts:
        return "0"
    chunks: list[str] = []
    for k, c in parts:
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "z" if k == 1 else f"z^{k}"
        else:
            body = f"{abs(c)}*z^{k}"
        if not chunks:
            if c < 0:
                # stay inside the grammar: a leading negative z-term keeps
                # its sign on the rational coefficient
                if k == 0:
                    body = str(c)
                else:
                    body = f"-1*z^{k}" if abs(c) == 1 else f"{c}*z^{k}"
            chunks.append(body)
        else:
            chunks.append(("- " if c < 0 else "+ ") + body)
    return " ".join(chunks)
