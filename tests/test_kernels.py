"""The sparse matrix core against a small dense reference.

The reference works on plain lists of rows, with the textbook pivot
choice (the first row with an entry in the column), so it shares no
code with ``wreathq.linalg``.  The reduced row-echelon form is unique,
so both must agree exactly.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from wreathq import kernels
from wreathq.cyclotomic import MAX_CYCLOTOMIC_ORDER, Scalar, cyclotomic_polynomial, euler_phi
from wreathq.errors import NotInSpanError
from wreathq.linalg import (
    BlockBuilder, Mat, _is_prime, _modulus, hstack, kernel_basis, kron, rank, rank_mod_p, rref,
    solve_in_span, vstack,
)

from conftest import mat

ORDERS = [1, 3, 4, 5]


# -- dense reference ------------------------------------------------------------

def dense(m: Mat) -> list:
    return [m.row(r) for r in range(m.rows)]


def ref_rref(rows: list, ncols: int, order: int):
    mat = [list(row) for row in rows]
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[r])]
        piv.append(c)
        r += 1
    return mat, piv


def ref_matmul(a: list, b: list, inner: int, ncols: int, order: int) -> list:
    out = []
    for arow in a:
        row = []
        for j in range(ncols):
            s = Scalar.zero(order)
            for t in range(inner):
                s = s + arow[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def ref_kernel(rows: list, ncols: int, order: int) -> list:
    red, piv = ref_rref(rows, ncols, order)
    free = [c for c in range(ncols) if c not in piv]
    out = [[Scalar.zero(order)] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        out[f][k] = Scalar.one(order)
        for r, c in enumerate(piv):
            out[c][k] = -red[r][f]
    return out


# -- random inputs ------------------------------------------------------------------

def random_scalar(rng, order):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(order))]
    return Scalar(coeffs, order)


def random_mat(rng, rows, cols, order, density=None):
    density = rng.choice([0.15, 0.4, 0.8]) if density is None else density
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.3 else None
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.3 else None
    data = []
    for r in range(rows):
        for c in range(cols):
            if r == zero_row or c == zero_col or rng.random() >= density:
                data.append(Scalar.zero(order))
            else:
                data.append(random_scalar(rng, order))
    return Mat(rows, cols, data, order)


def low_rank(rng, rows, cols, order):
    """A product through a thin middle, so rows depend on each other."""
    k = rng.randint(0, min(rows, cols, 3))
    return random_mat(rng, rows, k, order, 0.6) @ random_mat(rng, k, cols, order, 0.6)


def shapes(rng):
    yield 0, 0
    yield 0, 4
    yield 4, 0
    for _ in range(12):
        yield rng.randint(1, 6), rng.randint(1, 7)


# -- tests ------------------------------------------------------------------------

def test_selection_reports_implementation():
    assert kernels.IMPLEMENTATION == "python"


@pytest.mark.parametrize("order", ORDERS)
def test_rref_matches_dense_reference(order):
    rng = random.Random(100 + order)
    for rows, cols in shapes(rng):
        for a in (random_mat(rng, rows, cols, order), low_rank(rng, rows, cols, order)):
            red, piv = rref(a)
            ref, ref_piv = ref_rref(dense(a), cols, order)
            assert list(piv) == ref_piv
            assert rank(a) == len(ref_piv)
            assert dense(red) == ref
            assert red == Mat(rows, cols, [x for row in ref for x in row], order)


@pytest.mark.parametrize("order", ORDERS)
def test_kernel_basis_matches_dense_reference(order):
    rng = random.Random(200 + order)
    for rows, cols in shapes(rng):
        a = low_rank(rng, rows, cols, order) if rng.random() < 0.5 \
            else random_mat(rng, rows, cols, order)
        k = kernel_basis(a)
        assert (k.rows, dense(k)) == (cols, ref_kernel(dense(a), cols, order))
        assert a @ k == Mat.zeros(rows, k.cols, order)


@pytest.mark.parametrize("order", ORDERS)
def test_solve_in_span_matches_dense_reference(order):
    rng = random.Random(300 + order)
    for rows, cols in shapes(rng):
        basis = kernel_basis(random_mat(rng, cols, rows, order))  # independent columns
        x = random_mat(rng, basis.cols, rng.randint(0, 3), order)
        target = basis @ x
        assert solve_in_span(basis, target) == x
        # the dense reference reads X off the RREF of [basis | target]
        red, piv = ref_rref([b + t for b, t in zip(dense(basis), dense(target))],
                            basis.cols + target.cols, order)
        for r, c in enumerate(piv):
            assert dense(x)[c] == red[r][basis.cols:]


@pytest.mark.parametrize("order", ORDERS)
def test_solve_in_span_rejects_escaping_column(order):
    # the certificate refuses a target off the span; a basis with no unit row is refused
    target = mat([[Scalar.zeta(order) if order > 2 else 1], [1]], order)
    with pytest.raises(NotInSpanError):
        solve_in_span(mat([[1], [0]], order), target)
    with pytest.raises(ValueError, match="column 0 has no unit row"):
        solve_in_span(mat([[2], [0]], order), target)


def _read_by_elimination(basis: Mat, target: Mat) -> Mat:
    """X from the dense RREF of [basis | target]."""
    red, piv = ref_rref([b + t for b, t in zip(dense(basis), dense(target))],
                        basis.cols + target.cols, basis.order)
    rows = [[Scalar.zero(basis.order)] * target.cols for _ in range(basis.cols)]
    for r, c in enumerate(piv):
        rows[c] = red[r][basis.cols:]
    return mat(rows, basis.order) if rows else Mat.zeros(0, target.cols, basis.order)


@st.composite
def kernel_problems(draw):
    """(order, a, K = kernel_basis(a), C) for a random sparse a and coordinates C."""
    order = draw(st.sampled_from([1, 3]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_mat(rng, rng.randint(0, 5), rng.randint(0, 6), order)
    k = kernel_basis(a)
    return order, a, k, random_mat(rng, k.cols, rng.randint(1, 3), order)


# K = [[1/2], [1]]: twice K keeps a unit row, so the read succeeds
HALF_ROW = mat([[0, 0], [1, Fraction(-1, 2)], [0, 0]])


@settings(max_examples=60, deadline=None)
@given(kernel_problems())
@example((1, HALF_ROW, kernel_basis(HALF_ROW), mat([[0]])))
def test_unit_row_read_matches_elimination(problem):
    order, a, k, c = problem
    target = k @ c
    assert solve_in_span(k, target) == c == _read_by_elimination(k, target)
    # twice the basis is refused exactly when some column lost every unit row {c: 1}
    twice = k.scaled(Scalar.rational(2, order))
    one = Scalar.one(order)
    units = {row.index(one) for row in dense(twice) if sum(map(bool, row)) == 1 and one in row}
    if len(units) < k.cols:
        with pytest.raises(ValueError, match="has no unit row"):
            solve_in_span(twice, target)
    else:
        assert solve_in_span(twice, target) == c.scaled(Scalar.rational(Fraction(1, 2), order))


@settings(max_examples=60, deadline=None)
@given(kernel_problems(), st.data())
def test_unit_row_read_refuses_a_bumped_pivot_row(problem, data):
    # a vector that vanishes on every free row and is nonzero lies outside the span
    order, a, k, c = problem
    piv = rref(a)[1]
    if not piv:
        return
    r = data.draw(st.sampled_from(piv))
    t = data.draw(st.integers(0, c.cols - 1))
    bump = mat([[int((i, j) == (r, t)) for j in range(c.cols)]
                for i in range(k.rows)], order)
    with pytest.raises(NotInSpanError):
        solve_in_span(k, k @ c + bump)


@pytest.mark.parametrize("order", [1, 3])
def test_zero_column_basis_refuses_a_nonzero_target(order):
    target = mat([[0], [1]], order)
    with pytest.raises(NotInSpanError):
        solve_in_span(Mat.zeros(2, 0, order), target)
    assert solve_in_span(Mat.zeros(2, 0, order), Mat.zeros(2, 1, order)) == Mat.zeros(0, 1, order)


@settings(max_examples=60, deadline=None)
@given(kernel_problems())
def test_a_column_without_a_unit_row_is_refused(problem):
    # scaling the first column by 2 leaves it without a unit row, unless
    # another row of that column held 1/2
    order, a, k, c = problem
    if not k.cols:
        return
    scale = Mat.identity(k.cols, order) + mat(
        [[int(i == j == 0) for j in range(k.cols)] for i in range(k.cols)], order)
    basis = k @ scale
    unit = mat([[1] + [0] * (k.cols - 1)], order).row(0)
    if any(basis.row(r) == unit for r in range(basis.rows)):
        return
    with pytest.raises(ValueError, match="column 0 has no unit row"):
        solve_in_span(basis, k @ c)


@pytest.mark.parametrize("order", ORDERS)
def test_matmul_and_kron_match_dense_reference(order):
    rng = random.Random(400 + order)
    for _ in range(15):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = random_mat(rng, n, k, order), random_mat(rng, k, m, order)
        assert dense(a @ b) == ref_matmul(dense(a), dense(b), k, m, order)
        c = random_mat(rng, rng.randint(0, 3), rng.randint(0, 3), order)
        got = kron(a, c)
        assert (got.rows, got.cols) == (a.rows * c.rows, a.cols * c.cols)
        for i1 in range(a.rows):
            for i2 in range(c.rows):
                for j1 in range(a.cols):
                    for j2 in range(c.cols):
                        assert got[i1 * c.rows + i2, j1 * c.cols + j2] == a[i1, j1] * c[i2, j2]


@pytest.mark.parametrize("order", ORDERS)
def test_block_builder_matches_dense_placement(order):
    rng = random.Random(500 + order)
    for _ in range(10):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        ref = [[Scalar.zero(order)] * cols for _ in range(rows)]
        bb = BlockBuilder(rows, cols, order)
        for _ in range(4):
            h, w = rng.randint(0, rows), rng.randint(0, cols)
            r0, c0 = rng.randint(0, rows - h), rng.randint(0, cols - w)
            blk = random_mat(rng, h, w, order)
            bb.add_block(r0, c0, blk)
            for r in range(h):
                for c in range(w):
                    ref[r0 + r][c0 + c] = ref[r0 + r][c0 + c] + blk[r, c]
        assert dense(bb.build()) == ref


@pytest.mark.parametrize("order", ORDERS)
def test_cancellation_gives_canonical_zero(order):
    rng = random.Random(600 + order)
    for _ in range(10):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = random_mat(rng, rows, cols, order)
        zero = Mat.zeros(rows, cols, order)
        results = [a + (-a), a - a, a.scaled(Scalar.zero(order)),
                   (a + a) - a.scaled(Scalar.rational(2, order))]
        bb = BlockBuilder(rows, cols, order)
        bb.add_block(0, 0, a)
        bb.add_block(0, 0, -a)
        results.append(bb.build())
        for got in results:
            assert got == zero and hash(got) == hash(zero)
            assert not got
        k = kernel_basis(a)
        prod = a @ k
        assert prod == Mat.zeros(rows, k.cols, order)
        assert hash(prod) == hash(Mat.zeros(rows, k.cols, order))


@pytest.mark.parametrize("order", ORDERS)
def test_partial_cancellation_keeps_no_zero(order):
    one, zeta = Scalar.one(order), Scalar.zeta(order) if order > 2 else Scalar.rational(2)
    a = mat([[one, zeta], [zeta, one]], order)
    b = mat([[zeta, one], [-one, -zeta]], order)
    # row 0 of a @ b is (zeta - zeta, one - zeta^2): the first entry cancels
    prod = a @ b
    expect = mat([[0, one - zeta * zeta], [zeta * zeta - one, 0]], order)
    assert prod == expect and hash(prod) == hash(expect)
    assert prod.data == expect.data
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


# -- the canonical row form --------------------------------------------------------

def assert_canonical(m: Mat):
    """Each stored row is (den, {col: numerator}): no zero, no tuple with a zero
    zeta-part (a rational entry is an int at every order), gcd(den, every
    coefficient) = 1, and den 1 for an empty row."""
    phi = euler_phi(m.order)
    assert len(m._rows) == m.rows
    for den, row in m._rows:
        assert type(den) is int and den >= 1 and (row or den == 1)
        coeffs = []
        for c, x in row.items():
            assert 0 <= c < m.cols
            if type(x) is int:
                assert x
                coeffs.append(x)
            else:
                assert type(x) is tuple and len(x) == phi and any(x[1:])
                assert all(type(v) is int for v in x)
                coeffs.extend(x)
        assert gcd(den, *coeffs) == 1


def mixed_scalar(rng, order):
    """Zero, a rational or an irrational scalar (a rational one as often as not)."""
    kind = rng.random()
    if kind < 0.3:
        return Scalar.zero(order)
    if kind < 0.65 or order < 3:
        return Scalar.rational(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 12)), order)
    return random_scalar(rng, order)


def mixed_mat(rng, rows, cols, order):
    return Mat(rows, cols, [mixed_scalar(rng, order) for _ in range(rows * cols)], order)


@st.composite
def operands(draw):
    """(order, a, a2, b, c, s, the entries of a): a and a2 n x k, b k x l, c l x p,
    s a nonzero scalar."""
    order = draw(st.sampled_from(ORDERS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n, k, l, p = (rng.randint(0, 4) for _ in range(4))
    entries = [mixed_scalar(rng, order) for _ in range(n * k)]
    s = mixed_scalar(rng, order)
    return (order, Mat(n, k, entries, order), mixed_mat(rng, n, k, order),
            mixed_mat(rng, k, l, order), mixed_mat(rng, l, p, order),
            s if s else Scalar.rational(Fraction(-3, 4), order), entries)


@settings(max_examples=80, deadline=None)
@given(operands())
def test_values_equal_by_different_routes_store_equal_rows(ops):
    order, a, a2, b, c, s, _ = ops
    for x, y in [((a @ b) @ c, a @ (b @ c)), ((a + a2) - a2, a),
                 (a.scaled(s).scaled(s.inverse()), a), (a.transpose().transpose(), a)]:
        assert_canonical(x)
        assert_canonical(y)
        assert x == y and hash(x) == hash(y)


@settings(max_examples=80, deadline=None)
@given(operands())
def test_every_result_keeps_the_canonical_rows(ops):
    order, a, a2, b, c, s, entries = ops
    # the boundary gives back the scalars the matrix was built from
    assert [a[r, col] for r in range(a.rows) for col in range(a.cols)] == entries == a.data
    assert [x for r in range(a.rows) for x in a.row(r)] == entries
    if a.rows == a.cols:
        assert a.trace() == sum((a[t, t] for t in range(a.rows)), Scalar.zero(order))
    bb = BlockBuilder(a.rows + b.rows, a.cols + b.cols, order)
    bb.add_block(0, 0, a)
    bb.add_block(0, 0, a2)
    bb.add_block(a.rows, a.cols, b)
    for m in (a, a @ b, a + a2, a - a2, -a, a.scaled(s), a.transpose(), kron(a, b),
              hstack([a, a2]), vstack([a, a2]), bb.build(), rref(a)[0], kernel_basis(a)):
        assert_canonical(m)


# -- ranks mod p ---------------------------------------------------------------------

def _small_primes(bound: int) -> list:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for k in range(2, int(bound ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytearray(len(sieve[k * k::k]))
    return [k for k in range(bound + 1) if sieve[k]]


def test_modulus_is_the_largest_prime_with_a_root_of_phi():
    primes = _small_primes(46341)          # 46341^2 > 2^31

    def is_prime(n):
        return all(n % q for q in primes if q * q <= n)

    assert [n for n in range(2000) if _is_prime(n)] == _small_primes(1999)
    # the square of a prime has no divisor below its root, the last one tried
    assert not any(_is_prime(q * q) for q in primes[-3:]) and _is_prime(2 ** 31 - 1)

    for m in range(1, MAX_CYCLOTOMIC_ORDER + 1):
        p, g = _modulus(m)
        assert p < 2 ** 31 and p % m == 1 % m and is_prime(p), m
        assert not any(is_prime(q) for q in range(p + m, 2 ** 31, m)), m
        assert sum(c * pow(g, k, p) for k, c in enumerate(cyclotomic_polynomial(m))) % p == 0, m


@pytest.mark.parametrize("order", ORDERS)
def test_rank_mod_p_matches_dense_reference(order):
    rng = random.Random(500 + order)
    for rows, cols in shapes(rng):
        for a in (random_mat(rng, rows, cols, order), low_rank(rng, rows, cols, order)):
            assert rank_mod_p(a) == len(ref_rref(dense(a), cols, order)[1])


@pytest.mark.parametrize("order", ORDERS)
def test_rank_mod_p_sees_the_image_over_f_p(order):
    p = _modulus(order)[0]
    # p maps to 0, 1/p has no image; a rank-2 matrix that drops to rank 1 mod p
    assert rank_mod_p(mat([[p]], order)) == 0
    assert rank_mod_p(mat([[Fraction(1, p)]], order)) is None
    assert rank_mod_p(mat([[1, 1], [1, 1 + p]], order)) == 1
