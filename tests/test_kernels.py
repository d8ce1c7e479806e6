"""The sparse matrix core against a small dense reference.

The reference works on plain lists of rows, with the textbook pivot
choice (the first row with an entry in the column), so it shares no
code with ``wreathq.linalg``.  The reduced row-echelon form is unique,
so both must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from wreathq import kernels
from wreathq.cyclotomic import Scalar, euler_phi
from wreathq.errors import NotInSpanError
from wreathq.linalg import BlockBuilder, Mat, kernel_basis, kron, rref, solve_in_span

ORDERS = [1, 3, 4, 5]


# -- dense reference ------------------------------------------------------------

def dense(m: Mat) -> list:
    return [m.row(r) for r in range(m.rows)]


def ref_rref(rows: list, ncols: int, order: int):
    mat = [list(row) for row in rows]
    one = Scalar.one(order)
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = one / mat[r][c]
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
    basis = Mat.from_rows([[1], [0]], order)
    target = Mat.from_rows([[Scalar.zeta(order) if order > 2 else 1], [1]], order)
    with pytest.raises(NotInSpanError):
        solve_in_span(basis, target)


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
            assert got.is_zero() and not got
        k = kernel_basis(a)
        prod = a @ k
        assert prod == Mat.zeros(rows, k.cols, order)
        assert hash(prod) == hash(Mat.zeros(rows, k.cols, order))


@pytest.mark.parametrize("order", ORDERS)
def test_partial_cancellation_keeps_no_zero(order):
    one, zeta = Scalar.one(order), Scalar.zeta(order) if order > 2 else Scalar.rational(2)
    a = Mat.from_rows([[one, zeta], [zeta, one]], order)
    b = Mat.from_rows([[zeta, one], [-one, -zeta]], order)
    # row 0 of a @ b is (zeta - zeta, one - zeta^2): the first entry cancels
    prod = a @ b
    expect = Mat.from_rows([[0, one - zeta * zeta], [zeta * zeta - one, 0]], order)
    assert prod == expect and hash(prod) == hash(expect)
    assert prod.data == expect.data
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
