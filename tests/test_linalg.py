import random
from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import NotInSpanError, OrderMismatchError
from wreathq.linalg import (
    BlockBuilder, Mat, hstack, intersect_kernels, kernel_basis, kron,
    rank, rref, solve_in_span, vstack,
)

from conftest import mat


M = mat


def test_mat_refuses_entries_it_cannot_hold():
    with pytest.raises(TypeError):
        Mat(1, 2, [1, 0])
    with pytest.raises(TypeError):
        Mat(1, 1, [Fraction(1, 2)])
    with pytest.raises(OrderMismatchError):
        Mat(1, 1, [Scalar.one(3)], 1)
    assert Mat(1, 2, [Scalar.zeta(3), Scalar.zero(3)], 3) == M([[Scalar.zeta(3), 0]], 3)


def test_rref_rank_one():
    red, piv = rref(M([[1, 2], [2, 4]]))
    assert red == M([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_identity():
    red, piv = rref(Mat.identity(3))
    assert red == Mat.identity(3)
    assert piv == (0, 1, 2)


def test_rref_zeta_diagonal():
    # [[z,0],[0,1]] over Q(zeta_4) reduces to the identity; independent
    # check of the scalar inverse used for the pivot: z * (-z) = 1.
    z = Scalar.zeta(4)
    assert z * (-z) == Scalar.one(4)
    a = mat([[z, Scalar.zero(4)], [Scalar.zero(4), Scalar.one(4)]], 4)
    red, piv = rref(a)
    assert red == Mat.identity(2, 4)
    assert piv == (0, 1)


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(15):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a = M([[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)])
        red, _ = rref(a)
        again, _ = rref(red)
        assert again == red


def test_kernel_rank_one():
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k.cols == 1
    # proportional to (-2, 1)
    assert k[0, 0] == Scalar.rational(-2) and k[1, 0] == Scalar.rational(1)


def test_kernel_zero_rows():
    k = kernel_basis(Mat.zeros(0, 3))
    assert k == Mat.identity(3)


def test_kernel_two_by_three():
    k = kernel_basis(M([[1, 1, 0], [0, 1, 1]]))
    assert k.cols == 1
    assert [k[r, 0] for r in range(3)] == [Scalar.rational(1), Scalar.rational(-1), Scalar.rational(1)]


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(23)
    for _ in range(20):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = Mat(r, c, [Scalar.rational(rng.randint(-2, 2)) for _ in range(r * c)])
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert rank(a) + k.cols == c


def test_solve_in_span_identity():
    x = solve_in_span(Mat.identity(2), M([[3], [5]]))
    assert x == M([[3], [5]])


def test_solve_in_span_scalar_multiple():
    # the span holds the target, but the basis has no unit row to read it off
    with pytest.raises(ValueError, match="column 0 has no unit row"):
        solve_in_span(M([[2], [4]]), M([[1], [2]]))


def test_solve_in_span_outside():
    with pytest.raises(NotInSpanError):
        solve_in_span(M([[1], [0]]), M([[0], [1]]))


def test_solve_multi_column():
    basis = M([[1, 1], [0, 1], [1, 0]])
    target = basis @ M([[2, 0], [-1, 3]])
    assert solve_in_span(basis, target) == M([[2, 0], [-1, 3]])


def test_intersect_kernels_empty_list():
    assert intersect_kernels([], 2) == Mat.identity(2)


def test_intersect_kernels_two_lines():
    k = intersect_kernels([M([[1, 0]]), M([[0, 1]])], 2)
    assert k.rows == 2 and k.cols == 0


def test_intersect_kernels_matches_stack():
    a, b = M([[1, 1, 0]]), M([[0, 1, 1]])
    k = intersect_kernels([a, b], 3)
    assert k == kernel_basis(vstack([a, b]))
    assert k.cols == 1
    assert [k[r, 0] for r in range(3)] == [Scalar.rational(1), Scalar.rational(-1), Scalar.rational(1)]


def test_zero_dim_matmul():
    a = Mat.zeros(0, 3)
    b = Mat.zeros(3, 2)
    assert (a @ b).rows == 0 and (a @ b).cols == 2
    c = Mat.zeros(2, 0) @ Mat.zeros(0, 4)
    assert c == Mat.zeros(2, 4)


def test_stack_and_kron():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])
    k = kron(M([[1, 2], [0, 1]]), Mat.identity(2))
    assert k == M([[1, 0, 2, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_block_builder():
    bb = BlockBuilder(3, 3)
    bb.add_block(1, 1, Mat.identity(2))
    m = bb.build()
    assert m == M([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
