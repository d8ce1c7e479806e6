import itertools
import math
from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import FormatError, ResourceLimitError
from wreathq.linalg import Mat
from wreathq.symmetric import (
    Perm, YoungDiagram, induce_rep, partitions, rectangle, seminormal_rep,
    standard_tableaux, young_cosets,
)

from conftest import mat
from reference import all_perms, as_fraction, central_sum_invertible, identity_perm


def hook_count(parts):
    """Independent dimension oracle: the hook length formula."""
    n = sum(parts)
    prod = 1
    for r, width in enumerate(parts):
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for w in parts[r + 1:] if w > c)
            prod *= arm + leg + 1
    return math.factorial(n) // prod


def test_perm_basics():
    p = Perm([2, 3, 1])
    assert p(1) == 2 and p.inverse()(2) == 1
    assert p.compose(p.inverse()) == identity_perm(3)
    assert p.sign() == 1
    assert Perm.adjacent(1, 3).sign() == -1
    assert Perm.transposition(1, 3, 4).sign() == -1


def test_adjacent_word_reconstructs():
    for p in all_perms(4):
        rebuilt = identity_perm(4)
        for k in p.adjacent_word():
            rebuilt = rebuilt.compose(Perm.adjacent(k, 4))
        assert rebuilt == p


def test_act_tuple():
    s = Perm.adjacent(1, 3)
    assert s.act_tuple(("a", "b", "c")) == ("b", "a", "c")
    p = Perm([2, 3, 1])
    t = p.act_tuple(("x", "y", "z"))
    # entry at position p(m) is the old entry at m
    for m in range(1, 4):
        assert t[p(m) - 1] == ("x", "y", "z")[m - 1]


def test_partitions_list():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_rectangle_two_by_two():
    assert rectangle(YoungDiagram([2, 2])) == (2, 2)


def test_rectangle_row():
    assert rectangle(YoungDiagram([3])) == (1, 3)


def test_rectangle_hook():
    assert rectangle(YoungDiagram([2, 1])) is None


def test_standard_tableaux_order():
    tabs = standard_tableaux(YoungDiagram([2, 1]))
    assert tabs == [((1, 2), (3,)), ((1, 3), (2,))]


def test_trivial_and_sign():
    triv = seminormal_rep(YoungDiagram([3]))
    assert all(g == Mat.identity(1) for g in triv.gens)
    sgn = seminormal_rep(YoungDiagram([1, 1, 1]))
    assert all(g == mat([[-1]]) for g in sgn.gens)


def test_seminormal_two_one():
    rep = seminormal_rep(YoungDiagram([2, 1]))
    assert rep.dim == 2
    for m in (1, 2):
        assert rep.gens[m - 1].trace() == Scalar.zero()
    s12 = rep.matrix_of(Perm.transposition(1, 2, 3))
    s13 = rep.matrix_of(Perm.transposition(1, 3, 3))
    c = s12 + s13
    # eigenvalues of C are the corner contents {1, -1}: C^2 = 1, C != +-1
    assert c @ c == Mat.identity(2)
    assert c != Mat.identity(2) and c != -Mat.identity(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seminormal_relations_and_dimension(n):
    for parts in partitions(n):
        rep = seminormal_rep(YoungDiagram(parts))
        assert rep.dim == hook_count(parts)
        ident = Mat.identity(rep.dim)
        for m in range(1, n):
            assert rep.gens[m - 1] @ rep.gens[m - 1] == ident
        for m in range(1, n - 1):
            a, b = rep.gens[m - 1], rep.gens[m]
            assert a @ b @ a == b @ a @ b
        for m in range(1, n):
            for k in range(m + 2, n):
                a, b = rep.gens[m - 1], rep.gens[k - 1]
                assert a @ b == b @ a


def test_seminormal_is_homomorphism():
    rep = seminormal_rep(YoungDiagram([3, 2]))
    perms = all_perms(5)
    import random
    rng = random.Random(3)
    for _ in range(10):
        p, q = rng.choice(perms), rng.choice(perms)
        assert rep.matrix_of(p.compose(q)) == rep.matrix_of(p) @ rep.matrix_of(q)


def test_central_sum_trivial_cases():
    for r in (1, 2, 3, 4):
        assert central_sum_invertible(1, 0, r)
    assert not central_sum_invertible(0, 1, 1)
    assert not central_sum_invertible(2, 1, 3)


def test_central_sum_matches_closed_form_small():
    # The closed form describes invertibility for all r' <= r jointly:
    # a single level can be invertible even when x = 0 (nu * s_12 is a
    # unit in k[S_2]), but level 1 then fails.
    vals = [Fraction(k, 2) for k in range(-2, 3)]
    for x, nu in itertools.product(vals, repeat=2):
        for r in (1, 2, 3):
            expected = all(x + p * nu != 0 and x - p * nu != 0 for p in range(r))
            cumulative = all(central_sum_invertible(x, nu, rr) for rr in range(1, r + 1))
            assert cumulative == expected, (x, nu, r)


def test_central_sum_resource_cap():
    with pytest.raises(ResourceLimitError):
        central_sum_invertible(1, 1, 7)


def test_young_cosets_counts():
    assert len(young_cosets(3, [2, 1])) == 3
    assert len(young_cosets(4, [2, 2])) == 6
    for p in young_cosets(4, [2, 2]):
        assert p(1) < p(2) and p(3) < p(4)


def test_induce_regular_of_s2():
    one = seminormal_rep(YoungDiagram([1]))
    ind = induce_rep(2, [(1, one), (1, one)])
    assert ind.dim == 2
    g = ind.gens[0]
    assert g @ g == Mat.identity(2)
    assert g.trace() == Scalar.zero()  # regular representation character


def test_induce_identity_block():
    ind = induce_rep(2, [(2, seminormal_rep(YoungDiagram([1, 1])))])
    assert ind.dim == 1
    assert ind.gens[0] == mat([[-1]])


def brute_induced_character(n, sizes, block_reps, g):
    """Frobenius formula by explicit summation over the whole group."""
    blocks = []
    off = 0
    for s in sizes:
        blocks.append(range(off + 1, off + s + 1))
        off += s
    total = Fraction(0)
    subgroup_size = 1
    for s in sizes:
        subgroup_size *= math.factorial(s)
    for x in all_perms(n):
        y = x.inverse().compose(g).compose(x)
        if all(all(y(p) in block for p in block) for block in blocks):
            val = Fraction(1)
            for block, rep in zip(blocks, block_reps):
                base = block[0]
                part = Perm(tuple(y(base + t) - base + 1 for t in range(len(block))))
                val *= as_fraction(rep.matrix_of(part).trace())
            total += val
    return total / subgroup_size


def test_induce_permutation_rep_of_s3():
    blocks = [seminormal_rep(YoungDiagram([2])), seminormal_rep(YoungDiagram([1]))]
    ind = induce_rep(3, list(zip((2, 1), blocks)))
    assert ind.dim == 3
    assert ind.matrix_of(identity_perm(3)).trace() == Scalar.rational(3)
    assert ind.matrix_of(Perm.adjacent(1, 3)).trace() == Scalar.rational(1)
    # full brute-force character comparison over S_3
    for g in all_perms(3):
        expected = brute_induced_character(3, [2, 1], blocks, g)
        assert ind.matrix_of(g).trace() == Scalar.rational(expected)


@pytest.mark.parametrize("n,sizes,parts", [
    (3, (2, 1), ((2,), (1,))),
    (3, (3,), ((2, 1),)),
    (4, (2, 2), ((2,), (1, 1))),
    (4, (3, 1), ((2, 1), (1,))),
])
def test_induced_character_brute_force(n, sizes, parts):
    reps = [seminormal_rep(YoungDiagram(p)) for p in parts]
    ind = induce_rep(n, list(zip(sizes, reps)))
    for g in all_perms(n):
        expected = brute_induced_character(n, sizes, reps, g)
        assert ind.matrix_of(g).trace() == Scalar.rational(expected), g


def test_induced_is_representation():
    rep = induce_rep(3, [(2, seminormal_rep(YoungDiagram([2]))),
                         (1, seminormal_rep(YoungDiagram([1])))])
    ident = Mat.identity(rep.dim)
    for m in (1, 2):
        assert rep.gens[m - 1] @ rep.gens[m - 1] == ident
    a, b = rep.gens[0], rep.gens[1]
    assert a @ b @ a == b @ a @ b


def test_young_diagram_validation():
    with pytest.raises(FormatError):
        YoungDiagram([1, 2])
    with pytest.raises(FormatError):
        YoungDiagram([2, 0])
    for part in (2.7, 2.0, True, "2"):
        with pytest.raises(FormatError, match="must be integers"):
            YoungDiagram([part])
