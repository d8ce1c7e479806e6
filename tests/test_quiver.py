import math
import random
from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import EdgeLoopError, FormatError
from wreathq.linalg import Mat
from wreathq.quiver import (
    DimVector, Quiver, Weight, apply_word_dimvector, dual_reflection, ringel_form,
    simple_reflection, symmetrized_form, validate_word,
)

from reference import affine_data, as_fraction, cartan_matrix


def ahat1():
    """Two vertices, two parallel edges 0 -> 1."""
    return Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1")])


def ahat2():
    """Oriented 3-cycle."""
    return Quiver(["0", "1", "2"], [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "2", "0")])


def dhat4():
    """Star with four outer vertices feeding the centre."""
    return Quiver(["c", "1", "2", "3", "4"],
                  [("e1", "1", "c"), ("e2", "2", "c"), ("e3", "3", "c"), ("e4", "4", "c")])


E0 = DimVector.unit("0")
E1 = DimVector.unit("1")
DELTA = E0 + E1


def test_double_edges():
    q = ahat1()
    names = [e.name for e in q.double]
    assert names == ["a", "a*", "b", "b*"]
    assert q.edge("a*").tail == "1" and q.edge("a*").head == "0"


def test_ringel_form_examples():
    q = ahat1()
    assert ringel_form(q, E0, E1) == -2
    assert ringel_form(q, E1, E0) == 0
    assert symmetrized_form(q, E0, E1) == -2
    assert symmetrized_form(q, DELTA, DELTA) == 0
    assert symmetrized_form(q, E0, E0) == 2


def test_ringel_bilinearity_random():
    q = ahat2()
    rng = random.Random(5)
    vecs = []
    for _ in range(6):
        vecs.append(DimVector.make({v: rng.randint(-3, 3) for v in q.vertices}))
    a, b, c = vecs[0], vecs[1], vecs[2]
    assert ringel_form(q, a + b, c) == ringel_form(q, a, c) + ringel_form(q, b, c)
    assert ringel_form(q, a, b + c) == ringel_form(q, a, b) + ringel_form(q, a, c)
    assert ringel_form(q, a.scale(3), b) == 3 * ringel_form(q, a, b)


def test_simple_reflection_examples():
    q = ahat1()
    assert simple_reflection(q, "0", E1) == DimVector.make({"0": 2, "1": 1})
    assert simple_reflection(q, "0", DELTA) == DELTA
    assert simple_reflection(q, "0", simple_reflection(q, "0", E1)) == E1


def test_dual_reflection_examples():
    q = ahat1()
    lam = Weight({"0": 1, "1": 0})
    r0 = dual_reflection(q, "0", lam)
    assert r0 == Weight({"0": -1, "1": 2})
    fixed = Weight({"0": 0, "1": 5})
    assert dual_reflection(q, "0", fixed) == fixed
    w = Weight({"0": Fraction(3, 2), "1": -5})
    assert dual_reflection(q, "0", dual_reflection(q, "0", w)) == w


def test_reflection_invariance_and_duality():
    rng = random.Random(17)
    for q in (ahat1(), ahat2()):
        for i in q.vertices:
            for _ in range(5):
                a = DimVector.make({v: rng.randint(-2, 3) for v in q.vertices})
                b = DimVector.make({v: rng.randint(-2, 3) for v in q.vertices})
                lam = Weight({v: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for v in q.vertices})
                sa, sb = simple_reflection(q, i, a), simple_reflection(q, i, b)
                assert symmetrized_form(q, sa, sb) == symmetrized_form(q, a, b)
                assert dual_reflection(q, i, lam).dot(sa) == lam.dot(a)


def test_edge_loop_rejected():
    q = Quiver(["0"], [("l", "0", "0")])
    with pytest.raises(EdgeLoopError):
        simple_reflection(q, "0", DimVector.unit("0"))
    with pytest.raises(EdgeLoopError):
        dual_reflection(q, "0", Weight({"0": 1}))


def test_affine_data_ahat1():
    assert affine_data(ahat1()) == DELTA


def test_affine_data_finite_type():
    assert affine_data(Quiver(["0"], [])) is None
    # A2 path is positive definite
    assert affine_data(Quiver(["0", "1"], [("a", "0", "1")])) is None


def test_affine_data_ahat2():
    q = ahat2()
    assert affine_data(q) == DimVector.make({"0": 1, "1": 1, "2": 1})


def test_affine_data_dhat4():
    q = dhat4()
    delta = affine_data(q)
    assert delta == DimVector.make({"c": 2, "1": 1, "2": 1, "3": 1, "4": 1})
    for v in q.vertices:
        assert symmetrized_form(q, delta, DimVector.unit(v)) == 0


def test_affine_delta_pairs_to_zero():
    for q in (ahat1(), ahat2()):
        delta = affine_data(q)
        for v in q.vertices:
            assert symmetrized_form(q, delta, DimVector.unit(v)) == 0


def test_hyperbolic_not_affine():
    q = Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1"), ("c", "0", "1")])
    assert affine_data(q) is None


def test_validate_word_single_letter():
    q = ahat1()
    res = validate_word(q, Weight({"0": 1, "1": 0}), ["0"])
    assert res.passed
    assert res.steps[0].pivot == Scalar.rational(1)
    assert res.final == Weight({"0": -1, "1": 2})


def test_validate_word_fails_on_zero_pivot():
    q = ahat1()
    res = validate_word(q, Weight({"0": 1, "1": 0}), ["1", "0"])
    assert not res.passed
    assert not res.steps[0].ok


def test_validate_word_two_letters():
    q = ahat1()
    res = validate_word(q, Weight({"0": 1, "1": 0}), ["0", "1"])
    assert res.passed
    assert [s.pivot for s in res.steps] == [Scalar.rational(1), Scalar.rational(2)]
    assert res.final == Weight({"0": 3, "1": -2})
    # pairing compatibility against the composed s-reflections on a basis
    for alpha in (E0, E1):
        moved = apply_word_dimvector(q, ["1", "0"], alpha)  # w^{-1} = s_1 s_0 read backwards
        assert res.final.dot(alpha) == Weight({"0": 1, "1": 0}).dot(moved)


def test_cartan_matrix_ahat1():
    c = cartan_matrix(ahat1())
    assert [as_fraction(x) for x in c.data] == [2, -2, -2, 2]


def test_quiver_validation():
    with pytest.raises(FormatError):
        Quiver(["0"], [("a*", "0", "0")])
    with pytest.raises(FormatError):
        Quiver(["0"], [("a", "0", "1")])
    with pytest.raises(FormatError):
        Quiver(["0", "0"], [])


# a name is refused, not coerced with str(): the vertex 0 is not the vertex "0"
@pytest.mark.parametrize("vertices, edges, message", [
    ([0, 1], [("a", "0", "1")], "vertex id 0 must be a string"),
    (["0", "1"], [(5, "0", "1")], "edge name 5 must be a string"),
    (["0", "1"], [("a", 0, "1")], "edge 'a' references an unknown vertex"),
])
def test_quiver_refuses_a_name_that_is_not_a_string(vertices, edges, message):
    with pytest.raises(FormatError) as caught:
        Quiver(vertices, edges)
    assert str(caught.value) == message


# -- affine_data against the classification -------------------------------------

def _graph(pairs, rng=None):
    """A quiver on the vertices of ``pairs``, one edge per pair, oriented at random
    when ``rng`` is given."""
    vertices = list(dict.fromkeys(v for pair in pairs for v in pair))
    edges = []
    for k, (u, v) in enumerate(pairs):
        if rng is not None and rng.random() < 0.5:
            u, v = v, u
        edges.append((f"e{k}", u, v))
    return Quiver(vertices, edges)


def _path(names):
    return list(zip(names, names[1:]))


def _star(centre, arms):
    """(pairs, values) of a star: one path per arm out of the centre ``c``, with
    ``arms`` listing the values along each arm from the centre outwards."""
    pairs, values = [], {"c": centre}
    for a, arm in enumerate(arms):
        names = ["c"] + [f"{a}.{k}" for k in range(len(arm))]
        pairs += _path(names)
        values.update(zip(names[1:], arm))
    return pairs, values


def _cycle(n):
    """A~_n, n >= 2: the cycle on n + 1 vertices."""
    names = [str(k) for k in range(n + 1)]
    return _path(names) + [(names[-1], names[0])], dict.fromkeys(names, 1)


def _d_tilde(n):
    """D~_n: a chain of n - 3 vertices of value 2 with two leaves at each end."""
    chain = [f"c{k}" for k in range(n - 3)]
    leaves = [(chain[0], "l1"), (chain[0], "l2"), (chain[-1], "l3"), (chain[-1], "l4")]
    return _path(chain) + leaves, {**dict.fromkeys(chain, 2), "l1": 1, "l2": 1, "l3": 1, "l4": 1}


AFFINE = [
    *[_cycle(n) for n in range(2, 6)],
    _star(2, [[1]] * 4), _d_tilde(5), _d_tilde(6),
    _star(3, [[2, 1], [2, 1], [2, 1]]),                                           # E~_6
    _star(4, [[3, 2, 1], [3, 2, 1], [2]]),                                        # E~_7
    _star(6, [[4, 2], [3], [5, 4, 3, 2, 1]]),                                     # E~_8
]

NOT_AFFINE = [pairs for pairs, _ in [
    *[_star(1, [[1] * k]) for k in range(1, 6)],                                  # A_2..A_6
    *[_star(1, [[1], [1], [1] * (n - 3)]) for n in (4, 5, 6)],                    # D_n
    *[_star(1, [[1, 1], [1], [1] * (n - 4)]) for n in (6, 7, 8)],                 # E_6..E_8
    _star(1, [[1]] * 5),                                                          # five leaves
    _star(1, [[1, 1], [1, 1], [1, 1, 1]]),                                        # T(3,3,4)
    _star(1, [[1, 1], [1], [1] * 6]),                                             # T(3,2,7)
    (_path(["0", "1", "2"]) + [("2", "0"), ("2", "3")], None),                    # cycle and tail
]]


def test_affine_data_on_the_affine_diagrams():
    rng = random.Random(7)
    assert affine_data(ahat1()) == DELTA                                           # A~_1
    for pairs, delta in AFFINE:
        for _ in range(3):
            assert affine_data(_graph(pairs, rng)) == DimVector.make(delta), pairs


def test_affine_data_refuses_dynkin_and_wild_diagrams():
    rng = random.Random(8)
    assert affine_data(Quiver(["0"], [])) is None
    for pairs in NOT_AFFINE:
        assert affine_data(_graph(pairs, rng)) is None, pairs


def _psd_corank(rows):
    """(positive semidefinite, corank) of a symmetric rational matrix, by symmetric
    elimination (Schur complements); the corank is None when it is not PSD."""
    m = [row[:] for row in rows]
    n = len(m)
    corank = 0
    for t in range(n):
        d = m[t][t]
        if d < 0:
            return False, None
        if d == 0:
            # PSD with a zero diagonal entry forces the whole row to vanish
            if any(m[t][j] for j in range(t, n)):
                return False, None
            corank += 1
            continue
        for r in range(t + 1, n):
            f = m[r][t] / d
            if f:
                for j in range(t, n):
                    m[r][j] -= f * m[t][j]
    return True, corank


def _random_connected_quiver(rng):
    n = rng.randint(1, 7)
    vertices = [str(k) for k in range(n)]
    pairs = [(str(rng.randrange(k)), str(k)) for k in range(1, n)]     # a spanning tree
    pairs += [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(0, n)) if n > 1]
    edges = []
    for u, v in pairs:
        if sum({u, v} == {e[1], e[2]} for e in edges) < 3:
            edges.append((f"e{len(edges)}", u, v) if rng.random() < 0.5
                         else (f"e{len(edges)}", v, u))
    return Quiver(vertices, edges)


def test_affine_data_agrees_with_the_semidefinite_test():
    # Vinberg: a connected loop-free quiver is affine exactly when its symmetrized
    # form is positive semidefinite of corank 1
    rng = random.Random(20050202)
    affine = 0
    for _ in range(5000):
        q = _random_connected_quiver(rng)
        rows = [[Fraction(2 * (u == v) - sum({e.tail, e.head} == {u, v} for e in q.edges))
                 for v in q.vertices] for u in q.vertices]
        psd, corank = _psd_corank(rows)
        assert cartan_matrix(q) == Mat.from_rows(
            [[symmetrized_form(q, DimVector.unit(u), DimVector.unit(v)) for v in q.vertices]
             for u in q.vertices]), q
        delta = affine_data(q)
        assert (delta is not None) == (psd and corank == 1), q
        if delta is not None:
            affine += 1
            values = [delta[v] for v in q.vertices]
            assert min(values) > 0 and math.gcd(*values) == 1, q
            assert all(symmetrized_form(q, delta, DimVector.unit(v)) == 0 for v in q.vertices)
    assert affine > 100
