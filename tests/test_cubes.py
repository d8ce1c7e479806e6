import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wreathq import cubes
from wreathq.cyclotomic import Scalar, euler_phi
from wreathq.errors import FormatError
from wreathq.linalg import Mat, _modulus, hstack, rank, rank_mod_p, rref, solve_in_span
from wreathq.modules import Params, WreathModule, build_induced_zero_e, verify_relations
from wreathq.cubes import (
    Cube, cohomology, complex_from_cube, euler_characteristic, module_cohomology,
    module_cube,
)
from wreathq.quiver import Quiver, Weight
from wreathq.reflection import SinkCalculus, candidate_tuples, is_generic, reflection_functor
from wreathq.symmetric import Perm, YoungDiagram

from conftest import AHAT1, AHAT2, HALF, THIRD, make_params, mat, simple_at, unverified_copy
from reference import build_outer_tensor, edge_matrix, module_character


def test_one_edge_isomorphism_cube():
    cube = Cube((1,), {(): 1, (1,): 1}, {((), 1): Mat.identity(1)})
    assert cohomology(complex_from_cube(cube)) == (0, 0)


def test_square_all_identity():
    spaces = {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    maps = {((), 1): Mat.identity(1), ((), 2): Mat.identity(1),
            ((1,), 2): Mat.identity(1), ((2,), 1): Mat.identity(1)}
    cx = complex_from_cube(Cube((1, 2), spaces, maps))
    assert cx.dims() == [1, 2, 1]
    assert cohomology(cx) == (0, 0, 0)


def test_zero_maps_give_binomial_cohomology():
    spaces = {(): 2, (1,): 2, (2,): 2, (1, 2): 2}
    cx = complex_from_cube(Cube((1, 2), spaces, {}))
    assert cohomology(cx) == (2, 4, 2)


def test_non_commuting_cube_rejected():
    spaces = {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    maps = {((), 1): Mat.identity(1), ((), 2): Mat.identity(1),
            ((1,), 2): Mat.identity(1), ((2,), 1): -Mat.identity(1)}
    with pytest.raises(FormatError):
        complex_from_cube(Cube((1, 2), spaces, maps))


def _random_invertible(rng, dim, order=1):
    phi = euler_phi(order)
    while True:
        p = Mat(dim, dim, [Scalar([rng.randint(-2, 2) for _ in range(phi)], order)
                           for _ in range(dim * dim)], order)
        if rank(p) == dim:
            return p


def _inverse(p):
    red, piv = rref(hstack([p, Mat.identity(p.rows, p.order)]))
    return Mat(p.rows, p.rows,
               [red[r, p.rows + c] for r in range(p.rows) for c in range(p.rows)], p.order)


def _column_space_basis(m):
    red, piv = rref(m.transpose())
    rows = [red.row(k) for k in range(len(piv))]
    return mat(rows, m.order).transpose() if rows else Mat.zeros(m.rows, 0, m.order)


def _idempotent_cube(rng, m, dim, order=1):
    """Random commuting idempotents (conjugated 0/1 diagonals), as an image cube."""
    p = _random_invertible(rng, dim, order)
    pinv = _inverse(p)
    psis = []
    for _ in range(m):
        diag = mat([[1 if (r == c and rng.random() < 0.6) else 0
                     for c in range(dim)] for r in range(dim)], order)
        psis.append(p @ diag @ pinv)
    for a in psis:
        assert a @ a == a
        for b in psis:
            assert a @ b == b @ a
    delta = tuple(range(1, m + 1))
    bases = {}
    for k in range(m + 1):
        for subset in itertools.combinations(delta, k):
            cur = Mat.identity(dim, order)
            for q in subset:
                cur = psis[q - 1] @ cur
            bases[subset] = _column_space_basis(cur)
    spaces = {s: b.cols for s, b in bases.items()}
    maps = {}
    for subset in spaces:
        for q in delta:
            if q in subset:
                continue
            bigger = tuple(sorted(subset + (q,)))
            image = psis[q - 1] @ bases[subset]
            maps[(subset, q)] = solve_in_span(bases[bigger], image)
    return Cube(delta, spaces, maps, order)


def _face(cube, q, side):
    """The face of ``cube`` in direction q: side 0 keeps J, side 1 keeps J + q."""
    small = tuple(x for x in cube.delta if x != q)
    spaces = {}
    maps = {}
    for k in range(len(small) + 1):
        for subset in itertools.combinations(small, k):
            big = subset if side == 0 else tuple(sorted(subset + (q,)))
            spaces[subset] = cube.spaces[big]
            for p in small:
                if p not in subset:
                    maps[(subset, p)] = cube.maps[(big, p)]
    return Cube(small, spaces, maps, cube.order)


def cone_faces(cube, q):
    """The two faces in direction q and the connecting maps between them."""
    z0, z1 = _face(cube, q, 0), _face(cube, q, 1)
    return z0, z1, {subset: cube.maps[(subset, q)] for subset in z0.spaces}


@pytest.mark.parametrize("m,dim,seed", [(1, 3, 1), (2, 3, 2), (2, 4, 3), (3, 4, 4)])
def test_idempotent_cube_has_no_higher_cohomology(m, dim, seed):
    cube = _idempotent_cube(random.Random(seed), m, dim)
    dims = cohomology(complex_from_cube(cube))
    assert all(d == 0 for d in dims[1:]), dims


def test_idempotent_cube_diagonal_example():
    # the two commuting idempotents diag(1,0), diag(0,1) on k^2
    spaces = {(): 2, (1,): 1, (2,): 1, (1, 2): 0}
    maps = {((), 1): mat([[1, 0]]), ((), 2): mat([[0, 1]]),
            ((1,), 2): Mat.zeros(0, 1), ((2,), 1): Mat.zeros(0, 1)}
    assert cohomology(complex_from_cube(Cube((1, 2), spaces, maps))) == (0, 0, 0)


def test_cone_termwise_exactness():
    for seed in range(4):
        cube = _idempotent_cube(random.Random(20 + seed), 3, 4)
        cx = complex_from_cube(cube)
        for q in (1, 2, 3):
            z0, z1, _ = cone_faces(cube, q)
            cx0 = complex_from_cube(z0)
            cx1 = complex_from_cube(z1)
            for r in range(len(cx.terms)):
                d1 = cx1.terms[r - 1].total if 0 <= r - 1 < len(cx1.terms) else 0
                d0 = cx0.terms[r].total if r < len(cx0.terms) else 0
                assert cx.terms[r].total == d1 + d0
            e = sum((-1) ** r * t.total for r, t in enumerate(cx.terms))
            e0 = sum((-1) ** r * t.total for r, t in enumerate(cx0.terms))
            e1 = sum((-1) ** r * t.total for r, t in enumerate(cx1.terms))
            assert e == e0 - e1


def test_module_cube_s1(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    mc = module_cube(v, "0")
    cube = mc[("0",)]
    assert cube.spaces[()] == 2 and cube.spaces[(1,)] == 0
    assert mc[("1",)].spaces[()] == 1


def test_module_cube_interior_tuple(ahat1):
    # a module supported at the reflection vertex contributes only in
    # higher degree
    v = simple_at(ahat1, "0", {"0": 0, "1": 1})
    coh = module_cohomology(v, "0")
    assert coh[("0",)] == (0, 1)


def _outer_square(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    return build_outer_tensor(params, [(2, y, YoungDiagram([2]))])


def test_h0_equals_functor(ahat1):
    v = _outer_square(ahat1)
    out = reflection_functor(v, "0")
    coh = module_cohomology(v, "0")
    for j, dims in coh.items():
        assert dims[0] == out.module.dim(j), j
        assert all(d == 0 for d in dims[1:]), (j, dims)


def test_euler_matches_functor_at_nu_zero(ahat1):
    v = _outer_square(ahat1)
    report = euler_characteristic(v, "0")
    per = dict(report.per_tuple)
    out = reflection_functor(v, "0")
    expected = {("1", "1"): 1, ("0", "1"): 2, ("1", "0"): 2, ("0", "0"): 4}
    for j, val in expected.items():
        assert per[j] == val
    assert sum(per.values()) == 9
    chars = dict(report.character)
    assert chars[(1, 1)] == Scalar.rational(9)
    for parts, val in chars.items():
        sigma = Perm.from_cycle_type(parts, 2)
        assert val == module_character(out.module, sigma), parts


def test_euler_zero_module(ahat1):
    params = make_params(ahat1, 1, {"0": 1, "1": 0})
    zero = WreathModule(params, {}, {}, {})
    report = euler_characteristic(zero, "0")
    assert not report.per_tuple


def test_empty_index_cube_is_degree_zero():
    # a cube over the empty index set is a single space in degree 0
    cube = Cube((), {(): 3}, {})
    assert cohomology(complex_from_cube(cube)) == (3,)


def test_euler_equals_alternating_cohomology_at_nonzero_nu(ahat1):
    # independent of the parameters, the alternating sum of term
    # dimensions equals the alternating sum of cohomology dimensions
    from wreathq.modules import build_induced_zero_e
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    v = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    per = dict(euler_characteristic(v, "0").per_tuple)
    coh = module_cohomology(v, "0")
    for j, value in per.items():
        dims = coh.get(j, (0,))
        assert value == sum((-1) ** r * d for r, d in enumerate(dims)), j


# -- certified modular ranks ----------------------------------------------------

def _exact_dims(cx):
    """dim C^r - rank d_r - rank d_{r-1} with every rank by exact elimination."""
    ranks = [rank(d) for d in cx.diffs] + [0]
    return tuple(t - ranks[r] - (ranks[r - 1] if r else 0) for r, t in enumerate(cx.dims()))


def _counting_rank(monkeypatch):
    calls = []

    def counted(a):
        calls.append((a.rows, a.cols))
        return rank(a)
    monkeypatch.setattr(cubes, "rank", counted)
    return calls


def test_cohomology_matches_exact_ranks_on_the_corpus(corpus):
    checked = 0
    for name, module in corpus:
        for vertex in module.params.quiver.vertices:
            for j, cube in module_cube(module, vertex).items():
                cx = complex_from_cube(cube)
                assert cohomology(cx) == _exact_dims(cx), (name, vertex, j)
                checked += 1
    assert checked > 50


CUBE_PROPS = settings(max_examples=25, deadline=None)


@CUBE_PROPS
@given(st.sampled_from((1, 3, 4)), st.integers(1, 3), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_cohomology_matches_exact_ranks_on_idempotent_cubes(order, m, dim, seed):
    cx = complex_from_cube(_idempotent_cube(random.Random(seed), m, dim, order))
    dims = cohomology(cx)
    assert dims == _exact_dims(cx)
    assert not any(dims[1:])


@CUBE_PROPS
@given(st.sampled_from((1, 3, 4)),
       st.integers(0, 3).flatmap(lambda k: st.lists(st.integers(0, 3), min_size=2 ** k,
                                                    max_size=2 ** k)))
def test_cohomology_matches_exact_ranks_on_zero_map_cubes(order, sizes):
    delta = tuple(range(1, len(sizes).bit_length()))
    subsets = [s for k in range(len(delta) + 1) for s in itertools.combinations(delta, k)]
    cx = complex_from_cube(Cube(delta, dict(zip(subsets, sizes)), {}, order))
    assert cohomology(cx) == _exact_dims(cx) == tuple(cx.dims())


@pytest.mark.parametrize("order", (1, 3))
def test_unlucky_prime_falls_back_to_exact_ranks(order, monkeypatch):
    calls = _counting_rank(monkeypatch)
    p = _modulus(order)[0]
    # an entry that vanishes mod p, and one with no image mod p
    for entry in (p, Fraction(1, p)):
        cube = Cube((1,), {(): 1, (1,): 1}, {((), 1): mat([[entry]], order)}, order)
        assert cohomology(complex_from_cube(cube)) == (0, 0)
    zero = Cube((1, 2), {(): 2, (1,): 2, (2,): 2, (1, 2): 2}, {}, order)
    assert cohomology(complex_from_cube(zero)) == (2, 4, 2)
    assert calls == [(1, 1), (1, 1), (2, 4), (4, 2)]


def test_a_certified_degree_keeps_its_mod_p_rank(monkeypatch):
    # d_1 (0 x 2) is certified, so only d_0 (2 x 1) is ranked exactly
    calls = _counting_rank(monkeypatch)
    cube = Cube((1, 2), {(): 1, (1,): 1, (2,): 1, (1, 2): 0}, {})
    assert cohomology(complex_from_cube(cube)) == (1, 2, 0)
    assert calls == [(2, 1)]


def test_non_generic_cubes_rank_exactly_only_the_uncertified_degrees(monkeypatch):
    # lambda_0 = nu = 1/2: F_0 is not an equivalence, and the complexes have
    # higher cohomology; every degree a mod-p rank certifies skips exact rank
    nu = Fraction(1, 2)
    params = make_params(AHAT1, 4, {"0": nu, "1": 0}, nu)
    v = build_induced_zero_e(params, [(YoungDiagram([2, 2]), "1")])
    f = reflection_functor(v, "0").module
    assert sum(f.support.values()) == 162 and verify_relations(f).passed
    complexes = [complex_from_cube(cube) for cube in module_cube(f, "0").values()]
    calls = _counting_rank(monkeypatch)
    got = [cohomology(cx) for cx in complexes]
    assert len(calls) == 22
    assert got == [_exact_dims(cx) for cx in complexes]
    assert tuple(map(sum, itertools.zip_longest(*got, fillvalue=0))) == (2, 79, 79, 0, 0)


def test_chain_complex_refuses_a_nonzero_square():
    # a cube whose square does not commute is refused by name
    one = Mat.identity(1)
    spaces = {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    maps = {((), 1): one, ((), 2): one, ((1,), 2): one, ((2,), 1): -one}
    with pytest.raises(FormatError, match="does not commute"):
        complex_from_cube(Cube((1, 2), spaces, maps))


def test_an_absent_space_or_map_reads_as_zero():
    # (1, 2) is omitted from spaces and ((2,), 1) from maps: a zero space and a zero map
    one = Mat.identity(1)
    cx = complex_from_cube(Cube((1, 2), {(): 1, (1,): 1, (2,): 1}, {((), 1): one, ((), 2): one}))
    assert cx.dims() == [1, 2, 0]
    assert cohomology(cx) == _exact_dims(cx) == (0, 1, 0)


def test_every_candidate_tuple_has_a_nonzero_level(corpus, kronecker_f0v):
    # the level of the positions moved to the vertex holds the support tuple
    pairs = 0
    for _, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            for j in candidate_tuples(calc):
                assert any(calc.space(j, level).total
                           for _, level in cubes._levels(calc.delta(j))), (vertex, j)
            pairs += 1
    assert pairs >= 30


def _noncommuting_module(ahat1):
    """n = 2 at vertex 1: the incoming edge a anticommutes with itself on V_00."""
    params = make_params(ahat1, 2, {"0": 0, "1": 0})
    one = mat([[1]])
    tuples = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    edges = {("a", 1, ("0", "0")): one, ("a", 2, ("0", "0")): -one,
             ("a", 2, ("1", "0")): one, ("a", 1, ("0", "1")): one}
    sns = {(1, ("0", "0")): -one, (1, ("1", "1")): one,
           (1, ("0", "1")): one, (1, ("1", "0")): one}
    return WreathModule(params, dict.fromkeys(tuples, 1), edges, sns)


def test_module_cohomology_names_the_square_breaking_relation_ii(ahat1):
    module = _noncommuting_module(ahat1)
    failures = verify_relations(module).failures
    assert [(f.relation, f.j, f.ell, f.m, f.edge_a, f.edge_b) for f in failures] == \
        [("ii", ("0", "0"), 1, 2, "a", "a")]
    with pytest.raises(FormatError, match=r"^cube square at \(\) with 1, 2 does not commute$"):
        module_cohomology(module, "1")


def test_kronecker_z3_cubes_need_no_exact_rank(monkeypatch):
    kronecker = Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1")])
    params = make_params(kronecker, 4, {"0": Scalar.one(3) + Scalar.zeta(3), "1": 0},
                         Fraction(1, 2), order=3)
    v = build_induced_zero_e(params, [(YoungDiagram([2, 2]), "1")])
    f = reflection_functor(v, "0").module
    assert sum(f.support.values()) == 162
    calls = _counting_rank(monkeypatch)
    coh = module_cohomology(f, "0")
    assert calls == []
    assert sum(d[0] for d in coh.values()) == sum(v.support.values())
    assert all(not any(dims[1:]) for dims in coh.values())


# -- the relation-(ii) certificate of module cubes ----------------------------------

def _relation_ii_walk(calc):
    """Reference: a_p b_q = b_q a_p on V_t for every support tuple t of the
    sink-form module, every pair of positions p < q holding tails of incoming
    edges, and every (a, b) in R x R; one instance at a time.  Both paths are
    products of ``edge_matrix`` blocks, so a missing action is a zero matrix."""
    mod = calc.module
    into = {}               # tail -> the incoming edges from it
    for e in calc.R:
        into.setdefault(e.tail, []).append(e)
    for t in mod.tuples():
        spots = [(p, into[v]) for p, v in enumerate(t, 1) if v in into]
        for (p, at_p), (q, at_q) in itertools.combinations(spots, 2):
            for a in at_p:
                for b in at_q:
                    ta, tb = mod.edge_target(a.name, p, t), mod.edge_target(b.name, q, t)
                    ab = edge_matrix(mod, a.name, p, tb) @ edge_matrix(mod, b.name, q, t)
                    if ab != edge_matrix(mod, b.name, q, ta) @ edge_matrix(mod, a.name, p, t):
                        return False
    return True


def _products_vanish(cube):
    """Whether every exact d_{r+1} d_r of the cube's complex is zero.  The complex
    is assembled with its square check patched out, so the products also check
    the signs of the assembly, independently of the squares."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cubes, "_validate", lambda cube: None)
        cx = complex_from_cube(cube)
    return not any(b @ a for a, b in itertools.pairwise(cx.diffs))


def _certificate_and_products(module, vertex):
    """(reference walk holds, every exact d_{r+1} d_r of every module cube is zero)."""
    certified = _relation_ii_walk(SinkCalculus(module, vertex))
    vanish = all(_products_vanish(cube) for cube in module_cube(module, vertex).values())
    return certified, vanish


def test_certificate_holds_on_every_corpus_cube(corpus):
    for name, module in corpus:
        for vertex in module.params.quiver.vertices:
            assert _certificate_and_products(module, vertex) == (True, True), (name, vertex)


@pytest.fixture(scope="module")
def sink_forms(corpus):
    """(sink-form module, vertex, stored keys of its incoming-edge actions) of the corpus."""
    out = []
    for _, module in corpus:
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            into = {e.name for e in calc.R}
            keys = sorted(k for k in calc.module.edge_actions if k[0] in into)
            if keys:
                out.append((calc.module, vertex, keys))
    assert any(m.n >= 2 for m, _, _ in out)
    return out


def _perturbed(module, key, row, col, delta):
    block = module.edge_actions[key]
    unit = [[delta * ((r, c) == (row % block.rows, col % block.cols)) for c in range(block.cols)]
            for r in range(block.rows)]
    actions = dict(module.edge_actions) | {key: block + mat(unit, block.order)}
    return WreathModule(module.params, module.support, actions, module.sn_actions)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_certificate_holds_exactly_when_every_square_vanishes(sink_forms, data):
    module, vertex, keys = data.draw(st.sampled_from(sink_forms))
    key = data.draw(st.sampled_from(keys))
    row, col = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    delta = data.draw(st.sampled_from((-2, -1, 1, 2)))
    certified, vanish = _certificate_and_products(_perturbed(module, key, row, col, delta), vertex)
    assert certified == vanish


def test_perturbations_break_the_certificate(sink_forms):
    # the first entry of every stored incoming-edge block, bumped by 1
    outcomes = set()
    for module, vertex, keys in sink_forms:
        for key in keys:
            got = _certificate_and_products(_perturbed(module, key, 0, 0, 1), vertex)
            assert got[0] == got[1], (vertex, key)
            outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def at_vertex(corpus):
    """(module, vertex, stored keys of the edge actions touching the vertex) of the
    corpus, in the original orientation."""
    out = []
    for _, module in corpus:
        quiver = module.params.quiver
        for vertex in quiver.vertices:
            keys = sorted(k for k in module.edge_actions
                          if vertex in (quiver.edge(k[0]).tail, quiver.edge(k[0]).head))
            if keys:
                out.append((module, vertex, keys))
    return out


def _rescaled(module, key, c):
    """The edge of ``key`` scaled by c and its star by 1/c: an automorphism of the algebra."""
    base = key[0].rstrip("*")
    scale = {base: Scalar.rational(c, module.order),
             base + "*": Scalar.rational(1 / Fraction(c), module.order)}
    actions = {k: m.scaled(scale[k[0]]) if k[0] in scale else m
               for k, m in module.edge_actions.items()}
    return WreathModule(module.params, module.support, actions, module.sn_actions)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_passed_report_certifies_the_module_cubes(at_vertex, data):
    # perturbed in the original orientation: a passed report implies the
    # reference walk on the sink form and d^2 = 0 by products on every cube
    module, vertex, keys = data.draw(st.sampled_from(at_vertex))
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.booleans()):
        module = _rescaled(module, key, data.draw(st.sampled_from((-2, Fraction(1, 2), 3))))
    else:
        row, col = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        module = _perturbed(module, key, row, col, data.draw(st.sampled_from((-2, -1, 1, 2))))
    made = list(module_cube(module, vertex).values())
    report = verify_relations(module)
    if report.passed:
        assert _relation_ii_walk(SinkCalculus(module, vertex))
        assert all(c.certificate is report for c in made)
        assert all(_products_vanish(c) for c in made)
    else:
        assert all(c.certificate is None for c in made)


def test_module_cohomology_multiplies_only_stored_edge_actions(kronecker_f0v, monkeypatch):
    # no differential is ever multiplied: a verified module's cubes carry its
    # report, and an unverified one pays for one verify_relations and no more
    assert verify_relations(kronecker_f0v).passed
    calls = []
    product = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or product(a, b))
    coh = module_cohomology(kronecker_f0v, "0")
    assert calls == []
    assert sum(d[0] for d in coh.values()) == 2 and not any(any(d[1:]) for d in coh.values())
    assert verify_relations(unverified_copy(kronecker_f0v)).passed
    verified = len(calls)
    calls.clear()
    assert module_cohomology(unverified_copy(kronecker_f0v), "0") == coh
    assert len(calls) == verified > 0


def test_a_module_failing_relation_i_only_is_not_certified(kronecker_f0v):
    # lambda_1 shifted by 1: the matrices, and so the cubes at vertex 0, are unchanged
    p = kronecker_f0v.params
    lam = {v: p.weight[v] for v in p.quiver.vertices}
    lam["1"] = lam["1"] + Scalar.one(p.order)
    shifted = WreathModule(Params(p.quiver, p.n, Weight(lam, p.order), p.nu),
                           kronecker_f0v.support, kronecker_f0v.edge_actions,
                           kronecker_f0v.sn_actions)
    report = verify_relations(shifted)
    assert not report.structural and report.failures
    assert {f.relation for f in report.failures} == {"i"}
    assert all(c.certificate is None for c in module_cube(shifted, "0").values())
    assert module_cohomology(shifted, "0") == module_cohomology(kronecker_f0v, "0")


def test_module_cohomology_assembles_each_fallback_cube_once(corpus, monkeypatch):
    # complex_from_cube is the one path from a cube to its complex: every cube
    # the cone test declines is module_cube's certified cube, assembled once
    assembled = 0
    for name, module in corpus:
        for vertex in module.params.quiver.vertices:
            calls = []
            assemble = cubes.complex_from_cube
            monkeypatch.setattr(cubes, "complex_from_cube",
                                lambda cube: calls.append(cube) or assemble(cube))
            coh = module_cohomology(module, vertex)
            monkeypatch.undo()
            made = list(module_cube(module, vertex).values())
            assert len(coh) == len(made)
            assert len({id(c) for c in calls}) == len(calls), (name, vertex)
            assert all(c in made and c.certificate is not None for c in calls), (name, vertex)
            assembled += len(calls)
    assert assembled > 20


def test_euler_traces_agree_with_the_assembled_action(corpus):
    checked = 0
    for name, module in corpus:
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            for j in candidate_tuples(calc):
                for subset, level in cubes._levels(calc.delta(j)):
                    for img in itertools.permutations(range(1, module.n + 1)):
                        sigma = Perm(list(img))
                        if sigma.act_tuple(j) != j or \
                                tuple(sorted(sigma(p) for p in level)) != level:
                            continue
                        assert calc.sigma_trace(j, level, sigma) == \
                            calc.sigma_perm(j, level, sigma).trace(), (name, vertex, j, level)
                        checked += 1
    assert checked > 200


def test_sigma_trace_refuses_a_moved_level(ahat1):
    calc = SinkCalculus(_outer_square(ahat1), "0")
    swap = Perm.transposition(1, 2, 2)
    assert calc.sigma_trace(("0", "0"), (1, 2), swap) == \
        calc.sigma_perm(("0", "0"), (1, 2), swap).trace()
    with pytest.raises(FormatError):
        calc.sigma_trace(("0", "0"), (1,), swap)
    with pytest.raises(FormatError):
        calc.sigma_trace(("0", "1"), (), swap)


# -- the mapping-cone certificate ------------------------------------------------------

def _full_path(module, vertex):
    """Every module cube through its assembled complex and certified ranks."""
    return {j: cohomology(complex_from_cube(cube))
            for j, cube in module_cube(module, vertex).items()}


def _totals(coh):
    return tuple(map(sum, itertools.zip_longest(*coh.values(), fillvalue=0)))


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, which still runs."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def _kronecker_f0v(n, shape, lam0, nu=HALF, order=1):
    """F_0 of the zero-edge module of a rectangle at vertex 1, lambda_1 = nu (h - w)."""
    diagram = YoungDiagram(shape)
    lam1 = nu * (len(diagram.parts) - diagram.parts[0])
    params = make_params(AHAT1, n, {"0": lam0, "1": lam1}, nu, order)
    return reflection_functor(build_induced_zero_e(params, [(diagram, "1")]), "0").module


def _kronecker_z3():
    return _kronecker_f0v(4, [2, 2], Scalar.one(3) + Scalar.zeta(3), order=3)


def _a2_word_modules():
    """V and its reflections along 0, 2, 1 on A2-hat, with the vertex each is reflected at."""
    nu = THIRD
    params = make_params(AHAT2, 3, {"0": Fraction(2, 5), "1": 2 * nu, "2": Fraction(-3, 7)}, nu)
    cur = build_induced_zero_e(params, [(YoungDiagram([1, 1, 1]), "1")])
    out = []
    for letter in ("0", "2", "1"):
        assert is_generic(cur.params, letter), letter
        out.append((cur, letter))
        cur = reflection_functor(cur, letter).module
    return out


def test_cone_route_equals_the_full_ranks_on_every_tested_input(corpus, kronecker_f0v, ahat1):
    inputs = [(module, vertex) for _, module in corpus for vertex in module.params.quiver.vertices]
    nu = Fraction(1, 2)
    ind = build_induced_zero_e(make_params(ahat1, 2, {"0": 1, "1": -nu}, nu),
                               [(YoungDiagram([2]), "1")])
    inputs += [(simple_at(ahat1, "0", {"0": 0, "1": 1}), "0"), (_outer_square(ahat1), "0"),
               (ind, "0"), (kronecker_f0v, "0"), (unverified_copy(kronecker_f0v), "0"),
               (_kronecker_z3(), "0"), (_kronecker_f0v(4, [2, 2], HALF), "0")]
    inputs += _a2_word_modules()
    for module, vertex in inputs:
        assert module_cohomology(module, vertex) == _full_path(module, vertex), vertex
    assert {m.order for m, _ in inputs} == {1, 3}


@pytest.mark.parametrize("order", (1, 3))
def test_generic_kronecker_cubes_never_reach_the_fallback(kronecker_f0v, order, monkeypatch):
    f = kronecker_f0v if order == 1 else _kronecker_z3()
    expected = _full_path(f, "0")
    pis = _counting(monkeypatch, SinkCalculus, "pi")
    assembled = _counting(monkeypatch, cubes, "complex_from_cube")
    ranked = _counting(monkeypatch, cubes, "cohomology")
    ranks = _counting(monkeypatch, cubes, "rank_mod_p")
    assert module_cohomology(f, "0") == expected
    # relation (i) and genericity certify every cube: no block map and no rank
    assert (pis, assembled, ranked, ranks) == ([], [], [], [])


def test_the_n5_column_needs_no_fallback(monkeypatch):
    f = _kronecker_f0v(5, [1] * 5, Fraction(2, 7))
    assert sum(f.support.values()) == 243 and len(f.support) == 32
    expected = _full_path(f, "0")
    assembled = _counting(monkeypatch, cubes, "complex_from_cube")
    coh = module_cohomology(f, "0")
    assert assembled == []
    assert coh == expected and _totals(coh) == (1, 0, 0, 0, 0, 0)


def test_non_generic_kronecker_sends_every_cube_to_the_fallback(monkeypatch):
    # nu = lambda_0 = 1/2: no certificate, so all 15 cubes with nonempty Delta are ranked
    f = _kronecker_f0v(4, [2, 2], HALF)
    assert verify_relations(f).passed and not is_generic(f.params, "0")
    expected = _full_path(f, "0")
    assembled = _counting(monkeypatch, cubes, "complex_from_cube")
    coh = module_cohomology(f, "0")
    assert len(assembled) == 15
    assert coh == expected and _totals(coh) == (2, 79, 79, 0, 0)


def test_a2_word_cubes_are_declined_by_their_euler_totals(monkeypatch):
    # every cube of the A2-hat word carries H^0, so the cone route declines it
    for module, letter in _a2_word_modules():
        euler = dict(euler_characteristic(module, letter).per_tuple)
        calc = SinkCalculus(module, letter)
        nonempty = [j for j in candidate_tuples(calc) if calc.delta(j)]
        assert nonempty and all(euler[j] for j in nonempty)
        with pytest.MonkeyPatch.context() as patch:
            ranks = _counting(patch, cubes, "rank_mod_p")
            assembled = _counting(patch, cubes, "complex_from_cube")
            coh = module_cohomology(module, letter)
        assert len(assembled) == len(nonempty)
        # the fallback's own ranks: one per differential of each assembled complex
        assert len(ranks) == sum(len(cube.delta) for cube, in assembled)
        assert coh == _full_path(module, letter)


def test_pi_q_ranks_are_the_sums_of_the_sink_map_ranks(corpus, kronecker_f0v):
    checked = 0
    for _, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            for j in candidate_tuples(calc):
                delta = calc.delta(j)
                for q in delta:
                    for _, level in cubes._levels(delta):
                        if q not in level:
                            continue
                        below = tuple(p for p in level if p != q)
                        blocks = [rank_mod_p(calc.pi(t, (q,), q))
                                  for t in calc.space(j, below).t_tuples]
                        assert rank_mod_p(calc.pi(j, level, q)) == sum(blocks), (vertex, j, level)
                        checked += 1
    assert checked > 400


def _surjective_sink_maps(module, vertex):
    """(surjective, total) over the sink maps B_{t,q} = pi_q(t, (q,)), V_t != 0, t_q = vertex."""
    calc = SinkCalculus(module, vertex)
    sinks = [calc.pi(t, (q,), q) for t in module.support for q in calc.delta(t)]
    return sum(rank_mod_p(b) == b.rows for b in sinks), len(sinks)


def test_relation_i_makes_every_sink_map_surjective_at_generic_parameters(kronecker_f0v):
    # B_{t,q} after the signed reverse edges is lambda_i + nu (a Jucys-Murphy element),
    # invertible when is_generic holds; the non-generic F_0V shows the hypothesis is needed
    (a2_before_letter_3, letter), = _a2_word_modules()[2:]
    inputs = [(kronecker_f0v, "0", (32, 32)), (_kronecker_z3(), "0", (32, 32)),
              (_kronecker_f0v(5, [1] * 5, Fraction(2, 7)), "0", (80, 80)),
              (a2_before_letter_3, letter, (27, 27)),
              (_kronecker_f0v(4, [2, 2], HALF), "0", (4, 32))]
    for module, vertex, counts in inputs:
        assert verify_relations(module).passed
        assert bool(is_generic(module.params, vertex)) == (counts[0] == counts[1])
        assert _surjective_sink_maps(module, vertex) == counts


def test_a_failed_relation_ii_report_never_takes_the_cone_route(ahat1, kronecker_f0v,
                                                                monkeypatch):
    # every cube with nonempty Delta is assembled, and the last one raises: the only
    # ranks are the fallback's, one per differential of the complexes built before it
    assembled = _counting(monkeypatch, cubes, "complex_from_cube")
    ranks = _counting(monkeypatch, cubes, "rank_mod_p")
    with pytest.raises(FormatError, match=r"^cube square at \(\) with 1, 2 does not commute$"):
        module_cohomology(_noncommuting_module(ahat1), "1")
    assert [c.delta for c, in assembled] == [(2,), (1,), (1, 2)]
    assert len(ranks) == 2 and all(c.certificate is None for c, in assembled)
    # a failed relation (i) alone withdraws the certificate too: lambda_0 = 3/5 breaks it
    # at every position at "0", and every cube is checked square by square and ranked
    p = kronecker_f0v.params
    lam = {v: p.weight[v] for v in p.quiver.vertices}
    lam["0"] = Scalar.rational(Fraction(3, 5), p.order)
    shifted = WreathModule(Params(p.quiver, p.n, Weight(lam, p.order), p.nu),
                           kronecker_f0v.support, kronecker_f0v.edge_actions,
                           kronecker_f0v.sn_actions)
    report = verify_relations(shifted)
    assert not report.structural and len(report.failures) == 32
    assert {f.relation for f in report.failures} == {"i"}
    expected = _full_path(shifted, "0")
    assembled.clear()
    coh = module_cohomology(shifted, "0")
    assert len(assembled) == 15 and all(c.certificate is None for c, in assembled)
    assert coh == expected and _totals(coh) == (2, 0, 0, 0, 0)


_RECTANGLES = {1: ([1],), 2: ([2], [1, 1]), 3: ([3], [1, 1, 1])}
_WEIGHTS = tuple(Fraction(p, q) * s for q in (2, 3, 5) for p in range(1, q + 1) for s in (1, -1))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cone_route_equals_the_full_ranks_on_random_generic_modules(data):
    quiver = data.draw(st.sampled_from((AHAT1, AHAT2)))
    n = data.draw(st.integers(1, 3))
    shape = data.draw(st.sampled_from(_RECTANGLES[n]))
    block = data.draw(st.sampled_from(quiver.vertices))
    order = data.draw(st.sampled_from((1, 3)))
    nu = data.draw(st.sampled_from((Fraction(0), HALF, THIRD)))
    lam = {v: data.draw(st.sampled_from(_WEIGHTS)) for v in quiver.vertices}
    lam[block] = nu * (len(shape) - shape[0])
    params = make_params(quiver, n, lam, nu, order)
    module = build_induced_zero_e(params, [(YoungDiagram(shape), block)])
    assert verify_relations(module).passed
    generic = [v for v in quiver.vertices if is_generic(params, v)]
    if generic and data.draw(st.booleans()):
        module = reflection_functor(module, data.draw(st.sampled_from(generic))).module
    for vertex in quiver.vertices:
        if is_generic(module.params, vertex):
            assert module_cohomology(module, vertex) == _full_path(module, vertex), vertex
            surjective, total = _surjective_sink_maps(module, vertex)
            assert surjective == total, vertex
