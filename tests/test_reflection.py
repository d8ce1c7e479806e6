import itertools
from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import EdgeLoopError, FormatError, NotInSpanError
from wreathq.linalg import BlockBuilder, Mat, rank
from wreathq.modules import (
    Params, WreathModule, build_induced_zero_e, reorient_module, verify_relations,
)
from wreathq.quiver import Quiver, Weight, dual_reflection, simple_reflection, DimVector
from wreathq.reflection import (
    SinkCalculus, apply_functor_word, candidate_tuples, is_generic, reflection_functor,
)
from wreathq.symmetric import Perm, YoungDiagram
from wreathq import reflection

from conftest import (
    BLOCK_MAP_CORPUS, dimension_vector, make_params, mat, simple_at, whole_theta,
)
from reference import (
    NotGenericError, build_outer_tensor, canonical_key, check_intertwiner, direct_sum,
    graph_automorphism_transport, involution_witness, is_generic_oracle, reflect_morphism,
    sn_matrix,
)


def sink_module(ahat1, dims=(1, 1), entries=None):
    """An n = 1 module on the sink-form quiver a,b: 1 -> 0 with given maps."""
    q = Quiver(["0", "1"], [("a", "1", "0"), ("b", "1", "0")])
    lam = entries.pop("lam") if entries and "lam" in entries else {"0": 1, "1": 0}
    params = make_params(q, 1, lam)
    support = {}
    if dims[0]:
        support[("0",)] = dims[0]
    if dims[1]:
        support[("1",)] = dims[1]
    return q, WreathModule(params, support, entries or {}, {})


def test_pi_mu_block_assembly():
    # one-dimensional spaces at both vertices; a, a*, b, b* act by scalars
    # alpha, alpha', beta, beta'; then pi = [alpha beta], mu = [alpha'; beta']
    q = Quiver(["0", "1"], [("a", "1", "0"), ("b", "1", "0")])
    alpha, alphap, beta, betap = Fraction(2), Fraction(3), Fraction(5), Fraction(-7)
    lam0 = alpha * alphap + beta * betap
    params = make_params(q, 1, {"0": lam0, "1": -lam0})
    m = WreathModule(params, {("0",): 1, ("1",): 1},
                     {("a", 1, ("1",)): mat([[alpha]]),
                      ("a*", 1, ("0",)): mat([[alphap]]),
                      ("b", 1, ("1",)): mat([[beta]]),
                      ("b*", 1, ("0",)): mat([[betap]])},
                     {})
    assert verify_relations(m).passed
    calc = SinkCalculus(m, "0")
    pi = calc.pi(("0",), (1,), 1)
    mu = calc.mu(("0",), (1,), 1)
    assert pi == mat([[alpha, beta]])
    assert mu == mat([[alphap], [betap]])
    # composition check: pi mu = lambda_0 on V_(0) (no other marked positions)
    assert pi @ mu == mat([[lam0]])


def test_pi_mu_empty_shapes():
    q, m = sink_module(None, dims=(0, 1))
    calc = SinkCalculus(m, "0")
    pi = calc.pi(("0",), (1,), 1)
    assert pi.rows == 0 and pi.cols == 2
    mu = calc.mu(("0",), (1,), 1)
    assert mu.rows == 2 and mu.cols == 0


def _unacted_module(ahat2):
    """n = 2 on the three-cycle with every V_j one-dimensional: no edge acts, and
    s_1 is stored only between (1, 2) and (2, 1)."""
    one = Mat.identity(1)
    support = {j: 1 for j in itertools.product("012", repeat=2)}
    swaps = {(1, ("1", "2")): one, (1, ("2", "1")): one}
    return WreathModule(make_params(ahat2, 2, {"0": 1, "1": 1, "2": 1}), support, {}, swaps)


def test_block_maps_build_no_zero_matrix_for_a_missing_action(ahat2, monkeypatch):
    # R at 0 is (a2, a0*), with tails 2 and 1; a1: 1 -> 2 avoids the vertex
    calc = SinkCalculus(_unacted_module(ahat2), "0")

    def refuse(*args):
        raise AssertionError("a zero matrix was built")

    monkeypatch.setattr(Mat, "zeros", staticmethod(refuse))
    jj, top, swap = ("0", "0"), (1, 2), Perm.transposition(1, 2, 2)
    pi, mu = calc.pi(jj, top, 1), calc.mu(jj, top, 1)
    assert (pi.rows, pi.cols, mu.rows, mu.cols) == (2, 4, 4, 2) and not pi and not mu
    away = calc.away_edge_action("a1", 1, ("1", "0"), (2,))
    assert (away.rows, away.cols) == (2, 2) and not away
    # assignments (a2, a2), (a2, a0*), (a0*, a2), (a0*, a0*): tuples 22, 21, 12, 11
    sigma = calc.sigma_perm(jj, top, swap)
    assert sigma == mat([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert calc.sigma_trace(jj, top, swap) == Scalar.zero()


def test_space_refuses_a_level_that_is_not_ascending(ahat2):
    calc = SinkCalculus(_unacted_module(ahat2), "0")
    assert calc.space(("0", "0"), (1, 2)).total == 4
    for d in ((2, 1), (1, 1), (3,)):
        with pytest.raises(FormatError):
            calc.space(("0", "0"), d)
    with pytest.raises(FormatError):
        calc.pi(("0", "0"), (2, 1), 1)


def test_reflect_simple_at_one(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    out = reflection_functor(v, "0")
    w = out.module
    assert w.params.weight == Weight({"0": -1, "1": 2})
    assert w.support == {("0",): 2, ("1",): 1}
    assert verify_relations(w).passed
    # dimension vector matches the simple reflection s_0(eps_1) = (2, 1)
    alpha = simple_reflection(ahat1, "0", DimVector.unit("1"))
    assert dimension_vector(w) == alpha.as_dict()


def test_reflect_zero_module(ahat1):
    params = make_params(ahat1, 1, {"0": 1, "1": 0})
    zero = WreathModule(params, {}, {}, {})
    out = reflection_functor(zero, "0")
    assert out.module.support == {}


def test_reflect_kills_simple_at_sink(ahat1):
    # the one-dimensional module at the reflection vertex dies
    v = simple_at(ahat1, "0", {"0": 0, "1": 1})
    out = reflection_functor(v, "0")
    assert out.module.support == {}


def test_reflect_outer_tensor_dims(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    v = build_outer_tensor(params, [(2, y, YoungDiagram([2]))])
    out = reflection_functor(v, "0")
    w = out.module
    assert w.support == {("1", "1"): 1, ("0", "1"): 2, ("1", "0"): 2, ("0", "0"): 4}
    assert verify_relations(w).passed
    assert w.params.weight == Weight({"0": -1, "1": 2})


def test_reflected_module_passes_at_nu_nonzero(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    v = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    assert verify_relations(v).passed
    out = reflection_functor(v, "0")
    w = out.module
    assert verify_relations(w).passed
    assert w.params.weight == dual_reflection(ahat1, "0", params.weight)
    assert w.support == {("1", "1"): 1, ("0", "1"): 2, ("1", "0"): 2, ("0", "0"): 4}


def test_reflection_rejects_loops():
    q = Quiver(["0"], [("l", "0", "0")])
    params = make_params(q, 1, {"0": 1})
    m = WreathModule(params, {("0",): 1}, {}, {})
    with pytest.raises(EdgeLoopError):
        reflection_functor(m, "0")


def test_is_generic_examples(ahat1):
    assert not is_generic(make_params(ahat1, 3, {"0": 2, "1": 0}, 1), "0")
    res = is_generic(make_params(ahat1, 3, {"0": 2, "1": 0}, 1), "0")
    assert res.failing_p == 2 and res.failing_branch == "minus"
    assert is_generic(make_params(ahat1, 3, {"0": 2, "1": 0}, Fraction(1, 3)), "0")
    assert not is_generic(make_params(ahat1, 2, {"0": 0, "1": 1}, 5), "0")


def test_generic_oracle_agrees(ahat1):
    for lam0 in (0, 1, 2, Fraction(-3, 2)):
        for nu in (0, 1, Fraction(1, 2)):
            for n in (1, 2, 3):
                params = make_params(ahat1, n, {"0": lam0, "1": 0}, nu)
                assert bool(is_generic(params, "0")) == is_generic_oracle(params, "0")


def test_involution_simple(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    wit = involution_witness(v, "0")
    assert wit.verified
    assert wit.module.support == v.support
    assert wit.module.params.weight == v.params.weight


def test_involution_outer_tensor(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    v = build_outer_tensor(params, [(2, y, YoungDiagram([2]))])
    wit = involution_witness(v, "0")
    assert wit.verified
    assert wit.module.support == v.support


def test_involution_nu_nonzero(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    v = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    wit = involution_witness(v, "0")
    assert wit.verified


def test_involution_requires_generic(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 1)
    v = build_induced_zero_e(params, [(YoungDiagram([1, 1]), "1")])
    with pytest.raises(NotGenericError):
        involution_witness(v, "0")


def test_involution_refuses_an_embedding_without_the_canonical_image(ahat1, monkeypatch):
    # the second pass hands back zero embeddings of the right shapes, so the
    # canonical map leaves their span and the witness reports failure
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    v = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    functor = reflection.reflection_functor
    passes = []

    def second_misplaced(module, vertex):
        out = functor(module, vertex)
        passes.append(vertex)
        if len(passes) == 2:
            out.embeddings = {j: Mat.zeros(e.rows, e.cols, e.order)
                              for j, e in out.embeddings.items()}
        return out

    monkeypatch.setattr(reflection, "reflection_functor", second_misplaced)
    wit = involution_witness(v, "0")
    assert len(passes) == 2
    assert not wit.verified


def test_word_empty_and_double(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    res = apply_functor_word(v, [])
    assert res.module.support == v.support
    # both letters act at generic parameters
    once = apply_functor_word(v, ["0"]).module
    assert is_generic(v.params, "0") and is_generic(once.params, "0")
    res = apply_functor_word(v, ["0", "0"])
    assert res.module.support == v.support
    assert res.module.params.weight == v.params.weight


def test_word_follows_simple_reflections(ahat1):
    # at nu = 0 the dimension vectors follow the Weyl orbit
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    res = apply_functor_word(v, ["0", "1"])
    expected = simple_reflection(ahat1, "1", simple_reflection(ahat1, "0", DimVector.unit("1")))
    assert dimension_vector(res.module) == expected.as_dict()
    # trace records the intermediate stage
    assert res.trace[0][2] == {("0",): 2, ("1",): 1}


def test_reflect_morphism_identity_and_zero(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    out = reflection_functor(v, "0")
    ident = {("1",): Mat.identity(1)}
    fid = reflect_morphism(v, v, ident, "0")
    for j, m in fid.items():
        assert m == Mat.identity(out.module.dim(j))
    fzero = reflect_morphism(v, v, {}, "0")
    assert not fzero  # zero morphism reflects to zero


def test_reflect_morphism_projection(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    vv = direct_sum(v, v)
    out = reflection_functor(vv, "0")
    proj = {("1",): mat([[1, 0], [0, 0]])}
    fproj = reflect_morphism(vv, vv, proj, "0")
    # functoriality: idempotent maps to idempotent of half rank
    for j, m in fproj.items():
        assert m @ m == m
        assert rank(m) * 2 == out.module.dim(j)


def test_reflect_morphism_respects_composition(ahat1):
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    vv = direct_sum(v, v)
    f = {("1",): mat([[0, 1], [0, 0]])}
    g = {("1",): mat([[0, 0], [1, 0]])}
    rf = reflect_morphism(vv, vv, f, "0")
    rg = reflect_morphism(vv, vv, g, "0")
    fg = {("1",): f[("1",)] @ g[("1",)]}
    rfg = reflect_morphism(vv, vv, fg, "0")
    for j in rfg:
        assert rfg[j] == rf[j] @ rg[j]


def test_exactness_on_direct_sums(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    u = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    w = direct_sum(u, u)
    du = reflection_functor(u, "0").module.support
    dw = reflection_functor(w, "0").module.support
    assert dw == {j: 2 * d for j, d in du.items()}


def test_graph_automorphism_square(ahat1):
    # transport(F_{g(i)} V) and F_i(transport V) agree on the nose
    g = {"0": "1", "1": "0"}
    v = simple_at(ahat1, "1", {"0": 1, "1": 0})
    path1 = graph_automorphism_transport(reflection_functor(v, "1").module, g)
    path2 = reflection_functor(graph_automorphism_transport(v, g), "0").module
    assert path1.params.weight == path2.params.weight
    assert path1.support == path2.support
    ident = {j: Mat.identity(path1.dim(j)) for j in path1.support}
    assert check_intertwiner(path1, path2, ident)


def test_h_zero_matches_euler_at_nu_zero(ahat1):
    # dim F_0(V) equals the alternating sum over the cube levels (nu = 0)
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    v = build_outer_tensor(params, [(2, y, YoungDiagram([2]))])
    out = reflection_functor(v, "0")
    calc = out.calculus
    import itertools as it
    for j in out.embeddings:
        delta = calc.delta(j)
        total = 0
        for k in range(len(delta) + 1):
            for d in it.combinations(delta, k):
                total += (-1) ** (len(delta) - k) * calc.space(j, d).total
        assert total == out.module.dim(j), j


def test_involution_zero_module(ahat1):
    params = make_params(ahat1, 1, {"0": 1, "1": 0})
    zero = WreathModule(params, {}, {}, {})
    wit = involution_witness(zero, "0")
    assert wit.verified and wit.module.support == {}


def test_reflection_over_cyclotomic_field(ahat1):
    # the whole pipeline runs inside Q(zeta_4): weight (z, 0), nu = 0
    z = Scalar.zeta(4)
    params = make_params(ahat1, 1, {"0": z, "1": Scalar.zero(4)}, Scalar.zero(4), order=4)
    from reference import point_module
    v = point_module(params, "1")
    assert verify_relations(v).passed
    out = reflection_functor(v, "0")
    w = out.module
    assert w.support == {("0",): 2, ("1",): 1}
    assert w.params.weight[ "0"] == -z
    assert w.params.weight["1"] == 2 * z
    assert verify_relations(w).passed
    wit = involution_witness(v, "0")
    assert wit.verified


def test_functor_is_natural_in_the_orientation(corpus):
    # the calculus reads every module in its own orientation; reflecting
    # and then reversing the edges that leave the vertex agrees with
    # reversing them first, where the vertex is already a sink
    checked = 0
    for name, module in corpus:
        q = module.params.quiver
        for vertex in q.vertices:
            flips = [e.name for e in q.edges if e.tail == vertex]
            if not flips:
                continue
            assert SinkCalculus(module, vertex).module is module
            after = reorient_module(reflection_functor(module, vertex).module, flips)
            before = reflection_functor(reorient_module(module, flips), vertex).module
            assert canonical_key(after) == canonical_key(before), (name, vertex)
            assert after.params == before.params, (name, vertex)
            checked += 1
    assert checked >= 10


def _subsets(delta):
    for k in range(len(delta) + 1):
        yield from itertools.combinations(delta, k)


def _sigma_adjacent_reference(calc, j, d, m):
    """(m, m+1) on V(j, D) placed block by block from the stored generators."""
    g = Perm.adjacent(m, calc.n)
    src = calc.space(j, d)
    d2 = tuple(sorted(g(p) for p in d))
    tgt = calc.space(g.act_tuple(j), d2)
    bb = BlockBuilder(tgt.total, src.total, calc.order)
    for k, xi in enumerate(src.xis):
        moved = {g(p): r for p, r in zip(d, xi)}
        k2 = tgt.index_of(tuple(moved[p] for p in d2))
        bb.add_block(tgt.offsets[k2], src.offsets[k],
                     sn_matrix(calc.module, m, src.t_tuples[k]))
    return bb.build()


def _sigma_chain_reference(calc, j, d, perm):
    """A permutation on V(j, D) as the product of adjacent factors along its word."""
    out = Mat.identity(calc.space(j, d).total, calc.order)
    for k in reversed(perm.adjacent_word()):
        out = _sigma_adjacent_reference(calc, j, d, k) @ out
        g = Perm.adjacent(k, calc.n)
        j = g.act_tuple(j)
        d = tuple(sorted(g(p) for p in d))
    return out


def test_sigma_perm_matches_adjacent_chain(corpus):
    checked = 0
    for name, module in corpus:
        if name not in BLOCK_MAP_CORPUS:
            continue
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            perms = [Perm(img) for img in itertools.permutations(range(1, calc.n + 1))]
            for j in candidate_tuples(calc):
                for d in _subsets(calc.delta(j)):
                    for m in range(1, calc.n):
                        assert calc.sigma_adjacent(j, d, m) == \
                            _sigma_adjacent_reference(calc, j, d, m), (name, vertex, j, d, m)
                    for perm in perms:
                        assert calc.sigma_perm(j, d, perm) == \
                            _sigma_chain_reference(calc, j, d, perm), (name, vertex, j, d, perm)
                        checked += 1
    assert checked > 100


def test_tau_include_is_a_section_of_tau_project(corpus):
    checked = 0
    for name, module in corpus:
        if name not in BLOCK_MAP_CORPUS:
            continue
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            for j in candidate_tuples(calc):
                for d in _subsets(calc.delta(j)):
                    for ell in d:
                        for r_idx in range(len(calc.R)):
                            proj = calc.tau_project(r_idx, ell, j, d)
                            incl = calc.tau_include(r_idx, ell, j, d)
                            assert proj @ incl == Mat.identity(proj.rows, calc.order), \
                                (name, vertex, j, d, ell, r_idx)
                            checked += 1
    assert checked > 10


def test_word_weyl_orbit_on_three_cycle(ahat2):
    # at nu = 0 the graded dimensions follow the composed simple
    # reflections; the three-cycle exercises edges away from the sink
    v = simple_at(ahat2, "1", {"0": 1, "1": 0, "2": 1})
    word = ["0", "2", "1", "0"]
    res = apply_functor_word(v, word)
    expected = DimVector.unit("1")
    for letter in word:
        expected = simple_reflection(ahat2, letter, expected)
    assert dimension_vector(res.module) == {k: v for k, v in expected.as_dict().items() if v}
    assert verify_relations(res.module).passed


def test_reflection_commutes_with_partial_reorientation(ahat1):
    # the functor is insensitive to the orientation the user supplies
    params = make_params(ahat1, 2, {"0": 1, "1": Fraction(-1, 2)}, Fraction(1, 2))
    from wreathq.modules import build_induced_zero_e
    from wreathq.symmetric import YoungDiagram
    v = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    flipped = reorient_module(v, ["a"])
    out_direct = reflection_functor(v, "0")
    out_flipped = reflection_functor(flipped, "0")
    assert out_direct.module.support == out_flipped.module.support
    assert out_direct.module.params.weight == out_flipped.module.params.weight
    assert verify_relations(out_flipped.module).passed


def _theta_reference(calc, r_idx, ell, j, d):
    """theta as (mu pi - lambda_i 1 + nu sum_m s_{m,ell}) on the whole top space, then tau_!."""
    j2 = j[:ell - 1] + (calc.vertex,) + j[ell:]
    d_ell = tuple(sorted(d + (ell,)))
    top = calc.space(j2, d_ell).total
    core = calc.mu(j2, d_ell, ell) @ calc.pi(j2, d_ell, ell)
    core = core - Mat.identity(top, calc.order).scaled(calc.lam_i)
    for m in d:
        core = core + calc.sigma_perm(j2, d_ell, Perm.transposition(m, ell, calc.n)) \
            .scaled(calc.nu)
    return core @ calc.tau_include(r_idx, ell, j2, d_ell)


def test_theta_matches_the_top_space_formula(corpus):
    checked = 0
    for name, module in corpus:
        if name not in BLOCK_MAP_CORPUS:
            continue
        for vertex in module.params.quiver.vertices:
            calc = SinkCalculus(module, vertex)
            for j in candidate_tuples(calc):
                for d in _subsets(calc.delta(j)):
                    for ell in range(1, calc.n + 1):
                        for r_idx, edge in enumerate(calc.R):
                            if ell in d or j[ell - 1] != edge.tail:
                                continue
                            assert whole_theta(calc, r_idx, ell, j, d) == \
                                _theta_reference(calc, r_idx, ell, j, d), \
                                (name, vertex, j, d, ell, r_idx)
                            checked += 1
    assert checked > 50


def test_sigma_perm_is_cached_per_calculus(corpus):
    checked = 0
    for name, module in corpus:
        if name not in BLOCK_MAP_CORPUS:
            continue
        for vertex in module.params.quiver.vertices:
            # the functor fills the cache through theta and the S_n action
            calc = reflection_functor(module, vertex).calculus
            for j in candidate_tuples(calc):
                for d in _subsets(calc.delta(j)):
                    for m in range(1, calc.n):
                        got = calc.sigma_adjacent(j, d, m)
                        assert calc.sigma_perm(j, d, Perm.adjacent(m, calc.n)) is got
                        assert got == _sigma_adjacent_reference(calc, j, d, m), \
                            (name, vertex, j, d, m)
                        checked += 1
    assert checked > 50


def test_a_perturbed_theta_block_is_refused(kronecker_f0v, monkeypatch):
    # add a unit vector outside the target kernel (a column some pi map
    # does not kill) to the first theta image: the restriction must refuse it
    theta = SinkCalculus.theta
    bumped = []

    def perturbed(self, r_index, ell, j, d, x):
        out = theta(self, r_index, ell, j, d, x)
        if bumped or not out.cols:
            return out
        j2 = j[:ell - 1] + (self.vertex,) + j[ell:]
        delta = self.delta(j2)
        pis = [self.pi(j2, delta, p).transpose() for p in delta]
        hit = [c for c in range(out.rows) if any(any(t.row(c)) for t in pis)]
        if not hit:
            return out
        bumped.append((j, ell, hit[0]))
        unit = [[int((r, c) == (hit[0], 0)) for c in range(out.cols)] for r in range(out.rows)]
        return out + Mat.from_rows(unit, out.order)

    monkeypatch.setattr(SinkCalculus, "theta", perturbed)
    with pytest.raises(NotInSpanError):
        reflection_functor(kronecker_f0v, "0")
    assert bumped
