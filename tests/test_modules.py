import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wreathq.cyclotomic import Scalar
from wreathq.errors import FormatError
from wreathq.linalg import Mat
from wreathq.modules import (
    Params, RelationFailure, StructuralIssue, VerifyReport, WreathModule,
    build_induced_zero_e, reorient_module,
    structural_report, verify_relations,
)
from wreathq.quiver import Weight, star_name
from wreathq.reflection import reflection_functor
from wreathq.symmetric import (
    Perm, YoungDiagram, partitions, spanning_tree, swap_position, swap_tuple,
)

from conftest import (
    AHAT1, AHAT2, frac, make_params, mat, rational_weight, simple_at, unverified_copy,
)
from reference import (
    build_outer_tensor, canonical_key, check_intertwiner, direct_sum, edge_matrix,
    graph_automorphism_transport, identity_perm, induced_module, module_character, perm_matrix,
    point_module, sn_matrix,
)


def test_s1_passes(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    report = verify_relations(m)
    assert report.passed


def test_s1_fails_with_wrong_weight(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 1})
    report = verify_relations(m)
    assert not report.passed
    assert report.failures[0].relation == "i"
    assert report.failures[0].j == ("1",)
    # residual = lhs - rhs = -lambda_1 * id - 0
    assert report.failures[0].residual == mat([[-1]])


def test_relation_i_forces_lambda_minus_nu(ahat1):
    # trivial S_2 action on a line at (1,1): relation (i) reads
    # -lambda_1 = nu, so it passes exactly when lambda_1 = -nu
    for lam1, nu, expect in [(-1, 1, True), (0, 1, False), (Fraction(-1, 2), Fraction(1, 2), True)]:
        params = make_params(ahat1, 2, {"0": 0, "1": lam1}, nu)
        m = WreathModule(params, {("1", "1"): 1},
                         {}, {(1, ("1", "1")): mat([[1]])})
        report = verify_relations(m)
        assert report.passed == expect, (lam1, nu)
        if not expect:
            assert [f.residual for f in report.failures] == \
                [mat([[-lam1 - nu]])] * 2


# (n, support, edge actions, S_n actions, the FormatError text), one broken rule each
MALFORMED = {
    "support-length": (2, {("1",): 1}, {}, {}, "support ('1',): tuple length != 2"),
    "support-vertex": (2, {("1", "9"): 1}, {}, {}, "support ('1', '9'): unknown vertex"),
    "support-dim": (2, {("1", "1"): -1}, {}, {},
                    "support ('1', '1'): dimension must be non-negative"),
    "edge-name": (2, {("0", "1"): 1}, {("z", 1, ("0", "1")): mat([[1]])}, {},
                  "edge action (z, 1, 0,1): unknown edge"),
    "edge-position-low": (2, {("0", "1"): 1}, {("a", 0, ("0", "1")): mat([[1]])}, {},
                          "edge action (a, 0, 0,1): bad position or tuple"),
    "edge-position-high": (2, {("0", "1"): 1}, {("a", 3, ("0", "1")): mat([[1]])}, {},
                           "edge action (a, 3, 0,1): bad position or tuple"),
    "edge-tuple": (2, {("0", "1"): 1}, {("a", 1, ("0",)): mat([[1]])}, {},
                   "edge action (a, 1, 0): bad position or tuple"),
    "edge-tail": (2, {("1", "1"): 1}, {("a", 1, ("1", "1")): mat([[1]])}, {},
                  "edge action (a, 1, 1,1): tuple has 1 at position 1, expected 0"),
    "edge-shape": (1, {("1",): 1}, {("a*", 1, ("1",)): mat([[1, 2]])}, {},
                   "edge action (a*, 1, 1): shape 1x2 != 0x1"),
    "edge-order": (2, {("0", "1"): 1, ("1", "1"): 1}, {("a", 1, ("0", "1")): mat([[1]], 3)}, {},
                   "edge action (a, 1, 0,1): wrong cyclotomic order"),
    "sn-index-low": (2, {("1", "1"): 1}, {}, {(0, ("1", "1")): mat([[1]])},
                     "sn action (0, 1,1): bad transposition index or tuple"),
    "sn-index-high": (2, {("1", "1"): 1}, {}, {(2, ("1", "1")): mat([[1]])},
                      "sn action (2, 1,1): bad transposition index or tuple"),
    "sn-tuple": (2, {("1", "1"): 1}, {}, {(1, ("1",)): mat([[1]])},
                 "sn action (1, 1): bad transposition index or tuple"),
    "sn-shape": (2, {("1", "1"): 1}, {}, {(1, ("1", "1")): mat([[1, 0]])},
                 "sn action (1, 1,1): shape 1x2 != 1x1"),
    "sn-order": (2, {("1", "1"): 1}, {}, {(1, ("1", "1")): mat([[1]], 3)},
                 "sn action (1, 1,1): wrong cyclotomic order"),
    # zero entries are checked before they are dropped
    "zero-support-vertex": (2, {("1", "9"): 0}, {}, {}, "support ('1', '9'): unknown vertex"),
    "zero-edge-name": (2, {("0", "0"): 1}, {("zzz", 7, ("x",)): Mat.zeros(5, 3)}, {},
                       "edge action (zzz, 7, x): unknown edge"),
    "zero-edge-shape": (2, {("0", "1"): 1}, {("a", 1, ("0", "1")): Mat.zeros(2, 1)}, {},
                        "edge action (a, 1, 0,1): shape 2x1 != 0x1"),
    "zero-sn-index": (2, {("0", "0"): 1}, {}, {(9, ("q", "r", "s")): Mat.zeros(2, 2)},
                      "sn action (9, q,r,s): bad transposition index or tuple"),
    "zero-sn-shape": (2, {("0", "1"): 1}, {}, {(1, ("0", "1")): Mat.zeros(2, 1)},
                      "sn action (1, 0,1): shape 2x1 != 0x1"),
    # an unknown vertex in a source tuple, where every dimension and shape is 0
    "zero-edge-vertex": (2, {("1", "1"): 1}, {("a*", 1, ("1", "9")): Mat.zeros(0, 0)}, {},
                         "edge action (a*, 1, 1,9): bad position or tuple"),
    "zero-sn-vertex": (2, {("1", "1"): 1}, {}, {(1, ("9", "1")): Mat.zeros(0, 0)},
                       "sn action (1, 9,1): bad transposition index or tuple"),
    # a dimension, position or transposition index is an int, not coerced to one
    "support-dim-float": (1, {("1",): 2.7}, {}, {},
                          "support ('1',): dimension must be an integer, got 2.7"),
    "support-dim-bool": (1, {("1",): True}, {}, {},
                         "support ('1',): dimension must be an integer, got True"),
    "edge-position-float": (2, {("0", "1"): 1}, {("a", 1.0, ("0", "1")): mat([[1]])}, {},
                            "edge action (a, 1.0, 0,1): bad position or tuple"),
    "sn-index-bool": (2, {("1", "1"): 1}, {}, {(True, ("1", "1")): mat([[1]])},
                      "sn action (True, 1,1): bad transposition index or tuple"),
    "sn-tuple-numbers": (2, {("1", "1"): 1}, {}, {(1, (1, 1)): mat([[1]])},
                         "sn action (1, 1,1): bad transposition index or tuple"),
    # a tuple key is a tuple, not a string of vertex names
    "support-key-str": (2, {"01": 1}, {}, {}, "support '01': key must be a tuple"),
    "edge-tuple-str": (2, {("0", "1"): 1}, {("a", 1, "01"): mat([[1]])}, {},
                       "edge action (a, 1, '01'): bad position or tuple"),
    "sn-tuple-int": (2, {("1", "1"): 1}, {}, {(1, 11): mat([[1]])},
                     "sn action (1, 11): bad transposition index or tuple"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_constructor_refuses_a_malformed_module(ahat1, case):
    n, support, edges, sns, message = MALFORMED[case]
    params = make_params(ahat1, n, {"0": 1, "1": 0})
    with pytest.raises(FormatError) as caught:
        WreathModule(params, support, edges, sns)
    assert str(caught.value) == message


def test_constructor_drops_zero_dimensions_and_zero_matrices(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0})
    m = WreathModule(params, {("1", "1"): 1, ("0", "1"): 1, ("1", "0"): 0},
                     {("a", 1, ("0", "1")): mat([[0]])}, {(1, ("1", "1")): mat([[0]])})
    assert (m.support, m.edge_actions, m.sn_actions) == ({("1", "1"): 1, ("0", "1"): 1}, {}, {})


def test_structural_involution_checked(ahat1):
    params = make_params(ahat1, 2, {"0": 0, "1": 0})
    m = WreathModule(params, {("1", "1"): 1}, {}, {(1, ("1", "1")): mat([[2]])})
    issues = structural_report(m)
    assert any("involution" in i.message for i in issues)


def test_induced_zero_e_two_blocks(ahat1):
    params = make_params(ahat1, 2, {"0": 0, "1": 0}, 0)
    m = build_induced_zero_e(params, [(YoungDiagram([1]), "0"), (YoungDiagram([1]), "1")])
    assert m.support == {("0", "1"): 1, ("1", "0"): 1}
    s = sn_matrix(m, 1, ("0", "1"))
    assert s == Mat.identity(1)  # swaps the two lines
    assert verify_relations(m).passed


def test_induced_zero_e_single_block_triv(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": -1}, 1)
    m = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    assert m.support == {("1", "1"): 1}
    assert sn_matrix(m, 1, ("1", "1")) == Mat.identity(1)
    # lambda_1 = -nu here, the rectangle rule for a 1x2 row
    assert verify_relations(m).passed


def test_induced_zero_e_three_blocks(ahat1):
    params = make_params(ahat1, 3, {"0": 0, "1": 0}, 0)
    m = build_induced_zero_e(params, [(YoungDiagram([2]), "0"), (YoungDiagram([1]), "1")])
    assert sorted(m.support) == [("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0")]
    assert all(d == 1 for d in m.support.values())
    assert verify_relations(m).passed


def test_extend_direction_both_ways(ahat1):
    # single rectangular block at vertex 1: passes iff lambda_1 = (a-b) nu
    for diagram, scalar in [(YoungDiagram([2]), -1), (YoungDiagram([1, 1]), 1)]:
        for nu in (Fraction(1, 2), 1):
            good = make_params(ahat1, 2, {"0": 1, "1": scalar * nu}, nu)
            bad = make_params(ahat1, 2, {"0": 1, "1": scalar * nu + 1}, nu)
            assert verify_relations(build_induced_zero_e(good, [(diagram, "1")])).passed
            assert not verify_relations(build_induced_zero_e(bad, [(diagram, "1")])).passed
    # non-rectangular diagram fails at any weight
    for lam1 in (0, 1, -1):
        params = make_params(ahat1, 3, {"0": 0, "1": lam1}, 1)
        m = build_induced_zero_e(params, [(YoungDiagram([2, 1]), "1")])
        assert not verify_relations(m).passed
    # adjacent vertices with nu != 0 fail relation (ii)
    params = make_params(ahat1, 2, {"0": 0, "1": 0}, 1)
    m = build_induced_zero_e(params, [(YoungDiagram([1]), "0"), (YoungDiagram([1]), "1")])
    rep = verify_relations(m)
    assert not rep.passed and any(f.relation == "ii" for f in rep.failures)


def test_outer_tensor_two_simples(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    m = build_outer_tensor(params, [(2, y, YoungDiagram([2]))])
    assert m.support == {("1", "1"): 1}
    assert sn_matrix(m, 1, ("1", "1")) == Mat.identity(1)
    assert verify_relations(m).passed


def test_outer_tensor_degenerate_returns_block(ahat1):
    params = make_params(ahat1, 1, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    m = build_outer_tensor(params, [(1, y, YoungDiagram([1]))])
    assert m.support == y.support and not m.edge_actions


def test_outer_tensor_mixed_dims(ahat1):
    # Y1 at vertex 0, Y2 at vertex 1 with lambda = 0: dims on mixed tuples
    params = make_params(ahat1, 2, {"0": 0, "1": 0}, 0)
    y0 = simple_at(ahat1, "0", {"0": 0, "1": 0})
    y1 = simple_at(ahat1, "1", {"0": 0, "1": 0})
    m = build_outer_tensor(params, [(1, y0, YoungDiagram([1])), (1, y1, YoungDiagram([1]))])
    assert m.support == {("0", "1"): 1, ("1", "0"): 1}
    assert verify_relations(m).passed


def test_outer_tensor_dimension_bookkeeping(ahat1):
    # Y1 one-dimensional at vertex 1; Y2 with dimension vector (2, 1):
    # mixed tuples get dim Y1_j * Y2_k + Y1_k * Y2_j
    params = make_params(ahat1, 2, {"0": 0, "1": 0}, 0)
    y1 = simple_at(ahat1, "1", {"0": 0, "1": 0})
    p1 = make_params(ahat1, 1, {"0": 0, "1": 0})
    y2 = WreathModule(p1, {("0",): 2, ("1",): 1}, {}, {})
    m = induced_module(params, [(1, y1, YoungDiagram([1])), (1, y2, YoungDiagram([1]))])
    assert m.support == {("1", "0"): 2, ("0", "1"): 2, ("1", "1"): 2}
    assert m.dim(("1", "1")) == 2  # 1*1 + 1*1 over the two cosets


def test_outer_tensor_requires_nu_zero(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 1)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    with pytest.raises(FormatError):
        build_outer_tensor(params, [(2, y, YoungDiagram([2]))])


def test_outer_tensor_rejects_identical_blocks(ahat1):
    params = make_params(ahat1, 2, {"0": 1, "1": 0}, 0)
    y = simple_at(ahat1, "1", {"0": 1, "1": 0})
    with pytest.raises(FormatError):
        build_outer_tensor(params, [(1, y, YoungDiagram([1])), (1, y, YoungDiagram([1]))])


def test_reorient_round_trip(ahat1):
    params = make_params(ahat1, 1, {"0": -1, "1": 2})
    m = WreathModule(
        params, {("0",): 2, ("1",): 1},
        {("a", 1, ("0",)): mat([[-1, 0]]),
         ("a*", 1, ("1",)): mat([[-1], [0]]),
         ("b", 1, ("0",)): mat([[0, -1]]),
         ("b*", 1, ("1",)): mat([[0], [-1]])},
        {})
    assert verify_relations(m).passed
    flipped = reorient_module(m, ["a", "b"])
    assert flipped.params.quiver.edge("a").tail == "1"
    assert verify_relations(flipped).passed
    # double forward application flips the sign of both members of the pair
    double = reorient_module(flipped, ["a", "b"])
    assert double.params.quiver == ahat1
    assert edge_matrix(double, "a", 1, ("0",)) == -edge_matrix(m, "a", 1, ("0",))
    assert edge_matrix(double, "a*", 1, ("1",)) == -edge_matrix(m, "a*", 1, ("1",))
    assert verify_relations(double).passed
    # and four give back the module
    back = reorient_module(reorient_module(double, ["a", "b"]), ["a", "b"])
    assert back.params.quiver == ahat1
    assert canonical_key(back) == canonical_key(m)


def test_reorient_no_flips_is_identity(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    out = reorient_module(m, [])
    assert canonical_key(out) == canonical_key(m)
    assert out.params.quiver == ahat1


def test_transport_identity(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    out = graph_automorphism_transport(m, {"0": "0", "1": "1"})
    assert canonical_key(out) == canonical_key(m)
    assert out.params.weight == m.params.weight


def test_transport_swap(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    out = graph_automorphism_transport(m, {"0": "1", "1": "0"})
    assert out.support == {("0",): 1}
    assert out.params.weight == rational_weight({"0": 0, "1": 1})
    assert verify_relations(out).passed


def test_transport_rejects_non_automorphism(ahat2):
    m = simple_at(ahat2, "1", {"0": 1, "1": 0, "2": 0})
    with pytest.raises(FormatError):
        graph_automorphism_transport(m, {"0": "0", "1": "1", "2": "1"})


def test_transport_rotation_ahat2(ahat2):
    m = simple_at(ahat2, "1", {"0": 1, "1": 0, "2": 3})
    out = graph_automorphism_transport(m, {"0": "1", "1": "2", "2": "0"})
    assert out.support == {("2",): 1}
    assert out.params.weight == rational_weight({"1": 1, "2": 0, "0": 3})
    assert verify_relations(out).passed


def _automorphisms(q):
    """(g, orientation-preserving?) for every automorphism g of the underlying graph."""
    for image in itertools.permutations(q.vertices):
        g = dict(zip(q.vertices, image))
        arrows = sorted((g[e.tail], g[e.head]) for e in q.edges)
        lines = sorted(tuple(sorted(a)) for a in arrows)
        if lines == sorted(tuple(sorted((e.tail, e.head))) for e in q.edges):
            yield g, arrows == sorted((e.tail, e.head) for e in q.edges)


def test_every_automorphism_transport_verifies(corpus, kronecker_f0v):
    moved = 0
    for name, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        q = module.params.quiver
        for g, _ in _automorphisms(q):
            out = graph_automorphism_transport(module, g)
            assert verify_relations(out).passed, (name, g)
            assert out.params.weight == Weight(
                {g[v]: module.params.weight[v] for v in q.vertices}, module.order)
            assert sorted(out.support.values()) == sorted(module.support.values())
            moved += bool(out.edge_actions)
    assert moved >= 10


def test_rotations_round_trip(corpus, kronecker_f0v):
    rotated = 0
    for name, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        for g, preserving in _automorphisms(module.params.quiver):
            if not preserving:
                continue
            back = {w: v for v, w in g.items()}
            out = graph_automorphism_transport(graph_automorphism_transport(module, g), back)
            assert out.params == module.params, (name, g)
            assert canonical_key(out) == canonical_key(module), (name, g)
            rotated += bool(module.edge_actions) and g != {v: v for v in g}
    assert rotated >= 2


def test_direct_sum_doubles_the_character(corpus, kronecker_f0v):
    for name, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        total = direct_sum(module, module)
        assert verify_relations(total).passed, name
        assert total.support == {j: 2 * d for j, d in module.support.items()}
        for parts in partitions(module.n):
            sigma = Perm.from_cycle_type(parts, module.n)
            once = module_character(module, sigma)
            assert module_character(total, sigma) == once + once, (name, parts)


def test_intertwiner_identity_and_scaling(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    ident = {("1",): Mat.identity(1)}
    assert check_intertwiner(m, m, ident)
    doubled = {("1",): mat([[2]])}
    assert check_intertwiner(m, m, doubled)


def test_intertwiner_zero_map_fails_bijectivity(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    zero = {("1",): mat([[0]])}
    assert not check_intertwiner(m, m, zero)
    assert check_intertwiner(m, m, zero, require_bijective=False)


def test_intertwiner_must_commute(ahat1):
    params = make_params(ahat1, 1, {"0": -1, "1": 2})
    m = WreathModule(
        params, {("0",): 2, ("1",): 1},
        {("a", 1, ("0",)): mat([[-1, 0]]),
         ("a*", 1, ("1",)): mat([[-1], [0]]),
         ("b", 1, ("0",)): mat([[0, -1]]),
         ("b*", 1, ("1",)): mat([[0], [-1]])},
        {})
    maps = {("0",): Mat.identity(2), ("1",): mat([[2]])}
    assert not check_intertwiner(m, m, maps)
    maps = {("0",): Mat.identity(2), ("1",): Mat.identity(1)}
    assert check_intertwiner(m, m, maps)


def test_direct_sum_dims_and_relations(ahat1):
    m = simple_at(ahat1, "1", {"0": 1, "1": 0})
    s = direct_sum(m, m)
    assert s.support == {("1",): 2}
    assert verify_relations(s).passed


def test_simple_smash_module_needs_zero_edge_actions(ahat1):
    # simple smash-product module + nonzero edge action cannot satisfy the
    # relations at nu != 0
    params = make_params(ahat1, 2, {"0": 1, "1": -1}, 1)
    m = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    assert verify_relations(m).passed
    perturbed = WreathModule(
        params, dict(m.support) | {("0", "1"): 1, ("1", "0"): 1},
        {("a*", 1, ("1", "1")): mat([[1]])},
        dict(m.sn_actions) | {(1, ("0", "1")): mat([[1]]), (1, ("1", "0")): mat([[1]])},
    )
    assert not verify_relations(perturbed).passed


def test_module_character(ahat1):
    params = make_params(ahat1, 2, {"0": 0, "1": 0}, 0)
    m = build_induced_zero_e(params, [(YoungDiagram([1]), "0"), (YoungDiagram([1]), "1")])
    assert module_character(m, identity_perm(2)) == Scalar.rational(2)
    assert module_character(m, Perm.adjacent(1, 2)) == Scalar.zero()


def test_outer_tensor_with_sign_block(ahat1):
    # two copies of the vertex-0 simple twisted by the sign character,
    # plus one copy of the vertex-1 simple: the swap on the repeated
    # block must act by -1 and the relations must still hold at nu = 0
    params = make_params(ahat1, 3, {"0": 0, "1": 0}, 0)
    y0 = simple_at(ahat1, "0", {"0": 0, "1": 0})
    y1 = simple_at(ahat1, "1", {"0": 0, "1": 0})
    m = build_outer_tensor(params, [(2, y0, YoungDiagram([1, 1])),
                                    (1, y1, YoungDiagram([1]))])
    assert sorted(m.support) == [("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0")]
    assert sn_matrix(m, 1, ("0", "0", "1")) == -Mat.identity(1)
    assert verify_relations(m).passed


def test_perm_matrix_is_none_where_a_factor_is_not_stored(ahat1):
    # s_1 is stored between (0, 1) and (1, 0), not on (0, 0)
    one = Mat.identity(1)
    m = WreathModule(make_params(ahat1, 2, {"0": 1, "1": 1}),
                     {("0", "1"): 1, ("1", "0"): 1, ("0", "0"): 1}, {},
                     {(1, ("0", "1")): one, (1, ("1", "0")): one})
    swap = Perm.transposition(1, 2, 2)
    assert m.perm_matrix(swap, ("0", "1")) == one
    assert m.perm_matrix(swap, ("0", "0")) is None
    assert m.perm_matrix(swap, ("0", "0")) is None
    assert m.perm_matrix(identity_perm(2), ("0", "0")) == one


def test_the_identity_out_of_a_zero_piece_is_none(ahat1):
    # no 0x0 identity: outside the support even the empty word is a zero map
    m = WreathModule(make_params(ahat1, 2, {"0": 1, "1": 1}), {("0", "1"): 2}, {}, {})
    assert m.perm_matrix(identity_perm(2), ("1", "1")) is None
    assert m.perm_matrix(identity_perm(2), ("0", "1")) == Mat.identity(2)


def test_perm_matrix_is_a_homomorphism(corpus):
    # the reflected n = 3 module mixes vertices within a tuple, so words of
    # two or more letters pass through different tuples
    mixed = reflection_functor(dict(corpus)["a1.ind-n3"], "0").module
    checked = 0
    for name, module in corpus + [("F0 a1.ind-n3", mixed)]:
        perms = [Perm(img) for img in itertools.permutations(range(1, module.n + 1))]
        for j in module.support:
            assert module.perm_matrix(perms[0], j) == Mat.identity(module.dim(j), module.order)
            for sigma in perms:
                for tau in perms:
                    assert module.perm_matrix(sigma.compose(tau), j) == \
                        module.perm_matrix(sigma, tau.act_tuple(j)) @ module.perm_matrix(tau, j), \
                        (name, j, sigma, tau)
                    checked += 1
    assert checked > 100


# -- golden digests of induced modules ---------------------------------------------
#
# sha256 of repr(canonical_key()) for induced modules over the Kronecker
# quiver and affine A2 (orders 1 and 3, n <= 5, one to three blocks, outer
# tensors of blocks with two or three dimensions under trivial and sign
# diagrams).  The digests were recorded from the builder as it stood before
# its one-pass rewrite; any change to the induced basis order or to a matrix
# entry changes a digest.

def _golden_params(quiver, n, order):
    lam = {v: Scalar.rational(Fraction(k + 1, 3), order) for k, v in enumerate(quiver.vertices)}
    return make_params(quiver, n, lam, 0, order)


def _golden_simple(quiver, vertex, order):
    return point_module(_golden_params(quiver, 1, order), vertex)


def _golden_reflected(quiver, vertex, order):
    """F_0 of the simple at ``vertex``: dims (2, 1) on the Kronecker quiver, (1, 1) on A2."""
    return reflection_functor(_golden_simple(quiver, vertex, order), "0").module


def _golden_module(name):
    """Build the module of a ``GOLDEN_INDUCED`` row.

    A block ``(diagram, vertex)`` induces from the point module at the
    vertex with zero edge action; ``(diagram, maker, vertex)`` builds the
    outer tensor of the one-particle module ``maker`` makes at the vertex.
    """
    quiver, n, order, blocks, _ = GOLDEN_INDUCED[name]
    params = _golden_params(quiver, n, order)
    if len(blocks[0]) == 2:
        return build_induced_zero_e(params, [(YoungDiagram(d), v) for d, v in blocks])
    return build_outer_tensor(params, [(sum(d), make(quiver, v, order), YoungDiagram(d))
                                       for d, make, v in blocks])


_S, _F = _golden_simple, _golden_reflected

GOLDEN_INDUCED = {
    "a1.n2.triv": (
        AHAT1, 2, 1, [([2], "1")],
        "b0f620074cf636e8c43436bb7525b865014f8c5308772d0807f156faa908e816"),
    "a1.n3.hook": (
        AHAT1, 3, 1, [([2, 1], "1")],
        "59e8811866a64db3f5d063006b34cf1b9dff4880e2a3447d816cc23d8ebf3f07"),
    "a1.n4.z3": (
        AHAT1, 4, 3, [([2, 2], "1")],
        "959e813f635378d7239c3cc86f182863d6a55745469aa06ceb01862e115314ba"),
    "a1.n5.two-blocks": (
        AHAT1, 5, 1, [([2, 1], "0"), ([1, 1], "1")],
        "41d0a2b6ae6caab1a5b821ce8d34a20398843272877ae13c4d0efd6ab52a50fe"),
    "a2.n3.sign": (
        AHAT2, 3, 1, [([1, 1, 1], "1")],
        "080f56b474a1daecb6594cf07a0f9094e5e4927ff87abb2e72107e0cfad1732b"),
    "a2.n3.three-blocks.z3": (
        AHAT2, 3, 3, [([1], "0"), ([1], "1"), ([1], "2")],
        "7163309e2ed19bea7540b57e4309e1e01f5571aa4de08bf50d2680acd58da96b"),
    "a2.n4.two-blocks": (
        AHAT2, 4, 1, [([2, 1], "0"), ([1], "2")],
        "d9d53fb6545a871589abe9f0c9c77ec3acca08f8150d22302b178ac42cc72a4a"),
    "a1.outer.n2.sign": (
        AHAT1, 2, 1, [([1, 1], _F, "1")],
        "e442f6e6ab666b884a720331eb81f30b37b42ac98e34cf404caae4f3e5c21d75"),
    "a1.outer.n3.two-blocks": (
        AHAT1, 3, 1, [([2], _F, "1"), ([1], _S, "0")],
        "9585a30c2304e9ea1aa2ebddfc12ebd8aacb9b05e7244f509760a29e7386df48"),
    "a1.outer.n3.z3": (
        AHAT1, 3, 3, [([1, 1], _F, "1"), ([1], _S, "1")],
        "0a699db413f913747c7da18d7d641360db20ad8578a88c50dcf04be49c46d52f"),
    "a2.outer.n3.z3": (
        AHAT2, 3, 3, [([2], _F, "1"), ([1], _S, "2")],
        "7122070b870c06bdae9ace4045b286c98502def08c06cb531fdc31625970dead"),
    "a1.outer.n3.hook": (
        AHAT1, 3, 1, [([2, 1], _F, "1")],
        "b197bf017fff786768e3872da14c315d13caba068be554c44af15dddce0192ce"),
    "a2.outer.n4.hook.z3": (
        AHAT2, 4, 3, [([2, 1], _F, "1"), ([1], _F, "2")],
        "a292ef371781f25552aaa26bb3dedcbc43a9a598ec12896b098acf2122c3d28e"),
    "a2.outer.n4.three-blocks": (
        AHAT2, 4, 1, [([1, 1], _F, "1"), ([1], _S, "0"), ([1], _F, "2")],
        "a410fd5258d9264271e77a3dc855ae5692adf23e52ec749b49a515494782aea6"),
}


def _reference_zero_e(params, blocks):
    """The zero-edge induced module through the general builder, from point modules."""
    p1 = Params(params.quiver, 1, params.weight, params.nu)
    return induced_module(params, [(d.size, point_module(p1, v), d) for d, v in blocks])


@pytest.mark.parametrize("name", sorted(GOLDEN_INDUCED))
def test_induced_module_matches_recorded_digest(name):
    quiver, n, order, blocks, digest = GOLDEN_INDUCED[name]
    built = [_golden_module(name)]
    if len(blocks[0]) == 2:     # a zero-edge row pins the reference builder too
        built.append(_reference_zero_e(_golden_params(quiver, n, order),
                                       [(YoungDiagram(d), v) for d, v in blocks]))
    for module in built:
        assert hashlib.sha256(repr(canonical_key(module)).encode()).hexdigest() == digest


# every split of n <= 5 into diagrams at the vertices of affine A2, in vertex order
ZERO_E_SPLITS = [
    tuple((d, v) for d, v in zip(ds, AHAT2.vertices) if d)
    for n in range(1, 6)
    for sizes in itertools.product(range(n + 1), repeat=3) if sum(sizes) == n
    for ds in itertools.product(*map(partitions, sizes))
]


@pytest.mark.parametrize("split", ZERO_E_SPLITS,
                         ids=lambda split: "|".join(f"{v}=" + "-".join(map(str, d)) for d, v in split))
def test_zero_edge_induction_matches_the_general_builder(split):
    n = sum(sum(d) for d, _ in split)
    blocks = [(YoungDiagram(d), v) for d, v in split]
    for order in (1, 3):
        params = _golden_params(AHAT2, n, order)
        assert canonical_key(build_induced_zero_e(params, blocks)) == \
            canonical_key(_reference_zero_e(params, blocks))


# -- the orbit-reduced walk against the full walk ---------------------------------
#
# ``_full_structural`` and ``_full_verify`` copy the verifier as it stood
# before it skipped checks: every group relation and equivariance check at
# every tuple, every relation instance at every tuple.  The library walk
# must report exactly what they report.

def _full_chase(mod, j, word):
    out, cur = Mat.identity(mod.dim(j), mod.order), j
    for k in reversed(word):
        out = sn_matrix(mod, k, cur) @ out
        cur = swap_tuple(cur, k)
    return out


def _full_structural(mod):
    issues = []
    q, n = mod.params.quiver, mod.n
    for j, d in sorted(mod.support.items()):
        if len(j) != n:
            issues.append(StructuralIssue(f"support {j}", f"tuple length != {n}"))
            continue
        if any(not q.has_vertex(v) for v in j):
            issues.append(StructuralIssue(f"support {j}", "unknown vertex"))
        if d <= 0:
            issues.append(StructuralIssue(f"support {j}", "dimension must be positive"))
    if issues:
        return issues
    for (name, pos, j), m in sorted(mod.edge_actions.items()):
        where = f"edge action ({name}, {pos}, {','.join(j)})"
        try:
            e = q.edge(name)
        except FormatError:
            issues.append(StructuralIssue(where, "unknown edge"))
            continue
        if not (1 <= pos <= n) or len(j) != n:
            issues.append(StructuralIssue(where, "bad position or tuple"))
            continue
        if j[pos - 1] != e.tail:
            issues.append(StructuralIssue(
                where, f"tuple has {j[pos - 1]} at position {pos}, expected {e.tail}"))
            continue
        tgt = mod.edge_target(name, pos, j)
        if (m.rows, m.cols) != (mod.dim(tgt), mod.dim(j)):
            issues.append(StructuralIssue(
                where, f"shape {m.rows}x{m.cols} != {mod.dim(tgt)}x{mod.dim(j)}"))
        if m.order != mod.order:
            issues.append(StructuralIssue(where, "wrong cyclotomic order"))
    for (k, j), m in sorted(mod.sn_actions.items()):
        where = f"sn action ({k}, {','.join(j)})"
        if not (1 <= k <= n - 1) or len(j) != n:
            issues.append(StructuralIssue(where, "bad transposition index or tuple"))
            continue
        tgt = swap_tuple(j, k)
        if (m.rows, m.cols) != (mod.dim(tgt), mod.dim(j)):
            issues.append(StructuralIssue(
                where, f"shape {m.rows}x{m.cols} != {mod.dim(tgt)}x{mod.dim(j)}"))
        if m.order != mod.order:
            issues.append(StructuralIssue(where, "wrong cyclotomic order"))
    if issues:
        return issues
    for j in mod.tuples():
        at = f"tuple ({','.join(j)})"
        for m in range(1, n):
            if _full_chase(mod, j, [m, m]) != Mat.identity(mod.dim(j), mod.order):
                issues.append(StructuralIssue(at, f"s_{m} is not an involution"))
        for m in range(1, n - 1):
            if _full_chase(mod, j, [m, m + 1, m]) != _full_chase(mod, j, [m + 1, m, m + 1]):
                issues.append(StructuralIssue(at, f"braid relation fails at s_{m}, s_{m + 1}"))
        for m in range(1, n):
            for k in range(m + 2, n):
                if _full_chase(mod, j, [m, k]) != _full_chase(mod, j, [k, m]):
                    issues.append(StructuralIssue(at, f"s_{m} and s_{k} do not commute"))
    for j in mod.tuples():
        for pos in range(1, n + 1):
            for e in q.out_edges(j[pos - 1]):
                tgt = mod.edge_target(e.name, pos, j)
                for m in range(1, n):
                    sig_pos = {m: m + 1, m + 1: m}.get(pos, pos)
                    lhs = sn_matrix(mod, m, tgt) @ edge_matrix(mod, e.name, pos, j)
                    rhs = edge_matrix(mod, e.name, sig_pos, swap_tuple(j, m)) @ sn_matrix(mod, m, j)
                    if lhs != rhs:
                        issues.append(StructuralIssue(
                            f"tuple ({','.join(j)})",
                            f"edge {e.name} at position {pos} is not s_{m}-equivariant"))
    return issues


def _full_verify(mod):
    structural = _full_structural(mod)
    if structural:
        return VerifyReport(tuple(structural), ())
    q, lam, nu, n = mod.params.quiver, mod.params.weight, mod.params.nu, mod.n
    failures = []
    for j in mod.tuples():
        for ell in range(1, n + 1):
            v = j[ell - 1]
            lhs = Mat.identity(mod.dim(j), mod.order).scaled(-lam[v])
            for x in q.out_edges(v):
                mid = mod.edge_target(x.name, ell, j)
                path = edge_matrix(mod, star_name(x.name), ell, mid) @ edge_matrix(mod, x.name, ell, j)
                lhs = lhs + path if x.is_star else lhs - path
            for m in range(1, n + 1):
                if m != ell and j[m - 1] == v:
                    lhs = lhs - perm_matrix(mod, Perm.transposition(ell, m, n), j).scaled(nu)
            if lhs:
                failures.append(RelationFailure("i", j, ell, None, None, None, lhs))
        for ell in range(1, n + 1):
            for m in range(ell + 1, n + 1):
                for a in q.out_edges(j[ell - 1]):
                    for b in q.out_edges(j[m - 1]):
                        jb = mod.edge_target(b.name, m, j)
                        ja = mod.edge_target(a.name, ell, j)
                        lhs = edge_matrix(mod, a.name, ell, jb) @ edge_matrix(mod, b.name, m, j) \
                            - edge_matrix(mod, b.name, m, ja) @ edge_matrix(mod, a.name, ell, j)
                        if a.name == star_name(b.name):
                            swap = perm_matrix(mod, Perm.transposition(ell, m, n), j)
                            lhs = lhs - swap.scaled(nu if a.is_star else -nu)
                        if lhs:
                            failures.append(RelationFailure("ii", j, ell, m, a.name, b.name, lhs))
    return VerifyReport((), tuple(failures))


def _assert_walks_agree(mod):
    """Same structural list, same failures in the same order, equal residuals."""
    got = verify_relations(mod)
    assert structural_report(mod) == _full_structural(mod)
    assert got == _full_verify(mod)
    return got


def _reparametrised(mod, lam=None, nu=None):
    p = mod.params
    weight = p.weight if lam is None else Weight(lam, mod.order)
    params = Params(p.quiver, p.n, weight, p.nu if nu is None else nu)
    return WreathModule(params, mod.support, mod.edge_actions, mod.sn_actions)


@pytest.fixture(scope="module")
def mixed_modules(corpus):
    """Passing modules with n >= 2, with F_0 of the n = 3 modules for mixed tuples."""
    found = dict(corpus)
    mods = [m for m in found.values() if m.n >= 2]
    mods.append(reflection_functor(found["a1.ind-n3"], "0").module)
    mods.append(reflection_functor(found["a2.ind-n3"], "2").module)
    assert any(len(set(j)) > 1 for m in mods for j in m.support if m.n == 3)
    return mods


def test_orbit_walk_matches_full_walk_on_the_corpus(corpus, kronecker_f0v):
    for name, module in corpus + [("kronecker F0V", kronecker_f0v)]:
        assert _assert_walks_agree(module).passed, name


def test_orbit_walk_matches_full_walk_at_a_wrong_weight(mixed_modules, kronecker_f0v):
    # relation (i) then fails on whole orbits: at every position holding the vertex
    for mod in mixed_modules + [kronecker_f0v]:
        for v in mod.params.quiver.vertices:
            if not any(v in j for j in mod.support):
                continue
            lam = {u: mod.params.weight[u] for u in mod.params.quiver.vertices}
            lam[v] = lam[v] + Scalar.one(mod.order)
            report = _assert_walks_agree(_reparametrised(mod, lam=lam))
            assert len([f for f in report.failures if f.relation == "i"]) == \
                sum(j.count(v) for j in mod.support)


def test_orbit_walk_matches_full_walk_at_a_wrong_nu(mixed_modules, kronecker_f0v):
    shifted = 0
    for mod in mixed_modules + [kronecker_f0v]:
        report = _assert_walks_agree(
            _reparametrised(mod, nu=mod.params.nu + Scalar.one(mod.order)))
        shifted += any(f.relation == "ii" for f in report.failures)
    assert shifted >= 2


def test_orbit_walk_matches_full_walk_on_non_rectangular_modules():
    for quiver, n, diagram in [(AHAT1, 3, [2, 1]), (AHAT2, 3, [2, 1]), (AHAT1, 4, [3, 1])]:
        lam = {v: Fraction(k, 3) for k, v in enumerate(quiver.vertices)}
        params = make_params(quiver, n, lam, Fraction(1, 2))
        module = build_induced_zero_e(params, [(YoungDiagram(diagram), "1")])
        assert not _assert_walks_agree(module).passed


def _bumped(block, row=0, col=0):
    """The block with 1 added to its entry at (row, col), the first by default."""
    unit = [[int((r, c) == (row, col)) for c in range(block.cols)] for r in range(block.rows)]
    return block + mat(unit, block.order)


def test_orbit_walk_matches_full_walk_on_mutants_at_skipped_tuples(mixed_modules):
    # the relation instances at a tuple j are skipped unless j is sorted, the
    # first tuple of its orbit; break one block at an unsorted tuple
    mutants = 0
    for mod in mixed_modules:
        for store in ("edge_actions", "sn_actions"):
            for key, block in sorted(getattr(mod, store).items()):
                if key[-1] == tuple(sorted(key[-1])) or not (block.rows and block.cols):
                    continue
                actions = dict(getattr(mod, store)) | {key: _bumped(block)}
                edges = actions if store == "edge_actions" else mod.edge_actions
                sns = actions if store == "sn_actions" else mod.sn_actions
                mutant = WreathModule(mod.params, mod.support, edges, sns)
                assert not _assert_walks_agree(mutant).passed, key
                mutants += 1
    assert mutants >= 20


@pytest.fixture(scope="module")
def stores(corpus, kronecker_f0v):
    """(module, store, its stored keys) of the corpus modules with n >= 2 and F_0V."""
    mods = [m for _, m in corpus if m.n >= 2] + [kronecker_f0v]
    return [(m, store, sorted(getattr(m, store)))
            for m in mods for store in ("edge_actions", "sn_actions") if getattr(m, store)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walks_agree_on_a_deleted_or_bumped_action(stores, data):
    # a deleted action is a missing factor in the middle of the words through it
    mod, store, keys = data.draw(st.sampled_from(stores))
    key = data.draw(st.sampled_from(keys))
    actions = dict(getattr(mod, store))
    block = actions.pop(key)
    if data.draw(st.booleans()):
        row = data.draw(st.integers(0, block.rows - 1))
        actions[key] = _bumped(block, row, data.draw(st.integers(0, block.cols - 1)))
    edges = actions if store == "edge_actions" else mod.edge_actions
    sns = actions if store == "sn_actions" else mod.sn_actions
    mutant = WreathModule(mod.params, mod.support, edges, sns)
    assert verify_relations(mutant) == _full_verify(mutant)
    assert structural_report(mutant) == _full_structural(mutant)


def test_walks_agree_on_a_braid_broken_at_one_tuple(mixed_modules, kronecker_f0v):
    # conjugating s_m at one tuple it fixes keeps every involution, and
    # breaks the braid relation at the tuples whose words pass through it
    broken = 0
    for mod in mixed_modules + [kronecker_f0v]:
        for (m, x), block in sorted(mod.sn_actions.items()):
            if mod.n < 3 or swap_tuple(x, m) != x or block.rows < 2:
                continue
            one = Mat.identity(block.rows, block.order)
            shear = _bumped(one, 0, 1)          # its inverse is 2 - shear
            sns = dict(mod.sn_actions) | {(m, x): shear @ block @ (one + one - shear)}
            mutant = WreathModule(mod.params, mod.support, mod.edge_actions, sns)
            issues = [str(i) for i in _assert_walks_agree(mutant).structural]
            assert not any("involution" in i for i in issues), (m, x)
            broken += any("braid" in i for i in issues)
    assert broken >= 2


def test_a_failed_involution_keeps_the_partner_braid_check(kronecker_f0v):
    # s_1 bumped at (1,0,0,0): the braid check at (0,0,1,0) passes, and at its
    # partner under s_1 s_2 s_1 it fails through the broken involution
    key = (1, ("1", "0", "0", "0"))
    sns = dict(kronecker_f0v.sn_actions) | {key: _bumped(kronecker_f0v.sn_actions[key])}
    mutant = WreathModule(kronecker_f0v.params, kronecker_f0v.support,
                          kronecker_f0v.edge_actions, sns)
    issues = [str(i) for i in _assert_walks_agree(mutant).structural]
    assert "tuple (1,0,0,0): braid relation fails at s_1, s_2" in issues
    assert "tuple (0,0,1,0): braid relation fails at s_1, s_2" not in issues


def test_a_failed_involution_keeps_the_partner_commuting_check(kronecker_f0v):
    # s_1 bumped at (1,0,0,1): the commuting check at (0,1,0,1) passes, and at its
    # partner (1,0,1,0) under s_1 s_3 it fails through the broken involution
    key = (1, ("1", "0", "0", "1"))
    sns = dict(kronecker_f0v.sn_actions) | {key: _bumped(kronecker_f0v.sn_actions[key])}
    mutant = WreathModule(kronecker_f0v.params, kronecker_f0v.support,
                          kronecker_f0v.edge_actions, sns)
    issues = [str(i) for i in _assert_walks_agree(mutant).structural]
    assert "tuple (1,0,1,0): s_1 and s_3 do not commute" in issues
    assert "tuple (0,1,0,1): s_1 and s_3 do not commute" not in issues


def test_braid_checks_skip_the_partner_tuple(kronecker_f0v, monkeypatch):
    # w = s_m s_{m+1} s_m pairs the tuples; a passed check covers its partner
    import wreathq.modules as modules
    braids = []
    residual = modules._residual
    monkeypatch.setattr(modules, "_residual", lambda mod, j, lhs, rhs: (
        braids.append(j) if len(lhs) == 3 else None) or residual(mod, j, lhs, rhs))
    assert structural_report(unverified_copy(kronecker_f0v)) == []
    full = sum(kronecker_f0v.n - 2 for _ in kronecker_f0v.support)
    assert 0 < len(braids) < full


def test_commuting_checks_skip_the_partner_tuple(kronecker_f0v, monkeypatch):
    # s_1 s_3 pairs the tuples; a passed check covers its partner: 10 of 16
    import wreathq.modules as modules
    commuting = []
    residual = modules._residual
    monkeypatch.setattr(modules, "_residual", lambda mod, j, lhs, rhs: (
        commuting.append(j) if len(lhs) == 2 and lhs[1] == lhs[0] + 2 else None)
        or residual(mod, j, lhs, rhs))
    assert structural_report(unverified_copy(kronecker_f0v)) == []
    assert (len(commuting), len(kronecker_f0v.support)) == (10, 16)


def test_walks_agree_on_a_commuting_relation_broken_at_one_tuple(kronecker_f0v):
    # conjugating s_1 at one tuple it fixes keeps every involution, and breaks
    # s_1 s_3 = s_3 s_1 at that tuple and at its partner under s_1 s_3
    mod = kronecker_f0v
    for (m, x), block in sorted(mod.sn_actions.items()):
        if m != 1 or swap_tuple(x, 1) != x or block.rows < 2:
            continue
        one = Mat.identity(block.rows, block.order)
        shear = _bumped(one, 0, 1)          # its inverse is 2 - shear
        sns = dict(mod.sn_actions) | {(1, x): shear @ block @ (one + one - shear)}
        mutant = WreathModule(mod.params, mod.support, mod.edge_actions, sns)
        issues = [str(i) for i in _assert_walks_agree(mutant).structural]
        if any("commute" in i for i in issues):
            break
    else:
        raise AssertionError("no tuple where the conjugated s_1 breaks the commuting check")
    assert not any("involution" in i for i in issues)
    partner = swap_tuple(swap_tuple(x, 3), 1)
    assert {f"tuple ({','.join(j)}): s_1 and s_3 do not commute" for j in (x, partner)} \
        <= set(issues)


def test_one_sided_inverse_is_not_an_involution(ahat1):
    # s(1,0) s(0,1) = 1 but s(0,1) s(1,0) is a rank-one idempotent of size 2
    params = make_params(ahat1, 2, {"0": 0, "1": 0})
    m = WreathModule(params, {("0", "1"): 1, ("1", "0"): 2}, {},
                     {(1, ("0", "1")): mat([[1], [0]]), (1, ("1", "0")): mat([[1, 0]])})
    issues = _assert_walks_agree(m).structural
    assert [str(i) for i in issues] == ["tuple (1,0): s_1 is not an involution"]


def test_equivariance_is_checked_in_full_once_a_group_relation_fails(ahat1):
    # s_1 is not an involution on (0,1), (1,0); a at position 1 of (0,1) passes
    # the s_1-equivariance check, and a at position 2 of (1,0) fails it
    params = make_params(ahat1, 2, {"0": 0, "1": 0})
    m = WreathModule(params, {("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 1},
                     {("a", 1, ("0", "1")): mat([[1]]), ("a", 2, ("1", "0")): mat([[frac(1, 2)]])},
                     {(1, ("0", "1")): mat([[2]]), (1, ("1", "0")): mat([[1]]),
                      (1, ("1", "1")): mat([[1]])})
    issues = [str(i) for i in _assert_walks_agree(m).structural]
    assert "tuple (1,0): edge a at position 2 is not s_1-equivariant" in issues
    assert "tuple (0,1): edge a at position 1 is not s_1-equivariant" not in issues


def test_verifier_skips_implied_checks(kronecker_f0v, monkeypatch):
    # the full walk takes 2,000 products on this module, the verifier 546
    calls = []
    product = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or product(a, b))
    assert verify_relations(unverified_copy(kronecker_f0v)).passed
    assert len(calls) < 560


def test_equivariance_is_certified_on_spanning_trees(kronecker_v, kronecker_f0v, monkeypatch):
    # the tree edges of each orbit of (edge, position, tuple) and the root's
    # stabiliser generators: 136 checks on F_0V (240 with the partner skip
    # alone, 384 in full) and 10 on V (24 in full)
    import wreathq.modules as modules
    checks = []
    residual = modules._residual
    monkeypatch.setattr(modules, "_residual", lambda mod, j, lhs, rhs: (
        checks.append(j) if not isinstance(lhs[-1], int) else None) or residual(mod, j, lhs, rhs))
    counts = []
    for mod in (kronecker_f0v, kronecker_v):
        checks.clear()
        assert structural_report(unverified_copy(mod)) == []
        counts.append(len(checks))
    assert counts == [136, 10]


def _stabiliser_breaking_mutant(mod):
    """The module with E + N at a root triple x0 = (e, p0, r), N not commuting
    with a generator s_m of the stabiliser of x0, and E + N transported to the
    rest of the orbit along the verifier's spanning tree; with (e, p0, r, m)."""
    import wreathq.modules as modules
    sn = mod.sn_actions
    for r in filter(lambda j: j == tuple(sorted(j)), mod.tuples()):
        for p0, v in enumerate(r, 1):
            if v in r[:p0 - 1]:
                continue
            for e in mod.params.quiver.out_edges(v):
                tgt = mod.edge_target(e.name, p0, r)
                rows, cols = mod.dim(tgt), mod.dim(r)
                for m in range(1, mod.n):
                    if r[m - 1] != r[m] or p0 in (m, m + 1) or not rows:
                        continue
                    for a, b in itertools.product(range(rows), range(cols)):
                        unit = _bumped(Mat.zeros(rows, cols, mod.order), a, b)
                        if sn[(m, tgt)] @ unit != unit @ sn[(m, r)]:
                            break
                    else:
                        continue
                    delta = {(p0, r): unit}
                    for pos, j, k in spanning_tree(mod.n, p0, r):
                        y = (swap_position(pos, k), swap_tuple(j, k))
                        target = mod.edge_target(e.name, pos, j)
                        delta[y] = sn[(k, target)] @ delta[(pos, j)] @ sn[(k, y[1])]
                    edges = dict(mod.edge_actions) | {
                        (e.name, pos, j): edge_matrix(mod, e.name, pos, j) + d
                        for (pos, j), d in delta.items()}
                    mutant = WreathModule(mod.params, mod.support, edges, mod.sn_actions)
                    return mutant, (e.name, p0, r, m)
    raise AssertionError("no root triple with a breakable stabiliser")


def test_the_root_checks_are_needed(kronecker_f0v):
    # every tree check passes on the mutant; the root check against s_m fails,
    # and the full walk then reports what it reports without the trees
    import wreathq.modules as modules
    mutant, (edge, p0, r, m) = _stabiliser_breaking_mutant(kronecker_f0v)
    assert all(modules._equivariant(mutant, edge, pos, j, k)
               for pos, j, k in spanning_tree(mutant.n, p0, r))
    assert not modules._equivariant(mutant, edge, p0, r, m)
    issues = structural_report(mutant)
    assert issues == _full_structural(mutant)
    assert f"tuple ({','.join(r)}): edge {edge} at position {p0} is not s_{m}-equivariant" \
        in [str(i) for i in issues]


def test_the_report_is_computed_once_per_module(corpus, monkeypatch):
    module = dict(corpus)["a1.ind-n3"]
    report = verify_relations(module)
    calls = []
    product = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or product(a, b))
    assert verify_relations(module) is report and calls == []
    monkeypatch.undo()
    # transports and sums of a verified module start with no report
    made = (reorient_module(module, ["a"]), direct_sum(module, module), unverified_copy(module))
    assert all(m._report is None for m in made)
    assert [verify_relations(m) for m in made] == [report] * 3
