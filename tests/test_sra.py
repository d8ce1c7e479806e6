import random
from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import FormatError
from wreathq.linalg import rref
from wreathq.quiver import DimVector, Weight
from wreathq.sra import (
    GammaData, SRAParams, deformability_report, recover_sra, translate_params,
)
from wreathq.symmetric import YoungDiagram

from conftest import mat, rational_weight
from reference import affine_data, mckay_quiver_cyclic


def test_mckay_m2_is_double_edge_pair():
    q = mckay_quiver_cyclic(2)
    assert q.vertices == ("0", "1")
    assert [(e.tail, e.head) for e in q.edges] == [("0", "1"), ("0", "1")]


def test_mckay_m3_is_cycle():
    q = mckay_quiver_cyclic(3)
    assert [(e.tail, e.head) for e in q.edges] == [("0", "1"), ("1", "2"), ("2", "0")]


def test_mckay_rejects_trivial_group():
    with pytest.raises(FormatError):
        mckay_quiver_cyclic(1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mckay_delta_matches_dims(m):
    q = mckay_quiver_cyclic(m)
    gamma = GammaData.cyclic(m)
    delta = affine_data(q)
    assert delta is not None
    assert delta.as_dict() == {v: gamma.dims[v] for v in gamma.vertices}


def test_translate_z2():
    gamma = GammaData.cyclic(2)
    t, k, c1 = Scalar.rational(1, 2), Scalar.rational(Fraction(1, 2), 2), Scalar.rational(1, 2)
    lam, nu = translate_params(gamma, SRAParams(t, k, {"g1": c1}))
    assert lam == Weight({"0": t + c1, "1": t - c1}, 2)
    assert nu == k  # k * |Gamma| / 2 with |Gamma| = 2


def test_translate_z3_roots_sum_to_zero():
    gamma = GammaData.cyclic(3)
    one = Scalar.one(3)
    sra = SRAParams(one, Scalar.rational(1, 3), {"g1": one, "g2": one})
    lam, nu = translate_params(gamma, sra)
    # 1 + zeta + zeta^2 = 0 makes the nontrivial coordinates collapse
    assert lam == rational_weight({"0": 3, "1": 0, "2": 0}, 3)
    assert nu == Scalar.rational(Fraction(3, 2), 3)


def test_translate_zero_c():
    gamma = GammaData.cyclic(4)
    t = Scalar.rational(Fraction(2, 3), 4)
    lam, nu = translate_params(gamma, SRAParams(t, Scalar.zero(4), {}))
    assert all(lam[v] == t for v in gamma.vertices)
    assert not nu


def test_class_function_enforced():
    # a non-class function on a table with merged columns must be rejected
    order = 4
    table = {
        "0": {"e": Scalar.one(1), "g": Scalar.one(1), "h": Scalar.one(1), "gh": Scalar.one(1)},
        "1": {"e": Scalar.one(1), "g": Scalar.rational(-1), "h": Scalar.one(1),
              "gh": Scalar.rational(-1)},
    }
    # fake two-element character table cannot satisfy sum dims^2 = order
    with pytest.raises(FormatError):
        GammaData(order, ("e", "g", "h", "gh"), ("0", "1"), table, {"0": 1, "1": 1}, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fourier_round_trip(m):
    gamma = GammaData.cyclic(m)
    t = Scalar.rational(Fraction(3, 2), m)
    k = Scalar.rational(Fraction(-1, 3), m)
    c = {f"g{s}": Scalar.rational(Fraction(s, 2), m) for s in range(1, m)}
    lam, nu = translate_params(gamma, SRAParams(t, k, c))
    back = recover_sra(gamma, lam, nu)
    assert back.t == t
    assert back.k == k
    for s in range(1, m):
        assert back.c.get(f"g{s}", Scalar.zero(m)) == c[f"g{s}"]


def _ahat1():
    return mckay_quiver_cyclic(2)


def test_conditions_row_diagram():
    # single 1 x 2 block at vertex 1, empty word: passes exactly when
    # lambda_1 = -nu
    q = _ahat1()
    lam0 = rational_weight({"0": 1, "1": 0})
    nu = Scalar.rational(Fraction(1, 2))
    good = rational_weight({"0": 1, "1": Fraction(-1, 2)})
    rep = deformability_report(q, lam0, good, nu, [],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert rep.passed
    bad = rational_weight({"0": 1, "1": Fraction(1, 2)})
    rep = deformability_report(q, lam0, bad, nu, [],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert not rep.passed
    assert any(i.label == "trace[1]" and not i.passed for i in rep.items)


def test_conditions_column_diagram_flips_sign():
    q = _ahat1()
    lam0 = rational_weight({"0": 1, "1": 0})
    nu = Scalar.rational(Fraction(1, 2))
    good = rational_weight({"0": 1, "1": Fraction(1, 2)})
    rep = deformability_report(q, lam0, good, nu, [],
                               [(YoungDiagram([1, 1]), DimVector.unit("1"))])
    assert rep.passed


def test_conditions_non_rectangle_fails():
    q = _ahat1()
    lam0 = rational_weight({"0": 1, "1": 0})
    rep = deformability_report(q, lam0, lam0, Scalar.rational(1), [],
                               [(YoungDiagram([2, 1]), DimVector.unit("1"))])
    assert not rep.passed
    assert any(i.label == "rectangle[1]" and not i.passed for i in rep.items)


def test_conditions_transport_along_word():
    # Y = F_0(S_1) has dimension vector (2, 1); the word [0] moves it to
    # eps_1 and the trace condition becomes lambda . alpha = -nu
    q = _ahat1()
    lam0 = rational_weight({"0": -1, "1": 2})
    alpha = DimVector.make({"0": 2, "1": 1})
    nu = Scalar.rational(Fraction(1, 3))
    lam = rational_weight({"0": -1, "1": Fraction(2, 1) - Fraction(1, 3)})
    # lambda . alpha = -2 + 2 - 1/3 = -1/3 = -nu
    rep = deformability_report(q, lam0, lam, nu, ["0"],
                               [(YoungDiagram([2]), alpha)])
    assert rep.passed, rep.summary()


def test_conditions_adjacent_vertices_reported():
    q = _ahat1()
    lam0 = rational_weight({"0": 0, "1": 0})
    rep = deformability_report(
        q, lam0, lam0, Scalar.rational(1), [],
        [(YoungDiagram([1]), DimVector.unit("0")),
         (YoungDiagram([1]), DimVector.unit("1"))])
    assert any(i.label == "separation" and not i.passed for i in rep.items)


def test_conditions_non_unit_transport_reported():
    q = _ahat1()
    lam0 = rational_weight({"0": 1, "1": 0})
    rep = deformability_report(q, lam0, lam0, Scalar.zero(), ["0"],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert any(i.label == "transport[1]" and not i.passed for i in rep.items)


# the character tables of the symmetric group on three letters, classes {e},
# {three transpositions}, {two 3-cycles}, and of the dihedral group of order 8,
# classes {e}, {r2}, {r, r3}, {s, sr2}, {sr, sr3}
S3_DOC = {
    "type": "table", "order": 6, "cyclotomic_order": 1,
    "elements": ["e", "t1", "t2", "t3", "c1", "c2"],
    "vertices": ["triv", "sgn", "std"],
    "dims": {"triv": 1, "sgn": 1, "std": 2},
    "table": {
        "triv": {"e": "1", "t1": "1", "t2": "1", "t3": "1", "c1": "1", "c2": "1"},
        "sgn": {"e": "1", "t1": "-1", "t2": "-1", "t3": "-1", "c1": "1", "c2": "1"},
        "std": {"e": "2", "t1": "0", "t2": "0", "t3": "0", "c1": "-1", "c2": "-1"},
    },
}
D4_CLASSES = (("e",), ("r2",), ("r", "r3"), ("s", "sr2"), ("sr", "sr3"))
D4_ROWS = {"triv": (1, 1, 1, 1, 1), "a": (1, 1, 1, -1, -1), "b": (1, 1, -1, 1, -1),
           "ab": (1, 1, -1, -1, 1), "std": (2, -2, 0, 0, 0)}
D4_DOC = {
    "type": "table", "order": 8, "cyclotomic_order": 1,
    "elements": [e for cls in D4_CLASSES for e in cls],
    "vertices": list(D4_ROWS),
    "dims": {v: row[0] for v, row in D4_ROWS.items()},
    "table": {v: {e: str(x) for cls, x in zip(D4_CLASSES, row) for e in cls}
              for v, row in D4_ROWS.items()},
}


def test_table_gamma_with_classes():
    from wreathq.io import parse_gamma
    gamma = parse_gamma(S3_DOC)
    classes = {frozenset(c) for c in gamma.conjugacy_classes()}
    assert classes == {frozenset({"e"}), frozenset({"t1", "t2", "t3"}),
                       frozenset({"c1", "c2"})}
    t = Scalar.rational(Fraction(1, 2))
    k = Scalar.rational(3)
    c = {e: Scalar.rational(2) for e in ("t1", "t2", "t3")} | {e: Scalar.rational(-1)
                                                               for e in ("c1", "c2")}
    lam, nu = translate_params(gamma, SRAParams(t, k, c))
    # trace of t + c on the sign representation: t - 3*2 + 2*(-1)... with signs
    assert lam["triv"] == t + Scalar.rational(6 - 2)
    assert lam["sgn"] == t - Scalar.rational(6 + 2)
    assert lam["std"] == t + t + Scalar.rational(2)
    back = recover_sra(gamma, lam, nu)
    assert back.t == t and back.k == k
    assert all(back.c[e] == c[e] for e in c)


def _recover_by_elimination(gamma, weight, nu):
    """The dictionary inverted as a linear system: one equation per vertex, one
    unknown for t and one per nontrivial class, solved by row reduction."""
    order = weight.order
    nontrivial = [cls for cls in gamma.conjugacy_classes() if gamma.elements[0] not in cls]
    rows = []
    for v in gamma.vertices:
        sums = [sum((gamma.table[v][e] for e in cls), Scalar.zero(order)) for cls in nontrivial]
        rows.append([Scalar.rational(gamma.dims[v], order)] + sums + [weight[v]])
    red, piv = rref(mat(rows, order))
    width = 1 + len(nontrivial)
    assert piv == tuple(range(width))
    c = {e: red[k + 1, width] for k, cls in enumerate(nontrivial) for e in cls
         if red[k + 1, width]}
    return SRAParams(red[0, width], nu * Scalar.rational(Fraction(2, gamma.order), order), c)


def _random_scalar(rng, order):
    x = Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), order)
    if order > 2:
        power = rng.randrange(order)
        x = x + Scalar.zeta(order, power) * Scalar.rational(rng.randint(-2, 2), order)
    return x


def test_orthogonality_inverts_the_dictionary_as_elimination_does():
    from wreathq.io import parse_gamma
    rng = random.Random(25)
    gammas = [GammaData.cyclic(m) for m in range(1, 13)] + [parse_gamma(S3_DOC),
                                                          parse_gamma(D4_DOC)]
    for gamma in gammas:
        order = gamma.scalar_order
        for _ in range(3):
            c = {}
            for cls in gamma.conjugacy_classes()[1:]:
                value = _random_scalar(rng, order) if rng.random() < 0.8 else None
                c.update({e: value for e in cls} if value else {})
            sra = SRAParams(_random_scalar(rng, order), _random_scalar(rng, order), c)
            lam, nu = translate_params(gamma, sra)
            assert recover_sra(gamma, lam, nu) == _recover_by_elimination(gamma, lam, nu) == sra


def test_conditions_refuse_n_below_one():
    # r_0 negates lambda_0 = 0, so the coordinate clashes at p = 0 for every n >= 1
    q = _ahat1()
    lam0 = rational_weight({"0": 1, "1": 0})
    lam = rational_weight({"0": 0, "1": 1})
    blocks = [(YoungDiagram([2]), DimVector.unit("1"))]
    for n in (None, 1, 2):
        rep = deformability_report(q, lam0, lam, Scalar.rational(1), ["0"], blocks, n)
        assert [i.passed for i in rep.items if i.label == "word-genericity"] == [False], n
    for n in (0, -3):
        with pytest.raises(FormatError, match="n must be at least 1"):
            deformability_report(q, lam0, lam, Scalar.rational(1), ["0"], blocks, n)


def test_conditions_refuse_no_blocks_and_no_n():
    # n would be the total size of no diagrams, 0, and word-genericity would
    # check nothing and pass
    lam0, lam = rational_weight({"0": 1, "1": 1}), rational_weight({"0": 0, "1": 1})
    with pytest.raises(FormatError, match="n must be at least 1, got 0"):
        deformability_report(_ahat1(), lam0, lam, Scalar.rational(1), ["0"], [])


def test_table_gamma_needs_a_full_table():
    one = Scalar.one()
    with pytest.raises(FormatError, match="order"):
        GammaData(0, ("e",), ("0",), {"0": {"e": Scalar.zero()}}, {"0": 0}, 1)
    with pytest.raises(FormatError, match="dims"):
        GammaData(1, ("e",), ("0",), {"0": {"e": -one}}, {"0": -1}, 1)
    two = {"0": {"e": one}, "1": {"e": one}}
    for elements in (("e",), ("e", "e")):
        with pytest.raises(FormatError, match="distinct"):
            GammaData(2, elements, ("0", "1"), two, {"0": 1, "1": 1}, 1)
    assert GammaData(1, ("e",), ("0",), {"0": {"e": one}}, {"0": 1}, 1).order == 1
