from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.errors import FormatError
from wreathq.quiver import DimVector, Weight
from wreathq.sra import (
    GammaData, SRAParams, deformability_report, recover_sra, translate_params,
)
from wreathq.symmetric import YoungDiagram

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
    assert lam == Weight({"0": 3, "1": 0, "2": 0}, 3)
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
    lam0 = Weight({"0": 1, "1": 0})
    nu = Scalar.rational(Fraction(1, 2))
    good = Weight({"0": 1, "1": Fraction(-1, 2)})
    rep = deformability_report(q, lam0, good, nu, [],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert rep.passed
    bad = Weight({"0": 1, "1": Fraction(1, 2)})
    rep = deformability_report(q, lam0, bad, nu, [],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert not rep.passed
    assert any(i.label == "trace[1]" and not i.passed for i in rep.items)


def test_conditions_column_diagram_flips_sign():
    q = _ahat1()
    lam0 = Weight({"0": 1, "1": 0})
    nu = Scalar.rational(Fraction(1, 2))
    good = Weight({"0": 1, "1": Fraction(1, 2)})
    rep = deformability_report(q, lam0, good, nu, [],
                               [(YoungDiagram([1, 1]), DimVector.unit("1"))])
    assert rep.passed


def test_conditions_non_rectangle_fails():
    q = _ahat1()
    lam0 = Weight({"0": 1, "1": 0})
    rep = deformability_report(q, lam0, lam0, Scalar.rational(1), [],
                               [(YoungDiagram([2, 1]), DimVector.unit("1"))])
    assert not rep.passed
    assert any(i.label == "rectangle[1]" and not i.passed for i in rep.items)


def test_conditions_transport_along_word():
    # Y = F_0(S_1) has dimension vector (2, 1); the word [0] moves it to
    # eps_1 and the trace condition becomes lambda . alpha = -nu
    q = _ahat1()
    lam0 = Weight({"0": -1, "1": 2})
    alpha = DimVector.make({"0": 2, "1": 1})
    nu = Scalar.rational(Fraction(1, 3))
    lam = Weight({"0": -1, "1": Fraction(2, 1) - Fraction(1, 3)})
    # lambda . alpha = -2 + 2 - 1/3 = -1/3 = -nu
    rep = deformability_report(q, lam0, lam, nu, ["0"],
                               [(YoungDiagram([2]), alpha)])
    assert rep.passed, rep.summary()


def test_conditions_adjacent_vertices_reported():
    q = _ahat1()
    lam0 = Weight({"0": 0, "1": 0})
    rep = deformability_report(
        q, lam0, lam0, Scalar.rational(1), [],
        [(YoungDiagram([1]), DimVector.unit("0")),
         (YoungDiagram([1]), DimVector.unit("1"))])
    assert any(i.label == "separation" and not i.passed for i in rep.items)


def test_conditions_non_unit_transport_reported():
    q = _ahat1()
    lam0 = Weight({"0": 1, "1": 0})
    rep = deformability_report(q, lam0, lam0, Scalar.zero(), ["0"],
                               [(YoungDiagram([2]), DimVector.unit("1"))])
    assert any(i.label == "transport[1]" and not i.passed for i in rep.items)


def test_table_gamma_with_classes():
    # the character table of the symmetric group on three letters:
    # classes {e}, {three transpositions}, {two 3-cycles}
    from wreathq.io import parse_gamma
    doc = {
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
    gamma = parse_gamma(doc)
    classes = {frozenset(c) for c in gamma.conjugacy_classes()}
    assert classes == {frozenset({"e"}), frozenset({"t1", "t2", "t3"}),
                       frozenset({"c1", "c2"})}
    t = Scalar.rational(Fraction(1, 2))
    k = Scalar.rational(3)
    c = {e: Scalar.rational(2) for e in ("t1", "t2", "t3")} | {e: Scalar.rational(-1)
                                                               for e in ("c1", "c2")}
    lam, nu = translate_params(gamma, SRAParams(t, k, c))
    # trace of t + c on the sign representation: t - 3*2 + 2*(-1)... with signs
    assert lam["triv"] == t + 6 - 2
    assert lam["sgn"] == t - 6 - 2
    assert lam["std"] == 2 * t + 0 + 2
    back = recover_sra(gamma, lam, nu)
    assert back.t == t and back.k == k
    assert all(back.c[e] == c[e] for e in c)


def test_conditions_refuse_n_below_one():
    # r_0 negates lambda_0 = 0, so the coordinate clashes at p = 0 for every n >= 1
    q = _ahat1()
    lam0 = Weight({"0": 1, "1": 0})
    lam = Weight({"0": 0, "1": 1})
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
    lam0, lam = Weight({"0": 1, "1": 1}), Weight({"0": 0, "1": 1})
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
