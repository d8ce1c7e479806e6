"""Shared quivers, parameter builders, and small standard modules."""

from fractions import Fraction

import pytest

from wreathq.cyclotomic import Scalar
from wreathq.linalg import Mat
from wreathq.modules import (
    Params, WreathModule, build_induced_zero_e, verify_relations,
)
from wreathq.quiver import Quiver, Weight
from wreathq.reflection import reflection_functor
from wreathq.symmetric import YoungDiagram

from reference import build_outer_tensor, point_module


@pytest.fixture(scope="session")
def ahat1():
    return Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1")])


@pytest.fixture(scope="session")
def ahat2():
    return Quiver(["0", "1", "2"], [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "2", "0")])


def make_params(quiver, n, lam, nu=0, order=1):
    weight = Weight({v: Scalar.rational(x, order) if not isinstance(x, Scalar) else x
                     for v, x in lam.items()}, order)
    nu_s = nu if isinstance(nu, Scalar) else Scalar.rational(nu, order)
    return Params(quiver, n, weight, nu_s)


def simple_at(quiver, vertex, lam, nu=0):
    """One-dimensional n = 1 module concentrated at a vertex, zero actions."""
    return point_module(make_params(quiver, 1, lam, nu), vertex)


def dimension_vector(mod):
    """Total dimension of a module per vertex, summed over all tuple positions."""
    out = {}
    for j, d in mod.support.items():
        for v in j:
            out[v] = out.get(v, 0) + d
    return out


def unverified_copy(mod):
    """The same module as a new instance, which has no stored verify_relations report."""
    return WreathModule(mod.params, mod.support, mod.edge_actions, mod.sn_actions)


def report_text(report, k=3):
    """The first ``k`` structural issues and relation failures of a verify report."""
    return "; ".join(str(x) for x in report.structural[:k] + report.failures[:k])


def whole_theta(calc, r_idx, ell, j, d):
    """theta as a map out of V(j, D): ``SinkCalculus.theta`` applied to the identity."""
    return calc.theta(r_idx, ell, j, d, Mat.identity(calc.space(j, d).total, calc.order))


def mat(rows, order=1):
    return Mat.from_rows(rows, order)


def frac(a, b=1):
    return Fraction(a, b)


AHAT1 = Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1")])
AHAT2 = Quiver(["0", "1", "2"], [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "2", "0")])

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

# the corpus modules on which the block-map identities are checked
BLOCK_MAP_CORPUS = ("a1.s1", "a1.f0s1", "a1.ind-triv", "a1.ind-sign", "a1.outer-sq",
                    "a1.ind-n3", "a2.ind-triv", "a2.f0s1")


@pytest.fixture(scope="session")
def kronecker_f0v():
    """F_0 of the [2, 2] zero-edge module at vertex 1 on the Kronecker quiver, n = 4."""
    params = make_params(AHAT1, 4, {"0": Fraction(2, 5), "1": 0}, Fraction(1, 2))
    v = build_induced_zero_e(params, [(YoungDiagram([2, 2]), "1")])
    return reflection_functor(v, "0").module


@pytest.fixture(scope="session")
def corpus():
    """At least ten relation-verified modules over the two test quivers."""
    items = []

    def add(name, module):
        report = verify_relations(module)
        assert report.passed, f"corpus module {name} must verify: {report_text(report)}"
        items.append((name, module))

    # --- affine A1 ---------------------------------------------------------
    add("a1.s1", simple_at(AHAT1, "1", {"0": 1, "1": 0}))
    add("a1.s0", simple_at(AHAT1, "0", {"0": 0, "1": Fraction(3, 2)}))
    f0s1 = reflection_functor(simple_at(AHAT1, "1", {"0": 1, "1": 0}), "0").module
    add("a1.f0s1", f0s1)

    p_ind = make_params(AHAT1, 2, {"0": 1, "1": -HALF}, HALF)
    ind_triv = build_induced_zero_e(p_ind, [(YoungDiagram([2]), "1")])
    add("a1.ind-triv", ind_triv)
    add("a1.ind-triv-reflected", reflection_functor(ind_triv, "0").module)

    p_sign = make_params(AHAT1, 2, {"0": 1, "1": HALF}, HALF)
    add("a1.ind-sign", build_induced_zero_e(p_sign, [(YoungDiagram([1, 1]), "1")]))

    p_pair = make_params(AHAT1, 2, {"0": 0, "1": 0}, 0)
    add("a1.ind-pair", build_induced_zero_e(
        p_pair, [(YoungDiagram([1]), "0"), (YoungDiagram([1]), "1")]))

    p_outer = make_params(AHAT1, 2, {"0": 1, "1": 0}, 0)
    y1 = simple_at(AHAT1, "1", {"0": 1, "1": 0})
    add("a1.outer-sq", build_outer_tensor(p_outer, [(2, y1, YoungDiagram([2]))]))

    p_n3 = make_params(AHAT1, 3, {"0": 1, "1": -1}, HALF)
    add("a1.ind-n3", build_induced_zero_e(p_n3, [(YoungDiagram([3]), "1")]))

    p_outer3 = make_params(AHAT1, 3, {"0": 1, "1": 0}, 0)
    add("a1.outer-cube", build_outer_tensor(p_outer3, [(3, y1, YoungDiagram([3]))]))

    # --- affine A2 ---------------------------------------------------------
    add("a2.s1", simple_at(AHAT2, "1", {"0": 1, "1": 0, "2": 1}))
    f0 = reflection_functor(simple_at(AHAT2, "1", {"0": 1, "1": 0, "2": 1}), "0").module
    add("a2.f0s1", f0)

    p2_ind = make_params(AHAT2, 2, {"0": 1, "1": -THIRD, "2": 1}, THIRD)
    add("a2.ind-triv", build_induced_zero_e(p2_ind, [(YoungDiagram([2]), "1")]))

    p2_sign = make_params(AHAT2, 2, {"0": 1, "1": 1, "2": THIRD}, THIRD)
    add("a2.ind-sign", build_induced_zero_e(p2_sign, [(YoungDiagram([1, 1]), "2")]))

    p2_n3 = make_params(AHAT2, 3, {"0": 0, "1": Fraction(2, 3), "2": 0}, THIRD)
    add("a2.ind-n3", build_induced_zero_e(p2_n3, [(YoungDiagram([1, 1, 1]), "1")]))

    assert len(items) >= 10
    assert any(m.params.nu for _, m in items)
    assert all(d <= 6 for _, m in items for d in m.support.values())
    return items
