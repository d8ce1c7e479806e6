"""The in-process workloads: the exact pipeline, one pass after another.

Every pass rebuilds its input module, so the per-instance caches
(``WreathModule._perm_cache``, the ``SinkCalculus`` space/pi/mu dicts,
``RepMatrices._cache``) start empty; the module-level ``lru_cache``
tables are filled once, in set-up.  Each pass checks its exact answers
and returns the failed checks instead of raising.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from wreathq import cubes, modules, reflection
from wreathq.cyclotomic import Scalar, cyclotomic_polynomial
from wreathq.modules import Params
from wreathq.quiver import Quiver, Weight, dual_reflection
from wreathq.symmetric import YoungDiagram, partitions

# Seeded free weights: small denominators keep every drawn input at about
# the same cost.  Draws that are not generic along the workload's word are
# skipped, so the seed never changes a dimension.
WEIGHTS = tuple(sign * Fraction(p, q) for q in (3, 5, 7) for p in range(1, q)
                for sign in (1, -1))

KRONECKER = Quiver(["0", "1"], [("a", "0", "1"), ("b", "0", "1")])
KRONECKER_N = 4
KRONECKER_NU = Fraction(1, 2)
# The zero-edge module of [2, 2] at vertex 1 extends to the algebra only
# when lambda_1 = nu * (height - width) = 0, so V is a genuine module.
KRONECKER_BLOCKS = ((YoungDiagram([2, 2]), "1"),)
KRONECKER_F0_DIM = 162

A2 = Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0")])
A2_N = 3
A2_NU = Fraction(1, 3)
A2_BLOCKS = ((YoungDiagram([1, 1, 1]), "1"),)  # extends when lambda_1 = 2 nu
A2_WORD = ("0", "2", "1", "0")
A2_DIMS = (8, 64, 125, 343)
A2_TUPLES = (8, 27, 27, 27)
# H^0 of the complex before each of the first three letters must equal the
# next dimension.  Together they take ~2% of the pass; the fourth (into the
# 343-dimensional module) would make cubes a large share of this workload,
# which is meant to stress reflection and leave elimination and cohomology
# almost idle.
A2_CERTIFIED = 3


@dataclass
class State:
    name: str
    params: Params
    blocks: tuple
    inputs: dict


def generic_along(params: Params, word) -> bool:
    """is_generic at every letter, with the weight dual-reflected as the word goes."""
    weight = params.weight
    for letter in word:
        step = Params(params.quiver, params.n, weight, params.nu)
        if not reflection.is_generic(step, letter):
            return False
        weight = dual_reflection(params.quiver, letter, weight)
    return True


def setup(name: str, seed: int) -> State:
    rng = random.Random(seed)
    if name == "a2-word":
        while True:
            lam0, lam2 = rng.choice(WEIGHTS), rng.choice(WEIGHTS)
            weight = Weight({"0": Scalar.rational(lam0), "1": Scalar.rational(2 * A2_NU),
                             "2": Scalar.rational(lam2)}, 1)
            params = Params(A2, A2_N, weight, Scalar.rational(A2_NU))
            if generic_along(params, A2_WORD):
                break
        state = State(name, params, A2_BLOCKS, {"lambda0": str(lam0), "lambda2": str(lam2)})
    else:
        order = 1 if name == "kronecker-q" else 3
        lam0 = (Scalar.rational(rng.choice(WEIGHTS)) if order == 1
                else Scalar.one(order) + Scalar.zeta(order))
        weight = Weight({"0": lam0, "1": Scalar.zero(order)}, order)
        params = Params(KRONECKER, KRONECKER_N, weight, Scalar.rational(KRONECKER_NU, order))
        if not generic_along(params, ("0", "0")):
            raise ValueError(f"lambda0 = {lam0} is not generic")
        state = State(name, params, KRONECKER_BLOCKS, {"lambda0": str(lam0)})
    # fill the module-level caches; every per-instance cache is rebuilt per pass
    order = params.order
    cyclotomic_polynomial(order)
    partitions(params.n)
    Scalar.zeta(order) * Scalar.zeta(order)
    warm = modules.build_induced_zero_e(params, state.blocks)
    if not modules.verify_relations(warm).passed:
        raise ValueError(f"{name}: the input module fails verify_relations")
    return state


def run_pass(state: State, clock=None, mode=None) -> dict:
    """One pass; returns the stage intervals and the failed checks."""
    stages: list[tuple[str, float, float]] = []
    failures: list[str] = []

    def stage(label, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        stages.append((label, t0, time.perf_counter()))
        return out

    def verified(label, module):
        if not stage("verify", modules.verify_relations, module).passed:
            failures.append(f"{label} fails verify_relations")

    def cohomology(label, module, vertex, expected_h0):
        coh = stage("cohomology", cubes.module_cohomology, module, vertex)
        euler = stage("cohomology", cubes.euler_characteristic, module, vertex)
        h0 = sum(dims[0] for dims in coh.values())
        higher = sum(sum(dims[1:]) for dims in coh.values())
        alternating = sum((-1) ** r * d for dims in coh.values() for r, d in enumerate(dims))
        total = sum(v for _, v in euler.per_tuple)
        if (h0, higher) != (expected_h0, 0):
            failures.append(f"{label}: H^0 = {h0}, higher = {higher}; expected {expected_h0}, 0")
        if total != alternating:
            failures.append(f"{label}: Euler total {total} != alternating sum {alternating}")

    v = stage("induce", modules.build_induced_zero_e, state.params, state.blocks)
    verified("V", v)
    if state.name == "a2-word":
        cur = v
        for k, letter in enumerate(A2_WORD):
            if k < A2_CERTIFIED:
                cohomology(f"complex before letter {k + 1}", cur, letter, A2_DIMS[k])
            cur = stage("reflect", reflection.reflection_functor, cur, letter).module
            verified(f"letter {k + 1}", cur)
            got = (sum(cur.support.values()), len(cur.support))
            if got != (A2_DIMS[k], A2_TUPLES[k]):
                failures.append(f"letter {k + 1}: (dim, tuples) = {got}, expected "
                                f"{(A2_DIMS[k], A2_TUPLES[k])}")
    else:
        f = stage("reflect", reflection.reflection_functor, v, "0").module
        verified("F0V", f)
        ff = stage("reflect", reflection.reflection_functor, f, "0").module
        if sum(f.support.values()) != KRONECKER_F0_DIM:
            failures.append(f"dim F0V = {sum(f.support.values())}, expected {KRONECKER_F0_DIM}")
        if ff.support != v.support or ff.params.weight != v.params.weight:
            failures.append("F0F0V differs from V in support or weight")
        cohomology("complex of F0V at 0", f, "0", sum(v.support.values()))
    return {"stages": stages, "failures": failures}
