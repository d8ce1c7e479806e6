"""Commutative cubes, their signed total complexes, and module cohomology.

A cube assigns a space to every subset of a finite index set and a map
to every one-step inclusion, with commuting squares.  The total complex
places the subsets of size r in degree r, twisted by the determinant
line of the subset: inserting p into an ascending basis contributes the
sign (-1)^(number of larger elements already present).  For a module
and a reflection vertex, the cube of a tuple j has the auxiliary spaces
V(j, Delta(j) minus J) with the pi maps as structure maps; degree-zero
cohomology recovers the reflection functor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError
from .linalg import BlockBuilder, Mat, kernel_basis
from .modules import WreathModule, reorient_module
from .reflection import SinkCalculus, candidate_tuples, sink_flips
from .symmetric import Perm, partitions


class Cube:
    """A commutative cube: dims per subset, maps per (subset, new element)."""

    def __init__(self, delta: Sequence, spaces: dict, maps: dict, order: int = 1):
        self.delta = tuple(delta)
        if len(set(self.delta)) != len(self.delta):
            raise FormatError("cube index set has repeats")
        self.order = order
        self.spaces = {}
        for subset in _subsets(self.delta):
            self.spaces[subset] = int(spaces.get(subset, 0))
        self.maps = {}
        for (subset, p), mat in maps.items():
            key = (tuple(sorted(subset, key=self._rank)), p)
            self.maps[key] = mat
        for subset in _subsets(self.delta):
            for p in self.delta:
                if p in subset:
                    continue
                m = self.map(subset, p)
                tgt = self._insert(subset, p)
                if (m.rows, m.cols) != (self.spaces[tgt], self.spaces[subset]):
                    raise FormatError(f"map at ({subset}, {p}) has the wrong shape")

    def _rank(self, x):
        return self.delta.index(x)

    def _insert(self, subset: tuple, p) -> tuple:
        return tuple(sorted(subset + (p,), key=self._rank))

    def map(self, subset: tuple, p) -> Mat:
        subset = tuple(sorted(subset, key=self._rank))
        got = self.maps.get((subset, p))
        if got is not None:
            return got
        tgt = self._insert(subset, p)
        return Mat.zeros(self.spaces[tgt], self.spaces[subset], self.order)

    def validate(self) -> None:
        """Exact commutativity of every square."""
        for subset in _subsets(self.delta):
            rest = [p for p in self.delta if p not in subset]
            for p, q in itertools.combinations(rest, 2):
                lhs = self.map(self._insert(subset, p), q) @ self.map(subset, p)
                rhs = self.map(self._insert(subset, q), p) @ self.map(subset, q)
                if lhs != rhs:
                    raise FormatError(f"cube square at {subset} with {p}, {q} does not commute")

    def restricted(self, q, side: int) -> "Cube":
        """The two faces in direction q: side 0 keeps J, side 1 keeps J + q."""
        small = tuple(x for x in self.delta if x != q)
        spaces = {}
        maps = {}
        for subset in _subsets(small):
            big = subset if side == 0 else self._insert(subset, q)
            spaces[subset] = self.spaces[big]
            for p in small:
                if p not in subset:
                    maps[(subset, p)] = self.map(big, p)
        return Cube(small, spaces, maps, self.order)


def _subsets(delta: tuple):
    for k in range(len(delta) + 1):
        yield from itertools.combinations(delta, k)


@dataclass(frozen=True)
class ComplexTerm:
    subsets: tuple          # the size-r subsets in canonical order
    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int


class ChainComplex:
    """Terms C^0 .. C^len(delta) with differentials checked to square to zero."""

    def __init__(self, terms: list[ComplexTerm], diffs: list[Mat], order: int):
        self.terms = terms
        self.diffs = diffs
        self.order = order

    def dims(self) -> list[int]:
        return [t.total for t in self.terms]

    def differential(self, r: int) -> Mat:
        if 0 <= r < len(self.diffs):
            return self.diffs[r]
        rows = self.terms[r + 1].total if r + 1 < len(self.terms) else 0
        cols = self.terms[r].total if 0 <= r < len(self.terms) else 0
        return Mat.zeros(rows, cols, self.order)


def complex_from_cube(cube: Cube) -> ChainComplex:
    """The signed total complex of a commutative cube; d*d = 0 is verified."""
    cube.validate()
    order = cube.order
    n = len(cube.delta)
    terms = []
    for r in range(n + 1):
        subsets = [s for s in _subsets(cube.delta) if len(s) == r]
        dims = [cube.spaces[s] for s in subsets]
        offsets = []
        total = 0
        for d in dims:
            offsets.append(total)
            total += d
        terms.append(ComplexTerm(tuple(subsets), tuple(dims), tuple(offsets), total))
    diffs = []
    for r in range(n):
        src, tgt = terms[r], terms[r + 1]
        tgt_index = {s: k for k, s in enumerate(tgt.subsets)}
        bb = BlockBuilder(tgt.total, src.total, order)
        for k, subset in enumerate(src.subsets):
            for p in cube.delta:
                if p in subset:
                    continue
                block = cube.map(subset, p)
                if not block:
                    continue
                bigger = cube._insert(subset, p)
                sign = sum(1 for q in subset if cube._rank(q) > cube._rank(p))
                if sign % 2:
                    block = -block
                bb.add_block(tgt.offsets[tgt_index[bigger]], src.offsets[k], block)
        diffs.append(bb.build())
    for r in range(n - 1):
        if diffs[r + 1] @ diffs[r]:
            raise AssertionError("differential does not square to zero")
    return ChainComplex(terms, diffs, order)


@dataclass(frozen=True)
class CohomologyData:
    dims: tuple[int, ...]
    h0_basis: Mat

    def __getitem__(self, r: int) -> int:
        return self.dims[r] if 0 <= r < len(self.dims) else 0


def cohomology(cx: ChainComplex) -> CohomologyData:
    """dim H^r = dim ker d_r - rank d_{r-1}; representatives kept in degree 0.

    One elimination per differential: rank d_r = cols - dim ker d_r.
    """
    dims = []
    n = len(cx.terms)
    prev_rank = 0
    h0 = None
    for r in range(n):
        d = cx.differential(r)
        ker = kernel_basis(d)
        dims.append(ker.cols - prev_rank)
        if r == 0:
            h0 = ker
        prev_rank = d.cols - ker.cols
    return CohomologyData(tuple(dims), h0 if h0 is not None else Mat.zeros(0, 0, cx.order))


# ---------------------------------------------------------------------------
# The module cube of a reflection vertex
# ---------------------------------------------------------------------------

@dataclass
class ModuleCubes:
    """One commutative cube per candidate tuple, in sink form."""

    calculus: SinkCalculus
    cubes: dict          # tuple -> Cube

    def tuples(self):
        return sorted(self.cubes)


def module_cube(module: WreathModule, vertex: str) -> ModuleCubes:
    """Z_j(J) = V(j, Delta(j) - J) with the pi maps as structure maps."""
    flips = sink_flips(module.params.quiver, vertex)
    sink = reorient_module(module, flips)
    calc = SinkCalculus(sink, vertex)
    cubes = {}
    for j in candidate_tuples(calc, include_interior=True):
        delta = calc.delta(j)
        spaces = {}
        maps = {}
        for subset in _subsets(delta):
            level = tuple(p for p in delta if p not in subset)
            spaces[subset] = calc.space(j, level).total
            for p in level:
                maps[(subset, p)] = calc.pi(j, level, p)
        if spaces[()] or any(spaces.values()):
            cubes[j] = Cube(delta, spaces, maps, module.order)
    return ModuleCubes(calc, cubes)


def module_cohomology(module: WreathModule, vertex: str) -> dict:
    """Per-tuple cohomology dimensions of the associated complex."""
    mc = module_cube(module, vertex)
    out = {}
    for j, cube in mc.cubes.items():
        data = cohomology(complex_from_cube(cube))
        out[j] = data.dims
    return out


@dataclass(frozen=True)
class EulerReport:
    per_tuple: tuple                     # ((tuple, integer), ...)
    character: tuple                     # ((partition, Scalar), ...)

    def per_tuple_dict(self) -> dict:
        return dict(self.per_tuple)

    def character_dict(self) -> dict:
        return dict(self.character)


def euler_characteristic(module: WreathModule, vertex: str) -> EulerReport:
    """Alternating sums of the complex terms, per tuple and per conjugacy class.

    The class character evaluates each permutation on every level of the
    complex it fixes, twisted by the sign of its action on the
    determinant index; at nu = 0 with invertible weight at the vertex
    this reproduces the dimensions and character of the reflected module.
    """
    mc = module_cube(module, vertex)
    calc = mc.calculus
    n = module.n
    per_tuple = []
    for j in mc.tuples():
        delta = calc.delta(j)
        total = 0
        for subset in _subsets(delta):
            level = tuple(p for p in delta if p not in subset)
            total += (-1) ** len(subset) * calc.space(j, level).total
        per_tuple.append((j, total))

    character = []
    for parts in partitions(n):
        sigma = Perm.from_cycle_type(parts, n)
        value = Scalar.zero(module.order)
        for j in mc.tuples():
            if sigma.act_tuple(j) != j:
                continue
            delta = calc.delta(j)
            for subset in _subsets(delta):
                if tuple(sorted(sigma(p) for p in subset)) != subset:
                    continue
                level = tuple(p for p in delta if p not in subset)
                space = calc.space(j, level)
                tr = Scalar.zero(module.order)
                for k, xi in enumerate(space.xis):
                    assignment = dict(zip(level, xi))
                    moved = {sigma(p): r for p, r in assignment.items()}
                    if moved != assignment:
                        continue
                    t = space.t_tuples[k]
                    if sigma.act_tuple(t) != t:
                        continue
                    tr = tr + calc.module.perm_matrix(sigma, t).trace()
                det_sign = _restricted_sign(sigma, subset)
                coeff = (-1) ** len(subset) * det_sign
                value = value + tr * coeff
        character.append((parts, value))
    return EulerReport(tuple(per_tuple), tuple(character))


def _restricted_sign(sigma: Perm, subset: tuple) -> int:
    """Sign of the permutation induced on an invariant ascending subset."""
    order = {p: k for k, p in enumerate(subset)}
    images = [order[sigma(p)] for p in subset]
    sign = 1
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                sign = -sign
    return sign


def cone_faces(cube: Cube, q) -> tuple[Cube, Cube, dict]:
    """The two faces in direction q and the connecting maps between them."""
    z0 = cube.restricted(q, 0)
    z1 = cube.restricted(q, 1)
    connecting = {}
    for subset in _subsets(z0.delta):
        connecting[subset] = cube.map(subset, q)
    return z0, z1, connecting
