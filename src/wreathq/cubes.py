"""Commutative cubes, their signed total complexes, and module cohomology.

A cube assigns a space to every subset of a finite index set and a map
to every one-step inclusion, with commuting squares.  The total complex
places the subsets of size r in degree r, twisted by the determinant
line of the subset: inserting p into an ascending basis contributes the
sign (-1)^(number of larger elements already present).  Its d^2 = 0
holds exactly when every square commutes, and ``complex_from_cube``, the
one path from a cube to its complex, checks that on the squares, or
for a module cube takes the certificate it carries.
For a module and a reflection vertex, the cube of a tuple j has the
auxiliary spaces V(j, Delta(j) minus J) with the pi maps as structure
maps; degree-zero cohomology recovers the reflection functor.  Its
squares commute by relation (ii), so ``module_cube`` stores the
module's passed ``verify_relations`` report, computed once per module,
on each cube as that certificate.
``module_cohomology`` first tries a mapping cone (Weibel, Homological
Algebra, 1.5).  For q in Delta(j) the total complex is the cone of phi_q
from the face of the J without q to the face of the J with q, and phi_q
is a chain map because the squares commute (the certificate).  Its
blocks pi_q(j, D) are block diagonal over the assignments of D - q, with
the sink maps B_{t,q} = pi_q(t, (q,)) into V_t as blocks.  Relation (i)
at (t, q) says that B_{t,q} after the signed reverse edges is lambda_i +
nu sum_{m in P-q} s_{qm} on V_t, P the positions of t at the vertex: a
Jucys-Murphy element of S_P, with eigenvalues the contents c, |c| < n
(Okounkov-Vershik, Selecta Math. 2, 1996).  ``is_generic`` rules out
lambda_i + c nu = 0, so each B_{t,q} is onto; a square one is invertible,
phi_q is an isomorphism and the cone is acyclic.  The other cubes
(listed in ``module_cohomology``) are ranked through their complex.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional

from .cyclotomic import Scalar
from .errors import FormatError
from .linalg import BlockBuilder, Mat, rank, rank_mod_p
from .modules import VerifyReport, WreathModule, verify_relations
from .reflection import SinkCalculus, candidate_tuples, is_generic
from .symmetric import Perm, partitions


class Cube(NamedTuple):
    """A cube over an ascending index set ``delta``, as a plain record.

    ``spaces`` maps an ascending subset tuple to its dimension and ``maps``
    maps (subset, p), p not in the subset, to the structure map into the
    subset with p inserted; an absent space or map is zero.  Nothing is
    normalised or re-checked: ``module_cube`` builds its cubes correct by
    construction.  ``certificate`` is the passed ``verify_relations``
    report of a module cube, which stands in for the squares, or None.
    """

    delta: tuple
    spaces: dict
    maps: dict
    order: int = 1
    certificate: Optional[VerifyReport] = None


def _subsets(delta: tuple):
    for k in range(len(delta) + 1):
        yield from itertools.combinations(delta, k)


def _path(cube: Cube, subset: tuple, p, q) -> Optional[Mat]:
    """The map from ``subset`` to its union with p and q through p, or None if it is zero."""
    first = cube.maps.get((subset, p))
    second = cube.maps.get((tuple(sorted((*subset, p))), q))
    return None if first is None or second is None else (second @ first) or None


def _validate(cube: Cube) -> None:
    """Exact commutativity of every square."""
    for subset in _subsets(cube.delta):
        rest = [p for p in cube.delta if p not in subset]
        for p, q in itertools.combinations(rest, 2):
            if _path(cube, subset, p, q) != _path(cube, subset, q, p):
                raise FormatError(f"cube square at {subset} with {p}, {q} does not commute")


class ComplexTerm(NamedTuple):
    subsets: tuple          # the size-r subsets in canonical order
    offsets: tuple[int, ...]
    total: int


class ChainComplex(NamedTuple):
    """Terms C^0 .. C^len(delta) and differentials d_r: C^r -> C^{r+1}.

    A plain record, built only by ``complex_from_cube``, which checks the
    squares of its cube first: that is the d^2 = 0 ``cohomology`` relies on.
    """

    terms: list[ComplexTerm]
    diffs: list[Mat]

    def dims(self) -> list[int]:
        return [t.total for t in self.terms]


def complex_from_cube(cube: Cube) -> ChainComplex:
    """The signed total complex of a commutative cube; the only assembly path.

    The block of d_{r+1} d_r from J to J + p + q is the difference of
    the two paths round the square at J, up to sign, so d^2 = 0 holds
    exactly when every square commutes.  A cube from ``module_cube`` of a
    module that passed ``verify_relations`` carries the report, which
    stands in for the squares.  Any other cube has its squares checked
    before assembly, and the ``FormatError`` names the first square that
    does not commute.  An absent map is a zero block, and is skipped.
    """
    if cube.certificate is None:
        _validate(cube)
    terms = []
    for r in range(len(cube.delta) + 1):
        subsets = tuple(itertools.combinations(cube.delta, r))
        offsets = []
        total = 0
        for s in subsets:
            offsets.append(total)
            total += cube.spaces.get(s, 0)
        terms.append(ComplexTerm(subsets, tuple(offsets), total))
    diffs = []
    for src, tgt in itertools.pairwise(terms):
        tgt_index = {s: k for k, s in enumerate(tgt.subsets)}
        bb = BlockBuilder(tgt.total, src.total, cube.order)
        for k, subset in enumerate(src.subsets):
            for p in cube.delta:
                block = cube.maps.get((subset, p))
                if not block:
                    continue
                if sum(q > p for q in subset) % 2:
                    block = -block
                bigger = tgt_index[tuple(sorted((*subset, p)))]
                bb.add_block(tgt.offsets[bigger], src.offsets[k], block)
        diffs.append(bb.build())
    return ChainComplex(terms, diffs)


def cohomology(cx: ChainComplex) -> tuple[int, ...]:
    """dim H^r = dim C^r - rank d_r - rank d_{r-1}, with certified ranks.

    Each rank comes from ``rank_mod_p`` where it can be certified, without
    exact elimination.  Write rho_r for the rank of d_r mod p and R_r for
    its exact rank; the ring map to F_p gives rho_r <= R_r.  Going down
    from the top degree, R_{r+1} is already exact, certified or computed
    (R_top = 0).  Because d^2 = 0 (``complex_from_cube`` checked the
    squares of the cube, or took the certificate of a module cube),
    im d_r lies in ker d_{r+1}, so R_r <= dim C^{r+1} - R_{r+1}.  Hence
    rho_r + R_{r+1} = dim C^{r+1} makes rho_r exact.  Otherwise (higher
    cohomology, an unlucky p, or p dividing a denominator) that one rank
    is R_r = ``rank(d_r)``, by exact elimination.
    """
    dims = cx.dims()
    ranks = [0] * len(dims)     # ranks[r] = rank d_r; the map out of the top is 0
    for r, d in reversed(list(enumerate(cx.diffs))):
        got = rank_mod_p(d)
        if got is None or got + ranks[r + 1] != dims[r + 1]:
            got = rank(d)
        ranks[r] = got
    return tuple(dims[r] - ranks[r] - (ranks[r - 1] if r else 0) for r in range(len(dims)))


# ---------------------------------------------------------------------------
# The module cube of a reflection vertex
# ---------------------------------------------------------------------------

@functools.cache
def _levels(delta: tuple):
    """(J, Delta - J) for every subset J of Delta, in cube order; kept per Delta."""
    return tuple((s, tuple(p for p in delta if p not in s)) for s in _subsets(delta))


def _cube(calc: SinkCalculus, j: tuple, delta: tuple, spaces: dict, certificate) -> Cube:
    maps = {(subset, p): calc.pi(j, level, p) for subset, level in _levels(delta) for p in level}
    return Cube(delta, spaces, maps, calc.order, certificate)


def _level_dims(calc: SinkCalculus, j: tuple, delta: tuple) -> dict:
    return {subset: calc.space(j, level).total for subset, level in _levels(delta)}


def module_cube(module: WreathModule, vertex: str) -> dict:
    """{j: Z_j} over the candidate tuples, Z_j(J) = V(j, Delta(j) - J) with the pi maps.

    Each cube carries ``verify_relations(module)`` when it passed, as the
    certificate of d^2 = 0, and None otherwise.  The block of d^2 from
    level D to D - {p, q} on the summand of xi is +-(b_q a_p - a_p b_q)
    on V_t(j, xi), with a = R[xi_p] and b = R[xi_q] edges of the double
    into the vertex, acting by the module's stored actions.  That is the
    relation-(ii) instance at (t, p, q) between out-edges of t_p and t_q,
    which the verifier checks directly.  Two edges into a loop-free
    vertex are never a star pair, so its right-hand side is 0.
    """
    calc = SinkCalculus(module, vertex)
    report = verify_relations(module)
    certificate = report if report.passed else None
    cubes = {}
    for j in candidate_tuples(calc):
        delta = calc.delta(j)
        cubes[j] = _cube(calc, j, delta, _level_dims(calc, j, delta), certificate)
    return cubes


def _cone_acyclic(calc: SinkCalculus, j: tuple, delta: tuple, spaces: dict) -> bool:
    """Whether the Euler total is 0 and each B_{t,q}, q = min Delta(j), t a tuple of a
    level inside Delta(j) - q, is square: at a generic vertex, then, invertible."""
    if sum((-1) ** len(subset) * dim for subset, dim in spaces.items()):
        return False
    q = delta[0]
    return all(calc.space(t, (q,)).total == calc.space(t, ()).total
               for _, level in _levels(delta[1:]) for t in calc.space(j, level).t_tuples)


def module_cohomology(module: WreathModule, vertex: str) -> dict:
    """Per-tuple cohomology dimensions of the associated complex.

    A cube with empty Delta(j) is V_j in degree 0.  With a passed report
    (phi_q a chain map, and relation (i) on every V_t) at a vertex where
    ``is_generic`` holds, every sink map B_{t,q} is surjective, so a cube
    with Euler total 0 whose sink maps, q = min Delta(j), are square has
    H = 0, and no pi block, rank or complex is built for it.  The fallback
    ``cohomology(complex_from_cube(cube))``, from the same calculus, takes
    a failed report (its ``FormatError`` names the first square that does
    not commute), a non-generic vertex, a nonzero Euler total and a
    non-square sink map.
    """
    calc = SinkCalculus(module, vertex)
    report = verify_relations(module)
    certified = report.passed and is_generic(module.params, vertex)
    out = {}
    for j in candidate_tuples(calc):
        delta = calc.delta(j)
        spaces = _level_dims(calc, j, delta)
        if not delta:
            out[j] = (spaces[()],)
        elif certified and _cone_acyclic(calc, j, delta, spaces):
            out[j] = (0,) * (len(delta) + 1)
        else:
            cube = _cube(calc, j, delta, spaces, report if report.passed else None)
            out[j] = cohomology(complex_from_cube(cube))
    return out


class EulerReport(NamedTuple):
    per_tuple: tuple                     # ((tuple, integer), ...)
    character: tuple                     # ((partition, Scalar), ...)


def euler_characteristic(module: WreathModule, vertex: str) -> EulerReport:
    """Alternating sums of the complex terms, per tuple and per conjugacy class.

    The class character evaluates each permutation on every level of the
    complex it fixes, twisted by the sign of its action on the
    determinant index; at nu = 0 with invertible weight at the vertex
    this reproduces the dimensions and character of the reflected module.
    """
    calc = SinkCalculus(module, vertex)
    tuples = candidate_tuples(calc)
    n = module.n
    per_tuple = []
    for j in tuples:
        total = 0
        for subset, level in _levels(calc.delta(j)):
            total += (-1) ** len(subset) * calc.space(j, level).total
        per_tuple.append((j, total))

    character = []
    for parts in partitions(n):
        sigma = Perm.from_cycle_type(parts, n)
        value = Scalar.zero(module.order)
        for j in tuples:
            if sigma.act_tuple(j) != j:
                continue
            for subset, level in _levels(calc.delta(j)):
                if tuple(sorted(sigma(p) for p in subset)) != subset:
                    continue
                # sigma fixes j and the level, so it acts on V(j, level) itself
                tr = calc.sigma_trace(j, level, sigma)
                # the sign of sigma on the ascending subset
                pos = {p: k for k, p in enumerate(subset, 1)}
                det_sign = Perm([pos[sigma(p)] for p in subset]).sign()
                value = value - tr if (-1) ** len(subset) * det_sign < 0 else value + tr
        character.append((parts, value))
    return EulerReport(tuple(per_tuple), tuple(character))
