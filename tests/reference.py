"""Test-side references: constructions and checks that only the tests call.

The library computes the reflection functor, the verifier, cube cohomology
and the parameter dictionary; the tests compare it against the slower or
more general constructions kept here.

- the genericity oracle: invertibility of lambda_i +- nu (s_12 + ... + s_1r)
  in the group algebra k[S_r], through the regular representation
  (acceptance criterion 3's reference for ``reflection.is_generic``);
- the involution witness V = F_i(F_i(V)) and the functor on morphisms,
  both checked by ``check_intertwiner``;
- module builders and transports: the induced module of one-particle
  modules (with point modules, the reference for the library's direct
  zero-edge builder), outer tensors at nu = 0, direct sums, and
  relabelling along a graph automorphism;
- the Cartan matrix and the minimal imaginary root of an affine quiver;
- the cyclic McKay quiver;
- the stored actions of a module with a zero matrix where none is stored,
  a module's comparison key, and the rational value of a scalar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from wreathq import reflection
from wreathq.cyclotomic import Scalar
from wreathq.errors import FormatError, NotInSpanError, ResourceLimitError, WreathqError
from wreathq.linalg import BlockBuilder, Mat, kernel_basis, kron, rank, solve_in_span
from wreathq.modules import Params, WreathModule, reorient_module, swap_tuple
from wreathq.quiver import DimVector, Edge, Quiver, Weight, require_loop_free, symmetrized_form
from wreathq.symmetric import Perm, YoungCosetAction, YoungDiagram, seminormal_rep


class NotGenericError(WreathqError):
    """Parameters lie outside the genericity locus required by the operation."""


# ---------------------------------------------------------------------------
# Zero-filled actions and comparison keys
# ---------------------------------------------------------------------------

def _or_zero(mod: WreathModule, mat: Optional[Mat], tgt: tuple, j: tuple) -> Mat:
    return Mat.zeros(mod.dim(tgt), mod.dim(j), mod.order) if mat is None else mat


def edge_matrix(mod: WreathModule, name: str, pos: int, j: tuple) -> Mat:
    """The stored action of an edge in one position out of V_j, or its zero matrix."""
    return _or_zero(mod, mod.edge_actions.get((name, pos, j)), mod.edge_target(name, pos, j), j)


def sn_matrix(mod: WreathModule, m: int, j: tuple) -> Mat:
    """The stored s_m out of V_j, or its zero matrix."""
    return _or_zero(mod, mod.sn_actions.get((m, j)), swap_tuple(j, m), j)


def perm_matrix(mod: WreathModule, p: Perm, j: tuple) -> Mat:
    """``WreathModule.perm_matrix``, with a zero matrix where a factor is not stored."""
    return _or_zero(mod, mod.perm_matrix(p, j), p.act_tuple(j), j)


def canonical_key(mod: WreathModule) -> tuple:
    """The support, edge actions and S_n actions of a module, sorted."""
    return (tuple(sorted(mod.support.items())),
            tuple(sorted((name, pos, j, mat) for (name, pos, j), mat in mod.edge_actions.items())),
            tuple(sorted((m, j, mat) for (m, j), mat in mod.sn_actions.items())))


def as_fraction(x: Scalar) -> Fraction:
    if not x.is_rational():
        raise ValueError(f"{x} is not rational")
    return Fraction(x.num[0], x.den)


# ---------------------------------------------------------------------------
# The symmetric group algebra
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    if n > 7:
        raise ResourceLimitError("permutation enumeration capped at n = 7")
    return tuple(Perm(p) for p in itertools.permutations(range(1, n + 1)))


def regular_representation(element: dict[Perm, Scalar], r: int, order: int = 1) -> Mat:
    """Matrix of left multiplication by sum coeff_g * g on k[S_r]."""
    perms = all_perms(r)
    idx = {p.img: k for k, p in enumerate(perms)}
    size = len(perms)
    bb = BlockBuilder(size, size, order)
    for g, coeff in element.items():
        if not coeff:
            continue
        for col, h in enumerate(perms):
            bb.add_block(idx[g.compose(h).img], col, Mat.from_rows([[coeff]], order))
    return bb.build()


def central_sum_invertible(x, nu, r: int) -> bool:
    """Whether x + nu*C and x - nu*C are both invertible in k[S_r].

    Here C = s_12 + s_13 + ... + s_1r (empty for r = 1).  Decided by
    nonsingularity of the regular representation, an r! x r! exact
    matrix, so r is capped at 6.
    """
    if r < 1:
        raise FormatError("r must be at least 1")
    if r > 6:
        raise ResourceLimitError("group algebra test capped at r = 6 (720 x 720)")
    if not isinstance(x, Scalar):
        x = Scalar.rational(x)
    if not isinstance(nu, Scalar):
        nu = Scalar.rational(nu, x.order)
    order = x.order
    for sign in (1, -1):
        element = {Perm.identity(r): x}
        for m in range(2, r + 1):
            element[Perm.transposition(1, m, r)] = sign * nu
        mat = regular_representation(element, r, order)
        if rank(mat) != math.factorial(r):
            return False
    return True


# ---------------------------------------------------------------------------
# Quivers
# ---------------------------------------------------------------------------

def _is_connected(q: Quiver) -> bool:
    if not q.vertices:
        return True
    seen = {q.vertices[0]}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for e in q.edges:
            for other in ((e.head,) if e.tail == v else ()) + ((e.tail,) if e.head == v else ()):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    return len(seen) == len(q.vertices)


def cartan_matrix(q: Quiver) -> Mat:
    """Gram matrix of the symmetrized form on the unit vectors."""
    units = [DimVector.unit(v) for v in q.vertices]
    return Mat.from_rows([[symmetrized_form(q, u, v) for v in units] for u in units], 1)


def affine_data(q: Quiver) -> Optional[DimVector]:
    """The minimal positive imaginary root delta, when the quiver is affine.

    Returns the primitive integer vector spanning the radical of the
    symmetrized form if that radical is one-dimensional and the vector
    has all entries positive; otherwise None.  Loops and disconnected
    quivers yield None.  For a connected loop-free quiver the Cartan
    matrix is an indecomposable symmetric generalized Cartan matrix, so
    by Vinberg's trichotomy a positive radical vector forces affine
    type: positive semidefinite of corank 1 (Kac, Infinite-Dimensional
    Lie Algebras, Thm 4.3 and Prop 4.7).  No separate test of
    semidefiniteness is needed.
    """
    if not q.vertices or not _is_connected(q):
        return None
    if any(q.has_loop_at(v) for v in q.vertices):
        return None
    ker = kernel_basis(cartan_matrix(q))
    if ker.cols != 1:
        return None
    vals = [as_fraction(ker[r, 0]) for r in range(ker.rows)]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return DimVector.make(dict(zip(q.vertices, ints)))


def mckay_quiver_cyclic(m: int) -> Quiver:
    """The affine cycle on m vertices; the double edge pair for m = 2.

    The reflection machinery needs a nontrivial group, so m = 1 is
    rejected.
    """
    if m < 2:
        raise FormatError("the cyclic McKay quiver needs group order at least 2")
    vertices = [str(j) for j in range(m)]
    if m == 2:
        edges = [("a0", "0", "1"), ("a1", "0", "1")]
    else:
        edges = [(f"a{j}", str(j), str((j + 1) % m)) for j in range(m)]
    return Quiver(vertices, edges)


# ---------------------------------------------------------------------------
# Module builders and transports
# ---------------------------------------------------------------------------

def point_module(params: Params, vertex: str) -> WreathModule:
    """The one-dimensional n = 1 module concentrated at one vertex."""
    if params.n != 1:
        raise FormatError("point modules have n = 1")
    return WreathModule(params, {(vertex,): 1}, {}, {})


def _tensor_place_matrix(h: Perm, src_dims: Sequence[int], order: int) -> Mat:
    """Plain (sign-free) permutation of tensor factors: slot s receives slot h^{-1}(s)."""
    hinv = h.inverse()
    moved = [hinv(s) - 1 for s in range(1, len(src_dims) + 1)]
    total = math.prod(src_dims)
    bb = BlockBuilder(total, total, order)
    one = Mat.identity(1, order)
    for col, src in enumerate(itertools.product(*map(range, src_dims))):
        row = 0
        for k in moved:
            row = row * src_dims[k] + src[k]
        bb.add_block(row, col, one)
    return bb.build()


def induced_module(params: Params,
                   blocks: Sequence[tuple[int, WreathModule, YoungDiagram]]) -> WreathModule:
    """Induce (X_1 tensor ... tensor Y_1^{n_1} tensor ...) from the Young subgroup.

    ``blocks`` lists (multiplicity n_l, one-particle module Y_l, diagram
    X_l of S_{n_l}).  The S_n action permutes tensor slots plainly (no
    Koszul signs) twisted by the seminormal representations of the X_l;
    edge actions act in a single slot.  No relations are verified here.

    Basis order at a tuple j: coset-major; inside a coset sigma, the slot
    tensor factors row-major (slot 1 slowest, slot s graded by the vertex
    j_{sigma(s)}) and the X factor fastest.
    """
    n, order = params.n, params.order
    sizes = [b[0] for b in blocks]
    if sum(sizes) != n:
        raise FormatError(f"block multiplicities {sizes} do not sum to n = {n}")
    for size, y, diagram in blocks:
        if y.params.n != 1:
            raise FormatError("block modules must have n = 1")
        if y.params.quiver != params.quiver:
            raise FormatError("block modules must live over the same quiver")
        if y.order != order:
            raise FormatError("block modules must share the cyclotomic order")
        if diagram.size != size:
            raise FormatError(f"diagram {diagram} is not a partition of the block size {size}")
    reps = [seminormal_rep(diagram, order) for _, _, diagram in blocks]
    dim_x = math.prod(r.dim for r in reps)
    slot_modules = [y for size, y, _ in blocks for _ in range(size)]
    action = YoungCosetAction(n, sizes)
    cosets = action.cosets

    # per tuple of the support, per coset: (offset, slot dims), or None for an empty coset
    layout: dict[tuple, list] = {}
    support: dict[tuple, int] = {}
    slot_vertices = [sorted(j[0] for j in y.support) for y in slot_modules]
    for sigma in cosets:
        for v in itertools.product(*slot_vertices):
            j = sigma.act_tuple(v)
            if j in layout:
                continue
            layout[j], offset = [], 0
            for tau in cosets:
                dims = [y.dim((j[tau(s) - 1],)) for s, y in enumerate(slot_modules, 1)]
                size = math.prod(dims) * dim_x
                layout[j].append((offset, dims) if size else None)
                offset += size
            support[j] = offset

    # (c', h, rho_X(h)) with s_m sigma_c = sigma_c' h, per m and coset c
    moves = {}
    for m in range(1, n):
        g = Perm.adjacent(m, n)
        for c in range(len(cosets)):
            c2, h, parts = action.factor(g, c)
            rho = Mat.identity(1, order)
            for rep, part in zip(reps, parts):
                rho = kron(rho, rep.matrix_of(part))
            moves[m, c] = (c2, h, rho)

    edge_actions = {}
    slot_of = [sigma.inverse() for sigma in cosets]
    for j, here in layout.items():
        for pos in range(1, n + 1):
            for e in params.quiver.out_edges(j[pos - 1]):
                j2 = j[:pos - 1] + (e.head,) + j[pos:]
                if j2 not in layout:
                    continue    # every target coset is empty
                bb = BlockBuilder(support[j2], support[j], order)
                for src, tgt, sinv in zip(here, layout[j2], slot_of):
                    if src is None:
                        continue
                    slot = sinv(pos)
                    a = slot_modules[slot - 1].edge_actions.get((e.name, 1, (j[pos - 1],)))
                    if a is not None:
                        offset, dims = src
                        left = Mat.identity(math.prod(dims[:slot - 1]), order)
                        right = Mat.identity(math.prod(dims[slot:]) * dim_x, order)
                        bb.add_block(tgt[0], offset, kron(kron(left, a), right))
                edge_actions[(e.name, pos, j)] = bb.build()

    sn_actions = {}
    for j, here in layout.items():
        for m in range(1, n):
            j2 = swap_tuple(j, m)
            bb = BlockBuilder(support[j2], support[j], order)
            for c, src in enumerate(here):
                if src is not None:
                    c2, h, rho = moves[m, c]
                    place = _tensor_place_matrix(h, src[1], order)
                    bb.add_block(layout[j2][c2][0], src[0], kron(place, rho))
            sn_actions[(m, j)] = bb.build()

    return WreathModule(params, support, edge_actions, sn_actions)


def build_outer_tensor(params: Params,
                       blocks: Sequence[tuple[int, WreathModule, YoungDiagram]]) -> WreathModule:
    """The induced module built from one-particle modules; requires nu = 0."""
    if params.nu:
        raise FormatError("outer tensor modules require nu = 0")
    keys = [canonical_key(y) for _, y, _ in blocks]
    if len(set(keys)) != len(keys):
        raise FormatError("block modules must be pairwise non-isomorphic "
                          "(identical descriptions detected)")
    return induced_module(params, blocks)


def _edge_pairing(q: Quiver, g: dict[str, str]) -> dict[str, tuple[str, bool]]:
    """Map each base edge to (image base edge, flipped?) under a graph map g.

    Parallel edges are paired in declaration order.  Raises if g is not
    an automorphism of the underlying graph.
    """
    if sorted(g) != sorted(q.vertices) or sorted(g.values()) != sorted(q.vertices):
        raise FormatError("not a vertex bijection of the quiver")
    by_pair: dict[frozenset, list[Edge]] = {}
    for e in q.edges:
        by_pair.setdefault(frozenset((e.tail, e.head)), []).append(e)
    pairing: dict[str, tuple[str, bool]] = {}
    for pair, edges in by_pair.items():
        image_pair = frozenset(g[v] for v in pair)
        images = by_pair.get(image_pair, [])
        if len(images) != len(edges):
            raise FormatError("vertex map does not preserve the edge multiset")
        for e, e2 in zip(edges, images):
            flipped = (g[e.tail], g[e.head]) != (e2.tail, e2.head)
            if flipped and (g[e.tail], g[e.head]) != (e2.head, e2.tail):
                raise FormatError("vertex map does not preserve the edge multiset")
            pairing[e.name] = (e2.name, flipped)
    return pairing


def graph_automorphism_transport(mod: WreathModule, g: dict[str, str]) -> WreathModule:
    """Relabel a module along a graph automorphism; the weight moves to g(lambda).

    Orientation-reversing automorphisms compose the relabeling with the
    reorientation transport, so the result lives over the original quiver.
    """
    q = mod.params.quiver
    pairing = _edge_pairing(q, g)
    flips = [name for name, (_, flipped) in pairing.items() if flipped]
    flipped_mod = reorient_module(mod, flips)

    order = mod.order
    new_weight = Weight({g[v]: mod.params.weight[v] for v in q.vertices}, order)
    params2 = Params(q, mod.params.n, new_weight, mod.params.nu)

    support = {tuple(g[v] for v in j): d for j, d in flipped_mod.support.items()}
    edge_actions = {}
    for (name, pos, j), mat in flipped_mod.edge_actions.items():
        base = name[:-1] if name.endswith("*") else name
        img, _ = pairing[base]
        newname = img + "*" if name.endswith("*") else img
        edge_actions[(newname, pos, tuple(g[v] for v in j))] = mat
    sn_actions = {(m, tuple(g[v] for v in j)): mat
                  for (m, j), mat in flipped_mod.sn_actions.items()}
    return WreathModule(params2, support, edge_actions, sn_actions)


def direct_sum(a: WreathModule, b: WreathModule) -> WreathModule:
    if a.params != b.params:
        raise FormatError("direct summands must share identical parameters")
    order = a.order
    support = dict(a.support)
    for j, d in b.support.items():
        support[j] = support.get(j, 0) + d

    def blockdiag(m1: Mat, m2: Mat) -> Mat:
        bb = BlockBuilder(m1.rows + m2.rows, m1.cols + m2.cols, order)
        bb.add_block(0, 0, m1)
        bb.add_block(m1.rows, m1.cols, m2)
        return bb.build()

    edge_actions = {}
    keys = set(a.edge_actions) | set(b.edge_actions)
    for (name, pos, j) in keys:
        m1 = edge_matrix(a, name, pos, j)
        m2 = edge_matrix(b, name, pos, j)
        edge_actions[(name, pos, j)] = blockdiag(m1, m2)
    sn_actions = {}
    keys = set(a.sn_actions) | set(b.sn_actions)
    for (m, j) in keys:
        sn_actions[(m, j)] = blockdiag(sn_matrix(a, m, j), sn_matrix(b, m, j))
    return WreathModule(a.params, support, edge_actions, sn_actions)


def module_character(mod: WreathModule, p: Perm) -> Scalar:
    """Trace of a permutation acting on the whole module."""
    total = Scalar.zero(mod.order)
    for j in mod.tuples():
        if p.act_tuple(j) == j:
            total = total + perm_matrix(mod, p, j).trace()
    return total


# ---------------------------------------------------------------------------
# Intertwiners, and the functor on morphisms
# ---------------------------------------------------------------------------

def check_intertwiner(m1: WreathModule, m2: WreathModule, maps: dict,
                      require_bijective: bool = True) -> bool:
    """Do the given per-tuple maps commute with all generators (and biject)?

    ``maps[j]`` is a matrix m1_j -> m2_j; missing keys mean zero maps.
    With ``require_bijective`` this is an isomorphism-witness check.
    """
    if m1.params.quiver != m2.params.quiver or m1.n != m2.n or m1.order != m2.order:
        raise FormatError("modules are not comparable")
    q = m1.params.quiver
    n = m1.n
    tuples = sorted(set(m1.support) | set(m2.support) | {tuple(j) for j in maps})

    def f(j):
        got = maps.get(tuple(j))
        if got is None:
            return Mat.zeros(m2.dim(j), m1.dim(j), m1.order)
        if (got.rows, got.cols) != (m2.dim(j), m1.dim(j)):
            raise FormatError(f"map at {j} has shape {got.rows}x{got.cols}, "
                              f"expected {m2.dim(j)}x{m1.dim(j)}")
        return got

    for j in tuples:
        if require_bijective:
            if m1.dim(j) != m2.dim(j) or rank(f(j)) != m1.dim(j):
                return False
        for pos in range(1, n + 1):
            for e in q.out_edges(j[pos - 1]):
                tgt = m1.edge_target(e.name, pos, j)
                lhs = f(tgt) @ edge_matrix(m1, e.name, pos, j)
                rhs = edge_matrix(m2, e.name, pos, j) @ f(j)
                if lhs != rhs:
                    return False
        for m in range(1, n):
            tgt = swap_tuple(j, m)
            if f(tgt) @ sn_matrix(m1, m, j) != sn_matrix(m2, m, j) @ f(j):
                return False
    return True


def is_generic_oracle(params: Params, vertex: str) -> bool:
    """Group-algebra invertibility oracle for the genericity locus (r capped at 6)."""
    require_loop_free(params.quiver, vertex)
    lam_i = params.weight[vertex]
    return all(central_sum_invertible(lam_i, params.nu, r)
               for r in range(1, min(params.n, 6) + 1))


# The functor is looked up on the ``reflection`` module at each call, so a test
# that patches ``reflection.reflection_functor`` reaches the references too.

def reflect_morphism(src: WreathModule, dst: WreathModule, maps: dict, vertex: str) -> dict:
    """Apply the functor to a morphism given as per-tuple matrices.

    The image maps are the block-diagonal sums of the original maps over
    assignments, restricted to the kernel embeddings on both sides.
    Raises if the input is not an intertwiner.
    """
    if not check_intertwiner(src, dst, maps, require_bijective=False):
        raise FormatError("the given maps do not intertwine the module actions")
    out_src = reflection.reflection_functor(src, vertex)
    out_dst = reflection.reflection_functor(dst, vertex)
    calc_s, calc_d = out_src.calculus, out_dst.calculus
    order = src.order

    result = {}
    for j in sorted(set(out_src.embeddings) | set(out_dst.embeddings)):
        delta = calc_s.delta(j)
        s_space = calc_s.space(j, delta)
        d_space = calc_d.space(j, delta)
        bb = BlockBuilder(d_space.total, s_space.total, order)
        for k, t in enumerate(s_space.t_tuples):
            if maps.get(t):
                bb.add_block(d_space.offsets[k], s_space.offsets[k], maps[t])
        e_src = out_src.embeddings.get(j, Mat.zeros(s_space.total, 0, order))
        e_dst = out_dst.embeddings.get(j, Mat.zeros(d_space.total, 0, order))
        small = solve_in_span(e_dst, bb.build() @ e_src)
        if small:
            result[j] = small
    return result


@dataclass
class InvolutionWitness:
    module: WreathModule          # F_i(F_i(V)), over the original weight
    maps: dict                    # canonical per-tuple maps V_j -> F_iF_i(V)_j
    verified: bool


def involution_witness(module: WreathModule, vertex: str) -> InvolutionWitness:
    """Build and check the canonical isomorphism V = F_i(F_i(V)).

    Requires generic parameters.  The canonical map at a tuple j is the
    ordered composition of the mu maps over the positions of Delta(j)
    (order-irrelevant, as the mu maps commute); ``check_intertwiner``
    checks that it is bijective in every degree and intertwines all
    generators.
    """
    if not reflection.is_generic(module.params, vertex):
        raise NotGenericError(f"parameters are not generic at {vertex!r}")
    first = reflection.reflection_functor(module, vertex)
    second = reflection.reflection_functor(first.module, vertex)
    if second.module.params.weight != module.params.weight:
        raise AssertionError("double reflection must restore the weight")
    calc1 = first.calculus
    order = module.order

    maps = {}
    tuples = sorted(set(module.support) | set(second.module.support))
    for j in tuples:
        delta = calc1.delta(j)
        comp = Mat.identity(module.dim(j), order)
        covered: tuple[int, ...] = ()
        for p in sorted(delta, reverse=True):
            covered = tuple(sorted(covered + (p,)))
            comp = calc1.mu(j, covered, p) @ comp
        e2 = second.embeddings.get(j)
        if e2 is None:
            top = calc1.space(j, delta)
            e2 = Mat.zeros(top.total, 0, order)
        if e2.rows != comp.rows:
            raise AssertionError("top spaces of the two passes disagree")
        try:
            maps[j] = solve_in_span(e2, comp)
        except NotInSpanError:
            return InvolutionWitness(second.module, maps, False)
    return InvolutionWitness(second.module, maps, check_intertwiner(module, second.module, maps))
