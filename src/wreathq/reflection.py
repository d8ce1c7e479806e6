"""The reflection functor at a loop-free vertex, and its certificates.

The construction works in the sink form of the quiver: for a chosen
vertex i, every edge incident to i points into i (modules are carried
across the reorientation isomorphism internally, and carried back in the
results).  For a tuple j, the positions carrying i form Delta(j); for
D inside Delta(j) the auxiliary space V(j, D) is the direct sum of
graded pieces of V indexed by all assignments of an incoming edge to
each position in D.  The projection/inclusion block maps pi and mu, the
reindexing maps tau, and the case-III map theta are assembled here as
explicit matrices; the functor's value at j is the intersection of the
kernels of the pi maps out of the top space V(j, Delta(j)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclotomic import Scalar
from .errors import EdgeLoopError, FormatError, NotGenericError, NotInSpanError
from .linalg import BlockBuilder, Mat, intersect_kernels, rank, solve_in_span
from .modules import Params, WreathModule, check_intertwiner, reorient_module, swap_tuple
from .quiver import Quiver, dual_reflection, star_name
from .symmetric import Perm, central_sum_invertible


@dataclass(frozen=True)
class BigSpace:
    """The space V(j, D): one summand per assignment of edges in R to D."""

    j: tuple
    d_positions: tuple[int, ...]          # D, ascending
    xis: tuple[tuple[int, ...], ...]      # assignments as tuples of R-indices
    t_tuples: tuple[tuple, ...]           # t(j, xi) per assignment
    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    def index_of(self, xi: tuple[int, ...]) -> int:
        return self._index[xi]

    def __post_init__(self):
        object.__setattr__(self, "_index", {xi: k for k, xi in enumerate(self.xis)})


class SinkCalculus:
    """All the block maps between the spaces V(j, D) for a sink vertex.

    The module must already be in sink form: no base edge leaves the
    vertex.  R is the list of incoming base edges in declaration order;
    assignments are enumerated in lexicographic order over R-indices with
    the positions of D ascending.
    """

    def __init__(self, module: WreathModule, vertex: str):
        q = module.params.quiver
        if q.has_loop_at(vertex):
            raise EdgeLoopError(f"vertex {vertex!r} carries an edge-loop")
        if any(e.tail == vertex for e in q.edges):
            raise FormatError(f"module is not in sink form at {vertex!r}")
        self.module = module
        self.vertex = vertex
        self.quiver = q
        self.n = module.n
        self.order = module.order
        self.R = [e for e in q.edges if e.head == vertex]
        self.lam_i = module.params.weight[vertex]
        self.nu = module.params.nu
        self._spaces: dict = {}
        self._pis: dict = {}
        self._mus: dict = {}

    # -- tuple combinatorics ----------------------------------------------
    def delta(self, j: tuple) -> tuple[int, ...]:
        return tuple(p for p, v in enumerate(j, 1) if v == self.vertex)

    def space(self, j: tuple, d_positions: Sequence[int]) -> BigSpace:
        j = tuple(j)
        d = tuple(sorted(d_positions))
        key = (j, d)
        got = self._spaces.get(key)
        if got is not None:
            return got
        delta = set(self.delta(j))
        if not set(d) <= delta:
            raise FormatError(f"positions {d} are not all at {self.vertex!r} in {j}")
        xis = list(itertools.product(range(len(self.R)), repeat=len(d)))
        t_tuples = []
        dims = []
        offsets = []
        total = 0
        for xi in xis:
            t = list(j)
            for pos, ridx in zip(d, xi):
                t[pos - 1] = self.R[ridx].tail
            t = tuple(t)
            t_tuples.append(t)
            dims.append(self.module.dim(t))
            offsets.append(total)
            total += dims[-1]
        out = BigSpace(j, d, tuple(xis), tuple(t_tuples), tuple(dims), tuple(offsets), total)
        self._spaces[key] = out
        return out

    # -- the block maps ------------------------------------------------------
    def pi(self, j: tuple, d_positions: Sequence[int], p: int) -> Mat:
        """pi_{j,p} at level D: apply the assigned edge in position p."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        key = (j, d, p)
        got = self._pis.get(key)
        if got is not None:
            return got
        if p not in d:
            raise FormatError(f"position {p} is not in D = {d}")
        src = self.space(j, d)
        tgt = self.space(j, tuple(x for x in d if x != p))
        slot = d.index(p)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k, xi in enumerate(src.xis):
            if src.dims[k] == 0:
                continue
            edge = self.R[xi[slot]]
            block = self.module.edge_matrix(edge.name, p, src.t_tuples[k])
            if not block:
                continue
            k2 = tgt.index_of(xi[:slot] + xi[slot + 1:])
            bb.add_block(tgt.offsets[k2], src.offsets[k], block)
        out = bb.build()
        self._pis[key] = out
        return out

    def mu(self, j: tuple, d_positions: Sequence[int], p: int) -> Mat:
        """mu_{j,p} into level D: apply the reverse edge in position p."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        key = (j, d, p)
        got = self._mus.get(key)
        if got is not None:
            return got
        if p not in d:
            raise FormatError(f"position {p} is not in D = {d}")
        src = self.space(j, tuple(x for x in d if x != p))
        tgt = self.space(j, d)
        slot = d.index(p)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k, xi in enumerate(tgt.xis):
            if tgt.dims[k] == 0:
                continue
            edge = self.R[xi[slot]]
            eta = xi[:slot] + xi[slot + 1:]
            k2 = src.index_of(eta)
            if src.dims[k2] == 0:
                continue
            block = self.module.edge_matrix(star_name(edge.name), p, src.t_tuples[k2])
            if not block:
                continue
            bb.add_block(tgt.offsets[k], src.offsets[k2], block)
        out = bb.build()
        self._mus[key] = out
        return out

    def sigma_adjacent(self, j: tuple, d_positions: Sequence[int], m: int) -> Mat:
        """The big-space action of the adjacent transposition (m, m+1)."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        src = self.space(j, d)
        g = Perm.adjacent(m, self.n)
        j2 = g.act_tuple(j)
        d2 = tuple(sorted(g(p) for p in d))
        tgt = self.space(j2, d2)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k, xi in enumerate(src.xis):
            if src.dims[k] == 0:
                continue
            block = self.module.sn_matrix(m, src.t_tuples[k])
            if not block:
                continue
            assignment = {g(pos): ridx for pos, ridx in zip(d, xi)}
            xi2 = tuple(assignment[pos] for pos in d2)
            bb.add_block(tgt.offsets[tgt.index_of(xi2)], src.offsets[k], block)
        return bb.build()

    def sigma_perm(self, j: tuple, d_positions: Sequence[int], perm: Perm) -> Mat:
        """Big-space action of an arbitrary permutation, via adjacent factors."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        out = Mat.identity(self.space(j, d).total, self.order)
        cur_j, cur_d = j, d
        for k in reversed(perm.adjacent_word()):
            out = self.sigma_adjacent(cur_j, cur_d, k) @ out
            g = Perm.adjacent(k, self.n)
            cur_j = g.act_tuple(cur_j)
            cur_d = tuple(sorted(g(p) for p in cur_d))
        return out

    def tau_project(self, r_index: int, ell: int, j: tuple, d_positions: Sequence[int]) -> Mat:
        """tau^!: V(j, D) -> V(r*_ell(j), D minus ell); picks the xi(ell) = r part."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        if ell not in d:
            raise FormatError(f"position {ell} is not in D = {d}")
        src = self.space(j, d)
        edge = self.R[r_index]
        j2 = list(j)
        j2[ell - 1] = edge.tail
        j2 = tuple(j2)
        tgt = self.space(j2, tuple(x for x in d if x != ell))
        slot = d.index(ell)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k2, eta in enumerate(tgt.xis):
            dim = tgt.dims[k2]
            if dim == 0:
                continue
            xi = eta[:slot] + (r_index,) + eta[slot:]
            k = src.index_of(xi)
            bb.add_block(tgt.offsets[k2], src.offsets[k], Mat.identity(dim, self.order))
        return bb.build()

    def tau_include(self, r_index: int, ell: int, j: tuple, d_positions: Sequence[int]) -> Mat:
        """tau_!: V(r*_ell(j), D minus ell) -> V(j, D); the section of tau^!."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        if ell not in d:
            raise FormatError(f"position {ell} is not in D = {d}")
        tgt = self.space(j, d)
        edge = self.R[r_index]
        j2 = list(j)
        j2[ell - 1] = edge.tail
        j2 = tuple(j2)
        src = self.space(j2, tuple(x for x in d if x != ell))
        slot = d.index(ell)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k2, eta in enumerate(src.xis):
            dim = src.dims[k2]
            if dim == 0:
                continue
            xi = eta[:slot] + (r_index,) + eta[slot:]
            k = tgt.index_of(xi)
            bb.add_block(tgt.offsets[k], src.offsets[k2], Mat.identity(dim, self.order))
        return bb.build()

    def away_edge_action(self, name: str, ell: int, j: tuple, d_positions: Sequence[int]) -> Mat:
        """An edge not touching the sink acts diagonally across assignments."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        edge = self.quiver.edge(name)
        if self.vertex in (edge.tail, edge.head):
            raise FormatError("away_edge_action needs an edge avoiding the sink vertex")
        src = self.space(j, d)
        j2 = list(j)
        j2[ell - 1] = edge.head
        j2 = tuple(j2)
        tgt = self.space(j2, d)
        bb = BlockBuilder(tgt.total, src.total, self.order)
        for k, xi in enumerate(src.xis):
            if src.dims[k] == 0:
                continue
            block = self.module.edge_matrix(name, ell, src.t_tuples[k])
            if not block:
                continue
            bb.add_block(tgt.offsets[k], src.offsets[k], block)
        return bb.build()

    def theta(self, r_index: int, ell: int, j: tuple, d_positions: Sequence[int]) -> Mat:
        """An incoming edge acts by the compensated inclusion into V(r_ell(j), D + ell)."""
        j = tuple(j)
        d = tuple(sorted(d_positions))
        edge = self.R[r_index]
        if j[ell - 1] != edge.tail or ell in d:
            raise FormatError("theta needs the edge tail at a position outside D")
        j2 = list(j)
        j2[ell - 1] = self.vertex
        j2 = tuple(j2)
        d_ell = tuple(sorted(d + (ell,)))
        incl = self.tau_include(r_index, ell, j2, d_ell)
        top = self.space(j2, d_ell)
        core = self.mu(j2, d_ell, ell) @ self.pi(j2, d_ell, ell)
        core = core - Mat.identity(top.total, self.order).scaled(self.lam_i)
        if self.nu and d:
            s_sum = Mat.zeros(top.total, top.total, self.order)
            for m in d:
                s_sum = s_sum + self.sigma_perm(j2, d_ell, Perm.transposition(m, ell, self.n))
            core = core + s_sum.scaled(self.nu)
        return core @ incl


def pi_map(module: WreathModule, vertex: str, j: tuple,
           d_positions: Sequence[int], p: int) -> Mat:
    """The projection block map out of V(j, D) for a module and vertex.

    Convenience wrapper: reorients to sink form internally.  For many
    maps on one module, build a :class:`SinkCalculus` once instead.
    """
    calc = SinkCalculus(reorient_module(module, sink_flips(module.params.quiver, vertex)),
                        vertex)
    return calc.pi(j, d_positions, p)


def mu_map(module: WreathModule, vertex: str, j: tuple,
           d_positions: Sequence[int], p: int) -> Mat:
    """The inclusion block map into V(j, D); see :func:`pi_map`."""
    calc = SinkCalculus(reorient_module(module, sink_flips(module.params.quiver, vertex)),
                        vertex)
    return calc.mu(j, d_positions, p)


@dataclass(frozen=True)
class GenericityResult:
    ok: bool
    failing_p: Optional[int] = None
    failing_branch: Optional[str] = None

    def __bool__(self):
        return self.ok


def is_generic(params: Params, vertex: str) -> GenericityResult:
    """Closed form for the genericity locus: lambda_i +- p nu != 0, p < n."""
    if params.quiver.has_loop_at(vertex):
        raise EdgeLoopError(f"vertex {vertex!r} carries an edge-loop")
    lam_i = params.weight[vertex]
    for p in range(params.n):
        if not lam_i + params.nu * p:
            return GenericityResult(False, p, "plus")
        if not lam_i - params.nu * p:
            return GenericityResult(False, p, "minus")
    return GenericityResult(True)


def is_generic_oracle(params: Params, vertex: str) -> bool:
    """Group-algebra invertibility oracle for the same locus (r capped at 6)."""
    if params.quiver.has_loop_at(vertex):
        raise EdgeLoopError(f"vertex {vertex!r} carries an edge-loop")
    lam_i = params.weight[vertex]
    return all(central_sum_invertible(lam_i, params.nu, r)
               for r in range(1, min(params.n, 6) + 1))


@dataclass
class ReflectionOutput:
    """The reflected module plus the per-tuple embedding data.

    ``embeddings[j]`` is the basis of the new graded piece inside the top
    space V(j, Delta(j)) of the sink form; ``calculus`` exposes the
    underlying block maps (sink form throughout).
    """

    module: WreathModule
    embeddings: dict
    calculus: SinkCalculus
    flips: tuple[str, ...]

    def dims(self) -> dict:
        return dict(self.module.support)


def sink_flips(q: Quiver, vertex: str) -> tuple[str, ...]:
    if q.has_loop_at(vertex):
        raise EdgeLoopError(f"vertex {vertex!r} carries an edge-loop")
    return tuple(e.name for e in q.edges if e.tail == vertex)


def candidate_tuples(calc: SinkCalculus, include_interior: bool = False) -> list[tuple]:
    """Tuples j whose top space V(j, Delta(j)) can be nonzero.

    With ``include_interior`` the enumeration also keeps tuples whose
    lower levels V(j, D), D strictly inside Delta(j), can be nonzero;
    those arise from support tuples that already carry the vertex and
    matter for the cube complex but never for the functor itself.
    """
    tails = {e.tail for e in calc.R}
    out = set()
    for u in calc.module.support:
        if calc.vertex in u and not include_interior:
            continue
        spots = [p for p, v in enumerate(u, 1) if v in tails]
        for k in range(len(spots) + 1):
            for subset in itertools.combinations(spots, k):
                j = list(u)
                for p in subset:
                    j[p - 1] = calc.vertex
                out.add(tuple(j))
    return sorted(out)


def reflection_functor(module: WreathModule, vertex: str) -> ReflectionOutput:
    """Apply the reflection functor at a loop-free vertex.

    The result is a module over the dual-reflected weight (same nu).  The
    new graded piece at j is the intersection of the kernels of the pi
    maps out of V(j, Delta(j)); the new generator actions are the case
    maps restricted to those kernels and re-expressed in the kernel
    bases.  A NotInSpanError here would indicate a genuine bug, since the
    case maps provably preserve the kernels.
    """
    q = module.params.quiver
    flips = sink_flips(q, vertex)
    sink = reorient_module(module, flips)
    calc = SinkCalculus(sink, vertex)
    n, order = module.n, module.order

    embeddings: dict = {}
    support: dict = {}
    for j in candidate_tuples(calc):
        delta = calc.delta(j)
        top = calc.space(j, delta)
        if top.total == 0:
            continue
        basis = intersect_kernels([calc.pi(j, delta, p) for p in delta], top.total, order)
        if basis.cols:
            embeddings[j] = basis
            support[j] = basis.cols

    new_weight = dual_reflection(q, vertex, module.params.weight)
    sink_params = Params(sink.params.quiver, n, new_weight, module.params.nu)

    def restricted(big: Mat, src: tuple, tgt: tuple) -> Optional[Mat]:
        e_src = embeddings.get(src)
        if e_src is None:
            return None
        e_tgt = embeddings.get(tgt)
        if e_tgt is None:
            tgt_delta = calc.delta(tgt)
            e_tgt = Mat.zeros(calc.space(tgt, tgt_delta).total, 0, order)
        return solve_in_span(e_tgt, big @ e_src)

    edge_actions = {}
    sn_actions = {}
    r_names = {e.name: k for k, e in enumerate(calc.R)}
    for j in sorted(embeddings):
        delta = calc.delta(j)
        for ell in range(1, n + 1):
            v = j[ell - 1]
            for e in calc.quiver.out_edges(v):
                j2 = list(j)
                j2[ell - 1] = e.head
                j2 = tuple(j2)
                if e.head == vertex:
                    big = calc.theta(r_names[e.name], ell, j, delta)
                elif e.tail == vertex:
                    base = e.name[:-1]
                    big = calc.tau_project(r_names[base], ell, j, delta)
                else:
                    big = calc.away_edge_action(e.name, ell, j, delta)
                small = restricted(big, j, j2)
                if small is not None and small:
                    edge_actions[(e.name, ell, j)] = small
        for m in range(1, n):
            j2 = swap_tuple(j, m)
            big = calc.sigma_adjacent(j, delta, m)
            small = restricted(big, j, j2)
            if small is not None and small:
                sn_actions[(m, j)] = small

    sink_result = WreathModule(sink_params, support, edge_actions, sn_actions)
    result = reorient_module(sink_result, flips, inverse=True)
    return ReflectionOutput(result, embeddings, calc, flips)


def reflect_morphism(src: WreathModule, dst: WreathModule, maps: dict, vertex: str,
                     out_src: Optional[ReflectionOutput] = None,
                     out_dst: Optional[ReflectionOutput] = None) -> dict:
    """Apply the functor to a morphism given as per-tuple matrices.

    The image maps are the block-diagonal sums of the original maps over
    assignments, restricted to the kernel embeddings on both sides.
    Raises if the input is not an intertwiner.
    """
    if not check_intertwiner(src, dst, maps, require_bijective=False):
        raise FormatError("the given maps do not intertwine the module actions")
    out_src = out_src or reflection_functor(src, vertex)
    out_dst = out_dst or reflection_functor(dst, vertex)
    calc_s, calc_d = out_src.calculus, out_dst.calculus
    order = src.order

    def f(j):
        got = maps.get(tuple(j))
        if got is None:
            return Mat.zeros(dst.dim(j), src.dim(j), order)
        return got

    result = {}
    for j in sorted(set(out_src.embeddings) | set(out_dst.embeddings)):
        delta = calc_s.delta(j)
        s_space = calc_s.space(j, delta)
        d_space = calc_d.space(j, delta)
        bb = BlockBuilder(d_space.total, s_space.total, order)
        for k, xi in enumerate(s_space.xis):
            block = f(s_space.t_tuples[k])
            if block:
                bb.add_block(d_space.offsets[k], s_space.offsets[k], block)
        big = bb.build()
        e_src = out_src.embeddings.get(j, Mat.zeros(s_space.total, 0, order))
        e_dst = out_dst.embeddings.get(j, Mat.zeros(d_space.total, 0, order))
        small = solve_in_span(e_dst, big @ e_src)
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
    (order-irrelevant, as the mu maps commute); it is checked to be
    bijective in every degree and to intertwine all generators.
    """
    if not is_generic(module.params, vertex):
        raise NotGenericError(f"parameters are not generic at {vertex!r}")
    first = reflection_functor(module, vertex)
    second = reflection_functor(first.module, vertex)
    if second.module.params.weight != module.params.weight:
        raise AssertionError("double reflection must restore the weight")
    calc1 = first.calculus
    order = module.order

    maps = {}
    verified = True
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
            small = solve_in_span(e2, comp)
        except NotInSpanError:
            verified = False
            break
        maps[j] = small
        if small.rows != module.dim(j) or rank(small) != module.dim(j):
            verified = False
    if verified:
        verified = check_intertwiner(module, second.module, maps)
    return InvolutionWitness(second.module, maps, verified)


@dataclass
class WordResult:
    module: WreathModule
    trace: tuple   # (vertex, weight, dims) per applied letter


def apply_functor_word(module: WreathModule, word: Sequence[str],
                       require_generic: bool = False) -> WordResult:
    """Compose reflection functors along a word (first letter applied first)."""
    cur = module
    trace = []
    for letter in word:
        if require_generic and not is_generic(cur.params, letter):
            raise NotGenericError(f"parameters are not generic at {letter!r}")
        cur = reflection_functor(cur, letter).module
        trace.append((letter, cur.params.weight, dict(cur.support)))
    return WordResult(cur, tuple(trace))
