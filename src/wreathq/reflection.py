"""The reflection functor at a loop-free vertex, and its certificates.

The paper works in the sink form, with every edge at the vertex i
pointing into i.  The algebra does not depend on the orientation, so
:class:`SinkCalculus` reads a module as it is, and the sink form is a
sign on the base edges leaving i.  For a tuple j, the positions carrying
i form Delta(j); for D inside Delta(j) the auxiliary space V(j, D) is
the direct sum of graded pieces of V indexed by all assignments of an
edge into i to each position in D.  The projection/inclusion block maps
pi and mu, the reindexing maps tau, the case-III map theta and the S_n
action are all assembled here, through one placement loop, as explicit
matrices; the functor's value at j is the intersection of the kernels
of the pi maps out of the top space V(j, Delta(j)).  The functor on
morphisms, the group-algebra genericity oracle and the involution
witness F_i F_i V = V are test-side references in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError
from .linalg import BlockBuilder, Mat, intersect_kernels, solve_in_span
from .modules import Params, WreathModule
from .quiver import dual_reflection, require_loop_free, star_name
from .symmetric import Perm, is_orbit_root, spanning_tree, swap_position, swap_tuple


class BigSpace:
    """The space V(j, D): one summand per assignment of edges in R to D,
    immutable by convention."""

    __slots__ = ("j", "xis", "t_tuples", "dims", "offsets", "total", "_index")
    j: tuple
    xis: tuple[tuple[int, ...], ...]      # assignments as tuples of R-indices
    t_tuples: tuple[tuple, ...]           # t(j, xi) per assignment
    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    def __init__(self, j: tuple, xis: tuple, t_tuples: tuple, dims: tuple, offsets: tuple,
                 total: int):
        self.j = j
        self.xis = xis
        self.t_tuples = t_tuples
        self.dims = dims
        self.offsets = offsets
        self.total = total
        self.__post_init__()

    def index_of(self, xi: tuple[int, ...]) -> int:
        return self._index[xi]

    def __post_init__(self):     # perfbench/spans.py gauges every space through it
        self._index = {xi: k for k, xi in enumerate(self.xis)}


def _assemble(tgt: BigSpace, src: BigSpace, blocks: Iterable[tuple[int, int, Optional[Mat]]],
              order: int) -> Mat:
    """The map src -> tgt with each (target index, source index, block) placed.

    Indices are assignment indices of the two spaces; a block that is None
    (no stored action) or zero is skipped.
    """
    bb = BlockBuilder(tgt.total, src.total, order)
    for k2, k, block in blocks:
        if block:
            bb.add_block(tgt.offsets[k2], src.offsets[k], block)
    return bb.build()


class SinkCalculus:
    """All the block maps between the spaces V(j, D) for one vertex.

    The module keeps its own orientation.  R holds the edges of the
    double into the vertex, one per incident base edge in declaration
    order: a base edge r: k -> i stays r, and a base edge a: i -> k
    enters as a*.  The sink form would call a* a and act by -a in its
    place, so ``mu`` negates the reverse edge of a star R-edge.
    Assignments are enumerated in lexicographic order over R-indices
    with the positions of D ascending.  Every map takes j as a tuple and
    D as an ascending tuple of positions; ``space`` refuses any other D.
    A block is the module's stored action or None where none is stored,
    and ``_assemble`` places only the blocks that exist.  pi, mu and
    sigma_perm are cached per (map, j, D, argument), the traces of
    sigma_trace per (perm, graded piece).
    """

    def __init__(self, module: WreathModule, vertex: str):
        self.quiver = q = module.params.quiver
        require_loop_free(q, vertex)
        self.module = module
        self.vertex = vertex
        self.n = module.n
        self.order = module.order
        self.R = [q.edge(e.name if e.head == vertex else star_name(e.name))
                  for e in q.edges if vertex in (e.tail, e.head)]
        self.lam_i = module.params.weight[vertex]
        self.nu = module.params.nu
        self._spaces: dict = {}
        self._maps: dict = {}

    # -- tuple combinatorics ----------------------------------------------
    def delta(self, j: tuple) -> tuple[int, ...]:
        return tuple(p for p, v in enumerate(j, 1) if v == self.vertex)

    def space(self, j: tuple, d: tuple[int, ...]) -> BigSpace:
        """V(j, D); D must be an ascending tuple of positions of Delta(j)."""
        key = (j, d)
        got = self._spaces.get(key)
        if got is not None:
            return got
        if tuple(p for p in self.delta(j) if p in d) != d:
            raise FormatError(f"D = {d} is not an ascending tuple of positions "
                              f"at {self.vertex!r} in {j}")
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
        out = BigSpace(j, tuple(xis), tuple(t_tuples), tuple(dims), tuple(offsets), total)
        self._spaces[key] = out
        return out

    def _drop(self, j: tuple, d: tuple[int, ...], p: int) -> tuple[BigSpace, BigSpace, int]:
        """V(j, D), V(j, D minus p) and the slot of p in D."""
        if p not in d:
            raise FormatError(f"position {p} is not in D = {d}")
        slot = d.index(p)
        return self.space(j, d), self.space(j, d[:slot] + d[slot + 1:]), slot

    # -- the block maps ------------------------------------------------------
    def pi(self, j: tuple, d: tuple[int, ...], p: int) -> Mat:
        """pi_{j,p} at level D: apply the assigned edge in position p."""
        key = ("pi", j, d, p)
        out = self._maps.get(key)
        if out is None:
            out = self._maps[key] = self._pi(j, d, p)
        return out

    def _pi(self, j: tuple, d: tuple[int, ...], p: int) -> Mat:
        src, tgt, slot = self._drop(j, d, p)
        actions = self.module.edge_actions
        return _assemble(tgt, src, (
            (tgt.index_of(xi[:slot] + xi[slot + 1:]), k,
             actions.get((self.R[xi[slot]].name, p, src.t_tuples[k])))
            for k, xi in enumerate(src.xis)), self.order)

    def sink_map(self, t: tuple, q: int) -> Mat:
        """B_{t,q} = [rho(r, q, t[q <- tail r])]_{r in R} into V_t: pi_q at level (q,), uncached.

        Any pi_q(j, D) is block diagonal over the assignments xi' of D - q,
        with the block B_{t(j, xi'),q} at xi'.
        """
        return self._pi(t, (q,), q)

    def mu(self, j: tuple, d: tuple[int, ...], p: int) -> Mat:
        """mu_{j,p} into level D: apply the reverse edge in position p, signed."""
        key = ("mu", j, d, p)
        out = self._maps.get(key)
        if out is None:
            tgt, src, slot = self._drop(j, d, p)
            actions = self.module.edge_actions

            def blocks():
                for k, xi in enumerate(tgt.xis):
                    k2 = src.index_of(xi[:slot] + xi[slot + 1:])
                    r = self.R[xi[slot]]
                    block = actions.get((star_name(r.name), p, src.t_tuples[k2]))
                    if block is not None:
                        yield k, k2, -block if r.is_star else block
            out = self._maps[key] = _assemble(tgt, src, blocks(), self.order)
        return out

    def sigma_adjacent(self, j: tuple, d: tuple[int, ...], m: int) -> Mat:
        """The big-space action of the adjacent transposition (m, m+1)."""
        return self.sigma_perm(j, d, Perm.adjacent(m, self.n))

    def sigma_perm(self, j: tuple, d: tuple[int, ...], perm: Perm) -> Mat:
        """The big-space action of a permutation.

        The summand of an assignment xi goes to the summand of the moved
        assignment (perm(p) carries the edge of p) by the module's own
        action of ``perm`` on the graded piece t(j, xi); a piece of
        dimension 0 is skipped.
        """
        key = ("sigma", j, d, perm)
        out = self._maps.get(key)
        if out is None:
            src = self.space(j, d)
            tgt = self.space(perm.act_tuple(j), tuple(sorted(perm(p) for p in d)))
            slots = sorted(range(len(d)), key=lambda s: perm(d[s]))
            perm_matrix = self.module.perm_matrix
            out = self._maps[key] = _assemble(tgt, src, (
                (tgt.index_of(tuple(xi[s] for s in slots)), k, perm_matrix(perm, src.t_tuples[k]))
                for k, xi in enumerate(src.xis) if src.dims[k]), self.order)
        return out

    def sigma_trace(self, j: tuple, d: tuple[int, ...], perm: Perm) -> Scalar:
        """The trace of ``sigma_perm`` on a level V(j, D) that ``perm`` fixes.

        Only the summands whose assignment ``perm`` fixes lie on the
        diagonal, so the trace is the sum of the traces of the module's
        action of ``perm`` on their graded pieces, each kept per (perm,
        piece).
        """
        if perm.act_tuple(j) != j or tuple(sorted(perm(p) for p in d)) != d:
            raise FormatError(f"the permutation does not fix {j} and D = {d}")
        src = self.space(j, d)
        slots = sorted(range(len(d)), key=lambda s: perm(d[s]))
        out = zero = Scalar.zero(self.order)
        for k, xi in enumerate(src.xis):
            if src.dims[k] and tuple(xi[s] for s in slots) == xi:
                key = ("trace", perm, src.t_tuples[k])
                if key not in self._maps:
                    block = self.module.perm_matrix(perm, key[2])
                    self._maps[key] = zero if block is None else block.trace()
                out = out + self._maps[key]
        return out

    def tau_project(self, r_index: int, ell: int, j: tuple, d: tuple[int, ...]) -> Mat:
        """tau^!: V(j, D) -> V(r*_ell(j), D minus ell); picks the xi(ell) = r part."""
        if ell not in d:
            raise FormatError(f"position {ell} is not in D = {d}")
        src = self.space(j, d)
        j2 = self.module.edge_target(star_name(self.R[r_index].name), ell, j)
        slot = d.index(ell)
        tgt = self.space(j2, d[:slot] + d[slot + 1:])
        return _assemble(tgt, src, (
            (k2, src.index_of(eta[:slot] + (r_index,) + eta[slot:]),
             Mat.identity(tgt.dims[k2], self.order))
            for k2, eta in enumerate(tgt.xis) if tgt.dims[k2]), self.order)

    def tau_include(self, r_index: int, ell: int, j: tuple, d: tuple[int, ...]) -> Mat:
        """tau_!: V(r*_ell(j), D minus ell) -> V(j, D); the section of tau^!."""
        return self.tau_project(r_index, ell, j, d).transpose()

    def away_edge_action(self, name: str, ell: int, j: tuple, d: tuple[int, ...]) -> Mat:
        """An edge not touching the sink acts diagonally across assignments."""
        edge = self.quiver.edge(name)
        if self.vertex in (edge.tail, edge.head):
            raise FormatError("away_edge_action needs an edge avoiding the sink vertex")
        src = self.space(j, d)
        tgt = self.space(self.module.edge_target(name, ell, j), d)
        actions = self.module.edge_actions
        return _assemble(tgt, src, (
            (k, k, actions.get((name, ell, t))) for k, t in enumerate(src.t_tuples)), self.order)

    def theta(self, r_index: int, ell: int, j: tuple, d: tuple[int, ...], x: Mat) -> Mat:
        """theta @ x, for x with rows indexed by V(j, D).

        An incoming edge acts by the compensated inclusion into
        V(r_ell(j), D + ell): theta = (mu pi - lambda_i + nu sum_m s_{m,ell})
        tau_!.  Each term is applied to tau_! x alone, whose image lies in
        the xi(ell) = r part of the top space, so the square top-space map
        is never formed; pass the identity on V(j, D) for theta itself.
        """
        edge = self.R[r_index]
        if j[ell - 1] != edge.tail or ell in d:
            raise FormatError("theta needs the edge tail at a position outside D")
        j2 = j[:ell - 1] + (self.vertex,) + j[ell:]
        d_ell = tuple(sorted(d + (ell,)))
        incl = self.tau_include(r_index, ell, j2, d_ell) @ x
        out = self.mu(j2, d_ell, ell) @ (self.pi(j2, d_ell, ell) @ incl)
        out = out + incl.scaled(-self.lam_i)
        if self.nu and d:
            s_sum = None
            for m in d:
                swap = self.sigma_perm(j2, d_ell, Perm.transposition(m, ell, self.n)) @ incl
                s_sum = swap if s_sum is None else s_sum + swap
            out = out + s_sum.scaled(self.nu)
        return out


class GenericityResult(NamedTuple):
    ok: bool
    failing_p: Optional[int] = None
    failing_branch: Optional[str] = None

    def __bool__(self):
        return self.ok


def is_generic(params: Params, vertex: str) -> GenericityResult:
    """Closed form for the genericity locus: lambda_i +- p nu != 0, p < n."""
    require_loop_free(params.quiver, vertex)
    lam_i = params.weight[vertex]
    for p in range(params.n):
        p_nu = params.nu * Scalar.rational(p, params.order)
        if not lam_i + p_nu:
            return GenericityResult(False, p, "plus")
        if not lam_i - p_nu:
            return GenericityResult(False, p, "minus")
    return GenericityResult(True)


class ReflectionOutput(NamedTuple):
    """The reflected module plus the per-tuple embedding data.

    ``embeddings[j]`` is the basis of the new graded piece inside the top
    space V(j, Delta(j)) of ``SinkCalculus(input module, vertex)``.
    """

    module: WreathModule
    embeddings: dict


def candidate_tuples(calc: SinkCalculus) -> list[tuple]:
    """Tuples j at which some level V(j, D), D inside Delta(j), is nonzero, sorted.

    Each is a support tuple u with the positions D, each holding the tail
    of an incoming edge, moved to the vertex; V_u is a summand of
    V(j, D), so the list is exact.  The top space V(j, Delta(j)) has
    no vertex left in its summands, so where it is nonzero j comes from a
    support tuple without the vertex; the functor skips the rest.
    """
    tails = {e.tail for e in calc.R}
    out = set()
    for u in calc.module.support:
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
    maps (theta, tau, the away-edge action, sigma) applied to the kernel
    basis at j and re-expressed in the kernel basis at the target tuple.
    ``SinkCalculus.theta`` takes the basis columns, so theta is never
    formed on the whole top space.  The coordinates are read off the
    identity block of the target basis, and ``solve_in_span`` checks the
    other rows with one exact product: that is the certificate that the
    case maps preserve the kernels, so a NotInSpanError here would
    indicate a genuine bug.

    The kernels and the s_m are computed at every tuple.  When the module
    carries a stored ``verify_relations`` report with a clean structural
    part (none is computed here), an edge action is computed only at the
    root x0 = (e, p0, r) of each S_n-orbit of triples x = (e, l, j)
    (``is_orbit_root``: r sorted, p0 the first position of j_l in r), and
    filled along the root's breadth-first spanning tree by E_{s_m x} =
    S_m E_x S_m, with the output's own s_m.  This is what the full walk
    computes: the report says the stored s_m represent S_n and the edge
    actions are equivariant, so the big-space involution sigma = s_m
    commutes with pi, mu, tau and the away-edge maps, and carries theta at
    x to theta at s_m x (its nu-sum over the transpositions (m', l), m' in
    D, goes to the sum over s_m D).  So sigma B_j = B_{s_m j} S_m for the kernel
    bases B, the case map C satisfies C_{s_m x} = sigma C_x sigma, and
    C_{s_m x} B_{s_m j} = sigma C_x B_j S_m = B_{s_m t} S_m E_x S_m, t the
    target of x.  Without such a report every triple is its own root with
    an empty tree, which is the full walk.
    """
    calc = SinkCalculus(module, vertex)
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

    new_weight = dual_reflection(calc.quiver, vertex, module.params.weight)
    params = Params(calc.quiver, n, new_weight, module.params.nu)

    def restricted(image: Mat, tgt: tuple) -> Mat:
        e_tgt = embeddings.get(tgt)
        if e_tgt is None:
            e_tgt = Mat.zeros(calc.space(tgt, calc.delta(tgt)).total, 0, order)
        return solve_in_span(e_tgt, image)

    sn_actions = {}
    for j in sorted(embeddings):
        for m in range(1, n):
            small = restricted(calc.sigma_adjacent(j, calc.delta(j), m) @ embeddings[j],
                               swap_tuple(j, m))
            if small:
                sn_actions[(m, j)] = small

    report = module.stored_report
    by_orbit = report is not None and not report.structural
    edge_actions = {}
    r_names = {e.name: k for k, e in enumerate(calc.R)}
    for j in sorted(embeddings):
        delta = calc.delta(j)
        e_src = embeddings[j]
        for ell, v in enumerate(j, 1):
            if by_orbit and not is_orbit_root(ell, j):
                continue        # filled along the tree of its orbit's root
            tree = spanning_tree(n, ell, j) if by_orbit else ()
            for e in calc.quiver.out_edges(v):
                if e.head == vertex:
                    image = calc.theta(r_names[e.name], ell, j, delta, e_src)
                elif e.tail == vertex:
                    # a base edge a leaving the vertex acts as minus the sink form's a*
                    image = calc.tau_project(r_names[star_name(e.name)], ell, j, delta) @ e_src
                    if not e.is_star:
                        image = -image
                else:
                    image = calc.away_edge_action(e.name, ell, j, delta) @ e_src
                small = restricted(image, module.edge_target(e.name, ell, j))
                if small:
                    edge_actions[(e.name, ell, j)] = small
                for pos, i, m in tree:
                    x = edge_actions.get((e.name, pos, i))
                    if x is not None:
                        target = module.edge_target(e.name, pos, i)
                        edge_actions[(e.name, swap_position(pos, m), swap_tuple(i, m))] = \
                            sn_actions[(m, target)] @ x @ sn_actions[(m, swap_tuple(i, m))]

    result = WreathModule(params, support, edge_actions, sn_actions)
    return ReflectionOutput(result, embeddings)


class WordResult(NamedTuple):
    module: WreathModule
    trace: tuple   # (vertex, weight, dims) per applied letter


def apply_functor_word(module: WreathModule, word: Sequence[str]) -> WordResult:
    """Compose reflection functors along a word (first letter applied first)."""
    cur = module
    trace = []
    for letter in word:
        cur = reflection_functor(cur, letter).module
        trace.append((letter, cur.params.weight, dict(cur.support)))
    return WordResult(cur, tuple(trace))
