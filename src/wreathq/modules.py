"""Graded modules over the deformed wreath-product algebra and their verifier.

A module is a finitely supported family of spaces V_j indexed by vertex
tuples j in I^n, with a matrix per doubled-quiver edge acting in one
position and a matrix per adjacent transposition.  ``verify_relations``
evaluates the two defining relation families as exact matrix identities;
builders produce the standard induced modules (zero edge action or outer
tensors of one-particle modules at nu = 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError, StructureError
from .linalg import BlockBuilder, Mat, kron, rank
from .quiver import Edge, Quiver, Weight, star_name
from .symmetric import Perm, RepMatrices, YoungCosetAction, YoungDiagram, seminormal_rep


@dataclass(frozen=True)
class Params:
    """The data (quiver, n, lambda, nu) defining one algebra."""

    quiver: Quiver
    n: int
    weight: Weight
    nu: Scalar

    def __post_init__(self):
        if self.n < 1:
            raise FormatError("n must be a positive integer")
        if self.nu.order != self.weight.order:
            raise FormatError("weight and nu must share one cyclotomic order")
        for v, _ in self.weight.coords:
            if not self.quiver.has_vertex(v):
                raise FormatError(f"weight uses unknown vertex {v!r}")

    @property
    def order(self) -> int:
        return self.nu.order


def swap_tuple(j: tuple, m: int) -> tuple:
    """The tuple after the adjacent transposition (m, m+1)."""
    out = list(j)
    out[m - 1], out[m] = out[m], out[m - 1]
    return tuple(out)


class WreathModule:
    """A module given by graded dimensions and generator matrices.

    ``edge_actions[(name, l, j)]`` is the matrix of edge ``name`` acting in
    position ``l`` (1-based) out of the graded piece at tuple ``j``; its
    target tuple replaces position ``l`` by the edge head.  Missing keys
    mean zero maps.  ``sn_actions[(m, j)]`` is the adjacent transposition
    (m, m+1) out of ``j``.  Instances are treated as immutable.
    """

    def __init__(self, params: Params, support: dict, edge_actions: dict, sn_actions: dict):
        self.params = params
        self.support = {tuple(j): int(d) for j, d in support.items() if d}
        self.edge_actions = {}
        for (name, pos, j), mat in edge_actions.items():
            if mat is not None and mat:
                self.edge_actions[(name, int(pos), tuple(j))] = mat
        self.sn_actions = {}
        for (m, j), mat in sn_actions.items():
            if mat is not None and mat:
                self.sn_actions[(int(m), tuple(j))] = mat
        self._perm_cache: dict = {}

    # -- basic access -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.params.n

    @property
    def order(self) -> int:
        return self.params.order

    def dim(self, j: tuple) -> int:
        return self.support.get(tuple(j), 0)

    def tuples(self) -> list[tuple]:
        return sorted(self.support)

    def dimension_vector(self) -> dict[str, int]:
        """Total dimension collected per vertex over all tuple positions."""
        out: dict[str, int] = {}
        for j, d in self.support.items():
            for v in j:
                out[v] = out.get(v, 0) + d
        return out

    def edge_target(self, name: str, pos: int, j: tuple) -> tuple:
        e = self.params.quiver.edge(name)
        if j[pos - 1] != e.tail:
            raise FormatError(f"edge {name!r} cannot act in position {pos} of {j}")
        out = list(j)
        out[pos - 1] = e.head
        return tuple(out)

    def edge_matrix(self, name: str, pos: int, j: tuple) -> Mat:
        j = tuple(j)
        mat = self.edge_actions.get((name, pos, j))
        if mat is not None:
            return mat
        tgt = self.edge_target(name, pos, j)
        return Mat.zeros(self.dim(tgt), self.dim(j), self.order)

    def sn_matrix(self, m: int, j: tuple) -> Mat:
        j = tuple(j)
        mat = self.sn_actions.get((m, j))
        if mat is not None:
            return mat
        return Mat.zeros(self.dim(swap_tuple(j, m)), self.dim(j), self.order)

    def perm_matrix(self, p: Perm, j: tuple) -> Mat:
        """Matrix of an arbitrary permutation, composed from stored generators."""
        j = tuple(j)
        key = (p.img, j)
        cached = self._perm_cache.get(key)
        if cached is not None:
            return cached
        cur = j
        out = Mat.identity(self.dim(j), self.order)
        word = p.adjacent_word()
        for k in reversed(word):  # rightmost factor acts first
            out = self.sn_matrix(k, cur) @ out
            cur = swap_tuple(cur, k)
        self._perm_cache[key] = out
        return out

    def extended_support(self) -> list[tuple]:
        """Support plus every tuple one edge step or one swap away."""
        q = self.params.quiver
        seen = set(self.support)
        for j in list(self.support):
            for pos in range(1, self.n + 1):
                for e in q.out_edges(j[pos - 1]):
                    out = list(j)
                    out[pos - 1] = e.head
                    seen.add(tuple(out))
            for m in range(1, self.n):
                seen.add(swap_tuple(j, m))
        return sorted(seen)

    def canonical_key(self):
        edges = tuple(sorted(
            (name, pos, j, mat) for (name, pos, j), mat in self.edge_actions.items()))
        sns = tuple(sorted(
            (m, j, mat)
            for (m, j), mat in self.sn_actions.items()))
        return (tuple(sorted(self.support.items())), edges, sns)

    def __repr__(self):
        dims = ", ".join(f"{''.join(j)}:{d}" for j, d in sorted(self.support.items()))
        return f"WreathModule(n={self.n}, dims={{{dims}}})"


# ---------------------------------------------------------------------------
# Structural checks and the relation verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralIssue:
    where: str
    message: str

    def __str__(self):
        return f"{self.where}: {self.message}"


@dataclass(frozen=True)
class RelationFailure:
    relation: str                 # "i" or "ii"
    j: tuple
    ell: int
    m: Optional[int]
    edge_a: Optional[str]
    edge_b: Optional[str]
    residual: Mat

    def __str__(self):
        loc = f"tuple ({','.join(self.j)}) l={self.ell}"
        if self.relation == "ii":
            loc += f" m={self.m} a={self.edge_a} b={self.edge_b}"
        return f"relation ({self.relation}) fails at {loc}"


@dataclass(frozen=True)
class VerifyReport:
    structural: tuple[StructuralIssue, ...]
    failures: tuple[RelationFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.structural and not self.failures

    def summary(self) -> str:
        if self.passed:
            return "ok: module satisfies the defining relations"
        lines = [str(s) for s in self.structural] + [str(f) for f in self.failures]
        return "\n".join(lines)


def structural_report(mod: WreathModule) -> list[StructuralIssue]:
    issues: list[StructuralIssue] = []
    q = mod.params.quiver
    n = mod.n
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

    for (name, pos, j), mat in sorted(mod.edge_actions.items()):
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
            issues.append(StructuralIssue(where, f"tuple has {j[pos - 1]} at position {pos}, expected {e.tail}"))
            continue
        tgt = mod.edge_target(name, pos, j)
        if (mat.rows, mat.cols) != (mod.dim(tgt), mod.dim(j)):
            issues.append(StructuralIssue(
                where, f"shape {mat.rows}x{mat.cols} != {mod.dim(tgt)}x{mod.dim(j)}"))
        if mat.order != mod.order:
            issues.append(StructuralIssue(where, "wrong cyclotomic order"))

    for (m, j), mat in sorted(mod.sn_actions.items()):
        where = f"sn action ({m}, {','.join(j)})"
        if not (1 <= m <= n - 1) or len(j) != n:
            issues.append(StructuralIssue(where, "bad transposition index or tuple"))
            continue
        tgt = swap_tuple(j, m)
        if (mat.rows, mat.cols) != (mod.dim(tgt), mod.dim(j)):
            issues.append(StructuralIssue(
                where, f"shape {mat.rows}x{mat.cols} != {mod.dim(tgt)}x{mod.dim(j)}"))
        if mat.order != mod.order:
            issues.append(StructuralIssue(where, "wrong cyclotomic order"))
    if issues:
        return issues

    # group relations for the stored S_n generators, chased along tuples
    for j in mod.tuples():
        d = mod.dim(j)
        ident = Mat.identity(d, mod.order)
        for m in range(1, n):
            j2 = swap_tuple(j, m)
            if mod.sn_matrix(m, j2) @ mod.sn_matrix(m, j) != ident:
                issues.append(StructuralIssue(
                    f"tuple ({','.join(j)})", f"s_{m} is not an involution"))
        for m in range(1, n - 1):
            lhs = _chase(mod, j, [m, m + 1, m])
            rhs = _chase(mod, j, [m + 1, m, m + 1])
            if lhs != rhs:
                issues.append(StructuralIssue(
                    f"tuple ({','.join(j)})", f"braid relation fails at s_{m}, s_{m + 1}"))
        for m in range(1, n):
            for k in range(m + 2, n):
                if _chase(mod, j, [m, k]) != _chase(mod, j, [k, m]):
                    issues.append(StructuralIssue(
                        f"tuple ({','.join(j)})", f"s_{m} and s_{k} do not commute"))

    # smash-product equivariance of the edge actions
    for j in mod.tuples():
        for pos in range(1, n + 1):
            for e in q.out_edges(j[pos - 1]):
                a_mat = mod.edge_matrix(e.name, pos, j)
                tgt = mod.edge_target(e.name, pos, j)
                for m in range(1, n):
                    sig_pos = pos
                    if pos == m:
                        sig_pos = m + 1
                    elif pos == m + 1:
                        sig_pos = m
                    lhs = mod.sn_matrix(m, tgt) @ a_mat
                    rhs = mod.edge_matrix(e.name, sig_pos, swap_tuple(j, m)) @ mod.sn_matrix(m, j)
                    if lhs != rhs:
                        issues.append(StructuralIssue(
                            f"tuple ({','.join(j)})",
                            f"edge {e.name} at position {pos} is not s_{m}-equivariant"))
    return issues


def _chase(mod: WreathModule, j: tuple, word: Iterable[int]) -> Mat:
    """Compose adjacent generators along tuples: rightmost letter acts first."""
    letters = list(word)
    out = Mat.identity(mod.dim(j), mod.order)
    cur = j
    for k in reversed(letters):
        out = mod.sn_matrix(k, cur) @ out
        cur = swap_tuple(cur, k)
    return out


def verify_relations(mod: WreathModule) -> VerifyReport:
    """Check the two defining relation families as exact matrix identities.

    Relations are evaluated on the extended support; on tuples of
    dimension zero they hold vacuously (empty matrices), so omitting
    tuples can never hide a failure.  Structural problems short-circuit
    the relation checks.
    """
    structural = structural_report(mod)
    if structural:
        return VerifyReport(tuple(structural), ())

    q = mod.params.quiver
    lam = mod.params.weight
    nu = mod.params.nu
    n = mod.n
    failures: list[RelationFailure] = []

    for j in mod.extended_support():
        d = mod.dim(j)
        for ell in range(1, n + 1):
            v = j[ell - 1]
            lhs = Mat.identity(d, mod.order).scaled(-lam[v])
            for e in q.edges:
                if e.head == v:
                    mid = mod.edge_target(star_name(e.name), ell, j)
                    lhs = lhs + mod.edge_matrix(e.name, ell, mid) \
                        @ mod.edge_matrix(star_name(e.name), ell, j)
                if e.tail == v:
                    mid = mod.edge_target(e.name, ell, j)
                    lhs = lhs - mod.edge_matrix(star_name(e.name), ell, mid) \
                        @ mod.edge_matrix(e.name, ell, j)
            rhs = Mat.zeros(d, d, mod.order)
            for m in range(1, n + 1):
                if m != ell and j[m - 1] == v:
                    rhs = rhs + mod.perm_matrix(
                        Perm.transposition(ell, m, n), j)
            residual = lhs - rhs.scaled(nu)
            if residual:
                failures.append(RelationFailure("i", j, ell, None, None, None, residual))

        for ell in range(1, n + 1):
            for m in range(ell + 1, n + 1):
                for a in q.out_edges(j[ell - 1]):
                    for b in q.out_edges(j[m - 1]):
                        jb = mod.edge_target(b.name, m, j)
                        ja = mod.edge_target(a.name, ell, j)
                        lhs = mod.edge_matrix(a.name, ell, jb) @ mod.edge_matrix(b.name, m, j) \
                            - mod.edge_matrix(b.name, m, ja) @ mod.edge_matrix(a.name, ell, j)
                        if not b.is_star and a.name == star_name(b.name):
                            rhs = mod.perm_matrix(Perm.transposition(ell, m, n), j).scaled(nu)
                        elif not a.is_star and b.name == star_name(a.name):
                            rhs = mod.perm_matrix(Perm.transposition(ell, m, n), j).scaled(-nu)
                        else:
                            rhs = Mat.zeros(lhs.rows, lhs.cols, mod.order)
                        residual = lhs - rhs
                        if residual:
                            failures.append(RelationFailure(
                                "ii", j, ell, m, a.name, b.name, residual))
    return VerifyReport((), tuple(failures))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def point_module(params: Params, vertex: str) -> WreathModule:
    """The one-dimensional n = 1 module concentrated at one vertex."""
    if params.n != 1:
        raise FormatError("point modules have n = 1")
    return WreathModule(params, {(vertex,): 1}, {}, {})


def _prod(xs: Iterable[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _tensor_place_matrix(h: Perm, src_dims: Sequence[int], order: int) -> Mat:
    """Plain (sign-free) permutation of tensor factors: slot s receives slot h^{-1}(s)."""
    hinv = h.inverse()
    nslots = len(src_dims)
    dst_dims = [src_dims[hinv(s) - 1] for s in range(1, nslots + 1)]
    total = _prod(src_dims)
    bb = BlockBuilder(total, total, order)
    one = Scalar.one(order)
    for src in itertools.product(*[range(d) for d in src_dims]):
        dst = tuple(src[hinv(s) - 1] for s in range(1, nslots + 1))
        row = 0
        for s in range(nslots):
            row = row * dst_dims[s] + dst[s]
        col = 0
        for s in range(nslots):
            col = col * src_dims[s] + src[s]
        bb.add_entry(row, col, one)
    return bb.build()


class _InducedLayout:
    """Basis bookkeeping for modules induced from a Young subgroup.

    Basis order at a tuple j: coset-major; inside a coset, the slot
    tensor factors row-major (slot 1 slowest) and the S_{n-bar}
    representation factor fastest.
    """

    def __init__(self, params: Params, sizes, modules, reps):
        self.params = params
        self.sizes = tuple(sizes)
        self.modules = tuple(modules)
        self.reps = tuple(reps)
        self.action = YoungCosetAction(params.n, self.sizes)
        self.block_of = []
        for bi, s in enumerate(self.sizes):
            self.block_of += [bi] * s
        self.dim_x = _prod(r.dim for r in self.reps)

    def slot_dims(self, coset: int, j: tuple) -> list[int]:
        sigma = self.action.cosets[coset]
        return [self.modules[self.block_of[s - 1]].dim((j[sigma(s) - 1],))
                for s in range(1, self.params.n + 1)]

    def coset_dim(self, coset: int, j: tuple) -> int:
        return _prod(self.slot_dims(coset, j)) * self.dim_x

    def offsets(self, j: tuple) -> list[int]:
        offs = [0]
        for c in range(len(self.action.cosets)):
            offs.append(offs[-1] + self.coset_dim(c, j))
        return offs

    def rho_x(self, parts: list[Perm]) -> Mat:
        out = Mat.identity(1, self.params.order)
        for rep, hpart in zip(self.reps, parts):
            out = kron(out, rep.matrix_of(hpart))
        return out


def induced_module(params: Params,
                   blocks: Sequence[tuple[int, WreathModule, YoungDiagram]]) -> WreathModule:
    """Induce (X_1 tensor ... tensor Y_1^{n_1} tensor ...) from the Young subgroup.

    ``blocks`` lists (multiplicity n_l, one-particle module Y_l, diagram
    X_l of S_{n_l}).  The S_n action permutes tensor slots plainly (no
    Koszul signs) twisted by the seminormal representations of the X_l;
    edge actions act in a single slot.  No relations are verified here.
    """
    n, order = params.n, params.order
    sizes = [b[0] for b in blocks]
    if sum(sizes) != n:
        raise FormatError(f"block multiplicities {sizes} do not sum to n = {n}")
    modules = [b[1] for b in blocks]
    for y in modules:
        if y.params.n != 1:
            raise FormatError("block modules must have n = 1")
        if y.params.quiver != params.quiver:
            raise FormatError("block modules must live over the same quiver")
        if y.order != order:
            raise FormatError("block modules must share the cyclotomic order")
    reps = [seminormal_rep(b[2], order) for b in blocks]
    for size, rep, b in zip(sizes, reps, blocks):
        if b[2].size != size:
            raise FormatError(f"diagram {b[2]} is not a partition of the block size {size}")
    lay = _InducedLayout(params, sizes, modules, reps)

    # enumerate the support: images of block-graded tuples under the cosets
    support: dict[tuple, int] = {}
    per_block_vertices = [sorted({j[0] for j in y.support}) for y in modules]
    for c, sigma in enumerate(lay.action.cosets):
        slot_choices = [per_block_vertices[lay.block_of[s]] for s in range(n)]
        for v in itertools.product(*slot_choices):
            j = sigma.act_tuple(v)
            d = lay.coset_dim(c, j)
            if d:
                support[j] = support.get(j, 0) + 0  # placeholder, recomputed below
    for j in list(support):
        support[j] = sum(lay.coset_dim(c, j) for c in range(len(lay.action.cosets)))

    edge_actions = {}
    q = params.quiver
    ncos = len(lay.action.cosets)
    for j in support:
        offs_src = lay.offsets(j)
        for pos in range(1, n + 1):
            for e in q.out_edges(j[pos - 1]):
                j2 = list(j)
                j2[pos - 1] = e.head
                j2 = tuple(j2)
                if j2 not in support:
                    # target pieces all vanish; the action is zero
                    continue
                offs_tgt = lay.offsets(j2)
                total_r, total_c = support.get(j2, 0), support[j]
                blockmats = []
                for c in range(ncos):
                    src_dims = lay.slot_dims(c, j)
                    tgt_dims = lay.slot_dims(c, j2)
                    if _prod(src_dims) == 0 or _prod(tgt_dims) == 0:
                        continue
                    sigma = lay.action.cosets[c]
                    slot = sigma.inverse()(pos)
                    y = lay.modules[lay.block_of[slot - 1]]
                    m_slot = y.edge_matrix(e.name, 1, (j[pos - 1],))
                    if not m_slot:
                        continue
                    block = Mat.identity(1, order)
                    for s in range(1, n + 1):
                        block = kron(block, m_slot if s == slot
                                     else Mat.identity(src_dims[s - 1], order))
                    block = kron(block, Mat.identity(lay.dim_x, order))
                    blockmats.append((offs_tgt[c], offs_src[c], block))
                if blockmats:
                    bb = BlockBuilder(total_r, total_c, order)
                    for r0, c0, blk in blockmats:
                        bb.add_block(r0, c0, blk)
                    edge_actions[(e.name, pos, j)] = bb.build()

    sn_actions = {}
    for j in support:
        offs_src = lay.offsets(j)
        for m in range(1, n):
            j2 = swap_tuple(j, m)
            offs_tgt = lay.offsets(j2)
            total_r, total_c = support.get(j2, 0), support[j]
            if total_r == 0:
                continue
            g = Perm.adjacent(m, n)
            bb = BlockBuilder(total_r, total_c, order)
            for c in range(ncos):
                src_dims = lay.slot_dims(c, j)
                if _prod(src_dims) == 0:
                    continue
                c2, _, parts = lay.action.factor(g, c)
                place = _tensor_place_matrix(_young_embed(parts, lay), src_dims, order)
                bb.add_block(offs_tgt[c2], offs_src[c], kron(place, lay.rho_x(parts)))
            sn_actions[(m, j)] = bb.build()

    return WreathModule(params, support, edge_actions, sn_actions)


def _young_embed(parts: list[Perm], lay: _InducedLayout) -> Perm:
    """Assemble block permutations into one permutation of all n positions."""
    img = []
    off = 0
    for size, part in zip(lay.sizes, parts):
        img.extend(part(t + 1) + off for t in range(size))
        off += size
    return Perm(img)


def build_induced_zero_e(params: Params,
                         blocks: Sequence[tuple[YoungDiagram, str]]) -> WreathModule:
    """The induced module with every edge acting by zero.

    ``blocks`` lists (diagram X_l, vertex i_l); the i_l must be distinct.
    The result is only a module over the smash product of the vertex
    algebra with k[S_n]; run ``verify_relations`` to find out whether it
    extends to the full algebra at the given parameters.
    """
    vertices = [v for _, v in blocks]
    if len(set(vertices)) != len(vertices):
        raise FormatError("block vertices must be pairwise distinct")
    q = params.quiver
    for v in vertices:
        if not q.has_vertex(v):
            raise FormatError(f"unknown vertex {v!r}")
    if sum(d.size for d, _ in blocks) != params.n:
        raise FormatError("block diagram sizes must sum to n")
    p1 = Params(params.quiver, 1, params.weight, params.nu)
    specs = [(d.size, point_module(p1, v), d) for d, v in blocks]
    return induced_module(params, specs)


def build_outer_tensor(params: Params,
                       blocks: Sequence[tuple[int, WreathModule, YoungDiagram]]) -> WreathModule:
    """The induced module built from one-particle modules; requires nu = 0."""
    if params.nu:
        raise FormatError("outer tensor modules require nu = 0")
    keys = [y.canonical_key() for _, y, _ in blocks]
    if len(set(keys)) != len(keys):
        raise FormatError("block modules must be pairwise non-isomorphic "
                          "(identical descriptions detected)")
    return induced_module(params, blocks)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

def reorient_module(mod: WreathModule, flips: Iterable[str], inverse: bool = False) -> WreathModule:
    """Transport along the isomorphism with the algebra of the reoriented quiver.

    For each flipped base edge a the generators map by a -> a*, a* -> -a
    (the inverse transport undoes this exactly).  The choice preserves
    the commutator sum in the defining relations.
    """
    flipset = set(flips)
    q2 = mod.params.quiver.reoriented(flipset)
    params2 = Params(q2, mod.params.n, mod.params.weight, mod.params.nu)
    edge_actions = {}
    for (name, pos, j), mat in mod.edge_actions.items():
        base = name[:-1] if name.endswith("*") else name
        if base not in flipset:
            edge_actions[(name, pos, j)] = mat
            continue
        is_star = name.endswith("*")
        if not inverse:
            # new a acts by old a*, new a* acts by -(old a)
            newname = base if is_star else base + "*"
            edge_actions[(newname, pos, j)] = mat if is_star else -mat
        else:
            newname = base if is_star else base + "*"
            edge_actions[(newname, pos, j)] = -mat if is_star else mat
    return WreathModule(params2, mod.support, edge_actions, mod.sn_actions)


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
        m1 = a.edge_matrix(name, pos, j)
        m2 = b.edge_matrix(name, pos, j)
        edge_actions[(name, pos, j)] = blockdiag(m1, m2)
    sn_actions = {}
    keys = set(a.sn_actions) | set(b.sn_actions)
    for (m, j) in keys:
        sn_actions[(m, j)] = blockdiag(a.sn_matrix(m, j), b.sn_matrix(m, j))
    out = WreathModule(a.params, support, edge_actions, sn_actions)
    return out


# ---------------------------------------------------------------------------
# Intertwiners
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
                lhs = f(tgt) @ m1.edge_matrix(e.name, pos, j)
                rhs = m2.edge_matrix(e.name, pos, j) @ f(j)
                if lhs != rhs:
                    return False
        for m in range(1, n):
            tgt = swap_tuple(j, m)
            if f(tgt) @ m1.sn_matrix(m, j) != m2.sn_matrix(m, j) @ f(j):
                return False
    return True


def module_character(mod: WreathModule, p: Perm) -> Scalar:
    """Trace of a permutation acting on the whole module."""
    total = Scalar.zero(mod.order)
    for j in mod.tuples():
        if p.act_tuple(j) == j:
            total = total + mod.perm_matrix(p, j).trace()
    return total
