"""Graded modules over the deformed wreath-product algebra and their verifier.

A module is a finitely supported family of spaces V_j indexed by vertex
tuples j in I^n, with a matrix per doubled-quiver edge acting in one
position and a matrix per adjacent transposition.  ``verify_relations``
evaluates the two defining relation families as exact matrix identities;
``build_induced_zero_e`` builds the induced module with zero edge action
(the CLI's), and ``reorient_module`` transports a module to a reoriented
quiver.  The general induction of one-particle modules, outer tensors,
direct sums, graph-automorphism transports, characters and intertwiner
checks, which only the tests use, are in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError, ResourceLimitError
from .linalg import Mat, kron
from .quiver import Quiver, Weight, star_name
from .symmetric import (
    Perm, YoungDiagram, is_orbit_root, seminormal_rep, spanning_tree, swap_position, swap_tuple,
    young_cosets,
)


MAX_N = 10     # the largest n accepted: S_n orbits of tuples grow as n!


class Params(NamedTuple("_Params", [("quiver", Quiver), ("n", int), ("weight", Weight),
                                     ("nu", Scalar)])):
    """The data (quiver, n, lambda, nu) defining one algebra.

    An n above ``MAX_N`` is refused with ``ResourceLimitError`` before any
    tuple, partition or matrix is enumerated.
    """

    __slots__ = ()

    def __new__(cls, quiver: Quiver, n: int, weight: Weight, nu: Scalar):
        self = super().__new__(cls, quiver, n, weight, nu)
        if self.n < 1:
            raise FormatError("n must be a positive integer")
        if self.n > MAX_N:
            raise ResourceLimitError(f"n = {self.n} exceeds the limit of {MAX_N}")
        if self.nu.order != self.weight.order:
            raise FormatError("weight and nu must share one cyclotomic order")
        for v, _ in self.weight.coords:
            if not self.quiver.has_vertex(v):
                raise FormatError(f"weight uses unknown vertex {v!r}")
        return self

    @property
    def order(self) -> int:
        return self.nu.order


class WreathModule:
    """A module given by graded dimensions and generator matrices.

    ``edge_actions[(name, l, j)]`` is the matrix of edge ``name`` acting in
    position ``l`` (1-based) out of the graded piece at tuple ``j``; its
    target tuple replaces position ``l`` by the edge head.
    ``sn_actions[(m, j)]`` is the adjacent transposition (m, m+1) out of
    ``j``.  A missing key is a zero map, and readers take the None of
    ``.get`` as that map: no zero matrix is built for it.  Instances are
    treated as immutable, which is why ``verify_relations`` may keep its
    report on the instance.

    A malformed entry (a tuple key that is not a ``tuple`` of n vertices,
    a bad edge, position or matrix shape, or a dimension, position or
    transposition index that is not an ``int``)
    raises FormatError, zero or not; nothing is coerced.  The well-formed
    zero dimensions and zero matrices are then dropped.
    """

    def __init__(self, params: Params, support: dict, edge_actions: dict, sn_actions: dict):
        self.params = params
        self.support, self.edge_actions, self.sn_actions = support, edge_actions, sn_actions
        self._check_shapes()
        self.support = {j: d for j, d in self.support.items() if d}
        self.edge_actions = {key: mat for key, mat in self.edge_actions.items() if mat}
        self.sn_actions = {key: mat for key, mat in self.sn_actions.items() if mat}
        self._perm_cache: dict = {}
        self._report: Optional[VerifyReport] = None    # set by verify_relations

    def _check_shapes(self) -> None:
        """Raise ``FormatError`` "<where>: <problem>" at the first malformed entry."""
        q, n, order = self.params.quiver, self.n, self.order
        dim = self.support.get
        for j, d in self.support.items():
            if type(j) is not tuple:
                raise FormatError(f"support {j!r}: key must be a tuple")
            if len(j) != n:
                raise FormatError(f"support {j}: tuple length != {n}")
            if not all(map(q.has_vertex, j)):
                raise FormatError(f"support {j}: unknown vertex")
            if type(d) is not int:
                raise FormatError(f"support {j}: dimension must be an integer, got {d!r}")
            if d < 0:
                raise FormatError(f"support {j}: dimension must be non-negative")

        def misfit(mat: Mat, tgt: tuple, j: tuple) -> Optional[str]:
            """Why ``mat`` is not a map V_j -> V_tgt of the module, or None."""
            if mat.rows != dim(tgt, 0) or mat.cols != dim(j, 0):
                return f"shape {mat.rows}x{mat.cols} != {dim(tgt, 0)}x{dim(j, 0)}"
            return "wrong cyclotomic order" if mat.order != order else None

        def label(j) -> str:
            return ",".join(map(str, j)) if type(j) is tuple else repr(j)

        edges = {e.name: e for e in q.double}
        for (name, pos, j), mat in self.edge_actions.items():
            e = edges.get(name)
            if e is None:
                problem = "unknown edge"
            elif not (type(pos) is int and 1 <= pos <= n and type(j) is tuple and len(j) == n
                      and all(map(q.has_vertex, j))):
                problem = "bad position or tuple"
            elif j[pos - 1] != e.tail:
                problem = f"tuple has {j[pos - 1]} at position {pos}, expected {e.tail}"
            else:
                problem = misfit(mat, j[:pos - 1] + (e.head,) + j[pos:], j)
            if problem:
                raise FormatError(f"edge action ({name}, {pos}, {label(j)}): {problem}")
        for (m, j), mat in self.sn_actions.items():
            if (type(m) is int and 1 <= m <= n - 1 and type(j) is tuple and len(j) == n
                    and all(map(q.has_vertex, j))):
                problem = misfit(mat, swap_tuple(j, m), j)
            else:
                problem = "bad transposition index or tuple"
            if problem:
                raise FormatError(f"sn action ({m}, {label(j)}): {problem}")

    # -- basic access -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.params.n

    @property
    def order(self) -> int:
        return self.params.order

    @property
    def stored_report(self) -> Optional[VerifyReport]:
        """The report ``verify_relations`` kept on this module, or None; never computes one."""
        return self._report

    def dim(self, j: tuple) -> int:
        return self.support.get(j, 0)

    def tuples(self) -> list[tuple]:
        return sorted(self.support)

    def edge_target(self, name: str, pos: int, j: tuple) -> tuple:
        e = self.params.quiver.edge(name)
        if j[pos - 1] != e.tail:
            raise FormatError(f"edge {name!r} cannot act in position {pos} of {j}")
        out = list(j)
        out[pos - 1] = e.head
        return tuple(out)

    def perm_matrix(self, p: Perm, j: tuple) -> Optional[Mat]:
        """Matrix of an arbitrary permutation, composed from stored generators,
        or None (a zero map) where V_j is zero or a factor is not stored."""
        key = (p.img, j)
        if key not in self._perm_cache:
            self._perm_cache[key] = _word(self, j, p.adjacent_word())
        return self._perm_cache[key]

    def __repr__(self):
        dims = ", ".join(f"{''.join(j)}:{d}" for j, d in sorted(self.support.items()))
        return f"WreathModule(n={self.n}, dims={{{dims}}})"


# ---------------------------------------------------------------------------
# Structural checks and the relation verifier
# ---------------------------------------------------------------------------

class StructuralIssue(NamedTuple):
    where: str
    message: str

    def __str__(self):
        return f"{self.where}: {self.message}"


class RelationFailure(NamedTuple):
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


class VerifyReport(NamedTuple):
    structural: tuple[StructuralIssue, ...]
    failures: tuple[RelationFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.structural and not self.failures


def structural_report(mod: WreathModule) -> list[StructuralIssue]:
    """Group-relation and equivariance problems of a module, in walk order.

    These are the smash-product structure: the stored s_m represent S_n
    and the edge actions are equivariant.  The ``WreathModule``
    constructor has already refused malformed shapes.  The walk skips a
    group-relation check that an earlier passed check implies, so a
    failing module reports exactly what the full walk reports:

    * the involution check s_m s_m = 1 at s_m j is skipped when the check
      at j passed and V_j and V_{s_m j} have the same dimension, because a
      one-sided inverse of a square matrix is two-sided;
    * once no involution issue was found, the braid check at w j,
      w = s_m s_{m+1} s_m, is skipped when the check at j passed: each
      word out of w j is then the two-sided inverse of the same word out
      of j, so the two checks are equivalent;
    * likewise the check that s_m, s_k (k >= m + 2) commute at s_m s_k j: each
      side out of it is then the inverse of the other side out of j.

    The equivariance check at a triple x = (e, pos, j), edge e of the
    double acting in position pos out of V_j, and a generator s_m is
    s_m E_x = E_{s_m x} s_m out of V_j, where s_m x = (e, s_m pos, s_m j).
    Once no group-relation issue was found, ``_equivariance_certified``
    proves every such identity from far fewer checks, one spanning tree
    per S_n-orbit of triples; only when it fails does the full walk run,
    every (j, pos, e, m) in order, to report.  The proof:

    * a clean group-relation report makes the support S_n-stable (an
      involution check with s_m j outside the support fails) and the
      stored s_m a representation rho of S_n on the sum of the V_j, so
      each orbit of triples has its root x0 = (e, p0, r) in the walk,
      with r the sorted tuple and p0 the first position of j_pos in r;
    * the tree checks, on the edges x -> s_m x of a breadth-first
      spanning tree of the orbit, give E_x = rho(w) E_{x0} rho(w)^-1
      along the tree path w from x0 to x;
    * the stabiliser of x0 is the Young subgroup that fixes r and p0,
      generated by the s_m with r_m = r_{m+1} and p0 not in {m, m+1}, and
      the root checks make E_{x0} commute with each of them, hence with
      the stabiliser, so x -> rho(w) E_{x0} rho(w)^-1 for x = w x0 is well
      defined on the whole orbit and equals E_x there;
    * so rho(s_m) E_x rho(s_m)^-1 = rho(s_m w) E_{x0} rho(s_m w)^-1 =
      E_{s_m x}: every generator's identity holds at every triple.
    """
    q = mod.params.quiver
    n = mod.n
    found: dict = {j: [] for j in mod.tuples()}     # issues per tuple, in check order

    # group relations for the stored S_n generators, chased along tuples;
    # the involutions first, as the braid and commuting skips need all of them
    involutive = set()      # (m, j) whose involution check passed
    for j in mod.tuples():
        for m in range(1, n):
            j2 = swap_tuple(j, m)
            if (m, j2) in involutive and mod.dim(j2) == mod.dim(j):
                continue
            if _residual(mod, j, (m, m), ()) is None:
                involutive.add((m, j))
            else:
                found[j].append(StructuralIssue(f"tuple ({','.join(j)})",
                                                f"s_{m} is not an involution"))
    involutions = not any(found.values())

    braided = set()         # (m, j) whose braid check passed
    commuting = set()       # (m, k, j) whose commuting check passed
    for j in mod.tuples():
        at = f"tuple ({','.join(j)})"
        for m in range(1, n - 1):
            lhs, rhs = (m, m + 1, m), (m + 1, m, m + 1)
            wj = swap_tuple(swap_tuple(swap_tuple(j, m), m + 1), m)
            if involutions and (m, wj) in braided:
                continue
            if _residual(mod, j, lhs, rhs) is None:
                braided.add((m, j))
            else:
                found[j].append(StructuralIssue(at, f"braid relation fails at s_{m}, s_{m + 1}"))
        for m in range(1, n):
            for k in range(m + 2, n):
                if involutions and (m, k, swap_tuple(swap_tuple(j, k), m)) in commuting:
                    continue
                if _residual(mod, j, (m, k), (k, m)) is None:
                    commuting.add((m, k, j))
                else:
                    found[j].append(StructuralIssue(at, f"s_{m} and s_{k} do not commute"))
    issues = [x for j in mod.tuples() for x in found[j]]
    if not issues and _equivariance_certified(mod):
        return issues

    # smash-product equivariance of the edge actions, in full
    for j in mod.tuples():
        for pos in range(1, n + 1):
            for e in q.out_edges(j[pos - 1]):
                for m in range(1, n):
                    if not _equivariant(mod, e.name, pos, j, m):
                        issues.append(StructuralIssue(
                            f"tuple ({','.join(j)})",
                            f"edge {e.name} at position {pos} is not s_{m}-equivariant"))
    return issues


def _equivariant(mod: WreathModule, edge: str, pos: int, j: tuple, m: int) -> bool:
    """Whether s_m E = E' s_m out of V_j, E the edge acting in position pos
    and E' the same edge in position s_m pos."""
    return _residual(mod, j, (m, (edge, pos)), ((edge, swap_position(pos, m)), m)) is None


def _equivariance_certified(mod: WreathModule) -> bool:
    """Whether the tree and root checks of every S_n-orbit of triples pass.

    Sound only once the group relations have passed; the proof is in
    ``structural_report``.  Returns at the first failed check.
    """
    q, n = mod.params.quiver, mod.n
    for r in mod.tuples():
        for p0, v in enumerate(r, 1):
            if not is_orbit_root(p0, r):
                continue
            stabiliser = [m for m in range(1, n) if r[m - 1] == r[m] and p0 not in (m, m + 1)]
            tree = spanning_tree(n, p0, r)
            for e in q.out_edges(v):
                if not all(_equivariant(mod, e.name, pos, j, m) for pos, j, m in tree):
                    return False
                if not all(_equivariant(mod, e.name, p0, r, m) for m in stabiliser):
                    return False
    return True


def _word(mod: WreathModule, j: tuple, word: Sequence) -> Optional[Mat]:
    """The stored actions composed along ``word`` out of V_j, or None (a zero
    map) when a factor is not stored.

    A letter is ``m`` for s_m or ``(edge name, position)``; the last letter
    acts first, and the empty word gives the identity, or None out of a
    zero-dimensional piece.
    """
    out = None
    for k in range(len(word) - 1, -1, -1):
        letter = word[k]
        edge = not isinstance(letter, int)
        mat = mod.edge_actions.get((*letter, j)) if edge else mod.sn_actions.get((letter, j))
        if mat is None:
            return None
        out = mat if out is None else mat @ out
        if k:       # the next letter acts out of this letter's target
            j = mod.edge_target(*letter, j) if edge else swap_tuple(j, letter)
    if out is None and mod.dim(j):
        return Mat.identity(mod.dim(j), mod.order)
    return out


def _residual(mod: WreathModule, j: tuple, lhs: Sequence, rhs: Sequence) -> Optional[Mat]:
    """``lhs - rhs`` as a map out of V_j, or None where the two sides agree.

    A side is a word for ``_word`` (a tuple), or a list of terms (c, w):
    c is 1, -1 or a ``Scalar``, and w is a word or a ``Perm``, whose
    matrix is the cached ``perm_matrix``.  Terms whose word or coefficient
    is zero are left out, so no zero map is built; comparing costs less
    than subtracting, so the subtraction is left to the failures.
    """
    def total(terms):
        if isinstance(terms, tuple):
            return _word(mod, j, terms)
        out = None
        for c, w in terms:
            mat = mod.perm_matrix(w, j) if isinstance(w, Perm) else _word(mod, j, w)
            if mat is None or not c:
                continue
            mat = mat.scaled(c) if isinstance(c, Scalar) else mat if c > 0 else -mat
            out = mat if out is None else out + mat
        return out

    left, right = total(lhs), total(rhs)
    if right is None:
        return left if left else None
    if left is None:
        return -right if right else None
    return left - right if left != right else None


def verify_relations(mod: WreathModule) -> VerifyReport:
    """Check the two defining relation families as exact matrix identities.

    Relation (i) at (j, l), with v = j_l, is an identity of maps out of
    V_j: the sum over the edges x of the double out of v of the path x
    then its reverse, added for a star edge and subtracted for a base
    edge, equals lambda_v plus nu times the sum of the transpositions
    s_{l m} with j_m = v.  Relation (ii) at (j, l, m, a, b), with l < m,
    edge a of the double acting in position l and b in position m, is
    a_l b_m - b_m a_l = nu s_{l m} when a is the star of b, -nu s_{l m}
    when b is the star of a, and 0 otherwise.  Only stored actions are
    multiplied; a path with a missing factor is zero.

    Every relation instance at a tuple j is an identity of maps out of
    V_j, so at a tuple of dimension zero it holds vacuously (its matrices
    have no columns).  Relations are therefore evaluated on the support
    alone, and omitting the other tuples can never hide a failure.
    S_n-action problems (``structural_report``) short-circuit the relations.

    A clean ``structural_report`` certifies that the stored generators
    represent S_n, each sigma mapping V_j invertibly onto V_{sigma j}, and
    that the edge actions are equivariant.  Conjugation by sigma then
    carries relation (i) at (j, l) to relation (i) at (sigma j, sigma(l)),
    and relation (ii) at (j, l, m, a, b) to relation (ii) at (sigma j,
    sigma(l), sigma(m), a, b), negated on both sides when sigma reverses
    l < m.  So an instance holds exactly when every instance in its
    S_n-orbit does.  The orbit of (i) is keyed by (sorted j, j_l); the
    orbit of (ii) by (sorted j, sorted (j_l, j_m)), with every edge pair
    (a, b) evaluated at the instance.  The walk skips an instance when
    the first instance of its orbit passed, and evaluates it otherwise,
    so a failing module reports the failures of the full walk, in the
    same order and with the same residuals.  The report is computed once
    per module and kept on it; later calls return the stored report.
    """
    if mod._report is not None:
        return mod._report
    structural = structural_report(mod)
    if structural:
        mod._report = VerifyReport(tuple(structural), ())
        return mod._report

    q = mod.params.quiver
    lam = mod.params.weight
    nu = mod.params.nu
    n = mod.n
    failures: list[RelationFailure] = []
    first: dict = {}        # orbit key -> whether the orbit's first instance passed

    for j in mod.tuples():
        sorted_j = tuple(sorted(j))
        for ell in range(1, n + 1):
            v = j[ell - 1]
            key = ("i", sorted_j, v)
            if first.get(key):
                continue
            paths = [(1 if x.is_star else -1, ((star_name(x.name), ell), (x.name, ell)))
                     for x in q.out_edges(v)]
            swaps = [(nu, Perm.transposition(ell, m, n))
                     for m in range(1, n + 1) if m != ell and j[m - 1] == v]
            residual = _residual(mod, j, [(-lam[v], ())] + paths, swaps)
            if residual is not None:
                failures.append(RelationFailure("i", j, ell, None, None, None, residual))
            first.setdefault(key, residual is None)

        for ell in range(1, n + 1):
            for m in range(ell + 1, n + 1):
                key = ("ii", sorted_j, tuple(sorted((j[ell - 1], j[m - 1]))))
                if first.get(key):
                    continue
                found = len(failures)
                for a in q.out_edges(j[ell - 1]):
                    for b in q.out_edges(j[m - 1]):
                        ab, ba = ((a.name, ell), (b.name, m)), ((b.name, m), (a.name, ell))
                        if a.name == star_name(b.name):
                            swap = Perm.transposition(ell, m, n)
                            ba = [(1, ba), (nu if a.is_star else -nu, swap)]
                        residual = _residual(mod, j, ab, ba)
                        if residual is not None:
                            failures.append(RelationFailure(
                                "ii", j, ell, m, a.name, b.name, residual))
                first.setdefault(key, len(failures) == found)
    mod._report = VerifyReport((), tuple(failures))
    return mod._report


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_induced_zero_e(params: Params,
                         blocks: Sequence[tuple[YoungDiagram, str]]) -> WreathModule:
    """The induced module with every edge acting by zero.

    ``blocks`` lists (diagram X_l, vertex i_l); the i_l must be distinct.
    The result is only a module over the smash product of the vertex
    algebra with k[S_n]; run ``verify_relations`` to find out whether it
    extends to the full algebra at the given parameters.

    As the i_l are distinct, each tuple j of the support lies in one
    Young coset, and V_j = X_1 (x) ... (x) X_L with the last factor
    fastest.  s_m maps V_j to V_{s_m j} by the identity when j_m !=
    j_{m+1}; otherwise it acts in the factor of the vertex j_m by the
    seminormal s_k, where k is the rank of m among the positions of j at
    that vertex.  No edge action is stored.
    """
    vertices = [v for _, v in blocks]
    if len(set(vertices)) != len(vertices):
        raise FormatError("block vertices must be pairwise distinct")
    for v in vertices:
        if not params.quiver.has_vertex(v):
            raise FormatError(f"unknown vertex {v!r}")
    sizes = [d.size for d, _ in blocks]
    if sum(sizes) != params.n:
        raise FormatError("block diagram sizes must sum to n")
    order = params.order
    reps = [seminormal_rep(d, order) for d, _ in blocks]
    dims = [rep.dim for rep in reps]
    # per block, each seminormal s_k acting in its factor of X_1 (x) ... (x) X_L
    factors = {v: [kron(kron(Mat.identity(math.prod(dims[:l]), order), g),
                        Mat.identity(math.prod(dims[l + 1:]), order)) for g in rep.gens]
               for l, (v, rep) in enumerate(zip(vertices, reps))}
    one = Mat.identity(math.prod(dims), order)
    base = tuple(v for v, size in zip(vertices, sizes) for _ in range(size))
    support, sn_actions = {}, {}
    for sigma in young_cosets(params.n, sizes):
        j = sigma.act_tuple(base)
        support[j] = one.rows
        for m in range(1, params.n):
            v = j[m - 1]
            sn_actions[(m, j)] = factors[v][j[:m].count(v) - 1] if v == j[m] else one
    return WreathModule(params, support, {}, sn_actions)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

def reorient_module(mod: WreathModule, flips: Iterable[str]) -> WreathModule:
    """Transport along the isomorphism with the algebra of the reoriented quiver.

    For each flipped base edge a the generators map by a -> a*, a* -> -a,
    which preserves the commutator sum in the defining relations.  Two
    transports negate both members of each flipped pair, so four give
    back the module.
    """
    flipset = set(flips)
    q2 = mod.params.quiver.reoriented(flipset)
    params2 = Params(q2, mod.params.n, mod.params.weight, mod.params.nu)
    edge_actions = {}
    for (name, pos, j), mat in mod.edge_actions.items():
        if name.rstrip("*") not in flipset:
            edge_actions[(name, pos, j)] = mat
            continue
        # new a acts by old a*, new a* by -(old a)
        edge_actions[(star_name(name), pos, j)] = mat if name.endswith("*") else -mat
    return WreathModule(params2, mod.support, edge_actions, mod.sn_actions)
