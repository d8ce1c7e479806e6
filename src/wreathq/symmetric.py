"""Symmetric groups in exact arithmetic.

Contents: permutations of [1, n] with canonical adjacent-transposition
words, Young diagrams with their rectangle data, Young's seminormal form
of the irreducible representations (all matrices rational, no square
roots), and representations induced from Young subgroups with canonical
minimal-length coset representatives.  The group-algebra invertibility
of x +- nu * (s_12 + ... + s_1r), which only the tests decide, is in
``tests/reference.py``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError
from .linalg import BlockBuilder, Mat, kron


# ---------------------------------------------------------------------------
# Permutations of {1, ..., n}
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of [1, n], immutable by convention; ``img[x-1]`` is the image of x."""

    __slots__ = ("img",)

    def __init__(self, img: Sequence[int]):
        t = tuple(img)
        if sorted(t) != list(range(1, len(t) + 1)):
            raise FormatError(f"not a bijection of [1,{len(t)}]: {t}")
        self.img = t

    @property
    def n(self) -> int:
        return len(self.img)

    @staticmethod
    def adjacent(m: int, n: int) -> "Perm":
        """The transposition (m, m+1) inside S_n."""
        return Perm.transposition(m, m + 1, n)

    @staticmethod
    def transposition(a: int, b: int, n: int) -> "Perm":
        img = list(range(1, n + 1))
        img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
        return Perm(img)

    @staticmethod
    def from_cycle_type(parts: Sequence[int], n: int) -> "Perm":
        """Canonical representative with cycles on consecutive blocks."""
        img = list(range(1, n + 1))
        start = 1
        for p in parts:
            for off in range(p):
                img[start - 1 + off] = start + (off + 1) % p
            start += p
        return Perm(img)

    def __call__(self, x: int) -> int:
        return self.img[x - 1]

    def compose(self, other: "Perm") -> "Perm":
        """(self o other)(x) = self(other(x))."""
        return Perm(tuple(self.img[o - 1] for o in other.img))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for x, y in enumerate(self.img, 1):
            inv[y - 1] = x
        return Perm(inv)

    def act_tuple(self, t: tuple) -> tuple:
        """sigma(j) with sigma(j)_{sigma(x)} = j_x, i.e. entries move to their images."""
        out = [None] * self.n
        for x in range(1, self.n + 1):
            out[self.img[x - 1] - 1] = t[x - 1]
        return tuple(out)

    def sign(self) -> int:
        seen = [False] * self.n
        sgn = 1
        for x in range(1, self.n + 1):
            if seen[x - 1]:
                continue
            length = 0
            y = x
            while not seen[y - 1]:
                seen[y - 1] = True
                y = self.img[y - 1]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn

    def adjacent_word(self) -> tuple[int, ...]:
        """Adjacent transpositions with self = s_{w[0]} o s_{w[1]} o ... o s_{w[-1]}.

        Produced by bubble-sorting the one-line notation, so the word is
        canonical and reduced.
        """
        line = list(self.img)
        swaps = []
        changed = True
        while changed:
            changed = False
            for k in range(len(line) - 1):
                if line[k] > line[k + 1]:
                    line[k], line[k + 1] = line[k + 1], line[k]
                    swaps.append(k + 1)
                    changed = True
        # self * s_{swaps[0]} * ... * s_{swaps[-1]} = id, so
        # self = s_{swaps[-1]} * ... * s_{swaps[0]}
        return tuple(reversed(swaps))

    def __eq__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __repr__(self):
        return f"Perm{self.img}"


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, largest part first, in reverse-lex order."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest: int, maxpart: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(n, n, ())
    return tuple(out)


def swap_tuple(j: tuple, m: int) -> tuple:
    """The tuple after the adjacent transposition (m, m+1)."""
    return j[:m - 1] + (j[m], j[m - 1]) + j[m + 1:]


def swap_position(pos: int, m: int) -> int:
    """The image of a position under the adjacent transposition (m, m+1)."""
    return {m: m + 1, m + 1: m}.get(pos, pos)


def is_orbit_root(pos: int, j: tuple) -> bool:
    """Whether (pos, j) is the root of its S_n-orbit: j sorted, and pos the first
    position of the entry j_pos."""
    return j == tuple(sorted(j)) and j.index(j[pos - 1]) == pos - 1


def spanning_tree(n: int, root_pos: int, root: tuple) -> list[tuple]:
    """The edges (pos, j, m) of a breadth-first spanning tree (a Schreier tree) of
    the S_n-orbit of (root_pos, root) under s_m (pos, j) = (s_m pos, s_m j): the
    tree first reaches (s_m pos, s_m j) from (pos, j), through s_m, and lists
    each edge after the edge that reaches (pos, j)."""
    seen = {(root_pos, root)}
    queue = [(root_pos, root)]
    edges = []
    for pos, j in queue:        # the loop reaches the points it appends
        for m in range(1, n):
            y = (swap_position(pos, m), swap_tuple(j, m))
            if y not in seen:
                seen.add(y)
                queue.append(y)
                edges.append((pos, j, m))
    return edges


# ---------------------------------------------------------------------------
# Young diagrams and contents
# ---------------------------------------------------------------------------

class YoungDiagram:
    """A partition drawn as a diagram, immutable by convention; rows weakly
    decreasing, all positive."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        t = tuple(parts)
        if any(type(p) is not int for p in t):
            raise FormatError(f"partition parts must be integers: {t}")
        if not t or any(p <= 0 for p in t):
            raise FormatError(f"partition parts must be positive: {t}")
        if any(t[k] < t[k + 1] for k in range(len(t) - 1)):
            raise FormatError(f"partition must be weakly decreasing: {t}")
        self.parts = t

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __eq__(self, other):
        if not isinstance(other, YoungDiagram):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"YoungDiagram{self.parts}"


def rectangle(mu: YoungDiagram) -> Optional[tuple[int, int]]:
    """(height a, width b) when mu is an a x b rectangle, else None."""
    parts = mu.parts
    return (len(parts), parts[0]) if len(set(parts)) == 1 else None


def standard_tableaux(mu: YoungDiagram) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of shape mu, sorted by row-reading word.

    A tableau is a tuple of row tuples filled with 1..n, increasing along
    rows and down columns.  The lexicographic order on row-reading words
    fixes the basis order of the seminormal representation.
    """
    parts = mu.parts
    n = mu.size
    rows = [[0] * w for w in parts]
    fill_r = [0] * len(parts)  # next free column per row
    out = []

    def place(v: int):
        if v > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for r in range(len(parts)):
            c = fill_r[r]
            if c >= parts[r]:
                continue
            if r > 0 and fill_r[r - 1] <= c:
                continue  # cell above not filled yet: column would decrease
            rows[r][c] = v
            fill_r[r] += 1
            place(v + 1)
            fill_r[r] -= 1
            rows[r][c] = 0

    place(1)
    out.sort(key=lambda t: tuple(x for row in t for x in row))
    return out


def _positions(tab) -> dict[int, tuple[int, int]]:
    return {v: (r + 1, c + 1) for r, row in enumerate(tab) for c, v in enumerate(row)}


class RepMatrices:
    """Exact matrices of the adjacent transpositions in a representation of
    S_n, immutable by convention (the cache of ``matrix_of`` only fills)."""

    __slots__ = ("n", "dim", "gens", "order", "_cache")

    def __init__(self, n: int, gens: Sequence[Mat], order: int = 1):
        if len(gens) != max(n - 1, 0):
            raise FormatError(f"need {n - 1} generator matrices, got {len(gens)}")
        dim = gens[0].rows if gens else 1
        for g in gens:
            if g.rows != dim or g.cols != dim:
                raise FormatError("generator matrices must be square of equal size")
        self.n = n
        self.dim = dim
        self.gens = tuple(gens)
        self.order = order
        self._cache = {}

    def matrix_of(self, p: Perm) -> Mat:
        if p.n != self.n:
            raise FormatError("permutation degree mismatch")
        cached = self._cache.get(p.img)
        if cached is not None:
            return cached
        out = Mat.identity(self.dim, self.order)
        for k in p.adjacent_word():
            out = out @ self.gens[k - 1]
        self._cache[p.img] = out
        return out


def seminormal_rep(mu: YoungDiagram, order: int = 1) -> RepMatrices:
    """Young's seminormal form of the irreducible representation for mu.

    The basis is the list of standard tableaux in row-reading order.  For
    the adjacent transposition s_k and a tableau T with axial distance
    d = content(k+1) - content(k):

      * k, k+1 in the same row:    s_k T = T
      * same column:               s_k T = -T
      * otherwise, with T' = T with k and k+1 swapped (again standard):
          s_k T = (1/d) T + T'             if d < 0
          s_k T = (1/d) T + (1 - 1/d^2) T' if d > 0

    All entries are rational, so the matrices live over Q exactly.  The
    generator relations (involutions, braid, distant commutation) are
    certified by the test suite for every partition of n <= 5.
    """
    n = mu.size
    tabs = standard_tableaux(mu)
    index = {t: k for k, t in enumerate(tabs)}
    dim = len(tabs)
    gens = []
    for k in range(1, n):
        data = [Scalar.zero(order)] * (dim * dim)
        for t_idx, tab in enumerate(tabs):
            pos = _positions(tab)
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            if r1 == r2:
                data[t_idx * (dim + 1)] = Scalar.one(order)
                continue
            if c1 == c2:
                data[t_idx * (dim + 1)] = Scalar.rational(-1, order)
                continue
            d = (c2 - r2) - (c1 - r1)
            rho = Fraction(1, d)
            swapped = tuple(
                tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                for row in tab
            )
            s_idx = index[swapped]
            data[s_idx * dim + t_idx] = (
                Scalar.one(order) if d < 0
                else Scalar.rational(1 - rho * rho, order)
            )
            data[t_idx * (dim + 1)] = Scalar.rational(rho, order)
        gens.append(Mat(dim, dim, data, order))
    return RepMatrices(n, gens, order)


# ---------------------------------------------------------------------------
# Induction from Young subgroups
# ---------------------------------------------------------------------------

def position_blocks(sizes: Sequence[int]) -> list[range]:
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return [range(offs[k] + 1, offs[k + 1] + 1) for k in range(len(sizes))]


def young_cosets(n: int, sizes: Sequence[int]) -> list[Perm]:
    """Minimal-length left coset representatives of S_sizes in S_n.

    These are the permutations increasing on each block of positions,
    enumerated lexicographically by their tuple of image sets.
    """
    if sum(sizes) != n:
        raise FormatError(f"block sizes {tuple(sizes)} do not sum to {n}")
    blocks = position_blocks(sizes)
    reps: list[Perm] = []

    def rec(remaining: tuple[int, ...], chosen: list[tuple[int, ...]]):
        if len(chosen) == len(sizes):
            img = [0] * n
            for block, images in zip(blocks, chosen):
                for pos, val in zip(block, images):
                    img[pos - 1] = val
            reps.append(Perm(img))
            return
        k = len(chosen)
        for combo in itertools.combinations(remaining, sizes[k]):
            rest = tuple(x for x in remaining if x not in combo)
            rec(rest, chosen + [combo])

    rec(tuple(range(1, n + 1)), [])
    return reps


class YoungCosetAction:
    """Left action of S_n generators on the canonical coset representatives.

    For g adjacent and a representative sigma, factor g*sigma = sigma' * h
    with sigma' another representative and h in the Young subgroup; h is
    returned restricted to each block as an element of S_{n_l}.
    """

    def __init__(self, n: int, sizes: Sequence[int]):
        self.n = n
        self.sizes = tuple(sizes)
        self.blocks = position_blocks(sizes)
        self.cosets = young_cosets(n, sizes)
        self._index = {self._key(p): k for k, p in enumerate(self.cosets)}

    def _key(self, p: Perm) -> tuple:
        return tuple(tuple(sorted(p(x) for x in block)) for block in self.blocks)

    def coset_of(self, p: Perm) -> int:
        return self._index[self._key(p)]

    def factor(self, g: Perm, coset: int) -> tuple[int, Perm, list[Perm]]:
        """Return (coset', h, [h restricted to each block])."""
        sigma = self.cosets[coset]
        gs = g.compose(sigma)
        c2 = self.coset_of(gs)
        h = self.cosets[c2].inverse().compose(gs)
        parts = []
        for block, size in zip(self.blocks, self.sizes):
            base = block[0]
            parts.append(Perm(tuple(h(base + t) - base + 1 for t in range(size))))
        return c2, h, parts


def induce_rep(n: int, blocks: Sequence[tuple[int, RepMatrices]]) -> RepMatrices:
    """Induce the outer tensor of the given block representations to S_n.

    ``blocks`` lists (n_l, X_l) with sum n_l = n.  The induced space has
    the basis (coset, tensor-index), coset-major with the block tensor
    factors in row-major order; its dimension is the index of the Young
    subgroup times the product of the block dimensions.
    """
    sizes = [b[0] for b in blocks]
    reps = [b[1] for b in blocks]
    for size, rep in zip(sizes, reps):
        if rep.n != size:
            raise FormatError(f"block of size {size} got a representation of S_{rep.n}")
    order = reps[0].order if reps else 1
    if any(r.order != order for r in reps):
        raise FormatError("mixed scalar orders across blocks")
    action = YoungCosetAction(n, sizes)
    ncos = len(action.cosets)
    inner = 1
    for r in reps:
        inner *= r.dim
    total = ncos * inner
    gens = []
    for m in range(1, n):
        g = Perm.adjacent(m, n)
        bb = BlockBuilder(total, total, order)
        for c in range(ncos):
            c2, _, parts = action.factor(g, c)
            block = Mat.identity(1, order)
            for rep, hpart in zip(reps, parts):
                block = kron(block, rep.matrix_of(hpart))
            bb.add_block(c2 * inner, c * inner, block)
        gens.append(bb.build())
    return RepMatrices(n, gens, order)
