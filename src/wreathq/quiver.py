"""Quivers, their doubles, Ringel forms, and reflections on Z^I and on weights.

Vertex ids are opaque strings; every enumeration follows declaration
order, so all outputs are deterministic.  The Cartan matrix and the
detection of affine quivers, which only the tests use, are in
``tests/reference.py``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .cyclotomic import Scalar
from .errors import EdgeLoopError, FormatError


class Edge(NamedTuple):
    name: str
    tail: str
    head: str

    @property
    def is_star(self) -> bool:
        return self.name.endswith("*")


def star_name(name: str) -> str:
    return name[:-1] if name.endswith("*") else name + "*"


class Quiver:
    """A finite quiver.  The double adds a reverse edge a* per edge a."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        for v in self.vertices:
            if not isinstance(v, str):
                raise FormatError(f"vertex id {v!r} must be a string")
        if len(set(self.vertices)) != len(self.vertices):
            raise FormatError("duplicate vertex ids")
        vset = set(self.vertices)
        base = []
        for e in edges:
            name, tail, head = e
            if not isinstance(name, str):
                raise FormatError(f"edge name {name!r} must be a string")
            if name.endswith("*"):
                raise FormatError(f"edge name {name!r} is reserved for reverse edges")
            if tail not in vset or head not in vset:
                raise FormatError(f"edge {name!r} references an unknown vertex")
            base.append(Edge(name, tail, head))
        if len({e.name for e in base}) != len(base):
            raise FormatError("duplicate edge names")
        self.edges: tuple[Edge, ...] = tuple(base)
        doubled = []
        for e in base:
            doubled.append(e)
            doubled.append(Edge(star_name(e.name), e.head, e.tail))
        self.double: tuple[Edge, ...] = tuple(doubled)
        self._by_name = {e.name: e for e in self.double}
        self._vindex = {v: k for k, v in enumerate(self.vertices)}

    # -- lookups ---------------------------------------------------------
    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise FormatError(f"unknown edge {name!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def has_loop_at(self, v: str) -> bool:
        return any(e.tail == e.head == v for e in self.edges)

    def out_edges(self, v: str) -> list[Edge]:
        """Edges of the double with tail v, in declaration order."""
        return [e for e in self.double if e.tail == v]

    def adjacent(self, u: str, v: str) -> bool:
        """Whether some base edge joins the distinct vertices u and v."""
        return u != v and any({e.tail, e.head} == {u, v} for e in self.edges)

    def reoriented(self, flips: Iterable[str]) -> "Quiver":
        """Same quiver with the named base edges reversed (names kept)."""
        flipset = set(flips)
        unknown = flipset - {e.name for e in self.edges}
        if unknown:
            raise FormatError(f"cannot flip unknown edges {sorted(unknown)}")
        new_edges = [Edge(e.name, e.head, e.tail) if e.name in flipset else e
                     for e in self.edges]
        return Quiver(self.vertices, new_edges)

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = ", ".join(f"{e.name}:{e.tail}->{e.head}" for e in self.edges)
        return f"Quiver({list(self.vertices)}; {es})"


class DimVector:
    """An element of Z^I, stored sparsely, immutable by convention."""

    __slots__ = ("coords", "_map")
    coords: tuple[tuple[str, int], ...]

    def __init__(self, coords: tuple[tuple[str, int], ...]):
        self.coords = coords
        self._map = dict(coords)

    @staticmethod
    def make(mapping: dict[str, int]) -> "DimVector":
        if any(type(c) is not int for c in mapping.values()):
            raise FormatError(f"dimension vector coefficients must be integers: {mapping}")
        return DimVector(tuple(sorted((v, c) for v, c in mapping.items() if c)))

    @staticmethod
    def unit(vertex: str) -> "DimVector":
        return DimVector(((vertex, 1),))

    def as_dict(self) -> dict[str, int]:
        return dict(self.coords)

    def __getitem__(self, v: str) -> int:
        return self._map.get(v, 0)

    def __add__(self, other: "DimVector") -> "DimVector":
        d = self.as_dict()
        for v, c in other.coords:
            d[v] = d.get(v, 0) + c
        return DimVector.make(d)

    def __sub__(self, other: "DimVector") -> "DimVector":
        return self + other.scale(-1)

    def scale(self, k: int) -> "DimVector":
        return DimVector.make({v: k * c for v, c in self.coords})

    def is_unit(self) -> Optional[str]:
        """The vertex v if this vector is a coordinate vector eps_v, else None."""
        if len(self.coords) == 1 and self.coords[0][1] == 1:
            return self.coords[0][0]
        return None

    def __eq__(self, other):
        if not isinstance(other, DimVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"DimVector(coords={self.coords!r})"


class Weight:
    """An element of B = sum of one copy of the base field per vertex,
    immutable by convention.  Every value must be a ``Scalar`` of the
    given order; nothing is coerced."""

    __slots__ = ("order", "coords", "_map")

    def __init__(self, mapping: dict[str, Scalar], order: int = 1):
        coords = {}
        for v, s in mapping.items():
            if type(s) is not Scalar:
                raise FormatError(f"weight entry at {v!r} must be a Scalar, got {s!r}")
            if s.order != order:
                raise FormatError(f"weight entry at {v!r} has order {s.order}, expected {order}")
            if s:
                coords[v] = s
        self.order = order
        self.coords = tuple(sorted(coords.items()))
        self._map = dict(self.coords)

    def __getitem__(self, v: str) -> Scalar:
        return self._map.get(v, Scalar.zero(self.order))

    def dot(self, alpha: DimVector) -> Scalar:
        total = Scalar.zero(self.order)
        d = self._map
        for v, c in alpha.coords:
            if v in d:
                total = total + d[v] * Scalar.rational(c, self.order)
        return total

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.order == other.order and self.coords == other.coords

    def __hash__(self):
        return hash((self.order, self.coords))

    def __repr__(self):
        inner = ", ".join(f"{v}: {s}" for v, s in self.coords)
        return f"Weight({{{inner}}})"


# ---------------------------------------------------------------------------
# Bilinear forms and reflections
# ---------------------------------------------------------------------------

def ringel_form(q: Quiver, alpha: DimVector, beta: DimVector) -> int:
    """<alpha, beta> = sum_i a_i b_i - sum_{edges} a_tail * b_head."""
    for v, _ in alpha.coords + beta.coords:
        if not q.has_vertex(v):
            raise FormatError(f"dimension vector uses unknown vertex {v!r}")
    total = sum(c * beta[v] for v, c in alpha.coords)
    for e in q.edges:
        total -= alpha[e.tail] * beta[e.head]
    return total


def symmetrized_form(q: Quiver, alpha: DimVector, beta: DimVector) -> int:
    return ringel_form(q, alpha, beta) + ringel_form(q, beta, alpha)


def require_loop_free(q: Quiver, i: str):
    """Refuse an unknown vertex (FormatError) or one with an edge-loop (EdgeLoopError)."""
    if not q.has_vertex(i):
        raise FormatError(f"unknown vertex {i!r}")
    if q.has_loop_at(i):
        raise EdgeLoopError(f"vertex {i!r} carries an edge-loop")


def simple_reflection(q: Quiver, i: str, alpha: DimVector) -> DimVector:
    """s_i(alpha) = alpha - (alpha, eps_i) eps_i; defined at loop-free vertices."""
    require_loop_free(q, i)
    pairing = symmetrized_form(q, alpha, DimVector.unit(i))
    return alpha - DimVector.unit(i).scale(pairing)


def dual_reflection(q: Quiver, i: str, lam: Weight) -> Weight:
    """(r_i lam)_j = lam_j - (eps_i, eps_j) lam_i; dual to s_i under the pairing."""
    require_loop_free(q, i)
    lam_i = lam[i]
    out = {}
    for j in q.vertices:
        pairing = symmetrized_form(q, DimVector.unit(i), DimVector.unit(j))
        out[j] = lam[j] - lam_i * Scalar.rational(pairing, lam.order)
    return Weight(out, lam.order)


# ---------------------------------------------------------------------------
# Weyl words on weights
# ---------------------------------------------------------------------------

class WordStep(NamedTuple):
    letter: str
    pivot: Scalar          # coordinate at the letter before reflecting
    ok: bool


class WordValidation(NamedTuple):
    steps: tuple[WordStep, ...]
    passed: bool
    final: Weight


def validate_word(q: Quiver, lam: Weight, word: list[str]) -> WordValidation:
    """Check the pivot condition along a reflection word, letter by letter.

    The word lists the first reflection first.  Each step reports the
    current coordinate at the letter (its vanishing is equivalent to the
    vanishing after reflecting, since r_i negates it); the result keeps
    the final weight.  The whole word passes iff every pivot is nonzero.
    """
    steps = []
    cur = lam
    passed = True
    for letter in word:
        require_loop_free(q, letter)
        pivot = cur[letter]
        ok = bool(pivot)
        passed = passed and ok
        cur = dual_reflection(q, letter, cur)
        steps.append(WordStep(letter, pivot, ok))
    return WordValidation(tuple(steps), passed, cur)


def apply_word_dimvector(q: Quiver, word: list[str], alpha: DimVector) -> DimVector:
    """s_{j_h} ... s_{j_1} (alpha) where the word lists j_1 first."""
    cur = alpha
    for letter in word:
        cur = simple_reflection(q, letter, cur)
    return cur
