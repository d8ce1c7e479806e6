"""The dictionary between symplectic-reflection-algebra and quiver parameters.

For a finite group with a McKay quiver, the weight coordinate at a
vertex is the trace of t*1 + c on the corresponding irreducible, and nu
is k|Gamma|/2.  Cyclic groups get a built-in character table; other
groups are supplied as exact tables.  The deformability report collects
the rectangle, adjacency, trace, and word-genericity conditions that
govern flat deformations of the induced modules.  The cyclic McKay
quivers, which only the tests build, are in ``tests/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cyclotomic import Scalar
from .errors import FormatError
from .modules import Params
from .quiver import DimVector, Quiver, Weight, apply_word_dimvector, dual_reflection, validate_word
from .reflection import is_generic
from .symmetric import YoungDiagram, rectangle


class GammaData(NamedTuple("_GammaData", [
        ("order", int), ("elements", tuple[str, ...]), ("vertices", tuple[str, ...]),
        ("table", dict), ("dims", dict), ("scalar_order", int)])):
    """Exact character data of a finite group, indexed by quiver vertices.

    ``table[vertex][element]`` is the character value; the identity
    element must come first in ``elements`` and its column must equal the
    dimensions.  Conjugacy classes are recovered from the table itself
    (characters separate classes).
    """

    __slots__ = ()

    @staticmethod
    def cyclic(m: int) -> "GammaData":
        """The cyclic group Z/m with characters chi_j(g^s) = zeta^(j s)."""
        if m < 1:
            raise FormatError("cyclic group order must be positive")
        elements = tuple(f"g{s}" for s in range(m))
        vertices = tuple(str(j) for j in range(m))
        table = {
            v: {elements[s]: Scalar.zeta(m, (int(v) * s) % m) for s in range(m)}
            for v in vertices
        }
        dims = {v: 1 for v in vertices}
        return GammaData(m, elements, vertices, table, dims, m)

    def __new__(cls, order: int, elements: tuple[str, ...], vertices: tuple[str, ...],
                table: dict, dims: dict, scalar_order: int):
        self = super().__new__(cls, order, elements, vertices, table, dims, scalar_order)
        if self.order < 1:
            raise FormatError(f"group order must be at least 1, got {self.order}")
        if len(set(self.elements)) != len(self.elements) or len(self.elements) != self.order:
            raise FormatError(f"elements must be {self.order} distinct group elements")
        if any(d < 1 for d in self.dims.values()):
            raise FormatError("every dims value must be at least 1")
        ident = self.elements[0]
        for v in self.vertices:
            if self.table[v][ident] != Scalar.rational(self.dims[v], self.scalar_order):
                raise FormatError(f"identity column disagrees with dims at vertex {v!r}")
        if sum(self.dims[v] ** 2 for v in self.vertices) != self.order:
            raise FormatError("squared dimensions must sum to the group order")
        return self

    def conjugacy_classes(self) -> list[tuple[str, ...]]:
        """Group elements by their full character column."""
        seen: dict[tuple, list[str]] = {}
        for e in self.elements:
            key = tuple(self.table[v][e] for v in self.vertices)
            seen.setdefault(key, []).append(e)
        return [tuple(v) for v in seen.values()]


class SRAParams(NamedTuple):
    """(t, k, c) with c supported on nonidentity elements, a class function."""

    t: Scalar
    k: Scalar
    c: dict

    def validate_against(self, gamma: GammaData) -> None:
        ident = gamma.elements[0]
        for e in self.c:
            if e == ident:
                raise FormatError("c must be supported away from the identity")
            if e not in gamma.elements:
                raise FormatError(f"c refers to unknown element {e!r}")
        for cls in gamma.conjugacy_classes():
            vals = {str(self.c.get(e, Scalar.zero(self.t.order))) for e in cls}
            if len(vals) > 1:
                raise FormatError(f"c is not constant on the class {cls}")


def translate_params(gamma: GammaData, sra: SRAParams) -> tuple[Weight, Scalar]:
    """lambda_i = trace of t*1 + c on N_i; nu = k |Gamma| / 2."""
    sra.validate_against(gamma)
    order = sra.t.order
    out = {}
    for v in gamma.vertices:
        total = sra.t * Scalar.rational(gamma.dims[v], order)
        for e, coeff in sra.c.items():
            total = total + coeff * gamma.table[v][e]
        out[v] = total
    nu = sra.k * Scalar.rational(Fraction(gamma.order, 2), order)
    return Weight(out, order), nu


def recover_sra(gamma: GammaData, weight: Weight, nu: Scalar) -> SRAParams:
    """Invert the dictionary by the second orthogonality relation.

    For a character table, sum_v conj(chi_v(e)) chi_v(e') is |Gamma| / |class|
    when e and e' are conjugate and 0 otherwise (Serre, Linear
    Representations of Finite Groups, ch. 2), so t = sum_v dim_v lambda_v
    / |Gamma| and c(e) = sum_v conj(chi_v(e)) lambda_v / |Gamma| for e != 1.
    For cyclic groups this is discrete Fourier inversion.
    """
    order = weight.order
    scale = Scalar.rational(Fraction(1, gamma.order), order)
    t = Scalar.zero(order)
    for v in gamma.vertices:
        t = t + weight[v] * Scalar.rational(gamma.dims[v], order)
    c = {}
    for e in gamma.elements[1:]:
        value = Scalar.zero(order)
        for v in gamma.vertices:
            value = value + gamma.table[v][e].conjugate() * weight[v]
        if value:
            c[e] = value * scale
    return SRAParams(t * scale, nu * Scalar.rational(Fraction(2, gamma.order), order), c)


# ---------------------------------------------------------------------------
# The deformability report
# ---------------------------------------------------------------------------

class ConditionItem(NamedTuple):
    label: str
    passed: bool
    detail: str

    def __str__(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.label}: {self.detail}"


class ConditionReport(NamedTuple):
    items: tuple[ConditionItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    def summary(self) -> str:
        return "\n".join(str(i) for i in self.items)


def deformability_report(q: Quiver, lambda0: Weight, lam: Weight, nu: Scalar,
                         word: Sequence[str],
                         blocks: Sequence[tuple[YoungDiagram, DimVector]],
                         n: Optional[int] = None) -> ConditionReport:
    """Evaluate the deformation conditions for induced modules.

    ``blocks`` lists (diagram X_l, dimension vector alpha_l of Y_l).  The
    report covers: validity of the word against lambda0; rectangles;
    the transported vertices being distinct, loop-free and pairwise
    non-adjacent; the exact trace identities lam . alpha_l =
    (a_l - b_l) nu; and genericity of (lam, nu) along the word prefixes,
    against p < n.  An absent n is the total size of the diagrams; either
    way n must be at least 1, or word-genericity would check nothing.
    """
    if n is None:
        n = sum(d.size for d, _ in blocks)
    if n < 1:
        raise FormatError(f"n must be at least 1, got {n}")
    items: list[ConditionItem] = []

    word_check = validate_word(q, lambda0, list(word))
    items.append(ConditionItem(
        "word", word_check.passed,
        "pivots " + ", ".join(str(s.pivot) for s in word_check.steps) if word_check.steps
        else "empty word"))

    rects = []
    for k, (diagram, alpha) in enumerate(blocks, 1):
        rect = rectangle(diagram)
        rects.append(rect)
        if rect:
            items.append(ConditionItem(
                f"rectangle[{k}]", True, f"diagram {diagram.parts} is {rect[0]} x {rect[1]}"))
        else:
            items.append(ConditionItem(
                f"rectangle[{k}]", False, f"diagram {diagram.parts} is not a rectangle"))

    transported: list[Optional[str]] = []
    for k, (_, alpha) in enumerate(blocks, 1):
        moved = apply_word_dimvector(q, list(word), alpha)
        vertex = moved.is_unit()
        transported.append(vertex)
        if vertex is None:
            items.append(ConditionItem(
                f"transport[{k}]", False,
                f"w(alpha) = {moved.as_dict()} is not a coordinate vector"))
        else:
            items.append(ConditionItem(
                f"transport[{k}]", True, f"w(alpha) = eps_{vertex}"))

    known = [v for v in transported if v is not None]
    distinct = len(set(known)) == len(known)
    loop_free = all(not q.has_loop_at(v) for v in known)
    non_adjacent = all(not q.adjacent(u, v)
                       for a, u in enumerate(known) for v in known[a + 1:])
    items.append(ConditionItem(
        "separation", distinct and loop_free and non_adjacent,
        f"vertices {known}: "
        + ("distinct" if distinct else "repeated") + ", "
        + ("loop-free" if loop_free else "edge-loop present") + ", "
        + ("pairwise non-adjacent" if non_adjacent else "adjacent pair present")))

    for k, ((_, alpha), rect) in enumerate(zip(blocks, rects), 1):
        if not rect:
            items.append(ConditionItem(
                f"trace[{k}]", False, "needs a rectangular diagram"))
            continue
        height, width = rect
        lhs = lam.dot(alpha)
        rhs = nu * Scalar.rational(height - width, lam.order)
        items.append(ConditionItem(
            f"trace[{k}]", lhs == rhs,
            f"lambda . alpha = {lhs}, (a - b) nu = {rhs}"))

    cur = lam
    generic = True
    detail = "all prefix coordinates avoid +-p nu" if word else "no constraints (empty word)"
    for g, letter in enumerate(word, 1):
        cur = dual_reflection(q, letter, cur)
        result = is_generic(Params(q, n, cur, nu), letter)
        if not result:
            generic = False
            detail = f"prefix {g}: coordinate {cur[letter]} clashes at p = {result.failing_p}"
            break
    items.append(ConditionItem("word-genericity", generic, detail))

    return ConditionReport(tuple(items))
