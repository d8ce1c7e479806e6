"""Sparse exact matrices over Q(zeta_m) and the kernel/solve primitives.

A row is one positive int den and a dict {column: nonzero numerator of
``cyclotomic``}, canonical: no tuple with a zero zeta-part (a rational
entry is an int at every order), gcd(den, every coefficient) 1, and den
1 when empty, so ``==`` and ``hash`` compare values.  The block maps are
under a tenth nonzero, so every operation works on the nonzero entries
only, in integers; ``Scalar`` appears only at the boundary (the
constructor, indexing, ``row``, ``data``, ``trace`` and the factor of
``scaled``).  Rows are never mutated once built, so results share rows.

Matrices with zero rows or zero columns are first-class citizens: they
represent maps to or from the zero space and show up constantly in
graded modules.

A ``kernel_basis`` result carries an identity block: the row of each
free column is a unit row, {k: 1} over 1 for its own basis column k.
``solve_in_span`` reads the coordinates of a vector in such a basis off
those rows, with no elimination, and certifies them by one product of
the other rows with them, compared exactly; ``NotInSpanError`` is the
certificate failing.

``rank_mod_p`` gives a lower bound for the rank from the image of a
matrix over a word-size prime field; callers that can bound the rank
from above certify it without exact elimination.
"""

from __future__ import annotations

import heapq
from functools import lru_cache, partial, reduce
from math import gcd, isqrt, lcm
from operator import add, floordiv, mul

from .cyclotomic import (
    Scalar, euler_phi, num_add, num_content, num_div, num_inverse, num_mul,
)
from .errors import NotInSpanError, OrderMismatchError

_new = object.__new__
_EMPTY = (1, {})        # the zero row; rows are never mutated, so all share it


def _mat(rows: int, cols: int, srows: list, order: int) -> "Mat":
    """Wrap canonical rows (not shared with a builder)."""
    m = _new(Mat)
    m.rows = rows
    m.cols = cols
    m.order = order
    m._rows = srows
    return m


@lru_cache(maxsize=None)
def _ops(order: int) -> tuple:
    """Product, sum, content and exact division of numerators at this order:
    the int operators when phi(order) = 1, else the ``cyclotomic`` helpers."""
    if euler_phi(order) == 1:
        return mul, add, abs, floordiv
    return partial(num_mul, order), num_add, num_content, num_div


def _reduce(den: int, row: dict, ops: tuple) -> tuple:
    """The canonical (den, row) of the nonzero numerators ``row`` over den > 0;
    den 0 asks for the primitive multiple of the row (over 0) instead."""
    if den == 1 or not row:
        return 1, row
    g = gcd(den, *map(ops[2], row.values()))
    return (den, row) if g == 1 else (den // g, {c: ops[3](x, g) for c, x in row.items()})


def _lincomb(den: int, coef: dict, rows, ops: tuple) -> tuple:
    """The canonical row of (sum of coef[t] * rows[t]) / den, coef[t] nonzero:
    one common den, an integer inner loop, one gcd.  A lone coefficient +-1
    over 1 shares or negates its row; den 0 asks for the primitive multiple."""
    times, plus = ops[0], ops[1]
    if len(coef) == 1:
        (t, f), = coef.items()
        d, row = rows[t]
        if den == 1 and f == 1:
            return d, row
        # a field has no zero divisors, so no product of nonzeros cancels
        row = {c: times(f, x) for c, x in row.items()}
        return (d, row) if den == 1 and f == -1 else _reduce(den * d, row, ops)
    big = 1
    for t in coef:
        if rows[t][0] != 1:
            big = lcm(big, rows[t][0])
    acc: dict = {}
    get = acc.get
    for t, f in coef.items():
        d, row = rows[t]
        if d != big:
            f = times(f, big // d)
        if f != 1:
            for c, x in row.items():
                acc[c] = plus(get(c, 0), times(f, x))
        elif acc:
            for c, x in row.items():
                acc[c] = plus(get(c, 0), x)
        else:
            acc.update(row)
    if 0 in acc.values():
        acc = {c: x for c, x in acc.items() if x}
    return _reduce(den * big, acc, ops)


def _plus(x: tuple, y: tuple, ops: tuple) -> tuple:
    """The canonical sum of two canonical rows (the first may be empty)."""
    if not x[1].keys().isdisjoint(y[1]):
        return _lincomb(1, {0: 1, 1: 1}, (x, y), ops)
    # no common column: over the lcm of the dens there is no gcd to divide out
    if x[0] == y[0]:
        return x[0], {**x[1], **y[1]}
    big, times = lcm(x[0], y[0]), ops[0]
    return big, {c: v if d == big else times(v, big // d)
                 for d, row in (x, y) for c, v in row.items()}


def _eliminate(c: int, p: dict, inv: tuple, row: dict, ops: tuple) -> dict:
    """The primitive multiple of d * row - row[c] * y * p, clearing column c
    (fraction-free: Bareiss, Math. Comp. 22, 1968), for (y, d) =
    ``num_inverse`` of p[c].  Row is multiplied only by the int d, so it
    stays the primitive multiple of the exact row and does not grow."""
    if len(p) == 1:
        return {j: x for j, x in row.items() if j != c}
    a, b = inv[1], ops[0](row[c], inv[0])
    if type(b) is int:
        g = gcd(a, b)
        a, b = a // g, b // g
    return _lincomb(0, {0: a, 1: ops[0](-1, b)}, ((1, row), (1, p)), ops)[1]


class Mat:
    """Sparse matrix with entries in Q(zeta_order), immutable by convention:
    nothing assigns to it or to its rows after construction.

    ``Mat(rows, cols, data, order)`` takes the entries densely, row-major,
    each a ``Scalar`` of cyclotomic order ``order``; ``data`` gives them
    back the same way, as a fresh list.
    """

    __slots__ = ("rows", "cols", "order", "_rows")

    def __init__(self, rows: int, cols: int, data: list, order: int = 1):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        if any(type(x) is not Scalar for x in data):
            raise TypeError("matrix entries must be Scalars")
        if any(x.order != order for x in data):
            raise OrderMismatchError(f"matrix entries must have cyclotomic order {order}")
        self.rows = rows
        self.cols = cols
        self.order = order
        times, self._rows = _ops(order)[0], []
        for r in range(rows):
            # entries in lowest terms leave no gcd over the lcm of their dens
            row = {c: x for c, x in enumerate(data[r * cols:(r + 1) * cols]) if x}
            d = lcm(*[x.den for x in row.values()])
            self._rows.append((d, {c: times(x.numerator, d // x.den) for c, x in row.items()}))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int, order: int = 1) -> "Mat":
        return _mat(rows, cols, [_EMPTY] * rows, order)

    @staticmethod
    def identity(n: int, order: int = 1) -> "Mat":
        return _mat(n, n, [(1, {t: 1}) for t in range(n)], order)

    def scaled(self, s: Scalar) -> "Mat":
        if not s:
            return Mat.zeros(self.rows, self.cols, self.order)
        ops = _ops(self.order)
        f, times = s.numerator, ops[0]
        # a field has no zero divisors, so no product of nonzeros cancels
        return _mat(self.rows, self.cols,
                    [_reduce(s.den * d, {c: times(f, x) for c, x in row.items()}, ops)
                     if row else _EMPTY for d, row in self._rows], self.order)

    # -- access ----------------------------------------------------------
    @property
    def data(self) -> list:
        """The entries, dense and row-major: a fresh list on every access."""
        cols, order = self.cols, self.order
        out = [Scalar.zero(order)] * (self.rows * cols)
        for r, (d, row) in enumerate(self._rows):
            for c, x in row.items():
                out[r * cols + c] = Scalar.quotient(x, d, order)
        return out

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry {rc} outside a {self.rows}x{self.cols} matrix")
        d, row = self._rows[r]
        x = row.get(c)
        return Scalar.zero(self.order) if x is None else Scalar.quotient(x, d, self.order)

    def row(self, r: int) -> list:
        d, row = self._rows[r]
        z = Scalar.zero(self.order)
        return [z if c not in row else Scalar.quotient(row[c], d, self.order)
                for c in range(self.cols)]

    def __bool__(self) -> bool:
        for _, row in self._rows:
            if row:
                return True
        return False

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.order) == (other.rows, other.cols, other.order) \
            and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, self.order,
                     tuple((d, tuple(sorted(row.items()))) for d, row in self._rows)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------
    def _check_order(self, other: "Mat"):
        if self.order != other.order:
            raise OrderMismatchError("matrices from different cyclotomic fields")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_order(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        ops = _ops(self.order)
        return _mat(self.rows, self.cols, [b if not a[1] else a if not b[1] else _plus(a, b, ops)
                                           for a, b in zip(self._rows, other._rows)], self.order)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        times = _ops(self.order)[0]
        return _mat(self.rows, self.cols, [(d, {c: times(-1, x) for c, x in row.items()})
                                           for d, row in self._rows], self.order)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_order(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b, ops = other._rows, _ops(self.order)
        return _mat(self.rows, other.cols, [_lincomb(d, row, b, ops) if row else _EMPTY
                                            for d, row in self._rows], self.order)

    def transpose(self) -> "Mat":
        # column c goes over the lcm of the denominators of its entries
        dens, cols, ops = [1] * self.cols, [{} for _ in range(self.cols)], _ops(self.order)
        for d, row in self._rows:
            for c in row if d != 1 else ():
                dens[c] = lcm(dens[c], d)
        for r, (d, row) in enumerate(self._rows):
            for c, x in row.items():
                cols[c][r] = x if d == dens[c] else ops[0](x, dens[c] // d)
        return _mat(self.cols, self.rows, [(1, col) if d == 1 else _reduce(d, col, ops)
                                           for d, col in zip(dens, cols)], self.order)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        diag = [(row[r], d) for r, (d, row) in enumerate(self._rows) if r in row]
        big, (times, plus) = lcm(*[d for _, d in diag]), _ops(self.order)[:2]
        total = reduce(plus, [times(x, big // d) for x, d in diag], 0)
        return Scalar.quotient(total, big, self.order)


def hstack(mats: list[Mat]) -> Mat:
    rows = mats[0].rows
    order = mats[0].order
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    bb, off = BlockBuilder(rows, sum(m.cols for m in mats), order), 0
    for m in mats:
        bb.add_block(0, off, m)
        off += m.cols
    return bb.build()


def vstack(mats: list[Mat]) -> Mat:
    cols = mats[0].cols
    order = mats[0].order
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack column mismatch")
    srows = []
    for m in mats:
        srows.extend(m._rows)
    return _mat(len(srows), cols, srows, order)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; index (i1*b.rows+i2, j1*b.cols+j2) = a[i1,j1]*b[i2,j2]."""
    a._check_order(b)
    bc, ops = b.cols, _ops(a.order)
    return _mat(a.rows * b.rows, a.cols * bc, [
        _lincomb(d, arow, {j: (bd, {j * bc + c: y for c, y in brow.items()}) for j in arow}, ops)
        for d, arow in a._rows for bd, brow in b._rows], a.order)


class BlockBuilder:
    """Mutable scratch matrix used to assemble block maps, then frozen.

    Blocks added to the same place are summed.  ``build``
    hands the rows over to the result, so the builder is spent after it.
    """

    __slots__ = ("rows", "cols", "order", "_rows")

    def __init__(self, rows: int, cols: int, order: int = 1):
        self.rows = rows
        self.cols = cols
        self.order = order
        self._rows = [_EMPTY] * rows

    def add_block(self, r0: int, c0: int, m: Mat):
        dst = self._rows
        for r, (d, row) in enumerate(m._rows, r0):
            if row:
                piece = (d, {c + c0: x for c, x in row.items()} if c0 else row)
                dst[r] = piece if dst[r] is _EMPTY else _plus(dst[r], piece, _ops(self.order))

    def build(self) -> Mat:
        out = _mat(self.rows, self.cols, self._rows, self.order)
        self._rows = None
        return out


def _forward(rows: list, clear) -> tuple[list[int], list[dict]]:
    """The forward elimination shared by ``rref``, ``rank`` and ``rank_mod_p``.

    Rows (nonzero dicts) wait in buckets keyed by their leading column.
    The bucket of the leftmost leading column holds every remaining row
    with an entry there; the shortest of them becomes the pivot row, which
    limits fill, and ``clear(c, pivot, others)`` clears column c out of
    the others, in the list, and returns the pivot row to keep.  Returns
    the pivot columns, strictly increasing, and rows.
    """
    buckets: dict[int, list] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    leads = list(buckets)
    heapq.heapify(leads)
    piv, prow = [], []
    while leads:
        c = heapq.heappop(leads)
        bucket = buckets.pop(c)
        k = min(range(len(bucket)), key=lambda t: len(bucket[t])) if len(bucket) > 1 else 0
        p = clear(c, bucket.pop(k), bucket)
        for row in bucket:
            if row:
                lead = min(row)
                got = buckets.get(lead)
                if got is None:
                    buckets[lead] = [row]
                    heapq.heappush(leads, lead)
                else:
                    got.append(row)
        piv.append(c)
        prow.append(p)
    return piv, prow


def _exact_forward(a: Mat) -> tuple[list[int], list[dict]]:
    """``_forward`` on the numerators of a's rows, clearing by ``_eliminate``."""
    def clear(c, p, others):
        if others:
            inv, ops = num_inverse(a.order, p[c]), _ops(a.order)
            others[:] = [_eliminate(c, p, inv, row, ops) for row in others]
        return p
    return _forward([row for _, row in a._rows if row], clear)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Unique reduced row-echelon form and its strictly increasing pivot columns.

    Sparse fraction-free Gauss-Jordan elimination: the forward pass of
    ``_exact_forward``, then back-substitution from the last pivot by the
    same row operation, which clears each pivot column above its pivot,
    and last each pivot row divided by its pivot.
    """
    piv, prow = _exact_forward(a)
    pivpos, invs, ops = {c: k for k, c in enumerate(piv)}, [None] * len(piv), _ops(a.order)
    for k in range(len(piv) - 1, -1, -1):
        for cl in [j for j in prow[k] if j in pivpos and j != piv[k]]:
            # the later pivot rows are reduced already: beyond their pivot
            # they hold only free columns, so no pivot column comes back
            q = pivpos[cl]
            prow[k] = _eliminate(cl, prow[q], invs[q], prow[k], ops)
        invs[k] = num_inverse(a.order, prow[k][piv[k]])
    out = [_lincomb(d, {0: y}, ((1, p),), ops) for (y, d), p in zip(invs, prow)]
    out += [_EMPTY] * (a.rows - len(piv))
    return _mat(a.rows, a.cols, out, a.order), tuple(piv)


def rank(a: Mat) -> int:
    """The pivot count of the forward pass of ``rref``, with no back-substitution."""
    return len(_exact_forward(a)[0])


def _is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to isqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % q for q in range(3, isqrt(n) + 1, 2))


@lru_cache(maxsize=None)
def _modulus(order: int) -> tuple[int, int]:
    """The largest prime p < 2^31 with p = 1 (mod order), and a primitive
    order-th root of unity g mod p (a root of Phi_order mod p)."""
    p = (2 ** 31 - 2) // order * order + 1
    while not _is_prime(p):
        p -= order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    h = 2
    while True:
        g = pow(h, (p - 1) // order, p)
        if all(pow(g, order // q, p) != 1 for q in factors):
            return p, g
        h += 1


def rank_mod_p(a: Mat) -> int | None:
    """Rank of the image of ``a`` over F_p: never more than ``rank(a)``.

    p and the image g of zeta come from ``_modulus``.  An entry
    sum(num_i zeta^i) / den maps to sum(num_i g^i) * den^-1 mod p; this
    is a ring homomorphism from Z[zeta][1/den] to F_p, so a minor that is
    nonzero mod p is nonzero exactly.  Returns None if p divides a
    row denominator, with one inverse per row.  The forward pass of ``rref``
    (``_forward``), on rows of ``{col: int}``.
    """
    p, g = _modulus(a.order)
    powers = [pow(g, i, p) for i in range(euler_phi(a.order))]
    rows = []
    for den, row in a._rows:
        if den % p == 0:
            return None
        s = 1 if den == 1 else pow(den, -1, p)
        out = {}
        for c, x in row.items():
            v = (x if type(x) is int else sum(map(mul, x, powers))) * s % p
            if v:
                out[c] = v
        if out:
            rows.append(out)

    def clear(c, piv, others):
        if others:
            neg_inv = p - pow(piv.pop(c), -1, p)
            for row in others:
                f = row.pop(c) * neg_inv % p
                for j, x in piv.items():
                    y = row.get(j)
                    if y is None:
                        row[j] = f * x % p
                    else:
                        y = (y + f * x) % p
                        if y:
                            row[j] = y
                        else:
                            del row[j]
        return piv

    return len(_forward(rows, clear)[0])


def kernel_basis(a: Mat) -> Mat:
    """Deterministic basis of the null space {v : a v = 0} as matrix columns.

    Columns come from the RREF with free variables taken in ascending
    column order, so the output is reproducible across runs.  Column k
    belongs to the k-th free column f, and row f is the unit row {k: 1}:
    the identity block that ``solve_in_span`` reads coordinates from.
    """
    red, piv = rref(a)
    pivset = set(piv)
    free = {f: k for k, f in enumerate(c for c in range(a.cols) if c not in pivset)}
    srows = [(1, {free[f]: 1}) if f in free else None for f in range(a.cols)]
    for c, (d, row) in zip(piv, red._rows):
        # without its pivot numerator d the row keeps gcd 1 with d
        srows[c] = (d, {free[f]: num_mul(a.order, -1, x) for f, x in row.items() if f != c})
    return _mat(a.cols, len(free), srows, a.order)


def solve_in_span(basis: Mat, target: Mat) -> Mat:
    """Solve basis @ X = target; raise NotInSpanError if any column escapes.

    ``target`` may have several columns.  Every column c of ``basis``
    needs a unit row, a row equal to {c: 1} (every ``kernel_basis``
    result and every identity has one at each free column); ValueError
    refuses a basis without.  X is read off: its row c is the target's
    row at the first unit row of c.  The other rows certify it with one
    exact product: target lies in the span exactly when (those rows of
    basis) @ X equals the same rows of target.
    """
    basis._check_order(target)
    if basis.rows != target.rows:
        raise ValueError("solve_in_span row mismatch")
    unit = [None] * basis.cols
    for r, (d, row) in enumerate(basis._rows):
        if d == 1 and len(row) == 1:
            c, x = next(iter(row.items()))
            if unit[c] is None and x == 1:
                unit[c] = r
    if None in unit:
        raise ValueError(f"basis column {unit.index(None)} has no unit row")
    trows = target._rows
    x = _mat(basis.cols, target.cols, [trows[r] for r in unit], basis.order)
    # the unit rows of basis @ X hold by construction
    read = set(unit)
    rest = [r for r in range(basis.rows) if r not in read]
    brows = basis._rows
    check = _mat(len(rest), basis.cols, [brows[r] for r in rest], basis.order) @ x
    if check._rows != [trows[r] for r in rest]:
        raise NotInSpanError("target is outside the span of the basis")
    return x


def intersect_kernels(maps: list[Mat], ambient_dim: int, order: int = 1) -> Mat:
    """Basis of the common kernel of the given maps out of one space.

    An empty list means no constraints: the identity on the ambient space.
    Equals the kernel basis of the vertically stacked matrix.
    """
    mats = [m for m in maps]
    for m in mats:
        if m.cols != ambient_dim:
            raise ValueError("intersect_kernels domain mismatch")
    if not mats:
        return Mat.identity(ambient_dim, order)
    return kernel_basis(vstack(mats))
