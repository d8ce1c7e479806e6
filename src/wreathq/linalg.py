"""Sparse exact matrices over Q(zeta_m) and the kernel/solve primitives.

A matrix stores one dict per row, mapping a column index to a nonzero
``Scalar``; zeros are never stored.  The block maps of the reflection
functor and of the cube complexes are under a tenth nonzero, so every
operation here works on the nonzero entries only.  Row dicts are never
mutated once a matrix is built, which lets results share unchanged rows
with their operands.

Matrices with zero rows or zero columns are first-class citizens: they
represent maps to or from the zero space and show up constantly in
graded modules.

A ``kernel_basis`` result carries an identity block: the row of each
free column is a unit row, {k: 1} for its own basis column k.
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
from functools import lru_cache
from operator import mul

from .cyclotomic import Scalar, euler_phi
from .errors import NotInSpanError, OrderMismatchError

_new = object.__new__


def _mat(rows: int, cols: int, srows: list, order: int) -> "Mat":
    """Wrap row dicts (already free of zeros, and not shared with a builder)."""
    m = _new(Mat)
    m.rows = rows
    m.cols = cols
    m.order = order
    m._rows = srows
    return m


def _add_into(dst: dict, src: dict, offset: int = 0) -> None:
    """dst += src shifted by ``offset`` columns, deleting entries that cancel."""
    for c, x in src.items():
        c += offset
        y = dst.get(c)
        if y is None:
            dst[c] = x
        else:
            s = y + x
            if s:
                dst[c] = s
            else:
                del dst[c]


def _sub_multiple(dst: dict, f: Scalar, src: dict, skip: int) -> None:
    """dst -= f * src outside column ``skip``, deleting entries that cancel."""
    for j, x in src.items():
        if j == skip:
            continue
        y = dst.get(j)
        if y is None:
            dst[j] = -(f * x)
        else:
            s = y - f * x
            if s:
                dst[j] = s
            else:
                del dst[j]


def _diff_rows(a: dict, b: dict) -> dict:
    """a - b in one pass, deleting entries that cancel."""
    if not b:
        return a
    out = dict(a)
    for c, y in b.items():
        x = out.get(c)
        if x is None:
            out[c] = -y
        else:
            s = x - y
            if s:
                out[c] = s
            else:
                del out[c]
    return out


def _sum_rows(a: dict, b: dict) -> dict:
    if not b:
        return a
    if not a:
        return b
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    _add_into(out, b)
    return out


class Mat:
    """Sparse matrix with entries in Q(zeta_order), immutable by convention:
    nothing assigns to it or to its row dicts after construction.

    ``Mat(rows, cols, data, order)`` takes the entries densely, row-major;
    ``data`` gives them back the same way, as a fresh list.
    """

    __slots__ = ("rows", "cols", "order", "_rows")

    def __init__(self, rows: int, cols: int, data: list, order: int = 1):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.order = order
        self._rows = [{c: x for c, x in enumerate(data[r * cols:(r + 1) * cols]) if x}
                      for r in range(rows)]

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int, order: int = 1) -> "Mat":
        return _mat(rows, cols, [{} for _ in range(rows)], order)

    @staticmethod
    def identity(n: int, order: int = 1) -> "Mat":
        o = Scalar.one(order)
        return _mat(n, n, [{t: o} for t in range(n)], order)

    @staticmethod
    def from_rows(rows_list, order: int = 1) -> "Mat":
        """Build from a list of rows whose entries are Scalars or rationals."""
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        srows = []
        for row in rows_list:
            if len(row) != c:
                raise ValueError("ragged rows")
            out = {}
            for k, x in enumerate(row):
                if not isinstance(x, Scalar):
                    x = Scalar.rational(x, order)
                if x:
                    out[k] = x
            srows.append(out)
        return _mat(r, c, srows, order)

    @staticmethod
    def column(entries, order: int = 1) -> "Mat":
        return Mat.from_rows([[x] for x in entries], order)

    def scaled(self, s: Scalar) -> "Mat":
        if not s:
            return Mat.zeros(self.rows, self.cols, self.order)
        # a field has no zero divisors, so no product of nonzeros cancels
        return _mat(self.rows, self.cols,
                    [{c: s * x for c, x in row.items()} for row in self._rows], self.order)

    # -- access ----------------------------------------------------------
    @property
    def data(self) -> list:
        """The entries, dense and row-major: a fresh list on every access."""
        cols = self.cols
        out = [Scalar.zero(self.order)] * (self.rows * cols)
        for r, row in enumerate(self._rows):
            base = r * cols
            for c, x in row.items():
                out[base + c] = x
        return out

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry {rc} outside a {self.rows}x{self.cols} matrix")
        x = self._rows[r].get(c)
        return Scalar.zero(self.order) if x is None else x

    def row(self, r: int) -> list:
        z = Scalar.zero(self.order)
        row = self._rows[r]
        return [row.get(c, z) for c in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.order) == (other.rows, other.cols, other.order) \
            and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, self.order,
                     tuple(tuple(sorted(row.items())) for row in self._rows)))

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
        return _mat(self.rows, self.cols,
                    [_sum_rows(a, b) for a, b in zip(self._rows, other._rows)], self.order)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_order(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return _mat(self.rows, self.cols,
                    [_diff_rows(a, b) for a, b in zip(self._rows, other._rows)], self.order)

    def __neg__(self) -> "Mat":
        return _mat(self.rows, self.cols,
                    [{c: -x for c, x in row.items()} for row in self._rows], self.order)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_order(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        brows = other._rows
        srows = []
        for arow in self._rows:
            acc: dict = {}
            for t, x in arow.items():
                for j, y in brows[t].items():
                    v = acc.get(j)
                    acc[j] = x * y if v is None else v + x * y
            if len(arow) > 1:
                acc = {j: v for j, v in acc.items() if v}
            srows.append(acc)
        return _mat(self.rows, other.cols, srows, self.order)

    def transpose(self) -> "Mat":
        srows = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, x in row.items():
                srows[c][r] = x
        return _mat(self.cols, self.rows, srows, self.order)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = Scalar.zero(self.order)
        for r, row in enumerate(self._rows):
            x = row.get(r)
            if x is not None:
                t = t + x
        return t


def hstack(mats: list[Mat]) -> Mat:
    rows = mats[0].rows
    order = mats[0].order
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    srows = [{} for _ in range(rows)]
    offset = 0
    for m in mats:
        for dst, src in zip(srows, m._rows):
            for c, x in src.items():
                dst[c + offset] = x
        offset += m.cols
    return _mat(rows, offset, srows, order)


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
    bc = b.cols
    srows = []
    for arow in a._rows:
        for brow in b._rows:
            srows.append({j1 * bc + j2: x * y for j1, x in arow.items()
                          for j2, y in brow.items()})
    return _mat(a.rows * b.rows, a.cols * bc, srows, a.order)


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
        self._rows = [{} for _ in range(rows)]

    def add_block(self, r0: int, c0: int, m: Mat):
        dst = self._rows
        for r, row in enumerate(m._rows, r0):
            if row:
                _add_into(dst[r], row, c0)

    def build(self) -> Mat:
        out = _mat(self.rows, self.cols, self._rows, self.order)
        self._rows = None
        return out


def _forward(rows: list, clear) -> tuple[list[int], list[dict]]:
    """The forward elimination shared by ``rref``, ``rank`` and ``rank_mod_p``.

    Rows (nonzero dicts, consumed) wait in buckets keyed by their leading
    column.  The bucket of the leftmost leading column holds every
    remaining row with an entry there; the shortest of them becomes the
    pivot row, which limits fill, and ``clear(c, pivot, others)`` clears
    column c out of the others in place and returns the pivot row to
    keep.  Returns the pivot columns, strictly increasing, and rows.
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


def _clear_exact(c: int, p: dict, others: list) -> dict:
    """Scale the pivot row to a leading 1 and clear column c out of the others."""
    pv = p[c]
    one = Scalar.one(pv.order)
    if pv != one:
        inv = pv.inverse()
        p = {j: x * inv for j, x in p.items()}
        p[c] = one
    for row in others:
        _sub_multiple(row, row.pop(c), p, c)
    return p


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Unique reduced row-echelon form and its strictly increasing pivot columns.

    Sparse Gauss-Jordan elimination: the forward pass of ``_forward``,
    each pivot row scaled to a leading 1, then back-substitution from the
    last pivot, which clears each pivot column above its pivot.
    """
    piv, prow = _forward([dict(row) for row in a._rows if row], _clear_exact)
    pivpos = {c: k for k, c in enumerate(piv)}
    for k in range(len(piv) - 2, -1, -1):
        p, c = prow[k], piv[k]
        for cl in [j for j in p if j in pivpos and j != c]:
            # the later pivot rows are reduced already: beyond their pivot
            # they hold only free columns, so no pivot column comes back
            _sub_multiple(p, p.pop(cl), prow[pivpos[cl]], cl)
    prow.extend({} for _ in range(a.rows - len(piv)))
    return _mat(a.rows, a.cols, prow, a.order), tuple(piv)


def rank(a: Mat) -> int:
    """The pivot count of the forward pass of ``rref``, with no back-substitution."""
    return len(_forward([dict(row) for row in a._rows if row], _clear_exact)[0])


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7: deterministic below 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    denominator.  The forward pass of ``rref`` (``_forward``), on rows
    of ``{col: int}``.
    """
    p, g = _modulus(a.order)
    powers = [pow(g, i, p) for i in range(euler_phi(a.order))]
    inverses = {1: 1}
    rows = []
    for row in a._rows:
        out = {}
        for c, x in row.items():
            s = inverses.get(x.den)
            if s is None:
                if x.den % p == 0:
                    return None
                s = inverses[x.den] = pow(x.den, -1, p)
            num = x.num
            v = (num[0] if len(num) == 1 else sum(map(mul, num, powers))) * s % p
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
    o = Scalar.one(a.order)
    srows = [{free[f]: o} if f in free else None for f in range(a.cols)]
    for c, row in zip(piv, red._rows):
        srows[c] = {free[f]: -x for f, x in row.items() if f != c}
    return _mat(a.cols, len(free), srows, a.order)


def _unit_rows(basis: Mat) -> list[int] | None:
    """For each column c of ``basis``, the first row equal to {c: 1}; None
    if some column has no such row."""
    one = Scalar.one(basis.order)
    unit = [None] * basis.cols
    for r, row in enumerate(basis._rows):
        if len(row) == 1:
            c, x = next(iter(row.items()))
            if unit[c] is None and x == one:
                unit[c] = r
    return None if None in unit else unit


def solve_in_span(basis: Mat, target: Mat) -> Mat:
    """Solve basis @ X = target; raise NotInSpanError if any column escapes.

    ``target`` may have several columns.  Where every column c of
    ``basis`` has a unit row, a row equal to {c: 1} (every ``kernel_basis``
    result and every identity has one at each free column), X is read
    off: its row c is the target's row at the unit row of c.  The other
    rows certify it with one exact product: target lies in the span
    exactly when (those rows of basis) @ X equals the same rows of
    target.  Any other basis goes through the RREF of
    [basis | target]; its columns are expected to be independent (kernel
    bases and embeddings always are), and a dependent basis still yields
    one valid solution.
    """
    basis._check_order(target)
    if basis.rows != target.rows:
        raise ValueError("solve_in_span row mismatch")
    if target.cols == 0 or basis.rows == 0 and target.is_zero():
        return Mat.zeros(basis.cols, target.cols, basis.order)
    unit = _unit_rows(basis)
    if unit is not None:
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
    red, piv = rref(hstack([basis, target]))
    width = basis.cols
    if piv and piv[-1] >= width:
        raise NotInSpanError("target is outside the span of the basis")
    srows = [{} for _ in range(width)]
    for c, row in zip(piv, red._rows):
        srows[c] = {j - width: x for j, x in row.items() if j >= width}
    return _mat(width, target.cols, srows, basis.order)


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
