"""Block-labeled matrices of rational functions over named signal spaces.

A ``SignalSpace`` is an ordered list of named blocks with dimensions; a
``TFMatrix`` is a dense matrix of ``RatFun`` entries whose rows and columns
are labeled by two such spaces.  Arithmetic is exact, and classification
aggregates the entrywise properness/stability tests.  Properness is a degree
comparison; stability is decided once per distinct denominator per check,
since a proper entry's verdict depends on its denominator alone.

Inversion takes one of two exact routes, chosen from the input's size.
The Kronecker route starts from the matrix cleared by rows, M =
diag(1/(D_i L_i)) N with N integer polynomials (``_cleared``).  When det
N(2^s) has at most ``_KRONECKER_BITS`` bits, for the s at which base-2^s
digits are N's minors' coefficients, the inverse is read from one
fraction-free elimination of the integer matrix N(2^s) (Kronecker
substitution; Bareiss, 1968).  A pencil, every entry a polynomial of
degree at most 1 such as zI - A, takes that route whatever its size.  When
the rows are too large but the columns fit, the same route inverts the
transpose.  Otherwise it is Gauss-Jordan elimination over the
rational-function field, which cancels as it goes and wins on long loops
with wide coefficients.

Every exact identity the library checks, a @ b = c, is decided by one kernel,
``_product_is``: one integer product at one point, from the same clearing.

Only the public constructor coerces entries and checks their shape; blocks,
arithmetic results and inverses are built by the trusted ``TFMatrix._of``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import SingularMatrixError, SpaceMismatchError
from .ratfun import (Poly, RatFun, _at, _content_mul, _digits, _gcd, _norm, _pdivmod, _pmul,
                     _poly, _split)

#: the largest size, in bits, of det N(2^s) for which ``TFMatrix.inverse``
#: takes the Kronecker route; measured per matrix, its time over Gauss-Jordan's
#: was 0.22-0.78 below 2048 bits, 0.96 up to 4095, 1.19 up to 8191 and 3.46
#: beyond
_KRONECKER_BITS = 2048


@dataclass(frozen=True)
class SignalSpace:
    """Ordered named blocks, e.g. (("x", 2), ("u", 1))."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        blocks = tuple((str(n), int(d)) for n, d in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        names = [n for n, _ in blocks]
        if len(set(names)) != len(names):
            raise SpaceMismatchError(f"duplicate block names in {names}")
        if any(d < 1 for _, d in blocks):
            raise SpaceMismatchError("block dimensions must be positive")

    @classmethod
    def make(cls, **dims: int) -> "SignalSpace":
        """Build from keyword order: SignalSpace.make(x=2, u=1)."""
        return cls(tuple(dims.items()))

    @classmethod
    def single(cls, name: str, dim: int) -> "SignalSpace":
        return cls(((name, dim),))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.blocks)

    @functools.cached_property
    def total(self) -> int:
        return sum(d for _, d in self.blocks)

    def dim(self, name: str) -> int:
        for n, d in self.blocks:
            if n == name:
                return d
        raise SpaceMismatchError(f"unknown block name {name!r}")

    def offset(self, name: str) -> int:
        off = 0
        for n, d in self.blocks:
            if n == name:
                return off
            off += d
        raise SpaceMismatchError(f"unknown block name {name!r}")

    def index_range(self, name: str) -> range:
        off = self.offset(name)
        return range(off, off + self.dim(name))

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.blocks)


@dataclass(frozen=True)
class TFClassification:
    all_proper: bool
    all_strictly_proper: bool
    in_rh_inf: bool
    in_zinv_rh_inf: bool


def _coerce_entry(value) -> RatFun:
    """A RatFun as is; a Poly, or a scalar by the rule of ``ratfun._as_pair``,
    as a constant entry."""
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun(value)
    return RatFun.constant(value)


class TFMatrix:
    """Dense matrix of RatFun entries between two signal spaces."""

    __slots__ = ("rows", "cols", "entries")

    rows: SignalSpace
    cols: SignalSpace
    entries: tuple[tuple[RatFun, ...], ...]

    def __init__(self, rows: SignalSpace, cols: SignalSpace, entries: Sequence[Sequence]):
        ent = tuple(tuple(_coerce_entry(e) for e in row) for row in entries)
        if len(ent) != rows.total or any(len(r) != cols.total for r in ent):
            raise SpaceMismatchError(
                f"entry array shape {(len(ent), len(ent[0]) if ent else 0)} does not "
                f"match spaces {(rows.total, cols.total)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _of(cls, rows: SignalSpace, cols: SignalSpace,
            entries: tuple[tuple[RatFun, ...], ...]) -> "TFMatrix":
        """Trusted constructor: ``entries`` is a tuple of ``rows.total``
        tuples of ``cols.total`` RatFun each, as every internal result is."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "entries", entries)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TFMatrix is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: SignalSpace, cols: SignalSpace) -> "TFMatrix":
        zero = RatFun.zero()
        return cls(rows, cols, [[zero] * cols.total for _ in range(rows.total)])

    @classmethod
    def identity(cls, space: SignalSpace) -> "TFMatrix":
        return cls.diagonal(space, RatFun.one())

    @classmethod
    def constant(cls, rows: SignalSpace, cols: SignalSpace, values) -> "TFMatrix":
        """Lift a real matrix (nested floats/ints/Fractions) to constant entries."""
        return cls(rows, cols, values)

    @classmethod
    def diagonal(cls, space: SignalSpace, value: RatFun) -> "TFMatrix":
        n = space.total
        zero = RatFun.zero()
        return cls(space, space, [[value if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(
        cls,
        rows: SignalSpace,
        cols: SignalSpace,
        blocks: Mapping[tuple[str, str], "TFMatrix | Sequence[Sequence]"],
    ) -> "TFMatrix":
        """Assemble from named blocks; omitted blocks are zero."""
        zero = RatFun.zero()
        ent = [[zero] * cols.total for _ in range(rows.total)]
        for (rname, cname), blk in blocks.items():
            rr = rows.index_range(rname)
            cr = cols.index_range(cname)
            data = blk.entries if isinstance(blk, TFMatrix) else blk
            if len(data) != len(rr) or any(len(row) != len(cr) for row in data):
                raise SpaceMismatchError(f"block {(rname, cname)} has wrong shape")
            for i, gi in enumerate(rr):
                for j, gj in enumerate(cr):
                    ent[gi][gj] = data[i][j]
        return cls(rows, cols, ent)

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.total, self.cols.total)

    @property
    def is_square(self) -> bool:
        return self.rows.total == self.cols.total

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __getitem__(self, key: tuple[int, int]) -> RatFun:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def block(self, row_name: str, col_name: str) -> "TFMatrix":
        """Sub-matrix for one (row block, column block) pair."""
        rr = self.rows.index_range(row_name)
        cr = self.cols.index_range(col_name)
        return TFMatrix._of(SignalSpace.single(row_name, len(rr)),
                            SignalSpace.single(col_name, len(cr)),
                            _sliced(self.entries, rr, cr))

    def row_block(self, row_name: str) -> "TFMatrix":
        rr = self.rows.index_range(row_name)
        return TFMatrix._of(SignalSpace.single(row_name, len(rr)), self.cols,
                            self.entries[rr.start:rr.stop])

    def col_block(self, col_name: str) -> "TFMatrix":
        cr = self.cols.index_range(col_name)
        return TFMatrix._of(self.rows, SignalSpace.single(col_name, len(cr)),
                            _sliced(self.entries, range(self.rows.total), cr))

    def relabel(self, rows: SignalSpace, cols: SignalSpace) -> "TFMatrix":
        """Same entries over different (but dimension-compatible) spaces."""
        if (rows.total, cols.total) != self.shape:
            return TFMatrix(rows, cols, self.entries)  # raises SpaceMismatchError
        return TFMatrix._of(rows, cols, self.entries)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_spaces(self, other: "TFMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise SpaceMismatchError("operands live on different signal spaces")

    def __add__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        self._check_same_spaces(other)
        ent = tuple(tuple(map(operator.add, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return TFMatrix._of(self.rows, self.cols, ent)

    def __sub__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        self._check_same_spaces(other)
        ent = tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return TFMatrix._of(self.rows, self.cols, ent)

    def __neg__(self):
        return TFMatrix._of(self.rows, self.cols,
                            tuple(tuple(map(operator.neg, row)) for row in self.entries))

    def __mul__(self, other):
        """Scalar multiplication by a rational function or number."""
        scalar = RatFun._coerce(other)
        if scalar is None:
            return NotImplemented
        return TFMatrix._of(self.rows, self.cols,
                            tuple(tuple([e * scalar for e in row]) for row in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SpaceMismatchError(
                f"cannot multiply: columns {self.cols.blocks} != rows {other.rows.blocks}"
            )
        # the terms a_it b_tj of one entry grouped by (a_it.den, b_tj.den):
        # a group of two or more is one sum of numerator products over
        # da db, cancelled once; a single term keeps RatFun's cross-cancelled
        # product.  The normal form is unique, so the entry is the same.
        cols = list(zip(*other.entries)) if other.entries else [()] * other.cols.total
        zero = RatFun.zero()
        ent = []
        for ri in self.entries:
            out = []
            for cj in cols:
                groups: dict[tuple[Poly, Poly], list[tuple[RatFun, RatFun]]] = {}
                for a, b in zip(ri, cj):
                    if not a.is_zero and not b.is_zero:
                        groups.setdefault((a.den, b.den), []).append((a, b))
                acc = zero
                for (da, db), terms in groups.items():
                    if len(terms) == 1:
                        a, b = terms[0]
                        acc = acc + a * b
                    else:
                        acc = acc + RatFun(sum([a.num * b.num for a, b in terms[1:]],
                                               terms[0][0].num * terms[0][1].num), da * db)
                out.append(acc)
            ent.append(tuple(out))
        return TFMatrix._of(self.rows, other.cols, tuple(ent))

    def inverse(self) -> "TFMatrix":
        """Exact inverse over the rational-function field.

        Takes the Kronecker route (``_kronecker_inverse``) when det N(2^s)
        has at most ``_KRONECKER_BITS`` bits by ``_kronecker_size``, which
        reads only the cleared input, or when the input is a pencil (every
        entry a polynomial of degree at most 1, as zI - A) of any size, whose
        bound outgrows the rule long before Gauss-Jordan gets cheaper.  The
        input is cleared by rows first; when that is too large it is cleared
        by columns, and when that fits
        the Kronecker route inverts the transpose, since (m^T)^{-1} =
        (m^{-1})^T.  A FIR loop I - R carries its wide tap denominators in
        the u and delta rows but only in the delta columns, so its columns
        are often the smaller side.  Only when neither side fits does it
        take Gauss-Jordan elimination (``_gauss_jordan_inverse``).  Every
        route gives the same normal form.  Raises SingularMatrixError when
        the determinant is identically zero.
        """
        if not self.is_square:
            raise SpaceMismatchError("only square matrices can be inverted")
        rows = _cleared(self.entries)
        s, bits = _kronecker_size(rows)
        if bits <= _KRONECKER_BITS or all(e.den.degree == 0 and e.num.degree <= 1
                                          for row in self.entries for e in row):
            return _kronecker_inverse(self, rows, s)
        t = _transposed(self)
        cols = _cleared(t.entries)
        s, bits = _kronecker_size(cols)
        if bits <= _KRONECKER_BITS:
            return _transposed(_kronecker_inverse(t, cols, s))
        return _gauss_jordan_inverse(self)

    # -- analysis -----------------------------------------------------------

    @property
    def is_proper(self) -> bool:
        """Whether every entry is proper: degrees only, no pole test."""
        return all(e.is_proper for row in self.entries for e in row)

    @property
    def is_strictly_proper(self) -> bool:
        """Whether every entry is strictly proper: degrees only, no pole test."""
        return all(e.is_strictly_proper for row in self.entries for e in row)

    def classify(self, verdicts: dict[Poly, bool] | None = None) -> TFClassification:
        """Entrywise aggregation of properness and RH-infinity membership.

        A proper entry's stability depends only on its (monic, cancelled)
        denominator, so each distinct denominator is tested once.
        ``verdicts`` maps denominators to the verdicts of the same check's
        earlier calls; pass one dict to every classification of one check
        and drop it when the check returns.
        """
        flat = [e for row in self.entries for e in row]
        all_proper = all(e.is_proper for e in flat)
        all_sp = all(e.is_strictly_proper for e in flat)
        if verdicts is None:
            verdicts = {}
        stable = all_proper
        if stable:
            for e in flat:
                den = e.den
                verdict = verdicts.get(den)
                if verdict is None:
                    verdict = verdicts[den] = e.is_stable()
                if not verdict:
                    stable = False
                    break
        return TFClassification(
            all_proper=all_proper,
            all_strictly_proper=all_sp,
            in_rh_inf=stable,
            in_zinv_rh_inf=stable and all_sp,
        )

    def __repr__(self):
        rows = ", ".join(f"{n}:{d}" for n, d in self.rows.blocks)
        cols = ", ".join(f"{n}:{d}" for n, d in self.cols.blocks)
        return f"TFMatrix([{rows}] x [{cols}])"


def _sliced(entries: tuple[tuple[RatFun, ...], ...], rr: range, cr: range
            ) -> tuple[tuple[RatFun, ...], ...]:
    """The entries at rows ``rr`` and columns ``cr``, both contiguous."""
    return tuple(row[cr.start:cr.stop] for row in entries[rr.start:rr.stop])


def _transposed(m: TFMatrix) -> TFMatrix:
    """m^T, over (m.cols, m.rows)."""
    return TFMatrix._of(m.cols, m.rows, tuple(zip(*m.entries)))


def _cleared(lines: Sequence[Sequence[RatFun]]) -> list[tuple[int, Sequence[int], list[Sequence[int]]]]:
    """Each line (a row, or a column read as a row) of rational functions as
    (D, L, N) with line = N / (D L): L is the lcm of the line's primitive
    denominators, built from ``_gcd`` cofactors, D the lcm of its entries'
    content denominators, and N the integer polynomials (() for a zero
    entry)."""
    out = []
    for line in lines:
        dens = {e.den._p for e in line}
        lcm: Sequence[int] = (1,)
        for q in dens:
            if len(q) > 1:
                lcm = q if len(lcm) == 1 else _pmul(lcm, _gcd(lcm, q)[2])
        cofactors = {q: _pdivmod(lcm, q)[0] for q in dens}
        # den = Q / lc(Q) is monic, so an entry is (num's content) lc(Q) P / Q
        contents = [_content_mul(e.num._n, e.num._d, e.den._p[-1], 1) for e in line]
        d = math.lcm(*[b for _, b in contents])
        out.append((d, lcm, [
            [a * (d // b) * c for c in _pmul(e.num._p, cofactors[e.den._p])] if a else ()
            for e, (a, b) in zip(line, contents)
        ]))
    return out


def _kronecker_size(rows) -> tuple[int, int]:
    """(s, bits) for ``rows = _cleared(...)`` of a square matrix.  B =
    prod_i sum_j |N_ij|_1 bounds every coefficient of det N and of every
    (n-1)-minor, and s = bitlen(B) + 1, so 2^(s-1) > B; bits =
    s (sum_i max_j deg N_ij + 1) bounds the size of det N(2^s)."""
    bound, degree = 1, 0
    for _, _, line in rows:
        bound *= sum(map(_norm, line))
        degree += max(map(len, line)) - 1
    s = bound.bit_length() + 1
    return s, s * (degree + 1)


def _kronecker_inverse(m: TFMatrix, rows, s: int) -> TFMatrix:
    """m^{-1} from ``rows = _cleared(m.entries)``, M = diag(1/(D_i L_i)) N,
    and s from ``_kronecker_size``, at the one point k = 2^s.

    Fraction-free Gauss-Jordan elimination of [N(k) | I] with row swaps
    (Bareiss, 1968), every division of which is exact, ends with the last
    pivot d = +-det N(k) and the right block d N(k)^{-1} = +-adj N(k), with
    one sign.  Every coefficient of det N and of adj N is below 2^(s-1) in
    magnitude, so their symmetric base-k digits (``_digits``) are those
    polynomials, and m^{-1}_ij = adj_ij D_j L_j / det, which ``RatFun``
    puts in its unique normal form.  k also exceeds det N's Cauchy root
    bound 1 + B, so a column without a pivot, where det N(k) = 0, means
    det N is identically zero.
    """
    n = len(rows)
    a = [[_at(p, s) for p in line] for _, _, line in rows]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv], b[k], b[piv] = a[piv], a[k], b[piv], b[k]
        p, ak, bk = a[k][k], a[k], b[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], ak)]
                b[i] = [(p * x - f * y) // prev for x, y in zip(b[i], bk)]
        prev = p
    det = _poly(*_split(_digits(prev, s), 1))
    zero = RatFun.zero()
    ent = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            adj = _digits(b[i][j], s)
            if adj:
                d, lcm, _ = rows[j]
                c, _, prim = _split(_pmul(adj, lcm), 1)
                ent[i][j] = RatFun(_poly(c * d, 1, prim), det)
    return TFMatrix._of(m.cols, m.rows, tuple(map(tuple, ent)))


def _gauss_jordan_inverse(m: TFMatrix) -> TFMatrix:
    """m^{-1} by Gauss-Jordan elimination over the rational-function field.

    Full pivoting restricted to nonzero entries; among the candidates the
    pivot of least total degree is chosen to limit degree growth.  Raises
    SingularMatrixError when no pivot exists, i.e. the determinant is
    identically zero.
    """
    n = m.rows.total
    zero, one = RatFun.zero(), RatFun.one()
    a = [list(row) for row in m.entries]
    b = [[one if i == j else zero for j in range(n)] for i in range(n)]
    perm = list(range(n))  # perm[k] = original column index now at position k
    for k in range(n):
        piv_i = piv_j = -1
        piv_w = None
        for i in range(k, n):
            for j in range(k, n):
                e = a[i][j]
                if not e.is_zero:
                    w = e.num.degree + e.den.degree
                    if piv_w is None or w < piv_w:
                        piv_i, piv_j, piv_w = i, j, w
        if piv_w is None:
            raise SingularMatrixError("matrix is singular")
        if piv_i != k:
            a[k], a[piv_i] = a[piv_i], a[k]
            b[k], b[piv_i] = b[piv_i], b[k]
        if piv_j != k:
            for row in a:
                row[k], row[piv_j] = row[piv_j], row[k]
            perm[k], perm[piv_j] = perm[piv_j], perm[k]
        inv = a[k][k].inverse()
        a[k] = [e * inv for e in a[k]]
        b[k] = [e * inv for e in b[k]]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if f.is_zero:
                continue
            # the pivot row is sparse in FIR loops: a zero entry leaves e as is
            a[i] = [e - f * p if p else e for e, p in zip(a[i], a[k])]
            b[i] = [e - f * p if p else e for e, p in zip(b[i], b[k])]
    # column swaps on the input appear as row permutations of the inverse
    inv_rows: list[list[RatFun] | None] = [None] * n
    for k in range(n):
        inv_rows[perm[k]] = b[k]
    return TFMatrix._of(m.cols, m.rows, tuple(map(tuple, inv_rows)))


def _product_is(a: TFMatrix, b: TFMatrix, c: TFMatrix) -> bool:
    """Whether a @ b == c, decided at one integer point.

    With the rows of a cleared, a = diag(1/(D_i L_i)) N, and the columns of
    b, b = P diag(1/(E_j K_j)) (``_cleared``), and each entry of c written
    c_ij = (n/d) p/q, with p and q primitive integer polynomials and lc(q)
    taken into n, the identity is d q (N P)_ij = n D_i L_i E_j K_j p.  Both
    sides of every entry are evaluated at 2^s, with 2^(s-1) above the sum of
    the two sides' 1-norm bounds for every entry, which bounds every
    coefficient of their difference: a nonzero integer polynomial whose
    coefficients are all below 2^(s-1) in magnitude does not vanish at 2^s,
    so the verdict is exact.  False when c is not over (a.rows, b.cols);
    raises SpaceMismatchError when a @ b is not defined.
    """
    if a.cols != b.rows:
        raise SpaceMismatchError(
            f"cannot multiply: columns {a.cols.blocks} != rows {b.rows.blocks}"
        )
    if c.rows != a.rows or c.cols != b.cols:
        return False
    rows = _cleared(a.entries)
    cols = _cleared([[row[j] for row in b.entries] for j in range(b.cols.total)])
    # c_ij = (n/d) p/q as (n, d, p, q), with lc(q) in n; None for a zero entry
    right = [[(*_content_mul(e.num._n, e.num._d, e.den._p[-1], 1), e.num._p, e.den._p)
              if e.num._p else None for e in row] for row in c.entries]
    norms_a = [list(map(_norm, line)) for _, _, line in rows]
    norms_b = [list(map(_norm, line)) for _, _, line in cols]
    bound = 0
    for (da, la, _), ri, right_i in zip(rows, norms_a, right):
        for (db, lb, _), cj, cij in zip(cols, norms_b, right_i):
            e = sum(x * y for x, y in zip(ri, cj))
            if cij:
                n, d, p, q = cij
                e = e * d * _norm(q) + abs(n) * da * db * _norm(la) * _norm(lb) * _norm(p)
            bound = max(bound, e)
    s = bound.bit_length() + 1
    at_a = [[_at(p, s) for p in line] for _, _, line in rows]
    at_b = [[_at(p, s) for p in line] for _, _, line in cols]
    for (da, la, _), ri, right_i in zip(rows, at_a, right):
        for (db, lb, _), cj, cij in zip(cols, at_b, right_i):
            e = sum(x * y for x, y in zip(ri, cj))
            if cij:
                n, d, p, q = cij
                if e * d * _at(q, s) != n * da * db * _at(la, s) * _at(lb, s) * _at(p, s):
                    return False
            elif e:
                return False
    return True


def embed(space: SignalSpace, name: str) -> TFMatrix:
    """Column block that is identity at the rows of ``name``, zero elsewhere.

    Stacking these over all names reconstructs any matrix from its row blocks.
    """
    return TFMatrix.identity(space).col_block(name)


def shift_identity(space: SignalSpace, power: int = -1) -> TFMatrix:
    """z**power times the identity over ``space``."""
    value = RatFun.z_inv(-power) if power < 0 else RatFun(Poly.z(power))
    return TFMatrix.diagonal(space, value)
