"""Block-labeled matrices of rational functions over named signal spaces.

A ``SignalSpace`` is an ordered list of named blocks with dimensions; a
``TFMatrix`` is a dense matrix of ``RatFun`` entries whose rows and columns
are labeled by two such spaces.  Arithmetic is exact, inversion is Gaussian
elimination over the rational-function field, and classification aggregates
the entrywise properness/stability tests.  Properness is a degree
comparison; stability is decided once per distinct denominator per check,
since a proper entry's verdict depends on its denominator alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import SingularMatrixError, SpaceMismatchError
from .ratfun import Poly, RatFun


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

    @property
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
        ent = [[self.entries[i][j] for j in cr] for i in rr]
        return TFMatrix(
            SignalSpace.single(row_name, len(rr)), SignalSpace.single(col_name, len(cr)), ent
        )

    def row_block(self, row_name: str) -> "TFMatrix":
        rr = self.rows.index_range(row_name)
        ent = [list(self.entries[i]) for i in rr]
        return TFMatrix(SignalSpace.single(row_name, len(rr)), self.cols, ent)

    def col_block(self, col_name: str) -> "TFMatrix":
        cr = self.cols.index_range(col_name)
        ent = [[self.entries[i][j] for j in cr] for i in range(self.rows.total)]
        return TFMatrix(self.rows, SignalSpace.single(col_name, len(cr)), ent)

    def relabel(self, rows: SignalSpace, cols: SignalSpace) -> "TFMatrix":
        """Same entries over different (but dimension-compatible) spaces."""
        return TFMatrix(rows, cols, self.entries)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_spaces(self, other: "TFMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise SpaceMismatchError("operands live on different signal spaces")

    def __add__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        self._check_same_spaces(other)
        ent = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return TFMatrix(self.rows, self.cols, ent)

    def __sub__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        self._check_same_spaces(other)
        ent = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return TFMatrix(self.rows, self.cols, ent)

    def __neg__(self):
        return TFMatrix(self.rows, self.cols, [[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        """Scalar multiplication by a rational function or number."""
        scalar = RatFun._coerce(other)
        if scalar is None:
            return NotImplemented
        return TFMatrix(
            self.rows, self.cols, [[e * scalar for e in row] for row in self.entries]
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, TFMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SpaceMismatchError(
                f"cannot multiply: columns {self.cols.blocks} != rows {other.rows.blocks}"
            )
        n, k, m = self.rows.total, self.cols.total, other.cols.total
        zero = RatFun.zero()
        ent = []
        for i in range(n):
            ri = self.entries[i]
            out = []
            for j in range(m):
                acc = zero
                for t in range(k):
                    a = ri[t]
                    if not a.is_zero:
                        b = other.entries[t][j]
                        if not b.is_zero:
                            acc = acc + a * b
                out.append(acc)
            ent.append(out)
        return TFMatrix(self.rows, other.cols, ent)

    def inverse(self) -> "TFMatrix":
        """Exact inverse over the rational-function field.

        Gauss-Jordan elimination with full pivoting restricted to nonzero
        entries; among the candidates the pivot of least total degree is
        chosen to limit degree growth.  Raises SingularMatrixError when no
        pivot exists, i.e. the determinant is identically zero.
        """
        if not self.is_square:
            raise SpaceMismatchError("only square matrices can be inverted")
        n = self.rows.total
        zero, one = RatFun.zero(), RatFun.one()
        a = [list(row) for row in self.entries]
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
        return TFMatrix(self.cols, self.rows, inv_rows)

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
        stable = all_proper and all(
            verdicts[e.den] if e.den in verdicts else verdicts.setdefault(e.den, e.is_stable())
            for e in flat
        )
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


def embed(space: SignalSpace, name: str) -> TFMatrix:
    """Column block that is identity at the rows of ``name``, zero elsewhere.

    Stacking these over all names reconstructs any matrix from its row blocks.
    """
    return TFMatrix.identity(space).col_block(name)


def shift_identity(space: SignalSpace, power: int = -1) -> TFMatrix:
    """z**power times the identity over ``space``."""
    value = RatFun.z_inv(-power) if power < 0 else RatFun(Poly.z(power))
    return TFMatrix.diagonal(space, value)
