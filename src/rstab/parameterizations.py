"""Controller parameterizations and exact conversions between them.

Every internally stabilizing controller for a discrete-time plant can be
described by several equivalent parameter bundles: the Youla parameter Q
over a doubly coprime factorization, the input-output bundle {Y, U, W, Z},
the system level bundles (state feedback {Phi_x, Phi_u} and output feedback
{Phi_xx, Phi_ux, Phi_xy, Phi_uy}), and two mixed bundles.  ``REGISTRY``
holds one ``Parameterization`` entry per bundle: its loop, the blocks of
S = (I - R)^{-1} it holds, and which of them are strictly proper.

The plant's part of every loop is declared once, by ``_plant_part``: the
loop's space and every block of R but the controller K's.  ``_closed_loop``
adds K; the public loop builders, the ``*_from_controller`` maps and the sls
realizations are all built by it.  ``_Lemma`` reads (I - R) S = S (I - R) = I
off the same blocks, for two jobs.  It evaluates the identities that K does
not enter, which, with the stability memberships (numeric pole tests), check
every bundle on construction; and it derives every block of S that a bundle
does not hold, which the check reads and ``convert`` uses to translate any
bundle into any other; Youla's Q, an affine image of the block
S[u,y] = (Vr - Mr Q) Ml through the coprime factors, goes through that
block.  The ``*_to_controller`` functions map bundles back to controllers.
The tests hold oracles that share none of this code: ``bundle_identities``
and ``adjugate_inverse`` in ``tests/helpers.py``, and loops written out by hand.

Signal naming convention: states are "x", controls "u", measurements "y".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from .errors import (
    InternalStabilityError,
    InvariantViolation,
    SchemaError,
    SingularMatrixError,
    SpaceMismatchError,
)
from .ratfun import RatFun, _as_coeff
from .realization import (
    Realization,
    StabilityMatrix,
    check_conditions,
    stability_from_realization,
)
from .tfmatrix import SignalSpace, TFMatrix, _product_is


def exact_matrix(values) -> np.ndarray:
    """Lift an array-like of reals to a 2-D object array of Fractions."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 2:
        raise InvariantViolation("expected a 2-D real matrix")
    out = np.empty(arr.shape, dtype=object)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            out[i, j] = _as_coeff(arr[i, j])
    return out


def _z_minus(m: np.ndarray, space: SignalSpace) -> TFMatrix:
    """zI - M over ``space`` for an exact square matrix M."""
    return TFMatrix.diagonal(space, RatFun.z()) - TFMatrix.constant(space, space, m)


@dataclass(frozen=True)
class PlantSS:
    """State-space plant data (A, B, C, D) with exact rational entries.

    G(z) = C (zI - A)^{-1} B + D; the plant is strictly proper iff D = 0.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", exact_matrix(self.A))
        object.__setattr__(self, "B", exact_matrix(self.B))
        object.__setattr__(self, "C", exact_matrix(self.C))
        object.__setattr__(self, "D", exact_matrix(self.D))
        n, m, p = self.n, self.m, self.p
        if self.A.shape != (n, n) or self.B.shape != (n, m):
            raise InvariantViolation("A must be n x n and B n x m")
        if self.C.shape != (p, n) or self.D.shape != (p, m):
            raise InvariantViolation("C must be p x n and D p x m")

    @classmethod
    def state_feedback(cls, A, B) -> "PlantSS":
        """Plant with full state measurement: C = I, D = 0."""
        B = exact_matrix(B)
        n, m = B.shape
        return cls(A, B, np.eye(n, dtype=int), np.zeros((n, m), dtype=int))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def is_strictly_proper(self) -> bool:
        return all(v == 0 for v in self.D.flat)

    # -- derived spaces and transfer matrices -------------------------------

    @functools.cached_property
    def x_space(self) -> SignalSpace:
        return SignalSpace.single("x", self.n)

    @functools.cached_property
    def u_space(self) -> SignalSpace:
        return SignalSpace.single("u", self.m)

    @functools.cached_property
    def y_space(self) -> SignalSpace:
        return SignalSpace.single("y", self.p)

    def z_minus_a(self) -> TFMatrix:
        """zI - A over the state space."""
        return _z_minus(self.A, self.x_space)

    def resolvent(self) -> TFMatrix:
        """(zI - A)^{-1}, computed once per object."""
        return self._resolvent

    @functools.cached_property
    def _resolvent(self) -> TFMatrix:
        return self.z_minus_a().inverse()

    def state_transfer(self) -> TFMatrix:
        """(zI - A)^{-1} B, the disturbance-to-state map, over (x, u)."""
        return self.resolvent() @ TFMatrix.constant(self.x_space, self.u_space, self.B)

    def transfer(self) -> TFMatrix:
        """G = C (zI - A)^{-1} B + D over (y, u)."""
        c = TFMatrix.constant(self.y_space, self.x_space, self.C)
        d = TFMatrix.constant(self.y_space, self.u_space, self.D)
        return c @ self.state_transfer() + d


# ---------------------------------------------------------------------------
# closed-loop realizations
# ---------------------------------------------------------------------------


def _plant_part(plant, signal: str = "y") -> tuple[SignalSpace, dict, tuple[str, str]]:
    """The loop that a controller measuring ``signal`` closes around ``plant``:
    its space, every block of R but the controller's, and the block
    (u, measured) where the controller K sits.

    Around a transfer matrix G the loop is over (G's output, G's input), K
    measures the output, and R[output, u] = G.  Around a PlantSS the loop is
    over (x, u) with the x row [A + (1 - z)I, B] of x = z^{-1}(A x + B u), and
    over (x, u, y) with the y row [C, D] as well when K measures y.
    A + (1 - z)I is improper on the diagonal; the causality condition exempts
    diagonal blocks for exactly this reason.
    """
    if isinstance(plant, TFMatrix):
        if len(plant.rows.blocks) != 1 or len(plant.cols.blocks) != 1:
            raise SpaceMismatchError("plant transfer matrix must be single-block on both sides")
        out, u = plant.rows.names[0], plant.cols.names[0]
        return SignalSpace(plant.rows.blocks + plant.cols.blocks), {(out, u): plant}, (u, out)
    x, u, y = plant.x_space, plant.u_space, plant.y_space
    r = {("x", "x"): TFMatrix.constant(x, x, plant.A) + TFMatrix.diagonal(x, RatFun([1, -1])),
         ("x", "u"): TFMatrix.constant(x, u, plant.B)}
    if signal != "y":
        return SignalSpace(x.blocks + u.blocks), r, ("u", signal)
    r[("y", "x")] = TFMatrix.constant(y, x, plant.C)
    r[("y", "u")] = TFMatrix.constant(y, u, plant.D)
    return SignalSpace(x.blocks + u.blocks + y.blocks), r, ("u", "y")


def _closed_loop(plant, k: TFMatrix, signal: str = "y", rows: dict | None = None) -> Realization:
    """The loop R that K closes around ``plant`` measuring ``signal``: the
    plant's blocks (``_plant_part``) and K at (u, measured), where K's rows
    must be u's space and its columns the measured signal's.  A measured
    signal that the plant does not have, such as the delta of the sls
    variants, joins the loop with K's columns; ``rows`` gives its row of R.
    """
    space, r, (u, measured) = _plant_part(plant, signal)
    if measured not in space:
        space = SignalSpace(space.blocks + k.cols.blocks)
    if k.rows.blocks != ((u, space.dim(u)),) or k.cols.blocks != ((measured, space.dim(measured)),):
        raise SpaceMismatchError("controller spaces must be the reverse of the plant's")
    return Realization.from_blocks(space, {**r, (u, measured): k, **(rows or {})})


def plant_feedback_loop(g: TFMatrix, k: TFMatrix) -> Realization:
    """Two-signal loop R = [[0, G], [K, 0]] over (output, control).

    Signal names come from g's own spaces, so the same builder serves
    measurement loops (y, u) and state loops (x, u).
    """
    return _closed_loop(g, k)


def state_feedback_loop(plant: PlantSS, k: TFMatrix) -> Realization:
    """State-feedback loop R = [[A + (1-z)I, B], [K, 0]] over (x, u)."""
    return _closed_loop(plant, k, "x")


def output_feedback_loop(plant: PlantSS, k: TFMatrix) -> Realization:
    """Output-feedback loop over (x, u, y):

    R = [[A + (1-z)I, B, 0], [0, 0, K], [C, D, 0]].
    """
    return _closed_loop(plant, k, "y")


class _Lemma:
    """(I - R) S = S (I - R) = I on the plant's blocks ``r`` of R
    (``_plant_part``), for the blocks of S in ``held`` and those derived
    from them.  Row a of (I - R) S = I at column c, and column a of
    S (I - R) = I at row c, read

        (I - R)[a,a] S[a,c] = I_ac + sum_{b != a} R[a,b] S[b,c]
        S[c,a] (I - R)[a,a] = I_ca + sum_{b != a} S[c,b] R[b,a]

    (I_ac = I if a = c, else 0), where (I - R)[a,a] is zI - A at x and I
    elsewhere.  ``holds`` decides one of them as one product, the line of
    I - R for row (or column) a times the blocks of S that it meets
    (``tfmatrix._product_is``).  ``block`` reads a block of S and derives a
    missing one, when first read, as such a sum, times the plant's
    ``resolvent()`` at x: a block of a held row from its column's identity,
    any other from its row's.  The bundles hold row u and the measured
    signal's column, which K enters, so every chain ends there.  Zero blocks
    of R add no terms.
    """

    def __init__(self, plant, space: SignalSpace, r: dict, held: dict):
        self.plant = plant
        self.space = space
        self.spaces = {name: SignalSpace.single(name, dim) for name, dim in space}
        self.r = {ab: m for ab, m in r.items() if not m.is_zero}
        self.rows = {i for i, _ in held}
        self.s = dict(held)

    @functools.cached_property
    def _loop(self) -> TFMatrix:
        """I - R over the loop's space, with K's block zero."""
        return TFMatrix.identity(self.space) - TFMatrix.from_blocks(self.space, self.space, self.r)

    def _line(self, a: str, by_column: bool) -> list[tuple[str, TFMatrix]]:
        """(b, R[a,b]) for each nonzero block of R's row a off the diagonal,
        or (b, R[b,a]) for each of its column a by column."""
        return [(i if by_column else j, m) for (i, j), m in self.r.items()
                if i != j and (j if by_column else i) == a]

    def _eye(self, i: str, j: str) -> TFMatrix:
        """I_ij over the blocks i and j."""
        rows, cols = self.spaces[i], self.spaces[j]
        return TFMatrix.identity(rows) if i == j else TFMatrix.zeros(rows, cols)

    def _sum(self, a: str, c: str, by_column: bool) -> TFMatrix:
        """I_ac + sum_{b != a} R[a,b] S[b,c], or I_ca + sum_{b != a} S[c,b] R[b,a] by column."""
        v = self._eye(c, a) if by_column else self._eye(a, c)
        for b, m in self._line(a, by_column):
            v = v + (self.block(c, b) @ m if by_column else m @ self.block(b, c))
        return v

    def holds(self, a: str, c: str, by_column: bool) -> bool:
        """Whether row a of (I - R) S = I holds at column c, or by column,
        column a of S (I - R) = I at row c."""
        met = [a] + [b for b, _ in self._line(a, by_column)]
        if by_column:
            s = TFMatrix.from_blocks(self.spaces[c], self.space, {(c, b): self.block(c, b) for b in met})
            return _product_is(s, self._loop.col_block(a), self._eye(c, a))
        s = TFMatrix.from_blocks(self.space, self.spaces[c], {(b, c): self.block(b, c) for b in met})
        return _product_is(self._loop.row_block(a), s, self._eye(a, c))

    def block(self, i: str, j: str) -> TFMatrix:
        """Block (i, j) of S: held, or derived when first read."""
        if (i, j) not in self.s:
            by_column = i in self.rows
            a, c = (j, i) if by_column else (i, j)
            v = self._sum(a, c, by_column)
            if (a, a) in self.r:
                v = v @ self.plant.resolvent() if by_column else self.plant.resolvent() @ v
            self.s[(i, j)] = v
        return self.s[(i, j)]


def stabilized_loop(r: Realization, context: str) -> StabilityMatrix:
    """Stability matrix of a loop that is required to be internally stable."""
    s = stability_from_realization(r)
    report = check_conditions(r, s)
    if not report.passed:
        bad = ", ".join(f"{f.matrix}[{f.row},{f.col}] {f.kind}" for f in report.findings)
        raise InternalStabilityError(f"{context}: {bad}", report)
    return s


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


def _members(bundle, strictly_proper: tuple[str, ...] = ()):
    """Return ``bundle`` once every block is stable proper, and strictly
    proper as well for the fields named in ``strictly_proper``."""
    verdicts: dict = {}
    for f in fields(bundle):
        strict = f.name in strictly_proper
        c = getattr(bundle, f.name).classify(verdicts)
        if not (c.in_zinv_rh_inf if strict else c.in_rh_inf):
            kind = "strictly proper and stable" if strict else "stable proper"
            raise InvariantViolation(f"{type(bundle).__name__} block {f.name} must be {kind}")
    return bundle


def _held_names(entry: "Parameterization", at: tuple[str, str]) -> list[tuple[str, str]]:
    """The entry's blocks, named as in its loop where K sits at ``at`` =
    (u, measured): a loop around G names them by G's spaces (x for
    (zI - A)^{-1} B)."""
    name = dict(zip(("u", entry.signal), at))
    return [(name.get(i, i), name.get(j, j)) for i, j in entry.blocks]


def _checked(bundle, plant):
    """Return ``bundle`` once its memberships and lemma identities hold, in its loop
    around ``plant`` (for IOP, around G or (zI - A)^{-1} B).

    Each held block must be over its row's and column's spaces in the loop.
    The identities are those that the controller does not enter: the rows of
    (I - R) S = I other than u's, at the held columns, and the columns of
    S (I - R) = I other than the measured signal's, at the held rows.  A block
    of S that they read and the bundle does not hold is derived by the same
    ``_Lemma``.  When the measured signal reaches u directly (D != 0, or G
    not strictly proper), the bundle must also have an S[u,u] with a proper
    inverse, so that its controller K = S[u,u]^{-1} S[u,y] is proper;
    otherwise the identities already make S[u,u] biproper.
    """
    entry = next(e for e in REGISTRY.values() if e.bundle is type(bundle))
    name = type(bundle).__name__
    _members(bundle, entry.strictly_proper)
    space, r, (u, measured) = _plant_part(plant, entry.signal)
    names = _held_names(entry, (u, measured))
    blocks = [getattr(bundle, f) for f in entry.fields]
    lemma = _Lemma(plant, space, r, dict(zip(names, blocks)))
    for f, (i, j), m in zip(entry.fields, names, blocks):
        if (m.rows, m.cols) != (lemma.spaces[i], lemma.spaces[j]):
            raise SpaceMismatchError(f"{name} block {f} must be over rows {lemma.spaces[i].blocks} "
                                     f"and columns {lemma.spaces[j].blocks}")
    rows = list(dict.fromkeys(i for i, _ in names))
    cols = list(dict.fromkeys(j for _, j in names))
    for a, c in [(a, c) for a in rows if a != u for c in cols]:
        if not lemma.holds(a, c, False):
            raise InvariantViolation(f"{name}: (I - R) S = I fails in row {a} at block ({a}, {c})")
    for a, c in [(a, c) for a in cols if a != measured for c in rows]:
        if not lemma.holds(a, c, True):
            raise InvariantViolation(f"{name}: S (I - R) = I fails in column {a} at block ({c}, {a})")
    direct = None if (measured, measured) in lemma.r else lemma.r.get((measured, u))
    if direct is not None and not direct.is_strictly_proper:
        try:
            proper = lemma.block(u, u).inverse().is_proper
        except SingularMatrixError:
            proper = False
        if not proper:
            raise InvariantViolation(
                f"{name}: S[u,u] has no proper inverse, so no proper controller has these blocks")
    return bundle


@dataclass(frozen=True)
class CoprimeFactors:
    """Doubly coprime factorization of a plant.

    All eight factors are stable proper, Ml and Mr are invertible with
    proper inverses (stable ones only when the plant itself is stable),
    G = Ml^{-1} Nl = Nr Mr^{-1}, and the double Bezout identity

        [[Ml, -Nl], [-Vl, Ul]] @ [[Ur, Nr], [Vr, Mr]] = I

    holds exactly, as decided by ``tfmatrix._product_is``.  ``validate``
    does not compare Ml^{-1} Nl with Nr Mr^{-1}: once Ml and Mr invert, the
    (y, u) block of the Bezout product, Ml Nr - Nl Mr = 0, already makes
    them equal.
    """

    Ml: TFMatrix
    Nl: TFMatrix
    Vl: TFMatrix
    Ul: TFMatrix
    Ur: TFMatrix
    Nr: TFMatrix
    Vr: TFMatrix
    Mr: TFMatrix

    @functools.cached_property
    def Ml_inv(self) -> TFMatrix:
        """Ml^{-1}, computed once per object."""
        return self.Ml.inverse()

    @functools.cached_property
    def Mr_inv(self) -> TFMatrix:
        """Mr^{-1}, computed once per object."""
        return self.Mr.inverse()

    def g(self) -> TFMatrix:
        """The plant transfer matrix Ml^{-1} Nl."""
        return self.Ml_inv @ self.Nl

    def _bezout_factors(self) -> tuple[TFMatrix, TFMatrix]:
        """The left and the right factor of the double Bezout identity."""
        y_sp, u_sp = self.Ml.rows, self.Mr.rows
        sp = SignalSpace(y_sp.blocks + u_sp.blocks)
        yname, uname = y_sp.names[0], u_sp.names[0]
        left = TFMatrix.from_blocks(
            sp, sp,
            {
                (yname, yname): self.Ml,
                (yname, uname): -self.Nl,
                (uname, yname): -self.Vl,
                (uname, uname): self.Ul,
            },
        )
        right = TFMatrix.from_blocks(
            sp, sp,
            {
                (yname, yname): self.Ur,
                (yname, uname): self.Nr,
                (uname, yname): self.Vr,
                (uname, uname): self.Mr,
            },
        )
        return left, right

    def bezout_product(self) -> TFMatrix:
        """Left factor times right factor; identity iff the Bezout identity holds."""
        left, right = self._bezout_factors()
        return left @ right

    def validate(self) -> None:
        _members(self)
        left, right = self._bezout_factors()
        if not _product_is(left, right, TFMatrix.identity(left.rows)):
            raise InvariantViolation("double Bezout identity fails")
        # Ml, Mr must be invertible with proper inverses so that G = Ml^{-1} Nl
        # is well defined; their inverses carry the plant's poles, so they are
        # stable only when the plant itself is.
        for name in ("Ml", "Mr"):
            if not getattr(self, name + "_inv").is_proper:
                raise InvariantViolation(f"{name} is not invertible with a proper inverse")


@dataclass(frozen=True)
class YoulaParam:
    """Free stable parameter Q ranging over all stabilizing controllers."""

    Q: TFMatrix

    @classmethod
    def checked(cls, Q: TFMatrix) -> "YoulaParam":
        return _members(cls(Q))


@dataclass(frozen=True)
class IOPParam:
    """Input-output bundle {Y, U, W, Z}: the four closed-loop maps.

    Y : output disturbance -> output     U : output disturbance -> control
    W : control disturbance -> output    Z : control disturbance -> control
    """

    Y: TFMatrix
    U: TFMatrix
    W: TFMatrix
    Z: TFMatrix

    @classmethod
    def checked(cls, Y, U, W, Z, g: TFMatrix) -> "IOPParam":
        return _checked(cls(Y, U, W, Z), g)


@dataclass(frozen=True)
class SLPStateFeedback:
    """State-feedback system level bundle {Phi_x, Phi_u}: the state-disturbance
    columns of S for a controller that measures the state."""

    phi_x: TFMatrix
    phi_u: TFMatrix

    @classmethod
    def checked(cls, phi_x, phi_u, plant: PlantSS) -> "SLPStateFeedback":
        return _checked(cls(phi_x, phi_u), plant)


@dataclass(frozen=True)
class SLPOutputFeedback:
    """Output-feedback system level bundle {Phi_xx, Phi_ux, Phi_xy, Phi_uy}
    (state/control rows, state/output columns).  Its identities do not involve D,
    so it serves any direct feedthrough via the general controller formula."""

    phi_xx: TFMatrix
    phi_ux: TFMatrix
    phi_xy: TFMatrix
    phi_uy: TFMatrix

    @classmethod
    def checked(cls, phi_xx, phi_ux, phi_xy, phi_uy, plant: PlantSS):
        return _checked(cls(phi_xx, phi_ux, phi_xy, phi_uy), plant)


@dataclass(frozen=True)
class MixedParam1:
    """Mixed bundle {Phi_yx, Phi_ux, Phi_yy, Phi_uy} (output/control rows,
    state/output columns)."""

    phi_yx: TFMatrix
    phi_ux: TFMatrix
    phi_yy: TFMatrix
    phi_uy: TFMatrix

    @classmethod
    def checked(cls, phi_yx, phi_ux, phi_yy, phi_uy, plant: PlantSS):
        return _checked(cls(phi_yx, phi_ux, phi_yy, phi_uy), plant)


@dataclass(frozen=True)
class MixedParam2:
    """Mixed bundle {Phi_xy, Phi_uy, Phi_xu, Phi_uu} (state/control rows,
    output/control columns)."""

    phi_xy: TFMatrix
    phi_uy: TFMatrix
    phi_xu: TFMatrix
    phi_uu: TFMatrix

    @classmethod
    def checked(cls, phi_xy, phi_uy, phi_xu, phi_uu, plant: PlantSS):
        return _checked(cls(phi_xy, phi_uy, phi_xu, phi_uu), plant)


# ---------------------------------------------------------------------------
# coprime factorization
# ---------------------------------------------------------------------------


def coprime_factorize(plant: PlantSS, F, L) -> CoprimeFactors:
    """Doubly coprime factorization from stabilizing gains F and L.

    F (m x n) and L (n x p) must make A + BF and A + LC Schur stable, that
    is, Phi and Psi below must lie in RH-infinity.  The eight factors are
    the standard observer/state-feedback construction:

        Mr = I + F Phi B     Nr = (C+DF) Phi B + D   with Phi = (zI-A-BF)^{-1}
        Vr = -F Phi L        Ur = I - (C+DF) Phi L
        Ml = I + C Psi L     Nl = C Psi (B+LD) + D   with Psi = (zI-A-LC)^{-1}
        Vl = -F Psi L        Ul = I - F Psi (B+LD)

    The result is validated exactly (Bezout) and by pole tests
    (stable-proper memberships) before it is returned.
    """
    F = exact_matrix(F)
    L = exact_matrix(L)
    n, m, p = plant.n, plant.m, plant.p
    if F.shape != (m, n) or L.shape != (n, p):
        raise InvariantViolation("gain shapes must be F: m x n and L: n x p")
    x_sp, u_sp, y_sp = plant.x_space, plant.u_space, plant.y_space
    phi = _z_minus(plant.A + plant.B @ F, x_sp).inverse()
    psi = _z_minus(plant.A + L @ plant.C, x_sp).inverse()
    if not phi.classify().in_rh_inf:
        raise InvariantViolation("F does not stabilize: A + BF is not Schur stable")
    if not psi.classify().in_rh_inf:
        raise InvariantViolation("L does not stabilize: A + LC is not Schur stable")

    const = TFMatrix.constant
    f_c = const(u_sp, x_sp, F)
    l_c = const(x_sp, y_sp, L)
    b_c = const(x_sp, u_sp, plant.B)
    d_c = const(y_sp, u_sp, plant.D)
    cdf = const(y_sp, x_sp, plant.C + plant.D @ F)
    bld = const(x_sp, u_sp, plant.B + L @ plant.D)
    c_c = const(y_sp, x_sp, plant.C)
    eye_u = TFMatrix.identity(u_sp)
    eye_y = TFMatrix.identity(y_sp)

    factors = CoprimeFactors(
        Ml=eye_y + c_c @ psi @ l_c,
        Nl=d_c + c_c @ psi @ bld,
        Vl=-(f_c @ psi @ l_c),
        Ul=eye_u - f_c @ psi @ bld,
        Ur=eye_y - cdf @ phi @ l_c,
        Nr=d_c + cdf @ phi @ b_c,
        Vr=-(f_c @ phi @ l_c),
        Mr=eye_u + f_c @ phi @ b_c,
    )
    factors.validate()
    return factors


# ---------------------------------------------------------------------------
# conversions to and from the controller
# ---------------------------------------------------------------------------


def _from_controller(name: str, plant, k: TFMatrix):
    """The named bundle of the stabilized loop that k closes around ``plant``:
    its blocks of S, checked against ``plant``."""
    entry = REGISTRY[name]
    s = stabilized_loop(_closed_loop(plant, k, entry.signal), f"{name}_from_controller")
    names = _held_names(entry, (k.rows.names[0], k.cols.names[0]))
    return entry.bundle.checked(*(s.S.block(i, j) for i, j in names), plant)


def youla_to_controller(f: CoprimeFactors, q: YoulaParam) -> TFMatrix:
    """K = (Vr - Mr Q) (Ur - Nr Q)^{-1}."""
    return (f.Vr - f.Mr @ q.Q) @ (f.Ur - f.Nr @ q.Q).inverse()


def _youla_of(f: CoprimeFactors, s_uy: TFMatrix) -> YoulaParam:
    """Q = Mr^{-1} (Vr - S[u,y] Ml^{-1}), the inverse of S[u,y] = (Vr - Mr Q) Ml."""
    return YoulaParam.checked(f.Mr_inv @ (f.Vr - s_uy @ f.Ml_inv))


def controller_to_youla(f: CoprimeFactors, k: TFMatrix) -> YoulaParam:
    """Q from S[u,y] (``_youla_of``) of the loop that k closes around G = Ml^{-1} Nl.

    The controller must be admissible: its loop with the factored plant has
    to pass the causality/stability conditions.
    """
    g = f.g()
    s = stabilized_loop(plant_feedback_loop(g, k), "controller_to_youla")
    return _youla_of(f, s.S.block(g.cols.names[0], g.rows.names[0]))


def iop_from_controller(g: TFMatrix, k: TFMatrix) -> IOPParam:
    """Extract {Y, U, W, Z} as the blocks of (I - R)^{-1} for the (G, K) loop;
    G may have a direct feedthrough, as long as the loop is internally stable."""
    return _from_controller("iop", g, k)


def iop_to_controller(p: IOPParam) -> TFMatrix:
    """K = U Y^{-1}."""
    return p.U @ p.Y.inverse()


def slp_sf_to_controller(p: SLPStateFeedback) -> TFMatrix:
    """K = Phi_u Phi_x^{-1}."""
    return p.phi_u @ p.phi_x.inverse()


def slp_sf_from_controller(plant: PlantSS, k: TFMatrix) -> SLPStateFeedback:
    """Extract {Phi_x, Phi_u} as the state-disturbance columns of the loop's S."""
    return _from_controller("slp_sf", plant, k)


def slp_of_to_controller(p: SLPOutputFeedback, D) -> TFMatrix:
    """K = K0 (I + D K0)^{-1} with K0 = Phi_uy - Phi_ux Phi_xx^{-1} Phi_xy.

    With D = 0 this reduces to K0 itself.
    """
    k0 = p.phi_uy - p.phi_ux @ p.phi_xx.inverse() @ p.phi_xy
    d = exact_matrix(D)
    if all(v == 0 for v in d.flat):
        return k0
    y_sp, u_sp = k0.cols, k0.rows
    d_c = TFMatrix.constant(y_sp, u_sp, d)
    return k0 @ (TFMatrix.identity(y_sp) + d_c @ k0).inverse()


def slp_of_from_controller(plant: PlantSS, k: TFMatrix) -> SLPOutputFeedback:
    """Extract {Phi_xx, Phi_ux, Phi_xy, Phi_uy} from the output-feedback loop's S."""
    return _from_controller("slp_of", plant, k)


def mixed1_to_controller(p: MixedParam1) -> TFMatrix:
    """K = Phi_uy Phi_yy^{-1}."""
    return p.phi_uy @ p.phi_yy.inverse()


def mixed1_from_controller(plant: PlantSS, k: TFMatrix) -> MixedParam1:
    """Extract {Phi_yx, Phi_ux, Phi_yy, Phi_uy} from the output-feedback loop's S."""
    return _from_controller("mixed1", plant, k)


def mixed2_to_controller(p: MixedParam2) -> TFMatrix:
    """K = Phi_uu^{-1} Phi_uy."""
    return p.phi_uu.inverse() @ p.phi_uy


def mixed2_from_controller(plant: PlantSS, k: TFMatrix) -> MixedParam2:
    """Extract {Phi_xy, Phi_uy, Phi_xu, Phi_uu} from the output-feedback loop's S."""
    return _from_controller("mixed2", plant, k)


# ---------------------------------------------------------------------------
# conversions between parameterizations
# ---------------------------------------------------------------------------


def youla_to_iop(f: CoprimeFactors, q: YoulaParam) -> IOPParam:
    """Translate a Youla parameter into the input-output bundle, with Y, W
    and Z derived from U = S[u,y] by ``_Lemma`` around G = Ml^{-1} Nl:

    [[Y, W], [U, Z]] = [[(Ur-NrQ)Ml, (Ur-NrQ)Nl], [(Vr-MrQ)Ml, I+(Vr-MrQ)Nl]].
    """
    g = f.g()
    space, r, at = _plant_part(g)
    block = _Lemma(g, space, r, {at: (f.Vr - f.Mr @ q.Q) @ f.Ml}).block
    return IOPParam.checked(*(block(i, j) for i, j in _held_names(REGISTRY["iop"], at)), g)


def slp_sf_to_iop(p: SLPStateFeedback, plant: PlantSS) -> IOPParam:
    """Translate the state-feedback bundle into the input-output bundle.

    The loop over (x, u) is equivalent to the plant/controller loop with
    G = (zI-A)^{-1} B under the disturbance change T = diag(zI-A, I), so

    [[Y, W], [U, Z]] = [[Phi_x (zI-A), Phi_x B], [Phi_u (zI-A), I + Phi_u B]].
    """
    return convert("slp_sf", "iop", p, plant)


def slp_of_to_iop(p: SLPOutputFeedback, plant: PlantSS) -> IOPParam:
    """Translate the output-feedback bundle into the input-output bundle:

    Y = C Phi_xy + D Phi_uy + I        U = Phi_uy
    Z = Phi_ux B + Phi_uy D + I        W = (C Phi_xx + D Phi_ux) B + Y D.

    Valid for any direct feedthrough D, strictly proper or not.
    """
    return convert("slp_of", "iop", p, plant)


def _factors_of(plant: PlantSS, factors: Callable[[], CoprimeFactors] | None) -> CoprimeFactors:
    """The coprime factors from the loader ``factors``, once they factor
    ``plant``: Ml^{-1} Nl = G is decided as Ml G = Nl, since Ml inverts."""
    if factors is None:
        raise SchemaError("this conversion needs the coprime factors (a coprime_factors document)")
    f = factors()
    g = plant.transfer()
    if f.Ml.cols != g.rows or not _product_is(f.Ml, g, f.Nl):
        raise InvariantViolation("the coprime factors are not of this plant: Ml^{-1} Nl != G")
    return f


def convert(source: str, target: str, bundle, plant: PlantSS,
            factors: Callable[[], CoprimeFactors] | None = None):
    """The ``target`` bundle of the loop that the ``source`` bundle describes:
    its blocks of S, completed from the source's, checked.

    The controller measures x for slp_sf and an IOP bundle over the state, y
    otherwise, and for an IOP target what the source does.  Measuring x takes
    C = I and D = 0, and gives slp_sf's column y as S[i,x] (zI - A) - I_ix.
    Youla enters and leaves as S[u,y] (``_youla_of``); only a Youla source or
    target calls ``factors``, a loader of the coprime factors.
    """
    if source == target:
        return bundle
    entry, to = REGISTRY[source], REGISTRY[target]
    signal = bundle.Y.rows.names[0] if source == "iop" else entry.signal
    measured = signal if target == "iop" else to.signal
    measures_state = plant.is_strictly_proper and np.array_equal(plant.C, np.eye(plant.n))
    if signal != measured and not measures_state:
        raise InvariantViolation("conversion between state- and output-measured "
                                 "parameterizations requires C = I and D = 0")
    if "x" in (signal, measured) and not measures_state:
        plant = PlantSS.state_feedback(plant.A, plant.B)
    f = _factors_of(plant, factors) if "youla" in (source, target) else None
    spaces = {"x": plant.x_space, "u": plant.u_space, "y": plant.y_space}
    held = {(i, j): getattr(bundle, field).relabel(spaces[i], spaces[j])
            for (i, j), field in zip(entry.blocks, entry.fields)}
    if source == "youla":
        held[("u", "y")] = (f.Vr - f.Mr @ bundle.Q) @ f.Ml
    if source == "slp_sf":
        zia = plant.z_minus_a()
        for i in ("x", "u"):
            v = held[(i, "x")] @ zia
            v = v - TFMatrix.identity(v.rows) if i == "x" else v
            held[(i, "y")] = v.relabel(spaces[i], spaces["y"])
    block = _Lemma(plant, *_plant_part(plant)[:2], held).block
    if target == "youla":
        return _youla_of(f, block("u", "y"))
    spaces["y"] = spaces[measured]  # an IOP bundle over the state names its output x
    blocks = [block(i, j).relabel(spaces[i], spaces[j]) for i, j in to.blocks]
    return to.bundle.checked(*blocks, to.plant_map(plant, measured))


# ---------------------------------------------------------------------------
# the registry: one entry per parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameterization:
    """One parameterization as a special case of the realization-stability lemma.

    A bundle is a choice of blocks of S = (I - R)^{-1} for the loop R that a
    controller closes around the plant; ``bundle.checked`` tests the blocks'
    memberships (strict for ``strictly_proper``) and the lemma's identities,
    and ``convert`` translates between bundles through those blocks alone.

    ``bundle`` is the dataclass whose fields name the document's blocks;
    ``blocks`` gives the (row, col) block of S behind each field, with the
    measured signal named by ``signal`` ("x" or "y"), and is empty for Youla,
    whose Q is an affine image of S[u,y] (``_youla_of``).  ``plant_map`` takes
    the plant and the label of the measured signal to what ``bundle.checked``
    takes after the blocks; it is None when the blocks are checked alone.
    """

    name: str
    bundle: type
    signal: str
    blocks: tuple[tuple[str, str], ...]
    plant_map: Callable[[PlantSS, str], Any] | None = lambda plant, label: plant
    strictly_proper: tuple[str, ...] = ()

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.bundle))


REGISTRY: dict[str, Parameterization] = {p.name: p for p in (
    Parameterization("youla", YoulaParam, "y", (), plant_map=None),
    Parameterization(
        "iop", IOPParam, "y", (("y", "y"), ("u", "y"), ("y", "u"), ("u", "u")),
        # G, or (zI - A)^{-1} B for a bundle whose rows measure the state
        plant_map=lambda plant, label: (
            plant.state_transfer() if label == "x" else plant.transfer()),
    ),
    Parameterization("slp_sf", SLPStateFeedback, "x", (("x", "x"), ("u", "x")),
                     strictly_proper=("phi_x", "phi_u")),
    Parameterization("slp_of", SLPOutputFeedback, "y",
                     (("x", "x"), ("u", "x"), ("x", "y"), ("u", "y")),
                     strictly_proper=("phi_xx", "phi_ux", "phi_xy")),
    Parameterization("mixed1", MixedParam1, "y", (("y", "x"), ("u", "x"), ("y", "y"), ("u", "y"))),
    Parameterization("mixed2", MixedParam2, "y", (("x", "y"), ("u", "y"), ("x", "u"), ("u", "u"))),
)}
