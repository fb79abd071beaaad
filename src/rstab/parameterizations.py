"""Controller parameterizations and exact conversions between them.

Every internally stabilizing controller for a discrete-time plant can be
described by several equivalent parameter bundles: the Youla parameter Q
over a doubly coprime factorization, the input-output bundle {Y, U, W, Z},
the system level bundles (state feedback {Phi_x, Phi_u} and output feedback
{Phi_xx, Phi_ux, Phi_xy, Phi_uy}), and two mixed bundles.  ``REGISTRY``
holds one ``Parameterization`` entry per bundle: its loop, the blocks of
S = (I - R)^{-1} it holds, and which of them are strictly proper.  Each
bundle is checked on construction: its stability memberships by numeric pole
tests, and exactly the identities of (I - R) S = S (I - R) = I that the
controller does not enter, with I - R read off the plant.  One routine,
``_completion``, derives every block of S that a bundle does not hold: the
check reads the blocks its identities need from it, and ``convert``
translates any bundle into any other by reading the target's blocks from
it.  The ``*_from_controller`` and ``*_to_controller`` functions map
bundles to controllers and back.

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
from .tfmatrix import SignalSpace, TFMatrix


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

    @property
    def x_space(self) -> SignalSpace:
        return SignalSpace.single("x", self.n)

    @property
    def u_space(self) -> SignalSpace:
        return SignalSpace.single("u", self.m)

    @property
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


def _dynamics_block(plant: PlantSS) -> TFMatrix:
    """A + (1 - z) I: the realization block of x = z^{-1}(A x + B u).

    Improper on the diagonal by construction; the causality condition
    exempts diagonal blocks for exactly this reason.
    """
    x = plant.x_space
    return TFMatrix.constant(x, x, plant.A) + TFMatrix.diagonal(x, RatFun([1, -1]))


# ---------------------------------------------------------------------------
# closed-loop realizations
# ---------------------------------------------------------------------------


def plant_feedback_loop(g: TFMatrix, k: TFMatrix) -> Realization:
    """Two-signal loop R = [[0, G], [K, 0]] over (output, control).

    Signal names come from g's own spaces, so the same builder serves
    measurement loops (y, u) and state loops (x, u).
    """
    if len(g.rows.blocks) != 1 or len(g.cols.blocks) != 1:
        raise SpaceMismatchError("plant transfer matrix must be single-block on both sides")
    if k.rows != g.cols or k.cols != g.rows:
        raise SpaceMismatchError("controller spaces must be the reverse of the plant's")
    out_name, p = g.rows.blocks[0]
    u_name, m = g.cols.blocks[0]
    space = SignalSpace(((out_name, p), (u_name, m)))
    return Realization.from_blocks(space, {(out_name, u_name): g, (u_name, out_name): k})


def _plant_loop(plant: PlantSS, k: TFMatrix, signal: str) -> Realization:
    """The plant's state equation closed by a controller K that measures ``signal``.

    Measuring the state, the loop is over (x, u) with
    R = [[A + (1-z)I, B], [K, 0]]; measuring y = Cx + Du, it is over
    (x, u, y) with R = [[A + (1-z)I, B, 0], [0, 0, K], [C, D, 0]].
    """
    blocks = {
        ("x", "x"): _dynamics_block(plant),
        ("x", "u"): TFMatrix.constant(plant.x_space, plant.u_space, plant.B),
        ("u", signal): k,
    }
    dims = (("x", plant.n), ("u", plant.m))
    if signal == "y":
        blocks[("y", "x")] = TFMatrix.constant(plant.y_space, plant.x_space, plant.C)
        blocks[("y", "u")] = TFMatrix.constant(plant.y_space, plant.u_space, plant.D)
        dims += (("y", plant.p),)
    return Realization.from_blocks(SignalSpace(dims), blocks)


def state_feedback_loop(plant: PlantSS, k: TFMatrix) -> Realization:
    """State-feedback loop R = [[A + (1-z)I, B], [K, 0]] over (x, u)."""
    return _plant_loop(plant, k, "x")


def output_feedback_loop(plant: PlantSS, k: TFMatrix) -> Realization:
    """Output-feedback loop over (x, u, y):

    R = [[A + (1-z)I, B, 0], [0, 0, K], [C, D, 0]].
    """
    return _plant_loop(plant, k, "y")


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


def _held_names(entry: "Parameterization", plant) -> tuple[str, list[tuple[str, str]]]:
    """The signal that the entry's controller measures around ``plant`` (an IOP
    bundle's G names it: x for (zI - A)^{-1} B), and the entry's blocks named so."""
    measured = plant.rows.names[0] if isinstance(plant, TFMatrix) else entry.signal
    return measured, [tuple(measured if n == entry.signal else n for n in b) for b in entry.blocks]


def _one_minus_r(plant, signal: str) -> dict:
    """The nonzero blocks of I - R but K, by (row, col), None standing for I:
    [[I, -G], [., I]] over (G's output, u), or [[zI - A, -B], [., I]] over
    (x, u) with row y = [-C, -D, I] when the controller measures y."""
    if isinstance(plant, TFMatrix):
        if len(plant.rows.blocks) != 1 or len(plant.cols.blocks) != 1:
            raise SpaceMismatchError("plant transfer matrix must be single-block on both sides")
        out = plant.rows.names[0]
        return {(out, out): None, (out, "u"): -plant, ("u", "u"): None}
    x, u, y = plant.x_space, plant.u_space, plant.y_space
    m = {("x", "x"): plant.z_minus_a(), ("x", "u"): TFMatrix.constant(x, u, -plant.B),
         ("u", "u"): None}
    if signal == "y":
        m.update({("y", "x"): TFMatrix.constant(y, x, -plant.C),
                  ("y", "u"): TFMatrix.constant(y, u, -plant.D), ("y", "y"): None})
    return {k: v for k, v in m.items() if v is None or not v.is_zero}


def _has_feedthrough(plant) -> bool:
    """Whether the measurement depends on u directly: D != 0, or G not strictly proper."""
    if isinstance(plant, PlantSS):
        return not plant.is_strictly_proper
    return not all(e.is_strictly_proper for row in plant.entries for e in row)


def _checked(bundle, plant):
    """Return ``bundle`` once its memberships and lemma identities hold, in its loop
    around ``plant`` (for IOP, around G or (zI - A)^{-1} B).

    The identities are those that the controller does not enter: the rows of
    (I - R) S = I other than u's, at the held columns, and the columns of
    S (I - R) = I other than the measured signal's, at the held rows.  A block
    of S that they read and the bundle does not hold comes from
    ``_completion``.  With a direct feedthrough, a bundle measured at y must
    also have an S[u,u] with a proper inverse, so that its controller
    K = S[u,u]^{-1} S[u,y] is proper; without one, the identities already
    make S[u,u] biproper.
    """
    entry = next(e for e in REGISTRY.values() if e.bundle is type(bundle))
    name = type(bundle).__name__
    _members(bundle, entry.strictly_proper)
    m = _one_minus_r(plant, entry.signal)
    measured, names = _held_names(entry, plant)
    held = dict(zip(names, (getattr(bundle, f) for f in entry.fields)))
    block = (lambda i, j: held[i, j]) if isinstance(plant, TFMatrix) else _completion(plant, held)

    def fails(a: str, c: str, by_column: bool) -> bool:
        # sum_b (I - R)[a,b] S[b,c] != I_ac, or sum_b S[c,b] (I - R)[b,a] by column
        terms = []
        for (i, j), m_ij in m.items():
            if (j if by_column else i) == a:
                s_b = block(c, i) if by_column else block(j, c)
                terms.append(s_b if m_ij is None else s_b @ m_ij if by_column else m_ij @ s_b)
        lhs = sum(terms[1:], terms[0])
        return lhs != (TFMatrix.identity(lhs.rows) if c == a else TFMatrix.zeros(lhs.rows, lhs.cols))

    rows = list(dict.fromkeys(r for r, _ in names))
    cols = list(dict.fromkeys(c for _, c in names))
    for a, c in [(a, c) for a in rows if a != "u" for c in cols]:
        if fails(a, c, False):
            raise InvariantViolation(f"{name}: (I - R) S = I fails in row {a} at block ({a}, {c})")
    for a, c in [(a, c) for a in cols if a != measured for c in rows]:
        if fails(a, c, True):
            raise InvariantViolation(f"{name}: S (I - R) = I fails in column {a} at block ({c}, {a})")
    if entry.signal == "y" and _has_feedthrough(plant):
        try:
            proper = block("u", "u").inverse().is_proper
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

    holds exactly.  ``validate`` does not compare Ml^{-1} Nl with Nr Mr^{-1}:
    once Ml and Mr invert, the (y, u) block of the Bezout product,
    Ml Nr - Nl Mr = 0, already makes them equal.
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

    def bezout_product(self) -> TFMatrix:
        """Left factor times right factor; identity iff the Bezout identity holds."""
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
        return left @ right

    def validate(self) -> None:
        _members(self)
        sp = SignalSpace(self.Ml.rows.blocks + self.Mr.rows.blocks)
        if self.bezout_product() != TFMatrix.identity(sp):
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


def _bundle_of_loop(entry: "Parameterization", loop: Realization, plant):
    """The entry's blocks of the stabilized loop's S, checked against ``plant``."""
    s = stabilized_loop(loop, f"{entry.name}_from_controller")
    return entry.bundle.checked(*(s.S.block(r, c) for r, c in _held_names(entry, plant)[1]), plant)


def _from_plant_loop(name: str, plant: PlantSS, k: TFMatrix):
    """The named bundle of the loop that k closes around the plant's state equation."""
    entry = REGISTRY[name]
    return _bundle_of_loop(entry, _plant_loop(plant, k, entry.signal), plant)


def youla_to_controller(f: CoprimeFactors, q: YoulaParam) -> TFMatrix:
    """K = (Vr - Mr Q) (Ur - Nr Q)^{-1}."""
    return (f.Vr - f.Mr @ q.Q) @ (f.Ur - f.Nr @ q.Q).inverse()


def controller_to_youla(f: CoprimeFactors, k: TFMatrix) -> YoulaParam:
    """Q = Mr^{-1} (Vr - S_ux Ml^{-1}) from the closed loop's control response.

    The controller must be admissible: its loop with the factored plant has
    to pass the causality/stability conditions.
    """
    g = f.g()
    loop = plant_feedback_loop(g, k)
    s = stabilized_loop(loop, "controller_to_youla")
    out_name = g.rows.names[0]
    s_ux = s.S.block(g.cols.names[0], out_name)
    q = f.Mr_inv @ (f.Vr - s_ux @ f.Ml_inv)
    return YoulaParam.checked(q)


def iop_from_controller(g: TFMatrix, k: TFMatrix) -> IOPParam:
    """Extract {Y, U, W, Z} as the blocks of (I - R)^{-1} for the (G, K) loop;
    G may have a direct feedthrough, as long as the loop is internally stable."""
    return _bundle_of_loop(REGISTRY["iop"], plant_feedback_loop(g, k), g)


def iop_to_controller(p: IOPParam) -> TFMatrix:
    """K = U Y^{-1}."""
    return p.U @ p.Y.inverse()


def slp_sf_to_controller(p: SLPStateFeedback) -> TFMatrix:
    """K = Phi_u Phi_x^{-1}."""
    return p.phi_u @ p.phi_x.inverse()


def slp_sf_from_controller(plant: PlantSS, k: TFMatrix) -> SLPStateFeedback:
    """Extract {Phi_x, Phi_u} as the state-disturbance columns of the loop's S."""
    return _from_plant_loop("slp_sf", plant, k)


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
    return _from_plant_loop("slp_of", plant, k)


def mixed1_to_controller(p: MixedParam1) -> TFMatrix:
    """K = Phi_uy Phi_yy^{-1}."""
    return p.phi_uy @ p.phi_yy.inverse()


def mixed1_from_controller(plant: PlantSS, k: TFMatrix) -> MixedParam1:
    """Extract {Phi_yx, Phi_ux, Phi_yy, Phi_uy} from the output-feedback loop's S."""
    return _from_plant_loop("mixed1", plant, k)


def mixed2_to_controller(p: MixedParam2) -> TFMatrix:
    """K = Phi_uu^{-1} Phi_uy."""
    return p.phi_uu.inverse() @ p.phi_uy


def mixed2_from_controller(plant: PlantSS, k: TFMatrix) -> MixedParam2:
    """Extract {Phi_xy, Phi_uy, Phi_xu, Phi_uu} from the output-feedback loop's S."""
    return _from_plant_loop("mixed2", plant, k)


# ---------------------------------------------------------------------------
# conversions between parameterizations
# ---------------------------------------------------------------------------


def youla_to_iop(f: CoprimeFactors, q: YoulaParam) -> IOPParam:
    """Translate a Youla parameter into the input-output bundle:

    [[Y, W], [U, Z]] = [[(Ur-NrQ)Ml, (Ur-NrQ)Nl], [(Vr-MrQ)Ml, I+(Vr-MrQ)Nl]].
    """
    e = f.Ur - f.Nr @ q.Q
    v = f.Vr - f.Mr @ q.Q
    eye_u = TFMatrix.identity(f.Mr.rows)
    return IOPParam.checked(
        Y=e @ f.Ml, W=e @ f.Nl, U=v @ f.Ml, Z=eye_u + v @ f.Nl, g=f.g(),
    )


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


def _completion(plant: PlantSS, held: dict) -> Callable[[str, str], TFMatrix]:
    """Block (i, j) of S for the output-feedback loop over (x, u, y), completed
    from the ``held`` blocks by the rows x, y of (I - R) S = I and the columns
    x, u of S (I - R) = I, which the controller does not enter:

        (zI - A) S[x,j] = I_xj + B S[u,j]      S[i,x] (zI - A) = I_ix + S[i,y] C
        S[y,j] = I_yj + C S[x,j] + D S[u,j]    S[i,u] = I_iu + S[i,x] B + S[i,y] D

    (I_ab = I if a = b, else 0).  A missing block of a held row comes from its
    column's identity, any other from its row's, so every chain ends at the
    held row u and column y.  Blocks are derived when first read, with the
    plant's own ``resolvent()``; ``convert`` and ``_checked`` both read here.
    """
    rows = {i for i, _ in held}
    s = dict(held)
    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    c = TFMatrix.constant(plant.y_space, plant.x_space, plant.C)
    d = TFMatrix.constant(plant.y_space, plant.u_space, plant.D)

    def block(i: str, j: str) -> TFMatrix:
        if (i, j) not in s:
            by_column = i in rows
            if by_column:
                v = block(i, "y") @ c if j == "x" else block(i, "x") @ b + block(i, "y") @ d
            else:
                v = b @ block("u", j) if i == "x" else c @ block("x", j) + d @ block("u", j)
            if i == j:
                v = v + TFMatrix.identity(v.rows)
            if (j if by_column else i) == "x":
                v = v @ plant.resolvent() if by_column else plant.resolvent() @ v
            s[(i, j)] = v
        return s[(i, j)]

    return block


def _factors_of(plant: PlantSS, factors: Callable[[], CoprimeFactors] | None) -> CoprimeFactors:
    """The coprime factors from the loader ``factors``, once they factor ``plant``."""
    if factors is None:
        raise SchemaError("this conversion needs the coprime factors (a coprime_factors document)")
    f = factors()
    if f.g() != plant.transfer():
        raise InvariantViolation("the coprime factors are not of this plant: Ml^{-1} Nl != G")
    return f


def convert(source: str, target: str, bundle, plant: PlantSS,
            factors: Callable[[], CoprimeFactors] | None = None):
    """The ``target`` bundle of the loop that the ``source`` bundle describes:
    its blocks of S, completed from the source's, checked.

    The controller measures x for slp_sf and an IOP bundle over the state, y
    otherwise, and for an IOP target what the source does.  Measuring x takes
    C = I and D = 0, and gives slp_sf's column y as S[i,x] (zI - A) - I_ix.
    Youla enters through ``youla_to_iop`` and leaves through
    K = S[u,u]^{-1} S[u,y] and ``controller_to_youla``, which alone call
    ``factors``, a loader of the coprime factors.
    """
    if source == "youla" and target != "youla":
        bundle, source = youla_to_iop(_factors_of(plant, factors), bundle), "iop"
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
    spaces = {"x": plant.x_space, "u": plant.u_space, "y": plant.y_space}
    held = {(i, j): getattr(bundle, f).relabel(spaces[i], spaces[j])
            for (i, j), f in zip(entry.blocks, entry.fields)}
    if source == "slp_sf":
        zia = plant.z_minus_a()
        for i in ("x", "u"):
            v = held[(i, "x")] @ zia
            v = v - TFMatrix.identity(v.rows) if i == "x" else v
            held[(i, "y")] = v.relabel(spaces[i], spaces["y"])
    block = _completion(plant, held)
    if target == "youla":
        k = block("u", "u").inverse() @ block("u", "y")
        return controller_to_youla(_factors_of(plant, factors), k)
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
    whose Q is a formula in S and the coprime factors.  ``plant_map`` takes
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
