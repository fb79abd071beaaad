"""Controller parameterizations and exact conversions between them.

Every internally stabilizing controller for a discrete-time plant can be
described by several equivalent parameter bundles: the Youla parameter Q
over a doubly coprime factorization, the input-output bundle {Y, U, W, Z},
the system level bundles (state feedback {Phi_x, Phi_u} and output feedback
{Phi_xx, Phi_ux, Phi_xy, Phi_uy}), and two mixed bundles.  Each bundle here
carries its affine constraints as exact rational-matrix identities (checked
on construction) and its stability memberships as numeric pole tests; the
conversions below map bundles to controllers and back, and translate
directly between parameterizations.  ``REGISTRY`` holds one
``Parameterization`` entry per bundle: its loop, the blocks of S it reads,
and its maps to and from the controller.

Signal naming convention: states are "x", controls "u", measurements "y".
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import InternalStabilityError, InvariantViolation, SchemaError, SpaceMismatchError
from .ratfun import DEFAULT_TOL, RatFun
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
            v = arr[i, j]
            if isinstance(v, np.generic):
                v = v.item()
            out[i, j] = Fraction(v)
    return out


def spectral_radius(m) -> float:
    a = np.asarray(m, dtype=object).astype(float)
    if a.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(a))))


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
        """(zI - A)^{-1}."""
        return self.z_minus_a().inverse()

    def state_transfer(self) -> TFMatrix:
        """(zI - A)^{-1} B, the disturbance-to-state map, over (x, u)."""
        return self.resolvent() @ TFMatrix.constant(self.x_space, self.u_space, self.B)

    def transfer(self, state_transfer: TFMatrix | None = None) -> TFMatrix:
        """G = C (zI - A)^{-1} B + D over (y, u), from ``state_transfer`` when given."""
        c = TFMatrix.constant(self.y_space, self.x_space, self.C)
        d = TFMatrix.constant(self.y_space, self.u_space, self.D)
        return c @ (self.state_transfer() if state_transfer is None else state_transfer) + d


def _dynamics_block(plant: PlantSS) -> TFMatrix:
    """A + (1 - z) I = -(zI - (A + I)): the realization block of x = z^{-1}(A x + B u).

    Improper on the diagonal by construction; the causality condition
    exempts diagonal blocks for exactly this reason.
    """
    return -_z_minus(plant.A + exact_matrix(np.eye(plant.n)), plant.x_space)


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


def stabilized_loop(r: Realization, tol: float, context: str) -> StabilityMatrix:
    """Stability matrix of a loop that is required to be internally stable."""
    s = stability_from_realization(r)
    report = check_conditions(r, s, tol)
    if not report.passed:
        bad = ", ".join(f"{f.matrix}[{f.row},{f.col}] {f.kind}" for f in report.findings)
        raise InternalStabilityError(f"{context}: {bad}", report)
    return s


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


def _members(bundle, tol: float, strictly_proper: tuple[str, ...] = ()):
    """Return ``bundle`` once every block is stable proper, and strictly
    proper as well for the fields named in ``strictly_proper``."""
    for f in fields(bundle):
        strict = f.name in strictly_proper
        c = getattr(bundle, f.name).classify(tol)
        if not (c.in_zinv_rh_inf if strict else c.in_rh_inf):
            kind = "strictly proper and stable" if strict else "stable proper"
            raise InvariantViolation(f"{type(bundle).__name__} block {f.name} must be {kind}")
    return bundle


def _holds(bundle, identities):
    """Return ``bundle`` once every (lhs, rhs, message) identity holds exactly."""
    for lhs, rhs, message in identities:
        if lhs != rhs:
            raise InvariantViolation(f"{message} fails")
    return bundle


@dataclass(frozen=True)
class CoprimeFactors:
    """Doubly coprime factorization of a plant.

    All eight factors are stable proper, Ml and Mr are invertible with
    proper inverses (stable ones only when the plant itself is stable),
    G = Ml^{-1} Nl = Nr Mr^{-1}, and the double Bezout identity

        [[Ml, -Nl], [-Vl, Ul]] @ [[Ur, Nr], [Vr, Mr]] = I

    holds exactly.
    """

    Ml: TFMatrix
    Nl: TFMatrix
    Vl: TFMatrix
    Ul: TFMatrix
    Ur: TFMatrix
    Nr: TFMatrix
    Vr: TFMatrix
    Mr: TFMatrix

    def g(self) -> TFMatrix:
        """The plant transfer matrix Ml^{-1} Nl."""
        return self.Ml.inverse() @ self.Nl

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

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        _members(self, tol)
        sp = SignalSpace(self.Ml.rows.blocks + self.Mr.rows.blocks)
        if self.bezout_product() != TFMatrix.identity(sp):
            raise InvariantViolation("double Bezout identity fails")
        # Ml, Mr must be invertible with proper inverses so that G = Ml^{-1} Nl
        # is well defined; their inverses carry the plant's poles, so they are
        # stable only when the plant itself is.
        ml_inv, mr_inv = self.Ml.inverse(), self.Mr.inverse()
        for name, inv in (("Ml", ml_inv), ("Mr", mr_inv)):
            if not inv.classify(tol).all_proper:
                raise InvariantViolation(f"{name} is not invertible with a proper inverse")
        if ml_inv @ self.Nl != self.Nr @ mr_inv:
            raise InvariantViolation("left and right factorizations disagree about the plant")


@dataclass(frozen=True)
class YoulaParam:
    """Free stable parameter Q ranging over all stabilizing controllers."""

    Q: TFMatrix

    @classmethod
    def checked(cls, Q: TFMatrix, tol: float = DEFAULT_TOL) -> "YoulaParam":
        return _members(cls(Q), tol)


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
    def checked(cls, Y, U, W, Z, g: TFMatrix, tol: float = DEFAULT_TOL) -> "IOPParam":
        p = _members(cls(Y, U, W, Z), tol)
        zero = TFMatrix.zeros(g.rows, g.cols)
        row = "IOP row identity [I,-G][[Y,W],[U,Z]] = [I,O]"
        col = "IOP column identity [[Y,W],[U,Z]][-G;I] = [O;I]"
        return _holds(p, [
            (Y - g @ U, TFMatrix.identity(g.rows), row),
            (W - g @ Z, zero, row),
            (W - Y @ g, zero, col),
            (Z - U @ g, TFMatrix.identity(g.cols), col),
        ])


@dataclass(frozen=True)
class SLPStateFeedback:
    """State-feedback system level bundle {Phi_x, Phi_u}.

    Both maps are strictly proper and stable, and satisfy
    (zI - A) Phi_x - B Phi_u = I exactly.
    """

    phi_x: TFMatrix
    phi_u: TFMatrix

    @classmethod
    def checked(cls, phi_x, phi_u, plant: PlantSS, tol: float = DEFAULT_TOL) -> "SLPStateFeedback":
        p = _members(cls(phi_x, phi_u), tol, strictly_proper=("phi_x", "phi_u"))
        b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
        return _holds(p, [
            (plant.z_minus_a() @ phi_x - b @ phi_u, TFMatrix.identity(plant.x_space),
             "(zI - A) Phi_x - B Phi_u = I"),
        ])


@dataclass(frozen=True)
class SLPOutputFeedback:
    """Output-feedback system level bundle {Phi_xx, Phi_ux, Phi_xy, Phi_uy}.

    Satisfies the two affine identities

        [zI-A, -B] [[Phi_xx, Phi_xy], [Phi_ux, Phi_uy]] = [I, O]
        [[Phi_xx, Phi_xy], [Phi_ux, Phi_uy]] [zI-A; -C] = [I; O]

    with Phi_xx, Phi_ux, Phi_xy strictly proper stable and Phi_uy stable
    proper.  The identities do not involve D; the same bundle serves any
    direct feedthrough via the general controller formula.
    """

    phi_xx: TFMatrix
    phi_ux: TFMatrix
    phi_xy: TFMatrix
    phi_uy: TFMatrix

    @classmethod
    def checked(cls, phi_xx, phi_ux, phi_xy, phi_uy, plant: PlantSS, tol: float = DEFAULT_TOL):
        p = _members(cls(phi_xx, phi_ux, phi_xy, phi_uy), tol,
                     strictly_proper=("phi_xx", "phi_ux", "phi_xy"))
        zia = plant.z_minus_a()
        b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
        c = TFMatrix.constant(plant.y_space, plant.x_space, plant.C)
        eye_x = TFMatrix.identity(plant.x_space)
        return _holds(p, [
            (zia @ phi_xx - b @ phi_ux, eye_x, "(zI - A) Phi_xx - B Phi_ux = I"),
            (zia @ phi_xy - b @ phi_uy, TFMatrix.zeros(plant.x_space, plant.y_space),
             "(zI - A) Phi_xy - B Phi_uy = O"),
            (phi_xx @ zia - phi_xy @ c, eye_x, "Phi_xx (zI - A) - Phi_xy C = I"),
            (phi_ux @ zia - phi_uy @ c, TFMatrix.zeros(plant.u_space, plant.x_space),
             "Phi_ux (zI - A) - Phi_uy C = O"),
        ])


@dataclass(frozen=True)
class MixedParam1:
    """Mixed bundle {Phi_yx, Phi_ux, Phi_yy, Phi_uy} (output rows, state/output columns).

    All four blocks stable proper, with

        [I, -G] [[Phi_yx, Phi_yy], [Phi_ux, Phi_uy]] = [C (zI-A)^{-1}, I]
        [[Phi_yx, Phi_yy], [Phi_ux, Phi_uy]] [zI-A; -C] = O.
    """

    phi_yx: TFMatrix
    phi_ux: TFMatrix
    phi_yy: TFMatrix
    phi_uy: TFMatrix

    @classmethod
    def checked(cls, phi_yx, phi_ux, phi_yy, phi_uy, plant: PlantSS, tol: float = DEFAULT_TOL):
        p = _members(cls(phi_yx, phi_ux, phi_yy, phi_uy), tol)
        zia = plant.z_minus_a()
        c = TFMatrix.constant(plant.y_space, plant.x_space, plant.C)
        res = plant.resolvent()
        g = plant.transfer(res @ TFMatrix.constant(plant.x_space, plant.u_space, plant.B))
        return _holds(p, [
            (phi_yx - g @ phi_ux, c @ res, "Phi_yx - G Phi_ux = C (zI-A)^{-1}"),
            (phi_yy - g @ phi_uy, TFMatrix.identity(plant.y_space), "Phi_yy - G Phi_uy = I"),
            (phi_yx @ zia - phi_yy @ c, TFMatrix.zeros(plant.y_space, plant.x_space),
             "Phi_yx (zI-A) - Phi_yy C = O"),
            (phi_ux @ zia - phi_uy @ c, TFMatrix.zeros(plant.u_space, plant.x_space),
             "Phi_ux (zI-A) - Phi_uy C = O"),
        ])


@dataclass(frozen=True)
class MixedParam2:
    """Mixed bundle {Phi_xy, Phi_uy, Phi_xu, Phi_uu} (state/control rows, output/control columns).

    All four blocks stable proper, with

        [zI-A, -B] [[Phi_xy, Phi_xu], [Phi_uy, Phi_uu]] = O
        [[Phi_xy, Phi_xu], [Phi_uy, Phi_uu]] [-G; I] = [(zI-A)^{-1} B; I].
    """

    phi_xy: TFMatrix
    phi_uy: TFMatrix
    phi_xu: TFMatrix
    phi_uu: TFMatrix

    @classmethod
    def checked(cls, phi_xy, phi_uy, phi_xu, phi_uu, plant: PlantSS, tol: float = DEFAULT_TOL):
        p = _members(cls(phi_xy, phi_uy, phi_xu, phi_uu), tol)
        res_b = plant.state_transfer()
        g = plant.transfer(res_b)
        zia = plant.z_minus_a()
        b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
        return _holds(p, [
            (zia @ phi_xy - b @ phi_uy, TFMatrix.zeros(plant.x_space, plant.y_space),
             "(zI-A) Phi_xy - B Phi_uy = O"),
            (zia @ phi_xu - b @ phi_uu, TFMatrix.zeros(plant.x_space, plant.u_space),
             "(zI-A) Phi_xu - B Phi_uu = O"),
            (phi_xu - phi_xy @ g, res_b, "Phi_xu - Phi_xy G = (zI-A)^{-1} B"),
            (phi_uu - phi_uy @ g, TFMatrix.identity(plant.u_space), "Phi_uu - Phi_uy G = I"),
        ])


# ---------------------------------------------------------------------------
# coprime factorization
# ---------------------------------------------------------------------------


def coprime_factorize(plant: PlantSS, F, L, tol: float = DEFAULT_TOL) -> CoprimeFactors:
    """Doubly coprime factorization from stabilizing gains F and L.

    F (m x n) must make A + BF Schur stable and L (n x p) must make A + LC
    Schur stable; both checks are numeric with margin ``tol``.  The eight
    factors are the standard observer/state-feedback construction:

        Mr = I + F Phi B     Nr = (C+DF) Phi B + D   with Phi = (zI-A-BF)^{-1}
        Vr = -F Phi L        Ur = I - (C+DF) Phi L
        Ml = I + C Psi L     Nl = C Psi (B+LD) + D   with Psi = (zI-A-LC)^{-1}
        Vl = -F Psi L        Ul = I - F Psi (B+LD)

    The result is validated exactly (Bezout, plant consistency) and
    numerically (stable-proper memberships) before it is returned.
    """
    F = exact_matrix(F)
    L = exact_matrix(L)
    n, m, p = plant.n, plant.m, plant.p
    if F.shape != (m, n) or L.shape != (n, p):
        raise InvariantViolation("gain shapes must be F: m x n and L: n x p")
    a_bf = plant.A + plant.B @ F
    a_lc = plant.A + L @ plant.C
    if spectral_radius(a_bf) >= 1.0 - tol:
        raise InvariantViolation("F does not stabilize: spectral radius of A + BF is not < 1")
    if spectral_radius(a_lc) >= 1.0 - tol:
        raise InvariantViolation("L does not stabilize: spectral radius of A + LC is not < 1")

    x_sp, u_sp, y_sp = plant.x_space, plant.u_space, plant.y_space
    const = TFMatrix.constant
    phi = _z_minus(a_bf, x_sp).inverse()
    psi = _z_minus(a_lc, x_sp).inverse()
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
    factors.validate(tol)
    return factors


# ---------------------------------------------------------------------------
# conversions to and from the controller
# ---------------------------------------------------------------------------


def _bundle_of_loop(entry: "Parameterization", loop: Realization, plant, tol: float,
                    measured: str | None = None):
    """The entry's blocks of the stabilized loop's S, checked against ``plant``.

    ``measured`` names the measured signal in ``loop`` when it is not the
    entry's own (an IOP bundle of a loop that measures the state).
    """
    s = stabilized_loop(loop, tol, f"{entry.name}_from_controller")
    rename = {entry.signal: measured or entry.signal}
    blocks = [s.S.block(rename.get(r, r), rename.get(c, c)) for r, c in entry.blocks]
    return entry.bundle.checked(*blocks, plant, tol)


def _from_plant_loop(name: str, plant: PlantSS, k: TFMatrix, tol: float):
    """The named bundle of the loop that k closes around the plant's state equation."""
    entry = REGISTRY[name]
    return _bundle_of_loop(entry, _plant_loop(plant, k, entry.signal), plant, tol)


def youla_to_controller(f: CoprimeFactors, q: YoulaParam) -> TFMatrix:
    """K = (Vr - Mr Q) (Ur - Nr Q)^{-1}."""
    return (f.Vr - f.Mr @ q.Q) @ (f.Ur - f.Nr @ q.Q).inverse()


def controller_to_youla(f: CoprimeFactors, k: TFMatrix, tol: float = DEFAULT_TOL) -> YoulaParam:
    """Q = Mr^{-1} (Vr - S_ux Ml^{-1}) from the closed loop's control response.

    The controller must be admissible: its loop with the factored plant has
    to pass the causality/stability conditions.
    """
    g = f.g()
    loop = plant_feedback_loop(g, k)
    s = stabilized_loop(loop, tol, "controller_to_youla")
    out_name = g.rows.names[0]
    s_ux = s.S.block(g.cols.names[0], out_name)
    q = f.Mr.inverse() @ (f.Vr - s_ux @ f.Ml.inverse())
    return YoulaParam.checked(q, tol)


def iop_from_controller(g: TFMatrix, k: TFMatrix, tol: float = DEFAULT_TOL) -> IOPParam:
    """Extract {Y, U, W, Z} as the blocks of (I - R)^{-1} for the (G, K) loop."""
    if not g.classify(tol).all_strictly_proper:
        raise InvariantViolation("IOP extraction requires a strictly proper plant")
    return _bundle_of_loop(REGISTRY["iop"], plant_feedback_loop(g, k), g, tol, g.rows.names[0])


def iop_to_controller(p: IOPParam) -> TFMatrix:
    """K = U Y^{-1}."""
    return p.U @ p.Y.inverse()


def slp_sf_to_controller(p: SLPStateFeedback) -> TFMatrix:
    """K = Phi_u Phi_x^{-1}."""
    return p.phi_u @ p.phi_x.inverse()


def slp_sf_from_controller(plant: PlantSS, k: TFMatrix, tol: float = DEFAULT_TOL) -> SLPStateFeedback:
    """Extract {Phi_x, Phi_u} as the state-disturbance columns of the loop's S."""
    return _from_plant_loop("slp_sf", plant, k, tol)


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


def slp_of_from_controller(plant: PlantSS, k: TFMatrix, tol: float = DEFAULT_TOL) -> SLPOutputFeedback:
    """Extract {Phi_xx, Phi_ux, Phi_xy, Phi_uy} from the output-feedback loop's S."""
    return _from_plant_loop("slp_of", plant, k, tol)


def mixed1_to_controller(p: MixedParam1) -> TFMatrix:
    """K = Phi_uy Phi_yy^{-1}."""
    return p.phi_uy @ p.phi_yy.inverse()


def mixed1_from_controller(plant: PlantSS, k: TFMatrix, tol: float = DEFAULT_TOL) -> MixedParam1:
    """Extract {Phi_yx, Phi_ux, Phi_yy, Phi_uy} from the output-feedback loop's S."""
    return _from_plant_loop("mixed1", plant, k, tol)


def mixed2_to_controller(p: MixedParam2) -> TFMatrix:
    """K = Phi_uu^{-1} Phi_uy."""
    return p.phi_uu.inverse() @ p.phi_uy


def mixed2_from_controller(plant: PlantSS, k: TFMatrix, tol: float = DEFAULT_TOL) -> MixedParam2:
    """Extract {Phi_xy, Phi_uy, Phi_xu, Phi_uu} from the output-feedback loop's S."""
    return _from_plant_loop("mixed2", plant, k, tol)


# ---------------------------------------------------------------------------
# direct maps between parameterizations
# ---------------------------------------------------------------------------


def youla_to_iop(f: CoprimeFactors, q: YoulaParam, tol: float = DEFAULT_TOL) -> IOPParam:
    """Translate a Youla parameter into the input-output bundle:

    [[Y, W], [U, Z]] = [[(Ur-NrQ)Ml, (Ur-NrQ)Nl], [(Vr-MrQ)Ml, I+(Vr-MrQ)Nl]].
    """
    e = f.Ur - f.Nr @ q.Q
    v = f.Vr - f.Mr @ q.Q
    eye_u = TFMatrix.identity(f.Mr.rows)
    return IOPParam.checked(
        Y=e @ f.Ml, W=e @ f.Nl, U=v @ f.Ml, Z=eye_u + v @ f.Nl,
        g=f.g(), tol=tol,
    )


def slp_sf_to_iop(p: SLPStateFeedback, plant: PlantSS, tol: float = DEFAULT_TOL) -> IOPParam:
    """Translate the state-feedback bundle into the input-output bundle.

    The loop over (x, u) is equivalent to the plant/controller loop with
    G = (zI-A)^{-1} B under the disturbance change T = diag(zI-A, I), so

    [[Y, W], [U, Z]] = [[Phi_x (zI-A), Phi_x B], [Phi_u (zI-A), I + Phi_u B]].
    """
    zia = plant.z_minus_a()
    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    eye_u = TFMatrix.identity(plant.u_space)
    return IOPParam.checked(
        Y=p.phi_x @ zia, W=p.phi_x @ b, U=p.phi_u @ zia, Z=eye_u + p.phi_u @ b,
        g=plant.state_transfer(), tol=tol,
    )


def slp_of_to_iop(p: SLPOutputFeedback, plant: PlantSS, tol: float = DEFAULT_TOL) -> IOPParam:
    """Translate the output-feedback bundle into the input-output bundle:

    Y = C Phi_xy + D Phi_uy + I        U = Phi_uy
    Z = Phi_ux B + Phi_uy D + I        W = (C Phi_xx + D Phi_ux) B + Y D.

    Valid for any direct feedthrough D, strictly proper or not.
    """
    c = TFMatrix.constant(plant.y_space, plant.x_space, plant.C)
    d = TFMatrix.constant(plant.y_space, plant.u_space, plant.D)
    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    y = c @ p.phi_xy + d @ p.phi_uy + TFMatrix.identity(plant.y_space)
    z = p.phi_ux @ b + p.phi_uy @ d + TFMatrix.identity(plant.u_space)
    w = (c @ p.phi_xx + d @ p.phi_ux) @ b + y @ d
    return IOPParam.checked(Y=y, U=p.phi_uy, W=w, Z=z, g=plant.transfer(), tol=tol)


# ---------------------------------------------------------------------------
# the registry: one entry per parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameterization:
    """One parameterization as a special case of the realization-stability lemma.

    A bundle is a choice of blocks of S = (I - R)^{-1} for the loop R that a
    controller closes around the plant; ``bundle.checked`` tests the blocks'
    memberships and affine identities.

    ``bundle`` is the dataclass whose fields name the document's blocks;
    ``blocks`` gives the (row, col) block of S behind each field, with the
    measured signal named by ``signal`` ("x" or "y"), and is empty for Youla,
    whose Q is a formula in S and the coprime factors.  ``plant_map`` takes
    the plant and the label of the measured signal to what ``bundle.checked``
    takes after the blocks; it is None when the blocks are checked alone.
    The maps take ``factors`` as a zero-argument loader of the coprime
    factors (or None), called only by a map that reads them.
    """

    name: str
    bundle: type
    signal: str
    blocks: tuple[tuple[str, str], ...]
    #: (plant, factors, k, tol) -> bundle
    from_controller: Callable[..., Any]
    #: (bundle, plant, factors) -> k
    to_controller: Callable[..., TFMatrix]
    plant_map: Callable[[PlantSS, str], Any] | None = lambda plant, label: plant

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.bundle))


def _needed(factors: Callable[[], CoprimeFactors] | None) -> CoprimeFactors:
    if factors is None:
        raise SchemaError("this conversion needs the coprime factors (a coprime_factors document)")
    return factors()


# The entries call the conversions by their module-level names, so that a
# wrapper installed on a module attribute sees every call.
REGISTRY: dict[str, Parameterization] = {p.name: p for p in (
    Parameterization(
        "youla", YoulaParam, "y", (),
        from_controller=lambda plant, f, k, tol: controller_to_youla(_needed(f), k, tol),
        to_controller=lambda q, plant, f: youla_to_controller(_needed(f), q),
        plant_map=None,
    ),
    Parameterization(
        "iop", IOPParam, "y", (("y", "y"), ("u", "y"), ("y", "u"), ("u", "u")),
        from_controller=lambda plant, f, k, tol: iop_from_controller(plant.transfer(), k, tol),
        to_controller=lambda p, plant, f: iop_to_controller(p),
        # G, or (zI - A)^{-1} B for a bundle whose rows measure the state
        plant_map=lambda plant, label: (
            plant.state_transfer() if label == "x" else plant.transfer()),
    ),
    Parameterization(
        "slp_sf", SLPStateFeedback, "x", (("x", "x"), ("u", "x")),
        from_controller=lambda plant, f, k, tol: slp_sf_from_controller(plant, k, tol),
        to_controller=lambda p, plant, f: slp_sf_to_controller(p),
    ),
    Parameterization(
        "slp_of", SLPOutputFeedback, "y", (("x", "x"), ("u", "x"), ("x", "y"), ("u", "y")),
        from_controller=lambda plant, f, k, tol: slp_of_from_controller(plant, k, tol),
        to_controller=lambda p, plant, f: slp_of_to_controller(p, plant.D),
    ),
    Parameterization(
        "mixed1", MixedParam1, "y", (("y", "x"), ("u", "x"), ("y", "y"), ("u", "y")),
        from_controller=lambda plant, f, k, tol: mixed1_from_controller(plant, k, tol),
        to_controller=lambda p, plant, f: mixed1_to_controller(p),
    ),
    Parameterization(
        "mixed2", MixedParam2, "y", (("x", "y"), ("u", "y"), ("x", "u"), ("u", "u")),
        from_controller=lambda plant, f, k, tol: mixed2_from_controller(plant, k, tol),
        to_controller=lambda p, plant, f: mixed2_to_controller(p),
    ),
)}

#: (source, target) -> (bundle, plant, factors, tol) -> bundle, for the pairs
#: that translate without passing through the controller
DIRECT_MAPS: dict[tuple[str, str], Callable[..., Any]] = {
    ("youla", "iop"): lambda q, plant, f, tol: youla_to_iop(_needed(f), q, tol),
    ("slp_sf", "iop"): lambda p, plant, f, tol: slp_sf_to_iop(p, plant, tol),
    ("slp_of", "iop"): lambda p, plant, f, tol: slp_of_to_iop(p, plant, tol),
}


def _state_equals_output(plant: PlantSS) -> bool:
    if plant.p != plant.n or not plant.is_strictly_proper:
        return False
    return all(
        plant.C[i, j] == (1 if i == j else 0) for i in range(plant.n) for j in range(plant.n)
    )


def controller_with_output(k: TFMatrix, plant: PlantSS, name: str) -> TFMatrix:
    """Relabel a controller between x- and y-measured loops.

    Legitimate only when the state is taken as the measurement
    (C = I, D = 0), which is also the premise under which state- and
    output-feedback parameterizations can be compared at all.
    """
    if k.cols.names[0] == name:
        return k
    if not _state_equals_output(plant):
        raise InvariantViolation(
            "conversion between state- and output-measured parameterizations "
            "requires C = I and D = 0"
        )
    return k.relabel(SignalSpace.single("u", plant.m), SignalSpace.single(name, plant.p))
