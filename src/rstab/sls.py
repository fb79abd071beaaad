"""State-feedback system level synthesis: realizations, certification,
FIR H2 synthesis, and time-domain cross-checks.

Three ways to realize the closed loop of a state-feedback controller given
its FIR response pair {Phi_x, Phi_u} are supported, all over the signal
space (x, u, delta):

* ``original_sls``   u = z Phi_u delta,  delta = x + (I - z Phi_x) delta.
  Avoids inverting Phi_x by introducing the reconstructed disturbance delta.
* ``deployment``     delta = (I - z^{-1} A) x - z^{-1} B u,  u = z Phi_u delta.
  Replaces one convolution by two matrix multiplications; internally stable
  when A is Schur stable.
* ``design_separation``  u = z M_c delta,  delta = x + (I - z P_c) delta
  for a (P_c, M_c) pair that realizes the same controller; stability is not
  automatic and is certified a posteriori.

``VARIANT_PARTS`` declares each variant's FIR parts; the CLI and the
fir_bundle reader take them from there.

``certify_realization`` inverts I - R exactly and checks every block for
stable properness.  ``simulate`` runs the same R as a time-domain recursion
in floating point, and ``impulse_match`` compares its impulse responses
against the exact Markov parameters of the closed-form stability matrix,
catching any disagreement between the deployed recursion and the response
pair it claims to realize.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleError,
    InvariantViolation,
    SingularMatrixError,
    SpaceMismatchError,
)
from .parameterizations import PlantSS, SLPStateFeedback, _closed_loop, _z_minus, exact_matrix
from .ratfun import Poly, RatFun
from .realization import (
    BlockFinding,
    Realization,
    StabilityMatrix,
    check_conditions,
    stability_from_realization,
)
from .tfmatrix import SignalSpace, TFMatrix

ORIGINAL = "original_sls"
DEPLOYMENT = "deployment"
DESIGN_SEPARATION = "design_separation"
#: each variant's FIR parts in wiring order: the response pair, then any
#: parts wired in its place; the last two are the (P, M) of
#: delta = x + (I - z P) delta and u = z M delta
VARIANT_PARTS: dict[str, tuple[str, ...]] = {
    ORIGINAL: ("phi_x", "phi_u"),
    DEPLOYMENT: ("phi_x", "phi_u"),
    DESIGN_SEPARATION: ("phi_x", "phi_u", "p_c", "m_c"),
}
VARIANT_KINDS = tuple(VARIANT_PARTS)
#: every part that a fir_bundle may carry, in document order
FIR_PARTS = tuple(dict.fromkeys(name for parts in VARIANT_PARTS.values() for name in parts))


def part_shape(name: str, n: int, m: int) -> tuple[int, int]:
    """The shape of a part's taps, for n states and m inputs: the control
    parts are m x n, the others n x n."""
    return (m, n) if name in ("phi_u", "m_c") else (n, n)


@dataclass(frozen=True, eq=False)
class FIRPhi:
    """Finite impulse response: taps for z^{-1} .. z^{-T}, each lifted exactly
    (``exact_matrix``) to a 2-D object array of Fractions."""

    taps: tuple[np.ndarray, ...]

    def __post_init__(self):
        taps = tuple(exact_matrix(np.atleast_2d(np.asarray(t, dtype=object))) for t in self.taps)
        if not taps:
            raise InvariantViolation("an FIR response needs at least one tap")
        shape = taps[0].shape
        if any(t.shape != shape for t in taps):
            raise InvariantViolation("all FIR taps must share one shape")
        object.__setattr__(self, "taps", taps)

    @property
    def horizon(self) -> int:
        return len(self.taps)

    @property
    def shape(self) -> tuple[int, int]:
        return self.taps[0].shape


def fir_to_tfmatrix(f: FIRPhi, rows: SignalSpace, cols: SignalSpace) -> TFMatrix:
    """Entry (i, j) = sum_k taps[k][i, j] z^{-k}, over the given spaces."""
    nr, nc = f.shape
    if rows.total != nr or cols.total != nc:
        raise SpaceMismatchError("FIR tap shape does not match the requested spaces")
    den = Poly.z(f.horizon)
    return TFMatrix(rows, cols, [[RatFun(Poly([t[i, j] for t in reversed(f.taps)]), den)
                                  for j in range(nc)] for i in range(nr)])


def _fir_horizon(m: TFMatrix, horizon: int | None = None) -> int:
    """The number of taps of a strictly proper FIR transfer matrix: its
    longest lag (at least 1), or ``horizon`` when given and long enough.

    Every entry must have a pure z-power denominator; otherwise the matrix
    has infinite impulse response and this refuses.
    """
    worst = 0
    for row in m.entries:
        for e in row:
            q = e.den.degree
            if e.den != Poly.z(q):  # den is monic
                raise InvariantViolation("matrix entry is not FIR (denominator is not z^k)")
            if not e.is_zero and e.num.degree >= q:
                raise InvariantViolation("matrix entry is not strictly proper")
            worst = max(worst, q)
    t = max(worst, 1) if horizon is None else horizon
    if t < max(worst, 1):
        raise InvariantViolation(f"horizon {t} cannot hold taps up to lag {worst}")
    return t


def fir_from_tfmatrix(m: TFMatrix, horizon: int | None = None) -> FIRPhi:
    """Extract the exact taps of a strictly proper FIR transfer matrix,
    refusing one that is not FIR (``_fir_horizon``)."""
    t = _fir_horizon(m, horizon)
    nr, nc = m.shape
    taps = [np.zeros((nr, nc), dtype=object) for _ in range(t)]
    for i in range(nr):
        for j in range(nc):
            e = m.entries[i][j]
            q = e.den.degree
            for k in range(1, q + 1):
                taps[k - 1][i, j] = e.num[q - k]
    return FIRPhi(tuple(taps))


def slp_from_fir(plant: PlantSS, phi_x: FIRPhi, phi_u: FIRPhi) -> SLPStateFeedback:
    """Validate an FIR pair as a state-feedback bundle."""
    px = fir_to_tfmatrix(phi_x, plant.x_space, plant.x_space)
    pu = fir_to_tfmatrix(phi_u, plant.u_space, plant.x_space)
    return SLPStateFeedback.checked(px, pu, plant)


def fir_from_slp(p: SLPStateFeedback, horizon: int | None = None) -> tuple[FIRPhi, FIRPhi]:
    return fir_from_tfmatrix(p.phi_x, horizon), fir_from_tfmatrix(p.phi_u, horizon)


@dataclass(frozen=True, eq=False)
class RealizationVariant:
    """One of the three closed-loop realizations with the FIR parts that
    ``VARIANT_PARTS`` declares for its kind."""

    kind: str
    phi_x: FIRPhi
    phi_u: FIRPhi
    p_c: FIRPhi | None = None
    m_c: FIRPhi | None = None

    def __post_init__(self):
        parts = VARIANT_PARTS.get(self.kind)
        if parts is None:
            raise InvariantViolation(f"unknown realization variant {self.kind!r}")
        n, m = self.phi_x.shape[0], self.phi_u.shape[0]
        for name in FIR_PARTS:
            taps, shape = getattr(self, name), part_shape(name, n, m)
            if (taps is None) == (name in parts):
                raise InvariantViolation(f"variant {self.kind!r} takes the parts {', '.join(parts)}")
            if taps is not None and taps.shape != shape:
                raise InvariantViolation(f"every {name} tap must be {shape[0]} x {shape[1]}")

    @classmethod
    def original(cls, phi_x: FIRPhi, phi_u: FIRPhi) -> "RealizationVariant":
        return cls(ORIGINAL, phi_x, phi_u)

    @classmethod
    def deployment(cls, phi_x: FIRPhi, phi_u: FIRPhi) -> "RealizationVariant":
        return cls(DEPLOYMENT, phi_x, phi_u)

    @classmethod
    def design_separation(cls, p_c: FIRPhi, m_c: FIRPhi, phi_x: FIRPhi, phi_u: FIRPhi) -> "RealizationVariant":
        return cls(DESIGN_SEPARATION, phi_x, phi_u, p_c=p_c, m_c=m_c)

    def controller_taps(self) -> tuple[FIRPhi, FIRPhi]:
        """The (state-shaping, control) taps actually wired into the loop."""
        p, m = VARIANT_PARTS[self.kind][-2:]
        return getattr(self, p), getattr(self, m)


def _loop_space(v: RealizationVariant, plant: PlantSS) -> SignalSpace:
    """The (x, u, delta) space of the variant's loop around ``plant``.

    Every routine that wires a payload to a plant passes through here, so a
    payload whose tap shapes do not fit the plant is refused in one place.
    """
    n, m = plant.n, plant.m
    if v.phi_x.shape != (n, n) or v.phi_u.shape != (m, n):
        raise SpaceMismatchError("payload dimensions do not match the plant")
    return SignalSpace((("x", n), ("u", m), ("delta", n)))


def build_realization(v: RealizationVariant, plant: PlantSS) -> Realization:
    """Assemble the realization matrix of the chosen variant over (x, u, delta):
    the plant's x row, the controller u = z M delta with M = Phi_u or M_c,
    and the variant's delta row."""
    _loop_space(v, plant)
    x_sp, u_sp = plant.x_space, plant.u_space
    d_sp = SignalSpace.single("delta", plant.n)
    z, zinv = RatFun.z(), RatFun.z_inv()
    p_taps, m_taps = v.controller_taps()
    eye = TFMatrix.identity(x_sp).relabel(d_sp, x_sp)
    if v.kind == DEPLOYMENT:
        # delta row: [z^{-1}(zI - A), -z^{-1} B, O]
        delta_row = {("delta", "x"): eye - zinv * TFMatrix.constant(d_sp, x_sp, plant.A),
                     ("delta", "u"): -(zinv * TFMatrix.constant(d_sp, u_sp, plant.B))}
    else:
        # delta row: [I, O, I - z Phi] with Phi = Phi_x or P_c
        phi = fir_to_tfmatrix(p_taps, d_sp, d_sp)
        delta_row = {("delta", "x"): eye, ("delta", "delta"): TFMatrix.identity(d_sp) - z * phi}
    return _closed_loop(plant, z * fir_to_tfmatrix(m_taps, u_sp, d_sp), "delta", delta_row)


def closed_form_stability(v: RealizationVariant, plant: PlantSS) -> TFMatrix:
    """The stability matrix each variant is designed to achieve, in closed form.

    Valid when the payload satisfies (zI - A) Phi_x - B Phi_u = I (and, for
    design separation, the fixed-point constraint relating (P_c, M_c) to the
    response pair); under those conditions it coincides with (I - R)^{-1}.
    ``impulse_match`` deliberately compares simulations against this matrix
    rather than the recomputed inverse, so payload corruption is detected
    instead of silently re-certified.
    """
    space = _loop_space(v, plant)
    x_sp, u_sp = plant.x_space, plant.u_space
    d_sp = SignalSpace.single("delta", plant.n)
    z, zinv = RatFun.z(), RatFun.z_inv()
    phi_x = fir_to_tfmatrix(v.phi_x, x_sp, x_sp)
    phi_u = fir_to_tfmatrix(v.phi_u, u_sp, x_sp)
    b = TFMatrix.constant(x_sp, u_sp, plant.B)
    zia = plant.z_minus_a()
    eye_x, eye_u = TFMatrix.identity(x_sp), TFMatrix.identity(u_sp)
    if v.kind == DEPLOYMENT:
        res_b = plant.resolvent() @ b  # (zI - A)^{-1} B
        blocks = {
            ("x", "x"): phi_x,
            ("x", "u"): res_b,
            ("x", "delta"): (z * (res_b @ phi_u)).relabel(x_sp, d_sp),
            ("u", "x"): phi_u,
            ("u", "u"): eye_u,
            ("u", "delta"): (z * phi_u).relabel(u_sp, d_sp),
            ("delta", "x"): (zinv * eye_x).relabel(d_sp, x_sp),
            ("delta", "delta"): TFMatrix.identity(d_sp),
        }
        return TFMatrix.from_blocks(space, space, blocks)
    if v.kind == DESIGN_SEPARATION:
        p_c = fir_to_tfmatrix(v.p_c, x_sp, x_sp)
        m_c = fir_to_tfmatrix(v.m_c, u_sp, x_sp)
        delta_c = zia @ p_c - b @ m_c
        s_dx = zinv * delta_c.inverse()
    else:
        s_dx = zinv * eye_x
    blocks = {
        ("x", "x"): phi_x,
        ("x", "u"): phi_x @ b,
        ("x", "delta"): (phi_x @ zia - eye_x).relabel(x_sp, d_sp),
        ("u", "x"): phi_u,
        ("u", "u"): eye_u + phi_u @ b,
        ("u", "delta"): (phi_u @ zia).relabel(u_sp, d_sp),
        ("delta", "x"): s_dx.relabel(d_sp, x_sp),
        ("delta", "u"): (s_dx @ b).relabel(d_sp, u_sp),
        ("delta", "delta"): (s_dx @ zia).relabel(d_sp, d_sp),
    }
    return TFMatrix.from_blocks(space, space, blocks)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the a-posteriori stability certification of a variant.

    ``passed`` reflects the direct check: every block of (I - R)^{-1} is
    stable proper.  ``schur_stable`` is reported for the deployment variant
    (its stability premise), and ``delta_column_strictly_proper`` reports
    the sufficient condition S[delta, x] strictly proper and stable for the
    design-separation variant; both are informational and kept separate
    from the direct outcome.
    """

    variant: str
    passed: bool
    findings: tuple[BlockFinding, ...]
    schur_stable: bool | None
    delta_column_strictly_proper: bool | None
    realization: Realization
    stability: StabilityMatrix


def certify_realization(v: RealizationVariant, plant: PlantSS) -> CertificationReport:
    """Build the variant, invert I - R exactly, and test every block."""
    r = build_realization(v, plant)
    s = stability_from_realization(r)
    report = check_conditions(r, s)
    schur = plant.resolvent().classify().in_rh_inf if v.kind == DEPLOYMENT else None
    delta_ok = None
    if v.kind == DESIGN_SEPARATION:
        # S[delta, x] is stable proper unless check_conditions reports it
        delta_ok = (not any((f.matrix, f.row, f.col) == ("S", "delta", "x") for f in report.findings)
                    and s.S.block("delta", "x").is_strictly_proper)
    return CertificationReport(
        variant=v.kind,
        passed=report.passed,
        findings=report.findings,
        schur_stable=schur,
        delta_column_strictly_proper=delta_ok,
        realization=r,
        stability=s,
    )


def design_separation_constraint(
    p_c: TFMatrix, m_c: TFMatrix, p: SLPStateFeedback, plant: PlantSS
) -> bool:
    """Fixed-point test for a (P_c, M_c) pair against a response pair:

        [Phi_x; Phi_u] ((zI - A) P_c - B M_c) = [P_c; M_c]

    holds exactly iff the design-separation realization built from
    (P_c, M_c) reproduces {Phi_x, Phi_u}.  Both I - z P_c and z M_c must be
    proper for the realization to make sense, i.e. P_c and M_c strictly
    proper.
    """
    for name, mtx in (("P_c", p_c), ("M_c", m_c)):
        if not mtx.is_strictly_proper:
            raise InvariantViolation(
                f"{name} must be strictly proper so that the realization stays causal"
            )
    b = TFMatrix.constant(plant.x_space, plant.u_space, plant.B)
    delta_c = plant.z_minus_a() @ p_c - b @ m_c
    return p.phi_x @ delta_c == p_c and p.phi_u @ delta_c == m_c


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _solve_exact(
    m: list[list[Fraction]], rhs: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Solve M x = rhs exactly by Gauss-Jordan with partial pivoting.

    Returns one solution (free variables set to zero) for each right-hand
    side column; raises InfeasibleError when the system is inconsistent.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    nrhs = len(rhs[0]) if rhs else 0
    aug = [list(m[i]) + list(rhs[i]) for i in range(nrows)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        best, best_mag = -1, None
        for i in range(r, nrows):
            v = aug[i][c]
            if v:
                mag = abs(v)
                if best_mag is None or mag > best_mag:
                    best, best_mag = i, mag
        if best < 0:
            continue
        aug[r], aug[best] = aug[best], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                row_r = aug[r]
                aug[i] = [v - f * w for v, w in zip(aug[i], row_r)]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if any(aug[i][ncols + j] for j in range(nrhs)):
            raise InfeasibleError("linear constraints are inconsistent")
    x = [[Fraction(0)] * nrhs for _ in range(ncols)]
    for row, col in pivots:
        x[col] = aug[row][ncols:]
    return x


def _psd_rank(w: np.ndarray) -> int | None:
    """The rank of an exact symmetric positive semidefinite matrix, or None
    when the matrix is not one.

    Symmetric elimination: every Schur complement of a PSD matrix is PSD, so
    no pivot may be negative, a zero pivot must head a zero row, and the rank
    is the number of positive pivots.
    """
    if not (w == w.T).all():
        return None
    s = w.copy()
    rank = 0
    for k in range(len(s)):
        pivot, row = s[k, k], s[k, k + 1:]
        if pivot < 0 or (pivot == 0 and any(row)):
            return None
        if pivot > 0:
            s[k + 1:, k + 1:] -= np.outer(row, row) / pivot
            rank += 1
    return rank


def _staged_taps(a, b, qw, rw, T: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(Phi_x taps, Phi_u taps) by an exact Riccati recursion; Rw must be
    positive definite.

    The terminal constraint enters the Lagrangian as 2 nu' x_{T+1}, so the
    cost-to-go from stage t is x' P_t x + 2 x' Gamma_t nu + nu' W_t nu with
    P_{T+1} = 0, Gamma_{T+1} = I and W_{T+1} = 0 (Bryson and Ho, "Applied
    Optimal Control", Sec. 5.3).  Going backward, each stage solves one
    m-square system S_t = Rw + B' P B for the control u_t = -K_t x_t - L_t nu:

        K_t = S_t^{-1} B' P A,     L_t = S_t^{-1} B' Gamma,
        P <- Qw + A' P (A - B K_t),
        W <- W - Gamma' B L_t,     Gamma <- (A - B K_t)' Gamma.

    The terminal state is Gamma_1' x_1 + W_1 nu, so one n-square system
    W_1 nu = -Gamma_1' gives the multipliers of all n columns (x_1 = I); an
    inconsistent one raises InfeasibleError.  A forward pass from Phi_x[1] = I
    then runs the stage controls through the plant.
    """
    n = len(a)
    p = exact_matrix(np.zeros((n, n), dtype=int))
    gamma = exact_matrix(np.eye(n, dtype=int))
    w = exact_matrix(np.zeros((n, n), dtype=int))
    gains = []
    for _ in range(T):
        btp, btg = b.T @ p, b.T @ gamma
        s = rw + btp @ b
        sol = np.array(_solve_exact(s.tolist(), np.hstack((btp @ a, btg)).tolist()), dtype=object)
        k, l = sol[:, :n], sol[:, n:]
        closed = a - b @ k
        p = qw + a.T @ p @ closed
        w = w - btg.T @ l
        gamma = closed.T @ gamma
        gains.append((k, l))
    nu = np.array(_solve_exact(w.tolist(), (-gamma.T).tolist()), dtype=object)
    x_taps, u_taps = [exact_matrix(np.eye(n, dtype=int))], []
    for k, l in reversed(gains):
        u_taps.append(-(k @ x_taps[-1]) - l @ nu)
        x_taps.append(a @ x_taps[-1] + b @ u_taps[-1])
    return x_taps[:-1], u_taps


def _condensed_taps(a, b, qw, rw, T: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(Phi_x taps, Phi_u taps) from one KKT system posed on the Phi_u taps.

    The recursion fixes Phi_x once Phi_u is known, so the decision variables
    are the Phi_u taps alone (the condensed form of the FIR problem).  With
    u_i = Phi_u[i+1] and W_d = sum_{s<d} (A^s)' Qw A^s the cost is
    sum_{i,j} u_i' H[i][j] u_j + 2 g_i' u_i + const, where for i <= j

        H[i][j] = B' (A^{j-i})' W_{T-1-j} B  (+ Rw when i = j),
        H[j][i] = B' W_{T-1-j} A^{j-i} B,
        g_i     = B' W_{T-1-i} A^{i+1},

    and the only constraint left is the terminal one,
    A^T + sum_i A^{T-1-i} B u_i = 0 (n rows).  The (mT + n)-square system is
    solved once for all n columns, free variables set to zero, so it serves
    a singular Rw, where the minimizer need not be unique.  An inconsistent
    system raises InfeasibleError.
    """
    n, m = b.shape
    powers = [exact_matrix(np.eye(n, dtype=int))]  # A^0 .. A^T
    for _ in range(T):
        powers.append(a @ powers[-1])
    w = [exact_matrix(np.zeros((n, n), dtype=int))]  # W_0 .. W_{T-1}
    for s in range(T - 1):
        w.append(w[-1] + powers[s].T @ qw @ powers[s])
    nv = m * T
    kkt = exact_matrix(np.zeros((nv + n, nv + n), dtype=int))
    rhs = exact_matrix(np.zeros((nv + n, n), dtype=int))
    for j in range(T):
        jj = slice(j * m, (j + 1) * m)
        wb, bw = w[T - 1 - j] @ b, b.T @ w[T - 1 - j]
        for i in range(j + 1):
            ii = slice(i * m, (i + 1) * m)
            ab = powers[j - i] @ b
            kkt[ii, jj] = ab.T @ wb
            kkt[jj, ii] = bw @ ab
        kkt[jj, jj] += rw
        kkt[nv:, jj] = powers[T - 1 - j] @ b
        kkt[jj, nv:] = kkt[nv:, jj].T
        rhs[jj] = -(bw @ powers[j + 1])
    rhs[nv:] = -powers[T]
    sol = np.array(_solve_exact(kkt.tolist(), rhs.tolist()), dtype=object)
    u_taps = [sol[k * m:(k + 1) * m] for k in range(T)]
    x_taps = [powers[0]]
    for k in range(T - 1):
        x_taps.append(a @ x_taps[-1] + b @ u_taps[k])
    return x_taps, u_taps


def synthesize_sf_h2(plant: PlantSS, Qw, Rw, T: int) -> SLPStateFeedback:
    """FIR H2 state-feedback synthesis at horizon T.

    Minimizes sum_k ||Qw^{1/2} Phi_x[k]||_F^2 + ||Rw^{1/2} Phi_u[k]||_F^2
    over the FIR instances of (zI - A) Phi_x - B Phi_u = I:

        Phi_x[1] = I,
        Phi_x[k+1] = A Phi_x[k] + B Phi_u[k]   (k < T),
        A Phi_x[T] + B Phi_u[T] = 0.

    Column j of the taps is finite-horizon LQR from x_1 = e_j with the
    terminal constraint x_{T+1} = 0 (Anderson, Doyle, Low and Matni, "System
    level synthesis", 2019, Sec. 5), solved exactly over the rationals for
    all n columns at once.  When Rw is positive definite the minimizer is
    unique, and an exact backward Riccati recursion with a multiplier for the
    terminal constraint, then one forward pass, finds it stage by stage
    (``_staged_taps``).  A singular Rw leaves the last stage without a unique
    control; then one (mT + n)-square KKT system on the Phi_u taps is solved
    instead, free variables set to zero (``_condensed_taps``).  Either way
    Phi_x follows the recursion, making the affine identity of the returned
    bundle exact, not merely small.  Infeasible horizons (e.g. unstabilizable
    pairs) raise InfeasibleError.  Qw and Rw must be exactly symmetric
    positive semidefinite, or the KKT point minimizes nothing; any other
    weight raises InvariantViolation.
    """
    if T < 1:
        raise InvariantViolation("horizon must be at least 1")
    n, m = plant.n, plant.m
    qw = exact_matrix(Qw)
    rw = exact_matrix(Rw)
    if qw.shape != (n, n) or rw.shape != (m, m):
        raise InvariantViolation("weight shapes must be Qw: n x n and Rw: m x m")
    ranks = {"Qw": _psd_rank(qw), "Rw": _psd_rank(rw)}
    for name, rank in ranks.items():
        if rank is None:
            raise InvariantViolation(f"{name} must be symmetric positive semidefinite")
    taps = _staged_taps if ranks["Rw"] == m else _condensed_taps
    try:
        x_taps, u_taps = taps(plant.A, plant.B, qw, rw, T)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"no FIR response pair exists at horizon {T} for this plant"
        ) from exc
    return slp_from_fir(plant, FIRPhi(tuple(x_taps)), FIRPhi(tuple(u_taps)))


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array, refusing an entry beyond the float range."""
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise InvariantViolation(f"{what} has an entry that does not fit a float") from exc


#: the Riccati iteration stops once successive iterates agree within
#: DARE_TOL, and gives up after DARE_MAX_ITER steps
DARE_TOL = 1e-12
DARE_MAX_ITER = 10_000


def dare_lqr(plant: PlantSS, Qw, Rw) -> np.ndarray:
    """LQR gain by fixed-point iteration of the discrete Riccati recursion.

    Iterates P <- Qw + A'PA - A'PB (Rw + B'PB)^{-1} B'PA until successive
    iterates agree within ``DARE_TOL`` and returns K with u = K x and A + BK
    Schur stable: (zI - A - BK)^{-1}, with the float A + BK lifted exactly,
    lies in RH-infinity.  A gain that fails this, divergence (growth past
    1e14) or exhaustion of ``DARE_MAX_ITER`` steps raises ConvergenceError.
    """
    a = _floats(plant.A, "the Riccati iteration's A")
    b = _floats(plant.B, "the Riccati iteration's B")
    qw = np.atleast_2d(_floats(Qw, "Qw"))
    rw = np.atleast_2d(_floats(Rw, "Rw"))
    p = qw.copy()
    for _ in range(DARE_MAX_ITER):
        btpb = rw + b.T @ p @ b
        k = -np.linalg.solve(btpb, b.T @ p @ a)
        p_next = qw + a.T @ p @ a + a.T @ p @ b @ k
        p_next = (p_next + p_next.T) / 2.0
        if not np.isfinite(p_next).all() or np.abs(p_next).max() > 1e14:
            raise ConvergenceError("Riccati iteration diverged")
        if np.abs(p_next - p).max() < DARE_TOL:
            p = p_next
            gain = -np.linalg.solve(rw + b.T @ p @ b, b.T @ p @ a)
            closed = _z_minus(exact_matrix(a + b @ gain), plant.x_space).inverse()
            if not closed.classify().in_rh_inf:
                raise ConvergenceError("Riccati iteration converged to a non-stabilizing gain")
            return gain
        p = p_next
    raise ConvergenceError(f"Riccati iteration did not converge in {DARE_MAX_ITER} steps")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Time-domain signals (one row per step, t = 0..horizon) per name."""

    horizon: int
    signals: dict[str, np.ndarray]
    disturbance: dict[str, np.ndarray]


def _schedule(d: Mapping[str, Sequence] | None, name: str, horizon: int, dim: int) -> np.ndarray:
    out = np.zeros((horizon + 1, dim))
    if d and name in d:
        arr = np.atleast_2d(_floats(d[name], f"disturbance {name!r}"))
        if arr.shape[1] != dim:
            raise SpaceMismatchError(f"disturbance {name!r} must have {dim} columns")
        steps = min(arr.shape[0], horizon + 1)
        out[:steps] = arr[:steps]
    return out


def _respond(r: Realization, d: np.ndarray) -> np.ndarray:
    """Run eta = R eta + d from zero initial conditions; ``d`` and the result
    are (steps, signals, experiments) arrays.

    Row i of I - R times z^{-s_i}, with s_i the highest power of z in row i
    of R or 0 if lower (1 on the x rows, where (I - R)[x, x] = zI - A), is a
    polynomial sum_k C[k] z^{-k}, as R holds only FIR taps and constants.
    Its exact coefficients, cast to float once, give C[0] eta[t] =
    d[t - s_i] - sum_{k>=1} C[k] eta[t - k].  A singular C[0] (for the FIR
    variants, a singular wired P[1]) raises SingularMatrixError, and a
    response that leaves the float range raises InvariantViolation.
    """
    rows = r.R.entries
    size = len(rows)
    shifts = [max([0] + [e.num.degree - e.den.degree for e in row if e]) for row in rows]
    lags = max(e.den.degree + s for row, s in zip(rows, shifts) for e in row)
    coeffs = np.zeros((lags + 1, size, size), dtype=object)
    for i, (row, s) in enumerate(zip(rows, shifts)):
        coeffs[s, i, i] = 1
        for j, e in enumerate(row):
            top = e.den.degree + s
            for k in range(top + 1):
                coeffs[k, i, j] -= e.num[top - k]
    coeffs = _floats(coeffs, "the loop's realization matrix R")
    try:
        lead = np.linalg.inv(coeffs[0])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("the loop's instantaneous map C[0] is singular "
                                  "(for the FIR variants: the leading wired tap P[1])") from exc
    # [C[lags] .. C[1]] side by side, against the stacked history eta[t-lags .. t-1]
    past = coeffs[:0:-1].transpose(1, 0, 2).reshape(size, lags * size)
    steps = d.shape[0]
    rhs = np.zeros(d.shape)
    for i, s in enumerate(shifts):
        rhs[s:, i] = d[:steps - s, i]
    eta = np.zeros((lags + steps,) + d.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            history = eta[t:t + lags].reshape(lags * size, -1)
            eta[lags + t] = lead @ (rhs[t] - past @ history)
    if not np.isfinite(eta).all():
        raise InvariantViolation("the loop's response overflows the float range")
    return eta[lags:]


def simulate(
    v: RealizationVariant,
    plant: PlantSS,
    d: Mapping[str, Sequence] | None,
    horizon: int,
) -> SimTrace:
    """Run the loop eta = R eta + d of ``build_realization`` from zero
    initial conditions, the same R that ``certify_realization`` inverts.

    Every signal's row receives its own additive disturbance channel; a
    disturbance hitting the state equation at time t shows up in x at time
    t+1 (the state map is strictly proper), while delta- and u-channel
    disturbances act instantaneously.
    """
    if horizon < 0:
        raise InvariantViolation("horizon must be nonnegative")
    space = _loop_space(v, plant)
    for name in d or ():
        if name not in space.names:
            raise SpaceMismatchError(f"unknown disturbance channel {name!r}; expected x, u or delta")
    stacked = np.concatenate([_schedule(d, name, horizon, dim) for name, dim in space], axis=1)
    eta = _respond(build_realization(v, plant), stacked[:, :, None])[:, :, 0]
    parts = [(name, space.index_range(name)) for name in space.names]
    return SimTrace(horizon, {n: eta[:, r] for n, r in parts}, {n: stacked[:, r] for n, r in parts})


@dataclass(frozen=True)
class ImpulseMatchReport:
    """Worst deviation between simulated and exact impulse responses."""

    passed: bool
    tolerance: float
    horizon: int
    max_deviation: float
    worst_signal: str | None
    worst_channel: str | None
    worst_lag: int | None


def impulse_match(
    v: RealizationVariant, plant: PlantSS, horizon: int, tol: float = 1e-9
) -> ImpulseMatchReport:
    """Cross-check the recursion of ``build_realization`` against exact
    Markov parameters.

    A unit impulse at t = 0 on each disturbance channel (all in one run) is
    compared, lag by lag, against the series expansion of the closed-form
    stability matrix.  A payload whose recursion does not realize its claimed
    response pair (for example a corrupted tap) shows up as a deviation at
    the first inconsistent lag.  The worst location is the first maximum by
    channel, signal, then lag, and None when nothing deviates.
    """
    if horizon < 0:
        raise InvariantViolation("horizon must be nonnegative")
    s_ref = closed_form_stability(v, plant)
    space = s_ref.rows
    size = space.total
    # (channel, signal, lag), like the deviations below
    want = _floats([[s_ref.entries[i][j].series(horizon) for i in range(size)]
                    for j in range(size)], "a Markov parameter of the closed-form stability matrix")
    impulse = np.zeros((horizon + 1, size, size))
    impulse[0] = np.eye(size)
    got = _respond(build_realization(v, plant), impulse).transpose(2, 1, 0)
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf
        dev = np.abs(got - want)
    max_dev = float(dev.max())
    worst: tuple[str | None, str | None, int | None] = (None, None, None)
    if max_dev > 0:
        names = [name for name, dim in space for _ in range(dim)]
        col, row, lag = np.unravel_index(np.argmax(dev), dev.shape)
        worst = (names[row], names[col], int(lag))
    return ImpulseMatchReport(
        passed=max_dev <= tol,
        tolerance=tol,
        horizon=horizon,
        max_deviation=max_dev,
        worst_signal=worst[0],
        worst_channel=worst[1],
        worst_lag=worst[2],
    )
