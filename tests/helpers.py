"""Shared fixture generators and independent oracles for the test suite.

The oracles here are deliberately naive (cofactor-expansion inverses,
brute-force convolution) so they share no code path with the library
routines they check.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from rstab import (
    FIRPhi,
    IOPParam,
    MixedParam1,
    MixedParam2,
    PlantSS,
    Poly,
    RatFun,
    Realization,
    SignalSpace,
    SLPOutputFeedback,
    SLPStateFeedback,
    TFMatrix,
    stability_from_realization,
)
from rstab.errors import SingularMatrixError


def rand_fraction(rng: random.Random, span: int = 2, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_poly(rng: random.Random, max_deg: int = 3, span: int = 2) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly([rand_fraction(rng, span) for _ in range(deg + 1)])


def rand_ratfun(rng: random.Random, max_deg: int = 3) -> RatFun:
    num = rand_poly(rng, max_deg)
    deg = rng.randint(0, max_deg)
    # monic-leading denominator guarantees nonzero
    den = Poly([rand_fraction(rng) for _ in range(deg)] + [Fraction(1)])
    return RatFun(num, den)


def rand_tfmatrix(rng: random.Random, rows: SignalSpace, cols: SignalSpace, max_deg: int = 3) -> TFMatrix:
    return TFMatrix(
        rows, cols,
        [[rand_ratfun(rng, max_deg) for _ in range(cols.total)] for _ in range(rows.total)],
    )


def rand_space(rng: random.Random, min_blocks: int = 2, max_blocks: int = 4) -> SignalSpace:
    k = rng.randint(min_blocks, max_blocks)
    return SignalSpace(tuple((f"s{i}", 1) for i in range(k)))


def rand_realization(rng: random.Random, max_deg: int = 3) -> Realization:
    """Random realization with invertible I - R (resampled until invertible)."""
    return _rand_realization(rng, max_deg, zero_diag=False)[0]


def rand_realization_with_zero_diag(rng: random.Random, max_deg: int = 3) -> tuple[Realization, str]:
    """Random invertible realization plus the name of a zeroed diagonal block."""
    return _rand_realization(rng, max_deg, zero_diag=True)


def _rand_realization(rng: random.Random, max_deg: int, zero_diag: bool) -> tuple[Realization, str]:
    space = rand_space(rng)
    while True:
        ent = [
            [rand_ratfun(rng, max_deg) for _ in range(space.total)]
            for _ in range(space.total)
        ]
        target = rng.choice(space.names)
        zeros = frozenset()
        if zero_diag:
            i = space.offset(target)  # all fixture blocks are one-dimensional
            ent[i][i] = RatFun.zero()
            zeros = frozenset({(target, target)})
        real = Realization(space, TFMatrix(space, space, ent), zeros)
        try:
            stability_from_realization(real)
        except SingularMatrixError:
            continue
        return real, target


# -- independent linear-algebra oracle ----------------------------------------


def det_cofactor(ent: list[list[RatFun]]) -> RatFun:
    n = len(ent)
    if n == 1:
        return ent[0][0]
    total = RatFun.zero()
    for j in range(n):
        if ent[0][j].is_zero:
            continue
        minor = [[ent[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = ent[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate_inverse(m: TFMatrix) -> TFMatrix:
    """Cofactor-expansion inverse; independent of the elimination routine."""
    n = m.rows.total
    ent = [list(row) for row in m.entries]
    d = det_cofactor(ent)
    if d.is_zero:
        raise SingularMatrixError("oracle: determinant is zero")
    d_inv = d.inverse()
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[ent[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = det_cofactor(minor) if n > 1 else RatFun.one()
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof * d_inv
    return TFMatrix(m.cols, m.rows, out)


# -- SLS fixtures --------------------------------------------------------------


def dyadic(rng: random.Random, span: int = 2, max_pow: int = 2) -> float:
    """A random dyadic rational, exactly representable as a float."""
    return rng.randint(-span, span) / (2 ** rng.randint(0, max_pow))


def dyadic_fir_pair(rng: random.Random, plant: PlantSS, horizon: int) -> tuple[FIRPhi, FIRPhi]:
    """A valid FIR response pair with exactly float-representable taps.

    Requires B square and invertible (identity in the fixtures).  Phi_u taps
    are free dyadics except the last, which closes the terminal condition
    A Phi_x[T] + B Phi_u[T] = 0; Phi_x follows the reachability recursion.
    Everything stays dyadic, so lifting floats loses nothing.
    """
    n, m = plant.n, plant.m
    if n != m:
        raise ValueError("fixture recipe needs square invertible B")
    a = plant.A.astype(float)
    b = plant.B.astype(float)
    b_inv = np.linalg.inv(b)
    phi_x = [np.eye(n)]
    phi_u = []
    for _ in range(horizon - 1):
        u_tap = np.array([[dyadic(rng) for _ in range(n)] for _ in range(m)])
        phi_u.append(u_tap)
        phi_x.append(a @ phi_x[-1] + b @ u_tap)
    phi_u.append(-b_inv @ (a @ phi_x[-1]))
    return FIRPhi(tuple(phi_x)), FIRPhi(tuple(phi_u))


def slp_pair(rng: random.Random, plant: PlantSS, horizon: int) -> SLPStateFeedback:
    from rstab import slp_from_fir

    fx, fu = dyadic_fir_pair(rng, plant, horizon)
    return slp_from_fir(plant, fx, fu)


def rand_fir_tfmatrix(
    rng: random.Random,
    rows: SignalSpace,
    cols: SignalSpace,
    deg: int = 3,
    span: int = 2,
    max_den: int = 2,
    biproper: bool = True,
) -> TFMatrix:
    """Random FIR transfer matrix: polynomial in z^{-1} up to z^{-deg}."""
    lo = 0 if biproper else 1
    ent = []
    for _ in range(rows.total):
        row = []
        for _ in range(cols.total):
            coeffs = [Fraction(0)] * (deg + 1)
            for k in range(lo, deg + 1):
                coeffs[deg - k] = rand_fraction(rng, span, max_den)
            row.append(RatFun(Poly(coeffs), Poly.z(deg)))
        ent.append(row)
    return TFMatrix(rows, cols, ent)


#: the factor of the one-coefficient perturbations that every exact verdict must see
NEAR_ONE = 1 + Fraction(1, 2 ** 64)


def with_one_coefficient_scaled(r: RatFun, factor) -> RatFun:
    """r with the lowest nonzero coefficient of its numerator times ``factor``."""
    coeffs = list(r.num.coeffs)
    k = next(k for k, c in enumerate(coeffs) if c)
    coeffs[k] *= factor
    return RatFun(Poly(coeffs), r.den)


def replaced(m: TFMatrix, i: int, j: int, value: RatFun) -> TFMatrix:
    ent = [list(row) for row in m.entries]
    ent[i][j] = value
    return TFMatrix(m.rows, m.cols, ent)


def one_coefficient_scaled(m: TFMatrix, factor=NEAR_ONE) -> TFMatrix:
    """m with one coefficient of its first nonzero entry times ``factor``."""
    i, j = next((i, j) for i in range(m.rows.total) for j in range(m.cols.total) if m[i, j])
    return replaced(m, i, j, with_one_coefficient_scaled(m[i, j], factor))


# -- naive polynomial oracle over Fraction tuples ------------------------------
#
# A polynomial here is a sequence of Fraction coefficients in ascending powers
# of z; every result is a tuple with its trailing zeros stripped, comparable
# with ``Poly.coeffs``.


def trimmed(cs) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return trimmed((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n))


def reference_scale(a, c) -> tuple[Fraction, ...]:
    return trimmed(v * c for v in a)


def reference_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Schoolbook long division over Fraction: a = q * b + r with deg r < deg b."""
    a, b = trimmed(a), trimmed(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] / b[-1]
        quo[k] = c
        for j in range(db):
            rem[k + j] -= c * b[j]
    return trimmed(quo), trimmed(rem[:db])


def reference_monic(a) -> tuple[Fraction, ...]:
    a = trimmed(a)
    return reference_scale(a, 1 / a[-1]) if a else a


def reference_gcd(a, b) -> tuple[Fraction, ...]:
    """Euclid's algorithm over Fraction, made monic; gcd(a, 0) = monic(a)."""
    a, b = trimmed(a), trimmed(b)
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return reference_monic(a)


def conv_truncated(a, b, n: int | None = None) -> list[Fraction]:
    """Coefficients 0..n of the product a * b (all of them when n is None)."""
    if n is None:
        n = len(a) + len(b) - 2
    out = []
    for k in range(n + 1):
        acc = Fraction(0)
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc += a[i] * b[k - i]
        out.append(acc)
    return out


def reference_ratfun(num, den) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """num/den cancelled by the oracle gcd, with a monic denominator."""
    num, den = trimmed(num), trimmed(den)
    if not num:
        return (), (Fraction(1),)
    g = reference_gcd(num, den)
    num, den = reference_divmod(num, g)[0], reference_divmod(den, g)[0]
    return reference_scale(num, 1 / den[-1]), reference_monic(den)


# -- hand-derived affine identities of each bundle ------------------------------


def bundle_identities(bundle, against) -> list[tuple[TFMatrix, TFMatrix]]:
    """(lhs, rhs) pairs of a bundle's affine identities, written out by hand.

    ``against`` is what the bundle's ``checked`` takes after the blocks: the
    transfer matrix G (or (zI - A)^{-1} B) for IOP, the plant otherwise.  The
    library derives the same identities from the realization-stability lemma.
    """
    if isinstance(bundle, IOPParam):
        g = against
        Y, U, W, Z = bundle.Y, bundle.U, bundle.W, bundle.Z
        zero = TFMatrix.zeros(g.rows, g.cols)
        return [(Y - g @ U, TFMatrix.identity(g.rows)), (W - g @ Z, zero),
                (W - Y @ g, zero), (Z - U @ g, TFMatrix.identity(g.cols))]
    plant = against
    x, u, y = plant.x_space, plant.u_space, plant.y_space
    zia = plant.z_minus_a()
    b = TFMatrix.constant(x, u, plant.B)
    c = TFMatrix.constant(y, x, plant.C)
    res = plant.resolvent()
    g = c @ res @ b + TFMatrix.constant(y, u, plant.D)
    if isinstance(bundle, SLPStateFeedback):
        return [(zia @ bundle.phi_x - b @ bundle.phi_u, TFMatrix.identity(x))]
    if isinstance(bundle, SLPOutputFeedback):
        p = bundle
        return [(zia @ p.phi_xx - b @ p.phi_ux, TFMatrix.identity(x)),
                (zia @ p.phi_xy - b @ p.phi_uy, TFMatrix.zeros(x, y)),
                (p.phi_xx @ zia - p.phi_xy @ c, TFMatrix.identity(x)),
                (p.phi_ux @ zia - p.phi_uy @ c, TFMatrix.zeros(u, x))]
    if isinstance(bundle, MixedParam1):
        p = bundle
        return [(p.phi_yx - g @ p.phi_ux, c @ res),
                (p.phi_yy - g @ p.phi_uy, TFMatrix.identity(y)),
                (p.phi_yx @ zia - p.phi_yy @ c, TFMatrix.zeros(y, x)),
                (p.phi_ux @ zia - p.phi_uy @ c, TFMatrix.zeros(u, x))]
    if isinstance(bundle, MixedParam2):
        p = bundle
        return [(zia @ p.phi_xy - b @ p.phi_uy, TFMatrix.zeros(x, y)),
                (zia @ p.phi_xu - b @ p.phi_uu, TFMatrix.zeros(x, u)),
                (p.phi_xu - p.phi_xy @ g, res @ b),
                (p.phi_uu - p.phi_uy @ g, TFMatrix.identity(u))]
    raise TypeError(f"no hand-derived identities for {type(bundle).__name__}")


# -- dense FIR H2 synthesis ------------------------------------------------------


def dense_fir_h2(plant: PlantSS, qw, rw, horizon: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(Phi_x taps, Phi_u taps) of FIR H2 synthesis, posed on every tap.

    The unknowns are the Phi_x and the Phi_u taps and one multiplier per
    constraint row; the rows are the FIR instances of
    (zI - A) Phi_x - B Phi_u = I written out by hand.  The library solves
    the same problem stage by stage, or posed on Phi_u alone when Rw is
    singular; both share only the exact solver.
    The weights enter the KKT blocks as given, so they must be symmetric.
    Raises InfeasibleError when no FIR response pair exists.
    """
    from rstab.sls import _solve_exact

    n, m, t = plant.n, plant.m, horizon
    a, b = plant.A, plant.B
    qw, rw = np.asarray(qw, dtype=object), np.asarray(rw, dtype=object)
    nv, nc = (n + m) * t, n * (t + 1)
    kkt = [[Fraction(0)] * (nv + nc) for _ in range(nv + nc)]

    def xvar(k: int, i: int) -> int:  # Phi_x[k] row i, k = 1..t
        return (k - 1) * n + i

    def uvar(k: int, i: int) -> int:  # Phi_u[k] row i
        return n * t + (k - 1) * m + i

    for k in range(1, t + 1):
        for i in range(n):
            for j in range(n):
                kkt[xvar(k, i)][xvar(k, j)] = Fraction(qw[i, j])
        for i in range(m):
            for j in range(m):
                kkt[uvar(k, i)][uvar(k, j)] = Fraction(rw[i, j])
    rows = []  # (coefficient by variable) of each constraint row
    for i in range(n):  # Phi_x[1] = I
        rows.append({xvar(1, i): 1})
    for k in range(1, t):  # Phi_x[k+1] - A Phi_x[k] - B Phi_u[k] = 0
        for i in range(n):
            row = {xvar(k + 1, i): 1}
            row.update({xvar(k, j): -a[i, j] for j in range(n)})
            row.update({uvar(k, j): -b[i, j] for j in range(m)})
            rows.append(row)
    for i in range(n):  # A Phi_x[t] + B Phi_u[t] = 0
        row = {xvar(t, j): a[i, j] for j in range(n)}
        row.update({uvar(t, j): b[i, j] for j in range(m)})
        rows.append(row)
    for r, row in enumerate(rows):
        for col, val in row.items():
            kkt[nv + r][col] = kkt[col][nv + r] = Fraction(val)
    rhs = [[Fraction(0)] * n for _ in range(nv + nc)]
    for j in range(n):
        rhs[nv + j][j] = Fraction(1)
    sol = _solve_exact(kkt, rhs)

    def taps(var, height: int) -> list[np.ndarray]:
        return [np.array([[sol[var(k, i)][j] for j in range(n)] for i in range(height)], dtype=object)
                for k in range(1, t + 1)]

    return taps(xvar, n), taps(uvar, m)


# -- time-domain update equations -------------------------------------------------


def reference_simulate(v, plant: PlantSS, d, horizon: int) -> dict[str, np.ndarray]:
    """The x, u and delta traces of a realization variant, by its update equations.

    The equations of each variant are written out by hand, in floating point
    from zero initial conditions, with (P, M) the wired taps:

        x[t]     = A x[t-1] + B u[t-1] + d_x[t-1]
        delta[t] = x[t] - A x[t-1] - B u[t-1] + d_delta[t]        (deployment)
        P[1] delta[t] = x[t] - sum_{k>=2} P[k] delta[t+1-k] + d_delta[t]  (otherwise)
        u[t]     = sum_{k>=1} M[k] delta[t+1-k] + d_u[t]

    The library reads the same recursion off the realization matrix R; the
    two share no code.  ``d`` maps channel names to (steps, dim) arrays.
    """
    from rstab.sls import DEPLOYMENT

    n, m = plant.n, plant.m
    a = plant.A.astype(float)
    b = plant.B.astype(float)
    p_taps, m_taps = (np.array(f.taps, dtype=float) for f in v.controller_taps())

    def schedule(name: str, dim: int) -> np.ndarray:
        out = np.zeros((horizon + 1, dim))
        arr = np.atleast_2d(np.asarray(d.get(name, np.zeros((0, dim))), dtype=float))
        steps = min(arr.shape[0], horizon + 1)
        out[:steps] = arr[:steps]
        return out

    dx, du, dd = schedule("x", n), schedule("u", m), schedule("delta", n)
    x = np.zeros((horizon + 1, n))
    u = np.zeros((horizon + 1, m))
    delta = np.zeros((horizon + 1, n))
    for t in range(horizon + 1):
        if t >= 1:
            x[t] = a @ x[t - 1] + b @ u[t - 1] + dx[t - 1]
        if v.kind == DEPLOYMENT:
            prev_x = x[t - 1] if t >= 1 else np.zeros(n)
            prev_u = u[t - 1] if t >= 1 else np.zeros(m)
            delta[t] = x[t] - a @ prev_x - b @ prev_u + dd[t]
        else:
            acc = x[t] + dd[t]
            for k in range(2, len(p_taps) + 1):
                if t + 1 - k >= 0:
                    acc = acc - p_taps[k - 1] @ delta[t + 1 - k]
            delta[t] = np.linalg.solve(p_taps[0], acc)
        acc_u = du[t].copy()
        for k in range(1, len(m_taps) + 1):
            if t + 1 - k >= 0:
                acc_u = acc_u + m_taps[k - 1] @ delta[t + 1 - k]
        u[t] = acc_u
    return {"x": x, "u": u, "delta": delta}
