"""Exact rational functions in z over arbitrary-precision rationals.

A polynomial is a tuple of ``fractions.Fraction`` coefficients in ascending
powers of z, with a nonzero trailing coefficient (the zero polynomial is the
empty tuple).  A rational function is a cancelled quotient ``num/den`` whose
denominator is monic and nonzero, so equal values always have identical
representations and ``==`` is a structural comparison.

Properness is a degree comparison (strictly proper, biproper, improper),
poles are the roots of the cancelled denominator, and ``series`` expands a
proper function into its Markov parameters h_0, h_1, ... with
r = sum_k h_k z^{-k}.  All arithmetic is exact; only pole locations are
computed in floating point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ToolkitError

#: The one pole margin: a function is stable when every pole has
#: |pole| < 1 - DEFAULT_TOL.  Poles on or outside the unit circle must be
#: rejected, so the inequality is strict.
DEFAULT_TOL = 1e-8

Scalar = Union[int, Fraction]
CoeffsLike = Union["Poly", Scalar, Sequence[Scalar]]


def _as_coeff(value) -> Fraction:
    """The one rule for exact scalars: a Fraction, an int, a float (exactly),
    a decimal or "p/q" string, or a numpy scalar of one of these.  A bool is
    not a number here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


class Poly:
    """Univariate polynomial in z with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def z(cls, power: int = 1) -> "Poly":
        """The monomial z**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (1,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == 1:
            return self
        inv = 1 / self.lc
        return Poly(c * inv for c in self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly(())
        if len(b) == 1:
            c = b[0]
            return Poly([ai * c for ai in a])
        if len(a) == 1:
            c = a[0]
            return Poly([c * bj for bj in b])
        # convolve integer lifts; one Fraction reduction per output coefficient
        ia, da = _int_lift_pair(a)
        ib, db = _int_lift_pair(b)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(ia):
            if ai:
                for j, bj in enumerate(ib):
                    out[i + j] += ai * bj
        den = da * db
        return Poly([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = o.degree
        if self.degree < dd:
            return Poly(()), self
        # fraction-free long division of the integer lifts; a step scales by
        # lb only when inexact, which never happens when o divides self
        rem, da = _int_lift_pair(self.coeffs)
        ib, db = _int_lift_pair(o.coeffs)
        lb = ib[-1]
        body = ib[:dd]
        quo = [0] * (len(rem) - dd)
        scale = da
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + dd]
            if c:
                q, r = divmod(c, lb)
                if r:
                    rem = [lb * v for v in rem[: k + dd]]
                    quo = [lb * v for v in quo]
                    scale *= lb
                    q = c
                quo[k] = q
                for j, bj in enumerate(body):
                    if bj:
                        rem[k + j] -= q * bj
        quotient = Poly([Fraction(q * db, scale) for q in quo])
        if not any(rem[:dd]):
            return quotient, Poly(())
        return quotient, Poly([Fraction(r, scale) for r in rem[:dd]])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be exact or floating."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({_poly_str(self)})"


_GCD_PRIME = (1 << 31) - 1


def _int_lift_pair(coeffs) -> tuple[list[int], int]:
    """Common-denominator integer lift: returns (scaled coefficients, scale)."""
    scale = 1
    for c in coeffs:
        d = c.denominator
        scale = scale // math.gcd(scale, d) * d
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def _int_lift(p: Poly) -> list[int]:
    """Scale away coefficient denominators; preserves degree and roots."""
    return _int_lift_pair(p.coeffs)[0]


def _gcd_degree_mod_p(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a mod p, b mod p); -1 when it collapses to zero."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = list(a)
        while len(r) - 1 >= db:
            c = r[-1] * inv % p
            if c:
                off = len(r) - 1 - db
                for j in range(db + 1):
                    r[off + j] = (r[off + j] - c * b[j]) % p
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return len(a) - 1


def _primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return a
    return [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b up to an integer unit (repeated lc(b) scaling)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and any(r):
        c = r[-1]
        r = [lb * v for v in r]
        off = len(r) - 1 - db
        for j in range(db + 1):
            r[off + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, with gcd(a, 0) = monic(a).

    A modular pre-check handles the common coprime case cheaply: when the
    gcd modulo a fixed prime is constant and the prime does not divide both
    integer-lifted leading coefficients, the true gcd is constant too.
    Otherwise the gcd is computed exactly by the primitive polynomial
    remainder sequence over the integers.
    """
    if b.is_zero:
        return a.monic()
    if a.is_zero:
        return b.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.one()
    ia = _int_lift(a)
    ib = _int_lift(b)
    p = _GCD_PRIME
    if ia[-1] % p or ib[-1] % p:
        if _gcd_degree_mod_p(ia, ib, p) == 0:
            return Poly.one()
    ia = _primitive(ia)
    ib = _primitive(ib)
    if len(ia) < len(ib):
        ia, ib = ib, ia
    while ib:
        ia, ib = ib, _primitive(_pseudo_rem(ia, ib))
    lead = ia[-1]
    return Poly([Fraction(c, lead) for c in ia])


def _poly_str(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            zk = "z" if k == 1 else f"z^{k}"
            if c == 1:
                term = zk
            elif c == -1:
                term = f"-{zk}"
            else:
                term = f"{c}*{zk}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


STRICTLY_PROPER = "strictly_proper"
BIPROPER = "biproper"
IMPROPER = "improper"


class RatFun:
    """A rational function num/den in normal form.

    Normal form means gcd(num, den) = 1 and den monic, established by the
    constructor, so removable factors never survive to the pole computation.
    """

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: CoeffsLike = 0, den: CoeffsLike = 1):
        n = self._to_poly(num)
        d = self._to_poly(den)
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero:
            d = Poly.one()
        else:
            g = poly_gcd(n, d)
            if g.degree > 0:
                n = n // g
                d = d // g
            lc = d.lc
            if lc != 1:
                inv = 1 / lc
                n = n * inv
                d = d * inv
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _normalized(cls, num: Poly, den: Poly) -> "RatFun":
        """Wrap an already-cancelled pair, only rescaling den to monic."""
        if num.is_zero:
            den = Poly.one()
        else:
            lc = den.lc
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @staticmethod
    def _to_poly(value: CoeffsLike) -> Poly:
        if isinstance(value, Poly):
            return value
        if isinstance(value, str) or not isinstance(value, Iterable):  # a scalar
            return Poly((value,))
        return Poly(value)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c) -> "RatFun":
        return cls(Poly((c,)), Poly.one())

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(Poly.zero(), Poly.one())

    @classmethod
    def one(cls) -> "RatFun":
        return cls(Poly.one(), Poly.one())

    @classmethod
    def z(cls) -> "RatFun":
        return cls(Poly.z(), Poly.one())

    @classmethod
    def z_inv(cls, power: int = 1) -> "RatFun":
        """z**(-power)."""
        return cls(Poly.one(), Poly.z(power))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RatFun | None":
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return RatFun.constant(other)
        if isinstance(other, Poly):
            return RatFun(other, Poly.one())
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        if self.den == o.den:
            return RatFun(self.num + o.num, self.den)
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._normalized(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return RatFun.zero()
        # cross-cancel first; both operands are normalized, so the result of
        # multiplying the reduced parts is already in lowest terms
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num // g1 if g1.degree > 0 else self.num
        d2 = o.den // g1 if g1.degree > 0 else o.den
        n2 = o.num // g2 if g2.degree > 0 else o.num
        d1 = self.den // g2 if g2.degree > 0 else self.den
        return RatFun._normalized(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFun._normalized(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFun.one()
        for _ in range(n):
            out = out * self
        return out

    # -- analysis -----------------------------------------------------------

    def classify(self) -> str:
        """One of strictly_proper / biproper / improper by degree comparison.

        The zero function counts as strictly proper.
        """
        dn, dd = self.num.degree, self.den.degree
        if dn < dd or self.is_zero:
            return STRICTLY_PROPER
        if dn == dd:
            return BIPROPER
        return IMPROPER

    @property
    def is_proper(self) -> bool:
        return self.classify() != IMPROPER

    @property
    def is_strictly_proper(self) -> bool:
        return self.classify() == STRICTLY_PROPER

    def poles(self) -> list[complex]:
        """Roots of the (already cancelled) denominator, with multiplicity.

        Computed numerically from the companion matrix of the denominator;
        exact cancellation at construction guarantees removable factors do
        not contribute spurious poles.
        """
        if self.den.degree <= 0:
            return []
        desc = [float(c) for c in reversed(self.den.coeffs)]
        return list(np.roots(desc))

    def is_stable(self) -> bool:
        """Membership in RH-infinity: proper with all poles inside |z| < 1 - DEFAULT_TOL."""
        if not self.is_proper:
            return False
        return all(abs(p) < 1.0 - DEFAULT_TOL for p in self.poles())

    def series(self, n: int) -> list[Fraction]:
        """Markov parameters h_0 .. h_n of a proper rational function.

        Exact long division in powers of z^{-1}:
        r = sum_{k=0}^{n} h_k z^{-k} + O(z^{-(n+1)}).
        """
        if not self.is_proper:
            raise ToolkitError("series expansion requires a proper rational function")
        if n < 0:
            raise ValueError("series length must be nonnegative")
        q = self.den.degree
        # In w = 1/z the expansion coefficients of num*z^{-q} and den*z^{-q}
        # are num[q-k] and den[q-k]; den's constant term in w is 1 (monic).
        h: list[Fraction] = []
        for k in range(n + 1):
            acc = self.num[q - k]
            for i in range(1, k + 1):
                di = self.den[q - i]
                if di:
                    acc -= di * h[k - i]
            h.append(acc)
        return h

    def __repr__(self):
        if self.den.degree == 0:
            return f"RatFun({_poly_str(self.num)})"
        return f"RatFun(({_poly_str(self.num)})/({_poly_str(self.den)}))"
