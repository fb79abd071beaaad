"""Exact rational functions in z over arbitrary-precision rationals.

A polynomial is stored as a rational content times a primitive integer
polynomial: the content as two coprime ints (numerator, and a positive
denominator) and a tuple of ints in ascending powers of z whose gcd is 1 and
whose leading entry is positive (the zero polynomial has content 0/1 and the
empty tuple).  A rational function is a cancelled quotient ``num/den`` whose
denominator is monic and nonzero.  Both forms are unique, so ``==`` is a
structural comparison.

The arithmetic works on ints only.  A scalar comes in as an integer pair
(``_as_pair``): an int, a Fraction's two ints, or the canonical "p/q" that
rstab writes, read with ``int``; only a scalar of another form is read by
``fractions.Fraction``.  A document's coefficients go out as strings written
from the integer form (``_coeff_strs``), and a Fraction is built only for
coefficients, leading coefficients and Markov parameters asked for one by
one.

One fraction-free division of integer polynomials, ``_pdivmod``, serves
``divmod``, the gcd's check of a reconstructed factor and its remainder
sequence.  One gcd, ``_gcd``, returns the gcd of two primitive parts with
both cofactors, and ``RatFun`` cancels a pair with those cofactors.
``RatFun`` adds unlike denominators by Henrici's rule (only gcd(b, d) and
then gcd(t, g) can cancel; Knuth, TAOCP vol. 2, 4.5.1), so a sum of coprime
denominators takes no gcd of the result.

Properness is a degree comparison (strictly proper, biproper, improper),
poles are the roots of the cancelled denominator, and ``series`` expands a
proper function into its Markov parameters h_0, h_1, ... with
r = sum_k h_k z^{-k}, by a fraction-free integer recurrence on the primitive
parts.  All arithmetic is exact; only pole locations are computed in
floating point.
"""

from __future__ import annotations

import math
import re
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


#: the form in which rstab writes an exact scalar (ASCII digits only)
_CANONICAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _as_pair(value) -> tuple[int, int]:
    """``_as_coeff(value)`` as (numerator, denominator) in lowest terms with a
    positive denominator.  An int, a Fraction and the canonical "p" or "p/q"
    are read without building a Fraction; every other value goes through
    ``_as_coeff``, so it is accepted, or refused with the same error, exactly
    as there."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is Fraction:
        return value.numerator, value.denominator
    if kind is str and _CANONICAL.fullmatch(value):
        n, _, d = value.partition("/")
        if not d:
            return int(n), 1
        n, d = int(n), int(d)
        if d:  # "p/0" is refused below, as Fraction refuses it
            g = math.gcd(n, d)
            return n // g, d // g
    c = _as_coeff(value)
    return c.numerator, c.denominator


class Poly:
    """Univariate polynomial in z with exact rational coefficients.

    Stored as a content times a primitive part: the content ``_n / _d`` as
    two coprime ints with ``_d > 0`` and ``_n`` nonzero, and a tuple of ints
    ``_p`` whose gcd is 1 and whose last (leading) entry is positive, so the
    coefficients are ``_n * _p[k] / _d``.  The form is unique, and the zero
    polynomial is ``_n = 0``, ``_d = 1``, ``_p = ()``.  A product of primitive
    parts is primitive (Gauss's lemma), so multiplication convolves integers
    and never normalizes.  ``coeffs`` is a ``Fraction`` view computed on
    demand.

    The constructor is the one path from scalars to this form: it reads each
    coefficient as an integer pair (``_as_pair``), scales them to one common
    denominator and splits off the content.  ``_poly`` wraps a form that the
    arithmetic has already normalized.
    """

    __slots__ = ("_n", "_d", "_p")

    _n: int
    _d: int
    _p: tuple[int, ...]

    def __init__(self, coeffs: Iterable = ()):
        pairs = [_as_pair(c) for c in coeffs]
        while pairs and not pairs[-1][0]:
            pairs.pop()
        scale = math.lcm(*[b for _, b in pairs])
        n, d, p = _split([a * (scale // b) for a, b in pairs], scale)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def z(cls, power: int = 1) -> "Poly":
        """The monomial z**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return _poly(1, 1, (0,) * power + (1,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending powers of z, without trailing zeros."""
        n, d = self._n, self._d
        return tuple(Fraction(n * v, d) for v in self._p)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self._p) - 1

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (of the zero polynomial: 0)."""
        return self[len(self._p) - 1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return _poly(1, self._p[-1], self._p)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._p):
            return Fraction(self._n * self._p[k], self._d)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._p)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._n == o._n and self._d == o._d

    def __hash__(self):
        # a constant hashes like its scalar, with which it compares equal
        if len(self._p) <= 1:
            return hash(Fraction(self._n, self._d))
        return hash((self._n, self._d, self._p))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return _poly(other.numerator, other.denominator, (1,)) if other else _ZERO
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._p:
            return self
        if not self._p:
            return o
        # one common denominator of the contents, then one content gcd
        da, db = self._d, o._d
        den = da // math.gcd(da, db) * db
        ka, kb = self._n * (den // da), o._n * (den // db)
        a, b = self._p, o._p
        if len(a) < len(b):
            a, b, ka, kb = b, a, kb, ka
        out = [ka * v for v in a]
        for i, v in enumerate(b):
            out[i] += kb * v
        while out and out[-1] == 0:
            out.pop()
        return _poly(*_split(out, den))

    __radd__ = __add__

    def __neg__(self):
        return _poly(-self._n, self._d, self._p) if self._p else self

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
        a, b = self._p, o._p
        if not a or not b:
            return _ZERO
        n, d = _content_mul(self._n, self._d, o._n, o._d)
        if len(b) == 1:
            return _poly(n, d, a)
        if len(a) == 1:
            return _poly(n, d, b)
        # the product of primitive parts is primitive with a positive lead
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _poly(n, d, tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self = q*other + r and deg r < deg other."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem, scale = _pdivmod(self._p, o._p)
        # the ratio of the contents, unreduced and of either sign
        n, d = self._n * o._d, self._d * o._n
        if scale == 1 and not rem:
            # an exact quotient of primitive parts is primitive (Gauss)
            return _poly(*_reduced(n, d), tuple(quo)), _ZERO
        qn, qd, qp = _split(quo, scale)
        rn, rd, rp = _split(rem, scale)
        return (_poly(*_reduced(qn * n, qd * d), qp),
                _poly(*_content_mul(rn, rd, self._n, self._d), rp))

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


def _poly(n: int, d: int, p: tuple[int, ...]) -> Poly:
    """Trusted constructor: ``n/d`` is in lowest terms with ``d > 0``, and
    ``p`` is primitive with a positive lead (or empty with ``n/d = 0/1``)."""
    out = object.__new__(Poly)
    object.__setattr__(out, "_n", n)
    object.__setattr__(out, "_d", d)
    object.__setattr__(out, "_p", p)
    return out


_ZERO = _poly(0, 1, ())
_ONE = _poly(1, 1, (1,))


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator (d nonzero)."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return (n // g, d // g) if g != 1 else (n, d)


def _content_mul(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) * (n2/d2) for two contents in lowest terms, reduced by the
    cross gcds (Henrici), so no gcd of the products is taken."""
    if d1 == d2 == 1:
        return n1 * n2, 1
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _split(ints: list[int], scale: int) -> tuple[int, int, tuple[int, ...]]:
    """Content (numerator, denominator) and primitive part of
    ``ints / scale``, for ``scale > 0``; ``ints`` has no trailing zeros."""
    if not ints:
        return 0, 1, ()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    c = math.gcd(g, scale)
    if c != 1:
        g, scale = g // c, scale // c
    return g, scale, tuple(ints)


def _pair_str(a: int, b: int) -> str:
    """``str(Fraction(a, b))`` for b > 0: a / b reduced by one gcd, written
    "a/b", or "a" when the denominator is 1."""
    if b == 1:
        return str(a)
    g = math.gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _coeff_strs(p: Poly) -> list[str]:
    """``[str(c) for c in p.coeffs]``, written from the integer form: each
    coefficient is ``_n * _p[k] / _d``."""
    n, d = p._n, p._d
    return [_pair_str(n * v, d) for v in p._p]


def _height(a: Sequence[int]) -> int:
    """Largest |coefficient|."""
    return max(max(a), -min(a))


def _at(a: Sequence[int], s: int) -> int:
    """a(2^s), by Horner's rule with shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << s) + c
    return acc


def _digits(v: int, s: int) -> list[int]:
    """The symmetric base-2^s digits of v, lowest first, each in
    (-2^(s-1), 2^(s-1)]."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    out = []
    while v:
        d = v & mask
        if d > half:
            d -= 1 << s
        out.append(d)
        v = (v - d) >> s
    return out


def _pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Fraction-free long division of integer polynomials (b nonzero): returns
    (quo, rem, scale) with scale * a = quo * b + rem, deg rem < deg b and no
    trailing zeros in rem.  A step scales rem and quo by lc(b) only when
    lc(b) does not divide the coefficient it eliminates, so scale == 1 and
    rem == [] exactly when b divides a over the integers."""
    db, lb = len(b) - 1, b[-1]
    body = b[:db]
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    scale = 1
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if c:
            q, r = divmod(c, lb)
            if r:
                rem = [lb * v for v in rem[: k + db]]
                quo = [lb * v for v in quo]
                scale *= lb
                q = c
            quo[k] = q
            for j, bj in enumerate(body):
                if bj:
                    rem[k + j] -= q * bj
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem, scale


def _primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return a
    return [c // g for c in a]


def _gcd(ia: Sequence[int], ib: Sequence[int]) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """(g, ia/g, ib/g) for primitive parts of degree >= 1, with g their
    primitive gcd (positive lead); see ``poly_gcd``."""
    if not (ia[0] and ib[0]):
        # gcd(z^ta a', z^tb b') = z^min(ta, tb) gcd(a', b'), where a', b' have
        # nonzero constant terms; a power of z would otherwise read as a
        # spurious factor at k whenever the other constant term is divisible
        # by a large power of two, as dyadic inputs make it
        ta = next(i for i, c in enumerate(ia) if c)
        tb = next(i for i, c in enumerate(ib) if c)
        sa, sb = ia[ta:], ib[tb:]
        g, qa, qb = _gcd(sa, sb) if len(sa) > 1 and len(sb) > 1 else ((1,), sa, sb)
        t = min(ta, tb)
        return [0] * t + list(g), [0] * (ta - t) + list(qa), [0] * (tb - t) + list(qb)
    h = min(_height(ia), _height(ib))
    s = (h + 1).bit_length() + 32
    k = 1 << s
    G = math.gcd(_at(ia, s), _at(ib, s))
    if G < k - h - 1:
        return (1,), ia, ib
    g = _digits(G, s)
    if 1 < len(g) <= min(len(ia), len(ib)):
        # G > 0, so the top digit is positive
        c = math.gcd(*g)
        g = [v // c for v in g]
        qa, ra, sa = _pdivmod(ia, g)
        qb, rb, sb = _pdivmod(ib, g)
        if sa == sb == 1 and not ra and not rb and (
            len(qa) == 1 or len(qb) == 1 or c < k - min(_height(qa), _height(qb)) - 1
        ):
            return g, qa, qb
    u, v = (ia, ib) if len(ia) >= len(ib) else (ib, ia)
    while v:
        u, v = v, _primitive(_pdivmod(u, v)[1])
    if u[-1] < 0:
        u = [-x for x in u]
    return u, _pdivmod(ia, u)[0], _pdivmod(ib, u)[0]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, with gcd(a, 0) = monic(a).

    Decided from G = gcd(a(k), b(k)) of the primitive parts at one point
    k = 2^s (the heuristic gcd of Char, Geddes and Gonnet, 1989), with an
    exact certificate for each answer it gives:

    - Coprime.  Let h be the smaller height (largest |coefficient|) of the
      two primitive parts.  Every common root has modulus at most 1 + h
      (Cauchy), so a nonconstant common factor g has
      |g(k)| >= k - 1 - h >= 1, and g(k) divides G.  So G < k - 1 - h
      proves the gcd constant.  s = bitlen(h + 1) + 32 leaves 32 bits of
      room below the bound for the G of a coprime pair, which is almost
      always small.
    - Nontrivial.  g is the primitive part of the polynomial whose
      symmetric base-k digits are G, and c its content, so the cofactors'
      values at k have gcd G / g(k) = c.  g is the gcd when it divides both
      exactly and its cofactors are constant or, by the bound above at the
      same k, coprime: then gcd(a, b) = g gcd(a/g, b/g) = g.

    When either constant term is zero, the common power of z is split off
    first and the rest decided on parts with nonzero constant terms.  Any
    other pair takes the primitive polynomial remainder sequence over
    the integers.  ``_gcd`` takes all three paths and returns the cofactors
    a/g and b/g with g, so ``RatFun`` cancels a pair without dividing
    again; ``_pdivmod``, the division behind ``divmod``, checks a
    reconstructed g and computes each remainder of the sequence.
    """
    if b.is_zero:
        return a.monic()
    if a.is_zero:
        return b.monic()
    if a.degree == 0 or b.degree == 0:
        return _ONE
    g = _gcd(a._p, b._p)[0]
    return _poly(1, g[-1], tuple(g))


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


def _monic_den(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with both rescaled so that den is monic (num nonzero)."""
    lead = den._p[-1]
    if den._n == 1 and den._d == lead:
        return num, den
    # num's content over den's leading coefficient, den._n * lead / den._d
    n, d = _reduced(num._n * den._d, num._d * den._n * lead)
    return _poly(n, d, num._p), _poly(1, lead, den._p)


def _cancelled(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den (both nonzero) with the primitive gcd of their primitive
    parts divided out, which is computed only when both are nonconstant."""
    if num.degree > 0 and den.degree > 0:
        g, qn, qd = _gcd(num._p, den._p)
        if len(g) > 1:
            return _poly(num._n, num._d, tuple(qn)), _poly(den._n, den._d, tuple(qd))
    return num, den


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
            d = _ONE
        else:
            n, d = _monic_den(*_cancelled(n, d))
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _normalized(cls, num: Poly, den: Poly) -> "RatFun":
        """Wrap an already-cancelled pair, only rescaling den to monic."""
        if num.is_zero:
            den = _ONE
        else:
            num, den = _monic_den(num, den)
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
        return cls._normalized(Poly((c,)), _ONE)

    @classmethod
    def zero(cls) -> "RatFun":
        return cls._normalized(_ZERO, _ONE)

    @classmethod
    def one(cls) -> "RatFun":
        return cls._normalized(_ONE, _ONE)

    @classmethod
    def z(cls) -> "RatFun":
        return cls._normalized(Poly.z(), _ONE)

    @classmethod
    def z_inv(cls, power: int = 1) -> "RatFun":
        """z**(-power)."""
        return cls._normalized(_ONE, Poly.z(power))

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
        # den is monic, so degree 0 means den == 1: hash like the numerator,
        # with which a polynomial function compares equal
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RatFun | None":
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction, Poly)) and not isinstance(other, bool):
            return RatFun._normalized(Poly._coerce(other), _ONE)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            return RatFun(a + c, b)
        # Henrici: with g = gcd(b, d), b = g b' and d = g d', the sum is
        # t / (g b' d') with t = a d' + c b', and a factor of b' or d' cannot
        # divide t (a, b and c, d are coprime), so only gcd(t, g) cancels
        g, qb, qd = _gcd(b._p, d._p) if b.degree > 0 and d.degree > 0 else ((1,), (), ())
        if len(g) == 1:
            return RatFun._normalized(a * d + c * b, b * d)
        b1, d1 = _poly(b._n, b._d, tuple(qb)), _poly(d._n, d._d, tuple(qd))
        t = a * d1 + c * b1
        if t.degree > 0:
            g2, qt, qg = _gcd(t._p, g)
            if len(g2) > 1:
                t, g = _poly(t._n, t._d, tuple(qt)), qg
        return RatFun._normalized(t, b1 * d1 * _poly(1, 1, tuple(g)))

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
        n1, d2 = _cancelled(self.num, o.den)
        n2, d1 = _cancelled(o.num, self.den)
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
        """Membership in RH-infinity: proper with all poles inside |z| < 1 - DEFAULT_TOL.

        For a proper function the verdict depends only on the denominator,
        which is monic and cancelled, so functions that share it share the
        verdict (``TFMatrix.classify`` tests each distinct one once).

        Before any float is taken, a coefficient a_k of the monic degree-n
        denominator with |a_k| > C(n, k) rejects exactly: by Vieta, some root
        has |z| >= 1.  So the poles are computed from coefficients <= 2^n.
        """
        if not self.is_proper:
            return False
        den, n = self.den._p, self.den.degree
        if any(abs(c) > math.comb(n, k) * den[-1] for k, c in enumerate(den)):
            return False
        return all(abs(p) < 1.0 - DEFAULT_TOL for p in self.poles())

    def series(self, n: int) -> list[Fraction]:
        """Markov parameters h_0 .. h_n of a proper rational function.

        Exact long division in powers of z^{-1}:
        r = sum_{k=0}^{n} h_k z^{-k} + O(z^{-(n+1)}).

        In w = 1/z the coefficients of num z^{-q} and den z^{-q} are
        num[q-k] and den[q-k], with q = deg den.  On the primitive parts N of
        num (content c) and D of den (lead L, so den = D / L), write
        h_k = c g_k / L^k; then the g_k are integers,
        g_k = N[q-k] L^k - sum_{i=1..k} D[q-i] L^(i-1) g_{k-i},
        summed over the nonzero taps of D, and each h_k is one Fraction.
        """
        if not self.is_proper:
            raise ToolkitError("series expansion requires a proper rational function")
        if n < 0:
            raise ValueError("series length must be nonnegative")
        num, den = self.num._p, self.den._p
        q, lead = len(den) - 1, den[-1]
        taps = [(i, den[q - i] * lead ** (i - 1)) for i in range(1, q + 1) if den[q - i]]
        cn, cd = self.num._n, self.num._d
        g: list[int] = []
        h: list[Fraction] = []
        power = 1  # lead ** k
        for k in range(n + 1):
            acc = num[q - k] * power if 0 <= q - k < len(num) else 0
            for i, di in taps:
                if i > k:
                    break
                acc -= di * g[k - i]
            g.append(acc)
            h.append(Fraction(cn * acc, cd * power))
            power *= lead
        return h

    def __repr__(self):
        if self.den.degree == 0:
            return f"RatFun({_poly_str(self.num)})"
        return f"RatFun(({_poly_str(self.num)})/({_poly_str(self.den)}))"
