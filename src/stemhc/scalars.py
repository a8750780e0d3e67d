"""Exact arithmetic in the field Q(i, sqrt(2)).

Every coefficient this library ever produces lives here: integer structure
constants, the unit phases attached to stem roots (including eighth roots of
unity like (sqrt2/2)(1+i)), and the sqrt2/2 factors coming out of the Cayley
maps.  A scalar is stored as four integers over one positive common
denominator, (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / d, reduced so that
gcd(n0, n1, n2, n3, d) = 1.  Every value has exactly one such form, so
equality and zero tests compare integers, and conjugation and inversion are
exact and deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


def _raw(n0, n1, n2, n3, d):
    """The scalar with these fields, which must already be canonical."""
    s = _new(TowerScalar)
    s._n0 = n0
    s._n1 = n1
    s._n2 = n2
    s._n3 = n3
    s._d = d
    return s


def _make(n0, n1, n2, n3, d):
    """The canonical scalar (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / d, d > 0."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    return _raw(n0, n1, n2, n3, d)


class TowerScalar:
    """c0 + c1*i + c2*sqrt2 + c3*i*sqrt2 with rational coordinates, held as
    (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / d in lowest terms with d > 0.

    Immutable: the coordinates are read-only properties, and the private
    integer fields are written only when a scalar is made, in `__new__`, so
    no later `__init__` call can rewrite a shared constant like ONE."""

    __slots__ = ("_n0", "_n1", "_n2", "_n3", "_d")

    def __new__(cls, c0=0, c1=0, c2=0, c3=0):
        cs = tuple(map(_as_fraction, (c0, c1, c2, c3)))
        # over the least common denominator the fields are already coprime
        d = lcm(*(c.denominator for c in cs))
        return _raw(*(c.numerator * (d // c.denominator) for c in cs), d)

    # read-only rational coordinates
    c0 = property(lambda self: Fraction(self._n0, self._d))
    c1 = property(lambda self: Fraction(self._n1, self._d))
    c2 = property(lambda self: Fraction(self._n2, self._d))
    c3 = property(lambda self: Fraction(self._n3, self._d))

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def of(x) -> "TowerScalar":
        if isinstance(x, TowerScalar):
            return x
        if isinstance(x, int):
            return _raw(int(x), 0, 0, 0, 1)
        if isinstance(x, Fraction):
            return _raw(x.numerator, 0, 0, 0, x.denominator)
        raise TypeError("cannot coerce %r to TowerScalar" % (x,))

    def coords(self):
        return (self.c0, self.c1, self.c2, self.c3)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not TowerScalar:
            other = TowerScalar.of(other)
        if self is ZERO:
            # the first term of a sparse sum d.get(k, ZERO) + t: t is
            # already canonical, so there is nothing to add or reduce
            return other
        ad = self._d
        bd = other._d
        if ad == bd:
            return _make(self._n0 + other._n0, self._n1 + other._n1,
                         self._n2 + other._n2, self._n3 + other._n3, ad)
        return _make(self._n0 * bd + other._n0 * ad,
                     self._n1 * bd + other._n1 * ad,
                     self._n2 * bd + other._n2 * ad,
                     self._n3 * bd + other._n3 * ad, ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -TowerScalar.of(other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _raw(-self._n0, -self._n1, -self._n2, -self._n3, self._d)

    def __mul__(self, other):
        if other.__class__ is not TowerScalar:
            # an integer factor scales the fields directly
            if isinstance(other, int):
                if other == 1:
                    return self
                if other == -1:
                    return -self
                if not other:
                    return ZERO
                return _make(self._n0 * other, self._n1 * other,
                             self._n2 * other, self._n3 * other, self._d)
            other = TowerScalar.of(other)
        a0, a1, a2, a3 = self._n0, self._n1, self._n2, self._n3
        b0, b1, b2, b3 = other._n0, other._n1, other._n2, other._n3
        d = self._d * other._d
        # fast paths: purely rational factors dominate the hot loops
        if not (a1 or a2 or a3):
            if not a0:
                return ZERO
            return _make(a0 * b0, a0 * b1, a0 * b2, a0 * b3, d)
        if not (b1 or b2 or b3):
            if not b0:
                return ZERO
            return _make(a0 * b0, a1 * b0, a2 * b0, a3 * b0, d)
        return _make(
            a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * TowerScalar.of(other).inv()

    def __rtruediv__(self, other):
        return TowerScalar.of(other) * self.inv()

    def inv(self) -> "TowerScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self:
            raise ZeroDivisionError("inverse of zero TowerScalar")
        if not (self._n1 or self._n2 or self._n3):
            # d / n0 is already in lowest terms; the sign goes on top
            if self._n0 > 0:
                return _raw(self._d, 0, 0, 0, self._n0)
            return _raw(-self._d, 0, 0, 0, -self._n0)
        # product of the three nontrivial Galois conjugates, divided by the
        # rational norm s * conj_i(s) * conj_s2(s) * conj_i(conj_s2(s))
        ci = self.conj()                      # i -> -i
        cs = self._sqrt2_conj()               # sqrt2 -> -sqrt2
        cis = cs.conj()
        num = ci * cs * cis
        norm = self * num
        if norm._n1 or norm._n2 or norm._n3:
            raise ArithmeticError("norm of %s is not rational: %s"
                                  % (self, norm))
        # num / (p / q); p > 0, as the norm is |s|^2 |conj_s2(s)|^2
        p, q = norm._n0, norm._d
        return _make(num._n0 * q, num._n1 * q, num._n2 * q, num._n3 * q,
                     num._d * p)

    # -- involutions ---------------------------------------------------------

    def conj(self) -> "TowerScalar":
        """Complex conjugation (i -> -i, sqrt2 fixed)."""
        return _raw(self._n0, -self._n1, self._n2, -self._n3, self._d)

    def _sqrt2_conj(self) -> "TowerScalar":
        return _raw(self._n0, self._n1, -self._n2, -self._n3, self._d)

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return bool(self._n0 or self._n1 or self._n2 or self._n3)

    def __eq__(self, other):
        if other.__class__ is not TowerScalar:
            try:
                other = TowerScalar.of(other)
            except TypeError:
                return NotImplemented
        return (self._n0 == other._n0 and self._n1 == other._n1
                and self._n2 == other._n2 and self._n3 == other._n3
                and self._d == other._d)

    def __hash__(self):
        # equal values hash equally: a rational value as its Fraction (so
        # also as its int), any other value by its canonical integers
        if self._n1 or self._n2 or self._n3:
            return hash((self._n0, self._n1, self._n2, self._n3, self._d))
        if self._d == 1:
            return hash(self._n0)
        return hash(Fraction(self._n0, self._d))

    def is_unit_modulus(self) -> bool:
        """True iff s * conj(s) == 1."""
        return self * self.conj() == ONE

    def is_rational(self) -> bool:
        return not (self._n1 or self._n2 or self._n3)

    # -- numeric views -------------------------------------------------------

    def __complex__(self):
        s2 = 2 ** 0.5
        d = self._d
        return complex(self._n0 / d + self._n2 / d * s2,
                       self._n1 / d + self._n3 / d * s2)

    # -- text ----------------------------------------------------------------

    def __str__(self):
        parts = []
        for coeff, unit in ((self.c0, ""), (self.c1, "i"),
                            (self.c2, "√2"), (self.c3, "i√2")):
            if coeff == 0:
                continue
            mag = -coeff if coeff < 0 else coeff
            body = str(mag) if (mag != 1 or not unit) else ""
            term = body + unit
            if not parts:
                parts.append(("-" if coeff < 0 else "") + term)
            else:
                parts.append((" - " if coeff < 0 else " + ") + term)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return "TowerScalar(%s)" % str(self)

    # a denominator has a nonzero digit, so "2/0" is a bad term
    _TERM = re.compile(
        r"^([+-]?)(\d+(?:/0*[1-9]\d*)?)?(i√2|i\*?sqrt2|isqrt2|√2|sqrt2|i)?$"
    )

    @staticmethod
    def parse(text: str) -> "TowerScalar":
        """Parse the textual form produced by str(); also accepts 'sqrt2'."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        # split into signed terms, keeping each sign with its term
        chunks = re.split(r"(?=[+-])", s)
        chunks = [c for c in chunks if c]
        coords = [Fraction(0)] * 4
        slot = {"": 0, "i": 1, "√2": 2, "sqrt2": 2,
                "i√2": 3, "isqrt2": 3, "i*sqrt2": 3}
        for chunk in chunks:
            m = TowerScalar._TERM.match(chunk)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ValueError("bad scalar term %r in %r" % (chunk, text))
            sign, mag, unit = m.groups()
            coeff = Fraction(mag) if mag is not None else Fraction(1)
            if sign == "-":
                coeff = -coeff
            coords[slot[unit or ""]] += coeff
        return TowerScalar(*coords)


ZERO = TowerScalar(0)
ONE = TowerScalar(1)
I = TowerScalar(0, 1)
SQRT2 = TowerScalar(0, 0, 1)
HALF = TowerScalar(Fraction(1, 2))
# the primitive eighth root of unity exp(i pi/4) = (sqrt2/2)(1 + i)
EIGHTH_ROOT = TowerScalar(0, 0, Fraction(1, 2), Fraction(1, 2))


def eighth_root_power(k: int) -> TowerScalar:
    """exp(i k pi / 4) as an exact scalar."""
    k %= 8
    out = ONE
    for _ in range(k):
        out = out * EIGHTH_ROOT
    return out
