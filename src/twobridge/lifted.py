"""Lifted Moebius actions on the universal cover of the boundary circle.

The boundary circle of the hyperbolic plane is the real projective line.
Its universal cover is a line made of integer levels, each level one copy
of the reals followed by a single point at infinity.  A unimodular matrix
over a real field acts on the circle by fractional-linear maps; every such
map has a distinguished lift ``lift0`` that sends level n into levels
n, n+1:

* pole xi* = -d/c finite: points left of the pole stay on their level,
  the pole goes to the level's infinity, points right of the pole and the
  level's infinity move up one level;
* c == 0 (infinity fixed): every point keeps its level.

``LiftedMoebius`` values are pairs (matrix, wind) meaning
lift0(matrix) composed with ``wind`` deck translations.  The deck
translation T1 is central, so composition only needs one integer cocycle,
and that cocycle is read from three signs of lower-left entries (the
classical cocycle of the universal cover of PSL(2, R); Ghys, "Groups
acting on the circle", 2001, section 6).  Composing never evaluates the
action; only ``apply`` moves points.

A ``LiftedPoint`` is the one point type: a level and a point [u : v] of
the circle in canonical form.  Moving a point signs one new ring element,
the image's denominator, and that sign both canonicalizes the image and
picks its level.

A ``Moebius`` is stored exactly as built in SL(2) and stands for its
class in PSL(2): m and -m are equal, and no representative is chosen.
A matrix product builds each entry with one fused ``mul_add`` (two
convolutions, one reduction), and so does the unimodularity check every
``Moebius`` passes.  Each ``Moebius`` signs its lower-left entry once, at
construction, and makes no other sign decision.  Two of the cocycle's
signs are then the factors' stored ones and the third is the product's,
so a lifted product computes one new sign.
All arithmetic is exact over a ``NumberField``.
"""

from __future__ import annotations

from .errors import InternalCheckFailed
from .numberfield import FieldElement, NumberField, mul_add


class LiftedPoint:
    """A point of the cover: the point [u : v] of the boundary circle at
    level ``wind``.

    [u : v] is kept in canonical form, v > 0, or v == 0 and u > 0, so
    v == 0 exactly at the level's infinity, the one point not ``finite``.
    Within a level the finite points come first in real order, then the
    level's infinity; then the next level starts.
    """

    __slots__ = ("wind", "u", "v", "finite")

    def __init__(self, wind: int, u: FieldElement, v: FieldElement):
        v_sign = v.sign()
        self._store(wind, u, v, v_sign != 0, v_sign or u.sign())

    def _store(self, wind: int, u: FieldElement, v: FieldElement,
               finite: bool, sign: int) -> None:
        """Keep [u : v] at level ``wind`` in canonical form, given whether
        v != 0 and the sign of v, or of u when v == 0."""
        if not sign:
            raise InternalCheckFailed("[0 : 0] is not a projective point")
        if sign < 0:
            u, v = -u, -v
        self.wind = wind
        self.u = u
        self.v = v
        self.finite = finite

    def cmp(self, other: "LiftedPoint") -> int:
        """-1, 0 or 1 as this point lies below, at or above ``other`` on
        the cover line."""
        if self.wind != other.wind:
            return 1 if self.wind > other.wind else -1
        if self.finite and other.finite:
            # u/v against u'/v', both denominators positive
            return mul_add(self.u, other.v, -other.u, self.v).sign()
        # the level's infinity sits above every finite point
        return other.finite - self.finite

    def __eq__(self, other):
        if not isinstance(other, LiftedPoint):
            return NotImplemented
        return self.cmp(other) == 0

    def __repr__(self):
        if not self.finite:
            return "(%d, [inf])" % self.wind
        return "(%d, [%r : %r])" % (self.wind, self.u, self.v)


class Moebius:
    """A unimodular 2x2 matrix over the field, kept as built and standing
    for its PSL(2) class; ``lift0_apply`` moves points by it.

    Construction checks unimodularity and signs the lower-left entry once
    into ``c_sign``; it makes no other sign decision.  The signs read from
    a matrix flip together when m -> -m and are only tested for zero or
    multiplied in pairs, so m and -m act alike.
    """

    __slots__ = ("field", "a", "b", "c", "d", "c_sign")

    def __init__(self, a, b, c, d):
        self._store(a, b, c, d)
        self.c_sign = c.sign()

    def _store(self, a, b, c, d):
        """Check unimodularity and keep the entries as given."""
        self.field = field = a.field
        if mul_add(a, d, b, -c) != field.one:
            raise InternalCheckFailed("matrix is not unimodular")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field: NumberField) -> "Moebius":
        return cls(field.one, field.zero, field.zero, field.one)

    def __mul__(self, other: "Moebius") -> "Moebius":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Moebius(mul_add(a1, a2, b1, c2), mul_add(a1, b2, b1, d2),
                       mul_add(c1, a2, d1, c2), mul_add(c1, b2, d1, d2))

    def inverse(self) -> "Moebius":
        # the lower-left entry -c has the known sign -c_sign, which
        # __init__ would decide again
        inv = Moebius.__new__(Moebius)
        inv._store(self.d, -self.b, -self.c, self.a)
        inv.c_sign = -self.c_sign
        return inv

    def trace(self) -> FieldElement:
        return self.a + self.d

    def is_identity(self) -> bool:
        # b = c = 0 and unimodularity force a = d = +-1
        return not self.c_sign and self.b.is_zero() and self.a == self.d

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        mine = (self.a, self.b, self.c, self.d)
        theirs = (other.a, other.b, other.c, other.d)
        return mine == theirs or mine == tuple(-e for e in theirs)

    def __repr__(self):
        return "[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


def lift0_apply(m: Moebius, p: LiftedPoint) -> LiftedPoint:
    """Apply the distinguished lift of ``m`` to a cover point.

    The image's denominator c*u + d*v is signed once.  That sign puts the
    image in canonical form and, times sign(c), picks its level: the point
    moves up exactly when it lies right of the pole -d/c or is the level's
    infinity, where c*u + d*v = c*u has the sign of c.  The pole's image,
    infinity, has numerator a*u + b*v of sign -sign(c), as c*(a*u + b*v) =
    -v < 0; only infinity under c == 0 signs its numerator.
    """
    u, v = p.u, p.v
    denom = mul_add(m.c, u, m.d, v)
    num = mul_add(m.a, u, m.b, v)
    denom_sign = denom.sign()
    q = LiftedPoint.__new__(LiftedPoint)
    q._store(p.wind + (1 if denom_sign * m.c_sign > 0 else 0), num, denom,
             denom_sign != 0, denom_sign or -m.c_sign or num.sign())
    return q


def _cocycle(m1: Moebius, m2: Moebius, prod: Moebius) -> int:
    """Integer k with lift0(m1) lift0(m2) = lift0(m1 m2) T1^k, where
    ``prod`` is the matrix product m1 * m2.

    Follow infinity at level 0: lift0(m2) raises it to a2/c2 at level 1
    when c2 != 0, and lift0(m1) raises that point once more exactly when
    it lies at or right of the pole -d1/c1, while lift0(m1 m2) raises
    infinity once when its lower-left entry c1 a2 + d1 c2, the product's
    c, is nonzero.
    """
    s1, s2 = m1.c_sign, m2.c_sign
    if not (s1 and s2):
        return 0
    return 1 if prod.c_sign * s1 * s2 >= 0 else 0


class LiftedMoebius:
    """lift0(matrix) composed with ``wind`` deck translations; an exact
    element of the lifted transformation group of the cover line."""

    __slots__ = ("matrix", "wind")

    def __init__(self, matrix: Moebius, wind: int = 0):
        self.matrix = matrix
        self.wind = wind

    @classmethod
    def lift0(cls, matrix: Moebius) -> "LiftedMoebius":
        return cls(matrix, 0)

    @classmethod
    def translation(cls, field: NumberField, k: int) -> "LiftedMoebius":
        return cls(Moebius.identity(field), k)

    def apply(self, p: LiftedPoint) -> LiftedPoint:
        q = lift0_apply(self.matrix, p)
        q.wind += self.wind
        return q

    def __mul__(self, other: "LiftedMoebius") -> "LiftedMoebius":
        # composing with a deck translation adds winding only and needs no
        # matrix product
        if self.matrix.is_identity():
            return LiftedMoebius(other.matrix, self.wind + other.wind)
        if other.matrix.is_identity():
            return LiftedMoebius(self.matrix, self.wind + other.wind)
        prod = self.matrix * other.matrix
        k = _cocycle(self.matrix, other.matrix, prod)
        return LiftedMoebius(prod, k + self.wind + other.wind)

    def inverse(self) -> "LiftedMoebius":
        # lift0(m) lift0(m^-1) = T1 when m moves infinity, else identity
        k = 1 if self.matrix.c_sign else 0
        return LiftedMoebius(self.matrix.inverse(), -k - self.wind)

    def __pow__(self, e: int) -> "LiftedMoebius":
        """Square and multiply from the top bit of |e| down."""
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return LiftedMoebius.translation(self.matrix.field, 0)
        acc = self
        for bit in bin(e)[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def is_identity(self) -> bool:
        return self.wind == 0 and self.matrix.is_identity()

    def __eq__(self, other):
        if not isinstance(other, LiftedMoebius):
            return NotImplemented
        return self.wind == other.wind and self.matrix == other.matrix

    def __repr__(self):
        return "LiftedMoebius(%r, wind=%d)" % (self.matrix, self.wind)


# --------------------------------------------------------------------------
# rotations generating the triangle rotation group of Q(2 cos(pi/n))


def order_two_rotation(field: NumberField) -> Moebius:
    """S = [[0, -1], [1, 0]]: the half turn about i."""
    return Moebius(field.zero, -field.one, field.one, field.zero)


def order_n_rotation(field: NumberField) -> Moebius:
    """R = [[0, -1], [1, lambda]]: rotation of order n about a vertex."""
    return Moebius(field.zero, -field.one, field.one, field.lam)
