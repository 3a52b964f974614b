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
which is computed exactly by evaluating both sides at a base point.
All arithmetic is exact over a ``NumberField``.
"""

from __future__ import annotations

from .errors import InternalCheckFailed
from .numberfield import FieldElement, NumberField


class ProjectivePoint:
    """A point [u : v] of the boundary circle, sign-canonicalized so that
    v > 0, or v == 0 and u > 0."""

    __slots__ = ("u", "v", "finite")

    def __init__(self, u: FieldElement, v: FieldElement):
        sv = v.sign()
        if sv < 0 or (sv == 0 and u.sign() < 0):
            u, v = -u, -v
            sv = -sv
        if sv == 0 and u.is_zero():
            raise InternalCheckFailed("[0 : 0] is not a projective point")
        self.u = u
        self.v = v
        self.finite = sv != 0

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (self.u * other.v - other.u * self.v).is_zero()

    def __hash__(self):
        raise TypeError("projective points are not hashable")

    def cmp_finite(self, other: "ProjectivePoint") -> int:
        """Order of two finite points as extended reals u/v."""
        assert self.finite and other.finite
        return (self.u * other.v - other.u * self.v).sign()

    def __repr__(self):
        if not self.finite:
            return "[inf]"
        return "[%r : %r]" % (self.u, self.v)


def infinity(field: NumberField) -> ProjectivePoint:
    return ProjectivePoint(field.one, field.zero)


def boundary_zero(field: NumberField) -> ProjectivePoint:
    return ProjectivePoint(field.zero, field.one)


class LiftedPoint:
    """A point of the cover: level ``wind``, position ``point``.

    Within a level the finite points come first in real order, then the
    level's infinity; then the next level starts.
    """

    __slots__ = ("wind", "point")

    def __init__(self, wind: int, point: ProjectivePoint):
        self.wind = wind
        self.point = point

    def shifted(self, k: int) -> "LiftedPoint":
        return LiftedPoint(self.wind + k, self.point)

    def _cmp(self, other: "LiftedPoint") -> int:
        if self.wind != other.wind:
            return 1 if self.wind > other.wind else -1
        sf, of = self.point.finite, other.point.finite
        if sf and of:
            return self.point.cmp_finite(other.point)
        if sf:
            return -1  # finite sits below the level's infinity
        if of:
            return 1
        return 0

    def __eq__(self, other):
        if not isinstance(other, LiftedPoint):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        raise TypeError("lifted points are not hashable")

    def __repr__(self):
        return "(%d, %r)" % (self.wind, self.point)


class Moebius:
    """A unimodular 2x2 matrix over the field, canonicalized up to sign
    (first nonzero entry positive), acting on projective points."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: NumberField, a, b, c, d, _checked=False):
        if not _checked:
            if (a * d - b * c) != field.one:
                raise InternalCheckFailed("matrix is not unimodular")
            for entry in (a, b, c, d):
                s = entry.sign()
                if s:
                    if s < 0:
                        a, b, c, d = -a, -b, -c, -d
                    break
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field: NumberField) -> "Moebius":
        return cls(field, field.one, field.zero, field.zero, field.one,
                   _checked=True)

    def __mul__(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def inverse(self) -> "Moebius":
        return Moebius(self.field, self.d, -self.b, -self.c, self.a)

    def __pow__(self, e: int) -> "Moebius":
        if e < 0:
            return self.inverse() ** (-e)
        acc, base = Moebius.identity(self.field), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(self.a * p.u + self.b * p.v,
                               self.c * p.u + self.d * p.v)

    def trace(self) -> FieldElement:
        return self.a + self.d

    def is_identity(self) -> bool:
        return self == Moebius.identity(self.field)

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == \
            (other.a, other.b, other.c, other.d)

    def __hash__(self):
        raise TypeError("moebius matrices are not hashable")

    def __repr__(self):
        return "[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


def lift0_apply(m: Moebius, p: LiftedPoint) -> LiftedPoint:
    """Apply the distinguished lift of ``m`` to a cover point."""
    q = m.apply(p.point)
    if m.c.is_zero():
        return LiftedPoint(p.wind, q)
    if not p.point.finite:
        return LiftedPoint(p.wind + 1, q)
    # position of u/v relative to the pole -d/c, via sign((c*u + d*v) * c)
    s = (m.c * p.point.u + m.d * p.point.v).sign() * m.c.sign()
    return LiftedPoint(p.wind + (1 if s > 0 else 0), q)


def _base_point(field: NumberField) -> LiftedPoint:
    return LiftedPoint(0, boundary_zero(field))


def _cocycle(m1: Moebius, m2: Moebius, prod: Moebius) -> int:
    """Integer k with lift0(m1) lift0(m2) = lift0(prod) T1^k."""
    p = _base_point(m1.field)
    z1 = lift0_apply(m1, lift0_apply(m2, p))
    z2 = lift0_apply(prod, p)
    if z1.point != z2.point:
        raise InternalCheckFailed(
            "lift cocycle: projections disagree at the base point")
    return z1.wind - z2.wind


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
        return lift0_apply(self.matrix, p).shifted(self.wind)

    def __mul__(self, other: "LiftedMoebius") -> "LiftedMoebius":
        # lift0 of the identity matrix is the identity map, so composing
        # with a deck translation never shifts the cocycle
        if self.matrix.is_identity():
            return LiftedMoebius(other.matrix, self.wind + other.wind)
        if other.matrix.is_identity():
            return LiftedMoebius(self.matrix, self.wind + other.wind)
        prod = self.matrix * other.matrix
        k = _cocycle(self.matrix, other.matrix, prod)
        return LiftedMoebius(prod, k + self.wind + other.wind)

    def inverse(self) -> "LiftedMoebius":
        inv = self.matrix.inverse()
        k = _cocycle(self.matrix, inv, Moebius.identity(self.matrix.field))
        return LiftedMoebius(inv, -k - self.wind)

    def __pow__(self, e: int) -> "LiftedMoebius":
        if e < 0:
            return self.inverse() ** (-e)
        acc = LiftedMoebius.translation(self.matrix.field, 0)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.wind == 0 and self.matrix.is_identity()

    def __eq__(self, other):
        if not isinstance(other, LiftedMoebius):
            return NotImplemented
        return self.wind == other.wind and self.matrix == other.matrix

    def __hash__(self):
        raise TypeError("lifted moebius maps are not hashable")

    def __repr__(self):
        return "LiftedMoebius(%r, wind=%d)" % (self.matrix, self.wind)


# --------------------------------------------------------------------------
# rotations generating the triangle rotation group of Q(2 cos(pi/n))


def order_two_rotation(field: NumberField) -> Moebius:
    """S = [[0, -1], [1, 0]]: the half turn about i."""
    return Moebius(field, field.zero, -field.one, field.one, field.zero)


def order_n_rotation(field: NumberField) -> Moebius:
    """R = [[0, -1], [1, lambda]]: rotation of order n about a vertex."""
    return Moebius(field, field.zero, -field.one, field.one, field.lam)
