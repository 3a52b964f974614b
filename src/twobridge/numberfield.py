"""Exact arithmetic in the real cyclotomic field Q(lambda), lambda = 2 cos(pi/n).

For odd n >= 3 the number lambda = 2 cos(pi/n) is an algebraic integer of
degree phi(n)/2.  Its minimal polynomial is extracted from the cyclotomic
polynomial Phi_2n(t) by the palindromic substitution y = t + 1/t, using the
Chebyshev-style recursion t^k + t^-k = p_k(y), p_(k+1) = y*p_k - p_(k-1).

Elements are coordinate vectors in the power basis 1, lambda, ...,
lambda^(d-1).  Integral coordinates are Python ints and only genuinely
fractional ones are Fractions, so the ring Z[lambda], which holds every
matrix entry the G1 realization builds, is computed in integers
throughout.  Fractions enter only through division or fractional input.

Signs are decided in two stages, both exact.  At construction the field
certifies an isolating interval [lo, hi] for lambda (the largest real root
of its minimal polynomial) by Sturm sequences, bisects it below width
2^-(_FILTER_BITS+8), and stores the integer bound table
floor(lo^i * 2^K) <= lambda^i * 2^K <= ceil(hi^i * 2^K), K = _FILTER_BITS
(lo > 0, so the powers are monotone).  ``sign()`` first forms the integer
lower and upper bounds of 2^K * value from that table and answers when they
exclude zero.  Only when they do not does it fall back to interval Horner
evaluation on a local copy of the certified interval, bisecting until zero
is excluded.  Neither stage writes to the field: a field is immutable after
construction, so every sign is independent of the queries made before it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import ceil, cos, floor, pi
from typing import Sequence

from .errors import ConstructionFailed

# --------------------------------------------------------------------------
# dense polynomials as coefficient lists, index = degree


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p: Sequence, q: Sequence) -> list:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pscale(p: Sequence, c) -> list:
    return _trim([c * a for a in p])


def _pmul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _pdivmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    """Division with remainder over the rationals."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    den = [Fraction(c) for c in q]
    quo = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        k = len(rem) - len(den)
        c = rem[-1] / den[-1]
        quo[k] = c
        for i, b in enumerate(den):
            rem[i + k] -= c * b
        _trim(rem)
    return _trim(quo), rem


def _peval(p: Sequence, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pderiv(p: Sequence) -> list:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _cyclotomic(m: int, _cache: dict = {}) -> list[int]:
    """Integer coefficients of the m-th cyclotomic polynomial."""
    if m not in _cache:
        if m == 1:
            _cache[m] = [-1, 1]
        else:
            num = [-1] + [0] * (m - 1) + [1]
            den = [1]
            for d in range(1, m):
                if m % d == 0:
                    den = _pmul(den, _cyclotomic(d))
            quo, rem = _pdivmod(num, den)
            assert not rem and all(c.denominator == 1 for c in quo)
            _cache[m] = [int(c) for c in quo]
    return list(_cache[m])


def minimal_polynomial(n: int) -> list[int]:
    """Monic integer minimal polynomial of 2*cos(pi/n), n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3, got %r" % (n,))
    phi = _cyclotomic(2 * n)
    half = (len(phi) - 1) // 2
    psi = [phi[half]]
    p_prev, p_cur = [2], [0, 1]
    for k in range(1, half + 1):
        psi = _padd(psi, _pscale(p_cur, phi[half + k]))
        p_prev, p_cur = p_cur, _padd([0] + p_cur, _pscale(p_prev, -1))
    assert psi[-1] == 1
    return psi


# --------------------------------------------------------------------------
# Sturm chains, for certifying the isolating interval


def _sturm_chain(psi: Sequence) -> list[list[Fraction]]:
    chain = [[Fraction(c) for c in psi]]
    chain.append([Fraction(c) for c in _pderiv(psi)])
    while chain[-1]:
        _, rem = _pdivmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots_in(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    return (_variations(_peval(p, lo) for p in chain)
            - _variations(_peval(p, hi) for p in chain))


def _count_roots_above(chain, lo: Fraction) -> int:
    """Distinct real roots in (lo, +infinity)."""
    at_inf = _variations(p[-1] for p in chain if p)
    return _variations(_peval(p, lo) for p in chain) - at_inf


def _bisect(psi: Sequence, lo: Fraction, hi: Fraction) \
        -> tuple[Fraction, Fraction]:
    """The half of [lo, hi] that keeps the simple root of psi, where
    psi(lo) < 0 < psi(hi); (mid, mid) if the midpoint is the root."""
    mid = (lo + hi) / 2
    s = _peval(psi, mid)
    if s == 0:
        return mid, mid
    return (mid, hi) if s < 0 else (lo, mid)


# --------------------------------------------------------------------------
# sign decisions


# K: the bound table holds lambda^i scaled by 2^K.  A larger K settles more
# signs in the integer filter at the cost of wider integers.
_FILTER_BITS = 128


def _interval_mul(a, b, lo, hi):
    cands = (a * lo, a * hi, b * lo, b * hi)
    return min(cands), max(cands)


def _refined_sign(coeffs: Sequence, psi: Sequence, lo: Fraction,
                  hi: Fraction) -> int:
    """Exact sign of a nonzero sum coeffs[i] * lambda^i by interval Horner
    evaluation, bisecting the isolating interval [lo, hi] of lambda until
    the enclosure excludes zero."""
    while True:
        if lo == hi:
            v = _peval(coeffs, lo)
            return 1 if v > 0 else (-1 if v < 0 else 0)
        mn = mx = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            mn, mx = _interval_mul(mn, mx, lo, hi)
            mn, mx = mn + c, mx + c
        if mn > 0:
            return 1
        if mx < 0:
            return -1
        lo, hi = _bisect(psi, lo, hi)


# --------------------------------------------------------------------------
# the field


class NumberField:
    """Q(lambda) for lambda = 2*cos(pi/n), with exact sign decisions.

    The minimal polynomial may be overridden (``_minpoly`` keyword) to
    exercise the failure path: construction re-derives and certifies an
    isolating interval for the largest real root and checks it against a
    floating seed for 2*cos(pi/n), raising ConstructionFailed when the
    polynomial cannot be certified.
    """

    def __init__(self, n: int, _minpoly: Sequence[int] | None = None):
        if n < 3 or n % 2 == 0:
            raise ValueError("n must be odd and >= 3, got %r" % (n,))
        self.n = n
        psi = list(_minpoly) if _minpoly is not None else minimal_polynomial(n)
        if not psi or psi[-1] != 1 or len(psi) < 2:
            raise ConstructionFailed(
                "minimal polynomial for n=%d is not monic of degree >= 1" % n)
        self.psi = tuple(int(c) for c in psi)
        self.degree = len(psi) - 1
        # lambda^k for k = 0 .. 2*degree - 2, reduced to the power basis
        d = self.degree
        table = [[0] * d for _ in range(2 * d - 1)]
        vec = [0] * d
        vec[0] = 1
        for k in range(2 * d - 1):
            table[k] = list(vec)
            top = vec[d - 1]
            vec = [0] + vec[:d - 1]
            if top:
                for i in range(d):
                    vec[i] -= top * self.psi[i]
        # the nonzero (index, coefficient) pairs of lambda^k, k >= degree
        self._reduction = tuple(
            tuple((i, r) for i, r in enumerate(table[k]) if r)
            for k in range(d, 2 * d - 1))
        self._interval = self._narrowed(self._certify_interval())
        self._bounds = self._bound_table()
        self.zero = self.element([0])
        self.one = self.element([1])
        self.lam = self.element([0, 1] if d > 1 else [-self.psi[0]])

    def _certify_interval(self) -> tuple[Fraction, Fraction]:
        seed = Fraction(2 * cos(pi / self.n)).limit_denominator(10 ** 12)
        chain = _sturm_chain(self.psi)
        for exponent in (6, 9, 12):
            eps = Fraction(1, 10 ** exponent)
            lo, hi = seed - eps, seed + eps
            if _peval(self.psi, lo) < 0 < _peval(self.psi, hi) \
                    and _count_roots_in(chain, lo, hi) == 1 \
                    and _count_roots_above(chain, lo) == 1:
                return lo, hi
        raise ConstructionFailed(
            "cannot certify an isolating interval for the largest root "
            "of %s near 2*cos(pi/%d)" % (list(self.psi), self.n))

    def _narrowed(self, interval: tuple[Fraction, Fraction]) \
            -> tuple[Fraction, Fraction]:
        lo, hi = interval
        width = Fraction(1, 1 << (_FILTER_BITS + 8))
        while hi - lo >= width:
            lo, hi = _bisect(self.psi, lo, hi)
        return lo, hi

    def _bound_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """floor(lo^i * 2^K) and ceil(hi^i * 2^K) for i < degree; they
        enclose lambda^i * 2^K because 0 < lo <= lambda <= hi (the interval
        is certified around 2*cos(pi/n) >= 1)."""
        lo, hi = self._interval
        scale = 1 << _FILTER_BITS
        return (tuple(floor(lo ** i * scale) for i in range(self.degree)),
                tuple(ceil(hi ** i * scale) for i in range(self.degree)))

    # -------------------------------------------------------- constructors

    def element(self, coeffs) -> "FieldElement":
        vec = [_coordinate(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("expected at most %d coordinates" % self.degree)
        vec += [0] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def __repr__(self):
        return "NumberField(n=%d, degree=%d)" % (self.n, self.degree)

    def __eq__(self, other):
        return isinstance(other, NumberField) and \
            (self.n, self.psi) == (other.n, other.psi)

    def __hash__(self):
        return hash((self.n, self.psi))


_FIELDS: dict[int, NumberField] = {}


def real_cyclotomic_field(n: int) -> NumberField:
    """Cached field Q(2*cos(pi/n)) for odd n >= 3."""
    if n not in _FIELDS:
        _FIELDS[n] = NumberField(n)
    return _FIELDS[n]


# --------------------------------------------------------------------------
# elements


def _coordinate(c):
    """An exact coordinate: an int when integral, a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class FieldElement:
    """An element of Q(lambda), exact and totally ordered."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    # ----------------------------------------------------------- ring ops

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field,
                            tuple(map(operator.add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        conv = [0] * (2 * d - 1)
        b = o.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for k, c in enumerate(b, i):
                    conv[k] += a * c
        out = conv[:d]
        for k, row in enumerate(self.field._reduction, d):
            c = conv[k]
            if c:
                for i, r in row:
                    out[i] += c * r
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid: u*self + v*psi = 1 in Q[x]
        r0 = [Fraction(c) for c in self.field.psi]
        r1 = _trim(list(self.coeffs))
        u0, u1 = [], [Fraction(1)]
        while True:
            quo, rem = _pdivmod(r0, r1)
            if not rem:
                break
            u0, u1 = u1, _padd(u0, _pscale(_pmul(quo, u1), -1))
            r0, r1 = r1, rem
        lead = r1[-1]  # gcd is the nonzero constant r1 (psi irreducible)
        if len(r1) != 1:
            raise ConstructionFailed(
                "minimal polynomial is reducible: gcd has degree %d"
                % (len(r1) - 1))
        return self.field.element([c / lead for c in u1])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # --------------------------------------------------------- comparisons

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        The integer bound table settles almost every sign; the rest go to
        exact interval refinement.  Nothing is written to the field."""
        if self.is_zero():
            return 0
        field = self.field
        low = high = 0
        for c, lo_i, hi_i in zip(self.coeffs, *field._bounds):
            if c > 0:
                low += c * lo_i
                high += c * hi_i
            elif c:
                low += c * hi_i
                high += c * lo_i
        if low > 0:
            return 1
        if high < 0:
            return -1
        return _refined_sign(self.coeffs, field.psi, *field._interval)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*L^%d" % (c, i) if i else str(c))
        return "<%s>" % (" + ".join(terms) or "0")
