"""Exact arithmetic in the ring Z[lambda], lambda = 2 cos(pi/n).

For odd n >= 3 the number lambda = 2 cos(pi/n) is an algebraic integer of
degree phi(n)/2.  Its minimal polynomial is extracted from the cyclotomic
polynomial Phi_2n(t) by the palindromic substitution y = t + 1/t, using the
Chebyshev-style recursion t^k + t^-k = p_k(y), p_(k+1) = y*p_k - p_(k-1).

Elements are integer coordinate vectors in the power basis 1, lambda, ...,
lambda^(d-1).  The ring is closed under +, - and *, which is all the G1
realization needs: every matrix entry it builds lies in Z[lambda], and it
never divides.

Signs are exact.  At construction the field certifies an isolating interval
[lo, hi] for lambda (the largest real root of its minimal polynomial) by
Sturm sequences, bisects it below width 2^-(K+8), K = _FILTER_BITS, and
stores the integer bound table
floor(lo^i * 2^K) <= lambda^i * 2^K <= ceil(hi^i * 2^K)
(lo > 0, so the powers are monotone).  ``sign()`` forms the integer lower
and upper bounds of 2^K * value from that table and answers when they
exclude zero.  When they do not, it doubles K, bisects a local copy of the
interval below 2^-(K+8), rebuilds the table and tests again.  Nothing is
written to the field: a field is immutable after construction, so every
sign is independent of the queries made before it.

``mul_add(x1, y1, x2, y2)`` is the fused kernel for x1*y1 + x2*y2: both
convolutions run into one buffer, which is reduced by the minimal
polynomial once.  A 2x2 matrix product over the ring is four of them:

>>> f = real_cyclotomic_field(5)
>>> mul_add(f.lam, f.lam, f.one, -f.lam) == f.one   # lambda^2 - lambda
True
>>> mul_add(f.lam, f.lam, f.lam, f.one)             # lambda^2 + lambda
<1 + 2*L^1>
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
# the integer bound table


# K: the bound table holds lambda^i scaled by 2^K.  A larger K settles more
# signs in the first test at the cost of wider integers.
_FILTER_BITS = 128


def _narrowed(psi: Sequence, lo: Fraction, hi: Fraction, bits: int) \
        -> tuple[Fraction, Fraction]:
    """[lo, hi] bisected around the root of psi below width 2^-(bits+8)."""
    width = Fraction(1, 1 << (bits + 8))
    while hi - lo >= width:
        lo, hi = _bisect(psi, lo, hi)
    return lo, hi


def _bound_table(degree: int, lo: Fraction, hi: Fraction, bits: int) \
        -> tuple[tuple[int, ...], tuple[int, ...]]:
    """floor(lo^i * 2^bits) and ceil(hi^i * 2^bits) for i < degree; they
    enclose lambda^i * 2^bits because 0 < lo <= lambda <= hi (the interval
    is certified around 2*cos(pi/n) >= 1)."""
    scale = 1 << bits
    return (tuple(floor(lo ** i * scale) for i in range(degree)),
            tuple(ceil(hi ** i * scale) for i in range(degree)))


# --------------------------------------------------------------------------
# the ring


class NumberField:
    """Z[lambda] for lambda = 2*cos(pi/n), with exact sign decisions.

    The minimal polynomial may be overridden (``_minpoly`` keyword) to
    exercise the failure path: construction re-derives and certifies an
    isolating interval for the largest real root and checks it against a
    floating seed for 2*cos(pi/n), raising ConstructionFailed when the
    polynomial is not monic of the true degree or cannot be certified.
    """

    def __init__(self, n: int, _minpoly: Sequence[int] | None = None):
        if n < 3 or n % 2 == 0:
            raise ValueError("n must be odd and >= 3, got %r" % (n,))
        self.n = n
        psi = minimal_polynomial(n)
        if _minpoly is not None:
            # a multiple of the true polynomial would certify the same
            # root, and sign() could then never exclude zero
            if len(_minpoly) != len(psi) or _minpoly[-1] != 1:
                raise ConstructionFailed(
                    "minimal polynomial for n=%d must be monic of degree %d"
                    % (n, len(psi) - 1))
            psi = list(_minpoly)
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
        self._interval = _narrowed(self.psi, *self._certify_interval(),
                                   _FILTER_BITS)
        self._bounds = _bound_table(d, *self._interval, _FILTER_BITS)
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

    # -------------------------------------------------------- constructors

    def element(self, coeffs) -> "FieldElement":
        """The element with integer coordinates ``coeffs`` in the power
        basis; a non-integer coordinate raises TypeError."""
        vec = [operator.index(c) for c in coeffs]
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
    """Cached ring Z[2*cos(pi/n)] for odd n >= 3."""
    if n not in _FIELDS:
        _FIELDS[n] = NumberField(n)
    return _FIELDS[n]


# --------------------------------------------------------------------------
# elements


class FieldElement:
    """An element of Z[lambda]: exact, with an exact sign."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element([other])
        return NotImplemented

    # ----------------------------------------------------------- ring ops
    # Each operator takes an element of its own field without a call to
    # _coerce; ints and equal fields built apart go through it.

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return FieldElement(self.field,
                            tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return FieldElement(self.field,
                            tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum_of_products(self.field, ((self.coeffs, other.coeffs),))

    __rmul__ = __mul__

    # --------------------------------------------------------------- sign

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        The field's bound table settles almost every sign.  Otherwise the
        loop doubles K, narrows a local copy of the interval and tests
        again with a rebuilt table.  Nothing is written to the field."""
        if self.is_zero():
            return 0
        field = self.field
        bounds, bits = field._bounds, _FILTER_BITS
        lo, hi = field._interval
        while True:
            low = high = 0
            for c, lo_i, hi_i in zip(self.coeffs, *bounds):
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
            if lo == hi:  # lambda is a rational root: evaluate exactly
                v = _peval(self.coeffs, lo)
                return (v > 0) - (v < 0)
            bits *= 2
            lo, hi = _narrowed(field.psi, lo, hi, bits)
            bounds = _bound_table(field.degree, lo, hi, bits)

    def __eq__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*L^%d" % (c, i) if i else str(c))
        return "<%s>" % (" + ".join(terms) or "0")


# --------------------------------------------------------------------------
# the product kernel


def _sum_of_products(field: NumberField, pairs) -> FieldElement:
    """The sum of x*y over the (x, y) coordinate pairs: every convolution
    runs into one buffer, which is reduced to the power basis once."""
    d = field.degree
    conv = [0] * (2 * d - 1)
    for xs, ys in pairs:
        i = 0
        for a in xs:
            if a:
                k = i
                for c in ys:
                    conv[k] += a * c
                    k += 1
            i += 1
    out = conv[:d]
    for k, row in enumerate(field._reduction, d):
        c = conv[k]
        if c:
            for i, r in row:
                out[i] += c * r
    return FieldElement(field, tuple(out))


def mul_add(x1: FieldElement, y1: FieldElement,
            x2: FieldElement, y2: FieldElement) -> FieldElement:
    """x1*y1 + x2*y2 with one reduction; all four lie in one field."""
    field = x1.field
    if not (y1.field is field and x2.field is field and y2.field is field):
        for e in (y1, x2, y2):
            x1._coerce(e)  # a foreign element raises ValueError
    return _sum_of_products(field, ((x1.coeffs, y1.coeffs),
                                    (x2.coeffs, y2.coeffs)))
