"""Exact arithmetic in the ring Z[lambda], lambda = 2 cos(pi/n).

For odd n >= 3 the number lambda = 2 cos(pi/n) is an algebraic integer of
degree phi(n)/2.  With m = (n-1)/2, the polynomial E_n(t + 1/t) =
(t^n + 1) / (t^m (t + 1)) has the roots 2 cos(k pi/n) for odd k < n, so
the minimal polynomial psi_n is E_n divided by psi_e for every divisor
1 < e < n of n.  E_n is summed in x = t + 1/t by the Chebyshev-style
recursion t^j + t^-j = C_j(x), C_(j+1) = x*C_j - C_(j-1).

Elements are integer coordinate vectors in the power basis 1, lambda, ...,
lambda^(d-1).  The ring is closed under +, - and *, which is all the G1
realization needs: every matrix entry it builds lies in Z[lambda], and it
never divides.

Signs are exact, and every step is in integers.  At construction the
field certifies an isolating interval [a/Q, b/Q] for lambda (the largest
real root of its minimal polynomial) by one Descartes count, narrows it
below width 2^-(K+8) by integer bisection over one common denominator,
and stores the bound table floor(a^i * 2^K / Q^i) <= lambda^i * 2^K <=
ceil(b^i * 2^K / Q^i) (a > 0, so the powers are monotone).  K is
max(128, 2 * degree): the table's error grows like 2^i, so a fixed K
would fail to settle signs at high degree.  Every sign is decided by one
method, ``NumberField.sign_of(coordinates)``, which ``FieldElement.sign``
calls and code working on raw coordinate tuples calls directly.  It forms
the integer lower and upper bounds of 2^K * value from that table and
answers when they exclude zero.  When they do not, it doubles K, narrows a local copy
of the interval below 2^-(K+8) the same way, rebuilds the table and tests
again.  Nothing is written to the field: a field is immutable after
construction, so every sign is independent of the queries made before it.

``mul_add(x1, y1, x2, y2)`` is the fused product x1*y1 + x2*y2, reduced
by the minimal polynomial once.  Each ring generates its kernel at
construction from its degree and the reduction rows of lambda^k,
k >= degree: straight-line source that names every convolution term and
folds the reduction into the returned coordinates.  It is compiled once
with ``exec``, as ``collections.namedtuple`` does, and has no loop and no
zero test.  ``x * y`` runs the same kernel with a zero second pair.  A
2x2 matrix product over the ring is four of them:

>>> f = real_cyclotomic_field(5)
>>> mul_add(f.lam, f.lam, f.one, -f.lam) == f.one   # lambda^2 - lambda
True
>>> mul_add(f.lam, f.lam, f.lam, f.one)             # lambda^2 + lambda
<1 + 2*L^1>
"""

from __future__ import annotations

import operator
from math import cos, pi
from typing import Callable, Sequence

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


def _pdivmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    """Division with remainder by a monic q, in integers."""
    rem = list(p)
    quo = [0] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        c = quo[k] = rem[-1]
        for i, b in enumerate(q):
            rem[i + k] -= c * b
        _trim(rem)
    return _trim(quo), rem


def _phom(p: Sequence, m: int, q: int) -> int:
    """q^deg(p) * p(m/q), which has the sign of p(m/q) for q > 0: a Horner
    sum in m whose coefficients c_i * q^(deg(p)-i) are formed on the way."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * m + c * scale
        scale *= q
    return acc


def minimal_polynomial(n: int) -> list[int]:
    """Monic integer minimal polynomial of 2*cos(pi/n), n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3, got %r" % (n,))
    if n not in _MINIMAL_POLYNOMIALS:
        # E_n = sum over |j| <= m of (-1)^(m-j) t^j, with t^j + t^-j = C_j(x)
        m = (n - 1) // 2
        psi, c_prev, c_cur = [(-1) ** m], [2], [0, 1]
        for j in range(1, m + 1):
            psi = _padd(psi, _pscale(c_cur, (-1) ** (m - j)))
            c_prev, c_cur = c_cur, _padd([0] + c_cur, _pscale(c_prev, -1))
        for e in range(3, n, 2):
            if n % e == 0:
                psi, rem = _pdivmod(psi, minimal_polynomial(e))  # monic
                assert not rem
        _MINIMAL_POLYNOMIALS[n] = tuple(psi)
    return list(_MINIMAL_POLYNOMIALS[n])


# --------------------------------------------------------------------------
# Descartes' rule of signs, for certifying the isolating interval


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descartes_count(psi: Sequence, a: int, q: int) -> int:
    """The sign variations of q^d * psi((x + a)/q), q > 0, by a Taylor
    shift of psi's coefficients scaled by q^(d-i), with no division.  By
    Descartes' rule they bound the roots of psi above a/q, counted with
    multiplicity, and share their parity, so 1 means exactly one root;
    (x^2 + 1)(x - 2) has one real root above 0 and three variations:

    >>> _descartes_count((-2, 1, -2, 1), 0, 1)
    3
    """
    d = len(psi) - 1
    p = [c * q ** (d - i) for i, c in enumerate(psi)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            p[j] += a * p[j + 1]
    return _variations(p)


# --------------------------------------------------------------------------
# the integer bound table


# K: the bound table holds lambda^i scaled by 2^K.  A larger K settles more
# signs in the first test at the cost of wider integers.  Each ring takes
# K = max(_FILTER_BITS, 2 * degree), since the table's error grows like 2^i.
_FILTER_BITS = 128


def _narrowed(psi: Sequence, a: int, b: int, q: int, bits: int) \
        -> tuple[int, int, int]:
    """[a/q, b/q] bisected around the simple root of psi below width
    2^-(bits+8), where psi(a/q) < 0 < psi(b/q), as (a', b', Q) over one
    common denominator Q = q * 2^s; (m, m, Q) if a midpoint m/Q is the
    root.  The midpoint m/Q has the sign of Q^d * psi(m/Q), a Horner sum
    in m whose coefficients c_i * q^(d-i) * 2^(s*(d-i)) shift terms formed
    once.  For n = 5, 828/512 < (1 + sqrt(5))/2 < 829/512:

    >>> _narrowed((-1, -1, 1), 1, 2, 1, 0)
    (828, 829, 512)
    """
    terms = [c * q ** k for k, c in enumerate(reversed(psi))]
    s = 0
    while (b - a) << (bits + 8) >= q << s:
        m = a + b
        a, b, s = 2 * a, 2 * b, s + 1
        value = 0
        for k, t in enumerate(terms):
            value = value * m + (t << k * s)
        if value == 0:
            return m, m, q << s
        a, b = (m, b) if value < 0 else (a, m)
    return a, b, q << s


def _bound_table(degree: int, a: int, b: int, q: int, bits: int) \
        -> tuple[tuple[int, ...], tuple[int, ...]]:
    """floor(a^i * 2^bits / q^i) and ceil(b^i * 2^bits / q^i) for
    i < degree; they enclose lambda^i * 2^bits because 0 < a/q <= lambda
    <= b/q (the interval is certified around 2*cos(pi/n) >= 1)."""
    lows, highs = [], []
    a_i = b_i = q_i = 1
    for _ in range(degree):
        lows.append((a_i << bits) // q_i)
        highs.append(-((-b_i << bits) // q_i))
        a_i, b_i, q_i = a_i * a, b_i * b, q_i * q
    return tuple(lows), tuple(highs)


# --------------------------------------------------------------------------
# the product kernel, generated per ring


def _compile_mul_add(n: int, degree: int, reduction) -> Callable:
    """The straight-line kernel (x, y, u, v) -> coordinates of x*y + u*v
    for coordinate tuples of length ``degree``: every convolution term
    written out, and each coefficient of lambda^k, k >= degree, folded
    into the returned tuple through its ``reduction`` row.  The source
    holds only names and integers; it is compiled once per ring."""
    d = degree

    def conv(k):
        return " + ".join("%s%d*%s%d" % (p, i, q, k - i)
                          for p, q in ("xy", "uv")
                          for i in range(max(0, k - d + 1), min(k, d - 1) + 1))

    lines = ["def mul_add(x, y, u, v):"]
    lines += ["    %s, = %s" % (", ".join("%s%d" % (v, i) for i in range(d)), v)
              for v in "xyuv"]
    lines += ["    c%d = %s" % (k, conv(k))
              for k, row in enumerate(reduction, d) if row]
    coords = [conv(i) for i in range(d)]
    for k, row in enumerate(reduction, d):
        for i, r in row:
            coords[i] += " %s %sc%d" % ("-" if r < 0 else "+",
                                       "" if abs(r) == 1 else "%d*" % abs(r),
                                       k)
    lines.append("    return (%s,)" % ", ".join(coords))
    namespace: dict = {}
    exec(compile("\n".join(lines), "<mul_add kernel, n=%d>" % n, "exec"),
         namespace)
    return namespace["mul_add"]


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
        # the nonzero (index, coefficient) pairs of lambda^k reduced to the
        # power basis, for k = degree .. 2*degree - 2, from lambda^(degree-1)
        d = self.degree
        vec = [0] * (d - 1) + [1]
        rows = []
        for _ in range(d - 1):
            top = vec[d - 1]
            vec = [0] + vec[:d - 1]
            if top:
                for i in range(d):
                    vec[i] -= top * self.psi[i]
            rows.append(tuple((i, r) for i, r in enumerate(vec) if r))
        self._reduction = tuple(rows)
        self._mul_add = _compile_mul_add(n, d, self._reduction)
        self._bits = max(_FILTER_BITS, 2 * d)
        # (a, b, Q): lambda lies in [a/Q, b/Q], of width below 2^-(K+8)
        self._interval = _narrowed(self.psi, *self._certify_interval(),
                                   self._bits)
        self._bounds = _bound_table(d, *self._interval, self._bits)
        self.zero = self.element([0])
        self.one = self.element([1])
        self.lam = self.element([0, 1] if d > 1 else [-self.psi[0]])

    def _certify_interval(self) -> tuple[int, int, int]:
        """(a, b, 10^12) with lambda the only root of psi in [a, b] / 10^12
        and none above it: the floating seed 2*cos(pi/n), rounded to
        12 decimals, plus and minus 10^-6, 10^-9 or 10^-12: the first
        with psi(a) < 0 < psi(b) and a Descartes count of 1 above a."""
        q = 10 ** 12
        seed = round(2 * cos(pi / self.n) * q)
        for exponent in (6, 9, 12):
            a, b = seed - 10 ** (12 - exponent), seed + 10 ** (12 - exponent)
            if _phom(self.psi, a, q) < 0 < _phom(self.psi, b, q) \
                    and _descartes_count(self.psi, a, q) == 1:
                return a, b, q
        raise ConstructionFailed(
            "cannot certify an isolating interval for the largest root "
            "of %s near 2*cos(pi/%d)" % (list(self.psi), self.n))

    def sign_of(self, coeffs: tuple) -> int:
        """Exact sign, -1, 0 or +1, of the element with coordinate tuple
        ``coeffs``: the one sign decision of the ring.

        The bound table settles almost every sign.  Otherwise the loop
        doubles K, narrows a local copy of the interval and tests again
        with a rebuilt table.  Nothing is written to the field."""
        if not any(coeffs):
            return 0
        bounds, bits = self._bounds, self._bits
        a, b, q = self._interval
        while True:
            low = high = 0
            for c, lo_i, hi_i in zip(coeffs, *bounds):
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
            if a == b:  # lambda = a/q is rational: evaluate exactly
                v = _phom(coeffs, a, q)
                return (v > 0) - (v < 0)
            bits *= 2
            a, b, q = _narrowed(self.psi, a, b, q, bits)
            bounds = _bound_table(self.degree, a, b, q, bits)

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


_MINIMAL_POLYNOMIALS: dict[int, tuple[int, ...]] = {}
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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field,
                            tuple(map(operator.add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field,
                            tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        zero = field.zero.coeffs
        return FieldElement(field, field._mul_add(self.coeffs, other.coeffs,
                                                  zero, zero))

    __rmul__ = __mul__

    # --------------------------------------------------------------- sign

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1, by the ring's ``sign_of``."""
        return self.field.sign_of(self.coeffs)

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
# the fused product


def mul_add(x1: FieldElement, y1: FieldElement,
            x2: FieldElement, y2: FieldElement) -> FieldElement:
    """x1*y1 + x2*y2 with one reduction; all four lie in one field."""
    field = x1.field
    if not (y1.field is field and x2.field is field and y2.field is field):
        for e in (y1, x2, y2):
            x1._coerce(e)  # a foreign element raises ValueError
    return FieldElement(field, field._mul_add(x1.coeffs, y1.coeffs,
                                              x2.coeffs, y2.coeffs))
