"""Alexander polynomials by Fox calculus, and the L-space obstruction.

A two-bridge knot with lens parameters (p, q) has the two-meridian
presentation < u, v : W u W^-1 v^-1 > where W = u^e1 v^e2 u^e3 ... v^e(p-1)
alternates u, v and e_i = (-1)^floor(i*q/p).  The Alexander polynomial is
the u-Fox-derivative of the relator, abelianized (u, v -> t):

    A(t) = (1 - t) * d(W) + t^E,   E = sum(e_i),

with d(W) the abelianized Fox derivative of W with respect to u.  The
alternating pattern is only correct for odd q; since the polynomial is
mirror-invariant we replace an even q by p - q.

Laurent polynomials are dicts {exponent: nonzero int coefficient},
normalized symmetric: centered at exponent 0, coefficient(e) =
coefficient(-e), top coefficient positive.
"""

from enum import Enum
from typing import NamedTuple

from .cfrac import TwoBridgeParams, genus, is_fibered
from .errors import InternalCheckFailed, NotNormalized

LaurentPoly = dict


def evaluate(poly: LaurentPoly, t):
    """Evaluate exactly at a nonzero integer or Fraction t = u/v: an int
    when the value is integral, a Fraction otherwise.  The sum is formed
    in integers as num/den, den = v^top * u^bottom, with top and bottom
    the largest positive and negative exponents (0 if there are none)."""
    u, v = t.numerator, t.denominator
    top, bottom = max([0, *poly]), -min([0, *poly])
    num = sum(c * u ** (e + bottom) * v ** (top - e) for e, c in poly.items())
    den = v ** top * u ** bottom
    if num % den == 0:
        return num // den
    from fractions import Fraction

    return Fraction(num, den)


def span(poly: LaurentPoly) -> int:
    if not poly:
        return 0
    return max(poly) - min(poly)


def is_symmetric(poly: LaurentPoly) -> bool:
    return all(poly.get(-e) == c for e, c in poly.items())


def is_monic(poly: LaurentPoly) -> bool:
    """Top coefficient is a unit (the fiberedness side of the
    monic <=> fibered criterion for alternating knots)."""
    return bool(poly) and abs(poly[max(poly)]) == 1


def normalize_symmetric(poly: LaurentPoly) -> LaurentPoly:
    """Center the exponents at 0, make the top coefficient positive, and
    verify exact palindromic symmetry; raises InternalCheckFailed if the
    input is not symmetric up to a unit (bug signal for knot input)."""
    poly = {e: c for e, c in poly.items() if c != 0}
    if not poly:
        raise InternalCheckFailed("zero polynomial cannot be normalized")
    lo, hi = min(poly), max(poly)
    if (lo + hi) % 2 != 0:
        raise InternalCheckFailed("odd exponent span %d..%d" % (lo, hi))
    shift = -(lo + hi) // 2
    out = {e + shift: c for e, c in poly.items()}
    if out[max(out)] < 0:
        out = {e: -c for e, c in out.items()}
    if not is_symmetric(out):
        raise InternalCheckFailed("polynomial is not symmetric: %r" % (out,))
    return out


def schubert_exponents(p: int, q: int):
    """The alternating exponent pattern e_i = (-1)^floor(i*q/p), i = 1..p-1."""
    return [(-1) ** ((i * q) // p) for i in range(1, p)]


def alexander_poly_from_pq(p: int, q: int) -> LaurentPoly:
    """Normalized Alexander polynomial of the two-bridge knot b(p, q).

    p odd >= 3, 0 < q < p, gcd(p, q) = 1.  Handles fixture knots outside
    the surgery family, e.g. b(3,1) and b(5,3).

    >>> alexander_poly_from_pq(3, 1) == {1: 1, 0: -1, -1: 1}
    True
    """
    assert p >= 3 and p % 2 == 1 and 0 < q < p, (p, q)
    if q % 2 == 0:
        q = p - q  # mirror image: same Alexander polynomial, odd pattern
    eps = schubert_exponents(p, q)
    # abelianized Fox derivative of W with respect to u: u-letters sit at
    # the odd positions i = 1, 3, ...; s tracks the abelianized prefix.
    deriv = {}
    s = 0
    for i, e in enumerate(eps, start=1):
        if i % 2 == 1:  # u-letter
            if e == 1:
                deriv[s] = deriv.get(s, 0) + 1
                s += 1
            else:
                s -= 1
                deriv[s] = deriv.get(s, 0) - 1
        else:  # v-letter only moves the prefix
            s += e
    total = s  # = sum(eps)
    # A(t) = (1 - t) * deriv + t^total
    a = dict(deriv)
    for e, c in deriv.items():
        a[e + 1] = a.get(e + 1, 0) - c
    a[total] = a.get(total, 0) + 1
    return normalize_symmetric(a)


def alexander_poly(params: TwoBridgeParams) -> LaurentPoly:
    """Alexander polynomial of a family knot, with checked postconditions:
    |A(-1)| = p, A(1) = +-1, span = 2 * genus."""
    poly = alexander_poly_from_pq(params.p, params.q)
    det = abs(evaluate(poly, -1))
    at_one = evaluate(poly, 1)
    if det != params.p:
        raise InternalCheckFailed(
            "determinant %d != p = %d" % (det, params.p))
    if at_one not in (1, -1):
        raise InternalCheckFailed("A(1) = %d is not a unit" % at_one)
    if span(poly) != 2 * genus(params):
        raise InternalCheckFailed(
            "span %d != 2 * genus %d" % (span(poly), 2 * genus(params)))
    return poly


class LSpaceFormReport(NamedTuple):
    """Whether a normalized polynomial equals
    (-1)^k + sum_j (-1)^(k-j) (t^n_j + t^-n_j) for 0 < n_1 < ... < n_k."""
    matches: bool
    k: int = 0
    exponents: tuple = ()


def lspace_form(poly: LaurentPoly) -> LSpaceFormReport:
    """Coefficientwise test against the alternating unit-coefficient form.

    Requires symmetric-normalized input (NotNormalized otherwise).  When
    it matches, k and the exponents n_j are unique.
    """
    poly = {e: c for e, c in poly.items() if c != 0}
    if not poly or not is_symmetric(poly) or poly[max(poly)] < 0:
        raise NotNormalized("input is not in symmetric normalized form")
    ns = sorted(e for e in poly if e > 0)
    k = len(ns)
    expected = {0: (-1) ** k}
    for j, n in enumerate(ns, start=1):
        expected[n] = expected[-n] = (-1) ** (k - j)
    if poly == expected:
        return LSpaceFormReport(matches=True, k=k, exponents=tuple(ns))
    return LSpaceFormReport(matches=False)


class VerdictReason(Enum):
    NOT_FIBERED = "NotFibered"
    DETERMINANT_EXCEEDS_GENUS_BOUND = "DeterminantExceedsGenusBound"


class SurgeryVerdict(NamedTuple):
    """Why the knot admits no L-space surgery: non-fibered knots are
    excluded outright; fibered family knots have determinant 6*b2 - 1
    exceeding the bound 2*genus + 1 that the alternating form allows."""
    admits: bool
    reason: VerdictReason
    determinant: int
    genus: int
    bound: int

    def as_dict(self):
        return dict(self._asdict(), reason=self.reason.value)


def lspace_surgery_verdict(params: TwoBridgeParams) -> SurgeryVerdict:
    """Decide (negatively, always) whether the knot admits an L-space
    surgery, recording which branch of the obstruction applies."""
    poly = alexander_poly(params)
    det = abs(evaluate(poly, -1))
    g = genus(params)
    bound = 2 * g + 1
    if not is_fibered(params):
        if is_monic(poly):
            raise InternalCheckFailed(
                "non-fibered knot %r has monic Alexander polynomial" % (params,))
        return SurgeryVerdict(admits=False, reason=VerdictReason.NOT_FIBERED,
                              determinant=det, genus=g, bound=bound)
    # fibered: b1 = 1 and b2 > 0, so det = 6*b2 - 1 while the alternating
    # unit-coefficient form caps the determinant at 2*n_k + 1 = 2*genus + 1
    b2 = params.b2
    if det != 6 * b2 - 1 or not det > bound:
        raise InternalCheckFailed(
            "determinant chain failed: det=%d, bound=%d" % (det, bound))
    if lspace_form(poly).matches:
        raise InternalCheckFailed(
            "family polynomial unexpectedly matches the alternating form")
    return SurgeryVerdict(admits=False,
                          reason=VerdictReason.DETERMINANT_EXCEEDS_GENUS_BOUND,
                          determinant=det, genus=g, bound=bound)
