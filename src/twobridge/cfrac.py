"""Subtractive continued fractions and two-bridge knot parameters.

A subtractive continued fraction [c1, ..., cm] evaluates as

    [c] = 1/c,     [c1, c2, ..., cm] = 1/(c1 - [c2, ..., cm])

and a pair (c1, c2) with c1 odd, c2 even, |c1|, |c2| > 2 determines the
knot family this package works with: c1 = 2*b1 + 1, c2 = 2*b2, with the
double branched cover the lens space L(c1*c2 - 1, c2) and exceptional
surgery slope 2*c2.  Everything here is exact integer/rational
arithmetic; no floating point.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfFamily, ZeroDenominator


def eval_cf(entries) -> Fraction:
    """Evaluate a subtractive continued fraction to an exact rational.

    >>> eval_cf([5])
    Fraction(1, 5)
    >>> eval_cf([3, 4])
    Fraction(4, 11)
    >>> eval_cf([2, -2, -2, -2])
    Fraction(4, 11)
    """
    entries = list(entries)
    if not entries:
        raise ZeroDenominator("empty continued fraction has no value")
    if any(e == 0 for e in entries):
        raise ZeroDenominator("continued fraction entries must be nonzero")
    value = Fraction(0)
    for c in reversed(entries):
        denom = Fraction(c) - value
        if denom == 0:
            raise ZeroDenominator(
                "nested denominator vanished while evaluating %r" % (entries,))
        value = 1 / denom
    return value


@dataclass(frozen=True)
class TwoBridgeParams:
    """Normalized parameters of a family knot.

    c1 = 2*b1 + 1 > 0 odd, c2 = 2*b2 even, |c1|, |c2| > 2.  Inputs with
    c1 < 0 are replaced by (-c1, -c2) (the mirror knot) with `mirrored`
    recording the switch.  p and q are the lens-space parameters of the
    double branched cover, normalized to p > 0, 0 < q < p.
    """
    c1: int
    c2: int
    b1: int
    b2: int
    p: int
    q: int
    slope: int
    mirrored: bool


def knot_params(c1: int, c2: int) -> TwoBridgeParams:
    """Validate and normalize a (c1, c2) pair.

    Raises OutOfFamily when parity or magnitude constraints fail (this
    rejects twist knots: |c1| or |c2| <= 2).
    """
    if c1 % 2 == 0:
        raise OutOfFamily("c1 must be odd, got %d" % c1)
    if c2 % 2 != 0:
        raise OutOfFamily("c2 must be even, got %d" % c2)
    if abs(c1) <= 2 or abs(c2) <= 2:
        raise OutOfFamily(
            "|c1| and |c2| must exceed 2, got (%d, %d)" % (c1, c2))
    mirrored = c1 < 0
    if mirrored:
        c1, c2 = -c1, -c2
    b1 = (c1 - 1) // 2
    b2 = c2 // 2
    p = abs(c1 * c2 - 1)
    q = c2 % p
    # c1 odd and c2 even force p odd (a knot, not a link) and gcd(p, q) = 1
    assert p % 2 == 1 and 0 < q < p and math.gcd(p, q) == 1
    return TwoBridgeParams(c1=c1, c2=c2, b1=b1, b2=b2, p=p, q=q,
                           slope=2 * c2, mirrored=mirrored)


def even_expansion(params: TwoBridgeParams):
    """The all-even continued fraction equal to [c1, c2].

    [2b1, -2, ..., -2] with 2b2-1 trailing entries when b2 > 0, and
    [2b1+2, 2, ..., 2] with -2b2-1 trailing entries when b2 < 0.  The
    result has length 2|b2| and evaluates equal to eval_cf([c1, c2]).

    >>> even_expansion(knot_params(3, 4))
    [2, -2, -2, -2]
    >>> even_expansion(knot_params(3, -4))
    [4, 2, 2, 2]
    """
    b1, b2 = params.b1, params.b2
    if b2 > 0:
        return [2 * b1] + [-2] * (2 * b2 - 1)
    return [2 * b1 + 2] + [2] * (-2 * b2 - 1)


def is_fibered(params: TwoBridgeParams) -> bool:
    """Fibered exactly when b1 = 1 and b2 > 0 (the plumbing of the
    even expansion consists of Hopf bands only in that case)."""
    return params.b1 == 1 and params.b2 > 0


def genus(params: TwoBridgeParams) -> int:
    """Seifert genus: half the even-expansion length, i.e. |b2|."""
    return abs(params.b2)


def double_branched_cover(params: TwoBridgeParams):
    """Lens-space pair (p, q) of the double branched cover,
    normalized from (c1*c2 - 1, c2) to p > 0, 0 < q < p.

    >>> double_branched_cover(knot_params(3, 4))
    (11, 4)
    >>> double_branched_cover(knot_params(3, -4))
    (13, 9)
    """
    return (params.p, params.q)


def knot_info(params: TwoBridgeParams) -> dict:
    """JSON-ready summary of the invariants computed in this module."""
    return {
        "c1": params.c1,
        "c2": params.c2,
        "b1": params.b1,
        "b2": params.b2,
        "p": params.p,
        "q": params.q,
        "slope": params.slope,
        "mirrored": params.mirrored,
        "fibered": is_fibered(params),
        "genus": genus(params),
        "lens": list(double_branched_cover(params)),
        "even_expansion": even_expansion(params),
    }
