"""Words, presentations, and normal forms for the two surgery pieces.

G1 = < a, b : a^2 = b^(2*b1+1) > is a torus-knot group: the center is
generated by h = a^2 = b^(2*b1+1) and the quotient is the free product
Z/2 * Z/(2*b1+1), so elements have a unique form (alternating word in
the quotient, central exponent of h).

G2 = < x, y, z : x^-1 y x = y^-1, y = z^b2 >.  Eliminating y and setting
z_i = x^-i z x^i, the kernel of the x-exponent map is
K = < ..., z_-1, z_0, z_1, ... : z_i^b2 = z_(i+1)^(-b2) >, in which
w0 = z_0^beta (beta = |b2|) is central with z_i^beta = w0^((-1)^i) and
K / <w0> is the free product of copies of Z/beta.  Elements of G2 get
the unique form (x-exponent, reduced syllable word z_i^r with
1 <= r < beta and adjacent indices distinct, central exponent of w0).
"""

from operator import index
from typing import NamedTuple

from .cfrac import TwoBridgeParams
from .errors import ParseError


def parse_int(text: str) -> int:
    """An optional sign, then ASCII digits: int() would also take "1_0",
    surrounding whitespace and non-ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError("not an integer: %r" % (text,))
    return int(text)


# The syllable table: each distinct (generator, exponent) has one shared
# tuple, entered together with the shared tuple of its inverse.  It has no
# size cap: it keeps two entries per distinct syllable the process builds.
_SHARED = {}
_INVERSE = {}


def _syllable(g, e):
    """The table's tuple for g^e, entered with its inverse on first use;
    the one place a syllable tuple is built.  An entered exponent is
    normalized by operator.index: a bool is stored as an int, and a float
    raises TypeError."""
    s = _SHARED.get((g, e))
    if s is None:
        e = index(e)
        s, inv = (g, e), (g, -e)
        _SHARED[s], _SHARED[inv] = s, inv
        _INVERSE[s], _INVERSE[inv] = inv, s
    return s


class Word:
    """A freely reduced word over named generators.

    Stored as a tuple of (generator, exponent) syllables with int, nonzero
    exponents and distinct adjacent generators; an exponent that is not an
    int (by operator.index) raises TypeError, and a bool counts as 0 or 1.
    Syllables are immutable tuples shared through a module-level table, so
    equal syllables of all words are one object; the table grows by two
    entries per distinct syllable the process builds and is never trimmed.
    Equality and hashing compare values, never identity.  Words multiply
    with *, invert with .inverse(), and power with **.
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        self.syllables = _reduce(syllables)

    @classmethod
    def _of(cls, syllables: tuple) -> "Word":
        """A word from a tuple of syllables that is already reduced and
        whose syllables come from the table (``_syllable``)."""
        w = cls.__new__(cls)
        w.syllables = syllables
        return w

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse whitespace-separated tokens like "b^-1 a a"; the token
        "1" is the identity."""
        syllables = []
        for token in text.split():
            if token == "1":
                continue
            name, caret, exp = token.partition("^")
            if not name or name.startswith("^"):
                raise ParseError("bad word token %r" % token)
            try:
                e = parse_int(exp) if caret else 1
            except ParseError:
                raise ParseError("bad exponent in token %r" % token) from None
            if not name.isalnum():
                raise ParseError("bad generator name %r" % token)
            syllables.append((name, e))
        return cls(syllables)

    def __str__(self):
        return " ".join(g if e == 1 else "%s^%d" % (g, e)
                        for g, e in self.syllables) or "1"

    def __repr__(self):
        return "Word(%r)" % (str(self),)

    def __mul__(self, other):
        # both factors are reduced, so only syllables at the seam can merge
        left, right = self.syllables, other.syllables
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            g, e = left[i - 1][0], left[i - 1][1] + right[j][1]
            if e:
                return Word._of(left[:i - 1] + (_syllable(g, e),)
                                + right[j + 1:])
            i -= 1
            j += 1
        return Word._of(left[:i] + right[j:])

    def inverse(self):
        return Word._of(tuple(map(_INVERSE.__getitem__,
                                  reversed(self.syllables))))

    def __pow__(self, n):
        """The n-th power by repeated squaring: about 2*log2(n) products."""
        if n < 0:
            return self.inverse() ** (-n)
        out, square = Word(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def generators(self):
        return {g for g, _ in self.syllables}

    def __len__(self):
        return sum(abs(e) for _, e in self.syllables)

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def is_identity(self):
        return not self.syllables


def _reduce(syllables):
    stack = []
    shared = _SHARED.get
    for g, e in syllables:
        if type(e) is not int:
            e = index(e)
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        if e:
            stack.append(shared((g, e)) or _syllable(g, e))
    return tuple(stack)


W = Word.parse


def ball(alphabet, radius: int) -> list[Word]:
    """All freely reduced words of length <= radius, in breadth-first
    order; 485 words for a two-letter alphabet at radius 5."""
    steps = [_syllable(g, e) for g in alphabet for e in (1, -1)]
    out = [Word()]
    layer = [()]
    for _ in range(radius):
        longer = []
        for w in layer:
            g0, e0 = w[-1] if w else (None, 0)
            for step in steps:
                g, e = step
                if g != g0:
                    longer.append(w + (step,))
                elif (e0 > 0) == (e > 0):
                    longer.append(w[:-1] + (_syllable(g, e0 + e),))
        layer = longer
        out.extend(Word._of(ls) for ls in layer)
    return out


def random_reduced_word(rng, alphabet, max_len: int) -> Word:
    """A freely reduced word of at most max_len letters of the alphabet,
    drawn from the random generator rng."""
    k = rng.randrange(0, max_len + 1)
    letters = []
    while len(letters) < k:
        g = alphabet[rng.randrange(len(alphabet))]
        e = 1 if rng.random() < 0.5 else -1
        if letters and letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return Word(tuple(letters))


class Presentation(NamedTuple):
    generators: tuple
    relators: tuple

    def as_dict(self):
        return {"generators": list(self.generators),
                "relators": [str(r) for r in self.relators]}


class GluingMap(NamedTuple):
    """The peripheral identification: the Z^2 bases (mu, h) on the G1
    side and (y, z x^2) on the G2 side correspond coordinatewise."""
    mu: Word
    h: Word
    mu_image: Word
    h_image: Word


def presentations(params: TwoBridgeParams):
    """(P1, P2, PM, gluing) for the knot's surgery pieces."""
    g1_rels = (W("a a b^%d" % (-(2 * params.b1 + 1))),)
    g2_rels = (W("x^-1 y x y"), W("y z^%d" % (-params.b2)))
    glue = GluingMap(mu=peripheral_word(params, "g1", 1, 0),
                     h=peripheral_word(params, "g1", 0, 1),
                     mu_image=peripheral_word(params, "g2", 1, 0),
                     h_image=peripheral_word(params, "g2", 0, 1))
    pm = Presentation(("x", "y", "z", "a", "b"), g2_rels + g1_rels + (
        glue.mu * glue.mu_image.inverse(), glue.h * glue.h_image.inverse()))
    return (Presentation(("a", "b"), g1_rels),
            Presentation(("x", "y", "z"), g2_rels), pm, glue)


def peripheral_word(params: TwoBridgeParams, side: str, r: int, s: int) -> Word:
    """mu^r h^s (side "g1") or y^r (z x^2)^s (side "g2"), where
    mu = b^-b1 a and h = a^2.  These bases are spelled only here;
    ``presentations`` builds the gluing from them."""
    if side == "g1":
        mu = Word._of((_syllable("b", -params.b1), _syllable("a", 1)))
        return mu ** r * Word._of((_syllable("a", 2),)) ** s
    if side == "g2":
        return (Word._of((_syllable("y", 1),)) ** r
                * Word._of((_syllable("z", 1), _syllable("x", 2))) ** s)
    raise ParseError("side must be g1 or g2, got %r" % side)


def peripheral_box(params: TwoBridgeParams, side: str, bound: int) -> dict:
    """``peripheral_word`` at every (r, s) with |r|, |s| <= bound, keyed by
    (r, s) in lexicographic order."""
    span = range(-bound, bound + 1)
    return {(r, s): peripheral_word(params, side, r, s)
            for r in span for s in span}


def foreign_generators(w: Word, piece: str, alphabet: str) -> ParseError:
    """The error for a word of ``piece`` with a generator outside
    ``alphabet``; it names every such generator, sorted.  Built only once
    a normal form or word scan meets one, so no scan builds the set."""
    bad = w.generators() - set(alphabet)
    return ParseError("%s words use generators %s only, got %s"
                      % (piece, ", ".join(alphabet), ", ".join(sorted(bad))))


# ---------------------------------------------------------------- G1


class G1Element(NamedTuple):
    """Unique form (delta, central): delta is the alternating word in
    Z/2 * Z/(2*b1+1) written with letters ('a', 1) and ('b', j) for
    1 <= j <= 2*b1, and central is the exponent of h = a^2."""
    delta: tuple
    central: int

    def is_identity(self):
        return not self.delta and self.central == 0


def g1_normal_form(params: TwoBridgeParams, w: Word) -> G1Element:
    """Total normal form for G1; two words are equal in G1 iff their
    normal forms coincide."""
    n = 2 * params.b1 + 1
    # a^e = a^(e mod 2) h^(e div 2) and b^e = b^(e mod n) h^(e div n),
    # merged with an equal generator left on the stack
    stack = []
    central = 0
    for g, e in w.syllables:
        if g == "a":
            order = 2
        elif g == "b":
            order = n
        else:
            raise foreign_generators(w, "G1", "ab")
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        q, r = divmod(e, order)
        central += q
        if r:
            stack.append((g, r))
    return G1Element(delta=tuple(stack), central=central)


# ---------------------------------------------------------------- G2


class G2Element(NamedTuple):
    """Unique form (xpow, tail, central): xpow is the x-exponent, tail
    is the reduced syllable word ((i, r), ...) over the kernel
    generators z_i with 1 <= r < beta and adjacent indices distinct,
    and central is the exponent of w0 = z_0^beta."""
    xpow: int
    tail: tuple
    central: int

    def is_identity(self):
        return self.xpow == 0 and not self.tail and self.central == 0


def g2_normal_form(params: TwoBridgeParams, w: Word) -> G2Element:
    """Total normal form for G2; equality in G2 iff forms coincide."""
    b2 = params.b2
    beta = abs(b2)
    # w = x^xpow * prod z_i^k over its z- and y-syllables (y^e = z^(b2*e)),
    # where i is the x-exponent sum strictly to the right of the syllable.
    # In K, z_i^k = z_i^(k mod beta) * w0^((-1)^i * (k div beta)).
    xpow = sum(e for g, e in w.syllables if g == "x")
    right = xpow
    stack = []
    central = 0
    for g, e in w.syllables:
        if g == "x":
            right -= e
            continue
        if g == "y":
            k = b2 * e
        elif g == "z":
            k = e
        else:
            raise foreign_generators(w, "G2", "xyz")
        if stack and stack[-1][0] == right:
            k += stack.pop()[1]
        q, r = divmod(k, beta)
        central += -q if right % 2 else q
        if r:
            stack.append((right, r))
    return G2Element(xpow=xpow, tail=tuple(stack), central=central)

