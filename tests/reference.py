"""Slow exact routes that the tests compare the fast paths against, and
helpers that only the tests need."""

from twobridge.groups import Word


def letters_of(w):
    """The word's (generator, +-1) letters, left to right."""
    return [(g, 1 if e > 0 else -1) for g, e in w.syllables
            for _ in range(abs(e))]


def magnus_first_sign_dense(letters, degree: int) -> int:
    """First nonzero coefficient (graded-lex) of the Magnus expansion,
    truncated at the given total degree; 0 if undecided at this degree.
    Expands the full product of the letters' truncated series."""
    poly = {(): 1}
    for tok, e in letters:
        if e > 0:
            factor = {(): 1, (tok,): 1}
        else:
            factor = {(tok,) * k: (-1) ** k for k in range(degree + 1)}
        nxt: dict = {}
        for m1, c1 in poly.items():
            room = degree - len(m1)
            for m2, c2 in factor.items():
                if len(m2) > room:
                    continue
                key = m1 + m2
                val = nxt.get(key, 0) + c1 * c2
                if val:
                    nxt[key] = val
                elif key in nxt:
                    del nxt[key]
        poly = nxt
    best = None
    for mono, coeff in poly.items():
        if mono and coeff:
            key = (len(mono), mono)
            if best is None or key < best[0]:
                best = (key, coeff)
    if best is None:
        return 0
    return 1 if best[1] > 0 else -1


def magnus_first_sign_stepped(letters, max_degree: int) -> tuple[int, int]:
    """(sign, least degree) of the first nonzero Magnus coefficient, from
    the dense expansion truncated at degree 1, 2, 3, ...; truncation never
    changes a lower-degree coefficient, so the first degree that decides
    is the least one.  (0, max_degree) if none up to max_degree."""
    for degree in range(1, max_degree + 1):
        s = magnus_first_sign_dense(letters, degree)
        if s:
            return s, degree
    return 0, max_degree


def cover_increasing(*points) -> bool:
    """True iff the lifted points are strictly increasing on the cover
    line, left to right."""
    return all(p._cmp(q) < 0 for p, q in zip(points, points[1:]))


def g1_element_word(elem) -> Word:
    """A word representing a G1 normal form: the section letters followed
    by h^central = a^(2*central)."""
    return Word(tuple(elem.delta) + (("a", 2 * elem.central),))


def g2_element_word(params, elem) -> Word:
    """A word over {x, z} representing a G2 normal form:
    x^xpow * prod x^-i z^r x^i * z^(beta*central)."""
    beta = abs(params.b2)
    syllables = [("x", elem.xpow)]
    for i, r in elem.tail:
        syllables += [("x", -i), ("z", r), ("x", i)]
    syllables.append(("z", beta * elem.central))
    return Word(tuple(syllables))


def pattern_by_products(signer, c) -> dict:
    """The G1 peripheral pattern of the member conjugated by c, deciding
    each box element g as the lifted product c g c^-1 at the fixed test
    points; the reference for ``_Signer.pattern``."""
    real = signer._real
    c_lift = real.lifted(c)
    c_inv = c_lift.inverse()
    return {v: real.decide(c_lift * g * c_inv)[0]
            for v, g in zip(signer.box, signer._lifts)}
