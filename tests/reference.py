"""Slow exact routes that the tests compare the fast paths against."""


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
