"""Layer 3 of the G2 order: the Magnus sign of a kernel element.

A G2 element of weight zero in the kernel of pi lies in a free group.
``_schreier_letters`` rewrites it as a freely reduced word in an explicit
Schreier basis, and ``_magnus_first_sign`` signs that word by the Magnus
power-series order: the sign of its first nonzero coefficient in
graded-lexicographic order under x -> 1 + X.  Monomials are searched one
degree at a time, and the search stops at the least degree with a nonzero
coefficient.  A monomial prefix keeps its embedding counts on its last
token's letters only; one gather of their prefix sums extends it by a
token, and at the last level each coefficient is one dot product with a
weight vector.  ``twobridge.orders`` runs both for ``g2_sign_trace``.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import eq, itemgetter, mul

from .errors import InternalCheckFailed


def _schreier_letters(beta: int, tail) -> list[tuple[tuple[int, int, int],
                                                     int]]:
    """Rewrite a weight-zero kernel element as a freely reduced word in a
    Schreier basis of the free kernel.

    The element is given by its syllables prod z_(i_j)^(r_j) (image in the
    free product of order-beta cyclic groups).  Coset bookkeeping walks the
    transversal exponent T; letters at index 0 are transversal moves and
    emit nothing.  One basis letter per index is then eliminated through
    the order relation, leaving letters in a free basis, tagged by sortable
    tokens (|i|, i, T).
    """
    raw = []
    cursor = 0
    for i, r in tail:
        eps = -1 if i % 2 else 1
        for _ in range(r):
            if i != 0:
                raw.append((cursor, i, eps))
            cursor = (cursor + eps) % beta
    if cursor != 0:
        raise InternalCheckFailed(
            "kernel rewrite ended in a nonzero coset: weight was not zero")
    out = []
    for cos, i, eps in raw:
        t_star = (-eps) % beta
        if cos != t_star:
            out.append(((abs(i), i, cos), 1))
            continue
        for k in range(beta - 1, 0, -1):
            out.append(((abs(i), i, (t_star + k * eps) % beta), -1))
    reduced: list = []
    for tok, e in out:
        if reduced and reduced[-1][0] == tok and reduced[-1][1] == -e:
            reduced.pop()
        else:
            reduced.append((tok, e))
    return reduced


class _MagnusTables(dict):
    """Extension tables of one Magnus query, built per call and freed with
    it.  Tokens are numbered in sorted order; ``ids`` and ``signs`` give
    each letter's token number and exponent (+-1).  Slot r is the gap
    before letter r, so letter q lies between slots q and q + 1.

    A prefix ending in token u keeps, per letter of u, the signed count of
    its embeddings whose last X sits there.  A new X at letter q follows a
    last X anywhere before slot q, or before slot q + 1 when q is x^-1 (a
    run of X continues inside it): q reads one entry of the prefix sums of
    u's counts, times its sign.  ``self[u]`` is u's row, built on first
    use: per token v in order, the ``itemgetter`` of the entries that v's
    letters read, v's signs, and the weights W_v read at the end slots of
    u's letters, where W_v[r] is the signed count of v's letters that read
    at slot r or later, so the coefficient of prefix.v is the dot product
    of u's counts with them.
    """

    def __init__(self, ids: list, signs: list, count: int):
        self.ids = ids
        self.ends = [[] for _ in range(count)]
        self.reads = [[] for _ in range(count)]
        self.signs = [[] for _ in range(count)]
        for q, (v, e) in enumerate(zip(ids, signs)):
            self.ends[v].append(q + 1)
            self.reads[v].append(q + (e < 0))
            self.signs[v].append(e)
        self.weights = []
        for reads, signs in zip(self.reads, self.signs):
            dense = [0] * (len(ids) + 1)
            for r, e in zip(reads, signs):
                dense[r] += e
            self.weights.append([*accumulate(reversed(dense))][::-1])

    def __missing__(self, u: int) -> list:
        # before[r]: how many of u's letters lie before slot r
        before = [*accumulate(map(eq, self.ids, repeat(u)), initial=0)]
        ends = self.ends[u]
        row = []
        for reads, signs, weights in zip(self.reads, self.signs,
                                         self.weights):
            at = [*map(before.__getitem__, reads)]
            # itemgetter returns a bare item for one index, so a one-letter
            # token reads its index twice and map stops at the shorter
            gather = itemgetter(*at) if len(at) > 1 else itemgetter(at[0],
                                                                     at[0])
            row.append((gather, signs, [*map(weights.__getitem__, ends)]))
        self[u] = row
        return row


def _magnus_walk(tables: _MagnusTables, u: int, counts: list,
                 depth: int) -> int:
    """Sign of the lex-first nonzero coefficient among the extensions of
    the prefix, which ends in token u with these counts, by depth tokens;
    0 if all vanish."""
    row = tables[u]
    if depth == 1:
        for _, _, weights in row:
            coeff = sum(map(mul, counts, weights))
            if coeff:
                return (coeff > 0) - (coeff < 0)
        return 0
    prefix = [*accumulate(counts, initial=0)]
    for v, (gather, signs, _) in enumerate(row):
        child = [*map(mul, signs, gather(prefix))]
        if any(child):
            s = _magnus_walk(tables, v, child, depth - 1)
            if s:
                return s
    return 0


def _magnus_first_sign(letters, max_degree: int) -> tuple[int, int]:
    """Sign and degree of the first nonzero coefficient (graded-lex) of
    the Magnus expansion x -> 1 + X of the (token, +-1) letters;
    (0, max_degree) if every coefficient up to max_degree vanishes.

    The coefficient of X_t1...X_tm is a signed count of embeddings into
    the letters: a letter x takes at most one X, a letter x^-1 any run
    X^k with weight (-1)^k.  A monomial prefix keeps the signed count of
    embeddings whose last X sits at each letter of its last token, and
    ``_MagnusTables`` extends it by a token with one gather, or, at the
    last level, gives the coefficient as one dot product.  Degree 1 is the
    exponent sum of each token.  Degrees are tried in increasing order,
    each by a depth-first walk over prefixes in lex order, which meets the
    monomials of that degree in lex order and keeps one prefix per level in
    memory; a prefix with no embeddings has no nonzero extension and is
    dropped.
    """
    totals: dict = {}
    for tok, e in letters:
        totals[tok] = totals.get(tok, 0) + e
    tokens = sorted(totals)
    if max_degree >= 1:
        for tok in tokens:
            coeff = totals[tok]
            if coeff:
                return (coeff > 0) - (coeff < 0), 1
    rank = {tok: v for v, tok in enumerate(tokens)}
    tables = _MagnusTables([rank[tok] for tok, _ in letters],
                           [e for _, e in letters], len(tokens))
    for degree in range(2, max_degree + 1):
        # the empty prefix has one embedding, so its child by v has v's
        # signs as counts
        for v, signs in enumerate(tables.signs):
            s = _magnus_walk(tables, v, signs, degree - 1)
            if s:
                return s, degree
    return 0, max_degree
