"""Slow exact routes that the tests compare the fast paths against, and
helpers that only the tests need."""

from fractions import Fraction
from functools import cache
from math import ceil, floor

from twobridge.certify import (BALL_ALPHABETS, CertificateReport,
                               Counterexample, _rng_for, _sample_conjugators,
                               _surfaced, _variant_for, ball)
from twobridge.groups import G1Element, G2Element, Word, peripheral_box
from twobridge.lifted import LiftedMoebius
from twobridge.numberfield import (FieldElement, _padd, _pdivmod, _pscale,
                                   _trim, _variations, mul_add)
from twobridge.orders import (Sign, Z2Order, family_is_positive,
                              z2_is_positive)


def evaluate_by_fractions(poly, t):
    """The Laurent polynomial at t, summed in Fractions, as an int when
    integral: the reference for ``alexander.evaluate``."""
    total = sum((c * Fraction(t) ** e for e, c in poly.items()), Fraction(0))
    return int(total) if total.denominator == 1 else total


def letters_of(w):
    """The word's (generator, +-1) letters, left to right."""
    return [(g, 1 if e > 0 else -1) for g, e in w.syllables
            for _ in range(abs(e))]


def word_product_by_reduce(w1, w2):
    """The product by free reduction of the whole concatenation: the
    reference for ``Word.__mul__``, which reduces only at the seam."""
    return Word(w1.syllables + w2.syllables)


def g1_normal_form_by_letters(params, w):
    """The normal form computed one letter at a time: the reference for
    the syllable-wise ``g1_normal_form``."""
    n = 2 * params.b1 + 1
    stack = []
    central = 0
    for g, e in letters_of(w):
        if g == "a":
            # a = s(abar), a^-1 = s(abar) h^-1
            if e < 0:
                central -= 1
            if stack and stack[-1][0] == "a":
                stack.pop()
                central += 1
            else:
                stack.append(("a", 1))
        else:
            # b = s(bbar), b^-1 = s(bbar^(n-1)) h^-1
            j = 1 if e > 0 else n - 1
            if e < 0:
                central -= 1
            if stack and stack[-1][0] == "b":
                total = stack.pop()[1] + j
                central += total // n
                if total % n:
                    stack.append(("b", total % n))
            else:
                stack.append(("b", j))
    return G1Element(delta=tuple(stack), central=central)


def g2_normal_form_by_letters(params, w):
    """The normal form computed one letter at a time: the reference for
    the syllable-wise ``g2_normal_form``."""
    b2 = params.b2
    beta = abs(b2)
    letters = []
    for g, e in letters_of(w):
        if g == "y":
            letters.extend([("z", (1 if b2 > 0 else -1) * e)] * beta)
        else:
            letters.append((g, e))
    xpow = sum(e for g, e in letters if g == "x")
    suffix = 0
    kernel_letters = []
    for g, e in reversed(letters):
        if g == "x":
            suffix += e
        else:
            kernel_letters.append((suffix, e))
    kernel_letters.reverse()
    stack = []
    central = 0
    for i, e in kernel_letters:
        sign_i = -1 if i % 2 else 1
        if e > 0:
            r = 1
        else:
            r = beta - 1
            central -= sign_i
        if stack and stack[-1][0] == i:
            total = stack.pop()[1] + r
            central += sign_i * (total // beta)
            if total % beta:
                stack.append((i, total % beta))
        else:
            stack.append((i, r))
    return G2Element(xpow=xpow, tail=tuple(stack), central=central)


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


def magnus_first_sign_by_letters(letters, max_degree: int) -> tuple[int, int]:
    """(sign, least degree) of the first nonzero Magnus coefficient, by
    the letter-loop search that ``orders._magnus_first_sign`` replaced: a
    monomial prefix keeps, per letter position, the signed count of its
    embeddings whose last X sits at that letter, and one pass over all the
    letters extends it by every token at once.  Degrees in increasing
    order, each a depth-first walk over prefixes in lex order; a prefix
    with no embeddings is dropped.  (0, max_degree) if none up to
    max_degree."""
    toks = [tok for tok, _ in letters]
    inv = [e < 0 for _, e in letters]

    def first(counts: dict, run: int, start: int, depth: int) -> int:
        # sign of the lex-first nonzero coefficient among the extensions of
        # the prefix by depth tokens; run counts embeddings ending before
        # letter start
        children: dict = {}
        for i in range(start, len(toks)):
            old = counts.get(i, 0)
            # new X at letter i: after any earlier last X, or, inside
            # x^-1, after an X already at letter i
            new = -(run + old) if inv[i] else run
            if new:
                children.setdefault(toks[i], {})[i] = new
            run += old
        for tok in sorted(children):
            child = children[tok]
            if depth == 1:
                coeff = sum(child.values())
                s = (coeff > 0) - (coeff < 0)
            else:
                s = first(child, 0, next(iter(child)), depth - 1)
            if s:
                return s
        return 0

    for degree in range(1, max_degree + 1):
        s = first({}, 1, 0, degree)  # the empty prefix: one embedding
        if s:
            return s, degree
    return 0, max_degree


def cover_increasing(field, *points) -> bool:
    """True iff the cover points are strictly increasing on the cover
    line, left to right, by ``cmp_by_elements``."""
    return all(cmp_by_elements(field, p, q) < 0
               for p, q in zip(points, points[1:]))


def infinity(field, wind=0):
    """The point at infinity of a level of the cover."""
    return wind, field.one.coeffs, field.zero.coeffs, False


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


def variant_by_search(pattern: dict):
    """The lattice order that a peripheral sign pattern follows at every
    vector, found by trying both orders, or None if it follows neither:
    the reference for selecting the order by the pattern's (1, 0) entry."""
    for variant in Z2Order:
        if all(pattern[v] is z2_is_positive(variant, v) for v in pattern):
            return variant
    return None


def lattice_rows(box) -> dict:
    """Each lattice order's sign of every box vector, one dict per order,
    keyed as the box is."""
    return {o: {v: z2_is_positive(o, v) for v in box} for o in Z2Order}


def conjugate_pattern(oracle, box, c) -> dict:
    """The sign of each word of a box, keyed as the box is, in the member
    conjugated by c, by the oracle's ``conjugate_signs``; any dict of words
    serves as a box."""
    return dict(zip(box, oracle.conjugate_signs(c, box.values())))


def read_pattern(oracle, bound, c) -> dict:
    """``oracle.pattern(c, bound)`` keyed by the vectors (r, s)."""
    return dict(zip(oracle.box(bound), oracle.pattern(c, bound)))


def pattern_by_products(oracle, box, c) -> dict:
    """The G1 pattern of the member conjugated by c, deciding each box
    word w as the lifted product c w c^-1 at the fixed test points; the
    reference for ``ConeOracle.pattern`` and ``conjugate_pattern``."""
    real = oracle._realization
    c_lift = real.lifted(c)
    c_inv = c_lift.inverse()
    return {v: real.decide([c_lift * real.lifted(w) * c_inv])[0]
            for v, w in box.items()}


def four_test_points(field):
    """The fixed point 0 of the lifted meridian, [1:1], [-1:1] and
    infinity, all at level 0: the test points of the reference route."""
    return (point_by_elements(0, field.zero, field.one),
            point_by_elements(0, field.one, field.one),
            point_by_elements(0, -field.one, field.one),
            infinity(field))


def point_by_elements(level, u, v):
    """The cover point (level, u, v, finite) of [u : v] at ``level``, for
    ``FieldElement``s u and v, flipped to canonical form (v > 0, or v == 0
    and u > 0) by their signs."""
    v_sign = v.sign()
    sign = v_sign or u.sign()
    if not sign:
        raise ValueError("[0 : 0] is not a projective point")
    if sign < 0:
        u, v = -u, -v
    return level, u.coeffs, v.coeffs, v_sign != 0


def lift0_apply_by_elements(m, p, wind=0):
    """lift0(m) T1^wind applied to a cover point in ``FieldElement``
    arithmetic, every sign decided afresh (sign(c) included) and the image
    canonicalized by ``point_by_elements``: the reference for
    ``lifted.lift0_apply``, which shares no code with it."""
    u, v = FieldElement(m.field, p[1]), FieldElement(m.field, p[2])
    denom = mul_add(m.c, u, m.d, v)
    num = mul_add(m.a, u, m.b, v)
    up = denom.sign() * m.c.sign() > 0
    return point_by_elements(p[0] + wind + up, num, denom)


def cmp_by_elements(field, p, q) -> int:
    """-1, 0 or 1 as the cover point p lies below, at or above q, in
    ``FieldElement`` arithmetic: the reference for ``lifted.cover_cmp``."""
    if p[0] != q[0]:
        return 1 if p[0] > q[0] else -1
    if p[3] and q[3]:
        pu, pv, qu, qv = (FieldElement(field, x)
                          for x in (p[1], p[2], q[1], q[2]))
        return (pu * qv - qu * pv).sign()
    return q[3] - p[3]


def decide_by_test_points(real, g, points=None):
    """Sign and trace of a lifted element by the first test point it moves,
    moving every point it tries, by default the four of
    ``four_test_points``: the reference for ``G1Realization.decide``,
    which walks two points through the factors, bounded by level.  Each
    point is moved by the product matrix in ``FieldElement`` arithmetic."""
    if points is None:
        points = four_test_points(real.field)
    for idx, p in enumerate(points):
        q = lift0_apply_by_elements(g.matrix, p, g.wind)
        c = cmp_by_elements(real.field, q, p)
        if c:
            return (Sign.POSITIVE if c > 0 else Sign.NEGATIVE,
                    {"decided_by": "test-point", "test_point": idx})
    return Sign.IDENTITY, {"decided_by": "identity"}


def cocycle_by_evaluation(m1, m2, prod) -> int:
    """The reference cocycle: the level difference of lift0(m1) lift0(m2)
    and lift0(prod), prod = m1 m2, at the point 0 of level 0, whose
    projections must agree; each point moved by
    ``lift0_apply_by_elements``."""
    field = m1.field
    p = point_by_elements(0, field.zero, field.one)
    z1 = lift0_apply_by_elements(m1, lift0_apply_by_elements(m2, p))
    z2 = lift0_apply_by_elements(prod, p)
    assert cmp_by_elements(field, (0, *z1[1:]), (0, *z2[1:])) == 0
    return z1[0] - z2[0]


def reference_sign(e) -> int:
    """Exact sign by interval Horner evaluation on the ring's certified
    interval, bisecting until zero is excluded: the refinement used before
    the integer filter, kept here as the reference."""
    if e.is_zero():
        return 0
    psi = e.field.psi
    a, b, q = e.field._certify_interval()
    lo, hi = Fraction(a, q), Fraction(b, q)
    while True:
        if lo == hi:
            v = sum(c * lo ** i for i, c in enumerate(e.coeffs))
            return (v > 0) - (v < 0)
        mn = mx = e.coeffs[-1]
        for c in reversed(e.coeffs[:-1]):
            cands = (mn * lo, mn * hi, mx * lo, mx * hi)
            mn, mx = min(cands) + c, max(cands) + c
        if mn > 0:
            return 1
        if mx < 0:
            return -1
        mid = (lo + hi) / 2
        s = sum(c * mid ** i for i, c in enumerate(psi))
        if s == 0:
            lo = hi = mid
        elif s < 0:
            lo = mid
        else:
            hi = mid


def moebius_product_entrywise(m1, m2) -> tuple:
    """The entries (a, b, c, d) of the product m1 m2 as built, by eight
    ring products through ``FieldElement``, its determinant checked the
    same way."""
    entries = (m1.a * m2.a + m1.b * m2.c, m1.a * m2.b + m1.b * m2.d,
               m1.c * m2.a + m1.d * m2.c, m1.c * m2.b + m1.d * m2.d)
    a, b, c, d = entries
    assert a * d - b * c == m1.field.one
    return entries


def lifted_by_powers(real, w) -> LiftedMoebius:
    """The lift of a G1 word, each syllable g^e formed by square and
    multiply from the generator's lift or its inverse."""
    gens = {"a": real.a_lift, "b": real.b_lift}
    acc = LiftedMoebius.translation(real.field, 0)
    for gen, e in w.syllables:
        g = gens[gen] if e > 0 else gens[gen].inverse()
        acc = acc * g ** abs(e)
    return acc


def sum_of_products_by_loop(field, pairs) -> FieldElement:
    """The sum of x*y over the (x, y) coordinate pairs: every convolution
    runs into one buffer, which is reduced to the power basis once by the
    field's reduction rows.  The loop that the compiled ``mul_add`` kernel
    replaced, kept as its reference."""
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


def bisect_by_fractions(psi, lo, hi):
    """The half of [lo, hi] that keeps the simple root of psi, where
    psi(lo) < 0 < psi(hi); (mid, mid) if the midpoint is the root."""
    mid = (lo + hi) / 2
    s = peval(psi, mid)
    if s == 0:
        return mid, mid
    return (mid, hi) if s < 0 else (lo, mid)


def narrowed_by_fractions(psi, lo, hi, bits):
    """[lo, hi] bisected in Fractions below width 2^-(bits+8): the
    reference for the integer bisection of ``numberfield._narrowed``."""
    width = Fraction(1, 1 << (bits + 8))
    while hi - lo >= width:
        lo, hi = bisect_by_fractions(psi, lo, hi)
    return lo, hi


# --------------------------------------------------------------------------
# the ring's minimal polynomial through the cyclotomic polynomial Phi_2n


def pmul(p, q):
    """The product of two integer polynomials."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


@cache
def cyclotomic(m):
    """Phi_m as a tuple: t^m - 1 divided by Phi_d for every d | m, d < m."""
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = pmul(den, cyclotomic(d))
    phi, rem = _pdivmod([-1] + [0] * (m - 1) + [1], den)  # den is monic
    assert not rem
    return tuple(phi)


def minimal_polynomial_by_cyclotomics(n):
    """Phi_2n(t) = t^h * psi(y), y = t + 1/t, h = deg(psi), folded to psi
    through t^k + t^-k = p_k(y), p_(k+1) = y*p_k - p_(k-1): the reference
    for ``numberfield.minimal_polynomial``."""
    phi = cyclotomic(2 * n)
    half = (len(phi) - 1) // 2
    psi = [phi[half]]
    p_prev, p_cur = [2], [0, 1]
    for k in range(1, half + 1):
        psi = _padd(psi, _pscale(p_cur, phi[half + k]))
        p_prev, p_cur = p_cur, _padd([0] + p_cur, _pscale(p_prev, -1))
    return psi


# --------------------------------------------------------------------------
# the ring's interval in Fractions: the routes that the integer ones replaced


def peval(p, x):
    """p(x) by Horner's rule, in the type of x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_by_fractions(p, q):
    """The quotient and remainder of p divided by q over the rationals."""
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        c = quo[k] = rem[-1] / q[-1]
        for i, b in enumerate(q):
            rem[i + k] -= c * b
        _trim(rem)
    return quo, rem


def _pderiv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def sturm_chain_by_fractions(psi):
    """The Sturm chain of psi by rational remainders: psi, psi', then
    minus each remainder until one vanishes, every member divided by the
    last, gcd(psi, psi').  Undivided, every member vanishes at a multiple
    root of psi, and a count from there is wrong."""
    chain = [[Fraction(c) for c in psi], [Fraction(c) for c in _pderiv(psi)]]
    while True:
        rem = divmod_by_fractions(chain[-2], chain[-1])[1]
        if not rem:
            return [divmod_by_fractions(p, chain[-1])[0] for p in chain]
        chain.append([-c for c in rem])


def count_roots_by_fractions(chain, lo, hi=None):
    """Distinct real roots of the chain's head in (lo, hi], or in
    (lo, +infinity) when hi is None."""
    at_hi = (_variations(p[-1] for p in chain) if hi is None
             else _variations(peval(p, hi) for p in chain))
    return _variations(peval(p, lo) for p in chain) - at_hi


def certify_interval_by_fractions(psi, seed, q):
    """[lo, hi] around seed/q, widened by 10^-6, 10^-9 or 10^-12, the
    first with psi(lo) < 0 < psi(hi) that isolates the largest root by
    two Sturm counts; None when none does: the reference for
    ``NumberField._certify_interval``."""
    chain = sturm_chain_by_fractions(psi)
    for exponent in (6, 9, 12):
        eps = Fraction(1, 10 ** exponent)
        lo, hi = Fraction(seed, q) - eps, Fraction(seed, q) + eps
        if peval(psi, lo) < 0 < peval(psi, hi) \
                and count_roots_by_fractions(chain, lo, hi) == 1 \
                and count_roots_by_fractions(chain, lo) == 1:
            return lo, hi
    return None


def bound_table_by_fractions(degree, lo, hi, bits):
    """floor(lo^i * 2^bits) and ceil(hi^i * 2^bits) for i < degree: the
    reference for ``numberfield._bound_table``."""
    scale = 1 << bits
    return (tuple(floor(lo ** i * scale) for i in range(degree)),
            tuple(ceil(hi ** i * scale) for i in range(degree)))


# --------------------------------------------------------------------------
# the certify checks one sample at a time, every pass and failure through
# ``CertificateReport.record``, and the cone's signs asked word by word and
# pair by pair: the reference for the tallied checks of ``twobridge.certify``


def product_sign(oracle, w1, w2):
    """Sign of w1 w2 by the oracle's ``product_signs``, as a one-pair
    call."""
    return oracle.product_signs((w1, w2), (w1.inverse(), w2.inverse()),
                                ((0, 1),))[0]


def audit_cone_by_samples(oracle, budget):
    """``audit_cone`` signing w and w^-1 separately for every ball word,
    and each sampled pair by ``product_sign``."""
    report = CertificateReport("cone-%s" % oracle.group,
                               (oracle.params.c1, oracle.params.c2), budget)
    with _surfaced(report):
        words = ball(BALL_ALPHABETS[oracle.group], budget.ball_radius)
        positives = []
        for w in words:
            s = oracle.is_positive(w)
            s_inv = oracle.is_positive(w.inverse())
            ok = s_inv is s.flipped()
            report.record("trichotomy", ok, None if ok else Counterexample(
                "trichotomy", (str(w), str(w.inverse())),
                (s.label, s_inv.label),
                note="sign of the inverse does not mirror the sign"))
            trivial = oracle.word_is_identity(w)
            ok = (s is Sign.IDENTITY) == trivial
            report.record("identity", ok, None if ok else Counterexample(
                "identity", (str(w),), (s.label,),
                note="normal form says trivial=%s" % trivial))
            if s is Sign.POSITIVE:
                positives.append(w)
        rng = _rng_for(budget, "cone-%s" % oracle.group, oracle.params)
        for _ in range(budget.semigroup_samples):
            w1 = positives[rng.randrange(len(positives))]
            w2 = positives[rng.randrange(len(positives))]
            s = product_sign(oracle, w1, w2)
            ok = s is Sign.POSITIVE
            report.record("semigroup", ok, None if ok else Counterexample(
                "semigroup", (str(w1), str(w2)),
                ("Positive", "Positive", s.label),
                note="product of positives is not positive"))
    return report


def _cross_check_by_samples(report, oracle, box, c, pattern, vectors):
    for r, s in vectors:
        via_words = family_is_positive(oracle, c, box[(r, s)])
        ok = via_words is pattern[(r, s)]
        report.record("word-route-agreement", ok,
                      None if ok else Counterexample(
                          report.check, (str(c),), (via_words.label,),
                          note="word route disagrees at (r,s)=(%d,%d)"
                               % (r, s)))


def navas_by_samples(g1, budget):
    """``check_navas_law`` with a record per sample."""
    params = g1.params
    report = CertificateReport("navas", (params.c1, params.c2), budget)
    with _surfaced(report):
        box = peripheral_box(params, "g1", budget.peripheral_bound)
        rows = lattice_rows(box)
        conjugators = ball(("a", "b"), budget.conjugator_length)
        for idx, c in enumerate(conjugators):
            pattern = read_pattern(g1, budget.peripheral_bound, c)
            mu_sign = pattern[(1, 0)]
            if mu_sign is Sign.IDENTITY:
                report.record("mu-nontrivial", False, Counterexample(
                    "navas", (str(c),), (mu_sign.label,),
                    member="conjugator %r" % str(c),
                    note="conjugated meridian reported trivial"))
                continue
            report.record("mu-nontrivial", True)
            row = rows[_variant_for(mu_sign)]
            for (r, s), got in pattern.items():
                if (r, s) == (0, 0):
                    continue
                ok = got is row[(r, s)]
                report.record("peripheral-law", ok,
                              None if ok else Counterexample(
                                  "navas", (str(box[(r, s)]),), (got.label,),
                                  member="conjugator %r" % str(c),
                                  note="expected %s at (r,s)=(%d,%d)"
                                       % (row[(r, s)].label, r, s)))
            if idx % 40 == 0:
                _cross_check_by_samples(report, g1, box, c, pattern,
                                        ((1, 0), (0, 1), (-1, -1)))
    return report


def restriction_by_samples(g2, budget):
    """``check_restriction_law`` with a record per sample."""
    params = g2.params
    report = CertificateReport("restriction", (params.c1, params.c2), budget)
    with _surfaced(report):
        box = peripheral_box(params, "g2", budget.peripheral_bound)
        rng = _rng_for(budget, "restriction", params)
        conjugators = _sample_conjugators(
            rng, ("x", "y", "z"), budget.conjugator_length,
            budget.member_samples, forced=(Word(), Word((("x", 1),))))
        rows = lattice_rows(box)
        witnessed = set()
        for c in conjugators:
            pattern = read_pattern(g2, budget.peripheral_bound, c)
            variant = _variant_for(pattern[(1, 0)])
            bad = next((v for v in ((1, 0), *box)
                        if pattern[v] is not rows[variant][v]), None)
            if bad is None:
                witnessed.add(variant)
                report.record("exactly-one-variant", True)
                continue
            report.record("exactly-one-variant", False, Counterexample(
                "restriction", (str(box[bad]),), (pattern[bad].label,),
                member="conjugator %r" % str(c),
                note="restriction matches neither lattice order"))
        both = len(witnessed) == 2
        report.record("both-variants-witnessed", both,
                      None if both else Counterexample(
                          "restriction", (), tuple(
                              sorted(v.value for v in witnessed)),
                          note="only one lattice order was witnessed"))
    return report


def compatibility_by_samples(g1, g2, budget):
    """``certify_compatibility`` with a record per sample."""
    params = g1.params
    report = CertificateReport("compatibility", (params.c1, params.c2),
                               budget)
    with _surfaced(report):
        box1 = peripheral_box(params, "g1", budget.peripheral_bound)
        box2 = peripheral_box(params, "g2", budget.peripheral_bound)
        rows = lattice_rows(box2)
        candidates = {}
        for d in (Word(), Word((("x", 1),))):
            image = read_pattern(g2, budget.peripheral_bound, d)
            variant = _variant_for(image[(1, 0)])
            if image == rows[variant]:
                candidates.setdefault(variant, d)
        rng = _rng_for(budget, "compatibility", params)
        conjugators = _sample_conjugators(
            rng, ("a", "b"), 2 * budget.conjugator_length,
            budget.member_samples, forced=(Word(),))
        for idx, c in enumerate(conjugators):
            pattern = read_pattern(g1, budget.peripheral_bound, c)
            variant = _variant_for(pattern[(1, 0)])
            if variant not in candidates:
                report.record("member-selection", False, Counterexample(
                    "compatibility", (str(c),), (pattern[(1, 0)].label,),
                    member="conjugator %r" % str(c),
                    note="no candidate G2 member restricts to the needed "
                         "lattice order"))
                continue
            report.record("member-selection", True)
            d, image = candidates[variant], rows[variant]
            for (r, s), s1 in pattern.items():
                ok = s1 is image[(r, s)]
                report.record("peripheral-sign-match", ok,
                              None if ok else Counterexample(
                                  "compatibility",
                                  (str(box1[(r, s)]), str(box2[(r, s)])),
                                  (s1.label, image[(r, s)].label),
                                  member="G1 conjugator %r, G2 member %r"
                                         % (str(c), str(d)),
                                  note="signs disagree at (r,s)=(%d,%d)"
                                       % (r, s)))
            if idx % 50 == 0:
                _cross_check_by_samples(report, g1, box1, c, pattern,
                                        ((1, 0), (0, 1)))
    return report
