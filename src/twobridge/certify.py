"""Property-testing harness for the surgery certificate.

The certificate that the surgered manifold's fundamental group is
left-orderable reduces to checkable properties of the two piece groups and
the gluing:

* ``audit_cone`` - the sign oracle of one piece really describes a positive
  cone: trichotomy on a full ball of words, closure under products on
  sampled positive pairs (signed through the oracle's ``product_sign``),
  and agreement with the normal-form word problem about the identity.
* ``check_navas_law`` - in every conjugate of the base G1 order, peripheral
  elements mu^r h^s are signed lexicographically: by s, then by r with the
  direction set by the conjugated sign of mu.
* ``check_restriction_law`` - every sampled member of the G2 order family
  restricts on the peripheral subgroup generated by y and z x^2 to exactly
  one of the two lattice orders, and both lattice orders occur.
* ``certify_compatibility`` - for every sampled conjugate G1 order, the
  member selected by the restriction rule makes peripheral signs agree
  across the gluing mu -> y, h -> z x^2.

All runs are deterministic functions of (knot, budget): sampling uses a
seeded generator, enumeration order is fixed, and reports serialize to
stable JSON.  Exhaustive enumeration is used where feasible (balls,
peripheral boxes); seeded sampling covers the rest.  A Refuted verdict is
never repaired automatically: the laws hold in the intended semantics, so
any counterexample localizes an implementation defect.

Each check asks the cone oracles it is given, which alone represent
elements; ``run_checks`` builds one per piece group for every check.  The
peripheral checks compare sign patterns, mapping each (r, s) of the box to
the sign of mu^r h^s (or its G2 image) in a conjugated family member.  The
mutation self-tests corrupt signs through ``_CorruptedOracle``, the one
injection seam, and prove that each corruption is detected.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import NamedTuple

from .cfrac import TwoBridgeParams
from .errors import InternalCheckFailed, ParseError
from .groups import Word, _syllable, peripheral_word
from .orders import (ConeOracle, Sign, Z2Order, family_is_positive,
                     z2_is_positive)

BALL_ALPHABETS = {"g1": ("a", "b"), "g2": ("x", "z")}

_MAX_RECORDED = 20


class _BudgetFields(NamedTuple):
    ball_radius: int = 5
    conjugator_length: int = 4
    peripheral_bound: int = 5
    semigroup_samples: int = 10000
    member_samples: int = 200
    seed: int = 0


class SampleBudget(_BudgetFields):
    """Bounds and seed for one certification run."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in self._fields[:-1]:  # every field but the seed
            if getattr(self, name) < 1:
                raise ParseError("%s must be >= 1" % name)
        return self

    as_dict = _BudgetFields._asdict


class Counterexample(NamedTuple):
    check: str
    words: tuple[str, ...]
    signs: tuple[str, ...]
    member: str | None = None
    note: str = ""

    def as_dict(self) -> dict:
        d = {"check": self.check, "words": list(self.words),
             "signs": list(self.signs)}
        if self.member is not None:
            d["member"] = self.member
        if self.note:
            d["note"] = self.note
        return d


class CertificateReport:
    """The tallies of one check: a mutable record, equal to another with
    the same fields, and unhashable because it defines only __eq__."""

    def __init__(self, check: str, knot: tuple[int, int],
                 budget: SampleBudget):
        self.check, self.knot, self.budget = check, knot, budget
        self.counts: dict = {}
        self.counterexamples: list = []
        self.error: str | None = None

    def __eq__(self, other):
        return vars(self) == vars(other) \
            if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return "CertificateReport(%s)" % ", ".join(
            "%s=%r" % item for item in vars(self).items())

    def record(self, subcheck: str, ok: bool,
               counterexample: Counterexample | None = None):
        slot = self.counts.setdefault(subcheck, {"passes": 0, "failures": 0})
        if ok:
            slot["passes"] += 1
        else:
            slot["failures"] += 1
            if counterexample is not None and \
                    len(self.counterexamples) < _MAX_RECORDED:
                self.counterexamples.append(counterexample)

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "Error"
        if any(slot["failures"] for slot in self.counts.values()):
            return "Refuted"
        return "Certified"

    def as_dict(self) -> dict:
        return {"check": self.check,
                "knot": list(self.knot),
                "budget": self.budget.as_dict(),
                "counts": {k: dict(v) for k, v in sorted(self.counts.items())},
                "counterexamples": [c.as_dict()
                                    for c in self.counterexamples],
                "verdict": self.verdict,
                "error": self.error}


@contextmanager
def _surfaced(report: CertificateReport):
    """Record an exception raised by a check as the report's error (verdict
    Error), surfaced and never repaired.  InternalCheckFailed propagates:
    it marks an implementation bug, which the CLI reports with exit 4."""
    try:
        yield
    except InternalCheckFailed:
        raise
    except Exception as exc:
        report.error = "%s: %s" % (type(exc).__name__, exc)


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


def _rng_for(budget: SampleBudget, check: str,
             params: TwoBridgeParams) -> random.Random:
    return random.Random("%d:%s:%d:%d"
                         % (budget.seed, check, params.c1, params.c2))


def _random_reduced_word(rng: random.Random, alphabet,
                         max_len: int) -> Word:
    k = rng.randrange(0, max_len + 1)
    letters = []
    while len(letters) < k:
        g = alphabet[rng.randrange(len(alphabet))]
        e = 1 if rng.random() < 0.5 else -1
        if letters and letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return Word(tuple(letters))


def _sample_conjugators(rng: random.Random, alphabet, max_len: int,
                        count: int, forced=()) -> list[Word]:
    """Deterministic list of distinct conjugators, forced ones first."""
    chosen = dict.fromkeys(forced)
    for _ in range(200 * count):
        if len(chosen) >= count:
            break
        chosen.setdefault(_random_reduced_word(rng, alphabet, max_len))
    if len(chosen) < count:
        raise InternalCheckFailed("sampled %d of %d distinct conjugators"
                                  % (len(chosen), count))
    return list(chosen)


# --------------------------------------------------------------------------
# cone axioms


def audit_cone(oracle, budget: SampleBudget) -> CertificateReport:
    """Trichotomy on the full ball, semigroup closure on sampled positive
    pairs, and identity agreement with the normal form."""
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
            s = oracle.product_sign(w1, w2)
            ok = s is Sign.POSITIVE
            report.record("semigroup", ok, None if ok else Counterexample(
                "semigroup", (str(w1), str(w2)),
                ("Positive", "Positive", s.label),
                note="product of positives is not positive"))
    return report


# --------------------------------------------------------------------------
# peripheral sign patterns, and the sign law in conjugated G1 orders


def _box(params: TwoBridgeParams, group: str, bound: int) -> dict:
    """mu^r h^s (g1) or y^r (z x^2)^s (g2) for each |r|, |s| <= bound."""
    span = range(-bound, bound + 1)
    return {(r, s): peripheral_word(params, group, r, s)
            for r in span for s in span}


def _pattern(oracle, box: dict, c: Word) -> dict:
    """The sign of each box word in the member conjugated by c."""
    return dict(zip(box, oracle.conjugate_signs(c, box.values())))


def _cross_check(report: CertificateReport, oracle, box: dict, c: Word,
                 pattern: dict, vectors) -> None:
    """The pattern agrees with the plain word-route family oracle."""
    for r, s in vectors:
        via_words = family_is_positive(oracle, c, box[(r, s)])
        ok = via_words is pattern[(r, s)]
        report.record("word-route-agreement", ok,
                      None if ok else Counterexample(
                          report.check, (str(c),), (via_words.label,),
                          note="word route disagrees at (r,s)=(%d,%d)"
                               % (r, s)))


def _variant_for(mu_sign: Sign) -> Z2Order:
    """The lattice order whose tie at s = 0 follows the sign of mu."""
    return Z2Order.PLUS_FIRST if mu_sign is Sign.POSITIVE \
        else Z2Order.MINUS_FIRST


def _lattice(box: dict) -> dict:
    """Each lattice order's sign of every box vector, one row per order.

    >>> from twobridge.cfrac import knot_params
    >>> vs = (1, 0), (-1, 0), (0, 1), (0, 0)
    >>> for order, row in _lattice(_box(knot_params(3, 4), "g1", 1)).items():
    ...     print(order.value, *(row[v].label for v in vs))
    PlusFirst Positive Negative Positive Identity
    MinusFirst Negative Positive Positive Identity
    """
    return {o: {v: z2_is_positive(o, v) for v in box} for o in Z2Order}


def check_navas_law(g1, budget: SampleBudget) -> CertificateReport:
    """Exhaustive over conjugators up to the length bound: in the member
    conjugated by c, sign(mu^r h^s) is Positive iff s > 0, Negative iff
    s < 0, and for s = 0 follows sign(r) times the member sign of mu."""
    params = g1.params
    report = CertificateReport("navas", (params.c1, params.c2), budget)
    with _surfaced(report):
        box = _box(params, "g1", budget.peripheral_bound)
        rows = _lattice(box)
        conjugators = ball(("a", "b"), budget.conjugator_length)
        for idx, c in enumerate(conjugators):
            pattern = _pattern(g1, box, c)
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
                _cross_check(report, g1, box, c, pattern,
                             ((1, 0), (0, 1), (-1, -1)))
    return report


# --------------------------------------------------------------------------
# restriction of G2 family members to the peripheral lattice


def check_restriction_law(g2, budget: SampleBudget) -> CertificateReport:
    """Every sampled G2 family member restricts on the peripheral subgroup
    to the lattice order that its (1, 0) entry selects; both orders occur.
    The conjugators always include 1 and x, whose members realize the two
    orders (conjugation by x inverts y, flipping the tie at s = 0)."""
    params = g2.params
    report = CertificateReport("restriction", (params.c1, params.c2), budget)
    with _surfaced(report):
        box = _box(params, "g2", budget.peripheral_bound)
        rng = _rng_for(budget, "restriction", params)
        conjugators = _sample_conjugators(
            rng, ("x", "y", "z"), budget.conjugator_length,
            budget.member_samples, forced=(Word(), Word((("x", 1),))))
        rows = _lattice(box)
        witnessed = set()
        for c in conjugators:
            pattern = _pattern(g2, box, c)
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


# --------------------------------------------------------------------------
# compatibility across the gluing


def certify_compatibility(g1, g2, budget: SampleBudget) -> CertificateReport:
    """For each sampled conjugate of the base G1 order: select the G2
    member (1 or x) that follows the lattice order its sign of mu selects,
    and verify that peripheral signs then agree across the gluing
    mu -> y, h -> z x^2 on the whole sampled box."""
    params = g1.params
    report = CertificateReport("compatibility", (params.c1, params.c2),
                               budget)
    with _surfaced(report):
        box1 = _box(params, "g1", budget.peripheral_bound)
        box2 = _box(params, "g2", budget.peripheral_bound)
        # members 1 and x, keyed by the lattice order each follows (first wins)
        rows = _lattice(box2)
        candidates = {}
        for d in (Word(), Word((("x", 1),))):
            image = _pattern(g2, box2, d)
            variant = _variant_for(image[(1, 0)])
            if image == rows[variant]:
                candidates.setdefault(variant, d)
        rng = _rng_for(budget, "compatibility", params)
        conjugators = _sample_conjugators(
            rng, ("a", "b"), 2 * budget.conjugator_length,
            budget.member_samples, forced=(Word(),))
        for idx, c in enumerate(conjugators):
            pattern = _pattern(g1, box1, c)
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
                _cross_check(report, g1, box1, c, pattern, ((1, 0), (0, 1)))
    return report


# --------------------------------------------------------------------------
# orchestration and mutation self-tests


CHECK_NAMES = ("cone", "navas", "restrict", "compat")


def run_checks(params: TwoBridgeParams, budget: SampleBudget,
               which: str = "all") -> list[CertificateReport]:
    """Run the selected certification checks; 'all' runs every one."""
    if which not in CHECK_NAMES + ("all",):
        raise ValueError("unknown check %r" % (which,))
    # distinct members come from the reduced words over n letters up to
    # length L, 1 + n((n-1)^L - 1)/(n-2); lengths past log2(members) add
    # more than the budget asks for
    for check, n, max_len in (("restrict", 6, budget.conjugator_length),
                              ("compat", 4, 2 * budget.conjugator_length)):
        length = min(max_len, budget.member_samples.bit_length())
        have = 1 + n * ((n - 1) ** length - 1) // (n - 2)
        if which in (check, "all") and have < budget.member_samples:
            raise ParseError("%s cannot sample %d distinct members: only %d "
                             "reduced conjugators have length <= %d"
                             % (check, budget.member_samples, have, max_len))
    if which in ("restrict", "all") and budget.member_samples < 2:
        raise ParseError("restrict always samples the members 1 and x, so "
                         "it needs at least 2, got %d" % budget.member_samples)
    g1 = ConeOracle(params, "g1") if which != "restrict" else None
    g2 = ConeOracle(params, "g2") if which != "navas" else None
    reports = []
    if which in ("cone", "all"):
        reports.append(audit_cone(g1, budget))
        reports.append(audit_cone(g2, budget))
    if which in ("navas", "all"):
        reports.append(check_navas_law(g1, budget))
    if which in ("restrict", "all"):
        reports.append(check_restriction_law(g2, budget))
    if which in ("compat", "all"):
        reports.append(certify_compatibility(g1, g2, budget))
    return reports


def overall_verdict(reports) -> str:
    verdicts = {r.verdict for r in reports}
    return next((v for v in ("Error", "Refuted") if v in verdicts),
                "Certified")


class _CorruptedOracle:
    """Wrap a cone oracle, passing each sign it gives for a word w in the
    member conjugated by c (c = 1 for base queries) through
    ``override(c, w, sign)``.  ``sign_trace``, the word route, and
    ``word_is_identity`` pass through uncorrupted."""

    def __init__(self, base: ConeOracle, override):
        self.base = base
        self.params = base.params
        self.group = base.group
        self._override = override
        self.sign_trace = base.sign_trace
        self.word_is_identity = base.word_is_identity

    def is_positive(self, w: Word) -> Sign:
        return self._override(Word(), w, self.base.is_positive(w))

    def product_sign(self, w1: Word, w2: Word) -> Sign:
        return self._override(Word(), w1 * w2, self.base.product_sign(w1, w2))

    def conjugate_signs(self, c: Word, words) -> list[Sign]:
        return [self._override(c, w, sign) for w, sign in
                zip(words, self.base.conjugate_signs(c, words))]


MUTATIONS = ("cone-sign-flip", "cone-identity-positive",
             "navas-negative-side-flip", "restriction-conjugation-dropped",
             "compatibility-image-reversed")


SELFTEST_BUDGET = SampleBudget(ball_radius=3, conjugator_length=2,
                               peripheral_bound=2, semigroup_samples=300,
                               member_samples=8, seed=0)


def mutation_reports(params: TwoBridgeParams) -> dict:
    """The report of each check run at SELFTEST_BUDGET under one of five
    distinct corruptions injected through ``_CorruptedOracle``, keyed by
    the names in MUTATIONS."""
    budget = SELFTEST_BUDGET
    g1, g2 = ConeOracle(params, "g1"), ConeOracle(params, "g2")
    target = Word((("a", 1),))
    negative_side = {w for (r, s), w in _box(
        params, "g1", budget.peripheral_bound).items() if s < 0}
    return {
        "cone-sign-flip": audit_cone(_CorruptedOracle(
            g1, lambda c, w, s: s.flipped() if w == target else s), budget),
        "cone-identity-positive": audit_cone(_CorruptedOracle(
            g2, lambda c, w, s: Sign.POSITIVE if s is Sign.IDENTITY else s),
            budget),
        "navas-negative-side-flip": check_navas_law(_CorruptedOracle(
            g1, lambda c, w, s: s.flipped() if w in negative_side else s),
            budget),
        "restriction-conjugation-dropped": check_restriction_law(
            _CorruptedOracle(g2, lambda c, w, s: g2.is_positive(w)), budget),
        "compatibility-image-reversed": certify_compatibility(
            g1, _CorruptedOracle(g2, lambda c, w, s: s.flipped()), budget),
    }


def run_mutation_selftests(params: TwoBridgeParams) -> dict:
    """Inject five distinct corruptions through ``_CorruptedOracle`` and
    report, for each, whether the harness detected it (verdict not
    Certified)."""
    reports = mutation_reports(params)
    return {name: reports[name].verdict != "Certified" for name in MUTATIONS}
