"""Property-testing harness for the surgery certificate.

The certificate that the surgered manifold's fundamental group is
left-orderable reduces to checkable properties of the two piece groups and
the gluing:

* ``audit_cone`` - the sign oracle of one piece really describes a positive
  cone: trichotomy on a full ball of words, closure under products on
  sampled positive pairs (signed in one call to the oracle's
  ``product_signs``), and agreement with the normal-form word problem
  about the identity.  Each ball word is signed once; sign(w^-1) is read
  through the ball's inverse index.
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
peripheral checks compare sign patterns, the signs of the box words
mu^r h^s (or their G2 images) in a conjugated family member.  A pattern is
computed once per oracle, member and box bound, so the checks that meet
the same member (restrict and compat on 1 and x, navas and compat on short
G1 conjugators) share it.  Passes are tallied per sub-check; each failure
is recorded in sample order, so the first counterexamples are those of a
sample-by-sample run.  The self-test battery that shows each check can
refute a corrupted oracle lives in ``twobridge.selftest``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import repeat
from typing import NamedTuple

from .cfrac import TwoBridgeParams
from .errors import InternalCheckFailed, ParseError
from .groups import Word, ball, random_reduced_word
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

    def tally(self, subcheck: str, passes: int):
        """Count passes in bulk; failures go through ``record`` one by one,
        in sample order.  No passes add no slot."""
        if passes:
            self.counts.setdefault(
                subcheck, {"passes": 0, "failures": 0})["passes"] += passes

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


def _rng_for(budget: SampleBudget, check: str,
             params: TwoBridgeParams) -> random.Random:
    return random.Random("%d:%s:%d:%d"
                         % (budget.seed, check, params.c1, params.c2))


def _sample_conjugators(rng: random.Random, alphabet, max_len: int,
                        count: int, forced=()) -> list[Word]:
    """Deterministic list of distinct conjugators, forced ones first."""
    chosen = dict.fromkeys(forced)
    for _ in range(200 * count):
        if len(chosen) >= count:
            break
        chosen.setdefault(random_reduced_word(rng, alphabet, max_len))
    if len(chosen) < count:
        raise InternalCheckFailed("sampled %d of %d distinct conjugators"
                                  % (len(chosen), count))
    return list(chosen)


# --------------------------------------------------------------------------
# cone axioms


def audit_cone(oracle, budget: SampleBudget) -> CertificateReport:
    """Trichotomy on the full ball, semigroup closure on sampled positive
    pairs, and identity agreement with the normal form.  Each ball word is
    signed once: the ball is closed under inversion, so sign(w^-1) is read
    through an inverse index, and the pairs are drawn as index pairs and
    signed in one ``product_signs`` call."""
    report = CertificateReport("cone-%s" % oracle.group,
                               (oracle.params.c1, oracle.params.c2), budget)
    with _surfaced(report):
        words = ball(BALL_ALPHABETS[oracle.group], budget.ball_radius)
        index = dict(zip(words, range(len(words))))
        inverse = [*map(index.get, map(Word.inverse, words))]
        signs = [*map(oracle.is_positive, words)]
        mirrored = agreed = 0
        for w, s, k in zip(words, signs, inverse):
            if signs[k] is s.flipped():
                mirrored += 1
            else:
                report.record("trichotomy", False, Counterexample(
                    "trichotomy", (str(w), str(words[k])),
                    (s.label, signs[k].label),
                    note="sign of the inverse does not mirror the sign"))
            trivial = oracle.word_is_identity(w)
            if (s is Sign.IDENTITY) == trivial:
                agreed += 1
            else:
                report.record("identity", False, Counterexample(
                    "identity", (str(w),), (s.label,),
                    note="normal form says trivial=%s" % trivial))
        report.tally("trichotomy", mirrored)
        report.tally("identity", agreed)
        positives = [k for k, s in enumerate(signs) if s is Sign.POSITIVE]
        rng = _rng_for(budget, "cone-%s" % oracle.group, oracle.params)
        pairs = [(positives[rng.randrange(len(positives))],
                  positives[rng.randrange(len(positives))])
                 for _ in range(budget.semigroup_samples)]
        closed = 0
        for (i, j), s in zip(pairs, oracle.product_signs(
                words, [*map(words.__getitem__, inverse)], pairs)):
            if s is Sign.POSITIVE:
                closed += 1
            else:
                report.record("semigroup", False, Counterexample(
                    "semigroup", (str(words[i]), str(words[j])),
                    ("Positive", "Positive", s.label),
                    note="product of positives is not positive"))
        report.tally("semigroup", closed)
    return report


# --------------------------------------------------------------------------
# peripheral sign patterns, and the sign law in conjugated G1 orders
#
# A pattern is the tuple of signs of the words of ``oracle.box(bound)`` in
# one member, in box order, as ``oracle.pattern(c, bound)`` gives it; the
# rows of ``_lattice`` are tuples in the same order.


def _cross_check(report: CertificateReport, oracle, box: dict, c: Word,
                 pattern: tuple, vectors) -> None:
    """The pattern agrees with the plain word-route family oracle."""
    signs = dict(zip(box, pattern))
    for r, s in vectors:
        via_words = family_is_positive(oracle, c, box[(r, s)])
        ok = via_words is signs[(r, s)]
        report.record("word-route-agreement", ok,
                      None if ok else Counterexample(
                          report.check, (str(c),), (via_words.label,),
                          note="word route disagrees at (r,s)=(%d,%d)"
                               % (r, s)))


def _variant_for(mu_sign: Sign) -> Z2Order:
    """The lattice order whose tie at s = 0 follows the sign of mu."""
    return Z2Order.PLUS_FIRST if mu_sign is Sign.POSITIVE \
        else Z2Order.MINUS_FIRST


def _lattice(vectors) -> dict:
    """Each lattice order's signs of the vectors, in order, one row per
    order.

    >>> for order, row in _lattice([(1, 0), (-1, 0), (0, 1), (0, 0)]).items():
    ...     print(order.value, *(s.label for s in row))
    PlusFirst Positive Negative Positive Identity
    MinusFirst Negative Positive Positive Identity
    """
    return {o: tuple(map(z2_is_positive, repeat(o), vectors))
            for o in Z2Order}


def _mismatches(pattern: tuple, row: tuple) -> list:
    """The indices at which the pattern leaves the row, in box order."""
    return [] if pattern == row else [
        k for k, (got, want) in enumerate(zip(pattern, row))
        if got is not want]


def check_navas_law(g1, budget: SampleBudget) -> CertificateReport:
    """Exhaustive over conjugators up to the length bound: in the member
    conjugated by c, sign(mu^r h^s) is Positive iff s > 0, Negative iff
    s < 0, and for s = 0 follows sign(r) times the member sign of mu."""
    params = g1.params
    report = CertificateReport("navas", (params.c1, params.c2), budget)
    with _surfaced(report):
        bound = budget.peripheral_bound
        box = g1.box(bound)
        vectors, words = [*box], [*box.values()]
        mu, origin = vectors.index((1, 0)), vectors.index((0, 0))
        rows = _lattice(vectors)
        for idx, c in enumerate(ball(("a", "b"), budget.conjugator_length)):
            pattern = g1.pattern(c, bound)
            mu_sign = pattern[mu]
            if mu_sign is Sign.IDENTITY:
                report.record("mu-nontrivial", False, Counterexample(
                    "navas", (str(c),), (mu_sign.label,),
                    member="conjugator %r" % str(c),
                    note="conjugated meridian reported trivial"))
                continue
            report.tally("mu-nontrivial", 1)
            row = rows[_variant_for(mu_sign)]
            # the law leaves out (0, 0), the identity
            bad = [k for k in _mismatches(pattern, row) if k != origin]
            report.tally("peripheral-law", len(row) - 1 - len(bad))
            for k in bad:
                report.record("peripheral-law", False, Counterexample(
                    "navas", (str(words[k]),), (pattern[k].label,),
                    member="conjugator %r" % str(c),
                    note="expected %s at (r,s)=(%d,%d)"
                         % (row[k].label, *vectors[k])))
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
        bound = budget.peripheral_bound
        box = g2.box(bound)
        vectors, words = [*box], [*box.values()]
        mu = vectors.index((1, 0))
        rng = _rng_for(budget, "restriction", params)
        conjugators = _sample_conjugators(
            rng, ("x", "y", "z"), budget.conjugator_length,
            budget.member_samples, forced=(Word(), Word((("x", 1),))))
        rows = _lattice(vectors)
        witnessed = set()
        for c in conjugators:
            pattern = g2.pattern(c, bound)
            variant = _variant_for(pattern[mu])
            bad = _mismatches(pattern, rows[variant])
            if not bad:
                witnessed.add(variant)
                report.record("exactly-one-variant", True)
                continue
            bad = mu if mu in bad else bad[0]
            report.record("exactly-one-variant", False, Counterexample(
                "restriction", (str(words[bad]),), (pattern[bad].label,),
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
        bound = budget.peripheral_bound
        box1, box2 = g1.box(bound), g2.box(bound)
        # both boxes list the vectors (r, s) in one order
        vectors, words1, words2 = [*box1], [*box1.values()], [*box2.values()]
        mu = vectors.index((1, 0))
        # members 1 and x, keyed by the lattice order each follows (first wins)
        rows = _lattice(vectors)
        candidates = {}
        for d in (Word(), Word((("x", 1),))):
            image = g2.pattern(d, bound)
            variant = _variant_for(image[mu])
            if image == rows[variant]:
                candidates.setdefault(variant, d)
        rng = _rng_for(budget, "compatibility", params)
        conjugators = _sample_conjugators(
            rng, ("a", "b"), 2 * budget.conjugator_length,
            budget.member_samples, forced=(Word(),))
        for idx, c in enumerate(conjugators):
            pattern = g1.pattern(c, bound)
            variant = _variant_for(pattern[mu])
            if variant not in candidates:
                report.record("member-selection", False, Counterexample(
                    "compatibility", (str(c),), (pattern[mu].label,),
                    member="conjugator %r" % str(c),
                    note="no candidate G2 member restricts to the needed "
                         "lattice order"))
                continue
            report.tally("member-selection", 1)
            d, image = candidates[variant], rows[variant]
            bad = _mismatches(pattern, image)
            report.tally("peripheral-sign-match", len(image) - len(bad))
            for k in bad:
                report.record("peripheral-sign-match", False, Counterexample(
                    "compatibility", (str(words1[k]), str(words2[k])),
                    (pattern[k].label, image[k].label),
                    member="G1 conjugator %r, G2 member %r"
                           % (str(c), str(d)),
                    note="signs disagree at (r,s)=(%d,%d)" % vectors[k]))
            if idx % 50 == 0:
                _cross_check(report, g1, box1, c, pattern, ((1, 0), (0, 1)))
    return report


# --------------------------------------------------------------------------
# orchestration


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
