"""The three benchmark workloads.

Each workload builds its inputs from the seed when it is constructed (that
is part of set-up), runs them in ``run`` (the timed phase, one client, one
thread), and checks the answers in ``check`` after the timed phase.  Calls
go through module attributes (``cli.main``, ``cfrac.knot_params``) so that
the traced run sees them through the wrappers ``tracer.install`` puts in
place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

from twobridge import cfrac, cli
from twobridge.groups import Word
from twobridge.orders import ConeOracle

_perf = time.perf_counter


def _reduced_word(rng: random.Random, alphabet: str, length: int) -> Word:
    letters = []
    while len(letters) < length:
        g = alphabet[rng.randrange(len(alphabet))]
        e = 1 if rng.random() < 0.5 else -1
        if letters and letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return Word(tuple(letters))


def _digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()[:16]


def _failures(seed: int, pin: str, answers: list, bad: set):
    """(failed operations, notes) for a workload's answers.  At seed 0 the
    answers must also match the pinned digest, or every one counts."""
    notes = ["query %d: got %r" % (i, answers[i]) for i in sorted(bad)]
    if seed == 0 and _digest(answers) != pin:
        notes.append("answers differ from the seed-0 pin")
        return len(answers), notes
    return len(bad), notes


def _run_query(oracle, word):
    """(sign value, deciding layer) of one oracle query; exceptions,
    InternalCheckFailed among them, become the answer "error: ..."."""
    try:
        sign, trace = oracle.sign_trace(word)
    except Exception as exc:  # counted as a failed operation
        return "error: %s: %s" % (type(exc).__name__, exc), None
    return sign.value, trace["decided_by"]


# --------------------------------------------------------------------------
# certify-reps: the `twobridge certify --check all` entry point


class CertifyReps:
    """``cli.main(["certify", ..., "--check", "all"])`` on the four
    representative knots at one reduced budget.

    The budget is scaled down from the ROADMAP default (minutes per knot)
    so that a repetition takes seconds, keeping its shape: every knot,
    all five reports, and semigroup samples well above the ball size.
    """

    KNOTS = ((3, 4), (3, -4), (5, 4), (7, -6))
    RADIUS, CONJ_LEN, BOX, SAMPLES, MEMBERS = 3, 2, 2, 300, 10

    def __init__(self, seed: int):
        self.seed = seed
        for c1, c2 in self.KNOTS:
            params = cfrac.knot_params(c1, c2)
            ConeOracle(params, "g1")
            ConeOracle(params, "g2")
        self.argvs = [
            ["certify", "--c1", str(c1), "--c2", str(c2), "--check", "all",
             "--radius", str(self.RADIUS), "--conj-len", str(self.CONJ_LEN),
             "--peripheral-box", str(self.BOX),
             "--samples", str(self.SAMPLES), "--members", str(self.MEMBERS),
             "--seed", str(seed)]
            for c1, c2 in self.KNOTS]
        self.ops = len(self.argvs)

    def run(self) -> dict:
        outputs = []
        for argv in self.argvs:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # counted as a failed operation
                code = "%s: %s" % (type(exc).__name__, exc)
            outputs.append((code, buf.getvalue()))
        return {"outputs": outputs}

    def expected_passes(self) -> dict:
        """Sub-check pass counts implied by the budget alone, so that a run
        that samples less than its budget promises fails the gate."""
        r, L, B = self.RADIUS, self.CONJ_LEN, self.BOX
        members = self.MEMBERS
        ball_r = 2 * 3 ** r - 1
        ball_l = 2 * 3 ** L - 1
        box = (2 * B + 1) ** 2
        cone = {"trichotomy": ball_r, "identity": ball_r,
                "semigroup": self.SAMPLES}
        return {
            "cone-g1": cone,
            "cone-g2": cone,
            "navas": {"mu-nontrivial": ball_l,
                      "peripheral-law": ball_l * (box - 1),
                      "word-route-agreement": 3 * -(-ball_l // 40)},
            "restriction": {"exactly-one-variant": members,
                            "both-variants-witnessed": 1},
            "compatibility": {"member-selection": members,
                              "peripheral-sign-match": members * box,
                              "word-route-agreement": 2 * -(-members // 50)},
        }

    def check(self, result: dict) -> tuple[int, list[str]]:
        expected = self.expected_passes()
        failed, notes = 0, []
        for (c1, c2), (code, text) in zip(self.KNOTS, result["outputs"]):
            problem = self._problem(code, text, expected)
            if problem:
                failed += 1
                notes.append("certify (%d,%d): %s" % (c1, c2, problem))
        return failed, notes

    @staticmethod
    def _problem(code, text, expected) -> str | None:
        if code != 0:
            return "exit code %r" % (code,)
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not one JSON document"
        if doc.get("verdict") != "Certified":
            return "verdict %r" % doc.get("verdict")
        reports = doc.get("reports", [])
        if [r["check"] for r in reports] != list(expected):
            return "reports %r" % [r["check"] for r in reports]
        for rep in reports:
            want = expected[rep["check"]]
            got = {k: v["passes"] for k, v in rep["counts"].items()}
            failures = sum(v["failures"] for v in rep["counts"].values())
            if rep["verdict"] != "Certified" or failures:
                return "%s: verdict %s, %d failures" % (
                    rep["check"], rep["verdict"], failures)
            if got != want:
                return "%s: passes %r, budget implies %r" % (
                    rep["check"], got, want)
        return None


# --------------------------------------------------------------------------
# magnus-deep: the g2 Magnus layer on nested commutators


def _commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def nested_commutators(depth: int) -> list[Word]:
    """c1 = [u, v], c(k+1) = [ck, u or v, alternating], for the weight-zero
    kernel elements u = z x^-1 z x and v = z x z x^-1."""
    u, v = Word.parse("z x^-1 z x"), Word.parse("z x z x^-1")
    out = [_commutator(u, v)]
    while len(out) < depth:
        out.append(_commutator(out[-1], u if len(out) % 2 else v))
    return out


class MagnusDeep:
    """``ConeOracle(params, "g2").sign_trace`` on nested commutators.

    Fixed queries (the same for every seed): the commutators of depth 1-4
    at (3,6) and (3,4), depth 1-3 at (5,-6), (3,8) and (3,12), and the
    depth-4 commutator conjugated by x at (5,-6).  Depth 4 at |b2| = 3
    and at (3,4) is decided at truncation degree 8, so the exponential
    cost of the dense Magnus expansion shows; depth 4 at |b2| >= 4 is left
    out because one such query at (3,8) takes minutes.

    Seeded queries: for every knot, depth 1 .. (3 if |b2| <= 3 else 2),
    ``PER_DEPTH`` conjugates c ck c^-1 with c of 1-3 letters over x, y, z,
    each followed by its inverse.  Their cost is heavy-tailed in c, so
    they stay a small share of a repetition and the fixed queries set its
    time.
    """

    FIXED_DEPTH = {(3, 6): 4, (5, -6): 3, (3, 4): 4, (3, 8): 3, (3, 12): 3}
    PER_DEPTH = 2
    # sign values of the fixed queries, in order, pinned at the seed commit
    PINNED_FIXED = [-1, 1, 1, -1, -1, 1, 1, 1, -1, 1, 1, -1,
                    -1, 1, 1, -1, 1, 1]
    # digest of every answer at the default seed 0
    PINNED_SEED0 = "d4aa021a33b35d43"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random("magnus-deep:%d" % seed)
        comms = nested_commutators(4)
        x = Word.parse("x")
        self.queries = []   # (oracle, word)
        for (c1, c2), depth in self.FIXED_DEPTH.items():
            oracle = ConeOracle(cfrac.knot_params(c1, c2), "g2")
            for w in comms[:depth]:
                self.queries.append((oracle, w))
            if (c1, c2) == (5, -6):
                self.queries.append((oracle, x * comms[3] * x.inverse()))
        self.n_fixed = len(self.queries)
        for (c1, c2) in self.FIXED_DEPTH:
            oracle = ConeOracle(cfrac.knot_params(c1, c2), "g2")
            top = 3 if abs(c2) <= 6 else 2
            for w in comms[:top]:
                for _ in range(self.PER_DEPTH):
                    c = _reduced_word(rng, "xyz", rng.randint(1, 3))
                    q = c * w * c.inverse()
                    self.queries.append((oracle, q))
                    self.queries.append((oracle, q.inverse()))
        self.ops = len(self.queries)

    def run(self) -> dict:
        return {"answers": [_run_query(o, w) for o, w in self.queries]}

    def check(self, result: dict) -> tuple[int, list[str]]:
        answers = result["answers"]
        bad = set()
        for i, (value, layer) in enumerate(answers):
            if layer != "layer-3-magnus":
                bad.add(i)
        for i, want in enumerate(self.PINNED_FIXED):
            if answers[i][0] != want:
                bad.add(i)
        for i in range(self.n_fixed, len(answers), 2):
            if answers[i][0] not in (1, -1) or \
                    answers[i + 1][0] != -answers[i][0]:
                bad.update((i, i + 1))
        return _failures(self.seed, self.PINNED_SEED0, answers, bad)


# --------------------------------------------------------------------------
# sign-stream: independent order-sign queries from one closed-loop client


class SignStream:
    """A closed loop with one client sending ``order-sign``-style queries,
    sign(c w c^-1), negated for reversed members, over the 50-knot
    acceptance grid (b1 = 1..5, 2 <= |b2| <= 6).

    Half the queries are g1 and half g2, ``PER_KNOT`` of each per knot.
    Words have 1-40 letters and conjugators 0-3.  The lengths per knot and
    group are a fixed multiset (odd lengths 1..39 on even-indexed knots,
    even lengths 2..40 on the others; every conjugator length five times)
    dealt out by the seed, and the letters are drawn from it, so seeds
    differ in words but not in the amount of work.  The stream order is
    shuffled by the seed.
    """

    PER_KNOT = 20
    CHECK_EVERY = 10  # share of queries whose inverse is checked
    PINNED_SEED0 = "676204808f99da0a"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random("sign-stream:%d" % seed)
        grid = [(2 * b1 + 1, 2 * b2) for b1 in range(1, 6)
                for b2 in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]
        self.queries = []   # (group, oracle, conjugator, word, reversed)
        for k, (c1, c2) in enumerate(grid):
            params = cfrac.knot_params(c1, c2)
            for group, alphabet in (("g1", "ab"), ("g2", "xyz")):
                oracle = ConeOracle(params, group)
                lengths = list(range(1 + k % 2, 41, 2))
                conj_lengths = [0, 1, 2, 3] * (self.PER_KNOT // 4)
                flips = [False, True] * (self.PER_KNOT // 2)
                for seq in (lengths, conj_lengths, flips):
                    rng.shuffle(seq)
                for n, m, rev in zip(lengths, conj_lengths, flips):
                    self.queries.append(
                        (group, oracle, _reduced_word(rng, alphabet, m),
                         _reduced_word(rng, alphabet, n), rev))
        rng.shuffle(self.queries)
        self.ops = len(self.queries)

    def run(self) -> dict:
        answers, latency = [], []
        for _, oracle, c, w, rev in self.queries:
            t0 = _perf()
            try:
                sign = oracle.sign_trace(c * w * c.inverse())[0]
                answer = (sign.flipped() if rev else sign).value
            except Exception as exc:  # counted as a failed operation
                answer = "error: %s: %s" % (type(exc).__name__, exc)
            latency.append(_perf() - t0)
            answers.append(answer)
        return {"answers": answers, "latency": latency}

    def check(self, result: dict) -> tuple[int, list[str]]:
        answers = result["answers"]
        bad = {i for i, a in enumerate(answers) if a not in (-1, 0, 1)}
        for i in range(0, len(answers), self.CHECK_EVERY):
            if i in bad:
                continue
            _, oracle, c, w, rev = self.queries[i]
            raw = -answers[i] if rev else answers[i]
            inv, _ = _run_query(oracle, c * w.inverse() * c.inverse())
            if inv != -raw:
                bad.add(i)
        return _failures(self.seed, self.PINNED_SEED0, answers, bad)

    def latencies_ms(self, result: dict) -> dict:
        """p50 and p99 per group in ms, with the sample count."""
        out = {}
        for group in ("g1", "g2"):
            lat = sorted(1000 * t for (g, *_), t
                         in zip(self.queries, result["latency"]) if g == group)
            out[group] = {"n": len(lat),
                          "p50": lat[(len(lat) - 1) // 2],
                          "p99": lat[int(0.99 * (len(lat) - 1))]}
        return out


WORKLOADS = {"certify-reps": CertifyReps, "magnus-deep": MagnusDeep,
             "sign-stream": SignStream}
