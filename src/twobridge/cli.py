"""Command-line front end: invariant queries, presentation export, order
sign queries, certification runs, and a self-test battery.

Every subcommand prints a single JSON document on standard output (pass
``--out FILE`` to also save a copy).  Failures print
``{"error": {"code", "message"}}`` and exit nonzero:

* 2 - the knot is outside the supported family (``OutOfFamily``)
* 3 - malformed word, flag value or budget, or an ``--out`` file that
  cannot be written (``ParseError``); nothing runs
* 4 - an exact internal cross-check failed (``InternalCheckFailed``,
  including construction failures); this always indicates a bug
* 64 - command-line usage error

``certify`` exits 0 exactly when the overall verdict is Certified, 1
otherwise.  ``selftest`` exits 0 exactly when every fixture passes.

Runs are deterministic given the flags: the default certification seed is
0, overridable by the TWOBRIDGE_SEED environment variable and by an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from functools import cache

from .alexander import (alexander_poly, alexander_poly_from_pq, evaluate,
                        is_monic, lspace_surgery_verdict,
                        normalize_symmetric, span)
from .certify import (CHECK_NAMES, SampleBudget, overall_verdict,
                      run_checks, run_mutation_selftests)
from .cfrac import knot_info, knot_params
from .errors import (ConstructionFailed, InternalCheckFailed, OutOfFamily,
                     ParseError)
from .groups import Word, parse_int, presentations
from .numberfield import NumberField
from .orders import ConeOracle, G1Realization, family_sign_trace

SCHEMA_VERSION = 1

_USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(_USAGE_EXIT if status else 0)


def _default_seed() -> int:
    raw = os.environ.get("TWOBRIDGE_SEED", "")
    try:
        return parse_int(raw) if raw else 0
    except ParseError:
        raise ParseError("TWOBRIDGE_SEED must be an integer, got %r" % raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twobridge",
                     description="Exact two-bridge surgery invariants and "
                                 "left-orderability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def knot_flags(sp):
        sp.add_argument("--c1", type=parse_int, required=True,
                        help="odd coefficient, |c1| > 2")
        sp.add_argument("--c2", type=parse_int, required=True,
                        help="even coefficient, |c2| > 2")

    def out_flag(sp):
        sp.add_argument("--out", metavar="FILE",
                        help="also write the JSON document to FILE")

    sp = sub.add_parser("knot-info",
                        help="continued-fraction invariants, Alexander "
                             "polynomial, and the surgery obstruction")
    knot_flags(sp)
    out_flag(sp)

    sp = sub.add_parser("presentation",
                        help="piece-group and amalgam presentations with "
                             "the peripheral gluing")
    knot_flags(sp)
    out_flag(sp)

    sp = sub.add_parser("order-sign",
                        help="sign of a word in a piece-group order family "
                             "member")
    knot_flags(sp)
    sp.add_argument("--group", choices=("g1", "g2"), required=True)
    sp.add_argument("--conjugator", default="",
                    help="conjugating word for the family member "
                         "(default: identity)")
    sp.add_argument("--reversed", action="store_true",
                    help="flip the member's sign: the reversed order")
    sp.add_argument("word", help="word in the group's generators, e.g. "
                                 "'b^-1 a'")
    out_flag(sp)

    sp = sub.add_parser("certify",
                        help="run certification checks; exit 0 iff "
                             "Certified")
    knot_flags(sp)
    sp.add_argument("--radius", type=parse_int, default=5,
                    help="ball radius for cone audits (default 5)")
    sp.add_argument("--conj-len", type=parse_int, default=4,
                    help="conjugator length bound (default 4)")
    sp.add_argument("--peripheral-box", type=parse_int, default=5,
                    help="bound on |r|, |s| (default 5)")
    sp.add_argument("--samples", type=parse_int, default=10000,
                    help="semigroup sample count (default 10000)")
    sp.add_argument("--members", type=parse_int, default=200,
                    help="family members sampled (default 200)")
    sp.add_argument("--seed", type=parse_int, default=None,
                    help="sampling seed (default: TWOBRIDGE_SEED or 0)")
    sp.add_argument("--check", choices=CHECK_NAMES + ("all",),
                    default="all")
    out_flag(sp)

    sp = sub.add_parser("selftest",
                        help="fixture suite: Alexander oracles, exact "
                             "lift identities, mutation detection")
    out_flag(sp)

    return parser


# --------------------------------------------------------------------------
# subcommand bodies; each returns (payload, exit_code), and main puts
# schema_version and the command name in front of the payload


def _poly_payload(poly) -> dict:
    return {"coefficients": [[e, poly[e]] for e in sorted(poly)],
            "determinant": abs(evaluate(poly, -1)),
            "value_at_1": evaluate(poly, 1),
            "span": span(poly),
            "monic": is_monic(poly)}


def _cmd_knot_info(args):
    params = knot_params(args.c1, args.c2)
    payload = knot_info(params)
    payload["alexander"] = _poly_payload(alexander_poly(params))
    payload["lspace"] = lspace_surgery_verdict(params).as_dict()
    return payload, 0


def _cmd_presentation(args):
    params = knot_params(args.c1, args.c2)
    p1, p2, pm, glue = presentations(params)
    payload = {
        "c1": params.c1,
        "c2": params.c2,
        "g1": p1.as_dict(),
        "g2": p2.as_dict(),
        "amalgam": pm.as_dict(),
        "gluing": {k: str(w) for k, w in glue._asdict().items()},
    }
    return payload, 0


def _cmd_order_sign(args):
    params = knot_params(args.c1, args.c2)
    word = Word.parse(args.word)
    conjugator = Word.parse(args.conjugator)
    sign, trace = family_sign_trace(ConeOracle(params, args.group),
                                    conjugator, word)
    if args.reversed:
        sign = sign.flipped()
    payload = {
        "c1": params.c1,
        "c2": params.c2,
        "group": args.group,
        "word": str(word),
        "conjugator": str(conjugator),
        "reversed": args.reversed,
        "sign": sign.label,
        "trace": trace,
    }
    return payload, 0


def _cmd_certify(args):
    params = knot_params(args.c1, args.c2)
    seed = args.seed if args.seed is not None else _default_seed()
    budget = SampleBudget(ball_radius=args.radius,
                          conjugator_length=args.conj_len,
                          peripheral_bound=args.peripheral_box,
                          semigroup_samples=args.samples,
                          member_samples=args.members,
                          seed=seed)
    reports = run_checks(params, budget, args.check)
    verdict = overall_verdict(reports)
    payload = {
        "c1": params.c1,
        "c2": params.c2,
        "check": args.check,
        "budget": budget.as_dict(),
        "reports": [r.as_dict() for r in reports],
        "verdict": verdict,
    }
    return payload, 0 if verdict == "Certified" else 1


def _selftest_results() -> list[dict]:
    results = []

    def run(name, fn):
        try:
            detail = fn()
            results.append({"name": name, "passed": True,
                            "detail": detail})
        except Exception as exc:
            results.append({"name": name, "passed": False,
                            "detail": "%s: %s" % (type(exc).__name__, exc)})

    def alexander_fixture(p, q, want_det, want_coeffs):
        poly = normalize_symmetric(alexander_poly_from_pq(p, q))
        assert poly == want_coeffs, poly
        det = abs(evaluate(poly, -1))
        assert det == want_det, det
        assert abs(evaluate(poly, 1)) == 1
        return "det=%d" % det

    run("alexander-b(3,1)",
        lambda: alexander_fixture(3, 1, 3, {-1: 1, 0: -1, 1: 1}))
    run("alexander-b(5,3)",
        lambda: alexander_fixture(5, 3, 5, {-1: 1, 0: -3, 1: 1}))

    def family_fixture():
        params = knot_params(3, 4)
        poly = alexander_poly(params)
        assert abs(evaluate(poly, -1)) == 11
        verdict = lspace_surgery_verdict(params)
        assert verdict.admits is False
        return "det=11, admits=false"

    run("alexander-family-(3,4)", family_fixture)

    def lift_identities():
        for b1 in (1, 2, 3):
            real = G1Realization(b1)
            assert real.a_lift * real.a_lift == real.h_lift
            assert real.b_lift ** (2 * b1 + 1) == real.h_lift
            assert real.h_lift.wind == 2 * b1 - 1
        return "a~^2 = b~^(2b1+1) = T1^(2b1-1) for b1 in 1..3"

    run("exact-lift-identities", lift_identities)

    def corrupted_minpoly():
        try:
            NumberField(3, _minpoly=[-2, 1])
        except ConstructionFailed:
            return "ConstructionFailed raised as required"
        raise AssertionError("corrupted minimal polynomial was accepted")

    run("corrupted-minpoly-rejected", corrupted_minpoly)

    def mutations():
        outcome = run_mutation_selftests(knot_params(3, 4))
        missed = [k for k, v in outcome.items() if not v]
        assert not missed, "undetected mutations: %s" % missed
        return "5 of 5 injected corruptions detected"

    run("mutation-detection", mutations)

    return results


def _cmd_selftest(args):
    results = _selftest_results()
    passed = all(r["passed"] for r in results)
    return {"results": results, "passed": passed}, 0 if passed else 1


_DISPATCH = {
    "knot-info": _cmd_knot_info,
    "presentation": _cmd_presentation,
    "order-sign": _cmd_order_sign,
    "certify": _cmd_certify,
    "selftest": _cmd_selftest,
}

_ERROR_CODES = (
    (OutOfFamily, "OutOfFamily", 2),
    (ParseError, "ParseError", 3),
    (InternalCheckFailed, "InternalCheckFailed", 4),
)


def _open_out(path: str):
    """The --out file, opened before the subcommand runs, so that a path
    that cannot be written exits 3 with nothing run."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError("cannot write --out file: %s" % exc) from None


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main`` and kept: parsing
    leaves it unchanged, and the seed default is read per run."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_path = getattr(args, "out", None)
    with ExitStack() as stack:
        out = None
        try:
            if out_path is not None:
                out = stack.enter_context(_open_out(out_path))
            body, code = _DISPATCH[args.command](args)
            payload = {"command": args.command, **body}
        except tuple(exc for exc, _, _ in _ERROR_CODES) as exc:
            name, code = next((name, code) for exc_type, name, code
                              in _ERROR_CODES if isinstance(exc, exc_type))
            payload = {"error": {"code": name, "message": str(exc)}}
        text = json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                          indent=2, sort_keys=False)
        print(text)
        if out is not None:
            out.write(text + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
