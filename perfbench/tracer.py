"""Per-layer tracing from outside the program.

``install`` replaces the public entry points of each twobridge module, in
place, by wrappers that count calls and aggregate busy and self time per
boundary.  Nothing under ``src/`` changes.  Spans are aggregated in memory
per boundary rather than kept one by one: a single certify run at (7,-6)
makes over a million number-field calls.

busy time is the wall time inside a boundary, counted once when calls of
the same boundary nest; self time is that time minus the time spent in
wrapped boundaries called from inside it.  Histograms (test points, Magnus
degrees, deciding layers) are read from the values the wrapped functions
return.

A function imported with ``from .x import y`` is bound again in the
importing module, so the same wrapper is installed under every name the
program calls it by.
"""

from __future__ import annotations

import time
from collections import Counter

_perf = time.perf_counter

# Every per-layer metric the traced run reports; BENCHMARK.json lists the
# same names.  Boundaries a workload never reaches report 0.  The knots are
# those of the certify-reps workload.
CERTIFY_KNOTS = ((3, 4), (3, -4), (5, 4), (7, -6))
MAGNUS_DEGREES = tuple(str(d) for d in range(1, 9)) + ("gt8",)
G2_LAYERS = ("layer-1-pi", "layer-2-t", "layer-3-magnus", "identity")


def metric_names() -> list[str]:
    names = []
    for b in ("mul", "add", "sign"):
        names += ["numberfield.%s.calls" % b, "numberfield.%s.self_s" % b]
    names += ["numberfield.field_init.calls", "numberfield.field_init.busy_s"]
    for b in ("lifted_mul", "lifted_inverse", "moebius_mul", "lift0_apply"):
        names += ["lifted.%s.calls" % b, "lifted.%s.self_s" % b]
    names += ["lifted.apply.calls",
              "orders.g1_sign.calls", "orders.g1_sign.busy_s",
              "orders.g1_lift.calls", "orders.g1_lift.letters",
              "orders.g1_lift.self_s",
              "orders.g1_decide.calls", "orders.g1_decide.self_s"]
    names += ["orders.g1_decide.test_point_%d" % i for i in range(4)]
    names += ["orders.g1_decide.identity",
              "orders.realization_init.calls",
              "orders.realization_init.busy_s",
              "orders.magnus.calls", "orders.magnus.self_s",
              "orders.schreier.calls", "orders.schreier.self_s"]
    names += ["orders.g2.magnus_degree.%s" % d for d in MAGNUS_DEGREES]
    names += ["orders.g2.decided_by.%s" % d for d in G2_LAYERS]
    names += ["orders.g2_sign.calls", "orders.g2_sign.busy_s",
              "orders.g2_sign.self_s", "orders.family.calls"]
    for b in ("g1_normal_form", "g2_normal_form", "peripheral_word"):
        names += ["groups.%s.calls" % b, "groups.%s.self_s" % b]
    names += ["certify.%s.busy_s" % c
              for c in ("cone-g1", "cone-g2", "navas", "restrict", "compat")]
    names += ["certify.knot_%d_%d.busy_s" % k for k in CERTIFY_KNOTS]
    names += ["certify.subcheck_passes",
              "cli.main.busy_s", "cli.main.self_s",
              "cfrac.knot_params.calls", "cfrac.knot_params.busy_s",
              "trace.overhead_frac", "trace.self_coverage"]
    return names


# the names that must repeat exactly between two traced runs on one seed
def is_count(name: str) -> bool:
    return not name.endswith("_s") and not name.startswith("trace.")


class Tracer:
    """Aggregates [calls, busy_s, self_s, open depth] per boundary."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.hist: Counter = Counter()
        # child-span time of each open span; the bottom entry collects the
        # time of top-level spans
        self._children = [0.0]

    def _slot(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name, fn, observe=None):
        """Wrap ``fn`` as boundary ``name``; ``name`` may be a function of
        the call's arguments.  ``observe(args, result)`` runs after the
        span closes, so it is charged to the caller."""
        fixed = None if callable(name) else self._slot(name)
        children = self._children
        push, pop = children.append, children.pop
        slot_of = self._slot

        def traced(*args, **kwargs):
            st = fixed if fixed is not None else slot_of(name(args))
            st[0] += 1
            st[3] += 1
            push(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                st[2] += dt - pop()
                children[-1] += dt
                st[3] -= 1
                if not st[3]:
                    st[1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def top_level_s(self) -> float:
        """Wall time covered by top-level spans so far."""
        return self._children[0]

    def metrics(self) -> dict[str, float]:
        """Every name of ``metric_names`` except the two trace.* ones."""
        out = {}
        for name, (calls, busy, self_s, _) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".busy_s"] = busy
            out[name + ".self_s"] = self_s
        out.update(self.hist)
        wanted = [n for n in metric_names() if not n.startswith("trace.")]
        return {n: out.get(n, 0) for n in wanted}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        from twobridge import (certify, cfrac, cli, groups, lifted,
                               numberfield, orders)
        wrap, hist = self.wrap, self.hist

        fe = numberfield.FieldElement
        fe.__mul__ = fe.__rmul__ = wrap("numberfield.mul", fe.__mul__)
        fe.__add__ = fe.__radd__ = wrap("numberfield.add", fe.__add__)
        fe.sign = wrap("numberfield.sign", fe.sign)
        numberfield.NumberField.__init__ = wrap(
            "numberfield.field_init", numberfield.NumberField.__init__)

        lm = lifted.LiftedMoebius
        lm.__mul__ = wrap("lifted.lifted_mul", lm.__mul__)
        lm.inverse = wrap("lifted.lifted_inverse", lm.inverse)
        lm.apply = wrap("lifted.apply", lm.apply)
        lifted.Moebius.__mul__ = wrap("lifted.moebius_mul",
                                      lifted.Moebius.__mul__)
        lifted.lift0_apply = wrap("lifted.lift0_apply", lifted.lift0_apply)

        def lift_letters(args, result):
            hist["orders.g1_lift.letters"] += len(args[1])

        def decide_hist(args, result):
            trace = result[1]
            if trace["decided_by"] == "identity":
                hist["orders.g1_decide.identity"] += 1
            else:
                hist["orders.g1_decide.test_point_%d"
                     % trace["test_point"]] += 1

        def g2_hist(args, result):
            trace = result[1]
            hist["orders.g2.decided_by.%s" % trace["decided_by"]] += 1
            if "truncation_degree" in trace:
                d = trace["truncation_degree"]
                hist["orders.g2.magnus_degree.%s"
                     % (d if d <= 8 else "gt8")] += 1

        real = orders.G1Realization
        real.__init__ = wrap("orders.realization_init", real.__init__)
        real.lifted = wrap("orders.g1_lift", real.lifted, lift_letters)
        real.decide = wrap("orders.g1_decide", real.decide, decide_hist)
        orders.g1_sign_trace = wrap("orders.g1_sign", orders.g1_sign_trace)
        orders.g2_sign_trace = wrap("orders.g2_sign", orders.g2_sign_trace,
                                    g2_hist)
        orders._magnus_first_sign = wrap("orders.magnus",
                                         orders._magnus_first_sign)
        orders._schreier_letters = wrap("orders.schreier",
                                        orders._schreier_letters)
        orders.family_is_positive = certify.family_is_positive = wrap(
            "orders.family", orders.family_is_positive)

        groups.g1_normal_form = orders.g1_normal_form = wrap(
            "groups.g1_normal_form", groups.g1_normal_form)
        groups.g2_normal_form = orders.g2_normal_form = wrap(
            "groups.g2_normal_form", groups.g2_normal_form)
        groups.peripheral_word = certify.peripheral_word = wrap(
            "groups.peripheral_word", groups.peripheral_word)

        def count_passes(args, reports):
            hist["certify.subcheck_passes"] += sum(
                slot["passes"] for r in reports for slot in r.counts.values())

        certify.audit_cone = wrap(
            lambda args: "certify.cone-%s" % args[0].group, certify.audit_cone)
        certify.check_navas_law = wrap("certify.navas",
                                       certify.check_navas_law)
        certify.check_restriction_law = wrap("certify.restrict",
                                             certify.check_restriction_law)
        certify.certify_compatibility = wrap("certify.compat",
                                             certify.certify_compatibility)
        certify.run_checks = cli.run_checks = wrap(
            lambda args: "certify.knot_%d_%d" % (args[0].c1, args[0].c2),
            certify.run_checks, count_passes)
        cli.main = wrap("cli.main", cli.main)
        cfrac.knot_params = cli.knot_params = wrap("cfrac.knot_params",
                                                   cfrac.knot_params)
