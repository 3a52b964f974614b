"""Exact invariants and left-orderability certificates for the
two-bridge knots K[c1, c2] (c1 odd, c2 even, |c1|, |c2| > 2) and their
exceptional 2*c2-surgery."""

__version__ = "0.1.0"

from .alexander import alexander_poly, lspace_surgery_verdict  # noqa: F401
from .certify import (SampleBudget, audit_cone,  # noqa: F401
                      certify_compatibility, check_navas_law,
                      check_restriction_law, overall_verdict, run_checks)
from .cfrac import knot_info, knot_params  # noqa: F401
from .groups import Word, presentations  # noqa: F401
from .orders import (ConeOracle, Sign, Z2Order,  # noqa: F401
                     family_is_positive, z2_is_positive)
from .selftest import run_mutation_selftests  # noqa: F401
