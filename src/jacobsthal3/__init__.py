"""Exact-arithmetic toolkit for third-order Jacobsthal sequences.

The recurrence X(n+3) = X(n+2) + X(n+1) + 2*X(n) with rational seeds
(a, b, c) is evaluated three independent ways (iteration, Binet form over
the cube roots of unity, period-3 decomposition), its classical identities
(Catalan, Cassini, Gelin-Cesaro and a catalog of linear relations) are
verified instance-by-instance against the iterative oracle, and its
generating function and summation closed forms are checked coefficient by
coefficient.  All arithmetic is exact; no floating point anywhere.
"""

from types import ModuleType as _ModuleType

from .closed_forms import BinetCoefficients, binet_coefficients, binet_term, decomposed_term
from .eisenstein import OMEGA1, OMEGA2, Eisenstein, NonRealResidueError
from .identities import (
    CheckResult,
    IdentityId,
    Report,
    catalan_rhs,
    check,
    gelin_cesaro_rhs,
    verify_range,
)
from .sequences import (
    JACOBSTHAL,
    JACOBSTHAL_LUCAS,
    CompanionSet,
    PeriodicTriple,
    SequenceParams,
    U_OFFSET,
    V_ORDINARY,
    W_ORDINARY,
    companions,
    term,
    term_range,
    u_value,
)
from .series import RECURRENCE_DENOMINATOR, gf_coefficients, gf_numerator, series_div
from .sums import (
    DegenerateStrideError,
    StridedSumContext,
    charpoly,
    prefix_sum_closed,
    strided_sum_closed,
    sum_oracle,
    weighted_sum_charpoly_form,
    weighted_sum_closed,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
