"""Order-monotone extension toolkit.

Check whether a partial utility on a preordered set admits a monotone
extension, and evaluate a canonical bounded extension when it does.
"""

from ordext.contours import (
    AnalyticFixture,
    ContourOracle,
    FiniteSampleOracle,
    PartialUtility,
)
from ordext.extension import (
    AGREEMENT_TOL,
    Band,
    ContourRegion,
    DiscordantFormsError,
    ExtensionEngine,
    UnboundedContourError,
    make_engine,
)
from ordext.fixtures import FIXTURE_NAMES, get_fixture
from ordext.monotonicity import (
    Verdict,
    Witness,
    check_gap_safe_finite,
    check_gap_safe_pareto,
    check_gap_safe_probes,
    check_strictly_increasing,
    check_weakly_increasing,
)
from ordext.orders import (
    BOTTOM,
    TOP,
    Augmented,
    FinitePreorder,
    ForeignElementError,
    ParetoSpace,
    Preorder,
    UnsupportedQueryError,
    strictly_above,
)
from ordext.utility import (
    UtilityFn,
    finite_utility,
    normalize01,
    pareto_base_utility,
    squash,
)

__all__ = [
    "AGREEMENT_TOL",
    "AnalyticFixture",
    "Augmented",
    "BOTTOM",
    "Band",
    "ContourOracle",
    "ContourRegion",
    "DiscordantFormsError",
    "ExtensionEngine",
    "FIXTURE_NAMES",
    "FinitePreorder",
    "FiniteSampleOracle",
    "ForeignElementError",
    "ParetoSpace",
    "PartialUtility",
    "Preorder",
    "TOP",
    "UnboundedContourError",
    "UnsupportedQueryError",
    "UtilityFn",
    "Verdict",
    "Witness",
    "check_gap_safe_finite",
    "check_gap_safe_pareto",
    "check_gap_safe_probes",
    "check_strictly_increasing",
    "check_weakly_increasing",
    "finite_utility",
    "get_fixture",
    "make_engine",
    "normalize01",
    "pareto_base_utility",
    "squash",
    "strictly_above",
]
