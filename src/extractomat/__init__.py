"""Desk-scale randomness extraction with a brute-force correctness oracle.

The package builds explicit and oracle-certified extractors, composes
them (seed lifting, alternating extraction, the three-source pipeline),
verifies the combinatorial gadgets they rely on, and simulates the
adversarial multi-party protocols that consume them -- with every error
claim checked against exhaustive flat-source enumeration wherever the
instance fits, and against seeded sampling where it does not.
"""

__version__ = "0.1.0"

from .dist import (Distribution, JointDistribution, cond_min_entropy,
                   min_entropy, statistical_distance, xor_project)
from .errors import (BudgetExceededError, ConstraintViolatedError,
                     InvalidInputError, SizeLimitError,
                     TargetUnreachableError)
from .extractors import ExtractorHandle, strong_projection
from .leakage import LeakageScenario, leakage_apply
from .sources import (BlockSourceSpec, FlatSource, SomewhereRandomSpec,
                      check_block_source)

__all__ = [
    "Distribution", "JointDistribution",
    "min_entropy", "cond_min_entropy", "statistical_distance", "xor_project",
    "FlatSource", "BlockSourceSpec", "SomewhereRandomSpec",
    "check_block_source",
    "LeakageScenario", "leakage_apply",
    "ExtractorHandle", "strong_projection",
    "InvalidInputError", "SizeLimitError", "BudgetExceededError",
    "TargetUnreachableError", "ConstraintViolatedError",
    "__version__",
]
