"""mexmoments: exact and asymptotic moments of generalized
minimal-excludant partition statistics.

Three independent computation routes are provided and cross-verified:
brute-force enumeration over partitions, exact generating-function
coefficient extraction, and closed-form growth laws; on top of those sit
scanners for the log-concavity and residue-bias questions.
"""

__version__ = "0.1.0"

from mexmoments.backend import BACKEND
from mexmoments.errors import ResourceCapError, ValidationError
from mexmoments.partitions import MexParams, sigma_oracle, varsigma_oracle
from mexmoments.qseries import (
    MomentSequence,
    moment_sequence,
    partition_numbers,
    sigma_gf_coeffs,
    varsigma_gf_coeffs,
)

__all__ = [
    "BACKEND",
    "MexParams",
    "MomentSequence",
    "ResourceCapError",
    "ValidationError",
    "__version__",
    "moment_sequence",
    "partition_numbers",
    "sigma_gf_coeffs",
    "sigma_oracle",
    "varsigma_gf_coeffs",
    "varsigma_oracle",
]
