"""Exact combinatorics of involution matrix loci.

The locus is the set of symmetric 0/1 permutation matrices of size n with a
fixed points.  The package computes the graded Schur expansion of its function
space three independent ways, realizes the bijections behind the formulas,
builds the candidate monomial basis through RSK, and verifies everything with
an exact brute-force oracle.
"""

from .bijections import (
    attach_domino,
    detach_domino,
    first_lowest_point,
    last_lowest_point,
    to_nonnegative_stripe,
    to_width_stripe,
)
from .errors import (
    DomainViolationError,
    InvalidParametersError,
    InvariantError,
    ResourceLimitError,
)
from .frobenius import (
    frobenius_total,
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
    hilbert_series,
)
from .involutions import Involution, count_involutions, involution, involutions
from .oracle import graded_hilbert, oracle_graded_frobenius, verify_monomial_basis
from .partitions import Partition, Stripe
from .stripes import width
from .tableaux import (
    candidate_basis,
    candidate_monomial,
    involution_tableau_pair,
    rsk_symmetric,
    rsk_symmetric_inverse,
)

__all__ = [
    "DomainViolationError",
    "InvalidParametersError",
    "InvariantError",
    "Involution",
    "Partition",
    "ResourceLimitError",
    "Stripe",
    "attach_domino",
    "candidate_basis",
    "candidate_monomial",
    "count_involutions",
    "detach_domino",
    "first_lowest_point",
    "frobenius_total",
    "graded_frobenius_positive",
    "graded_frobenius_signed",
    "graded_frobenius_width",
    "graded_hilbert",
    "hilbert_series",
    "involution",
    "involution_tableau_pair",
    "involutions",
    "last_lowest_point",
    "oracle_graded_frobenius",
    "rsk_symmetric",
    "rsk_symmetric_inverse",
    "to_nonnegative_stripe",
    "to_width_stripe",
    "verify_monomial_basis",
    "width",
]
