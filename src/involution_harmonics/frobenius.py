"""Three routes to the graded Schur expansion of functions on the locus.

For valid (n, a), all three produce the same SchurPoly:

- graded_frobenius_signed: an inclusion-exclusion of Pieri products of even
  plethysms, truncated by first part inside the products, assembled degree
  by degree;
- graded_frobenius_positive: a manifestly positive count of nonnegative
  stripes per degree;
- graded_frobenius_width: one pass over stripes with even inner of size
  n - a, each contributing at the degree its width dictates.

The ungraded total and the Hilbert series specialize these.
"""

from __future__ import annotations

from .errors import DomainViolationError, InvariantError, check_locus_params
from .partitions import Partition, is_partition, syt_count
from .schur import (
    QP_ONE,
    QPoly,
    SchurPoly,
    _add_into,
    _frozen,
    is_nonnegative,
    pieri_mult,
    plethysm_h_h2,
)
from .stripes import positive_stripes, width_stripes


def graded_frobenius_signed(n: int, a: int) -> SchurPoly:
    """Sum over d of q^d times the truncated difference of consecutive Pieri products.

    The degree-d product h_{n-2d} h_d[h_2] is built only up to the degree's
    first-part bound n - 2d + a, and subtracted again at degree d + 1, whose
    bound is 2 lower, so truncating the difference stays exact.  Both go
    straight into one accumulator, the earlier one negated and truncated.
    """
    check_locus_params(n, a)
    acc: dict[Partition, list[int]] = {}
    previous: SchurPoly = {}
    for d in range((n - a) // 2 + 1):
        bound = n - 2 * d + a
        current = pieri_mult(plethysm_h_h2(d), n - 2 * d, bound)
        for lam, coeff in current.items():
            _add_into(acc, lam, coeff, d)
        for lam, coeff in previous.items():
            if not lam or lam[0] <= bound:
                _add_into(acc, lam, [-c for c in coeff], d)
        previous = current
    total = _frozen(acc)
    if not is_nonnegative(total):
        raise InvariantError("signed route produced a negative multiplicity")
    return total


def _by_outer(stripes) -> SchurPoly:
    """Sum of q^d s_outer over (stripe, d) pairs."""
    acc: dict[Partition, list[int]] = {}
    for s, d in stripes:
        _add_into(acc, s.outer, QP_ONE, d)
    return _frozen(acc)


def graded_frobenius_positive(n: int, a: int) -> SchurPoly:
    return _by_outer(positive_stripes(n, a))


def graded_frobenius_width(n: int, a: int) -> SchurPoly:
    return _by_outer(width_stripes(n, a))


def frobenius_total(n: int, a: int) -> SchurPoly:
    """The ungraded value: the even plethysm times the degree-a generator."""
    check_locus_params(n, a)
    return pieri_mult(plethysm_h_h2((n - a) // 2), a)


def hilbert_series(f: SchurPoly) -> QPoly:
    """Dimension series: each Schur term contributes its standard-filling count.

    DomainViolationError when a key is not a partition.
    """
    acc: dict[Partition, list[int]] = {}
    for lam, coeff in f.items():
        if not is_partition(lam):
            raise DomainViolationError(f"Schur key {lam!r} is not a partition")
        k = syt_count(lam)
        _add_into(acc, (), [k * c for c in coeff])
    return _frozen(acc).get((), ())
