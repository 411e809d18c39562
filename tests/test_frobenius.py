"""Graded Schur expansions for the locus, three ways."""

import pytest

from involution_harmonics.errors import DomainViolationError, InvalidParametersError
from involution_harmonics.frobenius import (
    frobenius_total,
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
    hilbert_series,
)
from involution_harmonics.involutions import count_involutions
from involution_harmonics.schur import qp_at_one, schur_at_one

from families import accumulate_term, qp_shift, signed_term

ROUTES = [graded_frobenius_signed, graded_frobenius_positive, graded_frobenius_width]


def valid_params(max_n):
    for n in range(1, max_n + 1):
        for a in range(n % 2, n + 1, 2):
            yield n, a


def test_frozen_small_expansions():
    for route in ROUTES:
        assert route(2, 0) == {(2,): (1,)}
        assert route(3, 1) == {(3,): (1,), (2, 1): (0, 1)}
        assert route(4, 0) == {(4,): (1,), (2, 2): (0, 1)}
        assert route(4, 2) == {(4,): (1,), (3, 1): (0, 1), (2, 2): (0, 1)}


def test_signed_term_degree_zero():
    assert signed_term(5, 1, 0) == {(5,): (1,)}
    assert signed_term(4, 0, 0) == {(4,): (1,)}


def test_signed_route_sums_the_truncated_differences():
    # each Pieri product is built once by the route and twice by signed_term
    for n, a in valid_params(12):
        expected = {}
        for d in range((n - a) // 2 + 1):
            for lam, coeff in signed_term(n, a, d).items():
                accumulate_term(expected, lam, qp_shift(coeff, d))
        assert graded_frobenius_signed(n, a) == expected


def test_routes_agree():
    for n, a in valid_params(7):
        signed = graded_frobenius_signed(n, a)
        assert signed == graded_frobenius_positive(n, a)
        assert signed == graded_frobenius_width(n, a)


def test_specializing_q_gives_the_ungraded_total():
    for n, a in valid_params(7):
        graded = graded_frobenius_width(n, a)
        assert schur_at_one(graded) == schur_at_one(frobenius_total(n, a))


def test_hilbert_values():
    assert hilbert_series({}) == ()
    assert hilbert_series(graded_frobenius_width(2, 0)) == (1,)
    assert hilbert_series(graded_frobenius_width(3, 1)) == (1, 2)
    assert hilbert_series(graded_frobenius_width(4, 0)) == (1, 2)
    assert hilbert_series(graded_frobenius_width(4, 2)) == (1, 5)
    assert hilbert_series(graded_frobenius_width(7, 1)) == (1, 20, 70, 14)


@pytest.mark.parametrize("f", [{(-1,): (3, -2)}, {(1, 2): (1,)}, {(2, 0): (1,)}])
def test_hilbert_series_rejects_a_key_that_is_not_a_partition(f):
    with pytest.raises(DomainViolationError, match="is not a partition"):
        hilbert_series(f)


def test_dimensions_sum_to_the_point_count():
    for n, a in valid_params(8):
        assert qp_at_one(hilbert_series(graded_frobenius_width(n, a))) == count_involutions(n, a)


def test_populated_top_degree():
    # with no fixed points the top graded piece cancels; otherwise the
    # expansion reaches its degree bound
    for n, a in valid_params(8):
        series = hilbert_series(graded_frobenius_width(n, a))
        top = (n - a) // 2
        assert len(series) - 1 == (top if a else top - 1)


def test_parameter_validation():
    for bad in [(4, 3), (4, 5), (0, 0), (3, 0), (-2, 0), (True, True)]:
        for route in ROUTES + [frobenius_total]:
            with pytest.raises(InvalidParametersError):
                route(*bad)
