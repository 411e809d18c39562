"""Graded Schur expansions for the locus, three ways."""

import pytest

from involution_harmonics import checks
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

from families import accumulate_term, qp_shift, schur_sub, signed_term

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


def restrict(f):
    """Res to S_(n-1) of a graded Schur expansion.

    Each s_lam goes to the sum of the s_mu with mu = lam less one corner box.
    """
    out = {}
    for lam, coeff in f.items():
        for i, part in enumerate(lam):
            if i + 1 == len(lam) or lam[i + 1] < part:
                mu = lam[:i] + (part - 1,) + lam[i + 1 :]
                accumulate_term(out, mu[:-1] if not mu[-1] else mu, coeff)
    return out


def nonnegative_difference(f, g):
    """Whether f - g has no negative coefficient, in any degree of any Schur term."""
    return all(c >= 0 for coeff in schur_sub(f, g).values() for c in coeff)


def relations_between_loci(route, max_n):
    """Hold one route to the relations between its loci with n <= max_n.

    The points of M(n, a) that fix n form M(n - 1, a - 1), and those that
    pair n - 1 with n form M(n - 2, a); each is stable under the symmetric
    group on the other letters, so restriction maps each graded piece onto
    the sub-locus's, degree by degree.  On M(2k, 0) letter 2k is always
    paired, and reading x_(i,2k) as x_ii identifies it with M(2k - 1, 1).
    Returns the numbers of fixed-letter and paired-letter inequalities and
    of equalities checked, and the relations that fail, rather than
    asserting, so that a run under python -O checks too.
    """
    fixed = paired = equal = 0
    failures = []
    for n, a in valid_params(max_n):
        once = restrict(route(n, a))
        if a >= 1 and n >= 2:
            if not nonnegative_difference(once, route(n - 1, a - 1)):
                failures.append(("fixed", n, a))
            fixed += 1
        if a <= n - 2 and n >= 3:
            if not nonnegative_difference(restrict(once), route(n - 2, a)):
                failures.append(("paired", n, a))
            paired += 1
        if a == 0:
            if once != route(n - 1, 1):
                failures.append(("equal", n, a))
            equal += 1
    return fixed, paired, equal, failures


def test_relations_between_loci():
    # each route on its own, without the other two; CI runs the same helper
    # up to n = 28 under python -O
    for route in ROUTES:
        assert relations_between_loci(route, 16) == (71, 63, 8, []), route


def wrong_at(locus, real, wrong):
    """real, except that it returns wrong(real(n, a)) at the given (n, a)."""
    return lambda n, a: wrong(real(n, a)) if (n, a) == locus else real(n, a)


# at (3, 1) the routes give s_(3) + q s_(2,1), the total s_(3) + s_(2,1), and 3 points
FAULTS = {
    "routes disagree": {
        "graded_frobenius_signed": lambda f: {**f, (1, 1, 1): (1,)},
    },
    "q=1 does not match the ungraded total": {
        "frobenius_total": lambda f: {**f, (3,): (2,)},
    },
    "dimensions do not sum to 4": {
        "count_involutions": lambda count: count + 1,
    },
    # the routes agree on s_(2,1) at q^2, past the top degree 1, so the
    # populated top degree is wrong as well
    "a degree exceeds 1; top populated degree is not 1": {
        route.__name__: lambda f: {**f, (2, 1): (0, 0, 1)} for route in ROUTES
    },
    "top populated degree is not 1": {
        route.__name__: lambda f: {**f, (2, 1): (1,)} for route in ROUTES
    },
}


@pytest.mark.parametrize("reasons", FAULTS)
def test_check_formulas_names_each_failure(monkeypatch, reasons):
    for name, wrong in FAULTS[reasons].items():
        monkeypatch.setattr(checks, name, wrong_at((3, 1), getattr(checks, name), wrong))
    ok, lines = checks.check_formulas(4)
    assert ok is False
    # every other locus still passes, with its own verdict line
    assert len(lines) == 8
    assert [line for line in lines if not line.endswith(" points")] == [f"n=3 a=1: {reasons}"]
