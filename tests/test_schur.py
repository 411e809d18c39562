"""Schur-basis arithmetic with q-polynomial coefficients."""

import pytest
from hypothesis import given, strategies as st

from involution_harmonics.errors import InvalidParametersError
from involution_harmonics.frobenius import (
    frobenius_total,
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
)
from involution_harmonics.partitions import partitions_of, syt_count
from involution_harmonics.schur import (
    QP_ONE,
    QPoly,
    _add_into,
    _frozen,
    is_nonnegative,
    pieri_mult,
    plethysm_h_h2,
    qp_at_one,
    qp_normal,
    schur_at_one,
    schur_terms,
)

from families import accumulate_term, qp_add, qp_neg, qp_shift, schur_sub, truncated


def qp(*coeffs: int) -> QPoly:
    return qp_normal(coeffs)


def qp_coeff(f: QPoly, d: int) -> int:
    return f[d] if 0 <= d < len(f) else 0


qpoly_st = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda xs: tuple(xs[: len(xs) - next((i for i, x in enumerate(reversed(xs)) if x), len(xs))])
)


def test_qp_normalization():
    assert qp(1, 0, 2, 0, 0) == (1, 0, 2)
    assert qp(0, 0) == ()
    assert qp() == ()


@given(qpoly_st, qpoly_st)
def test_qp_add_commutes(f, g):
    assert qp_add(f, g) == qp_add(g, f)
    assert qp_add(f, ()) == f


@given(qpoly_st)
def test_qp_neg_cancels(f):
    assert qp_add(f, qp_neg(f)) == ()


def test_qp_shift_and_coeff():
    assert qp_shift((1, 2), 2) == (0, 0, 1, 2)
    assert qp_shift((), 3) == ()
    assert qp_coeff((1, 2), 1) == 2
    assert qp_coeff((1, 2), 5) == 0
    assert qp_at_one((1, 2, 3)) == 6


def test_pieri_examples():
    assert pieri_mult({(1,): QP_ONE}, 2) == {(3,): QP_ONE, (2, 1): QP_ONE}
    assert pieri_mult({(2, 1): QP_ONE}, 2) == {
        (4, 1): QP_ONE,
        (3, 2): QP_ONE,
        (3, 1, 1): QP_ONE,
        (2, 2, 1): QP_ONE,
    }
    assert pieri_mult({(): QP_ONE}, 0) == {(): QP_ONE}


def test_pieri_multiplications_commute():
    # h_a h_b = h_b h_a applied to several starting terms
    for start in [{(): QP_ONE}, {(2, 1): QP_ONE}, {(3, 3, 1): (1, 2)}]:
        for a in range(4):
            for b in range(4):
                ab = pieri_mult(pieri_mult(start, a), b)
                ba = pieri_mult(pieri_mult(start, b), a)
                assert ab == ba


def test_pieri_h1_powers_give_filling_counts():
    # multiplying n copies of h_1 spreads 1 over all shapes with multiplicity
    # equal to the number of standard fillings
    f = {(): QP_ONE}
    for _ in range(6):
        f = pieri_mult(f, 1)
    assert f == {lam: (syt_count(lam),) for lam in partitions_of(6)}


def test_plethysm_values():
    assert plethysm_h_h2(0) == {(): QP_ONE}
    assert plethysm_h_h2(2) == {(4,): QP_ONE, (2, 2): QP_ONE}
    for d in range(7):
        f = plethysm_h_h2(d)
        assert all(c == QP_ONE for c in f.values())
        assert all(sum(lam) == 2 * d for lam in f)
        assert all(all(x % 2 == 0 for x in lam) for lam in f)
    for d in (-1, -2):
        with pytest.raises(InvalidParametersError):
            plethysm_h_h2(d)


def test_plethysm_counts_match_partition_counts():
    for d in range(9):
        assert len(plethysm_h_h2(d)) == len(partitions_of(d))


def test_pieri_bound_keeps_the_truncated_terms():
    # a bound inside the Pieri product builds exactly the terms truncation keeps
    for d in range(4):
        for a in range(4):
            g = plethysm_h_h2(d)
            full = pieri_mult(g, a)
            for bound in range(2 * d + a + 2):
                assert pieri_mult(g, a, bound) == truncated(full, bound)


def test_schur_add_sub_shift():
    f = {(2,): (1, 1)}
    g = {(2,): (0, -1), (1, 1): QP_ONE}
    assert schur_sub(f, g) == {(2,): (1, 2), (1, 1): (-1,)}
    assert schur_sub(f, f) == {}
    assert schur_at_one({(2,): (1, -1), (1, 1): (2,)}) == {(1, 1): 2}
    assert is_nonnegative({(2,): (0, 3)})
    assert not is_nonnegative({(2,): (1, -1)})


def assert_valid_schur_poly(f):
    # a missed trailing zero or a cancelled key left behind fails here
    for lam, coeff in f.items():
        assert isinstance(lam, tuple) and isinstance(coeff, tuple)
        assert coeff and coeff[-1] != 0
        assert all(type(c) is int for c in coeff)


def test_routes_and_products_return_valid_schur_polys():
    for n in range(1, 15):
        for a in range(n % 2, n + 1, 2):
            for route in (
                graded_frobenius_signed,
                graded_frobenius_positive,
                graded_frobenius_width,
                frobenius_total,
            ):
                assert_valid_schur_poly(route(n, a))
        for d in range(n // 2 + 1):
            assert_valid_schur_poly(pieri_mult(plethysm_h_h2(d), n - 2 * d))


# raw coefficient lists, trailing zeros allowed, added at a shift
addition_st = st.tuples(
    st.sampled_from(partitions_of(3) + partitions_of(4)),
    st.lists(st.integers(-3, 3), max_size=4),
    st.integers(0, 3),
)


def accumulated(additions):
    acc = {}
    for lam, coeff, shift in additions:
        _add_into(acc, lam, coeff, shift)
    return acc


@given(st.lists(addition_st, max_size=12), st.data())
def test_accumulator_matches_the_tuple_reference_in_any_order(additions, data):
    expected = {}
    for lam, coeff, shift in additions:
        accumulate_term(expected, lam, qp_shift(qp_normal(coeff), shift))
    shuffled = data.draw(st.permutations(additions))
    frozen = _frozen(accumulated(additions))
    assert frozen == expected
    assert_valid_schur_poly(frozen)
    assert _frozen(accumulated(shuffled)) == expected


@given(st.lists(addition_st, max_size=8), addition_st)
def test_adding_zero_or_a_cancelling_pair(additions, extra):
    lam, coeff, shift = extra
    before = _frozen(accumulated(additions))
    acc = accumulated(additions)
    _add_into(acc, lam, [0] * len(coeff), shift)
    assert _frozen(acc) == before
    # c plus -c changes no entry, and at a fresh key leaves no key behind
    fresh = (9,)
    acc = accumulated(additions)
    for key in (lam, fresh):
        _add_into(acc, key, coeff, shift)
        _add_into(acc, key, [-c for c in coeff], shift)
    assert _frozen(acc) == before


def test_schur_terms_order():
    f = {(2, 1): QP_ONE, (3,): QP_ONE, (1, 1, 1): QP_ONE}
    assert [lam for lam, _ in schur_terms(f)] == [(3,), (2, 1), (1, 1, 1)]
