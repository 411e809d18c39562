"""Partition primitives against independent recursions and brute force."""

from math import factorial

import pytest
from hypothesis import given, strategies as st

from involution_harmonics.errors import InvalidParametersError
from involution_harmonics.partitions import (
    Partition,
    _interlaces,
    conjugate,
    even_partitions_of,
    horizontal_strips_over,
    is_even_partition,
    is_horizontal_stripe,
    partitions_of,
    stripe_inners,
    syt_count,
)
from involution_harmonics.schur import QP_ONE, pieri_mult

from families import even_inner_stripes


def as_partition(parts) -> Partition:
    """Normalize an iterable into a partition tuple, trimming trailing zeros."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x <= 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not a partition: {parts!r}")
    return p


def conjugate_by_column_counts(p: Partition) -> Partition:
    """Reference transpose: entry j-1 counts the parts of size >= j."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def is_horizontal_stripe_by_columns(outer: Partition, inner: Partition) -> bool:
    """Reference stripe test: every column of outer keeps all but at most one box.

    Columns of inner past the last column of outer do not fit inside it.
    """
    oc, ic = conjugate_by_column_counts(outer), conjugate_by_column_counts(inner)
    if len(ic) > len(oc):
        return False
    return all(0 <= oc[j] - (ic[j] if j < len(ic) else 0) <= 1 for j in range(len(oc)))


def interlaces_by_padding(outer, inner) -> bool:
    """Reference row interlacing: outer[i+1] <= inner[i] <= outer[i], both padded with zeros."""
    if len(inner) > len(outer):
        return False
    o = tuple(outer) + (0,)
    i = tuple(inner) + (0,) * (len(outer) - len(inner))
    return all(o[r + 1] <= i[r] <= o[r] for r in range(len(outer)))


partition_st = st.lists(st.integers(1, 10), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_as_partition_normalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([1, -1])


def test_conjugate_values():
    assert conjugate((7, 4, 4, 2)) == (4, 4, 3, 3, 1, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1,)) == (1,)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


def test_conjugate_matches_column_counts():
    for n in range(15):
        for p in partitions_of(n):
            assert conjugate(p) == conjugate_by_column_counts(p)


@given(partition_st)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


def euler_partition_count(n):
    # pentagonal number recurrence, entirely separate from the enumerator
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


@pytest.mark.parametrize("n", range(0, 26))
def test_partition_counts_match_recurrence(n):
    assert len(partitions_of(n)) == euler_partition_count(n)


def test_partitions_are_canonical():
    for n in range(9):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            assert all(x > 0 for x in p)
        assert list(ps) == sorted(ps, reverse=True)


def test_partitions_first_part_cap():
    for n in range(9):
        for cap in range(n + 2):
            capped = partitions_of(n, max_first_part=cap)
            expected = tuple(p for p in partitions_of(n) if not p or p[0] <= cap)
            assert capped == expected


def test_even_partitions():
    assert even_partitions_of(3) == ()
    assert even_partitions_of(0) == ((),)
    assert even_partitions_of(4) == ((4,), (2, 2))
    for n in range(0, 13, 2):
        evens = even_partitions_of(n)
        assert all(is_even_partition(p) for p in evens)
        assert set(evens) == {p for p in partitions_of(n) if is_even_partition(p)}


def syt_count_by_corner_removal(p):
    # f(shape) = sum of f(shape minus one removable corner)
    if not p:
        return 1
    total = 0
    for i in range(len(p)):
        if i + 1 == len(p) or p[i] > p[i + 1]:
            smaller = p[:i] + ((p[i] - 1,) if p[i] > 1 else ()) + p[i + 1 :]
            total += syt_count_by_corner_removal(smaller)
    return total


def test_syt_count_values():
    assert syt_count(()) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((3, 1)) == 3
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2)) == 5
    assert syt_count((4,)) == 1
    assert syt_count((1, 1, 1, 1)) == 1


def test_syt_count_matches_corner_recursion():
    for n in range(9):
        for p in partitions_of(n):
            assert syt_count(p) == syt_count_by_corner_removal(p)


@pytest.mark.parametrize("n", range(1, 11))
def test_syt_squares_sum_to_factorial(n):
    assert sum(syt_count(p) ** 2 for p in partitions_of(n)) == factorial(n)


def test_horizontal_stripe_matches_interlacing():
    # one box per column is the same as mu_i >= lam_{i+1} row interlacing;
    # every pair of partitions, stripe or not, meets the column-count reference
    for n in range(15):
        for lam in partitions_of(n):
            for m in range(n + 1):
                for mu in partitions_of(m):
                    interlaced = interlaces_by_padding(lam, mu)
                    assert is_horizontal_stripe(lam, mu) == interlaced
                    assert interlaced == is_horizontal_stripe_by_columns(lam, mu)


@given(st.lists(st.integers(1, 6), max_size=5), st.lists(st.integers(1, 6), max_size=5))
def test_interlaces_matches_the_padded_reference(outer, inner):
    # positive parts in any order: the row test alone, without the partition check
    assert _interlaces(tuple(outer), tuple(inner)) == interlaces_by_padding(outer, inner)


@pytest.mark.parametrize(
    "outer, inner",
    [
        ((2, 0), (1,)),  # a zero part
        ((2,), (0,)),
        ((0, 0), (0,)),
        ((4, 4), (4, 0)),
        ((2, -1), (1,)),  # a negative part
        ((2,), (True,)),  # a bool is not a part
    ],
)
def test_horizontal_stripe_needs_two_partitions(outer, inner):
    # the row interlacing alone accepts each pair; only the parts are at fault
    assert not is_horizontal_stripe(outer, inner)


def test_horizontal_strips_over_values():
    assert list(horizontal_strips_over((1,), 2)) == [(3,), (2, 1)]
    assert list(horizontal_strips_over((2, 1), 2)) == [
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
    ]
    assert list(horizontal_strips_over((), 3)) == [(3,)]
    assert list(horizontal_strips_over((2, 2), 0)) == [(2, 2)]


def test_horizontal_strips_over_rejects_a_negative_size():
    for inner in [(), (2, 1)]:
        with pytest.raises(InvalidParametersError):
            horizontal_strips_over(inner, -1)
        with pytest.raises(InvalidParametersError):
            horizontal_strips_over(inner, 2, -1)
        with pytest.raises(InvalidParametersError):
            pieri_mult({inner: QP_ONE}, 2, -1)
    with pytest.raises(InvalidParametersError):
        pieri_mult({}, 2, -1)


def test_horizontal_strips_over_is_exhaustive():
    # besides every small inner, the even inners the routes pass and runs of
    # equal parts, whose rows below the first the recursion copies unbranched
    inners = [mu for m in range(7) for mu in partitions_of(m)]
    inners += [mu for m in range(8, 15, 2) for mu in even_partitions_of(m)]
    inners += [(2,) * k for k in range(8, 11)]
    inners += [(4, 4, 2, 2, 2), (6, 6, 6, 2, 2, 2, 2), (3, 3, 3, 1, 1, 1, 1), (1,) * 9]
    for mu in inners:
        m = sum(mu)
        for size in range(7):
            strips = [
                lam for lam in partitions_of(m + size) if is_horizontal_stripe(lam, mu)
            ]
            for bound in [None, *range(m + size + 2)]:
                got = horizontal_strips_over(mu, size, bound)
                assert got == [
                    lam for lam in strips if bound is None or (lam[0] if lam else 0) <= bound
                ], (mu, size, bound)


def test_stripe_inners_is_exhaustive():
    for n in range(9):
        for lam in partitions_of(n):
            got = list(stripe_inners(lam))
            expected = [
                mu
                for m in range(n + 1)
                for mu in partitions_of(m)
                if is_horizontal_stripe(lam, mu)
            ]
            assert sorted(got) == sorted(expected)
            assert len(set(got)) == len(got)


def test_even_inner_stripes():
    assert even_inner_stripes((3, 1), 3) == ()
    stripes = even_inner_stripes((3, 1), 2)
    assert [s.inner for s in stripes] == [(2,)]
    assert all(s.outer == (3, 1) for s in stripes)
    for lam in partitions_of(6):
        for size in range(0, 7, 2):
            inners = {s.inner for s in even_inner_stripes(lam, size)}
            expected = {
                mu
                for mu in partitions_of(size)
                if is_even_partition(mu) and is_horizontal_stripe(lam, mu)
            }
            assert inners == expected


def test_even_inner_stripes_matches_the_filter_definition():
    for m in range(17):
        for outer in partitions_of(m):
            for size in range(-1, m + 2):
                expected = tuple(
                    (outer, mu)
                    for mu in stripe_inners(outer)
                    if sum(mu) == size and is_even_partition(mu)
                )
                assert even_inner_stripes(outer, size) == expected
