"""Involutions with a prescribed fixed-point count."""

import itertools
import subprocess
import sys

import pytest

from involution_harmonics.errors import DomainViolationError, InvalidParametersError
from involution_harmonics.involutions import (
    Involution,
    count_involutions,
    involution,
    involutions,
)
from involution_harmonics.partitions import partitions_of, syt_count


def involution_mapping(w: Involution) -> tuple[int, ...]:
    """The permutation as a tuple: entry i-1 is the image of i."""
    image = list(range(1, w.n + 1))
    for i, j in w.pairs:
        image[i - 1], image[j - 1] = j, i
    return tuple(image)


def matrix_ones(w: Involution) -> frozenset[tuple[int, int]]:
    """Positions of the ones in the permutation matrix of w."""
    cells = {(i, i) for i in w.fixed}
    for i, j in w.pairs:
        cells.add((i, j))
        cells.add((j, i))
    return frozenset(cells)


def test_builder_normalizes():
    w = involution(4, [(3, 1)])
    assert w == Involution(4, ((1, 3),), (2, 4))
    assert involution(3, [], fixed=[1, 2, 3]) == Involution(3, (), (1, 2, 3))


def test_builder_rejects():
    with pytest.raises(ValueError):
        involution(4, [(1, 2), (2, 3)])  # overlapping
    with pytest.raises(ValueError):
        involution(3, [(1, 4)])  # out of range
    with pytest.raises(ValueError):
        involution(4, [(1, 2)], fixed=[3])  # 4 is missing
    with pytest.raises(DomainViolationError):
        involution(5, [(1, 2, 3)])  # three letters
    with pytest.raises(DomainViolationError):
        involution(5, [(4,)])  # one letter
    with pytest.raises(DomainViolationError):
        involution(4, [(1, 2.0)])  # not an integer
    with pytest.raises(DomainViolationError):
        involution(4, [(2, 2)])  # a letter paired with itself
    with pytest.raises(DomainViolationError):
        involution(4, [3])  # not a pair at all
    for n in (2.5, -1, 0, True, "3"):
        with pytest.raises(DomainViolationError):
            involution(n, [])  # not a positive integer
    for fixed in (["a", 3], 5, [True], [3.0]):
        with pytest.raises(DomainViolationError):
            involution(3, [(1, 2)], fixed=fixed)  # not integers


def test_count_small_values():
    assert count_involutions(1, 1) == 1
    assert count_involutions(4, 0) == 3
    assert count_involutions(4, 2) == 6
    assert count_involutions(7, 1) == 105
    with pytest.raises(InvalidParametersError):
        count_involutions(4, 3)  # parity
    with pytest.raises(InvalidParametersError):
        count_involutions(2, 4)  # a > n


def test_counts_sum_to_standard_tableaux():
    # summing over fixed-point counts recovers the number of standard
    # tableaux of all shapes of n, via the symmetric correspondence
    for n in range(1, 11):
        total = sum(count_involutions(n, a) for a in range(n % 2, n + 1, 2))
        assert total == sum(syt_count(lam) for lam in partitions_of(n))


def test_enumeration_is_complete():
    # check against a brute-force filter of all permutations
    for n in range(1, 6):
        perms = [
            p
            for p in itertools.permutations(range(1, n + 1))
            if all(p[p[i - 1] - 1] == i for i in range(1, n + 1))
        ]
        for a in range(n % 2, n + 1, 2):
            got = involutions(n, a)
            assert len(set(got)) == len(got)
            want = [p for p in perms if sum(p[i - 1] == i for i in range(1, n + 1)) == a]
            assert sorted(involution_mapping(w) for w in got) == sorted(want)


def reference_involutions(n, a):
    """The locus one letter per recursion level: the first letter left is
    fixed first, then paired with each later letter in turn."""

    def build(rest, fixed_left, pairs, fixed):
        if fixed_left > len(rest):
            return
        if not rest:
            yield Involution(n, pairs, fixed)
            return
        i, tail = rest[0], rest[1:]
        if fixed_left:
            yield from build(tail, fixed_left - 1, pairs, fixed + (i,))
        for k in range(len(tail)):
            yield from build(tail[:k] + tail[k + 1 :], fixed_left, pairs + ((i, tail[k]),), fixed)

    return tuple(build(tuple(range(1, n + 1)), a, (), ()))


def test_enumeration_order_is_the_letter_by_letter_order():
    # `enumerate involutions` prints this order and `candidate_basis` follows it
    for n in range(1, 10):
        for a in range(n % 2, n + 1, 2):
            assert involutions(n, a) == reference_involutions(n, a), (n, a)


def test_enumeration_does_not_recurse_per_fixed_point():
    # more letters than the interpreter's default recursion limit of 1000
    assert involutions(1500, 1500) == (Involution(1500, (), tuple(range(1, 1501))),)


def test_enumerated_points_are_already_normalized():
    # callers of involutions() trust its points without calling involution()
    for n in range(1, 10):
        for a in range(n % 2, n + 1, 2):
            for w in involutions(n, a):
                assert w == involution(n, w.pairs, w.fixed)


def test_mapping_is_self_inverse():
    for w in involutions(5, 1):
        p = involution_mapping(w)
        assert all(p[p[i - 1] - 1] == i for i in range(1, 6))


def test_matrix_ones():
    w = involution(4, [(1, 3)])
    assert matrix_ones(w) == {(1, 3), (3, 1), (2, 2), (4, 4)}
    for w in involutions(5, 3):
        cells = matrix_ones(w)
        assert len(cells) == 5
        assert {(j, i) for i, j in cells} == cells
        assert sum(i == j for i, j in cells) == 3


def test_involutions_raises_when_optimized_and_the_count_disagrees():
    # asserts vanish under -O; the count check must not
    code = (
        "import importlib\n"
        "inv = importlib.import_module('involution_harmonics.involutions')\n"
        "inv.count_involutions = lambda n, a: 0\n"
        "print(inv.involutions(4, 0))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
