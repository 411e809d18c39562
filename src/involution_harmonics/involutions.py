"""The locus: involutions of 1..n with a prescribed number of fixed points,
viewed as symmetric 0/1 permutation matrices."""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .errors import DomainViolationError, InvariantError, _is_int, check_locus_params


class Involution(NamedTuple):
    """An involution of 1..n: sorted disjoint transpositions plus fixed points."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...]


def involution(n: int, pairs, fixed=None) -> Involution:
    """Build and validate an involution from its transpositions.

    n must be a positive integer, each pair must hold two distinct integers in
    1..n, no letter may sit in two pairs, and fixed points, when given, must be
    integers; DomainViolationError otherwise.  Fixed points default to the
    letters not covered by any pair.
    """
    if not _is_int(n) or n < 1:
        raise DomainViolationError(f"n={n!r} is not a positive integer")
    norm = []
    covered: set[int] = set()
    for p in pairs:
        if not isinstance(p, (tuple, list)) or len(p) != 2:
            raise DomainViolationError(f"pair {p!r} is not a transposition")
        i, j = p
        if not (_is_int(i) and _is_int(j)) or i == j:
            raise DomainViolationError(f"pair {p!r} is not a transposition")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise DomainViolationError(f"pairs {pairs!r} do not fit inside 1..{n}")
        if i in covered or j in covered:
            raise DomainViolationError(f"pairs {pairs!r} are not disjoint")
        covered.add(i)
        covered.add(j)
        norm.append((i, j))
    norm.sort()
    rest = tuple(x for x in range(1, n + 1) if x not in covered)
    if fixed is not None:
        try:
            given = tuple(sorted(fixed))
        except TypeError:  # not iterable, or letters that do not compare
            given = None
        if given is None or not all(map(_is_int, given)):
            raise DomainViolationError(f"fixed points {fixed!r} are not integers")
        if given != rest:
            raise DomainViolationError(
                f"fixed points {fixed!r} disagree with pairs {pairs!r}"
            )
    return Involution(n, tuple(norm), rest)


def count_involutions(n: int, a: int) -> int:
    """n! / (2^k k! a!) where k = (n - a) / 2."""
    check_locus_params(n, a)
    k = (n - a) // 2
    return factorial(n) // (2**k * factorial(k) * factorial(a))


def involutions(n: int, a: int) -> tuple[Involution, ...]:
    """All involutions of 1..n with exactly a fixed points, deterministic order."""
    check_locus_params(n, a)
    out: list[Involution] = []
    pairs: list[tuple[int, int]] = []
    fixed: list[int] = []

    def build(rest: tuple[int, ...], fixed_left: int) -> None:
        if fixed_left > len(rest):
            return
        if not rest:
            out.append(Involution(n, tuple(pairs), tuple(fixed)))
            return
        i, tail = rest[0], rest[1:]
        if fixed_left:
            fixed.append(i)
            build(tail, fixed_left - 1)
            fixed.pop()
        for k in range(len(tail)):
            pairs.append((i, tail[k]))
            build(tail[:k] + tail[k + 1 :], fixed_left)
            pairs.pop()

    build(tuple(range(1, n + 1)), a)
    expected = count_involutions(n, a)
    if len(out) != expected:
        raise InvariantError(
            f"enumerated {len(out)} involutions of n={n}, a={a}, expected {expected}"
        )
    return tuple(out)
