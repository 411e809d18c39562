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
    """All involutions of 1..n with exactly a fixed points, deterministic order.

    The first letter left is fixed first, then paired with each later letter
    in turn.  One call places a run of fixed letters and the next pair, so
    the recursion is as deep as the pairs are many, not the letters.
    """
    check_locus_params(n, a)
    out: list[Involution] = []

    def build(
        rest: tuple[int, ...],
        fixed_left: int,
        fixed: tuple[int, ...],
        pairs: tuple[tuple[int, int], ...],
    ) -> None:
        if fixed_left == len(rest):
            out.append(Involution(n, pairs, fixed + rest))
            return
        # the first m letters left are fixed and the next one is paired,
        # the most fixed first: each letter is fixed before it is paired
        for m in range(fixed_left, -1, -1):
            i, now_fixed = rest[m], fixed + rest[:m]
            for k in range(m + 1, len(rest)):
                later = rest[m + 1 : k] + rest[k + 1 :]
                build(later, fixed_left - m, now_fixed, pairs + ((i, rest[k]),))

    build(tuple(range(1, n + 1)), a, (), ())
    expected = count_involutions(n, a)
    if len(out) != expected:
        raise InvariantError(
            f"enumerated {len(out)} involutions of n={n}, a={a}, expected {expected}"
        )
    return tuple(out)
