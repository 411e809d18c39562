"""Integer partitions, conjugation, and horizontal stripes.

A partition is a weakly decreasing tuple of positive ints.  A horizontal
stripe outer/inner is a skew shape with at most one box per column.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial, prod
from operator import le
from typing import Iterator, NamedTuple

from .errors import InvalidParametersError, _is_int

Partition = tuple[int, ...]


class Stripe(NamedTuple):
    """A horizontal stripe, stored as its outer and inner shapes."""

    outer: Partition
    inner: Partition


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram: entry j-1 counts the parts of size >= j.

    Row i is the last row of columns p[i+1]+1 .. p[i], which all have length
    i+1, so the columns come from the row differences in O(rows + columns).
    """
    columns: list[int] = []
    right = 0
    for length in range(len(p), 0, -1):
        columns += [length] * (p[length - 1] - right)
        right = p[length - 1]
    return tuple(columns)


def is_even_partition(p: Partition) -> bool:
    return all(x % 2 == 0 for x in p)


def _interlaces(outer: Partition, inner: Partition) -> bool:
    """True iff outer[i+1] <= inner[i] <= outer[i] row by row, the parts unchecked.

    inner needs at least len(outer) - 1 rows, since every outer row past the
    first is positive, and at most len(outer).  On two partitions this is the
    horizontal stripe test.
    """
    if not len(outer) - 1 <= len(inner) <= len(outer):
        return False
    return all(map(le, inner, outer)) and all(map(le, outer[1:], inner))


def is_horizontal_stripe(outer: Partition, inner: Partition) -> bool:
    """True iff both shapes are partitions with at most one box of outer/inner per column.

    That is the row interlacing of `_interlaces`.  The interlacing makes both
    shapes weakly decreasing, so they are partitions once their parts are
    ints (not bools) and their last parts positive.  Every map on stripes
    gates its domain here.
    """
    return (
        _interlaces(outer, inner)
        and all(map(_is_int, outer))
        and all(map(_is_int, inner))
        and (not outer or outer[-1] >= 1)
        and (not inner or inner[-1] >= 1)
    )


def is_partition(p) -> bool:
    """True iff p holds ints >= 1 (not bools) in weakly decreasing order."""
    return is_horizontal_stripe(p, p)  # the empty stripe p/p


@cache
def partitions_of(n: int, max_first_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n, decreasing lexicographic, optionally capping the first part.

    The cache is unbounded: it keeps every (n, max_first_part) asked for, and
    the partitions of n grow like exp(pi * sqrt(2n/3)), for the life of the
    process.
    """
    if n < 0:
        return ()
    bound = n if max_first_part is None else min(n, max_first_part)
    if n == 0:
        return ((),)
    out = []
    for first in range(bound, 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return tuple(out)


def even_partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n with all parts even; empty for odd n."""
    if n % 2:
        return ()
    return tuple(tuple(2 * x for x in p) for p in partitions_of(n // 2))


@cache
def syt_count(p: Partition) -> int:
    """Number of standard fillings of the shape, by the hook length product.

    The cache is unbounded: it keeps the count of every shape asked for, one
    int each, for the life of the process.
    """
    conj = conjugate(p)
    hooks = prod(
        row - j + conj[j] - i - 1 for i, row in enumerate(p) for j in range(row)
    )
    return factorial(sum(p)) // hooks


def horizontal_strips_over(
    inner: Partition, size: int, max_first_part: int | None = None
) -> list[Partition]:
    """Outer shapes reached from `inner` by adding `size` boxes, no two per column.

    Returns them in decreasing lexicographic order, optionally keeping only
    those whose first part is at most max_first_part; a negative size or
    bound raises InvalidParametersError.

    A row equal to the row above it cannot grow, so the recursion branches
    only at corner rows, row 0 and each row shorter than the one above: one
    level per distinct part, which copies the rest of its run unchanged.
    """
    if size < 0:
        raise InvalidParametersError(f"strip size must be nonnegative, got {size}")
    if max_first_part is not None and max_first_part < 0:
        raise InvalidParametersError(f"bound must be nonnegative, got {max_first_part}")
    first = inner[0] if inner else 0
    bound = first + size if max_first_part is None else max_first_part
    if max(first, size) > bound:
        return []
    rows = len(inner)
    corners = [i for i in range(rows) if i == 0 or inner[i] < inner[i - 1]]
    ends = corners[1:] + [rows]
    out: list[Partition] = []

    def rec(k: int, remaining: int, prefix: Partition) -> None:
        if k == len(corners):
            out.append(prefix + (remaining,) if remaining else prefix)
            return
        i = corners[k]
        low = inner[i]
        high = min(inner[i - 1] if i else bound, low + remaining)
        run = inner[i + 1 : ends[k]]
        # the rows below, and a new last row, fit at most inner[i] more boxes
        for part in range(high, max(low, remaining) - 1, -1):
            rec(k + 1, remaining - (part - low), prefix + (part,) + run)

    rec(0, size, ())
    return out


def stripe_inners(outer: Partition) -> Iterator[Partition]:
    """Inner shapes mu with outer/mu a horizontal stripe, decreasing lexicographic."""
    if not outer:
        yield ()
        return
    # row i of the inner may end anywhere between the next outer row and this one
    ranges = [
        range(outer[i], (outer[i + 1] if i + 1 < len(outer) else 0) - 1, -1)
        for i in range(len(outer))
    ]
    for combo in product(*ranges):
        p = combo
        while p and p[-1] == 0:
            p = p[:-1]
        yield p
