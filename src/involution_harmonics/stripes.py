"""Step paths of horizontal stripes: matching, width, and the indexing sets.

Every horizontal stripe outer/inner determines a lattice path read off the
columns of the outer shape: column j contributes an ascent when it meets the
stripe and a descent otherwise, and the path continues with descents forever
past the last column.  Only the first outer[0] steps are stored; the descent
tail is implicit.  `_row_heights` reads the end and lowest heights off the rows.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator

from .errors import (
    DomainViolationError,
    InvariantError,
    check_degree_params,
    check_locus_params,
)
from .partitions import (
    Partition,
    Stripe,
    even_partitions_of,
    horizontal_strips_over,
    is_even_partition,
    is_horizontal_stripe,
)

Steps = tuple[int, ...]  # +1 ascent, -1 descent, one entry per column of the outer shape

_STEP_CHARS = {1: "N", -1: "S"}


def stripe_steps(s: Stripe) -> Steps:
    """The stored prefix of the stripe's path, one step per column of the outer shape.

    Requires s to be a horizontal stripe, as every caller guarantees: row i
    then holds the stripe's boxes in columns inner[i]+1 .. outer[i], each the
    only one of its column, and every other column is a descent.
    """
    outer, inner = s
    steps = [-1] * (outer[0] if outer else 0)
    for i, right in enumerate(outer):
        left = inner[i] if i < len(inner) else 0
        steps[left:right] = [1] * (right - left)
    return tuple(steps)


def steps_heights(steps: Steps) -> tuple[int, ...]:
    """Running heights y(0), ..., y(len(steps)) of the prefix, starting at 0."""
    heights = [0]
    for step in steps:
        heights.append(heights[-1] + step)
    return tuple(heights)


def steps_to_string(steps: Steps) -> str:
    return "".join(_STEP_CHARS[s] for s in steps)


def _ascent_columns(steps: Steps) -> frozenset[int]:
    """The 1-based columns where the stored prefix steps up: the stripe's columns."""
    return frozenset(j for j, step in enumerate(steps, start=1) if step == 1)


def _stripe_from_columns(outer: Partition, cols: AbstractSet[int]) -> Stripe:
    """The stripe over `outer` whose occupied columns are exactly `cols`.

    The columns must be ints in 1..outer[0], as every caller reads them off a
    stripe's own steps; they are not checked.  Row i holds the bottom boxes of
    columns outer[i+1]+1 .. outer[i] (0 past the last row), so its inner row
    ends before the run of chosen columns at the right of that range.  Raises
    DomainViolationError when no horizontal stripe has that column set: a
    chosen column left of an unchosen one in the same range would leave no
    partition shape behind.
    """
    inner: list[int] = []
    for i, right in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        left = right
        while left > below and left in cols:
            left -= 1
        inner.append(left)
    # the runs are disjoint, so they cover every chosen column exactly when
    # their lengths add up to the number of chosen columns
    if sum(outer) - sum(inner) != len(cols):
        raise DomainViolationError(
            f"columns {sorted(cols)!r} leave no partition shape inside {outer}"
        )
    # only the last row can be 0, and a partition leaves it out
    return Stripe(outer, tuple(filter(None, inner)))


def matched_pairs(steps: Steps) -> list[tuple[int, int]]:
    """Match each ascent i with the first later descent j returning to its level.

    Step indices are 1-based.  Descents in the implicit tail close any ascents
    still open at the end of the prefix, innermost first, at positions
    len(steps)+1, len(steps)+2, ...
    """
    pairs = []
    stack: list[int] = []
    for j, step in enumerate(steps, start=1):
        if step == 1:
            stack.append(j)
        elif stack:
            pairs.append((stack.pop(), j))
    for offset, i in enumerate(reversed(stack), start=1):
        pairs.append((i, len(steps) + offset))
    return sorted(pairs)


def _row_heights(s: Stripe) -> tuple[int, int]:
    """(y(end), min y) of a horizontal stripe's stored prefix, one row at a time.

    Bottom-up, row i gives inner[i] - outer[i+1] descents (0 past the last
    row), then outer[i] - inner[i] ascents; only descents reach a new low.
    """
    outer, inner = s
    height = low = below = 0
    for i in range(len(outer) - 1, -1, -1):
        left = inner[i] if i < len(inner) else 0
        height -= left - below
        if height < low:
            low = height
        height += outer[i] - left
        below = outer[i]
    return height, low


def _row_width(s: Stripe) -> int:
    """width() for a stripe known to be horizontal: outer[0] + y(end) - min y."""
    outer = s[0]
    end, low = _row_heights(s)
    return (outer[0] if outer else 0) + end - low


def width(s: Stripe) -> int:
    """Horizontal extent of a horizontal stripe's matching; DomainViolationError if not.

    Equals the largest descent position used by matched_pairs, but never less
    than outer[0]: outer[0] + y(end) - min(y), as the y(end) - min(y) ascents
    still open at the end of the prefix close one tail step apiece.
    """
    if not is_horizontal_stripe(*s):
        raise DomainViolationError(f"{s} is not a horizontal stripe")
    return _row_width(s)


def width_by_matching(steps: Steps, pairs: list[tuple[int, int]]) -> int:
    """Width of a stripe's path from its matching, matched_pairs(steps).

    Cross-checks width(); the caller passes the matching it already built.
    """
    return max(len(steps), max((j for _, j in pairs), default=0))


def width_by_prefix_sums(steps: Steps) -> int:
    """Width of a stripe's path from the reversed column word; cross-checks width().

    Reading the columns right to left as +1/-1 and tracking the running sum,
    the width exceeds the column count by the largest nonnegative prefix sum.
    """
    best = running = 0
    for step in reversed(steps):
        running += step
        if running > best:
            best = running
    return len(steps) + best


def in_stripe_family(s: Stripe, d: int) -> bool:
    """True iff s is a horizontal stripe whose inner shape is even of size 2d."""
    return (
        is_horizontal_stripe(s.outer, s.inner)
        and is_even_partition(s.inner)
        and sum(s.inner) == 2 * d
    )


def in_nonnegative_family(s: Stripe, d: int) -> bool:
    """True iff s is in the degree-d family and its stored prefix never dips below 0."""
    return in_stripe_family(s, d) and _row_heights(s)[1] >= 0


def in_width_family(s: Stripe, n: int, a: int, d: int) -> bool:
    """True iff s has even inner of size n - a and width exactly n - 2d + a."""
    check_degree_params(n, a, d)
    return in_stripe_family(s, (n - a) // 2) and _row_width(s) == n - 2 * d + a


def _stripes_over_even_inners(
    inner_size: int, added: int, max_first_part: int | None = None
) -> list[Stripe]:
    """Every stripe with an even inner of size `inner_size` and `added` boxes on top.

    Each even inner is a doubled partition of inner_size / 2, and its stripes
    are the Pieri outers over it, built only up to max_first_part when one is
    given; they are sorted into the decreasing (outer, inner) order of an
    outer-first walk.
    """
    stripes = [
        Stripe(outer, inner)
        for inner in even_partitions_of(inner_size)
        for outer in horizontal_strips_over(inner, added, max_first_part)
    ]
    stripes.sort(reverse=True)
    return stripes


def positive_stripes(n: int, a: int) -> Iterator[tuple[Stripe, int]]:
    """The positive formula's index set: each nonnegative stripe with its degree d.

    Enumerates inner-first: per degree, every stripe over an even inner of
    size 2d whose first part fits under n - 2d + a, a cap the enumerator
    applies as it builds the outers, kept when its path never dips below 0.
    """
    check_locus_params(n, a)
    for d in range((n - a) // 2 + 1):
        for s in _stripes_over_even_inners(2 * d, n - 2 * d, n - 2 * d + a):
            if _row_heights(s)[1] >= 0:
                yield s, d


def width_stripes(n: int, a: int) -> Iterator[tuple[Stripe, int]]:
    """The width formula's index set: stripes with even inner of size n - a.

    Enumerates inner-first, over every even inner of size n - a.  Each stripe
    comes with its degree d = (n + a - width) / 2; InvariantError if none.
    """
    check_locus_params(n, a)
    for s in _stripes_over_even_inners(n - a, a):
        d, odd = divmod(n + a - _row_width(s), 2)
        if odd or not 0 <= d <= (n - a) // 2:
            raise InvariantError(f"width of {s} gives no degree for n={n}, a={a}")
        yield s, d
