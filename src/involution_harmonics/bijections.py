"""Bijections between the stripe families indexing the graded pieces.

Two pairs of mutually inverse maps, both acting through the stripe's path:

- detach_domino / attach_domino relate the degree-d family minus its
  nonnegative part to the degree-(d-1) family, by removing or restoring a
  horizontal domino of the inner shape at the lowest point of the path;
- to_width_stripe / to_nonnegative_stripe relate the nonnegative degree-d
  family to the stripes of width n - 2d + a with even inner of size n - a,
  through the ascent-descent matching.

All maps validate their domain and check that the constructed image lands
where it must, raising InvariantError otherwise (also under python -O), so a
misreading fails loudly instead of corrupting a sweep.  Every image is rebuilt
from columns read off the stripe's own path, all in 1..outer[0], unvalidated.
"""

from __future__ import annotations

from .errors import (
    DomainViolationError,
    InvalidParametersError,
    InvariantError,
    check_degree_params,
)
from .partitions import Stripe
from .stripes import (
    Steps,
    _ascent_columns,
    _row_heights,
    _stripe_from_columns,
    horizontal_stripe,
    in_nonnegative_family,
    in_stripe_family,
    in_width_family,
    matched_pairs,
    steps_heights,
    stripe_steps,
)


def _lowest_points(s: Stripe) -> tuple[Steps, int, int]:
    """A horizontal stripe's steps, and the first and last x where its path is lowest."""
    steps = stripe_steps(s)
    heights = steps_heights(steps)
    low = min(heights)
    return steps, heights.index(low), len(steps) - heights[::-1].index(low)


def detach_domino(s: Stripe, n: int, a: int, d: int) -> Stripe:
    """Remove a horizontal domino from the inner shape at the first lowest point.

    Defined on degree-d stripes whose path dips below the axis.  The two
    descents reaching the first lowest point turn into ascents, producing a
    degree-(d-1) stripe over the same outer shape.  The construction never
    needs the outer shape to fit in n - 2d + a columns; that bound is the
    sweeps' business, not this map's.
    """
    check_degree_params(n, a, d)
    if d == 0:
        raise InvalidParametersError("degree must be positive, nothing to detach at d=0")
    s = horizontal_stripe(s)
    if not in_stripe_family(s, d):
        raise DomainViolationError(f"{s} is not a degree-{d} stripe")
    steps, m, _ = _lowest_points(s)
    # the path starts at height 0, so it dips exactly when it is lowest later
    if m == 0:
        raise DomainViolationError(f"{s} never dips below the axis")
    # the two steps into the first lowest point are both descents
    if not (m >= 2 and steps[m - 2] == -1 and steps[m - 1] == -1):
        raise InvariantError(f"first lowest point of {s} is not reached by two descents")
    image = _stripe_from_columns(s.outer, _ascent_columns(steps) | {m - 1, m})
    if not in_stripe_family(image, d - 1):
        raise InvariantError(f"detaching from {s} gave {image}, not of degree {d - 1}")
    return image


def attach_domino(s: Stripe, n: int, a: int, d: int) -> Stripe:
    """Restore a horizontal domino to the inner shape at the last lowest point.

    Inverse of detach_domino: defined on degree-(d-1) stripes whose last
    lowest point leaves two stored steps after it to turn downward.  Outer
    shapes wider than n - 2d + a columns can place the lowest point too far
    right for that; this map rejects such stripes instead of assuming the
    bound up front.
    """
    check_degree_params(n, a, d)
    if d == 0:
        raise InvalidParametersError("degree must be positive, nothing to attach at d=0")
    s = horizontal_stripe(s)
    if not in_stripe_family(s, d - 1):
        raise DomainViolationError(f"{s} is not a degree-{d - 1} stripe")
    steps, _, m = _lowest_points(s)
    if m > len(steps) - 2:
        raise DomainViolationError(
            f"last lowest point of {s} sits at x={m}, no room for a domino"
        )
    # the two steps leaving the last lowest point are both ascents
    if not (steps[m] == 1 and steps[m + 1] == 1):
        raise InvariantError(f"last lowest point of {s} is not left by two ascents")
    image = _stripe_from_columns(s.outer, _ascent_columns(steps) - {m + 1, m + 2})
    if not in_stripe_family(image, d) or _row_heights(image)[1] >= 0:
        raise InvariantError(
            f"attaching to {s} gave {image}, not a degree-{d} stripe that dips"
        )
    return image


def _check_outer_size(s: Stripe, n: int) -> None:
    """The shadow maps act on stripes of n boxes; any other size is outside their domain."""
    if sum(s.outer) != n:
        raise DomainViolationError(f"outer shape {s.outer} has {sum(s.outer)} boxes, not n={n}")


def to_width_stripe(s: Stripe, n: int, a: int, d: int) -> Stripe:
    """Send a nonnegative degree-d stripe to its width-(n - 2d + a) companion.

    The image occupies exactly the ascent columns whose matched descent falls
    within the first n - 2d + a steps; there are a of them, and the resulting
    stripe has even inner of size n - a and width exactly n - 2d + a.
    """
    check_degree_params(n, a, d)
    s = horizontal_stripe(s)
    if not in_nonnegative_family(s, d):
        raise DomainViolationError(f"{s} is not a nonnegative degree-{d} stripe")
    _check_outer_size(s, n)
    window = n - 2 * d + a
    if s.outer and s.outer[0] > window:
        raise DomainViolationError(
            f"outer shape {s.outer} is wider than the window {window}"
        )
    kept = {i for i, j in matched_pairs(stripe_steps(s)) if j <= window}
    image = _stripe_from_columns(s.outer, kept)
    if len(kept) != a:
        raise InvariantError(f"{s} keeps {len(kept)} ascent columns, expected {a}")
    if not in_width_family(image, n, a, d):
        raise InvariantError(f"{s} gave {image}, which lacks width {window}")
    return image


def to_nonnegative_stripe(s: Stripe, n: int, a: int, d: int) -> Stripe:
    """Send a width-(n - 2d + a) stripe back to its nonnegative degree-d companion.

    Inverse of to_width_stripe.  The image occupies the columns of the window
    [1, n - 2d + a] that are not matched descents of the input path; the width
    hypothesis forces all of them inside the stored prefix.
    """
    s = horizontal_stripe(s)
    if not in_width_family(s, n, a, d):
        raise DomainViolationError(f"{s} does not have width {n - 2 * d + a}")
    _check_outer_size(s, n)
    # a width is never below outer[0], so the window holds the whole prefix
    window = n - 2 * d + a
    steps = stripe_steps(s)
    descents = {j for _, j in matched_pairs(steps)}
    # tail descents fill every position from the prefix end to the width,
    # so the kept columns all land inside the stored prefix
    if not set(range(len(steps) + 1, window + 1)) <= descents:
        raise InvariantError(f"{s} leaves a kept column past its stored prefix")
    image = _stripe_from_columns(s.outer, set(range(1, window + 1)) - descents)
    if not in_nonnegative_family(image, d):
        raise InvariantError(f"{s} gave {image}, not a nonnegative degree-{d} stripe")
    return image


def last_lowest_point(s: Stripe) -> int:
    """x-coordinate of the last minimum of a horizontal stripe's prefix heights."""
    return _lowest_points(horizontal_stripe(s))[2]


def first_lowest_point(s: Stripe) -> int:
    """x-coordinate of the first minimum of a horizontal stripe's prefix heights."""
    return _lowest_points(horizontal_stripe(s))[1]
