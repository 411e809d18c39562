"""Exhaustive verification sweeps, shared by the CLI check commands and the tests.

Each check returns (ok, lines): a verdict plus human-readable detail, one line
per parameter point, with failures described in place.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .bijections import (
    attach_domino,
    detach_domino,
    first_lowest_point,
    last_lowest_point,
    to_nonnegative_stripe,
    to_width_stripe,
)
from .errors import InvalidParametersError
from .frobenius import (
    frobenius_total,
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
    hilbert_series,
)
from .involutions import count_involutions
from .partitions import Stripe, partitions_of, stripe_inners
from .schur import qp_at_one, schur_at_one
from .stripes import (
    Steps,
    _ascent_columns,
    _row_heights,
    _row_width,
    _stripe_from_columns,
    degree_families,
    matched_pairs,
    stripe_steps,
    width_by_matching,
    width_by_prefix_sums,
    width_stripes,
)


def iter_locus_params(max_n: int) -> Iterator[tuple[int, int]]:
    """All valid (n, a) with 1 <= n <= max_n; max_n below 1 would check nothing."""
    if max_n < 1:
        raise InvalidParametersError(f"max_n must be at least 1, got {max_n}")
    for n in range(1, max_n + 1):
        for a in range(n % 2, n + 1, 2):
            yield n, a


def iter_stripes_up_to(max_size: int) -> Iterator[Stripe]:
    """Every horizontal stripe whose outer shape has at most max_size boxes."""
    for m in range(max_size + 1):
        for outer in partitions_of(m):
            for inner in stripe_inners(outer):
                yield Stripe(outer, inner)


def check_width(max_size: int = 12) -> tuple[bool, list[str]]:
    """Three width computations agree (rows, matching, prefix sums); paths reconstruct.

    Many stripes share a step path, so each distinct path's matching, its
    widths by matching and by prefix sums, and its ascent columns are computed
    once per call.  Every stripe still gets its own steps, row width (held to
    the path's width), width range, matched-pair count against its boxes and
    column reconstruction, so a faulty path gives a line for every stripe on it.
    """
    if max_size < 0:
        raise InvalidParametersError(f"max_size must be at least 0, got {max_size}")
    failures = []
    count = 0
    # steps -> (width by matching if prefix sums agree, else None; pair count; ascents)
    paths: dict[Steps, tuple[int | None, int, frozenset[int]]] = {}
    for s in iter_stripes_up_to(max_size):
        count += 1
        steps = stripe_steps(s)
        path = paths.get(steps)
        if path is None:
            pairs = matched_pairs(steps)
            agreed = width_by_matching(steps, pairs)
            if agreed != width_by_prefix_sums(steps):
                agreed = None
            path = paths[steps] = (agreed, len(pairs), _ascent_columns(steps))
        agreed, matched, ascents = path
        boxes = sum(s.outer) - sum(s.inner)
        w = _row_width(s)
        if w != agreed:
            failures.append(f"width mismatch on {s}")
        columns = len(steps)
        if not columns <= w <= columns + 2 * boxes:
            failures.append(f"width {w} out of range on {s}")
        if matched != boxes:
            failures.append(f"matching misses ascents on {s}")
        if _stripe_from_columns(s.outer, ascents) != s:
            failures.append(f"column reconstruction fails on {s}")
    lines = failures or [f"{count} stripes with outer size <= {max_size}: widths agree"]
    return not failures, lines


def check_formulas(max_n: int = 8) -> tuple[bool, list[str]]:
    """The three routes agree, specialize to the total, and count the locus."""
    ok = True
    lines = []
    for n, a in iter_locus_params(max_n):
        signed = graded_frobenius_signed(n, a)
        positive = graded_frobenius_positive(n, a)
        by_width = graded_frobenius_width(n, a)
        total = frobenius_total(n, a)
        points = count_involutions(n, a)
        problems = []
        if not (signed == positive == by_width):
            problems.append("routes disagree")
        if schur_at_one(by_width) != {lam: qp_at_one(c) for lam, c in total.items()}:
            problems.append("q=1 does not match the ungraded total")
        hilbert = hilbert_series(by_width)
        if qp_at_one(hilbert) != points:
            problems.append(f"dimensions do not sum to {points}")
        top = (n - a) // 2
        if any(len(coeff) - 1 > top for coeff in by_width.values()):
            problems.append(f"a degree exceeds {top}")
        # the top graded piece truncates to first part <= 2a, so it is empty
        # exactly when a = 0 and n > 0, and populated for every a >= 1
        expected_top = top if a >= 1 or top == 0 else top - 1
        if len(hilbert) - 1 != expected_top:
            problems.append(f"top populated degree is not {expected_top}")
        if problems:
            ok = False
            lines.append(f"n={n} a={a}: " + "; ".join(problems))
        else:
            lines.append(f"n={n} a={a}: three routes agree, {points} points")
    return ok, lines


def _bijection_failures(kind: str, d: int, pairs: list[tuple[Stripe, Stripe]], target):
    """A line for each outer shape where a map's (stripe, image) pairs miss target.

    Over a shape, an image repeats, an image leaves its stripe's outer shape,
    or the images and the target differ by a stripe.  Shapes come decreasing.
    """
    counts = Counter(image for _, image in pairs)
    shapes = {s.outer for s, image in pairs if image.outer != s.outer}
    shapes |= {image.outer for image, k in counts.items() if k > 1}
    shapes |= {t.outer for t in counts.keys() ^ set(target)}
    return [
        f"{kind} maps are not a bijection over {lam} at d={d}"
        for lam in sorted(shapes, reverse=True)
    ]


def check_bijections(max_n: int = 8) -> tuple[bool, list[str]]:
    """Both bijection pairs invert and exhaust their targets, degree by degree.

    Each degree's family comes once from degree_families.  Each map's images
    are compared with its target once per degree; a failure names outer shapes.
    """
    ok = True
    lines = []
    for n, a in iter_locus_params(max_n):
        wide: dict[int, list[Stripe]] = {}
        for s, d in width_stripes(n, a):
            wide.setdefault(d, []).append(s)
        previous: list[Stripe] = []
        problems = []
        applications = 0
        for d, cap, family in degree_families(n, a):
            domino, shadow = [], []
            for s in family:
                if _row_heights(s)[1] >= 0:
                    image = to_width_stripe(s, n, a, d)
                    shadow.append((s, image))
                    if to_nonnegative_stripe(image, n, a, d) != s:
                        problems.append(f"width maps do not invert on {s}")
                    continue
                image = detach_domino(s, n, a, d)
                domino.append((s, image))
                if attach_domino(image, n, a, d) != s:
                    problems.append(f"attach does not invert detach on {s}")
                if last_lowest_point(image) != first_lowest_point(s) - 2:
                    problems.append(f"image lowest point misplaced for {s}")
            fitting = [t for t in previous if t.outer[0] <= cap]
            problems += _bijection_failures("domino", d, domino, fitting)
            problems += _bijection_failures("width", d, shadow, wide.get(d, ()))
            applications += len(family)
            previous = family
        if problems:
            ok = False
            lines.extend(f"n={n} a={a}: {p}" for p in problems)
        else:
            lines.append(f"n={n} a={a}: bijections verified on {applications} stripes")
    return ok, lines
