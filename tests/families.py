"""Outer-first references for the formula routes and sweeps: test-side only.

The library enumerates each formula's index set inner-first, through
`positive_stripes` and `width_stripes`, sums the signed formula with each
Pieri product built once, and sweeps the bijections over the same inner-first
families.  These rebuild the same sets one outer shape and degree at a time,
straight from the membership predicates, and the signed formula one degree
at a time from both of its Pieri products.

The library adds Schur coefficients into mutable lists and freezes them
once; the q-polynomial helpers below build a new tuple per addition
instead, and the step-path width reads the stored steps, not the rows.
"""

from itertools import accumulate

from involution_harmonics.errors import check_degree_params, check_locus_params
from involution_harmonics.partitions import Stripe, partitions_of
from involution_harmonics.schur import pieri_mult, plethysm_h_h2, qp_normal
from involution_harmonics.stripes import in_nonnegative_family, width


def qp_add(f, g):
    n = max(len(f), len(g))
    return qp_normal(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def qp_neg(f):
    return tuple(-c for c in f)


def qp_shift(f, d):
    """Multiply by q**d."""
    return (0,) * d + f if f else ()


def accumulate_term(acc, lam, coeff):
    """Add coeff to acc[lam] as a new tuple, dropping the key when it cancels."""
    total = qp_add(acc.get(lam, ()), coeff)
    if total:
        acc[lam] = total
    else:
        acc.pop(lam, None)


def schur_sub(f, g):
    out = dict(f)
    for lam, coeff in g.items():
        accumulate_term(out, lam, qp_neg(coeff))
    return out


def truncated(f, bound):
    """The terms of f whose partition has first part <= bound."""
    return {lam: coeff for lam, coeff in f.items() if not lam or lam[0] <= bound}


def _path_width(steps):
    """The closed form of width() on a stored prefix: len(steps) + y(end) - min(y)."""
    height = low = 0
    for step in steps:
        height += step
        if height < low:
            low = height
    return len(steps) + height - low


def even_inner_stripes(outer, inner_size):
    """Stripes over `outer` whose inner shape is an even partition of `inner_size`.

    Row i of the inner lies between the next outer row (0 past the last) and
    outer[i]; only its even values are tried, largest first, so the stripes
    come in the decreasing lexicographic order of `stripe_inners`.  Rows left
    to fill must be able to hold the size still to place.
    """
    lows = [x + x % 2 for x in (*outer[1:], 0)]
    highs = [x - x % 2 for x in outer]
    # least[i], most[i]: the smallest and largest sizes rows i, i+1, ... can hold
    least = [*accumulate(reversed(lows), initial=0)][::-1]
    most = [*accumulate(reversed(highs), initial=0)][::-1]
    if inner_size % 2 or not least[0] <= inner_size <= most[0]:
        return ()
    out = []
    rows = []

    def rec(i, remaining):
        if i == len(outer):
            # only the last row can be 0, and a partition leaves it out
            out.append(Stripe(outer, tuple(filter(None, rows))))
            return
        top = min(highs[i], remaining - least[i + 1])
        bottom = max(lows[i], remaining - most[i + 1])
        for row in range(top, bottom - 1, -2):
            rows.append(row)
            rec(i + 1, remaining - row)
            rows.pop()

    rec(0, inner_size)
    return tuple(out)


def stripe_family(outer, d):
    """All stripes over `outer` with even inner of size 2d."""
    return even_inner_stripes(outer, 2 * d)


def nonnegative_family(outer, d):
    return tuple(s for s in stripe_family(outer, d) if in_nonnegative_family(s, d))


def width_family(outer, n, a, d):
    check_degree_params(n, a, d)
    return tuple(
        s for s in even_inner_stripes(outer, n - a) if width(s) == n - 2 * d + a
    )


def outer_first_positive_stripes(n, a):
    """(stripe, d) of the positive formula, by degree, then every outer under the cap."""
    check_locus_params(n, a)
    return [
        (s, d)
        for d in range((n - a) // 2 + 1)
        for outer in partitions_of(n, max_first_part=n - 2 * d + a)
        for s in nonnegative_family(outer, d)
    ]


def outer_first_width_stripes(n, a):
    """(stripe, d) of the width formula, every outer of n in turn."""
    check_locus_params(n, a)
    out = []
    for outer in partitions_of(n):
        for s in even_inner_stripes(outer, n - a):
            # each stripe has the width of exactly one degree
            (d,) = [d for d in range((n - a) // 2 + 1) if width(s) == n - 2 * d + a]
            out.append((s, d))
    return out


def signed_term(n, a, d):
    """The truncated degree-d difference of consecutive Pieri products."""
    check_locus_params(n, a)
    current = pieri_mult(plethysm_h_h2(d), n - 2 * d)
    # the degree-0 term has no earlier product to subtract
    previous = pieri_mult(plethysm_h_h2(d - 1), n - 2 * d + 2) if d else {}
    return truncated(schur_sub(current, previous), n - 2 * d + a)
