"""Outer-first references for the formula routes: test-side only.

The library enumerates each formula's index set inner-first, through
`positive_stripes` and `width_stripes`, and sums the signed formula with
each Pieri product built once.  These rebuild the same sets one outer shape
and degree at a time, straight from the membership predicates, and the
signed formula one degree at a time from both of its Pieri products.
"""

from involution_harmonics.errors import check_degree_params, check_locus_params
from involution_harmonics.partitions import even_inner_stripes, partitions_of
from involution_harmonics.schur import (
    pieri_mult,
    plethysm_h_h2,
    schur_sub,
    truncate_first_part,
)
from involution_harmonics.stripes import in_nonnegative_family, stripe_family, width


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
    previous = pieri_mult(plethysm_h_h2(d - 1), n - 2 * d + 2)
    return truncate_first_part(schur_sub(current, previous), n - 2 * d + a)
