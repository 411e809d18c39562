"""Per-(outer, d) stripe families, filtered stripe by stripe: test-side references.

The library iterates each formula's index set once, through
`positive_stripes` and `width_stripes`; these rebuild the same sets one
outer shape and degree at a time, straight from the membership predicates.
"""

from involution_harmonics.errors import check_degree_params
from involution_harmonics.partitions import even_inner_stripes
from involution_harmonics.stripes import in_nonnegative_family, stripe_family, width


def nonnegative_family(outer, d):
    return tuple(s for s in stripe_family(outer, d) if in_nonnegative_family(s, d))


def width_family(outer, n, a, d):
    check_degree_params(n, a, d)
    return tuple(
        s for s in even_inner_stripes(outer, n - a) if width(s) == n - 2 * d + a
    )
