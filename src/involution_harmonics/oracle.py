"""Brute-force ground truth: exact ranks of invariant function spaces on the locus.

Functions on the locus are spanned by evaluations of matrix-entry monomials.
Two pointwise identities shrink the degree-d spanning set to one column per
partial matching with at most d pairs, without changing any span:

- each diagonal entry satisfies x_ii = 1 - (sum of x_ij, j != i), because the
  rows of a permutation matrix sum to 1, so diagonals eliminate at degree one;
- x_ij = x_ji and x_ij^2 = x_ij hold on symmetric 0/1 matrices, so every
  off-diagonal monomial evaluates like a squarefree monomial in the entries
  above the diagonal, which is the indicator of a partial matching, or the
  zero function when its index pairs clash.

The Young subgroup S_mu permutes the letters inside consecutive blocks of
sizes mu_1, mu_2, ...  An S_mu-orbit of partial matchings is recorded by how
many of its pairs join block b to block c.  The S_mu-invariants of the degree
filtration F_d are spanned by orbit sums of the columns above, and an
invariant function is fixed by its values on one point per orbit; the orbit
sum of type m takes the value prod_k C(P[k], m[k]) on a point of type P.  So
dim F_d^{S_mu} is an exact integer rank, and Young's rule

    dim F_d^{S_mu} = sum over lambda of K(lambda, mu) * mult_lambda(F_d)

recovers every multiplicity, because the Kostka matrix K is unitriangular in
decreasing lexicographic order.  Its rows are integer, each built from the row
of mu without its last part by the one Pieri enumerator; each row and each
(shape, part) strip list is built once per process and shared by every row
and every locus that needs it, and so is each count of orbit types.

Full matchings give the indicators of point types, so at the top degree the
invariants are all functions on the S_mu-orbits of points and dim F_top^{S_mu}
is the number of orbit types, with no elimination; the types are counted, not
listed.  Young's rule on these counts gives every ungraded multiplicity, and
since each F_d lies in F_top, a lambda with ungraded multiplicity 0 has
multiplicity 0 in every degree.  So ranks are eliminated only for the lambda
that occur, from one of the two ends of Young's rule.  The high lambda are
solved top-down from the ranks of S_lambda.  The low lambda, whose untwisted
systems reach thousands of rows, are solved bottom-up from the sign-twisted
ranks dim Hom_{S_mu}(sgn, F_d) = dim (F_d (x) sgn)^{S_mu} at mu = lambda'.
Since mult_rho(F_d (x) sgn) = mult_rho'(F_d), these are Young's rule of
F_d (x) sgn on the same rows K(rho, mu), keyed by lambda', and the keys it
solves for are conjugated back (Macdonald I.6: e_mu is the sum of
K(lambda', mu) s_lambda).  A point whose stabilizer in S_mu holds an odd
permutation carries no sign-twisted function, so the twisted rows are the
orbit types with no pair inside a block and at most one fixed point per
block, and they are few when mu has few blocks.  They are not counted: at the
top degree the twisted rank is their number, so Young's rule of F_top (x) sgn
predicts it from the conjugated ungraded multiplicities.  A twisted column
drops at most one pair of each class of a row of type P, so its entry is one
signed product, +-prod P[k] over the dropped classes k, read off P's counts.
The threshold between the two ends minimises the sum of the squared row
counts.  The graded dimensions are Young's rule at mu = (1^n), the sum over
lambda of K(lambda, 1^n) * mult_lambda(F_d), from the same multiplicities.
`check basis` evaluates the candidates on the points of the locus, listed by
`involutions(n, a)`; their columns are 0/1, and a full rank over GF(2)
certifies them before any exact elimination.

Every list of untwisted types must be as long as its count and every list
of twisted types as long as its prediction, every rank that is computed
must saturate at the number of its point types by the top degree, every
lambda's multiplicity at the top degree must equal its ungraded
multiplicity, and every multiplicity, ungraded or graded, must be
nonnegative; all are checked, never assumed.  The elimination is sparse,
fraction-free and exact: a column keeps only its non-zero integer entries,
each pivot step multiplies through instead of dividing, every reduced
column is divided by its content, and `_reduce_column` alone stores each
non-zero one as a pivot, keyed on its lowest row.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, gcd, prod
from typing import Iterable

from .errors import (
    InvalidParametersError,
    InvariantError,
    ResourceLimitError,
    _is_int,
    check_locus_params,
)
from .involutions import involutions
from .partitions import Partition, conjugate, horizontal_strips_over, partitions_of
from .schur import QPoly, SchurPoly, _add_into, _frozen, qp_normal, schur_json
from .tableaux import candidate_basis

DEFAULT_SIZE_CAP = 6

# An orbit type of partial matchings: ((b, c), pairs joining block b to block c),
# b <= c, blocks numbered from 0, zero counts left out.
Matching = tuple[tuple[tuple[int, int], int], ...]

# A sparse column: row index -> non-zero entry.
Column = dict[int, int]


def oracle_size_cap(cap: int | None = None) -> int:
    """The largest n the brute force will attempt: the given cap, else 6.

    A cap that is not an integer, or is below 1 and would refuse every locus,
    is rejected as a parameter.
    """
    if cap is None:
        return DEFAULT_SIZE_CAP
    if not _is_int(cap):
        raise InvalidParametersError(f"the oracle size cap must be an integer, got {cap!r}")
    if cap < 1:
        raise InvalidParametersError(f"the oracle size cap must be at least 1, got {cap}")
    return cap


def matchings_of_size(
    mu: Partition, d: int, twisted: bool = False
) -> tuple[Matching, ...]:
    """The S_mu-orbit types of sets of d disjoint pairs of letters 1..n.

    Block by block, the counts of the keys (b, b), (b, L-1), ..., (b, b+1)
    are chosen, smallest count first and the last key varying fastest.  For
    mu = (1^n) each type is one matching, and the order leaves letter b
    unmatched first, then pairs it with its smallest partner first.  The
    twisted types are those with no pair inside a block and at most one
    letter of each block unmatched, in the same order; a branch stops once
    it passes the last key of a block with two letters still free.
    """
    keys = [
        (b, c)
        for b in range(len(mu))
        for c in (b, *range(len(mu) - 1, b, -1))
        if not (twisted and b == c)
    ]
    free = list(mu)
    out: list[Matching] = []
    acc: list[tuple[tuple[int, int], int]] = []

    def rec(k: int, need: int) -> None:
        if need == 0:
            if not twisted or all(f <= 1 for f in free):
                out.append(tuple(acc))
            return
        if k == len(keys):
            return
        b, c = keys[k]
        # a twisted type leaves at most one letter of a block unmatched, and
        # no key from here on touches block b - 1
        if 2 * need > sum(free[b:]) or twisted and b and free[b - 1] > 1:
            return
        most = free[b] // 2 if b == c else min(free[b], free[c])
        for m in range(min(most, need) + 1):
            if m:
                acc.append(((b, c), m))
                free[b] -= m
                free[c] -= m
            rec(k + 1, need - m)
            if m:
                acc.pop()
                free[b] += m
                free[c] += m

    rec(0, d)
    return tuple(out)


@cache
def _count(caps: Partition, need: int) -> int:
    """len(matchings_of_size(caps, need)), counted without listing.

    A type is a multigraph with loops and `need` edges on the blocks, where a
    loop uses two letters of its block and an edge one letter of each end.
    Its count depends only on the multiset of block capacities, decreasing
    with zeros left out, so a partition mu is its own key.  The smallest
    block is removed with each choice of its edges, stepped through like an
    odometer, and of its loops.  The cache is unbounded: it keeps every
    (caps, need) asked for, about 1.3 MiB once every degree of n = 16 is
    counted and 2.7 MiB at n = 18, for the life of the process, shared by
    every locus.
    """
    if need == 0:
        return 1
    if 2 * need > sum(caps):
        return 0
    rest, head = caps[:-1], caps[-1]
    most = min(head, need)
    # edges[i]: the edges from the head to rest[i]; used: their sum
    edges = [0] * len(rest)
    used = total = 0
    while True:
        left = tuple(sorted((r - e for r, e in zip(rest, edges) if r > e), reverse=True))
        for loops in range(min((head - used) // 2, need - used) + 1):
            total += _count(left, need - used - loops)
        i = len(edges) - 1
        while i >= 0 and (edges[i] == rest[i] or used == most):
            used -= edges[i]
            edges[i] = 0
            i -= 1
        if i < 0:
            return total
        edges[i] += 1
        used += 1


def _reduce_column(col: Column, basis: list[tuple[int, Column]]) -> Column:
    """Eliminate col against the stored pivots, exactly, over the integers.

    Each pivot whose row is non-zero in the column is cleared by the
    fraction-free step v <- p * v - c * pvec, with p and c the two entries in
    that row divided by their gcd and p made positive; it walks only the
    non-zero entries of the two vectors, and the result is then divided by
    its content.  A non-zero result is stored as a new pivot, keyed on its
    lowest row, which no earlier pivot's row is; the result is returned
    either way, so an empty one marks a dependent column.
    """
    v = col
    for pivot, pvec in basis:
        c = v.get(pivot)
        if c:
            p = pvec[pivot]
            g = gcd(p, c) if p > 0 else -gcd(p, c)
            p, c = p // g, c // g
            v = {i: p * x for i, x in v.items()} if p != 1 else dict(v)
            for i, y in pvec.items():
                x = v.get(i, 0) - c * y
                if x:
                    v[i] = x
                else:
                    del v[i]
            g = gcd(*v.values())
            if g > 1:
                v = {i: x // g for i, x in v.items()}
    if v:
        basis.append((min(v), v))
    return v


def _gf2_rank(columns: Iterable[int]) -> int:
    """The rank over GF(2) of columns given as bitmasks, by XOR elimination.

    Each stored pivot is keyed on its highest set bit, and XOR with it clears
    that bit of a column without setting any higher one.  A full rank mod 2
    implies a full rank over Q.  The rank does not depend on the column
    order, but the work does: on the candidate columns of `check basis`,
    keying on the highest bit and taking the sparse high-degree columns
    first meets far shorter chains of pivots than keying on the lowest bit
    or taking the dense low-degree columns first.
    """
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            top = v.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = v
                break
            v ^= pivot
    return len(pivots)


def _column(m: Matching, rows: list[tuple[dict, frozenset]]) -> Column:
    """The orbit sum of type m on each row P: prod_k C(P[k], m_k), zeros left out."""
    keys = frozenset(k for k, _ in m)
    return {
        i: x
        for i, (point, point_keys) in enumerate(rows)
        if keys <= point_keys and (x := prod(comb(point[k], c) for k, c in m))
    }


def _saturated(
    n: int, a: int, mu: Partition, size: int, columns, what: str
) -> tuple[int, ...]:
    """Cumulative ranks of columns(0), columns(1), ... up to the top degree.

    The rank must reach the number of rows, `size` point types, by the top
    degree; the columns of a degree are skipped once it has.
    """
    basis: list[tuple[int, Column]] = []
    ranks: list[int] = []
    for d in range((n - a) // 2 + 1):
        if len(basis) < size:
            for col in columns(d):
                if _reduce_column(col, basis) and len(basis) == size:
                    break
        ranks.append(len(basis))
    if ranks[-1] != size:
        raise InvariantError(
            f"{what}rank {ranks[-1]} at the top degree of n={n}, a={a}, mu={mu} "
            f"does not reach the {size} {what}point types"
        )
    return tuple(ranks)


def _ranks(n: int, a: int, mu: Partition, types: tuple[Matching, ...]) -> tuple[int, ...]:
    """dim F_d^{S_mu} for d = 0, 1, ..., (n - a) / 2, by exact elimination.

    Rows are the given top-degree types of mu, columns the orbit sums of degree
    <= d; the rank must reach the number of point types by the top degree.
    """
    rows = [(dict(p), frozenset(k for k, _ in p)) for p in types]

    def columns(d: int) -> Iterable[Column]:
        return (_column(m, rows) for m in matchings_of_size(mu, d))

    return _saturated(n, a, mu, len(rows), columns, "")


def _twisted_ranks(
    n: int, a: int, mu: Partition, types: tuple[Matching, ...]
) -> tuple[int, ...]:
    """dim Hom_{S_mu}(sgn, F_d) for d = 0, 1, ..., (n - a) / 2, by exact elimination.

    Rows are the given twisted top-degree types P.  The sign projection of
    a degree-d monomial vanishes unless its matching is twisted, and on a
    row it sums signs over the d-subsets of the row's pairs of its type that
    leave at most one letter of each block unmatched.  Such a subset drops at
    most one pair of each class (b, c), from a set D of top - d classes whose
    blocks are distinct and hold no unmatched letter, so its type is
    m = P - 1_D and there are prod_{k in D} P[k] of them.  They share one
    sign: swapping a kept and a dropped pair of one class is (i i')(j j'),
    and re-sorting that class's run at both ends is even too.  With each
    block's letters listed class by class in P's order, then its unmatched
    letter, the sign is (-1)^(sum over k in D of after(k)), where after(k)
    counts the letters of k's two blocks after k's run.  Another listing
    order multiplies each column by one fixed sign, which changes no rank.
    So each (row, D) gives one entry, never 0.
    """
    top = (n - a) // 2
    rows = []
    for t in types:
        used = [0] * len(mu)
        for (b, c), p in t:
            used[b] += p
            used[c] += p
        # the classes that may drop a pair: (k, P[k], after(k) mod 2)
        droppable = [
            (k, p, sum(q for j, q in t[i + 1 :] if k[0] in j or k[1] in j) % 2)
            for i, (k, p) in enumerate(t)
            if used[k[0]] == mu[k[0]] and used[k[1]] == mu[k[1]]
        ]
        rows.append((t, droppable))

    def columns(d: int) -> list[Column]:
        out: dict[Matching, Column] = {}
        for r, (t, droppable) in enumerate(rows):
            for dropped in combinations(droppable, top - d):
                keys = [k for k, _, _ in dropped]
                if len({x for k in keys for x in k}) < 2 * len(keys):
                    continue
                m = tuple((k, p - (k in keys)) for k, p in t if p - (k in keys))
                x = prod(p for _, p, _ in dropped)
                out.setdefault(m, {})[r] = -x if sum(s for _, _, s in dropped) % 2 else x
        return [col for _, col in sorted(out.items())]

    return _saturated(n, a, mu, len(rows), columns, "twisted ")


@cache
def _strips(lam: Partition, part: int) -> tuple[Partition, ...]:
    """The outer shapes of the horizontal strips of `part` boxes over lam.

    The cache is unbounded: it keeps every (shape, part) asked for, for the
    life of the process; the rows of the partitions of 18 ask for 2,308 of
    them.
    """
    return tuple(horizontal_strips_over(lam, part))


@cache
def _kostka_row(mu: Partition) -> dict[Partition, int]:
    """{lambda: K(lambda, mu)}: the row of mu[:-1] pushed through the last part.

    The cache is unbounded: it keeps the row of every partition asked for and
    of each of its prefixes, for the life of the process.  With the strip
    lists the rows hold about 3.3 MiB once every partition of 16 is asked
    for and 9.0 MiB at 18.  Callers share the rows and must not change them.
    """
    if not mu:
        return {(): 1}
    out: dict[Partition, int] = {}
    for lam, k in _kostka_row(mu[:-1]).items():
        for outer in _strips(lam, mu[-1]):
            out[outer] = out.get(outer, 0) + k
    return out


def _young_decomposition(ranks: dict[Partition, tuple[int, ...]]) -> SchurPoly:
    """Graded multiplicities from invariant ranks, by Young's rule.

    The rank of mu is the sum over lambda of K(lambda, mu) times the
    cumulative multiplicity of lambda, read off the cached row of mu, and
    K(mu, mu) = 1.  `ranks` lists partitions so that every other lambda with
    K(lambda, mu) != 0 comes before mu; a partition left out is taken to have
    multiplicity 0 in every degree.
    """
    filtration: dict[Partition, list[int]] = {}
    out: SchurPoly = {}
    for mu, r in ranks.items():
        row = _kostka_row(mu)
        cumulative = list(r)
        for lam, mult in filtration.items():
            k = row.get(lam, 0)
            for d, m in enumerate(mult):
                cumulative[d] -= k * m
        filtration[mu] = cumulative
        graded = [m - (cumulative[d - 1] if d else 0) for d, m in enumerate(cumulative)]
        if any(m < 0 for m in graded):
            raise InvariantError(f"negative multiplicity of {mu}: {graded}")
        if any(graded):
            out[mu] = qp_normal(graded)
    return out


def _oracle(n: int, a: int, size_cap: int | None) -> tuple[SchurPoly, QPoly]:
    """The graded Frobenius expansion and the Hilbert series.

    Young's rule on the top-degree type counts gives the ungraded
    multiplicities, and Young's rule of F_top (x) sgn, which holds
    s_lambda' as often as F_top holds s_lambda, gives the twisted type
    counts.  The occurring lambda are then split at the threshold that
    minimises the sum of squared row counts: those at or above it are solved
    top-down from the ranks of S_lambda, those below it bottom-up from the
    sign-twisted ranks of S_lambda', keyed by lambda' as the ranks of
    F_d (x) sgn, on the same Kostka rows.  Taken in increasing order of
    lambda, every rho with K(rho, lambda') != 0 in that set comes before
    lambda': rho dominates lambda', so rho' is dominated by lambda and is
    lexicographically at most lambda.
    """
    check_locus_params(n, a)
    cap = oracle_size_cap(size_cap)
    if n > cap:
        raise ResourceLimitError(
            f"n={n} exceeds the oracle size cap {cap}; raise it with --cap or size_cap="
        )
    top = (n - a) // 2
    counts = {mu: _count(mu, top) for mu in partitions_of(n)}
    ungraded = _young_decomposition({mu: (c,) for mu, c in counts.items()})
    occurring = list(ungraded)
    # the ungraded multiplicities of F_top (x) sgn, keyed by lambda'
    omega = {conjugate(lam): mult for lam, (mult,) in ungraded.items()}
    conjugates = list(omega)
    twisted_counts = {
        mu: sum(_kostka_row(mu).get(rho, 0) * m for rho, m in omega.items()) for mu in omega
    }
    costs = [
        sum(counts[lam] ** 2 for lam in occurring[:s])
        + sum(twisted_counts[mu] ** 2 for mu in conjugates[s:])
        for s in range(len(occurring) + 1)
    ]
    split = costs.index(min(costs))
    frobenius: SchurPoly = {}
    for twisted, keys, counted, solve in (
        (False, occurring[:split], counts, _ranks),
        (True, conjugates[split:][::-1], twisted_counts, _twisted_ranks),
    ):
        what = "twisted " if twisted else ""
        ranks = {}
        for mu in keys:
            types = matchings_of_size(mu, top, twisted)
            if len(types) != counted[mu]:
                raise InvariantError(
                    f"{len(types)} {what}top-degree types of n={n}, a={a}, mu={mu} "
                    f"listed, {counted[mu]} counted"
                )
            ranks[mu] = solve(n, a, mu, types)
        for lam, coeff in _young_decomposition(ranks).items():
            frobenius[conjugate(lam) if twisted else lam] = coeff
    for lam, (mult,) in ungraded.items():
        if sum(frobenius.get(lam, ())) != mult:
            raise InvariantError(
                f"top-degree multiplicity {sum(frobenius.get(lam, ()))} of {lam} "
                f"at n={n}, a={a} differs from its ungraded multiplicity {mult}"
            )
    dims = _kostka_row((1,) * n)
    acc: dict[Partition, list[int]] = {}
    for lam, coeff in frobenius.items():
        _add_into(acc, (), [dims[lam] * c for c in coeff])
    return frobenius, _frozen(acc).get((), ())


def graded_hilbert(n: int, a: int, *, size_cap: int | None = None) -> QPoly:
    """Dimensions of the graded pieces, by Young's rule at (1^n)."""
    return _oracle(n, a, size_cap)[1]


def oracle_graded_frobenius(
    n: int, a: int, *, size_cap: int | None = None
) -> SchurPoly:
    """Schur expansion of the graded conjugation action, by Young's rule."""
    return _oracle(n, a, size_cap)[0]


def verify_monomial_basis(n: int, a: int, *, size_cap: int | None = None) -> dict:
    """Check the candidate monomials against the exact graded dimensions.

    PASS means: per degree the candidate count matches the graded Hilbert
    coefficient, and all candidate evaluation columns taken together are
    linearly independent (hence a basis of the function space).  The columns
    are 0/1, so a full rank over GF(2) proves them independent; only a short
    one reruns the exact elimination, which alone decides a dependence.
    """
    frobenius, hilbert = _oracle(n, a, size_cap)
    top = (n - a) // 2
    points = involutions(n, a)
    if len(points) != sum(hilbert):
        raise InvariantError(
            f"{len(points)} points of n={n}, a={a} listed, "
            f"graded dimensions sum to {sum(hilbert)}"
        )
    candidates = candidate_basis(n, a)
    profile = [0] * (top + 1)
    for d, _ in candidates:
        profile[d] += 1
    failures = []
    for d in range(top + 1):
        expected = hilbert[d] if d < len(hilbert) else 0
        if profile[d] != expected:
            failures.append(
                f"degree {d}: {profile[d]} candidates, expected {expected}"
            )
    monomials = [m for _, m in candidates]
    if len(set(monomials)) != len(monomials):
        failures.append("candidate monomials collide")
    # bit p of a pair's mask is set when point p holds the pair
    masks: dict[tuple[int, int], int] = {}
    for p, point in enumerate(points):
        for pair in point.pairs:
            masks[pair] = masks.get(pair, 0) | 1 << p
    everywhere = (1 << len(points)) - 1
    columns = []
    for _, monomial in candidates:
        column = everywhere
        for pair in monomial:
            column &= masks.get(pair, 0)
        columns.append(column)
    # highest degree first: the sparse columns become the pivots
    if _gf2_rank(columns[::-1]) < len(candidates):
        basis: list[tuple[int, Column]] = []
        for (d, monomial), column in zip(candidates, columns):
            # the bits of the mask, lowest first, as a sparse column of ones
            bits = bin(column)[:1:-1]
            if not _reduce_column({p: 1 for p, b in enumerate(bits) if b == "1"}, basis):
                failures.append(f"degree {d} monomial {monomial} is dependent")
                break
    report = {
        "n": n,
        "a": a,
        "hilbert": list(hilbert),
        "frobenius": schur_json(frobenius)["terms"],
        "basis_check": "PASS" if not failures else "FAIL",
        "profile": list(qp_normal(profile)),
    }
    if failures:
        report["failures"] = failures
    return report
