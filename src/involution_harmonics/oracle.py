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

A Young subgroup permutes the letters inside consecutive blocks, and an
orbit of partial matchings is recorded by its type: how many of its pairs
join block b to block c.  For a partition lambda and a split k, let
alpha = (lambda_1, ..., lambda_k) and beta = (lambda_{k+1}, ...)'.  The
blocks of S_alpha x S_beta are alpha's parts, then beta's, the sign blocks,
and 1 (x) sgn is the sign of a permutation on the sign blocks.  By Young's
rule and its image under omega (Macdonald I.5-I.6: e_mu is the sum of
K(lambda', mu) s_lambda), dim Hom(1 (x) sgn, F_d) is the sum over rho of
<h_alpha e_beta, s_rho> mult_rho(F_d), and s_lambda occurs in h_alpha e_beta
exactly once.  k = len(lambda) gives the invariants of S_lambda, k = 0 the
sign-twisted ones of S_lambda'.  An invariant is fixed by its values on one
point per orbit, and only the orbits whose stabiliser is even on the sign
blocks carry one; the projection of a monomial vanishes unless its matching
keeps the same rules, so one lister serves rows and columns, and each entry
is a signed product of binomials read off the row's type.

At the top degree the rank of S_mu is the number of orbit types of points,
counted, not listed, with no elimination, and Young's rule on these counts
at every mu gives every ungraded multiplicity.  Each F_d lies in F_top, so
only the lambda that occur get a system, and each gets one: the split with
the fewest rows, predicted from the ungraded multiplicities before any
listing.  One Young's-rule solve on the chosen mixed rows gives every graded
multiplicity, and the graded dimensions are that expansion under s_lambda ->
f^lambda, the `hilbert_series` the formula routes use too.  Each row and
each (shape, part) strip list is built once per process and shared by every
locus, and so is each count of orbit types.  `check basis` evaluates the
candidates on the points of the locus, listed by `involutions(n, a)`; their
columns are 0/1, and a full rank over GF(2) certifies them before any exact
elimination.

Every list of types must be as long as its prediction, every rank must
saturate at the number of its point types by the top degree, every row must
hold its own lambda exactly once, some order must solve the rows, every
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
from math import comb, gcd, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import (
    InvalidParametersError,
    InvariantError,
    ResourceLimitError,
    _is_int,
    check_locus_params,
)
from .frobenius import hilbert_series
from .involutions import involutions
from .partitions import Partition, conjugate, horizontal_strips_over, partitions_of
from .schur import QPoly, SchurPoly, qp_normal, schur_json
from .tableaux import candidate_basis

DEFAULT_SIZE_CAP = 6

# An orbit type of partial matchings: ((b, c), pairs joining block b to block c),
# b <= c, blocks numbered from 0, zero counts left out; (b, c) is a class.
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
    blocks: tuple[int, ...], d: int, signs: int = 0
) -> tuple[Matching, ...]:
    """The orbit types of sets of d disjoint pairs of letters 1..n, by blocks.

    The blocks are consecutive runs of the letters, of the given sizes, and
    the last `signs` of them are sign blocks.  Block by block, the counts of
    the keys (b, b), (b, L-1), ..., (b, b+1) are chosen, smallest count
    first and the last key varying fastest.  For blocks (1^n) each type is
    one matching, and the order leaves letter b unmatched first, then pairs
    it with its smallest partner first.  A type has no pair inside a sign
    block, at most one pair in each class that joins another block to a
    sign block, and at most one letter of each sign block unmatched: else a
    transposition in a sign block, or (i i')(j j') on two such pairs, fixes
    it and is odd on the sign blocks.  A branch stops once it passes the
    last key of a sign block with two letters still free.
    """
    first = len(blocks) - signs
    # a pair fills at most two letters of the sign blocks, which keep one each
    if sum(blocks[first:]) - signs > 2 * d:
        return ()
    # each key with a cap on its count: 1 where it joins another block to a sign block
    keys = [
        (b, c, 1 if b < first <= c else d)
        for b in range(len(blocks))
        for c in (b, *range(len(blocks) - 1, b, -1))
        if b < first or b != c
    ]
    free = list(blocks)
    out: list[Matching] = []
    acc: list[tuple[tuple[int, int], int]] = []

    def rec(k: int, need: int) -> None:
        if need == 0:
            if not signs or max(free[first:]) <= 1:
                out.append(tuple(acc))
            return
        if k == len(keys):
            return
        b, c, cap = keys[k]
        # no key from here on touches block b - 1
        if 2 * need > sum(free[b:]) or b > first and free[b - 1] > 1:
            return
        most = min(free[b] // 2, need) if b == c else min(free[b], free[c], cap, need)
        for m in range(most + 1):
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


def _columns(
    blocks: tuple[int, ...], signs: int, top: int, types: tuple[Matching, ...]
) -> Callable[[int], Iterator[Column]]:
    """The columns of each degree d on the rows of the given top-degree types.

    The column of type m holds, on the row of type P, the projection of m
    onto 1 (x) sgn: prod_k C(P[k], m[k]) times (-1)^(sum over k in D of
    after(k)), where D holds the classes that touch a sign block and lose a
    pair, and after(k) counts the letters of k's sign blocks that come after
    k's run.  Each block lists its letters class by class in P's order, then
    its unmatched letter.  A sub-matching of type m leaves a sign block at
    most one letter, so such a class loses at most one pair; which pairs a
    class loses costs no sign, since swapping a kept and a lost pair is even
    on the sign blocks, and the lost pair's letter moves to the end of each
    of its sign blocks past after(k) letters.  Another listing order
    multiplies a column by one sign, which changes no rank.  Zero entries
    are left out.
    """
    first = len(blocks) - signs
    rows = []
    for t in types:
        # the classes whose dropped pair moves an odd number of sign-block letters
        odd = [
            (k, p)
            for i, (k, p) in enumerate(t)
            if k[1] >= first
            and sum(q for j, q in t[i + 1 :] for s in k if s >= first and s in j) % 2
        ]
        rows.append((dict(t), frozenset(k for k, _ in t), odd))

    def columns(d: int) -> Iterator[Column]:
        for m in types if d == top else matchings_of_size(blocks, d, signs):
            kept = dict(m)
            keys = kept.keys()
            yield {
                i: -x if odd and sum(kept.get(k, 0) < p for k, p in odd) % 2 else x
                for i, (point, point_keys, odd) in enumerate(rows)
                if keys <= point_keys and (x := prod(comb(point[k], c) for k, c in m))
            }

    return columns


def _ranks(n: int, a: int, lam: Partition, k: int, size: int) -> tuple[int, ...]:
    """Cumulative ranks of lam's system at split k, degree 0 to the top.

    The blocks are alpha = lam[:k], then beta = lam[k:]', the sign blocks.
    The top-degree types are listed and must be `size`, as predicted; their
    rows take the columns of each degree, and the rank must reach `size` by
    the top degree.  The columns of a degree are skipped once it has.
    """
    top = (n - a) // 2
    alpha, beta = lam[:k], conjugate(lam[k:])
    types = matchings_of_size(alpha + beta, top, len(beta))
    if len(types) != size:
        raise InvariantError(
            f"{len(types)} top-degree types of n={n}, a={a}, lambda={lam}, k={k} "
            f"listed, {size} predicted"
        )
    columns = _columns(alpha + beta, len(beta), top, types)
    basis: list[tuple[int, Column]] = []
    ranks: list[int] = []
    for d in range(top + 1):
        if len(basis) < size:
            for col in columns(d):
                if _reduce_column(col, basis) and len(basis) == size:
                    break
        ranks.append(len(basis))
    if ranks[-1] != size:
        raise InvariantError(
            f"rank {ranks[-1]} at the top degree of n={n}, a={a}, lambda={lam}, k={k} "
            f"does not reach the {size} point types"
        )
    return tuple(ranks)


@cache
def _strips(lam: Partition, part: int) -> tuple[Partition, ...]:
    """The outer shapes of the horizontal strips of `part` boxes over lam.

    The cache is unbounded: it keeps every (shape, part) asked for, for the
    life of the process; planning every locus of n = 18 asks for 3,047 of
    them.
    """
    return tuple(horizontal_strips_over(lam, part))


@cache
def _mixed_row(alpha: Partition, beta: Partition) -> dict[Partition, int]:
    """{lambda: <h_alpha e_beta, s_lambda>}: the row of alpha[:-1] pushed through the last part.

    With no beta it is the Kostka row {lambda: K(lambda, alpha)} of h_alpha.
    With no alpha it is the row of e_beta, the sum of K(nu, beta) s_nu'
    (Macdonald I.6), so the Kostka row of beta with its shapes conjugated.
    The cache is unbounded: it keeps the row of every pair asked for and of
    each prefix of its alpha, for the life of the process.  With the strip
    lists the rows hold about 4.8 MiB once every locus of n = 16 is planned
    and 12.3 MiB at 18.  Callers share the rows and must not change them.
    """
    if alpha:
        out: dict[Partition, int] = {}
        for lam, k in _mixed_row(alpha[:-1], beta).items():
            for outer in _strips(lam, alpha[-1]):
                out[outer] = out.get(outer, 0) + k
        return out
    if beta:
        return {conjugate(nu): k for nu, k in _mixed_row(beta, ()).items()}
    return {(): 1}


def _young_decomposition(
    systems: dict[Partition, tuple[int, dict[Partition, int], tuple[int, ...]]]
) -> SchurPoly:
    """Graded multiplicities from invariant ranks, by Young's rule.

    systems[lam] = (k, row, ranks): ranks[d] is the sum over rho of row[rho]
    times the cumulative multiplicity of rho in F_d, where row is the mixed
    row of lam's split at k on the partitions that have a system, and
    row[lam] must be 1.  Each system is solved after the other systems its
    row names, so these must not name it in turn.  A partition with no
    system is taken to have multiplicity 0 in every degree.
    """
    # lam -> its cumulative multiplicities, or [] while its own solve is open
    filtration: dict[Partition, list[int]] = {}
    out: SchurPoly = {}

    def solve(lam: Partition) -> list[int]:
        k, row, ranks = systems[lam]
        if row.get(lam) != 1:
            raise InvariantError(
                f"the row of lambda={lam} at k={k} holds it {row.get(lam, 0)} times, not once"
            )
        filtration[lam] = []
        cumulative = list(ranks)
        for rho, x in row.items():
            mult = filtration.get(rho)
            if mult is None:
                mult = solve(rho)
            elif not mult:
                if rho == lam:
                    continue
                raise InvariantError(
                    f"no order solves lambda={lam} at k={k}: its row needs lambda={rho}, "
                    f"whose row needs it in turn"
                )
            for d, m in enumerate(mult):
                cumulative[d] -= x * m
        filtration[lam] = cumulative
        graded = [m - (cumulative[d - 1] if d else 0) for d, m in enumerate(cumulative)]
        if any(m < 0 for m in graded):
            raise InvariantError(f"negative multiplicity of lambda={lam} at k={k}: {graded}")
        if any(graded):
            out[lam] = qp_normal(graded)
        return cumulative

    for lam in systems:
        if lam not in filtration:
            solve(lam)
    return out


def oracle_graded_frobenius(
    n: int, a: int, *, size_cap: int | None = None
) -> SchurPoly:
    """Schur expansion of the graded conjugation action, by Young's rule.

    Young's rule on the top-degree type counts of every S_mu gives the
    ungraded multiplicities.  Each lambda that occurs then gets the split
    whose system of S_alpha x S_beta has the fewest rows, as predicted from
    them; a split between two equal parts is not tried.  One Young's-rule
    solve on the mixed rows gives the graded multiplicities.
    """
    check_locus_params(n, a)
    cap = oracle_size_cap(size_cap)
    if n > cap:
        raise ResourceLimitError(
            f"n={n} exceeds the oracle size cap {cap}; raise it with --cap or size_cap="
        )
    top = (n - a) // 2
    ungraded = _young_decomposition(
        {mu: (len(mu), _mixed_row(mu, ()), (_count(mu, top),)) for mu in partitions_of(n)}
    )
    mult = {lam: m for lam, (m,) in ungraded.items()}
    # omega swaps h and e, so <h_alpha e_beta, s_rho> = <h_beta e_alpha, s_rho'>:
    # a row is read in the order whose shorter side is conjugated
    omega = [conjugate(lam) for lam in mult]
    systems = {}
    for lam in mult:
        plans = []
        for k in range(len(lam) + 1):
            if 0 < k < len(lam) and lam[k - 1] == lam[k]:
                continue
            alpha, beta = lam[:k], conjugate(lam[k:])
            full, keys = (
                (_mixed_row(alpha, beta), mult)
                if len(alpha) >= len(beta)
                else (_mixed_row(beta, alpha), omega)
            )
            # the row on the lambda that occur, the only ones that get a system
            row = {rho: x for rho, key in zip(mult, keys) if (x := full.get(key))}
            plans.append((sum(x * mult[rho] for rho, x in row.items()), k, row))
        size, k, row = min(plans, key=itemgetter(0, 1))
        systems[lam] = (k, row, _ranks(n, a, lam, k, size))
    frobenius = _young_decomposition(systems)
    for lam, (k, _, _) in systems.items():
        if sum(frobenius.get(lam, ())) != mult[lam]:
            raise InvariantError(
                f"top-degree multiplicity {sum(frobenius.get(lam, ()))} of lambda={lam} "
                f"at n={n}, a={a}, k={k} differs from its ungraded multiplicity {mult[lam]}"
            )
    return frobenius


def graded_hilbert(n: int, a: int, *, size_cap: int | None = None) -> QPoly:
    """Dimensions of the graded pieces: the oracle's expansion under s_lambda -> f^lambda."""
    return hilbert_series(oracle_graded_frobenius(n, a, size_cap=size_cap))


def verify_monomial_basis(n: int, a: int, *, size_cap: int | None = None) -> dict:
    """Check the candidate monomials against the exact graded dimensions.

    PASS means: per degree the candidate count matches the graded Hilbert
    coefficient, and all candidate evaluation columns taken together are
    linearly independent (hence a basis of the function space).  The columns
    are 0/1, so a full rank over GF(2) proves them independent; only a short
    one reruns the exact elimination, which alone decides a dependence.
    """
    frobenius = oracle_graded_frobenius(n, a, size_cap=size_cap)
    hilbert = hilbert_series(frobenius)
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
