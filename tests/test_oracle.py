"""Brute-force ground truth: invariant ranks, Young's rule, and basis verification."""

import copy
import json
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from involution_harmonics import cli, oracle
from involution_harmonics.errors import (
    DomainViolationError,
    InvalidParametersError,
    InvariantError,
    ResourceLimitError,
    check_locus_params,
)
from involution_harmonics.frobenius import graded_frobenius_width, hilbert_series
from involution_harmonics.involutions import count_involutions, involutions
from involution_harmonics.oracle import (
    _columns,
    _count,
    _gf2_rank,
    _mixed_row,
    _ranks,
    _reduce_column,
    _young_decomposition,
    graded_hilbert,
    matchings_of_size,
    oracle_graded_frobenius,
    oracle_size_cap,
    verify_monomial_basis,
)
from involution_harmonics.partitions import conjugate, partitions_of, syt_count
from involution_harmonics.schur import QP_ONE, pieri_mult, qp_normal
from involution_harmonics.tableaux import candidate_basis


def valid_params(max_n):
    for n in range(1, max_n + 1):
        for a in range(n % 2, n + 1, 2):
            yield n, a


def splits(lam):
    """(alpha, beta) = (lam[:k], lam[k:]') for every k from 0 to len(lam)."""
    return [(lam[:k], conjugate(lam[k:])) for k in range(len(lam) + 1)]


def mixed_ranks(n, a, alpha, beta):
    """dim Hom_{S_alpha x S_beta}(1 (x) sgn, F_d) by exact elimination."""
    size = len(matchings_of_size(alpha + beta, (n - a) // 2, len(beta)))
    return _ranks(n, a, alpha + conjugate(beta), len(alpha), size)


def invariant_ranks(n, a, mu):
    """dim F_d^{S_mu} by exact elimination, after checking n, a and mu."""
    check_locus_params(n, a)
    if sum(mu) != n:
        raise DomainViolationError(f"{mu} is not a composition of {n}")
    return mixed_ranks(n, a, mu, ())


def ungraded_multiplicities(n, a):
    """{lambda: multiplicity in F_top}, by Young's rule on the type counts of every S_mu."""
    top = (n - a) // 2
    systems = {mu: (len(mu), _mixed_row(mu, ()), (_count(mu, top),)) for mu in partitions_of(n)}
    return {lam: m for lam, (m,) in _young_decomposition(systems).items()}


def kostka_rows(n):
    """{mu: {lambda: K(lambda, mu)}} for every mu of n, the cached rows."""
    return {mu: _mixed_row(mu, ()) for mu in partitions_of(n)}


def type_counts(mus, d):
    """len(matchings_of_size(mu, d)) for each mu, counted without listing."""
    return {mu: _count(mu, d) for mu in mus}


def letter_pairs(matching):
    """A (1^n) orbit type as its pairs of letters 1..n."""
    assert all(count == 1 for _, count in matching)
    return tuple((b + 1, c + 1) for (b, c), _ in matching)


def test_matchings_of_size():
    ones = (1,) * 4
    assert matchings_of_size(ones, 0) == ((),)
    assert tuple(map(letter_pairs, matchings_of_size(ones, 2))) == (
        ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))
    )
    for n in range(9):
        for d in range(n // 2 + 1):
            got = tuple(map(letter_pairs, matchings_of_size((1,) * n, d)))
            want = comb(n, 2 * d) * factorial(2 * d) // (2**d * factorial(d))
            assert len(got) == want
            assert len(set(got)) == len(got)
    # blocks {1,2,3} and {4,5}: two cross pairs, one pair in each block, or
    # one pair inside the first block and one cross pair
    assert matchings_of_size((3, 2), 2) == (
        (((0, 1), 2),),
        (((0, 0), 1), ((1, 1), 1)),
        (((0, 0), 1), ((0, 1), 1)),
    )


def test_graded_hilbert_values():
    assert graded_hilbert(2, 0) == (1,)
    assert graded_hilbert(3, 1) == (1, 2)
    assert graded_hilbert(4, 0) == (1, 2)
    assert graded_hilbert(4, 2) == (1, 5)


def test_graded_hilbert_total_is_the_point_count():
    for n, a in valid_params(6):
        assert sum(graded_hilbert(n, a)) == count_involutions(n, a)


def test_size_cap():
    with pytest.raises(ResourceLimitError):
        graded_hilbert(8, 0)
    assert graded_hilbert(8, 8, size_cap=8) == (1,)  # identity-only locus


def test_size_cap_configuration():
    assert oracle_size_cap() == 6
    assert oracle_size_cap(4) == 4
    # a cap below 1 would refuse every locus: a parameter error, not a size limit
    # so would a cap that is not an integer, a bool included
    for cap in (0, -1, "7", 4.5, True):
        with pytest.raises(InvalidParametersError):
            graded_hilbert(4, 0, size_cap=cap)
        with pytest.raises(InvalidParametersError):
            verify_monomial_basis(4, 0, size_cap=cap)


def test_invariant_ranks_values():
    # S_3 has one orbit on the three points of M(3, 1): only constants are invariant
    assert invariant_ranks(3, 1, (3,)) == (1, 1)
    assert invariant_ranks(3, 1, (2, 1)) == (1, 2)
    assert invariant_ranks(3, 1, (1, 1, 1)) == (1, 3)
    with pytest.raises(DomainViolationError):
        invariant_ranks(3, 1, (2,))


def test_invariant_ranks_saturate_at_the_orbit_count():
    for n, a in valid_params(6):
        top = (n - a) // 2
        assert invariant_ranks(n, a, (1,) * n)[-1] == count_involutions(n, a)
        for mu in partitions_of(n):
            assert invariant_ranks(n, a, mu)[-1] == len(matchings_of_size(mu, top))


def test_sign_types():
    # sign blocks {1,2,3}, {4,5}, {6,7}: three pairs across blocks leave one letter
    assert matchings_of_size((3, 2, 2), 3, 3) == (
        (((0, 2), 1), ((0, 1), 1), ((1, 2), 1)),
        (((0, 2), 1), ((0, 1), 2)),
        (((0, 2), 2), ((0, 1), 1)),
    )
    # a pair inside the one sign block, or two letters of it unmatched
    assert matchings_of_size((4,), 2, 1) == ()
    assert matchings_of_size((4,), 1, 1) == ()
    assert matchings_of_size((1,) * 4, 2, 4) == matchings_of_size((1,) * 4, 2)
    # blocks {1,2} and the sign block {3,4}: one pair joins them, and the
    # second letter of the sign block stays unmatched
    assert matchings_of_size((2, 2), 1, 1) == ((((0, 1), 1),),)
    assert matchings_of_size((2, 2), 2, 1) == ()
    assert matchings_of_size((2, 2), 2) == ((((0, 1), 2),), (((0, 0), 1), ((1, 1), 1)))


def test_type_counts_match_the_listed_types():
    for n in range(10):
        for d in range(n // 2 + 1):
            counts = type_counts(partitions_of(n), d)
            assert counts == {mu: len(matchings_of_size(mu, d)) for mu in partitions_of(n)}
            if n:
                assert counts[(1,) * n] == count_involutions(n, n - 2 * d)


def fits_the_sign(blocks, signs, t):
    """Whether type t keeps the rules of the sign blocks, the last `signs` of the blocks.

    No pair inside a sign block, at most one pair in a class that joins
    another block to a sign block, and at most one letter of each sign block
    unmatched.
    """
    first = len(blocks) - signs
    free = list(blocks)
    for (b, c), m in t:
        free[b] -= m
        free[c] -= m
        if c >= first and (b == c or b < first and m > 1):
            return False
    return all(f <= 1 for f in free[first:])


def test_predicted_counts_match_the_listed_sign_types():
    # Young's rule of F_top on the mixed rows, for every split of every lambda,
    # not only those the oracle plans; each list is, in order, the types
    # without sign blocks that fit the sign
    cases = 0
    for n in range(1, 11):
        for a in range(n % 2, n + 1, 2):
            top = (n - a) // 2
            mult = ungraded_multiplicities(n, a)
            for lam in partitions_of(n):
                for alpha, beta in splits(lam):
                    blocks = alpha + beta
                    listed = matchings_of_size(blocks, top, len(beta))
                    assert listed == tuple(
                        t for t in matchings_of_size(blocks, top)
                        if fits_the_sign(blocks, len(beta), t)
                    )
                    row = _mixed_row(alpha, beta)
                    assert len(listed) == sum(row.get(rho, 0) * m for rho, m in mult.items())
                    cases += 1
            # S_(1^n) is trivial, so the split k = 0 of (n), all sign blocks, lists every point
            ones = (1,) * n
            assert matchings_of_size(ones, top, n) == matchings_of_size(ones, top)
    assert cases == 3356


def run_optimized(code):
    """The lines code prints under python -O, after it runs to the end."""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


ENTRY_POINTS = (
    "for f in (o.graded_hilbert, o.oracle_graded_frobenius, o.verify_monomial_basis):\n"
    "    try:\n"
    "        f(4, 0)\n"
    "    except InvariantError as e:\n"
    "        print(f.__name__, 'raised:', e)\n"
)
NAMES = ("graded_hilbert", "oracle_graded_frobenius", "verify_monomial_basis")


def test_oracle_raises_when_optimized_and_a_type_count_is_off():
    # one more type of S_(1^4) than there are is one copy of the sign
    # representation, which the mixed rows then predict as a sign type
    # that the lister does not find
    code = (
        "import involution_harmonics.oracle as o\n"
        "from involution_harmonics.errors import InvariantError\n"
        "real = o._count\n"
        "def miscount(caps, need):\n"
        "    return real(caps, need) + (caps == (1, 1, 1, 1))\n"
        "o._count = miscount\n"
    ) + ENTRY_POINTS
    assert run_optimized(code) == [
        f"{name} raised: 1 top-degree types of n=4, a=0, lambda=(2, 2), k=0 listed, 2 predicted"
        for name in NAMES
    ]


@pytest.mark.parametrize(
    "signs, message",
    [
        (False, "0 top-degree types of n=4, a=0, lambda=(4,), k=1 listed, 1 predicted"),
        (True, "0 top-degree types of n=4, a=0, lambda=(2, 2), k=0 listed, 1 predicted"),
    ],
)
def test_oracle_raises_when_optimized_and_a_type_list_is_short(signs, message):
    # at (4, 0) the oracle solves s_(4) from S_(4) and s_(2,2) from S_(2,2) on the sign
    code = (
        "import involution_harmonics.oracle as o\n"
        "from involution_harmonics.errors import InvariantError\n"
        "real = o.matchings_of_size\n"
        "def short(blocks, d, signs=0):\n"
        "    types = real(blocks, d, signs)\n"
        f"    return types[1:] if bool(signs) is {signs} else types\n"
        "o.matchings_of_size = short\n"
    ) + ENTRY_POINTS
    assert run_optimized(code) == [f"{name} raised: {message}" for name in NAMES]


def test_basis_check_raises_when_optimized_and_a_point_is_missing():
    # the points come from the locus itself, so a short list of them shows
    # against the graded dimensions the oracle found
    code = (
        "import involution_harmonics.oracle as o\n"
        "from involution_harmonics.errors import InvariantError\n"
        "real = o.involutions\n"
        "o.involutions = lambda n, a: real(n, a)[1:]\n"
        "try:\n"
        "    o.verify_monomial_basis(4, 0)\n"
        "except InvariantError as e:\n"
        "    print(e)\n"
    )
    assert run_optimized(code) == ["2 points of n=4, a=0 listed, graded dimensions sum to 3"]


def test_oracle_raises_when_optimized_and_a_rank_falls_short():
    # with every binomial 0 only the constant column has an entry, and the
    # projection of a constant onto the sign of S_(2,2) vanishes
    code = (
        "import involution_harmonics.oracle as o\n"
        "from involution_harmonics.errors import InvariantError\n"
        "o.comb = lambda n, k: 0\n"
    ) + ENTRY_POINTS
    assert run_optimized(code) == [
        f"{name} raised: rank 0 at the top degree of n=4, a=0, lambda=(2, 2), k=0 "
        "does not reach the 1 point types"
        for name in NAMES
    ]


# ranks of the system of s_(4) at (4, 0), which are (1, 1), changed after
# the elimination: s_(2,2) is solved from S_(2,2) on the sign, whose row
# names no other lambda that occurs, so only s_(4) is affected
CHANGED_RANKS = (
    "import involution_harmonics.oracle as o\n"
    "from involution_harmonics.errors import InvariantError\n"
    "real = o._ranks\n"
    "def changed(n, a, lam, k, size):\n"
    "    ranks = real(n, a, lam, k, size)\n"
    "    return {ranks} if lam == (4,) else ranks\n"
    "o._ranks = changed\n"
)


@pytest.mark.parametrize(
    "ranks, message",
    [
        (
            "(1, 2)",
            "top-degree multiplicity 2 of lambda=(4,) at n=4, a=0, k=1 "
            "differs from its ungraded multiplicity 1",
        ),
        ("(1, 0)", "negative multiplicity of lambda=(4,) at k=1: [1, -1]"),
    ],
)
def test_oracle_raises_when_optimized_and_a_solved_multiplicity_is_off(ranks, message):
    code = CHANGED_RANKS.format(ranks=ranks) + ENTRY_POINTS
    assert run_optimized(code) == [f"{name} raised: {message}" for name in NAMES]


# a Kostka row of the partitions of 4 changed before the ungraded solve,
# which runs through the one Young's-rule solve as the splits k = len(mu)
CHANGED_ROW = (
    "import involution_harmonics.oracle as o\n"
    "from involution_harmonics.errors import InvariantError\n"
    "real = o._mixed_row\n"
    "def changed(alpha, beta):\n"
    "    row = real(alpha, beta)\n"
    "    return {{**row, **{entries}}} if (alpha, beta) == ({mu}, ()) else row\n"
    "o._mixed_row = changed\n"
)


@pytest.mark.parametrize(
    "mu, entries, message",
    [
        (
            (1, 1, 1, 1),
            {(1, 1, 1, 1): 2},
            "the row of lambda=(1, 1, 1, 1) at k=4 holds it 2 times, not once",
        ),
        (
            (4,),
            {(3, 1): 1},
            "no order solves lambda=(3, 1) at k=2: its row needs lambda=(4,), "
            "whose row needs it in turn",
        ),
    ],
)
def test_oracle_raises_when_optimized_and_a_row_cannot_be_solved(mu, entries, message):
    # a diagonal entry that is not 1, and two rows that each name the other
    code = CHANGED_ROW.format(mu=mu, entries=entries) + ENTRY_POINTS
    assert run_optimized(code) == [f"{name} raised: {message}" for name in NAMES]


def reference_complete(mu):
    """h_mu in the Schur basis by a chain of Pieri products; reference Kostka rows."""
    h = {(): QP_ONE}
    for part in mu:
        h = pieri_mult(h, part)
    return h


def test_kostka_rows_match_the_pieri_chain():
    # h_mu is a product, so the chain fed mu's parts smallest first must give
    # the same row as the rows built largest first from shared strip lists
    for n in range(1, 10):
        for mu, row in kostka_rows(n).items():
            for parts in (mu, mu[::-1]):
                assert row == {lam: c[0] for lam, c in reference_complete(parts).items()}


def dominates(lam, mu):
    """lam >= mu in dominance order: every prefix sum of lam is at least mu's."""
    return all(x >= y for x, y in zip(accumulate(lam), accumulate(mu)))


def test_kostka_rows_without_the_pieri_enumerator():
    for n in range(1, 13):
        rows = kostka_rows(n)
        shapes = partitions_of(n)
        assert tuple(rows) == shapes
        assert rows[(1,) * n] == {lam: syt_count(lam) for lam in shapes}
        for mu, row in rows.items():
            assert row[mu] == 1
            assert all(k > 0 for k in row.values())
            assert set(row) == {lam for lam in shapes if dominates(lam, mu)}
            # h_mu is the character of the permutation module on S_n / S_mu
            multinomial = factorial(n) // prod(factorial(part) for part in mu)
            assert sum(k * syt_count(lam) for lam, k in row.items()) == multinomial


def test_mixed_rows_without_the_pieri_enumerator():
    cases = 0
    for n in range(1, 13):
        for lam in partitions_of(n):
            for alpha, beta in splits(lam):
                row = _mixed_row(alpha, beta)
                assert row[lam] == 1
                assert all(k > 0 for k in row.values())
                # h_alpha e_beta is the character of 1 (x) sgn induced from S_alpha x S_beta
                index = factorial(n) // prod(factorial(part) for part in alpha + beta)
                assert sum(k * syt_count(rho) for rho, k in row.items()) == index
                cases += 1
    assert cases == 1482


def test_mixed_rows_are_the_omega_images_of_the_swapped_rows():
    # omega(h_alpha e_beta) = e_alpha h_beta, so the row with alpha and beta
    # swapped is the row with its shapes conjugated; the oracle reads each
    # row from the order that conjugates its shorter side
    for n in range(1, 10):
        for lam in partitions_of(n):
            for alpha, beta in splits(lam):
                swapped = _mixed_row(beta, alpha)
                assert _mixed_row(alpha, beta) == {conjugate(rho): k for rho, k in swapped.items()}


def mixed_rows(n):
    """{(alpha, beta): row} for every split of every lambda of n, in both orders."""
    return {
        pair: _mixed_row(*pair)
        for lam in partitions_of(n)
        for alpha, beta in splits(lam)
        for pair in ((alpha, beta), (beta, alpha))
    }


def clear_plan_caches():
    for cached in (oracle._count, oracle._mixed_row, oracle._strips):
        cached.cache_clear()


def test_shared_rows_stay_unchanged_and_results_do_not_depend_on_call_order():
    def results(n, a):
        return (
            oracle_graded_frobenius(n, a, size_cap=8),
            graded_hilbert(n, a, size_cap=8),
            verify_monomial_basis(n, a, size_cap=8),
        )

    clear_plan_caches()
    # the Kostka rows are the splits with no sign block
    rows = {n: copy.deepcopy(mixed_rows(n)) for n in range(1, 9)}
    # largest n first, so each smaller locus reads rows and counts a larger one cached
    loci = sorted(valid_params(8), reverse=True)
    shared = {locus: results(*locus) for locus in loci}
    assert {n: mixed_rows(n) for n in rows} == rows
    for locus in loci:
        clear_plan_caches()
        assert results(*locus) == shared[locus], locus


def kostka_systems(ranks):
    """{mu: (len(mu), the Kostka row of mu on the keys of ranks, ranks of mu)}."""
    return {
        mu: (len(mu), {lam: k for lam, k in _mixed_row(mu, ()).items() if lam in ranks}, r)
        for mu, r in ranks.items()
    }


def test_young_decomposition_rejects_a_negative_multiplicity():
    # h_(1,1) = s_(2) + s_(1,1), so rank 1 of S_(1,1) with rank 2 of S_(2) is impossible
    with pytest.raises(InvariantError, match="negative"):
        _young_decomposition(kostka_systems({(2,): (2,), (1, 1): (1,)}))
    # a multiplicity that falls from one degree to the next
    with pytest.raises(InvariantError, match="negative"):
        _young_decomposition(kostka_systems({(2,): (1, 0), (1, 1): (1, 1)}))
    assert _young_decomposition(kostka_systems({(2,): (1, 1), (1, 1): (1, 2)})) == {
        (2,): (1,), (1, 1): (0, 1)
    }


def test_young_decomposition_finds_the_order_or_raises():
    # e_(2) = s_(1,1), so the split k = 0 of (1, 1) names no other lambda;
    # h_(1,1) = s_(2) + s_(1,1), so the split k = 2 needs (2) solved first,
    # though it comes first
    h_2 = (1, {(2,): 1}, (1, 1))
    want = {(2,): (1,), (1, 1): (0, 1)}
    assert _young_decomposition({(1, 1): (0, {(1, 1): 1}, (0, 1)), (2,): h_2}) == want
    assert _young_decomposition({(1, 1): (2, {(2,): 1, (1, 1): 1}, (1, 2)), (2,): h_2}) == want
    # two rows that each name the other, and a row that does not hold its lambda
    cycle = {lam: (len(lam), {(2,): 1, (1, 1): 1}, (1,)) for lam in ((1, 1), (2,))}
    with pytest.raises(InvariantError, match="needs it in turn"):
        _young_decomposition(cycle)
    with pytest.raises(InvariantError, match="holds it 0 times"):
        _young_decomposition({(2,): (1, {(1, 1): 1}, (1,))})


def fraction_rank(columns):
    """Rank by Gaussian elimination over the rationals, a reference for the tests."""
    rows = [[Fraction(x) for x in col] for col in columns]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(st.data())
def test_reduce_column_keeps_one_pivot_per_rank(data):
    height = data.draw(st.integers(1, 7))
    column = st.one_of(
        st.lists(st.integers(-3, 3), min_size=height, max_size=height),
        st.just([0] * height),
    )
    columns = data.draw(st.lists(column, max_size=9))
    if columns:
        columns += data.draw(st.lists(st.sampled_from(columns), max_size=3))
        columns = data.draw(st.permutations(columns))
    basis = []
    for col in columns:
        earlier = list(basis)
        reduced = _reduce_column({i: x for i, x in enumerate(col) if x}, basis)
        assert all(reduced.values())
        assert not any(pivot in reduced for pivot, _ in earlier)
        # a non-zero result is stored, keyed on its lowest row, and nothing else is
        assert basis == (earlier + [(min(reduced), reduced)] if reduced else earlier)
    assert len(basis) == fraction_rank(columns)


@given(st.data())
def test_full_gf2_rank_is_full_rational_rank(data):
    height = data.draw(st.integers(1, 8))
    column = st.lists(st.integers(0, 1), min_size=height, max_size=height)
    columns = data.draw(st.lists(column, max_size=height))
    masks = [sum(bit << i for i, bit in enumerate(col)) for col in columns]
    rank = _gf2_rank(masks)
    # a rank mod 2 is a lower bound on the rational rank, reached when full
    assert rank <= fraction_rank(columns)
    if rank == len(columns):
        assert fraction_rank(columns) == len(columns)


@given(st.data())
def test_gf2_rank_is_the_span_dimension_in_any_column_order(data):
    height = data.draw(st.integers(1, 8))
    masks = data.draw(st.lists(st.integers(0, (1 << height) - 1), max_size=height + 2))
    rank = _gf2_rank(masks)
    assert _gf2_rank(masks[::-1]) == _gf2_rank(data.draw(st.permutations(masks))) == rank
    span = {0}
    for m in masks:
        span |= {x ^ m for x in span}
    assert len(span) == 1 << rank
    # the exact rank bounds it from above and is reached when it is full
    basis = []
    for m in masks:
        _reduce_column({p: 1 for p in range(height) if m >> p & 1}, basis)
    assert rank <= len(basis)
    if rank == len(masks):
        assert len(basis) == rank


def test_gf2_rank_can_fall_short_of_the_exact_rank():
    # 011 + 110 + 101 = 0 mod 2, while the three columns are independent over Q
    assert _gf2_rank([0b011, 0b110, 0b101]) == 2
    assert fraction_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 3


def test_short_gf2_rank_gives_the_same_report(monkeypatch):
    # the exact elimination then decides, and finds no dependent candidate
    reports = {(n, a): verify_monomial_basis(n, a, size_cap=7) for n, a in valid_params(7)}
    monkeypatch.setattr(oracle, "_gf2_rank", lambda columns: len(columns) - 1)
    for (n, a), report in reports.items():
        assert report["basis_check"] == "PASS"
        assert verify_monomial_basis(n, a, size_cap=7) == report


def test_oracle_raises_when_optimized_and_the_elimination_breaks():
    # asserts vanish under -O; the saturation check must not, on any entry point
    code = (
        "import involution_harmonics.oracle as o\n"
        "from involution_harmonics.errors import InvariantError\n"
        "o._reduce_column = lambda col, basis: {}\n"
    ) + ENTRY_POINTS
    assert [line.split(":")[0] for line in run_optimized(code)] == [
        f"{name} raised" for name in NAMES
    ]


def reference_oracle(n, a):
    """Ranks of every Young subgroup, Hilbert series from the (1^n) rank increments."""
    ranks = {mu: invariant_ranks(n, a, mu) for mu in partitions_of(n)}
    identity = ranks[(1,) * n]
    hilbert = qp_normal(r - (identity[d - 1] if d else 0) for d, r in enumerate(identity))
    return _young_decomposition(kostka_systems(ranks)), hilbert


def test_oracle_equals_the_all_subgroup_reference():
    for n, a in valid_params(7):
        frobenius, hilbert = reference_oracle(n, a)
        assert oracle_graded_frobenius(n, a, size_cap=7) == frobenius
        assert graded_hilbert(n, a, size_cap=7) == hilbert
        assert verify_monomial_basis(n, a, size_cap=7)["hilbert"] == list(hilbert)


def untwisted_oracle(n, a):
    """Every occurring lambda solved top-down from the ranks of S_lambda."""
    ranks = {lam: invariant_ranks(n, a, lam) for lam in ungraded_multiplicities(n, a)}
    return _young_decomposition(kostka_systems(ranks))


def test_oracle_equals_the_untwisted_solve():
    for n, a in valid_params(8):
        assert oracle_graded_frobenius(n, a, size_cap=8) == untwisted_oracle(n, a)


def test_oracle_solves_each_lambda_from_its_cheapest_split(monkeypatch):
    # the rows of every system eliminated at (9, 3): 64 from the cheapest
    # splits, against 231 from the splits with no sign block
    calls = []

    def spy(n, a, lam, k, size, real=oracle._ranks):
        calls.append((lam, k, size))
        return real(n, a, lam, k, size)

    monkeypatch.setattr(oracle, "_ranks", spy)
    occurring = oracle_graded_frobenius(9, 3, size_cap=9)
    assert sorted(lam for lam, _, _ in calls) == sorted(occurring)
    assert sum(size for _, _, size in calls) == 64
    assert any(0 < k < len(lam) for lam, k, _ in calls)
    assert sum(type_counts(occurring, 3).values()) == 231


def young_subgroup(alpha, beta):
    """Each element of S_alpha x S_beta as a dict on letters 1..n, with its sign on beta."""
    blocks, start = [], 1
    for part in alpha + beta:
        blocks.append(range(start, start + part))
        start += part
    for images in product(*(permutations(block) for block in blocks)):
        word = [x for image in images[len(alpha) :] for x in image]
        sigma = dict(zip(range(1, start), (x for image in images for x in image)))
        yield sigma, sign_of(word)


def sign_of(word):
    """The sign of a word of distinct letters, by counting its inversions."""
    return (-1) ** sum(x > y for i, x in enumerate(word) for y in word[i + 1 :])


def sign_projection_ranks(n, a, alpha, beta):
    """Rank per degree of the projections of x^m onto 1 (x) sgn, m of at most d pairs.

    The projection is the sum over S_alpha x S_beta of chi(sigma) sigma.x^m,
    with chi(sigma) the sign of sigma on the blocks of beta.  Built literally
    from the group: each matching's signed images, evaluated on every point
    of the locus, one column per matching.
    """
    group = list(young_subgroup(alpha, beta))
    points = [frozenset(w.pairs) for w in involutions(n, a)]
    basis, ranks = [], []
    for d in range((n - a) // 2 + 1):
        for m in map(letter_pairs, matchings_of_size((1,) * n, d)):
            images = {}
            for sigma, sign in group:
                image = frozenset(tuple(sorted((sigma[i], sigma[j]))) for i, j in m)
                images[image] = images.get(image, 0) + sign
            column = {
                r: x
                for r, point in enumerate(points)
                if (x := sum(c for image, c in images.items() if image <= point))
            }
            _reduce_column(column, basis)
        ranks.append(len(basis))
    return tuple(ranks)


def test_mixed_ranks_are_the_ranks_of_the_projection_onto_the_sign():
    systems = nonempty = 0
    for n, a in valid_params(6):
        top = (n - a) // 2
        expansion = graded_frobenius_width(n, a)
        cumulative = {
            lam: list(accumulate(coeff + (0,) * (top + 1 - len(coeff))))
            for lam, coeff in expansion.items()
        }
        for lam in partitions_of(n):
            for alpha, beta in splits(lam):
                got = mixed_ranks(n, a, alpha, beta)
                assert got == sign_projection_ranks(n, a, alpha, beta), (n, a, alpha, beta)
                # Young's rule on the mixed row, with the width route's multiplicities
                row = _mixed_row(alpha, beta)
                assert got == tuple(
                    sum(row.get(rho, 0) * m[d] for rho, m in cumulative.items())
                    for d in range(top + 1)
                )
                systems += 1
                nonempty += got[-1] > 0
    assert (systems, nonempty) == (346, 244)


def reference_twisted_columns(n, a, mu, types):
    """The columns on the sign of S_mu of each degree d, as {type m: column}, by walking subsets.

    Each row is a point of its type: block by block, its letters are given
    to the type's classes in order, then to the unmatched letter.  On a row,
    the column of m sums sign(S) over the d-subsets S of the row's pairs of
    type m that leave at most one letter of each block unmatched; sign(S) is
    the sign of the word that lists, block by block, S's pair ends class by
    class in sorted order (pairs sorted, one order at both ends), then the
    unmatched letter.  Entries that cancel are left out.
    """
    block = [b for b, part in enumerate(mu) for _ in range(part)]
    starts = list(accumulate((0,) + mu[:-1]))
    rows = []
    for t in types:
        nxt = list(starts)
        pairs = []
        for (b, c), m in t:
            for _ in range(m):
                pairs.append((nxt[b], nxt[c]))
                nxt[b] += 1
                nxt[c] += 1
        fixed = [i for b, i in enumerate(nxt) if i < starts[b] + mu[b]]
        rows.append((sorted(pairs), fixed))
    top = (n - a) // 2
    out = []
    for d in range(top + 1):
        columns = {}
        for r, (pairs, fixed) in enumerate(rows):
            for kept in map(set, combinations(range(top), d)):
                dropped = [pair for p, pair in enumerate(pairs) if p not in kept]
                unmatched = fixed + [i for pair in dropped for i in pair]
                if len({block[i] for i in unmatched}) < len(unmatched):
                    continue
                ends = {}
                for p in sorted(kept):
                    i, j = pairs[p]
                    ends.setdefault((block[i], block[j]), []).append((i, j))
                words = [[] for _ in mu]
                for (b, c), ps in sorted(ends.items()):
                    for i, j in ps:
                        words[b].append(i)
                        words[c].append(j)
                for i in unmatched:
                    words[block[i]].append(i)
                m = tuple((k, len(ps)) for k, ps in sorted(ends.items()))
                column = columns.setdefault(m, {})
                column[r] = column.get(r, 0) + sign_of([i for word in words for i in word])
        out.append({m: {r: x for r, x in col.items() if x} for m, col in columns.items()})
    return out


def test_entries_at_k_zero_are_the_signed_subset_sums():
    # every split k = 0 at n <= 9, whose blocks are all sign blocks: per
    # degree, the built columns that are not empty are the reference columns,
    # each up to one sign, and no reference column is empty

    def signed(column):
        """The column's entries, scaled so that the one on its first row is positive."""
        s = 1 if column[min(column)] > 0 else -1
        return sorted((r, s * x) for r, x in column.items())

    compared = 0
    for n, a in valid_params(9):
        top = (n - a) // 2
        for mu in partitions_of(n):
            types = matchings_of_size(mu, top, len(mu))
            want = reference_twisted_columns(n, a, mu, types)
            columns = _columns(mu, len(mu), top, types)
            for d in range(top + 1):
                got = [column for column in columns(d) if column]
                assert sorted(map(signed, got)) == sorted(map(signed, want[d].values())), (
                    n, a, mu, d,
                )
                compared += len(got)
    assert compared == 12725


def test_skipped_subgroups_have_multiplicity_zero():
    # Young's rule holds at every mu the oracle does not eliminate for, with
    # the oracle's multiplicities and none for mu itself
    skipped = 0
    for n, a in valid_params(7):
        frobenius = oracle_graded_frobenius(n, a, size_cap=7)
        top = (n - a) // 2
        cumulative = {
            lam: list(accumulate(coeff + (0,) * (top + 1 - len(coeff))))
            for lam, coeff in frobenius.items()
        }
        for mu, h_mu in kostka_rows(n).items():
            if mu in frobenius:
                continue
            skipped += 1
            want = tuple(
                sum(h_mu.get(lam, 0) * m[d] for lam, m in cumulative.items())
                for d in range(top + 1)
            )
            assert invariant_ranks(n, a, mu) == want
    assert skipped == 102  # of the 151 pairs of (n, a) and mu


@settings(deadline=None, max_examples=20)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(range(n % 2, n + 1, 2)))
    )
)
def test_oracle_matches_the_width_route(locus):
    n, a = locus
    expansion = graded_frobenius_width(n, a)
    assert oracle_graded_frobenius(n, a, size_cap=10) == expansion
    assert graded_hilbert(n, a, size_cap=10) == hilbert_series(expansion)


def test_oracle_agrees_with_the_closed_forms():
    for n, a in valid_params(5):
        expansion = graded_frobenius_width(n, a)
        assert oracle_graded_frobenius(n, a) == expansion
        assert graded_hilbert(n, a) == hilbert_series(expansion)


def test_verify_monomial_basis_passes():
    for n, a in [(4, 0), (3, 1), (5, 3)]:
        report = verify_monomial_basis(n, a)
        assert report["basis_check"] == "PASS"
        assert "failures" not in report
        assert sum(report["profile"]) == count_involutions(n, a)
        assert report["profile"] == report["hilbert"]
    assert verify_monomial_basis(4, 0)["hilbert"] == [1, 2]
    assert verify_monomial_basis(3, 1)["profile"] == [1, 2]


def test_verify_monomial_basis_report_shape():
    report = verify_monomial_basis(4, 2)
    assert report["n"] == 4 and report["a"] == 2
    assert report["hilbert"] == [1, 5]
    assert {frozenset(term) for term in map(dict.keys, report["frobenius"])} == {
        frozenset(["partition", "coeffs"])
    }


def test_check_basis_fails_on_a_dependent_candidate(monkeypatch, capsys):
    # x_12 and x_34 take the same values on the three points of M(4, 0)
    dependent = [(0, ()), (1, ((1, 2),)), (1, ((3, 4),))]
    monkeypatch.setattr(oracle, "candidate_basis", lambda n, a: dependent)
    report = verify_monomial_basis(4, 0)
    assert report["basis_check"] == "FAIL"
    assert report["failures"] == ["degree 1 monomial ((3, 4),) is dependent"]
    capsys.readouterr()
    assert cli.main(["check", "basis", "--n", "4", "--a", "0"]) == 1
    assert json.loads(capsys.readouterr().out) == report


def test_candidates_form_an_order_ideal():
    # every sub-matching of a candidate monomial is a candidate too
    for n, a in valid_params(8):
        candidates = {m for _, m in candidate_basis(n, a)}
        for m in candidates:
            for k in range(len(m)):
                assert m[:k] + m[k + 1 :] in candidates
