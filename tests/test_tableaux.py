"""Row insertion, symmetric RSK, and the candidate monomial basis."""

import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from involution_harmonics.errors import DomainViolationError
from involution_harmonics.involutions import count_involutions, involutions
from involution_harmonics.partitions import (
    Stripe,
    conjugate,
    is_even_partition,
    is_horizontal_stripe,
    partitions_of,
    stripe_inners,
    syt_count,
)
from involution_harmonics.tableaux import (
    _bump,
    _symmetric_tableau,
    _tableau_pair,
    _unbump,
    candidate_basis,
    candidate_monomial,
    involution_tableau_pair,
    is_standard_on_content,
    rsk_symmetric,
    rsk_symmetric_inverse,
    shape,
    standard_tableaux,
)


def reference_row_insert(t, value):
    """Schensted row insertion that rebuilds the tableau as tuples at every bump."""
    rows = list(t)
    v = value
    for r, row in enumerate(rows):
        k = bisect_right(row, v)
        if k == len(row):
            rows[r] = row + (v,)
            return tuple(rows), (r, k)
        rows[r], v = row[:k] + (v,) + row[k + 1 :], row[k]
    return tuple(rows) + ((v,),), (len(rows), 0)


def reference_rsk(biletters):
    """RSK that rebuilds both tableaux as tuples for every biletter."""
    p = q = ()
    for top, bottom in sorted(biletters):
        p, (r, _) = reference_row_insert(p, bottom)
        rows = list(q)
        if r == len(rows):
            rows.append(())
        rows[r] = rows[r] + (top,)
        q = tuple(rows)
    return p, q


def reference_reverse_row_insert(t, row_index):
    """Inverse insertion from the last box of a row, rebuilding tuples at every bump."""
    rows = list(t)
    if row_index + 1 < len(rows) and len(rows[row_index + 1]) >= len(rows[row_index]):
        raise DomainViolationError(f"row {row_index} has no removable corner")
    row = rows[row_index]
    v = row[-1]
    rows[row_index] = row[:-1]
    for r in range(row_index - 1, -1, -1):
        row = rows[r]
        k = bisect_left(row, v) - 1  # rightmost entry strictly below v
        if k < 0:
            raise DomainViolationError(f"row {r} has no entry below {v}: not a tableau")
        rows[r], v = row[:k] + (v,) + row[k + 1 :], row[k]
    if rows and not rows[-1]:
        rows.pop()
    return tuple(rows), v


def reference_reverse_insert_strip(t, strip):
    """The strip's boxes pushed out one reverse insertion at a time, rightmost first."""
    inner = strip.inner + (0,) * (len(strip.outer) - len(strip.inner))
    cells = [
        (r, c)
        for r, row_len in enumerate(strip.outer)
        for c in range(inner[r] + 1, row_len + 1)
    ]
    values = []
    for r, _ in sorted(cells, key=lambda rc: -rc[1]):
        t, v = reference_reverse_row_insert(t, r)
        values.append(v)
    return t, tuple(values)


def reference_rsk_inverse(p, q):
    """Inverse RSK that scans the recording tableau for each entry and rebuilds tuples."""
    biletters = []
    for value in sorted((x for row in q for x in row), reverse=True):
        r = next(i for i, row in enumerate(q) if value in row)
        rows = list(q)
        rows[r] = rows[r][:-1]
        if rows and not rows[-1]:
            rows.pop()
        q = tuple(rows)
        p, v = reference_reverse_row_insert(p, r)
        biletters.append((value, v))
    return biletters[::-1]


def reference_transpose(t):
    return tuple(tuple(row[j] for row in t if len(row) > j) for j in range(len(t[0]) if t else 0))


def reference_candidate_monomial(t, strip):
    """The strip pushed out, the rest transposed, and its symmetric preimage read as pairs."""
    rest, _ = reference_reverse_insert_strip(t, strip)
    rest = reference_transpose(rest)
    return tuple(sorted((i, j) for i, j in reference_rsk_inverse(rest, rest) if i < j))


def as_lists(t):
    return [list(row) for row in t]


def test_reverse_row_insert():
    # inserting 2 bumps 3 out of (1, 3); the reference takes it back
    assert reference_reverse_row_insert(((1, 2), (3,)), 1) == (((1, 3),), 2)
    assert reference_reverse_row_insert(((1, 2, 3),), 0) == (((1, 2),), 3)


def test_reverse_insertion_matches_the_reference():
    # the symmetric inverse of every standard tableau of size <= 8 with even columns
    for n in range(2, 9, 2):
        for lam in partitions_of(n):
            if is_even_partition(conjugate(lam)):
                for p in standard_tableaux(lam):
                    assert rsk_symmetric_inverse(p) == frozenset(reference_rsk_inverse(p, p))


def test_candidate_monomial_matches_the_reference():
    # every standard tableau of size <= 8 with every stripe under it
    for n in range(1, 9):
        for lam in partitions_of(n):
            for inner in stripe_inners(lam):
                strip = Stripe(lam, inner)
                for t in standard_tableaux(lam):
                    if is_even_partition(inner):
                        assert candidate_monomial(t, strip) == (
                            reference_candidate_monomial(t, strip)
                        )
                    else:
                        with pytest.raises(DomainViolationError, match="is not even$"):
                            candidate_monomial(t, strip)


def test_candidate_monomial_inverts_the_transposed_insertion():
    # inserting the pairs symmetrically and transposing rebuilds what is left
    # once the strip is out; the other letters, inserted in increasing order,
    # restore the tableau, and the two shapes form the stripe
    for n in range(1, 8):
        for lam in partitions_of(n):
            for inner in stripe_inners(lam):
                if not is_even_partition(inner):
                    continue
                for t in standard_tableaux(lam):
                    pairs = candidate_monomial(t, Stripe(lam, inner))
                    partner = {i: j for pr in pairs for i, j in (pr, pr[::-1])}
                    rows = as_lists(reference_transpose(_symmetric_tableau(partner)))
                    assert shape(rows) == inner
                    for v in sorted({x for row in t for x in row} - set(partner)):
                        _bump(rows, v)
                    assert rows == as_lists(t)


def test_standard_tableaux_counts():
    for n in range(1, 9):
        for lam in partitions_of(n):
            fillings = standard_tableaux(lam)
            assert len(fillings) == syt_count(lam)
            assert len(set(fillings)) == len(fillings)
            assert all(is_standard_on_content(t) for t in fillings)
            assert all(shape(t) == lam for t in fillings)


def reference_standard_tableaux(p):
    """Standard fillings one entry per recursion level: each entry goes to
    the first row with room for it, then to each later one in turn."""
    rows = [[] for _ in p]

    def place(v):
        if v > sum(p):
            yield tuple(map(tuple, rows))
            return
        for i, row in enumerate(rows):
            if len(row) < p[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(v)
                yield from place(v + 1)
                row.pop()

    return tuple(place(1))


def test_standard_tableaux_order_is_the_entry_by_entry_order():
    # candidate_basis lists each stripe's monomials in this order
    for n in range(10):
        for lam in partitions_of(n):
            assert standard_tableaux(lam) == reference_standard_tableaux(lam), lam


def test_long_shapes_and_loci_do_not_recurse_per_entry():
    # more entries than the interpreter's default recursion limit of 1000
    assert standard_tableaux((1500,)) == ((tuple(range(1, 1501)),),)
    assert standard_tableaux((1,) * 1500) == (tuple((v,) for v in range(1, 1501)),)
    assert candidate_basis(1500, 1500) == [(0, ())]


def partial_involutions(max_letters):
    """Every partial fixed-point-free involution on 1..max_letters, as position sets."""
    for a in range(max_letters % 2, max_letters + 1, 2):
        for w in involutions(max_letters, a):
            yield frozenset(c for i, j in w.pairs for c in ((i, j), (j, i)))


def test_symmetric_tableau_matches_reference_rsk():
    # the biletters of a partial involution, one per matched letter
    for ones in partial_involutions(8):
        p, q = reference_rsk(ones)
        assert p == q
        assert _symmetric_tableau(dict(ones)) == as_lists(p)


@given(st.lists(st.integers(1, 5), max_size=12))
def test_bump_matches_reference_on_multisets(letters):
    # letters repeat: Schensted insertion in general, not only on involutions
    rows, t = [], ()
    for letter in letters:
        r = _bump(rows, letter)
        t, box = reference_row_insert(t, letter)
        assert (rows, (r, len(rows[r]) - 1)) == (as_lists(t), box)


def test_unbump_rejects():
    with pytest.raises(DomainViolationError, match="^row 0 has no removable corner$"):
        _unbump([[1, 2], [3, 4]], 0)
    with pytest.raises(
        DomainViolationError, match=r"^row 0 has no entry below 1: not a tableau$"
    ):
        _unbump([[2], [1]], 1)  # the column decreases


def test_rsk_symmetric_values():
    assert rsk_symmetric({(1, 2), (2, 1)}) == ((1,), (2,))
    assert rsk_symmetric({(1, 3), (3, 1), (2, 4), (4, 2)}) == ((1, 2), (3, 4))
    assert rsk_symmetric(frozenset()) == ()
    # the word holds matched letters only, so a large letter costs nothing
    assert rsk_symmetric({(1, 10**12), (10**12, 1)}) == ((1,), (10**12,))


def test_rsk_symmetric_and_its_inverse_are_mutually_inverse():
    # every partial fixed-point-free involution on at most 8 letters ...
    for ones in partial_involutions(8):
        p = rsk_symmetric(ones)
        assert is_standard_on_content(p)
        assert is_even_partition(conjugate(shape(p)))
        assert rsk_symmetric_inverse(p) == ones
    # ... and every standard tableau of size <= 8 with even columns
    for n in range(0, 9, 2):
        for lam in partitions_of(n):
            if is_even_partition(conjugate(lam)):
                for p in standard_tableaux(lam):
                    assert rsk_symmetric(rsk_symmetric_inverse(p)) == p


def test_rsk_symmetric_inverse_rejects():
    with pytest.raises(DomainViolationError):
        rsk_symmetric_inverse(((1,),))  # odd column
    with pytest.raises(DomainViolationError):
        rsk_symmetric_inverse(((2, 2),))  # not standard on its content
    with pytest.raises(DomainViolationError):
        rsk_symmetric_inverse(((),))  # an empty row is no tableau row


def test_matrix_validation():
    # a dense matrix is outside the domain, symmetric 0/1 or not
    message = "^matrix must be the set of its 1-based one-positions, not list$"
    with pytest.raises(DomainViolationError, match=message):
        rsk_symmetric([[0, 1], [1, 0]])
    # a letter matched twice: general RSK would give ((1, 1), (2, 3)), which
    # is not standard and has no preimage
    with pytest.raises(DomainViolationError, match="^letter 1 is matched twice$"):
        rsk_symmetric({(1, 2), (2, 1), (1, 3), (3, 1)})
    with pytest.raises(DomainViolationError, match="^diagonal must be zero$"):
        rsk_symmetric({(1, 1)})
    with pytest.raises(DomainViolationError, match="^matrix must be symmetric$"):
        rsk_symmetric({(1, 2)})
    with pytest.raises(DomainViolationError):
        rsk_symmetric({(1, 2, 3)})  # not a position pair
    with pytest.raises(DomainViolationError):
        rsk_symmetric({(0, 2), (2, 0)})  # positions are 1-based
    with pytest.raises(DomainViolationError):
        rsk_symmetric({(True, 2), (2, True)})  # a bool is not a position
    with pytest.raises(DomainViolationError):
        rsk_symmetric({(-1, 2), (2, -1)})


def test_involution_tableau_pair_values():
    from involution_harmonics.involutions import involution

    q, s = involution_tableau_pair(involution(2, []))
    assert (q, s) == (((1, 2),), Stripe((2,), ()))
    q, s = involution_tableau_pair(involution(2, [(1, 2)]))
    assert (q, s) == (((1,), (2,)), Stripe((1, 1), (1, 1)))


def test_tableau_pair_is_injective_and_onto_count():
    for n in range(1, 7):
        for a in range(n % 2, n + 1, 2):
            seen = set()
            for w in involutions(n, a):
                q, s = involution_tableau_pair(w)
                assert is_standard_on_content(q)
                assert sum(shape(q)) == n
                assert shape(q) == s.outer
                assert is_horizontal_stripe(s.outer, s.inner)
                assert is_even_partition(conjugate(s.inner))
                assert sum(s.outer) - sum(s.inner) == a
                seen.add((q, s))
            assert len(seen) == count_involutions(n, a)


def test_involution_tableau_pair_matches_composite():
    # symmetric RSK of the pairs, then each fixed point inserted on top
    for n in range(1, 10):
        for a in range(n % 2, n + 1, 2):
            for w in involutions(n, a):
                ones = frozenset(c for i, j in w.pairs for c in ((i, j), (j, i)))
                p = q = rsk_symmetric(ones)
                for v in w.fixed:
                    q, _ = reference_row_insert(q, v)
                assert involution_tableau_pair(w) == (q, Stripe(shape(q), shape(p)))
                # the CLI skips involution() on the points involutions() built
                assert _tableau_pair(w) == (list(map(list, q)), Stripe(shape(q), shape(p)))


def test_row_pairs_test_matches_even_columns():
    # _symmetric_tableau reads even columns off rows that come in equal pairs
    for m in range(17):
        for p in partitions_of(m):
            assert (p[::2] == p[1::2]) == is_even_partition(conjugate(p))


# _bump replacements that break one symmetric invariant each on the pair (1, 2):
# stacking every value gives insertion [[2], [1]] against recording [[1], [2]];
# appending 1, 2, ... to the first row gives equal rows of odd-column shape (2,)
BROKEN_BUMP = {
    "unequal": "lambda rows, value: rows.append([value]) or len(rows) - 1",
    "odd_columns": (
        "lambda rows, value: (rows[0].append(len(rows[0]) + 1) if rows else rows.append([1])) or 0"
    ),
}
CHECK_MESSAGE = {"unequal": "gave insertion", "odd_columns": "gave odd-column shape"}


def run_optimized(patch, call):
    """Run `call` under python -O after the statement `patch`, tableaux as t."""
    code = (
        "import involution_harmonics.tableaux as t\n"
        "from involution_harmonics.cli import main\n"
        "from involution_harmonics.involutions import involution\n"
        f"{patch}\n"
        f"print({call})\n"
    )
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)


def run_optimized_with_broken_bump(call, broken="unequal"):
    """Run `call` under python -O with _bump replaced by BROKEN_BUMP[broken]."""
    return run_optimized(f"t._bump = {BROKEN_BUMP[broken]}", call)


def test_involution_tableau_pair_raises_when_optimized_and_rsk_breaks():
    # asserts vanish under -O; the symmetry check must not
    out = run_optimized_with_broken_bump("t.involution_tableau_pair(involution(2, [(1, 2)]))")
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
    assert CHECK_MESSAGE["unequal"] in out.stderr


@pytest.mark.parametrize("broken", BROKEN_BUMP)
def test_rsk_symmetric_raises_when_optimized_and_rsk_breaks(broken):
    out = run_optimized_with_broken_bump("t.rsk_symmetric({(1, 2), (2, 1)})", broken)
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
    assert CHECK_MESSAGE[broken] in out.stderr


@pytest.mark.parametrize("broken", BROKEN_BUMP)
def test_enumerate_involutions_raises_when_optimized_and_rsk_breaks(broken):
    # the CLI's trusted path keeps both symmetric checks
    call = "main(['enumerate', 'involutions', '--n', '2', '--a', '0'])"
    out = run_optimized_with_broken_bump(call, broken)
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
    assert CHECK_MESSAGE[broken] in out.stderr


def test_tableau_pair_raises_when_optimized_and_fixed_points_stack():
    # no pairs, so only the fixed points reach _bump; stacking 1 over 2 gives
    # the column (1, 1)/(), which is not a horizontal stripe
    out = run_optimized_with_broken_bump("t._tableau_pair(involution(2, []))")
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
    assert "gave (1, 1)/()" in out.stderr


# an _unbump that pops the box and returns it, so every letter is matched with itself
BROKEN_UNBUMP = "t._unbump = lambda rows, r: rows[r].pop()"


@pytest.mark.parametrize(
    "call",
    [
        "t.rsk_symmetric_inverse(((1,), (2,)))",
        "t.candidate_monomial(((1, 2), (3, 4)), t.Stripe((2, 2), (2,)))",
    ],
)
def test_unbump_loop_raises_when_optimized_and_unbump_breaks(call):
    # both maps read the matching through _symmetric_ones, whose check survives -O
    out = run_optimized(BROKEN_UNBUMP, call)
    assert out.returncode != 0
    assert "InvariantError" in out.stderr
    assert "is not symmetric with zero diagonal" in out.stderr


def test_candidate_monomial_values():
    assert candidate_monomial(((1, 2), (3, 4)), Stripe((2, 2), (2,))) == ((3, 4),)
    assert candidate_monomial(((1, 3), (2, 4)), Stripe((2, 2), (2,))) == ((2, 4),)
    assert candidate_monomial(((1, 2, 3, 4),), Stripe((4,), ())) == ()


def test_candidate_monomial_rejects():
    with pytest.raises(DomainViolationError, match=r"^tableau shape \(2,\) is not \(3,\)$"):
        candidate_monomial(((1, 2),), Stripe((3,), (1,)))
    with pytest.raises(DomainViolationError, match="is not a horizontal stripe$"):
        candidate_monomial(((1, 2), (3, 4)), Stripe((2, 2), ()))
    with pytest.raises(DomainViolationError, match=r"^inner shape \(1,\) is not even$"):
        candidate_monomial(((1, 2, 3),), Stripe((3,), (1,)))
    # not standard on their content
    for p, strip in [
        (((2, 1),), Stripe((2,), ())),
        (((1, 2, 4, 3),), Stripe((4,), (2,))),
        (((1, 2), (4, 3)), Stripe((2, 2), (2,))),
    ]:
        message = "^tableau must be standard on its content$"
        with pytest.raises(DomainViolationError, match=message):
            candidate_monomial(p, strip)


def test_candidate_basis_small():
    assert candidate_basis(4, 0) == [(0, ()), (1, ((3, 4),)), (1, ((2, 4),))]
    assert candidate_basis(3, 1) == [(0, ()), (1, ((1, 3),)), (1, ((2, 3),))]


def test_candidate_basis_at_no_fixed_point_is_the_one_fixed_point_basis_shifted():
    # letter 2k is always paired on M(2k, 0), and its candidates never use
    # letter 1: they are those of M(2k - 1, 1) with every letter raised by
    # one, in another order from k = 2 on
    for k in range(1, 7):
        shifted = [
            (d, tuple((i + 1, j + 1) for i, j in monomial))
            for d, monomial in candidate_basis(2 * k - 1, 1)
        ]
        assert Counter(candidate_basis(2 * k, 0)) == Counter(shifted), k


def test_candidate_basis_counts():
    for n in range(1, 7):
        for a in range(n % 2, n + 1, 2):
            basis = candidate_basis(n, a)
            assert len(basis) == count_involutions(n, a)
            degrees = [d for d, _ in basis]
            assert degrees == sorted(degrees)
            assert len(set(basis)) == len(basis)
            for d, pairs in basis:
                assert len(pairs) == d
                letters = [x for pr in pairs for x in pr]
                assert len(set(letters)) == len(letters)
                assert all(1 <= i < j <= n for i, j in pairs)
