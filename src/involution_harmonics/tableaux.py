"""Symmetric RSK on partial involutions, its inverse, and the candidate monomial basis.

Tableaux are tuples of tuples of ints, rows weakly increasing left to right,
columns strictly increasing top to bottom.  Schensted insertion (`_bump`) and
reverse insertion (`_unbump`) work in place on mutable list rows inside this
module; the public functions take and return tuples of tuples.  The one
correspondence is symmetric RSK on partial fixed-point-free involutions, with
one loop each way, each behind one validating public map.  The insertion loop
`_symmetric_tableau` (`rsk_symmetric`) inserts each matched letter's partner
in increasing order and records the letter, so the insertion and recording
tableaux coincide and the shape has even columns.  The unbump loop
`_symmetric_ones` (`rsk_symmetric_inverse`, and `candidate_monomial` after it
pushes out its strip) unbumps a standard tableau's rows, largest entry first.

The rows stay lists from the first insertion or unbump to the last check.
Those checks raise InvariantError when a result breaks an identity these maps
rely on, also under python -O.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from .errors import DomainViolationError, InvariantError, _is_int
from .involutions import Involution, involution
from .partitions import Partition, Stripe, _interlaces, is_even_partition
from .stripes import horizontal_stripe, positive_stripes

Rows = tuple[tuple[int, ...], ...]


def shape(t: Rows) -> Partition:
    return tuple(len(row) for row in t)


def is_standard_on_content(t: Rows) -> bool:
    """Distinct int entries (not bools), rows non-empty, rows and columns strictly increasing."""
    if not all(t):
        return False
    entries = [x for row in t for x in row]
    if not all(map(_is_int, entries)) or len(set(entries)) != len(entries):
        return False
    for row in t:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for i in range(1, len(t)):
        if len(t[i]) > len(t[i - 1]):
            return False
        if any(t[i - 1][j] >= t[i][j] for j in range(len(t[i]))):
            return False
    return True


def _bump(rows: list[list[int]], value: int) -> int:
    """Schensted row insertion into mutable rows, in place; returns the row that grew."""
    for r, row in enumerate(rows):
        k = bisect_right(row, value)
        if k == len(row):
            row.append(value)
            return r
        row[k], value = value, row[k]
    rows.append([value])
    return len(rows) - 1


def _unbump(rows: list[list[int]], r: int) -> int:
    """Reverse insertion from the end of row r, in place; returns the value bumped out.

    The box must be a removable corner.  Raises DomainViolationError when a
    column does not strictly increase, so that no entry above can take the
    value back.
    """
    if r + 1 < len(rows) and len(rows[r + 1]) >= len(rows[r]):
        raise DomainViolationError(f"row {r} has no removable corner")
    v = rows[r].pop()
    for i in range(r - 1, -1, -1):
        row = rows[i]
        k = bisect_left(row, v) - 1  # rightmost entry strictly below v
        if k < 0:
            raise DomainViolationError(f"row {i} has no entry below {v}: not a tableau")
        row[k], v = v, row[k]
    if not rows[-1]:
        rows.pop()
    return v


def rsk_symmetric(matrix) -> Rows:
    """Insertion tableau of a partial fixed-point-free involution.

    The involution is given as `rsk_symmetric_inverse` returns it: the set of
    1-based one-positions of a symmetric 0/1 zero-diagonal matrix with at most
    one one per row.  The recording tableau always equals the insertion
    tableau here, and the zero diagonal forces every column length of the
    shape to be even.
    """
    if not isinstance(matrix, (set, frozenset)):
        raise DomainViolationError(
            f"matrix must be the set of its 1-based one-positions, not {type(matrix).__name__}"
        )
    for c in matrix:
        if not (isinstance(c, tuple) and len(c) == 2 and all(type(x) is int and x > 0 for x in c)):
            raise DomainViolationError("positions must be pairs of positive integers")
    if any(i == j for i, j in matrix):
        raise DomainViolationError("diagonal must be zero")
    if any((j, i) not in matrix for i, j in matrix):
        raise DomainViolationError("matrix must be symmetric")
    partner = dict(matrix)
    if len(partner) < len(matrix):
        letter = next(i for i, j in matrix if partner[i] != j)
        raise DomainViolationError(f"letter {letter} is matched twice")
    return tuple(map(tuple, _symmetric_tableau(partner)))


def _symmetric_tableau(partner: dict[int, int]) -> list[list[int]]:
    """rsk_symmetric on the word of a partial involution: letter -> partner.

    The unmatched letters are left out of the dict, so its size does not
    grow with the largest letter.  Row-inserts partner[t] for each matched
    letter t in increasing order and records t in the row that grew.
    Returns the insertion rows as lists, for the caller to convert or extend.
    """
    p: list[list[int]] = []
    q: list[list[int]] = []
    for t in sorted(partner):
        r = _bump(p, partner[t])
        if r == len(q):
            q.append([])
        q[r].append(t)
    if p != q:
        raise InvariantError(f"partial involution gave insertion {p}, recording {q}")
    lengths = tuple(map(len, p))
    # every column is even exactly when the rows come in equal pairs
    if lengths[::2] != lengths[1::2]:
        raise InvariantError(f"partial involution gave odd-column shape {lengths}")
    return p


def rsk_symmetric_inverse(p: Rows) -> frozenset[tuple[int, int]]:
    """The unique symmetric 0/1 zero-diagonal matrix whose tableau is p.

    Returned as the set of 1-based one-positions.  Raises DomainViolationError
    when some column length of the shape is odd (no zero-diagonal preimage
    exists).
    """
    if not is_standard_on_content(p):
        raise DomainViolationError("tableau must be standard on its content")
    lengths = shape(p)
    # every column is even exactly when the rows come in equal pairs
    if lengths[::2] != lengths[1::2]:
        raise DomainViolationError(f"shape {lengths} has an odd column")
    return _symmetric_ones([list(row) for row in p])


def _symmetric_ones(rows: list[list[int]]) -> frozenset[tuple[int, int]]:
    """rsk_symmetric_inverse on standard rows with even columns, emptied in place.

    The rows are their own recording tableau: the largest entry x ends a row,
    and unbumping that row gives the letter matched with x.
    """
    row_of = {x: r for r, row in enumerate(rows) for x in row}
    ones = frozenset((x, _unbump(rows, row_of[x])) for x in sorted(row_of, reverse=True))
    if any(i == j or (j, i) not in ones for i, j in ones):
        raise InvariantError(f"preimage {sorted(ones)} is not symmetric with zero diagonal")
    return ones


def involution_tableau_pair(w: Involution) -> tuple[Rows, Stripe]:
    """Insert the matched pairs symmetrically, then the fixed points on top.

    Returns the full tableau and the horizontal stripe its shape forms over
    the shape of the pairs-only tableau.
    """
    rows, s = _tableau_pair(involution(w.n, w.pairs, w.fixed))
    return tuple(map(tuple, rows)), s


def _tableau_pair(w: Involution) -> tuple[list[list[int]], Stripe]:
    """involution_tableau_pair on an involution in involution()'s normal form.

    The points of involutions() are built in that form and are not rebuilt.
    Returns the rows as lists; the symmetric and stripe checks still run.  Both
    shapes are lengths of non-empty rows, so the stripe check is the row
    interlacing alone.
    """
    partner = {}
    for i, j in w.pairs:
        partner[i], partner[j] = j, i
    rows = _symmetric_tableau(partner)
    nu = tuple(map(len, rows))
    for v in w.fixed:
        _bump(rows, v)
    lam = tuple(map(len, rows))
    if not _interlaces(lam, nu):
        raise InvariantError(f"inserting the fixed points of {w} gave {lam}/{nu}")
    return rows, Stripe(lam, nu)


@cache
def standard_tableaux(p: Partition) -> tuple[Rows, ...]:
    """All standard fillings of the shape, deterministic order.

    Built level by level from the one empty filling: entry x extends every
    filling of 1 .. x-1 at the end of each row with room for it, shorter than
    its row of p and than the row above, first row first.  The fillings come
    lexicographic in the rows that hold 1, 2, ...; no recursion, and no level
    holds more fillings than the last, since every partial filling completes.

    The cache is unbounded: it keeps the fillings of every shape asked for,
    syt_count(p) of them each, for the life of the process.
    """
    level: list[Rows] = [((),) * len(p)]
    for x in range(1, sum(p) + 1):
        level = [
            t[:i] + (t[i] + (x,),) + t[i + 1 :]
            for t in level
            for i, row in enumerate(t)
            if len(row) < p[i] and (i == 0 or len(row) < len(t[i - 1]))
        ]
    return tuple(level)


def candidate_monomial(p: Rows, strip: Stripe) -> tuple[tuple[int, int], ...]:
    """The matching monomial attached to a standard tableau and an index stripe.

    The domain: p is standard on its content, of shape strip.outer, and strip
    is a horizontal stripe with an even inner shape.  Pushes the strip out of
    p, rightmost column first: row 0's boxes lie right of row 1's, and so on,
    so each is a corner in its turn.  Transposes the remainder, whose shape
    then has even columns, and reads the matched pairs off its symmetric
    preimage: a sorted tuple of disjoint (i, j), i < j, one per degree.
    """
    strip = horizontal_stripe(strip)
    if shape(p) != strip.outer:
        raise DomainViolationError(f"tableau shape {shape(p)} is not {strip.outer}")
    if not is_even_partition(strip.inner):
        raise DomainViolationError(f"inner shape {strip.inner} is not even")
    if not is_standard_on_content(p):
        raise DomainViolationError("tableau must be standard on its content")
    rows = [list(row) for row in p]
    inner = strip.inner + (0,) * (len(strip.outer) - len(strip.inner))
    for r, row_len in enumerate(strip.outer):
        for _ in range(row_len - inner[r]):
            _unbump(rows, r)
    width = len(rows[0]) if rows else 0
    columns = [[row[c] for row in rows if c < len(row)] for c in range(width)]
    # one pair per letter, symmetric with zero diagonal: a matching
    return tuple(sorted((i, j) for i, j in _symmetric_ones(columns) if i < j))


def candidate_basis(n: int, a: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every (degree, monomial) the stripe indexing produces, ascending degree.

    The order is that of positive_stripes(n, a), which yields the degrees in
    ascending order, and within a stripe that of standard_tableaux.
    """
    return [
        (d, candidate_monomial(p, s))
        for s, d in positive_stripes(n, a)
        for p in standard_tableaux(s.outer)
    ]
