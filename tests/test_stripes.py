"""Paths, matchings, and the width statistic."""

import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from involution_harmonics import checks, cli
from involution_harmonics.bijections import first_lowest_point, last_lowest_point
from involution_harmonics.errors import DomainViolationError
from involution_harmonics.partitions import (
    Stripe,
    conjugate,
    partitions_of,
    stripe_inners,
)
from involution_harmonics.stripes import (
    _row_heights,
    _row_width,
    _stripe_from_columns,
    in_nonnegative_family,
    in_stripe_family,
    in_width_family,
    matched_pairs,
    positive_stripes,
    steps_heights,
    steps_to_string,
    stripe_steps,
    width,
    width_by_matching,
    width_by_prefix_sums,
    width_stripes,
)

from families import (
    _path_width,
    nonnegative_family,
    outer_first_positive_stripes,
    outer_first_width_stripes,
    stripe_family,
    width_family,
)

REFERENCE = Stripe((10, 9, 6, 4, 4, 3), (10, 6, 4, 4, 4, 2))


def stripe_steps_by_columns(s):
    """Reference path: column j ascends when it lost exactly one box to the stripe."""
    oc, ic = conjugate(s.outer), conjugate(s.inner)
    return tuple(
        1 if oc[j] - (ic[j] if j < len(ic) else 0) == 1 else -1 for j in range(len(oc))
    )


def test_reference_path():
    assert steps_to_string(stripe_steps(REFERENCE)) == "SSNSNNNNNS"


def test_reference_matching():
    pairs = matched_pairs(stripe_steps(REFERENCE))
    assert set(pairs) == {(3, 4), (5, 14), (6, 13), (7, 12), (8, 11), (9, 10)}


def test_reference_width():
    steps = stripe_steps(REFERENCE)
    assert width(REFERENCE) == 14
    assert width_by_matching(steps, matched_pairs(steps)) == 14
    assert width_by_prefix_sums(steps) == 14


def test_small_width():
    s = Stripe((4,), (2,))
    assert steps_to_string(stripe_steps(s)) == "SSNN"
    assert width(s) == 6
    assert width(Stripe((2, 2), (2,))) == 4
    assert width(Stripe((), ())) == 0


NOT_HORIZONTAL = [
    Stripe((3, 3), (1,)),  # two boxes in one column
    Stripe((2,), (3,)),  # inner not inside outer
    Stripe((1, 2), ()),  # outer not a partition
    Stripe((0, 0), (0,)),  # zero parts
]


@pytest.mark.parametrize("s", NOT_HORIZONTAL)
def test_width_rejects_a_shape_that_is_not_a_horizontal_stripe(s):
    with pytest.raises(DomainViolationError, match="not a horizontal stripe"):
        width(s)


@pytest.mark.parametrize("s", NOT_HORIZONTAL)
@pytest.mark.parametrize("lowest_point", [first_lowest_point, last_lowest_point])
def test_lowest_points_reject_a_shape_that_is_not_a_horizontal_stripe(lowest_point, s):
    with pytest.raises(DomainViolationError, match="not a horizontal stripe"):
        lowest_point(s)


def steps_from_string(text):
    """Inverse of steps_to_string; the CLI keeps the steps it renders instead."""
    try:
        return tuple({"N": 1, "S": -1}[c] for c in text)
    except KeyError:
        raise ValueError(f"path strings use the alphabet N/S, got {text!r}") from None


def test_steps_string_round_trip():
    for text in ["", "N", "S", "SSNSNNNNNS"]:
        assert steps_to_string(steps_from_string(text)) == text
    with pytest.raises(ValueError):
        steps_from_string("NX")


def test_heights_start_at_zero():
    assert steps_heights(()) == (0,)
    assert steps_heights((1, -1, -1)) == (0, 1, 0, -1)


def all_stripes(max_size):
    for m in range(max_size + 1):
        for outer in partitions_of(m):
            for inner in stripe_inners(outer):
                yield Stripe(outer, inner)


def test_stripe_steps_match_column_counts():
    for s in all_stripes(14):
        assert stripe_steps(s) == stripe_steps_by_columns(s)


def test_matched_pairs_structure():
    for s in all_stripes(9):
        steps = stripe_steps(s)
        pairs = matched_pairs(steps)
        # every ascent is matched, each exactly once, always to a later step
        assert len(pairs) == sum(1 for x in steps if x == 1)
        assert all(i < j for i, j in pairs)
        firsts = [i for i, _ in pairs]
        seconds = [j for _, j in pairs]
        assert len(set(firsts)) == len(firsts)
        assert len(set(seconds)) == len(seconds)
        # matched levels agree: the descent returns to the ascent's start height
        heights = steps_heights(steps)
        for i, j in pairs:
            if j <= len(steps):
                assert heights[j] == heights[i - 1]
                assert steps[j - 1] == -1


def test_width_bounds():
    for s in all_stripes(9):
        w = width(s)
        steps = stripe_steps(s)
        columns = len(steps)
        assert columns <= w <= columns + 2 * (sum(s.outer) - sum(s.inner))
        pairs = matched_pairs(steps)
        assert w == width_by_matching(steps, pairs) == width_by_prefix_sums(steps)


def test_row_statistics_match_the_steps():
    # the closed forms read off the rows against the same forms on the steps
    for s in all_stripes(14):
        steps = stripe_steps(s)
        heights = steps_heights(steps)
        assert _row_heights(s) == (heights[-1], min(heights))
        assert _row_width(s) == _path_width(steps)
        assert (_row_heights(s)[1] >= 0) == (min(heights) >= 0)


def test_stripe_from_columns_reconstructs():
    for s in all_stripes(9):
        steps = stripe_steps(s)
        ascents = {j for j, step in enumerate(steps, 1) if step == 1}
        assert _stripe_from_columns(s.outer, ascents) == s


def stripe_from_columns_by_column_counts(outer, columns):
    """Reference: shorten each chosen column by one box, then transpose back."""
    oc = conjugate(outer)
    cols = set(columns)
    ic = [oc[j] - 1 if j + 1 in cols else oc[j] for j in range(len(oc))]
    if any(ic[j] < ic[j + 1] for j in range(len(ic) - 1)):
        raise DomainViolationError(
            f"columns {sorted(cols)!r} leave no partition shape inside {outer}"
        )
    while ic and ic[-1] == 0:
        ic.pop()
    return Stripe(outer, conjugate(tuple(ic)))


def test_stripe_from_columns_matches_column_counts():
    # every set of columns of every outer shape of at most 11 boxes: same
    # stripe, or the same rejection
    def outcome(build, outer, cols):
        try:
            return build(outer, cols)
        except DomainViolationError as exc:
            return str(exc)

    for m in range(12):
        for outer in partitions_of(m):
            span = range(1, (outer[0] if outer else 0) + 1)
            for k in range(len(span) + 1):
                for cols in map(set, combinations(span, k)):
                    assert outcome(_stripe_from_columns, outer, cols) == outcome(
                        stripe_from_columns_by_column_counts, outer, cols
                    )


def test_stripe_from_columns_rejects():
    with pytest.raises(DomainViolationError):
        _stripe_from_columns((3, 1), {5})
    with pytest.raises(DomainViolationError):
        _stripe_from_columns((2, 2), {1})  # removing column 1 only breaks the shape


# the four stripes of outer size <= 6 whose path is N S N, in enumeration
# order; check_width computes a path's matching and widths once, and a fault
# there must still show on every stripe of the path
BROKEN = Stripe((3, 1), (2,))
ON_BROKEN_PATH = [
    BROKEN,
    Stripe((3, 1, 1), (2, 1)),
    Stripe((3, 2, 1), (2, 2)),
    Stripe((3, 1, 1, 1), (2, 1, 1)),
]


def assert_width_sweep_fails_on(kind, stripes, capsys):
    lines = [f"{kind} on {s}" for s in stripes]
    assert checks.check_width(6) == (False, lines)
    assert cli.main(["check", "width", "--max-n", "6"]) == 1
    assert capsys.readouterr().out.splitlines() == lines + ["FAIL"]


@pytest.mark.parametrize("name", ["_row_width", "width_by_matching", "width_by_prefix_sums"])
def test_check_width_fails_when_one_width_is_off(monkeypatch, capsys, name):
    real = getattr(checks, name)
    # the row form reads the stripe, the other two its steps
    if name == "_row_width":
        target, broken = BROKEN, [BROKEN]
    else:
        target, broken = stripe_steps(BROKEN), ON_BROKEN_PATH

    def off_by_one(arg, *rest):
        return real(arg, *rest) + (arg == target)

    monkeypatch.setattr(checks, name, off_by_one)
    assert_width_sweep_fails_on("width mismatch", broken, capsys)


def test_check_width_fails_when_a_matching_drops_a_pair(monkeypatch, capsys):
    real = checks.matched_pairs

    def first_pair_dropped(steps):
        # N S N matches (1, 2) and (3, 4); without (1, 2) its width is still 4
        pairs = real(steps)
        return pairs[1:] if steps == stripe_steps(BROKEN) else pairs

    monkeypatch.setattr(checks, "matched_pairs", first_pair_dropped)
    assert_width_sweep_fails_on("matching misses ascents", ON_BROKEN_PATH, capsys)


def test_check_width_fails_when_a_reconstruction_is_wrong(monkeypatch, capsys):
    # check_width reads its columns off the steps and rebuilds without validation
    real = checks._stripe_from_columns

    def wrong(outer, columns):
        s = real(outer, columns)
        return Stripe(s.outer, s.outer) if s == BROKEN else s

    monkeypatch.setattr(checks, "_stripe_from_columns", wrong)
    assert_width_sweep_fails_on("column reconstruction fails", [BROKEN], capsys)


@given(st.data())
def test_stripe_from_columns_round_trip_random(data):
    n = data.draw(st.integers(0, 12))
    outer = data.draw(st.sampled_from(partitions_of(n)))
    inner = data.draw(st.sampled_from(list(stripe_inners(outer))))
    s = Stripe(outer, inner)
    steps = stripe_steps(s)
    cols = {j for j, step in enumerate(steps, 1) if step == 1}
    assert _stripe_from_columns(outer, cols) == s


def test_family_predicates():
    assert in_stripe_family(Stripe((4,), ()), 0)
    assert in_stripe_family(Stripe((4,), (2,)), 1)
    assert not in_stripe_family(Stripe((4,), (2,)), 0)
    assert not in_stripe_family(Stripe((4,), (3,)), 1)
    assert not in_stripe_family(Stripe((4,), (4,)), 0)  # size 4 inner needs d=2
    assert in_stripe_family(Stripe((4,), (4,)), 2)
    assert in_nonnegative_family(Stripe((2, 2), (2,)), 1)
    assert in_nonnegative_family(Stripe((2, 1), (2,)), 1)
    assert not in_nonnegative_family(Stripe((4,), (2,)), 1)  # path dips below
    assert not in_nonnegative_family(Stripe((4,), (4,)), 2)  # all-descent path
    assert not in_nonnegative_family(REFERENCE, 15)
    assert in_width_family(Stripe((4,), (2,)), 4, 2, 0)
    assert in_width_family(Stripe((2, 1), (2,)), 3, 1, 1)
    assert not in_width_family(Stripe((4,), (2,)), 4, 2, 1)


def test_width_family_rejects_bad_degree():
    from involution_harmonics.errors import InvalidParametersError

    with pytest.raises(InvalidParametersError):
        in_width_family(Stripe((4,), (2,)), 4, 2, 2)
    with pytest.raises(InvalidParametersError):
        in_width_family(Stripe((4,), (2,)), 4, 1, 0)


def test_families_enumerate_consistently():
    for n in range(1, 8):
        for a in range(n % 2, n + 1, 2):
            for d in range((n - a) // 2 + 1):
                for lam in partitions_of(n):
                    fam = stripe_family(lam, d)
                    assert all(in_stripe_family(s, d) for s in fam)
                    nn = nonnegative_family(lam, d)
                    assert set(nn) == {
                        s for s in fam if in_nonnegative_family(s, d)
                    }
                    wf = width_family(lam, n, a, d)
                    assert all(in_width_family(s, n, a, d) for s in wf)


def valid_params(max_n):
    for n in range(1, max_n + 1):
        for a in range(n % 2, n + 1, 2):
            yield n, a


def test_positive_stripes_match_the_per_shape_reference():
    for n, a in valid_params(18):
        assert list(positive_stripes(n, a)) == outer_first_positive_stripes(n, a)


def test_width_stripes_match_the_per_shape_reference():
    for n, a in valid_params(18):
        assert list(width_stripes(n, a)) == outer_first_width_stripes(n, a)


def test_width_stripes_raise_when_optimized_and_a_width_gives_no_degree():
    # the parity and range check on (n + a - width) / 2 must survive python -O
    code = (
        "import involution_harmonics.stripes as st\n"
        "from involution_harmonics import cli\n"
        "from involution_harmonics.errors import InvariantError\n"
        "from involution_harmonics.frobenius import graded_frobenius_width\n"
        "true_width = st._row_width\n"
        "st._row_width = lambda s: true_width(s) + 1\n"
        "calls = {\n"
        "    'route': lambda: graded_frobenius_width(4, 0),\n"
        "    'generator': lambda: list(st.width_stripes(4, 0)),\n"
        "    'cli': lambda: cli.main(['enumerate', 'stripes', '--n', '4', '--a', '0']),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError:\n"
        "        print(name, 'raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["route raised", "generator raised", "cli raised"]
