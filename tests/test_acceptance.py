"""Acceptance suite: nine end-to-end checks, one reported line each.

Each test prints a single `criterion k: PASS/FAIL` line straight to the
terminal (past the capture), so a full run leaves a nine-line scoreboard.
Budgets are wall-clock seconds on an ordinary machine.
"""

from math import factorial
from time import perf_counter

from involution_harmonics.bijections import (
    attach_domino,
    detach_domino,
    first_lowest_point,
)
from involution_harmonics.checks import check_bijections, check_width
from involution_harmonics.frobenius import (
    frobenius_total,
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
    hilbert_series,
)
from involution_harmonics.involutions import involutions
from involution_harmonics.oracle import (
    graded_hilbert,
    oracle_graded_frobenius,
    verify_monomial_basis,
)
from involution_harmonics.partitions import Stripe
from involution_harmonics.schur import qp_at_one, schur_at_one
from involution_harmonics.stripes import matched_pairs, stripe_steps, steps_to_string, width
from involution_harmonics.tableaux import involution_tableau_pair

REFERENCE = Stripe((10, 9, 6, 4, 4, 3), (10, 6, 4, 4, 4, 2))


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


def _valid_params(max_n):
    return [
        (n, a)
        for n in range(1, max_n + 1)
        for a in range(n % 2, n + 1, 2)
    ]


def _time_best_of_five(fn):
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def test_criterion_1_reference_path_pairs_width(capsys):
    def work():
        steps = stripe_steps(REFERENCE)
        assert steps_to_string(steps) == "SSNSNNNNNS"
        assert set(matched_pairs(steps)) == {
            (3, 4), (5, 14), (6, 13), (7, 12), (8, 11), (9, 10)
        }
        assert width(REFERENCE) == 14
    work()
    best = _time_best_of_five(work)
    ok = best < 1e-3
    _report(capsys, 1, ok, f"reference path, pairs and width 14 reproduced in {best * 1e3:.3f} ms")


def test_criterion_2_domino_worked_example(capsys):
    s = Stripe((17, 14, 13, 8, 3, 2), (14, 14, 12, 6, 2))

    def work():
        assert first_lowest_point(s) == 12
        image = detach_domino(s, 57, 9, 24)
        assert image.inner == (14, 14, 10, 6, 2)
        assert attach_domino(image, 57, 9, 24) == s
    work()
    best = _time_best_of_five(work)
    ok = best < 1e-3
    _report(capsys, 2, ok, f"domino detached at x=12 and restored in {best * 1e3:.3f} ms")


def test_criterion_3_three_routes_agree(capsys):
    t0 = perf_counter()
    pairs = _valid_params(16)
    agree = all(
        graded_frobenius_signed(n, a)
        == graded_frobenius_positive(n, a)
        == graded_frobenius_width(n, a)
        for n, a in pairs
    )
    elapsed = perf_counter() - t0
    ok = agree and len(pairs) == 80 and elapsed < 30
    _report(
        capsys, 3, ok,
        f"signed, positive and width routes agree on all {len(pairs)} "
        f"parameter pairs with n <= 16 in {elapsed:.2f}s",
    )


def test_criterion_4_bijection_sweeps(capsys):
    t0 = perf_counter()
    passed, lines = check_bijections(8)
    elapsed = perf_counter() - t0
    ok = passed and elapsed < 60
    _report(
        capsys, 4, ok,
        f"domino and shadow bijections verified exhaustively for n <= 8 "
        f"in {elapsed:.2f}s" + ("" if passed else f"; {lines}"),
    )


def test_criterion_5_oracle_agreement(capsys):
    t0 = perf_counter()
    problems = []
    for n, a in _valid_params(13):
        expansion = graded_frobenius_width(n, a)
        frobenius = oracle_graded_frobenius(n, a, size_cap=13)
        if graded_hilbert(n, a, size_cap=13) != hilbert_series(expansion):
            problems.append(f"hilbert mismatch at {(n, a)}")
        if frobenius != expansion:
            problems.append(f"character mismatch at {(n, a)}")
    elapsed = perf_counter() - t0
    ok = not problems and elapsed < 600
    _report(
        capsys, 5, ok,
        f"exact ranks and characters match the formulas for all (n, a) "
        f"with n <= 13 in {elapsed:.2f}s" + (f"; {problems}" if problems else ""),
    )


def test_criterion_6_monomial_basis(capsys):
    t0 = perf_counter()
    failures = [
        (n, a)
        for n, a in _valid_params(9)
        if verify_monomial_basis(n, a, size_cap=9)["basis_check"] != "PASS"
    ]
    elapsed = perf_counter() - t0
    ok = not failures
    _report(
        capsys, 6, ok,
        f"candidate monomials form a basis for all (n, a) with n <= 9 in {elapsed:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_7_mass_checks(capsys):
    t0 = perf_counter()
    problems = []
    for n, a in _valid_params(8):
        k = (n - a) // 2
        points = factorial(n) // (2**k * factorial(k) * factorial(a))
        expansion = graded_frobenius_width(n, a)
        if qp_at_one(hilbert_series(expansion)) != points:
            problems.append(f"dimension mass at {(n, a)}")
        if schur_at_one(expansion) != schur_at_one(frobenius_total(n, a)):
            problems.append(f"q=1 expansion at {(n, a)}")
    for n, a in _valid_params(6):
        k = (n - a) // 2
        points = factorial(n) // (2**k * factorial(k) * factorial(a))
        if sum(graded_hilbert(n, a)) != points:
            problems.append(f"oracle mass at {(n, a)}")
    elapsed = perf_counter() - t0
    ok = not problems
    _report(
        capsys, 7, ok,
        f"graded dimensions sum to the point count and q=1 matches the "
        f"ungraded product (formulas n <= 8, ranks n <= 6) in {elapsed:.2f}s"
        + (f"; {problems}" if problems else ""),
    )


def test_criterion_8_width_consistency(capsys):
    t0 = perf_counter()
    passed, lines = check_width(12)
    elapsed = perf_counter() - t0
    ok = passed and elapsed < 60
    _report(
        capsys, 8, ok,
        f"matching, prefix-sum and closed-form widths agree on all stripes "
        f"with outer size <= 12 in {elapsed:.2f}s" + ("" if passed else f"; {lines}"),
    )


def test_criterion_9_tableau_pair_bijection(capsys):
    t0 = perf_counter()
    problems = []
    for n, a in _valid_params(8):
        points = involutions(n, a)
        images = {involution_tableau_pair(w) for w in points}
        if len(images) != len(points):
            problems.append(f"images collide at {(n, a)}")
    elapsed = perf_counter() - t0
    ok = not problems
    _report(
        capsys, 9, ok,
        f"the tableau-stripe correspondence is injective with full image "
        f"count for all (n, a) with n <= 8 in {elapsed:.2f}s"
        + (f"; {problems}" if problems else ""),
    )
