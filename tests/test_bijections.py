"""Domino and shadow maps between the stripe families."""

import pytest

from involution_harmonics import checks
from involution_harmonics.bijections import (
    attach_domino,
    detach_domino,
    first_lowest_point,
    last_lowest_point,
    to_nonnegative_stripe,
    to_width_stripe,
)
from involution_harmonics.errors import DomainViolationError, InvalidParametersError
from involution_harmonics.partitions import Stripe, partitions_of
from involution_harmonics.stripes import in_nonnegative_family

from families import nonnegative_family, stripe_family, width_family


def valid_triples(max_n, min_d=0):
    for n in range(1, max_n + 1):
        for a in range(n % 2, n + 1, 2):
            for d in range(min_d, (n - a) // 2 + 1):
                yield n, a, d


def test_detach_worked_example():
    s = Stripe((17, 14, 13, 8, 3, 2), (14, 14, 12, 6, 2))
    assert first_lowest_point(s) == 12
    image = detach_domino(s, 57, 9, 24)
    assert image == Stripe((17, 14, 13, 8, 3, 2), (14, 14, 10, 6, 2))
    assert last_lowest_point(image) == 10
    assert attach_domino(image, 57, 9, 24) == s


def test_detach_small_example():
    # the degree-2 square: the all-descent path loses its last domino
    s = Stripe((2, 2), (2, 2))
    image = detach_domino(s, 4, 0, 2)
    assert image == Stripe((2, 2), (2,))
    assert attach_domino(image, 4, 0, 2) == s


def test_domino_domain_errors():
    with pytest.raises(InvalidParametersError):
        detach_domino(Stripe((2, 2), (2,)), 4, 0, 0)
    with pytest.raises(InvalidParametersError):
        attach_domino(Stripe((4,), ()), 4, 0, 0)
    with pytest.raises(DomainViolationError):
        detach_domino(Stripe((2, 2), (2,)), 4, 0, 1)  # never dips below
    with pytest.raises(DomainViolationError):
        detach_domino(Stripe((4,), (3,)), 5, 1, 1)  # odd inner
    with pytest.raises(DomainViolationError):
        attach_domino(Stripe((6, 2), (6,)), 8, 0, 4)  # lowest point at the very end


def test_domino_maps_are_inverse_bijections():
    for n, a, d in valid_triples(6, min_d=1):
        for lam in partitions_of(n, max_first_part=n - 2 * d + a):
            previous = set(stripe_family(lam, d - 1))
            images = set()
            for s in stripe_family(lam, d):
                if in_nonnegative_family(s, d):
                    continue
                image = detach_domino(s, n, a, d)
                assert attach_domino(image, n, a, d) == s
                assert last_lowest_point(image) == first_lowest_point(s) - 2
                images.add(image)
            assert images == previous


def test_shadow_worked_examples():
    assert to_width_stripe(Stripe((4,), ()), 4, 2, 0) == Stripe((4,), (2,))
    assert to_nonnegative_stripe(Stripe((4,), (2,)), 4, 2, 0) == Stripe((4,), ())
    # fixed points of the correspondence
    assert to_width_stripe(Stripe((2, 1), (2,)), 3, 1, 1) == Stripe((2, 1), (2,))
    assert to_width_stripe(Stripe((3, 1), (2,)), 4, 2, 1) == Stripe((3, 1), (2,))


def test_shadow_domain_errors():
    with pytest.raises(DomainViolationError):
        to_width_stripe(Stripe((4,), (2,)), 4, 0, 1)  # path dips below
    with pytest.raises(DomainViolationError):
        to_nonnegative_stripe(Stripe((4,), (2,)), 4, 2, 1)  # width 6, not 4
    with pytest.raises(InvalidParametersError):
        to_nonnegative_stripe(Stripe((4,), (2,)), 4, 2, 2)  # degree out of range
    with pytest.raises(InvalidParametersError):
        to_width_stripe(Stripe((4,), (2,)), 4, 1, 1)  # parity
    # outer shapes of 2 boxes at n = 1 and n = 3
    with pytest.raises(DomainViolationError, match="not n=1"):
        to_width_stripe(Stripe((2,), ()), 1, 1, 0)
    with pytest.raises(DomainViolationError, match="not n=3"):
        to_nonnegative_stripe(Stripe((2,), (2,)), 3, 1, 1)
    # shapes with a zero part are no partitions, whatever their sizes
    with pytest.raises(DomainViolationError):
        to_nonnegative_stripe(Stripe((2,), (0,)), 2, 2, 0)
    with pytest.raises(DomainViolationError):
        to_width_stripe(Stripe((4, 4), (4, 0)), 8, 0, 2)


def test_shadow_maps_reject_every_outer_size_but_n():
    # a stripe of the right family but the wrong size is a domain error, not a broken identity
    for n, a, d in valid_triples(6):
        for size in range(1, 9):
            if size == n:
                continue
            for lam in partitions_of(size):
                for s in stripe_family(lam, d):
                    for shadow in (to_width_stripe, to_nonnegative_stripe):
                        try:
                            shadow(s, n, a, d)
                        except DomainViolationError:
                            continue
                        pytest.fail(f"{shadow.__name__}({s}, {n}, {a}, {d}) did not raise")


def test_shadow_maps_are_inverse_bijections():
    for n, a, d in valid_triples(6):
        for lam in partitions_of(n, max_first_part=n - 2 * d + a):
            wide = set(width_family(lam, n, a, d))
            images = set()
            for s in nonnegative_family(lam, d):
                image = to_width_stripe(s, n, a, d)
                assert to_nonnegative_stripe(image, n, a, d) == s
                images.add(image)
            assert images == wide


@pytest.mark.parametrize(
    "name, kind, n, a, d, first, second",
    [
        ("to_width_stripe", "width", 4, 2, 1,
         Stripe((3, 1), (2,)), Stripe((2, 2), (2,))),
        ("detach_domino", "domino", 7, 3, 2,
         Stripe((6, 1), (4,)), Stripe((5, 2), (2, 2))),
    ],
)
def test_check_bijections_fails_when_a_map_swaps_two_images(
    monkeypatch, name, kind, n, a, d, first, second
):
    # both stripes lie in the map's domain at (n, a, d), so each wrong image is
    # still a valid input for the inverse map, and only the sweep's comparisons
    # can catch it
    real = getattr(checks, name)
    partner = {first: second, second: first}

    def swapped(s, n_, a_, d_):
        return real(partner.get(s, s) if (n_, a_) == (n, a) else s, n_, a_, d_)

    monkeypatch.setattr(checks, name, swapped)
    ok, lines = checks.check_bijections(n)
    assert ok is False
    for s in (first, second):
        line = f"n={n} a={a}: {kind} maps are not a bijection over {s.outer} at d={d}"
        assert line in lines
    others = [line for line in lines if not line.startswith(f"n={n} a={a}: ")]
    assert others and all("bijections verified" in line for line in others)


@pytest.mark.parametrize(
    "name, kind, n, a, d, moved, onto",
    [
        # two dipping stripes sent to one image, over (6, 1)
        ("detach_domino", "domino", 7, 3, 2,
         Stripe((5, 2), (2, 2)), Stripe((6, 1), (4,))),
        # the image of a stripe over (3, 1) moved onto (2, 2)
        ("to_width_stripe", "width", 4, 2, 1,
         Stripe((3, 1), (2,)), Stripe((2, 2), (2,))),
    ],
)
def test_check_bijections_names_the_shape_an_image_moves_onto(
    monkeypatch, name, kind, n, a, d, moved, onto
):
    # the images over onto.outer are still exactly its target, so only a
    # comparison across shapes sees the repeat there
    real = getattr(checks, name)

    def redirected(s, n_, a_, d_):
        return real(onto if (s, n_, a_) == (moved, n, a) else s, n_, a_, d_)

    monkeypatch.setattr(checks, name, redirected)
    ok, lines = checks.check_bijections(n)
    assert ok is False
    named = [line for line in lines if "not a bijection" in line]
    assert named == [
        f"n={n} a={a}: {kind} maps are not a bijection over {lam} at d={d}"
        for lam in sorted({moved.outer, onto.outer}, reverse=True)
    ]


@pytest.mark.parametrize(
    "n, outer, d, expected",
    [
        # (4,) keeps its family at d = 0: only the domino check at d = 1 sees it
        (4, (4,), 1, "n=4 a=2: domino maps are not a bijection over (4,) at d=1"),
        # (6,) has no family below d = 0: only its width family sees it
        (6, (6,), 0, "n=6 a=0: width maps are not a bijection over (6,) at d=0"),
    ],
)
def test_check_bijections_fails_when_a_family_goes_missing(
    monkeypatch, n, outer, d, expected
):
    # an emptied family maps nothing, so the sweep sees it only as target
    # stripes that no image reaches: one degree lower, or in the width family
    real = checks._stripes_over_even_inners

    def dropped(inner_size, added, max_first_part=None):
        stripes = real(inner_size, added, max_first_part)
        if (inner_size, added) == (2 * d, n - 2 * d):
            stripes = [s for s in stripes if s.outer != outer]
        return stripes

    monkeypatch.setattr(checks, "_stripes_over_even_inners", dropped)
    ok, lines = checks.check_bijections(n)
    assert ok is False
    assert expected in lines
