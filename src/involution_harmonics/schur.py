"""Symmetric functions in the Schur basis with integer q-polynomial coefficients.

A QPoly is a tuple of ints, lowest degree first, no trailing zeros; the zero
polynomial is the empty tuple.  A SchurPoly is a dict mapping partitions to
nonzero QPoly values.  Everything is exact integer arithmetic.

Every sum is built one way: `_add_into` adds into a dict of mutable
coefficient lists in place, and `_frozen` turns it into a SchurPoly once.
"""

from __future__ import annotations

from .errors import InvalidParametersError
from .partitions import Partition, even_partitions_of, horizontal_strips_over

QPoly = tuple[int, ...]
SchurPoly = dict[Partition, QPoly]

QP_ONE: QPoly = (1,)


def qp_normal(coeffs) -> QPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def qp_at_one(f: QPoly) -> int:
    return sum(f)


def _add_into(acc: dict, lam: Partition, coeff, shift: int = 0) -> None:
    """Add q**shift times the sequence coeff to lam's entry, extending its list."""
    row = acc.get(lam)
    if row is None:
        acc[lam] = [0] * shift + list(coeff)
        return
    short = shift + len(coeff) - len(row)
    if short > 0:
        row += [0] * short
    for d, c in enumerate(coeff, shift):
        row[d] += c


def _frozen(acc: dict) -> SchurPoly:
    """The SchurPoly of acc, dropping trailing zeros (in place) and cancelled keys."""
    out: SchurPoly = {}
    for lam, row in acc.items():
        while row and not row[-1]:
            row.pop()
        if row:
            out[lam] = tuple(row)
    return out


def pieri_mult(f: SchurPoly, a: int, max_first_part: int | None = None) -> SchurPoly:
    """Multiply by the degree-a complete homogeneous generator.

    Each Schur term spreads over the outer shapes reached by adding a boxes
    with no two in one column; with a bound, only the terms whose first part
    is at most max_first_part are built.
    """
    if a < 0:
        raise InvalidParametersError(f"degree must be nonnegative, got {a}")
    if max_first_part is not None and max_first_part < 0:
        raise InvalidParametersError(f"bound must be nonnegative, got {max_first_part}")
    acc: dict[Partition, list[int]] = {}
    for mu, coeff in f.items():
        for lam in horizontal_strips_over(mu, a, max_first_part):
            _add_into(acc, lam, coeff)
    return _frozen(acc)


def plethysm_h_h2(d: int) -> SchurPoly:
    """h_d composed with h_2: the multiplicity-free sum of even partitions of 2d."""
    if d < 0:
        raise InvalidParametersError(f"plethysm degree must be nonnegative, got {d}")
    return {lam: QP_ONE for lam in even_partitions_of(2 * d)}


def schur_at_one(f: SchurPoly) -> dict[Partition, int]:
    """Specialize q = 1, dropping terms that cancel."""
    out = {}
    for lam, coeff in f.items():
        value = qp_at_one(coeff)
        if value:
            out[lam] = value
    return out


def is_nonnegative(f: SchurPoly) -> bool:
    return all(c >= 0 for coeff in f.values() for c in coeff)


def schur_terms(f: SchurPoly) -> list[tuple[Partition, QPoly]]:
    """Terms sorted by partition, decreasing lexicographic; the canonical order."""
    return sorted(f.items(), key=lambda kv: kv[0], reverse=True)


def schur_json(f: SchurPoly) -> dict:
    """The JSON form of f: {"terms": [{"partition": [...], "coeffs": [...]}, ...]}."""
    return {
        "terms": [
            {"partition": list(lam), "coeffs": list(coeff)}
            for lam, coeff in schur_terms(f)
        ]
    }
