"""Record the reference outputs the benchmark checks jobs against.

Usage, from the root of a checkout::

    python3 perfbench/record.py            # rewrites perfbench/reference.json

The reference is cross-checked once, here, before it is written:

- the signed, positive and width routes give the same expansion;
- the oracle gives the width route's expansion and Hilbert series;
- every expansion at q = 1 equals ``frobenius_total``;
- every Hilbert series sums to ``count_involutions``, as does the enumerated
  locus and its width histogram.

Outputs come from ``cli.main``, the same entry point the benchmark drives.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class ReferenceError(Exception):
    """Two routes that must agree do not."""


def _cli_json(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise ReferenceError(f"{' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ReferenceError(what)


def record(workloads: dict[str, list[dict]]) -> dict:
    """Reference content for every job of the given workloads, cross-checked."""
    from involution_harmonics import cli
    from involution_harmonics.frobenius import frobenius_total
    from involution_harmonics.involutions import count_involutions

    oracle_points: dict[str, set[tuple[int, int]]] = {"schur": set(), "hilb": set()}
    needed: dict[str, set[tuple[int, int]]] = {"schur": set(), "hilb": set(),
                                                "involutions": set()}
    for job in (job for grid in workloads.values() for job in grid):
        kind, *params = job["check"]
        if kind == "basis":
            needed["schur"].add(tuple(params))
            needed["hilb"].add(tuple(params))
            oracle_points["schur"].add(tuple(params))
            oracle_points["hilb"].add(tuple(params))
        elif kind in needed:
            needed[kind].add(tuple(params))
            if "oracle" in job["argv"]:
                oracle_points[kind].add(tuple(params))

    reference: dict = {"schur": {}, "hilb": {}, "involutions": {}}
    for n, a in sorted(needed["schur"]):
        base = ["grfrob", "--n", str(n), "--a", str(a), "--format", "json"]
        routes = {m: _cli_json(cli, base + ["--method", m])["terms"] for m in jobs.ROUTES}
        terms = routes["width"]
        _require(all(t == terms for t in routes.values()), f"routes disagree at ({n},{a})")
        if (n, a) in oracle_points["schur"]:
            oracle = _cli_json(cli, base + ["--method", "oracle", "--cap", str(n)])["terms"]
            _require(oracle == terms, f"oracle differs from the width route at ({n},{a})")
        at_one = {tuple(t["partition"]): sum(t["coeffs"]) for t in terms}
        total = {lam: sum(c) for lam, c in frobenius_total(n, a).items() if sum(c)}
        _require(at_one == total, f"q = 1 differs from frobenius_total at ({n},{a})")
        reference["schur"][jobs.key(n, a)] = {
            "sha256": jobs.schur_digest(terms), "terms": len(terms)
        }
    for n, a in sorted(needed["hilb"]):
        base = ["hilb", "--n", str(n), "--a", str(a), "--format", "json"]
        coeffs = _cli_json(cli, base)["coeffs"]
        if (n, a) in oracle_points["hilb"]:
            oracle = _cli_json(cli, base + ["--method", "oracle", "--cap", str(n)])["coeffs"]
            _require(oracle == coeffs, f"oracle Hilbert series differs at ({n},{a})")
        _require(sum(coeffs) == count_involutions(n, a), f"Hilbert sum wrong at ({n},{a})")
        reference["hilb"][jobs.key(n, a)] = coeffs
    for n, a in sorted(needed["involutions"]):
        out = _cli_json(cli, jobs.enumerate_involutions(n, a)["argv"])
        histogram = out["width_histogram"]
        _require(
            out["count"] == count_involutions(n, a) == sum(c for _, c in histogram)
            == len(out["involutions"]),
            f"locus count wrong at ({n},{a})",
        )
        reference["involutions"][jobs.key(n, a)] = {
            "count": out["count"], "width_histogram": histogram
        }
    return reference


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.environ.pop("INVOLUTION_ORACLE_MAX_N", None)
    try:
        reference = record(jobs.WORKLOADS)
    except ReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
