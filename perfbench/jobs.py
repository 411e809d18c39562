"""Workload grids, the per-job correctness gate, and the benchmark's own combinatorics.

A job is one ``invharm`` argv list plus the check its output must pass.  The
benchmark's own counts (points a sweep must cover, stripes a width sweep must
report, partitions an even-stripe search tests) are computed here with code of
its own, never by calling the package, so that checking and counting leave the
package's caches exactly as the jobs left them.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache

ROUTES = ("signed", "positive", "width")
ORACLE_CAP = "9"


def _locus(n: int, a: int) -> list[str]:
    return ["--n", str(n), "--a", str(a)]


def grfrob(n: int, a: int, method: str) -> dict:
    argv = ["grfrob", *_locus(n, a), "--method", method, "--format", "json"]
    if method == "oracle":
        argv += ["--cap", ORACLE_CAP]
    return {"argv": argv, "check": ["schur", n, a]}


def hilb(n: int, a: int, method: str = "formula") -> dict:
    argv = ["hilb", *_locus(n, a), "--method", method, "--format", "json"]
    if method == "oracle":
        argv += ["--cap", ORACLE_CAP]
    return {"argv": argv, "check": ["hilb", n, a]}


def basis(n: int, a: int) -> dict:
    argv = ["check", "basis", *_locus(n, a), "--cap", ORACLE_CAP]
    return {"argv": argv, "check": ["basis", n, a]}


def sweep(what: str, max_n: int) -> dict:
    return {"argv": ["check", what, "--max-n", str(max_n)], "check": ["sweep", what, max_n]}


def enumerate_involutions(n: int, a: int) -> dict:
    argv = ["enumerate", "involutions", *_locus(n, a), "--format", "json"]
    return {"argv": argv, "check": ["involutions", n, a]}


# Why each grid exists is recorded in BENCHMARK.json; the comments give the layer
# each one loads.
WORKLOADS = {
    # Formula routes on large shapes: even-stripe filtering and Schur accumulation.
    "formulas": [grfrob(n, a, m) for n, a in ((24, 0), (26, 2), (28, 4)) for m in ROUTES]
    + [hilb(28, 0)],
    # Trace-based oracle: no (n, a) repeats, so no job becomes a cache lookup.
    "oracle": [
        grfrob(6, 2, "oracle"),
        grfrob(7, 1, "oracle"),
        basis(8, 0),
        hilb(8, 2, "oracle"),
        hilb(9, 3, "oracle"),
    ],
    # Exhaustive sweeps over many small shapes, bijections and symmetric RSK.
    "sweeps": [
        sweep("formulas", 14),
        sweep("bijections", 14),
        sweep("width", 17),
        enumerate_involutions(12, 0),
    ],
}


def key(n: int, a: int) -> str:
    return f"{n},{a}"


def schur_digest(terms) -> str:
    """Digest of a Schur expansion's content, independent of JSON formatting."""
    canon = json.dumps(terms, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def locus_points(max_n: int) -> set[tuple[int, int]]:
    """Every valid (n, a) with 1 <= n <= max_n."""
    return {(n, a) for n in range(1, max_n + 1) for a in range(n % 2, n + 1, 2)}


def _partitions(m: int, cap: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_count(m: int) -> int:
    """Number of partitions of m (0 for negative m)."""
    if m < 0:
        return 0
    counts = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def stripe_count(max_size: int) -> int:
    """Horizontal stripes whose outer shape has at most max_size boxes.

    Row i of the inner shape can end anywhere from the next outer row's end to
    this row's end, independently, so each outer shape contributes the product
    of (outer[i] - outer[i+1] + 1).
    """
    total = 0
    for m in range(max_size + 1):
        for outer in _partitions(m, m):
            ways = 1
            for i, row in enumerate(outer):
                ways *= row - (outer[i + 1] if i + 1 < len(outer) else 0) + 1
            total += ways
    return total


_VERDICTS = {
    "formulas": re.compile(r"n=(\d+) a=(\d+): three routes agree, \d+ points"),
    "bijections": re.compile(r"n=(\d+) a=(\d+): bijections verified on \d+ stripes"),
}
WIDTH_VERDICT = re.compile(r"(\d+) stripes with outer size <= (-?\d+): widths agree")


def _check_sweep(what: str, max_n: int, lines: list[str]) -> str | None:
    if not lines or lines[-1] != "PASS":
        return "sweep did not end with PASS"
    verdicts = lines[:-1]
    if what == "width":
        expected = stripe_count(max_n)
        match = WIDTH_VERDICT.fullmatch(verdicts[0]) if len(verdicts) == 1 else None
        if match is None or int(match.group(1)) != expected:
            return f"expected one verdict covering {expected} stripes"
        return None if expected else "vacuous sweep: no stripes checked"
    expected_points = locus_points(max_n)
    seen = []
    for line in verdicts:
        match = _VERDICTS[what].fullmatch(line)
        if match is None:
            return f"unexpected line {line!r}"
        seen.append((int(match.group(1)), int(match.group(2))))
    if len(seen) != len(set(seen)) or set(seen) != expected_points:
        return f"verdicts cover {len(set(seen))} points, expected {len(expected_points)}"
    return None if expected_points else "vacuous sweep: no points checked"


def check_job(job: dict, rc, stdout: str, reference: dict) -> str | None:
    """None when the job's exit code and output are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    kind, *params = job["check"]
    if kind == "sweep":
        return _check_sweep(params[0], params[1], stdout.splitlines())
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    try:
        k = key(*params)
        if kind == "schur":
            ok = schur_digest(out["terms"]) == reference["schur"][k]["sha256"]
        elif kind == "hilb":
            ok = out["coeffs"] == reference["hilb"][k]
        elif kind == "basis":
            ok = (
                out["basis_check"] == "PASS"
                and schur_digest(out["frobenius"]) == reference["schur"][k]["sha256"]
                and out["hilbert"] == reference["hilb"][k]
            )
        elif kind == "involutions":
            want = reference["involutions"][k]
            ok = (
                out["count"] == want["count"]
                and out["width_histogram"] == want["width_histogram"]
            )
        else:
            return f"unknown check {kind!r}"
    except (KeyError, TypeError) as exc:
        return f"output or reference lacks {exc}"
    return None if ok else "output differs from the reference"
