"""Command line interface.

Exit codes: 0 success (or check passed), 1 check failed, 2 usage error
(including invalid parameter combinations), 3 size cap exceeded, 141 standard
output closed by its reader before the command finished writing (the status a
shell reports for a process killed by SIGPIPE), with nothing on stderr.

JSON output is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .checks import check_bijections, check_formulas, check_width
from .errors import (
    InvalidParametersError,
    ResourceLimitError,
    check_degree_params,
    check_locus_params,
)
from .frobenius import (
    graded_frobenius_positive,
    graded_frobenius_signed,
    graded_frobenius_width,
    hilbert_series,
)
from .involutions import involutions
from .oracle import (
    graded_hilbert,
    oracle_graded_frobenius,
    oracle_size_cap,
    verify_monomial_basis,
)
from .schur import SchurPoly, schur_json, schur_terms
from .stripes import (
    _row_width,
    steps_heights,
    steps_to_string,
    stripe_steps,
    width_stripes,
)
from .tableaux import _tableau_pair


_UNCAPPED = "no size cap: the cost grows exponentially in n"
_CAPPED = "at most --cap, else exit 3"
_ORACLE_CAPPED = f"with --method oracle, {_CAPPED}; the other methods have {_UNCAPPED}"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _qp_text(coeff) -> str:
    parts = []
    for d, c in enumerate(coeff):
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
            continue
        power = "q" if d == 1 else f"q^{d}"
        parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts) if parts else "0"


def _print_schur(f: SchurPoly, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(schur_json(f)))
        return
    for lam, coeff in schur_terms(f):
        name = "s[" + ",".join(map(str, lam)) + "]"
        print(f"{name}: {_qp_text(coeff)}")


def _ascii_path(steps) -> list[str]:
    heights = steps_heights(steps)
    lines = []
    for level in range(max(heights), min(heights), -1):
        row = []
        for j, step in enumerate(steps):
            if step == 1 and heights[j] == level - 1:
                row.append("/")
            elif step == -1 and heights[j] == level:
                row.append("\\")
            else:
                row.append(" ")
        lines.append("".join(row).rstrip())
    return lines


def _cmd_grfrob(args) -> int:
    routes = {
        "signed": graded_frobenius_signed,
        "positive": graded_frobenius_positive,
        "width": graded_frobenius_width,
    }
    if args.method == "oracle":
        f = oracle_graded_frobenius(args.n, args.a, size_cap=args.cap)
    else:
        f = routes[args.method](args.n, args.a)
    _print_schur(f, args.format)
    return 0


def _cmd_hilb(args) -> int:
    if args.method == "oracle":
        coeffs = graded_hilbert(args.n, args.a, size_cap=args.cap)
    else:
        coeffs = hilbert_series(graded_frobenius_width(args.n, args.a))
    if args.format == "json":
        print(_dumps({"coeffs": list(coeffs)}))
    else:
        print(_qp_text(coeffs))
    return 0


def _cmd_check_sweep(args) -> int:
    ok, lines = args.sweep(args.max_n)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_check_basis(args) -> int:
    report = verify_monomial_basis(args.n, args.a, size_cap=args.cap)
    print(_dumps(report))
    return 0 if report["basis_check"] == "PASS" else 1


def _cmd_enumerate_stripes(args) -> int:
    n, a = args.n, args.a
    if args.d is not None:
        check_degree_params(n, a, args.d)
    rows, paths = [], []
    for s, degree in width_stripes(n, a):
        if args.d is not None and degree != args.d:
            continue
        paths.append(stripe_steps(s))
        rows.append(
            {
                "outer": list(s.outer),
                "inner": list(s.inner),
                "path": steps_to_string(paths[-1]),
                "width": n + a - 2 * degree,
                "degree": degree,
            }
        )
    if args.format == "json":
        print(_dumps({"n": n, "a": a, "stripes": rows}))
        return 0
    for row, steps in zip(rows, paths):
        print(
            f"{row['outer']} / {row['inner']}  path={row['path']}  "
            f"width={row['width']}  degree={row['degree']}"
        )
        if args.ascii:
            for line in _ascii_path(steps):
                print("  " + line)
    return 0


def _cmd_enumerate_involutions(args) -> int:
    check_locus_params(args.n, args.a)
    rows = []
    histogram: dict[int, int] = {}
    for w in involutions(args.n, args.a):
        _, s = _tableau_pair(w)
        image_width = _row_width(s)
        histogram[image_width] = histogram.get(image_width, 0) + 1
        rows.append(
            {
                "pairs": w.pairs,
                "fixed": w.fixed,
                "image_width": image_width,
            }
        )
    if args.format == "json":
        print(
            _dumps(
                {
                    "n": args.n,
                    "a": args.a,
                    "count": len(rows),
                    "width_histogram": [
                        [k, histogram[k]] for k in sorted(histogram)
                    ],
                    "involutions": rows,
                }
            )
        )
        return 0
    for row in rows:
        pairs = " ".join(f"({i},{j})" for i, j in row["pairs"]) or "-"
        fixed = ",".join(map(str, row["fixed"])) or "-"
        print(f"pairs={pairs}  fixed={fixed}  image_width={row['image_width']}")
    print(f"count={len(rows)}  width_histogram={sorted(histogram.items())}")
    return 0


def _add_locus_args(parser, capped: str | None = None) -> None:
    """--n and --a; given the help text of a capped --n, --cap too."""
    parser.add_argument("--n", type=int, required=True, help=capped or _UNCAPPED)
    parser.add_argument("--a", type=int, required=True)
    if capped:
        parser.add_argument(
            "--cap",
            type=int,
            default=None,
            help="size cap for brute-force computations, at least 1 (default 6)",
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call, once per process.

    `parse_args` returns a new Namespace on every call, so no state carries
    from one call of `main` to the next.
    """
    parser = argparse.ArgumentParser(
        prog="invharm",
        description="Graded characters of involution matrix loci, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grfrob = sub.add_parser("grfrob", help="graded Schur expansion of the locus")
    _add_locus_args(grfrob, _ORACLE_CAPPED)
    grfrob.add_argument(
        "--method",
        choices=["signed", "positive", "width", "oracle"],
        default="width",
    )
    grfrob.add_argument("--format", choices=["text", "json"], default="text")
    grfrob.set_defaults(func=_cmd_grfrob)

    hilb = sub.add_parser("hilb", help="graded dimension series of the locus")
    _add_locus_args(hilb, _ORACLE_CAPPED)
    hilb.add_argument("--method", choices=["formula", "oracle"], default="formula")
    hilb.add_argument("--format", choices=["text", "json"], default="text")
    hilb.set_defaults(func=_cmd_hilb)

    check = sub.add_parser("check", help="run a verification sweep")
    check_sub = check.add_subparsers(dest="what", required=True)
    for name, sweep, default, summary in (
        ("formulas", check_formulas, 8, "three formula routes agree"),
        ("bijections", check_bijections, 8, "stripe bijections invert"),
        ("width", check_width, 12, "width computations agree on stripes of size <= n"),
    ):
        sweep_parser = check_sub.add_parser(name, help=summary)
        sweep_parser.add_argument(
            "--max-n", type=int, default=default, help=f"largest n swept; {_UNCAPPED}"
        )
        sweep_parser.set_defaults(func=_cmd_check_sweep, sweep=sweep)
    basis = check_sub.add_parser("basis", help="candidate monomials form a basis")
    _add_locus_args(basis, _CAPPED)
    basis.set_defaults(func=_cmd_check_basis)

    enum = sub.add_parser("enumerate", help="list stripes or involutions")
    enum_sub = enum.add_subparsers(dest="what", required=True)
    stripes = enum_sub.add_parser("stripes", help="stripes with even inner of size n-a")
    _add_locus_args(stripes)
    stripes.add_argument("--d", type=int, default=None, help="filter by degree")
    stripes.add_argument("--format", choices=["text", "json"], default="text")
    stripes.add_argument("--ascii", action="store_true", help="draw each path")
    stripes.set_defaults(func=_cmd_enumerate_stripes)
    involutions_cmd = enum_sub.add_parser(
        "involutions", help="the locus, with each point's image width"
    )
    _add_locus_args(involutions_cmd)
    involutions_cmd.add_argument("--format", choices=["text", "json"], default="text")
    involutions_cmd.set_defaults(func=_cmd_enumerate_involutions)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a bad --cap is rejected whatever the method, not only by the oracle
        if getattr(args, "cap", None) is not None:
            oracle_size_cap(args.cap)
        code = args.func(args)
        # a short output is written only here, so a closed pipe shows here too
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: point stdout at the
        # null device first, as the docs of the signal module advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InvalidParametersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
