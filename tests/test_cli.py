"""End-to-end command line checks via subprocess."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from involution_harmonics.cli import build_parser, main
from involution_harmonics.frobenius import hilbert_series
from involution_harmonics.involutions import count_involutions
from involution_harmonics.oracle import graded_hilbert


def command(*args):
    return [sys.executable, "-m", "involution_harmonics", *args]


def run(*args):
    return subprocess.run(command(*args), capture_output=True, text=True)


def test_grfrob_json_is_stable_across_methods():
    want = '{"terms":[{"partition":[3],"coeffs":[1]},{"partition":[2,1],"coeffs":[0,1]}]}\n'
    for method in ["signed", "positive", "width", "oracle"]:
        out = run("grfrob", "--n", "3", "--a", "1", "--format", "json", "--method", method)
        assert out.returncode == 0
        assert out.stdout == want


def test_grfrob_text():
    out = run("grfrob", "--n", "3", "--a", "1")
    assert out.returncode == 0
    assert out.stdout == "s[3]: 1\ns[2,1]: q\n"


def test_hilb_formats():
    out = run("hilb", "--n", "4", "--a", "2", "--format", "json")
    assert out.returncode == 0
    assert out.stdout == '{"coeffs":[1,5]}\n'
    out = run("hilb", "--n", "4", "--a", "2")
    assert out.stdout == "1 + 5*q\n"


def test_hilb_oracle_matches_formula_beyond_the_default_cap():
    out = run("hilb", "--n", "7", "--a", "1", "--method", "oracle", "--cap", "7",
              "--format", "json")
    assert out.returncode == 0
    assert out.stdout == '{"coeffs":[1,20,70,14]}\n'


def qp_from_text(text):
    """The coefficients of a q-polynomial in the text format, such as 1 + 20*q + 70*q^2."""
    coeffs = {}
    for term in text.split(" + "):
        c, q, d = re.fullmatch(r"(?:(\d+)\*?)?(q(?:\^(\d+))?)?", term).groups()
        coeffs[int(d or bool(q))] = int(c or 1)
    return tuple(coeffs.get(d, 0) for d in range(max(coeffs) + 1))


def printed_terms(out, fmt):
    """The graded Schur expansion grfrob printed, as {partition: coefficients}."""
    if fmt == "json":
        return {tuple(t["partition"]): tuple(t["coeffs"]) for t in json.loads(out)["terms"]}
    terms = {}
    for line in out.splitlines():
        name, poly = line.split(": ")
        terms[tuple(map(int, name[2:-1].split(",")))] = qp_from_text(poly)
    return terms


def printed_series(out, fmt):
    """The graded dimensions hilb printed, as coefficients."""
    return tuple(json.loads(out)["coeffs"]) if fmt == "json" else qp_from_text(out.strip())


def test_hilb_prints_the_hilbert_series_of_what_grfrob_prints(capsys):
    # in one process: hilb --method formula against grfrob --method width, and
    # the oracle against itself, at every locus with n <= 8, in both formats
    for n in range(1, 9):
        for a in range(n % 2, n + 1, 2):
            locus = ["--n", str(n), "--a", str(a)]
            for fmt in ("text", "json"):
                for grfrob_method, hilb_method, cap in (
                    ("width", "formula", []),
                    ("oracle", "oracle", ["--cap", "8"]),
                ):
                    argv = ["grfrob", *locus, "--method", grfrob_method, "--format", fmt, *cap]
                    assert main(argv) == 0
                    terms = printed_terms(capsys.readouterr().out, fmt)
                    argv = ["hilb", *locus, "--method", hilb_method, "--format", fmt, *cap]
                    assert main(argv) == 0
                    series = printed_series(capsys.readouterr().out, fmt)
                    assert series == hilbert_series(terms), (n, a, fmt, hilb_method)


def test_enumerate_involutions_on_a_locus_past_the_recursion_limit():
    # one point with 1200 fixed letters, more than the default recursion limit
    out = run("enumerate", "involutions", "--n", "1200", "--a", "1200", "--format", "json")
    assert out.returncode == 0
    assert out.stderr == ""
    assert json.loads(out.stdout)["count"] == 1


def test_parameter_errors_exit_2():
    out = run("hilb", "--n", "4", "--a", "3")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    out = run("grfrob", "--n", "0", "--a", "0")
    assert out.returncode == 2
    # an oracle size cap below 1 is a bad parameter, not an exceeded cap
    for args in [
        ("hilb", "--n", "4", "--a", "0", "--method", "oracle", "--cap", "-1"),
        ("grfrob", "--n", "4", "--a", "0", "--method", "oracle", "--cap", "0"),
        ("check", "basis", "--n", "4", "--a", "0", "--cap", "-5"),
        # the formula methods ignore the cap, but still reject a bad one
        ("grfrob", "--n", "3", "--a", "1", "--cap", "-5"),
        ("hilb", "--n", "3", "--a", "1", "--cap", "0"),
    ]:
        out = run(*args)
        assert out.returncode == 2, (args, out.stderr)
        assert out.stderr.startswith("error: the oracle size cap must be at least 1")


def test_size_cap_exit_3():
    out = run("hilb", "--n", "7", "--a", "1", "--method", "oracle")
    assert out.returncode == 3
    assert out.stderr == (
        "error: n=7 exceeds the oracle size cap 6; raise it with --cap or size_cap=\n"
    )


def test_cap_environment_variable_changes_nothing(monkeypatch):
    # the cap comes from --cap or size_cap= alone, so a stray variable of
    # this name, valid or not, changes nothing
    want = graded_hilbert(4, 0)
    for raw in ("0", "abc"):
        monkeypatch.setenv("INVOLUTION_ORACLE_MAX_N", raw)
        assert graded_hilbert(4, 0) == want
        out = run("hilb", "--n", "7", "--a", "1", "--method", "oracle")
        assert out.returncode == 3, out.stderr


def test_check_sweeps_pass():
    for args in [
        ("check", "formulas", "--max-n", "5"),
        ("check", "bijections", "--max-n", "5"),
        ("check", "width", "--max-n", "8"),
    ]:
        out = run(*args)
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.rstrip().endswith("PASS")


def test_check_basis_reports_json():
    out = run("check", "basis", "--n", "4", "--a", "0")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["basis_check"] == "PASS"
    assert report["hilbert"] == [1, 2]
    assert report["profile"] == [1, 2]


def test_enumerate_stripes():
    out = run("enumerate", "stripes", "--n", "4", "--a", "0", "--format", "json")
    assert out.returncode == 0
    assert out.stdout == run("enumerate", "stripes", "--n", "4", "--a", "0",
                             "--format", "json").stdout
    data = json.loads(out.stdout)
    assert data["stripes"] == [
        {"outer": [4], "inner": [4], "path": "SSSS", "width": 4, "degree": 0},
        {"outer": [2, 2], "inner": [2, 2], "path": "SS", "width": 2, "degree": 1},
    ]
    filtered = run("enumerate", "stripes", "--n", "4", "--a", "0", "--d", "1",
                   "--format", "json")
    assert json.loads(filtered.stdout)["stripes"] == data["stripes"][1:]


ASCII_EXAMPLE = """\
[4] / [2]  path=SSNN  width=6  degree=0
  \\  /
   \\/
[3, 1] / [2]  path=NSN  width=4  degree=1
  /\\/
[2, 2] / [2]  path=NN  width=4  degree=1
   /
  /
"""


def test_enumerate_stripes_ascii():
    out = run("enumerate", "stripes", "--n", "4", "--a", "2", "--ascii")
    assert out.returncode == 0
    assert out.stdout == ASCII_EXAMPLE


def readme_examples():
    """(arguments, output) of every `$ invharm` example in README's shell blocks.

    An example's output runs to the next blank line, prompt or fence; an
    example whose output elides lines with `...` is left out.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for command, output in re.findall(
            r"^\$ invharm (.*)\n((?:(?!\$ |\n).*\n)*)", block, re.M
        ):
            if "...\n" not in output:
                examples.append((shlex.split(command, comments=True), output))
    return examples


def test_readme_examples_match_the_command_line():
    examples = readme_examples()
    assert len(examples) == 5
    for args, output in examples:
        out = run(*args)
        assert (out.returncode, out.stdout) == (0, output), args


def test_enumerate_involutions():
    out = run("enumerate", "involutions", "--n", "4", "--a", "2", "--format", "json")
    assert out.returncode == 0
    assert out.stdout == run("enumerate", "involutions", "--n", "4", "--a", "2",
                             "--format", "json").stdout
    data = json.loads(out.stdout)
    assert data["count"] == 6
    assert len(data["involutions"]) == 6
    assert sum(k for _, k in data["width_histogram"]) == 6
    text = run("enumerate", "involutions", "--n", "3", "--a", "1")
    assert text.returncode == 0
    assert text.stdout.rstrip().splitlines()[-1].startswith("count=3")


def test_enumerate_involutions_width_histogram():
    def histogram(n, a):
        out = run("enumerate", "involutions", "--n", str(n), "--a", str(a),
                  "--format", "json")
        assert out.returncode == 0
        return json.loads(out.stdout)["width_histogram"]

    assert histogram(3, 1) == [[2, 1], [3, 2]]
    assert histogram(4, 0) == [[1, 1], [2, 2]]
    for n, a in [(5, 1), (6, 2)]:
        assert sum(k for _, k in histogram(n, a)) == count_involutions(n, a)


def test_a_reader_that_stops_early_ends_the_command_with_141():
    # about 270 kB of text, more than a pipe holds, so the command is still
    # writing when the reader closes its end after the first line
    with subprocess.Popen(
        command("enumerate", "involutions", "--n", "10", "--a", "2"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"pairs=")
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")


def test_a_pipe_closed_before_the_start_ends_the_command_with_141():
    # a short output fails only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            command("grfrob", "--n", "3", "--a", "1"),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, b"")


def test_sweeps_that_would_check_nothing_exit_2():
    for args in [
        ("check", "formulas", "--max-n", "0"),
        ("check", "bijections", "--max-n", "0"),
        ("check", "width", "--max-n", "-3"),
    ]:
        out = run(*args)
        assert out.returncode == 2, args
        assert out.stdout == ""
        assert out.stderr.startswith("error:")


def test_enumerate_stripes_degree_out_of_range_exits_2():
    out = run("enumerate", "stripes", "--n", "4", "--a", "0", "--d", "9")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")


def test_every_size_option_names_its_cap_or_its_growth():
    def size_helps(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from size_helps(sub, f"{command} {name}")
            elif {"--n", "--max-n"} & set(action.option_strings):
                yield command, action.help or ""

    helps = dict(size_helps(build_parser(), "invharm"))
    # grfrob, hilb, three sweeps, check basis and two enumerations
    assert len(helps) == 8
    for command, help_text in helps.items():
        assert "--cap" in help_text or "grows exponentially" in help_text, command
    # only the oracle method is capped; the formula methods are not
    for command in ("invharm grfrob", "invharm hilb"):
        assert "--method oracle" in helps[command], command
        assert "grows exponentially" in helps[command], command


def test_one_parser_carries_no_state_between_calls(monkeypatch, capsys):
    assert build_parser() is build_parser()
    # --help wraps at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        (("grfrob", "--n", "x"), 2),
        (("check", "basis", "--n", "4", "--a", "0", "--cap", "0"), 2),
        (("grfrob", "--n", "7", "--a", "1", "--method", "oracle"), 3),
        (("grfrob", "--help"), 0),
        (("grfrob", "--n", "6", "--a", "2", "--method", "oracle", "--cap", "9",
          "--format", "json"), 0),
    ]
    for args, code in sequence:
        try:
            got = main(list(args))
        except SystemExit as exc:  # argparse rejections and --help
            got = exc.code
        fresh = run(*args)
        assert (got, *capsys.readouterr()) == (code, fresh.stdout, fresh.stderr), args
        assert fresh.returncode == code, args
