"""Benchmark of the ``invharm`` entry points; stdlib only.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs back to back (a closed loop, one thread,
one child process at a time).  Each pass of the job grid runs in a fresh child
interpreter, so the package's module caches start empty as they do for every
CLI call; the seed sets the job order of each pass.  The passes are
preceded by a discarded warm-up child, so bytecode compilation stays out of
``setup_s``.  Passes repeat while the next one is predicted to end within
``--seconds``, and at least twice.

``--trace 0`` reports the end-to-end metrics, each the median over the passes
(``setup_s`` also over extra children that only import the package).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py), with ``trace_overhead``, the
traced ``wall_s`` over the untraced one, minus one.

Every job's output is checked (jobs.py); a failed job is counted, never
skipped.  Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with every sample, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import jobs
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD = os.path.join(HERE, "child.py")

SETUP_ONLY_CHILDREN = 15
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever a child does
SIZE_CAP_ENV = "INVOLUTION_ORACLE_MAX_N"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_job_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: ("ratio" if name.endswith(("_ratio", "_yield")) else "count")
       for name in Tracer().counters()},
    "trace_overhead": "ratio",
    "failed_share": "ratio",
}


class Run:
    """The passes of one benchmark run, with their samples and failures."""

    def __init__(self, workload: list[dict], reference: dict, seed: int):
        self.workload = workload
        self.reference = reference
        self.order = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed job
        self.errors: list[str] = []  # faults of the harness itself
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.samples: dict[str, list[float]] = {}
        self.job_seconds: dict[str, list[float]] = {}  # argv -> seconds, untraced passes

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def spawn(self, argvs: list[list[str]], trace: bool = False, spans: str | None = None):
        """Start a child, time its set-up, and return (setup_s, report or None)."""
        # The oracle cap comes only from --cap.  Bytecode is cached under out/,
        # so the warm-up child's compilation is reused and src/ stays clean.
        env = {k: v for k, v in os.environ.items()
               if k not in (SIZE_CAP_ENV, "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
        spec = json.dumps({"jobs": argvs, "trace": trace, "spans": spans})
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, ROOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(
                spec, timeout=max(1.0, self.hard_deadline - time.perf_counter())
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None
        if ready.strip() != "ready" or proc.returncode != 0:
            return None, None
        return setup, json.loads(out)

    def one_pass(self, trace: bool = False, spans: str | None = None):
        """Run the jobs once in a fresh child; check every output."""
        order = self.order.sample(self.workload, len(self.workload))
        setup, report = self.spawn([job["argv"] for job in order], trace, spans)
        self.attempted += len(order)
        if report is None:
            self.failures += [f"{' '.join(job['argv'])}: child failed" for job in order]
            return None, None
        for job, result in zip(order, report["jobs"]):
            argv = " ".join(job["argv"])
            reason = jobs.check_job(job, result["rc"], result["stdout"], self.reference)
            if reason:
                self.failures.append(f"{argv}: {reason}")
            if not trace:
                self.job_seconds.setdefault(argv, []).append(result["seconds"])
        report["max_job_s"] = max(result["seconds"] for result in report["jobs"])
        return setup, report

    def warm_up(self) -> None:
        """A discarded child that only imports the package, so that bytecode
        compilation and a cold file cache stay out of ``setup_s``.  The job phase
        of a pass does no I/O, so a warm-up needs to run no jobs."""
        self.spawn([])

    def passes(self, seconds: float, minimum: int):
        """Yield pass numbers while another pass is predicted to end within
        ``seconds``, and at least ``minimum`` times."""
        start = time.perf_counter()
        count = 0
        while True:
            elapsed = time.perf_counter() - start
            predicted = elapsed + elapsed / count if count else 0.0
            if count >= minimum and predicted > seconds:
                return
            if time.perf_counter() > self.hard_deadline:
                return
            yield count
            count += 1

    def measure(self, seconds: float) -> None:
        """End-to-end samples: set-up-only children, then timed passes."""
        self.warm_up()
        for _ in range(SETUP_ONLY_CHILDREN):
            setup, _ = self.spawn([])
            if setup is not None:
                self.add("setup_s", setup)
        for _ in self.passes(seconds, minimum=2):
            setup, report = self.one_pass()
            if report is None:
                continue
            self.add("setup_s", setup)
            for metric in ("wall_s", "cpu_s", "max_job_s", "peak_rss_mib"):
                self.add(metric, report[metric])

    def measure_layers(self, seconds: float, spans_path: str) -> list[str]:
        """Per-layer samples from traced passes, alternating with untraced ones.

        Spans of the last traced pass are written to ``spans_path``."""
        self.warm_up()
        untraced, traced, notes = [], [], []
        for number in self.passes(seconds, minimum=2):
            trace = number % 2 == 1
            _, report = self.one_pass(trace, spans_path if trace else None)
            if report is None:
                continue
            (traced if trace else untraced).append(report["wall_s"])
            if not trace:
                continue
            if not report["restored"]:
                self.errors.append("tracer left a wrapped name in place")
            notes += [f"absent layer {layer}" for layer in report["absent_layers"]]
            notes += [f"missing function {name}" for name in report["missing"]]
            for layer, row in report["layers"].items():
                self.add(f"{layer}.calls", row["calls"])
                self.add(f"{layer}.self_s", row["self_s"])
            for name, value in report["counters"].items():
                self.add(name, value)
        if untraced and traced:
            self.add("trace_overhead", statistics.median(traced) / statistics.median(untraced) - 1)
        return sorted(set(notes))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def commit() -> str:
    """HEAD of the checkout's own git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def benchmark(grid, reference, seed, seconds, trace, spans_path) -> dict | None:
    """Measure one run of the grid; None when no pass completed."""
    run = Run(grid, reference, seed)
    notes: list[str] = []
    if trace:
        notes = run.measure_layers(seconds, spans_path)
        run.add("failed_share", len(run.failures) / run.attempted)
        declared = PER_LAYER
    else:
        run.measure(seconds)
        declared = END_TO_END
    if not all(name in run.samples for name in declared):
        for failure in run.failures + run.errors:
            print(f"error: {failure}", file=sys.stderr)
        return None
    return {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "errors": run.errors,
        "notes": notes,
        "job_seconds": run.job_seconds,
        "metrics": {
            name: {"unit": unit, **summarize(run.samples[name]), "samples": run.samples[name]}
            for name, unit in declared.items()
        },
    }


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": not (record["failures"] or record["errors"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "involution_harmonics", "cli.py")):
        print("error: no src/involution_harmonics in this checkout", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = benchmark(jobs.WORKLOADS[args.workload], reference, args.seed,
                       args.seconds, args.trace, stem + "-spans.csv")
    if record is None:
        print("error: no pass completed; nothing was measured", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        **record,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={record[k]}" for k in
                   ("workload", "seed", "trace", "python", "commit", "nproc")))
    print(f"jobs attempted={record['attempted']} failed={record['failed']}")
    for line in record["failures"] + record["errors"] + record["notes"]:
        print(f"  {line}")
    for name, m in record["metrics"].items():
        print(f"{name:34} {m['unit']:6} n={m['n']:<3} median={m['median']:.6g} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
