"""One pass of a workload in a fresh interpreter: ``python3 child.py ROOT``.

The child imports ``involution_harmonics`` from ``ROOT/src``, prints ``ready``,
then reads one JSON object from stdin: ``{"jobs": [argv, ...], "trace": bool,
"spans": path or null}``.  It runs the jobs back to back through
``cli.main(argv)``, capturing each job's output, and prints one JSON line with
the outputs, the timings of the job phase (import excluded), and, when traced,
the per-layer totals.  Spans are written to the given path after the last job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_job(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv by exiting
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails this job, not the pass
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def write_spans(path: str, tracer, origin: float) -> None:
    with open(path, "w") as fh:
        fh.write("span,job,parent,function,start_s,end_s\n")
        for span_id, (job, parent, index, start, end) in enumerate(tracer.spans):
            fh.write(
                f"{span_id},{job},{parent},{tracer.functions[index]},"
                f"{start - origin:.9f},{end - origin:.9f}\n"
            )


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    from involution_harmonics import cli

    print("ready", flush=True)
    spec = json.loads(sys.stdin.read())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for index, argv in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, argv))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    report = {
        "jobs": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = {
            layer: {"calls": tracer.calls[layer], "self_s": tracer.self_s[layer]}
            for layer in tracer.calls
        }
        report["counters"] = tracer.counters()
        report["absent_layers"] = tracer.absent_layers()
        report["missing"] = tracer.missing
        report["restored"] = tracer.restored()
        if spec["spans"]:
            write_spans(spec["spans"], tracer, wall0)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
