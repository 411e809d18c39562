"""Smoke test of the benchmark: ``python -m pytest perfbench`` from the repo root.

One tiny job per entry point goes through the real harness: reference
recording, child processes, the correctness gate and the tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = [
    jobs.grfrob(4, 0, "width"),
    jobs.grfrob(4, 2, "oracle"),
    jobs.hilb(5, 1),
    jobs.hilb(4, 0, "oracle"),
    jobs.basis(4, 0),
    jobs.sweep("formulas", 3),
    jobs.sweep("bijections", 3),
    jobs.sweep("width", 4),
    jobs.enumerate_involutions(4, 0),
]


@pytest.fixture(scope="module")
def reference():
    return record.record({"tiny": TINY})


def declared(section: str) -> set[str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {metric["name"] for metric in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(reference, tmp_path, trace, section):
    result = run.benchmark(TINY, reference, 1, 0, trace, str(tmp_path / "spans.csv"))
    assert result is not None
    assert result["failures"] == [] and result["errors"] == []
    assert set(result["metrics"]) == declared(section)
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= len(TINY) and line["failed"] == 0
    if trace:
        assert result["metrics"]["oracle.rank.columns"]["median"] > 0
        assert (tmp_path / "spans.csv").read_text().startswith("span,job,parent")


def test_every_wrapped_name_is_restored_after_a_traced_run():
    from involution_harmonics import cli

    package = [m for name, m in sys.modules.items()
               if name.startswith("involution_harmonics") and m is not None]
    before = {(m.__name__, k): v for m in package for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for job in TINY:
                cli.main(job["argv"])
    finally:
        tracer.uninstall()
    assert tracer.calls["cli"] == len(TINY) and tracer.calls["partitions"] > 0
    assert tracer.restored()
    after = {(m.__name__, k): v for m in package for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_wrong_reference_is_counted_as_failed(reference):
    wrong = json.loads(json.dumps(reference))
    wrong["hilb"][jobs.key(5, 1)][0] += 1
    bench = run.Run(TINY, wrong, seed=1)
    bench.one_pass()
    assert bench.attempted == len(TINY)
    assert len(bench.failures) == 1 and "hilb --n 5 --a 1" in bench.failures[0]


def test_a_vacuous_sweep_is_a_failure():
    assert jobs.check_job(jobs.sweep("formulas", 0), 0, "PASS\n", {}) is not None
    assert jobs.check_job(jobs.sweep("width", -3), 0,
                          "0 stripes with outer size <= -3: widths agree\nPASS\n", {})
