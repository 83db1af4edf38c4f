"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q bench/selftest.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_src()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, summarize  # noqa: E402
from alegeo import runner  # noqa: E402


def test_self_time_on_nested_span_tree():
    # a [0,10] has children b [1,4] and c [3,6], which overlap; b has d
    spans = [Span("d", 4, 2, 1.5, 2.0), Span("b", 2, 1, 1.0, 4.0),
             Span("c", 3, 1, 3.0, 6.0), Span("a", 1, 0, 0.0, 10.0),
             Span("b", 5, 0, 11.0, 12.0)]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5, 5: 1.0})
    summary = summarize(spans)
    assert summary["b.calls"] == 2
    assert summary["b.s"] == pytest.approx(4.0)
    assert summary["b.self_s"] == pytest.approx(3.5)
    assert summary["a.self_s"] == pytest.approx(5.0)


def test_forced_nonconvergence_is_one_failed_operation(tmp_path):
    wl = workloads.make("flat_sweep", 0, tmp_path)
    wl.setup()
    wl.config = dataclasses.replace(wl.config, max_iters=1)
    tracer, solves = Tracer(), []
    tracer.install([layers.solve_probe(solves)])
    try:
        outcome = wl.run_pass()
    finally:
        tracer.uninstall()
    tally = workloads.Tally()
    wl.check(outcome, tally)
    workloads.certify(solves, tally)
    assert "NonConvergence" in outcome["error"]
    assert (tally.attempted, tally.failed) == (1, 1)
    assert not tally.correct
    assert solves == []


def test_warm_rerun_hits_the_cache(tmp_path):
    original = runner.run_scenario
    wl = workloads.make("batch_mixed", 0, tmp_path / "work")
    wl.setup()
    tracer = Tracer()
    tracer.install([layers.solve_probe([])] + layers.layer_probes())
    try:
        outcome = wl.run_pass()
    finally:
        tracer.uninstall()
    assert runner.run_scenario is original
    warm_code, warm_summary = outcome["warm"]
    ok = [line for line in warm_summary.decode().splitlines()[1:]
          if ",ok," in line and not line.startswith("uniformity-probe")]
    assert len(ok) == 4
    # the cold run uses --no-cache, so every hit is on the warm re-run
    assert tracer.counters["runner.cache_hits"] == len(ok)
    tally = workloads.Tally()
    wl.check(outcome, tally)
    assert tally.correct
    assert dict(tally.known) == {"n3k2-intersections": 2}
