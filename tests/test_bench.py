"""The benchmark's workloads, one pass each, with every layer probe.

A probe wraps a name that the program looks up at call time, so a renamed
or removed name breaks the benchmark's run.  This runs each workload of
BENCHMARK.json once, as bench/run.py does, and reads bench/ only.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from alegeo import geodesic, runner  # noqa: E402


@pytest.mark.parametrize("name", ["eh_energy", "batch_mixed"])
def test_workload_pass_is_correct(tmp_path, name):
    bindings = (geodesic.solve_epsilon_geodesic, runner.run_scenario)
    wl = workloads.make(name, 0, tmp_path / "work")
    tracer, solves, tally = Tracer(), [], workloads.Tally()
    tracer.install([layers.solve_probe(solves)] + layers.layer_probes())
    try:
        wl.setup()
        wl.check(wl.run_pass(), tally)
        workloads.certify(solves, tally)
    finally:
        tracer.uninstall()
        wl.cleanup()
    assert (geodesic.solve_epsilon_geodesic, runner.run_scenario) == bindings
    assert tally.correct and tally.failed == 0, dict(tally.failures)
    assert tally.attempted > len(solves) >= 1
    assert tracer.counters["geodesic.solves"] == len(solves)
