"""alegeo benchmark: end-to-end and per-layer metrics for three workloads.

BENCHMARK.json lists eh_energy and batch_mixed; flat_sweep is run by hand
(see workloads.py for why).  Run from the root of a checkout (the program
is imported from ./src):

    python3 bench/run.py --workload eh_energy --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all --trace 1      # every workload
    python3 bench/run.py --workload flat_sweep --out parent.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl
    python3 -m pytest -q bench/selftest.py            # harness self-tests

A run repeats one workload pass while another pass still fits in
--seconds.  A shared virtual machine can slow a process down by up to 1.8x
for seconds to minutes at a time (seen on a 2-vCPU Xeon VM), while the
work of a pass is the same every time.  Noise of that kind only ever adds
time, so the least time of repeated identical work is the steadiest
estimate of its cost, the more so the shorter the work.  The timed passes
are therefore cut into short segments at marks: the start and end of each
call across a layer boundary (layers.clock_probes), some 11,000 a pass on
eh_energy, most of them tau_of_rho calls of ~0.1 ms.  A deterministic
program cuts every pass at the same marks, so segment k is the same work
in every pass, and it is taken at its fastest over the passes.  wall_s
is the sum of these fastest segments.  The time of a solve (one
solve_epsilon_geodesic call, certified afterwards) is the sum of the
fastest segments it spans; solve_p50_s and solve_max_s are the
median and the largest over the solves of a pass.  The median pass time
is kept in the record as wall_median_s.  The cut follows the program's own
calls, so a change that removes calls at those boundaries (replacing
spsolve, say) leaves longer segments, which on a contended host read
slower: check such a change against wall_median_s too.

With --trace 0 the end-to-end metrics named in BENCHMARK.json are measured
with only the solve probe and the clock marks installed.  With --trace 1
every second pass runs with a span on every layer boundary (see
layers.py); those passes give the
per-layer metrics (medians over the traced passes), and their fastest wall
time minus that of the untraced passes is the tracing overhead.  setup_s is
the median over SETUP_SAMPLES fresh processes of the time from process
start until the workload's inputs are ready.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
WORKLOADS = ("eh_energy", "flat_sweep", "batch_mixed")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap every BLAS/OpenMP pool at nproc; must run before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            value = int(os.environ[var])
        except (KeyError, ValueError):
            value = limit
        os.environ[var] = str(min(max(value, 1), limit))


def use_checkout_src():
    """Import alegeo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "alegeo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no alegeo sources under {src}")
    sys.path.insert(0, str(src))
    import alegeo
    if Path(alegeo.__file__).resolve().parent != src / "alegeo":
        raise SystemExit(f"bench: alegeo imported from {alegeo.__file__}")


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": nproc(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def median(values):
    """Median; for whole numbers the lower middle one, so counts stay whole."""
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def time_setup(workload, seed):
    """Seconds from spawning a fresh process until it reports inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: setup probe failed ({proc.returncode})")
    return elapsed


def setup_probe(args):
    import workloads
    wl = workloads.make(args.workload, args.seed,
                        ROOT / ".bench_tmp" / f"setup-{os.getpid()}")
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.cleanup()
    return 0


def measure(args, spec):
    """One run of one workload; returns the result record."""
    import layers
    import workloads
    from tracing import Tracer, summarize

    setup = [time_setup(args.workload, args.seed)
             for _ in range(SETUP_SAMPLES)]
    wl = workloads.make(args.workload, args.seed,
                        ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}")
    tracer = Tracer()
    solves = []
    tally = workloads.Tally()
    passes = []
    # number of segments -> (timed passes cut so, fastest time of each
    # segment over them, segment range of each solve)
    cuts = {}
    try:
        wl.setup()
        tracer.install([layers.solve_probe(solves)])
        deadline = time.perf_counter() + args.seconds
        while (len(passes) < 1 + args.trace or time.perf_counter()
               + median([p["wall_s"] for p in passes]) < deadline):
            # traced runs alternate untraced and traced passes, so the
            # overhead compares passes of the same warmth
            traced = bool(args.trace) and len(passes) % 2 == 1
            mark = tracer.install(layers.layer_probes() if traced
                                  else layers.clock_probes())
            marks = len(tracer.spans), len(solves), tracer.counters.copy()
            start = time.perf_counter()
            try:
                outcome = wl.run_pass()
            finally:
                end = time.perf_counter()
                tracer.uninstall(mark)
            spans = tracer.spans[marks[0]:]
            new_solves = solves[marks[1]:]
            layer = summarize(spans) if traced else {}
            layer.update(tracer.counters - marks[2])
            det = wl.check(outcome, tally)
            workloads.certify(new_solves, tally)
            bounds = sorted([start, end]
                            + [t for s in spans for t in (s.start, s.end)])
            passes.append({
                "traced": traced, "wall_s": end - start,
                "extras": {key: outcome[key] for key in wl.extras
                           if key in outcome},
                "solves": [s for s, _, _ in new_solves],
                "layer": layer,
                "deterministic": {
                    "stage_iterations": [list(r.stage_iterations)
                                         for _, r, _ in new_solves],
                    "residual_sup": [r.residual_sup
                                     for _, r, _ in new_solves],
                    **det}})
            if not traced:
                segments = [b - a for a, b in zip(bounds, bounds[1:])]
                n, fastest, _ = cuts.get(len(segments), (0, segments, None))
                cuts[len(segments)] = (
                    n + 1, list(map(min, fastest, segments)),
                    [(bisect.bisect_left(bounds, s.start),
                      bisect.bisect_left(bounds, s.end))
                     for s in spans if s.name == "geodesic.solve"])
                del tracer.spans[marks[0]:]  # kept as fastest segments
    finally:
        tracer.uninstall()
        wl.cleanup()
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    if args.spans:
        with open(args.spans, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    return summarize_run(args, spec, setup, passes, cuts, tally)


def summarize_run(args, spec, setup, passes, cuts, tally):
    import workloads

    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    walls = [p["wall_s"] for p in timed]
    # the program is deterministic, so every pass is cut at the same marks
    # unless one failed part-way; keep the passes cut like most of them
    alike, best, solve_marks = max(cuts.values(), key=lambda c: c[0])
    solves = [sum(best[a:b]) for a, b in solve_marks]
    e2e = {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (sum(best), alike),
        "solve_p50_s": (median(solves), len(solves)),
        "solve_max_s": (max(solves, default=None), len(solves)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    for key in sorted({k for p in timed for k in p["extras"]}):
        e2e[key] = (min(p["extras"][key] for p in timed), len(timed))
    e2e["wall_median_s"] = (median(walls), len(timed))
    layer = {}
    if traced:
        names = sorted({k for p in traced for k in p["layer"]}
                       | {m["name"] for m in spec["per_layer"]})
        layer = {name: median([p["layer"].get(name, 0) for p in traced])
                 for name in names}
        layer["trace.overhead_s"] = (min(p["wall_s"] for p in traced)
                                     - min(walls))
    counts = [{k: v for k, v in p["layer"].items() if isinstance(v, int)}
              for p in traced]
    deterministic = {
        "passes": [p["deterministic"] for p in passes],
        "failed_operations": dict(tally.failures),
        "known_defects": {k: v for k, v in workloads.KNOWN_DEFECTS.items()
                          if k in tally.known},
        "layer_counts": counts[-1] if counts else {},
        "layer_counts_varying": sorted({k for c in counts for k in c
                                        if c.get(k) != counts[0].get(k)}),
    }
    if args.trace:
        values = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
    else:
        values = {m["name"]: e2e[m["name"]][0] for m in spec["end_to_end"]}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise SystemExit(f"bench: no value for {missing}")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(),
        "deterministic": deterministic,
        "timings": {"end_to_end": {k: {"value": v, "n": n}
                                   for k, (v, n) in e2e.items()},
                    "per_layer": layer,
                    "setup_samples_s": setup,
                    "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                                "solves_s": p["solves"], **p["extras"]}
                               for p in passes]},
        "fail_ratio": tally.failed / tally.attempted,
        "result": {"correct": tally.correct, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
    }


def print_report(record, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    res = record["result"]
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} seconds {record['seconds']}")
    for name, m in record["timings"]["end_to_end"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {units.get(name, 's'):<6}"
              f" n={m['n']}")
    print(f"  {'fail_ratio':<34} {record['fail_ratio']:>14.6g} {'ratio':<6}"
          f" failed={res['failed']} attempted={res['attempted']}")
    for name, value in record["timings"]["per_layer"].items():
        unit = units.get(name, "count" if isinstance(value, int) else "s")
        print(f"  {name:<34} {value:>14.6g} {unit}")
    det = json.dumps(record["deterministic"], sort_keys=True)
    print(f"deterministic {det}")


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        status = status or subprocess.run(cmd).returncode
    return status


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's record to this JSONL file")
    p.add_argument("--spans", help="write every span to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two JSONL result sets written with --out")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload or --compare is required")
    return args


def main(argv=None):
    args = parse(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        import compare
        return compare.main(*args.compare, spec)
    cap_threads()
    use_checkout_src()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    record = measure(args, spec)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print_report(record, spec)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
