"""The probes that define alegeo's layers for the benchmark.

Each probe wraps a public name that alegeo code (or the benchmark) looks up
at call time, so the span sits on the boundary of one module:

    profiles    RadialProfile.tau_of_rho / rho_of_tau
    potentials  RadialPotential.__call__
    geodesic    solve_epsilon_geodesic, reduced_residual
    linalg      scipy's spsolve as alegeo.geodesic calls it
    energy      energy_report, convexity_audit
    analysis    fit_decay_exponent
    toric       IntersectionReport.build, the oracle and wedge integrals
    runner      run_scenario
    cli         the batch command's callback

The solve probe is installed in every run, traced or not: its span marks
each solve, and its report is certified afterwards.  Timed passes also
carry the clock probes, bare spans on the boundaries above.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from alegeo import (analysis, cli, energy, geodesic, potentials, profiles,
                    runner, toric)
from tracing import Probe


def solve_probe(solves: list) -> Probe:
    """Appends (seconds, report, config) to ``solves`` per returned solve."""
    def after(_, args, kwargs, result, seconds):
        if result is None:
            return None
        config = kwargs.get("config", args[3] if len(args) > 3 else None)
        report = result[1]
        solves.append((seconds, report, config))
        iters = list(report.stage_iterations)
        return {"geodesic.solves": 1, "geodesic.stages": len(iters),
                "geodesic.newton_iters": sum(iters)}
    return Probe("geodesic.solve", geodesic, "solve_epsilon_geodesic",
                 after=after)


def _files(out: Path):
    if not out.is_dir():
        return {}
    return {p: (st.st_size, st.st_mtime_ns)
            for p in out.rglob("*") if p.is_file() for st in [p.stat()]}


def _scenario_before(args, kwargs):
    out = Path(args[0].out_dir)
    manifest = out / "manifest.json"
    return out, _files(out), (manifest.read_bytes()
                              if manifest.is_file() else None)


def _scenario_after(token, args, kwargs, result, seconds):
    out, before, manifest = token
    after = _files(out)
    path = out / "manifest.json"
    hit = (result is not None and manifest is not None
           and before.get(path) == after.get(path)
           and path.read_bytes() == manifest)
    written = sum(size for p, (size, stamp) in after.items()
                  if before.get(p) != (size, stamp))
    return {"runner.cache_hits": int(hit), "runner.bytes_written": written}


def clock_probes() -> list:
    """Bare spans, named clock.<layer>, on every layer boundary.

    In the timed passes they only mark time, cutting a pass into short
    stretches of the same work (see run.py); they count nothing.
    """
    return [Probe("clock." + p.name, p.owner, p.attr)
            for p in layer_probes()]


def layer_probes() -> list:
    """Every layer probe except the solve probe."""
    def points(_, args, kwargs, result, seconds):
        return {"profiles.tau_of_rho.points": int(np.size(args[1]))}

    def matrix(_, args, kwargs, result, seconds):
        A = args[0]
        return {"linalg.spsolve.unknowns": int(A.shape[0]),
                "linalg.spsolve.nnz": int(A.nnz)}

    return [
        Probe("profiles.tau_of_rho", profiles.RadialProfile, "tau_of_rho",
              after=points),
        Probe("profiles.rho_of_tau", profiles.RadialProfile, "rho_of_tau"),
        Probe("potentials.eval", potentials.RadialPotential, "__call__"),
        Probe("geodesic.residual", geodesic, "reduced_residual"),
        Probe("linalg.spsolve", geodesic, "spsolve", after=matrix),
        Probe("energy.energy_report", energy, "energy_report"),
        Probe("energy.convexity_audit", energy, "convexity_audit"),
        Probe("analysis.fit_decay", analysis, "fit_decay_exponent"),
        Probe("toric.build", toric.IntersectionReport, "build"),
        Probe("toric.oracle", toric, "representative_integral_oracle"),
        Probe("toric.wedge", toric, "wedge_integral_oracle"),
        Probe("runner.run_scenario", runner, "run_scenario",
              before=_scenario_before, after=_scenario_after),
        Probe("cli.batch", cli.batch_cmd, "callback"),
    ]
