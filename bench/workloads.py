"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

eh_energy    One Eguchi-Hanson solve at 65x45, eps = 1/8, with tau_power
             data, then energy_report and convexity_audit on the solved
             grid (acceptance criterion 7).  Inverting the profile
             (tau_of_rho, called per point by the tau_power data)
             dominates.  The grid is smaller than the 193x129 of the
             full audit so that a run holds many passes and each sparse
             solve stays short (see run.py); the Newton iterations per
             stage are the same.
flat_sweep   epsilon_sweep on the flat cone for eps = 1 .. 1/64 at 65x65
             (the flat half of criterion 3).  The background is closed
             form, so sparse solves and Jacobian assembly are the work.
             For profile-inversion changes this is the bypass workload.
             It is not in BENCHMARK.json: three quarters of a pass are 144
             sparse solves of ~20 ms each, single calls too long to be
             caught at full speed on a contended host (see run.py), so its
             figures follow the host.
batch_mixed  The CLI batch command, in-process with its default thread
             count: a cold run with --no-cache, a warm re-run of the same
             manifest that reads the cache, then the criterion-6 oracle
             table.  The only workload that runs runner, cli and toric.
             Its EH scenarios solve at 33x33 (65x65 in the full criterion
             runs) so that its sparse solves stay short as well.

Seed 0 gives exactly the inputs above.  Any other seed scales each
boundary amplitude by a factor in [0.95, 1.05] and shifts each decay rate
gamma by at most 0.05, well inside what solve_epsilon_geodesic accepts.
The ranges are narrow because the Newton count follows the data: the
flat sweep takes 165 iterations at gamma = 3.9 and 176 at 4.1, but 172
or 176 anywhere in these ranges, so the work of a pass changes by under
3% from seed to seed.  The program only ever sees the generated inputs.

Every check counts one operation in a Tally.  A failed operation whose
name is in KNOWN_DEFECTS is a recorded seed defect: it counts as failed
but does not make the run incorrect.  Any other failure does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from alegeo import cli, energy, geodesic, potentials, profiles, toric

# Scenario id -> why it fails at the seed.  Fixing the program is a later
# change; until then the scenario stays in the manifest and counts as failed.
KNOWN_DEFECTS = {
    "n3k2-intersections": (
        "ProfileError: runner._run_analyses always builds the LeBrun "
        "profile, which exists only for n=2, although intersections-only "
        "scenarios need no profile"),
}

SOLVE_ERRORS = (geodesic.GeodesicError, energy.OffShellError,
                energy.MixedBackgroundError)


class Tally:
    """Attempted operations and failures (name -> count) of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures[what] += 1
        return bool(ok)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def known(self):
        return {w: n for w, n in self.failures.items() if w in KNOWN_DEFECTS}

    @property
    def correct(self):
        return all(w in KNOWN_DEFECTS for w in self.failures)


def certify(solves, tally):
    """One operation per returned solve: residual within tol, C^0 sandwich."""
    for _, report, config in solves:
        tally.check(report.residual_sup <= config.newton_tol
                    and report.c0_check.passed, "solve certificate")


def _boundary_data(rng, seed, amplitude, gamma):
    if seed == 0:
        return amplitude, gamma
    return (amplitude * rng.uniform(0.95, 1.05),
            gamma + rng.uniform(-0.05, 0.05))


class EhEnergy:
    name = "eh_energy"
    extras = ("energy_s",)
    EPSILON = 0.125

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.amplitude, self.gamma = _boundary_data(rng, seed, 0.1, 4.0)

    def setup(self):
        self.profile = profiles.lebrun_profile(2, 1.0)
        rho_min = float(self.profile.rho_of_tau(1.0 + 1e-4))
        self.psi0 = potentials.zero_potential()
        self.psi1 = potentials.tau_power_potential(self.profile,
                                                   self.amplitude, self.gamma)
        self.config = geodesic.SolverConfig(
            epsilon=self.EPSILON, n_rho=65, n_t=45, rho_min=rho_min,
            rho_max=rho_min + 12.0, newton_tol=1e-9)

    def run_pass(self):
        try:
            grid, _ = geodesic.solve_epsilon_geodesic(
                self.profile, self.psi0, self.psi1, self.config)
            start = time.perf_counter()
            rep = energy.energy_report(grid, self.EPSILON)
            audit = energy.convexity_audit([grid], [self.EPSILON])
        except SOLVE_ERRORS as exc:
            return {"error": f"{self.name}: {type(exc).__name__}: {exc}"}
        return {"energy_s": time.perf_counter() - start, "report": rep,
                "audit": audit}

    def check(self, outcome, tally):
        if "error" in outcome:
            tally.check(False, outcome["error"])
            return {"error": outcome["error"]}
        rep, audit = outcome["report"], outcome["audit"]
        assembled = rep.lich_term + rep.ricci_term + rep.grad_term
        gap = float(np.max(np.abs(rep.d2K_dt2_formula - assembled)))
        agreement = float(rep.fd_agreement())
        min_d2 = rep.min_second_derivative()
        tally.check(gap <= 1e-10, "energy identity gap")
        tally.check(agreement < 0.01, "energy fd agreement")
        tally.check(min_d2 >= -1e-6, "energy convexity")
        tally.check(audit["passed"], "convexity audit")
        return {"identity_gap": gap, "fd_agreement": agreement,
                "min_d2K": min_d2, "audit_passed": bool(audit["passed"])}

    def cleanup(self):
        pass


class FlatSweep:
    name = "flat_sweep"
    extras = ()
    EPSILONS = [2.0 ** -m for m in range(7)]

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.amplitude, self.gamma = _boundary_data(rng, seed, 0.1, 4.0)

    def setup(self):
        self.profile = profiles.flat_profile()
        self.psi0 = potentials.zero_potential()
        self.psi1 = potentials.exp_decay_potential(self.amplitude, self.gamma)
        self.config = geodesic.SolverConfig(epsilon=min(self.EPSILONS))

    def run_pass(self):
        try:
            return {"sweep": geodesic.epsilon_sweep(
                self.profile, self.psi0, self.psi1, self.EPSILONS,
                self.config)}
        except SOLVE_ERRORS as exc:
            return {"error": f"{self.name}: {type(exc).__name__}: {exc}"}

    def check(self, outcome, tally):
        if "error" in outcome:
            tally.check(False, outcome["error"])
            return {"error": outcome["error"]}
        sd = outcome["sweep"]["max_second_derivative"]
        tally.check(max(sd) <= 2.0 * statistics.median(sd),
                    "uniformity probe")
        return {"max_second_derivative": sd,
                "cauchy": outcome["sweep"]["cauchy"]}

    def cleanup(self):
        pass


def _run_cli(args):
    """Invoke the alegeo CLI in this process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="alegeo",
                          standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


def _expected_exit(rows):
    failures = sum(1 for row in rows if row["passed"] != "True")
    if failures == 0:
        return 0
    return 4 if failures < len(rows) else 3


class BatchMixed:
    name = "batch_mixed"
    extras = ("rerun_s",)
    ORACLE_CASES = [(n, k) for n in (2, 3) for k in (1, 2, 3)]

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.eh_data = _boundary_data(rng, seed, 0.1, 4.0)
        self.burns_data = _boundary_data(rng, seed, 0.08, 4.0)
        self.workdir = Path(workdir)
        self.passes = 0

    def scenarios(self, rho_ref):
        amp, gamma = self.eh_data
        eh = {"geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
              "boundary": {"psi1": {"kind": "exp", "params": {
                  "amplitude": amp, "gamma": gamma, "rho_ref": rho_ref}}},
              "analyses": ["c0_check", "decay"]}
        amp, gamma = self.burns_data
        return [
            {"id": "eh33-eps0.25", **eh,
             "solver": {"epsilon": 0.25, "grid": {"n_rho": 33, "n_t": 33}}},
            {"id": "eh33-eps0.125", **eh,
             "solver": {"epsilon": 0.125, "grid": {"n_rho": 33, "n_t": 33}}},
            {"id": "burns33",
             "geometry": {"form": "lebrun", "n": 2, "k": 1, "tau_min": 1.0},
             "boundary": {"psi1": {"kind": "tau_power", "params": {
                 "amplitude": amp, "gamma": gamma}}},
             "solver": {"epsilon": 0.25, "grid": {"n_rho": 33, "n_t": 33}},
             "analyses": ["c0_check", "decay"]},
            {"id": "n2k3-intersections", "geometry": {"n": 2, "k": 3},
             "analyses": ["intersections"]},
            {"id": "n3k2-intersections", "geometry": {"n": 3, "k": 2},
             "analyses": ["intersections"]},
        ]

    def setup(self):
        # the EH scenarios anchor their data at the solver's inner edge
        rho_ref = float(profiles.lebrun_profile(2, 1.0).rho_of_tau(2.0))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manifest = self.workdir / "manifest.json"
        self.manifest.write_text(json.dumps(
            {"scenarios": self.scenarios(rho_ref)}, indent=2) + "\n")

    def run_pass(self):
        self.passes += 1
        out = self.workdir / f"pass{self.passes}"
        batch = ["batch", "--config", str(self.manifest), "--out", str(out)]
        summary = out / "summary.csv"
        cold_exit = _run_cli(batch + ["--no-cache"])
        cold = summary.read_bytes() if summary.is_file() else b""
        start = time.perf_counter()
        warm_exit = _run_cli(batch)
        rerun_s = time.perf_counter() - start
        warm = summary.read_bytes() if summary.is_file() else b""
        table = [toric.IntersectionReport.build(n, k, with_oracle=True)
                 for n, k in self.ORACLE_CASES]
        return {"rerun_s": rerun_s, "out": out, "cold": (cold_exit, cold),
                "warm": (warm_exit, warm), "table": table}

    def check(self, outcome, tally):
        shutil.rmtree(outcome["out"], ignore_errors=True)
        det = {}
        for label in ("cold", "warm"):
            code, text = outcome[label]
            rows = list(csv.DictReader(io.StringIO(text.decode())))
            tally.check(bool(rows), f"{label} summary.csv written")
            for row in rows:
                tally.check(row["passed"] == "True", row["id"])
            tally.check(code == _expected_exit(rows), f"{label} exit code")
            det[label] = {"exit_code": code, "rows": [
                [row["id"], row["status"], row["passed"]] for row in rows]}
        tally.check(outcome["cold"][1] == outcome["warm"][1],
                    "summary.csv identical on the warm re-run")
        det["oracle"] = {}
        for rep in outcome["table"]:
            n, k = rep.n, rep.k
            pairing = Fraction(n - k) ** (n - 1)
            exact = {"d0_power": Fraction(-k) ** (n - 1),
                     "d0_power_df": Fraction(-k) ** (n - 2),
                     "restricted_d0": Fraction(-k) ** (n - 1)}
            values = [rep.oracle[w]["value"] for w in exact]
            ok = (rep.certificate["d0_ricci"] == pairing
                  and rep.certificate["df_ricci"] == -pairing / k
                  and all(rep.table[w] == exact[w]
                          for w in ("d0_power", "d0_power_df"))
                  and all(abs(v - float(t)) <= 0.01 * abs(float(t))
                          for v, t in zip(values, exact.values())))
            tally.check(ok, f"oracle n={n} k={k}")
            det["oracle"][f"n{n}k{k}"] = values
        return det

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name, seed, workdir):
    cls = {c.name: c for c in (EhEnergy, FlatSweep, BatchMixed)}[name]
    return cls(seed, workdir)
