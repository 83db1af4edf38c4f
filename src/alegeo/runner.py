"""Scenario orchestration, persistence, and reproducibility plumbing.

A Scenario bundles geometry, boundary data, solver settings and the list
of analyses to run; run_scenario executes it and writes diff-able JSON
reports plus CSV curves into the scenario's output directory.  Outputs
are cached by a content hash over the canonicalized scenario document
(sort_keys JSON) and the package version, so re-running an unchanged
scenario with the same code is a no-op unless no_cache is set or an
artifact of the cached run has gone missing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import fit_decay_exponent
from .energy import MixedBackgroundError, energy_report
from .geodesic import (GeodesicError, PathGrid, SolverConfig,
                       _max_second_derivative, solve_epsilon_geodesic)
from .potentials import potential_from_json
from .profiles import (flat_profile, lebrun_profile, profile_from_json,
                       ricci_sign_scan)
from .toric import MAX_ORACLE_ERROR, IntersectionReport

__all__ = ["Scenario", "RunManifest", "ScenarioError", "run_scenario",
           "batch", "canonical_hash"]

KNOWN_ANALYSES = ("c0_check", "decay", "energy", "intersections")


class ScenarioError(ValueError):
    """Invalid scenario configuration; the message names the field."""


def canonical_hash(doc) -> str:
    """sha256 of the canonical JSON encoding (stable under key order)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Scenario:
    id: str
    geometry: dict
    boundary: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    analyses: tuple = ()
    out_dir: str = "."

    @classmethod
    def from_dict(cls, doc) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        sid = doc.get("id")
        if not sid or not isinstance(sid, str):
            raise ScenarioError("id must be a nonempty string")
        geom = doc.get("geometry")
        if not isinstance(geom, dict):
            raise ScenarioError("geometry must be an object")
        form = geom.get("form", "lebrun")
        if form not in ("lebrun", "flat"):
            raise ScenarioError(f"geometry.form must be lebrun or flat, "
                                f"got {form!r}")
        n = geom.get("n", 2)
        if not (isinstance(n, int) and n >= 2):
            raise ScenarioError(f"geometry.n must be an integer >= 2, got {n}")
        k = geom.get("k", 1)
        if not (isinstance(k, int) and k >= 1):
            raise ScenarioError(f"geometry.k must be an integer >= 1, got {k}")
        if form == "lebrun" and not geom.get("tau_min", 1.0) > 0:
            raise ScenarioError("geometry.tau_min must be > 0 for the "
                                "lebrun form")
        analyses = tuple(doc.get("analyses", ()))
        for a in analyses:
            if a not in KNOWN_ANALYSES:
                raise ScenarioError(f"analyses entry {a!r} unknown; expected "
                                    f"one of {KNOWN_ANALYSES}")
        solver = doc.get("solver", {})
        needs_solve = bool(set(analyses) & {"c0_check", "decay", "energy"})
        if needs_solve and "epsilon" not in solver:
            raise ScenarioError("solver.epsilon is required for path "
                                "analyses")
        return cls(id=sid, geometry=dict(geom),
                   boundary=dict(doc.get("boundary", {})),
                   solver=dict(solver), analyses=analyses,
                   out_dir=doc.get("out_dir", "."))

    def content_hash(self) -> str:
        doc = {"version": __version__, "id": self.id,
               "geometry": self.geometry,
               "boundary": self.boundary, "solver": self.solver,
               "analyses": list(self.analyses)}
        return canonical_hash(doc)

    def build_profile(self):
        geom = self.geometry
        if geom.get("form", "lebrun") == "flat":
            return flat_profile(n=geom.get("n", 2), k=geom.get("k", 1))
        if "profile" in geom:
            return profile_from_json(geom["profile"])
        return lebrun_profile(geom.get("k", 1), geom.get("tau_min", 1.0),
                              n=geom.get("n", 2))

    def build_potentials(self, profile):
        zero = {"kind": "zero", "params": {}}
        psi0 = potential_from_json(self.boundary.get("psi0", zero), profile)
        psi1 = potential_from_json(self.boundary.get("psi1", zero), profile)
        return psi0, psi1

    def build_config(self) -> SolverConfig:
        s = self.solver
        grid = s.get("grid", {})
        tol = s.get("tolerances", {})
        return SolverConfig(
            epsilon=s["epsilon"],
            upsilon_mode=s.get("upsilon_mode", "constant"),
            n_rho=grid.get("n_rho", 65),
            n_t=grid.get("n_t", 65),
            rho_min=grid.get("rho_min"),
            rho_max=grid.get("rho_max"),
            newton_tol=tol.get("newton_tol", 1e-11),
            max_iters=tol.get("max_iters", 60),
            schedule_ratio=s.get("schedule", {}).get("ratio", 0.5),
        )


@dataclass
class RunManifest:
    version: str
    scenario_id: str
    scenario_hash: str
    inputs: dict
    artifacts: dict
    checks: dict
    status: str = "ok"
    error: str = None
    # wall times and library versions vary between runs and hosts; kept
    # apart from the results so two manifests diff directly
    timings: dict = field(default_factory=dict)

    @property
    def passed(self):
        return (self.status == "ok"
                and all(c.get("passed", False) for c in self.checks.values()))

    def to_json_dict(self):
        doc = asdict(self)
        doc["passed"] = self.passed
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        doc = {key: doc[key] for key in
               ("version", "scenario_id", "scenario_hash", "inputs",
                "artifacts", "checks", "status", "error", "timings")}
        return cls(**doc)


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_grid_csv(path: Path, grid: PathGrid):
    rho = np.repeat(grid.rho_nodes, grid.t_nodes.size)
    t = np.tile(grid.t_nodes, grid.rho_nodes.size)
    data = np.column_stack([rho, t, grid.phi.ravel()])
    np.savetxt(path, data, delimiter=",", header="rho,t,phi", comments="")


def _grid_meta(grid: PathGrid, profile, psi0, psi1):
    return {"profile": profile.to_json_dict(),
            "psi0": psi0.to_json_dict(), "psi1": psi1.to_json_dict(),
            "epsilon": grid.epsilon, "upsilon_mode": grid.upsilon_mode,
            "n_rho": int(grid.rho_nodes.size), "n_t": int(grid.t_nodes.size)}


def load_grid_csv(csv_path, meta_path=None) -> PathGrid:
    """Rebuild a PathGrid from grid.csv plus its .meta.json sidecar."""
    csv_path = Path(csv_path)
    if meta_path is None:
        meta_path = csv_path.with_suffix(".meta.json")
    meta = json.loads(Path(meta_path).read_text())
    profile = profile_from_json(meta["profile"])
    psi0 = potential_from_json(meta["psi0"], profile)
    psi1 = potential_from_json(meta["psi1"], profile)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    n_rho, n_t = meta["n_rho"], meta["n_t"]
    rho = data[::n_t, 0]
    t = data[:n_t, 1]
    phi = data[:, 2].reshape(n_rho, n_t)
    return PathGrid(rho_nodes=rho, t_nodes=t, phi=phi, psi0=psi0, psi1=psi1,
                    background=profile, epsilon=meta["epsilon"],
                    upsilon_mode=meta["upsilon_mode"])


def energy_csv_rows(rep):
    """Rows (t, K, dK, d2K_formula, d2K_fd, lich, ricci, grad); NaN pads
    the endpoint t nodes where second derivatives are interior-only."""
    m = rep.t_samples.size
    pad = lambda arr: np.concatenate([[np.nan], arr, [np.nan]])
    return np.column_stack([
        rep.t_samples, rep.K_values, rep.dK_dt,
        pad(rep.d2K_dt2_formula), pad(rep.d2K_dt2_fd),
        pad(rep.lich_term), pad(rep.ricci_term), pad(rep.grad_term),
    ]).reshape(m, 8)


ENERGY_CSV_HEADER = "t,K,dK,d2K_formula,d2K_fd,lich,ricci,grad"


def _energy_check(grid, epsilon, out, artifacts):
    rep = energy_report(grid, epsilon)
    np.savetxt(out / "energy.csv", energy_csv_rows(rep), delimiter=",",
               header=ENERGY_CSV_HEADER, comments="")
    artifacts["energy_csv"] = str(out / "energy.csv")
    identity = float(np.max(np.abs(
        rep.d2K_dt2_formula - (rep.lich_term + rep.ricci_term
                               + rep.grad_term))))
    agreement = rep.fd_agreement()
    scan = ricci_sign_scan(grid.background)
    convex_applies = scan.classification in ("zero", "negative-semidefinite")
    min_d2 = rep.min_second_derivative()
    passed = identity <= 1e-10 and agreement < 0.01
    if convex_applies:
        passed = passed and min_d2 >= -1e-6
    details = {"identity_gap": identity, "fd_agreement": agreement,
               "min_d2K": min_d2, "ricci_classification": scan.classification,
               "convexity_applicable": convex_applies}
    doc = {"checks": details}
    doc["K_endpoints"] = [float(rep.K_values[0]), float(rep.K_values[-1])]
    _write_json(out / "energy.json", doc)
    artifacts["energy_json"] = str(out / "energy.json")
    return {"passed": bool(passed), "details": details}


def _decay_check(grid, psi1, artifacts):
    # spatial decay of phi toward its far-field constant at each t
    c = grid.phi[-1:, :]
    dev = np.max(np.abs(grid.phi - c), axis=1)
    r = np.exp(grid.rho_nodes / 2.0)
    fit = fit_decay_exponent(r, dev)
    gamma = psi1.r_decay
    passed = bool(fit.below_floor
                  or gamma is None
                  or fit.exponent <= -gamma + 0.3)
    return {"passed": passed,
            "details": {"exponent": fit.exponent, "residual": fit.residual,
                        "below_floor": fit.below_floor,
                        "data_decay": gamma}}


def run_scenario(scenario: Scenario, no_cache: bool = False) -> RunManifest:
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    shash = scenario.content_hash()

    if not no_cache and manifest_path.exists():
        try:
            cached = RunManifest.from_json_dict(
                json.loads(manifest_path.read_text()))
            if (cached.scenario_hash == shash and cached.status == "ok"
                    and all(Path(p).exists()
                            for p in cached.artifacts.values())):
                return cached
        except (KeyError, json.JSONDecodeError):
            pass

    inputs = {"geometry": scenario.geometry, "boundary": scenario.boundary,
              "solver": scenario.solver, "analyses": list(scenario.analyses)}
    manifest = RunManifest(version=__version__, scenario_id=scenario.id,
                           scenario_hash=shash, inputs=inputs,
                           artifacts={}, checks={},
                           timings={"versions": {"alegeo": __version__,
                                                 "numpy": np.__version__,
                                                 "scipy": scipy.__version__}})
    try:
        _run_analyses(scenario, out, manifest)
    except (GeodesicError, MixedBackgroundError, ValueError) as exc:
        manifest.status = "error"
        manifest.error = f"scenario {scenario.id}: {exc}"
        _write_json(manifest_path, manifest.to_json_dict())
        raise
    _write_json(manifest_path, manifest.to_json_dict())
    return manifest


def _run_analyses(scenario, out, manifest):
    analyses = scenario.analyses or ("c0_check",)
    needs_solve = bool(set(analyses) & {"c0_check", "decay", "energy"})

    if needs_solve:
        profile = scenario.build_profile()
        psi0, psi1 = scenario.build_potentials(profile)
        cfg = scenario.build_config()
        grid, report = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
        manifest.timings["solve_wall_time"] = report.wall_time
        _write_grid_csv(out / "grid.csv", grid)
        _write_json(out / "grid.meta.json",
                    _grid_meta(grid, profile, psi0, psi1))
        solve_details = {
            "residual_sup": report.residual_sup,
            "max_second_derivative": _max_second_derivative(grid),
            "upsilon_range": list(report.upsilon_range),
        }
        if psi0.is_zero and psi1.is_zero:
            t = grid.t_nodes[None, :]
            exact = cfg.epsilon * t * (t - 1.0) / 2.0
            solve_details["exact_deviation"] = float(
                np.max(np.abs(grid.phi - exact)))
        manifest.artifacts["grid_csv"] = str(out / "grid.csv")
        manifest.artifacts["grid_meta"] = str(out / "grid.meta.json")
        manifest.checks["solve"] = {
            "passed": report.residual_sup <= cfg.newton_tol,
            "details": solve_details}
        _write_json(out / "report.json", {
            "residual_sup": report.residual_sup,
            "residual_raw_sup": report.residual_raw_sup,
            "stage_iterations": report.stage_iterations,
            "stage_factorizations": report.stage_factorizations,
            "c0_passed": report.c0_check.passed,
            "positivity_margins": report.positivity_margins,
        })
        manifest.artifacts["report_json"] = str(out / "report.json")

        if "c0_check" in analyses:
            manifest.checks["c0_check"] = {
                "passed": report.c0_check.passed,
                "details": {"min_slack": report.c0_check.min_slack}}
        if "decay" in analyses:
            manifest.checks["decay"] = _decay_check(grid, psi1,
                                                    manifest.artifacts)
        if "energy" in analyses:
            manifest.checks["energy"] = _energy_check(
                grid, cfg.epsilon, out, manifest.artifacts)

    if "intersections" in analyses:
        geom = scenario.geometry
        rep = IntersectionReport.build(geom.get("n", 2), geom.get("k", 1),
                                       with_oracle=True)
        doc = rep.to_json_dict()
        _write_json(out / "intersect.json", doc)
        manifest.artifacts["intersect_json"] = str(out / "intersect.json")
        cert_ok = (doc["certificate"]["opposite_signs"]
                   == (geom.get("k", 1) != geom.get("n", 2)))
        # the oracle bounds its own error estimate, so only the exact table
        # can tell a wrong value; rho0^{n-1} over the zero section is D0^n
        exact = dict(rep.table, restricted_d0=rep.table["d0_power"])
        oracle_ok = all(
            abs(entry["value"] - exact[which])
            <= MAX_ORACLE_ERROR * abs(exact[which])
            for which, entry in rep.oracle.items())
        manifest.checks["intersections"] = {
            "passed": bool(cert_ok and oracle_ok),
            "details": {"certificate_consistent": cert_ok,
                        "oracle_matches_table": oracle_ok}}


def _sweep_groups(scenarios):
    """Group scenario ids that differ only in solver.epsilon.

    A group keeps one id per epsilon (the first in id order) and counts as
    a sweep only with at least two distinct epsilons.
    """
    groups = {}
    for s in sorted(scenarios, key=lambda s: s.id):
        solver = {key: val for key, val in s.solver.items()
                  if key != "epsilon"}
        key = canonical_hash({"geometry": s.geometry,
                              "boundary": s.boundary, "solver": solver,
                              "analyses": list(s.analyses)})
        groups.setdefault(key, {}).setdefault(s.solver.get("epsilon"), s.id)
    return [list(by_eps.values()) for by_eps in groups.values()
            if len(by_eps) >= 2]


def batch(scenarios, no_cache: bool = False):
    """Run scenarios in order, aggregate by scenario id.

    Returns (rows, manifests): summary rows sorted by id, with an extra
    uniformity-probe row per epsilon-sweep group, plus the manifests of
    the scenarios that ran.  Failures are isolated per scenario.
    """
    results = {}
    for s in scenarios:
        try:
            results[s.id] = run_scenario(s, no_cache=no_cache)
        except Exception as exc:  # isolation: failures become summary rows
            results[s.id] = RunManifest(
                version=__version__, scenario_id=s.id,
                scenario_hash=s.content_hash(), inputs={}, artifacts={},
                checks={}, status="error", error=str(exc))

    rows = []
    for sid in sorted(results):
        m = results[sid]
        failed = sum(1 for c in m.checks.values() if not c.get("passed"))
        rows.append({"id": sid, "hash": m.scenario_hash, "status": m.status,
                     "checks": len(m.checks), "failed_checks": failed,
                     "passed": m.passed})

    for ids in _sweep_groups(scenarios):
        probes = []
        for sid in sorted(ids):
            m = results[sid]
            d = m.checks.get("solve", {}).get("details", {})
            if m.status == "ok" and "max_second_derivative" in d:
                probes.append(d["max_second_derivative"])
        if len(probes) < 2:
            continue
        ratio = float(np.max(probes) / np.median(probes))
        rows.append({"id": "uniformity-probe:" + min(ids),
                     "hash": canonical_hash(sorted(ids)), "status": "ok",
                     "checks": 1, "failed_checks": int(ratio > 2.0),
                     "passed": ratio <= 2.0, "probe_ratio": ratio})
    return rows, results


def write_summary_csv(path, rows):
    cols = ["id", "hash", "status", "checks", "failed_checks", "passed",
            "probe_ratio"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")
