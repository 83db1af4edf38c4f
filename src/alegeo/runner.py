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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import fit_decay_exponent
from .energy import energy_report, energy_verdict
from .geodesic import (OPENBLAS_CORE, GeodesicError, PathGrid, SolverConfig,
                       solve_epsilon_geodesic)
from .potentials import check_potential_json, potential_from_json
from .profiles import check_keys, check_profile_json, profile_from_json
from .toric import MAX_ORACLE_ERROR, IntersectionReport

__all__ = ["Scenario", "RunManifest", "ScenarioError", "run_scenario",
           "batch", "canonical_hash"]

KNOWN_ANALYSES = ("c0_check", "decay", "energy", "intersections")
# the keys of a scenario document and of its geometry and boundary sections
SCENARIO_KEYS = ("id", "geometry", "boundary", "solver", "analyses", "out_dir")
GEOMETRY_KEYS = ("form", "n", "k", "tau_min", "profile")
BOUNDARY_KEYS = ("psi0", "psi1")
# a scenario's solver keys, with the subkeys of grid and tolerances
SOLVER_KEYS = {"epsilon": (),
               "grid": ("n_rho", "n_t", "rho_min", "rho_max"),
               "tolerances": ("newton_tol", "max_iters")}


class ScenarioError(ValueError):
    """Invalid scenario configuration; the message names the field."""


def canonical_hash(doc) -> str:
    """sha256 of the canonical JSON encoding (stable under key order)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _profile_doc(geom):
    """A geometry's profile document, and the name its errors carry: the
    "profile" entry, or else form, n, k and tau_min, which default to
    lebrun, 2, 1 and 1.0 (0 for the flat cone)."""
    if "profile" in geom:
        if len(geom) > 1:
            raise ScenarioError(f"geometry.profile excludes the keys "
                                f"{sorted(set(geom) - {'profile'})}")
        return geom["profile"], "geometry.profile"
    form = geom.get("form", "lebrun")
    return {"form": form, "n": geom.get("n", 2), "k": geom.get("k", 1),
            "tau_min": geom.get("tau_min", 0.0 if form == "flat" else 1.0),
            "params": {}}, "geometry"


@dataclass(frozen=True)
class Scenario:
    """A checked scenario; its geometry is always {"profile": document}.

    A scenario that solves builds its profile, psi0, psi1 and SolverConfig
    when it is made, as solve_inputs; their constructors check what the
    formats cannot, such as gamma > 0 and 3 nodes each way.  A SolverConfig
    field that the solver keys do not give keeps its default.
    """

    id: str
    geometry: dict
    boundary: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    analyses: tuple = ()
    out_dir: str = "."
    solve_inputs: tuple = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if not self.needs_solve:
            return
        profile = profile_from_json(self.geometry["profile"])
        zero = {"kind": "zero", "params": {}}
        psi0, psi1 = (potential_from_json(self.boundary.get(key, zero),
                                          profile) for key in BOUNDARY_KEYS)
        s = self.solver
        if "epsilon" not in s:
            raise ScenarioError("solver.epsilon is required for path "
                                "analyses")
        given = {**s.get("grid", {}), **s.get("tolerances", {})}
        config = SolverConfig(epsilon=s["epsilon"],
                              **{key: val for key, val in given.items()
                                 if val is not None})
        object.__setattr__(self, "solve_inputs", (profile, psi0, psi1, config))

    @classmethod
    def from_dict(cls, doc) -> "Scenario":
        check_keys(doc, "scenario", SCENARIO_KEYS, error=ScenarioError)
        sid = doc.get("id")
        if not sid or not isinstance(sid, str):
            raise ScenarioError("id must be a nonempty string")
        geom = doc.get("geometry")
        check_keys(geom, "geometry", GEOMETRY_KEYS, error=ScenarioError)
        profile, name = _profile_doc(geom)
        boundary = doc.get("boundary", {})
        check_keys(boundary, "boundary", BOUNDARY_KEYS, error=ScenarioError)
        analyses = tuple(doc.get("analyses") or ("c0_check",))
        for a in analyses:
            if a not in KNOWN_ANALYSES:
                raise ScenarioError(f"analyses entry {a!r} unknown; expected "
                                    f"one of {KNOWN_ANALYSES}")
        solver = doc.get("solver", {})
        check_keys(solver, "solver", SOLVER_KEYS, error=ScenarioError)
        for key in ("grid", "tolerances"):
            check_keys(solver.get(key, {}), f"solver.{key}", SOLVER_KEYS[key],
                       error=ScenarioError)
        try:
            check_profile_json(profile, name)
            for key, potential in boundary.items():
                check_potential_json(potential, f"boundary.{key}")
            return cls(id=sid, geometry={"profile": profile},
                       boundary=dict(boundary), solver=dict(solver),
                       analyses=analyses, out_dir=doc.get("out_dir", "."))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    @property
    def needs_solve(self):
        return bool(set(self.analyses) & {"c0_check", "decay", "energy"})

    def content_hash(self) -> str:
        doc = {"version": __version__, "id": self.id,
               "geometry": self.geometry,
               "boundary": self.boundary, "solver": self.solver,
               "analyses": list(self.analyses)}
        return canonical_hash(doc)


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
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "passed": self.passed}

    @classmethod
    def from_json_dict(cls, doc):
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, doc):
    path.write_text(_json_text(doc))


def _write_grid_csv(path: Path, grid: PathGrid):
    # the bytes of np.savetxt(path, data, delimiter=",", header="rho,t,phi",
    # comments="") for the rows (rho_i, t_j, phi_ij): one block of n_t rows
    # holds the t values, each rho fills a copy, and phi fills the rest
    block = "".join(["rho,%.18e,%%.18e\n" % s for s in grid.t_nodes.tolist()])
    rows = "".join([block.replace("rho", "%.18e" % r)
                    for r in grid.rho_nodes.tolist()])
    path.write_text("rho,t,phi\n" + rows % tuple(grid.phi.ravel().tolist()))


def _grid_meta(grid: PathGrid, profile, psi0, psi1):
    return {"profile": profile.to_json_dict(),
            "psi0": psi0.to_json_dict(), "psi1": psi1.to_json_dict(),
            "epsilon": grid.epsilon,
            "n_rho": int(grid.rho_nodes.size), "n_t": int(grid.t_nodes.size)}


def load_grid_csv(csv_path, meta_path=None) -> PathGrid:
    """Rebuild a PathGrid from grid.csv plus its .meta.json sidecar.

    The sidecar's profile and potentials go through their JSON readers,
    and epsilon, n_rho and n_t through SolverConfig's checks.  Keys of the
    sidecar that the grid does not hold are ignored.
    """
    csv_path = Path(csv_path)
    if meta_path is None:
        meta_path = csv_path.with_suffix(".meta.json")
    meta = json.loads(Path(meta_path).read_text())
    profile = profile_from_json(meta["profile"])
    psi0 = potential_from_json(meta["psi0"], profile, "psi0")
    psi1 = potential_from_json(meta["psi1"], profile, "psi1")
    cfg = SolverConfig(epsilon=meta["epsilon"], n_rho=meta["n_rho"],
                       n_t=meta["n_t"])
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    rho = data[::cfg.n_t, 0]
    t = data[:cfg.n_t, 1]
    phi = data[:, 2].reshape(cfg.n_rho, cfg.n_t)
    return PathGrid(rho_nodes=rho, t_nodes=t, phi=phi, psi0=psi0, psi1=psi1,
                    background=profile, epsilon=cfg.epsilon)


def energy_check(grid, out: Path):
    """The energy verdict of grid, at the grid's own epsilon, and the
    paths of its two artifacts.

    energy.csv holds the per-t arrays, NaN where second derivatives are
    interior-only; energy.json the verdict's details as "checks", "passed"
    and K at both ends.
    """
    rep = energy_report(grid, grid.epsilon)
    verdict = energy_verdict(rep, grid.background)
    pad = lambda arr: np.concatenate([[np.nan], arr, [np.nan]])
    rows = np.column_stack([
        rep.t_samples, rep.K_values, rep.dK_dt,
        pad(rep.d2K_dt2_formula), pad(rep.d2K_dt2_fd),
        pad(rep.lich_term), pad(rep.ricci_term), pad(rep.grad_term),
    ])
    np.savetxt(out / "energy.csv", rows, delimiter=",",
               header="t,K,dK,d2K_formula,d2K_fd,lich,ricci,grad",
               comments="")
    _write_json(out / "energy.json", {
        "checks": verdict["details"], "passed": verdict["passed"],
        "K_endpoints": [float(rep.K_values[0]), float(rep.K_values[-1])]})
    return verdict, {"energy_csv": str(out / "energy.csv"),
                     "energy_json": str(out / "energy.json")}


def _decay_check(grid, psi1):
    # spatial decay of phi toward its far-field constant at each t
    c = grid.phi[-1:, :]
    dev = np.max(np.abs(grid.phi - c), axis=1)
    r = np.exp(grid.rho_nodes / 2.0)
    try:
        fit = fit_decay_exponent(r, dev)
    except ValueError as exc:  # too few nodes in the default window
        return {"passed": False, "details": {"error": str(exc)}}
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
                           timings={"versions": {
                               "alegeo": __version__,
                               "numpy": np.__version__,
                               "scipy": scipy.__version__,
                               "openblas_core": OPENBLAS_CORE}})
    try:
        _run_analyses(scenario, out, manifest)
    except (GeodesicError, ValueError) as exc:
        manifest.status = "error"
        manifest.error = f"scenario {scenario.id}: {exc}"
        _write_json(manifest_path, manifest.to_json_dict())
        raise
    _write_json(manifest_path, manifest.to_json_dict())
    return manifest


def _run_analyses(scenario, out, manifest):
    analyses = scenario.analyses
    if scenario.needs_solve:
        profile, psi0, psi1, cfg = scenario.solve_inputs
        grid, report = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
        manifest.timings["solve_wall_time"] = report.wall_time
        _write_grid_csv(out / "grid.csv", grid)
        _write_json(out / "grid.meta.json",
                    _grid_meta(grid, profile, psi0, psi1))
        solve_details = {
            "residual_sup": report.residual_sup,
            "max_second_derivative": report.max_second_derivative,
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
            "stage_shapes": report.stage_shapes,
            "stage_values": report.stage_values,
            "c0_passed": report.c0_check.passed,
            "positivity_margins": report.positivity_margins,
        })
        manifest.artifacts["report_json"] = str(out / "report.json")

        if "c0_check" in analyses:
            manifest.checks["c0_check"] = {
                "passed": report.c0_check.passed,
                "details": {"min_slack": report.c0_check.min_slack}}
        if "decay" in analyses:
            manifest.checks["decay"] = _decay_check(grid, psi1)
        if "energy" in analyses:
            manifest.checks["energy"], paths = energy_check(grid, out)
            manifest.artifacts.update(paths)

    if "intersections" in analyses:
        geom = scenario.geometry["profile"]
        rep = IntersectionReport.build(geom["n"], geom["k"], with_oracle=True)
        doc = rep.to_json_dict()
        _write_json(out / "intersect.json", doc)
        manifest.artifacts["intersect_json"] = str(out / "intersect.json")
        cert_ok = (doc["certificate"]["opposite_signs"]
                   == (geom["k"] != geom["n"]))
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
        top, median = float(np.max(probes)), float(np.median(probes))
        passed = top <= 2.0 * median  # zero data pass, every probe 0
        ratio = {"probe_ratio": top / median} if median > 0.0 else {}
        rows.append({"id": "uniformity-probe:" + min(ids),
                     "hash": canonical_hash(sorted(ids)), "status": "ok",
                     "checks": 1, "failed_checks": int(not passed),
                     "passed": passed, **ratio})
    return rows, results


def write_summary_csv(path, rows):
    cols = ["id", "hash", "status", "checks", "failed_checks", "passed",
            "probe_ratio"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")
