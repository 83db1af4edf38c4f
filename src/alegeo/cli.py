"""Command line front end.

Subcommands: solve-geodesic, k-energy, ricci-scan, intersect, decay-fit,
batch.  Exit codes: 0 all checks pass, 2 validation error, 3 numerical
failure or a failed check, 4 partial batch failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .analysis import InsufficientDecayError, fit_decay_exponent
from .energy import OffShellError
from .geodesic import GeodesicError
from .profiles import (check_keys, curvature_scan_rows, lebrun_profile,
                       profile_from_json, ricci_sign_scan)
from .runner import (SOLVER_KEYS, Scenario, ScenarioError, _json_text,
                     _write_json, batch as run_batch, energy_check,
                     load_grid_csv, run_scenario, write_summary_csv)
from .toric import IntersectionReport

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

# ScenarioError, ProfileError and json.JSONDecodeError are ValueErrors
VALIDATION_ERRORS = (ValueError, KeyError, FileNotFoundError)
NUMERICAL_ERRORS = (GeodesicError, OffShellError, InsufficientDecayError)
# a solve-geodesic config: geometry, boundary data, solver keys, analyses
CONFIG_KEYS = ("id", "n", "k", "tau_min", "profile", "psi0", "psi1",
               "analyses", *SOLVER_KEYS)


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path):
    return json.loads(Path(path).read_text())


def _emit_json(doc, out_path=None):
    """Print doc as alegeo's JSON files hold it, and write it to out_path."""
    text = _json_text(doc)
    if out_path:
        Path(out_path).write_text(text)
    click.echo(text, nl=False)


@click.group()
def main():
    """Numerical laboratory for epsilon-geodesics on line-bundle spaces."""


@main.command("solve-geodesic")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", default=".", type=click.Path())
@click.option("--no-cache", is_flag=True, default=False)
def solve_geodesic(config_path, out_dir, no_cache):
    """Solve one epsilon-geodesic scenario; write grid CSV + report JSON."""
    try:
        doc = _load_json(config_path)
        check_keys(doc, "config", CONFIG_KEYS, error=ScenarioError)
        given = lambda keys: {key: doc[key] for key in keys if key in doc}
        # "profile" names the form, or gives a whole profile document
        geometry = given(("n", "k", "tau_min", "profile"))
        if isinstance(geometry.get("profile"), str):
            geometry["form"] = geometry.pop("profile")
        scenario_doc = {"id": doc.get("id", Path(config_path).stem),
                        "geometry": geometry,
                        "boundary": given(("psi0", "psi1")),
                        "solver": given(SOLVER_KEYS),
                        "analyses": doc.get("analyses"), "out_dir": out_dir}
        manifest = run_scenario(Scenario.from_dict(scenario_doc),
                                no_cache=no_cache)
    except NUMERICAL_ERRORS as exc:
        _fail(EXIT_NUMERICAL, exc)
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    _emit_json(manifest.to_json_dict())
    sys.exit(EXIT_OK if manifest.passed else EXIT_NUMERICAL)


@main.command("k-energy")
@click.option("--path", "grid_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", default=".", type=click.Path())
def k_energy(grid_path, out_dir):
    """K-energy curve and convexity decomposition along a solved path.

    The path's epsilon is read from its grid.meta.json sidecar.  Writes
    energy.csv and energy.json as a scenario's energy analysis does, and
    exits 0 when the energy verdict passes, 3 when it fails.
    """
    out = Path(out_dir)
    try:
        grid = load_grid_csv(grid_path)
        out.mkdir(parents=True, exist_ok=True)
        verdict, _ = energy_check(grid, out)
    except NUMERICAL_ERRORS as exc:
        _fail(EXIT_NUMERICAL, exc)
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    d = verdict["details"]
    click.echo(f"min d2K/dt2 = {d['min_d2K']:.6e}, "
               f"fd agreement = {d['fd_agreement']:.4f}, "
               f"passed = {verdict['passed']}")
    sys.exit(EXIT_OK if verdict["passed"] else EXIT_NUMERICAL)


@main.command("ricci-scan")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--k", type=int, default=1)
@click.option("--tau-min", type=float, default=1.0)
@click.option("--n", type=int, default=2)
@click.option("--samples", type=int, default=100)
@click.option("--out", "out_dir", default=".", type=click.Path())
def ricci_scan(config_path, k, tau_min, n, samples, out_dir):
    """Curvature scan CSV and Ricci sign classification JSON."""
    try:
        if config_path:
            profile = profile_from_json(_load_json(config_path))
        else:
            profile = lebrun_profile(k, tau_min, n=n)
        lo = profile.tau_min if profile.tau_min > 0 else 0.1
        tau_grid = np.geomspace(lo * (1 + 1e-6),
                                min(lo * 100.0, profile.tau_max), samples)
        rows = curvature_scan_rows(profile, tau_grid)
        scan = ricci_sign_scan(profile)
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = "tau,rho,r,lambda_base,lambda_fiber,ric_base,ric_fiber,scal"
    np.savetxt(out / "curvature_scan.csv", np.asarray(rows), delimiter=",",
               header=header, comments="")
    _write_json(out / "ricci_scan.json", {
        "classification": scan.classification,
        "positive_witness": scan.positive_witness,
        "negative_witness": scan.negative_witness,
        "positive_margin": scan.positive_margin,
        "negative_margin": scan.negative_margin,
    })
    click.echo(scan.classification)
    sys.exit(EXIT_OK)


@main.command("intersect")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--oracle", is_flag=True, default=False)
@click.option("--out", "out_path", default=None, type=click.Path())
def intersect(n, k, oracle, out_path):
    """Exact intersection table and mixed-type certificate for (n, k)."""
    try:
        rep = IntersectionReport.build(n, k, with_oracle=oracle)
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    _emit_json(rep.to_json_dict(), out_path)
    sys.exit(EXIT_OK)


@main.command("decay-fit")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True))
@click.option("--column", required=True)
@click.option("--r-column", default="r")
@click.option("--window", default=None,
              help="a,b window in r; defaults to [r_max/8, r_max/2]")
@click.option("--out", "out_path", default=None, type=click.Path())
def decay_fit(input_path, column, r_column, window, out_path):
    """Fit a power-law decay exponent to a CSV column against r."""
    try:
        with open(input_path) as fh:
            names = fh.readline().strip().split(",")
        data = np.loadtxt(input_path, delimiter=",", skiprows=1)
        if column not in names or r_column not in names:
            raise ScenarioError(
                f"column {column!r} or {r_column!r} not in {names}")
        r = data[:, names.index(r_column)]
        values = data[:, names.index(column)]
        win = None
        if window:
            a, b = (float(x) for x in window.split(","))
            win = (a, b)
        fit = fit_decay_exponent(r, values, window=win)
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    doc = {"window": list(fit.window), "exponent": fit.exponent,
           "residual": fit.residual, "n_samples": fit.n_samples,
           "below_floor": fit.below_floor, "reliable": fit.reliable}
    _emit_json(doc, out_path)
    sys.exit(EXIT_OK)


@main.command("batch")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", default=".", type=click.Path())
@click.option("--no-cache", is_flag=True, default=False)
def batch_cmd(config_path, out_dir, no_cache):
    """Run a manifest of scenarios; write one deterministic summary CSV."""
    try:
        doc = _load_json(config_path)
        entries = doc["scenarios"] if isinstance(doc, dict) else doc
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        scenarios = []
        for entry in entries:
            entry = dict(entry)
            entry.setdefault("out_dir", str(out / entry.get("id", "run")))
            scenarios.append(Scenario.from_dict(entry))
        ids = [s.id for s in scenarios]
        if len(set(ids)) != len(ids):
            raise ScenarioError("scenario ids must be unique")
    except VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, exc)
    rows, _ = run_batch(scenarios, no_cache=no_cache)
    write_summary_csv(Path(out_dir) / "summary.csv", rows)
    failures = sum(1 for row in rows if not row["passed"])
    click.echo(f"{len(rows)} rows, {failures} failures "
               f"-> {Path(out_dir) / 'summary.csv'}")
    if failures == 0:
        sys.exit(EXIT_OK)
    sys.exit(EXIT_PARTIAL if failures < len(rows) else EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
