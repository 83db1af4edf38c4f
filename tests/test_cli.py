import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from alegeo import __version__, runner, toric
from alegeo.cli import main
from alegeo.geodesic import OPENBLAS_CORE, _FixedData, solve_epsilon_geodesic
from alegeo.profiles import lebrun_profile
from alegeo.runner import (
    RunManifest,
    Scenario,
    ScenarioError,
    batch,
    canonical_hash,
    load_grid_csv,
    run_scenario,
    write_summary_csv,
)


EH = lebrun_profile(2, 1.0)
BURNS_DOC = {"form": "lebrun", "n": 2, "k": 1, "tau_min": 1.0,
             "params": {"tau_max": 1e12}}


def trivial_scenario(out_dir, epsilon=0.5, n=17, extra=None):
    doc = {
        "id": f"trivial-{epsilon}",
        "geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
        "boundary": {},
        "solver": {"epsilon": epsilon, "grid": {"n_rho": n, "n_t": n}},
        "analyses": ["c0_check"],
        "out_dir": str(out_dir),
    }
    if extra:
        doc.update(extra)
    return Scenario.from_dict(doc)


def eh_data_scenario(out_dir, epsilon=0.5, n=33, analyses=("c0_check",),
                     n_t=None):
    return Scenario.from_dict({
        "id": f"eh-{epsilon}",
        "geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
        "boundary": {"psi1": {"kind": "exp", "params": {
            "amplitude": 0.1, "gamma": 4.0, "rho_ref": 0.96}}},
        "solver": {"epsilon": epsilon,
                   "grid": {"n_rho": n, "n_t": n if n_t is None else n_t}},
        "analyses": list(analyses),
        "out_dir": str(out_dir),
    })


# ---------------------------------------------------------------------------
# scenario validation and hashing
# ---------------------------------------------------------------------------

def test_malformed_config_names_field():
    with pytest.raises(ScenarioError, match="geometry.k"):
        Scenario.from_dict({"id": "bad", "geometry": {"k": 0}})
    with pytest.raises(ScenarioError, match="id"):
        Scenario.from_dict({"geometry": {"k": 1}})
    with pytest.raises(ScenarioError, match="analyses"):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1},
                            "analyses": ["bogus"]})
    with pytest.raises(ScenarioError, match="epsilon"):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1},
                            "analyses": ["c0_check"]})


@pytest.mark.parametrize("solver,where,key", [
    ({"schedule": {"ratio": 0.5}}, "solver", "schedule"),
    ({"grid": {"nrho": 17, "n_t": 17}}, "solver.grid", "nrho"),
    ({"tolerances": {"newton_tol": 1e-9, "tol": 1.0}}, "solver.tolerances",
     "tol")])
def test_unknown_solver_keys_are_named(solver, where, key):
    with pytest.raises(ScenarioError,
                       match=re.escape(f"{where} has unknown keys ['{key}']")):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1},
                            "solver": {"epsilon": 0.5, **solver}})
    with pytest.raises(ScenarioError, match="solver.grid must be an object"):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1},
                            "solver": {"epsilon": 0.5, "grid": 17}})


@pytest.mark.parametrize("doc,where,key", [
    ({"outdir": "elsewhere"}, "scenario", "outdir"),
    ({"geometry": {"k": 2, "taumin": 2.0}}, "geometry", "taumin"),
    ({"boundary": {"psi2": {"kind": "zero", "params": {}}}}, "boundary",
     "psi2"),
    ({"boundary": {"psi1": {"kind": "zero", "params": {}, "gamma": 4.0}}},
     "boundary.psi1", "gamma")],
    ids=["top-level", "geometry", "boundary", "potential"])
def test_unknown_scenario_keys_are_named(doc, where, key):
    # each used to be dropped: tau_min 1.0, zero psi1, the default out_dir
    with pytest.raises(ScenarioError,
                       match=re.escape(f"{where} has unknown keys ['{key}']")):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1}, **doc})
    with pytest.raises(ScenarioError, match="boundary must be an object"):
        Scenario.from_dict({"id": "x", "geometry": {"k": 1}, "boundary": []})


@pytest.mark.parametrize("doc,field", [
    ({"geometry": {"k": 2, "tau_min": "1.0"}}, "geometry.tau_min"),
    ({"solver": {"epsilon": "0.5"}}, "epsilon"),
    ({"solver": {"epsilon": 0.5, "grid": {"n_rho": 17.5, "n_t": 17}}},
     "n_rho"),
    ({"solver": {"epsilon": 0.5, "tolerances": {"max_iters": True}}},
     "max_iters"),
    ({"solver": {"epsilon": 0.5, "upsilon_mode": "constant"}},
     "upsilon_mode"),
    ({"geometry": {"k": True}}, "geometry.k"),
    ({"boundary": {"psi1": "zero"}}, "boundary.psi1 must be an object"),
    ({"boundary": {"psi0": {"kind": "gauss", "params": {}}}},
     "boundary.psi0.kind"),
    ({"boundary": {"psi1": {"kind": "exp", "params": {"amplitude": 0.1}}}},
     "boundary.psi1.params: missing 'gamma'"),
    ({"boundary": {"psi1": {"kind": "tau_power", "params": []}}},
     "boundary.psi1.params must be an object"),
    ({"boundary": {"psi1": {"kind": "tau_power",
                            "params": {"amplitude": 0.1, "gamma": "4"}}}},
     "boundary.psi1.params.gamma"),
    ({"geometry": {"profile": "lebrun"}},
     "geometry.profile must be an object"),
    ({"geometry": {"k": 2, "profile": {**BURNS_DOC}}},
     "geometry.profile excludes the keys ['k']"),
    ({"geometry": {"profile": {**BURNS_DOC, "k": 1.5}}},
     "geometry.profile.k must be an integer"),
    ({"geometry": {"profile": {**BURNS_DOC, "params": {"tau_mx": 1e3}}}},
     "geometry.profile.params has unknown keys ['tau_mx']"),
    ({"geometry": {"form": "flat", "tau_min": 2.0}},
     "geometry.tau_min must be 0 for the flat form"),
    ({"boundary": {"psi1": {"kind": "exp", "params": {
        "amplitude": 0.1, "gamma": 4.0, "rho_rf": 1.0}}}},
     "boundary.psi1.params has unknown keys ['rho_rf']"),
    ({"geometry": {"n": 3, "k": 2, "tau_min": 0.0}},
     "geometry.tau_min must be > 0 for the lebrun form"),
    ({"boundary": {"psi1": {"kind": "exp", "params": {
        "amplitude": 0.1, "gamma": 0.0}}}}, "gamma must be > 0")],
    ids=["string-tau-min", "string-epsilon", "fractional-n-rho",
         "bool-max-iters", "upsilon-mode", "bool-k", "string-psi1",
         "unknown-kind", "missing-gamma", "list-params", "string-gamma",
         "string-profile", "two-bundles", "profile-fractional-k",
         "profile-params-typo", "flat-tau-min", "exp-params-typo",
         "lebrun-n3-solve", "zero-gamma"])
def test_wrong_scenario_values_are_named(doc, field):
    # a scenario that solves builds its SolverConfig when it is read; a
    # string psi1 and a string gamma used to raise AttributeError and
    # TypeError, and k = true solved on O(-1); a string profile failed
    # only when it ran, a shorthand k next to a profile named a second
    # bundle, and the profile and params typos and the flat tau_min were
    # dropped; a solve on gamma = 0 data failed only when it ran, and the
    # n = 3 lebrun form, now built at every n, still checks its tau_min
    with pytest.raises(ScenarioError, match=re.escape(field)):
        Scenario.from_dict({"id": "x", "geometry": {"k": 2},
                            "analyses": ["c0_check"], **doc})


def test_geometry_has_one_bundle(tmp_path):
    # the shorthand and the document it stands for are one scenario, and
    # the intersections analysis reads its (n, k) from that document
    short = Scenario.from_dict({"id": "b", "geometry": {"k": 1},
                                "analyses": ["intersections"],
                                "out_dir": str(tmp_path)})
    whole = Scenario.from_dict({"id": "b", "geometry": {"profile": {
        **BURNS_DOC, "params": {}}}, "analyses": ["intersections"]})
    assert short.geometry == whole.geometry == {"profile": {
        **BURNS_DOC, "params": {}}}
    assert short.content_hash() == whole.content_hash()
    m = run_scenario(short)
    doc = json.loads(Path(m.artifacts["intersect_json"]).read_text())
    assert (doc["n"], doc["k"]) == (2, 1)


def test_content_hash_stable_under_key_reordering():
    a = {"id": "s", "geometry": {"k": 2, "n": 2, "tau_min": 1.0},
         "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
         "analyses": ["c0_check"]}
    b = {"analyses": ["c0_check"],
         "solver": {"grid": {"n_t": 17, "n_rho": 17}, "epsilon": 0.5},
         "geometry": {"tau_min": 1.0, "n": 2, "k": 2}, "id": "s"}
    sa, sb = Scenario.from_dict(a), Scenario.from_dict(b)
    assert sa.content_hash() == sb.content_hash()
    assert canonical_hash({"x": 1, "y": 2}) == canonical_hash({"y": 2, "x": 1})


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_trivial_scenario_manifest(tmp_path):
    s = trivial_scenario(tmp_path / "run")
    m = run_scenario(s)
    assert m.passed
    assert m.checks["c0_check"]["passed"]
    assert m.checks["solve"]["details"]["exact_deviation"] <= 1e-8
    for name in ("grid_csv", "grid_meta", "report_json"):
        assert Path(m.artifacts[name]).exists()


def _keys(doc):
    """Every key of a JSON document, at any depth."""
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    return set()


def test_artifacts_carry_no_upsilon_keys(tmp_path):
    m = run_scenario(eh_data_scenario(tmp_path / "run", n=17))
    for path in (tmp_path / "run" / "manifest.json",
                 m.artifacts["report_json"], m.artifacts["grid_meta"]):
        keys = _keys(json.loads(Path(path).read_text()))
        assert "epsilon" in keys or "residual_sup" in keys
        assert not [key for key in keys if key.startswith("upsilon")], path


def test_stale_meta_key_is_ignored(tmp_path):
    m = run_scenario(eh_data_scenario(tmp_path / "run", n=17))
    meta_path = Path(m.artifacts["grid_meta"])
    grid = load_grid_csv(m.artifacts["grid_csv"])
    # a sidecar written before the solver had one right-hand side
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "upsilon_mode": "constant"}))
    old = load_grid_csv(m.artifacts["grid_csv"])
    assert old.epsilon == grid.epsilon == 0.5
    assert np.array_equal(old.phi, grid.phi)


def test_grid_round_trip(tmp_path):
    s = eh_data_scenario(tmp_path / "run")
    m = run_scenario(s)
    grid = load_grid_csv(m.artifacts["grid_csv"])
    assert grid.background.k == 2
    assert grid.phi.shape == (33, 33)
    assert grid.epsilon == 0.5
    assert not grid.psi1.is_zero
    report = json.loads(Path(m.artifacts["report_json"]).read_text())
    iters, factors = (report["stage_iterations"],
                      report["stage_factorizations"])
    # the seed is elliptic at s = epsilon: one stage on every other node,
    # then the same s on the grid
    assert report["stage_shapes"] == [[17, 17], [33, 33]]
    assert report["stage_values"] == [0.5, 0.5]
    assert iters == [9, 8]
    assert factors == [1, 1]
    margins = report["positivity_margins"]
    assert set(margins["worst_nodes"]) == {"w1", "w2", "M"}
    assert margins["M"] > 0


def test_grid_csv_has_the_bytes_of_savetxt(tmp_path):
    # a non-square grid tells the rho column from the t column
    for n_rho, n_t in ((17, 17), (17, 9)):
        s = eh_data_scenario(tmp_path, n=n_rho, n_t=n_t)
        profile, psi0, psi1, cfg = s.solve_inputs
        grid, _ = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
        assert grid.phi.shape == (n_rho, n_t)
        assert grid.phi.min() < 0  # a minus sign in the phi column
        path = tmp_path / "grid.csv"
        runner._write_grid_csv(path, grid)
        data = np.column_stack([
            np.repeat(grid.rho_nodes, grid.t_nodes.size),
            np.tile(grid.t_nodes, grid.rho_nodes.size), grid.phi.ravel()])
        np.savetxt(tmp_path / "savetxt.csv", data, delimiter=",",
                   header="rho,t,phi", comments="")
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
        runner._write_json(path.with_suffix(".meta.json"),
                           runner._grid_meta(grid, profile, psi0, psi1))
        loaded = load_grid_csv(path)
        for name in ("rho_nodes", "t_nodes", "phi"):
            assert np.array_equal(getattr(loaded, name), getattr(grid, name))


def test_cache_and_determinism(tmp_path):
    s = eh_data_scenario(tmp_path / "run")
    def manifest_doc():
        doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
        timings = doc.pop("timings")
        assert timings["solve_wall_time"] > 0
        assert timings["versions"]["alegeo"] == __version__
        # the kernel family sets the solve's rounding (SkylakeX, Haswell)
        assert timings["versions"]["openblas_core"] == OPENBLAS_CORE
        return doc

    m1 = run_scenario(s)
    csv_bytes = Path(m1.artifacts["grid_csv"]).read_bytes()
    doc1 = manifest_doc()
    # cached: second run returns without recompute, outputs untouched
    m2 = run_scenario(s)
    assert m2.scenario_hash == m1.scenario_hash
    assert Path(m1.artifacts["grid_csv"]).read_bytes() == csv_bytes
    # forced rerun reproduces identical numbers (only timings may vary)
    run_scenario(s, no_cache=True)
    assert Path(m1.artifacts["grid_csv"]).read_bytes() == csv_bytes
    assert manifest_doc() == doc1


def test_cache_misses_after_version_change(tmp_path, monkeypatch):
    s = trivial_scenario(tmp_path / "run")
    path = tmp_path / "run" / "manifest.json"
    monkeypatch.setattr(runner, "__version__", "0.1.0")
    old = run_scenario(s)
    monkeypatch.undo()
    assert old.version == "0.1.0"
    m = run_scenario(s)
    assert m.version == __version__ != "0.1.0"
    assert m.scenario_hash != old.scenario_hash
    assert json.loads(path.read_text())["version"] == __version__

    # a manifest keyed as before the version entered the hash is stale too
    doc = json.loads(path.read_text())
    doc["version"] = "0.1.0"
    doc["scenario_hash"] = canonical_hash({
        "id": s.id, "geometry": s.geometry, "boundary": s.boundary,
        "solver": s.solver, "analyses": list(s.analyses)})
    path.write_text(json.dumps(doc))
    assert run_scenario(s).version == __version__
    assert json.loads(path.read_text())["scenario_hash"] == s.content_hash()


def test_cache_misses_when_an_artifact_is_gone(tmp_path):
    s = trivial_scenario(tmp_path / "run")
    m1 = run_scenario(s)
    csv_path = Path(m1.artifacts["grid_csv"])
    csv_bytes = csv_path.read_bytes()
    assert run_scenario(s).artifacts == m1.artifacts  # a plain hit
    csv_path.unlink()
    m2 = run_scenario(s)
    assert m2.passed
    assert csv_path.read_bytes() == csv_bytes


def test_intersections_scenario(tmp_path):
    s = Scenario.from_dict({"id": "toric", "geometry": {"n": 2, "k": 3},
                            "analyses": ["intersections"],
                            "out_dir": str(tmp_path)})
    m = run_scenario(s)
    assert m.passed
    doc = json.loads(Path(m.artifacts["intersect_json"]).read_text())
    assert doc["table"]["d0.d0"] == {"num": -3, "den": 1}
    assert m.checks["intersections"]["details"]["oracle_matches_table"]


def test_intersections_check_fails_on_a_wrong_oracle(tmp_path, monkeypatch):
    # 20% off yet self-consistent: the error estimate alone cannot see it
    oracle = toric.representative_integral_oracle
    monkeypatch.setattr(toric, "representative_integral_oracle",
                        lambda n, k: {
                            which: {"value": 1.2 * entry["value"],
                                    "error": 0.0}
                            for which, entry in oracle(n, k).items()})
    s = Scenario.from_dict({"id": "toric", "geometry": {"n": 2, "k": 3},
                            "analyses": ["intersections"],
                            "out_dir": str(tmp_path)})
    m = run_scenario(s)
    assert not m.passed
    assert m.checks["intersections"]["details"] == {
        "certificate_consistent": True, "oracle_matches_table": False}


def test_energy_scenario_convexity(tmp_path):
    rho_min = float(EH.rho_of_tau(1.0 + 1e-4))
    s = Scenario.from_dict({
        "id": "eh-convex",
        "geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
        "boundary": {"psi1": {"kind": "tau_power", "params": {
            "amplitude": 0.1, "gamma": 4.0}}},
        "solver": {"epsilon": 0.5,
                   "grid": {"n_rho": 193, "n_t": 129,
                            "rho_min": rho_min, "rho_max": rho_min + 12.0},
                   "tolerances": {"newton_tol": 1e-9}},
        "analyses": ["c0_check", "energy"],
        "out_dir": str(tmp_path),
    })
    m = run_scenario(s)
    assert m.passed
    d = m.checks["energy"]["details"]
    assert d["min_d2K"] >= -1e-6
    assert d["fd_agreement"] < 0.01
    assert d["ricci_classification"] == "zero"
    data = np.loadtxt(m.artifacts["energy_csv"], delimiter=",", skiprows=1)
    assert data.shape == (129, 8)
    doc = json.loads(Path(m.artifacts["energy_json"]).read_text())
    assert doc == {"checks": d, "passed": True,
                   "K_endpoints": [data[0, 1], data[-1, 1]]}


def test_failing_scenario_persists_marker(tmp_path):
    s = Scenario.from_dict({
        "id": "bad", "geometry": {"form": "lebrun", "k": 2, "tau_min": 1.0},
        "boundary": {"psi1": {"kind": "exp", "params": {
            "amplitude": -50.0, "gamma": 4.0, "rho_ref": 0.96}}},
        "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
        "analyses": ["c0_check"], "out_dir": str(tmp_path)})
    with pytest.raises(Exception, match="positive metric"):
        run_scenario(s)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["status"] == "error"
    assert "positive metric" in doc["error"]


def test_decay_check_on_a_short_grid_fails_as_a_check(tmp_path):
    # 13 rho nodes leave 6 in the default fit window; the fit's ValueError
    # used to escape a solved run as a validation error (exit 2) and leave
    # its manifest with status "error"
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "k": 2, "tau_min": 1.0, "epsilon": 0.5,
        "psi1": {"kind": "exp", "params": {"amplitude": 0.1, "gamma": 4.0,
                                           "rho_ref": 0.96}},
        "grid": {"n_rho": 13, "n_t": 13}, "analyses": ["decay"]}))
    out = tmp_path / "run"
    res = CliRunner().invoke(main, ["solve-geodesic", "--config",
                                    str(cfg_path), "--out", str(out)])
    assert res.exit_code == 3, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["checks"]["solve"]["passed"] is True
    assert manifest["checks"]["decay"] == {
        "passed": False,
        "details": {"error": "need >= 8 samples in window, got 6"}}
    assert (out / "grid.csv").exists()


def test_solve_on_a_grid_too_small_for_a_decay_fit(tmp_path):
    # the boundary check reads the decay the data declare and fits none,
    # so 7 rho nodes (fewer than a decay fit's 8 samples) solve, exit 0
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "k": 2, "tau_min": 1.0, "epsilon": 0.5,
        "psi1": {"kind": "exp", "params": {"amplitude": 0.1, "gamma": 4.0,
                                           "rho_ref": 0.96}},
        "grid": {"n_rho": 7, "n_t": 7}}))
    out = tmp_path / "run"
    res = CliRunner().invoke(main, ["solve-geodesic", "--config",
                                    str(cfg_path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["residual_sup"] <= 1e-11


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_empty(tmp_path):
    rows, results = batch([])
    assert rows == [] and results == {}
    write_summary_csv(tmp_path / "summary.csv", rows)
    assert (tmp_path / "summary.csv").read_text().startswith("id,")


def test_batch_isolates_failures(tmp_path):
    good1 = trivial_scenario(tmp_path / "a", epsilon=0.5)
    good2 = eh_data_scenario(tmp_path / "b", n=17)
    bad = Scenario.from_dict({
        "id": "zz-bad", "geometry": {"form": "lebrun", "k": 2,
                                     "tau_min": 1.0},
        "boundary": {"psi1": {"kind": "exp", "params": {
            "amplitude": -50.0, "gamma": 4.0, "rho_ref": 0.96}}},
        "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
        "analyses": ["c0_check"], "out_dir": str(tmp_path / "c")})
    rows, results = batch([good1, good2, bad])
    assert len(rows) == 3
    assert [row["id"] for row in rows] == sorted(row["id"] for row in rows)
    failures = [row for row in rows if not row["passed"]]
    assert len(failures) == 1 and failures[0]["id"] == "zz-bad"
    # good scenarios unaffected
    assert results["trivial-0.5"].passed and results["eh-0.5"].passed


def test_batch_intersections_need_no_profile(tmp_path):
    # intersections never solve, so they need no background profile
    s = Scenario.from_dict({"id": "n3k2", "geometry": {"n": 3, "k": 2},
                            "analyses": ["intersections"],
                            "out_dir": str(tmp_path)})
    rows, results = batch([s])
    assert [row["passed"] for row in rows] == [True]
    assert results["n3k2"].status == "ok"


def test_batch_sweep_probe_row(tmp_path):
    eps = [2.0 ** -m for m in range(7)]
    scens = [eh_data_scenario(tmp_path / f"e{m}", epsilon=e, n=17)
             for m, e in enumerate(eps)]
    rows, _ = batch(scens)
    probe = [row for row in rows if row["id"].startswith("uniformity-probe")]
    assert len(probe) == 1
    assert probe[0]["probe_ratio"] <= 2.0
    assert probe[0]["passed"]
    assert len(rows) == 8


def test_batch_sweep_probe_row_on_zero_data(tmp_path):
    # the trivial path has Phi_rhorho = P = 0, so every probe is 0: the
    # sweep is uniform, and its probe ratio 0/0 is not written
    scens = [trivial_scenario(tmp_path / f"z{m}", epsilon=e)
             for m, e in enumerate((0.5, 0.25))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, results = batch(scens)
    assert [results[s.id].checks["solve"]["details"]["max_second_derivative"]
            for s in scens] == [0.0, 0.0]
    probe = rows[-1]
    assert probe["id"] == "uniformity-probe:trivial-0.25"
    assert probe["passed"] is True and probe["failed_checks"] == 0
    assert "probe_ratio" not in probe
    write_summary_csv(tmp_path / "summary.csv", rows)
    last = (tmp_path / "summary.csv").read_text().splitlines()[-1]
    assert last.endswith(",ok,1,0,True,")


@pytest.mark.parametrize("probes, passed", [
    ([1.0, 3.0, 1.0], False), ([0.0, 0.0, 1.0], False),
    ([1.0, 2.0, 1.0], True), ([0.0, 0.0, 0.0], True)],
    ids=["1-3-1", "0-0-1", "1-2-1", "0-0-0"])
def test_batch_sweep_probe_row_bounds_max_by_twice_the_median(
        tmp_path, monkeypatch, probes, passed):
    scens = [trivial_scenario(tmp_path / f"s{m}", epsilon=2.0 ** -m)
             for m in range(3)]
    probe_of = dict(zip((s.id for s in scens), probes))

    def solved(s, no_cache=False):
        return RunManifest(
            version=__version__, scenario_id=s.id,
            scenario_hash=s.content_hash(), inputs={}, artifacts={},
            checks={"solve": {"passed": True, "details": {
                "max_second_derivative": probe_of[s.id]}}})

    monkeypatch.setattr(runner, "run_scenario", solved)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _ = batch(scens)
    probe = rows[-1]
    assert probe["id"].startswith("uniformity-probe:")
    assert probe["passed"] is passed
    assert probe["failed_checks"] == int(not passed)
    median = sorted(probes)[1]
    if median > 0.0:
        assert probe["probe_ratio"] == max(probes) / median
    else:
        assert "probe_ratio" not in probe


def test_batch_builds_a_scenario_profile_once(tmp_path, monkeypatch):
    # a scenario builds its profile, potentials and config when it is
    # made, and its run uses those; a sampled profile pays its quadrature
    # once
    calls, build = [], runner.profile_from_json

    def counted(doc):
        calls.append(doc["form"])
        return build(doc)

    monkeypatch.setattr(runner, "profile_from_json", counted)
    tau = np.geomspace(1.0, 1e4, 200)
    s = Scenario.from_dict({
        "id": "sampled",
        "geometry": {"profile": {"form": "samples", "n": 2, "k": 2,
                                 "tau_min": 1.0, "params": {
                                     "tau": tau.tolist(),
                                     "phi": (tau - 1.0 / tau).tolist()}}},
        "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
        "analyses": ["c0_check"], "out_dir": str(tmp_path)})
    rows, _ = batch([s])
    assert [row["passed"] for row in rows] == [True]
    assert calls == ["samples"]


def test_energy_scenario_builds_its_fixed_data_once(tmp_path, monkeypatch):
    # the energy analysis reads the fixed data of the solved grid
    shapes, build = [], _FixedData.build

    def counted(grid):
        shapes.append(grid.phi.shape)
        return build(grid)

    monkeypatch.setattr(_FixedData, "build", staticmethod(counted))
    m = run_scenario(eh_data_scenario(tmp_path / "run", n=17,
                                      analyses=("energy",)))
    assert m.status == "ok" and "energy" in m.checks
    assert Path(m.artifacts["energy_json"]).exists()
    assert shapes == [(17, 17)]


def test_batch_no_probe_row_without_distinct_epsilons(tmp_path):
    # identical scenarios under two ids are not an epsilon sweep
    a = eh_data_scenario(tmp_path / "a", epsilon=0.5, n=17)
    doc = {key: getattr(a, key) for key in runner.SCENARIO_KEYS}
    b = Scenario.from_dict({**doc, "id": "eh-0.5-copy",
                            "analyses": list(a.analyses),
                            "out_dir": str(tmp_path / "b")})
    rows, _ = batch([a, b])
    assert [row["id"] for row in rows] == ["eh-0.5", "eh-0.5-copy"]
    assert all(row["passed"] for row in rows)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_solve_and_k_energy(tmp_path):
    runner = CliRunner()

    def solve_and_judge(name, psi1):
        cfg = {"n": 2, "k": 2, "tau_min": 1.0, "profile": "lebrun",
               "psi0": {"kind": "zero", "params": {}}, "psi1": psi1,
               "epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17},
               "analyses": ["c0_check"]}
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        run, energy = tmp_path / name / "run", tmp_path / name / "energy"
        res = runner.invoke(main, ["solve-geodesic", "--config",
                                   str(cfg_path), "--out", str(run)])
        assert res.exit_code == 0, res.output
        # epsilon comes from grid.meta.json
        res = runner.invoke(main, ["k-energy", "--path",
                                   str(run / "grid.csv"),
                                   "--out", str(energy)])
        doc = json.loads((energy / "energy.json").read_text())
        assert set(doc) == {"checks", "passed", "K_endpoints"}
        K = np.loadtxt(energy / "energy.csv", delimiter=",", skiprows=1)[:, 1]
        assert len(K) == 17
        assert doc["K_endpoints"] == [K[0], K[-1]]
        return res.exit_code, doc, K

    # 17 nodes are too few for this data: formula and finite differences
    # differ by 332%, so the verdict fails and the exit code says so
    code, doc, _ = solve_and_judge("exp", {
        "kind": "exp",
        "params": {"amplitude": 0.1, "gamma": 4.0, "rho_ref": 0.96}})
    assert code == 3
    assert doc["passed"] is False
    assert doc["checks"]["fd_agreement"] == pytest.approx(3.32, abs=0.01)

    # on zero data every term vanishes
    code, doc, K = solve_and_judge("zero", {"kind": "zero", "params": {}})
    assert code == 0
    assert doc["passed"] is True
    assert np.max(np.abs(K)) < 1e-12

    # the option is gone: a grid's epsilon cannot be misstated
    res = runner.invoke(main, ["k-energy", "--path",
                               str(tmp_path / "zero" / "run" / "grid.csv"),
                               "--epsilon", "0.25"])
    assert res.exit_code == 2
    assert "--epsilon" in res.output


@pytest.fixture(scope="module")
def burns_run(tmp_path_factory):
    """A solved Burns path with tau_power data: grid.csv and its sidecar."""
    out = tmp_path_factory.mktemp("burns")
    run_scenario(Scenario.from_dict({
        "id": "burns", "geometry": {"k": 1},
        "boundary": {"psi1": {"kind": "tau_power", "params": {
            "amplitude": 0.05, "gamma": 4.0}}},
        "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
        "analyses": ["c0_check"], "out_dir": str(out)}))
    return out


@pytest.mark.parametrize("edit,named", [
    (lambda m: m.update(psi1="zero"), "psi1 must be an object"),
    (lambda m: m.update(epsilon="0.5"), "epsilon must be a real number"),
    (lambda m: m["profile"].update(k=1.5), "profile.k must be an integer"),
    (lambda m: m["psi1"]["params"].update(k=1, tau_min=1.0),
     "psi1.params has unknown keys ['k', 'tau_min']")],
    ids=["string-psi1", "string-epsilon", "fractional-k", "sidecar-0.11"])
def test_k_energy_names_a_bad_sidecar_field(tmp_path, burns_run, edit, named):
    # the string psi1 and epsilon used to end in AttributeError and numpy
    # tracebacks (exit 1); k = 1.5 and the keys a 0.11 sidecar wrote for
    # tau_power data were read and the energy judged
    run = tmp_path / "run"
    run.mkdir()
    (run / "grid.csv").write_bytes((burns_run / "grid.csv").read_bytes())
    meta = json.loads((burns_run / "grid.meta.json").read_text())
    edit(meta)
    (run / "grid.meta.json").write_text(json.dumps(meta))
    res = CliRunner().invoke(main, ["k-energy", "--path",
                                    str(run / "grid.csv"),
                                    "--out", str(tmp_path / "energy")])
    assert res.exit_code == 2, res.output
    assert named in res.output
    assert not (tmp_path / "energy" / "energy.json").exists()


def test_k_energy_refuses_a_nan_in_the_grid(tmp_path, burns_run):
    # a NaN in phi used to be judged, and energy.json written
    run = tmp_path / "run"
    run.mkdir()
    (run / "grid.meta.json").write_bytes(
        (burns_run / "grid.meta.json").read_bytes())
    rows = (burns_run / "grid.csv").read_text().splitlines()
    rho, t, _ = rows[100].split(",")
    rows[100] = f"{rho},{t},nan"
    (run / "grid.csv").write_text("\n".join(rows) + "\n")
    res = CliRunner().invoke(main, ["k-energy", "--path",
                                    str(run / "grid.csv"),
                                    "--out", str(tmp_path / "energy")])
    assert res.exit_code == 3, res.output
    assert res.stderr.startswith("error: ") and "NaN" in res.stderr
    assert not (tmp_path / "energy" / "energy.json").exists()


def test_cli_ricci_scan_reads_a_checked_profile(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(BURNS_DOC))
    res = CliRunner().invoke(main, ["ricci-scan", "--config", str(path),
                                    "--out", str(tmp_path / "ok")])
    assert res.exit_code == 0, res.output
    assert "mixed" in res.output
    # k = 1.5 used to scan a profile on no bundle and print mixed
    path.write_text(json.dumps({**BURNS_DOC, "k": 1.5}))
    res = CliRunner().invoke(main, ["ricci-scan", "--config", str(path),
                                    "--out", str(tmp_path / "bad")])
    assert res.exit_code == 2, res.output
    assert "profile.k must be an integer >= 1, got 1.5" in res.output
    assert not (tmp_path / "bad").exists()


def test_cli_ricci_scan_of_a_short_sampled_profile(tmp_path):
    # the table grid ran to 100 tau_min past this profile's tau_max = 20,
    # so a valid profile exited 2 with "tau out of profile domain"
    tau = np.linspace(1.0, 20.0, 40)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "form": "samples", "n": 2, "k": 2, "tau_min": 1.0,
        "params": {"tau": tau.tolist(), "phi": (tau - 1.0 / tau).tolist()}}))
    res = CliRunner().invoke(main, ["ricci-scan", "--config", str(path),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "mixed" in res.output
    rows = np.loadtxt(tmp_path / "curvature_scan.csv", delimiter=",",
                      skiprows=1)
    assert len(rows) == 100 and rows[-1, 0] == 20.0


def test_cli_validation_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n": 2, "k": 0, "tau_min": 1.0,
                                    "epsilon": 0.5}))
    runner = CliRunner()
    res = runner.invoke(main, ["solve-geodesic", "--config", str(cfg_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("given,named", [
    ({"grid": {"nrho": 17, "n_t": 17}}, "nrho"),
    ({"schedule": {"ratio": 0.5}}, "schedule"),
    ({"grid": {"n_rho": 17, "n_t": 2}}, "n_t"),
    ({"grid": {"n_rho": 17, "n_t": 17, "rho_min": 3.0, "rho_max": 1.0}},
     "rho_min"),
    ({"upsilon_mode": "profile-weighted"}, "upsilon_mode"),
    ({"grid": {"n_rho": 17.5, "n_t": 17}}, "n_rho"),
    ({"epsilon": "0.5"}, "epsilon"),
    ({"tau_min": "1.0"}, "tau_min"),
    ({"psi1": "zero"}, "boundary.psi1"),
    ({"psi1": {"kind": "exp", "params": {"amplitude": 0.1}}},
     "boundary.psi1.params: missing 'gamma'"),
    ({"k": True}, "geometry.k"),
    ({"profile": {"kind": "lebrun"}}, "geometry.profile")],
    ids=["misspelled-grid-key", "schedule", "two-t-nodes",
         "reversed-interval", "upsilon-mode", "fractional-n-rho",
         "string-epsilon", "string-tau-min", "string-psi1", "missing-gamma",
         "bool-k", "profile-document-with-shorthand"])
def test_cli_solver_input_errors_exit_2(tmp_path, given, named):
    # with decaying data the reversed interval used to fail the boundary
    # check, a numerical failure (exit 3), and so did k = true, solved on
    # O(-1); with a misspelled key or a stale upsilon_mode the solve ran on
    # the default grid and exited 0; the wrong-typed values raised
    # TypeError or AttributeError (exit 1), and a missing gamma was named
    # only as 'gamma'; a profile document next to n, k and tau_min was
    # named only as 'form'
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "n": 2, "k": 2, "tau_min": 1.0, "epsilon": 0.5,
        "psi1": {"kind": "exp", "params": {"amplitude": 0.1, "gamma": 4.0,
                                           "rho_ref": 0.96}}, **given}))
    res = CliRunner().invoke(main, ["solve-geodesic", "--config",
                                    str(cfg_path), "--out",
                                    str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert named in res.output
    assert not (tmp_path / "run" / "grid.csv").exists()


def test_cli_intersect(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["intersect", "--n", "2", "--k", "3",
                               "--oracle",
                               "--out", str(tmp_path / "toric.json")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "toric.json").read_text())
    assert doc["certificate"]["opposite_signs"] is True
    res = runner.invoke(main, ["intersect", "--n", "1", "--k", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("k,classification", [(3, "zero"), (2, "mixed")])
def test_cli_ricci_scan_at_n_3(tmp_path, k, classification):
    # Calabi's metric is Ricci-flat, and O(-2) over CP^2 has Ricci of
    # mixed sign; --n 3 used to exit 2 ("specific to n=2")
    res = CliRunner().invoke(main, ["ricci-scan", "--n", "3", "--k", str(k),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert res.output.strip() == classification


def test_cli_ricci_scan_and_decay_fit(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["ricci-scan", "--k", "3", "--tau-min", "1.0",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "mixed" in res.output
    doc = json.loads((tmp_path / "ricci_scan.json").read_text())
    assert doc["classification"] == "mixed"
    res = runner.invoke(main, ["decay-fit",
                               "--input",
                               str(tmp_path / "curvature_scan.csv"),
                               "--column", "ric_base", "--r-column", "r"])
    assert res.exit_code == 0, res.output
    fit = json.loads(res.output)
    assert fit["exponent"] is None or fit["exponent"] < 0
    res = runner.invoke(main, ["decay-fit",
                               "--input",
                               str(tmp_path / "curvature_scan.csv"),
                               "--column", "nonsense"])
    assert res.exit_code == 2


def test_cli_batch(tmp_path):
    manifest = {"scenarios": [
        {"id": "t1",
         "geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
         "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
         "analyses": ["c0_check"]},
        {"id": "t2", "geometry": {"n": 2, "k": 1},
         "analyses": ["intersections"]},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    runner = CliRunner()
    res = runner.invoke(main, ["batch", "--config", str(path),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 rows

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"scenarios": []}))
    res = runner.invoke(main, ["batch", "--config", str(empty),
                               "--out", str(tmp_path / "out2")])
    assert res.exit_code == 0


@pytest.mark.parametrize("entry,named", [
    ({"geometry": {"k": 2, "taumin": 2.0}}, "taumin"),
    ({"outdir": "elsewhere"}, "outdir"),
    ({"solver": {"epsilon": 0.5, "grid": {"n_rho": 17.5, "n_t": 17}}},
     "n_rho"),
    ({"geometry": {"profile": "lebrun"}}, "geometry.profile"),
    ({"geometry": {"k": 2, "profile": {
        "form": "lebrun", "n": 2, "k": 1, "tau_min": 1.0, "params": {}}},
      "analyses": ["c0_check", "intersections"]}, "geometry.profile"),
    ({"geometry": {"n": 3, "k": 2, "tau_min": 0.0}}, "geometry.tau_min")],
    ids=["geometry-taumin", "top-level-outdir", "fractional-n-rho",
         "string-profile", "two-bundles", "lebrun-n3-solve"])
def test_cli_batch_rejects_a_bad_scenario(tmp_path, entry, named):
    # the first two ran (tau_min 1.0, the default out_dir) and exited 0; the
    # third failed its solve with a TypeError; the string profile failed
    # when it ran (exit 3), and the two-bundle scenario solved on O(-1) and
    # certified O(-2) (exit 0); an n = 3 lebrun solve is read like any other
    scenario = {"id": "t1", "geometry": {"k": 2},
                "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
                "analyses": ["c0_check"], **entry}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    res = CliRunner().invoke(main, ["batch", "--config", str(path),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert named in res.output
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_cli_batch_solves_on_n_3(tmp_path):
    # the lebrun form covers every n: a solve on O(-2) over CP^2 used to be
    # refused ("specific to n=2", exit 2)
    scenario = {"id": "n3k2", "geometry": {"n": 3, "k": 2},
                "solver": {"epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17}},
                "analyses": ["c0_check"]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    res = CliRunner().invoke(main, ["batch", "--config", str(path),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["id"], row["passed"]) for row in rows] == [("n3k2", "True")]
