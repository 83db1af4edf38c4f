import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from alegeo import __version__, runner, toric
from alegeo.cli import main
from alegeo.profiles import lebrun_profile
from alegeo.runner import (
    Scenario,
    ScenarioError,
    batch,
    canonical_hash,
    load_grid_csv,
    run_scenario,
    write_summary_csv,
)


EH = lebrun_profile(2, 1.0)


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


def eh_data_scenario(out_dir, epsilon=0.5, n=33, analyses=("c0_check",)):
    return Scenario.from_dict({
        "id": f"eh-{epsilon}",
        "geometry": {"form": "lebrun", "n": 2, "k": 2, "tau_min": 1.0},
        "boundary": {"psi1": {"kind": "exp", "params": {
            "amplitude": 0.1, "gamma": 4.0, "rho_ref": 0.96}}},
        "solver": {"epsilon": epsilon, "grid": {"n_rho": n, "n_t": n}},
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
    assert len(factors) == len(iters) == 2
    assert all(1 <= f < i for f, i in zip(factors, iters))
    margins = report["positivity_margins"]
    assert set(margins["worst_nodes"]) == {"w1", "w2", "M"}
    assert margins["M"] > 0


def test_cache_and_determinism(tmp_path):
    s = eh_data_scenario(tmp_path / "run")
    def manifest_doc():
        doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
        timings = doc.pop("timings")
        assert timings["solve_wall_time"] > 0
        assert timings["versions"]["alegeo"] == __version__
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
                        lambda n, k, which: {
                            "value": 1.2 * oracle(n, k, which)["value"],
                            "error": 0.0})
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
    # n = 3 has no closed-form LeBrun profile; intersections never solve
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


def test_batch_no_probe_row_without_distinct_epsilons(tmp_path):
    # identical scenarios under two ids are not an epsilon sweep
    a = eh_data_scenario(tmp_path / "a", epsilon=0.5, n=17)
    b = Scenario.from_dict({**a.__dict__, "id": "eh-0.5-copy",
                            "analyses": list(a.analyses),
                            "out_dir": str(tmp_path / "b")})
    rows, _ = batch([a, b])
    assert [row["id"] for row in rows] == ["eh-0.5", "eh-0.5-copy"]
    assert all(row["passed"] for row in rows)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_solve_and_k_energy(tmp_path):
    cfg = {"n": 2, "k": 2, "tau_min": 1.0, "profile": "lebrun",
           "psi0": {"kind": "zero", "params": {}},
           "psi1": {"kind": "exp", "params": {"amplitude": 0.1,
                                              "gamma": 4.0,
                                              "rho_ref": 0.96}},
           "epsilon": 0.5, "grid": {"n_rho": 17, "n_t": 17},
           "analyses": ["c0_check"]}
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = CliRunner()
    res = runner.invoke(main, ["solve-geodesic", "--config", str(cfg_path),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "run" / "grid.csv").exists()
    res = runner.invoke(main, ["k-energy", "--path",
                               str(tmp_path / "run" / "grid.csv"),
                               "--epsilon", "0.5",
                               "--out", str(tmp_path / "energy")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "energy" / "energy.json").read_text())
    assert len(doc["K_values"]) == 17


def test_cli_validation_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n": 2, "k": 0, "tau_min": 1.0,
                                    "epsilon": 0.5}))
    runner = CliRunner()
    res = runner.invoke(main, ["solve-geodesic", "--config", str(cfg_path)])
    assert res.exit_code == 2


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
