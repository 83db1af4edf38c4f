import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from alegeo import energy
from alegeo.energy import (
    MixedBackgroundError,
    OffShellError,
    _cumulative_trapezoid,
    _d_rho,
    _first_variation_curve,
    _simpson,
    _path_fields,
    convexity_audit,
    energy_report,
    energy_verdict,
)
from alegeo.geodesic import (
    PathGrid,
    PositivityLoss,
    SolverConfig,
    _FixedData,
    solve_epsilon_geodesic,
)
from alegeo.potentials import (
    exp_decay_potential,
    potential_from_json,
    tau_power_potential,
    zero_potential,
)
from alegeo.profiles import RadialProfile, flat_profile, lebrun_profile


EH = lebrun_profile(2, 1.0)
EPSILONS = (0.5, 0.25, 0.125)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 64, 65])
def test_quadratures_match_scipy_on_uniform_grids(n):
    # scipy is the reference: on a uniform grid its simpson takes the
    # end-interval correction for an even node count
    x = np.linspace(-0.7, 2.3, n)
    rates = np.array([0.0, 0.5, -1.3, 3.0])
    y = (2.0 + np.cos(3.0 * x))[:, None] * np.exp(rates[None, :] * x[:, None])
    h = x[1] - x[0]
    np.testing.assert_allclose(_simpson(y, h), simpson(y, x=x, axis=0),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        _cumulative_trapezoid(y, h),
        cumulative_trapezoid(y, x=x, axis=0, initial=0.0),
        rtol=1e-14, atol=0.0)


def energy_config(epsilon, profile=EH):
    # inner edge close to the zero section so endpoint fluxes are negligible
    rho_min = float(profile.rho_of_tau(profile.tau_min * (1.0 + 1e-4)))
    return SolverConfig(epsilon=epsilon, n_rho=193, n_t=129,
                        rho_min=rho_min, rho_max=rho_min + 12.0,
                        newton_tol=1e-9)


@pytest.fixture(scope="module")
def eh_sweep():
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    grids = []
    for eps in EPSILONS:
        g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                        energy_config(eps))
        assert rep.residual_sup <= 1e-9
        grids.append(g)
    return grids


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

def first_variation(g, j):
    """energy_report's dK/dt at the t node j."""
    fields = _path_fields(g)
    return float(_first_variation_curve(g, fields)[j])


def test_first_variation_constant_path_scalar_flat():
    p = lebrun_profile(1, 1.0)  # Burns, scalar-flat
    rho = np.linspace(float(p.rho_of_tau(2.0)), float(p.rho_of_tau(2.0)) + 6,
                      65)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t,
                 phi=np.ones((65, 1)) * (0.3 * t * (t - 1.0))[None, :],
                 psi0=zero_potential(), psi1=zero_potential(),
                 background=p, epsilon=0.5)
    assert first_variation(g, 8) == pytest.approx(0.0, abs=1e-12)


def test_first_variation_flat_constant_path():
    flat = flat_profile()
    rho = np.linspace(0.0, 6.0, 65)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t,
                 phi=np.ones((65, 1)) * (0.1 * t)[None, :],
                 psi0=zero_potential(), psi1=zero_potential(),
                 background=flat, epsilon=0.5)
    assert first_variation(g, 8) == pytest.approx(0.0, abs=1e-12)


def test_first_variation_refined_grid_oracle():
    flat = flat_profile()

    def value(n_rho):
        rho = np.linspace(0.0, 6.0, n_rho)
        t = np.linspace(0.0, 1.0, 9)
        g = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((n_rho, 9)),
                     psi0=zero_potential(),
                     psi1=exp_decay_potential(0.1, 4.0),
                     background=flat, epsilon=0.5)
        return first_variation(g, 4)

    coarse, fine = value(257), value(2561)
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_path_fields_add_phi_differences_to_the_fixed_data():
    # at phi = 0 the report's w', w'' and Phi_t' are the solver's fixed
    # data, in its summation order, also where psi0 != 0
    rho0 = float(EH.rho_of_tau(1.0 + 1e-4))
    g = PathGrid(rho_nodes=np.linspace(rho0, rho0 + 12.0, 65),
                 t_nodes=np.linspace(0.0, 1.0, 45), phi=np.zeros((65, 45)),
                 psi0=tau_power_potential(EH, -0.05, 3.0),
                 psi1=tau_power_potential(EH, 0.1, 4.0),
                 background=EH, epsilon=0.125)
    fields = _path_fields(g)
    assert sorted(fields) == ["v1", "v2", "w1", "w2", "w3"]
    assert np.array_equal(fields["w1"], g.fixed.w1)
    assert np.array_equal(fields["w2"], g.fixed.w2)
    assert np.array_equal(fields["v1"], np.broadcast_to(g.fixed.P, (65, 45)))


def _path_curvature(grid, fields):
    """Complex-trace scalar curvature R_c(w) on the grid.

    R_c = -(n-1) F'/w' - F''/w'' with F = (n-1) log w' + log w'' - n rho.
    F' is closed-form in (w', w'', w'''); F'' would need w'''' and is taken
    by rho-differentiation of F' instead.  Noise-amplified where w'' is
    small; use the parts form of the first variation on solved grids.
    """
    n = grid.background.n
    w1, w2, w3 = fields["w1"], fields["w2"], fields["w3"]
    F1 = (n - 1) * w2 / w1 + w3 / w2 - n
    F2 = _d_rho(F1, grid.h_rho)
    return -(n - 1) * F1 / w1 - F2 / w2


def test_first_variation_matches_curvature_quadrature():
    # compactly supported bump path: the parts form and the direct
    # -int v R V quadrature must agree (no endpoint contributions)
    rho0 = float(EH.rho_of_tau(2.0))
    rho = np.linspace(rho0, rho0 + 6.0, 513)
    t = np.linspace(0.0, 1.0, 17)
    bump = 0.05 * np.exp(-(((rho - (rho0 + 3.0)) / 0.5) ** 2))
    g = PathGrid(rho_nodes=rho, t_nodes=t, phi=bump[:, None] * t[None, :],
                 psi0=zero_potential(), psi1=zero_potential(),
                 background=EH, epsilon=0.5)
    fields = _path_fields(g)
    R = _path_curvature(g, fields)
    V = fields["w1"] ** (EH.n - 1) * fields["w2"]
    # with zero data Phi_t is phi_t
    v = np.gradient(g.phi, g.h_t, axis=1, edge_order=2)
    direct = float(simpson((-v * R * V)[:, 8], x=rho))
    assert first_variation(g, 8) == pytest.approx(direct, rel=2e-4)


# ---------------------------------------------------------------------------
# second derivative decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("background", [EH, lebrun_profile(1, 1.0)],
                         ids=["eh", "burns"])
def test_trivial_path_all_terms_vanish(background):
    # on Burns (scalar-flat, Ric of mixed sign) the Ricci term vanishes
    # only because w = u, so it needs the background's exact F''
    g, _ = solve_epsilon_geodesic(background, zero_potential(),
                                  zero_potential(), SolverConfig(epsilon=0.5))
    rep = energy_report(g, 0.5)
    assert np.max(np.abs(rep.dK_dt)) < 1e-12
    assert np.max(np.abs(rep.K_values)) < 1e-12
    assert np.max(np.abs(rep.lich_term)) < 1e-12
    assert np.max(np.abs(rep.ricci_term)) < 1e-12
    assert np.max(np.abs(rep.grad_term)) < 1e-12
    assert np.max(np.abs(rep.d2K_dt2_fd)) < 1e-9
    assert energy_verdict(rep, background)["passed"]


@pytest.mark.parametrize("n_rho", [65, 129, 257])
def test_trivial_burns_ricci_term_under_refinement(n_rho):
    # exact Ricci term 0 at every resolution, with the inner edge at
    # tau_min (1 + 1e-4) where u'' is small
    burns = lebrun_profile(1, 1.0)
    cfg = replace(energy_config(0.5, burns), n_rho=n_rho, n_t=17)
    g, _ = solve_epsilon_geodesic(burns, zero_potential(), zero_potential(),
                                  cfg)
    rep = energy_report(g, 0.5)
    assert np.max(np.abs(rep.ricci_term)) <= 1e-13
    assert energy_verdict(rep, burns)["passed"]


def test_eh_decomposition_structure(eh_sweep):
    for g, eps in zip(eh_sweep, EPSILONS):
        rep = energy_report(g, eps)
        # Ricci-flat background: ricci term vanishes identically
        assert np.max(np.abs(rep.ricci_term)) < 1e-12
        # the other two integrands are squares
        assert np.all(rep.lich_term >= 0.0)
        assert np.all(rep.grad_term >= 0.0)
        total = rep.lich_term + rep.grad_term
        assert np.allclose(rep.d2K_dt2_formula, total, atol=1e-12)


def test_formula_vs_fd_within_one_percent(eh_sweep):
    for g, eps in zip(eh_sweep, EPSILONS):
        rep = energy_report(g, eps)
        assert rep.t_samples.size == 129
        assert rep.fd_agreement() < 0.01


FLUXES_DROPPED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: dK/dt drops both endpoint fluxes [Phi_t F' W], "
    "which vanish only for k = n")


@pytest.mark.parametrize("k", [pytest.param(1, marks=FLUXES_DROPPED), 2,
                               pytest.param(3, marks=FLUXES_DROPPED)],
                         ids=["burns", "eh", "k3"])
@pytest.mark.parametrize("n_rho,n_t", [(33, 23), (65, 45)])
def test_first_variation_vanishes_on_the_background_slice(k, n_rho, n_t):
    # with psi0 = 0 the t = 0 slice is the scalar-flat background, so
    # dK/dt(0) = 0 exactly: a gate with no finite differences (EH reads
    # about 5e-18; Burns -0.076 and k = 3 +0.070 without the fluxes)
    profile = lebrun_profile(k, 1.0)
    cfg = replace(energy_config(0.125, profile), n_rho=n_rho, n_t=n_t)
    g, _ = solve_epsilon_geodesic(profile, zero_potential(),
                                  tau_power_potential(profile, 0.08, 4.0),
                                  cfg)
    assert abs(energy_report(g, 0.125).dK_dt[0]) <= 1e-5


def _assert_close_relative(actual, expected):
    """max |actual - expected| within 1e-10 of max |expected|."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= 1e-10 * scale


def _lebrun_energy_config(profile):
    return replace(energy_config(0.125, profile), n_rho=65, n_t=45,
                   newton_tol=1e-11)


@pytest.mark.parametrize("k", [1, 2, 3], ids=["burns", "eh", "k3"])
def test_swapping_the_ends_reverses_the_energy_curves(k):
    # psi0 <-> psi1 with t -> 1 - t maps the path to itself reversed, so
    # dK/dt maps to minus itself reversed and d2K/dt2 to itself reversed;
    # the swapped path has psi0 != 0 (measured <= 7.3e-15 for dK/dt, and
    # <= 1.5e-12 for both second derivatives)
    p = lebrun_profile(k, 1.0)
    data = tau_power_potential(p, 0.08, 4.0)
    cfg = _lebrun_energy_config(p)
    ab, ba = [energy_report(solve_epsilon_geodesic(p, *ends, cfg)[0], 0.125)
              for ends in ((zero_potential(), data), (data, zero_potential()))]
    _assert_close_relative(-ba.dK_dt[::-1], ab.dK_dt)
    _assert_close_relative(ba.d2K_dt2_formula[::-1], ab.d2K_dt2_formula)
    _assert_close_relative(ba.d2K_dt2_fd[::-1], ab.d2K_dt2_fd)


@pytest.mark.parametrize("k", [1, 2, 3], ids=["burns", "eh", "k3"])
def test_kahler_class_scaling_scales_the_energy_curves(k):
    # tau_min, the amplitude and epsilon times lam and the rho nodes shifted
    # by log lam scale phi by lam (tests/test_geodesic.py), and K, through
    # its volume density, by lam^n (measured <= 2.3e-11)
    lam, n = 2.0, 2
    cfg = _lebrun_energy_config(lebrun_profile(k, 1.0))
    shift = np.log(lam)
    scaled = replace(cfg, epsilon=lam * cfg.epsilon,
                     rho_min=cfg.rho_min + shift, rho_max=cfg.rho_max + shift)
    reports = []
    for scale, c in ((1.0, cfg), (lam, scaled)):
        p = lebrun_profile(k, scale)
        g, _ = solve_epsilon_geodesic(
            p, zero_potential(), tau_power_potential(p, 0.08 * scale, 4.0), c)
        reports.append(energy_report(g, c.epsilon))
    one, two = reports
    _assert_close_relative(two.dK_dt, lam ** n * one.dK_dt)
    _assert_close_relative(two.d2K_dt2_formula, lam ** n * one.d2K_dt2_formula)
    _assert_close_relative(two.d2K_dt2_fd, lam ** n * one.d2K_dt2_fd)


def test_sign_regression(eh_sweep):
    # frozen values pin the global sign convention of the on-shell term
    rep = energy_report(eh_sweep[0], 0.5)
    assert rep.dK_dt[64] == pytest.approx(0.004886, abs=2e-5)
    assert rep.K_values[-1] == pytest.approx(0.007994, abs=2e-5)
    assert rep.min_second_derivative() == pytest.approx(6.878e-3, abs=1e-4)
    assert rep.min_second_derivative() > 0.0


# ---------------------------------------------------------------------------
# convexity audit
# ---------------------------------------------------------------------------

def test_convexity_audit_eh(eh_sweep):
    aud = convexity_audit(eh_sweep, list(EPSILONS))
    assert aud["passed"]
    assert aud["classification"] == "zero"
    assert all(m >= -1e-6 for m in aud["minima"])


def test_convexity_audit_refuses_burns():
    burns = lebrun_profile(1, 1.0)
    g, _ = solve_epsilon_geodesic(burns, zero_potential(), zero_potential(),
                                  SolverConfig(epsilon=0.5))
    with pytest.raises(MixedBackgroundError, match="mixed"):
        convexity_audit([g], [0.5])
    # the verdict records that the convexity theorem does not apply
    details = energy_verdict(energy_report(g, 0.5), burns)["details"]
    assert details["ricci_classification"] == "mixed"
    assert details["convexity_applicable"] is False


def test_verdict_fails_when_a_term_flips_sign(monkeypatch):
    # EH tau_power data at 65x45 and eps = 1/8; the formula is the sum of
    # the terms, so the finite differences must catch a wrong term
    cfg = replace(energy_config(0.125), n_rho=65, n_t=45)
    g, _ = solve_epsilon_geodesic(EH, zero_potential(),
                                  tau_power_potential(EH, 0.1, 4.0), cfg)
    verdict = energy_verdict(energy_report(g, 0.125), EH)
    assert verdict["passed"]
    assert verdict["details"]["fd_agreement"] < 0.005

    terms = energy._decomposition_terms

    def flipped(*args):
        lich, ricci, grad = terms(*args)
        return lich, ricci, -grad

    monkeypatch.setattr(energy, "_decomposition_terms", flipped)
    verdict = energy_verdict(energy_report(g, 0.125), EH)
    d = verdict["details"]
    assert not verdict["passed"]
    assert d["fd_agreement"] == pytest.approx(0.71, abs=0.01)
    assert d["min_d2K"] > 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_off_shell_rejected():
    psi1 = exp_decay_potential(0.1, 4.0,
                               rho_ref=float(EH.rho_of_tau(2.0)))
    rho0 = float(EH.rho_of_tau(2.0))
    rho = np.linspace(rho0, rho0 + 6.0, 33)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((33, 17)),
                 psi0=zero_potential(), psi1=psi1,
                 background=EH, epsilon=0.5)
    with pytest.raises(OffShellError):
        energy_report(g, 0.5)


def test_nan_in_phi_is_rejected():
    # a NaN passed both the positivity test and the on-shell test, and the
    # report came back with NaN terms and fd_agreement
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=float(EH.rho_of_tau(2.0)))
    g, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                  SolverConfig(epsilon=0.5, n_rho=33, n_t=33))
    g.phi[5, 5] = np.nan
    with pytest.raises(PositivityLoss, match="NaN"):
        energy_report(g, 0.5)


def test_slow_decay_rejected():
    p3 = flat_profile(n=3)
    rho0 = 0.0
    rho = np.linspace(rho0, rho0 + 6.0, 33)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((33, 17)),
                 psi0=zero_potential(),
                 psi1=exp_decay_potential(0.1, 2.0, rho_ref=rho0),
                 background=p3, epsilon=0.5)
    # gamma = 2 = 2n - 4 for n = 3: second variation not well defined
    with pytest.raises(ValueError, match="decay"):
        energy_report(g, 0.5)


# ---------------------------------------------------------------------------
# tau_power data
# ---------------------------------------------------------------------------

def test_tau_power_derivative_consistency():
    psi = tau_power_potential(EH, 0.1, 4.0)
    rho = np.linspace(-2.0, 3.0, 7)
    h = 1e-5
    # tolerance limited by the root-find noise in tau(rho), ~1e-10/h
    for order in (0, 1, 2):
        fd = (psi(rho + h, order) - psi(rho - h, order)) / (2 * h)
        assert np.allclose(fd, psi(rho, order + 1), rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("make", [
    zero_potential,
    lambda: exp_decay_potential(0.1, 4.0, rho_ref=0.5),
    lambda: tau_power_potential(lebrun_profile(3, 1.0), 0.1, 4.0),
], ids=["zero", "exp", "tau_power"])
def test_potential_jet_matches_each_order(make):
    psi = make()
    rho = np.linspace(-1.0, 3.0, 9)
    jet = psi.jet(rho, 3)
    assert len(jet) == 4
    for m in range(4):
        assert np.array_equal(jet[m], psi(rho, m))
    with pytest.raises(ValueError, match="0..3"):
        psi.jet(rho, 4)


@pytest.mark.parametrize("make,params", [
    (zero_potential, {}),
    (lambda: exp_decay_potential(0.1, 4.0, rho_ref=0.5),
     {"amplitude": 0.1, "gamma": 4.0, "rho_ref": 0.5}),
    (lambda: tau_power_potential(EH, 0.1, 4.0),
     {"amplitude": 0.1, "gamma": 4.0})], ids=["zero", "exp", "tau_power"])
def test_potential_json_round_trip(make, params):
    # tau_power writes no copy of the profile's k and tau_min
    psi = make()
    doc = psi.to_json_dict()
    assert doc == {"kind": psi.kind, "params": params}
    back = potential_from_json(doc, EH)
    assert back.to_json_dict() == doc
    rho = np.linspace(0.5, 3.0, 5)
    assert np.array_equal(back.jet(rho, 2), psi.jet(rho, 2))


@pytest.mark.parametrize("doc,field", [
    ({"kind": "exp", "params": {"amplitude": 0.1, "gamma": 4.0,
                                "rho_rf": 1.0}},
     "psi1.params has unknown keys ['rho_rf']"),
    ({"kind": "tau_power", "params": {"amplitude": 0.1, "gamma": 4.0,
                                      "rho_ref": 1.0}},
     "psi1.params has unknown keys ['rho_ref']"),
    ({"kind": "tau_power", "params": {"amplitude": 0.1, "gamma": 4.0,
                                      "k": 2, "tau_min": 1.0}},
     "psi1.params has unknown keys ['k', 'tau_min']")],
    ids=["exp-typo", "tau-power-rho-ref", "tau-power-0.11"])
def test_potential_json_rejects_unknown_params(doc, field):
    # each used to run: the exp typo with rho_ref 0, the tau_power keys
    # ignored
    with pytest.raises(ValueError, match=re.escape(field)):
        potential_from_json(doc, EH, "psi1")


def test_tau_power_smooth_at_zero_section():
    psi = tau_power_potential(EH, 0.1, 4.0)
    rho = float(EH.rho_of_tau(1.0 + 1e-6))
    # every rho-derivative carries a factor phi(tau) ~ k (tau - tau_min)
    assert abs(psi(rho, 0) - 0.1) < 1e-6
    for order in (1, 2, 3):
        assert abs(float(psi(rho, order))) < 1e-5
    assert psi.r_decay == 4.0


def test_tau_power_validation():
    with pytest.raises(ValueError):
        tau_power_potential(EH, 0.1, 0.0)
    with pytest.raises(ValueError):
        tau_power_potential(flat_profile(), 0.1, 4.0)


def _count_evaluations(monkeypatch):
    """The node counts of each tau_of_rho call and of each _FixedData
    build, recorded as they run."""
    inversions, builds = [], []
    inverse, build = RadialProfile.tau_of_rho, _FixedData.build

    def counted_inverse(self, rho):
        inversions.append(np.size(rho))
        return inverse(self, rho)

    def counted_build(grid):
        builds.append(grid.rho_nodes.size)
        return build(grid)

    monkeypatch.setattr(RadialProfile, "tau_of_rho", counted_inverse)
    monkeypatch.setattr(_FixedData, "build", staticmethod(counted_build))
    return inversions, builds


def test_energy_pass_builds_the_fixed_data_once(monkeypatch):
    # the benchmark's energy pass on 65x45: the solve's grid builds its
    # fixed data once, inverting for u and for psi1, and energy_report and
    # convexity_audit, which builds a second report, read it
    inversions, builds = _count_evaluations(monkeypatch)
    cfg = replace(energy_config(0.125), n_rho=65, n_t=45)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    grid, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    energy_report(grid, 0.125)
    assert convexity_audit([grid], [0.125])["passed"]
    assert inversions == [65] * 2
    assert builds == [65]


def test_energy_report_on_a_solved_grid_evaluates_no_fixed_data(
        eh_sweep, monkeypatch):
    # the on-shell check and the path fields read the fixed data the grid
    # built when the solve made it
    inversions, builds = _count_evaluations(monkeypatch)
    grid = eh_sweep[-1]
    rep = energy_report(grid, EPSILONS[-1])
    assert inversions == [] and builds == []
    assert rep.fd_agreement() < energy.FD_AGREEMENT_TOL
