import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from alegeo.energy import (
    MixedBackgroundError,
    OffShellError,
    _cumulative_trapezoid,
    _simpson,
    _path_curvature,
    _path_fields,
    convexity_audit,
    energy_report,
    k_energy_first_variation,
    k_energy_second_derivative,
)
from alegeo.geodesic import PathGrid, SolverConfig, solve_epsilon_geodesic
from alegeo.potentials import (
    exp_decay_potential,
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

def test_first_variation_constant_path_scalar_flat():
    p = lebrun_profile(1, 1.0)  # Burns, scalar-flat
    rho = np.linspace(float(p.rho_of_tau(2.0)), float(p.rho_of_tau(2.0)) + 6,
                      65)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t,
                 phi=np.ones((65, 1)) * (0.3 * t * (t - 1.0))[None, :],
                 psi0=zero_potential(), psi1=zero_potential(),
                 background=p, epsilon=0.5)
    assert k_energy_first_variation(g, 8) == pytest.approx(0.0, abs=1e-12)


def test_first_variation_flat_constant_path():
    flat = flat_profile()
    rho = np.linspace(0.0, 6.0, 65)
    t = np.linspace(0.0, 1.0, 17)
    g = PathGrid(rho_nodes=rho, t_nodes=t,
                 phi=np.ones((65, 1)) * (0.1 * t)[None, :],
                 psi0=zero_potential(), psi1=zero_potential(),
                 background=flat, epsilon=0.5)
    assert k_energy_first_variation(g, 8) == pytest.approx(0.0, abs=1e-12)


def test_first_variation_refined_grid_oracle():
    flat = flat_profile()

    def value(n_rho):
        rho = np.linspace(0.0, 6.0, n_rho)
        t = np.linspace(0.0, 1.0, 9)
        g = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((n_rho, 9)),
                     psi0=zero_potential(),
                     psi1=exp_decay_potential(0.1, 4.0),
                     background=flat, epsilon=0.5)
        return k_energy_first_variation(g, 4)

    coarse, fine = value(257), value(2561)
    assert coarse == pytest.approx(fine, rel=1e-6)


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
    direct = float(simpson((-fields["v"] * R * V)[:, 8], x=rho))
    assert k_energy_first_variation(g, 8) == pytest.approx(direct, rel=2e-4)


# ---------------------------------------------------------------------------
# second derivative decomposition
# ---------------------------------------------------------------------------

def test_trivial_path_all_terms_vanish():
    g, _ = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                  SolverConfig(epsilon=0.5))
    rep = energy_report(g, 0.5)
    assert np.max(np.abs(rep.dK_dt)) < 1e-12
    assert np.max(np.abs(rep.K_values)) < 1e-12
    assert np.max(np.abs(rep.lich_term)) < 1e-12
    assert np.max(np.abs(rep.ricci_term)) < 1e-12
    assert np.max(np.abs(rep.grad_term)) < 1e-12
    assert np.max(np.abs(rep.d2K_dt2_fd)) < 1e-9


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


def test_decomposition_identity(eh_sweep):
    for g, eps in zip(eh_sweep, EPSILONS):
        rep = energy_report(g, eps)
        assembled = rep.lich_term + rep.ricci_term + rep.grad_term
        assert np.max(np.abs(rep.d2K_dt2_formula - assembled)) < 1e-10


def test_formula_vs_fd_within_one_percent(eh_sweep):
    for g, eps in zip(eh_sweep, EPSILONS):
        rep = energy_report(g, eps)
        assert rep.t_samples.size == 129
        assert rep.fd_agreement() < 0.01


def test_node_api_matches_report(eh_sweep):
    g = eh_sweep[0]
    rep = energy_report(g, 0.5)
    d = k_energy_second_derivative(g, 64, 0.5)
    assert d["lich_term"] == pytest.approx(rep.lich_term[63], abs=1e-14)
    assert d["total"] == pytest.approx(rep.d2K_dt2_formula[63], abs=1e-14)


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
    with pytest.raises(OffShellError):
        k_energy_second_derivative(g, 8, 0.5)


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
    for order in (0, 1, 2, 3):
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
    jet = psi.jet(rho, 4)
    assert len(jet) == 5
    for m in range(5):
        assert np.array_equal(jet[m], psi(rho, m))
    with pytest.raises(ValueError, match="0..4"):
        psi.jet(rho, 5)


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


def test_energy_report_inverts_the_profile_once_per_field(eh_sweep,
                                                          monkeypatch):
    calls = []
    inverse = RadialProfile.tau_of_rho

    def counted(self, rho):
        calls.append(np.size(rho))
        return inverse(self, rho)

    monkeypatch.setattr(RadialProfile, "tau_of_rho", counted)
    energy_report(eh_sweep[-1], EPSILONS[-1])
    # one for the background and one for psi1's jet in each of the
    # on-shell check (u', u'' and psi1 to order 2) and the path fields
    # (u' to u''' and psi1 to order 3)
    assert len(calls) == 4
