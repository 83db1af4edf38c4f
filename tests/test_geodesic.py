from dataclasses import replace

import numpy as np
import pytest

from alegeo import geodesic
from alegeo.geodesic import (
    BoundaryInconsistency,
    NonConvergence,
    PathGrid,
    PositivityLoss,
    SolverConfig,
    c0_bound_check,
    comparison_check,
    epsilon_sweep,
    reduced_residual,
    smoothstep_cutoff,
    solve_epsilon_geodesic,
    upsilon_field,
    _FixedData,
    _StencilPattern,
    _newton_system,
    _residual,
)
from alegeo.potentials import (
    RadialPotential,
    exp_decay_potential,
    tau_power_potential,
    zero_potential,
)
from alegeo.profiles import RadialProfile, flat_profile, lebrun_profile


EH = lebrun_profile(2, 1.0)
RHO_MIN_EH = float(EH.rho_of_tau(2.0))


def constant_potential(c):
    def jet(rho, order):
        return [np.full_like(rho, c)] + [np.zeros_like(rho)] * order
    return RadialPotential(kind="const", params={"c": c}, _jet=jet)


def make_grid(profile, phi=None, n_rho=17, n_t=17, psi0=None, psi1=None,
              epsilon=0.5):
    rho_min = (float(profile.rho_of_tau(2.0 * profile.tau_min))
               if profile.tau_min > 0 else 0.0)
    rho = np.linspace(rho_min, rho_min + 6.0, n_rho)
    t = np.linspace(0.0, 1.0, n_t)
    if phi is None:
        phi = np.zeros((n_rho, n_t))
    return PathGrid(rho_nodes=rho, t_nodes=t, phi=phi,
                    psi0=psi0 or zero_potential(),
                    psi1=psi1 or zero_potential(),
                    background=profile, epsilon=epsilon)


# ---------------------------------------------------------------------------
# residual closed forms
# ---------------------------------------------------------------------------

def test_residual_exact_solution_is_zero():
    g = make_grid(EH)
    t = g.t_nodes[None, :]
    g.phi[:] = 0.5 * t * (t - 1.0) / 2.0
    G = reduced_residual(g)
    assert np.max(np.abs(G)) < 1e-14


def test_residual_constant_shift_solution():
    c = 0.3
    g = make_grid(EH, psi1=constant_potential(c))
    t = g.t_nodes[None, :]
    g.phi[:] = 0.5 * t * (t - 1.0) / 2.0
    # Psi = t*c carries the shift; psi' = 0 so the residual is unchanged
    assert np.max(np.abs(reduced_residual(g))) < 1e-14


def test_residual_continuity_start():
    g = make_grid(EH, epsilon=1.0)
    G = reduced_residual(g)  # phi = 0, so G = -(u')^{n-1} u''
    u1, u2 = EH.u_derivatives(g.rho_nodes[:-1], order=2)
    expected = -(u1 ** (EH.n - 1) * u2)[:, None]
    assert np.allclose(G, expected * np.ones_like(G), rtol=1e-13)
    assert np.all(G < 0)
    # normalized form is exactly -1
    assert np.allclose(reduced_residual(g, normalized=True), -1.0)


def test_residual_positivity_guard():
    g = make_grid(EH)
    g.phi[:] = 0.0
    g.phi[5, :] = 50.0  # destroys w'' at neighboring nodes
    with pytest.raises(PositivityLoss):
        reduced_residual(g)


# ---------------------------------------------------------------------------
# Jacobian correctness
# ---------------------------------------------------------------------------

def _system_at(g, s, mode):
    fixed = _FixedData.build(g)
    return fixed, fixed.upsilon(s, mode)


def _check_jacobian(n_rho, n_t, mode):
    rng = np.random.default_rng(7)
    g = make_grid(EH, n_rho=n_rho, n_t=n_t,
                  psi0=exp_decay_potential(0.03, 4.0, rho_ref=RHO_MIN_EH),
                  psi1=exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH))
    t = g.t_nodes[None, :]
    g.phi[:] = 0.7 * t * (t - 1.0) / 2.0
    g.phi[:-1, 1:-1] += 0.001 * rng.standard_normal(g.phi[:-1, 1:-1].shape)
    ni, nj = g.phi.shape[0] - 1, g.phi.shape[1] - 2
    fixed, ups = _system_at(g, 0.7, mode)
    R0, J, G0 = _newton_system(g, fixed, ups, _StencilPattern.build(ni, nj))
    assert R0 is not None
    # the residual-only path gives the full system's R and G bit for bit,
    # and G is the normalized residual the certificate uses
    R1, J1, G1 = _newton_system(g, fixed, ups)
    assert J1 is None
    assert np.array_equal(R0, R1) and np.array_equal(G0, G1)
    assert np.array_equal(G0, _residual(g, fixed, ups, normalized=True))
    h = 1e-6
    J = J.toarray()
    for col in rng.choice(ni * nj, size=12, replace=False):
        i, j = divmod(col, nj)
        g.phi[i, j + 1] += h
        Rp, _, _ = _newton_system(g, fixed, ups)
        g.phi[i, j + 1] -= 2 * h
        Rm, _, _ = _newton_system(g, fixed, ups)
        g.phi[i, j + 1] += h
        fd = (Rp - Rm).ravel() / (2 * h)
        assert np.allclose(J[:, col], fd, atol=1e-4)


def test_newton_jacobian_matches_finite_differences():
    # non-square grids catch an i/j transposition in the stencil pattern
    for n_rho, n_t in ((9, 9), (9, 7), (7, 11)):
        for mode in ("constant", "profile-weighted"):
            _check_jacobian(n_rho, n_t, mode)


def test_fixed_data_matches_public_residual():
    psi1 = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    g = make_grid(EH, n_rho=9, n_t=7, psi1=psi1, epsilon=0.3)
    t = g.t_nodes[None, :]
    g.phi[:] = 0.3 * t * (t - 1.0) / 2.0
    for mode in ("constant", "profile-weighted"):
        fixed, ups = _system_at(g, 0.3, mode)
        assert np.array_equal(
            _residual(g, fixed, ups, normalized=True),
            reduced_residual(g, upsilon_mode=mode, normalized=True))
        assert np.array_equal(
            ups[:, 0], upsilon_field(EH, g.rho_nodes[:-1], 0.3, mode))


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_exact_solution_reproduced(eps):
    cfg = SolverConfig(epsilon=eps)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                    cfg)
    t = g.t_nodes[None, :]
    exact = eps * t * (t - 1.0) / 2.0
    assert np.max(np.abs(g.phi - exact)) < 1e-8
    assert rep.residual_sup <= cfg.newton_tol
    assert rep.wall_time < 10.0


def test_nontrivial_solve_certificate_and_sandwich():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # independent recomputation matches the reported certificate
    res = float(np.max(np.abs(reduced_residual(g, normalized=True))))
    assert res == pytest.approx(rep.residual_sup, rel=1e-12, abs=1e-15)
    assert res <= cfg.newton_tol
    assert rep.c0_check.passed
    assert rep.positivity_margins["M"] > 0
    # each minimum sits at its worst node; field columns start at t_nodes[1]
    w1, w2, P, phi_tt = geodesic._field_arrays(g, _FixedData.build(g))
    for name, values in (("w1", w1), ("w2", w2), ("M", phi_tt * w2 - P ** 2)):
        rho_w, t_w = rep.positivity_margins["worst_nodes"][name]
        i = int(np.flatnonzero(g.rho_nodes == rho_w)[0])
        j = int(np.flatnonzero(g.t_nodes == t_w)[0])
        assert values[i, j - 1] == values.min() == rep.positivity_margins[name]


def test_symmetric_data_symmetric_solution():
    psi = exp_decay_potential(0.08, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.5)
    g, _ = solve_epsilon_geodesic(EH, psi, psi, cfg)
    assert np.max(np.abs(g.phi - g.phi[:, ::-1])) < 1e-10


def test_grid_convergence_second_order():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    sols = {}
    for m in (17, 33, 65):
        cfg = SolverConfig(epsilon=0.5, n_rho=m, n_t=m)
        g, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
        sols[m] = g
    # nested nodes: coarse node i maps to fine node 4i (resp. 2i)
    ref = sols[65].phi[::4, ::4]
    e17 = np.max(np.abs(sols[17].phi - ref))
    e33 = np.max(np.abs(sols[33].phi - sols[65].phi[::2, ::2]))
    assert 4.0 * 0.55 <= e17 / e33  # at least near-second-order gain


def test_profile_weighted_mode():
    psi0 = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.2, upsilon_mode="profile-weighted")
    g, rep = solve_epsilon_geodesic(EH, psi0, psi1, cfg)
    assert rep.residual_sup <= cfg.newton_tol
    lo, hi = rep.upsilon_range
    # conupsilon envelope with the recorded constant
    C = 1.1
    assert C ** -1 * 0.2 <= lo <= hi <= min(C * 0.2, 1.0)


def test_upsilon_field_modes():
    rho = np.linspace(1.0, 4.0, 10)
    assert np.allclose(upsilon_field(EH, rho, 0.3, "constant"), 0.3)
    w = upsilon_field(EH, rho, 0.9, "profile-weighted")
    assert np.allclose(w, 0.9)  # cutoff is 1 above 2/3
    assert smoothstep_cutoff(0.2) == 0.0
    assert smoothstep_cutoff(0.9) == 1.0
    assert 0.0 < smoothstep_cutoff(0.5) < 1.0


def _eh_tau_power_config(n_rho, n_t):
    rho_min = float(EH.rho_of_tau(1.0 + 1e-4))
    return SolverConfig(epsilon=0.125, n_rho=n_rho, n_t=n_t, rho_min=rho_min,
                        rho_max=rho_min + 12.0, newton_tol=1e-9)


@pytest.mark.parametrize("n_rho,n_t", [(33, 33), (65, 45)])
def test_profile_inverted_a_fixed_number_of_times(monkeypatch, n_rho, n_t):
    calls = []
    inverse = RadialProfile.tau_of_rho

    def counted(self, rho):
        calls.append(np.size(rho))
        return inverse(self, rho)

    monkeypatch.setattr(RadialProfile, "tau_of_rho", counted)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                    _eh_tau_power_config(n_rho, n_t))
    assert sum(rep.stage_iterations) > len(rep.stage_iterations)
    # one for the background and one for psi1's jet in each of the
    # boundary check on the full grid, the solve's fixed data and the
    # certificate's fixed data, which is built afresh from the profile
    assert len(calls) == 6


def test_zero_data_stages_converge_at_first_iterate():
    cfg = SolverConfig(epsilon=0.1)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                    cfg)
    assert len(rep.stage_iterations) == len(cfg.schedule()) == 5
    assert rep.stage_iterations[1:] == [1] * 4


def test_predictor_leaving_the_cone_falls_back(monkeypatch):
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=33, n_t=33)
    g_ref, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)

    predictions = []

    def non_elliptic(t, s, solved):
        phi = solved[-1][1].copy()
        phi[5, :] = 50.0  # destroys w'' at the neighbouring nodes
        predictions.append(phi)
        return phi

    monkeypatch.setattr(geodesic, "_secant_predictor", non_elliptic)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert len(predictions) == len(cfg.schedule()) - 1 == 2
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_ref.phi)) < 1e-9


def test_nonconvergence_carries_stage_and_history():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=17, n_t=17, max_iters=1)
    with pytest.raises(NonConvergence) as info:
        solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert info.value.stage == 1.0
    assert len(info.value.history) == 1
    assert info.value.history[0] > cfg.newton_tol
    assert info.value.stage_factorizations == [1]


def _counted_factorizations(monkeypatch):
    calls = []
    factor = geodesic.spsolve

    def counted(J, rhs):
        calls.append(J.shape)
        return factor(J, rhs)

    monkeypatch.setattr(geodesic, "spsolve", counted)
    return calls


def test_chord_steps_reuse_each_stage_factorization(monkeypatch):
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = _eh_tau_power_config(65, 45)
    # 1e-11 is reachable because only the last stage is solved to it: the
    # s = 1 stage, with a roundoff floor near 5e-12 here, stops at _STAGE_TOL
    g_tight, rep_tight = solve_epsilon_geodesic(
        EH, zero_potential(), psi1, replace(cfg, newton_tol=1e-11))
    assert rep_tight.residual_sup <= 1e-11

    calls = _counted_factorizations(monkeypatch)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert rep.residual_sup <= cfg.newton_tol
    assert len(calls) == sum(rep.stage_factorizations)
    assert len(rep.stage_factorizations) == len(rep.stage_iterations) == 4
    assert all(1 <= f <= 2 for f in rep.stage_factorizations)
    assert np.max(np.abs(g.phi - g_tight.phi)) < 1e-9


def test_pure_newton_refreshes_after_every_step(monkeypatch):
    monkeypatch.setattr(geodesic, "_CHORD_CONTRACTION", 0.0)
    calls = _counted_factorizations(monkeypatch)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                    _eh_tau_power_config(65, 45))
    assert rep.stage_iterations == [5, 4, 3, 4]
    assert rep.stage_factorizations == [4, 3, 2, 3]
    assert [i - 1 for i in rep.stage_iterations] == rep.stage_factorizations
    assert len(calls) == 12


def test_intermediate_stages_stop_at_the_stage_tolerance():
    # the s = 1 stage stalls near 5e-12 on this grid, so a 1e-12
    # certificate needs that stage stopped at _STAGE_TOL
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = replace(_eh_tau_power_config(65, 45), newton_tol=1e-12)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert rep.residual_sup <= 1e-12
    assert len(rep.stage_iterations) == 4

    loose = replace(cfg, newton_tol=1e-9)
    g_loose, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, loose)
    assert np.max(np.abs(g.phi - g_loose.phi)) < 1e-9


def test_rejected_chord_step_refactors_and_converges(monkeypatch):
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = _eh_tau_power_config(33, 33)
    g_ref, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)

    events = []
    factor = geodesic.spsolve

    class UphillOnce:
        """An LU whose first chord solve points uphill."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            events.append("chord")
            return -x if events.count("chord") == 1 else x

    def spsolve(J, rhs):
        events.append("factor")
        x, lu = factor(J, rhs)
        return x, UphillOnce(lu)

    monkeypatch.setattr(geodesic, "spsolve", spsolve)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # the uphill chord step is rejected and refactored at the same iterate
    first = events.index("chord")
    assert events[first + 1] == "factor"
    assert events.count("factor") == sum(rep.stage_factorizations)
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_ref.phi)) < 1e-9


# ---------------------------------------------------------------------------
# checks and sweeps
# ---------------------------------------------------------------------------

def test_c0_check_examples():
    g = make_grid(EH)
    t = g.t_nodes[None, :]
    g.phi[:] = 1.0 * t * (t - 1.0) / 2.0  # exact solution at eps = 1
    res = c0_bound_check(g)
    assert res.passed

    g.phi[:] = 0.0
    g.phi[:, g.t_nodes.size // 2] = 3.0  # t = 1/2 on odd-sized grid
    res = c0_bound_check(g)
    assert not res.passed
    assert res.min_slack == pytest.approx(-2.5, abs=1e-12)


def test_comparison_exact_pair():
    cfg_a = SolverConfig(epsilon=0.5)
    cfg_b = SolverConfig(epsilon=0.25)
    ga, _ = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                   cfg_a)
    gb, _ = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                   cfg_b)
    ok, worst = comparison_check(ga, gb)
    assert ok
    mid = ga.t_nodes.size // 2
    assert ga.phi[0, mid] == pytest.approx(-0.0625, abs=1e-9)
    assert gb.phi[0, mid] == pytest.approx(-0.03125, abs=1e-9)
    ok_same, _ = comparison_check(ga, ga)
    assert ok_same


def test_comparison_nontrivial_pair():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    ga, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                   SolverConfig(epsilon=0.5))
    gb, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                   SolverConfig(epsilon=0.125))
    ok, worst = comparison_check(ga, gb, tol=1e-10)
    assert ok
    with pytest.raises(ValueError):
        comparison_check(gb, ga)


def test_epsilon_sweep_uniformity_and_cauchy():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    eps = [2.0 ** -m for m in range(7)]
    for p in (flat_profile(), EH):
        sweep = epsilon_sweep(p, zero_potential(), psi1,
                              eps, SolverConfig(epsilon=0.25))
        sd = np.array(sweep["max_second_derivative"])
        assert sd.max() <= 2.0 * np.median(sd)
        # Cauchy differences shrink with epsilon
        assert all(b < a for a, b in zip(sweep["cauchy"],
                                         sweep["cauchy"][1:]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.5, upsilon_mode="bogus")
    sched = SolverConfig(epsilon=0.1).schedule()
    assert sched[0] == 1.0 and sched[-1] == 0.1
    assert all(a > b for a, b in zip(sched, sched[1:]))
    assert SolverConfig(epsilon=1.0).schedule() == [1.0]


def test_nondecaying_boundary_data_rejected():
    with pytest.raises(BoundaryInconsistency):
        solve_epsilon_geodesic(EH, zero_potential(), constant_potential(0.3),
                               SolverConfig(epsilon=0.5))


def test_nonpositive_boundary_metric_rejected():
    bad = exp_decay_potential(-50.0, 4.0, rho_ref=RHO_MIN_EH)
    with pytest.raises(BoundaryInconsistency):
        solve_epsilon_geodesic(EH, zero_potential(), bad,
                               SolverConfig(epsilon=0.5))
