"""Acceptance gate: one test per headline guarantee of the package.

Each test is self-contained and asserts the advertised tolerance verbatim;
run with -v to get one pass/fail line per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from alegeo.analysis import fit_decay_exponent
from alegeo.energy import convexity_audit, energy_report
from alegeo.geodesic import (
    SolverConfig,
    comparison_check,
    epsilon_sweep,
    solve_epsilon_geodesic,
)
from alegeo.potentials import (
    exp_decay_potential,
    tau_power_potential,
    zero_potential,
)
from alegeo.profiles import (
    flat_profile,
    lebrun_profile,
    metric_eigenvalues,
    ricci_sign_scan,
    scalar_curvature,
)
from alegeo.toric import IntersectionReport

EH = lebrun_profile(2, 1.0)
RHO_MIN_EH = float(EH.rho_of_tau(2.0))
SUITE_EPSILONS = (0.5, 0.25, 0.125, 0.0625)


def _solve_families(families):
    """Each (profile, psi0, psi1) solved at every SUITE_EPSILONS on 33x33."""
    return [[solve_epsilon_geodesic(profile, psi0, psi1,
                                    SolverConfig(epsilon=eps, n_rho=33,
                                                 n_t=33))
             for eps in SUITE_EPSILONS]
            for profile, psi0, psi1 in families]


@pytest.fixture(scope="module")
def regression_suite():
    """Twelve solved scenarios: three data/background families, four eps."""
    burns = lebrun_profile(1, 1.0)
    return _solve_families([
        (EH, zero_potential(),
         exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)),
        (flat_profile(), zero_potential(), exp_decay_potential(0.1, 4.0)),
        (burns, zero_potential(), tau_power_potential(burns, 0.08, 4.0)),
    ])


@pytest.fixture(scope="module")
def n3_suite():
    """Thirty-two solved scenarios on O(-k) over CP^2, k = 1..4: psi1
    tau_power or exp data anchored at rho(2 tau_min), four eps each."""
    families = []
    for k in (1, 2, 3, 4):
        p = lebrun_profile(k, 1.0, n=3)
        rho_ref = float(p.rho_of_tau(2.0 * p.tau_min))
        families += [(p, zero_potential(), psi1) for psi1 in (
            tau_power_potential(p, 0.08, 4.0),
            exp_decay_potential(0.1, 4.0, rho_ref=rho_ref))]
    return _solve_families(families)


@pytest.fixture(scope="module")
def eh_energy_sweep():
    """Admissible Eguchi-Hanson paths for the convexity criterion."""
    rho_min = float(EH.rho_of_tau(1.0 + 1e-4))
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    grids = []
    for eps in (0.5, 0.25, 0.125):
        cfg = SolverConfig(epsilon=eps, n_rho=193, n_t=129,
                           rho_min=rho_min, rho_max=rho_min + 12.0,
                           newton_tol=1e-9)
        g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
        assert rep.residual_sup <= 1e-8
        grids.append(g)
    return grids


def test_criterion_1_exact_solution_reproduction():
    for eps in (1.0, 0.5, 0.1):
        start = time.perf_counter()
        g, rep = solve_epsilon_geodesic(EH, zero_potential(),
                                        zero_potential(),
                                        SolverConfig(epsilon=eps))
        elapsed = time.perf_counter() - start
        assert g.phi.shape == (65, 65)
        exact = eps * g.t_nodes * (g.t_nodes - 1.0) / 2.0
        assert np.max(np.abs(g.phi - exact[None, :])) <= 1e-8
        assert elapsed <= 10.0


def _check_c0_sandwich(suite):
    runs = [run for family in suite for run in family]
    for g, rep in runs:
        assert rep.c0_check.passed
        t = g.t_nodes[None, :]
        assert np.all(np.abs(g.phi) <= 2.0 * t * (1.0 - t) + 1e-12)
    return len(runs)


def test_criterion_2_c0_sandwich(regression_suite):
    assert _check_c0_sandwich(regression_suite) >= 10


def test_criterion_2_c0_sandwich_at_n3(n3_suite):
    assert _check_c0_sandwich(n3_suite) == 32


def test_criterion_3_c11_uniformity_probe():
    eps = [2.0 ** -m for m in range(7)]  # 1 .. 1/64
    for p, psi1 in ((flat_profile(), exp_decay_potential(0.1, 4.0)),
                    (EH, exp_decay_potential(0.1, 4.0,
                                             rho_ref=RHO_MIN_EH))):
        sweep = epsilon_sweep(p, zero_potential(), psi1, eps,
                              SolverConfig(epsilon=min(eps)))
        sd = np.asarray(sweep["max_second_derivative"])
        assert sd.max() <= 2.0 * np.median(sd)


def test_criterion_4_scalar_flatness():
    for n, k, tau_min in itertools.product((2, 3, 4), (1, 2, 3, 4, 5),
                                           (0.5, 1.0, 2.0)):
        p = lebrun_profile(k, tau_min, n=n)
        tau = np.geomspace(tau_min * (1 + 1e-6), tau_min * 1e4, 100)
        assert np.max(np.abs(scalar_curvature(p, tau))) <= 1e-8


def test_criterion_5_mixed_type_ricci():
    # the paper's last theorem: on O(-k) over CP^{n-1} with k != n no ALE
    # Kahler metric has Ricci curvature of one sign; k = n is Calabi's
    # Ricci-flat metric
    for n, k in itertools.product((2, 3, 4), (1, 2, 3, 4, 5)):
        if k == n:
            scan = ricci_sign_scan(lebrun_profile(k, 1.0, n=n), zero_tol=1e-6)
            assert scan.classification == "zero"
            continue
        scan = ricci_sign_scan(lebrun_profile(k, 1.0, n=n))
        assert scan.classification == "mixed"
        assert scan.positive_margin >= 1e-3
        assert scan.negative_margin <= -1e-3


def test_criterion_6_intersection_table():
    from fractions import Fraction
    start = time.perf_counter()
    for n, k in itertools.product((2, 3, 4, 5), (1, 2, 3)):
        rep = IntersectionReport.build(n, k, with_oracle=True)
        assert rep.certificate["d0_ricci"] == Fraction(n - k) ** (n - 1)
        assert rep.certificate["df_ricci"] == -Fraction(n - k) ** (n - 1) / k
        assert rep.table["d0_power"] == Fraction(-k) ** (n - 1)
        assert rep.table["d0_power_df"] == Fraction(-k) ** (n - 2)
        for which, target in (("d0_power", rep.table["d0_power"]),
                              ("d0_power_df", rep.table["d0_power_df"]),
                              ("restricted_d0", rep.table["d0_power"])):
            value = rep.oracle[which]["value"]
            assert value == pytest.approx(float(target), rel=0.01)
    assert time.perf_counter() - start <= 60.0


def test_criterion_7_k_energy_convexity(eh_energy_sweep):
    epsilons = [0.5, 0.25, 0.125]
    for g, eps in zip(eh_energy_sweep, epsilons):
        rep = energy_report(g, eps)
        assert rep.t_samples.size == 129
        assert rep.min_second_derivative() >= -1e-6
        assert rep.fd_agreement() < 0.01
    audit = convexity_audit(eh_energy_sweep, epsilons)
    assert audit["passed"]


def test_criterion_8_decay_exponents():
    # metric deviation of the explicit scalar-flat family: A = (k-2) tau_min
    # gives lambda_base - 1 ~ r^-2 for k != 2; at k = 2 (Eguchi-Hanson)
    # rho = 1/2 log(tau^2 - a^2), so lambda_base - 1 ~ a^2/(2 tau^2) ~ r^-4,
    # fitted where it stays above roundoff.  At every n, rho - log(tau) ~
    # A tau^{1-n}/(n-1), or B tau^{-n}/n where A = 0 (k = n, Calabi), so
    # lambda_base - 1 ~ r^{-2(n-1)} for k != n and r^{-2n} for k = n
    cases = [(2, 1, None, -2.0), (2, 2, (10.0, 100.0), -4.0),
             (2, 3, None, -2.0)]
    cases += [(n, k, (10.0, 100.0), -2.0 * (n if k == n else n - 1))
              for n, k in itertools.product((3, 4), (1, 2, 3, 4, 5))]
    for n, k, window, rate in cases:
        p = lebrun_profile(k, 1.0, n=n)
        taus = np.geomspace(2.0, 1e8, 200)
        r = np.exp(p.rho_of_tau(taus) / 2.0)
        lam_base, _ = metric_eigenvalues(p, taus)
        fit = fit_decay_exponent(r, lam_base - 1.0, window=window)
        assert fit.exponent == pytest.approx(rate, abs=0.1)
        assert fit.reliable
    # solved geodesic inherits the decay rate of its boundary data
    gamma = 4.0
    psi1 = exp_decay_potential(0.1, gamma, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=129,
                       rho_max=RHO_MIN_EH + 10.0)
    g, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    r = np.exp(g.rho_nodes / 2.0)
    dev = np.max(np.abs(g.phi - g.phi[-1, :][None, :]), axis=1)
    fit = fit_decay_exponent(r, dev)
    assert fit.exponent is not None
    assert fit.exponent <= -gamma + 0.3


def _check_comparison(suite):
    pairs = 0
    for family in suite:
        for (ga, _), (gb, _) in itertools.combinations(family, 2):
            # SUITE_EPSILONS is decreasing, so ga carries the larger epsilon
            ok, worst = comparison_check(ga, gb, tol=1e-10)
            assert ok, f"ordering violated by {worst:.3e}"
            pairs += 1
    return pairs


def test_criterion_9_comparison_principle(regression_suite):
    assert _check_comparison(regression_suite) == 18


def test_criterion_9_comparison_principle_at_n3(n3_suite):
    assert _check_comparison(n3_suite) == 48
