import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alegeo.analysis import (
    DecayFit,
    InsufficientDecayError,
    _scaled_flux,
    adm_mass,
    default_window,
    fit_decay_exponent,
)
from alegeo.profiles import (
    bump_perturbed_profile,
    custom_profile,
    flat_profile,
    lebrun_profile,
    metric_eigenvalues,
)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def test_synthetic_power_law_exact():
    r = np.geomspace(1.0, 100.0, 60)
    fit = fit_decay_exponent(r, 3.7 * r ** -3.0)
    assert fit.exponent == pytest.approx(-3.0, abs=1e-10)
    assert fit.residual < 1e-12
    assert fit.reliable


@given(st.floats(min_value=-6.0, max_value=-0.5),
       st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_power_law_recovered(slope, amp):
    r = np.geomspace(2.0, 500.0, 80)
    fit = fit_decay_exponent(r, amp * r ** slope)
    assert fit.exponent == pytest.approx(slope, abs=1e-8)


@pytest.mark.parametrize("k", [1, 3])
def test_lebrun_deviation_slope_minus_two(k):
    p = lebrun_profile(k, 1.0)
    taus = np.geomspace(2.0, 1e8, 200)
    rho = p.rho_of_tau(taus)
    r = np.exp(rho / 2.0)
    lb, lf = metric_eigenvalues(p, taus)
    fit = fit_decay_exponent(r, lb - 1.0)
    assert fit.exponent == pytest.approx(-2.0, abs=0.1)
    assert abs(fit.exponent + 2.0) <= 0.1
    assert fit.reliable


def test_below_floor_marker():
    r = np.geomspace(1.0, 100.0, 40)
    fit = fit_decay_exponent(r, np.zeros_like(r))
    assert fit.below_floor
    assert fit.exponent is None
    assert not fit.reliable


def test_window_validation():
    r = np.geomspace(1.0, 100.0, 40)
    v = r ** -2.0
    with pytest.raises(ValueError):
        fit_decay_exponent(r, v, window=(5.0, 5.0))
    with pytest.raises(ValueError):
        fit_decay_exponent(r, v, window=(90.0, 99.0))  # too few samples
    with pytest.raises(ValueError):
        fit_decay_exponent(-r, v)
    lo, hi = default_window(100.0)
    assert (lo, hi) == (12.5, 50.0)


# ---------------------------------------------------------------------------
# ADM mass
# ---------------------------------------------------------------------------

def reference_metric(p, x):
    """Real 2n x 2n metric at a real point x of the asymptotic chart.

    The Hermitian matrix lam_b (I - N) + lam_f N, with N = conj(nz) nz^T
    for the unit vector nz along z, has lam_f on z and lam_b on its
    C-orthogonal complement once realified by sum gc_ab J_ap conj(J_bq).
    """
    x = np.asarray(x, dtype=float)
    n = p.n
    z = x[0::2] + 1j * x[1::2]
    r2 = float(np.sum(np.abs(z) ** 2))
    tau = float(p.tau_of_rho(math.log(r2)))
    lam_b, lam_f = tau / r2, float(p.phi(tau)) / r2
    nz = z / math.sqrt(r2)
    gc = lam_b * np.eye(n) + (lam_f - lam_b) * np.outer(nz.conj(), nz)
    # dz^a(d/dx_p): 1 on x_{2a-1}, i on x_{2a}
    J = np.zeros((n, 2 * n), dtype=complex)
    for a in range(n):
        J[a, 2 * a] = 1.0
        J[a, 2 * a + 1] = 1j
    return np.real(np.einsum("ab,ap,bq->pq", gc, J, J.conj()))


def reference_flux(p, r):
    """(d_j h_ij - d_i h_jj) nu_i at (r, 0, ..., 0) by central differences
    of the full real metric, times r^{2n-1}.

    The step 1e-4 r leaves a truncation error near 1e-8 relative and keeps
    the differences above the roundoff of tau(rho), which the Newton
    inverse pins to about 1e-14 relative.
    """
    m = 2 * p.n
    x0 = np.zeros(m)
    x0[0] = r
    step = 1e-4 * r
    dh = np.empty((m, m, m))  # dh[j, i, l] = d_j h_{il}
    for j in range(m):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        dh[j] = (reference_metric(p, xp) - reference_metric(p, xm)) / (2 * step)
    density = sum(dh[j, 0, j] - dh[0, j, j] for j in range(m))
    return density * r ** (2 * p.n - 1)


def complex_structure(x):
    """J x for x in R^{2n}, paired as (Re z_a, Im z_a)."""
    jx = np.empty_like(x)
    jx[0::2], jx[1::2] = -x[1::2], x[0::2]
    return jx


def test_reference_metric_eigenvectors():
    # lam_f on x and Jx, lam_b on the C-orthogonal complement, at a generic
    # point; N = nz nz^H instead reads g(x, x)/|x|^2 = 1.0418 here
    p = lebrun_profile(1, 1.0)
    x = np.array([3.0, 1.0, 0.5, 2.0])
    v = np.array([-0.5, 2.0, 3.0, -1.0])  # z_v = (-conj z_2, conj z_1)
    r2 = float(x @ x)
    lam_b, lam_f = metric_eigenvalues(p, p.tau_of_rho(math.log(r2)))
    assert lam_f == pytest.approx(1.0, abs=1e-12)
    assert lam_b == pytest.approx(1.0702, abs=1e-4)
    g = reference_metric(p, x)
    for vec, lam in ((x, lam_f), (v, lam_b)):
        for w in (vec, complex_structure(vec)):
            np.testing.assert_allclose(g @ w, lam * w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, k, a", [(2, k, 1.0) for k in range(1, 5)]
                         + [(3, k, a) for k in range(1, 6)
                            for a in (0.5, 1.0, 2.0)])
@pytest.mark.parametrize("r", [10.0, 30.0])
def test_closed_form_flux_matches_reference(n, k, a, r):
    p = lebrun_profile(k, a, n=n)
    ref = reference_flux(p, r)
    assert abs(_scaled_flux(p, r) - ref) <= 1e-4 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_lebrun_mass_is_minus_two_A(k, a):
    m = adm_mass(lebrun_profile(k, a))
    expected = 2.0 * (2 - k) * a
    assert abs(m - expected) <= 1e-6 * max(1.0, abs(expected))


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_all_n_mass_at_n_3(k, a):
    m = adm_mass(lebrun_profile(k, a, n=3))
    expected = 2.0 * (3 - k) * a ** 2
    assert abs(m - expected) <= 1e-6 * max(1.0, abs(expected))


def test_flat_mass_zero():
    assert adm_mass(flat_profile()) == 0.0


def test_burns_mass_positive_frozen():
    # regression snapshot: 2 tau_min
    m = adm_mass(lebrun_profile(1, 1.0))
    assert m == pytest.approx(2.0, abs=1e-4)
    assert m > 0


def test_burns_mass_is_two():
    assert adm_mass(lebrun_profile(1, 1.0)) == pytest.approx(2.0, abs=1e-6)


def test_eh_and_burns_masses_differ():
    m_burns = adm_mass(lebrun_profile(1, 1.0))
    m_eh = adm_mass(lebrun_profile(2, 1.0))
    assert abs(m_burns - m_eh) > 1.0
    assert abs(m_eh) < 1e-3  # deviation is O(r^-4), flux vanishes


def test_mass_invariant_under_compact_bump():
    base = lebrun_profile(1, 1.0)
    bumped = bump_perturbed_profile(base, center=10.0, width=3.0,
                                    amplitude=0.05)
    assert adm_mass(base) == adm_mass(bumped)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_all_n_mass_at_n_4_and_5(n, k, a):
    # at r = 200 phi - tau keeps at most ~2000 ulp of tau at n = 4 and
    # none at n = 5, and e^{(n-2) rho} amplifies the roundoff; k = n is
    # Calabi's metric, of mass 0
    m = adm_mass(lebrun_profile(k, a, n=n))
    expected = 2.0 * (n - k) * a ** (n - 1)
    assert abs(m - expected) <= 1e-4 * a ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flat_mass_stays_zero_under_compact_bump(n):
    # past the bump phi reads exactly tau: the flux radius stays out there
    bumped = bump_perturbed_profile(flat_profile(n), center=10.0, width=3.0,
                                    amplitude=0.05)
    assert adm_mass(bumped) == 0.0


def test_mass_refuses_an_unresolved_flux():
    # Calabi at n = 7: phi - tau = -tau^-6 is ~4e4 ulp of tau at r = 6.25,
    # as far in as the flux radius goes, so the flux would be roundoff
    with pytest.raises(InsufficientDecayError, match="not resolved"):
        adm_mass(lebrun_profile(7, 1.0, n=7))


def test_mass_refuses_slow_decay():
    # phi = tau + tau^0.8: eigenvalue deviation ~ r^-0.4, too slow for n=2
    p = custom_profile(
        n=2, k=1, tau_min=0.0,
        phi=lambda t: t + t ** 0.8,
        d1=lambda t: 1.0 + 0.8 * t ** -0.2,
        d2=lambda t: -0.16 * t ** -1.2,
        tau_max=1e10,
    )
    with pytest.raises(InsufficientDecayError):
        adm_mass(p)
