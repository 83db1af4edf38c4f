import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alegeo.analysis import (
    DecayFit,
    InsufficientDecayError,
    adm_mass,
    default_window,
    fit_decay_exponent,
    weighted_norm,
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
    fit = fit_decay_exponent(r, lb - 1.0, predicted=-2.0)
    assert fit.exponent == pytest.approx(-2.0, abs=0.1)
    assert abs(fit.margin) <= 0.1
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
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_matching_weight():
    r = np.geomspace(1.0, 50.0, 30)
    assert weighted_norm(r, r ** -2.0, -2.0) == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_sup_at_inner_edge():
    r = np.geomspace(2.0, 50.0, 30)
    val = weighted_norm(r, r ** -2.0, -1.0)
    # |r^-2| * r^1 = 1/r is maximized at r_min
    assert val == pytest.approx(1.0 / r[0], rel=1e-12)


# ---------------------------------------------------------------------------
# ADM mass
# ---------------------------------------------------------------------------

def test_flat_mass_zero():
    assert adm_mass(flat_profile()) == 0.0


def test_burns_mass_positive_frozen():
    # regression snapshot; flux converges to 4.0 for tau_min = 1
    m = adm_mass(lebrun_profile(1, 1.0))
    assert m == pytest.approx(4.0, abs=1e-4)
    assert m > 0


def test_burns_mass_is_four():
    # the flux differences the metric, which amplifies the roundoff of
    # tau(rho): this holds with the exact tau = tau_min + e^rho, and not
    # with the Newton's iterate, which gave 4.0000016632
    assert adm_mass(lebrun_profile(1, 1.0)) == pytest.approx(4.0, abs=1e-6)


def test_eh_and_burns_masses_differ():
    m_burns = adm_mass(lebrun_profile(1, 1.0))
    m_eh = adm_mass(lebrun_profile(2, 1.0))
    assert abs(m_burns - m_eh) > 1.0
    assert abs(m_eh) < 1e-3  # deviation is O(r^-4), flux vanishes


def test_mass_invariant_under_compact_bump():
    base = lebrun_profile(1, 1.0)
    bumped = bump_perturbed_profile(base, center=10.0, width=3.0,
                                    amplitude=0.05)
    assert abs(adm_mass(base) - adm_mass(bumped)) < 1e-6


def test_mass_refuses_slow_decay():
    # phi = tau + tau^0.8: eigenvalue deviation ~ r^-0.4, too slow for n=2
    p = custom_profile(
        n=2, k=1, tau_min=0.0,
        phi=lambda t: t + t ** 0.8,
        d1=lambda t: 1.0 + 0.8 * t ** -0.2,
        d2=lambda t: -0.16 * t ** -1.2,
        d3=lambda t: 0.192 * t ** -2.2,
        tau_max=1e10,
    )
    with pytest.raises(InsufficientDecayError):
        adm_mass(p)
