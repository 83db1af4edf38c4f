import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from alegeo.profiles import (
    ProfileError,
    RadialProfile,
    bump_perturbed_profile,
    curvature_sample,
    curvature_scan_rows,
    custom_profile,
    flat_profile,
    lebrun_profile,
    metric_eigenvalues,
    profile_from_json,
    profile_to_json,
    ricci_eigenvalues,
    ricci_sign_scan,
    sampled_profile,
    scalar_curvature,
)


# ---------------------------------------------------------------------------
# coefficient solve oracle: phi(tau_min) = 0, phi'(tau_min) = k for
# phi = tau + A + B/tau gives a 2x2 linear system in (A, B).
# ---------------------------------------------------------------------------

def _solve_coefficients(k, tau_min):
    # [1, 1/tm; 0, -1/tm^2] [A; B] = [-tm; k - 1]
    M = np.array([[1.0, 1.0 / tau_min], [0.0, -1.0 / tau_min ** 2]])
    rhs = np.array([-tau_min, k - 1.0])
    return np.linalg.solve(M, rhs)


@pytest.mark.parametrize("k,tau_min,A,B", [
    (2, 1.0, 0.0, -1.0),
    (1, 1.0, -1.0, 0.0),
    (3, 2.0, 2.0, -8.0),
])
def test_lebrun_coefficients(k, tau_min, A, B):
    p = lebrun_profile(k, tau_min)
    assert p.params["A"] == pytest.approx(A, abs=1e-14)
    assert p.params["B"] == pytest.approx(B, abs=1e-14)
    A_o, B_o = _solve_coefficients(k, tau_min)
    assert p.params["A"] == pytest.approx(A_o, abs=1e-12)
    assert p.params["B"] == pytest.approx(B_o, abs=1e-12)
    # compactification conditions
    assert p.phi(tau_min) == pytest.approx(0.0, abs=1e-13)
    assert p.phi_d1(tau_min) == pytest.approx(k, abs=1e-13)


def test_lebrun_rejects_bad_input():
    with pytest.raises(ProfileError):
        lebrun_profile(2, -1.0)
    with pytest.raises(ProfileError):
        lebrun_profile(2, 0.0)
    with pytest.raises(ProfileError):
        lebrun_profile(2, 1.0, n=3)
    with pytest.raises(ProfileError):
        RadialProfile(n=2, k=0, tau_min=0.0, tau_max=1.0, form="flat")


def test_degenerate_limit_is_flat():
    # k=1, tau_min -> 0 drives A and B to 0
    p = lebrun_profile(1, 1e-9)
    taus = np.geomspace(0.5, 100.0, 20)
    assert np.allclose(p.phi(taus), taus, rtol=1e-8)


# ---------------------------------------------------------------------------
# metric eigenvalues
# ---------------------------------------------------------------------------

def test_flat_eigenvalues_are_one():
    p = flat_profile()
    for tau in [1e-3, 1.0, 17.0, 1e6]:
        lb, lf = metric_eigenvalues(p, tau)
        assert lb == pytest.approx(1.0, abs=1e-14)
        assert lf == pytest.approx(1.0, abs=1e-14)


def test_eigenvalue_ratio_identity():
    p = lebrun_profile(3, 1.0)
    taus = np.geomspace(1.1, 1e5, 50)
    lb, lf = metric_eigenvalues(p, taus)
    assert np.allclose(lb / lf, taus / p.phi(taus), rtol=1e-12)


def test_eigenvalues_approach_one():
    p = lebrun_profile(2, 1.0)
    lb, lf = metric_eigenvalues(p, 1e3)
    assert abs(lb - 1.0) < 5e-3
    assert abs(lf - 1.0) < 5e-3
    # closer at larger tau
    lb2, lf2 = metric_eigenvalues(p, 1e5)
    assert abs(lb2 - 1.0) < abs(lb - 1.0)


def test_positivity_on_domain():
    for k in (1, 2, 3):
        p = lebrun_profile(k, 1.0)
        taus = np.geomspace(1.001, 1e6, 200)
        lb, lf = metric_eigenvalues(p, taus)
        assert np.all(lb > 0)
        assert np.all(lf > 0)


def test_out_of_domain_rejected():
    p = lebrun_profile(2, 1.0)
    with pytest.raises(ProfileError):
        metric_eigenvalues(p, 0.5)
    with pytest.raises(ProfileError):
        metric_eigenvalues(p, 1e13)


# ---------------------------------------------------------------------------
# curvature: closed-form and finite-difference oracles
# ---------------------------------------------------------------------------

def _fd_curvature_oracle(phi, tau, n, h=1e-4):
    """Ricci eigenvalues from F = (n-1) log u' + log u'' - n rho by centered
    differences in rho, using d rho = d tau / phi(tau)."""

    # The -n*rho part of F differentiates to exactly -n since d rho/d rho = 1,
    # so only the log part needs numerical differentiation (in tau, with
    # d/drho = phi d/dtau).
    def logpart(t):
        return (n - 1) * math.log(t) + math.log(phi(t))

    def F1(t):
        d = (logpart(t + h) - logpart(t - h)) / (2 * h)
        return phi(t) * d - n

    def F2(t):
        return phi(t) * (F1(t + h) - F1(t - h)) / (2 * h)

    return F1(tau), F2(tau)


def test_eguchi_hanson_ricci_flat():
    p = lebrun_profile(2, 1.0)
    taus = np.geomspace(1.01, 1e5, 100)
    rb, rf = ricci_eigenvalues(p, taus)
    assert np.max(np.abs(rb)) < 1e-8
    assert np.max(np.abs(rf)) < 1e-8


def test_perturbed_profile_fd_oracle():
    # phi(tau) = tau + exp(-tau): smooth non-flat profile
    p = custom_profile(
        n=2, k=1, tau_min=0.0,
        phi=lambda t: t + np.exp(-t),
        d1=lambda t: 1.0 - np.exp(-t),
        d2=lambda t: np.exp(-t),
        d3=lambda t: -np.exp(-t),
    )
    for tau in [0.5, 1.0, 2.0, 5.0]:
        F1_o, F2_o = _fd_curvature_oracle(lambda t: t + math.exp(-t), tau, 2)
        rb, rf = ricci_eigenvalues(p, tau)
        e = math.exp(-p.rho_of_tau(tau))
        assert rb == pytest.approx(-F1_o * e, abs=1e-6)
        assert rf == pytest.approx(-F2_o * e, abs=1e-6)
        scal = scalar_curvature(p, tau)
        phi_v = tau + math.exp(-tau)
        scal_o = 2.0 * (-(2 - 1) * F1_o / tau - F2_o / phi_v)
        assert scal == pytest.approx(scal_o, abs=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("tau_min", [0.5, 1.0, 2.0])
def test_lebrun_scalar_flat(k, tau_min):
    p = lebrun_profile(k, tau_min)
    taus = np.geomspace(tau_min * 1.01, 1e6, 100)
    assert np.max(np.abs(scalar_curvature(p, taus))) < 1e-8


def test_flat_profile_zero_curvature():
    p = flat_profile(n=3)
    taus = np.geomspace(1e-2, 1e6, 50)
    rb, rf = ricci_eigenvalues(p, taus)
    assert np.all(rb == 0)
    assert np.all(rf == 0)
    assert np.all(scalar_curvature(p, taus) == 0)


def test_scalar_trace_consistency():
    p = lebrun_profile(1, 1.0)
    q = custom_profile(
        n=3, k=2, tau_min=0.0,
        phi=lambda t: t + 0.3 * np.exp(-t),
        d1=lambda t: 1.0 - 0.3 * np.exp(-t),
        d2=lambda t: 0.3 * np.exp(-t),
        d3=lambda t: -0.3 * np.exp(-t),
    )
    for prof in (p, q):
        taus = np.geomspace(max(prof.tau_min * 1.01, 0.5), 1e4, 40)
        lb, lf = metric_eigenvalues(prof, taus)
        rb, rf = ricci_eigenvalues(prof, taus)
        trace = 2.0 * ((prof.n - 1) * rb / lb + rf / lf)
        assert np.allclose(scalar_curvature(prof, taus), trace, atol=1e-12,
                           rtol=1e-12)


# ---------------------------------------------------------------------------
# sign scans
# ---------------------------------------------------------------------------

def test_sign_scan_eguchi_hanson_zero():
    res = ricci_sign_scan(lebrun_profile(2, 1.0))
    assert res.classification == "zero"


@pytest.mark.parametrize("k", [1, 3])
def test_sign_scan_mixed(k):
    res = ricci_sign_scan(lebrun_profile(k, 1.0))
    assert res.classification == "mixed"
    assert res.positive_witness is not None
    assert res.negative_witness is not None
    assert res.positive_margin > 1e-3
    assert res.negative_margin < -1e-3


def test_sign_scan_witnesses_verify():
    res = ricci_sign_scan(lebrun_profile(1, 1.0))
    for w, sign in ((res.positive_witness, 1), (res.negative_witness, -1)):
        tau, eig = w
        rb, rf = ricci_eigenvalues(lebrun_profile(1, 1.0), tau)
        assert min(abs(rb - eig), abs(rf - eig)) < 1e-10
        assert sign * eig > 0


# ---------------------------------------------------------------------------
# reconstruction round trips and sampled profiles
# ---------------------------------------------------------------------------

@given(st.floats(min_value=0.2, max_value=3.0),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.5, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_rho_tau_round_trip(tau_min, k, mult):
    p = lebrun_profile(k, tau_min)
    tau = tau_min * (1.0 + mult)
    rho = p.rho_of_tau(tau)
    assert p.tau_of_rho(rho) == pytest.approx(tau, rel=1e-9)


def test_rho_monotone():
    p = lebrun_profile(3, 1.0)
    taus = np.geomspace(1.01, 1e6, 100)
    rho = p.rho_of_tau(taus)
    assert np.all(np.diff(rho) > 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_u_derivatives_chain_rule(k):
    # k = 1 (Burns) has B = 0, so phi'' = 0; k = 2, 3 exercise phi'' too
    p = lebrun_profile(k, 1.0)
    rho = 3.0
    u1, u2, u3, u4 = p.u_derivatives(rho)
    h = 1e-5
    u1p = p.u_derivatives(rho + h, order=2)
    u1m = p.u_derivatives(rho - h, order=2)
    assert (u1p[0] - u1m[0]) / (2 * h) == pytest.approx(u2, rel=1e-7)
    assert (u1p[1] - u1m[1]) / (2 * h) == pytest.approx(u3, rel=1e-6)
    u3p = p.u_derivatives(rho + h, order=3)[2]
    u3m = p.u_derivatives(rho - h, order=3)[2]
    assert (u3p - u3m) / (2 * h) == pytest.approx(u4, rel=1e-6)

    # u' = tau has no second tau-derivative, so its jet never meets the
    # binomial weights of (phi g')^(m); f = tau^-2 reads them at D^3, D^4
    def jet(rho):
        tau = p.tau_of_rho(rho)
        f = [c * tau ** (-2 - m) for m, c in enumerate((1, -2, 6, -24, 120))]
        return p.rho_jet(tau, f, 4)

    mid, plus, minus = jet(rho), jet(rho + h), jet(rho - h)
    for m in range(4):
        fd = (plus[m] - minus[m]) / (2 * h)
        assert fd == pytest.approx(mid[m + 1], rel=1e-6)


def test_sampled_profile_matches_closed_form():
    ref = lebrun_profile(2, 1.0, tau_max=1e4)
    taus = np.geomspace(1.0, 1e4, 400)
    p = sampled_profile(2, 2, 1.0, taus, ref.phi(taus))
    probe = np.geomspace(1.05, 5e3, 30)
    assert np.allclose(p.phi(probe), ref.phi(probe), rtol=1e-5, atol=1e-8)
    # second derivatives of the interpolant are noisier near the zero
    # section; check curvature only away from it
    assert np.max(np.abs(scalar_curvature(p, np.geomspace(3.0, 5e3, 25)))) < 1e-2


def test_sampled_profile_validation():
    with pytest.raises(ProfileError):
        sampled_profile(2, 1, 0.0, [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ProfileError):
        sampled_profile(2, 1, 0.0, [1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    with pytest.raises(ProfileError):
        sampled_profile(2, 1, 0.0, [1.0, 2.0, 3.0, 4.0],
                        [1.0, -2.0, 2.0, 3.0])


def test_bump_perturbation_derivatives():
    base = lebrun_profile(2, 1.0)
    p = bump_perturbed_profile(base, center=10.0, width=3.0, amplitude=0.05)
    h = 1e-5
    for tau in [8.0, 10.0, 11.5]:
        fd1 = (p.phi(tau + h) - p.phi(tau - h)) / (2 * h)
        assert p.phi_d1(tau) == pytest.approx(fd1, rel=1e-6, abs=1e-9)
        fd2 = (p.phi_d1(tau + h) - p.phi_d1(tau - h)) / (2 * h)
        assert p.phi_d2(tau) == pytest.approx(fd2, rel=1e-6, abs=1e-9)
        fd3 = (p.phi_d2(tau + h) - p.phi_d2(tau - h)) / (2 * h)
        assert p.phi_d3(tau) == pytest.approx(fd3, rel=1e-5, abs=1e-8)
    # untouched outside the support
    assert p.phi(20.0) == pytest.approx(base.phi(20.0), abs=1e-15)


def test_curvature_scan_rows_columns():
    p = lebrun_profile(1, 1.0)
    rows = curvature_scan_rows(p, np.geomspace(1.1, 100.0, 16))
    assert rows.shape == (16, 8)
    # r = exp(rho/2)
    assert np.allclose(rows[:, 2], np.exp(rows[:, 1] / 2.0))
    s = curvature_sample(p, 2.0)
    assert s.scal == pytest.approx(0.0, abs=1e-10)


def test_serialization_round_trip():
    for p in (lebrun_profile(3, 0.5), flat_profile(n=3, k=2)):
        doc = profile_to_json(p)
        q = profile_from_json(doc)
        assert q.n == p.n and q.k == p.k
        taus = np.geomspace(max(p.tau_min * 1.1, 0.5), 100.0, 10)
        assert np.allclose(q.phi(taus), p.phi(taus), rtol=1e-12)
    ref = lebrun_profile(2, 1.0, tau_max=1e3)
    taus = np.geomspace(1.0, 1e3, 50)
    sp = sampled_profile(2, 2, 1.0, taus, ref.phi(taus))
    q = profile_from_json(json.loads(profile_to_json(sp)))
    assert np.allclose(q.phi(taus[5:-5]), sp.phi(taus[5:-5]), rtol=1e-12)


# ---------------------------------------------------------------------------
# closed-form reconstruction and the vectorised inverse
# ---------------------------------------------------------------------------

def _tail_anchored_rho(phi, tau):
    """log(tau) - int_tau^inf (1/phi - 1/t) dt, by quad after t = tau/u."""
    g = lambda u: (1.0 / phi(tau / u) - u / tau) * tau / u ** 2
    tail, _ = integrate.quad(g, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
                             limit=200)
    return math.log(tau) - tail


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("tau_min", [0.5, 1.0, 2.0])
def test_lebrun_rho_matches_quadrature(k, tau_min):
    p = lebrun_profile(k, tau_min)
    A, B = p.params["A"], p.params["B"]
    phi = lambda t: t + A + B / t
    for tau in tau_min * np.array([1.001, 1.5, 3.0, 10.0, 1e3, 1e6]):
        assert p.rho_of_tau(tau) == pytest.approx(
            _tail_anchored_rho(phi, tau), abs=1e-9)


def test_explicit_inverses():
    rho = np.linspace(-5.5, 25.0, 62)
    for a in (0.5, 1.0, 2.0):
        eh, burns = lebrun_profile(2, a), lebrun_profile(1, a)
        tau_eh = np.sqrt(np.exp(2.0 * rho) + a * a)
        tau_burns = a + np.exp(rho)
        assert np.allclose(eh.tau_of_rho(rho), tau_eh, rtol=1e-12, atol=0)
        assert np.allclose(burns.tau_of_rho(rho), tau_burns, rtol=1e-12,
                           atol=0)
        assert np.allclose(eh.rho_of_tau(tau_eh[10:]), rho[10:], rtol=0,
                           atol=1e-12)
        assert np.allclose(burns.rho_of_tau(tau_burns[10:]), rho[10:],
                           rtol=0, atol=1e-12)


def _round_trip_profiles():
    base = lebrun_profile(1, 1.0)
    samples = np.geomspace(1.0, 1e11, 400)
    custom = custom_profile(
        n=2, k=2, tau_min=1.0,
        phi=lambda t: t - 1.0 / t + 0.1 * (1.0 - t ** -2.0),
        d1=lambda t: 1.0 + t ** -2.0 + 0.2 * t ** -3.0,
        d2=lambda t: -2.0 * t ** -3.0 - 0.6 * t ** -4.0,
        d3=lambda t: 6.0 * t ** -4.0 + 2.4 * t ** -5.0,
    )
    return {
        "lebrun": lebrun_profile(3, 1.0),
        "custom": custom,
        "sampled": sampled_profile(2, 2, 1.0, samples,
                                   lebrun_profile(2, 1.0).phi(samples)),
        "bump": bump_perturbed_profile(base, center=10.0, width=3.0,
                                       amplitude=0.05),
    }


@pytest.mark.parametrize("name", ["lebrun", "custom", "sampled", "bump"])
def test_tau_of_rho_vectorised_round_trip(name):
    p = _round_trip_profiles()[name]
    taus = np.geomspace(p.tau_min * (1.0 + 1e-5), 1e11, 400)
    back = p.tau_of_rho(p.rho_of_tau(taus))
    assert np.allclose(back, taus, rtol=1e-12, atol=0)
    grid = taus.reshape(20, 20)
    assert p.tau_of_rho(p.rho_of_tau(grid)).shape == (20, 20)
    one = p.tau_of_rho(p.rho_of_tau(taus[123]))
    assert np.ndim(one) == 0
    assert one == pytest.approx(taus[123], rel=1e-12)


def test_tau_of_rho_rejects_out_of_range():
    p = lebrun_profile(2, 1.0)
    with pytest.raises(ProfileError):
        p.tau_of_rho(np.array([0.0, -20.0]))
    with pytest.raises(ProfileError):
        p.tau_of_rho(30.0)


def test_profiles_stay_equal_after_queries():
    p, q = lebrun_profile(2, 1.0), lebrun_profile(2, 1.0)
    p.rho_of_tau(np.geomspace(1.5, 1e4, 10))
    p.tau_of_rho(np.linspace(0.0, 5.0, 10))
    assert p == q
    assert p.params == {"A": 0.0, "B": -1.0}


def test_bump_rho_is_base_rho_past_support():
    base = lebrun_profile(1, 1.0)
    p = bump_perturbed_profile(base, center=10.0, width=3.0, amplitude=0.05)
    outside = np.concatenate([[13.0], np.geomspace(13.0 + 1e-9, 1e11, 50)])
    assert np.array_equal(p.rho_of_tau(outside), base.rho_of_tau(outside))
    assert p.rho_of_tau(13.0) == base.rho_of_tau(13.0)
    # inside the support rho follows int d tau / phi of the bumped phi
    lo, hi = 8.0, 12.0
    ref, _ = integrate.quad(lambda t: 1.0 / p.phi(t), lo, hi,
                            epsabs=1e-14, epsrel=1e-13)
    assert p.rho_of_tau(hi) - p.rho_of_tau(lo) == pytest.approx(ref,
                                                                abs=1e-12)
