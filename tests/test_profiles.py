import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from alegeo.profiles import (
    INVERSE_RTOL,
    ProfileError,
    RadialProfile,
    bump_perturbed_profile,
    check_profile_json,
    curvature_scan_rows,
    custom_profile,
    flat_profile,
    lebrun_profile,
    metric_eigenvalues,
    profile_from_json,
    ricci_eigenvalues,
    ricci_sign_scan,
    sampled_profile,
    scalar_curvature,
    _newton_tau,
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
        RadialProfile(n=2, k=0, tau_min=0.0, tau_max=1.0, form="flat")
    # n and k are integers, and a bool is not one
    for n, k in ((2, True), (2.0, 1), (2, 1.5)):
        with pytest.raises(ProfileError, match="must be an integer"):
            RadialProfile(n=n, k=k, tau_min=0.0, tau_max=1.0, form="flat")


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
    # binomial weight of (phi g')^(m); f = tau^-2 reads it at D^3
    def jet(rho):
        tau = p.tau_of_rho(rho)
        f = [c * tau ** (-2 - m) for m, c in enumerate((1, -2, 6, -24))]
        return p.rho_jet(tau, f, 3)

    mid, plus, minus = jet(rho), jet(rho + h), jet(rho - h)
    for m in range(3):
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
    # untouched outside the support
    assert p.phi(20.0) == pytest.approx(base.phi(20.0), abs=1e-15)


def test_curvature_scan_rows_columns():
    p = lebrun_profile(1, 1.0)
    rows = curvature_scan_rows(p, np.geomspace(1.1, 100.0, 16))
    assert rows.shape == (16, 8)
    # r = exp(rho/2)
    assert np.allclose(rows[:, 2], np.exp(rows[:, 1] / 2.0))
    assert scalar_curvature(p, 2.0) == pytest.approx(0.0, abs=1e-10)


def test_serialization_round_trip():
    for p in (lebrun_profile(3, 0.5), flat_profile(n=3, k=2)):
        doc = json.loads(json.dumps(p.to_json_dict()))
        q = profile_from_json(doc)
        assert q.n == p.n and q.k == p.k
        taus = np.geomspace(max(p.tau_min * 1.1, 0.5), 100.0, 10)
        assert np.allclose(q.phi(taus), p.phi(taus), rtol=1e-12)
    ref = lebrun_profile(2, 1.0, tau_max=1e3)
    taus = np.geomspace(1.0, 1e3, 50)
    sp = sampled_profile(2, 2, 1.0, taus, ref.phi(taus))
    q = profile_from_json(json.loads(json.dumps(sp.to_json_dict())))
    assert np.allclose(q.phi(taus[5:-5]), sp.phi(taus[5:-5]), rtol=1e-12)


LEBRUN_DOC = {"form": "lebrun", "n": 2, "k": 1, "tau_min": 1.0,
              "params": {"tau_max": 1e12}}


@pytest.mark.parametrize("change,field", [
    ({"k": 1.5}, "profile.k must be an integer >= 1, got 1.5"),
    ({"n": True}, "profile.n must be an integer >= 2, got True"),
    ({"kind": "lebrun"}, "profile has unknown keys ['kind']"),
    ({"params": {"tau_mx": 1e12}}, "profile.params has unknown keys "
                                   "['tau_mx']"),
    ({"params": {"A": -1.0, "B": 0.0, "tau_max": 1e12}},
     "profile.params has unknown keys ['A', 'B']"),
    ({"params": {"tau_max": "1e12"}}, "profile.params.tau_max"),
    ({"tau_min": "1.0"}, "profile.tau_min must be a real number"),
    ({"form": "flat", "tau_min": 1.0}, "profile.tau_min must be 0"),
    ({"form": "samples", "params": {"tau": "1,2,3,4", "phi": [1.0] * 4}},
     "profile.params.tau must be a list of real numbers"),
    ({"params": None}, "profile.params must be an object")],
    ids=["fractional-k", "bool-n", "unknown-key", "params-typo",
         "derived-params", "string-tau-max", "string-tau-min",
         "flat-tau-min", "string-samples", "null-params"])
def test_profile_document_errors_name_the_field(change, field):
    # each used to build a profile, or to fail with a KeyError or TypeError
    doc = {**LEBRUN_DOC, **change}
    with pytest.raises(ProfileError, match=re.escape(field)):
        profile_from_json(doc)
    missing = {key: val for key, val in LEBRUN_DOC.items() if key != "n"}
    with pytest.raises(ProfileError, match=re.escape("profile: missing 'n'")):
        check_profile_json(missing)


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


def _split_quad_rho(dev, tau, split):
    """log(tau) + int_tau^inf dev/(t (t + dev)) dt for phi = t + dev(t),
    the tail past T = max(tau, split) after t = T/u and the rest as
    -int_tau^T dt/phi, so that no quad interval holds both the pole near
    tau_min and the infinite end."""
    T = max(tau, split)
    tail, _ = integrate.quad(lambda u: dev(T / u) / (u * (T / u + dev(T / u))),
                             0.0, 1.0, epsabs=1e-16, epsrel=1e-13, limit=200)
    head, _ = integrate.quad(lambda t: 1.0 / (t + dev(t)), tau, T,
                             epsabs=1e-16, epsrel=1e-13, limit=200)
    return math.log(T) + tail - head


@pytest.mark.parametrize("n", range(2, 8))
def test_lebrun_rho_matches_quadrature_at_every_n(n):
    # the residue sum over the roots of tau^n + A tau + B, to 5.3e-14
    # relative (n = 7, k = 1, tau_min = 2, tau = 2.002); its constant is 0,
    # so rho - log(tau) tends to 0 like A tau^{1-n}/(n-1), up to the sum's
    # roundoff of at most 3.6e-15 log(tau) (n = 6, k = 1)
    for k in range(1, 8):
        for a in (0.5, 1.0, 2.0):
            p = lebrun_profile(k, a, n=n)
            A, B = p.params["A"], p.params["B"]
            dev = lambda t: A / t ** (n - 2) + B / t ** (n - 1)  # noqa: E731
            for tau in a * np.array([1.001, 1.5, 3.0, 10.0, 1e3, 1e6]):
                ref = _split_quad_rho(dev, tau, 4.0 * a)
                assert abs(p.rho_of_tau(tau) - ref) <= 1e-12 * max(1.0,
                                                                   abs(ref))
            tau = 1e11
            assert (abs(p.rho_of_tau(tau) - math.log(tau))
                    <= 2.0 * abs(A) / tau ** (n - 1) + 1e-14 * math.log(tau))


def test_lebrun_kernels_at_large_n_and_tau():
    # tau^(n+1) passes 1e308 at tau = 1e12 from n = 25 on; each kernel
    # still evaluates, with no overflow warning, to the exact value
    # (integer coefficients at tau_min = 1, summed as fractions) rounded,
    # a term past the double range being the 0 it rounds to
    from fractions import Fraction
    for n in range(2, 41):
        for k in sorted({1, n}):
            p = lebrun_profile(k, 1.0, n=n)
            A, B = int(p.params["A"]), int(p.params["B"])
            for tau in (1, 10 ** 6, 10 ** 12):
                t = Fraction(tau)
                exact = {
                    "phi": t + A / t ** (n - 2) + B / t ** (n - 1),
                    "phi_d1": 1 + (2 - n) * A / t ** (n - 1)
                    + (1 - n) * B / t ** n,
                    "phi_d2": (2 - n) * (1 - n) * A / t ** n
                    + (1 - n) * -n * B / t ** (n + 1)}
                for name, value in exact.items():
                    got = getattr(p, name)(float(tau))
                    assert math.isclose(got, float(value), rel_tol=1e-13,
                                        abs_tol=1e-300), (n, k, tau, name)


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
    # Calabi's metric, k = n: rho = log(tau^n - a^n)/n
    for n in range(3, 8):
        for a in (0.5, 1.0, 2.0):
            calabi = lebrun_profile(n, a, n=n)
            rho = np.linspace(calabi.rho_of_tau(1.001 * a), 25.0, 62)
            tau = (a ** n + np.exp(n * rho)) ** (1.0 / n)
            assert np.allclose(calabi.tau_of_rho(rho), tau, rtol=1e-12,
                               atol=0)
            assert np.allclose(calabi.rho_of_tau(tau), rho, rtol=0,
                               atol=1e-12)


def _round_trip_profiles():
    base = lebrun_profile(1, 1.0)
    samples = np.geomspace(1.0, 1e11, 400)
    custom = custom_profile(
        n=2, k=2, tau_min=1.0,
        phi=lambda t: t - 1.0 / t + 0.1 * (1.0 - t ** -2.0),
        d1=lambda t: 1.0 + t ** -2.0 + 0.2 * t ** -3.0,
        d2=lambda t: -2.0 * t ** -3.0 - 0.6 * t ** -4.0,
    )
    return {
        "lebrun": lebrun_profile(3, 1.0),
        "burns": base,
        "eh": lebrun_profile(2, 1.0),
        "flat": flat_profile(),
        "custom": custom,
        "sampled": sampled_profile(2, 2, 1.0, samples,
                                   lebrun_profile(2, 1.0).phi(samples)),
        "bump": bump_perturbed_profile(base, center=10.0, width=3.0,
                                       amplitude=0.05),
    }


@pytest.mark.parametrize("name", ["lebrun", "burns", "eh", "flat", "custom",
                                  "sampled", "bump"])
def test_tau_of_rho_vectorised_round_trip(name):
    p = _round_trip_profiles()[name]
    taus = np.geomspace(p.tau_min * (1.0 + 1e-5) or 1e-6, 1e11, 400)
    back = p.tau_of_rho(p.rho_of_tau(taus))
    assert np.allclose(back, taus, rtol=1e-12, atol=0)
    grid = taus.reshape(20, 20)
    assert p.tau_of_rho(p.rho_of_tau(grid)).shape == (20, 20)
    one = p.tau_of_rho(p.rho_of_tau(taus[123]))
    assert np.ndim(one) == 0
    assert one == pytest.approx(taus[123], rel=1e-12)


@pytest.mark.parametrize("k,tau_min", [(1, 0.5), (1, 1.0), (1, 2.0), (1, 1e3),
                                       (2, 0.5), (2, 1.0), (2, 2.0), (2, 1e3),
                                       (1, 0.0)])
def test_closed_form_inverse_matches_newton(k, tau_min):
    # (1, 0.0) is the flat cone.  The Newton stops once a step in
    # x = log(tau), or its miss in rho, is within INVERSE_RTOL of the sizes
    # of x and rho, so it pins tau only that closely; on these nodes the
    # closed forms are within 1 ulp of a 40-digit reference and the Newton
    # within 1.5e-14 relative
    p = lebrun_profile(k, tau_min) if tau_min else flat_profile()
    rho = np.linspace(*p._kernel.rho(np.array([p._tau_lo, p.tau_max])), 400)
    closed = p.tau_of_rho(rho)
    newton = _newton_tau(p._kernel, rho, p._tau_lo, p.tau_max)
    bound = INVERSE_RTOL * (np.maximum(1.0, np.abs(np.log(newton)))
                            + np.abs(rho))
    assert np.all(np.abs(closed / newton - 1.0) <= bound)
    # unclipped, e^rho_hi lands up to 0.0017 past tau_max at (1, 0.5)
    assert np.all((closed >= p._tau_lo) & (closed <= p.tau_max))


@pytest.mark.parametrize("base", [lebrun_profile(1, 1.0),
                                  lebrun_profile(2, 1.0),
                                  lebrun_profile(3, 1.0)],
                         ids=["burns", "eh", "lebrun3"])
def test_bump_inverse_is_base_inverse_past_support(base):
    p = bump_perturbed_profile(base, center=10.0, width=3.0, amplitude=0.05)
    rho = base.rho_of_tau(np.geomspace(13.0, 1e11, 60))
    assert np.array_equal(p.tau_of_rho(rho), base.tau_of_rho(rho))


def _two_root_rho(p):
    """The n = 2 profile p with rho = [a log(tau - a) - b log(tau - b)]/(a - b)
    for b = (1 - k) a, the form lebrun_profile took before its all-n
    residue sum, which moves rho by up to 3 ulp."""
    a, b = p.tau_min, (1.0 - p.k) * p.tau_min

    def rho(t):
        return (a * np.log(t - a) - b * np.log(t - b)) / (a - b)
    return replace(p, _kernel=replace(p._kernel, rho=rho))


# tau_of_rho at these rho, recorded when every profile inverted by the
# Newton (numpy 2.4.6, scipy 1.17.1); these still do, inside the bump's
# support for "bump".  "lebrun" is recorded again on the residue-sum rho,
# which moves the last value by 17 ulp; "lebrun-two-root" keeps the
# first record on the old rho
NEWTON_TAU = {
    "lebrun": ([-3.5, -1.5, 0.0, 2.5, 9.0, 25.0],
               ["0x1.00003354e0f18p+0", "0x1.0050d3a770b13p+0",
                "0x1.1a92dc1bf6700p+0", "0x1.689bf5253159ep+3",
                "0x1.fa615845db434p+12", "0x1.0c3d3920862dbp+36"]),
    "lebrun-two-root": ([-3.5, -1.5, 0.0, 2.5, 9.0, 25.0],
                        ["0x1.00003354e0f18p+0", "0x1.0050d3a770b13p+0",
                         "0x1.1a92dc1bf6700p+0", "0x1.689bf5253159ep+3",
                         "0x1.fa615845db434p+12", "0x1.0c3d3920862cap+36"]),
    "custom": ([-3.5, -1.5, 0.0, 2.5, 9.0, 25.0],
               ["0x1.000cbed8f0881p+0", "0x1.0404b3a6ca047p+0",
                "0x1.5aa7de014e2f7p+0", "0x1.83f723e3fa8a9p+3",
                "0x1.fa6fbe6b8b97fp+12", "0x1.0c3d392094a9ep+36"]),
    "sampled": ([-3.5, -1.5, 0.0, 2.5, 9.0, 25.0],
                ["0x1.001e4373336b8p+0", "0x1.064ca725e0489p+0",
                 "0x1.6a09dffafef5ap+0", "0x1.8726a541865d4p+3",
                 "0x1.fa71580524833p+12", "0x1.0c3d3920962c8p+36"]),
    "bump": ([1.85, 1.95, 2.05, 2.15, 2.25, 2.4],
             ["0x1.d6664e7a1f747p+2", "0x1.00937f555dbbfp+3",
              "0x1.183d1e87ca86ep+3", "0x1.327724ff49fe9p+3",
              "0x1.4f7e92bec333fp+3", "0x1.80bd26d7acb8fp+3"]),
}


@pytest.mark.parametrize("name", sorted(NEWTON_TAU))
def test_newton_inverse_unchanged_bit_for_bit(name):
    rho, recorded = NEWTON_TAU[name]
    profiles = _round_trip_profiles()
    profiles["lebrun-two-root"] = _two_root_rho(profiles["lebrun"])
    tau = profiles[name].tau_of_rho(np.array(rho))
    assert [t.hex() for t in tau] == recorded


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
