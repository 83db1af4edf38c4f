"""U(n)-invariant radial metrics on O(-k) over CP^{n-1}.

A metric in this family is encoded by its momentum profile: with rho the
log-radial Calabi coordinate and u(rho) the Kahler potential, the momentum
coordinate is tau = u'(rho) and the profile function is phi(tau) = u''(rho).
The metric eigenvalues are tau*exp(-rho) on the base directions (multiplicity
n-1) and phi(tau)*exp(-rho) on the fiber direction, so phi > 0 on the open
manifold and phi(tau)/tau -> 1 encodes asymptotic flatness.

Curvature is driven by the log-volume function

    F = (n-1)*log(u') + log(u'') - n*rho,

whose first and second rho-derivatives give the two Ricci eigenvalues.

Each profile carries its own anchored rho(tau) = int d tau / phi, set once
by its constructor: closed forms for the LeBrun family (partial fractions
of 1/phi) and the flat cone (log tau), the base rho plus a compact
Gauss-Legendre correction for a bump perturbation, and a log-grid
quadrature only for custom and sampled profiles.  The inverse tau(rho) is
one vectorised safeguarded Newton iteration shared by every profile.

Every rho-derivative of a radial field comes from d/drho = phi d/dtau,
written once as ``RadialProfile.rho_jet``; the background potential and
the boundary data given in tau each use it after one inversion tau(rho).

scipy's quadrature and interpolation (scipy.integrate, scipy.interpolate)
are imported inside the custom and sampled constructors that use them, so
importing this module, or building a LeBrun, flat or bump-perturbed
profile, loads numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RadialProfile",
    "CurvatureSample",
    "SignScanResult",
    "lebrun_profile",
    "flat_profile",
    "custom_profile",
    "sampled_profile",
    "bump_perturbed_profile",
    "metric_eigenvalues",
    "ricci_eigenvalues",
    "scalar_curvature",
    "ricci_sign_scan",
    "curvature_scan_rows",
    "profile_to_json",
    "profile_from_json",
]

# Curvature queries keep away from the zero-section coordinate degeneracy.
DEFAULT_ZERO_SECTION_MARGIN = 1e-6
# tau_of_rho stops once a Newton step moves x = log(tau), or rho misses its
# target, by less than this relative to the size of x and rho: where rho is
# flat in x (tau << phi) rho pins x only to its own roundoff, and the step
# test alone can cycle.  Bisection alone would need ~60 halvings.
INVERSE_RTOL = 4.0 * np.finfo(float).eps
INVERSE_MAX_ITERS = 100
# Gauss-Legendre nodes for the bump correction to rho; its integrand is a
# degree-8 polynomial over a smooth positive denominator on each interval.
BUMP_RHO_NODES = 32


class ProfileError(ValueError):
    """Invalid profile construction or out-of-domain query."""


@dataclass(frozen=True)
class _Kernel:
    """Profile function, its derivatives in tau, and the anchored rho(tau)."""

    phi: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RadialProfile:
    """Immutable radial metric: profile function plus reconstruction data.

    ``rho_of_tau`` is anchored so that both metric eigenvalues tend to 1 at
    the outer end of the domain (``anchor="infinity"`` for closed forms,
    ``anchor="tau_max"`` for sampled data).  The anchor only shifts rho by a
    constant and is recorded here.
    """

    n: int
    k: int
    tau_min: float
    tau_max: float
    form: str
    params: dict = field(default_factory=dict)
    anchor: str = "infinity"
    _kernel: _Kernel = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n < 2:
            raise ProfileError(f"complex dimension n must be >= 2, got {self.n}")
        if self.k < 1:
            raise ProfileError(f"line-bundle twist k must be >= 1, got {self.k}")
        if self.tau_min < 0:
            raise ProfileError(f"tau_min must be >= 0, got {self.tau_min}")
        if self.tau_max <= self.tau_min:
            raise ProfileError("tau_max must exceed tau_min")

    # -- profile function ------------------------------------------------

    def phi(self, tau):
        tau = np.asarray(tau, dtype=float)
        self._check_domain(tau, strict=False)
        return self._kernel.phi(tau)

    def phi_d1(self, tau):
        return self._kernel.d1(np.asarray(tau, dtype=float))

    def phi_d2(self, tau):
        return self._kernel.d2(np.asarray(tau, dtype=float))

    def phi_d3(self, tau):
        return self._kernel.d3(np.asarray(tau, dtype=float))

    def _check_domain(self, tau, strict=True):
        tau = np.asarray(tau, dtype=float)
        lo = self.tau_min * (1.0 + DEFAULT_ZERO_SECTION_MARGIN) if strict else self.tau_min
        if np.any(tau < lo - 1e-15) or np.any(tau > self.tau_max * (1 + 1e-12)):
            raise ProfileError(
                f"tau out of profile domain [{lo}, {self.tau_max}]"
            )

    # -- reconstruction --------------------------------------------------

    def rho_of_tau(self, tau):
        """Calabi variable rho(tau) = int d tau / phi, anchored per ``anchor``."""
        tau = np.asarray(tau, dtype=float)
        self._check_domain(tau)
        return self._kernel.rho(tau)

    def tau_of_rho(self, rho):
        """Inverse of rho_of_tau, vectorised over any array shape.

        Safeguarded Newton in x = log(tau): d rho/dx = tau/phi > 0, so the
        domain ends bracket every root, each iterate shrinks its point's
        bracket, and a step that leaves the bracket becomes a bisection.
        """
        rho = np.asarray(rho, dtype=float)
        kern = self._kernel
        lo_tau = (self.tau_min * (1.0 + DEFAULT_ZERO_SECTION_MARGIN)
                  if self.tau_min > 0 else 1e-8)
        x_lo, x_hi = math.log(lo_tau), math.log(self.tau_max)
        rho_lo, rho_hi = kern.rho(np.array([lo_tau, self.tau_max]))
        target = rho.ravel()
        if not np.all((target >= rho_lo) & (target <= rho_hi)):
            raise ProfileError(
                f"rho out of profile range [{rho_lo}, {rho_hi}]")
        out = np.empty_like(target)
        idx = np.arange(target.size)
        x = np.clip(target, x_lo, x_hi)  # rho - log(tau) -> 0 at infinity
        lo = np.full_like(x, x_lo)
        hi = np.full_like(x, x_hi)
        for _ in range(INVERSE_MAX_ITERS):
            tau = np.exp(x)
            f = kern.rho(tau) - target
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)
            x_new = x - f * kern.phi(tau) / tau
            # a step below roundoff lands on the bracket end it started from
            x_new = np.where((x_new >= lo) & (x_new <= hi), x_new,
                             0.5 * (lo + hi))
            scale = np.maximum(1.0, np.abs(x))
            done = ((np.abs(x_new - x) <= INVERSE_RTOL * scale)
                    | (np.abs(f) <= INVERSE_RTOL * (scale + np.abs(target))))
            out[idx[done]] = np.exp(x_new[done])
            keep = ~done
            idx, x, lo, hi = idx[keep], x_new[keep], lo[keep], hi[keep]
            target = target[keep]
            if idx.size == 0:
                return out.reshape(rho.shape)[()]
        raise ProfileError(
            f"tau_of_rho: {idx.size} points unconverged after "
            f"{INVERSE_MAX_ITERS} iterations")

    # -- rho-derivatives of radial fields ---------------------------------

    def rho_jet(self, tau, f, order):
        """[f, Df, ..., D^order f] for D = d/drho = phi(tau) d/dtau.

        ``f`` holds the tau-derivatives f, ..., f^(order) at tau, order <= 4.
        Each step takes the tau-derivatives of D g = phi g' by the Leibniz
        rule, (phi g')^(m) = sum_i C(m, i) phi^(i) g^(m+1-i), so only
        phi, ..., phi^(order-1) are evaluated.
        """
        dphi = [d(tau) for d in (self.phi, self.phi_d1, self.phi_d2,
                                 self.phi_d3)[:order]]
        g = list(f[:order + 1])
        jet = [g[0]]
        for j in range(order):
            g = [sum(math.comb(m, i) * dphi[i] * g[m + 1 - i]
                     for i in range(m + 1))
                 for m in range(order - j)]
            jet.append(g[0])
        return jet

    def u_derivatives(self, rho, order=4):
        """(u', ..., u^(order)) of the background potential at rho.

        u' = tau and u'' = D tau = phi(tau); the rest is ``rho_jet`` of tau.
        Used by the geodesic and energy modules.
        """
        tau = self.tau_of_rho(rho)
        return tuple(self.rho_jet(tau, [tau, 1.0, 0.0, 0.0], order - 1))

    def to_json_dict(self):
        if self.form == "lebrun":
            params = {"A": self.params["A"], "B": self.params["B"],
                      "tau_max": self.tau_max}
        elif self.form == "flat":
            params = {"tau_max": self.tau_max}
        elif self.form == "samples":
            params = {"tau": list(self.params["tau"]),
                      "phi": list(self.params["phi"])}
        else:
            raise ProfileError(f"form {self.form!r} does not serialize")
        return {"n": self.n, "k": self.k, "tau_min": self.tau_min,
                "form": self.form, "params": params}


@dataclass(frozen=True)
class CurvatureSample:
    """Pointwise curvature data of a radial metric."""

    tau: float
    lambda_base: float
    lambda_fiber: float
    ric_base: float
    ric_fiber: float
    scal: float


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _quadrature_rho(phi, tau_min, tau_max, anchor):
    """rho(tau) for a profile without a closed form.

    rho = log(tau) + corr, where the correction integrand 1/tau - 1/phi
    decays like 1/tau^2, so a cumulative quadrature on a dense log grid
    resolves it well and PCHIP in log(tau) interpolates it.  With the
    "infinity" anchor a single tail quadrature pins the outer constant so
    the metric eigenvalues tend to exactly 1; with "tau_max",
    rho(tau_max) = log(tau_max).
    """
    from scipy import integrate, interpolate

    # geometric clustering in tau - tau_min: 1/phi ~ 1/(k(tau-tau_min))
    # near the zero section, so uniform-in-log-tau grids misintegrate it
    if tau_min > 0:
        grid = tau_min + np.geomspace(tau_min * 1e-8, tau_max - tau_min, 12001)
    else:
        grid = np.geomspace(1e-8, tau_max, 12001)
    integrand = 1.0 / grid - 1.0 / phi(grid)
    # corr(tau) = const + int_tau^{tau_max} integrand
    cum = integrate.cumulative_simpson(integrand, x=grid, initial=0.0)
    corr = cum[-1] - cum
    if anchor == "infinity":
        tail, _ = integrate.quad(
            lambda s: 1.0 / s - 1.0 / float(phi(np.asarray(s))),
            tau_max, np.inf, limit=200)
        corr = corr + tail
    corr = interpolate.PchipInterpolator(np.log(grid), corr)

    def rho(tau):
        x = np.log(tau)
        return x + corr(x)
    return rho


def lebrun_profile(k: int, tau_min: float, n: int = 2,
                   tau_max: float = 1e12) -> RadialProfile:
    """Scalar-flat family phi(tau) = tau + A + B/tau on O(-k) over CP^1.

    A and B are fixed by smooth compactification across the zero section:
    phi(tau_min) = 0 and phi'(tau_min) = k.  k = 2 with B = -tau_min^2 is the
    Ricci-flat Eguchi-Hanson case; k = 1 is the Burns case.
    """
    if n != 2:
        raise ProfileError("the tau + A + B/tau closed form is specific to n=2")
    if tau_min <= 0:
        raise ProfileError(f"tau_min must be > 0, got {tau_min}")
    A = (k - 2.0) * tau_min
    B = (1.0 - k) * tau_min ** 2
    # phi = (tau - a)(tau - b)/tau, so 1/phi splits into partial fractions
    # and rho = [a log(tau - a) - b log(tau - b)]/(a - b), whose constant
    # is 0 under the "infinity" anchor: 1/2 log(tau^2 - a^2) at k = 2
    # (Eguchi-Hanson), log(tau - a) at k = 1 (Burns)
    a, b = float(tau_min), (1.0 - k) * tau_min
    kern = _Kernel(
        phi=lambda t: t + A + B / t,
        d1=lambda t: 1.0 - B / t ** 2,
        d2=lambda t: 2.0 * B / t ** 3,
        d3=lambda t: -6.0 * B / t ** 4,
        rho=lambda t: (a * np.log(t - a) - b * np.log(t - b)) / (a - b),
    )
    return RadialProfile(n=n, k=k, tau_min=tau_min, tau_max=tau_max,
                         form="lebrun", params={"A": A, "B": B},
                         anchor="infinity", _kernel=kern)


def flat_profile(n: int = 2, k: int = 1, tau_max: float = 1e12) -> RadialProfile:
    """Flat cone profile phi(tau) = tau, i.e. u = exp(rho)."""
    kern = _Kernel(
        phi=lambda t: np.asarray(t, dtype=float) + 0.0,
        d1=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d3=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        rho=np.log,
    )
    return RadialProfile(n=n, k=k, tau_min=0.0, tau_max=tau_max,
                         form="flat", params={}, anchor="infinity",
                         _kernel=kern)


def custom_profile(n, k, tau_min, phi, d1, d2, d3, tau_max=1e12,
                   form="custom", anchor="infinity") -> RadialProfile:
    """Profile from explicit callables phi(tau) and its first three derivatives."""
    kern = _Kernel(phi=phi, d1=d1, d2=d2, d3=d3,
                   rho=_quadrature_rho(phi, tau_min, tau_max, anchor))
    return RadialProfile(n=n, k=k, tau_min=tau_min, tau_max=tau_max,
                         form=form, params={}, anchor=anchor, _kernel=kern)


def sampled_profile(n, k, tau_min, tau: Sequence[float],
                    phi: Sequence[float]) -> RadialProfile:
    """Profile from samples, via monotone cubic interpolation.

    Curvature needs two derivatives of phi, so the interpolant's analytic
    derivatives are used rather than finite differences of the data.
    """
    tau = np.asarray(tau, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if tau.ndim != 1 or tau.shape != phi.shape or tau.size < 4:
        raise ProfileError("need matching 1-d tau/phi sample arrays (>= 4 points)")
    if np.any(np.diff(tau) <= 0):
        raise ProfileError("tau samples must be strictly increasing")
    if np.any(phi[tau > tau_min] <= 0):
        raise ProfileError("phi samples must be positive above tau_min")
    from scipy import interpolate

    interp = interpolate.PchipInterpolator(tau, phi)
    kern = _Kernel(phi=interp, d1=interp.derivative(1),
                   d2=interp.derivative(2), d3=interp.derivative(3),
                   rho=_quadrature_rho(interp, float(tau_min), float(tau[-1]),
                                       "tau_max"))
    return RadialProfile(n=n, k=k, tau_min=float(tau_min),
                         tau_max=float(tau[-1]), form="samples",
                         params={"tau": tau, "phi": phi}, anchor="tau_max",
                         _kernel=kern)


def bump_perturbed_profile(base: RadialProfile, center: float, width: float,
                           amplitude: float) -> RadialProfile:
    """Base profile plus a compactly supported C^3 bump in phi.

    The bump is amplitude * (1 - ((tau-center)/width)^2)^4 on
    |tau - center| < width and zero outside; used for the mass-invariance
    check, where a compactly supported profile change must not move the
    boundary flux at large radius.
    """
    c, w, a = float(center), float(width), float(amplitude)
    bump = a * np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 4
    derivs = [bump.deriv(m) for m in range(4)]

    def s(t, m=0):
        """Order-m tau-derivative of the bump, zero off its support."""
        x = (np.asarray(t, dtype=float) - c) / w
        return np.where(np.abs(x) < 1.0, derivs[m](x) / w ** m, 0.0)

    base_phi, base_rho = base._kernel.phi, base._kernel.rho
    nodes, weights = np.polynomial.legendre.leggauss(BUMP_RHO_NODES)

    def rho(t):
        # base rho plus int_t^{c+w} (1/phi_base - 1/phi), the integrand
        # being s/(phi_base*phi) on the support; the interval collapses
        # to a point past the bump, which keeps the base rho exactly
        t = np.asarray(t, dtype=float)
        lo = np.clip(t, c - w, c + w)[..., None]
        half = 0.5 * (c + w - lo)
        q = lo + half * (nodes + 1.0)
        pb = base_phi(q)
        corr = np.sum(weights * half * s(q) / (pb * (pb + s(q))), axis=-1)
        return base_rho(t) + corr

    kern = _Kernel(
        phi=lambda t: base_phi(np.asarray(t, dtype=float)) + s(t),
        d1=lambda t: base.phi_d1(t) + s(t, 1),
        d2=lambda t: base.phi_d2(t) + s(t, 2),
        d3=lambda t: base.phi_d3(t) + s(t, 3),
        rho=rho,
    )
    return RadialProfile(n=base.n, k=base.k, tau_min=base.tau_min,
                         tau_max=base.tau_max, form="perturbed",
                         params={"center": c, "width": w, "amplitude": a},
                         anchor=base.anchor, _kernel=kern)


# ---------------------------------------------------------------------------
# curvature operations
# ---------------------------------------------------------------------------

def _log_volume_derivs(p: RadialProfile, tau):
    """First and second rho-derivatives of F = (n-1) log u' + log u'' - n rho."""
    tau = np.asarray(tau, dtype=float)
    n = p.n
    ph = p.phi(tau)
    d1 = p.phi_d1(tau)
    d2 = p.phi_d2(tau)
    F1 = (n - 1) * ph / tau + d1 - n
    # grouped as (d1*tau - phi)/tau^2 so phi(tau)=tau cancels exactly
    F2 = ph * ((n - 1) * (d1 * tau - ph) / tau ** 2 + d2)
    return F1, F2


def metric_eigenvalues(p: RadialProfile, tau):
    """Metric eigenvalues (lambda_base, lambda_fiber) = (tau, phi(tau)) * exp(-rho)."""
    tau = np.asarray(tau, dtype=float)
    p._check_domain(tau)
    e = np.exp(-p.rho_of_tau(tau))
    return tau * e, p.phi(tau) * e


def ricci_eigenvalues(p: RadialProfile, tau):
    """Ricci eigenvalues (-F', -F'') * exp(-rho); base has multiplicity n-1."""
    tau = np.asarray(tau, dtype=float)
    p._check_domain(tau)
    F1, F2 = _log_volume_derivs(p, tau)
    e = np.exp(-p.rho_of_tau(tau))
    return -F1 * e, -F2 * e


def scalar_curvature(p: RadialProfile, tau):
    """Scalar curvature 2[(n-1) ric_base/lam_base + ric_fiber/lam_fiber].

    The exp(-rho) factors cancel in the trace, so no reconstruction is
    needed; LeBrun profiles give identically zero.
    """
    tau = np.asarray(tau, dtype=float)
    p._check_domain(tau)
    F1, F2 = _log_volume_derivs(p, tau)
    return 2.0 * (-(p.n - 1) * F1 / tau - F2 / p.phi(tau))


def curvature_sample(p: RadialProfile, tau) -> CurvatureSample:
    lb, lf = metric_eigenvalues(p, tau)
    rb, rf = ricci_eigenvalues(p, tau)
    return CurvatureSample(tau=float(tau), lambda_base=float(lb),
                           lambda_fiber=float(lf), ric_base=float(rb),
                           ric_fiber=float(rf),
                           scal=float(scalar_curvature(p, tau)))


@dataclass(frozen=True)
class SignScanResult:
    """Outcome of a Ricci sign scan over a tau grid."""

    classification: str  # positive-semidefinite | negative-semidefinite | mixed | zero
    positive_witness: tuple | None  # (tau, eigenvalue)
    negative_witness: tuple | None
    positive_margin: float  # largest positive eigenvalue seen (0 if none)
    negative_margin: float  # most negative eigenvalue seen (0 if none)


def ricci_sign_scan(p: RadialProfile, tau_grid=None, zero_tol: float = 1e-8) -> SignScanResult:
    """Classify the sign of the Ricci form over a tau grid.

    Eigenvalues within zero_tol of 0 count as zero; the classification is
    mixed when both signs occur, zero when nothing exceeds the tolerance.
    """
    if tau_grid is None:
        lo = max(p.tau_min * (1 + 1e-3), 1e-3)
        hi = min(p.tau_max, 1e6)
        tau_grid = np.geomspace(lo, hi, 400)
    tau_grid = np.asarray(tau_grid, dtype=float)
    rb, rf = ricci_eigenvalues(p, tau_grid)
    eigs = np.concatenate([rb, rf])
    taus = np.concatenate([tau_grid, tau_grid])
    pos = eigs > zero_tol
    neg = eigs < -zero_tol
    pos_w = neg_w = None
    pos_m = neg_m = 0.0
    if pos.any():
        i = int(np.argmax(np.where(pos, eigs, -np.inf)))
        pos_w = (float(taus[i]), float(eigs[i]))
        pos_m = float(eigs[i])
    if neg.any():
        i = int(np.argmin(np.where(neg, eigs, np.inf)))
        neg_w = (float(taus[i]), float(eigs[i]))
        neg_m = float(eigs[i])
    if pos.any() and neg.any():
        cls = "mixed"
    elif pos.any():
        cls = "positive-semidefinite"
    elif neg.any():
        cls = "negative-semidefinite"
    else:
        cls = "zero"
    return SignScanResult(cls, pos_w, neg_w, pos_m, neg_m)


def curvature_scan_rows(p: RadialProfile, tau_grid):
    """Rows (tau, rho, r, lambda_base, lambda_fiber, ric_base, ric_fiber, scal)."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    rho = p.rho_of_tau(tau_grid)
    r = np.exp(rho / 2.0)
    e = np.exp(-rho)
    F1, F2 = _log_volume_derivs(p, tau_grid)
    lb, lf = tau_grid * e, p.phi(tau_grid) * e
    return np.column_stack([tau_grid, rho, r, lb, lf, -F1 * e, -F2 * e,
                            scalar_curvature(p, tau_grid)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_to_json(p: RadialProfile) -> str:
    return json.dumps(p.to_json_dict(), sort_keys=True)


def profile_from_json(doc) -> RadialProfile:
    if isinstance(doc, str):
        doc = json.loads(doc)
    form = doc["form"]
    if form == "lebrun":
        return lebrun_profile(doc["k"], doc["tau_min"], n=doc["n"],
                              tau_max=doc["params"].get("tau_max", 1e12))
    if form == "flat":
        return flat_profile(n=doc["n"], k=doc["k"],
                            tau_max=doc["params"].get("tau_max", 1e12))
    if form == "samples":
        return sampled_profile(doc["n"], doc["k"], doc["tau_min"],
                               doc["params"]["tau"], doc["params"]["phi"])
    raise ProfileError(f"unknown profile form {form!r}")
