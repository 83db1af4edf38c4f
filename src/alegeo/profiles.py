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
of 1/phi at every n) and the flat cone (log tau), the base rho plus a
compact Gauss-Legendre correction for a bump perturbation, and a log-grid
quadrature only for custom and sampled profiles.  The inverse tau(rho) is
exact for Calabi's metric, Burns, the flat cone and a bump past its
support, and one vectorised safeguarded Newton, _newton_tau, elsewhere.

Every rho-derivative of a radial field comes from d/drho = phi d/dtau,
written once as ``RadialProfile.rho_jet``; the background potential and
the boundary data given in tau each use it after one inversion tau(rho).

scipy's quadrature and interpolation (scipy.integrate, scipy.interpolate)
are imported inside the custom and sampled constructors that use them, so
importing this module, or building a LeBrun, flat or bump-perturbed
profile, loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RadialProfile",
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
    "profile_from_json",
    "check_profile_json",
    "check_bundle",
]

# Curvature queries keep away from the zero-section coordinate degeneracy.
DEFAULT_ZERO_SECTION_MARGIN = 1e-6
# _newton_tau stops once a Newton step moves x = log(tau), or rho misses
# its target, by less than this relative to the size of x and rho: where rho
# is flat in x (tau << phi) rho pins x only to its own roundoff, and the
# step test alone can cycle.  Bisection alone would need ~60 halvings.
INVERSE_RTOL = 4.0 * np.finfo(float).eps
INVERSE_MAX_ITERS = 100
# Gauss-Legendre nodes for the bump correction to rho; its integrand is a
# degree-8 polynomial over a smooth positive denominator on each interval.
BUMP_RHO_NODES = 32


class ProfileError(ValueError):
    """Invalid profile construction or out-of-domain query."""


def is_real(value):
    """A real number, as JSON gives one: bool excepted."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_keys(section, name, allowed, required=(), error=ProfileError):
    """Raise error unless section is an object whose keys are all allowed
    and include every required one; the message names the field."""
    if not isinstance(section, dict):
        raise error(f"{name} must be an object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise error(f"{name} has unknown keys {unknown}; expected "
                    f"some of {list(allowed)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise error(f"{name}: missing {missing[0]!r}")


def check_bundle(n, k, prefix=""):
    """Raise ProfileError unless O(-k) over CP^{n-1} is a bundle of the
    family: n an integer >= 2 and k an integer >= 1, neither a bool."""
    for name, value, low in (("n", n, 2), ("k", k, 1)):
        if isinstance(value, bool) or not (isinstance(value, int)
                                           and value >= low):
            raise ProfileError(f"{prefix}{name} must be an integer >= {low}, "
                               f"got {value!r}")


@dataclass(frozen=True)
class _Kernel:
    """Profile function, its tau-derivatives, rho(tau) and any exact inverse."""

    phi: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]
    tau: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class RadialProfile:
    """Immutable radial metric: profile function plus reconstruction data.

    Each constructor fixes the anchor of ``rho_of_tau`` so that both metric
    eigenvalues tend to 1 at the outer end of the domain: at infinity, but
    at tau_max for sampled data and as its base for a bump.  The anchor
    only shifts rho by a constant.
    """

    n: int
    k: int
    tau_min: float
    tau_max: float
    form: str
    params: dict = field(default_factory=dict)
    _kernel: _Kernel = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        check_bundle(self.n, self.k)
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

    def _check_domain(self, tau, strict=True):
        tau = np.asarray(tau, dtype=float)
        lo = self.tau_min * (1.0 + DEFAULT_ZERO_SECTION_MARGIN) if strict else self.tau_min
        if np.any(tau < lo - 1e-15) or np.any(tau > self.tau_max * (1 + 1e-12)):
            raise ProfileError(
                f"tau out of profile domain [{lo}, {self.tau_max}]"
            )

    # -- reconstruction --------------------------------------------------

    def rho_of_tau(self, tau):
        """Calabi variable rho(tau) = int d tau / phi, as its constructor
        anchors it."""
        tau = np.asarray(tau, dtype=float)
        self._check_domain(tau)
        return self._kernel.rho(tau)

    def tau_of_rho(self, rho):
        """Inverse of rho_of_tau, vectorised over any array shape."""
        rho = np.asarray(rho, dtype=float)
        lo, hi = self._kernel.rho(np.array([self._tau_lo, self.tau_max]))
        if not np.all((rho >= lo) & (rho <= hi)):
            raise ProfileError(f"rho out of profile range [{lo}, {hi}]")
        return self._invert(rho.ravel()).reshape(rho.shape)[()]

    @property
    def _tau_lo(self):
        return self.tau_min * (1.0 + DEFAULT_ZERO_SECTION_MARGIN) or 1e-8

    def _invert(self, target):
        """tau at the in-range 1-D target: exact inverse, clipped, or Newton."""
        kern = self._kernel
        if kern.tau is None:
            return _newton_tau(kern, target, self._tau_lo, self.tau_max)
        return np.clip(kern.tau(target), self._tau_lo, self.tau_max)

    # -- rho-derivatives of radial fields ---------------------------------

    def rho_jet(self, tau, f, order):
        """[f, Df, ..., D^order f] for D = d/drho = phi(tau) d/dtau.

        ``f`` holds the tau-derivatives f, ..., f^(order) at tau, order <= 3.
        Each step takes the tau-derivatives of D g = phi g' by the Leibniz
        rule, (phi g')^(m) = sum_i C(m, i) phi^(i) g^(m+1-i), so only
        phi, ..., phi^(order-1) are evaluated.
        """
        dphi = [d(tau) for d in (self.phi, self.phi_d1, self.phi_d2)[:order]]
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
        Only geodesic._FixedData calls it, for both geodesic and energy.
        """
        tau = self.tau_of_rho(rho)
        return tuple(self.rho_jet(tau, [tau, 1.0, 0.0, 0.0], order - 1))

    def to_json_dict(self):
        if self.form in ("lebrun", "flat"):
            params = {"tau_max": self.tau_max}
        elif self.form == "samples":
            params = {"tau": list(self.params["tau"]),
                      "phi": list(self.params["phi"])}
        else:
            raise ProfileError(f"form {self.form!r} does not serialize")
        return {"n": self.n, "k": self.k, "tau_min": self.tau_min,
                "form": self.form, "params": params}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _newton_tau(kern, target, tau_lo, tau_hi):
    """tau in [tau_lo, tau_hi] with kern.rho(tau) = target (1-D), by Newton
    in x = log(tau) safeguarded: d rho/dx = tau/phi > 0, so each iterate
    shrinks its point's bracket and a step that leaves it is a bisection."""
    out = np.empty_like(target)
    idx = np.arange(target.size)
    x_lo, x_hi = math.log(tau_lo), math.log(tau_hi)
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
            return out
    raise ProfileError(
        f"tau_of_rho: {idx.size} points unconverged after "
        f"{INVERSE_MAX_ITERS} iterations")


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
    """Scalar-flat family phi = tau + A tau^{2-n} + B tau^{1-n} on O(-k)
    over CP^{n-1}.

    A = (k-n) tau_min^{n-1} and B = (n-k-1) tau_min^n are fixed by smooth
    compactification across the zero section: phi(tau_min) = 0 and
    phi'(tau_min) = k.  k = n is Calabi's Ricci-flat metric (Eguchi-Hanson
    at n = 2), and k = 1 at n = 2 is the Burns metric.
    """
    if tau_min <= 0:
        raise ProfileError(f"tau_min must be > 0, got {tau_min}")
    a = float(tau_min)
    A = (k - n) * a ** (n - 1)
    B = (n - k - 1) * a ** n
    # phi = P/tau^{n-1}, P = tau^n + A tau + B = (tau - a) a^{n-1} q(tau/a),
    # q = x^{n-1} + ... + x + k - n + 1 (root 1 - k at n = 2).  The residues
    # r^{n-1}/P'(r) = 1/phi'(r) of 1/phi (1/k at a) sum to 1, so rho = Re sum
    # res log(tau - r) -> log(tau); a conjugate pair counts once, doubled
    others = (np.array([1.0 - k]) if n == 2
              else np.roots([1.0] * (n - 1) + [k - n + 1.0])) * a
    others = others[others.imag >= 0]
    residues = (np.where(others.imag > 0, 2.0, 1.0) * others ** (n - 1)
                / (n * others ** (n - 1) + A))
    # exact inverses: Calabi's rho = log(tau^n - a^n)/n, e^rho factored out
    # against overflow (the later key, np.hypot, at n = 2); Burns' rho
    tau = {(n, n): lambda r: np.exp(r) * (1.0 + (a * np.exp(-r)) ** n)
           ** (1.0 / n),
           (2, 2): lambda r: np.hypot(a, np.exp(r)),
           (2, 1): lambda r: a + np.exp(r)}.get((n, k))
    # tau^(n+1) may pass 1e308 for n > 2; c / inf is then the 0 it rounds to
    terms = dict(
        phi=lambda t: t + A / t ** (n - 2) + B / t ** (n - 1),
        d1=lambda t: 1.0 + (2 - n) * A / t ** (n - 1) + (1 - n) * B / t ** n,
        d2=lambda t: ((2 - n) * (1 - n) * A / t ** n
                      + (1 - n) * -n * B / t ** (n + 1)))
    terms = {key: np.errstate(over="ignore")(f) for key, f in terms.items()}
    kern = _Kernel(**terms, tau=tau, rho=lambda t: np.log(t - a) / k
                   + np.real(np.log(np.subtract.outer(t, others)) @ residues))
    return RadialProfile(n=n, k=k, tau_min=tau_min, tau_max=tau_max,
                         form="lebrun", params={"A": A, "B": B},
                         _kernel=kern)


def flat_profile(n: int = 2, k: int = 1, tau_max: float = 1e12) -> RadialProfile:
    """Flat cone profile phi(tau) = tau, i.e. u = exp(rho)."""
    kern = _Kernel(
        phi=lambda t: np.asarray(t, dtype=float) + 0.0,
        d1=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        rho=np.log,
        tau=np.exp,
    )
    return RadialProfile(n=n, k=k, tau_min=0.0, tau_max=tau_max,
                         form="flat", params={}, _kernel=kern)


def custom_profile(n, k, tau_min, phi, d1, d2,
                   tau_max=1e12) -> RadialProfile:
    """Profile from explicit callables phi(tau) and its first two derivatives."""
    kern = _Kernel(phi=phi, d1=d1, d2=d2,
                   rho=_quadrature_rho(phi, tau_min, tau_max, "infinity"))
    return RadialProfile(n=n, k=k, tau_min=tau_min, tau_max=tau_max,
                         form="custom", params={}, _kernel=kern)


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
                   d2=interp.derivative(2),
                   rho=_quadrature_rho(interp, float(tau_min), float(tau[-1]),
                                       "tau_max"))
    return RadialProfile(n=n, k=k, tau_min=float(tau_min),
                         tau_max=float(tau[-1]), form="samples",
                         params={"tau": tau, "phi": phi}, _kernel=kern)


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
    derivs = [bump.deriv(m) for m in range(3)]

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

    def tau(r):
        # past the support rho is the base rho, and so is its inverse
        out, inside = np.empty_like(r), r < base_rho(c + w)
        out[~inside] = base._invert(r[~inside])
        out[inside] = _newton_tau(kern, r[inside], base._tau_lo, base.tau_max)
        return out

    kern = _Kernel(
        phi=lambda t: base_phi(np.asarray(t, dtype=float)) + s(t),
        d1=lambda t: base.phi_d1(t) + s(t, 1),
        d2=lambda t: base.phi_d2(t) + s(t, 2),
        rho=rho,
        tau=tau,
    )
    return RadialProfile(n=base.n, k=base.k, tau_min=base.tau_min,
                         tau_max=base.tau_max, form="perturbed",
                         params={"center": c, "width": w, "amplitude": a},
                         _kernel=kern)


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

# a profile document's keys, all required, and the params of each form:
# required, then optional
PROFILE_KEYS = ("form", "n", "k", "tau_min", "params")
PROFILE_PARAMS = {"lebrun": ((), ("tau_max",)), "flat": ((), ("tau_max",)),
                  "samples": (("tau", "phi"), ())}


def check_profile_json(doc, name="profile"):
    """Raise ProfileError, naming the field, unless doc is a profile
    document whose values have the types and ranges its form needs."""
    check_keys(doc, name, PROFILE_KEYS, PROFILE_KEYS)
    form, tau_min, params = doc["form"], doc["tau_min"], doc["params"]
    if form not in PROFILE_PARAMS:
        raise ProfileError(f"{name}.form must be one of "
                           f"{list(PROFILE_PARAMS)}, got {form!r}")
    check_bundle(doc["n"], doc["k"], f"{name}.")
    if not is_real(tau_min):
        raise ProfileError(f"{name}.tau_min must be a real number, "
                           f"got {tau_min!r}")
    if form == "lebrun" and not tau_min > 0:
        raise ProfileError(f"{name}.tau_min must be > 0 for the lebrun form")
    if form == "flat" and tau_min != 0:
        raise ProfileError(f"{name}.tau_min must be 0 for the flat form")
    required, optional = PROFILE_PARAMS[form]
    check_keys(params, f"{name}.params", required + optional, required)
    for key, value in params.items():
        if key == "tau_max" and not is_real(value):
            raise ProfileError(f"{name}.params.tau_max must be a real "
                               f"number, got {value!r}")
        if key != "tau_max" and not (isinstance(value, list)
                                     and all(map(is_real, value))):
            raise ProfileError(f"{name}.params.{key} must be a list of "
                               f"real numbers")


def profile_from_json(doc) -> RadialProfile:
    """The profile a document describes, checked by check_profile_json
    first."""
    check_profile_json(doc)
    form, n, k, tau_min, params = (doc[key] for key in PROFILE_KEYS)
    if form == "lebrun":
        return lebrun_profile(k, tau_min, n=n, **params)
    if form == "flat":
        return flat_profile(n=n, k=k, **params)
    return sampled_profile(n, k, tau_min, **params)
