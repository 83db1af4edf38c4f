"""Decay-rate fitting and ADM boundary flux.

Radii are always the asymptotic-chart radius r = exp(rho/2).  Decay fits are
least-squares slopes of log|value| against log r over a window; the window
default [r_max/8, r_max/2] keeps clear of both the interior and the
truncation boundary.

The ADM flux is in closed form.  With a = lam_b - 1 and b = lam_f - 1
(multiplicities 2n - 2 and 2 in the real chart), h = a I + (b - a) P for P
the projector on span(x, Jx), and at (r, 0, ..., 0) the integrand
(d_j h_ij - d_i h_jj) nu_i reads -b' - (2n-2) a' + (2n-2)(b - a)/r.  With
d/dr = (2/r) d/drho, d lam_b/drho = (phi - tau) e^-rho and
d lam_f/drho = phi (phi' - 1) e^-rho, r^{2n-1} times it is

    e^{(n-2) rho} [-2 phi (phi' - 1) - 2 (n-1) (phi - tau)],

which tends to -2A = 2 (n - k) tau_min^{n-1} on the scalar-flat family
phi = tau + A tau^{2-n} + B tau^{1-n} of profiles.lebrun_profile (so
Burns gives 2 tau_min).  For n >= 3 the factor e^{(n-2) rho} amplifies
the roundoff of phi - tau, which is ulp(tau) against a difference of
order tau^{2-n}: at n = 4 and r = 200 about two digits are left, and at
n = 5 none.  adm_mass therefore moves
the flux radius in until phi - tau keeps about six digits; on the
scalar-flat family the flux is constant up to a relative O(tau^{1-n}),
so the smaller radius costs little.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import RadialProfile, metric_eigenvalues

__all__ = ["DecayFit", "fit_decay_exponent", "default_window", "adm_mass",
           "InsufficientDecayError"]

VALUE_FLOOR = 1e-13
MIN_FIT_SAMPLES = 8
MAX_FIT_RMS = 0.1
RESOLVE_ULPS = 2.0 ** 20  # phi - tau in ulp(tau) at the flux radius: ~6 digits
FLUX_TAU_FLOOR = 8.0  # innermost flux tau, in units of max(tau_min, 1)


class InsufficientDecayError(ValueError):
    """Profile decays too slowly for a coordinate-invariant mass, or its
    flux cannot be resolved in double precision."""


@dataclass(frozen=True)
class DecayFit:
    """Fitted power-law exponent of |value| ~ r^exponent on a radial window."""

    window: tuple
    exponent: float | None
    residual: float | None  # RMS of the log-log fit
    n_samples: int  # samples above VALUE_FLOOR, the ones fitted
    below_floor: bool = False

    @property
    def reliable(self):
        return (not self.below_floor and self.residual is not None
                and self.n_samples >= MIN_FIT_SAMPLES
                and self.residual < MAX_FIT_RMS)


def default_window(r_max: float) -> tuple:
    return (r_max / 8.0, r_max / 2.0)


def fit_decay_exponent(r, values, window=None) -> DecayFit:
    """Least-squares slope of log|values| vs log r restricted to window.

    Only samples above VALUE_FLOOR are fitted.  Returns a below-floor
    marker instead of an exponent when fewer than two of them are left
    (e.g. exactly flat data); a fit on fewer than MIN_FIT_SAMPLES of them
    keeps its exponent but is not reliable.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    if window is None:
        window = default_window(float(r.max()))
    lo, hi = window
    if not hi > lo > 0:
        raise ValueError(f"degenerate window {window}")
    mask = (r >= lo) & (r <= hi)
    rw, vw = r[mask], np.abs(values[mask])
    if rw.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need >= {MIN_FIT_SAMPLES} samples in window, got {rw.size}")
    keep = vw > VALUE_FLOOR
    fitted = int(keep.sum())
    if fitted < 2:
        return DecayFit(window=(lo, hi), exponent=None, residual=None,
                        n_samples=fitted, below_floor=True)
    x, y = np.log(rw[keep]), np.log(vw[keep])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(window=(lo, hi), exponent=float(slope), residual=rms,
                    n_samples=fitted)


# ---------------------------------------------------------------------------
# ADM mass
# ---------------------------------------------------------------------------

def _unresolved(p: RadialProfile, r: float) -> bool:
    """Whether phi - tau at radius r is within RESOLVE_ULPS ulp of tau.

    A profile that reads exactly flat there (phi = tau and phi'' = 0, as
    past a compact bump on flat space) has nothing to resolve.
    """
    tau = p.tau_of_rho(2.0 * math.log(r))
    return (abs(float(p.phi(tau)) - tau) < RESOLVE_ULPS * np.spacing(tau)
            and float(p.phi_d2(tau)) != 0.0)


def _scaled_flux(p: RadialProfile, r: float) -> float:
    """r^{2n-1} times the ADM integrand on the r-sphere, in closed form."""
    rho = 2.0 * math.log(r)
    tau = p.tau_of_rho(rho)
    phi = p.phi(tau)
    return math.exp((p.n - 2) * rho) * float(
        -2.0 * phi * (p.phi_d1(tau) - 1.0) - 2.0 * (p.n - 1) * (phi - tau))


def adm_mass(p: RadialProfile) -> float:
    """Boundary flux mass of the radial metric, Richardson-extrapolated.

    Normalization: flux density times r^{2n-1}, which in closed form is
    e^{(n-2) rho} [-2 phi (phi' - 1) - 2 (n-1) (phi - tau)] (derived in
    the module docstring), taken at r_eval and 2 r_eval.  The flat
    profile gives 0 and the scalar-flat family 2 (n - k) tau_min^{n-1}.
    Refuses when the metric deviation decays slower than r^{-(n-1)}, the
    threshold for coordinate invariance, and when phi - tau cannot be
    resolved at radii where the expansion holds.
    """
    # far enough out for the expansion, close enough that phi - tau stays
    # above the roundoff of phi
    r_outer = math.exp(0.5 * p.rho_of_tau(p.tau_max * 0.01))
    r_eval = min(100.0, r_outer / 4.0)
    # for n >= 3 the flux's e^{(n-2) rho} amplifies the roundoff of
    # phi - tau: move in by halves until it is resolved at 2 r_eval, as
    # long as tau(r_eval) stays above FLUX_TAU_FLOOR max(tau_min, 1)
    tau_floor = FLUX_TAU_FLOOR * max(p.tau_min, 1.0)
    while (_unresolved(p, 2.0 * r_eval)
           and p.tau_of_rho(2.0 * math.log(r_eval / 2.0)) >= tau_floor):
        r_eval /= 2.0
    # decay precondition on the eigenvalue deviation
    taus = np.geomspace(max(1.5 * p.tau_min, 1.0),
                        min(p.tau_max, (r_eval ** 2) * 4), 64)
    r = np.exp(p.rho_of_tau(taus) / 2.0)
    lam_b, lam_f = metric_eigenvalues(p, taus)
    dev = np.maximum(np.abs(lam_b - 1.0), np.abs(lam_f - 1.0))
    fit = fit_decay_exponent(r, dev, window=(r.max() / 8, r.max()))
    if fit.below_floor:
        return 0.0
    if not fit.reliable:
        raise InsufficientDecayError(
            f"deviation decay fit unreliable: {fit.n_samples} samples above "
            f"{VALUE_FLOOR:g}, RMS {fit.residual:.3g}")
    if fit.exponent > -(p.n - 1) + 0.2:
        raise InsufficientDecayError(
            f"deviation decay fit {fit.exponent} too slow for invariant mass "
            f"(need <= -(n-1) = {-(p.n - 1)})")
    if _unresolved(p, 2.0 * r_eval):
        raise InsufficientDecayError(
            f"flux not resolved: phi - tau at r = {2.0 * r_eval:g} is within "
            f"{RESOLVE_ULPS:g} ulp of tau, and tau(r_eval) cannot go below "
            f"{tau_floor:g}")

    m1, m2 = _scaled_flux(p, r_eval), _scaled_flux(p, 2.0 * r_eval)
    # leading flux error is O(r^-2) relative to the r^{2n-1} scaling
    return (4.0 * m2 - m1) / 3.0
