"""Decay-rate fitting, weighted sup-norms and ADM boundary flux.

Radii are always the asymptotic-chart radius r = exp(rho/2).  Decay fits are
least-squares slopes of log|value| against log r over a window; the window
default [r_max/8, r_max/2] keeps clear of both the interior and the
truncation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import RadialProfile

__all__ = ["DecayFit", "fit_decay_exponent", "default_window", "weighted_norm",
           "adm_mass", "InsufficientDecayError"]

VALUE_FLOOR = 1e-13
MIN_FIT_SAMPLES = 8
MAX_FIT_RMS = 0.1


class InsufficientDecayError(ValueError):
    """Profile decays too slowly for a coordinate-invariant mass."""


@dataclass(frozen=True)
class DecayFit:
    """Fitted power-law exponent of |value| ~ r^exponent on a radial window."""

    window: tuple
    exponent: float | None
    residual: float | None  # RMS of the log-log fit
    n_samples: int  # samples above VALUE_FLOOR, the ones fitted
    below_floor: bool = False
    predicted: float | None = None

    @property
    def margin(self):
        if self.exponent is None or self.predicted is None:
            return None
        return self.exponent - self.predicted

    @property
    def reliable(self):
        return (not self.below_floor and self.residual is not None
                and self.n_samples >= MIN_FIT_SAMPLES
                and self.residual < MAX_FIT_RMS)


def default_window(r_max: float) -> tuple:
    return (r_max / 8.0, r_max / 2.0)


def fit_decay_exponent(r, values, window=None, predicted=None) -> DecayFit:
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
                        n_samples=fitted, below_floor=True,
                        predicted=predicted)
    x, y = np.log(rw[keep]), np.log(vw[keep])
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(window=(lo, hi), exponent=float(slope), residual=rms,
                    n_samples=fitted, predicted=predicted)


def weighted_norm(r, values, s: float) -> float:
    """sup over samples of |value| * r^{-s}, the discrete C^0_s seminorm."""
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values) * r ** (-s)))


# ---------------------------------------------------------------------------
# ADM mass
# ---------------------------------------------------------------------------

def _real_metric_deviation(p: RadialProfile, x):
    """h_ij = g_ij - delta_ij at a real point x of the asymptotic chart.

    The Hermitian matrix lam_b*(I - n nbar) + lam_f * n nbar is converted to
    real components in the convention where the flat profile gives exactly
    the identity.
    """
    x = np.asarray(x, dtype=float)
    n = p.n
    z = x[0::2] + 1j * x[1::2]
    r2 = float(np.sum(np.abs(z) ** 2))
    rho = math.log(r2)
    tau = float(p.tau_of_rho(rho))
    e = math.exp(-rho)
    lam_b = tau * e
    lam_f = float(p.phi(tau)) * e
    nz = z / math.sqrt(r2)
    gc = lam_b * np.eye(n, dtype=complex) + (lam_f - lam_b) * np.outer(nz, nz.conj())
    # dz^a(d/dx_p): 1 on x_{2a-1}, i on x_{2a}
    J = np.zeros((n, 2 * n), dtype=complex)
    for a in range(n):
        J[a, 2 * a] = 1.0
        J[a, 2 * a + 1] = 1j
    g_real = np.real(np.einsum("ab,ap,bq->pq", gc, J, J.conj()))
    return g_real - np.eye(2 * n)


def _flux_density(p: RadialProfile, r: float, step_frac: float = 1e-5) -> float:
    """ADM integrand (d_j h_ij - d_i h_jj) nu_i at one point of the r-sphere.

    The integrand is U(n)-invariant and U(n) is transitive on the sphere, so
    a single evaluation at (r, 0, ..., 0) suffices.
    """
    m = 2 * p.n
    x0 = np.zeros(m)
    x0[0] = r
    h0 = step_frac * r

    def h(x):
        return _real_metric_deviation(p, x)

    dh = np.empty((m, m, m))  # dh[j, i, l] = d_j h_{il}
    for j in range(m):
        xp = x0.copy(); xp[j] += h0
        xm = x0.copy(); xm[j] -= h0
        dh[j] = (h(xp) - h(xm)) / (2 * h0)
    # nu = e_1
    term1 = sum(dh[j, 0, j] for j in range(m))
    term2 = sum(dh[0, j, j] for j in range(m))
    return term1 - term2


def adm_mass(p: RadialProfile, r_eval: float = None, decay_window=None) -> float:
    """Boundary flux mass of the radial metric, Richardson-extrapolated.

    Normalization: flux density times r^{2n-1}, scaled so the flat profile
    gives 0 and the Burns metric (k=1 LeBrun) gives a positive value.
    Refuses when the metric deviation decays slower than r^{-(n-1)}, the
    threshold for coordinate invariance.
    """
    if r_eval is None:
        # far enough out for the expansion, close enough that the FD
        # derivatives of the O(r^-2) deviation stay above roundoff
        r_outer = math.exp(0.5 * p.rho_of_tau(p.tau_max * 0.01))
        r_eval = min(100.0, r_outer / 4.0)
    # decay precondition on the eigenvalue deviation
    lo = max(p.tau_min * 1.5, 1e-2) if p.tau_min > 0 else 1e-2
    taus = np.geomspace(max(lo, 1.0), min(p.tau_max, (r_eval ** 2) * 4), 64)
    rho = p.rho_of_tau(taus)
    r = np.exp(rho / 2.0)
    lam_b = taus * np.exp(-rho)
    lam_f = p.phi(taus) * np.exp(-rho)
    dev = np.maximum(np.abs(lam_b - 1.0), np.abs(lam_f - 1.0))
    fit = fit_decay_exponent(r, dev, window=decay_window or (r.max() / 8, r.max()))
    if fit.below_floor:
        return 0.0
    if not fit.reliable or fit.exponent > -(p.n - 1) + 0.2:
        raise InsufficientDecayError(
            f"deviation decay fit {fit.exponent} too slow for invariant mass "
            f"(need <= -(n-1) = {-(p.n - 1)})")

    def mass_at(r0):
        return _flux_density(p, r0) * r0 ** (2 * p.n - 1)

    m1, m2 = mass_at(r_eval), mass_at(2.0 * r_eval)
    # leading flux error is O(r^-2) relative to the r^{2n-1} scaling
    return float((4.0 * m2 - m1) / 3.0)
