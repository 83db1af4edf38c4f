"""Mabuchi K-energy along discrete paths of radial potentials.

All quantities use the complex trace convention (scalar curvature here is
half the Riemannian one) and factor out the link volume, so signs and
ratios are normalization independent.  With w(rho, t) the full Kahler
potential of a path slice, W = (w')^{n-1}, V = W w'' the reduced volume
density, and F' = (n-1) w''/w' + w'''/w'' - n:

    dK/dt   = - int Phi_t R_c V drho  =  - int Phi_t' F' W drho,
    d2K/dt2 = int |D Phi_t|^2 V drho  -  int f tr_{w} Ric(u) V drho
              + int (f')^2 / f W drho,

where f = epsilon (u')^{n-1} u'' / V is the on-shell density ratio and D
is the (2,0) Hessian, whose squared norm for invariant functions reduces
to the single component computed in _lichnerowicz_density.  The gradient
term int (f')^2 / f W is exact because the right-hand side epsilon is
constant: the volume ratio of the slice against the background is
epsilon / f, and with a weight upsilon(rho) in place of epsilon the term
would read int f' (log(f / upsilon))' W instead.

The second form of dK/dt comes from R_c V = -(F' W)' and one integration
by parts, dropping the endpoint fluxes [Phi_t F' W], which vanish only
for k = n: on a scalar-flat background F' W is the constant
(k - n) tau_min^{n-1}, Phi_t need not vanish at the zero section, and at
infinity it tends to epsilon (t - 1/2), the rate of the trivial path,
however fast the data decay.  On Burns at 65x45, epsilon = 1/8, the flux
at the zero section is 0.087 against a dK/dt scale of 0.083, and the one
at infinity 0.062 at t = 0, where dK/dt reads -0.076.  The interior form is
used because it stays accurate where w'' is small, while F''/w'' in R_c
amplifies finite difference noise there.  Quadratures therefore assume
grids whose inner edge sits close to the zero section (w''(rho_min) << 1);
the second derivative decomposition below holds against the FD oracle
only in that regime.

K_values integrates dK/dt with the trapezoid rule, so the centered second
difference of K_values telescopes to the centered first difference of
dK/dt; Simpson accumulation would inject an odd/even oscillation that the
1/h^2 second difference amplifies.

Both quadratures are numpy code for the uniform grids PathGrid builds (the
derivatives use h_rho and h_t too): composite Simpson in rho, with the
end-interval correction h/12 (5 y[-1] + 8 y[-2] - y[-3]) for an even node
count, which is what scipy's simpson applies on a uniform grid, and a
cumulative-sum trapezoid in t.  Like geodesic._field_arrays, the fields
add phi's differences to grid.fixed, built with the grid, so a report
evaluates no profile: w', w'' and Phi_t' are its w1, w2 and P plus phi's, f
reads its density and the Ricci trace its u1.  Only w''' and Phi_t'' are
built from the jets, since nothing else holds them.

The background's Ricci trace takes F' and F'' of u from the profile's
closed form (profiles._log_volume_derivs at tau = u'), so it vanishes to
roundoff on Ricci-flat backgrounds and, through w = u, on trivial paths
over scalar-flat ones.  d2K_dt2_formula is the sum lich + ricci + grad,
so energy_verdict checks what can fail: the finite-difference agreement
with the integrated K curve, which also fixes the global sign of the
on-shell term (hard-coded here, frozen by a regression test), and on
Ric <= 0 backgrounds the convexity min d2K/dt2.  The FD agreement is
verified only on Eguchi-Hanson paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import PathGrid, _residual
from .profiles import _log_volume_derivs, ricci_sign_scan

__all__ = ["EnergyReport", "energy_report", "energy_verdict",
           "convexity_audit", "OffShellError", "MixedBackgroundError"]

ON_SHELL_TOL = 1e-8
# energy_verdict's thresholds, and the Ricci classes where convexity applies
FD_AGREEMENT_TOL = 0.01
CONVEXITY_TOL = 1e-6
RIC_NONPOSITIVE = ("zero", "negative-semidefinite")


class OffShellError(RuntimeError):
    """Grid does not satisfy the epsilon-residual certificate."""


class MixedBackgroundError(RuntimeError):
    """Convexity hypothesis Ric <= 0 fails on the background."""


@dataclass(frozen=True)
class EnergyReport:
    t_samples: np.ndarray
    K_values: np.ndarray
    dK_dt: np.ndarray
    d2K_dt2_fd: np.ndarray        # interior nodes only, like the terms
    lich_term: np.ndarray
    ricci_term: np.ndarray
    grad_term: np.ndarray

    @property
    def d2K_dt2_formula(self):
        return self.lich_term + self.ricci_term + self.grad_term

    def min_second_derivative(self):
        return float(np.min(self.d2K_dt2_formula))

    def fd_agreement(self):
        """sup |formula - fd| over interior t, relative to the curve scale."""
        diff = np.max(np.abs(self.d2K_dt2_formula - self.d2K_dt2_fd))
        scale = max(float(np.max(np.abs(self.d2K_dt2_fd))), 1e-8)
        return diff / scale


def _simpson(y, h):
    """Composite Simpson's rule along axis 0 at uniform spacing h.

    An even node count takes Simpson on all but the last node plus the
    end-interval rule h/12 (5 y[-1] + 8 y[-2] - y[-3]), which integrates
    the quadratic through the last three nodes over the last interval.
    """
    if y.shape[0] % 2 == 0:
        return _simpson(y[:-1], h) + h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2]
                                                 - y[-3])
    return h / 3.0 * (y[0] + 4.0 * y[1:-1:2].sum(axis=0)
                      + 2.0 * y[2:-1:2].sum(axis=0) + y[-1])


def _cumulative_trapezoid(y, h):
    """Running trapezoid integral along axis 0 at uniform spacing h, from 0."""
    steps = 0.5 * h * (y[1:] + y[:-1])
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(steps, axis=0)])


def _d_rho(arr, h):
    return np.gradient(arr, h, axis=0, edge_order=2)


def _path_fields(grid: PathGrid):
    """w', w'', w''', Phi_t' and Phi_t'' of the path, shape (n_rho, n_t)."""
    t, fixed, hr = grid.t_nodes, grid.fixed, grid.h_rho
    psi0, psi1 = fixed.psi0, fixed.psi1
    phi_t = np.gradient(grid.phi, grid.h_t, axis=1, edge_order=2)
    # phi and phi_t side by side: one np.gradient call per rho order
    d1 = _d_rho(np.hstack((grid.phi, phi_t)), hr)
    (p1, q1), (p2, q2) = np.hsplit(d1, 2), np.hsplit(_d_rho(d1, hr), 2)
    return {
        "w1": fixed.w1 + p1,
        "w2": fixed.w2 + p2,
        "w3": (fixed.u3[:, None] + ((1.0 - t) * psi0[:, 3:4]
                                    + t * psi1[:, 3:4]) + _d_rho(p2, hr)),
        "v1": fixed.P + q1,
        "v2": (psi1[:, 2:3] - psi0[:, 2:3]) + q2,
    }


def _background_ricci_trace(grid, fields):
    """tr_{omega_phi} Ric(omega) of the fixed background against the path."""
    n = grid.background.n
    # u' = tau, so the profile's closed form needs no inversion
    F1u, F2u = _log_volume_derivs(grid.background, grid.fixed.u1[:, None])
    return -(n - 1) * F1u / fields["w1"] - F2u / fields["w2"]


def _lichnerowicz_density(fields):
    """|D v|^2 for the invariant function v = Phi_t.

    The (2,0) Hessian of an invariant function has a single nonvanishing
    component; squared norm [(v'' - v') - v' (w''' - w'')/w'']^2 / (w'')^2.
    """
    v1, v2 = fields["v1"], fields["v2"]
    w2, w3 = fields["w2"], fields["w3"]
    comp = (v2 - v1) - v1 * (w3 - w2) / w2
    return (comp / w2) ** 2


def _first_variation_curve(grid, fields):
    """dK/dt at every t node via the interior parts form."""
    n = grid.background.n
    w1, w2, w3 = fields["w1"], fields["w2"], fields["w3"]
    F1 = (n - 1) * w2 / w1 + w3 / w2 - n
    W = w1 ** (n - 1)
    return -_simpson(fields["v1"] * F1 * W, grid.h_rho)


def _decomposition_terms(grid, fields, epsilon):
    """Integrands of the three second-variation terms, integrated per t."""
    n = grid.background.n
    h = grid.h_rho
    V = fields["w1"] ** (n - 1) * fields["w2"]
    f = epsilon * grid.fixed.density / V
    f1 = _d_rho(f, h)
    W = V / fields["w2"]
    lich = _simpson(_lichnerowicz_density(fields) * V, h)
    ricci = _simpson(-f * _background_ricci_trace(grid, fields) * V, h)
    grad = _simpson(f1 ** 2 / f * W, h)
    return lich, ricci, grad


def _check_energy_decay(grid):
    n = grid.background.n
    floor = 2 * n - 4
    for label, psi in (("psi0", grid.psi0), ("psi1", grid.psi1)):
        gamma = psi.r_decay
        if gamma is not None and gamma <= floor:
            raise ValueError(
                f"{label} decays like r^-{gamma}, but the second variation "
                f"needs decay faster than r^-{floor}")


def energy_report(grid: PathGrid, epsilon: float) -> EnergyReport:
    """K-energy curve, first/second derivatives and decomposition terms."""
    _check_energy_decay(grid)
    G = _residual(grid, epsilon)[0]
    res = float(np.max(np.abs(G / grid.fixed.density[:-1])))
    if not res <= ON_SHELL_TOL:
        raise OffShellError(
            f"normalized residual {res:.2e} exceeds {ON_SHELL_TOL:.0e}; "
            "the convexity identity needs the equation to hold")
    fields = _path_fields(grid)
    t = grid.t_nodes
    dK = _first_variation_curve(grid, fields)
    K = _cumulative_trapezoid(dK, grid.h_t)

    lich, ricci, grad = _decomposition_terms(grid, fields, epsilon)

    ht = grid.h_t
    d2K_fd = (K[:-2] - 2.0 * K[1:-1] + K[2:]) / ht ** 2
    interior = slice(1, t.size - 1)
    return EnergyReport(
        t_samples=t,
        K_values=K,
        dK_dt=dK,
        d2K_dt2_fd=d2K_fd,
        lich_term=lich[interior],
        ricci_term=ricci[interior],
        grad_term=grad[interior],
    )


def energy_verdict(rep: EnergyReport, background) -> dict:
    """{"passed", "details"} of a report: the FD agreement and, on a
    background with Ric <= 0 only, the convexity min d2K/dt2."""
    agreement = rep.fd_agreement()
    classification = ricci_sign_scan(background).classification
    convex_applies = classification in RIC_NONPOSITIVE
    min_d2 = rep.min_second_derivative()
    passed = (agreement < FD_AGREEMENT_TOL
              and (min_d2 >= -CONVEXITY_TOL or not convex_applies))
    return {"passed": bool(passed), "details": {
        "fd_agreement": agreement, "min_d2K": min_d2,
        "ricci_classification": classification,
        "convexity_applicable": convex_applies}}


def convexity_audit(grids, epsilons, tol: float = CONVEXITY_TOL) -> dict:
    """Assert d2K/dt2 >= -tol at all interior t for every grid of a sweep.

    Refuses when the shared background has Ricci curvature of mixed or
    positive type, since the convexity statement assumes Ric <= 0.
    """
    background = grids[0].background
    scan = ricci_sign_scan(background)
    if scan.classification not in RIC_NONPOSITIVE:
        raise MixedBackgroundError(
            f"background Ricci is {scan.classification}; positive witness "
            f"{scan.positive_witness} violates the Ric <= 0 hypothesis")
    minima = []
    for g, eps in zip(grids, epsilons):
        rep = energy_report(g, eps)
        minima.append(rep.min_second_derivative())
    passed = all(m >= -tol for m in minima)
    return {"passed": passed, "minima": minima,
            "classification": scan.classification}
