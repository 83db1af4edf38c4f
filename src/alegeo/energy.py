"""Mabuchi K-energy along discrete paths of radial potentials.

All quantities use the complex trace convention (scalar curvature here is
half the Riemannian one) and factor out the link volume, so signs and
ratios are normalization independent.  With w(rho, t) the full Kahler
potential of a path slice, W = (w')^{n-1}, V = W w'' the reduced volume
density, and F' = (n-1) w''/w' + w'''/w'' - n:

    dK/dt   = - int Phi_t R_c V drho  =  - int Phi_t' F' W drho,
    d2K/dt2 = int |D Phi_t|^2 V drho  -  int f tr_{w} Ric(u) V drho
              + int (f')^2 / f W drho,

where f is the on-shell density ratio upsilon (u')^{n-1} u'' / V and D is
the (2,0) Hessian, whose squared norm for invariant functions reduces to
the single component computed in _lichnerowicz_density.

The second form of dK/dt comes from R_c V = -(F' W)' and one integration
by parts.  Both endpoint fluxes [Phi_t F' W] vanish in the limit: at the
zero section every rho-derivative of a smooth invariant function carries a
factor w'' -> 0, and at infinity F' W decays when the boundary data decay
faster than r^{-(2n-2)}.  The interior form is used because it stays
accurate where w'' is small, while F''/w'' in R_c amplifies finite
difference noise there.  Quadratures therefore assume grids whose inner
edge sits close to the zero section (w''(rho_min) << 1); the second
derivative decomposition below holds against the FD oracle only in that
regime.

K_values integrates dK/dt with the trapezoid rule, so the centered second
difference of K_values telescopes to the centered first difference of
dK/dt; Simpson accumulation would inject an odd/even oscillation that the
1/h^2 second difference amplifies.

Both quadratures are numpy code for the uniform grids PathGrid builds (the
derivatives use h_rho and h_t too): composite Simpson in rho, with the
end-interval correction h/12 (5 y[-1] + 8 y[-2] - y[-3]) for an even node
count, which is what scipy's simpson applies on a uniform grid, and a
cumulative-sum trapezoid in t.

The decomposition identity total = lich + ricci + grad holds by assembly;
the independent validation is the finite-difference check against the
integrated K curve, which also fixes the global sign of the on-shell term
(hard-coded here, frozen by a regression test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import PathGrid, reduced_residual, upsilon_field
from .profiles import ricci_sign_scan

__all__ = ["EnergyReport", "k_energy_first_variation",
           "k_energy_second_derivative", "energy_report", "convexity_audit",
           "OffShellError", "MixedBackgroundError"]

ON_SHELL_TOL = 1e-8


class OffShellError(RuntimeError):
    """Grid does not satisfy the epsilon-residual certificate."""


class MixedBackgroundError(RuntimeError):
    """Convexity hypothesis Ric <= 0 fails on the background."""


@dataclass(frozen=True)
class EnergyReport:
    t_samples: np.ndarray
    K_values: np.ndarray
    dK_dt: np.ndarray
    d2K_dt2_formula: np.ndarray   # interior nodes only
    d2K_dt2_fd: np.ndarray
    lich_term: np.ndarray
    ricci_term: np.ndarray
    grad_term: np.ndarray

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


def _d_rho(arr, h, order=1):
    for _ in range(order):
        arr = np.gradient(arr, h, axis=0, edge_order=2)
    return arr


def _path_fields(grid: PathGrid):
    """All rho/t derivative fields of the path, shape (n_rho, n_t)."""
    rho = grid.rho_nodes
    t = grid.t_nodes
    hr, ht = grid.h_rho, grid.h_t
    p = grid.background
    u1, u2, u3 = p.u_derivatives(rho, order=3)
    jets = list(zip(grid.psi0.jet(rho, 3), grid.psi1.jet(rho, 3)))
    Psi = [(1.0 - t[None, :]) * p0[:, None] + t[None, :] * p1[:, None]
           for p0, p1 in jets]
    Psi_t = [(p1 - p0)[:, None] for p0, p1 in jets]

    phi = grid.phi
    phi_t = np.gradient(phi, ht, axis=1, edge_order=2)

    fields = {
        "w1": u1[:, None] + Psi[1] + _d_rho(phi, hr),
        "w2": u2[:, None] + Psi[2] + _d_rho(phi, hr, 2),
        "w3": u3[:, None] + Psi[3] + _d_rho(phi, hr, 3),
        "v": Psi_t[0] + phi_t,
        "v1": Psi_t[1] + _d_rho(phi_t, hr),
        "v2": Psi_t[2] + _d_rho(phi_t, hr, 2),
        "u1": u1[:, None], "u2": u2[:, None], "u3": u3[:, None],
    }
    return fields


def _path_curvature(grid, fields):
    """Complex-trace scalar curvature R_c(w) on the grid.

    R_c = -(n-1) F'/w' - F''/w'' with F = (n-1) log w' + log w'' - n rho.
    F' is closed-form in (w', w'', w'''); F'' would need w'''' and is taken
    by rho-differentiation of F' instead.  Noise-amplified where w'' is
    small; use the parts form of the first variation on solved grids.
    """
    n = grid.background.n
    w1, w2, w3 = fields["w1"], fields["w2"], fields["w3"]
    F1 = (n - 1) * w2 / w1 + w3 / w2 - n
    F2 = _d_rho(F1, grid.h_rho)
    return -(n - 1) * F1 / w1 - F2 / w2


def _background_ricci_trace(grid, fields):
    """tr_{omega_phi} Ric(omega) of the fixed background against the path."""
    n = grid.background.n
    u1, u2, u3 = fields["u1"], fields["u2"], fields["u3"]
    F1u = (n - 1) * u2 / u1 + u3 / u2 - n
    F2u = _d_rho(F1u, grid.h_rho)
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
    ups = upsilon_field(grid.background, grid.rho_nodes, epsilon,
                        grid.upsilon_mode, psi0=grid.psi0)[:, None]
    f = ups * fields["u1"] ** (n - 1) * fields["u2"] / V
    f1 = _d_rho(f, h)
    W = V / fields["w2"]
    lich = _simpson(_lichnerowicz_density(fields) * V, h)
    ricci = _simpson(-f * _background_ricci_trace(grid, fields) * V, h)
    grad = _simpson(f1 ** 2 / f * W, h)
    return lich, ricci, grad


def _require_on_shell(grid, epsilon):
    res = float(np.max(np.abs(reduced_residual(grid, epsilon=epsilon,
                                               normalized=True))))
    if res > ON_SHELL_TOL:
        raise OffShellError(
            f"normalized residual {res:.2e} exceeds {ON_SHELL_TOL:.0e}; "
            "the convexity identity needs the equation to hold")
    return res


def _check_energy_decay(grid):
    n = grid.background.n
    floor = 2 * n - 4
    for label, psi in (("psi0", grid.psi0), ("psi1", grid.psi1)):
        gamma = psi.r_decay
        if gamma is not None and gamma <= floor:
            raise ValueError(
                f"{label} decays like r^-{gamma}, but the second variation "
                f"needs decay faster than r^-{floor}")


def k_energy_first_variation(grid: PathGrid, t_index: int) -> float:
    """dK/dt at the t node: -int Phi_t R_c(w) V drho (link volume dropped).

    Evaluated as -int Phi_t' F' W drho; see the module docstring for why
    the two agree and when the parts form is preferable.
    """
    fields = _path_fields(grid)
    return float(_first_variation_curve(grid, fields)[t_index])


def k_energy_second_derivative(grid: PathGrid, t_index: int,
                               epsilon: float) -> dict:
    """Convexity decomposition at an interior t node, on-shell at epsilon."""
    _require_on_shell(grid, epsilon)
    fields = _path_fields(grid)
    lich, ricci, grad = _decomposition_terms(grid, fields, epsilon)
    j = t_index
    out = {"lich_term": float(lich[j]), "ricci_term": float(ricci[j]),
           "grad_term": float(grad[j])}
    out["total"] = out["lich_term"] + out["ricci_term"] + out["grad_term"]
    return out


def energy_report(grid: PathGrid, epsilon: float) -> EnergyReport:
    """K-energy curve, first/second derivatives and decomposition terms."""
    _check_energy_decay(grid)
    _require_on_shell(grid, epsilon)
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
        d2K_dt2_formula=(lich + ricci + grad)[interior],
        d2K_dt2_fd=d2K_fd,
        lich_term=lich[interior],
        ricci_term=ricci[interior],
        grad_term=grad[interior],
    )


def convexity_audit(grids, epsilons, tol: float = 1e-6) -> dict:
    """Assert d2K/dt2 >= -tol at all interior t for every grid of a sweep.

    Refuses when the shared background has Ricci curvature of mixed or
    positive type, since the convexity statement assumes Ric <= 0.
    """
    background = grids[0].background
    scan = ricci_sign_scan(background)
    if scan.classification not in ("zero", "negative-semidefinite"):
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
