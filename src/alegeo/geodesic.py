"""Damped-Newton continuation solver for the reduced epsilon-geodesic
equation between radial Kahler potentials.

The unknown is the relative potential phi(rho, t) with Phi = Psi + phi,
Psi = (1-t) psi0 + t psi1.  With u the background Kahler potential,
w = u + Psi + phi and primes/dots denoting d/drho and d/dt, the interior
equation is

    G[phi] = (phi_tt * w'' - (Psi_t' + phi_t')^2) * (w')^{n-1}
             - upsilon * (u')^{n-1} u''  =  0,

with phi = 0 at t = 0, 1, a spatially constant Dirichlet value at rho_max
(the far-field limit) and a homogeneous Neumann condition at rho_min.
Newton runs on the concave log form of the equation; the continuity path
lowers the right-hand side from 1 to the target epsilon geometrically.

What depends only on the grid is built once per solve: u', u'' and the
first two rho-derivatives of psi0 and psi1 on the residual rows, with the
background density (_FixedData), and the CSR structure of the 12-term
Jacobian stencil, whose values each iterate refills (_StencilPattern).
The line search evaluates the residual only.  Each stage after the first
starts from a secant predictor in s through the last two solutions (from
one solution, the shift by the trivial solution s t(t-1)/2), falling back
to the last solution when the prediction leaves the ellipticity cone.
Only the last stage, s = epsilon, is solved to newton_tol; the stages
before it stop at the looser _STAGE_TOL, since they only seed the next.

Newton steps are chord steps (Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, ch. 5): a stage factors its Jacobian at
its first iterate and later iterates reuse that sparse LU, taking the
accepted line-search residual as their own.  The Jacobian is assembled and
factored again only after a step that backtracked or cut max|R| by less
than a factor 4 (_CHORD_CONTRACTION), and at once when a chord step finds
no acceptable step length; only a freshly factored step that fails raises
NonConvergence.  Pure Newton is the case where the refresh fires after
every step.  Factorizations use the MMD_AT_PLUS_A fill-reducing ordering,
which suits the structurally symmetric 9-point stencil.  The reported
residual is recomputed from the profile, with fixed data built afresh.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .analysis import fit_decay_exponent
from .potentials import RadialPotential, zero_potential
from .profiles import RadialProfile

__all__ = ["PathGrid", "SolverConfig", "SolverReport", "BoundCheck",
           "GeodesicError", "NonConvergence", "PositivityLoss",
           "BoundaryInconsistency", "reduced_residual",
           "solve_epsilon_geodesic", "c0_bound_check", "comparison_check",
           "epsilon_sweep", "upsilon_field", "smoothstep_cutoff"]


class GeodesicError(RuntimeError):
    pass


class NonConvergence(GeodesicError):
    """Newton failed at continuity stage ``stage``.

    ``history`` is that stage's residual history; ``stage_factorizations``
    counts the Jacobian factorizations of every stage run, the failed one
    last.
    """

    def __init__(self, stage, history, stage_factorizations):
        self.stage = stage
        self.history = history
        self.stage_factorizations = list(stage_factorizations)
        super().__init__(
            f"Newton stalled at continuity stage s={stage:g}; "
            f"residual history {['%.3e' % h for h in history]}; "
            f"factorizations per stage {self.stage_factorizations}")


class PositivityLoss(GeodesicError):
    pass


class BoundaryInconsistency(GeodesicError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    upsilon_mode: str = "constant"  # or "profile-weighted"
    n_rho: int = 65
    n_t: int = 65
    rho_min: float | None = None
    rho_max: float | None = None
    newton_tol: float = 1e-11
    max_iters: int = 60
    max_backtracks: int = 40
    schedule_ratio: float = 0.5
    min_decay: float = 0.5  # slowest admissible r-decay of boundary data

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.upsilon_mode not in ("constant", "profile-weighted"):
            raise ValueError(f"unknown upsilon mode {self.upsilon_mode!r}")
        if not 0.0 < self.schedule_ratio < 1.0:
            raise ValueError("schedule ratio must be in (0, 1)")

    def schedule(self):
        """Continuity values from 1 down to epsilon, geometric in between."""
        vals = [1.0]
        while vals[-1] > self.epsilon:
            vals.append(max(vals[-1] * self.schedule_ratio, self.epsilon))
        return vals


@dataclass
class PathGrid:
    """Discrete path of radial potentials; phi is (n_rho, n_t)."""

    rho_nodes: np.ndarray
    t_nodes: np.ndarray
    phi: np.ndarray
    psi0: RadialPotential
    psi1: RadialPotential
    background: RadialProfile
    epsilon: float
    upsilon_mode: str = "constant"

    def __post_init__(self):
        if self.phi.shape != (self.rho_nodes.size, self.t_nodes.size):
            raise ValueError("phi shape does not match the node grids")

    @property
    def h_rho(self):
        return float(self.rho_nodes[1] - self.rho_nodes[0])

    @property
    def h_t(self):
        return float(self.t_nodes[1] - self.t_nodes[0])


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    min_slack: float
    worst_node: tuple  # (rho, t)


@dataclass(frozen=True)
class SolverReport:
    residual_sup: float          # normalized by the reference density
    residual_raw_sup: float
    stage_iterations: list
    stage_factorizations: list   # Jacobian LU factorizations per stage
    c0_check: BoundCheck
    positivity_margins: dict     # min of w', w'', M; "worst_nodes": (rho, t)
    wall_time: float
    upsilon_range: tuple


def smoothstep_cutoff(s: float) -> float:
    """0 on [0, 1/3], 1 on [2/3, 1], C^1 smoothstep in between."""
    x = (s - 1.0 / 3.0) * 3.0
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x * x * (3.0 - 2.0 * x)


def _weighted_upsilon(s, n, u1, u2, psi0_1, psi0_2):
    """Profile-weighted upsilon from u', u'' and psi0', psi0'' at s."""
    w1 = u1 + psi0_1
    w2 = u2 + psi0_2
    if np.any(w1 <= 0) or np.any(w2 <= 0):
        raise BoundaryInconsistency("psi0 metric not positive on the grid")
    f_vol = u1 ** (n - 1) * u2 / (w1 ** (n - 1) * w2)
    chi = smoothstep_cutoff(s)
    return s * ((1.0 - chi) * f_vol + chi)


def upsilon_field(profile, rho, s, mode, psi0=None):
    """Right-hand-side weight upsilon(rho) at continuity value s.

    Constant mode returns s everywhere.  Profile-weighted mode blends the
    volume ratio of the psi0-perturbed metric into the weight at small s,
    interpolated by the smoothstep cutoff.
    """
    rho = np.asarray(rho, dtype=float)
    if mode == "constant":
        return s * np.ones_like(rho)
    u1, u2 = profile.u_derivatives(rho, order=2)
    _, psi0_1, psi0_2 = (psi0 or zero_potential()).jet(rho, 2)
    return _weighted_upsilon(s, profile.n, u1, u2, psi0_1, psi0_2)


@dataclass(frozen=True)
class _FixedData:
    """The background and boundary data on the residual rows rho[:-1].

    None of it depends on phi, so a solve builds it once and every
    iterate, backtrack and stage reads it.
    """

    n: int
    u1: np.ndarray
    u2: np.ndarray
    psi0_1: np.ndarray
    psi0_2: np.ndarray
    psi1_1: np.ndarray
    psi1_2: np.ndarray
    density: np.ndarray  # (u')^{n-1} u'' as a column

    @classmethod
    def build(cls, grid: PathGrid) -> "_FixedData":
        rho = grid.rho_nodes[:-1]
        u1, u2 = grid.background.u_derivatives(rho, order=2)
        _, psi0_1, psi0_2 = grid.psi0.jet(rho, 2)
        _, psi1_1, psi1_2 = grid.psi1.jet(rho, 2)
        n = grid.background.n
        return cls(n=n, u1=u1, u2=u2, psi0_1=psi0_1, psi0_2=psi0_2,
                   psi1_1=psi1_1, psi1_2=psi1_2,
                   density=(u1 ** (n - 1) * u2)[:, None])

    def upsilon(self, s, mode):
        """upsilon_field on the residual rows, as a column."""
        if mode == "constant":
            ups = s * np.ones_like(self.u1)
        else:
            ups = _weighted_upsilon(s, self.n, self.u1, self.u2,
                                    self.psi0_1, self.psi0_2)
        return ups[:, None]


def _field_arrays(grid: PathGrid, fixed: _FixedData):
    """w', w'', P = Psi_t' + phi_t', phi_tt on residual nodes.

    Residual nodes are i = 0..n_rho-2 (Neumann mirror at i = 0, Dirichlet
    column excluded) and j = 1..n_t-2.  Returns arrays of shape
    (n_rho-1, n_t-2).
    """
    t = grid.t_nodes
    hr, ht = grid.h_rho, grid.h_t
    nr, nt = grid.rho_nodes.size, t.size
    phi = grid.phi

    # ghost row at i = -1 mirrors i = 1
    ext = np.vstack([phi[1:2, :], phi])

    sl_r = slice(0, nr - 1)
    sl_t = slice(1, nt - 1)
    phi_rr = (ext[0:nr - 1, sl_t] - 2.0 * ext[1:nr, sl_t]
              + ext[2:nr + 1, sl_t]) / hr ** 2
    phi_r = (ext[2:nr + 1, sl_t] - ext[0:nr - 1, sl_t]) / (2.0 * hr)
    phi_tt = (phi[sl_r, 0:nt - 2] - 2.0 * phi[sl_r, sl_t]
              + phi[sl_r, 2:nt]) / ht ** 2
    phi_rt = (ext[2:nr + 1, 2:nt] - ext[2:nr + 1, 0:nt - 2]
              - ext[0:nr - 1, 2:nt] + ext[0:nr - 1, 0:nt - 2]) / (4.0 * hr * ht)

    f = fixed
    tj = t[sl_t][None, :]
    w1 = (f.u1[:, None] + (1.0 - tj) * f.psi0_1[:, None]
          + tj * f.psi1_1[:, None] + phi_r)
    w2 = (f.u2[:, None] + (1.0 - tj) * f.psi0_2[:, None]
          + tj * f.psi1_2[:, None] + phi_rr)
    P = (f.psi1_1 - f.psi0_1)[:, None] + phi_rt
    return w1, w2, P, phi_tt


def _density_residual(M, w1, fixed: _FixedData, ups):
    """G = M (w')^{n-1} - upsilon (u')^{n-1} u'' from the field arrays."""
    return M * w1 ** (fixed.n - 1) - ups * fixed.density


def _residual(grid: PathGrid, fixed: _FixedData, ups, normalized):
    w1, w2, P, phi_tt = _field_arrays(grid, fixed)
    _check_positive(w1, w2, grid)
    G = _density_residual(phi_tt * w2 - P ** 2, w1, fixed, ups)
    return G / fixed.density if normalized else G


def reduced_residual(grid: PathGrid, epsilon=None, upsilon_mode=None,
                     normalized=False):
    """G[phi] on the interior nodes (i = 0..n_rho-2, j = 1..n_t-2).

    normalized=True divides by the background density (u')^{n-1} u'', the
    scale-free form used for convergence certification.
    """
    eps = grid.epsilon if epsilon is None else epsilon
    mode = grid.upsilon_mode if upsilon_mode is None else upsilon_mode
    fixed = _FixedData.build(grid)
    return _residual(grid, fixed, fixed.upsilon(eps, mode), normalized)


def _check_positive(w1, w2, grid):
    for name, arr in (("w'", w1), ("w''", w2)):
        if np.any(arr <= 0):
            i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
            raise PositivityLoss(
                f"{name} <= 0 at rho={grid.rho_nodes[i]:.4f}, "
                f"t={grid.t_nodes[j + 1]:.4f}")


# ---------------------------------------------------------------------------
# Newton assembly
# ---------------------------------------------------------------------------

# The Jacobian's stencil terms: (di, dj, coefficient, multiple), with the
# coefficients cA = dR/dphi_tt / ht^2, cB = dR/dphi_rr / hr^2,
# cC = dR/dphi_rt / (4 hr ht) and cD = dR/dphi_r / (2 hr).
_STENCIL = ((0, -1, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 0, -2.0),
            (-1, 0, 1, 1.0), (1, 0, 1, 1.0), (0, 0, 1, -2.0),
            (1, 1, 2, 1.0), (1, -1, 2, -1.0), (-1, 1, 2, -1.0),
            (-1, -1, 2, 1.0),
            (1, 0, 3, 1.0), (-1, 0, 3, -1.0))


@dataclass(frozen=True)
class _StencilPattern:
    """CSR structure of the Jacobian over an (ni, nj) unknown block.

    Term m of the stencil entries takes the value multiple[m] *
    coefs.flat[src[m]] and is summed into the CSR data at slot[m].
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    multiple: np.ndarray
    slot: np.ndarray

    @classmethod
    def build(cls, ni, nj) -> "_StencilPattern":
        size = ni * nj
        row = np.arange(size)
        ii, jj = np.divmod(row, nj)
        rows, cols, src, multiple = [], [], [], []
        for di, dj, coef, mult in _STENCIL:
            ti = np.abs(ii + di)  # Neumann mirror: ghost row -1 is row +1
            tj = jj + dj
            keep = (ti <= ni - 1) & (tj >= 0) & (tj <= nj - 1)
            rows.append(row[keep])
            cols.append((ti * nj + tj)[keep])
            src.append(coef * size + row[keep])
            multiple.append(np.full(int(keep.sum()), mult))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        keys, slot = np.unique(rows * size + cols, return_inverse=True)
        # let scipy pick the index dtype once, so refills copy nothing
        template = csr_matrix(
            (np.zeros(keys.size), keys % size,
             np.searchsorted(keys // size, np.arange(size + 1))),
            shape=(size, size))
        return cls(shape=(size, size), indptr=template.indptr,
                   indices=template.indices, src=np.concatenate(src),
                   multiple=np.concatenate(multiple), slot=slot)

    def matrix(self, coefs):
        """The CSR matrix for stacked coefficients of shape (4, ni, nj)."""
        vals = self.multiple * coefs.ravel()[self.src]
        data = np.bincount(self.slot, weights=vals,
                           minlength=self.indices.size)
        return csr_matrix((data, self.indices, self.indptr),
                          shape=self.shape)


def _newton_system(grid: PathGrid, fixed: _FixedData, ups, pattern=None):
    """Log-form residual R, normalized residual G and, given the stencil
    pattern, the sparse Jacobian of R over the unknown block.

    Returns (R, J, G), with G equal bit for bit to _residual(...,
    normalized=True) from the same field arrays; J is None without a
    pattern (the line search needs R and G only), and all three are None
    outside the ellipticity cone.
    """
    n = fixed.n
    hr, ht = grid.h_rho, grid.h_t
    w1, w2, P, phi_tt = _field_arrays(grid, fixed)
    M = phi_tt * w2 - P ** 2
    if np.any(w1 <= 0) or np.any(w2 <= 0) or np.any(M <= 0):
        return None, None, None
    R = np.log(M) + (n - 1) * np.log(w1) - np.log(ups * fixed.density)
    G = _density_residual(M, w1, fixed, ups) / fixed.density
    if pattern is None:
        return R, None, G
    coefs = np.stack([w2 / M / ht ** 2,
                      phi_tt / M / hr ** 2,
                      -2.0 * P / M / (4.0 * hr * ht),
                      (n - 1) / w1 / (2.0 * hr)])
    return R, pattern.matrix(coefs), G


# A stage keeps its LU only while each step is taken whole and cuts max|R|
# to at most this fraction; 0 refreshes it after every step (pure Newton).
_CHORD_CONTRACTION = 0.25

# Stages before the last only seed the next one, so they stop at this
# normalized residual, or at newton_tol if that is looser.
_STAGE_TOL = 1e-6


def spsolve(J, rhs):
    """Factor J with the MMD_AT_PLUS_A ordering and solve J x = rhs.

    Returns (x, lu); lu.solve(rhs) reuses the factorization.
    """
    lu = splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lu.solve(rhs), lu


def _line_search(grid: PathGrid, fixed: _FixedData, ups, base, delta, r_max,
                 max_backtracks):
    """Halve alpha from 1 until phi = base + alpha delta cuts max|R|.

    Returns (R, G, backtracks) at the accepted step, or None with the
    unknown block restored to base.
    """
    ni, nj = delta.shape
    for k in range(max_backtracks):
        alpha = 0.5 ** k
        grid.phi[:ni, 1:nj + 1] = base + alpha * delta
        R, _, G = _newton_system(grid, fixed, ups)
        if R is not None:
            r = np.max(np.abs(R))
            if r < r_max * (1 - 1e-4 * alpha) or r < 1e-13:
                return R, G, k
    grid.phi[:ni, 1:nj + 1] = base
    return None


def _dirichlet_column(t, s):
    """Far-field Dirichlet value s * t(t-1)/2 at rho_max."""
    return s * t * (t - 1.0) / 2.0


def _impose_boundary(phi, t, s):
    phi[-1, :] = _dirichlet_column(t, s)
    phi[:, 0] = 0.0
    phi[:, -1] = 0.0


def _secant_predictor(t, s, solved):
    """First iterate at stage s from the solved stages [(s_i, phi_i), ...].

    The secant through the last two solutions, or from a single one the
    shift by the trivial solution s t(t-1)/2; both are exact for zero data.
    """
    s1, phi1 = solved[-1]
    if len(solved) == 1:
        return phi1 + _dirichlet_column(t, s - s1)[None, :]
    s0, phi0 = solved[-2]
    return phi1 + (s - s1) / (s1 - s0) * (phi1 - phi0)


def _check_boundary_data(p, psi, cfg, rho, label):
    if psi.is_zero:
        return
    r = np.exp(rho / 2.0)
    vals, psi_1, psi_2 = psi.jet(rho, 2)
    try:
        fit = fit_decay_exponent(r, vals, window=(r[0], r[-1]))
    except ValueError as exc:
        raise BoundaryInconsistency(f"{label}: cannot assess decay: {exc}")
    if not fit.below_floor and (fit.exponent is None
                                or fit.exponent > -cfg.min_decay):
        raise BoundaryInconsistency(
            f"{label} decays like r^{fit.exponent:.2f}, slower than the "
            f"required r^-{cfg.min_decay}")
    u1, u2 = p.u_derivatives(rho, order=2)
    if np.any(u1 + psi_1 <= 0) or np.any(u2 + psi_2 <= 0):
        raise BoundaryInconsistency(f"{label} does not give a positive metric")


def solve_epsilon_geodesic(profile: RadialProfile, psi0: RadialPotential,
                           psi1: RadialPotential, config: SolverConfig):
    """Continuity-path damped Newton solve; returns (PathGrid, SolverReport)."""
    t_start = time.perf_counter()
    rho_min = config.rho_min
    if rho_min is None:
        rho_min = (float(profile.rho_of_tau(2.0 * profile.tau_min))
                   if profile.tau_min > 0 else 0.0)
    rho_max = config.rho_max if config.rho_max is not None else rho_min + 6.0
    rho = np.linspace(rho_min, rho_max, config.n_rho)
    t = np.linspace(0.0, 1.0, config.n_t)

    _check_boundary_data(profile, psi0, config, rho, "psi0")
    _check_boundary_data(profile, psi1, config, rho, "psi1")

    # spatially constant seed, exact for trivial data and elliptic everywhere
    grid = PathGrid(rho_nodes=rho, t_nodes=t,
                    phi=np.tile(_dirichlet_column(t, 1.0), (config.n_rho, 1)),
                    psi0=psi0, psi1=psi1, background=profile,
                    epsilon=config.epsilon, upsilon_mode=config.upsilon_mode)

    nr, nt = config.n_rho, config.n_t
    ni, nj = nr - 1, nt - 2
    fixed = _FixedData.build(grid)
    pattern = _StencilPattern.build(ni, nj)
    stage_iters, stage_factors = [], []
    solved = []  # (s, phi) of the last two solved stages

    schedule = config.schedule()
    for s in schedule:
        ups = fixed.upsilon(s, config.upsilon_mode)
        tol = (config.newton_tol if s == schedule[-1]
               else max(config.newton_tol, _STAGE_TOL))
        R = None
        if solved:
            grid.phi = _secant_predictor(t, s, solved)
            _impose_boundary(grid.phi, t, s)
            R, _, G = _newton_system(grid, fixed, ups)
            if R is None:
                # the prediction left the ellipticity cone: restart from
                # the last solution
                grid.phi = solved[-1][1].copy()
        if R is None:
            _impose_boundary(grid.phi, t, s)
            R, _, G = _newton_system(grid, fixed, ups)
            if R is None:
                raise PositivityLoss(
                    f"iterate left the ellipticity cone at stage s={s:g}")
        history, lu = [], None
        stage_factors.append(0)
        for _ in range(config.max_iters):
            res = float(np.max(np.abs(G)))
            history.append(res)
            if res <= tol:
                break
            r_max = float(np.max(np.abs(R)))
            base = grid.phi[:ni, 1:nt - 1].copy()
            while True:
                fresh = lu is None
                if fresh:
                    J = _newton_system(grid, fixed, ups, pattern)[1]
                    delta, lu = spsolve(J, -R.ravel())
                    stage_factors[-1] += 1
                else:
                    delta = lu.solve(-R.ravel())
                step = _line_search(grid, fixed, ups, base,
                                    delta.reshape(ni, nj), r_max,
                                    config.max_backtracks)
                if step is not None:
                    break
                if fresh:
                    raise NonConvergence(s, history, stage_factors)
                lu = None  # the chord step failed: refactor here and retry
            R, G, backtracks = step
            if backtracks or np.max(np.abs(R)) > _CHORD_CONTRACTION * r_max:
                lu = None
        else:
            raise NonConvergence(s, history, stage_factors)
        stage_iters.append(len(history))
        solved = solved[-1:] + [(s, grid.phi.copy())]

    # the certificate comes from the profile, through fixed data built
    # afresh rather than the solve's own
    final = _FixedData.build(grid)
    ups = final.upsilon(config.epsilon, config.upsilon_mode)
    G = _residual(grid, final, ups, normalized=False)
    res_raw = float(np.max(np.abs(G)))
    res_norm = float(np.max(np.abs(G / final.density)))
    if res_norm > config.newton_tol:
        raise NonConvergence(config.epsilon, [res_norm], stage_factors)

    w1, w2, P, phi_tt = _field_arrays(grid, final)
    M = phi_tt * w2 - P ** 2
    margins = {"worst_nodes": {}}
    for name, values in (("w1", w1), ("w2", w2), ("M", M)):
        margins[name], margins["worst_nodes"][name] = _argmin_node(
            values, grid.rho_nodes[:-1], grid.t_nodes[1:-1])
    report = SolverReport(
        residual_sup=res_norm,
        residual_raw_sup=res_raw,
        stage_iterations=stage_iters,
        stage_factorizations=stage_factors,
        c0_check=c0_bound_check(grid),
        positivity_margins=margins,
        wall_time=time.perf_counter() - t_start,
        upsilon_range=(float(ups.min()), float(ups.max())),
    )
    return grid, report


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _argmin_node(values, rho, t):
    """Minimum of values over the (rho, t) nodes, and the node it sits at."""
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    return float(values[i, j]), (float(rho[i]), float(t[j]))


def c0_bound_check(grid: PathGrid) -> BoundCheck:
    """Sandwich bound |phi| <= 2 t (1 - t) nodewise; reports minimum slack."""
    t = grid.t_nodes[None, :]
    slack = 2.0 * t * (1.0 - t) - np.abs(grid.phi)
    min_slack, worst = _argmin_node(slack, grid.rho_nodes, grid.t_nodes)
    return BoundCheck(passed=bool(min_slack >= -1e-12), min_slack=min_slack,
                      worst_node=worst)


def comparison_check(grid_a: PathGrid, grid_b: PathGrid, tol=1e-10):
    """Discrete comparison: larger right-hand side lies below.

    grid_a must carry epsilon_a >= epsilon_b; checks phi_a <= phi_b + tol
    at every node and returns (passed, worst_violation).
    """
    if (grid_a.rho_nodes.shape != grid_b.rho_nodes.shape
            or not np.allclose(grid_a.rho_nodes, grid_b.rho_nodes)
            or not np.allclose(grid_a.t_nodes, grid_b.t_nodes)):
        raise ValueError("grids live on different discretizations")
    if grid_a.epsilon < grid_b.epsilon:
        raise ValueError("grid_a must have the larger epsilon")
    excess = grid_a.phi - grid_b.phi
    worst = float(excess.max())
    return worst <= tol, worst


def epsilon_sweep(profile, psi0, psi1, epsilons, config: SolverConfig):
    """Solve a decreasing family of epsilons; returns grids, reports and the
    uniformity probe data (max discrete second derivative of Phi per run,
    and Cauchy sup-differences between consecutive solutions)."""
    epsilons = sorted(epsilons, reverse=True)
    grids, reports, second_derivs = [], [], []
    for eps in epsilons:
        cfg = replace(config, epsilon=eps)
        g, rep = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
        grids.append(g)
        reports.append(rep)
        second_derivs.append(_max_second_derivative(g))
    cauchy = [float(np.max(np.abs(a.phi - b.phi)))
              for a, b in zip(grids, grids[1:])]
    return {"epsilons": epsilons, "grids": grids, "reports": reports,
            "max_second_derivative": second_derivs, "cauchy": cauchy}


def _max_second_derivative(grid: PathGrid):
    """Max discrete second derivative of Phi against the spatial reference.

    Covers the spatial (rho-rho) and mixed (rho-t) components.  The pure
    time-time part is excluded: it equals the right-hand side scale epsilon
    up to lower order, so including it would let the sweep parameter itself
    dominate the probe instead of the quantity whose uniformity is tested.
    """
    rho = grid.rho_nodes
    t = grid.t_nodes
    hr, ht = grid.h_rho, grid.h_t
    _, psi0_1, psi0_2 = grid.psi0.jet(rho, 2)
    _, psi1_1, psi1_2 = grid.psi1.jet(rho, 2)
    Psi_rr = (1 - t[None, :]) * psi0_2[:, None] + t[None, :] * psi1_2[:, None]
    phi = grid.phi
    phi_rr = (phi[:-2, :] - 2 * phi[1:-1, :] + phi[2:, :]) / hr ** 2
    phi_rt = (phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:]
              + phi[:-2, :-2]) / (4 * hr * ht)
    P = (psi1_1 - psi0_1)[1:-1, None] + phi_rt
    return float(max(np.max(np.abs(phi_rr + Psi_rr[1:-1, :])),
                     np.max(np.abs(P))))
