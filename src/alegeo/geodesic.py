"""Damped-Newton continuation solver for the reduced epsilon-geodesic
equation between radial Kahler potentials.

The unknown is the relative potential phi(rho, t) with Phi = Psi + phi,
Psi = (1-t) psi0 + t psi1.  With u the background Kahler potential,
w = u + Psi + phi and primes/dots denoting d/drho and d/dt, the interior
equation is

    G[phi] = (phi_tt * w'' - (Psi_t' + phi_t')^2) * (w')^{n-1}
             - s (u')^{n-1} u''  =  0,

with phi = 0 at t = 0, 1, a spatially constant Dirichlet value at rho_max
(the far-field limit) and a homogeneous Neumann condition at rho_min.  The
continuity value s is a constant: at s = epsilon this is the
epsilon-geodesic equation (Phi_tt - |d Phi_t|^2) omega_Phi^n = epsilon
omega^n (Chen, J. Differential Geom. 56, 2000).  Newton runs on the
concave log form of the equation; the continuity path lowers s to the
target epsilon geometrically, starting from the smallest s of the ladder
1, 1/2, 1/4, ... whose seed s t(t-1)/2 is elliptic, and from s = 1 when
the continuation from there fails.  The seed's M = s w'' - P^2
grows with s, since it has phi_tt = s and no rho differences.

What depends only on the grid is built once per path.  _FixedData is the
one evaluator of u', u'', u''' and the psi0, psi1 jets to third order on
every rho node, and of w', w'' and P at phi = 0 on every (rho, t) node, and
a PathGrid, frozen but for phi's values and with read-only nodes, builds it
as grid.fixed when it is made: the boundary data's positivity check reads
it (their decay is the r_decay they declare), each iterate adds phi's
differences to it, the coarse grid slices it, and the certificate,
reduced_residual and energy_report read it.  The Jacobian needs no index
tables: with the unknowns numbered ii nj + jj, the stencil term at offset
(di, dj) lies on band diagonal di nj + dj, and _jacobian_band writes each
diagonal once.  Each iterate is evaluated once: its field arrays give R,
G, max|R| and, if it is factored, the Jacobian.  Each stage after the
first starts from a secant predictor in s through the last two solutions
(from one solution, the shift by the trivial solution s t(t-1)/2), falling
back to the last solution when the prediction leaves the ellipticity cone.
Only the last stage, s = epsilon, is solved to newton_tol; the stages
before it stop at the looser _STAGE_TOL, since they only seed the next.

Newton steps are chord steps (Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, ch. 5): a stage factors its Jacobian at
its first iterate and later iterates reuse that LU, taking the accepted
line-search residual as their own.  The Jacobian is assembled and
factored again only after a step that backtracked or cut max|R| by less
than a factor 4 (_CHORD_CONTRACTION), and at once when a chord step finds
no acceptable step length; only a freshly factored step that fails raises
NonConvergence.  Pure Newton is the case where the refresh fires after
every step.  With the unknowns numbered ii nj + jj the Jacobian is a band
matrix of half-bandwidth nj + 1; it is factored in place by LAPACK's banded
LU with partial pivoting (dgbtrf, back-solves by dgbtrs) on one OpenBLAS
thread, from scipy's _flapack file (no scipy.linalg import; else from
scipy.linalg.lapack).  A zero pivot raises NonConvergence for its stage.
One _residual evaluation of the solved phi (_field_arrays is the only
stencil) gives the certificate, the positivity margins and the C^{1,1}
probe.

Grid sequencing (nested iteration: Allgower, Bohmer, Potra and Rheinboldt,
SIAM J. Numer. Anal. 23, 1986).  The Newton counts of each stage do not
depend on the mesh, so when n_rho and n_t are odd and every other node
leaves at least _MIN_COARSE nodes each way, the whole continuation first
runs on that coarse grid, where the seed is tested, each stage stopping at
_STAGE_TOL, with the fixed data sliced from the grid's.  The grid then
starts at the last coarse stage whose prolongation (4-point cubic
midpoints, _prolong) lies in the ellipticity cone, with the prolonged stage
before it as the secant's second point, and solves the stages from there
on; on Eguchi-Hanson tau_power data the continuation is s = epsilon alone,
and the grid factors one Jacobian.  Coarse stages that fail are logged and
dropped; with none usable the solve starts again from s = 1, where the grid
runs the whole ladder from its own seed.  Only one level is coarsened.
"""

from __future__ import annotations

import ctypes
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from importlib import machinery, util
from pathlib import Path

import numpy as np
import scipy

from .potentials import RadialPotential
from .profiles import RadialProfile

__all__ = ["PathGrid", "SolverConfig", "SolverReport", "BoundCheck",
           "GeodesicError", "NonConvergence", "PositivityLoss",
           "BoundaryInconsistency", "reduced_residual",
           "solve_epsilon_geodesic", "c0_bound_check", "comparison_check",
           "epsilon_sweep"]


class GeodesicError(RuntimeError):
    pass


class NonConvergence(GeodesicError):
    """Newton failed at continuity stage ``stage``.

    ``history`` is that stage's residual history; ``stage_factorizations``
    counts the Jacobian factorizations of every stage run, on either grid
    of a sequenced solve and from both starts, the s = 1 start last.
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


# the types each SolverConfig field takes (bool excepted), numpy's included
_INTEGER = ((int, np.integer), "an integer")
_REAL = ((int, float, np.integer, np.floating), "a real number")
_FIELD_TYPES = {"epsilon": _REAL, "n_rho": _INTEGER, "n_t": _INTEGER,
                "rho_min": _REAL, "rho_max": _REAL, "newton_tol": _REAL,
                "max_iters": _INTEGER}


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    n_rho: int = 65
    n_t: int = 65
    rho_min: float | None = None
    rho_max: float | None = None
    newton_tol: float = 1e-11
    max_iters: int = 60

    def __post_init__(self):
        # values may come from JSON, where 17.5, "0.5" and true parse too
        for name, (kind, noun) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and name in ("rho_min", "rho_max"):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.n_rho < 3 or self.n_t < 3:
            raise ValueError(f"the grid needs n_rho >= 3 and n_t >= 3, got "
                             f"{self.n_rho} x {self.n_t}")

    def schedule(self):
        """Continuity values from 1 down to epsilon, geometric in between."""
        vals = [1.0]
        while vals[-1] > self.epsilon:
            vals.append(max(vals[-1] * _SCHEDULE_RATIO, self.epsilon))
        return vals

    def rho_nodes(self, profile: RadialProfile):
        """The rho nodes; by default from rho(2 tau_min) (or 0) to + 6."""
        rho_min = self.rho_min
        if rho_min is None:
            rho_min = (float(profile.rho_of_tau(2.0 * profile.tau_min))
                       if profile.tau_min > 0 else 0.0)
        rho_max = self.rho_max if self.rho_max is not None else rho_min + 6.0
        if not rho_min < rho_max:
            raise ValueError(f"rho_min < rho_max fails: {rho_min}, {rho_max}")
        return np.linspace(rho_min, rho_max, self.n_rho)


@dataclass(frozen=True)
class PathGrid:
    """Discrete path of radial potentials on read-only copies of the nodes;
    phi is (n_rho, n_t), and only its values change.  fixed is built from
    the other fields whenever a grid is made (by dataclasses.replace too)."""

    rho_nodes: np.ndarray
    t_nodes: np.ndarray
    phi: np.ndarray
    psi0: RadialPotential
    psi1: RadialPotential
    background: RadialProfile
    epsilon: float
    fixed: _FixedData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("rho_nodes", "t_nodes"):
            object.__setattr__(self, name, np.array(getattr(self, name)))
            getattr(self, name).flags.writeable = False
        if self.phi.shape != (self.rho_nodes.size, self.t_nodes.size):
            raise ValueError("phi shape does not match the node grids")
        object.__setattr__(self, "fixed", _FixedData.build(self))

    def every_other_node(self) -> "PathGrid":
        """This grid on every other node, phi copied and fixed sliced."""
        coarse = object.__new__(PathGrid)  # no __post_init__, no build
        coarse.__dict__.update(
            vars(self), rho_nodes=self.rho_nodes[::2],
            t_nodes=self.t_nodes[::2], phi=self.phi[::2, ::2].copy(),
            fixed=self.fixed.every_other_node())
        return coarse

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
    stage_shapes: list           # (n_rho, n_t) of the grid of each stage
    stage_values: list           # the continuity value s of each stage
    c0_check: BoundCheck
    positivity_margins: dict     # min of w', w'', M; "worst_nodes": (rho, t)
    wall_time: float
    max_second_derivative: float  # the C^{1,1} probe _max_second_derivative


@dataclass(frozen=True)
class _FixedData:
    """The background and boundary data of a grid, on every node.

    u1, u2, u3 are u', u'', u'''; row i of psi0 and psi1 is the jet
    (psi, psi', psi'', psi''') at rho_nodes[i].  w', w'' and P at phi = 0
    are w1 = u1 + (1-t) psi0' + t psi1', w2 likewise (each summed in that
    order) and P = psi1' - psi0'.  None of it depends on phi, so a
    PathGrid builds it once, when it is made, for every iterate, backtrack
    and stage of a solve, for its certificate and for energy_report, and
    its arrays are read-only.
    """

    n: int
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    psi0: np.ndarray  # (n_rho, 4)
    psi1: np.ndarray  # (n_rho, 4)
    density: np.ndarray  # (u')^{n-1} u'' as an (n_rho, 1) column
    w1: np.ndarray  # (n_rho, n_t)
    w2: np.ndarray  # (n_rho, n_t)
    P: np.ndarray  # (n_rho, 1)

    def __post_init__(self):
        for f in fields(self):
            if f.name != "n":
                getattr(self, f.name).flags.writeable = False

    @classmethod
    def build(cls, grid: PathGrid) -> "_FixedData":
        rho, t = grid.rho_nodes, grid.t_nodes[None, :]
        u1, u2, u3 = grid.background.u_derivatives(rho, order=3)
        n = grid.background.n
        psi0 = np.stack(grid.psi0.jet(rho, 3), axis=1)
        psi1 = np.stack(grid.psi1.jet(rho, 3), axis=1)
        return cls(
            n=n, u1=u1, u2=u2, u3=u3, psi0=psi0, psi1=psi1,
            density=(u1 ** (n - 1) * u2)[:, None],
            w1=u1[:, None] + (1.0 - t) * psi0[:, 1:2] + t * psi1[:, 1:2],
            w2=u2[:, None] + (1.0 - t) * psi0[:, 2:3] + t * psi1[:, 2:3],
            P=psi1[:, 1:2] - psi0[:, 1:2])

    def every_other_node(self) -> "_FixedData":
        """The fixed data of the grid on every other node of this one."""
        sliced = {f.name: getattr(self, f.name)[::2]
                  for f in fields(self) if f.name != "n"}
        sliced.update(w1=self.w1[::2, ::2], w2=self.w2[::2, ::2])
        return replace(self, **sliced)


def _field_arrays(grid: PathGrid):
    """w', w'', P = Psi_t' + phi_t', phi_tt, M = phi_tt w'' - P^2, phi_rr.

    All on residual nodes i = 0..n_rho-2 (Neumann mirror at i = 0,
    Dirichlet column excluded) and j = 1..n_t-2, as arrays of shape
    (n_rho-1, n_t-2); w', w'' and P add phi's differences, taken here
    alone, to grid.fixed's.
    """
    hr, ht, phi, fixed = grid.h_rho, grid.h_t, grid.phi, grid.fixed
    nr, nt = phi.shape

    # ghost row at i = -1 mirrors i = 1
    ext = np.concatenate([phi[1:2], phi])

    sl_r, sl_t = slice(0, nr - 1), slice(1, nt - 1)
    phi_rr = (ext[0:nr - 1, sl_t] - 2.0 * ext[1:nr, sl_t]
              + ext[2:nr + 1, sl_t]) / hr ** 2
    phi_r = (ext[2:nr + 1, sl_t] - ext[0:nr - 1, sl_t]) / (2.0 * hr)
    phi_tt = (phi[sl_r, 0:nt - 2] - 2.0 * phi[sl_r, sl_t]
              + phi[sl_r, 2:nt]) / ht ** 2
    phi_rt = (ext[2:nr + 1, 2:nt] - ext[2:nr + 1, 0:nt - 2]
              - ext[0:nr - 1, 2:nt] + ext[0:nr - 1, 0:nt - 2]) / (4.0 * hr * ht)

    w1 = fixed.w1[sl_r, sl_t] + phi_r
    w2 = fixed.w2[sl_r, sl_t] + phi_rr
    P = fixed.P[sl_r] + phi_rt
    return w1, w2, P, phi_tt, phi_tt * w2 - P ** 2, phi_rr


def _residual(grid: PathGrid, s):
    """G = M (w')^{n-1} - s (u')^{n-1} u'' at grid.phi, and the field arrays
    it comes from; raises PositivityLoss where w' or w'' is not positive."""
    arrays = w1, w2, _, _, M, _ = _field_arrays(grid)
    _check_positive(w1, w2, grid)
    return M * w1 ** (grid.fixed.n - 1) - s * grid.fixed.density[:-1], arrays


def reduced_residual(grid: PathGrid, normalized=False):
    """G[phi] at s = grid.epsilon on the interior nodes (i = 0..n_rho-2,
    j = 1..n_t-2); normalized=True divides by the background density
    (u')^{n-1} u''.  A solve's residual_sup is max|reduced_residual(grid,
    normalized=True)| and its residual_raw_sup max|reduced_residual(grid)|,
    bit for bit, at grid.epsilon."""
    G = _residual(grid, grid.epsilon)[0]
    return G / grid.fixed.density[:-1] if normalized else G


def _check_positive(w1, w2, grid):
    for name, arr in (("w'", w1), ("w''", w2)):
        if not arr.min() > 0:
            i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
            raise PositivityLoss(
                f"{name} <= 0 or NaN at rho={grid.rho_nodes[i]:.4f}, "
                f"t={grid.t_nodes[j + 1]:.4f}")


# ---------------------------------------------------------------------------
# Newton assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BandMatrix:
    """A square matrix in LAPACK band storage, as dgbtrf takes it.

    A[i, j] sits at ab[2 bw + i - j, j] for |i - j| <= bw; the first bw
    rows of ab are the room dgbtrf needs for the fill of row pivoting.
    nnz counts the structural nonzeros.
    """

    ab: np.ndarray  # (3 bw + 1, N), Fortran order
    bw: int
    nnz: int

    @property
    def shape(self):
        return (self.ab.shape[1],) * 2


def _jacobian_band(coefs) -> _BandMatrix:
    """The banded Jacobian of R over the (ni, nj) unknown block, from the
    stacked coefficients (A, B, C, D) of shape (4, ni, nj):
    A = dR/dphi_tt / ht^2, B = dR/dphi_rr / hr^2, C = dR/dphi_rt / (4 hr ht)
    and D = dR/dphi_r / (2 hr).

    Unknown (ii, jj) is number ii nj + jj, so the term coupling it to
    unknown (ii + di, jj + dj) lies on diagonal di nj + dj, within
    bw = nj + 1 of the main one.  Terms that leave the t range or reach the
    Dirichlet row are dropped, and row 0's di = -1 terms are summed onto its
    di = +1 ones (the Neumann mirror of ghost row -1 onto row +1).  Each
    diagonal is written once, its sums taken in the order that fixes their
    bits, and so phi's: B + D on (+1, 0) but B0 + B0 + D0 + -D0 on its row
    0, and C0 + -C0 and -C0 + C0 on row 0 of (+1, +1) and (+1, -1).
    """
    A, B, C, D = coefs
    ni, nj = A.shape
    size, bw = ni * nj, nj + 1
    # bw spare columns at either end let every diagonal be read as an
    # (ni, nj) view over the rows of J; the terms written stay inside ab
    padded = np.zeros((3 * bw + 1, size + 2 * bw), order="F")

    def diagonal(di, dj):
        k = di * nj + dj
        return padded[2 * bw - k, bw + k:bw + k + size].reshape(ni, nj)

    # the (+1, dj) terms, with row 0's mirrored (-1, dj) terms summed last
    down, right, left = B[:-1] + D[:-1], C[:-1, :-1].copy(), -C[:-1, 1:]
    down[0] = B[0] + B[0] + D[0] + -D[0]
    right[0] += -C[0, :-1]
    left[0] += C[0, 1:]
    # each slice keeps the terms whose unknown lies in the block
    diagonal(0, -1)[:, 1:] = A[:, 1:]
    diagonal(0, 1)[:, :-1] = A[:, :-1]
    diagonal(0, 0)[:] = -2.0 * A - 2.0 * B
    diagonal(-1, 0)[1:] = B[1:] - D[1:]
    diagonal(1, 0)[:-1] = down
    diagonal(1, 1)[:-1, :-1] = right
    diagonal(1, -1)[:-1, 1:] = left
    diagonal(-1, 1)[1:, :-1] = -C[1:, :-1]
    diagonal(-1, -1)[1:, 1:] = C[1:, 1:]
    # a row reaches 3 unknown rows (2 at either end, the mirror folding
    # row 0's -1 onto +1) times 3 unknown columns (2 at either end)
    return _BandMatrix(ab=padded[:, bw:bw + size], bw=bw,
                       nnz=(3 * ni - 2) * (3 * nj - 2))


def _newton_system(grid: PathGrid, s):
    """Log-form residual R and normalized residual G at grid.phi.

    Returns (R, G, arrays), or None outside the cone, where _residual
    raises; so G is _residual's G / density, written out, and arrays, what
    _field_arrays returned, give _jacobian_coefficients at this iterate.
    """
    arrays = w1, w2, _, _, M, _ = _field_arrays(grid)
    if not (w1.min() > 0 and w2.min() > 0 and M.min() > 0):
        return None
    n, density = grid.fixed.n, grid.fixed.density[:-1]
    R = np.log(M) + (n - 1) * np.log(w1) - np.log(s * density)
    G = (M * w1 ** (n - 1) - s * density) / density
    return R, G, arrays


def _jacobian_coefficients(grid: PathGrid, arrays):
    """_jacobian_band's coefficients (A, B, C, D) from the field arrays."""
    hr, ht = grid.h_rho, grid.h_t
    w1, w2, P, phi_tt, M, _ = arrays
    return np.stack([w2 / M / ht ** 2, phi_tt / M / hr ** 2,
                     -2.0 * P / M / (4.0 * hr * ht),
                     (grid.fixed.n - 1) / w1 / (2.0 * hr)])


# A stage keeps its LU only while each step is taken whole and cuts max|R|
# to at most this fraction; 0 refreshes it after every step (pure Newton).
_CHORD_CONTRACTION = 0.25

# Each continuity stage takes this fraction of the one before, down to
# epsilon.
_SCHEDULE_RATIO = 0.5

# Stages before the last only seed the next one, so they stop at this
# normalized residual, or at newton_tol if that is looser.
_STAGE_TOL = 1e-6

# A solve on odd n_rho and n_t runs its continuation first on every other
# node when that grid keeps at least this many nodes each way.
_MIN_COARSE = 17

# A line search halves its step at most this many times, and boundary data
# must decay at least like r^-_MIN_DECAY.
_MAX_BACKTRACKS = 40
_MIN_DECAY = 0.5


def _load_lapack():
    """dgbtrf and dgbtrs from scipy's _flapack extension file, registered
    under its name (a later scipy.linalg.lapack returns the same functions)
    without importing scipy.linalg; from scipy.linalg.lapack on failure."""
    name = "scipy.linalg._flapack"
    try:
        module = sys.modules.get(name)
        if module is None:
            path = next(path for suffix in machinery.EXTENSION_SUFFIXES if (
                path := _SCIPY / "linalg" / f"_flapack{suffix}").is_file())
            spec = util.spec_from_file_location(name, path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return module.dgbtrf, module.dgbtrs
    except (StopIteration, ImportError, AttributeError):
        from scipy.linalg.lapack import dgbtrf, dgbtrs
        return dgbtrf, dgbtrs


def _blas_pool():
    """Thread-count getter and setter of scipy's bundled OpenBLAS (loaded
    with _flapack) and the name of the core its kernels were chosen for;
    without it, a pair that does nothing and None."""
    try:
        lib = ctypes.CDLL(str(next(_SCIPY.parent.glob(
            "scipy.libs/libscipy_openblas*.so"))))
        get = lib.scipy_openblas_get_num_threads
        put = lib.scipy_openblas_set_num_threads
        core = lib.scipy_openblas_get_corename
    except (StopIteration, OSError, AttributeError):
        return (lambda: 1), (lambda threads: None), None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    core.argtypes, core.restype = (), ctypes.c_char_p
    return get, put, core().decode()


_SCIPY = Path(scipy.__file__).parent
dgbtrf, dgbtrs = _load_lapack()
# OPENBLAS_CORE names the kernel family, which sets dgbtrf's rounding
_get_blas_threads, _set_blas_threads, OPENBLAS_CORE = _blas_pool()
_BLAS_POOL_LOCK = threading.Lock()


class _BandLU:
    """LU factors, with partial pivoting, of a _BandMatrix (LAPACK dgbtrf).

    The factors overwrite the matrix's band.  Raises
    numpy.linalg.LinAlgError on an exactly zero pivot.  dgbtrf runs on one
    OpenBLAS thread: on more, a wide band's first factorization sometimes
    stalled for a second.  The lock keeps the pool's restore exact.
    """

    def __init__(self, J: _BandMatrix):
        bw = self.bw = J.bw
        with _BLAS_POOL_LOCK:
            threads = _get_blas_threads()
            _set_blas_threads(1)
            try:
                self.lu, self.piv, info = dgbtrf(J.ab, bw, bw, overwrite_ab=1)
            finally:
                _set_blas_threads(threads)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular Jacobian: zero pivot U[{info - 1}, {info - 1}]")

    def solve(self, rhs):
        return dgbtrs(self.lu, self.bw, self.bw, rhs, self.piv)[0]


def spsolve(J, rhs):
    """Factor the band matrix J in place by banded LU with partial pivoting
    and solve J x = rhs.

    Returns (x, lu); lu.solve(rhs) reuses the factorization.
    """
    lu = _BandLU(J)
    return lu.solve(rhs), lu


def _line_search(grid: PathGrid, s, base, delta, r_max):
    """Halve alpha from 1 until phi = base + alpha delta cuts max|R|.

    Returns the accepted step's _newton_system evaluation, backtrack count
    and max|R|; or None with the unknown block restored to base.
    """
    ni, nj = delta.shape
    for k in range(_MAX_BACKTRACKS):
        alpha = 0.5 ** k
        grid.phi[:ni, 1:nj + 1] = base + alpha * delta
        system = _newton_system(grid, s)
        if system is not None:
            r = float(np.max(np.abs(system[0])))
            if r < r_max * (1 - 1e-4 * alpha) or r < 1e-13:
                return system, k, r
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


def _check_boundary_data(grid: PathGrid, label):
    """The endpoint label ("psi0" or "psi1") must be zero or declare, as
    its r_decay, a decay at least like r^-_MIN_DECAY, and its jets in
    grid.fixed must give a positive metric on every rho node."""
    psi = getattr(grid, label)
    if psi.is_zero:
        return
    if psi.r_decay is None or not psi.r_decay >= _MIN_DECAY:
        raise BoundaryInconsistency(
            f"{label} must declare a decay r^-gamma with gamma >= "
            f"{_MIN_DECAY}, got r_decay = {psi.r_decay}")
    fixed, jet = grid.fixed, getattr(grid.fixed, label)
    if np.any(fixed.u1 + jet[:, 1] <= 0) or np.any(fixed.u2 + jet[:, 2] <= 0):
        raise BoundaryInconsistency(f"{label} does not give a positive metric")


def _prolong(phi):
    """phi on the grid with its cell midpoints added along both axes.

    Each midpoint is the 4-point cubic (-a + 9b + 9c - d)/16 through its
    neighbours, or next to an end a the one-sided (5a + 15b - 5c + d)/16,
    so the prolongation is exact on bicubic polynomials.
    """
    return _cubic_midpoints(_cubic_midpoints(phi).T).T.copy()


def _cubic_midpoints(a):
    """The rows of a with a cubic midpoint row between each pair."""
    out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
    out[::2] = a
    out[3:-3:2] = (9.0 * (a[1:-2] + a[2:-1]) - a[:-3] - a[3:]) / 16.0
    out[1] = (5.0 * a[0] + 15.0 * a[1] - 5.0 * a[2] + a[3]) / 16.0
    out[-2] = (5.0 * a[-1] + 15.0 * a[-2] - 5.0 * a[-3] + a[-4]) / 16.0
    return out


@dataclass
class _StageLog:
    """s, iterations, factorizations and (n_rho, n_t) of every stage run,
    on either grid and from both starts, in the order they ran; a failed
    stage is logged too."""

    values: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    shapes: list = field(default_factory=list)


def _run_stages(grid: PathGrid, config: SolverConfig, stages, solved,
                log: _StageLog, final_tol, start=None):
    """Solve the continuity stages in turn on grid, appending (s, phi) to
    solved after each.

    The first stage starts from grid.phi (start, if given, is its
    _newton_system), every later one from the secant predictor through
    solved; the last stage stops at final_tol and the others at _STAGE_TOL.
    """
    t = grid.t_nodes
    ni, nj = grid.phi.shape[0] - 1, grid.phi.shape[1] - 2
    for index, s in enumerate(stages):
        tol = (final_tol if s == stages[-1]
               else max(config.newton_tol, _STAGE_TOL))
        log.values.append(s)
        log.iterations.append(0)
        log.factorizations.append(0)
        log.shapes.append(grid.phi.shape)
        system = None if index else start
        if index:
            grid.phi[:] = _secant_predictor(t, s, solved)
            _impose_boundary(grid.phi, t, s)
            system = _newton_system(grid, s)
            if system is None:
                # the prediction left the ellipticity cone: restart from
                # the last solution
                grid.phi[:] = solved[-1][1]
        if system is None:
            _impose_boundary(grid.phi, t, s)
            system = _newton_system(grid, s)
            if system is None:
                raise PositivityLoss(
                    f"iterate left the ellipticity cone at stage s={s:g}")
        R, G, arrays = system
        r = float(np.max(np.abs(R)))
        history, lu = [], None
        for _ in range(config.max_iters):
            res = float(np.max(np.abs(G)))
            history.append(res)
            log.iterations[-1] = len(history)
            if res <= tol:
                break
            r_max = r
            base = grid.phi[:ni, 1:nj + 1].copy()
            while True:
                fresh = lu is None
                if fresh:
                    # the Jacobian is not bound here, so the last band is
                    # freed (with lu) before the next one is assembled
                    log.factorizations[-1] += 1
                    try:
                        delta, lu = spsolve(_jacobian_band(
                            _jacobian_coefficients(grid, arrays)),
                            -R.ravel())
                    except np.linalg.LinAlgError as exc:
                        raise NonConvergence(s, history,
                                             log.factorizations) from exc
                else:
                    delta = lu.solve(-R.ravel())
                step = _line_search(grid, s, base, delta.reshape(ni, nj),
                                    r_max)
                if step is not None:
                    break
                if fresh:
                    raise NonConvergence(s, history, log.factorizations)
                lu = None  # the chord step failed: refactor here and retry
            (R, G, arrays), backtracks, r = step
            if backtracks or r > _CHORD_CONTRACTION * r_max:
                lu = None
        else:
            raise NonConvergence(s, history, log.factorizations)
        solved.append((s, grid.phi.copy()))


def _coarse_start(grid: PathGrid, coarse: PathGrid, config: SolverConfig,
                  stages, log: _StageLog, start):
    """Run the continuation over stages on coarse, grid on every other node,
    whose phi start evaluates, and hand it to grid.

    Returns the stages grid still has to solve, the solved list they
    start from and the _newton_system of grid.phi, set to the first one's
    start: the prolonged solution of the last coarse stage whose
    prolongation is elliptic on grid, with the prolonged stage before it
    as the secant's second point.  Failed coarse stages are logged and
    dropped; with none usable, grid.phi is left as it was and the
    evaluation is None.
    """
    solved = []
    try:
        _run_stages(coarse, config, stages, solved, log,
                    max(config.newton_tol, _STAGE_TOL), start)
    except GeodesicError:
        pass  # go on from the stages that converged
    seed, t = grid.phi.copy(), grid.t_nodes
    for k in reversed(range(len(solved))):
        s, phi = solved[k]
        grid.phi[:] = _prolong(phi)
        _impose_boundary(grid.phi, t, s)
        system = _newton_system(grid, s)
        if system is not None:
            return stages[k:], [(s0, _prolong(phi0)) for s0, phi0
                                in solved[max(k - 1, 0):k]], system
    grid.phi[:] = seed
    return stages, [], None


def solve_epsilon_geodesic(profile: RadialProfile, psi0: RadialPotential,
                           psi1: RadialPotential, config: SolverConfig):
    """Continuity-path damped Newton solve; returns (PathGrid, SolverReport)."""
    t_start = time.perf_counter()
    t = np.linspace(0.0, 1.0, config.n_t)
    grid = PathGrid(rho_nodes=config.rho_nodes(profile), t_nodes=t,
                    phi=np.zeros((config.n_rho, config.n_t)), psi0=psi0,
                    psi1=psi1, background=profile, epsilon=config.epsilon)
    _check_boundary_data(grid, "psi0")
    _check_boundary_data(grid, "psi1")

    log, ladder, coarse = _StageLog(), config.schedule(), None
    if all(m % 2 and (m + 1) // 2 >= _MIN_COARSE
           for m in (config.n_rho, config.n_t)):
        coarse = grid.every_other_node()
    # from the lowest rung whose seed is elliptic; if that fails, from s = 1
    k = len(ladder) - 1
    while True:
        grid.phi[:] = _dirichlet_column(t, ladder[k])
        if coarse:
            coarse.phi[:] = grid.phi[::2, ::2]
        start = _newton_system(coarse or grid, ladder[k])
        if start is None and k:
            k -= 1
            continue
        try:
            stages, solved = ladder[k:], []
            if coarse:
                stages, solved, start = _coarse_start(
                    grid, coarse, config, stages, log, start)
            if start is not None or not k:  # else no coarse stage is usable
                _run_stages(grid, config, stages, solved, log,
                            config.newton_tol, start)
                break
        except GeodesicError:
            if not k:
                raise
        k = 0

    # one evaluation gives the certificate, the margins and the probe
    G, (w1, w2, P, _, M, phi_rr) = _residual(grid, config.epsilon)
    res_raw = float(np.max(np.abs(G)))
    res_norm = float(np.max(np.abs(G / grid.fixed.density[:-1])))
    if not res_norm <= config.newton_tol:
        raise NonConvergence(config.epsilon, [res_norm], log.factorizations)

    margins = {"worst_nodes": {}}
    for name, values in (("w1", w1), ("w2", w2), ("M", M)):
        margins[name], margins["worst_nodes"][name] = _argmin_node(
            values, grid.rho_nodes[:-1], grid.t_nodes[1:-1])
    report = SolverReport(
        residual_sup=res_norm,
        residual_raw_sup=res_raw,
        stage_iterations=log.iterations,
        stage_factorizations=log.factorizations,
        stage_shapes=log.shapes,
        stage_values=log.values,
        c0_check=c0_bound_check(grid),
        positivity_margins=margins,
        max_second_derivative=_max_second_derivative(grid, phi_rr, P),
        wall_time=time.perf_counter() - t_start,
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
    grids, reports = [], []
    for eps in epsilons:
        cfg = replace(config, epsilon=eps)
        g, rep = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
        grids.append(g)
        reports.append(rep)
    cauchy = [float(np.max(np.abs(a.phi - b.phi)))
              for a, b in zip(grids, grids[1:])]
    return {"epsilons": epsilons, "grids": grids, "reports": reports,
            "max_second_derivative": [r.max_second_derivative
                                      for r in reports], "cauchy": cauchy}


def _max_second_derivative(grid: PathGrid, phi_rr, P):
    """Max discrete second derivative of Phi against the spatial reference.

    Covers Phi_rr = Psi'' + phi_rr (Psi'' alone at t = 0, 1, where phi = 0)
    and the mixed Phi_rt = P on rows 1..n_rho-2, from the certificate's
    field arrays.  The pure time-time part is excluded: it equals the
    right-hand side scale epsilon up to lower order, so including it would
    let the sweep parameter itself dominate the probe instead of the
    quantity whose uniformity is tested.
    """
    t, fixed = grid.t_nodes[None, :], grid.fixed
    Phi_rr = (1 - t) * fixed.psi0[1:-1, 2:3] + t * fixed.psi1[1:-1, 2:3]
    Phi_rr[:, 1:-1] += phi_rr[1:]
    return float(max(np.max(np.abs(Phi_rr)), np.max(np.abs(P[1:]))))
