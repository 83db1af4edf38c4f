import ast
import hashlib
import importlib.util
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from alegeo import geodesic
from alegeo.geodesic import (
    BoundaryInconsistency,
    NonConvergence,
    PathGrid,
    PositivityLoss,
    SolverConfig,
    c0_bound_check,
    comparison_check,
    epsilon_sweep,
    reduced_residual,
    solve_epsilon_geodesic,
    _FixedData,
    _jacobian_band,
    _newton_system,
    _prolong,
    _residual,
)
from alegeo.potentials import (
    RadialPotential,
    exp_decay_potential,
    tau_power_potential,
    zero_potential,
)
from alegeo.profiles import RadialProfile, flat_profile, lebrun_profile
from alegeo.runner import Scenario, run_scenario


EH = lebrun_profile(2, 1.0)
RHO_MIN_EH = float(EH.rho_of_tau(2.0))


def constant_potential(c):
    def jet(rho, order):
        return [np.full_like(rho, c)] + [np.zeros_like(rho)] * order
    return RadialPotential(kind="const", params={"c": c}, _jet=jet)


def make_grid(profile, phi=None, n_rho=17, n_t=17, psi0=None, psi1=None,
              epsilon=0.5):
    rho_min = (float(profile.rho_of_tau(2.0 * profile.tau_min))
               if profile.tau_min > 0 else 0.0)
    rho = np.linspace(rho_min, rho_min + 6.0, n_rho)
    t = np.linspace(0.0, 1.0, n_t)
    if phi is None:
        phi = np.zeros((n_rho, n_t))
    return PathGrid(rho_nodes=rho, t_nodes=t, phi=phi,
                    psi0=psi0 or zero_potential(),
                    psi1=psi1 or zero_potential(),
                    background=profile, epsilon=epsilon)


# ---------------------------------------------------------------------------
# residual closed forms
# ---------------------------------------------------------------------------

def test_residual_exact_solution_is_zero():
    g = make_grid(EH)
    t = g.t_nodes[None, :]
    g.phi[:] = 0.5 * t * (t - 1.0) / 2.0
    G = reduced_residual(g)
    assert np.max(np.abs(G)) < 1e-14


def test_residual_constant_shift_solution():
    c = 0.3
    g = make_grid(EH, psi1=constant_potential(c))
    t = g.t_nodes[None, :]
    g.phi[:] = 0.5 * t * (t - 1.0) / 2.0
    # Psi = t*c carries the shift; psi' = 0 so the residual is unchanged
    assert np.max(np.abs(reduced_residual(g))) < 1e-14


def test_residual_continuity_start():
    g = make_grid(EH, epsilon=1.0)
    G = reduced_residual(g)  # phi = 0, so G = -(u')^{n-1} u''
    u1, u2 = EH.u_derivatives(g.rho_nodes[:-1], order=2)
    expected = -(u1 ** (EH.n - 1) * u2)[:, None]
    assert np.allclose(G, expected * np.ones_like(G), rtol=1e-13)
    assert np.all(G < 0)
    # normalized form is exactly -1
    assert np.allclose(reduced_residual(g, normalized=True), -1.0)


def test_residual_positivity_guard():
    g = make_grid(EH)
    g.phi[:] = 0.0
    g.phi[5, :] = 50.0  # destroys w'' at neighboring nodes
    with pytest.raises(PositivityLoss):
        reduced_residual(g)


# ---------------------------------------------------------------------------
# Jacobian correctness
# ---------------------------------------------------------------------------

def _dense(J):
    """The band matrix J unpacked to a dense array."""
    n, bw = J.shape[0], J.bw
    A = np.zeros((n, n))
    for d in range(-bw, bw + 1):  # d = i - j
        j = np.arange(max(0, -d), min(n, n - d))
        A[j + d, j] = J.ab[2 * bw + d, j]
    return A


# The Jacobian's stencil terms: (di, dj, coefficient, multiple), with the
# coefficients cA = dR/dphi_tt / ht^2, cB = dR/dphi_rr / hr^2,
# cC = dR/dphi_rt / (4 hr ht) and cD = dR/dphi_r / (2 hr).
_STENCIL = ((0, -1, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 0, -2.0),
            (-1, 0, 1, 1.0), (1, 0, 1, 1.0), (0, 0, 1, -2.0),
            (1, 1, 2, 1.0), (1, -1, 2, -1.0), (-1, 1, 2, -1.0),
            (-1, -1, 2, 1.0),
            (1, 0, 3, 1.0), (-1, 0, 3, -1.0))


def _stencil_terms(ni, nj):
    """(row, column, coefficient index, multiple) of every Jacobian term
    over an (ni, nj) unknown block, entry by entry from _STENCIL."""
    for ii in range(ni):
        for jj in range(nj):
            for di, dj, coef, mult in _STENCIL:
                ti, tj = ii + di, jj + dj
                if ti == -1:
                    ti = 1  # Neumann mirror
                if ti < ni and 0 <= tj < nj:
                    yield ii * nj + jj, ti * nj + tj, (coef, ii, jj), mult


def _dense_from_stencil(coefs):
    """The Jacobian assembled entry by entry from _STENCIL."""
    _, ni, nj = coefs.shape
    A = np.zeros((ni * nj, ni * nj))
    for row, col, src, mult in _stencil_terms(ni, nj):
        A[row, col] += mult * coefs[src]
    return A


def _perturbed_system(n_rho, n_t, rng):
    """A grid near the s = 0.7 trivial solution, with its Newton system
    and the coefficients its Jacobian was assembled from."""
    g = make_grid(EH, n_rho=n_rho, n_t=n_t,
                  psi0=exp_decay_potential(0.03, 4.0, rho_ref=RHO_MIN_EH),
                  psi1=exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH))
    t = g.t_nodes[None, :]
    g.phi[:] = 0.7 * t * (t - 1.0) / 2.0
    g.phi[:-1, 1:-1] += 0.001 * rng.standard_normal(g.phi[:-1, 1:-1].shape)
    R, G, arrays = _newton_system(g, 0.7)
    coefs = geodesic._jacobian_coefficients(g, arrays)
    return g, coefs, (R, _jacobian_band(coefs), G)


def _check_jacobian(n_rho, n_t):
    rng = np.random.default_rng(7)
    g, _, (R0, J, G0) = _perturbed_system(n_rho, n_t, rng)
    ni, nj = g.phi.shape[0] - 1, g.phi.shape[1] - 2
    assert R0 is not None
    assert J.shape == (ni * nj, ni * nj)
    # nnz is the number of distinct entries the stencil reaches
    assert J.nnz == len({term[:2] for term in _stencil_terms(ni, nj)})
    # a second evaluation gives R, G and the field arrays bit for bit, and
    # G is the normalized residual the certificate uses, from the same arrays
    R1, G1, arrays = _newton_system(g, 0.7)
    assert np.array_equal(R0, R1) and np.array_equal(G0, G1)
    assert all(np.array_equal(a, b) for a, b in
               zip(arrays, geodesic._field_arrays(g), strict=True))
    G, certified = _residual(g, 0.7)
    assert np.array_equal(G0, G / g.fixed.density[:-1])
    assert all(np.array_equal(a, b) for a, b in
               zip(arrays, certified, strict=True))
    h = 1e-6
    J = _dense(J)
    for col in rng.choice(ni * nj, size=12, replace=False):
        i, j = divmod(col, nj)
        g.phi[i, j + 1] += h
        Rp = _newton_system(g, 0.7)[0]
        g.phi[i, j + 1] -= 2 * h
        Rm = _newton_system(g, 0.7)[0]
        g.phi[i, j + 1] += h
        fd = (Rp - Rm).ravel() / (2 * h)
        assert np.allclose(J[:, col], fd, atol=1e-4)


def test_newton_jacobian_matches_finite_differences():
    # non-square grids catch an i/j transposition in the band slots
    for n_rho, n_t in ((9, 9), (9, 7), (7, 11)):
        _check_jacobian(n_rho, n_t)


def test_banded_solve_matches_dense_solve():
    # an i/j swap in the band slots, or a dropped sum of the Neumann
    # mirror onto row 0, leaves a band that differs from the dense matrix
    rng = np.random.default_rng(11)
    _, coefs, (R, J, _) = _perturbed_system(17, 11, rng)
    A = _dense_from_stencil(coefs)
    assert np.allclose(_dense(J), A, rtol=1e-14, atol=0.0)
    x, lu = geodesic.spsolve(J, -R.ravel())
    assert np.shares_memory(lu.lu, J.ab)  # factored in place, no copy
    ref = np.linalg.solve(A, -R.ravel())
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    rhs = rng.standard_normal(ref.size)
    again = np.linalg.solve(A, rhs)
    assert np.max(np.abs(lu.solve(rhs) - again)) <= 1e-12 * np.max(
        np.abs(again))


def test_band_fill_on_narrow_grids():
    # at nj = 1, 2 (n_t = 3, 4) the +-1 diagonals are also the +-nj or
    # +-(nj - 1) ones, and at ni = 2 (n_rho = 3) the Neumann mirror's row +1
    # is the last unknown row, so the fill must sum what each entry gets
    rng = np.random.default_rng(13)
    for ni, nj in ((2, 1), (3, 1), (2, 2), (3, 2), (8, 1), (8, 2), (2, 7)):
        coefs = rng.standard_normal((4, ni, nj))
        J = _jacobian_band(coefs)
        assert np.allclose(_dense(J), _dense_from_stencil(coefs),
                           rtol=1e-14, atol=0.0)
        assert J.nnz == len({term[:2] for term in _stencil_terms(ni, nj)})


def _reference_jacobian_band(coefs):
    """The band as an older _jacobian_band filled it: each stencil term
    added into its diagonal in turn, row 0's di = -1 terms onto di = +1."""
    A, B, C, D = coefs
    ni, nj = A.shape
    size, bw = ni * nj, nj + 1
    padded = np.zeros((3 * bw + 1, size + 2 * bw), order="F")
    inner = {-1: slice(1, None), 0: slice(None), 1: slice(None, -1)}

    def diagonal(di, dj):
        k = di * nj + dj
        return padded[2 * bw - k, bw + k:bw + k + size].reshape(ni, nj)

    def add(di, dj, values):
        rows, cols = inner[di], inner[dj]
        diagonal(di, dj)[rows, cols] += values[rows, cols]
        if di < 0:
            diagonal(1, dj)[:1, cols] += values[:1, cols]

    for di, dj, values in ((0, -1, A), (0, 1, A), (0, 0, -2.0 * A - 2.0 * B),
                           (-1, 0, B), (1, 0, B), (1, 1, C), (1, -1, -C),
                           (-1, 1, -C), (-1, -1, C), (1, 0, D), (-1, 0, -D)):
        add(di, dj, values)
    return padded[:, bw:bw + size]


def _reference_field_arrays(grid):
    """The field arrays as an older _field_arrays built them: the ghost row
    by np.vstack, and Psi's terms summed from the jets on every call."""
    t = grid.t_nodes
    hr, ht = grid.h_rho, grid.h_t
    nr, nt = grid.rho_nodes.size, t.size
    phi, fixed = grid.phi, grid.fixed
    ext = np.vstack([phi[1:2, :], phi])
    sl_r, sl_t = slice(0, nr - 1), slice(1, nt - 1)
    phi_rr = (ext[0:nr - 1, sl_t] - 2.0 * ext[1:nr, sl_t]
              + ext[2:nr + 1, sl_t]) / hr ** 2
    phi_r = (ext[2:nr + 1, sl_t] - ext[0:nr - 1, sl_t]) / (2.0 * hr)
    phi_tt = (phi[sl_r, 0:nt - 2] - 2.0 * phi[sl_r, sl_t]
              + phi[sl_r, 2:nt]) / ht ** 2
    phi_rt = (ext[2:nr + 1, 2:nt] - ext[2:nr + 1, 0:nt - 2]
              - ext[0:nr - 1, 2:nt] + ext[0:nr - 1, 0:nt - 2]) / (4.0 * hr * ht)
    psi0, psi1 = fixed.psi0[:-1, :, None], fixed.psi1[:-1, :, None]
    tj = t[sl_t][None, :]
    w1 = (fixed.u1[:-1, None] + (1.0 - tj) * psi0[:, 1] + tj * psi1[:, 1]
          + phi_r)
    w2 = (fixed.u2[:-1, None] + (1.0 - tj) * psi0[:, 2] + tj * psi1[:, 2]
          + phi_rr)
    P = psi1[:, 1] - psi0[:, 1] + phi_rt
    return w1, w2, P, phi_tt, phi_tt * w2 - P ** 2, phi_rr


@pytest.mark.parametrize("ni,nj", [(64, 43), (32, 21), (5, 3), (2, 1),
                                   (3, 1), (2, 2), (3, 2), (8, 1), (8, 2),
                                   (2, 7)])
def test_band_fill_is_bit_for_bit_the_add_by_add_fill(ni, nj):
    # each diagonal is written once, summing what an entry gathers in the
    # order the add-by-add fill added it, so every bit of the band agrees;
    # coefficients span 1e-8..1e8 so that a changed order would round apart
    rng = np.random.default_rng(17)
    for _ in range(3):
        coefs = rng.standard_normal((4, ni, nj)) * 10.0 ** rng.uniform(
            -8.0, 8.0, (4, ni, nj))
        assert np.array_equal(_jacobian_band(coefs).ab,
                              _reference_jacobian_band(coefs))


@pytest.mark.parametrize("n_rho,n_t", [(17, 11), (9, 7), (7, 11), (3, 3),
                                       (4, 4), (9, 3), (3, 9)])
def test_newton_system_is_bit_for_bit_the_per_call_sums(n_rho, n_t):
    # the field arrays add phi's differences to w', w'' and P at phi = 0,
    # built once in the fixed data; R, G, the six arrays and the band
    # agree bit for bit with the arrays summed from the jets on every call
    rng = np.random.default_rng(19)
    g, coefs, (R, J, G) = _perturbed_system(n_rho, n_t, rng)
    arrays = _reference_field_arrays(g)
    assert all(np.array_equal(a, b) for a, b in
               zip(geodesic._field_arrays(g), arrays, strict=True))
    w1, _, _, _, M, _ = arrays
    fixed = g.fixed
    density = fixed.density[:-1]
    assert np.array_equal(R, np.log(M) + (fixed.n - 1) * np.log(w1)
                          - np.log(0.7 * density))
    assert np.array_equal(G, (M * w1 ** (fixed.n - 1) - 0.7 * density)
                          / density)
    reference = geodesic._jacobian_coefficients(g, arrays)
    assert np.array_equal(coefs, reference)
    assert np.array_equal(J.ab, _reference_jacobian_band(reference))


@pytest.mark.parametrize("node", [(0, 1), (5, 4), (15, 9)])
def test_nan_iterate_is_outside_the_cone(node):
    # a NaN reaches w', w'' and M at the node's neighbors, and a NaN min
    # fails the ellipticity test, so the iterate is refused, not solved with
    g, _, _ = _perturbed_system(17, 11, np.random.default_rng(3))
    assert _newton_system(g, 0.7) is not None
    g.phi[node] = np.nan
    assert _newton_system(g, 0.7) is None


def _pivoting_band(rng, n=40, bw=3):
    """A nonsymmetric band matrix A, and A in dgbtrf's band storage; its
    small diagonal makes the LU interchange rows."""
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= bw
    A = np.where(inside, rng.standard_normal((n, n)), 0.0)
    A[np.diag_indices(n)] *= 1e-3
    ab = np.zeros((3 * bw + 1, n), order="F")
    ab[2 * bw + i[inside] - j[inside], j[inside]] = A[inside]
    return A, ab


def test_lapack_fallback_factors_bit_identically(monkeypatch):
    # the _flapack file loaded directly, and scipy.linalg.lapack when that
    # load fails, factor and solve alike; a later import hands back the
    # functions geodesic holds
    rng = np.random.default_rng(5)
    A, ab = _pivoting_band(rng)
    bw, rhs = 3, rng.standard_normal(A.shape[0])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    direct = geodesic._load_lapack()
    assert sys.modules["scipy.linalg._flapack"].dgbtrf is direct[0]
    looked_up = []
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "spec_from_file_location",
                        lambda name, path: looked_up.append(path))
    fallback = geodesic._load_lapack()
    assert looked_up and "scipy.linalg.lapack" in sys.modules
    results = []
    for dgbtrf, dgbtrs in (direct, fallback):
        lu, piv, info = dgbtrf(ab.copy(order="F"), bw, bw)
        assert info == 0
        results.append((lu, piv, dgbtrs(lu, bw, bw, rhs, piv)[0]))
    (_, piv, x), again = results
    assert np.any(piv != np.arange(piv.size))
    assert np.max(np.abs(A @ x - rhs)) < 1e-10
    assert all(np.array_equal(a, b) for a, b in zip(results[0], again))
    import scipy.linalg.lapack as lapack
    assert lapack.dgbtrf is geodesic.dgbtrf
    assert lapack.dgbtrs is geodesic.dgbtrs


def test_band_lu_runs_on_one_blas_thread(monkeypatch):
    # the pool's own thread count is back after every factorization, also
    # after one that raises
    seen = []
    factor = geodesic.dgbtrf

    def dgbtrf(*args, **kwargs):
        seen.append(geodesic._get_blas_threads())
        return factor(*args, **kwargs)

    threads = geodesic._get_blas_threads()
    geodesic._set_blas_threads(2)
    try:
        before = geodesic._get_blas_threads()
        monkeypatch.setattr(geodesic, "dgbtrf", dgbtrf)
        psi1 = tau_power_potential(EH, 0.1, 4.0)
        solve_epsilon_geodesic(EH, zero_potential(), psi1,
                               _eh_tau_power_config(33, 33))
        assert seen and set(seen) == {1}
        assert geodesic._get_blas_threads() == before
        monkeypatch.setattr(geodesic, "dgbtrf", None)
        _, ab = _pivoting_band(np.random.default_rng(5))
        with pytest.raises(TypeError):
            geodesic._BandLU(geodesic._BandMatrix(ab=ab, bw=3, nnz=0))
        assert geodesic._get_blas_threads() == before
    finally:
        geodesic._set_blas_threads(threads)


def _solve_from_s1(*args):
    """solve_epsilon_geodesic with only s = 1 passing the start-rung test,
    so that the continuation starts at s = 1 whatever the data."""
    newton_system = geodesic._newton_system
    rung_test = [True]

    def only_s1(grid, s):
        # a solve's first evaluations are its rung tests
        if rung_test[0] and s < 1.0:
            return None
        rung_test[0] = False
        return newton_system(grid, s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geodesic, "_newton_system", only_s1)
        return solve_epsilon_geodesic(*args)


# the eh_energy solve's phi (EH 65x45, tau_power 0.1/4, eps = 1/8), recorded
# with scipy.linalg.lapack's dgbtrf (numpy 2.4.6, scipy 1.17.1, x86-64): rows
# 8::16 by columns 5::11, and the sha256 of the whole array.  dgbtrf's
# rounding depends on the OpenBLAS kernel, so each pin is kept per kernel
# family, as scipy_openblas_get_corename() names it: "SkylakeX" (AVX-512,
# also chosen for Cooperlake and SapphireRapids) and "Haswell" (AVX2, also
# chosen for Zen).  The two differ by at most 2.8e-17 at 1265 of 2925 nodes
# of the s = 1/8 start's phi (max |phi| is 0.019), in the same iterations.
# The pins: "s1" is the solve started at s = 1; "newton" the same with EH
# inverted by the safeguarded Newton (its kernel's closed-form tau removed),
# whose tau differs by 1 ulp at 31 of 65 nodes; and "low" the solve started
# at s = 1/8, the lowest rung with an elliptic seed.
EH_ENERGY_PINS = {
    "SkylakeX": {
        "s1": ([
            "-0x1.de06e1277b764p-8", "-0x1.1be68666b5ef4p-6",
            "-0x1.2e106e2ba9a27p-6", "-0x1.39ea7f3fd757cp-7",
            "-0x1.a50d9cb04a205p-8", "-0x1.e44a7e4f3fca5p-7",
            "-0x1.f0d226c8acbaep-7", "-0x1.ee31833687850p-8",
            "-0x1.9c8f674c64bf4p-8", "-0x1.d9ea3073bb2dbp-7",
            "-0x1.e58cf58974d32p-7", "-0x1.e2606995939f3p-8",
            "-0x1.9c8fde2249f5ep-8", "-0x1.d9ead7c7e30e2p-7",
            "-0x1.e58dc080ef7d5p-7", "-0x1.e261527bc0353p-8"],
            "aac1c2a36ff07912f91e8e746486bb46c64913e22cdf9accb71359ca07385c36",
        ),
        "newton": ([
            "-0x1.de06e1277b763p-8", "-0x1.1be68666b5ef2p-6",
            "-0x1.2e106e2ba9a25p-6", "-0x1.39ea7f3fd757ap-7",
            "-0x1.a50d9cb04a208p-8", "-0x1.e44a7e4f3fca8p-7",
            "-0x1.f0d226c8acbb0p-7", "-0x1.ee31833687852p-8",
            "-0x1.9c8f674c64be7p-8", "-0x1.d9ea3073bb2c9p-7",
            "-0x1.e58cf58974d21p-7", "-0x1.e2606995939e7p-8",
            "-0x1.9c8fde2249f53p-8", "-0x1.d9ead7c7e30d2p-7",
            "-0x1.e58dc080ef7c5p-7", "-0x1.e261527bc0346p-8"],
            "60873e9bd30f4f08e059e9146141aaf24d21f6267a892b3de19191ced6e7d603",
        ),
        "low": ([
            "-0x1.de06e1277b762p-8", "-0x1.1be68666b5ef3p-6",
            "-0x1.2e106e2ba9a26p-6", "-0x1.39ea7f3fd757cp-7",
            "-0x1.a50d9cb04a208p-8", "-0x1.e44a7e4f3fca1p-7",
            "-0x1.f0d226c8acbabp-7", "-0x1.ee3183368784ep-8",
            "-0x1.9c8f674c64bf1p-8", "-0x1.d9ea3073bb2d9p-7",
            "-0x1.e58cf58974d32p-7", "-0x1.e2606995939f3p-8",
            "-0x1.9c8fde2249f4ep-8", "-0x1.d9ead7c7e30c8p-7",
            "-0x1.e58dc080ef7bcp-7", "-0x1.e261527bc0341p-8"],
            "51033297dc53c5dd73fb1711280dc60b96bfb7ecbe9d8e74614233713779fabf",
        ),
    },
    "Haswell": {
        "s1": ([
            "-0x1.de06e1277b763p-8", "-0x1.1be68666b5ef3p-6",
            "-0x1.2e106e2ba9a26p-6", "-0x1.39ea7f3fd757bp-7",
            "-0x1.a50d9cb04a204p-8", "-0x1.e44a7e4f3fca3p-7",
            "-0x1.f0d226c8acbadp-7", "-0x1.ee31833687850p-8",
            "-0x1.9c8f674c64bf4p-8", "-0x1.d9ea3073bb2dbp-7",
            "-0x1.e58cf58974d32p-7", "-0x1.e2606995939f3p-8",
            "-0x1.9c8fde2249f5ep-8", "-0x1.d9ead7c7e30e2p-7",
            "-0x1.e58dc080ef7d5p-7", "-0x1.e261527bc0353p-8"],
            "35d81e0ad6046230d9764d3741bbb0a366f6734dcfd001f7c27c162070147c05",
        ),
        "newton": ([
            "-0x1.de06e1277b765p-8", "-0x1.1be68666b5ef4p-6",
            "-0x1.2e106e2ba9a26p-6", "-0x1.39ea7f3fd757bp-7",
            "-0x1.a50d9cb04a1fdp-8", "-0x1.e44a7e4f3fc9cp-7",
            "-0x1.f0d226c8acba8p-7", "-0x1.ee3183368784dp-8",
            "-0x1.9c8f674c64be7p-8", "-0x1.d9ea3073bb2c9p-7",
            "-0x1.e58cf58974d21p-7", "-0x1.e2606995939e7p-8",
            "-0x1.9c8fde2249f53p-8", "-0x1.d9ead7c7e30d2p-7",
            "-0x1.e58dc080ef7c5p-7", "-0x1.e261527bc0346p-8"],
            "49c9554fb1054bbe9df3ff5ceff0d0a69164f1e51384952e64f9af6306d06031",
        ),
        "low": ([
            "-0x1.de06e1277b766p-8", "-0x1.1be68666b5ef4p-6",
            "-0x1.2e106e2ba9a28p-6", "-0x1.39ea7f3fd757dp-7",
            "-0x1.a50d9cb04a20ep-8", "-0x1.e44a7e4f3fcabp-7",
            "-0x1.f0d226c8acbb1p-7", "-0x1.ee31833687852p-8",
            "-0x1.9c8f674c64bf1p-8", "-0x1.d9ea3073bb2d9p-7",
            "-0x1.e58cf58974d32p-7", "-0x1.e2606995939f3p-8",
            "-0x1.9c8fde2249f4ep-8", "-0x1.d9ead7c7e30c8p-7",
            "-0x1.e58dc080ef7bcp-7", "-0x1.e261527bc0341p-8"],
            "51c673a2dc056cbffadc69974321a9fe001eab881be09eca97a07ef467d05cd6",
        ),
    },
}


def _openblas_core():
    """The core name of the OpenBLAS that geodesic._blas_pool opens."""
    if geodesic.OPENBLAS_CORE is None:
        pytest.fail("no scipy OpenBLAS library to name the kernel of")
    return geodesic.OPENBLAS_CORE


def _pin(start):
    """The eh_energy pin (phi samples, sha256) of start for this kernel."""
    core = _openblas_core()
    if core not in EH_ENERGY_PINS:
        pytest.fail(f"no eh_energy phi pins recorded for the OpenBLAS core "
                    f"{core!r}; record them from a solve on that kernel")
    return EH_ENERGY_PINS[core][start]


def _eh_energy_solve(profile, start, solve=solve_epsilon_geodesic):
    phi_hex, sha256 = _pin(start)
    psi1 = tau_power_potential(profile, 0.1, 4.0)
    g, rep = solve(profile, zero_potential(), psi1,
                   _eh_tau_power_config(65, 45))
    recorded = np.array([float.fromhex(h) for h in phi_hex])
    assert np.array_equal(g.phi[8::16, 5::11].ravel(), recorded)
    whole = np.ascontiguousarray(g.phi, dtype="<f8").tobytes()
    assert hashlib.sha256(whole).hexdigest() == sha256
    return g, rep


def test_eh_energy_solve_is_pinned_bit_for_bit():
    # the solve starts at s = epsilon and moves no node of phi by more than
    # 1e-16 from the s = 1 start (max |phi| is 0.019)
    g, rep = _eh_energy_solve(EH, "low")
    assert rep.stage_values == [0.125, 0.125]
    assert rep.stage_iterations == [6, 5]
    assert rep.stage_factorizations == [2, 1]
    g_s1, _ = _eh_energy_solve(EH, "s1", _solve_from_s1)
    assert np.max(np.abs(g.phi - g_s1.phi)) <= 1e-16


def test_eh_energy_solve_within_roundoff_of_the_newton_inverse():
    # started at s = 1, EH without its closed-form inverse takes the Newton
    # and reproduces the older pin bit for bit; the closed form moves no
    # node of phi by more than 1e-15 (max |phi| is 0.019), and no stage's
    # iterations or factorizations
    newton = replace(EH, _kernel=replace(EH._kernel, tau=None))
    g_old, rep_old = _eh_energy_solve(newton, "newton", _solve_from_s1)
    g, rep = _eh_energy_solve(EH, "s1", _solve_from_s1)
    assert np.max(np.abs(g.phi - g_old.phi)) <= 1e-15
    assert rep.stage_iterations == rep_old.stage_iterations == [6, 5, 4, 4, 5]
    assert (rep.stage_factorizations == rep_old.stage_factorizations
            == [2, 2, 1, 1, 1])
    assert rep.stage_values == [1.0, 0.5, 0.25, 0.125, 0.125]


def test_jacobian_structural_nonzeros():
    # the counts of the 65x45 grid and of its every-other-node grid
    assert _jacobian_band(np.zeros((4, 64, 43))).nnz == 24130
    assert _jacobian_band(np.zeros((4, 32, 21))).nnz == 5734


def test_fixed_data_matches_public_residual():
    psi0 = exp_decay_potential(0.03, 4.0, rho_ref=RHO_MIN_EH)
    psi1 = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    g = make_grid(EH, n_rho=9, n_t=7, psi0=psi0, psi1=psi1, epsilon=0.3)
    t = g.t_nodes[None, :]
    g.phi[:] = 0.3 * t * (t - 1.0) / 2.0
    G, _ = _residual(g, 0.3)
    assert np.array_equal(G / g.fixed.density[:-1],
                          reduced_residual(g, normalized=True))
    # the right-hand side is epsilon times the background density
    w1, w2, P, phi_tt, _, _ = geodesic._field_arrays(g)
    u1, u2 = EH.u_derivatives(g.rho_nodes[:-1], order=2)
    expected = ((phi_tt * w2 - P ** 2) * w1 ** (EH.n - 1)
                - 0.3 * (u1 ** (EH.n - 1) * u2)[:, None])
    np.testing.assert_allclose(G, expected, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_exact_solution_reproduced(eps):
    cfg = SolverConfig(epsilon=eps)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                    cfg)
    t = g.t_nodes[None, :]
    exact = eps * t * (t - 1.0) / 2.0
    assert np.max(np.abs(g.phi - exact)) < 1e-8
    assert rep.residual_sup <= cfg.newton_tol
    assert rep.wall_time < 10.0


def test_nontrivial_solve_certificate_and_sandwich():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # independent recomputation matches the reported certificate
    res = float(np.max(np.abs(reduced_residual(g, normalized=True))))
    assert res == pytest.approx(rep.residual_sup, rel=1e-12, abs=1e-15)
    assert res <= cfg.newton_tol
    assert rep.c0_check.passed
    assert rep.positivity_margins["M"] > 0
    # each minimum sits at its worst node; field columns start at t_nodes[1]
    w1, w2, _, _, M, _ = geodesic._field_arrays(g)
    for name, values in (("w1", w1), ("w2", w2), ("M", M)):
        rho_w, t_w = rep.positivity_margins["worst_nodes"][name]
        i = int(np.flatnonzero(g.rho_nodes == rho_w)[0])
        j = int(np.flatnonzero(g.t_nodes == t_w)[0])
        assert values[i, j - 1] == values.min() == rep.positivity_margins[name]


def test_symmetric_data_symmetric_solution():
    psi = exp_decay_potential(0.08, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.5)
    g, _ = solve_epsilon_geodesic(EH, psi, psi, cfg)
    assert np.max(np.abs(g.phi - g.phi[:, ::-1])) < 1e-10


# (n, k) of the LeBrun backgrounds the metamorphic relations run on
LEBRUN_BUNDLES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4)]


def near_zero_section_config(profile):
    rho_min = float(profile.rho_of_tau(profile.tau_min * (1.0 + 1e-4)))
    return SolverConfig(epsilon=0.125, n_rho=33, n_t=33, rho_min=rho_min,
                        rho_max=rho_min + 12.0, newton_tol=1e-11)


@pytest.mark.parametrize("n,k", LEBRUN_BUNDLES)
def test_swapping_the_ends_reverses_the_path(n, k):
    # psi0 <-> psi1 with t -> 1 - t maps the discrete problem to itself: P
    # and phi_rt change sign, M does not, and the Dirichlet column is
    # symmetric (measured <= 5.4e-17)
    p = lebrun_profile(k, 1.0, n=n)
    a = tau_power_potential(p, 0.08, 4.0)
    b = tau_power_potential(p, -0.05, 3.0)
    cfg = near_zero_section_config(p)
    ab, rep_ab = solve_epsilon_geodesic(p, a, b, cfg)
    ba, rep_ba = solve_epsilon_geodesic(p, b, a, cfg)
    assert np.max(np.abs(ab.phi - ba.phi[:, ::-1])) <= 1e-13
    assert rep_ba.max_second_derivative == pytest.approx(
        rep_ab.max_second_derivative, rel=1e-12)


@pytest.mark.parametrize("n,k", LEBRUN_BUNDLES)
def test_kahler_class_scaling_scales_phi(n, k):
    # LeBrun's phi(tau) is homogeneous of degree 1 in (tau, tau_min), so
    # tau_min -> lam tau_min shifts rho by log lam; M (w')^{n-1} then scales
    # as lam^{n+1} and (u')^{n-1} u'' as lam^n, and with the amplitudes and
    # epsilon scaled by lam, phi scales to lam phi (measured <= 5.8e-15)
    lam = 2.0
    cfg = near_zero_section_config(lebrun_profile(k, 1.0, n=n))
    shift = np.log(lam)
    scaled = replace(cfg, epsilon=lam * cfg.epsilon,
                     rho_min=cfg.rho_min + shift, rho_max=cfg.rho_max + shift)
    paths = []
    for scale, c in ((1.0, cfg), (lam, scaled)):
        p = lebrun_profile(k, scale, n=n)
        paths.append(solve_epsilon_geodesic(
            p, tau_power_potential(p, 0.08 * scale, 4.0),
            tau_power_potential(p, -0.05 * scale, 3.0), c))
    (g1, rep1), (g2, rep2) = paths
    assert np.max(np.abs(lam * g1.phi - g2.phi)) <= 1e-13
    assert rep2.max_second_derivative == pytest.approx(
        lam * rep1.max_second_derivative, rel=1e-12)


def test_grid_convergence_second_order():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    sols = {}
    for m in (17, 33, 65):
        cfg = SolverConfig(epsilon=0.5, n_rho=m, n_t=m)
        g, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
        sols[m] = g
    # nested nodes: coarse node i maps to fine node 4i (resp. 2i)
    ref = sols[65].phi[::4, ::4]
    e17 = np.max(np.abs(sols[17].phi - ref))
    e33 = np.max(np.abs(sols[33].phi - sols[65].phi[::2, ::2]))
    assert 4.0 * 0.55 <= e17 / e33  # at least near-second-order gain


def _eh_tau_power_config(n_rho, n_t):
    rho_min = float(EH.rho_of_tau(1.0 + 1e-4))
    return SolverConfig(epsilon=0.125, n_rho=n_rho, n_t=n_t, rho_min=rho_min,
                        rho_max=rho_min + 12.0, newton_tol=1e-9)


@pytest.mark.parametrize("n_rho,n_t", [(33, 33), (65, 45)])
def test_profile_inverted_a_fixed_number_of_times(monkeypatch, n_rho, n_t):
    calls = []
    inverse = RadialProfile.tau_of_rho

    def counted(self, rho):
        calls.append(np.size(rho))
        return inverse(self, rho)

    monkeypatch.setattr(RadialProfile, "tau_of_rho", counted)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                    _eh_tau_power_config(n_rho, n_t))
    assert sum(rep.stage_iterations) > len(rep.stage_iterations)
    # one for the background and one for psi1's jet in the solve's one
    # fixed data, which the boundary checks and the certificate read too
    assert calls == [n_rho] * 2


@pytest.mark.parametrize("case", ["eh", "flat"])
def test_fixed_data_built_once_per_solve(monkeypatch, case):
    # the coarse grid slices the grid's fixed data, and the certificate and
    # the C^{1,1} probe read it too; flat exp data run several stages on
    # both grids
    if case == "eh":
        profile, cfg = EH, _eh_tau_power_config(65, 45)
        psi1 = tau_power_potential(EH, 0.1, 4.0)
    else:
        profile, cfg = flat_profile(), SolverConfig(epsilon=0.25, n_rho=65,
                                                    n_t=45)
        psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    shapes, build = [], _FixedData.build

    def counted(grid):
        shapes.append(grid.phi.shape)
        return build(grid)

    monkeypatch.setattr(_FixedData, "build", staticmethod(counted))
    _, rep = solve_epsilon_geodesic(profile, zero_potential(), psi1, cfg)
    assert (33, 23) in rep.stage_shapes and len(rep.stage_shapes) >= 2
    assert shapes == [(65, 45)]


def test_fixed_data_is_read_only():
    # a solve shares one _FixedData between its stages, both grids and its
    # certificate, so no reader may write into it
    psi0 = exp_decay_potential(0.03, 4.0, rho_ref=RHO_MIN_EH)
    g = make_grid(EH, n_rho=9, n_t=7, psi0=psi0,
                  psi1=tau_power_potential(EH, 0.1, 4.0), epsilon=0.3)
    names = [f.name for f in fields(_FixedData) if f.name != "n"]
    for data in (g.fixed, g.every_other_node().fixed):
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[0] = 1.0


def test_path_grid_is_frozen():
    # the solver writes phi's values in place and reassigns no field, so a
    # grid's fixed data stay those of its own nodes and data
    g = make_grid(EH, n_rho=9, n_t=7)
    names = [f.name for f in fields(PathGrid)]
    assert "fixed" in names and "phi" in names
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, getattr(g, name))


def test_replaced_grid_builds_its_own_fixed_data():
    # dataclasses.replace builds the fixed data of the new fields, so no
    # grid carries stale fixed data
    g = make_grid(EH, n_rho=9, n_t=7, psi1=tau_power_potential(EH, 0.1, 4.0))
    other = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    replaced = replace(g, psi1=other)
    built = _FixedData.build(replaced)
    for f in fields(_FixedData):
        assert np.array_equal(getattr(replaced.fixed, f.name),
                              getattr(built, f.name))
    assert np.array_equal(replaced.fixed.psi1,
                          np.stack(other.jet(g.rho_nodes, 3), axis=1))
    assert not np.array_equal(replaced.fixed.psi1, g.fixed.psi1)


def test_every_other_node_grid_slices_the_fixed_data(monkeypatch):
    # the coarse grid of a sequenced solve: every other node, a phi of its
    # own, and the fine grid's fixed data sliced, not built again
    g = make_grid(EH, n_rho=9, n_t=7, psi1=tau_power_potential(EH, 0.1, 4.0))
    monkeypatch.setattr(_FixedData, "build", None)
    coarse = g.every_other_node()
    assert np.array_equal(coarse.rho_nodes, g.rho_nodes[::2])
    assert np.array_equal(coarse.t_nodes, g.t_nodes[::2])
    assert coarse.fixed.w1.shape == coarse.phi.shape == (5, 4)
    coarse.phi[:] = 1.0
    assert not g.phi.any()


def test_path_grid_nodes_are_read_only():
    # the fixed data describe the nodes the grid was made on, so the grid
    # keeps read-only copies: the caller's arrays stay writeable, and a
    # write to them reaches neither the grid's nodes nor its fixed data
    rho = np.linspace(RHO_MIN_EH, RHO_MIN_EH + 6.0, 9)
    t = np.linspace(0.0, 1.0, 7)
    g = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((9, 7)),
                 psi0=zero_potential(),
                 psi1=tau_power_potential(EH, 0.1, 4.0), background=EH,
                 epsilon=0.5)
    coarse = g.every_other_node()
    for nodes in (g.rho_nodes, g.t_nodes, coarse.rho_nodes, coarse.t_nodes):
        with pytest.raises(ValueError, match="read-only"):
            nodes[:] += 1.0
    assert rho.flags.writeable and t.flags.writeable
    before = rho.copy()
    rho += 1.0
    assert np.array_equal(g.rho_nodes, before)
    assert np.array_equal(g.fixed.u1, _FixedData.build(g).u1)


@pytest.mark.parametrize("case", ["eh", "flat"])
def test_reduced_residual_is_the_certified_residual(case):
    # the report's residual_sup and residual_raw_sup are max|G| of the
    # public residual at the grid's epsilon, normalized and not
    if case == "eh":
        profile, cfg = EH, _eh_tau_power_config(65, 45)
        psi1 = tau_power_potential(EH, 0.1, 4.0)
    else:
        profile = flat_profile()
        cfg = SolverConfig(epsilon=1 / 64, n_rho=65, n_t=65)
        psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    g, rep = solve_epsilon_geodesic(profile, zero_potential(), psi1, cfg)
    assert g.epsilon == cfg.epsilon
    assert rep.residual_sup == float(
        np.max(np.abs(reduced_residual(g, normalized=True))))
    assert rep.residual_raw_sup == float(np.max(np.abs(reduced_residual(g))))


def test_zero_data_stages_converge_at_first_iterate():
    cfg = SolverConfig(epsilon=0.1)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                    cfg)
    # the seed at s = epsilon is the exact solution: one stage on every
    # other node, then one on the grid
    assert len(cfg.schedule()) == 5
    assert rep.stage_values == [0.1, 0.1]
    assert rep.stage_shapes == [(33, 33), (65, 65)]
    assert rep.stage_iterations == [1, 1]


def test_predictor_leaving_the_cone_falls_back(monkeypatch):
    # data whose seed is elliptic only at s = 1, so the path has stages
    # after the first
    psi1 = exp_decay_potential(0.5, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=33, n_t=33)
    g_ref, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)

    predictions = []

    def non_elliptic(t, s, solved):
        phi = solved[-1][1].copy()
        phi[5, :] = 50.0  # destroys w'' at the neighbouring nodes
        predictions.append(phi)
        return phi

    monkeypatch.setattr(geodesic, "_secant_predictor", non_elliptic)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert len(predictions) == len(cfg.schedule()) - 1 == 2
    assert rep.stage_values == [1.0, 0.5, 0.25, 0.25]
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_ref.phi)) < 1e-9


def test_nonconvergence_carries_stage_and_history():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=17, n_t=17, max_iters=1)
    with pytest.raises(NonConvergence) as info:
        solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # the start at s = 1/4 fails too; the error is the s = 1 start's and
    # counts the factorizations of both starts
    assert info.value.stage == 1.0
    assert len(info.value.history) == 1
    assert info.value.history[0] > cfg.newton_tol
    assert info.value.stage_factorizations == [1, 1]


def test_singular_jacobian_raises_nonconvergence(monkeypatch):
    monkeypatch.setattr(geodesic, "_jacobian_band",
                        lambda coefs: _jacobian_band(np.zeros_like(coefs)))
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=17, n_t=17)
    with pytest.raises(NonConvergence) as info:
        solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert info.value.stage == 1.0
    assert len(info.value.history) == 1
    assert info.value.history[0] > cfg.newton_tol
    assert info.value.stage_factorizations == [1, 1]
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _counted_factorizations(monkeypatch):
    calls = []
    factor = geodesic.spsolve

    def counted(J, rhs):
        calls.append(J.shape)
        return factor(J, rhs)

    monkeypatch.setattr(geodesic, "spsolve", counted)
    return calls


def test_chord_steps_reuse_each_stage_factorization(monkeypatch):
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = _eh_tau_power_config(65, 45)
    g_tight, rep_tight = solve_epsilon_geodesic(
        EH, zero_potential(), psi1, replace(cfg, newton_tol=1e-11))
    assert rep_tight.residual_sup <= 1e-11

    calls = _counted_factorizations(monkeypatch)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert rep.residual_sup <= cfg.newton_tol
    assert len(calls) == sum(rep.stage_factorizations)
    # 11 iterations on 3 factorizations
    assert rep.stage_iterations == [6, 5]
    assert rep.stage_factorizations == [2, 1]
    assert np.max(np.abs(g.phi - g_tight.phi)) < 1e-9


def test_each_iterate_is_evaluated_once(monkeypatch):
    # a refactorization takes its Jacobian from the evaluation that
    # accepted the iterate, so the eh_energy solve, which never backtracks,
    # evaluates the field arrays once for each of its 6 iterates on every
    # other node, the first of them by the start-rung test, and 6 times on
    # the grid: its 5 iterates, the first of them evaluated by the hand-off
    # test, and the certificate (25 when the continuation started at s = 1)
    shapes = []
    field_arrays = geodesic._field_arrays

    def counted(grid):
        shapes.append(grid.phi.shape)
        return field_arrays(grid)

    monkeypatch.setattr(geodesic, "_field_arrays", counted)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                    _eh_tau_power_config(65, 45))
    assert rep.stage_iterations == [6, 5]
    assert rep.stage_factorizations == [2, 1]
    assert len(shapes) == 12
    assert shapes.count((33, 23)) == 6 and shapes.count((65, 45)) == 6


def test_pure_newton_refreshes_after_every_step(monkeypatch):
    monkeypatch.setattr(geodesic, "_CHORD_CONTRACTION", 0.0)
    calls = _counted_factorizations(monkeypatch)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                    _eh_tau_power_config(65, 45))
    assert rep.stage_iterations == [4, 3]
    assert rep.stage_factorizations == [3, 2]
    assert [i - 1 for i in rep.stage_iterations] == rep.stage_factorizations
    assert len(calls) == 5


def test_intermediate_stages_stop_at_the_stage_tolerance():
    # started at s = 1, whose stage stalls on this data near 1e-12 on every
    # other node and 5e-12 on the grid, a 5e-13 certificate needs that stage
    # stopped at _STAGE_TOL (the last stage reaches 8e-14)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = replace(_eh_tau_power_config(65, 45), newton_tol=5e-13)
    g, rep = _solve_from_s1(EH, zero_potential(), psi1, cfg)
    assert rep.residual_sup <= 5e-13
    assert rep.stage_values == [1.0, 0.5, 0.25, 0.125, 0.125]

    loose = replace(cfg, newton_tol=1e-9)
    g_loose, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, loose)
    assert np.max(np.abs(g.phi - g_loose.phi)) < 1e-9


def test_rejected_chord_step_refactors_and_converges(monkeypatch):
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = _eh_tau_power_config(33, 33)
    g_ref, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)

    events = []
    factor = geodesic.spsolve

    class UphillOnce:
        """An LU whose first chord solve points uphill."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            events.append("chord")
            return -x if events.count("chord") == 1 else x

    def spsolve(J, rhs):
        events.append("factor")
        x, lu = factor(J, rhs)
        return x, UphillOnce(lu)

    monkeypatch.setattr(geodesic, "spsolve", spsolve)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # the uphill chord step is rejected and refactored at the same iterate
    first = events.index("chord")
    assert events[first + 1] == "factor"
    assert events.count("factor") == sum(rep.stage_factorizations)
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_ref.phi)) < 1e-9


# ---------------------------------------------------------------------------
# grid sequencing
# ---------------------------------------------------------------------------

def test_prolong_is_exact_on_bicubics():
    coef = np.random.default_rng(3).standard_normal((4, 4))

    def bicubic(x, y):
        return np.polynomial.polynomial.polygrid2d(x, y, coef)

    x, y = np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 6)
    fine = bicubic(np.linspace(0.0, 2.0, 17), np.linspace(-1.0, 1.0, 11))
    prolonged = _prolong(bicubic(x, y))
    assert prolonged.shape == fine.shape
    assert np.max(np.abs(prolonged - fine)) < 1e-12 * np.max(np.abs(fine))


def test_coarse_fixed_data_is_every_other_row():
    # every other row of the rho columns, and every other node of the
    # (rho, t) arrays, is the fixed data built afresh on the coarse grid
    cfg = _eh_tau_power_config(65, 45)
    rho = np.linspace(cfg.rho_min, cfg.rho_max, cfg.n_rho)
    t = np.linspace(0.0, 1.0, cfg.n_t)
    fine = PathGrid(rho_nodes=rho, t_nodes=t, phi=np.zeros((65, 45)),
                    psi0=exp_decay_potential(0.03, 4.0, rho_ref=RHO_MIN_EH),
                    psi1=tau_power_potential(EH, 0.1, 4.0), background=EH,
                    epsilon=cfg.epsilon)
    coarse = replace(fine, rho_nodes=rho[::2], t_nodes=t[::2],
                     phi=np.zeros((33, 23)))
    sliced = _FixedData.build(fine).every_other_node()
    built = _FixedData.build(coarse)
    assert sliced.n == built.n == EH.n
    arrays = [f.name for f in fields(_FixedData) if f.name != "n"]
    assert arrays == ["u1", "u2", "u3", "psi0", "psi1", "density", "w1",
                      "w2", "P"]
    for name in arrays:
        a, b = getattr(sliced, name), getattr(built, name)
        assert a.shape == b.shape and a.shape[0] == 33
        assert np.array_equal(a, b)
    assert built.psi0.shape == built.psi1.shape == (33, 4)
    assert built.density.shape == built.P.shape == (33, 1)
    assert built.w1.shape == built.w2.shape == (33, 23)


@pytest.mark.parametrize("n_rho,n_t", [(65, 45), (129, 89)])
def test_fine_grid_solves_only_the_last_stage(n_rho, n_t):
    # the Newton counts do not depend on the mesh, so the continuation runs
    # on every other node and the grid factors one Jacobian, at s = epsilon
    # (here the continuation is s = epsilon alone)
    psi1 = tau_power_potential(EH, 0.1, 4.0)
    cfg = _eh_tau_power_config(n_rho, n_t)
    _, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    coarse = ((n_rho + 1) // 2, (n_t + 1) // 2)
    assert rep.stage_shapes == [coarse, (n_rho, n_t)]
    assert rep.stage_values == [cfg.epsilon] * 2
    assert rep.stage_factorizations == [2, 1]
    assert rep.residual_sup <= cfg.newton_tol


def test_failed_coarse_stage_is_absorbed(monkeypatch):
    # data whose seed is elliptic only at s = 1, so the coarse continuation
    # has a stage after its first
    psi1 = exp_decay_potential(0.5, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=33, n_t=33, newton_tol=1e-11)
    g_ref, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)

    second = cfg.schedule()[1]
    line_search = geodesic._line_search

    def failing(grid, s, *args):
        # no step is acceptable at the coarse grid's second stage
        if grid.phi.shape == (17, 17) and s == second:
            return None
        return line_search(grid, s, *args)

    monkeypatch.setattr(geodesic, "_line_search", failing)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    # the failed stage is reported; the grid goes on from s = 1
    assert rep.stage_shapes == [(17, 17)] * 2 + [(33, 33)] * 3
    assert rep.stage_values == [1.0, 0.5, 1.0, 0.5, 0.25]
    assert rep.stage_iterations[1] == rep.stage_factorizations[1] == 1
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_ref.phi)) < 1e-10


def test_failed_start_falls_back_to_s1(monkeypatch):
    line_search = geodesic._line_search
    seen = set()

    def failing(grid, s, *args):
        # no step is acceptable on the coarse grid at the start rung, s = 1/8,
        # until the fallback start at s = 1 has run
        seen.add(s)
        if grid.phi.shape == (33, 23) and seen == {0.125}:
            return None
        return line_search(grid, s, *args)

    monkeypatch.setattr(geodesic, "_line_search", failing)
    # the failed start is logged; the solve starts again at s = 1 and is the
    # s = 1 path bit for bit
    _, rep = _eh_energy_solve(EH, "s1")
    assert rep.stage_values == [0.125, 1.0, 0.5, 0.25, 0.125, 0.125]
    assert rep.stage_shapes == [(33, 23)] * 5 + [(65, 45)]
    assert rep.stage_iterations == [1, 6, 5, 4, 4, 5]
    assert rep.stage_factorizations == [1, 2, 2, 1, 1, 1]
    assert rep.residual_sup <= 1e-9


def test_flat_data_hands_off_before_epsilon():
    # the seed is elliptic from s = 1/2 on; the prolonged solutions at
    # s = 1/32 and 1/64 leave the ellipticity cone on this grid, so the grid
    # takes over at s = 1/16
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=1.0 / 64.0, n_rho=65, n_t=65)
    _, rep = solve_epsilon_geodesic(flat_profile(), zero_potential(), psi1,
                                    cfg)
    assert rep.stage_shapes == [(33, 33)] * 6 + [(65, 65)] * 3
    assert rep.stage_values == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625,
                                0.0625, 0.03125, 0.015625]
    assert rep.residual_sup <= cfg.newton_tol


# ---------------------------------------------------------------------------
# the start rung
# ---------------------------------------------------------------------------

def test_seed_elliptic_only_at_s1_takes_the_s1_path():
    # max P^2 / w'' is near 0.63 on this data, above every rung but s = 1
    psi1 = exp_decay_potential(0.5, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=33, n_t=33)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    g_s1, rep_s1 = _solve_from_s1(EH, zero_potential(), psi1, cfg)
    assert rep.stage_values == rep_s1.stage_values == [1.0, 0.5, 0.25, 0.25]
    assert np.array_equal(g.phi, g_s1.phi)
    for name in ("stage_iterations", "stage_factorizations", "residual_sup"):
        assert getattr(rep, name) == getattr(rep_s1, name)


# (profile, psi1 kind) of each scenario, and the factorizations of its
# solves at epsilon = 1/4 and 1/32 on 33x33 when every solve started at s = 1
_START_SCENARIOS = {
    "burns-tau": (lebrun_profile(1, 1.0), "tau_power", (4, 7)),
    "k3-tau": (lebrun_profile(3, 1.0), "tau_power", (4, 7)),
    "flat-exp": (flat_profile(), "exp", (6, 14)),
    "eh-exp": (EH, "exp", (4, 7)),
    "eh-tau": (EH, "tau_power", (4, 7)),
}


@pytest.mark.parametrize("eps_index", [0, 1], ids=["eps-1/4", "eps-1/32"])
@pytest.mark.parametrize("name", sorted(_START_SCENARIOS))
def test_start_rung_scenarios(name, eps_index):
    profile, kind, parent_factorizations = _START_SCENARIOS[name]
    psi1 = (tau_power_potential(profile, 0.1, 4.0) if kind == "tau_power"
            else exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH))
    cfg = SolverConfig(epsilon=(0.25, 1.0 / 32.0)[eps_index], n_rho=33,
                       n_t=33)
    g, rep = solve_epsilon_geodesic(profile, zero_potential(), psi1, cfg)
    g_s1, rep_s1 = _solve_from_s1(profile, zero_potential(), psi1, cfg)
    assert sum(rep_s1.stage_factorizations) == parent_factorizations[eps_index]
    assert sum(rep.stage_factorizations) <= parent_factorizations[eps_index]
    assert rep.residual_sup <= cfg.newton_tol
    assert np.max(np.abs(g.phi - g_s1.phi)) <= 1e-13


def test_flat_data_start_with_one_more_coarse_factorization():
    # on grids of 65 rho nodes the s = 1/2 start costs flat data one more
    # coarse factorization than the s = 1 start: the s = 1/2 stage takes 3
    # from its seed (2 + 1 from s = 1), and s = 1/4, predicted by the shift
    # rather than the secant, takes 2; the grid's own stage takes 2 either way
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=65, n_t=45)
    g, rep = solve_epsilon_geodesic(flat_profile(), zero_potential(), psi1,
                                    cfg)
    g_s1, rep_s1 = _solve_from_s1(flat_profile(), zero_potential(), psi1, cfg)
    assert rep.stage_values == [0.5, 0.25, 0.25]
    assert rep.stage_factorizations == [3, 2, 2]
    assert rep_s1.stage_factorizations == [2, 1, 1, 2]
    assert rep.stage_iterations == [7, 5, 9]
    assert rep_s1.stage_iterations == [5, 8, 6, 9]
    assert np.max(np.abs(g.phi - g_s1.phi)) <= 1e-13


def test_nan_in_the_solved_phi_fails_the_certificate(monkeypatch):
    run_stages = geodesic._run_stages

    def nan_after(grid, *args):
        run_stages(grid, *args)
        if grid.phi.shape == (33, 33):
            grid.phi[5, 5] = np.nan

    monkeypatch.setattr(geodesic, "_run_stages", nan_after)
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    with pytest.raises(PositivityLoss, match="NaN"):
        solve_epsilon_geodesic(EH, zero_potential(), psi1,
                               SolverConfig(epsilon=0.5, n_rho=33, n_t=33))


def _refinement_orders(profile, psi1, config, sizes):
    """Observed orders from the sup-differences of successive solutions on
    the nodes of the coarsest grid; sizes double less one at each step."""
    phis = [solve_epsilon_geodesic(profile, zero_potential(), psi1,
                                   replace(config, n_rho=nr, n_t=nt))[0].phi
            for nr, nt in sizes]
    diffs = [np.max(np.abs(a[::2 ** i, ::2 ** i]
                           - b[::2 ** (i + 1), ::2 ** (i + 1)]))
             for i, (a, b) in enumerate(zip(phis, phis[1:]))]
    return [np.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]


def test_grid_refinement_is_second_order():
    nested = [(33, 17), (65, 33), (129, 65), (257, 129)]
    eh = _refinement_orders(EH, tau_power_potential(EH, 0.1, 4.0),
                            _eh_tau_power_config(33, 17), nested)
    assert all(1.8 <= p <= 2.2 for p in eh)  # measured 1.993, 1.998
    # flat data reach the asymptotic range later (measured 1.74, 1.95)
    flat = _refinement_orders(
        flat_profile(), exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH),
        SolverConfig(epsilon=0.5, newton_tol=1e-9), nested)
    assert 1.8 <= flat[-1] <= 2.2


# ---------------------------------------------------------------------------
# checks and sweeps
# ---------------------------------------------------------------------------

def test_c0_check_examples():
    g = make_grid(EH)
    t = g.t_nodes[None, :]
    g.phi[:] = 1.0 * t * (t - 1.0) / 2.0  # exact solution at eps = 1
    res = c0_bound_check(g)
    assert res.passed

    g.phi[:] = 0.0
    g.phi[:, g.t_nodes.size // 2] = 3.0  # t = 1/2 on odd-sized grid
    res = c0_bound_check(g)
    assert not res.passed
    assert res.min_slack == pytest.approx(-2.5, abs=1e-12)


def test_comparison_exact_pair():
    cfg_a = SolverConfig(epsilon=0.5)
    cfg_b = SolverConfig(epsilon=0.25)
    ga, _ = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                   cfg_a)
    gb, _ = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                   cfg_b)
    ok, worst = comparison_check(ga, gb)
    assert ok
    mid = ga.t_nodes.size // 2
    assert ga.phi[0, mid] == pytest.approx(-0.0625, abs=1e-9)
    assert gb.phi[0, mid] == pytest.approx(-0.03125, abs=1e-9)
    ok_same, _ = comparison_check(ga, ga)
    assert ok_same


def test_comparison_nontrivial_pair():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    ga, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                   SolverConfig(epsilon=0.5))
    gb, _ = solve_epsilon_geodesic(EH, zero_potential(), psi1,
                                   SolverConfig(epsilon=0.125))
    ok, worst = comparison_check(ga, gb, tol=1e-10)
    assert ok
    with pytest.raises(ValueError):
        comparison_check(gb, ga)


def test_epsilon_sweep_uniformity_and_cauchy():
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    eps = [2.0 ** -m for m in range(7)]
    for p in (flat_profile(), EH):
        sweep = epsilon_sweep(p, zero_potential(), psi1,
                              eps, SolverConfig(epsilon=0.25))
        sd = np.array(sweep["max_second_derivative"])
        assert sd.max() <= 2.0 * np.median(sd)
        # Cauchy differences shrink with epsilon
        assert all(b < a for a, b in zip(sweep["cauchy"],
                                         sweep["cauchy"][1:]))


def test_max_second_derivative_is_reported(tmp_path):
    psi0 = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=17, n_t=17)
    g, rep = solve_epsilon_geodesic(EH, psi0, psi1, cfg)
    # Phi_rr = Psi'' + phi_rr and the mixed Phi_rt = psi1' - psi0' + phi_rt
    # at the nodes where both centered differences reach
    _, a1, a2 = psi0.jet(g.rho_nodes, 2)
    _, b1, b2 = psi1.jet(g.rho_nodes, 2)
    t, phi, hr, ht = g.t_nodes, g.phi, g.h_rho, g.h_t
    Phi_rr = (np.outer(a2, 1.0 - t) + np.outer(b2, t))[1:-1] + (
        phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / hr ** 2
    Phi_rt = (b1 - a1)[1:-1, None] + (
        phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:] + phi[:-2, :-2]) / (
            4.0 * hr * ht)
    expected = max(np.max(np.abs(Phi_rr)), np.max(np.abs(Phi_rt)))
    assert rep.max_second_derivative == pytest.approx(expected, rel=1e-12)
    sweep = epsilon_sweep(EH, psi0, psi1, [0.25], cfg)
    assert sweep["max_second_derivative"] == [rep.max_second_derivative]
    exp = lambda p: {"kind": "exp", "params": p.params}
    m = run_scenario(Scenario.from_dict({
        "id": "probe", "geometry": {"k": 2, "tau_min": 1.0},
        "boundary": {"psi0": exp(psi0), "psi1": exp(psi1)},
        "solver": {"epsilon": 0.25, "grid": {"n_rho": 17, "n_t": 17}},
        "out_dir": str(tmp_path)}))
    details = m.checks["solve"]["details"]
    assert details["max_second_derivative"] == rep.max_second_derivative


def _reference_max_second_derivative(grid):
    """The C^{1,1} probe as an older _max_second_derivative took it: phi's
    differences of its own, over every t column."""
    t, fixed = grid.t_nodes[None, :], grid.fixed
    hr, ht, phi = grid.h_rho, grid.h_t, grid.phi
    Psi_rr = (1 - t) * fixed.psi0[:, 2:3] + t * fixed.psi1[:, 2:3]
    phi_rr = (phi[:-2, :] - 2 * phi[1:-1, :] + phi[2:, :]) / hr ** 2
    phi_rt = (phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:]
              + phi[:-2, :-2]) / (4 * hr * ht)
    return float(max(np.max(np.abs(phi_rr + Psi_rr[1:-1, :])),
                     np.max(np.abs(fixed.P[1:-1] + phi_rt))))


@pytest.mark.parametrize("case", ["eh-exp", "burns", "flat", "n3"])
def test_probe_reads_the_certificate_evaluation(case):
    # the probe takes phi_rr and P from the certificate's field arrays and
    # is bit for bit the probe that took its own differences of phi
    psi0 = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.25, n_rho=17, n_t=13)
    profile = {"eh-exp": EH, "burns": lebrun_profile(1, 1.0),
               "flat": flat_profile(), "n3": lebrun_profile(3, 1.0, n=3)}[case]
    if case == "burns":
        psi0, psi1 = zero_potential(), tau_power_potential(profile, 0.08, 4.0)
    g, rep = solve_epsilon_geodesic(profile, psi0, psi1, cfg)
    assert rep.max_second_derivative == _reference_max_second_derivative(g)
    # it reads no phi: only the field arrays and the fixed data
    _, arrays = _residual(g, g.epsilon)
    g.phi[:] = np.nan
    assert geodesic._max_second_derivative(
        g, arrays[5], arrays[2]) == rep.max_second_derivative


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    sched = SolverConfig(epsilon=0.1).schedule()
    assert sched[0] == 1.0 and sched[-1] == 0.1
    assert all(a > b for a, b in zip(sched, sched[1:]))
    assert SolverConfig(epsilon=1.0).schedule() == [1.0]


@pytest.mark.parametrize("field,value", [
    ("n_rho", 17.5), ("n_t", "17"), ("max_iters", True), ("epsilon", "0.5"),
    ("newton_tol", None), ("rho_min", "0"), ("rho_max", [1.0])])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        SolverConfig(**{"epsilon": 0.5, field: value})
    # numpy scalars are numbers too
    cfg = SolverConfig(epsilon=np.float64(0.5), n_rho=np.int64(17), n_t=17,
                       rho_min=np.float64(0.0), rho_max=4)
    assert cfg.rho_nodes(EH).shape == (17,)


@pytest.mark.parametrize("n_rho,n_t", [(65, 2), (2, 65), (0, 0)])
def test_config_rejects_fewer_than_three_nodes(n_rho, n_t):
    with pytest.raises(ValueError, match="n_rho >= 3 and n_t >= 3"):
        SolverConfig(epsilon=0.5, n_rho=n_rho, n_t=n_t)


def test_three_nodes_each_way_solve():
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), zero_potential(),
                                    SolverConfig(epsilon=0.5, n_rho=3, n_t=3))
    assert g.phi.shape == (3, 3)
    assert rep.residual_sup <= 1e-11


@pytest.mark.parametrize("psi1", [
    zero_potential(), exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)],
    ids=["zero", "exp"])
@pytest.mark.parametrize("interval", [
    {"rho_min": RHO_MIN_EH + 6.0, "rho_max": RHO_MIN_EH},
    {"rho_min": RHO_MIN_EH, "rho_max": RHO_MIN_EH},
    # below the rho_min resolved from the profile, rho(2 tau_min)
    {"rho_max": RHO_MIN_EH - 1.0}],
    ids=["reversed", "empty", "below-default-rho-min"])
def test_reversed_rho_interval_rejected(psi1, interval):
    # an input error, not BoundaryInconsistency or a zero-data "solve"
    cfg = SolverConfig(epsilon=0.5, n_rho=17, n_t=17, **interval)
    with pytest.raises(ValueError, match="rho_min < rho_max"):
        solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)


def test_nondecaying_boundary_data_rejected():
    with pytest.raises(BoundaryInconsistency):
        solve_epsilon_geodesic(EH, zero_potential(), constant_potential(0.3),
                               SolverConfig(epsilon=0.5))


def test_nonpositive_boundary_metric_rejected():
    bad = exp_decay_potential(-50.0, 4.0, rho_ref=RHO_MIN_EH)
    with pytest.raises(BoundaryInconsistency):
        solve_epsilon_geodesic(EH, zero_potential(), bad,
                               SolverConfig(epsilon=0.5))


@pytest.mark.parametrize("gamma", [0.3, 0.49])
def test_slowly_decaying_boundary_data_rejected(gamma):
    # the check reads the decay r^-gamma that the data declare
    psi1 = exp_decay_potential(0.1, gamma, rho_ref=RHO_MIN_EH)
    with pytest.raises(BoundaryInconsistency, match=f"r_decay = {gamma}"):
        solve_epsilon_geodesic(EH, zero_potential(), psi1,
                               SolverConfig(epsilon=0.5))
    # r^-1/2 itself is decay enough
    g = make_grid(EH, psi1=exp_decay_potential(0.1, 0.5, rho_ref=RHO_MIN_EH))
    geodesic._check_boundary_data(g, "psi1")


@pytest.mark.parametrize("m", [5, 7])
def test_boundary_data_on_grids_too_small_for_a_decay_fit(m):
    # the declared decay needs no samples, so EH exp data on a 5x5 or 7x7
    # grid (fewer rho nodes than a decay fit's 8) solve to the certificate
    psi1 = exp_decay_potential(0.1, 4.0, rho_ref=RHO_MIN_EH)
    cfg = SolverConfig(epsilon=0.5, n_rho=m, n_t=m)
    g, rep = solve_epsilon_geodesic(EH, zero_potential(), psi1, cfg)
    assert g.phi.shape == (m, m)
    assert rep.residual_sup <= cfg.newton_tol


def test_boundary_check_fits_no_decay(monkeypatch):
    # a solve with nonzero data at both ends calls fit_decay_exponent
    # nowhere, and geodesic does not import analysis
    calls = []
    for name, module in list(sys.modules.items()):
        fit = getattr(module, "fit_decay_exponent", None)
        if name.startswith("alegeo") and fit is not None:
            monkeypatch.setattr(module, "fit_decay_exponent",
                                lambda *a, _fit=fit, **k: calls.append(a)
                                or _fit(*a, **k))
    psi = exp_decay_potential(0.05, 4.0, rho_ref=RHO_MIN_EH)
    _, rep = solve_epsilon_geodesic(EH, psi, psi, SolverConfig(
        epsilon=0.5, n_rho=17, n_t=17))
    assert rep.residual_sup <= 1e-11
    assert calls == []
    tree = ast.parse(Path(geodesic.__file__).read_text())
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None)]
                + [alias.name for alias in node.names]}
    assert not {"analysis", "alegeo.analysis"} & imported
