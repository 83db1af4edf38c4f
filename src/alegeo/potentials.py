"""Radial boundary potentials for the geodesic endpoints.

A potential is a smooth function of rho with analytic derivatives up to
fourth order (the energy quadratures need three spatial derivatives of the
perturbed Kahler potential).  Decay is parameterized by the exponent gamma
in r-coordinates: psi ~ r^{-gamma} = exp(-gamma * rho / 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["RadialPotential", "zero_potential", "exp_decay_potential",
           "tau_power_potential", "potential_from_json"]


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential with derivatives in rho up to fourth order."""

    kind: str
    params: dict = field(default_factory=dict)
    _derivs: tuple = field(repr=False, compare=False, default=None)

    def __call__(self, rho, order=0):
        if not 0 <= order <= 4:
            raise ValueError(f"derivative order must be in 0..4, got {order}")
        return self._derivs[order](np.asarray(rho, dtype=float))

    @property
    def is_zero(self):
        return self.kind == "zero"

    @property
    def r_decay(self):
        """Nominal decay exponent in r, or None for the zero potential."""
        return self.params.get("gamma")

    def to_json_dict(self):
        return {"kind": self.kind,
                "params": {key: val for key, val in self.params.items()}}


def zero_potential() -> RadialPotential:
    z = lambda rho: np.zeros_like(rho)
    return RadialPotential(kind="zero", params={}, _derivs=(z, z, z, z, z))


def exp_decay_potential(amplitude: float, gamma: float,
                        rho_ref: float = 0.0) -> RadialPotential:
    """psi(rho) = amplitude * exp(-gamma (rho - rho_ref) / 2), decay r^-gamma."""
    if gamma <= 0:
        raise ValueError(f"decay exponent gamma must be > 0, got {gamma}")
    a, g, r0 = float(amplitude), float(gamma), float(rho_ref)
    c = -g / 2.0

    def make(order):
        return lambda rho: a * c ** order * np.exp(c * (rho - r0))

    return RadialPotential(
        kind="exp", params={"amplitude": a, "gamma": g, "rho_ref": r0},
        _derivs=tuple(make(m) for m in range(5)))


def tau_power_potential(profile, amplitude: float,
                        gamma: float) -> RadialPotential:
    """psi = amplitude * (tau_min/tau)^{gamma/2} as a function of rho.

    A smooth function of the momentum coordinate tau, so every
    rho-derivative carries a factor phi(tau) and vanishes at the zero
    section; this is the natural data class for energy quadratures on
    grids that extend close to tau_min.  Decay r^-gamma since tau ~ r^2.
    """
    if gamma <= 0:
        raise ValueError(f"decay exponent gamma must be > 0, got {gamma}")
    if profile.tau_min <= 0:
        raise ValueError("tau_power data needs a profile with tau_min > 0")
    a, g = float(amplitude), float(gamma)
    gg = g / 2.0
    scale = a * profile.tau_min ** gg

    def h(tau, m):
        coef = 1.0
        for i in range(m):
            coef *= (-gg - i)
        return scale * coef * tau ** (-gg - m)

    def d0(rho):
        return h(profile.tau_of_rho(rho), 0)

    def d1(rho):
        tau = profile.tau_of_rho(rho)
        return profile.phi(tau) * h(tau, 1)

    def d2(rho):
        tau = profile.tau_of_rho(rho)
        ph, p1 = profile.phi(tau), profile.phi_d1(tau)
        return ph * (p1 * h(tau, 1) + ph * h(tau, 2))

    def d3(rho):
        tau = profile.tau_of_rho(rho)
        ph, p1, p2 = (profile.phi(tau), profile.phi_d1(tau),
                      profile.phi_d2(tau))
        inner = p1 * h(tau, 1) + ph * h(tau, 2)
        d_inner = p2 * h(tau, 1) + 2.0 * p1 * h(tau, 2) + ph * h(tau, 3)
        return ph * (p1 * inner + ph * d_inner)

    def d4(rho):
        tau = profile.tau_of_rho(rho)
        ph, p1, p2, p3 = (profile.phi(tau), profile.phi_d1(tau),
                          profile.phi_d2(tau), profile.phi_d3(tau))
        inner = p1 * h(tau, 1) + ph * h(tau, 2)
        d_inner = p2 * h(tau, 1) + 2.0 * p1 * h(tau, 2) + ph * h(tau, 3)
        d2_inner = (p3 * h(tau, 1) + 3.0 * p2 * h(tau, 2)
                    + 3.0 * p1 * h(tau, 3) + ph * h(tau, 4))
        # d/drho = phi d/dtau applied to phi*(p1*inner + phi*d_inner)
        bracket = p1 * inner + ph * d_inner
        d_bracket = (p2 * inner + 2.0 * p1 * d_inner + ph * d2_inner)
        return ph * (p1 * bracket + ph * d_bracket)

    return RadialPotential(
        kind="tau_power",
        params={"amplitude": a, "gamma": g, "k": profile.k,
                "tau_min": profile.tau_min},
        _derivs=(d0, d1, d2, d3, d4))


def potential_from_json(doc, profile=None) -> RadialPotential:
    kind = doc.get("kind")
    if kind == "zero":
        return zero_potential()
    if kind == "exp":
        p = doc["params"]
        return exp_decay_potential(p["amplitude"], p["gamma"],
                                   rho_ref=p.get("rho_ref", 0.0))
    if kind == "tau_power":
        if profile is None:
            raise ValueError("tau_power potential needs the profile")
        p = doc["params"]
        return tau_power_potential(profile, p["amplitude"], p["gamma"])
    raise ValueError(f"unknown potential kind {kind!r}")
