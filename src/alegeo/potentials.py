"""Radial boundary potentials for the geodesic endpoints.

A potential is a smooth function of rho that yields its jet, the values
and analytic rho-derivatives up to fourth order, from one evaluation (the
energy quadratures need three spatial derivatives of the perturbed Kahler
potential); data given in tau invert the profile once and hand their
tau-derivatives to the chain rule ``RadialProfile.rho_jet``.  Decay is
parameterized by the exponent gamma in r-coordinates:
psi ~ r^{-gamma} = exp(-gamma * rho / 2).
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
    _jet: Callable = field(repr=False, compare=False, default=None)

    def jet(self, rho, order):
        """[psi, psi', ..., psi^(order)] at rho, from one evaluation."""
        if not 0 <= order <= 4:
            raise ValueError(f"derivative order must be in 0..4, got {order}")
        return self._jet(np.asarray(rho, dtype=float), order)

    def __call__(self, rho, order=0):
        return self.jet(rho, order)[order]

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
    def jet(rho, order):
        return [np.zeros_like(rho) for _ in range(order + 1)]

    return RadialPotential(kind="zero", params={}, _jet=jet)


def exp_decay_potential(amplitude: float, gamma: float,
                        rho_ref: float = 0.0) -> RadialPotential:
    """psi(rho) = amplitude * exp(-gamma (rho - rho_ref) / 2), decay r^-gamma."""
    if gamma <= 0:
        raise ValueError(f"decay exponent gamma must be > 0, got {gamma}")
    a, g, r0 = float(amplitude), float(gamma), float(rho_ref)
    c = -g / 2.0

    def jet(rho, order):
        e = np.exp(c * (rho - r0))
        return [a * c ** m * e for m in range(order + 1)]

    return RadialPotential(
        kind="exp", params={"amplitude": a, "gamma": g, "rho_ref": r0},
        _jet=jet)


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
    # d^m/dtau^m tau^-gg = coef[m] tau^(-gg-m)
    coef = np.cumprod([1.0, -gg, -gg - 1.0, -gg - 2.0, -gg - 3.0])

    def jet(rho, order):
        tau = profile.tau_of_rho(rho)
        f = [scale * coef[m] * tau ** (-gg - m) for m in range(order + 1)]
        return profile.rho_jet(tau, f, order)

    return RadialPotential(
        kind="tau_power",
        params={"amplitude": a, "gamma": g, "k": profile.k,
                "tau_min": profile.tau_min},
        _jet=jet)


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
