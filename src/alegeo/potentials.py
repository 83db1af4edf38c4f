"""Radial boundary potentials for the geodesic endpoints.

A potential is a smooth function of rho that yields its jet, the values
and analytic rho-derivatives up to third order, from one evaluation (the
energy quadratures need three spatial derivatives of the perturbed Kahler
potential, and nothing reads a fourth); data given in tau invert the
profile once and hand their tau-derivatives to the chain rule
``RadialProfile.rho_jet``.  Decay is parameterized by the exponent gamma
in r-coordinates: psi ~ r^{-gamma} = exp(-gamma * rho / 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import check_keys, is_real

__all__ = ["RadialPotential", "zero_potential", "exp_decay_potential",
           "tau_power_potential", "potential_from_json",
           "check_potential_json"]


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential with derivatives in rho up to third order."""

    kind: str
    params: dict = field(default_factory=dict)
    _jet: Callable = field(repr=False, compare=False, default=None)

    def jet(self, rho, order):
        """[psi, psi', ..., psi^(order)] at rho, from one evaluation."""
        if not 0 <= order <= 3:
            raise ValueError(f"derivative order must be in 0..3, got {order}")
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
        return {"kind": self.kind, "params": dict(self.params)}


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
    coef = np.cumprod([1.0, -gg, -gg - 1.0, -gg - 2.0])

    def jet(rho, order):
        tau = profile.tau_of_rho(rho)
        f = [scale * coef[m] * tau ** (-gg - m) for m in range(order + 1)]
        return profile.rho_jet(tau, f, order)

    return RadialPotential(
        kind="tau_power",
        params={"amplitude": a, "gamma": g}, _jet=jet)


# the params of each potential kind: required, then optional
POTENTIAL_PARAMS = {"zero": ((), ()),
                    "exp": (("amplitude", "gamma"), ("rho_ref",)),
                    "tau_power": (("amplitude", "gamma"), ())}


def check_potential_json(doc, name="potential"):
    """The kind and params of a potential entry {"kind", "params"}; raises
    ValueError, naming the field, unless the kind is known and its params
    are the real numbers it takes."""
    check_keys(doc, name, ("kind", "params"), error=ValueError)
    kind = doc.get("kind")
    if kind not in POTENTIAL_PARAMS:
        raise ValueError(f"{name}.kind must be one of "
                         f"{list(POTENTIAL_PARAMS)}, got {kind!r}")
    required, optional = POTENTIAL_PARAMS[kind]
    params = doc.get("params", {})
    check_keys(params, f"{name}.params", required + optional, required,
               error=ValueError)
    for key, value in params.items():
        if not is_real(value):
            raise ValueError(f"{name}.params.{key} must be a real number, "
                             f"got {value!r}")
    return kind, params


def potential_from_json(doc, profile, name="potential") -> RadialPotential:
    """The potential an entry describes on profile, checked by
    check_potential_json first."""
    kind, params = check_potential_json(doc, name)
    if kind == "zero":
        return zero_potential()
    if kind == "exp":
        return exp_decay_potential(**params)
    return tau_power_potential(profile, **params)
