"""Numerical laboratory for radial ALE Kahler metrics on line bundles over
projective space: curvature of momentum profiles, epsilon-geodesics between
radial potentials, K-energy convexity, divisor intersection arithmetic and
asymptotic analysis."""

__version__ = "0.6.0"

from .profiles import (  # noqa: F401
    RadialProfile,
    CurvatureSample,
    SignScanResult,
    lebrun_profile,
    flat_profile,
    custom_profile,
    sampled_profile,
    bump_perturbed_profile,
    metric_eigenvalues,
    ricci_eigenvalues,
    scalar_curvature,
    ricci_sign_scan,
)
