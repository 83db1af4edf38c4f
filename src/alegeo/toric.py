"""Divisor intersection arithmetic on the fiberwise compactification of
O(-k) over CP^{n-1}, plus a quadrature oracle over explicit representatives.

The compactified space carries three distinguished divisors: the zero
section D0, a fiber Df over a hyperplane of the base, and the infinity
section Dinf = D0 + k*Df in cohomology.  The exact table lives in the
rational numbers; the oracle integrates wedge powers of closed (1,1)-form
representatives over the chart covering the zero section, reduced to a 2D
integral by the U(n-1) x U(1) symmetry:

    h_f   = log(1 + q)                 (pullback of the base hyperplane class)
    h_inf = log((1 + q)^k v + 1)       (infinity section)
    h_0   = h_inf - k h_f              (zero section)

with q the base |u|^2 and v the fiber |w|^2.  Forms are (1/2pi) i ddbar h,
normalized so the hyperplane class integrates to 1.

At (sqrt(q), 0, ..., 0, sqrt(v)) each Hessian is a 2x2 block [[a, c], [c, b]]
on the radial and fiber directions plus d on the n - 2 tangent directions:
a = h_q + q h_qq, b = h_v + v h_vv, c = h_qv sqrt(qv), d = h_q.  For that
shape the mixed discriminant of n Hessians, normalized so that equal
arguments give det = d^{n-2} (ab - c^2), is a sum over pairs:

    D = sum_{i<j} [(a_i b_j + a_j b_i)/2 - c_i c_j] prod_{l!=i,j} d_l / C(n,2)

The fiber integrand lives at the scale v ~ (1+q)^-k, so the oracle works in
the chart (q, s) with v = s/(1+q)^k, dv = ds/(1+q)^k, where (1+q)^k v + 1 is
1 + s.  With p = 1 + q and sigma = s/(1+s), each entry is a q-column times
an s-row, or a sum of a few such products, built from one column of q
nodes and one row of s nodes:

    df:    a = 1/p^2, b = c = 0, d = 1/p
    dinf:  a = k sigma/p + q k(k-1) sigma/p^2 - q k^2 sigma^2/p^2,
           b = p^k/(1+s)^2, c = k p^(k/2-1) sqrt(qs)/(1+s)^2, d = k sigma/p
    d0:    dinf - k df: a - k/p^2, the same b and c, d = -k/(p(1+s))

The integrals run on tensor Gauss-Legendre rules mapped to the half line, at
ORACLE_NODES and ORACLE_NODES_COARSE, for any n >= 2; their difference is
the error estimate, bounded by MAX_ORACLE_ERROR.  Each rule is built once
per process, on first use, and is read-only.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .profiles import check_bundle

__all__ = ["IntersectionReport", "intersection_numbers",
           "mixed_type_certificate", "representative_integral_oracle",
           "wedge_integral_oracle"]

FORM_NORMALIZATION = 1.0 / (2.0 * math.pi)
ORACLE_NODES = 120
ORACLE_NODES_COARSE = 80
MAX_ORACLE_ERROR = 0.005


def intersection_numbers(n: int, k: int) -> dict:
    """Exact intersection table as rationals.

    Keys: pairwise products of D0, Df, Dinf plus the top powers
    int_{D0} rho0^{n-1} and int rho0^{n-1} ^ rho_f, all derived from
    D0.D0 = -k on the base curve class and Dinf = D0 + k Df.
    """
    check_bundle(n, k)
    kq = Fraction(k)
    table = {
        "d0.d0": -kq,
        "d0.df": Fraction(1),
        "df.df": Fraction(0),
        "d0.dinf": -kq + kq * 1,  # D0.(D0 + k Df) = -k + k
        "d0_power": (-kq) ** (n - 1),          # int_{D0} rho0^{n-1}
        "d0_power_df": (-kq) ** (n - 2),       # int rho0^{n-1} ^ rho_f
    }
    return table


def mixed_type_certificate(n: int, k: int) -> dict:
    """Signs of the canonical-class pairings against D0 and Df.

    The canonical class is proportional to (n-k)/k times the zero section,
    which makes the two pairings ((n-k)^{n-1}, -(n-k)^{n-1}/k).  They carry
    opposite signs exactly when k != n; for k = n both vanish and no sign
    obstruction exists.
    """
    check_bundle(n, k)
    d0_pairing = Fraction(n - k) ** (n - 1)
    df_pairing = -d0_pairing / k
    ratio = None if d0_pairing == 0 else df_pairing / d0_pairing
    return {
        "d0_ricci": d0_pairing,
        "df_ricci": df_pairing,
        "opposite_signs": d0_pairing * df_pairing < 0,
        "ratio": ratio,  # always -1/k when defined
    }


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

@functools.cache
def _half_line_rule(nodes):
    """Gauss-Legendre nodes and weights on (0, inf) through q = x/(1-x).

    Built on first use and shared for the life of the process, so both
    arrays are read-only.
    """
    x, wx = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (x + 1.0)
    q, wq = x / (1.0 - x), 0.5 * wx / (1.0 - x) ** 2
    q.flags.writeable = False
    wq.flags.writeable = False
    return q, wq


def _hessian_blocks(label, q, s, k):
    """Hessian entries (a, b, c, d) of the labeled potential at (q, s): on
    the tensor grid for a column q and a row s, pointwise for equal shapes."""
    p = 1.0 + q
    if label == "df":
        return 1.0 / p ** 2, 0.0, 0.0, 1.0 / p  # a = h_q + q h_qq = h_q^2
    if label not in ("dinf", "d0"):
        raise ValueError(f"unknown representative {label!r}")
    t = 1.0 / (1.0 + s)
    sigma = s * t
    b = p ** k * t ** 2
    c = k * p ** (0.5 * k - 1.0) * np.sqrt(q) * (np.sqrt(s) * t ** 2)
    a = k / p * sigma + k * q / p ** 2 * ((k - 1) * sigma - k * sigma ** 2)
    if label == "dinf":
        return a, b, c, k / p * sigma
    return a - k / p ** 2, b, c, -k / p * t  # d0 = dinf - k df


def _mixed_determinant(entries, labels):
    """Mixed discriminant of the Hessians entries[x] (a, b, c, d), x in labels:
    with m_x copies of x, the pairs are C(m_x, 2) within x, m_x m_y across."""
    counts = collections.Counter(labels)
    total = 0.0
    for x, y in itertools.combinations_with_replacement(counts, 2):
        pairs = math.comb(counts[x], 2) if x == y else counts[x] * counts[y]
        if pairs:
            (a_x, b_x, c_x, _), (a_y, b_y, c_y, _) = entries[x], entries[y]
            rest = counts - collections.Counter((x, y))
            total = total + pairs * math.prod(
                (entries[l][3] ** m for l, m in rest.items()),
                start=0.5 * (a_x * b_y + a_y * b_x) - c_x * c_y)
    return total / math.comb(len(labels), 2)


def wedge_integral_oracle(n, k, labels, nodes=ORACLE_NODES) -> float:
    """int over the chart of the wedge of the n labeled representatives.

    The U(n-1) x U(1) symmetry collapses the integral to (q, s), a tensor
    grid of _half_line_rule.
    """
    check_bundle(n, k)
    if len(labels) != n:
        raise ValueError(f"need exactly n = {n} representative labels")
    q, wq = _half_line_rule(nodes)
    entries = {lab: _hessian_blocks(lab, q[:, None], q, k)
               for lab in set(labels)}
    md = _mixed_determinant(entries, labels)
    measure = math.pi ** n / math.factorial(n - 2) * q ** (n - 2)
    weight = (measure * wq / (1.0 + q) ** k)[:, None] * wq
    integral = float(np.sum(md * weight))
    return (FORM_NORMALIZATION ** n * math.factorial(n) * 2 ** n * integral)


def _restricted_d0_oracle(n, k, nodes=ORACLE_NODES) -> float:
    """int_{D0} rho0^{n-1}, integrated over the base chart C^{n-1}.

    On the zero section v = 0 the potential h0 collapses to -k log(1+q), so
    the restricted form is -k times the hyperplane form of the base.
    """
    m = n - 1
    q, wq = _half_line_rule(nodes)
    a, _, _, d = _hessian_blocks("d0", q, 0.0 * q, k)
    det = d ** (m - 1) * a
    measure = math.pi ** m / math.factorial(m - 1) * q ** (m - 1)
    integral = float(np.sum(det * measure * wq))
    return FORM_NORMALIZATION ** m * math.factorial(m) * 2 ** m * integral


def representative_integral_oracle(n, k, which) -> dict:
    """Numeric value of the requested wedge integral with an error estimate.

    which: "d0_power" (rho0^n), "d0_power_df" (rho0^{n-1} ^ rho_f) or
    "restricted_d0" (rho0^{n-1} over the zero section).
    """
    check_bundle(n, k)
    wedges = {"d0_power": ("d0",) * n,
              "d0_power_df": ("d0",) * (n - 1) + ("df",)}
    if which == "restricted_d0":
        run = functools.partial(_restricted_d0_oracle, n, k)
    elif which in wedges:
        run = functools.partial(wedge_integral_oracle, n, k, wedges[which])
    else:
        raise ValueError(f"unknown integral selector {which!r}")
    fine = run(ORACLE_NODES)
    coarse = run(ORACLE_NODES_COARSE)
    err = abs(fine - coarse)
    scale = max(abs(fine), 1.0)
    if err > MAX_ORACLE_ERROR * scale:
        raise ArithmeticError(
            f"oracle quadrature error {err:.2e} exceeds budget for ({n},{k},{which})")
    return {"value": fine, "error": err}


@dataclass(frozen=True)
class IntersectionReport:
    """Exact table, certificate and (optionally) oracle values for (n, k)."""

    n: int
    k: int
    table: dict
    certificate: dict
    oracle: dict = field(default_factory=dict)

    @classmethod
    def build(cls, n, k, with_oracle=False):
        table = intersection_numbers(n, k)
        cert = mixed_type_certificate(n, k)
        oracle = {}
        if with_oracle:
            for which in ("d0_power", "d0_power_df", "restricted_d0"):
                oracle[which] = representative_integral_oracle(n, k, which)
        return cls(n=n, k=k, table=table, certificate=cert, oracle=oracle)

    def to_json_dict(self):
        def enc(x):
            if isinstance(x, Fraction):
                return {"num": x.numerator, "den": x.denominator}
            return x
        return {
            "n": self.n, "k": self.k,
            "table": {key: enc(val) for key, val in self.table.items()},
            "certificate": {key: enc(val) for key, val in self.certificate.items()},
            "oracle": self.oracle,
        }
