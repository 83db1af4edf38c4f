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
1 + s.  With p = 1 + q, t = 1/(1+s) and sigma = s t, each entry is a
q-column times an s-row, or a sum of two such products:

    df:    a = 1/p^2, b = c = 0, d = 1/p
    dinf:  a = k(1 + kq)/p^2 sigma t + k/p^2 sigma^2,
           b = p^k t^2, c = k p^(k/2-1) sqrt(q) sqrt(s) t^2, d = k/p sigma
    d0:    dinf - k df: a = k^2 q/p^2 sigma t - k/p^2 t,
           the same b and c, d = -k/p t

(dinf's a is k sigma/p + q k(k-1) sigma/p^2 - q k^2 sigma^2/p^2 regrouped
with sigma + t = 1, which leaves two positive terms.)  The weight is one
such product too: the measure over p^k times the q rule, times the s rule,
and the d powers of a pair term fold into it.  So for f = sum_i F_i S_i and
g = sum_j G_j T_j, with F, G over q and S, T over s,

    int f g w = sum_ij (sum_q F_i G_j w_q) (sum_s S_i T_j w_s),

two rank-by-rank matrix products.  A wedge integral costs O(rank^2 N) per
pair type for N nodes and builds no (q, s) array.

The integrals run on tensor Gauss-Legendre rules mapped to the half line, at
ORACLE_NODES and ORACLE_NODES_COARSE, for any n >= 2; their difference is
the error estimate, bounded by MAX_ORACLE_ERROR.  Each rule is built once
per process, on first use, and is read-only.  A report's oracle evaluates
each rule's d0 and df blocks once and reads all three of its entries off them.
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
    """Hessian entries (a, b, c, d) of the labeled potential in the chart
    (q, s), each as factors (Q, S) of shapes (r, q.size) and (r, s.size):
    the entry at (q_i, s_j) is sum_l Q[l, i] S[l, j], so Q.T @ S on the
    tensor grid.  The rank r is at most 2."""
    p = 1.0 + q
    if label == "df":
        one = np.ones((1, s.size))
        zero = np.empty((0, q.size)), np.empty((0, s.size))
        return (p[None] ** -2.0, one), zero, zero, (1.0 / p[None], one)
    if label not in ("dinf", "d0"):
        raise ValueError(f"unknown representative {label!r}")
    t = 1.0 / (1.0 + s)
    sigma = s * t
    p2 = p ** 2
    b = (p ** k)[None], (t ** 2)[None]
    c = ((k * np.sqrt(q) * p ** (0.5 * k - 1.0))[None],
         (np.sqrt(s) * t ** 2)[None])
    if label == "dinf":
        a = [k * (1.0 + k * q) / p2, k / p2], [sigma * t, sigma ** 2]
        d = (k / p)[None], sigma[None]
    else:  # d0 = dinf - k df
        a = [k * k * q / p2, -k / p2], [sigma * t, t]
        d = (-k / p)[None], t[None]
    return (np.array(a[0]), np.array(a[1])), b, c, d


def _mixed_determinant(entries, labels, product=None):
    """Mixed discriminant of the Hessians entries[x] = (a, b, c, d), x in
    labels: with m_x copies of x, the pairs are C(m_x, 2) within x and
    m_x m_y across, and each pair term is (a_x b_y + a_y b_x)/2 - c_x c_y
    (a_x b_x - c_x^2 within x) times the d powers of the other labels, rest.

    product(rest) is the bilinear map (f, g) -> f g prod_l d_l^{rest[l]};
    by default pointwise on arrays, and the oracle passes its integral.
    """
    if product is None:
        def product(rest):
            d = math.prod(entries[l][3] ** m for l, m in rest.items())
            return lambda f, g: f * g * d
    counts = collections.Counter(labels)
    total = 0.0
    for x, y in itertools.combinations_with_replacement(counts, 2):
        pairs = math.comb(counts[x], 2) if x == y else counts[x] * counts[y]
        if pairs:
            (a_x, b_x, c_x, _), (a_y, b_y, c_y, _) = entries[x], entries[y]
            fg = product(counts - collections.Counter((x, y)))
            ab = (fg(a_x, b_x) if x == y
                  else 0.5 * (fg(a_x, b_y) + fg(a_y, b_x)))
            total = total + pairs * (ab - fg(c_x, c_y))
    return total / math.comb(len(labels), 2)


def _chart_wedges(n, k, labels, nodes):
    """The Hessian blocks of labels on the rule of nodes, and the wedge
    integral of n of those labels over the chart: each pair term is q-sums
    times s-sums, and no (q, s) array is built."""
    q, wq = _half_line_rule(nodes)
    entries = {lab: _hessian_blocks(lab, q, q, k) for lab in labels}
    # the measure and dv = ds/(1+q)^k on the q side; the s side is wq
    weight_q = (math.pi ** n / math.factorial(n - 2) * q ** (n - 2)
                * wq / (1.0 + q) ** k)

    def integral(rest):
        w_q, w_s = weight_q, wq
        for lab, m in rest.items():
            (d_q,), (d_s,) = entries[lab][3]
            w_q, w_s = w_q * d_q ** m, w_s * d_s ** m
        return lambda f, g: np.vdot((f[0] * w_q) @ g[0].T,
                                    (f[1] * w_s) @ g[1].T)

    def wedge(wedge_labels):
        total = float(_mixed_determinant(entries, wedge_labels, integral))
        return FORM_NORMALIZATION ** n * math.factorial(n) * 2 ** n * total
    return entries, wedge


def wedge_integral_oracle(n, k, labels, nodes=ORACLE_NODES) -> float:
    """int over the chart of the wedge of the n labeled representatives:
    the U(n-1) x U(1) symmetry collapses it to a tensor (q, s) grid of
    _half_line_rule."""
    check_bundle(n, k)
    if len(labels) != n:
        raise ValueError(f"need exactly n = {n} representative labels")
    return _chart_wedges(n, k, set(labels), nodes)[1](labels)


def _oracle_values(n, k, nodes):
    """The three oracle integrals on the rule of nodes, from one set of d0
    and df blocks.  On D0 (s = 0: sigma = 0, t = 1) rho0 is -k times the
    base hyperplane form, with a = Q_a[1] = -k/p^2 and d = Q_d[0] = -k/p."""
    entries, wedge = _chart_wedges(n, k, ("d0", "df"), nodes)
    (a_q, _), _, _, (d_q, _) = entries["d0"]
    q, wq = _half_line_rule(nodes)
    m = n - 1
    measure = math.pi ** m / math.factorial(m - 1) * q ** (m - 1)
    restricted = float(np.sum(d_q[0] ** (m - 1) * a_q[1] * measure * wq))
    return {"d0_power": wedge(("d0",) * n),
            "d0_power_df": wedge(("d0",) * m + ("df",)),
            "restricted_d0": (FORM_NORMALIZATION ** m * math.factorial(m)
                              * 2 ** m * restricted)}


def representative_integral_oracle(n, k) -> dict:
    """{"value", "error"} of "d0_power" (rho0^n), "d0_power_df"
    (rho0^{n-1} ^ rho_f) and "restricted_d0" (rho0^{n-1} over D0)."""
    check_bundle(n, k)
    fine = _oracle_values(n, k, ORACLE_NODES)
    coarse = _oracle_values(n, k, ORACLE_NODES_COARSE)
    oracle = {}
    for which, value in fine.items():
        err = abs(value - coarse[which])
        if err > MAX_ORACLE_ERROR * max(abs(value), 1.0):
            raise ArithmeticError(f"oracle quadrature error {err:.2e} "
                                  f"exceeds budget for ({n},{k},{which})")
        oracle[which] = {"value": value, "error": err}
    return oracle


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
        table, cert = intersection_numbers(n, k), mixed_type_certificate(n, k)
        oracle = representative_integral_oracle(n, k) if with_oracle else {}
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
