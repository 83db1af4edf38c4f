from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alegeo.profiles import lebrun_profile, ricci_eigenvalues
from alegeo.toric import (
    IntersectionReport,
    intersection_numbers,
    mixed_type_certificate,
    representative_integral_oracle,
    wedge_integral_oracle,
)


# ---------------------------------------------------------------------------
# exact table
# ---------------------------------------------------------------------------

def test_pairwise_table():
    t = intersection_numbers(2, 3)
    assert t["d0.d0"] == Fraction(-3)
    assert t["d0.df"] == Fraction(1)
    assert t["df.df"] == Fraction(0)
    assert t["d0.dinf"] == Fraction(0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_powers(n, k):
    t = intersection_numbers(n, k)
    assert t["d0_power"] == Fraction(-k) ** (n - 1)
    assert t["d0_power_df"] == Fraction(-k) ** (n - 2)


def test_table_examples():
    assert intersection_numbers(3, 1)["d0_power"] == 1
    assert intersection_numbers(2, 2)["d0_power_df"] == 1


def test_table_validation():
    with pytest.raises(ValueError):
        intersection_numbers(1, 1)
    with pytest.raises(ValueError):
        intersection_numbers(2, 0)


# ---------------------------------------------------------------------------
# mixed-type certificate
# ---------------------------------------------------------------------------

def test_certificate_surface_values():
    c = mixed_type_certificate(2, 1)
    assert c["d0_ricci"] == Fraction(1)       # 2 - k with k = 1
    assert c["df_ricci"] == Fraction(-1)      # (k - 2)/k with k = 1
    assert c["opposite_signs"]
    c = mixed_type_certificate(2, 3)
    assert c["d0_ricci"] == Fraction(-1)
    assert c["df_ricci"] == Fraction(1, 3)


def test_certificate_k_equals_n():
    c = mixed_type_certificate(2, 2)
    assert c["d0_ricci"] == 0 and c["df_ricci"] == 0
    assert not c["opposite_signs"]
    assert c["ratio"] is None


def test_certificate_ratio():
    c = mixed_type_certificate(3, 1)
    assert c["opposite_signs"]
    assert c["ratio"] == Fraction(-1, 1)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_certificate_soundness(n, k):
    c = mixed_type_certificate(n, k)
    assert c["opposite_signs"] == (k != n)
    if k != n:
        assert c["d0_ricci"] * c["df_ricci"] < 0
    else:
        assert c["d0_ricci"] == c["df_ricci"] == 0
    if c["ratio"] is not None:
        assert c["ratio"] == Fraction(-1, k)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_reproduces_table(n, k):
    t = intersection_numbers(n, k)
    for which, target in (("d0_power", t["d0_power"]),
                          ("d0_power_df", t["d0_power_df"]),
                          ("restricted_d0", t["d0_power"])):
        res = representative_integral_oracle(n, k, which)
        assert res["value"] == pytest.approx(float(target), rel=0.01)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_linearity_dinf(k):
    # Dinf = D0 + k Df in cohomology, so wedge integrals expand linearly
    lhs = wedge_integral_oracle(2, k, ("dinf", "df"))
    rhs = (wedge_integral_oracle(2, k, ("d0", "df"))
           + k * wedge_integral_oracle(2, k, ("df", "df")))
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs == pytest.approx(1.0, abs=1e-6)  # Dinf.Df = D0.Df = 1
    dinf2 = wedge_integral_oracle(2, k, ("dinf", "dinf"))
    assert dinf2 == pytest.approx(k, rel=1e-6)  # -k + 2k


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        representative_integral_oracle(4, 1, "d0_power")
    with pytest.raises(ValueError):
        representative_integral_oracle(2, 1, "nonsense")
    with pytest.raises(ValueError):
        wedge_integral_oracle(2, 1, ("d0",))


# ---------------------------------------------------------------------------
# cross-module coherence and report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 3])
def test_certificate_sign_matches_ricci_scan(k):
    cert = mixed_type_certificate(2, k)
    p = lebrun_profile(k, 1.0)
    rb, _ = ricci_eigenvalues(p, 1.0 + 1e-3)
    assert np.sign(float(cert["d0_ricci"])) == np.sign(rb)


def test_report_round_trip():
    rep = IntersectionReport.build(2, 3, with_oracle=True)
    doc = rep.to_json_dict()
    assert doc["table"]["d0.d0"] == {"num": -3, "den": 1}
    assert doc["certificate"]["opposite_signs"] is True
    assert doc["oracle"]["d0_power"]["value"] == pytest.approx(-3.0, rel=0.01)
    assert doc["oracle"]["d0_power"]["error"] < 0.005 * 3
