import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alegeo import toric
from alegeo.profiles import lebrun_profile, ricci_eigenvalues
from alegeo.toric import (
    IntersectionReport,
    _half_line_rule,
    _hessian_blocks,
    _mixed_determinant,
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
    # a bool is not a bundle: True used to give the k = 1 table
    for n, k in ((2, True), (True, 1), (2, 1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            IntersectionReport.build(n, k)


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

def _oracle_and_table(n, k):
    """(oracle result, exact value) for each entry; rho0^{n-1} over D0
    is D0^n."""
    t = intersection_numbers(n, k)
    oracle = representative_integral_oracle(n, k)
    for which, target in (("d0_power", t["d0_power"]),
                          ("d0_power_df", t["d0_power_df"]),
                          ("restricted_d0", t["d0_power"])):
        yield oracle[which], float(target)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_reproduces_table(n, k):
    for res, target in _oracle_and_table(n, k):
        assert res["value"] == pytest.approx(target, rel=0.01)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_reproduces_table_to_roundoff(n, k):
    # the quadrature converges far past the 1% bound above, which could
    # hide an algebra slip
    for res, target in _oracle_and_table(n, k):
        assert res["value"] == pytest.approx(target, rel=1e-10)
        assert res["error"] <= 1e-12


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_oracle_reproduces_table_past_n_3(n, k):
    for res, target in _oracle_and_table(n, k):
        assert res["value"] == pytest.approx(target, rel=1e-12)
        assert res["error"] <= 1e-12 * abs(target)


def _reference_hessian_blocks(label, q, v, k):
    """Entries (a, b, c, d) at (q, v) from the derivatives of h itself,
    with w = (1+q)^k v + 1 kept whole: the reference for the (q, s) forms."""
    if label == "df":
        h_q = 1.0 / (1.0 + q)
        zero = 0.0 * q
        return h_q ** 2, zero, zero, h_q  # a = h_q + q h_qq = h_q^2
    if label == "dinf":
        w = (1.0 + q) ** k * v + 1.0
        w_q = k * (1.0 + q) ** (k - 1) * v
        w_v = (1.0 + q) ** k
        w_qq = k * (k - 1) * (1.0 + q) ** (k - 2) * v
        w_qv = k * (1.0 + q) ** (k - 1)
        h_q = w_q / w
        h_v = w_v / w
        h_qv = w_qv / w - w_q * w_v / w ** 2
        return (h_q + q * (w_qq / w - h_q ** 2), h_v - v * h_v ** 2,
                h_qv * np.sqrt(q * v), h_q)
    inf = _reference_hessian_blocks("dinf", q, v, k)
    f = _reference_hessian_blocks("df", q, v, k)
    return tuple(x - k * y for x, y in zip(inf, f))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("label", ["df", "dinf", "d0"])
def test_hessian_entries_match_the_q_v_reference(label, k):
    q, _ = _half_line_rule(toric.ORACLE_NODES_COARSE)
    Q, S = np.meshgrid(q, q, indexing="ij")
    ref = _reference_hessian_blocks(label, Q, S / (1.0 + Q) ** k, k)
    got = [Q.T @ S for Q, S in _hessian_blocks(label, q, q, k)]
    for name, r, g in zip("abcd", ref, got):
        # relative to the entry's size at each q: the reference loses
        # digits to cancellation where an entry decays in s (b = h_v - v h_v^2)
        scale = np.max(np.abs(r), axis=1, keepdims=True)
        gap = np.abs(g - r)
        assert np.all(gap <= 1e-12 * scale), (name, np.max(gap / scale))


def _tensor_grid_oracle(n, k, labels, nodes):
    """The wedge integral summed over the (q, s) tensor grid: every entry
    as an N x N array, the pointwise mixed discriminant, np.sum(md * weight).
    The reference for the oracle's q-sums times s-sums."""
    q, wq = _half_line_rule(nodes)
    entries = {lab: tuple(Q.T @ S for Q, S in _hessian_blocks(lab, q, q, k))
               for lab in set(labels)}
    md = _mixed_determinant(entries, labels)
    measure = math.pi ** n / math.factorial(n - 2) * q ** (n - 2)
    weight = (measure * wq / (1.0 + q) ** k)[:, None] * wq
    integral = float(np.sum(md * weight))
    return (toric.FORM_NORMALIZATION ** n * math.factorial(n) * 2 ** n
            * integral)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_oracle_matches_the_tensor_grid_sum(n, k):
    for labels in (("d0",) * n, ("d0",) * (n - 1) + ("df",), ("dinf",) * n):
        for nodes in (toric.ORACLE_NODES, toric.ORACLE_NODES_COARSE):
            ref = _tensor_grid_oracle(n, k, labels, nodes)
            got = wedge_integral_oracle(n, k, labels, nodes)
            assert abs(got - ref) <= 1e-13 * abs(ref), (labels, nodes, got, ref)


def _reference_restricted_d0(n, k, nodes):
    """int_{D0} rho0^{n-1} from d0's whole entries evaluated at s = 0: the
    reference for reading them off the q factors."""
    m = n - 1
    q, wq = _half_line_rule(nodes)
    a, _, _, d = (Q.T @ S
                  for Q, S in _hessian_blocks("d0", q, np.zeros(1), k))
    det = (d ** (m - 1) * a)[:, 0]
    measure = math.pi ** m / math.factorial(m - 1) * q ** (m - 1)
    integral = float(np.sum(det * measure * wq))
    return (toric.FORM_NORMALIZATION ** m * math.factorial(m) * 2 ** m
            * integral)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shared_blocks_give_the_separate_integrals_bit_for_bit(n):
    # one set of d0 and df blocks per rule serves all three entries
    for k in range(1, 6):
        for nodes in (toric.ORACLE_NODES, toric.ORACLE_NODES_COARSE):
            got = toric._oracle_values(n, k, nodes)
            ref = {"d0_power": wedge_integral_oracle(n, k, ("d0",) * n, nodes),
                   "d0_power_df": wedge_integral_oracle(
                       n, k, ("d0",) * (n - 1) + ("df",), nodes),
                   "restricted_d0": _reference_restricted_d0(n, k, nodes)}
            assert {w: float.hex(v) for w, v in got.items()} == {
                w: float.hex(v) for w, v in ref.items()}, (k, nodes)


def test_wedge_integral_builds_no_grid_array():
    labels = ("d0", "d0", "df")
    wedge_integral_oracle(3, 2, labels)  # the shared rule is built here
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        wedge_integral_oracle(3, 2, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a quarter of one N x N float array
    assert peak < toric.ORACLE_NODES ** 2 * 8 / 4, peak


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
    # n = 3: Dinf^2.Df = D0^2.Df + 2k D0.Df^2 = -k + 2k
    lhs = wedge_integral_oracle(3, k, ("dinf", "dinf", "df"))
    rhs = (wedge_integral_oracle(3, k, ("d0", "dinf", "df"))
           + k * wedge_integral_oracle(3, k, ("df", "dinf", "df")))
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs == pytest.approx(k, rel=1e-6)
    # Dinf^3 = D0^3 + 3k D0^2.Df + 3k^2 D0.Df^2 = k^2 - 3k^2 + 3k^2
    lhs = wedge_integral_oracle(3, k, ("dinf",) * 3)
    rhs = (wedge_integral_oracle(3, k, ("d0", "dinf", "dinf"))
           + k * wedge_integral_oracle(3, k, ("df", "dinf", "dinf")))
    assert lhs == pytest.approx(rhs, abs=1e-6)
    assert lhs == pytest.approx(k ** 2, rel=1e-6)


def _dense_block_matrix(a, b, c, d, n):
    """(..., n, n) matrix: radial 0, tangents 1..n-2, fiber n-1."""
    H = np.zeros(a.shape + (n, n))
    H[..., 0, 0] = a
    for j in range(1, n - 1):
        H[..., j, j] = d
    H[..., n - 1, n - 1] = b
    H[..., 0, n - 1] = H[..., n - 1, 0] = c
    return H


def _polarized_determinant(mats):
    """Mixed discriminant by polarization over all nonempty subsets."""
    n = len(mats)
    total = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            total += (-1) ** (n - size) * np.linalg.det(sum(mats[i] for i in subset))
    return total / math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_mixed_determinant_matches_polarization(n):
    rng = np.random.default_rng(n)
    blocks = [tuple(rng.normal(size=7) for _ in range(4)) for _ in range(n)]
    dense = [_dense_block_matrix(*entries, n) for entries in blocks]
    ref = _polarized_determinant(dense)
    md = _mixed_determinant(dict(enumerate(blocks)), range(n))
    assert np.allclose(md, ref, rtol=1e-12, atol=0.0)
    # equal arguments give the determinant
    same = _mixed_determinant({"x": blocks[0]}, ["x"] * n)
    assert np.allclose(same, np.linalg.det(dense[0]), rtol=1e-12, atol=0.0)


def _pairwise_mixed_determinant(blocks):
    """The pair sum term by term: C(n, 2) pairs, each times n - 2 d's."""
    n = len(blocks)
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        a_i, b_i, c_i, _ = blocks[i]
        a_j, b_j, c_j, _ = blocks[j]
        pair = 0.5 * (a_i * b_j + a_j * b_i) - c_i * c_j
        total = total + math.prod(
            (blocks[l][3] for l in range(n) if l not in (i, j)), start=pair)
    return total / math.comb(n, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_mixed_determinant_by_multiplicity_matches_pair_sum(n):
    # every multiset of n labels drawn from three, in a shuffled order
    rng = np.random.default_rng(n)
    entries = {x: tuple(rng.normal(size=50) for _ in range(4)) for x in "xyz"}
    for multiset in itertools.combinations_with_replacement("xyz", n):
        labels = list(rng.permutation(multiset))
        ref = _pairwise_mixed_determinant([entries[x] for x in labels])
        md = _mixed_determinant(entries, labels)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(md - ref)) <= 1e-14 * scale


ORACLE_TABLE = [(n, k) for n in (2, 3) for k in (1, 2, 3)]


def _oracle_table():
    return {(n, k): IntersectionReport.build(n, k, with_oracle=True).oracle
            for n, k in ORACLE_TABLE}


def test_oracle_table_builds_each_rule_once(monkeypatch):
    # 54 integrals at two resolutions need only the two rules
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(nodes):
        calls.append(nodes)
        return leggauss(nodes)

    _half_line_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    _oracle_table()
    assert sorted(calls) == sorted([toric.ORACLE_NODES,
                                    toric.ORACLE_NODES_COARSE])


def test_shared_rule_is_read_only():
    q, wq = _half_line_rule(toric.ORACLE_NODES_COARSE)
    for array in (q, wq):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert _half_line_rule(toric.ORACLE_NODES_COARSE)[0] is q


def _fresh_half_line_rule(nodes):
    """The rule rebuilt from leggauss on every call: the reference."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (x + 1.0)
    return x / (1.0 - x), 0.5 * wx / (1.0 - x) ** 2


def test_shared_rule_leaves_the_oracle_bit_for_bit(monkeypatch):
    cached = _oracle_table()
    monkeypatch.setattr(toric, "_half_line_rule", _fresh_half_line_rule)
    reference = _oracle_table()
    for case, oracle in reference.items():
        for which, ref in oracle.items():
            got = cached[case][which]
            assert float.hex(got["value"]) == float.hex(ref["value"]), (case, which)
            assert float.hex(got["error"]) == float.hex(ref["error"]), (case, which)


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        wedge_integral_oracle(2, 1, ("d0",))


def test_report_evaluates_each_rule_once(monkeypatch):
    # one oracle call per report, and on each of the two rules one d0 and
    # one df Hessian evaluation; these module attributes are looked up at
    # call time
    calls = {"representative_integral_oracle": [], "_hessian_blocks": [],
             "wedge_integral_oracle": []}
    for name in calls:
        inner = getattr(toric, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            calls[_name].append(args)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(toric, name, counting)
    IntersectionReport.build(3, 2, with_oracle=True)
    assert calls["representative_integral_oracle"] == [(3, 2)]
    assert calls["wedge_integral_oracle"] == []
    blocks = [(label, q.size, s.size, k)
              for label, q, s, k in calls["_hessian_blocks"]]
    rules = (toric.ORACLE_NODES, toric.ORACLE_NODES_COARSE)
    assert sorted(blocks) == sorted((label, N, N, 2) for N in rules
                                    for label in ("d0", "df"))


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
