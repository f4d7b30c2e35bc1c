import math

import pytest

from implbases import (MultiParamSpec, almost_sure_lower_exponent,
                       avg_pp_exponent, base_size_log10, classify_regime,
                       d_of_alpha)
from implbases.bounds import K1, K2, K3, K4


# -- d(alpha) ----------------------------------------------------------------


@pytest.mark.parametrize("alpha,expected", [
    (1.0, 1.0),
    (0.5, 1.0),
    (0.01, 1.0),
    (2.0, 9 / 8),
    (3.0, 16 / 12),
])
def test_d_of_alpha_values(alpha, expected):
    assert d_of_alpha(alpha) == pytest.approx(expected, abs=1e-12)


def test_d_of_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        d_of_alpha(0.0)
    with pytest.raises(ValueError):
        d_of_alpha(-1.0)


def test_d_continuous_at_one_and_increasing_above():
    assert d_of_alpha(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)
    grid = [1.0 + 0.1 * k for k in range(1, 30)]
    values = [d_of_alpha(a) for a in grid]
    assert all(v >= 1.0 for v in values)
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


# -- average exponent ----------------------------------------------------------
#
# A context's per-attribute proper premises are the minimal transversals
# of its attribute hypergraph, which has m = objects * q edges and
# vertex-absence probability p; `avg_pp_exponent` is the average
# minimal-transversal ("mt") exponent of that hypergraph.


def test_avg_mt_exponent_substitution():
    # m = 20 * 0.5 = 10 and alpha = ln 10 / ln 100 = 0.5
    # log2(10) + ln ln 10, frozen from the closed form
    assert avg_pp_exponent(100, 20, 0.5, 1.0) == pytest.approx(
        4.155960540135318, abs=1e-12)
    assert avg_pp_exponent(100, 20, 0.5, 1.0) == pytest.approx(
        math.log2(10) + math.log(math.log(10)), abs=1e-12)


def test_avg_mt_exponent_c_zero_reduces_to_log_term():
    # m = 10 and alpha = ln 10 / ln 50 ~ 0.59
    assert avg_pp_exponent(50, 20, 0.5, 0.0) == pytest.approx(
        math.log2(10), abs=1e-12)


def test_avg_mt_exponent_monotone_in_m():
    prev = None
    for objects in (10, 20, 40, 80, 160):
        e = avg_pp_exponent(100, objects, 0.5, 1.0)
        if prev is not None:
            assert e > prev
        prev = e


def test_avg_mt_exponent_monotone_in_vertex_absence():
    # the exponent grows as the log base 1/p shrinks, i.e. with p (the
    # vertex-absence probability), even though m = objects * q falls
    exps = [avg_pp_exponent(100, 100, p, 1.0) for p in (0.2, 0.4, 0.6, 0.8)]
    assert all(exps[i] < exps[i + 1] for i in range(len(exps) - 1))


def test_avg_mt_exponent_guards():
    with pytest.raises(ValueError):
        avg_pp_exponent(10, 4, 0.5)  # m = 2 < 3
    with pytest.raises(ValueError):
        avg_pp_exponent(1, 10, 0.5)
    with pytest.raises(ValueError):
        avg_pp_exponent(10, 10, 0.0)


@pytest.mark.parametrize("bound", [avg_pp_exponent, almost_sure_lower_exponent])
@pytest.mark.parametrize("n, m, p, message", [
    (10, 10, 0.0, "p must be in (0, 1), got 0.0"),
    (10, 10, 1.0, "p must be in (0, 1), got 1.0"),
    (1, 2, 0.0, "p must be in (0, 1), got 0.0"),  # p first
    (1, 10, 0.5, "n_attributes must be >= 2, got 1"),
    (1, 4, 0.5, "n_attributes must be >= 2, got 1"),  # then n
    (10, 4, 0.5, "objects * q must be >= 3.0 (ln ln guard), got 2.0"),
    (50, 50, 0.99, "objects * q must be >= 3.0 (ln ln guard), got 0.5000000000000004"),
])
def test_context_bounds_refuse_in_one_order(bound, n, m, p, message):
    with pytest.raises(ValueError) as info:
        bound(n, m, p)
    assert str(info.value) == message


def test_alpha_derived_from_m():
    # m = 200 * 0.5 = 100, alpha = ln 100 / ln 10 = 2, so the log term
    # carries d(2) = 9/8
    assert avg_pp_exponent(10, 200, 0.5, 0.0) == pytest.approx(
        9 / 8 * math.log2(100), abs=1e-12)


def test_avg_pp_exponent_substitution():
    assert avg_pp_exponent(50, 50, 0.5, 1.0) == pytest.approx(
        5.81288836566178, abs=1e-12)
    assert avg_pp_exponent(50, 50, 0.5, 1.0) == pytest.approx(
        math.log2(25) + math.log(math.log(25)), abs=1e-12)


def test_avg_pp_exponent_matches_mapped_query():
    """The hypergraph bound d(alpha) * log_{1/q_h}(m) + c * ln ln m at
    m = objects * q and q_h = p, exactly; alpha = ln m / ln 40 is above 1
    at p = 0.1 and 0.3 and below at 0.7. At p = 0.3, 1 - (1 - p) != p in
    floats, and taking the log base from it moves the last bit."""
    n, objects, c = 40, 60, 0.8
    for p in (0.1, 0.3, 0.7):
        m, q_h = objects * (1 - p), p
        assert avg_pp_exponent(n, objects, p, c) == (
            d_of_alpha(math.log(m) / math.log(n)) * (math.log(m) / math.log(1 / q_h))
            + c * math.log(math.log(m)))


def test_avg_pp_exponent_frozen_at_p_03():
    """The log base is 1/p itself; 1/(1 - (1 - p)) gives
    3.971308335026012 here."""
    assert avg_pp_exponent(40, 40, 0.3, 1.0) == 3.9713083350260114


def test_avg_pp_exponent_takes_a_p_below_float_resolution_of_q():
    # 1 - 1e-20 rounds to 1.0; the bound still reads p itself
    assert avg_pp_exponent(100, 50, 1e-20, 1.0) == pytest.approx(
        math.log(50) / math.log(1e20) + math.log(math.log(50)), abs=1e-12)


def test_avg_pp_exponent_degenerate_dense_rejected():
    with pytest.raises(ValueError):
        avg_pp_exponent(50, 50, 0.99, 1.0)


def test_variable_mapping_p_vs_q_roles():
    # with c=0 and alpha <= 1 the exponent is exactly log_{1/p}(objects * q);
    # swapping p and q swaps both the edge count and the log base
    a = avg_pp_exponent(50, 40, 0.2, 0.0)
    assert a == pytest.approx(math.log(40 * 0.8) / math.log(1 / 0.2), abs=1e-12)
    b = avg_pp_exponent(50, 40, 0.8, 0.0)
    assert b == pytest.approx(math.log(40 * 0.2) / math.log(1 / 0.8), abs=1e-9)


def test_total_base_bound_log10_substitution():
    exponent = avg_pp_exponent(5, 5, 0.4, 1.0)
    assert base_size_log10(exponent, 5) == pytest.approx(
        1.6027561655307827, abs=1e-12)
    assert base_size_log10(exponent, 5) == pytest.approx(
        (exponent + 1.0) * math.log10(5), abs=1e-12)
    assert exponent == pytest.approx(1.2930256743324893, abs=1e-12)


def test_total_base_bound_monotone_in_objects():
    values = [base_size_log10(avg_pp_exponent(30, m, 0.5, 1.0), 30)
              for m in (10, 20, 40, 80)]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


# -- almost-sure lower bound --------------------------------------------------------


def test_lower_exponent_substitution():
    exponent = almost_sure_lower_exponent(50, 50, 0.5, c2=0.0)
    assert exponent == pytest.approx(4.643856189774724, abs=1e-12)
    assert base_size_log10(exponent, 50) == pytest.approx(
        (exponent + 1.0) * math.log10(50), abs=1e-12)


def test_lower_exponent_with_negative_c2():
    exponent = almost_sure_lower_exponent(50, 50, 0.5, c2=-2.0)
    assert exponent == pytest.approx(
        math.log2(25) - 2.0 * math.log(math.log(25)), abs=1e-12)


def test_lower_below_average_when_constants_align():
    # with c2 <= c and alpha <= 1 the lower exponent cannot exceed the average
    for p in (0.3, 0.5, 0.7):
        for m in (20, 50):
            avg = avg_pp_exponent(64, m, p, 1.0)
            low = almost_sure_lower_exponent(64, m, p, c2=0.5)
            assert low <= avg


def test_lower_exponent_guards():
    with pytest.raises(ValueError):
        almost_sure_lower_exponent(50, 4, 0.5)
    with pytest.raises(ValueError):
        almost_sure_lower_exponent(50, 50, 1.0)


# -- regime classification -----------------------------------------------------------


def mspec(n, u, r):
    return MultiParamSpec(n_objects=10, n_attributes=n, u_size=u, r_size=r)


def test_classify_polynomial():
    report = classify_regime(mspec(1000, 2, 3))
    assert report.regime == "polynomial"
    assert "|U∪R|=5" in report.witness


def test_classify_quasi_polynomial():
    report = classify_regime(mspec(1000, 0, 40))
    assert report.regime == "quasi-polynomial"


def test_classify_exponential():
    report = classify_regime(mspec(100, 0, 60))
    assert report.regime == "exponential"


def test_classify_unclassified_gap():
    # |R| above (ln n)^2 but below n/2 matches nothing
    report = classify_regime(mspec(100, 0, 30))
    assert report.regime == "unclassified"


def test_classify_tightest_wins():
    # tiny context: all three conditions hold; polynomial is reported
    report = classify_regime(mspec(4, 0, 1))
    assert report.regime == "polynomial"


@pytest.mark.parametrize("n", [100, 1000])
def test_classify_polynomial_boundary(n):
    # |U ∪ R| counts both classes; one past K1 * ln n is the next class
    edge = math.floor(K1 * math.log(n))
    assert classify_regime(mspec(n, 0, edge)).regime == "polynomial"
    assert classify_regime(mspec(n, edge, 0)).regime == "polynomial"
    assert classify_regime(mspec(n, 0, edge + 1)).regime == "quasi-polynomial"
    assert classify_regime(mspec(n, edge + 1, 0)).regime == "quasi-polynomial"


def test_classify_quasi_polynomial_boundary():
    n = 1000  # K2 * ln(n) ** K3 ~ 47.7, far below K4 * n
    edge = math.floor(K2 * math.log(n) ** K3)
    assert classify_regime(mspec(n, 0, edge)).regime == "quasi-polynomial"
    assert classify_regime(mspec(n, 0, edge + 1)).regime == "unclassified"


@pytest.mark.parametrize("n", [100, 101])
def test_classify_exponential_boundary(n):
    # K4 * n is 50 at n = 100 (met with equality) and 50.5 at n = 101
    edge = math.ceil(K4 * n)
    assert classify_regime(mspec(n, 0, edge)).regime == "exponential"
    assert classify_regime(mspec(n, 0, edge - 1)).regime == "unclassified"


def test_classify_deterministic():
    spec = mspec(1000, 0, 40)
    assert classify_regime(spec) == classify_regime(spec)
