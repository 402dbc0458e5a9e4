import math
from datetime import date, timedelta

import numpy as np
import pytest

from nmcbounds.errors import PriceDataError
from nmcbounds.signal import (
    DB8_DEC_HI,
    DB8_DEC_LO,
    PriceSeries,
    denoise,
    descriptive_stats,
    dwt,
    idwt,
    ks_test,
    ljung_box,
    load_prices,
    log_returns,
    significance_stars,
)


def make_prices(values, start=date(2021, 1, 4)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return PriceSeries(dates, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# filter constants


def test_db8_sum_is_sqrt2():
    assert abs(DB8_DEC_LO.sum() - math.sqrt(2)) < 1e-12


def test_db8_orthonormal_shifts():
    h = DB8_DEC_LO
    for k in range(8):
        v = (h[:16 - 2 * k] * h[2 * k:]).sum()
        target = 1.0 if k == 0 else 0.0
        assert abs(v - target) < 1e-10


def test_db8_vanishing_moments():
    g = DB8_DEC_HI
    n = np.arange(16.0)
    for m in range(8):
        assert abs((g * n ** m).sum()) < 1e-7 * 16.0 ** m + 1e-10


# ---------------------------------------------------------------------------
# transform


@pytest.mark.parametrize("length", [64, 257, 754])
def test_roundtrip_and_energy_periodization(length):
    gen = np.random.default_rng(length)
    for _ in range(10):
        x = gen.standard_normal(length)
        pyr = dwt(x)
        xr = idwt(pyr)
        scale = np.abs(x).max()
        assert np.abs(xr - x).max() / scale < 1e-8
        assert abs(pyr.coefficient_energy() - (x ** 2).sum()) / (x ** 2).sum() < 1e-8


def test_constant_sequence_details_vanish():
    x = np.full(128, 7.5)
    pyr = dwt(x)
    for d in pyr.details:
        assert np.abs(d).max() < 1e-10
    assert idwt(pyr) == pytest.approx(x, abs=1e-10)


def test_too_short_rejected():
    with pytest.raises(ValueError):
        dwt(np.zeros(10))


# ---------------------------------------------------------------------------
# denoise


def test_denoise_constant_passthrough():
    prices = make_prices(np.full(128, 50.0))
    out = denoise(prices)
    assert np.abs(out.denoised.close - prices.close).max() < 1e-8
    assert np.abs(out.noise).max() < 1e-8


def test_denoise_improves_noisy_sine():
    gen = np.random.default_rng(42)
    t = np.arange(512)
    clean = 100.0 + 10.0 * np.sin(2 * np.pi * t / 128)
    noisy = clean + gen.normal(0.0, 1.0, t.shape[0])
    out = denoise(make_prices(noisy))
    mse_before = ((noisy - clean) ** 2).mean()
    mse_after = ((out.denoised.close - clean) ** 2).mean()
    assert mse_after < mse_before


def test_denoise_shrinkage_is_monotone():
    gen = np.random.default_rng(3)
    t = np.arange(256)
    for trial in range(20):
        base = 100 + 10 * np.sin(2 * np.pi * t / (32 + trial)) + gen.normal(0, 1, 256)
        prices = make_prices(base)
        once = denoise(prices)
        twice = denoise(once.denoised)
        first_change = np.linalg.norm(once.denoised.close - prices.close)
        second_change = np.linalg.norm(twice.denoised.close - once.denoised.close)
        assert second_change <= first_change + 1e-12


# ---------------------------------------------------------------------------
# prices and returns


def test_load_prices_roundtrip(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,adj_close\n2021-01-04,100.5\n2021-01-05,101.25\n",
                    encoding="utf-8")
    series = load_prices(path)
    assert len(series) == 2
    assert series.close == pytest.approx([100.5, 101.25])


def test_load_prices_rejects_bad_rows(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,adj_close\n2021-01-04,100.5\n2021-01-05,0\n", encoding="utf-8")
    with pytest.raises(PriceDataError, match="row 3"):
        load_prices(path)
    path.write_text("date,adj_close\nnot-a-date,1\n2021-01-05,2\n", encoding="utf-8")
    with pytest.raises(PriceDataError, match="row 2"):
        load_prices(path)
    path.write_text("date,close\n2021-01-04,1\n", encoding="utf-8")
    with pytest.raises(PriceDataError, match="missing"):
        load_prices(path)
    path.write_text("date,adj_close\n2021-01-04,1\n2021-01-05,2\n2021-01-05,3\n",
                    encoding="utf-8")
    with pytest.raises(PriceDataError, match=r"duplicate date 2021-01-05 \(rows 3 and 4\)"):
        load_prices(path)


def test_load_prices_sorts(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,adj_close\n2021-01-06,3\n2021-01-04,1\n2021-01-05,2\n",
                    encoding="utf-8")
    series = load_prices(path)
    assert series.close == pytest.approx([1.0, 2.0, 3.0])


def test_log_returns_values():
    prices = make_prices([100.0, 110.0])
    r = log_returns(prices)
    assert r.values[0] == pytest.approx(math.log(1.1), abs=1e-12)
    prices = make_prices([100.0, 200.0, 100.0])
    r = log_returns(prices)
    assert r.values == pytest.approx([math.log(2), -math.log(2)], abs=1e-12)
    assert r.values.sum() == pytest.approx(0.0, abs=1e-12)
    constant = log_returns(make_prices([5.0] * 10))
    assert (constant.values == 0).all()


# ---------------------------------------------------------------------------
# descriptive statistics


def test_stats_against_direct_summation_oracle():
    x = np.array([0.3, -1.2, 0.7, 2.1, -0.4, 0.0, 1.5, -2.2])
    st = descriptive_stats(x)
    n = x.shape[0]
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    assert st.mean == pytest.approx(mean, abs=1e-10)
    assert st.std == pytest.approx(math.sqrt(sum((v - mean) ** 2 for v in x) / (n - 1)), abs=1e-10)
    assert st.skewness == pytest.approx(m3 / m2 ** 1.5, abs=1e-10)
    assert st.excess_kurtosis == pytest.approx(m4 / m2 ** 2 - 3, abs=1e-10)


def test_stats_symmetric_series_zero_skew():
    st = descriptive_stats(np.array([0.5, -0.5] * 10))
    assert st.skewness == pytest.approx(0.0, abs=1e-12)


def test_stats_normal_sample_kurtosis():
    x = np.random.default_rng(6).standard_normal(100_000)
    st = descriptive_stats(x)
    assert abs(st.excess_kurtosis) < 0.1


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_statistics_are_scale_free_at_the_float_limits(scale):
    x = np.random.default_rng(8).standard_normal(200)
    st, big = descriptive_stats(x), descriptive_stats(scale * x)
    assert big.std == pytest.approx(scale * st.std, rel=1e-12)
    assert (big.skewness, big.excess_kurtosis) == pytest.approx(
        (st.skewness, st.excess_kurtosis), rel=1e-12)
    assert ks_test(scale * x).statistic == pytest.approx(ks_test(x).statistic, rel=1e-12)
    assert ljung_box(scale * x).q_stat == pytest.approx(ljung_box(x).q_stat, rel=1e-12)


def test_stats_degenerate_flag():
    st = descriptive_stats(np.full(10, 3.3))
    assert st.degenerate and st.std == 0.0
    assert math.isnan(st.skewness)


# ---------------------------------------------------------------------------
# hypothesis tests (simulation oracles)


def test_ks_statistic_range_and_stars():
    x = np.random.default_rng(0).standard_normal(754)
    res = ks_test(x)
    assert 0.0 <= res.statistic <= 1.0
    assert res.stars in ("", "*", "**", "***")
    assert significance_stars(0.003) == "***"
    assert significance_stars(0.007) == "**"
    assert significance_stars(0.03) == "*"
    assert significance_stars(0.5) == ""


def test_ks_fitted_normal_rarely_rejects():
    rejections = 0
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(754)
        if ks_test(x).p_value < 0.05:
            rejections += 1
    # estimated parameters shrink the statistic, so well under nominal
    assert rejections <= 10


def test_ks_heavy_tails_flagged():
    for seed in range(10):
        z = np.random.default_rng(seed).standard_normal(754)
        assert ks_test(z ** 3).stars == "***"


def test_ljung_box_null_acceptance_rate():
    accepted = 0
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(754)
        if ljung_box(x).p_value > 0.05:
            accepted += 1
    assert accepted >= 90


def test_ljung_box_detects_ar1():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        eps = gen.standard_normal(754)
        x = np.empty(754)
        x[0] = eps[0]
        for t in range(1, 754):
            x[t] = 0.5 * x[t - 1] + eps[t]
        assert ljung_box(x).stars == "***"


def test_ljung_box_null_mean_near_df():
    qs = []
    for seed in range(200):
        x = np.random.default_rng(1000 + seed).standard_normal(754)
        qs.append(ljung_box(x).q_stat)
    # chi-square(12) has mean 12; SE of this average is ~0.35
    assert np.mean(qs) == pytest.approx(12.0, abs=1.5)


def test_ljung_box_too_short():
    with pytest.raises(ValueError):
        ljung_box(np.zeros(10))
