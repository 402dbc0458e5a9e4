"""Price ingestion, db8 wavelet denoising, log returns and return statistics.

The wavelet transform ships its own 16-tap Daubechies filter (8 vanishing
moments) embedded as constants.  It is periodized: a circular transform
whose odd-length levels are zero-padded.  The map is orthonormal, so
reconstruction is exact and coefficient energy equals signal energy.  Each
level is a sum over the 16 taps on strided slices of a wrapped copy, in tap
order and with no BLAS call, so no BLAS kernel changes the denoised prices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date as _date

import numpy as np

from .chain import _freeze
from .errors import PriceDataError

# Daubechies scaling filter, 8 vanishing moments, 16 taps.  Generated by
# spectral factorization at 60-digit precision (minimal-phase root
# selection); sums to sqrt(2) and is orthonormal to its even shifts at
# float64 machine precision.
DB8_DEC_LO = np.array([
    -0.0001174767841247695337306282,
    0.0006754494064505693663695476,
    -0.0003917403733769470462980804,
    -0.004870352993451574310422182,
    0.008746094047405776716382743,
    0.01398102791739828164872293,
    -0.04408825393079475150676372,
    -0.01736930100180754616961615,
    0.1287474266204784588570293,
    0.00047248457391328277036059,
    -0.2840155429615469265162031,
    -0.01582910525634930566738055,
    0.5853546836542067127712655,
    0.6756307362972898068078008,
    0.3128715909142999706591624,
    0.05441584224310400995500941,
])
DB8_DEC_LO.flags.writeable = False
# the quadrature mirror high-pass filter g[n] = (-1)^n h[L-1-n]
DB8_DEC_HI = (-1.0) ** np.arange(DB8_DEC_LO.shape[0]) * DB8_DEC_LO[::-1]
DB8_DEC_HI.flags.writeable = False


@dataclass(frozen=True)
class PriceSeries:
    """Positive close prices on strictly increasing dates."""

    dates: tuple
    close: np.ndarray

    def __post_init__(self):
        close = _freeze(self.close)
        if len(self.dates) != close.shape[0]:
            raise PriceDataError("dates and prices differ in length")
        if close.shape[0] < 2:
            raise PriceDataError("need at least 2 price rows")
        if not np.all(np.isfinite(close)) or close.min() <= 0.0:
            raise PriceDataError("prices must be finite and positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise PriceDataError(f"dates not strictly increasing at {b}")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "close", close)

    def __len__(self):
        return self.close.shape[0]


@dataclass(frozen=True)
class ReturnSeries:
    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        values = _freeze(self.values)
        if len(self.dates) != values.shape[0]:
            raise PriceDataError("dates and returns differ in length")
        if not np.all(np.isfinite(values)):
            raise PriceDataError("returns must be finite")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.shape[0]


def load_prices(path, date_col: str = "date", price_col: str = "adj_close") -> PriceSeries:
    """Read a price CSV (header required, ISO dates, positive decimals).

    Rows arriving out of order are sorted (stably); duplicate dates,
    unparseable dates and nonpositive prices are rejected with the row
    number in the message.
    """
    rows = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PriceDataError("price file is empty")
        if date_col not in reader.fieldnames or price_col not in reader.fieldnames:
            raise PriceDataError(
                f"missing required columns {date_col!r}/{price_col!r}; "
                f"found {reader.fieldnames}")
        for i, rec in enumerate(reader, start=2):
            try:
                day = _date.fromisoformat((rec[date_col] or "").strip())
            except ValueError as exc:
                raise PriceDataError(f"row {i}: unparseable date {rec[date_col]!r}") from exc
            try:
                price = float(rec[price_col])
            except (TypeError, ValueError) as exc:
                raise PriceDataError(f"row {i}: unparseable price {rec[price_col]!r}") from exc
            if not math.isfinite(price) or price <= 0.0:
                raise PriceDataError(f"row {i}: nonpositive or non-finite price {price!r}")
            rows.append((day, price))
    if len(rows) < 2:
        raise PriceDataError("need at least 2 price rows")
    seen = {}
    for i, (day, _) in enumerate(rows, start=2):
        if day in seen:
            raise PriceDataError(f"duplicate date {day} (rows {seen[day]} and {i})")
        seen[day] = i
    rows.sort(key=lambda r: r[0])
    return PriceSeries(tuple(r[0] for r in rows), np.array([r[1] for r in rows]))


@dataclass
class WaveletPyramid:
    """Multi-level coefficients: details[0] is the finest level."""

    approx: np.ndarray
    details: list
    level_lengths: list      # input length at each level (for inversion)

    def coefficient_energy(self) -> float:
        return float((self.approx ** 2).sum() + sum((d ** 2).sum() for d in self.details))


def _auto_levels(n: int) -> int:
    return max(1, min(4, int(math.floor(math.log2(n / 15.0)))))


def _dwt_level(x):
    if x.shape[0] % 2:
        x = np.append(x, 0.0)
    n2 = x.shape[0]
    wrapped = np.concatenate((x, x[:DB8_DEC_LO.shape[0]]))
    a, d = np.zeros((2, n2 // 2))
    for j, (lo, hi) in enumerate(zip(DB8_DEC_LO, DB8_DEC_HI)):
        a += lo * wrapped[j:j + n2:2]
        d += hi * wrapped[j:j + n2:2]
    return a, d


def _idwt_level(a, d, n_orig):
    n2 = 2 * a.shape[0]
    wrapped = np.zeros(n2 + DB8_DEC_LO.shape[0])
    for j, (lo, hi) in enumerate(zip(DB8_DEC_LO, DB8_DEC_HI)):
        wrapped[j:j + n2:2] += lo * a + hi * d
    wrapped[:wrapped.shape[0] - n2] += wrapped[n2:]         # fold the wrapped tail back
    return wrapped[:n_orig]


def dwt(x) -> WaveletPyramid:
    """Multi-level periodized analysis, min(4, floor(log2(N / 15))) levels
    (at least one); every level's input holds at least 16 samples."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dwt expects a 1-d sequence")
    L = DB8_DEC_LO.shape[0]
    if x.shape[0] < L:
        raise ValueError(f"series of length {x.shape[0]} is shorter than the filter ({L})")
    approx = x
    details = []
    lengths = []
    for _ in range(_auto_levels(x.shape[0])):
        lengths.append(approx.shape[0])
        approx, d = _dwt_level(approx)
        details.append(d)
    return WaveletPyramid(approx, details, lengths)


def idwt(pyramid: WaveletPyramid) -> np.ndarray:
    """Exact inverse of dwt."""
    x = pyramid.approx
    for d, n_orig in zip(reversed(pyramid.details), reversed(pyramid.level_lengths)):
        x = _idwt_level(x, d, n_orig)
    return x


def soft_threshold(values: np.ndarray, t: float) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - t, 0.0)


@dataclass(frozen=True)
class DenoiseResult:
    denoised: PriceSeries
    noise: np.ndarray
    threshold: float
    sigma: float


def denoise(prices: PriceSeries) -> DenoiseResult:
    """Universal soft-threshold wavelet shrinkage of the price path.

    sigma is the MAD of the finest detail band over 0.6745; the threshold
    is sigma * sqrt(2 ln N).
    """
    x = prices.close
    pyr = dwt(x)
    sigma = float(np.median(np.abs(pyr.details[0])) / 0.6745)
    t = sigma * math.sqrt(2.0 * math.log(x.shape[0]))
    pyr.details = [soft_threshold(d, t) for d in pyr.details]
    y = idwt(pyr)
    if y.min() <= 0.0:
        raise PriceDataError("denoised prices are not positive; lower the threshold")
    return DenoiseResult(PriceSeries(prices.dates, y), x - y, t, sigma)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """r_t = ln(S_t / S_{t-1}), one value per date from the second on."""
    values = np.diff(np.log(prices.close))
    return ReturnSeries(prices.dates[1:], values)


def _unit_scaled(v):
    """(v - mean) / scale and the scale, v's largest absolute deviation (0 if
    v is constant): powers of the first cannot overflow at any level of v."""
    c = v - v.mean()
    scale = float(np.abs(c).max())
    return (c / scale if scale > 0.0 else c), scale


# a series whose std is within this factor of the rounding unit of the
# numbers it is computed from carries no variation to measure
ROUNDING_MARGIN = 1e3


def is_flat(values, source, log: bool = False) -> bool:
    """Whether ``values``, computed from ``source``, do not rise above its
    rounding: std(values) <= ROUNDING_MARGIN eps max |source|, or with max(1,
    max |log source|) for differences of logs (rounding moves a log by eps)."""
    level = max(1.0, float(np.abs(np.log(source)).max())) if log else float(np.abs(source).max())
    u, scale = _unit_scaled(values)
    return not scale * float(u.std()) > ROUNDING_MARGIN * np.finfo(np.float64).eps * level


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    std: float                 # n-1 denominator
    skewness: float            # m3 / m2^1.5, moment estimator
    excess_kurtosis: float     # m4 / m2^2 - 3
    degenerate: bool = False


def descriptive_stats(x) -> DescriptiveStats:
    """Sample mean/std plus moment-estimator skewness and excess kurtosis."""
    v = x.values if isinstance(x, ReturnSeries) else np.asarray(x, dtype=np.float64)
    if v.shape[0] < 4:
        raise ValueError("need at least 4 observations")
    mean = float(v.mean())
    u, scale = _unit_scaled(v)
    if scale == 0.0:
        return DescriptiveStats(mean, 0.0, math.nan, math.nan, degenerate=True)
    m2 = float((u ** 2).mean())
    skew = float((u ** 3).mean() / m2 ** 1.5)
    kurt = float((u ** 4).mean() / m2 ** 2 - 3.0)
    return DescriptiveStats(mean, scale * float(u.std(ddof=1)), skew, kurt)


def significance_stars(p_value: float) -> str:
    if p_value < 0.005:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def _kolmogorov_sf(x: float) -> float:
    """P(sup |B| > x), x > 0, for a Brownian bridge B: seven terms of the faster
    series reach rounding on both sides of 1 (Marsaglia, Tsang & Wang 2003)."""
    if x >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 8))
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * math.pi ** 2 / (8.0 * x * x)) for k in range(1, 8))


def _chi2_sf(q: float, df: int) -> float:
    """Chi-square survival at an even df = 2m: exactly e^-h sum_{k<m} h^k / k!, h = q / 2."""
    h = q / 2.0
    return math.exp(-h) * sum(h ** k / math.factorial(k) for k in range(df // 2))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    stars: str


def ks_test(x) -> KsResult:
    """One-sample Kolmogorov-Smirnov statistic against the fitted normal.

    The p-value uses the asymptotic Kolmogorov distribution.  Because mean
    and std come from the same sample, nominal levels are not exact: the
    estimated parameters bias the test toward small statistics (Lilliefors
    effect).  The p-value carries that caveat rather than a correction.
    """
    v = x.values if isinstance(x, ReturnSeries) else np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    if n < 8:
        raise ValueError("need at least 8 observations")
    u, scale = _unit_scaled(v)
    if scale == 0.0:
        raise ValueError("degenerate sample: zero standard deviation")
    z = np.sort(u / u.std(ddof=1))
    cdf = np.array([0.5 * math.erfc(-zi / math.sqrt(2.0)) for zi in z])     # normal cdf
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    stat = float(max(d_plus, d_minus))
    p = _kolmogorov_sf(math.sqrt(n) * stat)
    return KsResult(stat, p, significance_stars(p))


@dataclass(frozen=True)
class LjungBoxResult:
    q_stat: float
    p_value: float
    stars: str


LJUNG_BOX_LAGS = 12


def ljung_box(x) -> LjungBoxResult:
    """Ljung-Box white-noise test over LJUNG_BOX_LAGS lags; p-value from
    chi-square with LJUNG_BOX_LAGS df."""
    v = x.values if isinstance(x, ReturnSeries) else np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    if n <= LJUNG_BOX_LAGS + 1:
        raise ValueError(f"need more than {LJUNG_BOX_LAGS + 1} observations")
    u, scale = _unit_scaled(v)
    if scale == 0.0:
        raise ValueError("degenerate sample: zero variance")
    denom = float((u ** 2).sum())
    q = 0.0
    for k in range(1, LJUNG_BOX_LAGS + 1):
        rho = float((u[k:] * u[:-k]).sum()) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    p = _chi2_sf(q, LJUNG_BOX_LAGS)       # exact, as LJUNG_BOX_LAGS is even
    return LjungBoxResult(q, p, significance_stars(p))
