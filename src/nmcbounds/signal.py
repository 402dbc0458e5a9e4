"""Price ingestion, db8 wavelet denoising, log returns and return statistics.

The wavelet transform ships its own 16-tap Daubechies filter (8 vanishing
moments) embedded as constants.  Two boundary modes are supported:

* ``periodization`` (default): circular transform, odd-length levels are
  zero-padded.  The map is orthonormal, so reconstruction is exact and
  coefficient energy equals signal energy.
* ``symmetric``: half-sample symmetric extension with a slightly
  redundant coefficient set.  Reconstruction is exact; energy is not
  preserved (the frame is overcomplete).

scipy is imported at its call sites, ``scipy.special`` inside ``ks_test``
and ``ljung_box``, so importing this module (and the CLI) loads no scipy.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date as _date

import numpy as np

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

_FAMILIES = {"db8": DB8_DEC_LO, "db8-16tap": DB8_DEC_LO}


def quadrature_mirror(h: np.ndarray) -> np.ndarray:
    """High-pass filter g[n] = (-1)^n h[L-1-n]."""
    L = len(h)
    return np.array([(-1.0) ** n * h[L - 1 - n] for n in range(L)])


@dataclass(frozen=True)
class PriceSeries:
    """Positive close prices on strictly increasing dates."""

    dates: tuple
    close: np.ndarray

    def __post_init__(self):
        close = np.asarray(self.close, dtype=np.float64)
        if len(self.dates) != close.shape[0]:
            raise PriceDataError("dates and prices differ in length")
        if close.shape[0] < 2:
            raise PriceDataError("need at least 2 price rows")
        if not np.all(np.isfinite(close)) or close.min() <= 0.0:
            raise PriceDataError("prices must be finite and positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise PriceDataError(f"dates not strictly increasing at {b}")
        close = close.copy()
        close.flags.writeable = False
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "close", close)

    def __len__(self):
        return self.close.shape[0]


@dataclass(frozen=True)
class ReturnSeries:
    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != values.shape[0]:
            raise PriceDataError("dates and returns differ in length")
        if not np.all(np.isfinite(values)):
            raise PriceDataError("returns must be finite")
        values = values.copy()
        values.flags.writeable = False
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    for i, (day, _) in enumerate(rows):
        if day in seen:
            raise PriceDataError(f"duplicate date {day} (rows {seen[day]} and {i})")
        seen[day] = i
    rows.sort(key=lambda r: r[0])
    return PriceSeries(tuple(r[0] for r in rows), np.array([r[1] for r in rows]))


@dataclass(frozen=True)
class WaveletSpec:
    family: str = "db8"
    levels: int | None = None            # None: min(4, floor(log2(N/15)))
    threshold: str = "soft"              # "soft" or "none"
    boundary: str = "periodization"      # "periodization" or "symmetric"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown wavelet family {self.family!r}")
        if self.levels is not None and self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.threshold not in ("soft", "none"):
            raise ValueError("threshold must be 'soft' or 'none'")
        if self.boundary not in ("periodization", "symmetric"):
            raise ValueError("boundary must be 'periodization' or 'symmetric'")

    @property
    def dec_lo(self) -> np.ndarray:
        return _FAMILIES[self.family]

    @property
    def dec_hi(self) -> np.ndarray:
        return quadrature_mirror(self.dec_lo)


@dataclass
class WaveletPyramid:
    """Multi-level coefficients: details[0] is the finest level."""

    approx: np.ndarray
    details: list
    level_lengths: list      # input length at each level (for inversion)
    spec: WaveletSpec
    length: int

    def coefficient_energy(self) -> float:
        return float((self.approx ** 2).sum() + sum((d ** 2).sum() for d in self.details))


def _auto_levels(n: int) -> int:
    return max(1, min(4, int(math.floor(math.log2(n / 15.0)))))


def _dwt_level_per(x, h, g):
    n = x.shape[0]
    if n % 2:
        x = np.append(x, 0.0)
    n2 = x.shape[0]
    idx = (2 * np.arange(n2 // 2)[:, None] + np.arange(h.shape[0])[None, :]) % n2
    seg = x[idx]
    return seg @ h, seg @ g


def _idwt_level_per(a, d, h, g, n_orig):
    n2 = 2 * a.shape[0]
    idx = (2 * np.arange(a.shape[0])[:, None] + np.arange(h.shape[0])[None, :]) % n2
    x = np.zeros(n2)
    np.add.at(x, idx, a[:, None] * h[None, :] + d[:, None] * g[None, :])
    return x[:n_orig]


def _dwt_level_sym(x, h, g):
    L = h.shape[0]
    n = x.shape[0]
    na = (n + L) // 2
    ext = np.pad(x, (L - 1, L - 1), mode="symmetric")
    a = np.convolve(ext, h[::-1], "valid")[::2][:na]
    d = np.convolve(ext, g[::-1], "valid")[::2][:na]
    return a, d


def _idwt_level_sym(a, d, h, g, n_orig):
    L = h.shape[0]
    ua = np.zeros(2 * a.shape[0])
    ua[::2] = a
    ud = np.zeros(2 * d.shape[0])
    ud[::2] = d
    y = np.convolve(ua, h) + np.convolve(ud, g)
    return y[L - 1:L - 1 + n_orig]


def dwt(x, spec: WaveletSpec | None = None) -> WaveletPyramid:
    """Multi-level analysis; levels shrink until the filter no longer fits.

    A requested depth that outruns the data is reduced with a warning
    rather than rejected.
    """
    spec = spec or WaveletSpec()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dwt expects a 1-d sequence")
    L = spec.dec_lo.shape[0]
    if x.shape[0] < L:
        raise ValueError(f"series of length {x.shape[0]} is shorter than the filter ({L})")
    levels = spec.levels if spec.levels is not None else _auto_levels(x.shape[0])
    h, g = spec.dec_lo, spec.dec_hi
    step = _dwt_level_per if spec.boundary == "periodization" else _dwt_level_sym
    approx = x
    details = []
    lengths = []
    done = 0
    for _ in range(levels):
        if approx.shape[0] < L:
            warnings.warn(
                f"level reduced to {done}: next level would need >= {L} samples")
            break
        lengths.append(approx.shape[0])
        approx, d = step(approx, h, g)
        details.append(d)
        done += 1
    return WaveletPyramid(approx, details, lengths, spec, x.shape[0])


def idwt(pyramid: WaveletPyramid) -> np.ndarray:
    """Exact inverse of dwt for both boundary modes."""
    spec = pyramid.spec
    h, g = spec.dec_lo, spec.dec_hi
    step = _idwt_level_per if spec.boundary == "periodization" else _idwt_level_sym
    x = pyramid.approx
    for d, n_orig in zip(reversed(pyramid.details), reversed(pyramid.level_lengths)):
        x = step(x, d, h, g, n_orig)
    return x


def soft_threshold(values: np.ndarray, t: float) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - t, 0.0)


@dataclass(frozen=True)
class DenoiseResult:
    denoised: PriceSeries
    noise: np.ndarray
    threshold: float
    sigma: float


def denoise(prices: PriceSeries, spec: WaveletSpec | None = None) -> DenoiseResult:
    """Universal soft-threshold wavelet shrinkage of the price path.

    sigma is the MAD of the finest detail band over 0.6745; the threshold
    is sigma * sqrt(2 ln N).  threshold="none" reproduces the input (up to
    transform roundtrip error).
    """
    spec = spec or WaveletSpec()
    x = prices.close
    pyr = dwt(x, spec)
    t = 0.0
    sigma = 0.0
    if spec.threshold == "soft":
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
    c = v - mean
    m2 = float((c ** 2).mean())
    std = float(v.std(ddof=1))
    if m2 == 0.0:
        return DescriptiveStats(mean, 0.0, math.nan, math.nan, degenerate=True)
    skew = float((c ** 3).mean() / m2 ** 1.5)
    kurt = float((c ** 4).mean() / m2 ** 2 - 3.0)
    return DescriptiveStats(mean, std, skew, kurt)


def significance_stars(p_value: float) -> str:
    if p_value < 0.005:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    stars: str
    # parameters were estimated from the sample, which biases the test
    # toward small statistics; the flag travels with the result
    estimated_params: bool = True


def ks_test(x) -> KsResult:
    """One-sample Kolmogorov-Smirnov statistic against the fitted normal.

    The p-value uses the asymptotic Kolmogorov distribution.  Because mean
    and std come from the same sample, nominal levels are not exact
    (Lilliefors effect); results carry that caveat rather than a
    correction.
    """
    v = x.values if isinstance(x, ReturnSeries) else np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    if n < 8:
        raise ValueError("need at least 8 observations")
    mean = v.mean()
    std = v.std(ddof=1)
    if std == 0.0:
        raise ValueError("degenerate sample: zero standard deviation")
    from scipy import special

    z = np.sort((v - mean) / std)
    cdf = special.ndtr(z)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    stat = float(max(d_plus, d_minus))
    p = float(special.kolmogorov(math.sqrt(n) * stat))
    return KsResult(stat, p, significance_stars(p))


@dataclass(frozen=True)
class LjungBoxResult:
    q_stat: float
    p_value: float
    stars: str
    max_lag: int


def ljung_box(x, max_lag: int = 12) -> LjungBoxResult:
    """Ljung-Box white-noise test; p-value from chi-square with max_lag df."""
    v = x.values if isinstance(x, ReturnSeries) else np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    if n <= max_lag + 1:
        raise ValueError(f"need more than {max_lag + 1} observations")
    c = v - v.mean()
    denom = float((c ** 2).sum())
    if denom == 0.0:
        raise ValueError("degenerate sample: zero variance")
    q = 0.0
    for k in range(1, max_lag + 1):
        rho = float((c[k:] * c[:-k]).sum()) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    from scipy import special

    p = float(special.gammaincc(max_lag / 2.0, q / 2.0))   # chi-square survival
    return LjungBoxResult(q, p, significance_stars(p), max_lag)
