"""Domain types, the spatial-sign transform, and shared nuisance estimators.

Everything here is a pure function of its inputs; the matrix types freeze
their data on construction and are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientSampleError,
    InvalidInputError,
    InvalidLagError,
)

__all__ = [
    "LagWindow",
    "SeriesMatrix",
    "SignMatrix",
    "TestOutcome",
    "ZERO_NORM_THRESHOLD",
    "as_lag",
    "as_series",
    "as_signs",
    "normal_upper_quantile",
    "normal_upper_tail",
    "sign_transform",
    "spatial_sign",
    "trace_omega2_hat",
    "trace_sigma2_hat",
]

#: Rows whose largest magnitude falls below this are treated as exact zeros.
ZERO_NORM_THRESHOLD = 1e-300

_SIGN_NORM_TOL = 1e-9

_SQRT1_2 = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class SeriesMatrix:
    """An n-by-p block of observations, one time point per row, rows in time order.

    data may be an array or another matrix, whose data is copied.
    """

    data: np.ndarray

    _kind = "series"  # names the matrix in validation messages

    def __post_init__(self):
        data = self.data
        arr = np.array(data.data if isinstance(data, SeriesMatrix) else data, dtype=float)
        name = self._kind
        if arr.ndim != 2:
            raise InvalidInputError(f"{name} must be two-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise InsufficientSampleError(f"{name} needs at least 2 rows, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise InvalidInputError(f"{name} needs at least 1 column")
        if not np.isfinite(arr).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class SignMatrix(SeriesMatrix):
    """Spatial signs of a series: every row has unit norm or is exactly zero."""

    _kind = "signs"

    def __post_init__(self):
        super().__post_init__()
        norms = np.sqrt((self.data * self.data).sum(axis=1))
        if not bool(((np.abs(norms - 1.0) <= _SIGN_NORM_TOL) | (norms == 0.0)).all()):
            raise InvalidInputError("sign rows must have norm 1 or be exactly zero")

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "SignMatrix":
        """Wrap rows that are unit or zero by construction, skipping validation."""
        arr.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "data", arr)
        return obj


@dataclass(frozen=True)
class LagWindow:
    """Portmanteau lag window: statistics scan lags 1 through H."""

    H: int

    def __post_init__(self):
        if isinstance(self.H, bool) or not isinstance(self.H, (int, np.integer)):
            raise InvalidInputError("H must be an integer")
        object.__setattr__(self, "H", int(self.H))
        if self.H < 1:
            raise InvalidLagError("H must be at least 1")

    def check_against(self, n: int) -> None:
        """Lags past n - 1 index before the start of the sample; reject them.

        A lag h = n - 1 is allowed and contributes an empty (hence zero) pair
        sum; the normalization 1/(n - h) only breaks down at h = n.
        """
        if self.H > n - 1:
            raise InvalidLagError(f"H={self.H} too large for n={n} rows (need H <= n-1)")


def as_lag(H) -> LagWindow:
    """Coerce an int or LagWindow to a LagWindow."""
    return H if isinstance(H, LagWindow) else LagWindow(H)


def as_series(x) -> SeriesMatrix:
    return x if isinstance(x, SeriesMatrix) else SeriesMatrix(x)


def as_signs(x) -> SignMatrix:
    """A SignMatrix as is; anything else, a SeriesMatrix too, once validated."""
    return x if isinstance(x, SignMatrix) else SignMatrix(x)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test at one lag window.

    The reject flag always equals ``p_value < alpha``; for the normal-limit
    tests the p-value is the upper tail of the standardized statistic.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    standardized: float
    p_value: float
    reject: bool
    alpha: float
    nuisance: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie strictly between 0 and 1")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError("p_value must lie in [0, 1]")
        if bool(self.reject) != (self.p_value < self.alpha):
            raise InvalidInputError("reject flag inconsistent with p_value and alpha")


def spatial_sign(x) -> np.ndarray:
    """Direction vector x / ||x||, or the zero vector when x is zero.

    The norm is computed on max-magnitude-rescaled entries so the squared sum
    can neither overflow nor underflow; rescaling by a power of two is exact,
    which keeps the map exactly invariant under such scalings.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("spatial_sign input contains non-finite entries")
    return _sign_rows(v)


def _sign_rows(X: np.ndarray) -> np.ndarray:
    """Spatial signs of the rows of X, one per last-axis vector, any leading axes."""
    scratch = np.abs(X)  # reused for the squares: one temporary, not two
    scales = scratch.max(axis=-1)
    # dividing near-zero rows by inf gives exact zeros without a branch
    W = X / np.where(scales < ZERO_NORM_THRESHOLD, np.inf, scales)[..., None]
    norms = np.sqrt(np.multiply(W, W, out=scratch).sum(axis=-1))
    W /= np.where(norms == 0.0, np.inf, norms)[..., None]
    return W


def sign_transform(eps) -> SignMatrix:
    """Apply the spatial-sign map to every row of a series."""
    return SignMatrix._trusted(_sign_rows(as_series(eps).data))


@functools.lru_cache(maxsize=8)
def _packed_index(n: int) -> np.ndarray:
    """Flat positions of an n x n matrix's strict upper triangle, packed
    superdiagonal by superdiagonal: (0, 1), (1, 2), ..., (n-2, n-1), then
    (0, 2), ... and finally (0, n-1).

    In this order the lag-h partner G[s-h, t-h] of G[s, t] sits exactly h
    slots earlier, so a lag's pair products are one shifted product of the
    packed vector with itself; only products that straddle two
    superdiagonals must be dropped (_straddling). The diagonals follow each
    other with no padding, so the layout, and with it the order in which
    every sum adds, depends on n alone and never on the lag window: any
    window, and any single-test call, sums each lag in the same order and
    gets the same bits, which are a function of (n, h) and the Gram entries.
    The index is cached per n and read-only; _packed_gram passes np.take its
    writeable base, as take copies a read-only index on every call.
    """
    index = np.concatenate([d + (n + 1) * np.arange(n - d) for d in range(1, n)]).view()
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=64)
def _straddling(n: int, h: int, R: int = 1) -> np.ndarray:
    """Slots k of the packed product v[:-h] * v[h:] whose v[k] and v[k+h] lie
    on different superdiagonals: the last min(h, n-d) slots of superdiagonal
    d. For R packed vectors laid end to end, the same slots of each vector,
    offset by its start. Cached per (n, h, R) and read-only."""
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    slots = np.concatenate([np.arange(end - min(h, n - d), end) for d, end in enumerate(ends, 1)])
    slots = slots[slots < ends[-1] - h]
    slots = (slots + ends[-1] * np.arange(R)[:, None]).ravel()
    slots.flags.writeable = False
    return slots


def _packed_gram(rows: np.ndarray) -> np.ndarray:
    """Strict upper triangles of rows[r] @ rows[r].T, (R, n(n-1)/2), for rows
    (R, n, k), in the _packed_index layout.

    The stacked product makes the single-matrix BLAS call for each r. Rows
    passed as a temporary are freed before the packing, the Grams on
    return. take lays each triangle out contiguously, where a fancy index
    would lay the block out by columns.
    """
    R, n = rows.shape[:2]
    G = np.matmul(rows, rows.transpose(0, 2, 1))
    del rows
    return G.reshape(R, n * n).take(_packed_index(n).base, axis=-1)


def _pair_square_means(v: np.ndarray, n: int) -> list[float]:
    """2/(n(n-1)) times the sum of squares of each packed Gram row of v.

    One einsum per row: a BLAS dot would split the sum by the BLAS thread
    count, and one einsum over all rows sums in another order.
    """
    return [2.0 * float(np.einsum("i,i->", row, row)) / (n * (n - 1)) for row in v]


def trace_omega2_hat(signs) -> float:
    """Estimate tr(Omega^2), Omega the second moment of the spatial signs.

    Mean of squared pairwise inner products of the sign rows over all ordered
    pairs s != t. Consistent for tr(Omega^2) under the null; clipped at 1, so
    always in [0, 1], the exact range for unit or zero rows.
    """
    U = as_signs(signs).data
    return min(_pair_square_means(_packed_gram(U[None]), U.shape[0])[0], 1.0)


def trace_sigma2_hat(eps) -> float:
    """Estimate tr(Sigma^2) from raw rows: mean squared inner product over pairs."""
    X = as_series(eps).data
    return _pair_square_means(_packed_gram(X[None]), X.shape[0])[0]


def normal_upper_tail(z: float) -> float:
    """P(Z > z) for standard normal Z, with the branches of scipy's ndtr.

    With x = -z / sqrt(2) the tail is 0.5 + 0.5 erf(x) when |x| < 1/sqrt(2)
    and 0.5 erfc(|x|) otherwise, taken from 1 when x > 0. On a fine grid it
    agrees with scipy.special.ndtr(-z) to 1.8e-15 relative for |z| <= 5,
    4.3e-15 for |z| <= 10 and 5.8e-14 for |z| <= 37.5; beyond z = 37.7,
    where ndtr returns 0, erfc still gives subnormal values.
    """
    x = -z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def normal_upper_quantile(alpha: float) -> float:
    """The z with P(Z > z) = alpha for standard normal Z.

    The standard library's NormalDist.inv_cdf, which agrees with scipy's
    ndtri to 7.7e-16 relative; adding 0.0 normalizes the -0.0 produced at
    alpha = 0.5.
    """
    if not 0.0 < float(alpha) < 1.0:
        raise InvalidInputError("alpha must lie strictly between 0 and 1")
    from statistics import NormalDist  # here, so that importing hdwn stays cheap
    return -NormalDist().inv_cdf(float(alpha)) + 0.0
